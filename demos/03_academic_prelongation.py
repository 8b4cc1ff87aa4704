"""Academic five-state example: backward-flat analysis and exact
linearization by a two-fold prelongation.

Here everything is recovered from backward shifts of the output: R2 = 0,
R1 = (4, 3), defect d = 2. The extension prepends a length-2 backward chain
fed by gbar1 = x1 (the output component shifted back to just before its
first history dependence).

Run:  python demos/03_academic_prelongation.py
"""

from difflat import (
    analyze, build_combined, certify_linearizing, systems, to_text, truncated,
)

sf = systems.load("academic")
report = analyze(sf.model, sf.candidate, sf.options)
idx = report.indices

print("== analysis ==")
print(f"  classification : {report.classification.kind}")
print(f"  gamma = {idx.gamma}   R1 = {idx.r1}   R2 = {idx.r2}   d = {idx.d}")
print(f"  rank d_y[0] F_u = {report.classification.rank_Fu_at_R2} (= m)")

print("\n== tower of backward shifts ==")
for (j, s), e in report.tower.rows.items():
    print(f"  y{j}[{s:>2}] = {to_text(e)}")

print("\n== symbolic parameterizing map ==")
param = report.parameterization
for v, e in zip(report.model.state_vars, param.F_x):
    print(f"  {to_text(v)} = {to_text(e)}")
for v, e in zip(report.model.input_vars, param.F_u):
    print(f"  {to_text(v)} = {to_text(e)}")

print("\n== two-fold prelongation ==")
ext = build_combined(report.model, sf.candidate, report.tower)
for v, fi in zip(ext.model.state_vars, ext.model.f):
    print(f"  {to_text(v)}+ = {to_text(fi)}")
print(f"  input: ({', '.join(to_text(v) for v in ext.model.input_vars)})")

cert = certify_linearizing(ext, sf.options)
print(f"\ncertificate: rank {cert.rank}/{cert.required} -> "
      f"{'pass' if cert.passed else 'fail'}")

print("\n== minimality: one chain state fewer breaks the square count ==")
short = certify_linearizing(truncated(ext, "d1"))
print(f"  truncated chain: square={short.square} "
      f"(tower rows {len(ext.tower.rows)} vs coordinates {short.required})")
assert cert.passed and not short.square
