"""VTOL aircraft: forward-flat analysis and exact linearization by a two-fold
prolongation of a transformed input.

The position output (x1, x2) needs only forward shifts: R1 = 0, R2 = (4, 4),
so the defect is d = #R - n = 8 - 6 = 2. Appending a length-2 forward chain
to the transformed input ubar1 = delta^2 y1 yields an 8-state system whose
parameterizing map is a diffeomorphism: static feedback linearizable.

Run:  python demos/02_vtol_prolongation.py
"""

from difflat import analyze, build_combined, certify_linearizing, systems, to_text

sf = systems.load("vtol")
report = analyze(sf.model, sf.candidate, sf.options)
idx = report.indices

print("== analysis ==")
print(f"  classification : {report.classification.kind}")
print(f"  rho = {idx.rho}   R1 = {idx.r1}   R2 = {idx.r2}   d = {idx.d}")
print(f"  rank d_y[0] F_x = {report.classification.rank_Fx_at_minusR1} (= m)")

print("\n== tower of forward shifts ==")
for (j, s), e in report.tower.rows.items():
    text = to_text(e)
    if len(text) > 90:
        text = text[:87] + "..."
    print(f"  y{j}[{s:>2}] = {text}")

print("\nThe parameterization needs an arctangent for x5, which the")
print("expression grammar cannot write; it is therefore evaluated implicitly")
print(f"by Newton inversion of the tower (source: "
      f"{report.parameterization.source}).")
print(f"Trajectory residuals: {report.residuals['max_residual_x']:.2e} (x), "
      f"{report.residuals['max_residual_u']:.2e} (u)")

print("\n== two-fold prolongation ==")
ext = build_combined(report.model, sf.candidate, report.tower)
for v, fi in zip(ext.model.state_vars, ext.model.f):
    text = to_text(fi)
    if len(text) > 90:
        text = text[:87] + "..."
    print(f"  {to_text(v)}+ = {text}")
print(f"  input: ({', '.join(to_text(v) for v in ext.model.input_vars)})")

cert = certify_linearizing(ext, sf.options)
print(f"\ncertificate: square={cert.square}, rank {cert.rank}/{cert.required} "
      f"at {cert.points_checked} verification windows "
      f"(at the chart point: {cert.at_point_rank})")
assert cert.passed
