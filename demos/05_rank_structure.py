"""The Jacobian structure of the parameterizing map, numerically.

Three rank facts organize the classification:
  * forward-flat:  d_{y[-R1]} F_x has full rank m (with R1 = 0);
  * backward-flat: d_{y[R2]} F_u has full rank m (with R2 = 0);
  * in general both blocks are singular, and the ranks of
    d_{y[-R1]} g(F_x, F_u) and d_{y[-R1]} F_x always coincide.
After normalizing m transition rows to x^{j,+} = v^j, the v-parameterization
cannot see the deepest backward shifts at all (a structural zero block).

Run:  python demos/05_rank_structure.py
"""

from difflat import analyze, normalize_inputs, systems, to_text, zero_block_check

for name in ("vtol", "academic", "robot"):
    sf = systems.load(name)
    report = analyze(sf.model, sf.candidate, sf.options)
    cls = report.classification
    print(f"== {name}: {cls.kind} ==")
    print(f"  rank d_y[R2]  F_u = {cls.rank_Fu_at_R2}")
    print(f"  rank d_y[-R1] F_x = {cls.rank_Fx_at_minusR1}")
    print(f"  rank d_y[-R1] g(F) = {cls.rank_g_of_F}  "
          f"(coincides with the F_x block)")
    print()

print("== input normalization and the zero block (academic example) ==")
sf = systems.load("academic")
report = analyze(sf.model, sf.candidate, sf.options)
norm = normalize_inputs(report.model, report.parameterization)
print(f"  normalized rows: {norm.rows} "
      f"(x4+ = u1 and x5+ = u2 are already input rows; the transform is the identity)")
for u, e in norm.u_from_v.items():
    print(f"  {to_text(u)} = {to_text(e)}")
print("  F_v components (the v-parameterization over output shifts):")
for e in norm.F_v:
    text = to_text(e)
    if len(text) > 100:
        text = text[:97] + "..."
    print(f"    {text}")
structural, worst = zero_block_check(norm, report.parameterization)
print(f"  d_y[-R1] F_v: structurally zero = {structural}, "
      f"max |numeric| = {worst:.2e}")
assert structural and worst <= 1e-10
