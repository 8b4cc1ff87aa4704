"""The Jacobian structure of the parameterizing map, numerically.

Three rank facts organize the classification:
  * forward-flat:  d_{y[-R1]} F_x has full rank m (with R1 = 0);
  * backward-flat: d_{y[R2]} F_u has full rank m (with R2 = 0);
  * in general both blocks are singular, and the ranks of
    d_{y[-R1]} g(F_x, F_u) and d_{y[-R1]} F_x always coincide.
After normalizing m transition rows to x^{j,+} = v^j, the v-parameterization
cannot see the deepest backward shifts at all (a structural zero block): as
v^j = F_x^j shifted one step and F_x sees y_j[-R1_j .. R2_j - 1], F_v sees
y_j[1 - R1_j .. R2_j] only.

Run:  python demos/05_rank_structure.py
"""

from difflat import analyze, normalize_inputs, systems, to_text, vars_of

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
leaves = set().union(*map(vars_of, norm.F_v))
for j, r1 in enumerate(report.indices.r1, start=1):
    shifts = [v.shift for v in leaves if v.component == j]
    print(f"  y{j}: F_v sees shifts {min(shifts)} .. {max(shifts)}, "
          f"none below 1 - R1 = {1 - r1}")
    assert min(shifts) >= 1 - r1
