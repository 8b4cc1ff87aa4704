"""Wheeled mobile robot: neither forward- nor backward-flat. Exact
linearization needs both a one-fold prelongation and a one-fold prolongation.

The output (x3, x1 sin u2 - x2 cos u2) uses shifts in both directions:
R1 = (1, 1), R2 = (2, 1), d = d1 + d2 = 1 + 1 = 2. The extension carries one
backward chain state zetabar1[-1] fed by x3 and one forward chain state on
the transformed input ubar1 = x3 + u2.

Run:  python demos/04_robot_combined.py
"""

import random

from difflat import (
    analyze, build_combined, certify_linearizing, systems, to_text,
)
from difflat.analysis import verification_trajectory
from difflat.numeric import verify_parameterization

sf = systems.load("robot")
report = analyze(sf.model, sf.candidate, sf.options)
idx = report.indices

print("== analysis ==")
print(f"  classification : {report.classification.kind}")
print(f"  rho = {idx.rho}   gamma = {idx.gamma}")
print(f"  R1 = {idx.r1}   R2 = {idx.r2}   d1 = {idx.d1}   d2 = {idx.d2}")
print(f"  rank d_y[R2] F_u = {report.classification.rank_Fu_at_R2} < 2, "
      f"rank d_y[-R1] F_x = {report.classification.rank_Fx_at_minusR1} < 2")
print("  (both submatrices are singular: no single-direction parameterization)")

print("\n== tower ==")
for (j, s), e in report.tower.rows.items():
    text = to_text(e)
    if len(text) > 88:
        text = text[:85] + "..."
    print(f"  y{j}[{s:>2}] = {text}")

print("\n== combined extension ==")
ext = build_combined(report.model, sf.candidate, report.tower)
for v, fi in zip(ext.model.state_vars, ext.model.f):
    print(f"  {to_text(v)}+ = {to_text(fi)}")
print(f"  input: ({', '.join(to_text(v) for v in ext.model.input_vars)})")
cert = certify_linearizing(ext, sf.options)
print(f"certificate: rank {cert.rank}/{cert.required} -> "
      f"{'pass' if cert.passed else 'fail'}")

print("\n== trajectory certification of the parameterizing map ==")
model = report.model
traj = verification_trajectory(model, idx, 30, random.Random(7),
                               sf.options.input_boxes)
out = verify_parameterization(model, sf.candidate, report.parameterization,
                              traj, range(0, 30))
print(f"  30-step random trajectory: max |x - F_x| = {out.max_residual_x:.2e}, "
      f"max |u - F_u| = {out.max_residual_u:.2e}")
assert out.passed and cert.passed
