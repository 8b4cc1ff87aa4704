"""Tour of the symbolic substrate: shifted variables, canonical forms, and
the forward/backward shift operators delta and delta^-1.

The shift operators act on functions over the coordinates
(..., zeta[-1], x, u, u[1], ...): delta substitutes the dynamics into state
leaves and advances input shifts; delta^-1 substitutes the inverse of the
extension map (f, g). Run:  python demos/01_symbolic_shifts.py
"""

from difflat import invert_extension, systems, to_text
from difflat.expr import cos, pow_, sin, tan, var

print("== canonical expressions ==")
x1, x3, u2 = var("x", 1), var("x", 3), var("u", 2)
e = (x1 - var("x", 2)) * tan(x3) * cos(x3)
print(f"(x1 - x2) * tan(x3) * cos(x3)  ->  {to_text(e)}")
e = pow_(sin(x1), 2) + pow_(cos(x1), 2)
print(f"sin(x1)^2 + cos(x1)^2          ->  {to_text(e)}")
print(f"cos(u2 - x3) == cos(x3 - u2)   ->  {cos(u2 - x3) == cos(x3 - u2)}")

print("\n== the academic example: x+ = f(x,u), zeta = g(x,u) ==")
sf = systems.load("academic")
model = invert_extension(sf.model)   # solve the inverse map psi
for v, fi in zip(model.state_vars, model.f):
    print(f"  {to_text(v)}+ = {to_text(fi)}")
print("  g =", ", ".join(to_text(g) for g in model.g))
print("  psi_x =", ", ".join(to_text(e) for e in model.psi_x))
print("  psi_u =", ", ".join(to_text(e) for e in model.psi_u))

print("\n== backward shifts of the flat output ==")
y1, y2 = sf.candidate.phi
print(f"  y1      = {to_text(y1)}")
for k in range(1, 5):
    print(f"  y1[{-k}]  = {to_text(model.shift(y1, -k))}")
print(f"  y2      = {to_text(y2)}")
for k in range(1, 4):
    print(f"  y2[{-k}]  = {to_text(model.shift(y2, -k))}")

print("\n== delta and delta^-1 are mutually inverse ==")
probe = y2
roundtrip = model.shift(model.shift(probe, -1), 1)
print(f"  delta(delta^-1(y2)) == y2  ->  {roundtrip == probe}")
