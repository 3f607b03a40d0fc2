"""The numeric layer: phases, the monodromy flow, windings, blow-downs.

Points of the complete log space carry a radius in (0, +inf] and a unit
phase per divisor direction.  On the locus where the clock speeds
1/(r_i N_i) sum to one, the monodromy flow rotates the phase of the
function at unit speed; winding numbers read the multiplicities back off
the phase map alone; and the Bezout splitting isolates the single circle
the monodromy acts on.  The chart-level blow-down takes points of every
tag: it keeps the phase of the function and commutes with sending every
radius to the boundary.
"""

import cmath
import math

from ncmilnor import (
    CplPoint,
    PolarCoord,
    builtin_example,
    chart_context,
    classify,
    f_mot,
    in_simplex,
    monodromy,
    psi_map,
    pullback_motivic_value,
    quotient_to_top,
    recover_multiplicities,
    sigma_alog_chart,
    sign_f,
    sign_oracle,
    simplex_representative,
    xi,
)
from ncmilnor.model import UnitPoly

ctx = chart_context(builtin_example("xa_yb_2_3"))

print("== a point over the corner of x^2 y^3 ==")
p = CplPoint(ctx, (0, 0), {0: PolarCoord(1.0, 1j), 1: PolarCoord(2.0, 1 + 0j)})
print(f"  classification: {classify(p).tag}")
print(f"  clock speeds xi: { {c: round(v, 6) for c, v in xi(p).items()} }")
print(f"  sign f = {sign_f(p):.6f}, f value = {f_mot(p):.6f}")

p = simplex_representative(p)
print(f"  after scaling onto the simplex: xi sums to "
      f"{sum(xi(p).values()):.12f}, in_simplex = {in_simplex(p)}")

print()
print("== monodromy flow: sign f advances at unit speed ==")
base_sign = sign_f(p)
for step in range(5):
    lam = step / 4
    actual = sign_f(monodromy(p, lam))
    predicted = cmath.exp(2j * math.pi * lam) * base_sign
    print(f"  lambda {lam:4.2f}: sign f {actual:+.6f}, "
          f"predicted {predicted:+.6f}, gap {abs(actual - predicted):.2e}")

print()
print("== multiplicities recovered from the phase map alone ==")
oracle = sign_oracle(ctx, (0j, 0j))
windings, phase = recover_multiplicities(oracle, 2, samples_per_loop=32)
print(f"  windings {windings} (model multiplicities are (2, 3)), "
      f"unit phase {phase:.3f}")

print()
print("== the Bezout splitting ==")
image = psi_map(p)
print(f"  gcd order {image.order}, scale r = {image.scale:.6f}")
constraint = 1 + 0j
for coord, w in image.residual:
    constraint *= w ** (ctx.multiplicity(coord) // image.order)
print(f"  residual torus constraint prod w^(N/order) = {constraint:.9f}")
print(f"  f value {f_mot(p):.6f} vs unit * r^order = {image.scale ** image.order:.6f}")

print()
print("== a chart-level blow-down commutes with evaluation ==")
unit = UnitPoly.constant(1)
mults = {0: 2, 1: 3}
up_base = (0j, 0.8 - 0.4j)
up_polar = {0: PolarCoord(1.3, cmath.exp(0.7j))}
down = sigma_alog_chart(2, mults, unit, 0, up_base, up_polar)
upstairs = pullback_motivic_value(2, mults, unit, 0, up_base, up_polar)
print(f"  upstairs value of the pulled-back function: {upstairs:.6f}")
print(f"  downstairs f at the image point:            {f_mot(down):.6f}")
print(f"  relative gap: {abs(upstairs - f_mot(down)) / abs(upstairs):.2e}")

print()
print("== ... and on the boundary, where it keeps sign f ==")
# the upstairs point sent to the boundary: every radius infinite
top_polar = {k: PolarCoord(math.inf, pc.phase) for k, pc in up_polar.items()}
top_down = sigma_alog_chart(2, mults, unit, 0, up_base, top_polar)
print(f"  image tag: {classify(top_down).tag}")
# sign f reads no radius, so upstairs it is the phase of the pulled-back value
print(f"  sign f upstairs {upstairs / abs(upstairs):+.6f}, "
      f"downstairs {sign_f(top_down):+.6f}")
print(f"  sigma(quotient_to_top(p)) == quotient_to_top(sigma(p)): "
      f"{top_down == quotient_to_top(down)}")
