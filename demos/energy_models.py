"""Energy models: polynomial costs, tabulated costs, and the convex envelope.

The LP and the rounding analysis only need the energy cost to be evaluated
on the lower convex envelope of whatever per-speed numbers a job declares.
This script plots (in text) a non-convex cost table against its envelope,
shows off-grid evaluation, quantizes a continuous speed range into a
delta-ladder, and runs the growth-regularity check that the tardiness
guarantee needs.  Run with:

    python3 demos/energy_models.py
"""

import energysched as es
from energysched import check_assumption1, convexify, cost_at, quantize_speed_range

speeds = (1.0, 2.0, 4.0, 8.0)

print("== polynomial model ==")
poly = es.PolynomialEnergy(v=1.0, beta=3.0)
for s in speeds:
    print(f"  speed {s:>4}: cost of a 2-cycle job = {cost_at(poly, 2, s):8.2f}")

print("\n== tabulated model with a non-convex bump ==")
raw = (4.0, 9.0, 6.0, 20.0)          # the 9 at speed 2 sits above the hull
table = es.TableEnergy(raw)
envelope = convexify(raw, speeds)
print("  speed   raw  envelope")
for s, r, e in zip(speeds, raw, envelope):
    marker = "  <- pulled down" if e < r else ""
    print(f"  {s:>5}  {r:4.1f}  {e:8.3f}{marker}")

mid = 3.0
print(f"  off-grid evaluation at speed {mid}: "
      f"{cost_at(table, 1, mid, speeds):.3f} (linear between grid points)")

print("\n== quantizing a continuous speed range ==")
ladder = quantize_speed_range(1.0, 10.0, delta=0.5)
print(f"  [1, 10] with delta=0.5 -> {ladder.m} rungs:",
      [round(s, 3) for s in ladder.speeds])
print("  consecutive ratios stay within 1+delta:",
      [round(b / a, 3) for a, b in zip(ladder.speeds, ladder.speeds[1:])])

print("\n== growth-regularity check (needed for tardiness bounds) ==")
gentle = es.TableEnergy((1.0, 2.0, 4.0, 8.0))
steep = es.TableEnergy((0.001, 1.0, 100.0, 10000.0))
for name, e in (("gentle", gentle), ("steep", steep)):
    ok = check_assumption1(e, beta=2.0, speeds=speeds)
    print(f"  {name} table: cost(g*s) <= g^(beta-1) cost(s) "
          f"{'holds' if ok else 'violated'}")
