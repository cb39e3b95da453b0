"""Walk through the weighted-completion-time pipeline on a small instance.

Builds a four-job instance with a precedence chain by hand, then shows each
stage: the geometric time grid, the interval-indexed LP relaxation, the
fractional solution, and the rounded schedule produced by SAIAS.  Run with:

    python3 demos/completion_walkthrough.py
"""

import energysched as es

inst = es.Instance(
    jobs=(
        es.Job(1, rho=2, weight=3.0, energy=es.PolynomialEnergy(1.0, 2.0)),
        es.Job(2, rho=1, weight=1.0, energy=es.PolynomialEnergy(0.5, 2.0)),
        es.Job(3, rho=3, weight=2.0, energy=es.PolynomialEnergy(1.0, 2.0)),
        es.Job(4, rho=1, weight=4.0, energy=es.PolynomialEnergy(2.0, 2.0)),
    ),
    speedset=es.SpeedSet((1.0, 2.0), delta=1.0),
    precedence=es.PrecedenceDag(((1, 3), (2, 4))),
    epsilon=0.5,
    alpha=0.5,
)
assert es.validate(inst) == []

print("== time grid ==")
grid = es.build_grid(inst)
print(f"kappa = {grid.tau[0]:.4g}, T = {grid.T} intervals, "
      f"horizon tau_T = {grid.tau[-1]:.4g}")
print("interval upper bounds:", [round(u, 3) for u in grid.tau[1:]])

print("\n== LP relaxation ==")
model = es.build_lp(inst, grid)
print(f"{model.ncols} variables x_ijt, {len(model.rows)} rows "
      f"(assignment + machine capacity + precedence dominance)")
sol = es.solve_lp(model)
print(f"LP optimum (lower bound on any schedule): {sol.objective:.6f}")

print("\n== rounding (SAIAS, alpha = 1/2) ==")
sched = es.saias(inst, sol)
for jid in sched.order:
    print(f"job {jid}: speed {sched.speed[jid]:.3g}, "
          f"runs [{sched.start[jid]:.3f}, {sched.completion[jid]:.3f}]")
bd = sched.breakdown
print(f"energy {bd.energy_total:.4f} + scheduling {bd.scheduling_total:.4f} "
      f"= total {bd.total:.4f}")

print("\n== guarantees ==")
exact = es.brute_force(inst)
bound = es.theoretical_bound(inst)
print(f"exact optimum (brute force): {exact.cost:.6f}")
print(f"realized ratio {sched.cost / exact.cost:.4f} "
      f"vs proven ceiling {bound:.4f}")
assert sol.objective <= exact.cost * (1 + 1e-9) <= sched.cost * (1 + 1e-9)
print("chain LP <= OPT <= SAIAS holds")
