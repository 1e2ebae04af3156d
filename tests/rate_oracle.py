"""Brute-force rate oracle for the tests.

`brute_force_rate` searches the full (f, g(, u)) control space of a rate
problem on a coarse grid with Powell's method on a quadratic penalty. It
shares only the path map with `fracldp.rates` and never calls `solve`, so it
stays an independent check of the solver.
"""

import math

import numpy as np
from scipy.optimize import minimize

from fracldp import DomainError, TimeGrid, VariationalProblem
from fracldp.kernels import operator_matrix
from fracldp.rates import _paths


def terminal_function(problem: VariationalProblem):
    """(f, g, u) -> x at the constraint node, as `path_from_controls` gives
    it, with the operator matrix and start factor set up once."""
    A = operator_matrix(problem.kernel, problem.grid)
    hom = problem.homogeneous_factor()
    j = problem.node_index
    return lambda f, g, u: _paths(problem, A, hom, f, g, u)[1][j]


def brute_force_rate(problem: VariationalProblem, coarse_n: int = 6) -> float:
    """Independent global search on a coarse grid; used as a test oracle.

    Dense deterministic multistart (structured points plus a seeded random
    lattice) over the stacked control space, refined by Powell on a
    quadratic-penalty objective with two penalty rounds.
    """
    if coarse_n > 8:
        raise DomainError("oracle restricted to coarse grids (n <= 8)")
    grid = TimeGrid.uniform(coarse_n)
    prob = VariationalProblem(
        kernel=problem.kernel, vol=problem.vol, grid=grid, rho=problem.rho,
        include_drift=problem.include_drift, start=problem.start,
        level=problem.level, sense=problem.sense,
    )
    n = coarse_n
    lo, hi = prob.start
    free_start = hi > lo
    dim = 2 * n + (1 if free_start else 0)
    level = prob.level
    w = grid.w
    x_terminal = terminal_function(prob)

    def assemble(z):
        f, g = z[:n], z[n : 2 * n]
        u = min(max(z[2 * n], lo), hi) if free_start else lo
        return f, g, u

    def terminal(z):
        return x_terminal(*assemble(z))

    def energy(z):
        f, g, _ = assemble(z)
        # l2_energy's arithmetic, without its checks
        return 0.5 * float(w @ (f * f) + w @ (g * g))

    if prob.sense == ">=":
        viol = lambda z: max(0.0, level - terminal(z))
    elif prob.sense == "<=":
        viol = lambda z: max(0.0, terminal(z) - level)
    else:
        viol = lambda z: abs(terminal(z) - level)

    rng = np.random.default_rng(12345)
    scale = abs(level) if level != 0 else 1.0
    sgn = 1.0 if level >= 0 else -1.0
    starts = [np.zeros(dim)]
    for base in (sgn * scale, 2 * sgn * scale, -sgn * scale):
        for ch in range(3):
            z = np.zeros(dim)
            if ch == 0:
                z[n : 2 * n] = base
            elif ch == 1:
                z[:n] = base
            else:
                z[:2 * n] = 0.5 * base
            starts.append(z)
    for _ in range(8):
        z = rng.uniform(-2.5 * scale, 2.5 * scale, dim)
        starts.append(z)
    if free_start:
        for z in starts:
            z[2 * n] = rng.uniform(lo, hi)

    best = math.inf
    for z0 in starts:
        z = z0.copy()
        for mu, xt, ft in ((50.0, 1e-6, 1e-9), (5e3, 1e-9, 1e-12)):
            obj = lambda zz: energy(zz) + mu * viol(zz) ** 2
            res = minimize(obj, z, method="Powell", options={"maxiter": 20000, "xtol": xt, "ftol": ft})
            z = res.x
        e = energy(z)
        if e < best + 0.05:
            # worth polishing against a stiffer penalty
            for mu in (5e5, 5e7):
                obj = lambda zz: energy(zz) + mu * viol(zz) ** 2
                res = minimize(obj, z, method="Powell", options={"maxiter": 20000, "xtol": 1e-12, "ftol": 1e-14})
                z = res.x
            if viol(z) <= 1e-6:
                best = min(best, energy(z))
    return best
