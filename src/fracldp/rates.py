"""Discretized variational solvers for the large-deviations rate functions.

A rate problem minimizes the Cameron-Martin energy of a pair of controls
(f, g) subject to a terminal constraint on the log-price path built by
chaining f through a Volterra kernel into the volatility path and both
channels into the price integral. Optionally the volatility starting point
ranges over a compact interval and is optimized jointly.

For fixed f (and start) the constraint is linear in g, so the cheapest g is
explicit; `solve` minimises the resulting reduced energy over f (and the
start) alone, by multistart L-BFGS-B. An inequality constraint that the
zero control misses binds, so it is solved as the equality at its level.
From the start 0 with a degree-1 homogeneous sigma_tilde, the rate at level
l is |l| times the rate at sign(l), so such problems share one memoised
solve per sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import minimize

from .kernels import (
    DomainError,
    KernelKind,
    KernelSpec,
    TimeGrid,
    operator_matrix,
)
from .model import ModelParams, VolFunction

INFEASIBLE = math.inf
KKT_TOL = 1e-6   # converged: KKT residual <= KKT_TOL * max(1, |energy gradient|)
FEAS_TOL = 1e-6  # feasible: |x_terminal - level| <= FEAS_TOL


@dataclass
class ControlVector:
    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        if self.f.shape != self.g.shape or self.f.ndim != 1:
            raise DomainError("controls f and g must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.f)) and np.all(np.isfinite(self.g))):
            raise DomainError("controls must be finite")


@dataclass
class VariationalProblem:
    kernel: KernelSpec
    vol: VolFunction
    grid: TimeGrid
    rho: float = 0.0
    include_drift: bool = False
    start: Tuple[float, float] = (0.0, 0.0)   # (lo, hi); fixed start when lo == hi
    level: float = 1.0
    sense: str = ">="                          # ">=", "=", "<="
    constraint_node: Optional[int] = None      # index into grid, default last

    def __post_init__(self):
        lo, hi = self.start
        if lo > hi:
            raise DomainError("start interval needs lo <= hi")
        if self.sense not in (">=", "=", "<="):
            raise DomainError(f"unknown constraint sense {self.sense}")
        if not -1.0 < self.rho < 1.0:
            raise DomainError("rho must lie in (-1, 1)")

    @property
    def rho_bar(self) -> float:
        return math.sqrt(1.0 - self.rho * self.rho)

    @property
    def node_index(self) -> int:
        return self.grid.n - 1 if self.constraint_node is None else self.constraint_node

    def homogeneous_factor(self) -> np.ndarray:
        """Per-node multiplier of the starting point in the volatility path.

        The mean-reverting kernel decays the start exponentially; for the
        small-time limits the start enters as a constant.
        """
        if self.kernel.kind is KernelKind.F_FOU:
            return np.exp(self.kernel.beta * self.grid.t)
        return np.ones(self.grid.n)


@dataclass
class RateResult:
    """Outcome of one rate problem. `iterations` counts the L-BFGS-B
    iterations of the solves this call ran: a problem that reuses a
    memoised unit-level solve (see `_solve_equality`) reports 0, and the
    call that ran the unit solve reports that solve's count."""

    value: float
    controls: ControlVector
    y_path: np.ndarray
    x_path: np.ndarray
    start_used: float
    converged: bool
    iterations: int
    kkt_residual: float
    level_used: float = math.nan


def path_from_controls(problem: VariationalProblem, controls: ControlVector,
                       start: Optional[float] = None):
    """Build (y_path, x_path) on the grid from the controls.

    y = start * homogeneous_factor + (kernel operator applied to f);
    x = cumulative quadrature of [-1/2 sigma_tilde(y)^2 if drift]
        + sigma_tilde(y) (rho f + rho_bar g).
    """
    grid = problem.grid
    if controls.f.shape != (grid.n,):
        raise DomainError(f"controls have length {controls.f.size}, grid has {grid.n}")
    u = problem.start[0] if start is None else start
    A = operator_matrix(problem.kernel, grid)
    return _paths(problem, A, problem.homogeneous_factor(), controls.f, controls.g, u)


def _paths(problem, A, hom, f, g, u):
    """`path_from_controls` given the operator matrix and start factor."""
    y = u * hom + A @ f
    sig = problem.vol.sigma_tilde(y)
    integrand = sig * (problem.rho * f + problem.rho_bar * g)
    if problem.include_drift:
        integrand = integrand - 0.5 * sig * sig
    return y, np.cumsum(problem.grid.w * integrand)


def _terminal_and_grad(problem, A, hom, f, g, u):
    """Terminal x value and its gradient with respect to (f, g, u)."""
    grid = problem.grid
    w = grid.w
    rho, rho_bar = problem.rho, problem.rho_bar
    y = u * hom + A @ f
    sig = problem.vol.sigma_tilde(y)
    dsig = problem.vol.sigma_tilde_deriv(y)
    mix = rho * f + rho_bar * g
    j = problem.node_index
    mask = np.zeros(grid.n)
    mask[: j + 1] = 1.0
    wm = w * mask
    if problem.include_drift:
        xT = float(wm @ (sig * mix - 0.5 * sig * sig))
        dx_dy = wm * dsig * (mix - sig)
    else:
        xT = float(wm @ (sig * mix))
        dx_dy = wm * dsig * mix
    grad_f = A.T @ dx_dy + wm * sig * rho
    grad_g = wm * sig * rho_bar
    grad_u = float(dx_dy @ hom)
    return xT, grad_f, grad_g, grad_u


def penalized_objective(problem: VariationalProblem, z: np.ndarray, nu: float, mu: float,
                        level: float, free_start: bool):
    """Augmented-Lagrangian objective and gradient over stacked variables
    z = [f, g(, u)] for the equality constraint x_terminal = level.

    `solve` does not use it: it minimises the reduced objective of
    `_reduced_objective`, in which g is eliminated in closed form. This
    form is kept as an independent statement of the full problem."""
    n = problem.grid.n
    f = z[:n]
    g = z[n : 2 * n]
    u = z[2 * n] if free_start else problem.start[0]
    A = operator_matrix(problem.kernel, problem.grid)
    hom = problem.homogeneous_factor()
    w = problem.grid.w
    xT, gf, gg, gu = _terminal_and_grad(problem, A, hom, f, g, u)
    r = xT - level
    energy = 0.5 * float(w @ (f * f) + w @ (g * g))
    val = energy + nu * r + 0.5 * mu * r * r
    coef = nu + mu * r
    grad = np.empty_like(z)
    grad[:n] = w * f + coef * gf
    grad[n : 2 * n] = w * g + coef * gg
    if free_start:
        grad[2 * n] = coef * gu
    return val, grad, r


def _reduced_objective(problem: VariationalProblem, level: float, A: np.ndarray,
                       hom: np.ndarray):
    """The equality problem x_terminal = level with g eliminated.

    For fixed (f, u) the cheapest g meeting the constraint is
    g* = q rho_bar sigma_tilde(y) on the nodes up to `node_index` and 0
    after it, with q = (level - a) / (rho_bar^2 S),
    a = sum wm sigma_tilde(y) (rho f - 1/2 1_drift sigma_tilde(y)) and
    S = sum wm sigma_tilde(y)^2 (wm: quadrature weights masked after the
    constraint node). Its energy is (level - a)^2 / (2 rho_bar^2 S), so the
    problem reduces to minimising

        J(z) = 1/2 sum w f^2 + (level - a)^2 / (2 rho_bar^2 S)

    over z = [f(, u)], u being part of z only when the start is free.
    Returns (J, controls): J(z) -> (value, gradient), infinite where S = 0,
    and controls(z) -> (f, g*, u).
    """
    grid = problem.grid
    n = grid.n
    lo, hi = problem.start
    free_start = hi > lo
    w = grid.w
    mask = np.zeros(n)
    mask[: problem.node_index + 1] = 1.0
    wm = w * mask
    rho, rho_bar = problem.rho, problem.rho_bar
    half_drift = 0.5 if problem.include_drift else 0.0
    vol = problem.vol

    def state(z):
        f = z[:n]
        u = float(z[n]) if free_start else lo
        y = u * hom + A @ f
        sig = vol.sigma_tilde(y)
        S = float(wm @ (sig * sig))
        a = float(wm @ (sig * (rho * f - half_drift * sig)))
        return f, u, y, sig, S, a

    def J(z):
        f, u, y, sig, S, a = state(z)
        if S <= 0.0:
            return math.inf, np.zeros_like(z)
        c = level - a
        q = c / (rho_bar * rho_bar * S)
        # d/dy of the g* energy: -q da/dy - (rho_bar q)^2 / 2 dS/dy
        dy = -q * wm * vol.sigma_tilde_deriv(y) * (
            rho * f - 2.0 * half_drift * sig + q * rho_bar * rho_bar * sig)
        grad = np.empty_like(z)
        grad[:n] = w * f - q * rho * wm * sig + A.T @ dy
        if free_start:
            grad[n] = float(dy @ hom)
        return 0.5 * float(w @ (f * f)) + 0.5 * q * c, grad

    def controls(z):
        f, u, _, sig, S, a = state(z)
        q = (level - a) / (rho_bar * rho_bar * S)
        return f, q * rho_bar * sig * mask, u

    return J, controls


# unit-level equality solves of homogeneous problems, one per key of
# `_solve_equality`; the results are never handed out, only scaled copies
_unit_solves: dict = {}


def _check_run(problem, A, hom, f, g, u, level):
    """Energy, |x_T - level|, least-squares KKT residual of the full problem,
    and whether that residual is at most `KKT_TOL` times max(1, norm of the
    energy gradient), for the controls (f, g) from start u."""
    w = problem.grid.w
    xT, gf, gg, _ = _terminal_and_grad(problem, A, hom, f, g, u)
    energy = 0.5 * float(w @ (f * f) + w @ (g * g))
    # least-squares KKT multiplier for the reported stationarity residual
    ge = np.concatenate([w * f, w * g])
    gr = np.concatenate([gf, gg])
    denom = float(gr @ gr)
    lam = -float(ge @ gr) / denom if denom > 0 else 0.0
    kkt = float(np.linalg.norm(ge + lam * gr))
    return energy, abs(xT - level), kkt, kkt <= KKT_TOL * max(1.0, float(np.linalg.norm(ge)))


def _zero_result(problem, start, value, converged, iterations, kkt, level) -> RateResult:
    """RateResult of the zero controls from `start`."""
    n = problem.grid.n
    zero = ControlVector(np.zeros(n), np.zeros(n))
    y, x = path_from_controls(problem, zero, start=start)
    return RateResult(value, zero, y, x, start, converged, iterations, kkt, level)


def _infeasible(problem, iterations, level) -> RateResult:
    return _zero_result(problem, problem.start[0], INFEASIBLE, False, iterations, math.nan, level)


def _solve_equality(problem: VariationalProblem, level: float) -> RateResult:
    """Minimise the control energy subject to x_terminal = level.

    A problem from the fixed start 0 at level l != 0 whose sigma_tilde is
    positively homogeneous of degree 1 (`VolFunction.tilde_homogeneous`) is
    exactly homogeneous on the grid: scaling (f, g) by lam scales y by lam
    and x by lam^2, drift term included, and the energy by lam^2, for every
    kernel and constraint node. Such a problem runs `_multistart` once at
    level sign(l), memoised per (kernel, vol kind, c1, grid, rho, drift,
    constraint node, sign), and returns those controls scaled by sqrt|l|,
    with the paths rebuilt and the energy, feasibility and KKT residual
    checked again at l exactly as each multistart run is. `converged` needs
    the unit solve's as well. A failed unit solve or a scaled check that
    fails gives INFEASIBLE. Every other problem (free or nonzero start,
    Constant or Tabulated vol, l = 0) runs `_multistart` at l.
    """
    vol = problem.vol
    lo, hi = problem.start
    if lo != 0.0 or hi != 0.0 or level == 0.0 or not vol.tilde_homogeneous:
        return _multistart(problem, level)
    sign = math.copysign(1.0, level)
    key = (problem.kernel, vol.kind, vol.c1, problem.grid, problem.rho,
           problem.include_drift, problem.node_index, sign)
    unit = _unit_solves.get(key)
    iterations = 0
    if unit is None:
        unit = _unit_solves[key] = _multistart(problem, sign)
        iterations = unit.iterations
    if unit.value == INFEASIBLE:
        return _infeasible(problem, iterations, level)
    lam = math.sqrt(abs(level))
    f, g = lam * unit.controls.f, lam * unit.controls.g
    A = operator_matrix(problem.kernel, problem.grid)
    hom = problem.homogeneous_factor()
    energy, r, kkt, kkt_ok = _check_run(problem, A, hom, f, g, 0.0, level)
    if r > FEAS_TOL:
        return _infeasible(problem, iterations, level)
    cv = ControlVector(f, g)
    y, x = path_from_controls(problem, cv, start=0.0)
    return RateResult(energy, cv, y, x, 0.0, unit.converged and kkt_ok, iterations, kkt, level)


def _multistart(problem: VariationalProblem, level: float) -> RateResult:
    """`_solve_equality` at `level` without rescaling.

    Multistart L-BFGS-B on the reduced objective of `_reduced_objective`
    (g eliminated in closed form; bounds on u only when the start is
    free), one run per distinct (f0, u0) start. A start where S = 0 cannot
    be evaluated and is skipped. Each run's (f, g*, u) is checked against
    the constraint by `_check_run`, and the feasible run of least energy
    wins. `converged` needs L-BFGS-B to stop for another reason than its
    iteration limit (status 1), and the KKT residual to pass. Feasibility
    holds by construction, so it cannot tell a converged run from a cut-off
    one.
    """
    grid = problem.grid
    n = grid.n
    lo, hi = problem.start
    free_start = hi > lo
    A = operator_matrix(problem.kernel, grid)
    hom = problem.homogeneous_factor()

    # infeasibility screen: if the vol function vanishes identically on the
    # reachable paths, the constraint gradient is zero everywhere
    probe = np.max(np.abs(problem.vol.sigma_tilde(np.linspace(-10, 10, 41))))
    if probe == 0.0 and abs(level) > FEAS_TOL:
        return _infeasible(problem, 0, level)

    J, controls = _reduced_objective(problem, level, A, hom)
    ones = np.ones(n)
    scale = abs(level) if level != 0 else 1.0
    # the f parts of the full problem's five (f0, g0) starts, f0 = 0 once
    f_seeds = (np.zeros(n), math.copysign(scale, level) * ones,
               0.5 * scale * ones, -0.5 * scale * ones)
    u_seeds = [0.5 * (lo + hi)] if not free_start else [0.5 * (lo + hi), lo, hi]
    bounds = [(None, None)] * n + [(lo, hi)] if free_start else None

    best = None
    total_iters = 0
    for u0 in u_seeds:
        for f0 in f_seeds:
            z0 = np.append(f0, u0) if free_start else f0
            if J(z0)[0] == math.inf:
                continue
            res = minimize(J, z0, jac=True, method="L-BFGS-B", bounds=bounds,
                           options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12})
            total_iters += res.nit
            f, g, u = controls(res.x)
            energy, r, kkt, kkt_ok = _check_run(problem, A, hom, f, g, u, level)
            if r <= FEAS_TOL and (best is None or energy < best[0] - 1e-14):
                best = (energy, f, g, u, kkt, res.status != 1 and kkt_ok)
    if best is None:
        return _infeasible(problem, total_iters, level)
    energy, f, g, u, kkt, ok = best
    cv = ControlVector(f, g)
    y, x = path_from_controls(problem, cv, start=u)
    return RateResult(energy, cv, y, x, u, ok, total_iters, kkt, level)


def _unconstrained_terminal(problem: VariationalProblem):
    """Starts and terminal x values of the zero-control path (which costs no
    energy): the fixed start, else 9 evenly spaced starts across the start
    interval. Nothing is minimised here; `solve` takes the extreme on the
    constraint side."""
    lo, hi = problem.start
    us = np.array([lo]) if hi <= lo else np.linspace(lo, hi, 9)
    zero = ControlVector(np.zeros(problem.grid.n), np.zeros(problem.grid.n))
    vals = [path_from_controls(problem, zero, start=u)[1][problem.node_index] for u in us]
    return us, np.asarray(vals)


def solve(problem: VariationalProblem) -> RateResult:
    """Minimize the control energy subject to the terminal constraint.

    Inequality senses first check zero-control feasibility (value 0);
    otherwise the constraint binds. Equality constraints, and inequality
    ones that bind, make one call of `_solve_equality` at `problem.level`:
    multistart L-BFGS-B on the energy with g eliminated in closed form, or,
    for a homogeneous problem from the start 0, the memoised solve at level
    +-1 scaled to the level. A "<=" problem is the ">=" problem for -x.
    """
    if problem.sense != "=":
        sgn = 1.0 if problem.sense == ">=" else -1.0
        us, x0_vals = _unconstrained_terminal(problem)
        x0_vals = sgn * x0_vals
        best = int(np.argmax(x0_vals))
        if x0_vals[best] >= sgn * problem.level:
            return _zero_result(problem, float(us[best]), 0.0, True, 0, 0.0, problem.level)
    # An inequality the zero control misses binds: scaling a control (f, g)
    # that reaches beyond the level by lambda in (0, 1] moves x_T continuously
    # from the zero-control value to beyond the level, so some lambda hits it
    # exactly, at lambda^2 times the energy.
    return _solve_equality(problem, problem.level)


# ---------------------------------------------------------------------------
# Named rate functions
# ---------------------------------------------------------------------------

def tail_rate(params: ModelParams, y_level: float, b: float,
              include_drift: bool = True, grid: Optional[TimeGrid] = None) -> RateResult:
    """Large-strike rate: infimum over terminal values >= y_level of the
    energy driving the mean-reverting volatility kernel, drift included by
    default. The starting point contributes nothing at this speed and is
    fixed to 0."""
    if b < 0.5:
        import warnings

        warnings.warn(f"tails scaling needs b >= 1/2, got {b}")
    grid = grid or TimeGrid.uniform(48)
    kernel = KernelSpec(KernelKind.F_FOU, params.hurst, beta=params.beta,
                        xi=params.xi if params.xi > 0 else 1.0)
    prob = VariationalProblem(
        kernel=kernel, vol=params.vol, grid=grid, rho=params.rho,
        include_drift=include_drift, start=(0.0, 0.0), level=y_level, sense=">=",
    )
    return solve(prob)


def _smalltime_solve(params: ModelParams, k_level: float, start: Tuple[float, float],
                     grid: Optional[TimeGrid]) -> RateResult:
    """Small-time problem at log-strike k from `start`: the pointwise kernel
    limit, no drift, sense >= k for k > 0 and <= k for k < 0. At k = 0 the
    zero controls meet the constraint, so `solve` returns rate 0 from the
    lower start."""
    grid = grid or TimeGrid.uniform(48)
    kernel = KernelSpec(KernelKind.G_ZERO, params.hurst, xi=params.xi if params.xi > 0 else 1.0)
    prob = VariationalProblem(
        kernel=kernel, vol=params.vol, grid=grid, rho=params.rho,
        include_drift=False, start=start, level=k_level,
        sense=">=" if k_level > 0 else "<=",
    )
    return solve(prob)


def smalltime_rate(params: ModelParams, k_level: float, b: float,
                   grid: Optional[TimeGrid] = None) -> RateResult:
    """Small-time rate at log-strike k: kernel is the pointwise kernel limit,
    no drift, start 0; sense >= k for k > 0 and <= k for k < 0."""
    if b < 0.5 - 2.0 * params.hurst.H:
        import warnings

        warnings.warn(f"small-time scaling needs b >= 1/2 - 2H, got {b}")
    return _smalltime_solve(params, k_level, (0.0, 0.0), grid)


def rate_with_random_start(params: ModelParams, k_level: float,
                           support: Tuple[float, float],
                           grid: Optional[TimeGrid] = None) -> RateResult:
    """Small-time rate with the volatility starting point free over a compact
    interval (diffusive scheme); returns the minimizing start."""
    lo, hi = support
    if lo > hi:
        raise DomainError("support needs lo <= hi")
    return _smalltime_solve(params, k_level, (lo, hi), grid)
