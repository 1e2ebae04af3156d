"""Discretized variational solvers for the large-deviations rate functions.

A rate problem minimizes the Cameron-Martin energy of a pair of controls
(f, g) subject to a terminal constraint on the log-price path built by
chaining f through a Volterra kernel into the volatility path and both
channels into the price integral. Optionally the volatility starting point
ranges over a compact interval and is optimized jointly.

An inequality constraint that the zero control misses binds, so it is
solved as the equality at its level. With a Linear or AffineAbs vol,
x_terminal is a quadratic form in the controls and the start on each
one-signed branch of y. From the start 0 the equality problem is then an
extreme eigenvalue problem; from a nonzero start, fixed or free over an
interval, it is a secular equation in the constraint's multiplier, solved
on one cached eigendecomposition per form. Other vols, and the problems
these routes decline, eliminate g in closed form (for fixed f and start the
constraint is linear in g) and minimise the reduced energy over f (and the
start) by multistart L-BFGS-B.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import eigh

from .kernels import (
    DomainError,
    KernelKind,
    KernelSpec,
    TimeGrid,
    _cache_key,
    operator_matrix,
)
from .model import ModelParams, VolFunction, VolKind

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
        node = self.constraint_node
        if node is not None and not (isinstance(node, numbers.Integral) and 0 <= node < self.grid.n):
            raise DomainError(f"constraint_node must be an integer in [0, {self.grid.n}), got {node!r}")

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
    iterations of the solves this call ran; a problem solved as an
    eigenvalue or secular problem (see `_solve_equality`) runs none and
    reports 0."""

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


# Eigendecompositions of the whitened quadratic forms of `_solve_equality`,
# one per (kernel, grid, rho times the branch sign, c, drift, constraint
# node); their arrays are read-only.
_form_cache: dict = {}

# Newton steps of `_bracketed_newton` before it gives up
_NEWTON_STEPS = 200
# relative residual at which a secular root is accepted
_ROOT_TOL = 1e-9
# relative margin by which a lower bound may undercut the winning candidate
_BOUND_TOL = 1e-9


def _quadratic_form(problem: VariationalProblem, c: float, rho: float):
    """(lam, V, bhat, d0) of x_terminal = z^T Q z + u b^T z + u^2 d0.

    z = (sqrt(w) f, sqrt(w) g) are the whitened controls and u the start,
    for the Linear form sigma_tilde = c y at correlation `rho` on paths
    with y >= 0 (see `_solve_equality` for Q). b and d0 carry the start's
    path u * homogeneous_factor: with r = W_m W^{-1/2} hom,

        b = c [rho r - 1_drift c B^T W_m hom ; rho_bar r],
        d0 = -1/2 1_drift c^2 sum W_m hom^2,

    B = A W^{-1/2}. lam ascending with unit eigenvectors V (Q = V diag(lam)
    V^T) and bhat = V^T b. Cached in `_form_cache`; the arrays are
    read-only.
    """
    key = (_cache_key("op", problem.kernel, problem.grid), rho, c,
           problem.include_drift, problem.node_index)
    form = _form_cache.get(key)
    if form is not None:
        return form
    grid = problem.grid
    n, j = grid.n, problem.node_index
    rho_bar = math.sqrt(1.0 - rho * rho)
    A = operator_matrix(problem.kernel, grid)
    hom = problem.homogeneous_factor()
    s = 1.0 / np.sqrt(grid.w)
    wm = grid.w.copy()
    wm[j + 1:] = 0.0
    B = A * s                                  # A W^{-1/2}
    Nt = (wm * s)[:, None] * B                 # N^T
    r = wm * s * hom
    Q = np.zeros((2 * n, 2 * n))
    b = np.concatenate([c * rho * r, c * rho_bar * r])
    d0 = 0.0
    if problem.include_drift:
        Q[:n, :n] = -0.5 * c * c * (B.T @ (wm[:, None] * B))
        b[:n] -= c * c * (B.T @ (wm * hom))
        d0 = -0.5 * c * c * float(wm @ (hom * hom))
    Q[:n, n:] = 0.5 * c * rho_bar * Nt.T
    Q[n:, :n] = Q[:n, n:].T
    Q[:n, :n] += 0.5 * c * rho * (Nt + Nt.T)
    lam, V = eigh(Q)
    bhat = V.T @ b
    for arr in (lam, V, bhat):
        arr.flags.writeable = False
    form = _form_cache[key] = (lam, V, bhat, d0)
    return form


def _bracketed_newton(F, a: float, b: float) -> float:
    """Zero of an increasing function on the open interval (a, b).

    F(x) returns (F(x), Newton's next iterate). A step that leaves the
    bracket, which shrinks to every iterate by the sign of F there, is
    replaced by bisection. Stops when a step moves x by a few ulps or the
    bracket closes; the caller checks the residual.
    """
    x = 0.5 * (a + b)
    for _ in range(_NEWTON_STEPS):
        val, nxt = F(x)
        if val == 0.0:
            break
        if val < 0.0:
            a = x
        else:
            b = x
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
            if not a < nxt < b:
                break
        if abs(nxt - x) <= 4e-16 * abs(x):
            return nxt
        x = nxt
    return x


def _secular_start(lam, bhat, d0: float, level: float, r_lo: float, r_hi: float):
    """Least energy of z^T Q z + u b^T z + u^2 d0 = level over |u| = r in
    [r_lo, r_hi], 0 < r_hi, given Q = V diag(lam) V^T and bhat = V^T b.

    With s_i = 1 - 2 mu lam_i, the minimiser at a fixed u is
    z = mu u V (bhat / s), mu being the root of the increasing secular
    function

        phi(mu) = sum bhat_i^2 mu (1 - mu lam_i) / s_i^2 = level/u^2 - d0

    on the interval where I - 2 mu Q is positive semidefinite, and its
    energy is u^2 e(mu), e = mu^2/2 sum bhat_i^2 / s_i^2 (Moré,
    "Generalizations of the trust region problem", Optim. Methods Softw. 2,
    1993). With phi~ = phi + d0 and u^2 = level / phi~(mu), the energy over
    free starts is R(mu) = level e / phi~. Since e' = mu phi' and
    phi~' = phi', R' has the sign of G = level (mu phi~ - e), which
    increases (G' = level phi~), so R has one minimum: at the root of G, or
    at the end of the mu interval that the radii map to.

    Returns (mu, r, energy), r exactly r_lo or r_hi at an end, or None when
    a root is not found to `_ROOT_TOL`: the "hard case" (bhat orthogonal to
    the extreme eigenvector) or a one-signed Q.
    """
    b2 = bhat * bhat
    if lam[-1] <= 0.0 or lam[0] >= 0.0:
        return None
    mu_hi, mu_lo = 0.5 / lam[-1], 0.5 / lam[0]

    def sums(mu):
        """phi, phi' and e at mu."""
        s = 1.0 - 2.0 * mu * lam
        q = b2 / (s * s)
        return mu * float(q @ (1.0 - mu * lam)), float(q @ (1.0 / s)), 0.5 * mu * mu * float(q.sum())

    def root(tau):
        if tau == 0.0:
            return 0.0

        def F(mu):
            phi, dphi, _ = sums(mu)
            # Newton on phi^{-1/2} = tau^{-1/2}, nearly linear at the pole
            ratio = phi / tau
            return phi - tau, mu + 2.0 * phi * (1.0 - math.sqrt(ratio)) / dphi if ratio > 0 else math.nan

        mu = _bracketed_newton(F, 0.0, mu_hi) if tau > 0 else _bracketed_newton(F, mu_lo, 0.0)
        return mu if abs(sums(mu)[0] - tau) <= _ROOT_TOL * abs(tau) else None

    mu = root(level / (r_hi * r_hi) - d0)
    if mu is None:
        return None
    r, mu_b = r_hi, mu
    # the r_lo end; r_lo = 0 is the pole on the side of level, where e = inf
    pole = r_lo == 0.0
    if r_lo < r_hi:
        mu_b = (mu_hi if level > 0 else mu_lo) if pole else root(level / (r_lo * r_lo) - d0)
        if mu_b is None:
            return None

        def G(x):
            phi, _, e = sums(x)
            return level * (x * (phi + d0) - e), e / (phi + d0)

        (left, r_left), (right, r_right) = sorted([(mu, r_hi), (mu_b, r_lo)])
        if not (pole and left == mu_b) and G(left)[0] >= 0.0:
            mu, r = left, r_left
        elif not (pole and right == mu_b) and G(right)[0] <= 0.0:
            mu, r = right, r_right
        else:
            mu = _bracketed_newton(G, left, right)
            phi, _, e = sums(mu)
            if abs(mu * (phi + d0) - e) > _ROOT_TOL * (abs(mu * (phi + d0)) + e):
                return None
            r = min(max(math.sqrt(level / (phi + d0)), r_lo), r_hi)
    return mu, r, r * r * sums(mu)[2]


def _crossing_bound(problem: VariationalProblem, A: np.ndarray, hom: np.ndarray, c: float,
                    level: float, r_lo: float, r_hi: float) -> float:
    """Lower bound of the energy of an AffineAbs path (sigma_tilde = c |y|)
    from a start u with |u| in [r_lo, r_hi] that meets x_terminal = level
    while y takes, at some node up to the constraint node, the sign
    opposite to u's: every path that is not on u's own one-signed branch.

    Two bounds hold for such a path, with s = sqrt(2 energy), h = |hom|_wm
    and a = |W_m^{1/2} A W^{-1/2}|_F >= the operator norm of f -> A f:
    (i) y_i = u hom_i + (A f)_i of the other sign at node i needs
    energy >= u^2 hom_i^2 / (2 sum_k A_ik^2 / w_k) >= floor u^2, floor the
    least of these over the nodes; (ii) by Cauchy-Schwarz
    |y|_wm <= |u| h + a s and |rho f + rho_bar g|_wm <= s, so
    |level| <= |c| s t + 1/2 c^2 t^2 1_drift 1_{level < 0}, t = |u| h + a s,
    which bounds s from below. The first grows with |u| and the second
    falls, so the least over |u| of their maximum is found by bisection at
    their crossing, and a bracket's ends give a bound that holds on it.
    """
    j = problem.node_index
    w = problem.grid.w
    rows = (A[: j + 1] ** 2) @ (1.0 / w)
    floor = 0.5 * float(np.min(hom[: j + 1] ** 2 / rows))
    h = math.sqrt(float(w[: j + 1] @ (hom[: j + 1] ** 2)))
    a = math.sqrt(float(w[: j + 1] @ rows))
    half_drift = 0.5 * c * c if problem.include_drift and level < 0 else 0.0

    def cauchy_schwarz(r):
        # alpha s^2 + beta s + gamma = 0, the least s >= 0 meeting the bound
        alpha = abs(c) * a + half_drift * a * a
        beta = abs(c) * r * h + 2.0 * half_drift * r * h * a
        gamma = half_drift * r * r * h * h - abs(level)
        if gamma >= 0.0:
            return 0.0
        s = 2.0 * -gamma / (beta + math.sqrt(beta * beta - 4.0 * alpha * gamma))
        return 0.5 * s * s

    lo, hi = r_lo, r_hi
    if floor * lo * lo >= cauchy_schwarz(lo):
        return floor * lo * lo
    if floor * hi * hi <= cauchy_schwarz(hi):
        return cauchy_schwarz(hi)
    for _ in range(_NEWTON_STEPS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if floor * mid * mid < cauchy_schwarz(mid):
            lo = mid
        else:
            hi = mid
    return max(floor * lo * lo, cauchy_schwarz(hi))


def _solve_equality(problem: VariationalProblem, level: float) -> RateResult:
    """Minimise the control energy subject to x_terminal = level.

    Linear (sigma_tilde = y) and AffineAbs (c1 |y|) vols at l != 0: with
    c = 1 or c1, the whitened controls z = (sqrt(w) f, sqrt(w) g), whose
    energy is |z|^2 / 2, and the start u, paths with y >= 0 have

        x_terminal = z^T Q z + u b^T z + u^2 d0,
        Q = [[c rho (N + N^T)/2 - 1/2 c^2 1_drift D, c rho_bar N/2],
             [c rho_bar N^T/2, 0]],

    N = W^{-1/2} A^T W_m W^{-1/2}, D = W^{-1/2} A^T W_m A W^{-1/2} (W_m:
    weights masked after the constraint node), b and d0 as in
    `_quadratic_form`, which caches Q's eigendecomposition. Linear takes
    this one branch; AffineAbs also the problem at -rho with y <= 0, where
    f and u are negated. On a branch, the start 0 gives the rate l / (2 lam),
    lam the extreme eigenvalue of Q on the side of l (none if lam l <= 0),
    at z = sqrt(l / lam) v for its unit eigenvector v, oriented so that y at
    the constraint node is >= 0. A nonzero start, fixed or free, is solved
    by `_secular_start`, once for each sign of u the start interval holds.

    Each candidate is checked at l under the problem's own vol by
    `_check_run` (feasibility, KKT residual, `converged`), and the feasible
    one of least energy wins. It must not exceed a lower bound of any path
    it does not cover, or the problem runs `_multistart`. For a Linear vol
    the form holds on every path, so the candidate is exact. For AffineAbs
    from a nonzero start, the branch on u's side of 0 is exact when its
    candidate passes the check and is bounded by the candidate's energy
    when it does not; every other path (the other branch, and paths on
    which y changes sign) is bounded by `_crossing_bound`. From the start 0
    a failed candidate bounds its branch, and paths on which y changes sign
    are not covered (the property tests compare this with `_multistart`).
    Constant and Tabulated vols, l = 0, c1 = 0 (sigma_tilde vanishes) and a
    root that `_secular_start` declines also run `_multistart`. No L-BFGS-B runs here, so `iterations` is 0.
    """
    vol = problem.vol
    linear = vol.kind is VolKind.LINEAR
    c = 1.0 if linear else vol.c1
    # c1 = 0: sigma_tilde vanishes, Q and b are 0 and no candidate exists
    if level == 0.0 or c == 0.0 or not (linear or vol.kind is VolKind.AFFINE_ABS):
        return _multistart(problem, level)
    grid = problem.grid
    n, j = grid.n, problem.node_index
    A = operator_matrix(problem.kernel, grid)
    hom = problem.homogeneous_factor()
    s = 1.0 / np.sqrt(grid.w)
    lo, hi = problem.start
    # (sign of u, least and largest |u|) for each sign the start interval holds
    if lo == hi:
        arms = [(-1.0 if lo < 0 else 1.0, abs(lo), abs(lo))]
    else:
        arms = [(1.0, max(lo, 0.0), hi)] if hi > 0 else []
        arms += [(-1.0, max(-hi, 0.0), -lo)] if lo < 0 else []
    best, bound = None, math.inf
    if not linear:
        for _, r_lo, r_hi in arms:
            if r_hi > 0.0:
                bound = min(bound, _crossing_bound(problem, A, hom, c, level, r_lo, r_hi))
    for branch in (1.0,) if linear else (1.0, -1.0):
        lam, V, bhat, d0 = _quadratic_form(problem, c, branch * problem.rho)
        for sign, r_lo, r_hi in arms:
            if r_hi == 0.0:
                k = -1 if level > 0 else 0
                if lam[k] * level <= 0.0:
                    continue
                z, u = math.sqrt(level / lam[k]) * V[:, k], 0.0
                low = 0.5 * level / lam[k]
                if A[j] @ (s * z[:n]) < 0.0:
                    z = -z
            else:
                root = _secular_start(lam, bhat, d0, level, r_lo, r_hi)
                if root is None:
                    return _multistart(problem, level)
                mu, r, low = root
                u = sign * r
                z = V @ (mu * branch * u * bhat / (1.0 - 2.0 * mu * lam))
            f, g = branch * s * z[:n], s * z[n:]
            energy, res, kkt, kkt_ok = _check_run(problem, A, hom, f, g, u, level)
            if res > FEAS_TOL:
                # a failed AffineAbs candidate off u's own branch is covered
                # by the crossing bound; on it, from the start 0, or for a
                # Linear vol (whose form is exact on every path) it bounds
                # the branch by its energy
                if linear or branch * sign > 0.0 or r_hi == 0.0:
                    bound = min(bound, low)
            elif best is None or energy < best[0]:
                best = (energy, f, g, u, kkt, kkt_ok)
    if best is None or bound < best[0] * (1.0 - _BOUND_TOL):
        return _multistart(problem, level)
    energy, f, g, u, kkt, ok = best
    y, x = _paths(problem, A, hom, f, g, u)
    return RateResult(energy, ControlVector(f, g), y, x, u, ok, 0, kkt, level)


def _multistart(problem: VariationalProblem, level: float) -> RateResult:
    """`_solve_equality` at `level` by multistart L-BFGS-B, for the
    problems its eigenvalue and secular routes do not take.

    L-BFGS-B runs on the reduced objective of `_reduced_objective`
    (g eliminated in closed form; bounds on u only when the start is
    free), one run per distinct (f0, u0) start. A start where S = 0 cannot
    be evaluated and is skipped. Each run's (f, g*, u) is checked against
    the constraint by `_check_run`, and the feasible run of least energy
    wins. `converged` needs L-BFGS-B to stop for another reason than its
    iteration limit (status 1), and the KKT residual to pass. Feasibility
    holds by construction, so it cannot tell a converged run from a cut-off
    one.
    """
    # imported here: only Constant and Tabulated vols and declined
    # candidates get here, so most runs never load scipy.optimize
    from scipy.optimize import minimize

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
    y, x = _paths(problem, A, hom, f, g, u)
    return RateResult(energy, ControlVector(f, g), y, x, u, ok, total_iters, kkt, level)


def _unconstrained_terminal(problem: VariationalProblem):
    """Starts and terminal x values of the zero-control path (which costs no
    energy): the fixed start, else 9 evenly spaced starts across the start
    interval. Nothing is minimised here; `solve` takes the extreme on the
    constraint side."""
    lo, hi = problem.start
    us = np.array([lo]) if hi <= lo else np.linspace(lo, hi, 9)
    A = operator_matrix(problem.kernel, problem.grid)
    hom = problem.homogeneous_factor()
    zero = np.zeros(problem.grid.n)
    vals = [_paths(problem, A, hom, zero, zero, u)[1][problem.node_index] for u in us]
    return us, np.asarray(vals)


def solve(problem: VariationalProblem) -> RateResult:
    """Minimize the control energy subject to the terminal constraint.

    Inequality senses first check zero-control feasibility (value 0);
    otherwise the constraint binds. Equality constraints, and inequality
    ones that bind, make one call of `_solve_equality` at `problem.level`:
    for a Linear or AffineAbs vol an extreme eigenvalue problem from the
    start 0 and a secular equation from other starts, else multistart
    L-BFGS-B on the energy with g eliminated in closed form. A "<=" problem
    is the ">=" problem for -x.
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
