"""Randomised fractional Stein-Stein model under its rescalings.

Simulation of the paired (log-price, volatility) system with exact volatility
paths, Monte Carlo tail estimates, LDP slope extrapolation, and analytic
audits of the scaling and initial-law tail assumptions.
"""

from __future__ import annotations

import enum
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import log_ndtr, logsumexp, ndtr

from .kernels import (
    DomainError,
    HurstParams,
    KernelKind,
    KernelSpec,
    TimeGrid,
    operator_matrix,
)
from .paths import GaussianPathBatch, _by_parts_matrix, _stable_cholesky, fbm_covariance, make_rng


# ---------------------------------------------------------------------------
# Vol function
# ---------------------------------------------------------------------------

class VolKind(str, enum.Enum):
    LINEAR = "Linear"
    AFFINE_ABS = "AffineAbs"
    CONSTANT = "Constant"
    TABULATED = "Tabulated"


@dataclass
class VolFunction:
    """Volatility function sigma with its scaling limit sigma_tilde.

    Linear: sigma(y) = y, limit y; the scaling identity eps^b sigma(y/eps^b) = y
    is exact. AffineAbs: sigma(y) = c0 + c1|y|, limit c1|y|. Constant declares
    sigma = sigma_tilde = c with the rescaled coefficient equal to c as well;
    this is the Black-Scholes control case where the scaling limit is imposed
    rather than derived, used to make the X dynamics exactly Gaussian in tests.
    Tabulated takes user callables and rescales sigma literally. Its
    sigma_tilde must be continuous: the rate solver needs that for an
    inequality constraint to bind at its level, and it differentiates
    sigma_tilde by central differences.
    """

    kind: VolKind = VolKind.LINEAR
    c0: float = 0.0
    c1: float = 1.0
    b: float = 1.0
    sigma_fn: Optional[Callable] = None
    sigma_tilde_fn: Optional[Callable] = None

    def __post_init__(self):
        self.kind = VolKind(self.kind)
        # b = 0 is the non-exploding diffusive case
        if self.b < 0:
            raise DomainError("scaling exponent b must be nonnegative")
        if self.kind is VolKind.TABULATED and (self.sigma_fn is None or self.sigma_tilde_fn is None):
            raise DomainError("Tabulated vol needs sigma_fn and sigma_tilde_fn")

    def sigma(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind is VolKind.LINEAR:
            return y
        if self.kind is VolKind.AFFINE_ABS:
            return self.c0 + self.c1 * np.abs(y)
        if self.kind is VolKind.CONSTANT:
            return np.full_like(y, self.c0)
        return np.asarray(self.sigma_fn(y), dtype=float)

    def sigma_tilde(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind is VolKind.LINEAR:
            return y
        if self.kind is VolKind.AFFINE_ABS:
            return self.c1 * np.abs(y)
        if self.kind is VolKind.CONSTANT:
            return np.full_like(y, self.c0)
        return np.asarray(self.sigma_tilde_fn(y), dtype=float)

    def sigma_tilde_deriv(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind is VolKind.LINEAR:
            return np.ones_like(y)
        if self.kind is VolKind.AFFINE_ABS:
            return self.c1 * np.sign(y)
        if self.kind is VolKind.CONSTANT:
            return np.zeros_like(y)
        h = 1e-6
        return (self.sigma_tilde(y + h) - self.sigma_tilde(y - h)) / (2 * h)

    def scaled(self, y, eps: float, b: Optional[float] = None):
        """Rescaled coefficient eps^b sigma(y / eps^b)."""
        b = self.b if b is None else b
        if self.kind is VolKind.LINEAR:
            return np.asarray(y, dtype=float)
        if self.kind is VolKind.AFFINE_ABS:
            return eps ** b * self.c0 + self.c1 * np.abs(np.asarray(y, dtype=float))
        if self.kind is VolKind.CONSTANT:
            # declared scaling limit: the coefficient does not rescale
            return np.full_like(np.asarray(y, dtype=float), self.c0)
        eb = eps ** b
        return eb * self.sigma(np.asarray(y, dtype=float) / eb)


def linear_vol(b: float = 1.0) -> VolFunction:
    return VolFunction(kind=VolKind.LINEAR, b=b)


def affine_abs_vol(c0: float, c1: float, b: float = 1.0) -> VolFunction:
    return VolFunction(kind=VolKind.AFFINE_ABS, c0=c0, c1=c1, b=b)


def constant_vol(c: float, b: float = 1.0) -> VolFunction:
    return VolFunction(kind=VolKind.CONSTANT, c0=c, b=b)


# ---------------------------------------------------------------------------
# Model parameters, initial laws, rescaling schemes
# ---------------------------------------------------------------------------

@dataclass
class ModelParams:
    lam: float = 0.0
    beta: float = -1.0
    xi: float = 1.0
    rho: float = 0.0
    hurst: HurstParams = field(default_factory=lambda: HurstParams(0.5))
    vol: VolFunction = field(default_factory=linear_vol)

    def __post_init__(self):
        if self.lam < 0:
            raise DomainError("lambda must be nonnegative")
        if self.beta >= 0:
            raise DomainError("beta must be strictly negative")
        if self.xi < 0:
            # xi = 0 is allowed: deterministic-volatility control case
            raise DomainError("xi must be nonnegative")
        if not -1.0 < self.rho < 1.0:
            raise DomainError("rho must lie in (-1, 1)")

    @property
    def rho_bar(self) -> float:
        return math.sqrt(1.0 - self.rho * self.rho)


class LawKind(str, enum.Enum):
    POINT = "Point"
    UNIFORM = "Uniform"
    GAUSSIAN = "Gaussian"
    TRUNC_GAUSSIAN = "TruncGaussian"
    FORWARD_STEIN_STEIN = "ForwardSteinStein"


@dataclass
class InitialLaw:
    """Law of the volatility starting point."""

    kind: LawKind
    y0: float = 0.0
    a: float = 0.0
    b: float = 0.0
    mean: float = 0.0
    var: float = 1.0
    radius: float = 4.0
    sigma0: float = 0.0
    t: float = 1.0

    def __post_init__(self):
        self.kind = LawKind(self.kind)
        if self.kind is LawKind.UNIFORM and self.a >= self.b:
            raise DomainError("Uniform law needs a < b")
        if self.kind in (LawKind.GAUSSIAN, LawKind.TRUNC_GAUSSIAN) and self.var <= 0:
            raise DomainError("Gaussian law needs positive variance")
        if self.kind is LawKind.TRUNC_GAUSSIAN and self.radius <= 0:
            raise DomainError("truncation radius must be positive")
        if self.kind is LawKind.FORWARD_STEIN_STEIN and self.t <= 0:
            raise DomainError("ForwardSteinStein needs t > 0")

    def resolve(self, params: Optional[ModelParams] = None) -> "InitialLaw":
        """ForwardSteinStein resolves to the Gaussian law of the running
        volatility at time t; other kinds resolve to themselves."""
        if self.kind is not LawKind.FORWARD_STEIN_STEIN:
            return self
        if params is None:
            raise DomainError("ForwardSteinStein law needs model parameters")
        beta, lam, xi, t = params.beta, params.lam, params.xi, self.t
        mean = math.exp(beta * t) * (self.sigma0 + lam / beta) - lam / beta
        var = xi * xi * (math.exp(2.0 * beta * t) - 1.0) / (2.0 * beta)
        return InitialLaw(kind=LawKind.GAUSSIAN, mean=mean, var=var)

    def support(self):
        """(lo, hi) support bounds; infinite for the Gaussian kinds."""
        if self.kind is LawKind.POINT:
            return (self.y0, self.y0)
        if self.kind is LawKind.UNIFORM:
            return (self.a, self.b)
        if self.kind is LawKind.TRUNC_GAUSSIAN:
            sd = math.sqrt(self.var)
            return (self.mean - self.radius * sd, self.mean + self.radius * sd)
        return (-math.inf, math.inf)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise DomainError("n must be >= 1")
        if self.kind is LawKind.POINT:
            return np.full(n, self.y0)
        if self.kind is LawKind.UNIFORM:
            return rng.uniform(self.a, self.b, n)
        if self.kind is LawKind.GAUSSIAN:
            return self.mean + math.sqrt(self.var) * rng.standard_normal(n)
        if self.kind is LawKind.TRUNC_GAUSSIAN:
            sd = math.sqrt(self.var)
            out = np.empty(n)
            filled = 0
            while filled < n:
                z = rng.standard_normal(2 * (n - filled))
                z = z[np.abs(z) <= self.radius][: n - filled]
                out[filled : filled + z.size] = self.mean + sd * z
                filled += z.size
            return out
        raise DomainError("ForwardSteinStein must be resolved before sampling")

    def log_tail(self, x: float) -> float:
        """log P(|Theta| > x), analytic per family, for x > 0."""
        if self.kind is LawKind.POINT:
            return 0.0 if abs(self.y0) > x else -math.inf
        if self.kind is LawKind.UNIFORM:
            lo, hi = self.a, self.b
            # mass of [lo,hi] outside [-x, x]
            total = hi - lo
            inside = max(0.0, min(hi, x) - max(lo, -x))
            p = (total - inside) / total
            return math.log(p) if p > 0 else -math.inf
        if self.kind is LawKind.GAUSSIAN:
            sd = math.sqrt(self.var)
            return float(logsumexp([
                log_ndtr((self.mean - x) / sd),
                log_ndtr(-(x + self.mean) / sd),
            ]))
        if self.kind is LawKind.TRUNC_GAUSSIAN:
            lo, hi = self.support()
            if x >= max(abs(lo), abs(hi)):
                return -math.inf
            sd = math.sqrt(self.var)
            z = ndtr(self.radius) - ndtr(-self.radius)
            hi_mass = max(0.0, ndtr((hi - self.mean) / sd) - ndtr((max(x, lo) - self.mean) / sd))
            lo_mass = max(0.0, ndtr((min(-x, hi) - self.mean) / sd) - ndtr((lo - self.mean) / sd))
            p = (hi_mass + lo_mass) / z
            return math.log(p) if p > 0 else -math.inf
        raise DomainError("resolve ForwardSteinStein before tail evaluation")


def point_law(y0: float) -> InitialLaw:
    return InitialLaw(kind=LawKind.POINT, y0=y0)


def uniform_law(a: float, b: float) -> InitialLaw:
    return InitialLaw(kind=LawKind.UNIFORM, a=a, b=b)


def gaussian_law(mean: float, var: float) -> InitialLaw:
    return InitialLaw(kind=LawKind.GAUSSIAN, mean=mean, var=var)


class SchemeKind(str, enum.Enum):
    TAILS = "Tails"
    SMALL_TIME = "SmallTime"
    DIFFUSIVE_SMALL_TIME = "DiffusiveSmallTime"


@dataclass
class RescalingScheme:
    """Which rescaled system to simulate, with LDP speed h_eps."""

    kind: SchemeKind
    b: float = 1.0

    def __post_init__(self):
        self.kind = SchemeKind(self.kind)

    def speed(self, eps: float, H: float) -> float:
        if self.kind is SchemeKind.TAILS:
            return eps ** (2.0 * self.b)
        if self.kind is SchemeKind.SMALL_TIME:
            return eps ** (4.0 * H + 2.0 * self.b)
        return eps ** 2

    def check_b(self, H: float) -> list:
        """Constraint on the scaling exponent; violations reported as
        warnings, not errors."""
        msgs = []
        if self.kind is SchemeKind.TAILS and self.b < 0.5:
            msgs.append(f"Tails scheme needs b >= 1/2 for the price LDP, got b={self.b}")
        if self.kind is SchemeKind.SMALL_TIME and self.b < 0.5 - 2.0 * H:
            msgs.append(
                f"SmallTime scheme needs b >= 1/2 - 2H = {0.5 - 2 * H}, got b={self.b}"
            )
        return msgs


@dataclass
class MCEstimate:
    p_hat: float
    std_err: float
    n_paths: int
    seed: int
    event: str = ""


# ---------------------------------------------------------------------------
# Assumption audits
# ---------------------------------------------------------------------------

@dataclass
class ScalingReport:
    eps_ladder: list
    deviations: list
    verdict: str  # PASS or FAIL


def check_scaling_assumption(vol: VolFunction, eps_ladder, lattice, tol: float = 1e-6) -> ScalingReport:
    """Max lattice deviation |eps^b sigma(y/eps^b) - sigma_tilde(y)| per eps."""
    eps_ladder = list(eps_ladder)
    lattice = np.asarray(list(lattice), dtype=float)
    if not eps_ladder or lattice.size == 0:
        raise DomainError("need a nonempty ladder and lattice")
    devs = []
    tgt = vol.sigma_tilde(lattice)
    for eps in eps_ladder:
        devs.append(float(np.max(np.abs(vol.scaled(lattice, eps) - tgt))))
    decreasing = all(b <= a + 1e-15 for a, b in zip(devs, devs[1:]))
    verdict = "PASS" if decreasing and devs[-1] <= tol else "FAIL"
    return ScalingReport(eps_ladder=eps_ladder, deviations=devs, verdict=verdict)


@dataclass
class ThetaReport:
    eps_ladder: list
    values: list  # h_eps * log P(eps^b |Theta| > 1), -inf allowed
    verdict: str  # DIVERGES_TO_MINUS_INFINITY or STALLS


def check_theta_assumption(law: InitialLaw, scheme: RescalingScheme, eps_ladder,
                           params: Optional[ModelParams] = None, H: float = 0.5) -> ThetaReport:
    """Analytic audit of the initial-law tail condition h_eps log P(eps^b|Theta|>1).

    The condition requires divergence to -infinity. Bounded-support laws
    satisfy it exactly (the probability is 0 once eps^b sup|support| < 1).
    Gaussian laws stall: at Tails speed the limit is the finite -1/(2 var),
    at SmallTime speed it is 0.
    """
    law = law.resolve(params)
    eps_ladder = list(eps_ladder)
    if not eps_ladder:
        raise DomainError("need a nonempty eps ladder")
    vals = []
    for eps in eps_ladder:
        h = scheme.speed(eps, H)
        lp = law.log_tail(eps ** -scheme.b if scheme.kind is not SchemeKind.DIFFUSIVE_SMALL_TIME else 1.0)
        vals.append(h * lp if lp > -math.inf else -math.inf)
    lo, hi = law.support()
    bounded = math.isfinite(lo) and math.isfinite(hi)
    verdict = "DIVERGES_TO_MINUS_INFINITY" if bounded else "STALLS"
    return ThetaReport(eps_ladder=eps_ladder, values=vals, verdict=verdict)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _scheme_coefficients(params: ModelParams, scheme: RescalingScheme, eps: float):
    """Coefficients of the rescaled system.

    Returns (beta_eff, start_scale, lam_scale, noise_scale, drift_coef,
    xnoise_coef) such that
      Y_t = start_scale*Theta*e^{beta_eff t} - lam_scale*(lam/beta)(1 - e^{beta_eff t})
            + noise_scale * Z_t,   Z = fOU integral with rate beta_eff, unit xi,
      dX = drift_coef * s(Y)^2 dt + xnoise_coef * s(Y) dWbar,
    where s is the rescaled vol coefficient for this eps.
    """
    b = scheme.b
    H = params.hurst.H
    if scheme.kind is SchemeKind.TAILS:
        return (params.beta, eps ** b, eps ** b, eps ** b * params.xi, -0.5, eps ** b)
    if scheme.kind is SchemeKind.SMALL_TIME:
        return (
            params.beta * eps ** 2,
            eps ** b,
            eps ** b,
            eps ** (2.0 * H + b) * params.xi,
            -0.5 * eps ** (2.0 * H + 1.0),
            eps ** (2.0 * H + b),
        )
    # DiffusiveSmallTime: unrescaled marginals observed at time eps^2 t
    return (params.beta * eps ** 2, 1.0, 1.0, eps ** (2.0 * H) * params.xi, -0.5 * eps ** 2, eps)


def _vol_coefficient(params: ModelParams, scheme: RescalingScheme, eps: float):
    if scheme.kind is SchemeKind.DIFFUSIVE_SMALL_TIME:
        return lambda y: params.vol.sigma(y)
    return lambda y: params.vol.scaled(y, eps, scheme.b)


_joint_chol_cache: dict = {}

# Rows per block of _simulate_general. Part of the seed layout: block b
# draws from the b-th child stream, so changing this changes the paths for a
# given seed. Each worker thread reuses one block's arrays, so this also
# bounds the memory a tail estimate at H != 1/2 holds.
_ROW_BLOCK = 2048

# Fine-grid steps of the H != 1/2 simulation over (0, T].
_N_FINE = 128

# Paths per simulate call when tail_estimate runs at H = 1/2, where each
# step draws whole (n_paths,) columns. Part of that seed layout.
_H_HALF_CHUNK = 200_000

# Threads that run those blocks; not part of the seed layout.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no CPU affinity on this platform
    _WORKERS = os.cpu_count() or 1


def _joint_bm_fbm_cholesky(H: float, t: np.ndarray, rho: float):
    """Lower-triangular factor L of the joint law of (Wbar, W^H) at
    t_1..t_n, Wbar first: Z @ L.T has that law for standard normal rows Z.

    Wbar = rho B + rho_bar B' is the Euler driver, B the Volterra-generating
    Brownian motion of W^H and B' an independent one. Wbar's increment over
    panel k is sqrt(dt_k) Z_k. Cov(W^H_tj, dB_k) is the K^H operator matrix
    A[j, k], so W^H = U Z_{:n} + L22 Z_{n:} with U = rho A diag(dt)^{-1/2}
    and L22 the Cholesky factor of C_fBm - U U^T. At rho = 0, U is exactly 0
    and no operator matrix is built.
    """
    key = (H, tuple(t), rho)
    if key in _joint_chol_cache:
        return _joint_chol_cache[key]
    n = t.size
    dt = np.diff(t, prepend=0.0)
    U = np.zeros((n, n))
    if rho:
        grid = TimeGrid(nodes=tuple(t), weights=tuple(dt))
        U = rho * operator_matrix(KernelSpec(KernelKind.K_FBM, HurstParams(H)), grid) / np.sqrt(dt)
    L = np.zeros((2 * n, 2 * n))
    L[:n, :n] = np.tril(np.broadcast_to(np.sqrt(dt), (n, n)))
    L[n:, :n] = U
    L[n:, n:] = _stable_cholesky(fbm_covariance(H, t[:, None], t[None, :]) - U @ U.T)
    _joint_chol_cache[key] = L
    return L


def simulate(
    params: ModelParams,
    law: InitialLaw,
    scheme: RescalingScheme,
    eps: float,
    grid: TimeGrid,
    n_paths: int,
    seed,
    allow_coarse: bool = False,
    n_fine: int = _N_FINE,
):
    """Simulate the rescaled pair (X^eps, Y^eps) on the grid.

    Y^eps is exact in law at the grid nodes. X^eps is Euler-Maruyama against
    the increments of Wbar = rho B + rho_bar B', where B drives the
    volatility. For H = 1/2 the volatility integral uses the exact per-panel
    OU recursion. For H != 1/2, W^H is drawn on an internal fine grid of m
    nodes and the fOU integral is evaluated by the integration-by-parts
    identity there. With rho != 0, (Wbar, W^H) is drawn jointly from 2m
    standard normals per path whose first m drive Wbar. With rho = 0, Wbar
    is independent of the volatility, so each path draws m normals for W^H
    and n more, one per grid panel, for X's increment over that panel from
    its exact Gaussian law given the volatility path: the same law as the
    Euler sum over the panel's fine steps.
    Returns (x_batch, y_batch) as GaussianPathBatch objects.
    """
    rng, theta, coefs, svol = _prepare(params, law, scheme, eps, grid, n_paths, seed, allow_coarse)
    if params.hurst.H == 0.5:
        x, y = _simulate_h_half(params, grid, n_paths, rng, theta, *coefs, svol)
    else:
        x = np.empty((n_paths, grid.n))
        y = np.empty((n_paths, grid.n))

        def store(lo, hi, xb, yb):
            x[lo:hi] = xb
            y[lo:hi] = yb

        _simulate_general(params, grid, n_paths, rng, theta, *coefs, svol, n_fine, store)
    s = seed if isinstance(seed, int) else 0
    return GaussianPathBatch(values=x, grid=grid, seed=s), GaussianPathBatch(values=y, grid=grid, seed=s)


def _prepare(params, law, scheme, eps, grid, n_paths, seed, allow_coarse):
    """Checks and set-up shared by simulate and tail_estimate. Returns the
    generator, Theta (its first draws), the scheme coefficients (beta_eff,
    start_scale, lam_term_coef, noise_scale, drift_coef, xnoise_coef) and
    the vol coefficient."""
    if grid.n < 16 and not allow_coarse:
        raise DomainError("grid has fewer than 16 nodes; pass allow_coarse=True to override")
    for msg in scheme.check_b(params.hurst.H):
        warnings.warn(msg)
    rng = make_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    beta_eff, start_scale, lam_scale, noise_scale, drift_coef, xnoise_coef = _scheme_coefficients(
        params, scheme, eps
    )
    theta = law.resolve(params).sample(n_paths, rng)
    lam_term_coef = -lam_scale * params.lam / params.beta
    coefs = (beta_eff, start_scale, lam_term_coef, noise_scale, drift_coef, xnoise_coef)
    return rng, theta, coefs, _vol_coefficient(params, scheme, eps)


def _simulate_h_half(params, grid, n_paths, rng, theta, beta_eff, start_scale,
                     lam_term_coef, noise_scale, drift_coef, xnoise_coef, svol):
    t = grid.t
    edges = np.concatenate([[0.0], t])
    dt = np.diff(edges)
    n = grid.n
    rho, rho_bar = params.rho, params.rho_bar
    x = np.zeros((n_paths, n))
    y = np.zeros((n_paths, n))
    z = np.zeros(n_paths)  # exact OU integral int_0^t e^{beta_eff(t-u)} dW_u
    xk = np.zeros(n_paths)
    yk = start_scale * theta  # Y at time 0
    for k in range(n):
        d = dt[k]
        if abs(beta_eff) > 1e-14:
            ebd = math.exp(beta_eff * d)
            cov = (ebd - 1.0) / beta_eff          # Cov(I_k, dW_k)
            var_i = (ebd * ebd - 1.0) / (2.0 * beta_eff)
        else:
            ebd, cov, var_i = 1.0, d, d
        a = cov / d
        c2 = var_i - cov * cov / d
        c = math.sqrt(max(c2, 0.0))
        dw = math.sqrt(d) * rng.standard_normal(n_paths)
        dwp = math.sqrt(d) * rng.standard_normal(n_paths)
        ik = a * dw + c * rng.standard_normal(n_paths)
        s_val = svol(yk)
        dwbar = rho * dw + rho_bar * dwp
        xk = xk + drift_coef * s_val * s_val * d + xnoise_coef * s_val * dwbar
        z = ebd * z + ik
        tk = t[k]
        ebt = math.exp(beta_eff * tk)
        yk = start_scale * theta * ebt + lam_term_coef * (1.0 - ebt) + noise_scale * z
        x[:, k] = xk
        y[:, k] = yk
    return x, y


def _simulate_general(params, grid, n_paths, rng, theta, beta_eff, start_scale,
                      lam_term_coef, noise_scale, drift_coef, xnoise_coef, svol, n_fine,
                      sink, terminal=False):
    """Fine-grid simulation for H != 1/2, handed to `sink` block by block.

    Paths are simulated in blocks of _ROW_BLOCK rows (the last block is
    shorter). Block b draws one array of standard normals Z from the b-th
    child stream spawned from `rng` after Theta, so the block size is part
    of the random-number layout and the paths are a function of the seed and
    n_paths only. Z's last m columns, and with rho != 0 all of them, enter
    one GEMM with noise_scale * F [U, L22] (F the by-parts fOU map, [U, L22]
    the W^H rows of the factor of _joint_bm_fbm_cholesky) that gives the Y
    noise. X's increments are summed over each coarse panel through the 0/1
    fine-step -> panel matrix P and cumulated over the panels.

    rho != 0: Z is (rows, 2m); its first m columns give the Euler driver's
    increments dWbar_k = sqrt(dt_k) Z_k, and the fine Euler increments
    dx_k = drift_k s_k^2 + dw_coef_k s_k Z_k, with left-endpoint vol s, are
    summed as dx @ P.

    rho = 0: Wbar is independent of W^H, so given the vol path a panel's sum
    of Euler increments is exactly Gaussian, with mean sum drift_k s_k^2 and
    variance sum dw_coef_k^2 s_k^2 over its fine steps. Z is (rows, n + m);
    one GEMM of s^2 with [drift P | dw_coef^2 P] gives (mean | var), and the
    panel increment is mean + sqrt(var) Z_j for the first n columns. With
    `terminal` the only panel is (0, T]: Z is (rows, 1 + m) and X_T is
    drawn from one normal per path.

    Block b calls sink(lo, hi, x, y) with rows lo:hi of X and Y at the grid
    nodes. With `terminal`, x's last column is X_T (its only one at rho = 0)
    and y is None. Both are the worker's own arrays, which its next block
    overwrites, so the sink copies or reduces them before it returns.

    Blocks run on up to _WORKERS threads, worker w taking blocks w,
    w + workers, ... and writing every step into arrays it allocates once
    (numpy's RNG fill, BLAS and ufuncs release the GIL). The worker count
    does not change the result. The sink, and a Tabulated vol's user
    callables, therefore run on worker threads, concurrently.
    """
    H = params.hurst.H
    t_coarse = grid.t
    n = grid.n
    T = t_coarse[-1]
    t_fine = np.unique(np.concatenate([np.linspace(0.0, T, n_fine + 1)[1:], t_coarse]))
    m = t_fine.size
    L = _joint_bm_fbm_cholesky(H, t_fine, params.rho)
    dtf = np.diff(t_fine, prepend=0.0)
    dw_coef = xnoise_coef * np.sqrt(dtf)
    drift = drift_coef * dtf
    pathwise = params.rho != 0.0
    # P[k, j] = 1 when fine step k, (t_fine[k-1], t_fine[k]], lies in panel j
    if terminal and not pathwise:
        P = np.ones((m, 1))
    else:
        P = (np.searchsorted(t_coarse, t_fine)[:, None] == np.arange(n)).astype(float)
    nx = P.shape[1]
    # Z's first `width - m` columns drive X; the columns from `first` on give
    # the Y noise through the W^H rows LW of the factor
    if pathwise:
        width, first, LW = 2 * m, 0, L[m:]
    else:
        width, first, LW = nx + m, nx, L[m:, m:]
        MV = np.hstack([drift[:, None] * P, (dw_coef * dw_coef)[:, None] * P])
    MT = (noise_scale * _by_parts_matrix(t_fine, beta_eff) @ LW).T
    # Y less its noise, at t = 0 and at the fine nodes, is theta * y_start + y_lam
    ebt = np.exp(beta_eff * np.concatenate([[0.0], t_fine]))
    y_start = start_scale * ebt
    y_lam = lam_term_coef * (1.0 - ebt)
    gather = np.searchsorted(t_fine, t_coarse) + 1
    nb = -(-n_paths // _ROW_BLOCK)
    streams = rng.spawn(nb)
    workers = min(nb, _WORKERS)

    def work(w):
        R = min(n_paths, _ROW_BLOCK)
        Z_w = np.empty((R, width))
        y_w = np.empty((R, m + 1))
        # the Y noise, then s^2 (rho = 0) or drift * s (rho != 0)
        f_w = np.empty((R, m))
        # (mean | var) at rho = 0, the panel sums dx @ P otherwise
        d_w = np.empty((R, nx if pathwise else 2 * nx))
        x_w = np.empty((R, nx))
        g_w = None if terminal else np.empty((R, n))
        for b in range(w, nb, workers):
            lo, hi = b * _ROW_BLOCK, min(n_paths, (b + 1) * _ROW_BLOCK)
            r = hi - lo
            Z, yb, f, d, x = Z_w[:r], y_w[:r], f_w[:r], d_w[:r], x_w[:r]
            streams[b].standard_normal(out=Z)
            np.multiply(theta[lo:hi, None], y_start, out=yb)
            yb += y_lam
            yb[:, 1:] += np.matmul(Z[:, first:], MT, out=f)
            # a view of yb for a Linear vol, so yb is only read from here on
            sv = svol(yb[:, :-1])
            if pathwise:
                # Euler X on the fine grid, in place over the Wbar columns of Z
                dx = Z[:, :m]
                dx *= dw_coef
                dx += np.multiply(sv, drift, out=f)
                dx *= sv
                dx = np.matmul(dx, P, out=d)
            else:
                np.matmul(np.multiply(sv, sv, out=f), MV, out=d)
                dx = Z[:, :nx]
                dx *= np.sqrt(d[:, nx:], out=d[:, nx:])
                dx += d[:, :nx]
            np.cumsum(dx, axis=1, out=x)
            sink(lo, hi, x, None if terminal else np.take(yb, gather, axis=1, out=g_w[:r]))

    if workers == 1:
        work(0)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(work, range(workers)))


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def tail_probability(batch: GaussianPathBatch, level: float, node: float) -> MCEstimate:
    """Fraction of paths with X_node >= level, with binomial standard error."""
    t = batch.grid.t
    j = int(np.argmin(np.abs(t - node)))
    if abs(t[j] - node) > 1e-9:
        raise DomainError(f"node {node} not on grid")
    count = int(np.sum(batch.values[:, j] >= level))
    n = batch.n_paths
    p = count / n
    return MCEstimate(
        p_hat=p,
        std_err=math.sqrt(p * (1.0 - p) / n),
        n_paths=n,
        seed=batch.seed,
        event=f"X({node}) >= {level}",
    )


def tail_estimate(params: ModelParams, law: InitialLaw, scheme: RescalingScheme, eps: float,
                  grid: TimeGrid, n_paths: int, seed, level: float) -> MCEstimate:
    """P(X^eps_T >= level) at the last grid node T, with binomial standard
    error, from n_paths simulated paths that are never held all at once.

    H != 1/2: the block workers of the fine-grid simulation reduce each block
    to its count of hits, so at most one _ROW_BLOCK-row block per worker is
    in memory. With rho != 0 the blocks draw and compute as `simulate` does,
    and the count equals the count on simulate's X_T for the same seed. With
    rho = 0, X_T given the vol path is exactly
    N(sum_k drift_k s_k^2, sum_k dw_coef_k^2 s_k^2) over all fine steps, so
    each path draws one normal for X_T and m for W^H: simulate's law of X_T
    with a different random layout.
    H = 1/2: `simulate` runs on consecutive chunks of _H_HALF_CHUNK paths
    drawn from the same generator.
    """
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    rng = make_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    if params.hurst.H == 0.5:
        count = 0
        for lo in range(0, n_paths, _H_HALF_CHUNK):
            xb, _ = simulate(params, law, scheme, eps, grid, min(_H_HALF_CHUNK, n_paths - lo), rng)
            count += int(np.count_nonzero(xb.values[:, -1] >= level))
    else:
        rng, theta, coefs, svol = _prepare(params, law, scheme, eps, grid, n_paths, rng, False)
        # one slot per block: workers never write the same one
        hits = np.zeros(-(-n_paths // _ROW_BLOCK), dtype=np.int64)

        def count_hits(lo, hi, x, _):
            hits[lo // _ROW_BLOCK] = np.count_nonzero(x[:, -1] >= level)

        _simulate_general(params, grid, n_paths, rng, theta, *coefs, svol, _N_FINE, count_hits,
                          terminal=True)
        count = int(hits.sum())
    p = count / n_paths
    return MCEstimate(
        p_hat=p,
        std_err=math.sqrt(p * (1.0 - p) / n_paths),
        n_paths=n_paths,
        seed=seed if isinstance(seed, int) else 0,
        event=f"X({grid.t[-1]}) >= {level}",
    )


@dataclass
class SlopeFit:
    limit: float
    limit_std_err: float
    eps_ladder: list
    h_log_p: list          # None where censored
    p_hats: list
    std_errs: list
    censored: list
    residuals: list


def ldp_slope(params, law, scheme, eps_ladder, level, n_paths, seed,
              grid: Optional[TimeGrid] = None) -> SlopeFit:
    """Estimate lim h_eps log P(X^eps_1 >= level) by simulating along an
    eps ladder and extrapolating an affine fit in eps to eps = 0.

    The affine-in-eps fit form is pragmatic (the prefactor correction is not
    exactly affine); intercept and its standard error are reported. Ladder
    point i is a `tail_estimate` on child stream i of the seed, as in the
    CLI `simulate` command.
    """
    eps_ladder = list(eps_ladder)
    if len(eps_ladder) < 3:
        raise DomainError("need at least 3 ladder points")
    grid = grid or TimeGrid.uniform(16)
    H = params.hurst.H
    base_seed = seed if isinstance(seed, int) else 0
    ss = np.random.SeedSequence(base_seed)
    h_log_p, p_hats, std_errs, censored = [], [], [], []
    children = ss.spawn(len(eps_ladder))
    for i, eps in enumerate(eps_ladder):
        est = tail_estimate(params, law, scheme, eps, grid, n_paths,
                            np.random.default_rng(children[i]), level)
        p_hats.append(est.p_hat)
        std_errs.append(est.std_err)
        if est.p_hat == 0:
            censored.append(True)
            h_log_p.append(None)
        else:
            censored.append(False)
            h_log_p.append(scheme.speed(eps, H) * math.log(est.p_hat))
    xs = np.array([e for e, c in zip(eps_ladder, censored) if not c])
    ys = np.array([v for v, c in zip(h_log_p, censored) if not c])
    if xs.size < 2:
        raise DomainError("too many censored ladder points for a fit")
    A = np.vstack([np.ones_like(xs), xs]).T
    coef, res, _, _ = np.linalg.lstsq(A, ys, rcond=None)
    fitted = A @ coef
    resid = ys - fitted
    dof = max(1, xs.size - 2)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(A.T @ A)
    # intercept noise: propagate the per-point MC error of h_eps log p_hat
    # through the OLS weights, then add the residual lack-of-fit term
    g = (np.linalg.inv(A.T @ A) @ A.T)[0]
    se_pts = np.array([
        scheme.speed(e, H) * math.sqrt((1.0 - p) / (p * n_paths))
        for e, p, c in zip(eps_ladder, p_hats, censored) if not c
    ])
    mc_var = float(np.sum((g * se_pts) ** 2))
    return SlopeFit(
        limit=float(coef[0]),
        limit_std_err=float(math.sqrt(max(cov[0, 0], 0.0) + mc_var)),
        eps_ladder=eps_ladder,
        h_log_p=h_log_p,
        p_hats=p_hats,
        std_errs=std_errs,
        censored=censored,
        residuals=resid.tolist(),
    )


def sample_initial(law: InitialLaw, n: int, seed, params: Optional[ModelParams] = None) -> np.ndarray:
    """n i.i.d. draws from the (resolved) initial law."""
    rng = make_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    return law.resolve(params).sample(n, rng)
