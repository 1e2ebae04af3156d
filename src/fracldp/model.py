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
    gram_matrix,
    operator_matrix,
)
from .paths import (
    GaussianPathBatch,
    _by_parts_matrix,
    _stable_cholesky,
    make_rng,
    seed_label,
)


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

    @property
    def homogeneous(self) -> bool:
        """Whether scaled(eps^b y, eps, b) = eps^b scaled(y, 1, b) for every
        eps > 0 and y. It holds for Linear, AffineAbs and Tabulated, not for
        Constant, whose coefficient does not rescale. Where it holds, the
        Tails system at eps is Y^eps = eps^b Y^1 and X^eps = eps^{2b} X^1
        path by path on the same draws, which `tail_ladder` uses."""
        return self.kind is not VolKind.CONSTANT


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

    Returns (beta_eff, start_scale, lam_term_coef, noise_scale, drift_coef,
    xnoise_coef) such that
      Y_t = start_scale*Theta*e^{beta_eff t} + lam_term_coef*(1 - e^{beta_eff t})
            + noise_scale * Z_t,   Z = fOU integral with rate beta_eff, unit xi,
      dX = drift_coef * s(Y)^2 dt + xnoise_coef * s(Y) dWbar,
    where s is the rescaled vol coefficient for this eps.
    """
    b = scheme.b
    H = params.hurst.H
    lam_term = -eps ** b * params.lam / params.beta
    if scheme.kind is SchemeKind.TAILS:
        return (params.beta, eps ** b, lam_term, eps ** b * params.xi, -0.5, eps ** b)
    if scheme.kind is SchemeKind.SMALL_TIME:
        return (
            params.beta * eps ** 2,
            eps ** b,
            lam_term,
            eps ** (2.0 * H + b) * params.xi,
            -0.5 * eps ** (2.0 * H + 1.0),
            eps ** (2.0 * H + b),
        )
    # DiffusiveSmallTime: unrescaled marginals observed at time eps^2 t
    return (params.beta * eps ** 2, 1.0, -params.lam / params.beta, eps ** (2.0 * H) * params.xi,
            -0.5 * eps ** 2, eps)


def _vol_coefficient(params: ModelParams, scheme: RescalingScheme, eps: float):
    if scheme.kind is SchemeKind.DIFFUSIVE_SMALL_TIME:
        return lambda y: params.vol.sigma(y)
    return lambda y: params.vol.scaled(y, eps, scheme.b)


_joint_chol_cache: dict = {}

# Rows per block of _simulate_general. Part of the seed layout: block b
# draws from the b-th child stream, so changing this changes the paths for a
# given seed.
_ROW_BLOCK = 2048

# Rows per tile: a worker runs a block as consecutive tiles of _TILE rows,
# drawn in order from the block's stream, so that its arrays stay in a
# core's cache. Not part of the seed layout: a row's bits do not depend on
# its tile. BLAS can round the rows of a GEMM with few rows differently
# (numpy sends one row to gemv; OpenBLAS on AVX-512 does so up to 9 rows at
# m = 128, and up to more at smaller m: 75 rows for the (2m, m) GEMM of
# H = 1/2 on a 16-node grid at rho != 0), so a remainder of fewer than
# _TILE // 2 rows joins the last tile, and no tile is cut below 128 rows
# unless its block is shorter. OpenBLAS also rounds the last rows of a
# GEMM's last columns with the row count when there are 198 or more output
# columns and their number is not a multiple of 8, so the Y noise GEMM's
# output is padded with zero columns to a multiple of 8. A tail estimate's
# (mean | var) is summed row by row, with no BLAS. This bounds the memory a
# tail estimate holds. 256 ran as fast as 512 and faster than 128 or whole
# blocks.
_TILE = 256

# Fine-grid steps of the H != 1/2 simulation over (0, T]; H = 1/2 steps on
# the caller's grid.
_N_FINE = 128

# Threads that run those blocks; not part of the seed layout.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no CPU affinity on this platform
    _WORKERS = os.cpu_count() or 1


def _joint_bm_fbm_cholesky(H: float, t: np.ndarray, rho: float, beta: float = 0.0):
    """Factor L of the joint law of (B, Y) at t_1..t_n, B first: Z @ L.T
    has that law for standard normal rows Z.

    Y_t = int_0^t F(t, s) dB_s with F the F_fou kernel at (H, beta), unit
    xi: W^H at beta = 0, and the OU integral int_0^t e^{beta(t-s)} dB_s at
    H = 1/2. B's increment over panel k is sqrt(dt_k) Z_k, and
    Y = U Z_{:n} + L22 Z_{n:}. Cov(Y_tj, dB_k) is the operator matrix
    A[j, k] of F, so U = A diag(dt)^{-1/2} and L22 is a square root of
    S = G - U U^T, G the Gram matrix of F (closed form at beta = 0). S is
    nearly singular for H near 1/2, so L22 = Q diag(sqrt(lambda)) from its
    eigendecomposition. Negative eigenvalues, which rounding and the
    operator matrix's quadrature leave there, are set to 0 with a
    RuntimeWarning that names the most negative. The factor does not depend
    on rho, only on whether it is 0: at rho = 0 X does not read B, so U = 0,
    L22 = chol(G) and no operator matrix is built.

    At H = 1/2 the factor is closed form at every rho. Y_tj sums
    E[j, k] I_k over panels k <= j, with E[j, k] = e^{beta(t_j - t_k)} and
    I_k = int_{panel k} e^{beta(t_k - s)} dB_s, whose variance is
    w_k = expm1(2 beta dt_k) / (2 beta) and whose covariance with dB_k is
    a_k = expm1(beta dt_k) / beta (both dt_k at beta = 0). So
    U = E * (a / sqrt(dt)) and L22 = E * sqrt(w - a^2 / dt), or
    L22 = E * sqrt(w) at rho = 0.
    """
    key = (H, tuple(t), rho != 0.0, beta)
    if key in _joint_chol_cache:
        return _joint_chol_cache[key]
    n = t.size
    dt = np.diff(t, prepend=0.0)
    L = np.zeros((2 * n, 2 * n))
    L[:n, :n] = np.tril(np.broadcast_to(np.sqrt(dt), (n, n)))
    if H == 0.5:
        # the exponent is clipped at 0 above the diagonal, which tril drops
        E = np.tril(np.exp(beta * np.maximum(t[:, None] - t, 0.0)))
        a, w = (np.expm1(r * dt) / r if r else dt for r in (beta, 2.0 * beta))
        if rho:
            L[n:, :n] = E * (a / np.sqrt(dt))
            w = np.maximum(w - a * (a / dt), 0.0)  # rounding of a w - a^2 / dt near 0
        L[n:, n:] = E * np.sqrt(w)
    else:
        grid = TimeGrid(nodes=tuple(t), weights=tuple(dt))
        spec = KernelSpec(KernelKind.F_FOU, HurstParams(H), beta=beta)
        if not rho:
            L[n:, n:] = _stable_cholesky(gram_matrix(spec, grid))
        else:
            U = L[n:, :n] = operator_matrix(spec, grid) / np.sqrt(dt)
            lam, Q = np.linalg.eigh(gram_matrix(spec, grid) - U @ U.T)
            if lam[0] < 0.0:
                warnings.warn(f"covariance matrix has negative eigenvalues down to {lam[0]:.3e} "
                              f"(largest {lam[-1]:.3e}); they were set to 0", RuntimeWarning)
            L[n:, n:] = Q * np.sqrt(np.maximum(lam, 0.0))
    _joint_chol_cache[key] = L
    return L


def _linear_vol_spectrum(MT, dtf, y_start, y_lam):
    """SVD of the noise map of a Linear vol's quadratic form.

    With a Linear vol, X_T given the vol path depends on it only through
    V = sum_k dtf_k y_k^2, y_k the vol at the left end t_{k-1} of fine step k
    (t_0 = 0). A row's left-endpoint Y is theta y_start + y_lam + B z (before
    noise_scale), with z its m normals, MT the GEMM matrix of
    `_simulate_general` and B = [0; MT[:, :m-1]^T]: Y at t = 0 has no noise.
    With G = diag(sqrt(dtf)) B = U diag(s) W^T,
        V = |theta alpha1 + alpha0 + s * (W^T z)|^2,
    alpha1 = U^T (sqrt(dtf) y_start) and alpha0 = U^T (sqrt(dtf) y_lam).
    Returns (s, alpha1, alpha0).
    """
    root = np.sqrt(dtf)
    G = np.zeros_like(MT)
    G[1:] = MT[:, :-1].T
    G *= root[:, None]
    U, s, _ = np.linalg.svd(G)
    return s, U.T @ (root * y_start), U.T @ (root * y_lam)


def simulate(
    params: ModelParams,
    law: InitialLaw,
    scheme: RescalingScheme,
    eps: float,
    grid: TimeGrid,
    n_paths: int,
    seed,
    allow_coarse: bool = False,
):
    """Simulate the rescaled pair (X^eps, Y^eps) on the grid.

    Y^eps is drawn on a simulation grid of m nodes, jointly with the
    Brownian motion B that drives it (see _simulate_general). For H = 1/2
    the simulation grid is the grid itself (m = n), the OU integral is drawn
    from its exact joint factor and Y^eps is exact in law at the nodes. For
    H != 1/2, W^H is drawn on an internal fine grid of m nodes (the grid's
    nodes and _N_FINE uniform steps) and the fOU integral is evaluated by
    the integration-by-parts identity there: with 128 fine steps the largest
    error of Y's covariance at the grid nodes, relative to the largest
    entry, is 7.5e-4 at H = 0.1, 9.4e-5 at H = 0.3 and 2.6e-5 at H = 0.7
    (against m = 8192). X^eps is Euler-Maruyama with the vol at each step's
    left end, driven by Wbar = rho B + rho_bar B' with B' independent. Each
    path draws n normals, one per grid panel, for X's increment over that
    panel from its exact Gaussian law given the drivers of Y: the same law
    as the Euler sum over the panel's steps. Then it draws m normals for Y
    at rho = 0, and 2m at rho != 0, whose first m are B's increments.
    Returns (x_batch, y_batch) as GaussianPathBatch objects.
    """
    rng, theta, points = _prepare(params, law, scheme, [eps], grid, n_paths, seed, allow_coarse)
    x = np.empty((n_paths, grid.n))
    y = np.empty((n_paths, grid.n))

    def store(lo, hi, xb, yb):
        x[lo:hi] = xb
        y[lo:hi] = yb

    _simulate_general(params, grid, n_paths, rng, theta, points, store)
    s = seed_label(seed)
    return GaussianPathBatch(values=x, grid=grid, seed=s), GaussianPathBatch(values=y, grid=grid, seed=s)


def _check_eps(eps_ladder):
    # a negative eps would make eps ** (-2b) and the scheme's powers complex
    for eps in eps_ladder:
        if not (math.isfinite(eps) and eps >= 0.0):
            raise DomainError(f"eps must be finite and nonnegative, got {eps}")


def _prepare(params, law, scheme, eps_ladder, grid, n_paths, seed, allow_coarse):
    """Checks and set-up shared by simulate and the tail estimators. Returns
    the generator, Theta (its first draws) and, per eps of the ladder, the
    point (beta_eff, start_scale, lam_term_coef, noise_scale, drift_coef,
    xnoise_coef, vol coefficient)."""
    _check_eps(eps_ladder)
    if grid.n < 16 and not allow_coarse:
        raise DomainError("grid has fewer than 16 nodes; pass allow_coarse=True to override")
    for msg in scheme.check_b(params.hurst.H):
        warnings.warn(msg)
    rng = make_rng(seed)
    theta = law.resolve(params).sample(n_paths, rng)
    points = [(*_scheme_coefficients(params, scheme, eps), _vol_coefficient(params, scheme, eps))
              for eps in eps_ladder]
    return rng, theta, points


def _simulate_general(params, grid, n_paths, rng, theta, points, sink, terminal=False):
    """Simulation of each point of an eps ladder (`points`, from _prepare),
    handed to `sink` block by block; the one route of `simulate` and the tail
    estimators at every H and rho.

    The simulation grid t_1..t_m is the union of the grid with _N_FINE
    uniform steps at H != 1/2, and the grid itself (m = n) at H = 1/2. Y's
    noise at a point is noise_scale times the OU-type integral
    Z_t = int_0^t F(t, s) dB_s at the point's beta_eff. At H != 1/2,
    _joint_bm_fbm_cholesky factors (B, W^H) and F maps W^H to Z by the
    trapezoid by-parts identity on the fine grid. At H = 1/2 it factors
    (B, Z) itself at the point's beta_eff, exactly, and F is the identity.
    [U, L22] are the factor's Y rows; at rho = 0, where U = 0, the
    simulation reads L22 alone.

    Paths are simulated in blocks of _ROW_BLOCK rows (the last block is
    shorter). Block b draws one array of standard normals Z from the b-th
    child stream spawned from `rng` after Theta, so the block size is part
    of the random-number layout and the paths are a function of the seed and
    n_paths only. Every point reads the same Theta and Z with the same
    arithmetic, whatever else the ladder holds, so it equals a one-point run
    at the same seed bit for bit. Z's first nx columns are X's normals, one
    per coarse panel (nx = n), or none with `terminal` (nx = 0). At
    rho != 0 its next m columns are zeta, B's increments
    dB_k = sqrt(dt_k) zeta_k. Per point, the columns from nx on enter one
    GEMM with (F [U, L22])^T; the point scales the product by its
    noise_scale to get its Y noise. (`tail_ladder` runs a Tails ladder with
    a homogeneous vol as the single point eps = 1.)

    X: Wbar = rho B + rho_bar B' with B' independent of Y, so given Z a
    panel's sum of Euler increments is exactly Gaussian (Romano-Touzi), with
    mean sum (drift_k s_k^2 + rho dw_coef_k s_k zeta_k) and variance
    rho_bar^2 sum dw_coef_k^2 s_k^2 over its steps, s the left-endpoint vol.
    With P the 0/1 step -> panel matrix (the identity at H = 1/2),
    (mean | var) = s^2 [drift P | rho_bar^2 dw_coef^2 P], to whose mean
    rho != 0 adds (s zeta) (rho dw_coef P); rho_bar^2 is exactly 1 at
    rho = 0. The panel increment is mean + sqrt(var) Z_j; the increments
    are cumulated over the panels. With `terminal` the only panel is (0, T],
    no X normal is drawn, each row's (mean | var) is summed row by row
    (einsum, not BLAS, so a row's bits do not depend on its tile) and each
    point ends at the exact conditional law N(mean, var) of X_T.

    rho = 0 with `terminal` and a Linear vol: (mean | var) =
    (drift_coef V, xnoise_coef^2 V) with V = sum_k dtf_k y_k^2, and no GEMM
    runs. Per point, one SVD of the vol's left-endpoint noise map (see
    _linear_vol_spectrum) gives V = |theta alpha1 + alpha0 + s * W^T z|^2.
    The route reads Z's rows in place of W^T z, which is again standard
    normal: each path's V is another realisation with the same law, not the
    GEMM route's V at the same draws. Per tile, V is expanded as
    Z^2 s^2 + Z [2 s alpha1, 2 s alpha0] plus constants in theta, summed row
    by row.

    A block runs as tiles of about _TILE rows (see there), each drawing its
    rows of Z from the block's stream in order, which gives the bits of one
    block-sized draw; every step above works on one tile at a time.
    Without `terminal`, each tile calls sink(lo, hi, x, y) once per point with
    rows lo:hi of X and Y at the grid nodes. With `terminal` each tile writes
    its rows of the block's (mean | var), and the block calls
    sink(lo, hi, x, None) once, after its last tile, with x the (k, rows, 2)
    (mean | var) of the k points. These are the worker's own arrays, which
    its next tile or block overwrites, so the sink copies or reduces them
    before it returns.

    Blocks run on up to _WORKERS threads, worker w taking blocks w,
    w + workers, ... and writing every step into arrays it allocates once
    (numpy's RNG fill, BLAS and ufuncs release the GIL): Z, Y then s^2 (Z^2
    on the Linear route) and the GEMM product then s zeta of one tile, and
    with `terminal` the block's (mean | var), whatever the ladder's length.
    Neither the worker count nor the tile size changes the result. The
    sink, and a Tabulated vol's user callables, run on worker threads,
    concurrently.
    """
    H = params.hurst.H
    rho = params.rho
    # at H = 1/2 the factor draws each point's OU integral exactly, on the
    # caller's grid; otherwise it draws W^H on the fine grid
    half = H == 0.5
    t_coarse = grid.t
    n = grid.n
    t_fine = t_coarse if half else np.unique(
        np.concatenate([np.linspace(0.0, t_coarse[-1], _N_FINE + 1)[1:], t_coarse]))
    m = t_fine.size
    k = len(points)
    dtf = np.diff(t_fine, prepend=0.0)
    # P[k, j] = 1 when fine step k, (t_fine[k-1], t_fine[k]], lies in panel j
    P = np.ones((m, 1)) if terminal else \
        (np.searchsorted(t_coarse, t_fine)[:, None] == np.arange(n)).astype(float)
    # Z's first nx columns drive X, one per panel (none for X_T's moments);
    # the columns from nx on give the Y noise, and at rho != 0 the first m
    # of them are zeta
    nx = 0 if terminal else n
    width = nx + (2 * m if rho else m)
    # a Linear vol's (mean | var) from V in the SVD basis of its noise map
    spectral = terminal and not rho and params.vol.kind is VolKind.LINEAR
    consts = []
    for beta_eff, start_scale, lam_term_coef, noise_scale, drift_coef, xnoise_coef, svol in points:
        # Y less its noise, at t = 0 and at the fine nodes, is theta * y_start + y_lam
        ebt = np.exp(beta_eff * np.concatenate([[0.0], t_fine]))
        L = _joint_bm_fbm_cholesky(H, t_fine, rho, beta_eff if half else 0.0)
        LW = L[m:] if rho else L[m:, m:]
        MT = (LW if half else _by_parts_matrix(t_fine, beta_eff) @ LW).T
        if spectral:
            s, a1, a0 = _linear_vol_spectrum(MT, dtf, start_scale * ebt[:-1],
                                             lam_term_coef * (1.0 - ebt[:-1]))
            s *= noise_scale
            consts.append((s * s, np.vstack([2.0 * s * a1, 2.0 * s * a0]),
                           a1 @ a1, 2.0 * a1 @ a0, a0 @ a0, drift_coef, xnoise_coef**2))
            continue
        # zero columns pad the Y noise GEMM to a multiple of 8 columns (see _TILE)
        MT = np.hstack([MT, np.zeros((MT.shape[0], -m % 8))])
        dw_coef = xnoise_coef * np.sqrt(dtf)
        MV = np.hstack([(drift_coef * dtf)[:, None] * P,
                        ((1.0 - rho * rho) * dw_coef * dw_coef)[:, None] * P])
        MZ = (rho * dw_coef)[:, None] * P
        # einsum's "ij,kj->ik" takes MV^T
        consts.append((MT, start_scale * ebt, lam_term_coef * (1.0 - ebt), noise_scale,
                       (np.ascontiguousarray(MV.T), MZ[:, 0]) if terminal else (MV, MZ), svol))
    gather = np.searchsorted(t_fine, t_coarse) + 1
    nb = -(-n_paths // _ROW_BLOCK)
    streams = rng.spawn(nb)
    workers = min(nb, _WORKERS)

    def work(w):
        B = min(n_paths, _ROW_BLOCK)
        R = min(B, _TILE + _TILE // 2)  # the most rows a tile holds
        Z_w = np.empty((R, width))
        # Y at t = 0 and the fine nodes, and the Y noise; on the spectral
        # route Z^2, and V with Z's two linear terms
        y_w = np.empty((R, m if spectral else m + 1))
        f_w = np.empty((R, 3) if spectral else (R, m + -m % 8))
        t_w = np.empty((k, B, 2)) if terminal else None
        # the panels' (mean | var), X and Y at the grid nodes
        d_w = None if terminal else np.empty((R, 2 * n))
        x_w = None if terminal else np.empty((R, n))
        g_w = None if terminal else np.empty((R, n))
        for b in range(w, nb, workers):
            lo, hi = b * _ROW_BLOCK, min(n_paths, (b + 1) * _ROW_BLOCK)
            # a remainder of fewer than _TILE // 2 rows joins the tile before it
            cuts = range(lo + _TILE, hi - _TILE // 2 + 1, _TILE)
            for tlo, thi in zip([lo, *cuts], [*cuts, hi]):
                r, rows = thi - tlo, slice(tlo - lo, thi - lo)
                Z, yb = Z_w[:r], y_w[:r]
                streams[b].standard_normal(out=Z)
                if spectral:
                    th, Z2, f = theta[tlo:thi], np.multiply(Z, Z, out=yb), f_w[:r]
                    # per-row reductions (einsum, not BLAS): a row's bits do
                    # not depend on the tile's row count
                    for i, (s2, C, c11, c10, c00, drift_coef, var_coef) in enumerate(consts):
                        np.einsum("ij,kj->ik", Z, C, out=f[:, 1:])
                        # V = |theta alpha1 + alpha0 + s z|^2, expanded in z
                        V = np.einsum("ij,j->i", Z2, s2, out=f[:, 0])
                        V += f[:, 2] + c00
                        V += th * (f[:, 1] + c10 + th * c11)
                        np.maximum(V, 0.0, out=V)  # rounding of a V near 0
                        np.multiply(V, drift_coef, out=t_w[i, rows, 0])
                        np.multiply(V, var_coef, out=t_w[i, rows, 1])
                    continue
                for i, (MT, y_start, y_lam, noise_scale, (MV, MZ), svol) in enumerate(consts):
                    f = np.matmul(Z[:, nx:], MT, out=f_w[:r])[:, :m]
                    f *= noise_scale
                    np.multiply(theta[tlo:thi, None], y_start, out=yb)
                    yb += y_lam
                    yb[:, 1:] += f
                    sv = svol(yb[:, :-1])
                    if not terminal:
                        y = np.take(yb, gather, axis=1, out=g_w[:r])
                    if rho:  # s zeta, in the Y noise's place
                        sz = np.multiply(sv, Z[:, nx:nx + m], out=f)
                    # Y is not read from here on (a Linear vol's sv is a view of it)
                    s2 = np.multiply(sv, sv, out=yb[:, :-1])
                    if terminal:
                        mv = np.einsum("ij,kj->ik", s2, MV, out=t_w[i, rows])
                        if rho:
                            mv[:, 0] += np.einsum("ij,j->i", sz, MZ)
                        continue
                    d = np.matmul(s2, MV, out=d_w[:r])
                    x = x_w[:r]
                    if rho:
                        d[:, :n] += np.matmul(sz, MZ, out=x)
                    np.multiply(Z[:, :n], np.sqrt(d[:, n:], out=d[:, n:]), out=x)
                    x += d[:, :n]
                    np.cumsum(x, axis=1, out=x)
                    sink(tlo, thi, x, y)
            if terminal:
                sink(lo, hi, t_w[:, :hi - lo], None)

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
    """P(X^eps_T >= level) at the last grid node T, with its standard error,
    from n_paths simulated paths that are never held all at once. p_hat and
    std_err are Python floats.

    The one-point `tail_ladder`, which describes the estimator. A Tails
    estimate with a homogeneous vol runs at eps = 1 against the level
    level eps^{-2b}. `tail_probability` on simulate's paths is crude.
    """
    (est,), _ = tail_ladder(params, law, scheme, [eps], grid, n_paths, seed, level)
    return est


def tail_ladder(params: ModelParams, law: InitialLaw, scheme: RescalingScheme, eps_ladder,
                grid: TimeGrid, n_paths: int, seed, level: float):
    """P(X^eps_T >= level) at the last grid node T for each eps of the
    ladder, from n_paths paths per point that are never held all at once.
    Returns (estimates, cov): one MCEstimate per eps, with Python-float
    p_hat and std_err, and the covariance matrix of the p_hats.

    One pass over the blocks of `_simulate_general` draws Theta and each
    block's normals once, from the seed's own generator, for every point
    (common random numbers). So each point equals `tail_estimate` at
    its eps and seed, whatever else the ladder holds, and the points are
    correlated.
    A Tails ladder whose vol is `homogeneous` is one pass at unit scale:
    there Y^eps = eps^b Y^1 and X^eps = eps^{2b} X^1 path by path, so
    P(X^eps_T >= level) = P(X^1_T >= level eps^{-2b}). The blocks simulate
    the single point eps = 1, and point i reads X^1_T (or its moments)
    against the level L_i = level eps_i^{-2b}. Every other ladder (SmallTime,
    DiffusiveSmallTime, a Constant vol) simulates each eps as its own point
    with L_i = level. Per path and point, q is
    P(X_T >= L_i | Z) = ndtr((mean - L_i) / sqrt(var)), or 1{mean >= L_i}
    where var = 0 (conditional Monte Carlo), with Z the path's normals for Y
    (and at rho != 0 for B, which drives Y). Given them, X_T is exactly
    N(mean, var): mean = sum_k (drift_k s_k^2 + rho dw_coef_k s_k zeta_k)
    and var = rho_bar^2 sum_k dw_coef_k^2 s_k^2 over the fine steps (see
    `_simulate_general`), so a path draws only m normals at rho = 0 and 2m
    at rho != 0, and none for X. q has the expectation of the hit indicator
    and never a larger variance. At rho = 0 with a Linear vol, (mean, var)
    come from the SVD basis of the vol's noise map: the same law as the
    GEMM route's, but other values for a given seed.
    p_hat is the mean of q and cov the sample covariance of q divided by
    n_paths, so std_err = sqrt(sum_i (q_i - p_hat)^2) / n_paths: for 0/1
    values the binomial sqrt(p_hat (1 - p_hat) / n_paths). Each block keeps
    sum q and the co-moments about its own mean; Chan's pairwise update
    merges the blocks in block order, so no number depends on the worker
    count.
    """
    eps_ladder = list(eps_ladder)
    _check_eps(eps_ladder)
    k = len(eps_ladder)
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    # Tails with a homogeneous vol: X^eps = eps^{2b} X^1 path by path, so
    # the ladder is the point eps = 1 read at the levels level eps^{-2b}
    unit = scheme.kind is SchemeKind.TAILS and params.vol.homogeneous

    def point_level(eps):
        if not unit:
            return level
        if eps == 0.0:  # X^0 = 0, so q = 1{0 >= level} on every path
            return -math.inf if level <= 0.0 else math.inf
        return level * eps ** (-2.0 * scheme.b)

    levels = np.array([point_level(eps) for eps in eps_ladder])[:, None]
    rng, theta, points = _prepare(params, law, scheme, [1.0] if unit else eps_ladder, grid,
                                  n_paths, seed, False)
    # one slot per block: workers never write the same one
    nb = -(-n_paths // _ROW_BLOCK)
    sums = np.zeros((k, nb))
    co_moments = np.zeros((nb, k, k))

    def reduce(lo, hi, x, _):
        # x holds the (mean | var) of X_T, one row per point: one in all
        # for a unit-scale ladder
        gap = x[..., 0] - levels
        sd = np.broadcast_to(np.sqrt(x[..., 1]), gap.shape)
        q = (gap >= 0.0).astype(float)
        pos = sd > 0.0
        q[pos] = ndtr(gap[pos] / sd[pos])
        # a point's sums run over its own contiguous row, as in a one-point ladder
        b = lo // _ROW_BLOCK
        sums[:, b] = q.sum(axis=1)
        q -= (sums[:, b] / (hi - lo))[:, None]
        co_moments[b] = q @ q.T
        co_moments[b][np.diag_indices(k)] = np.square(q).sum(axis=1)

    _simulate_general(params, grid, n_paths, rng, theta, points, reduce, terminal=True)
    # Chan et al.'s pairwise update of (count, mean, co-moments)
    count, mean, m2 = 0, np.zeros(k), np.zeros((k, k))
    for b in range(nb):
        rows = min(_ROW_BLOCK, n_paths - b * _ROW_BLOCK)
        delta = sums[:, b] / rows - mean
        count += rows
        mean += delta * rows / count
        m2 += co_moments[b] + np.outer(delta, delta) * ((count - rows) * rows / count)
    p = sums.sum(axis=1) / n_paths
    ests = [MCEstimate(p_hat=float(p[i]), std_err=math.sqrt(m2[i, i]) / n_paths,
                       n_paths=n_paths, seed=seed_label(seed),
                       event=f"X({grid.t[-1]}) >= {level}") for i in range(k)]
    return ests, m2 / n_paths**2


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
    exactly affine); intercept and its standard error are reported. The
    ladder is one `tail_ladder`, as in the CLI `simulate` command. The
    intercept's Monte Carlo variance is g^T D C D g, with g its OLS weights,
    C the ladder's p_hat covariance and D = diag(h_eps / p_hat), the delta
    method for h_eps log p_hat.
    """
    eps_ladder = list(eps_ladder)
    if len(eps_ladder) < 3:
        raise DomainError("need at least 3 ladder points")
    grid = grid or TimeGrid.uniform(16)
    H = params.hurst.H
    ests, C = tail_ladder(params, law, scheme, eps_ladder, grid, n_paths, seed, level)
    p_hats = [est.p_hat for est in ests]
    std_errs = [est.std_err for est in ests]
    censored = [p == 0 for p in p_hats]
    h_log_p = [None if c else scheme.speed(e, H) * math.log(p)
               for e, p, c in zip(eps_ladder, p_hats, censored)]
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
    # intercept noise: propagate the ladder's MC covariance of h_eps log p_hat
    # through the OLS weights, then add the residual lack-of-fit term
    keep = np.flatnonzero(np.logical_not(censored))
    Dg = (np.linalg.inv(A.T @ A) @ A.T)[0] * [scheme.speed(eps_ladder[i], H) / p_hats[i]
                                              for i in keep]
    mc_var = float(Dg @ C[np.ix_(keep, keep)] @ Dg)
    return SlopeFit(
        limit=float(coef[0]),
        limit_std_err=float(math.sqrt(max(cov[0, 0] + mc_var, 0.0))),
        eps_ladder=eps_ladder,
        h_log_p=h_log_p,
        p_hats=p_hats,
        std_errs=std_errs,
        censored=censored,
        residuals=resid.tolist(),
    )


def sample_initial(law: InitialLaw, n: int, seed, params: Optional[ModelParams] = None) -> np.ndarray:
    """n i.i.d. draws from the (resolved) initial law."""
    rng = make_rng(seed)
    return law.resolve(params).sample(n, rng)
