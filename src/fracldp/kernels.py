"""Volterra kernels of the fractional OU family and their RKHS operators.

Implements pointwise kernel evaluation, the integral operator
f -> int_0^t Phi(t,s) f(s) ds on a discrete time grid, Cameron-Martin
energies and Gram (covariance) matrices.

Closed forms are used wherever they exist:
  - every kernel at H = 1/2 is xi e^{beta (t-s)}, whose operator_matrix
    panels integrate in closed form;
  - with zero effective mean reversion (K_fbm, G_zero, G_eps at eps = 0,
    F_fou at beta = 0) the kernel is xi times the Molchan-Golosov kernel
    kappa_H (t-s)^{H-1/2} 2F1(H-1/2, 1/2-H; H+1/2; 1-t/s)
    (Decreusefond & Ustunel 1999), and its Gram matrix is xi^2 times the
    fBm covariance.
Pointwise, the kernel with beta != 0 is a tanh-sinh integral over (s, t)
whose endpoint power singularity is removed by substitution. At H != 1/2,
operator_matrix uses that Volterra form for every beta, 0 included, and
never evaluates the kernel pointwise: the diagonal panel of each row is an
incomplete beta function in s left under one tanh-sinh integral, and below
the diagonal each s-node's inner integral is carried from row to row, with
tanh-sinh only over (s, t_{j+1}) and Gauss-Legendre on the later u-panels.
The beta != 0 Gram matrix is a tanh-sinh quadrature of pointwise kernel
values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import beta as _beta
from scipy.special import betainc, hyp2f1, roots_legendre
from scipy.special import gamma as _gamma


class DomainError(ValueError):
    """Raised when an argument lies outside the kernel's domain."""


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to reach its tolerance."""


def kappa(H: float) -> float:
    """Normalising constant of the fractional Volterra kernel.

    kappa(H) = sqrt(2H * Gamma(1 - (H - 1/2)) / (Gamma(H + 1/2) * Gamma(2 - 2H))).
    Equals 1 at H = 1/2.
    """
    if not 0.0 < H < 1.0:
        raise DomainError(f"Hurst parameter must lie in (0,1), got {H}")
    h_minus = H - 0.5
    h_plus = H + 0.5
    return math.sqrt(2.0 * H * _gamma(1.0 - h_minus) / (_gamma(h_plus) * _gamma(2.0 - 2.0 * H)))


@dataclass(frozen=True)
class HurstParams:
    """Hurst parameter with its derived constants."""

    H: float

    def __post_init__(self):
        if not 0.0 < self.H < 1.0:
            raise DomainError(f"Hurst parameter must lie in (0,1), got {self.H}")

    @property
    def h_minus(self) -> float:
        return self.H - 0.5

    @property
    def h_plus(self) -> float:
        return self.H + 0.5

    @property
    def kappa_h(self) -> float:
        return kappa(self.H)


class KernelKind(str, enum.Enum):
    K_FBM = "K_fbm"
    F_FOU = "F_fou"
    G_EPS = "G_eps"
    G_ZERO = "G_zero"
    IDENTITY = "Identity"


@dataclass(frozen=True)
class KernelSpec:
    """Which Volterra kernel to use, with its parameters.

    beta and xi are ignored for K_fbm and Identity; eps only matters for G_eps.
    G_eps with eps = 0 coincides with G_zero, which itself is xi * K_fbm.
    """

    kind: KernelKind
    hurst: HurstParams
    beta: float = 0.0
    xi: float = 1.0
    eps: float = 0.0

    def __post_init__(self):
        if self.kind in (KernelKind.F_FOU, KernelKind.G_EPS, KernelKind.G_ZERO) and self.xi <= 0:
            raise DomainError("xi must be positive")
        if self.kind is KernelKind.G_EPS and self.eps < 0:
            raise DomainError("eps must be nonnegative")

    @property
    def effective_beta(self) -> float:
        """Mean-reversion rate actually entering the kernel formula."""
        if self.kind is KernelKind.F_FOU:
            return self.beta
        if self.kind is KernelKind.G_EPS:
            return self.beta * self.eps ** 2
        return 0.0

    @property
    def effective_xi(self) -> float:
        if self.kind in (KernelKind.K_FBM, KernelKind.IDENTITY):
            return 1.0
        return self.xi

    @staticmethod
    def from_dict(d: dict) -> "KernelSpec":
        return KernelSpec(
            kind=KernelKind(d["kind"]),
            hurst=HurstParams(float(d.get("H", 0.5))),
            beta=float(d.get("beta", 0.0)),
            xi=float(d.get("xi", 1.0)),
            eps=float(d.get("eps", 0.0)),
        )


@dataclass(frozen=True)
class TimeGrid:
    """Discretisation of (0, 1]: strictly increasing nodes with panel weights.

    Node k is the right endpoint of the panel (t_{k-1}, t_k] with t_0 = 0, so
    the weights are the panel widths and sum to the last node. Controls and
    paths are stored as one value per node.
    """

    nodes: tuple
    weights: tuple

    def __post_init__(self):
        t = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise DomainError("grid needs at least one node")
        if t[0] <= 0 or t[-1] > 1.0 + 1e-12:
            raise DomainError("nodes must lie in (0, 1]")
        if np.any(np.diff(t) <= 0):
            raise DomainError("nodes must be strictly increasing")
        if np.any(w <= 0):
            raise DomainError("weights must be strictly positive")
        if abs(w.sum() - t[-1]) > 1e-12:
            raise DomainError("weights must sum to the last node (panels start at 0)")

    @staticmethod
    def uniform(n: int) -> "TimeGrid":
        """Uniform grid k/n, k = 1..n; first node at 1/n since kernels are
        undefined at s = 0."""
        if n < 1:
            raise DomainError("n must be >= 1")
        t = np.arange(1, n + 1) / n
        w = np.full(n, 1.0 / n)
        return TimeGrid(nodes=tuple(t), weights=tuple(w))

    @property
    def t(self) -> np.ndarray:
        return np.asarray(self.nodes, dtype=float)

    @property
    def w(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    @property
    def n(self) -> int:
        return len(self.nodes)


def fbm_covariance(H: float, t: float, s: float):
    """Covariance (1/2)(t^2H + s^2H - |t-s|^2H) of fBm; vectorises over t, s."""
    if not 0.0 < H < 1.0:
        raise DomainError(f"Hurst parameter must lie in (0,1), got {H}")
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    out = 0.5 * (np.abs(t) ** (2 * H) + np.abs(s) ** (2 * H) - np.abs(t - s) ** (2 * H))
    return float(out) if out.ndim == 0 else out


def fbm_covariance_matrix(H: float, grid: TimeGrid) -> np.ndarray:
    t = grid.t
    return fbm_covariance(H, t[:, None], t[None, :])


# ---------------------------------------------------------------------------
# Quadrature rules: tanh-sinh for endpoint singularities, Gauss-Legendre for
# smooth integrands
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _tanh_sinh_rule(h: float, n: int):
    """Nodes q in (0,1) and Jacobian weights for int_0^1 f(q) dq.

    Double-exponential clustering at both endpoints; q computed via a stable
    logistic form so that q and 1-q stay accurate down to ~1e-300.
    """
    k = np.arange(-n, n + 1)
    x = k * h
    y = 0.5 * math.pi * np.sinh(x)
    # q = (1 + tanh(y)) / 2 = 1 / (1 + exp(-2y)), computed stably on each side
    with np.errstate(over="ignore"):
        q = np.where(y >= 0, 1.0 / (1.0 + np.exp(-2.0 * y)), np.exp(2.0 * y) / (1.0 + np.exp(2.0 * y)))
        qc = np.where(y >= 0, np.exp(-2.0 * y) / (1.0 + np.exp(-2.0 * y)), 1.0 / (1.0 + np.exp(2.0 * y)))
    # dq/dx = (pi/2) cosh(x) sech^2(y) / 2 ; sech^2(y) = 4 q qc
    jac = h * math.pi * np.cosh(x) * q * qc
    keep = (q > 1e-280) & (qc > 1e-280) & (jac > 0)
    return q[keep], qc[keep], jac[keep]


@lru_cache(maxsize=4)
def _gauss_legendre_rule(n: int):
    """Nodes in (0,1) and weights of the n-point Gauss-Legendre rule for
    int_0^1 f(q) dq; exact for polynomials of degree < 2n."""
    x, w = roots_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _singular_integral(s, t, gamma_exp, g, h=0.06, n=64):
    """Vectorised int_s^t (u-s)^gamma_exp * g(u) du, gamma_exp > -1.

    s, t broadcastable arrays with 0 < s < t; g is applied elementwise to the
    quadrature nodes (shape (..., nq)). With a = gamma_exp + 1 the
    substitution u = s + (t-s) v^{1/a} turns the integral into
    ((t-s)^a / a) int_0^1 g(u(v)) dv, whose integrand is bounded: the
    tanh-sinh rule cannot resolve q^gamma_exp near q = 0 when gamma_exp is
    close to -1 (H slightly above 1/2).
    """
    v, _, jac = _tanh_sinh_rule(h, n)
    a = gamma_exp + 1.0
    s = np.asarray(s, dtype=float)[..., None]
    t = np.asarray(t, dtype=float)[..., None]
    span = t - s
    u = s + span * np.power(v, 1.0 / a)
    return np.power(span[..., 0], a) / a * np.sum(jac * g(u), axis=-1)


def _volterra_factors(H: float, beta: float):
    """Pieces of the Volterra representation of the kernel at H != 1/2,
    Phi(t, s) = xi kappa s^{-hm} [lead(t, s) + c int_s^t (u-s)^gam g(u) e^{beta(t-u)} du]
    with hm = H - 1/2, shared by _kernel_values and
    _accumulated_operator_matrix. Returns (gam, g, c, lead); lead is
    (t(t-s))^hm for H < 1/2 and 0 above."""
    hm = H - 0.5
    if hm < 0:
        return hm, lambda u: (beta - hm / u) * np.power(u, hm), 1.0, lambda t, s: np.power(t * (t - s), hm)
    return hm - 1.0, lambda u: np.power(u, hm), hm, lambda t, s: 0.0


def _kernel_values(H: float, beta: float, xi: float, t, s, h=0.06, n=64):
    """Evaluate the Volterra kernel F^H with rate beta and scale xi.

    beta = 0 and xi = 1 gives K^H; beta = 0 with general xi gives G^H_0.
    Vectorised over broadcastable t, s with 0 < s < t. Only beta != 0 with
    H != 1/2 needs quadrature (h, n set its rule).
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if H == 0.5:
        return xi * np.exp(beta * (t - s))
    hm = H - 0.5
    kap = kappa(H)
    if beta == 0.0:
        return xi * kap * np.power(t - s, hm) * hyp2f1(hm, -hm, H + 0.5, 1.0 - t / s)
    shape = np.broadcast_shapes(t.shape, s.shape)
    tb = np.broadcast_to(t, shape).astype(float)
    sb = np.broadcast_to(s, shape).astype(float)
    gam, g, c, lead = _volterra_factors(H, beta)
    inner = _singular_integral(sb, tb, gam, lambda u: g(u) * np.exp(beta * (tb[..., None] - u)), h=h, n=n)
    return xi * kap * c * np.power(sb, -hm) * (lead(tb, sb) + inner)


def eval_kernel(spec: KernelSpec, t: float, s: float, rtol: float = 1e-8) -> float:
    """Pointwise kernel value Phi(t, s) for 0 < s < t <= 1.

    Closed forms are returned directly. Otherwise (beta != 0, H != 1/2) the
    inner integral is computed at two quadrature levels and the refinement
    must agree to rtol, otherwise QuadratureError is raised.
    """
    if not (0.0 < s < t <= 1.0 + 1e-12):
        raise DomainError(f"need 0 < s < t <= 1, got s={s}, t={t}")
    if spec.kind is KernelKind.IDENTITY:
        return 1.0
    H = spec.hurst.H
    beta = spec.effective_beta
    xi = spec.effective_xi
    if H == 0.5:
        return float(xi * math.exp(beta * (t - s)))
    if beta == 0.0:
        return float(_kernel_values(H, beta, xi, t, s))
    ta, sa = np.array([t]), np.array([s])
    h = 0.12
    prev = _kernel_values(H, beta, xi, ta, sa, h=h, n=int(math.ceil(5.0 / h))).item()
    for _ in range(5):
        h *= 0.5
        cur = _kernel_values(H, beta, xi, ta, sa, h=h, n=int(math.ceil(5.0 / h))).item()
        if abs(cur - prev) <= rtol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError(
        f"kernel quadrature did not converge at (t={t}, s={s}): last refinement {prev} vs {cur}"
    )


def eval_kernel_batch(spec: KernelSpec, t, s) -> np.ndarray:
    """Vectorised kernel evaluation; the beta != 0 quadrature runs at one
    fixed level, without the adaptive convergence check."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if spec.kind is KernelKind.IDENTITY:
        return np.ones(np.broadcast_shapes(t.shape, s.shape))
    return _kernel_values(spec.hurst.H, spec.effective_beta, spec.effective_xi, t, s)


# ---------------------------------------------------------------------------
# Operator and Gram matrices
# ---------------------------------------------------------------------------

_matrix_cache: dict = {}


def _cache_key(tag: str, spec: KernelSpec, grid: TimeGrid):
    return (tag, spec.kind.value, spec.hurst.H, spec.effective_beta, spec.effective_xi, grid.nodes)


def _diagonal_panels(H: float, beta: float, xi: float, edges: np.ndarray) -> np.ndarray:
    """int_a^t Phi(t, s) ds over each row's diagonal panel (a, t), H != 1/2.

    Swapping the s- and u-integrals of the Volterra representation (Fubini)
    turns the s-integral over (a, u) into a regularised incomplete beta
    function of x = (u - a)/u, which leaves one tanh-sinh integral in u per
    row. u - a is formed as dt q, so no node is clipped. beta may be 0.
    """
    hm = H - 0.5
    a = edges[:-1, None]
    dt = np.diff(edges)[:, None]
    t = edges[1:, None]
    q, qc, jac = _tanh_sinh_rule(0.06, 64)
    u = a + dt * q
    x = dt * q / u
    decay = np.exp(beta * dt * qc)
    if hm < 0:
        p, r = 1.0 - hm, 1.0 + hm
        b = _beta(p, r)
        head = t[:, 0] ** (hm + 1.0) * b * betainc(r, p, dt[:, 0] / t[:, 0])
        inner = (beta - hm / u) * np.power(u, hm + 1.0) * decay * b * betainc(r, p, x)
    else:
        head = 0.0
        inner = hm * np.power(u, hm) * decay * _beta(1.0 - hm, hm) * betainc(hm, 1.0 - hm, x)
    return xi * kappa(H) * (head + np.sum(dt * jac * inner, axis=1))


def _near_origin(edges: np.ndarray) -> np.ndarray:
    """Mask of the panels (edges[j], edges[j+1]) whose left end lies within
    half their width of s = 0. The kernel's s^{-(H-1/2)} factor is too close
    to those for Gauss-Legendre, so their s-integrals take the tanh-sinh
    rule: panel 0 on a uniform grid, the first few on a graded one."""
    return edges[:-1] < 0.5 * np.diff(edges)


def _accumulated_operator_matrix(H: float, beta: float, xi: float, edges: np.ndarray) -> np.ndarray:
    """Entries below the diagonal of the H != 1/2 operator matrix, for any
    beta (at beta = 0 the Volterra form is the Molchan-Golosov kernel).

    Each panel j < n-1 carries one set of s-nodes that serves every later
    row: tanh-sinh nodes where the s^{-hm} singularity at 0 lies within half
    a panel width (panel 0, and the first panels of a graded grid), 16
    Gauss-Legendre nodes elsewhere. Phi(t_i, s) depends on t_i through the
    running integral J_i(s) = int_s^{t_i} (u-s)^gam g(u) e^{beta(t_i-u)} du.
    A node of panel j first needs it at row j+1, where a fine tanh-sinh rule
    integrates over (s, t_{j+1}); each later row steps
    J <- e^{beta dt_i} J + (Gauss-Legendre over (t_{i-1}, t_i)). Those
    u-panels lie at least one panel width from s, where (u-s)^gam is smooth.
    O(n^2) work per s-node set; the diagonal is left at 0.
    """
    n = edges.size - 1
    t = edges[1:]
    dt = np.diff(edges)
    hm = H - 0.5
    gam, g, c, lead = _volterra_factors(H, beta)
    q, _, jac = _tanh_sinh_rule(0.06, 64)
    x, wx = _gauss_legendre_rule(16)
    near = _near_origin(edges)
    # the last panel is only ever a diagonal one, so it needs no s-nodes
    rules = [(q, jac) if near[j] else (x, wx) for j in range(n - 1)]
    s = np.concatenate([np.empty(0)] + [edges[j] + dt[j] * r for j, (r, _) in enumerate(rules)])
    ws = np.concatenate([np.empty(0)] + [dt[j] * w for j, (_, w) in enumerate(rules)])
    weight = xi * kappa(H) * c * np.power(s, -hm) * ws
    # start[j]: index of panel j's first node
    start = np.cumsum([0] + [r.size for r, _ in rules])
    J = np.empty_like(s)
    A = np.zeros((n, n))
    for i in range(1, n):
        ti = t[i]
        old, live = start[i - 1], start[i]
        if old:
            u = edges[i] + dt[i] * x
            step = dt[i] * wx * g(u) * np.exp(beta * dt[i] * (1.0 - x))
            J[:old] = math.exp(beta * dt[i]) * J[:old] + np.power(u - s[:old, None], gam) @ step
        J[old:live] = _singular_integral(
            s[old:live], ti, gam, lambda v: g(v) * np.exp(beta * (ti - v)), h=0.03, n=128)
        A[i, :i] = np.add.reduceat(weight[:live] * (lead(ti, s[:live]) + J[:live]), start[:i])
    return A


def operator_matrix(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Matrix A with A[i, j] = int over panel j of Phi(t_i, s) ds (j <= i).

    apply_operator is then A @ f for panelwise-constant controls f.
    - H != 1/2, any beta_eff (0 included): _accumulated_operator_matrix
      below the diagonal and _diagonal_panels on it.
    - H = 1/2 and Identity: Phi = xi e^{beta (t-s)}, so each panel
      integrates in closed form, A[i, j] = xi e^{beta (t_i - t_j)}
      expm1(beta dt_j) / beta, or xi dt_j at beta = 0. The exponent is
      formed on the lower triangle only, so the masked entries cannot
      overflow.
    """
    key = _cache_key("op", spec, grid)
    if key in _matrix_cache:
        return _matrix_cache[key]
    t = grid.t
    edges = np.concatenate([[0.0], t])
    H = spec.hurst.H
    beta = spec.effective_beta
    xi = spec.effective_xi
    if H == 0.5 or spec.kind is KernelKind.IDENTITY:
        dt = np.diff(edges)
        panel = np.expm1(beta * dt) / beta if beta != 0.0 else dt
        A = np.tril(xi * np.exp(beta * np.tril(t[:, None] - t[None, :])) * panel)
    else:
        A = _accumulated_operator_matrix(H, beta, xi, edges)
        A[np.diag_indices(grid.n)] = _diagonal_panels(H, beta, xi, edges)
    _matrix_cache[key] = A
    return A


def apply_operator(spec: KernelSpec, f, grid: TimeGrid) -> np.ndarray:
    """Path t -> int_0^t Phi(t,s) f(s) ds for panelwise-constant control f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n,):
        raise ValueError(f"control has shape {f.shape}, expected ({grid.n},)")
    return operator_matrix(spec, grid) @ f


def l2_energy(f, g, grid: TimeGrid) -> float:
    """Cameron-Martin energy (1/2)(||f||^2 + ||g||^2) in L^2(0, 1]."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (grid.n,) or g.shape != (grid.n,):
        raise ValueError("controls must have one value per grid node")
    w = grid.w
    return 0.5 * float(w @ (f * f) + w @ (g * g))


def gram_matrix(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Covariance matrix G[i, j] = int_0^min(ti,tj) Phi(ti,r) Phi(tj,r) dr.

    Closed form (xi^2 times the fBm covariance) when the effective beta is
    zero; tanh-sinh quadrature of the kernel products otherwise.
    """
    key = _cache_key("gram", spec, grid)
    if key in _matrix_cache:
        return _matrix_cache[key]
    t = grid.t
    n = grid.n
    G = np.zeros((n, n))
    if spec.kind is KernelKind.IDENTITY:
        G = np.minimum.outer(t, t)
        _matrix_cache[key] = G
        return G
    if spec.effective_beta == 0.0:
        G = spec.effective_xi ** 2 * fbm_covariance_matrix(spec.hurst.H, grid)
        _matrix_cache[key] = G
        return G
    q, qc, jac = _tanh_sinh_rule(0.05, 80)
    for i in range(n):
        ti = t[i]
        # r-nodes on (0, ti), clustered at both endpoints
        r = ti * q
        r = np.clip(r, 1e-300, ti * (1.0 - 1e-15))
        ki = eval_kernel_batch(spec, np.full_like(r, ti), r)
        tj = t[i:][:, None]
        kj = eval_kernel_batch(spec, np.broadcast_to(tj, (n - i, r.size)), np.broadcast_to(r, (n - i, r.size)))
        G[i, i:] = ti * np.sum(jac * ki * kj, axis=1)
        G[i:, i] = G[i, i:]
    _matrix_cache[key] = G
    return G
