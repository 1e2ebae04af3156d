"""Exact Gaussian sampling of fractional Brownian motion and fractional OU.

All samplers are exact in law on the grid nodes (up to Cholesky roundoff).
Reproducibility contract: a 64-bit seed fully determines the batch for a
given grid, path count and construction. The samplers here draw from one
stream. Where work is split, each piece draws from its own child stream,
spawned by index, so results do not depend on scheduling: the row blocks of
`model.simulate` and `model.tail_ladder`, at every H, which run on a
thread pool.
"""

from __future__ import annotations

import enum
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import (
    DomainError,
    HurstParams,
    KernelKind,
    KernelSpec,
    TimeGrid,
    fbm_covariance,
    fbm_covariance_matrix,
    gram_matrix,
)


class FouConstruction(str, enum.Enum):
    KERNEL_DRIVEN = "KernelDriven"
    PRODUCT_RULE = "ProductRule"


@dataclass
class GaussianPathBatch:
    """Batch of sampled paths, one row per path, one column per grid node."""

    values: np.ndarray
    grid: TimeGrid
    seed: int = 0
    construction: FouConstruction = FouConstruction.KERNEL_DRIVEN

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def empirical_covariance(self) -> np.ndarray:
        v = self.values - self.values.mean(axis=0, keepdims=True)
        return (v.T @ v) / (self.n_paths - 1)


def make_rng(seed) -> np.random.Generator:
    """Generator for an integer seed; a Generator is returned unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(seed))


def seed_label(seed) -> int:
    """The seed a result records: the integer itself for any integer type
    (Python or numpy), 0 for a Generator or anything else."""
    return int(seed) if isinstance(seed, numbers.Integral) else 0


def _stable_cholesky(C: np.ndarray) -> np.ndarray:
    """Cholesky factor with a small diagonal jitter fallback for matrices
    that are PSD only up to roundoff. Falling back emits a RuntimeWarning
    that names the jitter used."""
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        scale = np.max(np.abs(np.diag(C)))
        for k in range(10, 5, -1):
            jitter = 10.0 ** -k * scale
            try:
                L = np.linalg.cholesky(C + jitter * np.eye(C.shape[0]))
            except np.linalg.LinAlgError:
                continue
            warnings.warn(
                f"covariance matrix is not numerically positive definite; factorised "
                f"with diagonal jitter {jitter:.3e} (1e-{k} times its largest diagonal entry)",
                RuntimeWarning,
                stacklevel=2,
            )
            return L
        w = np.linalg.eigvalsh(C)
        raise np.linalg.LinAlgError(
            f"covariance factorization failed; smallest eigenvalue {w.min():.3e}"
        )


def sample_fbm(H: float, grid: TimeGrid, n_paths: int, seed) -> GaussianPathBatch:
    """Exact fBm paths on the grid via Cholesky of the covariance matrix."""
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    rng = make_rng(seed)
    L = _stable_cholesky(fbm_covariance_matrix(H, grid))
    Z = rng.standard_normal((n_paths, grid.n))
    return GaussianPathBatch(values=Z @ L.T, grid=grid, seed=seed_label(seed))


def sample_fou(
    H: float,
    beta: float,
    xi: float,
    grid: TimeGrid,
    n_paths: int,
    seed,
    construction: FouConstruction = FouConstruction.KERNEL_DRIVEN,
) -> GaussianPathBatch:
    """Sample the fractional OU integral xi int_0^t F(t,s) dW_s.

    KernelDriven draws exact Gaussian vectors with the kernel's Gram
    covariance, the law of the kernel-driven stochastic integral. ProductRule
    instead simulates fBm on a fine internal grid and applies the
    integration-by-parts identity
        Y_t = xi (W^H_t + beta int_0^t W^H_u e^{beta(t-u)} du),
    which has the same law; comparing the two is the numerical content of
    the kernel representation.
    """
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    construction = FouConstruction(construction)
    spec = KernelSpec(KernelKind.F_FOU, HurstParams(H), beta=beta, xi=xi if xi > 0 else 1.0)
    rng = make_rng(seed)
    if xi == 0.0:
        vals = np.zeros((n_paths, grid.n))
    elif construction is FouConstruction.KERNEL_DRIVEN:
        L = _stable_cholesky(gram_matrix(spec, grid))
        Z = rng.standard_normal((n_paths, grid.n))
        vals = Z @ L.T
    else:  # ProductRule
        vals = _product_rule_paths(H, beta, xi, grid, n_paths, rng)
    return GaussianPathBatch(
        values=vals,
        grid=grid,
        seed=seed_label(seed),
        construction=construction,
    )


def _by_parts_matrix(t: np.ndarray, beta: float) -> np.ndarray:
    """The (n, n) matrix F with Z^fOU = F W^H at the nodes t, for the fOU
    integral by parts with unit xi,
        Z^fOU_t = W^H_t + beta int_0^t W^H_u e^{beta (t-u)} du.
    The integral is the cumulative trapezoid of W^H e^{-beta u} (W^H linear
    from W^H_0 = 0 on the first panel) scaled by e^{beta t}, so
    F = I + diag(beta e^{beta t}) W_trap diag(e^{-beta t}).
    """
    half = 0.5 * np.diff(t, prepend=0.0)
    # row k: panel k adds half its width times its two end values; row j of
    # W_trap sums panels 0..j
    W_trap = np.cumsum(np.diag(half) + np.diag(half[1:], k=-1), axis=0)
    return np.eye(t.size) + (beta * np.exp(beta * t))[:, None] * W_trap * np.exp(-beta * t)


def _product_rule_paths(H, beta, xi, grid, n_paths, rng, n_fine: int = 256):
    # fine grid containing the target nodes; trapezoid bias is O(dt^{2H+1})
    t_coarse = grid.t
    t_fine = np.unique(np.concatenate([np.linspace(0.0, t_coarse[-1], n_fine + 1)[1:], t_coarse]))
    fine = TimeGrid(nodes=tuple(t_fine), weights=tuple(np.diff(t_fine, prepend=0.0)))
    W = sample_fbm(H, fine, n_paths, rng).values
    return W @ (xi * _by_parts_matrix(t_fine, beta)[np.searchsorted(t_fine, t_coarse)]).T
