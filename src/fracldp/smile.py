"""Implied-volatility limits from rate-function infima, plus Monte Carlo
cross-checks at finite maturity.

Large-strike wing slope, small-time explosion level, and the forward-start
limit all transfer a variational rate value through the same algebra:
slope = 1/(2 rate) per unit log-strike for the wings, k^2/(2 rate) for the
small-time limits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import ndtr

from .kernels import DomainError, TimeGrid
from .model import (
    InitialLaw,
    LawKind,
    ModelParams,
    RescalingScheme,
    SchemeKind,
    simulate,
)
from .rates import RateResult, rate_with_random_start, smalltime_rate, tail_rate


@dataclass
class SmileResult:
    limit_value: float
    rate_used: RateResult
    formula: str
    metadata: dict = field(default_factory=dict)


def _grid_to(t: float, n: int = 48) -> TimeGrid:
    nodes = np.linspace(t / n, t, n)
    return TimeGrid(nodes=tuple(nodes), weights=tuple(np.full(n, t / n)))


def tail_smile_slope(params: ModelParams, b: float, t: float = 1.0,
                     grid: Optional[TimeGrid] = None) -> SmileResult:
    """Large-strike limit of implied variance times t over log-strike.

    The slope is 1/(2 rate) with the rate the tails infimum over terminal
    values >= 1; it does not depend on the starting law.
    """
    if not 0.0 < t <= 1.0:
        raise DomainError("maturity t must lie in (0, 1]")
    grid = grid or _grid_to(t)
    rate = tail_rate(params, 1.0, b, grid=grid)
    if rate.value == 0.0:
        return SmileResult(math.inf, rate, "tail_slope", {"b": b, "t": t})
    return SmileResult(0.5 / rate.value, rate, "tail_slope", {"b": b, "t": t})


def smalltime_smile(params: ModelParams, k: float, b: float,
                    grid: Optional[TimeGrid] = None) -> SmileResult:
    """Small-time limit of t^b times implied variance at the rescaled
    log-strike t^{1/2-H-b} k; the vol explodes at rate t^{-b} for b > 0."""
    if k == 0.0:
        raise DomainError("small-time smile needs k != 0")
    rate = smalltime_rate(params, k, b, grid=grid)
    if rate.value == 0.0:
        return SmileResult(math.inf, rate, "smalltime", {"b": b, "k": k})
    lim = k * k / (2.0 * rate.value)
    return SmileResult(lim, rate, "smalltime", {"b": b, "k": k, "explosion_exponent": b})


def forward_smile(params: ModelParams, sigma0: float, t: float, k: float,
                  support_radius: float = 4.0,
                  grid: Optional[TimeGrid] = None) -> SmileResult:
    """Small-maturity forward smile started from the running volatility at
    time t, whose Gaussian law is truncated to mean +- support_radius stdev
    (the limit theorem needs compact support; at the default radius the
    discarded mass is below 1e-4)."""
    if t <= 0:
        raise DomainError("t must be positive")
    if support_radius <= 0:
        raise DomainError("support_radius must be positive")
    law = InitialLaw(kind=LawKind.FORWARD_STEIN_STEIN, sigma0=sigma0, t=t).resolve(params)
    sd = math.sqrt(law.var)
    support = (law.mean - support_radius * sd, law.mean + support_radius * sd)
    rate = rate_with_random_start(params, k, support, grid=grid)
    if rate.value == 0.0:
        return SmileResult(math.inf, rate, "forward", {"t": t, "k": k, "support": support})
    return SmileResult(k * k / (2.0 * rate.value), rate, "forward",
                       {"t": t, "k": k, "support": support, "mean": law.mean, "stdev": sd})


# ---------------------------------------------------------------------------
# Black-Scholes inversion and MC smiles
# ---------------------------------------------------------------------------

def bs_call_price(forward: float, strike: float, maturity: float, vol: float) -> float:
    """Undiscounted Black-Scholes call on the forward."""
    if vol <= 0 or maturity <= 0:
        return max(forward - strike, 0.0)
    st = vol * math.sqrt(maturity)
    d1 = (math.log(forward / strike) + 0.5 * st * st) / st
    return forward * ndtr(d1) - strike * ndtr(d1 - st)


def bs_implied_vol(price: float, forward: float, strike: float, maturity: float) -> float:
    """Invert the Black-Scholes call price in volatility; tolerance 1e-10.

    A price at intrinsic value gives 0.0, except out of the money (strike >
    forward): there every vol small enough for the price to underflow gives
    exactly 0, so a zero price identifies no vol and raises DomainError.
    """
    if forward <= 0 or strike <= 0 or maturity <= 0:
        raise DomainError("forward, strike and maturity must be positive")
    intrinsic = max(forward - strike, 0.0)
    if price < intrinsic - 1e-14 or price >= forward:
        raise DomainError(
            f"price {price} outside no-arbitrage bounds [{intrinsic}, {forward})"
        )
    if price <= intrinsic:
        if strike > forward:
            raise DomainError(f"price {price} of an out-of-the-money call identifies no vol")
        return 0.0
    # imported here, so that importing fracldp does not load scipy.optimize
    from scipy.optimize import brentq

    f = lambda v: bs_call_price(forward, strike, maturity, v) - price
    hi = 1.0
    while f(hi) < 0 and hi < 1e6:
        hi *= 2.0
    return float(brentq(f, 1e-12, hi, xtol=1e-10))


@dataclass
class SmilePoint:
    k: float
    implied_vol: float
    std_err: float
    price: float
    censored: bool = False


def mc_smile(params: ModelParams, law: InitialLaw, t: float, strikes, n_paths: int,
             seed, b: Optional[float] = None, n_grid: int = 48,
             n_boot: Optional[int] = None, method: str = "raw") -> list:
    """Monte Carlo implied vols at maturity t for the given log-strikes.

    The maturity is reached by simulating the small-time rescaled system at
    eps = sqrt(t) on the unit horizon and undoing the rescaling of the
    terminal log-price. method "raw" prices the terminal payoff against the
    forward mean(S_t); method "conditional" (rho = 0 only) averages the exact
    Gaussian conditional price given the vol path, per unit forward. It takes
    the first panel's vol from Y at t_1 where the raw Euler step uses Y at 0,
    so the two estimands differ in that panel. At rho != 0 the conditional
    price given the vol's drivers is the Romano-Touzi mixture
    E[BS(e^{rho M - rho^2 V / 2}, rho_bar^2 V)] with M = int s(Y) dB, which
    `simulate`'s (paths, n) arrays do not carry; it needs per-block sinks
    like `tail_ladder`'s.

    Error bars are by the delta method on the per-path values v (payoff or
    conditional price): std(v - N(d1) S_t) / (sqrt(n_paths) vega) with
    vega = F phi(d1) sqrt(t) at the inverted vol and ddof = 0; the
    conditional forward is exactly 1, so it has no S_t term. `n_boot` is
    ignored, with a DeprecationWarning.
    """
    if n_boot is not None:
        warnings.warn("mc_smile's n_boot is ignored: error bars are by the delta method",
                      DeprecationWarning, stacklevel=2)
    if not 0.0 < t <= 1.0:
        raise DomainError("t must lie in (0, 1]")
    if method not in ("raw", "conditional"):
        raise DomainError(f"unknown pricing method {method}")
    if method == "conditional" and params.rho != 0.0:
        raise DomainError("conditional pricing requires rho = 0")
    strikes = list(strikes)
    b = params.vol.b if b is None else b
    H = params.hurst.H
    eps = math.sqrt(t)
    scheme = RescalingScheme(SchemeKind.SMALL_TIME, b=b)
    grid = TimeGrid.uniform(n_grid)
    xb, yb = simulate(params, law, scheme, eps, grid, n_paths, seed)
    if method == "conditional":
        # integrated variance of the unrescaled log-price over [0, t]: the
        # rescaled noise coefficient is eps^{2H+b} s(Y) and the terminal
        # rescaling multiplies it by t^{1/2-H-b}. Left-endpoint vol per panel,
        # matching the Euler convention of the raw estimator (first panel
        # approximated by its right node).
        ylag = np.concatenate([yb.values[:, :1], yb.values[:, :-1]], axis=1)
        svol = params.vol.scaled(ylag, eps, b)
        scale2 = (t ** (0.5 - H - b) * eps ** (2.0 * H + b)) ** 2
        V = scale2 * np.sum(svol * svol * grid.w[None, :], axis=1)
        V = np.maximum(V, 1e-300)
        sv = np.sqrt(V)
        s_t = None
    else:
        # X_t = t^{1/2 - H - b} X^eps_1
        s_t = np.exp(t ** (0.5 - H - b) * xb.values[:, -1])
    fwd = 1.0 if s_t is None else float(np.mean(s_t))
    out = []
    for k in strikes:
        strike = math.exp(k)
        if s_t is None:
            d1_path = (-k + 0.5 * V) / sv
            per_path = ndtr(d1_path) - strike * ndtr(d1_path - sv)
        else:
            per_path = np.maximum(s_t - strike, 0.0)
        price = float(np.mean(per_path))
        if price <= max(fwd - strike, 0.0) or price >= fwd:
            out.append(SmilePoint(k=k, implied_vol=0.0, std_err=math.nan, price=price, censored=True))
            continue
        vol = bs_implied_vol(price, fwd, strike, t)
        # d vol = (d price - N(d1) d fwd) / vega
        st = vol * math.sqrt(t)
        d1 = (math.log(fwd / strike) + 0.5 * st * st) / st
        vega = fwd * math.exp(-0.5 * d1 * d1) * math.sqrt(t / (2.0 * math.pi))
        resid = per_path if s_t is None else per_path - ndtr(d1) * s_t
        se = float(np.std(resid)) / (math.sqrt(n_paths) * vega)
        out.append(SmilePoint(k=k, implied_vol=vol, std_err=se, price=price))
    return out
