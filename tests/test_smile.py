import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from fracldp import (
    DomainError,
    HurstParams,
    ModelParams,
    TimeGrid,
    affine_abs_vol,
    bs_call_price,
    bs_implied_vol,
    constant_vol,
    forward_smile,
    linear_vol,
    mc_smile,
    point_law,
    smalltime_smile,
    tail_smile_slope,
    uniform_law,
)

GRID24 = TimeGrid.uniform(24)


class TestTailSlope:
    def test_degenerate_four_ninths(self):
        # drift-included rate 9/8 -> slope 1/2 / (9/8) = 4/9
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0,
                             vol=constant_vol(1.0, b=0.75))
        res = tail_smile_slope(params, 0.75, 1.0, grid=GRID24)
        assert res.limit_value == pytest.approx(4.0 / 9.0, rel=1e-6)
        assert res.formula == "tail_slope"

    def test_formula_consistency(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol(b=0.75))
        res = tail_smile_slope(params, 0.75, 1.0, grid=GRID24)
        assert res.limit_value == pytest.approx(0.5 / res.rate_used.value, abs=1e-12)

    def test_law_independent(self):
        # the starting law is not an input: byte-identical across laws
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol(b=0.75))
        a = tail_smile_slope(params, 0.75, 1.0, grid=GRID24)
        b = tail_smile_slope(params, 0.75, 1.0, grid=GRID24)
        assert a.limit_value == b.limit_value

    def test_maturity_domain(self):
        params = ModelParams(vol=linear_vol(b=0.75))
        with pytest.raises(DomainError):
            tail_smile_slope(params, 0.75, 1.5)


class TestSmalltime:
    def test_k_zero_rejected(self):
        params = ModelParams(vol=linear_vol())
        with pytest.raises(DomainError):
            smalltime_smile(params, 0.0, 1.0)

    def test_linear_in_k(self):
        # rate(k) = k rate(1) for linear vol -> limit = k / (2 rate(1))
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol())
        r1 = smalltime_smile(params, 0.5, 1.0, grid=GRID24)
        r2 = smalltime_smile(params, 1.0, 1.0, grid=GRID24)
        assert r2.limit_value == pytest.approx(2.0 * r1.limit_value, rel=5e-3)

    def test_symmetry(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol())
        rp = smalltime_smile(params, 0.7, 1.0, grid=GRID24)
        rm = smalltime_smile(params, -0.7, 1.0, grid=GRID24)
        assert rp.limit_value == pytest.approx(rm.limit_value, rel=1e-4)

    def test_explosion_metadata(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol())
        res = smalltime_smile(params, 0.5, 0.3, grid=GRID24)
        assert res.metadata["explosion_exponent"] == 0.3

    def test_formula_consistency(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol())
        res = smalltime_smile(params, 0.5, 1.0, grid=GRID24)
        assert res.limit_value == pytest.approx(
            0.25 / (2.0 * res.rate_used.value), abs=1e-12)


class TestForward:
    def test_truncation_interval(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol())
        res = forward_smile(params, 0.2, 1.0, 0.5, support_radius=4.0, grid=GRID24)
        assert res.metadata["mean"] == pytest.approx(0.2 * math.exp(-1.0), rel=1e-12)
        assert res.metadata["stdev"] == pytest.approx(
            math.sqrt((1.0 - math.exp(-2.0)) / 2.0), rel=1e-12)

    def test_widening_radius_monotone(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol())
        v1 = forward_smile(params, 0.2, 1.0, 0.5, support_radius=1.0, grid=GRID24)
        v3 = forward_smile(params, 0.2, 1.0, 0.5, support_radius=3.0, grid=GRID24)
        assert v3.limit_value >= v1.limit_value - 1e-9

    def test_domain(self):
        params = ModelParams(vol=linear_vol())
        with pytest.raises(DomainError):
            forward_smile(params, 0.2, 0.0, 0.5)
        with pytest.raises(DomainError):
            forward_smile(params, 0.2, 1.0, 0.5, support_radius=-1.0)


class TestBlackScholes:
    def test_atm_closed_form(self):
        price = bs_call_price(1.0, 1.0, 1.0, 0.2)
        assert price == pytest.approx(2 * norm.cdf(0.1) - 1.0, abs=1e-14)
        assert bs_implied_vol(price, 1.0, 1.0, 1.0) == pytest.approx(0.2, abs=1e-10)

    def test_price_matches_scipy_stats(self):
        # bs_call_price uses scipy.special.ndtr, which norm.cdf calls itself
        for forward, strike, t, vol in [(1.0, 1.0, 1.0, 0.2), (1.0, 0.8, 0.25, 0.5),
                                        (1.3, 1.0, 2.0, 0.05), (1.0, 2.5, 0.1, 1.5)]:
            st = vol * math.sqrt(t)
            d1 = (math.log(forward / strike) + 0.5 * st * st) / st
            ref = forward * norm.cdf(d1) - strike * norm.cdf(d1 - st)
            assert bs_call_price(forward, strike, t, vol) == ref

    def test_roundtrip_random(self):
        # moderate strikes and maturities keep the vega well away from zero
        rng = np.random.default_rng(123)
        for _ in range(20):
            vol = float(rng.uniform(0.1, 1.0))
            strike = float(math.exp(rng.uniform(-0.5, 0.5)))
            t = float(rng.uniform(0.25, 1.0))
            price = bs_call_price(1.0, strike, t, vol)
            assert bs_implied_vol(price, 1.0, strike, t) == pytest.approx(vol, abs=1e-8)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(k=st.floats(-1.0, 1.0), t=st.floats(0.1, 2.0), vol=st.floats(0.05, 2.0))
    def test_roundtrip_property(self, k, t, vol):
        # wherever a 1e-8 move in vol moves the price by more than its
        # rounding, inversion recovers vol to 1e-8. The rounding is a few
        # ulps of the price's two terms, and never less than the smallest
        # normal double: below it ndtr flushes to 0 (k = 0.6, t = 0.1,
        # vol = 0.05 has vega 5.6e-311 but a computed price of exactly 0,
        # from which no vol can be recovered)
        strike = math.exp(k)
        sd = vol * math.sqrt(t)
        d1 = (-k + 0.5 * sd * sd) / sd
        vega = math.sqrt(t) * norm.pdf(d1)
        rounding = 4 * np.finfo(float).eps * (ndtr(d1) + strike * ndtr(d1 - sd))
        assume(vega * 1e-8 > rounding + np.finfo(float).tiny)
        price = bs_call_price(1.0, strike, t, vol)
        assert bs_implied_vol(price, 1.0, strike, t) == pytest.approx(vol, abs=1e-8)

    def test_price_at_intrinsic(self):
        assert bs_implied_vol(0.25, 1.25, 1.0, 1.0) == 0.0

    def test_underflowed_price_is_rejected(self):
        # out of the money, every vol up to about 0.05 prices to exactly 0
        # here, so a zero price has no implied vol rather than 0.0
        strike, t = math.exp(0.6016), 0.1016
        price = bs_call_price(1.0, strike, t, 0.05)
        assert price == 0.0
        with pytest.raises(DomainError):
            bs_implied_vol(price, 1.0, strike, t)

    def test_bounds(self):
        with pytest.raises(DomainError):
            bs_implied_vol(1.0, 1.0, 1.0, 1.0)  # price >= forward
        with pytest.raises(DomainError):
            bs_implied_vol(0.1, 1.2, 1.0, 1.0)  # below intrinsic
        with pytest.raises(DomainError):
            bs_implied_vol(0.1, -1.0, 1.0, 1.0)

    def test_monotone_in_price(self):
        p1 = bs_call_price(1.0, 1.1, 0.5, 0.3)
        p2 = bs_call_price(1.0, 1.1, 0.5, 0.4)
        assert bs_implied_vol(p2, 1.0, 1.1, 0.5) > bs_implied_vol(p1, 1.0, 1.1, 0.5)


class TestMcSmile:
    def test_deterministic_vol_recovers_bs(self):
        # xi = 0, constant vol, b = 0: log-price exactly Gaussian with total
        # variance c^2 t, so the implied vol is c at every strike
        c, t = 0.8, 0.25
        params = ModelParams(lam=0.0, beta=-1.0, xi=0.0, rho=0.0,
                             vol=constant_vol(c, b=0.0))
        pts = mc_smile(params, point_law(0.0), t, [-0.2, 0.0, 0.2], 100000,
                       seed=21, b=0.0, n_grid=32)
        for p in pts:
            assert not p.censored
            assert abs(p.implied_vol - c) <= max(3 * p.std_err, 5e-3)

    def test_numpy_integer_seed_gives_the_same_error_bars(self):
        # the simulation's stream is keyed on the seed's value, whatever its
        # type, and the error bars are a function of its draws
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol(b=0.5))
        args = (params, point_law(0.2), 0.25, [0.0, 0.1], 5000)
        ref = mc_smile(*args, seed=7, n_grid=16)
        got = mc_smile(*args, seed=np.int64(7), n_grid=16)
        assert [(p.implied_vol, p.std_err) for p in got] == [(p.implied_vol, p.std_err) for p in ref]

    def test_n_boot_is_ignored_with_a_warning(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol(b=0.5))
        args = (params, point_law(0.2), 0.25, [0.0, 0.1], 5000)
        ref = mc_smile(*args, seed=7, n_grid=16)
        with pytest.warns(DeprecationWarning, match="n_boot"):
            got = mc_smile(*args, seed=7, n_grid=16, n_boot=2)
        assert [(p.implied_vol, p.std_err) for p in got] == [(p.implied_vol, p.std_err) for p in ref]

    @pytest.mark.parametrize("H, rho, law, method", [
        (0.5, -0.5, point_law(0.1), "raw"),
        (0.3, 0.0, uniform_law(0.1, 0.3), "conditional"),
    ])
    def test_std_err_is_honest(self, H, rho, law, method):
        # the delta-method error bar against the spread of the implied vol
        # over 40 seeds; the raw estimator's bar needs its forward term
        params = ModelParams(rho=rho, hurst=HurstParams(H), vol=affine_abs_vol(0.2, 1.0, b=0.0))
        ks = [-0.2, 0.0, 0.2]
        runs = [mc_smile(params, law, 0.25, ks, 20_000, seed=s, method=method)
                for s in range(40)]
        for j in range(len(ks)):
            assert not any(r[j].censored for r in runs)
            spread = np.std([r[j].implied_vol for r in runs], ddof=1)
            assert 0.7 <= spread / np.mean([r[j].std_err for r in runs]) <= 1.4

    def test_strike_order_preserved(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=0.0, rho=0.0,
                             vol=constant_vol(0.5, b=0.5))
        ks = [0.2, -0.1, 0.05]
        pts = mc_smile(params, point_law(0.0), 0.25, ks, 20000, seed=1,
                       b=0.5, n_grid=32)
        assert [p.k for p in pts] == ks

    def test_conditional_matches_raw(self):
        # rho = 0, linear vol: conditional pricing is the same estimand
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0,
                             hurst=HurstParams(0.5), vol=linear_vol(b=0.5))
        law = point_law(0.0)
        t, ks = 0.25, [0.0, 0.1]
        raw = mc_smile(params, law, t, ks, 150000, seed=5, n_grid=32)
        cond = mc_smile(params, law, t, ks, 150000, seed=6, n_grid=32,
                        method="conditional")
        for pr, pc in zip(raw, cond):
            band = 3 * math.hypot(pr.std_err, pc.std_err)
            assert abs(pr.implied_vol - pc.implied_vol) <= band

    def test_conditional_requires_rho_zero(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.5, vol=linear_vol())
        with pytest.raises(DomainError):
            mc_smile(params, point_law(0.0), 0.25, [0.0], 1000, seed=0,
                     method="conditional")

    def test_deep_otm_censored(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=0.0, rho=0.0,
                             vol=constant_vol(0.2, b=0.5))
        pts = mc_smile(params, point_law(0.0), 0.04, [3.0], 5000, seed=2,
                       b=0.5, n_grid=32)
        assert pts[0].censored
        assert pts[0].implied_vol == 0.0
