import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import hyp2f1, logsumexp, ndtr
from scipy.stats import norm

from fracldp import (
    DomainError,
    HurstParams,
    InitialLaw,
    KernelKind,
    KernelSpec,
    LawKind,
    ModelParams,
    RescalingScheme,
    SchemeKind,
    TimeGrid,
    affine_abs_vol,
    check_scaling_assumption,
    check_theta_assumption,
    constant_vol,
    gaussian_law,
    gram_matrix,
    ldp_slope,
    linear_vol,
    point_law,
    sample_initial,
    simulate,
    tail_estimate,
    tail_ladder,
    tail_probability,
    uniform_law,
)
from fracldp import model
from fracldp.kernels import _tanh_sinh_rule, fbm_covariance, kappa, operator_matrix
from fracldp.paths import _by_parts_matrix, make_rng


class TestVolFunction:
    def test_linear_scaling_exact(self):
        vol = linear_vol(b=0.7)
        y = np.linspace(-3, 3, 11)
        for eps in (0.5, 0.1):
            assert np.allclose(vol.scaled(y, eps, 0.7), vol.sigma_tilde(y), atol=1e-14)

    def test_affine_abs(self):
        vol = affine_abs_vol(0.5, 2.0, b=1.0)
        assert vol.sigma(np.array([-1.5]))[0] == pytest.approx(0.5 + 3.0)
        assert vol.sigma_tilde(np.array([-1.5]))[0] == pytest.approx(3.0)

    def test_constant(self):
        vol = constant_vol(1.3)
        y = np.array([-2.0, 0.0, 5.0])
        assert np.all(vol.sigma(y) == 1.3)
        assert np.all(vol.sigma_tilde(y) == 1.3)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ModelParams(lam=-0.1)
        with pytest.raises(DomainError):
            ModelParams(beta=0.0)
        with pytest.raises(DomainError):
            ModelParams(xi=-1.0)
        with pytest.raises(DomainError):
            ModelParams(rho=1.0)

    def test_xi_zero_allowed(self):
        # deterministic-volatility control case
        ModelParams(xi=0.0)

    def test_rho_bar(self):
        p = ModelParams(rho=0.6)
        assert p.rho_bar == pytest.approx(0.8)


class TestInitialLaw:
    def test_point(self):
        law = point_law(0.3)
        assert law.support() == (0.3, 0.3)
        assert np.all(law.sample(5, np.random.default_rng(0)) == 0.3)
        assert law.log_tail(0.2) == 0.0
        assert law.log_tail(0.4) == -math.inf

    def test_uniform(self):
        law = uniform_law(0.0, 0.2)
        x = law.sample(1000, np.random.default_rng(0))
        assert np.all((x >= 0.0) & (x <= 0.2))
        assert law.log_tail(0.1) == pytest.approx(math.log(0.5))
        assert law.log_tail(0.25) == -math.inf
        with pytest.raises(DomainError):
            uniform_law(0.2, 0.1)

    def test_gaussian_tail(self):
        law = gaussian_law(0.0, 4.0)
        # P(|N(0,4)| > 3) = 2 Phi_bar(1.5)
        assert law.log_tail(3.0) == pytest.approx(math.log(2 * norm.sf(1.5)), rel=1e-12)

    def test_gaussian_tails_match_scipy_stats(self):
        # the scipy.stats.norm expressions that log_tail computes with
        # scipy.special, which scipy.stats calls itself: equal to the bit
        law = gaussian_law(0.3, 2.0)
        sd = math.sqrt(law.var)
        for x in (0.1, 1.0, 3.0, 12.0):
            ref = float(logsumexp([norm.logsf((x - law.mean) / sd),
                                   norm.logsf((x + law.mean) / sd)]))
            assert law.log_tail(x) == ref
        law = InitialLaw(kind=LawKind.TRUNC_GAUSSIAN, mean=0.2, var=1.5, radius=2.5)
        sd = math.sqrt(law.var)
        lo, hi = law.support()
        for x in (0.1, 0.5, 1.5, 3.0):
            z = norm.cdf(law.radius) - norm.cdf(-law.radius)
            hi_mass = max(0.0, norm.cdf((hi - law.mean) / sd) - norm.cdf((max(x, lo) - law.mean) / sd))
            lo_mass = max(0.0, norm.cdf((min(-x, hi) - law.mean) / sd) - norm.cdf((lo - law.mean) / sd))
            assert law.log_tail(x) == math.log((hi_mass + lo_mass) / z)

    def test_trunc_gaussian_bounded(self):
        law = InitialLaw(kind=LawKind.TRUNC_GAUSSIAN, mean=0.0, var=1.0, radius=2.0)
        x = law.sample(2000, np.random.default_rng(1))
        assert np.all(np.abs(x) <= 2.0)
        assert law.log_tail(2.5) == -math.inf

    def test_forward_stein_stein_resolve(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0)
        law = InitialLaw(kind=LawKind.FORWARD_STEIN_STEIN, sigma0=0.2, t=1.0)
        res = law.resolve(params)
        assert res.kind is LawKind.GAUSSIAN
        assert res.mean == pytest.approx(0.2 * math.exp(-1.0), rel=1e-12)
        assert res.var == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-12)
        with pytest.raises(DomainError):
            law.resolve(None)

    def test_sample_initial_deterministic(self):
        law = uniform_law(0.0, 1.0)
        a = sample_initial(law, 10, seed=3)
        b = sample_initial(law, 10, seed=3)
        assert np.array_equal(a, b)


class TestRescalingScheme:
    def test_speeds(self):
        H = 0.3
        assert RescalingScheme(SchemeKind.TAILS, b=0.75).speed(0.5, H) == pytest.approx(0.5**1.5)
        assert RescalingScheme(SchemeKind.SMALL_TIME, b=0.2).speed(0.5, H) == pytest.approx(0.5**1.6)
        assert RescalingScheme(SchemeKind.DIFFUSIVE_SMALL_TIME).speed(0.5, H) == pytest.approx(0.25)


class TestAssumptionAudits:
    def test_scaling_linear_exact(self):
        rep = check_scaling_assumption(linear_vol(b=0.5), [0.5, 0.25, 0.1],
                                       np.linspace(-5, 5, 21))
        assert rep.verdict == "PASS"
        assert max(rep.deviations) == 0.0

    def test_scaling_affine_abs_fails_tight_tol(self):
        # the c0 offset decays like eps^b but is not below 1e-6 on this ladder
        rep = check_scaling_assumption(affine_abs_vol(1.0, 1.0, b=0.5), [0.5, 0.25],
                                       np.linspace(-5, 5, 21))
        assert rep.verdict == "FAIL"

    def test_theta_bounded_diverges(self):
        scheme = RescalingScheme(SchemeKind.TAILS, b=1.0)
        for law in (point_law(0.1), uniform_law(0.0, 0.2),
                    InitialLaw(kind=LawKind.TRUNC_GAUSSIAN, mean=0.0, var=1.0, radius=2.0)):
            rep = check_theta_assumption(law, scheme, [0.5, 0.25, 0.1])
            assert rep.verdict == "DIVERGES_TO_MINUS_INFINITY"
            assert rep.values[-1] == -math.inf

    def test_theta_gaussian_stalls(self):
        v = 2.0
        scheme = RescalingScheme(SchemeKind.TAILS, b=1.0)
        rep = check_theta_assumption(gaussian_law(0.0, v), scheme,
                                     [0.1, 0.03, 0.01])
        assert rep.verdict == "STALLS"
        # h_eps log P(eps^b |Theta| > 1) -> -1/(2 var)
        assert rep.values[-1] == pytest.approx(-1.0 / (2.0 * v), rel=1e-2)


class TestSimulate:
    def test_coarse_grid_rejected(self):
        params = ModelParams()
        with pytest.raises(DomainError):
            simulate(params, point_law(0.0), RescalingScheme(SchemeKind.TAILS, b=1.0),
                     0.5, TimeGrid.uniform(8), 10, seed=0)
        simulate(params, point_law(0.0), RescalingScheme(SchemeKind.TAILS, b=1.0),
                 0.5, TimeGrid.uniform(8), 10, seed=0, allow_coarse=True)

    def test_deterministic_seed(self):
        params = ModelParams(hurst=HurstParams(0.3), vol=linear_vol(b=1.0))
        scheme = RescalingScheme(SchemeKind.SMALL_TIME, b=1.0)
        g = TimeGrid.uniform(16)
        xa, ya = simulate(params, point_law(0.1), scheme, 0.5, g, 20, seed=9)
        xb, yb = simulate(params, point_law(0.1), scheme, 0.5, g, 20, seed=9)
        assert np.array_equal(xa.values, xb.values)
        assert np.array_equal(ya.values, yb.values)

    @pytest.mark.parametrize("H", [0.3, 0.5])
    def test_numpy_integer_seed_is_recorded(self, H):
        # a numpy integer seeds the same draws as the Python int and is
        # recorded as itself, not as 0
        params = ModelParams(hurst=HurstParams(H), vol=linear_vol(b=0.75))
        args = (params, point_law(0.1), RescalingScheme(SchemeKind.TAILS, b=0.75))
        grid = TimeGrid.uniform(16)
        for seed in (np.int64(7), np.uint32(7)):
            xb, yb = simulate(*args, 0.5, grid, 20, seed)
            assert (xb.seed, yb.seed) == (7, 7)
            assert np.array_equal(xb.values, simulate(*args, 0.5, grid, 20, 7)[0].values)
            est = tail_estimate(*args, 0.5, grid, 50, seed, 0.0)
            assert est.seed == 7 and type(est.seed) is int
            ests, _ = tail_ladder(*args, [0.7, 0.5], grid, 50, seed, 0.0)
            assert [e.seed for e in ests] == [7, 7]

    @staticmethod
    def _check_gaussian_control(hurst):
        # constant vol c, rho = 0: X^eps_1 ~ N(-c^2/2, eps^{2b} c^2) exactly
        c, b, eps = 1.2, 0.75, 0.5
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, hurst=hurst,
                             vol=constant_vol(c, b=b))
        scheme = RescalingScheme(SchemeKind.TAILS, b=b)
        n = 200000
        xb, _ = simulate(params, point_law(0.0), scheme, eps, TimeGrid.uniform(16),
                         n, seed=11)
        x1 = xb.values[:, -1]
        mean, sd = -0.5 * c * c, eps**b * c
        assert np.mean(x1) == pytest.approx(mean, abs=4 * sd / math.sqrt(n))
        assert np.std(x1) == pytest.approx(sd, rel=0.02)
        # tail probability against the Gaussian closed form
        level = 0.5
        est = tail_probability(xb, level, 1.0)
        p_ref = norm.sf((level - mean) / sd)
        assert abs(est.p_hat - p_ref) <= 3 * est.std_err + 1e-12

    def test_gaussian_control_case(self):
        self._check_gaussian_control(HurstParams(0.5))

    def test_gaussian_control_case_rough(self):
        # through the rho = 0 panel draws of the fine-grid simulation
        self._check_gaussian_control(HurstParams(0.3))

    def test_y_law_exact_h_half(self):
        # Y^eps is exact in law: empirical covariance matches the kernel Gram
        b, eps = 1.0, 0.6
        params = ModelParams(lam=0.0, beta=-1.5, xi=1.0, rho=0.0, vol=linear_vol(b=b))
        scheme = RescalingScheme(SchemeKind.TAILS, b=b)
        g = TimeGrid.uniform(16)
        n = 40000
        _, yb = simulate(params, point_law(0.0), scheme, eps, g, n, seed=12)
        spec = KernelSpec(KernelKind.F_FOU, HurstParams(0.5), beta=-1.5, xi=1.0)
        ref = gram_matrix(spec, g)  # noise enters at scale eps^b
        scale = eps ** (2 * b)
        emp = yb.empirical_covariance()
        band = 5.0 * scale * np.sqrt((np.diag(ref)[:, None] * np.diag(ref)[None, :]
                                      + ref**2) / n)
        assert np.all(np.abs(emp - scale * ref) <= band + 1e-12)

    @pytest.mark.parametrize("H", [0.1, 0.3, 0.7])
    def test_y_law_exact_rough(self, H):
        # same check through the joint Volterra construction
        b, eps = 0.2, 0.5
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0,
                             hurst=HurstParams(H), vol=linear_vol(b=b))
        scheme = RescalingScheme(SchemeKind.SMALL_TIME, b=b)
        g = TimeGrid.uniform(16)
        n = 30000
        _, yb = simulate(params, point_law(0.0), scheme, eps, g, n, seed=13)
        spec = KernelSpec(KernelKind.G_EPS, HurstParams(H), beta=-1.0, xi=1.0, eps=eps)
        ref = gram_matrix(spec, g)
        scale = eps ** (2 * (2 * H + b))  # SmallTime Y noise is eps^{2H+b} xi
        emp = yb.empirical_covariance()
        band = 5.0 * scale * np.sqrt((np.diag(ref)[:, None] * np.diag(ref)[None, :]
                                      + ref**2) / n) + 2e-4 * scale
        assert np.all(np.abs(emp - scale * ref) <= band)


    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    def test_x_y_covariance_follows_rho(self, H):
        # constant vol c: X_1 = const + eps^b c Wbar_1 and Y_1 = const +
        # eps^b xi Z^fOU_1, so Cov(X_1, Y_1) = eps^{2b} c xi Cov(Wbar_1, Z^fOU_1)
        c, b, eps, beta, rho = 1.2, 0.75, 0.5, -1.0, -0.7
        params = ModelParams(lam=0.0, beta=beta, xi=1.0, rho=rho,
                             hurst=HurstParams(H), vol=constant_vol(c, b=b))
        n = 20000
        xb, yb = simulate(params, point_law(0.0), RescalingScheme(SchemeKind.TAILS, b=b),
                          eps, TimeGrid.uniform(16), n, seed=14)
        if H == 0.5:
            # Cov(Wbar_1, int_0^1 e^{beta(1-u)} dB_u) = rho (1 - e^beta) / (-beta)
            cov_drivers = rho * (1.0 - math.exp(beta)) / -beta
        else:
            # Z^fOU = F W^H on the simulation's fine grid, Cov(Wbar, W^H) = rho cross
            t_fine = TimeGrid.uniform(128).t
            cross = _joint_bm_fbm_covariance(H, t_fine)[:128, 128:]
            cov_drivers = rho * _by_parts_matrix(t_fine, beta)[-1] @ cross[-1]
        ref = eps ** (2 * b) * c * cov_drivers
        emp = np.cov(xb.values[:, -1], yb.values[:, -1])
        se = math.sqrt((emp[0, 0] * emp[1, 1] + emp[0, 1] ** 2) / n)
        assert abs(emp[0, 1] - ref) <= 5.0 * se

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(H=st.floats(0.05, 0.95), rho=st.floats(-0.9, 0.9),
           eps=st.lists(st.floats(0.1, 1.0), min_size=2, max_size=2))
    def test_tails_scaling_identity(self, H, rho, eps):
        # under Tails every term of Y^eps is eps^b times an eps-free path of
        # the same draws, so Y(eps1) = (eps1 / eps2)^b Y(eps2): what lets a
        # Tails ladder share one fOU GEMM across its points
        b = 0.75
        params = ModelParams(lam=0.3, beta=-1.2, xi=0.8, rho=rho, hurst=HurstParams(H),
                             vol=linear_vol(b=b))
        args = (params, uniform_law(-0.5, 0.5), RescalingScheme(SchemeKind.TAILS, b=b))
        y1, y2 = (simulate(*args, e, TimeGrid.uniform(16), 40, seed=3, n_fine=32)[1].values
                  for e in eps)
        ref = (eps[0] / eps[1]) ** b * y2
        assert np.max(np.abs(y1 - ref)) <= 1e-12 * np.max(np.abs(y1))


def _stepwise_by_parts(WH, t_fine, beta_eff):
    """Z^fOU from W^H step by step: the cumulative trapezoid of the fOU
    integral by parts. This is the construction `_by_parts_matrix` folds
    into one matrix, kept as an oracle."""
    dtf = np.diff(np.concatenate([[0.0], t_fine]))
    g = WH * np.exp(-beta_eff * t_fine)
    half_t0 = 0.5 * t_fine[0]
    cum = np.concatenate(
        [half_t0 * g[:, :1],
         half_t0 * g[:, :1] + np.cumsum(0.5 * (g[:, 1:] + g[:, :-1]) * dtf[1:], axis=1)],
        axis=1,
    )
    return WH + beta_eff * np.exp(beta_eff * t_fine) * cum


def _joint_bm_fbm_covariance(H, t):
    """Covariance of (B_{t_1..t_n}, W^H_{t_1..t_n}) where B is the
    Volterra-generating Brownian motion of W^H: the oracle for the factor
    of (Wbar, W^H) that the simulation draws from."""
    n = t.size
    C = np.empty((2 * n, 2 * n))
    C[:n, :n] = np.minimum.outer(t, t)
    C[n:, n:] = fbm_covariance(H, t[:, None], t[None, :])
    # Cov(B_ti, W^H_tj) = int_0^min(ti,tj) K^H(tj, u) du = sum over the panels
    # k <= min(i, j) of the K^H operator matrix A[j, k]
    grid = TimeGrid(nodes=tuple(t), weights=tuple(np.diff(np.concatenate([[0.0], t]))))
    A = np.cumsum(operator_matrix(KernelSpec(KernelKind.K_FBM, HurstParams(H)), grid), axis=1)
    idx = np.arange(n)
    cross = A[idx[None, :], np.minimum.outer(idx, idx)]
    C[:n, n:] = cross
    C[n:, :n] = cross.T
    return C


def _joint_bm_ou_covariance(beta, t):
    """Covariance of (B_{t_1..t_n}, Z_{t_1..t_n}) with Z_t the OU integral
    int_0^t e^{beta(t-u)} dB_u, in closed form: with s = min(t_i, t_j),
    Cov(B_ti, Z_tj) = e^{beta(t_j - s)} expm1(beta s) / beta and
    Cov(Z_ti, Z_tj) = e^{beta |t_i - t_j|} expm1(2 beta s) / (2 beta), each
    s at beta = 0. The oracle for the H = 1/2 factor of (Wbar, Z)."""
    n = t.size
    s = np.minimum.outer(t, t)

    def integral(rate):  # int_0^s e^{rate (s - u)} du
        return np.expm1(rate * s) / rate if rate else s

    C = np.empty((2 * n, 2 * n))
    C[:n, :n] = s
    C[:n, n:] = np.exp(beta * (t[None, :] - s)) * integral(beta)
    C[n:, :n] = C[:n, n:].T
    C[n:, n:] = np.exp(beta * np.abs(t[:, None] - t[None, :])) * integral(2.0 * beta)
    return C


def _cross_block_nested_quadrature(H, t):
    """Cov(B_ti, W^H_tj) = int_0^min(ti,tj) K^H(tj, u) du by a tanh-sinh rule
    on the whole interval: the construction the operator-matrix row-cumsum
    replaced, kept as an oracle. The kernel is evaluated from (tj, w = tj - u)
    as kappa w^hm 2F1(hm, -hm; H+1/2; -w/u), with w = (tj - m) + m (1 - q)
    formed without cancellation, so the (tj - u)^hm endpoint is kept whole."""
    hm = H - 0.5
    q, qc, jac = _tanh_sinh_rule(0.05, 80)
    cross = np.empty((t.size, t.size))
    for i in range(t.size):
        m = np.minimum(t[i], t)[:, None]
        u = m * q
        w = (t[:, None] - m) + m * qc
        kv = kappa(H) * w ** hm * hyp2f1(hm, -hm, H + 0.5, -w / u)
        cross[i, :] = m[:, 0] * np.sum(jac * kv, axis=1)
    return cross


# int_0^1 K^H(1, v) dv, so that Cov(B_t, W^H_t) = c_H t^{H+1/2}; 30-digit
# mpmath quadrature of the closed-form kernel (see test_kernels.py):
#   mp.quad(lambda v: K(H, 1, v), [0, 0.5, 1])
CROSS_DIAG_ORACLE = {
    0.1: 0.78768750249430196853,
    0.3: 0.97580344683686453327,
    0.7: 0.97258296612281297487,
}


class TestJointCovariance:
    """Joint law of (B, W^H) on the fine grid of the H != 1/2 simulation,
    and the factor of (Wbar, W^H) drawn from it. The diagonal panels of the
    K^H operator matrix are exact to roundoff at every H (incomplete-beta
    form, no clipped nodes), so the cross block holds 1e-13 even at H = 0.1,
    where clipping nodes at s <= t(1 - 1e-15) had cost ~4e-10 relative."""

    @pytest.mark.parametrize("H, tol", [(0.1, 1e-13), (0.3, 1e-12), (0.7, 1e-12)])
    def test_cross_block_matches_nested_quadrature(self, H, tol):
        t = TimeGrid.uniform(16).t
        cross = _joint_bm_fbm_covariance(H, t)[:16, 16:]
        assert np.max(np.abs(cross - _cross_block_nested_quadrature(H, t))) <= tol

    @pytest.mark.parametrize("H, tol", [(0.1, 1e-13), (0.3, 1e-12), (0.7, 1e-12)])
    def test_cross_diagonal_homogeneous(self, H, tol):
        t = TimeGrid.uniform(16).t
        cross = _joint_bm_fbm_covariance(H, t)[:16, 16:]
        np.testing.assert_allclose(np.diag(cross) / t ** (H + 0.5), CROSS_DIAG_ORACLE[H],
                                   rtol=tol, atol=0)

    def test_h_half_cross_is_min(self):
        t = TimeGrid.uniform(16).t
        cross = _joint_bm_fbm_covariance(0.5, t)[:16, 16:]
        np.testing.assert_allclose(cross, np.minimum.outer(t, t), rtol=0, atol=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("H", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_factors_without_jitter(self, monkeypatch, H):
        # a jitter fallback in _stable_cholesky warns, which fails here; at
        # H = 1/2 the factor of (Wbar, OU integral) at rates from 0 to -200
        monkeypatch.setattr(model, "_joint_chol_cache", {})
        for beta in (0.0, -1e-8, -1e-3, -1.0, -20.0, -200.0) if H == 0.5 else (0.0,):
            for rho in (0.0, 0.9, -0.999):
                model._joint_bm_fbm_cholesky(H, TimeGrid.uniform(128).t, rho, beta)

    @staticmethod
    def _factor_error(H, rho, t, beta=0.0):
        """max |L L^T - C| / max |C|, with C the oracle for (Wbar, Y):
        Cov(Wbar, Wbar) = min, Cov(Wbar, Y) = rho times the cross block. Y is
        W^H, or at H = 1/2 the OU integral at rate beta."""
        n = t.size
        C = _joint_bm_ou_covariance(beta, t) if H == 0.5 else _joint_bm_fbm_covariance(H, t)
        C[:n, n:] *= rho
        C[n:, :n] *= rho
        L = model._joint_bm_fbm_cholesky(H, t, rho, beta)
        return np.max(np.abs(L @ L.T - C)) / np.max(np.abs(C))

    def test_rho_zero_builds_no_operator_matrix(self, monkeypatch):
        # at rho = 0 the cross block U is exactly 0, so no quadrature is run
        def no_quadrature(*args, **kwargs):
            raise AssertionError("operator_matrix called")

        monkeypatch.setattr(model, "operator_matrix", no_quadrature)
        monkeypatch.setattr(model, "_joint_chol_cache", {})
        t = TimeGrid.uniform(64).t
        L = model._joint_bm_fbm_cholesky(0.3, t, 0.0)
        assert not L[64:, :64].any()
        with pytest.raises(AssertionError, match="operator_matrix called"):
            model._joint_bm_fbm_cholesky(0.3, t, 1e-12)

    @pytest.mark.parametrize("rho", [0.0, -0.5, 0.9])
    @pytest.mark.parametrize("H", [0.1, 0.3, 0.7])
    def test_factor_is_exact(self, H, rho):
        assert self._factor_error(H, rho, TimeGrid.uniform(128).t) <= 1e-13

    @pytest.mark.parametrize("rho", [0.0, -0.5, 0.9])
    @pytest.mark.parametrize("beta", [0.0, -1e-3, -1.5, -20.0])
    def test_h_half_factor_is_exact(self, beta, rho):
        # the factor of (Wbar, OU integral) at each point's beta_eff
        for n in (16, 128):
            assert self._factor_error(0.5, rho, TimeGrid.uniform(n).t, beta) <= 1e-13

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(H=st.floats(0.05, 0.95),
           rho=st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True),
           m=st.integers(1, 24))
    def test_factor_is_exact_property(self, H, rho, m):
        assert self._factor_error(H, rho, TimeGrid.uniform(m).t) <= 1e-13


class TestRoughSimulationLayout:
    """Seed layout and linear map of the block simulation: on the fine grid
    at H != 1/2, on the caller's grid at H = 1/2."""

    @pytest.mark.parametrize("H", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("kind", [SchemeKind.TAILS, SchemeKind.SMALL_TIME])
    def test_linear_map_matches_stepwise(self, H, kind):
        # the Y noise GEMM of _simulate_general and its closed-form Wbar
        # increments, against W^H and Wbar from the factor step by step
        params = ModelParams(beta=-1.3, xi=0.8, rho=-0.5, hurst=HurstParams(H),
                             vol=linear_vol(b=0.75))
        beta_eff, _, _, noise_scale, _, _ = model._scheme_coefficients(
            params, RescalingScheme(kind, b=0.75), 0.5)
        t = TimeGrid.uniform(16).t
        t_fine = np.unique(np.concatenate([np.linspace(0.0, 1.0, 129)[1:], t]))
        m = t_fine.size
        L = model._joint_bm_fbm_cholesky(H, t_fine, params.rho)
        Z = np.random.default_rng(8).standard_normal((300, 2 * m))
        J = Z @ L.T
        got = Z @ (noise_scale * _by_parts_matrix(t_fine, beta_eff) @ L[m:]).T
        ref = noise_scale * _stepwise_by_parts(J[:, m:], t_fine, beta_eff)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        dw = np.diff(J[:, :m], axis=1, prepend=0.0)
        assert np.max(np.abs(np.sqrt(np.diff(t_fine, prepend=0.0)) * Z[:, :m] - dw)) \
            <= 1e-13 * np.max(np.abs(dw))

    def _args(self, n_paths, rho=-0.4, H=0.3):
        params = ModelParams(hurst=HurstParams(H), vol=linear_vol(b=0.75), rho=rho)
        return (params, uniform_law(-0.5, 0.5), RescalingScheme(SchemeKind.TAILS, b=0.75), 0.5,
                TimeGrid.uniform(16), n_paths)

    def _check_worker_count(self, monkeypatch, workers, rho):
        # two full blocks and a short one; with 3 workers every block gets a
        # thread, and a short switch interval interleaves them more often
        for H in (0.3, 0.5):
            args = self._args(2 * model._ROW_BLOCK + 37, rho, H)
            monkeypatch.setattr(model, "_WORKERS", 1)
            x1, y1 = simulate(*args, seed=4)
            monkeypatch.setattr(model, "_WORKERS", workers)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                x2, y2 = simulate(*args, seed=4)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(x1.values, x2.values)
            assert np.array_equal(y1.values, y2.values)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_does_not_change_paths(self, monkeypatch, workers):
        self._check_worker_count(monkeypatch, workers, rho=-0.4)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_does_not_change_paths_rho_zero(self, monkeypatch, workers):
        self._check_worker_count(monkeypatch, workers, rho=0.0)

    def _check_prefix_stable(self, rho):
        R = model._ROW_BLOCK
        x0, y0 = simulate(*self._args(R, rho), seed=4)
        x1, y1 = simulate(*self._args(2 * R + 37, rho), seed=4)
        assert np.array_equal(x0.values, x1.values[:R])
        assert np.array_equal(y0.values, y1.values[:R])
        assert not np.array_equal(x1.values[:R], x1.values[R : 2 * R])

    def test_first_block_is_prefix_stable(self):
        self._check_prefix_stable(rho=-0.4)

    def test_first_block_is_prefix_stable_rho_zero(self):
        self._check_prefix_stable(rho=0.0)

    def test_rho_zero_panel_moments_match_fine_sums(self):
        # at rho = 0, X's increment over coarse panel j is mean_j + sqrt(var_j) Z_j,
        # with (mean | var) from one GEMM; here they are summed over the
        # panel's fine steps one by one, from the vol the simulation used. The
        # graded grid has nodes off the fine lattice, so panels hold unequal steps.
        seen = []

        def sigma(y):
            out = 0.3 + np.sin(3.0 * y) ** 2
            seen.append(out)
            return out

        b, eps, n_fine, rows = 0.75, 0.5, 40, 300
        vol = model.VolFunction(kind="Tabulated", b=b, sigma_fn=sigma, sigma_tilde_fn=sigma)
        params = ModelParams(beta=-1.3, xi=0.8, rho=0.0, hurst=HurstParams(0.3), vol=vol)
        scheme = RescalingScheme(SchemeKind.TAILS, b=b)
        t = (np.arange(1, 17) / 16.0) ** 2
        grid = TimeGrid(nodes=tuple(t), weights=tuple(np.diff(t, prepend=0.0)))
        xb, _ = simulate(params, point_law(0.1), scheme, eps, grid, rows, seed=6, n_fine=n_fine)
        # one block, its tiles' calls in row order: the vol at the fine steps' left ends
        sv2 = (eps**b * np.concatenate(seen)) ** 2
        # a Point law draws nothing, so block 0 reads child stream 0 of the seed
        t_fine = np.unique(np.concatenate([np.linspace(0.0, 1.0, n_fine + 1)[1:], t]))
        Z = make_rng(6).spawn(1)[0].standard_normal((rows, t.size + t_fine.size))
        _, _, _, _, drift_coef, xnoise_coef = model._scheme_coefficients(params, scheme, eps)
        mean = np.zeros((rows, t.size))
        var = np.zeros((rows, t.size))
        left = 0.0
        for k, tk in enumerate(t_fine):
            j = int(np.nonzero(t >= tk)[0][0])
            mean[:, j] += drift_coef * (tk - left) * sv2[:, k]
            var[:, j] += xnoise_coef**2 * (tk - left) * sv2[:, k]
            left = tk
        ref = np.cumsum(mean + np.sqrt(var) * Z[:, : t.size], axis=1)
        assert np.max(np.abs(xb.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("rho", [0.0, -0.4])
    @pytest.mark.parametrize("n_paths", [2 * model._ROW_BLOCK + d for d in (257, 261)]
                             + [model._ROW_BLOCK + 1])
    def test_tile_size_does_not_change_results(self, monkeypatch, rho, n_paths):
        # the tile is not part of the seed layout: one tile per block, small
        # tiles, a non-divisor of the block and the default give the same bits.
        # A last block of 257 or 261 rows leaves a 1- or 5-row remainder after
        # 256- and 32-row tiles, which joins the last tile (BLAS rounds a
        # GEMM of so few rows differently); a block of 1 row is one tile.
        # The 125-node grid has m = 252 fine nodes at H = 0.3, past the
        # m > 244 at which the GEMM route's (mean | var) depends on the tile
        # at rho = 0. H = 1/2 runs on the grid itself (m = 16 and 125), where
        # OpenBLAS rounds GEMMs of up to 75 rows differently (see _TILE), so
        # its small tiles have 128 rows, the fewest the default tile cuts
        law, grid = uniform_law(-0.5, 0.5), TimeGrid.uniform(16)
        tails, small = (RescalingScheme(kind, b=0.75)
                        for kind in (SchemeKind.TAILS, SchemeKind.SMALL_TIME))

        def run(H):
            params = ModelParams(lam=0.2, rho=rho, hurst=HurstParams(H), vol=linear_vol(b=0.75))
            ladders = [tail_ladder(params, law, scheme, [0.7, 0.5], g, n_paths, 9, 0.05)
                       for scheme, g in ((tails, grid), (small, grid),
                                         (tails, TimeGrid.uniform(125)))]
            x, y = simulate(params, law, small, 0.5, grid, n_paths, seed=9)
            return [[(e.p_hat, e.std_err) for e in ests] for ests, _ in ladders], \
                [cov for _, cov in ladders], x.values, y.values

        default = model._TILE
        for H, smallest in ((0.3, 32), (0.5, 128)):
            monkeypatch.setattr(model, "_TILE", model._ROW_BLOCK)
            estimates, covs, x, y = run(H)
            for tile in (default, smallest, 300):
                monkeypatch.setattr(model, "_TILE", tile)
                got = run(H)
                assert got[0] == estimates
                assert all(np.array_equal(a, b) for a, b in zip(got[1], covs))
                assert np.array_equal(got[2], x) and np.array_equal(got[3], y)

    @pytest.mark.parametrize("H", [0.1, 0.3, 0.7])
    def test_rho_zero_law_matches_pathwise_euler(self, H):
        # rho = 1e-12 runs the pathwise Euler branch; its X_1 law differs from
        # rho = 0 by O(1e-12), so mean, variance and a tail probability must
        # agree within 5 combined standard errors
        n, level = 200_000, 0.3
        x1 = {}
        for rho, seed in ((0.0, 21), (1e-12, 22)):
            params = ModelParams(beta=-1.0, xi=1.0, rho=rho, hurst=HurstParams(H),
                                 vol=linear_vol(b=0.75))
            xb, _ = simulate(params, point_law(0.2), RescalingScheme(SchemeKind.TAILS, b=0.75),
                             0.5, TimeGrid.uniform(16), n, seed=seed)
            x1[rho] = xb.values[:, -1]

        def moments(x):
            d = x - x.mean()
            v = np.mean(d * d)
            p = np.mean(x >= level)
            # squared standard errors of the mean, the variance and p
            return (x.mean(), v, p), (v / n, (np.mean(d**4) - v * v) / n, p * (1 - p) / n)

        (a, se_a), (b, se_b) = moments(x1[0.0]), moments(x1[1e-12])
        for u, w, su, sw in zip(a, b, se_a, se_b):
            assert abs(u - w) <= 5.0 * math.sqrt(su + sw)


class TestTailEstimate:
    """tail_estimate reduces each block of the simulation to its count of
    X_T >= level (rho != 0) or to the sums of P(X_T >= level | vol path) and
    of their squared deviations (rho = 0), at every H."""

    def _args(self, rho, n_paths=2 * model._ROW_BLOCK + 37, H=0.3, n=16):
        params = ModelParams(hurst=HurstParams(H), vol=linear_vol(b=0.75), rho=rho)
        return (params, uniform_law(-0.5, 0.5), RescalingScheme(SchemeKind.TAILS, b=0.75), 0.5,
                TimeGrid.uniform(n), n_paths)

    def test_rho_nonzero_count_equals_simulate(self):
        # rho != 0 draws and computes as simulate does, so the counts agree
        # exactly: a Tails estimate counts simulate's X_T at eps = 1 against
        # level eps^{-2b} (X^eps = eps^{2b} X^1 on the same draws), a
        # SmallTime one simulate's X_T at its own eps against the level. At
        # H = 1/2 each SmallTime eps has its own beta_eff, so its own factor
        for H in (0.3, 0.5):
            params, law, scheme, eps, grid, n_paths = self._args(rho=-0.4, H=H)
            x1 = simulate(params, law, scheme, 1.0, grid, n_paths, seed=4)[0].values[:, -1]
            for level in np.quantile(eps ** (2 * scheme.b) * x1, [0.1, 0.5, 0.9]):
                est = tail_estimate(params, law, scheme, eps, grid, n_paths, seed=4, level=level)
                assert est.p_hat == \
                    np.count_nonzero(x1 >= level * eps ** (-2.0 * scheme.b)) / n_paths
            small = RescalingScheme(SchemeKind.SMALL_TIME, b=0.75)
            x = simulate(params, law, small, eps, grid, n_paths, seed=4)[0].values[:, -1]
            for level in np.quantile(x, [0.1, 0.5, 0.9]):
                est = tail_estimate(params, law, small, eps, grid, n_paths, seed=4, level=level)
                assert est.p_hat == np.count_nonzero(x >= level) / n_paths

    def test_rho_zero_terminal_draw(self):
        # at rho = 0 a block draws Z of shape (rows, m), the W^H normals only.
        # Y is rebuilt from them, then each path's X_T ~ N(mean, var) with
        # (mean, var) summed over all m fine steps, and p_hat is the mean of
        # ndtr((mean - level) / sqrt(var)); at nine levels it must agree to 1e-14
        def sigma(y):
            return 0.3 + np.sin(3.0 * y) ** 2

        b, eps, rows, y0 = 0.75, 0.5, 300, 0.1
        vol = model.VolFunction(kind="Tabulated", b=b, sigma_fn=sigma, sigma_tilde_fn=sigma)
        params = ModelParams(beta=-1.3, xi=0.8, rho=0.0, hurst=HurstParams(0.3), vol=vol)
        scheme = RescalingScheme(SchemeKind.TAILS, b=b)
        grid = TimeGrid.uniform(16)
        beta_eff, start_scale, _, noise_scale, drift_coef, xnoise_coef = \
            model._scheme_coefficients(params, scheme, eps)
        t_fine = np.linspace(0.0, 1.0, model._N_FINE + 1)[1:]
        m = t_fine.size
        # a Point law draws nothing, so block 0 reads child stream 0 of the seed
        Z = make_rng(6).spawn(1)[0].standard_normal((rows, m))
        LW = model._joint_bm_fbm_cholesky(0.3, t_fine, 0.0)[m:, m:]
        noise = Z @ (noise_scale * _by_parts_matrix(t_fine, beta_eff) @ LW).T
        # Y at t = 0 and at the fine nodes but the last: the vol at each step's left end
        y_left = start_scale * y0 * np.exp(beta_eff * np.concatenate([[0.0], t_fine[:-1]]))
        y_left = y_left + np.hstack([np.zeros((rows, 1)), noise[:, :-1]])
        sv2 = (eps**b * sigma(y_left / eps**b)) ** 2
        dtf = np.diff(t_fine, prepend=0.0)
        mean, var = drift_coef * sv2 @ dtf, xnoise_coef**2 * sv2 @ dtf
        for level in np.quantile(mean + np.sqrt(var), np.linspace(0.1, 0.9, 9)):
            est = tail_estimate(params, point_law(y0), scheme, eps, grid, rows, 6, level)
            ref = np.mean(ndtr((mean - level) / np.sqrt(var)))
            assert abs(est.p_hat - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("H", [0.1, 0.3, 0.5, 0.7])
    def test_rho_zero_law_matches_simulate(self, H):
        # the conditional estimator against crude hits on simulate's X_T, which
        # has the same law. A level near the median X_T makes an O(dt) slip in
        # simulate's Euler step show: at H = 1/2, whose 16 steps are the grid's,
        # a right-endpoint vol moves simulate's p_hat by about 10 SE
        n, level = 100_000, -0.1
        params = ModelParams(beta=-1.0, xi=1.0, rho=0.0, hurst=HurstParams(H),
                             vol=linear_vol(b=0.75))
        args = (params, point_law(1.0), RescalingScheme(SchemeKind.TAILS, b=0.75), 0.5,
                TimeGrid.uniform(16), n)
        est = tail_estimate(*args, seed=31, level=level)
        ref = tail_probability(simulate(*args, seed=32)[0], level, 1.0)
        assert 0.01 < ref.p_hat < 0.99
        assert abs(est.p_hat - ref.p_hat) <= 5.0 * math.sqrt(est.std_err**2 + ref.std_err**2)

    @pytest.mark.parametrize("rho", [0.0, -0.4])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_does_not_change_estimate(self, monkeypatch, workers, rho):
        # two full blocks and a short one, as in the worker-count test of simulate
        for H in (0.3, 0.5):
            args = self._args(rho, H=H)
            monkeypatch.setattr(model, "_WORKERS", 1)
            ref = tail_estimate(*args, seed=4, level=-0.05)
            monkeypatch.setattr(model, "_WORKERS", workers)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                got = tail_estimate(*args, seed=4, level=-0.05)
            finally:
                sys.setswitchinterval(interval)
            assert 0.05 < ref.p_hat < 0.95
            assert (got.p_hat, got.std_err) == (ref.p_hat, ref.std_err)
            assert type(got.p_hat) is float and type(got.std_err) is float

    def test_memory_is_per_block(self, monkeypatch):
        # (n_paths x n) arrays of X and Y would take 2 * 100k * 32 * 8 B = 51 MB;
        # two workers hold one 2048-row block each (about 6 MB apiece) and Theta
        monkeypatch.setattr(model, "_WORKERS", 2)
        args = self._args(rho=0.0, n_paths=100_000, n=32)
        tracemalloc.start()
        try:
            tail_estimate(*args, seed=3, level=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 17e6

    def test_h_half_memory_is_per_path(self, monkeypatch):
        # H = 1/2 runs the same block engine: the (n_paths x n) X and Y of
        # 200k paths at n = 32 would take 102 MB, where two workers' blocks,
        # Theta and the running X_T stay well under 15 MB
        monkeypatch.setattr(model, "_WORKERS", 2)
        for rho, n_paths in ((0.0, 100_000), (-0.4, 200_000)):
            args = self._args(rho=rho, n_paths=n_paths, H=0.5, n=32)
            tracemalloc.start()
            try:
                tail_estimate(*args, seed=3, level=0.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 15e6

    def test_gaussian_control_is_exact(self):
        # constant vol c at rho = 0: every path has X_T ~ N(-c^2 / 2, eps^{2b} c^2),
        # so p_hat is the closed form and its standard error is 0
        c, b, eps, level = 1.2, 0.75, 0.5, 0.3
        params = ModelParams(rho=0.0, hurst=HurstParams(0.3), vol=constant_vol(c, b=b))
        est = tail_estimate(params, point_law(0.0), RescalingScheme(SchemeKind.TAILS, b=b),
                            eps, TimeGrid.uniform(16), 2 * model._ROW_BLOCK + 37, 11, level)
        ref = norm.sf((level + 0.5 * c * c) / (eps**b * c))
        assert est.p_hat == pytest.approx(ref, rel=1e-12, abs=0)
        assert 0.0 <= est.std_err <= 1e-15

    def test_zero_variance_paths_give_the_indicator(self):
        # a vol that is 0 on paths with Theta <= 0 and 1 (so eps^b after
        # rescaling) on the others: there X_T = 0 exactly, with var = 0, and
        # q = 1{0 >= level}; elsewhere X_T ~ N(-eps^{2b} / 2, eps^{4b})
        def sigma(y):
            return np.where(y[:, :1] > 0.0, 1.0, 0.0) + 0.0 * y

        b, eps, n = 0.75, 0.5, 2 * model._ROW_BLOCK + 37
        vol = model.VolFunction(kind="Tabulated", b=b, sigma_fn=sigma, sigma_tilde_fn=sigma)
        params = ModelParams(rho=0.0, hurst=HurstParams(0.3), vol=vol)
        law = uniform_law(-0.5, 0.5)
        # Theta is the seed's first draws
        pos = np.count_nonzero(make_rng(8).uniform(-0.5, 0.5, n) > 0.0) / n
        mean, sd = -0.5 * eps ** (2 * b), eps ** (2 * b)
        for level in (-1e-3, 0.0, 1e-3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = tail_estimate(params, law, RescalingScheme(SchemeKind.TAILS, b=b), eps,
                                    TimeGrid.uniform(16), n, 8, level)
            ref = pos * norm.sf((level - mean) / sd) + (1.0 - pos) * (level <= 0.0)
            assert est.p_hat == pytest.approx(ref, rel=1e-12, abs=0)

    def test_std_err_is_honest(self):
        # the reported SE against the spread of p_hat over 40 seeds, at the
        # smallest eps of the configs/simulate_tails.json ladder, with H = 0.3
        # and its own H = 1/2
        for H in (0.3, 0.5):
            params = ModelParams(rho=0.0, hurst=HurstParams(H), vol=linear_vol(b=0.75))
            args = (params, point_law(0.1), RescalingScheme(SchemeKind.TAILS, b=0.75), 0.4,
                    TimeGrid.uniform(32), 10_000)
            ests = [tail_estimate(*args, seed=s, level=0.5) for s in range(40)]
            spread = np.std([e.p_hat for e in ests], ddof=1)
            assert 0.6 <= spread / np.mean([e.std_err for e in ests]) <= 1.5


class TestTailLadder:
    """tail_ladder runs an eps ladder in one pass over the blocks of the
    simulation, every point on the same Theta and normals."""

    EPS = (0.7, 0.6, 0.5, 0.4)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data(), rho=st.sampled_from([0.0, -0.4]),
           H=st.sampled_from([0.1, 0.3, 0.5, 0.7]),
           kind=st.sampled_from([SchemeKind.TAILS, SchemeKind.SMALL_TIME]),
           n_paths=st.sampled_from([model._ROW_BLOCK + d
                                    for d in (-1, 0, 1, 8 * model._ROW_BLOCK + 5)]),
           workers=st.sampled_from([1, 2, 3]))
    def test_points_equal_one_point_estimates(self, data, rho, H, kind, n_paths, workers):
        # any subset of the ladder, in any order, at any worker count: each
        # point is the one-point tail_estimate at the same seed, bit for bit
        ladder = data.draw(st.permutations(self.EPS).flatmap(
            lambda p: st.integers(1, len(p)).map(lambda k: list(p[:k]))))
        params = ModelParams(lam=0.2, rho=rho, hurst=HurstParams(H), vol=linear_vol(b=0.75))
        args = (params, uniform_law(-0.5, 0.5), RescalingScheme(kind, b=0.75))
        grid, level = TimeGrid.uniform(16), -0.05
        saved = model._WORKERS
        try:
            model._WORKERS = workers
            ests, cov = tail_ladder(*args, ladder, grid, n_paths, 9, level)
            model._WORKERS = 1
            refs = [tail_estimate(*args, eps, grid, n_paths, 9, level) for eps in ladder]
        finally:
            model._WORKERS = saved
        assert [(e.p_hat, e.std_err) for e in ests] == [(r.p_hat, r.std_err) for r in refs]
        assert np.allclose(np.diag(cov), [e.std_err**2 for e in ests], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rho", [0.0, -0.4])
    @pytest.mark.parametrize("vol", [
        linear_vol(b=0.75),
        affine_abs_vol(0.2, 1.0, b=0.75),
        model.VolFunction(kind="Tabulated", b=0.75, sigma_fn=lambda y: 0.3 + np.sin(3.0 * y) ** 2,
                          sigma_tilde_fn=lambda y: np.sin(3.0 * y) ** 2),
    ], ids=["Linear", "AffineAbs", "Tabulated"])
    def test_unit_scale_ladder_matches_each_point(self, vol, rho):
        # a Tails ladder is one pass at eps = 1 read at the levels
        # level eps^{-2b}; each point must match the estimate from
        # _simulate_general run at its own eps
        params = ModelParams(lam=0.2, rho=rho, hurst=HurstParams(0.3), vol=vol)
        law, scheme = uniform_law(-0.5, 0.5), RescalingScheme(SchemeKind.TAILS, b=0.75)
        grid, n_paths, seed, level = TimeGrid.uniform(16), model._ROW_BLOCK + 37, 9, 0.05
        ests, _ = tail_ladder(params, law, scheme, self.EPS, grid, n_paths, seed, level)
        for eps, est in zip(self.EPS, ests):
            rng, theta, points = model._prepare(params, law, scheme, [eps], grid, n_paths, seed,
                                                False)
            out = []
            model._simulate_general(params, grid, n_paths, rng, theta, points, model._N_FINE,
                                    lambda lo, hi, x, _: out.append((lo, x[0].copy())),
                                    terminal=True)
            x = np.concatenate([x for _, x in sorted(out, key=lambda o: o[0])])
            q = (x >= level).astype(float) if rho else ndtr((x[:, 0] - level) / np.sqrt(x[:, 1]))
            p = q.mean()
            se = math.sqrt(np.sum((q - p) ** 2)) / n_paths
            assert 0.01 < p < 0.99
            assert abs(est.p_hat - p) <= 1e-12 * p
            assert abs(est.std_err - se) <= 1e-12 * se

    @pytest.mark.parametrize("H", [0.1, 0.3, 0.5, 0.7])
    @pytest.mark.parametrize("kind", [SchemeKind.TAILS, SchemeKind.SMALL_TIME])
    @pytest.mark.parametrize("law", [point_law(0.3), uniform_law(-0.5, 0.5)],
                             ids=["Point", "Uniform"])
    def test_linear_vol_v_is_the_gemm_form_path_by_path(self, H, kind, law):
        # rho = 0, Linear vol: the (mean | var) of X_T are drift_coef V and
        # xnoise_coef^2 V. V = sum_k dtf_k y_k^2 with y the left-endpoint vol
        # y = theta y_start + y_lam + noise_scale B z, B = [0; MT[:, :m-1]^T].
        # With G = diag(sqrt(dtf)) B = U diag(s) W^T, the route reads its
        # draws Z as W^T z: its V at Z must be the GEMM form's V at z = W Z.
        # MT is the by-parts map of the W^H factor on the fine grid, and at
        # H = 1/2 the OU factor at beta_eff on the grid itself
        params = ModelParams(lam=0.2, rho=0.0, hurst=HurstParams(H), vol=linear_vol(b=0.75))
        scheme = RescalingScheme(kind, b=0.75)
        grid, rows, seed, eps = TimeGrid.uniform(16), 300, 6, 0.6
        rng, theta, points = model._prepare(params, law, scheme, [eps], grid, rows, seed, False)
        out = []
        model._simulate_general(params, grid, rows, rng, theta, points, model._N_FINE,
                                lambda lo, hi, x, _: out.append(x[0].copy()), terminal=True)
        (moments,) = out
        beta_eff, start_scale, lam_term, noise_scale, drift_coef, xnoise_coef = \
            model._scheme_coefficients(params, scheme, eps)
        # a one-block run draws Theta, then Z from child stream 0
        rng = make_rng(seed)
        law.sample(rows, rng)
        t_fine = grid.t if H == 0.5 else np.linspace(0.0, 1.0, model._N_FINE + 1)[1:]
        m = t_fine.size
        Z = rng.spawn(1)[0].standard_normal((rows, m))
        dtf = np.diff(t_fine, prepend=0.0)
        if H == 0.5:
            MT = model._joint_bm_fbm_cholesky(H, t_fine, 0.0, beta_eff)[m:, m:].T
        else:
            LW = model._joint_bm_fbm_cholesky(H, t_fine, 0.0)[m:, m:]
            MT = (_by_parts_matrix(t_fine, beta_eff) @ LW).T
        G = np.zeros((m, m))
        G[1:] = MT[:, :-1].T
        G *= np.sqrt(dtf)[:, None]
        U, s, Wt = np.linalg.svd(G)
        ebt = np.exp(beta_eff * np.concatenate([[0.0], t_fine[:-1]]))
        y_start, y_lam = start_scale * ebt, lam_term * (1.0 - ebt)
        z = Z @ Wt  # W^T z = Z, row by row
        y = theta[:, None] * y_start + y_lam
        y[:, 1:] += noise_scale * (z @ MT)[:, :-1]
        ref = (y * y) @ dtf
        # the same V in the SVD basis
        alpha = theta[:, None] * (U.T @ (np.sqrt(dtf) * y_start)) + U.T @ (np.sqrt(dtf) * y_lam)
        assert np.allclose(np.sum((alpha + noise_scale * s * Z) ** 2, axis=1), ref,
                           rtol=1e-12, atol=0)
        assert np.max(np.abs(moments[:, 1] / xnoise_coef**2 - ref) / ref) <= 1e-12
        assert np.max(np.abs(moments[:, 0] / drift_coef - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("kind", [SchemeKind.TAILS, SchemeKind.SMALL_TIME])
    def test_linear_vol_ladder_has_the_gemm_law(self, monkeypatch, kind):
        # a Tabulated identity vol has the Linear vol's law but takes the
        # GEMM route: each p_hat within 4 combined SE, on independent seeds.
        # 16 fine steps make an O(1 / m) slip, such as a right-endpoint vol,
        # show: it moves these p_hats by 11 to 14 SE. H = 1/2 steps on the
        # 16-node grid itself, with a lower level for its smaller SmallTime noise
        monkeypatch.setattr(model, "_N_FINE", 16)
        ident = model.VolFunction(kind="Tabulated", b=0.75, sigma_fn=lambda y: y,
                                  sigma_tilde_fn=lambda y: y)
        scheme = RescalingScheme(kind, b=0.75)
        for H, level in ((0.3, 0.3), (0.5, 0.2)):
            ladders = []
            for vol, seed in ((linear_vol(b=0.75), 12), (ident, 13)):
                params = ModelParams(lam=0.3, rho=0.0, hurst=HurstParams(H), vol=vol)
                ladders.append(tail_ladder(params, uniform_law(0.2, 0.6), scheme, [0.7, 0.5],
                                           TimeGrid.uniform(16), 100_000, seed, level)[0])
            for lin, gemm in zip(*ladders):
                assert 0.01 < gemm.p_hat < 0.99
                assert abs(lin.p_hat - gemm.p_hat) <= 4.0 * math.hypot(lin.std_err, gemm.std_err)

    @pytest.mark.parametrize("rho", [0.0, -0.4])
    def test_eps_zero_point_is_deterministic(self, rho):
        # X^0 = 0 on every path, so its q is 1{0 >= level}: the unit-scale
        # ladder reads it against an infinite level
        params = ModelParams(rho=rho, hurst=HurstParams(0.3), vol=linear_vol(b=0.75))
        args = (params, uniform_law(-0.5, 0.5), RescalingScheme(SchemeKind.TAILS, b=0.75))
        for level, p in ((-0.05, 1.0), (0.0, 1.0), (0.05, 0.0)):
            ests, _ = tail_ladder(*args, [0.0, 0.5], TimeGrid.uniform(16), 100, 9, level)
            assert (ests[0].p_hat, ests[0].std_err) == (p, 0.0)
            assert ests[1].p_hat == tail_estimate(*args, 0.5, TimeGrid.uniform(16), 100, 9,
                                                  level).p_hat

    @pytest.mark.parametrize("rho", [0.0, -0.4])
    def test_constant_vol_ladder_runs_per_point(self, rho):
        # a Constant vol does not rescale, so X^eps is not eps^{2b} X^1: the
        # ladder keeps one point per eps, each its one-point estimate
        assert not constant_vol(1.0).homogeneous
        params = ModelParams(xi=0.5, rho=rho, hurst=HurstParams(0.3), vol=constant_vol(0.8, b=0.6))
        args = (params, uniform_law(-0.5, 0.5), RescalingScheme(SchemeKind.TAILS, b=0.6))
        grid, n_paths, level = TimeGrid.uniform(16), model._ROW_BLOCK + 37, 0.1
        ests, _ = tail_ladder(*args, self.EPS, grid, n_paths, 9, level)
        refs = [tail_estimate(*args, eps, grid, n_paths, 9, level) for eps in self.EPS]
        assert [(e.p_hat, e.std_err) for e in ests] == [(r.p_hat, r.std_err) for r in refs]
        # X_T ~ N(-c^2 / 2, eps^{2b} c^2) at rho = 0; the levels did not scale
        if not rho:
            for eps, est in zip(self.EPS, ests):
                ref = norm.sf((level + 0.5 * 0.64) / (eps**0.6 * 0.8))
                assert est.p_hat == pytest.approx(ref, rel=1e-12, abs=0)

    def test_covariance_is_honest(self):
        # the reported p_hat covariance against the spread of the p_hats over
        # 40 seeds, on the configs/simulate_tails.json ladder with H = 0.3
        params = ModelParams(rho=0.0, hurst=HurstParams(0.3), vol=linear_vol(b=0.75))
        args = (params, point_law(0.1), RescalingScheme(SchemeKind.TAILS, b=0.75), self.EPS,
                TimeGrid.uniform(32), 10_000)
        runs = [tail_ladder(*args, seed=s, level=0.5) for s in range(40)]
        emp = np.cov(np.array([[e.p_hat for e in ests] for ests, _ in runs]).T)
        rep = np.mean([cov for _, cov in runs], axis=0)
        ratio = np.diag(emp) / np.diag(rep)
        assert np.all((0.6 <= ratio) & (ratio <= 1.5)), ratio

        def corr(c):
            sd = np.sqrt(np.diag(c))
            return c / np.outer(sd, sd)

        assert np.max(np.abs(corr(emp) - corr(rep))) <= 0.2
        assert np.min(corr(rep)) > 0.5  # the points share their draws

    def test_slope_error_uses_the_covariance(self):
        # the intercept's MC variance is g^T D C D g with the full covariance C
        params = ModelParams(rho=0.0, hurst=HurstParams(0.3), vol=linear_vol(b=0.75))
        scheme = RescalingScheme(SchemeKind.TAILS, b=0.75)
        args = (params, point_law(0.1), scheme, list(self.EPS))
        grid = TimeGrid.uniform(32)
        fit = ldp_slope(*args, 0.5, 10_000, 5, grid=grid)
        ests, C = tail_ladder(*args, grid, 10_000, 5, 0.5)
        A = np.vstack([np.ones(4), self.EPS]).T
        g = np.linalg.solve(A.T @ A, A.T)[0]
        Dg = g * np.array([scheme.speed(e, 0.3) / est.p_hat for e, est in zip(self.EPS, ests)])
        resid = np.array(fit.residuals)
        fit_var = resid @ resid / 2 * np.linalg.inv(A.T @ A)[0, 0]
        assert fit.limit_std_err == pytest.approx(math.sqrt(fit_var + Dg @ C @ Dg), rel=1e-10)

    def test_exact_points_give_a_finite_error_bar(self):
        # constant vol at rho = 0: every q is the closed form, so the ladder's
        # covariance is 0 up to rounding (exactly 0 at eps = 0.4 here, where a
        # correlation would be 0/0) and the intercept's error is the lack of fit
        params = ModelParams(rho=0.0, hurst=HurstParams(0.3), vol=constant_vol(1.0, b=0.6))
        fit = ldp_slope(params, point_law(0.0), RescalingScheme(SchemeKind.TAILS, b=0.6),
                        list(self.EPS), 1.0, 3000, 5)
        assert max(fit.std_errs) <= 1e-15
        resid = np.array(fit.residuals)
        A = np.vstack([np.ones(4), self.EPS]).T
        fit_var = resid @ resid / 2 * np.linalg.inv(A.T @ A)[0, 0]
        assert fit.limit_std_err == pytest.approx(math.sqrt(fit_var), rel=1e-10)

    def test_memory_is_per_block(self, monkeypatch):
        # the bound of the one-point test: per-eps buffers would break it
        monkeypatch.setattr(model, "_WORKERS", 2)
        params = ModelParams(rho=0.0, hurst=HurstParams(0.3), vol=linear_vol(b=0.75))
        tracemalloc.start()
        try:
            tail_ladder(params, uniform_law(-0.5, 0.5), RescalingScheme(SchemeKind.TAILS, b=0.75),
                        self.EPS, TimeGrid.uniform(32), 100_000, 3, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 17e6

    @pytest.mark.parametrize("rho", [0.0, -0.4])
    def test_memory_is_per_tile(self, monkeypatch, rho):
        # two workers hold one tile of at most 383 rows each, Theta (0.8 MB)
        # and a block's (mean | var) or X_T: 4.0 MB at rho = 0 and 5.2 MB at
        # rho = -0.4, where whole 2048-row blocks took 14.3 and 20.5 MB
        monkeypatch.setattr(model, "_WORKERS", 2)
        params = ModelParams(rho=rho, hurst=HurstParams(0.3), vol=linear_vol(b=0.75))
        args = (params, uniform_law(-0.5, 0.5), RescalingScheme(SchemeKind.TAILS, b=0.75),
                self.EPS, TimeGrid.uniform(32))
        tail_ladder(*args, 100, 3, 0.0)  # the joint factor, cached, is not counted
        tracemalloc.start()
        try:
            tail_ladder(*args, 100_000, 3, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestTailProbabilityAndSlope:
    def _xb(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0,
                             vol=constant_vol(1.0, b=1.0))
        scheme = RescalingScheme(SchemeKind.TAILS, b=1.0)
        xb, _ = simulate(params, point_law(0.0), scheme, 0.5, TimeGrid.uniform(16),
                         1000, seed=1)
        return xb

    def test_trivial_levels(self):
        xb = self._xb()
        assert tail_probability(xb, -1e9, 1.0).p_hat == 1.0
        assert tail_probability(xb, 1e9, 1.0).p_hat == 0.0

    def test_ladder_too_short(self):
        params = ModelParams(vol=constant_vol(1.0, b=1.0))
        with pytest.raises(DomainError):
            ldp_slope(params, point_law(0.0), RescalingScheme(SchemeKind.TAILS, b=1.0),
                      [0.5, 0.4], 1.0, 100, seed=0)

    def test_censored_ladder_marked(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0,
                             vol=constant_vol(1.0, b=1.0))
        scheme = RescalingScheme(SchemeKind.TAILS, b=1.0)
        # rho = 0 with a constant vol: each path's q is the closed form
        # P(N(-1/2, eps^2) >= 1), which underflows to exactly 0 at eps = 0.02
        fit = ldp_slope(params, point_law(0.0), scheme, [0.7, 0.6, 0.5, 0.02], 1.0,
                        2000, seed=2)
        assert fit.p_hats[-1] == 0.0
        assert fit.censored[-1]
        assert fit.h_log_p[-1] is None
        assert all(not c for c in fit.censored[:2])

    def test_gaussian_slope_small(self):
        # cheap version of the LDP slope validation
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0,
                             vol=constant_vol(1.0, b=0.6))
        scheme = RescalingScheme(SchemeKind.TAILS, b=0.6)
        fit = ldp_slope(params, point_law(0.0), scheme, [0.7, 0.6, 0.5, 0.4], 1.0,
                        100000, seed=5)
        assert fit.limit == pytest.approx(-9.0 / 8.0, rel=0.10)
