import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import hyp2f1, logsumexp
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
    @pytest.mark.parametrize("H", [0.1, 0.3, 0.7, 0.9])
    def test_factors_without_jitter(self, monkeypatch, H):
        # a jitter fallback in _stable_cholesky warns, which fails here
        monkeypatch.setattr(model, "_joint_chol_cache", {})
        for rho in (0.0, 0.9, -0.999):
            model._joint_bm_fbm_cholesky(H, TimeGrid.uniform(128).t, rho)

    @staticmethod
    def _factor_error(H, rho, t):
        """max |L L^T - C| / max |C|, with C the oracle for (Wbar, W^H):
        Cov(Wbar, Wbar) = min, Cov(Wbar, W^H) = rho times the cross block."""
        n = t.size
        C = _joint_bm_fbm_covariance(H, t)
        C[:n, n:] *= rho
        C[n:, :n] *= rho
        L = model._joint_bm_fbm_cholesky(H, t, rho)
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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(H=st.floats(0.05, 0.95),
           rho=st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True),
           m=st.integers(1, 24))
    def test_factor_is_exact_property(self, H, rho, m):
        assert self._factor_error(H, rho, TimeGrid.uniform(m).t) <= 1e-13


class TestRoughSimulationLayout:
    """Seed layout and linear map of the H != 1/2 fine-grid simulation."""

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

    def _args(self, n_paths, rho=-0.4):
        params = ModelParams(hurst=HurstParams(0.3), vol=linear_vol(b=0.75), rho=rho)
        return (params, uniform_law(-0.5, 0.5), RescalingScheme(SchemeKind.TAILS, b=0.75), 0.5,
                TimeGrid.uniform(16), n_paths)

    def _check_worker_count(self, monkeypatch, workers, rho):
        # two full blocks and a short one; with 3 workers every block gets a
        # thread, and a short switch interval interleaves them more often
        args = self._args(2 * model._ROW_BLOCK + 37, rho)
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
        (out,) = seen  # one block: the vol at the fine steps' left ends
        sv2 = (eps**b * out) ** 2
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
    """tail_estimate reduces each block of the H != 1/2 simulation to its
    count of X_T >= level."""

    def _args(self, rho, n_paths=2 * model._ROW_BLOCK + 37, H=0.3, n=16):
        params = ModelParams(hurst=HurstParams(H), vol=linear_vol(b=0.75), rho=rho)
        return (params, uniform_law(-0.5, 0.5), RescalingScheme(SchemeKind.TAILS, b=0.75), 0.5,
                TimeGrid.uniform(n), n_paths)

    def test_rho_nonzero_count_equals_simulate(self):
        # rho != 0 draws and computes as simulate does, so the counts agree exactly
        args = self._args(rho=-0.4)
        x1 = simulate(*args, seed=4)[0].values[:, -1]
        for level in np.quantile(x1, [0.1, 0.5, 0.9]):
            est = tail_estimate(*args, seed=4, level=level)
            assert est.p_hat == np.count_nonzero(x1 >= level) / x1.size

    def test_rho_zero_terminal_draw(self):
        # at rho = 0 a block draws Z of shape (rows, 1 + m): X_T = mean +
        # sqrt(var) Z_0 with (mean, var) summed over all m fine steps from the
        # vol the simulation used; the counts at nine levels between its
        # deciles must be exact
        seen = []

        def sigma(y):
            out = 0.3 + np.sin(3.0 * y) ** 2
            seen.append(out)
            return out

        b, eps, rows = 0.75, 0.5, 300
        vol = model.VolFunction(kind="Tabulated", b=b, sigma_fn=sigma, sigma_tilde_fn=sigma)
        params = ModelParams(beta=-1.3, xi=0.8, rho=0.0, hurst=HurstParams(0.3), vol=vol)
        scheme = RescalingScheme(SchemeKind.TAILS, b=b)
        grid = TimeGrid.uniform(16)
        tail_estimate(params, point_law(0.1), scheme, eps, grid, rows, 6, 0.0)
        sv2 = (eps**b * seen[0]) ** 2
        # a Point law draws nothing, so block 0 reads child stream 0 of the seed
        t_fine = np.linspace(0.0, 1.0, model._N_FINE + 1)[1:]
        Z = make_rng(6).spawn(1)[0].standard_normal((rows, 1 + t_fine.size))
        _, _, _, _, drift_coef, xnoise_coef = model._scheme_coefficients(params, scheme, eps)
        dtf = np.diff(t_fine, prepend=0.0)
        x_t = np.sort(drift_coef * sv2 @ dtf + np.sqrt(xnoise_coef**2 * sv2 @ dtf) * Z[:, 0])
        for k in range(1, 10):
            level = 0.5 * (x_t[30 * k - 1] + x_t[30 * k])
            est = tail_estimate(params, point_law(0.1), scheme, eps, grid, rows, 6, level)
            assert est.p_hat == (rows - 30 * k) / rows

    @pytest.mark.parametrize("H", [0.1, 0.3, 0.7])
    def test_rho_zero_law_matches_simulate(self, H):
        # the same law of X_T as simulate's, from a different random layout
        n, level = 100_000, 0.3
        params = ModelParams(beta=-1.0, xi=1.0, rho=0.0, hurst=HurstParams(H),
                             vol=linear_vol(b=0.75))
        args = (params, point_law(0.2), RescalingScheme(SchemeKind.TAILS, b=0.75), 0.5,
                TimeGrid.uniform(16), n)
        est = tail_estimate(*args, seed=31, level=level)
        ref = tail_probability(simulate(*args, seed=32)[0], level, 1.0)
        assert 0.01 < ref.p_hat < 0.99
        assert abs(est.p_hat - ref.p_hat) <= 5.0 * math.sqrt(est.std_err**2 + ref.std_err**2)

    @pytest.mark.parametrize("rho", [0.0, -0.4])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_does_not_change_estimate(self, monkeypatch, workers, rho):
        # two full blocks and a short one, as in the worker-count test of simulate
        args = self._args(rho)
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
        assert got.p_hat == ref.p_hat

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

    def test_h_half_matches_chunked_simulate(self, monkeypatch):
        # H = 1/2 runs simulate on consecutive chunks drawn from one generator
        monkeypatch.setattr(model, "_H_HALF_CHUNK", 4)
        args = self._args(rho=-0.4, n_paths=7, H=0.5)
        rng = make_rng(5)
        x1 = np.concatenate([simulate(*args[:5], c, rng)[0].values[:, -1] for c in (4, 3)])
        level = float(np.median(x1))
        est = tail_estimate(*args, seed=5, level=level)
        assert est.p_hat == np.count_nonzero(x1 >= level) / 7


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
        fit = ldp_slope(params, point_law(0.0), scheme, [0.7, 0.6, 0.5, 0.1], 1.0,
                        2000, seed=2)
        assert fit.censored[-1]  # P at eps = 0.1 is ~1e-51, unobservable
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
