import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import betaincc

from fracldp import (
    DomainError,
    HurstParams,
    KernelKind,
    KernelSpec,
    TimeGrid,
    apply_operator,
    eval_kernel,
    eval_kernel_batch,
    gram_matrix,
    kappa,
    l2_energy,
    operator_matrix,
)
from fracldp.kernels import _tanh_sinh_rule

# high-precision Gamma-function oracle values (30-digit arithmetic)
KAPPA_03 = 0.73028293407992297
KAPPA_07 = 1.0918091308839126

# fBm Volterra kernel, independent 30-digit quadrature oracle
K_ORACLE = {
    (0.3, 0.7, 0.3): 0.92236514575040769,
    (0.3, 1.0, 0.5): 0.87301411433866805,
    (0.3, 0.9, 0.85): 1.3333776463452023,
    (0.7, 0.7, 0.3): 0.94152004452323581,
    (0.7, 1.0, 0.5): 0.97714049739361676,
    (0.7, 0.9, 0.85): 0.60087037976654309,
}

# fOU kernel at beta = -1.2, xi = 1; oracle quadrature with the endpoint
# singularity removed by substitution before integrating (40 digits)
F_ORACLE = {
    (0.3, 0.7, 0.3): 0.50409919379070291,
    (0.3, 1.0, 0.5): 0.40507691775705194,
    (0.7, 0.7, 0.3): 0.64010837505206983,
    (0.7, 1.0, 0.5): 0.60396291240291042,
}

# fOU kernel at beta = -1.2, xi = 1 just above H = 1/2, where the endpoint
# power (u-s)^{H-3/2} is close to non-integrable. 30-digit values of
# F(t,s) = K(t,s) + beta int_s^t K(u,s) e^{beta(t-u)} du with K the closed-form
# Molchan-Golosov kernel, made with mpmath 1.3.0 by:
#   mp.mp.dps = 30
#   kap = lambda H: mp.sqrt(2*H*mp.gamma(mp.mpf(3)/2 - H)
#                           / (mp.gamma(H + mp.mpf(1)/2) * mp.gamma(2 - 2*H)))
#   K = lambda H, t, s: kap(H) * (t-s)**(H-0.5) * mp.hyp2f1(H-0.5, 0.5-H, H+0.5, 1 - t/s)
#   F = lambda H, b, t, s: K(H, t, s) + b * mp.quad(lambda u: K(H, u, s) * mp.exp(b*(t-u)), [s, t])
#   F(mp.mpf("0.55"), mp.mpf("-1.2"), mp.mpf("0.7"), mp.mpf("0.3"))
# The kernels.py representation, integrated by mpmath after substituting the
# singularity away, agrees with these to 1e-30.
F_ORACLE_ABOVE_HALF = {
    (0.55, 0.7, 0.3): 0.63528410859237374842,
    (0.55, 1.0, 0.5): 0.57371211055360025289,
    (0.6, 0.7, 0.3): 0.64521417423826047656,
    (0.6, 1.0, 0.5): 0.59216601140906325371,
}


class TestKappa:
    def test_half_is_one(self):
        assert kappa(0.5) == pytest.approx(1.0, abs=1e-14)

    def test_oracle_values(self):
        assert kappa(0.3) == pytest.approx(KAPPA_03, abs=1e-10)
        assert kappa(0.7) == pytest.approx(KAPPA_07, abs=1e-10)

    def test_positive_on_range(self):
        for H in np.linspace(0.05, 0.95, 19):
            assert kappa(float(H)) > 0

    def test_domain(self):
        for H in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                kappa(H)


class TestHurstParams:
    def test_fields(self):
        h = HurstParams(0.3)
        assert h.h_minus == pytest.approx(-0.2, abs=1e-15)
        assert h.h_plus == pytest.approx(0.8, abs=1e-15)
        assert h.kappa_h == pytest.approx(KAPPA_03, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            HurstParams(1.5)


class TestEvalKernelClosedForms:
    """At H = 1/2 every kernel has an elementary closed form."""

    def test_k_fbm(self):
        spec = KernelSpec(KernelKind.K_FBM, HurstParams(0.5))
        assert abs(eval_kernel(spec, 0.7, 0.3) - 1.0) <= 1e-12

    def test_f_fou(self):
        spec = KernelSpec(KernelKind.F_FOU, HurstParams(0.5), beta=-2.0, xi=1.5)
        assert abs(eval_kernel(spec, 0.7, 0.3) - 1.5 * math.exp(-0.8)) <= 1e-12

    def test_f_fou_worked(self):
        # xi e^{beta (t - s)} with xi = 2, beta = -1, t - s = 0.25
        spec = KernelSpec(KernelKind.F_FOU, HurstParams(0.5), beta=-1.0, xi=2.0)
        assert abs(eval_kernel(spec, 0.75, 0.5) - 2.0 * math.exp(-0.25)) <= 1e-12

    def test_g_zero(self):
        spec = KernelSpec(KernelKind.G_ZERO, HurstParams(0.5), xi=1.5)
        assert abs(eval_kernel(spec, 0.7, 0.3) - 1.5) <= 1e-12

    def test_identity(self):
        spec = KernelSpec(KernelKind.IDENTITY, HurstParams(0.5))
        assert eval_kernel(spec, 0.7, 0.3) == 1.0


class TestEvalKernelOracle:
    @pytest.mark.parametrize("key", sorted(K_ORACLE))
    def test_k_fbm(self, key):
        H, t, s = key
        spec = KernelSpec(KernelKind.K_FBM, HurstParams(H))
        assert eval_kernel(spec, t, s) == pytest.approx(K_ORACLE[key], abs=1e-10)

    @pytest.mark.parametrize("key", sorted(F_ORACLE))
    def test_f_fou(self, key):
        H, t, s = key
        spec = KernelSpec(KernelKind.F_FOU, HurstParams(H), beta=-1.2, xi=1.0)
        assert eval_kernel(spec, t, s) == pytest.approx(F_ORACLE[key], rel=1e-8)

    @pytest.mark.parametrize("key", sorted(F_ORACLE_ABOVE_HALF))
    def test_f_fou_just_above_half(self, key):
        H, t, s = key
        spec = KernelSpec(KernelKind.F_FOU, HurstParams(H), beta=-1.2, xi=1.0)
        ref = F_ORACLE_ABOVE_HALF[key]
        assert eval_kernel(spec, t, s) == pytest.approx(ref, rel=1e-12)
        assert eval_kernel_batch(spec, t, s) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("key", sorted(K_ORACLE))
    def test_k_fbm_batch_closed_form(self, key):
        H, t, s = key
        spec = KernelSpec(KernelKind.K_FBM, HurstParams(H))
        assert eval_kernel_batch(spec, t, s) == pytest.approx(K_ORACLE[key], rel=1e-13)

    def test_g_zero_is_scaled_k(self):
        for H in (0.3, 0.7):
            kf = KernelSpec(KernelKind.K_FBM, HurstParams(H))
            gz = KernelSpec(KernelKind.G_ZERO, HurstParams(H), xi=2.5)
            for t, s in [(0.7, 0.3), (1.0, 0.5)]:
                assert eval_kernel(gz, t, s) == pytest.approx(
                    2.5 * eval_kernel(kf, t, s), rel=1e-12)

    def test_g_eps_zero_coincides_with_g_zero(self):
        h = HurstParams(0.3)
        ge = KernelSpec(KernelKind.G_EPS, h, beta=-1.0, xi=1.5, eps=0.0)
        gz = KernelSpec(KernelKind.G_ZERO, h, xi=1.5)
        for t, s in [(0.7, 0.3), (0.9, 0.85)]:
            assert eval_kernel(ge, t, s) == pytest.approx(eval_kernel(gz, t, s), rel=1e-12)

    def test_g_eps_effective_beta(self):
        h = HurstParams(0.7)
        ge = KernelSpec(KernelKind.G_EPS, h, beta=-2.0, xi=1.0, eps=0.5)
        f = KernelSpec(KernelKind.F_FOU, h, beta=-0.5, xi=1.0)
        assert eval_kernel(ge, 0.8, 0.3) == pytest.approx(eval_kernel(f, 0.8, 0.3), rel=1e-10)

    def test_beta_to_zero_reduction(self):
        # subset of the acceptance sweep
        for H in (0.3, 0.7):
            f = KernelSpec(KernelKind.F_FOU, HurstParams(H), beta=-1e-6, xi=1.3)
            k = KernelSpec(KernelKind.K_FBM, HurstParams(H))
            for t, s in [(0.7, 0.3), (1.0, 0.5)]:
                ref = 1.3 * eval_kernel(k, t, s)
                assert abs(eval_kernel(f, t, s) - ref) / ref <= 1e-4

    def test_domain_errors(self):
        spec = KernelSpec(KernelKind.K_FBM, HurstParams(0.3))
        for t, s in [(0.5, 0.0), (0.5, -0.1), (0.3, 0.5), (0.5, 0.5)]:
            with pytest.raises(DomainError):
                eval_kernel(spec, t, s)

    def test_batch_matches_scalar(self):
        spec = KernelSpec(KernelKind.K_FBM, HurstParams(0.3))
        ts = np.array([0.7, 1.0])
        ss = np.array([0.3, 0.5])
        batch = eval_kernel_batch(spec, ts, ss)
        for i in range(2):
            assert batch[i] == pytest.approx(eval_kernel(spec, ts[i], ss[i]), rel=1e-9)


class TestMolchanGolosovClosedForm:
    @pytest.mark.parametrize("H", [0.05, 0.1, 0.3, 0.45])
    def test_matches_incomplete_beta_form(self, H):
        """For H < 1/2 the Volterra representation integrates to
        K(t,s) = kappa [(t(t-s)/s)^{hm} - hm s^{hm} B(1-2H, H+1/2) (1 - I_{s/t}(1-2H, H+1/2))],
        an evaluation independent of the hypergeometric one."""
        hm = H - 0.5
        rng = np.random.default_rng(7)
        t = rng.uniform(0.01, 1.0, 500)
        s = t * rng.uniform(1e-6, 1.0 - 1e-6, 500)
        ref = kappa(H) * ((t * (t - s) / s) ** hm
                          - hm * s ** hm * beta_fn(1 - 2 * H, H + 0.5) * betaincc(1 - 2 * H, H + 0.5, s / t))
        got = eval_kernel_batch(KernelSpec(KernelKind.K_FBM, HurstParams(H)), t, s)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(4)
        assert np.allclose(g.t, [0.25, 0.5, 0.75, 1.0])
        assert np.allclose(g.w, 0.25)
        assert g.n == 4

    def test_invariants(self):
        with pytest.raises(DomainError):
            TimeGrid(nodes=(0.0, 0.5), weights=(0.25, 0.25))
        with pytest.raises(DomainError):
            TimeGrid(nodes=(0.5, 0.25), weights=(0.25, 0.25))
        with pytest.raises(DomainError):
            TimeGrid(nodes=(0.5, 1.0), weights=(0.5, -0.5))
        with pytest.raises(DomainError):
            TimeGrid(nodes=(0.5, 1.0), weights=(0.1, 0.1))  # wrong total measure

    def test_weights_cover_from_zero(self):
        g = TimeGrid.uniform(7)
        assert abs(sum(g.weights) - g.t[-1]) <= 1e-12


class TestOperatorsAndEnergy:
    def test_l2_energy_unit(self):
        g = TimeGrid.uniform(64)
        ones = np.ones(64)
        zeros = np.zeros(64)
        assert l2_energy(ones, zeros, g) == pytest.approx(0.5, abs=1e-12)
        assert l2_energy(ones, ones, g) == pytest.approx(1.0, abs=1e-12)
        assert l2_energy(zeros, zeros, g) == 0.0

    def test_identity_operator_cumulative(self):
        g = TimeGrid.uniform(32)
        spec = KernelSpec(KernelKind.IDENTITY, HurstParams(0.5))
        out = apply_operator(spec, np.ones(32), g)
        assert np.allclose(out, g.t, atol=1e-12)

    def test_f_operator_h_half(self):
        # int_0^t e^{beta(t-s)} ds = (1 - e^{beta t}) / (-beta) for f == 1
        beta = -1.5
        g = TimeGrid.uniform(400)
        spec = KernelSpec(KernelKind.F_FOU, HurstParams(0.5), beta=beta, xi=1.0)
        out = apply_operator(spec, np.ones(400), g)
        ref = (1.0 - np.exp(beta * g.t)) / (-beta)
        assert np.max(np.abs(out - ref)) <= 2e-3  # midpoint-rule accuracy

    def test_operator_matrix_shape(self):
        g = TimeGrid.uniform(8)
        A = operator_matrix(KernelSpec(KernelKind.K_FBM, HurstParams(0.3)), g)
        assert A.shape == (8, 8)
        assert np.allclose(A, np.tril(A))


def _operator_matrix_all_tanh_sinh(spec, grid):
    """Reference: every panel integrated with the tanh-sinh rule that
    operator_matrix keeps for the two panels at the kernel's singularities."""
    t = grid.t
    n = grid.n
    edges = np.concatenate([[0.0], t])
    A = np.zeros((n, n))
    q, _, jac = _tanh_sinh_rule(0.06, 64)
    for i in range(n):
        ti = t[i]
        lo = edges[: i + 1]
        span = (edges[1 : i + 2] - lo)[:, None]
        s_nodes = np.clip(lo[:, None] + span * q[None, :], 1e-300, ti * (1.0 - 1e-15))
        vals = eval_kernel_batch(spec, np.full_like(s_nodes, ti), s_nodes)
        A[i, : i + 1] = np.sum(span * jac[None, :] * vals, axis=1)
    return A


class TestOperatorMatrixPanelRule:
    """operator_matrix (Gauss-Legendre on the interior panels) against the
    all-tanh-sinh reference. Interior panels with fewer Gauss-Legendre points
    miss this bound: 7e-11 relative with 6 points and 5e-14 with 8 (K_fbm,
    H = 0.1, n = 16); 10 or more points give at most 6e-16."""

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("H", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("kind, beta, eps", [
        (KernelKind.K_FBM, 0.0, 0.0),
        (KernelKind.F_FOU, -1.0, 0.0),
        (KernelKind.F_FOU, -3.0, 0.0),
        (KernelKind.G_EPS, -1.0, 0.5),
    ])
    def test_matches_all_tanh_sinh(self, kind, beta, eps, H, n):
        spec = KernelSpec(kind, HurstParams(H), beta=beta, xi=1.5, eps=eps)
        g = TimeGrid.uniform(n)
        ref = _operator_matrix_all_tanh_sinh(spec, g)
        A = operator_matrix(spec, g)
        assert np.max(np.abs(A - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestGramMatrix:
    def test_ou_closed_form(self):
        # Cov(Y_t, Y_s) = xi^2 e^{beta(t+s)} (e^{-2 beta m} - 1)/(-2 beta), m = min
        beta, xi = -1.3, 1.7
        g = TimeGrid.uniform(6)
        spec = KernelSpec(KernelKind.F_FOU, HurstParams(0.5), beta=beta, xi=xi)
        G = gram_matrix(spec, g)
        t = g.t
        m = np.minimum(t[:, None], t[None, :])
        ref = xi**2 * np.exp(beta * (t[:, None] + t[None, :])) * (
            np.expm1(-2.0 * beta * m) / (-2.0 * beta))
        assert np.max(np.abs(G - ref)) <= 1e-10

    def test_fbm_gram(self):
        from fracldp import fbm_covariance_matrix

        g = TimeGrid.uniform(6)
        for H in (0.3, 0.7):
            spec = KernelSpec(KernelKind.K_FBM, HurstParams(H))
            G = gram_matrix(spec, g)
            ref = fbm_covariance_matrix(H, g)
            assert np.max(np.abs(G - ref)) <= 1e-6

    @pytest.mark.parametrize("H", [0.1, 0.3, 0.7])
    def test_zero_beta_is_closed_form(self, H):
        from fracldp import fbm_covariance_matrix

        g = TimeGrid.uniform(12)
        ref = 2.25 * fbm_covariance_matrix(H, g)
        for spec in (KernelSpec(KernelKind.G_ZERO, HurstParams(H), xi=1.5),
                     KernelSpec(KernelKind.G_EPS, HurstParams(H), beta=-1.0, xi=1.5, eps=0.0)):
            np.testing.assert_allclose(gram_matrix(spec, g), ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("H, tol", [(0.1, 1e-3), (0.3, 1e-8), (0.7, 1e-8)])
    def test_quadrature_gram_near_zero_beta(self, H, tol):
        """The beta != 0 quadrature at beta = -1e-9 against the closed form.
        beta itself moves the covariance by ~1e-9 relative; at H = 0.1 the
        quadrature error of ~5e-4 dominates (the rough regime)."""
        from fracldp import fbm_covariance_matrix

        g = TimeGrid.uniform(16)
        G = gram_matrix(KernelSpec(KernelKind.F_FOU, HurstParams(H), beta=-1e-9), g)
        ref = fbm_covariance_matrix(H, g)
        assert np.max(np.abs(G - ref)) <= tol * np.max(np.abs(ref))

    def test_symmetric_psd(self):
        spec = KernelSpec(KernelKind.F_FOU, HurstParams(0.3), beta=-1.0, xi=1.0)
        G = gram_matrix(spec, TimeGrid.uniform(8))
        assert np.allclose(G, G.T)
        assert np.min(np.linalg.eigvalsh(G)) > -1e-10
