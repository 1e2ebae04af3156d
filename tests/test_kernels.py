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

# Operator-matrix entries A[i, j] at xi = 1 (tests scale them by the
# spec's effective xi), keyed (beta_eff, H, n, i, j) on the uniform n-grid:
# diagonal panels and column 0, where the kernel is singular. 25-digit values
# made with mpmath 1.3.0 by nested quadrature of the kernel: the closed form
# K at beta = 0, and the kernels.py representation otherwise. Each panel is
# split at its midpoint into an s- and a w = t - s integral, so that neither
# s nor t - s is formed by cancellation:
#   mp.mp.dps = 25
#   kap = lambda H: mp.sqrt(2*H*mp.gamma(mp.mpf(3)/2 - H)
#                           / (mp.gamma(H + mp.mpf(1)/2) * mp.gamma(2 - 2*H)))
#   def F(H, b, t, s, w):  # kernel at (t, s), w = t - s
#       hm = H - mp.mpf(1)/2
#       if b == 0:
#           return kap(H) * w**hm * mp.hyp2f1(hm, -hm, H + mp.mpf(1)/2, -w/s)
#       if hm < 0:
#           inner = mp.quad(lambda v: v**hm * (b - hm/(s+v)) * (s+v)**hm * mp.exp(b*(w-v)), [0, w])
#           return kap(H) * s**(-hm) * ((t*w)**hm + inner)
#       # u = s + w z^{1/hm} removes the (u-s)^{hm-1} endpoint; plain mp.quad
#       # of that endpoint is off by ~1e-7
#       inner = w**hm / hm * mp.quad(lambda z: (s + w*z**(1/hm))**hm
#                                    * mp.exp(b*w*(1 - z**(1/hm))), [0, 1])
#       return kap(H) * hm * s**(-hm) * inner
#   def entry(H, b, t, lo, hi):  # int_lo^hi F(t, s) ds
#       mid = (lo + hi) / 2
#       return (mp.quad(lambda s: F(H, b, t, s, t - s), [lo, mid])
#               + mp.quad(lambda w: F(H, b, t, t - w, w), [t - hi, t - mid]))
#   entry(mp.mpf("0.1"), mp.mpf("-1"), mp.mpf(64)/64, mp.mpf(63)/64, mp.mpf(64)/64)
# with t, lo, hi the grid's nodes as exact mpf (k/n, or (k/n)^q on a graded
# grid). A build that clips nodes at s <= t(1 - 1e-15) and integrates
# column 0 with the coarse per-node rule, as _operator_matrix_all_tanh_sinh
# does, is off by up to 5e-9 (diagonal, H = 0.1) and 1.5e-11 (column 0).
OP_ORACLE = {
    (0.0, 0.1, 16, 0, 0): 0.14923887459547675052,
    (0.0, 0.1, 16, 15, 15): 0.11367469112542840023,
    (0.0, 0.1, 16, 15, 0): 0.090978218789955123347,
    (0.0, 0.1, 64, 1, 1): 0.052433605102200592296,
    (0.0, 0.1, 64, 63, 63): 0.049240826862545704916,
    (0.0, 0.1, 64, 1, 0): 0.046027332709587153764,
    (0.0, 0.1, 64, 63, 0): 0.038807568817911888725,
    (0.0, 0.3, 16, 0, 0): 0.10618578003876649303,
    (0.0, 0.3, 16, 15, 15): 0.099477848466707091027,
    (0.0, 0.3, 16, 15, 0): 0.06693259193466416148,
    (0.0, 0.3, 64, 1, 1): 0.033257686887571370531,
    (0.0, 0.3, 64, 63, 63): 0.032780009639056518646,
    (0.0, 0.3, 64, 1, 0): 0.027730028539732662799,
    (0.0, 0.3, 64, 63, 0): 0.02050858700750836237,
    (0.0, 0.7, 16, 0, 0): 0.034912639165106634073,
    (0.0, 0.7, 16, 15, 15): 0.032698812619224984179,
    (0.0, 0.7, 16, 15, 0): 0.092319456628621190213,
    (0.0, 0.7, 64, 1, 1): 0.0062669091277672436782,
    (0.0, 0.7, 64, 63, 63): 0.0061897614961147092065,
    (0.0, 0.7, 64, 1, 0): 0.008929699717901709054,
    (0.0, 0.7, 64, 63, 0): 0.028038009035105134829,
    (-1.0, 0.1, 16, 0, 0): 0.14354696649817631729,
    (-1.0, 0.1, 16, 15, 15): 0.1093495663077846649,
    (-1.0, 0.1, 16, 15, 0): 0.031487918107661995061,
    (-1.0, 0.1, 64, 1, 1): 0.051934749816359134766,
    (-1.0, 0.1, 64, 63, 63): 0.048763123721694350605,
    (-1.0, 0.1, 64, 1, 0): 0.044626037283274591691,
    (-1.0, 0.1, 64, 63, 0): 0.013911604479330607545,
    (-1.0, 0.3, 16, 0, 0): 0.10257973686495617681,
    (-1.0, 0.3, 16, 15, 15): 0.09610128359815059848,
    (-1.0, 0.3, 16, 15, 0): 0.022202667399853832074,
    (-1.0, 0.3, 64, 1, 1): 0.032971838390656663735,
    (-1.0, 0.3, 64, 63, 63): 0.032497077425852237848,
    (-1.0, 0.3, 64, 1, 0): 0.026968783107838495045,
    (-1.0, 0.3, 64, 63, 0): 0.0069863036826247867767,
    (-1.0, 0.7, 16, 0, 0): 0.033939889787985056369,
    (-1.0, 0.7, 16, 15, 15): 0.031788071568122267281,
    (-1.0, 0.7, 16, 15, 0): 0.045624045565875125497,
    (-1.0, 0.7, 64, 1, 1): 0.0062227607363367681238,
    (-1.0, 0.7, 64, 63, 63): 0.0061460178715524211907,
    (-1.0, 0.7, 64, 1, 0): 0.008760079614173382,
    (-1.0, 0.7, 64, 63, 0): 0.013926147766244430307,
    (-3.0, 0.1, 16, 0, 0): 0.13294806670542362211,
    (-3.0, 0.1, 16, 15, 15): 0.10129511290854170811,
    (-3.0, 0.1, 16, 15, 0): 0.00301852998454139877,
    (-3.0, 0.1, 64, 1, 1): 0.050954645081229167489,
    (-3.0, 0.1, 64, 63, 63): 0.047824743895785386927,
    (-3.0, 0.1, 64, 1, 0): 0.041939812330342162428,
    (-3.0, 0.1, 64, 63, 0): 0.0016892684475376891531,
    (-3.0, 0.3, 16, 0, 0): 0.095830289864133012967,
    (-3.0, 0.3, 16, 15, 15): 0.089781249661006723253,
    (-3.0, 0.3, 16, 15, 0): 0.0011845180667878088186,
    (-3.0, 0.3, 64, 1, 1): 0.03240958741165103452,
    (-3.0, 0.3, 64, 63, 63): 0.031940583530428071117,
    (-3.0, 0.3, 64, 1, 0): 0.025505465201144956987,
    (-3.0, 0.3, 64, 63, 0): 0.00058340734371948395142,
    (-3.0, 0.7, 16, 0, 0): 0.032103965440128685391,
    (-3.0, 0.7, 16, 15, 15): 0.030069159745800968285,
    (-3.0, 0.7, 16, 15, 0): 0.015118921228715707793,
    (-3.0, 0.7, 64, 1, 1): 0.006135742135317793398,
    (-3.0, 0.7, 64, 63, 63): 0.0060597994014046235306,
    (-3.0, 0.7, 64, 1, 0): 0.0084318401337844299227,
    (-3.0, 0.7, 64, 63, 0): 0.0047208748730824025793,
    (-0.25, 0.1, 16, 0, 0): 0.14779018430416359728,
    (-0.25, 0.1, 16, 15, 15): 0.11257389266403501865,
    (-0.25, 0.1, 16, 15, 0): 0.069987989351495939473,
    (-0.25, 0.1, 64, 1, 1): 0.052308334553685331941,
    (-0.25, 0.1, 64, 63, 63): 0.049120862632295741863,
    (-0.25, 0.1, 64, 1, 0): 0.045673278440775505045,
    (-0.25, 0.1, 64, 63, 0): 0.03005461200361831667,
    (-0.25, 0.3, 16, 0, 0): 0.10526915109741627349,
    (-0.25, 0.3, 16, 15, 15): 0.098619554616874401887,
    (-0.25, 0.3, 16, 15, 0): 0.051125793423839371152,
    (-0.25, 0.3, 64, 1, 1): 0.033185926233695801375,
    (-0.25, 0.3, 64, 63, 63): 0.032708980436967751339,
    (-0.25, 0.3, 64, 1, 0): 0.027537822622032371113,
    (-0.25, 0.3, 64, 63, 0): 0.015727279272122202967,
    (-0.25, 0.7, 16, 0, 0): 0.034665886327114539731,
    (-0.25, 0.7, 16, 15, 15): 0.032467789789367598547,
    (-0.25, 0.7, 16, 15, 0): 0.076785596723963820367,
    (-0.25, 0.7, 64, 1, 1): 0.0062558316777316392629,
    (-0.25, 0.7, 64, 63, 63): 0.0061787855341510781278,
    (-0.25, 0.7, 64, 1, 0): 0.0088869434440070745667,
    (-0.25, 0.7, 64, 63, 0): 0.023336696349562600117,
}

# The same construction on the grids of TestAccumulatedOperatorMatrix:
# F_fou at beta = -1 keyed (H, n, i, j), and diagonal entries of the graded
# grids t_k = (k/32)^q keyed (q, H, beta, i).
SMALL_GRID_ORACLE = {
    (0.1, 1, 0, 0): 0.44179931602891364403,
    (0.1, 2, 0, 0): 0.38460549553168224671,
    (0.1, 2, 1, 0): 0.12938347623244853933,
    (0.1, 2, 1, 1): 0.31241583979646510611,
    (0.7, 1, 0, 0): 0.64118916500440260033,
    (0.7, 2, 0, 0): 0.34053023712228368015,
    (0.7, 2, 1, 0): 0.31832945742219907771,
    (0.7, 2, 1, 1): 0.32285970758220352262,
}
GRADED_DIAG_ORACLE = {
    (2, 0.1, -20.0, 1): 0.019561844456560108226,
    (2, 0.1, -20.0, 31): 0.056140455084824283586,
    (2, 0.1, 1.0, 1): 0.020303042758673233619,
    (2, 0.1, 1.0, 31): 0.11701709002189662585,
    (2, 0.3, -20.0, 1): 0.0085507090235226326401,
    (2, 0.3, -20.0, 31): 0.0530633254374577261,
    (2, 0.3, 1.0, 1): 0.0088447264905220987026,
    (2, 0.3, 1.0, 31): 0.10166090388835998031,
    (3, 0.1, -20.0, 1): 0.0043861801631672470215,
    (3, 0.1, -20.0, 31): 0.053838386028494166551,
    (3, 0.1, 1.0, 1): 0.0043981208023368261021,
    (3, 0.1, 1.0, 31): 0.1510707419432274735,
    (3, 0.3, -20.0, 1): 0.0010963134914955500157,
    (3, 0.3, -20.0, 31): 0.056680292122271018834,
    (3, 0.3, 1.0, 1): 0.0010990294453486867398,
    (3, 0.3, 1.0, 31): 0.14126726992044299999,
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


def _regular_entries(n):
    """Mask of the entries below the diagonal outside column 0: panels where
    the kernel has no singularity."""
    mask = np.tril(np.ones((n, n), dtype=bool), -1)
    mask[:, 0] = False
    return mask


class TestOperatorMatrixPanelRule:
    """operator_matrix against the all-tanh-sinh reference on its regular
    entries, and against mpmath on the singular ones. Interior panels with
    fewer Gauss-Legendre points miss the reference bound: 7e-11 relative with
    6 points and 5e-14 with 8 (K_fbm, H = 0.1, n = 16); 10 or more points give
    at most 6e-16. The reference clips its nodes at s <= t(1 - 1e-15) and
    uses the coarse per-node rule on column 0, which costs it up to 5e-9 on
    the diagonal and 1.5e-11 on column 0, so those entries are held against
    OP_ORACLE instead."""

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
        regular = _regular_entries(n)
        assert np.max(np.abs(A - ref)[regular]) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(A, np.tril(A))
        checked = 0
        for (b, h, m, i, j), value in OP_ORACLE.items():
            if (b, h, m) == (spec.effective_beta, H, n):
                ref_ij = spec.effective_xi * value
                assert abs(A[i, j] - ref_ij) <= 1e-14 * ref_ij, (i, j)
                checked += 1
        assert checked >= 3


class TestAccumulatedOperatorMatrix:
    """Edge cases of the beta != 0 build, which carries each s-node's inner
    integral from row to row: grids of one and two panels, graded grids
    (panels of width ~n^{-q} next to s = 0), and rates beta = -20 and +1
    whose factors e^{beta dt} neither overflow nor underflow."""

    @pytest.mark.parametrize("H", [0.1, 0.7])
    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_panels(self, H, n):
        A = operator_matrix(KernelSpec(KernelKind.F_FOU, HurstParams(H), beta=-1.0), TimeGrid.uniform(n))
        assert A.shape == (n, n)
        for (h, m, i, j), value in SMALL_GRID_ORACLE.items():
            if (h, m) == (H, n):
                assert abs(A[i, j] - value) <= 1e-14 * value, (i, j)

    @pytest.mark.parametrize("beta", [-20.0, 1.0])
    @pytest.mark.parametrize("H", [0.1, 0.3])
    @pytest.mark.parametrize("q", [2, 3])
    def test_graded_grid(self, q, H, beta):
        n = 32
        t = (np.arange(1, n + 1) / n) ** q
        grid = TimeGrid(nodes=tuple(t), weights=tuple(np.diff(np.concatenate([[0.0], t]))))
        spec = KernelSpec(KernelKind.F_FOU, HurstParams(H), beta=beta)
        A = operator_matrix(spec, grid)
        assert np.all(np.isfinite(A))
        ref = _operator_matrix_all_tanh_sinh(spec, grid)
        assert np.max(np.abs(A - ref)[_regular_entries(n)]) <= 1e-13 * np.max(np.abs(ref))
        for i in (1, 31):
            value = GRADED_DIAG_ORACLE[(q, H, beta, i)]
            assert abs(A[i, i] - value) <= 1e-14 * value


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
