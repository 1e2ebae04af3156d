import warnings

import numpy as np
import pytest

from fracldp import (
    DomainError,
    FouConstruction,
    HurstParams,
    KernelKind,
    KernelSpec,
    TimeGrid,
    fbm_covariance,
    fbm_covariance_matrix,
    gram_matrix,
    make_rng,
    sample_fbm,
    sample_fou,
)
from fracldp.paths import _stable_cholesky


class TestFbmCovariance:
    def test_formula(self):
        assert fbm_covariance(0.3, 0.7, 0.4) == pytest.approx(
            0.5 * (0.7**0.6 + 0.4**0.6 - 0.3**0.6))

    def test_h_half_is_min(self):
        for t, s in [(0.7, 0.4), (0.2, 0.9), (0.5, 0.5)]:
            assert fbm_covariance(0.5, t, s) == pytest.approx(min(t, s), abs=1e-14)

    def test_vectorized(self):
        t = np.array([0.3, 0.7])
        out = fbm_covariance(0.3, t[:, None], t[None, :])
        assert out.shape == (2, 2)
        assert out[0, 1] == pytest.approx(fbm_covariance(0.3, 0.3, 0.7))

    def test_domain(self):
        with pytest.raises(DomainError):
            fbm_covariance(1.2, 0.5, 0.5)


class TestSampleFbm:
    def test_numpy_integer_seed_is_recorded(self):
        g = TimeGrid.uniform(6)
        assert sample_fbm(0.3, g, 5, seed=np.int64(5)).seed == 5
        assert sample_fou(0.3, -1.0, 1.0, g, 5, seed=np.int64(5)).seed == 5
        assert sample_fbm(0.3, g, 5, seed=make_rng(5)).seed == 0

    def test_deterministic_seed(self):
        g = TimeGrid.uniform(6)
        a = sample_fbm(0.3, g, 50, seed=5)
        b = sample_fbm(0.3, g, 50, seed=5)
        assert np.array_equal(a.values, b.values)
        c = sample_fbm(0.3, g, 50, seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_empirical_covariance(self):
        g = TimeGrid.uniform(5)
        n = 40000
        for H in (0.3, 0.7):
            batch = sample_fbm(H, g, n, seed=1)
            emp = batch.empirical_covariance()
            ref = fbm_covariance_matrix(H, g)
            # entrywise 4-sigma band for Gaussian covariance estimates
            band = 4.0 * np.sqrt((np.diag(ref)[:, None] * np.diag(ref)[None, :]
                                  + ref**2) / n)
            assert np.all(np.abs(emp - ref) <= band)

    def test_shape(self):
        g = TimeGrid.uniform(4)
        batch = sample_fbm(0.5, g, 7, seed=0)
        assert batch.values.shape == (7, 4)
        with pytest.raises(DomainError):
            sample_fbm(0.5, g, 0, seed=0)


class TestSampleFou:
    def test_covariance_matches_gram(self):
        g = TimeGrid.uniform(5)
        spec = KernelSpec(KernelKind.F_FOU, HurstParams(0.7), beta=-1.0, xi=1.0)
        ref = gram_matrix(spec, g)
        batch = sample_fou(0.7, -1.0, 1.0, g, 40000, seed=3)
        emp = batch.empirical_covariance()
        band = 4.0 * np.sqrt((np.diag(ref)[:, None] * np.diag(ref)[None, :]
                              + ref**2) / 40000)
        assert np.all(np.abs(emp - ref) <= band)

    def test_product_rule_same_law(self):
        # integration-by-parts construction agrees with the kernel Gram
        g = TimeGrid.uniform(5)
        n = 30000
        for H in (0.3, 0.5):
            spec = KernelSpec(KernelKind.F_FOU, HurstParams(H), beta=-1.0, xi=1.0)
            ref = gram_matrix(spec, g)
            batch = sample_fou(H, -1.0, 1.0, g, n, seed=4,
                               construction=FouConstruction.PRODUCT_RULE)
            emp = batch.empirical_covariance()
            band = 4.0 * np.sqrt((np.diag(ref)[:, None] * np.diag(ref)[None, :]
                                  + ref**2) / n) + 5e-4  # fine-grid trapezoid bias
            assert np.all(np.abs(emp - ref) <= band)

    def test_ou_h_half_closed_form(self):
        beta, xi = -1.3, 1.7
        g = TimeGrid.uniform(4)
        spec = KernelSpec(KernelKind.F_FOU, HurstParams(0.5), beta=beta, xi=xi)
        t = g.t
        m = np.minimum(t[:, None], t[None, :])
        ref = xi**2 * np.exp(beta * (t[:, None] + t[None, :])) * (
            np.expm1(-2.0 * beta * m) / (-2.0 * beta))
        assert np.max(np.abs(gram_matrix(spec, g) - ref)) <= 1e-10

    def test_xi_zero(self):
        g = TimeGrid.uniform(4)
        batch = sample_fou(0.3, -1.0, 0.0, g, 10, seed=0)
        assert np.all(batch.values == 0.0)

    def test_construction_recorded(self):
        g = TimeGrid.uniform(4)
        batch = sample_fou(0.5, -1.0, 1.0, g, 5, seed=0,
                           construction="ProductRule")
        assert batch.construction is FouConstruction.PRODUCT_RULE


class TestRngStreams:
    def test_seed_is_reproducible(self):
        r0 = make_rng(9).standard_normal(4)
        assert np.array_equal(r0, make_rng(np.int64(9)).standard_normal(4))
        assert np.array_equal(r0, np.random.default_rng(9).standard_normal(4))
        assert not np.array_equal(r0, make_rng(10).standard_normal(4))

    def test_generator_passes_through(self):
        rng = np.random.default_rng(9)
        assert make_rng(rng) is rng


class TestStableCholesky:
    def test_jitter_warns(self):
        C = np.ones((4, 4))  # rank one: PSD, but not positive definite
        with pytest.warns(RuntimeWarning, match=r"jitter 1\.000e-10"):
            L = _stable_cholesky(C)
        assert np.max(np.abs(L @ L.T - C)) <= 1e-9

    def test_positive_definite_is_silent(self):
        C = fbm_covariance_matrix(0.3, TimeGrid.uniform(16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = _stable_cholesky(C)
        assert np.allclose(L @ L.T, C, atol=1e-14)
