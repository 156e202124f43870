import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deqlab.errors import ConvergenceError, InputError
from deqlab.linalg import gram, min_eig_sym, spectral_norm
from deqlab.model import init_params


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-10)

    def test_zero(self):
        assert spectral_norm(np.zeros((3, 4))) == 0.0

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0, 0.5])) == pytest.approx(3.0, rel=1e-10)

    def test_start_vector_blind_to_top_direction(self):
        # The all-ones start and its Krylov space miss the top right
        # singular vector (1, -1, 0)/sqrt(2); ||A||_2 = 2 sqrt(2), not 1.
        a = np.array([[2.0, -2.0, 0.0], [0.0, 0.0, 1.0]])
        assert spectral_norm(a) == pytest.approx(2 * np.sqrt(2), rel=1e-12)

    def test_matches_lapack_on_initial_w(self):
        for seed in range(5):
            w = init_params(600, 8, 0.08, seed=seed).w
            expected = np.linalg.norm(w, 2)
            assert abs(spectral_norm(w) - expected) <= 1e-10 * expected

    def test_warm_call_returns_ritz_pair(self):
        w = init_params(300, 8, 0.08, seed=4).w
        _, v = spectral_norm(w, return_vector=True)
        w2 = w + 1e-4 * np.random.default_rng(4).standard_normal(w.shape) / 300
        sigma, v2 = spectral_norm(w2, v0=v, return_vector=True)
        assert np.linalg.norm(v2) == pytest.approx(1.0, abs=1e-12)
        resid = np.linalg.norm(w2.T @ (w2 @ v2) - sigma**2 * v2)
        assert resid <= 1e-4 * sigma**2

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((rng.integers(2, 30), rng.integers(2, 30)))
            expected = np.linalg.svd(a, compute_uv=False)[0]
            assert spectral_norm(a, tol=1e-12) == pytest.approx(expected, rel=1e-9)

    def test_rectangular(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 7))
        expected = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(expected, rel=1e-8)

    def test_nonfinite_rejected(self):
        a = np.eye(3)
        a[1, 1] = np.nan
        with pytest.raises(InputError):
            spectral_norm(a)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            spectral_norm(np.zeros((0, 3)))

    def test_bad_tol_rejected(self):
        # a nan tol never stops the iteration, and an infinite one stops
        # it after one step with a low estimate
        for tol in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(InputError, match="positive and finite"):
                spectral_norm(np.eye(2), tol=tol)

    def test_max_iter_exhaustion(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((30, 30))
        with pytest.raises(ConvergenceError, match="in 2 products") as exc:
            spectral_norm(a, tol=1e-14, max_iter=2)
        assert exc.value.iterations == 2

    def test_warm_start_vector(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((25, 25))
        s1, v = spectral_norm(a, return_vector=True)
        s2 = spectral_norm(a + 1e-9, v0=v)
        assert s2 == pytest.approx(s1, rel=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 9))
        assert spectral_norm(a) == spectral_norm(a.copy())
        w = init_params(400, 8, 0.08, seed=7).w
        s1, v1 = spectral_norm(w, return_vector=True)
        s2, v2 = spectral_norm(w.copy(), return_vector=True)
        assert s1 == s2 and np.array_equal(v1, v2)
        t1, u1 = spectral_norm(w, v0=v1, return_vector=True)
        t2, u2 = spectral_norm(w, v0=v2, return_vector=True)
        assert t1 == t2 and np.array_equal(u1, u2)


class TestMinEigSym:
    def test_identity(self):
        assert min_eig_sym(np.eye(7)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert min_eig_sym(np.diag([2.0, 0.3, 7.0])) == pytest.approx(0.3, abs=1e-12)

    def test_gram_matches_singular_value_oracle(self):
        # lambda_min(Z^T Z) equals sigma_min(Z)^2 for a tall Z.
        rng = np.random.default_rng(11)
        z = rng.standard_normal((10, 4))
        g = gram(z)
        smin = np.linalg.svd(z, compute_uv=False)[-1]
        assert min_eig_sym(g) == pytest.approx(smin**2, abs=1e-10)

    def test_asymmetry_rejected(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InputError):
            min_eig_sym(a)

    def test_mild_asymmetry_tolerated(self):
        a = np.eye(4)
        a[0, 1] = 1e-12
        assert min_eig_sym(a) == pytest.approx(1.0, abs=1e-10)


class TestGram:
    def test_identity(self):
        np.testing.assert_array_equal(gram(np.eye(4)), np.eye(4))

    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((9, 4)))
        np.testing.assert_allclose(gram(q), np.eye(4), atol=1e-12)

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((6, 3))
        g = gram(z)
        for i in range(3):
            for j in range(3):
                assert g[i, j] == pytest.approx(float(z[:, i] @ z[:, j]), abs=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(17)
        z = rng.standard_normal((20, 12))
        g = gram(z)
        assert np.array_equal(g, g.T)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 15), cols=st.integers(1, 15))
def test_spectral_le_frobenius(seed, rows, cols):
    a = np.random.default_rng(seed).standard_normal((rows, cols))
    assert spectral_norm(a, tol=1e-12) <= np.linalg.norm(a) * (1 + 1e-9)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12), cols=st.integers(1, 12))
def test_gram_psd(seed, rows, cols):
    z = np.random.default_rng(seed).standard_normal((rows, cols))
    g = gram(z)
    bound = -1e-10 * max(spectral_norm(g, tol=1e-8), 1e-300)
    assert min_eig_sym(g) >= bound
