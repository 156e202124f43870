import math

import numpy as np
import pytest

from deqlab import kernel
from deqlab.data import gen_sphere_data
from deqlab.errors import AssumptionError, InputError
from deqlab.kernel import (
    export_kernel,
    kernel_fixed_point,
    kernel_layer_sequence,
    q_func,
    rho,
    suggested_depth,
    suggested_width,
)
from deqlab.linalg import min_eig_sym, spectral_norm


def orthogonal_inputs(d=4, n=2):
    """Columns sqrt(d) * e_i: norm sqrt(d), mutually orthogonal."""
    x = np.zeros((d, n))
    for i in range(n):
        x[i, i] = np.sqrt(d)
    return x


def mc_definition_oracle(x, sigma_w2, depth, samples, seed):
    """Monte Carlo estimate of the recursive Gaussian-expectation kernel.

    Level l draws (u, v) ~ N(0, Lambda_ij) with
    Lambda_ij = [[s K_ii + 1, s K_ij + x_i.x_j/d], [., s K_jj + 1]]
    built from the previous level's *estimated* kernel, and sets
    K_ij = 2 E[relu(u) relu(v)]. Returns (K_hat, per-entry standard error).
    """
    d, n = x.shape
    rng = np.random.default_rng(seed)
    k = np.zeros((n, n))
    se = np.zeros((n, n))
    for _ in range(depth):
        k_new = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                a11 = sigma_w2 * k[i, i] + 1.0
                a22 = sigma_w2 * k[j, j] + 1.0
                a12 = sigma_w2 * k[i, j] + float(x[:, i] @ x[:, j]) / d
                z1 = rng.standard_normal(samples)
                z2 = rng.standard_normal(samples)
                u = np.sqrt(a11) * z1
                v = (a12 / np.sqrt(a11)) * z1 + np.sqrt(max(a22 - a12**2 / a11, 0.0)) * z2
                prod = 2.0 * np.maximum(u, 0) * np.maximum(v, 0)
                k_new[i, j] = k_new[j, i] = prod.mean()
                se[i, j] = se[j, i] = prod.std(ddof=1) / np.sqrt(samples)
        k = k_new
    return k, se


class TestQFunc:
    def test_endpoints(self):
        assert q_func(1.0) == pytest.approx(1.0, abs=1e-15)
        assert q_func(-1.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_zero(self):
        assert q_func(0.0) == pytest.approx(0.3183098861837907, abs=1e-15)

    def test_clamps_tiny_overshoot(self):
        assert q_func(1.0 + 5e-13) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_large_overshoot(self):
        with pytest.raises(InputError):
            q_func(1.001)

    def test_bounded_monotone(self):
        grid = np.linspace(-1, 1, 2001)
        vals = q_func(grid)
        assert np.all(vals >= -1e-15) and np.all(vals <= 1 + 1e-15)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_one_lipschitz(self):
        grid = np.linspace(-1, 1, 2001)
        vals = q_func(grid)
        assert np.abs(np.diff(vals)).max() <= (grid[1] - grid[0]) * (1 + 1e-9)


class TestKernelRecursion:
    """The layer recursion, run by kernel_layer_sequence."""

    def test_depth_one_orthogonal(self):
        k = list(kernel_layer_sequence(orthogonal_inputs(), 0.08, depth=1))[-1]
        assert k[0, 1] == pytest.approx(1 / np.pi, abs=1e-15)
        assert k[0, 0] == 1.0

    def test_depth_two_diagonal(self):
        k = list(kernel_layer_sequence(orthogonal_inputs(), 0.08, depth=2))[-1]
        assert k[0, 0] == pytest.approx(1.08, abs=1e-12)

    def test_matches_monte_carlo_oracle(self):
        x = gen_sphere_data(3, 6, seed=5).x
        sigma_w2, depth = 0.08, 5
        k = list(kernel_layer_sequence(x, sigma_w2, depth))[-1]
        k_mc, se = mc_definition_oracle(x, sigma_w2, depth, samples=10**6, seed=0)
        # Level-to-level error propagation multiplies by at most
        # sigma_w2 per level, so total SE <= SE / (1 - sigma_w2).
        tol = 3.0 * (se / (1.0 - sigma_w2) + 1e-6)
        assert np.all(np.abs(k - k_mc) <= tol)

    def test_unnormalized_rejected(self):
        with pytest.raises(AssumptionError):
            next(kernel_layer_sequence(np.eye(3), 0.08, depth=2))

    def test_bad_depth(self):
        with pytest.raises(InputError):
            next(kernel_layer_sequence(orthogonal_inputs(), 0.08, depth=0))

    def test_recursion_inequality(self):
        # |K^(l+1) - K^(l)| <= sigma_w^2 |K^(l) - K^(l-1)| + 2 sigma_w^(2l)
        x = gen_sphere_data(8, 10, seed=1).x
        sigma_w2 = 0.08
        ks = list(kernel_layer_sequence(x, sigma_w2, depth=12))
        for level in range(2, 12):  # l = level, needs K^(l+1), K^(l), K^(l-1)
            lhs = np.abs(ks[level] - ks[level - 1])
            rhs = sigma_w2 * np.abs(ks[level - 1] - ks[level - 2]) + 2 * sigma_w2**level
            assert np.all(lhs <= rhs + 1e-12)

    def test_diag_strictly_increasing_to_limit(self):
        sigma_w2 = 0.08
        ks = kernel_layer_sequence(gen_sphere_data(4, 5, seed=2).x, sigma_w2, 30)
        diags = np.array([k[0, 0] for k in ks])
        # Strict growth while the increment sigma_w^(2l) is representable
        # in float64 next to rho ~ 1.09; non-decreasing beyond that.
        assert np.all(np.diff(diags[:12]) > 0)
        assert np.all(np.diff(diags) >= 0)
        assert diags[-1] == pytest.approx(1 / (1 - sigma_w2), abs=1e-12)

    def test_psd_every_level(self):
        ks = kernel_layer_sequence(gen_sphere_data(10, 6, seed=3).x, 0.1, 8)
        for k in ks:
            assert min_eig_sym(k) >= -1e-10 * spectral_norm(k)

    def test_bitwise_the_recursion_written_out(self, monkeypatch):
        # The recursion as the definition reads, Q evaluated twice per
        # level; the library evaluates it once per level and reuses it.
        x = gen_sphere_data(12, 7, seed=4).x
        sigma_w2, depth = 0.08, 60
        c1 = np.clip(x.T @ x / 7, -1.0, 1.0)
        np.fill_diagonal(c1, 1.0)
        cos, ref = c1, [q_func(c1)]
        np.fill_diagonal(ref[0], 1.0)
        for level in range(2, depth + 1):
            r = rho(sigma_w2, level)
            cos = (1.0 - 1.0 / r) * q_func(cos) + c1 / r
            np.fill_diagonal(cos, 1.0)
            ref.append(r * q_func(cos))
            np.fill_diagonal(ref[-1], r)
        calls = []
        monkeypatch.setattr(kernel, "q_func",
                            lambda c: calls.append(1) or q_func(c))
        ks = list(kernel_layer_sequence(x, sigma_w2, depth))
        assert len(calls) == depth
        for k, k_ref in zip(ks, ref, strict=True):
            assert np.array_equal(k, k_ref)


class TestKernelFixedPoint:
    def test_diagonal_value(self):
        pk = kernel_fixed_point(orthogonal_inputs(), 0.08)
        assert pk.k[0, 0] == pytest.approx(1.0869565217391304, abs=1e-14)

    def test_orthogonal_pair_frozen_values(self):
        # Scalar fixed point c = 0.08 Q(c), solved independently by
        # bisection to 40 digits, then K = Q(c)/0.92.
        pk = kernel_fixed_point(orthogonal_inputs(), 0.08)
        assert pk.cos_theta[0, 1] == pytest.approx(0.026535163010304510, abs=1e-13)
        assert pk.k[0, 1] == pytest.approx(0.360532106118267796, abs=1e-13)

    def test_bisection_oracle(self):
        # Independent route: bisect sigma_w2*Q(c) - c on [0, 1].
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if 0.08 * q_func(mid) - mid > 0:
                lo = mid
            else:
                hi = mid
        pk = kernel_fixed_point(orthogonal_inputs(), 0.08)
        assert pk.cos_theta[0, 1] == pytest.approx(0.5 * (lo + hi), abs=1e-13)

    def test_recursion_consistency_at_depth_60(self):
        x = gen_sphere_data(16, 12, seed=4).x
        k_60 = list(kernel_layer_sequence(x, 0.08, depth=60))[-1]
        assert np.abs(k_60 - kernel_fixed_point(x, 0.08).k).max() <= 1e-10

    def test_lambda_star_positive_on_valid_data(self):
        for seed in range(5):
            pk = kernel_fixed_point(gen_sphere_data(12, 8, seed=seed).x, 0.08)
            assert pk.lambda_star > 0

    def test_offdiag_cosines_strictly_below_one(self):
        pk = kernel_fixed_point(gen_sphere_data(10, 6, seed=6).x, 0.08)
        off = pk.cos_theta[~np.eye(10, dtype=bool)]
        assert np.abs(off).max() < 1.0

    def test_lambda_star_matches_min_eig(self):
        pk = kernel_fixed_point(gen_sphere_data(7, 5, seed=7).x, 0.08)
        assert pk.lambda_star == pytest.approx(min_eig_sym(pk.k), abs=1e-12)


class TestSuggestions:
    def test_width_frozen_example(self):
        # ceil((100^2/0.36^2) * ln(100/(0.36*0.01))) computed at 40-digit
        # precision equals 789506.
        assert suggested_width(100, 0.36) == 789506

    def test_width_errors(self):
        with pytest.raises(InputError):
            suggested_width(100, 0.0)

    def test_width_quadruples_with_doubled_n(self):
        expected = math.ceil(4 * (100**2 / 0.36**2) * math.log(200 / (0.36 * 0.01)))
        assert suggested_width(200, 0.36) == expected

    def test_depth_frozen_example(self):
        assert suggested_depth(100, 0.36, 0.08) == 26

    def test_depth_at_least_one(self):
        # n = 1: lambda_star = 1/(1 - sigma_w^2) > n makes the log negative
        assert suggested_depth(1, 1 / 0.92, 0.08) == 1

    def test_depth_diverges_near_eighth(self):
        assert suggested_depth(100, 0.36, 0.1249999) > 10000

    def test_depth_errors(self):
        with pytest.raises(InputError):
            suggested_depth(100, -1.0, 0.08)
        with pytest.raises(InputError):
            suggested_depth(100, 0.36, 0.125)


class TestExport:
    def test_writes_files_and_summary(self, tmp_path):
        pk = kernel_fixed_point(gen_sphere_data(5, 4, seed=8).x, 0.08)
        summary = export_kernel(pk, tmp_path)
        assert (tmp_path / "kernel.csv").exists()
        assert (tmp_path / "cos_theta.csv").exists()
        assert (tmp_path / "kernel_summary.txt").exists()
        assert summary["lambda_star"] == pytest.approx(pk.lambda_star)
        assert summary["suggested_width"] >= 1
        assert summary["depth"] == "infinite"

    def test_single_input_suggests_depth_one(self, tmp_path):
        with pytest.warns(UserWarning, match="n=1"):
            x = gen_sphere_data(1, 4, seed=8).x
        pk = kernel_fixed_point(x, 0.08)
        assert export_kernel(pk, tmp_path)["suggested_depth"] == 1

    def test_round_trip_kernel_csv(self, tmp_path):
        from deqlab.data import load_matrix_csv

        pk = kernel_fixed_point(gen_sphere_data(4, 4, seed=9).x, 0.05)
        export_kernel(pk, tmp_path)
        np.testing.assert_array_equal(load_matrix_csv(tmp_path / "kernel.csv"), pk.k)


def test_rho_closed_form():
    assert rho(0.08, 1) == pytest.approx(1.0, abs=1e-15)
    assert rho(0.08, 2) == pytest.approx(1.08, abs=1e-12)
    # geometric-series identity rho^(l+1) = sigma_w2 * rho^(l) + 1
    for level in range(1, 20):
        assert rho(0.08, level + 1) == pytest.approx(0.08 * rho(0.08, level) + 1, abs=1e-13)
