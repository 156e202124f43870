import numpy as np
import pytest

from deqlab import model
from deqlab.data import gen_sphere_data
from deqlab.errors import ConvergenceError, InputError, WellPosednessError
from deqlab.grad import activation_mask, solve_adjoint, solve_sensitivity
from deqlab.linalg import spectral_norm
from deqlab.model import (
    DeqParams,
    EquilibriumSolution,
    SolverConfig,
    init_params,
    layer_iterates,
    loss,
    predict,
    solve_equilibrium,
    well_posedness,
)


def small_params(m=12, d=5, sigma_w2=0.08, seed=0):
    return init_params(m, d, sigma_w2, seed)


class TestInitParams:
    def test_entry_variances(self):
        p = init_params(2000, 100, 0.08, seed=0)
        assert np.var(p.w) == pytest.approx(2 * 0.08 / 2000, rel=0.05)
        assert np.var(p.u) == pytest.approx(2 / 100, rel=0.05)
        assert np.var(p.a) == pytest.approx(1 / 2000, rel=0.05)

    def test_sigma_range_enforced(self):
        with pytest.raises(InputError):
            init_params(10, 4, 0.2, seed=0)
        with pytest.raises(InputError):
            init_params(10, 4, 0.0, seed=0)
        with pytest.raises(InputError):
            DeqParams(w=np.zeros((2, 2)), u=np.zeros((2, 2)),
                      a=np.zeros(2), sigma_w2=0.125)

    def test_deterministic(self):
        a = init_params(20, 7, 0.05, seed=3)
        b = init_params(20, 7, 0.05, seed=3)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.a, b.a)

    def test_spectral_norm_concentrates(self):
        # ||W||_2 concentrates at 2*sqrt(2)*sigma_w = 0.8 for sigma_w^2=0.08;
        # allow 2% slack for the finite-m fluctuation around that constant.
        norms = np.array([
            spectral_norm(init_params(1000, 4, 0.08, seed=s).w, tol=1e-6)
            for s in range(30)])
        assert np.all(norms <= 0.8 * 1.02)
        assert np.all(norms < 1.0)
        assert np.median(norms) == pytest.approx(0.8, rel=0.01)

    def test_parameters_are_read_only(self):
        # an in-place edit would leave the stored certificate stale
        p = small_params()
        with pytest.raises(ValueError):
            p.w[0, 0] = 0.0
        for arr in (p.u, p.a):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_a_view_is_copied(self):
        big = np.zeros((4, 4))
        p = DeqParams(w=big[:3, :3], u=np.ones((3, 2)), a=np.ones(3),
                      sigma_w2=0.08)
        big[0, 0] = 2.0
        assert p.w[0, 0] == 0.0


def layer(p, z, x):
    """The tests' oracle for one layer of the tied network."""
    return np.maximum(p.w @ z + p.u @ x, 0)


class TestForwardLayer:
    """The layer map relu(W z + U x) as layer_iterates applies it."""

    def test_zero_inputs(self):
        p = small_params()
        x = np.zeros((p.d, 3))
        np.testing.assert_array_equal(layer_iterates(p, x, 1)[0], np.zeros((p.m, 3)))

    def test_w_zero_decouples(self):
        p = small_params()
        p0 = DeqParams(w=np.zeros_like(p.w), u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        x = np.random.default_rng(0).standard_normal((p.d, 4))
        z1, z2 = layer_iterates(p0, x, 2)
        assert np.any(z1 > 0)  # so layer 2 sees a nonzero input from layer 1
        np.testing.assert_array_equal(z2, np.maximum(p.u @ x, 0))

    def test_matches_elementwise_oracle(self):
        p = small_params()
        x = np.random.default_rng(2).standard_normal((p.d, 3))
        z1, z2 = layer_iterates(p, x, 2)
        pre = p.w @ z1 + p.u @ x
        np.testing.assert_array_equal(z2, np.where(pre > 0, pre, 0.0))

    def test_shape_mismatch(self):
        p = small_params()
        with pytest.raises(InputError, match="X has 6 rows, expected 5"):
            layer_iterates(p, np.zeros((p.d + 1, 3)), 1)

    def test_unrolled_forward_is_the_layer_formula_bitwise(self):
        p = small_params()
        x = gen_sphere_data(4, p.d, seed=3).x
        z = np.zeros((p.m, 4))
        for z_k in layer_iterates(p, x, 6):
            z = layer(p, z, x)
            np.testing.assert_array_equal(z_k, z)


class TestSolveEquilibrium:
    def test_x_zero_one_iteration(self):
        p = small_params()
        sol = solve_equilibrium(p, np.zeros((p.d, 3)))
        np.testing.assert_array_equal(sol.z, np.zeros((p.m, 3)))
        assert sol.iterations == 1 and sol.residual == 0.0

    def test_w_zero_immediate(self):
        p = small_params()
        p0 = DeqParams(w=np.zeros_like(p.w), u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        x = np.random.default_rng(0).standard_normal((p.d, 4))
        sol = solve_equilibrium(p0, x)
        np.testing.assert_array_equal(sol.z, np.maximum(p.u @ x, 0))
        assert sol.iterations <= 2

    def test_residual_recomputation_oracle(self):
        p = small_params(m=30, d=8, seed=5)
        x = gen_sphere_data(6, 8, seed=1).x
        cfg = SolverConfig(tol=1e-10)
        sol = solve_equilibrium(p, x, cfg)
        recomputed = (np.linalg.norm(sol.z - layer(p, sol.z, x))
                      / max(1.0, np.linalg.norm(sol.z)))
        assert recomputed <= cfg.tol
        assert sol.residual == pytest.approx(recomputed, abs=1e-15)

    def test_iteration_bound(self):
        p = small_params(m=40, d=10, seed=7)
        x = gen_sphere_data(8, 10, seed=2).x
        cfg = SolverConfig(tol=1e-10)
        w = spectral_norm(p.w)
        sol = solve_equilibrium(p, x, cfg)
        bound = int(np.ceil(np.log(cfg.tol * (1 - w)) / np.log(w))) + 10
        assert sol.iterations <= bound

    def test_nonnegative(self):
        p = small_params(seed=9)
        x = gen_sphere_data(5, p.d, seed=3).x
        sol = solve_equilibrium(p, x)
        assert np.all(sol.z >= 0.0)

    def test_norm_bound(self):
        # ||Z||_F <= ||U||_2 ||X||_F / (1 - ||W||_2), with slack.
        for seed in range(5):
            p = small_params(m=25, d=6, seed=seed)
            x = gen_sphere_data(7, 6, seed=seed).x
            sol = solve_equilibrium(p, x)
            bound = (spectral_norm(p.u) * np.linalg.norm(x)
                     / (1 - spectral_norm(p.w)))
            assert np.linalg.norm(sol.z) <= bound * (1 + 1e-8)

    def test_residual_history_monotone(self):
        p = small_params(m=30, d=8, seed=11)
        x = gen_sphere_data(6, 8, seed=4).x
        sol = solve_equilibrium(p, x)
        res = np.array(sol.residuals)
        assert np.all(res[2:] <= res[1:-1] + 1e-12)

    def test_deterministic(self):
        p = small_params(seed=13)
        x = gen_sphere_data(5, p.d, seed=5).x
        a = solve_equilibrium(p, x)
        b = solve_equilibrium(p, x)
        assert np.array_equal(a.z, b.z)
        assert a.iterations == b.iterations

    def test_warm_start_matches_cold(self):
        p = small_params(seed=15)
        x = gen_sphere_data(5, p.d, seed=6).x
        cold = solve_equilibrium(p, x)
        warm = solve_equilibrium(p, x, z0=cold.z)
        np.testing.assert_allclose(warm.z, cold.z, atol=1e-9)
        assert warm.iterations <= 2

    def test_ill_posed_rejected(self):
        p = small_params()
        bad = DeqParams(w=np.eye(p.m) * 1.5, u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        with pytest.raises(WellPosednessError):
            solve_equilibrium(bad, np.zeros((p.d, 2)))

    def test_max_iter_error_carries_residual(self):
        p = small_params(seed=17)
        x = gen_sphere_data(5, p.d, seed=7).x
        with pytest.raises(ConvergenceError) as exc:
            solve_equilibrium(p, x, SolverConfig(tol=1e-12, max_iter=3))
        assert exc.value.residual is not None and exc.value.iterations == 3


class TestPredictLoss:
    def test_zero_cases(self):
        p = small_params()
        z = np.abs(np.random.default_rng(0).standard_normal((p.m, 4)))
        pz = DeqParams(w=p.w, u=p.u, a=np.zeros(p.m), sigma_w2=p.sigma_w2)
        np.testing.assert_array_equal(predict(pz, z), np.zeros(4))
        np.testing.assert_array_equal(predict(p, np.zeros((p.m, 4))), np.zeros(4))

    def test_dot_product_oracle(self):
        p = small_params()
        z = np.random.default_rng(1).standard_normal((p.m, 5))
        yhat = predict(p, z)
        for i in range(5):
            assert yhat[i] == pytest.approx(float(p.a @ z[:, i]), abs=1e-12)

    def test_loss_values(self):
        assert loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        assert loss(np.array([1.0, 1.0]), np.array([0.0, 0.0])) == pytest.approx(1.0)

    def test_loss_oracle(self):
        rng = np.random.default_rng(2)
        yhat, y = rng.standard_normal(9), rng.standard_normal(9)
        assert loss(yhat, y) == pytest.approx(0.5 * np.sum((yhat - y) ** 2), rel=1e-14)

    def test_loss_length_mismatch(self):
        with pytest.raises(InputError):
            loss(np.zeros(3), np.zeros(4))


class TestWellPosedness:
    def test_zero_w(self):
        p = small_params()
        p0 = DeqParams(w=np.zeros_like(p.w), u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        s, ok = well_posedness(p0)
        assert s == 0.0 and ok

    def test_expanding_w(self):
        p = small_params()
        bad = DeqParams(w=1.5 * np.eye(p.m), u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        s, ok = well_posedness(bad)
        assert s == pytest.approx(1.5, rel=1e-8) and not ok

    def test_clear_estimate_is_used_as_is(self):
        p = small_params()
        assert well_posedness(p, 0.5) == (0.5, True)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cluster_the_estimate_misses_is_rejected(self, seed):
        # 20 eigenvalues in [1 - 1.9e-6, 1], the rest in [0.5, 0.9], scaled
        # to ||W||_2 = 1 + 1e-7: Lanczos stops inside the top cluster and
        # reports 1 - 7.7e-7 (seed 0) or 1 - 1.1e-6 (seed 1).
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((1000, 1000)))
        lam = np.concatenate([1 - 1.9e-6 * np.linspace(0, 1, 20),
                              rng.uniform(0.5, 0.9, 980)])
        w = (q * lam) @ q.T
        w = (w + w.T) / 2 * (1 + 1e-7)
        assert spectral_norm(w) < 1.0
        p = DeqParams(w=w, u=np.ones((1000, 4)), a=np.ones(1000),
                      sigma_w2=0.08)
        s, ok = well_posedness(p)
        assert s == float(np.linalg.norm(w, 2)) and not ok
        x = gen_sphere_data(3, 4, seed=0).x
        with pytest.raises(WellPosednessError):
            solve_equilibrium(p, x, SolverConfig(max_iter=5))

    def test_margin_covers_a_clustered_spectrum(self):
        # The same cluster with its top at 1 + 1e-9 and at 1 - 2e-6. Lanczos
        # reads 7.7e-7 low in both, so its stop rule cannot tell them
        # apart; CERT_MARGIN sends both decisions to LAPACK, which can.
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((1000, 1000)))
        rest = rng.uniform(0.5, 0.9, 980)
        for top in (1 + 1e-9, 1 - 2e-6):
            lam = np.concatenate([top - 1.9e-6 * np.linspace(0, 1, 20), rest])
            w = (q * lam) @ q.T
            w = (w + w.T) / 2
            assert spectral_norm(w) < top - 5e-7
            p = DeqParams(w=w, u=np.ones((1000, 4)), a=np.ones(1000),
                          sigma_w2=0.08)
            s, ok = well_posedness(p)
            assert abs(s - top) <= 1e-14 and ok == (top < 1.0)

    def test_decided_once_per_parameter_set(self, monkeypatch):
        calls = []

        def counted(a, **kwargs):
            calls.append(a.shape)
            return spectral_norm(a, **kwargs)

        monkeypatch.setattr(model, "spectral_norm", counted)
        p = small_params(seed=4)
        x = gen_sphere_data(3, p.d, seed=4).x
        mask = activation_mask(solve_equilibrium(p, x).pre)
        solve_adjoint(p, mask, np.ones(3))
        solve_sensitivity(p, mask, np.ones((p.m, 3)))
        assert calls == [(p.m, p.m)]
        # later calls return the stored result and ignore an estimate
        assert well_posedness(p, 2.0) == well_posedness(p)
        assert well_posedness(p)[1]

    def test_assumption_init_is_well_posed(self):
        hits = sum(well_posedness(init_params(500, 10, 0.08, seed=s))[1]
                   for s in range(20))
        assert hits == 20
