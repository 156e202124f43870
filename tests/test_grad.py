import numpy as np
import pytest

from deqlab.data import gen_sphere_data
from deqlab.errors import InputError, WellPosednessError
from deqlab.grad import (
    GradientTriple,
    activation_mask,
    dense_gradients_reference,
    finite_difference_gradients,
    grad_norm_sq,
    gradients,
    solve_adjoint,
    solve_sensitivity,
)
from deqlab.linalg import gram, min_eig_sym, spectral_norm
from deqlab.model import (
    DeqParams,
    SolverConfig,
    init_params,
    loss,
    predict,
    solve_equilibrium,
)

TIGHT = SolverConfig(tol=1e-13)


def instance(m, n, d, seed, sigma_w2=0.08):
    p = init_params(m, d, sigma_w2, seed=seed)
    ds = gen_sphere_data(n, d, seed=seed + 1000)
    sol = solve_equilibrium(p, ds.x, TIGHT)
    return p, ds, sol


class TestActivationMask:
    def test_all_negative(self):
        p, ds, sol = instance(8, 3, 4, seed=0)
        neg = DeqParams(w=np.zeros_like(p.w), u=-np.abs(p.u) - 0.1,
                        a=p.a, sigma_w2=p.sigma_w2)
        x = np.abs(ds.x) + 0.1
        x = x * (np.sqrt(4) / np.linalg.norm(x, axis=0))
        mask = activation_mask(neg, np.zeros((8, 3)), x)
        assert np.all(mask == 0.0)

    def test_exact_zero_maps_to_one(self):
        p, ds, _ = instance(6, 2, 4, seed=1)
        u = p.u.copy()
        u[2, :] = 0.0  # row 2 pre-activation is exactly zero with W = 0
        pz = DeqParams(w=np.zeros_like(p.w), u=u, a=p.a, sigma_w2=p.sigma_w2)
        mask = activation_mask(pz, np.zeros((6, 2)), ds.x)
        assert np.all(mask[2, :] == 1.0)

    def test_matches_elementwise_oracle(self):
        p, ds, sol = instance(15, 6, 5, seed=2)
        mask = activation_mask(p, sol.z, ds.x)
        pre = p.w @ sol.z + p.u @ ds.x
        np.testing.assert_array_equal(mask, (pre >= 0).astype(float))


class TestSolveAdjoint:
    def test_zero_error_vector(self):
        p, ds, sol = instance(10, 4, 5, seed=3)
        mask = activation_mask(p, sol.z, ds.x)
        adj = solve_adjoint(p, mask, np.zeros(4))
        np.testing.assert_array_equal(adj.m, np.zeros((10, 4)))
        assert adj.iterations == 1

    def test_w_zero_single_step(self):
        p, ds, sol = instance(10, 4, 5, seed=4)
        p0 = DeqParams(w=np.zeros_like(p.w), u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        sol0 = solve_equilibrium(p0, ds.x, TIGHT)
        mask = activation_mask(p0, sol0.z, ds.x)
        e = np.arange(1.0, 5.0)
        adj = solve_adjoint(p0, mask, e)
        np.testing.assert_allclose(adj.m, mask * np.outer(p.a, e), atol=1e-15)

    def test_matches_dense_linear_solve(self):
        # (I - D (I_n kron W^T)) vec(M) = vec(D .* a e^T), column-major vec.
        p, ds, sol = instance(6, 3, 4, seed=5)
        e = predict(p, sol.z) - ds.y
        mask = activation_mask(p, sol.z, ds.x)
        adj = solve_adjoint(p, mask, e, TIGHT)
        mn = 6 * 3
        d_diag = np.diag(mask.flatten(order="F"))
        lhs = np.eye(mn) - d_diag @ np.kron(np.eye(3), p.w.T)
        rhs = (mask * np.outer(p.a, e)).flatten(order="F")
        mvec = np.linalg.solve(lhs, rhs)
        assert np.abs(adj.m.flatten(order="F") - mvec).max() <= 1e-9

    def test_ill_posed_rejected(self):
        p, ds, sol = instance(5, 2, 4, seed=6)
        bad = DeqParams(w=np.eye(5) * 1.2, u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        with pytest.raises(WellPosednessError):
            solve_adjoint(bad, np.ones((5, 2)), np.ones(2))

    def test_iteration_bound(self):
        p, ds, sol = instance(25, 8, 6, seed=7)
        e = predict(p, sol.z) - ds.y
        mask = activation_mask(p, sol.z, ds.x)
        cfg = SolverConfig(tol=1e-10)
        adj = solve_adjoint(p, mask, e, cfg)
        w = spectral_norm(p.w)
        bound = int(np.ceil(np.log(cfg.tol * (1 - w)) / np.log(w))) + 10
        assert adj.iterations <= bound


class TestSolveSensitivity:
    def test_nonfinite_s0_rejected(self):
        p, ds, sol = instance(10, 4, 5, seed=8)
        mask = activation_mask(p, sol.z, ds.x)
        s0 = np.zeros((10, 4))
        s0[3, 1] = np.nan
        with pytest.raises(InputError, match="s0"):
            solve_sensitivity(p, mask, np.ones((10, 4)), s0=s0)

    def test_wrong_shape_s0_rejected(self):
        p, ds, sol = instance(10, 4, 5, seed=8)
        mask = activation_mask(p, sol.z, ds.x)
        with pytest.raises(InputError, match="s0"):
            solve_sensitivity(p, mask, np.ones((10, 4)), s0=np.zeros((10, 1)))


class TestGradients:
    def test_interpolation_point_zero_gradients(self):
        p, ds, sol = instance(12, 5, 6, seed=8)
        y = predict(p, sol.z)  # labels equal to predictions: e = 0
        g = gradients(p, sol.z, ds.x, y, TIGHT)
        assert grad_norm_sq(g) == 0.0

    def test_ga_is_z_times_error(self):
        p, ds, sol = instance(12, 5, 6, seed=9)
        g = gradients(p, sol.z, ds.x, ds.y, TIGHT)
        e = predict(p, sol.z) - ds.y
        np.testing.assert_allclose(g.ga, sol.z @ e, atol=1e-14)

    @pytest.mark.parametrize("m,n,d,seed", [(20, 10, 6, 0), (40, 5, 8, 1), (8, 4, 3, 2)])
    def test_kronecker_equivalence(self, m, n, d, seed):
        p, ds, sol = instance(m, n, d, seed=seed)
        g = gradients(p, sol.z, ds.x, ds.y, TIGHT)
        ref = dense_gradients_reference(p, sol.z, ds.x, ds.y)
        for a, b in ((g.gw, ref.gw), (g.gu, ref.gu), (g.ga, ref.ga)):
            assert (np.linalg.norm(a - b)
                    <= 1e-8 * max(np.linalg.norm(b), 1e-30))

    def test_finite_difference_agreement(self):
        p, ds, sol = instance(30, 5, 8, seed=0)
        g = gradients(p, sol.z, ds.x, ds.y, SolverConfig(tol=1e-12))
        fd, valid = finite_difference_gradients(p, ds.x, ds.y, step=1e-5)
        for a, b, v in ((g.gw, fd.gw, valid.gw), (g.gu, fd.gu, valid.gu),
                        (g.ga, fd.ga, valid.ga)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
            rel = (np.abs(a - b) / denom)[v]
            assert rel.max() <= 1e-4

    def test_output_layer_pl_floor(self):
        # ||grad_a||^2 >= 2 lambda_min(Z^T Z) * loss holds unconditionally.
        for seed in range(6):
            p, ds, sol = instance(25, 6, 5, seed=seed)
            g = gradients(p, sol.z, ds.x, ds.y, TIGHT)
            phi = loss(predict(p, sol.z), ds.y)
            lam = min_eig_sym(gram(sol.z))
            assert np.sum(g.ga**2) >= 2 * lam * phi - 1e-8 * (1 + phi)

    def test_gradient_norm_bounds(self):
        # With rho_w = ||W||, rho_u = ||U||, rho_a = ||a|| (delta = 0), the
        # norm inequalities give c-weighted bounds on each gradient block.
        for seed in range(4):
            p, ds, sol = instance(20, 6, 5, seed=seed + 20)
            g = gradients(p, sol.z, ds.x, ds.y, TIGHT)
            e = predict(p, sol.z) - ds.y
            rho_w, rho_u, rho_a = (spectral_norm(p.w), spectral_norm(p.u),
                                   float(np.linalg.norm(p.a)))
            c_w = rho_u * rho_a / (1 - rho_w) ** 2
            c_u = rho_a / (1 - rho_w)
            c_a = rho_u / (1 - rho_w)
            scale = np.linalg.norm(ds.x) * np.linalg.norm(e)
            assert np.linalg.norm(g.gw) <= c_w * scale * (1 + 1e-8)
            assert np.linalg.norm(g.gu) <= c_u * scale * (1 + 1e-8)
            assert np.linalg.norm(g.ga) <= c_a * scale * (1 + 1e-8)


class TestGradNormSq:
    def test_zero(self):
        g = GradientTriple(gw=np.zeros((2, 2)), gu=np.zeros((2, 1)), ga=np.zeros(2))
        assert grad_norm_sq(g) == 0.0

    def test_ga_only(self):
        g = GradientTriple(gw=np.zeros((2, 2)), gu=np.zeros((2, 1)),
                           ga=np.array([3.0, 4.0]))
        assert grad_norm_sq(g) == pytest.approx(25.0)

    def test_summed_squares_oracle(self):
        rng = np.random.default_rng(0)
        g = GradientTriple(gw=rng.standard_normal((3, 3)),
                           gu=rng.standard_normal((3, 2)),
                           ga=rng.standard_normal(3))
        expected = np.sum(g.gw**2) + np.sum(g.gu**2) + np.sum(g.ga**2)
        assert grad_norm_sq(g) == pytest.approx(float(expected), rel=1e-14)
