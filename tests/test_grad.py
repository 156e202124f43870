import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deqlab import model
from deqlab.data import gen_sphere_data
from deqlab.errors import ConvergenceError, InputError, WellPosednessError
from deqlab.grad import (
    AdjointSolution,
    GradientTriple,
    _MaskedLinearMap,
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
    F32_MIN_MADDS,
    DeqParams,
    SolverConfig,
    _iterate,
    _ReluMap,
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
        mask = activation_mask(neg.w @ np.zeros((8, 3)) + neg.u @ x)
        assert np.all(mask == 0.0)

    def test_exact_zero_maps_to_one(self):
        p, ds, _ = instance(6, 2, 4, seed=1)
        u = p.u.copy()
        u[2, :] = 0.0  # row 2 pre-activation is exactly zero with W = 0
        pz = DeqParams(w=np.zeros_like(p.w), u=u, a=p.a, sigma_w2=p.sigma_w2)
        mask = activation_mask(pz.w @ np.zeros((6, 2)) + pz.u @ ds.x)
        assert np.all(mask[2, :] == 1.0)

    def test_matches_elementwise_oracle(self):
        p, ds, sol = instance(15, 6, 5, seed=2)
        mask = activation_mask(sol.pre)
        pre = p.w @ sol.z + p.u @ ds.x
        np.testing.assert_array_equal(mask, (pre >= 0).astype(float))


class TestSolveAdjoint:
    def test_zero_error_vector(self):
        p, ds, sol = instance(10, 4, 5, seed=3)
        mask = activation_mask(sol.pre)
        adj = solve_adjoint(p, mask, np.zeros(4))
        np.testing.assert_array_equal(adj.m, np.zeros((10, 4)))
        assert adj.iterations == 1

    def test_w_zero_single_step(self):
        p, ds, sol = instance(10, 4, 5, seed=4)
        p0 = DeqParams(w=np.zeros_like(p.w), u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        sol0 = solve_equilibrium(p0, ds.x, TIGHT)
        mask = activation_mask(sol0.pre)
        e = np.arange(1.0, 5.0)
        adj = solve_adjoint(p0, mask, e)
        np.testing.assert_allclose(adj.m, mask * np.outer(p.a, e), atol=1e-15)

    def test_matches_dense_linear_solve(self):
        # (I - D (I_n kron W^T)) vec(M) = vec(D .* a e^T), column-major vec.
        p, ds, sol = instance(6, 3, 4, seed=5)
        e = predict(p, sol.z) - ds.y
        mask = activation_mask(sol.pre)
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
        mask = activation_mask(sol.pre)
        cfg = SolverConfig(tol=1e-10)
        adj = solve_adjoint(p, mask, e, cfg)
        w = spectral_norm(p.w)
        bound = int(np.ceil(np.log(cfg.tol * (1 - w)) / np.log(w))) + 10
        assert adj.iterations <= bound


def assert_columns_separate(p, mask, e, cfg):
    """solve_adjoint(e).m == solve_adjoint(1).m * e: column i of the
    adjoint solves m_i = D_i (a e_i + W^T m_i), linear in e_i alone."""
    scaled = solve_adjoint(p, mask, np.ones(e.size), cfg).m * e
    m = solve_adjoint(p, mask, e, cfg).m
    assert np.linalg.norm(m - scaled) <= 1e-10 * np.linalg.norm(scaled)
    assert not np.any(m[:, e == 0.0])


class TestAdjointColumnSeparability:
    CFG = SolverConfig(tol=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
           n=st.integers(1, 8), rho=st.floats(0.0, 0.8),
           data=st.data())
    def test_small_random(self, seed, m, n, rho, data):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((m, m))
        w *= rho / max(np.linalg.norm(w, 2), 1e-300)
        a = rng.choice([-1.0, 1.0], m) * rng.uniform(1.0, 2.0, m)
        p = DeqParams(w=w, u=np.zeros((m, 1)), a=a, sigma_w2=0.08)
        # pre-activations in {-1, 0, 1}: zeros are ties, which map to 1,
        # and some columns are all negative, so their mask is all zero
        pre = rng.integers(-1, 2, (m, n)).astype(np.float64)
        pre[:, rng.random(n) < 0.3] = -1.0
        e = np.array(data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(-4.0, -0.5),
                      st.floats(0.5, 4.0)), min_size=n, max_size=n)))
        assert_columns_separate(p, activation_mask(pre), e, self.CFG)

    def test_above_the_float32_cut(self):
        m, n = 300, 48
        assert m * m * n >= F32_MIN_MADDS
        p, ds, sol = instance(m, n, 10, seed=12)
        e = predict(p, sol.z) - ds.y
        e[::5] = 0.0
        mask = activation_mask(sol.pre)
        mask[:, 3] = 0.0
        assert_columns_separate(p, mask, e, self.CFG)


class TestGradients:
    def test_interpolation_point_zero_gradients(self):
        p, ds, sol = instance(12, 5, 6, seed=8)
        y = predict(p, sol.z)  # labels equal to predictions: e = 0
        g, _ = gradients(p, sol, ds.x, y, TIGHT)
        assert grad_norm_sq(g) == 0.0

    def test_ga_is_z_times_error(self):
        p, ds, sol = instance(12, 5, 6, seed=9)
        g, _ = gradients(p, sol, ds.x, ds.y, TIGHT)
        e = predict(p, sol.z) - ds.y
        np.testing.assert_allclose(g.ga, sol.z @ e, atol=1e-14)

    @pytest.mark.parametrize("m,n,d,seed", [(20, 10, 6, 0), (40, 5, 8, 1), (8, 4, 3, 2)])
    def test_kronecker_equivalence(self, m, n, d, seed):
        p, ds, sol = instance(m, n, d, seed=seed)
        g, _ = gradients(p, sol, ds.x, ds.y, TIGHT)
        ref = dense_gradients_reference(p, sol.z, ds.x, ds.y)
        for a, b in ((g.gw, ref.gw), (g.gu, ref.gu), (g.ga, ref.ga)):
            assert (np.linalg.norm(a - b)
                    <= 1e-8 * max(np.linalg.norm(b), 1e-30))

    def test_finite_difference_agreement(self):
        p, ds, sol = instance(30, 5, 8, seed=0)
        g, _ = gradients(p, sol, ds.x, ds.y, SolverConfig(tol=1e-12))
        fd, valid = finite_difference_gradients(p, ds.x, ds.y)
        for a, b, v in ((g.gw, fd.gw, valid.gw), (g.gu, fd.gu, valid.gu),
                        (g.ga, fd.ga, valid.ga)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
            rel = (np.abs(a - b) / denom)[v]
            assert rel.max() <= 1e-4

    def test_finite_difference_probes_run_no_norm_estimate(self, monkeypatch):
        # each probe's certificate is p's norm plus the probe step (Weyl)
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return spectral_norm(a, *args, **kwargs)

        p, ds, _ = instance(6, 3, 4, seed=3)
        monkeypatch.setattr(model, "spectral_norm", counted)
        finite_difference_gradients(p, ds.x, ds.y)
        assert calls == []

    def test_output_layer_pl_floor(self):
        # ||grad_a||^2 >= 2 lambda_min(Z^T Z) * loss holds unconditionally.
        for seed in range(6):
            p, ds, sol = instance(25, 6, 5, seed=seed)
            g, _ = gradients(p, sol, ds.x, ds.y, TIGHT)
            phi = loss(predict(p, sol.z), ds.y)
            lam = min_eig_sym(gram(sol.z))
            assert np.sum(g.ga**2) >= 2 * lam * phi - 1e-8 * (1 + phi)

    def test_gradient_norm_bounds(self):
        # With rho_w = ||W||, rho_u = ||U||, rho_a = ||a|| (delta = 0), the
        # norm inequalities give c-weighted bounds on each gradient block.
        for seed in range(4):
            p, ds, sol = instance(20, 6, 5, seed=seed + 20)
            g, _ = gradients(p, sol, ds.x, ds.y, TIGHT)
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


def plain_picard(step, x, tol, max_iter=10000):
    """Reference float64 Picard loop: (x, residuals) for the first x with
    ||step(x) - x|| / max(1, ||x||) <= tol, or (None, residuals)."""
    history = []
    for _ in range(max_iter):
        x_next = step(x)
        res = float(np.linalg.norm(x_next - x) / max(1.0, np.linalg.norm(x)))
        history.append(res)
        if res <= tol:
            return x, history
        x = x_next
    return None, history


class Problem:
    """The forward, adjoint and sensitivity fixed points of one instance:
    `solve(kind, cfg, x0)` runs the library's solver and `apply(kind, x)`
    applies the layer map independently, in float64."""

    def __init__(self, m, n, d, seed, w_shift=0.0):
        p = init_params(m, d, 0.08, seed=seed)
        if w_shift:
            # W moved by about w_shift relative, as by one small GD step
            noise = np.random.default_rng(seed + 1).standard_normal((m, m))
            p = DeqParams(w=p.w + w_shift * np.sqrt(0.16 / m) * noise,
                          u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        self.p = p
        self.ds = gen_sphere_data(n, d, seed=seed + 1000)
        sol = solve_equilibrium(self.p, self.ds.x)
        self.z = sol.z
        self.mask = activation_mask(sol.pre)
        self.e = predict(self.p, self.z) - self.ds.y
        self.rhs = np.random.default_rng(seed).standard_normal((m, n))

    def solve(self, kind, cfg=SolverConfig(), x0=None):
        p = self.p
        if kind == "forward":
            sol = solve_equilibrium(p, self.ds.x, cfg, z0=x0)
            return sol.z, sol
        if kind == "adjoint":
            sol = solve_adjoint(p, self.mask, self.e, cfg, m0=x0)
        elif x0 is None:
            sol = solve_sensitivity(p, self.mask, self.rhs, cfg)
        else:  # solve_sensitivity takes no start; the engine it runs does
            step = self.layer_map(kind)
            x, res, k, history = _iterate(p, step, x0, cfg, kind)
            sol = AdjointSolution(m=x, product=step.product, residual=res,
                                  iterations=k, residuals=history)
        return sol.m, sol

    def apply(self, kind, x):
        p = self.p
        if kind == "forward":
            return np.maximum(p.w @ x + p.u @ self.ds.x, 0.0)
        if kind == "adjoint":
            return self.mask * (np.outer(p.a, self.e) + p.w.T @ x)
        return self.mask * (p.w @ x + self.rhs)

    def layer_map(self, kind, wrap=lambda op: op):
        """The library's own map object for `kind`, as _iterate takes it,
        with its operator passed through `wrap`."""
        p = self.p
        if kind == "forward":
            return _ReluMap(wrap(p.w), p.u @ self.ds.x)
        if kind == "adjoint":
            return _MaskedLinearMap(wrap(p.w.T), self.mask,
                                    self.mask * np.outer(p.a, self.e))
        return _MaskedLinearMap(wrap(p.w), self.mask, self.mask * self.rhs)


class Recorded:
    """A layer map for _iterate that records the dtype of the product
    each application acts on."""

    def __init__(self, step):
        self.step, self.clip, self.shape = step, step.clip, step.shape
        self.op = step.op
        self.dtypes = []

    def __call__(self, product):
        self.dtypes.append(product.dtype)
        return self.step(product)

    def increment(self):
        rule = self.step.increment()

        def recorded(out):
            self.dtypes.append(out.dtype)
            rule(out)
        return recorded


KINDS = ("forward", "adjoint", "sensitivity")


def shifted(prob):
    """The instance `prob` (seed 41) after W moved by 1e-2 relative, with
    prob's solutions as warm starts, as in a training step."""
    moved = Problem(prob.p.m, prob.ds.n, prob.p.d, seed=41, w_shift=1e-2)
    return moved, {kind: prob.solve(kind)[0] for kind in KINDS}


@pytest.fixture(scope="module")
def at_cut():
    """An instance whose layer map costs exactly the float32 cut."""
    assert 512 * 512 * 16 == F32_MIN_MADDS
    return Problem(512, 16, 32, seed=41)


@pytest.fixture(scope="module")
def moved(at_cut):
    return shifted(at_cut)


@pytest.fixture(scope="module")
def training():
    """A training-shaped instance, 1024 x 128: 32 times the cut."""
    return Problem(1024, 128, 32, seed=41)


@pytest.fixture(scope="module")
def training_moved(training):
    return shifted(training)


class TestPicardEngineAtCut:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("tol", [1e-10, 1e-6])  # float32 reaches 1e-6
    def test_returned_residual_is_float64(self, at_cut, kind, tol):
        x, sol = at_cut.solve(kind, SolverConfig(tol=tol))
        assert x.dtype == np.float64
        res = (np.linalg.norm(at_cut.apply(kind, x) - x)
               / max(1.0, np.linalg.norm(x)))
        assert res <= tol
        assert sol.residual == pytest.approx(res, rel=1e-9)
        assert len(sol.residuals) == sol.iterations

    @pytest.mark.parametrize("kind", KINDS)
    def test_bulk_iterations_leave_float64(self, at_cut, kind):
        # The second application runs in float32, so its residual differs
        # from the float64 loop's; the first is the same float64 one.
        _, sol = at_cut.solve(kind, SolverConfig(tol=1e-10))
        _, ref = plain_picard(lambda x: at_cut.apply(kind, x),
                              np.zeros_like(at_cut.z), 0.0, max_iter=2)
        assert sol.residuals[0] == pytest.approx(ref[0], rel=1e-12)
        assert sol.residuals[1] != ref[1]
        assert sol.residuals[1] == pytest.approx(ref[1], rel=1e-4)

    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_start_from_solution_one_iteration(self, at_cut, kind):
        x, _ = at_cut.solve(kind)
        _, warm = at_cut.solve(kind, x0=x)
        assert warm.iterations == 1

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_max_iter_exhaustion(self, at_cut, kind, start):
        # Cold, iterations 2 and 3 run in float32; warm from a solution at
        # tol 1e-8, the first runs in float64 and the next two are a float32
        # correction round.
        x0 = None
        if start == "warm":
            x0, _ = at_cut.solve(kind, SolverConfig(tol=1e-8))
        with pytest.raises(ConvergenceError) as exc:
            at_cut.solve(kind, SolverConfig(tol=1e-12, max_iter=3), x0=x0)
        assert exc.value.iterations == 3 and exc.value.residual is not None
        assert "in 3 iterations" in str(exc.value)

    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_solve_at_most_three_float64_applications(self, moved, kind):
        prob, warm = moved
        step = Recorded(prob.layer_map(kind))
        x, res, k, history = _iterate(prob.p, step, warm[kind],
                                      SolverConfig(), kind)
        assert res <= SolverConfig().tol and len(history) == k
        # the returned residual is x's own float64 one
        assert res == pytest.approx(
            np.linalg.norm(prob.apply(kind, x) - x)
            / max(1.0, np.linalg.norm(x)), rel=1e-9)
        assert len(step.dtypes) == k
        assert step.dtypes.count(np.float64) <= 3
        assert step.dtypes.count(np.float32) >= 1

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_iterations_match_plain_picard(self, moved, kind, start):
        prob, warm = moved
        x0 = warm[kind] if start == "warm" else np.zeros_like(prob.z)
        x, sol = prob.solve(kind, x0=x0)
        ref, history = plain_picard(lambda x: prob.apply(kind, x), x0,
                                    SolverConfig().tol)
        assert abs(sol.iterations - len(history)) <= 1
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_warm_forward_solution_is_a_warm_start(self, moved):
        # Corrections in float32 leave rounding-sized negative entries where
        # units switch off; the clip keeps every iterate a ReLU image.
        # At tol 1e-8, as in training, one round then the stop test.
        prob, warm = moved
        cfg = SolverConfig(tol=1e-8)
        z, _ = prob.solve("forward", cfg, x0=warm["forward"])
        assert np.all(z >= 0.0)
        _, again = prob.solve("forward", cfg, x0=z)
        assert again.iterations == 1


class TestPicardEngineAtTrainingShape(TestPicardEngineAtCut):
    """The at-cut tests again on the training-shaped instance."""

    @pytest.fixture
    def at_cut(self, training):
        return training

    @pytest.fixture
    def moved(self, training_moved):
        return training_moved


class TestEquilibriumPreActivation:
    """sol.pre is W z + U x at the returned z, bitwise, so the mask built
    from it is the mask of the equilibrium."""

    def test_below_cut(self):
        p, ds, sol = instance(15, 6, 5, seed=2)
        assert np.array_equal(sol.pre, p.w @ sol.z + p.u @ ds.x)

    @pytest.mark.parametrize("start", ["cold", "warm", "moved"])
    def test_at_cut(self, at_cut, moved, start):
        prob, x0 = at_cut, None
        if start == "warm":
            x0 = at_cut.solve("forward")[0]
        elif start == "moved":
            prob, warm = moved
            x0 = warm["forward"]
        z, sol = prob.solve("forward", x0=x0)
        p = prob.p
        assert np.array_equal(sol.pre, p.w @ z + p.u @ prob.ds.x)

    @pytest.mark.parametrize("start", ["cold", "warm", "moved"])
    def test_at_training_shape(self, training, training_moved, start):
        self.test_at_cut(training, training_moved, start)

    @pytest.mark.parametrize("size", ["below", "at_cut", "training"])
    def test_gradients_match_recomputed_mask(self, request, size):
        if size == "below":
            p, ds, sol = instance(15, 6, 5, seed=2)
        else:
            prob = request.getfixturevalue(size)
            p, ds = prob.p, prob.ds
            sol = prob.solve("forward")[1]
        g, adj = gradients(p, sol, ds.x, ds.y)
        mask = activation_mask(p.w @ sol.z + p.u @ ds.x)
        ref = solve_adjoint(p, mask, predict(p, sol.z) - ds.y)
        assert np.array_equal(adj.m, ref.m)
        assert np.array_equal(g.gw, ref.m @ sol.z.T)


class TestSeededAdjoint:
    """solve_adjoint(..., m0, seed) takes seed for W^T m0: the first
    application makes no product and never stops the solve."""

    @pytest.fixture(params=["below", "at_cut", "training"])
    def warm(self, request):
        # W moved by 1e-2 relative, with the unmoved solution as m0
        if request.param != "below":
            moved = {"at_cut": "moved", "training": "training_moved"}
            prob, starts = request.getfixturevalue(moved[request.param])
            return prob, starts["adjoint"]
        prob = Problem(60, 12, 10, seed=9, w_shift=1e-2)
        return prob, Problem(60, 12, 10, seed=9).solve("adjoint")[0]

    def solve(self, prob, m0, seed=None):
        return solve_adjoint(prob.p, prob.mask, prob.e, m0=m0, seed=seed)

    @pytest.mark.parametrize("wrong", ["zeros", "random"])
    def test_wrong_seed_costs_iterations_not_accuracy(self, warm, wrong):
        prob, m0 = warm
        ref = self.solve(prob, m0)
        seed = (np.zeros_like(m0) if wrong == "zeros" else
                np.random.default_rng(3).standard_normal(m0.shape))
        adj = self.solve(prob, m0, seed)
        tol = SolverConfig().tol
        assert adj.residual <= tol
        assert (np.linalg.norm(adj.m - ref.m)
                <= tol * max(1.0, np.linalg.norm(ref.m)))

    def test_correct_seed_saves_exactly_one_product(self, warm):
        prob, m0 = warm
        ref = self.solve(prob, m0)
        adj = self.solve(prob, m0, prob.p.w.T @ m0)
        assert adj.iterations == ref.iterations - 1
        assert adj.residuals == ref.residuals[1:]
        assert np.array_equal(adj.m, ref.m)

    def test_product_is_the_last_application(self, warm):
        prob, m0 = warm
        p = prob.p
        for adj in (self.solve(prob, None), self.solve(prob, m0),
                    self.solve(prob, m0, np.zeros_like(m0))):
            assert np.array_equal(adj.product, p.w.T @ adj.m)
        sens = solve_sensitivity(p, prob.mask, prob.rhs)
        assert np.array_equal(sens.product, p.w @ sens.m)

    def test_seed_needs_its_start_and_shape(self, warm):
        prob, m0 = warm
        with pytest.raises(InputError, match="adjoint seed given without"):
            self.solve(prob, None, m0)
        with pytest.raises(InputError, match="adjoint seed must be"):
            self.solve(prob, m0, m0[:, 1:])


class TestPicardEngineBelowCut:
    @pytest.mark.parametrize("kind", ["forward", "adjoint"])
    def test_bitwise_plain_float64_loop(self, kind):
        prob = Problem(60, 12, 10, seed=9)
        cfg = SolverConfig(tol=1e-12)
        x, sol = prob.solve(kind, cfg)
        p = prob.p
        if kind == "forward":
            ux = p.u @ prob.ds.x
            step = lambda z: np.maximum(p.w @ z + ux, 0.0)  # noqa: E731
        else:
            source = prob.mask * np.outer(p.a, prob.e)
            step = lambda m: source + prob.mask * (p.w.T @ m)  # noqa: E731
        ref, history = plain_picard(step, np.zeros_like(prob.z), cfg.tol)
        assert np.array_equal(x, ref)
        assert sol.residuals == tuple(history)
        assert sol.residual == history[-1]


class CountingOperator:
    """A float64 operator that counts its products with iterates, made by
    `@`, and its copies made by `astype`. Its float32 copy is a plain
    array, so the float32 applications of a correction round do not
    count."""

    def __init__(self, a):
        self.a, self.products, self.copies = a, 0, 0

    def __matmul__(self, x):
        self.products += 1
        return self.a @ x

    def astype(self, dtype):
        self.copies += 1
        return self.a.astype(dtype)


class TestFloat32Copy:
    """A solve makes its float32 copy of the operator at its first
    correction round: one for a cold solve at the cut, none for a solve
    that stops at its first application or runs below the cut."""

    @staticmethod
    def copies(prob, kind, x0=None):
        step = prob.layer_map(kind, CountingOperator)
        _iterate(prob.p, step, x0, SolverConfig(), kind)
        return step.op.copies

    @pytest.mark.parametrize("kind", KINDS)
    def test_cold_at_cut_makes_one(self, at_cut, kind):
        assert self.copies(at_cut, kind) == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_from_its_solution_makes_none(self, at_cut, kind):
        assert self.copies(at_cut, kind, at_cut.solve(kind)[0]) == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_below_cut_makes_none(self, kind):
        assert self.copies(Problem(60, 12, 10, seed=9), kind) == 0


class TestZeroStart:
    """A solve started from None is the solve from an explicit zero array,
    bit for bit, without the product with 0 of its first application."""

    @pytest.fixture(params=["below", "at_cut", "training"])
    def prob(self, request):
        if request.param == "below":
            return Problem(60, 12, 10, seed=9)
        return request.getfixturevalue(request.param)

    @staticmethod
    def assert_bitwise(run, ref):
        """Runs (x, product, residual, iterations, residuals) agree in
        every bit."""
        for a, b in zip(run[:2], ref[:2]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert run[2:] == ref[2:]

    @pytest.mark.parametrize("kind", KINDS)
    def test_none_is_the_zero_array_bitwise(self, prob, kind):
        runs = []
        for x0 in (None, np.zeros_like(prob.z)):
            x, sol = prob.solve(kind, x0=x0)
            product = sol.pre if kind == "forward" else sol.product
            runs.append((x, product, sol.residual, sol.iterations,
                         sol.residuals))
        assert runs[0][3] > 1
        self.assert_bitwise(*runs)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_product_fewer(self, prob, kind):
        runs, products = [], []
        for x0 in (None, np.zeros_like(prob.z)):
            step = prob.layer_map(kind, CountingOperator)
            op = step.op
            x, res, k, history = _iterate(prob.p, step, x0, SolverConfig(),
                                          kind)
            product = step.pre if kind == "forward" else step.product
            runs.append((x, product, res, k, history))
            products.append(op.products)
        assert products[0] == products[1] - 1
        self.assert_bitwise(*runs)

    def test_zero_start_can_stop_the_solve(self):
        # a zero source is its own fixed point: the first application,
        # which makes no product, meets the stop rule
        prob = Problem(60, 12, 10, seed=9)
        adj = solve_adjoint(prob.p, prob.mask, np.zeros(prob.ds.n))
        assert (adj.iterations, adj.residuals) == (1, (0.0,))
        assert not adj.m.any() and not adj.product.any()


class TestSolvePreconditions:
    """Each solve refuses what voids its contraction or its start with its
    own error, where it would otherwise run all max_iter applications and
    raise ConvergenceError. model._iterate checks the certificate, the
    start and the seed of all three; the masked solves also refuse a mask
    outside {0, 1}, and the adjoint a non-finite e."""

    CASES = [(kind, case, WellPosednessError if case == "ill_posed"
              else InputError)
             for kind in KINDS
             for case in ("ill_posed", "start_shape", "start_nonfinite",
                          "seed_without_start")]
    CASES += [("forward", "start_negative", InputError),
              ("adjoint", "mask_times_3", InputError),
              ("sensitivity", "mask_times_3", InputError),
              ("adjoint", "e_nan", InputError),
              ("adjoint", "y_inf", InputError)]

    @pytest.fixture(scope="class")
    def prob(self):
        return Problem(40, 5, 6, seed=9)

    @pytest.mark.parametrize("kind,case,error", CASES)
    def test_refused(self, prob, kind, case, error):
        p, mask, e, y = prob.p, prob.mask, prob.e.copy(), prob.ds.y.copy()
        x0 = seed = None
        start = np.zeros_like(prob.z)
        if case == "ill_posed":
            p = DeqParams(w=p.w * (1.2 / np.linalg.norm(p.w, 2)), u=p.u,
                          a=p.a, sigma_w2=p.sigma_w2)
        elif case == "start_shape":
            x0 = start[:, 1:]
        elif case in ("start_nonfinite", "start_negative"):
            x0 = start
            x0[3, 1] = np.nan if case == "start_nonfinite" else -1.0
        elif case == "seed_without_start":
            seed = start
        elif case == "mask_times_3":
            mask = 3 * mask
        elif case == "e_nan":
            e[1] = np.nan
        elif case == "y_inf":
            y[1] = np.inf
        with pytest.raises(error):
            if case == "y_inf":
                gradients(p, prob.solve("forward")[1], prob.ds.x, y)
            elif kind == "adjoint":
                solve_adjoint(p, mask, e, m0=x0, seed=seed)
            elif seed is not None or kind == "sensitivity" and x0 is not None:
                # no public seed (forward, sensitivity) or start (sensitivity)
                _iterate(p, prob.layer_map(kind), x0, SolverConfig(), kind,
                         seed)
            elif kind == "forward":
                solve_equilibrium(p, prob.ds.x, z0=x0)
            else:
                solve_sensitivity(p, mask, prob.rhs)
