import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from deqlab.data import Dataset, gen_sphere_data
from deqlab.errors import (
    ConvergenceError,
    InputError,
    TrainingAssertionError,
    WellPosednessError,
)
from deqlab.grad import grad_norm_sq, gradients
from deqlab.linalg import gram, min_eig_sym
from deqlab.model import (
    F32_MIN_MADDS,
    DeqParams,
    SolverConfig,
    init_params,
    loss,
    predict,
    solve_equilibrium,
    well_posedness,
)
from deqlab import train as train_module
from deqlab.train import (
    METRICS_HEADER,
    SOLVER_TRACE_HEADER,
    TrainConfig,
    auto_eta,
    monitors,
    ntk_max_eig,
    train,
    write_metrics_csv,
    write_solver_trace_csv,
)

TIGHT = SolverConfig(tol=1e-12)


def setup(m=30, n=12, d=8, seed=0):
    p = init_params(m, d, 0.08, seed=seed)
    ds = gen_sphere_data(n, d, seed=seed + 500)
    return p, ds


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            TrainConfig(eta=-1.0)
        with pytest.raises(InputError):
            TrainConfig(eta="fast")
        with pytest.raises(InputError):
            TrainConfig(steps=0)
        with pytest.raises(InputError):
            TrainConfig(assert_mode="explode")


class TestTrain:
    def test_stationary_point(self):
        # Labels equal to the initial predictions: gradients vanish and
        # the parameters never move.
        p, ds = setup(seed=1)
        sol = solve_equilibrium(p, ds.x, TIGHT)
        data = Dataset(x=ds.x, y=predict(p, sol.z), provenance="synthetic")
        cfg = TrainConfig(eta=1e-3, steps=5, solver=TIGHT)
        p_out, trace = train(p, data, cfg)
        assert np.array_equal(p_out.w, p.w)
        assert np.array_equal(p_out.u, p.u)
        assert np.array_equal(p_out.a, p.a)
        assert all(r.grad_norm_sq == 0.0 for r in trace.records)

    def test_single_step_matches_gradient_oracle(self):
        p, ds = setup(seed=2)
        eta = 1e-4
        cfg = TrainConfig(eta=eta, steps=1, solver=TIGHT)
        p_out, trace = train(p, ds, cfg)
        sol = solve_equilibrium(p, ds.x, TIGHT)
        g, _ = gradients(p, sol, ds.x, ds.y, TIGHT)
        np.testing.assert_allclose(p_out.w, p.w - eta * g.gw, atol=1e-14)
        np.testing.assert_allclose(p_out.u, p.u - eta * g.gu, atol=1e-14)
        np.testing.assert_allclose(p_out.a, p.a - eta * g.ga, atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           eta=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_w_update_without_temporary_is_bitwise(self, data, eta):
        # train turns G into W - eta G in place, as (G * -eta) + W; signed
        # zeros included
        finite = st.floats(allow_nan=False, allow_infinity=False)
        w, g = (data.draw(arrays(np.float64, (3, 4), elements=finite))
                for _ in range(2))
        with np.errstate(over="ignore"):  # a huge eta * g is inf on both sides
            ref = w - eta * g
            g *= -eta
            g += w
        assert np.array_equal(g.view(np.uint64), ref.view(np.uint64))

    def test_step_holds_one_w_sized_array_beyond_w(self):
        # Below the float32 cut no solve copies W, so besides the caller's
        # W(0) a step holds W(tau) and the gradient that becomes W(tau+1):
        # a live peak of about 2.17 W, against 3.17 W with a separate
        # buffer for the new W.
        p0 = init_params(1000, 4, 0.08, seed=0)
        ds = gen_sphere_data(4, 4, seed=1)
        assert p0.m ** 2 * ds.n < F32_MIN_MADDS
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train(p0, ds, TrainConfig(steps=3))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * p0.w.nbytes

    def test_loss_decreases_under_auto_eta(self):
        p, ds = setup(seed=3)
        _, trace = train(p, ds, TrainConfig(eta="auto", steps=50))
        losses = trace.column("loss")
        assert losses[-1] < losses[0]
        assert np.all(losses[1:] <= losses[:-1] * (1 + 1e-10))

    def test_pl_floor_every_monitored_step(self):
        p, ds = setup(seed=4)
        _, trace = train(p, ds, TrainConfig(eta="auto", steps=40))
        for r in trace.records:
            assert r.grad_norm_sq >= 2 * r.lambda_tau * r.loss - 1e-8 * (1 + r.loss)

    def test_deterministic(self):
        p, ds = setup(seed=5)
        cfg = TrainConfig(eta="auto", steps=15)
        _, t1 = train(p, ds, cfg)
        _, t2 = train(p, ds, cfg)
        for a, b in zip(t1.records, t2.records):
            assert a == b

    def test_every_step_matches_a_cold_oracle(self):
        # The warm starts change iteration counts only: at every step's
        # parameters a cold solve gives the recorded loss, and the update
        # is p - eta * gradients(p, cold).
        p, ds = setup(seed=6)
        params = [p]
        _, trace = train(p, ds, TrainConfig(eta="auto", steps=12, solver=TIGHT),
                         checkpoint_every=1,
                         on_checkpoint=lambda step, q: params.append(q))
        assert [r.step for r in trace.records] == list(range(13))
        assert len(params) == 13  # the parameters of steps 0..12
        for record, q, q_next in zip(trace.records, params, params[1:] + [None]):
            cold = solve_equilibrium(q, ds.x, TIGHT)
            assert loss(predict(q, cold.z), ds.y) == pytest.approx(
                record.loss, rel=1e-10)
            if q_next is None:
                break
            g, _ = gradients(q, cold, ds.x, ds.y, TIGHT)
            for new, old, grad in ((q_next.w, q.w, g.gw), (q_next.u, q.u, g.gu),
                                   (q_next.a, q.a, g.ga)):
                np.testing.assert_allclose(new, old - trace.eta * grad,
                                           rtol=0, atol=1e-12)

    def test_monitor_cadence(self):
        p, ds = setup(seed=7)
        _, trace = train(p, ds, TrainConfig(eta="auto", steps=10, monitor_every=4))
        assert [r.step for r in trace.records] == [0, 4, 8, 10]

    def test_well_posedness_persists_under_half_eta_max(self):
        # Theorem-style guarantee, desk scale: eta at half the theoretical
        # bound never pushes ||W|| to 1 (the bound is tiny, so W barely moves).
        from deqlab.condition import check_condition, init_bounds

        p, ds = setup(seed=8)
        sol = solve_equilibrium(p, ds.x)
        lam0 = min_eig_sym(gram(sol.z))
        r0 = float(np.linalg.norm(predict(p, sol.z) - ds.y))
        report = check_condition(init_bounds(p), lam0, ds.x, r0)
        cfg = TrainConfig(eta=0.5 * report.eta_max, steps=25)
        _, trace = train(p, ds, cfg)
        assert np.all(trace.column("w_spec_norm") < 1.0)

    def test_adjoint_effort_recorded(self):
        p, ds = setup(seed=7)
        cfg = TrainConfig(eta="auto", steps=3)
        _, trace = train(p, ds, cfg)
        assert np.all(trace.column("adjoint_iters") >= 1)
        assert np.all(trace.column("adjoint_residual") <= cfg.solver.tol)

    def test_records_exact_norm_when_estimate_is_near_one(self, monkeypatch):
        # ||W||_2 = 1 - 1e-7 sits in an isolated block, so the equilibrium
        # and adjoint stay trivial there; the estimate is made to read low.
        p, ds = setup(m=6, n=4, d=3, seed=3)
        w = np.zeros((6, 6))
        w[0, 0] = 1 - 1e-7
        a = p.a.copy()
        a[0] = 0.0
        u = p.u.copy()
        u[0] = 0.0
        p = DeqParams(w=w, u=u, a=a, sigma_w2=p.sigma_w2)
        estimate = train_module.spectral_norm

        def low(*args, **kwargs):
            s, v = estimate(*args, **kwargs)
            return s * (1 - 1e-9), v
        monkeypatch.setattr(train_module, "spectral_norm", low)
        params, trace = train(p, ds, TrainConfig(eta=1e-3, steps=1))
        exact = [float(np.linalg.norm(q.w, 2)) for q in (p, params)]
        assert list(trace.column("w_spec_norm")) == exact

    def test_one_exact_norm_per_parameter_set(self, monkeypatch):
        # ||W||_2 = 1 - 5e-6 lies inside the estimate's margin, so each
        # certificate takes LAPACK's exact norm; 4 steps see 5 parameter sets.
        p, ds = setup(m=200, n=6, d=8, seed=11)
        w = p.w * ((1 - 5e-6) / np.linalg.norm(p.w, 2))
        p = DeqParams(w=w, u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        exact = []
        norm = np.linalg.norm

        def counted(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                exact.append(x.shape)
            return norm(x, ord, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "norm", counted)
        _, trace = train(p, ds, TrainConfig(eta=1e-9, steps=4))
        assert exact == [(200, 200)] * 5
        assert np.all(1 - trace.column("w_spec_norm") < 1e-5)

    def test_fail_fast_on_blowup(self):
        p, ds = setup(seed=9)
        cfg = TrainConfig(eta=50.0, steps=200, assert_mode="fail-fast")
        with pytest.raises(TrainingAssertionError):
            train(p, ds, cfg)

    def test_record_mode_blowup_raises_well_posedness(self):
        p, ds = setup(seed=9)
        cfg = TrainConfig(eta=50.0, steps=200, assert_mode="record")
        with pytest.raises(WellPosednessError):
            train(p, ds, cfg)

    def test_solver_failure_carries_step_index(self):
        p, ds = setup(seed=10)
        cfg = TrainConfig(eta="auto", steps=3,
                          solver=SolverConfig(tol=1e-14, max_iter=2))
        with pytest.raises(ConvergenceError, match="training step"):
            train(p, ds, cfg)

    @pytest.mark.parametrize("assert_mode", ["record", "fail-fast"])
    def test_ill_posed_initial_w_raises_well_posedness(self, assert_mode):
        p, ds = setup(seed=21)
        w = p.w * (1.01 / np.linalg.norm(p.w, 2))
        p = DeqParams(w=w, u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        cfg = TrainConfig(eta=1e-3, steps=2, assert_mode=assert_mode)
        with pytest.raises(WellPosednessError, match=r"^step 0: "):
            train(p, ds, cfg)

    def test_failed_solve_reports_the_step_of_its_parameters(self, monkeypatch):
        # the third solve is the one at W(2)
        p, ds = setup(seed=10)
        solve = train_module.solve_equilibrium
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise ConvergenceError("injected", residual=1.0, iterations=1)
            return solve(*args, **kwargs)
        monkeypatch.setattr(train_module, "solve_equilibrium", failing)
        with pytest.raises(ConvergenceError,
                           match=r"^at training step 2: injected$"):
            train(p, ds, TrainConfig(eta=1e-3, steps=4))

    def test_one_loss_evaluation_per_step(self, monkeypatch):
        p, ds = setup(seed=7)
        evaluate = train_module.loss
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)
        monkeypatch.setattr(train_module, "loss", counted)
        cfg = TrainConfig(eta="auto", steps=5, assert_mode="fail-fast")
        _, trace = train(p, ds, cfg)
        assert len(calls) == len(trace.records) == 6

    @pytest.mark.parametrize("every, steps, fired", [(1, 3, [1, 2, 3]),
                                                     (2, 5, [2, 4, 5])])
    def test_checkpoints_after_updates_and_at_the_end(self, every, steps, fired):
        p, ds = setup(seed=7)
        seen = []
        p_out, _ = train(p, ds, TrainConfig(eta=1e-3, steps=steps),
                         checkpoint_every=every,
                         on_checkpoint=lambda step, q: seen.append((step, q)))
        assert [step for step, _ in seen] == fired
        assert seen[-1][1] is p_out

    def test_certificate_reads_lapack_norm_from_below(self):
        # 30 warm certificates, each started from the secant of the last
        # two Ritz vectors at tol CERT_TOL
        p, ds = setup(m=300, n=20, d=10, seed=14)
        ws = {0: p.w}
        _, trace = train(p, ds, TrainConfig(eta="auto", steps=30),
                         checkpoint_every=1,
                         on_checkpoint=lambda step, q: ws.setdefault(step, q.w))
        assert len(trace.records) == len(ws) == 31
        for r in trace.records:
            exact = float(np.linalg.norm(ws[r.step], 2))
            assert r.w_spec_norm <= exact
            assert exact - r.w_spec_norm <= 2e-11 * exact

    def test_certificate_start_ignores_ritz_sign(self):
        rng = np.random.default_rng(15)
        v, v_prev = rng.standard_normal((2, 50))
        v_prev += 3 * v  # on v's side
        start = train_module._certificate_start(v, v_prev)
        np.testing.assert_array_equal(start, 2 * v - v_prev)
        np.testing.assert_array_equal(
            train_module._certificate_start(v, -v_prev), start)
        assert train_module._certificate_start(v, None) is v

    def test_adjoint_starts_from_last_m_seeded_with_its_product(self,
                                                                monkeypatch):
        p, ds = setup(seed=7)
        differentiate = train_module.gradients
        calls = []

        def recorded(q, sol, *args, m0=None, seed=None):
            grads, adj = differentiate(q, sol, *args, m0=m0, seed=seed)
            calls.append((q, m0, seed, adj))
            return grads, adj
        monkeypatch.setattr(train_module, "gradients", recorded)
        train(p, ds, TrainConfig(eta="auto", steps=4))
        assert calls[0][1] is None and calls[0][2] is None
        for (_, _, _, adj), (q, m0, seed, _) in zip(calls, calls[1:]):
            assert m0 is adj.m
            ref = q.w.T @ m0
            assert np.linalg.norm(seed - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_rejects_raw_arrays(self):
        p, _ = setup(seed=11)
        with pytest.raises(InputError):
            train(p, (np.zeros((8, 3)), np.zeros(3)), TrainConfig(steps=1))


class TestWidthEffect:
    # The full width sweep (final loss strictly decreasing in m) runs at
    # its stated scale in the acceptance suite; at unit scale the
    # initial-loss randomness swamps the ordering, so here we check the
    # mechanism behind it: lambda_0 grows with m and is degenerate below n.
    def test_lambda0_grows_with_width(self):
        ds = gen_sphere_data(40, 20, seed=12)
        lams = []
        for m in (20, 80, 320):
            p = init_params(m, 20, 0.08, seed=13)
            sol = solve_equilibrium(p, ds.x)
            lams.append(min_eig_sym(gram(sol.z)))
        assert lams[0] <= 1e-8  # rank-deficient: m < n
        assert lams[2] > lams[1] > 1e-8

    def test_lambda_exactly_zero_below_n(self):
        # m < n: rank Z <= m, so lambda_0 and every lambda_tau are exactly
        # 0, never a negative eigensolver roundoff that check_condition
        # (rightly) refuses for a PSD matrix.
        from deqlab.condition import check_condition, init_bounds

        ds = gen_sphere_data(40, 20, seed=12)
        p = init_params(20, 20, 0.08, seed=13)
        _, trace = train(p, ds, TrainConfig(eta=1e-3, steps=3))
        assert trace.lambda_0 == 0.0
        assert np.all(trace.column("lambda_tau") == 0.0)
        sol = solve_equilibrium(p, ds.x)
        r0 = float(np.linalg.norm(predict(p, sol.z) - ds.y))
        report = check_condition(init_bounds(p), trace.lambda_0, ds.x, r0)
        assert report.lambda_0 == 0.0


def solved_step(seed):
    """(p, data, equilibrium, adjoint, gradients) at a fresh init."""
    p, ds = setup(seed=seed)
    sol = solve_equilibrium(p, ds.x, TIGHT)
    grads, adj = gradients(p, sol, ds.x, ds.y, TIGHT)
    return p, ds, sol, adj, grads


class TestMonitors:
    def test_step_zero_envelope_and_lambda(self):
        p, ds, sol, adj, grads = solved_step(seed=14)
        lam0 = min_eig_sym(gram(sol.z))
        phi0 = 3.14
        rec = monitors(p, sol, adj, grads, loss(predict(p, sol.z), ds.y),
                       lam0, eta=1e-3, tau=0, phi0=phi0)
        assert rec.rate_envelope == phi0
        assert rec.lambda_tau == pytest.approx(lam0, abs=1e-12)

    def test_lambda_via_singular_value_route(self):
        p, ds, sol, adj, grads = solved_step(seed=15)
        rec = monitors(p, sol, adj, grads, loss(predict(p, sol.z), ds.y),
                       1.0, eta=1e-3, tau=2, phi0=1.0)
        smin = np.linalg.svd(sol.z, compute_uv=False)[-1]
        assert rec.lambda_tau == pytest.approx(smin**2, abs=1e-8)

    def test_record_copies_the_steps_diagnostics(self):
        p, ds, sol, adj, grads = solved_step(seed=16)
        rec = monitors(p, sol, adj, grads, loss(predict(p, sol.z), ds.y),
                       1.0, eta=1e-3, tau=0, phi0=1.0)
        assert (rec.solver_iters, rec.residual) == (sol.iterations,
                                                    sol.residual)
        assert (rec.adjoint_iters, rec.adjoint_residual) == (adj.iterations,
                                                             adj.residual)
        assert rec.w_spec_norm == well_posedness(p)[0]
        assert rec.grad_norm_sq == grad_norm_sq(grads)


class TestAutoEta:
    def test_positive_and_stable(self):
        p, ds = setup(seed=17)
        sol = solve_equilibrium(p, ds.x)
        eta = auto_eta(p, sol.z, ds.x)
        assert eta > 0
        _, trace = train(p, ds, TrainConfig(eta=eta, steps=30))
        losses = trace.column("loss")
        assert np.all(losses[1:] <= losses[:-1] * (1 + 1e-10))

    def test_unconverged_curvature_raises(self):
        p, ds = setup(seed=17)
        sol = solve_equilibrium(p, ds.x)
        with pytest.raises(ConvergenceError) as exc:
            ntk_max_eig(p, sol.z, ds.x, max_sweeps=1)
        assert exc.value.iterations == 1

    def test_one_adjoint_solve_at_e_one(self, monkeypatch):
        p, ds = setup(seed=17)
        sol = solve_equilibrium(p, ds.x)
        adjoint = train_module.solve_adjoint
        sensitivity = train_module.solve_sensitivity
        adjoint_calls, s0s, solutions = [], [], []

        def recorded_adjoint(p, mask, e, *args, **kwargs):
            adjoint_calls.append((np.array(e), kwargs))
            return adjoint(p, mask, e, *args, **kwargs)

        def recorded_sensitivity(*args, s0=None, **kwargs):
            s0s.append(s0)
            solutions.append(sensitivity(*args, s0=s0, **kwargs))
            return solutions[-1]
        monkeypatch.setattr(train_module, "solve_adjoint", recorded_adjoint)
        monkeypatch.setattr(train_module, "solve_sensitivity",
                            recorded_sensitivity)
        assert ntk_max_eig(p, sol.z, ds.x) > 0
        assert len(adjoint_calls) == 1
        e, kwargs = adjoint_calls[0]
        np.testing.assert_array_equal(e, np.ones(ds.n))
        assert kwargs.get("m0") is None and kwargs.get("seed") is None
        assert len(s0s) > 1 and s0s[0] is None
        assert all(s0 is prev.m for s0, prev in zip(s0s[1:], solutions))

    def test_matches_dense_tangent_kernel(self):
        # J = dyhat/d(vec W, vec U, a) by the Kronecker construction of
        # grad.dense_gradients_reference: with R = (I_n kron a^T) J_z^-1 D,
        # J_z = I_mn - D (I_n kron W), the blocks are R (Z^T kron I_m),
        # R (X^T kron I_m) and Z^T.
        m, n, d = 12, 6, 5
        p, ds = setup(m=m, n=n, d=d, seed=23)
        sol = solve_equilibrium(p, ds.x, SolverConfig(tol=1e-13))
        z, x = sol.z, ds.x
        mask = (sol.pre >= 0.0).astype(np.float64)
        d_diag = np.diag(mask.flatten(order="F"))
        j_z = np.eye(m * n) - d_diag @ np.kron(np.eye(n), p.w)
        r = np.kron(np.eye(n), p.a) @ np.linalg.solve(j_z, d_diag)
        jac = np.hstack([r @ np.kron(z.T, np.eye(m)),
                         r @ np.kron(x.T, np.eye(m)), z.T])
        oracle = np.linalg.eigvalsh(jac @ jac.T)[-1]
        lam = ntk_max_eig(p, z, x, SolverConfig(tol=1e-13), tol=1e-12)
        assert lam == pytest.approx(oracle, rel=1e-9)

    def test_safety_scales_linearly(self):
        p, ds = setup(seed=18)
        sol = solve_equilibrium(p, ds.x)
        assert auto_eta(p, sol.z, ds.x, 0.25) == pytest.approx(
            0.5 * auto_eta(p, sol.z, ds.x, 0.5), rel=1e-12)


class TestMetricsCsv:
    def test_exact_header_and_parse(self, tmp_path):
        p, ds = setup(seed=19)
        _, trace = train(p, ds, TrainConfig(eta="auto", steps=5))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + len(trace.records)
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == trace.records[0].loss

    def test_deterministic_bytes(self, tmp_path):
        p, ds = setup(seed=20)
        cfg = TrainConfig(eta="auto", steps=4)
        _, t1 = train(p, ds, cfg)
        _, t2 = train(p, ds, cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(p1, t1)
        write_metrics_csv(p2, t2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSolverTraceCsv:
    def test_header_and_rows(self, tmp_path):
        p, ds = setup(seed=22)
        _, trace = train(p, ds, TrainConfig(eta="auto", steps=4, monitor_every=2))
        path = tmp_path / "trace.csv"
        write_solver_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == SOLVER_TRACE_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [0, 2, 4]
        for row, rec in zip(rows, trace.records):
            assert (int(row[1]), int(row[2])) == (rec.solver_iters,
                                                  rec.adjoint_iters)
            assert (float(row[3]), float(row[4])) == (rec.residual,
                                                      rec.adjoint_residual)
