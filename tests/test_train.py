import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from deqlab.data import Dataset, gen_sphere_data
from deqlab.errors import ConvergenceError, InputError, WellPosednessError
from deqlab.grad import activation_mask, grad_norm_sq, gradients
from deqlab.linalg import gram, min_eig_sym
from deqlab.model import (
    F32_MIN_MADDS,
    DeqParams,
    SolverConfig,
    init_params,
    layer_iterates,
    loss,
    predict,
    solve_equilibrium,
    well_posedness,
)
from deqlab import grad as grad_module, train as train_module
from deqlab.train import (
    METRICS_HEADER,
    SOLVER_TRACE_HEADER,
    TrainConfig,
    TrainRecord,
    TrainState,
    auto_eta,
    load_checkpoint,
    metrics_row,
    monitors,
    ntk_max_eig,
    save_checkpoint,
    solver_trace_row,
    tangent_kernel,
    train,
    train_steps,
)
from deqlab.reporting import write_csv

TIGHT = SolverConfig(tol=1e-12)


def setup(m=30, n=12, d=8, seed=0):
    p = init_params(m, d, 0.08, seed=seed)
    ds = gen_sphere_data(n, d, seed=seed + 500)
    return p, ds


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            TrainConfig(eta=-1.0)
        for eta in (np.nan, np.inf):
            with pytest.raises(InputError, match="positive and finite"):
                TrainConfig(eta=eta)
            with pytest.raises(InputError, match="positive and finite"):
                SolverConfig(tol=eta)
        with pytest.raises(InputError):
            TrainConfig(eta="fast")
        with pytest.raises(InputError):
            TrainConfig(steps=0)

    @pytest.mark.parametrize("cls, field", [
        (SolverConfig, dict(tol=True)), (SolverConfig, dict(max_iter=True)),
        (TrainConfig, dict(eta=True)), (TrainConfig, dict(steps=2.5)),
        (TrainConfig, dict(monitor_every=2.5)), (TrainConfig, dict(steps=np.int64(3))),
    ], ids=["tol-true", "max_iter-true", "eta-true", "steps-2.5", "monitor_every-2.5",
            "steps-int64"])
    def test_refuses_a_mistyped_field(self, cls, field):
        # as a config file does: tol=True would solve to tol 1.0, eta=True
        # train at eta = 1, and steps=2.5 fail only inside train_steps
        with pytest.raises(InputError, match=f"{next(iter(field))} must be "):
            cls(**field)


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

    def test_record_mode_blowup_raises_well_posedness(self):
        p, ds = setup(seed=9)
        cfg = TrainConfig(eta=50.0, steps=200)
        with pytest.raises(WellPosednessError, match=r"^step [1-9]\d*: "):
            train(p, ds, cfg)

    def test_solver_failure_carries_step_index(self):
        p, ds = setup(seed=10)
        cfg = TrainConfig(eta="auto", steps=3,
                          solver=SolverConfig(tol=1e-14, max_iter=2))
        with pytest.raises(ConvergenceError, match="training step"):
            train(p, ds, cfg)

    @pytest.mark.parametrize("former_mode", ["record", "fail-fast"])
    def test_ill_posed_initial_w_raises_well_posedness(self, former_mode):
        # Both former assert modes raised WellPosednessError at step 0;
        # that is now the only behaviour, and the mode cannot be set.
        with pytest.raises(TypeError, match="assert_mode"):
            TrainConfig(assert_mode=former_mode)
        p, ds = setup(seed=21)
        w = p.w * (1.01 / np.linalg.norm(p.w, 2))
        p = DeqParams(w=w, u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        cfg = TrainConfig(eta=1e-3, steps=2)
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
        cfg = TrainConfig(eta="auto", steps=5)
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

    @staticmethod
    def cold_certificates(monkeypatch):
        """The tol of each spectral_norm call train makes without a v0."""
        tols = []
        estimate = train_module.spectral_norm

        def recorded(a, *args, v0=None, **kwargs):
            if v0 is None:
                tols.append(kwargs.get("tol"))
            return estimate(a, *args, v0=v0, **kwargs)
        monkeypatch.setattr(train_module, "spectral_norm", recorded)
        return tols

    def test_certified_params_bring_their_certificate(self, monkeypatch):
        # p0 certified by its own Lanczos run: step 0 takes its norm and
        # Ritz vector and makes no cold run; nothing else in a record moves
        p, ds = setup(m=300, n=20, d=10, seed=14)
        cfg = TrainConfig(eta=1e-3, steps=5)
        _, plain = train(p, ds, cfg)
        q = DeqParams(w=p.w, u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        norm, ok = well_posedness(q)
        tols = self.cold_certificates(monkeypatch)
        _, trace = train(q, ds, cfg)
        assert ok and tols == []
        assert trace.records[0].w_spec_norm == norm
        fields = [f for f in TrainRecord.__dataclass_fields__
                  if f != "w_spec_norm"]
        for r, ref in zip(trace.records, plain.records, strict=True):
            assert [getattr(r, f) for f in fields] == [getattr(ref, f)
                                                       for f in fields]
            assert abs(r.w_spec_norm - ref.w_spec_norm) <= 2e-11 * norm

    def test_uncertified_params_keep_the_cold_certificate(self, monkeypatch):
        # an uncertified p0, and a p0 certified from a supplied bound, both
        # run step 0's cold Lanczos at CERT_TOL, with the same records
        p, ds = setup(m=300, n=20, d=10, seed=14)
        cfg = TrainConfig(eta=1e-3, steps=5)
        tols = self.cold_certificates(monkeypatch)
        _, plain = train(p, ds, cfg)
        assert tols == [train_module.CERT_TOL]
        q = DeqParams(w=p.w, u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        well_posedness(q, plain.records[0].w_spec_norm)
        _, trace = train(q, ds, cfg)
        assert tols == [train_module.CERT_TOL] * 2
        assert trace.records == plain.records

    def test_step_zero_takes_one_gram(self, monkeypatch):
        p, ds = setup(seed=7)
        grams = []
        product = train_module.gram
        monkeypatch.setattr(train_module, "gram",
                            lambda z: grams.append(z) or product(z))
        _, trace = train(p, ds, TrainConfig(eta=1e-3, steps=3))
        assert len(grams) == len(trace.records) == 4
        assert trace.records[0].lambda_tau == trace.lambda_0
        # a resumed run's lambda_0 is its state's, its lambda_tau its own
        state = TrainState(step=0, eta=1e-3, eta_mode="resumed",
                           lambda_0=123.0, phi_0=1.0)
        _, resumed = train(p, ds, TrainConfig(eta=1e-3, steps=3), state)
        assert resumed.lambda_0 == 123.0
        assert resumed.records[0].lambda_tau == trace.records[0].lambda_tau

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


class TestTrainSteps:
    def test_train_is_its_steps_run_to_the_end(self):
        # one yield per step, after its update; train keeps the records
        # and fires each checkpoint with the params of its yield
        p, ds = setup(seed=7)
        cfg = TrainConfig(eta="auto", steps=5, monitor_every=2)
        fired = []
        _, trace = train(p, ds, cfg, checkpoint_every=2,
                         on_checkpoint=lambda step, q: fired.append((step, q)))
        steps = list(train_steps(p, ds, cfg))
        assert [r for r, _, _ in steps if r is not None] == trace.records
        assert [r.step for r in trace.records] == [0, 2, 4, 5]
        assert [state.step for _, _, state in steps] == [1, 2, 3, 4, 5, 5]
        assert {(state.eta, state.eta_mode, state.lambda_0, state.phi_0)
                for _, _, state in steps} == {
            (trace.eta, "auto", trace.lambda_0, trace.phi_0)}
        assert [step for step, _ in fired] == [2, 4, 5]
        for (step, q), tau in zip(fired, (1, 3, 5), strict=True):
            assert np.array_equal(q.w, steps[tau][1].w)
        assert steps[5][1] is steps[4][1]  # the last step's own, W(5)

    def test_a_stopped_run_resumes_from_its_state(self):
        # a consumer that stops after step 2's update resumes from the
        # params and state it was given: the records continue the step
        # count and the rate envelope of the run that was not stopped
        p, ds = setup(seed=8)
        cfg = TrainConfig(eta="auto", steps=6, solver=TIGHT)
        _, whole = train(p, ds, cfg)
        steps = train_steps(p, ds, cfg)
        for _ in range(3):
            _, q, state = next(steps)
        steps.close()
        assert state.step == 3
        _, rest = train(q, ds, dataclasses.replace(cfg, steps=3), state)
        assert (rest.eta, rest.lambda_0, rest.phi_0) == (
            whole.eta, whole.lambda_0, whole.phi_0)
        assert [r.step for r in rest.records] == [3, 4, 5, 6]
        for r, ref in zip(rest.records, whole.records[3:], strict=True):
            assert r.rate_envelope == ref.rate_envelope
            assert r.loss == pytest.approx(ref.loss, rel=1e-9)


ANCHORED = TrainState(step=3, eta=1e-3, eta_mode="auto", lambda_0=0.25, phi_0=7.5)


class TestTrainState:
    @pytest.mark.parametrize("anchors", [
        dict(eta=1e-3),
        dict(eta=1e-3, eta_mode="auto", lambda_0=0.25),
        dict(eta_mode="resumed", lambda_0=0.25, phi_0=7.5),
    ])
    def test_refuses_partial_anchors(self, anchors):
        with pytest.raises(InputError, match="all four anchors or none"):
            TrainState(**anchors)

    @pytest.mark.parametrize("edit", [
        dict(step=-3), dict(step=2.7), dict(step=np.int64(2)),
        dict(eta=-1e-3), dict(eta=0.0), dict(eta=np.nan), dict(eta=np.inf),
        dict(lambda_0=-1.0), dict(lambda_0=np.inf), dict(phi_0=np.nan),
        dict(step=True), dict(step=False), dict(eta=True), dict(lambda_0=True),
        dict(phi_0=np.False_), dict(eta_mode=5),
    ])
    def test_refuses_out_of_range_values(self, edit):
        with pytest.raises(InputError):
            dataclasses.replace(ANCHORED, **edit)

    def test_refuses_a_bool_step_or_eta_as_given(self):
        with pytest.raises(InputError):
            TrainState(step=True)
        with pytest.raises(InputError):
            TrainState(0, True, "auto", 0.0, 0.0)

    def test_accepts_a_start_without_anchors_and_zero_anchors(self):
        assert TrainState(step=5).eta is None
        assert dataclasses.replace(ANCHORED, lambda_0=0.0, phi_0=0.0).phi_0 == 0.0


class TestCheckpoint:
    def assert_same_params(self, p, q):
        assert np.array_equal(p.w, q.w)
        assert np.array_equal(p.u, q.u)
        assert np.array_equal(p.a, q.a)
        assert p.sigma_w2 == q.sigma_w2

    def test_round_trip_bit_exact(self, tmp_path):
        p = init_params(12, 5, 0.08, seed=21)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, p, ANCHORED, "cafe")
        q, state = load_checkpoint(path)
        self.assert_same_params(p, q)
        assert state == dataclasses.replace(ANCHORED, eta_mode="resumed")
        assert type(state.step) is int
        with np.load(path) as npz:
            assert int(npz["format_version"]) == 2
            assert str(npz["config_hash"]) == "cafe"
        assert os.listdir(tmp_path) == ["ckpt.npz"]

    def test_not_a_checkpoint_is_input_error(self, tmp_path):
        p = init_params(12, 5, 0.08, seed=0)
        unversioned = tmp_path / "unversioned.npz"
        np.savez(unversioned, w=p.w, u=p.u, a=p.a, sigma_w2=p.sigma_w2)
        text = tmp_path / "text.npz"
        text.write_text("not an archive\n")
        save_checkpoint(tmp_path / "ckpt.npz", p, ANCHORED, "cafe")
        with np.load(tmp_path / "ckpt.npz") as npz:
            ckpt = dict(npz)
        future, stateless = tmp_path / "future.npz", tmp_path / "stateless.npz"
        np.savez(future, **{**ckpt, "format_version": 3})
        np.savez(stateless, **{key: ckpt[key] for key in ckpt if key != "phi_0"})
        for path in (unversioned, text, tmp_path / "missing.npz", future, stateless):
            with pytest.raises(InputError, match="not a deqlab checkpoint"):
                load_checkpoint(path)

    def test_a_failed_write_keeps_what_the_name_held(self, tmp_path, monkeypatch):
        # the write dies after its first bytes: the last checkpoint is
        # intact, a new name gets no file, and no temporary is left
        p = init_params(12, 5, 0.08, seed=21)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, p, ANCHORED, "cafe")
        before = path.read_bytes()

        def torn(file, **arrays):
            file.write_bytes(before[:100])
            raise OSError("disk full")
        monkeypatch.setattr(train_module.np, "savez", torn)
        later = dataclasses.replace(ANCHORED, step=4)
        for target in (path, tmp_path / "new.npz"):
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(target, p, later, "cafe")
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ckpt.npz"]


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

    def test_unconverged_curvature_raises(self, monkeypatch):
        # An M~ off the adjoint fixed point breaks the identity that
        # equates the matrix-free and closed-form v^T H v: scaled by c, the
        # closed form's M~ term scales by c^2, the matrix-free one by c.
        p, ds = setup(seed=17)
        sol = solve_equilibrium(p, ds.x)
        adjoint = train_module.solve_adjoint

        def perturbed(*args, **kwargs):
            adj = adjoint(*args, **kwargs)
            return dataclasses.replace(adj, m=1.1 * adj.m)
        monkeypatch.setattr(train_module, "solve_adjoint", perturbed)
        with pytest.raises(ConvergenceError, match="closed-form"):
            ntk_max_eig(p, sol.z, ds.x)

    def test_one_adjoint_solve_at_e_one(self, monkeypatch):
        p, ds = setup(seed=17)
        sol = solve_equilibrium(p, ds.x)
        adjoint = train_module.solve_adjoint
        sensitivity = train_module.solve_sensitivity
        adjoint_calls, sensitivity_calls = [], []

        def recorded_adjoint(p, mask, e, *args, **kwargs):
            adjoint_calls.append((np.array(e), kwargs))
            return adjoint(p, mask, e, *args, **kwargs)

        def recorded_sensitivity(*args, **kwargs):
            sensitivity_calls.append(None)
            return sensitivity(*args, **kwargs)
        monkeypatch.setattr(train_module, "solve_adjoint", recorded_adjoint)
        monkeypatch.setattr(train_module, "solve_sensitivity",
                            recorded_sensitivity)
        assert ntk_max_eig(p, sol.z, ds.x) > 0
        assert len(adjoint_calls) == 1
        e, kwargs = adjoint_calls[0]
        np.testing.assert_array_equal(e, np.ones(ds.n))
        assert kwargs.get("m0") is None and kwargs.get("seed") is None
        # and one sensitivity solve, which checks the closed form
        assert len(sensitivity_calls) == 1

    @staticmethod
    def dense_kernel(p, sol, x):
        """J J^T for J = dyhat/d(vec W, vec U, a), by the Kronecker
        construction of grad.dense_gradients_reference: with
        R = (I_n kron a^T) J_z^-1 D, J_z = I_mn - D (I_n kron W), the
        blocks are R (Z^T kron I_m), R (X^T kron I_m) and Z^T."""
        z = sol.z
        m, n = z.shape
        mask = (sol.pre >= 0.0).astype(np.float64)
        d_diag = np.diag(mask.flatten(order="F"))
        j_z = np.eye(m * n) - d_diag @ np.kron(np.eye(n), p.w)
        r = np.kron(np.eye(n), p.a) @ np.linalg.solve(j_z, d_diag)
        jac = np.hstack([r @ np.kron(z.T, np.eye(m)),
                         r @ np.kron(x.T, np.eye(m)), z.T])
        return jac @ jac.T

    def test_matches_dense_tangent_kernel(self):
        m, n, d = 12, 6, 5
        p, ds = setup(m=m, n=n, d=d, seed=23)
        sol = solve_equilibrium(p, ds.x, SolverConfig(tol=1e-13))
        oracle = np.linalg.eigvalsh(self.dense_kernel(p, sol, ds.x))[-1]
        lam = ntk_max_eig(p, sol.z, ds.x, SolverConfig(tol=1e-13))
        assert lam == pytest.approx(oracle, rel=1e-9)

    def test_closed_form_kernel_is_dense_j_jt(self):
        p, ds = setup(m=12, n=6, d=5, seed=23)
        solver = SolverConfig(tol=1e-13)
        sol = solve_equilibrium(p, ds.x, solver)
        h, _ = tangent_kernel(p, sol.z, ds.x, solver)
        oracle = self.dense_kernel(p, sol, ds.x)
        np.testing.assert_allclose(h, oracle, rtol=1e-10, atol=0)

    def test_returns_the_closed_form_top_eigenvalue(self):
        p, ds = setup(seed=17)
        sol = solve_equilibrium(p, ds.x)
        h, lam = tangent_kernel(p, sol.z, ds.x)
        assert lam == ntk_max_eig(p, sol.z, ds.x)
        assert lam == pytest.approx(np.linalg.eigvalsh(h)[-1], rel=1e-9)

    def test_closed_form_top_eigenvalue_above_the_float32_cut(self):
        # the sensitivity solve runs float32 correction rounds here
        m, n, d = 300, 50, 20
        assert m * m * n >= F32_MIN_MADDS
        p, ds = setup(m=m, n=n, d=d, seed=29)
        sol = solve_equilibrium(p, ds.x)
        h, lam = tangent_kernel(p, sol.z, ds.x, pre=sol.pre)
        assert lam == pytest.approx(np.linalg.eigvalsh(h)[-1], rel=1e-9)

    def test_pre_gives_the_same_bits(self, monkeypatch):
        p, ds = setup(seed=17)
        sol = solve_equilibrium(p, ds.x)
        assert (ntk_max_eig(p, sol.z, ds.x, pre=sol.pre)
                == ntk_max_eig(p, sol.z, ds.x))
        assert (auto_eta(p, sol.z, ds.x, pre=sol.pre)
                == auto_eta(p, sol.z, ds.x))
        # the mask comes from pre when it is given
        assert (ntk_max_eig(p, sol.z, ds.x, pre=-sol.pre)
                != ntk_max_eig(p, sol.z, ds.x))
        # train hands its step-0 equilibrium's pre-activation on
        pres = []
        ntk = train_module.ntk_max_eig

        def recorded(*args, pre=None, **kwargs):
            pres.append(pre)
            return ntk(*args, pre=pre, **kwargs)
        monkeypatch.setattr(train_module, "ntk_max_eig", recorded)
        train(p, ds, TrainConfig(eta="auto", steps=1))
        assert len(pres) == 1 and pres[0] is not None

    def test_one_tie_rule_for_the_kernel_and_the_gradient(self, monkeypatch):
        # ties at +0.0 and -0.0 are active in the mask ntk_max_eig hands
        # both of its solves, and in the one gradients hands its adjoint
        p, ds = setup(seed=17)
        sol = solve_equilibrium(p, ds.x)
        pre = sol.pre.copy()
        pre[0, :3] = 0.0
        pre[1, :3] = -0.0
        masks = []

        def recorded(solve):
            def solve_and_record(p, mask, *args, **kwargs):
                masks.append(np.array(mask))
                return solve(p, mask, *args, **kwargs)
            return solve_and_record
        for module, name in ((train_module, "solve_adjoint"),
                             (train_module, "solve_sensitivity"),
                             (grad_module, "solve_adjoint")):
            monkeypatch.setattr(module, name, recorded(getattr(module, name)))
        ntk_max_eig(p, sol.z, ds.x, pre=pre)
        gradients(p, dataclasses.replace(sol, pre=pre), ds.x, ds.y)
        assert len(masks) == 3
        assert np.all(activation_mask(pre)[:2, :3] == 1.0)
        for mask in masks:
            np.testing.assert_array_equal(mask, activation_mask(pre))

    def test_safety_scales_linearly(self):
        p, ds = setup(seed=18)
        sol = solve_equilibrium(p, ds.x)
        assert auto_eta(p, sol.z, ds.x, 0.25) == pytest.approx(
            0.5 * auto_eta(p, sol.z, ds.x, 0.5), rel=1e-12)


class TestTangentKernelBackprop:
    """tangent_kernel's H against the tangent kernel of the weight-tied
    network it is the limit of, at a width the dense Kronecker J J^T cannot
    reach (mn = 6400): per-example gradients of a^T Z^(L) in (W, U, a) by
    backprop through layer_iterates' L layers, then J J^T."""

    @staticmethod
    def unrolled_kernel(p, x, depth):
        n = x.shape[1]
        zs = [np.zeros((p.m, n))] + layer_iterates(p, x, depth)
        ux = p.u @ x
        back = np.repeat(p.a[:, None], n, axis=1)  # d yhat_i / d z_i^(L)
        jw, ju = np.zeros((n, p.m, p.m)), np.zeros((n, p.m, p.d))
        for k in range(depth, 0, -1):
            delta = (p.w @ zs[k - 1] + ux >= 0.0) * back
            jw += np.einsum("ai,bi->iab", delta, zs[k - 1])
            ju += np.einsum("ai,bi->iab", delta, x)
            back = p.w.T @ delta
        jac = np.hstack([jw.reshape(n, -1), ju.reshape(n, -1), zs[-1].T])
        return jac @ jac.T

    @pytest.fixture(scope="class", params=[11, 12])
    def problem(self, request):
        solver = SolverConfig(tol=1e-13)
        ds = gen_sphere_data(16, 16, seed=7)
        p = init_params(400, 16, 0.08, seed=request.param)
        sol = solve_equilibrium(p, ds.x, solver)
        return p, ds.x, tangent_kernel(p, sol.z, ds.x, solver, pre=sol.pre)[0]

    @staticmethod
    def gap(h, oracle):
        return np.linalg.norm(h - oracle) / np.linalg.norm(oracle)

    def test_depth_40_network_matches(self, problem):
        p, x, h = problem
        # measured 5.2e-15 (seed 11) and 1.1e-14 (seed 12)
        assert self.gap(h, self.unrolled_kernel(p, x, 40)) < 1e-12

    def test_depth_5_network_does_not(self, problem):
        p, x, h = problem
        # measured 1.2e-3 and 2.1e-3: the oracle can tell the limit apart
        assert self.gap(h, self.unrolled_kernel(p, x, 5)) > 1e-4


class TestStepSizePhases:
    """Where the contraction certificate ends: eta = c * 2 / lambda_max(H(0))
    at m=400, n=d=16. Below the stability edge the loss never rises; past
    it the loss first rises (a catapult), then converges; far past it
    ||W||_2 crosses 1, so the certificate ||W||_2 < 1 is lost (the run
    exits) before the loss diverges. The equilibrium itself can outlive
    the certificate: run on past it at c = 2, W reaches ||W||_2 = 1.77
    with lambda_max(sym W) near 0.57 < 1, so the equilibrium stays unique."""

    @staticmethod
    def build(seed):
        solver = SolverConfig(tol=1e-10)
        ds = gen_sphere_data(16, 16, seed=7)
        p0 = init_params(400, 16, 0.08, seed=seed)
        sol = solve_equilibrium(p0, ds.x, solver)
        lam = ntk_max_eig(p0, sol.z, ds.x, solver, pre=sol.pre)
        return p0, ds, solver, lam

    @pytest.fixture(scope="class")
    def problem(self):
        return self.build(11)

    def test_below_the_edge_the_loss_never_rises(self, problem):
        p0, ds, solver, lam = problem
        cfg = TrainConfig(eta=0.9 * 2.0 / lam, steps=300, solver=solver)
        losses = train(p0, ds, cfg)[1].column("loss")
        assert np.all(losses[1:] <= losses[0])

    def test_past_the_edge_the_loss_rises_then_converges(self, problem):
        p0, ds, solver, lam = problem
        eta = 1.3 * 2.0 / lam
        q, trace = train(p0, ds, TrainConfig(eta=eta, steps=300, solver=solver))
        losses = trace.column("loss")
        assert losses.max() > losses[0]  # measured 8.6 Phi(0), at step 5
        # measured 2.3e-20, on the tol^2 floor, which jitters over decades
        assert losses[-1] < 1e-16
        # the curvature settled below the step's stability edge (0.745)
        sol = solve_equilibrium(q, ds.x, solver)
        assert eta * ntk_max_eig(q, sol.z, ds.x, solver, pre=sol.pre) / 2.0 < 1.0

    def test_far_past_the_edge_existence_is_lost(self, problem):
        p0, ds, solver, lam = problem
        cfg = TrainConfig(eta=2.0 * 2.0 / lam, steps=300, solver=solver)
        steps = 0
        with pytest.raises(WellPosednessError):
            for _ in train_steps(p0, ds, cfg):
                steps += 1
        assert steps < 10  # lost at step 4, at ||W||_2 = 1.545

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_the_existence_edge_lies_near_c_1_65(self, seed):
        # bisect the smallest c whose run loses ||W||_2 < 1 within 100
        # steps: 7 halvings of [1.3, 2.0], whose ends converge and lose it
        p0, ds, solver, lam = self.build(seed)

        def lost(c):
            cfg = TrainConfig(eta=c * 2.0 / lam, steps=100, solver=solver)
            try:
                for _ in train_steps(p0, ds, cfg):
                    pass
            except WellPosednessError:
                return True
            return False

        lo, hi = 1.3, 2.0
        for _ in range(7):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if lost(mid) else (mid, hi)
        # measured [1.612, 1.617], [1.650, 1.655] and [1.688, 1.694] for
        # seeds 11-13; the theorem's eta_max is c ~ 2e-5
        assert 1.55 < lo < hi < 1.75


class TestGlobalOptimum:
    """Training reaches the global optimum Phi = 0 down to the solver's
    floor (n=d=16, m=400, auto eta, 1000 steps). Phi falls linearly in
    log from 12.27 and first reaches 1e-8 at step 232 at both tols. It
    then stops at a floor that scales like tol^2, since the computed loss
    cannot be resolved below about (||a|| e)^2, with e the forward error
    bound. At 500 steps the tol-1e-10 run is not yet on its floor."""

    @pytest.fixture(scope="class")
    def losses(self):
        ds = gen_sphere_data(16, 16, seed=7)
        p0 = init_params(400, 16, 0.08, seed=11)
        return {tol: train(p0, ds, TrainConfig(eta="auto", steps=1000,
                                                solver=SolverConfig(tol=tol)))[1]
                .column("loss") for tol in (1e-8, 1e-10)}

    def test_the_floor_scales_like_tol_squared(self, losses):
        # medians of the last 100 steps: 1.52e-16 and 1.43e-20, a ratio of
        # 1.06e4 (tol 1e-6 reads 1.44e-12); the floor jitters over decades
        ratio = np.median(losses[1e-8][-100:]) / np.median(losses[1e-10][-100:])
        assert 3e3 < ratio < 3e4

    def test_the_loss_falls_to_its_floor(self, losses):
        phi = losses[1e-10]
        assert phi[-1] / phi[0] < 1e-19  # measured 2.4e-21

    @pytest.mark.parametrize("window", [(50, 100), (100, 200)])
    def test_log_loss_is_linear_before_the_floor(self, losses, window):
        # measured slopes -0.0832 and -0.0810 per step, residuals <= 0.017;
        # the first 50 steps are a transient (one line over steps 0-200
        # misses log Phi by up to 1.76)
        a, b = window
        steps = np.arange(a, b + 1)
        for phi in losses.values():
            log_phi = np.log(phi[a:b + 1])
            slope, intercept = np.polyfit(steps, log_phi, 1)
            assert -0.09 < slope < -0.075
            assert np.abs(log_phi - (slope * steps + intercept)).max() < 0.05


class TestMetricsCsv:
    def test_exact_header_and_parse(self, tmp_path):
        p, ds = setup(seed=19)
        _, trace = train(p, ds, TrainConfig(eta="auto", steps=5))
        path = tmp_path / "metrics.csv"
        write_csv(path, METRICS_HEADER, map(metrics_row, trace.records))
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
        write_csv(p1, METRICS_HEADER, map(metrics_row, t1.records))
        write_csv(p2, METRICS_HEADER, map(metrics_row, t2.records))
        assert p1.read_bytes() == p2.read_bytes()


class TestSolverTraceCsv:
    def test_header_and_rows(self, tmp_path):
        p, ds = setup(seed=22)
        _, trace = train(p, ds, TrainConfig(eta="auto", steps=4, monitor_every=2))
        path = tmp_path / "trace.csv"
        write_csv(path, SOLVER_TRACE_HEADER, map(solver_trace_row, trace.records))
        lines = path.read_text().splitlines()
        assert lines[0] == SOLVER_TRACE_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [0, 2, 4]
        for row, rec in zip(rows, trace.records):
            assert (int(row[1]), int(row[2])) == (rec.solver_iters,
                                                  rec.adjoint_iters)
            assert (float(row[3]), float(row[4])) == (rec.residual,
                                                      rec.adjoint_residual)
