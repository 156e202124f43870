import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from deqlab.condition import (
    InitBounds,
    check_condition,
    init_bounds,
    write_condition_csv,
)
from deqlab.data import Dataset, gen_sphere_data
from deqlab.errors import InputError
from deqlab.linalg import gram, min_eig_sym, spectral_norm
from deqlab.model import (
    DeqParams,
    SolverConfig,
    init_params,
    predict,
    solve_equilibrium,
)
from deqlab.train import TrainConfig, gram_min_eig, train_steps


def bounds_from(c_w, c_u, c_a, delta=0.1, rho_w=0.9, rho_u=1.0, rho_a=1.0):
    return InitBounds(delta=delta, rho_w=rho_w, rho_u=rho_u, rho_a=rho_a,
                      c_w=c_w, c_u=c_u, c_a=c_a)


class TestInitBounds:
    def test_auto_delta_is_half_gap(self):
        p = init_params(40, 8, 0.08, seed=0)
        w_norm = spectral_norm(p.w)
        b = init_bounds(p)
        assert b.delta == pytest.approx(0.5 * (1 - w_norm), rel=1e-10)
        assert b.rho_w == pytest.approx(0.5 * (1 + w_norm), rel=1e-10)

    def test_c_constants(self):
        # rho_u=2, rho_a=1, rho_w=0.9 gives c_w = 2*1/0.01 = 200.
        p = init_params(6, 3, 0.08, seed=1)
        w = np.zeros((6, 6))
        w[0, 0] = 0.8
        u = np.zeros((6, 3))
        u[0, 0] = 1.9
        a = np.zeros(6)
        a[0] = 0.9
        q = DeqParams(w=w, u=u, a=a, sigma_w2=0.08)
        b = init_bounds(q, delta=0.1)
        assert b.rho_w == pytest.approx(0.9, abs=1e-10)
        assert b.c_w == pytest.approx(2.0 * 1.0 / 0.01, rel=1e-8)
        assert b.c_u == pytest.approx(1.0 / 0.1, rel=1e-8)
        assert b.c_a == pytest.approx(2.0 / 0.1, rel=1e-8)

    def test_oversized_delta_rejected(self):
        w = np.zeros((4, 4))
        w[0, 0] = 0.8
        p = DeqParams(w=w, u=np.zeros((4, 2)), a=np.zeros(4), sigma_w2=0.08)
        with pytest.raises(InputError):
            init_bounds(p, delta=0.5)

    def test_ill_posed_rejected(self):
        p = DeqParams(w=np.eye(3) * 1.1, u=np.zeros((3, 2)), a=np.zeros(3),
                      sigma_w2=0.08)
        with pytest.raises(InputError):
            init_bounds(p)


class TestNonFiniteInputs:
    """delta, lambda_0 and r0 must be finite (and the last two >= 0): a nan
    or inf would otherwise give nan bounds or margins, read as silently
    unsatisfied."""

    def test_nan_delta_refused(self):
        p = init_params(40, 8, 0.08, seed=0)
        with pytest.raises(InputError, match="delta must be positive and finite"):
            init_bounds(p, delta=math.nan)

    @pytest.mark.parametrize("key", ["lambda_0", "residual_norm_0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_check_input_out_of_range_refused(self, key, value):
        b = bounds_from(c_w=1.0, c_u=1.0, c_a=1.0)
        x = gen_sphere_data(3, 5, seed=1).x
        inputs = {"lambda_0": 1.0, "residual_norm_0": 1.0, key: value}
        with pytest.raises(InputError, match=f"{key} must be >= 0 and finite"):
            check_condition(b, x=x, **inputs)


class TestCheckCondition:
    def test_zero_residual_trivially_satisfies_first_two(self):
        b = bounds_from(c_w=5.0, c_u=2.0, c_a=3.0)
        x = gen_sphere_data(4, 6, seed=0).x
        xf2 = np.linalg.norm(x) ** 2
        report = check_condition(b, lambda_0=10.0, x=x, residual_norm_0=0.0)
        assert report.satisfied[0] and report.satisfied[1]
        assert report.margins[0] == pytest.approx(10.0)
        assert report.margins[2] == pytest.approx(10.0 - 4 * (25 + 4) * xf2)
        assert report.phi_0 == 0.0

    def test_lambda_zero_fails_unless_rhs_zero(self):
        b = bounds_from(c_w=1.0, c_u=1.0, c_a=1.0)
        x = gen_sphere_data(3, 5, seed=1).x
        report = check_condition(b, lambda_0=0.0, x=x, residual_norm_0=1.0)
        assert not any(report.satisfied)

    def test_eta_max_formula(self):
        b = bounds_from(c_w=2.0, c_u=1.0, c_a=1.0)
        x = gen_sphere_data(3, 5, seed=2).x
        xf2 = np.linalg.norm(x) ** 2
        report = check_condition(b, lambda_0=1000.0, x=x, residual_norm_0=0.5)
        expected = min(2 / 1000.0, 2 * 5 / (36 * xf2))
        assert report.eta_max == pytest.approx(expected, rel=1e-12)

    def test_condition_two_exact_constant(self):
        # The second inequality carries 4(2 + sqrt 2) / rho_a.
        b = bounds_from(c_w=1.0, c_u=0.0, c_a=0.0, rho_a=2.0)
        x = gen_sphere_data(2, 4, seed=3).x
        xf2 = np.linalg.norm(x) ** 2
        report = check_condition(b, lambda_0=4.0, x=x, residual_norm_0=1.0)
        rhs2 = 4 * (2 + math.sqrt(2)) / 2.0 * 1.0 * xf2 * 1.0
        assert report.margins[1] == pytest.approx(8.0 - rhs2, rel=1e-12)

    def test_desk_scale_report_runs(self):
        p = init_params(200, 16, 0.08, seed=4)
        ds = gen_sphere_data(16, 16, seed=4)
        sol = solve_equilibrium(p, ds.x)
        lam0 = min_eig_sym(gram(sol.z))
        r0 = float(np.linalg.norm(predict(p, sol.z) - ds.y))
        b = init_bounds(p)
        report = check_condition(b, lam0, ds.x, r0)
        assert np.isfinite(report.eta_max)
        assert len(report.margins) == 3

    def test_rhs_scaling_in_x(self):
        # Scaling X by alpha scales the third inequality's RHS by alpha^2
        # while the c constants are untouched.
        b = bounds_from(c_w=1.5, c_u=0.5, c_a=1.0)
        x = gen_sphere_data(4, 6, seed=5).x
        alpha = 3.0
        r1 = check_condition(b, lambda_0=0.0, x=x, residual_norm_0=0.0)
        r2 = check_condition(b, lambda_0=0.0, x=alpha * x, residual_norm_0=0.0)
        rhs3_1 = -r1.margins[2]
        rhs3_2 = -r2.margins[2]
        assert rhs3_2 == pytest.approx(alpha**2 * rhs3_1, rel=1e-12)


class TestEtaMaxMonotonicity:
    @settings(deadline=None, max_examples=50)
    @given(c_w=st.floats(0.1, 50), c_u=st.floats(0.1, 50), c_a=st.floats(0.1, 50),
           bump=st.floats(0.01, 10))
    def test_increasing_c_a_decreases_eta(self, c_w, c_u, c_a, bump):
        x = gen_sphere_data(3, 4, seed=0).x
        lo = check_condition(bounds_from(c_w, c_u, c_a), 1e12, x, 0.0)
        hi = check_condition(bounds_from(c_w, c_u, c_a + bump), 1e12, x, 0.0)
        assert hi.eta_max <= lo.eta_max * (1 + 1e-12)

    @settings(deadline=None, max_examples=50)
    @given(c_w=st.floats(0.1, 50), c_u=st.floats(0.1, 50), c_a=st.floats(0.1, 50),
           bump=st.floats(0.01, 10))
    def test_increasing_c_w_decreases_eta_in_regime(self, c_w, c_u, c_a, bump):
        # Monotone decrease in c_w holds when c_w^2 + c_u^2 >= c_a^2 (true
        # at real initializations, where c_w carries the (1-rho_w)^-2).
        assume(c_w**2 + c_u**2 >= c_a**2)
        x = gen_sphere_data(3, 4, seed=0).x
        lo = check_condition(bounds_from(c_w, c_u, c_a), 1e12, x, 0.0)
        hi = check_condition(bounds_from(c_w + bump, c_u, c_a), 1e12, x, 0.0)
        assert hi.eta_max <= lo.eta_max * (1 + 1e-12)


class TestInequalityThreeBound:
    """At init_bounds' default delta = (1 - ||W||_2) / 2, inequality 3 as
    transcribed cannot hold. Each equilibrium column has ||z_i|| <=
    ||U x_i|| / (1 - ||W||_2), so lambda_0 <= ||Z||_F^2 / n <=
    rho_u^2 ||X||_F^2 / (4 delta^2 n); and c_w >= rho_u / delta puts the
    right-hand side at or above 4 rho_u^2 ||X||_F^2 / delta^2. The ratio
    is at most 1/(16n) for every W, U, a and X."""

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 12), extra=st.integers(0, 18), d=st.integers(1, 8),
           w_norm=st.floats(0.01, 0.95), log_u=st.floats(-2, 2),
           log_a=st.floats(-3, 2), log_x=st.floats(-2, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_ratio_at_most_one_over_16n(self, n, extra, d, w_norm, log_u,
                                        log_a, log_x, seed):
        m = n + extra
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((m, m))
        w *= w_norm / np.linalg.norm(w, 2)
        p = DeqParams(w=w, u=10**log_u * rng.standard_normal((m, d)),
                      a=10**log_a * rng.standard_normal(m), sigma_w2=0.08)
        x = 10**log_x * rng.standard_normal((d, n))
        lam0 = gram_min_eig(solve_equilibrium(p, x).z)
        report = check_condition(init_bounds(p), lam0, x, residual_norm_0=0.0)
        rhs3 = lam0 - report.margins[2]
        assert lam0 / rhs3 <= (1 + 1e-6) / (16 * n)


class TestTheoremInItsRegime:
    """The convergence theorem where its initialization condition holds.
    Inequality 3's cap grows as delta -> 0, and c_w, c_u carry rho_a =
    ||a(0)|| + delta, so a(0) scaled by 1e-3 with delta = 1e-3 brings it
    within reach; inequalities 1 and 2 are linear in r0 = ||yhat(0) - y||,
    so labels 1e-5 from yhat(0) bring them within reach. This is the
    regime in which criterion 7's envelope branch would run."""

    def test_conditions_hold_and_training_stays_under_the_envelope(self):
        solver = SolverConfig(tol=1e-12)
        x = gen_sphere_data(8, 16, seed=7).x
        p = init_params(400, 16, 0.08, seed=11)
        p0 = DeqParams(w=p.w, u=p.u, a=1e-3 * p.a, sigma_w2=p.sigma_w2)
        z0 = solve_equilibrium(p0, x, solver).z
        yhat0 = predict(p0, z0)
        y = yhat0 + 1e-5 * np.random.default_rng(0).standard_normal(8)
        lam0 = gram_min_eig(z0)

        def condition(q, delta):
            r0 = float(np.linalg.norm(predict(q, z0) - y))
            return check_condition(init_bounds(q, delta), lam0, x, r0)

        delta = 1e-3
        report = condition(p0, delta)
        assert all(report.satisfied)  # lhs/rhs measured 2.33, 288 and 1.032
        # the unscaled a(0) at the default delta fails all three
        assert not any(condition(p, None).satisfied)

        cfg = TrainConfig(eta=report.eta_max, steps=200, solver=solver)
        records = []
        for record, q, _ in train_steps(p0, Dataset(x, y), cfg):
            # the loss is resolved to the solver's tolerance, as in criterion 7
            assert record.loss <= record.rate_envelope * (1 + 1e-8)
            assert record.w_spec_norm < 1.0
            assert np.linalg.norm(q.w - p0.w) <= delta
            records.append(record)
        assert len(records) == 201
        # How loose the envelope is: the loss's log-decay over the
        # envelope's. Measured 28.7 (label noise seeds 1-3 read 20.2, 13.3
        # and 20.1); an envelope twice as fast reads 14.4 and fails.
        first, last = records[0], records[-1]
        looseness = (np.log(last.loss / first.loss)
                     / np.log(last.rate_envelope / first.rate_envelope))
        assert 20.0 < looseness < 40.0


def test_write_condition_csv(tmp_path):
    p = init_params(12, 4, 0.08, seed=10)
    ds = gen_sphere_data(4, 4, seed=10)
    sol = solve_equilibrium(p, ds.x)
    lam0 = min_eig_sym(gram(sol.z))
    r0 = float(np.linalg.norm(predict(p, sol.z) - ds.y))
    b = init_bounds(p)
    report = check_condition(b, lam0, ds.x, r0)
    path = tmp_path / "condition.csv"
    write_condition_csv(path, b, report)
    text = path.read_text()
    assert "eta_max" in text and "margin_3" in text
