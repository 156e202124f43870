"""Each rule the library shares between entry points has one owner: every
entry point holding the rule refuses a value with the same error class
and the same message, before any random draw. A malformed array is an
InputError wherever it enters; AssumptionError is kept for the theory's
assumptions on the data."""

import numpy as np
import pytest

from deqlab.condition import init_bounds
from deqlab.config import DataConfig
from deqlab.data import Dataset, gen_sphere_data, normalize_to_sphere
from deqlab.errors import AssumptionError, DeqlabError, InputError
from deqlab.grad import dense_gradients_reference, gradients
from deqlab.kernel import (
    kernel_fixed_point,
    kernel_layer_sequence,
    suggested_depth,
    suggested_width,
)
from deqlab.linalg import as_matrix, spectral_norm
from deqlab.model import (
    DeqParams,
    forward_layer,
    init_params,
    loss,
    predict,
    solve_equilibrium,
)
from deqlab.train import TrainConfig, auto_eta, gram_min_eig

X = gen_sphere_data(4, 3, seed=0).x  # d = 3, n = 4
P = init_params(10, 3, 0.08, seed=0)
SOL = solve_equilibrium(P, X)
X_N5 = gen_sphere_data(5, 3, seed=0).x  # one column more than SOL.z
X_D4 = gen_sphere_data(4, 4, seed=0).x  # one row more than U has columns
OFF = X * np.array([1.0, 2.0, 1.0, 0.5])  # columns 1 and 3 off the sphere
Z_M1 = np.vstack([SOL.z, SOL.z[:1]])  # one row more than W has


def _shape_calls(x):
    y = np.zeros(x.shape[1])
    return [lambda: forward_layer(P, SOL.z, x),
            lambda: gradients(P, SOL, x, y),
            lambda: dense_gradients_reference(P, SOL.z, x, y),
            lambda: auto_eta(P, SOL.z, x)]


def _matrix_calls(a):
    return [lambda: normalize_to_sphere(a), lambda: as_matrix(a, "X"),
            lambda: Dataset(x=a, y=np.zeros(1))]


# Per rule: the class it raises and every library entry point holding it,
# called with a value it refuses.
RULES = [
    ("shape-n", InputError, _shape_calls(X_N5)),
    ("shape-d", InputError,
     _shape_calls(X_D4) + [lambda: solve_equilibrium(P, X_D4)]),
    ("shape-m", InputError, [
        lambda: predict(P, Z_M1),
        lambda: forward_layer(P, Z_M1, X),
        lambda: dense_gradients_reference(P, Z_M1, X, np.zeros(4))]),
    ("sphere", AssumptionError, [
        lambda: Dataset(x=OFF, y=np.zeros(4)),
        lambda: next(kernel_layer_sequence(OFF, 0.08, 2)),
        lambda: kernel_fixed_point(OFF, 0.08)]),
    ("matrix-1d", InputError, _matrix_calls(np.ones(3))),
    ("matrix-empty", InputError, _matrix_calls(np.ones((3, 0)))),
    ("matrix-nan", InputError, _matrix_calls(np.array([[1.0, np.nan]]))),
    ("report-n", InputError, [
        lambda: suggested_width(0, 0.36),
        lambda: suggested_depth(0, 0.36, 0.08)]),
    ("report-lambda", InputError, [
        lambda: suggested_width(100, 0.0),
        lambda: suggested_depth(100, 0.0, 0.08)]),
    ("label-cap", InputError, [
        lambda: Dataset(x=X, y=np.zeros(4), y_cap=0),
        lambda: gen_sphere_data(4, 3, 0, y_cap=0)]),
    ("labels", InputError, [
        lambda: loss(predict(P, SOL.z), np.zeros(3)),
        lambda: gradients(P, SOL, X, np.zeros(3)),
        lambda: dense_gradients_reference(P, SOL.z, X, np.zeros(3)),
        lambda: Dataset(x=X, y=np.zeros(3))]),
]

# Per entry point holding the rule "positive and finite": the name its
# message gives the value, and a call with the value v.
POSITIVE = [
    ("spectral_norm", "tol", lambda v: spectral_norm(np.eye(2), tol=v)),
    ("init_bounds", "delta", lambda v: init_bounds(P, delta=v)),
    ("TrainConfig", "explicit eta", lambda v: TrainConfig(eta=v)),
    ("Dataset", "y_cap", lambda v: Dataset(x=X, y=np.zeros(4), y_cap=v)),
    ("gen_sphere_data", "y_cap", lambda v: gen_sphere_data(4, 3, 0, y_cap=v)),
    ("DataConfig", "y_cap", lambda v: DataConfig(y_cap=v)),
    ("suggested_width", "lambda_star", lambda v: suggested_width(4, v)),
    ("suggested_depth", "lambda_star", lambda v: suggested_depth(4, v, 0.08)),
]

Z_NAN = SOL.z.copy()
Z_NAN[0, 0] = np.nan
X_NAN = X.copy()
X_NAN[0, 0] = np.nan
Y_INF = np.array([0.0, np.inf, 0.0, 0.0])

# Malformed input that once leaked a numpy or Python exception, was taken
# for a failed assumption, or was broadcast into a wrong answer.
MALFORMED = [
    ("gradients-one-label", lambda: gradients(P, SOL, X, np.array([0.5]))),
    ("dense-one-label",
     lambda: dense_gradients_reference(P, SOL.z, X, np.array([0.5]))),
    ("gradients-short-y", lambda: gradients(P, SOL, X, np.zeros(3))),
    ("forward-1d-z", lambda: forward_layer(P, np.ones(P.m), X)),
    ("forward-nan-z", lambda: forward_layer(P, Z_NAN, X)),
    ("gram-1d-z", lambda: gram_min_eig(np.ones(3))),
    ("auto-eta-z-width", lambda: auto_eta(P, SOL.z[:, :3], X)),
    ("width-nan-lambda", lambda: suggested_width(4, np.nan)),
    ("depth-nan-lambda", lambda: suggested_depth(4, np.nan, 0.08)),
    ("dataset-nan-x", lambda: Dataset(x=X_NAN, y=np.zeros(4))),
    ("dataset-1d-x", lambda: Dataset(x=X[0], y=np.zeros(4))),
    ("dataset-short-y", lambda: Dataset(x=X, y=np.zeros(3))),
    ("dataset-inf-label", lambda: Dataset(x=X, y=Y_INF)),
    ("matrix-strings", lambda: as_matrix([["a", "b"]], "X")),
    ("matrix-ragged", lambda: as_matrix([[1.0], [2.0, 3.0]], "X")),
    ("params-string-w", lambda: DeqParams(w=[[0.1, "x"], [0, 0]], u=np.zeros((2, 3)),
                                          a=np.zeros(2), sigma_w2=0.08)),
    ("dataset-string-y", lambda: Dataset(x=X, y=["a", "b", "c"])),
    ("params-empty", lambda: DeqParams(w=np.zeros((0, 0)), u=np.zeros((0, 3)),
                                       a=np.zeros(0), sigma_w2=0.08)),
]


def _no_draw(*args, **kwargs):
    raise AssertionError("a refused value reached a random draw")


class TestRuleOwners:
    @pytest.mark.parametrize("rule, cls, calls", RULES,
                             ids=[rule for rule, *_ in RULES])
    def test_one_refusal_per_rule(self, monkeypatch, rule, cls, calls):
        monkeypatch.setattr(np.random, "default_rng", _no_draw)
        refusals = set()
        for call in calls:
            with pytest.raises(DeqlabError) as refused:
                call()
            refusals.add((type(refused.value), str(refused.value)))
        assert len(refusals) == 1, refusals
        assert refusals.pop()[0] is cls

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("holder, name, call", POSITIVE,
                             ids=[holder for holder, *_ in POSITIVE])
    def test_positive_and_finite(self, monkeypatch, holder, name, call, value):
        monkeypatch.setattr(np.random, "default_rng", _no_draw)
        with pytest.raises(InputError) as refused:
            call(value)
        assert str(refused.value) == f"{name} must be positive and finite, got {value}"

    @pytest.mark.parametrize("case, call", MALFORMED, ids=[c for c, _ in MALFORMED])
    def test_malformed_input_is_an_input_error(self, case, call):
        with pytest.raises(InputError):
            call()
