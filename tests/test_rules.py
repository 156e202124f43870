"""Each rule the library shares between entry points has one owner: every
entry point holding the rule refuses a value with the same error class
and the same message, before any random draw."""

import numpy as np
import pytest

from deqlab.data import Dataset, gen_sphere_data, normalize_to_sphere
from deqlab.errors import AssumptionError, DeqlabError, InputError
from deqlab.grad import dense_gradients_reference, gradients
from deqlab.kernel import (
    kernel_fixed_point,
    kernel_layer_sequence,
    suggested_depth,
    suggested_width,
)
from deqlab.linalg import as_matrix
from deqlab.model import forward_layer, init_params, solve_equilibrium

X = gen_sphere_data(4, 3, seed=0).x  # d = 3, n = 4
P = init_params(10, 3, 0.08, seed=0)
SOL = solve_equilibrium(P, X)
X_N5 = gen_sphere_data(5, 3, seed=0).x  # one column more than SOL.z
X_D4 = gen_sphere_data(4, 4, seed=0).x  # one row more than U has columns
OFF = X * np.array([1.0, 2.0, 1.0, 0.5])  # columns 1 and 3 off the sphere


def _shape_calls(x):
    y = np.zeros(x.shape[1])
    return [lambda: forward_layer(P, SOL.z, x),
            lambda: gradients(P, SOL, x, y),
            lambda: dense_gradients_reference(P, SOL.z, x, y)]


def _matrix_calls(a):
    return [lambda: normalize_to_sphere(a), lambda: as_matrix(a, "X")]


# Per rule: the class it raises and every library entry point holding it,
# called with a value it refuses.
RULES = [
    ("shape-n", InputError, _shape_calls(X_N5)),
    ("shape-d", InputError, _shape_calls(X_D4)),
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
