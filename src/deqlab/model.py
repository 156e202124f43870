"""DEQ parameters, initialization, and the contractive fixed-point solver.

The model is z* = relu(W z* + U x) per input column, with prediction
a^T z*. Initialization follows the variance scaling W ~ N(0, 2*sigma_w^2/m),
U ~ N(0, 2/d), a ~ N(0, 1/m) with sigma_w^2 < 1/8, which keeps the layer
map a contraction with high probability.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConvergenceError, InputError, WellPosednessError
from .linalg import as_matrix, check_budget, check_int, spectral_norm

__all__ = [
    "DeqParams",
    "SolverConfig",
    "EquilibriumSolution",
    "SIGMA_W2_MAX",
    "check_field_types",
    "check_shapes",
    "check_sigma_w2",
    "init_params",
    "forward_layer",
    "solve_equilibrium",
    "predict",
    "prediction_error",
    "loss",
    "well_posedness",
]

SIGMA_W2_MAX = 0.125  # the theory's standing assumption: sigma_w^2 < 1/8

# Relative gap below 1 that a spectral_norm estimate needs to certify
# ||W||_2 < 1 on its own; see well_posedness.
CERT_MARGIN = 1e-5

# Picard solves whose layer map costs at least this many multiply-adds
# (m^2 n) run in defect-correction rounds with float32 iterations on the
# correction; see _iterate. Rounds were at least as fast as plain float64
# from m^2 n = 6.4e5 on (2 OpenBLAS threads), so the cut does not follow
# speed: it keeps the small solves that finite differences resolve in
# plain float64.
F32_MIN_MADDS = 2**22
# The float32 rounding floor of a correction round, relative to ||r||.
_ROUND_FLOOR = 2.0 * float(np.finfo(np.float32).eps)


def check_sigma_w2(sigma_w2: float) -> None:
    """Raise InputError unless 0 < sigma_w2 < SIGMA_W2_MAX."""
    if not (0.0 < sigma_w2 < SIGMA_W2_MAX):
        raise InputError(f"sigma_w2 must lie in (0, 1/8), got {sigma_w2}")


# The values a field's string annotation admits: an int is a float, a
# bool is neither, `list[int]` is a list of ints, and any other name is a
# class named in the checked type's module, such as TrainConfig.solver's.
_ADMITS = {"int": (int,), "float": (int, float), "str": (str,),
           "list": (list,), "None": (type(None),)}


def _admits(annotation: str, v, scope) -> bool:
    """Whether `v` fits one alternative of a field annotation."""
    return any(isinstance(v, list) and all(_admits(kind[5:-1], x, scope) for x in v)
               if kind.startswith("list[") else
               isinstance(v, _ADMITS.get(kind) or getattr(scope, kind))
               and not isinstance(v, bool)
               for kind in annotation.split(" | "))


def check_field_types(obj) -> None:
    """Raise InputError unless each field of dataclass `obj` fits its annotation."""
    scope = sys.modules[type(obj).__module__]
    for f in fields(obj):
        if not _admits(f.type, value := getattr(obj, f.name), scope):
            raise InputError(f"{f.name} must be {f.type}, got {value!r}")


@dataclass(frozen=True)
class DeqParams:
    """Trainable triple (W, U, a) plus the variance scale sigma_w^2.

    The arrays are read-only, so the well-posedness certificate that
    well_posedness stores on the object, (||W||_2, ok, Ritz vector or
    None), cannot go stale: an array passed in is marked read-only itself,
    and a view is copied first, since its base could still be written.
    """

    w: np.ndarray  # (m, m)
    u: np.ndarray  # (m, d)
    a: np.ndarray  # (m,)
    sigma_w2: float
    _certificate: tuple | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        w = as_matrix(self.w, "W")
        m = w.shape[0]
        if w.shape[1] != m:
            raise InputError(f"W must be square, got {w.shape}")
        arrays = {"w": w, "u": as_matrix(self.u, "U", (m, None)),
                  "a": as_matrix(self.a, "a", (m,))}
        check_sigma_w2(self.sigma_w2)
        for name, arr in arrays.items():
            arr = arr if arr.base is None else arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def d(self) -> int:
        return self.u.shape[1]


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        check_field_types(self)
        check_budget(self.tol, self.max_iter)


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium features Z (m x n) with convergence diagnostics.

    `pre` is the pre-activation W Z + U X at the returned Z, so the ReLU
    mask of the equilibrium is pre >= 0. It is formed from the solve's
    last float64 product, made at the returned Z itself, and is bitwise
    equal to p.w @ z + p.u @ x. `residual` is ||Z - relu(W Z + U X)||_F /
    max(1, ||Z||_F) for the returned Z. `iterations` counts layer-map
    applications. `residuals` is the per-iterate residual history (one
    entry per application).
    """

    z: np.ndarray
    pre: np.ndarray
    residual: float
    iterations: int
    residuals: tuple = ()


def init_params(m: int, d: int, sigma_w2: float, seed: int) -> DeqParams:
    """Gaussian initialization; deterministic in (m, d, sigma_w2, seed).

    Draw order is W, then U, then a, from one PCG64 stream.
    """
    check_int(m, "m")
    check_int(d, "d")
    check_sigma_w2(sigma_w2)
    check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, m)) * np.sqrt(2.0 * sigma_w2 / m)
    u = rng.standard_normal((m, d)) * np.sqrt(2.0 / d)
    a = rng.standard_normal(m) * np.sqrt(1.0 / m)
    return DeqParams(w=w, u=u, a=a, sigma_w2=sigma_w2)


def check_shapes(p: DeqParams, z, x) -> tuple[np.ndarray, np.ndarray]:
    """(Z, X) by as_matrix, which refuses them unless Z is m x n and X is
    d x n for p's m and d and one n."""
    z = as_matrix(z, "Z", (p.m, None))
    return z, as_matrix(x, "X", (p.d, z.shape[1]))


def forward_layer(p: DeqParams, z, x) -> np.ndarray:
    """One layer application: relu(W z + U x)."""
    z, x = check_shapes(p, z, x)
    return np.maximum(p.w @ z + p.u @ x, 0.0)


class _ReluMap:
    """The equilibrium map z -> relu(W z + b) for _iterate, which forms
    the product W z and passes it in; `pre` = W z + b is the last one's.

    Its increment at a point z_b, L(d) = relu(W (z_b + d) + b) - relu(pre)
    with pre = W z_b + b, is evaluated from out = W d as
    max(out, -pre) + min(pre, 0), which has no cancellation: its float32
    rounding is relative to ||d||, not to ||z_b||. Images of the map are
    nonnegative, so a corrected iterate is clipped at 0.
    """

    clip = True

    def __init__(self, op, b):
        self.op, self.b, self.shape = op, b, b.shape
        self.pre = np.empty(b.shape)

    def __call__(self, product):
        np.add(product, self.b, out=self.pre)
        return np.maximum(self.pre, 0.0)

    def increment(self):
        """Float32 rule at the last call's point, for out = W d in place."""
        neg = np.negative(self.pre, dtype=np.float32)
        pos = np.maximum(neg, 0.0)  # -min(pre, 0)

        def rule(out):
            np.maximum(out, neg, out=out)
            out -= pos
        return rule


def _iterate(p: DeqParams, step, x0, cfg: SolverConfig, what: str,
             seed=None):
    """Picard iteration x <- step(op @ x), op = step.op, from x = x0 until
    ||x+ - x||_F / max(1, ||x||_F) <= cfg.tol; returns (x, residual,
    iterations, residuals) for the first x that meets the rule. The last
    application of `step` is the float64 one made at that x.

    The one entry of the forward, adjoint and sensitivity solves, and the
    one place that forms their operator products. Before any product with
    W it checks the certificate ||W||_2 < 1 of `p` (WellPosednessError),
    a start of the map's shape with finite entries (as_matrix),
    nonnegative for a map with `clip`, and a seed only with its start, of
    the same shape and finite (InputError).

    `step` holds only a map's elementwise rule: step(product) returns the
    image of the point whose product with op is `product`. A `seed` is
    that product at the start x0, known from elsewhere: the first
    application is then step(seed), which counts in no `iterations`, adds
    no residual and never stops the loop. A wrong seed costs iterations,
    never accuracy. x0 = None is the zero start of shape `step.shape`,
    whose product is zero: its first application is step(0), which makes
    no product but otherwise is an application like any other (it counts,
    adds its residual and can stop the loop), so the solve is bitwise the
    one from an explicit zero array.

    One application costs m^2 n multiply-adds for an m x m op and an
    (m, n) iterate. From F32_MIN_MADDS on, the solve runs in
    defect-correction rounds. A round applies `step` once in float64 at
    its base x_b, which gives r = step(op @ x_b) - x_b and the stop test,
    and then iterates d <- r + L(d) from d = r in float32: L forms
    out = op32 @ d with the solve's one float32 copy op32 of op (made at
    its first round, dropped when it returns) and applies the map's
    float32 rule at x_b, step.increment(), to out in place. Every float32
    application is an exact Picard step on x_b + d, so its float32
    rounding is relative to ||r||, not ||x||. A round ends when the
    predicted next increment (inc^2 / previous inc) falls to
    max(tol, _ROUND_FLOOR * ||r||_F / max(1, ||x_b + d||_F)),
    where the next float64 residual should meet the stop rule or reach
    the float32 rounding floor of the round, or when the increments stop
    contracting; then x_b <- x_b + d, clipped at 0 for a map with `clip`.
    Only a float64 residual can stop the loop. Below the cut the loop is
    plain float64, bit for bit. Speed alone would put the cut lower:
    over n in {16, 64, 200} and m from 100 to 1600, cold and warm rounds
    were at least as fast as the float64 loop from m^2 n = 6.4e5 on
    (2 OpenBLAS threads). The cut exists to keep the finite-difference
    regime smooth: float32 rounding makes the solution non-smooth in the
    parameters at the tolerance level, which the finite-difference
    references and grad-check (m^2 n <= 1.6e4) resolve.
    Every application but a seeded one counts in `iterations` and adds
    one residual; a float32 one is ||d+ - d||_F / max(1, ||x_b + d||_F).
    """
    w_norm, ok = well_posedness(p)
    if not ok:
        raise WellPosednessError(f"||W||_2 = {w_norm:.6f} >= 1: the {what} "
                                 f"map is not a contraction")
    if seed is not None and x0 is None:
        raise InputError(f"{what} seed given without its start")
    x, seed = (None if a is None else as_matrix(a, f"{what} {name}", step.shape)
               for a, name in ((x0, "start"), (seed, "seed")))
    if step.clip and x is not None and np.any(x < 0.0):
        raise InputError(f"{what} start must be nonnegative (a ReLU image)")
    counted = seed is None
    if x is None:
        x, seed = np.zeros(step.shape), np.zeros(step.shape)
    m, n = x.shape
    rounds = m * m * n >= F32_MIN_MADDS
    if rounds:  # float32 r, x_b, d and d+, reused by every round
        r32, x32, d, buf = (np.empty((m, n), np.float32) for _ in range(4))
    op32 = None
    history = []
    k = 0
    while k < cfg.max_iter:
        x_next = step(step.op @ x if seed is None else seed)
        seed = None
        r_norm = np.linalg.norm(x_next - x)
        res = float(r_norm / max(1.0, np.linalg.norm(x)))
        if counted:
            k += 1
            history.append(res)
            if res <= cfg.tol:
                return x, res, k, tuple(history)
        counted = True
        if not rounds:
            x = x_next
            continue
        if op32 is None:
            op32 = step.op.astype(np.float32)
        rule = step.increment()
        np.subtract(x_next, x, out=r32, casting="same_kind")
        np.copyto(x32, x, casting="same_kind")
        np.copyto(d, r32)
        del x_next  # no float64 m x n temporary lives through a round
        prev = res
        while k < cfg.max_iter:
            scale = max(1.0, float(np.linalg.norm(np.add(x32, d, out=buf))))
            np.matmul(op32, d, out=buf)
            rule(buf)
            buf += r32
            k += 1
            d -= buf
            inc = float(np.linalg.norm(d) / scale)
            d, buf = buf, d
            history.append(inc)
            floor = max(cfg.tol, _ROUND_FLOOR * r_norm / scale)
            if inc * inc <= floor * prev or inc >= prev:
                break
            prev = inc
        x = x + d
        if step.clip:
            np.maximum(x, 0.0, out=x)
    raise ConvergenceError(
        f"{what} solve did not reach tol={cfg.tol:.1e} in "
        f"{cfg.max_iter} iterations (last residual {history[-1]:.3e})",
        residual=history[-1], iterations=cfg.max_iter)


def solve_equilibrium(p: DeqParams, x, cfg: SolverConfig = SolverConfig(),
                      z0=None) -> EquilibriumSolution:
    """Picard iteration Z <- relu(W Z + U X) until the residual meets tol.

    Starts from Z = 0 unless `z0` (a nonnegative warm start, typically a
    previous solution for nearby parameters) is given; the zero start's
    first application is relu(U X), with no product with W. Geometric
    convergence at rate <= ||W||_2 under well-posedness.
    """
    x = as_matrix(x, "X", (p.d, None))
    relu_map = _ReluMap(p.w, p.u @ x)
    z, res, k, history = _iterate(p, relu_map, z0, cfg, "equilibrium")
    return EquilibriumSolution(z=z, pre=relu_map.pre, residual=res,
                               iterations=k, residuals=history)


def predict(p: DeqParams, z) -> np.ndarray:
    """Per-column readout a^T z_i."""
    return p.a @ as_matrix(z, "Z", (p.m, None))


def prediction_error(yhat, y) -> np.ndarray:
    """e = yhat - y for finite vectors; InputError unless they hold one
    label per prediction."""
    yhat = as_matrix(yhat, "yhat", (None,))
    return yhat - as_matrix(y, "y", yhat.shape)


def loss(yhat, y) -> float:
    """Quadratic empirical risk 0.5 * ||yhat - y||_2^2."""
    diff = prediction_error(yhat, y)
    return 0.5 * float(diff @ diff)


def well_posedness(p: DeqParams, w_norm: float | None = None):
    """(||W||_2, ok) where ok means ||W||_2 < 1: the certificate that every
    solver and the trainer check before relying on a contraction.

    Decided once per parameter set: the first call stores its result on
    `p`, and later calls return it and ignore `w_norm`. `w_norm` is a
    spectral_norm estimate of ||W||_2, computed here when omitted; the
    certificate then also keeps that run's unit Ritz vector (W's top right
    singular direction), from which train warm-starts its own estimates.
    Lanczos converges to ||W||_2 from below, so the estimate decides alone
    only when w_norm * (1 + CERT_MARGIN) < 1; otherwise the exact
    np.linalg.norm(W, 2) decides and is the norm returned.
    """
    if p._certificate is None:
        ritz = None
        if w_norm is None:
            w_norm, ritz = spectral_norm(p.w, return_vector=True)
        if w_norm * (1.0 + CERT_MARGIN) >= 1.0:
            w_norm = float(np.linalg.norm(p.w, 2))
        object.__setattr__(p, "_certificate", (w_norm, w_norm < 1.0, ritz))
    return p._certificate[:2]

