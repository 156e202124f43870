"""Full-batch gradient descent on (W, U, a) with convergence monitors.

Each monitored step records the loss, the spectral norm of W (the
well-posedness certificate), the least Gram eigenvalue lambda_tau, the
squared gradient norm, the PL ratio ||grad||^2 / (2 Phi), and the linear
rate envelope (1 - eta lambda_0 / 2)^tau Phi(0). The envelope, like
lambda_tau and the PL ratio, is recorded for comparison with the theorem,
not enforced: the initialization condition the theorem assumes rarely
holds at desk scale.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from . import __version__
from .data import Dataset
from .errors import ConvergenceError, InputError, WellPosednessError
from .grad import (
    AdjointSolution,
    GradientTriple,
    grad_norm_sq,
    gradients,
    solve_adjoint,
    solve_sensitivity,
)
from .linalg import check_positive, gram, min_eig_sym, spectral_norm
from .model import (
    DeqParams,
    EquilibriumSolution,
    SolverConfig,
    check_field_types,
    check_shapes,
    loss,
    predict,
    solve_equilibrium,
    well_posedness,
)

__all__ = [
    "TrainConfig",
    "TrainRecord",
    "TrainState",
    "TrainTrace",
    "METRICS_HEADER",
    "SOLVER_TRACE_HEADER",
    "auto_eta",
    "checkpoint_due",
    "gram_min_eig",
    "load_checkpoint",
    "ntk_max_eig",
    "metrics_row",
    "monitors",
    "save_checkpoint",
    "solver_trace_row",
    "train",
    "train_steps",
]

# Relative stop tolerance of the per-step Lanczos certificate: a tenth of
# spectral_norm's default, so consecutive warm calls from the secant start
# keep w_spec_norm within about 1e-11 of ||W||_2.
CERT_TOL = 1e-11

# Largest relative gap between the tangent kernel's matrix-free and
# closed-form Rayleigh quotients that ntk_max_eig accepts.
CHECK_TOL = 1e-3

METRICS_HEADER = ("step,loss,w_spec_norm,lambda_tau,grad_norm_sq,"
                  "pl_ratio,rate_envelope,solver_iters,residual")
SOLVER_TRACE_HEADER = ("step,forward_iters,adjoint_iters,forward_residual,"
                       "adjoint_residual")

CHECKPOINT_VERSION = 2  # the one format load_checkpoint reads


@dataclass(frozen=True)
class TrainConfig:
    """eta may be an explicit float or "auto": auto_eta at its default
    safety, 1 / lambda_max(H)."""

    eta: float | str = "auto"
    steps: int = 500
    monitor_every: int = 1
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        check_field_types(self)
        if isinstance(self.eta, str):
            if self.eta != "auto":
                raise InputError(f"eta must be a float or 'auto', got {self.eta!r}")
        else:
            check_positive(self.eta, "explicit eta")
        if self.steps < 1:
            raise InputError("steps must be >= 1")
        if self.monitor_every < 1:
            raise InputError("monitor_every must be >= 1")


@dataclass(frozen=True)
class TrainRecord:
    step: int
    loss: float
    w_spec_norm: float
    lambda_tau: float
    grad_norm_sq: float
    pl_ratio: float
    rate_envelope: float
    solver_iters: int
    residual: float
    adjoint_iters: int
    adjoint_residual: float


@dataclass(frozen=True)
class TrainState:
    """Where a run stands: the step of the parameters it comes with, and
    the anchors eta (with its mode), lambda_0 and phi_0, all four set or
    none; a run's first step fixes them unless it resumes with them."""

    step: int = 0
    eta: float | None = None
    eta_mode: str | None = None
    lambda_0: float | None = None
    phi_0: float | None = None

    def __post_init__(self):
        check_field_types(self)
        anchors = (self.eta, self.lambda_0, self.phi_0)
        unset = (*anchors, self.eta_mode).count(None)
        if not (self.step >= 0 and (unset == 4 or not unset and self.eta > 0
                and min(anchors) >= 0 and np.isfinite(anchors).all())):
            raise InputError(f"TrainState needs a step >= 0 and all four anchors or "
                             f"none, eta > 0 and lambda_0, phi_0 >= 0 finite; got {self}")


@dataclass(frozen=True)
class TrainTrace(TrainState):
    """A run's records, with the state it ended in."""

    records: list = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def gram_min_eig(z) -> float:
    """lambda_min(Z^T Z) for an m x n equilibrium matrix Z.

    Exactly 0.0 when m < n, since rank Z <= m < n. Otherwise the
    eigensolve's value, with negative roundoff projected to 0 (Z^T Z is
    positive semidefinite).
    """
    g = gram(z)
    if np.shape(z)[0] < g.shape[0]:
        return 0.0
    return max(0.0, min_eig_sym(g))


def _top_eigenvector(h) -> np.ndarray:
    """Unit eigenvector of the symmetric matrix h's largest eigenvalue."""
    return np.linalg.eigh(h)[1][:, -1]


def ntk_max_eig(p: DeqParams, z, x, solver: SolverConfig = SolverConfig(),
                *, pre=None) -> float:
    """Top eigenvalue of the n x n tangent kernel H = (dyhat/dtheta)(..)^T.

    For a direction v, H v = G v + S^T a, where G = Z^T Z and S is the
    equilibrium's first-order response to the parameter direction
    (M(v) Z^T, M(v) X^T, Z v). Column i of the adjoint
    M(v) = D .* (a v^T + W^T M(v)) is linear in v_i alone, so
    M(v) = M~ diag(v) with M~ from one adjoint solve at v = 1, and H has
    the closed form (M~^T M~) .* (Z^T Z + X^T X) + Z^T Z. Its top
    eigenvector v gives the returned value v^T (G v + S^T a), with S from
    one cold sensitivity solve: the matrix-free Rayleigh quotient, which
    checks the closed form's. Both use the same M~, so they differ only
    by solver error; ConvergenceError is raised if that exceeds
    CHECK_TOL relative. No mn x mn object is ever formed. `pre` = W Z +
    U X, if the caller holds it, saves one m^2 n product.
    """
    # kept local: a module-level import is a traced binding the tracer lacks
    from .grad import activation_mask

    z, x = check_shapes(p, z, x)
    g, gx = gram(z), gram(x)
    k = g + gx
    mask = activation_mask(p.w @ z + p.u @ x if pre is None else pre)
    m_tilde = solve_adjoint(p, mask, np.ones(g.shape[0]), solver).m
    h = (m_tilde.T @ m_tilde) * k + g
    v = _top_eigenvector(h)
    lam_closed = float(v @ (h @ v))
    rhs = m_tilde @ (v[:, None] * k)  # M(v) Z^T Z + M(v) X^T X
    s = solve_sensitivity(p, mask, rhs, solver).m
    lam = float(v @ (g @ v + s.T @ p.a))
    if abs(lam - lam_closed) > CHECK_TOL * abs(lam):
        raise ConvergenceError(
            f"tangent kernel: matrix-free v.Hv = {lam:.6e} and closed-form "
            f"{lam_closed:.6e} differ by more than {CHECK_TOL:.0e} relative")
    return lam


def auto_eta(p: DeqParams, z0, x, safety: float = 0.5,
             solver: SolverConfig = SolverConfig(), *, pre=None) -> float:
    """Step size safety * 2 / lambda_max(H) from the measured tangent kernel.

    lambda_max(H) is the curvature of the linearized training dynamics,
    so eta < 2 / lambda_max(H) is the classical stability threshold and
    `safety` (default one half) buys margin against kernel drift. (The
    convergence theorem's own eta bound is reported by the condition
    checker; at desk scale it is orders of magnitude too small to move
    the loss, so the trainer uses this measured-curvature rule instead.)
    `pre` is passed on to ntk_max_eig. Raises WellPosednessError, from
    the first solve, unless ||W||_2 < 1.
    """
    lam = ntk_max_eig(p, z0, x, solver, pre=pre)
    if lam <= 0:
        raise InputError("tangent kernel has no positive curvature; "
                         "supply an explicit eta")
    return safety * 2.0 / lam


def monitors(p: DeqParams, sol: EquilibriumSolution, adj: AdjointSolution,
             grads: GradientTriple, phi: float, lambda_0: float,
             eta: float, tau: int, phi0: float,
             lambda_tau: float | None = None) -> TrainRecord:
    """Assemble one monitored record from the step's own results: the
    equilibrium `sol` at `p`, its loss `phi`, its adjoint `adj` and the
    gradients `grads`. ||W||_2 is p's well-posedness certificate.
    `lambda_tau` is gram_min_eig(sol.z), computed here when omitted."""
    gsq = grad_norm_sq(grads)
    pl_ratio = gsq / (2.0 * phi) if phi > 0 else np.inf
    if lambda_tau is None:
        lambda_tau = gram_min_eig(sol.z)
    return TrainRecord(
        step=tau,
        loss=phi,
        w_spec_norm=well_posedness(p)[0],
        lambda_tau=lambda_tau,
        grad_norm_sq=gsq,
        pl_ratio=pl_ratio,
        rate_envelope=(1.0 - eta * lambda_0 / 2.0) ** tau * phi0,
        solver_iters=sol.iterations,
        residual=sol.residual,
        adjoint_iters=adj.iterations,
        adjoint_residual=adj.residual,
    )


def _secant(cur, prev):
    """Secant extrapolation 2 cur - prev of a step's solution to the next
    step; cur itself when there is no previous solution."""
    return cur if prev is None else 2.0 * cur - prev


def _certificate_start(v, v_prev):
    """The next certificate's Lanczos start: the secant of the last two
    Ritz vectors `v` and `v_prev`, after turning v_prev to v's side (a
    Ritz vector's sign is arbitrary)."""
    if v_prev is None:
        return v
    return _secant(v, np.copysign(1.0, v @ v_prev) * v_prev)


def train_steps(p0: DeqParams, data: Dataset, cfg: TrainConfig = TrainConfig(),
                state: TrainState = TrainState()):
    """Run `cfg.steps` full-batch GD updates from `p0`, one step at a time.

    Every step, step 0 included, certifies ||W||_2 < 1 (WellPosednessError
    otherwise), solves the equilibrium, evaluates the loss once and takes
    the gradients; the first step of a `state` without anchors fixes them,
    lambda_0 being its lambda_tau. A `p0` that well_posedness certified by
    its own Lanczos run brings that run's norm and Ritz vector; any other
    gets a cold run at CERT_TOL. Warm starts change iteration counts, never
    results beyond the solver tolerances: the certificate starts from the
    secant of the last two Ritz vectors, the forward solve from that of the
    last two Z, the adjoint from the last M, seeded with W^T M updated by
    the rank-n step.

    After each step's update it yields (record, params, state): the step's
    TrainRecord, or None off the monitor cadence (the first step, every
    `monitor_every`-th and the last); the updated parameters, or the last
    step's own; and their TrainState. None of it is written to again, but
    a consumer that keeps `params` past the next step holds one W more
    than the step's W(0), W(tau) and the gradient that becomes W(tau+1).
    """
    if not isinstance(data, Dataset):
        raise InputError("train expects a Dataset (its constructor enforces "
                         "the data assumptions)")
    p = p0
    v0 = v_prev = z0 = z_prev = m0 = wtm0 = None
    try:
        for tau in range(cfg.steps + 1):
            step = state.step
            cert = p._certificate
            if cert is not None and cert[2] is not None:
                w_norm, ok, v = cert
            else:
                w_norm, v = spectral_norm(p.w, tol=CERT_TOL, v0=v0,
                                          return_vector=True)
                w_norm, ok = well_posedness(p, w_norm)
            v0, v_prev = _certificate_start(v, v_prev), v
            if not ok:
                raise WellPosednessError(f"step {step}: ||W||_2 = {w_norm:.6f} >= 1, "
                                         f"contraction certificate lost")
            sol = solve_equilibrium(p, data.x, cfg.solver, z0=z0)
            phi = loss(predict(p, sol.z), data.y)
            lambda_tau = None
            if state.eta is None:  # the run's first step fixes its anchors
                lambda_tau, auto = gram_min_eig(sol.z), cfg.eta == "auto"
                eta = auto_eta(p, sol.z, data.x, solver=cfg.solver,
                               pre=sol.pre) if auto else float(cfg.eta)
                state = TrainState(step, eta, "auto" if auto else "explicit",
                                   lambda_tau, phi)
            eta = state.eta
            grads, adj = gradients(p, sol, data.x, data.y, cfg.solver,
                                   m0=m0, seed=wtm0)
            record = (monitors(p, sol, adj, grads, phi, state.lambda_0, eta, step,
                               state.phi_0, lambda_tau)
                      if tau % cfg.monitor_every == 0 or tau == cfg.steps else None)
            if tau < cfg.steps:
                # next step's starts; a Z start must be >= 0
                z0 = np.maximum(_secant(sol.z, z_prev), 0.0)
                z_prev, m0 = sol.z, adj.m
                # W+^T M = W^T M - eta Z (M^T M): two m n^2 products
                wtm0 = adj.product - eta * (sol.z @ (adj.m.T @ adj.m))
                # W - eta G_W in G_W's own buffer, without a W-sized
                # temporary: negation is exact, so this is bitwise the same sum
                w = grads.gw
                w *= -eta
                w += p.w
                p = DeqParams(w=w, u=p.u - eta * grads.gu,
                              a=p.a - eta * grads.ga, sigma_w2=p.sigma_w2)
                state = replace(state, step=step + 1)
            yield record, p, state
    except ConvergenceError as exc:
        raise ConvergenceError(f"at training step {step}: {exc}",
                               residual=exc.residual,
                               iterations=exc.iterations) from exc


def checkpoint_due(tau: int, steps: int, every: int) -> bool:
    """Whether yield `tau` checkpoints: every `every`-th update but the last; the end."""
    return tau == steps or (every > 0 and (tau + 1) % every == 0 and tau + 1 < steps)


def train(p0: DeqParams, data: Dataset, cfg: TrainConfig = TrainConfig(),
          state: TrainState = TrainState(), on_checkpoint=None,
          checkpoint_every: int = 0):
    """train_steps run to the end: the last params and their TrainTrace.
    `on_checkpoint(step, params)` fires where checkpoint_due says: after
    an update, before the next step's certificate, and at the end."""
    records = []
    for tau, (record, p, state) in enumerate(train_steps(p0, data, cfg, state)):
        if record is not None:
            records.append(record)
        if on_checkpoint is not None and checkpoint_due(tau, cfg.steps, checkpoint_every):
            on_checkpoint(state.step, p)
    return p, TrainTrace(**vars(state), records=records)


def save_checkpoint(path, p: DeqParams, state: TrainState, config_hash: str) -> None:
    """p and its anchored `state` as one format-2 `.npz` at `path`, written
    to a temporary name and renamed: `path` holds all of it or what it held."""
    tmp = Path(path).with_suffix(".tmp.npz")
    try:
        np.savez(tmp, format_version=CHECKPOINT_VERSION, m=p.m, d=p.d,
                 sigma_w2=p.sigma_w2, w=p.w, u=p.u, a=p.a, step=state.step,
                 eta=float(state.eta), lambda_0=float(state.lambda_0),
                 phi_0=float(state.phi_0), config_hash=config_hash,
                 artifact_version=__version__)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> tuple[DeqParams, TrainState]:
    """(params, TrainState(..., "resumed")) of a format-2 checkpoint; InputError
    for anything else, a state TrainState refuses or a non-integer step included."""
    try:
        with np.load(path) as npz:
            ckpt = {key: npz[key] for key in npz.files}
        version = operator.index(ckpt["format_version"])
        if version != CHECKPOINT_VERSION:
            raise InputError(f"unsupported checkpoint version {version}")
        p = DeqParams(ckpt["w"], ckpt["u"], ckpt["a"], float(ckpt["sigma_w2"]))
        state = TrainState(operator.index(ckpt["step"]), float(ckpt["eta"]), "resumed",
                           float(ckpt["lambda_0"]), float(ckpt["phi_0"]))
    except (OSError, EOFError, KeyError, TypeError, ValueError, BadZipFile) as exc:
        raise InputError(f"{path} is not a deqlab checkpoint: "
                         f"{type(exc).__name__}: {exc}") from exc
    return p, state


def metrics_row(r: TrainRecord) -> list:
    """r's row of the metrics CSV, under the exact METRICS_HEADER."""
    return [getattr(r, name) for name in METRICS_HEADER.split(",")]


def solver_trace_row(r: TrainRecord) -> list:
    """r's row of the solver-effort sidecar, under SOLVER_TRACE_HEADER."""
    return [r.step, r.solver_iters, r.adjoint_iters, r.residual,
            r.adjoint_residual]
