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

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import (
    ConvergenceError,
    InputError,
    TrainingAssertionError,
    WellPosednessError,
)
from .grad import (
    AdjointSolution,
    GradientTriple,
    grad_norm_sq,
    gradients,
    solve_adjoint,
    solve_sensitivity,
)
from .linalg import gram, min_eig_sym, spectral_norm
from .model import (
    DeqParams,
    EquilibriumSolution,
    SolverConfig,
    loss,
    predict,
    solve_equilibrium,
    well_posedness,
)
from .reporting import write_csv

__all__ = [
    "TrainConfig",
    "TrainRecord",
    "TrainTrace",
    "METRICS_HEADER",
    "SOLVER_TRACE_HEADER",
    "auto_eta",
    "gram_min_eig",
    "ntk_max_eig",
    "monitors",
    "train",
    "write_metrics_csv",
    "write_solver_trace_csv",
]

# Relative stop tolerance of the per-step Lanczos certificate: a tenth of
# spectral_norm's default, so consecutive warm calls from the secant start
# keep w_spec_norm within about 1e-11 of ||W||_2.
CERT_TOL = 1e-11

METRICS_HEADER = ("step,loss,w_spec_norm,lambda_tau,grad_norm_sq,"
                  "pl_ratio,rate_envelope,solver_iters,residual")
SOLVER_TRACE_HEADER = ("step,forward_iters,adjoint_iters,forward_residual,"
                       "adjoint_residual")


@dataclass(frozen=True)
class TrainConfig:
    """eta may be an explicit float or "auto": auto_eta at its default
    safety, 1 / lambda_max(H)."""

    eta: float | str = "auto"
    steps: int = 500
    monitor_every: int = 1
    solver: SolverConfig = field(default_factory=SolverConfig)
    assert_mode: str = "record"  # "record" or "fail-fast"

    def __post_init__(self):
        if isinstance(self.eta, str):
            if self.eta != "auto":
                raise InputError(f"eta must be a float or 'auto', got {self.eta!r}")
        elif self.eta <= 0:
            raise InputError("explicit eta must be positive")
        if self.steps < 1:
            raise InputError("steps must be >= 1")
        if self.monitor_every < 1:
            raise InputError("monitor_every must be >= 1")
        if self.assert_mode not in ("record", "fail-fast"):
            raise InputError(f"unknown assert_mode {self.assert_mode!r}")


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


@dataclass
class TrainTrace:
    records: list
    eta: float
    eta_mode: str
    lambda_0: float
    phi_0: float

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def gram_min_eig(z) -> float:
    """lambda_min(Z^T Z) for an m x n equilibrium matrix Z.

    Exactly 0.0 when m < n, since rank Z <= m < n. Otherwise the
    eigensolve's value, with negative roundoff projected to 0 (Z^T Z is
    positive semidefinite).
    """
    if z.shape[0] < z.shape[1]:
        return 0.0
    return max(0.0, min_eig_sym(gram(z)))


def ntk_max_eig(p: DeqParams, z, x, solver: SolverConfig = SolverConfig(),
                tol: float = 1e-3, max_sweeps: int = 30) -> float:
    """Top eigenvalue of the n x n tangent kernel H = (dyhat/dtheta)(..)^T.

    Power iteration using only fixed-point solves: for a direction v,
    H v = G v + S^T a where S is the equilibrium's first-order response
    to the parameter direction (M(v) Z^T, M(v) X^T, Z v). Column i of the
    adjoint M(v) = D .* (a v^T + W^T M(v)) is linear in v_i alone, so
    M(v) = M~ diag(v), with M~ solved once at v = 1. Each sweep makes one
    sensitivity solve, from the previous sweep's S. No mn x mn object is
    ever formed. Raises ConvergenceError if the estimate is not stable to
    a relative change of `tol` within `max_sweeps` sweeps.
    """
    z = np.asarray(z, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    mask = (p.w @ z + p.u @ x >= 0.0).astype(np.float64)
    g = z.T @ z
    k = g + x.T @ x
    n = z.shape[1]
    m_tilde = solve_adjoint(p, mask, np.ones(n), solver).m
    v = np.full(n, 1.0 / np.sqrt(n))
    lam = 0.0
    s_warm = None
    for _ in range(max_sweeps):
        rhs = m_tilde @ (v[:, None] * k)  # M(v) Z^T Z + M(v) X^T X
        s_warm = solve_sensitivity(p, mask, rhs, solver, s0=s_warm).m
        hv = g @ v + s_warm.T @ p.a
        norm_hv = float(np.linalg.norm(hv))
        if norm_hv == 0.0:
            return 0.0
        lam_new = float(v @ hv)
        v = hv / norm_hv
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new
        lam = lam_new
    raise ConvergenceError(
        f"tangent-kernel power iteration did not reach tol={tol:.1e} in "
        f"{max_sweeps} sweeps", residual=None, iterations=max_sweeps)


def auto_eta(p: DeqParams, z0, x, safety: float = 0.5,
             solver: SolverConfig = SolverConfig()) -> float:
    """Step size safety * 2 / lambda_max(H) from the measured tangent kernel.

    lambda_max(H) is the curvature of the linearized training dynamics,
    so eta < 2 / lambda_max(H) is the classical stability threshold and
    `safety` (default one half) buys margin against kernel drift. (The
    convergence theorem's own eta bound is reported by the condition
    checker; at desk scale it is orders of magnitude too small to move
    the loss, so the trainer uses this measured-curvature rule instead.)
    Raises WellPosednessError, from the first solve, unless ||W||_2 < 1.
    """
    lam = ntk_max_eig(p, z0, x, solver)
    if lam <= 0:
        raise InputError("tangent kernel has no positive curvature; "
                         "supply an explicit eta")
    return safety * 2.0 / lam


def monitors(p: DeqParams, sol: EquilibriumSolution, adj: AdjointSolution,
             grads: GradientTriple, phi: float, lambda_0: float,
             eta: float, tau: int, phi0: float) -> TrainRecord:
    """Assemble one monitored record from the step's own results: the
    equilibrium `sol` at `p`, its loss `phi`, its adjoint `adj` and the
    gradients `grads`. ||W||_2 is p's well-posedness certificate."""
    gsq = grad_norm_sq(grads)
    pl_ratio = gsq / (2.0 * phi) if phi > 0 else np.inf
    return TrainRecord(
        step=tau,
        loss=phi,
        w_spec_norm=well_posedness(p)[0],
        lambda_tau=gram_min_eig(sol.z),
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


def train(p0: DeqParams, data: Dataset, cfg: TrainConfig = TrainConfig(),
          start_step: int = 0, anchor: dict | None = None,
          on_checkpoint=None, checkpoint_every: int = 0):
    """Run `cfg.steps` full-batch GD updates; returns (params, trace).

    Every step, step 0 included, certifies ||W||_2 < 1, solves the
    equilibrium, evaluates the loss once and takes the gradients; step 0
    also fixes eta, lambda_0 and phi_0. Records are written at step 0,
    every `monitor_every`-th step, and the final step. In fail-fast mode
    a step after 0 aborts if ||W||_2 >= 1 or, under auto eta, if the loss
    increases by more than 1e-8 relative. Warm starts change iteration
    counts, never results beyond the solver tolerances: the certificate
    starts from the secant of the last two Ritz vectors, the forward
    solve from the secant of the last two Z, and the adjoint from the
    last M, seeded with W^T M updated by the rank-n step. A step holds
    W(0), W(tau) and the gradient G_W, whose buffer becomes W(tau+1).

    Resuming: `start_step` offsets the recorded step indices, and
    `anchor` = {"eta", "lambda_0", "phi_0"} pins the step size and the
    rate-envelope reference to the original run's values so a resumed
    trace continues the same envelope. `on_checkpoint(step, params)`
    fires every `checkpoint_every` updates (0 disables) and at the end.
    """
    if not isinstance(data, Dataset):
        raise InputError("train expects a Dataset (its constructor enforces "
                         "the data assumptions)")
    p = p0
    records = []
    v0 = v_prev = z0 = z_prev = m0 = wtm0 = None
    try:
        for tau in range(cfg.steps + 1):
            step = start_step + tau
            w_norm, v = spectral_norm(p.w, tol=CERT_TOL, v0=v0,
                                      return_vector=True)
            v0, v_prev = _certificate_start(v, v_prev), v
            w_norm, ok = well_posedness(p, w_norm)
            if not ok:
                message = (f"step {step}: ||W||_2 = {w_norm:.6f} >= 1, "
                           f"equilibrium existence lost")
                if cfg.assert_mode == "fail-fast" and tau > 0:
                    raise TrainingAssertionError(message)
                raise WellPosednessError(message)
            sol = solve_equilibrium(p, data.x, cfg.solver, z0=z0)
            phi = loss(predict(p, sol.z), data.y)
            if tau == 0 and anchor is not None:
                eta = float(anchor["eta"])
                eta_mode = "resumed"
                lambda_0 = float(anchor["lambda_0"])
                phi0 = float(anchor["phi_0"])
            elif tau == 0:
                lambda_0, phi0 = gram_min_eig(sol.z), phi
                if cfg.eta == "auto":
                    eta = auto_eta(p, sol.z, data.x, solver=cfg.solver)
                    eta_mode = "auto"
                else:
                    eta = float(cfg.eta)
                    eta_mode = "explicit"
            elif (cfg.assert_mode == "fail-fast" and eta_mode == "auto"
                    and phi > phi_prev * (1.0 + 1e-8)):
                raise TrainingAssertionError(
                    f"step {step}: loss increased from {phi_prev:.6e} to "
                    f"{phi:.6e} under auto eta")
            phi_prev = phi
            grads, adj = gradients(p, sol, data.x, data.y, cfg.solver,
                                   m0=m0, seed=wtm0)
            if tau % cfg.monitor_every == 0 or tau == cfg.steps:
                records.append(monitors(p, sol, adj, grads, phi, lambda_0,
                                        eta, step, phi0))
            if tau == cfg.steps:
                break

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
            if (on_checkpoint is not None and checkpoint_every > 0
                    and (tau + 1) % checkpoint_every == 0 and tau + 1 < cfg.steps):
                on_checkpoint(step + 1, p)
    except ConvergenceError as exc:
        raise ConvergenceError(f"at training step {step}: {exc}",
                               residual=exc.residual,
                               iterations=exc.iterations) from exc

    if on_checkpoint is not None:
        on_checkpoint(start_step + cfg.steps, p)
    return p, TrainTrace(records=records, eta=eta, eta_mode=eta_mode,
                         lambda_0=lambda_0, phi_0=phi0)


def write_metrics_csv(path, trace: TrainTrace, append: bool = False) -> None:
    """Metrics CSV with the exact header the experiment tooling expects."""
    names = METRICS_HEADER.split(",")
    write_csv(path, METRICS_HEADER,
              ([getattr(r, name) for name in names] for r in trace.records), append)


def write_solver_trace_csv(path, trace: TrainTrace, append: bool = False) -> None:
    """Solver-effort sidecar: forward and adjoint iterations and final
    residuals per recorded step, under SOLVER_TRACE_HEADER."""
    write_csv(path, SOLVER_TRACE_HEADER,
              ([r.step, r.solver_iters, r.adjoint_iters, r.residual,
                r.adjoint_residual] for r in trace.records), append)
