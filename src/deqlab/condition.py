"""Over-parameterization condition and norm-inequality diagnostics.

Everything here is a report, never a gate: at desk scale the constants
are usually unachievable (the initial loss grows like n), so training
proceeds regardless and the margins are logged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import as_matrix, check_positive, spectral_norm
from .model import DeqParams, well_posedness
from .reporting import write_csv

__all__ = [
    "InitBounds",
    "ConditionReport",
    "init_bounds",
    "check_condition",
    "write_condition_csv",
]


@dataclass(frozen=True)
class InitBounds:
    """delta-inflated norm bounds at initialization and their c-constants.

    rho_w = ||W(0)|| + delta (must stay below 1), rho_u = ||U(0)|| + delta,
    rho_a = ||a(0)|| + delta, and

        c_w = rho_u rho_a / (1 - rho_w)^2,
        c_u = rho_a / (1 - rho_w),
        c_a = rho_u / (1 - rho_w).
    """

    delta: float
    rho_w: float
    rho_u: float
    rho_a: float
    c_w: float
    c_u: float
    c_a: float


@dataclass(frozen=True)
class ConditionReport:
    """Margins (lhs - rhs) of the three initialization inequalities.

    satisfied[k] is margins[k] >= 0. eta_max is the learning-rate bound
    min(2/lambda_0, 2(c_w^2+c_u^2) / ((c_w^2+c_u^2+c_a^2)^2 ||X||_F^2)).
    """

    lambda_0: float
    margins: tuple
    satisfied: tuple
    eta_max: float
    phi_0: float


def init_bounds(p: DeqParams, delta: float | None = None) -> InitBounds:
    """Compute the delta-inflated bounds; delta=None takes half the gap to 1."""
    w_norm, ok = well_posedness(p)
    if not ok:
        raise InputError(f"||W(0)||_2 = {w_norm:.6f} >= 1; no valid delta exists")
    if delta is None:
        delta = 0.5 * (1.0 - w_norm)
    check_positive(delta, "delta")
    rho_w = w_norm + delta
    if rho_w >= 1.0:
        raise InputError(
            f"delta = {delta} makes rho_w = {rho_w:.6f} >= 1; pick delta < "
            f"{1 - w_norm:.6f}")
    rho_u = spectral_norm(p.u) + delta
    rho_a = float(np.linalg.norm(p.a)) + delta
    gap = 1.0 - rho_w
    return InitBounds(delta=delta, rho_w=rho_w, rho_u=rho_u, rho_a=rho_a,
                      c_w=rho_u * rho_a / gap**2, c_u=rho_a / gap,
                      c_a=rho_u / gap)


def check_condition(b: InitBounds, lambda_0: float, x,
                    residual_norm_0: float) -> ConditionReport:
    """Evaluate the three initialization inequalities and the eta bound.

    residual_norm_0 is ||yhat(0) - y||_2. The three inequalities are

        lambda_0       >= (4/delta) max(c_w, c_u, c_a) ||X||_F r0,
        lambda_0^(3/2) >= 4 (2 + sqrt 2) rho_a^{-1} (c_w^2 + c_u^2) ||X||_F^2 r0,
        lambda_0       >= 4 (c_w^2 + c_u^2) ||X||_F^2.
    """
    for name, value in (("lambda_0", lambda_0), ("residual_norm_0", residual_norm_0)):
        if not 0.0 <= value < math.inf:  # also refuses nan
            raise InputError(f"{name} must be >= 0 and finite, got {value}")
    x = as_matrix(x, "X")
    xf = float(np.linalg.norm(x))
    c_sq = b.c_w**2 + b.c_u**2

    rhs1 = (4.0 / b.delta) * max(b.c_w, b.c_u, b.c_a) * xf * residual_norm_0
    rhs2 = 4.0 * (2.0 + math.sqrt(2.0)) / b.rho_a * c_sq * xf**2 * residual_norm_0
    rhs3 = 4.0 * c_sq * xf**2
    margins = (lambda_0 - rhs1, lambda_0**1.5 - rhs2, lambda_0 - rhs3)
    satisfied = tuple(m >= 0 for m in margins)

    denom = (c_sq + b.c_a**2) ** 2 * xf**2
    eta_curvature = 2.0 * c_sq / denom if denom > 0 else math.inf
    eta_rate = 2.0 / lambda_0 if lambda_0 > 0 else math.inf
    eta_max = min(eta_rate, eta_curvature)
    return ConditionReport(lambda_0=lambda_0, margins=margins,
                           satisfied=satisfied, eta_max=eta_max,
                           phi_0=0.5 * residual_norm_0**2)


def write_condition_csv(path, b: InitBounds, report: ConditionReport) -> None:
    rows = [(name, getattr(b, name))
            for name in ("delta", "rho_w", "rho_u", "rho_a", "c_w", "c_u", "c_a")]
    rows += [(name, getattr(report, name)) for name in ("lambda_0", "phi_0", "eta_max")]
    for idx, (margin, ok) in enumerate(zip(report.margins, report.satisfied), 1):
        rows += [(f"margin_{idx}", margin), (f"satisfied_{idx}", ok)]
    write_csv(path, "quantity,value", rows)
