"""Implicit-differentiation gradients through the equilibrium.

Rather than forming the mn x mn Jacobian, all three parameter gradients
come from one adjoint fixed point

    M = D .* (a e^T + W^T M),    e = yhat - y,

where D is the 0/1 ReLU activation mask at the equilibrium. Then

    grad_W = M Z^T,   grad_U = M X^T,   grad_a = Z e.

The dense Kronecker construction (J, D, R formed literally) survives here
only as a small-instance reference, alongside a central finite-difference
reference; both are used by the verification harness and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import as_matrix
from .model import (
    DeqParams,
    EquilibriumSolution,
    SolverConfig,
    _iterate,
    check_shapes,
    loss,
    predict,
    prediction_error,
    solve_equilibrium,
    well_posedness,
)

__all__ = [
    "GradientTriple",
    "AdjointSolution",
    "activation_mask",
    "solve_adjoint",
    "gradients",
    "grad_norm_sq",
    "solve_sensitivity",
    "dense_gradients_reference",
    "finite_difference_gradients",
]

FD_STEP = 1e-5  # finite_difference_gradients' central-difference step
KINK_TOL = 1e-7  # a perturbed pre-activation this near 0 voids its probe


@dataclass(frozen=True)
class GradientTriple:
    gw: np.ndarray  # (m, m)
    gu: np.ndarray  # (m, d)
    ga: np.ndarray  # (m,)


@dataclass(frozen=True)
class AdjointSolution:
    """The fixed point M of a masked linear solve (adjoint, op = W^T, or
    sensitivity, op = W) with convergence diagnostics. `product` is op M
    at the returned M, the product of the solve's last float64
    application, bitwise equal to p.w.T @ m (adjoint) or p.w @ m
    (sensitivity). `iterations` counts applications of the map; a cold
    solve's first makes no product with op."""

    m: np.ndarray  # (m, n) adjoint fixed point
    product: np.ndarray  # (m, n) op @ m
    residual: float
    iterations: int
    residuals: tuple = ()


def activation_mask(pre) -> np.ndarray:
    """0/1 indicator of pre >= 0 for the pre-activation pre = W z + U x
    (the ReLU sub-gradient; ties at exactly zero map to 1)."""
    return (as_matrix(pre, "pre") >= 0.0).astype(np.float64)


class _MaskedLinearMap:
    """The linear map x -> source + mask .* (op x) for model._iterate,
    which forms the product op x and passes it in; the last one is
    `product`. Its increment at any point is mask .* (op d). A mask entry
    outside {0, 1} is refused: it can void the contraction."""

    clip = False

    def __init__(self, op, mask, source):
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise InputError("mask entries must be 0 or 1 (a ReLU derivative)")
        self.op, self.mask, self.source = op, mask, source
        self.shape = mask.shape

    def __call__(self, product):
        self.product = product
        return self.source + self.mask * product

    def increment(self):
        """Float32 rule, as out -> None, applied in place to out = op d."""
        mask32 = self.mask.astype(np.float32)

        def rule(out):
            out *= mask32
        return rule


def _masked_solve(p: DeqParams, op, mask, source, cfg: SolverConfig, kind: str,
                  x0=None, seed=None) -> AdjointSolution:
    """The fixed point of x = mask .* (source + op x) by model._iterate."""
    mask = as_matrix(mask, "mask", source.shape)
    step = _MaskedLinearMap(op, mask, mask * source)
    x, res, k, history = _iterate(p, step, x0, cfg, kind, seed)
    return AdjointSolution(m=x, product=step.product, residual=res,
                           iterations=k, residuals=history)


def solve_adjoint(p: DeqParams, mask, e, cfg: SolverConfig = SolverConfig(),
                  m0=None, seed=None) -> AdjointSolution:
    """Picard iteration for M = mask .* (a e^T + W^T M), from M = 0.

    Contraction at rate <= ||W||_2 for a 0/1 mask. `m0` warm-starts from
    a previous solution for nearby parameters, and `seed`, if given, is
    W^T m0 known from elsewhere: the solve then makes one product fewer.
    A non-finite `e` is refused (InputError).
    """
    e = as_matrix(e, "e", (None,))
    return _masked_solve(p, p.w.T, mask, np.outer(p.a, e), cfg, "adjoint", m0, seed)


def gradients(p: DeqParams, sol: EquilibriumSolution, x, y,
              cfg: SolverConfig = SolverConfig(), m0=None, seed=None):
    """Gradients of the quadratic loss w.r.t. (W, U, a) at the equilibrium
    `sol` of (p, x), whose pre-activation gives the ReLU mask.

    Returns (GradientTriple, AdjointSolution); the adjoint's M warm-starts
    the next solve (`m0`, with `seed` = W^T m0; see solve_adjoint) for
    nearby parameters.
    """
    z, x = check_shapes(p, sol.z, x)
    e = prediction_error(p.a @ z, y)
    adj = solve_adjoint(p, activation_mask(sol.pre), e, cfg, m0=m0, seed=seed)
    return GradientTriple(gw=adj.m @ z.T, gu=adj.m @ x.T, ga=z @ e), adj


def grad_norm_sq(g: GradientTriple) -> float:
    """||grad_W||_F^2 + ||grad_U||_F^2 + ||grad_a||_2^2."""
    return float(np.vdot(g.gw, g.gw) + np.vdot(g.gu, g.gu)
                 + np.vdot(g.ga, g.ga))


def solve_sensitivity(p: DeqParams, mask, rhs,
                      cfg: SolverConfig = SolverConfig()) -> AdjointSolution:
    """Directional derivative of the equilibrium: S = mask .* (W S + rhs),
    from S = 0.

    `rhs` is dW Z + dU X for a parameter direction (dW, dU); the solution
    S is the first-order response of Z, a contraction at rate <= ||W||_2
    for a 0/1 mask. Its one caller, tangent_kernel, makes one cold solve to
    check the closed-form tangent kernel.
    """
    return _masked_solve(p, p.w, mask, as_matrix(rhs, "rhs", (p.m, None)), cfg,
                         "sensitivity")


def dense_gradients_reference(p: DeqParams, z, x, y) -> GradientTriple:
    """Reference gradients by explicit dense construction (small mn only).

    Builds, with column-major vec convention,
        J = I_mn - D (I_n kron W),   D = diag(vec(mask)),
        R = (I_n kron a^T) J^{-1} D,
    then vec(grad_W) = (Z kron I_m) R^T e and likewise with X for grad_U.
    Memory is O(m^2 n^2); intended for verification at mn <= ~400.
    """
    z, x = check_shapes(p, z, x)
    m, n = z.shape
    if m * n > 2500:
        raise InputError(f"dense reference limited to small instances, mn={m * n}")
    e = prediction_error(p.a @ z, y)
    mask = activation_mask(p.w @ z + p.u @ x)
    d_diag = np.diag(mask.flatten(order="F"))
    j = np.eye(m * n) - d_diag @ np.kron(np.eye(n), p.w)
    r = np.kron(np.eye(n), p.a) @ np.linalg.solve(j, d_diag)
    rte = r.T @ e
    gw = (np.kron(z, np.eye(m)) @ rte).reshape((m, m), order="F")
    gu = (np.kron(x, np.eye(m)) @ rte).reshape((m, p.d), order="F")
    ga = z @ e
    return GradientTriple(gw=gw, gu=gu, ga=ga)


def _loss_at(p: DeqParams, x, y, cfg: SolverConfig):
    sol = solve_equilibrium(p, x, cfg)
    return loss(predict(p, sol.z), y), sol.pre


def finite_difference_gradients(p: DeqParams, x, y,
                                cfg: SolverConfig = SolverConfig(tol=1e-12)):
    """Central finite differences of the loss, step FD_STEP, probe by probe.

    Re-solves the equilibrium for every W and U probe (the equilibrium
    does not depend on a, so a-probes reuse it). A probe's well-posedness
    bound comes from p's by Weyl's inequality, ||W + delta E_ij||_2 <=
    ||W||_2 + |delta|, so no probe runs a norm estimate of its own. Returns
    (GradientTriple, valid) where valid is a matching triple of boolean
    arrays; a probe is invalid when either perturbed point has a
    pre-activation within KINK_TOL of zero or the activation pattern
    differs between the two sides (the ReLU kink cases).
    """
    m, d = p.m, p.d
    w_norm = well_posedness(p)[0]

    def probe(param, i, j):
        def shifted(delta):
            arrs = {"w": p.w.copy(), "u": p.u.copy(), "a": p.a.copy()}
            arrs[param][i, j] += delta
            shifted_p = DeqParams(w=arrs["w"], u=arrs["u"], a=arrs["a"],
                                  sigma_w2=p.sigma_w2)
            well_posedness(shifted_p,
                           w_norm + abs(delta) if param == "w" else w_norm)
            return shifted_p

        lo, pre_lo = _loss_at(shifted(-FD_STEP), x, y, cfg)
        hi, pre_hi = _loss_at(shifted(+FD_STEP), x, y, cfg)
        valid = (np.abs(pre_lo).min() > KINK_TOL
                 and np.abs(pre_hi).min() > KINK_TOL
                 and np.array_equal(pre_lo >= 0, pre_hi >= 0))
        return (hi - lo) / (2 * FD_STEP), valid

    grads, valid = {}, {}
    for name, shape in (("w", (m, m)), ("u", (m, d))):
        grads[name], valid[name] = np.empty(shape), np.empty(shape, dtype=bool)
        for i, j in np.ndindex(shape):
            grads[name][i, j], valid[name][i, j] = probe(name, i, j)

    # a enters the loss quadratically with Z fixed; differences are exact.
    sol = solve_equilibrium(p, x, cfg)
    ga = np.empty(m)
    for i in range(m):
        a_hi, a_lo = p.a.copy(), p.a.copy()
        a_hi[i] += FD_STEP
        a_lo[i] -= FD_STEP
        hi = loss(a_hi @ sol.z, y)
        lo = loss(a_lo @ sol.z, y)
        ga[i] = (hi - lo) / (2 * FD_STEP)
    ga_valid = np.ones(m, dtype=bool)

    return (GradientTriple(gw=grads["w"], gu=grads["u"], ga=ga),
            GradientTriple(gw=valid["w"], gu=valid["u"], ga=ga_valid))
