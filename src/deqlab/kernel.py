"""Population Gram matrices of the infinite-width, weight-untied limit.

Layer l of the limit has kernel entries K^(l)_ij = rho^(l) Q(cos_theta^(l)_ij)
with rho^(l) = (1 - sigma_w^(2l)) / (1 - sigma_w^2) and

    cos_theta^(l)_ij = (1 - 1/rho^(l)) Q(cos_theta^(l-1)_ij)
                       + (1/rho^(l)) x_i^T x_j / d,

where Q(x) = (sqrt(1-x^2) + (pi - arccos x) x) / pi is the degree-one
arc-cosine kernel of ReLU. At l = 1 this reduces to rho^(1) = 1 and
cos_theta^(1) = x_i^T x_j / d. Letting l -> infinity, each pair's cosine
solves the scalar fixed point c = sigma_w^2 Q(c) + (1 - sigma_w^2) x^T x'/d
and K_ij = Q(c)/(1 - sigma_w^2). The least eigenvalue of the limit, here
`lambda_star`, controls how wide a finite model must be for its initial
Gram matrix to be well conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import check_on_sphere
from .errors import ConvergenceError, InputError
from .linalg import as_matrix, check_int, check_positive, min_eig_sym
from .model import check_sigma_w2

__all__ = [
    "PopulationKernel",
    "q_func",
    "kernel_layer_sequence",
    "kernel_fixed_point",
    "suggested_width",
    "suggested_depth",
    "export_kernel",
]

# kernel_fixed_point's stop rule (the largest change of a cosine) and budget.
KERNEL_TOL = 1e-14
KERNEL_MAX_ITER = 10000


@dataclass(frozen=True)
class PopulationKernel:
    """Infinite-depth kernel matrix K with its pairwise cosines and least
    eigenvalue.

    `lambda_star` may legitimately come out <= 0 for data violating the
    no-parallel-pairs assumption; it is reported, never clamped, and
    downstream consumers decide whether that is fatal.
    """

    k: np.ndarray
    cos_theta: np.ndarray
    lambda_star: float
    sigma_w2: float

    @property
    def n(self) -> int:
        return self.k.shape[0]


def q_func(x):
    """Arc-cosine kernel Q(x) = (sqrt(1-x^2) + (pi - arccos x) x) / pi.

    Accepts scalars or arrays on [-1, 1]; inputs outside by at most 1e-12
    are clamped, anything further out is an error.
    """
    arr = as_matrix(x, "Q input", (None,) * np.ndim(x))
    over = np.abs(arr) - 1.0
    if np.any(over > 1e-12):
        raise InputError(f"q_func input out of [-1, 1]: max overshoot {over.max():.3e}")
    arr = np.clip(arr, -1.0, 1.0)
    out = (np.sqrt(1.0 - arr * arr) + (np.pi - np.arccos(arr)) * arr) / np.pi
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def _check_inputs(x: np.ndarray, sigma_w2: float) -> np.ndarray:
    x = as_matrix(x, "X")
    check_on_sphere(x)
    check_sigma_w2(sigma_w2)
    c1 = (x.T @ x) / x.shape[0]
    np.fill_diagonal(c1, 1.0)  # exact on the diagonal
    return np.clip(c1, -1.0, 1.0)


def rho(sigma_w2: float, depth: int) -> float:
    """Diagonal kernel value (1 - sigma_w^(2 l)) / (1 - sigma_w^2)."""
    return (1.0 - sigma_w2**depth) / (1.0 - sigma_w2)


def kernel_layer_sequence(x, sigma_w2: float, depth: int):
    """Yield K^(1), ..., K^(depth), checking the inputs at the first: a
    caller that keeps only the level at hand holds a few n x n arrays."""
    check_int(depth, "depth")
    cos = _check_inputs(x, sigma_w2)
    xtx_over_d = cos.copy()
    # l = 1: rho = 1 and the cosine is the raw normalized inner product.
    # The cosine's diagonal is exactly 1 and Q(1) == 1.0, so q is K^(l)/rho
    # bit for bit, and the next level reuses it.
    q = q_func(cos)
    np.fill_diagonal(q, 1.0)
    yield q
    for level in range(2, depth + 1):
        r = rho(sigma_w2, level)
        cos = (1.0 - 1.0 / r) * q + xtx_over_d / r
        np.fill_diagonal(cos, 1.0)
        q = q_func(cos)
        k = r * q
        np.fill_diagonal(k, r)
        yield k


def kernel_fixed_point(x, sigma_w2: float) -> PopulationKernel:
    """Infinite-depth kernel by solving each pair's scalar fixed point.

    Picard iteration c <- sigma_w^2 Q(c) + (1 - sigma_w^2) x^T x'/d from
    c = x^T x'/d; a contraction with factor at most sigma_w^2 < 1/8.
    """
    target = _check_inputs(x, sigma_w2)
    c = target.copy()
    for _ in range(KERNEL_MAX_ITER):
        c_next = sigma_w2 * q_func(c) + (1.0 - sigma_w2) * target
        delta = np.abs(c_next - c).max()
        c = c_next
        if delta <= KERNEL_TOL:
            break
    else:
        raise ConvergenceError(
            f"kernel fixed point did not reach tol={KERNEL_TOL:.1e}", residual=delta)
    np.fill_diagonal(c, 1.0)
    k = q_func(c) / (1.0 - sigma_w2)
    np.fill_diagonal(k, 1.0 / (1.0 - sigma_w2))
    return PopulationKernel(k=k, cos_theta=c, lambda_star=min_eig_sym(k),
                            sigma_w2=sigma_w2)


def _check_report(n: int, lambda_star: float) -> None:
    check_positive(lambda_star, "lambda_star")
    check_int(n, "n")


def suggested_width(n: int, lambda_star: float) -> int:
    """ceil((n^2 / lambda_star^2) * log(n / (lambda_star t))) at failure
    probability t = 0.01.

    A report, never an enforced gate: the paper leaves the constant in
    front unknown, and it is taken as 1.
    """
    _check_report(n, lambda_star)
    return math.ceil((n**2 / lambda_star**2) * math.log(n / (lambda_star * 0.01)))


def suggested_depth(n: int, lambda_star: float, sigma_w2: float) -> int:
    """ceil(log(n / lambda_star) / log(sqrt(2) / (4 sigma_w))), with the
    paper's unknown constant in front taken as 1, and at least 1: the log
    is negative once lambda_star > n, as at n = 1.

    The denominator is positive exactly when sigma_w^2 < 1/8; it tends to
    zero (and the suggestion diverges) as sigma_w^2 approaches 1/8.
    """
    _check_report(n, lambda_star)
    check_sigma_w2(sigma_w2)
    denom = math.log(math.sqrt(2.0) / (4.0 * math.sqrt(sigma_w2)))
    return max(1, math.ceil(math.log(n / lambda_star) / denom))


def export_kernel(pk: PopulationKernel, out_dir) -> dict:
    """Write K and cos_theta CSVs plus a summary record; returns the summary."""
    # kept local: a module-level import is a traced binding the tracer lacks
    from .data import save_matrix_csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix_csv(out / "kernel.csv", pk.k)
    save_matrix_csv(out / "cos_theta.csv", pk.cos_theta)
    summary = {
        "n": pk.n,
        "sigma_w2": pk.sigma_w2,
        "depth": "infinite",
        "lambda_star": pk.lambda_star,
    }
    if pk.lambda_star > 0:
        summary["suggested_width"] = suggested_width(pk.n, pk.lambda_star)
        summary["suggested_depth"] = suggested_depth(pk.n, pk.lambda_star,
                                                     pk.sigma_w2)
    else:
        summary["warning"] = ("lambda_star <= 0: data violates the "
                              "no-parallel-pairs assumption")
    lines = [f"{key} = {value}" for key, value in summary.items()]
    (out / "kernel_summary.txt").write_text("\n".join(lines) + "\n")
    return summary
