"""Dense float64 matrix kernels shared by the rest of the package.

Everything here is a pure function of its inputs. Matrices are plain
numpy arrays in C order; all public operations validate finiteness.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, InputError

__all__ = [
    "as_matrix",
    "spectral_norm",
    "min_eig_sym",
    "gram",
]


def as_matrix(a, name: str = "matrix", shape=(None, None)) -> np.ndarray:
    """`a` as a finite, non-empty float64 array of rank len(shape) whose
    axis k has length shape[k] where that is not None; InputError naming
    `name` otherwise, a shape refusal by the first axis that is off
    ("X has 4 rows, expected 3"). The one owner of the array contract."""
    try:
        a = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} is not a numeric array: {exc}") from exc
    if a.ndim != len(shape):
        raise InputError(f"{name} must be {len(shape)}-D, got ndim={a.ndim}")
    if a.size == 0:
        raise InputError(f"{name} is empty")
    axes = ("entries",) if a.ndim == 1 else ("rows", "columns")
    for axis, got, want in zip(axes, a.shape, shape):
        if want is not None and got != want:
            raise InputError(f"{name} has {got} {axis}, expected {want}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains non-finite entries")
    return a


def check_int(value, name: str, least: int = 1) -> None:
    """InputError unless `value` is an int (a numpy integer counts, a bool
    does not) of at least `least`: the one owner of every count, width,
    depth, seed and step rule."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise InputError(f"{name} must be an int >= {least}, got {value!r}")


def check_positive(value: float, name: str) -> None:
    if not 0.0 < value < np.inf:  # also refuses nan
        raise InputError(f"{name} must be positive and finite, got {value}")


def check_nonnegative(value: float, name: str) -> None:
    if not 0.0 <= value < np.inf:  # also refuses nan
        raise InputError(f"{name} must be >= 0 and finite, got {value}")


def check_budget(tol: float, max_iter: int) -> None:
    check_positive(tol, "tol")
    check_int(max_iter, "max_iter")


# Lanczos basis size before a restart from the current Ritz vector. Cold
# calls on Gaussian W up to m = 2000 converge in about 60 products.
_LANCZOS_BASIS = 128
# A Lanczos coefficient beta below this fraction of the top Ritz value
# means the Krylov space is invariant: dropping beta moves the Ritz
# values by at most beta, far below any tolerance in use.
_BREAKDOWN = 1e-12
# min_eig_sym refuses a matrix with max|S - S^T| above this times ||S||_F.
SYM_TOL = 1e-8


def spectral_norm(a, tol: float = 1e-10, max_iter: int = 10000,
                  v0=None, return_vector: bool = False):
    """Largest singular value of `a` by Lanczos on A^T A.

    Lanczos with full reorthogonalization (Golub & Van Loan, ch. 10):
    the estimate is the square root of the top Ritz value, which rises
    toward sigma_max(A)^2 from below. Deterministic: starts from the
    normalized all-ones vector unless `v0` is supplied (a warm start from
    a previous call on a nearby matrix). Stops when the estimate is
    stable to a relative change of 0.1 * `tol` between consecutive steps;
    raises ConvergenceError after `max_iter` products with A^T A. The
    stop test needs only the top Ritz value; a Ritz vector is formed only
    where it is used, when the basis restarts from it every 128 vectors
    and for `return_vector`. When
    the Krylov space is invariant before it spans R^n (a start vector
    blind to the top singular vector), the basis continues from a fixed
    pseudo-random vector orthogonalized against it. With `return_vector`
    the unit Ritz vector, the right singular direction, is returned
    alongside, suitable as the next call's `v0`.
    """
    a = as_matrix(a, "A")
    check_budget(tol, max_iter)
    n = a.shape[1]
    # Exact answer; the loop below never stops on a zero estimate.
    if not a.any():
        return (0.0, np.full(n, 1.0 / np.sqrt(n))) if return_vector else 0.0
    if v0 is None:
        q = np.full(n, 1.0 / np.sqrt(n))
    else:
        q = as_matrix(v0, "v0", (n,))
        nq = np.linalg.norm(q)
        if nq == 0.0:
            raise InputError("v0 is the zero vector")
        q = q / nq

    size = min(_LANCZOS_BASIS, n)
    basis = np.empty((size, n))  # rows q_0 .. q_{j}
    t = np.zeros((size, size))   # tridiagonal projection Q^T (A^T A) Q
    sigma = 0.0
    j = 0
    for _ in range(max_iter):
        basis[j] = q
        w = a.T @ (a @ q)
        q_j = basis[:j + 1]
        h = q_j @ w
        w -= h @ q_j
        h2 = q_j @ w  # second pass: twice is enough
        w -= h2 @ q_j
        t[j, j] = h[j] + h2[j]
        dim = j + 1
        theta = np.linalg.eigvalsh(t[:dim, :dim])
        sigma_new = float(np.sqrt(max(theta[-1], 0.0)))
        # Within one basis, Ritz values only rise; a first vector's value
        # has nothing to be compared with, and A != 0 rules out 0.
        if (j > 0 and sigma_new > 0.0
                and abs(sigma_new - sigma) <= 0.1 * tol * sigma_new):
            break
        sigma = sigma_new
        beta = float(np.linalg.norm(w))
        j += 1
        if j == n:  # the basis spans R^n, so the Ritz values are exact
            break
        if j == size:
            q = _top_ritz_vector(t, basis)
            t[:] = 0.0
            j = 0
        elif beta <= _BREAKDOWN * sigma_new**2:
            w = np.random.default_rng(j).standard_normal(n)
            for _ in range(2):
                w -= (basis[:j] @ w) @ basis[:j]
            q = w / np.linalg.norm(w)
        else:
            t[j, j - 1] = t[j - 1, j] = beta
            q = w / beta
    else:
        raise ConvergenceError(
            f"spectral norm did not converge in {max_iter} products",
            residual=None, iterations=max_iter)
    if not return_vector:
        return sigma_new
    return sigma_new, _top_ritz_vector(t[:dim, :dim], basis[:dim])


def _top_ritz_vector(t, basis) -> np.ndarray:
    """Unit Ritz vector of the top eigenvalue of the projection `t` onto
    the rows of `basis`."""
    v = np.linalg.eigh(t)[1][:, -1] @ basis
    return v / np.linalg.norm(v)


def min_eig_sym(s) -> float:
    """Least eigenvalue of a symmetric matrix (LAPACK eigvalsh) after
    symmetrizing; InputError if max|S - S^T| exceeds SYM_TOL * ||S||_F."""
    s = as_matrix(s, "S")
    if s.shape[0] != s.shape[1]:
        raise InputError(f"S must be square, got {s.shape}")
    asym = np.abs(s - s.T).max()
    scale = float(np.linalg.norm(s))
    if asym > SYM_TOL * max(scale, 1e-300):
        raise InputError(
            f"matrix is not symmetric: max|S - S^T| = {asym:.3e} "
            f"exceeds {SYM_TOL:.1e} * ||S||")
    return float(np.linalg.eigvalsh(0.5 * (s + s.T))[0])


def gram(z) -> np.ndarray:
    """Z^T Z, symmetrized exactly after the product."""
    z = as_matrix(z, "Z")
    g = z.T @ z
    return 0.5 * (g + g.T)

