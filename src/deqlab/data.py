"""Dataset generation, normalization, and the CSV schemas.

Datasets carry inputs as the columns of a d x n matrix X with every
column scaled to norm sqrt(d), no two columns parallel, and bounded
labels. These are hard preconditions of the convergence theory, so the
Dataset constructor enforces them.
"""

from __future__ import annotations

import itertools
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, InputError
from .linalg import as_matrix, check_int, check_positive

__all__ = [
    "Dataset",
    "PARALLEL_COS_TOL",
    "gen_sphere_data",
    "normalize_to_sphere",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_labels_csv",
    "load_labels_csv",
]

# |cos(angle)| above this means two columns count as parallel.
PARALLEL_COS_TOL = 1.0 - 1e-9

# Column norms must equal sqrt(d) to this relative accuracy.
NORM_RTOL = 1e-8


def check_on_sphere(x: np.ndarray) -> np.ndarray:
    """x's column norms; AssumptionError unless each is sqrt(d) to NORM_RTOL."""
    norms = np.linalg.norm(x, axis=0)
    target = np.sqrt(x.shape[0])
    bad = np.nonzero(np.abs(norms - target) > NORM_RTOL * target)[0]
    if bad.size:
        raise AssumptionError(
            f"columns {bad[:8].tolist()} have norm != sqrt(d): "
            f"{norms[bad[:8]].tolist()}")
    return norms


@dataclass(frozen=True)
class Dataset:
    """Inputs X (d x n, columns are samples), labels y, and provenance."""

    x: np.ndarray
    y: np.ndarray
    provenance: str = "synthetic"
    y_cap: float = 10.0

    def __post_init__(self):
        x = as_matrix(self.x, "X")
        y = as_matrix(self.y, "y", (x.shape[1],))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        check_positive(self.y_cap, "y_cap")
        norms = check_on_sphere(x)
        if x.shape[1] > 1:
            c = (x.T @ x) / np.outer(norms, norms)
            np.fill_diagonal(c, 0.0)
            i, j = np.unravel_index(int(np.argmax(np.abs(c))), c.shape)
            if abs(c[i, j]) > PARALLEL_COS_TOL:
                raise AssumptionError(
                    f"columns {i} and {j} are parallel (|cos| = {abs(c[i, j]):.12f})")
        if np.any(np.abs(y) > self.y_cap):
            k = int(np.argmax(np.abs(y)))
            raise AssumptionError(
                f"label {k} has |y| = {abs(y[k]):.4g} > cap {self.y_cap}")

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


def normalize_to_sphere(x_raw) -> np.ndarray:
    """Scale every column to norm sqrt(d), d the row count."""
    x = as_matrix(x_raw, "X")
    norms = np.linalg.norm(x, axis=0)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise InputError(f"columns {zero[:8].tolist()} are zero and cannot be normalized")
    return x * (np.sqrt(x.shape[0]) / norms)


def _pick_columns(x, candidates) -> int:
    """Fill the columns of x, in order, from `candidates`, columns of norm
    sqrt(d).

    A candidate is kept unless it is parallel to a column kept before it,
    by Dataset's own test (|cos| > PARALLEL_COS_TOL), so a filled x always
    passes the constructor. No candidate is pulled once x is full.
    Returns the count of columns filled: fewer than x has when the
    candidates run out.
    """
    norms = np.empty(x.shape[1])
    k = 0
    for col in candidates:
        norm = np.linalg.norm(col)
        cos = (x[:, :k].T @ col) / (norms[:k] * norm)
        if not (np.abs(cos) > PARALLEL_COS_TOL).any():
            x[:, k], norms[k] = col, norm
            k += 1
            if k == x.shape[1]:
                break
    return k


def gen_sphere_data(n: int, d: int, seed: int, y_cap: float = 10.0) -> Dataset:
    """Uniform points on the radius-sqrt(d) sphere with Gaussian labels.

    Deterministic in (n, d, seed): columns are standard Gaussian draws
    rescaled to norm sqrt(d); labels are standard Gaussian clipped to
    [-y_cap, y_cap]. A draw parallel to an earlier kept one is dropped
    and a fresh draw from the same stream appended after the others, at
    most n times.
    """
    check_int(n, "n")
    check_int(d, "d", 2)
    check_int(seed, "seed", 0)
    check_positive(y_cap, "y_cap")
    if n == 1:
        warnings.warn("n=1 dataset: the no-parallel-pairs requirement is vacuous")
    rng = np.random.default_rng(seed)
    draws = normalize_to_sphere(rng.standard_normal((d, n))).T
    redraws = (normalize_to_sphere(rng.standard_normal((d, 1)))[:, 0]
               for _ in range(n))
    x = np.empty((d, n))
    if _pick_columns(x, itertools.chain(draws, redraws)) < n:
        raise AssumptionError(f"could not draw {n} points without parallel "
                              f"pairs in d={d} within {n} redraws")
    y = np.clip(rng.standard_normal(n), -y_cap, y_cap)
    return Dataset(x=x, y=y, provenance="synthetic", y_cap=y_cap)


# --- documented CSV matrix schema ------------------------------------------
#
# Line 1: literal header "d,n"
# Line 2: the two integers "<d>,<n>"
# Then d*n lines, one value per line, column-major (first column's entries
# first). Values are written with repr-exact precision (%.17g).


def _values_text(values) -> str:
    """One '%.17g' line per value of a 1-D float64 array, as one string
    from one %-format. Python floats format exactly as numpy scalars do."""
    return ("%.17g\n" * values.size) % tuple(values.tolist())


@contextmanager
def _open_csv(path, header: str):
    """The file `path` open for reading past its first line, which must be
    `header`; InputError naming `path` on a directory, on bytes that are
    not UTF-8, or on another first line."""
    try:
        with open(path, encoding="utf-8") as f:
            first = f.readline().strip()
            if first != header:
                raise InputError(f"{path}: expected header {header!r}, got {first!r}")
            yield f
    except IsADirectoryError as exc:
        raise InputError(f"{path} is a directory") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_values(f, path) -> np.ndarray:
    """The rest of the open file `f`, one float per line; InputError
    naming `path` on a line that is not a number. No lines give an empty
    array, which the callers' count checks report."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            return np.loadtxt(f, dtype=np.float64, ndmin=1)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def save_matrix_csv(path, a) -> None:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise InputError("matrix CSV writer needs a 2-D array")
    with open(path, "w") as f:
        f.write("d,n\n")
        f.write(f"{a.shape[0]},{a.shape[1]}\n")
        for col in a.T:
            f.write(_values_text(col))


def load_matrix_csv(path) -> np.ndarray:
    with _open_csv(path, "d,n") as f:
        line = f.readline().strip()
        dims = line.split(",")
        if len(dims) != 2 or not all(v.isdecimal() and int(v) > 0 for v in dims):
            raise InputError(f"{path}: expected two positive integers "
                             f"'<d>,<n>' on line 2, got {line!r}")
        d, n = map(int, dims)
        values = _read_values(f, path)
    if values.size != d * n:
        raise InputError(f"{path}: expected {d * n} values, found {values.size}")
    return values.reshape((d, n), order="F")


def save_labels_csv(path, y) -> None:
    y = np.asarray(y, dtype=np.float64).ravel()
    with open(path, "w") as f:
        f.write("y\n")
        f.write(_values_text(y))


def load_labels_csv(path) -> np.ndarray:
    with _open_csv(path, "y") as f:
        return _read_values(f, path)
