"""Dataset generation, normalization, and binary image-format parsing.

Datasets carry inputs as the columns of a d x n matrix X with every
column scaled to norm sqrt(d), no two columns parallel, and bounded
labels. These are hard preconditions of the convergence theory, so the
Dataset constructor enforces them.
"""

from __future__ import annotations

import itertools
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionError, InputError

__all__ = [
    "Dataset",
    "PARALLEL_COS_TOL",
    "gen_sphere_data",
    "normalize_to_sphere",
    "load_idx",
    "load_cifar_bin",
    "subset_binary",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_labels_csv",
    "load_labels_csv",
]

# |cos(angle)| above this means two columns count as parallel.
PARALLEL_COS_TOL = 1.0 - 1e-9

# Column norms must equal sqrt(d) to this relative accuracy.
NORM_RTOL = 1e-8

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073


@dataclass(frozen=True)
class Dataset:
    """Inputs X (d x n, columns are samples), labels y, and provenance."""

    x: np.ndarray
    y: np.ndarray
    provenance: str = "synthetic"
    y_cap: float = 10.0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2 or x.size == 0:
            raise AssumptionError("X must be a non-empty d x n matrix")
        if y.shape != (x.shape[1],):
            raise AssumptionError(
                f"y has shape {y.shape}, expected ({x.shape[1]},)")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise AssumptionError("dataset contains non-finite values")
        d = x.shape[0]
        norms = np.linalg.norm(x, axis=0)
        target = np.sqrt(d)
        bad = np.nonzero(np.abs(norms - target) > NORM_RTOL * target)[0]
        if bad.size:
            raise AssumptionError(
                f"columns {bad[:8].tolist()} have norm != sqrt(d): "
                f"{norms[bad[:8]].tolist()}")
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
    x = np.asarray(x_raw, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise InputError("X must be a non-empty d x n matrix")
    if not np.all(np.isfinite(x)):
        raise InputError("X contains non-finite values")
    norms = np.linalg.norm(x, axis=0)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise InputError(f"columns {zero[:8].tolist()} are zero and cannot be normalized")
    return x * (np.sqrt(x.shape[0]) / norms)


def _pick_columns(x, candidates, start: int = 0) -> list:
    """Fill the columns of x from `start` on, in order, from `candidates`,
    (key, column) pairs whose columns have norm sqrt(d).

    A candidate is kept unless it is parallel to a column kept before it,
    x[:, :start] included, by Dataset's own test (|cos| >
    PARALLEL_COS_TOL), so a filled x always passes the constructor. No
    candidate is pulled once x is full (start < x.shape[1] is assumed).
    Returns the keys kept: fewer than the columns to fill when the
    candidates run out.
    """
    norms = np.empty(x.shape[1])
    norms[:start] = np.linalg.norm(x[:, :start], axis=0)
    keys = []
    k = start
    for key, col in candidates:
        norm = np.linalg.norm(col)
        cos = (x[:, :k].T @ col) / (norms[:k] * norm)
        if not (np.abs(cos) > PARALLEL_COS_TOL).any():
            x[:, k], norms[k] = col, norm
            keys.append(key)
            k += 1
            if k == x.shape[1]:
                break
    return keys


def gen_sphere_data(n: int, d: int, seed: int, y_cap: float = 10.0) -> Dataset:
    """Uniform points on the radius-sqrt(d) sphere with Gaussian labels.

    Deterministic in (n, d, seed): columns are standard Gaussian draws
    rescaled to norm sqrt(d); labels are standard Gaussian clipped to
    [-y_cap, y_cap]. A draw parallel to an earlier kept one is dropped
    and a fresh draw from the same stream appended after the others, at
    most n times.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if n == 1:
        warnings.warn("n=1 dataset: the no-parallel-pairs requirement is vacuous")
    if d < 2:
        raise InputError(f"d must be >= 2, got {d}")
    rng = np.random.default_rng(seed)
    draws = normalize_to_sphere(rng.standard_normal((d, n))).T
    redraws = (normalize_to_sphere(rng.standard_normal((d, 1)))[:, 0]
               for _ in range(n))
    x = np.empty((d, n))
    if len(_pick_columns(x, enumerate(itertools.chain(draws, redraws)))) < n:
        raise AssumptionError(f"could not draw {n} points without parallel "
                              f"pairs in d={d} within {n} redraws")
    y = np.clip(rng.standard_normal(n), -y_cap, y_cap)
    return Dataset(x=x, y=y, provenance="synthetic", y_cap=y_cap)


def _read_exact(f, count: int, what: str) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise InputError(f"truncated file while reading {what}: "
                         f"wanted {count} bytes, got {len(buf)}")
    return buf


def load_idx(images_path, labels_path):
    """Parse an IDX image/label file pair (the MNIST container format).

    Returns (pixels, labels): pixels is d x N float64 with values in
    [0, 255], columns are images flattened in row-major pixel order;
    labels is a length-N integer vector.
    """
    with open(images_path, "rb") as f:
        magic, count = struct.unpack(">II", _read_exact(f, 8, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise InputError(
                f"bad magic in {images_path}: 0x{magic:08x}, "
                f"expected 0x{IDX_IMAGES_MAGIC:08x}")
        rows, cols = struct.unpack(">II", _read_exact(f, 8, "image dimensions"))
        raw = _read_exact(f, count * rows * cols, "image pixels")
    pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    pixels = pixels.reshape(count, rows * cols).T

    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise InputError(
                f"bad magic in {labels_path}: 0x{magic:08x}, "
                f"expected 0x{IDX_LABELS_MAGIC:08x}")
        raw = _read_exact(f, label_count, "labels")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    if label_count != count:
        raise InputError(
            f"image/label count mismatch: {count} images vs {label_count} labels")
    return pixels, labels


def load_cifar_bin(path):
    """Parse a CIFAR-10 binary batch: 3073-byte records of label + RGB planes.

    Returns (pixels, labels) with pixels 3072 x N float64 in [0, 255].
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
        raise InputError(
            f"{path}: size {len(raw)} is not a positive multiple of {CIFAR_RECORD_BYTES}")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if np.any(labels > 9):
        k = int(np.argmax(labels > 9))
        raise InputError(f"record {k} has label byte {labels[k]} > 9")
    pixels = records[:, 1:].astype(np.float64).T
    return pixels, labels


def subset_binary(raw, class_a: int, class_b: int, per_class: int, seed: int,
                  provenance: str = "file") -> Dataset:
    """Draw a balanced two-class subset with labels -1 (class_a) / +1 (class_b).

    Each class's samples are taken in a seeded random order, normalized
    to norm sqrt(d), and the first per_class that are nonzero and not
    parallel to an earlier pick (of either class) are kept. A class that
    runs out raises with the source indices it had to reject.
    """
    pixels, labels = raw
    if per_class < 1:
        raise InputError("per_class must be >= 1")

    def candidates(order):
        for idx in order:
            col = pixels[:, idx]
            norm = np.linalg.norm(col)
            if norm != 0.0:
                yield idx, col * (np.sqrt(pixels.shape[0]) / norm)

    rng = np.random.default_rng(seed)
    x = np.empty((pixels.shape[0], 2 * per_class))
    picked = []
    for side, cls in enumerate((class_a, class_b)):
        pool = np.nonzero(labels == cls)[0]
        if pool.size < per_class:
            raise InputError(
                f"class {cls} has only {pool.size} samples, need {per_class}")
        order = rng.permutation(pool).tolist()
        keys = _pick_columns(x[:, :(side + 1) * per_class], candidates(order),
                             start=side * per_class)
        if len(keys) < per_class:
            rejected = sorted(set(order) - set(keys))
            raise AssumptionError(
                f"class {cls}: {len(keys)} of its samples are nonzero and not "
                f"parallel to an earlier pick, need {per_class}; rejected "
                f"source indices {rejected[:8]}")
        picked += keys

    y = np.concatenate([np.full(per_class, -1.0), np.full(per_class, 1.0)])
    return Dataset(x=x, y=y, provenance=provenance,
                   extra={"class_a": class_a, "class_b": class_b,
                          "source_indices": picked,
                          "label_encoding": "-1 for class_a, +1 for class_b"})


# --- documented CSV matrix schema ------------------------------------------
#
# Line 1: literal header "d,n"
# Line 2: the two integers "<d>,<n>"
# Then d*n lines, one value per line, column-major (first column's entries
# first). Values are written with repr-exact precision (%.17g).


def _values_text(values) -> str:
    """One '%.17g' line per value of a 1-D float64 array, as one string.
    Python floats format exactly as the numpy scalars do."""
    return "".join(map("{:.17g}\n".format, values.tolist()))


def _read_values(f, path) -> np.ndarray:
    """The rest of the open file `f`, one float per line; InputError
    naming `path` on a line that is not a number."""
    try:
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
    with open(path) as f:
        header = f.readline().strip()
        if header != "d,n":
            raise InputError(f"{path}: expected header 'd,n', got {header!r}")
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
    with open(path) as f:
        header = f.readline().strip()
        if header != "y":
            raise InputError(f"{path}: expected header 'y', got {header!r}")
        return _read_values(f, path)
