"""Monte Carlo checks of the finite-model-to-population-kernel story.

Two comparisons, both at desk scale:

- depth decay of the population kernel toward its infinite limit,
- width concentration of the tied model's normalized Gram matrix around
  the population kernel, plus the induced lower bound on the least
  eigenvalue at initialization.

Probability tails are never asserted (their constants are unknowable);
the lab measures error magnitudes and scaling trends over seeded trials.
There is also an exact algebraic reconstruction of one Gram entry from a
matrix with conditionally fresh Gaussian entries; its error is rounding,
not statistics, and that distinction is itself a tested property.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import AssumptionError, DegenerateInputError, InputError
from .kernel import PopulationKernel, kernel_fixed_point, kernel_layer_sequence
from .linalg import as_matrix, check_int, gram, min_eig_sym
from .model import DeqParams, SolverConfig, init_params, layer_iterates, solve_equilibrium
from .reporting import write_csv

__all__ = [
    "CellResult",
    "ConcentrationReport",
    "check_grid",
    "derive_seed",
    "kernel_depth_decay",
    "tied_vs_population",
    "lambda0_vs_width",
    "fresh_randomness_reconstruct",
    "write_report_csv",
    "write_summary_csv",
]


@dataclass(frozen=True)
class CellResult:
    experiment: str
    m: int
    l: int
    trial: int
    seed: int
    error: float


@dataclass
class ConcentrationReport:
    experiment: str
    cells: list
    extra: dict = field(default_factory=dict)

    def errors_for(self, m: int | None = None, l: int | None = None) -> np.ndarray:
        return np.array([c.error for c in self.cells
                         if (m is None or c.m == m) and (l is None or c.l == l)])

    def summary_rows(self):
        """(experiment, m, l, trials, q1, median, q3) per grid cell."""
        keys = sorted({(c.m, c.l) for c in self.cells})
        rows = []
        for m, l in keys:
            errs = self.errors_for(m=m, l=l)
            q1, med, q3 = np.percentile(errs, [25, 50, 75])
            rows.append((self.experiment, m, l, len(errs), q1, med, q3))
        return rows


def derive_seed(base_seed: int, m: int, trial: int) -> int:
    """Deterministic 64-bit mix of (base_seed, m, trial).

    Uses numpy's SeedSequence over the triple, so grid cells are
    independent streams reproducible from the three components alone.
    """
    check_int(base_seed, "base_seed", 0)
    ss = np.random.SeedSequence([int(base_seed), int(m), int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


def kernel_depth_decay(pk: PopulationKernel, x, l_max: int) -> list:
    """||K - K^(l)||_F for l = 1..l_max, where K is `pk`, the caller's
    kernel_fixed_point of the same x; deterministic."""
    return [float(np.linalg.norm(pk.k - k))
            for k in kernel_layer_sequence(x, pk.sigma_w2, l_max)]


def check_grid(m_list, trials: int = 1, *, name: str = "m_list") -> None:
    """Raise InputError unless the Monte Carlo grid is runnable: a
    non-empty list `name` of widths, each checked as `m` by check_int,
    strictly ascending (a repeated width would redraw the same seeds),
    and `trials` an int >= 1."""
    if not m_list:
        raise InputError(f"{name} is empty")
    for m in m_list:
        check_int(m, "m")
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise InputError(f"{name} must be strictly ascending, got {list(m_list)}")
    check_int(trials, "trials")


def _grid(experiment: str, m_list, l: int, trials: int, base_seed: int,
          error) -> ConcentrationReport:
    """One cell per (m, trial), m-major, each with error(m, seed) at seed
    derive_seed(base_seed, m, trial)."""
    return ConcentrationReport(experiment, [
        CellResult(experiment, m, l, trial, seed, float(error(m, seed)))
        for m in m_list for trial in range(trials)
        for seed in [derive_seed(base_seed, m, trial)]])


def tied_vs_population(x, sigma_w2: float, m_list, l: int, trials: int,
                       base_seed: int) -> ConcentrationReport:
    """Per (m, trial): fresh init, l layer steps, ||G^(l)/m - K^(l)||_F."""
    x = as_matrix(x, "X")
    check_grid(m_list, trials)
    for k_l in kernel_layer_sequence(x, sigma_w2, l):
        pass  # keep the last level, K^(l)
    d = x.shape[0]

    def error(m, seed):
        z = layer_iterates(init_params(m, d, sigma_w2, seed), x, l)[-1]
        return np.linalg.norm(gram(z) / m - k_l)
    return _grid("tied_vs_population", m_list, l, trials, base_seed, error)


def lambda0_vs_width(x, sigma_w2: float, m_list, trials: int, base_seed: int,
                     solver: SolverConfig = SolverConfig()) -> ConcentrationReport:
    """Record lambda_0 / (m lambda_star) per trial; lambda_0 from the
    equilibrium Gram matrix of a fresh initialization.

    The `error` column carries the ratio, exactly 0 for m < n (as in
    train.gram_min_eig). extra["fraction_ge_half"] maps m to the fraction
    of trials with ratio >= 1/2.
    """
    x = as_matrix(x, "X")
    check_grid(m_list, trials)
    pk = kernel_fixed_point(x, sigma_w2)
    if pk.lambda_star <= 0:
        raise AssumptionError(
            f"population kernel is not positive definite "
            f"(lambda_star = {pk.lambda_star:.3e}); the data violates the "
            f"no-parallel-pairs assumption or is degenerate")
    d, n = x.shape

    def error(m, seed):
        z = solve_equilibrium(init_params(m, d, sigma_w2, seed), x, solver).z
        # rank Z <= m, so lambda_0 is exactly 0 below n; otherwise the
        # eigensolve's value with negative roundoff projected to 0.
        lam0 = 0.0 if m < n else max(0.0, min_eig_sym(gram(z)))
        return lam0 / (m * pk.lambda_star)
    report = _grid("lambda0_vs_width", m_list, 0, trials, base_seed, error)
    fractions = {m: float(np.mean(report.errors_for(m=m) >= 0.5)) for m in m_list}
    report.extra = {"fraction_ge_half": fractions, "lambda_star": pk.lambda_star}
    return report


def fresh_randomness_reconstruct(p: DeqParams, x, i: int, j: int, l: int):
    """Rebuild G^(l+1)_ij as relu(M h)^T relu(M h') and report both errors.

    One Householder QR of the columns [z_i^(1..l-1), z_j^(1..l-1), z_i^(l),
    z_j^(l)] (j's only when j != i) is Gram-Schmidt in that order (Golub &
    Van Loan, ch. 5): C = QR. M = [(sqrt(m)/sigma_w) W Q, sqrt(d) U] and
    h = [(sigma_w/sqrt(m)) R e_i, x_i/sqrt(d)], with R e_i the column of R
    that rebuilds z_i^(l), so that M h = W z_i^(l) + U x_i exactly, whatever
    signs QR gives Q's columns; the construction makes M's entries
    conditionally fresh N(0, 2) draws. Returns (identity_error,
    inner_product_error):

        identity_error = |relu(Mh)^T relu(Mh') - G^(l+1)_ij|,
        inner_product_error = |h^T h' - (sigma_w^2/m G^(l)_ij + x_i^T x_j / d)|.

    Both are exact in exact arithmetic; float rounding scales with machine
    epsilon times the problem size, not with 1/sqrt(m).
    """
    x = as_matrix(x, "X")
    n = x.shape[1]
    check_int(i, "i", 0)
    check_int(j, "j", 0)
    if not (i < n and j < n):
        raise InputError(f"column indices ({i}, {j}) out of range for n={n}")
    check_int(l, "l")
    zs = layer_iterates(p, x, l + 1)
    cols = [i] if j == i else [i, j]  # for i == j the histories coincide
    c = np.column_stack([zs[level][:, k] for k in cols for level in range(l - 1)]
                        + [zs[l - 1][:, k] for k in cols])
    q, r = np.linalg.qr(c)
    # A column past the m-th has no pivot: it depends on its predecessors.
    pivots = np.pad(np.abs(np.diag(r)), (0, c.shape[1] - r.shape[0]))
    hist = len(cols) * (l - 1)
    small = np.flatnonzero(pivots[:hist] < 1e-12)
    if small.size:
        raise DegenerateInputError(
            f"history column {small[0]} is linearly dependent on its "
            f"predecessors (|R_kk| = {pivots[small[0]]:.3e} < 1e-12)")
    if pivots[hist] < 1e-12:
        raise InputError(
            f"residual of z_i^({l}) against the history has norm "
            f"{pivots[hist]:.3e}; the fresh direction is undefined")

    sigma_w, sqrt_m, sqrt_d = np.sqrt(p.sigma_w2), np.sqrt(p.m), np.sqrt(p.d)
    m_mat = np.hstack([(sqrt_m / sigma_w) * (p.w @ q), sqrt_d * p.u])
    h = np.concatenate([sigma_w / sqrt_m * r[:, hist], x[:, i] / sqrt_d])
    h_prime = np.concatenate([sigma_w / sqrt_m * r[:, -1], x[:, j] / sqrt_d])

    lhs = float(np.maximum(m_mat @ h, 0) @ np.maximum(m_mat @ h_prime, 0))
    g_next = float(zs[l][:, i] @ zs[l][:, j])
    identity_error = abs(lhs - g_next)

    target = (p.sigma_w2 / p.m * float(zs[l - 1][:, i] @ zs[l - 1][:, j])
              + float(x[:, i] @ x[:, j]) / p.d)
    inner_error = abs(float(h @ h_prime) - target)
    return identity_error, inner_error


def write_report_csv(path, report: ConcentrationReport) -> None:
    write_csv(path, "experiment,m,l,trial,seed,error", map(astuple, report.cells))


def write_summary_csv(path, report: ConcentrationReport) -> None:
    write_csv(path, "experiment,m,l,trials,q1,median,q3", report.summary_rows())
