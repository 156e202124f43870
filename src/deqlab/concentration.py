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

from .errors import AssumptionError, InputError
from .kernel import PopulationKernel, kernel_fixed_point, kernel_layer_sequence
from .linalg import as_matrix, gram, gram_schmidt, min_eig_sym
from .model import DeqParams, SolverConfig, forward_layer, init_params, solve_equilibrium
from .reporting import write_csv

__all__ = [
    "CellResult",
    "ConcentrationReport",
    "derive_seed",
    "layer_iterates",
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
    trials: int
    base_seed: int
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
    ss = np.random.SeedSequence([int(base_seed), int(m), int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


def layer_iterates(p: DeqParams, x, depth: int) -> list:
    """Z^(1), ..., Z^(depth) of the layer iteration started at Z^(0) = 0."""
    if depth < 1:
        raise InputError("depth must be >= 1")
    x = as_matrix(x, "X")
    zs = []
    z = np.zeros((p.m, x.shape[1]))
    for _ in range(depth):
        z = forward_layer(p, z, x)
        zs.append(z)
    return zs


def kernel_depth_decay(pk: PopulationKernel, x, l_max: int) -> list:
    """||K - K^(l)||_F for l = 1..l_max, where K is `pk`, the caller's
    kernel_fixed_point of the same x; deterministic."""
    return [float(np.linalg.norm(pk.k - k))
            for k in kernel_layer_sequence(x, pk.sigma_w2, l_max)]


def _check_grid(m_list, trials: int) -> None:
    """The Monte Carlo grid: widths non-empty and strictly ascending (a
    repeated width would redraw the same seeds), at least one trial."""
    if not m_list:
        raise InputError("m_list is empty")
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise InputError(f"m_list must be strictly ascending, got {list(m_list)}")
    if trials < 1:
        raise InputError("trials must be >= 1")


def tied_vs_population(x, sigma_w2: float, m_list, l: int, trials: int,
                       base_seed: int) -> ConcentrationReport:
    """Per (m, trial): fresh init, l layer steps, ||G^(l)/m - K^(l)||_F."""
    x = as_matrix(x, "X")
    _check_grid(m_list, trials)
    for k_l in kernel_layer_sequence(x, sigma_w2, l):
        pass  # keep the last level, K^(l)
    d = x.shape[0]
    cells = []
    for m in m_list:
        for trial in range(trials):
            seed = derive_seed(base_seed, m, trial)
            p = init_params(m, d, sigma_w2, seed)
            z = layer_iterates(p, x, l)[-1]
            err = float(np.linalg.norm(gram(z) / m - k_l))
            cells.append(CellResult("tied_vs_population", m, l, trial, seed, err))
    return ConcentrationReport("tied_vs_population", cells, trials, base_seed)


def lambda0_vs_width(x, sigma_w2: float, m_list, trials: int, base_seed: int,
                     solver: SolverConfig = SolverConfig()) -> ConcentrationReport:
    """Record lambda_0 / (m lambda_star) per trial; lambda_0 from the
    equilibrium Gram matrix of a fresh initialization.

    The `error` column carries the ratio, exactly 0 for m < n (as in
    train.gram_min_eig). extra["fraction_ge_half"] maps m to the fraction
    of trials with ratio >= 1/2.
    """
    x = as_matrix(x, "X")
    _check_grid(m_list, trials)
    pk = kernel_fixed_point(x, sigma_w2)
    if pk.lambda_star <= 0:
        raise AssumptionError(
            f"population kernel is not positive definite "
            f"(lambda_star = {pk.lambda_star:.3e}); the data violates the "
            f"no-parallel-pairs assumption or is degenerate")
    d = x.shape[0]
    cells = []
    fractions = {}
    for m in m_list:
        ratios = []
        for trial in range(trials):
            seed = derive_seed(base_seed, m, trial)
            p = init_params(m, d, sigma_w2, seed)
            z = solve_equilibrium(p, x, solver).z
            # rank Z <= m, so lambda_0 is exactly 0 below n; otherwise the
            # eigensolve's value with negative roundoff projected to 0.
            lam0 = 0.0 if m < x.shape[1] else max(0.0, min_eig_sym(gram(z)))
            ratio = lam0 / (m * pk.lambda_star)
            ratios.append(ratio)
            cells.append(CellResult("lambda0_vs_width", m, 0, trial, seed,
                                    float(ratio)))
        fractions[m] = float(np.mean([r >= 0.5 for r in ratios]))
    return ConcentrationReport("lambda0_vs_width", cells, trials, base_seed,
                               extra={"fraction_ge_half": fractions,
                                      "lambda_star": pk.lambda_star})


def fresh_randomness_reconstruct(p: DeqParams, x, i: int, j: int, l: int):
    """Rebuild G^(l+1)_ij as relu(M h)^T relu(M h') and report both errors.

    M packs W's action on the orthonormalized history of columns i and j
    (plus the scaled input map), so that M h = W z_i^(l) + U x_i exactly;
    the construction makes M's entries conditionally fresh N(0, 2) draws.
    Returns (identity_error, inner_product_error):

        identity_error = |relu(Mh)^T relu(Mh') - G^(l+1)_ij|,
        inner_product_error = |h^T h' - (sigma_w^2/m G^(l)_ij + x_i^T x_j / d)|.

    Both are exact in exact arithmetic; float rounding scales with machine
    epsilon times the problem size, not with 1/sqrt(m).
    """
    x = as_matrix(x, "X")
    n = x.shape[1]
    if not (0 <= i < n and 0 <= j < n):
        raise InputError(f"column indices ({i}, {j}) out of range for n={n}")
    if l < 1:
        raise InputError("l must be >= 1")
    zs = layer_iterates(p, x, l + 1)
    sigma_w = np.sqrt(p.sigma_w2)
    sqrt_m = np.sqrt(p.m)
    sqrt_d = np.sqrt(p.d)

    zi, zj = zs[l - 1][:, i], zs[l - 1][:, j]
    history = [zs[level][:, i] for level in range(l - 1)]
    if j != i:  # for i == j the two column histories coincide
        history += [zs[level][:, j] for level in range(l - 1)]
    if history:
        v = gram_schmidt(history)
        proj = lambda vec: vec - v @ (v.T @ vec)
    else:
        v = np.zeros((p.m, 0))
        proj = lambda vec: vec
    pvec = proj(zi)
    qvec = proj(zj)
    p_norm = float(np.linalg.norm(pvec))
    if p_norm < 1e-12:
        raise InputError(
            f"residual of z_i^({l}) against the history has norm {p_norm:.3e}; "
            f"the parallel/orthogonal split is undefined")
    q_par_coeff = float(pvec @ qvec) / p_norm**2
    q_perp = qvec - q_par_coeff * pvec
    q_perp_norm = float(np.linalg.norm(q_perp))
    # For i == j the orthogonal part vanishes; its M column is multiplied
    # by a zero entry of h and h', so any unit filler keeps the identity.
    q_perp_dir = q_perp / q_perp_norm if q_perp_norm > 1e-12 else np.zeros(p.m)

    m_mat = np.column_stack([
        (sqrt_m / sigma_w) * (p.w @ v) if v.shape[1] else np.zeros((p.m, 0)),
        (sqrt_m / sigma_w) * (p.w @ (pvec / p_norm)),
        (sqrt_m / sigma_w) * (p.w @ q_perp_dir),
        sqrt_d * p.u,
    ])
    scale = sigma_w / sqrt_m
    h = np.concatenate([scale * (v.T @ zi), [scale * p_norm], [0.0],
                        x[:, i] / sqrt_d])
    h_prime = np.concatenate([scale * (v.T @ zj),
                              [scale * (float(pvec @ qvec) / p_norm)],
                              [scale * q_perp_norm],
                              x[:, j] / sqrt_d])

    lhs = float(np.maximum(m_mat @ h, 0) @ np.maximum(m_mat @ h_prime, 0))
    g_next = float(zs[l][:, i] @ zs[l][:, j])
    identity_error = abs(lhs - g_next)

    g_cur = float(zi @ zj)
    target = p.sigma_w2 / p.m * g_cur + float(x[:, i] @ x[:, j]) / p.d
    inner_error = abs(float(h @ h_prime) - target)
    return identity_error, inner_error


def write_report_csv(path, report: ConcentrationReport) -> None:
    write_csv(path, "experiment,m,l,trial,seed,error", map(astuple, report.cells))


def write_summary_csv(path, report: ConcentrationReport) -> None:
    write_csv(path, "experiment,m,l,trials,q1,median,q3", report.summary_rows())
