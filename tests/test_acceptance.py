"""Acceptance suite: one test per release criterion, stated tolerances.

Each test prints a single `[criterion N] PASS/FAIL` line (visible under
`pytest -s` or in the captured output of a failure). Criteria 5-7 run
Monte Carlo / training workloads sized for a desktop; on 2 cores (Intel
Xeon, OpenBLAS with 2 threads) nearly all of the module's time is
criterion 7's width sweep, which took 217 s.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from deqlab.cli import main as cli_main
from deqlab.concentration import (
    fresh_randomness_reconstruct,
    lambda0_vs_width,
    tied_vs_population,
)
from deqlab.condition import check_condition, init_bounds
from deqlab.data import gen_sphere_data
from deqlab.grad import (
    activation_mask,
    dense_gradients_reference,
    finite_difference_gradients,
    gradients,
    solve_adjoint,
)
from deqlab.kernel import kernel_fixed_point, kernel_layer_sequence
from deqlab.linalg import spectral_norm
from deqlab.model import SolverConfig, init_params, predict, solve_equilibrium
from deqlab.train import TrainConfig, auto_eta, train


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}",
          flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_gradient_finite_differences():
    """Adjoint gradients match central differences entrywise to 1e-4."""
    t0 = time.time()
    p = init_params(30, 8, 0.08, seed=0)
    ds = gen_sphere_data(5, 8, seed=0)
    solver = SolverConfig(tol=1e-12)
    sol = solve_equilibrium(p, ds.x, solver)
    g, _ = gradients(p, sol, ds.x, ds.y, solver)
    fd, valid = finite_difference_gradients(p, ds.x, ds.y, cfg=solver)
    worst = 0.0
    excluded = 0
    for a, b, v in ((g.gw, fd.gw, valid.gw), (g.gu, fd.gu, valid.gu),
                    (g.ga, fd.ga, valid.ga)):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
        rel = np.abs(a - b) / denom
        worst = max(worst, float(rel[v].max()))
        excluded += int((~v).sum())
    elapsed = time.time() - t0
    report(1, worst <= 1e-4 and elapsed < 30.0,
           f"max relative error {worst:.3e} (cap 1e-4), {excluded} kink "
           f"probes excluded, {elapsed:.1f}s (cap 30s)")


def test_criterion_2_kronecker_equivalence():
    """Adjoint route equals the explicit dense construction at mn <= 400."""
    worst = 0.0
    for seed, (m, n, d) in enumerate([(20, 10, 6), (40, 5, 8), (8, 4, 3),
                                      (40, 10, 4)]):
        p = init_params(m, d, 0.08, seed=seed)
        ds = gen_sphere_data(n, d, seed=seed + 100)
        solver = SolverConfig(tol=1e-13)
        sol = solve_equilibrium(p, ds.x, solver)
        g, _ = gradients(p, sol, ds.x, ds.y, solver)
        ref = dense_gradients_reference(p, sol.z, ds.x, ds.y)
        for a, b in ((g.gw, ref.gw), (g.gu, ref.gu), (g.ga, ref.ga)):
            rel = np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)
            worst = max(worst, float(rel))
    report(2, worst <= 1e-8,
           f"max relative deviation {worst:.3e} over 4 instances (cap 1e-8)")


def test_criterion_3_reconstruction_identities():
    """Fresh-randomness rebuild of Gram entries is exact to rounding."""
    m, d, n, level = 200, 16, 8, 3
    p = init_params(m, d, 0.08, seed=4)
    ds = gen_sphere_data(n, d, seed=3)
    worst_id, worst_ip = 0.0, 0.0
    for i in range(n):
        for j in range(n):
            id_err, ip_err = fresh_randomness_reconstruct(p, ds.x, i, j, level)
            worst_id = max(worst_id, id_err)
            worst_ip = max(worst_ip, ip_err)
    report(3, worst_id <= 1e-8 * m and worst_ip <= 1e-10,
           f"identity error {worst_id:.3e} (cap {1e-8 * m:.0e}), "
           f"inner-product error {worst_ip:.3e} (cap 1e-10), all {n * n} pairs")


def test_criterion_4_kernel_self_consistency():
    """Depth-60 recursion meets the fixed point; contraction inequality holds."""
    sigma_w2 = 0.08
    x = gen_sphere_data(16, 16, seed=4).x
    ks = list(kernel_layer_sequence(x, sigma_w2, 60))
    k_inf = kernel_fixed_point(x, sigma_w2).k
    gap = float(np.abs(ks[-1] - k_inf).max())

    worst_violation = -np.inf
    for level in range(2, 60):  # inequality at l: needs K^(l+1), K^(l), K^(l-1)
        lhs = np.abs(ks[level] - ks[level - 1])
        rhs = sigma_w2 * np.abs(ks[level - 1] - ks[level - 2]) + 2 * sigma_w2**level
        worst_violation = max(worst_violation, float((lhs - rhs).max()))
    report(4, gap <= 1e-10 and worst_violation <= 1e-12,
           f"depth-60 vs fixed point gap {gap:.3e} (cap 1e-10); recursion "
           f"inequality worst slack violation {worst_violation:.3e} (cap 1e-12)")


def test_criterion_5_concentration_trend():
    """Median ||G^(l)/m - K^(l)||_F drops by >= 1.5x per 4x width."""
    t0 = time.time()
    x = gen_sphere_data(16, 16, seed=5).x
    rep = tied_vs_population(x, 0.08, [100, 400, 1600], l=6, trials=20,
                             base_seed=42)
    meds = [float(np.median(rep.errors_for(m=m))) for m in (100, 400, 1600)]
    r1, r2 = meds[0] / meds[1], meds[1] / meds[2]
    elapsed = time.time() - t0
    report(5, r1 >= 1.5 and r2 >= 1.5 and elapsed < 600.0,
           f"medians {meds[0]:.3f} / {meds[1]:.3f} / {meds[2]:.3f}, ratios "
           f"{r1:.2f}, {r2:.2f} (floor 1.5), {elapsed:.0f}s (cap 600s)")


def test_criterion_6_lambda0_scaling():
    """Fraction of trials with lambda_0 >= (m/2) lambda* grows to >= 0.9."""
    x = gen_sphere_data(16, 16, seed=5).x
    rep = lambda0_vs_width(x, 0.08, [100, 400, 1600], trials=20, base_seed=42)
    fr = rep.extra["fraction_ge_half"]
    ok = fr[100] <= fr[400] <= fr[1600] and fr[1600] >= 0.9
    report(6, ok,
           f"fractions {fr[100]:.2f} -> {fr[400]:.2f} -> {fr[1600]:.2f} "
           f"(non-decreasing, >= 0.9 at m=1600); lambda* = "
           f"{rep.extra['lambda_star']:.4f}")


def test_criterion_7_training_guarantees():
    """Width sweep at one shared auto step size: well-posedness, monotone
    loss, width-ordered finals, PL floor; envelope asserted only under the
    initialization condition. That branch cannot run at init_bounds'
    default delta: inequality 3 as transcribed has lambda_0 / rhs_3 <=
    1/(16n) for every W, U, a and X (TestInequalityThreeBound in
    test_condition.py), so the condition never holds here;
    TestTheoremInItsRegime, in the same file, asserts the envelope in the
    theorem's own regime."""
    t0 = time.time()
    ds = gen_sphere_data(200, 100, seed=7)
    solver = SolverConfig(tol=1e-8)
    widths = (100, 500, 2000)

    p_big = init_params(widths[-1], 100, 0.08, seed=11)
    sol_big = solve_equilibrium(p_big, ds.x, solver)
    eta = auto_eta(p_big, sol_big.z, ds.x, 0.5, solver)

    finals = {}
    failures = []
    for m in widths:
        p0 = init_params(m, 100, 0.08, seed=11)
        cfg = TrainConfig(eta=eta, steps=500, solver=solver, monitor_every=1)
        _, trace = train(p0, ds, cfg)
        losses = trace.column("loss")
        wnorms = trace.column("w_spec_norm")
        lams = trace.column("lambda_tau")
        gsq = trace.column("grad_norm_sq")
        finals[m] = losses[-1]

        if not np.all(wnorms < 1.0):
            failures.append(f"m={m}: ||W|| reached {wnorms.max():.4f}")
        if np.any(losses[1:] > losses[:-1] * (1 + 1e-10)):
            worst = float(np.max(losses[1:] - losses[:-1] * (1 + 1e-10)))
            failures.append(f"m={m}: loss increase {worst:.3e}")
        floor = gsq - (2.0 * lams * losses - 1e-8 * (1.0 + losses))
        if np.any(floor < 0):
            failures.append(f"m={m}: PL floor violated by {-floor.min():.3e}")

        # Linear-rate envelope: recorded always; asserted only if the
        # initialization condition holds (not expected at desk scale).
        r0 = float(np.sqrt(2.0 * trace.phi_0))  # phi = ||yhat - y||^2 / 2
        cond = check_condition(init_bounds(p0), trace.lambda_0, ds.x, r0)
        envelopes = trace.column("rate_envelope")
        if not np.all(np.isfinite(envelopes)):
            failures.append(f"m={m}: envelope not recorded")
        if all(cond.satisfied):
            if np.any(losses > envelopes * (1 + 1e-8)):
                failures.append(f"m={m}: envelope violated though the "
                                f"initialization condition holds")

    if not (finals[100] > finals[500] > finals[2000]):
        failures.append(f"final losses not width-ordered: {finals}")
    elapsed = time.time() - t0
    if elapsed >= 900.0:
        failures.append(f"runtime {elapsed:.0f}s >= 900s")
    report(7, not failures,
           f"shared eta {eta:.3e}; finals m100={finals[100]:.3f} > "
           f"m500={finals[500]:.3f} > m2000={finals[2000]:.4f}; "
           f"{elapsed:.0f}s (cap 900s)" + ("; " + "; ".join(failures)
                                           if failures else ""))


def test_criterion_8_solver_contracts():
    """100 well-posed instances: residuals meet tol, iterations meet the
    contraction bound, for both the forward and the adjoint solver."""
    solver = SolverConfig(tol=1e-10)
    rng = np.random.default_rng(2024)
    done = 0
    seed = 0
    worst_fwd_slack = -np.inf
    worst_res = 0.0
    while done < 100:
        seed += 1
        m = int(rng.integers(15, 60))
        n = int(rng.integers(2, 12))
        d = int(rng.integers(3, 12))
        sigma_w2 = float(rng.uniform(0.01, 0.11))
        p = init_params(m, d, sigma_w2, seed=seed)
        w = spectral_norm(p.w, tol=1e-12)
        if w >= 0.999:
            continue  # keep only clearly well-posed draws
        ds = gen_sphere_data(n, d, seed=seed + 10_000)
        bound = int(np.ceil(np.log(solver.tol * (1 - w)) / np.log(w))) + 10

        sol = solve_equilibrium(p, ds.x, solver)
        worst_res = max(worst_res, sol.residual)
        worst_fwd_slack = max(worst_fwd_slack, sol.iterations - bound)
        ok_fwd = sol.residual <= solver.tol and sol.iterations <= bound

        e = predict(p, sol.z) - ds.y
        mask = activation_mask(sol.pre)
        adj = solve_adjoint(p, mask, e, solver)
        worst_res = max(worst_res, adj.residual)
        worst_fwd_slack = max(worst_fwd_slack, adj.iterations - bound)
        ok_adj = adj.residual <= solver.tol and adj.iterations <= bound

        assert ok_fwd and ok_adj, (
            f"instance seed={seed} m={m} n={n} sigma_w2={sigma_w2:.3f}: "
            f"fwd iters {sol.iterations}, adj iters {adj.iterations}, "
            f"bound {bound}, residuals {sol.residual:.2e}/{adj.residual:.2e}")
        done += 1
    report(8, True,
           f"100 instances: worst residual {worst_res:.2e} (cap 1e-10), worst "
           f"iteration slack vs bound {worst_fwd_slack}")


def test_criterion_9_determinism(tmp_path):
    """Identical config + seeds give byte-identical CSV outputs."""
    runner = CliRunner()
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        args_common = ["--set", "data.n=12", "--set", "data.d=10",
                       "--set", "data.seed=3"]
        for cmd in (["gen-data"],
                    ["train", "--set", "model.m=25", "--set", "train.steps=5"],
                    ["kernel"],
                    ["concentration",
                     "--set", "concentration.m_list=[20, 40]",
                     "--set", "concentration.trials=3",
                     "--set", "concentration.l=2",
                     "--set", ("concentration.experiments="
                               "[tied_vs_population, lambda0_vs_width]")]):
            result = runner.invoke(
                cli_main, cmd + args_common + ["--set", f"output.directory={out}"],
                catch_exceptions=False)
            assert result.exit_code == 0, result.output
        blobs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    same = blobs[0] == blobs[1]
    report(9, same and len(blobs[0]) >= 8,
           f"{len(blobs[0])} CSV files byte-identical across repeat runs")
