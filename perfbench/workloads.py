"""The benchmark workloads, all at sigma_w^2 = 0.08 in float64.

Each workload has a set-up step, a timed phase made of items, and an
output check that runs after timing. The benchmark seed derives every
data, initialization and Monte Carlo seed; deqlab sees only the results.
deqlab functions are looked up on their modules at call time, so a traced
run sees the tracer's wrappers and an untraced run the originals.

A run times a few distinct items, each several times, in rounds: round
r runs every item once, in order, so the repeats of one item lie spread
over the whole run. An item's time is its fastest repeat. The machine's
speed drifts by tens of percent over seconds to minutes (a shared host),
and only ever downwards from its best, so the fastest of repeats spread
over a run is what stays put from run to run, as far as a run sees a
fast stretch at all.

The item count is fixed by the run length and a reference cost per item
(2 cores, OpenBLAS with 2 threads), so a run lasts about `--seconds` there
and two versions of the program time the same inputs. Where a random
draw sets the cost of a whole run (train_wide's init, mc_lambda0's trial
seeds), it comes from a fixed stream and the seed varies the data only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from deqlab import cli, concentration, data, model, train
from deqlab.errors import DeqlabError

SIGMA_W2 = 0.08
ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "synthetic_desk.yaml"


SHARED = "shared"  # stands in for the benchmark seed in seed-independent streams


def derive(seed, *labels) -> int:
    """A 32-bit seed from the benchmark seed and a label path."""
    return random.Random(":".join(map(str, (seed, *labels)))).getrandbits(32)


@dataclass
class Items:
    """Every timed repeat as a (start, end) pair, the distinct item each
    one ran, the cold start that preceded them (counted in set-up), and
    what the output check needs. A check returns {repeat index: why}.

    A workload's `run(state, rounds, between_rounds)` calls
    `between_rounds()` before every round but the first."""

    spans: list
    item_of: list
    cold_s: float
    outputs: list

    def best(self) -> list:
        """Each distinct item's fastest repeat, in item order."""
        best = {}
        for (start, end), i in zip(self.spans, self.item_of):
            best[i] = min(best.get(i, math.inf), end - start)
        return [best[i] for i in sorted(best)]


class TrainWide:
    """GD steps of `train` at m=2000, n=200, d=100, tol 1e-8, warm start.

    A round is one `train` call from the same initial parameters, so
    every round takes the same steps; step k of each round is one repeat
    of item k. Only the first round's cold start counts in set-up. The
    seed draws the data. The initialization comes from one fixed
    stream: the cold and warm `spectral_norm` sweeps are set by W's
    spectral gap, and seed-drawn inits moved the median step by 0.69 to
    0.83 s across five seeds.
    """

    name = "train_wide"
    item_s = 0.8
    rounds = 3
    tol = 1e-8
    loss_rtol = 1e-6  # cold re-solve of the final params vs the last record

    def __init__(self, toy: bool):
        self.m, self.n, self.d = (60, 12, 10) if toy else (2000, 200, 100)

    def setup(self, seed: int, n_items: int, work: Path):
        ds = data.gen_sphere_data(self.n, self.d, derive(seed, "data"))
        p0 = model.init_params(self.m, self.d, SIGMA_W2, derive(SHARED, "init"))
        solver = model.SolverConfig(tol=self.tol)
        sol = model.solve_equilibrium(p0, ds.x, solver)
        eta = train.auto_eta(p0, sol.z, ds.x, 0.5, solver)
        cfg = train.TrainConfig(eta=eta, steps=n_items + 2, monitor_every=1,
                                solver=solver)
        return ds, p0, cfg

    def run(self, state, rounds: int, between_rounds) -> Items:
        ds, p0, cfg = state
        spans, item_of, cold, traces = [], [], [], []
        for r in range(rounds):
            if r:
                between_rounds()
            stamps = []
            start = time.perf_counter()
            params, trace = train.train(
                p0, ds, cfg, checkpoint_every=1,
                on_checkpoint=lambda step, p: stamps.append(time.perf_counter()))
            # Checkpoints fire after each update and once more at the end;
            # the last interval holds two half steps, so it is not an item.
            steps = stamps[:-1]
            spans += zip(steps[:-1], steps[1:])
            item_of += range(len(steps) - 1)
            cold.append(stamps[0] - start)
            traces.append(trace)
        return Items(spans=spans, item_of=item_of, cold_s=cold[0],
                     outputs=[traces, params, ds, cfg])

    def check(self, items: Items) -> dict:
        traces, params, ds, cfg = items.outputs
        per_round = len(items.spans) // len(traces)
        failed = {}
        for k, trace in enumerate(traces):
            first, last = k * per_round, (k + 1) * per_round - 1
            prev = None
            for r in trace.records:
                item = first + min(max(r.step - 1, 0), per_round - 1)
                if not math.isfinite(r.loss):
                    failed[item] = f"step {r.step}: loss {r.loss}"
                elif prev is not None and r.loss > prev * (1 + 1e-10):
                    failed[item] = f"step {r.step}: loss rose {prev!r} -> {r.loss!r}"
                elif not r.w_spec_norm < 1.0:
                    failed[item] = f"step {r.step}: ||W|| = {r.w_spec_norm}"
                elif not r.residual <= cfg.solver.tol:
                    failed[item] = f"step {r.step}: residual {r.residual}"
                prev = r.loss
        cold = model.solve_equilibrium(params, ds.x, cfg.solver)
        again = model.loss(model.predict(params, cold.z), ds.y)
        final = traces[-1].records[-1].loss
        if not abs(again - final) <= self.loss_rtol * abs(final):
            failed[last] = f"cold re-solve loss {again!r} != last record {final!r}"
        return failed


class KernelCommand:
    """One in-process `deqlab kernel` on the desk config, returning its
    exit code and the digests of its outputs."""

    outputs = ("kernel.csv", "kernel_depth_decay.csv")

    def __init__(self, n: int, seed: int, out: Path):
        self.out = out
        self.argv = ["kernel", "-c", str(CONFIG),
                     "--set", f"data.n={n}", "--set", f"data.seed={seed}",
                     "--set", f"output.directory={out}"]

    def __call__(self) -> tuple:
        shutil.rmtree(self.out, ignore_errors=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(self.argv, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # as the standalone CLI: a traceback and exit 1
            traceback.print_exc()
            code = 1
        return code, tuple(
            hashlib.sha256((self.out / f).read_bytes()).hexdigest()
            if (self.out / f).is_file() else None for f in self.outputs)


class McLambda0:
    """Trials of the criterion-6 lambda_0 grid at n=16, d=16, and the
    population-kernel command they are measured against.

    Items are trials, one each, plus one `deqlab kernel` call at n=200 as
    the last item; every round runs each item once. The seed draws both
    data sets. The trials' base seeds come from one fixed stream shared by
    every benchmark seed: a trial's cost is set by the power-iteration
    sweeps of its W (0.5 to 7 s at m=1600, coefficient of variation 0.7),
    so seed-drawn trials would move a run's median by tens of percent
    between seeds.
    """

    name = "mc_lambda0"
    item_s = 1.05  # per trial; the kernel call adds about 0.2 s a round
    rounds = 5
    lam_rtol = 1e-8  # lambda_0 vs sigma_min(Z)^2 from an SVD

    def __init__(self, toy: bool):
        self.n = self.d = 6 if toy else 16
        self.widths = [20, 40, 80] if toy else [100, 400, 1600]
        self.kernel_n = 40 if toy else 200

    def setup(self, seed: int, n_items: int, work: Path):
        ds = data.gen_sphere_data(self.n, self.d, derive(seed, "data"))
        kernel = KernelCommand(self.kernel_n, derive(seed, "kernel data"),
                               work / "kernel")
        # The first trial is the untimed cold start.
        return (ds.x, [derive(SHARED, "trial", i) for i in range(n_items + 1)],
                kernel)

    def trial(self, x, seed: int):
        try:
            return concentration.lambda0_vs_width(x, SIGMA_W2, self.widths,
                                                  trials=1, base_seed=seed)
        except DeqlabError as exc:  # the check marks the repeat failed
            return exc

    def run(self, state, rounds: int, between_rounds) -> Items:
        x, trial_seeds, kernel = state
        t0 = time.perf_counter()
        self.trial(x, trial_seeds[0])
        cold_kernel = kernel()
        cold_s = time.perf_counter() - t0
        calls = [(lambda s=s: self.trial(x, s)) for s in trial_seeds[1:]]
        calls.append(kernel)
        spans, item_of, results = [], [], []
        for r in range(rounds):
            if r:
                between_rounds()
            for i, call in enumerate(calls):
                t0 = time.perf_counter()
                results.append(call())
                spans.append((t0, time.perf_counter()))
                item_of.append(i)
        return Items(spans=spans, item_of=item_of, cold_s=cold_s,
                     outputs=[x, trial_seeds[1:], results, cold_kernel])

    def check(self, items: Items) -> dict:
        """Trials: every ratio finite and positive. Kernel calls: exit code
        0 and the cold call's outputs on every repeat (criterion 9's
        determinism)."""
        x, trial_seeds, results, cold_kernel = items.outputs
        kernel_item = len(trial_seeds)
        failed = {}
        for k, (res, i) in enumerate(zip(results, items.item_of)):
            if i == kernel_item:
                code, digests = res
                if code != 0:
                    failed[k] = f"kernel exit code {code}"
                elif None in digests or digests != cold_kernel[1]:
                    failed[k] = "kernel outputs differ from the first call's"
            elif isinstance(res, DeqlabError):
                failed[k] = f"raised {res!r}"
            elif (len(res.cells) != len(self.widths)
                  or not all(math.isfinite(c.error) and c.error > 0
                             for c in res.cells)):
                failed[k] = f"ratios {[c.error for c in res.cells]}"
        # lambda_0 of the first trial against an independent SVD (m >= n).
        m = self.widths[-1]
        cell = next(c for c in results[0].cells if c.m == m)
        p = model.init_params(m, self.d, SIGMA_W2,
                              concentration.derive_seed(trial_seeds[0], m, 0))
        z = model.solve_equilibrium(p, x).z
        smin2 = float(np.linalg.svd(z, compute_uv=False)[-1] ** 2)
        lam0 = cell.error * m * results[0].extra["lambda_star"]
        if not abs(lam0 - smin2) <= self.lam_rtol * smin2:
            failed[0] = f"lambda_0 {lam0!r} != sigma_min(Z)^2 {smin2!r}"
        return failed


WORKLOADS = {w.name: w for w in (TrainWide, McLambda0)}
