"""Run one workload in this process and print its raw result as one JSON line.

run.py starts this file in a fresh process with the BLAS thread variables
already in the environment, so numpy reads them when it loads, and with
PYTHONPATH pointing at the checkout's `src/`. Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer
from run import THREAD_VARS
from workloads import ROOT, WORKLOADS

UNTRACED_SETUPS = 3
TOY_ITEMS, TOY_ROUNDS = 2, 2


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(ROOT),
    }


def timed_stats(tr: tracer.Tracer, spans: list) -> dict:
    """layer_stats summed over the deqlab spans that start inside a timed
    repeat (not in the cold starts between train_wide's rounds)."""
    total = tracer.layer_stats([])
    for lo, hi in spans:
        for name, st in tracer.layer_stats(tr.spans, lo, hi).items():
            for key, value in st.items():
                total[name][key] += value
    return total


def trace_metrics(tr: tracer.Tracer, spans: list, workload: str) -> tuple:
    """Per-layer metrics over the traced run, and each layer's share of
    the timed repeats by self time."""
    timed = sum(e - s for s, e in spans)
    covered = sum(tracer.covered_time(tr.spans, s, e) for s, e in spans)
    metrics = {}
    for name, st in tracer.layer_stats(tr.spans).items():
        metrics[f"{name}.calls"] = (st["calls"], "count")
        metrics[f"{name}.self_s"] = (st["self_s"], "s")
        if name in tracer.ITERATIVE:
            metrics[f"{name}.iters_per_call"] = (
                st["work"] / st["calls"] if st["calls"] else 0.0, "iter")
        if name == "data.save_matrix_csv":
            metrics[f"{name}.bytes"] = (st["work"], "bytes")
    in_timed = timed_stats(tr, spans)
    products = 0.0
    if workload == tracer.TW:
        # m^2 n products per GD step: forward and adjoint iterations, the
        # mask's W Z, and the gradient's M Z^T.
        products = (in_timed["model.solve_equilibrium"]["work"]
                    + in_timed["grad.solve_adjoint"]["work"]
                    + in_timed["grad.activation_mask"]["calls"]
                    + in_timed["grad.gradients"]["calls"]) / len(spans)
    metrics["train.products_per_step"] = (products, "products/step")
    calls = sum(st["calls"] for st in in_timed.values())
    metrics["trace.overhead_frac"] = (
        tr.overhead_per_call_s() * calls / timed, "fraction")
    metrics["trace.unattributed_frac"] = (1.0 - covered / timed, "fraction")
    shares = {name: st["self_s"] / timed
              for name, st in in_timed.items() if st["calls"]}
    return metrics, shares


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args()
    import_s = time.monotonic() - args.t_spawn

    wl = WORKLOADS[args.workload](args.toy)
    # Distinct items, each repeated once per round, so that the repeats
    # last about `--seconds` at the reference cost per item.
    if args.toy:
        n_items, rounds = TOY_ITEMS, TOY_ROUNDS
    else:
        rounds = wl.rounds
        n_items = max(1, round(args.seconds / (wl.item_s * rounds)))
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    tr = None
    if args.trace:
        tr = tracer.Tracer(args.workload)
        tr.install()
    elif tracer.wrapped_bindings():
        print(f"untraced run sees wrappers: {tracer.wrapped_bindings()}",
              file=sys.stderr)
        return 3

    setup_times = []

    def setup():
        t0 = time.perf_counter()
        state = wl.setup(args.seed, n_items, work)
        setup_times.append(time.perf_counter() - t0)
        return state

    def between_rounds() -> None:
        # An untraced run repeats the set-up between the first rounds, for
        # the median in setup_s; this also spreads the rounds over more
        # time. The repeats' state is dropped: every round uses the first.
        if not args.trace and len(setup_times) < UNTRACED_SETUPS:
            setup()

    items = wl.run(setup(), rounds, between_rounds)
    while not args.trace and len(setup_times) < UNTRACED_SETUPS:
        setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tr is not None:
        tr.uninstall()
        if tr.uncalled():
            print(f"wrapped bindings saw no call: {tr.uncalled()}",
                  file=sys.stderr)
            return 4
    try:
        failures = wl.check(items)
    except Exception:  # a check that cannot run fails every item
        failures = {i: traceback.format_exc() for i in range(len(items.spans))}

    durations = [e - s for s, e in items.spans]
    best = items.best()
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times) + items.cold_s,
                    "s"),
        "items_per_s": (len(best) / sum(best), "1/s"),
        "item_p50_s": (statistics.median(best), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "toy": args.toy, "items": n_items, "rounds": rounds,
        "repeats": len(durations),
        "failed_repeats": {str(k): v for k, v in sorted(failures.items())},
        "durations_s": durations, "item_of": items.item_of, "best_s": best,
        "import_s": import_s, "setup_times_s": setup_times,
        "cold_start_s": items.cold_s, "env": environment(),
        "wrapped_bindings": tracer.wrapped_bindings(),
    }
    if tr is not None:
        layer_metrics, shares = trace_metrics(tr, items.spans, args.workload)
        metrics.update(layer_metrics)
        result["timed_self_share"] = shares
        result["calls"] = tr.calls
        if args.spans_out:
            with open(args.spans_out, "w") as f:
                json.dump({"columns": ["id", "name", "start", "end", "parent",
                                       "iterations_or_bytes"],
                           "items": items.spans, "spans": tr.spans}, f)
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
