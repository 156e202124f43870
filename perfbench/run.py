"""deqlab benchmark runner (standard library only).

    python3 perfbench/run.py --workload train_wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a fresh process (perfbench/worker.py) with the BLAS
thread count set in its environment before numpy loads. `--trace 0` times
the workload with deqlab untouched and reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` wraps deqlab's public functions and reports
the per-layer metrics. `--workload all` runs every workload untraced and
then traced and prints a table. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Full results (environment block, per-item times, failed checks) go to
.perfbench_out/<workload>_seed<seed>_trace<t>.json, and a traced run's
spans to .perfbench_out/spans_<workload>_seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("train_wide", "mc_lambda0")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 2  # the baseline's setting; capped at the CPUs we may use
WORKER_TIMEOUT_S = 170
REQUIRED = ("src/deqlab/__init__.py", "configs/synthetic_desk.yaml",
            "BENCHMARK.json")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_worker(workload: str, seed: int, seconds: int, trace: int,
               threads: int, toy: bool) -> dict:
    """Run one workload in a fresh process; return its raw result."""
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    work = OUT / f"work_{os.getpid()}_{workload}"
    spans = OUT / f"spans_{workload}_seed{seed}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", str(work)]
    if trace:
        cmd += ["--spans-out", str(spans)]
    if toy:
        cmd.append("--toy")
    try:
        t_spawn = time.monotonic()
        proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} worker printed no result")
    return json.loads(lines[-1])


def summarize(raw: dict, wanted: list) -> dict:
    """The printed result: exactly the `wanted` metrics of BENCHMARK.json."""
    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    if missing:
        raise RuntimeError(f"worker did not report {missing}")
    metrics = {}
    for m in wanted:
        got = raw["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = got
    failed = len(raw["failed_repeats"])
    return {"correct": failed == 0, "attempted": raw["repeats"],
            "failed": failed, "metrics": metrics}


def one(workload: str, seed: int, seconds: int, trace: int, threads: int,
        toy: bool, bench: dict) -> tuple:
    """Run one workload; return (printed result, full record)."""
    raw = run_worker(workload, seed, seconds, trace, threads, toy)
    raw["threads"] = threads
    (OUT / f"{workload}_seed{seed}_trace{trace}.json").write_text(
        json.dumps(raw, indent=1) + "\n")
    result = summarize(raw, bench["per_layer" if trace else "end_to_end"])
    for idx, why in raw["failed_repeats"].items():
        print(f"{workload}: repeat {idx} failed its check: {why}")
    return result, raw


def print_table(rows: dict) -> None:
    """Every end-to-end metric per workload, then its layer metrics (those
    the workload never reaches, which read 0, are left out)."""
    for workload, runs in rows.items():
        (timed, raw), (traced, traced_raw) = runs[0], runs[1]
        env = raw["env"]
        print(f"== {workload}: {raw['items']} items x {raw['rounds']} rounds, "
              f"{raw['threads']} BLAS threads, "
              f"numpy {env['numpy']}, {env['blas']} {env['blas_version']}")
        for name, m in timed["metrics"].items():
            print(f"  {name:<40} {m['value']:>12.6g} {m['unit']}")
        print(f"  {'fail_frac':<40} "
              f"{timed['failed'] / timed['attempted']:>12.6g} fraction")
        p50 = traced_raw["metrics"]["item_p50_s"]["value"]
        print(f"  {'traced item_p50_s':<40} {p50:>12.6g} s")
        for name, m in traced["metrics"].items():
            if m["value"] or name.startswith("trace."):
                print(f"  {name:<40} {m['value']:>12.6g} {m['unit']}")


def main() -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the worker before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny shapes, two items in two rounds: a seconds-long smoke run")
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        return fail(f"not a deqlab checkout, missing {missing}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    OUT.mkdir(exist_ok=True)

    try:
        if args.workload != "all":
            result, raw = one(args.workload, args.seed, seconds, args.trace,
                              threads, args.toy, bench)
            print(f"{args.workload} environment: {json.dumps(raw['env'])}")
            for name, m in result["metrics"].items():
                print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
            print(json.dumps(result))
            return 0
        rows = {}
        for trace in (0, 1):
            for workload in WORKLOADS:
                rows.setdefault(workload, []).append(
                    one(workload, args.seed, seconds, trace, threads,
                        args.toy, bench))
        print_table(rows)
        timed = [runs[0][0] for runs in rows.values()]
        combined = {
            "correct": all(r[0]["correct"] for runs in rows.values()
                           for r in runs),
            "attempted": sum(r["attempted"] for r in timed),
            "failed": sum(r["failed"] for r in timed),
            "metrics": {f"{w}.{k}": v for w, runs in rows.items()
                        for k, v in runs[0][0]["metrics"].items()}}
        print(json.dumps(combined))
        return 0
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
