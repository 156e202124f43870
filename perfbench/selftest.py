"""Self-test of the benchmark at toy shapes (about half a minute).

    python3 perfbench/selftest.py

Checks that
- every workload runs untraced and traced and passes its output checks;
- the last output line carries exactly the BENCHMARK.json metrics, with
  their units, and the end-to-end values are positive;
- untraced runs see deqlab's original functions, and traced runs call
  through every wrapped binding (the worker exits non-zero otherwise), so
  across the workloads every binding of perfbench/tracer.py is exercised;
- the hardware-independent counts repeat exactly between two traced runs;
- outside a deqlab checkout the runner fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from tracer import BINDINGS  # noqa: E402

COUNT_UNITS = {"count", "iter", "bytes", "products/step"}


def check(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    check(proc.returncode == 0, f"{workload} trace={trace} exited "
          f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    called = set()
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            res = result(workload, trace)
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, res)
            check(res["correct"] and res["failed"] == 0, (workload, trace, res))
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, (workload, trace, set(got) ^ set(want)))
            raw = json.loads((OUT / f"{workload}_seed1_trace{trace}.json")
                             .read_text())
            check(raw["wrapped_bindings"] == [], raw["wrapped_bindings"])
            if not trace:
                check(all(v["value"] > 0 for v in res["metrics"].values()), res)
                continue
            called |= {b for b, n in raw["calls"].items() if n > 0}
            again = result(workload, trace)
            counts = {k: v["value"] for k, v in res["metrics"].items()
                      if v["unit"] in COUNT_UNITS}
            counts2 = {k: again["metrics"][k]["value"] for k in counts}
            check(counts == counts2, (workload, {
                k: (counts[k], counts2[k]) for k in counts
                if counts[k] != counts2[k]}))
            print(f"ok {workload}: checks pass, metrics and units match, "
                  f"{len(raw['calls'])} bindings called, counts repeat")
    expected = {f"deqlab.{mod}.{layer.split('.', 1)[1]}"
                for layer, mod in BINDINGS}
    check(called == expected, expected ^ called)
    print(f"ok all {len(expected)} wrapped bindings exercised")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("train_wide", 0, cwd=bare)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok outside a checkout the runner exits "
          f"{proc.returncode} without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
