"""Result tables, minimal SVG polyline plots and reproducibility metadata.

CSVs are the contract for every experiment; `write_csv` writes every result
table (not the matrix and labels CSVs of `deqlab.data`), and the SVG emitter
renders the same series so results can be eyeballed without a plotting stack.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
import os
import resource
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError

__all__ = ["write_csv", "kept_rows", "line_plot_svg", "config_hash",
           "environment", "write_run_manifest"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 720, 460
_ML, _MR, _MT, _MB = 70, 20, 40, 55  # margins: left, right, top, bottom


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def write_csv(path, header: str, rows=(), start=None):
    """Write the table `header` (column names joined by commas) over
    `rows` and return add(*rows), which appends more; each call closes
    the file, so a run that fails keeps every row it added. Lines end
    with `\\r\\n`, the csv module's default. Floats print as `%.17g`, so
    they round-trip bit-exactly; bools as `true`/`false`; else `str`.

    With `start`, rows are led by their step and an existing file is
    continued: it is cut once, after its row of step `start`, and rows up
    to its last kept step are skipped. A missing, empty or header-only
    file, or one whose rows all come after `start`, is rewritten."""
    after = -1  # the kept file's last step
    if start is not None and Path(path).exists():
        after, keep = kept_rows(path, start)
        os.truncate(path, keep)
    if after < 0:
        with open(path, "w", newline="") as f:
            csv.writer(f).writerow(header.split(","))

    def add(*rows):
        with open(path, "a", newline="") as f:
            csv.writer(f).writerows([_cell(v) for v in row] for row in rows
                                    if after < 0 or row[0] > after)
    add(*rows)
    return add


def kept_rows(path, start: int) -> tuple[int, int]:
    """What write_csv(path, ..., start=start) keeps of the file `path`: the
    rows before the first past step `start` or not led by a step, as (their
    last step, their length in bytes with the header); (-1, 0) if none."""
    after, keep = -1, 0
    lines = Path(path).read_bytes().splitlines(keepends=True)
    size = sum(map(len, lines[:1]))
    for line in lines[1:]:
        step = line.split(b",")[0]
        if not step.isdigit() or int(step) > start:
            break
        size += len(line)
        after, keep = int(step), size
    return after, keep


def _ticks(lo: float, hi: float, count: int = 6):
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / count))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(t)
        t += step
    return ticks


def line_plot_svg(path, series: dict, title: str, xlabel: str, ylabel: str,
                  logy: bool = False) -> None:
    """Write a line plot; `series` maps label -> (xs, ys)."""
    if not series:
        raise InputError("no series to plot")
    xs_all, points = [], {}
    for label, (xs, ys) in series.items():
        if len(xs) != len(ys) or not len(xs):
            raise InputError(f"series {label!r} is empty or mismatched")
        xs_all.extend(float(v) for v in xs)
        points[label] = [(float(x), math.log10(y) if logy else y)
                         for x, y in zip(xs, map(float, ys))
                         if not (logy and y <= 0)]
    ys_all = [y for pts in points.values() for _, y in pts]
    if not ys_all:
        raise InputError("no positive values to plot on a log axis")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" '
        f'font-size="15">{title}</text>',
    ]
    axis = (f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
            f'stroke="black"/>'
            f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
            f'stroke="black"/>')
    parts.append(axis)
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(t):.1f}" y1="{_H - _MB}" x2="{px(t):.1f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(t):.1f}" y="{_H - _MB + 20}" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        label = f"1e{t:g}" if logy else f"{t:g}"
        parts.append(f'<line x1="{_ML - 5}" y1="{py(t):.1f}" x2="{_ML}" '
                     f'y2="{py(t):.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py(t):.1f}" text-anchor="end" '
                     f'dominant-baseline="middle">{label}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 12}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="18" y="{(_MT + _H - _MB) / 2:.0f}" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{(_MT + _H - _MB) / 2:.0f})">{ylabel}</text>')

    for idx, (label, pts) in enumerate(points.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{coords}"/>')
        ly = _MT + 16 * idx
        parts.append(f'<line x1="{_W - _MR - 130}" y1="{ly}" '
                     f'x2="{_W - _MR - 105}" y2="{ly}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 100}" y="{ly + 4}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def config_hash(config: dict) -> str:
    """Stable short hash of a configuration document."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def environment() -> dict:
    """What produced a run: the numpy version, the BLAS numpy was built
    against (name and version), the *_NUM_THREADS settings and the CPU
    count. The BLAS fields are None on a numpy without show_config's
    "dicts" mode (before 1.25)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {key: value for key, value in sorted(os.environ.items())
                    if key.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def write_run_manifest(out_dir, config: dict, seeds: dict,
                       outputs: list, started: float) -> Path:
    """run.json: config hash + echo, seeds, artifact version, output files,
    the environment block, the UTC time of writing, the command's wall
    time `wall_s` since `started` (a time.perf_counter() reading) and the
    process's peak resident set `peak_rss_mb` (ru_maxrss, in KiB on
    Linux, / 1024).

    The timestamp, wall_s and peak_rss_mb are the non-deterministic
    fields; repeat runs with identical config in one environment differ
    in nothing else.
    """
    manifest = {
        "artifact_version": __version__,
        "config_hash": config_hash(config),
        "config": config,
        "environment": environment(),
        "seeds": seeds,
        "outputs": sorted(str(o) for o in outputs),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_s": time.perf_counter() - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    path = Path(out_dir) / "run.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str)
                    + "\n")
    return path
