"""Per-layer tracing of deqlab from outside the package.

A traced run replaces deqlab's public functions by timing wrappers at
every name their callers look them up under. Because `from .x import y`
copies the function into the importing module, `deqlab.grad.solve_adjoint`
and `deqlab.train.solve_adjoint` are separate bindings and each is wrapped.

`BINDINGS` lists, per (layer, module holding the name), the workloads that
call through that binding; a traced run wraps exactly those and fails if
any of them sees no call. `UNEXERCISED` lists the cross-module imports of
a traced function that no workload reaches. `Tracer.install` refuses to
run if some deqlab module imports a traced function under a binding found
in neither table, so a new `from .x import y` cannot go unmeasured.

Spans (id, name, start, end, parent id, iterations) stay in memory and
are written once at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import time

TW, MC = "train_wide", "mc_lambda0"

# (layer, module holding the name) -> workloads calling through it.
# The layer's function is defined in the module before the first dot.
BINDINGS = {
    ("grad.solve_adjoint", "grad"): {TW},
    ("grad.solve_adjoint", "train"): {TW},
    ("grad.gradients", "train"): {TW},
    ("grad.activation_mask", "grad"): {TW},
    ("grad.solve_sensitivity", "train"): {TW},
    ("model.solve_equilibrium", "model"): {TW},
    ("model.solve_equilibrium", "train"): {TW},
    ("model.solve_equilibrium", "concentration"): {MC},
    ("model.init_params", "model"): {TW},
    ("model.init_params", "concentration"): {MC},
    ("linalg.spectral_norm", "model"): {TW, MC},
    ("linalg.spectral_norm", "train"): {TW},
    ("linalg.gram", "train"): {TW},
    ("linalg.gram", "concentration"): {MC},
    ("linalg.min_eig_sym", "train"): {TW},
    ("linalg.min_eig_sym", "concentration"): {MC},
    ("linalg.min_eig_sym", "kernel"): {MC},
    ("train.ntk_max_eig", "train"): {TW},
    ("train.monitors", "train"): {TW},
    ("train.train", "train"): {TW},
    ("train.auto_eta", "train"): {TW},
    ("kernel.kernel_fixed_point", "concentration"): {MC},
    ("kernel.kernel_fixed_point", "cli"): {MC},
    ("kernel.kernel_layer_sequence", "concentration"): {MC},
    ("kernel.q_func", "kernel"): {MC},
    ("kernel.export_kernel", "cli"): {MC},
    ("concentration.kernel_depth_decay", "cli"): {MC},
    ("concentration.lambda0_vs_width", "concentration"): {MC},
    ("data.save_matrix_csv", "data"): {MC},
    ("data.gen_sphere_data", "data"): {TW, MC},
    ("data.gen_sphere_data", "cli"): {MC},
    ("reporting.line_plot_svg", "cli"): {MC},
    ("reporting.write_run_manifest", "cli"): {MC},
    ("config.load_config", "cli"): {MC},
}

# Cross-module imports of a traced function that no workload calls.
UNEXERCISED = {
    ("grad.gradients", "cli"): "grad-check command only",
    ("model.solve_equilibrium", "cli"): "check/train/grad-check commands",
    ("model.solve_equilibrium", "grad"): "finite-difference reference only",
    ("model.init_params", "cli"): "check/train/concentration commands",
    ("linalg.spectral_norm", "grad"): "callers on every workload pass w_norm",
    ("linalg.spectral_norm", "condition"): "check command only",
    ("linalg.gram", "cli"): "check command only",
    ("linalg.min_eig_sym", "cli"): "check command only",
    ("train.train", "cli"): "train command only",
    ("train.auto_eta", "cli"): "train command only",
    ("concentration.lambda0_vs_width", "cli"): "concentration command only",
    ("data.save_matrix_csv", "cli"): "gen-data command only",
}

LAYERS = sorted({layer for layer, _ in BINDINGS})
# spectral_norm is reported as two layers: with and without a warm start.
SPLIT = {"linalg.spectral_norm": ("linalg.spectral_norm_warm",
                                  "linalg.spectral_norm_cold")}
REPORTED_LAYERS = sorted(
    name for layer in LAYERS for name in SPLIT.get(layer, (layer,)))
ITERATIVE = {"model.solve_equilibrium", "grad.solve_adjoint",
             "grad.solve_sensitivity"}
MARK = "__perfbench_layer__"


def _module(name: str):
    return importlib.import_module(f"deqlab.{name}")


def _original(layer: str):
    mod, fn = layer.split(".", 1)
    return getattr(_module(mod), fn)


def unlisted_bindings() -> list:
    """Cross-module bindings of traced functions missing from both tables."""
    import deqlab
    originals = {id(_original(layer)): layer for layer in LAYERS}
    missing = []
    for info in pkgutil.iter_modules(deqlab.__path__):
        mod = _module(info.name)
        for value in vars(mod).values():
            layer = originals.get(id(value))
            if layer is None or layer.split(".", 1)[0] == info.name:
                continue
            key = (layer, info.name)
            if key not in BINDINGS and key not in UNEXERCISED:
                missing.append(f"deqlab.{info.name}.{layer.split('.', 1)[1]}")
    return sorted(missing)


def wrapped_bindings() -> list:
    """Bindings currently replaced by a tracer wrapper (empty when untraced)."""
    return sorted(f"deqlab.{mod}.{layer.split('.', 1)[1]}"
                  for layer, mod in BINDINGS
                  if hasattr(getattr(_module(mod), layer.split(".", 1)[1]), MARK))


class Tracer:
    """Wraps the bindings one workload calls through and records spans."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []   # [id, name, start, end, parent, iterations]
        self.stack = []
        self.calls = {}   # "deqlab.<module>.<name>" -> call count
        self._saved = []

    def install(self) -> None:
        missing = unlisted_bindings()
        if missing:
            raise RuntimeError(
                "traced functions imported under unlisted names "
                f"(add them to perfbench/tracer.py): {missing}")
        for (layer, mod), workloads in BINDINGS.items():
            if self.workload not in workloads:
                continue
            module, attr = _module(mod), layer.split(".", 1)[1]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, f"deqlab.{mod}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, layer: str, binding: str, fn):
        tracer = self
        self.calls[binding] = 0
        split = SPLIT.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[binding] += 1
            name = layer
            if split is not None:
                warm = kwargs.get("v0", args[3] if len(args) > 3 else None)
                name = split[0] if warm is not None else split[1]
            span = [len(tracer.spans), name, 0.0, 0.0,
                    tracer.stack[-1] if tracer.stack else -1, 0]
            tracer.spans.append(span)
            tracer.stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            if layer in ITERATIVE:
                span[5] = out.iterations
            elif layer == "data.save_matrix_csv":
                span[5] = os.path.getsize(args[0] if args else kwargs["path"])
            return out

        setattr(traced, MARK, layer)
        return traced

    def uncalled(self) -> list:
        return sorted(b for b, n in self.calls.items() if n == 0)

    def overhead_per_call_s(self, repeats: int = 20000) -> float:
        """Median cost a wrapper adds to one call, measured on a no-op."""
        def noop(*args, **kwargs):
            return None

        probe = Tracer(self.workload)
        wrapped = probe._wrap("probe", "probe", noop)
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(repeats):
                noop(1, 2)
            t1 = time.perf_counter()
            for _ in range(repeats):
                wrapped(1, 2)
            t2 = time.perf_counter()
            samples.append(((t2 - t1) - (t1 - t0)) / repeats)
        samples.sort()
        return max(samples[len(samples) // 2], 0.0)


def layer_stats(spans, lo: float = float("-inf"),
                hi: float = float("inf")) -> dict:
    """Calls, self seconds and iterations (or bytes) per layer, over the
    spans that start in [lo, hi)."""
    child_time = [0.0] * len(spans)
    for sid, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {name: {"calls": 0, "self_s": 0.0, "work": 0}
             for name in REPORTED_LAYERS}
    for sid, name, start, end, _, work in spans:
        if not lo <= start < hi:
            continue
        s = stats[name]
        s["calls"] += 1
        s["self_s"] += end - start - child_time[sid]
        s["work"] += work
    return stats


def covered_time(spans, lo: float, hi: float) -> float:
    """Seconds of [lo, hi] inside some top-level span (spans nest, so the
    outermost spans' union is the union of all)."""
    intervals = sorted((max(s[2], lo), min(s[3], hi)) for s in spans
                       if s[4] < 0 and s[3] > lo and s[2] < hi)
    total, cursor = 0.0, lo
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total
