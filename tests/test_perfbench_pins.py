"""The benchmark's tracer pins every cross-module binding of the functions
it measures (perfbench/tracer.py). A new `from .x import y` of one of them
must be listed there, or a traced run refuses to start; this test finds it
in the quick suite instead."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_binding_is_listed():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.unlisted_bindings() == []
