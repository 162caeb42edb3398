"""The benchmark's tracer patches module bindings by name; a renamed or
removed function silently drops out of its layer metrics.  This pins the set
of bindings it reports missing."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_its_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    with tracer:
        pass
    # ``refinement.interpolate`` has been stale since every heuristic began
    # to interpolate through ``interpolant_sequence``; the binding stays in
    # ``perfbench`` until the benchmark's own upkeep change ("Benchmark
    # upkeep" in ROADMAP.md), because a change that edits the benchmark
    # cannot also be measured by it
    assert tracer.missing == ["refinement.interpolate"]
