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
    # to interpolate through ``interpolant_sequence``.  ``engine.is_feasible``
    # and ``refinement.extract_sliced_prefixes`` went stale when the engine
    # began to sweep each counterexample once, with ``extract_sliced_prefixes``
    # as its feasibility test; until the bindings move to
    # ``engine.extract_sliced_prefixes``, the ``paths.is_feasible.*``,
    # ``paths.extract_sliced_prefixes.*`` and ``paths.prefixes_total``
    # metrics read 0.  The bindings stay in ``perfbench`` until the
    # benchmark's own upkeep change ("Benchmark upkeep" in ROADMAP.md),
    # because a change that edits the benchmark cannot also be measured by it
    assert tracer.missing == [
        "engine.is_feasible",
        "refinement.extract_sliced_prefixes",
        "refinement.interpolate",
    ]
