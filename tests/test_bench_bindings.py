"""The benchmark's tracer patches module bindings by name, and its worker
reads what the bound functions return; a renamed or removed function silently
drops out of its layer metrics.  These tests pin the set of bindings the
tracer reports missing, and check on a small run that every other binding
is called and that the per-task clock and tracing leave the counters as they
are."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from prefixselect import cli
from prefixselect.engine import Limits
from prefixselect.generators import fig2_program, wide_flags_program
from prefixselect.refinement import Heuristic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    """A ``perfbench`` module, loaded by path as it is, without its package.
    It is entered in ``sys.modules`` under a name of its own, where its
    dataclasses look their module up."""
    path = PERFBENCH / (name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_its_bindings():
    tracing = load("tracing")
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


def test_traced_bench_counts_every_binding(tmp_path):
    tracing, worker = load("tracing"), load("worker")
    (tmp_path / "fig2_n10.imp").write_text(fig2_program(10), encoding="utf-8")
    (tmp_path / "unsafe.imp").write_text(
        "var x; x := 1; if (x == 1) { error; }", encoding="utf-8"
    )
    heuristics = list(Heuristic)

    def counters(rows):
        timings = ("duration_ms", "cpu_ms")
        return [{k: v for k, v in r.items() if k not in timings} for r in rows]

    untraced = cli.run_bench(tmp_path, heuristics, Limits())
    tracer = tracing.Tracer()
    with tracer, worker.TaskClock(cli) as clock:
        rows = cli.run_bench(tmp_path, heuristics, Limits())
    clock.annotate(rows)
    _, _, counts = tracer.totals()
    for module, attr, _, counter in tracing.BINDINGS:
        if "%s.%s" % (module, attr) not in tracer.missing:
            assert counts[counter] >= 1, (module, attr)
    assert len(rows) == 8 and all("cpu_ms" in r for r in rows)
    assert {r["verdict"] for r in rows} == {"TRUE", "FALSE"}
    assert counters(rows) == counters(untraced)
    # the tracer reads the chosen prefix's interpolation calls by index
    layers = tracing.layer_metrics(tracer, rows, 1.0)
    assert 0 < layers["refinement.chosen_interp_share"] <= 1


def test_wide_flags_generator_matches_the_benchmark():
    # the benchmark keeps its own copy of the generator, and its inputs_hash
    # covers the program text: the two copies must not drift apart
    workloads = load("workloads")
    for k in range(1, 13):
        assert wide_flags_program(k) == workloads.wide_flags_program(k)
