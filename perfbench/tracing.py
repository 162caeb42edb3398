"""Per-layer spans and counters, recorded from outside the program.

``from x import f`` copies the binding into the importing module, so a
wrapper has to replace the name in the module that *calls* the function:
patching ``values.sp`` alone would miss every caller.  ``BINDINGS`` lists each
patched name with the span it opens.

Each thread keeps its own stack and totals, so the two worker threads of a
``jobs=2`` run never share a counter.  A span's self time is its duration
minus the time its child spans cover.  The per-call cost of the tracer lands
in the self time of the span it wraps, so traced self times compare only with
other traced self times; ``trace.overhead_s`` reports the total cost.

Spans are kept in memory; ``write_spans`` writes them out at the end.  The
hottest spans (``values.sp``, ``paths.sp_seq``, ``engine.coverage``) run
millions of times, so they are only counted and timed, not kept.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from importlib import import_module
from time import perf_counter

# (module, attribute, span name, call counter); "Class.attr" patches a method.
BINDINGS = (
    ("cli", "run_bench", "cli.run_bench", "cli.run_bench.calls"),
    ("cli", "load_cfa", "frontend.load_cfa", "frontend.load_cfa.calls"),
    ("cli", "cegar", "engine.cegar", "engine.cegar.calls"),
    ("engine", "classify_domain_types", "refinement.classify", "refinement.classify.calls"),
    ("engine", "reach", "engine.reach", "engine.reach.calls"),
    ("engine", "ReachedSet.covered", "engine.coverage", "engine.coverage.probes"),
    ("engine", "sp", "values.sp", "values.sp.calls.reach"),
    ("engine", "is_feasible", "paths.is_feasible", "paths.is_feasible.calls"),
    ("engine", "refine_selecting", "refinement.refine", "refinement.refine.calls"),
    ("engine", "check_refinement_progress", "refinement.progress_check",
     "refinement.progress_check.calls"),
    ("refinement", "sp", "values.sp", "values.sp.calls.progress"),
    ("refinement", "extract_sliced_prefixes", "paths.extract_sliced_prefixes",
     "paths.extract_sliced_prefixes.calls"),
    ("refinement", "interpolant_sequence", "refinement.interpolant_sequence",
     "refinement.interpolant_sequence.calls"),
    ("refinement", "interpolate", "interpolation.interpolate",
     "interpolation.interpolate.calls"),
    ("interpolation", "interpolate", "interpolation.interpolate",
     "interpolation.interpolate.calls"),
    ("interpolation", "sp_seq", "paths.sp_seq", "interpolation.replays"),
    ("paths", "sp", "values.sp", "values.sp.calls.paths"),
)

UNRECORDED = frozenset({"values.sp", "paths.sp_seq", "engine.coverage"})


class _Frame:
    __slots__ = ("span_id", "child_s", "sp_calls")

    def __init__(self, span_id):
        self.span_id = span_id
        self.child_s = 0.0
        self.sp_calls = 0  # values.sp calls under this frame


class _ThreadState:
    """Everything one thread records; merged only after the run."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.stack: list[_Frame] = []
        self.task = None
        self.spans: list[tuple] = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.prefix_calls: list[int] = []  # interpolation calls per prefix


_span_ids = itertools.count(1)
_task_ids = itertools.count(1)


# Hooks run before a call or after it returns, to count what it did.


def _new_task(state, args):
    state.task = next(_task_ids)


def _count_edges(state, args, result, frame):
    state.counts["frontend.cfa_edges"] += len(result.edges)


def _count_probe(state, args, result, frame):
    state.counts["engine.coverage.width_sum"] += len(args[2])
    state.counts["engine.coverage.hits"] += bool(result)


def _count_prefixes(state, args, result, frame):
    state.counts["paths.prefixes_total"] += len(result)


def _start_refine(state, args):
    state.prefix_calls = []


def _note_prefix_calls(state, args, result, frame):
    state.prefix_calls.append(result[1])


def _count_chosen_calls(state, args, result, frame):
    calls = result.interpolation_calls
    state.counts["refinement.interp_attempted"] += calls
    if result.chosen_index is not None:
        calls = state.prefix_calls[result.chosen_index]
    state.counts["refinement.interp_useful"] += calls


def _count_interp_sp(state, args, result, frame):
    state.counts["interpolation.sp_calls"] += frame.sp_calls


BEFORE = {"frontend.load_cfa": _new_task, "refinement.refine": _start_refine}
AFTER = {
    "frontend.load_cfa": _count_edges,
    "engine.coverage": _count_probe,
    "paths.extract_sliced_prefixes": _count_prefixes,
    "refinement.interpolant_sequence": _note_prefix_calls,
    "refinement.refine": _count_chosen_calls,
    "interpolation.interpolate": _count_interp_sp,
}


class Tracer:
    """Patches ``BINDINGS`` in the ``prefixselect`` modules inside a ``with``
    block.  A name the program no longer has is listed in ``missing``."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            self._states.append(state)
            return state

    def _wrap(self, fn, name, counter):
        before, after = BEFORE.get(name), AFTER.get(name)
        record = name not in UNRECORDED
        is_sp = name == "values.sp"
        tracer = self

        def traced(*args, **kwargs):
            start = perf_counter()
            state = tracer._state()
            if before is not None:
                before(state, args)
            stack = state.stack
            parent = stack[-1] if stack else None
            parent_id = parent.span_id if parent is not None else None
            frame = _Frame(next(_span_ids) if record else parent_id)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(state, args, result, frame)
                return result
            finally:
                stack.pop()
                end = perf_counter()
                duration = end - start
                state.self_s[name] += duration - frame.child_s
                state.total_s[name] += duration
                state.counts[counter] += 1
                if parent is not None:
                    parent.child_s += duration
                    parent.sp_calls += frame.sp_calls + is_sp
                if record:
                    state.spans.append(
                        (frame.span_id, name, start, end, parent_id, state.task, state.thread)
                    )

        return traced

    def __enter__(self):
        for module_name, attr, name, counter in BINDINGS:
            module = import_module("prefixselect." + module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append("%s.%s" % (module_name, attr))
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def totals(self):
        """(self seconds, inclusive seconds, counts), summed over threads."""
        self_s, total_s, counts = defaultdict(float), defaultdict(float), defaultdict(int)
        for state in self._states:
            for key, value in state.self_s.items():
                self_s[key] += value
            for key, value in state.total_s.items():
                total_s[key] += value
            for key, value in state.counts.items():
                counts[key] += value
        return self_s, total_s, counts

    def spans(self):
        for state in self._states:
            yield from state.spans


def write_spans(path, tracers) -> int:
    """Write every kept span as one JSON object per line; returns the count."""
    n = 0
    with open(path, "w", encoding="utf-8") as out:
        for iteration, tracer in enumerate(tracers):
            for span_id, name, start, end, parent, task, thread in tracer.spans():
                out.write(
                    json.dumps(
                        {
                            "iteration": iteration,
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "task": task,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )
                n += 1
    return n


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, rows, runner_capacity_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload.

    ``rows`` are that pass's bench rows; ``runner_capacity_s`` is the sum of
    each run_bench call's wall time times its job count.
    """
    self_s, total_s, counts = tracer.totals()
    out: dict[str, float] = {}
    for _, _, name, counter in BINDINGS:
        out[counter] = counts[counter]
        out[name + ".self_s"] = self_s[name]
    out.pop("cli.run_bench.calls")
    out.pop("cli.run_bench.self_s")  # jobs>1 workers run on other threads
    probes = counts["engine.coverage.probes"]
    out.update(
        {
            "cli.run_bench.s": total_s["cli.run_bench"],
            "cli.runner.busy_share": _ratio(
                total_s["frontend.load_cfa"] + total_s["engine.cegar"], runner_capacity_s
            ),
            "engine.cegar.s": total_s["engine.cegar"],
            "engine.coverage.hits": counts["engine.coverage.hits"],
            "engine.coverage.hit_ratio": _ratio(counts["engine.coverage.hits"], probes),
            "engine.coverage.mean_width": _ratio(counts["engine.coverage.width_sum"], probes),
            "engine.states_created": sum(r["states"] for r in rows),
            "engine.refinements": sum(r["refinements"] for r in rows),
            "frontend.cfa_edges": counts["frontend.cfa_edges"],
            "interpolation.interpolate.s": total_s["interpolation.interpolate"],
            "interpolation.sp_per_call": _ratio(
                counts["interpolation.sp_calls"], counts["interpolation.interpolate.calls"]
            ),
            "paths.prefixes_total": counts["paths.prefixes_total"],
            "refinement.chosen_interp_share": _ratio(
                counts["refinement.interp_useful"], counts["refinement.interp_attempted"]
            ),
        }
    )
    return out
