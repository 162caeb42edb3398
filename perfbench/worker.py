"""Runs one workload's passes in a fresh interpreter and prints a JSON report.

Usage: ``python3 perfbench/worker.py SPEC.json`` (written by ``run.py``).
A pass runs every batch of the workload through ``prefixselect.cli.run_bench``.
Untraced passes repeat until the next one would overrun the time budget.  In
trace mode one untraced pass comes first, as the baseline for the tracing
overhead, then traced passes fill the budget.  The report carries this
process's peak resident memory, so it covers exactly the workload's passes.

Each row of an untraced pass also gets ``cpu_ms``: the CPU time of the thread
that ran the task, from reading its file to its verdict.  Under ``jobs=2`` a
task's wall time also holds the time it waited for the interpreter lock while
the other job ran, which puts the short tasks either side of the lock's 5 ms
switch interval from one pass to the next; its thread's CPU time leaves that
wait out.  If the runner no longer calls ``cli._run_file`` in this process,
rows get no ``cpu_ms``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter, thread_time


class TaskClock:
    """Records each task's thread CPU time by wrapping ``cli._run_file``,
    which ``run_bench`` calls once per (file, heuristic) task."""

    def __init__(self, cli):
        self.cli = cli
        self.original = getattr(cli, "_run_file", None)
        self.cpu_ms: dict[tuple[str, str], float] = {}

    def __enter__(self):
        original, cpu_ms = self.original, self.cpu_ms
        if original is None:
            return self

        def timed(path, heuristic, *args, **kwargs):
            start = thread_time()
            result = original(path, heuristic, *args, **kwargs)
            cpu_ms[Path(path).name, heuristic.value] = (thread_time() - start) * 1000
            return result

        self.cli._run_file = timed
        return self

    def __exit__(self, *exc):
        if self.original is not None:
            self.cli._run_file = self.original

    def annotate(self, rows) -> None:
        for row in rows:
            cpu = self.cpu_ms.get((row["task"], row["heuristic"]))
            if cpu is not None:
                row["cpu_ms"] = cpu


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import prefixselect
    from prefixselect import cli
    from prefixselect.engine import Limits
    from prefixselect.refinement import Heuristic

    from tracing import Tracer, layer_metrics, write_spans

    if src not in Path(prefixselect.__file__).resolve().parents:
        print("prefixselect imported from %s, not %s" % (prefixselect.__file__, src),
              file=sys.stderr)
        return 2

    batches = [
        (b["dir"], [Heuristic(h) for h in b["heuristics"]], b["jobs"])
        for b in spec["batches"]
    ]

    def one_pass():
        rows = []
        capacity = 0.0
        start = perf_counter()
        for directory, heuristics, jobs in batches:
            batch_start = perf_counter()
            rows += cli.run_bench(directory, heuristics, Limits(), None, jobs)
            capacity += (perf_counter() - batch_start) * jobs
        return perf_counter() - start, rows, capacity

    budget = spec["seconds"]
    start = perf_counter()

    def time_left(last_pass_s):
        return perf_counter() - start + last_pass_s <= budget

    report = {"untraced": [], "traced": [], "missing": []}
    while True:
        with TaskClock(cli) as clock:
            wall, rows, _ = one_pass()
        clock.annotate(rows)
        report["untraced"].append({"wall_s": wall, "rows": rows})
        if spec["trace"] or not time_left(wall):
            break
    if spec["trace"]:
        tracers = []
        while True:
            tracer = Tracer()
            with tracer:
                wall, rows, capacity = one_pass()
            tracers.append(tracer)
            report["missing"] = tracer.missing
            report["traced"].append(
                {"wall_s": wall, "rows": rows, "layers": layer_metrics(tracer, rows, capacity)}
            )
            if not time_left(wall):
                break
        report["spans_written"] = write_spans(spec["spans"], tracers)
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
