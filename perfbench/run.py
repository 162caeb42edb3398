"""Benchmark of prefixselect: end-to-end metrics, verdict checks, per-layer trace.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``loop-unroll``, ``wide-flags`` and
``random-corpus``.  With ``--trace 0`` the run reports the end-to-end metrics
listed in ``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer
metrics of a traced pass instead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print the same metrics for people.

Every verdict is checked: against the known answer of the safe families, the
bounded concrete oracle of ``oracle.py``, the agreement of the heuristics on
each program, the paper's constant cost of ``domain-type`` on the flag/loop
family, and identical counters in every pass.  The run exits 1 if any check
fails, and 2 without a result if the checkout holds no ``src/prefixselect``.
Spans of a traced run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5  # before the worker, and as many after it
DEADLINE_S = 160  # the whole run, worker included, ends within this

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import prefixselect.cli; print(time.perf_counter() - t); "
    "print(prefixselect.cli.__file__)"
)


def measure_setup() -> list[float]:
    """Import time of ``prefixselect.cli`` in fresh interpreters, one at a time.

    The first import may write the bytecode cache and is left out, because
    users import an installed package whose cache exists.  Sampling both
    before and after the worker spreads the samples over the whole run, which
    steadies the median on a machine whose speed drifts.
    """
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, module_file = proc.stdout.split("\n")[:2]
        if SRC not in Path(module_file).resolve().parents:
            raise RuntimeError("prefixselect imported from %s, not %s" % (module_file, SRC))
        times.append(float(seconds))
    return times[1:]


def run_worker(spec: dict, spec_path: Path, timeout: float) -> dict:
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checks:
    """Classifies every verdict and collects failed checks.

    A task *fails* when it crashed or its verdict contradicts the known answer
    or the oracle.  A FALSE the oracle never reproduces is *unconfirmed*: not
    failed, and not counted as decided either.
    """

    def __init__(self, workload, oracle):
        self.workload = workload
        self.oracle = oracle
        self.task_of = {t.file: t for t in workload.tasks()}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _problem(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)

    def classify(self, row) -> str:
        """One of "decided", "unconfirmed", "undecided", "failed"."""
        task = self.task_of[row["task"]]
        verdict = row["verdict"]
        where = "%s under %s" % (task.name, row["heuristic"])
        if verdict == "UNKNOWN(error)":
            self._problem("%s crashed" % where)
            return "failed"
        if self.workload.all_true and verdict != "TRUE":
            self._problem("%s: %s, expected TRUE" % (where, verdict))
            return "failed" if verdict == "FALSE" else "undecided"
        if verdict == "TRUE":
            if self.oracle.reaches_error(task.text):
                self._problem("%s: TRUE, but the oracle reaches error" % where)
                return "failed"
            return "decided"
        if verdict == "FALSE":
            return "decided" if self.oracle.reaches_error(task.text) else "unconfirmed"
        return "undecided"

    def check_pass(self, rows) -> dict[str, int]:
        kinds: dict[str, int] = defaultdict(int)
        for row in rows:
            kinds[self.classify(row)] += 1
        self.attempted += len(rows)
        self.failed += kinds["failed"]

        decided = defaultdict(set)
        for row in rows:
            if row["verdict"] in ("TRUE", "FALSE"):
                decided[self.task_of[row["task"]].name].add(row["verdict"])
        for name, verdicts in sorted(decided.items()):
            if len(verdicts) > 1:
                self._problem("heuristics disagree on %s" % name)

        heuristic = self.workload.constant_cost
        if heuristic is not None:
            costs = {
                (row["refinements"], row["states"])
                for row in rows
                if row["heuristic"] == heuristic
            }
            if len(costs) > 1:
                self._problem(
                    "%s refinements/states differ across programs: %s"
                    % (heuristic, sorted(costs))
                )
        return kinds

    def check_repeatable(self, passes) -> None:
        """Verdicts and counters must be identical in every pass."""

        def counters(rows):
            return sorted(
                (r["task"], r["heuristic"], r["verdict"], r["refinements"],
                 r["states"], r["interpolation_calls"])
                for r in rows
            )

        first = counters(passes[0])
        for rows in passes[1:]:
            if counters(rows) != first:
                self._problem("verdicts or counters differ between passes")


def task_percentiles(passes) -> tuple[float, float, int, str]:
    """p50 and p95 over tasks of each task's median time, the task count, and
    which time was used.

    A task's time is its thread's CPU time (``cpu_ms``, see ``worker.py``)
    where every row has one, and the runner's ``duration_ms`` otherwise.
    """
    key = "cpu_ms" if all("cpu_ms" in row for rows in passes for row in rows) else "duration_ms"
    samples = defaultdict(list)
    for rows in passes:
        for row in rows:
            samples[row["task"], row["heuristic"]].append(row[key])
    per_task = [statistics.median(v) for v in samples.values()]
    cuts = statistics.quantiles(per_task, n=100, method="inclusive")
    return cuts[49], cuts[94], len(per_task), key


def median_by_key(dicts) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def _terminate(signum, frame):
    # unwinding through subprocess.run kills the worker and waits for it
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (SRC / "prefixselect" / "__init__.py").is_file():
        print("error: no prefixselect sources under %s" % SRC, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import workloads
    from oracle import Oracle

    try:
        workload = workloads.build(args.workload, args.seed)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("workload %s, seed %d, %d tasks a pass, inputs sha256 %s"
          % (workload.name, args.seed, workload.task_count(), workload.inputs_hash()))

    setup = [] if args.trace else measure_setup()

    oracle = Oracle()  # outside every timed region; answers are cached
    for task in workload.tasks():
        oracle.reaches_error(task.text)

    run_dir = OUT / ("%s-s%d-run" % (workload.name, args.seed))
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        batches = []
        for i, batch in enumerate(workload.batches):
            directory = run_dir / ("batch%d" % i)
            directory.mkdir(parents=True)
            for task in batch.tasks:
                (directory / task.file).write_text(task.text, encoding="utf-8")
            batches.append(
                {"dir": str(directory), "heuristics": list(batch.heuristics), "jobs": batch.jobs}
            )
        spans_path = OUT / ("spans-%s-s%d.jsonl" % (workload.name, args.seed))
        spec = {
            "src": str(SRC),
            "batches": batches,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "spans": str(spans_path),
        }
        report = run_worker(spec, run_dir / "spec.json", DEADLINE_S - (perf_counter() - started))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not args.trace:
        setup += measure_setup()

    checks = Checks(workload, oracle)
    passes = [p["rows"] for p in report["untraced"] + report["traced"]]
    kinds = [checks.check_pass(rows) for rows in passes]
    checks.check_repeatable(passes)
    tasks = workload.task_count()

    if args.trace:
        untraced_wall = statistics.median(p["wall_s"] for p in report["untraced"])
        traced_wall = statistics.median(p["wall_s"] for p in report["traced"])
        metrics = median_by_key([p["layers"] for p in report["traced"]])
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        listed = declared["per_layer"]
        print("%d untraced and %d traced passes; %d spans written to %s"
              % (len(report["untraced"]), len(report["traced"]),
                 report["spans_written"], spans_path.relative_to(ROOT)))
        if report["missing"]:
            print("bindings not found, left untraced: %s" % ", ".join(report["missing"]))
        self_times = {k[: -len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
        total_self = sum(self_times.values())
        for name, value in sorted(self_times.items(), key=lambda kv: -kv[1])[:5]:
            print("self time %-32s %6.1f %%" % (name, 100 * value / total_self))
        print("interpolation.interpolate.s / engine.cegar.s = %.3f"
              % (metrics["interpolation.interpolate.s"] / metrics["engine.cegar.s"]))
    else:
        p50, p95, n, key = task_percentiles(passes)
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in report["untraced"]),
            "task_p50_ms": p50,
            "task_p95_ms": p95,
            "decided_share": kinds[0]["decided"] / tasks,
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(setup),
        }
        listed = declared["end_to_end"]
        print("%d passes; task percentiles over %d tasks (median of each task's %s)"
              % (len(passes), n, key))
        print("failed_share %.4f of %d; first pass: unconfirmed FALSE %d, undecided %d"
              % (checks.failed / checks.attempted, checks.attempted,
                 kinds[0]["unconfirmed"], kinds[0]["undecided"]))

    for problem in checks.problems:
        print("CHECK FAILED: %s" % problem)
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    for name, entry in result.items():
        print("%-36s %14.6g %s" % (name, entry["value"], entry["unit"]))
    correct = not checks.problems and checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": result,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
