"""Command-line interface: verify, bench, gen.

Exit codes for ``verify``: 0 TRUE, 1 FALSE, 2 UNKNOWN, 3 input error (also
a file that is not UTF-8, an integer literal too long to convert, and a
statement whose blocks plus formula height pass ``frontend.MAX_DEPTH``;
that bound leaves every accepted program room on the stack, so input never
exits 4 for its depth), 4 internal error (the checker crashed; there is no
verdict).  Exit 4 covers a crash in any subcommand: ``main`` prints the
traceback, then an ``internal error:`` line, to stderr.  ``bench`` reports a
task with an input error as ``UNKNOWN(error)`` and a crashed run as
``UNKNOWN(internal-error)``, writes a ``warning: task NAME failed:`` line to
stderr, and goes on.  A
usage error (unknown option or choice, a ``--timeout`` that is not a number
of seconds in (0, 1e6], a ``--jobs``, ``--max-states``, ``gen fig2 --n``,
``gen wide --k``, ``gen checks --n`` or ``gen random --count`` below 1, a
negative ``--max-refinements``, missing argument) exits 3 for every
subcommand, never 2; so does an unknown or repeated name in ``bench --heuristics``.  ``verify``
prints one ``refinement N:`` line per refinement; ``verify --format json``
prints the ``RunStats`` fields, ``rounds`` among them, plus ``verdict``,
``heuristic`` and ``witness``.

``--timeout`` bounds the wall time of each CEGAR run, not counting parsing.
The run checks it in process, before each state it explores, before each
interpolation cut, and every 4096 steps of a whole-path pass and of the
live-range search that precedes the first exploration, and ends with
UNKNOWN(timeout) and the counters it has reached; like the verdict, those
counters depend on timing.  ``bench --jobs N`` runs N tasks on threads, so
with N > 1 a task's wall time, and what its timeout allows, includes waiting
for the interpreter lock.

Bench output is deterministic by default; measured durations go into the CSV
only with --timings, because wall-clock noise would break byte-stable output
(the JSON stats from ``verify`` always carry real durations).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path as FsPath
from typing import Callable, Optional

from .engine import Limits, RunStats, Verdict, cegar
from .frontend import ParseError, cfa_to_dot, load_cfa
from .generators import (
    generate_checks,
    generate_fig2_family,
    generate_random_programs,
    generate_wide_flags,
)
from .paths import render_path
from .refinement import Heuristic

HEURISTIC_NAMES = [h.value for h in Heuristic]

#: What ``_run_file`` raises on a file it cannot read or parse.
INPUT_ERRORS = (OSError, UnicodeDecodeError, ParseError)


def _run_file(
    path: str, heuristic: Heuristic, limits: Limits, timeout: Optional[float] = None
) -> tuple[Verdict, RunStats]:
    cfa = load_cfa(FsPath(path).read_text(encoding="utf-8"))
    return cegar(cfa, heuristic, limits, timeout=timeout)


# --- verify -------------------------------------------------------------------


def _stats_json(verdict: Verdict, heuristic: Heuristic, stats: RunStats) -> dict:
    witness = verdict.witness
    return {
        "verdict": verdict.render(),
        "heuristic": heuristic.value,
        **{name: getattr(stats, name) for name in RunStats.__slots__},
        "witness": None if witness is None else render_path(witness).splitlines(),
    }


def _internal_error(exc: Exception) -> int:
    import traceback  # only a crash needs it

    traceback.print_exception(type(exc), exc, exc.__traceback__)
    print("internal error: %s" % exc, file=sys.stderr)
    return 4


def cmd_verify(args: argparse.Namespace) -> int:
    limits = Limits(args.max_refinements, args.max_states)
    heuristic = Heuristic(args.heuristic)
    try:
        cfa = load_cfa(FsPath(args.file).read_text(encoding="utf-8"))
        if args.emit_cfa:
            FsPath(args.emit_cfa).write_text(cfa_to_dot(cfa), encoding="utf-8")
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    verdict, stats = cegar(cfa, heuristic, limits, timeout=args.timeout)
    if args.format == "json":
        print(json.dumps(_stats_json(verdict, heuristic, stats)))
    else:
        print("heuristic: %s" % heuristic.value)
        print("refinements: %d" % stats.refinements)
        print("sliced prefixes: %d" % stats.prefixes_total)
        print("interpolation calls: %d" % stats.interpolation_calls)
        print("states created: %d" % stats.states_created)
        print("coverage hits: %d" % stats.coverage_hits)
        print("states reused: %d" % stats.states_reused)
        print("precision size: %d" % stats.precision_size)
        print("duration: %.1f ms" % stats.duration_ms)
        for number, r in enumerate(stats.rounds, 1):
            print(
                "refinement %d: %d prefixes, chose %s (score %s), precision size %d"
                % (number, r["prefixes"], r["chosen_index"], r["chosen_score"],
                   r["precision_size"])
            )
        if verdict.witness is not None:
            print("witness:")
            print(render_path(verdict.witness))
        print("RESULT: %s" % verdict.render())
    return {"TRUE": 0, "FALSE": 1, "UNKNOWN": 2}[verdict.kind]


# --- bench --------------------------------------------------------------------

BENCH_COLUMNS = [
    "task",
    "heuristic",
    "verdict",
    "refinements",
    "states",
    "interpolation_calls",
    "duration_ms",
]


def _bench_row(
    task: FsPath, heuristic: Heuristic, limits: Limits, timeout: Optional[float]
) -> dict:
    """Run one task into a bench row; a failure becomes a verdict:
    UNKNOWN(error) for an input error, UNKNOWN(internal-error) for a crash of
    the checker."""
    try:
        verdict, stats = _run_file(str(task), heuristic, limits, timeout)
    except Exception as exc:
        # one write, so that threads of ``--jobs`` never split the line
        sys.stderr.write("warning: task %s failed: %s\n" % (task.name, exc))
        reason = "error" if isinstance(exc, INPUT_ERRORS) else "internal-error"
        verdict, stats = Verdict("UNKNOWN", reason=reason), RunStats()
    return {
        "task": task.name,
        "heuristic": heuristic.value,
        "verdict": verdict.render(),
        "refinements": stats.refinements,
        "states": stats.states_created,
        "interpolation_calls": stats.interpolation_calls,
        "duration_ms": stats.duration_ms,
    }


def run_bench(
    directory: str | FsPath,
    heuristics: list[Heuristic],
    limits: Limits,
    timeout: Optional[float] = None,
    jobs: int = 1,
) -> list[dict]:
    """Run every (task, heuristic) pair; rows come back in deterministic
    (task, heuristic) order regardless of completion order."""
    tasks = sorted(p for p in FsPath(directory).glob("*.imp") if p.is_file())
    pairs = [(t, h) for t in tasks for h in heuristics]
    if jobs > 1:
        # only a parallel run needs the pool, so plain ``verify`` never
        # imports it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(
                pool.map(lambda p: _bench_row(p[0], p[1], limits, timeout), pairs)
            )
    else:
        rows = [_bench_row(t, h, limits, timeout) for t, h in pairs]
    return rows


def _summary(rows: list[dict], heuristics: list[Heuristic]) -> dict[str, dict]:
    """Per heuristic: tasks decided TRUE or FALSE, tasks run, summed duration."""
    summary = {}
    for h in heuristics:
        hrows = [r for r in rows if r["heuristic"] == h.value]
        summary[h.value] = {
            "solved": sum(r["verdict"] in ("TRUE", "FALSE") for r in hrows),
            "tasks": len(hrows),
            "total_duration_ms": sum(r["duration_ms"] for r in hrows),
        }
    return summary


def format_bench_csv(rows: list[dict], heuristics: list[Heuristic], timings: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for row in rows:
        duration = "%.1f" % row["duration_ms"] if timings else ""
        writer.writerow([row[c] for c in BENCH_COLUMNS[:-1]] + [duration])
    buf.write("# summary\n")
    buf.write("# heuristic,solved,tasks,total_duration_ms\n")
    for name, s in _summary(rows, heuristics).items():
        total = "%.1f" % s["total_duration_ms"] if timings else ""
        buf.write("# %s,%d,%d,%s\n" % (name, s["solved"], s["tasks"], total))
    return buf.getvalue()


def format_bench_json(rows: list[dict], heuristics: list[Heuristic], timings: bool) -> str:
    summary = _summary(rows, heuristics)
    if not timings:
        rows = [dict(row, duration_ms=None) for row in rows]
        for s in summary.values():
            s["total_duration_ms"] = None
    return json.dumps({"rows": rows, "summary": summary}, indent=2)


def cmd_bench(args: argparse.Namespace) -> int:
    limits = Limits(args.max_refinements, args.max_states)
    try:
        heuristics = [Heuristic(h.strip()) for h in args.heuristics.split(",")]
    except ValueError:
        choices = ", ".join(HEURISTIC_NAMES)
        print("error: unknown heuristic; choose from %s" % choices, file=sys.stderr)
        return 3
    if len(set(heuristics)) < len(heuristics):
        print("error: repeated heuristic in %s" % args.heuristics, file=sys.stderr)
        return 3
    if not FsPath(args.dir).is_dir():
        print("error: not a directory: %s" % args.dir, file=sys.stderr)
        return 3
    rows = run_bench(args.dir, heuristics, limits, args.timeout, args.jobs)
    if args.format == "json":
        print(format_bench_json(rows, heuristics, args.timings))
    else:
        sys.stdout.write(format_bench_csv(rows, heuristics, args.timings))
    return 0


# --- gen ----------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        if args.generator == "fig2":
            paths = [generate_fig2_family(args.n, args.out)]
        elif args.generator == "wide":
            paths = [generate_wide_flags(args.k, args.out)]
        elif args.generator == "checks":
            paths = [generate_checks(args.n, args.out)]
        else:
            paths = generate_random_programs(args.seed, args.count, args.out)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


# --- entry --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (input error); argparse's own 2 is UNKNOWN's code.
    Subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


#: Longest ``--timeout``, about 11.6 days.  ``inf`` and ``nan`` would give a
#: deadline that never passes, so a run would have no limit while the usage
#: claims one; past the bound a limit means nothing in practice.
MAX_TIMEOUT_S = 1e6


def _timeout_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number: %r" % text) from None
    if not 0 < value <= MAX_TIMEOUT_S:  # also rejects nan and inf
        raise argparse.ArgumentTypeError(
            "must be a positive number of seconds up to %g: %r" % (MAX_TIMEOUT_S, text)
        )
    return value


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type for an integer option with a lower bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d: %r" % (low, text))
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prefixselect",
        description="CEGAR model checker with sliced-prefix refinement selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    default = Limits()
    limits = _Parser(add_help=False)
    limits.add_argument(
        "--max-refinements", type=_int_at_least(0), default=default.max_refinements
    )
    limits.add_argument("--max-states", type=_int_at_least(1), default=default.max_states)
    limits.add_argument("--timeout", type=_timeout_seconds, default=None, metavar="SECONDS")

    verify = sub.add_parser("verify", parents=[limits], help="verify a single .imp file")
    verify.add_argument("file")
    verify.add_argument(
        "--heuristic", choices=HEURISTIC_NAMES, default=Heuristic.DOMAIN_TYPE.value
    )
    verify.add_argument("--format", choices=["human", "json"], default="human")
    verify.add_argument("--emit-cfa", metavar="OUT.DOT", default=None)
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", parents=[limits], help="run all .imp files in a directory")
    bench.add_argument("dir")
    bench.add_argument(
        "--heuristics",
        default=",".join(HEURISTIC_NAMES),
        help="comma-separated heuristic names",
    )
    bench.add_argument("--format", choices=["csv", "json"], default="csv")
    bench.add_argument("--jobs", type=_int_at_least(1), default=1)
    bench.add_argument(
        "--timings",
        action="store_true",
        help="include measured durations (output no longer byte-stable)",
    )
    bench.set_defaults(func=cmd_bench)

    gen = sub.add_parser("gen", help="generate benchmark programs")
    gen.set_defaults(func=cmd_gen)
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    fig2 = gen_sub.add_parser("fig2", help="flag/loop family program")
    fig2.add_argument("--n", type=_int_at_least(1), required=True)
    fig2.add_argument("--out", required=True)

    wide = gen_sub.add_parser("wide", help="wide-flags family program")
    wide.add_argument("--k", type=_int_at_least(1), required=True)
    wide.add_argument("--out", required=True)

    checks = gen_sub.add_parser("checks", help="checks family program")
    checks.add_argument("--n", type=_int_at_least(1), required=True)
    checks.add_argument("--out", required=True)

    rnd = gen_sub.add_parser("random", help="random program corpus")
    rnd.add_argument("--seed", type=int, required=True)
    rnd.add_argument("--count", type=_int_at_least(1), required=True)
    rnd.add_argument("--out", required=True)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        return _internal_error(exc)


if __name__ == "__main__":
    sys.exit(main())
