"""Command-line interface: verify, bench, gen.

Exit codes for ``verify``: 0 TRUE, 1 FALSE, 2 UNKNOWN, 3 input error (also
a file that is not UTF-8, an expression deeper than ``frontend.MAX_DEPTH``
and an integer literal too long to convert), 4 internal error (the checker
crashed; there is no verdict).  ``bench`` reports a task with an input error
as ``UNKNOWN(error)`` and a crashed run as ``UNKNOWN(internal-error)``.  A
usage error (unknown option or choice, a ``--timeout`` that is not a number
of seconds in (0, 1e6], a ``--jobs`` or ``--max-states`` below 1, a
negative ``--max-refinements``, missing argument) exits 3 for every
subcommand, never 2; so does an unknown or repeated name in
``bench --heuristics``.  ``verify --format json`` prints the ``RunStats``
fields plus ``verdict``, ``heuristic`` and ``witness``.
Bench output is deterministic by default; measured durations go into the CSV
only with --timings, because wall-clock noise would break byte-stable output
(the JSON stats from ``verify`` always carry real durations).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import multiprocessing
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path as FsPath
from typing import Callable, Optional

from .engine import Limits, RunStats, Verdict, cegar
from .frontend import ParseError, cfa_to_dot, load_cfa
from .generators import generate_fig2_family, generate_random_programs
from .paths import render_path
from .refinement import Heuristic

HEURISTIC_NAMES = [h.value for h in Heuristic]

log = logging.getLogger("prefixselect.cli")


def _configure_logging() -> None:
    level_name = os.environ.get("PREFIXSELECT_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level_name, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


#: What ``_run_file`` raises on a file it cannot read or parse.
INPUT_ERRORS = (OSError, UnicodeDecodeError, ParseError)


def _run_file(
    path: str, heuristic: Heuristic, limits: Limits
) -> tuple[Verdict, RunStats]:
    cfa = load_cfa(FsPath(path).read_text(encoding="utf-8"))
    return cegar(cfa, heuristic, limits)


Run = Callable[[], tuple[Verdict, RunStats]]


def _child_run(conn, run: Run) -> None:
    try:
        verdict, stats = run()
        conn.send(("ok", verdict, stats))
    except Exception as exc:  # re-raised in the parent as RuntimeError
        log.debug("run failed", exc_info=True)
        conn.send(("error", str(exc), None))
    finally:
        conn.close()


def _run_with_timeout(run: Run, timeout: float) -> tuple[Verdict, RunStats]:
    """Call ``run`` in a forked child; UNKNOWN(timeout) if no result arrives
    within ``timeout`` seconds, with the elapsed wall time as its only stat.

    The result is read before the child is joined: a result larger than the
    pipe buffer keeps the child blocked in ``send`` until the parent reads it.
    """
    start = time.perf_counter()
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_run, args=(child_conn, run))
    proc.start()
    child_conn.close()
    with parent_conn:
        if not parent_conn.poll(timeout):
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            proc.terminate()
            proc.join()
            return Verdict("UNKNOWN", reason="timeout"), RunStats(duration_ms=elapsed_ms)
        try:
            status, payload, stats = parent_conn.recv()
        except EOFError:
            raise RuntimeError("verification process died without a result") from None
        finally:
            proc.join()
    if status == "ok":
        return payload, stats
    raise RuntimeError(payload)


# --- verify -------------------------------------------------------------------


def _stats_json(verdict: Verdict, heuristic: Heuristic, stats: RunStats) -> dict:
    witness = verdict.witness
    return {
        "verdict": verdict.render(),
        "heuristic": heuristic.value,
        **dataclasses.asdict(stats),
        "witness": None if witness is None else render_path(witness).splitlines(),
    }


def cmd_verify(args: argparse.Namespace) -> int:
    limits = Limits(args.max_refinements, args.max_states)
    heuristic = Heuristic(args.heuristic)
    try:
        source = FsPath(args.file).read_text(encoding="utf-8")
        cfa = load_cfa(source)
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    if args.emit_cfa:
        try:
            FsPath(args.emit_cfa).write_text(cfa_to_dot(cfa), encoding="utf-8")
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 3
    try:
        if args.timeout is not None:
            verdict, stats = _run_with_timeout(
                lambda: cegar(cfa, heuristic, limits), args.timeout
            )
        else:
            verdict, stats = cegar(cfa, heuristic, limits)
    except Exception as exc:
        log.debug("verification failed", exc_info=True)
        print("internal error: %s" % exc, file=sys.stderr)
        return 4
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
        if stats.refinements:
            print("chosen prefix indices: %s" % stats.chosen_prefix_indices)
            print("chosen prefix scores: %s" % stats.chosen_prefix_scores)
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


def _bench_run(
    task: FsPath, heuristic: Heuristic, limits: Limits
) -> tuple[Verdict, RunStats]:
    """``_run_file``, with a failure turned into a verdict: UNKNOWN(error) for
    an input error, UNKNOWN(internal-error) for a crash of the checker."""
    try:
        return _run_file(str(task), heuristic, limits)
    except Exception as exc:
        log.warning("task %s failed: %s", task.name, exc)
        reason = "error" if isinstance(exc, INPUT_ERRORS) else "internal-error"
        return Verdict("UNKNOWN", reason=reason), RunStats()


def _bench_one(
    task: FsPath, heuristic: Heuristic, limits: Limits, timeout: Optional[float]
) -> dict:
    run = lambda: _bench_run(task, heuristic, limits)
    try:
        verdict, stats = run() if timeout is None else _run_with_timeout(run, timeout)
    except Exception as exc:  # the runner failed or the child died without a result
        log.warning("task %s failed: %s", task.name, exc)
        verdict, stats = Verdict("UNKNOWN", reason="internal-error"), RunStats()
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
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(
                pool.map(lambda p: _bench_one(p[0], p[1], limits, timeout), pairs)
            )
    else:
        rows = [_bench_one(t, h, limits, timeout) for t, h in pairs]
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


def cmd_gen_fig2(args: argparse.Namespace) -> int:
    if args.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return 3
    try:
        path = generate_fig2_family(args.n, args.out)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    print(path)
    return 0


def cmd_gen_random(args: argparse.Namespace) -> int:
    if args.count < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return 3
    try:
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


#: Longest ``--timeout``.  ``Connection.poll`` waits in whole milliseconds
#: held in a C int, so it overflows past about 24.8 days (and on ``inf``).
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

    limits = _Parser(add_help=False)
    limits.add_argument("--max-refinements", type=_int_at_least(0), default=200)
    limits.add_argument("--max-states", type=_int_at_least(1), default=1_000_000)
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
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    fig2 = gen_sub.add_parser("fig2", help="flag/loop family program")
    fig2.add_argument("--n", type=int, required=True)
    fig2.add_argument("--out", required=True)
    fig2.set_defaults(func=cmd_gen_fig2)

    rnd = gen_sub.add_parser("random", help="random program corpus")
    rnd.add_argument("--seed", type=int, required=True)
    rnd.add_argument("--count", type=int, required=True)
    rnd.add_argument("--out", required=True)
    rnd.set_defaults(func=cmd_gen_random)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
