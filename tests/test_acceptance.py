"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
``[ACCEPTANCE] <criterion>: PASS|FAIL`` line directly to the terminal,
bypassing pytest capture, so the run log shows one line per criterion.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from conftest import CORPUS_SEED, harvest_spurious_paths
from prefixselect.cli import main
from prefixselect.engine import Limits, cegar
from prefixselect.frontend import load_cfa
from prefixselect.generators import fig2_program, random_program
from prefixselect.interpolation import (
    check_interpolant,
    interpolant_sequence,
    interpolate,
)
from prefixselect.lang import NOOP, Assume
from prefixselect.paths import Path, extract_sliced_prefixes, slice_to_cone, sp_seq
from prefixselect.refinement import Heuristic, check_refinement_progress
from prefixselect.values import BOTTOM, TOP

LIMITS = Limits(max_refinements=200, max_states=100_000)
FIG2_SIZES = [2, 3, 5, 8, 10, 20, 50, 100, 150, 200]
HARD_SIZE = 60_000  # unsolvable within the state limit unless the loop
# counter stays untracked
RANDOM_TASKS = 39  # 10 family sizes + 1 hard size + 39 random = 50 tasks


@contextmanager
def announce(capfd, name):
    outcome = {"ok": False}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        with capfd.disabled():
            print(
                "[ACCEPTANCE] %s: %s" % (name, "PASS" if outcome["ok"] else "FAIL"),
                flush=True,
            )


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    for n in FIG2_SIZES + [HARD_SIZE]:
        (d / ("fig2_n%05d.imp" % n)).write_text(fig2_program(n), encoding="utf-8")
    for i in range(RANDOM_TASKS):
        (d / ("random_%03d.imp" % i)).write_text(
            random_program(CORPUS_SEED, i), encoding="utf-8"
        )
    assert len(list(d.glob("*.imp"))) == 50
    return d


def _bench_csv(corpus_dir, cap) -> str:
    code = main(
        [
            "bench",
            str(corpus_dir),
            "--jobs",
            "1",
            "--max-states",
            str(LIMITS.max_states),
        ]
    )
    out = cap.readouterr().out
    assert code == 0
    return out


@pytest.fixture(scope="session")
def bench_rows(corpus_dir):
    from prefixselect.cli import run_bench

    return run_bench(corpus_dir, list(Heuristic), LIMITS)


@pytest.fixture(scope="session")
def harvest500():
    paths = harvest_spurious_paths(500)
    assert len(paths) == 500
    return paths


def test_loop_unrolling_avoidance(capfd):
    with announce(capfd, "loop-unrolling avoidance"):
        runs = {}
        for n in (10, 1000, 10000):
            verdict, stats = cegar(
                load_cfa(fig2_program(n)), Heuristic.DOMAIN_TYPE, LIMITS
            )
            assert verdict.kind == "TRUE"
            runs[n] = (stats.refinements, stats.states_created)
        assert len(set(runs.values())) == 1, runs

        # tracking the loop counter instead forces an unrolling whose state
        # count grows at least linearly with the bound
        unrolled = {}
        for n in (10, 100, 300):
            verdict, stats = cegar(
                load_cfa(fig2_program(n)), Heuristic.PREFIX_SHORTEST, LIMITS
            )
            assert verdict.kind == "TRUE"
            unrolled[n] = stats.states_created
        assert unrolled[100] - unrolled[10] >= 100 - 10
        assert unrolled[300] - unrolled[100] >= 300 - 100


def test_no_regressions_on_corpus(capfd, bench_rows):
    with announce(capfd, "corpus solved counts (domain-type vs classic)"):
        verdicts = {(r["task"], r["heuristic"]): r["verdict"] for r in bench_rows}
        tasks = sorted({r["task"] for r in bench_rows})
        assert len(tasks) == 50

        def solved(heuristic):
            return {
                t for t in tasks if verdicts[(t, heuristic)] in ("TRUE", "FALSE")
            }

        classic, domain = solved("classic"), solved("domain-type")
        assert len(domain) >= len(classic)
        assert classic <= domain, classic - domain
        # the hard family instance separates the two heuristics
        assert domain - classic


def _oracle_prefixes(path: Path):
    """Brute-force reconstruction of the prefix cascade: repeatedly scan all
    truncation points for the earliest infeasible candidate, then replace its
    final assume with a no-op and continue.  Checks feasibility only through
    sp_seq, independently of the extraction sweep."""
    steps = list(path.steps)
    replaced: list[int] = []
    found: list[Path] = []
    while True:
        start = replaced[-1] + 1 if replaced else 0
        hit = None
        for t in range(start, len(steps)):
            candidate = Path(
                tuple(
                    (NOOP, loc) if pos in replaced else (op, loc)
                    for pos, (op, loc) in enumerate(steps[: t + 1])
                )
            )
            if sp_seq(candidate.ops) is BOTTOM:
                hit = (t, candidate)
                break
        if hit is None:
            return found
        found.append(hit[1])
        replaced.append(hit[0])


def test_prefix_extraction_matches_oracle(capfd, harvest500):
    with announce(capfd, "sliced-prefix extraction vs brute-force oracle"):
        started = time.monotonic()
        for path, _, _ in harvest500:
            prefixes = extract_sliced_prefixes(path)
            assert len(prefixes) >= 1
            expected = _oracle_prefixes(path)
            assert len(prefixes) == len(expected)
            for prefix, candidate in zip(prefixes, expected):
                # the whole prefix, so its length and its replaced positions
                assert prefix == candidate
                # characteristics: infeasible exactly once, at the final assume
                assert sp_seq(prefix.ops) is BOTTOM
                assert isinstance(prefix.steps[-1][0], Assume)
                assert sp_seq(prefix.ops[:-1]) is not BOTTOM
        assert time.monotonic() - started < 60.0


def test_prefix_interpolants_transfer_to_original_path(capfd, harvest500):
    with announce(capfd, "prefix interpolants valid for the original path"):
        for path, _, _ in harvest500:
            full_ops = path.ops
            for prefix in extract_sliced_prefixes(path):
                seq, _ = interpolant_sequence(prefix)
                for pos, _, gamma in seq.entries:
                    assert check_interpolant(
                        gamma, full_ops[: pos + 1], full_ops[pos + 1 :]
                    )


def every_cut_entries(path):
    """The entries of ``path``'s interpolant sequence with the engine called
    at every cut, each on its own slice of the path."""
    ops, gamma, entries = path.ops, TOP, []
    for i in range(len(ops) - 1):
        gamma = interpolate(ops[i : i + 1], ops[i + 1 :], gamma)
        entries.append((i, path.locations[i], gamma))
        if gamma is BOTTOM:
            break
    return tuple(entries)


def test_sliced_prefix_interpolants_unchanged(capfd, harvest500):
    with announce(capfd, "cone-sliced prefixes give the same interpolants"):
        checked = 0
        for path, _, _ in harvest500:
            prefixes = extract_sliced_prefixes(path)
            for p in [path] + prefixes + [slice_to_cone(q) for q in prefixes]:
                # entry for entry what calling the engine at every cut gives,
                # with at most one call per cut
                seq, calls = interpolant_sequence(p)
                expected = every_cut_entries(p)
                assert seq.entries == expected
                assert 1 <= calls <= len(expected)
            for prefix in prefixes:
                assert interpolant_sequence(slice_to_cone(prefix))[0] == (
                    interpolant_sequence(prefix)[0]
                )
                checked += 1
        assert checked > len(harvest500)


def test_interpolant_contract_and_minimality(capfd, harvest500):
    with announce(capfd, "interpolant conditions and local minimality"):
        for path, _, _ in harvest500:
            for prefix in extract_sliced_prefixes(path):
                ops = prefix.ops
                for cut in range(1, len(ops)):
                    gamma = interpolate(ops[:cut], ops[cut:])
                    assert check_interpolant(gamma, ops[:cut], ops[cut:])
                    if gamma is BOTTOM:
                        continue
                    for x in gamma:
                        assert sp_seq(ops[cut:], gamma.without((x,))) is not BOTTOM


def test_refinement_progress(capfd, harvest500):
    with announce(capfd, "refinement progress (refuted path excluded)"):
        for path, result, _ in harvest500:
            assert check_refinement_progress(path, result.precision)


def test_heuristic_verdict_agreement(capfd, bench_rows):
    with announce(capfd, "heuristic verdict agreement"):
        by_task: dict[str, set[str]] = {}
        for row in bench_rows:
            if row["verdict"] in ("TRUE", "FALSE"):
                by_task.setdefault(row["task"], set()).add(row["verdict"])
        assert by_task
        disagreements = {t: v for t, v in by_task.items() if len(v) > 1}
        assert not disagreements


def test_bench_output_deterministic(capfd, corpus_dir):
    with announce(capfd, "byte-identical bench CSV across runs"):
        first = _bench_csv(corpus_dir, capfd)
        second = _bench_csv(corpus_dir, capfd)
        assert first.encode() == second.encode()
        assert first.splitlines()[0].startswith("task,heuristic,verdict")
