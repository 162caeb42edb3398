from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path as FsPath

import pytest

from conftest import INT_DIGITS, needs_digit_limit
from prefixselect import cli
from prefixselect.cli import (
    BENCH_COLUMNS,
    format_bench_csv,
    format_bench_json,
    main,
    run_bench,
)
from prefixselect.engine import Limits, RefinementProgressError
from prefixselect.frontend import MAX_DEPTH
from prefixselect.generators import (
    fig2_program,
    generate_fig2_family,
    wide_flags_program,
)
from prefixselect.refinement import Heuristic

SAFE = "var x; x := 0; if (x > 0) { error; }"
GOLDEN_BENCH = FsPath(__file__).parent / "golden" / "bench.csv"
UNSAFE = "var x; x := nondet(); assume(x == 5); if (x == 5) { error; }"


def deep_sum(terms: int) -> str:
    """Assignment tree of depth ``terms``: ``1 + 1 + ...`` nests to the left."""
    return "var x; x := %s; if (x == %d) { error; }" % (" + ".join(["1"] * terms), terms)


def deep_conjunction(conjuncts: int) -> str:
    """Assume tree of depth ``conjuncts + 1``: ``&&`` nests to the left over
    comparisons of depth 2."""
    pred = " && ".join(["x == 1"] * conjuncts)
    return "var x; x := nondet(); assume(%s); if (x == 1) { error; }" % pred


def blocks_around(blocks: int, tree: str) -> str:
    """``x := tree;`` inside ``blocks`` nested blocks."""
    return "var x; %sx := %s;%s" % ("if (x == 0) { " * blocks, tree, " }" * blocks)


#: Trees that fit the depth bound alone but not inside 120 blocks: a sum of
#: height 255, and ``x - (x - (…))`` with 253 brackets.
MIXED_TREES = {
    "sum": " + ".join(["x"] * 255),
    "brackets": "x - (" * 253 + "x" + ")" * 253,
}


@pytest.fixture
def safe_file(tmp_path):
    p = tmp_path / "safe.imp"
    p.write_text(SAFE, encoding="utf-8")
    return p


@pytest.fixture
def unsafe_file(tmp_path):
    p = tmp_path / "unsafe.imp"
    p.write_text(UNSAFE, encoding="utf-8")
    return p


class TestVerify:
    def test_safe_exit_zero_and_result_line(self, safe_file, capsys):
        code = main(["verify", str(safe_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "states reused: " in out
        assert "precision size: " in out
        assert "chosen prefix indices: [" in out  # the run refines once
        assert out.rstrip().splitlines()[-1] == "RESULT: TRUE"

    def test_unsafe_exit_one_with_witness(self, unsafe_file, capsys):
        code = main(["verify", str(unsafe_file)])
        out = capsys.readouterr().out
        assert code == 1
        assert "RESULT: FALSE" in out
        assert "witness:" in out

    def test_unknown_exit_two(self, tmp_path, capsys):
        p = tmp_path / "big.imp"
        p.write_text(fig2_program(5000), encoding="utf-8")
        code = main(
            ["verify", str(p), "--heuristic", "classic", "--max-states", "500"]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "RESULT: UNKNOWN(state-limit)" in out

    def test_missing_file_exit_three(self, tmp_path, capsys):
        code = main(["verify", str(tmp_path / "nope.imp")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, error",
        [
            ("var x; y := 1;", "1:8: undeclared variable 'y'"),
            # ARABIC-INDIC DIGIT THREE is a Unicode decimal digit, not a literal
            (
                "var x; x := \u0663\u0663; if (x == 33) { error; }",
                "1:13: unexpected character '\u0663'",
            ),
        ],
        ids=["undeclared", "non-ascii-digits"],
    )
    def test_parse_error_exit_three(self, tmp_path, capsys, source, error):
        p = tmp_path / "bad.imp"
        p.write_text(source, encoding="utf-8")
        code = main(["verify", str(p)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: %s\n" % error
        assert "RESULT" not in captured.out

    @pytest.mark.parametrize("extra", [[], ["--timeout", "20"]])
    def test_non_utf8_exit_three(self, tmp_path, capsys, extra):
        p = tmp_path / "bad.imp"
        p.write_bytes(b"var x; x := 1; // \xff\n")
        code = main(["verify", str(p)] + extra)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error:") and "utf-8" in captured.err
        assert "RESULT" not in captured.out

    @needs_digit_limit
    def test_literal_too_long_exit_three(self, tmp_path, capsys):
        p = tmp_path / "long.imp"
        p.write_text("var x; x := %s;" % ("1" * (INT_DIGITS + 1)), encoding="utf-8")
        code = main(["verify", str(p)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: 1:13: integer literal too long\n"

    def test_json_schema(self, safe_file, capsys):
        code = main(["verify", str(safe_file), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert set(data) == {
            "verdict",
            "heuristic",
            "refinements",
            "prefixes_total",
            "interpolation_calls",
            "states_created",
            "coverage_hits",
            "states_reused",
            "precision_size",
            "chosen_prefix_indices",
            "chosen_prefix_scores",
            "duration_ms",
            "witness",
        }
        assert data["verdict"] == "TRUE"
        assert data["heuristic"] == "domain-type"
        assert data["witness"] is None
        assert isinstance(data["duration_ms"], float)
        assert data["refinements"] == 1 and data["states_reused"] > 0
        assert data["precision_size"] > 0

    def test_json_witness_lines(self, unsafe_file, capsys):
        main(["verify", str(unsafe_file), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "FALSE"
        assert isinstance(data["witness"], list) and data["witness"]
        assert all(line.startswith("(") for line in data["witness"])

    def test_emit_cfa(self, safe_file, tmp_path, capsys):
        dot = tmp_path / "out.dot"
        main(["verify", str(safe_file), "--emit-cfa", str(dot)])
        capsys.readouterr()
        text = dot.read_text(encoding="utf-8")
        assert text.startswith("digraph cfa {")
        assert "peripheries=2" in text

    def test_emit_cfa_unwritable_exit_three(self, safe_file, tmp_path, capsys):
        code = main(
            ["verify", str(safe_file), "--emit-cfa", str(tmp_path / "missing" / "out.dot")]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error:")
        assert "RESULT" not in captured.out

    def test_timeout_unknown(self, tmp_path, capsys):
        p = tmp_path / "slow.imp"
        p.write_text(fig2_program(100_000), encoding="utf-8")
        code = main(
            ["verify", str(p), "--heuristic", "prefix-shortest", "--timeout", "0.2"]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "RESULT: UNKNOWN(timeout)" in out

    def test_value_limit_unknown(self, tmp_path, capsys):
        # each pass squares x, so its size doubles until the product bound
        p = tmp_path / "square.imp"
        p.write_text(
            "var x; x := 2; while (x != 0) { x := x * x; } error;", encoding="utf-8"
        )
        start = time.perf_counter()
        code = main(["verify", str(p), "--timeout", "10"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert capsys.readouterr().out.rstrip().splitlines()[-1] == (
            "RESULT: UNKNOWN(value-limit)"
        )

    def test_timeout_reports_elapsed_time(self, tmp_path, capsys):
        p = tmp_path / "slow.imp"
        p.write_text(fig2_program(100_000), encoding="utf-8")
        code = main(
            ["verify", str(p), "--heuristic", "prefix-shortest", "--timeout", "0.2",
             "--format", "json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == 2
        assert data["verdict"] == "UNKNOWN(timeout)"
        assert data["duration_ms"] >= 200.0
        assert data["states_created"] > 0

    def test_timeout_large_result_not_lost(self, tmp_path, capsys):
        # a large result (a witness of 3000 steps) under --timeout comes back
        # whole
        p = tmp_path / "long.imp"
        body = " ".join("x := %d;" % i for i in range(1, 3000))
        p.write_text(
            "var x; x := 0; %s if (x == 2999) { error; }" % body, encoding="utf-8"
        )
        code = main(["verify", str(p), "--timeout", "20"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.rstrip().splitlines()[-1] == "RESULT: FALSE"

    @pytest.mark.parametrize("extra", [[], ["--timeout", "20"]])
    def test_deep_nesting_exit_three(self, tmp_path, capsys, extra):
        programs = {
            # 3000 nested parentheses, rejected on the parser's way down
            "parentheses": "var x; x := %s1%s;" % ("(" * 3000, ")" * 3000),
            # one level past the depth bound
            "sum": deep_sum(MAX_DEPTH + 1),
            "conjunction": deep_conjunction(MAX_DEPTH),
        }
        for name, source in programs.items():
            p = tmp_path / ("%s.imp" % name)
            p.write_text(source, encoding="utf-8")
            code = main(["verify", str(p)] + extra)
            captured = capsys.readouterr()
            assert code == 3, name
            assert captured.err.startswith("error:") and "nested too deeply" in captured.err
            assert "RESULT" not in captured.out

    @pytest.mark.parametrize("extra", [[], ["--timeout", "20"]])
    def test_blocks_around_deep_tree_exit_three(self, tmp_path, capsys, extra):
        column = len("var x; ") + len("if (x == 0) { ") * 120 + len("x := ") + 1
        for name, tree in MIXED_TREES.items():
            p = tmp_path / ("%s.imp" % name)
            p.write_text(blocks_around(120, tree), encoding="utf-8")
            code = main(["verify", str(p)] + extra)
            captured = capsys.readouterr()
            assert code == 3, name
            assert captured.err == "error: 1:%d: nested too deeply (depth above %d)\n" % (
                column,
                MAX_DEPTH,
            )
            assert captured.out == ""
        timeout = float(extra[1]) if extra else None
        for jobs in (1, 2):
            rows = run_bench(tmp_path, [Heuristic.CLASSIC], Limits(), timeout=timeout, jobs=jobs)
            assert [r["verdict"] for r in rows] == ["UNKNOWN(error)"] * len(MIXED_TREES)

    @pytest.mark.parametrize(
        "source",
        [deep_sum(MAX_DEPTH), deep_conjunction(MAX_DEPTH - 1)],
        ids=["sum", "conjunction"],
    )
    def test_depth_bound_same_result_with_timeout(self, tmp_path, capsys, source):
        p = tmp_path / "deep.imp"
        p.write_text(source, encoding="utf-8")
        results = []
        for extra in ([], ["--timeout", "20"]):
            code = main(["verify", str(p), "--format", "json"] + extra)
            data = json.loads(capsys.readouterr().out)
            results.append((code, data["verdict"], data["witness"]))
        assert results[0] == results[1]
        assert results[0][:2] == (1, "FALSE")

    def test_zero_refinements_allowed(self, safe_file, capsys):
        code = main(["verify", str(safe_file), "--max-refinements", "0"])
        assert code == 2
        assert "RESULT: UNKNOWN(refinement-limit)" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [[], ["--timeout", "20"]])
    @pytest.mark.parametrize("crashed", ["cegar", "load_cfa", "cfa_to_dot"])
    def test_crash_exit_four(self, safe_file, tmp_path, capsys, monkeypatch, crashed, extra):
        def crash(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, crashed, crash)
        emit = ["--emit-cfa", str(tmp_path / "cfa.dot")] if crashed == "cfa_to_dot" else []
        code = main(["verify", str(safe_file)] + emit + extra)
        captured = capsys.readouterr()
        assert code == 4
        assert "internal error: maximum recursion depth exceeded" in captured.err
        assert "RESULT" not in captured.out


class TestUsageErrors:
    """argparse's own exit code 2 would read as UNKNOWN; usage errors exit 3."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "{file}", "--heuristic", "mystery"],
            ["verify", "{file}", "--timeout", "soon"],
            ["verify", "{file}", "--timeout", "-1"],
            ["verify", "{file}", "--timeout", "0"],
            ["verify"],
            ["bench", "{dir}", "--timeout", "soon"],
            ["bench", "{dir}", "--timeout", "-1"],
            ["bench", "{dir}", "--timeout", "0"],
            ["bench"],
            # past MAX_TIMEOUT_S; under inf the deadline would never pass
            ["verify", "{file}", "--timeout", "inf"],
            ["verify", "{file}", "--timeout", "1e7"],
            ["bench", "{dir}", "--timeout", "inf"],
            ["bench", "{dir}", "--timeout", "1e7"],
            ["verify", "{file}", "--max-states", "-5"],
            ["verify", "{file}", "--max-states", "0"],
            ["verify", "{file}", "--max-states", "many"],
            ["verify", "{file}", "--max-refinements", "-1"],
            ["bench", "{dir}", "--jobs", "0"],
            ["bench", "{dir}", "--jobs", "-2"],
            ["bench", "{dir}", "--max-states", "0"],
            ["bench", "{dir}", "--max-refinements", "-1"],
            # the chosen prefixes are always reported; the switch is gone
            ["verify", "{file}", "--stats"],
            ["gen", "fig2", "--n", "0", "--out", "{dir}"],
            ["gen", "wide", "--k", "0", "--out", "{dir}"],
            ["gen", "wide", "--k", "-1", "--out", "{dir}"],
            ["gen", "random", "--seed", "1", "--count", "0", "--out", "{dir}"],
        ],
    )
    def test_exit_three(self, argv, safe_file, capsys):
        argv = [a.format(file=safe_file, dir=safe_file.parent) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 3
        assert "error:" in captured.err
        assert "RESULT" not in captured.out

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["bench", "--help"]])
    def test_help_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


@pytest.fixture
def bench_dir(tmp_path):
    d = tmp_path / "tasks"
    d.mkdir()
    (d / "a_safe.imp").write_text(SAFE, encoding="utf-8")
    (d / "b_unsafe.imp").write_text(UNSAFE, encoding="utf-8")
    return d


class TestBench:
    def test_rows_in_task_heuristic_order(self, bench_dir):
        heuristics = [Heuristic.CLASSIC, Heuristic.DOMAIN_TYPE]
        rows = run_bench(bench_dir, heuristics, Limits(200, 100_000))
        assert [(r["task"], r["heuristic"]) for r in rows] == [
            ("a_safe.imp", "classic"),
            ("a_safe.imp", "domain-type"),
            ("b_unsafe.imp", "classic"),
            ("b_unsafe.imp", "domain-type"),
        ]
        assert [r["verdict"] for r in rows] == ["TRUE", "TRUE", "FALSE", "FALSE"]

    def test_directory_named_like_task_skipped(self, bench_dir):
        generate_fig2_family(10, bench_dir / "fig2_n10.imp")  # a directory
        rows = run_bench(bench_dir, [Heuristic.CLASSIC], Limits(200, 100_000))
        assert [(r["task"], r["verdict"]) for r in rows] == [
            ("a_safe.imp", "TRUE"),
            ("b_unsafe.imp", "FALSE"),
        ]

    def test_csv_golden(self, bench_dir):
        heuristics = [Heuristic.CLASSIC]
        rows = run_bench(bench_dir, heuristics, Limits(200, 100_000))
        text = format_bench_csv(rows, heuristics, timings=False)
        lines = text.splitlines()
        assert lines[0] == ",".join(BENCH_COLUMNS)
        assert lines[1] == "a_safe.imp,classic,TRUE,1,7,2,"
        assert lines[2].startswith("b_unsafe.imp,classic,FALSE,")
        assert lines[3] == "# summary"
        assert lines[4] == "# heuristic,solved,tasks,total_duration_ms"
        assert lines[5] == "# classic,2,2,"

    def test_csv_byte_stable(self, bench_dir):
        heuristics = list(Heuristic)
        first = format_bench_csv(
            run_bench(bench_dir, heuristics, Limits(200, 100_000)),
            heuristics,
            timings=False,
        )
        second = format_bench_csv(
            run_bench(bench_dir, heuristics, Limits(200, 100_000), jobs=2),
            heuristics,
            timings=False,
        )
        assert first.encode() == second.encode()

    def test_timings_fill_duration(self, bench_dir):
        heuristics = [Heuristic.CLASSIC]
        rows = run_bench(bench_dir, heuristics, Limits(200, 100_000))
        text = format_bench_csv(rows, heuristics, timings=True)
        duration = text.splitlines()[1].split(",")[-1]
        assert duration != "" and float(duration) >= 0.0

    def test_json_format(self, bench_dir):
        heuristics = [Heuristic.CLASSIC]
        rows = run_bench(bench_dir, heuristics, Limits(200, 100_000))
        data = json.loads(format_bench_json(rows, heuristics, timings=False))
        assert data["summary"]["classic"] == {
            "solved": 2,
            "tasks": 2,
            "total_duration_ms": None,
        }
        assert all(r["duration_ms"] is None for r in data["rows"])

    def test_cli_entry(self, bench_dir, capsys):
        code = main(["bench", str(bench_dir), "--heuristics", "classic"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == ",".join(BENCH_COLUMNS)

    def test_bad_heuristic_exit_three(self, bench_dir, capsys):
        code = main(["bench", str(bench_dir), "--heuristics", "mystery"])
        assert code == 3
        assert "unknown heuristic" in capsys.readouterr().err

    def test_repeated_heuristic_exit_three(self, bench_dir, capsys):
        code = main(["bench", str(bench_dir), "--heuristics", "classic,domain-type,classic"])
        captured = capsys.readouterr()
        assert code == 3
        assert "repeated heuristic" in captured.err
        assert captured.out == ""

    def test_timeout_rows(self, bench_dir):
        # the slow task would run for seconds before its state limit
        (bench_dir / "c_slow.imp").write_text(fig2_program(100_000), encoding="utf-8")
        heuristics = [Heuristic.PREFIX_SHORTEST]
        texts = []
        for jobs in (1, 2):
            rows = run_bench(bench_dir, heuristics, Limits(), timeout=1.0, jobs=jobs)
            assert [(r["task"], r["verdict"]) for r in rows] == [
                ("a_safe.imp", "TRUE"),
                ("b_unsafe.imp", "FALSE"),
                ("c_slow.imp", "UNKNOWN(timeout)"),
            ]
            # the timed-out run keeps the counters it reached, which depend
            # on timing; every other line is byte-stable
            assert rows[2]["states"] > 0
            lines = format_bench_csv(rows, heuristics, timings=False).splitlines()
            texts.append("\n".join(l for l in lines if not l.startswith("c_slow.imp,")))
        assert texts[0].encode() == texts[1].encode()

    @pytest.mark.parametrize("timeout", [None, 20.0])
    def test_crash_is_internal_error(self, bench_dir, monkeypatch, timeout):
        def crash(*args, **kwargs):
            raise RefinementProgressError("no progress")

        # input errors: undeclared variable, not UTF-8, literal too long
        (bench_dir / "c_undeclared.imp").write_text("var x; x := y;", encoding="utf-8")
        (bench_dir / "d_latin1.imp").write_bytes(b"var x; x := 1; // \xff\n")
        input_errors = 2
        if INT_DIGITS:
            (bench_dir / "e_long.imp").write_text(
                "var x; x := %s;" % ("1" * (INT_DIGITS + 1)), encoding="utf-8"
            )
            input_errors += 1
        monkeypatch.setattr(cli, "cegar", crash)
        rows = run_bench(bench_dir, [Heuristic.CLASSIC], Limits(), timeout=timeout)
        assert [r["verdict"] for r in rows] == ["UNKNOWN(internal-error)"] * 2 + [
            "UNKNOWN(error)"
        ] * input_errors

    def test_every_run_in_process(self, bench_dir, monkeypatch, capsys):
        pids = []
        original = cli.cegar

        def recording(*args, **kwargs):
            pids.append(os.getpid())
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "cegar", recording)
        assert main(["verify", str(bench_dir / "a_safe.imp"), "--timeout", "20"]) == 0
        capsys.readouterr()
        rows = run_bench(bench_dir, list(Heuristic), Limits(), timeout=20.0, jobs=2)
        assert [r["verdict"] for r in rows] == ["TRUE"] * 4 + ["FALSE"] * 4
        # a run in another process would leave no pid in this list
        assert pids == [os.getpid()] * 9

    def test_missing_dir_exit_three(self, tmp_path, capsys):
        code = main(["bench", str(tmp_path / "nope")])
        assert code == 3
        capsys.readouterr()

    def test_golden_corpus(self, tmp_path, capsys):
        """``bench`` over a fixed corpus prints ``tests/golden/bench.csv``
        byte for byte.

        The corpus is ``gen random --seed 7 --count 120``, ``gen fig2 --n``
        10, 100 and 300 and ``gen wide --k`` 6, 7 and 8.  The file records
        what the checker answered when it was written, wrong verdicts
        included: it detects a change, it is not an oracle.  A change that
        means to move rows regenerates it::

            for a in "random --seed 7 --count 120" "fig2 --n 10" "fig2 --n 100" \\
                     "fig2 --n 300" "wide --k 6" "wide --k 7" "wide --k 8"; do
                prefixselect gen $a --out corpus
            done
            prefixselect bench corpus > tests/golden/bench.csv

        and names the rows that moved.
        """
        corpus = str(tmp_path / "corpus")
        generators = [["random", "--seed", "7", "--count", "120"]]
        generators += [["fig2", "--n", str(n)] for n in (10, 100, 300)]
        generators += [["wide", "--k", str(k)] for k in (6, 7, 8)]
        for argv in generators:
            assert main(["gen"] + argv + ["--out", corpus]) == 0
        capsys.readouterr()
        assert main(["bench", corpus]) == 0
        got = capsys.readouterr().out
        want = GOLDEN_BENCH.read_bytes().decode("utf-8")
        rows = itertools.zip_longest(want.splitlines(), got.splitlines(), fillvalue="<none>")
        differ = [(line, old, new) for line, (old, new) in enumerate(rows, 1) if old != new]
        assert got == want, "first rows that differ (line, golden, now): %r" % differ[:5]


class TestGen:
    def test_fig2_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "fig2", "--n", "7", "--out", str(a)]) == 0
        assert main(["gen", "fig2", "--n", "7", "--out", str(b)]) == 0
        capsys.readouterr()
        assert (a / "fig2_n7.imp").read_bytes() == (b / "fig2_n7.imp").read_bytes()

    def test_wide_writes_the_family_program(self, tmp_path, capsys):
        assert main(["gen", "wide", "--k", "3", "--out", str(tmp_path)]) == 0
        path = tmp_path / "wide_k3.imp"
        assert capsys.readouterr().out == "%s\n" % path
        assert path.read_text(encoding="utf-8") == wide_flags_program(3)

    def test_wide_unwritable_out_exit_three(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = main(["gen", "wide", "--k", "2", "--out", str(blocker)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error:") and not captured.out

    def test_random_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "random", "--seed", "5", "--count", "3", "--out", str(a)])
        main(["gen", "random", "--seed", "5", "--count", "3", "--out", str(b)])
        capsys.readouterr()
        names = sorted(p.name for p in a.glob("*.imp"))
        assert names == [
            "random_s5_000.imp",
            "random_s5_001.imp",
            "random_s5_002.imp",
        ]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_fig2_unwritable_out_exit_three(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = main(["gen", "fig2", "--n", "5", "--out", str(blocker / "sub")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error:") and not captured.out

    def test_random_out_is_a_file_exit_three(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = main(["gen", "random", "--seed", "1", "--count", "2", "--out", str(blocker)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error:") and not captured.out
