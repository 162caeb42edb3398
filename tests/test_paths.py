from __future__ import annotations

import pytest

from conftest import assign, assign_expr, assume_cmp, mkpath
from prefixselect import paths
from prefixselect.lang import NOOP, Assume, AssignNondet, Comparison, VarRef, op_variables
from prefixselect.paths import (
    CLOCK_STRIDE,
    LimitReached,
    Path,
    Suffix,
    SuffixReplay,
    check_deadline,
    extract_sliced_prefixes,
    render_path,
    slice_to_cone,
    sp_seq,
)
from prefixselect.values import BOTTOM, TOP, Assignment

TWO_REASONS = mkpath(
    (assign("x", 0), 1),
    (assume_cmp("x", ">", 0), 2),
    (assign("y", 1), 3),
    (assume_cmp("y", "==", 0), 4),
)


class TestSpPath:
    def test_contradiction(self):
        path = mkpath((assign("x", 0), 1), (assume_cmp("x", ">", 0), 2))
        assert sp_seq(path.ops) is BOTTOM

    def test_accumulates_bindings(self):
        from conftest import assign_expr

        path = mkpath((assign("x", 0), 1), (assign_expr("y", "x", "+", 1), 2))
        assert sp_seq(path.ops) == Assignment({"x": 0, "y": 1})

    def test_empty_fold(self):
        v = Assignment({"x": 3})
        assert sp_seq(mkpath().ops, v) == v


class TestSuffixReplay:
    def test_matches_plain_replay(self, spurious_sample):
        # every suffix view has the variables of, and replays like, the plain
        # slice it stands for, before and after the memo has been filled; on
        # the error paths and on their prefixes sliced to the cone, whose
        # runs of NOOP the walks jump over
        sequences = []
        for path, _, _ in spurious_sample[:30]:
            sequences.append(path.ops)
            sequences += [slice_to_cone(p).ops for p in extract_sliced_prefixes(path)]
        assert any(NOOP in ops for ops in sequences)
        for ops in sequences:
            replay = SuffixReplay(ops)
            for _ in range(2):
                for pos in range(len(ops) + 1):
                    suffix = Suffix(replay, pos)
                    assert suffix.variables == set().union(*map(op_variables, ops[pos:]))
                    for v in (TOP, sp_seq(ops[:pos])):
                        assert suffix.sp_seq(v) == sp_seq(ops[pos:], v)

    def test_bottom_start(self):
        ops = (assign("x", 0), assume_cmp("x", ">", 0))
        suffix = Suffix(SuffixReplay(ops), 0)
        assert suffix.sp_seq(BOTTOM) is BOTTOM
        assert suffix.sp_seq(TOP) is BOTTOM
        assert suffix.variables == {"x"}
        assert Suffix(SuffixReplay(ops), 2).variables == frozenset()

    def test_walk_over_noop_runs_reads_the_clock(self):
        # a walk reads the clock at its first step wherever it starts, so a
        # past deadline raises though no step sits at a multiple of the stride
        ops = (NOOP,) * 5 + (assign("x", 0),) + (NOOP,) * 5 + (assume_cmp("x", ">", 0),)
        replay = SuffixReplay(ops, -1.0)
        with pytest.raises(LimitReached) as exc:
            replay.sp_from(1, TOP)
        assert exc.value.reason == "timeout"

    def test_clock_read_per_stride_of_steps_walked(self, monkeypatch):
        # the clock is read every CLOCK_STRIDE steps walked, not at the
        # positions that are multiples of it, which NOOP runs can hide
        reads = 0

        def clock():
            nonlocal reads
            reads += 1
            return 0.0

        ops = (assign("x", 0), NOOP) * (2 * CLOCK_STRIDE + 1)
        replay = SuffixReplay(ops, float("inf"))
        monkeypatch.setattr(paths.time, "perf_counter", clock)
        assert replay.sp_from(1, TOP) == Assignment({"x": 0})
        assert reads == 2  # 2 * CLOCK_STRIDE steps, not a NOOP among them


class TestFeasibility:
    """The sweep is the feasibility test: a path is feasible exactly when it
    has no sliced prefix."""

    def test_infeasible(self):
        path = mkpath((assign("x", 0), 1), (assume_cmp("x", ">", 0), 2))
        assert extract_sliced_prefixes(path) != []

    def test_feasible(self):
        path = mkpath((assign("x", 0), 1), (assume_cmp("x", "==", 0), 2))
        assert extract_sliced_prefixes(path) == []

    def test_unknown_assume_is_satisfiable(self):
        path = mkpath((AssignNondet("x"), 1), (assume_cmp("x", ">", 0), 2))
        assert extract_sliced_prefixes(path) == []

    def test_matches_whole_path_sp(self, spurious_sample):
        for path, _, _ in spurious_sample:
            for p in (path, extract_sliced_prefixes(path)[0]):
                for cut in range(len(p) + 1):
                    head = Path(p.steps[:cut])
                    infeasible = sp_seq(head.ops) is BOTTOM
                    assert bool(extract_sliced_prefixes(head)) == infeasible


class TestDeadline:
    def test_clock_read_once_per_stride(self):
        past = -1.0
        check_deadline(None)
        check_deadline(float("inf"))
        check_deadline(past, 1)
        check_deadline(past, CLOCK_STRIDE - 1)
        for step in (0, CLOCK_STRIDE, 3 * CLOCK_STRIDE):
            with pytest.raises(LimitReached) as exc:
                check_deadline(past, step)
            assert exc.value.reason == "timeout"


def assume_equal(x: str, y: str) -> Assume:
    return Assume(Comparison("==", VarRef(x), VarRef(y)))


class TestSliceToCone:
    def test_keeps_assignments_that_feed_the_contradiction(self):
        # x feeds y, y is checked; z and the assume on it are unrelated, and
        # so is w, though its expression reads x
        path = mkpath(
            (assign("x", 1), 1),
            (assign("z", 5), 2),
            (assign_expr("y", "x", "+", 1), 3),
            (assume_cmp("z", ">", 0), 4),
            (assign_expr("w", "x", "+", 2), 5),
            (assume_cmp("y", "==", 0), 6),
        )
        sliced = slice_to_cone(path)
        assert sliced.ops == (path.ops[0], NOOP, path.ops[2], NOOP, NOOP, path.ops[5])
        assert sliced.locations == path.locations

    def test_keeps_assumes_on_the_cone_and_nondet(self):
        # the assume x == w may force x, so it stays and w joins the cone;
        # x := nondet() assigns a cone variable and stays
        path = mkpath(
            (AssignNondet("x"), 1),
            (assign("w", 3), 2),
            (assume_equal("x", "w"), 3),
            (assign("u", 0), 4),
            (assume_cmp("x", "==", 4), 5),
        )
        sliced = slice_to_cone(path)
        assert sliced.ops == (path.ops[0], path.ops[1], path.ops[2], NOOP, path.ops[4])
        assert sp_seq(path.ops) is BOTTOM and sp_seq(sliced.ops) is BOTTOM

    def test_variables_never_leave_the_cone(self):
        # x := 2 overwrites x, but the earlier x := 1 stays all the same
        path = mkpath(
            (assign("x", 1), 1),
            (assign("x", 2), 2),
            (assume_cmp("x", "==", 0), 3),
        )
        assert slice_to_cone(path) == path

    def test_positions_and_locations_stay(self, spurious_sample):
        for path, _, _ in spurious_sample:
            for prefix in extract_sliced_prefixes(path):
                sliced = slice_to_cone(prefix)
                assert sliced.locations == prefix.locations
                assert sliced.steps[-1] == prefix.steps[-1]
                for (op, _), (orig, _) in zip(sliced, prefix):
                    assert op in (orig, NOOP)
                # the slice keeps the contradiction, and only it
                assert sp_seq(sliced.ops) is BOTTOM
                assert sp_seq(sliced.ops[:-1]) is not BOTTOM
                assert slice_to_cone(sliced) == sliced

    def test_empty_path(self):
        assert slice_to_cone(mkpath()) == mkpath()

    def test_deadline_passed(self):
        # a pass over the whole path reads the clock every CLOCK_STRIDE steps
        path = mkpath(*[(assign("x", 0), 1)] * (CLOCK_STRIDE + 1))
        with pytest.raises(LimitReached):
            slice_to_cone(path, -1.0)


def replaced_positions(prefix: Path, path: Path) -> set[int]:
    """Where the sliced prefix holds ``NOOP`` for an assume of its path."""
    return {
        pos
        for pos, ((op, _), (orig, _)) in enumerate(zip(prefix, path))
        if op != orig and op == NOOP and isinstance(orig, Assume)
    }


class TestExtraction:
    def test_two_reasons(self):
        prefixes = extract_sliced_prefixes(TWO_REASONS)
        assert len(prefixes) == 2
        first, second = prefixes
        assert first.steps == TWO_REASONS.steps[:2]
        assert replaced_positions(first, TWO_REASONS) == set()
        assert second.steps == (
            TWO_REASONS.steps[0],
            (NOOP, 2),
            TWO_REASONS.steps[2],
            TWO_REASONS.steps[3],
        )
        assert replaced_positions(second, TWO_REASONS) == {1}

    def test_single_contradiction_at_end(self):
        path = mkpath((assign("x", 1), 1), (assume_cmp("x", "==", 0), 2))
        assert extract_sliced_prefixes(path) == [path]

    def test_three_independent_reasons_cascade(self):
        path = mkpath(
            (assign("x", 0), 1),
            (assign("y", 0), 2),
            (assign("z", 0), 3),
            (assume_cmp("x", ">", 0), 4),
            (assume_cmp("y", ">", 0), 5),
            (assume_cmp("z", ">", 0), 6),
        )
        prefixes = extract_sliced_prefixes(path)
        assert len(prefixes) == 3
        assert [len(p) for p in prefixes] == [4, 5, 6]
        assert [sorted(replaced_positions(p, path)) for p in prefixes] == [[], [3], [3, 4]]

    def test_feasible_input_has_no_prefix(self):
        assert extract_sliced_prefixes(mkpath((assign("x", 0), 1))) == []
        assert extract_sliced_prefixes(mkpath()) == []

    def test_indices_in_emission_order(self):
        # a prefix's index is its list position: prefix i ends at the i-th
        # contradicting assume, so the prefixes come out shortest first
        prefixes = extract_sliced_prefixes(TWO_REASONS)
        assert [p.steps[-1] for p in prefixes] == [
            TWO_REASONS.steps[1],
            TWO_REASONS.steps[3],
        ]


class TestExtractionInvariants:
    def test_harvested_paths(self, spurious_sample):
        for path, _, _ in spurious_sample:
            prefixes = extract_sliced_prefixes(path)
            assert len(prefixes) >= 1
            for i, prefix in enumerate(prefixes):
                # (1) each prefix is itself infeasible, ending in the
                # contradicting assume
                assert sp_seq(prefix.ops) is BOTTOM
                assert isinstance(prefix.steps[-1][0], Assume)
                # dropping the final pair leaves a feasible path
                assert sp_seq(prefix.ops[:-1]) is not BOTTOM
                # (3) differs from the original only by truncation and at
                # replaced positions, where an assume became NOOP
                replaced = replaced_positions(prefix, path)
                for pos, (op, loc) in enumerate(prefix):
                    orig_op, orig_loc = path.steps[pos]
                    assert loc == orig_loc
                    if pos not in replaced:
                        assert op == orig_op
                # (2) prefix i without its final pair is a prefix of prefix i+1
                if i + 1 < len(prefixes):
                    nxt = prefixes[i + 1]
                    body = prefix.steps[:-1]
                    assert nxt.steps[: len(body)] == body
                # replacements of prefix i are the final positions of 1..i-1
                assert replaced == {len(p) - 1 for p in prefixes[:i]}


class TestRendering:
    def test_plain_path(self):
        text = render_path(mkpath((assign("x", 0), 1), (assume_cmp("x", ">", 0), 2)))
        assert text == "(x := 0, l1)\n([x > 0], l2)"

    def test_replaced_annotation(self):
        # a replaced assume renders as the NOOP it became, at its own location
        p = extract_sliced_prefixes(TWO_REASONS)[1]
        assert render_path(p).splitlines() == [
            "(x := 0, l1)",
            "([true], l2)",
            "(y := 1, l3)",
            "([y == 0], l4)",
        ]
