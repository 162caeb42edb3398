from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from conftest import assign, assign_expr, assume_cmp, mkpath
from prefixselect import interpolation, paths
from prefixselect.engine import extract_error_path, reach
from prefixselect.frontend import load_cfa
from prefixselect.generators import fig2_program
from prefixselect.interpolation import (
    InterpolantSequence,
    InterpolationError,
    check_interpolant,
    interpolant_sequence,
    interpolate,
    seq_variables,
)
from prefixselect.lang import FALSE, NOOP, Assume, Comparison, IntLit, VarRef
from prefixselect.paths import (
    LimitReached,
    Path,
    SuffixReplay,
    extract_sliced_prefixes,
    slice_to_cone,
    sp_seq,
)
from prefixselect.refinement import Precision
from prefixselect.values import BOTTOM, TOP, Assignment


def as_constraints(gamma):
    """An interpolant as the ``x == c`` assumes it stands for, by name."""
    return tuple(
        Assume(Comparison("==", VarRef(x), IntLit(gamma[x]))) for x in sorted(gamma)
    )


def reference_sequence(path):
    """Inductive interpolation with one independent ``interpolate`` call at
    every cut, on a plain slice of the path, each checked against the
    contract: the previous interpolant enters the cut as constraints, not as
    a start."""
    ops = path.ops
    gamma = TOP
    entries = []
    for i in range(len(ops) - 1):
        gamma_minus = as_constraints(gamma) + (ops[i],)
        gamma_plus = ops[i + 1 :]
        gamma = interpolate(gamma_minus, gamma_plus)
        assert check_interpolant(gamma, gamma_minus, gamma_plus)
        entries.append((i, path.locations[i], gamma))
        if gamma is BOTTOM:
            break
    return InterpolantSequence(tuple(entries)), len(entries)


class TestInterpolate:
    def test_single_shared_variable(self):
        gamma = interpolate([assign("b", 1)], [assume_cmp("b", "==", 0)])
        assert gamma == Assignment({"b": 1})

    def test_unshared_variable_eliminated(self):
        gamma = interpolate(
            [assign("b", 1), assign("i", 0)], [assume_cmp("b", "==", 0)]
        )
        assert gamma == Assignment({"b": 1})
        # elimination oracle: the result still refutes the suffix, and b alone
        # is what does it
        assert sp_seq([assume_cmp("b", "==", 0)], gamma) is BOTTOM
        assert sp_seq([assume_cmp("b", "==", 0)], TOP) is not BOTTOM

    def test_derived_binding_survives(self):
        gamma = interpolate(
            [assign("x", 3), assign_expr("y", "x", "+", 1)],
            [assume_cmp("y", "<", 4)],
        )
        assert gamma == Assignment({"y": 4})
        assert sp_seq([assume_cmp("y", "<", 4)], gamma) is BOTTOM

    def test_not_contradicting_is_contract_error(self):
        with pytest.raises(InterpolationError):
            interpolate([assign("x", 1)], [assume_cmp("x", "==", 1)])

    def test_contradicting_left_side_gives_bottom(self):
        gamma = interpolate(
            [assign("x", 0), assume_cmp("x", ">", 0)], [assign("y", 1)]
        )
        assert gamma is BOTTOM

    def test_deterministic(self):
        args = ([assign("b", 1), assign("i", 0)], [assume_cmp("b", "==", 0)])
        assert interpolate(*args) == interpolate(*args)

    def test_conditions_hold(self, spurious_sample):
        for path, _, _ in spurious_sample[:40]:
            for prefix in extract_sliced_prefixes(path):
                ops = prefix.ops
                for cut in range(1, len(ops)):
                    gamma = interpolate(ops[:cut], ops[cut:])
                    assert check_interpolant(gamma, ops[:cut], ops[cut:])

    def test_local_minimality(self, spurious_sample):
        for path, _, _ in spurious_sample[:40]:
            for prefix in extract_sliced_prefixes(path):
                ops = prefix.ops
                for cut in range(1, len(ops)):
                    gamma = interpolate(ops[:cut], ops[cut:])
                    if gamma is BOTTOM:
                        continue
                    for x in gamma:
                        weaker = gamma.without((x,))
                        assert sp_seq(ops[cut:], weaker) is not BOTTOM


class TestStart:
    def test_constraints_round_trip_through_sp(self):
        # the test helper's constraint form stands for the same assignment
        assert as_constraints(Assignment({"b": 1})) == (
            Assume(Comparison("==", VarRef("b"), IntLit(1))),
        )
        assert as_constraints(TOP) == ()
        gamma = Assignment({"y": -2, "x": 1})
        assert sp_seq(as_constraints(gamma), TOP) == gamma

    def test_start_is_kept_when_read(self):
        gamma = interpolate(
            [assign("i", 0)], [assume_cmp("b", "==", 0)], Assignment({"b": 1})
        )
        assert gamma == Assignment({"b": 1})

    def test_bottom_start_gives_bottom(self):
        assert interpolate([assign("x", 1)], [assign("y", 0)], BOTTOM) is BOTTOM

    def test_start_matches_constraint_form(self, spurious_sample):
        # starting the fold from v0 gives what folding v0's constraints first
        # gives; v0 is each interpolant of the prefix's sequence, which
        # contradicts the rest of the prefix
        checked = 0
        for path, _, _ in spurious_sample[:40]:
            for prefix in extract_sliced_prefixes(path):
                seq, _ = interpolant_sequence(prefix)
                for pos, _, v0 in seq.entries:
                    ops = prefix.ops[pos + 1 :]
                    for cut in range(len(ops)):
                        expected = interpolate(as_constraints(v0) + ops[:cut], ops[cut:])
                        assert interpolate(ops[:cut], ops[cut:], v0) == expected
                        checked += 1
        assert checked > 0


class TestSequences:
    def test_inductive_recurrence(self, spurious_sample):
        # each interpolant, conjoined with the next operation, implies a
        # refutation of the remaining suffix
        for path, _, _ in spurious_sample[:30]:
            for prefix in extract_sliced_prefixes(path):
                seq, calls = interpolant_sequence(prefix)
                ops = prefix.ops
                # one engine call at least, and at most one per cut
                assert 1 <= calls <= len(seq.entries)
                for pos, loc, gamma in seq.entries:
                    assert loc == prefix.locations[pos]
                    assert check_interpolant(gamma, ops[: pos + 1], ops[pos + 1 :])

    def test_proposition_prefix_interpolants_transfer(self, spurious_sample):
        # interpolants computed from a sliced prefix's split also satisfy the
        # interpolant conditions for the original path's split at the same cut
        for path, _, _ in spurious_sample[:30]:
            for prefix in extract_sliced_prefixes(path):
                seq, _ = interpolant_sequence(prefix)
                full_ops = path.ops
                for pos, _, gamma in seq.entries:
                    minus, plus = full_ops[: pos + 1], full_ops[pos + 1 :]
                    assert check_interpolant(gamma, minus, plus)

    def test_matches_reference_loop(self, spurious_sample):
        # one memoised replay shared by all cuts, and the engine called only
        # where the interpolant can change, give what interpolating every cut
        # on its own gives: on whole error paths and on sliced prefixes,
        # before and after slicing them to their cones
        checked = skipped = 0
        for path, _, _ in spurious_sample:
            prefixes = extract_sliced_prefixes(path)
            for p in [path] + prefixes + [slice_to_cone(q) for q in prefixes]:
                seq, calls = interpolant_sequence(p)
                reference, cuts = reference_sequence(p)
                assert seq == reference
                assert calls <= cuts
                checked += 1
                skipped += cuts - calls
        assert checked > len(spurious_sample)
        assert skipped > 0

    def test_calls_counts_engine_invocations(self, monkeypatch, spurious_sample):
        invoked = 0
        engine = interpolation.interpolate

        def counted(*args):
            nonlocal invoked
            invoked += 1
            return engine(*args)

        monkeypatch.setattr(interpolation, "interpolate", counted)
        for path, _, _ in spurious_sample[:40]:
            for p in [path] + extract_sliced_prefixes(path):
                before = invoked
                _, calls = interpolant_sequence(p)
                assert calls == invoked - before >= 1

    def test_feasible_path_is_contract_error(self):
        path = Path(((assign("x", 1), 1), (assume_cmp("x", "==", 1), 2), (assign("y", 0), 3)))
        with pytest.raises(InterpolationError, match="not contradicting"):
            interpolant_sequence(path)

    @pytest.mark.parametrize(
        "steps",
        [
            # every cut before the last is one the engine may skip, so the
            # last makes the one call, and with it the contract check
            ((NOOP, 1), (NOOP, 2), (assume_cmp("x", "==", 1), 3)),
            ((assume_cmp("y", ">", 0), 1), (NOOP, 2), (assume_cmp("x", "==", 1), 3)),
            ((NOOP, 1), (assume_cmp("x", "==", 1), 2), (assign("y", 0), 3)),
        ],
    )
    def test_feasible_path_after_skipped_cuts_is_contract_error(self, steps):
        with pytest.raises(InterpolationError, match="not contradicting"):
            interpolant_sequence(mkpath(*steps))

    def test_skipped_cuts_give_top_before_the_first_call(self):
        path = mkpath((NOOP, 1), (assume_cmp("y", ">", 0), 2), (NOOP, 3), (Assume(FALSE), 4))
        seq, calls = interpolant_sequence(path)
        assert seq.entries == ((0, 1, TOP), (1, 2, TOP), (2, 3, TOP))
        assert calls == 1

    def test_deadline_passed(self, spurious_sample):
        path, _, _ = spurious_sample[0]
        with pytest.raises(LimitReached) as exc:
            interpolant_sequence(path, time.perf_counter() - 1.0)
        assert exc.value.reason == "timeout"

    def test_deadline_passed_on_skipped_cuts(self, monkeypatch):
        # the engine runs at the first cut only, and the clock passes the
        # deadline just after that call; the cuts after it are skipped, and
        # the first of them raises
        path = mkpath(
            (assign("x", 1), 1), (NOOP, 2), (NOOP, 3), (assume_cmp("x", "==", 0), 4)
        )
        now = 0.0
        monkeypatch.setattr(paths, "time", SimpleNamespace(perf_counter=lambda: now))
        engine = interpolation.interpolate
        calls = 0

        def late(*args):
            nonlocal now, calls
            calls += 1
            gamma = engine(*args)
            now = 2.0
            return gamma

        monkeypatch.setattr(interpolation, "interpolate", late)
        with pytest.raises(LimitReached) as exc:
            interpolant_sequence(path, 1.0)
        assert exc.value.reason == "timeout"
        assert calls == 1
        # a deadline already past raises on such a path too
        with pytest.raises(LimitReached):
            interpolant_sequence(mkpath((NOOP, 1), (NOOP, 2), (Assume(FALSE), 3)), -1.0)

    def test_sweep_deadline_passed(self, spurious_sample):
        path, _, _ = spurious_sample[0]
        with pytest.raises(LimitReached) as exc:
            extract_sliced_prefixes(path, time.perf_counter() - 1.0)
        assert exc.value.reason == "timeout"

    def test_replay_deadline_passed(self, spurious_sample):
        path, _, _ = spurious_sample[0]
        past = time.perf_counter() - 1.0
        replay = SuffixReplay(path.ops, past)
        with pytest.raises(LimitReached) as exc:
            replay.sp_from(0, TOP)
        assert exc.value.reason == "timeout"
        # a path as long as the stride is checked while its suffix variables
        # are computed, before any walk
        with pytest.raises(LimitReached):
            SuffixReplay((assign("x", 0),) * paths.CLOCK_STRIDE, past)

    def test_sp_calls_grow_linearly(self, monkeypatch):
        # the first sliced prefix of the fig2 error path with i tracked
        # everywhere unrolls the loop; doubling N must about double the
        # strongest-post calls (a per-cut replay of the suffix quadruples them)
        def sp_calls(n):
            cfa = load_cfa(fig2_program(n))
            precision = Precision({loc: frozenset({"i"}) for loc in cfa.locations})
            reached, hit = reach(cfa, precision, 100_000)
            assert hit
            prefix = extract_sliced_prefixes(extract_error_path(reached))[0]
            calls = 0
            sp = paths.sp

            def counted(op, v):
                nonlocal calls
                calls += 1
                return sp(op, v)

            with monkeypatch.context() as m:
                m.setattr(paths, "sp", counted)
                interpolant_sequence(prefix)
            return calls

        assert sp_calls(200) <= 2.2 * sp_calls(100)

    def test_variables_union(self):
        path = Path(
            (
                (assign("b", 1), 1),
                (assign("i", 0), 2),
                (assume_cmp("b", "==", 0), 3),
            )
        )
        seq, _ = interpolant_sequence(path)
        assert seq.variables() == {"b"}


def test_seq_variables_ignores_noops():
    from prefixselect.lang import NOOP

    assert seq_variables([NOOP, assign("x", 1)]) == {"x"}
