from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from prefixselect.engine import (
    Limits,
    ReachedSet,
    State,
    StateLimitReached,
    Verdict,
    cegar,
    extract_error_path,
    reach,
)
from prefixselect.frontend import load_cfa
from prefixselect.generators import fig2_program, random_program
from prefixselect.lang import Assign, Assume, IntLit, is_noop
from prefixselect.paths import Path, is_feasible, sp_seq
from prefixselect.refinement import Heuristic, Precision
from prefixselect.values import BOTTOM, TOP, Assignment

BRANCH_PROGRAM = "var x; x := 0; if (x > 0) { error; }"


def full_precision(cfa, names):
    return Precision({loc: frozenset(names) for loc in cfa.locations})


class TestReach:
    def test_concrete_branch_refuted(self):
        cfa = load_cfa(BRANCH_PROGRAM)
        _, hit = reach(cfa, full_precision(cfa, ["x"]), 10_000)
        assert not hit

    def test_abstract_branch_reaches_error(self):
        cfa = load_cfa(BRANCH_PROGRAM)
        _, hit = reach(cfa, Precision(), 10_000)
        assert hit

    def test_error_path_shape(self):
        cfa = load_cfa(BRANCH_PROGRAM)
        reached, hit = reach(cfa, Precision(), 10_000)
        assert hit
        path = extract_error_path(reached)
        ops = path.ops
        assert isinstance(ops[0], Assign) and ops[0].expr == IntLit(0)
        assert isinstance(ops[1], Assume)
        assert is_noop(ops[2])
        assert path.locations[-1] == cfa.error

    def test_untracked_loop_head_stabilizes(self):
        cfa = load_cfa("var i; i := 0; while (i < 1000) { i := i + 1; }")
        inc = next(
            (src, dst)
            for src, op, dst in cfa.edges
            if isinstance(op, Assign) and op.var == "i" and op.expr != IntLit(0)
        )
        head = inc[1]
        reached, hit = reach(cfa, Precision(), 10_000)
        assert not hit
        assert sum(len(stored) for _, stored in reached.by_loc[head].values()) == 1

    def test_state_limit(self):
        cfa = load_cfa(fig2_program(1000))
        with pytest.raises(StateLimitReached):
            reach(cfa, full_precision(cfa, ["b", "i"]), 50)

    def test_no_error_state_is_contract_error(self):
        cfa = load_cfa("var x; x := 1;")
        reached, hit = reach(cfa, Precision(), 100)
        assert not hit
        with pytest.raises(ValueError):
            extract_error_path(reached)

    def test_witness_is_a_program_path(self):
        cfa = load_cfa(BRANCH_PROGRAM)
        reached, _ = reach(cfa, Precision(), 10_000)
        path = extract_error_path(reached)
        loc = cfa.initial
        for op, nxt in path:
            assert (loc, op, nxt) in cfa.edges
            loc = nxt


small_assignments = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 2), max_size=4
).map(Assignment)


def brute_force_covered(stored, loc, value):
    return any(l == loc and v.items_set <= value.items_set for l, v in stored)


class TestCoverage:
    @given(
        st.lists(st.tuples(st.integers(0, 1), small_assignments), max_size=16),
        small_assignments,
    )
    def test_matches_brute_force(self, stored, probe):
        reached = ReachedSet()
        for loc, value in stored:
            reached.add(State(loc, value))
        assert reached.covered(0, probe) == brute_force_covered(stored, 0, probe)

    def test_wide_probe(self):
        # enumerating the sub-binding-sets of this probe would take 2^40 lookups
        rng = random.Random(0)
        names = ["v%d" % k for k in range(40)]
        stored = []
        for _ in range(1000):
            domain = rng.sample(names, rng.randint(1, 40))
            stored.append((0, Assignment({x: rng.randint(0, 1) for x in domain})))
        reached = ReachedSet()
        for loc, value in stored:
            reached.add(State(loc, value))
        hit = Assignment({x: stored[-1][1].get(x, 0) for x in names})
        miss = Assignment({x: 2 for x in names})
        for probe, expected in ((hit, True), (miss, False)):
            assert len(probe) == 40
            assert brute_force_covered(stored, 0, probe) is expected
            assert reached.covered(0, probe) is expected


class TestCegar:
    def test_family_program_safe(self):
        cfa = load_cfa(fig2_program(10))
        verdict, _ = cegar(cfa, Heuristic.DOMAIN_TYPE)
        assert verdict.kind == "TRUE"

    def test_forced_binding_bug_found(self):
        cfa = load_cfa(
            "var x; x := nondet(); assume(x == 5); if (x == 5) { error; }"
        )
        verdict, _ = cegar(cfa, Heuristic.DOMAIN_TYPE)
        assert verdict.kind == "FALSE"
        assert verdict.witness is not None
        assert is_feasible(verdict.witness)
        assert verdict.witness.locations[-1] == cfa.error

    def test_no_error_location(self):
        cfa = load_cfa("var x; x := 1; x := x + 1;")
        verdict, stats = cegar(cfa, Heuristic.CLASSIC)
        assert verdict.kind == "TRUE" and stats.refinements == 0

    def test_refinement_limit(self):
        cfa = load_cfa(fig2_program(10))
        verdict, _ = cegar(cfa, Heuristic.DOMAIN_TYPE, Limits(max_refinements=0))
        assert verdict.kind == "UNKNOWN" and verdict.reason == "refinement-limit"

    def test_state_limit(self):
        cfa = load_cfa(fig2_program(5000))
        verdict, _ = cegar(cfa, Heuristic.PREFIX_SHORTEST, Limits(200, 1000))
        assert verdict.kind == "UNKNOWN" and verdict.reason == "state-limit"

    def test_deterministic(self):
        cfa = load_cfa(random_program(11, 3))
        v1, s1 = cegar(cfa, Heuristic.DOMAIN_TYPE)
        v2, s2 = cegar(cfa, Heuristic.DOMAIN_TYPE)
        assert (v1.kind, v1.witness) == (v2.kind, v2.witness)
        assert (s1.refinements, s1.states_created, s1.chosen_prefix_indices) == (
            s2.refinements,
            s2.states_created,
            s2.chosen_prefix_indices,
        )

    @pytest.mark.parametrize("heuristic", list(Heuristic))
    def test_heuristics_agree(self, heuristic):
        for index in range(8):
            cfa = load_cfa(random_program(11, index))
            baseline, _ = cegar(cfa, Heuristic.CLASSIC, Limits(200, 100_000))
            verdict, _ = cegar(cfa, heuristic, Limits(200, 100_000))
            if "UNKNOWN" not in (baseline.kind, verdict.kind):
                assert verdict.kind == baseline.kind


def enumerate_feasible_error_path(cfa, max_len):
    """Bounded exhaustive search for a feasible error path; the independent
    soundness oracle for small programs."""
    if cfa.error is None:
        return None
    stack = [(cfa.initial, (), TOP)]
    while stack:
        loc, steps, v = stack.pop()
        if loc == cfa.error:
            return Path(steps)
        if len(steps) >= max_len:
            continue
        for op, dst in cfa.out_edges(loc):
            from prefixselect.values import sp

            nxt = sp(op, v)
            if nxt is BOTTOM:
                continue
            stack.append((dst, steps + ((op, dst),), nxt))
    return None


class TestSoundness:
    @pytest.mark.parametrize("index", range(10))
    def test_verdict_matches_bounded_enumeration(self, index):
        cfa = load_cfa(random_program(13, index))
        verdict, _ = cegar(cfa, Heuristic.DOMAIN_TYPE, Limits(200, 100_000))
        found = enumerate_feasible_error_path(cfa, max_len=60)
        if verdict.kind == "TRUE":
            assert found is None
        elif verdict.kind == "FALSE":
            assert is_feasible(verdict.witness)


class TestVerdict:
    def test_render(self):
        assert Verdict("TRUE").render() == "TRUE"
        assert Verdict("UNKNOWN", reason="state-limit").render() == "UNKNOWN(state-limit)"
