from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
import random
import time

import pytest
from hypothesis import given, strategies as st

from prefixselect import engine
from prefixselect.engine import (
    Limits,
    ReachedSet,
    RunStats,
    State,
    Verdict,
    cegar,
    extract_error_path,
    reach,
)
from prefixselect.frontend import load_cfa
from prefixselect.generators import fig2_program, random_program, wide_flags_program
from prefixselect.lang import (
    NOOP,
    And,
    Assign,
    AssignNondet,
    Assume,
    BinaryOp,
    BoolLit,
    IntLit,
    Negate,
    Not,
    Or,
    VarRef,
)
from prefixselect.paths import LimitReached, Path, sp_seq
from prefixselect.refinement import Heuristic, Precision, check_refinement_progress
from prefixselect.values import BOTTOM, TOP, Assignment, restrict, sp

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
        assert ops[2] == NOOP
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
        with pytest.raises(LimitReached) as exc:
            reach(cfa, full_precision(cfa, ["b", "i"]), 50)
        assert exc.value.reason == "state-limit"

    def test_deadline_passed(self):
        cfa = load_cfa(BRANCH_PROGRAM)
        stats = RunStats()
        with pytest.raises(LimitReached) as exc:
            reach(cfa, Precision(), 10_000, stats, None, time.perf_counter() - 1.0)
        assert exc.value.reason == "timeout"
        assert stats.states_created == 1  # the root, added before the first expansion

    def test_error_path_deadline_passed(self):
        reached, _ = reach(load_cfa(BRANCH_PROGRAM), Precision(), 10_000)
        with pytest.raises(LimitReached) as exc:
            extract_error_path(reached, time.perf_counter() - 1.0)
        assert exc.value.reason == "timeout"

    def test_progress_check_deadline_passed(self):
        cfa = load_cfa(BRANCH_PROGRAM)
        reached, _ = reach(cfa, Precision(), 10_000)
        path = extract_error_path(reached)
        with pytest.raises(LimitReached) as exc:
            check_refinement_progress(
                path, full_precision(cfa, ["x"]), time.perf_counter() - 1.0
            )
        assert exc.value.reason == "timeout"

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


def chain_locations(state):
    locs = set()
    while state is not None:
        locs.add(state.loc)
        state = state.parent
    return locs


def indexed(reached, state):
    """Whether the domain index holds ``state``'s own key."""
    bindings = state.value.bindings
    entry = reached.by_loc.get(state.loc, {}).get(frozenset(bindings))
    return entry is not None and entry[0](bindings) in entry[1]


def traced_cegar(monkeypatch, cfa):
    """Run domain-type cegar; return its verdict, its stats and the
    (precision, reached set) of every reach call, in order."""
    calls = []
    original = engine.reach

    def recording(cfa, precision, *args):
        result = original(cfa, precision, *args)
        calls.append((precision, result[0]))
        return result

    monkeypatch.setattr(engine, "reach", recording)
    verdict, stats = cegar(cfa, Heuristic.DOMAIN_TYPE, Limits(200, 100_000))
    monkeypatch.undo()
    return verdict, stats, calls


def safe_refined_runs(monkeypatch, count):
    """``traced_cegar`` on the first ``count`` random programs whose verdict
    is TRUE after at least one refinement, as (cfa, stats, calls)."""
    out = []
    for index in range(200):
        cfa = load_cfa(random_program(11, index))
        verdict, stats, calls = traced_cegar(monkeypatch, cfa)
        if verdict.kind == "TRUE" and stats.refinements:
            out.append((cfa, stats, calls))
            if len(out) == count:
                break
    return out


def waiting(reached):
    """The states on the waitlist, in no particular order."""
    return [state for _, _, state in reached.waitlist]


def drain(reached):
    """Pop the whole waitlist, in order."""
    popped = []
    while reached.waitlist:
        popped.append(reached.pop())
    return popped


def deepest_first(reached, states):
    """``states`` (in creation order) in the order a resumed waitlist pops
    them: descending location rank, ties in creation order."""
    return sorted(states, key=lambda s: -reached.rank[s.loc])


class TestLazyRestart:
    @pytest.mark.parametrize("index", range(12))
    def test_prune(self, index):
        cfa = load_cfa(random_program(13, index))
        reached, hit = reach(cfa, Precision(), 100_000)
        assert hit
        states = list(reached.states)
        pending = set(waiting(reached))
        dropped = {s for s in states if s.open and s not in pending}
        error = reached.error_state
        rng = random.Random(index)
        changed = set(rng.sample(cfa.locations, rng.randint(0, len(cfa.locations) // 3)))
        removed = [s for s in states if s is error or chain_locations(s) & changed]
        kept = [s for s in states if s not in removed]
        reopened = {s.parent for s in removed}
        requeued = [s for s in kept if s in pending or s in dropped or s in reopened]

        reached.prune(changed)

        assert reached.states == kept
        assert reached.error_state is None
        assert {id(s) for s in waiting(reached)} == {id(s) for s in requeued}
        assert len(reached.waitlist) == len(requeued)
        assert all(s.open for s in requeued)
        assert error.parent in requeued or error.parent in removed
        assert all(indexed(reached, s) for s in kept)
        assert not any(indexed(reached, s) for s in removed)
        assert sum(len(stored) for d in reached.by_loc.values() for _, stored in d.values()) == len(kept)
        assert drain(reached) == deepest_first(reached, requeued)

    def test_prune_requeues_unexpanded_and_covering(self):
        # the loop head drops its second visit as covered, and the states
        # still queued when the breadth-first exploration from the root
        # reaches the error are never expanded
        cfa = load_cfa(
            "var x, y; x := 0; y := nondet(); while (y < 3) { y := y + 1; } "
            "if (x > 0) { error; } x := 1; x := 2;"
        )
        reached, hit = reach(cfa, Precision(), 1000)
        assert hit
        error = reached.error_state
        pending = [s for s in waiting(reached) if s is not error]
        dropped = [s for s in reached.states if s.open and s not in pending and s is not error]
        assert dropped and pending
        reached.prune(set())
        queued = {id(s) for s in waiting(reached)}
        assert id(error.parent) in queued
        assert {id(s) for s in dropped + pending} <= queued
        requeued = [s for s in reached.states if id(s) in queued]
        popped = drain(reached)
        assert popped == deepest_first(reached, requeued)
        ranks = [reached.rank[s.loc] for s in popped]
        assert ranks == sorted(ranks, reverse=True) and ranks[0] > ranks[-1]

    def test_root_pruned_starts_fresh(self):
        cfa = load_cfa(BRANCH_PROGRAM)
        reached, hit = reach(cfa, Precision(), 10_000)
        assert hit
        reached.prune(set(cfa.locations))
        assert reached.size == 0 and not reached.waitlist and not any(reached.by_loc.values())
        precision = full_precision(cfa, ["x"])
        resumed, hit = reach(cfa, precision, 10_000, None, reached)
        fresh, _ = reach(cfa, precision, 10_000)
        assert not hit
        assert [(s.loc, s.value) for s in resumed.states] == [(s.loc, s.value) for s in fresh.states]

    def test_final_reached_set_is_closed(self, monkeypatch):
        for cfa, stats, calls in safe_refined_runs(monkeypatch, 6):
            assert stats.states_reused > 0
            precision, reached = calls[-1]
            assert not reached.waitlist
            for state in reached.states:
                for op, dst in cfa.out_edges(state.loc):
                    value = restrict(sp(op, state.value), precision.at(dst))
                    assert value is BOTTOM or reached.covered(dst, value)

    def test_resumed_and_fresh_cover_each_other(self, monkeypatch):
        for cfa, _, calls in safe_refined_runs(monkeypatch, 6):
            before, after = calls[-2][0], calls[-1][0]
            reached, hit = reach(cfa, before, 100_000)
            assert hit
            reached.prune({l for l, names in after.tracked.items() if names != before.at(l)})
            resumed, hit = reach(cfa, after, 100_000, None, reached)
            assert not hit
            fresh, hit = reach(cfa, after, 100_000)
            assert not hit
            for one, other in ((resumed, fresh), (fresh, resumed)):
                assert all(other.covered(s.loc, s.value) for s in one.states)

    def test_state_limit_counts_kept_states(self, monkeypatch):
        cfa = load_cfa(wide_flags_program(4))
        verdict, stats, calls = traced_cegar(monkeypatch, cfa)
        assert verdict.kind == "TRUE"
        peak = max(reached.size for _, reached in calls)
        assert peak < stats.states_created
        for limit, kind in ((peak, "TRUE"), (peak - 1, "UNKNOWN")):
            verdict, _ = cegar(cfa, Heuristic.DOMAIN_TYPE, Limits(200, limit))
            assert verdict.kind == kind

    def test_wide_flags_scaling_guard(self):
        # a restart from the root after each of its refinements creates
        # 20,401 states
        cfa = load_cfa(wide_flags_program(10))
        verdict, stats = cegar(cfa, Heuristic.DOMAIN_TYPE)
        assert verdict.kind == "TRUE"
        assert stats.states_created <= 15_000


class TestLiveRangeWidening:
    """A refinement's variables are tracked over their live ranges."""

    @pytest.mark.parametrize("k", range(4, 9))
    @pytest.mark.parametrize("heuristic", [Heuristic.DOMAIN_TYPE, Heuristic.CLASSIC])
    def test_wide_flags_one_refinement_per_flag(self, k, heuristic):
        # tracked only along the refuted path, flag j is learned again on
        # every combination of earlier branches: k(k+1)/2 refinements
        verdict, stats = cegar(load_cfa(wide_flags_program(k)), heuristic)
        assert verdict.kind == "TRUE"
        assert stats.refinements == k

    def test_flag_loop_family(self):
        classic_states = []
        for n in (10, 100, 1000):
            cfa = load_cfa(fig2_program(n))
            verdict, stats = cegar(cfa, Heuristic.DOMAIN_TYPE)
            assert verdict.kind == "TRUE"
            assert (stats.refinements, stats.states_created) == (1, 15)
            verdict, stats = cegar(cfa, Heuristic.CLASSIC)
            assert verdict.kind == "TRUE"
            classic_states.append(stats.states_created)
        assert classic_states == sorted(set(classic_states))

    def test_never_more_refinements_than_per_path(self, monkeypatch):
        runs = []
        for index in range(40):
            cfa = load_cfa(random_program(7, index))
            for heuristic in Heuristic:
                runs.append((cfa, heuristic) + cegar(cfa, heuristic))
        monkeypatch.setattr(engine, "widen_to_live_ranges", lambda p, cfa, live: p)
        fewer = 0
        for cfa, heuristic, verdict, stats in runs:
            per_path, per_path_stats = cegar(cfa, heuristic)
            assert verdict.render() == per_path.render()
            assert stats.refinements <= per_path_stats.refinements
            fewer += stats.refinements < per_path_stats.refinements
        assert fewer


def error_distance(cfa):
    """Edges on a shortest path from the initial to the error location over
    the edges whose ``sp`` from TOP is not BOTTOM, or None if it has none."""
    distance = {cfa.initial: 0}
    frontier = [cfa.initial]
    while frontier and cfa.error not in distance:
        successors = []
        for loc in frontier:
            for op, dst in cfa.out_edges(loc):
                if dst not in distance and sp(op, TOP) is not BOTTOM:
                    distance[dst] = distance[loc] + 1
                    successors.append(dst)
        frontier = successors
    return distance.get(cfa.error)


class TestExplorationOrder:
    """``reach`` is breadth-first from the root and deepest-first once it
    resumes after a refinement.  The counters are deterministic; these pin
    what that order gives."""

    def test_first_exploration_is_breadth_first(self):
        # under the empty precision every state is TOP at its location, so
        # the first counterexample is a shortest path to the error location
        sources = [random_program(7, index) for index in range(120)]
        sources += [fig2_program(10), wide_flags_program(6)]
        hits = 0
        for source in sources:
            cfa = load_cfa(source)
            reached, hit = reach(cfa, Precision(), 100_000)
            distance = error_distance(cfa)
            assert hit == (distance is not None), source
            if hit:
                hits += 1
                assert len(extract_error_path(reached)) == distance, source
        assert hits == 121

    @pytest.mark.parametrize(
        "k, states, refinements", [(6, 478, 6), (7, 896, 7), (8, 1703, 8), (10, 6404, 10)]
    )
    def test_wide_flags(self, k, states, refinements):
        verdict, stats = cegar(load_cfa(wide_flags_program(k)), Heuristic.DOMAIN_TYPE)
        assert verdict.kind == "TRUE"
        assert (stats.states_created, stats.refinements) == (states, refinements)

    @pytest.mark.parametrize("n, classic_states", [(10, 60), (100, 420), (300, 1220)])
    def test_flag_loop_family(self, n, classic_states):
        cfa = load_cfa(fig2_program(n))
        verdict, stats = cegar(cfa, Heuristic.DOMAIN_TYPE)
        assert verdict.kind == "TRUE"
        assert (stats.states_created, stats.refinements) == (15, 1)
        verdict, stats = cegar(cfa, Heuristic.CLASSIC)
        assert verdict.kind == "TRUE"
        assert (stats.states_created, stats.refinements) == (classic_states, 2)

    def test_random_corpus_totals(self):
        # (states, refinements) summed over seed 7's 120 programs
        bounds = {
            Heuristic.CLASSIC: (4529, 145),
            Heuristic.PREFIX_SHORTEST: (4491, 140),
            Heuristic.PREFIX_LONGEST: (4079, 122),
            Heuristic.DOMAIN_TYPE: (4149, 127),
        }
        cfas = [load_cfa(random_program(7, index)) for index in range(120)]
        for heuristic, (states, refinements) in bounds.items():
            runs = [cegar(cfa, heuristic)[1] for cfa in cfas]
            assert sum(stats.states_created for stats in runs) <= states
            assert sum(stats.refinements for stats in runs) == refinements


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
        assert sp_seq(verdict.witness.ops) is not BOTTOM
        assert verdict.witness.locations[-1] == cfa.error

    @pytest.mark.parametrize("heuristic", list(Heuristic))
    def test_forced_binding_refuting_its_guard_is_safe(self, heuristic):
        # d == 6 forces d := 6, under which d <= 3 is False: no input errs
        cfa = load_cfa("var d; d := nondet(); if (d == 6 && d <= 3) { error; }")
        verdict, _ = cegar(cfa, heuristic)
        assert verdict.kind == "TRUE"

    def test_limits_are_frozen(self):
        # cegar's default Limits() is one object shared by every call
        limits = Limits()
        with pytest.raises(dataclasses.FrozenInstanceError):
            limits.max_states = 1

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

    def test_timeout_keeps_partial_stats(self):
        cfa = load_cfa(fig2_program(10))
        verdict, stats = cegar(cfa, Heuristic.PREFIX_SHORTEST, timeout=1e-9)
        assert verdict.render() == "UNKNOWN(timeout)"
        assert stats.states_created >= 1
        assert stats.duration_ms > 0.0

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
    @pytest.mark.parametrize(
        "source, expected",
        [
            (fig2_program(10), "TRUE"),
            ("var x; x := nondet(); assume(x == 5); if (x == 5) { error; }", "FALSE"),
        ],
    )
    def test_one_sweep_per_counterexample(self, monkeypatch, heuristic, source, expected):
        # the sweep is the feasibility test: each refuted path is swept once,
        # and so is the feasible path that ends the run with FALSE
        calls = 0
        sweep = engine.extract_sliced_prefixes

        def counted(*args):
            nonlocal calls
            calls += 1
            return sweep(*args)

        monkeypatch.setattr(engine, "extract_sliced_prefixes", counted)
        verdict, stats = cegar(load_cfa(source), heuristic)
        assert verdict.kind == expected
        assert calls == stats.refinements + (verdict.kind == "FALSE")

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
            assert sp_seq(verdict.witness.ops) is not BOTTOM


#: Initial values and ``nondet()`` draws of the concrete search.
CONCRETE_VALUES = range(-2, 3)
#: Steps after which the concrete search stops.
CONCRETE_STEPS = 200

_CONCRETE_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def concrete(tree, env):
    """Two-valued evaluation over concrete integers, written apart from
    ``values``.  Raises ZeroDivisionError on a zero divisor."""
    if isinstance(tree, (IntLit, BoolLit)):
        return tree.value
    if isinstance(tree, VarRef):
        return env[tree.name]
    if isinstance(tree, Negate):
        return -concrete(tree.operand, env)
    if isinstance(tree, Not):
        return not concrete(tree.operand, env)
    if isinstance(tree, And):
        return concrete(tree.left, env) and concrete(tree.right, env)
    if isinstance(tree, Or):
        return concrete(tree.left, env) or concrete(tree.right, env)
    a, b = concrete(tree.left, env), concrete(tree.right, env)
    if tree.op in ("/", "%"):
        q = abs(a) // abs(b)  # truncates toward zero
        q = q if (a < 0) == (b < 0) else -q
        return q if tree.op == "/" else a - b * q
    return _CONCRETE_OPS[tree.op](a, b)


def concrete_posts(op, env):
    """The concrete states one edge leads to from ``env``.  A zero divisor
    ends the path there: the search finds fewer paths, never a false one."""
    if isinstance(op, AssignNondet):
        return [{**env, op.var: c} for c in CONCRETE_VALUES]
    try:
        if isinstance(op, Assign):
            return [{**env, op.var: concrete(op.expr, env)}]
        return [env] if concrete(op.pred, env) else []
    except ZeroDivisionError:
        return []


@functools.lru_cache(maxsize=None)
def concrete_error_reachable(source):
    """Breadth-first search over concrete (location, values) states from
    every initial state over CONCRETE_VALUES, for up to CONCRETE_STEPS
    steps; True when one reaches the error location."""
    cfa = load_cfa(source)
    if cfa.error is None:
        return False
    names = cfa.variables
    frontier = [
        (cfa.initial, values)
        for values in itertools.product(CONCRETE_VALUES, repeat=len(names))
    ]
    seen = set(frontier)
    for _ in range(CONCRETE_STEPS):
        successors = []
        for loc, values in frontier:
            if loc == cfa.error:
                return True
            env = dict(zip(names, values))
            for op, dst in cfa.out_edges(loc):
                for post in concrete_posts(op, env):
                    state = (dst, tuple(post[x] for x in names))
                    if state not in seen:
                        seen.add(state)
                        successors.append(state)
        frontier = successors
    return any(loc == cfa.error for loc, _ in frontier)


class TestConcreteOracle:
    """No TRUE verdict has a concrete path to ``error``.  The search does not
    use ``sp``, so it does not share the blind spot of TestSoundness."""

    def test_oracle_finds_concrete_errors(self):
        assert concrete_error_reachable("var x; x := nondet(); if (x == -2) { error; }")
        assert not concrete_error_reachable("var x; x := nondet(); if (x == 3) { error; }")
        assert concrete_error_reachable(fig2_program(10).replace("b == 0", "b == 1"))

    @pytest.mark.parametrize("heuristic", list(Heuristic))
    def test_true_has_no_concrete_error_path(self, heuristic):
        sources = [random_program(13, i) for i in range(10)]
        sources += [random_program(7, i) for i in range(120)]
        trues = 0
        for source in sources:
            verdict, _ = cegar(load_cfa(source), heuristic)
            if verdict.kind == "TRUE":
                trues += 1
                assert not concrete_error_reachable(source), source
        assert trues


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize(
    "source",
    [
        "var x; x := nondet(); if (x > 5) { if (x < 3) { error; } }",
        "var x, y; y := x + 1; if (y == x) { error; }",
    ],
    ids=["nested-contradicting-guards", "successor-equals-self"],
)
def test_safe_program_is_not_false(source):
    # both programs are safe, but an assume over an unbound value counts as
    # satisfiable, so the checker answers FALSE on a spurious witness
    verdict, _ = cegar(load_cfa(source), Heuristic.DOMAIN_TYPE)
    assert verdict.kind != "FALSE"


class TestVerdict:
    def test_render(self):
        assert Verdict("TRUE").render() == "TRUE"
        assert Verdict("UNKNOWN", reason="state-limit").render() == "UNKNOWN(state-limit)"
