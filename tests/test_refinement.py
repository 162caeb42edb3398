from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import assign, assume_cmp, mkpath, reversed_chain
from prefixselect import engine, refinement
from prefixselect.engine import cegar, extract_error_path, reach
from prefixselect.frontend import ControlFlowAutomaton, load_cfa
from prefixselect.generators import (
    checks_program,
    fig2_program,
    random_program,
    wide_flags_program,
)
from prefixselect.interpolation import InterpolantSequence, interpolant_sequence
from prefixselect.lang import (
    NOOP,
    Assign,
    AssignNondet,
    Assume,
    BinaryOp,
    IntLit,
    VarRef,
    tree_variables,
)
from prefixselect.paths import LimitReached, extract_sliced_prefixes
from prefixselect.refinement import (
    DomainType,
    _direct_comparisons,
    Heuristic,
    Precision,
    check_refinement_progress,
    choose_sliced_prefix,
    classify_domain_types,
    depth_first_search,
    live_locations,
    refine_selecting,
    score_interpolant_sequence,
    widen_to_live_ranges,
)
from prefixselect.values import BOTTOM, TOP, Assignment

TWO_REASONS = mkpath(
    (assign("x", 0), 1),
    (assume_cmp("x", ">", 0), 2),
    (assign("y", 1), 3),
    (assume_cmp("y", "==", 0), 4),
)


def first_spurious_path(source, heuristic=Heuristic.DOMAIN_TYPE):
    cfa = load_cfa(source)
    collected = []
    cegar(cfa, heuristic, on_refinement=lambda p, r: collected.append(p))
    return cfa, collected[0]


class TestRefineClassic:
    def test_two_step_path(self):
        path = mkpath((assign("x", 0), 1), (assume_cmp("x", ">", 0), 2))
        result = refine_selecting(
            path, extract_sliced_prefixes(path), Heuristic.CLASSIC, {}
        )
        assert result.precision.at(1) == {"x"}
        assert result.precision.at(2) == frozenset()

    def test_boolean_only_contradiction(self):
        path = mkpath(
            (assign("b", 1), 1),
            (assign("i", 0), 2),
            (assume_cmp("b", "==", 0), 3),
        )
        result = refine_selecting(
            path, extract_sliced_prefixes(path), Heuristic.CLASSIC, {}
        )
        assert result.precision.at(1) == {"b"}
        assert result.precision.at(2) == {"b"}

    def test_family_path_tracks_loop_counter(self):
        # interpolating the whole first error path of the family program
        # pulls the loop counter into the precision: the bad outcome
        cfa, path = first_spurious_path(fig2_program(10), Heuristic.CLASSIC)
        result = refine_selecting(
            path, extract_sliced_prefixes(path), Heuristic.CLASSIC, {}
        )
        tracked = set()
        for loc in cfa.locations:
            tracked |= result.precision.at(loc)
        assert "i" in tracked


def components(cfa):
    return depth_first_search(cfa)[1]


def classify_by_fixpoint(cfa):
    """Reference classifier: re-scans every edge until the boolean set stops
    shrinking, and joins per-component updates and guards."""
    scc_of = components(cfa)
    updates, assume_vars = {}, {}
    for src, op, dst in cfa.edges:
        scc = scc_of[src]
        if scc != scc_of[dst]:
            continue
        if isinstance(op, Assume):
            assume_vars.setdefault(scc, set()).update(tree_variables(op.pred))
        elif isinstance(op, Assign) and isinstance(op.expr, BinaryOp):
            e = op.expr
            orders = {"+": [(e.left, e.right), (e.right, e.left)], "-": [(e.left, e.right)]}
            for x, c in orders.get(e.op, []):
                if isinstance(x, VarRef) and x.name == op.var and isinstance(c, IntLit):
                    updates.setdefault(scc, set()).add(op.var)
    loop_counters = set()
    for scc, names in updates.items():
        loop_counters |= names & assume_vars.get(scc, set())

    def zero_one(e):
        return isinstance(e, IntLit) and e.value in (0, 1)

    candidates = set(cfa.variables)
    changed = True
    while changed:
        changed = False
        for _, op, _ in cfa.edges:
            if isinstance(op, Assume):
                sides = list(_direct_comparisons(op.pred))
            elif isinstance(op, Assign):
                sides = [(op.var, op.expr)]
            else:
                sides = [(op.var, None)]
            for x, other in sides:
                ok = zero_one(other) or (
                    isinstance(other, VarRef) and other.name in candidates
                )
                if x in candidates and not ok:
                    candidates.discard(x)
                    changed = True
    return {
        x: DomainType.LOOP_COUNTER
        if x in loop_counters
        else DomainType.BOOLEAN
        if x in candidates
        else DomainType.INTEGER_OTHER
        for x in cfa.variables
    }


programs = st.one_of(
    st.builds(random_program, st.integers(0, 30), st.integers(0, 300)),
    st.builds(fig2_program, st.integers(1, 50)),
    st.builds(wide_flags_program, st.integers(1, 8)),
    st.builds(checks_program, st.integers(1, 50)),
    st.builds(reversed_chain, st.integers(1, 60)),
)


class TestClassify:
    @given(programs)
    def test_matches_fixpoint_reference(self, source):
        cfa = load_cfa(source)
        assert classify_domain_types(cfa, components(cfa)) == classify_by_fixpoint(cfa)

    def test_one_search_per_run(self, monkeypatch):
        calls = []

        def counted(cfa):
            calls.append(cfa)
            return depth_first_search(cfa)

        monkeypatch.setattr(engine, "depth_first_search", counted)
        monkeypatch.setattr(refinement, "depth_first_search", counted)
        cegar(load_cfa(fig2_program(10)))
        assert len(calls) == 1

    def test_one_pass_over_the_edges(self, monkeypatch):
        # the copies run against edge order: a re-scan until nothing changes
        # reads every assume once per copy
        cfa = load_cfa(reversed_chain(300))
        calls = []

        def counted(pred):
            calls.append(pred)
            return _direct_comparisons(pred)

        monkeypatch.setattr(refinement, "_direct_comparisons", counted)
        table = classify_domain_types(cfa, components(cfa))
        assert len(calls) == sum(isinstance(op, Assume) for _, op, _ in cfa.edges)
        assert set(table.values()) == {DomainType.INTEGER_OTHER}

    def test_three_classes(self):
        cfa = load_cfa(
            "var b, i, x;"
            "b := 1; x := nondet(); i := 0;"
            "while (i < 10) { i := i + 1; }"
            "if (b == 0) { error; }"
            "if (x < 5) { b := 0; }"
        )
        table = classify_domain_types(cfa, components(cfa))
        assert table["b"] is DomainType.BOOLEAN
        assert table["i"] is DomainType.LOOP_COUNTER
        assert table["x"] is DomainType.INTEGER_OTHER

    def test_counter_needs_cycle_guard(self):
        # increment on a cycle whose guard never mentions the variable: not a
        # loop counter
        cfa = load_cfa(
            "var i, k; k := 0; i := 0;"
            "while (k < 3) { i := i + 1; k := k + 1; }"
        )
        table = classify_domain_types(cfa, components(cfa))
        assert table["k"] is DomainType.LOOP_COUNTER
        assert table["i"] is DomainType.INTEGER_OTHER

    def test_counter_rule_is_per_loop(self):
        # i is incremented in the first loop and only compared in the second:
        # no single cycle both updates and guards it
        cfa = load_cfa(
            "var i, j; i := 0; j := 0;"
            "while (j < 3) { i := i + 1; j := j + 1; }"
            "while (i < 10) { j := j + 1; }"
        )
        table = classify_domain_types(cfa, components(cfa))
        assert table["j"] is DomainType.LOOP_COUNTER
        assert table["i"] is DomainType.INTEGER_OTHER

    def test_boolean_copy_chain(self):
        cfa = load_cfa("var p, q; p := 1; q := p; if (q != 0) { p := 0; }")
        table = classify_domain_types(cfa, components(cfa))
        assert table["p"] is DomainType.BOOLEAN
        assert table["q"] is DomainType.BOOLEAN

    def test_arithmetic_use_disqualifies_boolean(self):
        cfa = load_cfa("var b; b := 1; if (b < 2) { b := 0; }")
        assert classify_domain_types(cfa, components(cfa))["b"] is DomainType.INTEGER_OTHER

    def test_every_variable_classified(self):
        cfa = load_cfa("var a, b, c; a := 1;")
        assert set(classify_domain_types(cfa, components(cfa))) == {"a", "b", "c"}

    def test_long_loop_body(self):
        body = " ".join("x := x + %d;" % k for k in range(3000))
        cfa = load_cfa("var i, x; i := 0; while (i < 5) { %s i := i + 1; }" % body)
        assert classify_domain_types(cfa, components(cfa))["i"] is DomainType.LOOP_COUNTER


def reachable(succ, start):
    seen, todo = {start}, [start]
    while todo:
        for nxt in succ[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


graphs = st.integers(1, 12).flatmap(
    lambda n: st.lists(st.sets(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n)
).map(lambda rows: dict(enumerate(rows)))


@given(graphs)
def test_components_are_mutual_reachability_classes(succ):
    cfa = ControlFlowAutomaton(
        locations=tuple(succ),
        initial=0,
        error=None,
        edges=tuple((u, NOOP, v) for u, vs in succ.items() for v in sorted(vs)),
        variables=(),
    )
    reach_of = {u: reachable(succ, u) for u in succ}
    expected = {frozenset(v for v in reach_of[u] if u in reach_of[v]) for u in succ}
    _, component = depth_first_search(cfa)
    found = {}
    for loc, name in component.items():
        found.setdefault(name, set()).add(loc)
    assert set(component) == set(succ)
    assert all(name in members for name, members in found.items())
    assert {frozenset(c) for c in found.values()} == expected


class TestReversePostorder:
    @given(st.integers(0, 30), st.integers(0, 300))
    def test_rank_grows_except_on_back_edges(self, seed, index):
        cfa = load_cfa(random_program(seed, index))
        rank, _ = depth_first_search(cfa)
        assert sorted(rank.values()) == list(range(len(cfa.locations)))
        assert rank[cfa.initial] == 0
        succ = {l: [dst for _, dst in cfa.out_edges(l)] for l in cfa.locations}
        for src, _, dst in cfa.edges:
            # an edge that does not raise the rank closes a cycle
            assert rank[src] < rank[dst] or src in reachable(succ, dst)

    def test_unreachable_locations_are_ranked(self):
        cfa = ControlFlowAutomaton(
            locations=(0, 1, 2, 3),
            initial=1,
            error=None,
            edges=((1, NOOP, 2), (0, NOOP, 3)),
            variables=(),
        )
        rank, _ = depth_first_search(cfa)
        assert sorted(rank.values()) == [0, 1, 2, 3]
        assert rank[1] < rank[2] and rank[0] < rank[3]

    def test_long_chain(self):
        body = " ".join("x := %d;" % k for k in range(3000))
        cfa = load_cfa("var x; %s" % body)
        rank, _ = depth_first_search(cfa)
        assert all(rank[src] + 1 == rank[dst] for src, _, dst in cfa.edges)


def live_by_search(cfa, x, start):
    """Reference liveness: a search over locations from ``start`` that never
    crosses an edge killing x reaches an edge that reads x."""
    seen, todo = {start}, [start]
    while todo:
        for op, dst in cfa.out_edges(todo.pop()):
            if isinstance(op, AssignNondet):
                reads, kills = False, op.var == x
            elif isinstance(op, Assign):
                reads = x in tree_variables(op.expr)
                kills = op.var == x and not reads
            else:
                reads, kills = x in tree_variables(op.pred), False
            if reads:
                return True
            if not kills and dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return False


class TestLiveRanges:
    def test_deadline_read_after_first_stride(self):
        # fewer search steps than one stride: the clock is never read
        assert live_locations(load_cfa(fig2_program(10)), deadline=0.0)
        with pytest.raises(LimitReached) as exc:
            live_locations(load_cfa(reversed_chain(200)), deadline=0.0)
        assert exc.value.reason == "timeout"

    @given(st.integers(0, 30), st.integers(0, 300), st.data())
    def test_match_reference_search(self, seed, index, data):
        cfa = load_cfa(random_program(seed, index))
        live = live_locations(cfa)
        assert set(live) == set(cfa.variables)
        for x in cfa.variables:
            assert live[x] == {l for l in cfa.locations if live_by_search(cfa, x, l)}
        pairs = data.draw(
            st.lists(st.tuples(st.sampled_from(cfa.locations), st.sampled_from(cfa.variables)))
        )
        tracked = {}
        for l, x in pairs:
            tracked[l] = tracked.get(l, frozenset()) | {x}
        per_path = Precision(tracked)
        succ = {l: [dst for _, dst in cfa.out_edges(l)] for l in cfa.locations}
        expected = set(pairs) | {
            (m, x)
            for l, x in pairs
            for m in reachable(succ, l)
            if live_by_search(cfa, x, m)
        }
        widened = widen_to_live_ranges(per_path, cfa, live)
        assert {(l, x) for l, names in widened.tracked.items() for x in names} == expected


def seq_over(*variables):
    entries = tuple(
        (pos, pos + 1, Assignment({x: 0})) for pos, x in enumerate(variables)
    )
    return InterpolantSequence(entries)


TABLE = {
    "b": DomainType.BOOLEAN,
    "x": DomainType.INTEGER_OTHER,
    "i": DomainType.LOOP_COUNTER,
}


class TestScoring:
    def test_boolean_weight(self):
        assert score_interpolant_sequence(seq_over("b"), TABLE) == 1

    def test_loop_counter_weight(self):
        assert score_interpolant_sequence(seq_over("i"), TABLE) == 100

    def test_sum_of_distinct_weights(self):
        assert score_interpolant_sequence(seq_over("b", "x", "b"), TABLE) == 11


class TestChoose:
    def test_domain_type_prefers_boolean(self):
        seqs = [seq_over("i"), seq_over("b")]
        assert choose_sliced_prefix(seqs, Heuristic.DOMAIN_TYPE, TABLE) == 1

    def test_shortest_takes_first(self):
        seqs = [seq_over("i"), seq_over("b")]
        assert choose_sliced_prefix(seqs, Heuristic.PREFIX_SHORTEST, TABLE) == 0

    def test_longest_takes_last(self):
        seqs = [seq_over("i"), seq_over("b")]
        assert choose_sliced_prefix(seqs, Heuristic.PREFIX_LONGEST, TABLE) == 1

    def test_tie_breaks_toward_longest(self):
        seqs = [seq_over("b"), seq_over("b")]
        assert choose_sliced_prefix(seqs, Heuristic.DOMAIN_TYPE, TABLE) == 1

    def test_empty_is_contract_error(self):
        with pytest.raises(ValueError):
            choose_sliced_prefix([], Heuristic.DOMAIN_TYPE, TABLE)


class TestRefineSelecting:
    def test_family_path_domain_type_tracks_only_flag(self):
        cfa, path = first_spurious_path(fig2_program(10))
        table = classify_domain_types(cfa, components(cfa))
        result = refine_selecting(
            path, extract_sliced_prefixes(path), Heuristic.DOMAIN_TYPE, table
        )
        tracked = set()
        for loc in cfa.locations:
            tracked |= result.precision.at(loc)
        assert tracked == {"b"}
        assert result.chosen_score == 1

    def test_shortest_on_two_reason_path(self):
        table = {"x": DomainType.INTEGER_OTHER, "y": DomainType.INTEGER_OTHER}
        result = refine_selecting(
            TWO_REASONS,
            extract_sliced_prefixes(TWO_REASONS),
            Heuristic.PREFIX_SHORTEST,
            table,
        )
        assert result.precision.at(1) == {"x"}
        assert result.chosen_index == 0

    def test_classic_heuristic_bypasses_selection(self):
        table = {"x": DomainType.INTEGER_OTHER, "y": DomainType.INTEGER_OTHER}
        prefixes = extract_sliced_prefixes(TWO_REASONS)
        selecting = refine_selecting(TWO_REASONS, prefixes, Heuristic.CLASSIC, table)
        seq, calls = interpolant_sequence(TWO_REASONS)
        tracked = {}
        for _, loc, gamma in seq.entries:
            names = frozenset() if gamma is BOTTOM else frozenset(gamma)
            if names:
                tracked[loc] = tracked.get(loc, frozenset()) | names
        assert selecting.precision == Precision(tracked)
        assert selecting.interpolation_calls == calls
        assert selecting.chosen_index is None

    def test_single_prefix_matches_classic(self, spurious_sample):
        # a sliced prefix has exactly one contradiction, at its final assume,
        # so it is its own sole prefix and selection degenerates to the plain
        # whole-path refinement
        checked = 0
        for path, _, variables in spurious_sample:
            prefix = extract_sliced_prefixes(path)[0]
            single = extract_sliced_prefixes(prefix)
            assert single == [prefix]
            table = {x: DomainType.INTEGER_OTHER for x in variables}
            selecting = refine_selecting(prefix, single, Heuristic.DOMAIN_TYPE, table)
            classic = refine_selecting(prefix, single, Heuristic.CLASSIC, table)
            assert selecting.precision == classic.precision
            checked += 1
            if checked >= 10:
                break
        assert checked > 0

    @pytest.mark.parametrize("heuristic", list(Heuristic))
    def test_no_prefix_is_contract_error(self, heuristic):
        # a feasible path has no sliced prefix and nothing to refine
        with pytest.raises(ValueError):
            path = mkpath((assign("x", 0), 1), (assume_cmp("x", "==", 0), 2))
            refine_selecting(path, [], heuristic, {})

    def test_deterministic(self):
        table = {"x": DomainType.INTEGER_OTHER, "y": DomainType.INTEGER_OTHER}
        prefixes = extract_sliced_prefixes(TWO_REASONS)
        a = refine_selecting(TWO_REASONS, prefixes, Heuristic.DOMAIN_TYPE, table)
        b = refine_selecting(TWO_REASONS, prefixes, Heuristic.DOMAIN_TYPE, table)
        assert a.precision == b.precision and a.chosen_index == b.chosen_index


class TestProgress:
    @pytest.mark.parametrize("heuristic", list(Heuristic))
    def test_all_heuristics_exclude_the_path(self, heuristic, spurious_sample):
        for path, _, variables in spurious_sample[:30]:
            table = {x: DomainType.INTEGER_OTHER for x in variables}
            prefixes = extract_sliced_prefixes(path)
            result = refine_selecting(path, prefixes, heuristic, table)
            assert check_refinement_progress(path, result.precision)

    def test_argmin_correctness(self, spurious_sample):
        for path, _, variables in spurious_sample[:30]:
            prefixes = extract_sliced_prefixes(path)
            table = {x: DomainType.INTEGER_OTHER for x in variables}
            seqs = [interpolant_sequence(p)[0] for p in prefixes]
            chosen = choose_sliced_prefix(seqs, Heuristic.DOMAIN_TYPE, table)
            best = score_interpolant_sequence(seqs[chosen], table)
            assert all(
                best <= score_interpolant_sequence(s, table) for s in seqs
            )


class TestPrecision:
    def test_union_is_pointwise_monotone(self):
        a = Precision({1: frozenset({"x"})})
        b = Precision({1: frozenset({"y"}), 2: frozenset({"z"})})
        merged = a.union(b)
        assert merged.at(1) == {"x", "y"} and merged.at(2) == {"z"}
        assert a.union(b).at(1) >= a.at(1)

    def test_default_empty(self):
        assert Precision().at(42) == frozenset()
