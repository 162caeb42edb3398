from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from prefixselect.lang import (
    And,
    Assign,
    AssignNondet,
    Assume,
    BinaryOp,
    BoolLit,
    Comparison,
    IntLit,
    NOOP,
    Or,
    VarRef,
    tree_variables,
)
from prefixselect.values import (
    BOTTOM,
    MAX_VALUE_BITS,
    TOP,
    Assignment,
    LimitReached,
    evaluate,
    implies,
    restrict,
    sp,
)

VARS = ["x", "y", "z"]

assignments = st.one_of(
    st.just(BOTTOM),
    st.dictionaries(st.sampled_from(VARS), st.integers(-5, 5), max_size=3).map(
        Assignment
    ),
)
nonbottom = st.dictionaries(
    st.sampled_from(VARS), st.integers(-5, 5), max_size=3
).map(Assignment)

exprs = st.recursive(
    st.one_of(
        st.integers(-5, 5).map(IntLit), st.sampled_from(VARS).map(VarRef)
    ),
    lambda inner: st.builds(
        BinaryOp, st.sampled_from(["+", "-", "*", "/", "%"]), inner, inner
    ),
    max_leaves=5,
)

comparisons = st.builds(
    Comparison, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), exprs, exprs
)
preds = st.recursive(
    st.one_of(st.booleans().map(BoolLit), comparisons),
    lambda inner: st.one_of(st.builds(And, inner, inner), st.builds(Or, inner, inner)),
    max_leaves=4,
)

equalities = st.builds(
    lambda x, e, flip: Comparison("==", *((e, VarRef(x)) if flip else (VarRef(x), e))),
    st.sampled_from(VARS),
    exprs,
    st.booleans(),
)
# conjunctions of equalities exercise the bindings an assume forces
forcing_preds = st.recursive(
    st.one_of(equalities, comparisons),
    lambda inner: st.builds(And, inner, inner),
    max_leaves=4,
)

operations = st.one_of(
    st.builds(Assign, st.sampled_from(VARS), exprs),
    st.sampled_from(VARS).map(AssignNondet),
    preds.map(Assume),
    forcing_preds.map(Assume),
)


def _conjuncts(p):
    if isinstance(p, And):
        return _conjuncts(p.left) + _conjuncts(p.right)
    return [p]


def conjoin(v, v2):
    """Conjunction, which ``reference_sp`` builds on: Bottom absorbs;
    disagreement on a shared variable is Bottom; otherwise the union of the
    maps."""
    if v is BOTTOM or v2 is BOTTOM:
        return BOTTOM
    merged = dict(v.items())
    for x, c in v2.items():
        if merged.setdefault(x, c) != c:
            return BOTTOM
    return Assignment(merged)


def reference_sp(op, v):
    """The strongest post as defined: drop the assigned variable with
    ``without``, then ``conjoin`` the new binding or the forced ones; an
    assume that is False under its forced bindings is Bottom."""
    if v is BOTTOM:
        return BOTTOM
    if isinstance(op, Assign):
        value = evaluate(op.expr, v)
        base = v.without((op.var,))
        return base if value is None else conjoin(base, Assignment({op.var: value}))
    if isinstance(op, AssignNondet):
        return v.without((op.var,))
    if evaluate(op.pred, v) is False:
        return BOTTOM
    forced = TOP
    for c in _conjuncts(op.pred):
        if not (isinstance(c, Comparison) and c.op == "=="):
            continue
        for var_side, other_side in ((c.left, c.right), (c.right, c.left)):
            if isinstance(var_side, VarRef) and var_side.name not in v:
                value = evaluate(other_side, v)
                if value is not None:
                    forced = conjoin(forced, Assignment({var_side.name: value}))
                    break
    post = conjoin(v, forced)
    if post is not BOTTOM and evaluate(op.pred, post) is False:
        return BOTTOM
    return post


class TestAssignment:
    @given(st.dictionaries(st.sampled_from(VARS), st.integers(-5, 5), max_size=3))
    def test_reads_match_dict(self, m):
        v = Assignment(m)
        assert dict(v.items()) == m and set(v.keys()) == set(m)
        assert all((x in v) == (x in m) for x in VARS)
        assert v.items_set == frozenset(m.items())
        assert hash(v) == hash(Assignment(dict(reversed(list(m.items())))))


class TestConjoin:
    def test_union_of_agreeing_maps(self):
        a = Assignment({"x": 1, "y": 2})
        b = Assignment({"y": 2, "z": 3})
        assert conjoin(a, b) == Assignment({"x": 1, "y": 2, "z": 3})

    def test_disagreement_is_bottom(self):
        assert conjoin(Assignment({"x": 1}), Assignment({"x": 2})) is BOTTOM

    def test_bottom_absorbs(self):
        assert conjoin(BOTTOM, TOP) is BOTTOM

    @given(assignments, assignments)
    def test_commutative(self, a, b):
        assert conjoin(a, b) == conjoin(b, a)

    @given(assignments, assignments, assignments)
    def test_associative(self, a, b, c):
        assert conjoin(conjoin(a, b), c) == conjoin(a, conjoin(b, c))

    @given(assignments)
    def test_idempotent_identity_absorbing(self, a):
        assert conjoin(a, a) == a
        assert conjoin(a, TOP) == a
        assert conjoin(a, BOTTOM) is BOTTOM

    @given(assignments, assignments)
    def test_conjunction_implies_both(self, a, b):
        c = conjoin(a, b)
        assert implies(c, a) and implies(c, b)


class TestImplies:
    def test_bottom_implies_anything(self):
        assert implies(BOTTOM, Assignment({"x": 1}))

    def test_superset_implies_subset(self):
        assert implies(Assignment({"x": 1, "y": 2}), Assignment({"x": 1}))

    def test_missing_binding_fails(self):
        assert not implies(Assignment({"x": 1}), Assignment({"x": 1, "y": 2}))

    @given(assignments)
    def test_reflexive(self, a):
        assert implies(a, a)

    @given(assignments, assignments, assignments)
    def test_transitive(self, a, b, c):
        if implies(a, b) and implies(b, c):
            assert implies(a, c)


class TestEval:
    def test_expr_with_binding(self):
        exp = BinaryOp("+", VarRef("x"), IntLit(3))
        assert evaluate(exp, Assignment({"x": 2})) == 5

    def test_expr_unbound_is_undefined(self):
        exp = BinaryOp("+", VarRef("x"), IntLit(3))
        assert evaluate(exp, TOP) is None

    def test_division_by_zero_undefined(self):
        assert evaluate(BinaryOp("/", IntLit(7), IntLit(0)), TOP) is None

    @pytest.mark.parametrize(
        "op,a,b,expected",
        [("/", 7, 2, 3), ("/", -7, 2, -3), ("%", -7, 2, -1), ("%", 7, -2, 1)],
    )
    def test_truncating_division(self, op, a, b, expected):
        assert evaluate(BinaryOp(op, IntLit(a), IntLit(b)), TOP) == expected

    def test_product_bound(self):
        square = BinaryOp("*", VarRef("x"), VarRef("x"))
        below = (1 << MAX_VALUE_BITS // 2) - 1
        assert evaluate(square, {"x": -below}).bit_length() == MAX_VALUE_BITS
        with pytest.raises(LimitReached) as exc:
            evaluate(square, {"x": below + 1})
        assert exc.value.reason == "value-limit"

    def test_pred_false(self):
        p = Comparison("<", VarRef("x"), IntLit(3))
        assert evaluate(p, Assignment({"x": 5})) is False

    def test_kleene_disjunction(self):
        p = Or(Comparison("<", VarRef("x"), IntLit(3)), BoolLit(True))
        assert evaluate(p, TOP) is True

    def test_unknown_when_unbound(self):
        p = Comparison("<", VarRef("x"), IntLit(3))
        assert evaluate(p, TOP) is None


class TestSp:
    def test_constant_assignment(self):
        assert sp(Assign("x", IntLit(5)), TOP) == Assignment({"x": 5})

    def test_forced_equality_binding(self):
        op = Assume(Comparison("==", VarRef("x"), IntLit(7)))
        assert sp(op, TOP) == Assignment({"x": 7})

    def test_forced_binding_reversed_and_var_copy(self):
        op = Assume(Comparison("==", IntLit(7), VarRef("x")))
        assert sp(op, TOP) == Assignment({"x": 7})
        copy = Assume(Comparison("==", VarRef("y"), VarRef("x")))
        assert sp(copy, Assignment({"x": 3})) == Assignment({"x": 3, "y": 3})

    def test_forced_binding_refutes_other_conjunct(self):
        # x == 6 forces x := 6, under which x <= 3 is False
        op = Assume(
            And(
                Comparison("==", VarRef("x"), IntLit(6)),
                Comparison("<=", VarRef("x"), IntLit(3)),
            )
        )
        assert sp(op, TOP) is BOTTOM
        assert sp(op, Assignment({"y": 1})) is BOTTOM

    def test_contradicting_assume(self):
        op = Assume(Comparison("<", VarRef("x"), IntLit(3)))
        assert sp(op, Assignment({"x": 5})) is BOTTOM

    def test_nondet_drops_binding(self):
        assert sp(AssignNondet("x"), Assignment({"x": 1, "y": 2})) == Assignment(
            {"y": 2}
        )

    def test_unevaluable_rhs_leaves_undefined(self):
        op = Assign("x", BinaryOp("+", VarRef("y"), IntLit(1)))
        assert sp(op, Assignment({"x": 9})) == TOP

    def test_noop_is_identity(self):
        v = Assignment({"x": 1})
        assert sp(NOOP, v) == v

    def test_bottom_stays_bottom(self):
        assert sp(Assign("x", IntLit(1)), BOTTOM) is BOTTOM

    @given(operations, assignments)
    def test_matches_reference(self, op, v):
        assert sp(op, v) == reference_sp(op, v)

    @given(operations, nonbottom)
    def test_unchanged_result_is_input(self, op, v):
        post = sp(op, v)
        if post == v:
            assert post is v

    @given(operations, nonbottom, st.sets(st.sampled_from(VARS)))
    def test_abstraction_monotone(self, op, v, tracked):
        post = sp(op, v)
        assert implies(post, restrict(post, tracked))

    @given(operations, nonbottom, nonbottom)
    def test_monotone(self, op, v, extra):
        # if a implies b, then sp(op, a) implies sp(op, b); interpolation
        # sequences keep an interpolant without calling the engine on this
        stronger = Assignment({**extra, **v})
        assert implies(stronger, v)
        assert implies(sp(op, stronger), sp(op, v))

    @given(preds, nonbottom)
    def test_assume_invents_no_bindings(self, p, v):
        post = sp(Assume(p), v)
        if post is not BOTTOM:
            assert set(post) <= set(v) | tree_variables(p)

    @given(forcing_preds, nonbottom)
    def test_post_does_not_refute_its_assume(self, p, v):
        post = sp(Assume(p), v)
        assert post is BOTTOM or evaluate(p, post) is not False

    @given(preds, nonbottom)
    def test_false_predicate_iff_bottom_when_defined(self, p, v):
        post = sp(Assume(p), v)
        if evaluate(p, v) is False:
            assert post is BOTTOM
        if tree_variables(p) <= set(v) and post is BOTTOM:
            assert evaluate(p, v) is False


class TestRestrict:
    def test_keeps_tracked(self):
        assert restrict(Assignment({"x": 1, "y": 2}), {"x"}) == Assignment({"x": 1})

    def test_top_stays_top(self):
        assert restrict(TOP, {"x"}) == TOP

    def test_bottom_stays_bottom(self):
        assert restrict(BOTTOM, set()) is BOTTOM

    @given(nonbottom, st.sets(st.sampled_from(VARS)))
    def test_matches_filter(self, v, tracked):
        out = restrict(v, tracked)
        assert out == Assignment({x: c for x, c in v.items() if x in tracked})
        if set(v) <= tracked:
            assert out is v

