from __future__ import annotations

import copy
import pickle
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    INT_DIGITS,
    assign,
    assign_expr,
    assume_cmp,
    call_at_depth,
    needs_digit_limit,
)
from test_values import VARS, nonbottom
from prefixselect.frontend import MAX_DEPTH, ParseError, cfa_to_dot, load_cfa
from prefixselect.engine import Limits, cegar
from prefixselect.generators import (
    checks_program,
    fig2_program,
    random_program,
    wide_flags_program,
)
from prefixselect.lang import (
    And,
    Assign,
    AssignNondet,
    Assume,
    BinaryOp,
    BoolLit,
    Comparison,
    IntLit,
    Negate,
    NOOP,
    Not,
    Or,
    TRUE,
    VarRef,
    render_tree,
)
from prefixselect.paths import Path
from prefixselect.refinement import Heuristic
from prefixselect.values import Assignment, evaluate

FIG2 = (
    "var b,i; b := 1; i := 0; "
    "while (i < 1000) { i := i + 1; } "
    "if (b == 0) { error; }"
)

X1, X2, X3 = (Comparison("==", VarRef("x"), IntLit(k)) for k in (1, 2, 3))

# predicates that open with a bracket, rendered or not
BRACKETED = [
    "(x + 1) * 2 == 3 && !((y)) >= -x",
    "!(x) < 1",
    "((x == 1)) || (x) == (y)",
    "!!(x < y) && (-(x + 1) <= (y) % 2 || false)",
    "(((x + y) * z)) / (2) != (x)",
]

exprs = st.recursive(
    st.one_of(st.integers(0, 5).map(IntLit), st.sampled_from(VARS).map(VarRef)),
    lambda inner: st.one_of(
        inner.map(Negate),
        st.builds(BinaryOp, st.sampled_from(["+", "-", "*", "/", "%"]), inner, inner),
    ),
    max_leaves=5,
)
# a sum under a product renders in brackets
bracketed_exprs = st.builds(
    BinaryOp,
    st.sampled_from(["*", "/", "%"]),
    st.builds(BinaryOp, st.sampled_from(["+", "-"]), exprs, exprs),
    exprs,
)
comparisons = st.builds(
    Comparison,
    st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    st.one_of(exprs, bracketed_exprs),
    exprs,
)
preds = st.recursive(
    st.one_of(st.booleans().map(BoolLit), comparisons),
    lambda inner: st.one_of(
        inner.map(Not), st.builds(And, inner, inner), st.builds(Or, inner, inner)
    ),
    max_leaves=5,
)


TOO_DEEP = r"nested too deeply \(depth above %d\)" % MAX_DEPTH


def assume_not(x: str, op: str, c: int) -> Assume:
    return Assume(Not(Comparison(op, VarRef(x), IntLit(c))))


def first_op(source):
    """The operation on the first edge of the automaton of ``source``."""
    return load_cfa(source).edges[0][1]


def run_every_pass(source):
    cfa = load_cfa(source)
    cfa_to_dot(cfa)
    for heuristic in Heuristic:
        cegar(cfa, heuristic)


# The depth rule's reference: a formula is a list of source text and
# subformulas, and each list is one level, a pair of brackets included.


def reference_height(formula) -> int:
    height, stack = 0, [(formula, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        stack += [(part, level + 1) for part in node if isinstance(part, list)]
    return height


def reference_text(formula) -> str:
    out, stack = [], [formula]
    while stack:
        part = stack.pop()
        if isinstance(part, str):
            out.append(part)
        else:
            stack += reversed(part)
    return "".join(out)


def _wrap(n, inner, wrap):
    for _ in range(n):
        inner = wrap(inner)
    return inner


X, ONE = ["x"], ["1"]
#: name -> (formula of ``n`` steps, levels per step, whether it is a predicate)
SHAPES = {
    "left-chain": (lambda n: _wrap(n - 1, X, lambda f: [f, " + ", X]), 1, False),
    "right-brackets": (lambda n: _wrap(n, X, lambda f: [X, " - ", ["(", f, ")"]]), 2, False),
    "not-run": (lambda n: _wrap(n, [X, " == ", ONE], lambda f: ["!", f]), 1, True),
    "minus-run": (lambda n: _wrap(n, X, lambda f: ["-", f]), 1, False),
    "bare-brackets": (lambda n: _wrap(n, X, lambda f: ["(", f, ")"]), 1, False),
    # a chain in brackets in a chain: the parser reads each chain in a loop
    "bracketed-chains": (lambda n: _wrap(n, X, lambda f: [["(", f, ")"], " + ", X]), 2, False),
    "not-brackets": (
        lambda n: _wrap(n, [X, " == ", ONE], lambda f: ["!", ["(", f, ")"]]), 2, True
    ),
}


def nested_program(blocks, formula, is_predicate):
    """``formula`` in one statement inside ``blocks`` nested ``if (x == 0)``,
    and where the reference rejects it: the column of the formula of the
    first statement deeper than MAX_DEPTH, or None."""
    cond = [X, " == ", ["0"]]
    text = "var x; x := 0; "
    columns = []  # (depth, column of the formula) of each statement
    for k in range(blocks):
        columns.append((k + reference_height(cond), len(text) + len("if (") + 1))
        text += "if (%s) { " % reference_text(cond)
    head = "assume(" if is_predicate else "x := "
    columns.append((blocks + reference_height(formula), len(text) + len(head) + 1))
    text += "%s%s%s error;%s" % (
        head, reference_text(formula), ");" if is_predicate else ";", " }" * blocks
    )
    too_deep = [column for depth, column in columns if depth > MAX_DEPTH]
    return text, too_deep[0] if too_deep else None


def parse_and_check(source, heuristic):
    try:
        cfa = load_cfa(source)
    except ParseError as exc:
        return str(exc)
    verdict, stats = cegar(cfa, heuristic)
    return verdict.render(), stats.states_created, stats.refinements


class TestParse:
    def test_declaration_and_assignment(self):
        cfa = load_cfa("var x; x := 1;")
        assert cfa.variables == ("x",)
        assert cfa.edges == ((0, Assign("x", IntLit(1)), 1),)

    def test_undeclared_variable(self):
        with pytest.raises(ParseError, match="undeclared variable 'y'"):
            load_cfa("var x; x := y;")

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError, match="duplicate declaration"):
            load_cfa("var x, x;")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            load_cfa("var x;\nx : = 1;")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "source, error",
        [
            ("var x;\nx : = 1;", "2:3: unexpected character ':'"),
            ("var x; // c\nx := 1 // trailing", "2:19: expected ';', found '<eof>'"),
            ("var x;\r\nx := 1;\r\n\tx := #;", "3:7: unexpected character '#'"),
            ("var x, x;", "1:8: duplicate declaration of 'x'"),
            ("var x;\n  x := y;", "2:8: undeclared variable 'y'"),
            ("var x;\nif (x == 1) {\n  x := 2;\n", "4:1: unterminated block"),
            ("var x;\nassume((x < 1) == 1);", "2:16: expected ')', found '=='"),
            ("var x; assume((x == y));", "1:21: undeclared variable 'y'"),
            pytest.param(
                "var x; x := \u0663\u0663; if (x == 33) { error; }",
                "1:13: unexpected character '\u0663'",
                id="non-ascii-digits",
            ),
            pytest.param(
                "var x; assume((x == %s));" % ("9" * (INT_DIGITS + 1)),
                "1:21: integer literal too long",
                marks=needs_digit_limit,
                id="long-literal-in-parenthesized-comparison",
            ),
        ],
    )
    def test_error_message_and_position(self, source, error):
        with pytest.raises(ParseError) as exc:
            load_cfa(source)
        assert str(exc.value) == error
        line, col, _ = error.split(":", 2)
        assert (exc.value.line, exc.value.col) == (int(line), int(col))

    def test_longest_convertible_literal(self):
        digits = "9" * (INT_DIGITS or 4300)
        assert first_op("var x; x := %s;" % digits) == Assign("x", IntLit(int(digits)))

    @needs_digit_limit
    def test_literal_too_long(self):
        with pytest.raises(ParseError) as exc:
            load_cfa("var x;\nx := -%s;" % ("9" * (INT_DIGITS + 1)))
        assert str(exc.value) == "2:7: integer literal too long"

    def test_flag_loop_program(self):
        cfa = load_cfa(FIG2)
        assert cfa.variables == ("b", "i")
        kinds = [type(op).__name__ for _, op, _ in cfa.edges]
        assert kinds == ["Assign", "Assign"] + ["Assume"] * 2 + ["Assign"] + ["Assume"] * 4

    def test_comments_and_nondet(self):
        assert load_cfa("var x; // comment\nx := nondet(); // more\n").edges == (
            (0, AssignNondet("x"), 1),
        )

    def test_operator_precedence(self):
        assert first_op("var x; x := 1 + 2 * 3;") == Assign(
            "x", BinaryOp("+", IntLit(1), BinaryOp("*", IntLit(2), IntLit(3)))
        )

    def test_predicate_grammar(self):
        x, y = VarRef("x"), VarRef("y")
        assert first_op("var x, y; assume((x == 0 || y > 1) && !(x != y));") == Assume(
            And(
                Or(Comparison("==", x, IntLit(0)), Comparison(">", y, IntLit(1))),
                Not(Comparison("!=", x, y)),
            )
        )

    # a right-nested chain keeps its brackets
    @example(Or(X1, Or(X2, X3)), Assignment({"x": 2}))
    @example(And(X1, And(X2, X3)), Assignment({"x": 1}))
    @given(preds, nonbottom)
    def test_roundtrip_generated_predicates(self, p, v):
        text = render_tree(p)
        parsed = first_op("var x, y, z; assume(%s);" % text).pred
        assert parsed == p
        assert render_tree(parsed) == text
        assert evaluate(parsed, v) is evaluate(p, v)

    def test_bracketed_operands(self):
        x, y, one = VarRef("x"), VarRef("y"), IntLit(1)
        assert first_op("var x, y; assume(%s);" % BRACKETED[0]).pred == And(
            Comparison("==", BinaryOp("*", BinaryOp("+", x, one), IntLit(2)), IntLit(3)),
            Not(Comparison(">=", y, Negate(x))),
        )
        # ! reads a comparison
        assert first_op("var x, y; assume(!x == 1 && y == 2);").pred == And(
            Not(Comparison("==", x, one)), Comparison("==", y, IntLit(2))
        )

    def test_parser_never_backtracks(self, monkeypatch):
        built = []
        init = ParseError.__init__

        def counting_init(error, *args):
            built.append(args)
            init(error, *args)

        monkeypatch.setattr(ParseError, "__init__", counting_init)
        sources = [FIG2] + [random_program(3, i) for i in range(12)]
        sources += ["var x, y, z; assume(%s);" % p for p in BRACKETED]
        for source in sources:
            load_cfa(source)
        assert built == []


class TestBuildCfa:
    def test_branch_edges(self):
        cfa = load_cfa("var x; x := 0; if (x == 0) { x := 1; }")
        guard = Comparison("==", VarRef("x"), IntLit(0))
        sources = [
            src
            for src, op, _ in cfa.edges
            if op in (Assume(guard), Assume(Not(guard)))
        ]
        assert len(sources) == 2 and sources[0] == sources[1]

    def test_no_error_statement(self):
        cfa = load_cfa("var x; x := 0;")
        assert cfa.error is None

    def test_single_error_location(self):
        cfa = load_cfa(
            "var x; x := nondet(); if (x == 0) { error; } if (x == 1) { error; }"
        )
        error_edges = [dst for _, op, dst in cfa.edges if dst == cfa.error]
        assert cfa.error is not None and len(error_edges) == 2

    def test_flag_loop_structure(self):
        # hand-constructed expected automaton for the bound-10 family program
        cfa = load_cfa(fig2_program(10))
        guard = Comparison("<", VarRef("i"), IntLit(10))
        flag = Comparison("==", VarRef("b"), IntLit(0))
        inc = Assign("i", BinaryOp("+", VarRef("i"), IntLit(1)))
        expected = (
            (0, Assign("b", IntLit(1)), 2),
            (2, Assign("i", IntLit(0)), 3),
            (3, NOOP, 5),
            (5, Assume(guard), 6),
            (6, inc, 5),
            (5, Assume(Not(guard)), 4),
            (4, Assume(flag), 7),
            (7, NOOP, 8),
            (4, Assume(Not(flag)), 1),
        )
        assert cfa.edges == expected
        assert cfa.initial == 0 and cfa.error == 8

    def test_loop_back_edge_through_increment(self):
        cfa = load_cfa(FIG2)
        inc = Assign("i", BinaryOp("+", VarRef("i"), IntLit(1)))
        back = [(src, dst) for src, op, dst in cfa.edges if op == inc]
        assert len(back) == 1
        _, head = back[0]
        head_ops = [op for op, _ in cfa.out_edges(head)]
        assert all(isinstance(op, Assume) for op in head_ops)

    def test_initial_has_no_incoming_edge(self):
        cfa = load_cfa("var i; i := 0; while (i < 3) { i := i + 1; }")
        assert all(dst != cfa.initial for _, _, dst in cfa.edges)

    def test_all_locations_reachable(self):
        cfa = load_cfa(FIG2)
        seen = {cfa.initial}
        frontier = [cfa.initial]
        while frontier:
            loc = frontier.pop()
            for _, dst in cfa.out_edges(loc):
                if dst not in seen:
                    seen.add(dst)
                    frontier.append(dst)
        assert seen == set(cfa.locations)

    def test_dead_code_pruned(self):
        with_dead = load_cfa("var x; x := 0; error; x := 1; x := 2;")
        without = load_cfa("var x; x := 0; error;")
        assert len(with_dead.locations) == len(without.locations)

    @pytest.mark.parametrize(
        "source",
        # comparing the automata of the deepest nesting does not recurse per block
        [FIG2, "var x; %sx := 1;%s" % ("if (x == 0) { " * 255, " }" * 255)],
        ids=["flag-loop", "255-blocks"],
    )
    def test_deterministic(self, source):
        assert load_cfa(source) == load_cfa(source)

    # Every statement of a block ends at a fresh location, and the last one's
    # end is merged into the block's exit.  The expected automata are those of
    # the earlier two-pass builder, which sent the last statement straight to
    # the exit.
    @pytest.mark.parametrize(
        "source, edges, initial, error",
        [
            pytest.param(
                "var x; while (x < 3) { x := x + 1; if (x == 1) { x := 2; } }",
                (
                    (0, NOOP, 2),
                    (2, assume_cmp("x", "<", 3), 3),
                    (3, assign_expr("x", "x", "+", 1), 4),
                    (4, assume_cmp("x", "==", 1), 5),
                    (5, assign("x", 2), 2),
                    (4, assume_not("x", "==", 1), 2),
                    (2, assume_not("x", "<", 3), 1),
                ),
                0,
                None,
                id="if-last-in-loop",
            ),
            pytest.param(
                "var x; if (x == 0) { x := 1; if (x == 1) { x := 2; } } "
                "else { if (x == 2) { x := 3; } }",
                (
                    (0, assume_cmp("x", "==", 0), 2),
                    (2, assign("x", 1), 3),
                    (3, assume_cmp("x", "==", 1), 4),
                    (4, assign("x", 2), 1),
                    (3, assume_not("x", "==", 1), 1),
                    (0, assume_not("x", "==", 0), 5),
                    (5, assume_cmp("x", "==", 2), 6),
                    (6, assign("x", 3), 1),
                    (5, assume_not("x", "==", 2), 1),
                ),
                0,
                None,
                id="nested-if-last-in-both-arms",
            ),
            pytest.param(
                "var x; if (x == 0) { } else { } x := 1;",
                (
                    (0, assume_cmp("x", "==", 0), 2),
                    (0, assume_not("x", "==", 0), 2),
                    (2, assign("x", 1), 1),
                ),
                0,
                None,
                id="empty-arms",
            ),
            pytest.param(
                "var x; while (x < 1) { } x := 2;",
                (
                    (0, NOOP, 3),
                    (3, assume_cmp("x", "<", 1), 3),
                    (3, assume_not("x", "<", 1), 2),
                    (2, assign("x", 2), 1),
                ),
                0,
                None,
                id="empty-loop",
            ),
            pytest.param(
                "var x; if (x == 0) { x := 1; error; } x := 2;",
                (
                    (0, assume_cmp("x", "==", 0), 3),
                    (3, assign("x", 1), 4),
                    (4, NOOP, 5),
                    (0, assume_not("x", "==", 0), 2),
                    (2, assign("x", 2), 1),
                ),
                0,
                5,
                id="error-last",
            ),
            pytest.param(
                "var x; x := 0; error; x := 1; x := 2;",
                (
                    (0, assign("x", 0), 1),
                    (1, NOOP, 2),
                ),
                0,
                2,
                id="error-then-dead-code",
            ),
            pytest.param(
                "",
                (),
                0,
                None,
                id="empty-program",
            ),
            pytest.param(
                "var x, y;",
                (),
                0,
                None,
                id="declarations-only",
            ),
        ],
    )
    def test_merged_ends(self, source, edges, initial, error):
        cfa = load_cfa(source)
        assert (cfa.edges, cfa.initial, cfa.error) == (edges, initial, error)

    @pytest.mark.parametrize(
        "source",
        [
            # 3000 brackets: rejected on the way down, before the parser's
            # recursion can exhaust the stack
            "var x; x := %s1%s;" % ("(" * 3000, ")" * 3000),
            # and so are right operands, ! and unary -
            "var x; assume(%sx == 1%s);" % ("x == 1 || (" * 1500, ")" * 1500),
            "var x; assume(%sx == 1%s);" % ("!(" * 1500, ")" * 1500),
            "var x; x := %s1%s;" % ("1 - -(" * 1500, ")" * 1500),
            # 400 nested blocks: rejected at the condition of the 256th
            "var x; %sx := 1;%s" % ("if (x == 0) { " * 400, " }" * 400),
        ],
        ids=["parentheses", "or-brackets", "not-brackets", "minus-brackets", "blocks"],
    )
    def test_deep_nesting_is_parse_error(self, source):
        with pytest.raises(ParseError, match="nested too deeply"):
            load_cfa(source)

    @pytest.mark.parametrize(
        "program, column",
        [
            # each builds a tree of depth d in one statement; the column is
            # where the tree starts
            (lambda d: "var x; x := %s;" % " + ".join(["x"] * d), 13),
            (lambda d: "var x; x := %s1;" % ("-" * (d - 1)), 13),
            (lambda d: "var x; assume(%s);" % " && ".join(["x == 1"] * (d - 1)), 15),
            (lambda d: "var x; if (%sx == 1) { x := 1; }" % ("!" * (d - 2)), 12),
            (lambda d: "var x; while (%s) { x := 0; }" % " || ".join(["x > 0"] * (d - 1)), 15),
            # ((x + x) + x) + ...: the parser reads each chain in a loop
            (
                lambda d: "var x; x := %s%sx%s;"
                % ("-" * ((d - 1) % 2), "(" * ((d - 1) // 2), " + x)" * ((d - 1) // 2)),
                13,
            ),
            # d - 1 nested blocks around x := 1; the column is the condition of
            # the 256th block, whose comparison (height 2) is one level too deep
            (
                lambda d: "var x; %sx := 1;%s" % ("if (x == 0) { " * (d - 1), " }" * (d - 1)),
                len("var x; ") + len("if (x == 0) { ") * (MAX_DEPTH - 1) + len("if (") + 1,
            ),
            # 128 blocks around a sum of d - 128 terms
            (
                lambda d: "var x; %sx := %s;%s"
                % ("if (true) { " * 128, " + ".join(["x"] * (d - 128)), " }" * 128),
                len("var x; ") + len("if (true) { ") * 128 + len("x := ") + 1,
            ),
        ],
        ids=[
            "sum", "negation", "conjunction", "not", "loop-condition", "brackets",
            "blocks", "mixed",
        ],
    )
    def test_depth_bound(self, program, column):
        # at the bound every pass fits the stack of a caller 200 frames deep
        call_at_depth(200, run_every_pass, program(MAX_DEPTH))
        too_deep = program(MAX_DEPTH + 1)
        for load in (load_cfa, lambda source: call_at_depth(200, load_cfa, source)):
            with pytest.raises(ParseError, match=TOO_DEEP) as exc:
                load(too_deep)
            assert (exc.value.line, exc.value.col) == (1, column)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(SHAPES)),
        st.integers(0, MAX_DEPTH + 2),
        st.integers(-3, 3),
        st.sampled_from(list(Heuristic)),
    )
    def test_depth_rule(self, shape, blocks, excess, heuristic):
        build, step, is_predicate = SHAPES[shape]
        formula = build(max(1, (MAX_DEPTH - blocks + excess) // step))
        source, column = nested_program(blocks, formula, is_predicate)
        result = parse_and_check(source, heuristic)
        assert call_at_depth(200, parse_and_check, source, heuristic) == result
        if column is None:
            assert isinstance(result, tuple)
        else:
            assert result == "1:%d: nested too deeply (depth above %d)" % (column, MAX_DEPTH)

    def test_assume_statement(self):
        cfa = load_cfa("var x; assume(x > 0);")
        assert any(isinstance(op, Assume) for _, op, _ in cfa.edges)


class TestBlockEdges:
    def test_block_edges_partition_the_edges(self):
        # heads are the initial and error locations and every location whose
        # in-degree or out-degree is not 1; the block edges from them, each
        # ending at its first head, hold every edge exactly once
        sources = [random_program(seed, i) for seed in range(1, 6) for i in range(60)]
        sources += [fig2_program(n) for n in (10, 100, 300)]
        sources += [wide_flags_program(k) for k in (6, 7, 8)]
        sources += [checks_program(n) for n in (1, 10)]
        sources += ["", "var x; x := 1;", "var x; error;"]
        for source in sources:
            cfa = load_cfa(source)
            indegree = Counter(dst for _, _, dst in cfa.edges)
            heads = {
                loc
                for loc in cfa.locations
                if loc in (cfa.initial, cfa.error)
                or indegree[loc] != 1
                or len(cfa.out_edges(loc)) != 1
            }
            assert set(cfa._blocks) == heads, source
            walked = Counter()
            for head in heads:
                blocks = cfa.block_edges(head)
                assert [len(b) for b in blocks] == sorted(len(b) for b in blocks)
                for block in blocks:
                    src = head
                    for op, dst in block:
                        walked[src, op, dst] += 1
                        src = dst
                    assert [loc in heads for _, loc in block[:-1]] == [False] * (len(block) - 1)
                    assert src in heads
            assert walked == Counter(cfa.edges), source


class TestDot:
    def test_empty_program(self):
        dot = cfa_to_dot(load_cfa(""))
        assert dot.startswith("digraph") and dot.count("shape=") == 1

    def test_one_edge(self):
        dot = cfa_to_dot(load_cfa("var x; x := 1;"))
        assert dot.count("->") == 1 and dot.count("shape=") == 2
        assert 'label="x := 1"' in dot

    def test_branch_source_is_diamond(self):
        cfa = load_cfa("var x; x := 0; if (x == 0) { x := 1; }")
        dot = cfa_to_dot(cfa)
        branch_src = next(
            src for src, op, _ in cfa.edges if isinstance(op, Assume)
        )
        assert ("l%d [shape=diamond" % branch_src) in dot

    def test_boollit_rendering(self):
        assert first_op("var x; assume(true);") == Assume(BoolLit(True))


class TestRecords:
    """Trees, operations and the other immutable records compare by type and
    fields, hash consistently with that, and reject writes."""

    def test_equality_is_per_type(self):
        assert And(X1, X2) != Or(X1, X2)
        assert IntLit(1) != BoolLit(True)
        assert Assign("x", IntLit(1)) != AssignNondet("x")
        assert And(X1, X2) == And(X1, Comparison("==", VarRef("x"), IntLit(2)))

    def test_equal_trees_hash_equal(self):
        source = "var x; assume(x + 1 > 2 && !(x == 3));"
        a, b = first_op(source), first_op(source)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, NOOP}) == 2
        assert NOOP == Assume(TRUE) and hash(NOOP) == hash(Assume(BoolLit(True)))

    def test_repr_names_type_and_fields(self):
        assert repr(Assign("x", Negate(IntLit(1)))) == (
            "Assign(var='x', expr=Negate(operand=IntLit(value=1)))"
        )

    @pytest.mark.parametrize(
        "record, field",
        [
            (BinaryOp("+", VarRef("x"), IntLit(1)), "op"),
            (Not(TRUE), "operand"),
            (Assume(X1), "pred"),
            (AssignNondet("x"), "var"),
            (Path(((NOOP, 1),)), "steps"),
            (Limits(), "max_states"),
        ],
    )
    def test_writes_are_rejected(self, record, field):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.other = 1
        assert getattr(record, field) == before

    def test_copy_and_pickle_rebuild_equal_records(self):
        cfa = load_cfa(fig2_program(3))
        for record in (first_op("var x; x := -(x * 2);"), cfa, Limits(1, 2)):
            for clone in (copy.copy(record), copy.deepcopy(record),
                          pickle.loads(pickle.dumps(record))):
                assert clone == record and type(clone) is type(record)
        assert pickle.loads(pickle.dumps(cfa)).out_edges(0) == cfa.out_edges(0)
