from __future__ import annotations

import pytest

from conftest import INT_DIGITS, needs_digit_limit
from prefixselect.frontend import (
    MAX_DEPTH,
    ParseError,
    build_cfa,
    cfa_to_dot,
    load_cfa,
    parse,
)
from prefixselect.generators import fig2_program, random_program
from prefixselect.lang import (
    Assign,
    AssignStmt,
    Assume,
    BinaryOp,
    BoolLit,
    Comparison,
    IntLit,
    NOOP,
    Not,
    Program,
    VarRef,
    render_program,
)

FIG2 = (
    "var b,i; b := 1; i := 0; "
    "while (i < 1000) { i := i + 1; } "
    "if (b == 0) { error; }"
)


class TestParse:
    def test_declaration_and_assignment(self):
        program = parse("var x; x := 1;")
        assert program == Program(("x",), (AssignStmt("x", IntLit(1)),))

    def test_undeclared_variable(self):
        with pytest.raises(ParseError, match="undeclared variable 'y'"):
            parse("var x; x := y;")

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError, match="duplicate declaration"):
            parse("var x, x;")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("var x;\nx : = 1;")
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
            ("var x;\nassume((x < 1) == 1);", "2:11: expected ')', found '<'"),
        ],
    )
    def test_error_message_and_position(self, source, error):
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert str(exc.value) == error
        line, col, _ = error.split(":", 2)
        assert (exc.value.line, exc.value.col) == (int(line), int(col))

    def test_longest_convertible_literal(self):
        digits = "9" * (INT_DIGITS or 4300)
        assert parse("var x; x := %s;" % digits).body[0].expr == IntLit(int(digits))

    @needs_digit_limit
    def test_literal_too_long(self):
        with pytest.raises(ParseError) as exc:
            parse("var x;\nx := -%s;" % ("9" * (INT_DIGITS + 1)))
        assert str(exc.value) == "2:7: integer literal too long"

    def test_flag_loop_program(self):
        program = parse(FIG2)
        assert program.variables == ("b", "i")
        kinds = [type(s).__name__ for s in program.body]
        assert kinds == ["AssignStmt", "AssignStmt", "WhileStmt", "IfStmt"]

    def test_comments_and_nondet(self):
        program = parse("var x; // comment\nx := nondet(); // more\n")
        assert type(program.body[0]).__name__ == "NondetStmt"

    def test_operator_precedence(self):
        program = parse("var x; x := 1 + 2 * 3;")
        assert program.body[0].expr == BinaryOp(
            "+", IntLit(1), BinaryOp("*", IntLit(2), IntLit(3))
        )

    def test_predicate_grammar(self):
        program = parse("var x, y; assume((x == 0 || y > 1) && !(x != y));")
        assert type(program.body[0]).__name__ == "AssumeStmt"

    @pytest.mark.parametrize("index", range(12))
    def test_roundtrip_random_programs(self, index):
        first = parse(random_program(3, index))
        rendered = render_program(first)
        assert parse(rendered) == first
        assert render_program(parse(rendered)) == rendered

    def test_roundtrip_flag_loop(self):
        first = parse(FIG2)
        assert parse(render_program(first)) == first


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

    def test_deterministic(self):
        assert load_cfa(FIG2) == load_cfa(FIG2)

    @pytest.mark.parametrize(
        "source",
        [
            # the parser's recursion overflows
            "var x; x := %s1%s;" % ("(" * 3000, ")" * 3000),
            # nested blocks: the CFA builder recurses as deep as the parser
            "var x; %sx := 1;%s" % ("if (x == 0) { " * 400, " }" * 400),
        ],
        ids=["parentheses", "blocks"],
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
        ],
        ids=["sum", "negation", "conjunction", "not", "loop-condition"],
    )
    def test_depth_bound(self, program, column):
        load_cfa(program(MAX_DEPTH))
        with pytest.raises(ParseError, match="nested too deeply") as exc:
            load_cfa(program(MAX_DEPTH + 1))
        assert (exc.value.line, exc.value.col) == (1, column)

    def test_assume_statement(self):
        cfa = load_cfa("var x; assume(x > 0);")
        assert any(isinstance(op, Assume) for _, op, _ in cfa.edges)


class TestDot:
    def test_empty_program(self):
        dot = cfa_to_dot(build_cfa(parse("")))
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
        assert parse("var x; assume(true);").body[0].pred == BoolLit(True)
