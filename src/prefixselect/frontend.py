"""Parser and control-flow-automaton builder for the toy language.

Grammar (EBNF)::

    program  = { decl } , { stmt } ;
    decl     = "var" , ident , { "," , ident } , ";" ;
    stmt     = ident ":=" expr ";" | ident ":=" "nondet()" ";"
             | "if" "(" pred ")" block [ "else" block ]
             | "while" "(" pred ")" block
             | "assume" "(" pred ")" ";" | "error" ";" ;
    block    = "{" { stmt } "}" ;
    pred     = pred ( "||" | "&&" ) pred | "!" pred | expr cmp expr
             | "(" pred ")" | "true" | "false" ;
    expr     = expr ( "+" | "-" | "*" | "/" | "%" ) expr | "-" expr
             | "(" expr ")" | integer | ident ;
    cmp      = "==" | "!=" | "<" | "<=" | ">" | ">=" ;

Infix operators bind as ``lang.BINDING_POWER`` says; comparisons do not
chain, ``!`` takes a comparison or anything tighter, and unary ``-`` takes
an atom, a bracketed expression or another negation.  One precedence-climbing
loop reads both kinds of formula without backtracking: it checks whether an
operand is an expression or a predicate when it applies an operator to it.

Comments run from ``//`` to end of line.  All variables must be declared
before the statement list; integers are arbitrary precision, but a literal
with more digits than ``int()`` converts (4300 by default) is a ParseError
("integer literal too long").

A statement's depth is the number of blocks around it plus the height of its
formula (an ``if`` or ``while`` has its condition), in which each operator,
each ``!`` or unary ``-`` and each pair of brackets is a level; ``error;``
and ``x := nondet();`` have height 0.  The first statement deeper than
``MAX_DEPTH`` is a ParseError, "nested too deeply (depth above 256)", at the
first token of its formula.  The operands of brackets, ``!`` and ``-`` and
the right operands of infix operators count as the parser goes down to
them, so a run of 3000 ``(`` is rejected before it can exhaust the stack; a
chain such as ``x + x + x``, which the parser builds in a loop, counts once
its height is known.

The tokenizer turns the source into ``(text, offset)`` pairs, ending with
``("", len(source))``; the parser tests token text alone.  A token that
starts with a digit is an integer, and a name starts with a letter or ``_``
and is no keyword.  A ParseError's line and column are worked out from the
offset only when the error is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import get_args

from .lang import (
    And,
    Assign,
    AssignNondet,
    AssignStmt,
    Assume,
    AssumeStmt,
    BINDING_POWER,
    BinaryOp,
    BoolLit,
    CMP_POWER,
    Comparison,
    EXPR_POWER,
    ErrorStmt,
    Expr,
    IfStmt,
    IntLit,
    Negate,
    NondetStmt,
    NOOP,
    Not,
    Operation,
    Or,
    PREFIX_POWER,
    Pred,
    Program,
    Stmt,
    VarRef,
    WhileStmt,
    render_op,
)


#: Deepest a statement may nest: the blocks around it plus the height of its
#: formula (see the module docstring).  Parsing, building the automaton,
#: evaluating, hashing and rendering recurse up to three frames a level; at
#: this bound each of them, and ``engine.cegar``, fits Python's default
#: recursion limit of 1000 when called from a stack 200 frames deep.
MAX_DEPTH = 256


class ParseError(ValueError):
    """Syntax or declaration error, with 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


# whitespace and comments match no group and are dropped; any other
# character matches ``bad``
_TOKEN_RE = re.compile(
    r"""
      \s+ | //[^\n]*
    | (?P<token>\d+ | [A-Za-z_][A-Za-z_0-9]* | := | == | != | <= | >= | && | \|\|
                | [-+*/%<>!(){};,])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {"var", "if", "else", "while", "assume", "error", "nondet", "true", "false"}

_PRED_NODES = get_args(Pred)
_JOINS = {"&&": And, "||": Or}


def _is_name(text: str) -> bool:
    return text.isidentifier() and text not in _KEYWORDS


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens: list[tuple[str, int]] = []
        for m in _TOKEN_RE.finditer(source):
            if m.lastgroup == "token":
                self.tokens.append((m.group(), m.start()))
            elif m.lastgroup == "bad":
                raise self._error_at("unexpected character %r" % m.group(), m.start())
        self.tokens.append(("", len(source)))
        self.i = 0
        self.declared: list[str] = []
        self.start = 0  # offset of the current statement's formula

    # -- token helpers --

    @property
    def text(self) -> str:
        return self.tokens[self.i][0]

    def _error_at(self, message: str, offset: int) -> ParseError:
        line_start = self.source.rfind("\n", 0, offset) + 1
        line = self.source.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - line_start + 1)

    def _error(self, message: str) -> ParseError:
        return self._error_at(message, self.tokens[self.i][1])

    def _found(self, expected: str) -> ParseError:
        return self._error("expected %s, found %r" % (expected, self.text or "<eof>"))

    def accept(self, text: str) -> bool:
        if self.tokens[self.i][0] == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            raise self._found(repr(text))

    def expect_name(self) -> tuple[str, int]:
        token = self.tokens[self.i]
        if not _is_name(token[0]):
            raise self._found("identifier")
        self.i += 1
        return token

    def _check_declared(self, token: tuple[str, int]) -> str:
        name, offset = token
        if name not in self.declared:
            raise self._error_at("undeclared variable %r" % name, offset)
        return name

    # -- grammar --

    def program(self) -> Program:
        while self.accept("var"):
            while True:
                name, offset = self.expect_name()
                if name in self.declared:
                    raise self._error_at("duplicate declaration of %r" % name, offset)
                self.declared.append(name)
                if not self.accept(","):
                    break
            self.expect(";")
        body = []
        while self.text:
            body.append(self.stmt(0))
        return Program(tuple(self.declared), tuple(body))

    def block(self, blocks: int) -> tuple[Stmt, ...]:
        """A block whose statements sit inside ``blocks`` blocks."""
        self.expect("{")
        body = []
        while not self.accept("}"):
            if not self.text:
                raise self._error("unterminated block")
            body.append(self.stmt(blocks))
        return tuple(body)

    def condition(self, blocks: int) -> Pred:
        self.expect("(")
        cond = self.statement_formula(0, blocks)
        self.expect(")")
        return cond

    def stmt(self, blocks: int) -> Stmt:
        """A statement inside ``blocks`` blocks."""
        if self.accept("if"):
            cond = self.condition(blocks)
            then_body = self.block(blocks + 1)
            else_body = self.block(blocks + 1) if self.accept("else") else None
            return IfStmt(cond, then_body, else_body)
        if self.accept("while"):
            return WhileStmt(self.condition(blocks), self.block(blocks + 1))
        if self.accept("assume"):
            cond = self.condition(blocks)
            self.expect(";")
            return AssumeStmt(cond)
        if self.accept("error"):
            self.expect(";")
            return ErrorStmt()
        if not _is_name(self.text):
            raise self._found("statement")
        name = self._check_declared(self.expect_name())
        self.expect(":=")
        if self.accept("nondet"):
            self.expect("(")
            self.expect(")")
            self.expect(";")
            return NondetStmt(name)
        exp = self.statement_formula(EXPR_POWER, blocks)
        self.expect(";")
        return AssignStmt(name, exp)

    # -- formulas: expressions and predicates, by lang.BINDING_POWER --
    #
    # Each reader gets the level its tree starts at (``blocks`` + 1 for a
    # statement's formula, one more inside each bracket, ``!``, ``-`` and
    # right operand) and returns the tree with its height.

    def statement_formula(self, power: int, blocks: int) -> Expr | Pred:
        """The predicate (from power 0) or expression (from EXPR_POWER) of a
        statement inside ``blocks`` blocks, rejected at its first token if
        ``blocks`` plus its height is above MAX_DEPTH."""
        self.start = self.tokens[self.i][1]
        read = self.predicate if power < EXPR_POWER else self.formula
        tree, height = read(power, blocks + 1)
        if blocks + height > MAX_DEPTH:
            raise self._too_deep()
        return tree

    def _too_deep(self) -> ParseError:
        return self._error_at("nested too deeply (depth above %d)" % MAX_DEPTH, self.start)

    def formula(self, power: int, level: int) -> tuple[Expr | Pred, int]:
        """A prefix followed by the infix operators of ``power`` and up.

        From EXPR_POWER up only an expression is read.  An operator whose left
        operand is of the wrong kind, such as a second comparison, ends the
        formula and is left for the caller to report.  A chain of operators
        grows to the left in this loop, so its height is counted here, from
        the bottom up.
        """
        left, height = self.prefix(power, level)
        while (op := self.text) in BINDING_POWER and BINDING_POWER[op] >= power:
            own = BINDING_POWER[op]
            if (own < CMP_POWER) != isinstance(left, _PRED_NODES):
                break
            self.i += 1
            if op in _JOINS:
                right, right_height = self.predicate(own + 1, level + 1)
                left = _JOINS[op](left, right)
            else:
                right, right_height = self.formula(own + 1, level + 1)
                node = Comparison if own == CMP_POWER else BinaryOp
                left = node(op, left, right)
            height = 1 + max(height, right_height)
        return left, height

    def predicate(self, power: int, level: int) -> tuple[Pred, int]:
        tree, height = self.formula(power, level)
        if not isinstance(tree, _PRED_NODES):
            raise self._found("comparison operator")
        return tree, height

    def prefix(self, power: int, level: int) -> tuple[Expr | Pred, int]:
        """A bracketed formula, a negation or an atom; from EXPR_POWER up,
        only one that starts an expression.  Rejects the statement once
        ``level`` passes MAX_DEPTH, before it recurses any further."""
        if level > MAX_DEPTH:
            raise self._too_deep()
        text, offset = self.tokens[self.i]
        if power < EXPR_POWER:
            if self.accept("!"):
                # a run of ! recurses through prefix alone, one frame per !
                if self.text == "!":
                    operand, height = self.prefix(CMP_POWER, level + 1)
                else:
                    operand, height = self.predicate(CMP_POWER, level + 1)
                return Not(operand), height + 1
            if text in ("true", "false"):
                self.i += 1
                return BoolLit(text == "true"), 1
        if self.accept("("):
            inner, height = self.formula(0 if power < EXPR_POWER else EXPR_POWER, level + 1)
            self.expect(")")
            return inner, height + 1
        if self.accept("-"):
            operand, height = self.prefix(PREFIX_POWER, level + 1)
            return Negate(operand), height + 1
        if text[:1].isdigit():
            self.i += 1
            try:
                return IntLit(int(text)), 1
            except ValueError:  # more digits than int() converts
                raise self._error_at("integer literal too long", offset) from None
        if _is_name(text):
            self.i += 1
            return VarRef(self._check_declared((text, offset))), 1
        raise self._found("expression")


def parse(source: str) -> Program:
    """Parse source text into a Program AST.

    Raises ParseError (with line/column) on syntax errors, use of undeclared
    variables, duplicate declarations, an integer literal too long, or a
    statement deeper than MAX_DEPTH (see the module docstring).  Whether a
    program parses does not depend on the caller's stack: at the bound,
    ``parse`` and ``build_cfa`` fit from a caller 200 frames deep.
    """
    return _Parser(source).program()


# --- control-flow automaton --------------------------------------------------


@dataclass(frozen=True)
class ControlFlowAutomaton:
    locations: tuple[int, ...]
    initial: int
    error: int | None
    edges: tuple[tuple[int, Operation, int], ...]
    variables: tuple[str, ...]
    _adjacency: dict[int, tuple[tuple[Operation, int], ...]] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self):
        adj: dict[int, list[tuple[Operation, int]]] = {l: [] for l in self.locations}
        for src, op, dst in self.edges:
            adj[src].append((op, dst))
        object.__setattr__(
            self, "_adjacency", {l: tuple(v) for l, v in adj.items()}
        )

    def out_edges(self, loc: int) -> tuple[tuple[Operation, int], ...]:
        return self._adjacency[loc]


class _CfaBuilder:
    def __init__(self):
        self.next_loc = 0
        self.edges: list[tuple[int, Operation, int]] = []
        self.error_loc: int | None = None

    def fresh(self) -> int:
        loc = self.next_loc
        self.next_loc += 1
        return loc

    def edge(self, src: int, op: Operation, dst: int) -> None:
        self.edges.append((src, op, dst))

    def block(self, stmts: tuple[Stmt, ...], entry: int, exit_: int) -> None:
        if not stmts:
            self.edge(entry, NOOP, exit_)
            return
        cur = entry
        for k, stmt in enumerate(stmts):
            nxt = exit_ if k == len(stmts) - 1 else self.fresh()
            self.stmt(stmt, cur, nxt)
            cur = nxt

    def stmt(self, stmt: Stmt, entry: int, exit_: int) -> None:
        if isinstance(stmt, AssignStmt):
            self.edge(entry, Assign(stmt.var, stmt.expr), exit_)
        elif isinstance(stmt, NondetStmt):
            self.edge(entry, AssignNondet(stmt.var), exit_)
        elif isinstance(stmt, AssumeStmt):
            self.edge(entry, Assume(stmt.pred), exit_)
        elif isinstance(stmt, ErrorStmt):
            if self.error_loc is None:
                self.error_loc = self.fresh()
            self.edge(entry, NOOP, self.error_loc)
            # exit_ stays unreachable from here; pruned later if dead
        elif isinstance(stmt, IfStmt):
            self._branch(stmt.cond, stmt.then_body, entry, exit_)
            self._branch(Not(stmt.cond), stmt.else_body or (), entry, exit_)
        else:  # WhileStmt
            head = self.fresh()
            self.edge(entry, NOOP, head)
            self._branch(stmt.cond, stmt.body, head, head)
            self.edge(head, Assume(Not(stmt.cond)), exit_)

    def _branch(self, cond: Pred, body: tuple[Stmt, ...], entry: int, exit_: int) -> None:
        if body:
            first = self.fresh()
            self.edge(entry, Assume(cond), first)
            self.block(body, first, exit_)
        else:
            self.edge(entry, Assume(cond), exit_)


def build_cfa(program: Program) -> ControlFlowAutomaton:
    """Build a control-flow automaton from a parsed program.

    Branches desugar to a pair of assume edges, loops to a fresh head with an
    entering no-op edge, and every ``error;`` routes via a no-op edge to a
    single error location.  Unreachable locations are pruned and location ids
    renumbered in creation order, so identical source yields identical
    automata.
    """
    b = _CfaBuilder()
    initial = b.fresh()
    if program.body:
        b.block(program.body, initial, b.fresh())

    # prune locations unreachable from the initial location
    reachable = {initial}
    changed = True
    while changed:
        changed = False
        for src, _, dst in b.edges:
            if src in reachable and dst not in reachable:
                reachable.add(dst)
                changed = True
    kept = sorted(reachable)
    renum = {old: new for new, old in enumerate(kept)}
    edges = tuple(
        (renum[src], op, renum[dst]) for src, op, dst in b.edges if src in reachable
    )
    error = renum.get(b.error_loc) if b.error_loc is not None else None
    return ControlFlowAutomaton(
        locations=tuple(range(len(kept))),
        initial=renum[initial],
        error=error,
        edges=edges,
        variables=program.variables,
    )


def load_cfa(source: str) -> ControlFlowAutomaton:
    """Parse and build; raises ParseError on any input ``parse`` rejects."""
    return build_cfa(parse(source))


def cfa_to_dot(cfa: ControlFlowAutomaton) -> str:
    """Render a CFA as GraphViz DOT.

    Locations with an outgoing assume edge are drawn as diamonds, all others
    as squares; the error location is marked with a double border.
    """
    assume_sources = {src for src, op, _ in cfa.edges if isinstance(op, Assume)}
    lines = ["digraph cfa {"]
    for loc in cfa.locations:
        shape = "diamond" if loc in assume_sources else "box"
        attrs = 'shape=%s, label="l%d"' % (shape, loc)
        if loc == cfa.error:
            attrs += ", peripheries=2"
        lines.append('  l%d [%s];' % (loc, attrs))
    for src, op, dst in cfa.edges:
        label = render_op(op).replace("\\", "\\\\").replace('"', '\\"')
        lines.append('  l%d -> l%d [label="%s"];' % (src, dst, label))
    lines.append("}")
    return "\n".join(lines) + "\n"
