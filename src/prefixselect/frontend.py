"""Parser and control-flow-automaton builder for the toy language.

Grammar (EBNF)::

    program  = { decl } , { stmt } ;
    decl     = "var" , ident , { "," , ident } , ";" ;
    stmt     = ident ":=" expr ";" | ident ":=" "nondet()" ";"
             | "if" "(" pred ")" block [ "else" block ]
             | "while" "(" pred ")" block
             | "assume" "(" pred ")" ";" | "error" ";" ;
    block    = "{" { stmt } "}" ;

Comments run from ``//`` to end of line.  All variables must be declared
before the statement list; integers are arbitrary precision, but a literal
with more digits than ``int()`` converts (4300 by default) is a ParseError
("integer literal too long").  An expression or predicate tree deeper than
``MAX_DEPTH`` is a ParseError ("nested too deeply"): evaluating, hashing and
rendering such trees recurses once per level.

The tokenizer turns the source into ``(text, offset)`` pairs, ending with
``("", len(source))``; the parser tests token text alone.  A token that
starts with a digit is an integer, and a name starts with a letter or ``_``
and is no keyword.  A ParseError's line and column are worked out from the
offset only when the error is raised.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, TypeVar

from .lang import (
    And,
    Assign,
    AssignNondet,
    AssignStmt,
    Assume,
    AssumeStmt,
    BinaryOp,
    BoolLit,
    Comparison,
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
    Pred,
    Program,
    Stmt,
    VarRef,
    WhileStmt,
    render_op,
)


#: Deepest expression or predicate tree a statement may hold.  Evaluating,
#: hashing and rendering a tree recurse once per level and exhaust Python's
#: default recursion limit from about 1000 levels; the bound keeps clear of
#: that, also for a checker called from a deep stack.
MAX_DEPTH = 256

_Tree = TypeVar("_Tree", Expr, Pred)


class ParseError(ValueError):
    """Syntax or declaration error, with 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


class _TokenError(ParseError):
    """An undeclared name or an over-long literal: an error under every parse
    of the tokens around it, so ``pred_atom`` does not backtrack over it."""


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

_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")


def _is_name(text: str) -> bool:
    return text.isidentifier() and text not in _KEYWORDS


def _depth(tree: Expr | Pred) -> int:
    """Height of an expression or predicate tree, found without recursion."""
    height, stack = 0, [(tree, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        if isinstance(node, (Negate, Not)):
            stack.append((node.operand, level + 1))
        elif isinstance(node, (BinaryOp, Comparison, And, Or)):
            stack += ((node.left, level + 1), (node.right, level + 1))
    return height


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

    # -- token helpers --

    @property
    def text(self) -> str:
        return self.tokens[self.i][0]

    @cached_property
    def _newlines(self) -> list[int]:
        """Offsets of the newlines, found once: ``pred_atom`` backtracks over
        an error per parenthesized comparison, and counting each time from
        the start of the source would make parsing quadratic."""
        return [m.start() for m in re.finditer("\n", self.source)]

    def _error_at(self, message: str, offset: int, kind=ParseError) -> ParseError:
        before = bisect_left(self._newlines, offset)
        line_start = self._newlines[before - 1] + 1 if before else 0
        return kind(message, before + 1, offset - line_start + 1)

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
            raise self._error_at("undeclared variable %r" % name, offset, _TokenError)
        return name

    def bounded(self, parse: Callable[[], _Tree]) -> _Tree:
        """``parse()``, rejected if its tree is deeper than MAX_DEPTH."""
        start = self.i
        tree = parse()
        # every node consumes a token of its own, so a short tree is shallow
        if self.i - start > MAX_DEPTH and _depth(tree) > MAX_DEPTH:
            raise self._error_at(
                "expression nested too deeply (depth above %d)" % MAX_DEPTH,
                self.tokens[start][1],
            )
        return tree

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
        try:
            while self.text:
                body.append(self.stmt())
        except RecursionError:
            raise self._error("program nested too deeply") from None
        return Program(tuple(self.declared), tuple(body))

    def block(self) -> tuple[Stmt, ...]:
        self.expect("{")
        body = []
        while not self.accept("}"):
            if not self.text:
                raise self._error("unterminated block")
            body.append(self.stmt())
        return tuple(body)

    def condition(self) -> Pred:
        self.expect("(")
        cond = self.bounded(self.pred)
        self.expect(")")
        return cond

    def stmt(self) -> Stmt:
        if self.accept("if"):
            cond = self.condition()
            then_body = self.block()
            else_body = self.block() if self.accept("else") else None
            return IfStmt(cond, then_body, else_body)
        if self.accept("while"):
            return WhileStmt(self.condition(), self.block())
        if self.accept("assume"):
            cond = self.condition()
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
        exp = self.bounded(self.expr)
        self.expect(";")
        return AssignStmt(name, exp)

    # expressions: + - below * / %

    def expr(self) -> Expr:
        left = self.term()
        while (op := self.text) in ("+", "-"):
            self.i += 1
            left = BinaryOp(op, left, self.term())
        return left

    def term(self) -> Expr:
        left = self.factor()
        while (op := self.text) in ("*", "/", "%"):
            self.i += 1
            left = BinaryOp(op, left, self.factor())
        return left

    def factor(self) -> Expr:
        if self.accept("-"):
            return Negate(self.factor())
        if self.accept("("):
            exp = self.expr()
            self.expect(")")
            return exp
        token = self.tokens[self.i]
        text = token[0]
        if text[:1].isdigit():
            self.i += 1
            try:
                return IntLit(int(text))
            except ValueError:  # more digits than int() converts
                raise self._error_at(
                    "integer literal too long", token[1], _TokenError
                ) from None
        if _is_name(text):
            self.i += 1
            return VarRef(self._check_declared(token))
        raise self._found("expression")

    # predicates: || below && below ! / atoms

    def pred(self) -> Pred:
        left = self.conj()
        while self.accept("||"):
            left = Or(left, self.conj())
        return left

    def conj(self) -> Pred:
        left = self.pred_atom()
        while self.accept("&&"):
            left = And(left, self.pred_atom())
        return left

    def pred_atom(self) -> Pred:
        if self.accept("!"):
            return Not(self.pred_atom())
        if self.accept("true"):
            return BoolLit(True)
        if self.accept("false"):
            return BoolLit(False)
        if self.text == "(":
            # could be a parenthesized predicate or a parenthesized expression
            # starting a comparison; try predicate first, fall back to expr
            # on a syntax error
            save = self.i
            self.i += 1
            try:
                inner = self.pred()
                self.expect(")")
                if self.text in _COMPARISONS:
                    raise self._error("comparison of predicates")
                return inner
            except _TokenError:
                raise
            except ParseError:
                self.i = save
        left = self.expr()
        if (op := self.text) in _COMPARISONS:
            self.i += 1
            return Comparison(op, left, self.expr())
        raise self._found("comparison operator")


def parse(source: str) -> Program:
    """Parse source text into a Program AST.

    Raises ParseError (with line/column) on syntax errors, use of undeclared
    variables, duplicate declarations, an expression deeper than MAX_DEPTH,
    or a program nested too deeply for the recursive parser.
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
    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables
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
    b = _CfaBuilder(program.variables)
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
    """Parse and build; raises ParseError on any input ``parse`` rejects,
    and on a program nested too deeply for the recursive CFA builder."""
    parser = _Parser(source)
    try:
        return build_cfa(parser.program())
    except RecursionError:
        raise parser._error("program nested too deeply") from None


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
