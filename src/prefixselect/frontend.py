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
before the statement list; integers are arbitrary precision.  An expression
or predicate tree deeper than ``MAX_DEPTH`` is a ParseError ("nested too
deeply"): evaluating, hashing and pickling such trees recurses once per level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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


#: Deepest expression or predicate tree a statement may hold.  Pickling a
#: verdict for ``--timeout`` fails from about 330 levels, and evaluation
#: from about 1000; the bound keeps clear of both.
MAX_DEPTH = 256

_Tree = TypeVar("_Tree", Expr, Pred)


class ParseError(ValueError):
    """Syntax or declaration error, with 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<sym>:=|==|!=|<=|>=|&&|\|\||[-+*/%<>!(){};,])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"var", "if", "else", "while", "assume", "error", "nondet", "true", "false"}


@dataclass
class _Token:
    kind: str  # "int" | "ident" | "sym" | "eof"
    text: str
    line: int
    col: int


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


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(
                "unexpected character %r" % source[pos], line, pos - line_start + 1
            )
        col = pos - line_start + 1
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(source) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0
        self.declared: list[str] = []

    # -- token helpers --

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self.cur.line, self.cur.col)

    def accept(self, text: str) -> bool:
        t = self.cur
        if t.kind in ("sym", "ident") and t.text == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> _Token:
        t = self.cur
        if not self.accept(text):
            raise self._error("expected %r, found %r" % (text, t.text or "<eof>"))
        return t

    def expect_ident(self) -> _Token:
        t = self.cur
        if t.kind != "ident" or t.text in _KEYWORDS:
            raise self._error("expected identifier, found %r" % (t.text or "<eof>"))
        self.i += 1
        return t

    def _check_declared(self, tok: _Token) -> str:
        if tok.text not in self.declared:
            raise ParseError("undeclared variable %r" % tok.text, tok.line, tok.col)
        return tok.text

    def bounded(self, parse: Callable[[], _Tree]) -> _Tree:
        """``parse()``, rejected if its tree is deeper than MAX_DEPTH."""
        start = self.i
        tree = parse()
        # every node consumes a token of its own, so a short tree is shallow
        if self.i - start > MAX_DEPTH and _depth(tree) > MAX_DEPTH:
            tok = self.tokens[start]
            raise ParseError(
                "expression nested too deeply (depth above %d)" % MAX_DEPTH,
                tok.line,
                tok.col,
            )
        return tree

    # -- grammar --

    def program(self) -> Program:
        while self.cur.text == "var" and self.cur.kind == "ident":
            self.i += 1
            while True:
                tok = self.expect_ident()
                if tok.text in self.declared:
                    raise ParseError(
                        "duplicate declaration of %r" % tok.text, tok.line, tok.col
                    )
                self.declared.append(tok.text)
                if not self.accept(","):
                    break
            self.expect(";")
        body = []
        while self.cur.kind != "eof":
            body.append(self.stmt())
        return Program(tuple(self.declared), tuple(body))

    def block(self) -> tuple[Stmt, ...]:
        self.expect("{")
        body = []
        while not self.accept("}"):
            if self.cur.kind == "eof":
                raise self._error("unterminated block")
            body.append(self.stmt())
        return tuple(body)

    def stmt(self) -> Stmt:
        t = self.cur
        if t.kind == "ident" and t.text == "if":
            self.i += 1
            self.expect("(")
            cond = self.bounded(self.pred)
            self.expect(")")
            then_body = self.block()
            else_body = self.block() if self.accept("else") else None
            return IfStmt(cond, then_body, else_body)
        if t.kind == "ident" and t.text == "while":
            self.i += 1
            self.expect("(")
            cond = self.bounded(self.pred)
            self.expect(")")
            return WhileStmt(cond, self.block())
        if t.kind == "ident" and t.text == "assume":
            self.i += 1
            self.expect("(")
            p = self.bounded(self.pred)
            self.expect(")")
            self.expect(";")
            return AssumeStmt(p)
        if t.kind == "ident" and t.text == "error":
            self.i += 1
            self.expect(";")
            return ErrorStmt()
        if t.kind == "ident" and t.text not in _KEYWORDS:
            name = self._check_declared(self.expect_ident())
            self.expect(":=")
            if self.cur.text == "nondet" and self.cur.kind == "ident":
                self.i += 1
                self.expect("(")
                self.expect(")")
                self.expect(";")
                return NondetStmt(name)
            exp = self.bounded(self.expr)
            self.expect(";")
            return AssignStmt(name, exp)
        raise self._error("expected statement, found %r" % (t.text or "<eof>"))

    # expressions: + - below * / %

    def expr(self) -> Expr:
        left = self.term()
        while self.cur.text in ("+", "-") and self.cur.kind == "sym":
            op = self.cur.text
            self.i += 1
            left = BinaryOp(op, left, self.term())
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.cur.text in ("*", "/", "%") and self.cur.kind == "sym":
            op = self.cur.text
            self.i += 1
            left = BinaryOp(op, left, self.factor())
        return left

    def factor(self) -> Expr:
        t = self.cur
        if t.kind == "sym" and t.text == "-":
            self.i += 1
            return Negate(self.factor())
        if t.kind == "sym" and t.text == "(":
            self.i += 1
            exp = self.expr()
            self.expect(")")
            return exp
        if t.kind == "int":
            self.i += 1
            return IntLit(int(t.text))
        if t.kind == "ident" and t.text not in _KEYWORDS:
            self.i += 1
            return VarRef(self._check_declared(t))
        raise self._error("expected expression, found %r" % (t.text or "<eof>"))

    # predicates: || below && below ! / atoms

    def pred(self) -> Pred:
        left = self.conj()
        while self.cur.text == "||" and self.cur.kind == "sym":
            self.i += 1
            left = Or(left, self.conj())
        return left

    def conj(self) -> Pred:
        left = self.pred_atom()
        while self.cur.text == "&&" and self.cur.kind == "sym":
            self.i += 1
            left = And(left, self.pred_atom())
        return left

    def pred_atom(self) -> Pred:
        t = self.cur
        if t.kind == "sym" and t.text == "!":
            self.i += 1
            return Not(self.pred_atom())
        if t.kind == "ident" and t.text == "true":
            self.i += 1
            return BoolLit(True)
        if t.kind == "ident" and t.text == "false":
            self.i += 1
            return BoolLit(False)
        if t.kind == "sym" and t.text == "(":
            # could be a parenthesized predicate or a parenthesized expression
            # starting a comparison; try predicate first, fall back to expr
            save = self.i
            self.i += 1
            try:
                inner = self.pred()
                self.expect(")")
                if self.cur.text in ("==", "!=", "<", "<=", ">", ">="):
                    raise self._error("comparison of predicates")
                return inner
            except ParseError:
                self.i = save
        left = self.expr()
        t = self.cur
        if t.kind == "sym" and t.text in ("==", "!=", "<", "<=", ">", ">="):
            self.i += 1
            return Comparison(t.text, left, self.expr())
        raise self._error("expected comparison operator, found %r" % (t.text or "<eof>"))


def parse(source: str) -> Program:
    """Parse source text into a Program AST.

    Raises ParseError (with line/column) on syntax errors, use of undeclared
    variables, or duplicate declarations.
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
    """Parse and build; a program nested too deeply for the recursive parser
    or CFA builder, or an expression deeper than MAX_DEPTH, raises
    ParseError, like any other input it cannot take."""
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
