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
("integer literal too long").  An expression or predicate tree deeper than
``MAX_DEPTH``, and a block nested inside more than ``MAX_DEPTH`` others, is
a ParseError ("nested too deeply"): evaluating, hashing, rendering and
building the automaton recurse once per level.

The tokenizer turns the source into ``(text, offset)`` pairs, ending with
``("", len(source))``; the parser tests token text alone.  A token that
starts with a digit is an integer, and a name starts with a letter or ``_``
and is no keyword.  A ParseError's line and column are worked out from the
offset only when the error is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, TypeVar, get_args

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


#: Deepest expression or predicate tree a statement may hold, and deepest
#: nesting of blocks.  Evaluating, hashing, rendering and building the
#: automaton recurse once or a few times per level and exhaust Python's
#: default recursion limit from about 1000 frames; the bound keeps clear of
#: that, also for a checker called from a deep stack.
MAX_DEPTH = 256

_Tree = TypeVar("_Tree", Expr, Pred)


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
        self.nesting = 0  # blocks open around the current token

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

    def bounded(self, parse: Callable[[int], _Tree], power: int) -> _Tree:
        """``parse(power)``, rejected if its tree is deeper than MAX_DEPTH."""
        start = self.i
        tree = parse(power)
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
        if self.nesting == MAX_DEPTH:
            raise self._error("block nested too deeply (depth above %d)" % MAX_DEPTH)
        self.expect("{")
        self.nesting += 1
        body = []
        while not self.accept("}"):
            if not self.text:
                raise self._error("unterminated block")
            body.append(self.stmt())
        self.nesting -= 1
        return tuple(body)

    def condition(self) -> Pred:
        self.expect("(")
        cond = self.bounded(self.predicate, 0)
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
        exp = self.bounded(self.formula, EXPR_POWER)
        self.expect(";")
        return AssignStmt(name, exp)

    # -- formulas: expressions and predicates, by lang.BINDING_POWER --

    def formula(self, power: int) -> Expr | Pred:
        """A prefix followed by the infix operators of ``power`` and up.

        From EXPR_POWER up only an expression is read.  An operator whose left
        operand is of the wrong kind, such as a second comparison, ends the
        formula and is left for the caller to report.
        """
        left = self.prefix(power)
        while (op := self.text) in BINDING_POWER and BINDING_POWER[op] >= power:
            own = BINDING_POWER[op]
            if (own < CMP_POWER) != isinstance(left, _PRED_NODES):
                break
            self.i += 1
            if op in _JOINS:
                left = _JOINS[op](left, self.predicate(own + 1))
            else:
                node = Comparison if own == CMP_POWER else BinaryOp
                left = node(op, left, self.formula(own + 1))
        return left

    def predicate(self, power: int) -> Pred:
        tree = self.formula(power)
        if not isinstance(tree, _PRED_NODES):
            raise self._found("comparison operator")
        return tree

    def prefix(self, power: int) -> Expr | Pred:
        """A bracketed formula, a negation or an atom; from EXPR_POWER up,
        only one that starts an expression."""
        text, offset = self.tokens[self.i]
        if power < EXPR_POWER:
            if self.accept("!"):
                # a run of ! recurses through prefix alone, one frame per !
                if self.text == "!":
                    return Not(self.prefix(CMP_POWER))
                return Not(self.predicate(CMP_POWER))
            if text in ("true", "false"):
                self.i += 1
                return BoolLit(text == "true")
        if self.accept("("):
            inner = self.formula(0 if power < EXPR_POWER else EXPR_POWER)
            self.expect(")")
            return inner
        if self.accept("-"):
            return Negate(self.prefix(PREFIX_POWER))
        if text[:1].isdigit():
            self.i += 1
            try:
                return IntLit(int(text))
            except ValueError:  # more digits than int() converts
                raise self._error_at("integer literal too long", offset) from None
        if _is_name(text):
            self.i += 1
            return VarRef(self._check_declared((text, offset)))
        raise self._found("expression")


def parse(source: str) -> Program:
    """Parse source text into a Program AST.

    Raises ParseError (with line/column) on syntax errors, use of undeclared
    variables, duplicate declarations, an expression or a block nesting
    deeper than MAX_DEPTH, or a program nested too deeply for the recursive
    parser.
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
    """Parse and build; raises ParseError on any input ``parse`` rejects,
    and on a program nested too deeply for the CFA builder's stack."""
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
