"""Loader of the toy language: source text straight to a control-flow automaton.

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

Loading is one pass, with no statement tree in between: the parser adds
each statement's edges as it reads the statement.  Branches desugar to a pair
of assume edges, loops to a fresh head with an entering no-op edge, and every
``error;`` routes via a no-op edge to a single error location.  Each
statement of a block ends at a fresh location; once ``}`` (or, for the
program, the end of input) shows which statement was the last, its end is
merged into the block's exit.  A final pass resolves the merges, prunes the
locations the initial location does not reach and renumbers the rest in
creation order, so identical source yields identical automata.

The tokenizer turns the source into ``(text, offset)`` pairs, ending with
``("", len(source))``; the parser tests token text alone.  A token that
starts with a digit is an integer, and a name starts with a letter or ``_``
and is no keyword.  A ParseError's line and column are worked out from the
offset only when the error is raised.
"""

from __future__ import annotations

import re
from typing import get_args

from .lang import (
    And,
    Assign,
    AssignNondet,
    Assume,
    BINDING_POWER,
    BinaryOp,
    BoolLit,
    CMP_POWER,
    Comparison,
    EXPR_POWER,
    Expr,
    Frozen,
    IntLit,
    Negate,
    NOOP,
    Not,
    Operation,
    Or,
    PREFIX_POWER,
    Pred,
    VarRef,
    render_op,
    set_field,
)


#: Deepest a statement may nest: the blocks around it plus the height of its
#: formula (see the module docstring).  Loading recurses two frames a block
#: (``stmt`` and ``branch``) and up to five for a ``!(``, which is two formula
#: levels; comparing formulas recurses three frames a level, hashing two, and
#: evaluating and rendering one.  At this bound loading and ``engine.cegar``
#: fit Python's default recursion limit of 1000 when called from a stack 200
#: frames deep: on Python 3.11, 255 nested blocks load from a caller 480
#: frames deep, and the tightest formula, a run of ``!(``, from 353.
MAX_DEPTH = 256


class ParseError(ValueError):
    """Syntax or declaration error, with 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


class ControlFlowAutomaton(Frozen):
    """Locations, edges and variables of a program.

    A block head is the initial location, the error location, or a location
    whose in-degree or out-degree is not 1.  A block edge starts with an
    out-edge of a head and follows the locations of one in-edge and one
    out-edge up to the next head, so every edge lies on exactly one block
    edge.  ``block_edges`` lists a head's block edges as tuples of (operation,
    location) steps, shortest first.
    """

    __slots__ = ("locations", "initial", "error", "edges", "variables", "_adjacency", "_blocks")

    def __init__(
        self,
        locations: tuple[int, ...],
        initial: int,
        error: int | None,
        edges: tuple[tuple[int, Operation, int], ...],
        variables: tuple[str, ...],
    ):
        set_field(self, "locations", locations)
        set_field(self, "initial", initial)
        set_field(self, "error", error)
        set_field(self, "edges", edges)
        set_field(self, "variables", variables)
        adj: dict[int, list[tuple[Operation, int]]] = {l: [] for l in locations}
        for src, op, dst in edges:
            adj[src].append((op, dst))
        set_field(self, "_adjacency", {l: tuple(v) for l, v in adj.items()})
        indegree = dict.fromkeys(locations, 0)
        for _, _, dst in edges:
            indegree[dst] += 1
        heads = {
            l for l in locations
            if l in (initial, error) or indegree[l] != 1 or len(adj[l]) != 1
        }
        blocks = {}
        for head in heads:
            out = []
            for step in adj[head]:
                block = [step]
                while step[1] not in heads:
                    step = adj[step[1]][0]
                    block.append(step)
                out.append(tuple(block))
            out.sort(key=len)
            blocks[head] = tuple(out)
        set_field(self, "_blocks", blocks)

    def out_edges(self, loc: int) -> tuple[tuple[Operation, int], ...]:
        return self._adjacency[loc]

    def block_edges(self, head: int) -> tuple[tuple[tuple[Operation, int], ...], ...]:
        return self._blocks[head]


# whitespace and comments match no group and are dropped; literals and names
# are ASCII, and any other character matches ``bad``
_TOKEN_RE = re.compile(
    r"""
      \s+ | //[^\n]*
    | (?P<token>[0-9]+ | [A-Za-z_][A-Za-z_0-9]* | := | == | != | <= | >= | && | \|\|
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
        self.next_loc = 0
        self.edges: list[tuple[int, Operation, int]] = []
        # the end of a block's last statement -> the block's exit
        self.merged: dict[int, int] = {}
        self.error_loc: int | None = None

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

    # -- the automaton --

    def fresh(self) -> int:
        loc = self.next_loc
        self.next_loc += 1
        return loc

    def edge(self, src: int, op: Operation, dst: int) -> None:
        self.edges.append((src, op, dst))

    def automaton(self, initial: int) -> ControlFlowAutomaton:
        """Resolve the merges, prune what ``initial`` does not reach and
        renumber the rest in creation order."""

        def resolve(loc: int) -> int:
            while loc in self.merged:
                loc = self.merged[loc]
            return loc

        # a merged location has no out-edges, so only targets move
        edges = [(src, op, resolve(dst)) for src, op, dst in self.edges]
        reachable = {initial}
        changed = True
        while changed:
            changed = False
            for src, _, dst in edges:
                if src in reachable and dst not in reachable:
                    reachable.add(dst)
                    changed = True
        renum = {old: new for new, old in enumerate(sorted(reachable))}
        return ControlFlowAutomaton(
            locations=tuple(range(len(renum))),
            initial=renum[initial],
            error=renum.get(self.error_loc),
            edges=tuple(
                (renum[src], op, renum[dst]) for src, op, dst in edges if src in reachable
            ),
            variables=tuple(self.declared),
        )

    # -- grammar --

    def program(self) -> ControlFlowAutomaton:
        while self.accept("var"):
            while True:
                name, offset = self.expect_name()
                if name in self.declared:
                    raise self._error_at("duplicate declaration of %r" % name, offset)
                self.declared.append(name)
                if not self.accept(","):
                    break
            self.expect(";")
        initial, exit_ = self.fresh(), self.fresh()
        cur = initial
        while self.text:
            nxt = self.fresh()
            self.stmt(0, cur, nxt)
            cur = nxt
        if cur != initial:
            self.merged[cur] = exit_
        return self.automaton(initial)

    def branch(self, cond: Pred, blocks: int, entry: int, exit_: int) -> None:
        """A block entered from ``entry`` by ``assume(cond)`` and left to
        ``exit_``, whose statements sit inside ``blocks`` blocks."""
        self.expect("{")
        if self.accept("}"):
            self.edge(entry, Assume(cond), exit_)
            return
        cur = self.fresh()
        self.edge(entry, Assume(cond), cur)
        while not self.accept("}"):
            if not self.text:
                raise self._error("unterminated block")
            nxt = self.fresh()
            self.stmt(blocks, cur, nxt)
            cur = nxt
        self.merged[cur] = exit_

    def condition(self, blocks: int) -> Pred:
        self.expect("(")
        cond = self.statement_formula(0, blocks)
        self.expect(")")
        return cond

    def stmt(self, blocks: int, entry: int, exit_: int) -> None:
        """A statement inside ``blocks`` blocks, from ``entry`` to ``exit_``."""
        if self.accept("if"):
            cond = self.condition(blocks)
            self.branch(cond, blocks + 1, entry, exit_)
            if self.accept("else"):
                self.branch(Not(cond), blocks + 1, entry, exit_)
            else:
                self.edge(entry, Assume(Not(cond)), exit_)
        elif self.accept("while"):
            cond = self.condition(blocks)
            head = self.fresh()
            self.edge(entry, NOOP, head)
            self.branch(cond, blocks + 1, head, head)
            self.edge(head, Assume(Not(cond)), exit_)
        elif self.accept("assume"):
            cond = self.condition(blocks)
            self.expect(";")
            self.edge(entry, Assume(cond), exit_)
        elif self.accept("error"):
            self.expect(";")
            if self.error_loc is None:
                self.error_loc = self.fresh()
            # exit_ stays unreachable from here; pruned if nothing else reaches it
            self.edge(entry, NOOP, self.error_loc)
        elif not _is_name(self.text):
            raise self._found("statement")
        else:
            name = self._check_declared(self.expect_name())
            self.expect(":=")
            if self.accept("nondet"):
                self.expect("(")
                self.expect(")")
                op: Operation = AssignNondet(name)
            else:
                op = Assign(name, self.statement_formula(EXPR_POWER, blocks))
            self.expect(";")
            self.edge(entry, op, exit_)

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


def load_cfa(source: str) -> ControlFlowAutomaton:
    """Parse source text straight into a control-flow automaton.

    Raises ParseError (with line/column) on syntax errors, use of undeclared
    variables, duplicate declarations, an integer literal too long, or a
    statement deeper than MAX_DEPTH (see the module docstring).  Whether a
    program loads does not depend on the caller's stack: at the bound,
    ``load_cfa`` fits from a caller 200 frames deep.
    """
    return _Parser(source).program()


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
