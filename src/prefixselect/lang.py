"""Formula trees and edge operations for the toy imperative integer language.

Expressions and predicates are immutable trees over arbitrary-precision
integers.  Edge operations (assignment, nondeterministic assignment, assume)
label control-flow edges; a no-op is literally ``assume(true)`` so the two
compare equal wherever paths are compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

# --- expressions ------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class BinaryOp:
    op: str  # one of + - * / %
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Negate:
    operand: "Expr"


Expr = Union[IntLit, VarRef, BinaryOp, Negate]


# --- predicates -------------------------------------------------------------


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Comparison:
    op: str  # one of == != < <= > >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class And:
    left: "Pred"
    right: "Pred"


@dataclass(frozen=True)
class Or:
    left: "Pred"
    right: "Pred"


@dataclass(frozen=True)
class Not:
    operand: "Pred"


Pred = Union[BoolLit, Comparison, And, Or, Not]

TRUE = BoolLit(True)
FALSE = BoolLit(False)


# --- operations -------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    var: str
    expr: Expr


@dataclass(frozen=True)
class AssignNondet:
    var: str


@dataclass(frozen=True)
class Assume:
    pred: Pred


Operation = Union[Assign, AssignNondet, Assume]

#: The no-op operation; identical to assume(true) by construction.
NOOP: Operation = Assume(TRUE)


# --- variable collection ----------------------------------------------------


def tree_variables(tree: Expr | Pred) -> set[str]:
    """Variables occurring in an expression or predicate."""
    if isinstance(tree, VarRef):
        return {tree.name}
    if isinstance(tree, (IntLit, BoolLit)):
        return set()
    if isinstance(tree, (Negate, Not)):
        return tree_variables(tree.operand)
    return tree_variables(tree.left) | tree_variables(tree.right)


def op_variables(op: Operation) -> set[str]:
    """Variables occurring syntactically in an operation.

    A no-op contributes no variables (its predicate is the literal true).
    """
    if isinstance(op, Assign):
        return {op.var} | tree_variables(op.expr)
    if isinstance(op, AssignNondet):
        return {op.var}
    return tree_variables(op.pred)


# --- operators and rendering ------------------------------------------------

#: Binding power of each infix operator: a higher power binds tighter, and
#: operators of equal power associate to the left.  The parser and the
#: renderer read precedence from this table alone.
BINDING_POWER = {
    "||": 1,
    "&&": 2,
    **dict.fromkeys(("==", "!=", "<", "<=", ">", ">="), 3),
    **dict.fromkeys(("+", "-"), 4),
    **dict.fromkeys(("*", "/", "%"), 5),
}
#: An operand read at power p takes the infix operators of power p and up.
#: Comparisons sit between the operators that join predicates and those that
#: join expressions, and do not chain.  ``!`` reads its operand at
#: CMP_POWER, so ``!x == 1`` is ``!(x == 1)``; an expression is read at
#: EXPR_POWER; unary ``-`` reads its operand at PREFIX_POWER, above every
#: infix operator.
CMP_POWER = BINDING_POWER["=="]
EXPR_POWER = CMP_POWER + 1
PREFIX_POWER = max(BINDING_POWER.values()) + 1


def render_tree(tree: Expr | Pred, power: int = 0) -> str:
    """Render an expression or predicate read at ``power``, bracketed if it
    binds looser."""
    if isinstance(tree, IntLit):
        return str(tree.value)
    if isinstance(tree, VarRef):
        return tree.name
    if isinstance(tree, BoolLit):
        return "true" if tree.value else "false"
    if isinstance(tree, Negate):
        return "-" + render_tree(tree.operand, PREFIX_POWER)
    if isinstance(tree, Not):
        return "!" + render_tree(tree.operand, CMP_POWER)
    if isinstance(tree, (And, Or)):
        op = "&&" if isinstance(tree, And) else "||"
    else:
        op = tree.op
    own = BINDING_POWER[op]
    # operators of equal power group to the left, so a right operand of equal
    # power is bracketed
    text = "%s %s %s" % (render_tree(tree.left, own), op, render_tree(tree.right, own + 1))
    # a comparison is bracketed wherever it is an operand, which keeps guards
    # readable
    if own < power or (power and isinstance(tree, Comparison)):
        return "(%s)" % text
    return text


def render_op(op: Operation) -> str:
    if isinstance(op, Assign):
        return "%s := %s" % (op.var, render_tree(op.expr))
    if isinstance(op, AssignNondet):
        return "%s := nondet()" % op.var
    return "[%s]" % render_tree(op.pred)
