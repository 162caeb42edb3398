"""Formula trees and edge operations for the toy imperative integer language.

Expressions and predicates are immutable trees over arbitrary-precision
integers.  Edge operations (assignment, nondeterministic assignment, assume)
label control-flow edges; a no-op is literally ``assume(true)`` so the two
compare equal wherever paths are compared.
"""

from __future__ import annotations

from typing import Union

#: How ``__init__`` writes a field of a ``Frozen`` record.
set_field = object.__setattr__


class Frozen:
    """Immutable record: the base of every tree node and operation, and of
    the package's other immutable records.

    The fields are the names in ``__slots__`` that do not start with ``_``; a
    ``_`` slot holds data derived from the fields.  ``__init__`` sets each
    slot with ``set_field``, and any later write or delete raises
    AttributeError.  Two records are equal when they have the same type and
    equal fields, and a record hashes as the tuple of its fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(["%s=%r" % item for item in zip(self._fields, self._values())])
        return "%s(%s)" % (type(self).__name__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__, which
        # rejects them; rebuild through __init__ instead
        return type(self), self._values()


# --- expressions ------------------------------------------------------------


class IntLit(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: int):
        set_field(self, "value", value)


class VarRef(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class BinaryOp(Frozen):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        set_field(self, "op", op)  # one of + - * / %
        set_field(self, "left", left)
        set_field(self, "right", right)


class Negate(Frozen):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        set_field(self, "operand", operand)


Expr = Union[IntLit, VarRef, BinaryOp, Negate]


# --- predicates -------------------------------------------------------------


class BoolLit(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        set_field(self, "value", value)


class Comparison(Frozen):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        set_field(self, "op", op)  # one of == != < <= > >=
        set_field(self, "left", left)
        set_field(self, "right", right)


class And(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left: Pred, right: Pred):
        set_field(self, "left", left)
        set_field(self, "right", right)


class Or(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left: Pred, right: Pred):
        set_field(self, "left", left)
        set_field(self, "right", right)


class Not(Frozen):
    __slots__ = ("operand",)

    def __init__(self, operand: Pred):
        set_field(self, "operand", operand)


Pred = Union[BoolLit, Comparison, And, Or, Not]

TRUE = BoolLit(True)
FALSE = BoolLit(False)


# --- operations -------------------------------------------------------------


class Assign(Frozen):
    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: Expr):
        set_field(self, "var", var)
        set_field(self, "expr", expr)


class AssignNondet(Frozen):
    __slots__ = ("var",)

    def __init__(self, var: str):
        set_field(self, "var", var)


class Assume(Frozen):
    __slots__ = ("pred",)

    def __init__(self, pred: Pred):
        set_field(self, "pred", pred)


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
