"""Abstract variable assignments and the strongest-post operator.

An abstract assignment is either Bottom (empty concretization) or a partial
map from variables to arbitrary-precision integers; the empty map is Top.
Predicates evaluate three-valued: Unknown whenever a referenced variable is
outside the definition range.

Assignments are immutable, so the transformers share them: ``sp`` and
``restrict`` return their input when it does not change and otherwise copy
its dict once.  Exploration and interpolation call ``sp`` millions of times,
and most calls change no binding or one.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping, Optional, Union

from .lang import (
    And,
    Assign,
    Assume,
    BinaryOp,
    BoolLit,
    Comparison,
    Expr,
    IntLit,
    Negate,
    Not,
    Operation,
    Or,
    Pred,
    VarRef,
)


class _BottomType:
    """The contradicting assignment; a singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "⊥"


BOTTOM = _BottomType()


class Assignment(Mapping[str, int]):
    """Immutable partial map from variable names to integers.

    Lookups, ``in``, ``keys`` and ``items`` go straight to the underlying
    dict; the frozenset of bindings behind ``items_set`` and ``hash`` is built
    on first use only, since most assignments are never hashed.
    """

    __slots__ = ("_m", "_items")

    def __init__(self, mapping: Optional[Mapping[str, int]] = None):
        self._m = dict(mapping) if mapping else {}
        self._items: Optional[frozenset[tuple[str, int]]] = None

    @classmethod
    def _own(cls, m: dict[str, int]) -> "Assignment":
        """Wrap a fresh dict without copying it; the caller must not keep it."""
        a = cls.__new__(cls)
        a._m = m
        a._items = None
        return a

    def __getitem__(self, key: str) -> int:
        return self._m[key]

    def __contains__(self, key) -> bool:
        return key in self._m

    def __iter__(self):
        return iter(self._m)

    def __len__(self):
        return len(self._m)

    def keys(self):
        return self._m.keys()

    def items(self):
        return self._m.items()

    def __eq__(self, other):
        if isinstance(other, Assignment):
            return self._m == other._m
        return NotImplemented

    def __hash__(self):
        return hash(self.items_set)

    def __repr__(self):
        return "Assignment(%r)" % (self._m,)

    @property
    def bindings(self) -> Mapping[str, int]:
        """The underlying dict, for lookups at C speed; never mutate it."""
        return self._m

    @property
    def items_set(self) -> frozenset[tuple[str, int]]:
        items = self._items
        if items is None:
            items = self._items = frozenset(self._m.items())
        return items

    def without(self, names: Iterable[str]) -> "Assignment":
        drop = set(names)
        return Assignment._own({x: c for x, c in self._m.items() if x not in drop})


TOP = Assignment()

AbstractAssignment = Union[Assignment, _BottomType]


class ThreeValued(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


def implies(v: AbstractAssignment, v2: AbstractAssignment) -> bool:
    """v implies v2: v is Bottom, or v agrees with v2 on all of def(v2)."""
    if v is BOTTOM:
        return True
    if v2 is BOTTOM:
        return False
    return v2._m.items() <= v._m.items()


def restrict(v: AbstractAssignment, tracked: Iterable[str]) -> AbstractAssignment:
    """Drop the bindings outside ``tracked``; ``v`` itself when there are none."""
    if v is BOTTOM:
        return BOTTOM
    keep = tracked if isinstance(tracked, (set, frozenset)) else set(tracked)
    m = v._m
    if m.keys() <= keep:
        return v
    return Assignment._own({x: c for x, c in m.items() if x in keep})


def eval_expr(exp: Expr, v: Mapping[str, int]) -> Optional[int]:
    """Evaluate an expression under an assignment.

    Returns None (undefined) when a referenced variable is unbound or a
    division/modulo by zero occurs.  Division truncates toward zero.
    """
    if isinstance(exp, IntLit):
        return exp.value
    if isinstance(exp, VarRef):
        return v[exp.name] if exp.name in v else None
    if isinstance(exp, Negate):
        inner = eval_expr(exp.operand, v)
        return None if inner is None else -inner
    left = eval_expr(exp.left, v)
    right = eval_expr(exp.right, v)
    if left is None or right is None:
        return None
    if exp.op == "+":
        return left + right
    if exp.op == "-":
        return left - right
    if exp.op == "*":
        return left * right
    if right == 0:
        return None
    q = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        q = -q
    if exp.op == "/":
        return q
    return left - right * q  # %


_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_pred(p: Pred, v: Mapping[str, int]) -> ThreeValued:
    """Kleene three-valued evaluation of a predicate under an assignment."""
    if isinstance(p, BoolLit):
        return ThreeValued.TRUE if p.value else ThreeValued.FALSE
    if isinstance(p, Comparison):
        left = eval_expr(p.left, v)
        right = eval_expr(p.right, v)
        if left is None or right is None:
            return ThreeValued.UNKNOWN
        return ThreeValued.TRUE if _CMP[p.op](left, right) else ThreeValued.FALSE
    if isinstance(p, Not):
        inner = eval_pred(p.operand, v)
        if inner is ThreeValued.TRUE:
            return ThreeValued.FALSE
        if inner is ThreeValued.FALSE:
            return ThreeValued.TRUE
        return ThreeValued.UNKNOWN
    left = eval_pred(p.left, v)
    right = eval_pred(p.right, v)
    if isinstance(p, And):
        if left is ThreeValued.FALSE or right is ThreeValued.FALSE:
            return ThreeValued.FALSE
        if left is ThreeValued.TRUE and right is ThreeValued.TRUE:
            return ThreeValued.TRUE
        return ThreeValued.UNKNOWN
    # Or
    if left is ThreeValued.TRUE or right is ThreeValued.TRUE:
        return ThreeValued.TRUE
    if left is ThreeValued.FALSE and right is ThreeValued.FALSE:
        return ThreeValued.FALSE
    return ThreeValued.UNKNOWN


def _conjuncts(p: Pred) -> Iterable[Pred]:
    if isinstance(p, And):
        yield from _conjuncts(p.left)
        yield from _conjuncts(p.right)
    else:
        yield p


def _forced_bindings(p: Pred, v: Mapping[str, int]) -> Union[dict[str, int], _BottomType]:
    """Bindings forced by an assume, extracted from top-level conjuncts.

    Only syntactic equality patterns are considered: ``x == e`` or ``e == x``
    where x is unbound in v and e evaluates under v.  Conflicting forced
    bindings yield Bottom.
    """
    bindings: dict[str, int] = {}
    for c in _conjuncts(p):
        if not (isinstance(c, Comparison) and c.op == "=="):
            continue
        for var_side, other_side in ((c.left, c.right), (c.right, c.left)):
            if isinstance(var_side, VarRef) and var_side.name not in v:
                value = eval_expr(other_side, v)
                if value is not None:
                    if bindings.setdefault(var_side.name, value) != value:
                        return BOTTOM
                    break
    return bindings


def sp(op: Operation, v: AbstractAssignment) -> AbstractAssignment:
    """Strongest-post transformer of one operation.

    Returns ``v`` itself when the operation changes no binding, and otherwise
    copies its dict once.
    """
    if v is BOTTOM:
        return BOTTOM
    m = v._m
    if isinstance(op, Assume):
        truth = eval_pred(op.pred, m)
        if truth is ThreeValued.FALSE:
            return BOTTOM
        if truth is ThreeValued.TRUE:
            # an ``x == e`` conjunct with x unbound is Unknown, so a True
            # assume forces no binding
            return v
        forced = _forced_bindings(op.pred, m)
        if forced is BOTTOM:
            return BOTTOM
        if not forced:
            return v
        m = dict(m)
        m.update(forced)
        # a conjunct that was Unknown may be False under the forced bindings
        if eval_pred(op.pred, m) is ThreeValued.FALSE:
            return BOTTOM
        return Assignment._own(m)
    x = op.var
    value = eval_expr(op.expr, m) if isinstance(op, Assign) else None  # nondet unbinds
    if m.get(x) == value:  # bound to the same value, or unbound and staying so
        return v
    m = dict(m)
    if value is None:
        del m[x]
    else:
        m[x] = value
    return Assignment._own(m)


def render_assignment(v: AbstractAssignment, var_order: Iterable[str]) -> str:
    """Stable textual rendering: ``⊥`` or ``{x=1, y=2}`` in declaration order."""
    if v is BOTTOM:
        return "⊥"
    parts = ["%s=%d" % (x, v[x]) for x in var_order if x in v]
    return "{%s}" % ", ".join(parts)
