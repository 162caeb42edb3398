"""Abstract variable assignments and the strongest-post operator.

An abstract assignment is either Bottom (empty concretization) or a partial
map from variables to arbitrary-precision integers; the empty map is Top.
``evaluate`` computes expressions and predicates alike.  A value is None
(undefined) when it needs a variable outside the definition range, and the
truth of a predicate is True, False or None (Kleene's Unknown).

Assignments are immutable, so the transformers share them: ``sp`` and
``restrict`` return their input when it does not change and otherwise copy
its dict once.  Exploration and interpolation call ``sp`` millions of times,
and most calls change no binding or one.
"""

from __future__ import annotations

import operator
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


class LimitReached(Exception):
    """A run hit one of its limits; ``reason`` is the UNKNOWN reason
    (``"timeout"``, ``"state-limit"`` or ``"value-limit"``)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


#: Bits a product may have.  Squaring in a loop doubles a value's size each
#: time, and one such ``sp`` call can outlast any deadline, so a larger
#: product ends the run UNKNOWN(value-limit).  Every literal ``int()`` parses
#: under its default 4300-digit limit is below the bound.
MAX_VALUE_BITS = 1 << 16


def _multiply(a: int, b: int) -> int:
    product = a * b
    if product.bit_length() > MAX_VALUE_BITS:
        raise LimitReached("value-limit")
    return product


def _divide(a: int, b: int) -> Optional[int]:
    """Quotient truncated toward zero; None on a zero divisor."""
    if b == 0:
        return None
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _remainder(a: int, b: int) -> Optional[int]:
    """``a - b * (a / b)``, so it has the sign of ``a``; None on a zero divisor."""
    q = _divide(a, b)
    return None if q is None else a - b * q


#: What each arithmetic operator and comparison computes from two defined
#: operands.
_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": _multiply,
    "/": _divide,
    "%": _remainder,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def evaluate(tree: Expr | Pred, v: Mapping[str, int]) -> Union[int, bool, None]:
    """The value of an expression, or the truth of a predicate, under ``v``.

    None means undefined: a referenced variable is unbound, a divisor is
    zero, or a predicate is Unknown in Kleene's three-valued logic.  Raises
    LimitReached("value-limit") on a product of more than MAX_VALUE_BITS
    bits.
    """
    cls = type(tree)
    if cls is Comparison or cls is BinaryOp:
        left = evaluate(tree.left, v)
        if left is None:
            return None
        right = evaluate(tree.right, v)
        if right is None:
            return None
        return _OPS[tree.op](left, right)
    if cls is VarRef:
        return v.get(tree.name)
    if cls is IntLit or cls is BoolLit:
        return tree.value
    if cls is And or cls is Or:
        # a side equal to ``decided`` decides the result; evaluation has no
        # side effects, so the other side may be skipped
        decided = cls is Or
        left = evaluate(tree.left, v)
        if left is decided:
            return decided
        right = evaluate(tree.right, v)
        if right is decided:
            return decided
        return None if left is None or right is None else not decided
    inner = evaluate(tree.operand, v)
    if inner is None:
        return None
    return -inner if cls is Negate else not inner


def _conjuncts(p: Pred) -> Iterable[Pred]:
    if isinstance(p, And):
        yield from _conjuncts(p.left)
        yield from _conjuncts(p.right)
    else:
        yield p


def _forced_bindings(p: Pred, v: Mapping[str, int]) -> dict[str, int]:
    """Bindings forced by an assume, extracted from top-level conjuncts.

    Only syntactic equality patterns are considered: ``x == e`` or ``e == x``
    where x is unbound in v and e evaluates under v.  The first binding of a
    name wins; a conjunct that forces another value is False under it.
    """
    bindings: dict[str, int] = {}
    for c in _conjuncts(p):
        if not (isinstance(c, Comparison) and c.op == "=="):
            continue
        for var_side, other_side in ((c.left, c.right), (c.right, c.left)):
            if isinstance(var_side, VarRef) and var_side.name not in v:
                value = evaluate(other_side, v)
                if value is not None:
                    bindings.setdefault(var_side.name, value)
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
        truth = evaluate(op.pred, m)
        if truth is False:
            return BOTTOM
        if truth:
            # an ``x == e`` conjunct with x unbound is Unknown, so a True
            # assume forces no binding
            return v
        forced = _forced_bindings(op.pred, m)
        if not forced:
            return v
        m = dict(m)
        m.update(forced)
        # a conjunct that was Unknown may be False under the forced bindings,
        # among them one that forces a name a value other than the first
        if evaluate(op.pred, m) is False:
            return BOTTOM
        return Assignment._own(m)
    x = op.var
    value = evaluate(op.expr, m) if isinstance(op, Assign) else None  # nondet unbinds
    if m.get(x) == value:  # bound to the same value, or unbound and staying so
        return v
    m = dict(m)
    if value is None:
        del m[x]
    else:
        m[x] = value
    return Assignment._own(m)
