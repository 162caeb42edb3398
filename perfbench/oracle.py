"""A bounded concrete oracle: random walks of a CFA over concrete integers.

It shares only the parser and CFA construction with the checker, not the
abstract domain in ``values.py``.  Each walk starts from random values in
[-10, 10] for every variable, draws every ``nondet()`` from the same range,
follows the one enabled edge (or a random one if several are) and stops at the
error location, at a location with no enabled edge, or after ``MAX_STEPS``.
Reaching the error location proves the program unsafe; never reaching it
proves nothing, so a FALSE verdict the oracle never reproduces is reported as
unconfirmed rather than wrong.
"""

from __future__ import annotations

import hashlib
import random

from prefixselect.frontend import load_cfa
from prefixselect.lang import (
    And,
    Assign,
    AssignNondet,
    BinaryOp,
    BoolLit,
    Comparison,
    IntLit,
    Negate,
    Not,
    Or,
    VarRef,
)

LOW, HIGH = -10, 10
WALKS = 200
MAX_STEPS = 1000

_COMPARE = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _value(e, env, rng):
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, VarRef):
        return env[e.name]
    if isinstance(e, Negate):
        return -_value(e.operand, env, rng)
    assert isinstance(e, BinaryOp), e
    a, b = _value(e.left, env, rng), _value(e.right, env, rng)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if b == 0:
        # the checker leaves the result undefined; any value is possible
        return rng.randint(LOW, HIGH)
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q if e.op == "/" else a - b * q


def _holds(p, env, rng) -> bool:
    if isinstance(p, BoolLit):
        return p.value
    if isinstance(p, Comparison):
        return _COMPARE[p.op](_value(p.left, env, rng), _value(p.right, env, rng))
    if isinstance(p, Not):
        return not _holds(p.operand, env, rng)
    if isinstance(p, And):
        return _holds(p.left, env, rng) and _holds(p.right, env, rng)
    assert isinstance(p, Or), p
    return _holds(p.left, env, rng) or _holds(p.right, env, rng)


def _walk(cfa, rng: random.Random) -> bool:
    env = {x: rng.randint(LOW, HIGH) for x in cfa.variables}
    loc = cfa.initial
    for _ in range(MAX_STEPS):
        if loc == cfa.error:
            return True
        enabled = [
            (op, dst)
            for op, dst in cfa.out_edges(loc)
            if isinstance(op, (Assign, AssignNondet)) or _holds(op.pred, env, rng)
        ]
        if not enabled:
            return False
        op, loc = enabled[0] if len(enabled) == 1 else rng.choice(enabled)
        if isinstance(op, Assign):
            env[op.var] = _value(op.expr, env, rng)
        elif isinstance(op, AssignNondet):
            env[op.var] = rng.randint(LOW, HIGH)
    return loc == cfa.error


class Oracle:
    """Caches one answer per program text; walks are seeded by the text, so
    a program always gets the same answer."""

    def __init__(self):
        self._cache: dict[str, bool] = {}

    def reaches_error(self, text: str) -> bool:
        if text not in self._cache:
            cfa = load_cfa(text)
            rng = random.Random(hashlib.sha256(text.encode()).hexdigest())
            self._cache[text] = cfa.error is not None and any(
                _walk(cfa, rng) for _ in range(WALKS)
            )
        return self._cache[text]
