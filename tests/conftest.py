from __future__ import annotations

import sys

import pytest

from prefixselect.engine import Limits, cegar
from prefixselect.frontend import load_cfa
from prefixselect.lang import (
    Assign,
    Assume,
    BinaryOp,
    Comparison,
    IntLit,
    VarRef,
)
from prefixselect.generators import random_program
from prefixselect.paths import Path
from prefixselect.refinement import Heuristic

# the most digits int() converts from a string; 0 means no limit, as on
# Python 3.10.0-3.10.6, and PYTHONINTMAXSTRDIGITS or -X int_max_str_digits
# change it
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    INT_DIGITS == 0, reason="int() converts literals of any length"
)

# the frozen corpus seed: yields >= 500 spurious paths over 80 programs and
# at least one first spurious path with two or more sliced prefixes
CORPUS_SEED = 7


def stack_depth() -> int:
    """Frames on the stack of the caller, counting the caller's own."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def call_at_depth(depth: int, fn, *args):
    """``fn(*args)``, called by a frame ``depth`` frames deep."""
    here = stack_depth()
    assert here < depth, "already %d frames deep" % here
    return _descend(depth - here, fn, args)


def _descend(frames: int, fn, args):
    return fn(*args) if frames == 1 else _descend(frames - 1, fn, args)


def assign(x: str, value: int) -> Assign:
    return Assign(x, IntLit(value))


def assign_expr(x: str, y: str, op: str, c: int) -> Assign:
    return Assign(x, BinaryOp(op, VarRef(y), IntLit(c)))


def assume_cmp(x: str, op: str, c: int) -> Assume:
    return Assume(Comparison(op, VarRef(x), IntLit(c)))


def mkpath(*steps) -> Path:
    return Path(tuple(steps))


def reversed_chain(n: int) -> str:
    """The copies x(k+1) := xk for k = n-2 down to 0, then x0 := 5 and a check
    of the last copy.  Every copy runs against edge order, so a rule that
    re-scans the edges until nothing changes takes n passes, and xk is live
    at about n - k locations: some n * n / 2 (location, variable) pairs."""
    names = ", ".join("x%d" % k for k in range(n))
    copies = " ".join("x%d := x%d;" % (k, k - 1) for k in range(n - 1, 0, -1))
    return "var %s; %s x0 := 5; if (x%d == 7) { error; }" % (names, copies, n - 1)


def harvest_spurious_paths(count: int, heuristics=None, limits=None):
    """Run CEGAR over deterministically generated random programs, collecting
    refuted error paths (with the CFA variable order) until ``count`` paths."""
    heuristics = heuristics or list(Heuristic)
    limits = limits or Limits(200, 100_000)
    out = []
    index = 0
    while len(out) < count and index < 500:
        cfa = load_cfa(random_program(CORPUS_SEED, index))
        for h in heuristics:
            collected = []
            cegar(
                cfa,
                h,
                limits,
                on_refinement=lambda path, result: collected.append((path, result)),
            )
            for path, result in collected:
                out.append((path, result, cfa.variables))
        index += 1
    return out[:count]


@pytest.fixture(scope="session")
def spurious_sample():
    """A modest harvest for module-level property tests; the acceptance suite
    harvests the full 500."""
    return harvest_spurious_paths(120)
