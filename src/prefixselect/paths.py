"""Paths, constraint sequences, sliced-prefix extraction, and the run deadline.

A path is a sequence of (operation, location) pairs.  An infeasible path has
one or more contradicting assume operations; each gives rise to one infeasible
sliced prefix, extracted in a single forward sweep that keeps the running
prefix feasible by replacing contradicting assumes with no-ops; each is a
``Path``, more abstract than the original but still infeasible.  A feasible
path has none, so the sweep is also the feasibility test.

``slice_to_cone`` goes one step further on a sliced prefix: it replaces with
``NOOP`` every step its final contradiction does not depend on (path slicing,
Jhala and Majumdar, PLDI 2005), keeping positions and locations.

``SuffixReplay`` memoises the strongest post of every suffix of one path, for
inductive interpolation, which replays each suffix many times.  Since
``sp(NOOP, v)`` is ``v``, its walks jump over runs of ``NOOP`` and touch only
the other steps, so a sliced prefix replays only its cone.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Sequence

from .lang import NOOP, Assume, Frozen, Operation, op_variables, render_op, set_field
from .values import BOTTOM, TOP, AbstractAssignment, Assignment, LimitReached, sp


#: Steps of a whole-path pass between two readings of the clock.
CLOCK_STRIDE = 4096


def check_deadline(deadline: Optional[float], step: int = 0) -> None:
    """Raise LimitReached("timeout") once ``deadline`` has passed, reading the
    clock only when ``step`` is a multiple of ``CLOCK_STRIDE``."""
    if deadline is not None and step % CLOCK_STRIDE == 0 and time.perf_counter() > deadline:
        raise LimitReached("timeout")


Step = tuple[Operation, int]


class Path(Frozen):
    __slots__ = ("steps",)

    def __init__(self, steps: tuple[Step, ...]):
        set_field(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    @property
    def ops(self) -> tuple[Operation, ...]:
        return tuple(op for op, _ in self.steps)

    @property
    def locations(self) -> tuple[int, ...]:
        return tuple(loc for _, loc in self.steps)


def sp_seq(
    ops: Sequence[Operation], v0: AbstractAssignment = TOP
) -> AbstractAssignment:
    """Fold the strongest-post operator over a constraint sequence."""
    v = v0
    for op in ops:
        v = sp(op, v)
        if v is BOTTOM:
            return BOTTOM
    return v


class SuffixReplay:
    """Memoised ``sp_seq`` over every suffix of one operation sequence.

    The variable set of each suffix, and the position of the first step at
    or after each position that is not ``NOOP``, are computed once, right to
    left.  A walk jumps over runs of ``NOOP``, which leave every value as it
    is.  A walk from ``(pos, v)`` stores its result under every (position,
    assignment) it passed, once it ends in Bottom, at the end of the
    sequence, or at a pair already stored, so later walks that reach a
    visited state stop there; only positions of steps other than ``NOOP`` are
    keys.  A walk reads the clock at its first step and then every
    ``CLOCK_STRIDE`` steps it takes.  The memo lives as long as the replay;
    keep one per path, not longer.
    """

    __slots__ = ("ops", "variables", "next_step", "deadline", "_memo")

    def __init__(self, ops: Sequence[Operation], deadline: Optional[float] = None):
        self.ops = ops = tuple(ops)
        self.deadline = deadline
        # variables[pos] holds the variables of ops[pos:], and next_step[pos]
        # the first position at or after pos whose operation is not NOOP
        suffix_vars: frozenset[str] = frozenset()
        following = len(ops)
        variables = [suffix_vars]
        next_step = [following]
        for pos in reversed(range(len(ops))):
            check_deadline(deadline, len(variables))
            op = ops[pos]
            if op is not NOOP:
                following = pos
                own = op_variables(op)
                if not own <= suffix_vars:
                    suffix_vars = suffix_vars | own
            variables.append(suffix_vars)
            next_step.append(following)
        variables.reverse()
        next_step.reverse()
        self.variables = variables
        self.next_step = next_step
        self._memo: dict[tuple[int, Assignment], AbstractAssignment] = {}

    def sp_from(self, pos: int, v: AbstractAssignment) -> AbstractAssignment:
        """``sp_seq(self.ops[pos:], v)``, through the memo."""
        ops, next_step, memo, deadline = self.ops, self.next_step, self._memo, self.deadline
        end = len(ops)
        pos = next_step[pos]
        trail = []  # its length is the number of steps walked
        while v is not BOTTOM and pos < end:
            check_deadline(deadline, len(trail))
            key = (pos, v)
            hit = memo.get(key)
            if hit is not None:
                v = hit
                break
            trail.append(key)
            v = sp(ops[pos], v)
            pos = next_step[pos + 1]
        for key in trail:
            memo[key] = v
        return v


class Suffix:
    """The operations ``replay.ops[pos:]``, as interpolation reads them: their
    ``variables`` and their ``sp_seq``, both answered from the replay."""

    __slots__ = ("replay", "pos")

    def __init__(self, replay: SuffixReplay, pos: int):
        self.replay = replay
        self.pos = pos

    @property
    def variables(self) -> frozenset[str]:
        return self.replay.variables[self.pos]

    def sp_seq(self, v0: AbstractAssignment = TOP) -> AbstractAssignment:
        return self.replay.sp_from(self.pos, v0)


def extract_sliced_prefixes(path: Path, deadline: Optional[float] = None) -> list[Path]:
    """All infeasible sliced prefixes of a path, in order; ``[]`` exactly
    when the path is feasible.

    Sweeps the path once, maintaining an always-feasible copy: whenever the
    next pair contradicts the copy, the copy extended by that pair is emitted
    as a prefix and the pair's operation is replaced by a no-op in the copy.
    Up to the first contradiction the copy is the path itself, so there is a
    prefix exactly when the path's strongest post is Bottom.  Prefix i holds
    ``NOOP`` at the final positions of the prefixes before it.
    """
    prefixes: list[Path] = []
    feasible_steps: list[Step] = []
    v = TOP
    for pos, (op, loc) in enumerate(path):
        check_deadline(deadline, pos)
        v_next = sp(op, v)
        if v_next is BOTTOM:
            assert isinstance(op, Assume), "only assumes can contradict"
            prefixes.append(Path(tuple(feasible_steps) + ((op, loc),)))
            feasible_steps.append((NOOP, loc))
        else:
            feasible_steps.append((op, loc))
            v = v_next
    return prefixes


def slice_to_cone(path: Path, deadline: Optional[float] = None) -> Path:
    """``path`` with every step outside the backward dependency cone of its
    last step replaced by ``NOOP``, at the same position and location.

    The cone starts with the variables of the last step, which stays.
    Walking backward, an assignment to a cone variable (``x := nondet()``
    too) stays, and the variables its expression reads join the cone; an
    assume that mentions a cone variable stays, since it may force a binding,
    and its variables join the cone.  Variables never leave the cone.  For a
    sliced prefix, whose last step is its one contradiction, interpolation of
    the result gives the interpolants of the prefix itself.  Raises
    LimitReached("timeout") once ``deadline`` passes.
    """
    steps = path.steps
    if not steps:
        return path
    cone = op_variables(steps[-1][0])
    kept = [steps[-1]]
    for op, loc in reversed(steps[:-1]):
        check_deadline(deadline, len(kept))
        if isinstance(op, Assume):
            own = op_variables(op)
            depends = not cone.isdisjoint(own)
        else:
            depends = op.var in cone
            own = op_variables(op) if depends else ()
        if depends:
            cone |= own
            kept.append((op, loc))
        else:
            kept.append((NOOP, loc))
    kept.reverse()
    return Path(tuple(kept))


def render_path(path: Path) -> str:
    """One ``(op, l_k)`` pair per line."""
    return "\n".join("(%s, l%d)" % (render_op(op), loc) for op, loc in path)
