"""Interpolation for contradicting constraint sequences, solver-free.

An interpolant is an abstract assignment: Top is trivial, Bottom refutes, and
a map stands for the conjunction of equalities ``[x == c]``.  The engine is
deliberately a fixed black box: bindings of variables the second side never
reads are dropped, then the rest are greedily eliminated in lexicographic
order.  The caller cannot steer it; refinement quality has to come from
choosing the interpolation problem, not from tuning this engine.

Inductive interpolation stays in the assignment domain (explicit-value
interpolation, Beyer and Löwe, FASE 2013): each cut starts from the previous
interpolant as an assignment and folds in the next operation.

An interpolant sequence calls the engine only at cuts where the interpolant
can change; at the others the engine provably returns the previous
interpolant, which the sequence keeps without a call (``interpolant_sequence``
gives the rule and a sketch of the proof).  On the flag/loop family that
leaves a constant number of calls for every loop bound.

Each call replays the suffix after its cut several times: once for the
contract check and once per elimination trial.  Those replays share one memo
per path (``paths.SuffixReplay``), and the variable set of each suffix is
computed once.  A sequence then costs time linear in the path length only
where the walks from successive cuts meet in the memo, as on the flag/loop
family; where each walk carries bindings of its own to the end of the path,
as on the checks family (``generators.checks_program``), it stays quadratic.
A prefix sliced to its contradiction's cone (``paths.slice_to_cone``) replays
only the cone, since the walks jump over ``NOOP``, so there the cost follows
the cone's length, not the path's.  The memo only answers the strongest post
the plain replay would compute; the engine itself is unchanged.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .lang import NOOP, Assume, Frozen, Operation, op_variables, set_field
from .paths import Path, Suffix, SuffixReplay, check_deadline, sp_seq
from .values import BOTTOM, TOP, AbstractAssignment, Assignment, implies


class InterpolationError(ValueError):
    """Contract violation: the inputs do not jointly contradict."""


def seq_variables(ops: Sequence[Operation]) -> set[str]:
    out: set[str] = set()
    for op in ops:
        out |= op_variables(op)
    return out


def interpolate(
    gamma_minus: Sequence[Operation],
    gamma_plus: Sequence[Operation] | Suffix,
    v0: AbstractAssignment = TOP,
) -> AbstractAssignment:
    """Interpolant for ``v0`` and ``gamma_minus`` against ``gamma_plus``,
    which must jointly contradict.

    Guarantees: (1) v0 and gamma_minus imply the result, (2) the result still
    contradicts gamma_plus, (3) the result only mentions variables of ``v0``
    or gamma_minus that gamma_plus mentions.  Deterministic: fixed
    elimination order.

    ``gamma_plus`` may be a ``paths.Suffix``; its replays then go through the
    memo of the path it views.
    """
    if not isinstance(gamma_plus, Suffix):
        gamma_plus = Suffix(SuffixReplay(gamma_plus), 0)
    v = sp_seq(gamma_minus, v0)
    if gamma_plus.sp_seq(v) is not BOTTOM:
        raise InterpolationError("constraint sequences are not contradicting")
    if v is BOTTOM:
        return BOTTOM
    # sp binds only names of v0 and gamma_minus, so this keeps the shared ones
    shared = gamma_plus.variables
    kept = {x: c for x, c in v.items() if x in shared}
    # dropping variables gamma_plus never reads cannot lose the contradiction
    assert gamma_plus.sp_seq(Assignment(kept)) is BOTTOM
    for x in sorted(kept):
        trial = dict(kept)
        del trial[x]
        if gamma_plus.sp_seq(Assignment(trial)) is BOTTOM:
            kept = trial
    return Assignment(kept)


class InterpolantSequence(Frozen):
    """Per-position interpolants for one path.

    ``entries[i]`` is (position, location, interpolant) for the cut after the
    path's first ``position + 1`` operations; positions run 0..w-2.  Keyed by
    position rather than location because locations repeat on looping paths.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int, AbstractAssignment], ...]):
        set_field(self, "entries", entries)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for _, _, gamma in self.entries:
            if gamma is not BOTTOM:
                out |= set(gamma)
        return out


def _engine_returns_previous(
    op: Operation, gamma: Assignment, shared: frozenset[str]
) -> bool:
    """Whether ``interpolate((op,), suffix, gamma)`` provably returns
    ``gamma``, where ``gamma`` is the previous cut's interpolant and
    ``shared`` the variables of ``suffix``, the rest of the path after ``op``.

    A ``NOOP`` leaves ``gamma`` as it is and reads nothing.  An assume, or an
    assignment to a name ``gamma`` does not bind, only adds bindings; if the
    post is not Bottom, ``gamma`` is all of it the suffix reads, and every
    name of ``gamma`` is read, the engine's filter keeps exactly ``gamma``.
    """
    if op is NOOP:
        return True
    if not isinstance(op, Assume) and op.var in gamma:
        return False
    post = sp_seq((op,), gamma)
    if post is BOTTOM or not gamma.keys() <= shared:
        return False
    return shared.isdisjoint(post.keys() - gamma.keys())


def interpolant_sequence(
    path: Path, deadline: Optional[float] = None
) -> tuple[InterpolantSequence, int]:
    """Inductive interpolation along an infeasible path.

    Each step folds the next operation into the previous interpolant, kept as
    an assignment, and interpolates that against the remaining suffix.
    Returns the sequence and the number of ``interpolate`` calls made.  Stops
    early if the interpolant turns Bottom (the path is refuted before its
    last operation).

    The engine is called only at cuts where its answer can differ from the
    previous interpolant g, Top before the first cut; elsewhere the entry is
    g (``_engine_returns_previous`` says where).  Why a skipped cut gets the
    engine's answer:

    - g contradicts the suffix from the cut before, so the post of g
      contradicts the suffix, and the shared-variable filter keeps g itself.
    - No binding x of g can go either.  The greedy pass that kept x found
      that the suffix from the cut before does not refute a superset of g
      without x.  ``sp`` is monotone (if a implies b, then sp(op, a) implies
      sp(op, b)), so that suffix does not refute g without x; the skipped
      operation only adds bindings to g without x, so the suffix after it
      does not refute that either.
    - Both facts hold again at the next cut, so skips chain.

    Before the first call g is Top, and a skipped operation binds no name
    the rest of the path reads, so the rest is infeasible from Top exactly
    when the path is.  The first call therefore carries the engine's check
    that the path is infeasible; when every earlier cut is skipped, the last
    cut makes it.

    Every cut hands ``interpolate`` a view of the same ``SuffixReplay``, so
    suffix replays are memoised per path, jump over ``NOOP``, and each
    suffix's variables are computed once: the cost is linear in path length
    where the replays meet in the memo (see the module docstring).  The black
    box is the same (same shared-variable filter, same lexicographic
    elimination order), hence the interpolants are the same as interpolating
    each cut on its own.  The memo is freed when this call returns.

    Raises LimitReached("timeout") once ``deadline`` passes: it is checked
    before each cut and along the replay's walks.
    """
    replay = SuffixReplay(path.ops, deadline)
    ops = replay.ops
    locations = path.locations
    gamma: AbstractAssignment = TOP
    entries = []
    calls = 0
    last = len(ops) - 2
    for i in range(last + 1):
        check_deadline(deadline)
        op = ops[i]
        # the first call checks that the path is infeasible, so one is made
        if (calls == 0 and i == last) or not _engine_returns_previous(
            op, gamma, replay.variables[i + 1]
        ):
            gamma = interpolate((op,), Suffix(replay, i + 1), gamma)
            calls += 1
        entries.append((i, locations[i], gamma))
        if gamma is BOTTOM:
            break
    return InterpolantSequence(tuple(entries)), calls


def check_interpolant(
    gamma: AbstractAssignment,
    gamma_minus: Sequence[Operation],
    gamma_plus: Sequence[Operation],
) -> bool:
    """Independent check of the three interpolant conditions via SP."""
    if not implies(sp_seq(gamma_minus), gamma):
        return False
    if sp_seq(gamma_plus, gamma) is not BOTTOM:
        return False
    if gamma is BOTTOM:
        return True
    shared = seq_variables(gamma_minus) & seq_variables(gamma_plus)
    return set(gamma) <= shared
