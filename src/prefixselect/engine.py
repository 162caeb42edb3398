"""Abstract reachability and the CEGAR driver with lazy restart.

Exploration is a worklist over (location, assignment) states with
precision-restricted strongest-post transfer and coverage by implication
against same-location states.  On a spurious counterexample the precision is
refined and exploration resumes from the pivot: the states whose chain from
the root avoids every location whose tracked set grew are kept, and only the
work the refinement invalidated is redone (lazy abstraction, Henzinger,
Jhala, Majumdar and Sutre, POPL 2002).

The waitlist is one heap of (priority, creation index, state).  An
exploration from the root gives every state priority 0, so it is
breadth-first and the first counterexample is a shortest one.  A resumed
exploration gives a state the negated reverse-postorder rank of its location
and so expands the state at the deepest program point first, ties in
creation order, so that it heads for the next counterexample instead of
first widening the frontier that the refinement left.  A state is open while
its successors may not all be in the reached set; the waitlist of a resumed
exploration is its open states.  The configurable program analysis
algorithm leaves this order open (Beyer, Henzinger and Théoduloz, CAV 2007);
the verdict does not depend on it.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Callable, Collection, Mapping, Optional

from .frontend import ControlFlowAutomaton
from .lang import Frozen, set_field
from .paths import LimitReached, Path, check_deadline, extract_sliced_prefixes
from .refinement import (
    Heuristic,
    Precision,
    RefinementResult,
    check_refinement_progress,
    classify_domain_types,
    depth_first_search,
    live_locations,
    refine_selecting,
    widen_to_live_ranges,
)
from .values import BOTTOM, TOP, Assignment, restrict, sp


class Limits(Frozen):
    __slots__ = ("max_refinements", "max_states")

    def __init__(self, max_refinements: int = 200, max_states: int = 1_000_000):
        set_field(self, "max_refinements", max_refinements)
        set_field(self, "max_states", max_states)


class RunStats:
    """Counters of one ``cegar`` run.

    ``states_created`` and ``coverage_hits`` count only new work: states a
    refinement leaves valid are not created again, and are counted once more
    in ``states_reused`` at every restart that keeps them.
    ``precision_size`` is the number of tracked (location, variable) pairs
    when the run ends.  ``rounds`` holds one dict per finished refinement:
    the number of sliced prefixes of the refuted path (``prefixes``, under
    every heuristic, ``classic`` too), the index and score of the prefix the
    heuristic chose (``chosen_index``, ``chosen_score``; ``classic``
    interpolates the whole path and chooses none, so they are None), and the
    precision size after the refinement (``precision_size``).
    ``prefixes_total`` sums the rounds' ``prefixes``.
    ``interpolation_calls`` counts calls of the interpolation engine, not
    cuts: a cut where the engine provably returns the previous interpolant
    makes no call (``interpolation.interpolant_sequence``).
    ``__slots__`` lists the counters in the order ``verify --format json``
    prints them.
    """

    __slots__ = (
        "refinements",
        "prefixes_total",
        "interpolation_calls",
        "states_created",
        "coverage_hits",
        "states_reused",
        "precision_size",
        "rounds",
        "duration_ms",
    )

    def __init__(self):
        self.refinements = 0
        self.prefixes_total = 0
        self.interpolation_calls = 0
        self.states_created = 0
        self.coverage_hits = 0
        self.states_reused = 0
        self.precision_size = 0
        self.rounds: list[dict[str, Optional[int]]] = []
        self.duration_ms = 0.0


class Verdict(Frozen):
    __slots__ = ("kind", "witness", "reason")

    def __init__(
        self, kind: str, witness: Optional[Path] = None, reason: Optional[str] = None
    ):
        set_field(self, "kind", kind)  # "TRUE" | "FALSE" | "UNKNOWN"
        set_field(self, "witness", witness)
        set_field(self, "reason", reason)

    def render(self) -> str:
        if self.kind == "UNKNOWN":
            return "UNKNOWN(%s)" % self.reason
        return self.kind


class State:
    """``open`` marks a state whose successors may not all be in the reached
    set.  It is set when the state is created and cleared when ``reach`` pops
    it; an expansion that drops a successor as covered sets it again, since
    the coverer may be pruned later, and so does ``prune`` when it removes a
    successor."""

    __slots__ = ("loc", "value", "parent", "op_in", "open")

    def __init__(self, loc, value, parent=None, op_in=None):
        self.loc = loc
        self.value = value
        self.parent = parent
        self.op_in = op_in
        self.open = True


class ReachedSet:
    """States indexed by location, plus the waitlist of states to expand.

    Coverage is implication against an existing state at the same location,
    which for assignments is the subset relation on binding sets.  The stored
    assignments of a location are grouped by domain (the frozenset of bound
    names); a stored assignment with domain D is implied by ``value`` exactly
    when D is a subset of def(value) and ``value`` projected onto D equals it,
    because an assignment binds each name once.  A probe therefore costs one
    subset test and at most one hash lookup per domain at the location,
    O(#domains x |def|).  ``states`` holds every stored state in creation
    order, so a parent always precedes its children.

    The waitlist is a heap of (priority, creation index, state), so ``pop``
    returns the state of least priority, the earliest created among equals.
    The priority is 0, which makes the order first-in first-out, until
    ``prune`` keeps a state; from then on it is the negated reverse-postorder
    rank of the state's location (``rank``, from
    ``refinement.depth_first_search``), so the deepest state comes first.
    """

    def __init__(self, rank: Optional[Mapping[int, int]] = None):
        self.rank = rank
        # loc -> domain -> (projection onto the domain, projected values stored)
        self.by_loc: dict[int, dict[frozenset[str], tuple[Callable, set]]] = {}
        self.states: list[State] = []
        self.waitlist: list[tuple[int, int, State]] = []
        self.priority: Mapping[int, int] = {}  # loc -> priority; 0 if absent
        self.error_state: Optional[State] = None

    @property
    def size(self) -> int:
        return len(self.states)

    def covered(self, loc: int, value: Assignment) -> bool:
        domains = self.by_loc.get(loc)
        if not domains:
            return False
        bindings = value.bindings
        names = bindings.keys()
        for domain, (project, stored) in domains.items():
            if names >= domain and project(bindings) in stored:
                return True
        return False

    def add(self, state: State) -> None:
        bindings = state.value.bindings
        domains = self.by_loc.setdefault(state.loc, {})
        domain = frozenset(bindings)
        entry = domains.get(domain)
        if entry is None:
            entry = domains[domain] = (_projection(domain), set())
        entry[1].add(entry[0](bindings))
        heappush(self.waitlist, (self.priority.get(state.loc, 0), len(self.states), state))
        self.states.append(state)

    def pop(self) -> State:
        """Take the next state to expand off the waitlist."""
        return heappop(self.waitlist)[2]

    def prune(self, changed: Collection[int]) -> None:
        """Remove the error state and every state whose chain from the root
        enters a location in ``changed``, and drop their keys from the index.

        The kept states are exactly what a fresh exploration under the grown
        precision computes along the same chains, because their values depend
        only on the tracked sets of unchanged locations.  Removing a state
        opens its parent, and the waitlist becomes the open kept states,
        deepest first.  If the root is removed nothing is kept, and the
        priority is 0 again for the fresh exploration.
        """
        removed: set[State] = set()
        kept = []
        for state in self.states:
            if state.loc in changed or state.parent in removed or state is self.error_state:
                removed.add(state)
                if state.parent is not None:
                    state.parent.open = True
                bindings = state.value.bindings
                domains = self.by_loc[state.loc]
                domain = frozenset(bindings)
                project, stored = domains[domain]
                stored.discard(project(bindings))
                if not stored:
                    del domains[domain]
            else:
                kept.append(state)
        self.states = kept
        self.error_state = None
        self.priority = {loc: -r for loc, r in self.rank.items()} if kept else {}
        self.waitlist = [(self.priority[s.loc], i, s) for i, s in enumerate(kept) if s.open]
        heapify(self.waitlist)


def _projection(domain: frozenset[str]) -> Callable[[Mapping[str, int]], object]:
    """Key of the values a binding map gives ``domain``'s names: one value for
    one name, a tuple in sorted name order for more."""
    if not domain:
        return lambda bindings: ()
    return itemgetter(*sorted(domain))


def reach(
    cfa: ControlFlowAutomaton,
    precision: Precision,
    max_states: int,
    stats: Optional[RunStats] = None,
    reached: Optional[ReachedSet] = None,
    deadline: Optional[float] = None,
) -> tuple[ReachedSet, bool]:
    """Explore abstract states under a precision until the error location is
    reached or the frontier empties.

    ``reached``, if given, is a set that ``ReachedSet.prune`` left valid under
    ``precision``; exploration continues from its waitlist, deepest state
    first, and breadth-first from a fresh root only if the root was pruned.
    ``stats``, if given, collects the states created and the coverage hits.
    Raises LimitReached("state-limit") when the set would hold more than
    max_states states, kept and new together, and LimitReached("timeout") if
    ``deadline`` has passed before a state is expanded.
    """
    if stats is None:
        stats = RunStats()
    if reached is None:
        reached = ReachedSet(depth_first_search(cfa)[0])
    if not reached.size:
        root = State(cfa.initial, TOP)
        reached.add(root)
        stats.states_created += 1
        if cfa.error is not None and cfa.initial == cfa.error:
            reached.error_state = root
            return reached, True
    while reached.waitlist:
        check_deadline(deadline)
        state = reached.pop()
        state.open = False
        for op, dst in cfa.out_edges(state.loc):
            value = restrict(sp(op, state.value), precision.at(dst))
            if value is BOTTOM:
                continue
            if reached.covered(dst, value):
                state.open = True
                stats.coverage_hits += 1
                continue
            successor = State(dst, value, state, op)
            if reached.size >= max_states:
                raise LimitReached("state-limit")
            reached.add(successor)
            stats.states_created += 1
            if dst == cfa.error:
                reached.error_state = successor
                return reached, True
    return reached, False


def extract_error_path(reached: ReachedSet, deadline: Optional[float] = None) -> Path:
    """Walk the predecessor chain from the error state back to the root."""
    state = reached.error_state
    if state is None:
        raise ValueError("reached set contains no error state")
    steps = []
    while state.parent is not None:
        check_deadline(deadline, len(steps))
        steps.append((state.op_in, state.loc))
        state = state.parent
    steps.reverse()
    return Path(tuple(steps))


class RefinementProgressError(AssertionError):
    """A refinement failed to exclude the path it was derived from."""


def cegar(
    cfa: ControlFlowAutomaton,
    heuristic: Heuristic = Heuristic.DOMAIN_TYPE,
    limits: Limits = Limits(),
    on_refinement: Optional[Callable[[Path, RefinementResult], None]] = None,
    timeout: Optional[float] = None,
) -> tuple[Verdict, RunStats]:
    """CEGAR loop with lazy restart after each refinement.

    Starts from the empty precision.  Each counterexample is swept once for
    its sliced prefixes; it is feasible, and the verdict FALSE, if there are
    none.  Otherwise ``refine_selecting`` gets the counterexample and its
    prefixes, and the per-path precision it returns is widened to the live
    ranges of its variables (``widen_to_live_ranges``), checked to exclude
    that path, and unioned pointwise into the running precision.
    Where a full restart would explore again from the root, the reached set
    is pruned to the states that avoid every location whose tracked set grew,
    and ``reach`` resumes from it, deepest state first, where the first
    exploration is breadth-first; the fixpoint is the same, only the
    exploration order differs.  Location ranks for that order
    (``depth_first_search``) are computed once per run.

    ``timeout`` bounds the run's wall time in seconds: ``reach`` checks it
    before each state it expands, interpolation before each cut, and each
    whole-path pass every ``paths.CLOCK_STRIDE`` steps.  A run that hits it,
    the state limit or the value limit (a product of more than
    ``values.MAX_VALUE_BITS`` bits) returns UNKNOWN with the counters so far:
    ``timeout``, ``state-limit`` or ``value-limit``.
    """
    stats = RunStats()
    start = time.perf_counter()
    deadline = None if timeout is None else start + timeout
    table = classify_domain_types(cfa)
    live = live_locations(cfa)
    precision = Precision()
    verdict: Optional[Verdict] = None
    reached = ReachedSet(depth_first_search(cfa)[0])
    try:
        while True:
            reached, hit = reach(
                cfa, precision, limits.max_states, stats, reached, deadline
            )
            if not hit:
                verdict = Verdict("TRUE")
                break
            sigma = extract_error_path(reached, deadline)
            prefixes = extract_sliced_prefixes(sigma, deadline)
            if not prefixes:
                verdict = Verdict("FALSE", witness=sigma)
                break
            if stats.refinements >= limits.max_refinements:
                verdict = Verdict("UNKNOWN", reason="refinement-limit")
                break
            result = refine_selecting(sigma, prefixes, heuristic, table, deadline)
            widened = widen_to_live_ranges(result.precision, cfa, live)
            if not check_refinement_progress(sigma, widened, deadline):
                raise RefinementProgressError(
                    "refined precision does not exclude the refuted path"
                )
            if on_refinement is not None:
                on_refinement(sigma, result)
            refined = precision.union(widened)
            changed = {
                loc
                for loc, names in refined.tracked.items()
                if names != precision.at(loc)
            }
            precision = refined
            reached.prune(changed)
            stats.states_reused += reached.size
            stats.refinements += 1
            stats.prefixes_total += len(prefixes)
            stats.interpolation_calls += result.interpolation_calls
            stats.rounds.append(
                {
                    "prefixes": len(prefixes),
                    "chosen_index": result.chosen_index,
                    "chosen_score": result.chosen_score,
                    "precision_size": precision.total_size(),
                }
            )
    except LimitReached as exc:
        verdict = Verdict("UNKNOWN", reason=exc.reason)
    stats.precision_size = precision.total_size()
    stats.duration_ms = (time.perf_counter() - start) * 1000.0
    return verdict, stats
