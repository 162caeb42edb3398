"""Abstract reachability and the CEGAR driver with lazy restart.

Exploration is a worklist over (location, assignment) states with
precision-restricted strongest-post transfer and coverage by implication
against same-location states.  States are stored only at block heads
(``ControlFlowAutomaton.block_edges``): expanding a state walks each block
edge from its location, applying the transfer at every step and stopping at
Bottom, and only the value at the block edge's end becomes a new state.  This
is basic-block encoding, the first step of large-block encoding (Beyer,
Cimatti, Griggio, Keremoglu and Sebastiani, FMCAD 2009).  A state keeps its
block's steps, so a counterexample is still a path of single operations.
On a spurious counterexample the precision is refined and exploration
resumes from the pivot: the states whose chain from the root avoids every
location whose tracked set grew, inner locations of the blocks included, are
kept, and only the work the refinement invalidated is redone (lazy
abstraction, Henzinger, Jhala, Majumdar and Sutre, POPL 2002).

The waitlist is one heap of (priority, push index, state).  A new state is
a candidate on the waitlist, and is checked for coverage and stored when it
leaves it.  An exploration from the root gives a state the number of
operations from the root as its priority, so the first counterexample is a
shortest one in edges.  A resumed exploration gives a state the negated
reverse-postorder rank of its location and so expands the state at the
deepest program point first, ties in push order, so that it heads for the
next counterexample instead of first widening the frontier that the
refinement left.  A stored state is open while its successors may not all
be in the reached set; the waitlist of a resumed exploration is its open
states.  The configurable program analysis algorithm leaves this order open
(Beyer, Henzinger and Théoduloz, CAV 2007); the verdict does not depend on it.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
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

    ``states_created`` counts the states stored in the reached set, which
    sit at block heads only, and ``coverage_hits`` the candidates dropped as
    covered.  Both count only new work: states a refinement leaves valid are
    not created again, and are counted once more in ``states_reused`` at
    every restart that keeps them.
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
    """An abstract state at a block head, reached from ``parent`` by the
    block edge ``steps``, a tuple of (operation, location) pairs that ends at
    ``loc``; the root has no parent and no steps.  ``depth`` is the number of
    operations from the root.

    A state is a candidate from its creation until it leaves the waitlist,
    and is then stored in the reached set unless it is covered.  ``open``
    marks a stored state whose successors may not all be in the reached set;
    a candidate is never open.  It is set when the state is stored and
    cleared when ``reach`` expands it; a candidate dropped as covered sets it
    on its parent again, since the coverer may be pruned later, and so does
    ``prune`` when it removes a successor or drops a candidate."""

    __slots__ = ("loc", "value", "parent", "steps", "depth", "open")

    def __init__(self, loc, value, parent=None, steps=()):
        self.loc = loc
        self.value = value
        self.parent = parent
        self.steps = steps
        self.depth = len(steps) + (parent.depth if parent is not None else 0)
        self.open = False


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

    The waitlist is a heap of (priority, push index, state), so ``pop``
    returns the state of least priority, the earliest pushed among equals.
    It holds candidates and, after ``prune``, the open stored states.  The
    priority is the state's depth until ``prune`` keeps a state; from then
    on it is the negated reverse-postorder rank of the state's location
    (``rank``, from ``refinement.depth_first_search``), so the deepest state
    comes first.
    """

    def __init__(self, rank: Optional[Mapping[int, int]] = None):
        self.rank = rank
        # loc -> domain -> (projection onto the domain, projected values stored)
        self.by_loc: dict[int, dict[frozenset[str], tuple[Callable, set]]] = {}
        self.states: list[State] = []
        self.waitlist: list[tuple[int, int, State]] = []
        self.pushes = 0
        self.resumed = False
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
        """Store ``state`` and mark it open."""
        bindings = state.value.bindings
        domains = self.by_loc.setdefault(state.loc, {})
        domain = frozenset(bindings)
        entry = domains.get(domain)
        if entry is None:
            entry = domains[domain] = (_projection(domain), set())
        entry[1].add(entry[0](bindings))
        state.open = True
        self.states.append(state)

    def push(self, state: State) -> None:
        """Put ``state`` on the waitlist."""
        priority = -self.rank[state.loc] if self.resumed else state.depth
        heappush(self.waitlist, (priority, self.pushes, state))
        self.pushes += 1

    def pop(self) -> State:
        """Take the next state to expand off the waitlist."""
        return heappop(self.waitlist)[2]

    def prune(self, changed: Collection[int]) -> None:
        """Remove the error state and every state whose chain from the root
        enters a location in ``changed``, at a block head or inside a block,
        and drop their keys from the index.

        The kept states are exactly what a fresh exploration under the grown
        precision computes along the same chains, because their values depend
        only on the tracked sets of unchanged locations.  Removing a state
        opens its parent, and so does dropping a candidate from the waitlist.
        The waitlist becomes the open kept states, deepest first.  If the root
        is removed nothing is kept, and the fresh exploration is by depth
        again.
        """
        for _, _, state in self.waitlist:
            if not state.open:
                state.parent.open = True
        removed: set[State] = set()
        kept = []
        for state in self.states:
            if (
                state.parent in removed
                or state is self.error_state
                or state.loc in changed
                or any(loc in changed for _, loc in state.steps)
            ):
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
        self.resumed = bool(kept)
        self.waitlist = []
        self.pushes = 0
        for state in kept:
            if state.open:
                self.push(state)


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

    A candidate that leaves the waitlist is dropped if the reached set
    covers it and stored otherwise; a stored state is expanded along every
    block edge from its location, with ``restrict(sp(op, v), precision.at(l))``
    at each step, and each block edge that does not reach Bottom pushes a
    candidate at its end.  The run stops when a state at the error location
    is stored.
    ``reached``, if given, is a set that ``ReachedSet.prune`` left valid under
    ``precision``; exploration continues from its waitlist, deepest state
    first, and by depth from a fresh root only if the root was pruned.
    ``stats``, if given, collects the states created and the coverage hits.
    Raises LimitReached("state-limit") when the set would hold more than
    max_states stored states, kept and new together, and
    LimitReached("timeout") if ``deadline`` has passed before a state leaves
    the waitlist.
    """
    if stats is None:
        stats = RunStats()
    if reached is None:
        reached = ReachedSet(depth_first_search(cfa)[0])
    if not reached.size:
        root = State(cfa.initial, TOP)
        reached.add(root)
        reached.push(root)
        stats.states_created += 1
        if cfa.error is not None and cfa.initial == cfa.error:
            reached.error_state = root
            return reached, True
    at = precision.at
    while reached.waitlist:
        check_deadline(deadline)
        state = reached.pop()
        if not state.open:
            if reached.covered(state.loc, state.value):
                state.parent.open = True
                stats.coverage_hits += 1
                continue
            if reached.size >= max_states:
                raise LimitReached("state-limit")
            reached.add(state)
            stats.states_created += 1
            if state.loc == cfa.error:
                reached.error_state = state
                return reached, True
        state.open = False
        for block in cfa.block_edges(state.loc):
            value = state.value
            for op, loc in block:
                value = restrict(sp(op, value), at(loc))
                if value is BOTTOM:
                    break
            else:
                reached.push(State(loc, value, state, block))
    return reached, False


def extract_error_path(reached: ReachedSet, deadline: Optional[float] = None) -> Path:
    """Walk the predecessor chain from the error state back to the root and
    expand each block edge on it into its (operation, location) steps."""
    state = reached.error_state
    if state is None:
        raise ValueError("reached set contains no error state")
    blocks = []
    while state.parent is not None:
        check_deadline(deadline, len(blocks))
        blocks.append(state.steps)
        state = state.parent
    return Path(tuple(step for block in reversed(blocks) for step in block))


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
    exploration goes by depth; the fixpoint is the same, only the
    exploration order differs.  One ``depth_first_search`` per run gives the
    location ranks for that order and the strongly connected components that
    ``classify_domain_types`` reads.

    ``timeout`` bounds the run's wall time in seconds: ``reach`` checks it
    before each state it takes off the waitlist, interpolation before each
    cut, and each whole-path pass and the live-range search every
    ``paths.CLOCK_STRIDE`` steps.  A run that hits it, the state limit or the
    value limit (a product of more than ``values.MAX_VALUE_BITS`` bits)
    returns UNKNOWN with the counters so far: ``timeout``, ``state-limit`` or
    ``value-limit``.
    """
    stats = RunStats()
    start = time.perf_counter()
    deadline = None if timeout is None else start + timeout
    rank, component = depth_first_search(cfa)
    table = classify_domain_types(cfa, component)
    precision = Precision()
    verdict: Optional[Verdict] = None
    reached = ReachedSet(rank)
    try:
        live = live_locations(cfa, deadline)
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
