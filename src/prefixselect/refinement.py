"""Precision refinement from infeasible error paths.

Both strategies run the same inductive interpolation and differ only in the
path they hand it: the classic heuristic interpolates the whole error path,
while selection interpolates each of its infeasible sliced prefixes (each a
``Path`` itself) independently, and picks one by a heuristic.  The domain-type heuristic
scores interpolant sequences by how expensive their variables are to track
(booleans cheap, loop counters dear).

Selection hands the interpolator each prefix sliced to the dependency cone of
its contradiction (``paths.slice_to_cone``; path slicing, Jhala and Majumdar,
PLDI 2005).  All of a sliced prefix but its last step is feasible, so a replay
from a cut never turns an assume outside the cone False, and whether the last
one does depends on the cone alone: the interpolants are those of the whole
prefix, and the replays touch only the cone.  The classic heuristic's error
path stays whole.  It may contradict in more than one place, and a replay past
the first contradiction can take a binding that a later assume outside the
cone refutes, so slicing could change its interpolants.

A refinement yields a per-path precision: each variable an interpolant
references, at the location of that interpolant.  ``widen_to_live_ranges``
maps it to the precision the analysis uses: a variable tracked at location l
is also tracked at every location forward-reachable from l where it is live
(per-location explicit-value precisions, Beyer and Löwe, FASE 2013, widened
by classical liveness).  Interpolants and prefix selection do not change.
"""

from __future__ import annotations

import enum
from typing import Mapping, Optional, Sequence

from .frontend import ControlFlowAutomaton
from .lang import (
    Assign,
    AssignNondet,
    Assume,
    BinaryOp,
    Comparison,
    Frozen,
    IntLit,
    Pred,
    VarRef,
    set_field,
    tree_variables,
)
from .interpolation import InterpolantSequence, interpolant_sequence
from .paths import Path, check_deadline, slice_to_cone
from .values import BOTTOM, TOP, AbstractAssignment, restrict, sp


class Heuristic(enum.Enum):
    CLASSIC = "classic"
    PREFIX_SHORTEST = "prefix-shortest"
    PREFIX_LONGEST = "prefix-longest"
    DOMAIN_TYPE = "domain-type"


class DomainType(enum.Enum):
    BOOLEAN = "boolean"
    LOOP_COUNTER = "loop-counter"
    INTEGER_OTHER = "integer-other"


#: Lower is better; any strictly ordered weights realize the same preference.
SCORE_WEIGHTS = {
    DomainType.BOOLEAN: 1,
    DomainType.INTEGER_OTHER: 10,
    DomainType.LOOP_COUNTER: 100,
}


class Precision(Frozen):
    """Per-location sets of tracked variables; empty everywhere by default."""

    __slots__ = ("tracked",)

    def __init__(self, tracked: Optional[Mapping[int, frozenset[str]]] = None):
        set_field(self, "tracked", {} if tracked is None else tracked)

    def at(self, loc: int) -> frozenset[str]:
        return self.tracked.get(loc, frozenset())

    def union(self, other: "Precision") -> "Precision":
        merged = dict(self.tracked)
        for loc, names in other.tracked.items():
            merged[loc] = merged.get(loc, frozenset()) | names
        return Precision(merged)

    def total_size(self) -> int:
        return sum(len(s) for s in self.tracked.values())


# --- domain-type classification ----------------------------------------------


def _is_counter_update(op: Assign) -> bool:
    """x := x + c, x := c + x or x := x - c, c a literal."""
    e = op.expr
    if not (isinstance(e, BinaryOp) and e.op in ("+", "-")):
        return False
    x, c = e.left, e.right
    if e.op == "+" and isinstance(x, IntLit):
        x, c = c, x
    return isinstance(x, VarRef) and x.name == op.var and isinstance(c, IntLit)


def _direct_comparisons(p: Pred):
    """Yield (var, other_side) for every VarRef appearing as a bare side of an
    ==/!= comparison, and (var, None) for every other occurrence."""
    stack = [p]
    while stack:
        node = stack.pop()
        if isinstance(node, Comparison):
            if node.op in ("==", "!="):
                for side, other in ((node.left, node.right), (node.right, node.left)):
                    if isinstance(side, VarRef):
                        yield side.name, other
                    else:
                        for x in tree_variables(side):
                            yield x, None
            else:
                for side in (node.left, node.right):
                    for x in tree_variables(side):
                        yield x, None
        elif hasattr(node, "left"):
            stack.append(node.left)
            stack.append(node.right)
        elif hasattr(node, "operand"):
            stack.append(node.operand)


def depth_first_search(
    cfa: ControlFlowAutomaton,
) -> tuple[dict[int, int], dict[int, int]]:
    """One depth-first search from the initial location, then from each
    location not yet reached in location order, that follows out-edges in
    edge order.  Returns each location's rank in the search's reverse
    postorder, and its strongly connected component (Tarjan's algorithm),
    named by one of its locations.

    Across every edge other than a back edge the rank grows, so a higher
    rank is a deeper program point.  Every location gets a rank, also one the
    initial location does not reach (a CFA from ``load_cfa`` has none).
    Iterative, so that a long chain of locations cannot exhaust the recursion
    limit."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    component: dict[int, int] = {}
    pending: list[int] = []  # searched locations whose component is not yet known
    postorder: list[int] = []
    for root in (cfa.initial, *cfa.locations):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        pending.append(root)
        work = [(root, iter(cfa.out_edges(root)))]  # search path: location, edges left
        while work:
            loc, edges = work[-1]
            for _, dst in edges:
                if dst not in index:
                    index[dst] = low[dst] = len(index)
                    pending.append(dst)
                    work.append((dst, iter(cfa.out_edges(dst))))
                    break
                if dst not in component:
                    low[loc] = min(low[loc], index[dst])
            else:
                work.pop()
                postorder.append(loc)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[loc])
                if low[loc] == index[loc]:
                    while True:
                        member = pending.pop()
                        component[member] = loc
                        if member == loc:
                            break
    top = len(postorder) - 1
    return {loc: top - i for i, loc in enumerate(postorder)}, component


def classify_domain_types(
    cfa: ControlFlowAutomaton, component: Mapping[int, int]
) -> dict[str, DomainType]:
    """Classify every declared variable as boolean, loop counter, or other,
    given each location's strongly connected component (``component``, as
    ``depth_first_search`` returns it).

    Loop counter: an x := x ± literal update on an edge inside a cyclic
    strongly connected component of the CFA, one of whose inner edges also
    carries an assume mentioning x.  Boolean: all assignments are 0/1 literals
    or copies of booleans, all predicate occurrences are ==/!= against 0/1 or
    booleans (greatest fixpoint).  Precedence: loop counter > boolean > other.

    One pass over the edges collects the (component, variable) pairs of
    updates and of guards, the names known not to be boolean, and for each
    name y the names that are boolean only if y is; a worklist then takes
    every name out of the boolean set once something it needs is not in it.
    """
    updates: set[tuple[int, str]] = set()
    guards: set[tuple[int, str]] = set()
    not_boolean: set[str] = set()
    needed_by: dict[str, list[str]] = {}

    def boolean_if(x: str, other) -> None:
        # x is boolean only if ``other`` is a 0/1 literal or a boolean name
        if isinstance(other, VarRef):
            needed_by.setdefault(other.name, []).append(x)
        elif not (isinstance(other, IntLit) and other.value in (0, 1)):
            not_boolean.add(x)

    for src, op, dst in cfa.edges:
        # an edge whose ends share a component lies on a cycle of that component
        inner = component[src] == component[dst]
        if isinstance(op, Assume):
            for x, other in _direct_comparisons(op.pred):
                boolean_if(x, other)
            if inner:
                guards.update((component[src], x) for x in tree_variables(op.pred))
        elif isinstance(op, AssignNondet):
            not_boolean.add(op.var)
        else:
            boolean_if(op.var, op.expr)
            if inner and _is_counter_update(op):
                updates.add((component[src], op.var))
    loop_counters = {x for _, x in updates & guards}
    boolean = set(cfa.variables) - not_boolean
    work = [y for y in needed_by if y not in boolean]
    while work:
        for x in needed_by.get(work.pop(), ()):
            if x in boolean:
                boolean.discard(x)
                work.append(x)

    table = {}
    for x in cfa.variables:
        if x in loop_counters:
            table[x] = DomainType.LOOP_COUNTER
        elif x in boolean:
            table[x] = DomainType.BOOLEAN
        else:
            table[x] = DomainType.INTEGER_OTHER
    return table


def live_locations(
    cfa: ControlFlowAutomaton, deadline: Optional[float] = None
) -> dict[str, frozenset[int]]:
    """Locations where each variable is live.

    x is live at l when some path from l reaches an edge that reads x (an
    assignment's expression or an assume's predicate mentions x) and crosses
    no edge that kills x on the way (``x := nondet()``, or ``x := e`` where e
    does not mention x).  One backward search over the edges per variable.
    Raises LimitReached("timeout") once ``deadline`` passes, reading the clock
    every ``paths.CLOCK_STRIDE`` search steps over all variables together.
    """
    readers: dict[str, list[int]] = {x: [] for x in cfa.variables}
    preds: dict[int, list[tuple[int, Optional[str]]]] = {l: [] for l in cfa.locations}
    for src, op, dst in cfa.edges:
        if isinstance(op, Assume):
            used, killed = tree_variables(op.pred), None
        else:
            used = tree_variables(op.expr) if isinstance(op, Assign) else set()
            killed = None if op.var in used else op.var
        for x in used:
            readers[x].append(src)
        preds[dst].append((src, killed))
    live = {}
    steps = 0
    for x, sources in readers.items():
        seen = set(sources)
        stack = list(seen)
        while stack:
            steps += 1
            check_deadline(deadline, steps)
            for src, killed in preds[stack.pop()]:
                if killed != x and src not in seen:
                    seen.add(src)
                    stack.append(src)
        live[x] = frozenset(seen)
    return live


def widen_to_live_ranges(
    precision: Precision,
    cfa: ControlFlowAutomaton,
    live: Mapping[str, frozenset[int]],
) -> Precision:
    """``precision`` plus, for each variable x it tracks at some location l,
    x at every location forward-reachable from l where x is live (``live``
    as computed by ``live_locations``).  One forward search per variable."""
    seeds: dict[str, list[int]] = {}
    for loc, names in precision.tracked.items():
        for x in names:
            seeds.setdefault(x, []).append(loc)
    tracked = {loc: set(names) for loc, names in precision.tracked.items()}
    for x, locs in seeds.items():
        seen = set(locs)
        stack = list(locs)
        while stack:
            for _, dst in cfa.out_edges(stack.pop()):
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        for loc in seen & live[x]:
            tracked.setdefault(loc, set()).add(x)
    return Precision({loc: frozenset(names) for loc, names in tracked.items()})


def score_interpolant_sequence(
    seq: InterpolantSequence, table: Mapping[str, DomainType]
) -> int:
    """Sum of class weights over the distinct variables the sequence mentions."""
    return sum(SCORE_WEIGHTS[table[x]] for x in seq.variables())


def choose_sliced_prefix(
    sequences: Sequence[InterpolantSequence],
    heuristic: Heuristic,
    table: Mapping[str, DomainType],
) -> int:
    """Index of the prefix the heuristic selects, given the interpolant
    sequence of each prefix, in order.

    Domain-type scoring breaks ties toward the longest prefix (largest index),
    which keeps refinement local to the error.
    """
    if not sequences:
        raise ValueError("no sliced prefixes to choose from")
    if heuristic is Heuristic.PREFIX_SHORTEST:
        return 0
    if heuristic is Heuristic.PREFIX_LONGEST:
        return len(sequences) - 1
    if heuristic is Heuristic.DOMAIN_TYPE:
        best = 0
        best_score = score_interpolant_sequence(sequences[0], table)
        for j in range(1, len(sequences)):
            score = score_interpolant_sequence(sequences[j], table)
            if score <= best_score:
                best, best_score = j, score
        return best
    raise ValueError("heuristic %s does not select prefixes" % heuristic.value)


# --- refinement procedures ----------------------------------------------------


class RefinementResult(Frozen):
    __slots__ = ("precision", "chosen_index", "chosen_score", "interpolation_calls")

    def __init__(
        self,
        precision: Precision,
        chosen_index: Optional[int],
        chosen_score: Optional[int],
        interpolation_calls: int,
    ):
        set_field(self, "precision", precision)
        set_field(self, "chosen_index", chosen_index)
        set_field(self, "chosen_score", chosen_score)
        set_field(self, "interpolation_calls", interpolation_calls)


def _precision_of(seq: InterpolantSequence) -> Precision:
    """Per-location union of the variables each interpolant references."""
    tracked: dict[int, frozenset[str]] = {}
    for _, loc, gamma in seq.entries:
        if gamma is not BOTTOM and gamma:
            tracked[loc] = tracked.get(loc, frozenset()).union(gamma)
    return Precision(tracked)


def refine_selecting(
    path: Path,
    prefixes: Sequence[Path],
    heuristic: Heuristic,
    table: Mapping[str, DomainType],
    deadline: Optional[float] = None,
) -> RefinementResult:
    """Refinement of the infeasible error path ``path``, given its sliced
    prefixes as ``extract_sliced_prefixes`` returns them.

    Interpolant sequences are computed for every prefix, sliced to the cone
    of its contradiction, before choosing, even for heuristics that ignore
    them, so interpolation effort is comparable across heuristics.  The
    classic heuristic skips selection and interpolates ``path`` itself,
    unsliced.  Raises ValueError on no prefix (a feasible path), and
    LimitReached("timeout") once ``deadline`` passes.
    """
    if not prefixes:
        raise ValueError("refinement requires an infeasible path")
    if heuristic is Heuristic.CLASSIC:
        seq, calls = interpolant_sequence(path, deadline)
        return RefinementResult(_precision_of(seq), None, None, calls)
    sequences = []
    calls = 0
    for prefix in prefixes:
        seq, n = interpolant_sequence(slice_to_cone(prefix, deadline), deadline)
        sequences.append(seq)
        calls += n
    chosen = choose_sliced_prefix(sequences, heuristic, table)
    score = score_interpolant_sequence(sequences[chosen], table)
    return RefinementResult(_precision_of(sequences[chosen]), chosen, score, calls)


def check_refinement_progress(
    path: Path, precision: Precision, deadline: Optional[float] = None
) -> bool:
    """Replaying the path abstractly under the precision must hit Bottom.
    Raises LimitReached("timeout") once ``deadline`` passes."""
    v: AbstractAssignment = TOP
    for pos, (op, loc) in enumerate(path):
        check_deadline(deadline, pos)
        v = restrict(sp(op, v), precision.at(loc))
        if v is BOTTOM:
            return True
    return False
