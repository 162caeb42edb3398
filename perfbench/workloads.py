"""The benchmark's workloads: which programs run under which heuristics.

Program texts are fixed by each family's parameters, because the benchmark
compares the cost of the same work across commits and corpus cost varies by
about +-30 % from one generator seed to the next.  The ``--seed`` of a run
permutes the order in which tasks and heuristics reach the runner; a seed
always reproduces the same task list, and ``inputs_hash`` names it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

ALL_HEURISTICS = ("classic", "prefix-shortest", "prefix-longest", "domain-type")

# loop-unroll: the paper's flag/loop family.  Counter-tracking heuristics unroll
# the loop, so their interpolation cost grows quadratically in N; N=60000 is
# run only where the paper claims constant cost, since the counter heuristics
# spend ~2 s of pure reach there before stopping at the state limit.
FIG2_NS = (10, 100, 300)
FIG2_HARD_N = 60000
FIG2_HARD_HEURISTICS = ("domain-type", "prefix-longest")

# wide-flags: k flags all end up tracked, so abstract states multiply and each
# coverage probe enumerates 2^|def| subsets; k=8 takes ~2 s per task.
WIDE_KS = (6, 7, 8)
WIDE_HEURISTICS = ("domain-type", "classic")

# random-corpus: many short tasks with mixed verdicts (65 TRUE, 55 FALSE per
# heuristic).  No task of generator seed 7 runs into the one-million-state
# limit; about half of seeds 1-24 have one that does, at ~20 s a task, which
# would swamp the ~4 s the other 479 tasks take.
CORPUS_SEED = 7
CORPUS_SIZE = 120
CORPUS_JOBS = 2

WORKLOADS = ("loop-unroll", "wide-flags", "random-corpus")


@dataclass(frozen=True)
class Task:
    """One program file.  ``file`` is the name run_bench sees and sorts by;
    ``name`` is the program's seed-independent identity."""

    file: str
    name: str
    text: str


@dataclass(frozen=True)
class Batch:
    """Tasks run through one ``run_bench`` call."""

    tasks: tuple[Task, ...]
    heuristics: tuple[str, ...]
    jobs: int


@dataclass(frozen=True)
class Workload:
    name: str
    batches: tuple[Batch, ...]
    # every verdict is known to be TRUE (the family is safe by construction)
    all_true: bool
    # heuristic whose refinements and states must not depend on the program
    constant_cost: str | None = None

    def tasks(self):
        for batch in self.batches:
            yield from batch.tasks

    def task_count(self) -> int:
        return sum(len(b.tasks) * len(b.heuristics) for b in self.batches)

    def inputs_hash(self) -> str:
        blob = json.dumps(
            [
                [[[t.file, t.text] for t in b.tasks], list(b.heuristics), b.jobs]
                for b in self.batches
            ]
        )
        return hashlib.sha256(blob.encode()).hexdigest()


def wide_flags_program(k: int) -> str:
    """k nondeterministic diamonds setting f_j to 0 or 1, then one guard
    ``f_j == 2`` per flag before an error.  Safe for every k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    flags = ["f%d" % j for j in range(1, k + 1)]
    lines = ["// wide-flags family, k = %d" % k, "var c, %s;" % ", ".join(flags)]
    for f in flags:
        lines += [
            "c := nondet();",
            "if (c == 0) {",
            "  %s := 0;" % f,
            "} else {",
            "  %s := 1;" % f,
            "}",
        ]
    for f in flags:
        lines += ["if (%s == 2) {" % f, "  error;", "}"]
    return "\n".join(lines) + "\n"


def _batch(rng: random.Random, named_texts, heuristics, jobs) -> Batch:
    order = list(range(len(named_texts)))
    rng.shuffle(order)
    tasks = tuple(
        Task("%03d-%s.imp" % (pos, name), name, text)
        for pos, (name, text) in zip(order, named_texts)
    )
    heuristics = list(heuristics)
    rng.shuffle(heuristics)
    return Batch(tasks, tuple(heuristics), jobs)


def build(name: str, seed: int) -> Workload:
    """The task list of workload ``name`` for run seed ``seed``."""
    from prefixselect.generators import fig2_program, random_program

    rng = random.Random("%s:%d" % (name, seed))
    if name == "loop-unroll":
        batches = (
            _batch(
                rng,
                [("fig2_n%d" % n, fig2_program(n)) for n in FIG2_NS],
                ALL_HEURISTICS,
                1,
            ),
            _batch(
                rng,
                [("fig2_n%d" % FIG2_HARD_N, fig2_program(FIG2_HARD_N))],
                FIG2_HARD_HEURISTICS,
                1,
            ),
        )
        return Workload(name, batches, all_true=True, constant_cost="domain-type")
    if name == "wide-flags":
        batch = _batch(
            rng,
            [("wide_k%d" % k, wide_flags_program(k)) for k in WIDE_KS],
            WIDE_HEURISTICS,
            1,
        )
        return Workload(name, (batch,), all_true=True)
    if name == "random-corpus":
        batch = _batch(
            rng,
            [
                ("random_s%d_%03d" % (CORPUS_SEED, i), random_program(CORPUS_SEED, i))
                for i in range(CORPUS_SIZE)
            ],
            ALL_HEURISTICS,
            CORPUS_JOBS,
        )
        return Workload(name, (batch,), all_true=False)
    raise ValueError("unknown workload %r; choose from %s" % (name, ", ".join(WORKLOADS)))
