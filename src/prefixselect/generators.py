"""Program generators: the flag/loop family, the wide-flags family, the
checks family and a random corpus.

The flag/loop programs pair a boolean guard with a counter loop so that the
first abstract error path is infeasible for two independent reasons; they are
safe for every loop bound.  The wide-flags programs set k flags in k
nondeterministic diamonds and guard the error on each of them; they are safe
for every k, and every flag ends up tracked.  The checks programs set n
variables to nonzero constants and then guard the error on each being zero;
they are safe for every n, and each of their n refinements refutes one
check, whose contradiction reads a single variable of a long path.  The
random generator emits small well-formed programs (bounded loops only)
deterministically from a seed.
"""

from __future__ import annotations

import random
from pathlib import Path as FsPath


def fig2_program(n: int) -> str:
    """Safe program: flag set, counter loop to ``n``, error guarded on the flag."""
    if n < 1:
        raise ValueError("loop bound must be >= 1")
    return (
        "// flag/loop family, bound %d\n"
        "var b, i;\n"
        "b := 1;\n"
        "i := 0;\n"
        "while (i < %d) {\n"
        "  i := i + 1;\n"
        "}\n"
        "if (b == 0) {\n"
        "  error;\n"
        "}\n" % (n, n)
    )


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


def checks_program(n: int) -> str:
    """``xi := i + 1`` for each of n variables, then one guard ``xi == 0``
    per variable before an error.  Safe for every n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    names = ["x%d" % i for i in range(n)]
    lines = ["// checks family, n = %d" % n, "var %s;" % ", ".join(names)]
    lines += ["%s := %d;" % (x, i + 1) for i, x in enumerate(names)]
    for x in names:
        lines += ["if (%s == 0) {" % x, "  error;", "}"]
    return "\n".join(lines) + "\n"


def _write_program(out_dir: str | FsPath, name: str, text: str) -> FsPath:
    out_dir = FsPath(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    return path


def generate_fig2_family(n: int, out_dir: str | FsPath) -> FsPath:
    return _write_program(out_dir, "fig2_n%d.imp" % n, fig2_program(n))


def generate_wide_flags(k: int, out_dir: str | FsPath) -> FsPath:
    return _write_program(out_dir, "wide_k%d.imp" % k, wide_flags_program(k))


def generate_checks(n: int, out_dir: str | FsPath) -> FsPath:
    return _write_program(out_dir, "checks_n%d.imp" % n, checks_program(n))


class _ProgramWriter:
    """Grows a random program statement by statement; emits only grammar
    productions, loops always count up to a nearby literal bound."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.names = ["a", "b", "c", "d", "e"][: rng.randint(2, 5)]
        self.lines = ["var %s;" % ", ".join(self.names)]
        self.budget = rng.randint(10, 28)
        self.has_error = False

    def var(self) -> str:
        return self.rng.choice(self.names)

    def lit(self) -> int:
        return self.rng.randint(-8, 8)

    def cmp_op(self) -> str:
        return self.rng.choice(["==", "!=", "<", "<=", ">", ">="])

    def predicate(self) -> str:
        kind = self.rng.random()
        base = "%s %s %d" % (self.var(), self.cmp_op(), self.lit())
        if kind < 0.15:
            return "%s %s %s" % (self.var(), self.cmp_op(), self.var())
        if kind < 0.25:
            return "%s && %s" % (base, "%s %s %d" % (self.var(), self.cmp_op(), self.lit()))
        if kind < 0.32:
            return "%s || %s" % (base, "%s %s %d" % (self.var(), self.cmp_op(), self.lit()))
        if kind < 0.38:
            return "!(%s)" % base
        return base

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("  " * indent + text)

    def simple_stmt(self, indent: int) -> None:
        roll = self.rng.random()
        x = self.var()
        if roll < 0.40:
            self.emit(indent, "%s := %d;" % (x, self.lit()))
        elif roll < 0.60:
            op = self.rng.choice(["+", "-", "*"])
            self.emit(indent, "%s := %s %s %d;" % (x, self.var(), op, self.rng.randint(-4, 4)))
        elif roll < 0.72:
            self.emit(indent, "%s := %s;" % (x, self.var()))
        elif roll < 0.85:
            self.emit(indent, "%s := nondet();" % x)
        else:
            self.emit(indent, "assume(%s);" % self.predicate())
        self.budget -= 1

    def stmt(self, indent: int, allow_nesting: bool) -> None:
        roll = self.rng.random()
        if allow_nesting and roll < 0.18 and self.budget >= 4:
            self.if_stmt(indent)
        elif allow_nesting and roll < 0.30 and self.budget >= 5:
            self.while_stmt(indent)
        else:
            self.simple_stmt(indent)

    def if_stmt(self, indent: int) -> None:
        self.emit(indent, "if (%s) {" % self.predicate())
        self.budget -= 1
        inner = self.rng.randint(1, 2)
        for _ in range(inner):
            self.stmt(indent + 1, allow_nesting=False)
        if self.rng.random() < 0.35:
            self.emit(indent + 1, "error;")
            self.has_error = True
            self.budget -= 1
        if self.rng.random() < 0.4:
            self.emit(indent, "} else {")
            for _ in range(self.rng.randint(1, 2)):
                self.stmt(indent + 1, allow_nesting=False)
        self.emit(indent, "}")

    def while_stmt(self, indent: int) -> None:
        x = self.var()
        start = self.rng.randint(-4, 4)
        bound = start + self.rng.randint(1, 8)
        step = self.rng.randint(1, 2)
        self.emit(indent, "%s := %d;" % (x, start))
        self.emit(indent, "while (%s < %d) {" % (x, bound))
        if self.rng.random() < 0.5 and self.budget >= 6:
            self.stmt(indent + 1, allow_nesting=False)
        self.emit(indent + 1, "%s := %s + %d;" % (x, x, step))
        self.emit(indent, "}")
        self.budget -= 4

    def build(self) -> str:
        # a couple of definite assignments first, so guards have something
        # concrete to contradict
        for x in self.names[: self.rng.randint(1, len(self.names))]:
            self.emit(0, "%s := %d;" % (x, self.lit()))
            self.budget -= 1
        while self.budget > 0:
            self.stmt(0, allow_nesting=True)
        if not self.has_error:
            self.emit(0, "if (%s) {" % self.predicate())
            self.emit(1, "error;")
            self.emit(0, "}")
        return "\n".join(self.lines) + "\n"


def random_program(seed: int, index: int) -> str:
    rng = random.Random("%d:%d" % (seed, index))
    return _ProgramWriter(rng).build()


def generate_random_programs(
    seed: int, count: int, out_dir: str | FsPath
) -> list[FsPath]:
    """Write ``count`` programs derived deterministically from ``seed``."""
    return [
        _write_program(out_dir, "random_s%d_%03d.imp" % (seed, i), random_program(seed, i))
        for i in range(count)
    ]
