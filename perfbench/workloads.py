"""The benchmark's workloads: inputs made from a seed, one op, its check.

Every op goes through ``schurweyl.cli.main`` in this process with stdin,
stdout and stderr redirected, exactly as a user of the command line
drives the package; the package receives nothing but the generated
arguments and documents.  Checks run outside the timed region and use
oracles of their own (hook length formula, a generating function, exact
arithmetic on the serialized radicals), not the package's code.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path


class Caches:
    """Every ``functools`` cache of the package, found by introspection."""

    def __init__(self, modules):
        found = {}
        for module in modules:
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)) and callable(
                    getattr(obj, "cache_info", None)
                ):
                    found[id(obj)] = obj
        if not found:
            raise RuntimeError("no functools cache found in the package")
        self.caches = list(found.values())

    def clear(self) -> None:
        for cache in self.caches:
            cache.cache_clear()
            if cache.cache_info().currsize != 0:
                raise RuntimeError(f"{cache.__qualname__} still holds entries after cache_clear")

    def entries(self, module_name: str) -> int:
        return sum(
            cache.cache_info().currsize
            for cache in self.caches
            if cache.__module__ == module_name
        )


@dataclass
class OpResult:
    latency_s: float
    work: int
    stdout_bytes: int
    error: str | None


class Workload:
    """A seeded, endless sequence of rounds of ops and how to run one op.

    Every round holds the same mix of work, and a measured run stops only
    between rounds, so that its figures do not depend on where it stops.

    ``cold`` workloads clear every package cache before each op, since a
    CLI user pays that cost on every invocation; the others keep the
    caches that set-up filled.

    A measured run times each op ``repeats`` times in a row and goes on
    past its time until it holds at least ``min_ops`` ops.
    """

    name = ""
    work_unit = ""
    cold = True
    repeats = 1
    min_ops = 1
    trace_ops = 0  # ops in the fixed prefix that a traced run replays

    def __init__(self, cli, caches: Caches, seed: int, tmp: Path):
        self.cli = cli
        self.caches = caches
        self.seed = seed
        self.tmp = tmp
        self.written = 0

    def call_cli(self, argv: list[str], stdin: str = "") -> tuple[int, str]:
        """Run ``cli.main(argv)`` with redirected stdio; return (exit code, stdout)."""
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
        finally:
            sys.stdin = saved
        text = out.getvalue()
        self.written += len(text)  # the CLI writes ASCII, so characters are bytes
        return code, text

    def rounds(self):
        """Endless rounds of ops; every call starts the same sequence again."""
        raise NotImplementedError

    def prefix(self, count: int) -> list:
        ops = []
        for round_ in self.rounds():
            ops.extend(round_)
            if len(ops) >= count:
                return ops[:count]

    def warm_up(self) -> None:
        """Untimed work that set-up does before measuring."""

    def execute(self, op) -> OpResult:
        if self.cold:
            self.caches.clear()
        self.written = 0
        started = time.perf_counter()
        try:
            code, out = self.timed(op)
        except Exception as exc:  # a traceback out of the CLI is a failed op, not a dead run
            traceback.print_exc()
            code, out = repr(exc), ""
        latency = time.perf_counter() - started
        work, error = 0, f"CLI ended with {code}"
        if code == 0:
            try:
                work, error = self.verify(op, out)
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                error = f"unreadable output: {exc!r}"
        return OpResult(latency, work if error is None else 0, self.written, error)

    def timed(self, op) -> tuple[int, str]:
        raise NotImplementedError

    def verify(self, op, out: str) -> tuple[int, str | None]:
        """(work done, None) when the output is right, else (0, what is wrong)."""
        raise NotImplementedError


def shuffled_rounds(seed: int, sizes):
    """One op per size in each round, in an order drawn from the seed."""
    rng = random.Random(seed)
    sizes = list(sizes)
    while True:
        rng.shuffle(sizes)
        yield list(sizes)


# ---------------------------------------------------------------------------
# roundtrip: encode a word, decode the JSON state, expect the word back


class Roundtrip(Workload):
    """Uniformly random words, drawn in blocks stratified by estimated cost.

    On a 2-CPU virtual machine with Python 3.11 one word's round trip
    takes from 5 ms to 700 ms, and most of that spread follows the letter
    content of the word's prefixes: after k letters the encoder's state
    lies in the weight space of the prefix's content, whose dimension is a
    multinomial coefficient, and the sum of those over k tracks the
    measured latency (log-log correlation 0.89).  All words are ordered by
    that sum and each block of ``block`` words is a systematic sample of
    that order with a random offset, so every word is equally likely, as in
    plain uniform sampling, but each block spans the costs in their
    expected proportions and a run's figures spread less from seed to seed.
    """

    name = "roundtrip"
    work_unit = "words"
    cold = False
    repeats = 2
    min_ops = 100  # so that p90 has ten samples beyond it
    trace_ops = 16
    warm_words = 8
    d, n = 3, 8
    block = 20

    def rounds(self):
        return self.blocks(self.seed)

    def by_cost(self) -> list[tuple[int, ...]]:
        def cost(word):
            content, total = [0] * self.d, 0
            for letter in word:
                content[letter - 1] += 1
                weight_space = factorial(sum(content))
                for count in content:
                    weight_space //= factorial(count)
                total += weight_space
            return total

        words = itertools.product(range(1, self.d + 1), repeat=self.n)
        return sorted(words, key=lambda word: (cost(word), word))

    def blocks(self, seed: int):
        rng = random.Random(seed)
        words = self.by_cost()
        total = len(words)
        while True:
            # sample points offset + j * total, j < block, on [0, block * total),
            # mapped to indices by // block: each word is drawn with chance block / total
            offset = rng.randrange(total)
            block = [words[(offset + j * total) // self.block] for j in range(self.block)]
            rng.shuffle(block)
            yield [",".join(map(str, word)) for word in block]

    def warm_up(self) -> None:
        # the graph up to n fills the amplitude and up-transition caches
        # that encoding reads, so no timed word pays one of their misses;
        # the words are the same for every seed, so set-up time does not
        # vary with it
        code, _ = self.call_cli(["graph", "--d", str(self.d), "--n", str(self.n), "--format", "json"])
        if code:
            raise RuntimeError(f"warm-up graph ended with {code}")
        for word in next(self.blocks(0))[: self.warm_words]:
            self.execute(word)

    def timed(self, word):
        code, state = self.call_cli(["encode", "--d", str(self.d), word, "--format", "json"])
        if code:
            return code, state
        return self.call_cli(["decode", "-", "--format", "json"], state)

    def verify(self, word, out):
        doc = json.loads(out)
        terms = doc["terms"]
        if (doc["d"], doc["n"]) != (self.d, self.n) or len(terms) != 1:
            return 0, f"decoded {len(terms)} terms"
        if terms[0]["word"] != word:
            return 0, f"decoded {terms[0]['word']} from {word}"
        if terms[0]["amplitude"]["terms"] != [{"radicand": 1, "num": 1, "den": 1}]:
            return 0, f"amplitude {terms[0]['amplitude']['terms']}"
        return 1, None


# ---------------------------------------------------------------------------
# check: every exactness suite at three sizes, cold caches


class Check(Workload):
    name = "check"
    work_unit = "transform columns"
    trace_ops = 3
    # nonzero entries of the transform matrix, counted once and fixed here
    nonzeros = {(2, 8): 8820, (3, 5): 3521, (4, 4): 2208}

    def __init__(self, cli, caches, seed, tmp):
        super().__init__(cli, caches, seed, tmp)
        self.seen_nonzeros: list[int] = []
        transform = sys.modules["schurweyl.transform"]

        def recording(*args, **kwargs):
            # one call per op: looks the function up at call time, so a
            # traced run sees its span, and costs nothing measurable
            matrix = transform.schur_matrix(*args, **kwargs)
            self.seen_nonzeros.append(len(matrix.entries))
            return matrix

        cli.schur_matrix = recording

    def rounds(self):
        return shuffled_rounds(self.seed, self.nonzeros)

    def timed(self, size):
        d, n = size
        self.seen_nonzeros.clear()
        return self.call_cli(["check", "--d", str(d), "--n", str(n), "--format", "json"])

    def verify(self, size, out):
        status = {suite["name"]: suite["status"] for suite in json.loads(out)["suites"]}
        if "fail" in status.values():
            return 0, f"failed suites {status}"
        if status.get("unitarity") != "pass":
            return 0, f"unitarity {status.get('unitarity')}"
        if self.seen_nonzeros != [self.nonzeros[size]]:
            return 0, f"nonzeros {self.seen_nonzeros} at {size}"
        d, n = size
        return d**n, None


# ---------------------------------------------------------------------------
# graph: the branching multigraph with its DOT rendering, cold caches


def hook_dimension(shape) -> int:
    """Standard Young tableaux of ``shape``, by the hook length formula."""
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for below in shape[i + 1:] if below > j)
            hooks *= arm + leg + 1
    return factorial(sum(shape)) // hooks


def tableaux_per_level(d: int, n: int) -> list[int]:
    """Semistandard tableaux of size m over {1..d}, for m = 0..n.

    By RSK their generating function is
    ``1 / ((1 - t)**d * (1 - t**2)**(d*(d-1)/2))``.
    """
    series = [1] + [0] * n
    for step, times in ((1, d), (2, d * (d - 1) // 2)):
        for _ in range(times):
            for m in range(step, n + 1):
                series[m] += series[m - step]
    return series


def squared(terms) -> dict[int, Fraction]:
    """Exact square of a serialized radical, as {square-free radicand: coefficient}."""
    out: dict[int, Fraction] = {}
    for a in terms:
        for b in terms:
            g = gcd(a["radicand"], b["radicand"])
            m = (a["radicand"] // g) * (b["radicand"] // g)
            c = Fraction(a["num"], a["den"]) * Fraction(b["num"], b["den"]) * g
            out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


class Graph(Workload):
    """The graph at four sizes, one of each per round in seeded order.

    The first output at each size gets the full check; a later output at
    that size passes when its JSON and DOT are identical to one that
    passed, which lets a run hold more ops.
    """

    name = "graph"
    work_unit = "graph edges"
    trace_ops = 4
    sizes = ((2, 30), (3, 9), (4, 6), (5, 5))

    def __init__(self, cli, caches, seed, tmp):
        super().__init__(cli, caches, seed, tmp)
        # size -> (JSON, DOT, edges) of an output that passed every check
        self.verified: dict[tuple[int, int], tuple[str, str, int]] = {}

    def rounds(self):
        return shuffled_rounds(self.seed, self.sizes)

    def timed(self, size):
        d, n = size
        dot = self.tmp / f"graph_{d}_{n}.dot"
        return self.call_cli(
            ["graph", "--d", str(d), "--n", str(n), "--format", "json", "--dot", str(dot)],
        )

    def verify(self, size, out):
        d, n = size
        dot = (self.tmp / f"graph_{d}_{n}.dot").read_text()
        known = self.verified.get(size)
        if known is not None and known[:2] == (out, dot):
            return known[2], None
        doc = json.loads(out)
        vertices, edges = doc["vertices"], doc["edges"]
        per_level = [0] * (n + 1)
        dimension = [0] * (n + 1)
        for v in vertices:
            per_level[v["level"]] += 1
            dimension[v["level"]] += hook_dimension(v["shape"])
        if per_level != tableaux_per_level(d, n):
            return 0, f"vertices per level {per_level}"
        if dimension != [d**m for m in range(n + 1)]:
            return 0, f"dimension identity fails: {dimension}"
        norms: dict[tuple[int, int], dict[int, Fraction]] = {}
        for e in edges:
            acc = norms.setdefault((e["lower"], e["k"]), {})
            for m, c in squared(e["amplitude"]["terms"]).items():
                acc[m] = acc.get(m, Fraction(0)) + c
        letters = range(2) if d == 2 else range(1, d + 1)
        for v in vertices:
            if v["level"] == n:
                continue
            for k in letters:
                norm = {m: c for m, c in norms.get((v["id"], k), {}).items() if c}
                if norm != {1: Fraction(1)}:
                    return 0, f"vertex {v['id']} letter {k}: squared norm {norm}"
        dot_edges = dot.count(" -> ")
        if dot_edges != len(edges):
            return 0, f"DOT has {dot_edges} edges, JSON {len(edges)}"
        self.verified[size] = (out, dot, len(edges))
        return len(edges), None


WORKLOADS = {w.name: w for w in (Roundtrip, Check, Graph)}
