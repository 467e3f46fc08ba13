import sys

import pytest

from schurweyl import amplitudes, branching, cli
from schurweyl.graph import build
from schurweyl.radicals import ONE
from schurweyl.tableaux import enumerate_gt, enumerate_paths, partitions
from schurweyl.transform import DEFAULT_SIZE_BOUND

from mutants import MUTANTS, applied, clear_caches
from oracles import down_fan, up_fan


def suite_results(d: int, n: int) -> dict:
    """Each suite's name mapped to True (pass), False (fail) or None (skip) at (d, n)."""
    return {name: passed for name, passed, _ in cli._suites(d, n, DEFAULT_SIZE_BOUND)}


def edge_texts(d: int, n: int) -> list[str]:
    return [e.amplitude.to_string() for e in build(d, n).edges]


def fans_off_the_oracle(d: int, n: int):
    """Each up fan below level ``n`` and down fan up to it that differs from the oracle's.

    The oracle's fans carry :func:`oracles.louck_reference`, which shares no
    level table or factor with the package, so a fault in either shows here.
    """
    for level in range(n + 1):
        for shape in partitions(level, d):
            letters = range(1, d + 1) if level < n else ()
            lower_shapes = {path[-2] for path in enumerate_paths(shape)} if level else ()
            for pattern in enumerate_gt(shape, d):
                for k in letters:
                    if list(amplitudes.up_transitions(pattern, k)) != up_fan(pattern, k):
                        yield "up", pattern, k
                for lower in lower_shapes:
                    fan = list(amplitudes.down_transitions(pattern, lower))
                    if fan != down_fan(pattern, lower):
                        yield "down", pattern, lower


def params(with_marks: bool):
    for mutant in MUTANTS:
        marks = ()
        if with_marks and mutant.open_item:
            marks = pytest.mark.xfail(strict=True, reason=f"ROADMAP {mutant.open_item}")
        yield pytest.param(mutant, id=mutant.name, marks=marks)


@pytest.mark.parametrize("d, n", sorted({mutant.size for mutant in MUTANTS}))
def test_suites_pass_without_a_mutant(d, n):
    results = suite_results(d, n)
    assert all(passed is not False for passed in results.values()), results


@pytest.mark.parametrize("d, n", sorted({mutant.size for mutant in MUTANTS}))
def test_fans_match_the_oracle_without_a_mutant(d, n):
    assert next(fans_off_the_oracle(d, n), None) is None


@pytest.mark.parametrize("mutant", params(with_marks=False))
def test_mutant_moves_a_fan_off_the_oracle(monkeypatch, mutant):
    # the level-3 sign flip passes every check suite (an open item), and
    # the oracle, which shares no code with the fans, still catches it
    with applied(monkeypatch, mutant):
        off = next(fans_off_the_oracle(*mutant.size), None)
    assert off is not None, mutant.name


@pytest.mark.parametrize("mutant", params(with_marks=False))
def test_mutant_changes_edges(monkeypatch, mutant):
    # a mutant that changes no edge would pass the suites for no reason
    d, n = mutant.size
    clean = edge_texts(d, n)
    with applied(monkeypatch, mutant):
        mutated = edge_texts(d, n)
    assert mutated != clean
    assert edge_texts(d, n) == clean  # nothing of the mutant outlives it


@pytest.mark.parametrize("mutant", params(with_marks=True))
def test_mutant_is_killed(monkeypatch, mutant):
    with applied(monkeypatch, mutant):
        results = suite_results(*mutant.size)
    failed = {name for name, passed in results.items() if passed is False}
    assert failed, f"no suite kills {mutant.name!r}: {results}"
    # an open mutant names no suites, so the first suite to kill it makes it pass
    assert failed == mutant.killed_by or not mutant.killed_by


def fans_by_reader(d: int, n: int) -> dict:
    """Each reader's up fans of every pattern below level ``n`` and letter, cold caches each.

    ``build`` fills a vertex's fans in one scan, ``up_transitions`` one letter
    alone, and ``branching.up`` reads its fans through ``up_transitions``; each
    lists its fan as ``{upper: amplitude}``.
    """
    lowers = [
        p for level in range(n) for shape in partitions(level, d) for p in enumerate_gt(shape, d)
    ]
    clear_caches()
    built = {}
    g = build(d, n)
    for e in g.edges:
        lower, upper = g.vertices[e.lower].pattern, g.vertices[e.upper].pattern
        built.setdefault((lower, e.added_entry), {})[upper] = e.amplitude
    readers = {"build": built, "up_transitions": {}, "up": {}}
    clear_caches()
    for lower in lowers:
        for k in range(1, d + 1):
            readers["up_transitions"][lower, k] = dict(amplitudes.up_transitions(lower, k))
    clear_caches()
    for lower in lowers:
        for k in range(1, d + 1):
            state = branching.up({(lower, ((),)): ONE}, k)
            readers["up"][lower, k] = {upper: amp for (upper, _), amp in state.items()}
    return {name: {key: fan for key, fan in fans.items() if fan} for name, fans in readers.items()}


def down_reads(fans: dict) -> bool:
    """Whether every down fan into an upper of ``fans`` holds the amplitude ``fans`` give its edge.

    False when the down scan lists an edge that the up fan of its letter
    lacks, which ``down_transitions`` meets as a ``KeyError``.
    """
    clear_caches()
    for upper in {upper for fan in fans.values() for upper in fan}:
        for shape in {path[-2] for path in enumerate_paths(upper.shape)}:
            try:
                fan = amplitudes.down_transitions(upper, shape)
            except KeyError:
                return False
            for lower, k, amp in fan:
                assert fans[lower, k][upper] == amp, (lower, k, upper)
    return True


@pytest.mark.parametrize("mutant", params(with_marks=False))
def test_every_reader_reads_the_mutated_fans(monkeypatch, mutant):
    # the mutants patch the one evaluator of the up fans, which no other module
    # binds by name, so the graph, the single-letter fans and the branching
    # step read one set of fans, and the down fans take their amplitudes from it
    binding = [
        name for name, module in sys.modules.items()
        if name.split(".")[0] == "schurweyl" and "_scan" in vars(module)
    ]
    assert binding == ["schurweyl.amplitudes"]
    d, n = mutant.size
    with applied(monkeypatch, mutant):
        readers = fans_by_reader(d, n)
        built = readers["build"]
        assert readers["up_transitions"] == built
        # a state holds no zero amplitude, so the branching step drops an edge
        # that a mutant gives a zero one, as the level-step shift does
        nonzero = {key: {u: a for u, a in fan.items() if a} for key, fan in built.items()}
        assert readers["up"] == {key: fan for key, fan in nonzero.items() if fan}
        keeps_uppers = down_reads(built)
    clean = fans_by_reader(d, n)["build"]
    assert built != clean
    # a mutant that keeps every edge's upper moves only amplitudes, which the
    # down fans then hold; one that moves an upper leaves a down edge no up fan has
    same_uppers = {key: set(fan) for key, fan in built.items()} == {
        key: set(fan) for key, fan in clean.items()
    }
    assert keeps_uppers == same_uppers
