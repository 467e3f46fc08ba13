"""Hand-written mutants of the amplitudes, and the check suites that must kill them.

A mutant is a small, deliberate fault in the engine's mathematics.  Each
one names a size and the suites of ``cli._suites`` that fail there, so a
test can hold the suites, not the byte goldens, to catching it.  A fan
mutant wraps ``up_transitions`` under the names ``amplitudes``,
``branching`` and ``graph`` bind, so the up fans, the down fans made from
them, the branching steps and the graph all read the mutated edges.
:func:`applied` clears every package cache before and after, so no fan
made on either side of the mutant outlives it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, NamedTuple

from schurweyl import amplitudes, branching, graph

from oracles import module_caches

FAN_MODULES = (amplitudes, branching, graph)


class Mutant(NamedTuple):
    name: str
    patch: Callable  # patch(monkeypatch) puts the fault in place
    size: tuple[int, int]  # the (d, n) at which the suites are run
    killed_by: frozenset[str]  # the suites that fail at that size
    open_item: str | None = None  # the ROADMAP item that closes a mutant no suite kills


def negated_first_edge(d: int, k: int, shape: tuple[int, ...]) -> Callable:
    """Negate the first edge of every letter-``k`` up fan at a lower pattern of ``shape``."""

    def patch(monkeypatch):
        original = amplitudes.up_transitions

        def up_transitions(lower, letter):
            fan = original(lower, letter)
            if letter != k or lower.d != d or lower.shape != shape:
                return fan
            (upper, amp), *rest = fan
            return ((upper, -amp), *rest)

        for module in FAN_MODULES:
            monkeypatch.setattr(module, "up_transitions", up_transitions)

    return patch


def level_three_sign_flip(monkeypatch) -> None:
    """Negate the level-3 factor of Louck's formula when its box is at position 3."""
    original = amplitudes._level_factor

    def _level_factor(below, row, t_lo, t_up):
        sign, num, den = original(below, row, t_lo, t_up)
        return (-sign if len(row) == 3 and t_up == 3 else sign), num, den

    monkeypatch.setattr(amplitudes, "_level_factor", _level_factor)


MUTANTS = [
    Mutant(
        "negated first edge of the d = 2 letter-1 fans at shape (2)",
        negated_first_edge(2, 1, (2,)),
        (2, 4),
        frozenset({"pattern-louck equivalence", "unitarity"}),
    ),
    Mutant(
        "negated first edge of the d = 3 letter-2 fans at shape (2,1)",
        negated_first_edge(3, 2, (2, 1)),
        (3, 4),
        frozenset({"unitarity"}),
    ),
    Mutant(
        "level-3 sign flip in _level_factor",
        level_three_sign_flip,
        (3, 5),
        frozenset(),
        open_item="item 2: a sign per irrep or per pattern passes every suite",
    ),
]


def clear_caches() -> None:
    for cache in module_caches():
        cache.cache_clear()


@contextlib.contextmanager
def applied(monkeypatch, mutant: Mutant):
    """Run the block with ``mutant`` in place and every package cache cleared around it."""
    clear_caches()
    try:
        with monkeypatch.context() as patching:
            mutant.patch(patching)
            yield
    finally:
        clear_caches()
