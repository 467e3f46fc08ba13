"""Hand-written mutants of the amplitudes, and the check suites that must kill them.

A mutant is a small, deliberate fault in the engine's mathematics.  Each
one names a size and the suites of ``cli._suites`` that fail there, so a
test can hold the suites, not the byte goldens, to catching it.  A fan
mutant wraps or rewrites ``amplitudes._scan``, the one evaluator of the up
fans, and so rewrites a fan whose uppers are still the scan's levels
tuples; ``up_transitions`` then makes its pattern records from the
rewritten fan and caches them.  No other module binds that name, so the graph, the
single-letter fans of ``up_transitions``, the branching steps and the down
fans made from them all read the mutated edges.
:func:`applied` clears every package cache before and after, so no fan
made on either side of the mutant outlives it.
"""

from __future__ import annotations

import contextlib
import inspect
from typing import Callable, NamedTuple

from schurweyl import amplitudes

from oracles import module_caches


class Mutant(NamedTuple):
    name: str
    patch: Callable  # patch(monkeypatch) puts the fault in place
    size: tuple[int, int]  # the (d, n) at which the suites are run
    killed_by: frozenset[str]  # the suites that fail at that size
    open_item: str | None = None  # the ROADMAP item that closes a mutant no suite kills


def rewritten_fan(d: int, k: int, shape: tuple[int, ...], rewrite: Callable) -> Callable:
    """Pass every letter-``k`` up fan the scan returns at a lower pattern of ``shape`` through
    ``rewrite(scan, lower, fan)``, where ``scan`` is the unpatched scan.

    ``fan`` holds ``(levels, amplitude)`` pairs, each upper the scan's levels
    tuple, and so must the rewritten one: ``up_transitions`` makes its
    pattern records from it, and ``graph.build`` looks its uppers up by levels.
    """

    def patch(monkeypatch):
        original = amplitudes._scan

        def _scan(lower, first, last):
            fans = original(lower, first, last)
            if lower.d == d and lower.shape == shape and first <= k <= last:
                fans[k - first] = rewrite(original, lower, fans[k - first])
            return fans

        monkeypatch.setattr(amplitudes, "_scan", _scan)

    return patch


def negated_first_edge(d: int, k: int, shape: tuple[int, ...]) -> Callable:
    """Negate the first edge of every letter-``k`` up fan at a lower pattern of ``shape``."""

    def negate(scan, lower, fan):
        (upper, amp), *rest = fan
        return ((upper, -amp), *rest)

    return rewritten_fan(d, k, shape, negate)


def swapped_amplitudes(d: int, k: int, shape: tuple[int, ...]) -> Callable:
    """Swap the amplitudes of the first two edges of every letter-``k`` up fan at a
    lower pattern of ``shape``; a fan of fewer edges is kept."""

    def swap(scan, lower, fan):
        if len(fan) < 2:
            return fan
        (first, a), (second, b), *rest = fan
        return ((first, b), (second, a), *rest)

    return rewritten_fan(d, k, shape, swap)


def wrong_letter(d: int, k: int, slot: int, shape: tuple[int, ...]) -> Callable:
    """Hand out the letter-``k`` up fan as letter ``slot``'s at a lower pattern of ``shape``."""

    def other_letter(scan, lower, fan):
        return scan(lower, k, k)[0]

    return rewritten_fan(d, slot, shape, other_letter)


def level_three_sign_flip(monkeypatch) -> None:
    """Negate the level-3 factor of Louck's formula when its box is at position 3."""
    original = amplitudes._level_factor

    def _level_factor(below, row, t_lo, t_up):
        sign, num, den = original(below, row, t_lo, t_up)
        return (-sign if len(row) == 3 and t_up == 3 else sign), num, den

    monkeypatch.setattr(amplitudes, "_level_factor", _level_factor)


def level_step_shift_off_by_one(monkeypatch) -> None:
    """Look level steps up with ``under`` shifted by ``c - 1`` and ``row`` by ``c > 0``.

    A rewritten ``_scan``: its shifted lookup, which drops the pair's ``c``
    full columns, leaves one column too many in ``under``.  Pairs that
    ``_scan`` looks up as they are, at ``c == 0`` and at level 1, keep
    their steps.
    """
    source = inspect.getsource(amplitudes._scan)
    shifted = "tuple([m - c for m in under])"
    assert source.count(shifted) == 1, "the level-step lookup of _scan has moved"
    scope = {}
    exec(source.replace(shifted, "tuple([m - c + 1 for m in under])"), vars(amplitudes), scope)
    monkeypatch.setattr(amplitudes, "_scan", scope["_scan"])


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
        "d = 3 letter-1 fans written into letter 2's slot at shape (2,1)",
        wrong_letter(3, 1, 2, (2, 1)),
        (3, 4),
        frozenset({"unitarity"}),
    ),
    Mutant(
        "swapped amplitudes of the d = 2 letter-1 fans at shape (1)",
        swapped_amplitudes(2, 1, (1,)),
        (2, 3),
        frozenset({"pattern-louck equivalence"}),
    ),
    Mutant(
        "swapped amplitudes of the d = 3 letter-2 fans at shape (2,1)",
        swapped_amplitudes(3, 2, (2, 1)),
        (3, 4),
        frozenset({"unitarity"}),
    ),
    Mutant(
        # the fan's two amplitudes are +-1/2 sqrt 2, so the swap negates one
        # row of the CG block: a sign per pattern, which no suite checks
        "swapped amplitudes of the d = 3 letter-1 fans at shape (1)",
        swapped_amplitudes(3, 1, (1,)),
        (3, 4),
        frozenset(),
        open_item="item 2: a sign per irrep or per pattern passes every suite",
    ),
    Mutant(
        "level-3 sign flip in _level_factor",
        level_three_sign_flip,
        (3, 5),
        frozenset(),
        open_item="item 2: a sign per irrep or per pattern passes every suite",
    ),
    Mutant(
        # off the corpus's sizes the fault does not stay quiet: at d = 2 the
        # graph build ends in KeyError, and from (3,4) on a fan raises NotAnEdge
        "level steps looked up with under shifted by c - 1 and row by c",
        level_step_shift_off_by_one,
        (3, 3),
        frozenset({"column normalization", "unitarity"}),
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
