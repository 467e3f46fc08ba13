"""The branching rule on Schur-Weyl basis states.

A Schur-Weyl basis vector of level ``n`` is a triplet: a partition of
``n`` with at most ``d`` rows, a standard Weyl tableau of that shape
over ``{1..d}`` held as its GT pattern, and a standard Young tableau of
that shape held as its growth path, whose last step is the shape.
Appending one letter ``k`` maps a superposition of triplets to a
superposition one level up (:func:`branch_up_state`); reading the last
letter off maps it to a superposition one level down, each term paired
with the letter removed (:func:`branch_down_state`).  Both directions
preserve norm exactly.

A state is a plain ``{label: amplitude}`` dict that holds no zero
amplitude.  Triplets are validated where they enter the package
(:func:`validate_triplet`, the JSON readers), not on every step here.

Every step is one of two functions, :func:`up` and :func:`down`, which
key each term by its pattern and its growth path themselves: a step
appends the upper shape to the path, or drops its last step.  A step
adds each term's products into one term map per output key
(:func:`~schurweyl.radicals.add_product`) and wraps the maps that did
not cancel once, at its end.  Triplets are made from the keys only where
a call returns.  A key holds its whole path, so a step costs time linear
in the level per term; a state of one term, as at ``d = 1``, costs time
quadratic in the word length over a whole word.
"""

from __future__ import annotations

from typing import NamedTuple

from schurweyl.amplitudes import down_transitions, up_transitions
from schurweyl.radicals import Radical, add_product, nonzero_radicals
from schurweyl.tableaux import (
    GrowthPath,
    GTPattern,
    InvariantViolation,
    Partition,
    validate_gt,
    validate_path,
)

Word = tuple[int, ...]


class SchurWeylTriplet(NamedTuple):
    """Basis label |shape, weyl, young> at level ``sum(shape)``.

    The Weyl tableau is held as its GT pattern and the Young tableau as
    its growth path, whose last step is the shape.
    """

    pattern: GTPattern
    young: GrowthPath

    @property
    def shape(self) -> Partition:
        return self.young[-1]

    @property
    def level(self) -> int:
        return len(self.young) - 1

    @property
    def d(self) -> int:
        return self.pattern.d

    def sort_key(self):
        return (self.shape, self.pattern.key(), self.young)


def validate_triplet(triplet: SchurWeylTriplet) -> SchurWeylTriplet:
    """Check a triplet built outside the package; the branching steps do not."""
    validate_gt(triplet.pattern)
    young = validate_path(triplet.young)
    if triplet.pattern.shape != young[-1]:
        raise InvariantViolation(
            "components share one shape", f"{triplet.pattern.shape} / {young[-1]}"
        )
    return triplet


def empty_triplet(d: int) -> SchurWeylTriplet:
    return SchurWeylTriplet(GTPattern(tuple((0,) * j for j in range(1, d + 1))), ((),))


def up(state: dict, k: int) -> dict:
    """Append letter ``k`` to every term of an up state ``{(pattern, young): amplitude}``.

    Each edge of the up fan grows the growth path by the upper pattern's
    shape.  A triplet is a ``(pattern, young)`` pair, so a triplet state is
    an up state too; the keys returned are plain pairs.
    """
    sums: dict = {}
    for (pattern, young), amp in state.items():
        for upper, edge in up_transitions(pattern, k):
            add_product(sums.setdefault((upper, young + (upper.shape,)), {}), amp, edge)
    return nonzero_radicals(sums)


def down(state: dict, scale: int) -> dict:
    """Read the last letter off every term of a down state at level one or more.

    A down state is ``{(pattern, young, word): amplitude}``, where the int
    ``word`` gains ``(k - 1) * scale`` when letter ``k`` is read off.  The
    growth path loses its last step, and the down fan onto the step before
    it lists the lower patterns.
    """
    sums: dict = {}
    for (pattern, young, word), amp in state.items():
        lower_young = young[:-1]
        for lower, k, edge in down_transitions(pattern, lower_young[-1]):
            key = (lower, lower_young, word + (k - 1) * scale)
            add_product(sums.setdefault(key, {}), amp, edge)
    return nonzero_radicals(sums)


def branch_up_state(
    state: dict[SchurWeylTriplet, Radical], k: int
) -> dict[SchurWeylTriplet, Radical]:
    """Append letter ``k`` to every term of ``{triplet: amplitude}``.

    Each valid insertion of ``k`` into a Weyl tableau grows its shape by
    one box within ``d`` rows; the Young tableau grows by the same box,
    and the term is weighted by the transition amplitude.
    """
    return {SchurWeylTriplet(*key): amp for key, amp in up(state, k).items()}


def branch_down_state(
    state: dict[tuple[SchurWeylTriplet, Word], Radical]
) -> dict[tuple[SchurWeylTriplet, Word], Radical]:
    """Move the last letter of every term's triplet to the front of its word.

    The Young tableau forces the lower shape (drop the last growth
    step); each valid removal letter contributes one term.
    """
    words: dict[Word, int] = {}
    terms = {}
    for (triplet, word), amp in state.items():
        if not triplet.level:
            raise InvariantViolation("nonempty register", f"{word}")
        index = words.setdefault(word, len(words))
        terms[(triplet.pattern, triplet.young, index)] = amp
    # a word is its index among the input words plus (k - 1) times their count
    listed = list(words)
    scale = len(listed)
    return {
        (SchurWeylTriplet(p, young), (index // scale + 1, *listed[index % scale])): amp
        for (p, young, index), amp in down(terms, scale).items()
    }
