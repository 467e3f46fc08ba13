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
"""

from __future__ import annotations

from dataclasses import dataclass

from schurweyl.amplitudes import down_transitions, up_transitions
from schurweyl.radicals import Radical
from schurweyl.tableaux import (
    GrowthPath,
    GTPattern,
    InvariantViolation,
    Partition,
    validate_gt,
    validate_path,
)

Word = tuple[int, ...]


@dataclass(frozen=True)
class SchurWeylTriplet:
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


def _merge(acc: dict, key, amp: Radical) -> None:
    # a new key stores the product as it is; a state holds no zero amplitude
    if key in acc:
        amp = acc[key] + amp
    if amp:
        acc[key] = amp
    else:
        acc.pop(key, None)


def branch_up_state(
    state: dict[SchurWeylTriplet, Radical], k: int
) -> dict[SchurWeylTriplet, Radical]:
    """Append letter ``k`` to every term of ``{triplet: amplitude}``.

    Each valid insertion of ``k`` into a Weyl tableau grows its shape by
    one box within ``d`` rows; the Young tableau grows by the same box,
    and the term is weighted by the transition amplitude.
    """
    out: dict = {}
    for triplet, amp in state.items():
        for upper, edge in up_transitions(triplet.pattern, k):
            grown = SchurWeylTriplet(upper, triplet.young + (upper.shape,))
            _merge(out, grown, amp * edge)
    return out


def branch_down_state(
    state: dict[tuple[SchurWeylTriplet, Word], Radical]
) -> dict[tuple[SchurWeylTriplet, Word], Radical]:
    """Move the last letter of every term's triplet to the front of its word.

    The Young tableau forces the lower shape (drop the last growth
    step); each valid removal letter contributes one term.
    """
    out: dict = {}
    for (triplet, word), amp in state.items():
        if not triplet.level:
            raise InvariantViolation("nonempty register", f"{word}")
        young = triplet.young[:-1]
        for lower, k, edge in down_transitions(triplet.pattern, young[-1]):
            _merge(out, (SchurWeylTriplet(lower, young), (k, *word)), amp * edge)
    return out
