"""The branching rule on Schur-Weyl basis states.

A Schur-Weyl basis vector of level ``n`` is a triplet: a partition of
``n`` with at most ``d`` rows, a standard Weyl tableau of that shape
over ``{1..d}`` held as its GT pattern, and a standard Young tableau of
that shape held as its growth path, whose last step is the shape.
Appending one letter ``k`` maps such a vector to a superposition one
level up (``branch_up``); reading the last letter off maps it to a
superposition one level down paired with the letter removed
(``branch_down``).  Both directions preserve norm exactly.

Triplets are validated where they enter the package
(:func:`validate_triplet`, the JSON readers), not on every step here.
States are finitely supported maps from basis labels to exact
amplitudes; the transform folds the state-level maps over plain
``{label: amplitude}`` dicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from schurweyl.amplitudes import down_transitions, up_transitions
from schurweyl.radicals import ONE, ZERO, Radical
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


class _AmplitudeMap:
    """Shared behavior of exact finitely-supported states."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict):
        self._terms = {
            key: amp for key, amp in terms.items() if not amp.is_zero()
        }

    def terms(self) -> dict:
        return dict(self._terms)

    def amplitude(self, key) -> Radical:
        return self._terms.get(key, ZERO)

    def norm_squared(self) -> Radical:
        total = ZERO
        for amp in self._terms.values():
            total = total + amp.square()
        return total

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))


class SchurWeylState(_AmplitudeMap):
    """Exact superposition of Schur-Weyl triplets of one level."""

    def __init__(self, terms: dict[SchurWeylTriplet, Radical]):
        super().__init__(terms)
        levels = {t.level for t in self._terms}
        dims = {t.d for t in self._terms}
        if len(levels) > 1 or len(dims) > 1:
            raise InvariantViolation("terms share level and alphabet")

    @property
    def level(self) -> int:
        return next(iter(self._terms)).level

    @property
    def d(self) -> int:
        return next(iter(self._terms)).d

    def sorted_terms(self) -> list[tuple[SchurWeylTriplet, Radical]]:
        return sorted(
            self._terms.items(), key=lambda item: item[0].sort_key(), reverse=True
        )


class ComputationalState(_AmplitudeMap):
    """Exact superposition of computational-basis words."""

    def __init__(self, terms: dict[Word, Radical]):
        super().__init__(terms)
        if len({len(word) for word in self._terms}) > 1:
            raise InvariantViolation("terms share level and alphabet")

    def sorted_terms(self) -> list[tuple[Word, Radical]]:
        return sorted(self._terms.items())


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


def branch_up(triplet: SchurWeylTriplet, k: int) -> SchurWeylState:
    """Append letter ``k`` to one triplet: the exact superposition one level up."""
    return SchurWeylState(branch_up_state({triplet: ONE}, k))


def branch_down(triplet: SchurWeylTriplet) -> list[tuple[SchurWeylTriplet, int, Radical]]:
    """Strip the last letter: terms ``(lower triplet, letter, amplitude)``.

    Sorted by letter, then by triplet; [] only for the level-0 triplet.
    """
    if not triplet.level:
        return []
    terms = branch_down_state({(triplet, ()): ONE})
    return sorted(
        ((lower, word[0], amp) for (lower, word), amp in terms.items()),
        key=lambda term: (term[1], term[0].sort_key()),
    )
