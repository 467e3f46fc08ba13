"""The full Schur transform: words to Schur-Weyl superpositions and back.

``encode`` folds the branching rule over a word's letters left to
right; ``decode`` unfolds it right to left.  Both are exact, and
assembling every column of ``encode`` yields the transform matrix,
whose unitarity is verified with exact arithmetic rather than assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from schurweyl.branching import (
    ComputationalState,
    SchurWeylState,
    SchurWeylTriplet,
    Word,
    branch_down_state,
    branch_up_state,
    empty_triplet,
)
from schurweyl.radicals import ONE, ZERO, Radical
from schurweyl.tableaux import (
    GrowthPath,
    GTPattern,
    InvariantViolation,
    check_partition,
    enumerate_gt,
    enumerate_paths,
    gt_from_external,
    json_field,
    json_rows,
    letter_offset,
    partitions,
    validate_path,
    word_to_text,
)

DEFAULT_SIZE_BOUND = 4096


class SizeBoundExceeded(ValueError):
    """d**n is too large for a full-matrix operation."""


def encode(word: Word, d: int) -> SchurWeylState:
    """Exact Schur-Weyl expansion of a computational basis word."""
    if d < 1:
        raise ValueError(f"alphabet size must be positive, got {d}")
    # up_transitions rejects a letter outside 1..d
    state = {empty_triplet(d): ONE}
    for k in word:
        state = branch_up_state(state, k)
    return SchurWeylState(state)


def decode(state: SchurWeylState) -> ComputationalState:
    """Exact computational-basis expansion of a Schur-Weyl state."""
    if not len(state):
        return ComputationalState({})
    terms = {(triplet, ()): amp for triplet, amp in state.terms().items()}
    for _ in range(state.level):
        terms = branch_down_state(terms)
    return ComputationalState({word: amp for (_, word), amp in terms.items()})


def words(d: int, n: int):
    """All length-n words over {1..d} in ascending lexicographic order."""
    return itertools.product(range(1, d + 1), repeat=n)


def schur_basis(d: int, n: int) -> list[SchurWeylTriplet]:
    """All Schur-Weyl triplets for (d, n) in canonical order."""
    out = []
    for shape in partitions(n, d):
        paths = enumerate_paths(shape)
        for pattern in enumerate_gt(shape, d):
            for path in paths:
                out.append(SchurWeylTriplet(pattern, path))
    return out


@dataclass(frozen=True)
class ExactSparseMatrix:
    """Schur transform matrix: rows are triplets, columns are words."""

    d: int
    n: int
    basis: tuple[SchurWeylTriplet, ...]
    entries: dict[tuple[int, int], Radical]

    @property
    def size(self) -> int:
        return self.d**self.n

    def entry(self, row: int, col: int) -> Radical:
        return self.entries.get((row, col), ZERO)

    def columns(self) -> list[dict[int, Radical]]:
        cols: list[dict[int, Radical]] = [dict() for _ in range(self.size)]
        for (row, col), amp in self.entries.items():
            cols[col][row] = amp
        return cols


def check_size_bound(d: int, n: int, size_bound: int = DEFAULT_SIZE_BOUND) -> int:
    size = d**n
    if size > size_bound:
        raise SizeBoundExceeded(
            f"d**n = {size} exceeds the size bound {size_bound}"
        )
    return size


def schur_matrix(
    d: int, n: int, size_bound: int = DEFAULT_SIZE_BOUND
) -> ExactSparseMatrix:
    """Assemble the transform column by column via encode."""
    check_size_bound(d, n, size_bound)
    basis = schur_basis(d, n)
    index = {triplet: row for row, triplet in enumerate(basis)}
    entries: dict[tuple[int, int], Radical] = {}
    for col, word in enumerate(words(d, n)):
        for triplet, amp in encode(word, d).terms().items():
            entries[(index[triplet], col)] = amp
    return ExactSparseMatrix(d, n, tuple(basis), entries)


def verify_unitary(m: ExactSparseMatrix) -> bool:
    """Exact check that m times its transpose is the identity.

    Amplitudes are real, so unitarity reduces to orthonormal rows;
    accumulating over columns touches each nonzero entry pair once.
    """
    gram: dict[tuple[int, int], Radical] = {}
    for column in m.columns():
        rows = sorted(column)
        for a in rows:
            for b in rows:
                if a <= b:
                    key = (a, b)
                    gram[key] = gram.get(key, ZERO) + column[a] * column[b]
    for (a, b), value in gram.items():
        expected = ONE if a == b else ZERO
        if value != expected:
            return False
    return all(gram.get((r, r)) == ONE for r in range(m.size))


def dimension_check(d: int, n: int) -> bool:
    """Exactly d**n dimensions across all (frame, weyl, young) combinations."""
    total = 0
    for shape in partitions(n, d):
        total += len(enumerate_gt(shape, d)) * len(enumerate_paths(shape))
    return total == d**n


# ---------------------------------------------------------------------------
# serialization


def triplet_to_json_obj(triplet: SchurWeylTriplet) -> dict:
    shift = letter_offset(triplet.d)
    return {
        "shape": list(triplet.shape),
        "weyl_rows": [[x - shift for x in row] for row in triplet.weyl.rows],
        "young_path": [list(shape) for shape in triplet.young],
    }


def state_to_json_obj(state: SchurWeylState, d: int, n: int) -> dict:
    terms = []
    for triplet, amp in state.sorted_terms():
        term = triplet_to_json_obj(triplet)
        term["amplitude"] = amp.to_json_obj()
        terms.append(term)
    return {"d": d, "n": n, "terms": terms}


def state_from_json_obj(obj) -> SchurWeylState:
    """Parse and validate a state document: the entry check of outside states.

    Terms share their Weyl tableaux and growth paths, so each distinct
    one is checked once per document.
    """
    d, n = (json_field(obj, key, int, "state") for key in ("d", "n"))
    if d < 1 or n < 0:
        raise InvariantViolation("state document", f"bad d={d!r} or n={n!r}")
    entries = json_field(obj, "terms", list, "state")
    if not entries:
        raise InvariantViolation("state document", "no terms")
    patterns: dict[tuple, GTPattern] = {}
    paths: dict[tuple, GrowthPath] = {}
    terms: dict[SchurWeylTriplet, Radical] = {}
    for entry in entries:
        shape = check_partition(json_field(entry, "shape", list, "state", int))
        rows = json_rows(entry, "weyl_rows", "state")
        pattern = patterns.get(rows)
        if pattern is None:
            pattern = patterns[rows] = gt_from_external(rows, d)
        steps = json_rows(entry, "young_path", "state")
        young = paths.get(steps)
        if young is None:
            young = paths[steps] = validate_path(steps)
        if not shape == pattern.shape == young[-1]:
            raise InvariantViolation(
                "components share one shape", f"{shape} / {pattern.shape} / {young[-1]}"
            )
        if len(young) - 1 != n:
            raise InvariantViolation("terms share level and alphabet", f"{shape} at n={n}")
        triplet = SchurWeylTriplet(pattern, young)
        amp = Radical.from_json_obj(json_field(entry, "amplitude", dict, "state"))
        if triplet in terms:
            amp = terms[triplet] + amp
        terms[triplet] = amp
    return SchurWeylState(terms)


def computational_to_json_obj(state: ComputationalState, d: int, n: int) -> dict:
    return {
        "d": d,
        "n": n,
        "terms": [
            {"word": word_to_text(word, d), "amplitude": amp.to_json_obj()}
            for word, amp in state.sorted_terms()
        ],
    }


def matrix_to_json_obj(m: ExactSparseMatrix) -> dict:
    return {
        "d": m.d,
        "n": m.n,
        "order": "triplet-major",
        "basis": [triplet_to_json_obj(t) for t in m.basis],
        "entries": [
            {"row": row, "col": col, "amplitude": amp.to_json_obj()}
            for (row, col), amp in sorted(m.entries.items())
        ],
    }
