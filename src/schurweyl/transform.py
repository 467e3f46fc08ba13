"""The full Schur transform: words to Schur-Weyl superpositions and back.

``encode`` folds the branching rule over a word's letters left to
right; ``decode`` unfolds it right to left.  Both are exact, and
assembling every column of ``encode`` yields the transform matrix,
whose unitarity is verified with exact arithmetic rather than assumed.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from schurweyl.branching import SchurWeylTriplet, Word, down, empty_triplet, up
from schurweyl.radicals import ONE, ZERO, Radical, add_product, nonzero_radicals
from schurweyl.tableaux import (
    GTPattern,
    InvariantViolation,
    Rows,
    check_alphabet,
    enumerate_gt,
    enumerate_paths,
    gt_from_external,
    json_field,
    json_rows,
    partitions,
    validate_path,
    word_to_text,
)

DEFAULT_SIZE_BOUND = 4096


class SizeBoundExceeded(ValueError):
    """d**n is too large for a full-matrix operation."""


def encode(word: Word, d: int) -> dict[SchurWeylTriplet, Radical]:
    """Exact Schur-Weyl expansion of a computational basis word."""
    check_alphabet(d)
    state = {empty_triplet(d): ONE}
    # up_transitions rejects a letter outside 1..d
    for k in word:
        state = up(state, k)
    return {SchurWeylTriplet(*key): amp for key, amp in state.items()}


def decode(state: dict[SchurWeylTriplet, Radical]) -> dict[Word, Radical]:
    """Exact computational-basis expansion of ``{triplet: amplitude}``.

    The entry check of a state a caller built: its terms share one level
    and one alphabet, and a zero amplitude is dropped.
    """
    shared = {(triplet.level, triplet.d) for triplet in state}
    if len(shared) > 1:
        raise InvariantViolation("terms share level and alphabet")
    if not shared:
        return {}
    [(n, d)] = shared
    # a word is an int whose base-d digits, most significant first, are its letters less one
    terms = {(t.pattern, t.young, 0): amp for t, amp in state.items() if amp}
    for step in range(n):
        terms = down(terms, d**step)
    return {_word(word, d, n): amp for (_, _, word), amp in terms.items()}


def _word(number: int, d: int, n: int) -> Word:
    letters = []
    for _ in range(n):
        number, digit = divmod(number, d)
        letters.append(digit + 1)
    return tuple(reversed(letters))


def _column_states(d: int, n: int):
    """The up state of every length-``n`` word over ``{1..d}``, in ascending word order.

    A depth-first walk over the word trie in a loop.  The stack holds the
    prefixes still to visit, each as its state and length; a popped
    prefix pushes its children, last letter first, so the first letter
    comes out first.  Each state is built once, from its parent's, and the
    parent's is dropped once its children exist: the stack holds at most
    ``(d - 1) * n + 1`` states, one at ``d = 1``.
    """
    stack = [({empty_triplet(d): ONE}, 0)]
    while stack:
        state, level = stack.pop()
        if level == n:
            yield state
        else:
            stack += [(up(state, k), level + 1) for k in range(d, 0, -1)]


def column_norms(d: int, n: int):
    """The exact squared norm of ``encode(word, d)`` for every word of :func:`words`, in order."""
    check_alphabet(d)
    for state in _column_states(d, n):
        norm: dict = {}
        for amp in state.values():
            add_product(norm, amp, amp)
        yield nonzero_radicals({0: norm}).get(0, ZERO)


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


class ExactSparseMatrix(NamedTuple):
    """Schur transform matrix: rows are triplets, columns are words."""

    d: int
    n: int
    basis: tuple[SchurWeylTriplet, ...]
    entries: dict[tuple[int, int], Radical]

    @property
    def size(self) -> int:
        return self.d**self.n

    def columns(self) -> list[dict[int, Radical]]:
        cols: list[dict[int, Radical]] = [dict() for _ in range(self.size)]
        for (row, col), amp in self.entries.items():
            cols[col][row] = amp
        return cols


def check_size_bound(d: int, n: int, size_bound: int = DEFAULT_SIZE_BOUND) -> int:
    size = d**n
    if size > size_bound:
        raise SizeBoundExceeded(f"d**n = {size} exceeds size bound {size_bound}")
    return size


def schur_matrix(
    d: int, n: int, size_bound: int = DEFAULT_SIZE_BOUND
) -> ExactSparseMatrix:
    """Assemble the transform column by column, one encode state per word."""
    check_size_bound(d, n, size_bound)
    basis = schur_basis(d, n)
    rows = {(t.pattern, t.young): row for row, t in enumerate(basis)}
    entries: dict[tuple[int, int], Radical] = {}
    for col, state in enumerate(_column_states(d, n)):
        # by its parts: the empty word's key is the record empty_triplet(d)
        for (pattern, young), amp in state.items():
            entries[(rows[pattern, young], col)] = amp
    return ExactSparseMatrix(d, n, tuple(basis), entries)


def verify_unitary(m: ExactSparseMatrix) -> bool:
    """Exact check that m times its transpose is the identity.

    Amplitudes are real, so unitarity reduces to orthonormal rows;
    accumulating over columns touches each nonzero entry pair once, and
    each row pair's sum is one term map until the end.
    """
    sums: dict[tuple[int, int], dict] = {}
    for column in m.columns():
        rows = sorted(column)
        for i, a in enumerate(rows):
            amp = column[a]
            for b in rows[i:]:
                add_product(sums.setdefault((a, b), {}), amp, column[b])
    return nonzero_radicals(sums) == {(r, r): ONE for r in range(m.size)}


def dimension_check(d: int, n: int) -> bool:
    """Exactly d**n dimensions across all (frame, weyl, young) combinations."""
    total = 0
    for shape in partitions(n, d):
        total += len(enumerate_gt(shape, d)) * len(enumerate_paths(shape))
    return total == d**n


# ---------------------------------------------------------------------------
# serialization


def sorted_terms(
    state: dict[SchurWeylTriplet, Radical]
) -> list[tuple[SchurWeylTriplet, Radical]]:
    """The terms of a state in canonical order: descending triplet sort key."""
    return sorted(state.items(), key=lambda item: item[0].sort_key(), reverse=True)


def state_from_json_obj(obj) -> dict[SchurWeylTriplet, Radical]:
    """Parse and validate a state document: the entry check of outside states.

    Terms share their Weyl tableaux and growth steps, so each distinct
    Weyl tableau is checked once per document, and :func:`validate_path`
    checks each distinct raw step and each distinct pair of consecutive
    steps once.  A zero amplitude, written as such or summed from terms
    that cancel, is dropped.
    """
    d, n = (json_field(obj, key, int, "state") for key in ("d", "n"))
    check_alphabet(d)  # a term whose level is not n fails below, so n needs no check here
    entries = json_field(obj, "terms", list, "state")
    if not entries:
        raise InvariantViolation("state document", "no terms")
    patterns: dict[Rows, GTPattern] = {}
    paths: dict = {}  # validate_path's memo: each raw step read and each growth pair accepted
    amplitudes: dict = {}
    terms: dict[SchurWeylTriplet, Radical] = {}
    for entry in entries:
        shape = tuple(json_field(entry, "shape", list, "state", int))
        rows = json_rows(entry, "weyl_rows", "state")
        pattern = patterns.get(rows)
        if pattern is None:
            pattern = patterns[rows] = gt_from_external(rows, d)
        young = validate_path(json_rows(entry, "young_path", "state"), paths)
        if not shape == pattern.shape == young[-1]:
            raise InvariantViolation(
                "components share one shape", f"{shape} / {pattern.shape} / {young[-1]}"
            )
        if len(young) - 1 != n:
            raise InvariantViolation("terms share level and alphabet", f"{shape} at n={n}")
        triplet = SchurWeylTriplet(pattern, young)
        amp = Radical.from_json_obj(json_field(entry, "amplitude", dict, "state"), amplitudes)
        if triplet in terms:
            amp = terms[triplet] + amp
        terms[triplet] = amp
    return {triplet: amp for triplet, amp in terms.items() if amp}


def computational_to_json_obj(state: dict[Word, Radical], d: int, n: int) -> dict:
    return {
        "d": d,
        "n": n,
        "terms": [
            {"word": word_to_text(word, d), "amplitude": amp.to_json_obj()}
            for word, amp in sorted(state.items())
        ],
    }

