"""The full Schur transform: words to Schur-Weyl superpositions and back.

``encode`` folds the branching rule over a word's letters left to
right; ``decode`` unfolds it right to left.  Both are exact, and
assembling every column of ``encode`` yields the transform matrix,
whose unitarity is verified with exact arithmetic rather than assumed.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import NamedTuple

from schurweyl.branching import SchurWeylTriplet, Word, down, empty_triplet, up
from schurweyl.radicals import (
    ONE,
    Radical,
    accumulator,
    add_product,
    nonzero_radicals,
    radical_from_json_triples,
)
from schurweyl.tableaux import (
    InvariantViolation,
    all_of_type,
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
        norm = accumulator()
        for amp in state.values():
            add_product(norm, amp, amp)
        yield norm


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
    each row pair's sum is one accumulator.
    """
    sums: dict[tuple[int, int], Radical] = {}
    for column in m.columns():
        rows = sorted(column)
        for i, a in enumerate(rows):
            amp = column[a]
            for b in rows[i:]:
                acc = sums.get((a, b))
                if acc is None:
                    acc = sums[a, b] = accumulator()
                add_product(acc, amp, column[b])
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
    """The terms of a state in canonical order: descending triplet sort key.

    A pattern's levels read top level first order patterns of one alphabet
    as :meth:`~schurweyl.tableaux.GTPattern.key` does, since level ``j``
    of each holds ``j`` entries; the slice costs no Python call per term.
    """

    def sort_key(item):
        (pattern, young), _ = item
        return young[-1], pattern.levels[::-1], young

    return sorted(state.items(), key=sort_key, reverse=True)


def state_from_json_obj(obj) -> dict[SchurWeylTriplet, Radical]:
    """Parse and validate a state document: the entry check of outside states.

    JSON types are checked first, column by column (:func:`_term_columns`):
    each field of every term must be exactly a JSON dict, list or int, so
    no ``true`` ever meets the memo entry of a ``1``.  Then one loop reads
    each term through per-document memos: each distinct Weyl tableau is
    checked once, :func:`validate_path` checks each distinct raw step and
    each distinct pair of consecutive shapes once, and each distinct
    amplitude is bounded and folded once.  The loop names the first term
    whose shapes, level or values are wrong.  A zero amplitude, written as
    such or summed from terms that cancel, is dropped.
    """
    d, n = (json_field(obj, key, int, "state") for key in ("d", "n"))
    check_alphabet(d)  # a term whose level is not n fails below, so n needs no check here
    entries = json_field(obj, "terms", list, "state")
    if not entries:
        raise InvariantViolation("state document", "no terms")
    patterns: dict = {}  # each Weyl tableau's rows read, with its pattern and shape
    paths: dict = {}  # validate_path's memo: each raw step read and each growth pair accepted
    amplitudes: dict = {}
    keys, amps = [], []
    for shape, rows, steps, triples in zip(*_term_columns(entries)):
        rows = tuple(map(tuple, rows))
        found = patterns.get(rows)
        if found is None:
            pattern = gt_from_external(rows, d)
            found = patterns[rows] = pattern, pattern.shape
        pattern, top = found
        young = validate_path(steps, paths)
        shape = tuple(shape)
        if not shape == top == young[-1]:
            raise InvariantViolation(
                "components share one shape", f"{shape} / {top} / {young[-1]}"
            )
        if len(young) - 1 != n:
            raise InvariantViolation("terms share level and alphabet", f"{shape} at n={n}")
        keys.append(SchurWeylTriplet(pattern, young))
        amps.append(radical_from_json_triples(triples, amplitudes))
    terms = dict(zip(keys, amps))
    if len(terms) == len(keys) and all(amplitudes.values()):
        return terms  # no triplet repeats and no amplitude is zero
    terms = {}
    for triplet, amp in zip(keys, amps):
        terms[triplet] = terms[triplet] + amp if triplet in terms else amp
    return {triplet: amp for triplet, amp in terms.items() if amp}


_flatten = itertools.chain.from_iterable
_TERM_FIELDS = itemgetter("shape", "weyl_rows", "young_path", "amplitude")
_RADICAL_FIELDS = itemgetter("radicand", "num", "den")


def _term_columns(entries: list) -> tuple:
    """The terms of a state document as four columns, every JSON type checked.

    The columns are each term's shape, Weyl rows and growth path, as
    parsed, and its amplitude as a tuple of ``(radicand, num, den)``
    triples.  Each column is checked in one pass over its values at every
    depth, with exact types, so a subclass or a bool does not pass.  If a
    check fails, the terms are walked one at a time, field by field in
    document order, and the first fault is named as :func:`json_field`
    names it.
    """
    try:
        if all_of_type(entries, dict):
            shapes, weyl, young, amplitudes = zip(*map(_TERM_FIELDS, entries))
            if all_of_type(amplitudes, dict):
                radicals = [*map(itemgetter("terms"), amplitudes)]
                if (
                    all_of_type(shapes, list)
                    and all_of_type(_flatten(shapes), int)
                    and _rows_of_ints(weyl)
                    and _rows_of_ints(young)
                    and all_of_type(radicals, list)
                    and all_of_type(_flatten(radicals), dict)
                ):
                    triples = [tuple(map(_RADICAL_FIELDS, terms)) for terms in radicals]
                    if all_of_type(_flatten(_flatten(triples)), int):
                        return shapes, weyl, young, triples
    except KeyError:  # a missing field, named below
        pass
    for entry in entries:
        json_field(entry, "shape", list, "state", int)
        json_rows(entry, "weyl_rows", "state")
        json_rows(entry, "young_path", "state")
        amplitude = json_field(entry, "amplitude", dict, "state")
        for term in json_field(amplitude, "terms", list, "radical"):
            for key in ("radicand", "num", "den"):
                json_field(term, key, int, "radical")
    raise AssertionError("the term walk passed a document whose columns failed")


def _rows_of_ints(column) -> bool:
    """Whether every value of ``column`` is a list of lists of ints."""
    return (
        all_of_type(column, list)
        and all_of_type(_flatten(column), list)
        and all_of_type(_flatten(_flatten(column)), int)
    )


def computational_to_json_obj(state: dict[Word, Radical], d: int, n: int) -> dict:
    return {
        "d": d,
        "n": n,
        "terms": [
            {"word": word_to_text(word, d), "amplitude": amp.to_json_obj()}
            for word, amp in sorted(state.items())
        ],
    }

