"""Partitions, Young/Weyl tableaux and Gelfand-Tsetlin patterns.

Conventions used throughout the package:

* A partition is a tuple of weakly decreasing positive integers; the
  empty partition is ``()``.  Rows and columns are 1-based.
* A standard Young tableau is stored canonically as its growth path,
  the sequence of partitions obtained by restricting to entries
  ``<= i`` for ``i = 0..n``.  :func:`validate_path` is the one reader
  of a growth path; its row grid is a derived view, written by
  :func:`path_to_syt` at the text/JSON boundary only.
* A standard Weyl tableau (semistandard, entries bounded by the
  alphabet size ``d``) is stored canonically as its GT pattern; its
  row grid over ``{1..d}`` is read by :func:`weyl_to_gt` and written by
  :func:`gt_to_weyl`, at the text/JSON boundary only.  Each row is written
  by :func:`weyl_row` from the GT entries that fix it, so the graph writers
  key row texts by those entries and build no row grid.  The external
  two-letter alphabet ``{0,1}`` maps ``0 -> 1``, ``1 -> 2`` there
  (:func:`gt_from_external`, :func:`gt_to_external`).
* A GT pattern lists ``d`` levels, level ``j`` holding ``j`` entries;
  entry ``(i, j)`` counts the boxes in row ``i`` of the Weyl tableau
  whose entries are at most ``j``.  The top level, zero-padded, is the
  shape.

Canonical orders: partitions descending lexicographic; Weyl tableaux by
their GT pattern read top level to bottom level, left to right,
descending lexicographic (:meth:`GTPattern.key`); standard Young
tableaux descending lexicographic by growth path.  Plain reverse tuple
sorting realizes all three.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import Iterator, NamedTuple

Partition = tuple[int, ...]
GrowthPath = tuple[Partition, ...]
Rows = tuple[tuple[int, ...], ...]

MAX_ALPHABET = 64  # the largest alphabet size d the package accepts


class InvariantViolation(ValueError):
    """A combinatorial object failed one of its defining constraints."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        message = f"invariant: {invariant}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class Memo(dict):
    """``make(key)`` for each key, made on its first lookup and kept: a per-document memo.

    A ``make`` that raises stores nothing, so a fault is named on every lookup.
    """

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def check_alphabet(d: int) -> None:
    """Bound the alphabet size ``d`` where it enters the package: ``1..MAX_ALPHABET``.

    ``d`` must be exactly an int, as a GT entry must: a bool or a float
    does not pass as one.
    """
    if type(d) is not int or not 1 <= d <= MAX_ALPHABET:
        raise InvariantViolation("alphabet size", f"d={d!r} outside 1..{MAX_ALPHABET}")


# ---------------------------------------------------------------------------
# partitions


def check_partition(shape) -> Partition:
    """Validate and canonicalize a partition (strip trailing zeros)."""
    shape = tuple(shape)
    for part in shape:
        if not isinstance(part, int) or isinstance(part, bool) or part < 0:
            raise InvariantViolation("weakly decreasing shape", f"bad part {part!r}")
    for a, b in zip(shape, shape[1:]):
        if a < b:
            raise InvariantViolation("weakly decreasing shape", f"{shape}")
    while shape and shape[-1] == 0:
        shape = shape[:-1]
    return shape


def pad_partition(shape: Partition, length: int) -> Partition:
    if len(shape) > length:
        raise InvariantViolation("at most d rows", f"{shape} into {length}")
    return shape + (0,) * (length - len(shape))


def partitions(n: int, max_parts: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` with at most ``max_parts`` parts, descending lex."""
    if n < 0 or max_parts < 0:
        raise ValueError(f"expected n >= 0 and max_parts >= 0, got {n}, {max_parts}")

    def rec(left: int, slots: int, cap: int) -> Iterator[Partition]:
        if left == 0:
            yield ()
            return
        if slots == 0:
            return
        # a first part below left / slots leaves too much for the other
        # slots, so each branch yields, and one slot costs one step, not left
        for first in range(min(left, cap), -(-left // slots) - 1, -1):
            for rest in rec(left - first, slots - 1, first):
                yield (first, *rest)

    return tuple(rec(n, max_parts, n))


def grown_row(smaller: Partition, larger: Partition) -> int:
    """The row where ``larger`` exceeds ``smaller`` by exactly one box."""
    if sum(larger) != sum(smaller) + 1:
        raise InvariantViolation("single-box growth step", f"{smaller} -> {larger}")
    row = 0
    for i in range(len(larger)):
        small = smaller[i] if i < len(smaller) else 0
        if larger[i] == small + 1 and row == 0:
            row = i + 1
        elif larger[i] != small:
            raise InvariantViolation("single-box growth step", f"{smaller} -> {larger}")
    if row == 0:
        raise InvariantViolation("single-box growth step", f"{smaller} -> {larger}")
    return row


# ---------------------------------------------------------------------------
# standard Young tableaux as growth paths


def path_memo() -> tuple[Memo, Memo]:
    """:func:`validate_path`'s memo of one document: raw steps' shapes, growth pairs' rows."""
    return Memo(check_partition), Memo(lambda pair: grown_row(*pair))


def validate_path(steps, memo: tuple[Memo, Memo] | None = None) -> GrowthPath:
    """The growth path written as ``steps``, validated; the one growth-path reader.

    Each step is canonicalized by :func:`check_partition`; the first must
    be empty and each later one a single box larger than the one before.
    Faults are named in that order: every step's parts, then the start,
    then the growth steps in turn.  ``memo`` comes from :func:`path_memo`,
    one per document, so a document checks each distinct raw step and each
    distinct pair of consecutive shapes once; without one, the path gets its
    own.  Each step's tuple is a key, so equal steps are one: a path that
    spells a step as ints and again with a ``True`` part fails its growth
    step, not its bool part, and a document's steps must be exact ints.
    """
    shapes, rows = path_memo() if memo is None else memo
    path = tuple(map(shapes.__getitem__, map(tuple, steps)))
    if not path or path[0] != ():
        raise InvariantViolation("growth path starts empty", f"{path!r}")
    all(map(rows.__getitem__, zip(path, path[1:])))  # every row is 1 or more
    return path


def path_to_syt(path) -> Rows:
    """Row grid of the standard Young tableau with the growth path the package made.

    The path was validated where it entered; a step that is not one box
    still fails in :func:`grown_row`.
    """
    rows: list[list[int]] = []
    for step, (smaller, larger) in enumerate(zip(path, path[1:]), start=1):
        row = grown_row(smaller, larger)
        while len(rows) < row:
            rows.append([])
        rows[row - 1].append(step)
    return tuple(tuple(row) for row in rows)


def enumerate_paths(shape: Partition) -> tuple[GrowthPath, ...]:
    """All growth paths from the empty partition to ``shape``, canonical order.

    A depth-first walk in a loop, so no call nests, whatever the size of the
    shape.  The stack holds each step still to visit with its level; the
    larger next shape is visited first, so the paths come out in canonical
    order with no sort, and equal steps are one object.
    """
    shape = check_partition(shape)
    size = sum(shape)
    out, path, steps, stack = [], [], {}, [((), 0)]
    while stack:
        step, level = stack.pop()
        del path[level:]
        path.append(step)
        if level == size:
            out.append(tuple(path))
        for row in reversed(range(min(len(step) + 1, len(shape)))):
            part = step[row] if row < len(step) else 0
            if part < shape[row] and (not row or step[row - 1] > part):
                grown = step[:row] + (part + 1,) + step[row + 1 :]
                stack.append((steps.setdefault(grown, grown), level + 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# GT patterns


class GTPattern(NamedTuple):
    """Levels bottom-up: ``levels[j-1]`` has ``j`` entries, top level is the shape.

    A pattern is a tuple, so it hashes and compares at C speed wherever it
    is a key.
    """

    levels: tuple[tuple[int, ...], ...]

    @property
    def d(self) -> int:
        return len(self.levels)

    def m(self, i: int, j: int) -> int:
        """Entry ``m_{i,j}`` (1-based row within 1-based level)."""
        return self.levels[j - 1][i - 1]

    @property
    def shape(self) -> Partition:
        """The top level without its trailing zeros; validated where the pattern entered.

        The top level of a valid pattern is weakly decreasing, so its zeros
        start at the first one.
        """
        top = self.levels[-1]
        return top[: top.index(0)] if not top[-1] else top

    def key(self) -> tuple[int, ...]:
        """Sort key: entries read top level to bottom, left to right."""
        return tuple(x for level in reversed(self.levels) for x in level)


def interlaces(longer: tuple[int, ...], shorter: tuple[int, ...]) -> bool:
    """GT in-betweenness of adjacent levels: ``longer[i] >= shorter[i] >= longer[i+1]``."""
    for i, x in enumerate(shorter):
        if not longer[i] >= x >= longer[i + 1]:
            return False
    return True


def validate_gt(p: GTPattern) -> GTPattern:
    """Check a pattern built outside the package: every entry exactly an int, no bool."""
    check_alphabet(p.d)
    for j, level in enumerate(p.levels, start=1):
        if len(level) != j:
            raise InvariantViolation("triangular pattern", f"level {j} has {len(level)} entries")
        if not all_of_type(level, int):
            raise InvariantViolation("integer entries", f"level {j}: {level!r}")
        if any(x < 0 for x in level):
            raise InvariantViolation("nonnegative entries", f"level {j}: {level}")
        if j > 1 and not interlaces(level, p.levels[j - 2]):
            raise InvariantViolation("in-betweenness", f"levels {j-1},{j} of {p.levels}")
    return p


def weyl_to_gt(rows, d: int) -> GTPattern:
    """GT pattern of a Weyl tableau given as rows over ``{1..d}``; the one Weyl reader.

    The rows are validated here, each entry exactly an int.  Level ``j`` of
    the pattern is the shape of the entries-``<= j`` subtableau.
    """
    check_alphabet(d)
    rows = tuple(tuple(row) for row in rows)
    shape = tuple(len(row) for row in rows)
    if check_partition(shape) != shape:
        raise InvariantViolation("nonempty rows", f"{rows}")
    if len(rows) > d:
        raise InvariantViolation("at most d rows", f"{len(rows)} rows, d={d}")
    for row in rows:
        for x in row:
            if type(x) is not int or not 1 <= x <= d:
                raise InvariantViolation("entries in alphabet", f"{x!r} with d={d}")
        for a, b in zip(row, row[1:]):
            if a > b:
                raise InvariantViolation("weakly increasing rows", f"{row}")
    for upper, lower in zip(rows, rows[1:]):
        for a, b in zip(upper, lower):
            if a >= b:
                raise InvariantViolation("strictly increasing columns", f"{rows}")
    levels = []
    for j in range(1, d + 1):
        counts = [bisect_right(row, j) for row in rows]  # rows are sorted
        counts += [0] * (j - len(counts))
        levels.append(tuple(counts[:j]))
    return GTPattern(tuple(levels))


def gt_to_weyl(p: GTPattern) -> Rows:
    """Rows over ``{1..d}`` of a pattern validated where it entered; the one Weyl writer.

    Each row is written by :func:`weyl_row` from its entries in :func:`row_entries`.
    """
    return tuple(tuple(weyl_row(entries)) for entries in row_entries(p))


def row_entries(p: GTPattern) -> Iterator[tuple[int | None, ...]]:
    """The GT entries ``(m_{i,i}, ..., m_{i,d})`` of each nonempty row ``i``, top row first.

    Level ``j`` holds ``m_{1,j}, ..., m_{j,j}``, so the levels read side by
    side, level 1 first, give row ``i``'s entries in order after ``i - 1``
    Nones, one for each level below ``i``.  Those entries fix row ``i`` of
    the Weyl tableau (:func:`weyl_row`), so a writer can key a row's text by
    them.
    """
    levels = p.levels
    # the top level is weakly decreasing, so its zeros end it
    return itertools.islice(itertools.zip_longest(*levels), len(levels) - levels[-1].count(0))


def weyl_row(entries: tuple[int | None, ...]) -> list[int]:
    """Row ``i`` over ``{1..d}`` from its entries in :func:`row_entries`; the one row writer.

    After ``i - 1`` Nones come ``(m_{i,i}, ..., m_{i,d})``: row ``i`` holds
    ``m_{i,j} - m_{i,j-1}`` copies of letter ``j`` for ``j = i..d``, with
    ``m_{i,i-1} = 0``, as no entry of row ``i`` is below ``i``.
    """
    below = entries.count(None)
    row: list[int] = []
    before = 0
    for letter, here in enumerate(entries[below:], start=below + 1):
        row += [letter] * (here - before)
        before = here
    return row


def enumerate_gt(shape: Partition, d: int) -> tuple[GTPattern, ...]:
    """All GT patterns with top level ``shape`` (zero-padded to ``d``), canonical order."""
    check_alphabet(d)
    shape = check_partition(shape)
    top = pad_partition(shape, d)

    def children(level: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        # each span descends, so the product comes out in canonical order
        spans = [range(level[i], level[i + 1] - 1, -1) for i in range(len(level) - 1)]
        return itertools.product(*spans)

    patterns: list[list[tuple[int, ...]]] = [[top]]
    for _ in range(d - 1):
        patterns = [
            [lower, *stack] for stack in patterns for lower in children(stack[0])
        ]
    return tuple(GTPattern(tuple(stack)) for stack in patterns)


# ---------------------------------------------------------------------------
# rendering, parsing and the external alphabet


def all_of_type(values, kind: type) -> bool:
    """Whether every value is exactly a ``kind``, checked at C speed: no bool passes as an int."""
    return set(map(type, values)) <= {kind}


def json_field(obj, name: str, kind: type, document: str, items: type = object):
    """``obj[name]`` of a parsed JSON ``document``, checked to be exactly a ``kind``.

    ``obj`` must be exactly a dict, and a list must hold only ``items``, of
    exactly that type.  JSON yields no subclass, so a bool does not pass as
    an integer, nor a Python caller's dict or list subclass as a JSON value.
    """
    value = obj.get(name) if type(obj) is dict else None
    if type(value) is not kind or (items is not object and not all_of_type(value, items)):
        raise InvariantViolation(f"{document} document", f"bad or missing field {name!r}")
    return value


def json_rows(obj, name: str, document: str) -> tuple[tuple[int, ...], ...]:
    """``obj[name]``, a list of lists of integers (tableau rows or growth steps), as tuples."""
    rows = json_field(obj, name, list, document, list)
    if not all_of_type(itertools.chain.from_iterable(rows), int):
        raise InvariantViolation(f"{document} document", f"bad or missing field {name!r}")
    return tuple(map(tuple, rows))


def letter_offset(d: int) -> int:
    """Internal letter minus external letter: 1 for the alphabet {0,1} (d == 2), else 0."""
    return 1 if d == 2 else 0


def letter_from_external(text: str, d: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise InvariantViolation("entries in alphabet", f"{text!r}") from None
    return letter_from_json(value, d, text)


def letter_from_json(x: int, d: int, text: str | None = None) -> int:
    """Internal letter of the external integer letter ``x``, spelled ``text`` in the input."""
    k = x + letter_offset(d)
    if not 1 <= k <= d:
        shown = str(x) if text is None else text
        raise InvariantViolation("entries in alphabet", f"{shown!r} with d={d}")
    return k


def gt_from_external(rows, d: int) -> GTPattern:
    """GT pattern of a Weyl tableau given as integer rows over the external alphabet.

    The JSON readers' entry check: the rows are validated once, by :func:`weyl_to_gt`.
    """
    return weyl_to_gt([[letter_from_json(x, d) for x in row] for row in rows], d)


def gt_to_external(p: GTPattern) -> list[list[int]]:
    """Rows of the pattern's Weyl tableau over the external alphabet, as JSON lists."""
    rows = gt_to_weyl(p)
    if letter_offset(p.d):
        return [[x - 1 for x in row] for row in rows]
    return list(map(list, rows))


def word_to_text(word: tuple[int, ...], d: int) -> str:
    """Text of a word the package made: '0101' for d == 2, '1,2,3' otherwise."""
    shift = letter_offset(d)
    return ("" if d == 2 else ",").join([str(k - shift) for k in word])


def parse_word(text: str, d: int) -> tuple[int, ...]:
    """Parse an external word: '0101' for d == 2, comma-separated otherwise."""
    text = text.strip()
    if not text:
        return ()
    pieces = list(text) if d == 2 else text.split(",")
    return tuple(letter_from_external(piece.strip(), d) for piece in pieces)


def shape_to_text(shape: Partition) -> str:
    return "(" + ",".join(str(part) for part in shape) + ")"


def render_tableau_rows(rows) -> list[str]:
    """One string per row of a row grid; ``["()"]`` for the empty tableau."""
    if not rows:
        return ["()"]
    return [" ".join(map(str, row)) for row in rows]
