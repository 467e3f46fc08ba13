"""Partitions, Young/Weyl tableaux and Gelfand-Tsetlin patterns.

Conventions used throughout the package:

* A partition is a tuple of weakly decreasing positive integers; the
  empty partition is ``()``.  Rows and columns are 1-based.
* A standard Young tableau is stored canonically as its growth path,
  the sequence of partitions obtained by restricting to entries
  ``<= i`` for ``i = 0..n``; the row-grid is a derived view.
* A standard Weyl tableau (semistandard, entries bounded by the
  alphabet size ``d``) is stored canonically as its GT pattern; the
  rows over the internal alphabet ``{1..d}`` (:class:`WeylTableau`)
  are the view used at the text/JSON boundary.  The external two-letter
  alphabet ``{0,1}`` maps ``0 -> 1``, ``1 -> 2`` at that boundary only.
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
from dataclasses import dataclass
from functools import cache
from typing import Iterator, NamedTuple

Partition = tuple[int, ...]
GrowthPath = tuple[Partition, ...]
Rows = tuple[tuple[int, ...], ...]


class InvariantViolation(ValueError):
    """A combinatorial object failed one of its defining constraints."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        message = f"invariant: {invariant}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class BoxCoord(NamedTuple):
    row: int
    col: int


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


@cache
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
        for first in range(min(left, cap), 0, -1):
            for rest in rec(left - first, slots - 1, first):
                yield (first, *rest)

    return tuple(rec(n, max_parts, n))


def removable_boxes(shape: Partition) -> list[BoxCoord]:
    """Boxes whose removal leaves a partition, top row first."""
    out = []
    for i, part in enumerate(shape, start=1):
        below = shape[i] if i < len(shape) else 0
        if part > below:
            out.append(BoxCoord(i, part))
    return out


def addable_boxes(shape: Partition) -> list[BoxCoord]:
    """Boxes whose addition leaves a partition, top row first.

    The row just below the last nonzero part is always addable.
    """
    out = [BoxCoord(1, shape[0] + 1)] if shape else [BoxCoord(1, 1)]
    for i in range(2, len(shape) + 1):
        if shape[i - 1] < shape[i - 2]:
            out.append(BoxCoord(i, shape[i - 1] + 1))
    if shape:
        out.append(BoxCoord(len(shape) + 1, 1))
    return out


def add_box(shape: Partition, row: int) -> Partition:
    """Add a box to ``row`` (1-based), which must be addable."""
    if row == len(shape) + 1:
        return shape + (1,)
    if not 1 <= row <= len(shape):
        raise InvariantViolation("addable box", f"row {row} of {shape}")
    grown = shape[: row - 1] + (shape[row - 1] + 1,) + shape[row:]
    if row > 1 and grown[row - 1] > grown[row - 2]:
        raise InvariantViolation("addable box", f"row {row} of {shape}")
    return grown


def remove_box(shape: Partition, row: int) -> Partition:
    """Remove a box from ``row`` (1-based), which must be removable."""
    if not 1 <= row <= len(shape):
        raise InvariantViolation("removable box", f"row {row} of {shape}")
    shrunk = shape[: row - 1] + (shape[row - 1] - 1,) + shape[row:]
    if row < len(shape) and shrunk[row - 1] < shrunk[row]:
        raise InvariantViolation("removable box", f"row {row} of {shape}")
    while shrunk and shrunk[-1] == 0:
        shrunk = shrunk[:-1]
    return shrunk


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


def validate_path(path) -> GrowthPath:
    path = tuple(check_partition(shape) for shape in path)
    if not path or path[0] != ():
        raise InvariantViolation("growth path starts empty", f"{path!r}")
    for smaller, larger in zip(path, path[1:]):
        grown_row(smaller, larger)
    return path


def syt_to_path(rows) -> GrowthPath:
    """Growth path of a standard Young tableau given as a row grid."""
    rows = tuple(tuple(row) for row in rows)
    n = sum(len(row) for row in rows)
    entries = sorted(x for row in rows for x in row)
    if entries != list(range(1, n + 1)):
        raise InvariantViolation("entries 1..n", f"{entries}")
    for row in rows:
        for a, b in zip(row, row[1:]):
            if a >= b:
                raise InvariantViolation("strictly increasing rows", f"{row}")
    for upper, lower in zip(rows, rows[1:]):
        if len(lower) > len(upper):
            raise InvariantViolation("weakly decreasing shape", f"{rows}")
        for a, b in zip(upper, lower):
            if a >= b:
                raise InvariantViolation("strictly increasing columns", f"{rows}")
    path = [()]
    for i in range(1, n + 1):
        shape = tuple(sum(1 for x in row if x <= i) for row in rows)
        path.append(check_partition(shape))
    return tuple(path)


def path_to_syt(path) -> Rows:
    """Row grid of the standard Young tableau with the given growth path."""
    path = validate_path(path)
    rows: list[list[int]] = []
    for step, (smaller, larger) in enumerate(zip(path, path[1:]), start=1):
        row = grown_row(smaller, larger)
        while len(rows) < row:
            rows.append([])
        rows[row - 1].append(step)
    return tuple(tuple(row) for row in rows)


@cache
def enumerate_paths(shape: Partition) -> tuple[GrowthPath, ...]:
    """All growth paths from the empty partition to ``shape``, canonical order."""
    shape = check_partition(shape)
    if not shape:
        return (((),),)
    out = []
    for box in removable_boxes(shape):
        for prefix in enumerate_paths(remove_box(shape, box.row)):
            out.append(prefix + (shape,))
    return tuple(sorted(out, reverse=True))


def enumerate_syt(shape: Partition) -> list[Rows]:
    return [path_to_syt(path) for path in enumerate_paths(shape)]


# ---------------------------------------------------------------------------
# standard Weyl tableaux


@dataclass(frozen=True)
class WeylTableau:
    """Rows of a semistandard tableau over the internal alphabet {1..d}."""

    rows: Rows
    d: int

    @property
    def shape(self) -> Partition:
        return tuple(len(row) for row in self.rows)

    def content(self) -> tuple[int, ...]:
        """How many times each letter occurs, indexed 0..d-1 for letters 1..d."""
        counts = [0] * self.d
        for row in self.rows:
            for x in row:
                counts[x - 1] += 1
        return tuple(counts)


def validate_weyl(t: WeylTableau) -> WeylTableau:
    if t.d < 1:
        raise InvariantViolation("alphabet size", f"d={t.d}")
    if check_partition(t.shape) != t.shape:
        raise InvariantViolation("nonempty rows", f"{t.rows}")
    if len(t.rows) > t.d:
        raise InvariantViolation("at most d rows", f"{len(t.rows)} rows, d={t.d}")
    for row in t.rows:
        for x in row:
            if not isinstance(x, int) or not 1 <= x <= t.d:
                raise InvariantViolation("entries in alphabet", f"{x!r} with d={t.d}")
        for a, b in zip(row, row[1:]):
            if a > b:
                raise InvariantViolation("weakly increasing rows", f"{row}")
    for upper, lower in zip(t.rows, t.rows[1:]):
        for a, b in zip(upper, lower):
            if a >= b:
                raise InvariantViolation("strictly increasing columns", f"{t.rows}")
    return t


def make_weyl(rows, d: int) -> WeylTableau:
    return validate_weyl(WeylTableau(tuple(tuple(row) for row in rows), d))


# ---------------------------------------------------------------------------
# GT patterns


@dataclass(frozen=True)
class GTPattern:
    """Levels bottom-up: ``levels[j-1]`` has ``j`` entries, top level is the shape."""

    levels: tuple[tuple[int, ...], ...]

    @property
    def d(self) -> int:
        return len(self.levels)

    def m(self, i: int, j: int) -> int:
        """Entry ``m_{i,j}`` (1-based row within 1-based level)."""
        return self.levels[j - 1][i - 1]

    @property
    def shape(self) -> Partition:
        """The top level without its trailing zeros; validated where the pattern entered."""
        top = self.levels[-1]
        end = len(top)
        while end and not top[end - 1]:
            end -= 1
        return top[:end]

    def key(self) -> tuple[int, ...]:
        """Sort key: entries read top level to bottom, left to right."""
        return tuple(x for level in reversed(self.levels) for x in level)


def validate_gt(p: GTPattern) -> GTPattern:
    if not p.levels:
        raise InvariantViolation("alphabet size", "empty pattern")
    for j, level in enumerate(p.levels, start=1):
        if len(level) != j:
            raise InvariantViolation("triangular pattern", f"level {j} has {len(level)} entries")
        if any(x < 0 for x in level):
            raise InvariantViolation("nonnegative entries", f"level {j}: {level}")
    for a, b in zip(p.levels[0], p.levels[0][1:]):
        if a < b:
            raise InvariantViolation("in-betweenness", f"{p.levels}")
    for j in range(2, p.d + 1):
        upper, lower = p.levels[j - 1], p.levels[j - 2]
        for i in range(j - 1):
            if not upper[i] >= lower[i] >= upper[i + 1]:
                raise InvariantViolation("in-betweenness", f"levels {j-1},{j} of {p.levels}")
    return p


def weyl_to_gt(t: WeylTableau) -> GTPattern:
    """GT pattern whose level ``j`` is the shape of the entries-``<= j`` subtableau."""
    return _weyl_to_gt_unchecked(validate_weyl(t))


def _weyl_to_gt_unchecked(t: WeylTableau) -> GTPattern:
    levels = []
    for j in range(1, t.d + 1):
        counts = [bisect_right(row, j) for row in t.rows]  # rows are sorted
        counts += [0] * (j - len(counts))
        levels.append(tuple(counts[:j]))
    return GTPattern(tuple(levels))


def gt_to_weyl(p: GTPattern) -> WeylTableau:
    return gt_to_weyl_unchecked(validate_gt(p))


def gt_to_weyl_unchecked(p: GTPattern) -> WeylTableau:
    """Row view of a pattern the package made itself; :func:`gt_to_weyl` validates."""
    levels = p.levels
    rows = []
    for i in range(p.d):
        # row i holds m_{i+1,j} - m_{i+1,j-1} copies of letter j, for j > i
        row: list[int] = []
        before = 0
        for j in range(i, p.d):
            here = levels[j][i]
            row += [j + 1] * (here - before)
            before = here
        if row:
            rows.append(tuple(row))
    return WeylTableau(tuple(rows), p.d)


@cache
def enumerate_gt(shape: Partition, d: int) -> tuple[GTPattern, ...]:
    """All GT patterns with top level ``shape`` (zero-padded to ``d``), canonical order."""
    if d < 1:
        raise InvariantViolation("alphabet size", f"d={d}")
    shape = check_partition(shape)
    top = pad_partition(shape, d)

    def children(level: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        spans = [range(level[i + 1], level[i] + 1) for i in range(len(level) - 1)]
        return itertools.product(*spans)

    patterns: list[list[tuple[int, ...]]] = [[top]]
    for _ in range(d - 1):
        patterns = [
            [child, *stack] for stack in patterns for child in children(stack[0])
        ]
    out = [GTPattern(tuple(stack)) for stack in patterns]
    out.sort(key=GTPattern.key, reverse=True)
    return tuple(out)


def enumerate_weyl(shape: Partition, d: int) -> list[WeylTableau]:
    """All standard Weyl tableaux of ``shape`` over ``{1..d}``, canonical order."""
    return [gt_to_weyl_unchecked(p) for p in enumerate_gt(check_partition(shape), d)]


# ---------------------------------------------------------------------------
# rendering, parsing and the external alphabet


def _is_json(value, kind: type) -> bool:
    # a JSON integer is an int, and bool is a subclass of int
    return type(value) is int if kind is int else isinstance(value, kind)


def json_field(obj, name: str, kind: type, document: str, items: type = object):
    """``obj[name]`` of a parsed JSON ``document``, checked to be a ``kind``.

    Booleans do not pass as integers, and a list must hold only ``items``.
    """
    value = obj.get(name) if isinstance(obj, dict) else None
    if not _is_json(value, kind) or (
        items is not object and not all(_is_json(x, items) for x in value)
    ):
        raise InvariantViolation(f"{document} document", f"bad or missing field {name!r}")
    return value


def json_rows(obj, name: str, document: str) -> tuple[tuple[int, ...], ...]:
    """``obj[name]``, a list of lists of integers (tableau rows or growth steps), as tuples."""
    rows = tuple(map(tuple, json_field(obj, name, list, document, list)))
    if not all(type(x) is int for row in rows for x in row):
        raise InvariantViolation(f"{document} document", f"bad or missing field {name!r}")
    return rows


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

    The JSON readers' entry check: the rows are validated once, here.
    """
    rows = [[letter_from_json(x, d) for x in row] for row in rows]
    return _weyl_to_gt_unchecked(make_weyl(rows, d))


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


def render_tableau_rows(rows: Rows, d: int | None = None) -> list[str]:
    """One string per row; entries go through the external alphabet when d is given."""
    if not rows:
        return ["()"]
    shift = 0 if d is None else letter_offset(d)
    return [" ".join([str(x - shift) for x in row]) for row in rows]


def render_gt(p: GTPattern) -> list[str]:
    """Top level first, each line centered under the widest one."""
    lines = [" ".join(str(x) for x in level) for level in reversed(p.levels)]
    width = max(len(line) for line in lines)
    return [line.center(width).rstrip() for line in lines]
