"""Transition amplitudes between Gelfand-Tsetlin patterns.

A transition runs from a pattern with ``n`` boxes to one with ``n + 1``:
there is a smallest level ``k`` at which the patterns differ, and every
level ``j >= k`` of the upper pattern exceeds the lower by exactly one,
at position ``tau_j`` (:func:`transition_context` reads ``k`` and the
``tau_j`` off a pair).  Its amplitude is Louck's closed-form product
formula over partial hooks ``p_{i,j} = m_{i,j} + j - i`` of the lower
pattern, valid for any alphabet size.  The amplitude is a signed square
root of a rational, so it is always a single-term
:class:`~schurweyl.radicals.Radical`, and equal amplitudes are one shared
object, made by :func:`~schurweyl.radicals.radical_from_sqrt`.

The branching rule reads amplitudes from two cached fans, one per
direction, and nowhere else: :func:`up_transitions` lists every edge that
leaves a pattern by one letter, :func:`down_transitions` every edge that
enters a pattern from one lower shape, and each function is its own fans'
cache.  Only :func:`_scan` evaluates the formula, once per edge, in one
bottom-up scan over any range of letters, and it returns their fans with
each upper as its levels tuple.  On a miss :func:`up_transitions` scans
its letter alone and makes the fan's pattern records before any reader
sees it.  A one-shot :func:`~schurweyl.graph.build` scans every letter of
a vertex at once, since the Clebsch-Gordan step is block-diagonal in the
lower shape and a pattern's fans form one row block, and caches none of
them.  The scan carries each candidate's running product.  A level's
factor, and whether its boxes keep the levels interlaced, depend only on
that level and the one below it and on where the boxes went: not on the
other levels, the letter, the alphabet or the pair's full columns.  So
the cached table :func:`_level_steps` works each out once per pair of
adjacent levels, shifted down by ``row[-1]``, for all fans and alphabets.
The down fan's scan only lists the ``(lower, k)`` pairs that reach a
pattern and takes each amplitude from the up fan of letter ``k`` at that
lower, so every amplitude the branching steps read is an entry of one
cached up fan.  Both scans compare only the entries that a moved box can
break.  The tests hold both fans to their own evaluation of the formula,
which shares no code with these.

:func:`pattern_amplitude_d2` is the paper's entry-reading rule for
two-letter alphabets.  It gives the same value on every d=2 edge and
is kept as the reference that the tests and ``check`` compare against.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import gcd

from schurweyl.radicals import Radical, _unchecked_sqrt, radical_from_sqrt
from schurweyl.tableaux import GTPattern, Partition, pad_partition


class NotAnEdge(ValueError):
    """The two patterns are not related by a single-box transition."""


class WrongDimension(ValueError):
    """The entry-reading rule only applies to two-letter alphabets."""


def transition_context(lower: GTPattern, upper: GTPattern) -> tuple[int, tuple[int, ...]]:
    """Locate the bumped positions of a single-box transition.

    Returns ``(k, taus)``: ``k`` is the smallest differing level and
    ``taus[j - k]`` is the 1-based position of the extra box at level
    ``j``, for ``j = k..d``.

    Both arguments must be valid GT patterns, as made by
    :func:`~schurweyl.tableaux.enumerate_gt`, :func:`up_transitions` or
    :func:`down_transitions`; they are not re-validated here.  A pair
    that is not a single-box transition raises :class:`NotAnEdge`.
    """
    d = lower.d
    if upper.d != d:
        raise NotAnEdge(f"pattern depths differ: {d} vs {upper.d}")
    k = 0
    taus = []
    for j in range(1, d + 1):
        low, up = lower.levels[j - 1], upper.levels[j - 1]
        bumped = [i for i in range(j) if up[i] != low[i]]
        if not bumped:
            if k:
                raise NotAnEdge(f"level {j} unchanged above level {k}")
            continue
        if len(bumped) > 1 or up[bumped[0]] != low[bumped[0]] + 1:
            raise NotAnEdge(f"level {j} changes by more than one box")
        if not k:
            k = j
        taus.append(bumped[0] + 1)
    if not k:
        raise NotAnEdge("patterns are identical")
    return k, tuple(taus)


def _level_hooks(level: tuple[int, ...]) -> list[int]:
    # the partial hooks p_{i,j} = m_{i,j} + j - i of level j, for i = 1..j
    j = len(level)
    return [m + j - i for i, m in enumerate(level, start=1)]


def _level_factor(below: list[int], row: list[int], t_lo: int, t_up: int):
    # the factor of level j as (sign, |num|, |den|), from the hooks of levels
    # j - 1 and j and their bumped positions: the signed (j-1, j) pair factor,
    # or, when t_lo is 0 (level j - 1 unchanged), the level-k factor; that of
    # level 1 is 1
    h_up = row[t_up - 1]
    num = den = 1
    if t_lo:
        h_lo = below[t_lo - 1]
        for i, h in enumerate(below, start=1):
            if i != t_lo:
                num *= h_up - h
                den *= h_lo - h + 1
        for i, h in enumerate(row, start=1):
            if i != t_up:
                num *= h_lo - h + 1
                den *= h_up - h
    else:
        for h in below:
            num *= h_up - h
        for i, h in enumerate(row, start=1):
            if i != t_up:
                den *= h_up - h
    if den == 0:
        raise NotAnEdge(f"vanishing hook product at level {len(row)}")
    return (-1 if 0 < t_lo < t_up else 1), abs(num), abs(den)


def pattern_amplitude_d2(lower: GTPattern, upper: GTPattern) -> Radical:
    """Exact d=2 transition amplitude from the entry-counting rules.

    After subtracting the common box count ``c`` of the second row, the
    amplitude depends only on the reduced first-row length ``n`` of the
    upper pattern and on whether the bottom entries ``m_{1,1}`` agree.
    The ``c`` full columns drop out, the ``d = 2`` case of the invariance
    by which :func:`_scan` keys its level steps; this rule reads
    the entries itself and shares no table with the fans.
    """
    if lower.d != 2:
        raise WrongDimension(f"entry-reading rule needs d=2, got d={lower.d}")
    transition_context(lower, upper)

    m_low = lower.m(1, 1)
    m_up = upper.m(1, 1)
    a_up, b_up = upper.levels[1]

    if (a_up, b_up) == (lower.levels[1][0] + 1, lower.levels[1][1]):
        # box added to row 1
        c = b_up
        n = a_up - c
        if m_low == m_up:
            return radical_from_sqrt(1, n - (m_up - c), n)
        return radical_from_sqrt(1, m_up - c, n)
    # box added to row 2
    c = b_up - 1
    n = a_up - c + 1
    if m_low == m_up:
        return radical_from_sqrt(1, m_up - c, n)
    return radical_from_sqrt(-1, n - (m_up - c), n)


@cache
def _level_steps(under: tuple[int, ...], row: tuple[int, ...]) -> tuple[tuple[tuple, ...], ...]:
    """The up fans' steps from one pair of adjacent levels of a lower pattern.

    ``row`` is a level ``j`` and ``under`` the level ``j - 1`` below it
    (empty at ``j = 1``), as adjacent levels of a valid GT pattern.  Entry
    ``t_lo`` (``0..j-1``) lists, as a tuple of steps ``(t_up, sign, num,
    den)``, every position ``t_up`` (1-based, ascending) at which a box
    added to ``row`` keeps it interlaced with ``under`` plus a box at
    ``t_lo``, where ``t_lo = 0`` leaves ``under`` unchanged, with that
    level's factor of Louck's formula, ``num / den`` in lowest terms.  A
    step reads these two levels and nothing else of the pattern, nor the
    letter or the alphabet, so all fans share one table per pair.  Nor does
    it read the pair's full columns: adding ``c`` to every entry of both
    levels leaves every hook difference and every comparison of entries as
    it was, so :func:`_scan` passes each pair above level 1 shifted so that
    ``row[-1]`` is 0.

    Every ``t_lo`` is filled, also one that no fan reaches because ``under``
    plus a box there is no partition.  Such an entry is empty, never a
    :class:`NotAnEdge`: the box breaks the partition when ``under[t_lo - 2]
    == under[t_lo - 1]``, and interlacing puts ``row[t_lo - 1]`` between the
    two, so ``row[t_lo - 1] == under[t_lo - 1]`` and no box fits elsewhere;
    the one remaining position, ``t_up = t_lo``, needs ``under[t_lo - 2] >
    row[t_lo - 1]``, which fails too.  Only such a position gives a
    vanishing hook product.

    The table holds tuples of ints only, no rows, patterns or amplitudes, so
    clearing it alone leaves each amplitude one shared object, and by the
    third full garbage collection its steps, entries and table are untracked.
    """
    below, hooks = _level_hooks(under), _level_hooks(row)
    # Under interlaces row, so only an added box can break that.  One added
    # to row at pos + 1 needs under[pos - 1] > row[pos], unless pos is 0 or
    # the box below at t_lo = pos raises that entry; the box at t_lo needs
    # row[t_lo - 1] > under[t_lo - 1], unless the one added to row sits at
    # t_lo too.  Interlacing the level below also makes the top a partition.
    free = [pos for pos in range(1, len(row)) if under[pos - 1] > row[pos]]
    table = []
    for t_lo in range(len(row)):
        if not t_lo or row[t_lo - 1] > under[t_lo - 1]:
            fits = sorted({0, t_lo, *free})
        else:
            fits = [t_lo - 1] if t_lo == 1 or under[t_lo - 2] > row[t_lo - 1] else []
        entry = []
        for pos in fits:
            sign, num, den = _level_factor(below, hooks, t_lo, pos + 1)
            # reduced once here, a scan's running product stays small: at
            # d = 64 the unreduced one reached thousands of bits for a value of 1
            g = gcd(num, den)
            entry.append((pos + 1, sign, num // g, den // g))
        table.append(tuple(entry))
    return tuple(table)


def _scan(lower: GTPattern, first: int, last: int) -> list[list]:
    """The up fans of letters ``first..last`` at ``lower``, one list of edges per letter.

    One bottom-up scan serves all of them.  Letter ``j``'s fan has one
    candidate at level ``j``: the lower pattern's levels below ``j``, placed
    unchanged.  Each candidate holds the levels placed so far, the position
    of the last one's extra box and the running product of the formula's
    level factors, and the scan places one level for every candidate of
    every letter at a time.  The last placed level is the lower pattern's
    with one box added at that position, so which new positions keep it
    interlaced, and their level factors, depend on that position and the
    two lower-pattern levels alone: :func:`_level_steps` works each out once
    per pair of adjacent levels, for all fans and alphabets, and the scan
    looks each level's entry of ``(t_up, sign, num, den)`` steps up once
    for all its letters.  The table is keyed by the pair shifted down by
    ``row[-1]``, the count of the pair's full columns, which change no hook
    difference and no comparison of entries.  At ``row[-1] == 0``, which
    most lookups at ``d >= 4`` meet, the levels go in as they are and no
    tuple is built; level 1, whose few pairs hold one trivial step each, is
    never shifted.  Each fan's edges come in ascending order of their
    positions, each ``(levels, amplitude)``: the upper as its levels tuple.
    Nothing is cached here, so the fans are new lists.
    """
    levels = lower.levels
    # under is the lower pattern's level below the one being placed
    under = levels[first - 2] if first > 1 else ()
    # the lists that collect the edges of letters first..last, in order
    filled = []
    # one list for the candidates of every letter: (its letter's edge list,
    # placed levels, last added box's position, sign, num, den); position 0
    # stands for level j - 1 of letter j, placed unchanged.  The scan keeps
    # each letter's candidates in order as it extends them
    candidates = []
    for j in range(first, len(levels) + 1):
        row = levels[j - 1]
        if j <= last:
            edges = []
            filled.append(edges)
            candidates.append((edges, levels[: j - 1], 0, 1, 1, 1))
        # row[-1], the pair's smallest entry, counts its full columns; they
        # change no step, so pairs that differ by them share one table entry;
        # level 1, below which under is empty, goes in as it is
        c = row[-1]
        if c and under:
            steps = _level_steps(tuple([m - c for m in under]), tuple([m - c for m in row]))
        else:
            steps = _level_steps(under, row)
        # row with one box added, one object per position for the whole level
        grown = {}
        extended = []
        for edges, placed, t_lo, sign, num, den in candidates:
            for t_up, s, n, m in steps[t_lo]:
                new = grown.get(t_up)
                if new is None:
                    new = grown[t_up] = row[: t_up - 1] + (row[t_up - 1] + 1,) + row[t_up:]
                extended.append((edges, (*placed, new), t_up, sign * s, num * n, den * m))
        candidates = extended
        under = row
    # the product's ints are the formula's, so each root is made unchecked
    for edges, placed, _, sign, num, den in candidates:
        edges.append((placed, _unchecked_sqrt(sign, num, den)))
    return filled


@lru_cache(maxsize=None, typed=True)
def up_transitions(lower: GTPattern, k: int) -> tuple[tuple[GTPattern, Radical], ...]:
    """The up fan of letter ``k`` at ``lower``: every ``(upper, amplitude)`` one level up.

    Levels ``k..d`` each gain one box.  This is the cache of the up fans:
    a miss runs a :func:`_scan` of letter ``k`` alone, so a caller that
    needs one letter, as a cold ``decode`` does, pays for no other, and
    makes the fan's records from the scan's levels tuples; a hit returns
    that same fan.  :func:`~schurweyl.graph.build` scans without it and
    caches nothing here.  Edges come in ascending order of their positions.
    ``lower`` must be a valid GT pattern; a letter outside ``1..d`` raises
    ``ValueError`` and is not cached.  The cache is typed, so a float
    letter never hits an int letter's fan.
    """
    if not 0 < k <= len(lower.levels):
        raise ValueError(f"letter out of range: {k} with d={len(lower.levels)}")
    # the scan's levels are valid, so records are made as namedtuple's _make does
    new = tuple.__new__
    return tuple([(new(GTPattern, (up,)), amp) for up, amp in _scan(lower, k, k)[0]])


@cache
def down_transitions(
    upper: GTPattern, shape: Partition
) -> tuple[tuple[GTPattern, int, Radical], ...]:
    """The down fan of ``upper`` onto ``shape``: every ``(lower, k, amplitude)``.

    Each entry is an edge of the up fan of letter ``k`` at a ``lower`` of the
    given shape, whose amplitude is the object that fan holds for ``upper``.
    ``upper`` must be a valid GT pattern and ``shape`` its shape less one box,
    as a triplet's growth path forces; another shape raises :class:`NotAnEdge`.
    The scan fixes the top level to ``shape`` and places levels ``d-1..0``
    top-down, each for all candidates at once: level ``j`` stays as in
    ``upper``, which ends an edge with ``k = j + 1``, or loses one box.  Edges
    come by descending ``k``, then in ascending order of the missing boxes'
    positions read from the top level down.

    A candidate carries the position ``t`` of the box its last placed level
    lost from ``above``, level ``j + 1`` of ``upper``.  Since ``row``, level
    ``j``, interlaces ``above``, only a lowered entry can break that, as in
    :func:`_level_steps`: entry ``t`` of ``above`` needs ``row[t] < above[t]``
    unless ``t == j`` or ``row`` loses its box at ``t`` too, and entry ``pos``
    of ``row``, if it loses the box, needs ``row[pos] > above[pos + 1]`` unless
    ``pos + 1 == t``.  Level 0 is empty, so all candidates stay there, as
    ``k = 1`` edges.  Interlacing implies the partition and sign checks.
    """
    levels = upper.levels
    top = pad_partition(shape, upper.d)
    lost = [up - low for up, low in zip(levels[-1], top)]
    if sorted(lost) != [0] * (upper.d - 1) + [1]:
        raise NotAnEdge(f"shape {shape} is not the shape of the upper pattern less one box")
    # a candidate: the levels placed so far, bottom-up, each one box short, and t
    candidates, fan = [((top,), lost.index(1))], []
    for j in range(upper.d - 1, -1, -1):
        row, above, extended = levels[j - 1], levels[j], []
        for placed, t in candidates:
            stays = t == j or row[t] < above[t]
            if stays:
                lower = GTPattern(levels[:j] + placed)
                # a KeyError here would mean that the two scans disagree on an edge
                fan.append((lower, j + 1, dict(up_transitions(lower, j + 1))[upper]))
            for pos in range(j):
                if (stays or pos == t) and (pos + 1 == t or row[pos] > above[pos + 1]):
                    extended.append(((row[:pos] + (row[pos] - 1,) + row[pos + 1 :], *placed), pos))
        candidates = extended
    return tuple(fan)
