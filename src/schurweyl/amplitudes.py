"""Transition amplitudes between Gelfand-Tsetlin patterns.

A transition runs from a pattern with ``n`` boxes to one with ``n + 1``:
there is a smallest level ``k`` at which the patterns differ, and every
level ``j >= k`` of the upper pattern exceeds the lower by exactly one,
at position ``tau_j``.  :func:`louck_amplitude` gives its amplitude by
the closed-form product formula over partial hooks
``p_{i,j} = m_{i,j} + j - i`` of the lower pattern, valid for any
alphabet size.  The amplitude is a signed square root of a rational, so
it is always a single-term :class:`~schurweyl.radicals.Radical`, and
equal amplitudes are one shared object, made by
:func:`~schurweyl.radicals.radical_from_sqrt`.

The branching rule reads amplitudes from two cached fans, one per
direction, and nowhere else: :func:`up_transitions` lists every edge
that leaves a pattern by one letter, :func:`down_transitions` every
edge that enters a pattern from one lower shape.  Only the up fan
evaluates the formula, once, on a cache miss: it carries each
candidate's running product through its bottom-up scan, reading ``k``
and the ``tau_j`` off the positions it placed.  Its hooks are those of
one pattern, so a level's factor depends only on the positions of the
boxes added there and one level below, and is computed once per pair
of positions and fan.  The down fan's scan only lists the
``(lower, k)`` pairs that reach a pattern and takes each amplitude from
the up fan of letter ``k`` at that lower, so every amplitude the engine
reads is an entry of one cached up fan.  :func:`louck_amplitude` is the same
formula for one pair, the reference the tests hold both fans to.

:func:`pattern_amplitude_d2` is the paper's entry-reading rule for
two-letter alphabets.  It gives the same value on every d=2 edge and
is kept as the reference that the tests and ``check`` compare against.
"""

from __future__ import annotations

from functools import cache

from schurweyl.radicals import Radical, radical_from_sqrt
from schurweyl.tableaux import GTPattern, Partition, interlaces, pad_partition


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


def louck_amplitude(lower: GTPattern, upper: GTPattern) -> Radical:
    """Exact transition amplitude from the product formula over partial hooks.

    All hooks are evaluated on the lower pattern.  The first factor runs
    over level pairs ``(j-1, j)`` for ``j = k+1..d`` and carries the sign
    ``sgn(tau_{j-1} - tau_j)`` with ``sgn(0) = +1``; the second factor
    involves level ``k`` alone and drops out when ``k = 1``.  Each level
    contributes a signed ``sqrt(num/den)`` of integers, so the product is
    kept as one sign and one integer fraction and becomes a single square
    root at the end.

    The trust contract is that of :func:`transition_context`: valid GT
    patterns in, :class:`NotAnEdge` for a pair that is not an edge.  The
    up fan evaluates the same formula on positions its scan placed; read
    amplitudes from the fans instead.
    """
    k, taus = transition_context(lower, upper)
    hooks = list(map(_level_hooks, lower.levels))
    # level k - 1 is unchanged, which position 0 stands for
    sign = num = den = 1
    t_lo = 0
    for j, t_up in enumerate(taus, start=k):
        s, n, m = _level_factor(hooks[j - 2] if j > 1 else [], hooks[j - 1], t_lo, t_up)
        sign, num, den, t_lo = sign * s, num * n, den * m, t_up
    return radical_from_sqrt(sign, num, den)


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
def up_transitions(lower: GTPattern, k: int) -> tuple[tuple[GTPattern, Radical], ...]:
    """The up fan of letter ``k`` at ``lower``: every ``(upper, amplitude)`` one level up.

    Levels ``k..d`` each gain one box.  Each candidate holds the levels
    placed so far, bottom-up, the position of the last one's extra box and
    the running product of the formula's level factors; the scan places
    one level for all of them at a time.  The last placed level is the
    lower pattern's with one box added at that position, so which new
    positions keep it interlaced, and their level factors, depend on that
    position alone: each is worked out once per fan and shared by every
    candidate.  Edges come in ascending order of their positions.
    ``lower`` must be a valid GT pattern; a letter outside ``1..d`` raises
    ``ValueError``.
    """
    d = lower.d
    if not 1 <= k <= d:
        raise ValueError(f"letter out of range: {k} with d={d}")
    levels = lower.levels
    # under is the lower pattern's level below the one being placed, and
    # below its hooks
    under = levels[k - 2] if k > 1 else ()
    below = _level_hooks(under)
    # (placed levels, last added box's position, sign, num, den); position 0
    # stands for level k - 1, placed unchanged
    candidates = [(levels[: k - 1], 0, 1, 1, 1)]
    for j in range(k, d + 1):
        row = levels[j - 1]
        hooks = _level_hooks(row)
        steps: dict[int, list] = {}
        extended = []
        for placed, t_lo, sign, num, den in candidates:
            step = steps.get(t_lo)
            if step is None:
                # The placed level is under plus a box at t_lo, and under
                # interlaces row, so only an added box can break that: the
                # box at t_lo needs row[t_lo - 1] > under[t_lo - 1], and one
                # added to row at pos + 1 needs under[pos - 1] > row[pos],
                # unless the other box raises the entry it is compared with.
                # Interlacing the level below also makes the top a partition.
                fits = not t_lo or row[t_lo - 1] > under[t_lo - 1]
                step = steps[t_lo] = [
                    (
                        row[:pos] + (row[pos] + 1,) + row[pos + 1 :],
                        pos + 1,
                        *_level_factor(below, hooks, t_lo, pos + 1),
                    )
                    for pos in range(j)
                    if (fits or pos + 1 == t_lo)
                    and (not pos or pos == t_lo or under[pos - 1] > row[pos])
                ]
            extended += [
                ((*placed, new), t_up, sign * s, num * n, den * m)
                for new, t_up, s, n, m in step
            ]
        candidates = extended
        under, below = row, hooks
    return tuple(
        (GTPattern(placed), radical_from_sqrt(sign, num, den))
        for placed, _, sign, num, den in candidates
    )


@cache
def down_transitions(
    upper: GTPattern, shape: Partition
) -> tuple[tuple[GTPattern, int, Radical], ...]:
    """The down fan of ``upper`` onto ``shape``: every ``(lower, k, amplitude)``.

    Each entry is an edge of the up fan of letter ``k`` at a ``lower`` of
    the given shape, and its amplitude is the object that fan holds for
    ``upper``.  ``upper`` must be a valid GT pattern and ``shape`` its
    shape less one box, as the growth path of a triplet forces; any other
    shape raises :class:`NotAnEdge`.  The top level is fixed to ``shape``;
    the scan then places levels ``d-1..1`` top-down, one level for all
    candidates at a time.  Each level either stays as in ``upper``, which
    ends an edge with ``k = j + 1``, or loses one box and must interlace
    the level above.  Edges come by descending ``k``, then in ascending
    order of the missing boxes' positions read from the top level down.
    """
    levels = upper.levels
    top = pad_partition(shape, upper.d)
    if sorted(up - low for up, low in zip(levels[-1], top)) != [0] * (upper.d - 1) + [1]:
        raise NotAnEdge(f"shape {shape} is not the shape of the upper pattern less one box")
    # a candidate is the levels placed so far, bottom-up, each one box short
    candidates = [(top,)]
    pairs = []
    for j in range(upper.d - 1, 0, -1):
        row = levels[j - 1]
        shrunk = [row[:pos] + (row[pos] - 1,) + row[pos + 1 :] for pos in range(j)]
        pairs += [
            (levels[:j] + placed, j + 1) for placed in candidates if interlaces(placed[0], row)
        ]
        # interlacing the placed level above implies the partition and sign checks
        candidates = [
            (new, *placed) for placed in candidates for new in shrunk if interlaces(placed[0], new)
        ]
    pairs += [(placed, 1) for placed in candidates]
    lowers = [(GTPattern(placed), k) for placed, k in pairs]
    # a KeyError here would mean that the two scans disagree on an edge
    return tuple((lower, k, dict(up_transitions(lower, k))[upper]) for lower, k in lowers)
