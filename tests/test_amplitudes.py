import gc
import inspect
import random
import sys
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from schurweyl import amplitudes
from schurweyl.amplitudes import (
    NotAnEdge,
    WrongDimension,
    _level_steps,
    down_transitions,
    pattern_amplitude_d2,
    transition_context,
    up_transitions,
)
from schurweyl.graph import build
from schurweyl.radicals import ONE, ZERO, Radical, radical_from_sqrt
from schurweyl.tableaux import (
    GTPattern,
    enumerate_gt,
    enumerate_paths,
    gt_to_weyl,
    interlaces,
    partitions,
    weyl_to_gt,
)
from schurweyl.transform import decode, encode

from oracles import down_fan, louck_reference, module_caches, up_fan


def gt2(m11, a, b):
    return GTPattern(((m11,), (a, b)))


def all_patterns(n, d):
    for shape in partitions(n, d):
        yield from enumerate_gt(shape, d)


def lower_shapes(shape):
    """Every shape one box less than a nonempty ``shape``: the last steps but one of its paths."""
    return {path[-2] for path in enumerate_paths(shape)}


def test_transition_context_golden():
    assert transition_context(gt2(2, 2, 1), gt2(2, 3, 1)) == (2, (1,))
    assert transition_context(gt2(2, 3, 2), gt2(3, 3, 3)) == (1, (1, 2))
    zero = GTPattern(((0,), (0, 0), (0, 0, 0)))
    one = GTPattern(((1,), (1, 0), (1, 0, 0)))
    assert transition_context(zero, one) == (1, (1, 1, 1))


def test_transition_context_rejects():
    with pytest.raises(NotAnEdge):
        transition_context(gt2(1, 1, 0), gt2(1, 1, 0))
    with pytest.raises(NotAnEdge):
        transition_context(gt2(1, 1, 0), gt2(1, 3, 0))
    with pytest.raises(NotAnEdge):
        transition_context(gt2(1, 1, 0), gt2(2, 2, 1))
    with pytest.raises(NotAnEdge):
        # level 1 bumped but level 2 left unchanged
        transition_context(GTPattern(((0,), (1, 0))), GTPattern(((1,), (1, 0))))
    with pytest.raises(NotAnEdge):
        transition_context(
            GTPattern(((1,), (1, 0))), GTPattern(((0,), (0, 0), (0, 0, 0)))
        )


def test_golden_amplitudes_both_engines():
    cases = [
        (gt2(2, 2, 1), gt2(2, 3, 1), radical_from_sqrt(1, 1, 2)),
        (gt2(2, 3, 2), gt2(3, 3, 3), radical_from_sqrt(-1, 1, 2)),
        (gt2(4, 7, 4), gt2(5, 7, 5), radical_from_sqrt(-1, 3, 4)),
    ]
    for lower, upper, expected in cases:
        assert louck_reference(lower, upper) == expected
        assert pattern_amplitude_d2(lower, upper) == expected


def test_unit_amplitude_edges():
    # first letter into the empty tableau, any d
    for d in range(1, 5):
        for k in range(1, d + 1):
            zero = GTPattern(tuple((0,) * j for j in range(1, d + 1)))
            [(upper, amp)] = up_transitions(zero, k)
            assert amp == louck_reference(zero, upper) == ONE
    # d=1: a single row only ever extends with amplitude 1
    for n in range(4):
        assert louck_reference(GTPattern(((n,),)), GTPattern(((n + 1,),))) == ONE


def test_pattern_engine_rejects_other_d():
    zero = GTPattern(((0,), (0, 0), (0, 0, 0)))
    one = GTPattern(((1,), (1, 0), (1, 0, 0)))
    with pytest.raises(WrongDimension):
        pattern_amplitude_d2(zero, one)


def test_pattern_equals_louck_d2():
    edges = 0
    for n in range(0, 7):
        for lower in all_patterns(n, 2):
            for k in (1, 2):
                for upper, amp in up_transitions(lower, k):
                    assert pattern_amplitude_d2(lower, upper) == amp
                    assert louck_reference(lower, upper) == amp
                    edges += 1
    assert edges > 100


def test_amplitudes_nonzero_and_normalized():
    # columns of the branching isometry have unit norm: for every lower
    # pattern and letter, the squared amplitudes over fan-out sum to 1
    for d, n_max in ((1, 4), (2, 4), (3, 4), (4, 4), (5, 3)):
        for n in range(0, n_max + 1):
            for lower in all_patterns(n, d):
                for k in range(1, d + 1):
                    total = ZERO
                    for _, amp in up_transitions(lower, k):
                        assert not amp.is_zero()
                        total = total + amp.square()
                    assert total == ONE


def test_up_down_transitions_agree():
    # the two fans hold the same edges with the same amplitudes: every up
    # edge is in the down fan of its upper pattern onto the lower shape
    for d in (1, 2, 3, 4):
        for n in range(0, 6):
            up_edges = {
                (lower, upper, k): amp
                for lower in all_patterns(n, d)
                for k in range(1, d + 1)
                for upper, amp in up_transitions(lower, k)
            }
            down_edges = []
            for upper in all_patterns(n + 1, d):
                for shape in lower_shapes(upper.shape):
                    for lower, k, amp in down_transitions(upper, shape):
                        assert lower.shape == shape
                        down_edges.append(((lower, upper, k), amp))
            assert len(down_edges) == len(up_edges)
            assert dict(down_edges) == up_edges
    # and both hold exactly the pairs of valid patterns that
    # transition_context reads as an edge, an oracle apart from either scan
    for d, n_max in ((1, 4), (2, 4), (3, 4), (4, 4), (5, 3)):
        for n in range(0, n_max + 1):
            uppers = list(all_patterns(n + 1, d))
            for lower in all_patterns(n, d):
                letters = {upper: edge_letter(lower, upper) for upper in uppers}
                for k in range(1, d + 1):
                    expected = {upper for upper, letter in letters.items() if letter == k}
                    assert {upper for upper, _ in up_transitions(lower, k)} == expected
            for upper in uppers:
                for shape in lower_shapes(upper.shape):
                    letters = ((p, edge_letter(p, upper)) for p in enumerate_gt(shape, d))
                    expected = {(p, k) for p, k in letters if k is not None}
                    found = {(lower, k) for lower, k, _ in down_transitions(upper, shape)}
                    assert found == expected


def test_fans_match_pairwise_formula():
    # the up fan reads k and taus off its own scan and the down fan takes its
    # amplitudes from the up fans; the book's formula re-derives k and taus
    # through transition_context and shares no level table or factor with
    # the fans, so it is the oracle
    for d, n in ((2, 8), (3, 6), (4, 5), (5, 4)):
        g = build(d, n)
        fans = set()
        for e in g.edges:
            lower, upper = g.vertex(e.lower).pattern, g.vertex(e.upper).pattern
            assert e.amplitude == louck_reference(lower, upper)
            fans.add((upper, lower.shape))
        for upper, shape in fans:
            for lower, _, amp in down_transitions(upper, shape):
                assert amp == louck_reference(lower, upper)


def test_up_fans_match_brute_force_in_order():
    # merges run in fan order and a sum's stored term order sets its approx
    # float, so the up fan's order is pinned as well as its edges
    # d = 2 reaches level 10, where most patterns have full columns
    for d, n_max in ((2, 11), (3, 5), (4, 4), (5, 3), (6, 3)):
        for n in range(n_max):
            for lower in all_patterns(n, d):
                for k in range(1, d + 1):
                    assert list(up_transitions(lower, k)) == up_fan(lower, k), (lower, k)


def level_pairs(patterns):
    """Every ``(under, row)`` pair of adjacent levels, ``under = ()`` below level 1."""
    return {
        (p.levels[j - 2] if j > 1 else (), p.levels[j - 1])
        for p in patterns
        for j in range(1, p.d + 1)
    }


def shifted_pairs(patterns):
    """The table's keys for :func:`level_pairs`: each pair above level 1 less its full columns."""
    pairs = level_pairs(patterns)
    return {(under, row) for under, row in pairs if not under} | {
        (tuple(m - row[-1] for m in under), tuple(m - row[-1] for m in row))
        for under, row in pairs
        if under
    }


def test_up_fans_match_brute_force_in_every_table_state():
    # every fan, letter and alphabet reads one shared table of level steps,
    # so a fan must not depend on what the table already holds
    for d, n_max in ((3, 5), (4, 4), (5, 3)):
        lowers = [p for n in range(n_max) for p in all_patterns(n, d)]
        smaller = [p for n in range(n_max) for p in all_patterns(n, d - 1)]
        expected = [up_fan(p, k) for p in lowers for k in range(1, d + 1)]

        def fans(patterns):
            return [list(up_transitions(p, k)) for p in patterns for k in range(1, p.d + 1)]

        for c in module_caches():
            c.cache_clear()
        assert fans(lowers) == expected, d
        # a smaller alphabet's fans fill entries that this one's fans read
        for c in module_caches():
            c.cache_clear()
        fans(smaller)
        assert level_pairs(smaller) & level_pairs(lowers)
        assert fans(lowers) == expected, d
        # pairs that differ only by full columns share one entry
        shared = shifted_pairs(smaller) | shifted_pairs(lowers)
        assert _level_steps.cache_info().currsize == len(shared)
        assert len(shared) < len(level_pairs(smaller) | level_pairs(lowers)), d
        # the table cleared, and the up fans so that they are rebuilt, but not
        # the shared roots: every rebuilt amplitude is the object it was
        before = fans(lowers)
        _level_steps.cache_clear()
        up_transitions.cache_clear()
        after = fans(lowers)
        assert after == expected, d
        assert all(
            a is b for old, new in zip(before, after) for (_, a), (_, b) in zip(old, new)
        )


def clear_tables():
    """Clear the cached fans and the level steps, but not the shared roots."""
    up_transitions.cache_clear()
    _level_steps.cache_clear()
    down_transitions.cache_clear()


def fill_single_letters(patterns, letters_of):
    """Cache each pattern's up fans of the letters ``letters_of(pattern)``, one letter at a
    time, and return the ``(pattern, letter)`` keys."""
    keys = [(p, k) for p in patterns for k in letters_of(p)]
    for p, k in keys:
        up_transitions(p, k)
    return keys


def cached_fans(keys):
    """The cached up fans of ``keys``, each read by a cache hit."""
    misses = up_transitions.cache_info().misses
    fans = {(p, k): up_transitions(p, k) for p, k in keys}
    assert up_transitions.cache_info().misses == misses
    return fans


def built_fans(d, n):
    """``build(d, n)``'s edges as fans: ``{(lower, k): {upper: amplitude}}``."""
    g = build(d, n)
    fans = {}
    for e in g.edges:
        lower, upper = g.vertices[e.lower].pattern, g.vertices[e.upper].pattern
        fans.setdefault((lower, e.added_entry), {})[upper] = e.amplitude
    return fans


@pytest.mark.parametrize("d, n", [(5, 5), (8, 4), (2, 13)])
def test_fan_tables_match_the_oracle_in_every_fill_order(d, n):
    # build scans each vertex into fans of its own and up_transitions one
    # cold letter alone; whatever the cache holds, build's edges must be the
    # oracle's fans with the same amplitude objects, and build must leave
    # the cache as it found it
    patterns = [p for level in range(n) for p in all_patterns(level, d)]
    letters = range(1, d + 1)
    expected = {(p, k): dict(up_fan(p, k)) for p in patterns for k in letters}
    expected = {key: fan for key, fan in expected.items() if fan}
    roots = None

    def check_build():
        nonlocal roots
        built = built_fans(d, n)
        assert built == expected
        amps = [built[key][upper] for key in expected for upper in expected[key]]
        if roots is None:
            roots = amps
        # the roots are not cleared, so every amplitude is the object it was
        assert len(amps) == len(roots) and all(a is b for a, b in zip(amps, roots))

    def build_leaves_the_cache(keys):
        # every cached fan is the oracle's in full and in order
        cached = cached_fans(keys)
        assert all(list(fan) == up_fan(p, k) for (p, k), fan in cached.items())
        size = up_transitions.cache_info().currsize
        assert size == len(keys)
        check_build()
        assert up_transitions.cache_info().currsize == size
        after = cached_fans(keys)
        assert all(after[key] is fan for key, fan in cached.items())
        return cached

    # empty: build caches no fan
    clear_tables()
    check_build()
    assert up_transitions.cache_info().currsize == 0
    # single letters cold first, then build, which reads none of their fans
    clear_tables()
    filled = build_leaves_the_cache(fill_single_letters(patterns, lambda p: letters))
    assert len(filled) == len(patterns) * d
    # ... and whose amplitudes are the objects build's edges hold
    held = [dict(filled[key])[upper] for key, fan in expected.items() for upper in fan]
    assert len(held) == len(roots) and all(a is b for a, b in zip(held, roots))
    # partly filled: build leaves the cached fans and caches no other
    clear_tables()
    partial = build_leaves_the_cache(
        fill_single_letters(patterns, lambda p: [k for k in letters if (k + len(p.shape)) % 3 == 0])
    )
    assert 0 < len(partial) < len(patterns) * d


@pytest.mark.parametrize("d, n", [(3, 5), (5, 4)])
@pytest.mark.parametrize("build_first", [True, False])
def test_cached_slots_hold_records_and_built_tables_levels(d, n, build_first):
    # the scan returns each upper as its levels tuple: up_transitions makes a
    # cold fan's records before any reader sees it, and build's one-shot
    # fans keep the tuples, whichever of the two runs first
    patterns = [p for level in range(n) for p in all_patterns(level, d)]
    clear_tables()
    if build_first:
        build(d, n)
    keys = fill_single_letters(patterns, lambda p: range(1, d + 1))
    if not build_first:
        build(d, n)
    cached = cached_fans(keys)
    for p in patterns:
        for k, levels in enumerate(amplitudes._scan(p, 1, d), start=1):
            fan = cached[p, k]
            assert all(type(upper) is GTPattern for upper, _ in fan), (p, k)
            assert all(type(upper) is tuple for upper, _ in levels), (p, k)
            assert [upper for upper, _ in levels] == [upper.levels for upper, _ in fan]
            assert all(a is b for (_, a), (_, b) in zip(levels, fan)), (p, k)


def test_level_steps_are_untracked_by_the_collector():
    # the table holds tuples of ints only, and a full collection untracks a
    # tuple whose items are all untracked: the steps at the first, the
    # entries at the second and the table at the third at the latest, after
    # which the table costs the collector nothing
    d, n = 3, 6
    clear_tables()
    build(d, n)
    keys = shifted_pairs([p for level in range(n) for p in all_patterns(level, d)])
    size = _level_steps.cache_info().currsize
    assert size == len(keys)
    tables = [_level_steps(under, row) for under, row in keys]
    # every lookup was a hit, so these are the tables the build filled
    assert _level_steps.cache_info().currsize == size
    entries = [entry for table in tables for entry in table]
    steps = [step for entry in entries for step in entry]
    assert steps and all(len(step) == 4 for step in steps)
    for layer in (steps, entries, tables):
        gc.collect()
        assert not any(gc.is_tracked(x) for x in layer)


def test_cold_single_letter_fills_one_slot(monkeypatch):
    # a caller that needs one letter pays for that letter alone, also at d = 64:
    # one cold call scans that letter once and caches one fan
    d = 64
    zero = GTPattern(tuple((0,) * j for j in range(1, d + 1)))
    first = GTPattern(tuple((1,) + (0,) * (j - 1) for j in range(1, d + 1)))
    clear_tables()
    scans = []
    original = amplitudes._scan

    def recorded(lower, first, last):
        scans.append((lower, first, last))
        return original(lower, first, last)

    monkeypatch.setattr(amplitudes, "_scan", recorded)
    keys = [(zero, 1), (zero, 40), (first, 64), (first, 2)]
    for i, (p, k) in enumerate(keys, start=1):
        fan = up_transitions(p, k)
        assert fan and list(fan) == up_fan(p, k)
        assert scans == [(q, j, j) for q, j in keys[:i]]
        assert up_transitions.cache_info().currsize == i
        assert cached_fans([(p, k)])[p, k] is fan
    assert len(scans) == len(keys)


def test_cached_up_transitions_keeps_the_letter_contract():
    # the cache is typed and keeps no error: a letter outside 1..d raises on
    # every call, cold or warm, and caches nothing; a float letter never
    # reads an int letter's fan, while True, an int, reads letter 1's
    d = 3
    p = GTPattern(((1,), (1, 0), (1, 0, 0)))
    clear_tables()
    for warm in (False, True):
        if warm:
            fan = up_transitions(p, 1)
        size = up_transitions.cache_info().currsize
        for k in (0, -1, d + 1, 0, -1, d + 1):
            with pytest.raises(ValueError, match="letter out of range"):
                up_transitions(p, k)
        with pytest.raises(TypeError):
            up_transitions(p, 1.0)
        assert up_transitions.cache_info().currsize == size
    assert fan and list(up_transitions(p, True)) == list(fan) == up_fan(p, 1)
    assert all(a is b for (_, a), (_, b) in zip(up_transitions(p, True), fan))


def test_cold_build_scans_each_vertex_once_into_an_uncached_table(monkeypatch):
    # one scan of every letter per vertex below the top level, each returning
    # new fans, and the up fan cache stays empty
    d, n = 5, 5
    clear_tables()
    scans = []
    original = amplitudes._scan

    def recorded(lower, first, last):
        scans.append((lower, first, last))
        fans = original(lower, first, last)
        assert len(fans) == d
        return fans

    monkeypatch.setattr(amplitudes, "_scan", recorded)
    build(d, n)
    assert scans == [(p, 1, d) for level in range(n) for p in all_patterns(level, d)]
    assert up_transitions.cache_info().currsize == 0


def test_dropped_cold_build_retains_little():
    # a vertex's scanned fans die with it, so a dropped build leaves only
    # the level steps, the shared roots and the partitions: tens of kB at
    # (16,3), where cached fans held about 4.4 MB
    for c in module_caches():
        c.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        build(16, 3)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000, retained


def test_build_reads_the_same_level_steps():
    # one scan per vertex looks up each adjacent-level pair of the pattern,
    # the pairs the per-letter scans looked up between them
    for d, n in ((2, 30), (4, 6), (16, 3)):
        clear_tables()
        build(d, n)
        below = [p for level in range(n) for p in all_patterns(level, d)]
        assert _level_steps.cache_info().currsize == len(shifted_pairs(below)), (d, n)


def test_warm_round_trips_run_no_scan(monkeypatch):
    # a first round trip of each word caches every fan that its up and down
    # steps read, so a second one scans no level
    clear_tables()
    rng = random.Random(8)
    words = [tuple(rng.randint(1, 3) for _ in range(8)) for _ in range(20)]
    for word in words:
        assert decode(encode(word, 3)) == {word: ONE}

    def no_scan(lower, first, last):
        raise AssertionError(f"scan of letters {first}..{last} at {lower}")

    monkeypatch.setattr(amplitudes, "_scan", no_scan)
    for word in words:
        assert decode(encode(word, 3)) == {word: ONE}


def test_level_steps_on_every_adjacent_level_pair():
    # the table fills every t_lo, also one that no fan reaches because under
    # plus a box there is no partition: that entry must be empty, not raise
    def grow(level, pos):
        return level[:pos] + (level[pos] + 1,) + level[pos + 1 :]

    unreachable = 0
    for d in range(1, 5):
        patterns = [p for n in range(6) for p in all_patterns(n, d)]
        for under, row in level_pairs(patterns):
            table = _level_steps(under, row)
            assert len(table) == len(row)
            for t_lo, entry in enumerate(table):
                assert type(entry) is tuple
                # each step is (t_up, sign, num, den), exact ints only
                assert all(
                    type(step) is tuple and len(step) == 4 and all(type(x) is int for x in step)
                    for step in entry
                ), (under, row, t_lo)
                placed = grow(under, t_lo - 1) if t_lo else under
                fits = [
                    pos + 1 for pos in range(len(row)) if interlaces(grow(row, pos), placed)
                ]
                assert [step[0] for step in entry] == fits, (under, row, t_lo)
                if t_lo > 1 and under[t_lo - 2] == under[t_lo - 1]:
                    assert entry == ()
                    unreachable += 1
    assert unreachable > 0


def test_level_steps_hold_each_factor_in_lowest_terms():
    # a scan multiplies one factor per level, so each is stored reduced, with
    # the value of the formula's unreduced hook products
    reduced = 0
    for d in range(1, 5):
        patterns = [p for n in range(6) for p in all_patterns(n, d)]
        for under, row in level_pairs(patterns):
            below, hooks = amplitudes._level_hooks(under), amplitudes._level_hooks(row)
            for t_lo, entry in enumerate(_level_steps(under, row)):
                for t_up, sign, num, den in entry:
                    assert gcd(num, den) == 1 and den > 0, (under, row, t_lo, t_up)
                    raw = amplitudes._level_factor(below, hooks, t_lo, t_up)
                    assert (sign, Fraction(num, den)) == (raw[0], Fraction(*raw[1:]))
                    reduced += raw[1:] != (num, den)
    assert reduced > 0


def test_level_steps_ignore_full_columns():
    # a step reads differences of the two levels' hooks and comparisons of
    # their entries, so adding c full columns to a pair changes no entry
    steps = _level_steps.__wrapped__
    patterns = [p for d in range(1, 5) for n in range(6) for p in all_patterns(n, d)]
    patterns += [p for n in range(13) for p in all_patterns(n, 2)]
    for under, row in level_pairs(patterns):
        table = steps(under, row)
        for c in (1, 2, 3):
            shifted = tuple(m + c for m in under), tuple(m + c for m in row)
            assert steps(*shifted) == table, (under, row, c)


def test_cold_d2_graph_matches_entry_reading_rule():
    # at d = 2 a level pair is the whole pattern, so most fans at the
    # benchmark's (2,30) read an entry shared with a pattern of fewer columns;
    # the paper's rule reads each amplitude off the pattern's own entries
    for c in module_caches():
        c.cache_clear()
    g = build(2, 30)
    patterns = [v.pattern for v in g.vertices]
    for e in g.edges:
        assert pattern_amplitude_d2(patterns[e.lower], patterns[e.upper]) == e.amplitude
    assert len(g.edges) > 5000


def test_down_fans_match_brute_force_in_order():
    # decode merges in down-fan order and a sum's stored term order sets its
    # approx float, so the down fan's order is pinned as well as its edges;
    # past d = 6 most candidates are cut by the two entries a lost box lowers
    def uppers(d, n_max, sample=None):
        rng = random.Random(64)
        for n in range(1, n_max + 1):
            for shape in partitions(n, d):
                patterns = list(enumerate_gt(shape, d))
                yield from rng.sample(patterns, min(sample, len(patterns))) if sample else patterns

    sizes = [(3, 5), (4, 4), (5, 3), (6, 3), (8, 3), (12, 2)]
    for upper in [u for size in sizes for u in uppers(*size)] + list(uppers(64, 2, sample=10)):
        for shape in lower_shapes(upper.shape):
            expected = down_fan(upper, shape)
            assert list(down_transitions(upper, shape)) == expected, (upper, shape)


def test_cold_decode_calls_no_interlacing_predicate(monkeypatch):
    # both fans compare only the entries that a moved box can break, so the
    # in-betweenness predicate belongs to validate_gt alone
    calls = []

    def counted(longer, shorter):
        calls.append((longer, shorter))
        return interlaces(longer, shorter)

    monkeypatch.setattr(amplitudes, "interlaces", counted, raising=False)
    rng = random.Random(84)
    for _ in range(5):
        word = tuple(rng.randint(1, 8) for _ in range(4))
        state = encode(word, 8)
        for c in module_caches():
            c.cache_clear()
        assert decode(state) == {word: ONE}
    assert calls == []


def test_down_fans_hold_up_fan_amplitudes():
    # the up fan is the one amplitude store: every down-fan entry holds the
    # very object that the up fan of its letter at its lower pattern holds
    for d, n in ((2, 5), (3, 4), (4, 3), (5, 3)):
        for upper in all_patterns(n, d):
            for shape in lower_shapes(upper.shape):
                for lower, k, amp in down_transitions(upper, shape):
                    [up_amp] = [a for u, a in up_transitions(lower, k) if u == upper]
                    assert amp is up_amp, (lower, upper)


def test_down_fan_rejects_other_shapes():
    # the down fan reads the top level's missing box off ``shape``, so a shape
    # that is not the upper one less one box is no edge
    upper = gt2(1, 3, 1)
    for shape in ((3, 1), (1, 1), (2, 2), (4,)):
        with pytest.raises(NotAnEdge):
            down_transitions(upper, shape)
    assert {k for _, k, _ in down_transitions(upper, (3,))} == {1, 2}


def edge_letter(lower, upper):
    """The letter ``k`` that ``transition_context`` reads off a pair, None off an edge."""
    try:
        return transition_context(lower, upper)[0]
    except NotAnEdge:
        return None


def test_fans_do_not_grow_the_stack():
    # both scans are iterative: at d = 64 they run under a recursion limit
    # a few dozen frames above the caller's
    d = 64
    zero = GTPattern(tuple((0,) * j for j in range(1, d + 1)))
    first = GTPattern(tuple((1,) + (0,) * (j - 1) for j in range(1, d + 1)))
    clear_tables()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        assert up_transitions(zero, 1) == ((first, ONE),)
        [(last, amp)] = up_transitions(zero, d)
        assert amp == ONE
        assert last.levels == zero.levels[:-1] + (first.levels[-1],)
        assert down_transitions(first, ()) == ((zero, 1, ONE),)
    finally:
        sys.setrecursionlimit(limit)


def content(p):
    """How many times each letter 1..d occurs, read off the pattern's level sums."""
    sums = [0] + [sum(level) for level in p.levels]
    return tuple(b - a for a, b in zip(sums, sums[1:]))


def content_and_shape_pairs(lower, d, n):
    """Pairs allowed by the looser test: content +1 in one letter, shape +1 box."""
    out = set()
    for upper in all_patterns(n + 1, d):
        deltas = [up - low for up, low in zip(content(upper), content(lower))]
        if sorted(deltas) != [0] * (d - 1) + [1]:
            continue
        shape_deltas = [
            up - low for up, low in zip(upper.levels[-1], lower.levels[-1])
        ]
        if sorted(shape_deltas) != [0] * (d - 1) + [1]:
            continue
        out.add((upper, deltas.index(1) + 1))
    return out


def test_edge_semantics_d2_content_shape_equivalent():
    # for two letters, "content +1 in one letter and shape +1 box" singles
    # out exactly the valid transitions; entries may rearrange (e.g. the
    # lower tableau [2 2] sits under [[1,2],[2]] by adding letter 1)
    for n in range(0, 6):
        for lower in all_patterns(n, 2):
            via_chains = {
                (upper, k)
                for k in (1, 2)
                for upper, _ in up_transitions(lower, k)
            }
            assert via_chains == content_and_shape_pairs(lower, 2, n)


def test_edge_semantics_d3_strictly_finer():
    # for three letters the content+shape test overshoots: every transition
    # passes it, but not conversely, so it cannot serve as the edge rule
    strict = 0
    for n in range(0, 4):
        for lower in all_patterns(n, 3):
            via_chains = {
                (upper, k)
                for k in (1, 2, 3)
                for upper, _ in up_transitions(lower, k)
            }
            loose = content_and_shape_pairs(lower, 3, n)
            assert via_chains <= loose
            strict += len(loose) - len(via_chains)
    assert strict > 0
    # frozen counterexample: level 2 moves a box, so no transition exists
    lower = GTPattern(((1,), (2, 0), (2, 0, 0)))
    upper = GTPattern(((1,), (1, 1), (2, 1, 0)))
    assert gt_to_weyl(lower) == ((1, 2),)
    assert gt_to_weyl(upper) == ((1, 3), (2,))
    assert (upper, 3) in content_and_shape_pairs(lower, 3, 2)
    assert upper not in [u for u, _ in up_transitions(lower, 3)]
    with pytest.raises(NotAnEdge):
        louck_reference(lower, upper)


def test_multiple_uppers_share_letter_and_shape():
    # d=3: one tableau, one letter, one target shape, two distinct edges
    lower = GTPattern(((1,), (1, 0), (2, 0, 0)))
    assert gt_to_weyl(lower) == ((1, 3),)
    uppers = [u for u, _ in up_transitions(lower, 2) if u.shape == (2, 1)]
    assert len(uppers) == 2
    assert sorted(gt_to_weyl(u) for u in uppers) == [
        ((1, 2), (3,)),
        ((1, 3), (2,)),
    ]


def test_amplitude_cache_hygiene():
    # each fan holds its amplitudes, the formulas run on a fan miss only,
    # and an amplitude is the one shared object of its value
    lower, upper = gt2(2, 2, 1), gt2(2, 3, 1)
    fan = up_transitions(lower, 2)
    assert up_transitions(lower, 2) is fan
    assert down_transitions(upper, (2, 1)) is down_transitions(upper, (2, 1))
    [amp] = [amp for u, amp in fan if u == upper]
    assert amp == louck_reference(lower, upper) == radical_from_sqrt(1, 1, 2)
    assert radical_from_sqrt(1, 1, 2) is amp
    [(_, k, down_amp)] = [e for e in down_transitions(upper, (2, 1)) if e[0] == lower]
    assert (k, down_amp) == (2, amp)
    assert down_amp is amp  # the down fan holds the up fan's own amplitude
    assert not hasattr(pattern_amplitude_d2, "cache_info")
