import inspect
import sys

import pytest

from schurweyl.amplitudes import (
    NotAnEdge,
    WrongDimension,
    down_transitions,
    louck_amplitude,
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
    partitions,
    weyl_to_gt,
)

from oracles import down_fan, up_fan


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
        assert louck_amplitude(lower, upper) == expected
        assert pattern_amplitude_d2(lower, upper) == expected


def test_unit_amplitude_edges():
    # first letter into the empty tableau, any d
    for d in range(1, 5):
        for k in range(1, d + 1):
            zero = GTPattern(tuple((0,) * j for j in range(1, d + 1)))
            [(upper, amp)] = up_transitions(zero, k)
            assert amp == louck_amplitude(zero, upper) == ONE
    # d=1: a single row only ever extends with amplitude 1
    for n in range(4):
        assert louck_amplitude(GTPattern(((n,),)), GTPattern(((n + 1,),))) == ONE


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
                    assert louck_amplitude(lower, upper) == amp
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
    # amplitudes from the up fans; the public pairwise formula re-derives k
    # and taus through transition_context, so it is the oracle
    for d, n in ((3, 6), (4, 5), (5, 4)):
        g = build(d, n)
        fans = set()
        for e in g.edges:
            lower, upper = g.vertex(e.lower).pattern, g.vertex(e.upper).pattern
            assert e.amplitude == louck_amplitude(lower, upper)
            fans.add((upper, lower.shape))
        for upper, shape in fans:
            for lower, _, amp in down_transitions(upper, shape):
                assert amp == louck_amplitude(lower, upper)


def test_up_fans_match_brute_force_in_order():
    # merges run in fan order and a sum's stored term order sets its approx
    # float, so the up fan's order is pinned as well as its edges
    for d, n_max in ((3, 5), (4, 4), (5, 3), (6, 3)):
        for n in range(n_max):
            for lower in all_patterns(n, d):
                for k in range(1, d + 1):
                    assert list(up_transitions(lower, k)) == up_fan(lower, k), (lower, k)


def test_down_fans_match_brute_force_in_order():
    # decode merges in down-fan order and a sum's stored term order sets its
    # approx float, so the down fan's order is pinned as well as its edges
    for d, n_max in ((3, 5), (4, 4), (5, 3), (6, 3)):
        for n in range(1, n_max + 1):
            for upper in all_patterns(n, d):
                for shape in lower_shapes(upper.shape):
                    expected = down_fan(upper, shape)
                    assert list(down_transitions(upper, shape)) == expected, (upper, shape)


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
    up_transitions.cache_clear()
    down_transitions.cache_clear()
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
        louck_amplitude(lower, upper)


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
    assert amp == louck_amplitude(lower, upper) == radical_from_sqrt(1, 1, 2)
    assert radical_from_sqrt(1, 1, 2) is amp
    [(_, k, down_amp)] = [e for e in down_transitions(upper, (2, 1)) if e[0] == lower]
    assert (k, down_amp) == (2, amp)
    assert down_amp is amp  # the down fan holds the up fan's own amplitude
    assert not hasattr(louck_amplitude, "cache_info")
    assert not hasattr(pattern_amplitude_d2, "cache_info")
