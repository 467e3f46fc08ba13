import pytest

from schurweyl.amplitudes import (
    NotAnEdge,
    TransitionContext,
    WrongDimension,
    down_transitions,
    louck_amplitude,
    partial_hook,
    pattern_amplitude_d2,
    transition_context,
    up_transitions,
)
from schurweyl.radicals import ONE, ZERO, Radical, radical_from_sqrt
from schurweyl.tableaux import (
    GTPattern,
    enumerate_gt,
    gt_to_weyl,
    partitions,
    weyl_to_gt,
)


def gt2(m11, a, b):
    return GTPattern(((m11,), (a, b)))


def all_patterns(n, d):
    for shape in partitions(n, d):
        yield from enumerate_gt(shape, d)


def test_transition_context_golden():
    ctx = transition_context(gt2(2, 2, 1), gt2(2, 3, 1))
    assert ctx.k == 2 and ctx.taus == (1,)
    ctx = transition_context(gt2(2, 3, 2), gt2(3, 3, 3))
    assert ctx.k == 1 and ctx.taus == (1, 2)
    assert ctx.tau(1) == 1 and ctx.tau(2) == 2
    zero = GTPattern(((0,), (0, 0), (0, 0, 0)))
    one = GTPattern(((1,), (1, 0), (1, 0, 0)))
    assert transition_context(zero, one).taus == (1, 1, 1)


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


def test_partial_hook():
    p = gt2(2, 3, 2)
    assert partial_hook(p, 1, 1) == 2
    assert partial_hook(p, 1, 2) == 4
    assert partial_hook(p, 2, 2) == 2


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
            ups = up_transitions(zero, k)
            assert len(ups) == 1
            assert louck_amplitude(zero, ups[0]) == ONE
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
                for upper in up_transitions(lower, k):
                    assert pattern_amplitude_d2(lower, upper) == louck_amplitude(lower, upper)
                    edges += 1
    assert edges > 100


def test_amplitudes_nonzero_and_normalized():
    # columns of the branching isometry have unit norm: for every lower
    # pattern and letter, the squared amplitudes over fan-out sum to 1
    for d, n_max in ((1, 4), (2, 4), (3, 4), (4, 4), (5, 3)):
        for n in range(0, n_max + 1):
            for lower in all_patterns(n, d):
                for k in range(1, d + 1):
                    ups = up_transitions(lower, k)
                    total = ZERO
                    for upper in ups:
                        amp = louck_amplitude(lower, upper)
                        assert not amp.is_zero()
                        total = total + amp.square()
                    assert total == ONE


def test_up_down_transitions_agree():
    for d in (1, 2, 3):
        for n in range(0, 5):
            uppers = list(all_patterns(n + 1, d))
            lowers = list(all_patterns(n, d))
            up_pairs = {
                (lower, upper, k)
                for lower in lowers
                for k in range(1, d + 1)
                for upper in up_transitions(lower, k)
            }
            down_pairs = {
                (lower, upper, k)
                for upper in uppers
                for lower, k in down_transitions(upper)
            }
            assert up_pairs == down_pairs


def content_and_shape_pairs(lower, d, n):
    """Pairs allowed by the looser test: content +1 in one letter, shape +1 box."""
    t_low = gt_to_weyl(lower)
    out = set()
    for upper in all_patterns(n + 1, d):
        t_up = gt_to_weyl(upper)
        deltas = [up - low for up, low in zip(t_up.content(), t_low.content())]
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
                for upper in up_transitions(lower, k)
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
                for upper in up_transitions(lower, k)
            }
            loose = content_and_shape_pairs(lower, 3, n)
            assert via_chains <= loose
            strict += len(loose) - len(via_chains)
    assert strict > 0
    # frozen counterexample: level 2 moves a box, so no transition exists
    lower = GTPattern(((1,), (2, 0), (2, 0, 0)))
    upper = GTPattern(((1,), (1, 1), (2, 1, 0)))
    assert gt_to_weyl(lower).rows == ((1, 2),)
    assert gt_to_weyl(upper).rows == ((1, 3), (2,))
    assert (upper, 3) in content_and_shape_pairs(lower, 3, 2)
    assert upper not in up_transitions(lower, 3)
    with pytest.raises(NotAnEdge):
        louck_amplitude(lower, upper)


def test_multiple_uppers_share_letter_and_shape():
    # d=3: one tableau, one letter, one target shape, two distinct edges
    lower = GTPattern(((1,), (1, 0), (2, 0, 0)))
    assert gt_to_weyl(lower).rows == ((1, 3),)
    uppers = [u for u in up_transitions(lower, 2) if u.shape == (2, 1)]
    assert len(uppers) == 2
    assert sorted(gt_to_weyl(u).rows for u in uppers) == [
        ((1, 2), (3,)),
        ((1, 3), (2,)),
    ]


def test_amplitude_cache_hygiene():
    lower, upper = gt2(2, 2, 1), gt2(2, 3, 1)
    first = louck_amplitude(lower, upper)
    assert louck_amplitude(lower, upper) is first
    assert first == radical_from_sqrt(1, 1, 2)
