"""Acceptance gate: nine exactness criteria, one test and one report line each.

Every assertion is exact (no tolerances); each criterion also enforces its
runtime budget, in process CPU time, and prints one pass line with the
measured time.
"""

import random
import time
from contextlib import contextmanager

from schurweyl.amplitudes import pattern_amplitude_d2
from schurweyl.branching import SchurWeylTriplet, down, up
from schurweyl.graph import build
from schurweyl.radicals import ONE, ZERO, radical_from_sqrt
from schurweyl.tableaux import (
    GTPattern,
    enumerate_gt,
    enumerate_paths,
    gt_to_weyl,
    partitions,
    path_to_syt,
    weyl_to_gt,
)
from schurweyl.transform import (
    decode,
    dimension_check,
    encode,
    schur_basis,
    schur_matrix,
    verify_unitary,
    words,
)

from oracles import enumerate_syt, enumerate_weyl, louck_reference, syt_to_path


@contextmanager
def budget(label: str, bound_ms: float):
    # CPU time of this process, so that a stall while another process holds
    # the CPU does not count against a block
    start = time.process_time()
    yield
    elapsed = (time.process_time() - start) * 1000
    assert elapsed < bound_ms, f"{label}: {elapsed:.2f} ms over budget {bound_ms} ms"
    print(f"{label}: PASS ({elapsed:.2f} ms < {bound_ms:g} ms)")


def gt2(m11, a, b):
    return GTPattern(((m11,), (a, b)))


def norm_squared(state):
    total = ZERO
    for amp in state.values():
        total = total + amp.square()
    return total


def triplet(shape, weyl_rows, syt_rows, d):
    t = SchurWeylTriplet(weyl_to_gt(weyl_rows, d), syt_to_path(syt_rows))
    assert t.shape == tuple(shape)
    return t


def test_criterion_1_golden_amplitudes():
    cases = [
        (gt2(2, 2, 1), gt2(2, 3, 1), radical_from_sqrt(1, 1, 2)),
        (gt2(2, 3, 2), gt2(3, 3, 3), radical_from_sqrt(-1, 1, 2)),
        (gt2(4, 7, 4), gt2(5, 7, 5), radical_from_sqrt(-1, 3, 4)),
    ]
    with budget("criterion 1 (golden amplitudes, Louck and the d=2 rule)", 1):
        for lower, upper, expected in cases:
            assert louck_reference(lower, upper) == expected
            assert pattern_amplitude_d2(lower, upper) == expected


def test_criterion_2_golden_branchings():
    up_start = triplet((2, 1), [[1, 2], [2]], [[1, 2], [3]], 2)
    up_expected = {
        triplet((3, 1), [[1, 1, 2], [2]], [[1, 2, 4], [3]], 2): radical_from_sqrt(1, 1, 2),
        triplet((2, 2), [[1, 1], [2, 2]], [[1, 2], [3, 4]], 2): radical_from_sqrt(-1, 1, 2),
    }
    down_start = triplet((2, 1), [[1, 2], [2]], [[1, 2], [3]], 2)
    lower_young = syt_to_path([[1, 2]])
    # a down key's word is k - 1 for the one letter read off
    down_expected = {
        (weyl_to_gt([[2, 2]], 2), lower_young, 0): radical_from_sqrt(-1, 2, 3),
        (weyl_to_gt([[1, 2]], 2), lower_young, 1): radical_from_sqrt(1, 1, 3),
    }
    with budget("criterion 2 (golden branchings)", 1):
        assert up({up_start: ONE}, 1) == up_expected
        assert down({(*down_start, 0): ONE}, 1) == down_expected


def test_criterion_3_golden_transforms():
    word = (1, 2, 1, 2)
    sixth6 = radical_from_sqrt(1, 1, 6)
    third3 = radical_from_sqrt(-1, 1, 12)
    half = radical_from_sqrt(1, 1, 4)
    encode_expected = {
        triplet((4,), [[1, 1, 2, 2]], [[1, 2, 3, 4]], 2): sixth6,
        triplet((3, 1), [[1, 1, 2], [2]], [[1, 2, 3], [4]], 2): sixth6,
        triplet((3, 1), [[1, 1, 2], [2]], [[1, 2, 4], [3]], 2): third3,
        triplet((3, 1), [[1, 1, 2], [2]], [[1, 3, 4], [2]], 2): half,
        triplet((2, 2), [[1, 1], [2, 2]], [[1, 2], [3, 4]], 2): third3,
        triplet((2, 2), [[1, 1], [2, 2]], [[1, 3], [2, 4]], 2): half,
    }
    start = triplet((2, 2), [[1, 1], [2, 2]], [[1, 3], [2, 4]], 2)
    decode_expected = {
        (1, 2, 1, 2): half,
        (1, 2, 2, 1): -half,
        (2, 1, 1, 2): -half,
        (2, 1, 2, 1): half,
    }
    with budget("criterion 3 (golden transforms)", 10):
        assert encode(word, 2) == encode_expected
        assert decode({start: ONE}) == decode_expected


def test_criterion_4_engine_equivalence():
    with budget("criterion 4 (pattern == louck on every d=2 edge, n <= 8)", 5000):
        graph = build(2, 8)
        checked = 0
        for edge in graph.edges:
            lower = graph.vertex(edge.lower).pattern
            upper = graph.vertex(edge.upper).pattern
            assert pattern_amplitude_d2(lower, upper) == louck_reference(lower, upper)
            checked += 1
        assert checked == len(graph.edges) and checked > 200


def test_criterion_5_unitarity():
    with budget("criterion 5 (unitarity, d=2 n<=6 and d=3 n<=4)", 60000):
        for d, top in ((2, 6), (3, 4)):
            for n in range(1, top + 1):
                assert verify_unitary(schur_matrix(d, n))


def test_criterion_6_dimension_identity():
    with budget("criterion 6 (dimension identity, d<=4 n<=6)", 1000):
        for d in range(1, 5):
            for n in range(0, 7):
                assert dimension_check(d, n)


def test_criterion_7_round_trips():
    rng = random.Random(7)
    with budget("criterion 7 (round trips and bijections)", 30000):
        for n in range(0, 7):
            for word in words(2, n):
                assert decode(encode(word, 2)) == {word: ONE}
        for _ in range(200):
            n = rng.randint(1, 4)
            word = tuple(rng.randint(1, 3) for _ in range(n))
            assert decode(encode(word, 3)) == {word: ONE}
        for n in range(0, 6):
            for d in range(1, 4):
                for shape in partitions(n, d):
                    weyls = enumerate_weyl(shape, d)
                    assert [weyl_to_gt(t, d) for t in weyls] == list(enumerate_gt(shape, d))
                    assert [gt_to_weyl(weyl_to_gt(t, d)) for t in weyls] == weyls
            for shape in partitions(n, n or 1):
                syts = enumerate_syt(shape)
                assert [syt_to_path(rows) for rows in syts] == list(enumerate_paths(shape))
                assert [path_to_syt(syt_to_path(rows)) for rows in syts] == syts


def test_criterion_8_branching_norms():
    with budget("criterion 8 (branch norms, d<=3 n<=5)", 10000):
        for d in range(1, 4):
            for n in range(0, 6):
                for basis_triplet in schur_basis(d, n):
                    for k in range(1, d + 1):
                        assert norm_squared(up({basis_triplet: ONE}, k)) == ONE
                    if n:
                        assert norm_squared(down({(*basis_triplet, 0): ONE}, 1)) == ONE


def test_criterion_9_graph_census():
    with budget("criterion 9 (d=2 n=3 graph census)", 1000):
        graph = build(2, 3)
        assert graph.level_census(3) == {(3,): 4, (2, 1): 2}
        assert len(graph.vertices) == 13
