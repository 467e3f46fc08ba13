import importlib
import itertools
import pkgutil
import random
import tracemalloc

import pytest

import schurweyl
from schurweyl.amplitudes import down_transitions, up_transitions
from schurweyl.branching import (
    SchurWeylTriplet,
    down,
    empty_triplet,
    up,
    validate_triplet,
)
from schurweyl.radicals import ONE, ZERO, Radical, radical_from_sqrt
from schurweyl.tableaux import (
    InvariantViolation,
    enumerate_gt,
    enumerate_paths,
    gt_to_weyl,
    partitions,
    weyl_to_gt,
)
from schurweyl.transform import (
    column_norms,
    computational_to_json_obj,
    decode,
    encode,
    schur_matrix,
    verify_unitary,
    words,
)

from oracles import syt_to_path


def all_triplets(n, d):
    for shape in partitions(n, d):
        for pattern in enumerate_gt(shape, d):
            for path in enumerate_paths(shape):
                yield SchurWeylTriplet(pattern, path)


def norm_squared(state):
    total = ZERO
    for amp in state.values():
        total = total + amp.square()
    return total


def triplet(shape, weyl_rows, syt_rows, d):
    t = SchurWeylTriplet(weyl_to_gt(weyl_rows, d), syt_to_path(syt_rows))
    assert t.shape == tuple(shape)
    return t


def test_validate_triplet():
    validate_triplet(triplet((2, 1), [[1, 2], [2]], [[1, 2], [3]], 2))
    with pytest.raises(InvariantViolation, match="share one shape"):
        validate_triplet(
            SchurWeylTriplet(
                weyl_to_gt([[1, 2]], 2), syt_to_path([[1, 2], [3]])
            )
        )
    with pytest.raises(InvariantViolation):
        validate_triplet(
            SchurWeylTriplet(weyl_to_gt([[1]], 2), ((), (2,)))
        )


def test_branch_up_first_letter():
    for d in (1, 2, 3):
        for k in range(1, d + 1):
            [((pattern, young), amp)] = up({empty_triplet(d): ONE}, k).items()
            assert amp == ONE
            assert pattern.shape == (1,)
            assert gt_to_weyl(pattern) == ((k,),)
            assert young == ((), (1,))
    with pytest.raises(ValueError):
        up({empty_triplet(2): ONE}, 3)


def test_branch_up_golden_two_letter():
    # |(2,1), [[0,1],[1]], [[1,2],[3]]> plus letter 0
    start = triplet((2, 1), [[1, 2], [2]], [[1, 2], [3]], 2)
    state = up({start: ONE}, 1)
    expected = {
        triplet((3, 1), [[1, 1, 2], [2]], [[1, 2, 4], [3]], 2): radical_from_sqrt(1, 1, 2),
        triplet((2, 2), [[1, 1], [2, 2]], [[1, 2], [3, 4]], 2): radical_from_sqrt(-1, 1, 2),
    }
    assert state == expected


def test_branch_up_second_golden():
    # |(1), [0], [1]> plus letter 1 splits evenly
    start = triplet((1,), [[1]], [[1]], 2)
    state = up({start: ONE}, 2)
    expected = {
        triplet((2,), [[1, 2]], [[1, 2]], 2): radical_from_sqrt(1, 1, 2),
        triplet((1, 1), [[1], [2]], [[1], [2]], 2): radical_from_sqrt(1, 1, 2),
    }
    assert state == expected


def test_branch_down_golden():
    # |(2,1), [[0,1],[1]], [[1,2],[3]]> strips to level 2
    start = triplet((2, 1), [[1, 2], [2]], [[1, 2], [3]], 2)
    terms = down({(*start, 0): ONE}, 1)
    lower_young = syt_to_path([[1, 2]])
    # the word of a term gains k - 1 times the scale, 1 here, for letter k
    assert terms == {
        (weyl_to_gt([[2, 2]], 2), lower_young, 0): radical_from_sqrt(-1, 2, 3),
        (weyl_to_gt([[1, 2]], 2), lower_young, 1): radical_from_sqrt(1, 1, 3),
    }


def test_branch_down_level_one_and_zero():
    for d in (1, 2, 3):
        for k in range(1, d + 1):
            start = SchurWeylTriplet(weyl_to_gt([[k]], d), ((), (1,)))
            assert down({(*start, 0): ONE}, 1) == {(*empty_triplet(d), k - 1): ONE}
        # a level-zero state has no letter to read off
        assert decode({empty_triplet(d): ONE}) == {(): ONE}


def test_branch_down_keeps_young_fixed():
    # the lower Young tableau always drops the last growth step
    start = triplet((2, 2), [[1, 1], [2, 2]], [[1, 3], [2, 4]], 2)
    terms = down({(*start, 0): ONE}, 1)
    expected_young = syt_to_path([[1, 3], [2]])
    assert [young for _, young, _ in terms] == [expected_young] * len(terms)
    assert {(gt_to_weyl(pattern), word + 1) for pattern, _, word in terms} == {
        (((1, 2), (2,)), 1),
        (((1, 1), (2,)), 2),
    }
    amps = {word + 1: amp for (_, _, word), amp in terms.items()}
    assert amps[1] == radical_from_sqrt(-1, 1, 2)
    assert amps[2] == radical_from_sqrt(1, 1, 2)


def test_branch_isometries_exhaustive():
    for d in (1, 2, 3):
        for n in range(0, 4):
            for t in all_triplets(n, d):
                for k in range(1, d + 1):
                    assert norm_squared(up({t: ONE}, k)) == ONE
                if n:
                    assert norm_squared(down({(*t, 0): ONE}, 1)) == ONE


def test_branch_up_columns_orthogonal():
    # distinct letters applied to one triplet give orthogonal states
    for d in (2, 3):
        for n in range(0, 4):
            for t in all_triplets(n, d):
                states = {k: up({t: ONE}, k) for k in range(1, d + 1)}
                for k1, k2 in itertools.combinations(states, 2):
                    inner = ZERO
                    for key, amp in states[k1].items():
                        other = states[k2].get(key)
                        if other is not None:
                            inner = inner + amp * other
                    assert inner.is_zero()


def test_row_bound_respected():
    # d=2 never grows a third row
    t = triplet((1, 1), [[1], [2]], [[1], [2]], 2)
    for k in (1, 2):
        for _, young in up({t: ONE}, k):
            assert len(young[-1]) <= 2


def test_hybrid_round_trip_exhaustive_d2():
    for n in range(0, 4):
        for t in all_triplets(n, 2):
            for k in (1, 2):
                grown = up({t: ONE}, k)
                assert down({(*u, 0): amp for u, amp in grown.items()}, 1) == {(*t, k - 1): ONE}


def test_hybrid_round_trip_random_d3():
    rng = random.Random(7)
    pool = list(all_triplets(2, 3))
    for _ in range(25):
        t = rng.choice(pool)
        k = rng.randint(1, 3)
        grown = up({t: ONE}, k)
        assert down({(*u, 0): amp for u, amp in grown.items()}, 1) == {(*t, k - 1): ONE}
    # and the opposite composition on level-3 triplets: strip one letter,
    # then append each letter to the terms that lost it
    for t in itertools.islice(all_triplets(3, 3), 0, 60, 7):
        stripped = down({(*t, 0): ONE}, 1)
        total = {}
        for k in (1, 2, 3):
            part = {(p, young): amp for (p, young, word), amp in stripped.items() if word == k - 1}
            for u, amp in up(part, k).items():
                total[u] = total.get(u, ZERO) + amp
        assert {u: amp for u, amp in total.items() if amp} == {t: ONE}


def test_state_level_errors():
    t = triplet((1,), [[1]], [[1]], 2)
    # decode is the entry check of a caller-built state
    for mixed in (
        {t: ONE, triplet((2,), [[1, 1]], [[1, 2]], 2): ONE},
        {t: ONE, triplet((1,), [[1]], [[1]], 3): ONE},
    ):
        with pytest.raises(InvariantViolation, match="terms share level and alphabet"):
            decode(mixed)
    assert decode({}) == {}
    assert decode({t: ZERO, triplet((1,), [[2]], [[1]], 2): ONE}) == {(2,): ONE}


def test_state_merging_and_cancellation():
    t = triplet((1,), [[1]], [[1]], 2)
    u = triplet((1,), [[2]], [[1]], 2)
    sym = triplet((2,), [[1, 2]], [[1, 2]], 2)
    anti = triplet((1, 1), [[1], [2]], [[1], [2]], 2)
    state = {(*sym, 0): ONE, (*anti, 0): ONE}
    stepped = down(state, 1)
    # both inputs strip to (t, letter 2) and (u, letter 1): the first
    # doubles, the second cancels exactly
    assert stepped[(*t, 1)] == radical_from_sqrt(1, 2, 1)
    assert (*u, 0) not in stepped
    assert len(stepped) == 1


def test_computational_state():
    # a word state is a plain dict; its writer lists words in ascending order
    state = {(2, 1): radical_from_sqrt(-1, 1, 1), (1, 2): ONE}
    obj = computational_to_json_obj(state, 3, 2)
    assert [term["word"] for term in obj["terms"]] == ["1,2", "2,1"]
    assert norm_squared(state) == Radical({1: 2})


# ---------------------------------------------------------------------------
# a reference fold keyed as the steps key their terms, reading only the two
# transition fans


def reference_up(state, k):
    out = {}
    for (pattern, young), amp in state.items():
        for upper, edge in up_transitions(pattern, k):
            key = (upper, young + (upper.shape,))
            out[key] = out.get(key, ZERO) + amp * edge
    return {key: amp for key, amp in out.items() if amp}


def reference_down(state, scale):
    out = {}
    for (pattern, young, word), amp in state.items():
        for lower, k, edge in down_transitions(pattern, young[-2]):
            key = (lower, young[:-1], word + (k - 1) * scale)
            out[key] = out.get(key, ZERO) + amp * edge
    return {key: amp for key, amp in out.items() if amp}


def reference_encode(word, d):
    state = {empty_triplet(d): ONE}
    for k in word:
        state = reference_up(state, k)
    return state


def reference_decode(state):
    first = next(iter(state))
    d, n = first.d, first.level
    terms = {(*t, 0): amp for t, amp in state.items()}
    for i in range(n):
        terms = reference_down(terms, d**i)
    # the letter read off first is the word's last, so it is the lowest digit
    return {
        tuple(word // d ** (n - 1 - i) % d + 1 for i in range(n)): amp
        for (_, _, word), amp in terms.items()
    }


@pytest.mark.parametrize("d, n", [(2, 7), (3, 5), (4, 4)])
def test_engine_matches_reference_fold(d, n):
    for word in words(d, n):
        state = encode(word, d)
        assert state == reference_encode(word, d)
        assert decode(state) == reference_decode(state) == {word: ONE}


def assert_same_state(got, want):
    # approx sums a value's terms in stored order, so bit-equal floats pin
    # that the steps store them in the order of the reference's get + mul
    assert got == want
    assert {key: amp.to_float().hex() for key, amp in got.items()} == {
        key: amp.to_float().hex() for key, amp in want.items()
    }


def superposition(rng, pool, d, draw_weight):
    state = {}
    for word in rng.sample(pool, 3):
        weight = draw_weight()
        for t, amp in encode(word, d).items():
            state[t] = state.get(t, ZERO) + amp * weight
    return {t: amp for t, amp in state.items() if amp}


def test_engine_matches_reference_on_superpositions():
    # decode of a sum of columns, where terms of different words merge and cancel
    rng = random.Random(11)
    for d, n in [(2, 6), (3, 4)]:
        pool = list(words(d, n))
        for _ in range(5):
            state = superposition(
                rng, pool, d, lambda: radical_from_sqrt(1, rng.randint(1, 5), 1)
            )
            assert_same_state(decode(state), reference_decode(state))
        for word in rng.sample(pool, 5):
            for k in range(1, d + 1):
                state = encode(word, d)
                assert_same_state(up(state, k), reference_up(state, k))
                terms = {(*t, k - 1): amp for t, amp in state.items()}
                assert_same_state(down(terms, d), reference_down(terms, d))
            # words of several values ride along, each raised by its letter
            terms = {(*t, i % 3): amp for i, (t, amp) in enumerate(state.items())}
            assert_same_state(down(terms, 3), reference_down(terms, 3))
        # two-root weights give amplitudes of three and four terms, whose
        # float sums depend on the order of their terms
        widths = set()
        for _ in range(5):
            state = superposition(
                rng,
                pool,
                d,
                lambda: radical_from_sqrt(1, rng.randint(1, 5), 1)
                + radical_from_sqrt(-1, rng.randint(6, 12), 1),
            )
            decoded = decode(state)
            assert_same_state(decoded, reference_decode(state))
            widths.update(len(amp.terms) for amp in [*state.values(), *decoded.values()])
            for k in range(1, d + 1):
                assert_same_state(up(state, k), reference_up(state, k))
                terms = {(*t, k - 1): amp for t, amp in state.items()}
                assert_same_state(down(terms, d), reference_down(terms, d))
        assert max(widths) >= 3


@pytest.mark.parametrize(
    "d, n", [(1, 6), (2, 5), (3, 3), (4, 3), (2, 8), (3, 5), (4, 4)]
)
def test_matrix_matches_column_assembly(d, n):
    # the column walk yields every word's encode state in words() order,
    # so each matrix column and each column norm is that word's own
    m = schur_matrix(d, n)
    index = {t: row for row, t in enumerate(m.basis)}
    columns, norms = {}, []
    for col, word in enumerate(words(d, n)):
        state = encode(word, d)
        for t, amp in state.items():
            columns[(index[t], col)] = amp
        norms.append(norm_squared(state))
    assert m.entries == columns
    assert list(column_norms(d, n)) == norms


def test_column_walk_keeps_only_pending_prefixes():
    # a d = 1 walk has one prefix pending at a time, so its memory does not
    # grow with the n states along the word (17 MB when every prefix stayed)
    tracemalloc.start()
    try:
        assert list(column_norms(1, 2000)) == [ONE]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_encode_survives_cache_clear():
    # a state's keys are its own patterns and growth paths, so a cleared
    # module cache cannot renumber anything a later call reads
    modules = [
        importlib.import_module(f"schurweyl.{info.name}")
        for info in pkgutil.iter_modules(schurweyl.__path__)
    ]
    caches = {
        id(obj): obj
        for module in modules
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None))
    }
    word = (3, 1, 2, 3, 1, 2)
    before = encode(word, 3)
    for cache in caches.values():
        cache.cache_clear()
    assert encode(word, 3) == before
    assert decode(before) == {word: ONE}


def fan_edges(d, n):
    """Every up- and down-fan amplitude up to level ``n``, keyed by its edge."""
    edges = {}
    for level in range(n + 1):
        for shape in partitions(level, d):
            for pattern in enumerate_gt(shape, d):
                if level < n:
                    for k in range(1, d + 1):
                        for upper, edge in up_transitions(pattern, k):
                            edges[("up", pattern, k, upper)] = edge
                for row, length in enumerate(shape):
                    if shape[row + 1 : row + 2] == (length,):
                        continue  # one box less in this row is not a partition
                    rows = (*shape[:row], length - 1, *shape[row + 1 :])
                    for lower, k, edge in down_transitions(pattern, tuple(x for x in rows if x)):
                        edges[("down", pattern, lower, k)] = edge
    return edges


@pytest.mark.parametrize("d, n", [(2, 6), (3, 4)])
def test_steps_leave_shared_amplitudes_and_drop_zeros(d, n):
    # the fans hand the steps shared Radicals, one object per value; a step
    # that wrote into one would change every edge of that value
    edges = fan_edges(d, n)
    assert len(set(map(id, edges.values()))) < len(edges)
    texts = {key: str(edge) for key, edge in edges.items()}
    rng = random.Random(5)
    pool = list(words(d, n))
    outputs = []
    for word in pool:
        state = encode(word, d)
        outputs += [state, decode(state)]
    for _ in range(4):
        state = superposition(
            rng, pool, d, lambda: radical_from_sqrt(1, rng.randint(1, 7), 1)
        )
        outputs += [state, decode(state)]
        for k in range(1, d + 1):
            outputs.append(up(state, k))
            outputs.append(down({(*t, k - 1): amp for t, amp in state.items()}, d))
    # the sum of all basis states at a level, whose ONE amplitudes make every
    # product an edge's own value, and whose terms meet on many keys
    for k in range(1, d + 1):
        outputs.append(up(dict.fromkeys(all_triplets(n - 1, d), ONE), k))
    outputs.append(down({(*t, 0): ONE for t in all_triplets(n, d)}, 1))
    assert all(amp for output in outputs for amp in output.values())
    assert {key: str(edge) for key, edge in edges.items()} == texts
    assert verify_unitary(schur_matrix(d, n))
    assert all(norm == ONE for norm in column_norms(d, n))
    assert {key: str(edge) for key, edge in edges.items()} == texts
