import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from schurweyl import cli, radicals, tableaux, transform
from schurweyl.branching import SchurWeylTriplet
from schurweyl.radicals import ONE, ZERO, Radical, radical_from_sqrt
from schurweyl.tableaux import (
    InvariantViolation,
    gt_to_weyl,
    parse_word,
    weyl_to_gt,
)
from schurweyl.transform import (
    DEFAULT_SIZE_BOUND,
    ExactSparseMatrix,
    SizeBoundExceeded,
    check_size_bound,
    computational_to_json_obj,
    decode,
    dimension_check,
    encode,
    schur_basis,
    schur_matrix,
    sorted_terms,
    state_from_json_obj,
    verify_unitary,
    words,
)

from oracles import module_caches, syt_to_path
from test_acceptance import budget


def state_document(state, d, n) -> dict:
    """The state document ``encode --format json`` writes, as parsed JSON."""
    return json.loads(cli._dumps_state(state, d, n))


def triplet(shape, weyl_rows, syt_rows, d):
    t = SchurWeylTriplet(weyl_to_gt(weyl_rows, d), syt_to_path(syt_rows))
    assert t.shape == tuple(shape)
    return t


def norm_squared(state):
    total = ZERO
    for amp in state.values():
        total = total + amp.square()
    return total


def test_encode_golden_0101():
    state = encode(parse_word("0101", 2), 2)
    expected = {
        triplet((4,), [[1, 1, 2, 2]], [[1, 2, 3, 4]], 2): Radical({6: Fraction(1, 6)}),
        triplet((3, 1), [[1, 1, 2], [2]], [[1, 2, 3], [4]], 2): Radical({6: Fraction(1, 6)}),
        triplet((3, 1), [[1, 1, 2], [2]], [[1, 2, 4], [3]], 2): Radical({3: Fraction(-1, 6)}),
        triplet((3, 1), [[1, 1, 2], [2]], [[1, 3, 4], [2]], 2): Radical({1: Fraction(1, 2)}),
        triplet((2, 2), [[1, 1], [2, 2]], [[1, 2], [3, 4]], 2): Radical({3: Fraction(-1, 6)}),
        triplet((2, 2), [[1, 1], [2, 2]], [[1, 3], [2, 4]], 2): Radical({1: Fraction(1, 2)}),
    }
    assert state == expected
    assert norm_squared(state) == ONE


def test_encode_trivial_cases():
    for d in (1, 2, 3):
        for k in range(1, d + 1):
            state = encode((k,), d)
            assert len(state) == 1
            [(t, amp)] = state.items()
            assert amp == ONE and gt_to_weyl(t.pattern) == ((k,),)
    for n in range(0, 7):
        state = encode((1,) * n, 2)
        assert len(state) == 1
        [(t, amp)] = state.items()
        assert amp == ONE
        assert t.shape == ((n,) if n else ())
        assert gt_to_weyl(t.pattern) == (((1,) * n,) if n else ())
    with pytest.raises(ValueError):
        encode((3,), 2)


def test_decode_golden():
    start = triplet((2, 2), [[1, 1], [2, 2]], [[1, 3], [2, 4]], 2)
    out = decode({start: ONE})
    half = Radical({1: Fraction(1, 2)})
    assert out == {
        (1, 2, 1, 2): half,
        (1, 2, 2, 1): -half,
        (2, 1, 1, 2): -half,
        (2, 1, 2, 1): half,
    }


def test_round_trip_exhaustive_d2():
    for n in range(0, 7):
        for word in words(2, n):
            out = decode(encode(word, 2))
            assert out == {word: ONE}


def test_round_trip_random_d3():
    rng = random.Random(11)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 4)
        word = tuple(rng.randint(1, 3) for _ in range(n))
        seen.add(word)
        out = decode(encode(word, 3))
        assert out == {word: ONE}
    assert len(seen) > 30


def test_round_trip_large_alphabets():
    # the branching steps key their states by pattern, and a pattern at
    # d = 64 holds 2 080 entries; these are the largest keys they hash
    for word, d in [
        ((64, 1, 64), 64),
        ((1, 33, 2), 64),
        ((16, 16, 1, 9), 16),
        ((8, 1, 8, 2, 5), 8),
    ]:
        assert decode(encode(word, d)) == {word: ONE}, (word, d)


def clear_caches():
    for cache in module_caches():
        cache.cache_clear()


def test_long_d1_words_from_cold_caches():
    # a d = 1 state has one term, whose key holds its whole growth path; no
    # step, enumeration or check recurses once per letter
    path = tuple((k,) if k else () for k in range(3001))
    clear_caches()
    state = encode((1,) * 3000, 1)
    [(t, amp)] = state.items()
    assert t.young == path and amp == ONE
    assert decode(state) == {(1,) * 3000: ONE}
    clear_caches()
    assert dimension_check(1, 1500)
    clear_caches()
    m = schur_matrix(1, 2000, size_bound=1)
    assert m.basis == (SchurWeylTriplet(m.basis[0].pattern, path[:2001]),)
    assert m.entries == {(0, 0): ONE}


def test_schur_basis_counts():
    for d, n in [(2, 0), (2, 1), (2, 4), (3, 3), (4, 3)]:
        basis = schur_basis(d, n)
        assert len(basis) == d**n
        assert len(set(basis)) == d**n
        keys = [t.sort_key() for t in basis]
        assert keys == sorted(keys, reverse=True)


def test_matrix_small_identity():
    m = schur_matrix(2, 1)
    assert m.entries == {(0, 0): ONE, (1, 1): ONE}
    assert verify_unitary(m)


def test_matrix_2_2_golden():
    m = schur_matrix(2, 2)
    s = radical_from_sqrt(1, 1, 2)
    assert gt_to_weyl(m.basis[0].pattern) == ((1, 1),)
    assert gt_to_weyl(m.basis[1].pattern) == ((1, 2),)
    assert gt_to_weyl(m.basis[2].pattern) == ((2, 2),)
    assert gt_to_weyl(m.basis[3].pattern) == ((1,), (2,))
    assert m.entries == {
        (0, 0): ONE,
        (1, 1): s,
        (1, 2): s,
        (2, 3): ONE,
        (3, 1): s,
        (3, 2): -s,
    }


def test_matrix_column_0101_matches_encode():
    m = schur_matrix(2, 4)
    col = list(words(2, 4)).index(parse_word("0101", 2))
    column = {row: amp for (row, c), amp in m.entries.items() if c == col}
    state = encode(parse_word("0101", 2), 2)
    index = {t: r for r, t in enumerate(m.basis)}
    assert column == {index[t]: amp for t, amp in state.items()}


def test_unitarity_sweep():
    for d, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]:
        assert verify_unitary(schur_matrix(d, n))


def test_unitary_rejects_corruption():
    m = schur_matrix(2, 2)
    bad = dict(m.entries)
    bad[(1, 1)] = -bad[(1, 1)]
    assert not verify_unitary(ExactSparseMatrix(2, 2, m.basis, bad))
    missing = dict(m.entries)
    del missing[(0, 0)]
    assert not verify_unitary(ExactSparseMatrix(2, 2, m.basis, missing))
    trivial = schur_matrix(2, 0)
    assert trivial.entries == {(0, 0): ONE}
    assert verify_unitary(trivial)


def test_dimension_check():
    for d in range(1, 5):
        for n in range(0, 7):
            assert dimension_check(d, n)
    assert dimension_check(3, 4)


def test_dimension_check_counts_within_budget():
    # each shape's tableaux are counted from the counts one box smaller, not
    # listed, so the identity stays cheap where the paths number millions
    for d, n in ((2, 30), (1, 3000)):
        clear_caches()
        with budget(f"dimension identity at every level up to ({d},{n})", 500):
            assert dimension_check(d, n)


def test_dimension_check_fails_on_a_lost_pattern(monkeypatch, capsys):
    # a shape at level 3 short of one pattern fails the identity at n = 4,
    # since every level up to n is checked, and check reports it
    listed = transform.enumerate_gt

    def lossy(shape, d):
        patterns = listed(shape, d)
        return patterns[1:] if shape == (2, 1) else patterns

    monkeypatch.setattr(transform, "enumerate_gt", lossy)
    assert dimension_check(3, 2)
    assert not dimension_check(3, 4)
    assert cli.main(["check", "--d", "3", "--n", "4"]) == 3
    assert "FAIL  dimension identity  (n <= 4)\n" in capsys.readouterr().out


def test_size_bound():
    assert check_size_bound(2, 12) == 4096
    # the message is the text check prints when it skips unitarity
    with pytest.raises(SizeBoundExceeded, match=r"^d\*\*n = 8192 exceeds size bound 4096$"):
        check_size_bound(2, 13)
    with pytest.raises(SizeBoundExceeded):
        schur_matrix(2, 3, size_bound=4)
    assert DEFAULT_SIZE_BOUND == 4096


def test_state_json_round_trip():
    state = encode(parse_word("0101", 2), 2)
    obj = state_document(state, 2, 4)
    assert obj["d"] == 2 and obj["n"] == 4
    assert obj["terms"][0]["shape"] == [4]
    assert obj["terms"][0]["weyl_rows"] == [[0, 0, 1, 1]]
    assert obj["terms"][0]["young_path"] == [[], [1], [2], [3], [4]]
    assert state_from_json_obj(json.loads(json.dumps(obj))) == state
    # the amplitudes of a repeated triplet merge
    doubled = dict(obj, terms=obj["terms"] + obj["terms"])
    merged = state_from_json_obj(doubled)
    first = sorted_terms(state)[0]
    assert merged[first[0]] == first[1] + first[1]


def test_decode_multi_term_amplitudes():
    # the transform's own amplitudes were single-term wherever measured; a user's
    # document need not be, and decode must carry such values exactly
    word = (1, 2, 3, 1, 2)
    root2, root3 = radical_from_sqrt(1, 2, 1), radical_from_sqrt(1, 3, 1)
    state = encode(word, 3)

    def scaled(factor):
        scaled_terms = {t: amp * factor for t, amp in state.items()}
        return state_document(scaled_terms, 3, 5)

    doc = scaled(root2)
    doc["terms"] += scaled(root3)["terms"]
    out = decode(state_from_json_obj(json.loads(json.dumps(doc))))
    assert out == {word: root2 + root3}
    assert out[word].terms == {2: 1, 3: 1}


def test_state_json_validation():
    with pytest.raises(InvariantViolation):
        state_from_json_obj({"d": 2, "n": 1})
    with pytest.raises(InvariantViolation):
        state_from_json_obj({"d": 2, "n": 1, "terms": []})
    good = state_document(encode((1,), 2), 2, 1)
    bad = json.loads(json.dumps(good))
    bad["terms"][0]["weyl_rows"] = [[1, 0]]
    with pytest.raises(InvariantViolation, match="weakly increasing rows"):
        state_from_json_obj(bad)
    for n in (2, -1):
        mismatched = json.loads(json.dumps(good))
        mismatched["n"] = n
        with pytest.raises(InvariantViolation, match="share level"):
            state_from_json_obj(mismatched)
    for d in (0, 65):
        with pytest.raises(InvariantViolation, match="alphabet size"):
            state_from_json_obj(dict(good, d=d))


def test_reader_checks_each_distinct_item_once(monkeypatch):
    # a (3,8) document: the reader's memos check each distinct Weyl tableau,
    # raw growth step, growth pair and amplitude triple once, however many
    # terms repeat it; weyl_to_gt checks a tableau's row lengths as a partition
    state = encode((1, 2, 3, 1, 2, 3, 1, 2), 3)
    obj = state_document(state, 3, 8)
    terms = obj["terms"]
    weyl = {tuple(map(tuple, term["weyl_rows"])) for term in terms}
    steps = {tuple(step) for term in terms for step in term["young_path"]}
    pairs = {
        (tuple(a), tuple(b))
        for term in terms
        for a, b in zip(term["young_path"], term["young_path"][1:])
    }
    amplitudes = {
        tuple(tuple(t.values()) for t in term["amplitude"]["terms"]) for term in terms
    }
    # every kind repeats across the terms, so a missing memo would show
    assert max(len(weyl), len(amplitudes)) < len(terms)
    assert len(pairs) < sum(len(term["young_path"]) - 1 for term in terms)
    calls = {"weyl_to_gt": [], "check_partition": [], "grown_row": [], "check_json_triple": []}

    def counting(module, name):
        original = getattr(module, name)

        def count(*args):
            calls[name].append(args[0] if len(args) == 1 else args)
            return original(*args)

        monkeypatch.setattr(module, name, count)

    for name in ("weyl_to_gt", "check_partition", "grown_row"):
        counting(tableaux, name)
    counting(radicals, "check_json_triple")
    assert state_from_json_obj(obj) == state
    assert len(calls["weyl_to_gt"]) == len(weyl)
    expected = Counter(steps)
    expected.update(tuple(map(len, rows)) for rows in weyl)
    assert Counter(calls["check_partition"]) == expected
    assert sorted(calls["grown_row"]) == sorted(pairs)
    assert sorted(calls["check_json_triple"]) == sorted(t for amp in amplitudes for t in amp)


def test_computational_json():
    out = decode(encode(parse_word("01", 2), 2))
    obj = computational_to_json_obj(out, 2, 2)
    assert [t["word"] for t in obj["terms"]] == ["01"]
    assert obj["terms"][0]["amplitude"]["terms"] == [
        {"radicand": 1, "num": 1, "den": 1}
    ]

