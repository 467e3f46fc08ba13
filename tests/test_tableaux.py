import itertools
import random
from math import factorial

import pytest
from hypothesis import given, strategies as st

from schurweyl.tableaux import (
    GTPattern,
    InvariantViolation,
    MAX_ALPHABET,
    check_alphabet,
    check_partition,
    enumerate_gt,
    enumerate_paths,
    gt_from_external,
    gt_to_external,
    gt_to_weyl,
    interlaces,
    letter_from_external,
    letter_from_json,
    letter_offset,
    pad_partition,
    parse_word,
    partitions,
    path_to_syt,
    render_tableau_rows,
    shape_to_text,
    validate_gt,
    validate_path,
    weyl_to_gt,
    word_to_text,
)

from oracles import enumerate_syt, enumerate_weyl, syt_to_path

# ---------------------------------------------------------------------------
# oracles


def brute_partitions(n, max_parts):
    found = set()
    if n == 0:
        return [()]
    for cut in itertools.product(range(n + 1), repeat=max_parts):
        if sum(cut) == n and all(a >= b for a, b in zip(cut, cut[1:])):
            trimmed = tuple(p for p in cut if p)
            found.add(trimmed)
    return sorted(found, reverse=True)


def brute_syt(shape):
    """All standard fillings of shape, by permutation placement."""
    n = sum(shape)
    cells = [(i, j) for i, part in enumerate(shape) for j in range(part)]
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        grid = {cell: entry for cell, entry in zip(cells, perm)}
        ok = all(
            grid[(i, j)] < grid[(i, j + 1)]
            for (i, j) in cells
            if (i, j + 1) in grid
        ) and all(
            grid[(i, j)] < grid[(i + 1, j)]
            for (i, j) in cells
            if (i + 1, j) in grid
        )
        if ok:
            out.append(
                tuple(
                    tuple(grid[(i, j)] for j in range(part))
                    for i, part in enumerate(shape)
                )
            )
    return out


def brute_weyl(shape, d):
    """All standard Weyl fillings of shape over {1..d}."""
    n = sum(shape)
    cells = [(i, j) for i, part in enumerate(shape) for j in range(part)]
    out = []
    for fill in itertools.product(range(1, d + 1), repeat=n):
        grid = {cell: entry for cell, entry in zip(cells, fill)}
        ok = all(
            grid[(i, j)] <= grid[(i, j + 1)]
            for (i, j) in cells
            if (i, j + 1) in grid
        ) and all(
            grid[(i, j)] < grid[(i + 1, j)]
            for (i, j) in cells
            if (i + 1, j) in grid
        )
        if ok:
            out.append(
                tuple(
                    tuple(grid[(i, j)] for j in range(part))
                    for i, part in enumerate(shape)
                )
            )
    return out


def is_semistandard(rows, d):
    """Whether a row grid is a standard Weyl tableau over {1..d}, cell by cell."""
    shape = [len(row) for row in rows]
    return (
        len(rows) <= d
        and all(shape) and shape == sorted(shape, reverse=True)
        and all(type(x) is int and 1 <= x <= d for row in rows for x in row)
        and all(a <= b for row in rows for a, b in zip(row, row[1:]))
        and all(a < b for upper, lower in zip(rows, rows[1:]) for a, b in zip(upper, lower))
    )


def content(p):
    """How many times each letter 1..d occurs, read off the pattern's level sums."""
    sums = [0] + [sum(level) for level in p.levels]
    return tuple(b - a for a, b in zip(sums, sums[1:]))


def hook_length_count(shape):
    """Number of standard Young tableaux of shape, as an independent oracle."""
    n = sum(shape)
    prod = 1
    for i, part in enumerate(shape):
        for j in range(part):
            arm = part - j - 1
            leg = sum(1 for below in shape[i + 1 :] if below > j)
            prod *= arm + leg + 1
    return factorial(n) // prod


# ---------------------------------------------------------------------------
# partitions


def test_partitions_examples():
    assert partitions(3, 2) == ((3,), (2, 1))
    assert partitions(0, 4) == ((),)
    assert (4, 2, 2) in partitions(8, 4)
    assert partitions(4, 4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_against_brute_force():
    for n in range(0, 8):
        for max_parts in range(0, 5):
            got = partitions(n, max_parts)
            assert list(got) == brute_partitions(n, max_parts)
            assert len(set(got)) == len(got)


def test_check_partition():
    assert check_partition((4, 2, 2, 0)) == (4, 2, 2)
    assert check_partition(()) == ()
    with pytest.raises(InvariantViolation):
        check_partition((1, 2))
    with pytest.raises(InvariantViolation):
        check_partition((2, -1))


# ---------------------------------------------------------------------------
# standard Young tableaux


def test_syt_path_bijection_exhaustive():
    for n in range(0, 7):
        for shape in partitions(n, n):
            paths = enumerate_paths(shape)
            grids = enumerate_syt(shape)
            assert sorted(grids) == sorted(brute_syt(shape))
            assert len(paths) == hook_length_count(shape)
            for path, grid in zip(paths, grids):
                assert path_to_syt(path) == grid
                assert syt_to_path(grid) == path


def test_syt_census_small():
    assert len(enumerate_syt((2, 1))) == 2
    assert len(enumerate_syt((2, 2))) == 2
    assert enumerate_syt(()) == [()]
    # canonical order: row-filling-first tableau leads
    assert enumerate_syt((2, 1)) == [((1, 2), (3,)), ((1, 3), (2,))]


def test_path_validation():
    with pytest.raises(InvariantViolation):
        validate_path(((), (2,)))
    with pytest.raises(InvariantViolation):
        validate_path(((1,),))
    with pytest.raises(InvariantViolation, match="bad part True"):
        validate_path(((), (True,)))
    with pytest.raises(InvariantViolation):
        syt_to_path(((1, 2), (2,)))
    with pytest.raises(InvariantViolation):
        syt_to_path(((1, 3), (2, 2)))
    with pytest.raises(InvariantViolation):
        syt_to_path(((2, 1),))


def test_validate_path_takes_any_steps_without_memo():
    assert validate_path([[], [1], [1, 1]]) == ((), (1,), (1, 1))
    assert validate_path([[], [1, 0], [2, 0, 0]]) == ((), (1,), (2,))
    assert validate_path(iter([(), (1,)])) == ((), (1,))


def test_path_memo_matches_reading_alone():
    # every growth path with n <= 6, spelled with and without trailing zero
    # parts, read in shuffled order through one memo: shared raw prefixes
    # are skipped, and each result is the path read alone
    spelled = []
    for n in range(0, 7):
        for shape in partitions(n, n):
            for path in enumerate_paths(shape):
                padded = tuple(pad_partition(step, n + 1) for step in path)
                mixed = tuple(padded[i] if i % 2 else step for i, step in enumerate(path))
                spelled += [path, padded, mixed]
    random.Random(14).shuffle(spelled)
    seen = {}
    for steps in spelled:
        alone = validate_path(steps)
        assert alone == tuple(map(check_partition, steps))
        assert validate_path(steps, seen) == alone
    # a second pass finds every path in the memo
    assert [validate_path(steps, seen) for steps in spelled] == list(
        map(validate_path, spelled)
    )


def test_path_memo_names_the_same_fault():
    # the memo skips only steps it has checked, so a path names the fault
    # it names alone: a bad part before a growth fault further on
    good = ((), (1,), (2,), (2, 1))
    bad = [
        ((), (1,), (3,), (3, -1)),
        ((), (1,), (2,), (4,)),
        ((), (1,), (1, 2)),
        ((), (1,), (2,), (2, 1), (2, 1)),
        ((1,), (2,)),
        (),
    ]
    for steps in bad:
        with pytest.raises(InvariantViolation) as alone:
            validate_path(steps)
        seen = {}
        validate_path(good, seen)
        with pytest.raises(InvariantViolation) as memo:
            validate_path(steps, seen)
        assert str(memo.value) == str(alone.value)
    with pytest.raises(InvariantViolation, match="bad part -1"):
        validate_path(bad[0], seen)


# ---------------------------------------------------------------------------
# standard Weyl tableaux and GT patterns


def test_weyl_validation():
    weyl_to_gt([[1, 1, 2], [2]], 2)
    with pytest.raises(InvariantViolation, match="weakly increasing rows"):
        weyl_to_gt([[2, 1]], 2)
    with pytest.raises(InvariantViolation, match="strictly increasing columns"):
        weyl_to_gt([[1, 1], [1]], 2)
    with pytest.raises(InvariantViolation, match="at most d rows"):
        weyl_to_gt([[1], [2], [3]], 2)
    with pytest.raises(InvariantViolation, match="entries in alphabet"):
        weyl_to_gt([[1, 3]], 2)
    with pytest.raises(InvariantViolation, match="nonempty rows"):
        weyl_to_gt([[1], []], 2)


@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.lists(st.integers(-1, d + 1), max_size=4), max_size=d + 1),
        )
    )
)
def test_weyl_reader_matches_brute_check(case):
    # the one Weyl reader rejects exactly the grids that are not semistandard
    # over 1..d, and on the rest its pattern is valid and writes the grid back
    d, grid = case
    rows = tuple(map(tuple, grid))
    if not is_semistandard(rows, d):
        with pytest.raises(InvariantViolation):
            weyl_to_gt(rows, d)
        return
    p = weyl_to_gt(rows, d)
    validate_gt(p)
    assert gt_to_weyl(p) == rows


def test_content_examples():
    p = weyl_to_gt([[1, 1, 2, 2], [2, 3], [4, 4]], 4)
    assert p.shape == (4, 2, 2)
    assert content(p) == (2, 3, 1, 2)
    assert content(weyl_to_gt((), 3)) == (0, 0, 0)
    assert content(weyl_to_gt([[1, 1, 2], [2]], 2)) == (2, 2)


def test_weyl_gt_golden():
    assert weyl_to_gt([[1, 1], [2]], 2) == GTPattern(((2,), (2, 1)))
    assert weyl_to_gt([[1, 1, 1], [2, 2, 2]], 2) == GTPattern(((3,), (3, 3)))
    assert weyl_to_gt((), 3) == GTPattern(((0,), (0, 0), (0, 0, 0)))
    assert gt_to_weyl(GTPattern(((0,), (0, 0), (0, 0, 0)))) == ()


def test_gt_round_trip_exhaustive():
    for d in range(1, 4):
        for n in range(0, 6):
            for shape in partitions(n, d):
                tableaux = enumerate_weyl(shape, d)
                assert sorted(tableaux) == sorted(brute_weyl(shape, d))
                for t in tableaux:
                    p = weyl_to_gt(t, d)
                    validate_gt(p)
                    assert p.shape == shape
                    assert pad_partition(shape, d) == p.levels[-1]
                    assert gt_to_weyl(p) == t
                for p in enumerate_gt(shape, d):
                    assert weyl_to_gt(gt_to_weyl(p), d) == p


def test_enumerate_weyl_counts():
    assert len(enumerate_weyl((2,), 2)) == 3
    assert sorted(content(p) for p in enumerate_gt((2,), 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(enumerate_weyl((1, 1), 2)) == 1
    assert len(enumerate_weyl((3,), 2)) == 4
    with pytest.raises(InvariantViolation):
        enumerate_weyl((1, 1, 1), 2)


def test_gt_validation():
    with pytest.raises(InvariantViolation, match="in-betweenness"):
        validate_gt(GTPattern(((3,), (2, 1))))
    with pytest.raises(InvariantViolation, match="in-betweenness"):
        validate_gt(GTPattern(((0,), (1, 1))))
    with pytest.raises(InvariantViolation, match="triangular"):
        validate_gt(GTPattern(((1, 1),)))
    with pytest.raises(InvariantViolation, match="nonnegative"):
        validate_gt(GTPattern(((-1,), (0, 0))))


def test_interlaces():
    assert interlaces((3, 1), (2,)) and interlaces((3, 1), (3,)) and interlaces((3, 1), (1,))
    assert not interlaces((3, 1), (4,)) and not interlaces((3, 1), (0,))
    assert interlaces((2, 2, 0), (2, 1)) and not interlaces((2, 2, 0), (1, 2))
    assert interlaces((5,), ())


def test_alphabet_bound():
    # one bound on d wherever it enters: tableaux, patterns and enumeration
    check_alphabet(1)
    check_alphabet(MAX_ALPHABET)
    for d in (0, -1, MAX_ALPHABET + 1):
        with pytest.raises(InvariantViolation, match=f"alphabet size .*1..{MAX_ALPHABET}"):
            check_alphabet(d)
    with pytest.raises(InvariantViolation, match="alphabet size"):
        weyl_to_gt((), MAX_ALPHABET + 1)
    with pytest.raises(InvariantViolation, match="alphabet size"):
        validate_gt(GTPattern(()))
    with pytest.raises(InvariantViolation, match="alphabet size"):
        enumerate_gt((), MAX_ALPHABET + 1)


def test_canonical_weyl_order():
    # d=2 level-1 vertices: [1] before [2], i.e. external [0] before [1]
    tableaux = enumerate_weyl((1,), 2)
    assert tableaux == [((1,),), ((2,),)]
    keys = [weyl_to_gt(t, 2).key() for t in tableaux]
    assert keys == sorted(keys, reverse=True)
    for d in (2, 3):
        for shape in [(2,), (2, 1), (3, 1)]:
            keys = [weyl_to_gt(t, d).key() for t in enumerate_weyl(shape, d)]
            assert keys == sorted(keys, reverse=True)
    # enumerate_gt yields that order itself
    shapes = [(d, s) for d in range(1, 6) for n in range(7) for s in partitions(n, d)]
    for d, shape in [*shapes, (8, (3, 2, 1))]:
        keys = [p.key() for p in enumerate_gt(shape, d)]
        assert keys == sorted(keys, reverse=True)


# ---------------------------------------------------------------------------
# rendering and the external alphabet


def test_external_alphabet():
    assert letter_offset(2) == 1
    assert letter_offset(4) == 0
    assert letter_from_external("0", 2) == 1
    assert letter_from_external("3", 4) == 3
    assert letter_from_json(0, 2) == 1
    # one range check for both; the message shows the letter as the input spelled it
    with pytest.raises(InvariantViolation, match="'05' with d=4"):
        letter_from_external("05", 4)
    with pytest.raises(InvariantViolation, match="'5' with d=4"):
        letter_from_json(5, 4)
    assert parse_word("0101", 2) == (1, 2, 1, 2)
    assert parse_word("1,2,3", 3) == (1, 2, 3)
    assert parse_word("", 2) == ()
    assert word_to_text((1, 2, 1, 2), 2) == "0101"
    assert word_to_text((1, 2, 3), 3) == "1,2,3"
    with pytest.raises(InvariantViolation):
        parse_word("012", 2)
    with pytest.raises(InvariantViolation):
        parse_word("0,4", 3)
    with pytest.raises(InvariantViolation):
        parse_word("ab", 2)


def test_rendering():
    assert shape_to_text((3, 1)) == "(3,1)"
    assert shape_to_text(()) == "()"
    p = weyl_to_gt([[1, 1, 2], [2]], 2)
    assert gt_to_external(p) == [[0, 0, 1], [1]]
    assert gt_from_external([[0, 0, 1], [1]], 2) == p
    assert render_tableau_rows(gt_to_external(p)) == ["0 0 1", "1"]
    assert render_tableau_rows(()) == ["()"]
