import itertools
from math import factorial

import pytest

from schurweyl.tableaux import (
    BoxCoord,
    GTPattern,
    InvariantViolation,
    WeylTableau,
    add_box,
    addable_boxes,
    check_partition,
    enumerate_gt,
    enumerate_paths,
    enumerate_syt,
    enumerate_weyl,
    gt_to_weyl,
    letter_from_external,
    letter_from_json,
    letter_offset,
    make_weyl,
    pad_partition,
    parse_word,
    partitions,
    path_to_syt,
    remove_box,
    removable_boxes,
    render_gt,
    render_tableau_rows,
    shape_to_text,
    syt_to_path,
    validate_gt,
    validate_path,
    validate_weyl,
    weyl_to_gt,
    word_to_text,
)

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


def test_boxes_examples():
    assert removable_boxes((4, 2, 2)) == [BoxCoord(1, 4), BoxCoord(3, 2)]
    assert addable_boxes((4, 2, 2)) == [BoxCoord(1, 5), BoxCoord(2, 3), BoxCoord(4, 1)]
    assert addable_boxes(()) == [BoxCoord(1, 1)]
    assert removable_boxes(()) == []


def test_box_round_trip_and_counts():
    for n in range(0, 8):
        for shape in partitions(n, n):
            assert len(addable_boxes(shape)) == len(removable_boxes(shape)) + 1
            for box in addable_boxes(shape):
                assert remove_box(add_box(shape, box.row), box.row) == shape
            for box in removable_boxes(shape):
                assert add_box(remove_box(shape, box.row), box.row) == shape
    assert add_box((2, 2), 3) == (2, 2, 1)
    with pytest.raises(InvariantViolation):
        add_box((2, 2), 2)
    with pytest.raises(InvariantViolation):
        add_box((2, 1), 4)
    with pytest.raises(InvariantViolation):
        remove_box((2, 2), 1)


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


# ---------------------------------------------------------------------------
# standard Weyl tableaux and GT patterns


def test_weyl_validation():
    make_weyl([[1, 1, 2], [2]], 2)
    with pytest.raises(InvariantViolation, match="weakly increasing rows"):
        make_weyl([[2, 1]], 2)
    with pytest.raises(InvariantViolation, match="strictly increasing columns"):
        make_weyl([[1, 1], [1]], 2)
    with pytest.raises(InvariantViolation, match="at most d rows"):
        make_weyl([[1], [2], [3]], 2)
    with pytest.raises(InvariantViolation, match="entries in alphabet"):
        make_weyl([[1, 3]], 2)
    with pytest.raises(InvariantViolation, match="nonempty rows"):
        make_weyl([[1], []], 2)


def test_content_examples():
    t = make_weyl([[1, 1, 2, 2], [2, 3], [4, 4]], 4)
    assert t.shape == (4, 2, 2)
    assert t.content() == (2, 3, 1, 2)
    assert WeylTableau((), 3).content() == (0, 0, 0)
    assert make_weyl([[1, 1, 2], [2]], 2).content() == (2, 2)


def test_weyl_gt_golden():
    assert weyl_to_gt(make_weyl([[1, 1], [2]], 2)) == GTPattern(((2,), (2, 1)))
    assert weyl_to_gt(make_weyl([[1, 1, 1], [2, 2, 2]], 2)) == GTPattern(((3,), (3, 3)))
    empty = WeylTableau((), 3)
    assert weyl_to_gt(empty) == GTPattern(((0,), (0, 0), (0, 0, 0)))
    assert gt_to_weyl(GTPattern(((0,), (0, 0), (0, 0, 0)))) == empty


def test_gt_round_trip_exhaustive():
    for d in range(1, 4):
        for n in range(0, 6):
            for shape in partitions(n, d):
                tableaux = enumerate_weyl(shape, d)
                grids = sorted(t.rows for t in tableaux)
                assert grids == sorted(brute_weyl(shape, d))
                for t in tableaux:
                    validate_weyl(t)
                    p = weyl_to_gt(t)
                    validate_gt(p)
                    assert p.shape == shape
                    assert pad_partition(shape, d) == p.levels[-1]
                    assert gt_to_weyl(p) == t
                for p in enumerate_gt(shape, d):
                    assert weyl_to_gt(gt_to_weyl(p)) == p


def test_enumerate_weyl_counts():
    assert len(enumerate_weyl((2,), 2)) == 3
    assert sorted(t.content() for t in enumerate_weyl((2,), 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(enumerate_weyl((1, 1), 2)) == 1
    assert len(enumerate_weyl((3,), 2)) == 4
    with pytest.raises(InvariantViolation):
        enumerate_weyl((1, 1, 1), 2)


def test_gt_validation():
    with pytest.raises(InvariantViolation, match="in-betweenness"):
        validate_gt(GTPattern(((3,), (2, 1))))
    with pytest.raises(InvariantViolation, match="in-betweenness"):
        gt_to_weyl(GTPattern(((0,), (1, 1))))
    with pytest.raises(InvariantViolation, match="triangular"):
        validate_gt(GTPattern(((1, 1),)))
    with pytest.raises(InvariantViolation, match="nonnegative"):
        validate_gt(GTPattern(((-1,), (0, 0))))


def test_canonical_weyl_order():
    # d=2 level-1 vertices: [1] before [2], i.e. external [0] before [1]
    tableaux = enumerate_weyl((1,), 2)
    assert [t.rows for t in tableaux] == [((1,),), ((2,),)]
    keys = [weyl_to_gt(t).key() for t in tableaux]
    assert keys == sorted(keys, reverse=True)
    for d in (2, 3):
        for shape in [(2,), (2, 1), (3, 1)]:
            keys = [weyl_to_gt(t).key() for t in enumerate_weyl(shape, d)]
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
    t = make_weyl([[1, 1, 2], [2]], 2)
    assert render_tableau_rows(t.rows, 2) == ["0 0 1", "1"]
    assert render_tableau_rows((), 2) == ["()"]
    assert render_gt(GTPattern(((2,), (2, 1)))) == ["2 1", " 2"]
    assert render_gt(GTPattern(((0,), (0, 0), (1, 0, 0)))) == ["1 0 0", " 0 0", "  0"]
