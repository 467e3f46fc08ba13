"""Oracles the tests share: row-grid readers, enumerations and brute-force fans.

The package holds a standard Young tableau as its growth path and a Weyl
tableau as its Gelfand-Tsetlin pattern; these helpers read and list the
row grids directly, so the tests can hold the package's forms to them.
:func:`module_caches` lists the package's caches, for tests that clear them.
"""

import importlib
import pkgutil
from pathlib import Path

import schurweyl
from schurweyl.amplitudes import NotAnEdge, louck_amplitude, transition_context
from schurweyl.radicals import Radical
from schurweyl.tableaux import (
    GrowthPath,
    GTPattern,
    InvariantViolation,
    Partition,
    Rows,
    check_partition,
    enumerate_gt,
    enumerate_paths,
    gt_to_weyl,
    pad_partition,
    path_to_syt,
)


def syt_to_path(rows) -> GrowthPath:
    """Growth path of a standard Young tableau given as a row grid."""
    rows = tuple(tuple(row) for row in rows)
    n = sum(len(row) for row in rows)
    entries = sorted(x for row in rows for x in row)
    if entries != list(range(1, n + 1)):
        raise InvariantViolation("entries 1..n", f"{entries}")
    for row in rows:
        for a, b in zip(row, row[1:]):
            if a >= b:
                raise InvariantViolation("strictly increasing rows", f"{row}")
    for upper, lower in zip(rows, rows[1:]):
        if len(lower) > len(upper):
            raise InvariantViolation("weakly decreasing shape", f"{rows}")
        for a, b in zip(upper, lower):
            if a >= b:
                raise InvariantViolation("strictly increasing columns", f"{rows}")
    path = [()]
    for i in range(1, n + 1):
        shape = tuple(sum(1 for x in row if x <= i) for row in rows)
        path.append(check_partition(shape))
    return tuple(path)


def enumerate_syt(shape: Partition) -> list[Rows]:
    """All standard Young tableaux of ``shape`` as row grids, canonical order."""
    return [path_to_syt(path) for path in enumerate_paths(shape)]


def enumerate_weyl(shape: Partition, d: int) -> list[Rows]:
    """All standard Weyl tableaux of ``shape`` over ``{1..d}`` as rows, canonical order."""
    return [gt_to_weyl(p) for p in enumerate_gt(check_partition(shape), d)]


def up_fan(lower: GTPattern, k: int) -> list[tuple[GTPattern, Radical]]:
    """The up fan of letter ``k`` at ``lower``, by brute force over the patterns one box up.

    Every pattern of every shape one box larger is tried; those that
    :func:`transition_context` reads as an edge of letter ``k`` are kept,
    with the amplitude :func:`louck_amplitude` gives, in ascending order of
    their bumped positions.
    """
    d = lower.d
    top = pad_partition(lower.shape, d)
    edges = []
    for row in range(d):
        if row and top[row] == top[row - 1]:
            continue  # one more box in this row is not a partition
        shape = check_partition(top[:row] + (top[row] + 1,) + top[row + 1 :])
        for upper in enumerate_gt(shape, d):
            try:
                letter, taus = transition_context(lower, upper)
            except NotAnEdge:
                continue
            if letter == k:
                edges.append((taus, upper))
    edges.sort(key=lambda edge: edge[0])
    return [(upper, louck_amplitude(lower, upper)) for _, upper in edges]


def down_fan(upper: GTPattern, shape: Partition) -> list[tuple[GTPattern, int, Radical]]:
    """The down fan of ``upper`` onto ``shape``, by brute force over the patterns of ``shape``.

    Every pattern of ``shape`` is tried; those that :func:`transition_context`
    reads as an edge into ``upper`` are kept, with their letter and the
    amplitude :func:`louck_amplitude` gives, by descending letter and then in
    ascending order of their bumped positions read from the top level down.
    """
    edges = []
    for lower in enumerate_gt(shape, upper.d):
        try:
            k, taus = transition_context(lower, upper)
        except NotAnEdge:
            continue
        edges.append(((-k, taus[::-1]), lower, k))
    edges.sort(key=lambda edge: edge[0])
    return [(lower, k, louck_amplitude(lower, upper)) for _, lower, k in edges]


def module_caches() -> list:
    """Every functools cache bound to a name of a package module."""
    package = Path(schurweyl.__file__).parent
    modules = [schurweyl] + [
        importlib.import_module(f"schurweyl.{info.name}")
        for info in pkgutil.iter_modules([str(package)])
    ]
    found = {}
    for module in modules:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)) and callable(
                getattr(obj, "cache_info", None)
            ):
                found[id(obj)] = obj
    return list(found.values())
