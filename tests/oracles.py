"""Oracles the tests share: row-grid readers, enumerations and brute-force fans.

The package holds a standard Young tableau as its growth path and a Weyl
tableau as its Gelfand-Tsetlin pattern; these helpers read and list the
row grids directly, so the tests can hold the package's forms to them.
:func:`louck_reference` evaluates Louck's transition amplitude on its own,
for the brute-force fans to carry.  :func:`module_caches` lists the
package's caches, for tests that clear them.
"""

import importlib
import pkgutil
from fractions import Fraction
from functools import cache
from math import prod
from pathlib import Path

import schurweyl
from schurweyl.amplitudes import NotAnEdge, transition_context
from schurweyl.radicals import Radical, radical_from_sqrt
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


def recursive_paths(shape: Partition) -> tuple[GrowthPath, ...]:
    """Growth paths of ``shape`` by the recursive definition: each path of a
    shape one box smaller with ``shape`` appended, sorted descending."""
    shape = check_partition(shape)
    if not shape:
        return (((),),)
    out = []
    for row, part in enumerate(shape):
        if row + 1 == len(shape) or shape[row + 1] < part:
            smaller = check_partition((*shape[:row], part - 1, *shape[row + 1 :]))
            out += [prefix + (shape,) for prefix in recursive_paths(smaller)]
    return tuple(sorted(out, reverse=True))


def enumerate_weyl(shape: Partition, d: int) -> list[Rows]:
    """All standard Weyl tableaux of ``shape`` over ``{1..d}`` as rows, canonical order."""
    return [gt_to_weyl(p) for p in enumerate_gt(check_partition(shape), d)]


def louck_reference(lower: GTPattern, upper: GTPattern) -> Radical:
    """Louck's amplitude of the single-box transition ``lower -> upper``, from the book.

    With the lower pattern's partial hooks ``p_{i,j} = m_{i,j} + j - i``,
    the bumped positions ``tau_j`` (``j = k..d``) from
    :func:`transition_context`, and ``sgn(0) = +1``, the amplitude is

        sqrt|B| * prod_{j=k+1..d} sgn(s - t) sqrt|A_j|,  s = tau_{j-1}, t = tau_j,

        A_j = prod_{i != s} (p_{t,j} - p_{i,j-1}) / (p_{s,j-1} - p_{i,j-1} + 1)
            * prod_{i != t} (p_{s,j-1} - p_{i,j} + 1) / (p_{t,j} - p_{i,j}),
        B   = prod_{i < k} (p_{t,k} - p_{i,k-1}) / prod_{i != t} (p_{t,k} - p_{i,k}),  t = tau_k

    (Louck, *Unitary Symmetry and Combinatorics*, 2008).  The square is
    kept as one :class:`~fractions.Fraction`; no table of the package's fans
    is read.  A pair that :func:`transition_context` does not read as a
    single-box transition raises :class:`NotAnEdge`.
    """
    k, taus = transition_context(lower, upper)
    tau = dict(zip(range(k, lower.d + 1), taus))
    hook = {
        (i, j): m + j - i
        for j, level in enumerate(lower.levels, start=1)
        for i, m in enumerate(level, start=1)
    }
    t = tau[k]
    square = Fraction(
        prod(hook[t, k] - hook[i, k - 1] for i in range(1, k)),
        prod(hook[t, k] - hook[i, k] for i in range(1, k + 1) if i != t),
    )
    sign = 1
    for j in range(k + 1, lower.d + 1):
        lo, up = tau[j - 1], tau[j]
        h_lo, h_up = hook[lo, j - 1], hook[up, j]
        if lo < up:
            sign = -sign
        for i in range(1, j):
            if i != lo:
                square *= Fraction(h_up - hook[i, j - 1], h_lo - hook[i, j - 1] + 1)
        for i in range(1, j + 1):
            if i != up:
                square *= Fraction(h_lo - hook[i, j] + 1, h_up - hook[i, j])
    square = abs(square)
    return radical_from_sqrt(sign, square.numerator, square.denominator)


def up_fan(lower: GTPattern, k: int) -> list[tuple[GTPattern, Radical]]:
    """The up fan of letter ``k`` at ``lower``, by brute force over the patterns one box up.

    Every pattern of every shape one box larger is tried; those that
    :func:`transition_context` reads as an edge of letter ``k`` are kept,
    with the amplitude :func:`louck_reference` gives, in ascending order of
    their bumped positions.  The patterns one box up are tried once per
    lower pattern, for all letters (:func:`edges_by_letter`).
    """
    edges = sorted(edges_by_letter(lower).get(k, ()))
    return [(upper, louck_reference(lower, upper)) for _, upper in edges]


@cache
def edges_by_letter(lower: GTPattern) -> dict[int, list[tuple[tuple[int, ...], GTPattern]]]:
    """Every ``(taus, upper)`` edge out of ``lower``, by letter, over all patterns one box up."""
    d = lower.d
    top = pad_partition(lower.shape, d)
    edges: dict = {}
    for row in range(d):
        if row and top[row] == top[row - 1]:
            continue  # one more box in this row is not a partition
        shape = check_partition(top[:row] + (top[row] + 1,) + top[row + 1 :])
        for upper in enumerate_gt(shape, d):
            try:
                letter, taus = transition_context(lower, upper)
            except NotAnEdge:
                continue
            edges.setdefault(letter, []).append((taus, upper))
    return edges


def down_fan(upper: GTPattern, shape: Partition) -> list[tuple[GTPattern, int, Radical]]:
    """The down fan of ``upper`` onto ``shape``, by brute force over the patterns of ``shape``.

    Every pattern of ``shape`` is tried; those that :func:`transition_context`
    reads as an edge into ``upper`` are kept, with their letter and the
    amplitude :func:`louck_reference` gives, by descending letter and then in
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
    return [(lower, k, louck_reference(lower, upper)) for _, lower, k in edges]


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
