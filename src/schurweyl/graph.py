"""The Schur-Weyl-Young multigraph.

Level ``i`` holds every standard Weyl tableau of every partition of
``i`` with at most ``d`` rows; an edge joins a tableau to each tableau
one level up reachable by a single-letter transition, labeled by the
added letter and the exact amplitude.  Vertex ids are dense integers
assigned in canonical order (level, then partition, then tableau), so
DOT and JSON dumps are byte-stable for fixed ``(d, n_max)``.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from schurweyl import amplitudes
from schurweyl.radicals import Radical
from schurweyl.tableaux import (
    GTPattern,
    Memo,
    Partition,
    check_alphabet,
    enumerate_gt,
    gt_to_external,
    letter_offset,
    partitions,
    row_entries,
    shape_to_text,
    weyl_row,
)


class SWYVertex(NamedTuple):
    id: int
    level: int
    shape: Partition
    pattern: GTPattern


class SWYEdge(NamedTuple):
    lower: int
    upper: int
    added_entry: int
    amplitude: Radical


class SWYGraph:
    """Immutable after construction; build via :func:`build`."""

    def __init__(self, d: int, n_max: int, vertices, edges):
        self.d = d
        self.n_max = n_max
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)

    def vertex(self, v: int) -> SWYVertex:
        if not 0 <= v < len(self.vertices):
            raise ValueError(f"unknown vertex {v}")
        return self.vertices[v]

    def level_vertices(self, level: int) -> list[SWYVertex]:
        if not 0 <= level <= self.n_max:
            raise ValueError(f"level {level} outside 0..{self.n_max}")
        return [v for v in self.vertices if v.level == level]

    def level_census(self, level: int) -> dict[Partition, int]:
        census: dict[Partition, int] = {}
        for v in self.level_vertices(level):
            census[v.shape] = census.get(v.shape, 0) + 1
        return census

    def to_json_obj(self):
        shift = letter_offset(self.d)
        return {
            "d": self.d,
            "n_max": self.n_max,
            "vertices": [
                {
                    "id": v.id,
                    "level": v.level,
                    "shape": list(v.shape),
                    "tableau_rows": gt_to_external(v.pattern),
                }
                for v in self.vertices
            ],
            "edges": [
                {
                    "lower": e.lower,
                    "upper": e.upper,
                    "k": e.added_entry - shift,
                    "amplitude": e.amplitude.to_json_obj(),
                }
                for e in self.edges
            ],
        }

    def to_dot(self) -> str:
        lines = [
            "digraph swy {",
            "  rankdir=BT;",
            '  node [shape=box, fontname="monospace"];',
        ]
        shift = letter_offset(self.d)
        line_break = "\\n"  # a line break inside a DOT label
        # each distinct row's text, keyed by the GT entries that fix it
        row_texts = Memo(lambda entries: " ".join([str(x - shift) for x in weyl_row(entries)]))
        by_level, by_shape = itemgetter(1), itemgetter(2)
        # build lists each level's shapes in partitions order, and every shape
        # of at most d rows has a pattern, so the clusters are those partitions
        for level, at_level in groupby(self.vertices, by_level):
            for f, (shape, cluster) in enumerate(groupby(at_level, by_shape)):
                lines.append(f"  subgraph cluster_{level}_{f} {{")
                lines.append(f'    label="n={level} {shape_to_text(shape)}";')
                for v in cluster:
                    label = line_break.join(map(row_texts.__getitem__, row_entries(v.pattern)))
                    # only the empty tableau has no rows; its label is ()
                    lines.append(f'    v{v.id} [label="{label or "()"}"];')
                lines.append("  }")
        # each amplitude object's text, made once per call; equal amplitudes
        # from the fans are one object.  By id, not a Memo: an id cannot give
        # back its amplitude, and a value key would hash a frozenset per edge
        texts: dict = {}
        for e in self.edges:
            amp = e.amplitude
            text = texts.get(id(amp)) or texts.setdefault(id(amp), amp.to_string())
            lines.append(f'  v{e.lower} -> v{e.upper} [label="{e.added_entry - shift}: {text}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build(d: int, n_max: int) -> SWYGraph:
    """All vertices up to level ``n_max`` with amplitude-labeled edges."""
    check_alphabet(d)
    if type(n_max) is not int or n_max < 0:
        raise ValueError(f"n_max must be a nonnegative int, got {n_max!r}")
    # the records' fields are the package's own, so each is made by
    # tuple.__new__, as namedtuple's _make does, with no constructor frame
    new = tuple.__new__
    vertices: list[SWYVertex] = []
    # each pattern's vertex id, keyed by its levels as the scan gives uppers; one map for all levels
    ids: dict[tuple, int] = {}
    for level in range(n_max + 1):
        below = len(vertices)  # at the top level, the vertices whose up fans are edges
        for shape in partitions(level, d):
            for pattern in enumerate_gt(shape, d):
                vid = ids[pattern.levels] = len(vertices)
                vertices.append(new(SWYVertex, (vid, level, shape, pattern)))
    by_letter_upper = itemgetter(2, 1)
    edges: list[SWYEdge] = []
    # one scan of every letter per vertex, cached nowhere: only its edges and
    # shared roots outlive it
    for vid, _, _, pattern in vertices[:below]:
        fans = [
            new(SWYEdge, (vid, ids[upper], k, amp))
            for k, fan in enumerate(amplitudes._scan(pattern, 1, d), start=1)
            for upper, amp in fan
        ]
        # each fan in upper id order; one sort of the whole edge list would
        # hold a key tuple per edge alive at once, which costs more collections
        fans.sort(key=by_letter_upper)
        edges += fans
    return SWYGraph(d, n_max, vertices, edges)
