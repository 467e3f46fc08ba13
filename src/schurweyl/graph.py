"""The Schur-Weyl-Young multigraph.

Level ``i`` holds every standard Weyl tableau of every partition of
``i`` with at most ``d`` rows; an edge joins a tableau to each tableau
one level up reachable by a single-letter transition, labeled by the
added letter and the exact amplitude.  Vertex ids are dense integers
assigned in canonical order (level, then partition, then tableau), so
DOT and JSON dumps are byte-stable for fixed ``(d, n_max)``.
"""

from __future__ import annotations

from typing import NamedTuple

from schurweyl.amplitudes import up_transitions
from schurweyl.radicals import Radical
from schurweyl.tableaux import (
    GTPattern,
    InvariantViolation,
    Partition,
    check_alphabet,
    check_partition,
    enumerate_gt,
    gt_from_external,
    gt_to_external,
    json_field,
    json_rows,
    letter_from_json,
    letter_offset,
    partitions,
    shape_to_text,
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
        self._rows = None

    def _weyl_rows(self) -> list[list[list[int]]]:
        # each vertex's external rows, made once for both serializers
        if self._rows is None:
            self._rows = [gt_to_external(v.pattern) for v in self.vertices]
        return self._rows

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

    def __eq__(self, other):
        if not isinstance(other, SWYGraph):
            return NotImplemented
        return (
            self.d == other.d
            and self.n_max == other.n_max
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def to_json_obj(self):
        shift = letter_offset(self.d)
        rows = self._weyl_rows()
        return {
            "d": self.d,
            "n_max": self.n_max,
            "vertices": [
                {
                    "id": v.id,
                    "level": v.level,
                    "shape": list(v.shape),
                    "tableau_rows": [row[:] for row in rows[v.id]],
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

    @classmethod
    def from_json_obj(cls, obj) -> "SWYGraph":
        """Parse and validate :meth:`to_json_obj` output.

        Ids must be dense and in order, no vertex may lie above ``n_max``,
        each vertex's shape and level must match its tableau, and every
        edge must join existing vertices one level apart with a letter in
        the alphabet.
        """
        d, n_max = (json_field(obj, key, int, "graph") for key in ("d", "n_max"))
        check_alphabet(d)
        if n_max < 0:
            raise InvariantViolation("graph document", f"bad n_max={n_max}")
        vertices: list[SWYVertex] = []
        for entry in json_field(obj, "vertices", list, "graph"):
            vid, level = (json_field(entry, key, int, "graph") for key in ("id", "level"))
            if vid != len(vertices):
                raise InvariantViolation("dense vertex ids", f"id {vid} at {len(vertices)}")
            if level > n_max:
                raise InvariantViolation(
                    "vertex level within n_max", f"vertex {vid}: level {level} > {n_max}"
                )
            shape = check_partition(json_field(entry, "shape", list, "graph", int))
            pattern = gt_from_external(json_rows(entry, "tableau_rows", "graph"), d)
            if shape != pattern.shape or level != sum(shape):
                raise InvariantViolation(
                    "vertex matches its tableau", f"vertex {vid}: {shape} at level {level}"
                )
            vertices.append(SWYVertex(vid, level, shape, pattern))
        edges = []
        for entry in json_field(obj, "edges", list, "graph"):
            lower, upper, k = (
                json_field(entry, key, int, "graph") for key in ("lower", "upper", "k")
            )
            if not (
                0 <= lower < len(vertices)
                and 0 <= upper < len(vertices)
                and vertices[upper].level == vertices[lower].level + 1
            ):
                raise InvariantViolation("edge joins adjacent levels", f"{lower} -> {upper}")
            amp = Radical.from_json_obj(json_field(entry, "amplitude", dict, "graph"))
            edges.append(SWYEdge(lower, upper, letter_from_json(k, d), amp))
        return cls(d, n_max, vertices, edges)

    def to_dot(self) -> str:
        lines = [
            "digraph swy {",
            "  rankdir=BT;",
            '  node [shape=box, fontname="monospace"];',
        ]
        shift = letter_offset(self.d)
        rows = self._weyl_rows()
        clusters: dict[tuple[int, Partition], list[int]] = {}
        for v in self.vertices:
            clusters.setdefault((v.level, v.shape), []).append(v.id)
        line_break = "\\n"  # a line break inside a DOT label
        row_texts: dict = {}  # each distinct row's text, made once per call
        for level in range(self.n_max + 1):
            for f, shape in enumerate(partitions(level, self.d)):
                lines.append(f"  subgraph cluster_{level}_{f} {{")
                lines.append(f'    label="n={level} {shape_to_text(shape)}";')
                for vid in clusters.get((level, shape), ()):
                    label = line_break.join([
                        row_texts.get(row) or row_texts.setdefault(row, " ".join(map(str, row)))
                        for row in map(tuple, rows[vid])
                    ])
                    # only the empty tableau has no rows; its label is ()
                    lines.append(f'    v{vid} [label="{label or "()"}"];')
                lines.append("  }")
        # each amplitude object's text, made once per call; equal amplitudes
        # from the fans are one object
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
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    vertices: list[SWYVertex] = []
    # ids[level] maps each pattern there to its vertex id
    ids: list[dict[GTPattern, int]] = []
    for level in range(n_max + 1):
        level_ids: dict[GTPattern, int] = {}
        for shape in partitions(level, d):
            for pattern in enumerate_gt(shape, d):
                vid = level_ids[pattern] = len(vertices)
                vertices.append(SWYVertex(vid, level, shape, pattern))
        ids.append(level_ids)
    edges: list[SWYEdge] = []
    for v in vertices:
        if v.level == n_max:
            break
        uppers = ids[v.level + 1]
        for k in range(1, d + 1):
            fan = [(uppers[upper], amp) for upper, amp in up_transitions(v.pattern, k)]
            fan.sort()  # ids are distinct within a fan, so no two amplitudes are compared
            edges += [SWYEdge(v.id, vid, k, amp) for vid, amp in fan]
    return SWYGraph(d, n_max, vertices, edges)
