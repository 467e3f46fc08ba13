"""The Schur-Weyl-Young multigraph.

Level ``i`` holds every standard Weyl tableau of every partition of
``i`` with at most ``d`` rows; an edge joins a tableau to each tableau
one level up reachable by a single-letter transition, labeled by the
added letter and the exact amplitude.  Vertex ids are dense integers
assigned in canonical order (level, then partition, then tableau), so
DOT and JSON dumps are byte-stable for fixed ``(d, n_max)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from schurweyl.amplitudes import louck_amplitude, up_transitions
from schurweyl.radicals import Radical
from schurweyl.tableaux import (
    GTPattern,
    InvariantViolation,
    Partition,
    WeylTableau,
    check_partition,
    enumerate_gt,
    gt_from_external,
    gt_to_weyl_unchecked,
    json_field,
    json_rows,
    letter_from_json,
    letter_offset,
    partitions,
    render_tableau_rows,
    shape_to_text,
)


@dataclass(frozen=True)
class SWYVertex:
    id: int
    level: int
    shape: Partition
    pattern: GTPattern

    @property
    def tableau(self) -> WeylTableau:
        """Row view of the vertex's Weyl tableau, for rendering and serialization."""
        return gt_to_weyl_unchecked(self.pattern)


@dataclass(frozen=True)
class SWYEdge:
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
        self._up: dict[int, list[SWYEdge]] = {v.id: [] for v in self.vertices}
        self._down: dict[int, list[SWYEdge]] = {v.id: [] for v in self.vertices}
        for edge in self.edges:
            self._up[edge.lower].append(edge)
            self._down[edge.upper].append(edge)

    def vertex(self, v: int) -> SWYVertex:
        if not 0 <= v < len(self.vertices):
            raise ValueError(f"unknown vertex {v}")
        return self.vertices[v]

    def up_edges(self, v: int, k: int | None = None) -> list[SWYEdge]:
        self.vertex(v)
        edges = self._up[v]
        if k is None:
            return list(edges)
        return [e for e in edges if e.added_entry == k]

    def down_edges(self, v: int, k: int | None = None) -> list[SWYEdge]:
        self.vertex(v)
        edges = self._down[v]
        if k is None:
            return list(edges)
        return [e for e in edges if e.added_entry == k]

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
        return {
            "d": self.d,
            "n_max": self.n_max,
            "vertices": [
                {
                    "id": v.id,
                    "level": v.level,
                    "shape": list(v.shape),
                    "tableau_rows": [[x - shift for x in row] for row in v.tableau.rows],
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

        Ids must be dense and in order, each vertex's shape and level
        must match its tableau, and every edge must join existing
        vertices one level apart with a letter in the alphabet.
        """
        d, n_max = (json_field(obj, key, int, "graph") for key in ("d", "n_max"))
        if d < 1 or n_max < 0:
            raise InvariantViolation("graph document", f"bad d={d} or n_max={n_max}")
        vertices: list[SWYVertex] = []
        for entry in json_field(obj, "vertices", list, "graph"):
            vid, level = (json_field(entry, key, int, "graph") for key in ("id", "level"))
            if vid != len(vertices):
                raise InvariantViolation("dense vertex ids", f"id {vid} at {len(vertices)}")
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
        clusters: dict[tuple[int, Partition], list[SWYVertex]] = {}
        for v in self.vertices:
            clusters.setdefault((v.level, v.shape), []).append(v)
        for level in range(self.n_max + 1):
            for f, shape in enumerate(partitions(level, self.d)):
                members = clusters.get((level, shape), [])
                lines.append(f"  subgraph cluster_{level}_{f} {{")
                lines.append(f'    label="n={level} {shape_to_text(shape)}";')
                for v in members:
                    label = "\\n".join(render_tableau_rows(v.tableau.rows, self.d))
                    lines.append(f'    v{v.id} [label="{label}"];')
                lines.append("  }")
        for e in self.edges:
            label = f"{e.added_entry - shift}: {e.amplitude.to_string()}"
            lines.append(f'  v{e.lower} -> v{e.upper} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build(d: int, n_max: int) -> SWYGraph:
    """All vertices up to level ``n_max`` with amplitude-labeled edges."""
    if d < 1:
        raise ValueError(f"alphabet size must be positive, got {d}")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    vertices: list[SWYVertex] = []
    ids: dict[tuple[int, GTPattern], int] = {}
    for level in range(n_max + 1):
        for shape in partitions(level, d):
            for pattern in enumerate_gt(shape, d):
                vid = len(vertices)
                vertices.append(SWYVertex(vid, level, shape, pattern))
                ids[(level, pattern)] = vid
    edges: list[SWYEdge] = []
    for v in vertices:
        if v.level == n_max:
            continue
        lower = v.pattern
        for k in range(1, d + 1):
            fan = [
                (ids[(v.level + 1, upper)], upper)
                for upper in up_transitions(lower, k)
            ]
            fan.sort()
            for vid, upper in fan:
                edges.append(SWYEdge(v.id, vid, k, louck_amplitude(lower, upper)))
    return SWYGraph(d, n_max, vertices, edges)
