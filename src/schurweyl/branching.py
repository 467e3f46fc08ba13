"""The branching rule on Schur-Weyl basis states.

A Schur-Weyl basis vector of level ``n`` is a triplet: a partition of
``n`` with at most ``d`` rows, a standard Weyl tableau of that shape
over ``{1..d}`` held as its GT pattern, and a standard Young tableau of
that shape held as its growth path, whose last step is the shape.
Appending one letter ``k`` maps a superposition of triplets to a
superposition one level up (:func:`branch_up_state`); reading the last
letter off maps it to a superposition one level down, each term paired
with the letter removed (:func:`branch_down_state`).  Both directions
preserve norm exactly.

A state is a plain ``{label: amplitude}`` dict that holds no zero
amplitude.  Triplets are validated where they enter the package
(:func:`validate_triplet`, the JSON readers), not on every step here.

Every step runs on :class:`Engine`, which labels patterns and growth
paths with small integers for the length of one call; triplets are made
from the labels only where a call returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from schurweyl.amplitudes import down_transitions, up_transitions
from schurweyl.radicals import ONE, Radical
from schurweyl.tableaux import (
    GrowthPath,
    GTPattern,
    InvariantViolation,
    Partition,
    validate_gt,
    validate_path,
)

Word = tuple[int, ...]


@dataclass(frozen=True)
class SchurWeylTriplet:
    """Basis label |shape, weyl, young> at level ``sum(shape)``.

    The Weyl tableau is held as its GT pattern and the Young tableau as
    its growth path, whose last step is the shape.
    """

    pattern: GTPattern
    young: GrowthPath

    @property
    def shape(self) -> Partition:
        return self.young[-1]

    @property
    def level(self) -> int:
        return len(self.young) - 1

    @property
    def d(self) -> int:
        return self.pattern.d

    def sort_key(self):
        return (self.shape, self.pattern.key(), self.young)


def validate_triplet(triplet: SchurWeylTriplet) -> SchurWeylTriplet:
    """Check a triplet built outside the package; the branching steps do not."""
    validate_gt(triplet.pattern)
    young = validate_path(triplet.young)
    if triplet.pattern.shape != young[-1]:
        raise InvariantViolation(
            "components share one shape", f"{triplet.pattern.shape} / {young[-1]}"
        )
    return triplet


def empty_triplet(d: int) -> SchurWeylTriplet:
    return SchurWeylTriplet(GTPattern(tuple((0,) * j for j in range(1, d + 1))), ((),))


def _merge(acc: dict, key, amp: Radical) -> None:
    # a new key stores the product as it is; a state holds no zero amplitude
    if key in acc:
        amp = acc[key] + amp
    if amp:
        acc[key] = amp
    else:
        acc.pop(key, None)


class Engine:
    """Integer labels and memoised fans for the branching steps of one call.

    A pattern id indexes ``patterns``.  A node stands for a growth path:
    node 0 is the path ``((),)`` and every other node extends its parent
    by one shape.  An up state is ``{(pattern id, node): amplitude}``; a
    down state is ``{(pattern id, node, word): amplitude}``, where the
    int ``word`` gains ``(k - 1) * scale`` when letter ``k`` is read off.

    Each fan is read from :func:`up_transitions` or
    :func:`down_transitions` once per ``(pattern id, k)`` or
    ``(pattern id, parent shape)`` and holds neighbour ids, so a step
    never hashes a pattern.  The down fan depends on the parent node
    only through its shape, and the terms of a down step seldom share a
    parent node, so the shape is the key that repeats.  The ids mean
    nothing outside the engine, and an engine lives for one call.
    """

    def __init__(self):
        self.patterns: list[GTPattern] = []
        self.pattern_ids: dict[GTPattern, int] = {}
        self.parents = [-1]
        self.shapes: list[Partition] = [()]
        self.children: dict[tuple[int, Partition], int] = {}
        self.nodes: dict[GrowthPath, int] = {}
        self.paths: dict[int, GrowthPath] = {}
        self.up_fans: dict[tuple[int, int], tuple] = {}
        self.down_fans: dict[tuple[int, Partition], tuple] = {}

    def pattern_id(self, pattern: GTPattern) -> int:
        pid = self.pattern_ids.get(pattern)
        if pid is None:
            pid = self.pattern_ids[pattern] = len(self.patterns)
            self.patterns.append(pattern)
        return pid

    def child(self, node: int, shape: Partition) -> int:
        key = (node, shape)
        child = self.children.get(key)
        if child is None:
            child = self.children[key] = len(self.parents)
            self.parents.append(node)
            self.shapes.append(shape)
        return child

    def node(self, young: GrowthPath) -> int:
        """The node of a growth path the package made or validated."""
        node = self.nodes.get(young)
        if node is None:
            node = 0
            for shape in young[1:]:
                node = self.child(node, shape)
            self.nodes[young] = node
        return node

    def path(self, node: int) -> GrowthPath:
        young = self.paths.get(node)
        if young is None:
            shapes = []
            at = node
            while at > 0:
                shapes.append(self.shapes[at])
                at = self.parents[at]
            shapes.append(())
            young = self.paths[node] = tuple(reversed(shapes))
        return young

    def start(self, d: int) -> dict[tuple[int, int], Radical]:
        """The up state of the empty word over ``{1..d}``."""
        return {(self.pattern_id(empty_triplet(d).pattern), 0): ONE}

    def label(self, triplet: SchurWeylTriplet) -> tuple[int, int]:
        return self.pattern_id(triplet.pattern), self.node(triplet.young)

    def triplet(self, pid: int, node: int) -> SchurWeylTriplet:
        return SchurWeylTriplet(self.patterns[pid], self.path(node))

    def labels(self, state: dict[SchurWeylTriplet, Radical]) -> dict[tuple[int, int], Radical]:
        return {self.label(triplet): amp for triplet, amp in state.items()}

    def triplets(self, state: dict[tuple[int, int], Radical]) -> dict[SchurWeylTriplet, Radical]:
        return {self.triplet(pid, node): amp for (pid, node), amp in state.items()}

    def _up_fan(self, pid: int, k: int) -> tuple:
        fan = self.up_fans[(pid, k)] = tuple(
            (self.pattern_id(upper), upper.shape, edge)
            for upper, edge in up_transitions(self.patterns[pid], k)
        )
        return fan

    def _down_fan(self, pid: int, shape: Partition) -> tuple:
        fan = self.down_fans[(pid, shape)] = tuple(
            (self.pattern_id(lower), k - 1, edge)
            for lower, k, edge in down_transitions(self.patterns[pid], shape)
        )
        return fan

    def up(self, state: dict, k: int) -> dict:
        """Append letter ``k`` to every term of an up state."""
        fans, children = self.up_fans, self.children
        out: dict = {}
        for (pid, node), amp in state.items():
            fan = fans.get((pid, k)) or self._up_fan(pid, k)
            for upper, shape, edge in fan:
                child = children.get((node, shape))
                if child is None:
                    child = self.child(node, shape)
                _merge(out, (upper, child), amp * edge)
        return out

    def down(self, state: dict, scale: int) -> dict:
        """Read the last letter off every term of a down state at level one or more."""
        fans, parents, shapes = self.down_fans, self.parents, self.shapes
        out: dict = {}
        for (pid, node, word), amp in state.items():
            parent = parents[node]
            shape = shapes[parent]
            fan = fans.get((pid, shape)) or self._down_fan(pid, shape)
            for lower, digit, edge in fan:
                _merge(out, (lower, parent, word + digit * scale), amp * edge)
        return out


def branch_up_state(
    state: dict[SchurWeylTriplet, Radical], k: int
) -> dict[SchurWeylTriplet, Radical]:
    """Append letter ``k`` to every term of ``{triplet: amplitude}``.

    Each valid insertion of ``k`` into a Weyl tableau grows its shape by
    one box within ``d`` rows; the Young tableau grows by the same box,
    and the term is weighted by the transition amplitude.
    """
    engine = Engine()
    return engine.triplets(engine.up(engine.labels(state), k))


def branch_down_state(
    state: dict[tuple[SchurWeylTriplet, Word], Radical]
) -> dict[tuple[SchurWeylTriplet, Word], Radical]:
    """Move the last letter of every term's triplet to the front of its word.

    The Young tableau forces the lower shape (drop the last growth
    step); each valid removal letter contributes one term.
    """
    engine = Engine()
    words: dict[Word, int] = {}
    labels = {}
    for (triplet, word), amp in state.items():
        if not triplet.level:
            raise InvariantViolation("nonempty register", f"{word}")
        labels[(*engine.label(triplet), words.setdefault(word, len(words)))] = amp
    # a word is its index among the input words plus (k - 1) times their count
    listed = list(words)
    scale = len(listed)
    return {
        (engine.triplet(pid, node), (index // scale + 1, *listed[index % scale])): amp
        for (pid, node, index), amp in engine.down(labels, scale).items()
    }
