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

Every step runs on :class:`Engine`, which numbers growth paths for the
length of one call and keys each term by its pattern itself; triplets
are made from the labels only where a call returns.
"""

from __future__ import annotations

from typing import NamedTuple

from schurweyl.amplitudes import down_transitions, up_transitions
from schurweyl.radicals import ONE, Radical, add_product, nonzero_radicals
from schurweyl.tableaux import (
    GrowthPath,
    GTPattern,
    InvariantViolation,
    Partition,
    validate_gt,
    validate_path,
)

Word = tuple[int, ...]


class SchurWeylTriplet(NamedTuple):
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


class Engine:
    """The growth-path trie that the branching steps of one call share.

    A node stands for a growth path: node 0 is the path ``((),)`` and
    every other node extends its parent by one shape.  An up state is
    ``{(pattern, node): amplitude}``; a down state is
    ``{(pattern, node, word): amplitude}``, where the int ``word`` gains
    ``(k - 1) * scale`` when letter ``k`` is read off.  A pattern is a
    tuple, so it is its own key, and each step reads the cached fans of
    :func:`up_transitions` and :func:`down_transitions` directly.  The
    down fan depends on the parent node only through its shape.  A step
    adds each term's products into one term map per output key
    (:func:`~schurweyl.radicals.add_product`) and wraps the maps that did
    not cancel once, at its end.  Nodes mean nothing outside the engine,
    and an engine lives for one call.
    """

    def __init__(self):
        self.parents = [-1]
        self.shapes: list[Partition] = [()]
        self.children: dict[tuple[int, Partition], int] = {}
        self.nodes: dict[GrowthPath, int] = {}
        self.paths: dict[int, GrowthPath] = {}

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

    def start(self, d: int) -> dict[tuple[GTPattern, int], Radical]:
        """The up state of the empty word over ``{1..d}``."""
        return {(empty_triplet(d).pattern, 0): ONE}

    def labels(self, state: dict[SchurWeylTriplet, Radical]) -> dict:
        return {(t.pattern, self.node(t.young)): amp for t, amp in state.items()}

    def triplets(self, state: dict) -> dict[SchurWeylTriplet, Radical]:
        return {SchurWeylTriplet(p, self.path(node)): amp for (p, node), amp in state.items()}

    def up(self, state: dict, k: int) -> dict:
        """Append letter ``k`` to every term of an up state."""
        children = self.children
        sums: dict = {}
        for (pattern, node), amp in state.items():
            for upper, edge in up_transitions(pattern, k):
                shape = upper.shape
                child = children.get((node, shape))
                if child is None:
                    child = self.child(node, shape)
                add_product(sums.setdefault((upper, child), {}), amp, edge)
        return nonzero_radicals(sums)

    def down(self, state: dict, scale: int) -> dict:
        """Read the last letter off every term of a down state at level one or more."""
        parents, shapes = self.parents, self.shapes
        sums: dict = {}
        for (pattern, node, word), amp in state.items():
            parent = parents[node]
            for lower, k, edge in down_transitions(pattern, shapes[parent]):
                key = (lower, parent, word + (k - 1) * scale)
                add_product(sums.setdefault(key, {}), amp, edge)
        return nonzero_radicals(sums)


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
        index = words.setdefault(word, len(words))
        labels[(triplet.pattern, engine.node(triplet.young), index)] = amp
    # a word is its index among the input words plus (k - 1) times their count
    listed = list(words)
    scale = len(listed)
    return {
        (SchurWeylTriplet(p, engine.path(node)), (index // scale + 1, *listed[index % scale])): amp
        for (p, node, index), amp in engine.down(labels, scale).items()
    }
