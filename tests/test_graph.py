import hashlib
import json
import re

import pytest

from schurweyl import cli
from schurweyl.branching import SchurWeylTriplet, up
from schurweyl.graph import SWYGraph, build
from schurweyl.radicals import ONE, ZERO, Radical, radical_from_json_triples, radical_from_sqrt
from schurweyl.tableaux import (
    InvariantViolation,
    check_alphabet,
    enumerate_gt,
    enumerate_paths,
    gt_to_weyl,
    partitions,
    shape_to_text,
)
from schurweyl.transform import encode


def graph_json(g) -> str:
    """The whole graph document, as the CLI writes it in chunks."""
    return "".join(cli._graph_chunks(g))


def up_edges(g, v, k=None):
    """Edges leaving vertex ``v``, optionally only those adding letter ``k``."""
    g.vertex(v)
    return [e for e in g.edges if e.lower == v and (k is None or e.added_entry == k)]


def down_edges(g, v, k=None):
    """Edges entering vertex ``v``, optionally only those adding letter ``k``."""
    g.vertex(v)
    return [e for e in g.edges if e.upper == v and (k is None or e.added_entry == k)]


def test_build_small_levels():
    g = build(2, 1)
    assert [v.shape for v in g.level_vertices(0)] == [()]
    level1 = g.level_vertices(1)
    assert [gt_to_weyl(v.pattern) for v in level1] == [((1,),), ((2,),)]
    assert len(g.edges) == 2
    assert g.level_census(0) == {(): 1}


def test_level_census_golden():
    g = build(2, 3)
    assert g.level_census(2) == {(2,): 3, (1, 1): 1}
    assert g.level_census(3) == {(3,): 4, (2, 1): 2}
    assert len(g.vertices) == 1 + 2 + 4 + 6
    g3 = build(3, 2)
    assert g3.level_census(2) == {(2,): 6, (1, 1): 3}


def test_vertex_ids_dense_and_canonical():
    g = build(3, 3)
    assert [v.id for v in g.vertices] == list(range(len(g.vertices)))
    ordered = sorted(
        g.vertices,
        key=lambda v: (
            v.level,
            tuple(-part for part in v.shape),
            tuple(-x for x in v.pattern.key()),
        ),
    )
    assert list(g.vertices) == ordered


def test_golden_edge_amplitude():
    g = build(2, 2)
    [zero] = [v for v in g.level_vertices(1) if gt_to_weyl(v.pattern) == ((1,),)]
    [row2] = [
        v for v in g.level_vertices(2) if gt_to_weyl(v.pattern) == ((1, 2),)
    ]
    [edge] = [
        e for e in up_edges(g, zero.id) if e.upper == row2.id
    ]
    assert edge.amplitude == radical_from_sqrt(1, 1, 2)
    assert edge.added_entry == 2


def test_up_edges_examples():
    g = build(2, 2)
    [zero] = [v for v in g.level_vertices(1) if gt_to_weyl(v.pattern) == ((1,),)]
    up = up_edges(g, zero.id, k=2)
    assert len(up) == 2
    shapes = {g.vertex(e.upper).shape for e in up}
    assert shapes == {(2,), (1, 1)}
    assert all(e.amplitude == radical_from_sqrt(1, 1, 2) for e in up)
    assert down_edges(g, 0) == []
    with pytest.raises(ValueError, match="unknown vertex"):
        up_edges(g, 99)


def test_down_edges_golden():
    g = build(2, 3)
    [v] = [
        v
        for v in g.level_vertices(3)
        if gt_to_weyl(v.pattern) == ((1, 2), (2,))
    ]
    down = down_edges(g, v.id)
    # three parents: both shape-(2) tableaux plus the (1,1) column
    by_parent = {gt_to_weyl(g.vertex(e.lower).pattern): e for e in down}
    assert len(down) == len(by_parent) == 3
    assert by_parent[((2, 2),)].amplitude == radical_from_sqrt(-1, 2, 3)
    assert by_parent[((2, 2),)].added_entry == 1
    assert by_parent[((1, 2),)].amplitude == radical_from_sqrt(1, 1, 3)
    assert by_parent[((1, 2),)].added_entry == 2
    assert by_parent[((1,), (2,))].amplitude == ONE
    assert by_parent[((1,), (2,))].added_entry == 2
    assert down_edges(g, v.id, k=1) == [by_parent[((2, 2),)]]


def test_no_parallel_edges_between_tableaux():
    for d, n in [(2, 4), (3, 3)]:
        g = build(d, n)
        pairs = [(e.lower, e.upper) for e in g.edges]
        assert len(pairs) == len(set(pairs))


def test_normalization_per_vertex_letter():
    for d, n in [(2, 5), (3, 4)]:
        g = build(d, n)
        for v in g.vertices:
            if v.level == n:
                continue
            for k in range(1, d + 1):
                edges = up_edges(g, v.id, k)
                assert edges, (v, k)
                total = ZERO
                for e in edges:
                    assert not e.amplitude.is_zero()
                    total = total + e.amplitude.square()
                assert total == ONE


def test_branch_up_term_count_matches_up_edges():
    g = build(2, 3)
    for v in g.vertices:
        if v.level == g.n_max:
            continue
        for path in enumerate_paths(v.shape):
            t = SchurWeylTriplet(v.pattern, path)
            for k in (1, 2):
                assert len(up({t: ONE}, k)) == len(up_edges(g, v.id, k))


def test_json_round_trip():
    for d, n in [(2, 3), (3, 2)]:
        g = build(d, n)
        dumped = json.dumps(g.to_json_obj())
        assert json.loads(dumped) == build(d, n).to_json_obj()
    obj = build(2, 2).to_json_obj()
    assert obj["vertices"][0] == {
        "id": 0,
        "level": 0,
        "shape": [],
        "tableau_rows": [],
    }
    # external alphabet in dumps: entries are 0/1 for d=2
    entries = {x for v in obj["vertices"] for row in v["tableau_rows"] for x in row}
    assert entries == {0, 1}
    assert {e["k"] for e in obj["edges"]} == {0, 1}


def test_alphabet_bound_on_graphs():
    for d in (0, 65):
        with pytest.raises(InvariantViolation, match="alphabet size"):
            build(d, 1)


@pytest.mark.parametrize("value", [True, 2.0, "2"], ids=["bool", "float", "str"])
def test_sizes_must_be_exact_ints(value):
    # True compares as 1 and 2.0 as 2, and a str fails only later, so d and
    # n_max must be exactly ints, as the GT entries are
    with pytest.raises(InvariantViolation, match="alphabet size"):
        check_alphabet(value)
    with pytest.raises(InvariantViolation, match="alphabet size"):
        build(value, 2)
    with pytest.raises(InvariantViolation, match="alphabet size"):
        encode((1, 1), value)
    with pytest.raises(InvariantViolation, match="alphabet size"):
        enumerate_gt((1,), value)
    with pytest.raises(ValueError, match="n_max must be a nonnegative int"):
        build(2, value)


def test_dot_output():
    g = build(2, 1)
    dot = g.to_dot()
    assert dot.count("[label=") - dot.count("->") == 3  # node statements
    assert dot.count("->") == 2
    assert build(2, 1).to_dot() == dot  # byte-deterministic
    bigger = build(2, 3).to_dot()
    assert bigger.count("v") >= 13
    # light well-formedness: brace balance and statement shapes
    assert bigger.startswith("digraph swy {")
    assert bigger.rstrip().endswith("}")
    assert bigger.count("{") == bigger.count("}")
    for line in bigger.splitlines():
        line = line.strip()
        assert (
            line in {"digraph swy {", "}", "rankdir=BT;"}
            or re.fullmatch(r'node \[shape=box, fontname="monospace"\];', line)
            or re.fullmatch(r"subgraph cluster_\d+_\d+ \{", line)
            or re.fullmatch(r'label="[^"]*";', line)
            or re.fullmatch(r'v\d+ \[label="[^"]*"\];', line)
            or re.fullmatch(r'v\d+ -> v\d+ \[label="[^"]*"\];', line)
        ), line


def test_fig5_structure():
    g = build(2, 3)
    frames = [sorted(g.level_census(level)) for level in range(4)]
    assert frames == [
        [()],
        [(1,)],
        [(1, 1), (2,)],
        [(2, 1), (3,)],
    ]


@pytest.mark.parametrize(
    "d, n, json_sha256, dot_sha256",
    [
        pytest.param(
            3, 6,
            "df7f48f352bc9d73d016458ef713f990b5f924b256f646424b5aa92df8d72cf0",
            "cbc1415f0944fcabff991331b56d0c021a12cd2316bdf789b7cc6ef1a27094a5",
            id="d3-n6",
        ),
        pytest.param(
            4, 5,
            "8b551440e3c1957b4d658989cace354543af443844d9f0f15a2424eab0be6763",
            "36592653ffc8c449f8d1d556f01435976064809d717fc4924417da550378fc6d",
            id="d4-n5",
        ),
        pytest.param(
            5, 4,
            "de0b29e31a19c84c49b234f20e0ee6e949ed15053f81648e7ffd55430111e0d2",
            "f8f612994b6c4c09c022409209dbf83f59e393ecb8a1fe137b1dec727cc41daa",
            id="d5-n4",
        ),
    ],
)
def test_graph_bytes_golden(d, n, json_sha256, dot_sha256):
    # d >= 3 has no second amplitude rule (the entry-reading rule is
    # d=2 only) to cross-check Louck's formula, so the serialized graph
    # is pinned byte for byte
    g = build(d, n)
    text = json.dumps(g.to_json_obj(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == json_sha256
    assert hashlib.sha256(g.to_dot().encode()).hexdigest() == dot_sha256


def test_dot_clusters_are_each_levels_partitions():
    # to_dot reads its clusters off build's vertex order, one per run of a
    # level and shape: they must be partitions(level, d), numbered per level
    for d in range(1, 6):
        for n in range(7):
            headers = re.findall(
                r'^  subgraph cluster_(\d+)_(\d+) \{\n    label="n=(\d+) (\([\d,]*\))";$',
                build(d, n).to_dot(),
                re.MULTILINE,
            )
            assert headers == [
                (str(level), str(f), str(level), shape_to_text(shape))
                for level in range(n + 1)
                for f, shape in enumerate(partitions(level, d))
            ], (d, n)


@pytest.mark.parametrize("d, n", [(2, 6), (3, 4)])
def test_graph_writers_make_no_row_grid(monkeypatch, d, n):
    # the JSON and DOT writers write each distinct row once per call, from the
    # GT entries (m_{i,i}, ..., m_{i,d}) that fix it, after i - 1 Nones, and
    # make no vertex's row grid
    import schurweyl.graph as graph_module
    import schurweyl.tableaux as tableaux_module

    g = build(d, n)
    expected_json, expected_dot = graph_json(g), g.to_dot()
    keys = {
        (None,) * (i - 1) + tuple(v.pattern.m(i, j) for j in range(i, d + 1))
        for v in g.vertices
        for i in range(1, len(v.shape) + 1)
    }

    def forbidden(pattern):
        raise AssertionError("a graph writer made a row grid")

    for module in (tableaux_module, graph_module, cli):
        for name in ("gt_to_weyl", "gt_to_external"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for write in (graph_json, SWYGraph.to_dot):
        written = []

        def counting(entries, original=tableaux_module.weyl_row):
            written.append(entries)
            return original(entries)

        for module in (graph_module, cli):
            monkeypatch.setattr(module, "weyl_row", counting)
        assert write(g) == (expected_json if write is graph_json else expected_dot)
        assert len(written) == len(set(written)) and set(written) == keys, write.__name__
    monkeypatch.undo()
    # the reference document converts each vertex itself, and its rows are its
    # own: editing them leaves the graph's output as it was
    obj = g.to_json_obj()
    rows = obj["vertices"][-1]["tableau_rows"]
    rows[0][0] = 99
    assert g.to_dot() == expected_dot
    assert g.to_json_obj()["vertices"][-1]["tableau_rows"] != rows
    assert graph_json(g) == expected_json == json.dumps(g.to_json_obj(), indent=2)


@pytest.mark.parametrize(
    "d, n",
    [(1, 6), (2, 7), (3, 4), (4, 3), (5, 3), (1, 0), (2, 0), (3, 0), (2, 16), (3, 6)],
)
def test_graph_writer_matches_json_dumps(d, n):
    # the writer's chunks join to the document's text, each holding at most
    # GRAPH_CHUNK vertices or edges; (2,16) and (3,6) span several
    g = build(d, n)
    chunks = list(cli._graph_chunks(g))
    text = "".join(chunks)
    assert text == graph_json(g) == json.dumps(g.to_json_obj(), indent=2)
    # every vertex and edge opens with "{" on a line of its own at indent 4
    entries = [chunk.count("\n    {") for chunk in chunks]
    size = cli.GRAPH_CHUNK
    assert sum(entries) == len(g.vertices) + len(g.edges)
    assert max(entries) <= size
    filled = [count for count in entries if count]
    assert len(filled) == -(-len(g.vertices) // size) - (-len(g.edges) // size)
    assert (len(filled) > 2) == ((d, n) in ((2, 16), (3, 6)))
    if n == 0:
        assert text.endswith('"edges": []\n}')
    elif d == 2:
        # the external alphabet {0, 1}, as in to_json_obj
        assert {e["k"] for e in json.loads(text)["edges"]} == {0, 1}


def equal_amplitudes_in_two_term_orders() -> SWYGraph:
    """The (2,2) graph with one three-term sum on every edge, its terms stored in two orders."""
    terms = ((2, 1, 10), (3, 1, 5), (5, -3, 10))
    g = build(2, 2)
    edges = [
        e._replace(amplitude=radical_from_json_triples(terms[i % 2 :] + terms[: i % 2]))
        for i, e in enumerate(g.edges)
    ]
    return SWYGraph(g.d, g.n_max, g.vertices, edges)


def test_graph_writer_keeps_term_order_of_equal_amplitudes():
    # approx sums the terms in stored order: two equal amplitudes read in two
    # orders may print different floats, so the writer may not share their text
    g = equal_amplitudes_in_two_term_orders()
    first, second = (e.amplitude for e in g.edges[:2])
    assert first == second and first.to_float() != second.to_float()
    assert graph_json(g) == json.dumps(g.to_json_obj(), indent=2)


def test_dot_keeps_text_of_equal_amplitudes_in_either_term_order():
    # to_dot keys its texts by object; to_string sorts the terms, so both
    # stored orders of one sum must still print the same text
    g = equal_amplitudes_in_two_term_orders()
    first, second = g.edges[:2]
    assert list(first.amplitude._terms) != list(second.amplitude._terms)
    dot = g.to_dot()
    labels = re.findall(r'-> v\d+ \[label="\d: ([^"]*)"\];', dot)
    assert len(labels) == len(g.edges)
    assert set(labels) == {"1/10*sqrt(2)+1/5*sqrt(3)-3/10*sqrt(5)"}
    assert hashlib.sha256(dot.encode()).hexdigest() == (
        "b0c897f3c35605d72f521198993f80d81a9ce938d6925ba133705c7f4725b3c2"
    )


@pytest.mark.parametrize("d, n", [(2, 12), (3, 6), (4, 4), (5, 4)])
def test_equal_edge_amplitudes_are_one_object(d, n):
    # the writers key amplitude texts by object, so each distinct value of a
    # built graph is formatted once only if it is one object
    g = build(d, n)
    assert len({id(e.amplitude) for e in g.edges}) == len({e.amplitude for e in g.edges})


def test_serializers_format_each_amplitude_once(monkeypatch):
    g = build(3, 5)
    distinct = {e.amplitude for e in g.edges}
    # the JSON writer reads each amplitude's terms through int_items, once per text
    for method, write in (("int_items", graph_json), ("to_string", SWYGraph.to_dot)):
        calls = []
        original = getattr(Radical, method)

        def counting(self, original=original, calls=calls):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Radical, method, counting)
        write(g)
        assert len(calls) == len(distinct) < len(g.edges), method
        assert set(calls) == distinct, method
