"""The text/JSON boundary of the CLI: the indented writer and the state reader.

``json.dumps(obj, indent=2)`` is the reference for every document the
commands write; the decode fuzz feeds mutated ``encode`` documents back in.
"""

import copy
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from schurweyl import cli
from schurweyl.graph import build
from schurweyl.tableaux import parse_word
from schurweyl.transform import (
    computational_to_json_obj,
    decode,
    encode,
    state_to_json_obj,
)


def reference(obj) -> str:
    return json.dumps(obj, indent=2)


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "d, word",
    [(2, "0110"), (2, "00101"), (3, "1,2,3,1,2"), (3, "3,1,2,2")],
)
def test_state_documents_match_reference(d, word):
    state = encode(parse_word(word, d), d)
    n = len(parse_word(word, d))
    obj = state_to_json_obj(state, d, n)
    assert cli._dumps(obj) == reference(obj)
    computational = computational_to_json_obj(decode(state), d, n)
    assert cli._dumps(computational) == reference(computational)


@pytest.mark.parametrize("d, n", [(2, 6), (3, 4), (5, 3)])
def test_graph_documents_match_reference(d, n):
    obj = build(d, n).to_json_obj()
    assert cli._dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--d", "2", "0101", "--format", "json"],
        ["encode", "--d", "3", "1,2,3,1,2", "--format", "json"],
        ["graph", "--d", "3", "--n", "4", "--format", "json"],
        ["check", "--d", "2", "--n", "6", "--format", "json"],
        ["check", "--d", "3", "--n", "3", "--format", "json"],
    ],
)
def test_cli_stdout_matches_reference(capsys, monkeypatch, argv):
    code, out, _ = run(capsys, monkeypatch, argv)
    assert code == 0
    assert out == reference(json.loads(out)) + "\n"
    if argv[0] == "encode":
        code, decoded, _ = run(capsys, monkeypatch, ["decode", "-", "--format", "json"], out)
        assert code == 0
        assert decoded == reference(json.loads(decoded)) + "\n"


def test_writer_edge_values():
    obj = {
        "empty": [{}, [], ""],
        "ints": [0, -1, 2**70, -(2**70)],
        "floats": [-0.0, 1e-07, 1e16, 0.1, -2.5, math.inf, -math.inf, math.nan],
        "text": 'quote " backslash \\ tab \t nul \x00 é é 中 \U0001f600',
        "flags": [True, False, None],
        "nested": [[[1, 2], []], {"a": {"b": [True, 1]}}],
    }
    assert cli._dumps(obj) == reference(obj)
    assert cli._dumps([]) == "[]" and cli._dumps({}) == "{}"


@pytest.mark.parametrize(
    "value",
    [(1, 2), {1: "int key"}, {1.5}, b"bytes", 1 + 2j, [object()]],
    ids=["tuple", "int-key", "set", "bytes", "complex", "object"],
)
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.sampled_from([-0.0, 1e-07, 1e16, 1e22, 5e-324])
    | st.text()
    | st.text(alphabet='"\\\n\t\x00\x1f\x7fé \U0001f600ab')
)
json_documents = st.recursive(
    json_leaves,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=100, deadline=None)
@given(json_documents)
def test_writer_matches_reference(obj):
    assert cli._dumps(obj) == reference(obj)


# ---------------------------------------------------------------------------
# decode fuzz: every mutated document ends in exit 0 or 2, never a traceback

FUZZ_BASES = [
    state_to_json_obj(encode(parse_word("0110", 2), 2), 2, 4),
    state_to_json_obj(encode(parse_word("1,2,3", 3), 3), 3, 3),
]


def value_paths(node, prefix=()):
    """Paths to every value below ``node``: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from value_paths(child, prefix + (key,))


def replacements(value):
    """What a field may turn into: other JSON types, and nearby integers."""
    out = [None, "x", str(value), True, False, 1.5, [], [value], {}]
    if isinstance(value, int) and not isinstance(value, bool):
        out += [value + delta for delta in (-2, -1, 1, 2)] + [0, -value, float(value)]
    return out


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(value_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(replacements(parent[path[-1]])))
    return doc


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutated_documents(), st.sampled_from(["text", "json"]))
def test_decode_fuzz_exits_cleanly(capsys, monkeypatch, doc, fmt):
    code, out, err = run(
        capsys, monkeypatch, ["decode", "-", "--format", fmt], json.dumps(doc)
    )
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err
