"""The text/JSON boundary of the CLI: the indented writers and the state reader.

``json.dumps(obj, indent=2)`` is the reference for every document the
commands write, and :func:`state_to_json_obj` is the object the state
writer must spell; the decode fuzz feeds mutated ``encode`` documents back in.
"""

import copy
import io
import json
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from schurweyl import cli
from schurweyl.graph import build
from schurweyl.radicals import Radical, _new, radical_from_sqrt
from schurweyl.tableaux import gt_to_external, parse_word
from schurweyl.transform import (
    computational_to_json_obj,
    decode,
    encode,
    sorted_terms,
    words,
)


def reference(obj) -> str:
    return json.dumps(obj, indent=2)


def state_to_json_obj(state, d, n) -> dict:
    """The state document as plain JSON values: the oracle of ``cli._dumps_state``."""
    terms = []
    for triplet, amp in sorted_terms(state):
        terms.append(
            {
                "shape": list(triplet.shape),
                "weyl_rows": gt_to_external(triplet.pattern),
                "young_path": [list(shape) for shape in triplet.young],
                "amplitude": amp.to_json_obj(),
            }
        )
    return {"d": d, "n": n, "terms": terms}


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
    assert cli._dumps_state(state, d, n) == reference(obj)
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
# the state writer: each distinct fragment written once, the bytes of the oracle


@pytest.mark.parametrize("d, n", [(2, 7), (3, 5), (4, 4)])
def test_state_writer_every_word(d, n):
    for word in words(d, n):
        state = encode(word, d)
        assert cli._dumps_state(state, d, n) == reference(state_to_json_obj(state, d, n)), word


@pytest.mark.parametrize("d", [1, 2, 3])
def test_state_writer_empty_word(d):
    state = encode((), d)
    assert cli._dumps_state(state, d, 0) == reference(state_to_json_obj(state, d, 0))
    assert cli._dumps_state({}, d, 0) == reference({"d": d, "n": 0, "terms": []})


def reordered(amp: Radical, turn: int) -> Radical:
    """An equal amplitude whose terms are held in another order."""
    items = list(amp._terms.items())
    turn %= max(len(items), 1)
    return _new(dict(items[turn:] + items[:turn]))


def test_state_writer_keeps_term_order_of_equal_amplitudes():
    # to_float sums in term order: two equal amplitudes may print different
    # "approx" floats, so the writer may not share their text
    amp = radical_from_sqrt(1, 2, 100) + radical_from_sqrt(1, 3, 25) - radical_from_sqrt(1, 45, 100)
    other = reordered(amp, 1)
    assert other == amp and other.to_float() != amp.to_float()
    columns = encode((1, 2), 2)
    state = {t: (amp if i % 2 else other) for i, t in enumerate(columns)}
    expected = reference(state_to_json_obj(state, 2, 2))
    assert cli._dumps_state(state, 2, 2) == expected
    approx = {term["amplitude"]["approx"] for term in json.loads(expected)["terms"]}
    assert approx == {amp.to_float(), other.to_float()}


COEFFICIENTS = [
    radical_from_sqrt(1, 2, 100),
    radical_from_sqrt(1, 3, 25),
    radical_from_sqrt(-1, 45, 100),
    radical_from_sqrt(1, 1, 49),
    radical_from_sqrt(-1, 6, 9),
    radical_from_sqrt(1, 7, 4),
]


@st.composite
def column_sums(draw):
    """A sum of ``encode`` columns of one content, so terms gather several radicands."""
    d = draw(st.integers(min_value=2, max_value=3))
    content = draw(st.lists(st.integers(min_value=1, max_value=d), min_size=2, max_size=5))
    state: dict = {}
    for coefficient in draw(st.lists(st.sampled_from(COEFFICIENTS), min_size=3, max_size=4)):
        word = tuple(draw(st.permutations(content)))
        for triplet, amp in encode(word, d).items():
            state[triplet] = state.get(triplet, Radical()) + coefficient * amp
    return d, len(content), {t: amp for t, amp in state.items() if amp}


@settings(max_examples=60, deadline=None)
@given(column_sums(), st.integers(min_value=1, max_value=3))
def test_state_writer_matches_oracle_on_column_sums(drawn, turn):
    d, n, state = drawn
    assume(any(len(amp._terms) >= 3 for amp in state.values()))
    assert cli._dumps_state(state, d, n) == reference(state_to_json_obj(state, d, n))
    # every term map held in another order; then pairs of terms that share one
    # value, held in two orders, whose "approx" floats may differ
    items = list(state.items())
    turned = {t: reordered(amp, turn) for t, amp in items}
    paired = {t: reordered(items[i - i % 2][1], turn * (i % 2)) for i, (t, _) in enumerate(items)}
    for other in (turned, paired):
        assert cli._dumps_state(other, d, n) == reference(state_to_json_obj(other, d, n))


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
