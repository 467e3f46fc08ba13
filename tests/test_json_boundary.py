"""The text/JSON boundary of the CLI: the one-pass state writer, its layout helpers and the reader.

``json.dumps(obj, indent=2)`` is the reference for every document the
commands write.  ``decode`` and ``check`` print it directly; the state and
graph writers lay their documents out from the helpers ``cli._list`` and
``cli._amplitude``, which are held to it here at several indents.
:func:`state_to_json_obj` is the object the state writer must spell, and the
decode fuzz feeds mutated ``encode`` documents back in.  The reader must name
each type fault as a term-by-term reader does and admit exact JSON types only.
"""

import copy
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from schurweyl import cli
from schurweyl.radicals import Radical, _new, radical_from_sqrt
from schurweyl.tableaux import InvariantViolation, gt_to_external, parse_word
from schurweyl.transform import encode, sorted_terms, state_from_json_obj, words


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
    assert cli._dumps_state(state, d, n) == reference(obj)


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


big = st.integers(min_value=2**498, max_value=2**500)
layout_ints = st.integers() | st.integers(min_value=-(2**70), max_value=2**70) | big
numerators = st.integers(min_value=-9, max_value=9) | big | big.map(lambda v: -v)
denominators = st.integers(min_value=1, max_value=9) | big
# zero, one term, or up to six terms of mixed signs; coefficients up to 500 bits
layout_radicals = st.dictionaries(
    st.integers(min_value=1, max_value=300), st.builds(Fraction, numerators, denominators),
    max_size=6,
).map(Radical)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(layout_ints, max_size=5), max_size=4),
    layout_radicals,
    st.integers(min_value=0, max_value=10).map(lambda k: "\n" + " " * k),
)
def test_layout_helpers_match_reference(rows, amp, newline):
    # each helper spells what json.dumps(indent=2) does for a value that starts
    # on a line indented as newline is
    def expected(value):
        return reference(value).replace("\n", newline)

    for row in rows:
        assert cli._list([*map(str, row)], newline) == expected(row)
    texts = [cli._list([*map(str, row)], newline + "  ") for row in rows]
    assert cli._list(texts, newline) == expected(rows)
    assert cli._amplitude(amp, newline) == expected(amp.to_json_obj())


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


# ---------------------------------------------------------------------------
# the reader: each JSON type checked, each fault named as one term at a time names it

READER_BASE = json.loads(cli._dumps_state(encode((1, 2, 3, 1), 3), 3, 4))
DELETED = object()


def field_holder(doc, field):
    """The dict that holds ``field`` in the third term of ``doc``."""
    term = doc["terms"][2]
    if field == "terms":
        return term["amplitude"]
    if field in ("radicand", "num", "den"):
        return term["amplitude"]["terms"][0]
    return term


def read_fault(doc) -> str:
    with pytest.raises(InvariantViolation) as fault:
        state_from_json_obj(doc)
    return str(fault.value)


@pytest.mark.parametrize("value", [True, 1.0, "1", None, DELETED])
@pytest.mark.parametrize(
    "field", ["shape", "weyl_rows", "young_path", "amplitude", "terms", "radicand", "num", "den"]
)
def test_reader_names_each_type_fault(field, value):
    doc = copy.deepcopy(READER_BASE)
    holder = field_holder(doc, field)
    if value is DELETED:
        del holder[field]
    else:
        holder[field] = value
    document = "radical" if field in ("terms", "radicand", "num", "den") else "state"
    assert read_fault(doc) == f"invariant: {document} document (bad or missing field {field!r})"


def test_reader_drops_zero_amplitudes():
    # a term written as zero, or a term and its negation, leave no entry
    state = state_from_json_obj(READER_BASE)
    zero = copy.deepcopy(READER_BASE)
    zero["terms"][2]["amplitude"]["terms"] = []
    read = state_from_json_obj(zero)
    assert len(read) == len(state) - 1 and all(read.values())
    assert read == {t: amp for t, amp in state.items() if t in read}
    negated = copy.deepcopy(READER_BASE["terms"][2])
    negated["amplitude"]["terms"][0]["num"] *= -1
    assert state_from_json_obj(dict(READER_BASE, terms=[*READER_BASE["terms"], negated])) == read


def first_one(value, path=()):
    """The path to the first int 1 below ``value``: dict keys and list indices."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        if type(child) is int and child == 1:
            return path + (key,)
        if isinstance(child, (dict, list)):
            found = first_one(child, path + (key,))
            if found:
                return found
    return None


@pytest.mark.parametrize(
    "field, document",
    [("weyl_rows", "state"), ("young_path", "state"), ("amplitude", "radical")],
)
def test_true_never_meets_the_memo_entry_of_one(field, document):
    # the second term repeats the first with one 1 written as true: every
    # memo is keyed by exact ints, so it is rejected, not read as the first
    doc = copy.deepcopy(READER_BASE)
    first = doc["terms"][0]
    second = copy.deepcopy(first)
    path = first_one(first[field])
    assert path, field
    holder = second[field]
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = True
    doc["terms"][1:1] = [second]
    assert state_from_json_obj(dict(doc, terms=[first, copy.deepcopy(first)]))
    name = path[-1] if document == "radical" else field
    assert read_fault(doc) == f"invariant: {document} document (bad or missing field {name!r})"


class ListSubclass(list):
    pass


class DictSubclass(dict):
    pass


@pytest.mark.parametrize(
    "where, name, document",
    [
        ((), "shape", "state"),
        (("shape",), "shape", "state"),
        (("weyl_rows",), "weyl_rows", "state"),
        (("weyl_rows", 0), "weyl_rows", "state"),
        (("young_path",), "young_path", "state"),
        (("young_path", 1), "young_path", "state"),
        (("amplitude",), "amplitude", "state"),
        (("amplitude", "terms"), "terms", "radical"),
        (("amplitude", "terms", 0), "radicand", "radical"),
    ],
)
def test_reader_rejects_list_and_dict_subclasses(where, name, document):
    # JSON yields exact dicts and lists only; a Python caller's subclass is
    # rejected like any other non-JSON value
    doc = copy.deepcopy(READER_BASE)
    parent, key = doc["terms"], 2
    for step in where:
        parent, key = parent[key], step
    value = parent[key]
    parent[key] = (DictSubclass if isinstance(value, dict) else ListSubclass)(value)
    assert read_fault(doc) == f"invariant: {document} document (bad or missing field {name!r})"
