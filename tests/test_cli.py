import copy
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from schurweyl import cli
from schurweyl.branching import SchurWeylTriplet
from schurweyl.graph import SWYGraph, build
from schurweyl.radicals import ONE, ZERO, Radical, radical_from_sqrt
from schurweyl.tableaux import parse_word, weyl_to_gt
from schurweyl.transform import encode, schur_matrix, state_from_json_obj

from oracles import syt_to_path

GOLDEN_0101 = """\
1/6*sqrt(6)  ~0.4082482905  (4)  weyl [0 0 1 1]  young [1 2 3 4]
1/6*sqrt(6)  ~0.4082482905  (3,1)  weyl [0 0 1; 1]  young [1 2 3; 4]
-1/6*sqrt(3)  ~-0.2886751346  (3,1)  weyl [0 0 1; 1]  young [1 2 4; 3]
1/2  ~0.5  (3,1)  weyl [0 0 1; 1]  young [1 3 4; 2]
-1/6*sqrt(3)  ~-0.2886751346  (2,2)  weyl [0 0; 1 1]  young [1 2; 3 4]
1/2  ~0.5  (2,2)  weyl [0 0; 1 1]  young [1 3; 2 4]
"""


def state_document(state, d, n) -> dict:
    return json.loads(cli._dumps_state(state, d, n))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_golden_text(capsys):
    code, out, err = run(capsys, "encode", "--d", "2", "0101")
    assert code == 0
    assert out == GOLDEN_0101
    assert err == ""
    again = run(capsys, "encode", "--d", "2", "0101")
    assert again == (code, out, err)


def test_encode_single_letter(capsys):
    code, out, _ = run(capsys, "encode", "--d", "2", "0")
    assert code == 0
    assert out == "1  ~1  (1)  weyl [0]  young [1]\n"


def test_encode_d3_term_count(capsys):
    code, out, _ = run(capsys, "encode", "--d", "3", "1,2,3")
    assert code == 0
    assert len(out.splitlines()) == len(encode(parse_word("1,2,3", 3), 3))


def test_encode_json_round_trip(capsys):
    code, out, _ = run(capsys, "encode", "--d", "2", "0101", "--format", "json")
    assert code == 0
    assert state_from_json_obj(json.loads(out)) == encode(parse_word("0101", 2), 2)


def test_encode_decode_json_bytes_golden(tmp_path, capsys):
    # sha256 of stdout: pins the canonical order of the state's terms
    # and of the decoded words, not only their values
    code, out, _ = run(capsys, "encode", "--d", "3", "1,2,3,1,2", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6ed955d64c28cb362511b462ed6df19f187df2fc3786adfdbaf1127627e9e3d6"
    )
    state_file = tmp_path / "state.json"
    state_file.write_text(out)
    code, out, _ = run(capsys, "decode", str(state_file), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2214b13af0cd55c6025cfea2d79da52e5c4fed5e040dc2e07bd96011a5b685c7"
    )


def sha256_of_stdout(capsys, *argv) -> str:
    code, out, _ = run(capsys, *argv)
    assert code == 0, argv
    return hashlib.sha256(out.encode()).hexdigest()


def test_more_stdout_bytes_golden(tmp_path, capsys):
    # d = 4 text and JSON, the d = 3 text forms, and the check report:
    # outputs no other golden pins byte for byte
    d4_state = tmp_path / "d4.json"
    code, out, _ = run(capsys, "encode", "--d", "4", "4,1,3,2,2,1", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bd925a38f16b81b322ad3344ef12e9dcfebf585cdc55387e92fe13d4ff6f6950"
    )
    d4_state.write_text(out)
    assert sha256_of_stdout(capsys, "decode", str(d4_state), "--format", "json") == (
        "ecd407ff508c376de9ce7b3b9e9aae1f015c6741075ae399963d5a4f935c3f91"
    )
    assert sha256_of_stdout(capsys, "encode", "--d", "3", "1,2,3,1,2,2") == (
        "5a2412d0173f57b5d6484960de846314d915e6d134ec5c0cf1993a61339d1c19"
    )
    d3_state = tmp_path / "d3.json"
    code, out, _ = run(capsys, "encode", "--d", "3", "1,2,3,1,2", "--format", "json")
    assert code == 0
    d3_state.write_text(out)
    assert sha256_of_stdout(capsys, "decode", str(d3_state)) == (
        "ad553db83bae520ae2313e29b162bf1338d2228b8388d7a4a75d040af5af37f6"
    )
    assert sha256_of_stdout(capsys, "check", "--d", "3", "--n", "4", "--format", "json") == (
        "eb229b8b56488bdb4d08bae695d3073130dd9b6803a027f41566d28a16da815d"
    )
    # a (3,8) word with 543 terms, one of the largest states at that size:
    # every term's rows, path and amplitude as the state writer spells them
    wide_state = tmp_path / "wide.json"
    code, out, _ = run(capsys, "encode", "--d", "3", "3,2,1,3,1,3,2,1", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "07bf2572f59661cf80b2259c32c18fd0f9831e33260b12f26cc5cd4616d50aaa"
    )
    wide_state.write_text(out)
    assert sha256_of_stdout(capsys, "decode", str(wide_state), "--format", "json") == (
        "c7bd8592955341657b2be5be4bc8e077b5c3cf5f3e1abc3f9d64f13efece2641"
    )


def test_multi_word_decode_bytes_golden(tmp_path, capsys):
    # three (3,4) columns of one content, each weighted by a sum of radicals:
    # the state's terms gather up to seven radicands, and the decoded
    # document holds three words whose amplitudes have two or three terms
    weights = {
        (1, 2, 3, 1): radical_from_sqrt(1, 1, 2) + radical_from_sqrt(-1, 1, 3),
        (2, 1, 3, 1): radical_from_sqrt(-1, 1, 5)
        + radical_from_sqrt(1, 2, 7)
        + radical_from_sqrt(1, 1, 9),
        (3, 1, 1, 2): radical_from_sqrt(1, 3, 11) - radical_from_sqrt(1, 6, 13),
    }
    state: dict = {}
    for word, weight in weights.items():
        for triplet, amp in encode(word, 3).items():
            state[triplet] = state.get(triplet, Radical()) + weight * amp
    document = cli._dumps_state({t: amp for t, amp in state.items() if amp}, 3, 4)
    assert hashlib.sha256(document.encode()).hexdigest() == (
        "c1033653030a93e3436f7435078b2aa2009e691b013f0447f26acf3a154b640d"
    )
    state_file = tmp_path / "multi.json"
    state_file.write_text(document)
    code, out, _ = run(capsys, "decode", str(state_file), "--format", "json")
    assert code == 0
    assert [term["word"] for term in json.loads(out)["terms"]] == [
        "1,2,3,1", "2,1,3,1", "3,1,1,2",
    ]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b0343e2e821adf0039fef4ad7160746f3e93db742d771cc64a6d07cdd52eb4b2"
    )


def test_decode_round_trip_via_file(tmp_path, capsys):
    state_file = tmp_path / "state.json"
    obj = state_document(encode(parse_word("0110", 2), 2), 2, 4)
    state_file.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "decode", str(state_file))
    assert code == 0
    assert out == "0110  1  ~1\n"


def test_decode_golden_from_stdin(monkeypatch, capsys):
    triplet_state = {
        SchurWeylTriplet(weyl_to_gt([[1, 1], [2, 2]], 2), syt_to_path([[1, 3], [2, 4]])): ONE
    }
    obj = state_document(triplet_state, 2, 4)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    code, out, _ = run(capsys, "decode")
    assert code == 0
    assert out.splitlines() == [
        "0101  1/2  ~0.5",
        "0110  -1/2  ~-0.5",
        "1001  -1/2  ~-0.5",
        "1010  1/2  ~0.5",
    ]


def test_decode_rejects_bad_weyl(monkeypatch, capsys):
    obj = {
        "d": 2,
        "n": 1,
        "terms": [
            {
                "shape": [1],
                "weyl_rows": [[1, 0]],
                "young_path": [[], [1]],
                "amplitude": {"terms": [{"radicand": 1, "num": 1, "den": 1}]},
            }
        ],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    code, out, err = run(capsys, "decode")
    assert code == 2
    assert out == ""
    assert err.startswith("invariant: weakly increasing rows")


def _drop_weyl_rows(obj):
    del obj["terms"][0]["weyl_rows"]


def _zero_den(obj):
    obj["terms"][0]["amplitude"]["terms"][0]["den"] = 0


def _string_terms(obj):
    obj["terms"] = "x"


def _shape_off_path(obj):
    obj["terms"][0]["shape"] = [1, 1]


def _huge_radicand(obj):
    # trial division on this radicand would run without bound
    obj["terms"][0]["amplitude"]["terms"][0]["radicand"] = (
        1000000000000000018000000000000000083
    )


def _huge_num(obj):
    # a coefficient beyond the float range would end in an OverflowError
    obj["terms"][0]["amplitude"]["terms"][0]["num"] = 10**400


def _string_letters(obj):
    # int("1") and int(" 1 ") parse, but the writer never emits a string letter
    obj["terms"][0]["weyl_rows"] = [["0", " 1 "]]


def _bool_shape_part(obj):
    # False == 0, and a trailing zero part is dropped: [2, 0] reads as (2,)
    obj["terms"][0]["shape"] = [2, False]


def _bool_path_part(obj):
    # True == 1, so [[], [True], [2]] would compare equal to a valid path
    obj["terms"][0]["young_path"][1] = [True]


def _bad_last_step(obj):
    # the reader checked every other step of this path on the first term
    obj["terms"][1]["young_path"] = obj["terms"][0]["young_path"][:-1] + [[3]]


def _path_not_from_empty(obj):
    obj["terms"][0]["young_path"] = [[1], [2], [3]]


def _trailing_zero_shape(obj):
    # the writer never emits a zero part, and the shape must equal the last step
    obj["terms"][0]["shape"] = [2, 0]


def _repeat_loosely(*path, value):
    """A corruption: the second term repeats the first, with the entry at ``path`` made ``value``.

    The reader keeps per-document tables of the rows, paths and amplitudes
    it has read; ``True == 1 == 1.0`` and their hashes agree, so a loosely
    keyed table would take the loose entry for the first term's.
    """

    def corrupt(obj):
        second = copy.deepcopy(obj["terms"][0])
        *parents, last = path
        node = second
        for key in parents:
            node = node[key]
        node[last] = value
        obj["terms"][1] = second

    corrupt.__name__ = f"_repeat_{path[0]}_{type(value).__name__}"
    return corrupt


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (_drop_weyl_rows, "weyl_rows"),
        (_zero_den, "den"),
        (_string_terms, "terms"),
        (_shape_off_path, "shape"),
        (_huge_radicand, "radicand"),
        (_huge_num, "num"),
        (_string_letters, "weyl_rows"),
        (_bool_shape_part, "shape"),
        (_bool_path_part, "young_path"),
        (_bad_last_step, "single-box growth step"),
        (_path_not_from_empty, "growth path starts empty"),
        (_trailing_zero_shape, "components share one shape"),
        (_repeat_loosely("weyl_rows", 0, 1, value=True), "weyl_rows"),
        (_repeat_loosely("weyl_rows", 0, 1, value="1"), "weyl_rows"),
        (_repeat_loosely("young_path", 1, 0, value=1.0), "young_path"),
        (_repeat_loosely("young_path", 1, 0, value=True), "young_path"),
        (_repeat_loosely("shape", 0, value=2.0), "shape"),
        (_repeat_loosely("amplitude", "terms", 0, "num", value=True), "num"),
        (_repeat_loosely("amplitude", "terms", 0, "num", value=1.0), "num"),
        (_repeat_loosely("amplitude", "terms", 0, "num", value="1"), "num"),
    ],
)
def test_decode_rejects_malformed_state(monkeypatch, capsys, corrupt, field):
    obj = state_document(encode(parse_word("01", 2), 2), 2, 2)
    assert obj["terms"][0]["shape"] == [2]
    corrupt(obj)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    code, out, err = run(capsys, "decode")
    assert code == 2
    assert out == ""
    assert err.startswith("invariant:") and field in err


def test_decode_names_a_bad_step_after_a_checked_prefix(monkeypatch, capsys):
    # the second term repeats the first term's checked prefix, then breaks
    # the path in its middle: the reader checks the new steps and names the
    # first broken one
    obj = state_document(encode(parse_word("0101", 2), 2), 2, 4)
    first = obj["terms"][0]["young_path"]
    assert first == [[], [1], [2], [3], [4]]
    obj["terms"][1]["young_path"] = first[:2] + [[3]] + first[3:]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    code, out, err = run(capsys, "decode")
    assert (code, out) == (2, "")
    assert err == "invariant: single-box growth step ((1,) -> (3,))\n"


def test_long_word_round_trip_d1(tmp_path, capsys):
    # growth paths as long as the word: no step, path export or path check
    # may recurse over their length
    word = ",".join(["1"] * 3000)
    code, out, _ = run(capsys, "encode", "--d", "1", word, "--format", "json")
    assert code == 0
    document = tmp_path / "long.json"
    document.write_text(out)
    code, out, err = run(capsys, "decode", str(document), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "d": 1,
        "n": 3000,
        "terms": [{"word": word, "amplitude": ONE.to_json_obj()}],
    }


def test_decode_rejects_malformed_json(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    code, _, err = run(capsys, "decode")
    assert code == 2
    assert err.startswith("error:")


def test_decode_rejects_deep_nesting(tmp_path, capsys):
    # the JSON parser recurses once per bracket
    document = tmp_path / "deep.json"
    document.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "decode", str(document))
    assert (code, out) == (2, "")
    assert err == "invariant: state document (nested too deeply)\n"


def _one_term(num):
    return {
        "shape": [1],
        "weyl_rows": [[0]],
        "young_path": [[], [1]],
        "amplitude": {"terms": [{"radicand": 1, "num": num, "den": 1}] if num else []},
    }


@pytest.mark.parametrize(
    "terms",
    [[_one_term(1), _one_term(-1)], [_one_term(0)]],
    ids=["cancelling-pair", "empty-amplitude"],
)
def test_decode_zero_state(tmp_path, capsys, terms):
    # a document is where a zero amplitude can enter; the reader drops it
    document = tmp_path / "zero.json"
    document.write_text(json.dumps({"d": 2, "n": 1, "terms": terms}))
    code, out, err = run(capsys, "decode", str(document), "--format", "json")
    assert (code, err) == (0, "")
    assert out == '{\n  "d": 2,\n  "n": 1,\n  "terms": []\n}\n'
    assert run(capsys, "decode", str(document)) == (0, "", "")


def test_usage_errors(capsys):
    assert run(capsys)[0] == 1
    assert run(capsys, "graph", "--d", "2")[0] == 1
    # there is one amplitude formula, so no flag selects one
    for engine in ("louck", "pattern"):
        code, _, err = run(capsys, "encode", "--d", "2", "0", "--engine", engine)
        assert code == 1 and "--engine" in err


def test_validation_errors(capsys):
    code, _, err = run(capsys, "encode", "--d", "2", "0121")
    assert code == 2
    assert err.startswith("invariant: entries in alphabet")
    assert run(capsys, "encode", "--d", "0", "")[0] == 2


def test_alphabet_bound_exits_cleanly(tmp_path, capsys):
    # d is bounded where it enters, before any fan is scanned
    document = tmp_path / "d1600.json"
    document.write_text(
        json.dumps(
            {
                "d": 1600,
                "n": 1,
                "terms": [
                    {
                        "shape": [1],
                        "weyl_rows": [[1]],
                        "young_path": [[], [1]],
                        "amplitude": {"terms": [{"radicand": 1, "num": 1, "den": 1}]},
                    }
                ],
            }
        )
    )
    for argv in (
        ["encode", "--d", "1100", "1"],
        ["decode", str(document)],
        ["encode", "--d", "65", "1"],
        ["check", "--d", "-1", "--n", "2"],
        ["encode", "--d", "0", "1"],
        ["encode", "--d", "70", "71"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("invariant: alphabet size") and "1..64" in err
        assert "Traceback" not in err
    # check bounds its word length where it enters too
    code, out, err = run(capsys, "check", "--d", "3", "--n", "-1")
    assert (code, out) == (2, "")
    assert err == "invariant: word length (--n -1 is negative)\n"
    # and so does graph its top level
    code, out, err = run(capsys, "graph", "--d", "2", "--n", "-1")
    assert (code, out) == (2, "")
    assert err == "invariant: top level (--n -1 is negative)\n"
    code, out, _ = run(capsys, "encode", "--d", "64", "1")
    assert code == 0
    assert out == "1  ~1  (1)  weyl [1]  young [1]\n"


SMALL = st.integers(min_value=-1, max_value=5)
LETTERS = st.sampled_from(["0", "1", "2", "3", "4", "5", "-1", "a", " ", ""])


@st.composite
def cli_argvs(draw):
    """``encode`` of short words, good and bad, and ``graph``/``check`` at small sizes."""
    command = draw(st.sampled_from(["encode", "graph", "check"]))
    fmt = draw(st.sampled_from(["text", "json"]))
    argv = [command, "--d", str(draw(SMALL)), "--format", fmt]
    if command == "encode":
        separator = draw(st.sampled_from(["", ","]))
        return argv + [separator.join(draw(st.lists(LETTERS, max_size=6)))]
    argv += ["--n", str(draw(SMALL))]
    if command == "check":
        # unitarity is the costly suite; 3**5 and 4**4 still run it
        argv += ["--size-bound", "256"]
    return argv


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(cli_argvs())
def test_cli_fuzz_exits_cleanly(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    if code in (1, 2):
        assert out == "" and err


def test_main_reuses_one_parser(monkeypatch, capsys):
    # one cached parser serves successive calls, a usage error among them;
    # each call gives the stdout and exit code of a fresh process
    calls = [
        ("encode", "--d", "2", "0101"),
        ("graph", "--d", "2"),
        ("graph", "--d", "3", "--n", "2", "--format", "json"),
        ("check", "--d", "2", "--n", "3"),
    ]
    fresh = [fresh_process(*argv) for argv in calls]
    assert [result.returncode for result in fresh] == [0, 1, 0, 0]
    cli._parser.cache_clear()
    for argv, result in zip(calls, fresh):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (result.returncode, result.stdout), argv
        if code == 1:
            assert err == result.stderr
    assert cli._parser.cache_info().misses == 1
    # a command replaced after the parser was built still runs
    monkeypatch.setattr(cli, "cmd_encode", lambda args: 7)
    assert run(capsys, "encode", "--d", "2", "0")[0] == 7


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_graph_summary_and_files(tmp_path, capsys):
    dot_path = tmp_path / "swy.dot"
    json_path = tmp_path / "swy.json"
    code, out, _ = run(
        capsys, "graph", "--d", "2", "--n", "3",
        "--dot", str(dot_path), "--json", str(json_path),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d=2 n_max=3: 13 vertices, 20 edges"
    assert lines[4] == "level 3: (3) x4, (2,1) x2"
    dot = dot_path.read_text()
    assert dot == build(2, 3).to_dot()
    assert dot.startswith("digraph swy {")
    assert dot.count(" -> ") == 20
    assert sum(line.lstrip().startswith("v") and "->" not in line
               for line in dot.splitlines()) == 13
    reloaded = SWYGraph.from_json_obj(json.loads(json_path.read_text()))
    assert reloaded == build(2, 3)


def test_graph_json_file_matches_stdout(tmp_path, capsys):
    json_path = tmp_path / "swy.json"
    code, out, _ = run(
        capsys, "graph", "--d", "3", "--n", "3", "--format", "json", "--json", str(json_path),
    )
    assert code == 0
    assert json_path.read_text() == out
    assert out == json.dumps(build(3, 3).to_json_obj(), indent=2) + "\n"


def test_graph_bytes_golden_at_bench_size(tmp_path, capsys):
    # stdout and DOT file of the CLI writers at one of the benchmark's sizes
    dot_path = tmp_path / "swy.dot"
    code, out, _ = run(
        capsys, "graph", "--d", "4", "--n", "6", "--format", "json", "--dot", str(dot_path),
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "30890f49a3e78cdecd2635c41e35acd131ade79c314164364f9cca286c4cd0c8"
    )
    assert hashlib.sha256(dot_path.read_bytes()).hexdigest() == (
        "8b42589991fc41394e15b313ede7ceba1bc8a4c3ec16b4a60b11611b34687fa2"
    )


@pytest.mark.parametrize(
    "d, n, stdout_sha, dot_sha",
    [
        (
            2, 30,
            "92f5882fee3f5c6e58b4f12fa50e467d71b25b3dfb1fadc39d373fe8d689ba6d",
            "d7a75782b81585d42776bbef346a23be00bb6a31fdf4a6808f603e3ec17d56e3",
        ),
        (
            3, 9,
            "a256a5233718ff11b7b9dfbb7723f70767038ea8b2af0fb97d42116c924652ac",
            "69f21f36727558a075e32021ac9d9d5baab641aa25a9971b8a480ed737372efd",
        ),
        (
            5, 5,
            "31c368c2ebac21b9fdb2682f375520320f4aac575306cdbf01165ece52e76039",
            "21238301a0a918448f0d9db73c250fc563ff5129a8ef61b6544c49494b405da8",
        ),
    ],
    ids=["2-30", "3-9", "5-5"],
)
def test_graph_bytes_golden_at_other_bench_sizes(tmp_path, capsys, d, n, stdout_sha, dot_sha):
    # the same bytes at the benchmark's three other sizes
    dot_path = tmp_path / "swy.dot"
    code, out, _ = run(
        capsys, "graph", "--d", str(d), "--n", str(n), "--format", "json", "--dot", str(dot_path),
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(dot_path.read_bytes()).hexdigest() == dot_sha


def test_graph_level_zero(capsys):
    code, out, _ = run(capsys, "graph", "--d", "2", "--n", "0")
    assert code == 0
    assert out.splitlines() == ["d=2 n_max=0: 1 vertices, 0 edges", "level 0: () x1"]


def test_graph_json_stdout(capsys):
    code, out, _ = run(capsys, "graph", "--d", "3", "--n", "2", "--format", "json")
    assert code == 0
    assert SWYGraph.from_json_obj(json.loads(out)) == build(3, 2)


def test_check_passes_d2(capsys):
    code, out, err = run(capsys, "check", "--d", "2", "--n", "4")
    assert code == 0
    statuses = [line.split()[0] for line in out.splitlines()]
    assert statuses == ["PASS", "PASS", "PASS", "PASS"]
    assert "encode cost" in err


def test_check_skips_pattern_for_d3(capsys):
    code, out, _ = run(capsys, "check", "--d", "3", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("SKIP  pattern-louck equivalence")
    assert all(line.startswith("PASS") for line in lines[1:])


def test_check_normalizes_every_column(capsys):
    code, out, _ = run(capsys, "check", "--d", "3", "--n", "5")
    assert code == 0
    assert "PASS  column normalization  (243 words)" in out.splitlines()


def test_check_size_bound_precedence(monkeypatch, capsys):
    monkeypatch.setenv("SCHUR_SIZE_BOUND", "8")
    code, out, _ = run(capsys, "check", "--d", "2", "--n", "4")
    assert code == 0
    assert "SKIP  unitarity  (d**n = 16 exceeds size bound 8)" in out
    code, out, _ = run(capsys, "check", "--d", "2", "--n", "4", "--size-bound", "16")
    assert code == 0
    assert "PASS  unitarity  (16 x 16)" in out
    monkeypatch.setenv("SCHUR_SIZE_BOUND", "oops")
    code, _, err = run(capsys, "check", "--d", "2", "--n", "2")
    assert code == 1
    assert "SCHUR_SIZE_BOUND" in err


def test_check_rejects_a_negative_size_bound(monkeypatch, capsys):
    # a negative bound would skip unitarity at every size; zero stays valid
    code, out, err = run(capsys, "check", "--d", "2", "--n", "2", "--size-bound", "-5")
    assert (code, out) == (1, "")
    assert "--size-bound" in err and "-5" in err
    monkeypatch.setenv("SCHUR_SIZE_BOUND", "-5")
    code, out, err = run(capsys, "check", "--d", "2", "--n", "2")
    assert (code, out) == (1, "")
    assert "SCHUR_SIZE_BOUND" in err and "-5" in err
    code, out, _ = run(capsys, "check", "--d", "2", "--n", "2", "--size-bound", "0")
    assert code == 0
    assert "SKIP  unitarity  (d**n = 4 exceeds size bound 0)" in out


def test_check_json_report(capsys):
    code, out, _ = run(capsys, "check", "--d", "2", "--n", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"d", "n", "size_bound", "suites"}
    assert report["d"] == 2 and report["n"] == 3
    assert [s["status"] for s in report["suites"]] == ["pass"] * 4


def test_check_text_golden_d2(capsys):
    code, out, err = run(capsys, "check", "--d", "2", "--n", "6")
    assert code == 0
    assert out == (
        "PASS  pattern-louck equivalence  (112 edges)\n"
        "PASS  column normalization  (64 words)\n"
        "PASS  dimension identity  (n <= 6)\n"
        "PASS  unitarity  (64 x 64)\n"
    )
    assert err.startswith("info: encode cost ") and err.endswith(" ms/word over 64 words\n")


def _first_norm_zero(d, n, column_norms=cli.column_norms):
    for i, norm in enumerate(column_norms(d, n)):
        yield ZERO if i == 0 else norm


# the cli name each suite reads, in report order, and a fake that fails it
SUITE_FAKES = {
    "pattern_amplitude_d2": lambda lower, upper: ZERO,
    "column_norms": _first_norm_zero,
    "dimension_check": lambda d, n: False,
    "verify_unitary": lambda matrix: False,
}


@pytest.mark.parametrize("name", SUITE_FAKES)
def test_check_failure_exit_code(monkeypatch, capsys, name):
    argv = ["check", "--d", "2", "--n", "2"]
    _, text, _ = run(capsys, *argv)
    _, report, _ = run(capsys, *argv, "--format", "json")
    lines, report = text.splitlines(), json.loads(report)
    monkeypatch.setattr(cli, name, SUITE_FAKES[name])
    index = list(SUITE_FAKES).index(name)
    assert lines[index].startswith("PASS")
    code, out, _ = run(capsys, *argv)
    assert code == 3
    lines[index] = lines[index].replace("PASS", "FAIL", 1)
    assert out.splitlines() == lines
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 3
    report["suites"][index]["status"] = "fail"
    assert json.loads(out) == report


@pytest.mark.parametrize("bound", [16, 15])
def test_check_calls_schur_matrix_once_through_cli(monkeypatch, capsys, bound):
    # the check benchmark workload counts nonzeros by replacing cli.schur_matrix
    calls = []

    def recording(*args):
        calls.append(args)
        return schur_matrix(*args)

    monkeypatch.setattr(cli, "schur_matrix", recording)
    code, out, _ = run(capsys, "check", "--d", "2", "--n", "4", "--size-bound", str(bound))
    assert code == 0
    assert calls == [(2, 4, bound)]
    assert ("SKIP  unitarity" in out) == (bound < 2**4)


def child_env() -> dict:
    # the child process finds the package where this one imported it from
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def fresh_process(*argv) -> subprocess.CompletedProcess:
    """``python -m schurweyl.cli *argv`` in a child process."""
    return subprocess.run(
        [sys.executable, "-m", "schurweyl.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_module_entry_point():
    result = fresh_process("encode", "--d", "2", "0101")
    assert result.returncode == 0
    assert result.stdout == GOLDEN_0101


def test_closed_stdout_pipe_exits_quietly():
    # a reader that stops after one line, like `| head -1`: the graph
    # document is far larger than a pipe buffer, so the writes after it fail
    child = subprocess.Popen(
        [sys.executable, "-m", "schurweyl.cli", "graph", "--d", "2", "--n", "30",
         "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    assert child.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert child.stderr.read() == b""
    child.stderr.close()


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_stdout_pipe_closed_before_the_first_write(buffered):
    # like `encode ... | (exec 0<&-; true)`: a buffered stdout holds the short
    # output until the flush, which must fail inside main, and so must not
    # fail again when the interpreter flushes at exit
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as stdout:
        result = subprocess.run(
            [sys.executable, "-m", "schurweyl.cli", "encode", "--d", "2", "0101"],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=env,
        )
    assert (result.returncode, result.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


def test_broken_pipe_in_process_keeps_stdout(monkeypatch, capsys):
    # a caller whose stdout has no descriptor gets the code and its stream back
    def cmd_encode(args):
        print("partial")
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "cmd_encode", cmd_encode)
    code, out, err = run(capsys, "encode", "--d", "2", "0101")
    assert (code, out, err) == (cli.EXIT_BROKEN_PIPE, "partial\n", "")
    assert run(capsys, "encode", "--d", "2", "0101")[0] == cli.EXIT_BROKEN_PIPE
    monkeypatch.undo()
    assert run(capsys, "encode", "--d", "2", "0101")[1] == GOLDEN_0101
