import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schurweyl import cli
from schurweyl.branching import SchurWeylState, SchurWeylTriplet
from schurweyl.graph import SWYGraph, build
from schurweyl.radicals import ONE
from schurweyl.tableaux import make_weyl, parse_word, syt_to_path, weyl_to_gt
from schurweyl.transform import encode, state_from_json_obj, state_to_json_obj

GOLDEN_0101 = """\
1/6*sqrt(6)  ~0.4082482905  (4)  weyl [0 0 1 1]  young [1 2 3 4]
1/6*sqrt(6)  ~0.4082482905  (3,1)  weyl [0 0 1; 1]  young [1 2 3; 4]
-1/6*sqrt(3)  ~-0.2886751346  (3,1)  weyl [0 0 1; 1]  young [1 2 4; 3]
1/2  ~0.5  (3,1)  weyl [0 0 1; 1]  young [1 3 4; 2]
-1/6*sqrt(3)  ~-0.2886751346  (2,2)  weyl [0 0; 1 1]  young [1 2; 3 4]
1/2  ~0.5  (2,2)  weyl [0 0; 1 1]  young [1 3; 2 4]
"""


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


def test_decode_round_trip_via_file(tmp_path, capsys):
    state_file = tmp_path / "state.json"
    obj = state_to_json_obj(encode(parse_word("0110", 2), 2), 2, 4)
    state_file.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "decode", str(state_file))
    assert code == 0
    assert out == "0110  1  ~1\n"


def test_decode_golden_from_stdin(monkeypatch, capsys):
    triplet_state = SchurWeylState(
        {
            SchurWeylTriplet(
                weyl_to_gt(make_weyl([[1, 1], [2, 2]], 2)), syt_to_path([[1, 3], [2, 4]])
            ): ONE
        }
    )
    obj = state_to_json_obj(triplet_state, 2, 4)
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


def _string_letters(obj):
    # int("1") and int(" 1 ") parse, but the writer never emits a string letter
    obj["terms"][0]["weyl_rows"] = [["0", " 1 "]]


def _bool_shape_part(obj):
    # False == 0, and a trailing zero part is dropped: [2, 0] reads as (2,)
    obj["terms"][0]["shape"] = [2, False]


def _bool_path_part(obj):
    # True == 1, so [[], [True], [2]] would compare equal to a valid path
    obj["terms"][0]["young_path"][1] = [True]


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (_drop_weyl_rows, "weyl_rows"),
        (_zero_den, "den"),
        (_string_terms, "terms"),
        (_shape_off_path, "shape"),
        (_huge_radicand, "radicand"),
        (_string_letters, "weyl_rows"),
        (_bool_shape_part, "shape"),
        (_bool_path_part, "young_path"),
    ],
)
def test_decode_rejects_malformed_state(monkeypatch, capsys, corrupt, field):
    obj = state_to_json_obj(encode(parse_word("01", 2), 2), 2, 2)
    assert obj["terms"][0]["shape"] == [2]
    corrupt(obj)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    code, out, err = run(capsys, "decode")
    assert code == 2
    assert out == ""
    assert err.startswith("invariant:") and field in err


def test_decode_rejects_malformed_json(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    code, _, err = run(capsys, "decode")
    assert code == 2
    assert err.startswith("error:")


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


def test_check_json_report(capsys):
    code, out, _ = run(capsys, "check", "--d", "2", "--n", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"d", "n", "size_bound", "suites"}
    assert report["d"] == 2 and report["n"] == 3
    assert [s["status"] for s in report["suites"]] == ["pass"] * 4


def test_check_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_unitary", lambda matrix: False)
    code, out, _ = run(capsys, "check", "--d", "2", "--n", "2")
    assert code == 3
    assert "FAIL  unitarity" in out


def test_module_entry_point():
    # the child process finds the package where this one imported it from
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "schurweyl.cli", "encode", "--d", "2", "0101"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert result.stdout == GOLDEN_0101
