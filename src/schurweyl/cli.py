"""Command line surface: encode, decode, graph, check.

Results go to stdout and are byte-deterministic for fixed inputs; timing
and error diagnostics go to stderr.  Exit codes: 0 success, 1 usage error,
2 validation failure, 3 check-suite failure.
"""

import argparse
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from math import inf
from pathlib import Path

from .amplitudes import louck_amplitude, pattern_amplitude_d2
from .graph import build
from .radicals import ONE, Radical
from .tableaux import (
    InvariantViolation,
    parse_word,
    path_to_syt,
    render_tableau_rows,
    shape_to_text,
    word_to_text,
)
from .transform import (
    DEFAULT_SIZE_BOUND,
    computational_to_json_obj,
    decode,
    dimension_check,
    encode,
    schur_matrix,
    state_from_json_obj,
    state_to_json_obj,
    verify_unitary,
    words,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CHECK = 3


class UsageError(Exception):
    """Bad flag combination detectable without touching any input data."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # validation failures here, so route usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_size_bound(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("SCHUR_SIZE_BOUND")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(
                f"SCHUR_SIZE_BOUND must be an integer, got {env!r}"
            ) from None
    return DEFAULT_SIZE_BOUND


def _approx(amp: Radical) -> str:
    return format(amp.to_float(), ".10g")


def _rows_text(rows, d: int | None = None) -> str:
    return "; ".join(render_tableau_rows(rows, d))


def _dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, byte for byte.

    The standard library's C encoder does not indent, so ``indent=2`` runs
    its pure-Python encoder.  This writer visits each value once and writes
    a list of ints in one join.  It takes what the commands emit: dicts with
    string keys, lists, strings, ints, floats, booleans and None, of exactly
    those types; anything else raises ``TypeError``.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    # newline: a line break plus the indent of the enclosing container
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if type(item) is int:
                out.append(f"{sep}{_quote(key)}: {item}")
            else:
                out.append(f"{sep}{_quote(key)}: ")
                _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if all(type(x) is int for x in value):
            out.append(f"[{inner}{sep.join(map(str, value))}{newline}]")
            return
        out.append("[" + inner)
        _write(value[0], inner, out)
        for item in value[1:]:
            out.append(sep)
            _write(item, inner, out)
        out.append(newline + "]")
    elif kind is int:
        out.append(str(value))
    elif kind is str:
        out.append(_quote(value))
    elif kind is float:
        if value != value:
            out.append("NaN")
        elif value in (inf, -inf):
            out.append("Infinity" if value > 0 else "-Infinity")
        else:
            out.append(repr(value))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# subcommands


def cmd_encode(args) -> int:
    word = parse_word(args.word, args.d)
    state = encode(word, args.d)
    if args.format == "json":
        print(_dumps(state_to_json_obj(state, args.d, len(word))))
        return EXIT_OK
    for triplet, amp in state.sorted_terms():
        print(
            f"{amp.to_string()}  ~{_approx(amp)}  {shape_to_text(triplet.shape)}"
            f"  weyl [{_rows_text(triplet.weyl.rows, args.d)}]"
            f"  young [{_rows_text(path_to_syt(triplet.young))}]"
        )
    return EXIT_OK


def cmd_decode(args) -> int:
    if args.state in (None, "-"):
        text = sys.stdin.read()
    else:
        text = Path(args.state).read_text()
    obj = json.loads(text)
    state = state_from_json_obj(obj)
    d, n = obj["d"], obj["n"]
    out = decode(state)
    if args.format == "json":
        print(_dumps(computational_to_json_obj(out, d, n)))
        return EXIT_OK
    for word, amp in out.sorted_terms():
        print(f"{word_to_text(word, d)}  {amp.to_string()}  ~{_approx(amp)}")
    return EXIT_OK


def cmd_graph(args) -> int:
    graph = build(args.d, args.n)
    if args.dot is not None:
        Path(args.dot).write_text(graph.to_dot())
    if args.json_path is not None or args.format == "json":
        text = _dumps(graph.to_json_obj())
    if args.json_path is not None:
        Path(args.json_path).write_text(text + "\n")
    if args.format == "json":
        print(text)
        return EXIT_OK
    print(
        f"d={graph.d} n_max={graph.n_max}:"
        f" {len(graph.vertices)} vertices, {len(graph.edges)} edges"
    )
    for level in range(graph.n_max + 1):
        census = graph.level_census(level)
        shapes = sorted(census, reverse=True)
        body = ", ".join(f"{shape_to_text(s)} x{census[s]}" for s in shapes)
        print(f"level {level}: {body}")
    return EXIT_OK


def _suite(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "status": "pass" if passed else "fail", "detail": detail}


def _skipped(name: str, detail: str) -> dict:
    return {"name": name, "status": "skip", "detail": detail}


def cmd_check(args) -> int:
    size_bound = _resolve_size_bound(args.size_bound)
    suites = []

    if args.d == 2:
        graph = build(2, args.n)
        mismatched = 0
        for edge in graph.edges:
            lower = graph.vertex(edge.lower).pattern
            upper = graph.vertex(edge.upper).pattern
            if pattern_amplitude_d2(lower, upper) != louck_amplitude(lower, upper):
                mismatched += 1
        suites.append(
            _suite("pattern-louck equivalence", mismatched == 0, f"{len(graph.edges)} edges")
        )
    else:
        suites.append(_skipped("pattern-louck equivalence", "needs d = 2"))

    denormalized = 0
    count = 0
    started = time.perf_counter()
    for word in words(args.d, args.n):
        if encode(word, args.d).norm_squared() != ONE:
            denormalized += 1
        count += 1
    elapsed = time.perf_counter() - started
    suites.append(_suite("column normalization", denormalized == 0, f"{count} words"))

    dims_ok = all(dimension_check(args.d, m) for m in range(args.n + 1))
    suites.append(_suite("dimension identity", dims_ok, f"n <= {args.n}"))

    size = args.d**args.n
    if size <= size_bound:
        matrix = schur_matrix(args.d, args.n, size_bound)
        suites.append(_suite("unitarity", verify_unitary(matrix), f"{size} x {size}"))
    else:
        suites.append(
            _skipped("unitarity", f"d**n = {size} exceeds size bound {size_bound}")
        )

    if args.format == "json":
        report = {
            "d": args.d,
            "n": args.n,
            "size_bound": size_bound,
            "suites": suites,
        }
        print(_dumps(report))
    else:
        for suite in suites:
            print(f"{suite['status'].upper():4}  {suite['name']}  ({suite['detail']})")
    print(
        f"info: encode cost {elapsed * 1000 / count:.3f} ms/word over {count} words",
        file=sys.stderr,
    )
    failed = any(suite["status"] == "fail" for suite in suites)
    return EXIT_CHECK if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(parser, with_d: bool = True) -> None:
    if with_d:
        parser.add_argument("--d", type=int, default=2, help="alphabet size (default 2)")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schurweyl",
        description="Exact Schur transform over words of qudits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_encode = sub.add_parser("encode", help="expand a word in the Schur-Weyl basis")
    p_encode.add_argument("word", help="'0101' when d = 2, comma-separated letters otherwise")
    _add_common(p_encode)
    p_encode.set_defaults(func=cmd_encode)

    p_decode = sub.add_parser("decode", help="expand a state JSON in the word basis")
    p_decode.add_argument(
        "state", nargs="?", help="state JSON file; '-' or omitted reads stdin"
    )
    _add_common(p_decode, with_d=False)
    p_decode.set_defaults(func=cmd_decode)

    p_graph = sub.add_parser("graph", help="build the branching multigraph up to level n")
    p_graph.add_argument("--n", type=int, required=True, help="top level")
    p_graph.add_argument("--dot", metavar="PATH", help="write a DOT rendering")
    p_graph.add_argument(
        "--json", dest="json_path", metavar="PATH", help="write the graph as JSON"
    )
    _add_common(p_graph)
    p_graph.set_defaults(func=cmd_graph)

    p_check = sub.add_parser("check", help="run the exactness suites at size (d, n)")
    p_check.add_argument("--n", type=int, required=True, help="word length")
    p_check.add_argument(
        "--size-bound",
        type=int,
        default=None,
        help=f"skip unitarity above this d**n (default {DEFAULT_SIZE_BOUND},"
        " env SCHUR_SIZE_BOUND overrides)",
    )
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
