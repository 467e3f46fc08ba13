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
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from math import inf
from pathlib import Path

from .amplitudes import pattern_amplitude_d2
from .graph import build
from .radicals import ONE, Radical
from .tableaux import (
    InvariantViolation,
    check_alphabet,
    gt_to_external,
    letter_offset,
    parse_word,
    path_to_syt,
    render_tableau_rows,
    shape_to_text,
    word_to_text,
)
from .transform import (
    DEFAULT_SIZE_BOUND,
    SizeBoundExceeded,
    column_norms,
    computational_to_json_obj,
    decode,
    dimension_check,
    encode,
    schur_matrix,
    sorted_terms,
    state_from_json_obj,
    verify_unitary,
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


def _rows_text(rows) -> str:
    return "; ".join(render_tableau_rows(rows))


def _dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, byte for byte.

    The standard library's C encoder does not indent, so ``indent=2`` runs
    its pure-Python encoder.  This writer visits each value once and writes
    a list of ints in one join.  It takes what the commands emit: dicts with
    string keys, lists, strings, ints, floats, booleans and None, of exactly
    those types; anything else raises ``TypeError``.
    """
    return _text(obj, "\n")


def _text(value, newline: str) -> str:
    # value as _write lays it out in a container whose line break and indent is newline
    out: list[str] = []
    _write(value, newline, out)
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


def _dumps_state(state, d: int, n: int) -> str:
    """The state document of ``{triplet: amplitude}`` at ``(d, n)``, as :func:`_dumps` writes it.

    The document is ``{"d", "n", "terms"}`` with one term per triplet in
    :func:`sorted_terms` order: its shape, Weyl rows over the external
    alphabet, growth path and amplitude.  Every term sits at one depth, so
    each distinct shape, pattern and growth step is written once per
    document, by :func:`_write`, and its text reused.
    """
    field = "\n      "  # the line break and indent of a term's fields
    step = field + "  "
    shapes: dict = {}
    patterns: dict = {}
    steps: dict = {}
    terms = []
    for triplet, amp in sorted_terms(state):
        pattern, young = triplet.pattern, triplet.young
        shape = young[-1]
        shape_text = shapes.get(shape) or shapes.setdefault(shape, _text(list(shape), field))
        rows = patterns.get(pattern) or patterns.setdefault(
            pattern, _text(gt_to_external(pattern), field)
        )
        # a growth path is a non-empty list, laid out as _write lays one out
        path = ("," + step).join(
            [steps.get(s) or steps.setdefault(s, _text(list(s), step)) for s in young]
        )
        value = _text(amp.to_json_obj(), field)
        terms.append(
            f'{{{field}"shape": {shape_text},{field}"weyl_rows": {rows},'
            f'{field}"young_path": [{step}{path}{field}],{field}"amplitude": {value}\n    }}'
        )
    body = "[\n    " + ",\n    ".join(terms) + "\n  ]" if terms else "[]"
    return f'{{\n  "d": {d},\n  "n": {n},\n  "terms": {body}\n}}'


def _dumps_graph(graph) -> str:
    """The text of ``_dumps(graph.to_json_obj())``, written in one pass.

    Every vertex and every edge sits at one depth, so their fields are laid
    out here directly, with no object tree in between.  Each distinct shape,
    tableau row and amplitude is written once per document and its text
    reused: rows, from the graph's row list, are joined as :func:`_write`
    lays them out, and shapes, amplitudes and the empty tableau go through
    :func:`_write` itself.  Amplitude texts are keyed by their terms in
    stored order, because ``approx`` sums them in that order and two equal
    radicals can print different floats.
    """
    field = "\n      "  # the line break and indent of a vertex's or edge's fields
    inner = field + "  "  # ... of a tableau row
    innermost = inner + "  "  # ... of a row's entry
    row_sep, entry_sep = "," + inner, "," + innermost
    shift = letter_offset(graph.d)
    rows = graph._weyl_rows()
    shapes: dict = {}
    row_texts: dict = {}
    amplitudes: dict = {}
    vertices = []
    for v in graph.vertices:
        shape = v.shape
        shape_text = shapes.get(shape) or shapes.setdefault(shape, _text(list(shape), field))
        tableau = rows[v.id]
        if tableau:
            lines = [
                row_texts.get(row)
                or row_texts.setdefault(row, f"[{innermost}{entry_sep.join(map(str, row))}{inner}]")
                for row in map(tuple, tableau)
            ]
            tableau_text = f"[{inner}{row_sep.join(lines)}{field}]"
        else:
            tableau_text = _text(tableau, field)
        vertices.append(
            f'{{{field}"id": {v.id},{field}"level": {v.level},{field}"shape": {shape_text},'
            f'{field}"tableau_rows": {tableau_text}\n    }}'
        )
    edges = []
    for e in graph.edges:
        amp = e.amplitude
        key = tuple(amp._terms.items())
        value = amplitudes.get(key) or amplitudes.setdefault(key, _text(amp.to_json_obj(), field))
        edges.append(
            f'{{{field}"lower": {e.lower},{field}"upper": {e.upper},'
            f'{field}"k": {e.added_entry - shift},{field}"amplitude": {value}\n    }}'
        )
    body = [
        "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"
        for items in (vertices, edges)
    ]
    return (
        f'{{\n  "d": {graph.d},\n  "n_max": {graph.n_max},'
        f'\n  "vertices": {body[0]},\n  "edges": {body[1]}\n}}'
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_encode(args) -> int:
    word = parse_word(args.word, args.d)
    state = encode(word, args.d)
    if args.format == "json":
        print(_dumps_state(state, args.d, len(word)))
        return EXIT_OK
    for triplet, amp in sorted_terms(state):
        print(
            f"{amp.to_string()}  ~{_approx(amp)}  {shape_to_text(triplet.shape)}"
            f"  weyl [{_rows_text(gt_to_external(triplet.pattern))}]"
            f"  young [{_rows_text(path_to_syt(triplet.young))}]"
        )
    return EXIT_OK


def cmd_decode(args) -> int:
    if args.state in (None, "-"):
        text = sys.stdin.read()
    else:
        text = Path(args.state).read_text()
    try:
        obj = json.loads(text)
    except RecursionError:
        raise InvariantViolation("state document", "nested too deeply") from None
    state = state_from_json_obj(obj)
    d, n = obj["d"], obj["n"]
    out = decode(state)
    if args.format == "json":
        print(_dumps(computational_to_json_obj(out, d, n)))
        return EXIT_OK
    for word, amp in sorted(out.items()):
        print(f"{word_to_text(word, d)}  {amp.to_string()}  ~{_approx(amp)}")
    return EXIT_OK


def cmd_graph(args) -> int:
    graph = build(args.d, args.n)
    if args.dot is not None:
        Path(args.dot).write_text(graph.to_dot())
    if args.json_path is not None or args.format == "json":
        text = _dumps_graph(graph)
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
    check_alphabet(args.d)
    if args.n < 0:
        raise InvariantViolation("word length", f"--n {args.n} is negative")
    size_bound = _resolve_size_bound(args.size_bound)
    suites = []

    if args.d == 2:
        graph = build(2, args.n)
        mismatched = 0
        for edge in graph.edges:
            lower = graph.vertex(edge.lower).pattern
            upper = graph.vertex(edge.upper).pattern
            if pattern_amplitude_d2(lower, upper) != edge.amplitude:
                mismatched += 1
        suites.append(
            _suite("pattern-louck equivalence", mismatched == 0, f"{len(graph.edges)} edges")
        )
    else:
        suites.append(_skipped("pattern-louck equivalence", "needs d = 2"))

    denormalized = 0
    count = 0
    started = time.perf_counter()
    for norm in column_norms(args.d, args.n):
        denormalized += norm != ONE
        count += 1
    elapsed = time.perf_counter() - started
    suites.append(_suite("column normalization", denormalized == 0, f"{count} words"))

    dims_ok = all(dimension_check(args.d, m) for m in range(args.n + 1))
    suites.append(_suite("dimension identity", dims_ok, f"n <= {args.n}"))

    try:
        matrix = schur_matrix(args.d, args.n, size_bound)
    except SizeBoundExceeded as exc:
        suites.append(_skipped("unitarity", str(exc)))
    else:
        size = matrix.size
        suites.append(_suite("unitarity", verify_unitary(matrix), f"{size} x {size}"))

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

    p_decode = sub.add_parser("decode", help="expand a state JSON in the word basis")
    p_decode.add_argument(
        "state", nargs="?", help="state JSON file; '-' or omitted reads stdin"
    )
    _add_common(p_decode, with_d=False)

    p_graph = sub.add_parser("graph", help="build the branching multigraph up to level n")
    p_graph.add_argument("--n", type=int, required=True, help="top level")
    p_graph.add_argument("--dot", metavar="PATH", help="write a DOT rendering")
    p_graph.add_argument(
        "--json", dest="json_path", metavar="PATH", help="write the graph as JSON"
    )
    _add_common(p_graph)

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

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves the process
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # the command is looked up now, not bound into the cached parser,
        # so a cmd_* replaced after the parser was built still runs
        return globals()[f"cmd_{args.command}"](args)
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
