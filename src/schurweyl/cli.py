"""Command line surface: encode, decode, graph, check.

Results go to stdout and are byte-deterministic for fixed inputs; timing
and error diagnostics go to stderr.  Exit codes: 0 success, 1 usage error,
2 validation failure, 3 check-suite failure, 141 (128 + SIGPIPE) when the
reader of stdout closes it early, with nothing on stderr.

Every JSON document is the text of ``json.dumps(obj, indent=2)``.  The
``decode`` and ``check`` documents are written by ``json`` itself; the state
and graph documents, which repeat the same shapes, rows and amplitudes many
times, are laid out in one pass by :func:`_dumps_state` and
:func:`_graph_chunks`, with no object tree in between; each distinct shape,
pattern, step or row is written once per document, through a
:class:`~schurweyl.tableaux.Memo` of its texts.  The graph document
grows fastest, 19 MB at ``--d 2 --n 50``, so it is written in chunks of at
most :data:`GRAPH_CHUNK` vertices or edges, and ``graph`` holds one chunk
of it at a time beside the graph itself, never the whole document.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time
from functools import cache
from pathlib import Path

from .amplitudes import pattern_amplitude_d2
from .graph import build
from .radicals import ONE, Radical
from .tableaux import (
    InvariantViolation,
    Memo,
    check_alphabet,
    gt_to_external,
    letter_offset,
    parse_word,
    path_to_syt,
    render_tableau_rows,
    row_entries,
    shape_to_text,
    weyl_row,
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
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    """Bad flag combination detectable without touching any input data."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # validation failures here, so route usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_size_bound(flag_value: int | None) -> int:
    source, bound = "--size-bound", flag_value
    if bound is None:
        env = os.environ.get("SCHUR_SIZE_BOUND")
        if env is None:
            return DEFAULT_SIZE_BOUND
        try:
            source, bound = "SCHUR_SIZE_BOUND", int(env)
        except ValueError:
            raise UsageError(
                f"SCHUR_SIZE_BOUND must be an integer, got {env!r}"
            ) from None
    if bound < 0:
        raise UsageError(f"{source} must be nonnegative, got {bound}")
    return bound


def _approx(amp: Radical) -> str:
    return format(amp.to_float(), ".10g")


def _rows_text(rows) -> str:
    return "; ".join(render_tableau_rows(rows))


def _list(items, newline: str) -> str:
    """A list as ``json.dumps(indent=2)`` lays it out, joined from its items' texts.

    ``newline`` is the line break plus the indent of the line the list
    starts on; each item's text is already laid out one level deeper.
    """
    if not items:
        return "[]"
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(items)}{newline}]"


def _amplitude(amp: Radical, newline: str) -> str:
    """``json.dumps(amp.to_json_obj(), indent=2)`` with each line break replaced by ``newline``.

    It is written from the term pairs directly.  ``approx`` is written with
    ``repr``, the text ``json`` gives every finite float; the reader's
    bounds keep it finite.
    """
    inner = newline + "  "
    entry = inner + "  "
    field = entry + "  "
    terms = [
        f'{{{field}"radicand": {m},{field}"num": {p},{field}"den": {q}{entry}}}'
        for m, (p, q) in amp.int_items()
    ]
    terms_text = _list(terms, inner)
    return f'{{{inner}"terms": {terms_text},{inner}"approx": {amp.to_float()!r}{newline}}}'


def _dumps_state(state, d: int, n: int) -> str:
    """The text of ``json.dumps(indent=2)`` for the state document of ``{triplet: amplitude}``.

    The document is ``{"d", "n", "terms"}`` with one term per triplet in
    :func:`sorted_terms` order: its shape, Weyl rows over the external
    alphabet, growth path and amplitude.  Every term sits at one depth, so
    each distinct shape, pattern and growth step is written once per
    document and its text reused.
    """
    field = "\n      "  # the line break and indent of a term's fields
    step = field + "  "
    shapes = Memo(lambda shape: _list([*map(str, shape)], field))
    patterns = Memo(
        lambda pattern: _list(
            [_list([*map(str, row)], step) for row in gt_to_external(pattern)], field
        )
    )
    steps = Memo(lambda shape: _list([*map(str, shape)], step))
    terms = [
        f'{{{field}"shape": {shapes[young[-1]]},{field}"weyl_rows": {patterns[pattern]},'
        f'{field}"young_path": {_list([*map(steps.__getitem__, young)], field)},'
        f'{field}"amplitude": {_amplitude(amp, field)}\n    }}'
        for (pattern, young), amp in sorted_terms(state)
    ]
    body = _list(terms, "\n  ")
    return f'{{\n  "d": {d},\n  "n": {n},\n  "terms": {body}\n}}'


# vertices or edges per chunk of the graph document: enough that the writes
# cost nothing beside the texts, few enough that a chunk is kilobytes
GRAPH_CHUNK = 512


def _graph_chunks(graph):
    """Yield the text of ``json.dumps(graph.to_json_obj(), indent=2)`` in chunks.

    Each chunk holds at most :data:`GRAPH_CHUNK` vertices or edges, so a
    writer holds one chunk of the document at a time, never the whole.
    Every vertex and every edge sits at one depth, so their fields are laid
    out here directly, with no object tree in between.  Each distinct shape,
    tableau row and amplitude is written once per document and its text
    reused.  A row's text is keyed by the GT entries that fix it
    (:func:`~schurweyl.tableaux.weyl_row`), so no row grid is made.
    Amplitude texts are keyed by object: ``approx`` sums the terms in stored
    order, so two equal radicals can print different floats, but one object
    always prints the same text.  Equal amplitudes from the fans are one
    object.
    """
    field = "\n      "  # the line break and indent of a vertex's or edge's fields
    inner = field + "  "  # ... of a tableau row
    entry = "\n    "  # ... of a vertex or an edge
    sep = "," + entry
    shift = letter_offset(graph.d)
    shapes = Memo(lambda shape: _list([*map(str, shape)], field))
    row_texts = Memo(
        lambda entries: _list([str(x - shift) for x in weyl_row(entries)], inner)
    )
    # by id, not a Memo: an id cannot give back its amplitude, and a value key
    # would hash a frozenset per edge and merge equal radicals whose approx differs
    amplitudes: dict = {}
    # each list as _list lays it out: its opening, then one join of a chunk's
    # entries at a time, each after the separator that ends the one before
    vertices, edges = graph.vertices, graph.edges
    yield f'{{\n  "d": {graph.d},\n  "n_max": {graph.n_max},\n  "vertices": ['
    lead = entry
    for start in range(0, len(vertices), GRAPH_CHUNK):
        yield lead + sep.join([
            f'{{{field}"id": {v.id},{field}"level": {v.level},{field}"shape": {shapes[v.shape]},'
            f'{field}"tableau_rows": '
            f'{_list([*map(row_texts.__getitem__, row_entries(v.pattern))], field)}{entry}}}'
            for v in vertices[start : start + GRAPH_CHUNK]
        ])
        lead = sep
    # the level-0 vertex is always there; a graph of one level has no edge
    yield '\n  ],\n  "edges": [' if edges else '\n  ],\n  "edges": []'
    lead = entry
    for start in range(0, len(edges), GRAPH_CHUNK):
        texts = []
        for e in edges[start : start + GRAPH_CHUNK]:
            amp = e.amplitude
            value = amplitudes.get(id(amp)) or amplitudes.setdefault(
                id(amp), _amplitude(amp, field)
            )
            texts.append(
                f'{{{field}"lower": {e.lower},{field}"upper": {e.upper},'
                f'{field}"k": {e.added_entry - shift},{field}"amplitude": {value}{entry}}}'
            )
        yield lead + sep.join(texts)
        lead = sep
    yield "\n  ]\n}" if edges else "\n}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_encode(args) -> int:
    check_alphabet(args.d)  # before the word, whose letters are read against d
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
        print(json.dumps(computational_to_json_obj(out, d, n), indent=2))
        return EXIT_OK
    for word, amp in sorted(out.items()):
        print(f"{word_to_text(word, d)}  {amp.to_string()}  ~{_approx(amp)}")
    return EXIT_OK


def cmd_graph(args) -> int:
    if args.n < 0:
        raise InvariantViolation("top level", f"--n {args.n} is negative")
    graph = build(args.d, args.n)
    if args.dot is not None:
        Path(args.dot).write_text(graph.to_dot())
    if args.json_path is not None:
        # the file is whole before stdout is written, so a reader that closes
        # stdout early cannot cut it short
        with open(args.json_path, "w") as file:
            file.writelines(_graph_chunks(graph))
            file.write("\n")
    if args.format == "json":
        sys.stdout.writelines(_graph_chunks(graph))
        sys.stdout.write("\n")
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


def _suites(d: int, n: int, size_bound: int):
    """Yield ``(name, passed, detail)`` for each exactness suite, in report order.

    ``passed`` is None for a suite skipped at this size, and ``detail`` says why.  The
    suites read this module's names at call time, so a test or the benchmark can replace one.
    """
    if d == 2:
        graph = build(2, n)  # the edges of every up fan below level n
        patterns = [v.pattern for v in graph.vertices]
        passed = all(
            pattern_amplitude_d2(patterns[e.lower], patterns[e.upper]) == e.amplitude
            for e in graph.edges
        )
        yield "pattern-louck equivalence", passed, f"{len(graph.edges)} edges"
    else:
        yield "pattern-louck equivalence", None, "needs d = 2"
    # a list, so a failure too walks all d**n words, as the cost line assumes
    norms = [norm == ONE for norm in column_norms(d, n)]
    yield "column normalization", all(norms), f"{len(norms)} words"
    yield "dimension identity", dimension_check(d, n), f"n <= {n}"
    try:
        matrix = schur_matrix(d, n, size_bound)
    except SizeBoundExceeded as exc:
        yield "unitarity", None, str(exc)
    else:
        yield "unitarity", verify_unitary(matrix), f"{matrix.size} x {matrix.size}"


def cmd_check(args) -> int:
    check_alphabet(args.d)
    if args.n < 0:
        raise InvariantViolation("word length", f"--n {args.n} is negative")
    size_bound = _resolve_size_bound(args.size_bound)
    suites = []
    seconds = {}  # each suite's time, the interval between two yields
    started = time.perf_counter()
    for name, passed, detail in _suites(args.d, args.n, size_bound):
        seconds[name] = time.perf_counter() - started
        status = "skip" if passed is None else "pass" if passed else "fail"
        suites.append({"name": name, "status": status, "detail": detail})
        started = time.perf_counter()

    if args.format == "json":
        report = {
            "d": args.d,
            "n": args.n,
            "size_bound": size_bound,
            "suites": suites,
        }
        print(json.dumps(report, indent=2))
    else:
        for suite in suites:
            print(f"{suite['status'].upper():4}  {suite['name']}  ({suite['detail']})")
    words = args.d**args.n
    ms = seconds["column normalization"] * 1000 / words
    print(f"info: encode cost {ms:.3f} ms/word over {words} words", file=sys.stderr)
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
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: what is left goes to devnull, so the
        # interpreter's final flush cannot raise again
        with contextlib.suppress(io.UnsupportedOperation):  # no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
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
