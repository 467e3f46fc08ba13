"""Per-layer tracing of the schurweyl package from outside.

:func:`install` wraps every public function of every ``schurweyl`` module
by rebinding each name, in every package module that bound it, to a
timing wrapper; ``Radical.mul``/``Radical.add`` and the ``SWYGraph``
serializers are wrapped on their classes, and the ``json`` functions the
CLI calls are wrapped on the CLI's own ``json`` name.  Module globals are
looked up at call time, so calls between package functions go through
the wrappers too.

Ring operations run millions of times, so no call keeps a span of its
own: spans are aggregated per (span, parent) into call count, inclusive
time and self time (inclusive minus the time of wrapped children).
Layer metrics are derived from that table in :func:`layer_metrics`.
"""

from __future__ import annotations

import inspect
import sys
import time
import types


class Tracer:
    """Aggregated span table plus the counters read off return values."""

    def __init__(self):
        self.stack: list[list] = []
        self.spans: dict[tuple[str, str | None], list] = {}
        self.cache_calls: dict[str, list] = {}  # name -> [hits, misses, miss_s]
        self.ring_results = 0
        self.ring_single_term = 0
        self.ring_max_terms = 0
        self.edge_terms = 0
        self.state_terms = 0
        self.state_width_max = 0
        self.nonzeros = 0
        self.vertices = 0
        self.edges = 0

    def wrap(self, name: str, fn, observe=None):
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        cache_info = getattr(fn, "cache_info", None)
        if cache_info is not None:
            counts = self.cache_calls.setdefault(name, [0, 0, 0.0])

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            if cache_info is not None:
                misses = cache_info().misses
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                row = spans.get((name, parent))
                if row is None:
                    row = spans[(name, parent)] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
            if cache_info is not None:
                if cache_info().misses > misses:
                    counts[1] += 1
                    counts[2] += elapsed
                else:
                    counts[0] += 1
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- observers of return values ------------------------------------

    def _ring(self, result):
        n = len(result.terms)
        self.ring_results += 1
        self.ring_single_term += n == 1
        if n > self.ring_max_terms:
            self.ring_max_terms = n

    def _edge_terms(self, result):
        self.edge_terms += len(result)

    def _state(self, result):
        width = len(result)
        self.state_terms += width
        if width > self.state_width_max:
            self.state_width_max = width

    def _matrix(self, result):
        self.nonzeros += len(result.entries)

    def _graph(self, result):
        self.vertices += len(result.vertices)
        self.edges += len(result.edges)

    # -- derived sums over the span table ------------------------------

    def calls(self, names) -> int:
        return sum(row[0] for (name, _), row in self.spans.items() if name in names)

    def inclusive(self, names) -> float:
        """Time inside the outermost span of any of ``names``."""
        return sum(
            row[1]
            for (name, parent), row in self.spans.items()
            if name in names and parent not in names
        )

    def self_time(self, prefix: str) -> float:
        return sum(
            row[2] for (name, _), row in self.spans.items() if name.startswith(prefix)
        )

    def table(self, limit: int = 25) -> list[str]:
        """The spans with the most self time, one line each."""
        rows = sorted(self.spans.items(), key=lambda item: -item[1][2])[:limit]
        lines = [f"{'span':<40} {'parent':<32} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
        for (name, parent), (calls, total, own) in rows:
            lines.append(f"{name:<40} {parent or '-':<32} {calls:>9} {total:>9.3f} {own:>9.3f}")
        return lines

    def hit_ratio(self, name: str) -> float:
        hits, misses, _ = self.cache_calls.get(name, (0, 0, 0.0))
        return hits / (hits + misses) if hits + misses else 0.0


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield obj


def package_modules(package: str = "schurweyl") -> list[types.ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def install(tracer: Tracer) -> None:
    """Route every public package function through ``tracer``."""
    modules = package_modules()
    observers = {
        "branching.branch_up": tracer._edge_terms,
        "branching.branch_down": tracer._edge_terms,
        "branching.branch_up_state": tracer._state,
        "branching.branch_down_state": tracer._state,
        "transform.schur_matrix": tracer._matrix,
        "graph.build": tracer._graph,
    }
    replacements = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for fn in _public_functions(module):
            name = f"{short}.{fn.__name__}"
            replacements[id(fn)] = tracer.wrap(name, fn, observers.get(name))
    for module in modules:
        namespace = vars(module)
        for attr, obj in list(namespace.items()):
            if id(obj) in replacements:
                namespace[attr] = replacements[id(obj)]

    mods = {module.__name__.rpartition(".")[2]: module for module in modules}
    radical = mods["radicals"].Radical
    for method in ("mul", "add"):
        original = getattr(radical, method)
        setattr(radical, method, tracer.wrap(f"radicals.Radical.{method}", original, tracer._ring))
    graph_cls = mods["graph"].SWYGraph
    for method in ("to_json_obj", "to_dot"):
        original = getattr(graph_cls, method)
        setattr(graph_cls, method, tracer.wrap(f"graph.SWYGraph.{method}", original))
    cli = mods["cli"]
    cli.json = types.SimpleNamespace(
        loads=tracer.wrap("json.loads", cli.json.loads),
        dumps=tracer.wrap("json.dumps", cli.json.dumps),
    )


VALIDATE = {
    "tableaux.check_partition",
    "tableaux.validate_gt",
    "tableaux.validate_path",
    "tableaux.validate_weyl",
    "branching.validate_triplet",
}
CONVERT = {
    "tableaux.gt_to_weyl",
    "tableaux.path_to_syt",
    "tableaux.syt_to_path",
    "tableaux.weyl_to_gt",
}
ENUMERATE = {
    "tableaux.enumerate_gt",
    "tableaux.enumerate_paths",
    "tableaux.enumerate_syt",
    "tableaux.enumerate_weyl",
    "tableaux.partitions",
}
JSON_IN = {"json.loads", "transform.state_from_json_obj"}
JSON_OUT = {
    "json.dumps",
    "transform.computational_to_json_obj",
    "transform.state_to_json_obj",
}


def layer_metrics(t: Tracer, cache_entries: int, stdout_bytes: int,
                  overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    louck = t.cache_calls.get("amplitudes.louck_amplitude", (0, 0, 0.0))
    return {
        "radicals.mul_calls": t.calls({"radicals.Radical.mul"}),
        "radicals.add_calls": t.calls({"radicals.Radical.add"}),
        "radicals.squarefree_calls": t.calls({"radicals.squarefree_decompose"}),
        "radicals.self_s": t.self_time("radicals."),
        "radicals.single_term_ratio": (
            t.ring_single_term / t.ring_results if t.ring_results else 0.0
        ),
        "radicals.max_terms": t.ring_max_terms,
        "tableaux.validate_calls": t.calls(VALIDATE),
        "tableaux.validate_s": t.inclusive(VALIDATE),
        "tableaux.convert_calls": t.calls(CONVERT),
        "tableaux.convert_s": t.inclusive(CONVERT),
        "tableaux.enumerate_s": t.inclusive(ENUMERATE),
        "amplitudes.louck_calls": t.calls({"amplitudes.louck_amplitude"}),
        "amplitudes.louck_hit_ratio": t.hit_ratio("amplitudes.louck_amplitude"),
        "amplitudes.louck_miss_s": louck[2],
        "amplitudes.up_transitions_hit_ratio": t.hit_ratio("amplitudes.up_transitions"),
        "amplitudes.down_transitions_hit_ratio": t.hit_ratio("amplitudes.down_transitions"),
        "amplitudes.self_s": t.self_time("amplitudes."),
        "amplitudes.cache_entries": cache_entries,
        "branching.branch_up_calls": t.calls({"branching.branch_up"}),
        "branching.branch_down_calls": t.calls({"branching.branch_down"}),
        "branching.branch_up_s": t.inclusive({"branching.branch_up"}),
        "branching.branch_down_s": t.inclusive({"branching.branch_down"}),
        "branching.terms_generated": t.edge_terms,
        "branching.merge_yield": t.state_terms / t.edge_terms if t.edge_terms else 0.0,
        "branching.state_width_max": t.state_width_max,
        "transform.encode_calls": t.calls({"transform.encode"}),
        "transform.encode_s": t.inclusive({"transform.encode"}),
        "transform.decode_s": t.inclusive({"transform.decode"}),
        "transform.schur_matrix_s": t.inclusive({"transform.schur_matrix"}),
        "transform.verify_unitary_s": t.inclusive({"transform.verify_unitary"}),
        "transform.nonzeros": t.nonzeros,
        "transform.json_in_s": t.inclusive(JSON_IN),
        "transform.json_out_s": t.inclusive(JSON_OUT),
        "graph.build_s": t.inclusive({"graph.build"}),
        "graph.vertices": t.vertices,
        "graph.edges": t.edges,
        "graph.to_json_s": t.inclusive({"graph.SWYGraph.to_json_obj"}),
        "graph.to_dot_s": t.inclusive({"graph.SWYGraph.to_dot"}),
        "cli.main_s": t.self_time("cli."),
        "cli.stdout_bytes": stdout_bytes,
        "trace.overhead_ratio": overhead_ratio,
    }
