"""Self-test of the benchmark harness.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` names exactly the workloads and metrics
that ``run.py`` produces, and that the traced run of every workload is
deterministic: the same seed gives the same inputs and the same exact
counts and ratios (state widths, transform nonzeros, graph edges, ring
operation counts, ...), and another seed gives other inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

SEED = 11


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    """(info, result) of one traced run in a child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def exact(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in ("count", "ratio") and name != "trace.overhead_ratio"
    }


def main() -> int:
    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if not {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json names a workload that workloads.WORKLOADS lacks")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()
    }:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")

    for name in workloads.WORKLOADS:
        info_a, result_a = traced(name, SEED)
        info_b, result_b = traced(name, SEED)
        info_c, _ = traced(name, SEED + 1)
        for result in (result_a, result_b):
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}: {result['failed']} failed ops")
        if info_a["inputs_sha256"] != info_b["inputs_sha256"]:
            problems.append(f"{name}: one seed gave two different inputs")
        if info_a["inputs_sha256"] == info_c["inputs_sha256"]:
            problems.append(f"{name}: two seeds gave the same inputs")
        counts_a, counts_b = exact(result_a), exact(result_b)
        for metric in counts_a:
            if counts_a[metric] != counts_b[metric]:
                problems.append(
                    f"{name}: {metric} reads {counts_a[metric]} then {counts_b[metric]}"
                )
        print(f"{name}: {len(counts_a)} exact metrics repeat; "
              f"state_width_max={counts_a['branching.state_width_max']} "
              f"nonzeros={counts_a['transform.nonzeros']} "
              f"edges={counts_a['graph.edges']} "
              f"mul_calls={counts_a['radicals.mul_calls']}")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
