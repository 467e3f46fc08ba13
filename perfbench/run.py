"""Benchmark of the schurweyl package, driven through its command line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 40 --trace 0

One thread, one closed-loop client: every op calls ``schurweyl.cli.main``
in-process with redirected stdio and the next op starts when it returns.
``--trace 0`` measures the end-to-end metrics in ``WORKERS`` worker
processes (this script with ``--worker``) run one after another, with
times scaled to a reference CPU speed (see :func:`timed_scaled`);
``--trace 1`` replays a fixed prefix of the ops in this process, first
untraced and then traced, and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A measured run is split over this many worker processes, run one after
# another; each sets up once, and setup_s is the median of their set-ups.
WORKERS = 8
WORKER_TIMEOUT_S = 150
# A CPU's speed is the median of PROBES runs of a loop of PROBE_LOOPS steps.
PROBES = 5
PROBE_LOOPS = 20_000
# Timings are scaled to the speed at which that median is this long: about
# the fastest the probe ran on a quiet 2-CPU virtual machine with Python 3.11.
PROBE_REFERENCE_S = 1.3e-3
# The info line carries a digest of this many leading ops of the input.
INPUT_DIGEST_OPS = 300

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric: (unit, end-to-end metric it should move, on which workload).
PER_LAYER = {
    "radicals.mul_calls": ("count", "work_per_s", "check"),
    "radicals.add_calls": ("count", "work_per_s", "check"),
    "radicals.squarefree_calls": ("count", "work_per_s", "check"),
    "radicals.self_s": ("s", "work_per_s", "check"),
    "radicals.single_term_ratio": ("ratio", "work_per_s", "check"),
    "radicals.max_terms": ("count", "work_per_s", "check"),
    "tableaux.validate_calls": ("count", "latency_ms_p50", "roundtrip, check"),
    "tableaux.validate_s": ("s", "latency_ms_p50", "roundtrip, check"),
    "tableaux.convert_calls": ("count", "latency_ms_p50", "roundtrip, check"),
    "tableaux.convert_s": ("s", "latency_ms_p50", "roundtrip, check"),
    "tableaux.enumerate_s": ("s", "work_per_s", "graph"),
    "amplitudes.louck_calls": ("count", "work_per_s", "graph"),
    "amplitudes.louck_hit_ratio": ("ratio", "work_per_s", "graph"),
    "amplitudes.louck_miss_s": ("s", "work_per_s", "graph"),
    "amplitudes.up_transitions_hit_ratio": ("ratio", "work_per_s", "graph"),
    "amplitudes.down_transitions_hit_ratio": ("ratio", "work_per_s", "graph"),
    "amplitudes.self_s": ("s", "work_per_s", "graph"),
    "amplitudes.cache_entries": ("count", "peak_rss_mb", "graph"),
    "branching.branch_up_calls": ("count", "latency_ms_p50", "roundtrip"),
    "branching.branch_down_calls": ("count", "latency_ms_p50", "roundtrip"),
    "branching.branch_up_s": ("s", "latency_ms_p50", "roundtrip"),
    "branching.branch_down_s": ("s", "latency_ms_p50", "roundtrip"),
    "branching.terms_generated": ("count", "latency_ms_p90", "roundtrip"),
    "branching.merge_yield": ("ratio", "latency_ms_p90", "roundtrip"),
    "branching.state_width_max": ("count", "latency_ms_p90", "roundtrip"),
    "transform.encode_calls": ("count", "work_per_s", "check"),
    "transform.encode_s": ("s", "work_per_s", "check"),
    "transform.decode_s": ("s", "work_per_s", "roundtrip"),
    "transform.schur_matrix_s": ("s", "work_per_s", "check"),
    "transform.verify_unitary_s": ("s", "work_per_s", "check"),
    "transform.nonzeros": ("count", "work_per_s", "check"),
    "transform.json_in_s": ("s", "latency_ms_p50", "roundtrip"),
    "transform.json_out_s": ("s", "latency_ms_p50", "roundtrip"),
    "graph.build_s": ("s", "work_per_s", "graph"),
    "graph.vertices": ("count", "work_per_s", "graph"),
    "graph.edges": ("count", "work_per_s", "graph"),
    "graph.to_json_s": ("s", "work_per_s", "graph"),
    "graph.to_dot_s": ("s", "work_per_s", "graph"),
    "cli.main_s": ("s", "latency_ms_p50", "roundtrip"),
    "cli.stdout_bytes": ("count", "latency_ms_p50", "roundtrip"),
    "trace.overhead_ratio": ("ratio", "latency_ms_p50", "roundtrip"),
}


def import_cli():
    """Import the package afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "schurweyl" or n.startswith("schurweyl.")]:
        del sys.modules[name]
    cli = importlib.import_module("schurweyl.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"schurweyl imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload_cls, seed: int, tmp: Path):
    gc.collect()
    started = time.perf_counter()
    cli = import_cli()
    caches = workloads.Caches(tracer.package_modules())
    caches.clear()
    workload = workload_cls(cli, caches, seed, tmp)
    workload.warm_up()
    return workload, time.perf_counter() - started


def probe() -> float:
    """Seconds a fixed loop of pure Python takes, about 2 ms."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def probe_cpus(cpus: list[int]) -> dict[int, float]:
    """The median of ``PROBES`` runs of :func:`probe` on each CPU, now."""
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = statistics.median(probe() for _ in range(PROBES))
    return speeds


def pin_fastest(speeds: dict[int, float]) -> int:
    """Pin this process to the CPU whose probe was fastest, and return it.

    On a shared 2-CPU virtual machine other tenants slow one CPU at a time,
    for seconds to minutes (a loop took 22 ms on one CPU and 30 ms on the
    other for minutes on end).
    """
    cpu = min(speeds, key=speeds.__getitem__)
    os.sched_setaffinity(0, {cpu})
    return cpu


def timed_scaled(run, cpus: list[int]):
    """(result of ``run()``, scale): ``run`` on the fastest CPU, probed around.

    ``scale`` is ``PROBE_REFERENCE_S`` over the mean of the probes on that
    CPU just before and just after: times multiplied by it read as if the
    CPU had run at the reference speed throughout.
    """
    speeds = probe_cpus(cpus)
    cpu = pin_fastest(speeds)
    result = run()
    after = probe_cpus([cpu])[cpu]
    return result, PROBE_REFERENCE_S / ((speeds[cpu] + after) / 2)


def run_ops(workload, ops, after=None) -> list:
    results = []
    for op in ops:
        if workload.cold:
            gc.collect()
        results.append(workload.execute(op))
        if after is not None:
            after()
    return results


def measure(workload, seconds: float, skip_rounds: int, min_ops: int, cpus: list[int]):
    """(op, its results, their scale) for whole rounds, and the number of rounds.

    The rounds start after the first ``skip_rounds`` of the workload and
    go on until ``seconds`` have passed and at least ``min_ops`` ops ran.
    Each op runs ``workload.repeats`` times in a row, by :func:`timed_scaled`.
    """
    ops = []
    rounds = itertools.islice(workload.rounds(), skip_rounds, None)
    started = time.perf_counter()
    for count, round_ in enumerate(rounds, 1):
        for op in round_:
            results, scale = timed_scaled(lambda: run_ops(workload, [op] * workload.repeats), cpus)
            ops.append((op, results, scale))
        if len(ops) >= min_ops and time.perf_counter() - started >= seconds:
            return ops, count


def worker(args, cpus: list[int]) -> dict:
    """One worker process: set up once, measure its share of the rounds."""
    skip_rounds, seconds, min_ops = json.loads(args.worker)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        (workload, setup_s), setup_scale = timed_scaled(
            lambda: set_up(workloads.WORKLOADS[args.workload], args.seed, tmp), cpus
        )
        ops, rounds = measure(workload, seconds, skip_rounds, min_ops, cpus)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "rounds": rounds,
        "ops": [(op, [asdict(r) for r in results], scale) for op, results, scale in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_unit": workload.work_unit,
        "inputs_sha256": hashlib.sha256(
            json.dumps(workload.prefix(INPUT_DIGEST_OPS)).encode()
        ).hexdigest(),
    }


def run_workers(args) -> tuple[list[tuple], list[dict]]:
    """(op, its results, their scale) over all workers, and what each worker reported.

    ``WORKERS`` worker processes run one after another, each on the
    rounds after those of the workers before it and for an equal share of
    what is left of ``--seconds``, counted from the start of the first.
    """
    ops, reports = [], []
    started = time.perf_counter()
    min_ops = workloads.WORKLOADS[args.workload].min_ops
    for i in range(WORKERS):
        remaining = args.seconds - (time.perf_counter() - started)
        share = [
            sum(report["rounds"] for report in reports),
            max(0.0, remaining / (WORKERS - i)),
            max(1, min_ops - len(ops)) if i == WORKERS - 1 else 1,
        ]
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--worker", json.dumps(share)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            raise RuntimeError(f"worker {i} ended with {proc.returncode}")
        report = json.loads(proc.stdout.splitlines()[-1])
        ops.extend(
            (op, [workloads.OpResult(**r) for r in results], scale)
            for op, results, scale in report["ops"]
        )
        reports.append(report)
    return ops, reports


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def fast_quartile(values: list[float]) -> float:
    """The value at the first quarter of ``values`` ordered from low to high."""
    ordered = sorted(values)
    return ordered[-(-len(ordered) // 4) - 1]


def end_to_end(ops: list[tuple], reports: list[dict], scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; ``scaled`` times are at the reference CPU speed.

    A shared 2-CPU virtual machine changes speed under the benchmark: other
    tenants slow both CPUs by up to 25% for minutes, one CPU by up to 80%
    from one second to the next (one cold graph build took from 0.84 to
    1.39 s), and one process runs a few percent faster or slower than the
    next for the same work.  A slower program, by contrast, slows every
    timing of an input at any CPU speed.  So each timing is scaled by the
    probes around it (:func:`timed_scaled`), every input is timed more
    than once (each word twice in a row on ``roundtrip``; each size in
    every round and in several worker processes on ``check`` and
    ``graph``), and an op's latency is the fast quartile of the scaled
    timings of its input (the lower of two, the third lowest of twelve).
    The figures are then taken over the ops: work per second of summed
    latency, and percentiles of latency.
    """
    timings: dict[str, list[float]] = {}
    for op, results, scale in ops:
        timings.setdefault(json.dumps(op), []).extend(
            r.latency_s * (scale if scaled else 1) for r in results
        )
    latency = {key: fast_quartile(values) for key, values in timings.items()}
    latencies = [latency[json.dumps(op)] for op, _, _ in ops]
    work = sum(min(r.work for r in results) for _, results, _ in ops)
    return {
        "setup_s": statistics.median(
            report["setup_s"] * (report["setup_scale"] if scaled else 1) for report in reports
        ),
        "work_per_s": work / sum(latencies),
        "latency_ms_p50": percentile(latencies, 50) * 1000,
        "latency_ms_p90": percentile(latencies, 90) * 1000,
        "peak_rss_mb": max(report["peak_rss_mb"] for report in reports),
    }


def per_layer(workload) -> tuple[list, dict[str, float]]:
    ops = workload.prefix(workload.trace_ops)
    # a warm workload first fills its caches for exactly these ops, so
    # that the untraced and the traced pass find the same caches
    warm = [] if workload.cold else run_ops(workload, ops)
    plain = run_ops(workload, ops)
    trace = tracer.Tracer()
    tracer.install(trace)
    peak_entries = []
    traced = run_ops(
        workload,
        ops,
        after=lambda: peak_entries.append(workload.caches.entries("schurweyl.amplitudes")),
    )
    metrics = tracer.layer_metrics(
        trace,
        cache_entries=max(peak_entries),
        stdout_bytes=sum(r.stdout_bytes for r in traced),
        overhead_ratio=sum(r.latency_s for r in traced) / sum(r.latency_s for r in plain),
    )
    print("\n".join(trace.table()), file=sys.stderr)
    return warm + plain + traced, metrics


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # [rounds to skip, seconds, least ops]: run as one worker of a measured run
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "schurweyl" / "__init__.py").is_file():
        print(f"error: no schurweyl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cpus = sorted(os.sched_getaffinity(0))
    if args.worker:
        print(json.dumps(worker(args, cpus)))
        return 0
    if args.trace:
        tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
        try:
            workload, _ = set_up(workloads.WORKLOADS[args.workload], args.seed, tmp)
            results, metrics = per_layer(workload)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        processes = 1
        work_unit = workload.work_unit
        inputs = hashlib.sha256(json.dumps(workload.prefix(INPUT_DIGEST_OPS)).encode()).hexdigest()
    else:
        ops, reports = run_workers(args)
        results = [r for _, op_results, _ in ops for r in op_results]
        metrics = end_to_end(ops, reports)
        for name, value in end_to_end(ops, reports, scaled=False).items():
            if END_TO_END[name] in ("s", "ms", "1/s"):
                print(f"unscaled {name} = {value} {END_TO_END[name]}")
        units = END_TO_END
        processes = len(reports)
        work_unit = reports[0]["work_unit"]
        inputs = reports[0]["inputs_sha256"]

    failed = [r.error for r in results if r.error is not None]
    for error in failed[:5]:
        print(f"failed op: {error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"error_rate = {len(failed) / len(results)} ({len(failed)} of {len(results)} ops)")
    info = {
        "workload": args.workload,
        "work_unit": work_unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(results),
        "processes": processes,
        "inputs_sha256": inputs,
        "python": platform.python_version(),
        "git": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
