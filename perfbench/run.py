"""Benchmark runner: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload census|lattice|battery \
        --seed N --seconds S --trace 0|1

Run it from the repository root; it builds nothing and imports the
package from ``src``. Each pass runs in a fresh interpreter
(``child.py``), single-process (``workers=None``) and without ``-O``.
Passes repeat until the next one would overrun ``--seconds``; at least
one always runs. Set-up is also timed in a few extra interpreters that
stop after building their inputs, so ``setup_s`` is a median of several.

Every reported time is scaled to one machine speed: each pass also
times a fixed reference job during its ops (``child.SpeedSampler``) and
scales each op's time by REFERENCE_S over the reference job's median time
while that op ran. Speed on a shared machine drifts by up to a factor of
two over minutes, and the scaled times cancel that drift; the measured
times are printed too, and kept in the run record.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``. Before it come the run record
(``record {...}``: seed, versions, pass counts, output digest, quartiles
over passes) and one line per metric. Exit status is 0 when a result was
printed, 1 when a pass could not run, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-up-only interpreters per run, after one warm-up
HARD_LIMIT_S = 170  # a run that takes longer is abandoned
REFERENCE_S = 0.0003  # nominal time of workloads.reference_job


class PassFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload, seed, mode, deadline):
    """Run one pass; set-up time runs from just before the interpreter
    starts to the first timed op, both read from the monotonic clock."""
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), mode],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{mode} pass exceeded the {HARD_LIMIT_S} s limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"{mode} pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - spawned
    result["elapsed_s"] = time.perf_counter() - spawned
    return result


def quantile(values, share):
    """Linear interpolation between order statistics; 0 <= share <= 1."""
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def quartiles(values):
    return [quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)]


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed, seconds, trace):
    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    run_child(workload, seed, "setup", hard_deadline)  # warm-up: bytecode and file caches
    setups = [run_child(workload, seed, "setup", hard_deadline) for _ in range(SETUP_SAMPLES)]
    modes = ("run", "trace") if trace else ("run",)
    passes = {mode: [] for mode in modes}
    longest = {mode: 0.0 for mode in modes}
    while True:
        for mode in modes:
            result = run_child(workload, seed, mode, hard_deadline)
            passes[mode].append(result)
            longest[mode] = max(longest[mode], result["elapsed_s"])
        if time.perf_counter() + sum(longest.values()) > start + seconds:
            return setups, passes


def summarize(workload, seed, seconds, trace):
    setups, passes = measure(workload, seed, seconds, trace)
    every = [p for mode_passes in passes.values() for p in mode_passes]
    digests = {p["digest"] for p in every}
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    correct = failed == 0 and len(digests) == 1 and all(p["optimize"] == 0 for p in every)
    runs = passes["run"]

    measured = {
        "setup_s": [p["setup_s"] for p in setups + runs],
        "wall_s": [p["wall_s"] for p in runs],
        "op_p50_ms": [quantile(p["op_s"], 0.5) * 1000 for p in runs],
        "op_p90_ms": [quantile(p["op_s"], 0.9) * 1000 for p in runs],
    }
    scaled_ops = [
        [t * REFERENCE_S / ref for t, ref in zip(p["op_s"], p["op_reference_s"])] for p in runs
    ]
    samples = {
        "setup_s": [p["setup_s"] * REFERENCE_S / p["setup_reference_s"] for p in setups + runs],
        "wall_s": [sum(ops) for ops in scaled_ops],
        "op_p50_ms": [quantile(ops, 0.5) * 1000 for ops in scaled_ops],
        "op_p90_ms": [quantile(ops, 0.9) * 1000 for ops in scaled_ops],
        "peak_rss_mb": [p["peak_rss_kb"] / 1024 for p in runs],
    }
    units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
    metrics = {name: (statistics.median(values), units[name]) for name, values in samples.items()}
    if trace:
        traced = passes["trace"]
        correct = correct and all(p["self_sum_ok"] for p in traced)
        metrics = layer_metrics(traced, statistics.median(measured["wall_s"]))
        samples["trace.self_sum_gap"] = [p["self_sum_gap"] for p in traced]

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "cold": True,
        "workers": None,
        "optimize": sorted({p["optimize"] for p in every}),
        "passes": {mode: len(p) for mode, p in passes.items()},
        "setup_samples": len(samples["setup_s"]),
        "digest": sorted(digests),
        "reference_s": quartiles([ref for p in runs for ref in p["op_reference_s"]]),
        "quartiles": {name: quartiles(values) for name, values in samples.items()},
        "measured_quartiles": {name: quartiles(values) for name, values in measured.items()},
    }
    notes = [note for p in every for note in p["notes"]]
    return correct, attempted, failed, metrics, record, notes


def layer_metrics(traced, untraced_wall):
    """Calls and self time per traced function, the yield ratios, and
    the tracing overhead, from the traced passes of one run."""
    def stat(name, field):
        return statistics.median(p["trace"][name][field] for p in traced)

    metrics = {}
    for module_name, fn_name in TARGETS:
        name = f"{module_name}.{fn_name}"
        metrics[f"{name}.calls"] = (stat(name, 0), "count")
        metrics[f"{name}.self_s"] = (stat(name, 1), "s")

    def ratio(kept, attempts):
        return kept / attempts if attempts else 0.0

    metrics["lattice.congruence_yield"] = (
        ratio(stat("lattice.all_congruences", 2), stat("congruences.is_congruence", 0)), "ratio")
    metrics["enumeration.fold_yield"] = (
        ratio(stat("enumeration.enumerate_groupoids", 2), stat("enumeration.canonical_table", 0)), "ratio")
    metrics["magma.filter_yield"] = (
        ratio(stat("magma.classify", 2), stat("magma.classify", 0)), "ratio")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="aggroupoids benchmark runner")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "aggroupoids")):
        print("error: src/aggroupoids not found; run from a checkout of the repository", file=sys.stderr)
        return 1
    try:
        correct, attempted, failed, metrics, record, notes = summarize(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass
    for note in notes:
        print(note, file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value} {unit}")
    for name, (_, median, _) in record["measured_quartiles"].items():
        print(f"{args.workload} measured {name} {median} {name.rsplit('_', 1)[1]}")
    print(f"{args.workload} fail_ratio {failed / attempted if attempted else 1.0} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
