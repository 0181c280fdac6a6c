"""Run-to-run spread of every metric over several seeds.

    python3 perfbench/spread.py --workload lattice --seeds 1-10 \
        [--seconds S] [--trace 0] [--out FILE]

Runs ``run.py`` once per seed, one after another, and prints for each
metric its quartiles over the runs and the interquartile range as a
share of the median. Later changes compare against these quartiles: a
metric whose change is smaller than its spread is unresolved, not
unchanged. With ``--out`` the runs and quartiles are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def default_seconds():
    """run_seconds from BENCHMARK.json, the run length the bounds were set for."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            return json.load(handle)["run_seconds"]
    except (OSError, KeyError, ValueError):
        return 40


def seed_list(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return record, json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=default_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    runs = []
    for seed in seed_list(args.seeds):
        record, result = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append({"record": record, "result": result})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                          if not k.endswith((".calls", ".self_s")))
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} passes={record['passes']} {values}", flush=True)
    spreads = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spreads[name] = {
            "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "unit": runs[0]["result"]["metrics"][name]["unit"],
        }
        if not name.endswith((".calls", ".self_s")):
            share = spreads[name]["spread"]
            print(f"{args.workload} {name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {share if share is None else round(share, 4)}")
    digests = {d for r in runs for d in r["record"]["digest"]}
    print(f"{args.workload}: {len(digests)} distinct output digests over {len(runs)} runs")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                       "spreads": spreads, "runs": runs}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
