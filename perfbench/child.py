"""One pass of one workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED MODE

MODE is ``setup`` (build the inputs, then stop), ``run`` (one timed pass)
or ``trace`` (one pass with the tracer installed). A fresh interpreter
per pass matters: the enumeration caches persist within a process, and
a command-line user pays to fill them on every invocation. The result is
one JSON object on stdout; the package's own output is captured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from aggroupoids import cli  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Largest share by which the traced self times may miss the traced time
# of set-up and ops; the gap is the wrappers' own bookkeeping.
SELF_SUM_TOLERANCE = 0.05
TICK_S = 0.02  # interval of reference jobs during set-up and ops
BURST = 5  # reference jobs after set-up and after each op


class SpeedSampler:
    """Times workloads.reference_job every TICK_S from a timer signal,
    and in bursts between ops, so each op's time can be scaled by the
    machine's speed while it ran. ``spent`` is the time taken by the
    reference jobs, which the ops' times exclude."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        workloads.reference_job()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def burst(self):
        for _ in range(BURST):
            self.sample()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that raises counts as failed; keep going
            rc = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def run_pass(ops, run_op, sampler):
    """Each op's time excludes the reference jobs that interrupted it; its
    reference time is the median of those jobs and the burst after it."""
    outputs, reference_s = [], []
    for op in ops:
        first, spent = len(sampler.samples), sampler.spent
        rc, out, err, elapsed = run_op(op.argv)
        elapsed -= sampler.spent - spent
        sampler.burst()
        outputs.append((rc, out, err, elapsed))
        reference_s.append(statistics.median(sampler.samples[first:]))
    return outputs, reference_s


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if mode == "trace" else None
    # the tracer's self times are raw, so traced passes take no samples
    sampler = SpeedSampler() if tracer is None else contextlib.nullcontext(None)
    try:
        with sampler:
            make_ops, run_op = workloads.make_ops, call
            if tracer is not None:
                tracer.install()
                make_ops = tracer.wrap("bench.setup", make_ops)
                run_op = tracer.wrap("bench.op", call)
            build_start = time.perf_counter()
            ops = make_ops(workload, seed, workdir)
            setup_done = time.perf_counter()
            result = {"setup_done": setup_done, "build_s": setup_done - build_start}
            if tracer is None:
                result["setup_done"] -= sampler.spent  # the ticks are not set-up
                sampler.burst()
                result["setup_reference_s"] = statistics.median(sampler.samples)
            if mode == "setup":
                return result
            if tracer is None:
                outputs, result["op_reference_s"] = run_pass(ops, run_op, sampler)
            else:
                outputs = [run_op(op.argv) for op in ops]
                tracer.uninstall()
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        attempted = failed = 0
        notes = []
        digest = hashlib.sha256()
        for op, (rc, out, err, _) in sorted(zip(ops, outputs), key=lambda pair: pair[0].label):
            digest.update(f"{op.label}\0{out}\0".encode())
            tried, bad, note = op.gate(rc, out)
            attempted += tried
            failed += bad
            if bad and len(notes) < 5:
                notes.append(f"{op.label}: {note} {err.strip()[-300:]}".strip())
        op_s = [elapsed for _, _, _, elapsed in outputs]
        result.update(
            wall_s=sum(op_s),
            op_s=op_s,
            attempted=attempted,
            failed=failed,
            notes=notes,
            digest=digest.hexdigest(),
            peak_rss_kb=peak_kb,
            optimize=sys.flags.optimize,
        )
        if tracer is not None:
            traced_total = result["build_s"] + result["wall_s"]
            gap = abs(tracer.self_total() - traced_total) / traced_total
            result.update(
                trace={name: stat for name, stat in tracer.stats.items() if not name.startswith("bench.")},
                self_sum_gap=gap,
                self_sum_ok=gap <= SELF_SUM_TOLERANCE,
            )
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
