"""The benchmark's own checks: the lattice oracle, the gates, the input
generator and the tracer.

    python3 -m pytest perfbench/tests
"""

import os
import shutil
import subprocess
import sys
import time

import pytest

import child
import workloads
from tracer import Tracer

from aggroupoids import EnumerationSpec, all_congruences, format_partition
from aggroupoids import canonical, enumeration, lattice, magma, structure, verify
from aggroupoids.samples import inverse_monoid4


def _blocks(text):
    return workloads.parse_blocks(text)


def test_oracle_finds_the_five_congruences_of_inverse_monoid4():
    g = inverse_monoid4()
    found = workloads.oracle_congruences(g.names, g.table)
    assert len(found) == 5
    listed = {_blocks(format_partition(c.rel, g.names)) for c in all_congruences(g).congruences}
    assert found == listed


def test_oracle_agrees_with_all_congruences_on_generated_tables():
    from aggroupoids.magma import Groupoid

    for names, rows, _ in workloads.lattice_inputs(seed=7, count=6):
        g = Groupoid(names, tuple(tuple(r) for r in rows))
        listed = {_blocks(format_partition(c.rel, names)) for c in all_congruences(g).congruences}
        assert workloads.oracle_congruences(names, rows) == listed


def test_lattice_gate_rejects_a_missing_congruence():
    g = inverse_monoid4()
    gate = workloads._lattice_gate("congruences", g.names, g.table)
    report = all_congruences(g)
    lines = [f"{i}: {format_partition(c.rel, g.names)}  [-]" for i, c in enumerate(report.congruences)]
    assert gate(0, "\n".join(lines) + "\n") == (1, 0, "")
    tried, failed, _ = gate(0, "\n".join(lines[:-1]) + "\n")
    assert (tried, failed) == (1, 1)
    assert gate(2, "")[1] == 1


def test_census_gate_counts_classes():
    ops = {op.label: op for op in workloads.census_ops(seed=3)}
    op = ops["enumerate --order 4 --class ag-group"]
    four = "\n".join("1\n0\n0\n" for _ in range(4))
    assert op.gate(0, four)[1] == 0
    assert op.gate(0, four + "\n1\n0\n0\n")[1] == 1


def test_lattice_inputs_depend_on_the_seed_only_through_names_and_order():
    first = workloads.lattice_inputs(seed=1, count=8)
    assert first == workloads.lattice_inputs(seed=1, count=8)
    second = workloads.lattice_inputs(seed=2, count=8)
    assert [names for names, _, _ in first] != [names for names, _, _ in second]
    counts = [
        [(len(rows), inverse, len(workloads.oracle_congruences(names, rows))) for names, rows, inverse in tables]
        for tables in (first, second)
    ]
    assert counts[0] == counts[1]
    assert any(not inverse for _, _, inverse in workloads.lattice_inputs(seed=1))


def test_tracer_wraps_the_classify_that_enumeration_calls():
    original = magma.classify
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = magma.classify
        assert wrapped is not original
        for module in (enumeration, lattice, canonical, structure, verify):
            assert module.classify is wrapped
        # through the module attribute: a name imported into this file
        # before install still holds the original
        enumeration.enumerate_groupoids(EnumerationSpec(3, "completely-inverse"), strategy="filter")
        calls, self_s, kept = tracer.stats["magma.classify"]
        assert calls > 0 and self_s > 0 and 0 < kept <= calls
        assert tracer.stats["enumeration.enumerate_groupoids"][2] == 6
    finally:
        tracer.uninstall()
    assert magma.classify is original and enumeration.classify is original


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_the_outer_duration():
    tracer = Tracer(targets=())
    inner = tracer.wrap("inner", lambda: _spin(0.02))

    def body():
        _spin(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    start = time.perf_counter()
    outer()
    elapsed = time.perf_counter() - start
    assert tracer.stats["inner"][0] == 2
    assert tracer.stats["inner"][1] >= 0.04
    assert 0.01 <= tracer.stats["outer"][1] < 0.02
    assert tracer.self_total() == pytest.approx(elapsed, rel=0.05)


def test_speed_samples_taken_during_an_op_are_not_counted_in_it():
    def run_op(argv):
        start = time.perf_counter()
        _spin(0.2)
        return 0, "", "", time.perf_counter() - start

    ops = [workloads.Op("spin", (), lambda rc, out: (1, 0, ""))]
    with child.SpeedSampler() as sampler:
        outputs, reference_s = child.run_pass(ops, run_op, sampler)
    ticks = sampler.samples[: len(sampler.samples) - child.BURST]
    assert len(ticks) >= 5
    assert outputs[0][3] + sum(ticks) == pytest.approx(0.2, rel=0.02)
    assert reference_s[0] > 0


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(workloads.__file__.rsplit(os.sep, 1)[0], tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
