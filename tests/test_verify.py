"""The theorem-check registry and its mutation-detection behavior."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aggroupoids import canonical, verify
from aggroupoids.congruences import Congruence, EquivRelation, is_congruence
from aggroupoids.errors import AlgebraError, BoundExceeded
from aggroupoids.magma import parse_mag


def test_registry_integrity():
    checks = verify.checks()
    ids = [c.check_id for c in checks]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 30
    for c in checks:
        assert c.check_id.startswith("thm-")
        assert c.statement
        assert c.universe


def test_every_universe_has_an_entry_and_a_check():
    used = {c.universe for c in verify.checks()}
    assert used == set(verify._UNIVERSES)


def test_trivial_bound_passes():
    results = verify.run_all(bound=1)
    assert len(results) == len(verify.checks())
    assert all(r.passed for r in results)


def test_small_bound_passes_everything():
    results = verify.run_all(bound=2)
    assert all(r.passed for r in results)
    assert all(r.detail == "" for r in results)
    by_id = {r.check_id: r for r in results}
    assert by_id["thm-kernel-trace"].instances > 0
    assert by_id["thm-dual-census-agreement"].instances == 1


def test_battery_passes_under_optimize_flag():
    # -O strips assert statements, so no check may depend on one firing
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "aggroupoids.cli", "verify", "--order", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(verify.checks())
    assert all(line.startswith("ok thm-") for line in lines)


def test_library_has_no_assert_statements():
    # theorems live in the battery, and -O must not change what runs
    package = Path(__file__).resolve().parents[1] / "src" / "aggroupoids"
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_the_constructing_modules_trust_a_congruence():
    # Congruence._trusted skips the compatibility test; the battery builds
    # its own congruences with the validating constructor, so no check
    # body trusts the code it checks
    package = Path(__file__).resolve().parents[1] / "src" / "aggroupoids"
    callers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_trusted"
    }
    assert callers
    assert callers <= {"congruences.py", "lattice.py", "canonical.py"}


def test_only_selects_a_single_check():
    results = verify.run_all(bound=2, only="thm-mu-least-semilattice")
    assert len(results) == 1
    assert results[0].check_id == "thm-mu-least-semilattice"
    assert results[0].passed


def test_only_rejects_unknown_ids():
    with pytest.raises(AlgebraError):
        verify.run_all(bound=2, only="thm-nonexistent")


def test_bound_gate():
    with pytest.raises(BoundExceeded):
        verify.run_all(bound=5)
    with pytest.raises(BoundExceeded):
        verify.run_all(bound=0)


def test_corrupted_component_formula_is_detected(monkeypatch):
    """Grouping by the square instead of the idempotent square must be
    caught by the scan of the exhaustively enumerated lattice."""

    def corrupted(g):
        key = {a: g.mul(a, a) for a in g.elements}
        pairs = [
            (a, b) for a in g.elements for b in g.elements if key[a] == key[b]
        ]
        return Congruence(g, EquivRelation.from_pairs(g.order, pairs))

    monkeypatch.setattr(canonical, "max_idempotent_separating", corrupted)
    results = verify.run_all(bound=4, only="thm-mu-least-semilattice")
    assert len(results) == 1
    assert not results[0].passed
    # the detail replays as a table: a count line then count table rows
    lines = results[0].detail.splitlines()
    sizes = [int(line) for line in lines if line.strip().isdigit()]
    assert sizes and all(size >= 1 for size in sizes)


def test_a_trusted_site_that_lies_is_detected(monkeypatch):
    """mu is built with Congruence._trusted, so a grouping that is not a
    congruence no longer raises; the battery must still catch it."""
    grouped = canonical._grouped_by_idempotent
    lies = []

    def lying(g, label):
        # merge the last element into the class of the first
        rel = grouped(g, label)
        merged = EquivRelation.from_keys(rel.block_of[:-1] + (0,))
        if is_congruence(g, merged):
            return rel
        lies.append(g)
        return merged

    monkeypatch.setattr(canonical, "_grouped_by_idempotent", lying)
    (result,) = verify.run_all(bound=3, only="thm-mu-greatest-idempotent-separating")
    assert lies
    assert not result.passed


def test_mutation_does_not_leak_between_runs():
    results = verify.run_all(bound=2, only="thm-mu-least-semilattice")
    assert results[0].passed


def test_a_raising_check_fails_and_the_rest_still_run(monkeypatch):
    index = next(
        i
        for i, (tc, _) in enumerate(verify._REGISTRY)
        if tc.check_id == "thm-mu-least-semilattice"
    )
    tc, _ = verify._REGISTRY[index]

    def crashing(ctx):
        raise ZeroDivisionError("boom")

    registry = list(verify._REGISTRY)
    registry[index] = (tc, crashing)
    monkeypatch.setattr(verify, "_REGISTRY", registry)
    results = verify.run_all(bound=2)
    assert len(results) == len(verify.checks())
    by_id = {r.check_id: r for r in results}
    crashed = by_id.pop("thm-mu-least-semilattice")
    assert not crashed.passed
    assert crashed.detail == "ZeroDivisionError: boom"
    assert all(r.passed for r in by_id.values())


def test_a_raising_check_body_reports_its_table(monkeypatch):
    def crashing(rho):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(canonical, "trace_max", crashing)
    (result,) = verify.run_all(bound=2, only="thm-fundamental-fixed-point")
    assert not result.passed
    assert result.instances == 1
    first, *table = result.detail.splitlines()
    assert first == "ZeroDivisionError: boom"
    assert parse_mag("\n".join(table)).order == 1


def test_a_raising_engine_check_reports_without_a_table(monkeypatch):
    def crashing(spec, **options):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(verify, "census", crashing)
    results = verify.run_all(bound=2)
    by_id = {r.check_id: r for r in results}
    crashed = by_id.pop("thm-dual-census-agreement")
    assert not crashed.passed
    assert crashed.instances == 1
    assert crashed.detail == "ZeroDivisionError: boom"  # an order, no table
    assert len(by_id) == len(verify.checks()) - 1
    assert all(r.passed for r in by_id.values())
