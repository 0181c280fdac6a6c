"""The theorem-check registry and its mutation-detection behavior."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aggroupoids import canonical, congruences, magma, verify
from aggroupoids.congruences import Congruence, EquivRelation, is_congruence
from aggroupoids.errors import AlgebraError, BoundExceeded
from aggroupoids.magma import format_mag, parse_mag


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


def test_only_the_runner_formats_a_counterexample():
    # a check body returns its finding alone; _each attaches the table,
    # so no body can pair a finding with the wrong carrier
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    imports, sites = 0, []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.alias) and node.name == "format_mag":
                imports += 1
            elif (isinstance(node, ast.Name) and node.id == "format_mag") or (
                isinstance(node, ast.Attribute) and node.attr == "format_mag"
            ):
                sites.append(getattr(stmt, "name", type(stmt).__name__))
    assert imports == 1
    assert sites == ["_each"]
    assert not [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.FunctionDef) and node.name == "_bad")
        or (isinstance(node, ast.Name) and node.id == "_bad")
    ]


def test_kept_facts_are_stored_only_by_keeps():
    # a frozen object keeps a computed fact only through a magma._kept
    # reader, which stores it in the slot its decorator names
    package = Path(__file__).resolve().parents[1] / "src" / "aggroupoids"

    def stores(node, where):
        for child in ast.iter_child_nodes(node):
            inside = f"{where}.{child.name}" if isinstance(child, ast.ClassDef) else where
            if (
                isinstance(child, ast.Call)
                and ast.unparse(child.func) == "object.__setattr__"
                and len(child.args) == 3
            ):
                name = child.args[1]
                public = isinstance(name, ast.Constant) and not name.value.startswith("_")
                if not public:
                    yield where, ast.unparse(name)
            yield from stores(child, inside)

    found = {
        store
        for path in package.glob("*.py")
        for store in stores(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert found == {("magma", "name")}


def test_the_battery_borrows_no_private_canonical_helper():
    # a check that called canonical's private helpers would share the
    # closed form it checks, so a wrong helper could pass unnoticed
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    private = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "_canonical"
        and node.attr.startswith("_")
    ]
    private += [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "canonical"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


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


@pytest.mark.parametrize(
    "check_id, detail",
    [
        (
            "thm-trace-class-isomorphism",
            "trace class is not the interval between its extreme forms",
        ),
        ("thm-sigma-least-ag-group", "scan finds a different least group congruence"),
        ("thm-group-join-sandwich", "multiplier description fails"),
    ],
)
def test_a_wrong_least_idempotent_is_detected(monkeypatch, check_id, detail):
    """sigma, its join and trace_min group by a least idempotent; the
    battery checks each against a definition that uses no such helper."""
    monkeypatch.setattr(canonical, "_least_idempotent", lambda g, ids: max(ids))
    (result,) = verify.run_all(bound=3, only=check_id)
    assert not result.passed
    _assert_finding_then_table(result.detail, detail)


def _assert_finding_then_table(detail, finding):
    """The detail is the finding on one line, then exactly one table."""
    first, rest = detail.split("\n", 1)
    assert finding in first
    assert format_mag(parse_mag(rest)).rstrip() == rest


def _identity_congruence(g):
    return Congruence(g, EquivRelation.identity(g.order))


def _own_inverses(g):
    # wrong on the cyclic group of order 3
    return tuple(g.elements)


@pytest.mark.parametrize(
    "module, name, mutant, check_id, detail",
    [
        (
            canonical,
            "least_e_unitary",
            lambda g: canonical.max_idempotent_separating(g),
            "thm-pi-least-e-unitary",
            "scan finds a different least unitary congruence",
        ),
        (
            canonical,
            "max_idempotent_pure",
            _identity_congruence,
            "thm-tau-largest-idempotent-pure",
            "scan finds a different largest pure congruence",
        ),
        (
            canonical,
            "kernel_max",
            lambda c: c,
            "thm-kernel-class-interval",
            "kernel class is not the expected interval",
        ),
        (
            canonical,
            "max_idempotent_separating",
            _identity_congruence,
            "thm-unitary-family-decomposition",
            "is not the full interval",
        ),
        (
            congruences,
            "from_kernel_trace",
            lambda g, K, tau: Congruence(g, EquivRelation.universal(g.order)),
            "thm-congruence-pair-bijection",
            "the kernel-trace rule is not an equivalence",
        ),
        (
            magma,
            "require_completely_inverse",
            _own_inverses,
            "thm-sigma-least-ag-group",
            "quotient-by-inverse criterion fails",
        ),
        (
            magma,
            "require_completely_inverse",
            _own_inverses,
            "thm-trace-class-isomorphism",
            "the trace-least rule is not an equivalence",
        ),
        (
            magma,
            "require_completely_inverse",
            _own_inverses,
            "thm-semilattice-join-sandwich",
            "square description fails",
        ),
        (
            magma,
            "require_completely_inverse",
            _own_inverses,
            "thm-central-idempotents-criterion",
            "centrality criterion fails",
        ),
        (
            # no idempotents: every carrier's idempotents are central
            verify,
            "idempotents",
            lambda g: (),
            "thm-central-idempotents-give-commutative",
            "central idempotents but not a commutative semigroup",
        ),
    ],
)
def test_a_wrong_operator_fails_the_check_that_reads_it(
    monkeypatch, module, name, mutant, check_id, detail
):
    """Each check built on an extremality, interval, exact-relation or
    centrality helper fails with its own message when an operator it
    reads is wrong."""
    monkeypatch.setattr(module, name, mutant)
    (result,) = verify.run_all(bound=3, only=check_id)
    assert not result.passed
    _assert_finding_then_table(result.detail, detail)


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
