"""Acceptance runs. Each test prints one criterion line with its timing.

The criteria run against the full enumerated universe at their stated
budgets. A failing line carries the first mismatch so the run can be
replayed by hand.
"""

import contextlib
import io
import time

import pytest

from aggroupoids import (
    EnumerationSpec,
    EquivRelation,
    all_congruences,
    are_isomorphic,
    census,
    classify,
    compose,
    congruence_generated_by,
    congruence_pair_of,
    decompose,
    enumerate_groupoids,
    from_kernel_trace,
    fundamental_congruences,
    idempotents,
    is_modular_sublattice,
    kernel,
    kernel_max,
    kernel_min,
    max_idempotent_pure,
    max_idempotent_separating,
    parse_mag,
    trace,
    trace_class,
    trace_homomorphism,
    trace_max,
    trace_min,
    upward_closure,
)
from aggroupoids import cli
from aggroupoids.canonical import least_ag_group_congruence, least_e_unitary
from aggroupoids.errors import NotCompletelyInverse
from aggroupoids.lattice import commuting_check
from aggroupoids.magma import same_operation
from aggroupoids.samples import collapsing_strong_semilattice
from aggroupoids.verify import run_all

F1_TEXT = """4
a b e f
e e a a
e f a b
a a e e
a b e f
"""


def _finish(capsys, label, started, budget, problems):
    elapsed = time.perf_counter() - started
    window = f"{elapsed:.2f}s" + (f", budget {budget:.0f}s" if budget else "")
    status = "pass" if not problems and (budget is None or elapsed < budget) else "FAIL"
    with capsys.disabled():
        print(f"\n{label}: {status} ({window})")
    if problems:
        pytest.fail(problems[0])
    if budget is not None:
        assert elapsed < budget


def _ci_universe(max_order, strategies=("filter",)):
    seen = {}
    for n in range(1, max_order + 1):
        for strategy in strategies:
            spec = EnumerationSpec(n, "completely-inverse")
            for g in enumerate_groupoids(spec, strategy=strategy):
                seen.setdefault((g.names, g.table), g)
    return list(seen.values())


@pytest.fixture(scope="module")
def ci_reports():
    universe = _ci_universe(4, strategies=("filter", "synthesis"))
    return [(g, all_congruences(g)) for g in universe]


def test_criterion_1_running_example_operators(capsys):
    started = time.perf_counter()
    problems = []
    g = parse_mag(F1_TEXT)
    rho = congruence_generated_by(g, [(g.index("a"), g.index("e"))])
    tau = max_idempotent_pure(g)
    if tau.partition_text() != "a b | e f":
        problems.append(f"largest pure congruence is {tau.partition_text()}")
    image = kernel_max(rho)
    # the oracle reads the largest congruence with rho's kernel off the
    # exhaustive lattice, independently of the syntactic construction
    same_kernel = [
        c for c in all_congruences(g).congruences if kernel(c) == kernel(rho)
    ]
    greatest = [
        c.partition_text()
        for c in same_kernel
        if all(d.rel.leq(c.rel) for d in same_kernel)
    ]
    if greatest != ["a e | b | f"]:
        problems.append(
            "largest congruence with the kernel of a e | b | f in the lattice: "
            f"expected a e | b | f, found {greatest}"
        )
    if image.partition_text() != "a e | b | f":
        problems.append(
            "kernel-greatest image of a e | b | f: expected a e | b | f, "
            f"computed {image.partition_text()}"
        )
    if tau.rel.meet(image.rel) != EquivRelation.identity(4):
        problems.append("the meet with the largest pure congruence is not trivial")
    _finish(capsys, "criterion 1", started, 1.0, problems)


def test_criterion_2_kernel_trace_reconstruction(capsys):
    started = time.perf_counter()
    problems = []
    for g in _ci_universe(4, strategies=("filter", "synthesis")):
        report = all_congruences(g)
        size = len(report.congruences)
        for c in report.congruences:
            if from_kernel_trace(g, congruence_pair_of(c)).rel != c.rel:
                problems.append(f"reconstruction misses {c.partition_text()}")
        kernels = [kernel(c) for c in report.congruences]
        traces = [trace(c) for c in report.congruences]
        for i in range(size):
            for j in range(size):
                direct = report.leq(i, j)
                transfer = kernels[i] <= kernels[j] and traces[i].leq(traces[j])
                if direct != transfer:
                    problems.append(
                        f"containment transfer fails at pair ({i}, {j}) on a "
                        f"table of order {g.order}"
                    )
        if problems:
            break
    _finish(capsys, "criterion 2", started, 60.0, problems)


def test_criterion_3_canonical_extremality(capsys, ci_reports):
    started = time.perf_counter()
    problems = []
    for g, report in ci_reports:
        size = range(len(report.congruences))
        markers = report.markers

        def extreme(indices, least):
            for i in indices:
                rows = (report.leq(i, j) for j in indices) if least else (
                    report.leq(j, i) for j in indices
                )
                if all(rows):
                    return i
            return None

        separating = [i for i in size if markers[i].idempotent_separating]
        semilattice = [i for i in size if markers[i].semilattice]
        groups = [i for i in size if markers[i].ag_group]
        pure = [i for i in size if markers[i].idempotent_pure]
        unitary = [i for i in size if markers[i].e_unitary]

        mu = report.index_of(max_idempotent_separating(g).rel)
        sigma = report.index_of(least_ag_group_congruence(g).rel)
        tau = report.index_of(max_idempotent_pure(g).rel)
        pi = report.index_of(least_e_unitary(g).rel)
        ids = idempotents(g)
        checks = (
            (mu == extreme(separating, least=False), "greatest separating"),
            (mu == extreme(semilattice, least=True), "least semilattice"),
            (sigma == extreme(groups, least=True), "least group"),
            (
                kernel(report.congruences[sigma]) == upward_closure(g, ids),
                "group kernel is the idempotent closure",
            ),
            (tau == extreme(pure, least=False), "greatest pure"),
            (pi == extreme(unitary, least=True), "least unitary"),
        )
        for ok, what in checks:
            if not ok:
                problems.append(f"{what} fails on a table of order {g.order}")
    _finish(capsys, "criterion 3", started, 120.0, problems)


def test_criterion_4_structure_round_trip(capsys):
    started = time.perf_counter()
    problems = []
    for n in range(1, 6):
        spec = EnumerationSpec(n, "completely-inverse")
        for g in enumerate_groupoids(spec, strategy="synthesis"):
            rebuilt = compose(decompose(g))
            if not (same_operation(g, rebuilt) and are_isomorphic(g, rebuilt)):
                problems.append(f"round trip changed a table of order {n}")
    # the decomposition must fail on exactly the tables outside the class
    pool = []
    for n in range(1, 5):
        pool.extend(enumerate_groupoids(EnumerationSpec(n, "ag-star-star")))
    for n in range(1, 4):
        pool.extend(enumerate_groupoids(EnumerationSpec(n, "ag")))
    for g in pool:
        complete = classify(g).is_completely_inverse
        try:
            decompose(g)
            accepted = True
        except NotCompletelyInverse:
            accepted = False
        if accepted != complete:
            problems.append(
                f"decomposition {'accepted' if accepted else 'rejected'} "
                f"a table of order {g.order} wrongly"
            )
    _finish(capsys, "criterion 4", started, None, problems)


def test_criterion_5_lattice_laws(capsys, ci_reports):
    started = time.perf_counter()
    problems = []
    for g, report in ci_reports:
        size = len(report.congruences)
        separating = [
            i for i in range(size) if report.markers[i].idempotent_separating
        ]
        modular, witness = is_modular_sublattice(report, separating)
        if not (modular and commuting_check(report, separating)):
            problems.append(f"separating interval fails on order {g.order}")
        for class_members in {trace_class(report, i) for i in range(size)}:
            modular, witness = is_modular_sublattice(report, class_members)
            if not (modular and commuting_check(report, class_members)):
                problems.append(f"a trace class fails on order {g.order}")

        hom = trace_homomorphism(g)
        target = hom.target
        if set(hom.image) != set(range(len(target.congruences))):
            problems.append(f"trace map not onto on order {g.order}")
        for i in range(size):
            for j in range(size):
                if hom.image[report.meet(i, j)] != target.meet(
                    hom.image[i], hom.image[j]
                ) or hom.image[report.join(i, j)] != target.join(
                    hom.image[i], hom.image[j]
                ):
                    problems.append(f"trace map not a lattice map on order {g.order}")

        fundamental = fundamental_congruences(report)
        images = [hom.image[i] for i in fundamental]
        if sorted(images) != list(range(len(target.congruences))):
            problems.append(f"fixed points do not mirror the trace lattice")
        for a in fundamental:
            for b in fundamental:
                if report.leq(a, b) != target.leq(hom.image[a], hom.image[b]):
                    problems.append("fixed point mirror is not an order isomorphism")

        for c in report.congruences:
            if trace_min(c).rel.join(kernel_min(c).rel) != c.rel:
                problems.append(f"join decomposition fails on order {g.order}")
            if trace_max(c).rel.meet(kernel_max(c).rel) != c.rel:
                problems.append(f"meet decomposition fails on order {g.order}")
        if problems:
            break
    _finish(capsys, "criterion 5", started, 120.0, problems)


def test_criterion_6_e_unitary_battery(capsys):
    started = time.perf_counter()
    problems = []
    collapse = compose(collapsing_strong_semilattice())
    if classify(collapse).is_e_unitary:
        problems.append("the collapsing fixture must not be E-unitary")
    for check_id in (
        "thm-final-equivalence-battery",
        "thm-e-unitary-battery",
        "thm-unitary-iff-kernel-closed",
        "thm-e-unitary-closure-sandwich",
    ):
        results = run_all(bound=3, only=check_id)
        if not (len(results) == 1 and results[0].passed):
            problems.append(f"{check_id} failed: {results[0].detail.splitlines()[0]}")
    _finish(capsys, "criterion 6", started, None, problems)


def test_criterion_7_dual_census(capsys):
    started = time.perf_counter()
    problems = []
    counts = {}
    for n in (2, 3, 4):
        spec = EnumerationSpec(n, "completely-inverse")
        filtered = census(spec, strategy="filter")
        synthesized = census(spec, strategy="synthesis")
        counts[n] = filtered
        if filtered != synthesized:
            problems.append(
                f"order {n}: filter {filtered} vs synthesis {synthesized}"
            )
    if counts.get(2) != 2:
        problems.append(f"order 2 census is {counts.get(2)}, expected 2")
    _finish(capsys, "criterion 7", started, 300.0, problems)


def _cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_8_determinism(capsys, tmp_path):
    started = time.perf_counter()
    problems = []
    path = tmp_path / "f1.mag"
    path.write_text(F1_TEXT)
    fixed = [
        ["analyze", str(path)],
        ["lattice", str(path)],
        ["enumerate", "--order", "3", "--class", "completely-inverse"],
        ["verify", "--order", "2"],
    ]
    for argv in fixed:
        if _cli(argv) != _cli(argv):
            problems.append(f"repeated runs differ for {' '.join(argv)}")
    _finish(capsys, "criterion 8", started, None, problems)
