"""The benchmark's workloads: inputs made from a seed, the timed ops,
and the correctness gate of each op.

Every op is one ``cli.main`` call. A gate never calls the package: the
census counts are pinned here, the lattice answers are checked against
this file's own scan of every partition, and the battery reports its own
verdicts. The gates run outside the timed region.

The package is imported inside the functions that need it, so that
run.py can read WORKLOADS in a directory without the package.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("census", "lattice", "battery")

# Order-4 counts are the README census table; the order-5 ag-group and
# completely-inverse counts are the values pinned in the test suite.
CENSUS_SPECS = (
    (("--order", "4", "--class", "ag"), 331),
    (("--order", "4", "--class", "ag-star-star"), 101),
    (("--order", "4", "--class", "ag-band"), 6),
    (("--order", "4", "--class", "ag-group"), 4),
    (("--order", "4", "--class", "completely-inverse", "--strategy", "filter"), 20),
    (("--order", "5", "--class", "ag-group"), 2),
    (("--order", "5", "--class", "completely-inverse"), 63),
)

LATTICE_TABLES = 66
STRUCTURE_SEED = 0
BATTERY_ORDER = 4

# Element names for the lattice tables; each table draws a shuffled subset.
NAME_POOL = tuple("abcdefghijkmnpqrstuvwxyz") + tuple(f"x{i}" for i in range(10))


@dataclass(frozen=True)
class Op:
    """One timed ``cli.main`` call and the gate for its result.

    ``gate(rc, stdout)`` returns (checks attempted, checks failed, note).
    """

    label: str
    argv: tuple[str, ...]
    gate: Callable[[int, str], tuple[int, int, str]]


# --- tables as plain (names, rows) pairs, independent of the package ---


def partitions(n):
    """Every partition of range(n) as a restricted-growth label tuple."""
    labels = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(labels)
            return
        for v in range(used + 1):
            labels[i] = v
            yield from rec(i + 1, used + (v == used))

    if n:
        yield from rec(1, 1)


def compatible(rows, labels):
    """Is the partition closed under left and right translations?"""
    n = len(rows)
    for c in range(n):
        row = rows[c]
        left, right = {}, {}
        for x in range(n):
            key = labels[x]
            if left.setdefault(key, labels[row[x]]) != labels[row[x]]:
                return False
            product = rows[x][c]
            if right.setdefault(key, labels[product]) != labels[product]:
                return False
    return True


def block_set(labels, names):
    """A partition as a set of name sets, the form the gates compare."""
    blocks = {}
    for x, label in enumerate(labels):
        blocks.setdefault(label, set()).add(names[x])
    return frozenset(frozenset(b) for b in blocks.values())


def oracle_congruences(names, rows):
    """Every congruence of the table, by scanning all partitions."""
    return {
        block_set(labels, names)
        for labels in partitions(len(rows))
        if compatible(rows, labels)
    }


# The reference job: fixed pure-Python work of the same kind as the
# package's (tuple indexing, dict lookups, generators), timed next to the
# ops so that times can be scaled to one machine speed.
REFERENCE_NAMES = tuple("abcde")
REFERENCE_ROWS = tuple(tuple(min(a, b) for b in range(5)) for a in range(5))


def reference_job():
    return len(oracle_congruences(REFERENCE_NAMES, REFERENCE_ROWS))


def parse_blocks(text):
    return frozenset(frozenset(block.split()) for block in text.split(" | "))


def format_table(names, rows):
    lines = [str(len(names)), " ".join(names)]
    lines.extend(" ".join(names[v] for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# --- census ---


def census_ops(seed):
    def gate_for(expected):
        def gate(rc, out):
            found = len([b for b in out.split("\n\n") if b.strip()])
            if rc != 0 or found != expected:
                return 1, 1, f"exit {rc}, {found} classes, expected {expected}"
            return 1, 0, ""

        return gate

    ops = [
        Op("enumerate " + " ".join(tail), ("enumerate",) + tail, gate_for(expected))
        for tail, expected in CENSUS_SPECS
    ]
    random.Random(seed).shuffle(ops)
    return ops


# --- lattice ---


def _relabel(group, prefix):
    from aggroupoids.magma import Groupoid

    return Groupoid(tuple(f"{prefix}{x}" for x in group.elements), group.table)


def _sample_group(rng, size):
    from aggroupoids import samples

    kind = rng.choice(("subtraction", "cyclic"))
    make = samples.subtraction_mod if kind == "subtraction" else samples.cyclic_group
    return kind, make(size)


def _down_map(rng, upper, lower):
    """A homomorphism between two sampled AG-groups: reduction mod the
    smaller order when the kinds match and the order divides, else the
    constant map onto the left identity 0."""
    (kind_u, g_u), (kind_l, g_l) = upper, lower
    if kind_u == kind_l and g_u.order % g_l.order == 0 and rng.random() < 0.6:
        return tuple(x % g_l.order for x in g_u.elements)
    return (0,) * g_u.order


def _sizes(rng, n, parts):
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def _strong_semilattice(rng, n):
    """A seeded strong semilattice of sampled AG-groups of total order n,
    over a chain or over the three-element vee."""
    from aggroupoids import samples
    from aggroupoids.structure import StrongSemilattice

    shape = rng.choice(("chain", "chain", "vee")) if n >= 3 else "chain"
    parts = 3 if shape == "vee" else rng.randint(1, n)
    groups = [_sample_group(rng, size) for size in _sizes(rng, n, parts)]
    maps = {(i, i): tuple(range(groups[i][1].order)) for i in range(parts)}
    if shape == "vee":
        y = samples.vee_semilattice()
        for top in (1, 2):
            maps[(top, 0)] = _down_map(rng, groups[top], groups[0])
    else:
        # chain_semilattice is min, so i > j means j lies below i; the
        # map from i down to j composes the consecutive steps
        y = samples.chain_semilattice(parts)
        for i in range(1, parts):
            step = _down_map(rng, groups[i], groups[i - 1])
            for j in range(i):
                below = maps[(i - 1, j)] if i - 1 > j else None
                maps[(i, j)] = step if below is None else tuple(below[v] for v in step)
    components = tuple(_relabel(g, f"c{i}_") for i, (_, g) in enumerate(groups))
    triples = tuple((i, j, images) for (i, j), images in sorted(maps.items()))
    return StrongSemilattice(y, components, triples)


def _with_null_factor(rows, k):
    """Direct product with the k-element null table (every product is
    its element 0): left invertive, never completely inverse."""
    n = len(rows)
    return [
        [rows[a][b] * k for b in range(n) for _ in range(k)]
        for a in range(n)
        for _ in range(k)
    ]


def lattice_inputs(seed, count=LATTICE_TABLES):
    """Tables of order 5 and 6 as (names, rows, completely_inverse),
    built with structure.compose and never with enumeration.

    The structures are one fixed draw, so every seed asks for the same
    algebra and costs the same; the seed sets the element names and the
    element order of each table.
    """
    from aggroupoids.structure import compose

    shapes = random.Random(STRUCTURE_SEED)
    rng = random.Random(seed)
    tables = []
    for _ in range(count):
        if shapes.random() < 0.1:
            k = shapes.choice((2, 3))
            rows = _with_null_factor(compose(_strong_semilattice(shapes, 6 // k)).table, k)
            inverse = False
        else:
            rows = [list(row) for row in compose(_strong_semilattice(shapes, shapes.choice((5, 6)))).table]
            inverse = True
        n = len(rows)
        place = rng.sample(range(n), n)  # element x moves to position place[x]
        shuffled = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                shuffled[place[a]][place[b]] = place[rows[a][b]]
        tables.append((tuple(rng.sample(NAME_POOL, n)), shuffled, inverse))
    return tables


def _lattice_gate(command, names, rows):
    expected = oracle_congruences(names, rows)

    def listed(out):
        if command == "congruences":
            return [line.split(": ", 1)[1].rsplit("  [", 1)[0] for line in out.splitlines()]
        if command == "lattice":
            body = out.split("congruences:\n", 1)[1].split("meet:\n", 1)[0]
            return [line.split(": ", 1)[1] for line in body.splitlines()]
        return [line.split(": ", 1)[1] for line in out.splitlines()]

    def gate(rc, out):
        if rc != 0:
            return 1, 1, f"exit {rc}"
        try:
            found = [parse_blocks(text) for text in listed(out)]
        except IndexError:
            return 1, 1, "unparsable output"
        if command == "analyze":
            ok = len(found) == 4 and set(found) <= expected
        else:
            ok = len(found) == len(expected) and set(found) == expected
        return 1, 0 if ok else 1, "" if ok else f"{len(found)} listed, oracle has {len(expected)}"

    return gate


def lattice_ops(seed, workdir):
    """Writes one .mag file per table into workdir; ops are shuffled."""
    ops = []
    for i, (names, rows, inverse) in enumerate(lattice_inputs(seed)):
        path = os.path.join(workdir, f"t{i:02d}.mag")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(format_table(names, rows))
        commands = ("congruences", "lattice", "analyze") if inverse else ("congruences", "lattice")
        ops.extend(
            Op(f"{command} t{i:02d}", (command, path), _lattice_gate(command, names, rows))
            for command in commands
        )
    random.Random(seed).shuffle(ops)
    return ops


# --- battery ---


def battery_ops(seed):
    """The whole battery is one call; the seed has no effect because the
    universe is exhaustive. Each check counts as one attempted op."""
    from aggroupoids.verify import checks

    expected = len(checks())

    def gate(rc, out):
        lines = out.splitlines()
        failed = sum(1 for line in lines if line.startswith("FAIL "))
        passed = sum(1 for line in lines if line.startswith("ok "))
        if rc != 0 or passed + failed != expected:
            return expected, max(failed, expected - passed), f"exit {rc}, {passed} ok of {expected}"
        return expected, failed, ""

    return [Op(f"verify --order {BATTERY_ORDER}", ("verify", "--order", str(BATTERY_ORDER)), gate)]


def make_ops(workload, seed, workdir):
    if workload == "census":
        return census_ops(seed)
    if workload == "lattice":
        return lattice_ops(seed, workdir)
    return battery_ops(seed)
