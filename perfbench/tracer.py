"""Per-function call counts and self times, recorded from outside the
package.

The package imports functions by name (``classify`` is bound in
``enumeration``, ``lattice``, ``canonical``, ``structure`` and
``verify``), so wrapping the defining module alone would miss most
calls. ``Tracer.install`` replaces every attribute of every loaded
``aggroupoids`` module that holds a traced function. A function's self
time is its duration minus the time spent in traced calls it made.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs, one layer per module.
TARGETS = (
    ("enumeration", "enumerate_groupoids"),
    ("enumeration", "canonical_table"),
    ("magma", "check_identity"),
    ("magma", "classify"),
    ("magma", "require_completely_inverse"),
    ("magma", "parse_mag"),
    ("magma", "format_mag"),
    ("congruences", "is_congruence"),
    ("congruences", "quotient"),
    ("congruences", "kernel"),
    ("congruences", "trace"),
    ("congruences", "syntactic_congruence"),
    ("congruences", "congruence_generated_by"),
    ("lattice", "all_congruences"),
    ("lattice", "format_lattice_report"),
    ("canonical", "canonical_suite"),
    ("canonical", "trace_max"),
    ("canonical", "kernel_max"),
    ("canonical", "least_ag_group_congruence"),
    ("canonical", "max_idempotent_separating"),
    ("canonical", "ag_group_closure"),
    ("structure", "compose"),
    ("structure", "natural_order"),
    ("structure", "congruence_of_normal"),
    ("verify", "run_all"),
    ("cli", "main"),
)

# Results counted as "kept" for the yield ratios.
KEEP = {
    "magma.classify": lambda report: int(report.is_completely_inverse),
    "lattice.all_congruences": lambda report: len(report.congruences),
    "enumeration.enumerate_groupoids": len,
}

PACKAGE = "aggroupoids"


class Tracer:
    """Wraps the TARGETS; ``stats[name]`` is [calls, self seconds, kept]."""

    def __init__(self, targets=TARGETS, keep=KEEP):
        self.targets = targets
        self.keep = keep
        self.stats: dict[str, list] = {}
        self._open: list[float] = []  # traced child time of each open call
        self._replaced: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, keep=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        open_calls = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_calls.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = open_calls.pop()
                stat[0] += 1
                stat[1] += elapsed - inner
                if open_calls:
                    open_calls[-1] += elapsed
            if keep is not None:
                stat[2] += keep(result)
            return result

        return traced

    def install(self):
        for module_name, fn_name in self.targets:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, fn_name)
            name = f"{module_name}.{fn_name}"
            wrapper = self.wrap(name, original, self.keep.get(name))
            for loaded in list(sys.modules.values()):
                if loaded is None or not (
                    loaded.__name__ == PACKAGE or loaded.__name__.startswith(PACKAGE + ".")
                ):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
                        self._replaced.append((loaded, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def self_total(self) -> float:
        return sum(stat[1] for stat in self.stats.values())
