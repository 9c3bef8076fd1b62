"""Traced runs: spans and counts recorded around the library's public functions.

``install`` replaces module and class attributes of ``nsg`` (for example
``nsg.oracle.naive_closure`` and ``NumericalSemigroup.apery_set``) with
wrappers that open a span, call the original and close the span, so calls
made inside the library are caught too.  Spans stay in memory and are written
out when the run ends.  A layer's time is its self time: the span's duration
minus the part its child spans cover, so the layer times add up instead of
counting nested work twice.

Wrappers see only the process they run in.  Work done inside pool workers is
invisible; only the pool's start-up and the reports it returns are counted in
the parent.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from pathlib import Path
from typing import Callable

# The end-to-end metric each per-layer metric should move, and on which
# workloads ("no change" lists the workloads where it must not move).  The
# metrics' names and units are those of BENCHMARK.json.
PREDICTIONS: dict[str, str] = {
    "core.build.calls": "wall_s on analyze-large, construct",
    "core.build_s": "wall_s on analyze-large, construct",
    "core.build.gens_in": "wall_s on analyze-large, construct",
    "core.table_cells": "peak_rss_mb on analyze-large",
    "core.apery.calls": "item_tail_ms, wall_s on analyze-large",
    "core.apery_s": "item_tail_ms, wall_s on analyze-large",
    "core.pf_s": "item_tail_ms, wall_s on analyze-large",
    "core.symmetric_s": "item_tail_ms, wall_s on analyze-large",
    "families.build_s": "wall_s on verify-serial, verify-parallel (grid enumeration)",
    "constructions.duplicate.calls": "wall_s on construct",
    "constructions.duplicate_s": "wall_s on construct",
    "constructions.glue_s": "wall_s on construct",
    "constructions.ideal_s": "wall_s on construct",
    "constructions.closed_form_s": "wall_s on construct",
    "oracle.closure.calls": "wall_s, items_per_s on verify-*; no change on analyze-large",
    "oracle.closure.cells": "wall_s, items_per_s on verify-*; no change on analyze-large",
    "oracle.closure_s": "wall_s, items_per_s on verify-*; no change on analyze-large",
    "oracle.frobenius.calls": "wall_s, items_per_s on verify-*; no change on analyze-large",
    "oracle.frobenius_s": "wall_s, items_per_s on verify-*; no change on analyze-large",
    "oracle.pf_s": "wall_s, items_per_s on verify-*; no change on analyze-large",
    "oracle.stats_s": "wall_s, items_per_s on verify-*; no change on analyze-large",
    "oracle.dup_stats_s": "wall_s, items_per_s on verify-*; no change on analyze-large",
    "oracle.distinct_semigroups": "base of oracle.closures_per_distinct",
    "oracle.closures_per_distinct": "wall_s on verify-serial",
    "oracle.check_s": "wall_s on verify-parallel; no change on verify-serial",
    "oracle.harness_s": "wall_s on verify-parallel; no change on verify-serial",
    "oracle.pool_starts": "wall_s on verify-parallel; no change on verify-serial",
    "oracle.pool_start_s": "wall_s on verify-parallel; no change on verify-serial",
    "cli.record_s": "wall_s on analyze-large, construct (small share)",
    "cli.emit_s": "wall_s on verify-serial, verify-parallel (small share)",
}


class Tracer:
    """Spans as [name, start, end, parent index, run id], plus counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: set[tuple[int, ...]] = set()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time covered by direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def metrics(self, units: dict[str, str]) -> dict[str, float]:
        """Every per-layer metric; ``units`` maps each name to its unit.  A
        ``<span>_s`` metric is the self time of the spans named ``<span>``."""
        selfs = self.self_times()
        out = {}
        for name, unit in units.items():
            if unit == "s":
                out[name] = selfs.get(name.removesuffix("_s"), 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        out["oracle.distinct_semigroups"] = len(self.distinct)
        calls = out["oracle.closure.calls"]
        out["oracle.closures_per_distinct"] = calls / len(self.distinct) if self.distinct else 0.0
        out["oracle.check_s"] = self.counts.get("oracle.check_s", 0.0)
        out["oracle.harness_s"] = self.counts.get("oracle.harness_s", 0.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trun_id\n")
            for name, start, end, parent, run_id in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run_id}\n")


def _spanned(tracer: Tracer, name: str, func: Callable, after: Callable | None = None) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public functions of every layer; returns the function that undoes it."""
    from concurrent.futures import ProcessPoolExecutor

    from nsg import cli, constructions as cons, core, families as fam, oracle

    undo: list[tuple[object, str, object]] = []
    counts = tracer.counts

    def patch(owner: object, attr: str, name: str, after: Callable | None = None) -> None:
        orig = owner.__dict__[attr]
        undo.append((owner, attr, orig))
        if isinstance(orig, functools.cached_property):
            new = functools.cached_property(_spanned(tracer, name, orig.func, after))
            new.__set_name__(owner, attr)
        else:
            new = _spanned(tracer, name, orig, after)
        setattr(owner, attr, new)

    def count(key: str) -> Callable:
        return lambda args, result: counts.update((key,))

    # core
    orig_init = core.NumericalSemigroup.__init__

    def build(self, gens):
        gens = tuple(gens)
        counts["core.build.calls"] += 1
        counts["core.build.gens_in"] += len(gens)
        idx = tracer.open("core.build")
        try:
            orig_init(self, gens)
        finally:
            tracer.close(idx)
        counts["core.table_cells"] += self.frobenius + self.multiplicity + 1

    undo.append((core.NumericalSemigroup, "__init__", orig_init))
    core.NumericalSemigroup.__init__ = build
    patch(core.NumericalSemigroup, "apery_set", "core.apery", count("core.apery.calls"))
    patch(core.NumericalSemigroup, "pf_profile", "core.pf")
    patch(core.NumericalSemigroup, "pf_set", "core.pf")
    patch(core.NumericalSemigroup, "is_symmetric", "core.symmetric")

    # families: constructors and closed forms
    for attr in (
        "gas_semigroup", "backelin_semigroup", "bresinsky_semigroup",
        "uniform_type_family", "staircase_min_type_family",
        "gas_pf_closed", "gas_frobenius_closed", "gas_type_closed",
        "gas_maximal_predicate", "gas_minimal_predicate",
        "bresinsky_pf_closed", "bresinsky_frobenius_closed",
        "backelin_pf_closed", "backelin_frobenius_closed",
        "uniform_type_pf_closed", "staircase_pf_closed",
    ):
        patch(fam, attr, "families.build")

    # constructions
    patch(cons, "duplicate", "constructions.duplicate", count("constructions.duplicate.calls"))
    for attr in ("glue", "nice_extension", "max_coeff_sum"):
        patch(cons, attr, "constructions.glue")
    patch(cons.SemigroupIdeal, "__init__", "constructions.ideal")
    patch(cons.SemigroupIdeal, "kind", "constructions.ideal")
    patch(cons.SemigroupIdeal, "tilde", "constructions.ideal")
    patch(cons.SemigroupIdeal, "ambient_outside_tilde", "constructions.ideal")
    for attr in (
        "gluing_pf", "gluing_frobenius_closed", "gluing_maximal_sufficient",
        "nice_extension_maximal_iff", "duplication_pf", "duplication_type_closed",
        "duplication_min_classifier", "duplication_max_self", "duplication_max_star",
    ):
        patch(cons, attr, "constructions.closed_form")

    # oracle
    def closure_done(args, table):
        counts["oracle.closure.calls"] += 1
        counts["oracle.closure.cells"] += len(table)
        tracer.distinct.add(tuple(sorted(set(args[0]))))

    patch(oracle, "naive_closure", "oracle.closure", closure_done)
    patch(oracle, "naive_frobenius", "oracle.frobenius", count("oracle.frobenius.calls"))
    for attr in ("naive_pf", "naive_pf_full", "naive_reduced_type"):
        patch(oracle, attr, "oracle.pf")
    patch(oracle, "naive_stats", "oracle.stats")
    patch(oracle, "naive_duplication_stats", "oracle.dup_stats")

    pool_workers = [1]

    class CountingPool(ProcessPoolExecutor):
        """Counts pool start-ups; times construction and the map call that forks the workers."""

        def __init__(self, max_workers=None, *args, **kwargs):
            counts["oracle.pool_starts"] += 1
            pool_workers[0] = max_workers or 1
            idx = tracer.open("oracle.pool_start")
            try:
                super().__init__(max_workers, *args, **kwargs)
            finally:
                tracer.close(idx)

        def map(self, *args, **kwargs):
            idx = tracer.open("oracle.pool_start")
            try:
                return super().map(*args, **kwargs)
            finally:
                tracer.close(idx)

    undo.append((oracle, "ProcessPoolExecutor", oracle.ProcessPoolExecutor))
    oracle.ProcessPoolExecutor = CountingPool

    orig_verify = oracle.verify_claim

    @functools.wraps(orig_verify)
    def verify_claim(claim_id, grid=None):
        starts = counts["oracle.pool_starts"]
        idx = tracer.open("oracle.verify")
        try:
            reports = orig_verify(claim_id, grid)
        finally:
            tracer.close(idx)
        if claim_id != "all":
            name, start, end, _, _ = tracer.spans[idx]
            check = sum(r.elapsed for r in reports)
            # pooled checks overlap across workers; the harness is what is left
            workers = pool_workers[0] if counts["oracle.pool_starts"] > starts else 1
            counts["oracle.check_s"] += check
            counts["oracle.harness_s"] += max(0.0, (end - start) - check / workers)
        return reports

    undo.append((oracle, "verify_claim", orig_verify))
    oracle.verify_claim = verify_claim

    # cli
    patch(cli, "analysis_record", "cli.record")
    patch(oracle.VerificationReport, "json_line", "cli.emit")

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall
