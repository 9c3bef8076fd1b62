"""The workloads: seeded inputs, one timed pass, and the correctness gate.

Every pass drives the library from outside, through its public API, the way
the ``nsg`` command does.  A pass returns its items' outputs and per-item
times; ``gate`` then compares every output with an independent reference and
returns, per item, whether it failed.  Inputs come only from the seed: the
same (seed, pass) always yields the same inputs.  run.py runs every pass in a
fresh interpreter, so nothing a pass leaves behind in the process (a cache, a
pool) can make a later pass cheaper; the verify grid, fixed by its preset, is
run whole by every pass.

Single-threaded passes sample the CPU speed as they run; a pass with a pool
calibrates it only while the library is idle, before and after (speed.py).
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref
from speed import SpeedSampler, calibrate

DATA = Path(__file__).resolve().parent / "data"

# `nsg verify all --grid <preset> --out FILE` at the parent of this benchmark;
# the JSON lines must stay byte-identical, with 1 worker or many.
VERIFY_DIGEST = {
    "full": "a062f7285f59fc829e54e13f8f7c6a1e1d1676244290a9751fc3bdaefe0ccf8f",
    "smoke": "6329ff277ba1d5b2b6a7309d413a47aa7a0352275fc07f58b432c41dff3686dd",
}
# Readings the two adjudicated statements must resolve to.
ADJUDICATION = {"thm-3.1": "Corrected", "prop-3.3": "AsProof"}
# Calibration spell before and after a pass with a pool.
PASS_SPELL_S = 0.3
# Speed samples up to this far before or after an instance count for it.
ITEM_WINDOW_S = 0.1


@dataclass
class Pass:
    """What one pass produced: outputs, per-item seconds and speed factors,
    and the pass wall time (calibration excluded) and speed factor."""

    outputs: list = field(default_factory=list)
    item_s: list[float] = field(default_factory=list)
    item_factor: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    factor: float = 1.0
    raised: str | None = None

    def scaled_items(self) -> list[float]:
        return [t * f for t, f in zip(self.item_s, self.item_factor)]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cli(argv: list[str]) -> str:
    """``nsg <argv>`` in-process; returns stdout, raises on a nonzero exit."""
    from nsg import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"nsg {' '.join(argv)} exited {code}")
    return out.getvalue()


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


# ---------------------------------------------------------------------------
# verify-serial / verify-parallel: the `full` grid, fixed by the preset


def verify_inputs(seed: int, pass_no: int, tiny: bool) -> dict:
    # The grid is fixed by the preset; the seed does not reach the program.
    return {"preset": "smoke" if tiny else "full"}


def verify_pass(grid: dict, workers: int) -> Pass:
    """``verify all``: sampled in-pass with one worker, calibrated around the
    pass with a pool, whose workers would slow a sampler down."""
    from nsg import oracle

    os.environ["NSG_THREADS"] = str(workers)
    before = calibrate(PASS_SPELL_S) if workers > 1 else None
    sampler = SpeedSampler(_claim_running(oracle.verify_claim)) if workers == 1 else None
    with sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            reports = oracle.verify_claim("all", grid)
            lines = [rep.json_line() for rep in reports]
            raised = None
        except Exception as exc:  # every item of the pass counts as failed
            reports, lines, raised = [], [], repr(exc)
        wall = time.perf_counter() - t0
    item_s = [r.elapsed for r in reports]
    if sampler is None:
        factor = (before + calibrate(PASS_SPELL_S)) / 2
        item_factor = [factor] * len(reports)
    else:
        factor = sampler.factor()
        item_factor = [
            sampler.factor(start - ITEM_WINDOW_S, end + ITEM_WINDOW_S)
            for start, end in _instance_spans(reports, sampler, t0)
        ]
    return Pass(
        outputs=list(zip(reports, lines)),
        item_s=item_s,
        item_factor=item_factor,
        wall_s=wall,
        factor=factor,
        raised=raised,
    )


def _claim_running(verify_claim: Callable) -> Callable:
    """Sample tag: the claim whose ``verify_claim`` call is running, if any."""
    code = verify_claim.__code__

    def tag(frame):
        while frame is not None:
            if frame.f_code is code:
                claim = frame.f_locals.get("claim_id")
                return None if claim == "all" else claim
            frame = frame.f_back
        return None

    return tag


def _instance_spans(reports: list, sampler: SpeedSampler, t0: float) -> list[tuple[float, float]]:
    """When each instance ran, roughly.  The reports give only durations; a
    claim's instances run back to back and end when its last sample was
    taken (a claim enumerates its grid first), so they are laid out backwards
    from there.  A claim too short to be sampled follows the one before."""
    last = {}
    for (t, _), claim in zip(sampler.samples, sampler.tags):
        if claim is not None:
            last[claim] = t
    spans: list[tuple[float, float]] = []
    end_of_previous = t0
    i = 0
    while i < len(reports):
        claim = _claim_id(reports[i])
        j = i
        while j < len(reports) and _claim_id(reports[j]) == claim:
            j += 1
        busy = sum(r.elapsed for r in reports[i:j])
        end = max(last.get(claim, 0.0), end_of_previous + busy)
        at = end - busy
        for r in reports[i:j]:
            spans.append((at, at + r.elapsed))
            at += r.elapsed
        end_of_previous, i = end, j
    return spans


def _claim_id(report) -> str:
    return report.claim.split("/", 1)[0]


def verify_gate(grid: dict, result: Pass) -> list[bool]:
    """Per-item failure: line differs from the reference, or the item's claim fails."""
    from nsg import oracle

    preset = grid["preset"]
    # stream the reference line by line, so the gate adds little to peak RSS
    digest, lines = hashlib.sha256(), [line for _, line in result.outputs]
    failed = []
    with gzip.open(DATA / f"verify-{preset}.jsonl.gz", "rt") as fh:
        for i, want in enumerate(fh):
            digest.update(want.encode())
            failed.append(result.raised is not None or i >= len(lines) or lines[i] + "\n" != want)
    if digest.hexdigest() != VERIFY_DIGEST[preset]:
        raise RuntimeError(f"reference file for preset {preset!r} does not match its digest")
    if result.raised is not None:
        return failed
    if len(lines) != len(failed):  # missing lines are flagged above; extra ones fail all
        failed = [True] * len(failed)
    by_claim: dict[str, list[int]] = {}
    for i, (rep, _) in enumerate(result.outputs):
        by_claim.setdefault(_claim_id(rep), []).append(i)
    for cid, idx in by_claim.items():
        reports = [result.outputs[i][0] for i in idx]
        ok = oracle.claim_passes(cid, reports)
        if cid in ADJUDICATION:
            ok = ok and oracle.adjudicate(cid, reports)["decided"] == ADJUDICATION[cid]
        if not ok:
            for i in idx:
                if i < len(failed):
                    failed[i] = True
    if set(by_claim) != set(oracle.registered_claims()):
        failed = [True] * len(failed)
    return failed


# ---------------------------------------------------------------------------
# analyze-large: `nsg analyze` on large semigroups of two shapes

# Shape A: 2-3 generators, Frobenius number on a log ladder from 1e5 to
# 1.5e6 (the membership table dominates).  Shape B: 5-8 generators,
# multiplicity on a ladder from 1000 to 3000 (the O(m^2) PF scan dominates).
# The seed picks the generators, not the sizes, so a pass's total work hardly
# depends on it; rungs far apart keep each order statistic inside one rung.
_A_RUNGS = [round(1e5 * 15 ** (i / 7)) for i in range(8)]
_B_RUNGS = [1000 + round(2000 * i / 7) for i in range(8)]


def _two_gen(rng: random.Random, target: int) -> list[int]:
    root = math.isqrt(target)
    while True:
        m = rng.randint(int(0.95 * root), int(1.05 * root))
        b = round((target + m) / (m - 1))
        if math.gcd(m, b) == 1 and abs(m * b - m - b - target) <= 0.01 * target:
            return [m, b] if rng.random() < 0.5 else [b, m]


def _three_gen(rng: random.Random, target: int) -> list[int]:
    # the multiplicity sets the PF scan's cost, so it stays in a narrow band
    m_mid = 1.2 * math.sqrt(target)
    span = 15 * math.sqrt(target)
    while True:
        m = rng.randint(int(0.95 * m_mid), int(1.05 * m_mid))
        b, c = sorted(rng.sample(range(m + 1, max(int(span), m + 3)), 2))
        if math.gcd(m, b, c) != 1:
            continue
        s = ref.Semigroup([m, b, c])
        if len(s.minimal) < 3:
            continue
        if abs(s.frobenius - target) <= 0.02 * target:
            return [m, b, c]
        span *= (target / max(s.frobenius, 1)) ** 0.5


def _many_gen(rng: random.Random, m: int, k: int) -> list[int]:
    while True:
        gens = [m] + sorted(rng.sample(range(m + 1, 2 * m), k - 1))
        if math.gcd(*gens) == 1:
            return gens


def analyze_inputs(seed: int, pass_no: int, tiny: bool) -> list[list[int]]:
    rng = random.Random(f"analyze-large:{seed}:{pass_no}")
    a_rungs = [f // 100 for f in _A_RUNGS[:3]] if tiny else _A_RUNGS
    b_rungs = [m // 20 for m in _B_RUNGS[:3]] if tiny else _B_RUNGS
    out = []
    for i, (f, m) in enumerate(zip(a_rungs, b_rungs)):
        out.append(_two_gen(rng, f) if i % 2 == 0 else _three_gen(rng, f))
        out.append(_many_gen(rng, m, 5 + i % 4))
    return out


def _timed_items(items: list, run_one: Callable) -> Pass:
    """Items one after another under the speed sampler; an item's factor is
    that of the samples taken while it ran."""
    result = Pass()
    with SpeedSampler() as speed:
        t0 = time.perf_counter()
        for item in items:
            t = time.perf_counter()
            try:
                result.outputs.append(run_one(item))
            except Exception as exc:  # counted as a failed item by the gate
                result.outputs.append(exc)
            dt = time.perf_counter() - t
            result.item_s.append(dt)
            result.item_factor.append(speed.factor(t, t + dt))
        result.wall_s = time.perf_counter() - t0
    result.factor = speed.factor()
    return result


def analyze_pass(items: list[list[int]], workers: int) -> Pass:
    return _timed_items(items, lambda gens: _cli(["analyze", "--gens", _csv(gens), "--json"]))


def analyze_gate(items: list[list[int]], result: Pass) -> list[bool]:
    failed = []
    for gens, out in zip(items, result.outputs):
        failed.append(isinstance(out, Exception) or json.loads(out) != ref.analyze_record(gens))
    return failed


# ---------------------------------------------------------------------------
# construct: duplications (all three ideal kinds), gluings, nice extensions


def _base_semigroup(rng: random.Random, m_lo: int, m_hi: int, f_lo: int, f_hi: int):
    """Three minimal generators in [m, 2m) with the Frobenius number in a window."""
    while True:
        m = rng.randint(m_lo, m_hi)
        b, c = sorted(rng.sample(range(m + 1, 2 * m), 2))
        if math.gcd(m, b, c) != 1:
            continue
        s = ref.Semigroup([m, b, c])
        if f_lo <= s.frobenius <= f_hi:
            return [m, b, c], s


def _member(rng: random.Random, s: ref.Semigroup, lo: int, hi: int, odd: bool = False) -> int:
    while True:
        x = rng.randint(lo, hi)
        if x in s and (not odd or x % 2 == 1):
            return x


def _dup_item(rng: random.Random, kind: str, tiny: bool) -> dict:
    gens, s = (
        _base_semigroup(rng, 9, 11, 15, 40) if tiny else _base_semigroup(rng, 95, 105, 2400, 3100)
    )
    m = gens[0]
    d = _member(rng, s, m, 3 * m, odd=True)
    if kind == "S":
        return {"op": "dup", "gens": gens, "ideal": "S", "ideal_gens": [0], "d": d}
    if kind == "S*":
        return {"op": "dup", "gens": gens, "ideal": "S*", "ideal_gens": s.minimal, "d": d}
    while True:
        ideal = sorted({_member(rng, s, m, 2 * m) for _ in range(rng.randint(1, 2))})
        if ref.ideal_kind(s, ideal) == "proper":
            return {"op": "dup", "gens": gens, "ideal": _csv(ideal), "ideal_gens": ideal, "d": d}


def _small_semigroup(rng: random.Random, m_lo: int, m_hi: int) -> ref.Semigroup:
    while True:
        m = rng.randint(m_lo, m_hi)
        gens = [m] + sorted(rng.sample(range(m + 1, 2 * m), rng.randint(1, 2)))
        if math.gcd(*gens) == 1:
            return ref.Semigroup(gens)


def _non_generator(rng: random.Random, s: ref.Semigroup, lo: int, hi: int) -> int:
    while True:
        x = _member(rng, s, lo, hi)
        if x not in s.minimal:
            return x


def _glue_item(rng: random.Random) -> dict:
    while True:
        s1, s2 = _small_semigroup(rng, 5, 12), _small_semigroup(rng, 5, 12)
        mu = _non_generator(rng, s1, 2 * s1.m, 4 * s1.m)
        lam = _non_generator(rng, s2, 2 * s2.m, 4 * s2.m)
        gens = [lam * g for g in s1.minimal] + [mu * g for g in s2.minimal]
        if math.gcd(lam, mu) == 1 and ref.Semigroup(gens).minimal == sorted(gens):
            return {"op": "glue", "s1": s1.minimal, "s2": s2.minimal, "lambda": lam, "mu": mu}


def _representation(gens: list[int], target: int) -> list[int]:
    """Coefficients writing ``target`` over ``gens`` with the most summands."""
    best = [-1] * (target + 1)
    best[0] = 0
    for x in range(1, target + 1):
        best[x] = max((best[x - g] + 1 for g in gens if g <= x and best[x - g] >= 0), default=-1)
    coeffs, x = [0] * len(gens), target
    while x:
        i = next(i for i, g in enumerate(gens) if g <= x and best[x - g] == best[x] - 1)
        coeffs[i] += 1
        x -= gens[i]
    return coeffs


def _nice_item(rng: random.Random) -> dict:
    while True:
        s = _small_semigroup(rng, 4, 9)
        target = _non_generator(rng, s, 2 * s.m, 5 * s.m)
        coeffs = _representation(s.minimal, target)
        ps = [p for p in range(2, sum(coeffs) + 1) if math.gcd(p, target) == 1]
        if ps:
            return {"op": "nice", "s": s.minimal, "p": rng.choice(ps), "coeffs": coeffs, "mu": target}


def construct_inputs(seed: int, pass_no: int, tiny: bool) -> list[dict]:
    rng = random.Random(f"construct:{seed}:{pass_no}")
    reps = 1 if tiny else 4
    items = []
    for _ in range(reps):
        items += [_dup_item(rng, kind, tiny) for kind in ("S", "S*", "proper")]
        items += [_glue_item(rng), _nice_item(rng)]
    return items


def _construct_one(item: dict):
    from nsg import constructions as cons
    from nsg.core import NumericalSemigroup

    if item["op"] == "dup":
        argv = ["dup", "--gens", _csv(item["gens"]), "--ideal", item["ideal"], "--d", str(item["d"])]
        return json.loads(_cli(argv + ["--json"]))
    if item["op"] == "glue":
        argv = ["glue", "--s1", _csv(item["s1"]), "--s2", _csv(item["s2"]),
                "--lambda", str(item["lambda"]), "--mu", str(item["mu"])]
        return json.loads(_cli(argv + ["--json"]))
    # a nice extension is the gluing of S with N by (p, target)
    spec = cons.nice_extension(NumericalSemigroup(item["s"]), item["p"], item["coeffs"])
    argv = ["glue", "--s1", _csv(item["s"]), "--s2", "1",
            "--lambda", str(spec.lam), "--mu", str(spec.mu)]
    record = json.loads(_cli(argv + ["--json"]))
    record["maximal_iff"] = cons.nice_extension_maximal_iff(spec)
    return record


def construct_pass(items: list[dict], workers: int) -> Pass:
    return _timed_items(items, _construct_one)


# Verdicts of the minimal-type classifier and what each promises.
_MIN_VERDICT = {"True": True, "False": False, "SufficientOnly-True": True, "NoConclusion": None}


def _construct_ok(item: dict, rec: dict) -> bool:
    if rec["pf"] != rec["pf_closed_form"]:
        return False
    maximal = rec["extremality"] in ("both", "maximal")
    if item["op"] == "dup":
        want = ref.dup_record(item["gens"], item["ideal_gens"], item["d"])
        if any(rec[k] != v for k, v in want.items()):
            return False
        promised = _MIN_VERDICT[rec["min_verdict"]]
        if promised is not None and promised != (rec["reduced_type"] == 1):
            return False
        return rec.get("max_self", maximal) == maximal and rec.get("max_star", maximal) == maximal
    s1 = item["s1"] if item["op"] == "glue" else item["s"]
    s2 = item["s2"] if item["op"] == "glue" else [1]
    lam, mu = (item["lambda"], item["mu"]) if item["op"] == "glue" else (item["p"], item["mu"])
    want = ref.glue_record(s1, s2, lam, mu)
    if any(rec[k] != v for k, v in want.items()):
        return False
    factors_maximal = ref.is_maximal(s1) and ref.is_maximal(s2)
    if rec["maximal_sufficient"] == "not-applicable":
        if factors_maximal:
            return False
    elif rec["maximal_sufficient"] and not maximal:
        return False
    if item["op"] == "nice":
        base = ref.is_maximal(item["s"])
        return rec["maximal_iff"] == base == maximal
    return True


def construct_gate(items: list[dict], result: Pass) -> list[bool]:
    return [
        isinstance(out, Exception) or not _construct_ok(item, out)
        for item, out in zip(items, result.outputs)
    ]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable  # (seed, pass_no, tiny) -> inputs of one pass
    run: Callable  # (inputs, workers) -> Pass
    gate: Callable  # (inputs, Pass) -> per-item failure flags
    parallel: bool
    fixed_inputs: bool  # every pass runs the same items (the verify grid)
    # A run makes seconds // pass_budget_s passes, each in a fresh interpreter.
    # The verify workloads run the same grid every pass, and each instance's
    # best time makes its tail: two passes with one worker, three with a pool,
    # whose instances run beside each other and scatter more.  analyze-large
    # gets three passes of fresh inputs, because its mid-sized items vary
    # from seed to seed, construct two.
    pass_budget_s: float


# verify-parallel is not in BENCHMARK.json.  It is the only workload that
# starts the process pool, so its traced run gives the pool's per-layer
# metrics, and `run.py series --workload verify-parallel --base DIR` compares
# a pool change.  Its three passes of about 12 s would take the benchmark's
# full set of runs past its time limit on a slow 2-core host, and its instance
# times, taken inside the workers, can only be scaled by the speed around the
# whole pass, so its tail scatters more.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-serial", verify_inputs, verify_pass, verify_gate, False, True, 15.0),
        Workload("verify-parallel", verify_inputs, verify_pass, verify_gate, True, True, 10.0),
        Workload("analyze-large", analyze_inputs, analyze_pass, analyze_gate, False, False, 10.0),
        Workload("construct", construct_inputs, construct_pass, construct_gate, False, False, 12.0),
    )
}
