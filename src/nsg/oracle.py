"""The verify harness: each closed form of the paper against the definitional engine.

The engine, the Apery-free side, lives in its own module, ``nsg.naive``;
this module keeps the run memo, the grids, the questions, the checks and the
runner.  The claim registry at the bottom holds one row per claim, the only
place its id is written: its grid, its question, its check, its judge and,
for a statement published in two readings, the reading key and values, which
only its own grid may carry.  ``claim_grids`` says what one run checks: one
claim, or for 'all' each claim with the grid less the others' reading keys.

A claim is a question, a check and a judge, run by ``run_claim``, the one
driver of instances.  The question (``ask``) reads the oracle's answer off
the instance alone: it closes one generator tuple, a family's, a gluing's, a
nice extension's or a duplication's, through ``_canonical_stats``, the one
function from generators to answer, never the core or the constructions (a
test makes both raise while every row asks).  The check takes the instance and
that answer and returns a tag refining the claim id (``/b=2``,
``/case-proper`` or ``""``), the closed form and the oracle field.
``run_claim`` times question, check, judge and report per instance, and
``tally`` sums a claim up in one pass over its reports, keeping none.  An
iff claim passes when the closed form equals the oracle's answer; a one-way
soundness check passes unless the closed form contradicts the oracle.
Mismatches are findings to surface, never to patch away.

One verify run (``verify_run``) keeps one memo of what it asks more than
once, described with it below: oracle answers, one row per GAS tuple, the
closed forms' core objects and the last closure, which the next GAS tuple
extends.  The outermost run pauses the cyclic garbage collector and puts it
back as it found it.  Outside a run the questions and checks compute afresh,
and direct ``naive_*`` calls are never cached.  Each report is one JSON line,
written by one encoder built per process.
"""

from __future__ import annotations

import gc
import json
import math
import operator
from contextlib import contextmanager
from functools import partial
from itertools import count, islice
from time import perf_counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from . import constructions as cons
from . import families as fam
from . import naive
from .core import InvalidParamError, NumericalSemigroup, SemigroupError, naturals
from .naive import GridTooLargeError, NaiveStats, naive_stats

# Read by perfbench/tracing.py, which wraps each as oracle.__dict__[name]; they go with its patch table.
from .naive import naive_closure, naive_duplication_stats, naive_frobenius, naive_pf
from .naive import naive_pf_full, naive_reduced_type


T = TypeVar("T")

# Read only by perfbench/tracing.py, which swaps it; goes with ROADMAP item 1's pool leftovers.
ProcessPoolExecutor = None


class UnknownClaimError(SemigroupError):
    pass


# ---------------------------------------------------------------------------
# Verification reports


def _line_encoder() -> Callable[[object, int], Iterable[str]]:
    """The encoder of every report line, built once (``JSONEncoder.encode`` builds one per
    call) with json.dumps's settings and no circular-reference markers, since report values
    are acyclic; ``encode(obj, 0)`` yields a line's chunks."""
    make = json.encoder.c_make_encoder
    if make is None:  # no _json accelerator: the pure-Python encoder
        return json.JSONEncoder(check_circular=False).iterencode
    ascii_str = json.encoder.encode_basestring_ascii
    return make(None, json.JSONEncoder().default, ascii_str, None, ": ", ", ", False, False, True)


_encode_json = _line_encoder()


class VerificationReport:
    """One checked instance.  ``elapsed`` (seconds) may be set after construction and takes
    no part in equality."""

    __slots__ = ("claim", "instance", "closed_form", "oracle", "match", "elapsed")
    __hash__ = None

    def __init__(
        self,
        claim: str,
        instance: dict,
        closed_form: list,
        oracle: list,
        match: bool,
        elapsed: float = 0.0,
    ) -> None:
        self.claim = claim
        self.instance = instance
        self.closed_form = closed_form
        self.oracle = oracle
        self.match = match
        self.elapsed = elapsed

    def _compared(self) -> tuple:
        return (self.claim, self.instance, self.closed_form, self.oracle, self.match)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __repr__(self) -> str:
        return (
            f"VerificationReport(claim={self.claim!r}, instance={self.instance!r}, "
            f"closed_form={self.closed_form!r}, oracle={self.oracle!r}, match={self.match!r}, "
            f"elapsed={self.elapsed!r})"
        )

    def json_line(self) -> str:
        line = {
            "claim": self.claim,
            "instance": self.instance,
            "match": self.match,
            "closed_form": self.closed_form,
            "oracle": self.oracle,
        }
        return "".join(_encode_json(line, 0))


# ---------------------------------------------------------------------------
# Run memo: each question a verify run asks more than once, answered once
#
# Several claims ask the same questions: three claims walk the same GAS grid,
# each GAS tuple is checked five times, up to four claims close the same
# duplication's generators, and the construction claims build the same few pool
# semigroups and ideals on every instance.  So a verify run keeps one plain
# dict, opened by ``verify_run`` and dropped when the run ends; it holds one
# entry per distinct question of the run's plan, which the grid caps bound,
# plus the last closure (``_LAST_CLOSURE``), the one entry that is not an
# answer: each fresh or extended closure replaces it, so the memo holds one
# table whatever the run's size.  Outside a run every accessor computes afresh.
# Keys are tagged tuples, and every answer is a pure function of its key and
# immutable where it is shared: an oracle answer is stored as the engine returns
# it, PF a tuple (a check that reports PF hands the judge its own
# ``list(stats.pf)``), core semigroups, GAS rows and grids are immutable, and an
# ideal only caches what it derives.  A GAS tuple's row (``_GasRow``), its
# question's answer, holds all that its checks read: the parameters, the oracle
# answer (kept under its own ``stats`` key too), the ``/b=…`` tag and the
# oracle's two extremality flags.  The first instance that asks builds it inside
# its timed span; every check still evaluates its own closed form.  A value is
# stored once its builder returns, so an error is never stored.  The oracle
# answers and the core objects share this dict but no code path.  The memo is
# module-level because verify runs in one thread; a concurrent caller can lose
# hits, never get a wrong answer: the last closure is read and written as one
# (key, bits) pair.  The outermost run pauses the cyclic collector
# (``verify_run``): one gen-1 pass (about 0.4 ms) costs a hundred median
# instances.

_run_memo: dict | None = None


@contextmanager
def verify_run() -> Iterator[dict]:
    """Open the memo of one verify run; inside an open run, reuse that one.

    The outermost run also pauses the cyclic garbage collector: a run makes no
    reference cycles (``test_full_grid_matches_golden_jsonl`` pins it), so
    reference counting frees all it drops, and a collection would only rescan
    what the caller keeps.  On exit, on error too, the memo is dropped and the
    collector is turned back on only if it was on when the run opened.
    """
    global _run_memo
    if _run_memo is not None:
        yield _run_memo
        return
    collecting = gc.isenabled()
    gc.disable()
    _run_memo = {}
    try:
        yield _run_memo
    finally:
        _run_memo = None
        if collecting:
            gc.enable()


def _recall(key: tuple, build: Callable[[], T]) -> T:
    """``build()``, kept under ``key`` for the rest of the open run, if any."""
    memo = _run_memo
    if memo is None:
        return build()
    value = memo.get(key)
    if value is None:
        value = memo[key] = build()
    return value


def _canon(gens: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(gens)))


def _oracle_stats(gens: Sequence[int]) -> NaiveStats:
    """``naive_stats(gens)``, once per distinct generator set in a run."""
    return _canonical_stats(_canon(gens))


def _canonical_stats(key: tuple[int, ...]) -> NaiveStats:
    """``_oracle_stats`` of generators already ascending and without repeats."""
    return _recall(("stats", key), lambda: _closed_stats(key))


# The memo's one slot that is not an answer: (canonical generators, closure bits)
# of the last semigroup ``_closed_stats`` closed in the run.
_LAST_CLOSURE = ("last closure",)


def _closed_stats(key: tuple[int, ...]) -> NaiveStats:
    """``naive_stats(key)``; inside a run, a key that is the last closed key plus one larger
    generator (GAS(n0, s, d, p) after GAS(n0, s, d, p - 1)) extends that closure instead of
    closing from {0}, and every closure replaces the last one, so the memo keeps one."""
    memo = _run_memo
    if memo is None:
        return naive_stats(key)
    last = memo.get(_LAST_CLOSURE)
    if last is not None and key[:-1] == last[0]:
        bits = naive._extend_closure(last[1], key)
    else:
        bits = naive._closure_bits(key)
    memo[_LAST_CLOSURE] = key, bits
    return naive._stats_from_bits(bits, key)


def _semigroup(gens: Sequence[int]) -> NumericalSemigroup:
    """The core semigroup of ``gens``, built once per generator tuple in a run."""
    key = tuple(gens)
    return _recall(("semigroup", key), lambda: NumericalSemigroup(key))


def _ideal(gens: Sequence[int], ideal: Sequence[int]) -> cons.SemigroupIdeal:
    """The ideal ``ideal`` + S of S = <gens>, once per pair in a run."""
    key = ("ideal", tuple(gens), tuple(ideal))
    return _recall(key, lambda: cons.SemigroupIdeal(_semigroup(gens), ideal))


class _GasRow(NamedTuple):
    """What every GAS check asks of one tuple: its parameters, the oracle's frozen
    answer, the ``/b=…`` tag and the oracle's two extremality flags."""

    params: tuple[int, int, int, int]
    stats: NaiveStats
    b_tag: str
    is_maximal: bool
    is_minimal: bool


def _gas(inst: dict) -> _GasRow:
    """A GAS tuple's row, built by the first instance that asks and looked up by the rest."""
    key = ("gas", inst["n0"], inst["s"], inst["d"], inst["p"])
    memo = _run_memo
    row = None if memo is None else memo.get(key)
    if row is None:
        params = n0, _, _, p = key[1:]
        stats = _canonical_stats(fam.gas_generators(*params))
        row = _GasRow(params, stats, f"/b={n0 % p}", stats.is_maximal, stats.is_minimal)
        if memo is not None:
            memo[key] = row
    return row


# ---------------------------------------------------------------------------
# Grids

_PRESETS = {
    "smoke": {
        "gas": (8, 2, 9, 4),
        "h_max": 3,
        "backelin": (2, 2),
        "glue_pool": 3,
        "glue_per": 2,
        "dup_d": 2,
        "r_max": 4,
    },
    "small": {
        "gas": (12, 3, 13, 6),
        "h_max": 6,
        "backelin": (4, 4),
        "glue_pool": 6,
        "glue_per": 3,
        "dup_d": 5,
        "r_max": 8,
    },
    "full": {
        "gas": (16, 3, 17, 7),
        "h_max": 8,
        "backelin": (5, 6),
        "glue_pool": 6,
        "glue_per": 4,
        "dup_d": 6,
        "r_max": 10,
    },
}


def _shaped_like(value, want: int | tuple) -> bool:
    """True iff ``value`` is an int >= 0 where ``want`` is one, else a sequence of ``len(want)``
    such ints: a negative count would slice from the end or make ``islice`` raise."""
    if isinstance(want, int):
        return isinstance(value, int) and value >= 0
    shaped = isinstance(value, Sequence) and len(value) == len(want)
    return shaped and all(map(_shaped_like, value, want))


def _resolve_grid(row: _Claim, grid: dict | None) -> dict:
    """The preset's grid with the given keys over it; refuses unknown keys (another claim's
    reading key too), misshapen values and readings ``row`` lacks (empty means every one)."""
    grid = dict(grid or {})
    preset = grid.pop("preset", "small")
    if not isinstance(preset, str) or preset not in _PRESETS:
        raise UnknownClaimError(f"unknown grid preset {preset!r}")
    for key, value in grid.items():
        want = _PRESETS[preset].get(key)
        if want is None and key != row.reading:
            raise UnknownClaimError(f"unknown grid key {key!r}")
        if want is not None and not _shaped_like(value, want):
            raise InvalidParamError(f"grid key {key!r}: {value!r} is not shaped like {want!r}")
        if want is None and value and value not in row.readings:
            raise InvalidParamError(f"grid key {key!r}: {value!r} is not one of {row.readings!r}")
    merged = dict(_PRESETS[preset])
    merged.update(grid)
    return merged


def _cap(frobenius_estimate: int, what: tuple) -> None:
    """Refuse an instance whose estimated Frobenius number passes the cap.  ``what``,
    (format string, *values), labels it; it is formatted only on refusal, as the GAS
    grid caps thousands of tuples."""
    cap = naive.FROBENIUS_CAP
    if frobenius_estimate > cap:
        label = what[0].format(*what[1:])
        raise GridTooLargeError(
            f"{label}: estimated Frobenius number {frobenius_estimate} exceeds {cap}"
        )


def _gas_tuples(bounds: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """The minimal GAS tuples under ``bounds``: the walk of ``FAMILIES["gas"]``
    (``Family.walk``, the one enumeration, building no semigroup) over 3..n0_max,
    1..s_max, 1..d_max and 2..p_max, each capped on integers as it is yielded."""
    ranges = [range(low, high + 1) for low, high in zip((3, 1, 1, 2), bounds, strict=True)]
    out = []
    for values in fam.FAMILIES["gas"].walk(ranges):
        _cap(fam.gas_frobenius_closed(values), ("gas{}", values))
        out.append(values)
    return tuple(out)


def _gas_instances(grid: dict) -> list[dict]:
    bounds = tuple(grid["gas"])
    return [
        {"n0": n0, "s": s, "d": d, "p": p}
        for n0, s, d, p in _recall(("gas grid", *bounds), lambda: _gas_tuples(bounds))
    ]


def _bresinsky_instances(grid: dict) -> list[dict]:
    hs = range(2, grid["h_max"] + 1)
    for h in hs:
        _cap(fam.bresinsky_frobenius_closed(h), ("bresinsky h={}", h))
    return [{"h": h} for h in hs]


def _backelin_instances(grid: dict) -> list[dict]:
    n_max, spread = grid["backelin"]
    out = []
    for n in range(2, n_max + 1):
        for r in range(3 * n + 2, 3 * n + 2 + spread + 1):
            _cap(fam.backelin_frobenius_closed(n, r), ("backelin (n={}, r={})", n, r))
            out.append({"n": n, "r": r})
    return out


_GLUE_POOL: list[list[int]] = [[1], [2, 3], [3, 4, 5], [3, 5, 7], [5, 6, 7], [4, 5, 6, 7]]


def _members(s: NumericalSemigroup, k: int, start: int, step: int = 1, skip=()) -> list[int]:
    """The first ``k`` members of S among start, start + step, ..., leaving out ``skip``."""
    return list(islice((x for x in count(start, step) if s.contains(x) and x not in skip), k))


def _nongen(s: NumericalSemigroup, k: int) -> list[int]:
    """The first ``k`` members of S that are not minimal generators."""
    return _members(s, k, s.multiplicity, skip=s.minimal_generators)


def _gluing_instances(grid: dict) -> list[dict]:
    pool = [_semigroup(g) for g in _GLUE_POOL[: grid["glue_pool"]]]
    per = grid["glue_per"]
    out = []
    for s1 in pool:
        for s2 in pool:
            for mu in _nongen(s1, per):
                for lam in _nongen(s2, per):
                    if math.gcd(lam, mu) != 1:
                        continue
                    spec = cons.GluingSpec(s1, s2, lam, mu)
                    _cap(cons.gluing_frobenius_closed(spec), ("gluing lam={} mu={}", lam, mu))
                    out.append(
                        {
                            "s1": list(s1.minimal_generators),
                            "s2": list(s2.minimal_generators),
                            "lambda": lam,
                            "mu": mu,
                        }
                    )
    return out


_NICE_POOL: list[list[int]] = [[2, 3], [3, 4, 5], [3, 7, 11], [5, 6, 7]]


def _nice_ext_instances(grid: dict) -> list[dict]:
    out = []
    for gens in _NICE_POOL[: max(3, grid["glue_pool"] - 2)]:
        s = _semigroup(gens)
        # larger targets admit more representations, hence more valid p
        for target in _nongen(s, 3 * grid["glue_per"]):
            coeffs = cons.max_coeff_representation(s.minimal_generators, target)
            for p in range(2, min(sum(coeffs), 2 + 2 * grid["glue_per"]) + 1):
                if math.gcd(p, target) != 1:
                    continue
                spec = cons.GluingSpec(s, naturals(), p, target)
                what = ("nice extension p={} target={}", p, target)
                _cap(cons.gluing_frobenius_closed(spec), what)
                out.append({"s": list(gens), "p": p, "coeffs": coeffs})
    return out


# (ambient generators, ideal generator lists); "star" means the minimal generators
_DUP_POOL: list[tuple[list[int], list] ] = [
    ([2, 3], [[0], "star", [2], [4], [3, 4]]),
    ([3, 5], [[0], "star", [5], [3, 10]]),
    ([3, 4, 5], [[0], "star", [5, 6, 7], [3], [4, 5]]),
    ([5, 6, 7], [[0], "star", [6], [10, 11]]),
    ([3, 7, 11], [[0], "star", [6, 7, 11], [7]]),
    ([4, 9, 14, 19], [[0], "star", [8], [9, 14, 19]]),
]


def _dup_ds(s: NumericalSemigroup, k: int) -> list[int]:
    # a few small odd elements plus one beyond 2F(S), so every clause can fire
    ds = _members(s, k, 1, 2) + _members(s, 1, 2 * max(s.frobenius, 0) + 1, 2)
    return sorted(set(ds))


def _dup_instances(grid: dict) -> list[dict]:
    out = []
    for gens, ideals in _DUP_POOL:
        s = _semigroup(gens)
        ds = _dup_ds(s, grid["dup_d"])
        for ideal in ideals:
            e_gens = list(s.minimal_generators) if ideal == "star" else ideal
            for d in ds:
                _cap(2 * (s.frobenius + max(e_gens)) + d, ("duplication d={}", d))
                out.append({"gens": list(gens), "ideal": e_gens, "d": d})
    return out


def _dup_self_instances(grid: dict) -> list[dict]:
    """The E = S rows of the duplication grid, without the ideal."""
    return [{"gens": i["gens"], "d": i["d"]} for i in _dup_instances(grid) if i["ideal"] == [0]]


def _cap_work(what: str, work_of: Callable[[int], int], rs: range) -> None:
    """Refuse an r-indexed grid whose summed oracle work passes ``naive.FROBENIUS_CAP``.

    ``work_of(r)`` estimates one r's oracle work as generators times
    (F + m) cells.  The sum grows far faster than F itself (as r_max**3 for
    the uniform type, where F = r), so a cap on F alone admits grids that
    run for years.
    """
    cap = naive.FROBENIUS_CAP
    total = 0
    for r in rs:
        total += work_of(r)
        if total > cap:
            raise GridTooLargeError(
                f"{what} r={rs[0]}..{rs[-1]}: estimated oracle work"
                f" (generators x cells) passes {cap} at r={r}"
            )


def _r_instances(name: str, grid: dict) -> list[dict]:
    family = fam.FAMILIES[name]
    rs = range(1, grid["r_max"] + 1)

    def work(r: int) -> int:
        # the family's generator count, multiplicity and closed-form F at r
        gens = family.generators(r)
        return len(gens) * (family.pf_closed(r)[-1] + min(gens))

    _cap_work(name, work, rs)
    return [{"r": r} for r in rs]


def _dup_uniform_instances(grid: dict) -> list[dict]:
    family = fam.FAMILIES["uniform-type"]
    rs = range(2, max(3, grid["r_max"] - 2) + 1)
    # S holds every x > F(S) and F(S) < 2m(S), so its first three odd members past
    # 2m(S) need no semigroup built; the duplication of S by d has one generator
    # more than S, F = 2F(S) + d and m = 2m(S)
    ds: dict[int, range] = {}

    def work(r: int) -> int:
        gens = family.generators(r)
        f, m = family.pf_closed(r)[-1], min(gens)
        ds[r] = range(2 * m + 1, 2 * m + 7, 2)
        return sum((len(gens) + 1) * (2 * f + d + 2 * m) for d in ds[r])

    _cap_work("uniform-type duplication", work, rs)
    return [{"r": r, "d": d} for r in rs for d in ds[r]]


# ---------------------------------------------------------------------------
# Oracle questions: each reads one generator tuple off its instance alone and
# returns ``_oracle_stats`` of it, reaching neither the core nor the
# constructions (``_gas`` above, the GAS question, closes its tuple with its row)


def _family(name: str) -> Callable[[dict], NaiveStats]:
    """The question of a named family: its semigroup at an instance's parameter values."""
    family = fam.FAMILIES[name]
    return lambda inst: _oracle_stats(family.generators(*[inst[p] for p in family.params]))


def _glued(inst: dict) -> NaiveStats:
    """The gluing of S1 and S2: lambda*s1 and mu*s2, the instance's generators scaled."""
    lam, mu = inst["lambda"], inst["mu"]
    return _oracle_stats([lam * g for g in inst["s1"]] + [mu * g for g in inst["s2"]])


def _nice(inst: dict) -> NaiveStats:
    """The nice extension of S: p*s and the target sum(coeffs_i * s_i), which glue S with N."""
    gens = inst["s"]
    target = sum(map(operator.mul, inst["coeffs"], gens))
    return _oracle_stats([inst["p"] * g for g in gens] + [target])


def _dup(e: str, inst: dict) -> NaiveStats:
    """The duplication D = 2S u (2E + d) of S = <gens> by d, with E the instance's ideal (``e``
    "ideal"), S ("S") or S* ("S*"), which the instance's gens generate: G + S = S* for any
    generating set G of S.  D = <2g, 2e + d : g in gens, e in E's generators>, the lemma
    ``nsg.naive`` proves beside its duplication reference."""
    gens, d = inst["gens"], inst["d"]
    e_gens = inst["ideal"] if e == "ideal" else [0] if e == "S" else gens
    return _oracle_stats([2 * g for g in gens] + [2 * x + d for x in e_gens])


def _dup_uniform(inst: dict) -> NaiveStats:
    """The duplication of the uniform-type semigroup at r by d, with E = S: <2g, d>."""
    gens = fam.FAMILIES["uniform-type"].generators(inst["r"])
    return _oracle_stats([2 * g for g in gens] + [inst["d"]])


# ---------------------------------------------------------------------------
# Per-claim checks: each takes an instance and its question's answer and returns
# (tag, closed form, oracle field), where the tag refines the claim id in the
# report's label

Check = tuple[str, list, list]


def _check_gas_pf(inst: dict, row: _GasRow) -> Check:
    variant = inst["variant"]
    closed = [fam.gas_pf_closed(row.params, variant)]
    return f"{row.b_tag}/variant={variant}", closed, [list(row.stats.pf)]


def _check_gas_maximal(inst: dict, row: _GasRow) -> Check:
    return row.b_tag, [fam.gas_maximal_predicate(row.params)], [row.is_maximal]


def _check_gas_minimal(inst: dict, row: _GasRow) -> Check:
    mode = inst["mode"]
    return f"/mode={mode}", [fam.gas_minimal_predicate(row.params, mode)], [row.is_minimal]


def _check_backelin_pf(inst: dict, stats: NaiveStats) -> Check:
    n, r = inst["n"], inst["r"]
    closed = [fam.backelin_pf_closed(n, r), fam.backelin_frobenius_closed(n, r)]
    got = list(stats.pf)
    return "", closed, [got, max(got)]


def _check_never_extremal(inst: dict, stats: NaiveStats) -> Check:
    """Backelin and Bresinsky: neither maximal nor minimal."""
    return "", ["neither"], [stats.extremality_label]


def _check_bresinsky_pf(inst: dict, stats: NaiveStats) -> Check:
    h = inst["h"]
    got = list(stats.pf)
    return "", [fam.bresinsky_pf_closed(h), 4 * h - 3], [got, len(got)]


def _gluing_spec(inst: dict) -> cons.GluingSpec:
    return cons.GluingSpec(
        _semigroup(inst["s1"]), _semigroup(inst["s2"]), inst["lambda"], inst["mu"]
    )


def _check_gluing_pf(inst: dict, stats: NaiveStats) -> Check:
    spec = _gluing_spec(inst)
    cm_type = len(spec.s1.pf_set()) * len(spec.s2.pf_set())
    closed = [cons.gluing_pf(spec), cm_type, cons.gluing_frobenius_closed(spec)]
    return "", closed, [list(stats.pf), stats.cm_type, stats.frobenius]


def _check_gluing_maximal(inst: dict, stats: NaiveStats) -> Check:
    spec = _gluing_spec(inst)
    try:
        condition = cons.gluing_maximal_sufficient(spec)
    except cons.NotApplicableError:
        return "", ["not-applicable"], []
    return "", [condition], [stats.is_maximal]


def _check_nice_extension(inst: dict, stats: NaiveStats) -> Check:
    s = _semigroup(inst["s"])
    cons.nice_extension(s, inst["p"], inst["coeffs"])  # refuses a non-extension
    return "", [s.pf_profile().extremality.is_maximal], [stats.is_maximal]


def _dup_spec(inst: dict) -> cons.DuplicationSpec:
    e = _ideal(inst["gens"], inst["ideal"])
    return cons.DuplicationSpec(e.ambient, e, inst["d"])


_KIND_TAG = {
    cons.IdealKind.FULL: "/case-full",
    cons.IdealKind.STAR: "/case-star",
    cons.IdealKind.PROPER: "/case-proper",
}


def _check_dup_pf(inst: dict, stats: NaiveStats) -> Check:
    spec = _dup_spec(inst)
    frobenius = 2 * spec.e.tilde_frobenius + spec.d
    closed = [cons.duplication_pf(spec), cons.duplication_type_closed(spec), frobenius]
    return _KIND_TAG[spec.e_kind], closed, [list(stats.pf), stats.cm_type, stats.frobenius]


def _check_dup_minimal(inst: dict, stats: NaiveStats) -> Check:
    result = cons.duplication_min_classifier(_dup_spec(inst))
    return f"/{result.clause}", [result.clause, result.verdict.value], [stats.is_minimal]


def _check_dup_maximal(star: bool, inst: dict, stats: NaiveStats) -> Check:
    """E = S or E = S*: the maximality iff of the duplication."""
    closed_form = cons.duplication_max_star if star else cons.duplication_max_self
    return "", [closed_form(_semigroup(inst["gens"]), inst["d"])], [stats.is_maximal]


def _check_fixed_type(family: str, extremal: str, inst: dict, stats: NaiveStats) -> Check:
    """Uniform type (maximal) and staircase (minimal): PF and extremality."""
    closed = fam.FAMILIES[family].pf_closed(inst["r"])
    return "", [closed, True], [list(stats.pf), getattr(stats, extremal)]


def _check_dup_uniform_type(inst: dict, stats: NaiveStats) -> Check:
    return "", [inst["r"], True], [stats.cm_type, stats.is_maximal]


# ---------------------------------------------------------------------------
# One-way judges: each passes unless the closed form contradicts the oracle


def _sufficient_for_maximal(closed_form: list, oracle: list) -> bool:
    """A true sufficient condition must come with maximality; not-applicable passes."""
    return closed_form[0] is not True or oracle[0]


def _verdict_not_contradicted(closed_form: list, oracle: list) -> bool:
    """A verdict must not contradict the oracle's minimality; NoConclusion passes."""
    verdict = cons.Verdict(closed_form[1])
    return verdict is cons.Verdict.NO_CONCLUSION or oracle[0] == (verdict is not cons.Verdict.FALSE)


# ---------------------------------------------------------------------------
# Registry and runner


class _Claim(NamedTuple):
    """One registered claim: a question, a check and a judge, which ``run_claim`` runs over
    its grid's instances.  ``ask(inst)`` is the oracle's answer, read off the instance alone;
    ``check(inst, answer)`` gives the tag, the closed form and the oracle field, and the
    judge decides a match from those two.  A statement published in two readings also names
    the instance key that carries the reading (the grid key that pins one, which no other
    claim reads) and the readings; verify runs each in turn and adjudicates."""

    instances: Callable[[dict], list[dict]]
    ask: Callable[[dict], object]
    check: Callable[[dict, object], Check]
    judge: Callable[[list, list], bool] = operator.eq
    reading: str | None = None
    readings: Sequence[str] = ()


_CLAIMS: dict[str, _Claim] = {
    "thm-3.1": _Claim(
        _gas_instances, _gas, _check_gas_pf, reading="variant", readings=fam.GAS_PF_VARIANTS
    ),
    "prop-3.2": _Claim(_gas_instances, _gas, _check_gas_maximal),
    "prop-3.3": _Claim(
        _gas_instances, _gas, _check_gas_minimal, reading="mode", readings=fam.GAS_MINIMAL_MODES
    ),
    "prop-3.5": _Claim(_backelin_instances, _family("backelin"), _check_backelin_pf),
    "prop-3.6": _Claim(_backelin_instances, _family("backelin"), _check_never_extremal),
    "thm-3.8": _Claim(_bresinsky_instances, _family("bresinsky"), _check_bresinsky_pf),
    "prop-3.10": _Claim(_bresinsky_instances, _family("bresinsky"), _check_never_extremal),
    "cor-4.2": _Claim(_gluing_instances, _glued, _check_gluing_pf),
    "prop-4.3": _Claim(_gluing_instances, _glued, _check_gluing_maximal, _sufficient_for_maximal),
    "cor-4.6": _Claim(_nice_ext_instances, _nice, _check_nice_extension),
    "thm-5.2": _Claim(_dup_instances, partial(_dup, "ideal"), _check_dup_pf),
    "thm-5.4": _Claim(
        _dup_instances, partial(_dup, "ideal"), _check_dup_minimal, _verdict_not_contradicted
    ),
    "prop-5.7": _Claim(
        _dup_self_instances, partial(_dup, "S"), partial(_check_dup_maximal, False)
    ),
    "prop-5.9": _Claim(
        _dup_self_instances, partial(_dup, "S*"), partial(_check_dup_maximal, True)
    ),
    "remark-5.3": _Claim(
        partial(_r_instances, "uniform-type"),
        _family("uniform-type"),
        partial(_check_fixed_type, "uniform-type", "is_maximal"),
    ),
    "remark-5.5": _Claim(
        partial(_r_instances, "staircase"),
        _family("staircase"),
        partial(_check_fixed_type, "staircase", "is_minimal"),
    ),
    "remark-5.8": _Claim(_dup_uniform_instances, _dup_uniform, _check_dup_uniform_type),
}


def registered_claims() -> list[str]:
    return list(_CLAIMS)


def _claim(claim_id: str) -> _Claim:
    """The registered claim ``claim_id``; refuses any other id."""
    row = _CLAIMS.get(claim_id)
    if row is None:
        raise UnknownClaimError(f"unknown claim {claim_id!r}; registered: {', '.join(_CLAIMS)}")
    return row


def claim_grids(claim_id: str, grid: dict | None = None) -> list[tuple[str, dict]]:
    """The claims one run checks, each with the grid it reads: a registered claim with
    ``grid``, or for 'all' every registered claim with ``grid`` less the reading keys of the
    others.  Every grid is resolved here, so a bad key or value of any claim is refused
    before any claim is planned."""
    every = claim_id == "all"
    others = {row.reading for row in _CLAIMS.values()} if every else ()
    plan = []
    for cid in _CLAIMS if every else [claim_id]:
        row = _claim(cid)
        own = {k: v for k, v in (grid or {}).items() if k == row.reading or k not in others}
        _resolve_grid(row, own)
        plan.append((cid, own))
    return plan


def claim_instances(claim_id: str, grid: dict | None = None) -> list[dict]:
    """One registered claim's instances in their fixed order, reading by reading for a
    claim with two; an unknown claim, a key the claim does not read or a cap raises here."""
    row = _claim(claim_id)
    grid = _resolve_grid(row, grid)
    instances = row.instances(grid)
    key = row.reading
    if key is None:
        return instances
    chosen = [grid[key]] if grid.get(key) else row.readings
    return [{**inst, key: v} for v in chosen for inst in instances]


def run_claim(claim_id: str, instances: Iterable[dict]) -> Iterator[VerificationReport]:
    """Each instance of a registered claim asked, checked and judged, one report as each is
    drawn; ``elapsed`` times all three and the report."""
    row = _claim(claim_id)
    ask, check, judge = row.ask, row.check, row.judge
    for inst in instances:
        t0 = perf_counter()
        tag, closed_form, got = check(inst, ask(inst))
        report = VerificationReport(claim_id + tag, inst, closed_form, got, judge(closed_form, got))
        report.elapsed = perf_counter() - t0
        yield report


def run_instance(claim_id: str, inst: dict) -> VerificationReport:
    """``run_claim`` of one instance."""
    return next(run_claim(claim_id, [inst]))


def tally(
    claim_id: str, reports: Iterable[VerificationReport]
) -> tuple[int, int, dict | None, bool]:
    """One claim's (matched, total, adjudication, passes), counted as ``reports`` are drawn,
    keeping none.  Two or more readings of a two-reading claim are adjudicated: the claim
    passes when exactly one is clean.  Otherwise (adjudication None) it passes when all match."""
    key = _CLAIMS[claim_id].reading if claim_id in _CLAIMS else None
    totals: dict[str | None, list[int]] = {}
    for rep in reports:
        tot = totals.setdefault(rep.instance[key] if key else None, [0, 0])
        tot[0] += rep.match
        tot[1] += 1
    matched = sum(ok for ok, _ in totals.values())
    total = sum(n for _, n in totals.values())
    if len(totals) < 2:
        return matched, total, None, matched == total
    clean = sorted(v for v, (ok, n) in totals.items() if ok == n)
    verdict = {
        "claim": claim_id,
        "key": key,
        "rates": {v: f"{ok}/{n}" for v, (ok, n) in sorted(totals.items())},
        "clean": clean,
        "decided": clean[0] if len(clean) == 1 else None,
    }
    return matched, total, verdict, verdict["decided"] is not None


def adjudicate(claim_id: str, reports: Iterable[VerificationReport]) -> dict | None:
    """``tally``'s adjudication: per-reading match rates, or None."""
    return tally(claim_id, reports)[2]


def claim_passes(claim_id: str, reports: Iterable[VerificationReport]) -> bool:
    """``tally``'s pass: exactly one clean reading, or every report matching."""
    return tally(claim_id, reports)[3]


def verify_claim(claim_id: str, grid: dict | None = None) -> list[VerificationReport]:
    """Run one registered claim (or 'all') over its grid; one report per instance.

    Instances are enumerated in a fixed order and checked one after another
    in the calling process, so reports come back in that order.  The call is
    one verify run (or part of the open one): 'all' runs each claim of ``claim_grids``
    by a call of its own, sharing one memo, and no memo is held once the call returns.
    """
    with verify_run():
        if claim_id != "all":
            return list(run_claim(claim_id, claim_instances(claim_id, grid)))
        return [rep for cid, own in claim_grids(claim_id, grid) for rep in verify_claim(cid, own)]
