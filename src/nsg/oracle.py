"""The verify harness: each closed form of the paper against the definitional engine.

The engine, the Apery-free side, lives in its own module, ``nsg.naive``;
this module keeps the run memo, the grids, the checks and the runner.  The
claim registry at the bottom holds one row per claim, the only place its id
is written: its grid, its check, its judge and, for a statement published in
two readings, the reading key and values.  A check returns a tag refining
the claim id (``/b=2``, ``/case-proper`` or ``""``), the closed form and the
oracle's answer; ``run_instance`` times it, judges it and builds the one
report per instance.  An iff claim passes when the closed form equals the
oracle's answer; a one-way soundness check passes unless the closed form
contradicts the oracle.  Mismatches are findings to surface, never to patch
away.  One verify run (``verify_run``) keeps one memo of what it asks more
than once: an oracle answer per distinct semigroup and per distinct
duplication, and on the closed-form side a core semigroup per generator
tuple, an ideal per (generators, ideal generators), a GAS instance per
(n0, s, d, p) and the GAS grid per bounds.  It also keeps one closure, the
last the run made: a semigroup whose generators are those plus one larger
generator, as GAS(n0, s, d, p) follows GAS(n0, s, d, p - 1) in the grid, is
closed by extending it.  The memo is dropped when the run ends.  Its oracle
answers are immutable, with PF as a tuple, so a lookup hands out the stored
answer with no copy.  Outside a run the checks compute afresh, and direct
``naive_*`` calls are never cached and return PF lists.
Each report is one JSON line, written by one encoder built per process.
"""

from __future__ import annotations

import json
import math
import operator
import os
import time
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from . import constructions as cons
from . import families as fam
from . import naive
from .core import InvalidParamError, NumericalSemigroup, SemigroupError, naturals
from .naive import GridTooLargeError, NaiveStats, naive_duplication_stats, naive_stats

# Read by perfbench/tracing.py, which wraps each as oracle.__dict__[name]; they go with its patch table.
from .naive import naive_closure, naive_frobenius, naive_pf, naive_pf_full, naive_reduced_type


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
# each GAS tuple is checked five times, the duplication triples up to four
# times, and the construction claims build the same few pool semigroups and
# ideals on every instance.  So a verify run keeps one plain dict, opened by
# ``verify_run`` and dropped when the run ends; it holds one entry per
# distinct question of the run's plan, which the grid caps bound, plus the
# last closure (``_LAST_CLOSURE``), the one entry that is not an answer: each
# fresh or extended closure replaces it, so the memo holds one table whatever
# the run's size.  Outside a run every accessor computes afresh.  Keys are
# tagged tuples, and every answer is a pure function of its key and immutable
# where it is shared: oracle answers are frozen with PF as a tuple (a check
# that reports PF hands the judge its own ``list(stats.pf)``), core
# semigroups, GAS parameters and grids are immutable, and an ideal only
# caches what it derives.  A value is stored once its builder returns, so an
# error is never stored.  The oracle answers and the core objects share this
# dict but no code path.  The memo is module-level because verify runs in one
# thread; a concurrent caller can lose hits, never get a wrong answer: the
# last closure is read and written as one (key, bits) pair.

_run_memo: dict | None = None


@contextmanager
def verify_run() -> Iterator[dict]:
    """Open the memo of one verify run; inside an open run, reuse that one."""
    global _run_memo
    if _run_memo is not None:
        yield _run_memo
        return
    _run_memo = {}
    try:
        yield _run_memo
    finally:
        _run_memo = None


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


def _frozen(stats: NaiveStats) -> NaiveStats:
    return NaiveStats(tuple(stats.pf), stats.reduced_type, stats.frobenius)


def _oracle_stats(gens: Sequence[int]) -> NaiveStats:
    """``naive_stats(gens)`` with PF as a tuple, once per distinct generator set in a run."""
    key = _canon(gens)
    return _recall(("stats", key), lambda: _frozen(_closed_stats(key)))


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


def _oracle_dup_stats(s_gens: Sequence[int], e_gens: Sequence[int], d: int) -> NaiveStats:
    """``naive_duplication_stats(s_gens, e_gens, d)`` with PF as a tuple, once per distinct triple in a run."""
    s_key, e_key = _canon(s_gens), _canon(e_gens)
    return _recall(
        ("dup", s_key, e_key, d), lambda: _frozen(naive_duplication_stats(s_key, e_key, d))
    )


def _semigroup(gens: Sequence[int]) -> NumericalSemigroup:
    """The core semigroup of ``gens``, built once per generator tuple in a run."""
    key = tuple(gens)
    return _recall(("semigroup", key), lambda: NumericalSemigroup(key))


def _ideal(gens: Sequence[int], ideal: Sequence[int]) -> cons.SemigroupIdeal:
    """The ideal ``ideal`` + S of S = <gens>, once per pair in a run."""
    key = ("ideal", tuple(gens), tuple(ideal))
    return _recall(key, lambda: cons.SemigroupIdeal(_semigroup(gens), ideal))


def _gas(inst: dict) -> tuple[fam.GasParams, NaiveStats]:
    """A GAS instance's parameters and oracle answer, once per (n0, s, d, p) in a run."""
    key = ("gas", inst["n0"], inst["s"], inst["d"], inst["p"])

    def build() -> tuple[fam.GasParams, NaiveStats]:
        params = fam.GasParams(*key[1:])
        return params, _oracle_stats(fam.gas_generators(params))

    return _recall(key, build)


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
    """True iff ``value`` is an int where ``want`` is one, else a sequence of ``len(want)`` ints."""
    if isinstance(want, int):
        return isinstance(value, int)
    shaped = isinstance(value, Sequence) and len(value) == len(want)
    return shaped and all(map(_shaped_like, value, want))


def _resolve_grid(grid: dict | None) -> dict:
    """The preset's grid with the given keys over it; refuses unknown keys and misshapen values."""
    grid = dict(grid or {})
    preset = grid.pop("preset", "small")
    if preset not in _PRESETS:
        raise UnknownClaimError(f"unknown grid preset {preset!r}")
    readings = {row.reading for row in _CLAIMS.values() if row.reading}
    for key, value in grid.items():
        want = _PRESETS[preset].get(key)
        if want is None and key not in readings:
            raise UnknownClaimError(f"unknown grid key {key!r}")
        if want is not None and not _shaped_like(value, want):
            raise InvalidParamError(f"grid key {key!r}: {value!r} is not shaped like {want!r}")
    merged = dict(_PRESETS[preset])
    merged.update(grid)
    return merged


def _cap(frobenius_estimate: int, what: str | tuple) -> None:
    """Refuse an instance whose estimated Frobenius number passes the cap.  ``what``
    labels it: a string, or (format string, *values), formatted only on refusal, for
    the GAS grid's thousands of tuples."""
    cap = naive.FROBENIUS_CAP
    if frobenius_estimate > cap:
        label = what if isinstance(what, str) else what[0].format(*what[1:])
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
        _cap(fam.bresinsky_frobenius_closed(h), f"bresinsky h={h}")
    return [{"h": h} for h in hs]


def _backelin_instances(grid: dict) -> list[dict]:
    n_max, spread = grid["backelin"]
    out = []
    for n in range(2, n_max + 1):
        for r in range(3 * n + 2, 3 * n + 2 + spread + 1):
            _cap(fam.backelin_frobenius_closed(n, r), f"backelin (n={n}, r={r})")
            out.append({"n": n, "r": r})
    return out


_GLUE_POOL: list[list[int]] = [[1], [2, 3], [3, 4, 5], [3, 5, 7], [5, 6, 7], [4, 5, 6, 7]]


def _nongen_members(s: NumericalSemigroup, k: int) -> list[int]:
    out = []
    x = s.multiplicity
    while len(out) < k:
        if s.contains(x) and x not in s.minimal_generators:
            out.append(x)
        x += 1
    return out


def _gluing_instances(grid: dict) -> list[dict]:
    pool = [_semigroup(g) for g in _GLUE_POOL[: grid["glue_pool"]]]
    per = grid["glue_per"]
    out = []
    for s1 in pool:
        for s2 in pool:
            for mu in _nongen_members(s1, per):
                for lam in _nongen_members(s2, per):
                    if math.gcd(lam, mu) != 1:
                        continue
                    spec = cons.GluingSpec(s1, s2, lam, mu)
                    _cap(cons.gluing_frobenius_closed(spec), f"gluing lam={lam} mu={mu}")
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
        for target in _nongen_members(s, 3 * grid["glue_per"]):
            coeffs = cons.max_coeff_representation(s.minimal_generators, target)
            for p in range(2, min(sum(coeffs), 2 + 2 * grid["glue_per"]) + 1):
                if math.gcd(p, target) != 1:
                    continue
                spec = cons.GluingSpec(s, naturals(), p, target)
                _cap(cons.gluing_frobenius_closed(spec), f"nice extension p={p} target={target}")
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


def _odd_members(s: NumericalSemigroup, k: int, lo: int = 1) -> list[int]:
    out = []
    x = lo if lo % 2 == 1 else lo + 1
    while len(out) < k:
        if s.contains(x):
            out.append(x)
        x += 2
    return out


def _dup_ds(s: NumericalSemigroup, k: int) -> list[int]:
    # a few small odd elements plus one beyond 2F(S), so every clause can fire
    ds = _odd_members(s, k)
    ds += _odd_members(s, 1, lo=2 * max(s.frobenius, 0) + 1)
    return sorted(set(ds))


def _dup_instances(grid: dict) -> list[dict]:
    out = []
    for gens, ideals in _DUP_POOL:
        s = _semigroup(gens)
        ds = _dup_ds(s, grid["dup_d"])
        for ideal in ideals:
            e_gens = list(s.minimal_generators) if ideal == "star" else ideal
            for d in ds:
                _cap(2 * (s.frobenius + max(e_gens)) + d, f"duplication d={d}")
                out.append({"gens": list(gens), "ideal": e_gens, "d": d})
    return out


def _dup_self_instances(grid: dict) -> list[dict]:
    out = []
    for gens, _ in _DUP_POOL:
        s = _semigroup(gens)
        for d in _dup_ds(s, grid["dup_d"]):
            out.append({"gens": list(gens), "d": d})
    return out


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
# Per-claim checks: each returns (tag, closed form, oracle answer), where the
# tag refines the claim id in the report's label

Check = tuple[str, list, list]


def _check_gas_pf(inst: dict) -> Check:
    params, stats = _gas(inst)
    return (
        f"/b={params.b}/variant={inst['variant']}",
        [fam.gas_pf_closed(params, inst["variant"])],
        [list(stats.pf)],
    )


def _check_gas_maximal(inst: dict) -> Check:
    params, stats = _gas(inst)
    return f"/b={params.b}", [fam.gas_maximal_predicate(params)], [stats.is_maximal]


def _check_gas_minimal(inst: dict) -> Check:
    params, stats = _gas(inst)
    return (
        f"/mode={inst['mode']}",
        [fam.gas_minimal_predicate(params, inst["mode"])],
        [stats.is_minimal],
    )


def _family_gens(name: str, inst: dict) -> Sequence[int]:
    """The generators of the named family at the parameter values ``inst`` holds."""
    family = fam.FAMILIES[name]
    return family.generators(*[inst[param] for param in family.params])


def _check_backelin_pf(inst: dict) -> Check:
    n, r = inst["n"], inst["r"]
    closed = [fam.backelin_pf_closed(n, r), fam.backelin_frobenius_closed(n, r)]
    got = list(_oracle_stats(_family_gens("backelin", inst)).pf)
    return "", closed, [got, max(got)]


def _check_never_extremal(family: str, inst: dict) -> Check:
    """Backelin and Bresinsky: neither maximal nor minimal."""
    return "", ["neither"], [_oracle_stats(_family_gens(family, inst)).extremality_label]


def _check_bresinsky_pf(inst: dict) -> Check:
    h = inst["h"]
    closed = [fam.bresinsky_pf_closed(h), 4 * h - 3]
    got = list(_oracle_stats(_family_gens("bresinsky", inst)).pf)
    return "", closed, [got, len(got)]


def _gluing_spec(inst: dict) -> cons.GluingSpec:
    return cons.GluingSpec(
        _semigroup(inst["s1"]), _semigroup(inst["s2"]), inst["lambda"], inst["mu"]
    )


def _check_gluing_pf(inst: dict) -> Check:
    spec = _gluing_spec(inst)
    closed = [
        cons.gluing_pf(spec),
        len(spec.s1.pf_set()) * len(spec.s2.pf_set()),
        cons.gluing_frobenius_closed(spec),
    ]
    stats = _oracle_stats(spec.generators)
    return "", closed, [list(stats.pf), stats.cm_type, stats.frobenius]


def _check_gluing_maximal(inst: dict) -> Check:
    spec = _gluing_spec(inst)
    try:
        condition = cons.gluing_maximal_sufficient(spec)
    except cons.NotApplicableError:
        return "", ["not-applicable"], []
    return "", [condition], [_oracle_stats(spec.generators).is_maximal]


def _check_nice_extension(inst: dict) -> Check:
    s = _semigroup(inst["s"])
    spec = cons.nice_extension(s, inst["p"], inst["coeffs"])
    base_max = s.pf_profile().extremality.is_maximal
    return "", [base_max], [_oracle_stats(spec.generators).is_maximal]


def _dup_spec(inst: dict) -> cons.DuplicationSpec:
    e = _ideal(inst["gens"], inst["ideal"])
    return cons.DuplicationSpec(e.ambient, e, inst["d"])


_KIND_TAG = {
    cons.IdealKind.FULL: "/case-full",
    cons.IdealKind.STAR: "/case-star",
    cons.IdealKind.PROPER: "/case-proper",
}


def _check_dup_pf(inst: dict) -> Check:
    spec = _dup_spec(inst)
    closed = [
        cons.duplication_pf(spec),
        cons.duplication_type_closed(spec),
        2 * spec.e.tilde_frobenius + spec.d,
    ]
    stats = _oracle_dup_stats(inst["gens"], inst["ideal"], inst["d"])
    got = [list(stats.pf), stats.cm_type, stats.frobenius]
    return _KIND_TAG[spec.e_kind], closed, got


def _check_dup_minimal(inst: dict) -> Check:
    result = cons.duplication_min_classifier(_dup_spec(inst))
    oracle_min = _oracle_dup_stats(inst["gens"], inst["ideal"], inst["d"]).is_minimal
    return f"/{result.clause}", [result.clause, result.verdict.value], [oracle_min]


def _check_dup_maximal(star: bool, inst: dict) -> Check:
    """E = S or E = S*: the maximality iff of the duplication."""
    s = _semigroup(inst["gens"])
    closed_form = cons.duplication_max_star if star else cons.duplication_max_self
    closed = closed_form(s, inst["d"])
    e_gens = list(s.minimal_generators) if star else [0]
    return "", [closed], [_oracle_dup_stats(inst["gens"], e_gens, inst["d"]).is_maximal]


def _check_fixed_type(family: str, extremal: str, inst: dict) -> Check:
    """Uniform type (maximal) and staircase (minimal): PF and extremality."""
    stats = _oracle_stats(_family_gens(family, inst))
    closed = fam.FAMILIES[family].pf_closed(inst["r"])
    return "", [closed, True], [list(stats.pf), getattr(stats, extremal)]


def _check_dup_uniform_type(inst: dict) -> Check:
    stats = _oracle_dup_stats(_family_gens("uniform-type", inst), [0], inst["d"])
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
    """One registered claim: its grid enumerator, its check and its judge,
    which decides a match from the closed form and the oracle's answer.  A
    statement published in two readings also names the instance key that
    carries the reading (the grid key that pins one, too) and the readings;
    verify runs each in turn and adjudicates."""

    instances: Callable[[dict], list[dict]]
    check: Callable[[dict], Check]
    judge: Callable[[list, list], bool] = operator.eq
    reading: str | None = None
    readings: Sequence[str] = ()


_CLAIMS: dict[str, _Claim] = {
    "thm-3.1": _Claim(
        _gas_instances, _check_gas_pf, reading="variant", readings=fam.GAS_PF_VARIANTS
    ),
    "prop-3.2": _Claim(_gas_instances, _check_gas_maximal),
    "prop-3.3": _Claim(
        _gas_instances, _check_gas_minimal, reading="mode", readings=fam.GAS_MINIMAL_MODES
    ),
    "prop-3.5": _Claim(_backelin_instances, _check_backelin_pf),
    "prop-3.6": _Claim(_backelin_instances, partial(_check_never_extremal, "backelin")),
    "thm-3.8": _Claim(_bresinsky_instances, _check_bresinsky_pf),
    "prop-3.10": _Claim(_bresinsky_instances, partial(_check_never_extremal, "bresinsky")),
    "cor-4.2": _Claim(_gluing_instances, _check_gluing_pf),
    "prop-4.3": _Claim(_gluing_instances, _check_gluing_maximal, _sufficient_for_maximal),
    "cor-4.6": _Claim(_nice_ext_instances, _check_nice_extension),
    "thm-5.2": _Claim(_dup_instances, _check_dup_pf),
    "thm-5.4": _Claim(_dup_instances, _check_dup_minimal, _verdict_not_contradicted),
    "prop-5.7": _Claim(_dup_self_instances, partial(_check_dup_maximal, False)),
    "prop-5.9": _Claim(_dup_self_instances, partial(_check_dup_maximal, True)),
    "remark-5.3": _Claim(
        partial(_r_instances, "uniform-type"),
        partial(_check_fixed_type, "uniform-type", "is_maximal"),
    ),
    "remark-5.5": _Claim(
        partial(_r_instances, "staircase"),
        partial(_check_fixed_type, "staircase", "is_minimal"),
    ),
    "remark-5.8": _Claim(_dup_uniform_instances, _check_dup_uniform_type),
}


def registered_claims() -> list[str]:
    return list(_CLAIMS)


def check_claim(claim_id: str) -> None:
    """Raise UnknownClaimError unless ``claim_id`` is 'all' or a registered claim."""
    if claim_id != "all" and claim_id not in _CLAIMS:
        raise UnknownClaimError(
            f"unknown claim {claim_id!r}; registered: {', '.join(_CLAIMS)}"
        )


def check_threads() -> None:
    """Raise InvalidParamError unless NSG_THREADS is unset or an integer >= 1.

    A valid value is ignored: verify runs in one process.
    """
    env = os.environ.get("NSG_THREADS")
    if not env:
        return
    try:
        requested = int(env)
    except ValueError:
        raise InvalidParamError(f"NSG_THREADS must be an integer, got {env!r}") from None
    if requested < 1:
        raise InvalidParamError(f"NSG_THREADS must be >= 1, got {requested}")


def claim_instances(claim_id: str, grid: dict | None = None) -> list[dict]:
    """One registered claim's instances in their fixed order, reading by reading
    for a claim with two; a grid past a cap raises here."""
    row = _CLAIMS[claim_id]
    grid = _resolve_grid(grid)
    instances = row.instances(grid)
    key = row.reading
    if key is None:
        return instances
    chosen = [grid[key]] if grid.get(key) else row.readings
    return [{**inst, key: v} for v in chosen for inst in instances]


def run_instance(claim_id: str, inst: dict) -> VerificationReport:
    """Check one instance of a registered claim and judge it; ``elapsed`` times both."""
    t0 = time.perf_counter()
    row = _CLAIMS[claim_id]
    tag, closed_form, got = row.check(inst)
    report = VerificationReport(claim_id + tag, inst, closed_form, got, row.judge(closed_form, got))
    report.elapsed = time.perf_counter() - t0
    return report


def adjudicate(claim_id: str, reports: Iterable[VerificationReport]) -> dict | None:
    """Per-reading match rates, or None unless the claim has two readings and
    its reports carry two or more of them."""
    key = _CLAIMS[claim_id].reading if claim_id in _CLAIMS else None
    if key is None:
        return None
    totals: dict[str, list[int]] = {}
    for rep in reports:
        val = rep.instance[key]
        tot = totals.setdefault(val, [0, 0])
        tot[0] += rep.match
        tot[1] += 1
    if len(totals) < 2:
        return None
    clean = sorted(v for v, (ok, n) in totals.items() if ok == n and n > 0)
    return {
        "claim": claim_id,
        "key": key,
        "rates": {v: f"{ok}/{n}" for v, (ok, n) in sorted(totals.items())},
        "clean": clean,
        "decided": clean[0] if len(clean) == 1 else None,
    }


def claim_passes(claim_id: str, reports: list[VerificationReport]) -> bool:
    """Exactly one clean reading when two are adjudicated; otherwise every report matches."""
    verdict = adjudicate(claim_id, reports)
    if verdict is not None:
        return verdict["decided"] is not None
    return all(rep.match for rep in reports)


def verify_claim(claim_id: str, grid: dict | None = None) -> list[VerificationReport]:
    """Run one registered claim (or 'all') over its grid; one report per instance.

    Instances are enumerated in a fixed order and checked one after another
    in the calling process, so reports come back in that order.  The call is
    one verify run (or part of the open one): 'all' shares one memo across
    its claims, and no memo is held once the call returns.
    """
    check_claim(claim_id)
    with verify_run():
        if claim_id == "all":
            out = []
            for cid in _CLAIMS:
                out.extend(verify_claim(cid, grid))
            return out
        return [run_instance(claim_id, inst) for inst in claim_instances(claim_id, grid)]
