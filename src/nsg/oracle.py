"""Brute-force recomputation of every invariant, straight from the definitions.

Nothing here touches the Apery-set machinery.  One forward DP closure grows a
membership table until it holds a run of ``multiplicity`` consecutive members,
which ends at F + m; one scan of that table finds the multiplicity, the
Frobenius number, the atoms S* \\ (S* + S*), the pseudo-Frobenius numbers
(quantified over the atoms) and the reduced type.  Duplications are tabulated
pointwise from the closure of S and go through the same scan.  The claim
registry at the bottom pits each closed-form description against these
recomputations over parameter grids and emits one report per instance;
mismatches are findings to surface, never to patch away.  The checks read the
oracle through a process-wide memo, one answer per distinct semigroup; direct
``naive_*`` calls stay uncached.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from . import constructions as cons
from . import families as fam
from .core import (
    GcdNotOneError,
    InvalidParamError,
    NumericalSemigroup,
    SemigroupError,
    ZeroGeneratorError,
    EmptyGeneratorsError,
)


class UnknownClaimError(SemigroupError):
    pass


class GridTooLargeError(SemigroupError):
    pass


# Any grid instance whose estimated Frobenius number exceeds this is rejected.
FROBENIUS_CAP = 10**7


# ---------------------------------------------------------------------------
# Naive engine


def _validate(gens: Sequence[int]) -> list[int]:
    gs = sorted(set(int(g) for g in gens))
    if not gs:
        raise EmptyGeneratorsError("generator list is empty")
    if gs[0] < 1:
        raise ZeroGeneratorError(f"generators must be >= 1, got {gs[0]}")
    if math.gcd(*gs) != 1:
        raise GcdNotOneError(f"gcd is not 1: gcd{tuple(gs)}")
    return gs


def naive_closure(gens: Sequence[int], bound: int | None = None) -> list[bool]:
    """table[x] iff x is a nonnegative combination of gens, by a forward DP.

    With ``bound`` the table covers [0, bound].  Without one it grows in a
    single pass and stops at the first run of min(gens) consecutive positive
    members, which ends at F + m (at 1 for N).  A table that would pass
    ``FROBENIUS_CAP + m`` cells raises GridTooLargeError instead.
    """
    gs = _validate(gens)
    m = gs[0]
    limit = FROBENIUS_CAP + m
    # an unbounded table reaches the first generator that brings the gcd to
    # 1 (it is at most F + m), so a huge one is refused before any cell
    reach = bound if bound is not None else next(
        g for g, d in zip(gs, accumulate(gs, math.gcd)) if d == 1
    )
    table = [True]
    run = 0
    while len(table) <= bound if bound is not None else run < m:
        x = len(table)
        if x > limit or reach > limit:
            raise GridTooLargeError(f"closure of {gs} needs more than {limit} cells")
        member = any(x >= g and table[x - g] for g in gs)
        table.append(member)
        run = run + 1 if member else 0
    return table


@dataclass
class NaiveStats:
    """Definitional F, PF and reduced type, read off one membership table."""

    pf: list[int]
    reduced_type: int
    frobenius: int

    @property
    def cm_type(self) -> int:
        return len(self.pf)

    @property
    def is_maximal(self) -> bool:
        return self.reduced_type == self.cm_type

    @property
    def is_minimal(self) -> bool:
        return self.reduced_type == 1

    @property
    def extremality_label(self) -> str:
        if self.is_maximal and self.is_minimal:
            return "both"
        if self.is_maximal:
            return "maximal"
        if self.is_minimal:
            return "minimal"
        return "neither"


def _stats_from_table(table: list[bool]) -> NaiveStats:
    """The one definitional scan: F, PF and reduced type of a numerical semigroup table.

    A single pass finds m, F (the cell before the first run of m members) and
    the atoms S* \\ (S* + S*), all of which lie in [m, F + m].  PF is every
    non-member f in [-1, F] with f + a in S for every atom a; that is exact
    because every element of S* is a sum of atoms.  The reduced type counts
    [F - m + 1, F] \\ S.  The table must reach F + m.
    """
    atoms: list[int] = []
    run = 1  # 0 is a member
    for x in range(1, len(table)):
        if not table[x]:
            run = 0
            continue
        run += 1
        # every atom found so far is below x
        if not any(table[x - a] for a in atoms):
            atoms.append(x)
        if run >= atoms[0]:
            break
    else:
        raise AssertionError("table too short to locate the Frobenius number")
    m = atoms[0]
    frob = x - run
    gaps = [-1] + [y for y in range(frob + 1) if not table[y]]
    pf = [f for f in gaps if all(f + a > frob or table[f + a] for a in atoms)]
    reduced = sum(1 for f in gaps if f > frob - m)
    return NaiveStats(pf=pf, reduced_type=reduced, frobenius=frob)


def naive_stats(gens: Sequence[int]) -> NaiveStats:
    """F, PF and reduced type of <gens>: one closure, one scan."""
    return _stats_from_table(naive_closure(gens))


def naive_frobenius(gens: Sequence[int]) -> int:
    """Largest non-member of <gens>."""
    return naive_stats(gens).frobenius


def naive_pf(gens: Sequence[int]) -> list[int]:
    """PF by definition: non-members f in [-1, F] with f + a a member for every atom a."""
    return naive_stats(gens).pf


def naive_reduced_type(gens: Sequence[int]) -> int:
    """|[F - m + 1, F] \\ S|, counted directly off the closure table."""
    return naive_stats(gens).reduced_type


def naive_pf_full(gens: Sequence[int]) -> list[int]:
    """PF with the quantifier over *all* nonzero members, not just the atoms.

    The reference that the atom shortcut of the one scan is tested against.
    """
    return _pf_over_all_members(naive_closure(gens))


def _pf_over_all_members(table: list[bool]) -> list[int]:
    """PF of a numerical semigroup table that reaches past F, quantified over all of S*."""
    frob = max((x for x, inn in enumerate(table) if not inn), default=-1)

    def member(x: int) -> bool:
        return x > frob or x >= 0 and table[x]

    # f + s with s > F - f is automatically a member
    return [
        f
        for f in range(-1, frob + 1)
        if not member(f)
        and all(not member(s) or member(f + s) for s in range(1, frob - f + 1))
    ]


def naive_duplication_stats(
    s_gens: Sequence[int], e_gens: Sequence[int], d: int
) -> NaiveStats:
    """Definitional stats of 2*S u (2*E + d), assembled without the constructions module.

    ``e_gens`` are ideal generators inside S ([0] means E = S); membership of
    the duplication is computed pointwise from the one closure of S, and the
    duplication's table goes through the same scan as ``naive_stats``.  Like
    the closure, a table past ``FROBENIUS_CAP`` plus its multiplicity raises
    GridTooLargeError.
    """
    s_table = naive_closure(s_gens)

    def in_s(x: int) -> bool:
        # the table reaches F(S) + m(S): everything past it is in S
        return x >= len(s_table) or x >= 0 and s_table[x]

    def in_e(x: int) -> bool:
        return any(x >= g and in_s(x - g) for g in e_gens)

    # least c with [c, oo) in E, walked down from an always-valid start
    e_min = min(e_gens)
    c_e = e_min + len(s_table)
    while c_e > 0 and in_e(c_e - 1):
        c_e -= 1

    mult = min(2 * min(s_gens), 2 * e_min + d)
    bound = max(2 * len(s_table), 2 * c_e + d) + mult
    if bound > FROBENIUS_CAP + mult:
        raise GridTooLargeError(f"duplication table needs more than {FROBENIUS_CAP + mult} cells")
    table = [
        (x % 2 == 0 and in_s(x // 2))
        or (x >= d and (x - d) % 2 == 0 and in_e((x - d) // 2))
        for x in range(bound + 1)
    ]
    return _stats_from_table(table)


# ---------------------------------------------------------------------------
# Verification reports


@dataclass
class VerificationReport:
    claim: str
    instance: dict
    closed_form: list
    oracle: list
    match: bool
    elapsed: float = field(default=0.0, compare=False)

    def json_line(self) -> str:
        return json.dumps(
            {
                "claim": self.claim,
                "instance": self.instance,
                "match": self.match,
                "closed_form": self.closed_form,
                "oracle": self.oracle,
            }
        )


# Claims whose published text has two readings; verify runs both and
# adjudicates, and their pass criterion is "exactly one reading is clean".
ADJUDICATED = {"thm-3.1": "variant", "prop-3.3": "mode"}


def adjudicate(claim_id: str, reports: Iterable[VerificationReport]) -> dict:
    """Per-reading match rates for an adjudicated claim."""
    key = ADJUDICATED[claim_id]
    totals: dict[str, list[int]] = {}
    for rep in reports:
        val = rep.instance[key]
        tot = totals.setdefault(val, [0, 0])
        tot[0] += rep.match
        tot[1] += 1
    clean = sorted(v for v, (ok, n) in totals.items() if ok == n and n > 0)
    return {
        "claim": claim_id,
        "key": key,
        "rates": {v: f"{ok}/{n}" for v, (ok, n) in sorted(totals.items())},
        "clean": clean,
        "decided": clean[0] if len(clean) == 1 else None,
    }


def claim_passes(claim_id: str, reports: list[VerificationReport]) -> bool:
    """All-match for ordinary claims; exactly-one-clean-reading for adjudicated ones."""
    if claim_id in ADJUDICATED:
        key = ADJUDICATED[claim_id]
        readings = {rep.instance[key] for rep in reports}
        if len(readings) > 1:
            return adjudicate(claim_id, reports)["decided"] is not None
    return all(rep.match for rep in reports)


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


def _resolve_grid(grid: dict | None) -> dict:
    grid = dict(grid or {})
    preset = grid.pop("preset", "small")
    if preset not in _PRESETS:
        raise UnknownClaimError(f"unknown grid preset {preset!r}")
    merged = dict(_PRESETS[preset])
    merged.update(grid)
    return merged


def _cap(frobenius_estimate: int, what: str) -> None:
    if frobenius_estimate > FROBENIUS_CAP:
        raise GridTooLargeError(
            f"{what}: estimated Frobenius number {frobenius_estimate} exceeds {FROBENIUS_CAP}"
        )


@lru_cache(maxsize=8)
def _gas_tuples(bounds: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """The valid (n0, s, d, p) under ``bounds``, built once per process per bounds."""
    n0_max, s_max, d_max, p_max = bounds
    out = []
    for n0 in range(3, n0_max + 1):
        for s in range(1, s_max + 1):
            for d in range(1, d_max + 1):
                if math.gcd(n0, d) != 1:
                    continue
                for p in range(2, p_max + 1):
                    params = fam.GasParams(n0, s, d, p)
                    _cap(fam.gas_frobenius_closed(params), f"gas{(n0, s, d, p)}")
                    try:
                        fam.gas_semigroup(params)
                    except SemigroupError:
                        continue
                    out.append((n0, s, d, p))
    return tuple(out)


def _gas_instances(grid: dict) -> list[dict]:
    return [
        {"n0": n0, "s": s, "d": d, "p": p}
        for n0, s, d, p in _gas_tuples(tuple(grid["gas"]))
    ]


def _with_key(instances: list[dict], key: str, values: Iterable[str]) -> list[dict]:
    return [dict(inst, **{key: v}) for v in values for inst in instances]


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
    pool = [NumericalSemigroup(g) for g in _GLUE_POOL[: grid["glue_pool"]]]
    per = grid["glue_per"]
    out = []
    for s1 in pool:
        for s2 in pool:
            for mu in _nongen_members(s1, per):
                for lam in _nongen_members(s2, per):
                    if math.gcd(lam, mu) != 1:
                        continue
                    _cap(
                        lam * s1.frobenius + mu * s2.frobenius + lam * mu,
                        f"gluing lam={lam} mu={mu}",
                    )
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
        s = NumericalSemigroup(gens)
        # larger targets admit more representations, hence more valid p
        for target in _nongen_members(s, 3 * grid["glue_per"]):
            coeffs = cons.max_coeff_representation(s.minimal_generators, target)
            for p in range(2, min(sum(coeffs), 2 + 2 * grid["glue_per"]) + 1):
                if math.gcd(p, target) != 1:
                    continue
                _cap(
                    p * s.frobenius - target + p * target,
                    f"nice extension p={p} target={target}",
                )
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
        s = NumericalSemigroup(gens)
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
        s = NumericalSemigroup(gens)
        for d in _dup_ds(s, grid["dup_d"]):
            out.append({"gens": list(gens), "d": d})
    return out


def _r_instances(grid: dict) -> list[dict]:
    return [{"r": r} for r in range(1, grid["r_max"] + 1)]


def _dup_uniform_instances(grid: dict) -> list[dict]:
    out = []
    for r in range(2, max(3, grid["r_max"] - 2) + 1):
        s = fam.uniform_type_family(r)
        for d in _odd_members(s, 3, lo=2 * s.multiplicity + 1):
            out.append({"r": r, "d": d})
    return out


# ---------------------------------------------------------------------------
# Harness memo: one oracle answer per distinct semigroup per process
#
# Several claims ask about the same semigroup (each GAS tuple five times, the
# duplication triples up to four times), so the checks read the oracle through
# these caches.  They hold NaiveStats only, never tables; errors are not
# cached; each lookup hands out its own PF list.  The size covers the full
# grid's 2,450 semigroups and 186 duplications with room to spare.

_MEMO_SIZE = 4096


@lru_cache(maxsize=_MEMO_SIZE)
def _memo_stats(gens: tuple[int, ...]) -> NaiveStats:
    return naive_stats(gens)


@lru_cache(maxsize=_MEMO_SIZE)
def _memo_dup_stats(
    s_gens: tuple[int, ...], e_gens: tuple[int, ...], d: int
) -> NaiveStats:
    return naive_duplication_stats(s_gens, e_gens, d)


def _canon(gens: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(gens)))


def _oracle_stats(gens: Sequence[int]) -> NaiveStats:
    """``naive_stats(gens)``, computed once per distinct generator set."""
    stats = _memo_stats(_canon(gens))
    return replace(stats, pf=list(stats.pf))


def _oracle_dup_stats(s_gens: Sequence[int], e_gens: Sequence[int], d: int) -> NaiveStats:
    """``naive_duplication_stats(s_gens, e_gens, d)``, computed once per distinct triple."""
    stats = _memo_dup_stats(_canon(s_gens), _canon(e_gens), d)
    return replace(stats, pf=list(stats.pf))


def clear_memo() -> None:
    """Forget every memoised oracle answer and GAS grid."""
    _memo_stats.cache_clear()
    _memo_dup_stats.cache_clear()
    _gas_tuples.cache_clear()


# ---------------------------------------------------------------------------
# Per-claim checks (closed form vs oracle)


def _check_thm_3_1(inst: dict) -> VerificationReport:
    params = fam.GasParams(inst["n0"], inst["s"], inst["d"], inst["p"])
    closed = fam.gas_pf_closed(params, inst["variant"])
    got = _oracle_stats(params.sequence).pf
    return VerificationReport(
        claim=f"thm-3.1/b={params.b}/variant={inst['variant']}",
        instance=inst,
        closed_form=[closed],
        oracle=[got],
        match=closed == got,
    )


def _check_prop_3_2(inst: dict) -> VerificationReport:
    params = fam.GasParams(inst["n0"], inst["s"], inst["d"], inst["p"])
    closed = fam.gas_maximal_predicate(params)
    stats = _oracle_stats(params.sequence)
    return VerificationReport(
        claim=f"prop-3.2/b={params.b}",
        instance=inst,
        closed_form=[closed],
        oracle=[stats.is_maximal],
        match=closed == stats.is_maximal,
    )


def _check_prop_3_3(inst: dict) -> VerificationReport:
    params = fam.GasParams(inst["n0"], inst["s"], inst["d"], inst["p"])
    closed = fam.gas_minimal_predicate(params, inst["mode"])
    stats = _oracle_stats(params.sequence)
    return VerificationReport(
        claim=f"prop-3.3/mode={inst['mode']}",
        instance=inst,
        closed_form=[closed],
        oracle=[stats.is_minimal],
        match=closed == stats.is_minimal,
    )


def _backelin_gens(inst: dict) -> tuple[int, ...]:
    return fam.BackelinParams(inst["n"], inst["r"]).generators


def _bresinsky_gens(inst: dict) -> tuple[int, ...]:
    return fam.BresinskyParams(inst["h"]).generators


def _check_prop_3_5(inst: dict) -> VerificationReport:
    n, r = inst["n"], inst["r"]
    closed = fam.backelin_pf_closed(n, r)
    got = _oracle_stats(_backelin_gens(inst)).pf
    frob_closed = fam.backelin_frobenius_closed(n, r)
    return VerificationReport(
        claim="prop-3.5",
        instance=inst,
        closed_form=[closed, frob_closed],
        oracle=[got, max(got)],
        match=closed == got and frob_closed == max(got),
    )


def _check_never_extremal(
    claim: str, gens_of: Callable[[dict], Sequence[int]], inst: dict
) -> VerificationReport:
    """prop-3.6 (Backelin) and prop-3.10 (Bresinsky): neither maximal nor minimal."""
    label = _oracle_stats(gens_of(inst)).extremality_label
    return VerificationReport(
        claim=claim,
        instance=inst,
        closed_form=["neither"],
        oracle=[label],
        match=label == "neither",
    )


def _check_thm_3_8(inst: dict) -> VerificationReport:
    h = inst["h"]
    closed = fam.bresinsky_pf_closed(h)
    got = _oracle_stats(_bresinsky_gens(inst)).pf
    return VerificationReport(
        claim="thm-3.8",
        instance=inst,
        closed_form=[closed, 4 * h - 3],
        oracle=[got, len(got)],
        match=closed == got and len(got) == 4 * h - 3,
    )


def _glued_gens(inst: dict) -> list[int]:
    s1 = NumericalSemigroup(inst["s1"])
    s2 = NumericalSemigroup(inst["s2"])
    return sorted(
        [inst["lambda"] * g for g in s1.minimal_generators]
        + [inst["mu"] * g for g in s2.minimal_generators]
    )


def _check_cor_4_2(inst: dict) -> VerificationReport:
    s1 = NumericalSemigroup(inst["s1"])
    s2 = NumericalSemigroup(inst["s2"])
    spec = cons.GluingSpec(s1, s2, inst["lambda"], inst["mu"])
    closed_pf = cons.gluing_pf(spec)
    type_product = len(s1.pf_set()) * len(s2.pf_set())
    closed_frob = cons.gluing_frobenius_closed(spec)
    stats = _oracle_stats(_glued_gens(inst))
    return VerificationReport(
        claim="cor-4.2",
        instance=inst,
        closed_form=[closed_pf, type_product, closed_frob],
        oracle=[stats.pf, stats.cm_type, stats.frobenius],
        match=closed_pf == stats.pf
        and type_product == stats.cm_type
        and closed_frob == stats.frobenius,
    )


def _check_prop_4_3(inst: dict) -> VerificationReport:
    s1 = NumericalSemigroup(inst["s1"])
    s2 = NumericalSemigroup(inst["s2"])
    spec = cons.GluingSpec(s1, s2, inst["lambda"], inst["mu"])
    try:
        condition = cons.gluing_maximal_sufficient(spec)
    except cons.NotApplicableError:
        return VerificationReport(
            claim="prop-4.3",
            instance=inst,
            closed_form=["not-applicable"],
            oracle=[],
            match=True,
        )
    oracle_max = _oracle_stats(_glued_gens(inst)).is_maximal
    return VerificationReport(
        claim="prop-4.3",
        instance=inst,
        closed_form=[condition],
        oracle=[oracle_max],
        # sufficient only: a true condition must force maximality
        match=(not condition) or oracle_max,
    )


def _check_cor_4_6(inst: dict) -> VerificationReport:
    s = NumericalSemigroup(inst["s"])
    spec = cons.nice_extension(s, inst["p"], inst["coeffs"])
    base_max = s.pf_profile().extremality.is_maximal
    ext_gens = sorted(
        [inst["p"] * g for g in s.minimal_generators] + [spec.mu]
    )
    ext_max = _oracle_stats(ext_gens).is_maximal
    return VerificationReport(
        claim="cor-4.6",
        instance=inst,
        closed_form=[base_max],
        oracle=[ext_max],
        match=base_max == ext_max,
    )


def _dup_spec(inst: dict) -> cons.DuplicationSpec:
    s = NumericalSemigroup(inst["gens"])
    e = cons.SemigroupIdeal(s, inst["ideal"])
    return cons.DuplicationSpec(s, e, inst["d"])


_KIND_TAG = {
    cons.IdealKind.FULL: "case-full",
    cons.IdealKind.STAR: "case-star",
    cons.IdealKind.PROPER: "case-proper",
}


def _check_thm_5_2(inst: dict) -> VerificationReport:
    spec = _dup_spec(inst)
    closed_pf = cons.duplication_pf(spec)
    closed_type = cons.duplication_type_closed(spec)
    closed_frob = 2 * spec.e.tilde.frobenius + spec.d
    stats = _oracle_dup_stats(inst["gens"], inst["ideal"], inst["d"])
    return VerificationReport(
        claim=f"thm-5.2/{_KIND_TAG[spec.e_kind]}",
        instance=inst,
        closed_form=[closed_pf, closed_type, closed_frob],
        oracle=[stats.pf, stats.cm_type, stats.frobenius],
        match=closed_pf == stats.pf
        and closed_type == stats.cm_type
        and closed_frob == stats.frobenius,
    )


def _check_thm_5_4(inst: dict) -> VerificationReport:
    spec = _dup_spec(inst)
    result = cons.duplication_min_classifier(spec)
    oracle_min = _oracle_dup_stats(inst["gens"], inst["ideal"], inst["d"]).is_minimal
    if result.verdict is cons.Verdict.TRUE:
        ok = oracle_min
    elif result.verdict is cons.Verdict.FALSE:
        ok = not oracle_min
    elif result.verdict is cons.Verdict.SUFFICIENT_ONLY_TRUE:
        ok = oracle_min
    else:
        ok = True
    return VerificationReport(
        claim=f"thm-5.4/{result.clause}",
        instance=inst,
        closed_form=[result.clause, result.verdict.value],
        oracle=[oracle_min],
        match=ok,
    )


def _check_dup_maximal(claim: str, star: bool, inst: dict) -> VerificationReport:
    """prop-5.7 (E = S) and prop-5.9 (E = S*): the maximality iff of the duplication."""
    s = NumericalSemigroup(inst["gens"])
    closed_form = cons.duplication_max_star if star else cons.duplication_max_self
    closed = closed_form(s, inst["d"])
    e_gens = list(s.minimal_generators) if star else [0]
    oracle_max = _oracle_dup_stats(inst["gens"], e_gens, inst["d"]).is_maximal
    return VerificationReport(
        claim=claim,
        instance=inst,
        closed_form=[closed],
        oracle=[oracle_max],
        match=closed == oracle_max,
    )


def _check_remark_5_3(inst: dict) -> VerificationReport:
    r = inst["r"]
    gens = list(range(r + 1, 2 * r + 2))
    stats = _oracle_stats(gens)
    closed = [fam.uniform_type_pf_closed(r), True]
    return VerificationReport(
        claim="remark-5.3",
        instance=inst,
        closed_form=closed,
        oracle=[stats.pf, stats.is_maximal],
        match=closed == [stats.pf, stats.is_maximal],
    )


def _check_remark_5_5(inst: dict) -> VerificationReport:
    r = inst["r"]
    gens = [r + 1 + i * (r + 2) for i in range(r + 1)]
    stats = _oracle_stats(gens)
    closed = [fam.staircase_pf_closed(r), True]
    return VerificationReport(
        claim="remark-5.5",
        instance=inst,
        closed_form=closed,
        oracle=[stats.pf, stats.is_minimal],
        match=closed == [stats.pf, stats.is_minimal],
    )


def _check_remark_5_8(inst: dict) -> VerificationReport:
    r, d = inst["r"], inst["d"]
    gens = list(range(r + 1, 2 * r + 2))
    stats = _oracle_dup_stats(gens, [0], d)
    return VerificationReport(
        claim="remark-5.8",
        instance=inst,
        closed_form=[r, True],
        oracle=[stats.cm_type, stats.is_maximal],
        match=stats.cm_type == r and stats.is_maximal,
    )


# ---------------------------------------------------------------------------
# Registry and runner


def _gas_variant_instances(grid: dict) -> list[dict]:
    variants = [grid["variant"]] if grid.get("variant") else list(fam.GAS_PF_VARIANTS)
    return _with_key(_gas_instances(grid), "variant", variants)


def _gas_mode_instances(grid: dict) -> list[dict]:
    modes = [grid["mode"]] if grid.get("mode") else list(fam.GAS_MINIMAL_MODES)
    return _with_key(_gas_instances(grid), "mode", modes)


_CLAIMS: dict[str, tuple[Callable[[dict], list[dict]], Callable[[dict], VerificationReport]]] = {
    "thm-3.1": (_gas_variant_instances, _check_thm_3_1),
    "prop-3.2": (_gas_instances, _check_prop_3_2),
    "prop-3.3": (_gas_mode_instances, _check_prop_3_3),
    "prop-3.5": (_backelin_instances, _check_prop_3_5),
    "prop-3.6": (
        _backelin_instances,
        partial(_check_never_extremal, "prop-3.6", _backelin_gens),
    ),
    "thm-3.8": (_bresinsky_instances, _check_thm_3_8),
    "prop-3.10": (
        _bresinsky_instances,
        partial(_check_never_extremal, "prop-3.10", _bresinsky_gens),
    ),
    "cor-4.2": (_gluing_instances, _check_cor_4_2),
    "prop-4.3": (_gluing_instances, _check_prop_4_3),
    "cor-4.6": (_nice_ext_instances, _check_cor_4_6),
    "thm-5.2": (_dup_instances, _check_thm_5_2),
    "thm-5.4": (_dup_instances, _check_thm_5_4),
    "prop-5.7": (_dup_self_instances, partial(_check_dup_maximal, "prop-5.7", False)),
    "prop-5.9": (_dup_self_instances, partial(_check_dup_maximal, "prop-5.9", True)),
    "remark-5.3": (_r_instances, _check_remark_5_3),
    "remark-5.5": (_r_instances, _check_remark_5_5),
    "remark-5.8": (_dup_uniform_instances, _check_remark_5_8),
}


def registered_claims() -> list[str]:
    return list(_CLAIMS)


def check_claim(claim_id: str) -> None:
    """Raise UnknownClaimError unless ``claim_id`` is 'all' or a registered claim."""
    if claim_id != "all" and claim_id not in _CLAIMS:
        raise UnknownClaimError(
            f"unknown claim {claim_id!r}; registered: {', '.join(_CLAIMS)}"
        )


def _worker_count(instances: int) -> int:
    """Pool size: NSG_THREADS (default all cores), capped by cores and instances."""
    cores = os.cpu_count() or 1
    env = os.environ.get("NSG_THREADS")
    if not env:
        return min(cores, instances)
    try:
        requested = int(env)
    except ValueError:
        raise InvalidParamError(f"NSG_THREADS must be an integer, got {env!r}") from None
    if requested < 1:
        raise InvalidParamError(f"NSG_THREADS must be >= 1, got {requested}")
    return min(requested, cores, instances)


def _run_one(claim_id: str, inst: dict) -> VerificationReport:
    t0 = time.perf_counter()
    report = _CLAIMS[claim_id][1](inst)
    report.elapsed = time.perf_counter() - t0
    return report


def verify_claim(claim_id: str, grid: dict | None = None) -> list[VerificationReport]:
    """Run one registered claim (or 'all') over its grid; one report per instance.

    Instances are enumerated in a fixed order and reports come back in that
    order regardless of how many workers ran them (NSG_THREADS caps the pool;
    default is all cores).
    """
    check_claim(claim_id)
    if claim_id == "all":
        out = []
        for cid in _CLAIMS:
            out.extend(verify_claim(cid, grid))
        return out
    instances = _CLAIMS[claim_id][0](_resolve_grid(grid))
    run = partial(_run_one, claim_id)
    workers = _worker_count(len(instances))
    if workers <= 1 or len(instances) < 16:
        return [run(inst) for inst in instances]
    chunk = max(1, len(instances) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, instances, chunksize=chunk))
