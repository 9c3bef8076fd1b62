import ast
import gc
import gzip
import hashlib
import importlib
import json
import math
import multiprocessing.process
import os
import random
import sys
import tracemalloc
import types
from collections import Counter
from pathlib import Path

import pytest
from conftest import run_cli
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nsg.constructions as cons
import nsg.core as core
import nsg.families as fam
import nsg.naive as naive
import nsg.oracle as oracle
from nsg.constructions import Verdict
from nsg.core import (
    GcdNotOneError,
    InvalidParamError,
    NumericalSemigroup,
    SemigroupError,
    ZeroGeneratorError,
)
from nsg.naive import (
    GridTooLargeError,
    naive_closure,
    naive_duplication_stats,
    naive_frobenius,
    naive_pf,
    naive_pf_full,
    naive_reduced_type,
    naive_stats,
)
from nsg.oracle import UnknownClaimError, verify_claim

SMOKE_JSONL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify-smoke.jsonl.gz"
FULL_JSONL = SMOKE_JSONL.with_name("verify-full.jsonl.gz")


def test_naive_closure():
    # the table ends at F + m with a member, and every x past it is a member
    def members(gens, top):
        table = naive_closure(gens)
        assert table[-1], gens
        return [x >= len(table) or table[x] for x in range(top + 1)]

    table = members([3, 4, 5], 10)
    assert [x for x in range(11) if not table[x]] == [1, 2]
    table = members([12, 15, 20, 23], 50)
    assert not table[49]
    assert table[12] and table[27] and table[35]
    assert all(members([1], 5))
    with pytest.raises(GcdNotOneError):
        naive_closure([4, 6])
    # the table stops at the first run of m members, at F + m
    assert naive_closure([3, 4, 5]) == [True, False, False, True, True, True]
    assert len(naive_closure([12, 15, 20, 23])) == 49 + 12 + 1
    assert naive_closure([1]) == [True, True]


def test_direct_call_past_frobenius_cap_is_refused(monkeypatch):
    # F = 2**41 - 1: the first generator that brings the gcd to 1 is past the
    # cap, so the call is refused before the table grows
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLargeError):
            naive_pf([2, 2**41 + 1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # a table that outgrows the cap on the way is refused too
    monkeypatch.setattr(naive, "FROBENIUS_CAP", 100)
    assert naive_frobenius([9, 10]) == 71  # F + m = 80 cells
    with pytest.raises(GridTooLargeError):
        naive_frobenius([12, 13])  # F + m = 143 cells
    with pytest.raises(GridTooLargeError):
        naive_closure([12, 13])  # and so is its list view
    # and so is a duplication table past it, though the closure of S is small
    assert naive_duplication_stats([2, 3], [0], 41).frobenius == 43
    with pytest.raises(GridTooLargeError):
        naive_duplication_stats([2, 3], [0], 1001)


def test_large_closure_is_cheap():
    # F = 1009 * 3001 - 1009 - 3001: a 3-million-cell window
    tracemalloc.start()
    try:
        stats = naive_stats([1009, 3001])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.frobenius == 3_023_999
    assert stats.pf == (3_023_999,)
    assert stats.reduced_type == 1
    assert peak < 8 * 2**20


@st.composite
def closure_extensions(draw):
    """The canonical generators of a numerical semigroup P (N, two generators or more) and
    one generator above P's largest, at times already a member of P."""
    parent = draw(st.one_of(st.just([1]), st.lists(st.integers(2, 40), min_size=2, max_size=4)))
    key = tuple(sorted(set(parent)))
    assume(math.gcd(*key) == 1)
    beyond = st.integers(key[-1] + 1, key[-1] + 60)
    member = st.sampled_from(key).map(lambda g: key[-1] + g)
    return key, draw(st.one_of(beyond, member))


@given(closure_extensions())
@settings(max_examples=100, deadline=None)
def test_extended_closure_is_the_fresh_closure(case):
    key, g = case
    kept = naive._closure_bits(key)
    assert naive._extend_closure(kept, key + (g,)) == naive._closure_bits(key + (g,))


def test_every_gas_prefix_chain_of_the_full_grid_extends_exactly():
    # each (n0, s, d) of the full grid, from its two-generator prefix up to its
    # largest p, one generator at a time, bit for bit against a fresh closure
    p_max = {}
    for n0, s, d, p in oracle._gas_tuples(oracle._PRESETS["full"]["gas"]):
        p_max[n0, s, d] = p
    assert sum(p - 1 for p in p_max.values()) == 2187
    for (n0, s, d), p in p_max.items():
        gens = fam.gas_generators(n0, s, d, p)
        bits = naive._closure_bits(gens[:2])
        for k in range(3, len(gens) + 1):
            bits = naive._extend_closure(bits, gens[:k])
            assert bits == naive._closure_bits(gens[:k]), gens[:k]


def test_naive_frobenius():
    assert naive_frobenius([3, 4, 5]) == 2
    assert naive_frobenius([1]) == -1
    assert naive_frobenius([12, 15, 20, 23]) == 49
    assert naive_frobenius([6, 10, 15]) == 29


def test_naive_pf():
    assert naive_pf([3, 4, 5]) == [1, 2]
    assert naive_pf([5, 6, 7]) == [8, 9]
    assert naive_pf([1]) == [-1]
    assert naive_pf([67, 70, 74, 75]) == [213, 221, 601, 602, 604, 605, 607, 608]


def test_naive_reduced_type():
    assert naive_reduced_type([12, 15, 20, 23]) == 2
    assert naive_reduced_type([67, 70, 74, 75]) == 6
    assert naive_reduced_type([2, 3]) == 1
    assert naive_reduced_type([1]) == 1


def test_generator_shortcut_equals_full_check():
    # 50 random semigroups with multiplicity <= 30, fixed seed
    rng = random.Random(0x5EED)
    done = 0
    while done < 50:
        gens = sorted(rng.sample(range(2, 31), rng.randint(2, 4)))
        if math.gcd(*gens) != 1:
            continue
        assert naive_pf(gens) == naive_pf_full(gens), gens
        # the scan quantifies over the canonical generators, whatever order or repeats it is given
        messy = gens[::-1] + gens[:1]
        assert naive_stats(messy) == naive_stats(gens), gens
        assert list(naive_stats(messy).pf) == naive._pf_over_all_members(naive_closure(gens)), gens
        done += 1
    # N and sets holding 1; one large generator, needed or redundant; F + m
    # on a doubled window ([5, 7]: 28) and one cell past one ([4, 9, 10]: 19)
    for gens in ([1], [1, 5], [1, 2, 3], [2, 257], [4, 6, 301], [3, 5, 500], [5, 7], [4, 9, 10]):
        assert naive_pf(gens) == naive_pf_full(gens), gens
        assert naive_frobenius(gens) == NumericalSemigroup(gens).frobenius, gens
    # duplications 2*S u (2*E + d) for E = S, S* and a proper ideal, tabulated
    # here from a closure of S and read off by definition: the reference for the
    # closure of D's generators that the engine runs
    def check_dup(gens, e_gens, d, top):
        table = naive_closure(gens)  # past F + m every x is a member
        in_s = [x >= len(table) or table[x] for x in range(top + 1)]
        in_e = [any(g <= x and in_s[x - g] for g in e_gens) for x in range(top + 1)]
        dup = [
            x % 2 == 0 and in_s[x // 2] or x >= d and (x - d) % 2 == 0 and in_e[(x - d) // 2]
            for x in range(top + 1)
        ]
        frob = max((x for x, inn in enumerate(dup) if not inn), default=-1)
        m = dup.index(True, 1)
        reduced = sum(x < 0 or not dup[x] for x in range(frob - m + 1, frob + 1))
        naive_dup = naive_duplication_stats(gens, e_gens, d)
        assert list(naive_dup.pf) == naive._pf_over_all_members(dup), (gens, e_gens, d)
        assert (naive_dup.frobenius, naive_dup.reduced_type) == (frob, reduced), (gens, e_gens, d)
        messy = naive_duplication_stats(gens[::-1] + gens, e_gens[::-1] + e_gens, d)
        assert messy == naive_dup, (gens, e_gens, d)

    done = 0
    while done < 30:
        gens = sorted(rng.sample(range(2, 16), rng.randint(2, 3)))
        if math.gcd(*gens) != 1:
            continue
        s = NumericalSemigroup(gens)
        # E's generators stay below F + 16 and d at most max(F + 20, 2F + 1), so
        # F(dup) <= 2(F + max E) + d stays below the top
        top = 6 * s.frobenius + 60
        members = [x for x in range(1, top + 1) if s.contains(x)]
        # a small odd d and one above 2F(S)
        for d in (rng.choice([x for x in members[:20] if x % 2]), 2 * s.frobenius + 1):
            for e_gens in ([0], list(s.minimal_generators), rng.sample(members[:12], 2)):
                check_dup(gens, e_gens, d, top)
        done += 1
    # S = N, with E = N and E = N*
    for e_gens in ([0], [1]):
        for d in (1, 3):
            check_dup([1], e_gens, d, 20)


def test_one_closure_per_call(monkeypatch):
    calls = []
    closure = naive._closure_bits

    def counting(gens):
        calls.append(tuple(gens))
        return closure(gens)

    monkeypatch.setattr(naive, "_closure_bits", counting)
    naive_stats([12, 15, 20, 23])
    assert calls == [(12, 15, 20, 23)]
    calls.clear()
    # a duplication is closed from its own generators: 2*(3, 4, 5) and 2*(5, 6, 7) + 11
    naive_duplication_stats([3, 4, 5], [5, 6, 7], 11)
    assert calls == [(6, 8, 10, 21, 23, 25)]


def _count_closures(monkeypatch) -> tuple[list, list]:
    """Record the canonical generators of every fresh and every extended closure."""
    fresh, extended = [], []
    closure, extend = naive._closure_bits, naive._extend_closure

    def counting_closure(gens):
        fresh.append(tuple(sorted(set(gens))))
        return closure(gens)

    def counting_extend(kept, gens):
        extended.append(tuple(gens))
        return extend(kept, gens)

    monkeypatch.setattr(naive, "_closure_bits", counting_closure)
    monkeypatch.setattr(naive, "_extend_closure", counting_extend)
    return fresh, extended


def _gas_gens_past_p2(bounds) -> list[tuple[int, ...]]:
    """The generators of each GAS tuple with p >= 3 under ``bounds``, in grid order."""
    return [
        fam.gas_generators(*values)
        for values in oracle._gas_tuples(bounds)
        if values[3] >= 3
    ]


def _dup_generators(s_gens, e_gens, d) -> tuple[int, ...]:
    """The canonical generators of 2*S u (2*E + d): 2g for g in s_gens and 2e + d for e in e_gens."""
    return tuple(sorted({2 * g for g in s_gens} | {2 * e + d for e in e_gens}))


def test_one_closure_per_distinct_semigroup(monkeypatch):
    # verify asks the definitional engine once per distinct generator tuple, a
    # duplication's own generators included; each answer costs exactly one
    # closure, fresh or extended from the run's last one, and the GAS tuples
    # with p >= 3 are exactly the extended ones
    stats_keys = []
    stats = oracle._closed_stats
    fresh, extended = _count_closures(monkeypatch)

    def counting_stats(key):
        stats_keys.append(key)
        return stats(key)

    monkeypatch.setattr(oracle, "_closed_stats", counting_stats)
    reports = verify_claim("all", {"preset": "smoke"})
    assert len(set(stats_keys)) == len(stats_keys) > 0
    assert len(reports) > len(stats_keys)
    assert len(fresh) + len(extended) == len(stats_keys)
    assert sorted(fresh + extended) == sorted(stats_keys)
    # every duplication instance's D is closed under its canonical generators,
    # among the keys above, so once, however many claims ask it
    smoke = {"preset": "smoke"}
    e_gens = {
        "thm-5.2": lambda inst: inst["ideal"],
        "prop-5.7": lambda inst: [0],
        "prop-5.9": lambda inst: inst["gens"],
    }
    dup_gens = [
        _dup_generators(inst["gens"], e(inst), inst["d"])
        for claim, e in e_gens.items()
        for inst in oracle.claim_instances(claim, smoke)
    ]
    dup_gens += [
        _dup_generators(fam.FAMILIES["uniform-type"].generators(inst["r"]), [0], inst["d"])
        for inst in oracle.claim_instances("remark-5.8", smoke)
    ]
    assert len(dup_gens) > len(set(dup_gens)) > 0
    assert set(dup_gens) <= set(stats_keys)
    assert extended == _gas_gens_past_p2(oracle._PRESETS["smoke"]["gas"]) != []
    # the memo ends with its run: a second run builds exactly the same closures again
    first = (list(fresh), list(extended))
    fresh.clear()
    extended.clear()
    verify_claim("all", {"preset": "smoke"})
    assert (fresh, extended) == first


def test_large_gas_grid_closes_each_semigroup_once(monkeypatch):
    # 6,168 distinct semigroups, each asked under both readings: one run closes
    # each of them once, 5,145 of them (every tuple with p >= 3) extended from
    # the closure of the tuple before, and the stream is the one fresh closures give
    fresh, extended = _count_closures(monkeypatch)
    bounds = (24, 3, 25, 8)
    reports = verify_claim("thm-3.1", {"preset": "full", "gas": bounds})
    assert len(reports) == 2 * 6168
    closed = fresh + extended
    assert len(closed) == len(set(closed)) == 6168
    assert extended == _gas_gens_past_p2(bounds)
    assert len(extended) == 5145
    stream = "".join(rep.json_line() + "\n" for rep in reports)
    assert hashlib.sha256(stream.encode()).hexdigest() == (
        "ff390e468d315ac1deebef1bd4aef422ad030795794c3e8a82cd655412611388"
    )


def test_verify_run_builds_each_core_semigroup_once(monkeypatch):
    # the construction claims share one semigroup per generator tuple and one
    # ideal per (generators, ideal generators); the closed forms read a proper
    # ideal's tilde off its table, so no tilde is built
    builds = []
    init = NumericalSemigroup.__init__

    def counting_init(self, gens):
        gens = tuple(gens)
        builds.append((sys._getframe(1).f_code.co_name == "tilde", gens))
        init(self, gens)

    monkeypatch.setattr(NumericalSemigroup, "__init__", counting_init)
    with gzip.open(SMOKE_JSONL, "rt") as fh:
        golden = fh.read()
    code, out, _ = run_cli("verify", "all", "--grid", "smoke")
    assert (code, out) == (0, golden)
    assert len(set(builds)) == len(builds) > 0
    assert not any(by_tilde for by_tilde, _ in builds)


def test_run_instance_outside_a_run_answers_as_inside_one():
    with gzip.open(SMOKE_JSONL, "rt") as fh:
        golden = fh.read().splitlines()
    plan = [
        (claim, inst)
        for claim in oracle.registered_claims()
        for inst in oracle.claim_instances(claim, {"preset": "smoke"})
    ]
    with oracle.verify_run():
        inside = [oracle.run_instance(claim, inst).json_line() for claim, inst in plan]
    assert oracle._run_memo is None
    outside = [oracle.run_instance(claim, inst).json_line() for claim, inst in plan]
    assert outside == inside == golden


def test_cli_verify_all_matches_golden_jsonl():
    # the CLI asks for one claim at a time; the memo spans those calls
    with gzip.open(SMOKE_JSONL, "rt") as fh:
        golden = fh.read()
    code, out, _ = run_cli("verify", "all", "--grid", "smoke")
    assert code == 0
    assert out == golden


def test_memo_hands_out_fresh_pf_lists():
    # a report's oracle PF is its own list: mutating it leaves later runs alone
    claims = ("thm-3.1", "prop-3.5", "thm-3.8", "cor-4.2", "thm-5.2", "remark-5.3", "remark-5.5")
    for claim in claims:
        first = [r.json_line() for r in verify_claim(claim, {"preset": "smoke"})]
        for rep in verify_claim(claim, {"preset": "smoke"}):
            rep.oracle[0].append(-7)
        assert [r.json_line() for r in verify_claim(claim, {"preset": "smoke"})] == first
    # a cached answer cannot be changed: it is a named tuple and its PF a tuple
    dup = oracle._CLAIMS["thm-5.2"].ask
    ideal = {"gens": [3, 4, 5], "ideal": [5, 6, 7], "d": 11}
    with oracle.verify_run():
        for stats, again, pf in (
            (oracle._oracle_stats([3, 4, 5]), oracle._oracle_stats([5, 4, 3]), naive_pf([3, 4, 5])),
            (dup(ideal), dup({**ideal, "ideal": [7, 6, 5]}), [2, 4, 15, 17, 19]),
        ):
            assert again is stats
            assert isinstance(stats.pf, tuple)
            with pytest.raises(AttributeError):
                stats.pf.clear()
            with pytest.raises(AttributeError):
                stats.pf = []
            assert list(stats.pf) == list(again.pf) == pf


def test_every_answer_has_pf_as_a_tuple(monkeypatch):
    # one shape on every path: direct calls and answers outside a run alike;
    # naive_pf alone is a list view
    dup = naive_duplication_stats([3, 4, 5], [5, 6, 7], 11)
    for stats in (naive_stats([3, 4, 5]), naive_stats([1]), dup, oracle._oracle_stats([3, 4, 5])):
        assert type(stats.pf) is tuple, stats
    pf = naive_pf([3, 4, 5])
    assert type(pf) is list and pf == [1, 2]
    # inside a run the memo stores the very answer the engine returned, no copy
    returned = []
    closed = oracle._closed_stats

    def keeping(key):
        returned.append(closed(key))
        return returned[-1]

    monkeypatch.setattr(oracle, "_closed_stats", keeping)
    with oracle.verify_run() as memo:
        assert oracle._oracle_stats([5, 4, 3]) is returned[0]
        assert memo["stats", (3, 4, 5)] is returned[0]
        verify_claim("all", {"preset": "smoke"})
        stored = [value for key, value in memo.items() if key[0] == "stats"]
    assert len(stored) == len(returned) > 1
    assert {id(value) for value in stored} == {id(value) for value in returned}


def test_memo_is_bounded(monkeypatch):
    # no memo is held once verify_claim returns, the GAS grid included: outside
    # a run, asking for the same grid again enumerates it again
    capped = []
    cap = oracle._cap

    def counting(estimate, what):
        capped.append(what)
        return cap(estimate, what)

    monkeypatch.setattr(oracle, "_cap", counting)
    oracle.claim_instances("thm-3.1", {"preset": "full"})
    first = list(capped)
    oracle.claim_instances("thm-3.1", {"preset": "full"})
    assert len(first) > 0 and capped == first + first
    monkeypatch.undo()
    verify_claim("all", {"preset": "smoke"})
    assert oracle._run_memo is None
    # inside an open run, verify_claim reuses its memo, which holds one entry
    # per distinct question: asking the same plan again adds none
    with oracle.verify_run() as memo:
        verify_claim("all", {"preset": "smoke"})
        size = len(memo)
        assert size > 0
        with oracle.verify_run() as inner:
            assert inner is memo
        verify_claim("all", {"preset": "smoke"})
        assert oracle._run_memo is memo and len(memo) == size
    assert oracle._run_memo is None


def test_verify_run_pauses_the_collector_and_restores_its_state():
    # the outermost run turns the collector off and back to what it found, on
    # error too; a nested run leaves it as the caller set it
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with oracle.verify_run():
                assert not gc.isenabled()
                with oracle.verify_run():
                    pass
                assert not gc.isenabled()
                gc.enable()
                with oracle.verify_run():
                    assert gc.isenabled()
                gc.disable()
            assert gc.isenabled() is enabled
            with pytest.raises(GridTooLargeError):
                verify_claim("thm-3.8", {"h_max": 100000})
            assert gc.isenabled() is enabled and oracle._run_memo is None
    finally:
        (gc.enable if was else gc.disable)()


def test_memo_does_not_cache_errors(monkeypatch):
    # the cap has one home: a copy on the harness side would not move with it
    assert not hasattr(oracle, "FROBENIUS_CAP")
    monkeypatch.setattr(naive, "FROBENIUS_CAP", 100)
    with oracle.verify_run() as memo:
        for _ in range(2):
            with pytest.raises(GridTooLargeError):
                oracle._oracle_stats([12, 13])
            with pytest.raises(GridTooLargeError):
                oracle._CLAIMS["prop-5.7"].ask({"gens": [2, 3], "d": 1001})
            with pytest.raises(GridTooLargeError):
                oracle._gas({"n0": 20, "s": 1, "d": 1, "p": 2})
            with pytest.raises(GridTooLargeError):
                oracle._gas_instances({"gas": (16, 3, 17, 7)})
        assert memo == {}


def test_gas_grid_builds_no_semigroup(monkeypatch):
    # minimality of each candidate tuple is decided by p < n0, not by a core
    # build, and neither the domain test nor the cap builds a sequence: the
    # Frobenius estimate reads the plain tuple
    builds = []
    init = NumericalSemigroup.__init__

    def counting_init(self, gens):
        builds.append(gens)
        init(self, gens)

    monkeypatch.setattr(NumericalSemigroup, "__init__", counting_init)
    sequences = _counted(monkeypatch, fam, "gas_generators")
    instances = oracle.claim_instances("thm-3.1", {"preset": "full"})
    assert len(instances) == 2 * 2187
    assert builds == []
    assert sequences == []
    assert all(inst["p"] < inst["n0"] for inst in instances)


def test_gas_grid_hands_out_fresh_instances():
    grid = {"gas": (8, 2, 9, 4)}
    first = oracle._gas_instances(grid)
    first[0]["n0"] = -1
    first.append({})
    again = oracle._gas_instances({"gas": [8, 2, 9, 4]})
    assert again[0]["n0"] == 3 and {} not in again
    assert len(again) == len(first) - 1


def test_oracle_engine_reaches_no_closed_form():
    # the engine is the independent side of the harness: it imports the
    # standard library and, from the core, the error classes only, so it
    # reaches neither the Apery core nor the constructions nor the families
    tree = ast.parse(Path(naive.__file__).read_text())
    relative = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.partition(".")[0] in sys.stdlib_module_names, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            assert node.module.partition(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.ImportFrom):
            assert (node.level, node.module) == (1, "core"), ast.unparse(node)
            relative += [alias.name for alias in node.names]
    assert relative
    for name in relative:
        obj = getattr(core, name)
        assert isinstance(obj, type) and issubclass(obj, SemigroupError), name
    # and every engine name the harness holds is the engine's own object, not a copy
    shared = {name for name in vars(naive) if not name.startswith("__")} & set(vars(oracle))
    assert {"naive_stats", "naive_duplication_stats", "GridTooLargeError"} <= shared
    assert all(vars(oracle)[name] is vars(naive)[name] for name in shared)


def test_naive_duplication_stats():
    stats = naive_duplication_stats([3, 4, 5], [5, 6, 7], 11)
    assert stats.pf == (2, 4, 15, 17, 19)
    assert stats.frobenius == 19
    assert not stats.is_maximal and not stats.is_minimal
    stats = naive_duplication_stats([5, 6, 7], [0], 7)
    assert stats.pf == (23, 25)
    assert stats.is_maximal
    assert stats.extremality_label == "maximal"


def test_bad_duplication_inputs_raise_named_errors():
    # an even, zero or negative d is no duplication: the engine refuses each by a
    # named error, and so does every duplication claim, by its question or its check
    for s_gens, e_gens, d, error in (
        ([3, 4, 5], [0], 4, GcdNotOneError),
        ([3, 4, 5], [0], 0, ZeroGeneratorError),
        ([3, 4, 5], [0], -1, ZeroGeneratorError),
        ([3, 4, 5], [5, 6, 7], 10, GcdNotOneError),
    ):
        with pytest.raises(error):
            naive_duplication_stats(s_gens, e_gens, d)
    for claim in ("thm-5.2", "thm-5.4", "prop-5.7", "prop-5.9"):
        for d in (4, -1):
            with pytest.raises(SemigroupError):
                oracle.run_instance(claim, {"gens": [3, 4, 5], "ideal": [0], "d": d})


def test_self_duplication_is_the_gluing_with_n():
    # D(S, S, d) = 2S u (2S + d) = 2S + dN, the gluing of S and N with lambda = 2
    # and mu = d; GluingSpec refuses d a minimal generator of S, where thm-5.2
    # still covers it
    glued = refused = 0
    for inst in oracle.claim_instances("prop-5.7", {"preset": "full"}):
        s, d = NumericalSemigroup(inst["gens"]), inst["d"]
        closed = cons.duplication_pf(cons.DuplicationSpec(s, cons.SemigroupIdeal(s, [0]), d))
        got = list(naive_duplication_stats(inst["gens"], [0], d).pf)
        if d in s.minimal_generators:
            with pytest.raises(cons.MuIsMinimalGeneratorError):
                cons.GluingSpec(s, core.naturals(), 2, d)
            assert closed == got, inst
            refused += 1
        else:
            gluing = cons.gluing_pf(cons.GluingSpec(s, core.naturals(), 2, d))
            assert closed == gluing == got, inst
            glued += 1
    assert (glued, refused) == (27, 12)


def test_unknown_claim():
    with pytest.raises(UnknownClaimError):
        verify_claim("thm-9.9")
    with pytest.raises(UnknownClaimError, match="preset"):
        oracle.claim_instances("thm-3.8", {"preset": "bogus"})


def test_claim_instances_refuses_an_unknown_claim_by_name():
    # the text `nsg verify` prints, not a bare KeyError
    text = f"unknown claim 'thm-9.9'; registered: {', '.join(oracle.registered_claims())}"
    for call in (oracle.claim_instances, oracle.claim_grids, verify_claim):
        with pytest.raises(UnknownClaimError) as info:
            call("thm-9.9")
        assert str(info.value) == text


def test_all_refuses_a_bad_grid_before_any_instance_runs(monkeypatch):
    monkeypatch.setattr(oracle, "run_claim", None)
    for grid, error in (
        ({"mode": "bogus"}, InvalidParamError),
        ({"variant": ["Corrected"]}, InvalidParamError),
        ({"r_max": "3"}, InvalidParamError),
        ({"h_mx": 3}, UnknownClaimError),
    ):
        (key,) = grid
        with pytest.raises(error, match=f"'{key}'"):
            verify_claim("all", {"preset": "smoke", **grid})
    with pytest.raises(UnknownClaimError, match="^unknown grid key 'mode'$"):
        verify_claim("thm-3.8", {"preset": "smoke", "mode": "AsProof"})


def test_all_runs_each_claim_by_its_own_call_with_its_own_reading(monkeypatch):
    calls = []
    verify_one = oracle.verify_claim

    def recording(claim_id, grid=None):
        calls.append((claim_id, grid))
        return verify_one(claim_id, grid)

    monkeypatch.setattr(oracle, "verify_claim", recording)
    smoke = {"preset": "smoke"}
    reports = oracle.verify_claim("all", {**smoke, "mode": "AsProof", "variant": "Corrected"})
    assert [claim_id for claim_id, _ in calls] == ["all", *oracle.registered_claims()]
    own = {"prop-3.3": {"mode": "AsProof"}, "thm-3.1": {"variant": "Corrected"}}
    for claim_id, grid in calls[1:]:
        assert grid == {**smoke, **own.get(claim_id, {})}
    assert {rep.instance.get("mode") for rep in reports} == {None, "AsProof"}
    assert {rep.instance.get("variant") for rep in reports} == {None, "Corrected"}


def test_unknown_grid_key_is_refused():
    # a misspelt key must not leave the preset's value in force unnoticed
    with pytest.raises(UnknownClaimError, match="'h_mx'"):
        verify_claim("thm-3.8", {"h_mx": 100})
    with pytest.raises(UnknownClaimError, match="'gas_max'"):
        oracle.claim_instances("thm-3.1", {"preset": "smoke", "gas_max": (8, 2, 9, 4)})
    # a claim reads the preset's keys and its own reading key, and refuses another's
    grid = {"preset": "smoke", "h_max": 3, "r_max": 2}
    assert len(oracle.claim_instances("thm-3.8", grid)) == 2
    assert len(oracle.claim_instances("remark-5.5", grid)) == 2
    for claim_id, key, value in (
        ("thm-3.8", "mode", "AsProof"),
        ("remark-5.5", "variant", "Corrected"),
        ("prop-3.3", "variant", "Corrected"),
        ("thm-3.1", "mode", "AsProof"),
    ):
        with pytest.raises(UnknownClaimError, match=f"^unknown grid key '{key}'$"):
            oracle.claim_instances(claim_id, {**grid, key: value})
    for claim_id, key, value in (("prop-3.3", "mode", "AsProof"), ("thm-3.1", "variant", "Corrected")):
        pinned = oracle.claim_instances(claim_id, {**grid, key: value})
        assert len(pinned) == 176 and {inst[key] for inst in pinned} == {value}


def test_misshapen_grid_value_is_refused(monkeypatch):
    # each ended in a bare ValueError or TypeError before the grid was checked, or
    # (a negative glue_pool, sliced from the end) ran a grid nobody asked for
    for claim_id, grid in (
        ("thm-3.1", {"gas": (16, 3)}),
        ("prop-3.5", {"backelin": (5,)}),
        ("thm-3.8", {"h_max": "3"}),
        ("cor-4.2", {"glue_pool": 2.5}),
        ("thm-5.2", {"dup_d": -1}),
        ("cor-4.2", {"glue_per": -1}),
        ("cor-4.6", {"glue_per": -1}),
        ("cor-4.2", {"glue_pool": -1}),
    ):
        (key,) = grid
        with pytest.raises(InvalidParamError, match=f"'{key}'"):
            oracle.claim_instances(claim_id, grid)
    # a preset must be a known string, and a reading one of its claim's readings,
    # refused before any instance runs
    every = oracle.claim_instances("prop-3.3", {"preset": "smoke"})
    monkeypatch.setattr(oracle, "run_claim", None)
    with pytest.raises(UnknownClaimError, match="preset"):
        verify_claim("thm-3.1", {"preset": ["full"]})
    for claim_id, grid in (
        ("thm-3.1", {"variant": ["Corrected"]}),
        ("thm-3.1", {"variant": "corrected"}),
        ("prop-3.3", {"mode": "bogus"}),
    ):
        (key,) = grid
        with pytest.raises(InvalidParamError, match=f"'{key}'"):
            verify_claim(claim_id, {"preset": "smoke", **grid})
    # an empty or absent reading still means every reading
    for empty in ("", None, []):
        assert oracle.claim_instances("prop-3.3", {"preset": "smoke", "mode": empty}) == every
    # a list stands for a tuple, and a bool is an int
    assert oracle.claim_instances("thm-3.1", {"preset": "smoke", "gas": [8, 2, 9, 4]})
    assert oracle.claim_instances("thm-3.8", {"h_max": True}) == []


def test_gas_grid_is_the_sweep_walk():
    # verify's GAS grid and `nsg sweep gas` are one walk of FAMILIES["gas"]
    ranges = ("--n0-range", "3:9", "--s-range", "1:2", "--d-range", "1:6", "--p-range", "2:12")
    code, out, _ = run_cli("sweep", "gas", *ranges)
    assert code == 0
    swept = [tuple(map(int, line.split(",")[:4])) for line in out.splitlines()[1:]]
    assert swept and swept == list(oracle._gas_tuples((9, 2, 6, 12)))


def test_gas_grid_refuses_at_the_first_tuple_past_the_cap(monkeypatch):
    for cap, first in [(20, "gas(3, 1, 11, 2): estimated Frobenius number 22 exceeds 20"),
                       (50, "gas(4, 1, 17, 2): estimated Frobenius number 55 exceeds 50"),
                       (400, "gas(13, 3, 15, 2): estimated Frobenius number 401 exceeds 400")]:
        monkeypatch.setattr(naive, "FROBENIUS_CAP", cap)
        with pytest.raises(GridTooLargeError) as err:
            oracle._gas_tuples((16, 3, 17, 7))
        assert str(err.value) == first


def test_grid_too_large():
    with pytest.raises(GridTooLargeError):
        verify_claim("thm-3.8", {"h_max": 200})
    # the staircase has F = r(r+2): the cap refuses r_max = 10**5 before any check
    with pytest.raises(GridTooLargeError, match="staircase"):
        oracle.claim_instances("remark-5.5", {"r_max": 10**5})


def test_r_grids_are_capped_by_work(monkeypatch):
    # the summed work grows far faster than F (as r_max**3 where F = r), so
    # the cap is on generators x cells over the grid, checked before any build
    def refuse(r):
        raise AssertionError("built a semigroup")

    monkeypatch.setattr(oracle.fam, "uniform_type_family", refuse)
    for claim, what, largest in (
        ("remark-5.3", "uniform-type", 245),
        ("remark-5.5", "staircase", 77),
        ("remark-5.8", "uniform-type duplication", 118),
    ):
        with pytest.raises(GridTooLargeError, match=what):
            oracle.claim_instances(claim, {"r_max": 10**5})
        with pytest.raises(GridTooLargeError, match=what):
            oracle.claim_instances(claim, {"r_max": largest + 1})
        if claim != "remark-5.8":
            assert len(oracle.claim_instances(claim, {"r_max": largest})) == largest
    monkeypatch.undo()
    assert len(oracle.claim_instances("remark-5.8", {"r_max": 118})) == 3 * 115
    code, out, err = run_cli("verify", "remark-5.8", "--r-max", "119")
    assert (code, out) == (1, "")
    assert err == (
        "error: GridTooLargeError: uniform-type duplication r=2..117: estimated oracle work"
        " (generators x cells) passes 10000000 at r=117\n"
    )


def test_gluing_grids_are_capped_by_the_gluing_frobenius(monkeypatch):
    # both pools estimate F with the gluing's closed form, a nice extension
    # as the gluing of S with N, and refuse at the first instance past the cap
    full = {"preset": "full"}
    monkeypatch.setattr(naive, "FROBENIUS_CAP", 20)
    with pytest.raises(GridTooLargeError) as err:
        oracle.claim_instances("cor-4.2", full)
    assert str(err.value) == "gluing lam=7 mu=4: estimated Frobenius number 25 exceeds 20"
    with pytest.raises(GridTooLargeError) as err:
        oracle.claim_instances("cor-4.6", full)
    assert str(err.value) == "nice extension p=4 target=9: estimated Frobenius number 31 exceeds 20"
    monkeypatch.setattr(naive, "FROBENIUS_CAP", 200)
    with pytest.raises(GridTooLargeError) as err:
        oracle.claim_instances("cor-4.2", full)
    assert str(err.value) == "gluing lam=13 mu=8: estimated Frobenius number 202 exceeds 200"
    assert len(oracle.claim_instances("cor-4.6", full)) == 64


def test_full_grid_matches_golden_jsonl(monkeypatch):
    # the same run pins what it keeps and what it recomputes: one memo row per
    # GAS tuple, whose answer is the run's own entry for its generators, which
    # are looked up as given (no _canon), one closed-form PF per duplication
    # spec, which thm-5.2's PF and type share, and one closure per distinct
    # generator tuple, a duplication's included
    with gzip.open(FULL_JSONL, "rt") as fh:
        golden = fh.read().splitlines()
    assert len(golden) == 12192
    canon = _counted(monkeypatch, oracle, "_canon")
    dup_pf = _counted(monkeypatch, cons, "_duplication_pf")
    fresh, extended = _count_closures(monkeypatch)
    # verify_run pauses the collector because a run makes no reference cycles:
    # with it off, a collection after the run finds nothing unreachable
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    try:
        with oracle.verify_run() as memo:
            assert [r.json_line() for r in verify_claim("all", {"preset": "full"})] == golden
            tags = Counter(key[0] for key in memo)
            rows = [(key, row) for key, row in memo.items() if key[0] == "gas"]
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    assert tags == {
        "stats": 2586, "gas": 2187, "ideal": 26, "semigroup": 9, "gas grid": 1, "last closure": 1,
    }
    assert (len(fresh), len(extended)) == (846, 1740)
    assert extended == _gas_gens_past_p2(oracle._PRESETS["full"]["gas"])
    for key, row in rows:
        assert type(row) is oracle._GasRow and row.params == key[1:]
        assert row.stats is memo["stats", fam.gas_generators(*row.params)]
    assert len(canon) == 1257
    assert len(dup_pf) == 208
    # the core meets the oracle on every distinct semigroup the run closed
    answers = {key[1]: stats for key, stats in memo.items() if key[0] == "stats"}
    three = 0
    for gens, stats in answers.items():
        s = NumericalSemigroup(gens)
        profile = s.pf_profile()
        assert s.frobenius == stats.frobenius, gens
        assert s.pf_set() == list(stats.pf), gens
        assert profile.reduced_type == stats.reduced_type, gens
        assert profile.extremality.value == stats.extremality_label, gens
        three += len(s.minimal_generators) == 3
    assert (len(answers), three) == (2586, 490)


def _counted(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` for the test; the returned list gets one item per call."""
    calls, orig = [], getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _gas_plan(preset: str) -> list[tuple[str, dict]]:
    """The five GAS readings' instances of a preset, in verify's order."""
    return [
        (claim, inst)
        for claim in ("thm-3.1", "prop-3.2", "prop-3.3")
        for inst in oracle.claim_instances(claim, {"preset": preset})
    ]


def test_gas_row_is_built_by_the_first_instance_that_asks():
    # planning adds the grid and no row; the first instance of a tuple adds its
    # row (with its stats and the last closure), and every later reading none
    plan = _gas_plan("smoke")
    with oracle.verify_run() as memo:
        for claim in ("thm-3.1", "prop-3.2", "prop-3.3"):
            oracle.claim_instances(claim, {"preset": "smoke"})
        assert list(memo) == [("gas grid", 8, 2, 9, 4)]
        oracle.run_instance(*plan[0])
        assert Counter(key[0] for key in memo) == {
            "gas grid": 1, "gas": 1, "stats": 1, "last closure": 1
        }
        for claim, inst in plan:
            oracle.run_instance(claim, inst)
        size = len(memo)
        assert Counter(key[0] for key in memo)["gas"] == len(plan) // 5 == 176
        for claim, inst in plan:
            oracle.run_instance(claim, inst)
        assert len(memo) == size


def test_gas_hit_asks_no_engine_canon_or_params(monkeypatch):
    # once the run holds a tuple's row, its instances are answered by one lookup
    # and their own closed form: no naive function, no _canon, no GAS sequence or
    # parameter check
    plan = _gas_plan("smoke")
    with oracle.verify_run():
        first = [oracle.run_instance(claim, inst) for claim, inst in plan]

        def refuse(*args, **kwargs):
            raise AssertionError("reached on a memo hit")

        refused = set()
        for owner in (naive, oracle):
            for name, value in vars(owner).items():
                if isinstance(value, types.FunctionType) and value.__module__ == naive.__name__:
                    monkeypatch.setattr(owner, name, refuse)
                    refused.add(name)
        assert {"naive_stats", "_closure_bits", "_extend_closure", "_stats_from_bits"} <= refused
        monkeypatch.setattr(oracle, "_canon", refuse)
        monkeypatch.setattr(fam, "gas_generators", refuse)
        monkeypatch.setattr(fam, "_gas_refusal", refuse)
        again = [oracle.run_instance(claim, inst) for claim, inst in plan]
    assert again == first


def test_gas_row_flags_are_the_oracles():
    # every smoke tuple, all four (maximal, minimal) pairs among them
    flags = set()
    with oracle.verify_run():
        for inst in oracle._gas_instances(oracle._PRESETS["smoke"]):
            row = oracle._gas(inst)
            params = inst["n0"], inst["s"], inst["d"], inst["p"]
            want = naive_stats(fam.gas_generators(*params))
            assert row.params == params
            assert row.stats == (tuple(want.pf), want.reduced_type, want.frobenius)
            assert (row.is_maximal, row.is_minimal) == (want.is_maximal, want.is_minimal)
            assert row.b_tag == f"/b={inst['n0'] % inst['p']}"
            flags.add((row.is_maximal, row.is_minimal))
    assert len(flags) == 4


def test_gas_row_hands_each_report_its_own_pf():
    # within one run: the AsStated reading's oracle lists, appended to, leave
    # the Corrected reading, answered from the same rows, as a fresh run gives it
    plan = oracle.claim_instances("thm-3.1", {"preset": "smoke"})
    stated, corrected = plan[: len(plan) // 2], plan[len(plan) // 2 :]
    assert {inst["variant"] for inst in corrected} == {"Corrected"}
    want = [oracle.run_instance("thm-3.1", inst) for inst in corrected]
    with oracle.verify_run():
        for inst in stated:
            oracle.run_instance("thm-3.1", inst).oracle[0].append(-7)
        assert [oracle.run_instance("thm-3.1", inst) for inst in corrected] == want


def test_smoke_grid_matches_golden_jsonl():
    with gzip.open(SMOKE_JSONL, "rt") as fh:
        golden = fh.read().splitlines()
    assert [r.json_line() for r in verify_claim("all", {"preset": "smoke"})] == golden


def test_report_line_format():
    reports = verify_claim("thm-3.8", {"preset": "smoke"})
    assert len(reports) == 2  # h = 2, 3
    parsed = json.loads(reports[0].json_line())
    assert list(parsed) == ["claim", "instance", "match", "closed_form", "oracle"]
    assert parsed["claim"] == "thm-3.8"
    assert parsed["instance"] == {"h": 2}
    assert parsed["match"] is True
    assert parsed["closed_form"][0] == [28, 31, 33, 41, 49]


def test_report_equality_ignores_elapsed():
    report = oracle.run_instance("thm-3.8", {"h": 2})
    assert report.elapsed > 0
    again = oracle.VerificationReport(
        report.claim, report.instance, report.closed_form, report.oracle, report.match
    )
    assert again.elapsed == 0.0
    assert again == report
    again.elapsed = 5.0
    assert again == report
    again.match = not report.match
    assert again != report
    assert report.__eq__(report.json_line()) is NotImplemented
    assert report != report.json_line()
    with pytest.raises(TypeError):
        hash(report)
    assert repr(oracle.VerificationReport("thm-3.8", {"h": 2}, [1], [1], True, 0.5)) == (
        "VerificationReport(claim='thm-3.8', instance={'h': 2}, closed_form=[1], "
        "oracle=[1], match=True, elapsed=0.5)"
    )


def test_report_line_is_json_dumps_on_both_encoders(monkeypatch):
    # the encoder built once per process writes what json.dumps writes, on the
    # C path and on the pure-Python one an interpreter without _json takes
    report = oracle.VerificationReport(
        'thm-\u00e9\u4e2d "q" \\ \x00\x1f\n\t\u2028\U0001f600',
        {"big": 2**64 + 1, "huge": -(3**200), "neg": -7, "t": True, "f": False, "n": None},
        [[], {}, [[1, {"k": [(), {"\u00fc": ""}]}]], (4, (5, -6)), 0.1, 1e300],
        [float("nan"), float("inf"), -float("inf"), -0.0, 2.5e-320, {"\ud83d": "\x7f"}],
        True,
    )
    line = {
        "claim": report.claim,
        "instance": report.instance,
        "match": report.match,
        "closed_form": report.closed_form,
        "oracle": report.oracle,
    }
    expected = json.dumps(line)
    assert isinstance(oracle._encode_json, json.encoder.c_make_encoder)
    assert report.json_line() == expected

    py_ascii = json.encoder.py_encode_basestring_ascii
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(json.encoder, "encode_basestring_ascii", py_ascii)
    fallback = oracle._line_encoder()
    assert isinstance(fallback.__self__, json.JSONEncoder)
    monkeypatch.setattr(oracle, "_encode_json", fallback)
    assert report.json_line() == expected


def test_determinism():
    a = [r.json_line() for r in verify_claim("cor-4.2", {"preset": "smoke"})]
    b = [r.json_line() for r in verify_claim("cor-4.2", {"preset": "smoke"})]
    assert a == b


def test_parallel_runs_match_sequential(monkeypatch):
    # every claim, each run from a cold memo
    runs = {}
    for threads in ("1", "2", None):
        if threads is None:
            monkeypatch.delenv("NSG_THREADS", raising=False)
        else:
            monkeypatch.setenv("NSG_THREADS", threads)
        runs[threads] = [r.json_line() for r in verify_claim("all", {"preset": "smoke"})]
    assert runs["1"] == runs["2"] == runs[None]


def test_verify_starts_no_process(monkeypatch):
    # however many cores there are, every claim runs in the calling process
    def refuse(self):
        raise AssertionError("verify started a process")

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    with gzip.open(SMOKE_JSONL, "rt") as fh:
        golden = fh.read().splitlines()
    assert [r.json_line() for r in verify_claim("all", {"preset": "smoke"})] == golden


def test_adjudication_prop_3_3():
    reports = verify_claim("prop-3.3", {"preset": "smoke"})
    verdict = oracle.adjudicate("prop-3.3", reports)
    assert verdict["decided"] == "AsProof"
    assert verdict["clean"] == ["AsProof"]
    assert oracle.claim_passes("prop-3.3", reports)
    # a single explicit mode is judged on plain all-match semantics
    stated = verify_claim("prop-3.3", {"preset": "smoke", "mode": "AsStated"})
    assert not oracle.claim_passes("prop-3.3", stated)
    proof = verify_claim("prop-3.3", {"preset": "smoke", "mode": "AsProof"})
    assert oracle.claim_passes("prop-3.3", proof)


def test_tally_counts_one_pass_of_any_iterable():
    reports = verify_claim("prop-3.3", {"preset": "smoke"})
    drawn = []

    def once():
        for rep in reports:
            drawn.append(rep)
            yield rep

    matched, total, verdict, passes = oracle.tally("prop-3.3", once())
    assert drawn == reports
    assert (matched, total, passes) == (334, 352, True)
    assert verdict == oracle.adjudicate("prop-3.3", iter(reports))
    assert verdict["rates"] == {"AsProof": "176/176", "AsStated": "158/176"}
    assert oracle.claim_passes("prop-3.3", iter(reports))
    # one reading, or an id with no readings: no adjudication, a pass iff every report matches
    stated = [rep for rep in reports if rep.instance["mode"] == "AsStated"]
    assert oracle.tally("prop-3.3", iter(stated)) == (158, 176, None, False)
    assert oracle.tally("no-such-claim", iter(stated)) == (158, 176, None, False)
    assert oracle.adjudicate("no-such-claim", reports) is None
    assert oracle.tally("thm-3.8", iter([])) == (0, 0, None, True)


def test_adjudication_thm_3_1():
    reports = verify_claim("thm-3.1", {"preset": "smoke"})
    verdict = oracle.adjudicate("thm-3.1", reports)
    assert verdict["decided"] == "Corrected"
    # the stated reading diverges exactly on s >= 2 with b >= 2
    for rep in reports:
        inst = rep.instance
        if inst["variant"] == "Corrected":
            assert rep.match, inst
        else:
            b = inst["n0"] % inst["p"]
            assert rep.match == (inst["s"] == 1 or b < 2), inst


def _lie(stats):
    """A wrong oracle answer: one PF element too many, F one higher, maximality flipped;
    for a GAS row, its answer so and both of its flags flipped."""
    if isinstance(stats, oracle._GasRow):
        flags = {"is_maximal": not stats.is_maximal, "is_minimal": not stats.is_minimal}
        return stats._replace(stats=_lie(stats.stats), **flags)
    pf = list(stats.pf) + [stats.frobenius + 1]
    return oracle.NaiveStats(
        pf=pf, reduced_type=1 if stats.is_maximal else len(pf), frobenius=stats.frobenius + 1
    )


EQUALITY_JUDGED = [
    "prop-3.2", "prop-3.5", "prop-3.6", "thm-3.8", "prop-3.10", "cor-4.2", "cor-4.6", "thm-5.2",
    "prop-5.7", "prop-5.9", "remark-5.3", "remark-5.5", "remark-5.8",
]


@pytest.mark.parametrize("claim", EQUALITY_JUDGED)
def test_equality_judge_reports_a_wrong_oracle(monkeypatch, claim):
    # claims that are not adjudicated pass only when closed form == oracle; the lie is told
    # by the row's question, so no report matching shows that the oracle field is the
    # asked answer's, not the core's
    row = oracle._CLAIMS[claim]
    monkeypatch.setitem(oracle._CLAIMS, claim, row._replace(ask=lambda inst: _lie(row.ask(inst))))
    reports = verify_claim(claim, {"preset": "smoke"})
    assert reports
    assert not any(json.loads(r.json_line())["match"] for r in reports)
    assert not oracle.claim_passes(claim, reports)


def test_every_question_reads_its_instance_alone(monkeypatch):
    # the oracle side of every claim is independent of the closed forms: each row's
    # question is asked of every full-grid instance with the core's semigroups and every
    # construction made to raise, and each check, handed the recorded answer with the
    # oracle made to raise, gives the golden oracle field
    with gzip.open(FULL_JSONL, "rt") as fh:
        golden = [json.dumps(json.loads(line)["oracle"]) for line in fh]

    def refuse(*args, **kwargs):
        raise AssertionError("reached")

    plan = [
        (oracle._CLAIMS[claim], inst)
        for claim, own in oracle.claim_grids("all", {"preset": "full"})
        for inst in oracle.claim_instances(claim, own)
    ]
    with oracle.verify_run():  # opened after planning, so it holds no core semigroup
        monkeypatch.setattr(NumericalSemigroup, "__init__", refuse)
        monkeypatch.setattr(NumericalSemigroup, "contains", refuse)
        for name, value in vars(cons).items():
            if isinstance(value, (types.FunctionType, type)) and value.__module__ == cons.__name__:
                monkeypatch.setattr(cons, name, refuse)
        answers = [row.ask(inst) for row, inst in plan]
        monkeypatch.undo()
        for name in ("_oracle_stats", "_canonical_stats", "_gas"):
            monkeypatch.setattr(oracle, name, refuse)
        for owner in (naive, oracle):
            for name, value in vars(owner).items():
                if isinstance(value, types.FunctionType) and value.__module__ == naive.__name__:
                    monkeypatch.setattr(owner, name, refuse)
        fields = [row.check(inst, answer)[2] for (row, inst), answer in zip(plan, answers)]
    assert len(fields) == len(golden) == 12192
    assert [json.dumps(field) for field in fields] == golden


def test_one_way_judges_fail_only_on_a_contradiction():
    sufficient = oracle._CLAIMS["prop-4.3"].judge
    for condition in (True, False, "not-applicable"):
        for maximal in (True, False):
            ok = sufficient([condition], [maximal])
            assert ok is ((condition, maximal) != (True, False)), (condition, maximal)
    assert sufficient(["not-applicable"], [])  # what the check reports when it cannot apply
    # no gluing-pool factor leaves the criterion's hypothesis; <5,6,13> does
    rep = oracle.run_instance("prop-4.3", {"s1": [5, 6, 13], "s2": [2, 3], "lambda": 7, "mu": 10})
    assert (rep.closed_form, rep.oracle, rep.match) == (["not-applicable"], [], True)
    sound = oracle._CLAIMS["thm-5.4"].judge
    contradictions = {("True", False), ("SufficientOnly-True", False), ("False", True)}
    for verdict in Verdict:
        for minimal in (True, False):
            ok = sound(["clause", verdict.value], [minimal])
            assert ok is ((verdict.value, minimal) not in contradictions), (verdict, minimal)


def test_refined_claim_ids():
    reports = verify_claim("thm-5.2", {"preset": "smoke"})
    tags = {r.claim for r in reports}
    assert tags == {"thm-5.2/case-full", "thm-5.2/case-star", "thm-5.2/case-proper"}
    reports = verify_claim("thm-5.4", {"preset": "smoke"})
    assert all(r.claim.startswith("thm-5.4/") for r in reports)


def test_oracle_agrees_with_core_on_touched_semigroups():
    # zero-tolerance dual path: Apery-maxima PF vs definitional PF
    for gens in ([2, 3], [3, 4, 5], [5, 6, 7], [12, 15, 20, 23], [6, 10, 15], [1]):
        s = NumericalSemigroup(gens)
        assert s.pf_set() == naive_pf(gens)
        assert s.pf_profile().reduced_type == naive_reduced_type(gens)


def test_oracle_names_resolve_lazily_from_the_package():
    import nsg

    for name in nsg.__all__:
        assert getattr(nsg, name) is not None
    for name, module in nsg._LAZY_NAMES.items():
        assert getattr(nsg, name) is getattr(importlib.import_module(f"nsg.{module}"), name)
    star: dict = {}
    exec("from nsg import *", star)
    assert set(nsg.__all__) <= set(star)
    assert set(nsg.__all__) <= set(dir(nsg))
    with pytest.raises(AttributeError):
        nsg.no_such_name
    # perfbench/tracing.py:237 swaps this placeholder; delete both together
    assert hasattr(oracle, "ProcessPoolExecutor")
