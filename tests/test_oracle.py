import ast
import dataclasses
import gzip
import json
import math
import multiprocessing.process
import os
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import run_cli

import nsg.core as core
import nsg.naive as naive
import nsg.oracle as oracle
from nsg.constructions import Verdict
from nsg.core import GcdNotOneError, InvalidParamError, NumericalSemigroup, SemigroupError
from nsg.oracle import (
    GridTooLargeError,
    UnknownClaimError,
    naive_closure,
    naive_frobenius,
    naive_pf,
    naive_pf_full,
    naive_reduced_type,
    naive_stats,
    verify_claim,
)

SMOKE_JSONL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify-smoke.jsonl.gz"


def test_naive_closure():
    table = naive_closure([3, 4, 5], 10)
    assert [x for x in range(11) if not table[x]] == [1, 2]
    table = naive_closure([12, 15, 20, 23], 50)
    assert not table[49]
    assert table[12] and table[27] and table[35]
    assert all(naive_closure([1], 5))
    with pytest.raises(GcdNotOneError):
        naive_closure([4, 6], 10)
    # unbounded: the table stops at the first run of m members, at F + m
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
        naive_closure([2, 3], 200)
    # and so is a duplication table past it, though the closure of S is small
    assert oracle.naive_duplication_stats([2, 3], [0], 41).frobenius == 43
    with pytest.raises(GridTooLargeError):
        oracle.naive_duplication_stats([2, 3], [0], 1001)


def test_large_closure_is_cheap():
    # F = 1009 * 3001 - 1009 - 3001: a 3-million-cell window
    tracemalloc.start()
    try:
        stats = naive_stats([1009, 3001])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.frobenius == 3_023_999
    assert stats.pf == [3_023_999]
    assert stats.reduced_type == 1
    assert peak < 8 * 2**20


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
        done += 1
    # N and sets holding 1; one large generator, needed or redundant; F + m
    # on a doubled window ([5, 7]: 28) and one cell past one ([4, 9, 10]: 19)
    for gens in ([1], [1, 5], [1, 2, 3], [2, 257], [4, 6, 301], [3, 5, 500], [5, 7], [4, 9, 10]):
        assert naive_pf(gens) == naive_pf_full(gens), gens
        assert naive_frobenius(gens) == NumericalSemigroup(gens).frobenius, gens
    # duplications 2*S u (2*E + d) for E = S, S* and a proper ideal, tabulated
    # here from a closure of S and scanned over all members
    done = 0
    while done < 30:
        gens = sorted(rng.sample(range(2, 16), rng.randint(2, 3)))
        if math.gcd(*gens) != 1:
            continue
        s = NumericalSemigroup(gens)
        # E, d and the conductor of E stay below F + 20, so F(dup) < 5F + 45
        top = 6 * s.frobenius + 60
        in_s = naive_closure(gens, top)
        members = [x for x in range(1, top + 1) if in_s[x]]
        d = rng.choice([x for x in members[:20] if x % 2])
        for e_gens in ([0], list(s.minimal_generators), rng.sample(members[:12], 2)):
            in_e = [any(g <= x and in_s[x - g] for g in e_gens) for x in range(top + 1)]
            dup = [
                x % 2 == 0 and in_s[x // 2] or x >= d and (x - d) % 2 == 0 and in_e[(x - d) // 2]
                for x in range(top + 1)
            ]
            naive_dup = oracle.naive_duplication_stats(gens, e_gens, d)
            assert naive_dup.pf == naive._pf_over_all_members(dup), (gens, e_gens, d)
        done += 1


def test_one_closure_per_call(monkeypatch):
    calls = []
    closure = naive._closure_bits

    def counting(gens, *args):
        calls.append(tuple(gens))
        return closure(gens, *args)

    monkeypatch.setattr(naive, "_closure_bits", counting)
    naive_stats([12, 15, 20, 23])
    assert calls == [(12, 15, 20, 23)]
    calls.clear()
    oracle.naive_duplication_stats([3, 4, 5], [5, 6, 7], 11)
    assert calls == [(3, 4, 5)]


def test_one_closure_per_distinct_semigroup(monkeypatch):
    # verify asks the definitional engine once per distinct semigroup and
    # once per distinct duplication; each answer costs exactly one closure
    monkeypatch.setenv("NSG_THREADS", "1")
    closures, stats_keys, dup_keys = [], [], []
    closure, stats, dup_stats = naive._closure_bits, oracle.naive_stats, oracle.naive_duplication_stats

    def counting_closure(gens, *args):
        closures.append(tuple(sorted(set(gens))))
        return closure(gens, *args)

    def counting_stats(gens):
        stats_keys.append(tuple(sorted(set(gens))))
        return stats(gens)

    def counting_dup_stats(s_gens, e_gens, d):
        dup_keys.append((tuple(sorted(set(s_gens))), tuple(sorted(set(e_gens))), d))
        return dup_stats(s_gens, e_gens, d)

    monkeypatch.setattr(naive, "_closure_bits", counting_closure)
    monkeypatch.setattr(oracle, "naive_stats", counting_stats)
    monkeypatch.setattr(oracle, "naive_duplication_stats", counting_dup_stats)
    reports = verify_claim("all", {"preset": "smoke"})
    assert len(set(stats_keys)) == len(stats_keys) > 0
    assert len(set(dup_keys)) == len(dup_keys) > 0
    assert len(reports) > len(stats_keys) + len(dup_keys)
    assert len(closures) == len(stats_keys) + len(dup_keys)
    assert sorted(closures) == sorted(stats_keys + [key[0] for key in dup_keys])
    # the memo ends with its run: a second run builds exactly the same closures again
    first = sorted(closures)
    closures.clear()
    verify_claim("all", {"preset": "smoke"})
    assert sorted(closures) == first


def test_large_gas_grid_closes_each_semigroup_once(monkeypatch):
    # 6,168 distinct semigroups, more than a memo of 4,096 entries holds, each
    # asked under both readings: one run closes each of them once
    closures = []
    closure = naive._closure_bits

    def counting(gens, *args):
        closures.append(tuple(sorted(set(gens))))
        return closure(gens, *args)

    monkeypatch.setattr(naive, "_closure_bits", counting)
    reports = verify_claim("thm-3.1", {"preset": "full", "gas": (24, 3, 25, 8)})
    assert len(reports) == 2 * 6168
    assert len(closures) == len(set(closures)) == 6168


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


def test_cli_verify_all_matches_golden_jsonl(monkeypatch):
    # the CLI asks for one claim at a time; the memo spans those calls
    monkeypatch.setenv("NSG_THREADS", "1")
    with gzip.open(SMOKE_JSONL, "rt") as fh:
        golden = fh.read()
    code, out, _ = run_cli("verify", "all", "--grid", "smoke")
    assert code == 0
    assert out == golden


def test_memo_hands_out_fresh_pf_lists(monkeypatch):
    monkeypatch.setenv("NSG_THREADS", "1")
    # a report's oracle PF is its own list: mutating it leaves later runs alone
    claims = ("thm-3.1", "prop-3.5", "thm-3.8", "cor-4.2", "thm-5.2", "remark-5.3", "remark-5.5")
    for claim in claims:
        first = [r.json_line() for r in verify_claim(claim, {"preset": "smoke"})]
        for rep in verify_claim(claim, {"preset": "smoke"}):
            rep.oracle[0].append(-7)
        assert [r.json_line() for r in verify_claim(claim, {"preset": "smoke"})] == first
    # a cached answer cannot be changed: it is frozen and its PF is a tuple
    with oracle.verify_run():
        for stats, again, pf in (
            (oracle._oracle_stats([3, 4, 5]), oracle._oracle_stats([5, 4, 3]), naive_pf([3, 4, 5])),
            (
                oracle._oracle_dup_stats([3, 4, 5], [5, 6, 7], 11),
                oracle._oracle_dup_stats([3, 4, 5], [7, 6, 5], 11),
                [2, 4, 15, 17, 19],
            ),
        ):
            assert again is stats
            assert isinstance(stats.pf, tuple)
            with pytest.raises(AttributeError):
                stats.pf.clear()
            with pytest.raises(dataclasses.FrozenInstanceError):
                stats.pf = []
            assert list(again.pf) == pf


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


def test_memo_does_not_cache_errors(monkeypatch):
    # the cap has one home: a copy on the harness side would not move with it
    assert not hasattr(oracle, "FROBENIUS_CAP")
    monkeypatch.setattr(naive, "FROBENIUS_CAP", 100)
    with oracle.verify_run() as memo:
        for _ in range(2):
            with pytest.raises(GridTooLargeError):
                oracle._oracle_stats([12, 13])
            with pytest.raises(GridTooLargeError):
                oracle._oracle_dup_stats([2, 3], [0], 1001)
            with pytest.raises(GridTooLargeError):
                oracle._gas({"n0": 20, "s": 1, "d": 1, "p": 2})
            with pytest.raises(GridTooLargeError):
                oracle._gas_instances({"gas": (16, 3, 17, 7)})
        assert memo == {}


def test_gas_grid_builds_no_semigroup(monkeypatch):
    # minimality of each candidate tuple is decided by p < n0, not by a core build
    builds = []
    init = NumericalSemigroup.__init__

    def counting_init(self, gens):
        builds.append(gens)
        init(self, gens)

    monkeypatch.setattr(NumericalSemigroup, "__init__", counting_init)
    instances = oracle.claim_instances("thm-3.1", {"preset": "full"})
    assert len(instances) == 2 * 2187
    assert builds == []
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
    stats = oracle.naive_duplication_stats([3, 4, 5], [5, 6, 7], 11)
    assert stats.pf == [2, 4, 15, 17, 19]
    assert stats.frobenius == 19
    assert not stats.is_maximal and not stats.is_minimal
    stats = oracle.naive_duplication_stats([5, 6, 7], [0], 7)
    assert stats.pf == [23, 25]
    assert stats.is_maximal
    assert stats.extremality_label == "maximal"


def test_unknown_claim():
    with pytest.raises(UnknownClaimError):
        verify_claim("thm-9.9")


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


def test_smoke_grid_matches_golden_jsonl(monkeypatch):
    monkeypatch.setenv("NSG_THREADS", "1")
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

    monkeypatch.delenv("NSG_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    with gzip.open(SMOKE_JSONL, "rt") as fh:
        golden = fh.read().splitlines()
    assert [r.json_line() for r in verify_claim("all", {"preset": "smoke"})] == golden


def test_worker_count(monkeypatch):
    # NSG_THREADS is validated, then ignored
    monkeypatch.delenv("NSG_THREADS", raising=False)
    oracle.check_threads()
    for good in ("", "1", "2", "64"):
        monkeypatch.setenv("NSG_THREADS", good)
        oracle.check_threads()
    for bad in ("abc", "1.5", "0", "-3"):
        monkeypatch.setenv("NSG_THREADS", bad)
        with pytest.raises(InvalidParamError, match="NSG_THREADS"):
            oracle.check_threads()


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
    """A wrong oracle answer: one PF element too many, F one higher, maximality flipped."""
    pf = list(stats.pf) + [stats.frobenius + 1]
    return oracle.NaiveStats(
        pf=pf, reduced_type=1 if stats.is_maximal else len(pf), frobenius=stats.frobenius + 1
    )


@pytest.mark.parametrize(
    "claim", ["prop-3.5", "cor-4.2", "cor-4.6", "thm-5.2", "prop-5.7", "remark-5.8"]
)
def test_equality_judge_reports_a_wrong_oracle(monkeypatch, claim):
    # claims that are not adjudicated pass only when closed form == oracle
    stats, dup_stats = oracle._oracle_stats, oracle._oracle_dup_stats
    monkeypatch.setattr(oracle, "_oracle_stats", lambda gens: _lie(stats(gens)))
    monkeypatch.setattr(oracle, "_oracle_dup_stats", lambda *key: _lie(dup_stats(*key)))
    reports = verify_claim(claim, {"preset": "smoke"})
    assert reports
    assert not any(json.loads(r.json_line())["match"] for r in reports)
    assert not oracle.claim_passes(claim, reports)


def test_one_way_judges_fail_only_on_a_contradiction():
    sufficient = oracle._ONE_WAY_JUDGES["prop-4.3"]
    for condition in (True, False, "not-applicable"):
        for maximal in (True, False):
            ok = sufficient([condition], [maximal])
            assert ok is ((condition, maximal) != (True, False)), (condition, maximal)
    assert sufficient(["not-applicable"], [])  # what the check reports when it cannot apply
    sound = oracle._ONE_WAY_JUDGES["thm-5.4"]
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

    lazy = ["VerificationReport", "naive_closure", "naive_pf", "naive_reduced_type", "verify_claim"]
    for name in nsg.__all__:
        assert getattr(nsg, name) is not None
    for name in lazy:
        assert getattr(nsg, name) is getattr(oracle, name)
    star: dict = {}
    exec("from nsg import *", star)
    assert set(nsg.__all__) <= set(star)
    assert set(nsg.__all__) <= set(dir(nsg))
    with pytest.raises(AttributeError):
        nsg.no_such_name
    # perfbench/tracing.py:237 swaps this placeholder; delete both together
    assert hasattr(oracle, "ProcessPoolExecutor")
