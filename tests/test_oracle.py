import gzip
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from conftest import run_cli

import nsg.oracle as oracle
from nsg.core import GcdNotOneError, InvalidParamError, NumericalSemigroup
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
    monkeypatch.setattr(oracle, "FROBENIUS_CAP", 100)
    assert naive_frobenius([9, 10]) == 71  # F + m = 80 cells
    with pytest.raises(GridTooLargeError):
        naive_frobenius([12, 13])  # F + m = 143 cells
    with pytest.raises(GridTooLargeError):
        naive_closure([2, 3], 200)
    # and so is a duplication table past it, though the closure of S is small
    assert oracle.naive_duplication_stats([2, 3], [0], 41).frobenius == 43
    with pytest.raises(GridTooLargeError):
        oracle.naive_duplication_stats([2, 3], [0], 1001)


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
            naive = oracle.naive_duplication_stats(gens, e_gens, d)
            assert naive.pf == oracle._pf_over_all_members(dup), (gens, e_gens, d)
        done += 1


def test_one_closure_per_call(monkeypatch):
    calls = []
    closure = oracle.naive_closure

    def counting(gens, *args):
        calls.append(tuple(gens))
        return closure(gens, *args)

    monkeypatch.setattr(oracle, "naive_closure", counting)
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
    closure, stats, dup_stats = oracle.naive_closure, oracle.naive_stats, oracle.naive_duplication_stats

    def counting_closure(gens, *args):
        closures.append(tuple(sorted(set(gens))))
        return closure(gens, *args)

    def counting_stats(gens):
        stats_keys.append(tuple(sorted(set(gens))))
        return stats(gens)

    def counting_dup_stats(s_gens, e_gens, d):
        dup_keys.append((tuple(sorted(set(s_gens))), tuple(sorted(set(e_gens))), d))
        return dup_stats(s_gens, e_gens, d)

    monkeypatch.setattr(oracle, "naive_closure", counting_closure)
    monkeypatch.setattr(oracle, "naive_stats", counting_stats)
    monkeypatch.setattr(oracle, "naive_duplication_stats", counting_dup_stats)
    oracle.clear_memo()
    reports = verify_claim("all", {"preset": "smoke"})
    assert len(set(stats_keys)) == len(stats_keys) > 0
    assert len(set(dup_keys)) == len(dup_keys) > 0
    assert len(reports) > len(stats_keys) + len(dup_keys)
    assert len(closures) == len(stats_keys) + len(dup_keys)
    assert sorted(closures) == sorted(stats_keys + [key[0] for key in dup_keys])
    # a second run is answered from the memo alone
    closures.clear()
    verify_claim("all", {"preset": "smoke"})
    assert closures == []


def test_cli_verify_all_matches_golden_jsonl(monkeypatch):
    # the CLI asks for one claim at a time; the memo spans those calls
    monkeypatch.setenv("NSG_THREADS", "1")
    oracle.clear_memo()
    with gzip.open(SMOKE_JSONL, "rt") as fh:
        golden = fh.read()
    code, out, _ = run_cli("verify", "all", "--grid", "smoke")
    assert code == 0
    assert out == golden


def test_memo_hands_out_fresh_pf_lists(monkeypatch):
    monkeypatch.setenv("NSG_THREADS", "1")
    for claim in ("thm-3.1", "prop-3.5", "cor-4.2", "thm-5.2"):
        first = [r.json_line() for r in verify_claim(claim, {"preset": "smoke"})]
        for rep in verify_claim(claim, {"preset": "smoke"}):
            rep.oracle[0].append(-7)
        assert [r.json_line() for r in verify_claim(claim, {"preset": "smoke"})] == first
    oracle._oracle_stats([3, 4, 5]).pf.clear()
    assert oracle._oracle_stats([5, 4, 3]).pf == naive_pf([3, 4, 5])
    oracle._oracle_dup_stats([3, 4, 5], [5, 6, 7], 11).pf.clear()
    assert oracle._oracle_dup_stats([3, 4, 5], [7, 6, 5], 11).pf == [2, 4, 15, 17, 19]


def test_memo_is_bounded():
    for memo in (oracle._memo_stats, oracle._memo_dup_stats, oracle._gas_tuples):
        assert memo.cache_info().maxsize is not None
    # the full grid's 2,450 semigroups and 186 duplications all fit
    assert oracle._memo_stats.cache_info().maxsize >= 2450
    assert oracle._memo_dup_stats.cache_info().maxsize >= 186


def test_memo_does_not_cache_errors(monkeypatch):
    oracle.clear_memo()
    monkeypatch.setattr(oracle, "FROBENIUS_CAP", 100)
    for _ in range(2):
        with pytest.raises(GridTooLargeError):
            oracle._oracle_stats([12, 13])
        with pytest.raises(GridTooLargeError):
            oracle._oracle_dup_stats([2, 3], [0], 1001)
        with pytest.raises(GridTooLargeError):
            oracle._gas_instances({"gas": (16, 3, 17, 7)})
    assert oracle._memo_stats.cache_info().currsize == 0
    assert oracle._memo_dup_stats.cache_info().currsize == 0
    assert oracle._gas_tuples.cache_info().currsize == 0


def test_gas_grid_hands_out_fresh_instances():
    grid = {"gas": (8, 2, 9, 4)}
    first = oracle._gas_instances(grid)
    first[0]["n0"] = -1
    first.append({})
    again = oracle._gas_instances({"gas": [8, 2, 9, 4]})
    assert again[0]["n0"] == 3 and {} not in again
    assert len(again) == len(first) - 1


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
    # every claim, each run from a cold memo; pool workers hold their own
    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("NSG_THREADS", threads)
        oracle.clear_memo()
        runs[threads] = [r.json_line() for r in verify_claim("all", {"preset": "smoke"})]
    assert runs["1"] == runs["2"]


def test_worker_count(monkeypatch):
    # computed only: no pool or process is started
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
    monkeypatch.delenv("NSG_THREADS", raising=False)
    assert oracle._worker_count(100) == 4
    assert oracle._worker_count(3) == 3
    monkeypatch.setenv("NSG_THREADS", "2")
    assert oracle._worker_count(100) == 2
    monkeypatch.setenv("NSG_THREADS", "64")
    assert oracle._worker_count(100) == 4
    assert oracle._worker_count(1) == 1
    for bad in ("abc", "1.5", "0", "-3"):
        monkeypatch.setenv("NSG_THREADS", bad)
        with pytest.raises(InvalidParamError, match="NSG_THREADS"):
            oracle._worker_count(100)


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
