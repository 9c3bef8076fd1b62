import gzip
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest

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
    monkeypatch.setenv("NSG_THREADS", "1")
    seq = [r.json_line() for r in verify_claim("prop-3.2", {"preset": "smoke"})]
    monkeypatch.setenv("NSG_THREADS", "2")
    par = [r.json_line() for r in verify_claim("prop-3.2", {"preset": "smoke"})]
    assert seq == par


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
