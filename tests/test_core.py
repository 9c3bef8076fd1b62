import heapq
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from nsg import core
from nsg.core import (
    TABLE_LIMIT,
    EmptyGeneratorsError,
    Extremality,
    GcdNotOneError,
    NotAMemberError,
    NumericalSemigroup,
    TableLimitError,
    ZeroGeneratorError,
    naturals,
)
from nsg.naive import naive_stats


def _dijkstra_apery(gens, n):
    """Least member of <gens> per class mod n: plain Dijkstra from 0, the reference."""
    dist = [0] + [math.inf] * (n - 1)
    heap = [0]
    while heap:
        w = heapq.heappop(heap)
        if w == dist[w % n]:
            for g in gens:
                v = w + g
                if v < dist[v % n]:
                    dist[v % n] = v
                    heapq.heappush(heap, v)
    return dist


def _random_sets(rng, count, top):
    """count sets of 1-8 generators up to top, most of them small; half lie in [m, 2m)."""
    out = []
    while len(out) < count:
        k = rng.randint(1, 8)
        size = round(top ** (rng.random() ** 2))
        if rng.random() < 0.5:
            gens = sorted({rng.randint(1, max(size, 2)) for _ in range(k)})
        else:
            m = max(size // 2, 2)
            gens = sorted({m} | {rng.randint(m + 1, 2 * m - 1) for _ in range(k)})
        if math.gcd(*gens) == 1:
            out.append(gens)
    return out


def test_naturals():
    n = naturals()
    assert n.minimal_generators == (1,)
    assert n.frobenius == -1
    assert n.conductor == 0
    assert n.genus == 0
    assert n.multiplicity == 1


def test_bresinsky_generators_are_minimal():
    s = NumericalSemigroup([12, 15, 20, 23])
    assert s.minimal_generators == (12, 15, 20, 23)
    assert s.multiplicity == 12
    assert s.frobenius == 49


def test_redundant_generator_removed():
    s = NumericalSemigroup([3, 4, 5, 7])
    assert s.minimal_generators == (3, 4, 5)
    assert s.frobenius == 2
    assert s.generators == (3, 4, 5, 7)  # supplied list kept verbatim


def test_construction_errors():
    # the core and the oracle refuse the same generator lists
    for build in (NumericalSemigroup, naive_stats):
        with pytest.raises(EmptyGeneratorsError):
            build([])
        with pytest.raises(ZeroGeneratorError):
            build([0, 3])
    with pytest.raises(GcdNotOneError, match="gcd is not 1"):
        NumericalSemigroup([4, 6])


def test_table_limit_guard():
    # the limit bounds the Apery modulus and is checked before any table exists
    m = TABLE_LIMIT + 1
    tracemalloc.start()
    try:
        with pytest.raises(TableLimitError):
            NumericalSemigroup([m, m + 1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    s = NumericalSemigroup([2, m])
    with pytest.raises(TableLimitError):
        s.apery_set(m)


def test_many_supplied_generators_outside_the_apery_set_build_fast():
    # each of the 19,998 generators past 5 fails the O(1) test n == Ap[n mod m]
    gens = [3] + list(range(4, 20004))
    t0 = time.perf_counter()
    s = NumericalSemigroup(gens)
    elapsed = time.perf_counter() - t0
    assert s.minimal_generators == (3, 4, 5)
    assert s.generators == tuple(gens)
    assert elapsed < 0.25
    # redundant generators inside [2m, max Ap] of a semigroup whose scan settles
    # in its 62nd window, so Ap(S, m) spans about 2**18 bits: each costs one
    # table lookup, and the Apery elements among them a few member tests
    m = 4096
    base = NumericalSemigroup(range(m, m + 67))
    assert base._bits is not None and base.frobenius > 60 * m
    members = [x for x in range(2 * m, base.frobenius) if base.contains(x)]
    gens = list(range(m, m + 67)) + random.Random(4096).sample(members, 3000)
    t0 = time.perf_counter()
    s = NumericalSemigroup(gens)
    elapsed = time.perf_counter() - t0
    assert s._bits is not None
    assert s.minimal_generators == base.minimal_generators
    assert elapsed < 0.25


def test_scan_keeps_one_step_per_residue_class(monkeypatch):
    # every member in [2m, 30m] supplied as a generator: the scan shifts only the
    # least generator of each class mod m, and the build matches the minimal one
    m = 1024
    base = NumericalSemigroup(range(m, m + 33))
    members = [x for x in range(2 * m, 30 * m) if base.contains(x)]
    gens = list(range(m, m + 33)) + members
    steps, _, full = core._scan(gens, m)
    assert len(members) > 10 * m and full
    assert len(steps) <= m - 1
    s = NumericalSemigroup(gens)
    assert s.minimal_generators == base.minimal_generators
    assert (s.frobenius, s.genus) == (base.frobenius, base.genus)
    assert s.pf_profile() == base.pf_profile()
    assert s.apery_set(m) == base.apery_set(m)
    # the same steps serve Dijkstra when the scan hands over early
    monkeypatch.setattr(core, "_WINDOWS", 3)
    assert core._apery(gens, m) == list(base.apery_set(m))


def test_minimal_generators_scan_only_apery_elements():
    # 12, 13 and 20 lie above their Apery elements; 14 = 7 + 7 is one but splits
    assert NumericalSemigroup([6, 12, 9, 7, 13, 20]).minimal_generators == (6, 7, 9)
    assert NumericalSemigroup([5, 7, 14, 8]).minimal_generators == (5, 7, 8)
    assert NumericalSemigroup([5, 7, 14, 16]).minimal_generators == (5, 7, 16)


def test_huge_frobenius_small_multiplicity():
    # the cost depends on the multiplicity, not on the Frobenius number
    n = (1 << 41) + 1
    s = NumericalSemigroup([2, n])
    assert s.frobenius == n - 2 == (1 << 41) - 1
    assert s.genus == 1 << 40
    assert s.pf_set() == [(1 << 41) - 1]
    assert s.is_symmetric()
    assert not s.contains(n - 2) and s.contains(n) and s.contains(n - 1)


def test_contains():
    s = NumericalSemigroup([3, 4, 5])
    assert not s.contains(2)
    assert not s.contains(-1)
    assert s.contains(0)
    assert all(s.contains(x) for x in range(3, 50))
    assert not NumericalSemigroup([12, 15, 20, 23]).contains(28)
    assert NumericalSemigroup([5, 6, 7]).contains(11)
    assert 11 in NumericalSemigroup([5, 6, 7])


def test_genus():
    assert NumericalSemigroup([3, 4, 5]).genus == 2
    assert NumericalSemigroup([2, 3]).genus == 1
    assert NumericalSemigroup([12, 15, 20, 23]).genus == 29


def test_apery_set():
    assert NumericalSemigroup([3, 4, 5]).apery_set(3) == [0, 4, 5]
    assert naturals().apery_set(1) == [0]
    assert NumericalSemigroup([5, 6, 7]).apery_set(5) == [0, 6, 7, 13, 14]
    s = NumericalSemigroup([12, 15, 20, 23])
    assert max(s.apery_set(12)) - 12 == 49
    # works for any member, not only the multiplicity
    ap = s.apery_set(15)
    assert len(ap) == 15
    assert max(ap) - 15 == s.frobenius


def test_apery_rejects_non_members():
    s = NumericalSemigroup([3, 4, 5])
    with pytest.raises(NotAMemberError):
        s.apery_set(2)
    with pytest.raises(NotAMemberError):
        s.apery_set(0)


def test_pf_set_paper_values():
    assert NumericalSemigroup([12, 15, 20, 23]).pf_set() == [28, 31, 33, 41, 49]
    assert NumericalSemigroup([67, 70, 74, 75]).pf_set() == [213, 221, 601, 602, 604, 605, 607, 608]
    assert NumericalSemigroup([5, 6, 7]).pf_set() == [8, 9]
    assert naturals().pf_set() == [-1]


def test_pf_profile():
    prof = NumericalSemigroup([12, 15, 20, 23]).pf_profile()
    assert prof.cm_type == 5
    assert prof.reduced_type == 2
    assert prof.extremality is Extremality.NEITHER
    assert prof.pf_prime == (28, 31, 33, 41)

    prof = NumericalSemigroup([67, 70, 74, 75]).pf_profile()
    assert (prof.cm_type, prof.reduced_type) == (8, 6)
    assert prof.extremality is Extremality.NEITHER

    prof = naturals().pf_profile()
    assert (prof.cm_type, prof.reduced_type) == (1, 1)
    assert prof.extremality is Extremality.BOTH
    assert prof.pf_prime == ()


def test_pf_profile_reads_ap_without_a_member_test_per_residue(monkeypatch):
    s = NumericalSemigroup([3000, 3001, 3007, 3011, 3013, 3019, 3023, 3037])
    assert len(s.minimal_generators) == 8
    calls = []
    contains = NumericalSemigroup.contains
    monkeypatch.setattr(
        NumericalSemigroup, "contains", lambda self, x: calls.append(x) or contains(self, x)
    )
    prof = s.pf_profile()
    assert len(calls) < s.multiplicity
    assert prof.pf[-1] == s.frobenius


def test_extremality_flags():
    assert Extremality.BOTH.is_maximal and Extremality.BOTH.is_minimal
    assert Extremality.MAXIMAL_ONLY.is_maximal and not Extremality.MAXIMAL_ONLY.is_minimal
    assert not Extremality.NEITHER.is_maximal and not Extremality.NEITHER.is_minimal


def test_is_symmetric():
    assert NumericalSemigroup([2, 3]).is_symmetric()
    assert not NumericalSemigroup([3, 4, 5]).is_symmetric()
    assert not NumericalSemigroup([7, 10, 12, 14]).is_symmetric()
    assert naturals().is_symmetric()


def test_minimal_generator_idempotence():
    s = NumericalSemigroup([6, 9, 20, 26, 35])
    again = NumericalSemigroup(s.minimal_generators)
    assert again.minimal_generators == s.minimal_generators
    assert again == s


def test_equality_and_hash():
    assert NumericalSemigroup([3, 4, 5, 7]) == NumericalSemigroup([5, 4, 3])
    assert hash(NumericalSemigroup([2, 3])) == hash(NumericalSemigroup([2, 3, 4]))
    assert NumericalSemigroup([2, 3]) != NumericalSemigroup([3, 4, 5])
    # another type is left to the other side, so == falls back to identity
    assert NumericalSemigroup([2, 3]).__eq__((2, 3)) is NotImplemented
    assert NumericalSemigroup([2, 3]) != (2, 3)


def test_apery_window_scan_matches_dijkstra():
    rng = random.Random(20240519)
    for gens in _random_sets(rng, 5000, 5000):
        assert core._apery(gens, gens[0]) == _dijkstra_apery(gens, gens[0]), gens


@pytest.mark.parametrize("windows", [1, 2, 3, 8])
def test_apery_hands_over_to_dijkstra_at_any_window(monkeypatch, windows):
    # a cap of 1 hands over before the first window; the others cut long scans short
    monkeypatch.setattr(core, "_WINDOWS", windows)
    rng = random.Random(windows)
    for gens in _random_sets(rng, 300, 2000) + [[7, 8, 9], [50, 51, 52], [3, 5], [5, 7, 11, 13]]:
        assert core._apery(gens, gens[0]) == _dijkstra_apery(gens, gens[0]), gens


def test_apery_set_mod_a_member_other_than_m():
    # some minimal generator lies below n, so only Dijkstra runs
    rng = random.Random(7)
    for gens in _random_sets(rng, 300, 400):
        s = NumericalSemigroup(gens)
        mins = s.minimal_generators
        for n in {mins[-1], mins[0] + mins[-1], 2 * mins[0]}:
            assert s.apery_set(n) == _dijkstra_apery(mins, n), (gens, n)


def test_apery_extreme_shapes():
    assert core._apery([1], 1) == [0]
    # the only step is 2**40 windows up: the scan settles nothing and hands over at once
    n = (1 << 41) + 1
    assert core._apery([2, n], 2) == [0, n]
    for n in (5, 64, 129, 1000):
        # window j settles residues 2j - 1 and 2j, so n = 1000 reaches the window cap
        expected = [(r + 1) // 2 * n + r for r in range(n)]
        assert core._apery([n, n + 1, n + 2], n) == expected == _dijkstra_apery([n + 1, n + 2], n)


def test_core_matches_oracle_on_generators_below_twice_the_multiplicity():
    rng = random.Random(2)
    for m in range(50, 301, 10):
        for k in (2, 4, 7):
            gens = sorted({m} | {rng.randint(m + 1, 2 * m - 1) for _ in range(k - 1)})
            if math.gcd(*gens) != 1:
                continue
            s = NumericalSemigroup(gens)
            assert s.minimal_generators == tuple(gens)
            prof = s.pf_profile()
            naive = naive_stats(gens)
            assert s.frobenius == naive.frobenius, gens
            assert list(prof.pf) == naive.pf, gens
            assert prof.reduced_type == naive.reduced_type, gens
            assert prof.extremality.value == naive.extremality_label, gens


def test_apery_window_cap_bounds_time_and_memory():
    # <n, n+1, n+2> settles two residues per window, so the scan runs to its cap
    # (20 windows of n bits here) and Dijkstra finishes the other n - 40 residues.
    # A fresh interpreter reads the peak as the growth of its peak RSS, since
    # tracemalloc slows this many allocations some fifty times over.
    code = (
        "import resource, time; from nsg import core; n = 200_000\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "t0 = time.perf_counter(); ap = core._apery([n, n + 1, n + 2], n)\n"
        "elapsed = time.perf_counter() - t0\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "assert ap[-1] == (n // 2) * n + n - 1 == max(ap)\n"
        "print(elapsed, grown)"
    )
    src = str(Path(core.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    elapsed, grown = out.stdout.split()
    assert float(elapsed) < 2.0
    assert int(grown) * 1024 < 16 * 2**20  # ru_maxrss is in KiB on Linux


def test_generators_below_twice_the_multiplicity_need_no_member_test(monkeypatch):
    calls = []
    contains = NumericalSemigroup.contains
    monkeypatch.setattr(
        NumericalSemigroup, "contains", lambda self, x: calls.append(x) or contains(self, x)
    )
    gens = [300] + list(range(301, 600, 2))
    assert NumericalSemigroup(gens).minimal_generators == tuple(gens)
    assert calls == []
    # 600 = 300 + 300 is the first that needs one
    assert NumericalSemigroup([300, 301, 600]).minimal_generators == (300, 301)


def _readout(s):
    """Every invariant the two routes must agree on, PF first so that it is read before the table."""
    prof = s.pf_profile()
    f, m = s.frobenius, s.multiplicity
    other = m + s.minimal_generators[-1]
    members = [s.contains(x) for x in range(-1, f + 2 * m + 1)]
    return f, s.genus, s.minimal_generators, prof, members, s.apery_set(m), s.apery_set(other)


def test_bit_route_matches_table_route(monkeypatch):
    # a window cap of 1 hands every scan over, so the same inputs take the table route
    rng = random.Random(43)
    shapes = _random_sets(rng, 80, 1000) + [
        [5, 7, 16], [6, 12, 9, 7, 13, 20], [5, 7, 14, 8], [3, 4, 5, 2**41 + 1], [1],
        [7, 8, 13, 18, 26], [10, 11, 18, 29, 34],
    ]
    for m in range(11, 130, 6):  # sparse: F / m about m / 2, one window per two residues
        shapes += [[m, m + 1, m + 2], [m] + rng.sample(range(m + 1, 5 * m), 3)]
    shapes = [g for g in shapes if math.gcd(*g) == 1]
    built = [NumericalSemigroup(g) for g in shapes]
    settled = [s for s in built if s._bits is not None]
    assert len(settled) > len(built) // 3 and len(settled) < len(built)
    # settled, with generators of 2m or more: 18 and 34 are minimal, 26 = 13 + 13
    # and 29 = 11 + 18 are Apery elements that split, and 2**41 + 1 lies past max Ap
    for gens, mins in (
        ([7, 8, 13, 18, 26], (7, 8, 13, 18)),
        ([10, 11, 18, 29, 34], (10, 11, 18, 34)),
        ([6, 12, 9, 7, 13, 20], (6, 7, 9)),
        ([3, 4, 5, 2**41 + 1], (3, 4, 5)),
    ):
        s = NumericalSemigroup(gens)
        assert s._bits is not None and s.minimal_generators == mins
    bit_route = [_readout(s) for s in built]
    monkeypatch.setattr(core, "_WINDOWS", 1)
    for gens, expected in zip(shapes, bit_route):
        s = NumericalSemigroup(gens)
        assert s._bits is None
        assert _readout(s) == expected, gens


def test_uniform_type_is_read_off_the_bits_without_a_table():
    from nsg import cli

    r = 2000
    sg = NumericalSemigroup(range(r + 1, 2 * r + 2))
    record = cli.analysis_record(sg)
    assert "_apery" not in vars(sg)
    assert record["pf"] == list(range(1, r + 1))  # uniform_type_pf_closed
    assert record["type"] == record["reduced_type"] == r
    assert record["extremality"] == "maximal"
