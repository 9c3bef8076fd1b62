import time
import tracemalloc

import pytest

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
    with pytest.raises(EmptyGeneratorsError):
        NumericalSemigroup([])
    with pytest.raises(ZeroGeneratorError):
        NumericalSemigroup([0, 3])
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


def test_leq():
    s = NumericalSemigroup([3, 4, 5])
    assert s.leq(7, 7)
    assert s.leq(4, 9)  # 5 in S
    assert not s.leq(4, 6)  # 2 not in S


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
