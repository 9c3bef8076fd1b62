import itertools
import math
import re
import tracemalloc

import pytest

import nsg.families as fam
from nsg.core import (
    Extremality,
    GcdNotOneError,
    InvalidParamError,
    NotMinimalSequenceError,
    NumericalSemigroup,
    TableLimitError,
)
from nsg.naive import naive_pf


# --- generalized arithmetic sequences


def test_gas_params_validation():
    with pytest.raises(GcdNotOneError, match=re.escape("gcd(n0, d) must be 1: gcd(6, 3)")):
        fam.GasParams(6, 1, 3, 4)
    with pytest.raises(
        InvalidParamError, match=re.escape("p must be >= 2: GasParams(n0=5, s=1, d=3, p=1)")
    ):
        fam.GasParams(5, 1, 3, 1)
    with pytest.raises(
        InvalidParamError, match=re.escape("n0, s, d must be >= 1: GasParams(n0=5, s=0, d=3, p=2)")
    ):
        fam.GasParams(5, 0, 3, 2)
    # _replace builds through the same checks
    with pytest.raises(InvalidParamError, match=re.escape("GasParams(n0=0, s=1, d=1, p=2)")):
        fam.GasParams(3, 1, 1, 2)._replace(n0=0)
    # rebuilt parameters are equal and hash alike, so they can key a memo
    params = fam.GasParams(3, 1, 1, 2)
    assert params == fam.GasParams(3, 1, 1, 2)
    assert hash(params) == hash(fam.GasParams(3, 1, 1, 2))
    assert {params: 1}[fam.GasParams(3, 1, 1, 2)] == 1


def test_gas_domain_is_what_gas_params_accept_below_n0():
    # the walk's domain, p in last_bounds(n0, s, d), reads the same three refusals GasParams raises
    last_bounds = fam.FAMILIES["gas"].last_bounds
    for n0, s, d, p in itertools.product(range(-1, 7), range(-1, 3), range(-1, 7), range(-1, 8)):
        try:
            accepted = fam.GasParams(n0, s, d, p).is_minimal_sequence
        except (InvalidParamError, GcdNotOneError):
            accepted = False
        lo, hi = last_bounds(n0, s, d)
        assert (lo <= p < hi) == accepted, (n0, s, d, p)


def test_gas_sequence_and_split():
    p = fam.GasParams(5, 3, 7, 4)
    assert p.sequence == (5, 22, 29, 36, 43)
    assert p.b == 1
    p = fam.GasParams(12, 2, 5, 8)
    assert p.sequence == (12, 29, 34, 39, 44, 49, 54, 59, 64)
    assert p.b == 4


def test_gas_semigroup_examples():
    assert fam.gas_semigroup(fam.GasParams(5, 3, 7, 4)).minimal_generators == (5, 22, 29, 36, 43)
    assert fam.gas_semigroup(fam.GasParams(17, 1, 7, 4)).minimal_generators == (17, 24, 31, 38, 45)


def test_gas_semigroup_rejects_non_minimal():
    # 2, 2s+d, 2s+2d: the last term is even, hence redundant over <2, ...>
    with pytest.raises(NotMinimalSequenceError):
        fam.gas_semigroup(fam.GasParams(2, 1, 1, 2))


def test_gas_minimal_sequence_predicate_matches_the_core():
    # p < n0 exactly when the core keeps every term as a minimal generator
    checked = 0
    for n0 in range(1, 21):
        for s in range(1, 4):
            for d in range(1, 22):
                if math.gcd(n0, d) != 1:
                    continue
                for p in range(2, 10):
                    params = fam.GasParams(n0, s, d, p)
                    seq = params.sequence
                    minimal = NumericalSemigroup(seq).minimal_generators == seq
                    assert params.is_minimal_sequence == minimal, params
                    checked += 1
    assert checked == 6408


def test_gas_semigroup_refuses_p_ge_n0_without_building_the_sequence():
    # a sequence of 10**12 terms would never finish; the refusal is arithmetic
    params = fam.GasParams(3, 1, 1, 10**12)
    with pytest.raises(NotMinimalSequenceError) as info:
        fam.gas_semigroup(params)
    assert "n0=3, p=1000000000000" in str(info.value)
    assert len(str(info.value)) < 200


def test_gas_frobenius_estimate_past_p_ge_n0_stays_below_p_2():
    # The GAS grid caps only the tuples its walk yields (p < n0).  A tuple with
    # p >= n0 never estimates more than p = 2 of the same (n0, s, d), which the
    # walk yields first, so skipping them refuses a grid at the same tuple.
    for n0 in range(1, 30):
        for s in range(1, 4):
            for d in range(1, 30):
                if math.gcd(n0, d) != 1:
                    continue
                at_2 = fam.gas_frobenius_closed(fam.GasParams(n0, s, d, 2))
                for p in range(max(n0, 2), n0 + 10):
                    assert fam.gas_frobenius_closed(fam.GasParams(n0, s, d, p)) <= at_2, (n0, s, d, p)


def test_gas_frobenius_estimate_is_the_last_closed_form_pf():
    # the estimate and the closed form read any 4-tuple; on every tuple of the full
    # grid and of bounds (24, 3, 25, 8) a plain tuple gives what GasParams gives,
    # in both variants, and the sequence is n0 then s*n0 + i*d for i = 1..p
    for bounds in ((16, 3, 17, 7), (24, 3, 25, 8)):
        ranges = [range(low, high + 1) for low, high in zip((3, 1, 1, 2), bounds)]
        for values in fam.FAMILIES["gas"].walk(ranges):
            params = fam.GasParams(*values)
            n0, s, d, p = values
            assert params.sequence == (n0,) + tuple(s * n0 + i * d for i in range(1, p + 1))
            for variant in fam.GAS_PF_VARIANTS:
                top = fam.gas_pf_closed(params, variant)[-1]
                assert fam.gas_pf_closed(values, variant) == fam.gas_pf_closed(params, variant)
                assert fam.gas_frobenius_closed(values, variant) == top, (values, variant)
                assert fam.gas_frobenius_closed(params, variant) == top, (values, variant)
    with pytest.raises(InvalidParamError):
        fam.gas_frobenius_closed((5, 3, 7, 4), "bogus")


def test_gas_pf_closed_b1():
    assert fam.gas_pf_closed(fam.GasParams(5, 3, 7, 4)) == [17, 24, 31, 38]


def test_gas_pf_closed_b2_singleton():
    # b = 2 always gives a one-element PF set
    assert len(fam.gas_pf_closed(fam.GasParams(7, 5, 11, 5))) == 1


def test_gas_pf_closed_variants_differ_only_for_s_ge_2_and_b_ge_2():
    p = fam.GasParams(12, 2, 5, 8)
    assert fam.gas_pf_closed(p, fam.AS_STATED) == [69, 74, 79]
    assert fam.gas_pf_closed(p) == [81, 86, 91]
    assert naive_pf(p.sequence) == [81, 86, 91]
    # s = 1: identical
    q = fam.GasParams(17, 1, 7, 4)
    assert fam.gas_pf_closed(q, fam.AS_STATED) == fam.gas_pf_closed(q)
    # b = 1: identical
    q = fam.GasParams(5, 3, 7, 4)
    assert fam.gas_pf_closed(q, fam.AS_STATED) == fam.gas_pf_closed(q)
    with pytest.raises(InvalidParamError):
        fam.gas_pf_closed(p, "bogus")


def test_gas_pf_closed_matches_oracle():
    for tup in [(7, 1, 2, 4), (8, 2, 3, 4), (9, 2, 5, 4), (13, 3, 4, 5), (7, 5, 11, 4)]:
        p = fam.GasParams(*tup)
        assert fam.gas_pf_closed(p) == naive_pf(p.sequence), tup


def test_gas_maximal_predicate_examples():
    assert not fam.gas_maximal_predicate(fam.GasParams(5, 3, 7, 4))
    assert fam.gas_maximal_predicate(fam.GasParams(12, 2, 5, 8))
    assert not fam.gas_maximal_predicate(fam.GasParams(17, 1, 7, 4))


def test_gas_minimal_predicate_examples():
    p = fam.GasParams(5, 3, 7, 4)
    assert fam.gas_minimal_predicate(p, fam.AS_STATED)
    assert fam.gas_minimal_predicate(p, fam.AS_PROOF)
    assert fam.gas_minimal_predicate(fam.GasParams(7, 5, 11, 5), fam.AS_PROOF)  # b = 2
    assert not fam.gas_minimal_predicate(fam.GasParams(12, 2, 5, 8), fam.AS_PROOF)
    with pytest.raises(InvalidParamError):
        fam.gas_minimal_predicate(p, "bogus")


def test_gas_minimal_modes_disagree_at_n0_eq_d_minus_1():
    # <6,13,20,27>: oracle says minimal reduced type; only the n0 < d+1 reading agrees
    p = fam.GasParams(6, 1, 7, 3)
    assert not fam.gas_minimal_predicate(p, fam.AS_STATED)
    assert fam.gas_minimal_predicate(p, fam.AS_PROOF)
    sg = fam.gas_semigroup(p)
    assert sg.pf_set() == [34, 41]
    assert sg.pf_profile().extremality is Extremality.MINIMAL_ONLY


def test_gas_minimal_degenerate_gorenstein_case():
    # b = 0, p = 2 forces type 1, so minimality holds regardless of the threshold
    p = fam.GasParams(4, 1, 3, 2)
    assert fam.gas_type_closed(p) == 1
    assert fam.gas_minimal_predicate(p, fam.AS_STATED)
    assert fam.gas_minimal_predicate(p, fam.AS_PROOF)
    sg = fam.gas_semigroup(p)
    assert sg.pf_set() == [13]
    assert sg.pf_profile().extremality is Extremality.BOTH


# --- Bresinsky family


def test_bresinsky_generators():
    assert fam.bresinsky_semigroup(2).minimal_generators == (12, 15, 20, 23)
    assert fam.bresinsky_semigroup(3).minimal_generators == (30, 35, 42, 47)
    assert fam.bresinsky_semigroup(2).multiplicity == 12
    for h in range(2, 9):
        n1 = 2 * h * (2 * h + 1)
        assert fam.bresinsky_generators(h) == (
            (2 * h - 1) * 2 * h, (2 * h - 1) * (2 * h + 1), n1, n1 + 2 * h - 1
        )
    with pytest.raises(InvalidParamError):
        fam.bresinsky_semigroup(1)
    with pytest.raises(InvalidParamError):
        fam.bresinsky_generators(1)


def test_bresinsky_pf_closed():
    assert fam.bresinsky_pf_closed(2) == [28, 31, 33, 41, 49]
    assert fam.bresinsky_pf_closed(3) == sorted(
        [138, 143, 148, 153] + [145, 157, 169, 181, 193]
    )
    for h in range(2, 7):
        assert len(fam.bresinsky_pf_closed(h)) == 4 * h - 3
        assert max(fam.bresinsky_pf_closed(h)) == fam.bresinsky_frobenius_closed(h)


def test_bresinsky_matches_oracle():
    assert fam.bresinsky_pf_closed(3) == naive_pf([30, 35, 42, 47])


# --- Backelin family


def test_backelin_generators():
    assert fam.backelin_semigroup(2, 8).minimal_generators == (67, 70, 74, 75)
    assert fam.backelin_semigroup(3, 11).minimal_generators == (124, 127, 134, 135)
    with pytest.raises(InvalidParamError):
        fam.backelin_semigroup(1, 10)
    with pytest.raises(InvalidParamError):
        fam.backelin_semigroup(2, 7)  # r < 3n+2
    assert fam.backelin_generators(2, 8) == (67, 70, 74, 75)
    assert fam.backelin_generators(3, 11) == (124, 127, 134, 135)
    for n, r in ((1, 10), (2, 7)):
        with pytest.raises(InvalidParamError):
            fam.backelin_generators(n, r)


def test_backelin_pf_closed():
    assert fam.backelin_pf_closed(2, 8) == [213, 221, 601, 602, 604, 605, 607, 608]
    for n in (2, 3, 4):
        for r in (3 * n + 2, 3 * n + 4):
            assert len(fam.backelin_pf_closed(n, r)) == 3 * n + 2


def test_backelin_matches_oracle():
    assert fam.backelin_pf_closed(3, 11) == naive_pf([124, 127, 134, 135])
    assert max(fam.backelin_pf_closed(3, 11)) == fam.backelin_frobenius_closed(3, 11)


# --- fixed-type witness families


def test_uniform_type_family():
    assert fam.uniform_type_family(2).minimal_generators == (3, 4, 5)
    assert fam.uniform_type_family(2).pf_set() == [1, 2]
    assert fam.uniform_type_family(1).pf_set() == [1]
    assert fam.uniform_type_family(4).pf_set() == [1, 2, 3, 4]
    with pytest.raises(InvalidParamError):
        fam.uniform_type_family(0)


def test_oversized_r_is_refused_before_any_generator(monkeypatch):
    # r + 1 residues past TABLE_LIMIT: refused by arithmetic, at a small peak
    for family in (fam.uniform_type_family, fam.staircase_min_type_family):
        tracemalloc.start()
        try:
            with pytest.raises(TableLimitError) as info:
                family(5_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(str(info.value)) < 120
    # the limit is on r + 1 itself
    monkeypatch.setattr(fam, "TABLE_LIMIT", 6)
    assert fam.uniform_type_family(5).minimal_generators == (6, 7, 8, 9, 10, 11)
    with pytest.raises(TableLimitError):
        fam.staircase_min_type_family(6)


def test_staircase_family():
    assert fam.staircase_min_type_family(2).minimal_generators == (3, 7, 11)
    assert fam.staircase_min_type_family(2).pf_set() == [4, 8]
    assert fam.staircase_min_type_family(3).minimal_generators == (4, 9, 14, 19)
    assert fam.staircase_min_type_family(3).pf_set() == [5, 10, 15]
    for r in range(2, 6):
        assert fam.staircase_min_type_family(r).pf_set() == fam.staircase_pf_closed(r)
