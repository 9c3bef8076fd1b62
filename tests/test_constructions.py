import itertools
import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsg.constructions as cons
from nsg.core import (
    EmptyGeneratorsError,
    Extremality,
    GcdNotOneError,
    NumericalSemigroup,
    TableLimitError,
    naturals,
)
from nsg.constructions import (
    DNotInSError,
    DNotOddError,
    DuplicationSpec,
    GeneratorNotInAmbientError,
    GluingSpec,
    IdealKind,
    LambdaIsMinimalGeneratorError,
    LambdaNotInS2Error,
    MuIsMinimalGeneratorError,
    MuNotInS1Error,
    NotAnIdealError,
    NotApplicableError,
    PTooLargeError,
    SemigroupIdeal,
    TargetIsGeneratorError,
    Verdict,
)
from nsg.naive import naive_duplication_stats, naive_pf

S567 = NumericalSemigroup([5, 6, 7])
S345 = NumericalSemigroup([3, 4, 5])
S23 = NumericalSemigroup([2, 3])


# --- gluing


def test_gluing_spec_validation():
    with pytest.raises(MuIsMinimalGeneratorError):
        GluingSpec(S567, naturals(), lam=7, mu=5)
    with pytest.raises(MuNotInS1Error):
        GluingSpec(S567, naturals(), lam=7, mu=8)  # 8 not in <5,6,7>
    with pytest.raises(LambdaIsMinimalGeneratorError):
        GluingSpec(S567, naturals(), lam=1, mu=26)
    with pytest.raises(LambdaIsMinimalGeneratorError):
        GluingSpec(naturals(), S345, lam=3, mu=2)
    with pytest.raises(GcdNotOneError):
        GluingSpec(S567, naturals(), lam=6, mu=10)
    with pytest.raises(LambdaNotInS2Error):
        GluingSpec(naturals(), S345, lam=2, mu=2)
    with pytest.raises(cons.InvalidParamError):
        GluingSpec(S567, naturals(), lam=0, mu=26)  # lambda below 1


def test_glue_examples():
    spec = GluingSpec(S567, naturals(), lam=7, mu=26)
    assert repr(spec) == (
        "GluingSpec(NumericalSemigroup<5, 6, 7>, NumericalSemigroup<1>, lambda=7, mu=26)"
    )
    assert cons.glue(spec).minimal_generators == (26, 35, 42, 49)
    spec = GluingSpec(S567, naturals(), lam=5, mu=23)
    assert cons.glue(spec).minimal_generators == (23, 25, 30, 35)
    spec = GluingSpec(naturals(), naturals(), lam=2, mu=3)
    assert cons.glue(spec).minimal_generators == (2, 3)


def test_gluing_pf():
    spec = GluingSpec(S567, naturals(), lam=7, mu=26)
    assert cons.gluing_pf(spec) == [212, 219]
    spec = GluingSpec(S567, naturals(), lam=5, mu=23)
    assert cons.gluing_pf(spec) == [132, 137]
    assert max(cons.gluing_pf(spec)) == 137
    assert cons.gluing_frobenius_closed(spec) == 137


def test_gluing_type_multiplicative():
    for lam, mu in [(7, 26), (5, 23)]:
        spec = GluingSpec(S567, naturals(), lam=lam, mu=mu)
        assert len(cons.gluing_pf(spec)) == 2 * 1


def test_gluing_pf_matches_oracle():
    spec = GluingSpec(S345, S23, lam=5, mu=7)
    glued = cons.glue(spec)
    assert cons.gluing_pf(spec) == naive_pf(glued.minimal_generators)
    assert len(cons.gluing_pf(spec)) == 2 * 1


def test_gluing_maximal_sufficient():
    assert cons.gluing_maximal_sufficient(GluingSpec(S567, naturals(), lam=5, mu=23))
    # condition fails yet the glued semigroup is still maximal: one-directional
    spec = GluingSpec(S567, naturals(), lam=7, mu=26)
    assert not cons.gluing_maximal_sufficient(spec)
    assert cons.glue(spec).pf_profile().extremality.is_maximal
    assert cons.gluing_maximal_sufficient(GluingSpec(naturals(), naturals(), lam=2, mu=3))


def test_gluing_maximal_sufficient_not_applicable():
    s31121 = NumericalSemigroup([3, 7, 11])  # minimal reduced type, not maximal
    with pytest.raises(NotApplicableError):
        cons.gluing_maximal_sufficient(GluingSpec(s31121, naturals(), lam=5, mu=6))


# --- nice extensions


def test_max_coeff_sum():
    assert cons.max_coeff_sum((5, 6, 7), 26) == 5  # 5+5+5+5+6
    assert cons.max_coeff_sum((5, 6, 7), 23) == 4
    assert cons.max_coeff_sum((5, 6, 7), 4) == -1
    assert cons.max_coeff_sum((2, 3), 6) == 3
    # the representation behind the sum; ties go to the first improving generator
    assert cons.max_coeff_representation((5, 6, 7), 26) == [4, 1, 0]
    assert cons.max_coeff_representation((5, 6, 7), 23) == [2, 1, 1]
    assert cons.max_coeff_representation((5, 6, 7), 4) is None


def _dp_max_coeff_representation(gens, target):
    """The max-sum DP run to the whole target: the reference for the reduced one."""
    best = [-1] * (target + 1)
    best[0] = 0
    back = [0] * (target + 1)
    for x in range(1, target + 1):
        for g in gens:
            if g <= x and best[x - g] >= 0 and best[x - g] + 1 > best[x]:
                best[x] = best[x - g] + 1
                back[x] = g
    if best[target] < 0:
        return None
    coeffs = [0] * len(gens)
    x = target
    while x:
        coeffs[gens.index(back[x])] += 1
        x -= back[x]
    return coeffs


@given(st.lists(st.integers(1, 20), min_size=1, max_size=5, unique=True), st.data())
@settings(max_examples=100, deadline=None)
def test_reduced_max_coeff_dp_matches_the_whole_target_dp(gens, data):
    gens = sorted(gens)
    bound = (gens[0] - 1) * sum(gens[1:])
    target = data.draw(st.integers(0, 3 * bound + 3 * gens[-1]))
    expected = _dp_max_coeff_representation(gens, target)
    assert cons.max_coeff_representation(gens, target) == expected
    # in another order the coefficients may differ, but not their sum
    shuffled = data.draw(st.permutations(gens))
    got = cons.max_coeff_representation(shuffled, target)
    assert (got is None) == (expected is None)
    if got is not None:
        assert sum(got) == sum(expected)
        assert sum(c * g for c, g in zip(got, shuffled)) == target


def test_max_coeff_representation_of_a_huge_target_needs_no_table():
    # B = 4 * (6 + 7) = 52, so 10**12 + 1 drops by q copies of 5 to 51 and the
    # DP runs to 51
    t0 = time.perf_counter()
    coeffs = cons.max_coeff_representation((5, 6, 7), 10**12 + 1)
    assert time.perf_counter() - t0 < 0.1
    q = (10**12 + 1 - 51) // 5
    rest = _dp_max_coeff_representation((5, 6, 7), 51)
    assert coeffs == [q + rest[0]] + rest[1:]


def test_max_coeff_representation_past_the_table_limit_is_refused(monkeypatch):
    # B = 2999 * 3001, about 9.0e6 cells, past TABLE_LIMIT = 2**22; and
    # B = (10**6 - 1) * (10**6 + 1), about 10**12 cells: refused before any table
    for gens, target in (([3000, 3001], 10**7), ([10**6, 10**6 + 1], 10**12)):
        tracemalloc.start()
        try:
            with pytest.raises(TableLimitError):
                cons.max_coeff_representation(gens, target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    # the limit counts cells: B = 52 for <5, 6, 7>, so a DP to 51 fills 52 cells
    monkeypatch.setattr(cons, "TABLE_LIMIT", 52)
    expected = _dp_max_coeff_representation((5, 6, 7), 51)
    assert cons.max_coeff_representation((5, 6, 7), 51) == expected
    assert cons.max_coeff_sum((5, 6, 7), 10**12 + 1) > 0  # reduced to 51
    with pytest.raises(TableLimitError, match="53 cells exceeds 52"):
        cons.max_coeff_representation((5, 6, 7), 52)


def test_nice_extension_p_too_large():
    # <35,42,49,26> is not a nice extension of <5,6,7>: no representation of 26
    # reaches coefficient sum 7
    with pytest.raises(PTooLargeError):
        cons.nice_extension(S567, 7, [4, 1, 0])
    # max coefficient sum over representations of 23 is 4 < 5
    with pytest.raises(PTooLargeError):
        cons.nice_extension(S567, 5, [2, 1, 1])
    with pytest.raises(PTooLargeError):
        cons.nice_extension(S345, 3, [0, 2, 0])  # 8 = 4+4, best sum 2


def test_nice_extension_valid():
    spec = cons.nice_extension(S23, 2, [1, 1])  # target 5, p = 2
    assert (spec.lam, spec.mu) == (2, 5)
    assert cons.glue(spec).minimal_generators == (4, 5, 6)
    assert cons.nice_extension_maximal_iff(spec)  # Gorenstein on both sides

    spec = cons.nice_extension(S345, 2, [1, 1, 0])  # target 7
    glued = cons.glue(spec)
    assert glued.minimal_generators == (6, 7, 8, 10)
    assert glued.pf_set() == [9, 11]
    assert cons.nice_extension_maximal_iff(spec)


def test_nice_extension_errors():
    with pytest.raises(TargetIsGeneratorError):
        cons.nice_extension(S345, 2, [1, 0, 0])
    with pytest.raises(GcdNotOneError):
        cons.nice_extension(S345, 2, [2, 0, 0])  # gcd(2, 6) = 2
    with pytest.raises(cons.InvalidParamError):
        cons.nice_extension(S345, 2, [1, 1])  # wrong arity
    with pytest.raises(cons.InvalidParamError, match="p must be positive"):
        cons.nice_extension(S345, 0, [1, 1, 0])
    with pytest.raises(cons.InvalidParamError, match="target element must be positive"):
        cons.nice_extension(S345, 2, [0] * len(S345.minimal_generators))


# --- ideals


def test_ideal_kinds():
    e = SemigroupIdeal(S345, [5, 6, 7])
    assert e.kind is IdealKind.PROPER
    assert e.min_element == 5
    assert e.conductor_e == 5
    assert e.tilde.minimal_generators == (5, 6, 7, 8, 9)
    assert e.tilde.pf_set() == [1, 2, 3, 4]

    assert SemigroupIdeal(S345, [0]).kind is IdealKind.FULL
    assert cons.ideal_full(S345).tilde == S345
    assert cons.ideal_star(S345).kind is IdealKind.STAR
    # explicit generators detecting S* without being told
    assert SemigroupIdeal(S345, [3, 4, 5]).kind is IdealKind.STAR
    # a proper ideal of N is {k, k+1, ...}: E u {0} has F = k - 1 and k - 1 gaps in (F - k, F]
    for k in (2, 3, 7):
        e = SemigroupIdeal(naturals(), [k])
        assert e.kind is IdealKind.PROPER
        assert e.tilde_frobenius == k - 1
        assert e.tilde_reduced_type == k - 1 == e.tilde.pf_profile().reduced_type


def test_ideal_membership_and_outside():
    e = SemigroupIdeal(S345, [5, 6, 7])
    assert not e.contains(3)
    assert not e.contains(4)
    assert e.contains(5)
    assert all(e.contains(x) for x in range(5, 30))
    assert e.ambient_outside_tilde() == [3, 4]


def test_ideal_errors():
    with pytest.raises(GeneratorNotInAmbientError):
        SemigroupIdeal(S345, [2])
    with pytest.raises(GeneratorNotInAmbientError):
        SemigroupIdeal(S345, [-3])
    with pytest.raises(EmptyGeneratorsError):
        SemigroupIdeal(S345, [])


# --- duplication


def test_duplication_spec_validation():
    e = cons.ideal_full(S345)
    with pytest.raises(DNotOddError):
        DuplicationSpec(S345, e, 4)
    with pytest.raises(DNotInSError):
        DuplicationSpec(S567, cons.ideal_full(S567), 9)
    with pytest.raises(NotAnIdealError):
        DuplicationSpec(S567, e, 7)  # ideal of a different ambient


def test_duplicate_examples():
    spec = DuplicationSpec(S567, cons.ideal_full(S567), 7)
    assert repr(spec) == (
        "DuplicationSpec(NumericalSemigroup<5, 6, 7>, "
        "SemigroupIdeal(NumericalSemigroup<5, 6, 7>, gens=[0]), d=7)"
    )
    dup = cons.duplicate(spec)
    assert dup == NumericalSemigroup([7, 10, 12, 14])
    assert dup.generators == dup.minimal_generators == (7, 10, 12)
    assert dup.pf_set() == [23, 25]

    e = SemigroupIdeal(S345, [5, 6, 7])
    dup = cons.duplicate(DuplicationSpec(S345, e, 11))
    assert dup.frobenius == 2 * e.tilde.frobenius + 11 == 19
    assert dup.multiplicity == 6

    # N bowtie^1 N = N
    spec = DuplicationSpec(naturals(), cons.ideal_full(naturals()), 1)
    assert cons.duplicate(spec) == naturals()


def test_duplicate_builds_one_semigroup(monkeypatch):
    builds = []
    init = NumericalSemigroup.__init__
    monkeypatch.setattr(
        NumericalSemigroup, "__init__", lambda self, gens: builds.append(1) or init(self, gens)
    )
    # 2 * 7 = (0 + 7) + (0 + 7) is redundant among the supplied generators
    dup = cons.duplicate(DuplicationSpec(S567, cons.ideal_full(S567), 7))
    assert len(builds) == 1
    assert dup.generators == (7, 10, 12)


def test_duplication_pf_three_cases():
    e = SemigroupIdeal(S345, [5, 6, 7])
    assert cons.duplication_pf(DuplicationSpec(S345, e, 11)) == [2, 4, 15, 17, 19]
    assert cons.duplication_pf(
        DuplicationSpec(S345, cons.ideal_star(S345), 11)
    ) == [2, 4, 11, 13, 15]
    assert cons.duplication_pf(
        DuplicationSpec(S345, cons.ideal_full(S345), 11)
    ) == [13, 15]


def test_duplication_pf_is_computed_once_per_spec(monkeypatch):
    # the PF, the type and the classifier share one computation, and each
    # duplication_pf call hands out a new list
    computed = []
    compute = cons._duplication_pf
    monkeypatch.setattr(cons, "_duplication_pf", lambda spec: computed.append(1) or compute(spec))
    s35 = NumericalSemigroup([3, 5])
    spec = DuplicationSpec(s35, SemigroupIdeal(s35, [3, 10]), 5)
    pf = cons.duplication_pf(spec)
    pf.append(-1)
    assert cons.duplication_pf(spec) == [14, 15, 19]
    assert cons.duplication_pf(spec) is not cons.duplication_pf(spec)
    assert cons.duplication_type_closed(spec) == 3
    assert cons.duplication_min_classifier(spec).clause == "iii.b.1"  # reads PF(D)[-2]
    assert len(computed) == 1
    # a new spec of the same data computes afresh
    cons.duplication_min_classifier(DuplicationSpec(s35, SemigroupIdeal(s35, [3, 10]), 5))
    assert len(computed) == 2


def test_duplication_pf_matches_constructed():
    for ideal_gens, d in [([5, 6, 7], 11), ([3, 4, 5], 11), ([0], 11), ([4, 5], 3)]:
        spec = DuplicationSpec(S345, SemigroupIdeal(S345, ideal_gens), d)
        assert cons.duplication_pf(spec) == cons.duplicate(spec).pf_set()
        assert cons.duplication_type_closed(spec) == len(cons.duplication_pf(spec))


def tilde_duplication_pf(spec: DuplicationSpec) -> list[int]:
    """D1 u D2 for a proper ideal, read literally off E~ built as a semigroup: the reference."""
    e, d = spec.e, spec.d
    pf_t = e.tilde.pf_set()
    delta1 = {2 * f for f in set(spec.s.pf_set()) & set(pf_t)}
    outside = e.ambient_outside_tilde()
    delta2 = {
        2 * f + d
        for f in pf_t
        if all(e.contains(f + x) for x in outside if x <= e.conductor_e - f)
    }
    return sorted(delta1 | delta2)


def tilde_min_classification(spec: DuplicationSpec) -> tuple[str, Verdict]:
    """Case iii of the minimal-type tree for a proper ideal, from E~ built as a semigroup."""
    frob, tilde = spec.s.frobenius, spec.e.tilde
    hedge = (
        Verdict.SUFFICIENT_ONLY_TRUE
        if tilde.pf_profile().extremality.is_minimal
        else Verdict.NO_CONCLUSION
    )
    if frob != tilde.frobenius:
        return "iii.a", hedge
    pf_dup = tilde_duplication_pf(spec)
    if len(pf_dup) < 2 or pf_dup[-2] != 2 * frob:
        return "iii.b.1", hedge
    return "iii.b.2", Verdict.TRUE if spec.d > 2 * spec.s.multiplicity else Verdict.FALSE


def test_proper_ideal_closed_forms_match_the_tilde_route():
    pool = [[1], [2, 3], [3, 4, 5], [5, 7, 9], [4, 6, 9], [3, 7, 11], [5, 6, 7]]
    pool += [[a, b] for a in range(2, 12) for b in range(a + 1, 2 * a) if math.gcd(a, b) == 1]
    proper = 0
    for gens in pool:
        s = NumericalSemigroup(gens)
        members = [x for x in range(1, 3 * s.conductor + 2 * s.multiplicity + 13) if s.contains(x)]
        ideals = [[0], list(s.minimal_generators)]
        ideals += [[x] for x in members[:13]]
        ideals += [list(pair) for pair in itertools.combinations(members[:8], 2)]
        odd = [x for x in members if x % 2][:4]
        for ideal_gens in ideals:
            e = SemigroupIdeal(s, ideal_gens)
            assert e.tilde_frobenius == e.tilde.frobenius, (gens, ideal_gens)
            assert e.tilde_reduced_type == e.tilde.pf_profile().reduced_type, (gens, ideal_gens)
            if e.kind is not IdealKind.PROPER:
                continue
            for d in odd:
                spec = DuplicationSpec(s, e, d)
                assert cons.duplication_pf(spec) == tilde_duplication_pf(spec), (gens, ideal_gens, d)
                got = cons.duplication_min_classifier(spec)
                assert (got.clause, got.verdict) == tilde_min_classification(spec), (
                    gens, ideal_gens, d,
                )
                proper += 1
    assert proper > 7000


def test_duplication_star_type_contract():
    spec = DuplicationSpec(S345, cons.ideal_star(S345), 11)
    assert cons.duplication_type_closed(spec) == 2 * 2 + 1  # never Gorenstein


def test_duplication_min_classifier():
    s = NumericalSemigroup([3, 7, 11])
    result = cons.duplication_min_classifier(
        DuplicationSpec(s, cons.ideal_full(s), 7)
    )
    assert result.clause == "i"
    assert result.verdict is Verdict.SUFFICIENT_ONLY_TRUE
    dup = cons.duplicate(DuplicationSpec(s, cons.ideal_full(s), 7))
    assert dup.pf_profile().extremality.is_minimal

    result = cons.duplication_min_classifier(
        DuplicationSpec(S23, cons.ideal_star(S23), 3)
    )
    assert result.clause == "ii.a.2"
    assert result.verdict is Verdict.FALSE
    dup = cons.duplicate(DuplicationSpec(S23, cons.ideal_star(S23), 3))
    assert not dup.pf_profile().extremality.is_minimal

    result = cons.duplication_min_classifier(
        DuplicationSpec(S567, cons.ideal_star(S567), 7)
    )
    assert result.clause == "ii.b.1"
    assert result.verdict is Verdict.NO_CONCLUSION


def test_duplication_max_self():
    assert cons.duplication_max_self(S567, 7)  # d < 2m branch
    assert cons.duplication_max_self(S345, 11)  # d > 2m branch, S maximal
    assert not cons.duplication_max_self(NumericalSemigroup([3, 7, 11]), 7)
    with pytest.raises(DNotOddError):
        cons.duplication_max_self(S345, 6)
    with pytest.raises(DNotInSError):
        cons.duplication_max_self(S567, 9)


def test_duplication_max_star():
    assert cons.duplication_max_star(S23, 3)
    assert not cons.duplication_max_star(S345, 11)
    assert cons.duplication_max_star(naturals(), 1)


def test_star_closed_forms_refuse_full_ambient():
    # 2N u (2N* + d) is a perfectly good semigroup, but the S* closed form
    # would claim -2 as a pseudo-Frobenius number for it
    n = naturals()
    spec = DuplicationSpec(n, cons.ideal_star(n), 3)
    assert cons.duplicate(spec) == NumericalSemigroup([2, 5])
    # on every call: a refusal is never kept as the spec's PF
    for fn in (
        cons.duplication_pf,
        cons.duplication_type_closed,
        cons.duplication_min_classifier,
    ) * 2:
        with pytest.raises(cons.InvalidParamError):
            fn(spec)
    assert "_pf" not in vars(spec)
    # E = N itself stays fine: PF(N bowtie^1 N) = {-1}
    spec = DuplicationSpec(n, cons.ideal_full(n), 1)
    assert cons.duplication_pf(spec) == [-1]


def test_duplication_max_predicates_match_oracle():
    for gens in ([2, 3], [3, 4, 5], [5, 6, 7], [3, 7, 11]):
        s = NumericalSemigroup(gens)
        for d in (x for x in range(1, 25, 2) if s.contains(x)):
            got = naive_duplication_stats(gens, [0], d).is_maximal
            assert cons.duplication_max_self(s, d) == got, (gens, d)
            got = naive_duplication_stats(gens, gens, d).is_maximal
            assert cons.duplication_max_star(s, d) == got, (gens, d)


def test_self_duplication_preserves_type():
    for gens in ([3, 4, 5], [5, 6, 7], [4, 9, 14, 19]):
        s = NumericalSemigroup(gens)
        t = len(s.pf_set())
        for d in (x for x in range(1, 30, 2) if s.contains(x)):
            spec = DuplicationSpec(s, cons.ideal_full(s), d)
            assert len(cons.duplication_pf(spec)) == t


def test_proper_ideal_duplication_over_a_bit_route_ambient():
    s = NumericalSemigroup([9, 10, 11, 12])
    assert s._bits is not None  # the scan settled every residue
    for ideal, d in (([10], 9), ([10, 11], 21), ([12, 20], 19), ([19], 27)):
        e = SemigroupIdeal(s, ideal)
        assert e.kind is IdealKind.PROPER
        spec = DuplicationSpec(s, e, d)
        assert cons.duplication_pf(spec) == naive_duplication_stats([9, 10, 11, 12], ideal, d).pf
