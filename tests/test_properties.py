"""Property tests tying the Apery-set machinery to the definitional oracle."""

import itertools
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nsg.constructions as cons
from nsg.core import NumericalSemigroup
from nsg.naive import (
    naive_closure,
    naive_duplication_stats,
    naive_pf,
    naive_reduced_type,
    naive_stats,
)


@st.composite
def generator_lists(draw):
    gens = draw(st.lists(st.integers(2, 40), min_size=1, max_size=4))
    assume(math.gcd(*gens) == 1)
    return gens


@given(generator_lists())
@settings(max_examples=80, deadline=None)
def test_pf_dual_path(gens):
    s = NumericalSemigroup(gens)
    assert s.pf_set() == naive_pf(gens)


@given(generator_lists())
@settings(max_examples=80, deadline=None)
def test_reduced_type_dual_path_and_bounds(gens):
    s = NumericalSemigroup(gens)
    prof = s.pf_profile()
    assert prof.reduced_type == naive_reduced_type(gens)
    assert 1 <= prof.reduced_type <= prof.cm_type
    assert (prof.extremality.is_maximal and prof.extremality.is_minimal) == (
        prof.cm_type == 1
    )


@st.composite
def messy_generator_lists(draw):
    """Generator lists for any S, N included, with repeats and redundant sums mixed in."""
    gens = draw(st.one_of(st.just([1]), generator_lists()))
    sums = [a + b for a in gens for b in gens]
    gens = gens + draw(st.lists(st.sampled_from(gens + sums), max_size=4))
    return draw(st.permutations(gens))


@given(messy_generator_lists())
@settings(max_examples=100, deadline=None)
def test_apery_readout_matches_member_test_and_oracle(gens):
    s = NumericalSemigroup(gens)
    frob, m = s.frobenius, s.multiplicity
    window_gaps = sum(not s.contains(x) for x in range(frob - m + 1, frob + 1))
    assert s.pf_profile().reduced_type == window_gaps
    assert s.pf_set() == naive_pf(gens)
    assert s.genus == sum(not s.contains(x) for x in range(frob + 1))


@given(generator_lists())
@settings(max_examples=60, deadline=None)
def test_apery_invariants(gens):
    s = NumericalSemigroup(gens)
    for n in s.minimal_generators:
        ap = s.apery_set(n)
        assert len(ap) == n
        assert ap[0] == 0
        assert sorted(w % n for w in ap) == list(range(n))
        assert max(ap) - n == s.frobenius
        assert all(s.contains(w) for w in ap)


@given(generator_lists())
@settings(max_examples=80, deadline=None)
def test_symmetric_iff_type_one(gens):
    s = NumericalSemigroup(gens)
    assert s.is_symmetric() == (len(s.pf_set()) == 1)


@given(generator_lists())
@settings(max_examples=80, deadline=None)
def test_minimal_generator_idempotence(gens):
    s = NumericalSemigroup(gens)
    assert NumericalSemigroup(s.minimal_generators).minimal_generators == s.minimal_generators


@given(generator_lists())
@settings(max_examples=60, deadline=None)
def test_membership_boundary(gens):
    s = NumericalSemigroup(gens)
    assert not s.contains(s.frobenius)
    assert all(
        s.contains(x)
        for x in range(s.frobenius + 1, s.frobenius + s.multiplicity + 1)
    )
    assert s.genus == sum(1 for x in range(s.frobenius + 1) if not s.contains(x))


@st.composite
def sparse_large_multiplicity(draw):
    m = draw(st.integers(150, 400))
    rest = draw(st.lists(st.integers(m + 1, 3 * m), min_size=2, max_size=4, unique=True))
    assume(math.gcd(m, *rest) == 1)
    return [m] + rest


@given(sparse_large_multiplicity())
@settings(max_examples=30, deadline=None)
def test_core_matches_oracle_at_large_multiplicity(gens):
    s = NumericalSemigroup(gens)
    assume(s.frobenius <= 20_000)  # keeps the definitional scans cheap
    frob, m = s.frobenius, s.multiplicity
    table = naive_closure(gens, frob + m)
    assert [s.contains(x) for x in range(frob + m + 1)] == table
    assert s.genus == table.count(False)
    assert s.pf_set() == naive_pf(gens)
    assert s.pf_profile().reduced_type == naive_reduced_type(gens)


# every generator set of at most three elements in [1, 12] with gcd 1
_SMALL_GENS = [
    list(c)
    for k in (1, 2, 3)
    for c in itertools.combinations(range(1, 13), k)
    if math.gcd(*c) == 1
]


@st.composite
def gluings(draw):
    """Gluing data: mu in S1 and lambda in S2, neither a minimal generator, gcd 1."""
    s1, s2 = (NumericalSemigroup(draw(st.sampled_from(_SMALL_GENS))) for _ in range(2))

    def non_generators(s: NumericalSemigroup) -> list[int]:
        top = s.frobenius + 3 * s.multiplicity + 3
        return [x for x in range(2, top) if s.contains(x) and x not in s.minimal_generators]

    lam = draw(st.sampled_from(non_generators(s2)))
    coprime = [x for x in non_generators(s1) if math.gcd(x, lam) == 1]
    assume(coprime)
    return cons.GluingSpec(s1, s2, lam, draw(st.sampled_from(coprime)))


@given(gluings())
@settings(max_examples=60, deadline=None)
def test_glue_matches_oracle(spec):
    glued = cons.glue(spec)
    # the gluing lemma (glue's docstring): the scaled set, repeat-free, is minimal
    assert glued.minimal_generators == tuple(sorted(spec.generators))
    naive = naive_stats(glued.minimal_generators)
    assert glued.pf_set() == naive.pf == cons.gluing_pf(spec)
    assert glued.frobenius == naive.frobenius == cons.gluing_frobenius_closed(spec)
    assert glued.pf_profile().reduced_type == naive.reduced_type


@st.composite
def ideals(draw):
    """(S, ideal generators): E = S, E = S \\ {0}, or a random ideal."""
    s = NumericalSemigroup(draw(generator_lists()))
    kind = draw(st.sampled_from(["S", "S*", "random"]))
    if kind == "S":
        return s, [0]
    if kind == "S*":
        return s, list(s.minimal_generators)
    members = [x for x in range(1, s.frobenius + 2 * s.multiplicity + 1) if s.contains(x)]
    return s, draw(st.lists(st.sampled_from(members), min_size=1, max_size=3))


@given(ideals())
@settings(max_examples=80, deadline=None)
def test_ideal_matches_pointwise_brute_force(args):
    s, e_gens = args
    e = cons.SemigroupIdeal(s, e_gens)
    # E is cofinite from min(E) + F(S) + 1 on; check one multiplicity past it
    top = min(e_gens) + s.frobenius + s.multiplicity + 1
    in_s = naive_closure(s.minimal_generators, top)
    in_e = [any(g <= x and in_s[x - g] for g in e_gens) for x in range(top + 1)]
    gaps_e = [x for x in range(top + 1) if not in_e[x]]
    conductor = gaps_e[-1] + 1 if gaps_e else 0
    assert e.conductor_e == conductor
    if 0 in e_gens:
        kind = cons.IdealKind.FULL
    elif all(in_e[x] for x in range(1, top + 1) if in_s[x]):
        kind = cons.IdealKind.STAR
    else:
        kind = cons.IdealKind.PROPER
    assert e.kind is kind
    in_tilde = [x == 0 or in_e[x] for x in range(top + 1)]
    assert [e.tilde.contains(x) for x in range(top + 1)] == in_tilde
    assert e.ambient_outside_tilde() == [
        x for x in range(1, conductor) if in_s[x] and not in_e[x]
    ]


def _window_reduced_type(e: cons.SemigroupIdeal) -> int:
    """Reduced type of E u {0}, one member test per integer of (F - min E, F]: the reference."""
    frob = e.tilde_frobenius
    return sum(not e.contains(x) for x in range(max(1, frob - e.min_element + 1), frob + 1))


@given(ideals(), st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_tilde_reduced_type_matches_the_window_count(args, shift):
    s, e_gens = args
    # a multiple of m added to each generator keeps it in S and moves min E up
    e = cons.SemigroupIdeal(s, [g + shift * s.multiplicity for g in e_gens])
    assume(e.kind is cons.IdealKind.PROPER)
    assert e.tilde_reduced_type == _window_reduced_type(e)


@given(ideals(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_duplication_matches_oracle(args, idx):
    s, e_gens = args
    d = _nth_odd_member(s, idx)
    dup = cons.duplicate(cons.DuplicationSpec(s, cons.SemigroupIdeal(s, e_gens), d))
    naive = naive_duplication_stats(s.minimal_generators, e_gens, d)
    assert dup.pf_set() == naive.pf
    assert dup.frobenius == naive.frobenius
    assert dup.pf_profile().reduced_type == naive.reduced_type


def _nth_odd_member(s: NumericalSemigroup, idx: int) -> int:
    x = 1
    while True:
        if s.contains(x):
            if idx == 0:
                return x
            idx -= 1
        x += 2


@given(generator_lists(), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_self_duplication_frobenius_and_type(gens, idx):
    s = NumericalSemigroup(gens)
    d = _nth_odd_member(s, idx)
    spec = cons.DuplicationSpec(s, cons.ideal_full(s), d)
    dup = cons.duplicate(spec)
    assert dup.frobenius == 2 * s.frobenius + d
    assert dup.pf_set() == cons.duplication_pf(spec)
    assert len(dup.pf_set()) == len(s.pf_set())


@given(generator_lists(), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_star_duplication_never_gorenstein(gens, idx):
    s = NumericalSemigroup(gens)
    assume(s.frobenius >= 0)  # proper subsemigroup
    d = _nth_odd_member(s, idx)
    spec = cons.DuplicationSpec(s, cons.ideal_star(s), d)
    dup = cons.duplicate(spec)
    assert dup.pf_set() == cons.duplication_pf(spec)
    assert len(dup.pf_set()) == 2 * len(s.pf_set()) + 1 > 1
