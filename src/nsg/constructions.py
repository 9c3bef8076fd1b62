"""Gluings, nice extensions, semigroup ideals, and numerical duplication.

Each construction comes with its closed-form pseudo-Frobenius description and
the published extremality criteria; one-directional criteria return an
explicit verdict enum instead of a bare boolean so that "no conclusion" is
never conflated with "false".
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .core import (
    EmptyGeneratorsError,
    GcdNotOneError,
    InvalidParamError,
    NumericalSemigroup,
    TABLE_LIMIT,
    TableLimitError,
    ZeroGeneratorError,
    _maximal_classes,
    naturals,
)


class MuNotInS1Error(InvalidParamError):
    pass


class MuIsMinimalGeneratorError(InvalidParamError):
    pass


class LambdaNotInS2Error(InvalidParamError):
    pass


class LambdaIsMinimalGeneratorError(InvalidParamError):
    pass


class PTooLargeError(InvalidParamError):
    pass


class TargetIsGeneratorError(InvalidParamError):
    pass


class GeneratorNotInAmbientError(InvalidParamError):
    pass


class DNotOddError(InvalidParamError):
    pass


class DNotInSError(InvalidParamError):
    pass


class NotAnIdealError(InvalidParamError):
    pass


class NotApplicableError(InvalidParamError):
    """A criterion's hypothesis does not hold for the given inputs."""


# ---------------------------------------------------------------------------
# Gluing


class GluingSpec:
    """Validated gluing data: mu in S1, lambda in S2, neither a minimal generator, gcd 1."""

    def __init__(
        self,
        s1: NumericalSemigroup,
        s2: NumericalSemigroup,
        lam: int,
        mu: int,
    ):
        if lam < 1 or mu < 1:
            raise InvalidParamError("lambda and mu must be positive")
        if not s1.contains(mu):
            raise MuNotInS1Error(f"mu = {mu} is not in {s1}")
        if mu in s1.minimal_generators:
            raise MuIsMinimalGeneratorError(f"mu = {mu} is a minimal generator of {s1}")
        if not s2.contains(lam):
            raise LambdaNotInS2Error(f"lambda = {lam} is not in {s2}")
        if lam in s2.minimal_generators:
            raise LambdaIsMinimalGeneratorError(
                f"lambda = {lam} is a minimal generator of {s2}"
            )
        if math.gcd(lam, mu) != 1:
            raise GcdNotOneError(f"gcd(lambda, mu) must be 1: gcd({lam}, {mu})")
        self.s1 = s1
        self.s2 = s2
        self.lam = lam
        self.mu = mu

    def __repr__(self) -> str:
        return f"GluingSpec({self.s1}, {self.s2}, lambda={self.lam}, mu={self.mu})"

    @property
    def generators(self) -> tuple[int, ...]:
        """lambda*mingens(S1), then mu*mingens(S2), in that order."""
        return tuple(self.lam * g for g in self.s1.minimal_generators) + tuple(
            self.mu * g for g in self.s2.minimal_generators
        )


def glue(spec: GluingSpec) -> NumericalSemigroup:
    """<lambda*gens(S1), mu*gens(S2)>, minimally generated by exactly that set.

    ``GluingSpec``'s conditions are those of the gluing lemma (Rosales &
    García-Sánchez, *Numerical Semigroups*, 2009), under which the scaled set
    is the minimal generating set, with no repeats.  Let a be a minimal
    generator of S1.  If lambda*a = mu*b for b in S2, gcd(lambda, mu) = 1
    makes a = k*mu with k >= 1: a = mu if k = 1, else a sum of k nonzero
    elements of S1; either way a would not be minimal, as mu is in S1 and
    not a minimal generator.  If lambda*a is a sum of the other scaled
    generators, lambda*a = lambda*x + mu*y with x a sum of S1's other minimal
    generators and y in S2; then lambda divides y = lambda*t and a = x + t*mu.
    A minimal generator is no sum of two nonzero elements, so x = 0 or
    t = 0: x = 0 leaves a = t*mu, ruled out as before, and t = 0 leaves a a
    sum of S1's other minimal generators.  For mu*b, b a minimal generator
    of S2, swap the roles, with lambda in S2.  A generating set none of whose
    elements is a sum of the others is the minimal one.
    """
    return NumericalSemigroup(spec.generators)


def gluing_pf(spec: GluingSpec) -> list[int]:
    """PF of the gluing: {lambda*f + mu*g + lambda*mu} over PF(S1) x PF(S2).

    With PF(N) = {-1} this also covers gluings with the full semigroup N.
    """
    lm = spec.lam * spec.mu
    return sorted(
        {
            spec.lam * f + spec.mu * g + lm
            for f in spec.s1.pf_set()
            for g in spec.s2.pf_set()
        }
    )


def gluing_frobenius_closed(spec: GluingSpec) -> int:
    return spec.lam * spec.s1.frobenius + spec.mu * spec.s2.frobenius + spec.lam * spec.mu


def gluing_maximal_sufficient(spec: GluingSpec) -> bool:
    """Sufficient condition for the gluing to have maximal reduced type.

    Requires both factors to have maximal reduced type.  True guarantees the
    glued semigroup is maximal; False allows no conclusion (the gluing may
    still be maximal).
    """
    if not (
        spec.s1.pf_profile().extremality.is_maximal
        and spec.s2.pf_profile().extremality.is_maximal
    ):
        raise NotApplicableError("both factors must have maximal reduced type")
    return spec.lam + spec.mu > max(
        spec.lam * spec.s1.multiplicity, spec.mu * spec.s2.multiplicity
    )


def max_coeff_representation(gens: Sequence[int], target: int) -> list[int] | None:
    """Coefficients, one per entry of gens, of a representation of target with the
    largest coefficient sum; None if target is not in <gens>.

    A forward max-sum DP with back-pointers; a cell keeps the first generator
    that strictly improves it.  The DP needs no cell past
    B = (n1 - 1)(n2 + ... + nk), n1 the least generator: a representation of
    t > B without n1 has some c_i >= n1, and trading those n1 copies of n_i
    for n_i copies of n1 lengthens it.  So every longest representation of
    t > B uses n1, its length is one more than that of t - n1, and t is in
    <gens> iff t - n1 is.  The target therefore drops by q copies of n1 to
    the largest t' <= B in its class, the DP runs to t', and n1's coefficient
    gains q.  When n1 comes first in gens, as in ``minimal_generators``, a DP
    run to the whole target keeps n1 at every cell past B, so the
    coefficients are exactly that DP's; in any order the sum is the largest.
    A DP of more than ``TABLE_LIMIT`` cells (t' >= TABLE_LIMIT) is refused
    before it is allocated, and so are empty gens or a generator below 1.
    """
    if not gens:
        raise EmptyGeneratorsError("generator list is empty")
    n1 = min(gens)
    if n1 < 1:
        raise ZeroGeneratorError(f"generators must be >= 1, got {n1}")
    q = max(0, -((target - (n1 - 1) * (sum(gens) - n1)) // -n1))
    target -= q * n1
    if target < 0:
        return None
    if target >= TABLE_LIMIT:
        raise TableLimitError(
            f"a representation table of {target + 1} cells exceeds {TABLE_LIMIT}"
        )
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
    coeffs[gens.index(n1)] = q
    x = target
    while x:
        coeffs[gens.index(back[x])] += 1
        x -= back[x]
    return coeffs


def max_coeff_sum(gens: Sequence[int], target: int) -> int:
    """Largest coefficient sum over all representations of target in <gens>, -1 if none."""
    coeffs = max_coeff_representation(gens, target)
    return -1 if coeffs is None else sum(coeffs)


def nice_extension(
    s: NumericalSemigroup, p: int, coeffs: Sequence[int]
) -> GluingSpec:
    """Gluing spec for <p*gens(S), t> where t = sum(coeffs_i * gen_i).

    Admissible iff p does not exceed the maximum coefficient sum over *all*
    representations of t (the given coeffs just pick the target), and
    gcd(p, t) = 1.  The result is the gluing of S with N via lambda=p, mu=t.
    """
    mg = s.minimal_generators
    if len(coeffs) != len(mg) or any(c < 0 for c in coeffs):
        raise InvalidParamError(
            f"coeffs must be {len(mg)} nonnegative integers, one per minimal generator"
        )
    target = sum(c * g for c, g in zip(coeffs, mg))
    if target <= 0:
        raise InvalidParamError("target element must be positive")
    if target in mg:
        raise TargetIsGeneratorError(f"{target} is a minimal generator of {s}")
    if p < 1:
        raise InvalidParamError("p must be positive")
    if math.gcd(p, target) != 1:
        raise GcdNotOneError(f"gcd(p, target) must be 1: gcd({p}, {target})")
    best = max_coeff_sum(mg, target)
    if p > best:
        raise PTooLargeError(
            f"p = {p} exceeds the maximum coefficient sum {best} "
            f"over representations of {target}"
        )
    return GluingSpec(s, naturals(), lam=p, mu=target)


def nice_extension_maximal_iff(spec: GluingSpec) -> bool:
    """Maximal reduced type passes to and from a nice extension.

    Returns whether the base semigroup is maximal; the extension must agree,
    which is asserted (the equivalence is also verified empirically on grids).
    """
    left = spec.s1.pf_profile().extremality.is_maximal
    right = glue(spec).pf_profile().extremality.is_maximal
    if left != right:
        raise AssertionError(f"maximality equivalence failed for {spec}")
    return left


# ---------------------------------------------------------------------------
# Ideals and duplication


class IdealKind(Enum):
    FULL = "S"
    STAR = "S*"
    PROPER = "proper"


class SemigroupIdeal:
    """E = gens + S inside an ambient semigroup S (so S + E is contained in E).

    E is determined by finitely many generators, each a member of S; 0 is a
    valid generator and gives E = S.  ``conductor_e`` is the least c with
    [c, oo) contained in E.
    """

    def __init__(self, ambient: NumericalSemigroup, gens: Iterable[int]):
        gs = sorted(set(int(g) for g in gens))
        if not gs:
            raise EmptyGeneratorsError("ideal generator list is empty")
        for g in gs:
            if g < 0 or not ambient.contains(g):
                raise GeneratorNotInAmbientError(f"{g} is not in {ambient}")
        self.ambient = ambient
        self.gens: tuple[int, ...] = tuple(gs)
        self.min_element: int = gs[0]
        # E meets each class mod m in an up-set from its least element there;
        # the class of m - 1 keeps the result >= 0
        m = ambient.multiplicity
        self._least: list[int] = _least_per_class(self.gens, ambient.apery_set(m))
        self.conductor_e: int = max(self._least) - m + 1

    def contains(self, x: int) -> bool:
        return x >= self._least[x % self.ambient.multiplicity]

    @cached_property
    def kind(self) -> IdealKind:
        if self.min_element == 0:
            return IdealKind.FULL
        # E is an ideal, so it holds S \\ {0} once it holds every minimal generator
        if all(self.contains(g) for g in self.ambient.minimal_generators):
            return IdealKind.STAR
        return IdealKind.PROPER

    @cached_property
    def tilde(self) -> NumericalSemigroup:
        """E together with 0, as a numerical semigroup (S itself when E is S or S*).

        Built only on request: the closed forms read ``tilde_frobenius`` and
        ``tilde_reduced_type`` off E's table instead.
        """
        if self.kind is not IdealKind.PROPER:
            return self.ambient
        # generated by its Apery set mod e = min E, with e itself in class 0
        return NumericalSemigroup(
            _least_per_class(self.gens, self.ambient.apery_set(self.min_element))
        )

    @cached_property
    def tilde_frobenius(self) -> int:
        """F(E u {0}), read off E's least elements without building the semigroup."""
        if self.kind is not IdealKind.PROPER:
            return self.ambient.frobenius
        # the largest integer outside E; it is not 0, as conductor_e = 1
        # would put S* inside E
        return self.conductor_e - 1

    @cached_property
    def tilde_reduced_type(self) -> int:
        """Reduced type of E u {0}: its gaps in (F - e, F] with e = min E, its multiplicity."""
        if self.kind is not IdealKind.PROPER:
            return self.ambient.pf_profile().reduced_type
        frob = self.tilde_frobenius
        # 1 .. e - 1 are gaps, so F >= e - 1 and the window starts at 0 or
        # above; 0 is in E u {0} but not in E, so it is left out
        lo = max(1, frob - self.min_element + 1)
        m = self.ambient.multiplicity
        # the gaps of E in class r are the x = r mod m below its least element
        # there, so only a class whose least element passes lo has gaps in the
        # window: count those in [lo, min(F, least - 1)] by floor division
        return sum(
            (min(frob, least - 1) - r) // m - (lo - 1 - r) // m
            for r, least in enumerate(self._least)
            if least > lo
        )

    def ambient_outside_tilde(self) -> list[int]:
        """The finite set S \\ (E u {0}).

        In each class r mod m, S runs up from Ap(S, m)[r] and E from its
        least element there, in steps of m; S \\ E is the stretch between.
        """
        m = self.ambient.multiplicity
        apery = self.ambient.apery_set(m)
        return sorted(x for r, w in enumerate(apery) for x in range(w, self._least[r], m) if x)

    def __repr__(self) -> str:
        return f"SemigroupIdeal({self.ambient}, gens={list(self.gens)})"


def _least_per_class(gens: Sequence[int], apery: Sequence[int]) -> list[int]:
    """Least element of gens + S in each residue class mod n, from Ap(S, n)."""
    n = len(apery)
    return [min(g + apery[(r - g) % n] for g in gens) for r in range(n)]


def ideal_full(s: NumericalSemigroup) -> SemigroupIdeal:
    """E = S (generated by 0)."""
    return SemigroupIdeal(s, [0])


def ideal_star(s: NumericalSemigroup) -> SemigroupIdeal:
    """E = S \\ {0} (generated by the minimal generators)."""
    return SemigroupIdeal(s, s.minimal_generators)


class DuplicationSpec:
    """Validated duplication data: ideal E of S and an odd d in S.  The closed-form PF
    is computed once per spec, when first asked for."""

    def __init__(self, s: NumericalSemigroup, e: SemigroupIdeal, d: int):
        if e.ambient != s:
            raise NotAnIdealError(f"{e} is not an ideal of {s}")
        _check_d(s, d)
        self.s = s
        self.e = e
        self.d = d
        self.e_kind: IdealKind = e.kind

    @cached_property
    def _pf(self) -> tuple[int, ...]:
        # a refusal raises out of cached_property, which then keeps nothing
        return tuple(_duplication_pf(self))

    def __repr__(self) -> str:
        return f"DuplicationSpec({self.s}, {self.e}, d={self.d})"


def duplicate(spec: DuplicationSpec) -> NumericalSemigroup:
    """The numerical semigroup 2*S u (2*E + d), given by its minimal generators.

    It is generated by 2*mingens(S) and 2e + d for each generator e of E
    (D'Anna & Strazzanti 2013): 2(e + s) + d = (2e + d) + 2s, and two odd
    elements sum into 2*S because d is in S.  No closed Frobenius formula is
    assumed, so the construction stays valid where a formula's hypotheses fail.
    """
    s, e, d = spec.s, spec.e, spec.d
    gens = sorted({2 * g for g in s.minimal_generators} | {2 * g + d for g in e.gens})

    def member(x: int) -> bool:
        return s.contains(x // 2) if x % 2 == 0 else e.contains((x - d) // 2)

    # minimal before the one build, so that generators == minimal_generators:
    # n is a sum of two nonzero members iff n - g is a member for a smaller g
    return NumericalSemigroup(
        n for i, n in enumerate(gens) if not any(member(n - g) for g in gens[:i])
    )


def _require_proper_ambient_for_star(spec: DuplicationSpec) -> None:
    # the S* description breaks down when S is all of N (it would claim
    # 2*(-1) = -2 as a pseudo-Frobenius number); the construction itself
    # is still fine there, so only the closed forms refuse
    if spec.e_kind is IdealKind.STAR and spec.s.frobenius < 0:
        raise InvalidParamError(
            "the S* closed form presumes a proper ambient semigroup"
        )


def duplication_pf(spec: DuplicationSpec) -> list[int]:
    """Closed-form PF of the duplication, split by the kind of E.

    E = S gives {2f+d : f in PF(S)}; E = S* gives {d} u {2f} u {2f+d} over
    PF(S); otherwise PF is D1 u D2 with D1 = {2f : f in PF(S) n PF(E~)} and
    D2 = {2f+d : f in PF(E~), f+s in E for every s in S \\ E~} (the D2
    condition only needs checking for s <= cond(E) - f; beyond that it is
    automatic).  ``spec`` computes the set once; each call returns a new list.
    """
    return list(spec._pf)


def _duplication_pf(spec: DuplicationSpec) -> list[int]:
    """``duplication_pf``, computed: ``DuplicationSpec._pf`` calls it once per spec."""
    _require_proper_ambient_for_star(spec)
    pf_s = spec.s.pf_set()
    d = spec.d
    if spec.e_kind is IdealKind.FULL:
        return sorted(2 * f + d for f in pf_s)
    if spec.e_kind is IdealKind.STAR:
        return sorted({d} | {2 * f for f in pf_s} | {2 * f + d for f in pf_s})
    # E~ is never built: both sets are read off E's least element in each
    # class mod m.  D1: as E = gens + S and E + S lies in E, f is in PF(E~)
    # iff f >= 1, f is not in E and f + gens lies in E; a PF(S) element lies
    # outside S, so outside E, and is >= 1 unless S = N, where -1 fails.
    # D2: as S* = E u (S \ E~), its f are the f not in E with f + S* in E
    # (f < 0 would put f + m in (0, m)), i.e. with f + g in E for every
    # minimal generator g.  f + m in E leaves f = least[r] - m in class r,
    # and the rest is the PF test on Ap(S, m), run on E's table.
    e = spec.e
    least, m = e._least, spec.s.multiplicity
    delta1 = {2 * f for f in pf_s if all(e.contains(f + g) for g in e.gens)}
    classes = _maximal_classes(least, spec.s.minimal_generators[1:])
    delta2 = {2 * (least[r] - m) + d for r in classes}
    return sorted(delta1 | delta2)


def duplication_type_closed(spec: DuplicationSpec) -> int:
    """Type of the duplication: |D1 u D2|, 2*type(S)+1, or type(S) by kind."""
    _require_proper_ambient_for_star(spec)
    if spec.e_kind is IdealKind.FULL:
        return len(spec.s.pf_set())
    if spec.e_kind is IdealKind.STAR:
        return 2 * len(spec.s.pf_set()) + 1
    return len(spec._pf)


class Verdict(Enum):
    """Outcome of a published criterion; one-directional clauses never claim 'False'."""

    TRUE = "True"
    FALSE = "False"
    SUFFICIENT_ONLY_TRUE = "SufficientOnly-True"
    NO_CONCLUSION = "NoConclusion"


class MinClassification(NamedTuple):
    clause: str
    verdict: Verdict


def duplication_min_classifier(spec: DuplicationSpec) -> MinClassification:
    """Minimal-reduced-type case tree for the duplication.

    Clause selection follows the kind of E, Gorenstein-ness of S, d vs 2F(S),
    max PF'(dup) vs 2F(S), and F(S) vs F(E~).  Iff clauses yield True/False;
    if-only clauses yield SufficientOnly-True or NoConclusion.
    """
    _require_proper_ambient_for_star(spec)
    s, d = spec.s, spec.d
    frob, mult = s.frobenius, s.multiplicity
    prof = s.pf_profile()

    if spec.e_kind is IdealKind.FULL:
        if prof.extremality.is_minimal:
            return MinClassification("i", Verdict.SUFFICIENT_ONLY_TRUE)
        return MinClassification("i", Verdict.NO_CONCLUSION)

    if spec.e_kind is IdealKind.STAR:
        if prof.cm_type == 1:
            if d < 2 * frob:
                ok = 2 * mult < d
                return MinClassification("ii.a.1", Verdict.TRUE if ok else Verdict.FALSE)
            # d = 2F(S) cannot happen: d is odd
            ok = mult < frob + 1
            return MinClassification("ii.a.2", Verdict.TRUE if ok else Verdict.FALSE)
        pf_dup = spec._pf  # size 2*type+1 >= 5 here
        if pf_dup[-2] != 2 * frob:
            if prof.extremality.is_minimal:
                return MinClassification("ii.b.1", Verdict.SUFFICIENT_ONLY_TRUE)
            return MinClassification("ii.b.1", Verdict.NO_CONCLUSION)
        ok = d > 2 * mult
        return MinClassification("ii.b.2", Verdict.TRUE if ok else Verdict.FALSE)

    tilde_minimal = spec.e.tilde_reduced_type == 1
    if frob != spec.e.tilde_frobenius:
        if tilde_minimal:
            return MinClassification("iii.a", Verdict.SUFFICIENT_ONLY_TRUE)
        return MinClassification("iii.a", Verdict.NO_CONCLUSION)
    pf_dup = spec._pf
    max_pf_prime = pf_dup[-2] if len(pf_dup) >= 2 else None
    if max_pf_prime != 2 * frob:
        if tilde_minimal:
            return MinClassification("iii.b.1", Verdict.SUFFICIENT_ONLY_TRUE)
        return MinClassification("iii.b.1", Verdict.NO_CONCLUSION)
    ok = d > 2 * mult
    return MinClassification("iii.b.2", Verdict.TRUE if ok else Verdict.FALSE)


def _check_d(s: NumericalSemigroup, d: int) -> None:
    if d % 2 == 0:
        raise DNotOddError(f"d = {d} is even")
    if d < 0 or not s.contains(d):
        raise DNotInSError(f"d = {d} is not in {s}")


def duplication_max_self(s: NumericalSemigroup, d: int) -> bool:
    """Maximal reduced type of the self-duplication 2*S u (2*S + d) (an iff).

    For d > 2m(S) it is maximality of S itself; for d < 2m(S) it is
    (d-1)/2 >= F(S) - min PF(S).  d = 2m(S) cannot occur (d is odd).
    """
    _check_d(s, d)
    prof = s.pf_profile()
    if d > 2 * s.multiplicity:
        return prof.extremality.is_maximal
    return (d - 1) // 2 >= s.frobenius - prof.pf[0]


def duplication_max_star(s: NumericalSemigroup, d: int) -> bool:
    """Maximal reduced type of 2*S u (2*(S \\ {0}) + d) (an iff).

    For d < 2*min PF(S) it is m(S) > F(S); otherwise it is
    m(S) - F(S) >= (d+1)/2 - min PF(S).
    """
    _check_d(s, d)
    min_pf = s.pf_set()[0]
    if d < 2 * min_pf:
        return s.multiplicity > s.frobenius
    return s.multiplicity - s.frobenius >= (d + 1) // 2 - min_pf
