"""Parametric semigroup families with closed-form pseudo-Frobenius sets.

Five families: generalized arithmetic sequences (GAS), the Backelin and
Bresinsky four-generator curve families, and the two fixed-type witness
families (consecutive-interval generators, staircase generators).  Each is a
generators function of its integer parameters plus its closed forms; GAS alone
keeps a parameter object, ``GasParams``, for the a, b and n_p its closed forms
read.  Each closed form is meant to be cross-checked against the brute-force
oracle; none of them is trusted blindly.  ``FAMILIES`` at the bottom maps each
family's name to its integer parameters, its generators, its closed-form PF
set and its domain; the CLI and the verify checks read the families through
it, and ``Family.walk`` is the one enumeration of the tuples they visit.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (
    GcdNotOneError,
    InvalidParamError,
    TABLE_LIMIT,
    NotMinimalSequenceError,
    NumericalSemigroup,
    TableLimitError,
)

# Variant / mode tokens for the two statements whose published text is
# adjudicated against the oracle (see gas_pf_closed and gas_minimal_predicate).
AS_STATED = "AsStated"
AS_PROOF = "AsProof"
CORRECTED = "Corrected"

GAS_PF_VARIANTS = (AS_STATED, CORRECTED)
GAS_MINIMAL_MODES = (AS_STATED, AS_PROOF)


class _GasFields(NamedTuple):
    n0: int
    s: int
    d: int
    p: int


class GasParams(_GasFields):
    """Generalized arithmetic sequence n0, s*n0+d, ..., s*n0+p*d.

    Requires n0, s, d >= 1, p >= 2, and gcd(n0, d) = 1 (otherwise the
    sequence does not generate a numerical semigroup).  Whether the sequence
    is a *minimal* generating set is ``is_minimal_sequence``.  A named tuple
    of (n0, s, d, p); ``_replace`` runs the same checks.
    """

    __slots__ = ()

    def __new__(cls, n0: int, s: int, d: int, p: int) -> GasParams:
        self = super().__new__(cls, n0, s, d, p)
        if n0 < 1 or s < 1 or d < 1:
            raise InvalidParamError(f"n0, s, d must be >= 1: {self}")
        if p < 2:
            raise InvalidParamError(f"p must be >= 2: {self}")
        if math.gcd(n0, d) != 1:
            raise GcdNotOneError(f"gcd(n0, d) must be 1: gcd({n0}, {d})")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> GasParams:
        return cls(*iterable)

    @property
    def a(self) -> int:
        return self.n0 // self.p

    @property
    def b(self) -> int:
        return self.n0 % self.p

    @property
    def sequence(self) -> tuple[int, ...]:
        return (self.n0,) + tuple(self.s * self.n0 + i * self.d for i in range(1, self.p + 1))

    @property
    def n_p(self) -> int:
        return self.s * self.n0 + self.p * self.d

    @property
    def is_minimal_sequence(self) -> bool:
        """True iff the sequence is a minimal generating set, that is iff p < n0 (Matthews 2004).

        If p >= n0, the term s*n0 + n0*d equals (s + d)*n0, a multiple of n0.
        If p < n0, n0 is the least term, hence minimal.  Any other way of
        writing a term s*n0 + i*d as c*n0 plus t terms s*n0 + i_j*d gives
        (i - sum i_j)*d = ((t - 1)*s + c)*n0.  Apart from the term itself
        (t = 1, c = 0), the right side is positive (for t = 0 the left side
        is i*d > 0).  As gcd(n0, d) = 1, n0 divides i - sum i_j > 0, so
        i >= n0 > p, which no term has.
        """
        return self.p < self.n0


def gas_generators(params: GasParams) -> tuple[int, ...]:
    """The sequence; rejects sequences that are not minimal generating sets.

    The refusal is decided by ``params.is_minimal_sequence`` before the
    sequence is built, so a huge p costs nothing.
    """
    if not params.is_minimal_sequence:
        raise NotMinimalSequenceError(
            f"GAS with n0={params.n0}, p={params.p} is not a minimal generating set: "
            f"p >= n0 makes s*n0 + n0*d a multiple of n0"
        )
    return params.sequence


def gas_semigroup(params: GasParams) -> NumericalSemigroup:
    """Semigroup of the sequence; rejects sequences that are not minimal generating sets."""
    return NumericalSemigroup(gas_generators(params))


def gas_pf_closed(params: GasParams, variant: str = CORRECTED) -> list[int]:
    """Closed-form PF set of a GAS semigroup, by the residue b = n0 mod p.

    For b = 0 the set is {a*n_p - n0 - (p-i)d : 1 <= i <= p-1}, for b = 1 the
    same with i up to p.  For b >= 2 the stated form is {a*n_p + i*d}, but the
    top Apery-set tier sits one s*n0 block higher, which shifts the set by
    (s-1)*n0; the two variants therefore differ exactly when s >= 2 and
    b >= 2, and the verify harness adjudicates them against the oracle.
    """
    if variant not in GAS_PF_VARIANTS:
        raise InvalidParamError(f"unknown variant {variant!r}")
    a, b, d, p = params.a, params.b, params.d, params.p
    top = a * params.n_p
    if b == 0:
        return [top - params.n0 - (p - i) * d for i in range(1, p)]
    if b == 1:
        return [top - params.n0 - (p - i) * d for i in range(1, p + 1)]
    shift = 0 if variant == AS_STATED else (params.s - 1) * params.n0
    return [top + shift + i * d for i in range(1, b)]


def gas_frobenius_closed(params: GasParams, variant: str = CORRECTED) -> int:
    """max of the closed-form PF set (cheap size estimate for grids)."""
    return gas_pf_closed(params, variant)[-1]


def gas_type_closed(params: GasParams) -> int:
    """Closed-form type: p-1, p, or b-1 by the case of b."""
    b = params.b
    if b == 0:
        return params.p - 1
    if b == 1:
        return params.p
    return b - 1


def gas_maximal_predicate(params: GasParams) -> bool:
    """Maximal reduced type criterion, exact integer form of (..) <= (n0-1)/d."""
    n0, d, p, b = params.n0, params.d, params.p, params.b
    if b == 0:
        return (p - 2) * d <= n0 - 1
    if b == 1:
        return (p - 1) * d <= n0 - 1
    return (b - 2) * d <= n0 - 1


def gas_minimal_predicate(params: GasParams, mode: str) -> bool:
    """Minimal reduced type criterion; the published threshold exists in two readings.

    The statement says n0 < d-1, its derivation gives n0 < d+1; both are
    exposed and the verify harness reports which one the oracle confirms.
    When the closed-form type is 1 (b = 2, or b = 0 with p = 2) minimality is
    automatic and the threshold does not apply.
    """
    if mode not in GAS_MINIMAL_MODES:
        raise InvalidParamError(f"unknown mode {mode!r}")
    if gas_type_closed(params) == 1:
        return True
    if mode == AS_STATED:
        return params.n0 < params.d - 1
    return params.n0 < params.d + 1


def bresinsky_generators(h: int) -> tuple[int, int, int, int]:
    """(n4, n2, n1, n3), ascending, for h >= 2: n4 = 2h(2h-1) (the multiplicity),
    n2 = (2h-1)(2h+1), n1 = 2h(2h+1) and n3 = n1 + 2h-1."""
    if h < 2:
        raise InvalidParamError(f"h must be >= 2, got {h}")
    n1 = 2 * h * (2 * h + 1)
    return ((2 * h - 1) * 2 * h, (2 * h - 1) * (2 * h + 1), n1, n1 + 2 * h - 1)


def bresinsky_semigroup(h: int) -> NumericalSemigroup:
    return NumericalSemigroup(bresinsky_generators(h))


def bresinsky_pf_closed(h: int) -> list[int]:
    """Closed-form PF set, size 4h-3: an arithmetic block of step 2h-1 plus one of step 4h."""
    bresinsky_generators(h)  # bounds check
    base = (2 * h - 1) ** 3 + 4 * h * (h - 2)
    first = {base + k * (2 * h - 1) + 1 for k in range(2 * h - 2)}
    second = {base + 2 * h * (2 * k + 1) + 2 for k in range(2 * h - 1)}
    return sorted(first | second)


def bresinsky_frobenius_closed(h: int) -> int:
    return (2 * h - 1) ** 3 + 4 * h * (h - 2) + 2 * h * (4 * h - 3) + 2


def backelin_generators(n: int, r: int) -> tuple[int, int, int, int]:
    """(n1, n2, n3, n4) for n >= 2 and r >= 3n+2: base + 3, base + 6, base + 3n+4
    and base + 3n+5, where base = r(3n+2)."""
    if n < 2:
        raise InvalidParamError(f"n must be >= 2, got {n}")
    if r < 3 * n + 2:
        raise InvalidParamError(f"r must be >= 3n+2 = {3 * n + 2}, got {r}")
    base = r * (3 * n + 2)
    return (base + 3, base + 6, base + 3 * n + 4, base + 3 * n + 5)


def backelin_semigroup(n: int, r: int) -> NumericalSemigroup:
    return NumericalSemigroup(backelin_generators(n, r))


def backelin_pf_closed(n: int, r: int) -> list[int]:
    """Closed-form PF set, size 3n+2, as the union of five expression families."""
    n1, n2, n3, n4 = backelin_generators(n, r)
    pf = {(n - k) * n1 + (3 * k - 2) * n3 - n4 for k in range(2, n + 1)}
    pf |= {(r - (n + k) + 3) * n1 + (n + k - 1) * n2 - n4 for k in range(1, n + 1)}
    pf |= {(r - k + 2) * n1 + (k - 1) * n2 + n3 - n4 for k in range(1, n + 1)}
    pf.add((r - n + 1) * n1 + n * n2 + n3 - n4)
    pf.add((n - 2) * n1 + n * n2 + 2 * n3 - n4)
    pf.add((r - 2 * n + 2) * n1 + 2 * n * n2 - n4)
    return sorted(pf)


def backelin_frobenius_closed(n: int, r: int) -> int:
    n1, n2, n3, n4 = backelin_generators(n, r)
    return (r - n + 1) * n1 + n * n2 + n3 - n4


def _check_r(r: int) -> None:
    """Refuse an r outside both r-indexed families before any generator exists.

    Both have multiplicity r + 1, so an r + 1 past ``TABLE_LIMIT`` is refused
    by arithmetic, with a message that prints no sequence.
    """
    if r < 1:
        raise InvalidParamError(f"r must be >= 1, got {r}")
    if r + 1 > TABLE_LIMIT:
        raise TableLimitError(
            f"r = {r}: an Apery set mod the multiplicity r + 1 exceeds {TABLE_LIMIT} residues"
        )


def uniform_type_generators(r: int) -> range:
    """r+1, r+2, ..., 2r+1."""
    _check_r(r)
    return range(r + 1, 2 * r + 2)


def uniform_type_family(r: int) -> NumericalSemigroup:
    """<r+1, r+2, ..., 2r+1>: PF = {1..r}, type r, maximal reduced type."""
    return NumericalSemigroup(uniform_type_generators(r))


def uniform_type_pf_closed(r: int) -> list[int]:
    return list(range(1, r + 1))


def staircase_generators(r: int) -> range:
    """r+1, r+1+(r+2), ..., r+1+r(r+2): r + 1 terms of step r + 2."""
    _check_r(r)
    return range(r + 1, (r + 1) * (r + 3), r + 2)


def staircase_min_type_family(r: int) -> NumericalSemigroup:
    """<r+1, r+1+(r+2), ..., r+1+r(r+2)>: PF = {(r+2), 2(r+2), ..., r(r+2)}, minimal reduced type."""
    return NumericalSemigroup(staircase_generators(r))


def staircase_pf_closed(r: int) -> list[int]:
    return [i * (r + 2) for i in range(1, r + 1)]


# ---------------------------------------------------------------------------
# The family table


class Family(NamedTuple):
    """What the CLI and the verify checks know of one named family.

    ``generators(*values)`` and ``pf_closed(*values)`` take the integer
    parameters named by ``params``, in that order; ``generators`` refuses
    values outside the family.  ``walk``, the one enumeration of a sweep's or
    a verify grid's tuples, skips those that ``in_domain`` rejects.
    ``last_stop(*head)`` may bound the last parameter for the values before
    it: the ascending walk of the last range stops below that bound, past
    which ``in_domain`` rejects every value.
    """

    params: tuple[str, ...]
    generators: Callable[..., Sequence[int]]
    pf_closed: Callable[..., list[int]]
    in_domain: Callable[..., bool] = lambda *values: True
    last_stop: Callable[..., int | None] = lambda *head: None

    def walk(
        self, ranges: Sequence[range], head: tuple[int, ...] = ()
    ) -> Iterator[tuple[int, ...]]:
        """Every tuple of ``ranges`` that starts with ``head`` and that ``in_domain`` accepts, in
        lexicographic order, one at a time.

        ``itertools.product`` would copy each range into memory first.  The
        last range is cut below ``last_stop(*head)`` when that is a bound;
        ranges ascend, since a range step must be positive.
        """
        if len(head) + 1 < len(ranges):
            for value in ranges[len(head)]:
                yield from self.walk(ranges, head + (value,))
            return
        last, stop = ranges[-1], self.last_stop(*head)
        if stop is not None:
            last = range(last.start, min(last.stop, stop), last.step)
        for value in last:
            if self.in_domain(*head, value):
                yield head + (value,)


def _gas_in_domain(n0: int, s: int, d: int, p: int) -> bool:
    """True iff ``GasParams`` accepts the tuple and p < n0; a gcd refusal raises nothing."""
    if math.gcd(n0, d) != 1:
        return False
    try:
        return GasParams(n0, s, d, p).is_minimal_sequence
    except InvalidParamError:
        return False


# The entries call the module's functions through lambdas, which look each
# name up at call time, so a wrapper set on this module sees every call.
FAMILIES: dict[str, Family] = {
    "gas": Family(
        ("n0", "s", "d", "p"),
        lambda n0, s, d, p: gas_generators(GasParams(n0, s, d, p)),
        lambda n0, s, d, p: gas_pf_closed(GasParams(n0, s, d, p)),
        in_domain=_gas_in_domain,
        last_stop=lambda n0, s, d: n0,
    ),
    "bresinsky": Family(
        ("h",), lambda h: bresinsky_generators(h), lambda h: bresinsky_pf_closed(h)
    ),
    "backelin": Family(
        ("n", "r"),
        lambda n, r: backelin_generators(n, r),
        lambda n, r: backelin_pf_closed(n, r),
        in_domain=lambda n, r: r >= 3 * n + 2,
    ),
    "uniform-type": Family(
        ("r",), lambda r: uniform_type_generators(r), lambda r: uniform_type_pf_closed(r)
    ),
    "staircase": Family(
        ("r",), lambda r: staircase_generators(r), lambda r: staircase_pf_closed(r)
    ),
}
