"""Parametric semigroup families with closed-form pseudo-Frobenius sets.

Five families: generalized arithmetic sequences (GAS), the Backelin and
Bresinsky four-generator curve families, and the two fixed-type witness
families (consecutive-interval generators, staircase generators).  Each is a
generators function of its integer parameters plus its closed forms; GAS alone
keeps a parameter object, ``GasParams``, which checks its four integers, and
its closed forms read n0, s, d, p off any 4-tuple.  Each closed form is meant
to be cross-checked against the brute-force oracle; none of them is trusted
blindly.  ``FAMILIES`` at the bottom maps each family's name to its integer
parameters, its generators, its closed-form PF set and its domain; the CLI
and the verify checks read the families through it, and ``Family.walk`` is
the one enumeration of the tuples they visit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (
    GcdNotOneError,
    InvalidParamError,
    TABLE_LIMIT,
    NotMinimalSequenceError,
    NumericalSemigroup,
    SemigroupError,
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


def _gas_refusal(n0: int, s: int, d: int, p: int) -> SemigroupError | None:
    """The error ``GasParams(n0, s, d, p)`` raises, or None if it accepts the tuple;
    the tuple is tested without building the object."""
    if min(n0, s, d) < 1 or p < 2:
        rule = "n0, s, d must be >= 1" if min(n0, s, d) < 1 else "p must be >= 2"
        return InvalidParamError(f"{rule}: GasParams(n0={n0!r}, s={s!r}, d={d!r}, p={p!r})")
    if math.gcd(n0, d) != 1:
        return GcdNotOneError(f"gcd(n0, d) must be 1: gcd({n0}, {d})")
    return None


class GasParams(_GasFields):
    """Generalized arithmetic sequence n0, s*n0+d, ..., s*n0+p*d.

    Requires n0, s, d >= 1, p >= 2, and gcd(n0, d) = 1 (otherwise the
    sequence does not generate a numerical semigroup).  Whether the sequence
    is a *minimal* generating set is ``is_minimal_sequence``.  A named tuple
    of (n0, s, d, p); ``_replace`` runs the same checks.
    """

    __slots__ = ()

    def __new__(cls, n0: int, s: int, d: int, p: int) -> GasParams:
        refusal = _gas_refusal(n0, s, d, p)
        if refusal is not None:
            raise refusal
        return super().__new__(cls, n0, s, d, p)

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> GasParams:
        return cls(*iterable)

    @property
    def b(self) -> int:
        return self.n0 % self.p

    @property
    def sequence(self) -> tuple[int, ...]:
        n0, s, d, p = self
        return (n0, *range(s * n0 + d, s * n0 + p * d + 1, d))

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


def gas_pf_closed(params: Sequence[int], variant: str = CORRECTED) -> list[int]:
    """Closed-form PF set of a GAS semigroup, by the residue b = n0 mod p.

    With a = n0 div p and n_p = s*n0 + p*d, the set is
    {a*n_p - n0 - (p-i)d : 1 <= i <= p-1} for b = 0, and the same with i up
    to p for b = 1.  For b >= 2 the stated form is {a*n_p + i*d : 1 <= i <= b-1},
    but the top Apery-set tier sits one s*n0 block higher, which shifts the
    set by (s-1)*n0; the two variants therefore differ exactly when s >= 2 and
    b >= 2, and the verify harness adjudicates them against the oracle.
    ``params`` is any (n0, s, d, p), a ``GasParams`` or a plain tuple."""
    if variant not in GAS_PF_VARIANTS:
        raise InvalidParamError(f"unknown variant {variant!r}")
    n0, s, d, p = params
    a, b = divmod(n0, p)
    top = a * (s * n0 + p * d)
    if b < 2:
        return [top - n0 - (p - i) * d for i in range(1, p + b)]
    shift = 0 if variant == AS_STATED else (s - 1) * n0
    return [top + shift + i * d for i in range(1, b)]


def gas_frobenius_closed(params: Sequence[int], variant: str = CORRECTED) -> int:
    """max of the closed-form PF set (cheap size estimate for grids); ``params`` is any
    (n0, s, d, p)."""
    return gas_pf_closed(params, variant)[-1]


def gas_type_closed(params: Sequence[int]) -> int:
    """Closed-form type: p-1, p, or b-1 by the case of b."""
    n0, _, _, p = params
    b = n0 % p
    return p - 1 + b if b < 2 else b - 1


def gas_maximal_predicate(params: Sequence[int]) -> bool:
    """Maximal reduced type criterion, exact integer form of (..) <= (n0-1)/d."""
    n0, _, d, p = params
    b = n0 % p
    return ((p - 2 + b) if b < 2 else (b - 2)) * d <= n0 - 1


def gas_minimal_predicate(params: Sequence[int], mode: str) -> bool:
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
    n0, _, d, _ = params
    return n0 < d - 1 if mode == AS_STATED else n0 < d + 1


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
    values outside the family.  ``last_bounds(*head)`` spells the domain: for
    the values before the last parameter it gives (lo, hi), and the tuple is
    in the domain iff lo <= last < hi (an empty interval refuses the head).
    ``walk``, the one enumeration of a sweep's or a verify grid's tuples,
    visits the domain's tuples only.
    """

    params: tuple[str, ...]
    generators: Callable[..., Sequence[int]]
    pf_closed: Callable[..., list[int]]
    last_bounds: Callable[..., tuple[float, float]] = lambda *head: (-math.inf, math.inf)

    def walk(
        self, ranges: Sequence[range], head: tuple[int, ...] = ()
    ) -> Iterator[tuple[int, ...]]:
        """Every tuple of ``ranges`` that starts with ``head`` and lies in the domain, in
        lexicographic order, one at a time.

        ``itertools.product`` would copy each range into memory first.  The
        last range is cut to ``last_bounds(*head)`` once per head, so no tuple
        is tested on its own; ranges ascend, since a range step must be positive.
        """
        if len(head) + 1 < len(ranges):
            for value in ranges[len(head)]:
                yield from self.walk(ranges, head + (value,))
            return
        last = ranges[-1]
        lo, hi = self.last_bounds(*head)
        for value in last[bisect_left(last, lo) : bisect_left(last, hi)]:
            yield head + (value,)


# The entries call the module's functions through lambdas, which look each
# name up at call time, so a wrapper set on this module sees every call.
FAMILIES: dict[str, Family] = {
    "gas": Family(
        ("n0", "s", "d", "p"),
        lambda n0, s, d, p: gas_generators(GasParams(n0, s, d, p)),
        lambda n0, s, d, p: gas_pf_closed(GasParams(n0, s, d, p)),
        # GasParams' p >= 2 rule and p < n0 (is_minimal_sequence) where it accepts (n0, s, d)
        last_bounds=lambda n0, s, d: (2, n0) if _gas_refusal(n0, s, d, 2) is None else (0, 0),
    ),
    "bresinsky": Family(
        ("h",), lambda h: bresinsky_generators(h), lambda h: bresinsky_pf_closed(h)
    ),
    "backelin": Family(
        ("n", "r"),
        lambda n, r: backelin_generators(n, r),
        lambda n, r: backelin_pf_closed(n, r),
        last_bounds=lambda n: (3 * n + 2, math.inf),
    ),
    "uniform-type": Family(
        ("r",), lambda r: uniform_type_generators(r), lambda r: uniform_type_pf_closed(r)
    ),
    "staircase": Family(
        ("r",), lambda r: staircase_generators(r), lambda r: staircase_pf_closed(r)
    ),
}
