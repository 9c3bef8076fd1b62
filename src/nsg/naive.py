"""Brute-force recomputation of every invariant, straight from the definitions.

Nothing here touches the Apery-set machinery.  A membership table is one
Python int, bit x set iff x is in S, and every step is a whole-int shift or
mask, with no Python loop per cell.  One closure ORs each generator's shifts
into a window that doubles until its highest gap F has F + m inside it; one
scan of that window finds the multiplicity, F, the atoms S* \\ (S* + S*), the
pseudo-Frobenius numbers (quantified over the atoms) and the reduced type.
A duplication's table is spread out of the closure of S and goes through the
same scan.  ``naive_closure`` is a list view of the closure, which the slow
all-members PF reference reads.  This module is the independent side of the
verify harness (``nsg.oracle``): it imports the standard library and, from the
core, the error classes only.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple, Sequence

from .core import EmptyGeneratorsError, GcdNotOneError, SemigroupError, ZeroGeneratorError


class GridTooLargeError(SemigroupError):
    pass


# A closure window past this plus its multiplicity is refused, and so is any
# verify grid instance whose estimated Frobenius number exceeds it.
FROBENIUS_CAP = 10**7


def _validate(gens: Sequence[int]) -> list[int]:
    gs = sorted(set(int(g) for g in gens))
    if not gs:
        raise EmptyGeneratorsError("generator list is empty")
    if gs[0] < 1:
        raise ZeroGeneratorError(f"generators must be >= 1, got {gs[0]}")
    if math.gcd(*gs) != 1:
        raise GcdNotOneError(f"gcd is not 1: gcd{tuple(gs)}")
    return gs


def _closure_bits(gens: Sequence[int], bound: int | None = None) -> int:
    """S as one int: bit x is set iff x is a nonnegative combination of gens.

    Each generator g is closed by doubling: the window ORs in its own shifts
    by g, 2g, 4g, ... that still land inside it.  With ``bound`` the window is
    [0, bound].  Without one the window doubles until its highest gap F has
    F + m inside it, and the result is cut to [0, F + m] ([0, 1] for N).  A
    window that would pass ``FROBENIUS_CAP + m`` cells raises
    GridTooLargeError instead.
    """
    gs = _validate(gens)
    m = gs[0]
    limit = FROBENIUS_CAP + m
    # an unbounded closure reaches the first generator that brings the gcd to
    # 1 (it is at most F + m), so a huge one is refused before any work
    reach = bound if bound is not None else next(
        g for g, d in zip(gs, accumulate(gs, math.gcd)) if d == 1
    )
    if reach > limit:
        raise GridTooLargeError(f"closure of {gs} needs more than {limit} cells")
    top = max(bound, 0) if bound is not None else min(2 * reach, limit)
    while True:
        mask = (1 << (top + 1)) - 1
        bits = 1
        for g in gs:
            k = g
            while k <= top:
                bits |= (bits << k) & mask
                k <<= 1
        if bound is not None:
            return bits
        frob = (bits ^ mask).bit_length() - 1
        if frob + m <= top:
            return bits & ((2 << max(frob + m, 1)) - 1)
        if top == limit:
            raise GridTooLargeError(f"closure of {gs} needs more than {limit} cells")
        top = min(2 * top, limit)


def naive_closure(gens: Sequence[int], bound: int | None = None) -> list[bool]:
    """table[x] iff x is a nonnegative combination of gens: a list view of the closure.

    With ``bound`` the table covers [0, bound].  Without one it ends at F + m
    (at 1 for N).  A table that would pass ``FROBENIUS_CAP + m`` cells raises
    GridTooLargeError instead.
    """
    bits = _closure_bits(gens, bound)
    cells = bits.bit_length() if bound is None else max(bound, 0) + 1
    return list(map("1".__eq__, bin(bits)[:1:-1].ljust(cells, "0")))


class NaiveStats(NamedTuple):
    """Definitional F, PF and reduced type, read off one membership window.

    ``pf`` is a list in what the ``naive_*`` calls return and a tuple in the
    verify memo's answers, which are therefore immutable.
    """

    pf: Sequence[int]
    reduced_type: int
    frobenius: int

    @property
    def cm_type(self) -> int:
        return len(self.pf)

    @property
    def is_maximal(self) -> bool:
        return self.reduced_type == self.cm_type

    @property
    def is_minimal(self) -> bool:
        return self.reduced_type == 1

    @property
    def extremality_label(self) -> str:
        if self.is_maximal and self.is_minimal:
            return "both"
        if self.is_maximal:
            return "maximal"
        if self.is_minimal:
            return "minimal"
        return "neither"


def _stats_from_bits(bits: int) -> NaiveStats:
    """The one definitional scan: F, PF and reduced type of a numerical semigroup.

    ``bits`` holds S on [0, n), n = bits.bit_length(), and must reach F + m.
    The atoms S* \\ (S* + S*) are peeled off lowest first; each one clears its
    own translates a + S* from what is left.  PF is every gap f in [0, F] with
    f + a in S for every atom a; that is exact because every element of S* is
    a sum of atoms.  The reduced type counts [F - m + 1, F] \\ S.
    """
    n = bits.bit_length()
    gaps = bits ^ ((1 << n) - 1)
    frob = gaps.bit_length() - 1
    if frob < 0:
        return NaiveStats(pf=[-1], reduced_type=1, frobenius=-1)
    star = bits ^ 1
    m = (star & -star).bit_length() - 1
    if frob + m >= n:
        raise AssertionError("window too short to locate the Frobenius number")
    ext = bits | (-1 << (frob + 1))  # every x > F is in S
    cand = gaps
    rem = star
    while rem:
        low = rem & -rem
        a = low.bit_length() - 1
        cand &= ext >> a
        rem &= ~((star << a) | low)
    pf = []
    while cand:
        low = cand & -cand
        pf.append(low.bit_length() - 1)
        cand ^= low
    reduced = (gaps >> (frob - m + 1)).bit_count()
    return NaiveStats(pf=pf, reduced_type=reduced, frobenius=frob)


def naive_stats(gens: Sequence[int]) -> NaiveStats:
    """F, PF and reduced type of <gens>: one closure, one scan."""
    return _stats_from_bits(_closure_bits(gens))


def naive_frobenius(gens: Sequence[int]) -> int:
    """Largest non-member of <gens>."""
    return naive_stats(gens).frobenius


def naive_pf(gens: Sequence[int]) -> list[int]:
    """PF by definition: non-members f in [-1, F] with f + a a member for every atom a."""
    return naive_stats(gens).pf


def naive_reduced_type(gens: Sequence[int]) -> int:
    """|[F - m + 1, F] \\ S|, counted directly off the closure."""
    return naive_stats(gens).reduced_type


def naive_pf_full(gens: Sequence[int]) -> list[int]:
    """PF with the quantifier over *all* nonzero members, not just the atoms.

    The reference that the atom shortcut of the one scan is tested against.
    """
    return _pf_over_all_members(naive_closure(gens))


def _pf_over_all_members(table: list[bool]) -> list[int]:
    """PF of a numerical semigroup table that reaches past F, quantified over all of S*."""
    frob = max((x for x, inn in enumerate(table) if not inn), default=-1)

    def member(x: int) -> bool:
        return x > frob or x >= 0 and table[x]

    # f + s with s > F - f is automatically a member
    return [
        f
        for f in range(-1, frob + 1)
        if not member(f)
        and all(not member(s) or member(f + s) for s in range(1, frob - f + 1))
    ]


def _spread(bits: int) -> int:
    """Move bit i of ``bits`` (a nonnegative int) to bit 2i."""
    return int("0".join(bin(bits)[2:]), 2)


def naive_duplication_stats(
    s_gens: Sequence[int], e_gens: Sequence[int], d: int
) -> NaiveStats:
    """Definitional stats of 2*S u (2*E + d), assembled without the constructions module.

    ``e_gens`` are ideal generators inside S ([0] means E = S).  E is the OR
    of the shifts g + S of the one closure of S, 2*S and 2*E + d are spread
    out of S and E bit by bit, and the duplication goes through the same scan
    as ``naive_stats``.  Like the closure, a window past ``FROBENIUS_CAP``
    plus its multiplicity raises GridTooLargeError.
    """
    s_bits = _closure_bits(s_gens)
    s_cells = s_bits.bit_length()
    # the closure reaches F(S) + m(S): everything past it is in S
    s_ext = s_bits | (-1 << s_cells)
    e_ext = 0
    for g in e_gens:
        e_ext |= s_ext << g
    # least c with [c, oo) in E
    c_e = (~e_ext).bit_length()

    mult = min(2 * min(s_gens), 2 * min(e_gens) + d)
    bound = max(2 * s_cells, 2 * c_e + d) + mult
    if bound > FROBENIUS_CAP + mult:
        raise GridTooLargeError(f"duplication table needs more than {FROBENIUS_CAP + mult} cells")
    half = (1 << (bound // 2 + 1)) - 1
    dup = _spread(s_ext & half) | _spread(e_ext & half) << d
    return _stats_from_bits(dup & ((1 << (bound + 1)) - 1))
