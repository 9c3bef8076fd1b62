"""Brute-force recomputation of every invariant, straight from the definitions.

Nothing here touches the Apery-set machinery.  A membership table is one
Python int, bit x set iff x is in S, and every step is a whole-int shift or
mask, with no Python loop per cell.  One closing loop ORs each generator's
shifts into a masked window, and every closure ends at F + m.  A fresh one
runs the loop on windows that double until the highest gap F has F + m inside
them, up to one cap; a closure of S plus one generator above all of S's runs
it once more on S's closure, whose window already holds the new F + m.  One
scan of the window finds the multiplicity, F, the pseudo-Frobenius numbers
(a tuple) and the reduced type.  PF is tested against the generators the
closure was built from: f is in PF(S) iff f is a gap and f + g is in S for
every generator g, since every s in S* is g + t with g a generator and t in
S, so f + s = (f + g) + t.  A duplication 2*S u (2*E + d) is the closure of
its own generators, 2g for each generator g of S and 2e + d for each
generator e of E: the verify harness closes them itself, like any other
semigroup's, and ``naive_duplication_stats`` is the tests' reference.
``naive_closure`` (the window) and ``naive_pf`` are list views; the slow
all-members PF reference reads the first.  This module is the independent
side of the verify harness (``nsg.oracle``): it imports the standard library
and, from the core, the error classes only.
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


def _close(bits: int, gens: Sequence[int], top: int) -> int:
    """``bits`` closed inside the window [0, top] under adding each of ``gens``.

    Each generator g is closed by doubling: the window ORs in its own shifts
    by g, 2g, 4g, ... that still land inside it.  This is the one closing loop,
    for a fresh closure's windows and for a one-generator extension alike.
    """
    mask = (1 << (top + 1)) - 1
    for g in gens:
        k = g
        while k <= top:
            bits |= (bits << k) & mask
            k <<= 1
    return bits


def _cut(bits: int, top: int, m: int) -> int | None:
    """A closed window [0, top] of multiplicity m cut to [0, F + m] ([0, 1] for N);
    None when F + m lies past the window."""
    frob = (bits ^ ((1 << (top + 1)) - 1)).bit_length() - 1
    if frob + m > top:
        return None
    return bits & ((2 << max(frob + m, 1)) - 1)


def _closure_bits(gens: Sequence[int]) -> int:
    """S as one int: bit x is set iff x is a nonnegative combination of gens.

    The window doubles until its highest gap F has F + m inside it, and the
    result is cut to [0, F + m] ([0, 1] for N).  A window that would pass
    ``FROBENIUS_CAP + m`` cells raises GridTooLargeError instead.
    """
    gs = _validate(gens)
    m = gs[0]
    limit = FROBENIUS_CAP + m
    # F + m >= reach: first the generator that brings the gcd to 1 (so a huge
    # one is refused before any work), then one past each too-short window
    reach = next(g for g, d in zip(gs, accumulate(gs, math.gcd)) if d == 1)
    top = min(2 * reach, limit)
    while reach <= limit:
        bits = _cut(_close(1, gs, top), top, m)
        if bits is not None:
            return bits
        reach, top = top + 1, min(2 * top, limit)
    raise GridTooLargeError(f"closure of {gs} needs more than {limit} cells")


def _extend_closure(kept: int, gens: Sequence[int]) -> int:
    """``_closure_bits(gens)``, from ``kept``, the closure of gens[:-1].

    ``gens`` is canonical (ascending, no repeats) and gens[:-1] generates a
    numerical semigroup P; write C for <gens>.  P is inside C and both have
    the multiplicity m = gens[0], so F(C) <= F(P), and P's window [0, F(P) + m]
    already reaches F(C) + m.  Closing P's exact window under the last
    generator gives C on that window, and the cut at F(C) + m makes it the
    fresh closure bit for bit.  No refusal can apply: C needs no window
    larger than P's.
    """
    top = kept.bit_length() - 1
    return _cut(_close(kept, gens[-1:], top), top, gens[0])


def naive_closure(gens: Sequence[int]) -> list[bool]:
    """table[x] iff x is a nonnegative combination of gens: a list view of the closure.

    The table ends at F + m (at 1 for N), so its last cell is a member.  A
    table that would pass ``FROBENIUS_CAP + m`` cells raises GridTooLargeError
    instead.
    """
    return list(map("1".__eq__, bin(_closure_bits(gens))[:1:-1]))


class NaiveStats(NamedTuple):
    """Definitional F, PF and reduced type, read off one membership window.

    ``pf`` is a tuple on every path, so an answer is immutable and the verify
    memo hands out the one the engine returned.
    """

    pf: tuple[int, ...]
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


def _stats_from_bits(bits: int, gens: Sequence[int]) -> NaiveStats:
    """The one definitional scan: F, PF and reduced type of a numerical semigroup.

    ``bits`` holds S on [0, n), n = bits.bit_length(), and must reach F + m;
    ``gens`` generate S, in any order and with repeats allowed.  PF is every
    gap f in [0, F] with f + g in S for every generator g; that is exact
    because every element of S* is a sum of generators.  The reduced type
    counts [F - m + 1, F] \\ S.
    """
    n = bits.bit_length()
    gaps = bits ^ ((1 << n) - 1)
    frob = gaps.bit_length() - 1
    if frob < 0:
        return NaiveStats(pf=(-1,), reduced_type=1, frobenius=-1)
    star = bits ^ 1
    m = (star & -star).bit_length() - 1
    if frob + m >= n:
        raise AssertionError("window too short to locate the Frobenius number")
    ext = bits | (-1 << (frob + 1))  # every x > F is in S
    cand = gaps
    for g in gens:
        cand &= ext >> g
    pf = []
    while cand:
        low = cand & -cand
        pf.append(low.bit_length() - 1)
        cand ^= low
    reduced = (gaps >> (frob - m + 1)).bit_count()
    return NaiveStats(pf=tuple(pf), reduced_type=reduced, frobenius=frob)


def naive_stats(gens: Sequence[int]) -> NaiveStats:
    """F, PF and reduced type of <gens>: one closure, one scan."""
    return _stats_from_bits(_closure_bits(gens), gens)


def naive_frobenius(gens: Sequence[int]) -> int:
    """Largest non-member of <gens>."""
    return naive_stats(gens).frobenius


def naive_pf(gens: Sequence[int]) -> list[int]:
    """PF by definition: non-members f in [-1, F] with f + g a member for every generator g."""
    return list(naive_stats(gens).pf)


def naive_reduced_type(gens: Sequence[int]) -> int:
    """|[F - m + 1, F] \\ S|, counted directly off the closure."""
    return naive_stats(gens).reduced_type


def naive_pf_full(gens: Sequence[int]) -> list[int]:
    """PF with the quantifier over *all* nonzero members, not just the generators.

    The reference that the generator shortcut of the one scan is tested against.
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


def naive_duplication_stats(
    s_gens: Sequence[int], e_gens: Sequence[int], d: int
) -> NaiveStats:
    """Definitional stats of D = 2*S u (2*E + d): ``naive_stats`` of D's generators.

    ``e_gens`` generate the ideal E = e_gens + S of S = <s_gens> ([0] means
    E = S).  For E an ideal of S and d odd in S, D = <2g, 2e + d : g in s_gens,
    e in e_gens>:
    - 2(e + s) + d = (2e + d) + 2s, so every element of D is a sum of them;
    - two odd elements sum into 2*S, since E is inside S and d is in S;
    - so every sum of them stays in D, and D is the semigroup they generate.
    Other inputs get the statistics of the semigroup those generators span, and
    invalid ones are refused by the closure's own named errors.
    """
    return naive_stats([2 * g for g in s_gens] + [2 * e + d for e in e_gens])
