"""Numerical semigroups and their basic invariants.

A numerical semigroup is a cofinite additive submonoid of the nonnegative
integers, given by generators with gcd 1.  Everything here is exact integer
arithmetic read off the Apery set of the multiplicity: the member test,
Frobenius number, genus, pseudo-Frobenius numbers, type, reduced type, and
the maximal/minimal reduced-type classification.  A scan holds the members
in each window [jm, (j+1)m) as one m-bit int; window j's new bits are the
Apery elements in it.  When the scan ends on a full window, the semigroup
keeps Ap(S, m) as one int of at most 2**22 bits and reads F, the genus,
PF and the reduced type with whole-int operations, building the per-residue
table only on request.  Otherwise Dijkstra on the residues mod m finishes
the table from the last windows, and every invariant is read off the table.

``NumericalSemigroup`` is immutable after construction and safe to share
across threads; all operations are pure reads or idempotent caches.
"""

from __future__ import annotations

import heapq
import math
import operator
from enum import Enum
from functools import cached_property
from itertools import chain, compress, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

# Apery sets are rejected beyond this many residues, before anything is
# allocated.  Cost grows about linearly in the modulus: for
# <10**6, 10**6+3, 1.5*10**6+7, 1.7*10**6+11> the build takes 1.1-1.3 s and
# pf_profile 0.35-0.4 s, at a 76 MB peak RSS in a fresh interpreter (2-core x86
# host, Python 3.11.7), so the limit keeps one table within a few hundred MB.
# Sweeps in this package stay far below it.
TABLE_LIMIT = 1 << 22

# The window scan (``_scan``) holds at most this many windows of n bits, and
# at most this many bits in all, so that a large modulus whose first windows
# settle a few residues each pays for only a few windows.
_WINDOWS = 64
_SCAN_BITS = 1 << 22


class SemigroupError(ValueError):
    """Base class for invalid semigroup inputs."""


class EmptyGeneratorsError(SemigroupError):
    pass


class ZeroGeneratorError(SemigroupError):
    pass


class GcdNotOneError(SemigroupError):
    pass


class NotAMemberError(SemigroupError):
    pass


class InvalidParamError(SemigroupError):
    pass


class NotMinimalSequenceError(SemigroupError):
    """A sequence that must be a minimal generating set is not one."""


class TableLimitError(SemigroupError):
    """A table would exceed TABLE_LIMIT entries: an Apery set's residues (an oversized
    modulus) or the cells of a max-coefficient representation DP."""


class Extremality(Enum):
    """Reduced-type classification: s = type, s = 1, both (Gorenstein), or neither."""

    BOTH = "both"
    MAXIMAL_ONLY = "maximal"
    MINIMAL_ONLY = "minimal"
    NEITHER = "neither"

    @property
    def is_maximal(self) -> bool:
        return self in (Extremality.BOTH, Extremality.MAXIMAL_ONLY)

    @property
    def is_minimal(self) -> bool:
        return self in (Extremality.BOTH, Extremality.MINIMAL_ONLY)


class PFProfile(NamedTuple):
    """Pseudo-Frobenius data of one semigroup.

    ``pf`` is sorted ascending, so ``pf[-1]`` is the Frobenius number;
    ``pf_prime`` is ``pf`` without its maximum.  ``cm_type = len(pf)`` and
    ``1 <= reduced_type <= cm_type`` always hold.
    """

    pf: tuple[int, ...]
    pf_prime: tuple[int, ...]
    cm_type: int
    reduced_type: int
    extremality: Extremality


class NumericalSemigroup:
    """The numerical semigroup generated by ``gens``.

    Construction validates the input (nonempty, positive, gcd 1) and scans
    the windows of Ap(S, m), m the multiplicity.  A scan that settles every
    residue leaves ``_bits``, Ap(S, m) as one int (bit w for each Apery
    element w); ``_apery``, the table whose entry r is the least member
    congruent to r mod m, is then built from it on first use.  A scan that
    hands over leaves ``_bits`` None and the table finished by Dijkstra.
    """

    def __init__(self, gens: Iterable[int]):
        supplied = tuple(int(g) for g in gens)
        if not supplied:
            raise EmptyGeneratorsError("generator list is empty")
        if any(g < 1 for g in supplied):
            raise ZeroGeneratorError(f"generators must be >= 1, got {min(supplied)}")
        unique = sorted(set(supplied))
        g = math.gcd(*unique)
        if g != 1:
            raise GcdNotOneError(f"gcd is not 1: gcd{tuple(unique)} = {g}")

        self.generators: tuple[int, ...] = supplied
        m = unique[0]
        self.multiplicity: int = m
        scan = _, news, full = _scan(unique, m)
        if not full:
            self._bits: int | None = None
            self._apery: tuple[int, ...] = tuple(_apery(unique, m, scan))
            ap = self._apery
            self.frobenius: int = max(ap) - m
            # Selmer's formula: class r holds (w - r) / m gaps below its Apery element w
            self.genus: int = (sum(ap) - m * (m - 1) // 2) // m
        else:
            self._bits = a = _join(news, m)
            self.frobenius = a.bit_length() - 1 - m
            # Selmer again: an Apery element in window j has j gaps below it in its class
            self.genus = sum(j * w.bit_count() for j, w in enumerate(news))
        # m is minimal, and so is any n < 2m: a split into two nonzero members
        # would sum to at least 2m.  Any other n with n != Ap[n mod m] is
        # m + (n - m), two nonzero members.  An Apery element n is minimal iff
        # n - g is a member for no smaller minimal generator g (a smaller
        # non-minimal one would split into a minimal g and a member, so it adds
        # no case).  Only a generator of 2m or more reads the table, so on the
        # bit route an input without one never builds it.
        mins = [m]
        for n in unique[1:]:
            if n < 2 * m or (n == self._apery[n % m] and not any(self.contains(n - g) for g in mins)):
                mins.append(n)
        self.minimal_generators: tuple[int, ...] = tuple(mins)

    @cached_property
    def _apery(self) -> tuple[int, ...]:
        # reached on the bit route only: the table route stores the table in __init__
        m = self.multiplicity
        table = [0] * m
        for w in _ones(self._bits):
            table[w % m] = w
        return tuple(table)

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    def contains(self, x: int) -> bool:
        """True iff ``x`` is in the semigroup (O(1) once the table exists; any integer accepted)."""
        return x >= 0 and x >= self._apery[x % self.multiplicity]

    __contains__ = contains

    def apery_set(self, n: int) -> list[int]:
        """Least member in each residue class mod ``n``, indexed by residue.

        ``n`` must be a nonzero member.  Entry 0 is 0, and
        ``max(apery_set(n)) - n`` equals the Frobenius number.
        """
        if n <= 0 or not self.contains(n):
            raise NotAMemberError(f"{n} is not a nonzero element of {self}")
        if n == self.multiplicity:
            return list(self._apery)
        return _apery(self.minimal_generators, n)

    @cached_property
    def _pf(self) -> tuple[int, ...]:
        # w - m is pseudo-Frobenius iff w is maximal in Ap(S, m) under the
        # semigroup order: for no minimal g > m is w + g an Apery element.
        # On the bit route that is every w at once: A & ~OR_g (A >> g).
        # For S = N there is no g > m and PF is the conventional {-1}.
        a, m = self._bits, self.multiplicity
        above = self.minimal_generators[1:]
        if not above:
            return (-1,)
        if a is None:
            ap = self._apery
            return tuple(sorted(ap[r] - m for r in _maximal_classes(ap, above)))
        top = 0
        for g in above:
            top |= a >> g
        return tuple(w - m for w in _ones(a & ~top))

    def pf_set(self) -> list[int]:
        """Pseudo-Frobenius numbers, ascending: maximal Apery elements minus the multiplicity."""
        return list(self._pf)

    def pf_profile(self) -> PFProfile:
        """PF set, type, reduced type, and extremality classification.

        The reduced type is ``s = |[F - m + 1, F] \\ S| = #{w in Ap(S, m) : w > F}``:
        the window meets each class mod m once, and its element there is a
        gap iff the class's Apery element lies above F.  The extremality
        verdict is derived from the min-PF / max-PF' threshold inequalities
        and cross-checked against that count (the two computations are
        equivalent and must agree).
        """
        pf = self._pf
        cm_type = len(pf)
        frob, m, a = self.frobenius, self.multiplicity, self._bits
        low = frob - m + 1
        if a is None:
            reduced = sum(map(frob.__lt__, self._apery))
        else:
            reduced = (a >> (frob + 1)).bit_count()
        maximal = pf[0] >= low
        minimal = cm_type == 1 or pf[-2] < low
        if maximal != (reduced == cm_type) or minimal != (reduced == 1):
            raise AssertionError(
                f"extremality paths disagree for {self}: "
                f"reduced={reduced} type={cm_type} pf={pf}"
            )
        if maximal and minimal:
            label = Extremality.BOTH
        elif maximal:
            label = Extremality.MAXIMAL_ONLY
        elif minimal:
            label = Extremality.MINIMAL_ONLY
        else:
            label = Extremality.NEITHER
        return PFProfile(
            pf=pf,
            pf_prime=pf[:-1],
            cm_type=cm_type,
            reduced_type=reduced,
            extremality=label,
        )

    def is_symmetric(self) -> bool:
        """True iff F - x is a member for every gap x; equivalent to type 1."""
        return len(self._pf) == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.minimal_generators == other.minimal_generators

    def __hash__(self) -> int:
        return hash(self.minimal_generators)

    def __repr__(self) -> str:
        return f"NumericalSemigroup<{', '.join(map(str, self.minimal_generators))}>"


def _scan(gens: Iterable[int], n: int) -> tuple[list[int], list[int], bool]:
    """The window scan of Ap(<gens>, n): the steps, each window's new members,
    and whether the last window holds every residue.

    A step is the least generator in a nonzero residue class mod n, so there
    are at most n - 1: any larger g' in the class is g + kn, a sum of members
    (n is one), and adds no member as a shift or as an edge.  The scan runs only
    when every step exceeds n, as on the constructor's call with n = m;
    otherwise it returns no windows.  Window j holds the members in
    [jn, (j+1)n) as an n-bit int, bit i for jn + i.  A member x = jn + i > 0
    is x - n or x - g for a member x - g and a step g = qn + t (q >= 1,
    0 < t < n), and x - g lies in window j - q if i >= t, in window j - q - 1
    if i < t.  So window j is window j - 1 ORed with two shifts of earlier
    windows per step, and its new bits, window j & ~window j - 1, are
    exactly the Apery elements in [jn, (j+1)n).

    The scan hands over once a window settles fewer than 2 residues, or once
    it holds ``_WINDOWS`` windows or ``_SCAN_BITS`` bits.  The modulus is
    checked against ``TABLE_LIMIT`` before anything is allocated.
    """
    if n > TABLE_LIMIT:
        raise TableLimitError(f"an Apery set mod {n} exceeds {TABLE_LIMIT} residues")
    least = {g % n: g for g in sorted(gens, reverse=True)}  # the least of a class comes last
    steps = sorted(g for t, g in least.items() if t)
    if not steps or min(steps) < n:
        return steps, [], False
    mask = (1 << n) - 1
    cap = min(_WINDOWS, _SCAN_BITS // n)
    # a step of cap * n or more reaches no held window
    reach = [(g // n, g % n) for g in steps if g < cap * n]
    held = [0] * cap + [1]  # window 0 is {0}; the zeros stand for windows below it
    news = [1]
    while len(held) < 2 * cap:
        hi = lo = 0
        for q, t in reach:
            hi |= held[-q] << t
            lo |= held[-q - 1] >> (n - t)
        held.append(held[-1] | hi & mask | lo)
        news.append(held[-1] ^ held[-2])
        if news[-1].bit_count() < 2:
            break
    return steps, news, held[-1] == mask


def _apery(gens: Iterable[int], n: int, scan: tuple | None = None) -> list[int]:
    """Least member of <gens> in each residue class mod ``n``, a member of <gens>.

    ``_scan`` (or its result, passed as ``scan``) settles every member below
    kn, for the k windows it held.  An unsettled Apery element is a step
    above an Apery element, and the first such step up from a settled one
    leaves from the last ceil(max step / n) windows.  So Dijkstra on the
    residues mod n with the steps as edge weights (Nijenhuis 1979) finishes
    from those elements alone, and from none when the scan settled every
    residue.  A heap entry v stands for residue v % n; gcd 1 guarantees
    every class is reached.  With a step below n only Dijkstra runs, from 0.
    """
    steps, news, full = scan or _scan(gens, n)
    dist: list = [0] + [math.inf] * (n - 1)
    heap = [0]
    if news:
        start = (len(news) if full else len(news) + -max(steps) // n) * n
        heap = []
        for v in _ones(_join(news, n)):
            dist[v % n] = v
            if v >= start:
                heap.append(v)  # ascending, so the list is already a heap
    while heap:
        w = heapq.heappop(heap)
        if w > dist[w % n]:
            continue  # stale: the class was reached more cheaply
        for g in steps:
            v = w + g
            r = v % n
            if v < dist[r]:
                dist[r] = v
                heapq.heappush(heap, v)
    return dist


def _join(news: list[int], n: int) -> int:
    """The windows' new bits as one int: window j's n bits from bit jn up."""
    a = 0
    for w in reversed(news):
        a = a << n | w
    return a


def _ones(x: int) -> Iterator[int]:
    """Positions of the set bits of ``x`` >= 0, ascending."""
    digits = bin(x)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _maximal_classes(table: Sequence[int], steps: Sequence[int]) -> list[int]:
    """Residues r mod n = len(table) with table[(r + g) % n] != table[r] + g for every g in steps.

    ``table`` holds the least element in each class mod n of a set closed
    under adding n and each step: Ap(S, m), or the least elements of an ideal
    of S.  So r survives iff table[r] - n + g is in the set for every step.
    The first step is tested on all n residues in one pass (the table shifted
    by g is read through islice, so no second table of n entries is built);
    only the residues that survive it are tested against the other steps.
    """
    n = len(table)
    if not steps:
        return list(range(n))
    g = steps[0]
    k = g % n
    shifted = chain(islice(table, k, None), islice(table, k))
    survivors = list(compress(range(n), map(operator.ne, shifted, map(g.__add__, table))))
    for g in steps[1:]:
        survivors = [r for r in survivors if table[(r + g) % n] != table[r] + g]
    return survivors


_NATURALS = NumericalSemigroup([1])


def naturals() -> NumericalSemigroup:
    """The semigroup of all nonnegative integers (Frobenius -1, PF = {-1}).

    Every call returns the same object, which is immutable like every
    ``NumericalSemigroup``, so a nice extension builds no semigroup for N.
    """
    return _NATURALS
