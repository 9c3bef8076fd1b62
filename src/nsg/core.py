"""Numerical semigroups and their basic invariants.

A numerical semigroup is a cofinite additive submonoid of the nonnegative
integers, given by generators with gcd 1.  Everything here is exact integer
arithmetic read off the Apery set of the multiplicity: the member test,
Frobenius number, genus, pseudo-Frobenius numbers, type, reduced type, and
the maximal/minimal reduced-type classification.  The Apery set comes from
a scan that holds the members in each window [jm, (j+1)m) as one m-bit int
and settles the residues window by window; Dijkstra on the residues mod m
finishes what the scan leaves.

``NumericalSemigroup`` is immutable after construction and safe to share
across threads; all operations are pure reads.
"""

from __future__ import annotations

import heapq
import math
import operator
from enum import Enum
from functools import cached_property
from itertools import chain, compress, islice
from typing import Iterable, NamedTuple, Sequence

# Apery sets are rejected beyond this many residues, before anything is
# allocated.  Cost grows about linearly in the modulus: for
# <10**6, 10**6+3, 1.5*10**6+7, 1.7*10**6+11> the build takes 1.1-1.3 s and
# pf_profile 0.35-0.4 s, at a 76 MB peak RSS in a fresh interpreter (2-core x86
# host, Python 3.11.7), so the limit keeps one table within a few hundred MB.
# Sweeps in this package stay far below it.
TABLE_LIMIT = 1 << 22

# The window scan of ``_apery`` holds at most this many windows of n bits, and
# at most this many bits in all, so that a large modulus whose first windows
# settle a few residues each pays for only a few windows.
_WINDOWS = 64
_SCAN_BITS = 1 << 22
# Spreads a bit string over bytes, one bit a byte.
_LANES = bytes.maketrans(b"01", b"\0\1")


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
    """An Apery set would exceed TABLE_LIMIT residues (an oversized modulus)."""


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

    Construction validates the input (nonempty, positive, gcd 1) and computes
    the Apery set of the multiplicity m, the one stored table: entry r is the
    least member congruent to r mod m.  The member test, the Frobenius number,
    the genus, the minimal generators and the pseudo-Frobenius numbers are all
    read off it.
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
        self._apery: tuple[int, ...] = tuple(_apery(unique, m))
        self.multiplicity: int = m
        self.frobenius: int = max(self._apery) - m
        # Selmer's formula: class r holds (w - r) / m gaps below its Apery element w
        self.genus: int = (sum(self._apery) - m * (m - 1) // 2) // m
        # m is minimal, and so is any n < 2m: a split into two nonzero members
        # would sum to at least 2m.  Any other n with n != Ap[n mod m] is
        # m + (n - m), two nonzero members.  An Apery element n is minimal iff
        # n - g is a member for no smaller minimal generator g (a smaller
        # non-minimal one would split into a minimal g and a member, so it adds
        # no case).
        ap = self._apery
        mins = [m]
        for n in unique[1:]:
            if n < 2 * m or (n == ap[n % m] and not any(self.contains(n - g) for g in mins)):
                mins.append(n)
        self.minimal_generators: tuple[int, ...] = tuple(mins)

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    def contains(self, x: int) -> bool:
        """True iff ``x`` is in the semigroup (O(1); any integer accepted)."""
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
        # For S = N there is no g > m and PF is the conventional {-1}.
        ap, m = self._apery, self.multiplicity
        above = self.minimal_generators[1:]
        if not above:
            return (-1,)
        return tuple(sorted(ap[r] - m for r in _maximal_classes(ap, above)))

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
        frob, m = self.frobenius, self.multiplicity
        low = frob - m + 1
        reduced = sum(map(frob.__lt__, self._apery))
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


def _apery(gens: Iterable[int], n: int) -> list[int]:
    """Least member of <gens> in each residue class mod ``n``, a member of <gens>.

    When every step (a generator that is not a multiple of n) exceeds n, as
    on the constructor's call with n = m, a window scan runs first.  Window j
    holds the members in [jn, (j+1)n) as an n-bit int, bit i for jn + i.  A
    member x = jn + i > 0 is x - n or x - g for a member x - g and a step
    g = qn + t (q >= 1, 0 < t < n), and x - g lies in window j - q if i >= t,
    in window j - q - 1 if i < t.  So window j is window j - 1 ORed with two
    shifts of earlier windows per step, and the first window that holds
    residue r gives Ap[r] = jn + r.  Each window is added into byte lanes in
    one C-level pass over its bit string, so a residue held by c of the k
    windows first appeared in window k - c.

    The scan hands over once a window settles fewer than 2 residues, or once
    it holds ``_WINDOWS`` windows or ``_SCAN_BITS`` bits.  Then every member
    below kn is settled.  An unsettled Apery element is a step above an Apery
    element, and the first such step up from a settled one leaves from the
    last ceil(max step / n) windows.  So Dijkstra on the residues mod n with
    the steps as edge weights (Nijenhuis 1979) finishes from those elements
    alone.  A heap entry v stands for residue v % n; gcd 1 guarantees every
    class is reached.  With a step below n only Dijkstra runs, from 0.
    """
    if n > TABLE_LIMIT:
        raise TableLimitError(f"an Apery set mod {n} exceeds {TABLE_LIMIT} residues")
    steps = [g for g in gens if g % n]
    dist: list = [0] + [math.inf] * (n - 1)
    heap = [0]
    if steps and min(steps) > n:
        mask = (1 << n) - 1
        cap = min(_WINDOWS, _SCAN_BITS // n)
        # a step of cap * n or more reaches no held window
        reach = [(g // n, g % n) for g in steps if g < cap * n]
        held = [0] * cap + [1]  # window 0 is {0}; the zeros stand for windows below it
        lanes = 1  # byte r counts the held windows that hold residue r
        while len(held) < 2 * cap:
            hi = lo = 0
            for q, t in reach:
                hi |= held[-q] << t
                lo |= held[-q - 1] >> (n - t)
            prev = held[-1]
            held.append(prev | hi & mask | lo)
            lanes += int.from_bytes(bin(held[-1])[2:].encode().translate(_LANES), "big")
            if (held[-1] ^ prev).bit_count() < 2:
                break
        # Dijkstra starts from the residues first held by the last ceil(max step / n)
        # windows, and from none once the last window holds every residue
        k = len(held) - cap
        back = -(-max(steps) // n) if held[-1] != mask else 0
        flags = bin(held[-1])[:1:-1].encode().translate(_LANES)
        heap = []
        for r, c in zip(compress(range(n), flags), compress(lanes.to_bytes(n, "little"), flags)):
            dist[r] = v = (k - c) * n + r
            if c <= back:
                heap.append(v)
        heapq.heapify(heap)
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
