"""Independent reference invariants for the correctness gate.

Everything is derived from the Apery set of the multiplicity, computed by
Dijkstra on residues mod m (Nijenhuis 1979).  None of it imports ``nsg``, so a
bug in the library's membership table, relaxation or PF scan cannot hide
itself here.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence


def apery(gens: Sequence[int]) -> list[int]:
    """Least member of <gens> in each residue class mod the least generator."""
    gs = sorted(set(gens))
    m = gs[0]
    dist = [-1] * m
    dist[0] = 0
    heap = [(0, 0)]
    done = [False] * m
    while heap:
        w, r = heapq.heappop(heap)
        if done[r]:
            continue
        done[r] = True
        for g in gs[1:]:
            v = w + g
            r2 = v % m
            if not done[r2] and (dist[r2] < 0 or v < dist[r2]):
                dist[r2] = v
                heapq.heappush(heap, (v, r2))
    return dist


class Semigroup:
    """Membership and invariants of <gens> from its Apery set."""

    def __init__(self, gens: Sequence[int]):
        gs = sorted(set(int(g) for g in gens))
        if not gs or gs[0] < 1 or math.gcd(*gs) != 1:
            raise ValueError(f"not a numerical semigroup: {list(gens)}")
        self.m = gs[0]
        self.ap = apery(gs)
        self.frobenius = max(self.ap) - self.m
        self.minimal = [n for n in gs if not any(g < n and n - g in self for g in gs)]

    def __contains__(self, x: int) -> bool:
        return x >= 0 and x >= self.ap[x % self.m]

    def pf(self) -> list[int]:
        if self.frobenius < 0:
            return [-1]
        m = self.m
        return sorted(
            w - m for w in self.ap if all(w - m + g in self for g in self.minimal)
        )

    def record(self, supplied: Sequence[int]) -> dict:
        """The ``nsg analyze --json`` record, in its field order."""
        m, frob = self.m, self.frobenius
        pf = self.pf()
        reduced = sum(1 for x in range(frob - m + 1, frob + 1) if x not in self)
        maximal, minimal = reduced == len(pf), reduced == 1
        label = (
            "both" if maximal and minimal
            else "maximal" if maximal
            else "minimal" if minimal
            else "neither"
        )
        return {
            "generators": list(supplied),
            "minimal_generators": self.minimal,
            "multiplicity": m,
            "frobenius": frob,
            "conductor": frob + 1,
            "genus": sum(w // m for w in self.ap),
            "pf": pf,
            "type": len(pf),
            "reduced_type": reduced,
            "symmetric": len(pf) == 1,
            "extremality": label,
        }


def analyze_record(gens: Sequence[int]) -> dict:
    return Semigroup(gens).record(gens)


def ideal_kind(s: Semigroup, ideal: Sequence[int]) -> str:
    """'S' when 0 generates E, 'S*' when E = S minus 0, else 'proper'."""
    if 0 in ideal:
        return "S"
    in_e = lambda x: any(x - e in s for e in ideal)  # noqa: E731
    return "S*" if all(in_e(g) for g in s.minimal) else "proper"


def duplication_generators(s: Semigroup, ideal: Sequence[int], d: int) -> list[int]:
    """2S u (2E + d) = <2 * mingens(S), 2e + d for each ideal generator e>."""
    return [2 * g for g in s.minimal] + [2 * e + d for e in sorted(set(ideal))]


def dup_record(gens: Sequence[int], ideal: Sequence[int], d: int) -> dict:
    """The ``nsg dup --json`` invariant fields plus the ideal kind."""
    s = Semigroup(gens)
    dup = Semigroup(duplication_generators(s, ideal, d))
    rec = dup.record(dup.minimal)
    rec["d"] = d
    rec["ideal_kind"] = ideal_kind(s, ideal)
    return rec


def glue_record(s1: Sequence[int], s2: Sequence[int], lam: int, mu: int) -> dict:
    """The ``nsg glue --json`` invariant fields (factors given minimally)."""
    gens = [lam * g for g in Semigroup(s1).minimal] + [mu * g for g in Semigroup(s2).minimal]
    rec = Semigroup(gens).record(gens)
    rec["lambda"] = lam
    rec["mu"] = mu
    return rec


def is_maximal(gens: Sequence[int]) -> bool:
    return Semigroup(gens).record(gens)["extremality"] in ("both", "maximal")
