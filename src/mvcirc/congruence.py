"""Principal congruences, the congruence lattice, and factor congruence pairs.

Congruence generation closes a union-find structure under all elementary
translations x -> f(c_1, .., x, .., c_r); one position at a time is enough
for congruences (swap arguments one coordinate per step).  The full lattice
is the join-closure of the n^2 principal congruences, which scales with the
lattice rather than the Bell number of the universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .algebra import FiniteAlgebra, quotient, stored, translations
from .errors import CapExceeded, ElementOutOfRange
from .partition import Partition

LATTICE_CAP = 100_000


def congruence_from_pairs(alg: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Least congruence containing the given pairs (Malcev-chain closure)."""
    n = alg.size
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    maps = translations(alg)
    work: list[tuple[int, int]] = []

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            work.append((ra, rb))

    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ElementOutOfRange(f"pair ({a},{b}) out of range for size {n}")
        union(a, b)
    while work:
        a, b = work.pop()
        for tab in maps:
            union(tab[a], tab[b])
    return Partition.from_ids([find(i) for i in range(n)])


@dataclass
class CongruenceLattice:
    congruences: list[Partition]    # by class count, most first: 0 is the zero congruence
    below: list[int]                # j -> bitmask of the i with congruences[i] <= congruences[j]
    covers: list[tuple[int, int]]   # (lower, upper) indices

    def __len__(self) -> int:
        return len(self.congruences)

    def cover_pairs(self) -> list[tuple[Partition, Partition]]:
        return [(self.congruences[a], self.congruences[b]) for a, b in self.covers]


def congruence_lattice(alg: FiniteAlgebra) -> CongruenceLattice:
    """Con(alg) by worklist join-closure of the principal congruences, with
    CapExceeded past LATTICE_CAP congruences.  A finished lattice is stored,
    so it is built once per algebra."""
    return stored(alg, "lattice", lambda: _congruence_lattice(alg))


def _congruence_lattice(alg: FiniteAlgebra) -> CongruenceLattice:
    n = alg.size
    zero = Partition.zero(n)
    found: dict[Partition, None] = {zero: None}
    principals = []
    for a in range(n):
        for b in range(a + 1, n):
            p = congruence_from_pairs(alg, [(a, b)])
            if p not in found:
                found[p] = None
                principals.append(p)
    worklist = list(found.keys())
    while worklist:
        cur = worklist.pop()
        for p in principals:
            j = cur.join(p)
            if j not in found:
                if len(found) >= LATTICE_CAP:
                    raise CapExceeded(len(found), "congruence lattice")
                found[j] = None
                worklist.append(j)
    congruences = sorted(found.keys(), key=lambda p: (-p.num_classes, p.ids))
    # a congruence strictly below another has more classes, so a lower index
    below = [sum(1 << i for i in range(j) if congruences[i].leq(theta)) | 1 << j
             for j, theta in enumerate(congruences)]
    above = [sum(1 << j for j, down in enumerate(below) if down >> i & 1)
             for i in range(len(below))]
    # j covers i when the interval [i, j] holds nothing else
    covers = [(i, j) for i, up in enumerate(above) for j, down in enumerate(below)
              if i < j and up & down == 1 << i | 1 << j]
    return CongruenceLattice(congruences, below, covers)


@dataclass
class FactorPair:
    """Factor congruences alpha1, alpha2 of A, with A ~ left x right."""

    alpha1: Partition
    alpha2: Partition
    left: FiniteAlgebra         # A/alpha1
    right: FiniteAlgebra        # A/alpha2

    @property
    def iso(self) -> list[tuple[int, int]]:
        """element -> (class in A/alpha1, class in A/alpha2)"""
        return list(zip(self.alpha1.ids, self.alpha2.ids))


def factor_pairs(alg: FiniteAlgebra) -> list[FactorPair]:
    """All (a1, a2) with a1 ^ a2 = 0 and |A/a1| |A/a2| = |A|, each with the
    map a -> (a/a1, a/a2) and both quotients; stored per algebra.  A zero
    meet makes the map one-to-one, and the class count makes it onto, which
    holds exactly when a1 v a2 = 1 and the pair permutes: these are the
    factor congruence pairs (Burris and Sankappanavar, II.7), and the map is
    then an isomorphism onto A/a1 x A/a2.  The meet is 0 when only index 0
    lies below both."""
    return stored(alg, "factor_pairs", lambda: _factor_pairs(alg))


def _factor_pairs(alg: FiniteAlgebra) -> list[FactorPair]:
    lat = congruence_lattice(alg)
    return [FactorPair(a1, a2, quotient(alg, a1), quotient(alg, a2))
            for a1, below1 in zip(lat.congruences, lat.below)
            for a2, below2 in zip(lat.congruences, lat.below)
            if a1.num_classes * a2.num_classes == alg.size and below1 & below2 == 1]
