"""Principal congruences, the congruence lattice, and factor congruence pairs.

Congruence generation closes a union-find structure under all elementary
translations x -> f(c_1, .., x, .., c_r); one position at a time is enough
for congruences (swap arguments one coordinate per step).  The full lattice
is the join-closure of the n^2 principal congruences, which scales with the
lattice rather than the Bell number of the universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .algebra import FiniteAlgebra, stored, translations
from .errors import CapExceeded, ElementOutOfRange, LatticeMismatch
from .partition import Partition


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


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Partition:
    return congruence_from_pairs(alg, [(a, b)])


@dataclass
class CongruenceLattice:
    algebra: FiniteAlgebra
    congruences: list[Partition]
    covers: list[tuple[int, int]] = field(default_factory=list)   # (lower, upper) indices
    _index: dict[Partition, int] = field(default_factory=dict)
    _leq: list[list[bool]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index = {p: i for i, p in enumerate(self.congruences)}
        m = len(self.congruences)
        self._leq = [[self.congruences[i].leq(self.congruences[j]) for j in range(m)] for i in range(m)]
        if not self.covers:
            self.covers = self._compute_covers()

    def _compute_covers(self) -> list[tuple[int, int]]:
        m = len(self.congruences)
        out = []
        for i in range(m):
            for j in range(m):
                if i == j or not self._leq[i][j]:
                    continue
                if any(k != i and k != j and self._leq[i][k] and self._leq[k][j] for k in range(m)):
                    continue
                out.append((i, j))
        return out

    def __len__(self) -> int:
        return len(self.congruences)

    def __contains__(self, p: Partition) -> bool:
        return p in self._index

    def index(self, p: Partition) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise LatticeMismatch(f"partition {p} is not in this lattice") from None

    def leq(self, a: Partition, b: Partition) -> bool:
        return self._leq[self.index(a)][self.index(b)]

    @property
    def zero(self) -> Partition:
        return Partition.zero(self.algebra.size)

    @property
    def one(self) -> Partition:
        return Partition.one(self.algebra.size)

    def join(self, a: Partition, b: Partition) -> Partition:
        self.index(a), self.index(b)
        j = a.join(b)
        if j not in self._index:
            raise LatticeMismatch("join escaped the lattice; lattice incomplete?")
        return j

    def meet(self, a: Partition, b: Partition) -> Partition:
        self.index(a), self.index(b)
        m = a.meet(b)
        if m not in self._index:
            raise LatticeMismatch("meet escaped the lattice; lattice incomplete?")
        return m

    def lower_covers(self, p: Partition) -> list[Partition]:
        i = self.index(p)
        return [self.congruences[a] for a, b in self.covers if b == i]

    def upper_covers(self, p: Partition) -> list[Partition]:
        i = self.index(p)
        return [self.congruences[b] for a, b in self.covers if a == i]

    def cover_pairs(self) -> list[tuple[Partition, Partition]]:
        return [(self.congruences[a], self.congruences[b]) for a, b in self.covers]

    def is_join_irreducible(self, p: Partition) -> bool:
        return len(self.lower_covers(p)) == 1 and not p.is_zero()

    def unique_subcover(self, p: Partition) -> Partition:
        lows = self.lower_covers(p)
        if len(lows) != 1:
            raise LatticeMismatch(f"{p} is not join irreducible")
        return lows[0]

    def monolith(self) -> Optional[Partition]:
        atoms = self.upper_covers(self.zero)
        return atoms[0] if len(atoms) == 1 and not self.zero.is_one() else None

    def interval(self, lo: Partition, hi: Partition) -> list[Partition]:
        i, j = self.index(lo), self.index(hi)
        return [p for k, p in enumerate(self.congruences) if self._leq[i][k] and self._leq[k][j]]


def congruence_lattice(alg: FiniteAlgebra, cap: int = 100_000) -> CongruenceLattice:
    """Con(alg) by worklist join-closure of the principal congruences.  A
    finished lattice is stored, so it is built once per algebra."""
    return stored(alg, "lattice", lambda: _congruence_lattice(alg, cap))


def _congruence_lattice(alg: FiniteAlgebra, cap: int) -> CongruenceLattice:
    n = alg.size
    zero = Partition.zero(n)
    found: dict[Partition, None] = {zero: None}
    principals = []
    for a in range(n):
        for b in range(a + 1, n):
            p = principal_congruence(alg, a, b)
            if p not in found:
                found[p] = None
                principals.append(p)
    worklist = list(found.keys())
    while worklist:
        cur = worklist.pop()
        for p in principals:
            j = cur.join(p)
            if j not in found:
                if len(found) >= cap:
                    raise CapExceeded(len(found), "congruence lattice")
                found[j] = None
                worklist.append(j)
    congruences = sorted(found.keys(), key=lambda p: (-p.num_classes, p.ids))
    return CongruenceLattice(alg, congruences)


def relational_compose(a: Partition, b: Partition) -> set[tuple[int, int]]:
    """a o b as a set of pairs: (x, z) with x a y and y b z for some y."""
    n = a.n
    out: set[tuple[int, int]] = set()
    b_classes = b.classes()
    for x in range(n):
        for y in range(n):
            if a.same(x, y):
                for z in b_classes[b.class_of(y)]:
                    out.add((x, z))
    return out


def permute(a: Partition, b: Partition) -> bool:
    return relational_compose(a, b) == relational_compose(b, a)


@dataclass
class FactorPair:
    alpha1: Partition
    alpha2: Partition
    iso: list[tuple[int, int]]  # element -> (class in A/alpha1, class in A/alpha2)


def factor_pairs(alg: FiniteAlgebra) -> list[FactorPair]:
    """All (a1, a2) with a1 ^ a2 = 0, a1 v a2 = 1, and a1 o a2 = a2 o a1,
    each with the explicit map a -> (a/a1, a/a2); stored per algebra."""
    return stored(alg, "factor_pairs", lambda: _factor_pairs(alg))


def _factor_pairs(alg: FiniteAlgebra) -> list[FactorPair]:
    out = []
    n = alg.size
    congruences = congruence_lattice(alg).congruences
    for a1 in congruences:
        for a2 in congruences:
            if not a1.meet(a2).is_zero():
                continue
            if not a1.join(a2).is_one():
                continue
            if not permute(a1, a2):
                continue
            iso = [(a1.class_of(x), a2.class_of(x)) for x in range(n)]
            out.append(FactorPair(a1, a2, iso))
    return out


def _pentagon_violation(parts: Sequence[Partition]) -> Optional[tuple[Partition, Partition, Partition]]:
    """A triple a < b, c with a v c = b v c and a ^ c = b ^ c, if any."""
    members = set(parts)
    for a in parts:
        for b in parts:
            if a == b or not a.leq(b):
                continue
            for c in parts:
                ja, jb = a.join(c), b.join(c)
                ma, mb = a.meet(c), b.meet(c)
                if ja not in members or jb not in members or ma not in members or mb not in members:
                    raise ValueError("family is not closed under join/meet")
                if ja == jb and ma == mb:
                    return (a, b, c)
    return None


def is_modular(parts: Sequence[Partition]) -> bool:
    """Exhaustive pentagon search over a join/meet-closed family of partitions."""
    return _pentagon_violation(parts) is None


def is_distributive(parts: Sequence[Partition]) -> bool:
    members = set(parts)
    for a in parts:
        for b in parts:
            for c in parts:
                lhs = a.meet(b.join(c))
                rhs = a.meet(b).join(a.meet(c))
                if lhs not in members or rhs not in members:
                    raise ValueError("family is not closed under join/meet")
                if lhs != rhs:
                    return False
    return True


def transposes_up(lat: CongruenceLattice, a: Partition, b: Partition, c: Partition, d: Partition) -> bool:
    """I[a,b] transposes up to I[c,d]: b ^ c = a and b v c = d."""
    return b.meet(c) == a and b.join(c) == d


def projective_intervals(lat: CongruenceLattice, ab: tuple[Partition, Partition],
                         cd: tuple[Partition, Partition]) -> bool:
    """Whether two intervals are connected by a chain of transposes."""
    pairs = [(x, y) for x in lat.congruences for y in lat.congruences if x.leq(y) and x != y]
    seen = {ab}
    frontier = [ab]
    while frontier:
        cur = frontier.pop()
        if cur == cd:
            return True
        a, b = cur
        for x, y in pairs:
            if (transposes_up(lat, a, b, x, y) or transposes_up(lat, x, y, a, b)) and (x, y) not in seen:
                seen.add((x, y))
                frontier.append((x, y))
    return cd in seen
