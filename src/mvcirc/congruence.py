"""Principal congruences, the congruence lattice, and factor congruence pairs.

Congruence generation merges classes (partition.Classes) and closes the
merged pairs under all elementary translations x -> f(c_1, .., x, .., c_r);
one position at a time is enough for congruences (swap arguments one
coordinate per step).  The full lattice is the join-closure of the distinct
principal congruences, which scales with the lattice rather than the Bell
number of the universe.  Each principal is kept as its spanning pairs, and
a join merges the class ids of the congruence at hand along them.  Every
congruence is the join of the principal congruences it contains (Burris and
Sankappanavar, II), so the order is read off one bitmask per congruence of
the principals under it, with no partition compared.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .algebra import FiniteAlgebra, quotient, stored, translations
from .errors import CapExceeded, ElementOutOfRange
from .partition import Classes, Partition

LATTICE_CAP = 100_000


def congruence_from_pairs(alg: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Partition:
    """Least congruence containing the given pairs (Malcev-chain closure).
    The merge queue spans every class, so closing its pairs under the
    elementary translations closes the partition."""
    n = alg.size
    classes = Classes(n)
    label, merge, work = classes.label, classes.merge, classes.queue
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ElementOutOfRange(f"pair ({a},{b}) out of range for size {n}")
        merge(a, b)
    maps = translations(alg)
    while work:
        a, b = work.pop()
        for tab in maps:
            x, y = tab[a], tab[b]
            if label[x] != label[y]:
                merge(x, y)
    return Partition.from_ids(label)


@dataclass
class CongruenceLattice:
    congruences: list[Partition]    # by class count, most first: 0 is the zero congruence
    below: list[int]                # j -> bitmask of the i with congruences[i] <= congruences[j]
    above: list[int]                # i -> bitmask of the j with congruences[i] <= congruences[j]
    covers: list[tuple[int, int]]   # (lower, upper) indices

    def __len__(self) -> int:
        return len(self.congruences)

    @functools.cached_property
    def members(self) -> frozenset[Partition]:
        return frozenset(self.congruences)

    def perspectivity_classes(self) -> list[list[tuple[int, int]]]:
        """The covers in groups closed under perspectivity: alpha < beta and
        gamma < delta share a group when beta ^ gamma = alpha and
        beta v gamma = delta.  Each gamma is taken from above alpha, so the
        join alone decides: alpha <= beta ^ gamma <= beta, and beta ^ gamma
        = beta would put beta under gamma and the join at gamma.  The join
        is read off the order masks: above[beta] & above[gamma] =
        above[delta]."""
        above, covers = self.above, self.covers
        starting: dict[int, list[int]] = {}     # lower index -> the covers from it
        for k, (lo, _) in enumerate(covers):
            starting.setdefault(lo, []).append(k)
        groups = Classes(len(covers))
        for k, (a, b) in enumerate(covers):
            for g in _bits(above[a]):
                for m in starting.get(g, ()):
                    if above[b] & above[g] == above[covers[m][1]]:
                        groups.merge(k, m)
        return [[covers[k] for k in members] for members in groups.members if members]


def congruence_lattice(alg: FiniteAlgebra) -> CongruenceLattice:
    """Con(alg) by worklist join-closure of the principal congruences, with
    CapExceeded past LATTICE_CAP congruences.  A finished lattice is stored,
    so it is built once per algebra."""
    return stored(alg, "lattice", lambda: _congruence_lattice(alg))


def _congruence_lattice(alg: FiniteAlgebra) -> CongruenceLattice:
    n = alg.size
    # each distinct principal congruence as its spanning pairs (u, v); p <=
    # theta iff theta holds every edge, and the two ends read as one
    # itemgetter each
    principals: dict[tuple[int, ...], tuple[Callable, Callable, list[tuple[int, int]]]] = {}
    for a in range(n):
        for b in range(a + 1, n):
            cg = congruence_from_pairs(alg, [(a, b)])
            if cg.ids not in principals:
                edges = cg.spanning_pairs()
                us, vs = zip(*edges)
                principals[cg.ids] = (operator.itemgetter(*us), operator.itemgetter(*vs), edges)
    zero = tuple(range(n))
    found: dict[tuple[int, ...], None] = dict.fromkeys((zero, *principals))
    holds: dict[tuple[int, ...], int] = {}   # congruence -> bitmask of the principals under it
    worklist = list(found)
    while worklist:
        cur = worklist.pop()
        mask = 0
        for bit, (us, vs, edges) in enumerate(principals.values()):
            if us(cur) == vs(cur):
                mask |= 1 << bit
                continue
            j = _join(cur, edges)
            if j not in found:
                if len(found) >= LATTICE_CAP:
                    raise CapExceeded(len(found), "congruence lattice")
                found[j] = None
                worklist.append(j)
        holds[cur] = mask
    order = sorted(found, key=lambda ids: (-max(ids), ids))
    congruences = [Partition(ids) for ids in order]
    # every congruence is the join of the principals under it, so
    # theta_i <= theta_j iff mask_i is a subset of mask_j
    masks = [holds[ids] for ids in order]
    over = [0] * len(principals)    # principal -> bitmask of the congruences above it
    for j, mask in enumerate(masks):
        for bit in _bits(mask):
            over[bit] |= 1 << j
    full, everyone = (1 << len(order)) - 1, (1 << len(principals)) - 1
    # i is under j unless some principal under i is not under j; a congruence
    # strictly below another has more classes, so a lower index
    pick = over.__getitem__
    below = [full & ~functools.reduce(operator.or_, map(pick, _bits(everyone ^ mask)), 0)
             for mask in masks]
    above = [functools.reduce(operator.and_, map(pick, _bits(mask)), full) for mask in masks]
    # j covers i when the interval [i, j] holds nothing else
    covers = [(i, j) for i, up in enumerate(above) for j in _bits(up ^ 1 << i)
              if up & below[j] == 1 << i | 1 << j]
    return CongruenceLattice(congruences, below, above, covers)


def _join(ids: tuple[int, ...], edges: list[tuple[int, int]]) -> tuple[int, ...]:
    """The canonical ids of the join of the partition ids with the one whose
    spanning pairs are edges: the class ids an edge links are merged, then
    renumbered in first-occurrence order."""
    classes = Classes(max(ids) + 1)
    label, merge = classes.label, classes.merge
    for u, v in edges:
        a, b = ids[u], ids[v]
        if label[a] != label[b]:
            merge(a, b)
    # ids is canonical, so its class ids first occur in order and numbering
    # the merged labels by class id numbers them as they occur in ids
    rank = Partition.from_ids(label).ids
    return tuple(map(rank.__getitem__, ids))


def _bits(mask: int) -> Iterator[int]:
    """The indices of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def nontrivial_factor_pair(alg: FiniteAlgebra) -> Optional[FactorPair]:
    """The first factor pair of factor_pairs whose congruences are neither
    0 nor 1, or None when alg is directly indecomposable."""
    return next((fp for fp in factor_pairs(alg)
                 if not (fp.alpha1.is_zero() or fp.alpha1.is_one())), None)


def _factor_pairs(alg: FiniteAlgebra) -> list[FactorPair]:
    lat = congruence_lattice(alg)
    by_classes: dict[int, list[int]] = {}     # class count -> the indices with it
    for j, theta in enumerate(lat.congruences):
        by_classes.setdefault(theta.num_classes, []).append(j)
    # one quotient per index, built for the indices that appear in some pair
    quotient_at = functools.cache(lambda i: quotient(alg, lat.congruences[i]))
    pairs = []
    for i, (a1, below1) in enumerate(zip(lat.congruences, lat.below)):
        count, rest = divmod(alg.size, a1.num_classes)
        if rest:
            continue
        pairs += [FactorPair(a1, lat.congruences[j], quotient_at(i), quotient_at(j))
                  for j in by_classes.get(count, ()) if below1 & lat.below[j] == 1]
    return pairs
