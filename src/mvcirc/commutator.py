"""The binary modular commutator, the series built from it, and the derived
predicates.

The definitional term condition quantifies over all polynomials, so [a,b] is
computed through the pair algebra A(a) = {(x,y) : x a y}: generate the
congruence D on A(a) from {((u,u),(v,v)) : u b v} and read off
{(x,y) : (x,y) D (y,y)}, closed to a congruence.  The test suite
cross-checks the result against a brute-force term-condition oracle.
"""

from __future__ import annotations

from typing import Optional

from .algebra import (
    FiniteAlgebra,
    Operation,
    find_malcev_term,
    is_congruence,
    stored,
)
from .congruence import congruence_from_pairs, factor_pairs
from .errors import NotACongruence, Tri
from .partition import Partition


def pair_algebra(alg: FiniteAlgebra, alpha: Partition) -> tuple[FiniteAlgebra, list[tuple[int, int]]]:
    """The subalgebra of A^2 with universe {(x,y) : x alpha y} (lex order)."""
    n = alg.size
    pairs = [(x, y) for x in range(n) for y in range(n) if alpha.same(x, y)]
    code = [0] * (n * n)                 # x * n + y -> index of the pair (x, y)
    for i, (x, y) in enumerate(pairs):
        code[x * n + y] = i
    # for each arity r, the table indices of the x- and y-components of
    # every r-tuple of pairs, in product order
    xs, ys = [[0]], [[0]]
    for _ in range(max((op.arity for op in alg.ops), default=0)):
        xs.append([i * n + x for i in xs[-1] for x, _ in pairs])
        ys.append([i * n + y for i in ys[-1] for _, y in pairs])
    ops = []
    for op in alg.ops:
        table, r = op.table, op.arity
        ops.append(Operation(op.name, r, tuple(
            code[table[i] * n + table[j]] for i, j in zip(xs[r], ys[r]))))
    return FiniteAlgebra(f"{alg.name}(pairs)", len(pairs), tuple(ops)), pairs


def commutator(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> Partition:
    """[alpha, beta] via the pair-algebra construction, kept in the
    per-algebra store under ("commutator", alpha, beta).  Both partitions
    are checked to be congruences when the key is missed; a stored key
    passed that check when it was stored."""
    def build() -> Partition:
        for p in (alpha, beta):
            if not is_congruence(alg, p):
                raise NotACongruence(f"{p} is not a congruence of {alg.name}")
        return _commutator(alg, alpha, beta)

    return stored(alg, ("commutator", alpha, beta), build)


def _commutator(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> Partition:
    sub, pairs = pair_algebra(alg, alpha)
    idx = {p: i for i, p in enumerate(pairs)}
    n = alg.size
    gens = [
        (idx[(u, u)], idx[(v, v)])
        for u in range(n)
        for v in range(u + 1, n)
        if beta.same(u, v)
    ]
    delta = congruence_from_pairs(sub, gens)
    related = [
        (x, y)
        for (x, y) in pairs
        if x != y and delta.same(idx[(x, y)], idx[(y, y)])
    ]
    return congruence_from_pairs(alg, related)


def _iterate_series(alg: FiniteAlgebra, step) -> list[Partition]:
    """1_A, step(1_A), ... descending, up to 0_A or the first repeat."""
    seq = [Partition.one(alg.size)]
    while not seq[-1].is_zero():
        nxt = step(seq[-1])
        if nxt == seq[-1]:
            break
        seq.append(nxt)
    return seq


def lower_central_series(alg: FiniteAlgebra) -> list[Partition]:
    one = Partition.one(alg.size)
    return _iterate_series(alg, lambda cur: commutator(alg, one, cur))


def derived_series(alg: FiniteAlgebra) -> list[Partition]:
    return _iterate_series(alg, lambda cur: commutator(alg, cur, cur))


def is_abelian(alg: FiniteAlgebra) -> bool:
    one = Partition.one(alg.size)
    return commutator(alg, one, one).is_zero()


def is_nilpotent(alg: FiniteAlgebra) -> bool:
    return lower_central_series(alg)[-1].is_zero()


def is_solvable(alg: FiniteAlgebra) -> bool:
    return derived_series(alg)[-1].is_zero()


def nilpotency_class(alg: FiniteAlgebra) -> Optional[int]:
    """k such that 1^(k+1) = 0, or None when the series stabilizes above 0."""
    series = lower_central_series(alg)
    return len(series) - 1 if series[-1].is_zero() else None


def is_affine(alg: FiniteAlgebra) -> Tri:
    """Abelian with a Malcev term; UNKNOWN only when the term search caps out."""
    if not is_abelian(alg):
        return Tri.NO
    return find_malcev_term(alg).status


def prime_factors(n: int) -> list[int]:
    """The prime factors of n >= 1 in ascending order, each as often as it
    divides n."""
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            out.append(p)
        p += 1
    return out + [n] * (n > 1)


def is_prime_power(n: int) -> bool:
    """n = p^e for a prime p and e >= 0, so 1 counts (n >= 1)."""
    return len(set(prime_factors(n))) <= 1


def indecomposable_factorization(alg: FiniteAlgebra) -> list[FiniteAlgebra]:
    """Greedy recursive factorization into directly indecomposable factors."""
    if alg.size == 1:
        return []
    for fp in factor_pairs(alg):
        if not (fp.alpha1.is_zero() or fp.alpha1.is_one()):
            return indecomposable_factorization(fp.left) + indecomposable_factorization(fp.right)
    return [alg]


def is_supernilpotent(alg: FiniteAlgebra) -> Tri:
    """Whether alg is a supernilpotent Malcev algebra, the hypothesis of the
    CSAT and CEQV theorems that read this flag.  A finite nilpotent Malcev
    algebra is supernilpotent iff it is a direct product of algebras of
    prime power order, so YES needs a Malcev term found by the search and a
    factorization into directly indecomposable factors of prime power
    order.  UNKNOWN when the Malcev search caps out, NO when it completes
    without a term."""
    if not is_nilpotent(alg):
        return Tri.NO
    if not all(is_prime_power(f.size) for f in indecomposable_factorization(alg)):
        return Tri.NO
    return find_malcev_term(alg).status
