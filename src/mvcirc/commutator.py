"""The binary modular commutator, centralizers, and the derived predicates.

The definitional term condition quantifies over all polynomials, so [a,b] is
computed through the pair algebra A(a) = {(x,y) : x a y}: generate the
congruence D on A(a) from {((u,u),(v,v)) : u b v} and read off
{(x,y) : (x,y) D (y,y)}, closed to a congruence.  At desk scale the result is
cross-checked against a depth-bounded brute-force term-condition oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .algebra import (
    FiniteAlgebra,
    Operation,
    find_malcev_term,
    is_congruence,
    kary_poly_clone,
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
    per-algebra store under ("commutator", alpha, beta)."""
    for p in (alpha, beta):
        if not is_congruence(alg, p):
            raise NotACongruence(f"{p} is not a congruence of {alg.name}")
    return stored(alg, ("commutator", alpha, beta), lambda: _commutator(alg, alpha, beta))


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


def centralizes(alg: FiniteAlgebra, alpha: Partition, beta: Partition, gamma: Partition) -> bool:
    """C(alpha, beta; gamma), decided as [alpha, beta] <= gamma."""
    return commutator(alg, alpha, beta).leq(gamma)


def centralizer(alg: FiniteAlgebra, beta: Partition, alpha: Partition) -> Partition:
    """(beta : alpha): largest delta with C(delta, beta; alpha).

    Computed as the join of all principal congruences Cg(a,b) whose
    commutator with beta sits below alpha (valid by join-distributivity of
    the commutator in the congruence modular setting).
    """
    n = alg.size
    result = Partition.zero(n)
    seen: set[Partition] = set()
    from .congruence import principal_congruence

    for a in range(n):
        for b in range(a + 1, n):
            p = principal_congruence(alg, a, b)
            if p in seen:
                continue
            seen.add(p)
            if commutator(alg, p, beta).leq(alpha):
                result = result.join(p)
    return result


@dataclass
class SeriesReport:
    kind: str                       # "lower-central" or "derived"
    congruences: list[Partition]    # descending, starting at 1_A
    stabilized_at: int              # first index i with s[i] == s[i+1]

    @property
    def reaches_zero(self) -> bool:
        return self.congruences[-1].is_zero()


def _iterate_series(alg: FiniteAlgebra, step, kind: str) -> SeriesReport:
    seq = [Partition.one(alg.size)]
    while True:
        nxt = step(seq[-1])
        if nxt == seq[-1]:
            return SeriesReport(kind, seq, len(seq) - 1)
        seq.append(nxt)
        if nxt.is_zero():
            return SeriesReport(kind, seq, len(seq) - 1)


def lower_central_series(alg: FiniteAlgebra) -> SeriesReport:
    one = Partition.one(alg.size)
    return _iterate_series(alg, lambda cur: commutator(alg, one, cur), "lower-central")


def derived_series(alg: FiniteAlgebra) -> SeriesReport:
    return _iterate_series(alg, lambda cur: commutator(alg, cur, cur), "derived")


def is_abelian(alg: FiniteAlgebra) -> bool:
    one = Partition.one(alg.size)
    return commutator(alg, one, one).is_zero()


def is_nilpotent(alg: FiniteAlgebra) -> bool:
    return lower_central_series(alg).reaches_zero


def is_solvable(alg: FiniteAlgebra) -> bool:
    return derived_series(alg).reaches_zero


def nilpotency_class(alg: FiniteAlgebra) -> Optional[int]:
    """k such that 1^(k+1) = 0, or None when the series stabilizes above 0."""
    rep = lower_central_series(alg)
    if not rep.reaches_zero:
        return None
    return len(rep.congruences) - 1


def is_affine(alg: FiniteAlgebra, cap: int = 200_000) -> Tri:
    """Abelian with a Malcev term; UNKNOWN only when the term search caps out."""
    if not is_abelian(alg):
        return Tri.NO
    return find_malcev_term(alg, cap).status


def is_prime_power(n: int) -> bool:
    """n = p^e for a prime p and e >= 0, so 1 counts (n >= 1)."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            return n == 1
        d += 1
    return True


@dataclass
class Factorization:
    factors: list[FiniteAlgebra]
    sizes: list[int]


def indecomposable_factorization(alg: FiniteAlgebra) -> Factorization:
    """Greedy recursive factorization into directly indecomposable factors."""
    if alg.size == 1:
        return Factorization([], [])
    for fp in factor_pairs(alg):
        if fp.alpha1.is_zero() or fp.alpha1.is_one():
            continue
        from .algebra import quotient

        left = indecomposable_factorization(quotient(alg, fp.alpha1, check=False))
        right = indecomposable_factorization(quotient(alg, fp.alpha2, check=False))
        return Factorization(left.factors + right.factors, left.sizes + right.sizes)
    return Factorization([alg], [alg.size])


def is_supernilpotent(alg: FiniteAlgebra) -> tuple[Tri, Optional[Factorization]]:
    """Nilpotent plus a factorization into directly indecomposable factors of
    prime power order; the factorization is returned as witness."""
    if not is_nilpotent(alg):
        return Tri.NO, None
    fact = indecomposable_factorization(alg)
    if all(is_prime_power(s) for s in fact.sizes):
        return Tri.YES, fact
    return Tri.NO, fact


# ---------------------------------------------------------------------------
# Brute-force term-condition oracle (test support)


def term_condition_violation(
    alg: FiniteAlgebra,
    alpha: Partition,
    beta: Partition,
    gamma: Partition,
    extra_vars: int = 1,
    cap: int = 50_000,
):
    """Search the (1+extra_vars)-ary polynomial clone for a witness against
    C(alpha, beta; gamma).  Returns (table, a, b, cs, ds) or None.

    Independent of the pair-algebra route: this is the definitional condition
    checked over an explicitly generated polynomial clone.  Tables are probed
    as the closure grows, so a violation exits early; the None answer needs
    the closure to complete and raises CapExceeded otherwise.
    """
    from .algebra import poly_clone_on_points
    from .errors import CapExceeded

    n = alg.size
    k = 1 + extra_vars
    apairs = [(a, b) for a in range(n) for b in range(n) if a != b and alpha.same(a, b)]
    bpairs = [(c, d) for c in range(n) for d in range(n) if beta.same(c, d)]
    cd_tuples = [
        (tuple(cd[0] for cd in cds), tuple(cd[1] for cd in cds))
        for cds in itertools.product(bpairs, repeat=extra_vars)
    ]
    found: list = []

    def at(tab, args):
        i = 0
        for x in args:
            i = i * n + x
        return tab[i]

    def probe(tab) -> bool:
        for a, b in apairs:
            for cs, ds in cd_tuples:
                lhs = gamma.same(at(tab, (a,) + cs), at(tab, (a,) + ds))
                rhs = gamma.same(at(tab, (b,) + cs), at(tab, (b,) + ds))
                if lhs != rhs:
                    found.append((tab, a, b, cs, ds))
                    return True
        return False

    try:
        clone = kary_poly_clone(alg, k, cap)  # cached across triples
    except CapExceeded:
        # big clone: probe incrementally and exit on the first violation
        points = list(itertools.product(range(n), repeat=k))
        partial, hit = poly_clone_on_points(alg, points, k, cap, stop=probe)
        if hit is not None:
            return found[0]
        raise
    for tab in clone.tables:
        if probe(tab):
            return found[0]
    return None
