"""The binary modular commutator, the series built from it, the module
structure of a Malcev algebra, and the derived predicates.

The definitional term condition quantifies over all polynomials, so [a,b] is
computed through the pair algebra A(a) = {(x,y) : x a y}: generate the
congruence D on A(a) from {((u,u),(v,v)) : u b v} and read off
{(x,y) : (x,y) D (y,y)}, closed to a congruence.  The kernel generates D
on the pairs themselves, walking pairs of A's elementary translations with
a-related contexts, and never builds A(a).  An algebra whose Malcev search
has already found a term d is abelian exactly when its module structure
says so (see Module), and then every [a,b] lies below [1,1] = 0.  The test
suite cross-checks the kernel against the materialized pair algebra and
against a brute-force term-condition oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import (
    FiniteAlgebra,
    Term,
    find_malcev_term,
    known,
    require_congruence,
    stored,
    term_values,
    translation_sets,
)
from .congruence import congruence_from_pairs, nontrivial_factor_pair
from .errors import NotAffine, NotMalcev, Tri
from .partition import Classes, Partition


def commutator(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> Partition:
    """[alpha, beta], kept in the per-algebra store under ("commutator",
    alpha, beta).  Both partitions are checked to be congruences when the
    key is missed; a stored key passed that check when it was stored.  Zero
    when the algebra is abelian by its module structure, since
    [alpha, beta] <= [1, 1]."""
    def build() -> Partition:
        require_congruence(alg, alpha)
        require_congruence(alg, beta)
        if _abelian_by_module(alg):
            return Partition.zero(alg.size)
        return _commutator(alg, alpha, beta)

    return stored(alg, ("commutator", alpha, beta), build)


def _commutator(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> Partition:
    """The pair-algebra commutator without the pair algebra.  A translation
    of A(alpha) sends (x, y) to (t_c(x), t_d(y)), where t_c and t_d are
    elementary translations of A at one op and argument position whose
    contexts c and d are alpha-related entry by entry; so for each set T of
    A's translations whose contexts lie in one alpha-class
    (translation_sets), every pair in T x T is one.  D is generated over
    the pairs: when (x1, y1) and (x2, y2) merge, each T merges the images
    (u1, v1) and (u2, v2) for every (u1, u2) in {(t(x1), t(x2)) : t in T}
    and (v1, v2) in {(t(y1), t(y2)) : t in T}, sets that are often much
    smaller than T.  D's classes are one Classes over the pair indices, so
    a pair's class is one list lookup."""
    n = alg.size
    ids = alpha.ids
    code = [-1] * (n * n)            # x * n + y -> index of the pair (x, y)
    pairs: list[tuple[int, int]] = []
    for x in range(n):
        for y in range(n):
            if ids[x] == ids[y]:
                code[x * n + y] = len(pairs)
                pairs.append((x, y))
    delta = Classes(len(pairs))      # D's classes of the pair indices
    label, merge, work = delta.label, delta.merge, delta.queue
    for u in range(n):
        for v in range(u + 1, n):
            if beta.same(u, v):
                merge(code[u * n + u], code[v * n + v])
    sets = translation_sets(alg, alpha)
    images: list[dict[int, tuple[tuple[int, int], ...]]] = [{} for _ in sets]

    def image(s: int, a: int, b: int) -> tuple[tuple[int, int], ...]:
        """{(t(a), t(b)) : t in sets[s]}, kept per (a, b)."""
        seen = images[s]
        key = a * n + b
        if key not in seen:
            seen[key] = tuple(dict.fromkeys((t[a], t[b]) for t in sets[s]))
        return seen[key]

    while work:
        a, b = work.pop()
        (x1, y1), (x2, y2) = pairs[a], pairs[b]
        for s in range(len(sets)):
            vs = image(s, y1, y2)
            for u1, u2 in image(s, x1, x2):
                r1, r2 = u1 * n, u2 * n
                for v1, v2 in vs:
                    p, q = code[r1 + v1], code[r2 + v2]
                    if label[p] != label[q]:
                        merge(p, q)
    related = [(x, y) for (x, y) in pairs
               if x != y and label[code[x * n + y]] == label[code[y * n + y]]]
    return congruence_from_pairs(alg, related)


# ---------------------------------------------------------------------------
# The module structure of a Malcev algebra


class AbelianGroup:
    """The group (A, +) with x + y = d(x, 0, y) for a Malcev term d, and
    neutral element 0; the constructor checks the group axioms and raises
    NotAffine at the first that fails, since a Malcev algebra whose
    d(x, 0, y) is no abelian group is not abelian (see Module)."""

    zero = 0

    def __init__(self, alg: FiniteAlgebra, d_term: Term):
        n = alg.size
        values, = term_values(alg, (d_term,), [(x, 0, y) for x in range(n) for y in range(n)])
        plus = [values[x * n:(x + 1) * n] for x in range(n)]
        self.plus = plus
        for x in range(n):
            if plus[x][0] != x or plus[0][x] != x:
                raise NotAffine("zero is not neutral for d(x,0,y)")
            if plus[x] != [plus[y][x] for y in range(n)]:
                raise NotAffine("addition is not commutative")
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if plus[plus[x][y]][z] != plus[x][plus[y][z]]:
                        raise NotAffine("addition is not associative")
        neg = [None] * n
        for x in range(n):
            for y in range(n):
                if plus[x][y] == 0:
                    neg[x] = y
        if any(v is None for v in neg):
            raise NotAffine("addition lacks inverses")
        self.neg = neg

    def add(self, x: int, y: int) -> int:
        return self.plus[x][y]

    def sub(self, x: int, y: int) -> int:
        return self.plus[x][self.neg[y]]


@dataclass(frozen=True)
class Module:
    """The module structure of a Malcev algebra A with Malcev term d: the
    group x + y = d(x, 0, y) (None when it fails a group axiom) and, for
    each basic operation f of arity r, its constant c = f(0, .., 0) and the
    maps e_i(x) = f(0, .., x, .., 0) - c, with f(x_1, .., x_r) =
    c + e_1(x_1) + .. + e_r(x_r) checked on f's whole table and each e_i
    checked to be additive.  failure names the first check that failed;
    forms is empty unless every check passed.

    Theorem: a Malcev algebra is abelian iff every basic operation is affine,
    f = c + sum e_i(x_i) with each e_i an endomorphism, over the abelian
    group x + y = d(x, 0, y) (Herrmann 1979; Freese and McKenzie,
    Commutator Theory for Congruence Modular Varieties, 1987, Ch. 5).  If
    every check passes, every term operation of A is a polynomial of a
    module, so A satisfies the term condition.  Conversely an abelian A with
    a Malcev term is polynomially equivalent to a module, its Malcev term
    is x - y + z there and so unique, d(x, 0, y) is that module's addition
    moved to neutral element 0, and every basic operation is affine over it;
    its c and e_i are then the ones read off above.  So one failed check
    refutes abelianness."""

    group: Optional[AbelianGroup]
    forms: dict[str, tuple[int, tuple[tuple[int, ...], ...]]]
    failure: Optional[str]

    @property
    def abelian(self) -> bool:
        return self.failure is None


def module_structure(alg: FiniteAlgebra) -> Module:
    """The module structure of alg from its Malcev term, kept in the
    per-algebra store under "module"; NotMalcev unless the Malcev search
    finds a term."""
    found = find_malcev_term(alg)
    if found.status is not Tri.YES:
        raise NotMalcev(f"no Malcev term found for {alg.name}")
    return stored(alg, "module", lambda: _module_structure(alg, found.value))


def _module_structure(alg: FiniteAlgebra, d_term: Term) -> Module:
    n = alg.size
    try:
        group = AbelianGroup(alg, d_term)
    except NotAffine as exc:
        return Module(None, {}, str(exc))
    plus, sub = group.plus, group.sub
    forms = {}
    for op in alg.ops:
        r, table = op.arity, op.table
        c = table[0]
        maps = tuple(tuple(sub(table[x * n ** (r - 1 - i)], c) for x in range(n))
                     for i in range(r))
        affine = [c]     # c + e_1(x_1) + .. + e_i(x_i) over the first i arguments
        for e in maps:
            if any(e[plus[x][y]] != plus[e[x]][e[y]] for x in range(n) for y in range(n)):
                return Module(group, {}, f"op {op.name}: a coefficient is not additive")
            affine = [plus[v][e[x]] for v in affine for x in range(n)]
        if tuple(affine) != table:
            return Module(group, {}, f"op {op.name} is not affine")
        forms[op.name] = (c, maps)
    return Module(group, forms, None)


def _abelian_by_module(alg: FiniteAlgebra) -> Optional[bool]:
    """Whether alg is abelian, read from its module structure when its
    Malcev search has already found a term; None otherwise.  It starts no
    Malcev search."""
    found = known(alg, "malcev")
    if found is None or found.status is not Tri.YES:
        return None
    return module_structure(alg).abelian


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
    """[1, 1] = 0: read from the module structure once the Malcev search has
    found a term, otherwise from the commutator."""
    by_module = _abelian_by_module(alg)
    if by_module is not None:
        return by_module
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
    fp = nontrivial_factor_pair(alg)
    if fp is None:
        return [alg]
    return indecomposable_factorization(fp.left) + indecomposable_factorization(fp.right)


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
