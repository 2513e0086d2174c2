"""Minimal sets, traces, and the five-way type labeling of prime quotients.

typed_congruence_lattice types each class of perspective covers once, as
the label of 0 < beta/alpha in the quotient A/alpha of the member with the
coarsest lower congruence (Hobby and McKenzie, The Structure of Finite
Algebras, 1988, Lemma 6.2 and Definition 5.1; see _typed_congruence_lattice).

A quotient with a Malcev term needs no search: it generates a
congruence-permutable variety, which omits types 1, 4 and 5, and a prime
quotient 0 < beta is abelian iff its type is 1 or 2 (Hobby and McKenzie,
Ch. 5 and 9).  So its label is 2 when [beta, beta] = 0 and 3 otherwise,
read off the stored commutator.

Without a Malcev term, the label comes from a ladder of clone searches.
For a quotient alpha < beta, the candidate sets are ranges f(A) of unary
polynomials with f(beta) not inside alpha and at least two elements; the
inclusion-minimal ones are the minimal sets.  The local label
is decided by what the polynomial clone realizes on a trace N.  When beta is
abelian over alpha, the minimal algebra A|_N/alpha is either essentially
unary (label 1) or a vector space (label 2) (Palfy, Unary polynomials in
algebras I, Algebra Universalis 1984; Hobby and McKenzie, Ch. 4), so the
label is 2 exactly when a binary polynomial p with p(N^2) inside N depends
on both arguments modulo alpha.  Otherwise the trace has two elements
{a, b} and pair_ops asks which of meet, join and the swap a <-> b the
polynomials realize on it: meet and join with the swap give label 3,
without it 4, and just one of meet and join label 5.  The same question
decides DL-likeness on 2-element quotients (structure) and yields the
Boolean terms of the 3-SAT reduction (reductions).  Every search is a
clone closure bounded by algebra.CLONE_CAP: a positive witness exits
early, a negative answer needs the restricted clone to close.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import (
    Clone,
    FiniteAlgebra,
    Table,
    Term,
    find_malcev_term,
    kary_poly_clone,
    poly_clone_on_points,
    quotient,
    stored,
)
from .commutator import commutator
from .congruence import CongruenceLattice, congruence_lattice
from .errors import CapExceeded, Tri
from .partition import Partition


@dataclass
class MinimalSet:
    elements: tuple[int, ...]
    idempotent_witness: Optional[Term]           # a term for e_U, e_U(A) = U
    traces: list[tuple[int, ...]]


def minimal_sets(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> list[MinimalSet]:
    """Inclusion-minimal ranges f(A), |f(A)| >= 2, f in Pol_1, f(beta) !<= alpha."""
    if not alpha.leq(beta) or alpha == beta:
        raise ValueError("need alpha < beta")
    clone = kary_poly_clone(alg, 1)
    n = alg.size
    bpairs = [(a, b) for a in range(n) for b in range(a + 1, n) if beta.same(a, b)]
    qualifying: dict[frozenset, Table] = {}
    for tab in clone.tables:
        rng = frozenset(tab)
        if len(rng) < 2:
            continue
        if any(not alpha.same(tab[a], tab[b]) for a, b in bpairs):
            qualifying.setdefault(rng, tab)
    minimal = [
        rng
        for rng in qualifying
        if not any(other < rng for other in qualifying)
    ]
    out = []
    for rng in sorted(minimal, key=lambda r: (len(r), sorted(r))):
        u = tuple(sorted(rng))
        uset = set(u)
        e_wit = None
        for tab in clone.tables:
            if set(tab) == uset and all(tab[tab[x]] == tab[x] for x in range(n)):
                e_wit = clone.witness(tab)
                break
        out.append(MinimalSet(u, e_wit, _traces(alpha, beta, u)))
    return out


def _traces(alpha: Partition, beta: Partition, u: Sequence[int]) -> list[tuple[int, ...]]:
    by_beta: dict[int, list[int]] = {}
    for x in u:
        by_beta.setdefault(beta.class_of(x), []).append(x)
    traces = []
    for cls in by_beta.values():
        if len({alpha.class_of(x) for x in cls}) >= 2:
            traces.append(tuple(sorted(cls)))
    return traces


# ---------------------------------------------------------------------------
# Restricted clone searches


def _binary_on_trace(alg: FiniteAlgebra, alpha: Partition, trace: Sequence[int]) -> Tri:
    """Binary polynomial p with p(N^2) inside the trace N that depends on
    both arguments modulo alpha: the first such table in the closure of the
    binary polynomial clone over N x N, in product order."""
    m = len(trace)
    nset = set(trace)

    def both(tab: Table) -> bool:
        if any(v not in nset for v in tab):
            return False
        rows = [[alpha.class_of(v) for v in tab[i * m:(i + 1) * m]] for i in range(m)]
        return (any(len(set(row)) > 1 for row in rows)
                and any(len(set(col)) > 1 for col in zip(*rows)))

    pts = list(itertools.product(trace, repeat=2))
    return _outcome(*poly_clone_on_points(alg, pts, 2, stop=both))


def _outcome(clone: Clone, hit: Optional[Table]) -> Tri:
    """YES when a closure's stop matched, NO when it completed without."""
    if hit is not None:
        return Tri.YES
    return Tri.NO if clone.complete else Tri.UNKNOWN


@dataclass(frozen=True)
class PairOps:
    """The first witness terms, or None, of meet, join (for a < b) and the
    swap a <-> b among the polynomials of an algebra on {a, b}; lattice is
    YES with both meet and join and complement YES with the swap, and
    either is NO only when its closure completed."""

    meet: Optional[Term]
    join: Optional[Term]
    swap: Optional[Term]
    lattice: Tri
    complement: Tri


def pair_ops(alg: FiniteAlgebra, pair: Sequence[int]) -> PairOps:
    """The binary polynomial clone closed over {a, b}^2 with a stop once it
    holds meet and join, and the unary one over {a, b} with a stop at the
    swap.  The 2-point swap is the ladder's complement test: on a 2-element
    trace {a, b} of a minimal set U, any unary polynomial f with f(a) = b
    and f(b) = a gives e_U o f, which swaps a and b, so does not collapse
    beta into alpha, and has range inside U, hence exactly U by minimality;
    conversely such a polynomial restricts to the swap on {a, b}."""
    a, b = sorted(pair)
    meet_tab, join_tab = (a, a, a, b), (a, b, b, b)
    found = set()

    def both_found(tab: Table) -> bool:
        if tuple(tab) in (meet_tab, join_tab):
            found.add(tuple(tab))
        return len(found) == 2

    binary, both = poly_clone_on_points(alg, list(itertools.product((a, b), repeat=2)), 2,
                                        stop=both_found)
    unary, swap = poly_clone_on_points(alg, [(a,), (b,)], 1,
                                       stop=lambda tab: tab[0] == b and tab[1] == a)
    return PairOps(*(binary.witness(t) if t in found else None for t in (meet_tab, join_tab)),
                   unary.witness(swap) if swap is not None else None,
                   _outcome(binary, both), _outcome(unary, swap))


def type_of(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> Optional[int]:
    """Label in 1..5 for the quotient alpha < beta, or None when undecided.

    With a Malcev term the label is read off the commutator: 2 when
    [beta, beta] <= alpha, else 3; an algebra abelian by its module
    structure has every commutator 0, so every label 2.  A Malcev algebra
    generates a congruence-permutable variety, which omits types 1, 4 and
    5, and a prime quotient is abelian iff its type is 1 or 2 (Hobby and
    McKenzie, The Structure of Finite Algebras, 1988, Ch. 5 and 9).  Only
    when the Malcev search says NO or UNKNOWN does _type_by_search run.
    """
    if not alpha.leq(beta) or alpha == beta:
        raise ValueError("need alpha < beta")
    if find_malcev_term(alg).status is Tri.YES:
        return 2 if commutator(alg, beta, beta).leq(alpha) else 3
    return _type_by_search(alg, alpha, beta)


def _type_by_search(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> Optional[int]:
    """The label from restricted clone searches on minimal sets.

    Ladder: beta abelian over alpha splits 2 from 1 on a trace N: the binary
    polynomial clone closed over N x N holds a table with values in N that
    depends on both arguments modulo alpha (label 2), holds none (label 1),
    or outgrows the cap (undecided).  A minimal algebra on a trace that is
    abelian is a vector space or essentially unary (Palfy 1984; Hobby and
    McKenzie, The Structure of Finite Algebras, Ch. 4), and only a vector
    space has a binary polynomial depending on both arguments.  Otherwise
    pair_ops on a 2-element trace decides: meet and join give 4, plus the
    swap 3, and just one of meet and join gives 5.  All traces of a prime
    quotient are polynomially isomorphic (Hobby and McKenzie, Ch. 2), so
    the first trace of the first minimal set decides.
    """
    try:
        msets = minimal_sets(alg, alpha, beta)
    except CapExceeded:
        return None
    if not msets:
        return None
    tr = (msets[0].traces or [msets[0].elements])[0]
    if commutator(alg, beta, beta).leq(alpha):
        vs = _binary_on_trace(alg, alpha, tr)
        return None if vs is Tri.UNKNOWN else 2 if vs is Tri.YES else 1
    if len(tr) != 2:
        return None
    ops = pair_ops(alg, tr)
    if ops.lattice is Tri.YES and ops.complement is not Tri.UNKNOWN:
        return 3 if ops.complement is Tri.YES else 4
    if ops.lattice is Tri.NO and (ops.meet is not None or ops.join is not None):
        return 5
    return None


@dataclass
class TypedLattice:
    lattice: CongruenceLattice
    labels: dict[tuple[int, int], Optional[int]]  # cover (lo, hi) index pair -> label

    @property
    def fully_typed(self) -> bool:
        return all(v is not None for v in self.labels.values())

    def typeset(self) -> set:
        return set(self.labels.values())

    def typeset_list(self) -> list:
        """The typeset as output lists it: labels in order, then "unknown"
        when some label is undecided."""
        ts = self.typeset()
        return sorted(x for x in ts if x is not None) + (["unknown"] if None in ts else [])


def typed_congruence_lattice(alg: FiniteAlgebra) -> TypedLattice:
    """Con(alg) with every cover labeled, stored per algebra under "typed"."""
    return stored(alg, "typed", lambda: _typed_congruence_lattice(alg))


def _typed_congruence_lattice(alg: FiniteAlgebra) -> TypedLattice:
    """Every cover's label.  The covers are grouped by perspectivity and one
    member of each group is typed, on its own smallest quotient, by two
    lemmas that hold in every finite algebra:

    - Quotients: for alpha < beta a cover in Con(A), typ(alpha, beta) in A
      equals typ(0, beta/alpha) in A/alpha.  The unary polynomials of
      A/alpha are the maps f/alpha for f in Pol_1(A), f(beta) is inside
      alpha iff f/alpha collapses beta/alpha, so the minimal sets and
      traces of A/alpha are those of A read modulo alpha, and so are the
      minimal algebras A|_N / alpha whose type is the label (Hobby and
      McKenzie, The Structure of Finite Algebras, 1988, Definition 5.1).
    - Perspectivity: for covers alpha < beta and gamma < delta with
      beta ^ gamma = alpha and beta v gamma = delta, M_A(alpha, beta) =
      M_A(gamma, delta) and typ(alpha, beta) = typ(gamma, delta) (Hobby and
      McKenzie, Lemma 6.2): a unary polynomial f has f(beta) inside alpha
      iff f(delta) is inside gamma.

    So a group takes the label of its member with the coarsest lower
    congruence alpha, typed as (0, beta/alpha) in the stored
    quotient(alg, alpha) through type_of, which reads the commutator when
    that quotient has a Malcev term; while that is undecided, the next
    coarsest member is typed.  CongruenceLattice.perspectivity_classes
    groups the covers by reading their joins off the lattice's order masks.
    """
    lat = congruence_lattice(alg)
    cons = lat.congruences
    labels: dict[tuple[int, int], Optional[int]] = {}
    for group in lat.perspectivity_classes():
        for lo, hi in sorted(group, key=lambda cover: -cover[0]):
            small = quotient(alg, cons[lo])
            # beta/alpha: class k of alpha is element k of the quotient
            over = Partition.from_ids(list(dict(zip(cons[lo].ids, cons[hi].ids)).values()))
            label = type_of(small, Partition.zero(small.size), over)
            if label is not None:
                break
        labels.update(dict.fromkeys(group, label))
    return TypedLattice(lat, {cover: labels[cover] for cover in lat.covers})
