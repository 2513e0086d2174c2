"""Radical decomposition, DL-likeness, and the tractability classification.

The per-problem verdicts are a pure function of structural flags:

  SCSAT: affine -> PolyTime, else NP-complete regime.
  MCSAT: decomposes as (affine x DL-like) -> PolyTime, else NP regime.
  CSAT:  decomposes as (supernilpotent x DL-like) -> PolyTime;
         no (nilpotent x DL-like) decomposition -> NP regime; else open gap.
  CEQV:  supernilpotent -> PolyTime; not nilpotent -> coNP regime; else open gap.

"Regime" verdicts assert membership in a hardness class, not a certificate.
They are only meaningful when the algebra generates a congruence modular
variety: with that refuted the verdicts degrade to Unknown, and with the
check undecided (its closure outgrew algebra.CLONE_CAP) they carry a
CM-assumed caveat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import (
    FiniteAlgebra,
    find_directed_gumm_terms,
    kary_poly_clone,
    quotient,
    stored,
)
from .commutator import (
    is_abelian,
    is_affine,
    is_nilpotent,
    is_solvable,
    is_supernilpotent,
    nilpotency_class,
)
from .congruence import congruence_lattice, factor_pairs
from .errors import Tri, UntypedLattice
from .partition import Partition
from .tct import TypedLattice, pair_ops, typed_congruence_lattice


def radical(alg: FiniteAlgebra, typed: TypedLattice, i: int) -> Partition:
    """Largest congruence rho with every cover pair inside [0, rho] labeled
    i: the join of the rho below no cover labeled another type, checked to
    hold only covers labeled i (UntypedLattice otherwise)."""
    if i not in (2, 4):
        raise ValueError("radical index must be 2 or 4")
    lat = typed.lattice
    other = impure = 0      # the upper ends of the covers labeled another type, or not i
    for (a, b), label in typed.labels.items():
        if label != i:
            impure |= 1 << b
            if label is not None:
                other |= 1 << b
    pure = sum(1 << r for r, below in enumerate(lat.below) if not below & other)
    # the join: the upper bound of pure with the most classes, so the least index
    top = next(r for r, below in enumerate(lat.below) if below & pure == pure)
    if lat.below[top] & impure:
        raise UntypedLattice(f"interval [0,{lat.congruences[top]}] is not pure type {i}")
    return lat.congruences[top]


@dataclass
class Decomposition:
    n_factor: FiniteAlgebra
    d_factor: FiniteAlgebra
    rho2: Partition
    rho4: Partition
    iso: list[tuple[int, int]]   # a -> (a/rho4, a/rho2)


def decompose_nd(alg: FiniteAlgebra) -> Optional[Decomposition]:
    """A = N x D along the type radicals, when the typeset is inside {2,4}
    and (rho4, rho2) is a factor congruence pair."""
    typed = typed_congruence_lattice(alg)
    if not typed.fully_typed:
        raise UntypedLattice(f"Con({alg.name}) has unlabeled covers")
    if not typed.typeset() <= {2, 4}:
        return None
    rho2 = radical(alg, typed, 2)
    rho4 = radical(alg, typed, 4)
    for fp in factor_pairs(alg):
        if fp.alpha1 == rho4 and fp.alpha2 == rho2:
            return Decomposition(fp.left.rename(f"{alg.name}.N"),
                                 fp.right.rename(f"{alg.name}.D"), rho2, rho4, fp.iso)
    return None


def is_dl_like(alg: FiniteAlgebra) -> tuple[Tri, list[Partition]]:
    """Subdirect product of 2-element lattice-like algebras: the meet of all
    congruences with a 2-element lattice-like quotient must be the diagonal.
    The witness is the list of those congruences.  UNKNOWN when a quotient's
    check hit the cap and the witnesses found do not meet to the diagonal.
    The answer is stored per algebra under "dl_like"."""
    return stored(alg, "dl_like", lambda: _is_dl_like(alg))


def _is_dl_like(alg: FiniteAlgebra) -> tuple[Tri, list[Partition]]:
    """A 2-element quotient is polynomially equivalent to the 2-element
    lattice iff its polynomials realize meet and join on {0, 1} for one
    ordering (a meet for one is a join for the other) and not the swap:
    tct.pair_ops on the quotient.  The swap alone rules a quotient out, as
    does a completed binary closure without both; a capped closure that
    rules nothing out leaves the quotient undecided."""
    witnesses = []
    capped = False
    for theta in congruence_lattice(alg).congruences:
        if theta.num_classes != 2:
            continue
        ops = pair_ops(quotient(alg, theta), (0, 1))
        if ops.lattice is Tri.NO or ops.complement is Tri.YES:
            continue
        if ops.lattice is Tri.YES and ops.complement is Tri.NO:
            witnesses.append(theta)
        else:
            capped = True
    meet = Partition.one(alg.size)
    for w in witnesses:
        meet = meet.meet(w)
    if meet.is_zero():
        return Tri.YES, witnesses
    return (Tri.UNKNOWN if capped else Tri.NO), witnesses


def is_poly_equiv_to_some_lattice(alg: FiniteAlgebra) -> bool:
    """Whether some pair of binary polynomials turns the whole universe into a
    lattice with every unary polynomial monotone for its order."""
    clone2 = kary_poly_clone(alg, 2)
    clone1 = kary_poly_clone(alg, 1)
    n = alg.size

    def at(tab, x, y):
        return tab[x * n + y]

    meets = []
    for tab in clone2.tables:
        if all(at(tab, x, x) == x for x in range(n)) and \
           all(at(tab, x, y) == at(tab, y, x) for x in range(n) for y in range(n)) and \
           all(at(tab, at(tab, x, y), z) == at(tab, x, at(tab, y, z))
               for x in range(n) for y in range(n) for z in range(n)):
            meets.append(tab)
    for meet in meets:
        # induced order: x <= y iff meet(x,y) = x
        leq = [[at(meet, x, y) == x for y in range(n)] for x in range(n)]
        for join in meets:
            if all(
                (at(join, x, y) == y) == leq[x][y]
                for x in range(n) for y in range(n)
            ):
                # join is the lub for the same order; check unary monotonicity
                mono = all(
                    not leq[x][y] or leq[t[x]][t[y]]
                    for t in clone1.tables
                    for x in range(n)
                    for y in range(n)
                )
                if mono:
                    return True
    return False


# ---------------------------------------------------------------------------
# Classification


@dataclass
class Verdict:
    kind: str      # PolyTime | NPComplete-regime | CoNPComplete-regime | OpenGap | Unknown
    reason: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "reason": self.reason}


@dataclass
class ClassificationReport:
    algebra: str
    size: int
    cm: Tri
    abelian: bool
    solvable: bool
    nilpotent: bool
    nilpotency_class: Optional[int]
    supernilpotent: Tri
    affine: Tri
    dl_like: Tri
    typeset: Optional[list]
    decomposition: Optional[dict]
    verdicts: dict[str, Verdict]
    caveats: list[str] = field(default_factory=list)
    dl_witnesses: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "algebra": self.algebra,
            "size": self.size,
            "flags": {
                "cm": self.cm.value,
                "abelian": self.abelian,
                "solvable": self.solvable,
                "nilpotent": self.nilpotent,
                "nilpotency_class": self.nilpotency_class,
                "supernilpotent": self.supernilpotent.value,
                "affine": self.affine.value,
                "dl_like": self.dl_like.value,
            },
            "typeset": self.typeset,
            "decomposition": self.decomposition,
            "verdicts": {k: v.as_dict() for k, v in self.verdicts.items()},
            "witnesses": {"dl_like": self.dl_witnesses},
            "caveats": self.caveats,
        }


def _tri_and(a: Tri, b: Tri) -> Tri:
    if a is Tri.NO or b is Tri.NO:
        return Tri.NO
    if a is Tri.UNKNOWN or b is Tri.UNKNOWN:
        return Tri.UNKNOWN
    return Tri.YES


def _tri_or(a: Tri, b: Tri) -> Tri:
    if a is Tri.YES or b is Tri.YES:
        return Tri.YES
    if a is Tri.UNKNOWN or b is Tri.UNKNOWN:
        return Tri.UNKNOWN
    return Tri.NO


def _decomposition_flags(alg: FiniteAlgebra) -> tuple[Tri, Tri, Tri]:
    """Whether some factor-congruence pair splits alg as N x D with D
    DL-like and N supernilpotent, nilpotent or affine, in that order: YES if
    some pair says YES, else UNKNOWN if some pair says UNKNOWN, else NO.
    Trivial pairs (0,1)/(1,0) participate.  One pass over the pairs; a flag
    already YES reads no further left factors."""
    sn = nil = aff = Tri.NO
    for fp in factor_pairs(alg):
        if sn is nil is aff is Tri.YES:
            break
        dl = is_dl_like(fp.right)[0]
        if sn is not Tri.YES:
            sn = _tri_or(sn, _tri_and(is_supernilpotent(fp.left), dl))
        if nil is not Tri.YES:
            nil = _tri_or(nil, _tri_and(Tri.YES if is_nilpotent(fp.left) else Tri.NO, dl))
        if aff is not Tri.YES:
            aff = _tri_or(aff, _tri_and(is_affine(fp.left), dl))
    return sn, nil, aff


def classify(alg: FiniteAlgebra) -> ClassificationReport:
    """Structural flags and per-problem verdicts, stored per (algebra,
    name), since the report carries the name."""
    return stored(alg, ("classify", alg.name), lambda: _classify(alg))


def _classify(alg: FiniteAlgebra) -> ClassificationReport:
    gumm = find_directed_gumm_terms(alg)
    cm = gumm.status

    abelian = is_abelian(alg)
    solvable = is_solvable(alg)
    nilpotent = is_nilpotent(alg)
    nclass = nilpotency_class(alg)
    supernil = is_supernilpotent(alg)
    affine = is_affine(alg)
    dl, dl_wit = is_dl_like(alg)

    decomposition = None
    try:
        dec = decompose_nd(alg)
    except UntypedLattice:
        dec = None
    if dec is not None:
        decomposition = {
            "N": {"name": dec.n_factor.name, "size": dec.n_factor.size},
            "D": {"name": dec.d_factor.name, "size": dec.d_factor.size},
            "rho2": str(dec.rho2),
            "rho4": str(dec.rho4),
            "iso": [list(pair) for pair in dec.iso],
        }

    sn_dl, nil_dl, aff_dl = _decomposition_flags(alg)

    caveats: list[str] = []
    if cm is Tri.NO:
        verdicts = {
            p: Verdict("Unknown", "not congruence modular; out of scope")
            for p in ("CSAT", "MCSAT", "SCSAT", "CEQV")
        }
        caveats.append("variety is not congruence modular; the decision table does not apply")
    else:
        if cm is Tri.UNKNOWN:
            caveats.append("CM-assumed: congruence modularity unverified (search capped)")
        verdicts = {}
        # SCSAT
        if affine is Tri.YES:
            verdicts["SCSAT"] = Verdict("PolyTime", "affine: Gaussian elimination over the module")
        elif affine is Tri.NO:
            verdicts["SCSAT"] = Verdict("NPComplete-regime", "not affine")
        else:
            verdicts["SCSAT"] = Verdict("Unknown", "affineness undecided")
        # MCSAT
        if aff_dl is Tri.YES:
            verdicts["MCSAT"] = Verdict("PolyTime", "decomposes as affine x DL-like")
        elif aff_dl is Tri.NO:
            verdicts["MCSAT"] = Verdict("NPComplete-regime", "no affine x DL-like decomposition")
        else:
            verdicts["MCSAT"] = Verdict("Unknown", "decomposition undecided")
        # CSAT
        if sn_dl is Tri.YES:
            verdicts["CSAT"] = Verdict("PolyTime", "decomposes as supernilpotent x DL-like")
        elif nil_dl is Tri.NO:
            verdicts["CSAT"] = Verdict("NPComplete-regime", "no nilpotent x DL-like decomposition")
        elif sn_dl is Tri.UNKNOWN or nil_dl is Tri.UNKNOWN:
            verdicts["CSAT"] = Verdict("Unknown", "decomposition undecided")
        else:
            verdicts["CSAT"] = Verdict("OpenGap", "nilpotent x DL-like but not supernilpotent x DL-like")
        # CEQV
        if supernil is Tri.YES:
            verdicts["CEQV"] = Verdict("PolyTime", "supernilpotent")
        elif not nilpotent:
            verdicts["CEQV"] = Verdict("CoNPComplete-regime", "not nilpotent")
        elif supernil is Tri.UNKNOWN:
            verdicts["CEQV"] = Verdict("Unknown", "supernilpotency undecided")
        else:
            verdicts["CEQV"] = Verdict("OpenGap", "nilpotent but not supernilpotent")

    return ClassificationReport(
        algebra=alg.name,
        size=alg.size,
        cm=cm,
        abelian=abelian,
        solvable=solvable,
        nilpotent=nilpotent,
        nilpotency_class=nclass,
        supernilpotent=supernil,
        affine=affine,
        dl_like=dl,
        typeset=typed_congruence_lattice(alg).typeset_list(),
        decomposition=decomposition,
        verdicts=verdicts,
        caveats=caveats,
        dl_witnesses=[str(w) for w in dl_wit],
    )
