import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from mvcirc import algebra
from mvcirc import commutator as commutator_module
from mvcirc.algebra import FactStore, find_malcev_term, kary_poly_clone, poly_clone_on_points
from mvcirc.commutator import (
    _commutator,
    commutator,
    derived_series,
    indecomposable_factorization,
    is_abelian,
    is_affine,
    is_nilpotent,
    is_solvable,
    is_supernilpotent,
    lower_central_series,
    module_structure,
    nilpotency_class,
)
from mvcirc.congruence import congruence_lattice
from mvcirc.errors import CapExceeded, NotACongruence, NotMalcev, Tri
from mvcirc.partition import Partition
from mvcirc.zoo import get, zoo

from conftest import clone_cap, mod_congruence, one, pair_algebra_commutator, zero
from test_random_algebras import TWISTED_Z6, malcev_algebras, small_algebras

A3 = Partition.from_ids([0, 1, 1, 0, 0, 1])  # rotations vs reflections in the S3 numbering


# ---------------------------------------------------------------------------
# The commutator itself


def test_commutator_abelian_groups_vanish(z4, z6, z2xz2, z2, z3):
    for alg in (z4, z6, z2xz2, z2, z3):
        assert commutator(alg, one(alg), one(alg)) == zero(alg)


def test_commutator_s3_is_derived_subgroup(s3):
    assert commutator(s3, one(s3), one(s3)) == A3


def test_commutator_with_zero(z4, s3, lat2):
    for alg in (z4, s3, lat2):
        for alpha in congruence_lattice(alg).congruences:
            assert commutator(alg, zero(alg), alpha) == zero(alg)


def test_commutator_rejects_a_non_congruence(monkeypatch, z4):
    # 0 ~ 1 forces 1 ~ 2 under +1, so {0 1|2|3} is not a congruence of Z4
    bad = Partition.from_ids([0, 0, 1, 2])
    monkeypatch.setattr(algebra, "STORE", FactStore())
    with pytest.raises(NotACongruence):
        commutator(z4, bad, one(z4))
    cons = congruence_lattice(z4).congruences
    for a, b in itertools.product(cons, repeat=2):
        commutator(z4, a, b)
    for alpha, beta in ((bad, one(z4)), (one(z4), bad), (bad, bad)):
        with pytest.raises(NotACongruence):
            commutator(z4, alpha, beta)


def test_commutator_below_meet(z4, z6, s3, z4ring, z2xl2):
    for alg in (z4, z6, s3, z4ring, z2xl2):
        lat = congruence_lattice(alg)
        for a in lat.congruences:
            for b in lat.congruences:
                c = commutator(alg, a, b)
                assert c.leq(a.meet(b))


def test_commutator_monotone(z4, z6, s3, z4ring):
    for alg in (z4, z6, s3, z4ring):
        lat = congruence_lattice(alg)
        cons = lat.congruences
        for a, a2, b, b2 in itertools.product(cons, repeat=4):
            if a.leq(a2) and b.leq(b2):
                assert commutator(alg, a, b).leq(commutator(alg, a2, b2))


def test_commutator_symmetric_in_modular_context(z4, z6, s3, z4ring, z2xl2, majority):
    for alg in (z4, z6, s3, z4ring, z2xl2, majority):
        cons = congruence_lattice(alg).congruences
        for a in cons:
            for b in cons:
                assert commutator(alg, a, b) == commutator(alg, b, a)


def test_commutator_2lattice_full(lat2):
    assert commutator(lat2, one(lat2), one(lat2)) == one(lat2)  # C(1,1;0) fails


def test_z4ring_commutator_value(z4ring):
    # [1,1] for the nilpotent 4-element ring: the products 2xy land in {0,2}
    assert commutator(z4ring, one(z4ring), one(z4ring)) == mod_congruence(4, 2)


# ---------------------------------------------------------------------------
# Centralizers


def test_centralizes_examples(z4, s3):
    assert commutator(z4, one(z4), one(z4)).leq(zero(z4))
    assert not commutator(s3, one(s3), one(s3)).leq(zero(s3))
    for alg in (z4, s3):
        for a in congruence_lattice(alg).congruences:
            assert commutator(alg, a, a).leq(one(alg))


# ---------------------------------------------------------------------------
# Series and predicates


def test_series_z4(z4):
    assert lower_central_series(z4) == [one(z4), zero(z4)]
    assert nilpotency_class(z4) == 1


def test_series_s3(s3):
    assert derived_series(s3) == [one(s3), A3, zero(s3)]
    assert lower_central_series(s3) == [one(s3), A3]
    assert not is_nilpotent(s3)


def test_series_trivial(trivial):
    assert is_nilpotent(trivial)
    assert nilpotency_class(trivial) == 0


def test_predicates():
    assert is_abelian(get("Z2xZ2"))
    assert nilpotency_class(get("Z2xZ2")) == 1
    assert is_solvable(get("S3")) and not is_nilpotent(get("S3"))
    assert not is_solvable(get("2lattice"))
    assert is_nilpotent(get("Z4ring")) and not is_abelian(get("Z4ring"))
    assert nilpotency_class(get("Z4ring")) == 2


def test_is_affine():
    assert is_affine(get("Z6")) is Tri.YES
    assert is_affine(get("2lattice")) is Tri.NO
    assert is_affine(get("2boolean")) is Tri.NO


def test_is_supernilpotent():
    assert is_supernilpotent(get("Z6")) is Tri.YES
    assert sorted(f.size for f in indecomposable_factorization(get("Z6"))) == [2, 3]
    assert is_supernilpotent(get("Z4")) is Tri.YES
    assert [f.size for f in indecomposable_factorization(get("Z4"))] == [4]
    assert is_supernilpotent(get("S3")) is Tri.NO
    assert is_supernilpotent(get("Z4ring")) is Tri.YES


def test_factorization_z2xz2(z2xz2):
    assert sorted(f.size for f in indecomposable_factorization(z2xz2)) == [2, 2]


def test_group_commutator_equals_group_theoretic_derived():
    # abelian groups: derived subgroup trivial; S3: A3
    for name in ("Z2", "Z3", "Z4", "Z6", "Z2xZ2"):
        alg = get(name)
        assert commutator(alg, one(alg), one(alg)) == zero(alg)
    s3 = get("S3")
    assert commutator(s3, one(s3), one(s3)) == A3


# ---------------------------------------------------------------------------
# Brute-force term-condition oracle: the pair-algebra commutator must agree
# with the definitional condition wherever the bounded search can see

ORACLE_CAP = 50_000


def term_condition_violation(alg, alpha, beta, gamma, extra_vars=1):
    """Search the (1+extra_vars)-ary polynomial clone for a witness against
    C(alpha, beta; gamma).  Returns (table, a, b, cs, ds) or None.

    Independent of the pair-algebra route: this is the definitional condition
    checked over an explicitly generated polynomial clone.  Tables are probed
    as the closure grows, so a violation exits early; the None answer needs
    the closure to complete under the clone cap and raises CapExceeded
    otherwise.
    """
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
        clone = kary_poly_clone(alg, k)  # cached across triples
    except CapExceeded:
        # big clone: probe incrementally and exit on the first violation
        points = list(itertools.product(range(n), repeat=k))
        partial, hit = poly_clone_on_points(alg, points, k, stop=probe)
        if hit is not None:
            return found[0]
        raise
    for tab in clone.tables:
        if probe(tab):
            return found[0]
    return None


@pytest.mark.parametrize("name", ["2lattice", "2semilattice", "2boolean", "Z2",
                                  "Z3", "Z4", "Z2xZ2", "Z4ring", "majority", "Z2xL2", "AD2"])
def test_term_condition_oracle_never_contradicts(name):
    alg = get(name)
    cons = congruence_lattice(alg).congruences
    extra = 2 if alg.size <= 2 else 1
    with clone_cap(ORACLE_CAP):
        for alpha in cons:
            for beta in cons:
                gamma = commutator(alg, alpha, beta)
                # commutator <= gamma trivially here, so C(alpha,beta;gamma)
                # holds: the oracle must not find a violating polynomial
                assert term_condition_violation(alg, alpha, beta, gamma, extra) is None


def test_term_condition_oracle_detects_nonabelian(s3, lat2):
    # sanity in the other direction: C(1,1;0) fails for these
    with clone_cap(ORACLE_CAP):
        for alg in (s3, lat2):
            v = term_condition_violation(
                alg, Partition.one(alg.size), Partition.one(alg.size),
                Partition.zero(alg.size), extra_vars=1,
            )
            assert v is not None


# ---------------------------------------------------------------------------
# The kernel against the materialized pair algebra


def _kernel_matches_the_pair_algebra(alg):
    for a, b in itertools.product(congruence_lattice(alg).congruences, repeat=2):
        assert _commutator(alg, a, b) == pair_algebra_commutator(alg, a, b), (alg.name, a, b)


def test_kernel_matches_the_pair_algebra_on_every_zoo_pair():
    for entry in zoo():
        _kernel_matches_the_pair_algebra(entry.algebra)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_algebras(), malcev_algebras()))
def test_kernel_matches_the_pair_algebra_on_random_algebras(alg):
    _kernel_matches_the_pair_algebra(alg)


# ---------------------------------------------------------------------------
# Abelianness from the module structure


def _abelian_by_module_matches_the_pair_algebra(alg):
    """Once the Malcev search has found a term, is_abelian reads the module
    structure and runs no commutator; it must agree with [1, 1] = 0 over
    the materialized pair algebra, and an abelian algebra's affine forms
    must give back every op table."""
    want = pair_algebra_commutator(alg, one(alg), one(alg)).is_zero()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "STORE", FactStore())
        malcev = find_malcev_term(alg).status is Tri.YES
        if malcev:
            mp.setattr(commutator_module, "_commutator", None)
        assert is_abelian(alg) is want, alg
        if not malcev:
            return
        module = module_structure(alg)
    assert module.abelian is want
    if want:
        group, n = module.group, alg.size
        for op in alg.ops:
            c, maps = module.forms[op.name]
            for i, args in enumerate(itertools.product(range(n), repeat=op.arity)):
                value = c
                for e, x in zip(maps, args):
                    value = group.add(value, e[x])
                assert value == op.table[i], (alg.name, op.name, args)


def test_is_abelian_from_the_module_structure_on_the_zoo():
    for entry in zoo():
        _abelian_by_module_matches_the_pair_algebra(entry.algebra)


@settings(max_examples=60, deadline=None)
@given(malcev_algebras())
@example(TWISTED_Z6)
def test_is_abelian_from_the_module_structure_on_malcev_algebras(alg):
    _abelian_by_module_matches_the_pair_algebra(alg)


def test_twisted_z6_fails_its_module_structure():
    # u(x) = 4 (x mod 2) sends 1 + 1 = 2 to 0 but u(1) + u(1) to 2
    assert find_malcev_term(TWISTED_Z6).status is Tri.YES
    module = module_structure(TWISTED_Z6)
    assert module.failure == "op u: a coefficient is not additive"
    assert not module.abelian and not is_abelian(TWISTED_Z6)
    assert is_affine(TWISTED_Z6) is Tri.NO


def test_module_structure_needs_a_malcev_term(lat2):
    with pytest.raises(NotMalcev):
        module_structure(lat2)
