import pytest
from hypothesis import given, settings, strategies as st

from mvcirc.algebra import is_congruence
from mvcirc.congruence import (
    congruence_from_pairs,
    congruence_lattice,
    factor_pairs,
)
from mvcirc.partition import Partition
from mvcirc.zoo import get

from conftest import all_partitions, cover_pairs, e2_power, mod_congruence, partition_join
from test_random_algebras import small_algebras, small_products


def brute_force_congruences(alg):
    """Independent oracle: filter every partition of the universe."""
    return {p for p in all_partitions(alg.size) if is_congruence(alg, p)}


# ---------------------------------------------------------------------------
# Principal congruences


def test_principal_z4(z4):
    assert congruence_from_pairs(z4, [(0, 2)]) == mod_congruence(4, 2)
    assert congruence_from_pairs(z4, [(0, 1)]) == Partition.one(4)


def test_principal_diagonal(z6):
    for a in range(6):
        assert congruence_from_pairs(z6, [(a, a)]) == Partition.zero(6)


def test_principal_s3_three_cycle(s3):
    # Cg(e, rotation) = the partition {rotations | reflections}
    rotations = {0, 3, 4}
    p = congruence_from_pairs(s3, [(0, 3)])
    assert set(p.classes()[p.class_of(0)]) == rotations


def test_principal_is_least(z4, z6, s3, z2xz2, majority):
    # (a,b) in theta  iff  Cg(a,b) <= theta, for every congruence theta
    for alg in (z4, z6, s3, z2xz2, majority):
        cons = brute_force_congruences(alg)
        for a in range(alg.size):
            for b in range(alg.size):
                cg = congruence_from_pairs(alg, [(a, b)])
                for theta in cons:
                    assert theta.same(a, b) == cg.leq(theta)


# ---------------------------------------------------------------------------
# The lattice


@pytest.mark.parametrize(
    "name,count",
    [("Z4", 3), ("Z6", 4), ("S3", 3), ("Z2xZ2", 5),
     ("2lattice", 2), ("2semilattice", 2), ("2boolean", 2), ("trivial", 1)],
)
def test_lattice_counts(name, count):
    assert len(congruence_lattice(get(name))) == count


@pytest.mark.parametrize(
    "name", ["Z4", "Z6", "S3", "Z2xZ2", "2lattice", "majority", "Z2xL2", "Z4ring", "AD2"]
)
def test_lattice_matches_brute_force(name):
    alg = get(name)
    lat = congruence_lattice(alg)
    assert set(lat.congruences) == brute_force_congruences(alg)


def test_z6_lattice_is_diamond(z6):
    lat = congruence_lattice(z6)
    mod2, mod3 = mod_congruence(6, 2), mod_congruence(6, 3)
    assert set(lat.congruences) == {Partition.zero(6), mod2, mod3, Partition.one(6)}
    assert partition_join(mod2, mod3) == Partition.one(6)
    assert mod2.meet(mod3) == Partition.zero(6)


def test_z4_lattice_is_chain(z4):
    lat = congruence_lattice(z4)
    assert set(cover_pairs(lat)) == {
        (Partition.zero(4), mod_congruence(4, 2)),
        (mod_congruence(4, 2), Partition.one(4)),
    }


def test_covers_acyclic_and_transitive_closure(z6, z2xz2, majority):
    # E2^4 has 67 congruences and 240 covers
    for alg in (z6, z2xz2, majority, e2_power(4)):
        lat = congruence_lattice(alg)
        m = len(lat.congruences)
        # transitive closure of covers == strict containment
        reach = [[False] * m for _ in range(m)]
        for a, b in lat.covers:
            reach[a][b] = True
        for k in range(m):
            for i in range(m):
                for j in range(m):
                    reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
        for i in range(m):
            assert not reach[i][i]  # acyclic
            for j in range(m):
                strict = lat.congruences[i].leq(lat.congruences[j]) and i != j
                assert reach[i][j] == strict
                assert lat.below[j] >> i & 1 == (strict or i == j)
                assert lat.above[i] >> j & 1 == (strict or i == j)


def _perspectivity_reference(alg):
    """The covers grouped by perspectivity, each meet and join taken on the
    partitions themselves, every pair of covers compared."""
    lat = congruence_lattice(alg)
    cons = lat.congruences
    group = {cover: {cover} for cover in lat.covers}
    for a, b in lat.covers:
        for g, d in lat.covers:
            if cons[b].meet(cons[g]) == cons[a] and partition_join(cons[b], cons[g]) == cons[d]:
                merged = group[(a, b)] | group[(g, d)]
                for cover in merged:
                    group[cover] = merged
    return {frozenset(members) for members in group.values()}


def _perspectivity_classes(alg):
    groups = congruence_lattice(alg).perspectivity_classes()
    assert sum(map(len, groups)) == len(congruence_lattice(alg).covers)
    return set(map(frozenset, groups))


@pytest.mark.parametrize("name,sizes", [("majority", [4, 4, 4]), ("AD2", [1, 6]),
                                        ("Z2xL2", [2, 2]), ("Z6", [2, 2]), ("Z4", [1, 1])])
def test_perspectivity_classes_of_zoo_lattices(name, sizes):
    classes = _perspectivity_classes(get(name))
    assert classes == _perspectivity_reference(get(name))
    assert sorted(map(len, classes)) == sizes


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_algebras(), small_products()))
def test_perspectivity_classes_match_the_partition_reference(alg):
    assert _perspectivity_classes(alg) == _perspectivity_reference(alg)


def test_every_lattice_member_is_operation_closed(z6, s3, majority, z4ring):
    for alg in (z6, s3, majority, z4ring):
        for p in congruence_lattice(alg).congruences:
            assert is_congruence(alg, p)


def test_group_congruence_counts_match_normal_subgroups():
    for name, count in [("Z4", 3), ("Z6", 4), ("S3", 3), ("Z2xZ2", 5)]:
        assert len(congruence_lattice(get(name))) == count


# ---------------------------------------------------------------------------
# Factor pairs


def test_factor_pairs_z6(z6):
    pairs = {(fp.alpha1, fp.alpha2) for fp in factor_pairs(z6)}
    mod2, mod3 = mod_congruence(6, 2), mod_congruence(6, 3)
    assert (mod2, mod3) in pairs and (mod3, mod2) in pairs
    assert (Partition.zero(6), Partition.one(6)) in pairs


def test_factor_pairs_z4_only_trivial(z4):
    pairs = {(fp.alpha1, fp.alpha2) for fp in factor_pairs(z4)}
    assert pairs == {
        (Partition.zero(4), Partition.one(4)),
        (Partition.one(4), Partition.zero(4)),
    }


def test_factor_pair_iso_is_bijective(z6):
    for fp in factor_pairs(z6):
        assert len(set(fp.iso)) == 6

