from hypothesis import given, strategies as st

from conftest import partition_join, union_find_partition
from mvcirc.partition import Partition

ids_vectors = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=7)


@given(ids_vectors)
def test_canonical_form_is_idempotent(ids):
    p = Partition.from_ids(ids)
    assert Partition.from_ids(p.ids) == p
    # first occurrence order
    seen = []
    for c in p.ids:
        if c not in seen:
            seen.append(c)
    assert seen == list(range(p.num_classes))


@given(ids_vectors, ids_vectors)
def test_join_meet_lattice_laws(a_ids, b_ids):
    n = min(len(a_ids), len(b_ids))
    a = Partition.from_ids(a_ids[:n])
    b = Partition.from_ids(b_ids[:n])
    j, m = partition_join(a, b), a.meet(b)
    assert a.leq(j) and b.leq(j)
    assert m.leq(a) and m.leq(b)
    assert partition_join(a, a) == a and a.meet(a) == a
    assert j == partition_join(b, a)
    assert a.meet(b) == b.meet(a)
    # absorption
    assert partition_join(a, m) == a
    assert a.meet(j) == a


@given(ids_vectors)
def test_zero_one_identities(ids):
    p = Partition.from_ids(ids)
    zero, one = Partition.zero(p.n), Partition.one(p.n)
    assert partition_join(p, zero) == p
    assert p.meet(one) == p
    assert zero.leq(p) and p.leq(one)


def test_pairs_and_from_pairs_round_trip():
    p = Partition.from_ids([0, 1, 0, 1])
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4) if p.same(a, b)]
    assert pairs == [(0, 2), (1, 3)]
    assert Partition.from_pairs(4, pairs) == p


@given(st.integers(0, 9).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing(),
    max_size=3 * n))))
def test_from_pairs_matches_union_find(drawn):
    """Repeated pairs and self-pairs included."""
    n, pairs = drawn
    pairs += pairs[::2] + [(a, a) for a, _ in pairs[:2]]
    assert Partition.from_pairs(n, pairs) == union_find_partition(n, pairs)


def test_display_and_parse():
    p = Partition.from_ids([0, 1, 0, 1])
    assert str(p) == "{0 2|1 3}"
    assert Partition.parse("{0 2|1 3}", 4) == p
    assert Partition.parse("{0 2 | 1 3}", 4) == p
    # singletons may be omitted on input
    assert Partition.parse("{0 2}", 4) == Partition.from_ids([0, 1, 0, 2])


def test_leq_is_refinement():
    fine = Partition.from_ids([0, 1, 2, 3])
    mid = Partition.from_ids([0, 0, 1, 1])
    coarse = Partition.from_ids([0, 0, 0, 0])
    assert fine.leq(mid) and mid.leq(coarse)
    assert not mid.leq(fine)
    other = Partition.from_ids([0, 1, 0, 1])
    assert not mid.leq(other) and not other.leq(mid)
