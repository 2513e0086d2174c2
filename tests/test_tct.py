import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mvcirc import algebra, tct
from mvcirc.algebra import (
    FiniteAlgebra,
    Operation,
    eval_term,
    find_malcev_term,
    kary_poly_clone,
    poly_clone_on_points,
)
from mvcirc.commutator import commutator
from mvcirc.congruence import congruence_lattice
from mvcirc.errors import CapExceeded, Tri
from mvcirc.partition import Partition
from mvcirc.structure import classify
from mvcirc.tct import (
    _type_by_search,
    minimal_sets,
    pair_ops,
    type_of,
    typed_congruence_lattice,
)
from mvcirc.zoo import _cyclic_group, get, zoo

from conftest import clone_cap, mod_congruence, one, zero
from test_random_algebras import malcev_algebras, small_algebras, small_products


# ---------------------------------------------------------------------------
# Minimal sets


def _body(ms):
    """The union of the traces of a minimal set."""
    return tuple(sorted(set().union(*ms.traces)))


def _tail(ms):
    """The elements of a minimal set outside its body."""
    body = set().union(*ms.traces)
    return tuple(x for x in ms.elements if x not in body)


def test_minimal_sets_2boolean(bool2):
    ms = minimal_sets(bool2, zero(bool2), one(bool2))
    assert len(ms) == 1
    assert ms[0].elements == (0, 1)
    assert ms[0].traces == [(0, 1)]
    assert _body(ms[0]) == (0, 1) and _tail(ms[0]) == ()


def test_minimal_sets_z4_bottom_cover(z4):
    # Only the odd-coefficient unary polynomials kx+c move the mod-2 classes
    # apart, and those are bijections: the unique minimal set is the whole
    # universe, with the two mod-2 classes as traces.
    ms = minimal_sets(z4, zero(z4), mod_congruence(4, 2))
    assert len(ms) == 1
    assert ms[0].elements == (0, 1, 2, 3)
    assert sorted(ms[0].traces) == [(0, 2), (1, 3)]
    assert _tail(ms[0]) == ()


def test_minimal_sets_s3_top_cover(s3):
    # 2-element sets mixing the two A3-classes
    a3 = Partition.from_ids([0, 1, 1, 0, 0, 1])
    ms = minimal_sets(s3, a3, one(s3))
    assert ms, "no minimal sets found"
    for m in ms:
        assert len(m.elements) == 2
        x, y = m.elements
        assert not a3.same(x, y)
        assert m.idempotent_witness is not None


def test_minimal_sets_idempotent_witness(z4):
    ms = minimal_sets(z4, zero(z4), mod_congruence(4, 2))[0]
    assert ms.idempotent_witness is not None
    e = tuple(eval_term(z4, ms.idempotent_witness, (x,)) for x in range(4))
    assert set(e) == set(ms.elements)
    assert all(e[e[x]] == e[x] for x in range(4))


# ---------------------------------------------------------------------------
# Type labels


def test_type_2boolean(bool2):
    assert type_of(bool2, zero(bool2), one(bool2)) == 3


def test_type_2lattice(lat2):
    assert type_of(lat2, zero(lat2), one(lat2)) == 4


def test_type_2semilattice(semi2):
    assert type_of(semi2, zero(semi2), one(semi2)) == 5


@pytest.mark.parametrize("name", ["Z2", "Z3"])
def test_type_zp(name):
    alg = get(name)
    assert type_of(alg, zero(alg), one(alg)) == 2


def test_type_quotient_invariance_z4(z4, z2):
    # label of (mod2, 1) in Z4 equals the label of (0, 1) in Z4/mod2 = Z2
    mod2 = mod_congruence(4, 2)
    assert type_of(z4, mod2, one(z4)) == type_of(z2, zero(z2), one(z2)) == 2


def test_type_stable_across_traces_and_minimal_sets(z4, s3, z2xl2, monkeypatch):
    # AD2 has four type-1 covers, with traces of two, three and four elements.
    # The ladder reads the first trace of the first minimal set; the
    # reference runs it on each trace of each minimal set in turn, and
    # decides only when they all agree.
    minimal = tct.minimal_sets
    for alg in (z4, s3, z2xl2, get("AD2")):
        lat = congruence_lattice(alg)
        for lo, hi in lat.cover_pairs():
            labels = set()
            for ms in minimal(alg, lo, hi):
                for tr in ms.traces or [ms.elements]:
                    one_trace = [dataclasses.replace(ms, traces=[tr])]
                    monkeypatch.setattr(tct, "minimal_sets", lambda *args: one_trace)
                    labels.add(_type_by_search(alg, lo, hi))
            monkeypatch.setattr(tct, "minimal_sets", minimal)
            by_all = labels.pop() if len(labels) == 1 else None
            assert by_all == _type_by_search(alg, lo, hi) == type_of(alg, lo, hi)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("2boolean", {3}),
        ("2lattice", {4}),
        ("2semilattice", {5}),
        ("Z2", {2}),
        ("Z3", {2}),
        ("Z6", {2}),
        ("Z2xL2", {2, 4}),
        ("majority", {4}),
        ("S3", {2}),
        ("Z4ring", {2}),
    ],
)
def test_typesets(name, expected):
    assert typed_congruence_lattice(get(name)).typeset() == expected


def test_typeset_trivial(trivial):
    assert typed_congruence_lattice(trivial).typeset() == set()


def test_cm_typeset_restriction_and_empty_tails():
    # algebras whose variety is congruence modular: labels within {2,3,4},
    # minimal sets have empty tails
    from mvcirc.algebra import find_directed_gumm_terms
    from mvcirc.errors import Tri

    for name in ["2boolean", "2lattice", "Z2", "Z4", "Z6", "S3", "Z4ring", "majority", "Z2xL2"]:
        alg = get(name)
        assert find_directed_gumm_terms(alg).status is Tri.YES
        assert typed_congruence_lattice(alg).typeset() <= {2, 3, 4}
        lat = congruence_lattice(alg)
        for lo, hi in lat.cover_pairs():
            for ms in minimal_sets(alg, lo, hi):
                assert _tail(ms) == ()


# ---------------------------------------------------------------------------
# One typing per perspectivity class, on a quotient, against typing each cover


def _per_cover_labels(alg):
    """Every cover typed on the algebra itself, one type_of call each: the
    typing loop before covers were grouped, kept here as the reference."""
    lat = congruence_lattice(alg)
    return {(i, j): type_of(alg, lat.congruences[i], lat.congruences[j]) for i, j in lat.covers}


def test_class_labels_match_the_per_cover_reference_on_the_zoo():
    for entry in zoo():
        alg = entry.algebra
        assert typed_congruence_lattice(alg).labels == _per_cover_labels(alg), entry.name


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_algebras(), small_products()))
def test_class_labels_never_contradict_the_per_cover_reference(alg):
    # a class may decide a cover the reference leaves open, never the reverse
    with clone_cap(2000, shared=True):
        want = _per_cover_labels(alg)
        got = typed_congruence_lattice(alg).labels
    assert got.keys() == want.keys()
    assert all(got[cover] == label for cover, label in want.items() if label is not None)


@pytest.mark.parametrize("name,covers,calls", [
    # (size of the algebra typed, whether the lower congruence is 0)
    ("majority", 12, [(2, True)] * 3),
    ("AD2", 7, [(2, True), (4, True)]),     # (0, 1) is its own class, typed on AD2/0
    ("Z2xL2", 4, [(2, True)] * 2),
    ("Z2xZ2", 6, [(4, False)] * 3 + [(4, True)] * 3),   # Malcev: each cover, on itself
])
def test_a_cold_typing_types_each_perspectivity_class_once(name, covers, calls, monkeypatch):
    """type_of runs once per perspectivity class of covers, on the quotient
    by the coarsest lower congruence in the class, when the algebra has no
    Malcev term, and once per cover, on the algebra itself, when it has."""
    seen = []
    typed = tct.type_of

    def counted(alg, alpha, beta):
        seen.append((alg.size, alpha.is_zero()))
        return typed(alg, alpha, beta)

    monkeypatch.setattr(tct, "type_of", counted)
    with clone_cap(algebra.CLONE_CAP):
        assert len(tct.typed_congruence_lattice(get(name)).labels) == covers
    assert sorted(seen) == calls


def test_an_undecided_class_member_hands_over_to_the_next_coarsest(monkeypatch):
    # majority's Con is the cube 2^3: each class of four covers has lower
    # congruences with 2, 3, 3 and 4 classes
    seen = []
    typed = tct.type_of

    def undecided_on_two_elements(alg, alpha, beta):
        seen.append(alg.size)
        return None if alg.size == 2 else typed(alg, alpha, beta)

    monkeypatch.setattr(tct, "type_of", undecided_on_two_elements)
    with clone_cap(algebra.CLONE_CAP):
        assert set(tct.typed_congruence_lattice(get("majority")).labels.values()) == {4}
    assert sorted(seen) == [2, 2, 2, 3, 3, 3]


# ---------------------------------------------------------------------------
# Meet, join and swap on a pair


def test_pair_ops_on_two_element_algebras(lat2, bool2, semi2):
    ops = pair_ops(lat2, (0, 1))
    assert ops.lattice is Tri.YES and ops.complement is Tri.NO
    for term, want in ((ops.meet, [0, 0, 0, 1]), (ops.join, [0, 1, 1, 1])):
        assert [eval_term(lat2, term, p) for p in itertools.product((0, 1), repeat=2)] == want
    ops = pair_ops(bool2, (0, 1))
    assert ops.lattice is Tri.YES and ops.complement is Tri.YES      # negation present
    assert [eval_term(bool2, ops.swap, (x,)) for x in (0, 1)] == [1, 0]
    ops = pair_ops(semi2, (0, 1))
    assert ops.lattice is Tri.NO and ops.complement is Tri.NO        # no join
    assert ops.meet is not None and ops.join is None


def _has_complement(alg, u, trace):
    """Unary polynomial with range exactly U swapping the trace elements,
    found by a scan of the whole unary polynomial clone: the ladder's former
    complement test, kept here as the reference for pair_ops' swap."""
    n0, n1 = sorted(trace)
    uset = set(u)
    return any(set(tab) == uset and tab[n0] == n1 and tab[n1] == n0
               for tab in kary_poly_clone(alg, 1).tables)


def _swaps_match_the_reference(alg):
    """On every minimal set of every non-abelian cover, each 2-element
    trace has the swap among pair_ops' tables exactly when the reference
    finds a complement; the number of traces compared."""
    compared = 0
    for lo, hi in congruence_lattice(alg).cover_pairs():
        if commutator(alg, hi, hi).leq(lo):
            continue
        try:
            msets = minimal_sets(alg, lo, hi)
        except CapExceeded:
            continue
        for ms in msets:
            for tr in ms.traces:
                if len(tr) != 2:
                    continue
                want = Tri.YES if _has_complement(alg, ms.elements, tr) else Tri.NO
                assert pair_ops(alg, tr).complement is want, (alg, lo, hi, tr)
                compared += 1
    return compared


def test_swap_matches_the_reference_on_the_zoo():
    assert sum(_swaps_match_the_reference(e.algebra) for e in zoo()) == 20


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_algebras(), small_products()))
def test_swap_matches_the_reference_on_random_algebras(alg):
    with clone_cap(2000, shared=True):
        _swaps_match_the_reference(alg)


# ---------------------------------------------------------------------------
# Abelian covers: binary polynomials on a trace, against a pseudo-Malcev search


def _find_pseudo_malcev(alg, u, body):
    """Ternary polynomial behaving like a Malcev operation on the body:
    d(x,x,x)=x on U, d(x,x,y)=y=d(y,x,x) for x in body, y in U, the three
    one-variable slices at body pairs permute U, and the body is closed.
    The abelian branch's former criterion, kept here as the reference."""
    u = tuple(u)
    bset = set(body)
    uset = set(u)
    pts = list(itertools.product(u, repeat=3))
    pos = {p: i for i, p in enumerate(pts)}

    def ok(tab):
        if any(v not in uset for v in tab):
            return False
        for x in u:
            if tab[pos[(x, x, x)]] != x:
                return False
        for x in bset:
            for y in u:
                if tab[pos[(x, x, y)]] != y or tab[pos[(y, x, x)]] != y:
                    return False
        for a in bset:
            for b in bset:
                for slicer in (
                    lambda x: (x, a, b),
                    lambda x: (a, x, b),
                    lambda x: (a, b, x),
                ):
                    vals = {tab[pos[slicer(x)]] for x in u}
                    if vals != uset:
                        return False
        if any(tab[pos[(a, b, c)]] not in bset
               for a in bset for b in bset for c in bset):
            return False
        return True

    clone, hit = poly_clone_on_points(alg, pts, 3, stop=ok)
    if hit is not None:
        return Tri.YES
    return Tri.NO if clone.complete else Tri.UNKNOWN


def _abelian_labels_match_the_reference(alg):
    """On every abelian cover whose first minimal set the reference decides,
    the ladder's label is 2 exactly when the reference finds a
    pseudo-Malcev operation; the number of covers compared."""
    compared = 0
    for lo, hi in congruence_lattice(alg).cover_pairs():
        if not commutator(alg, hi, hi).leq(lo):
            continue
        try:
            ms = minimal_sets(alg, lo, hi)[0]
        except CapExceeded:
            continue
        want = _find_pseudo_malcev(alg, ms.elements, _body(ms) or ms.elements)
        if want is Tri.UNKNOWN:
            continue
        assert _type_by_search(alg, lo, hi) == (2 if want is Tri.YES else 1), (alg, lo, hi)
        compared += 1
    return compared


def test_abelian_labels_match_the_reference_on_the_zoo():
    assert sum(_abelian_labels_match_the_reference(e.algebra) for e in zoo()) == 26


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_algebras(), malcev_algebras()))
def test_abelian_labels_match_the_reference_on_random_algebras(alg):
    # a small cap keeps the reference's ternary closure short
    with clone_cap(2000, shared=True):
        _abelian_labels_match_the_reference(alg)


# ---------------------------------------------------------------------------
# Malcev algebras: labels by theorem, checked against the search ladder

MALCEV_ZOO = ["2boolean", "Z2", "Z3", "Z4", "Z2xZ2", "Z6", "S3", "Z4ring"]


def _labels_against_ladder(alg, decided):
    for lo, hi in congruence_lattice(alg).cover_pairs():
        want = _type_by_search(alg, lo, hi)
        if want is not None:
            assert type_of(alg, lo, hi) == want, (alg, lo, hi)
            decided[want] += 1


@pytest.mark.parametrize("name", MALCEV_ZOO)
def test_theorem_labels_match_the_ladder_on_the_zoo(name):
    decided = Counter()
    assert find_malcev_term(get(name)).status is Tri.YES
    _labels_against_ladder(get(name), decided)
    assert sum(decided.values()) == len(congruence_lattice(get(name)).covers)


def _with_random_op(base, rng):
    """base plus one random unary or binary op that preserves a random
    congruence theta of base: the group term stays a Malcev term, the new op
    cuts Con(base) down, and theta survives to keep some lattices larger
    than 0 < 1."""
    theta = rng.choice(congruence_lattice(base).congruences)
    classes = {}
    for x in range(base.size):
        classes.setdefault(theta.class_of(x), []).append(x)
    arity = rng.choice((1, 2))
    image = {}
    table = []
    for args in itertools.product(range(base.size), repeat=arity):
        key = tuple(theta.class_of(a) for a in args)
        image.setdefault(key, rng.choice(list(classes)))
        table.append(rng.choice(classes[image[key]]))
    return FiniteAlgebra(f"{base.name}+f", base.size,
                         base.ops + (Operation("f", arity, tuple(table)),))


def test_theorem_labels_match_the_ladder_on_random_malcev_algebras():
    rng = random.Random(7)
    bases = [_cyclic_group(f"Z{n}", n) for n in range(2, 7)] + [get("S3")]
    decided = Counter()
    for _ in range(60):
        alg = _with_random_op(rng.choice(bases), rng)
        assert find_malcev_term(alg).status is Tri.YES
        # a small cap keeps the ladder short; covers it leaves open are skipped
        with clone_cap(1000):
            _labels_against_ladder(alg, decided)
    assert decided[2] >= 10 and decided[3] >= 10, decided


def test_malcev_typeset_needs_no_search_under_a_small_cap(z6):
    # the ladder's unary clone of Z6 does not close within 50 tables
    with clone_cap(50):
        assert classify(z6).typeset == [2]
