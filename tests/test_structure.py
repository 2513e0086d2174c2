import dataclasses
import json
import random
import time
from collections import Counter

import pytest

from mvcirc import algebra
from mvcirc.algebra import (
    FactStore,
    FiniteAlgebra,
    Operation,
    direct_product,
    find_malcev_term,
    op_from_fn,
)
from mvcirc.circuit import CeqvInstance, CsatInstance, random_circuit
from mvcirc.congruence import congruence_lattice, factor_pairs
from mvcirc.errors import Tri, UntypedLattice
from mvcirc.partition import Partition
from mvcirc.solvers import dispatch, solve_bruteforce
from mvcirc.structure import (
    classify,
    decompose_nd,
    is_dl_like,
    is_poly_equiv_to_some_lattice,
    radical,
)
from mvcirc.tct import typed_congruence_lattice
from mvcirc.zoo import get, zoo

from conftest import clone_cap, e2_power, partition_radical



# ---------------------------------------------------------------------------
# Radicals


def test_radicals_z2xl2(z2xl2):
    typed = typed_congruence_lattice(z2xl2)
    rho2 = radical(z2xl2, typed, 2)
    rho4 = radical(z2xl2, typed, 4)
    # elements are (a, d) numbered a*2 + d; kernel of the lattice projection
    # glues (0,d) with (1,d), kernel of the group projection glues (a,0),(a,1)
    ker_lattice_proj = Partition.from_ids([0, 1, 0, 1])
    ker_group_proj = Partition.from_ids([0, 0, 1, 1])
    assert rho2 == ker_lattice_proj
    assert rho4 == ker_group_proj


def test_radicals_z6(z6):
    typed = typed_congruence_lattice(z6)
    assert radical(z6, typed, 2) == Partition.one(6)
    assert radical(z6, typed, 4) == Partition.zero(6)


def test_radicals_2boolean(bool2):
    typed = typed_congruence_lattice(bool2)
    assert radical(bool2, typed, 2) == Partition.zero(2)
    assert radical(bool2, typed, 4) == Partition.zero(2)


def test_radical_raises_on_an_impure_join_or_an_unknown_label(z2xz2):
    """Con(Z2 x Z2) is 0 < three atoms < 1.  Relabeled so that one atom's
    upper cover is 3, every atom is pure for 2 and their join is not.  An
    unlabeled lower cover of the first atom leaves the radical undecided,
    whether every other cover is 2 or only the second atom's lower one."""
    typed = typed_congruence_lattice(z2xz2)
    top = len(typed.lattice) - 1
    impure = {cover: 3 if cover == (1, top) else 2 for cover in typed.labels}
    unknown = {cover: None if cover == (0, 1) else 2 for cover in typed.labels}
    undecided = {cover: {(0, 1): None, (0, 2): 2}.get(cover, 3) for cover in typed.labels}
    for labels in (impure, unknown, undecided):
        relabeled = dataclasses.replace(typed, labels=labels)
        for radical_of in (radical, partition_radical):
            with pytest.raises(UntypedLattice):
                radical_of(z2xz2, relabeled, 2)


def test_radical_quotients_have_pure_typesets(z2xl2):
    from mvcirc.algebra import quotient

    typed = typed_congruence_lattice(z2xl2)
    rho2 = radical(z2xl2, typed, 2)
    rho4 = radical(z2xl2, typed, 4)
    assert typed_congruence_lattice(quotient(z2xl2, rho4)).typeset() <= {2}
    assert typed_congruence_lattice(quotient(z2xl2, rho2)).typeset() <= {4}


# ---------------------------------------------------------------------------
# Decomposition


def _iso_tables_2(a, b):
    """Whether two 2-element algebras with equal signatures are isomorphic."""
    if a.signature() != b.signature():
        return False
    for perm in ([0, 1], [1, 0]):
        ok = True
        for opa, opb in zip(a.ops, b.ops):
            n = 2
            import itertools

            for args in itertools.product(range(2), repeat=opa.arity):
                mapped = tuple(perm[x] for x in args)
                if perm[opa.apply(args, n)] != opb.apply(mapped, n):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def test_decompose_z2xl2_recovers_factors(z2xl2):
    dec = decompose_nd(z2xl2)
    assert dec is not None
    assert dec.n_factor.size == 2 and dec.d_factor.size == 2
    # N is the group side (f = g = xor), D the lattice side (f = meet, g = join)
    assert dec.n_factor.op("f").table == dec.n_factor.op("g").table == (0, 1, 1, 0)
    assert dec.d_factor.op("f").table == (0, 0, 0, 1)
    assert dec.d_factor.op("g").table == (0, 1, 1, 1)


def test_decompose_reassembly_bit_exact(z2xl2):
    dec = decompose_nd(z2xl2)
    prod = direct_product(dec.n_factor, dec.d_factor)
    # iso: a -> (a/rho4, a/rho2) -> index i*|D| + j must transport the tables
    mapping = [i * dec.d_factor.size + j for (i, j) in dec.iso]
    assert sorted(mapping) == list(range(z2xl2.size))  # bijection
    for op_a, op_p in zip(z2xl2.ops, prod.ops):
        import itertools

        for args in itertools.product(range(z2xl2.size), repeat=op_a.arity):
            mapped = tuple(mapping[x] for x in args)
            assert mapping[op_a.apply(args, z2xl2.size)] == op_p.apply(mapped, prod.size)


def test_decompose_z6_trivial_d(z6):
    dec = decompose_nd(z6)
    assert dec.n_factor.size == 6 and dec.d_factor.size == 1


def test_decompose_2lattice_trivial_n(lat2):
    dec = decompose_nd(lat2)
    assert dec.n_factor.size == 1 and dec.d_factor.size == 2


def test_decompose_none_for_type3(bool2):
    assert decompose_nd(bool2) is None


# ---------------------------------------------------------------------------
# DL-likeness


def test_dl_like_2lattice(lat2):
    verdict, witnesses = is_dl_like(lat2)
    assert verdict is Tri.YES
    assert witnesses == [Partition.zero(2)]


def test_dl_like_majority_three_witnesses(majority):
    verdict, witnesses = is_dl_like(majority)
    assert verdict is Tri.YES
    assert len(witnesses) == 3
    meet = Partition.one(4)
    for w in witnesses:
        assert w.num_classes == 2
        meet = meet.meet(w)
    assert meet.is_zero()


def test_dl_like_z2_no(z2):
    verdict, _ = is_dl_like(z2)
    assert verdict is Tri.NO


def test_dl_like_trivial(trivial):
    verdict, _ = is_dl_like(trivial)
    assert verdict is Tri.YES


def test_majority_not_poly_equiv_to_a_lattice(majority, lat2):
    assert is_poly_equiv_to_some_lattice(lat2)
    assert not is_poly_equiv_to_some_lattice(majority)


# ---------------------------------------------------------------------------
# Classification


def test_classify_z6_all_polytime(z6):
    rep = classify(z6)
    assert all(v.kind == "PolyTime" for v in rep.verdicts.values())


def test_classify_s3(s3):
    rep = classify(s3)
    assert rep.verdicts["CSAT"].kind == "NPComplete-regime"
    assert rep.verdicts["CEQV"].kind == "CoNPComplete-regime"
    assert rep.verdicts["SCSAT"].kind == "NPComplete-regime"


def test_classify_2lattice(lat2):
    rep = classify(lat2)
    assert rep.verdicts["CSAT"].kind == "PolyTime"
    assert rep.verdicts["SCSAT"].kind == "NPComplete-regime"
    assert rep.verdicts["CEQV"].kind == "CoNPComplete-regime"


def test_classify_z4ring(z4ring):
    rep = classify(z4ring)
    assert rep.nilpotent and rep.supernilpotent is Tri.YES
    assert rep.verdicts["CSAT"].kind == "PolyTime"
    assert rep.verdicts["SCSAT"].kind == "NPComplete-regime"
    assert rep.verdicts["CEQV"].kind == "PolyTime"


def test_cold_classify_of_z32_takes_under_a_second(monkeypatch):
    # the cyclic group of order 32 is abelian by its module structure, so no
    # commutator goes through a pair algebra of 1,024 elements, and every
    # cover is labelled 2 without one
    monkeypatch.setattr(algebra, "STORE", FactStore())
    z32 = FiniteAlgebra("Z32", 32, (op_from_fn("mul", 2, 32, lambda x, y: (x + y) % 32),
                                    op_from_fn("inv", 1, 32, lambda x: -x % 32)))
    start = time.perf_counter()
    rep = classify(z32)
    assert time.perf_counter() - start < 1.0
    assert rep.abelian and rep.affine is Tri.YES and rep.nilpotency_class == 1
    assert rep.typeset == [2]
    assert all(v.kind == "PolyTime" for v in rep.verdicts.values())


def test_cold_classify_of_e2_4_compares_congruences_only_to_order_them(monkeypatch):
    """Con(E2^4) has 67 congruences, 240 covers and 802 factor pairs; the
    radicals and the factor pairs read the lattice's order masks, so a
    cold classify meets no partitions and makes fewer than 2 * 67^2 leq
    calls (tens of thousands when each reader compared partitions)."""
    monkeypatch.setattr(algebra, "STORE", FactStore())
    calls = Counter()
    for name in ("leq", "meet"):
        real = getattr(Partition, name)
        monkeypatch.setattr(Partition, name, lambda *args, real=real, name=name:
                            calls.update([name]) or real(*args))
    e2_4 = e2_power(4)
    classify(e2_4)
    assert calls["meet"] == 0 and calls["leq"] < 2 * 67 ** 2
    lat = congruence_lattice(e2_4)
    assert (len(lat), len(lat.covers), len(factor_pairs(e2_4))) == (67, 240, 802)


def test_cold_lattice_of_e2_5_joins_and_orders_without_comparing_partitions(monkeypatch):
    """Con(E2^5) has 374 congruences and 2,077 covers.  The join closure
    relabels class ids along each principal's spanning edges and the order
    is read off the principals under each congruence, so a cold build makes
    no Partition.leq call (joining and comparing partitions took 11,594
    joins and 69,751 leq calls)."""
    monkeypatch.setattr(algebra, "STORE", FactStore())
    calls = Counter()
    real = Partition.leq
    monkeypatch.setattr(Partition, "leq", lambda *args: calls.update(["leq"]) or real(*args))
    lat = congruence_lattice(e2_power(5))
    assert calls["leq"] == 0 and not hasattr(Partition, "join")
    assert (len(lat), len(lat.covers)) == (374, 2077)


def _twisted_z2xz3():
    """Z2 x Z3, x = 3a + b, with add, neg and the unary g(a, b) = (0, a),
    a read in Z3.  g is not a homomorphism, so the algebra is nilpotent of
    class 2 and directly indecomposable of order 6, hence not
    supernilpotent (a finite nilpotent Malcev algebra is supernilpotent iff
    it is a product of algebras of prime power order; Kearnes, Algebra
    Universalis 1999)."""
    return FiniteAlgebra("Z2xZ3+g", 6, (
        op_from_fn("add", 2, 6, lambda x, y: 3 * ((x // 3 + y // 3) % 2) + (x + y) % 3),
        op_from_fn("neg", 1, 6, lambda x: 3 * (x // 3) + (-x) % 3),
        op_from_fn("g", 1, 6, lambda x: x // 3),
    ))


def test_open_gap_verdicts_go_to_brute_force():
    alg = _twisted_z2xz3()
    rep = classify(alg)
    assert rep.nilpotent and rep.nilpotency_class == 2
    assert rep.supernilpotent is Tri.NO and rep.affine is Tri.NO
    assert rep.verdicts["CSAT"].kind == "OpenGap"
    assert rep.verdicts["CEQV"].kind == "OpenGap"
    rng = random.Random(9)
    for _ in range(40):
        c = random_circuit(alg, rng, rng.randrange(1, 5), rng.randrange(4, 14), 2)
        for inst in (CsatInstance(c), CeqvInstance(c)):
            res, want = dispatch(alg, inst), solve_bruteforce(alg, inst)
            assert res.solver_used == "brute"
            assert (res.answer, res.witness) == (want.answer, want.witness)


# One fixture for each (kind, verdict) cell of the classification table:
# every verdict each kind can get, OpenGap included.  "Z2xZ3+g" is
# _twisted_z2xz3, kept out of the zoo.
VERDICT_FIXTURES = {
    ("CSAT", "PolyTime"): "Z2",
    ("CSAT", "NPComplete-regime"): "2boolean",
    ("CSAT", "OpenGap"): "Z2xZ3+g",
    ("CSAT", "Unknown"): "2semilattice",
    ("MCSAT", "PolyTime"): "2lattice",
    ("MCSAT", "NPComplete-regime"): "2boolean",
    ("MCSAT", "Unknown"): "2semilattice",
    ("SCSAT", "PolyTime"): "Z2",
    ("SCSAT", "NPComplete-regime"): "2lattice",
    ("SCSAT", "Unknown"): "2semilattice",
    ("CEQV", "PolyTime"): "Z2",
    ("CEQV", "CoNPComplete-regime"): "2boolean",
    ("CEQV", "OpenGap"): "Z2xZ3+g",
    ("CEQV", "Unknown"): "2semilattice",
}


def test_every_reachable_verdict_cell_has_a_fixture():
    fixtures = {e.name: e.algebra for e in zoo()}
    fixtures["Z2xZ3+g"] = _twisted_z2xz3()
    for (kind, verdict), name in VERDICT_FIXTURES.items():
        assert classify(fixtures[name]).verdicts[kind].kind == verdict, (kind, verdict, name)
    reached = {(kind, v.kind) for alg in fixtures.values()
               for kind, v in classify(alg).verdicts.items()}
    assert reached == set(VERDICT_FIXTURES)


def test_classify_non_cm_unknown(semi2):
    rep = classify(semi2)
    assert rep.cm is Tri.NO
    assert all(v.kind == "Unknown" for v in rep.verdicts.values())


def test_classify_deterministic_and_json_stable(z6):
    a = classify(z6).as_dict()
    b = classify(z6).as_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["schema"] == 1


def test_malcev_and_cm_no_come_from_a_simple_quotient(monkeypatch):
    # Z3 (add, neg, u) times a 2-element algebra of the same signature, one
    # seeded random draw.  Its ternary term clone outgrows the default cap:
    # a search closing over all of A^3 ends UNKNOWN after about 20 s.  The
    # 2-element factor, a simple quotient, has neither a Malcev term nor a
    # directed Gumm chain.
    monkeypatch.setattr(algebra, "STORE", FactStore())
    z3 = FiniteAlgebra("Z3u", 3, (
        Operation("add", 2, tuple((x + y) % 3 for x in range(3) for y in range(3))),
        Operation("neg", 1, (0, 2, 1)),
        Operation("u", 1, (0, 1, 0))))
    two = FiniteAlgebra("F2", 2, (
        Operation("add", 2, (1, 1, 0, 0)), Operation("neg", 1, (0, 0)), Operation("u", 1, (1, 1))))
    alg = direct_product(z3, two)
    start = time.perf_counter()
    rep = classify(alg)
    assert time.perf_counter() - start < 1.0
    assert find_malcev_term(alg).status is Tri.NO
    assert rep.cm is Tri.NO


def test_ad2_is_not_cm_under_a_small_cap():
    # a simple quotient of AD2 decides NO where its own closure outgrows
    # cap 10, so the report matches the default cap's
    with clone_cap(10):
        small = classify(get("AD2")).cm
    assert small is Tri.NO is classify(get("AD2")).cm


def test_dl_like_unknown_when_quotient_check_caps_out(bool2):
    # at cap 3 the 2-element quotient's closures stop before meet, join or
    # the swap turns up
    with clone_cap(3):
        assert is_dl_like(bool2)[0] is Tri.UNKNOWN
        rep = classify(bool2)
    assert rep.dl_like is Tri.UNKNOWN
    # the swap is among the first four unary tables, and rules 2boolean out
    # at cap 10 as at the default cap
    with clone_cap(10):
        small = is_dl_like(bool2)
    assert small == is_dl_like(bool2)
    assert is_dl_like(bool2)[0] is Tri.NO


@pytest.mark.parametrize("entry", zoo(), ids=lambda e: e.name)
def test_zoo_golden_fragments(entry):
    rep = classify(entry.algebra)
    want = entry.golden.get("verdicts", {})
    got = {k: v.kind for k, v in rep.verdicts.items()}
    for prob, kind in want.items():
        assert got[prob] == kind, f"{entry.name} {prob}: got {got[prob]}, want {kind}"
    flags = entry.golden.get("flags", {})
    data = rep.as_dict()["flags"]
    for key, val in flags.items():
        if key == "typeset":
            assert rep.typeset == val
        elif key == "poly_equiv_to_some_lattice":
            assert is_poly_equiv_to_some_lattice(entry.algebra) == val
        else:
            assert data[key] == val, f"{entry.name} flag {key}"
