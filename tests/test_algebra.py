import itertools
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mvcirc import algebra as algebra_module, congruence
from mvcirc.algebra import (
    BLOCK,
    CLONE_CAP,
    App,
    Const,
    FactStore,
    FiniteAlgebra,
    Operation,
    Var,
    _proj_generators,
    check_gumm_chain,
    direct_product,
    eval_term,
    find_directed_gumm_terms,
    find_malcev_term,
    is_congruence,
    kary_poly_clone,
    op_from_fn,
    parse_algebra,
    poly_clone_on_points,
    quotient,
    serialize_algebra,
    term_values,
    translations,
)
from mvcirc.congruence import congruence_from_pairs
from mvcirc.errors import CapExceeded, MvcircError, NotACongruence, NotMalcev, Tri, UnknownOp
from mvcirc.partition import Partition
from mvcirc.structure import classify
from mvcirc.zoo import get, zoo

from conftest import (
    EDGE_ALGEBRAS,
    clone_cap,
    eval_term_at,
    gumm_chain_exists,
    mod_congruence,
    pair_algebra,
    run_optimised,
)

MEET = App("meet", (Var(0), Var(1)))


def test_eval_term_lattice_meet(lat2):
    assert eval_term(lat2, MEET, (1, 1)) == 1
    assert eval_term(lat2, MEET, (0, 1)) == 0


def test_eval_term_z4_addition(z4):
    t = App("mul", (Var(0), Var(1)))
    assert eval_term(z4, t, (3, 2)) == 1


def test_eval_term_s3_commutator_word(s3):
    # [x, y] = x^-1 y^-1 x y; independent oracle: compose permutations directly
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]

    def comp(p, q):
        return tuple(p[q[i]] for i in range(3))

    def inv(p):
        q = [0] * 3
        for i in range(3):
            q[p[i]] = i
        return tuple(q)

    t = App("mul", (App("mul", (App("mul", (App("inv", (Var(0),)), App("inv", (Var(1),)))), Var(0))), Var(1)))
    x, y = 1, 2  # two non-commuting transpositions
    assert comp(perms[x], perms[y]) != comp(perms[y], perms[x])
    expected = comp(comp(comp(inv(perms[x]), inv(perms[y])), perms[x]), perms[y])
    got = eval_term(s3, t, (x, y))
    assert perms[got] == expected
    assert got != 0  # a nonidentity element


def test_eval_term_errors(lat2):
    with pytest.raises(UnknownOp):
        eval_term(lat2, App("nope", (Var(0),)), (0,))
    from mvcirc.errors import UnboundVariable

    with pytest.raises(UnboundVariable):
        eval_term(lat2, Var(3), (0,))


@pytest.mark.parametrize("term", [
    App("nope", (Var(0),)), App("meet", (Var(0),)), App("meet", (Var(2), App("nope", ()))),
    App("meet", (Const(2), Var(5))), App("meet", (Var(1), Var(0))), Const(7),
])
def test_term_values_raises_what_the_per_point_reference_meets_first(lat2, term):
    """Over points that share their length, term_values raises the error a
    recursive evaluation meets first at the first point that fails."""
    points = [(0, 1), (1, 0), (0, 3)]

    def outcome(fn):
        try:
            return fn()
        except MvcircError as exc:
            return type(exc), str(exc)

    want = next((r for r in (outcome(lambda: eval_term_at(lat2, term, p)) for p in points)
                 if isinstance(r, tuple)), None)
    assert want is not None
    assert outcome(lambda: term_values(lat2, (term,), points)) == want


def test_term_values_match_the_per_point_reference_on_a_cold_zoo_classify(monkeypatch):
    """Every witness of every closure a cold classify of the zoo stores, and
    every Malcev term it finds, evaluated once per node over all its points,
    agrees with the recursive evaluation at each point and with its table.
    The sample also holds each zoo algebra's unary polynomial clone, which
    the classify itself closes only on quotients when it types covers."""
    monkeypatch.setattr(algebra_module, "STORE", FactStore())
    for entry in zoo():
        classify(entry.algebra)
        kary_poly_clone(entry.algebra, 1)
    checked = 0
    for content, facts in algebra_module.STORE._entries.items():
        size, signature, tables = content.value
        alg = FiniteAlgebra("stored", size, tuple(
            Operation(name, arity, table) for (name, arity), table in zip(signature, tables)))
        cases = [(list(clone.witnesses.values()), key[2], [list(t) for t in clone.tables])
                 for key, clone in facts.items() if key[:1] == ("closure",)]
        malcev = facts.get("malcev")
        if malcev is not None and malcev.status is Tri.YES:
            cases.append(([malcev.value], algebra_module._identity_points(size), None))
        for terms, points, tables in cases:
            values = term_values(alg, terms, points)
            assert values == [[eval_term_at(alg, t, p) for p in points] for t in terms]
            assert tables is None or values == tables
            checked += len(terms)
    assert checked > 200


# ---------------------------------------------------------------------------
# Clones


def test_unary_clone_2lattice(lat2):
    clone = kary_poly_clone(lat2, 1)
    assert sorted(map(tuple, clone.tables)) == [(0, 0), (0, 1), (1, 1)]  # const0, id, const1


def test_unary_clone_z2(z2):
    clone = kary_poly_clone(z2, 1)
    assert sorted(map(tuple, clone.tables)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_unary_clone_trivial(trivial):
    clone = kary_poly_clone(trivial, 1)
    assert list(map(tuple, clone.tables)) == [(0,)]


def test_unary_clone_witnesses_evaluate(z4):
    clone = kary_poly_clone(z4, 1)
    for tab in clone.tables:
        wit = clone.witness(tab)
        assert tuple(eval_term(z4, wit, (x,)) for x in range(4)) == tuple(tab)


def test_binary_clone_2lattice_is_monotone_clone(lat2):
    # independent oracle: enumerate all 16 binary maps, keep the monotone ones
    clone = kary_poly_clone(lat2, 2)
    monotone = set()
    for tab in itertools.product((0, 1), repeat=4):
        fn = {(0, 0): tab[0], (0, 1): tab[1], (1, 0): tab[2], (1, 1): tab[3]}
        if all(
            fn[a] <= fn[b]
            for a in fn
            for b in fn
            if a[0] <= b[0] and a[1] <= b[1]
        ):
            monotone.add(tab)
    assert set(map(tuple, clone.tables)) == monotone
    assert len(clone) == 6


def test_binary_clone_2boolean_is_everything(bool2):
    assert len(kary_poly_clone(bool2, 2)) == 16


def test_binary_clone_trivial(trivial):
    assert len(kary_poly_clone(trivial, 2)) == 1


def test_clone_closure_is_idempotent(z4):
    clone = kary_poly_clone(z4, 1)
    pts = [(x,) for x in range(4)]
    regrown, _ = poly_clone_on_points(z4, pts, 1)
    # re-closing from the closed set adds nothing: the closure from scratch
    # already contains every table
    assert set(regrown.tables) == set(clone.tables)


def test_cap_exceeded_raises(s3):
    with clone_cap(10), pytest.raises(CapExceeded):
        kary_poly_clone(s3, 2)


# m(x, y) = max(x, y) with a nullary unit e = 1: the term clone gets the
# constant table from e alone
WITH_UNIT = FiniteAlgebra("max-with-unit", 3, (
    Operation("m", 2, tuple(max(x, y) for x in range(3) for y in range(3))),
    Operation("e", 0, (1,)),
))


def _stops(full):
    """Stop predicates, each with the log of the tables it was called on:
    none, a first match, and a recorder that, like the trace search in
    tct, keeps state across calls and stops once it has seen two tables.
    Tables are compared and logged as tuples."""
    tables = list(map(tuple, full.tables))
    target = tables[(2 * len(tables)) // 3]
    pair = {tables[len(tables) // 3], tables[-1]}
    yield None, None
    log: list = []
    yield (lambda t: log.append(tuple(t)) or tuple(t) == target), log
    seen: list = []
    yield (lambda t: seen.append(tuple(t)) or pair <= set(seen)), seen


@pytest.mark.parametrize("alg", [e.algebra for e in zoo()] + [WITH_UNIT], ids=lambda a: a.name)
def test_stored_closure_replays_a_fresh_closure(alg, monkeypatch):
    close = algebra_module._close_tables
    rng = random.Random(alg.name)
    for k, constants in itertools.product((1, 2, 3), (True, False)):
        cube = list(itertools.product(range(alg.size), repeat=k))
        points = cube if k == 1 else rng.sample(cube, min(len(cube), 5 - k))
        generators = _proj_generators(alg, points, k, constants)
        full, _ = close(alg, points, generators, CLONE_CAP)
        assert full.complete
        distinct = len({tab for tab, _ in generators})
        for cap in (1, distinct, max(len(full) // 2, 1), CLONE_CAP):
            with clone_cap(cap):
                first, _ = poly_clone_on_points(alg, points, k, constants=constants)
                # a complete closure is stored, and answers every later call
                if first.complete:
                    monkeypatch.setattr(algebra_module, "_close_tables", None)
                for (stop, log), (fresh_stop, fresh_log) in zip(_stops(full), _stops(full)):
                    got, hit = poly_clone_on_points(alg, points, k, stop, constants)
                    want, want_hit = close(alg, points, generators, cap, fresh_stop)
                    assert list(got.tables) == list(want.tables)
                    assert list(got.witnesses.items()) == list(want.witnesses.items())
                    assert (got.complete, hit, log) == (want.complete, want_hit, fresh_log)
                monkeypatch.setattr(algebra_module, "_close_tables", close)


def test_nullary_table_counts_against_cap_and_goes_to_stop():
    points = [(0,), (1,), (2,)]
    with clone_cap(1):
        capped, _ = poly_clone_on_points(WITH_UNIT, points, 1, constants=False)
    assert (list(map(tuple, capped.tables)), capped.complete) == ([(0, 1, 2)], False)
    seen: list = []
    clone, hit = poly_clone_on_points(
        WITH_UNIT, points, 1, stop=lambda t: seen.append(tuple(t)) or tuple(t) == (1, 1, 1),
        constants=False)
    assert tuple(hit) == seen[-1] == (1, 1, 1)
    assert clone.witness(hit) == App("e", ())


def _reference_close_tables(alg, points, generators, cap, stop=None):
    """The pointwise worklist closure: every r-tuple of tables below the
    round's end, in itertools.product order, skipping those with no index
    in the last round's tables, each table built point by point as a tuple."""
    size = alg.size
    tables, witnesses = [], {}

    def result(complete, hit):
        return SimpleNamespace(tables=tables, witnesses=witnesses, complete=complete), hit

    for tab, wit in generators:
        if tab not in witnesses:
            witnesses[tab] = wit
            tables.append(tab)
            if stop is not None and stop(tab):
                return result(False, tab)
    start = 0
    while start < len(tables):
        end = len(tables)
        for op in alg.ops:
            for combo in itertools.product(range(end), repeat=op.arity):
                if op.arity and max(combo) < start:
                    continue
                args = [tables[i] for i in combo]
                tab = tuple(op.apply([a[p] for a in args], size) for p in range(len(points)))
                if tab in witnesses:
                    continue
                if len(tables) >= cap:
                    return result(False, None)
                witnesses[tab] = App(op.name, tuple(witnesses[a] for a in args))
                tables.append(tab)
                if stop is not None and stop(tab):
                    return result(False, tab)
        start = end
    return result(True, None)


def _random_table(draw, size, arity):
    """A table of an op of the arity; about half are symmetric, drawn as one
    value per sorted argument tuple."""
    args = list(itertools.product(range(size), repeat=arity))
    keys = [tuple(sorted(a)) for a in args] if draw(st.booleans()) else args
    distinct = list(dict.fromkeys(keys))
    values = draw(st.lists(st.integers(0, size - 1), min_size=len(distinct),
                           max_size=len(distinct)))
    return tuple(map(dict(zip(distinct, values)).__getitem__, keys))


def _random_algebra(draw, size):
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    return FiniteAlgebra(f"R{size}", size, tuple(
        Operation(f"f{i}", r, _random_table(draw, size, r)) for i, r in enumerate(arities)))


def _symmetric_op(rng, name, size, arity):
    """A random op with one value per sorted argument tuple."""
    value = {a: rng.randrange(size)
             for a in itertools.combinations_with_replacement(range(size), arity)}
    return Operation(name, arity, tuple(value[tuple(sorted(a))]
                                        for a in itertools.product(range(size), repeat=arity)))


# 17^2 exceeds 256: a symmetric op on two-byte digits
S17 = FiniteAlgebra("S17", 17, (_symmetric_op(random.Random(17), "s", 17, 2),))
WIDE = {alg.name: alg for alg in EDGE_ALGEBRAS if alg.name in ("W17", "T7")} | {"S17": S17}


def _closure_case(data, alg, max_points):
    """A point list (empty, with duplicates, in any order), k, constants, a
    cap, a stop for alg (with a fresh copy for the reference run) and a
    batch size."""
    k = data.draw(st.integers(1, 3), label="k")
    constants = data.draw(st.booleans(), label="constants")
    point = st.tuples(*[st.integers(0, alg.size - 1)] * k)
    points = data.draw(st.lists(point, max_size=max_points), label="points")
    generators = _proj_generators(alg, points, k, constants)
    full, _ = _reference_close_tables(alg, points, generators, CLONE_CAP)
    distinct = len({tab for tab, _ in generators})
    cap = data.draw(st.sampled_from([1, distinct, max(len(full.tables) // 2, 1), CLONE_CAP]),
                    label="cap")
    which = data.draw(st.integers(0, 2), label="stop")
    stops = [list(_stops(full))[which] for _ in range(2)]
    block = data.draw(st.sampled_from([1, 2, 5, BLOCK]), label="block")
    return points, generators, cap, stops, block


def _assert_same_closure(alg, points, generators, cap, stops, block):
    (stop, log), (ref_stop, ref_log) = stops
    # small blocks split the tables of one argument prefix into batches
    with mock.patch.object(algebra_module, "BLOCK", block):
        got, hit = algebra_module._close_tables(alg, points, generators, cap, stop)
    want, want_hit = _reference_close_tables(alg, points, generators, cap, ref_stop)
    assert list(map(tuple, got.tables)) == want.tables
    assert [(tuple(t), w) for t, w in got.witnesses.items()] == list(want.witnesses.items())
    hit = None if hit is None else tuple(hit)
    assert (got.complete, hit, log) == (want.complete, want_hit, ref_log)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closure_matches_pointwise_reference(data):
    size = data.draw(st.integers(1, 5), label="size")
    alg = _random_algebra(data.draw, size)
    # keep the reference closure small: at most 20,000 argument tuples per op
    top = max(op.arity for op in alg.ops)
    max_points = 4 if size == 1 else max(
        m for m in range(5) if (size ** m) ** top <= 20_000)
    _assert_same_closure(alg, *_closure_case(data, alg, max_points))


@settings(max_examples=18, deadline=None)
@given(st.sampled_from(sorted(WIDE)), st.data())
def test_closure_matches_pointwise_reference_on_two_byte_digits(name, data):
    alg = WIDE[name]
    assert algebra_module._op_tables(alg).width == 2
    _assert_same_closure(alg, *_closure_case(data, alg, 1 if name == "T7" else 2))


@pytest.mark.parametrize("name, width", [("Z4ring", 1), ("T7", 2)])
def test_clone_looks_tables_up_by_tuple(name, width):
    alg = WIDE.get(name) or get(name)
    assert algebra_module._op_tables(alg).width == width
    points = [(0,), (1,), (2,)]
    with clone_cap(200):
        clone, _ = poly_clone_on_points(alg, points, 1)
    kept = set()
    for t in clone.tables:
        tab = tuple(t)
        assert tab in clone
        assert tuple(eval_term(alg, clone.witness(tab), p) for p in points) == tab
        kept.add(tab)
    assert len(kept) == len(clone)
    missing = next(t for t in itertools.product(range(alg.size), repeat=3) if t not in kept)
    assert missing not in clone
    assert (0, 0) not in clone


def _permuted(op, size, perm):
    """The table of (x_0, .., x_r-1) -> op(x_perm[0], .., x_perm[r-1])."""
    return tuple(op.apply([a[i] for i in perm], size)
                 for a in itertools.product(range(size), repeat=op.arity))


def test_symmetric_ops_are_detected_from_the_table():
    # every zoo op of arity >= 2 is symmetric (the commutative binary ops and
    # majority's m), except S3's mul
    for alg in [e.algebra for e in zoo()] + [S17]:
        want = set() if alg.name == "S3" else {op.name for op in alg.ops if op.arity >= 2}
        # independent oracle: the table under every permutation of the arguments
        assert want == {op.name for op in alg.ops if op.arity >= 2 and all(
            _permuted(op, alg.size, p) == op.table for p in itertools.permutations(range(op.arity)))}
        assert algebra_module._op_tables(alg).symmetric == want
    # x - y + z over Z3 is unchanged only by swapping x and z, (x - y)(y - z)(z - x)
    # only by rotating the arguments, and the projection x only by swapping y and z
    for fn, kept in [(lambda x, y, z: (x - y + z) % 3, (2, 1, 0)),
                     (lambda x, y, z: (x - y) * (y - z) * (z - x) % 3, (1, 2, 0)),
                     (lambda x, y, z: x, (0, 2, 1))]:
        op = op_from_fn("d", 3, 3, fn)
        assert _permuted(op, 3, kept) == op.table
        assert algebra_module._op_tables(FiniteAlgebra("D", 3, (op,))).symmetric == frozenset()


def _reference_translations(alg):
    """Every x -> f(.., x, ..) by op, position and context, built with apply."""
    n = alg.size
    for op in alg.ops:
        for pos in range(op.arity):
            for ctx in itertools.product(range(n), repeat=op.arity - 1):
                yield tuple(op.apply(ctx[:pos] + (x,) + ctx[pos:], n) for x in range(n))


def _reference_is_congruence(alg, p):
    if p.n != alg.size:
        return False
    for vals in _reference_translations(alg):
        for cls in p.classes():
            if any(not p.same(vals[x], vals[cls[0]]) for x in cls[1:]):
                return False
    return True


def _reference_pair_algebra(alg, alpha):
    n = alg.size
    pairs = [(x, y) for x in range(n) for y in range(n) if alpha.same(x, y)]
    idx = {p: i for i, p in enumerate(pairs)}
    ops = []
    for op in alg.ops:
        table = []
        for args in itertools.product(range(len(pairs)), repeat=op.arity):
            xs = tuple(pairs[a][0] for a in args)
            ys = tuple(pairs[a][1] for a in args)
            table.append(idx[(op.apply(xs, n), op.apply(ys, n))])
        ops.append(Operation(op.name, op.arity, tuple(table)))
    return ops, pairs


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_congruence_check_and_pair_algebra_match_pointwise_references(data):
    size = data.draw(st.integers(1, 5), label="size")
    alg = _random_algebra(data.draw, size)
    ids = data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    p = Partition.from_ids(ids)
    assert translations(alg) == list(dict.fromkeys(_reference_translations(alg)))
    assert is_congruence(alg, p) == _reference_is_congruence(alg, p)
    assert not is_congruence(alg, Partition.zero(size + 1))
    # the least congruence containing p's pairs is one
    theta = congruence_from_pairs(
        alg, [(a, b) for a in range(size) for b in range(a + 1, size) if p.same(a, b)])
    assert is_congruence(alg, theta) and _reference_is_congruence(alg, theta)
    sub, pairs = pair_algebra(alg, theta)
    ops, want_pairs = _reference_pair_algebra(alg, theta)
    assert pairs == want_pairs
    assert sub.ops == tuple(ops)


# ---------------------------------------------------------------------------
# Malcev and Gumm searches


def test_malcev_z2_and_verify(z2):
    res = find_malcev_term(z2)
    assert res.status is Tri.YES
    term = res.value
    for x in range(2):
        for y in range(2):
            assert eval_term(z2, term, (x, x, y)) == y
            assert eval_term(z2, term, (y, x, x)) == y


def test_malcev_2lattice_none(lat2):
    assert find_malcev_term(lat2).status is Tri.NO


def test_malcev_trivial(trivial):
    assert find_malcev_term(trivial).status is Tri.YES


@pytest.mark.parametrize("name", ["Z3", "Z4", "Z6", "Z2xZ2", "S3", "Z4ring", "2boolean"])
def test_malcev_all_malcev_zoo_members(name):
    alg = get(name)
    res = find_malcev_term(alg)
    assert res.status is Tri.YES
    term = res.value
    for x in range(alg.size):
        for y in range(alg.size):
            assert eval_term(alg, term, (x, x, y)) == y
            assert eval_term(alg, term, (y, x, x)) == y


def test_malcev_yes_needs_a_verified_term(z2, monkeypatch):
    def refuse(alg, d):
        raise NotMalcev("refused")

    monkeypatch.setattr(algebra_module, "STORE", FactStore())
    monkeypatch.setattr(algebra_module, "check_malcev_term", refuse)
    with pytest.raises(NotMalcev, match="refused"):
        find_malcev_term(z2)


def test_a_lattice_past_its_cap_skips_the_quotient_step(z2xl2, monkeypatch):
    # with no simple quotient to read, Z2xL2's own closure decides NO
    def past_cap(alg):
        raise CapExceeded(congruence.LATTICE_CAP, "congruence lattice")

    monkeypatch.setattr(algebra_module, "STORE", FactStore())
    monkeypatch.setattr(congruence, "congruence_lattice", past_cap)
    assert algebra_module._simple_quotients(z2xl2) == []
    assert find_malcev_term(z2xl2).status is Tri.NO
    assert find_directed_gumm_terms(z2xl2).status is Tri.YES


def test_gumm_z2_chain_length_one(z2):
    res = find_directed_gumm_terms(z2)
    assert res.status is Tri.YES
    assert len(res.value.terms) == 1
    assert check_gumm_chain(z2, res.value)


def test_gumm_2lattice_found_and_verified(lat2):
    res = find_directed_gumm_terms(lat2)
    assert res.status is Tri.YES
    assert check_gumm_chain(lat2, res.value)


def test_gumm_semilattice_none(semi2):
    assert find_directed_gumm_terms(semi2).status is Tri.NO


def test_gumm_majority_found(majority):
    res = find_directed_gumm_terms(majority)
    assert res.status is Tri.YES
    assert check_gumm_chain(majority, res.value)


def _chain_exists(tables, n):
    points = [p for p in itertools.product(range(n), repeat=3) if len(set(p)) <= 2]
    return gumm_chain_exists(tables, n, points)


@st.composite
def _conservative_tables(draw):
    """n in {2, 3} and distinct tables over the points with at most two
    distinct coordinates, each value one of its point's coordinates, so
    that chain nodes and links are common."""
    n = draw(st.integers(2, 3))
    points = [p for p in itertools.product(range(n), repeat=3) if len(set(p)) <= 2]
    table = st.tuples(*(st.sampled_from(sorted(set(p))) for p in points))
    return n, draw(st.lists(table, min_size=1, max_size=14, unique=True))


@settings(max_examples=150, deadline=None)
@given(_conservative_tables(), st.randoms(use_true_random=False))
def test_chain_reach_decides_as_a_search_over_the_whole_set(drawn, rng):
    """_ChainReach sees the tables one at a time, in any order, and says
    True at the first table that completes a chain; its chain links
    tables it saw."""
    n, tables = drawn
    rng.shuffle(tables)
    reach = algebra_module._ChainReach(n, algebra_module._identity_points(n))
    hits = [i for i, tab in enumerate(tables) if reach(tab)]
    assert bool(hits) == _chain_exists(tables, n)
    if hits:
        assert _chain_exists(tables[:hits[0] + 1], n)
        assert not _chain_exists(tables[:hits[0]], n)
        ds, q = reach.chain()
        assert set(ds) | {q} <= set(tables[:hits[0] + 1])
        assert _chain_exists(ds + [q], n)


def test_gumm_chain_is_verified_under_optimisation():
    proc = run_optimised(
        "from mvcirc import algebra\n"
        "from mvcirc.zoo import get\n"
        "algebra.check_gumm_chain = lambda alg, chain: False\n"
        "print(algebra.find_directed_gumm_terms(get('2lattice')).status)\n")
    assert proc.returncode != 0 and "Gumm chain failed verification" in proc.stderr, proc.stdout


def test_gumm_yes_needs_a_verified_chain(lat2, z2, monkeypatch):
    monkeypatch.setattr(algebra_module, "check_gumm_chain", lambda alg, chain: False)
    for alg in (lat2, z2):      # a chain from the search, and one from a Malcev term
        with pytest.raises(AssertionError, match="Gumm chain failed verification"):
            find_directed_gumm_terms(alg)


# ---------------------------------------------------------------------------
# Quotients, products, induced structure


def test_quotient_z4_mod2_is_z2(z4, z2):
    theta = mod_congruence(4, 2)
    q = quotient(z4, theta)
    assert q.size == 2
    assert q.op("mul").table == z2.op("mul").table
    assert q.op("inv").table == z2.op("inv").table


def test_quotient_is_stored_and_checked_on_every_call(monkeypatch, z4):
    monkeypatch.setattr(algebra_module, "STORE", FactStore())
    theta = mod_congruence(4, 2)
    assert quotient(z4, theta) is quotient(z4, theta)
    assert quotient(z4.rename("Z4b"), theta).name == f"Z4b/{theta}"
    bad = Partition.from_ids([0, 0, 1, 2])
    for _ in range(2):
        with pytest.raises(NotACongruence):
            quotient(z4, bad)
    congruence.congruence_lattice(z4)       # now Con(Z4) decides, not is_congruence
    with pytest.raises(NotACongruence):
        quotient(z4, bad)
    assert quotient(z4, Partition.one(4)).size == 1


@pytest.mark.parametrize("name", [e.name for e in zoo()])
def test_quotient_homomorphism_property(name):
    # for sampled terms to depth 3: eval commutes with every quotient map
    alg = get(name)
    rng = random.Random(7)
    from mvcirc.congruence import congruence_lattice

    for theta in congruence_lattice(alg).congruences:
        q = quotient(alg, theta)
        for _ in range(25):
            t = _random_term(rng, alg, nvars=2, depth=3)
            for asg in itertools.product(range(alg.size), repeat=2):
                lhs = eval_term(q, _map_constants(t, theta), tuple(theta.class_of(a) for a in asg))
                rhs = theta.class_of(eval_term(alg, t, asg))
                assert lhs == rhs


def _random_term(rng, alg, nvars, depth):
    usable = [op for op in alg.ops if op.arity >= 1]
    if depth == 0 or not usable or rng.random() < 0.3:
        if rng.random() < 0.7:
            return Var(rng.randrange(nvars))
        return Const(rng.randrange(alg.size))
    op = usable[rng.randrange(len(usable))]
    return App(op.name, tuple(_random_term(rng, alg, nvars, depth - 1) for _ in range(op.arity)))


def _map_constants(t, theta):
    if isinstance(t, Const):
        return Const(theta.class_of(t.value))
    if isinstance(t, App):
        return App(t.op, tuple(_map_constants(a, theta) for a in t.args))
    return t


def test_direct_product_of_lattices(lat2):
    prod = direct_product(lat2, lat2)
    assert prod.size == 4
    # coordinatewise: (i1,j1) meet (i2,j2) = (i1&i2, j1&j2) with x = 2i+j
    meet = prod.op("meet")
    for x in range(4):
        for y in range(4):
            expect = ((x // 2) & (y // 2)) * 2 + ((x % 2) & (y % 2))
            assert meet.apply((x, y), 4) == expect


def test_direct_product_signature_mismatch(lat2, z2):
    with pytest.raises(ValueError):
        direct_product(lat2, z2)


# ---------------------------------------------------------------------------
# Text format


@pytest.mark.parametrize("name", [e.name for e in zoo()])
def test_algebra_file_round_trip(name):
    alg = get(name)
    text = serialize_algebra(alg)
    back = parse_algebra(text)
    assert back == alg
    assert serialize_algebra(back) == text  # bit-exact


def test_parse_algebra_errors():
    from mvcirc.errors import ParseError

    with pytest.raises(ParseError):
        parse_algebra("algebra X size 2\nop f arity 1\n0 5\n")
    with pytest.raises(ParseError):
        parse_algebra("algebra X size 2\nop f arity 1\n0\n")  # short table


def test_parse_algebra_rejects_negative_arity():
    from mvcirc.errors import ParseError

    with pytest.raises(ParseError, match="op f: negative arity -1 at line 2"):
        parse_algebra("algebra X size 2\nop f arity -1\n0\n")


@pytest.mark.parametrize("size", [0, -2])
def test_parse_algebra_rejects_nonpositive_size(size):
    from mvcirc.errors import ParseError

    with pytest.raises(ParseError, match=f"size {size} is not positive at line 1"):
        parse_algebra(f"algebra X size {size}\nop f arity 1\n1 0\n")
