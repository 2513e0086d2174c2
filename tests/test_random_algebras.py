"""Property tests over randomly generated finite algebras: the congruence
machinery and the dispatcher must agree with brute-force oracles on
arbitrary operation tables, not just on the curated fixtures."""

import itertools
import random

from hypothesis import assume, example, given, settings, strategies as st

from mvcirc.algebra import (
    CLONE_CAP,
    FiniteAlgebra,
    Operation,
    _close_tables,
    _proj_generators,
    _simple_quotients,
    direct_product,
    eval_term,
    find_directed_gumm_terms,
    find_malcev_term,
    is_congruence,
    quotient,
)
from mvcirc.circuit import (
    CeqvInstance,
    CsatInstance,
    McsatInstance,
    ScsatInstance,
    random_circuit,
)
from mvcirc.commutator import commutator, is_affine, is_nilpotent, is_supernilpotent
from mvcirc.congruence import congruence_from_pairs, congruence_lattice, factor_pairs
from mvcirc.errors import BudgetExceeded, Tri, UntypedLattice
from mvcirc.solvers import dispatch, plan_for, solve_bruteforce
from mvcirc.structure import _decomposition_flags, decompose_nd, is_dl_like, radical
from mvcirc.tct import typed_congruence_lattice
from mvcirc.zoo import get, zoo

from conftest import (
    all_partitions,
    clone_cap,
    e2_power,
    gumm_chain_exists,
    join_closure_lattice,
    partition_join,
    partition_radical,
)


@st.composite
def small_algebras(draw, max_size=4):
    n = draw(st.integers(min_value=2, max_value=max_size))
    num_ops = draw(st.integers(min_value=1, max_value=2))
    ops = []
    for i in range(num_ops):
        arity = draw(st.integers(min_value=1, max_value=2))
        table = tuple(
            draw(st.integers(min_value=0, max_value=n - 1))
            for _ in range(n ** arity)
        )
        ops.append(Operation(f"f{i}", arity, table))
    return FiniteAlgebra("rand", n, tuple(ops))


@st.composite
def small_products(draw):
    """Products of two random algebras of one signature, of order at most 6,
    so that nontrivial factor pairs occur."""
    arities = draw(st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=2))
    sizes = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    left, right = (
        FiniteAlgebra(f"F{n}", n, tuple(
            Operation(f"f{i}", r, tuple(draw(st.integers(min_value=0, max_value=n - 1))
                                        for _ in range(n ** r)))
            for i, r in enumerate(arities)))
        for n in sizes)
    return direct_product(left, right)


def _expansion(n, unary):
    """Z_n with + and -, expanded by the unary u."""
    return FiniteAlgebra(f"Z{n}u", n, (
        Operation("add", 2, tuple((x + y) % n for x in range(n) for y in range(n))),
        Operation("neg", 1, tuple(-x % n for x in range(n))),
        Operation("u", 1, unary)))


# Z6 = Z2 x Z3 with x -> (x mod 2, x mod 3), and the unary (a, b) -> (0, a),
# a read in Z3: not a homomorphism, so the expansion is nilpotent of class 2
# and not supernilpotent, and its CSAT and CEQV verdicts are OpenGap
TWISTED_Z6 = _expansion(6, tuple(4 * (x % 2) for x in range(6)))


@st.composite
def malcev_algebras(draw, max_product=3):
    """Z_n (n = 2..6) with + and -, expanded by one unary operation, either
    x -> kx + c, an arbitrary table, or for n = 6 the unary of TWISTED_Z6,
    and for n <= max_product half the time multiplied by a random 2-element
    algebra of the same signature.  Each expansion of Z_n has the Malcev
    term x - y + z, so the routes whose flags need one come up: the affine
    and supernilpotent routes on the expansions, the product route on the
    products.  Products of order above 6 (max_product 4 or 5) are for
    dispatch alone, which classifies nothing: classifying one without a
    Malcev term can take minutes, since every cover of its congruence
    lattice is typed by search."""
    n = draw(st.integers(min_value=2, max_value=6))
    shape = draw(st.sampled_from(["linear", "table"] + ["twisted"] * (n == 6)))
    if shape == "linear":
        k, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        alg = _expansion(n, tuple((k * x + c) % n for x in range(n)))
    elif shape == "table":
        alg = _expansion(n, tuple(draw(st.integers(0, n - 1)) for _ in range(n)))
    else:
        alg = TWISTED_Z6
    if n <= max_product and draw(st.booleans()):
        two = FiniteAlgebra("F2", 2, tuple(
            Operation(op.name, op.arity, tuple(draw(st.integers(0, 1)) for _ in range(2 ** op.arity)))
            for op in alg.ops))
        alg = direct_product(alg, two)
    return alg


@st.composite
def lattice_algebras(draw):
    """The k-th power of the 2-element lattice (k = 1..3), with coordinatewise
    meet and join, expanded by one unary operation that sends each
    coordinate to 0, to 1 or to itself.  Both lattice operations are
    basic, so the plan's DL-like flag says YES and CSAT and MCSAT take the
    usp route; CEQV and SCSAT go to the product route from k = 2 on."""
    factors = [FiniteAlgebra("L2", 2, (
        Operation("meet", 2, (0, 0, 0, 1)),
        Operation("join", 2, (0, 1, 1, 1)),
        Operation("u", 1, draw(st.sampled_from([(0, 0), (1, 1), (0, 1)])))))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    alg = factors[0]
    for factor in factors[1:]:
        alg = direct_product(alg, factor)
    return alg


def _compose(a, b):
    """a o b as a set of pairs: (x, z) with x a y and y b z for some y."""
    a_classes, b_classes = a.classes(), b.classes()
    return {(x, z) for x in range(a.n) for y in a_classes[a.class_of(x)]
            for z in b_classes[b.class_of(y)]}


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_algebras(), small_products()))
def test_factor_pairs_match_the_definition(alg):
    """factor_pairs decides a pair by a zero meet and the class counts; the
    oracle is the definition (meet 0, join 1, and the pair permutes).  Each
    pair's map is an isomorphism of A onto the product of its quotients."""
    cons = congruence_lattice(alg).congruences
    oracle = [(a1, a2) for a1 in cons for a2 in cons
              if a1.meet(a2).is_zero() and partition_join(a1, a2).is_one()
              and _compose(a1, a2) == _compose(a2, a1)]
    pairs = factor_pairs(alg)
    assert [(fp.alpha1, fp.alpha2) for fp in pairs] == oracle
    for fp in pairs:
        prod = direct_product(fp.left, fp.right)
        flat = [i * fp.right.size + j for i, j in fp.iso]
        assert sorted(flat) == list(range(alg.size))
        for op, prod_op in zip(alg.ops, prod.ops):
            for args in itertools.product(range(alg.size), repeat=op.arity):
                mapped = [flat[x] for x in args]
                assert flat[op.apply(args, alg.size)] == prod_op.apply(mapped, prod.size)


def _outcome(fn):
    """fn's value, or UntypedLattice if it raises that."""
    try:
        return fn()
    except UntypedLattice:
        return UntypedLattice


@settings(max_examples=80, deadline=None)
@given(st.one_of(malcev_algebras(), small_algebras(), small_products()))
@example(get("Z2xL2"))
def test_radicals_and_nd_pair_match_the_partition_reference(alg):
    """radical reads the lattice's order masks; the reference compares
    partitions.  decompose_nd's pair is (rho4, rho2) when the typeset lies
    in {2, 4} and the pair meets to 0 with class counts multiplying to |A|.
    The small cap keeps the typing searches short; a lattice they leave
    partly untyped is skipped."""
    with clone_cap(500, shared=True):
        typed = typed_congruence_lattice(alg)
        assume(typed.fully_typed)
        for i in (2, 4):
            assert _outcome(lambda: radical(alg, typed, i)) == \
                _outcome(lambda: partition_radical(alg, typed, i))

        def reference_pair():
            if not typed.typeset() <= {2, 4}:
                return None
            rho2, rho4 = partition_radical(alg, typed, 2), partition_radical(alg, typed, 4)
            split = rho4.meet(rho2).is_zero() and rho4.num_classes * rho2.num_classes == alg.size
            return (rho4, rho2) if split else None

        def pair():
            dec = decompose_nd(alg)
            return None if dec is None else (dec.rho4, dec.rho2)

        assert _outcome(pair) == _outcome(reference_pair)


@settings(max_examples=120, deadline=None)
@given(small_algebras())
def test_congruence_lattice_matches_partition_filter(alg):
    lat = congruence_lattice(alg)
    oracle = {p for p in all_partitions(alg.size) if is_congruence(alg, p)}
    assert set(lat.congruences) == oracle


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_algebras(), malcev_algebras()))
@example(e2_power(4))
def test_congruence_lattice_matches_the_join_closure_reference(alg):
    """The relabelling join closure and the order read off principal masks
    give the congruences, their order masks and the covers that joining
    partitions and comparing each pair gives."""
    lat = congruence_lattice(alg)
    assert (lat.congruences, lat.below, lat.covers) == join_closure_lattice(alg)


@settings(max_examples=120, deadline=None)
@given(small_algebras())
def test_principal_congruences_are_least(alg):
    oracle = [p for p in all_partitions(alg.size) if is_congruence(alg, p)]
    for a in range(alg.size):
        for b in range(alg.size):
            cg = congruence_from_pairs(alg, [(a, b)])
            assert is_congruence(alg, cg)
            assert cg.same(a, b)
            for theta in oracle:
                assert theta.same(a, b) == cg.leq(theta)


@settings(max_examples=80, deadline=None)
@given(small_algebras())
def test_commutator_below_meet_and_monotone(alg):
    cons = congruence_lattice(alg).congruences
    values = {}
    for x in cons:
        for y in cons:
            c = commutator(alg, x, y)
            values[(x, y)] = c
            assert c.leq(x.meet(y))
            assert is_congruence(alg, c)
    for (x, y), c in values.items():
        for (x2, y2), c2 in values.items():
            if x.leq(x2) and y.leq(y2):
                assert c.leq(c2)


@settings(max_examples=80, deadline=None)
@given(small_algebras())
def test_quotients_are_well_defined(alg):
    for theta in congruence_lattice(alg).congruences:
        q = quotient(alg, theta)
        assert q.size == theta.num_classes
        # quotient map is a homomorphism on every basic operation
        for op in alg.ops:
            qop = q.op(op.name)
            for args in itertools.product(range(alg.size), repeat=op.arity):
                lhs = theta.class_of(op.apply(args, alg.size))
                rhs = qop.apply(tuple(theta.class_of(a) for a in args), q.size)
                assert lhs == rhs


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_algebras(max_size=3), malcev_algebras(max_product=5), lattice_algebras()),
       st.randoms(use_true_random=False))
@example(TWISTED_Z6, random.Random(1))
@example(direct_product(_expansion(5, (0, 2, 2, 4, 1)), FiniteAlgebra("F2", 2, (
    Operation("add", 2, (0, 1, 1, 1)), Operation("neg", 1, (1, 0)), Operation("u", 1, (0, 0))))),
    random.Random(2))
def test_dispatch_agrees_with_brute_force(alg, rng):
    """Whatever route the plan picks for an algebra (including one whose
    flags its Malcev search does not back up), dispatch decides every kind
    as brute force does and raises nothing but BudgetExceeded.  The small
    cap keeps each plan's searches short, and sends the searches it cuts
    short down the fallback routes; the expansions of Z_n reach the affine,
    supernilpotent and product routes, the products up to order 10
    included, TWISTED_Z6 is nilpotent and not supernilpotent, and the
    lattice powers reach the usp route."""
    with clone_cap(500, shared=True):
        for _ in range(2):
            c = random_circuit(alg, rng, rng.randint(1, 4), rng.randint(5, 9), 3)
            pair = c.with_outputs(c.outputs[:2])
            for inst in (CsatInstance(pair), McsatInstance(c), CeqvInstance(pair),
                         ScsatInstance(c, ((c.outputs[0], c.outputs[2]),))):
                try:
                    got = dispatch(alg, inst)
                except BudgetExceeded:
                    continue
                assert got.answer == solve_bruteforce(alg, inst).answer, got.solver_used


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_algebras(), malcev_algebras()), st.sampled_from([50, 500, 5000]))
@example(FiniteAlgebra("proj", 2, (Operation("p", 2, (0, 0, 1, 1)),)), 500)
def test_supernilpotent_flag_needs_a_malcev_term(alg, cap):
    """The flag stands for the hypothesis of the CSAT and CEQV theorems, a
    supernilpotent Malcev algebra, so YES needs a Malcev term found under
    the same cap.  The 2-element algebra with one projection is nilpotent
    and of prime order, and has none."""
    with clone_cap(cap, shared=True):
        if is_supernilpotent(alg) is Tri.YES:
            assert find_malcev_term(alg).status is Tri.YES


def _all_points_search(alg, cap):
    """The Malcev and directed-Gumm statuses as decided from one ternary
    term closure over all of A^3, with no quotient step: the searches'
    former method, kept here as the reference."""
    n, n2 = alg.size, alg.size ** 2
    points = list(itertools.product(range(n), repeat=3))

    def is_malcev(tab):
        return all(tab[x * n2 + x * n + y] == y and tab[y * n2 + x * n + x] == y
                   for x in range(n) for y in range(n))

    clone, hit = _close_tables(alg, points, _proj_generators(alg, points, 3, False), cap,
                               is_malcev)
    if hit is not None:
        return Tri.YES, Tri.YES
    if not clone.complete:
        return Tri.UNKNOWN, Tri.UNKNOWN
    return Tri.NO, Tri.YES if gumm_chain_exists(clone.tables, n, points) else Tri.NO


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_algebras(), malcev_algebras(), lattice_algebras()),
       st.sampled_from([50, 500, 5000]))
@example(get("Z2xL2"), 50)
@example(get("Z6"), 3)          # its simple quotients' searches hit cap 3
def test_malcev_and_gumm_searches_match_the_all_points_reference(alg, cap):
    """Both searches close over the points with at most two distinct
    coordinates and take NO from a simple quotient; wherever they and the
    all-points reference both decide, they agree.  A decided status is
    exact whatever the cap, so a NO is checked against the reference run
    to 20,000 tables when this cap cuts the reference short.  Every NO a
    simple quotient says is the algebra's NO; not every algebra's own
    search completes within 20,000 tables (some 4-element draws outgrow
    it), and where it does, it agrees."""
    with clone_cap(cap, shared=True):
        got = (find_malcev_term(alg).status, find_directed_gumm_terms(alg).status)
        quotients = _simple_quotients(alg)
        assert got[0] is Tri.NO or all(find_malcev_term(q).status is not Tri.NO
                                       for q in quotients)
        assert got[1] is Tri.NO or all(find_directed_gumm_terms(q).status is not Tri.NO
                                       for q in quotients)
    want = _all_points_search(alg, cap)
    if Tri.NO in got and Tri.UNKNOWN in want:
        want = _all_points_search(alg, 20_000)
    for status, reference in zip(got, want):
        if Tri.UNKNOWN not in (status, reference):
            assert status is reference


def _assert_malcev_slice_characterizes_equality(alg):
    """The support sweep compares the outputs p and q themselves, where the
    CSAT and CEQV theorems state the equation as d(p, q, 0) = 0 for the
    Malcev term d.  Both forms have the same solutions when d(x, y, z) = z
    holds exactly for x = y, as it does in a supernilpotent Malcev
    algebra."""
    plan = plan_for(alg)
    if plan.flags["supernilpotent"] is not Tri.YES:
        return
    d = find_malcev_term(alg).value
    for x, y, z in itertools.product(range(alg.size), repeat=3):
        assert (eval_term(alg, d, (x, y, z)) == z) == (x == y), (alg.name, x, y, z)


def test_the_sweep_equation_matches_the_theorem_on_the_zoo():
    for entry in zoo():
        _assert_malcev_slice_characterizes_equality(entry.algebra)


@settings(max_examples=60, deadline=None)
@given(malcev_algebras())
def test_the_sweep_equation_matches_the_theorem_on_random_expansions(alg):
    with clone_cap(500, shared=True):
        _assert_malcev_slice_characterizes_equality(alg)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_algebras(), malcev_algebras()), st.sampled_from([50, 500, 5000]))
def test_an_affine_algebra_is_supernilpotent(alg, cap):
    """Plan.routes gives CSAT the first route of HYPOTHESES whose flag is
    YES, and the affine route decides CSAT too.  An affine algebra's CSAT
    instances still take the support sweep, because an abelian Malcev
    algebra is 1-supernilpotent and both flags read the same Malcev
    search."""
    with clone_cap(cap, shared=True):
        if is_affine(alg) is Tri.YES:
            assert is_supernilpotent(alg) is Tri.YES


def _exists_decomposition(alg, left_flag):
    """Reference: one scan of the factor pairs per flag, stopping at the
    first pair that says YES."""
    best = Tri.NO
    for fp in factor_pairs(alg):
        left, right = left_flag(fp.left), is_dl_like(fp.right)[0]
        if left is Tri.YES and right is Tri.YES:
            return Tri.YES
        if Tri.NO not in (left, right):
            best = Tri.UNKNOWN
    return best


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_algebras(), small_products(), malcev_algebras()),
       st.sampled_from([3, 10, CLONE_CAP]))
@example(get("Z2xL2"), 10)
@example(get("Z4ring"), 10)
@example(get("Z6"), CLONE_CAP)
def test_decomposition_flags_match_one_scan_per_flag(alg, cap):
    """The single pass folds each flag as its own scan does: YES if some
    pair says YES, else UNKNOWN if some pair says UNKNOWN, else NO.  Random
    tables seldom have a Malcev term; the expansions of Z_n reach YES
    through the trivial pair, and zoo algebras cover the mixed cases."""
    with clone_cap(cap, shared=True):
        assert _decomposition_flags(alg) == (
            _exists_decomposition(alg, is_supernilpotent),
            _exists_decomposition(alg, lambda a: Tri.YES if is_nilpotent(a) else Tri.NO),
            _exists_decomposition(alg, is_affine),
        )
