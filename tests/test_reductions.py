import random

import pytest

from mvcirc.circuit import CircuitBuilder, CsatInstance, ScsatInstance, eval_circuit
from mvcirc.errors import InvalidWitness
from mvcirc.reductions import (
    Cnf3,
    CspInstance,
    Dl01Instance,
    RelStructure,
    Type3Witness,
    boolean_host_witness,
    build_csp_algebra,
    csat_to_csp,
    csp_to_csat,
    derive_type3_witness,
    dl01_system,
    parse_csp_instance,
    parse_dimacs,
    parse_structure_file,
    random_cnf3,
    scsat_to_mcsat,
    threesat_to_csat,
)
from mvcirc.solvers import solve_bruteforce
from mvcirc.algebra import find_malcev_term

from conftest import clone_cap


# ---------------------------------------------------------------------------
# 3-SAT -> CSAT


def test_threesat_single_clause_sat(bool2):
    phi = Cnf3(3, (((1, 2, 3)),))
    inst = threesat_to_csat(bool2, boolean_host_witness(bool2), phi)
    assert solve_bruteforce(bool2, inst).answer == "sat"


def test_threesat_contradiction_unsat(bool2):
    phi = Cnf3(1, ((1, 1, 1), (-1, -1, -1)))
    inst = threesat_to_csat(bool2, boolean_host_witness(bool2), phi)
    assert solve_bruteforce(bool2, inst).answer == "unsat"


def test_threesat_agreement_random(bool2):
    rng = random.Random(11)
    w = boolean_host_witness(bool2)
    for _ in range(20):
        phi = random_cnf3(rng, 4, rng.randint(1, 6))
        inst = threesat_to_csat(bool2, w, phi)
        circuit_sat = solve_bruteforce(bool2, inst).answer == "sat"
        assert circuit_sat == phi.satisfiable()


def test_threesat_size_linear(bool2):
    w = boolean_host_witness(bool2)
    rng = random.Random(5)
    sizes = []
    for m in (1, 3, 6, 10):
        phi = random_cnf3(rng, 4, m)
        inst = threesat_to_csat(bool2, w, phi)
        sizes.append((m, len(inst.circuit.gates)))
    # gate count <= c * clauses + constant, with c = 7 comfortable for this gadget
    for m, s in sizes:
        assert s <= 7 * m + 10


def test_invalid_witness_rejected(bool2, lat2):
    from mvcirc.algebra import App, Var

    bad = Type3Witness(0, 1, App("meet", (Var(0), Var(1))), App("join", (Var(0), Var(1))),
                       App("join", (Var(0), Var(0))), Var(0))  # neg is not a negation
    with pytest.raises(InvalidWitness):
        bad.validate(bool2)


def test_derive_type3_witness(bool2, lat2):
    w = derive_type3_witness(bool2)
    assert w is not None
    w.validate(bool2)
    assert derive_type3_witness(lat2) is None  # no type-3 cover in a lattice


def test_derive_type3_witness_under_a_small_cap(bool2):
    # the Malcev term types the cover 3, but its minimal sets need more than
    # two unary tables: no witness, and no CapExceeded
    with clone_cap(2):
        assert derive_type3_witness(bool2) is None


# ---------------------------------------------------------------------------
# CSP <-> CSAT


def _eq_structure():
    return RelStructure("D2eq", 2, {"eq": (2, frozenset({(0, 0), (1, 1)}))})


def test_build_csp_algebra_shape():
    d = _eq_structure()
    alg = build_csp_algebra(d)
    assert alg.size == d.domain + 2
    # characteristic table of the equality relation has exactly two 1-entries
    f_eq = alg.op("R_eq")
    t = d.domain + 1
    hits = [i for i, v in enumerate(f_eq.table) if v == t]
    assert len(hits) == 2
    assert f_eq.apply((0, 0), alg.size) == t and f_eq.apply((1, 1), alg.size) == t


def test_build_csp_algebra_empty_relation():
    d = RelStructure("D", 2, {"none": (2, frozenset())})
    alg = build_csp_algebra(d)
    f = alg.op("R_none")
    assert set(f.table) == {2}  # constant false


def test_build_csp_and_is_flat_conjunction():
    d = _eq_structure()
    alg = build_csp_algebra(d)
    n = alg.size
    t, f = 3, 2
    meet = alg.op("and")
    for x in range(n):
        for y in range(n):
            v = meet.apply((x, y), n)
            assert v == (t if x == y == t else f)
    # associative and commutative on {f, t}, absorbing elsewhere
    for x in range(n):
        for y in range(n):
            assert meet.apply((x, y), n) == meet.apply((y, x), n)
            for z in range(n):
                a = meet.apply((meet.apply((x, y), n), z), n)
                b = meet.apply((x, meet.apply((y, z), n)), n)
                assert a == b


def test_csp_to_csat_single_atom():
    d = RelStructure("D", 2, {"r": (2, frozenset({(0, 1)}))})
    inst_csp = CspInstance(d, (("r", ("x", "y")),))
    alg, inst = csp_to_csat(d, inst_csp)
    assert inst_csp.satisfiable()
    assert solve_bruteforce(alg, inst).answer == "sat"


def test_csp_to_csat_unsat_forcing():
    d = RelStructure("D", 2, {"is0": (1, frozenset({(0,)})), "is1": (1, frozenset({(1,)}))})
    inst_csp = CspInstance(d, (("is0", ("x",)), ("is1", ("x",))))
    alg, inst = csp_to_csat(d, inst_csp)
    assert not inst_csp.satisfiable()
    assert solve_bruteforce(alg, inst).answer == "unsat"


def test_csp_round_trip():
    d = _eq_structure()
    inst_csp = CspInstance(d, (("eq", ("x", "y")), ("eq", ("y", "z"))))
    alg, inst = csp_to_csat(d, inst_csp)
    back, diag = csat_to_csp(d, alg, inst)
    assert diag is None
    assert back.atoms == inst_csp.atoms


def test_csat_to_csp_rejects_other_shapes():
    d = _eq_structure()
    alg = build_csp_algebra(d)
    b = CircuitBuilder(alg.name)
    x = b.input("x")
    inst = CsatInstance(b.build([x, x]))
    back, diag = csat_to_csp(d, alg, inst)
    assert back is None and diag


def test_csp_agreement_random_structures():
    rng = random.Random(23)
    for _ in range(20):
        dom = 2
        tuples = frozenset(
            (rng.randrange(dom), rng.randrange(dom)) for _ in range(rng.randint(0, 3))
        )
        d = RelStructure("D", dom, {"r": (2, tuples)})
        atoms = tuple(
            ("r", (f"v{rng.randrange(3)}", f"v{rng.randrange(3)}"))
            for _ in range(rng.randint(1, 4))
        )
        inst_csp = CspInstance(d, atoms)
        alg, inst = csp_to_csat(d, inst_csp)
        assert (solve_bruteforce(alg, inst).answer == "sat") == inst_csp.satisfiable()
        back, diag = csat_to_csp(d, alg, inst)
        assert diag is None and back.atoms == atoms


def test_structure_file_round_trip():
    text = "domain 2\nrel eq arity 2\n0 0\n1 1\n"
    d = parse_structure_file(text)
    assert d.domain == 2
    assert d.relations["eq"] == (2, frozenset({(0, 0), (1, 1)}))
    inst = parse_csp_instance(d, "eq x y\neq y z\n")
    assert inst.atoms == (("eq", ("x", "y")), ("eq", ("y", "z")))


# ---------------------------------------------------------------------------
# dl01 systems


def test_dl01_disjoint_sat(lat2):
    # seed chosen so the two sides share no variable
    for seed in range(50):
        inst = dl01_system(1, 1, seed, lat2)
        if set(v for t in inst.x_triples for v in t) & set(v for t in inst.y_triples for v in t):
            continue
        assert inst.verify()
        assert solve_bruteforce(lat2, inst.system).answer == "sat"
        break
    else:
        pytest.skip("no disjoint seed found in range")


def test_dl01_forced_shared_variable_unsat(lat2):
    # hand-built: same variable must be 1 (clause side) and 0 (big join side)
    b = CircuitBuilder(lat2.name)
    v = b.input("v")
    or1 = b.op("join", b.op("join", v, v), v)
    or2 = b.op("join", b.op("join", v, v), v)
    one, zero = b.const(1), b.const(0)
    system = ScsatInstance(b.build([or1, or2]), ((or1, one), (or2, zero)))
    assert solve_bruteforce(lat2, system).answer == "unsat"
    inst = Dl01Instance(system, [("v", "v", "v")], [("v", "v", "v")], ["v"])
    assert not inst.verify()


def test_dl01_verifier_agrees_with_brute_force(lat2):
    for seed in range(100):
        inst = dl01_system(2, 2, seed, lat2)
        assert inst.verify() == (solve_bruteforce(lat2, inst.system).answer == "sat")


# ---------------------------------------------------------------------------
# SCSAT -> MCSAT


def _malcev(alg):
    return find_malcev_term(alg).value


def test_scsat_to_mcsat_z4(z4):
    b = CircuitBuilder(z4.name)
    x, y = b.input("x"), b.input("y")
    plus = b.op("mul", x, y)
    one = b.const(1)
    system = ScsatInstance(b.build([plus, one]), ((plus, one), (x, y)))
    mcsat = scsat_to_mcsat(z4, system, _malcev(z4), 0)
    assert len(mcsat.circuit.outputs) == 3  # two equations + the constant
    a = solve_bruteforce(z4, system)
    m = solve_bruteforce(z4, mcsat)
    assert a.answer == m.answer
    if a.answer == "sat":
        vals = eval_circuit(z4, mcsat.circuit, a.witness)
        assert all(v == vals[0] for v in vals)


def test_scsat_to_mcsat_empty_system(z4):
    b = CircuitBuilder(z4.name)
    b.input("x")
    system = ScsatInstance(b.build([0]), ())
    mcsat = scsat_to_mcsat(z4, system, _malcev(z4), 2)
    assert solve_bruteforce(z4, mcsat).answer == "sat"


def test_scsat_to_mcsat_agreement_batch(z2xz2):
    rng = random.Random(77)
    d = _malcev(z2xz2)
    for _ in range(200):
        nv = rng.randint(1, 3)
        b = CircuitBuilder(z2xz2.name)
        for i in range(nv):
            b.input(f"x{i}")
        while len(b.gates) < nv + 5:
            op = z2xz2.ops[rng.randrange(len(z2xz2.ops))]
            args = [rng.randrange(len(b.gates)) for _ in range(op.arity)]
            b.op(op.name, *args)
        eqs = tuple(
            (rng.randrange(len(b.gates)), rng.randrange(len(b.gates)))
            for _ in range(rng.randint(1, 3))
        )
        system = ScsatInstance(b.build([0, 0]), eqs)
        mcsat = scsat_to_mcsat(z2xz2, system, d, rng.randrange(4))
        assert solve_bruteforce(z2xz2, system).answer == solve_bruteforce(z2xz2, mcsat).answer


def test_scsat_to_mcsat_warns_without_permutation_property(lat2, z4):
    from mvcirc.algebra import App, Var
    from mvcirc.errors import NotMalcev

    b = CircuitBuilder(lat2.name)
    x = b.input("x")
    system = ScsatInstance(b.build([x, x]), ((x, x),))
    with pytest.raises(NotMalcev):
        scsat_to_mcsat(lat2, system, App("meet", (Var(0), Var(1))), 0)


# ---------------------------------------------------------------------------
# DIMACS


def test_parse_dimacs():
    text = "c example\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
    cnf = parse_dimacs(text)
    assert cnf.num_vars == 3
    assert cnf.clauses == ((1, -2, 3), (-1, 2, -3))
