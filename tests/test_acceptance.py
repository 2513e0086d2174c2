"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime against the stated budget.  Run with `pytest -s` to see the
lines as they complete.
"""

import itertools
import math
import random
import time

from mvcirc.algebra import direct_product, find_malcev_term
from mvcirc.circuit import (
    CsatInstance,
    McsatInstance,
    iterated_commutator_circuit,
    random_circuit,
)
from mvcirc.commutator import commutator
from mvcirc.congruence import congruence_lattice
from mvcirc.partition import Partition
from mvcirc.reductions import (
    CspInstance,
    RelStructure,
    boolean_host_witness,
    csat_to_csp,
    csp_to_csat,
    random_cnf3,
    scsat_to_mcsat,
    threesat_to_csat,
)
from mvcirc.solvers import (
    RAMSEY_CEILING,
    minimal_support_profile,
    plan_for,
    ramsey_support_bound,
    solve_affine,
    solve_bruteforce,
    solve_supernilpotent,
    solve_usp,
)
from mvcirc.structure import classify, decompose_nd
from mvcirc.tct import typed_congruence_lattice
from mvcirc.zoo import get

from conftest import maj_table_eval, majority_small_circuit_tables, random_system


def _report(num, title, t0, budget):
    elapsed = time.time() - t0
    line = f"ACCEPTANCE {num:2d} PASS  ({elapsed:6.2f}s / budget {budget}s)  {title}"
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_commutator_circuit_size():
    t0 = time.time()
    s3 = get("S3")
    for n in range(2, 7):
        c = iterated_commutator_circuit(s3, n)
        assert len(c.gates) == 6 * n - 5, f"t_{n}: {len(c.gates)} gates, want {6 * n - 5}"
    _report(1, "iterated commutator circuit has 6n-5 gates for n=2..6", t0, 1)


def test_criterion_02_congruence_lattice_counts():
    t0 = time.time()
    expected = {"Z4": 3, "Z6": 4, "S3": 3, "Z2xZ2": 5,
                "2lattice": 2, "2semilattice": 2, "2boolean": 2}
    for name, count in expected.items():
        assert len(congruence_lattice(get(name))) == count, name
    _report(2, "congruence lattice cardinalities across the zoo", t0, 1)


def test_criterion_03_commutators():
    t0 = time.time()
    for name in ("Z2", "Z3", "Z4", "Z6", "Z2xZ2"):
        alg = get(name)
        one = Partition.one(alg.size)
        assert commutator(alg, one, one).is_zero(), name
    s3 = get("S3")
    a3 = Partition.from_ids([0, 1, 1, 0, 0, 1])
    assert commutator(s3, Partition.one(6), Partition.one(6)) == a3
    lat = get("2lattice")
    one2, zero2 = Partition.one(2), Partition.zero(2)
    assert commutator(lat, one2, one2) == one2
    assert not commutator(lat, one2, one2).leq(zero2)
    _report(3, "[1,1] on abelian groups, S3, and the 2-element lattice", t0, 5)


def test_criterion_04_typesets():
    t0 = time.time()
    expected = {
        "2boolean": {3},
        "2lattice": {4},
        "2semilattice": {5},
        "Z2": {2},
        "Z3": {2},
        "Z2xL2": {2, 4},
    }
    for name, want in expected.items():
        assert typed_congruence_lattice(get(name)).typeset() == want, name
    _report(4, "five-type labels across the canonical 2-element algebras", t0, 30)


def test_criterion_05_decomposition():
    t0 = time.time()
    alg = get("Z2xL2")
    dec = decompose_nd(alg)
    assert dec is not None
    # factors isomorphic to the construction inputs
    assert dec.n_factor.op("f").table == (0, 1, 1, 0)      # xor on both ops
    assert dec.n_factor.op("g").table == (0, 1, 1, 0)
    assert dec.d_factor.op("f").table == (0, 0, 0, 1)      # meet
    assert dec.d_factor.op("g").table == (0, 1, 1, 1)      # join
    # reassembly reproduces the product tables bit-exactly through the iso
    prod = direct_product(dec.n_factor, dec.d_factor)
    mapping = [i * dec.d_factor.size + j for (i, j) in dec.iso]
    assert sorted(mapping) == list(range(alg.size))
    for op_a, op_p in zip(alg.ops, prod.ops):
        for args in itertools.product(range(alg.size), repeat=op_a.arity):
            mapped = tuple(mapping[x] for x in args)
            assert mapping[op_a.apply(args, alg.size)] == op_p.apply(mapped, prod.size)
    _report(5, "N x D decomposition of Z2 x 2-element-lattice reassembles", t0, 10)


def test_criterion_06_classification_golden_table():
    t0 = time.time()
    want = {
        "Z6": {"CSAT": "PolyTime", "MCSAT": "PolyTime", "SCSAT": "PolyTime", "CEQV": "PolyTime"},
        "S3": {"CSAT": "NPComplete-regime", "CEQV": "CoNPComplete-regime"},
        "Z4ring": {"CSAT": "PolyTime", "SCSAT": "NPComplete-regime"},
        "2lattice": {"CSAT": "PolyTime", "SCSAT": "NPComplete-regime",
                     "CEQV": "CoNPComplete-regime"},
    }
    for name, verdicts in want.items():
        rep = classify(get(name))
        for prob, kind in verdicts.items():
            got = rep.verdicts[prob].kind
            assert got == kind, f"{name} {prob}: {got} != {kind}"
    _report(6, "classification verdicts match the summary-table rows", t0, 60)


def test_criterion_07_usp_oracle_equivalence():
    t0 = time.time()
    total = 0
    for name in ("2lattice", "majority"):
        alg = get(name)
        rng = random.Random(2027)
        for i in range(500):
            n_inputs = rng.randint(1, 4)
            n_gates = rng.randint(n_inputs + 1, 12)
            n_outputs = 2 if i % 2 == 0 else rng.randint(2, 4)
            circ = random_circuit(alg, rng, n_inputs, n_gates, n_outputs)
            inst = CsatInstance(circ) if n_outputs == 2 and i % 2 == 0 else McsatInstance(circ)
            fast = solve_usp(plan_for(alg), inst)
            slow = solve_bruteforce(alg, inst)
            assert fast.answer == slow.answer, f"{name} instance {i}"
            total += 1
    assert total == 1000
    _report(7, "diagonal solver agrees with brute force on 1000 instances", t0, 120)


def test_criterion_08_usp_property_exhaustive():
    t0 = time.time()
    tables = majority_small_circuit_tables(6)
    assert len(tables) >= 100  # non-vacuous coverage
    violations = 0
    for tab in tables:
        attained = {
            maj_table_eval(tab, x, y, z)
            for x in range(4) for y in range(4) for z in range(4)
        }
        for v in attained:
            if maj_table_eval(tab, v, v, v) != v:
                violations += 1
    assert violations == 0
    _report(8, f"value-attained-implies-diagonal over all <=6-gate circuits "
               f"({len(tables)} functions)", t0, 300)


def test_criterion_09_supernilpotent_oracle_equivalence():
    t0 = time.time()
    total = 0
    for name in ("Z4", "Z2xZ2", "Z6"):
        alg = get(name)
        rng = random.Random(90210)
        for i in range(334):
            n_inputs = rng.randint(1, 4)
            n_gates = rng.randint(n_inputs + 1, 10)
            inst = CsatInstance(random_circuit(alg, rng, n_inputs, n_gates, 2))
            fast = solve_supernilpotent(plan_for(alg), inst)
            slow = solve_bruteforce(alg, inst)
            assert fast.answer == slow.answer, f"{name} instance {i}"
            if fast.answer == "sat":
                hist = minimal_support_profile(alg, inst)
                assert max(hist) <= n_inputs  # support never exceeds the variable count
                min_support = min(hist)
                got_support = sum(1 for v in fast.witness.values() if v != 0)
                # the ascending-support sweep finds a witness at the minimal
                # support level, never later
                assert got_support == min_support
            total += 1
    assert total == 1002
    _report(9, "bounded-support sweep agrees with brute force on 1002 instances",
            t0, 120)


def test_criterion_10_affine_solver():
    t0 = time.time()
    total = 0
    from mvcirc.circuit import eval_circuit

    for name in ("Z4", "Z6", "Z2xZ2"):
        alg = get(name)
        rng = random.Random(1789)
        for i in range(167):
            inst = random_system(alg, rng)
            fast = solve_affine(plan_for(alg), inst)
            slow = solve_bruteforce(alg, inst)
            assert fast.answer == slow.answer, f"{name} system {i}"
            assert fast.solver_used == "affine"   # the one path: no fallback
            if fast.answer == "sat":
                # every reported witness re-verifies by direct evaluation
                vals = []
                eval_circuit(alg, inst.circuit, fast.witness,
                             hook=lambda _i, v: vals.append(v))
                assert all(vals[g] == vals[h] for g, h in inst.equations)
            total += 1
    assert total == 501
    _report(10, "module elimination agrees with brute force on 501 systems", t0, 120)


def test_criterion_11_reduction_soundness():
    t0 = time.time()
    bool2 = get("2boolean")
    w = boolean_host_witness(bool2)
    rng = random.Random(300)
    for i in range(100):
        phi = random_cnf3(rng, rng.randint(1, 4), rng.randint(1, 6))
        inst = threesat_to_csat(bool2, w, phi)
        assert (solve_bruteforce(bool2, inst).answer == "sat") == phi.satisfiable(), i

    rng = random.Random(301)
    for i in range(100):
        tuples = frozenset(
            (rng.randrange(2), rng.randrange(2)) for _ in range(rng.randint(0, 3))
        )
        d = RelStructure("D", 2, {"r": (2, tuples)})
        atoms = tuple(
            ("r", (f"v{rng.randrange(3)}", f"v{rng.randrange(3)}"))
            for _ in range(rng.randint(1, 4))
        )
        csp = CspInstance(d, atoms)
        alg, inst = csp_to_csat(d, csp)
        assert (solve_bruteforce(alg, inst).answer == "sat") == csp.satisfiable(), i
        back, diag = csat_to_csp(d, alg, inst)
        assert diag is None and back.atoms == atoms

    z2xz2 = get("Z2xZ2")
    d_term = find_malcev_term(z2xz2).value
    rng = random.Random(302)
    for i in range(100):
        system = random_system(z2xz2, rng, max_eq=3, max_vars=3)
        mcsat = scsat_to_mcsat(z2xz2, system, d_term, rng.randrange(4))
        assert (
            solve_bruteforce(z2xz2, system).answer
            == solve_bruteforce(z2xz2, mcsat).answer
        ), i
    _report(11, "3-SAT, CSP, and system-to-MCSAT reductions preserve satisfiability",
            t0, 180)


def test_criterion_12_ramsey_parameters():
    t0 = time.time()
    from mvcirc.algebra import FiniteAlgebra, op_from_fn
    from mvcirc.solvers import plan_for

    for k in range(1, 6):
        for n in range(1, 7):
            assert ramsey_support_bound(k, n) >= min(math.factorial(k - 1) * n, RAMSEY_CEILING)
    # monotone in both arguments
    for k in range(1, 6):
        for n in range(1, 6):
            assert ramsey_support_bound(k, n) <= ramsey_support_bound(k, n + 1)
            assert ramsey_support_bound(k, n) <= ramsey_support_bound(k + 1, n)
    # the sweep's bound for C_n takes the nilpotency class, 1, as degree
    for n in range(1, 7):
        c_n = FiniteAlgebra(
            f"C{n}", n,
            (op_from_fn("mul", 2, n, lambda x, y, n=n: (x + y) % n),
             op_from_fn("inv", 1, n, lambda x, n=n: (-x) % n)),
        )
        assert plan_for(c_n).support_bound == ramsey_support_bound(1, n) == n
    _report(12, "support-bound parameters match their formulas and are monotone",
            t0, 1)
