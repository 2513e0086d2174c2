import itertools
import math
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mvcirc import algebra, commutator, solvers
from mvcirc.algebra import BLOCK, FactStore, FiniteAlgebra, Operation, direct_product, op_from_fn
from mvcirc.circuit import (
    CeqvInstance,
    Circuit,
    CircuitBuilder,
    CsatInstance,
    McsatInstance,
    ScsatInstance,
    const_gate,
    eval_circuit,
    gate_values,
    op_gate,
    random_circuit,
)
from mvcirc.errors import BudgetExceeded, ElementOutOfRange, NotDlLike, Tri, UnknownOp
from mvcirc.solvers import (
    RAMSEY_CEILING,
    dispatch,
    minimal_support_profile,
    plan_for,
    ramsey_support_bound,
    solve_affine,
    solve_bruteforce,
    solve_supernilpotent,
    solve_usp,
)
from mvcirc.structure import classify
from mvcirc.zoo import get, zoo

from conftest import (
    EDGE_ALGEBRAS, clone_cap, random_edge_circuit, random_system, run_optimised,
)


def _meet_eq_one(lat2):
    b = CircuitBuilder(lat2.name)
    g = b.op("meet", b.input("x"), b.input("y"))
    one = b.const(1)
    return CsatInstance(b.build([g, one]))


# ---------------------------------------------------------------------------
# Brute force


def test_brute_lattice_sat(lat2):
    res = solve_bruteforce(lat2, _meet_eq_one(lat2))
    assert res.answer == "sat"
    assert res.witness == {"x": 1, "y": 1}


def test_brute_ceqv_commutativity(lat2):
    b = CircuitBuilder(lat2.name)
    x, y = b.input("x"), b.input("y")
    inst = CeqvInstance(b.build([b.op("meet", x, y), b.op("meet", y, x)]))
    assert solve_bruteforce(lat2, inst).answer == "equiv"


def test_brute_z2_double_unsat(z2):
    b = CircuitBuilder(z2.name)
    x = b.input("x")
    inst = CsatInstance(b.build([b.op("mul", x, x), b.const(1)]))
    assert solve_bruteforce(z2, inst).answer == "unsat"


def test_brute_budget(z6):
    b = CircuitBuilder(z6.name)
    gates = [b.input(f"x{i}") for i in range(8)]
    inst = CsatInstance(b.build([gates[0], gates[1]]))
    with pytest.raises(BudgetExceeded):
        solve_bruteforce(z6, inst, budget=1000)


def test_brute_reports_lex_least_witness(z4):
    b = CircuitBuilder(z4.name)
    x, y = b.input("x"), b.input("y")
    inst = CsatInstance(b.build([b.op("mul", x, y), b.const(2)]))
    res = solve_bruteforce(z4, inst)
    assert res.witness == {"x": 0, "y": 2}  # first in lexicographic order


# ---------------------------------------------------------------------------
# Enumeration order: every route that enumerates against a reference that
# walks the documented order one assignment at a time with gate_values.
# Block sizes below BLOCK put block boundaries inside small instances.

KINDS = ("CSAT", "MCSAT", "SCSAT", "CEQV")


def _edge_instance(alg, rng, kind, max_assignments=600):
    m = 0
    while m < 6 and alg.size ** (m + 1) <= max_assignments:
        m += 1
    c = random_edge_circuit(alg, rng, rng.randrange(m + 1), rng.randrange(1, 12),
                            3 if kind == "MCSAT" else 2)
    if kind == "CSAT":
        return CsatInstance(c)
    if kind == "MCSAT":
        return McsatInstance(c)
    if kind == "CEQV":
        return CeqvInstance(c)
    equations = tuple((rng.randrange(len(c.gates)), rng.randrange(len(c.gates)))
                      for _ in range(rng.randrange(4)))
    return ScsatInstance(c, equations)


def _holds(alg, inst, asg):
    """Agreement for CSAT/MCSAT/SCSAT, disagreement for CEQV."""
    vals = gate_values(alg, inst.circuit, asg)
    if isinstance(inst, ScsatInstance):
        return all(vals[g] == vals[h] for g, h in inst.equations)
    outs = [vals[o] for o in inst.circuit.outputs]
    if isinstance(inst, CeqvInstance):
        return outs[0] != outs[1]
    return all(o == outs[0] for o in outs)


def _reference(names, order, hit):
    """(first assignment in order satisfying hit or None, number tried)."""
    tried = 0
    for values in order:
        tried += 1
        asg = dict(zip(names, values))
        if hit(asg):
            return asg, tried
    return None, tried


def _old_sweep_order(n, m, max_support):
    """Support size, then positions in combinations order, then values in
    product order over the nonzero elements."""
    yield (0,) * m
    for s in range(1, max_support + 1):
        for positions in itertools.combinations(range(m), s):
            for values in itertools.product(range(1, n), repeat=s):
                out = [0] * m
                for p, v in zip(positions, values):
                    out[p] = v
                yield tuple(out)


def _outcome(res):
    return res.answer, res.witness, res.assignments_tried


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EDGE_ALGEBRAS), st.integers(0, 2 ** 32), st.sampled_from(KINDS),
       st.sampled_from([1, 2, 5, 7, BLOCK]))
def test_enumerations_follow_lexicographic_reference(alg, seed, kind, block):
    rng = random.Random(seed)
    inst = _edge_instance(alg, rng, kind)
    names = sorted(inst.circuit.input_names)
    lex = list(itertools.product(range(alg.size), repeat=len(names)))
    asg, tried = _reference(names, lex, lambda a: _holds(alg, inst, a))
    hit, miss = ("nequiv", "equiv") if kind == "CEQV" else ("sat", "unsat")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "BLOCK", block)
        assert _outcome(solve_bruteforce(alg, inst)) == (hit if asg is not None else miss, asg, tried)
        if kind in ("CSAT", "MCSAT"):
            diagonal = [(a,) * len(names) for a in range(alg.size)]
            asg, tried = _reference(names, diagonal, lambda a: _holds(alg, inst, a))
            res = solvers._diagonal(alg, inst)
            assert _outcome(res) == ("sat" if asg is not None else "unsat", asg, tried)
        if kind == "CSAT":
            hist = {}
            for values in lex:
                if _holds(alg, inst, dict(zip(names, values))):
                    s = sum(1 for v in values if v != 0)
                    hist[s] = hist.get(s, 0) + 1
            assert minimal_support_profile(alg, inst) == (hist or None)


SWEEP_ALGEBRAS = ("trivial", "Z2", "Z3", "Z4", "Z6", "Z2xZ2", "Z4ring", "S3")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SWEEP_ALGEBRAS), st.integers(0, 2 ** 32), st.booleans(),
       st.integers(1, 3), st.sampled_from([1, 2, 5, 7, BLOCK]))
def test_support_sweeps_follow_reference_order(name, seed, ceqv, k, block):
    alg = get(name)
    rng = random.Random(seed)
    inst = _edge_instance(alg, rng, "CEQV" if ceqv else "CSAT", max_assignments=1300)
    bound = ramsey_support_bound(k, alg.size)
    names = sorted(inst.circuit.input_names)
    order = _old_sweep_order(alg.size, len(names), min(bound, len(names)))
    asg, tried = _reference(names, order, lambda a: _holds(alg, inst, a))
    hit, miss = ("nequiv", "equiv") if ceqv else ("sat", "unsat")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "BLOCK", block)
        res = solvers._sweep(alg, inst, bound)
    assert _outcome(res) == (hit if asg is not None else miss, asg, tried)


def test_enumerations_cross_full_blocks(bool2, z4ring):
    # 2^13 assignments: the geometric blocks, then two full aligned blocks;
    # the only model of x0 & ... & x12 = 1 is the last assignment
    b = CircuitBuilder(bool2.name)
    xs = [b.input(f"x{i:02}") for i in range(13)]
    conj = xs[0]
    for x in xs[1:]:
        conj = b.op("meet", conj, x)
    sat = CsatInstance(b.build([conj, b.const(1)]))
    assert _outcome(solve_bruteforce(bool2, sat)) == (
        "sat", {f"x{i:02}": 1 for i in range(13)}, 2 ** 13)
    equiv = CeqvInstance(b.build([conj, b.op("meet", conj, conj)]))
    assert _outcome(solve_bruteforce(bool2, equiv)) == ("equiv", None, 2 ** 13)
    # a support sweep up to support 4 over 10 inputs (1 + 30 + 405 + 3240 +
    # 17010 assignments) of g = g + 1, which has no solution
    b = CircuitBuilder(z4ring.name)
    xs = [b.input(f"x{i}") for i in range(10)]
    acc = xs[0]
    for x, y in zip(xs[1:], xs[:-1]):
        acc = b.op("add", acc, b.op("mul", x, y))
    inst = CsatInstance(b.build([acc, b.op("add", acc, b.const(1))]))
    bound = ramsey_support_bound(1, z4ring.size)
    assert bound == 4
    res = solvers._sweep(z4ring, inst, bound)
    assert _outcome(res) == ("unsat", None, sum(math.comb(10, s) * 3 ** s for s in range(5)))
    names = sorted(inst.circuit.input_names)
    assert not any(_holds(z4ring, inst, dict(zip(names, a))) for a in _old_sweep_order(4, 10, 4))


# The enumeration columns are per-algebra facts: the store keeps the low
# digits' span columns and the lexicographic first block per (values, k,
# BLOCK), and the support sweep's first block per (m, BLOCK).


def _blocks_in_order(alg, blocks):
    """The assignments of blocks, in order, checking that none holds more
    than BLOCK of them."""
    width = algebra._op_tables(alg).width
    out = []
    for columns, count in blocks:
        assert count <= solvers.BLOCK
        digits = [algebra.column_digits(width, col) for col in columns]
        out += [tuple(d[p] for d in digits) for p in range(count)]
    return out


def test_enumeration_columns_are_kept_per_block_size(monkeypatch):
    # one store, the same (algebra, input count) under several block sizes:
    # a cache that ignored BLOCK would hand a smaller BLOCK the spans of a
    # larger one
    monkeypatch.setattr(algebra, "STORE", FactStore())
    rng = random.Random(21)
    for name, m in (("Z4", 4), ("Z6", 3), ("Z2xZ2", 5)):
        alg = get(name)
        lex = list(itertools.product(range(alg.size), repeat=m))
        sweep = list(_old_sweep_order(alg.size, m, m))
        insts = [CsatInstance(random_circuit(alg, rng, m, 12, 2)) for _ in range(3)]
        insts += [CeqvInstance(random_circuit(alg, rng, m, 12, 2)) for _ in range(3)]
        for block in (BLOCK, 2, 7, BLOCK, 5):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solvers, "BLOCK", block)
                assert _blocks_in_order(alg, solvers._lex_blocks(alg, m)) == lex[1:]
                assert _blocks_in_order(alg, solvers._support_sweep(alg, m, m)) == sweep[1:]
                for inst in insts:
                    ceqv = isinstance(inst, CeqvInstance)
                    hit, miss = ("nequiv", "equiv") if ceqv else ("sat", "unsat")
                    holds = lambda a, inst=inst: _holds(alg, inst, a)
                    names = sorted(inst.circuit.input_names)
                    asg, tried = _reference(names, lex, holds)
                    assert _outcome(solve_bruteforce(alg, inst)) == (
                        hit if asg is not None else miss, asg, tried)
                    asg, tried = _reference(names, sweep, holds)
                    assert _outcome(solvers._sweep(alg, inst, m)) == (
                        hit if asg is not None else miss, asg, tried)


def test_cached_enumeration_columns_are_bytes(monkeypatch):
    monkeypatch.setattr(algebra, "STORE", FactStore())
    alg = get("Z6")
    assert len(list(solvers._lex_blocks(alg, 4))) > 1
    assert len(list(solvers._support_sweep(alg, 4, 2))) > 1
    facts = algebra.STORE.facts(alg)
    (sweep_first, _), fill = facts[("sweep", 4, BLOCK)]
    lex_first, _ = facts[("digits", range(6), 4, BLOCK)].first
    spans = [c for key, d in facts.items() if key[0] == "digits" for c in d.low]
    columns = [fill, *sweep_first, *lex_first, *spans]
    assert len(spans) > 2 and all(type(c) is bytes for c in columns)


def test_a_second_solve_builds_no_digits(monkeypatch):
    monkeypatch.setattr(algebra, "STORE", FactStore())
    built = []
    digits = solvers._Digits

    def counted(*args):
        built.append(args)
        return digits(*args)

    monkeypatch.setattr(solvers, "_Digits", counted)
    rng = random.Random(5)
    for alg, m in ((get("S3"), 4), (get("Z4ring"), 5)):
        # g = g + 1, with + the group operation and 1 not its identity, has
        # no solution, so every solve walks every block
        b = CircuitBuilder(alg.name)
        xs = [b.input(f"x{i}") for i in range(m)]
        acc = xs[0]
        for x in xs[1:]:
            acc = b.op("mul", acc, b.op("mul", x, xs[rng.randrange(m)]))
        plus = "add" if alg.name == "Z4ring" else "mul"
        inst = CsatInstance(b.build([acc, b.op(plus, acc, b.const(1))]))
        first = dispatch(alg, inst)
        assert first.answer == "unsat" and first.assignments_tried > 16
        assert built
        built.clear()
        assert _outcome(dispatch(alg, inst)) == _outcome(first)
        assert built == []


def test_a_second_affine_csat_solve_computes_no_composition_length(monkeypatch):
    # the affine CSAT sweep's bound is a per-algebra fact kept on the plan
    monkeypatch.setattr(algebra, "STORE", FactStore())
    calls = []
    factor = commutator.prime_factors

    def counted(n):
        calls.append(n)
        return factor(n)

    # solvers imports the name, so the wrapper goes under both
    monkeypatch.setattr(commutator, "prime_factors", counted)
    monkeypatch.setattr(solvers, "prime_factors", counted)
    z6 = get("Z6")
    b = CircuitBuilder(z6.name)
    x, y = b.input("x"), b.input("y")
    inst = CsatInstance(b.build([b.op("mul", x, b.op("mul", y, y)), b.const(3)]))
    first = dispatch(z6, inst)
    assert first.solver_used == "supernilpotent" and 6 in calls
    calls.clear()
    assert _outcome(dispatch(z6, inst)) == _outcome(first)
    assert calls == []


# ---------------------------------------------------------------------------
# Diagonal solver


@pytest.mark.parametrize("name", ["2lattice", "majority"])
def test_diagonal_follows_its_reference(name):
    # (answer, witness, assignments_tried) of the diagonal against the first
    # hit among the constant diagonals 0, 1, ..., |A| - 1, for CSAT and
    # MCSAT: a hit at diagonal 0, at the last diagonal, and none
    alg = get(name)
    top = alg.size - 1
    op = alg.ops[0]
    b = CircuitBuilder(alg.name)
    xy = (b.input("x"), b.input("y"))
    g = b.op(op.name, *(xy[i % 2] for i in range(op.arity)))    # a on diagonal a
    zero, last = b.const(0), b.const(top)
    circ = b.build([g])
    names = sorted(circ.input_names)
    diagonals = [(a,) * len(names) for a in range(alg.size)]
    cases = ((CsatInstance, (g, xy[0]), 1), (CsatInstance, (g, last), alg.size),
             (CsatInstance, (zero, last), None),
             (McsatInstance, (xy[1], g, xy[0]), 1), (McsatInstance, (xy[0], g, last), alg.size),
             (McsatInstance, (g, zero, last), None))
    for kind, outputs, hit_at in cases:
        inst = kind(circ.with_outputs(outputs))
        asg, tried = _reference(names, diagonals, lambda a: _holds(alg, inst, a))
        assert (asg is None, tried) == (hit_at is None, hit_at or alg.size)
        res = solve_usp(plan_for(alg), inst)
        assert res.solver_used == "usp"
        assert _outcome(res) == ("sat" if asg is not None else "unsat", asg, tried)



def test_usp_distributivity_instance(lat2):
    b = CircuitBuilder(lat2.name)
    x, y, z = b.input("x"), b.input("y"), b.input("z")
    lhs = b.op("join", b.op("meet", x, y), z)
    rhs = b.op("join", x, b.op("meet", y, z))
    res = solve_usp(plan_for(lat2), CsatInstance(b.build([lhs, rhs])))
    assert res.answer == "sat"
    assert res.witness == {"x": 0, "y": 0, "z": 0}  # diagonal a = 0


def test_usp_majority_constant_instance(majority):
    b = CircuitBuilder(majority.name)
    g = b.op("m", b.input("x"), b.input("y"), b.input("z"))
    res = solve_usp(plan_for(majority), CsatInstance(b.build([g, b.const(1)])))
    assert res.answer == "sat"
    w = res.witness
    assert w["x"] == w["y"] == w["z"]


def test_usp_rejects_non_dl_like(z2):
    b = CircuitBuilder(z2.name)
    x = b.input("x")
    inst = CsatInstance(b.build([x, x]))
    with pytest.raises(NotDlLike):
        solve_usp(plan_for(z2), inst)


def test_a_renamed_twin_is_named_in_route_errors(z6):
    """A plan is kept per algebra name, so the errors of a twin with the
    same content and another name name the twin."""
    b = CircuitBuilder(z6.name)
    x = b.input("x")
    inst = CsatInstance(b.build([x, x]))
    dispatch(z6, inst)
    twin = z6.rename("Z6 again")
    with pytest.raises(NotDlLike, match="^Z6 again is not"):
        dispatch(twin, inst, solver="usp")
    b = CircuitBuilder(z6.name)
    x = b.input("x")
    with pytest.raises(UnknownOp, match="algebra Z6 again has no operation"):
        dispatch(twin, CsatInstance(b.build([b.op("nope", x), x])), solver="brute")


def test_usp_agreement_small_batch(lat2, majority):
    rng = random.Random(2024)
    for alg in (lat2, majority):
        for _ in range(150):
            inst = CsatInstance(random_circuit(alg, rng, 3, 10, 2))
            assert solve_usp(plan_for(alg), inst).answer == solve_bruteforce(alg, inst).answer


def test_usp_property_exhaustive_small(majority, lat2):
    # value attained somewhere implies attained on the constant diagonal
    from conftest import maj_table_eval, majority_small_circuit_tables

    # majority fixture: every function of a <= 6-gate, <= 3-input circuit
    for tab in majority_small_circuit_tables(6):
        attained = {maj_table_eval(tab, x, y, z)
                    for x in range(4) for y in range(4) for z in range(4)}
        for v in attained:
            assert maj_table_eval(tab, v, v, v) == v
    # 2-element lattice: the full ternary polynomial clone (a superset of
    # every 3-input circuit output, whatever the gate count)
    from mvcirc.algebra import kary_poly_clone

    clone = kary_poly_clone(lat2, 3)
    n = lat2.size
    for tab in clone.tables:
        for v in set(tab):
            assert tab[(v * n + v) * n + v] == v


# ---------------------------------------------------------------------------
# Ramsey parameters


def test_ramsey_k1_collapses_to_m():
    for n in range(1, 7):
        assert ramsey_support_bound(1, n) == n


def test_ramsey_k2_pigeonhole():
    # C-coloring of singletons: C*(m-1)+1 forces m of one color
    assert ramsey_support_bound(2, 2) == 17  # C = 16, m = 2
    for n in range(1, 7):
        c = n ** (2 * n)
        m = n
        assert ramsey_support_bound(2, n) == min(c * (m - 1) + 1, RAMSEY_CEILING)


def test_ramsey_monotone():
    prev_by_n = {}
    for k in range(1, 6):
        prev = 0
        for n in range(1, 7):
            d = ramsey_support_bound(k, n)
            assert d >= prev
            prev = d
            assert d >= prev_by_n.get(n, 0)
            prev_by_n[n] = d


# ---------------------------------------------------------------------------
# Supernilpotent solver


def test_supernil_z2_support_one(z2):
    b = CircuitBuilder(z2.name)
    s = b.op("mul", b.op("mul", b.input("x1"), b.input("x2")), b.input("x3"))
    inst = CsatInstance(b.build([s, b.const(1)]))
    res = solve_supernilpotent(plan_for(z2), inst)
    assert res.answer == "sat"
    assert sum(1 for v in res.witness.values() if v != 0) == 1


def test_supernil_z4_2x_unsat(z4):
    b = CircuitBuilder(z4.name)
    x = b.input("x")
    inst = CsatInstance(b.build([b.op("mul", x, x), b.const(1)]))
    assert solve_supernilpotent(plan_for(z4), inst).answer == "unsat"


def test_supernil_agreement_batch():
    rng = random.Random(99)
    for name in ("Z4", "Z2xZ2"):
        alg = get(name)
        for _ in range(100):
            inst = CsatInstance(random_circuit(alg, rng, 4, 9, 2))
            assert (
                solve_supernilpotent(plan_for(alg), inst).answer
                == solve_bruteforce(alg, inst).answer
            )


def test_minimal_support_profile(z2, z4):
    b = CircuitBuilder(z2.name)
    s = b.op("mul", b.op("mul", b.input("x1"), b.input("x2")), b.input("x3"))
    inst = CsatInstance(b.build([s, b.const(1)]))
    hist = minimal_support_profile(z2, inst)
    assert min(hist) == 1
    # w = 0 everywhere: all-zero solves with support 0
    b = CircuitBuilder(z4.name)
    t = b.op("mul", b.input("x"), b.input("y"))
    inst0 = CsatInstance(b.build([t, t]))
    assert min(minimal_support_profile(z4, inst0)) == 0
    # unsat instance gives None
    b = CircuitBuilder(z4.name)
    x = b.input("x")
    insat = CsatInstance(b.build([b.op("mul", x, x), b.const(1)]))
    assert minimal_support_profile(z4, insat) is None


# ---------------------------------------------------------------------------
# Affine solver


def test_affine_z4_system(z4):
    b = CircuitBuilder(z4.name)
    x, y = b.input("x"), b.input("y")
    plus = b.op("mul", x, y)
    minus = b.op("mul", x, b.op("inv", y))
    one = b.const(1)
    inst = ScsatInstance(b.build([plus, minus]), ((plus, one), (minus, one)))
    res = solve_affine(plan_for(z4), inst)
    assert res.answer == "sat"
    w = res.witness
    assert (w["x"] + w["y"]) % 4 == 1 and (w["x"] - w["y"]) % 4 == 1


def test_affine_z2xz2_double_always_zero(z2xz2):
    b = CircuitBuilder(z2xz2.name)
    x = b.input("x")
    dbl = b.op("mul", x, x)
    zero = b.const(0)
    inst = ScsatInstance(b.build([dbl, zero]), ((dbl, zero),))
    res = solve_affine(plan_for(z2xz2), inst)
    assert res.answer == "sat"


def test_affine_z6_triple(z6):
    b = CircuitBuilder(z6.name)
    x = b.input("x")
    t = b.op("mul", b.op("mul", x, x), x)
    c3 = b.const(3)
    inst = ScsatInstance(b.build([t, c3]), ((t, c3),))
    res = solve_affine(plan_for(z6), inst)
    bres = solve_bruteforce(z6, inst)
    assert res.answer == bres.answer == "sat"
    assert (3 * res.witness["x"]) % 6 == 3


def test_affine_unsat(z4):
    b = CircuitBuilder(z4.name)
    x = b.input("x")
    dbl = b.op("mul", x, x)
    one = b.const(1)
    inst = ScsatInstance(b.build([dbl, one]), ((dbl, one),))
    assert solve_affine(plan_for(z4), inst).answer == "unsat"
    assert solve_bruteforce(z4, inst).answer == "unsat"


def test_affine_budget_is_raised_by_the_linearity_check(z6, monkeypatch):
    # checking a sum of 8 inputs over Z6 reads 6^8 points; the affine route
    # raises BudgetExceeded itself, with no brute-force fallback
    b = CircuitBuilder(z6.name)
    xs = [b.input(f"x{i}") for i in range(8)]
    total = xs[0]
    for x in xs[1:]:
        total = b.op("mul", total, x)
    one = b.const(1)
    inst = ScsatInstance(b.build([total]), ((total, one),))
    monkeypatch.setattr(solvers, "solve_bruteforce", None)
    with pytest.raises(BudgetExceeded) as exc:
        solve_affine(plan_for(z6), inst, budget=1000)
    assert (exc.value.needed, exc.value.budget) == (6 ** 8, 1000)


def test_affine_form_check_fails_loudly_under_a_wrong_group(z6, monkeypatch):
    # give a fresh Z6 plan the (A, +) of Z6 relabelled by the swap of 1 and
    # 2, which fixes 0 and is no automorphism: x + y then reads 1 + 1 = 4,
    # so the form check fails at x = y = 1, and the route, which has no
    # fallback, raises
    swap = (0, 2, 1, 3, 4, 5)

    def relabel(op):
        points = list(itertools.product(range(6), repeat=op.arity))
        index = {p: i for i, p in enumerate(points)}
        return Operation(op.name, op.arity, tuple(
            swap[op.table[index[tuple(swap[x] for x in p)]]] for p in points))

    relabelled = FiniteAlgebra("Z6swap", 6, tuple(relabel(op) for op in z6.ops))
    monkeypatch.setattr(algebra, "STORE", FactStore())
    plan = plan_for(z6)
    plan.group = commutator.AbelianGroup(relabelled, algebra.find_malcev_term(z6).value)
    b = CircuitBuilder(z6.name)
    total = b.op("mul", b.input("x"), b.input("y"))
    three = b.const(3)
    inst = ScsatInstance(b.build([total]), ((total, three),))
    message = f"output g{total} is not affine at {{'x': 1, 'y': 1}}"
    with pytest.raises(AssertionError, match=re.escape(message)):
        solve_affine(plan, inst)


def test_affine_agreement_batch(monkeypatch):
    # every unsat answer carries a refutation, checked as the solve builds
    # its system
    checked = []
    check = solvers._check_refutation
    monkeypatch.setattr(solvers, "_check_refutation",
                        lambda *args: checked.append(check(*args)))
    rng = random.Random(4242)
    unsat = 0
    for name in ("Z4", "Z6", "Z2xZ2"):
        alg = get(name)
        for _ in range(60):
            inst = random_system(alg, rng, max_eq=3, max_vars=3)
            a = solve_affine(plan_for(alg), inst)
            b = solve_bruteforce(alg, inst)
            assert a.answer == b.answer, f"{name}: {a.answer} vs {b.answer}"
            unsat += a.answer == "unsat"
    assert unsat > 0 and len(checked) == unsat


def test_affine_unsat_refutations_are_checked_under_optimisation():
    proc = run_optimised(
        "from mvcirc import solvers\n"
        "from mvcirc.circuit import CircuitBuilder, ScsatInstance\n"
        "from mvcirc.zoo import get\n"
        "solvers._solve_integer = lambda rows, rhs, moduli: (None, ([1] * len(rows), 7))\n"
        "b = CircuitBuilder('Z6')\n"
        "x, one = b.input('x'), b.const(1)\n"
        "print(solvers.dispatch(get('Z6'), ScsatInstance(b.build([x]), ((x, one),))))\n")
    assert proc.returncode != 0 and "does not check" in proc.stderr, proc.stdout


def _pointwise_form(alg, group, circ, out, names):
    """The form of gate out read and checked at every point, as the affine
    route reads a side that is not a constant: the reference for the form
    it gives a constant side without evaluating anything."""
    def value(values):
        return gate_values(alg, circ, dict(zip(names, values)))[out]

    zero = [group.zero] * len(names)
    c = value(zero)
    tables = [[group.sub(value(zero[:i] + [a] + zero[i + 1:]), c) for a in range(alg.size)]
              for i in range(len(names))]
    for values in itertools.product(range(alg.size), repeat=len(names)):
        acc = c
        for tab, v in zip(tables, values):
            acc = group.add(acc, tab[v])
        assert acc == value(values)
    return c, tables


def _with_constant_sides(alg, rng):
    """A random system, with one more equation that has a constant side,
    and an MCSAT instance on its circuit with a constant output."""
    system = random_system(alg, rng, max_eq=2, max_vars=3)
    circ = system.circuit
    constants = [i for i, g in enumerate(circ.gates) if g.kind == "const"]
    gate = rng.randrange(len(circ.gates))
    equations = system.equations + ((gate, rng.choice(constants)),)
    outputs = [rng.randrange(len(circ.gates)) for _ in range(rng.randint(1, 2))]
    outputs.insert(rng.randrange(len(outputs) + 1), rng.choice(constants))
    return ScsatInstance(circ, equations), McsatInstance(circ.with_outputs(outputs))


def test_affine_constant_sides_agree_with_brute_force_and_the_pointwise_read():
    rng = random.Random(3535)
    for name in ("Z4", "Z6", "Z2xZ2"):
        alg = get(name)
        group = plan_for(alg).group
        answers = Counter()
        for _ in range(40):
            for inst in _with_constant_sides(alg, rng):
                res = dispatch(alg, inst)
                assert res.solver_used == "affine"
                assert res.answer == solve_bruteforce(alg, inst).answer, (name, inst)
                answers[res.answer] += 1
                circ, names = inst.circuit, sorted(inst.circuit.input_names)
                sides = circ.with_outputs(tuple(dict.fromkeys(
                    out for pair in solvers._pairs(inst) for out in pair)))
                run = solvers.compile_circuit(alg, sides)
                for k, out in enumerate(sides.outputs):
                    if circ.gates[out].kind == "const":
                        form = solvers._affine_form(alg, group, sides, k, run, names, 0)
                        assert form == _pointwise_form(alg, group, circ, out, names)
        assert answers["sat"] and answers["unsat"], (name, answers)


def test_affine_reads_no_point_for_a_constant_side(monkeypatch):
    # a planted system g1 = c1, g2 = c2 over Z6 with 3 inputs: the compiled
    # circuit runs at 1 + 3 * 5 + 6^3 points for each of g1 and g2 alone,
    # and the budget is charged for those two sides only
    z6 = get("Z6")
    rng = random.Random(35)
    circ = random_circuit(z6, rng, 3, 12, 1)
    planted = {nm: rng.randrange(6) for nm in circ.input_names}
    values = gate_values(z6, circ, planted)
    g1, g2 = len(circ.gates) - 1, len(circ.gates) - 2
    assert circ.gates[g1].kind == circ.gates[g2].kind == "op"
    b = CircuitBuilder(z6.name)
    b.gates = list(circ.gates)
    equations = tuple((g, b.const(values[g])) for g in (g1, g2))
    inst = ScsatInstance(b.build([g1]), equations)
    runs, charged = [], []
    compile_circuit, within = solvers.compile_circuit, solvers._within

    def counted(alg, c):
        run = compile_circuit(alg, c)
        return lambda values: runs.append(1) or run(values)

    monkeypatch.setattr(solvers, "compile_circuit", counted)
    monkeypatch.setattr(solvers, "_within",
                        lambda total, budget: charged.append(total) or within(total, budget))
    assert solve_affine(plan_for(z6), inst).answer == "sat"
    assert len(runs) == 2 * (1 + 3 * 5 + 6 ** 3)
    assert charged == [6 ** 3, 6 ** 3]


def test_all_constant_sides_still_check_every_gate(z6):
    # every side is a constant, so no form is read pointwise, yet the
    # circuit's other gates are checked against the algebra as before, also
    # when the answer is unsat and no witness is evaluated
    for (bad, error), value in itertools.product(
            (("op", UnknownOp), ("const", ElementOutOfRange)), (1, 2)):
        b = CircuitBuilder(z6.name)
        x = b.input("x")
        if bad == "op":
            b.op("nope", x)
        else:
            b.const(7)
        one, other = b.const(1), b.const(value)
        inst = ScsatInstance(b.build([x]), ((one, other),))
        with pytest.raises(error):
            solve_affine(plan_for(z6), inst)
        with pytest.raises(error):
            dispatch(z6, inst)


def test_an_all_constant_system_is_decided_at_40_inputs(z6):
    # no side is read pointwise, so 6^40 points are never charged
    b = CircuitBuilder(z6.name)
    total = b.input("x0")
    for i in range(1, 40):
        total = b.op("mul", total, b.input(f"x{i}"))
    c1, c2, c3 = b.const(1), b.const(1), b.const(4)
    circ = b.build([total])
    sat = solve_affine(plan_for(z6), ScsatInstance(circ, ((c1, c2),)), budget=1000)
    assert sat.answer == "sat" and set(sat.witness.values()) == {0}
    unsat = solve_affine(plan_for(z6), ScsatInstance(circ, ((c1, c2), (c2, c3))), budget=1000)
    assert unsat.answer == "unsat"


def test_affine_mcsat(z4):
    b = CircuitBuilder(z4.name)
    x, y = b.input("x"), b.input("y")
    g1 = b.op("mul", x, y)
    g2 = b.op("mul", x, b.op("inv", y))
    g3 = b.const(2)
    inst = McsatInstance(b.build([g1, g2, g3]))
    res = solve_affine(plan_for(z4), inst)
    bres = solve_bruteforce(z4, inst)
    assert res.answer == bres.answer


# ---------------------------------------------------------------------------
# Experimental CEQV


def test_ceqv_commutativity(z4, z4ring):
    # Z4 is affine, so its support-1 sweep is proven; the nilpotent ring
    # Z4ring is not abelian and keeps the experimental sweep
    for alg, solver, experimental in ((z4, "ceqv-affine", False),
                                      (z4ring, "ceqv-supernilpotent-experimental", True)):
        b = CircuitBuilder(alg.name)
        x, y = b.input("x"), b.input("y")
        inst = CeqvInstance(b.build([b.op("mul", x, y), b.op("mul", y, x)]))
        res = solve_supernilpotent(plan_for(alg), inst)
        assert res.answer == "equiv"
        assert (res.solver_used, res.experimental) == (solver, experimental)


def test_ceqv_2x_vs_zero(z4):
    b = CircuitBuilder(z4.name)
    x = b.input("x")
    inst = CeqvInstance(b.build([b.op("mul", x, x), b.const(0)]))
    res = solve_supernilpotent(plan_for(z4), inst)
    assert res.answer == "nequiv"
    assert res.witness == {"x": 1}


def test_ceqv_agreement_batch(z4):
    rng = random.Random(7)
    for _ in range(150):
        inst = CeqvInstance(random_circuit(z4, rng, 3, 9, 2))
        assert (
            solve_supernilpotent(plan_for(z4), inst).answer
            == solve_bruteforce(z4, inst).answer
        )


# ---------------------------------------------------------------------------
# Dispatcher


def test_dispatch_routes_z6_to_supernilpotent(z6):
    b = CircuitBuilder(z6.name)
    x, y = b.input("x"), b.input("y")
    inst = CsatInstance(b.build([b.op("mul", x, y), b.const(3)]))
    res = dispatch(z6, inst)
    assert res.solver_used == "supernilpotent"
    assert res.answer == "sat"


def test_sweep_routes_build_no_circuit(z6, monkeypatch):
    # the plan's Malcev term is compiled once per zero and appended to each
    # instance's block program, with no normalized Circuit in between
    rng = random.Random(3)
    insts = []
    for _ in range(10):
        c = random_circuit(z6, rng, 4, 12, 2)
        insts += [CsatInstance(c), CeqvInstance(c)]
    want = [solve_bruteforce(z6, inst).answer for inst in insts]
    built = []
    post_init = Circuit.__post_init__
    monkeypatch.setattr(Circuit, "__post_init__", lambda c: built.append(c) or post_init(c))
    results = [dispatch(z6, inst) for inst in insts]
    assert built == []
    assert {r.solver_used for r in results} == {"supernilpotent", "ceqv-affine"}
    assert [r.answer for r in results] == want


def test_dispatch_routes_majority_to_usp(majority):
    b = CircuitBuilder(majority.name)
    g = b.op("m", b.input("x"), b.input("y"), b.input("z"))
    inst = CsatInstance(b.build([g, b.const(0)]))
    res = dispatch(majority, inst)
    assert res.solver_used == "usp"


def test_dispatch_routes_s3_to_brute(s3):
    b = CircuitBuilder(s3.name)
    x, y = b.input("x"), b.input("y")
    inst = CsatInstance(b.build([b.op("mul", x, y), b.const(0)]))
    res = dispatch(s3, inst)
    assert res.solver_used == "brute"


def test_dispatch_scsat_affine(z6):
    b = CircuitBuilder(z6.name)
    x = b.input("x")
    t = b.op("mul", x, x)
    c = b.const(4)
    inst = ScsatInstance(b.build([t, c]), ((t, c),))
    res = dispatch(z6, inst)
    assert res.solver_used == "affine"
    assert res.answer == "sat"


def _small_instances(alg, seed):
    c = random_circuit(alg, random.Random(seed), 3, 8, 3)
    pair = c.with_outputs(c.outputs[:2])
    return [CsatInstance(pair), McsatInstance(c), CeqvInstance(pair),
            ScsatInstance(c, (c.outputs[:2], c.outputs[1:]))]


@pytest.mark.parametrize("name", [e.name for e in zoo()])
def test_forced_routes_follow_the_hypothesis_table(name):
    """The plan's flags are the classification's.  Naming the plan's own
    route gives the auto result; naming a fast route raises TypeError for a
    kind it does not decide and its precondition error when its flag is not
    YES, and otherwise agrees with brute force."""
    alg = get(name)
    plan = plan_for(alg)
    rep = classify(alg)
    assert plan.flags == {"usp": rep.dl_like, "supernilpotent": rep.supernilpotent,
                          "affine": rep.affine}
    for inst in _small_instances(alg, 1) + _small_instances(alg, 2):
        own = plan.routes[type(inst)]
        if own in solvers.SOLVERS:
            assert dispatch(alg, inst, solver=own) == dispatch(alg, inst)
        assert dispatch(alg, inst, solver="brute") == solve_bruteforce(alg, inst)
        for route, (_, error, _, kinds) in solvers.HYPOTHESES.items():
            if not isinstance(inst, kinds):
                with pytest.raises(TypeError):
                    dispatch(alg, inst, solver=route)
            elif plan.flags[route] is not Tri.YES:
                with pytest.raises(error):
                    dispatch(alg, inst, solver=route)
            else:
                res = dispatch(alg, inst, solver=route)
                assert res.answer == solve_bruteforce(alg, inst).answer
    with pytest.raises(ValueError):
        dispatch(alg, _small_instances(alg, 1)[0], solver="product")


def test_dispatch_agreement_sample():
    rng = random.Random(31337)
    for name in ("Z4", "Z6", "majority", "S3", "Z4ring", "2lattice",
                 "2semilattice", "2boolean", "AD2", "trivial"):
        alg = get(name)
        for _ in range(40):
            inst = CsatInstance(random_circuit(alg, rng, 3, 8, 2))
            assert dispatch(alg, inst).answer == solve_bruteforce(alg, inst).answer


def test_dispatch_factor_split_z2xl2(z2xl2):
    # not DL-like, not supernilpotent, not affine as a whole: splits N x D
    rng = random.Random(5)
    for _ in range(40):
        inst = CsatInstance(random_circuit(z2xl2, rng, 3, 8, 2))
        res = dispatch(z2xl2, inst)
        assert res.solver_used.startswith("product(")
        assert res.answer == solve_bruteforce(z2xl2, inst).answer


def test_dispatch_ceqv_z2xl2_split(z2xl2):
    rng = random.Random(6)
    for _ in range(40):
        inst = CeqvInstance(random_circuit(z2xl2, rng, 3, 8, 2))
        assert dispatch(z2xl2, inst).answer == solve_bruteforce(z2xl2, inst).answer


def test_dispatch_mcsat_z2xl2_split(z2xl2):
    rng = random.Random(8)
    for _ in range(40):
        inst = McsatInstance(random_circuit(z2xl2, rng, 3, 8, 3))
        # dl_like(Z2xL2) is NO as a whole, so MCSAT goes through the factors
        res = dispatch(z2xl2, inst)
        assert res.answer == solve_bruteforce(z2xl2, inst).answer


def test_dispatch_scsat_lattice_brute(lat2):
    b = CircuitBuilder(lat2.name)
    x, y = b.input("x"), b.input("y")
    j = b.op("join", x, y)
    m = b.op("meet", x, y)
    one, zero = b.const(1), b.const(0)
    inst = ScsatInstance(b.build([j]), ((j, one), (m, zero)))
    res = dispatch(lat2, inst)
    assert res.solver_used == "brute"   # SCSAT must not take the diagonal shortcut
    assert res.answer == "sat"
    w = res.witness
    assert (w["x"] | w["y"]) == 1 and (w["x"] & w["y"]) == 0


# ---------------------------------------------------------------------------
# Soundness: every positive result re-verifies (enforced inside _result,
# exercised here across solvers)


def test_witnesses_verify_across_solvers(z4, lat2):
    rng = random.Random(11)
    for _ in range(30):
        inst = CsatInstance(random_circuit(z4, rng, 3, 8, 2))
        for res in (solve_bruteforce(z4, inst), solve_supernilpotent(plan_for(z4), inst)):
            if res.answer == "sat":
                out = eval_circuit(z4, inst.circuit, res.witness)
                assert out[0] == out[1]


def test_a_non_witness_fails_re_verification(z4):
    """For each kind, an assignment that does not prove the instance (for
    CEQV: does not refute it) fails re-verification, and _result refuses
    it; an assignment that does passes."""
    b = CircuitBuilder(z4.name)
    x, y, z = b.input("x"), b.input("y"), b.input("z")
    c = b.build([x, y, z])
    cases = [   # instance, non-witness, witness
        (CsatInstance(c.with_outputs([x, y])), {"x": 0, "y": 1, "z": 0}, {"x": 1, "y": 1, "z": 0}),
        # only the first two outputs agree
        (McsatInstance(c), {"x": 2, "y": 2, "z": 3}, {"x": 3, "y": 3, "z": 3}),
        # x = y holds, y = z does not
        (ScsatInstance(c, ((x, y), (y, z))), {"x": 1, "y": 1, "z": 0}, {"x": 0, "y": 0, "z": 0}),
        # the outputs agree, so nothing is refuted
        (CeqvInstance(c.with_outputs([x, y])), {"x": 2, "y": 2, "z": 0}, {"x": 2, "y": 1, "z": 0}),
    ]
    for inst, bad, good in cases:
        hit = "nequiv" if isinstance(inst, CeqvInstance) else "sat"
        assert not solvers._verify_witness(z4, inst, bad), type(inst).__name__
        with pytest.raises(AssertionError, match="re-verification"):
            solvers._result(z4, inst, hit, bad, "brute", 1)
        assert solvers._verify_witness(z4, inst, good), type(inst).__name__
        assert solvers._result(z4, inst, hit, good, "brute", 1).witness == good


def test_witnesses_are_re_verified_under_optimisation():
    proc = run_optimised(
        "from mvcirc import solvers\n"
        "from mvcirc.circuit import CircuitBuilder, CsatInstance\n"
        "from mvcirc.zoo import get\n"
        "solvers._verify_witness = lambda *args: False\n"
        "b = CircuitBuilder('Z6')\n"
        "x = b.input('x')\n"
        "print(solvers.dispatch(get('Z6'), CsatInstance(b.build([x, x]))))\n")
    assert proc.returncode != 0 and "witness failed re-verification" in proc.stderr, proc.stdout


def _commuted_pair(alg, rng, inputs, gates):
    """A random circuit's output against a copy of it with the arguments of
    every binary gate swapped: equivalent when every binary op commutes."""
    c = random_circuit(alg, rng, inputs, gates, 1)
    b = CircuitBuilder(alg.name)
    outs = []
    for swap in (False, True):
        ids = []
        for g in c.gates:
            if g.kind == "input":
                ids.append(b.input(g.name))
            elif g.kind == "const":
                ids.append(b.const(g.value))
            else:
                args = [ids[a] for a in g.args]
                ids.append(b.op(g.name, *(args[::-1] if swap else args)))
        outs.append(ids[c.outputs[0]])
    return b.build(outs)


def _shifted(alg, rng, inputs, gates):
    """CSAT g = f(g, c) for a binary op f and a constant c with f(x, c) != x
    for every x: unsatisfiable."""
    f, c = next((op.name, c) for op in alg.ops if op.arity == 2 for c in range(alg.size)
                if all(op.apply((x, c), alg.size) != x for x in range(alg.size)))
    circ = random_circuit(alg, rng, inputs, gates, 1)
    g, n = circ.outputs[0], len(circ.gates)
    shifted = circ.gates + (const_gate(c), op_gate(f, (g, n)))
    return CsatInstance(Circuit(shifted, (g, n + 1), alg.name))


@pytest.mark.parametrize("name", ["Z6", "Z4", "Z2xZ2", "Z2xL2"])
def test_affine_sweeps_agree_with_brute(name):
    # CSAT sweeps to support l and CEQV to support 1 over the affine
    # algebras and Z2xL2's affine factor; both answers of each kind occur
    alg = get(name)
    rng = random.Random(f"affine-sweeps:{name}")
    answers, solvers_used = set(), set()
    for j in range(60):
        inputs, gates = 1 + j % 6, 8 + j % 7
        c = random_circuit(alg, rng, inputs, gates, 2)
        for inst in (CsatInstance(c), CeqvInstance(c), _shifted(alg, rng, inputs, gates),
                     CeqvInstance(_commuted_pair(alg, rng, inputs, gates))):
            res = dispatch(alg, inst)
            assert res.answer == solve_bruteforce(alg, inst).answer
            answers.add(res.answer)
            solvers_used.add(res.solver_used)
    assert answers == {"sat", "unsat", "equiv", "nequiv"}
    if name == "Z2xL2":
        assert solvers_used == {"product(supernilpotent,usp)", "product(ceqv-affine,brute)"}
    else:
        assert solvers_used == {"supernilpotent", "ceqv-affine"}


def test_affine_sweeps_decide_forty_inputs(z6):
    # the unsat chain sweeps the 1 + 40*5 + C(40, 2)*5^2 assignments of
    # support at most l = 2, the equivalent folds the 1 + 40*5 of support
    # at most 1; exhaustive search would need 6^40
    rng = random.Random(40)
    b = CircuitBuilder(z6.name)
    xs = [b.input(f"x{i}") for i in range(40)]
    lits = [b.op("inv", x) if rng.random() < 0.5 else x for x in xs]
    acc = lits[0]
    for lit in lits[1:]:
        acc = b.op("mul", acc, b.op("mul", lit, rng.choice(xs)))
    chain = CsatInstance(b.build([acc, b.op("mul", acc, b.const(1))]))
    left, right = lits[0], lits[-1]
    for lit in lits[1:]:
        left = b.op("mul", left, lit)
    for lit in reversed(lits[:-1]):
        right = b.op("mul", lit, right)
    fold = CeqvInstance(b.build([left, right]))
    assert plan_for(z6).affine_csat_bound == 2
    for inst, answer, tried in ((chain, "unsat", 1 + 40 * 5 + 780 * 25),
                                (fold, "equiv", 1 + 40 * 5)):
        t0 = time.perf_counter()
        res = dispatch(z6, inst)
        assert time.perf_counter() - t0 < 1.0
        assert (res.answer, res.assignments_tried, res.experimental) == (answer, tried, False)


def test_affine_csat_sweeps_to_the_composition_length(z6):
    # 3x + 2y = 1 over Z6: the images {0, 3} and {0, 2, 4} each miss 1, so
    # every solution has two nonzero inputs, and l = 2 finds the least one
    b = CircuitBuilder(z6.name)
    x, y = b.input("x"), b.input("y")
    p = b.op("mul", b.op("mul", b.op("mul", x, x), x), b.op("mul", y, y))
    res = dispatch(z6, CsatInstance(b.build([p, b.const(1)])))
    assert (res.solver_used, res.answer, res.witness) == ("supernilpotent", "sat", {"x": 1, "y": 2})


def test_product_keeps_a_factor_experimental(z4ring, z2xl2):
    # Z4ring x (Z2 as a ring) splits into a factor whose CEQV sweep is
    # experimental and one that brute force decides; Z2xL2's affine factor
    # sweeps a proven bound
    b2 = FiniteAlgebra("B2", 2, (op_from_fn("add", 2, 2, lambda x, y: x ^ y),
                                 op_from_fn("neg", 1, 2, lambda x: x),
                                 op_from_fn("mul", 2, 2, lambda x, y: x & y)))
    for alg, op, experimental in ((direct_product(z4ring, b2), "add", True),
                                  (z2xl2, "f", False)):
        b = CircuitBuilder(alg.name)
        x, y = b.input("x"), b.input("y")
        res = dispatch(alg, CeqvInstance(b.build([b.op(op, x, y), b.op(op, y, x)])))
        assert res.solver_used.startswith("product(ceqv-")
        assert (res.answer, res.experimental) == ("equiv", experimental)


def test_composition_length():
    # the affine CSAT sweep's bound, the number of prime factors of |A|
    # counted with multiplicity
    assert [len(commutator.prime_factors(n)) for n in (1, 2, 4, 6, 8, 12, 30, 49, 97)] == [
        0, 1, 2, 2, 3, 3, 3, 2, 1]


def test_dispatch_small_cap_agrees_with_brute():
    # classification under cap 10 leaves DL-likeness undecided for
    # 2boolean, and for the supernilpotent Z3, Z4, Z6 and Z4ring the Malcev
    # term that the support sweep normalizes through; dispatch must still
    # decide every kind, by a sound route.
    rng = random.Random(12)
    with clone_cap(10):
        for name in ("2boolean", "Z3", "Z4", "Z6", "Z4ring"):
            alg = get(name)
            for _ in range(10):
                c = random_circuit(alg, rng, 3, 8, 3)
                for inst in (CsatInstance(c.with_outputs(c.outputs[:2])), McsatInstance(c),
                             CeqvInstance(c.with_outputs(c.outputs[:2])),
                             ScsatInstance(c, ((c.outputs[0], c.outputs[1]),))):
                    assert dispatch(alg, inst).answer == solve_bruteforce(alg, inst).answer


def test_ceqv_sweep_respects_the_budget(z4ring):
    # left fold against right fold of 9 inputs: equivalent, and the support
    # sweep of the non-abelian Z4ring over it is exhaustive, 4^9 assignments
    b = CircuitBuilder(z4ring.name)
    xs = [b.input(f"x{i}") for i in range(9)]
    left, right = xs[0], xs[-1]
    for x in xs[1:]:
        left = b.op("add", left, x)
    for x in reversed(xs[:-1]):
        right = b.op("add", x, right)
    inst = CeqvInstance(b.build([left, right]))
    with pytest.raises(BudgetExceeded) as exc:
        dispatch(z4ring, inst, budget=1000)
    assert exc.value.needed == 4 ** 9
