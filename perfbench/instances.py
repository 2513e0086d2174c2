"""Seeded inputs for the benchmark workloads.

Everything here is benchmark code: it builds instances from a seed and
knows their answers by construction.  The program under test only ever
receives the generated instances.

The seed draws wiring, constants and order; the *shape* of every input
(input counts, gate counts, output and equation counts) is fixed by a
schedule, so each seed asks the program for the same amount of work and
run-to-run spread reflects the program, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from mvcirc.algebra import FiniteAlgebra
from mvcirc.circuit import (
    CeqvInstance,
    CircuitBuilder,
    CsatInstance,
    McsatInstance,
    ScsatInstance,
    eval_circuit,
    random_circuit,
)
from mvcirc.reductions import Cnf3, boolean_host_witness, threesat_to_csat
from mvcirc.zoo import get

KINDS = ("CSAT", "MCSAT", "SCSAT", "CEQV")

DISPATCH_ALGEBRAS = (
    "Z6", "Z4", "Z2xZ2", "Z4ring", "2lattice", "majority", "S3", "2boolean", "Z2xL2",
)
# 9 algebras x 4 kinds x 28 = 1008 instances per pass
DISPATCH_PER_CELL = 28

LARGE_ALGEBRAS = ("Z4ring", "Z6", "S3", "Z2xZ2", "2boolean")
BEYOND_N = 40

# Fixed planted assignment for the 3-SAT instance: all true, the last
# assignment in brute-force order, so every seed enumerates all 2^16.
THREESAT_VARS = 16
THREESAT_CLAUSES = 69
THREESAT_NEGATIVE_LITERALS = 103   # with 69 clauses this gives 326 gates


@dataclass
class Case:
    """One benchmark operation: an instance over a zoo algebra."""

    name: str
    algebra: str
    kind: str
    instance: object
    planted: Optional[str] = None      # known answer, when built to have one
    cnf: Optional[Cnf3] = None         # for the 3-SAT case: the source formula


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


# ---------------------------------------------------------------------------
# dispatch-mix


def dispatch_mix(seed: int) -> list[Case]:
    """Random instances, equal shares per (algebra, kind) cell, shuffled.

    Within a cell the j-th instance has 2 + j % 4 inputs and 5 + j % 13
    gates (at least inputs + 2), so the shape mix is the same for every seed.
    """
    rng = _rng(seed, "dispatch-mix")
    cases: list[Case] = []
    for name in DISPATCH_ALGEBRAS:
        alg = get(name)
        for kind in KINDS:
            for j in range(DISPATCH_PER_CELL):
                n_inputs = 2 + j % 4
                n_gates = max(5 + j % 13, n_inputs + 2)
                inst = _random_instance(alg, rng, kind, n_inputs, n_gates, j)
                cases.append(Case(f"{name}/{kind}/{j}", name, kind, inst))
    rng.shuffle(cases)
    return cases


def _random_instance(alg: FiniteAlgebra, rng: random.Random, kind: str,
                     n_inputs: int, n_gates: int, j: int):
    if kind == "CSAT":
        return CsatInstance(random_circuit(alg, rng, n_inputs, n_gates, 2))
    if kind == "CEQV":
        return CeqvInstance(random_circuit(alg, rng, n_inputs, n_gates, 2))
    if kind == "MCSAT":
        return McsatInstance(random_circuit(alg, rng, n_inputs, n_gates, 2 + j % 3))
    circ = random_circuit(alg, rng, n_inputs, n_gates, 1)
    equations = tuple(
        (rng.randrange(n_gates), rng.randrange(n_gates)) for _ in range(1 + j % 3)
    )
    return ScsatInstance(circ, equations)


# ---------------------------------------------------------------------------
# large-n: instances whose answer is known from the construction


def _binary_ops(alg: FiniteAlgebra) -> list[str]:
    return [op.name for op in alg.ops if op.arity == 2]


def unsat_chain(alg: FiniteAlgebra, rng: random.Random, n: int) -> CsatInstance:
    """CSAT g = g + 1 over a random chain g of all n inputs, where + is the
    group operation (ring addition for Z4ring) and 1 is not its identity;
    unsatisfiable because a non-identity translation has no fixed point.
    Gates: n inputs, 2 per further input, one constant, one shift."""
    b = CircuitBuilder(alg.name)
    xs = [b.input(f"x{i}") for i in range(1, n + 1)]
    ops = _binary_ops(alg)
    acc = xs[0]
    for i in range(1, n):
        mix = b.op(rng.choice(ops), xs[i], xs[rng.randrange(n)])
        acc = b.op(rng.choice(ops), acc, mix)
    plus = "add" if any(op.name == "add" for op in alg.ops) else "mul"
    shifted = b.op(plus, acc, b.const(1))
    return CsatInstance(b.build([acc, shifted]))


def fold_pair(alg: FiniteAlgebra, rng: random.Random, n: int) -> CeqvInstance:
    """CEQV left fold vs right fold of the same literals under an
    associative mul; equivalent.  Half of the literals are inverted."""
    b = CircuitBuilder(alg.name)
    xs = [b.input(f"x{i}") for i in range(1, n + 1)]
    inverted = set(rng.sample(range(n), n // 2))
    lits = [b.op("inv", x) if i in inverted else x for i, x in enumerate(xs)]
    left = lits[0]
    for g in lits[1:]:
        left = b.op("mul", left, g)
    right = lits[-1]
    for g in reversed(lits[:-1]):
        right = b.op("mul", g, right)
    return CeqvInstance(b.build([left, right]))


def planted_system(alg: FiniteAlgebra, rng: random.Random, n: int,
                   n_equations: int = 2) -> ScsatInstance:
    """SCSAT g_i = c_i on a random 3n-gate circuit, with c_i the value of
    g_i under a random planted assignment; satisfiable."""
    circ = random_circuit(alg, rng, n, 3 * n, 1)
    planted = {nm: rng.randrange(alg.size) for nm in circ.input_names}
    values: list[int] = []
    eval_circuit(alg, circ, planted, hook=lambda i, v: values.append(v))
    op_gates = [i for i, g in enumerate(circ.gates) if g.kind == "op"]
    targets = rng.sample(op_gates, n_equations)
    b = CircuitBuilder(alg.name)
    b.gates = list(circ.gates)
    equations = tuple((g, b.const(values[g])) for g in targets)
    return ScsatInstance(b.build([targets[0]]), equations)


def planted_cnf(rng: random.Random, num_vars: int = THREESAT_VARS,
                num_clauses: int = THREESAT_CLAUSES,
                negatives: int = THREESAT_NEGATIVE_LITERALS) -> Cnf3:
    """3-CNF whose only model is all-true: one unit clause (v v v) per
    variable, then random clauses with at least one positive literal and
    exactly `negatives` negative literals in total."""
    rest = num_clauses - num_vars
    if not 0 <= negatives <= 2 * rest:
        raise ValueError("each random clause holds at most two negative literals")
    per_clause = [2] * (negatives // 2) + [1] * (negatives % 2)
    per_clause += [0] * (rest - len(per_clause))
    rng.shuffle(per_clause)
    clauses = [(v, v, v) for v in range(1, num_vars + 1)]
    for k in per_clause:
        lits = [rng.randint(1, num_vars) for _ in range(3)]
        for pos in rng.sample(range(3), k):
            lits[pos] = -lits[pos]
        clauses.append(tuple(lits))
    return Cnf3(num_vars, tuple(clauses))


def threesat_case(rng: random.Random, num_vars: int = THREESAT_VARS,
                  num_clauses: int = THREESAT_CLAUSES,
                  negatives: int = THREESAT_NEGATIVE_LITERALS) -> Case:
    host = get("2boolean")
    cnf = planted_cnf(rng, num_vars, num_clauses, negatives)
    inst = threesat_to_csat(host, boolean_host_witness(host), cnf)
    return Case(f"2boolean/3sat-{num_vars}", "2boolean", "CSAT", inst, "sat", cnf)


def large_cases(seed: int) -> tuple[list[Case], list[Case]]:
    """(brute-feasible group, beyond-brute group)."""
    rng = _rng(seed, "large-n")
    z4ring, z6, s3, z2xz2 = get("Z4ring"), get("Z6"), get("S3"), get("Z2xZ2")
    feasible = [
        Case("Z4ring/chain", "Z4ring", "CSAT", unsat_chain(z4ring, rng, 9), "unsat"),
        Case("Z6/chain", "Z6", "CSAT", unsat_chain(z6, rng, 7), "unsat"),
        Case("Z6/fold", "Z6", "CEQV", fold_pair(z6, rng, 7), "equiv"),
        Case("S3/chain", "S3", "CSAT", unsat_chain(s3, rng, 7), "unsat"),
        Case("Z6/affine", "Z6", "SCSAT", planted_system(z6, rng, 6), "sat"),
        Case("Z2xZ2/affine", "Z2xZ2", "SCSAT", planted_system(z2xz2, rng, 8), "sat"),
        threesat_case(rng),
    ]
    beyond = [
        Case("Z6/chain-40", "Z6", "CSAT", unsat_chain(z6, rng, BEYOND_N), "unsat"),
        Case("Z4ring/chain-40", "Z4ring", "CSAT", unsat_chain(z4ring, rng, BEYOND_N), "unsat"),
        Case("Z6/affine-40", "Z6", "SCSAT", planted_system(z6, rng, BEYOND_N), "sat"),
        Case("Z2xZ2/affine-40", "Z2xZ2", "SCSAT", planted_system(z2xz2, rng, BEYOND_N), "sat"),
    ]
    return feasible, beyond
