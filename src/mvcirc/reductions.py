"""Constructive reductions, generated and verified at desk scale.

Every generator here comes with a satisfiability-preservation contract that
the tests discharge by double brute force; no hardness is claimed
programmatically.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import (
    App,
    FiniteAlgebra,
    Operation,
    Term,
    Var,
    check_malcev_term,
    term_values,
)
from .circuit import (
    CircuitBuilder,
    CsatInstance,
    McsatInstance,
    ScsatInstance,
)
from .congruence import congruence_lattice
from .errors import (
    CapExceeded,
    InvalidWitness,
    NotPermutationWarning,
    ParseError,
    parse_int,
)
from .tct import minimal_sets, pair_ops, type_of


# ---------------------------------------------------------------------------
# 3-CNF


@dataclass(frozen=True)
class Cnf3:
    """CNF with exactly three literals per clause; literals are signed
    1-based variable indices (DIMACS convention)."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError("clauses must have exactly 3 literals")
            for lit in cl:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")

    def satisfied_by(self, asg: Sequence[bool]) -> bool:
        return all(
            any((asg[abs(l) - 1]) == (l > 0) for l in cl)
            for cl in self.clauses
        )

    def satisfiable(self) -> bool:
        """Direct enumeration, independent of any circuit machinery."""
        for bits in range(2 ** self.num_vars):
            asg = [(bits >> i) & 1 == 1 for i in range(self.num_vars)]
            if self.satisfied_by(asg):
                return True
        return False


def parse_dimacs(text: str) -> Cnf3:
    num_vars = 0
    declared = False
    clauses: list[tuple[int, int, int]] = []
    lits: list[int] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("bad problem line", ln)
            if declared:
                raise ParseError("second problem line", ln)
            declared = True
            num_vars = parse_int(parts[2], "variable count", ln)
            if num_vars < 0 or parse_int(parts[3], "clause count", ln) < 0:
                raise ParseError("negative count in problem line", ln)
            continue
        for tok in line.split():
            v = parse_int(tok, "literal", ln)
            if abs(v) > num_vars:
                raise ParseError(f"literal {v} beyond the {num_vars} declared variables", ln)
            if v == 0:
                if len(lits) != 3:
                    raise ParseError(f"clause with {len(lits)} literals; need 3", ln)
                clauses.append((lits[0], lits[1], lits[2]))
                lits = []
            else:
                lits.append(v)
    if lits:
        raise ParseError("trailing clause without terminating 0")
    return Cnf3(num_vars, tuple(clauses))


def random_cnf3(rng: random.Random, num_vars: int, num_clauses: int) -> Cnf3:
    clauses = []
    for _ in range(num_clauses):
        cl = tuple(
            rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(3)
        )
        clauses.append(cl)
    return Cnf3(num_vars, tuple(clauses))


# ---------------------------------------------------------------------------
# 3-SAT -> CSAT through a Boolean-behaved minimal set


@dataclass
class Type3Witness:
    """A two-element set {zero, one} on which host polynomials realize the
    Boolean operations, plus an idempotent projection onto it."""

    zero: int
    one: int
    meet: Term   # binary, Var(0), Var(1)
    join: Term
    neg: Term    # unary
    e: Term      # unary idempotent onto {zero, one}

    def validate(self, alg: FiniteAlgebra) -> None:
        z, o = self.zero, self.one
        n = alg.size
        if not (0 <= z < n and 0 <= o < n and z != o):
            raise InvalidWitness("bad pair")
        pairs = [(z, z), (z, o), (o, z), (o, o)]
        want_meet = [z, z, z, o]
        want_join = [z, o, o, o]
        for t, want in ((self.meet, want_meet), (self.join, want_join)):
            got, = term_values(alg, (t,), pairs)
            if got != want:
                raise InvalidWitness(f"lattice term restriction is {got}, want {want}")
        neg, = term_values(alg, (self.neg,), [(z,), (o,)])
        if neg != [o, z]:
            raise InvalidWitness("negation term does not swap the pair")
        e, = term_values(alg, (self.e,), [(x,) for x in range(n)])
        if set(e) != {z, o}:
            raise InvalidWitness(f"projection range is {sorted(set(e))}, want {{{z},{o}}}")
        if any(e[ex] != ex for ex in e):
            raise InvalidWitness("projection term is not idempotent")


def boolean_host_witness(alg: FiniteAlgebra) -> Type3Witness:
    """Witness for a host that is itself the 2-element Boolean algebra
    (ops named meet/join/not)."""
    w = Type3Witness(
        zero=0,
        one=1,
        meet=App("meet", (Var(0), Var(1))),
        join=App("join", (Var(0), Var(1))),
        neg=App("not", (Var(0),)),
        e=Var(0),
    )
    w.validate(alg)
    return w


def derive_type3_witness(alg: FiniteAlgebra) -> Optional[Type3Witness]:
    """Auto-derive a witness from a type-3 labeled cover, if one exists."""
    lat = congruence_lattice(alg)
    for lo, hi in lat.cover_pairs():
        if type_of(alg, lo, hi) != 3:
            continue
        try:
            ms = minimal_sets(alg, lo, hi)[0]
        except CapExceeded:
            continue
        if len(ms.elements) != 2 or ms.idempotent_witness is None:
            continue
        ops = pair_ops(alg, ms.elements)
        if None not in (ops.meet, ops.join, ops.swap):
            w = Type3Witness(*ms.elements, ops.meet, ops.join, ops.swap,
                             ms.idempotent_witness)
            w.validate(alg)
            return w
    return None


def threesat_to_csat(alg: FiniteAlgebra, witness: Type3Witness, phi: Cnf3) -> CsatInstance:
    """Translate the CNF into (AND over clauses of (OR of projected, possibly
    negated literals)) = one; left-associated chains."""
    witness.validate(alg)
    b = CircuitBuilder(alg.name)
    proj: dict[int, int] = {}  # variable -> gate e(x_v)

    def literal_gate(lit: int) -> int:
        v = abs(lit)
        if v not in proj:
            x = b.input(f"x{v}")
            proj[v] = b.inline_term(witness.e, [x])
        g = proj[v]
        if lit < 0:
            g = b.inline_term(witness.neg, [g])
        return g

    clause_gates = []
    for cl in phi.clauses:
        lits = [literal_gate(l) for l in cl]
        acc = lits[0]
        for g in lits[1:]:
            acc = b.inline_term(witness.join, [acc, g])
        clause_gates.append(acc)
    acc = clause_gates[0] if clause_gates else None
    for g in clause_gates[1:]:
        acc = b.inline_term(witness.meet, [acc, g])
    one = b.const(witness.one)
    # an empty conjunction is true: with no clauses, one is compared with itself
    return CsatInstance(b.build([one if acc is None else acc, one]))


# ---------------------------------------------------------------------------
# CSP <-> CSAT


@dataclass(frozen=True)
class RelStructure:
    name: str
    domain: int
    relations: dict[str, tuple[int, frozenset]]  # name -> (arity, tuples)

    def __post_init__(self) -> None:
        for rname, (arity, tuples) in self.relations.items():
            for t in tuples:
                if len(t) != arity:
                    raise ValueError(f"relation {rname}: tuple {t} has wrong arity")
                if any(not 0 <= x < self.domain for x in t):
                    raise ValueError(f"relation {rname}: tuple {t} out of domain")


@dataclass(frozen=True)
class CspInstance:
    structure: RelStructure
    atoms: tuple[tuple[str, tuple[str, ...]], ...]   # (relation, variable names)

    def satisfiable(self) -> bool:
        """Direct backtracking-free enumeration over the domain."""
        names: list[str] = []
        for _, vs in self.atoms:
            for v in vs:
                if v not in names:
                    names.append(v)
        for vals in itertools.product(range(self.structure.domain), repeat=len(names)):
            env = dict(zip(names, vals))
            if all(
                tuple(env[v] for v in vs) in self.structure.relations[r][1]
                for r, vs in self.atoms
            ):
                return True
        return False


def build_csp_algebra(d: RelStructure) -> FiniteAlgebra:
    """Universe D + {false, true}; a flat conjunction (true iff both true)
    and one characteristic operation per relation."""
    n = d.domain + 2
    f, t = d.domain, d.domain + 1
    and_table = tuple(
        t if (x == t and y == t) else f
        for x in range(n)
        for y in range(n)
    )
    ops = [Operation("and", 2, and_table)]
    for rname in sorted(d.relations):
        arity, tuples = d.relations[rname]
        table = tuple(
            t if all(x < d.domain for x in args) and tuple(args) in tuples else f
            for args in itertools.product(range(n), repeat=arity)
        )
        ops.append(Operation(f"R_{rname}", arity, table))
    return FiniteAlgebra(f"A[{d.name}]", n, tuple(ops))


def csp_to_csat(d: RelStructure, instance: CspInstance) -> tuple[FiniteAlgebra, CsatInstance]:
    alg = build_csp_algebra(d)
    t = d.domain + 1
    b = CircuitBuilder(alg.name)
    atom_gates = []
    for rname, vs in instance.atoms:
        args = [b.input(v) for v in vs]
        atom_gates.append(b.op(f"R_{rname}", *args))
    if not atom_gates:
        acc = b.const(t)
    else:
        acc = atom_gates[0]
        for g in atom_gates[1:]:
            acc = b.op("and", acc, g)
    one = b.const(t)
    return alg, CsatInstance(b.build([acc, one]))


def csat_to_csp(
    d: RelStructure, alg: FiniteAlgebra, instance: CsatInstance
) -> tuple[Optional[CspInstance], Optional[str]]:
    """Recognize the (AND of R-atoms) = true shape and read the CSP back.
    Bare-variable conjuncts and literal-true conjuncts are dropped (they are
    forced to true independently of the relational part)."""
    t = d.domain + 1
    circ = instance.circuit
    o1, o2 = instance.circuit.outputs

    def is_true_const(g: int) -> bool:
        gate = circ.gates[g]
        return gate.kind == "const" and gate.value == t

    if is_true_const(o2):
        root = o1
    elif is_true_const(o1):
        root = o2
    else:
        return None, "neither output is the constant true"

    atoms: list[tuple[str, tuple[str, ...]]] = []

    def walk(g: int) -> Optional[str]:
        gate = circ.gates[g]
        if gate.kind == "op" and gate.name == "and":
            for a in gate.args:
                err = walk(a)
                if err:
                    return err
            return None
        if gate.kind == "op" and gate.name.startswith("R_"):
            vs = []
            for a in gate.args:
                sub = circ.gates[a]
                if sub.kind != "input":
                    return f"relation argument g{a} is not an input"
                vs.append(sub.name)
            atoms.append((gate.name[2:], tuple(vs)))
            return None
        if gate.kind == "input":
            return None
        if is_true_const(g):
            return None
        return f"gate g{g} does not fit the conjunction-of-atoms shape"

    err = walk(root)
    if err:
        return None, err
    return CspInstance(d, tuple(atoms)), None


def parse_structure_file(text: str) -> RelStructure:
    """Format: `domain <n>`, then per relation `rel <name> arity <k>`
    followed by its tuples, one per line; `#` comments."""
    domain = None
    relations: dict[str, tuple[int, set]] = {}
    current: Optional[tuple[int, set]] = None     # the relation being read
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "domain":
            if len(toks) != 2:
                raise ParseError("domain takes one integer", ln)
            if domain is not None:
                raise ParseError("second domain line", ln)
            domain = parse_int(toks[1], "domain", ln)
            if domain < 0:
                raise ParseError(f"negative domain {domain}", ln)
        elif toks[0] == "rel":
            if len(toks) != 4 or toks[2] != "arity":
                raise ParseError("expected: rel <name> arity <k>", ln)
            arity = parse_int(toks[3], "arity", ln)
            if arity < 0:
                raise ParseError(f"negative arity {arity}", ln)
            if toks[1] in relations:
                raise ParseError(f"second rel {toks[1]} header", ln)
            current = relations[toks[1]] = (arity, set())
        else:
            if current is None:
                raise ParseError("tuple before any rel header", ln)
            tup = tuple(parse_int(t, "tuple entry", ln) for t in toks)
            if len(tup) != current[0]:
                raise ParseError(f"tuple arity {len(tup)} != {current[0]}", ln)
            if domain is None or not all(0 <= x < domain for x in tup):
                raise ParseError(f"tuple {tup} outside the declared domain", ln)
            current[1].add(tup)
    if domain is None:
        raise ParseError("missing domain line")
    return RelStructure("D", domain, {name: (k, frozenset(tuples))
                                      for name, (k, tuples) in relations.items()})


def parse_csp_instance(d: RelStructure, text: str) -> CspInstance:
    """One atom per line: `<relation> <var> <var> ...`."""
    atoms = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        rname, vs = toks[0], tuple(toks[1:])
        if rname not in d.relations:
            raise ParseError(f"unknown relation {rname!r}", ln)
        if len(vs) != d.relations[rname][0]:
            raise ParseError(f"atom arity {len(vs)} != {d.relations[rname][0]}", ln)
        atoms.append((rname, vs))
    return CspInstance(d, tuple(atoms))


# ---------------------------------------------------------------------------
# Random two-equation lattice systems


@dataclass
class Dl01Instance:
    system: ScsatInstance
    x_triples: list[tuple[str, str, str]]
    y_triples: list[tuple[str, str, str]]
    variables: list[str]

    def verify(self) -> bool:
        """Semantic truth over {0,1} directly from the triples: the AND of
        x-clause ORs must be 1 and the OR over all y-clause ORs must be 0."""
        for vals in itertools.product((0, 1), repeat=len(self.variables)):
            env = dict(zip(self.variables, vals))
            eq1 = all(max(env[a], env[b], env[c]) == 1 for a, b, c in self.x_triples)
            ys = [max(env[a], env[b], env[c]) for a, b, c in self.y_triples]
            eq2 = (max(ys) if ys else 0) == 0
            if eq1 and eq2:
                return True
        return False


def dl01_system(m: int, n: int, seed: int, lattice: FiniteAlgebra) -> Dl01Instance:
    """Random AND-of-OR-triples = 1 and OR-of-OR-triples = 0 system over the
    2-element lattice (ops named meet/join)."""
    if m < 1 or n < 1:
        raise ValueError("need at least one clause on each side")
    rng = random.Random(seed)
    pool = [f"v{i}" for i in range(max(2, rng.randint(2, 3 * (m + n))))]
    xt = [tuple(rng.choice(pool) for _ in range(3)) for _ in range(m)]
    yt = [tuple(rng.choice(pool) for _ in range(3)) for _ in range(n)]
    b = CircuitBuilder(lattice.name)

    def or3(tr):
        g = b.op("join", b.input(tr[0]), b.input(tr[1]))
        return b.op("join", g, b.input(tr[2]))

    x_or = [or3(tr) for tr in xt]
    acc1 = x_or[0]
    for g in x_or[1:]:
        acc1 = b.op("meet", acc1, g)
    y_or = [or3(tr) for tr in yt]
    acc2 = y_or[0]
    for g in y_or[1:]:
        acc2 = b.op("join", acc2, g)
    one = b.const(1)
    zero = b.const(0)
    circ = b.build([acc1, acc2])
    system = ScsatInstance(circ, ((acc1, one), (acc2, zero)))
    used = sorted({v for tr in xt + yt for v in tr})
    return Dl01Instance(system, xt, yt, used)


# ---------------------------------------------------------------------------
# SCSAT -> MCSAT over a Malcev algebra


def scsat_to_mcsat(
    alg: FiniteAlgebra, system: ScsatInstance, d: Term, a: int
) -> McsatInstance:
    """Rewrite g_i = h_i (all i) as d(g_i, h_i, a) = ... = a.  Valid when
    x -> d(x, y, a) hits a only at x = y; that is checked pointwise and a
    warning is raised otherwise (the construction then loses equivalence)."""
    check_malcev_term(alg, d)
    n = alg.size
    values, = term_values(alg, (d,), [(x, y, a) for y in range(n) for x in range(n)])
    for y in range(n):
        hits = [x for x in range(n) if values[y * n + x] == a]
        if hits != [y]:
            warnings.warn(
                f"x -> d(x,{y},{a}) hits {a} at {hits}; instance may not be equivalent",
                NotPermutationWarning,
            )
            break
    gates = list(system.circuit.gates)
    b = CircuitBuilder(alg.name)
    b.gates = gates[:]
    b._inputs = {g.name: i for i, g in enumerate(gates) if g.kind == "input"}
    const_a = b.const(a)
    outs = []
    for g, h in system.equations:
        outs.append(b.inline_term(d, [g, h, const_a]))
    if not outs:
        outs = [const_a]
    outs.append(const_a)
    return McsatInstance(b.build(outs))
