"""Deciders for the four circuit problems.

Brute force is the universal oracle; the fast paths are a diagonal check for
subdirect products of lattice-like 2-element algebras, a bounded-support
sweep for supernilpotent algebras that compares the instance's own output
pairs (the bound comes from an iterated Ramsey argument, so it saturates
quickly and the sweep degenerates to exhaustive search at desk scale, where
it is unconditionally sound; over affine algebras proven bounds keep the
sweep polynomial), and elimination over the underlying module for affine
algebras.  Each fast solver is a function of the per-algebra Plan and the
instance, and all but the diagonal check also of the budget, the most
assignments they may evaluate.  The Plan, kept in the per-algebra store,
holds the flag of each solver's hypothesis, read from the one predicate
behind it (Plan.require), and the facts it uses.  The dispatcher runs the
plan's route for the instance's kind, or a route the caller names; every
satisfying witness re-verifies by evaluation before it is returned, and the
affine route's check of each output's form verifies in the same way: each
answer has one path, and a failed check raises AssertionError.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .algebra import (
    BLOCK,
    FiniteAlgebra,
    _op_tables,
    pack_column,
    stored,
)
from .circuit import (
    BlockProgram,
    CeqvInstance,
    Circuit,
    CsatInstance,
    Instance,
    McsatInstance,
    ScsatInstance,
    compile_circuit,
    const_gate,
    gate_values,
)
from .commutator import (
    AbelianGroup,
    is_affine,
    is_supernilpotent,
    module_structure,
    nilpotency_class,
    prime_factors,
)
from .congruence import FactorPair, nontrivial_factor_pair
from .errors import (
    BudgetExceeded,
    NotAffine,
    NotDlLike,
    NotSupernilpotent,
    Tri,
    UnsupportedKind,
)
from .partition import Partition
from .structure import is_dl_like

RAMSEY_CEILING = 10 ** 18
BUDGET = 10 ** 8        # the most assignments an enumeration may evaluate


@dataclass
class SolveResult:
    answer: str                                # "sat" | "unsat" | "equiv" | "nequiv"
    witness: Optional[dict[str, int]]
    solver_used: str
    assignments_tried: int = 0

    @property
    def experimental(self) -> bool:
        """Whether the route, or a factor's route, is the experimental sweep."""
        return "ceqv-supernilpotent-experimental" in self.solver_used

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "answer": self.answer,
            "witness": self.witness,
            "solver": self.solver_used,
            "assignments_tried": self.assignments_tried,
            "experimental": self.experimental,
        }


def _verify_witness(alg: FiniteAlgebra, inst: Instance, witness: dict[str, int],
                    pairs: Optional[Sequence[tuple[int, int]]] = None) -> bool:
    """Whether witness, evaluated anew, makes every pair agree (for CEQV:
    some pair differ); pairs are inst's _pairs, passed when the solve has
    them already."""
    vals = gate_values(alg, inst.circuit, witness)
    ceqv = isinstance(inst, CeqvInstance)
    for g, h in _pairs(inst) if pairs is None else pairs:
        if vals[g] != vals[h]:
            return ceqv
    return not ceqv


def _result(alg, inst, answer, witness, solver, tried, pairs=None):
    if witness is not None and not _verify_witness(alg, inst, witness, pairs):
        raise AssertionError("witness failed re-verification")
    return SolveResult(answer, witness, solver, tried)


# ---------------------------------------------------------------------------
# Enumeration in blocks

Block = tuple[Sequence[bytes], int]   # input columns, number of assignments


def _pairs(inst: Instance) -> tuple[tuple[int, int], ...]:
    """The gate pairs that must all agree: the equations of a system, else
    the consecutive outputs.  A hit proves the instance, except for CEQV,
    where a hit (some pair differs) refutes it."""
    if isinstance(inst, ScsatInstance):
        return inst.equations
    outs = inst.circuit.outputs
    return tuple(zip(outs, outs[1:]))


def _within(total: int, budget: int) -> int:
    """total, the assignments a solve would evaluate, or BudgetExceeded
    when that is more than the budget allows."""
    if total > budget:
        raise BudgetExceeded(total, budget)
    return total


class _Digits:
    """Columns over ranges of the lexicographic order on values^k (the last
    position varies fastest).  A range aligned to `span` assignments varies
    only the last j positions, where span = r^j is the largest power of
    r = len(values) within BLOCK (j <= k); the other positions are constant
    on it.  The column of each of those j low digits over a whole span is
    built with the digits, so a range slices it.  Kept per algebra by
    _digits, so the span columns and the lexicographic first block are
    built once per (values, k, BLOCK)."""

    def __init__(self, width: int, values: Sequence[int], k: int):
        r, j, span = len(values), 0, 1
        while j < k and span * r <= BLOCK:
            j, span = j + 1, span * r
        self.width, self.r, self.k, self.span = width, r, k, span
        self.values = pack_column(width, values)    # the digit of each value, in order
        # digit d (position k-1-d) over one span, each value r^d times in
        # turn; digits j-1 down to 0, the order of their positions
        self.low = [b"".join([self.values[v:v + width] * r ** d
                              for v in range(0, r * width, width)]) * (span // r ** (d + 1))
                    for d in range(j - 1, -1, -1)]

    def columns(self, lo: int, count: int) -> list[bytes]:
        """The k columns of [lo, lo + count), a range inside one aligned
        span: a digit above the low ones repeats its one value, a low digit
        is its span column cut to the range."""
        w, r, values = self.width, self.r, self.values
        out = []
        for d in range(self.k - 1, len(self.low) - 1, -1):
            v = lo // r ** d % r * w
            out.append(values[v:v + w] * count)
        start = lo % self.span * w
        out += [col[start:start + count * w] for col in self.low]
        return out

    @cached_property
    def first(self) -> Block:
        """The lexicographic first block [1, min(16, span)), or [1, 2)
        when the span is one assignment."""
        end = max(2, min(16, self.span))
        return self.columns(1, end - 1), end - 1


def _digits(alg: FiniteAlgebra, values: Sequence[int], k: int) -> _Digits:
    """The _Digits of values^k from the per-algebra store; the key holds
    BLOCK, which sets the spans."""
    return stored(alg, ("digits", values, k, BLOCK),
                  lambda: _Digits(_op_tables(alg).width, values, k))


def _lex_blocks(alg: FiniteAlgebra, m: int) -> Iterator[Block]:
    """The n^m assignments after the first (all 0) in lexicographic order
    (sorted input names, last fastest), in blocks [1, 16), [16, 256), ...
    up to one aligned span of at most BLOCK, then aligned spans.  A block of
    up to 16 assignments costs little more than one, so an instance
    satisfied early pays for about two evaluations; that first block is
    kept with the digits."""
    n = alg.size
    total = n ** m
    if total == 1:
        return
    digits = _digits(alg, range(n), m)
    yield digits.first
    span, lo = digits.span, 1 + digits.first[1]
    while lo < total:
        hi = lo + span if lo >= span else min(lo * 16, span)
        yield digits.columns(lo, hi - lo), hi - lo
        lo = hi


def _decide(alg: FiniteAlgebra, inst: Instance, program: BlockProgram,
            blocks: Iterable[Block], total: int, solver: str) -> SolveResult:
    """The answer from the first hit of an enumeration of total assignments,
    an assignment at which every compared pair agrees, or for CEQV some
    pair differs: sat, or nequiv, with the hit as witness; unsat, or equiv,
    when there is none.  The first assignment, all 0, is evaluated alone,
    so an instance it decides builds no block; then the blocks, which
    follow it, are walked in order."""
    ceqv = isinstance(inst, CeqvInstance)
    values, tried = (0,) * len(program.names), 1
    if program.differs(values) is not ceqv:     # the first assignment is no hit
        for columns, count in blocks:
            flags = program.mismatches(columns, count)
            # the first flag that is zero, or for CEQV nonzero
            p = count - len(flags.lstrip(b"\0")) if ceqv else flags.find(0)
            if 0 <= p < count:
                values, tried = program.assignment(columns, p), tried + p + 1
                break
            tried += count
        else:
            return SolveResult("equiv" if ceqv else "unsat", None, solver, total)
    return _result(alg, inst, "nequiv" if ceqv else "sat", dict(zip(program.names, values)),
                   solver, tried, program.pairs)


# ---------------------------------------------------------------------------
# Brute force


def solve_bruteforce(alg: FiniteAlgebra, inst: Instance, budget: int = BUDGET) -> SolveResult:
    """Lexicographic enumeration of all |A|^n assignments (sorted input names,
    values as base-|A| digits); the first hit is reported."""
    m = len(inst.circuit.input_names)
    total = _within(alg.size ** m, budget)
    program = BlockProgram(alg, inst.circuit, _pairs(inst))
    return _decide(alg, inst, program, _lex_blocks(alg, m), total, "brute")


# ---------------------------------------------------------------------------
# Diagonal solver for DL-like algebras


def solve_usp(plan: Plan, inst: Instance) -> SolveResult:
    """Test only the |A| constant diagonals.  Complete for algebras with the
    uniform solution property (value attained somewhere is attained on its
    own diagonal), which subdirect products of lattice-like 2-element
    algebras have."""
    plan.require("usp", inst)
    return _diagonal(plan.alg, inst)


def _diagonal(alg: FiniteAlgebra, inst: CsatInstance | McsatInstance) -> SolveResult:
    """The first constant diagonal, 0 then 1, 2, ..., at which every output
    agrees."""
    program = BlockProgram(alg, inst.circuit, _pairs(inst))
    diagonals = [pack_column(program.width, range(1, alg.size))] * len(program.names)
    return _decide(alg, inst, program, [(diagonals, alg.size - 1)], alg.size, "usp")


# ---------------------------------------------------------------------------
# Supernilpotent solver


def ramsey_support_bound(k: int, card_a: int) -> int:
    """Upper bound d: any d-element set, with all <=(k-1)-subsets colored by
    C = |A|^(k|A|) colors, contains an m = (k-1)!|A| subset homogeneous per
    cardinality.  Iterated hypergraph Ramsey numbers, pigeonhole at size 1,
    a crude-but-safe exponential step above, saturating at RAMSEY_CEILING."""
    if k < 1 or card_a < 1:
        raise ValueError("need k >= 1 and |A| >= 1")
    m = math.factorial(k - 1) * card_a
    if k == 1:
        return min(m, RAMSEY_CEILING)
    c = card_a ** (k * card_a)

    def rq(q: int, colors: int, target: int) -> int:
        """Upper bound on the q-uniform hypergraph Ramsey number forcing a
        monochromatic target-subset under a colors-coloring."""
        if colors <= 1 or target <= q:
            return target
        if q == 1:
            return colors * (target - 1) + 1  # exact pigeonhole
        prev = rq(q - 1, colors, target)
        if prev >= RAMSEY_CEILING:
            return RAMSEY_CEILING
        expo = (prev + q) ** q
        if expo * math.log2(colors) > 64:
            return RAMSEY_CEILING
        return min(colors ** expo + q, RAMSEY_CEILING)

    # homogenize subset sizes k-1 down to 1; each extraction preserves the
    # homogeneity already obtained on larger sizes
    t = m
    for q in range(k - 1, 0, -1):
        t = rq(q, c, t)
        if t >= RAMSEY_CEILING:
            return RAMSEY_CEILING
    return min(max(t, m), RAMSEY_CEILING)


def _support_sweep(alg: FiniteAlgebra, m: int, max_support: int) -> Iterator[Block]:
    """The assignments after the first (all 0) ordered by support size,
    then positions (combinations order), then values (product order over
    the nonzero values), in blocks: consecutive position sets of one support
    size up to BLOCK assignments; a position set with more values than that
    comes in aligned spans.  The first block, which holds support 1 only
    whatever max_support is, is kept per (m, BLOCK) in the store."""
    if alg.size == 1 or max_support < 1:    # the first assignment is the only one
        return

    def nonzero(s: int) -> _Digits:
        return _digits(alg, range(1, alg.size), s)

    def start() -> tuple[Block, bytes]:
        fill = pack_column(_op_tables(alg).width, (0,))
        return next(_support_blocks(nonzero(1), m, fill)), fill

    first, fill = stored(alg, ("sweep", m, BLOCK), start)
    yield first
    digits = nonzero(1)
    yield from _support_blocks(digits, m, fill, first[1] // digits.span)
    for s in range(2, max_support + 1):
        yield from _support_blocks(nonzero(s), m, fill)


def _support_blocks(digits: _Digits, m: int, fill: bytes, skip: int = 0) -> Iterator[Block]:
    """The blocks of one support size s = digits.k, past the first skip
    pieces; a piece is one aligned span of values on one position set.
    Each column of a block is one join of its pieces.  A piece at the
    offset of the piece before it reuses its columns, so when one span
    holds every value, as at small s, each s makes one columns call."""
    s, span = digits.k, digits.span
    per = digits.r ** s
    blank = fill * span
    last = None     # the offset whose columns are at hand
    pieces = itertools.islice(((positions, lo)
                               for positions in itertools.combinations(range(m), s)
                               for lo in range(0, per, span)), skip, None)
    while True:
        batch = list(itertools.islice(pieces, BLOCK // span))
        if not batch:
            return
        parts = [[blank] * len(batch) for _ in range(m)]
        for k, (positions, lo) in enumerate(batch):
            if lo != last:
                columns, last = digits.columns(lo, span), lo
            for i, col in zip(positions, columns):
                parts[i][k] = col
        yield [b"".join(column) for column in parts], len(batch) * span


def _sweep_size(n: int, inputs: int, max_support: int, budget: int = BUDGET) -> int:
    """The number of assignments in the support sweep; BudgetExceeded when
    that is more than the budget allows."""
    return _within(sum(math.comb(inputs, s) * (n - 1) ** s for s in range(max_support + 1)),
                   budget)


def _sweep(alg: FiniteAlgebra, inst: CsatInstance | CeqvInstance, bound: int,
           budget: int = BUDGET, affine: bool = False) -> SolveResult:
    """Sweep by support size off 0, up to min(bound, n), for the first
    assignment where the two outputs agree (CSAT) or differ (CEQV).  A CEQV
    answer is experimental unless affine says that bound is proven."""
    m = len(inst.circuit.input_names)
    max_support = min(bound, m)
    total = _sweep_size(alg.size, m, max_support, budget)
    program = BlockProgram(alg, inst.circuit, _pairs(inst))
    ceqv = isinstance(inst, CeqvInstance)
    solver = ("supernilpotent" if not ceqv else "ceqv-affine" if affine
              else "ceqv-supernilpotent-experimental")
    return _decide(alg, inst, program, _support_sweep(alg, m, max_support), total, solver)


def solve_supernilpotent(plan: Plan, inst: Instance, budget: int = BUDGET) -> SolveResult:
    """Sweep assignments by support size off 0 up to min(D, n).  The
    theorem's equation d(p, q, 0) = 0, for the Malcev term d, has the same
    solutions as p = q, so the sweep compares the outputs themselves.  CSAT
    looks for an assignment where the outputs agree, CEQV for one where they
    differ.

    Over an affine algebra D is proven small.  (A, +) with x + y = d(x, 0, y)
    is an abelian group with neutral element 0, and every circuit is an
    affine map of the module (Herrmann's theorem), so
    p - q = c + t_1(x_1) + ... + t_n(x_n) with each t_i an endomorphism of
    (A, +).  The all-zero assignment reads c, and x_i = a with every other
    input 0 reads c + t_i(a).
    - CEQV, D = 1: p and q agree everywhere iff c = 0 and every t_i is 0,
      which the 1 + n(|A| - 1) assignments of support at most 1 read off.
    - CSAT, D = l, the composition length of (A, +): p = q reads
      t_1(x_1) + ... + t_n(x_n) = -c.  Adding the subgroups t_i(A) one at a
      time, each either strictly enlarges the sum so far or is redundant.
      The enlarging ones form a strictly increasing chain of at most l
      subgroups whose sum is the whole sum, so when -c lies in it some
      solution sets every other input to 0 (t_i(0) = 0).

    Otherwise D is the plan's Ramsey support bound.  For n <= D the sweep is
    exhaustive, hence unconditionally sound regardless of the quality of
    the bound.  A CEQV result is then marked experimental, since no support
    bound for CEQV is proven here for non-abelian algebras, and at desk
    scale (n <= D) agreement with brute force is enforced rather than
    assumed."""
    plan.require("supernilpotent", inst)
    if plan.flags["affine"] is not Tri.YES:
        return _sweep(plan.alg, inst, plan.support_bound, budget)
    bound = 1 if isinstance(inst, CeqvInstance) else plan.affine_csat_bound
    return _sweep(plan.alg, inst, bound, budget, affine=True)


def minimal_support_profile(alg: FiniteAlgebra, csat: CsatInstance,
                            budget: int = BUDGET) -> Optional[dict[int, int]]:
    """For satisfiable instances, the histogram of support sizes (inputs
    off 0) over all solutions, by brute force; None when unsatisfiable."""
    m = len(csat.circuit.input_names)
    _within(alg.size ** m, budget)
    program = BlockProgram(alg, csat.circuit, _pairs(csat))
    hist = Counter()
    if not program.differs((0,) * m):
        hist[0] += 1
    for columns, count in _lex_blocks(alg, m):
        flags = program.mismatches(columns, count)
        p = flags.find(0)
        while p >= 0:
            hist[m - program.assignment(columns, p).count(0)] += 1
            p = flags.find(0, p + 1)
    return dict(hist) or None


# ---------------------------------------------------------------------------
# Affine solver: elimination over the underlying module


class _Coordinates:
    """(A, +) split into cyclic factors by the Smith form S = U R V of its
    presentation: generators e_x, one per element, and the relations R,
    e_x + e_g - e_{x+g} for every x and every g of a generating set (at most
    log2 |A| elements; they force e_{x+y} = e_x + e_y for all x, y).  The
    factors |S[i][i]| > 1 are the orders, which need not be prime powers; x
    has the coordinates V[x][i] mod |S[i][i]|, and basis[i] is the element
    whose coordinates are the i-th unit vector."""

    def __init__(self, group: AbelianGroup):
        plus, zero = group.plus, group.zero
        n = len(plus)
        gens, span = [], {zero}
        for g in range(n):      # each g outside the subgroup so far enlarges it
            if g not in span:
                gens.append(g)
                frontier = list(span)
                while frontier:
                    y = plus[frontier.pop()][g]
                    if y not in span:
                        span.add(y)
                        frontier.append(y)
        _, s, v = _smith_diagonalize([[(z == x) + (z == g) - (z == plus[x][g]) for z in range(n)]
                                      for x in range(n) for g in gens or [zero]])
        factors = [(i, abs(s[i][i])) for i in range(n) if abs(s[i][i]) != 1]
        self.orders = [o for _, o in factors]
        self.coords = {x: tuple(v[x][i] % o for i, o in factors) for x in range(n)}
        self.uncoords = {c: x for x, c in self.coords.items()}
        if len(self.uncoords) != n or math.prod(self.orders) != n:
            raise AssertionError("coordinates are not a bijection")
        self.basis = [self.uncoords[tuple(int(i == j) for i in range(len(factors)))]
                      for j in range(len(factors))]


def _smith_diagonalize(a: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix: returns (U, S, V) with S = U * A * V
    diagonal and U, V unimodular.  Textbook pivot-and-reduce; matrices here
    are tiny so no effort is spent on coefficient growth."""
    m = len(a)
    n = len(a[0]) if a else 0
    s = [row[:] for row in a]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < best):
                    best = abs(s[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        s[t], s[pi] = s[pi], s[t]
        u[t], u[pi] = u[pi], u[t]
        for row in s:
            row[t], row[pj] = row[pj], row[t]
        for row in v:
            row[t], row[pj] = row[pj], row[t]
        while True:
            changed = False
            for i in range(m):
                if i == t or s[i][t] == 0:
                    continue
                q = s[i][t] // s[t][t]
                s[i] = [x - q * y for x, y in zip(s[i], s[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if s[i][t] != 0:
                    s[t], s[i] = s[i], s[t]
                    u[t], u[i] = u[i], u[t]
                    changed = True
            for j in range(n):
                if j == t or s[t][j] == 0:
                    continue
                q = s[t][j] // s[t][t]
                for row in s:
                    row[j] -= q * row[t]
                for row in v:
                    row[j] -= q * row[t]
                if s[t][j] != 0:
                    for row in s:
                        row[t], row[j] = row[j], row[t]
                    for row in v:
                        row[t], row[j] = row[j], row[t]
                    changed = True
            if not changed:
                break
        t += 1
    return u, s, v


def _solve_integer(rows: list[list[int]], rhs: list[int], moduli: list[int]) -> Optional[list[int]]:
    """Integers y with rows[i] * y = rhs[i] (mod moduli[i]) for every i, or
    None when there are none.  A slack column per row carries its modulus,
    so the congruences become one integer system M z = rhs with
    M = [rows | diag(moduli)], solved by one Smith form S = U M V: S w =
    U rhs, z = V w, and y is z without its slack entries.  The slack
    columns give M full row rank, so every S[i][i] is nonzero, and the
    system is solvable iff each divides its entry of U rhs."""
    m = len(rows)
    u, s, v = _smith_diagonalize([row + [q * (i == k) for k in range(m)]
                                  for i, (row, q) in enumerate(zip(rows, moduli))])
    w = []
    for i in range(m):
        c = sum(x * b for x, b in zip(u[i], rhs))
        if c % s[i][i]:
            return None
        w.append(c // s[i][i])
    return [sum(x * y for x, y in zip(v[j], w)) for j in range(len(v) - m)]


def _affine_form(alg: FiniteAlgebra, group: AbelianGroup, circ: Circuit, output: int,
                 names: list[str], budget: int) -> tuple[int, list[list[int]]]:
    """The output as c + t_1(x_1) + ... + t_n(x_n) over (A, +): the constant
    c, read at the all-zero point, and the coefficient tables t_i in names
    order, read at the n(|A| - 1) points with one input off zero.  Then
    every one of the |A|^n points is checked against the form and every t_i
    for additivity, raising AssertionError at the first failure, which the
    plan's module structure rules out: every basic operation is affine over
    (A, +), so every output is.  BudgetExceeded, before anything runs, when
    those points exceed budget."""
    _within(alg.size ** len(names), budget)
    run = compile_circuit(alg, circ.with_outputs([output]))
    zero = [group.zero] * len(names)
    c = run(zero)[0]
    tables = []
    for i in range(len(names)):
        tab = [group.zero] * alg.size
        for a in range(alg.size):
            if a != group.zero:
                tab[a] = group.sub(run(zero[:i] + [a] + zero[i + 1:])[0], c)
        tables.append(tab)
    for values in itertools.product(range(alg.size), repeat=len(names)):
        acc = c
        for tab, v in zip(tables, values):
            acc = group.add(acc, tab[v])
        if acc != run(values)[0]:
            asg = dict(zip(names, values))
            raise AssertionError(f"output g{output} is not affine at {asg}")
    for nm, tab in zip(names, tables):
        for x in range(alg.size):
            for y in range(alg.size):
                if tab[group.plus[x][y]] != group.add(tab[x], tab[y]):
                    raise AssertionError(f"coefficient of {nm} is not additive")
    return c, tables


def solve_affine(plan: Plan, inst: Instance, budget: int = BUDGET) -> SolveResult:
    """Read and check the affine form of both sides of every equation, and
    solve the linear system over the cyclic factors of (A, +), which the
    Smith form of its presentation splits off and which need not be prime
    powers, as one system over the integers.  The form checks verify, as
    the witness check does: over an affine algebra every output is affine,
    so a failed check raises AssertionError and there is no fallback."""
    plan.require("affine", inst)
    alg, circ, group = plan.alg, inst.circuit, plan.group
    equations = _pairs(inst)
    names = sorted(circ.input_names)
    forms = {out: _affine_form(alg, group, circ, out, names, budget)
             for out in dict.fromkeys(out for pair in equations for out in pair)}
    axes = plan.coordinates

    # the unknowns are the coordinates y[i * r + j] of input i along
    # basis[j]; an equation g = h reads t(x) = c_h - c_g with t = t_g - t_h,
    # and its k-th coordinate is sum_j y[i * r + j] * t(basis[j])_k, as t
    # is additive, modulo orders[k]
    orders, coords, r = axes.orders, axes.coords, len(axes.orders)
    rows, rhs, moduli = [], [], []
    for g, h in equations:
        (cg, tg), (ch, th) = forms[g], forms[h]
        images = [coords[group.sub(eg[b], eh[b])] for eg, eh in zip(tg, th) for b in axes.basis]
        target = coords[group.sub(ch, cg)]
        for k, q in enumerate(orders):
            rows.append([image[k] for image in images])
            rhs.append(target[k])
            moduli.append(q)
    y = _solve_integer(rows, rhs, moduli) if rows else [0] * (len(names) * r)
    if y is None:
        return SolveResult("unsat", None, "affine", 0)
    witness = {nm: axes.uncoords[tuple(y[i * r + j] % q for j, q in enumerate(orders))]
               for i, nm in enumerate(names)}
    return _result(alg, inst, "sat", witness, "affine", 0, pairs=equations)


# ---------------------------------------------------------------------------
# Per-algebra plan and dispatcher


@dataclass
class _Split:
    """A = A/alpha1 x A/alpha2 along a nontrivial factor pair."""

    pair: FactorPair
    left: "Plan"                          # plan of A/alpha1
    right: "Plan"                         # plan of A/alpha2
    element: dict[tuple[int, int], int]   # (class mod alpha1, class mod alpha2) -> element


# The hypothesis of each fast route: the predicate that must say YES, the
# error raised when it does not, what the predicate asserts, and the
# instance kinds the route decides.
HYPOTHESES: dict[str, tuple[Callable[..., Tri], type[Exception], str, tuple[type, ...]]] = {
    "usp": (lambda alg: is_dl_like(alg)[0], NotDlLike,
            "a verified subdirect product of lattice-like algebras", (CsatInstance, McsatInstance)),
    "supernilpotent": (is_supernilpotent, NotSupernilpotent, "verified supernilpotent",
                       (CsatInstance, CeqvInstance)),
    "affine": (is_affine, NotAffine, "verified affine",
               (CsatInstance, McsatInstance, ScsatInstance)),
}
SOLVERS = ("brute", *HYPOTHESES)     # the routes a caller may name


class Plan:
    """What the solvers need to know about one algebra: the flag of each
    fast route's hypothesis, the route for each problem kind, and the
    per-algebra facts those routes use.  Every field is computed on first
    use, so a forced brute-force route decides no hypothesis; plan_for keeps
    one plan per algebra name and content in the per-algebra store."""

    def __init__(self, alg: FiniteAlgebra):
        self.alg = alg

    @cached_property
    def flags(self) -> dict[str, Tri]:
        """Each fast route's hypothesis, as its predicate decides it."""
        return {route: hypothesis[0](self.alg) for route, hypothesis in HYPOTHESES.items()}

    @cached_property
    def routes(self) -> dict[type, str]:
        """Route for each instance type: the first route of HYPOTHESES that
        decides the type and whose flag is YES, otherwise per-factor solves
        or brute force.  So DL-like CSAT/MCSAT go to the diagonal,
        supernilpotent CSAT/CEQV to the support sweep of the outputs (the
        flag needs a Malcev term, the hypothesis of the sweep's theorem),
        and affine MCSAT/SCSAT to elimination; an affine algebra is
        supernilpotent, so its CSAT instances sweep."""
        other = "brute" if self.split is None else "product"
        yes = [(route, kinds) for route, (_, _, _, kinds) in HYPOTHESES.items()
               if self.flags[route] is Tri.YES]
        return {kind: next((route for route, kinds in yes if kind in kinds), other)
                for kind in (CsatInstance, McsatInstance, CeqvInstance, ScsatInstance)}

    def require(self, route: str, inst: Instance) -> None:
        """Raise UnsupportedKind unless the fast route decides inst's kind, and
        the route's error unless its predicate says YES to its hypothesis."""
        _, error, claim, kinds = HYPOTHESES[route]
        if not isinstance(inst, kinds):
            raise UnsupportedKind(f"the {route} route does not decide {type(inst).__name__}")
        if self.flags[route] is not Tri.YES:
            raise error(f"{self.alg.name} is not {claim}")

    @cached_property
    def support_bound(self) -> int:
        """The support sweep's bound D, with the nilpotency class as degree
        bound."""
        return ramsey_support_bound(max(nilpotency_class(self.alg) or 1, 1), self.alg.size)

    @cached_property
    def affine_csat_bound(self) -> int:
        """The support sweep's proven bound for CSAT over an affine algebra:
        the composition length of (A, +), a group of order |A|, which is the
        number of prime factors of |A| counted with multiplicity, so the most
        steps a strictly increasing chain of its subgroups can take."""
        return len(prime_factors(self.alg.size))

    @cached_property
    def group(self) -> AbelianGroup:
        """(A, +) with x + y = d(x, 0, y) for the Malcev term d, from the
        algebra's module structure; NotMalcev without a Malcev term.  The
        affine route reads it under a YES affine flag, so a failed module
        check is a contradiction, raised as AssertionError."""
        module = module_structure(self.alg)
        if not module.abelian:
            raise AssertionError(f"{self.alg.name} is flagged affine, but {module.failure}")
        assert module.group is not None
        return module.group

    @cached_property
    def coordinates(self) -> _Coordinates:
        """The cyclic factors of group, built when the affine solve first
        asks for them."""
        return _Coordinates(self.group)

    @cached_property
    def split(self) -> Optional[_Split]:
        """The first nontrivial factor pair, with the plans of its quotients."""
        fp = nontrivial_factor_pair(self.alg)
        if fp is None:
            return None
        return _Split(fp, plan_for(fp.left), plan_for(fp.right),
                      {pair: x for x, pair in enumerate(fp.iso)})


def plan_for(alg: FiniteAlgebra) -> Plan:
    """The plan of alg, from the per-algebra store.  The key holds the
    name, so a renamed twin's plan names it in its errors; the predicates
    behind its flags are stored per content, so that plan costs little."""
    return stored(alg, ("plan", alg.name), lambda: Plan(alg))


def _project(inst: Instance, theta: Partition) -> Instance:
    """The instance over A/theta: each constant becomes its class."""
    c = inst.circuit
    gates = tuple(const_gate(theta.class_of(g.value)) if g.kind == "const" else g
                  for g in c.gates)
    return replace(inst, circuit=Circuit(gates, c.outputs, c.algebra_name))


def dispatch(alg: FiniteAlgebra, inst: Instance, budget: int = BUDGET,
             solver: Optional[str] = None) -> SolveResult:
    """Look up the algebra's plan (hypothesis flags and per-algebra facts,
    computed once) and run the route it gives for the instance's kind, or
    the route named by solver (one of SOLVERS), whose hypothesis is then
    required of the plan."""
    if solver is not None and solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    return _run(plan_for(alg), inst, budget, solver)


def _run(plan: Plan, inst: Instance, budget: int = BUDGET,
         route: Optional[str] = None) -> SolveResult:
    """Run route (by default the plan's) on inst.  Each solver is looked up
    by its module-level name at the call, so a rebinding of that name, as by
    a tracer, sees the call."""
    route = route or plan.routes[type(inst)]
    if route == "usp":
        return solve_usp(plan, inst)
    if route == "supernilpotent":
        return solve_supernilpotent(plan, inst, budget)
    if route == "affine":
        return solve_affine(plan, inst, budget)
    if route == "product":
        return _solve_split(plan, inst, budget)
    return solve_bruteforce(plan.alg, inst, budget)


def _solve_split(plan: Plan, inst: Instance, budget: int = BUDGET) -> SolveResult:
    """Solve the projections on both factors by their own routes and
    combine the answers; witnesses are glued through the element map.  The
    answer is experimental when either factor's is."""
    split, alg = plan.split, plan.alg
    fp = split.pair
    r1 = _run(split.left, _project(inst, fp.alpha1), budget)
    r2 = _run(split.right, _project(inst, fp.alpha2), budget)
    solver = f"product({r1.solver_used},{r2.solver_used})"
    tried = r1.assignments_tried + r2.assignments_tried
    if isinstance(inst, CeqvInstance):
        if r1.answer == "equiv" and r2.answer == "equiv":
            return SolveResult("equiv", None, solver, tried)
        # the outputs already differ in one factor, so any class works in
        # the other; take the least element
        side, bad = (0, r1) if r1.answer == "nequiv" else (1, r2)
        witness = {nm: min(x for pair, x in split.element.items() if pair[side] == v)
                   for nm, v in bad.witness.items()}
        return _result(alg, inst, "nequiv", witness, solver, tried)
    if r1.answer == "sat" and r2.answer == "sat":
        witness = {nm: split.element[(v, r2.witness[nm])] for nm, v in r1.witness.items()}
        return _result(alg, inst, "sat", witness, solver, tried)
    return SolveResult("unsat", None, solver, tried)
