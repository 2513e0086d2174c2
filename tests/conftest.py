import collections
import contextlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mvcirc import algebra
from mvcirc.algebra import Const, FactStore, FiniteAlgebra, Operation, Var, direct_product
from mvcirc.circuit import CircuitBuilder, ScsatInstance
from mvcirc.errors import ElementOutOfRange, UnboundVariable, UnknownOp, UntypedLattice
from mvcirc.partition import Partition
from mvcirc.zoo import get


@pytest.fixture(scope="session")
def z2():
    return get("Z2")


@pytest.fixture(scope="session")
def z3():
    return get("Z3")


@pytest.fixture(scope="session")
def z4():
    return get("Z4")


@pytest.fixture(scope="session")
def z6():
    return get("Z6")


@pytest.fixture(scope="session")
def z2xz2():
    return get("Z2xZ2")


@pytest.fixture(scope="session")
def s3():
    return get("S3")


@pytest.fixture(scope="session")
def lat2():
    return get("2lattice")


@pytest.fixture(scope="session")
def semi2():
    return get("2semilattice")


@pytest.fixture(scope="session")
def bool2():
    return get("2boolean")


@pytest.fixture(scope="session")
def z4ring():
    return get("Z4ring")


@pytest.fixture(scope="session")
def majority():
    return get("majority")


@pytest.fixture(scope="session")
def z2xl2():
    return get("Z2xL2")


@pytest.fixture(scope="session")
def trivial():
    return get("trivial")


_SHARED_STORES = collections.defaultdict(FactStore)    # cap -> its shared store


def run_optimised(source):
    """Run source in a fresh `python -O`, which drops assert statements,
    with the package on its path; the finished process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-O", "-c", source],
                          capture_output=True, text=True, env=env)


@contextlib.contextmanager
def clone_cap(cap, shared=False):
    """Close every clone under cap tables, on a fresh fact store or, with
    shared, on the one store kept for that cap, so that property tests whose
    examples repeat algebras find their facts again; both are restored on
    exit.  Facts do not record the cap they were found under, so one store
    must never see two caps."""
    saved = algebra.CLONE_CAP, algebra.STORE
    algebra.CLONE_CAP, algebra.STORE = cap, _SHARED_STORES[cap] if shared else FactStore()
    try:
        yield
    finally:
        algebra.CLONE_CAP, algebra.STORE = saved


def all_partitions(n):
    """Every partition of {0..n-1}: independent oracle for lattice tests."""
    if n == 0:
        yield Partition(())
        return
    for p in all_partitions(n - 1):
        k = p.num_classes
        for c in range(k + 1):
            yield Partition.from_ids(p.ids + (c,))


def _random_op(rng, name, size, arity):
    return Operation(name, arity, tuple(rng.randrange(size) for _ in range(size ** arity)))


def _edge_algebras():
    rng = random.Random(5)
    return [
        get("Z6"), get("majority"), get("2boolean"), get("Z4ring"), get("trivial"),
        FiniteAlgebra("one", 1, (Operation("c", 0, (0,)), Operation("f", 2, (0,)))),
        FiniteAlgebra("N3", 3, (Operation("c", 0, (2,)), _random_op(rng, "f", 3, 2))),
        # 17^2 and 7^3 exceed 256: two-byte digits in the block kernel
        FiniteAlgebra("W17", 17, (_random_op(rng, "f", 17, 2), _random_op(rng, "g", 17, 1))),
        FiniteAlgebra("T7", 7, (_random_op(rng, "t", 7, 3), Operation("c", 0, (6,)))),
    ]


# The block kernel's edge cases: one element (with and without ops),
# nullary ops, and tables too wide for one-byte digits.
EDGE_ALGEBRAS = _edge_algebras()


def random_edge_circuit(alg, rng, n_inputs, n_gates, n_outputs):
    """A random circuit with inputs first, then constants and gates of every
    op, nullary ones included; zero inputs are allowed."""
    b = CircuitBuilder(alg.name)
    for i in range(n_inputs):
        b.input(f"x{i}")
    while len(b.gates) < n_inputs + n_gates:
        ops = [op for op in alg.ops if op.arity == 0 or b.gates]
        if not ops or rng.random() < 0.15:
            b.const(rng.randrange(alg.size))
            continue
        op = rng.choice(ops)
        b.op(op.name, *(rng.randrange(len(b.gates)) for _ in range(op.arity)))
    return b.build([rng.randrange(len(b.gates)) for _ in range(n_outputs)])


def random_system(alg, rng, max_eq=3, max_vars=4):
    """A random SCSAT system: up to max_vars inputs, gates of the non-nullary
    ops, two constants and up to max_eq equations between any gates."""
    nv = rng.randint(1, max_vars)
    ne = rng.randint(1, max_eq)
    b = CircuitBuilder(alg.name)
    for i in range(nv):
        b.input(f"x{i}")
    usable = [op for op in alg.ops if op.arity >= 1]
    while len(b.gates) < nv + 6:
        op = usable[rng.randrange(len(usable))]
        args = [rng.randrange(len(b.gates)) for _ in range(op.arity)]
        b.op(op.name, *args)
    for _ in range(2):
        b.const(rng.randrange(alg.size))
    eqs = tuple(
        (rng.randrange(len(b.gates)), rng.randrange(len(b.gates))) for _ in range(ne)
    )
    return ScsatInstance(b.build([0]), eqs)


def one(alg):
    return Partition.one(alg.size)


def zero(alg):
    return Partition.zero(alg.size)


def cover_pairs(lat):
    """The covers of a congruence lattice as (lower, upper) partitions."""
    return [(lat.congruences[a], lat.congruences[b]) for a, b in lat.covers]


def mod_congruence(n, m):
    """x ~ y iff x = y (mod m), over universe 0..n-1."""
    return Partition.from_ids(tuple(x % m for x in range(n)))


def e2_power(k):
    """E2^k, the elementary abelian group of order 2^k, as the k-th power of Z2."""
    alg = get("Z2")
    for _ in range(k - 1):
        alg = direct_product(alg, get("Z2"))
    return alg.rename(f"E2^{k}")


# ---------------------------------------------------------------------------
# The materialized pair algebra: the reference for the commutator kernel.


def pair_algebra(alg, alpha):
    """The subalgebra of A^2 with universe {(x,y) : x alpha y} (lex order),
    with its pairs."""
    n = alg.size
    pairs = [(x, y) for x in range(n) for y in range(n) if alpha.same(x, y)]
    code = [0] * (n * n)                 # x * n + y -> index of the pair (x, y)
    for i, (x, y) in enumerate(pairs):
        code[x * n + y] = i
    # for each arity r, the table indices of the x- and y-components of
    # every r-tuple of pairs, in product order
    xs, ys = [[0]], [[0]]
    for _ in range(max((op.arity for op in alg.ops), default=0)):
        xs.append([i * n + x for i in xs[-1] for x, _ in pairs])
        ys.append([i * n + y for i in ys[-1] for _, y in pairs])
    ops = []
    for op in alg.ops:
        table, r = op.table, op.arity
        ops.append(Operation(op.name, r, tuple(
            code[table[i] * n + table[j]] for i, j in zip(xs[r], ys[r]))))
    return FiniteAlgebra(f"{alg.name}(pairs)", len(pairs), tuple(ops)), pairs


def pair_algebra_commutator(alg, alpha, beta):
    """[alpha, beta] through the materialized pair algebra A(alpha): the
    congruence D of A(alpha) generated by {((u,u),(v,v)) : u beta v}, and
    the congruence of A generated by {(x,y) : (x,y) D (y,y)}."""
    from mvcirc.congruence import congruence_from_pairs

    sub, pairs = pair_algebra(alg, alpha)
    idx = {p: i for i, p in enumerate(pairs)}
    n = alg.size
    gens = [(idx[(u, u)], idx[(v, v)])
            for u in range(n) for v in range(u + 1, n) if beta.same(u, v)]
    delta = congruence_from_pairs(sub, gens)
    return congruence_from_pairs(alg, [(x, y) for (x, y) in pairs
                                       if x != y and delta.same(idx[(x, y)], idx[(y, y)])])


# ---------------------------------------------------------------------------
# Partitions by union-find: the reference for Partition.from_pairs, which
# merges classes through partition.Classes.


def union_find_partition(n, pairs):
    """The partition of {0..n-1} that pairs generate, by union-find with
    path halving."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    return Partition.from_ids([find(i) for i in range(n)])


# ---------------------------------------------------------------------------
# Con(A) by joining partitions: the reference for congruence_lattice, which
# relabels class ids along each principal's spanning edges and orders the
# congruences by the principals under each.


def partition_join(a, b):
    """Least upper bound in the partition lattice (transitive closure of the union)."""
    if a.n != b.n:
        raise ValueError("partitions over different universes")
    return Partition.from_pairs(a.n, ((cls[0], x) for p in (a, b)
                                      for cls in p.classes() for x in cls[1:]))


def join_closure_lattice(alg):
    """(congruences, below, covers) of Con(alg), as congruence_lattice
    gives them: the worklist join closure of the principal congruences,
    sorted by class count, most first, then by ids, and ordered by one
    Partition.leq per index pair."""
    from mvcirc.congruence import congruence_from_pairs

    n = alg.size
    found = {Partition.zero(n): None}
    principals = []
    for a in range(n):
        for b in range(a + 1, n):
            p = congruence_from_pairs(alg, [(a, b)])
            if p not in found:
                found[p] = None
                principals.append(p)
    worklist = list(found)
    while worklist:
        cur = worklist.pop()
        for p in principals:
            j = partition_join(cur, p)
            if j not in found:
                found[j] = None
                worklist.append(j)
    congruences = sorted(found, key=lambda p: (-p.num_classes, p.ids))
    below = [sum(1 << i for i in range(j) if congruences[i].leq(theta)) | 1 << j
             for j, theta in enumerate(congruences)]
    above = [sum(1 << j for j, down in enumerate(below) if down >> i & 1)
             for i in range(len(below))]
    covers = [(i, j) for i, up in enumerate(above) for j, down in enumerate(below)
              if i < j and up & down == 1 << i | 1 << j]
    return congruences, below, covers


# ---------------------------------------------------------------------------
# Terms evaluated one point at a time: the reference for term_values, which
# evaluates each node of a term once over all its points.


def eval_term_at(alg, t, asg):
    """t's value under the binding asg, by recursion over the term tree."""
    if isinstance(t, Var):
        if t.index >= len(asg):
            raise UnboundVariable(f"variable x{t.index} not bound")
        v = asg[t.index]
    elif isinstance(t, Const):
        v = t.value
    else:
        op = alg.op(t.op)
        if len(t.args) != op.arity:
            raise UnknownOp(f"op {t.op} expects {op.arity} arguments, got {len(t.args)}")
        return op.apply([eval_term_at(alg, a, asg) for a in t.args], alg.size)
    if not 0 <= v < alg.size:
        raise ElementOutOfRange(f"element {v} out of range for size {alg.size}")
    return v


# ---------------------------------------------------------------------------
# The radical by comparing partitions: the reference for structure.radical,
# which reads the lattice's order masks instead.


def partition_radical(alg, typed, i):
    """Largest congruence rho with every cover pair inside [0, rho] labeled
    i, with one Partition.leq per (congruence, cover)."""
    lat = typed.lattice
    candidates = []
    for rho in lat.congruences:
        ok = True
        for (a, b), label in typed.labels.items():
            if lat.congruences[b].leq(rho):
                if label is None:
                    raise UntypedLattice(f"cover below {rho} has unknown label")
                if label != i:
                    ok = False
                    break
        if ok:
            candidates.append(rho)
    result = Partition.zero(alg.size)
    for c in candidates:
        result = partition_join(result, c)
    # re-scan: the join of qualifying congruences must itself qualify
    for (a, b), label in typed.labels.items():
        if lat.congruences[b].leq(result) and label != i:
            raise UntypedLattice(f"interval [0,{result}] is not pure type {i}")
    return result


# ---------------------------------------------------------------------------
# Exhaustive small-circuit enumeration over the majority fixture.
#
# Independent of the package: the fixture is a subalgebra of ({0,1}, maj)^3,
# so a polynomial acts coordinatewise and a gate value is a triple of 8-bit
# masks (one monotone Boolean function of the three inputs per coordinate).
# States are frozensets of gate tables; every table in a reachable state of
# size <= budget is the output of some circuit with that many gates.

_MAJ_ELEMS = [(1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def _maj_mask_triple_inputs():
    # input gate for variable v: coordinate i sees bit v of the index (x,y,z)
    masks = []
    for v in range(3):
        shift = 2 - v
        mask = 0
        for idx in range(8):
            if (idx >> shift) & 1:
                mask |= 1 << idx
        masks.append((mask, mask, mask))
    return masks


def _maj_mask_const(elem):
    return tuple(0xFF if bit else 0 for bit in elem)


def _maj_apply(a, b, c):
    return tuple((x & y) | (y & z) | (z & x) for x, y, z in zip(a, b, c))


def majority_small_circuit_tables(max_gates=6):
    """Every gate function reachable by a circuit with at most max_gates
    gates (inputs and constants count) over the majority fixture."""
    base = _maj_mask_triple_inputs() + [_maj_mask_const(e) for e in _MAJ_ELEMS]
    seen_states = set()
    tables = set()
    stack = [frozenset()]
    seen_states.add(frozenset())
    while stack:
        state = stack.pop()
        tables.update(state)
        if len(state) >= max_gates:
            continue
        members = sorted(state)
        candidates = {t for t in base if t not in state}
        for a in members:
            for b in members:
                for c in members:
                    t = _maj_apply(a, b, c)
                    if t not in state:
                        candidates.add(t)
        for t in candidates:
            nxt = state | {t}
            if nxt not in seen_states:
                seen_states.add(nxt)
                stack.append(nxt)
    return tables


def maj_table_eval(table, x, y, z):
    """Evaluate a mask-triple table at elements of the majority fixture
    (given as indices into the 4-element universe)."""
    ex, ey, ez = _MAJ_ELEMS[x], _MAJ_ELEMS[y], _MAJ_ELEMS[z]
    out = []
    for i in range(3):
        idx = (ex[i] << 2) | (ey[i] << 1) | ez[i]
        out.append((table[i] >> idx) & 1)
    return _MAJ_ELEMS.index(tuple(out))


def gumm_chain_exists(tables, n, points):
    """Whether a directed Gumm chain d_1..d_k, Q lies among tables, each
    given by its values on the list points (which holds every point with
    at most two distinct coordinates): breadth-first search over the whole
    set, the way the Gumm search decided before it stopped at the first
    chain.  Reference for the searches' tests."""
    at = {p: i for i, p in enumerate(points)}

    def cut(tab, point):
        return tuple(tab[at[point(x, y)]] for x in range(n) for y in range(n))

    sel_x = tuple(x for x in range(n) for _ in range(n))
    sel_y = tuple(y for _ in range(n) for y in range(n))
    nodes = [t for t in tables if cut(t, lambda x, y: (x, y, x)) == sel_x]
    ends = {cut(t, lambda x, y: (x, y, y)) for t in tables
            if cut(t, lambda x, y: (x, x, y)) == sel_y}
    frontier = [t for t in nodes if cut(t, lambda x, y: (x, x, y)) == sel_x]
    seen = set(frontier)
    while frontier:
        if any(cut(t, lambda x, y: (x, y, y)) in ends for t in frontier):
            return True
        steps = {cut(t, lambda x, y: (x, y, y)) for t in frontier}
        frontier = [u for u in nodes if u not in seen and cut(u, lambda x, y: (x, x, y)) in steps]
        seen.update(frontier)
    return False
