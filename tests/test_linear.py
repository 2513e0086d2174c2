"""White-box checks of the modular linear-system core behind the affine
solver: Smith diagonalization must be exact and the solver complete
(never answering None when an assignment exists)."""

import itertools
import random

import pytest

from mvcirc.algebra import FiniteAlgebra, find_malcev_term, op_from_fn
from mvcirc.solvers import _AbelianGroup, _smith_diagonalize, _solve_linear_mod


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


@pytest.mark.parametrize("seed", range(40))
def test_smith_diagonalization_identity(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    u, s, v = _smith_diagonalize(a)
    # S = U * A * V exactly over the integers
    assert _matmul(_matmul(u, a), v) == s
    # S diagonal
    for i in range(m):
        for j in range(n):
            if i != j:
                assert s[i][j] == 0
    # U, V unimodular: integer inverses exist iff det = +-1
    assert abs(_det(u)) == 1
    assert abs(_det(v)) == 1


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


@pytest.mark.parametrize("mod", [2, 3, 4, 6, 8, 9, 12])
def test_linear_solver_sound_and_complete(mod):
    rng = random.Random(mod * 101)
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randrange(mod) for _ in range(m)]
        got = _solve_linear_mod(rows, rhs, mod)
        # brute-force ground truth
        solvable = any(
            all(sum(r * x for r, x in zip(row, xs)) % mod == b % mod
                for row, b in zip(rows, rhs))
            for xs in itertools.product(range(mod), repeat=n)
        )
        if solvable:
            assert got is not None, (rows, rhs, mod)
            for row, b in zip(rows, rhs):
                assert sum(r * x for r, x in zip(row, got)) % mod == b % mod
        else:
            assert got is None


def test_abelian_group_basis_on_zoo_groups():
    from mvcirc.zoo import get

    for name in ("Z2", "Z3", "Z4", "Z6", "Z2xZ2"):
        alg = get(name)
        d = find_malcev_term(alg).value[0]
        g = _AbelianGroup(alg, d, 0)
        prod = 1
        for o in g.orders:
            prod *= o
        assert prod == alg.size
        assert len(g.coords) == alg.size


def test_abelian_group_basis_z4_x_z2():
    # a non-invariant-factor-friendly case: Z4 x Z2 needs a (4, 2) basis
    def add(x, y):
        return ((x // 2 + y // 2) % 4) * 2 + ((x % 2) ^ (y % 2))

    alg = FiniteAlgebra(
        "Z4xZ2", 8,
        (op_from_fn("mul", 2, 8, add),
         op_from_fn("inv", 1, 8, lambda x: ((-(x // 2)) % 4) * 2 + (x % 2))),
    )
    d = find_malcev_term(alg).value[0]
    g = _AbelianGroup(alg, d, 0)
    assert sorted(g.orders) == [2, 4]
    assert len(g.coords) == 8


def test_affine_solver_on_z4_x_z2_against_brute():
    import random as _r

    from mvcirc.circuit import ScsatInstance, CircuitBuilder
    from mvcirc.solvers import plan_for, solve_affine, solve_bruteforce

    def add(x, y):
        return ((x // 2 + y // 2) % 4) * 2 + ((x % 2) ^ (y % 2))

    alg = FiniteAlgebra(
        "Z4xZ2", 8,
        (op_from_fn("mul", 2, 8, add),
         op_from_fn("inv", 1, 8, lambda x: ((-(x // 2)) % 4) * 2 + (x % 2))),
    )
    rng = _r.Random(55)
    for _ in range(40):
        nv = rng.randint(1, 3)
        b = CircuitBuilder(alg.name)
        for i in range(nv):
            b.input(f"x{i}")
        while len(b.gates) < nv + 5:
            op = alg.ops[rng.randrange(2)]
            args = [rng.randrange(len(b.gates)) for _ in range(op.arity)]
            b.op(op.name, *args)
        b.const(rng.randrange(8))
        eqs = tuple((rng.randrange(len(b.gates)), rng.randrange(len(b.gates)))
                    for _ in range(rng.randint(1, 2)))
        inst = ScsatInstance(b.build([0]), eqs)
        assert solve_affine(plan_for(alg), inst).answer == solve_bruteforce(alg, inst).answer
