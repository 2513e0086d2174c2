"""White-box checks of the linear-system core behind the affine solver:
Smith diagonalization must be exact and the integer solver of systems of
congruences complete (never answering None when a solution exists)."""

import itertools
import random

import pytest

from mvcirc.algebra import FiniteAlgebra, find_malcev_term, op_from_fn
from mvcirc.commutator import AbelianGroup
from mvcirc.solvers import _Coordinates, _smith_diagonalize, _solve_integer


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
    # each congruence has its own modulus, a divisor > 1 of mod, so the
    # systems mix moduli (2, 3, 4 and 6 at mod 12) and every solution set is
    # periodic mod mod: enumerating range(mod)^n is the ground truth
    rng = random.Random(mod * 101)
    divisors = [q for q in range(2, mod + 1) if mod % q == 0]
    unsolvable = 0
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        moduli = [rng.choice(divisors) for _ in range(m)]
        rows = [[rng.randrange(q) for _ in range(n)] for q in moduli]
        rhs = [rng.randrange(q) for q in moduli]

        def solves(xs):
            return all(sum(r * x for r, x in zip(row, xs)) % q == b % q
                       for row, b, q in zip(rows, rhs, moduli))

        got = _solve_integer(rows, rhs, moduli)
        if any(solves(xs) for xs in itertools.product(range(mod), repeat=n)):
            assert got is not None and len(got) == n and solves(got), (rows, rhs, moduli)
        else:
            assert got is None, (rows, rhs, moduli)
            unsolvable += 1
    assert unsolvable > 0


def _cyclic_product(m, n):
    """Z_m x Z_n as a group, the pair (a, b) encoded as a * n + b."""
    size = m * n
    return FiniteAlgebra(
        f"Z{m}xZ{n}", size,
        (op_from_fn("mul", 2, size, lambda x, y: (x // n + y // n) % m * n + (x + y) % n),
         op_from_fn("inv", 1, size, lambda x: -(x // n) % m * n + -x % n)),
    )


def _additive_coordinates(alg):
    """The coordinates of the group of alg, after checking that they are a
    bijection onto the product of range(o) over its orders and add
    componentwise."""
    group = AbelianGroup(alg, find_malcev_term(alg).value)
    g = _Coordinates(group)
    assert sorted(g.coords.values()) == list(itertools.product(*map(range, g.orders)))
    for x in range(alg.size):
        for y in range(alg.size):
            want = tuple((a + b) % o for a, b, o in zip(g.coords[x], g.coords[y], g.orders))
            assert g.coords[group.add(x, y)] == want, (alg.name, x, y)
    return g


def test_abelian_group_basis_on_zoo_groups():
    from mvcirc.zoo import get

    for name in ("Z2", "Z3", "Z4", "Z6", "Z2xZ2"):
        _additive_coordinates(get(name))


def test_abelian_group_basis_z4_x_z2():
    # a non-invariant-factor-friendly case: Z4 x Z2 needs a (4, 2) basis
    g = _additive_coordinates(_cyclic_product(4, 2))
    assert sorted(g.orders) == [2, 4]


def test_abelian_group_basis_z4_x_z4():
    g = _additive_coordinates(_cyclic_product(4, 4))
    assert g.orders == [4, 4]


def _affine_agrees_with_brute(alg, seed, count):
    """solve_affine and brute force answer alike on count seeded systems of
    at most 3 inputs over the group alg."""
    from mvcirc.circuit import ScsatInstance, CircuitBuilder
    from mvcirc.solvers import plan_for, solve_affine, solve_bruteforce

    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(1, 3)
        b = CircuitBuilder(alg.name)
        for i in range(nv):
            b.input(f"x{i}")
        while len(b.gates) < nv + 5:
            op = alg.ops[rng.randrange(2)]
            args = [rng.randrange(len(b.gates)) for _ in range(op.arity)]
            b.op(op.name, *args)
        b.const(rng.randrange(alg.size))
        eqs = tuple((rng.randrange(len(b.gates)), rng.randrange(len(b.gates)))
                    for _ in range(rng.randint(1, 2)))
        inst = ScsatInstance(b.build([0]), eqs)
        assert solve_affine(plan_for(alg), inst).answer == solve_bruteforce(alg, inst).answer


def test_affine_solver_on_z4_x_z2_against_brute():
    _affine_agrees_with_brute(_cyclic_product(4, 2), 55, 40)


def test_affine_solver_on_z4_x_z4_against_brute():
    _affine_agrees_with_brute(_cyclic_product(4, 4), 56, 30)
