"""Built-in algebra fixtures and their golden classification fragments.

Every command accepts zoo:<name> in place of a file path.  The golden
fragments are regression data: `classify` must keep reproducing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .algebra import FiniteAlgebra, direct_product, op_from_fn


def _cyclic_group(name: str, n: int) -> FiniteAlgebra:
    mul = op_from_fn("mul", 2, n, lambda x, y: (x + y) % n)
    inv = op_from_fn("inv", 1, n, lambda x: (-x) % n)
    return FiniteAlgebra(name, n, (mul, inv))


def _z2xz2() -> FiniteAlgebra:
    # elements are pairs (a, b) over Z2, numbered a*2 + b
    def add(x: int, y: int) -> int:
        return ((x // 2) ^ (y // 2)) * 2 + ((x % 2) ^ (y % 2))

    mul = op_from_fn("mul", 2, 4, add)
    inv = op_from_fn("inv", 1, 4, lambda x: x)
    return FiniteAlgebra("Z2xZ2", 4, (mul, inv))


_S3_PERMS = [
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
]


def _s3() -> FiniteAlgebra:
    index = {p: i for i, p in enumerate(_S3_PERMS)}

    def compose(x: int, y: int) -> int:
        px, py = _S3_PERMS[x], _S3_PERMS[y]
        return index[tuple(px[py[i]] for i in range(3))]

    def invert(x: int) -> int:
        p = _S3_PERMS[x]
        q = [0, 0, 0]
        for i in range(3):
            q[p[i]] = i
        return index[tuple(q)]

    mul = op_from_fn("mul", 2, 6, compose)
    inv = op_from_fn("inv", 1, 6, invert)
    return FiniteAlgebra("S3", 6, (mul, inv))


def _z4_nil_ring() -> FiniteAlgebra:
    # the nilpotent ring of order 4: x*y = 2xy mod 4 (all triple products vanish)
    add = op_from_fn("add", 2, 4, lambda x, y: (x + y) % 4)
    neg = op_from_fn("neg", 1, 4, lambda x: (-x) % 4)
    mul = op_from_fn("mul", 2, 4, lambda x, y: (2 * x * y) % 4)
    return FiniteAlgebra("Z4ring", 4, (add, neg, mul))


_MAJ_UNIVERSE = [(1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def _majority_subreduct() -> FiniteAlgebra:
    index = {t: i for i, t in enumerate(_MAJ_UNIVERSE)}

    def maj3(a: int, b: int, c: int) -> int:
        return (a & b) | (b & c) | (c & a)

    def m(x: int, y: int, z: int) -> int:
        tx, ty, tz = _MAJ_UNIVERSE[x], _MAJ_UNIVERSE[y], _MAJ_UNIVERSE[z]
        return index[tuple(maj3(tx[i], ty[i], tz[i]) for i in range(3))]

    return FiniteAlgebra("majority", 4, (op_from_fn("m", 3, 4, m),))


def _two_lattice() -> FiniteAlgebra:
    meet = op_from_fn("meet", 2, 2, lambda x, y: x & y)
    join = op_from_fn("join", 2, 2, lambda x, y: x | y)
    return FiniteAlgebra("2lattice", 2, (meet, join))


def _two_semilattice() -> FiniteAlgebra:
    meet = op_from_fn("meet", 2, 2, lambda x, y: x & y)
    return FiniteAlgebra("2semilattice", 2, (meet,))


def _two_boolean() -> FiniteAlgebra:
    meet = op_from_fn("meet", 2, 2, lambda x, y: x & y)
    join = op_from_fn("join", 2, 2, lambda x, y: x | y)
    neg = op_from_fn("not", 1, 2, lambda x: 1 - x)
    return FiniteAlgebra("2boolean", 2, (meet, join, neg))


def _z2_times_lattice() -> FiniteAlgebra:
    # common signature (f, g): on Z2 both act as +, on the lattice as meet/join
    z2 = FiniteAlgebra(
        "Z2fg",
        2,
        (op_from_fn("f", 2, 2, lambda x, y: x ^ y), op_from_fn("g", 2, 2, lambda x, y: x ^ y)),
    )
    lat = FiniteAlgebra(
        "L2fg",
        2,
        (op_from_fn("f", 2, 2, lambda x, y: x & y), op_from_fn("g", 2, 2, lambda x, y: x | y)),
    )
    return direct_product(z2, lat, name="Z2xL2")


def _sample_csp_algebra() -> FiniteAlgebra:
    # A[D] for the 2-element structure with the equality relation, built by
    # the reductions module (imported here, at first use).
    from .reductions import RelStructure, build_csp_algebra

    d = RelStructure("D2eq", 2, {"eq": (2, frozenset({(0, 0), (1, 1)}))})
    return build_csp_algebra(d)


@dataclass
class ZooEntry:
    name: str
    build: Callable[[], FiniteAlgebra]
    golden: dict = field(default_factory=dict)

    @cached_property
    def algebra(self) -> FiniteAlgebra:
        return self.build()


_P = "PolyTime"
_NP = "NPComplete-regime"
_CONP = "CoNPComplete-regime"
_UNK = "Unknown"

_ALL_P = {"CSAT": _P, "MCSAT": _P, "SCSAT": _P, "CEQV": _P}
_ALL_UNK = {"CSAT": _UNK, "MCSAT": _UNK, "SCSAT": _UNK, "CEQV": _UNK}


def _entries() -> list[ZooEntry]:
    return [
        ZooEntry("trivial", lambda: FiniteAlgebra("trivial", 1, ()), {"verdicts": _ALL_P}),
        ZooEntry(
            "2lattice",
            _two_lattice,
            {
                "verdicts": {"CSAT": _P, "MCSAT": _P, "SCSAT": _NP, "CEQV": _CONP},
                "flags": {"dl_like": "yes", "nilpotent": False},
            },
        ),
        ZooEntry("2semilattice", _two_semilattice, {"verdicts": _ALL_UNK, "flags": {"cm": "no"}}),
        ZooEntry(
            "2boolean",
            _two_boolean,
            {"verdicts": {"CSAT": _NP, "MCSAT": _NP, "SCSAT": _NP, "CEQV": _CONP}},
        ),
        ZooEntry("Z2", lambda: _cyclic_group("Z2", 2), {"verdicts": _ALL_P}),
        ZooEntry("Z3", lambda: _cyclic_group("Z3", 3), {"verdicts": _ALL_P}),
        ZooEntry("Z4", lambda: _cyclic_group("Z4", 4), {"verdicts": _ALL_P}),
        ZooEntry("Z2xZ2", _z2xz2, {"verdicts": _ALL_P}),
        ZooEntry("Z6", lambda: _cyclic_group("Z6", 6), {"verdicts": _ALL_P}),
        ZooEntry(
            "S3",
            _s3,
            {
                "verdicts": {"CSAT": _NP, "MCSAT": _NP, "SCSAT": _NP, "CEQV": _CONP},
                "flags": {"solvable": True, "nilpotent": False},
            },
        ),
        ZooEntry(
            "Z4ring",
            _z4_nil_ring,
            {
                "verdicts": {"CSAT": _P, "MCSAT": _NP, "SCSAT": _NP, "CEQV": _P},
                "flags": {"nilpotent": True, "supernilpotent": "yes", "abelian": False},
            },
        ),
        ZooEntry(
            "majority",
            _majority_subreduct,
            {
                "verdicts": {"CSAT": _P, "MCSAT": _P, "SCSAT": _NP, "CEQV": _CONP},
                "flags": {"dl_like": "yes", "poly_equiv_to_some_lattice": False},
            },
        ),
        ZooEntry(
            "Z2xL2",
            _z2_times_lattice,
            {
                "verdicts": {"CSAT": _P, "MCSAT": _P, "SCSAT": _NP, "CEQV": _CONP},
                "flags": {"typeset": [2, 4]},
            },
        ),
        ZooEntry("AD2", _sample_csp_algebra, {"verdicts": _ALL_UNK, "flags": {"cm": "no"}}),
    ]


_ZOO: Optional[list[ZooEntry]] = None


def zoo() -> list[ZooEntry]:
    global _ZOO
    if _ZOO is None:
        _ZOO = _entries()
    return _ZOO


def get(name: str) -> FiniteAlgebra:
    for e in zoo():
        if e.name == name:
            return e.algebra
    raise KeyError(f"no zoo algebra named {name!r}")


def load_algebra(source: str) -> FiniteAlgebra:
    """Load from a zoo:<name> URI or from a file path."""
    if source.startswith("zoo:"):
        return get(source[4:])
    from .algebra import parse_algebra

    with open(source, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())
