"""Finite algebras given by operation tables, terms, and bounded clone search.

Operation tables are flat row-major arrays indexed by mixed-radix argument
tuples (last argument varies fastest), which keeps evaluation O(1) and the
closure loops cache-friendly.  Universe elements are always the dense
integers 0..n-1; named elements in input files are renumbered on load.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, KeysView, Optional, Sequence, TypeVar

from .errors import (
    CapExceeded,
    ElementOutOfRange,
    NotACongruence,
    NotMalcev,
    ParseError,
    Tri,
    UnboundVariable,
    parse_int,
    UnknownOp,
)
from .partition import Partition

# Every clone closure keeps at most this many tables (poly_clone_on_points
# reads it at each call); a search whose closure outgrows it is undecided.
CLONE_CAP = 200_000

# Classifying the whole zoo fills 28 entries (quotients included), and
# classifying and dispatching the benchmark's dispatch mix 21; stored
# quotients and DL-likeness answers are facts of existing entries and add
# none.  256 holds either working set with no eviction.
STORE_BOUND = 256


@dataclass(frozen=True)
class Operation:
    name: str
    arity: int
    table: tuple[int, ...]

    def apply(self, args: Sequence[int], size: int) -> int:
        idx = 0
        for a in args:
            idx = idx * size + a
        return self.table[idx]


@dataclass(frozen=True)
class FiniteAlgebra:
    name: str
    size: int
    ops: tuple[Operation, ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("algebra size must be >= 1")
        names = [op.name for op in self.ops]
        if len(set(names)) != len(names):
            raise ValueError("duplicate operation names")
        for op in self.ops:
            if op.arity < 0:
                raise ValueError(f"op {op.name}: negative arity")
            if len(op.table) != self.size ** op.arity:
                raise ValueError(
                    f"op {op.name}: table has {len(op.table)} entries, "
                    f"expected {self.size ** op.arity}"
                )
            for v in op.table:
                if not 0 <= v < self.size:
                    raise ValueError(f"op {op.name}: table entry {v} out of range")

    def op(self, name: str) -> Operation:
        for op in self.ops:
            if op.name == name:
                return op
        raise UnknownOp(f"algebra {self.name} has no operation {name!r}")

    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((op.name, op.arity) for op in self.ops)

    def rename(self, name: str) -> "FiniteAlgebra":
        return FiniteAlgebra(name, self.size, self.ops)

    @cached_property
    def content(self) -> "Content":
        """The key of this algebra's facts in the store, built once per object."""
        return Content((self.size, self.signature(), tuple(op.table for op in self.ops)))


def op_from_fn(name: str, arity: int, size: int, fn: Callable[..., int]) -> Operation:
    table = tuple(fn(*args) for args in itertools.product(range(size), repeat=arity))
    return Operation(name, arity, table)


# ---------------------------------------------------------------------------
# Per-algebra facts

T = TypeVar("T")


class Content:
    """An algebra's content (size, signature, tables) with its hash computed
    once, so that a store lookup neither rebuilds nor rehashes the tables."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: tuple) -> None:
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Content) and self.value == other.value


class _Facts(dict):
    """The facts of one algebra, with the store's clock reading at its
    last use."""

    __slots__ = ("used",)


class FactStore:
    """Least-recently-used map from an algebra's content (size, signature,
    tables) to a dict of facts about it, holding at most STORE_BOUND
    algebras.  A fact whose value depends on more than the content carries
    that in its key, e.g. ("quotient", theta).  A hit hashes the content
    once: recency is a clock reading kept on the entry, and only a miss past
    the bound scans the entries for the least recent one."""

    def __init__(self) -> None:
        self._entries: dict[Content, _Facts] = {}
        self._clock = itertools.count()

    def facts(self, alg: FiniteAlgebra) -> dict:
        entry = self._entries.get(alg.content)
        if entry is None:
            if len(self._entries) >= STORE_BOUND:
                oldest, _ = min(self._entries.items(), key=lambda item: item[1].used)
                del self._entries[oldest]
            entry = self._entries[alg.content] = _Facts()
        entry.used = next(self._clock)
        return entry

    def __len__(self) -> int:
        return len(self._entries)


STORE = FactStore()


_MISSING = object()


def stored(alg: FiniteAlgebra, fact: Hashable, build: Callable[[], T]) -> T:
    """The fact of alg from the store; on a miss, build it and store it."""
    facts = STORE.facts(alg)
    value = facts.get(fact, _MISSING)
    if value is _MISSING:
        value = facts[fact] = build()
    return value


def known(alg: FiniteAlgebra, fact: Hashable) -> object:
    """The fact of alg if the store holds it, else None; builds nothing."""
    return STORE.facts(alg).get(fact)


# ---------------------------------------------------------------------------
# Byte columns
#
# The block kernel (circuit.BlockProgram) and the clone closure hold values
# as columns: one digit per assignment or point, `width` bytes per digit in
# the machine's byte order (an array of that item size).  A k-ary op reads
# its argument columns as integers and combines them digit-wise by Horner,
# acc = acc * |A| + column; no digit carries into the next, because each
# stays below |A|^k <= 256^width.  The op table then maps every digit: one
# bytes.translate at width 1, which holds whenever |A| and each |A|^arity
# are at most 256, and a map over the digits above that.

BLOCK = 4096                    # assignments (or tables) evaluated at once, at most
_ORDER = sys.byteorder
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}   # width -> typecode


@dataclass(frozen=True)
class _OpTables:
    width: int
    # name -> (arity, step, table; 256 bytes at width 1), where step is the
    # tag of the op's step in circuit.BlockProgram: 1 for a nullary op, its
    # one value; 2 for a unary op at width 1, a translate of its argument's
    # bytes; 3 for any other, Horner on its arguments' integers and a map of
    # the digits through its table.  A folded program (see "Block
    # evaluation" in circuit.py) has steps of the same tags over a group's
    # leaves, with the group's composite table: 3 for k >= 2 leaves, 2 for
    # one, 1 for none
    ops: dict[str, tuple[int, int, Sequence[int]]]
    symmetric: frozenset[str]                   # ops of arity >= 2 unchanged by permuting arguments


def _is_symmetric(op: Operation, size: int) -> bool:
    """Whether op has arity >= 2 and its table is unchanged by every
    permutation of its arguments, i.e. by the two that generate them all:
    the rotation f(x1, .., xr) -> f(x2, .., xr, x1) and the swap of the
    last two arguments.  Each permuted table is read off by slicing."""
    t, r = op.table, op.arity
    if r < 2:
        return False
    m, sq = size ** (r - 1), size * size
    chain = itertools.chain.from_iterable
    if tuple(chain(t[j::m] for j in range(m))) != t:
        return False
    return r == 2 or tuple(chain(t[b + y:b + sq:size] for b in range(0, len(t), sq)
                                 for y in range(size))) == t


def _op_tables(alg: FiniteAlgebra) -> _OpTables:
    """The algebra's op tables in the column form, each with its block
    step, built once per algebra."""
    def build() -> _OpTables:
        top = max([alg.size] + [alg.size ** op.arity for op in alg.ops])
        width = min(w for w in _TYPECODES if top <= 256 ** w)
        return _OpTables(width, {
            op.name: (op.arity, 1 if op.arity == 0 else 2 if op.arity == 1 and width == 1 else 3,
                      bytes(op.table).ljust(256, b"\0") if width == 1 else op.table)
            for op in alg.ops}, frozenset(op.name for op in alg.ops if _is_symmetric(op, alg.size)))

    return stored(alg, "block_tables", build)


def pack_column(width: int, values: Iterable[int]) -> bytes:
    """A column holding values."""
    if width == 1:
        return bytes(values)
    return array(_TYPECODES[width], values).tobytes()


def column_digits(width: int, column: bytes) -> Sequence[int]:
    """The digits of a column."""
    return column if width == 1 else memoryview(column).cast(_TYPECODES[width])


def column_op(size: int, width: int, table: Sequence[int], columns: Sequence[bytes],
              args: Sequence[int], length: int) -> bytes:
    """An op (its table in _OpTables form) applied digit-wise to the
    argument columns columns[a] for a in args, each `length` bytes long."""
    if width == 1 and len(args) == 1:
        return columns[args[0]].translate(table)
    frm = int.from_bytes
    acc = frm(columns[args[0]], _ORDER)
    for a in args[1:]:
        acc = acc * size + frm(columns[a], _ORDER)
    return map_digits(width, table, acc.to_bytes(length, _ORDER))


def map_digits(width: int, table: Sequence[int], column: bytes) -> bytes:
    """The column whose digits are table's entries at column's digits."""
    if width == 1:
        return column.translate(table)
    return pack_column(width, map(table.__getitem__, column_digits(width, column)))


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    index: int


@dataclass(frozen=True)
class Const(Term):
    value: int


@dataclass(frozen=True)
class App(Term):
    op: str
    args: tuple[Term, ...]


def term_values(alg: FiniteAlgebra, terms: Sequence[Term],
                points: Sequence[Sequence[int]]) -> list[list[int]]:
    """Each term's values at every point (a binding indexed by Var.index).

    Each distinct node of the terms' DAG is evaluated once, over the whole
    point list, by indexing into its op's table.  The errors are those of
    evaluating at one point bottom-up, met in the same order: UnknownOp for
    an op the algebra lacks or a wrong argument count, checked before the
    arguments, UnboundVariable for an index past a point, and
    ElementOutOfRange for a constant or a bound value outside the universe.
    """
    n = alg.size
    bound = min(map(len, points), default=sys.maxsize)   # every point binds the indices below
    done: dict[int, list[int]] = {}      # id of a node -> its values

    def out_of_range(values: list[int]) -> None:
        if values and not 0 <= min(values) <= max(values) < n:
            v = next(v for v in values if not 0 <= v < n)
            raise ElementOutOfRange(f"element {v} out of range for size {n}")

    def values_of(t: Term) -> list[int]:
        values = done.get(id(t))
        if values is not None:
            return values
        if isinstance(t, Var):
            if t.index >= bound:
                raise UnboundVariable(f"variable x{t.index} not bound")
            values = list(map(operator.itemgetter(t.index), points))
            out_of_range(values)
        elif isinstance(t, Const):
            values = [t.value] * len(points)
            out_of_range(values)
        else:
            assert isinstance(t, App)
            op = alg.op(t.op)
            if len(t.args) != op.arity:
                raise UnknownOp(f"op {t.op} expects {op.arity} arguments, got {len(t.args)}")
            args = [values_of(a) for a in t.args]
            if not args:
                values = [op.table[0]] * len(points)
            else:
                index = args[0]
                for arg in args[1:]:
                    index = [i * n + v for i, v in zip(index, arg)]
                values = list(map(op.table.__getitem__, index))
        done[id(t)] = values
        return values

    return [values_of(t) for t in terms]


def eval_term(alg: FiniteAlgebra, t: Term, asg: Sequence[int]) -> int:
    """Evaluate t under the variable binding asg (indexed by Var.index)."""
    return term_values(alg, (t,), (asg,))[0][0]


# ---------------------------------------------------------------------------
# Clone closure
#
# A k-ary polynomial table is the sequence of values of a polynomial on a
# fixed list of argument points (a Table: see Clone).  Closure starts from
# the projections (and, for polynomial clones, the constants) and repeatedly
# applies every basic operation pointwise to tuples of stored tables.
# First-witness terms are retained because reductions and the type-labeling
# machinery need them.


Table = bytes | tuple[int, ...]


@dataclass
class Clone:
    """Result of a bounded clone closure over a fixed point list.

    witnesses maps each kept table to its first witness, in generation
    order, so its keys are the tables.  A table is its byte column, one
    digit per point, when the algebra's digits are one byte wide (width 1),
    and a tuple otherwise; either indexes to ints, and lookups take any
    sequence of elements.
    """

    witnesses: dict[Table, Term]
    complete: bool
    width: int

    @property
    def tables(self) -> KeysView[Table]:
        return self.witnesses.keys()

    def _key(self, table: Sequence[int]) -> Table:
        return bytes(table) if self.width == 1 else tuple(table)

    def __contains__(self, table: Sequence[int]) -> bool:
        return self._key(table) in self.witnesses

    def witness(self, table: Sequence[int]) -> Term:
        return self.witnesses[self._key(table)]

    def __len__(self) -> int:
        return len(self.witnesses)


def _close_tables(
    alg: FiniteAlgebra,
    points: Sequence[tuple[int, ...]],
    generators: list[tuple[tuple[int, ...], Term]],
    cap: int,
    stop: Optional[Callable[[Table], bool]] = None,
) -> tuple[Clone, Optional[Table]]:
    """Semi-naive closure of generator tables under pointwise basic operations.

    Every distinct generator is kept; a table the operations produce is kept
    only while fewer than cap tables are held, else the closure stops
    incomplete.  stop is called on each kept table in turn; returns the
    clone and, if stop matched a table, that table (closure halts there and
    the clone is marked incomplete).

    Round by round, with [start, end) the tables kept in the last round,
    each op in signature order is applied to every r-tuple of tables below
    end with some index at or above start, in itertools.product order: for
    each prefix of r-1 indices, the last index runs over [0, end) when the
    prefix holds a new table and over [start, end) otherwise (always for a
    unary op); a nullary op yields its constant once per round.  A symmetric
    op (no permutation of its arguments changes its table; see _OpTables)
    is applied only to nondecreasing tuples: the prefixes come from
    itertools.combinations_with_replacement and the last index runs from
    max(lo, prefix[-1]).  The kept tables, their order and witnesses, the
    cap checks and the stop calls stay the same: a skipped tuple's sorted
    permutation is lexicographically less, so it came earlier in the same
    round and gave the same column, kept then if new, and the skipped tuple
    would have found that column seen.

    Tables are evaluated as byte columns, one digit per point as in the
    block kernel, and deduplicated by their bytes; at width 1 the column is
    the kept table.  The tables of one prefix are evaluated together, up to
    BLOCK at a time, and then walked in order: a table kept in a round is an
    argument only from the next round on, so evaluating ahead changes
    nothing.
    """
    size, npts = alg.size, len(points)
    kernel = _op_tables(alg)
    width = kernel.width
    length = npts * width
    kept: dict[Table, Term] = {}     # the clone's witnesses
    seen = kept if width == 1 else set()    # the kept tables' columns
    columns: list[bytes] = []        # table i as a column
    terms: list[Term] = []           # witness of table i
    cuts: list[slice] = []           # cut j: table j of a batch's result

    def result(complete: bool, hit: Optional[Table]) -> tuple[Clone, Optional[Table]]:
        return Clone(kept, complete, width), hit

    def keep(col: bytes, wit: Term) -> Optional[Table]:
        """Keep col's table; the table, if stop matches it."""
        tab: Table = col
        if width > 1:
            seen.add(col)
            tab = tuple(column_digits(width, col))
        kept[tab] = wit
        columns.append(col)
        terms.append(wit)
        return tab if stop is not None and stop(tab) else None

    for tab, wit in generators:
        col = pack_column(width, tab)
        if col not in seen and (hit := keep(col, wit)) is not None:
            return result(False, hit)
    frontier_start = 0
    while frontier_start < len(columns):
        frontier_end = len(columns)
        cuts += [slice(j * length, (j + 1) * length)
                 for j in range(len(cuts), min(frontier_end, BLOCK))]
        for op in alg.ops:
            r, _, table = kernel.ops[op.name]
            if r == 0:
                col = pack_column(width, table[:1]) * npts
                if col in seen:
                    continue
                if len(columns) >= cap:
                    return result(False, None)
                if (hit := keep(col, App(op.name, ()))) is not None:
                    return result(False, hit)
                continue
            symmetric = op.name in kernel.symmetric
            if symmetric:
                prefixes = itertools.combinations_with_replacement(range(frontier_end), r - 1)
            else:
                prefixes = itertools.product(range(frontier_end), repeat=r - 1)
            for prefix in prefixes:
                lo = 0 if prefix and max(prefix) >= frontier_start else frontier_start
                if symmetric:
                    lo = max(lo, prefix[-1])
                head = tuple(terms[i] for i in prefix)
                for first in range(lo, frontier_end, BLOCK):
                    last = min(first + BLOCK, frontier_end)
                    count = last - first
                    args = [columns[i] * count for i in prefix]
                    args.append(b"".join(columns[first:last]))
                    out = column_op(size, width, table, args, range(r), count * length)
                    batch = list(map(out.__getitem__, cuts[:count]))
                    if all(map(seen.__contains__, batch)):
                        continue
                    for j, col in enumerate(batch):
                        if col in seen:
                            continue
                        if len(columns) >= cap:
                            return result(False, None)
                        hit = keep(col, App(op.name, head + (terms[first + j],)))
                        if hit is not None:
                            return result(False, hit)
        frontier_start = frontier_end
    return result(True, None)


def _proj_generators(
    alg: FiniteAlgebra, points: Sequence[tuple[int, ...]], k: int, constants: bool
) -> list[tuple[tuple[int, ...], Term]]:
    gens: list[tuple[tuple[int, ...], Term]] = []
    for i in range(k):
        gens.append((tuple(p[i] for p in points), Var(i)))
    if constants:
        for c in range(alg.size):
            gens.append(((c,) * len(points), Const(c)))
    return gens


def poly_clone_on_points(
    alg: FiniteAlgebra,
    points: Sequence[tuple[int, ...]],
    k: int,
    stop: Optional[Callable[[Table], bool]] = None,
    constants: bool = True,
) -> tuple[Clone, Optional[Table]]:
    """Polynomial (or term, with constants=False) clone restricted to a point list.

    The one entry point to clone closure, which keeps at most CLONE_CAP
    tables.  A closure that runs to completion is kept in the per-algebra
    STORE under ("closure", k, points, constants); a later call with that
    key replays it under its stop, with the same result as closing afresh.
    Callers must not mutate the clone.
    """
    points = tuple(points)
    key = ("closure", k, points, constants)
    facts = STORE.facts(alg)
    if key in facts:
        return _replay(facts[key], stop)
    clone, hit = _close_tables(alg, points, _proj_generators(alg, points, k, constants),
                               CLONE_CAP, stop)
    if clone.complete:
        facts[key] = clone
    return clone, hit


def _replay(full: Clone, stop: Optional[Callable[[Table], bool]]) -> tuple[Clone, Optional[Table]]:
    """What _close_tables returns under stop for the closure whose complete
    run is full: its tables come in generation order, up to the first that
    stop matches."""
    if stop is not None:
        for i, tab in enumerate(full.tables):
            if stop(tab):
                return Clone(dict(itertools.islice(full.witnesses.items(), i + 1)),
                             False, full.width), tab
    return full, None


def kary_poly_clone(alg: FiniteAlgebra, k: int) -> Clone:
    """All k-ary polynomial tables of alg, with first-witness terms.

    Raises CapExceeded when the closure would grow past CLONE_CAP.  The
    clone is the closure of poly_clone_on_points over A^k in lexicographic
    order, kept in the per-algebra STORE under ("closure", k, points, True)
    once complete and shared by every later call (callers must not mutate
    it).  A closure that capped is remembered under ("capped_clone", k),
    with its size, so it is not closed again.
    """
    facts = STORE.facts(alg)
    capped = ("capped_clone", k)
    if capped not in facts:
        points = list(itertools.product(range(alg.size), repeat=k))
        clone, _ = poly_clone_on_points(alg, points, k)
        if clone.complete:
            return clone
        facts[capped] = len(clone)
    raise CapExceeded(facts[capped], f"{k}-ary polynomial clone of {alg.name}")


# ---------------------------------------------------------------------------
# Special term search (Malcev, directed Gumm chains)


@dataclass
class Search:
    """Outcome of a cap-bounded existence search."""

    status: Tri
    value: object = None


def _identity_points(n: int) -> tuple[tuple[int, ...], ...]:
    """The points of A^3 with at most two distinct coordinates, in
    lexicographic order: n(3n - 2) of the n^3.  Every Malcev and directed
    Gumm identity reads only these, and restricting tables to a point set
    commutes with the pointwise operations, so the term clone closed over
    them holds exactly the restrictions of the ternary term operations."""
    return tuple(sorted({p for x in range(n) for y in range(n)
                         for p in ((x, x, y), (x, y, y), (x, y, x))}))


def _slices(n: int, points: Sequence[tuple[int, ...]]
            ) -> tuple[Callable[[Sequence[int]], tuple[int, ...]], ...]:
    """Readers of a table over points, _identity_points(n), giving, as
    tuples indexed by (x, y) in product order, its values at (x,x,y),
    (x,y,y) and (x,y,x)."""
    at = {p: i for i, p in enumerate(points)}
    pairs = list(itertools.product(range(n), repeat=2))

    def reader(point: Callable[[int, int], tuple[int, ...]]):
        get = operator.itemgetter(*(at[point(x, y)] for x, y in pairs))
        return get if len(pairs) > 1 else lambda tab: (get(tab),)

    return (reader(lambda x, y: (x, x, y)), reader(lambda x, y: (x, y, y)),
            reader(lambda x, y: (x, y, x)))


def _simple_quotients(alg: FiniteAlgebra) -> list[FiniteAlgebra]:
    """A/theta for each coatom theta of Con(A) other than 0, fewest classes
    first; none when the lattice outgrows LATTICE_CAP.  Each is simple, and
    a Malcev term or a directed Gumm chain of A is one of A/theta."""
    from .congruence import congruence_lattice  # congruence imports this module

    try:
        lattice = congruence_lattice(alg)
    except CapExceeded:
        return []
    top = len(lattice) - 1
    coatoms = [lattice.congruences[a] for a, b in lattice.covers if b == top]
    return [quotient(alg, theta) for theta in sorted(coatoms, key=lambda p: p.num_classes)
            if not theta.is_zero()]


def check_malcev_term(alg: FiniteAlgebra, d: Term) -> None:
    """Raise NotMalcev unless d(x,x,y) = y = d(y,x,x) for all x, y of alg."""
    pairs = list(itertools.product(range(alg.size), repeat=2))
    values, = term_values(alg, (d,), [p for x, y in pairs for p in ((x, x, y), (y, x, x))])
    for (x, y), xxy, yxx in zip(pairs, values[::2], values[1::2]):
        if xxy != y or yxx != y:
            raise NotMalcev(f"Malcev identities fail at ({x},{y})")


def find_malcev_term(alg: FiniteAlgebra) -> Search:
    """Search the ternary term clone for d with d(x,x,y) = y = d(y,x,x).

    NO when the search says NO on some simple quotient (the identities hold
    in every homomorphic image); otherwise the term clone is closed over
    _identity_points.  YES carries the term, once check_malcev_term has
    verified it on all of A; NO
    means a closure completed without a witness; UNKNOWN means the closure
    outgrew CLONE_CAP first.  Every outcome is stored under "malcev",
    without the clone's tables.
    """
    def build() -> Search:
        if any(find_malcev_term(q).status is Tri.NO for q in _simple_quotients(alg)):
            return Search(Tri.NO)
        n = alg.size
        points = _identity_points(n)
        xxy, xyy, _ = _slices(n, points)
        sel_y = tuple(y for _ in range(n) for y in range(n))    # (x,y) -> y
        sel_x = tuple(x for x in range(n) for _ in range(n))    # (x,y) -> x
        clone, hit = poly_clone_on_points(
            alg, points, 3,
            stop=lambda t: xxy(t) == sel_y and xyy(t) == sel_x, constants=False)
        if hit is not None:
            term = clone.witness(hit)
            check_malcev_term(alg, term)
            return Search(Tri.YES, term)
        return Search(Tri.NO if clone.complete else Tri.UNKNOWN)

    return stored(alg, "malcev", build)


@dataclass
class GummChain:
    terms: list[Term]          # d_1 .. d_n
    q: Term


def find_directed_gumm_terms(alg: FiniteAlgebra) -> Search:
    """Search ternary terms for a directed chain d_1..d_n, Q with
    d_i(x,y,x)=x, d_1(x,x,y)=x, d_i(x,y,y)=d_{i+1}(x,x,y), d_n(x,y,y)=Q(x,y,y),
    Q(x,x,y)=y.  A chain is returned only once check_gumm_chain has verified
    it.

    A Malcev term short-circuits the search: (d_1, Q) = (first projection,
    d) satisfies all the displayed identities.  A Malcev search that hit
    the cap gives UNKNOWN, so that a capped clone is closed once, not again
    under this search's stop; no simple quotient can say NO then, as each
    one's Malcev search said YES or UNKNOWN.  Otherwise the answer is NO
    when this search says NO on some simple quotient.  Else the term clone
    is closed over _identity_points with _ChainReach as the stop, so the
    closure stops at the first chain.  The search is complete: any chain
    can be spliced down to one visiting each candidate table at most once,
    so a complete closure without a chain decides NO.
    """
    malcev = find_malcev_term(alg)
    if malcev.status is Tri.YES:
        return _verified(alg, GummChain([Var(0)], malcev.value))
    if malcev.status is Tri.UNKNOWN:
        return Search(Tri.UNKNOWN)
    if any(find_directed_gumm_terms(q).status is Tri.NO for q in _simple_quotients(alg)):
        return Search(Tri.NO)

    points = _identity_points(alg.size)
    chains = _ChainReach(alg.size, points)
    clone, hit = poly_clone_on_points(alg, points, 3, stop=chains, constants=False)
    if hit is None:
        return Search(Tri.NO if clone.complete else Tri.UNKNOWN)
    ds, q = chains.chain()
    return _verified(alg, GummChain([clone.witness(d) for d in ds], clone.witness(q)))


class _ChainReach:
    """Whether the tables seen so far, over points (_identity_points(n)),
    hold a directed Gumm chain, kept up to date as each table arrives (the
    stop of the Gumm search's closure).  Nodes are the tables with
    d(x,y,x) = x; a chain starts at a node with d(x,x,y) = x, steps from t
    to u when u(x,x,y) = t(x,y,y), and ends at a node t with t(x,y,y) =
    Q(x,y,y) for a table Q with Q(x,x,y) = y.  Called on each table in
    turn, it says True once a chain exists, whatever order the tables come
    in."""

    def __init__(self, n: int, points: Sequence[tuple[int, ...]]) -> None:
        self.xxy, self.xyy, self.xyx = _slices(n, points)
        self.sel_x = tuple(x for x in range(n) for _ in range(n))    # (x,y) -> x
        self.sel_y = tuple(y for _ in range(n) for y in range(n))    # (x,y) -> y
        self.reached: dict[tuple[int, ...], Table] = {}   # (x,y,y) slice -> a reached node
        self.prev: dict[Table, Optional[Table]] = {}      # reached node -> the node before it
        self.waiting: dict[tuple[int, ...], list[Table]] = {}   # (x,x,y) slice -> unreached nodes
        self.q_by_xyy: dict[tuple[int, ...], Table] = {}
        self.ends: tuple[Table, Table] | None = None      # the chain's last node, and Q

    def __call__(self, tab: Table) -> bool:
        if self.ends is not None:    # keep the first chain found
            return True
        if self.xxy(tab) == self.sel_y:
            key = self.xyy(tab)
            self.q_by_xyy.setdefault(key, tab)
            if key in self.reached:
                self.ends = (self.reached[key], tab)
                return True
        if self.xyx(tab) != self.sel_x:
            return False
        start = self.xxy(tab)
        if start == self.sel_x:
            return self._reach(tab, None)
        if start in self.reached:
            return self._reach(tab, self.reached[start])
        self.waiting.setdefault(start, []).append(tab)
        return False

    def _reach(self, node: Table, before: Optional[Table]) -> bool:
        """Mark node reached from before, and every waiting node it leads to."""
        todo = [(node, before)]
        while todo:
            node, before = todo.pop()
            self.prev[node] = before
            key = self.xyy(node)
            if key in self.q_by_xyy:
                self.ends = (node, self.q_by_xyy[key])
                return True
            if key not in self.reached:
                self.reached[key] = node
                todo.extend((u, node) for u in self.waiting.pop(key, ()))
        return False

    def chain(self) -> tuple[list[Table], Table]:
        """The chain's nodes d_1 .. d_n and Q, once a call has said True."""
        assert self.ends is not None
        last, q = self.ends
        ds: list[Table] = []
        cur: Optional[Table] = last
        while cur is not None:
            ds.append(cur)
            cur = self.prev[cur]
        return ds[::-1], q


def _verified(alg: FiniteAlgebra, chain: GummChain) -> Search:
    if not check_gumm_chain(alg, chain):
        raise AssertionError("Gumm chain failed verification")
    return Search(Tri.YES, chain)


def check_gumm_chain(alg: FiniteAlgebra, chain: GummChain) -> bool:
    """Pointwise verification of every chain identity on the full universe."""
    pairs = list(itertools.product(range(alg.size), repeat=2))
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    points = ([(x, x, y) for x, y in pairs] + [(x, y, y) for x, y in pairs]
              + [(x, y, x) for x, y in pairs])
    *ds, q = term_values(alg, (*chain.terms, chain.q), points)
    m = len(pairs)
    xxy, xyy, xyx = slice(0, m), slice(m, 2 * m), slice(2 * m, 3 * m)
    return (ds[0][xxy] == xs and q[xxy] == ys and ds[-1][xyy] == q[xyy]
            and all(d[xyx] == xs for d in ds)
            and all(d1[xyy] == d2[xxy] for d1, d2 in zip(ds, ds[1:])))


# ---------------------------------------------------------------------------
# Quotients, products, induced structure


def translations(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All elementary unary translations x -> f(c_1, .., x, .., c_r) of alg
    as value tables (deduplicated, in order of op, position, context),
    kept in the per-algebra store: translation_sets at the zero
    congruence, where each context is its own class."""
    return stored(alg, "translations", lambda: [
        tab for tab, in translation_sets(alg, Partition.zero(alg.size))])


def translation_sets(alg: FiniteAlgebra, alpha: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """For each op, argument position and alpha-class of contexts (the
    other arguments, one class per entry), the distinct elementary
    translations x -> f(c_1, .., x, .., c_r) with such contexts, in order
    of op, position and first context; each distinct set once."""
    n, ids = alg.size, alpha.ids
    out: dict[frozenset, tuple[tuple[int, ...], ...]] = {}
    for op in alg.ops:
        r, table = op.arity, op.table
        for pos in range(r):
            # context c (in product order; classes holds the class of each
            # entry) puts x at base + x * stride, with stride the weight of
            # position pos
            stride = n ** (r - 1 - pos)
            by_class: dict[tuple[int, ...], dict[tuple[int, ...], None]] = {}
            for c, classes in enumerate(itertools.product(ids, repeat=r - 1)):
                base = c // stride * n * stride + c % stride
                by_class.setdefault(classes, {}).setdefault(
                    table[base:base + n * stride:stride], None)
            for tabs in by_class.values():
                out.setdefault(frozenset(tabs), tuple(tabs))
    return list(out.values())


def is_congruence(alg: FiniteAlgebra, p: Partition) -> bool:
    """Whether p is over alg's universe and generates itself: the congruence
    generated by its spanning pairs is p exactly when p is closed under
    every elementary translation."""
    from .congruence import congruence_from_pairs  # congruence imports this module

    return p.n == alg.size and congruence_from_pairs(alg, p.spanning_pairs()) == p


def require_congruence(alg: FiniteAlgebra, p: Partition) -> None:
    """NotACongruence unless p is a congruence of alg.  When the store holds
    Con(alg), p is one iff Con(alg) holds it; else is_congruence decides."""
    lattice = known(alg, "lattice")
    if not (p in lattice.members if lattice is not None else is_congruence(alg, p)):
        raise NotACongruence(f"partition {p} is not a congruence of {alg.name}")


def quotient(alg: FiniteAlgebra, theta: Partition) -> FiniteAlgebra:
    """Quotient algebra; classes are numbered in canonical (first occurrence)
    order.  It is stored per algebra under ("quotient", name, theta), so it
    is built and named once, after the calling algebra; theta is checked to
    be a congruence when the key is missed, so a stored key passed that
    check."""
    def build() -> FiniteAlgebra:
        require_congruence(alg, theta)
        return _quotient(alg, theta)

    return stored(alg, ("quotient", alg.name, theta), build)


def _quotient(alg: FiniteAlgebra, theta: Partition) -> FiniteAlgebra:
    n = alg.size
    reps = [cls[0] for cls in theta.classes()]
    # index[r]: the table index of each r-tuple of representatives, in product order
    index = [[0]]
    for _ in range(max((op.arity for op in alg.ops), default=0)):
        index.append([i * n + rep for i in index[-1] for rep in reps])
    ops = tuple(Operation(op.name, op.arity, tuple(theta.ids[op.table[i]] for i in index[op.arity]))
                for op in alg.ops)
    return FiniteAlgebra(f"{alg.name}/{theta}", len(reps), ops)


def direct_product(a: FiniteAlgebra, b: FiniteAlgebra, name: str | None = None) -> FiniteAlgebra:
    """Product with universe numbered row-major: (i, j) -> i*|B| + j."""
    if a.signature() != b.signature():
        raise ValueError("direct product requires matching signatures")
    na, nb = a.size, b.size
    size = na * nb
    ops = []
    for opa, opb in zip(a.ops, b.ops):
        r = opa.arity
        table = []
        for args in itertools.product(range(size), repeat=r):
            ai = tuple(x // nb for x in args)
            bi = tuple(x % nb for x in args)
            table.append(opa.apply(ai, na) * nb + opb.apply(bi, nb))
        ops.append(Operation(opa.name, r, tuple(table)))
    return FiniteAlgebra(name or f"{a.name}x{b.name}", size, tuple(ops))


# ---------------------------------------------------------------------------
# Algebra text format
#
#   algebra <name> size <n>
#   op <name> arity <k>
#   <n^k whitespace-separated entries, row-major, last argument fastest>
#
# '#' starts a comment.  Round-trips bit-exactly through serialize/parse.


def serialize_algebra(alg: FiniteAlgebra) -> str:
    lines = [f"algebra {alg.name} size {alg.size}"]
    for op in alg.ops:
        lines.append(f"op {op.name} arity {op.arity}")
        if op.arity == 0:
            lines.append(str(op.table[0]))
            continue
        per_line = alg.size if op.arity >= 2 else len(op.table)
        for start in range(0, len(op.table), per_line):
            lines.append(" ".join(str(v) for v in op.table[start:start + per_line]))
    return "\n".join(lines) + "\n"


def parse_algebra(text: str) -> FiniteAlgebra:
    tokens: list[tuple[str, int]] = []  # (token, line number)
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for tok in line.split():
            tokens.append((tok, ln))
    pos = 0

    def take(expect: str | None = None) -> tuple[str, int]:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of input", tokens[-1][1] if tokens else 1)
        tok, ln = tokens[pos]
        pos += 1
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, got {tok!r}", ln)
        return tok, ln

    take("algebra")
    name, _ = take()
    take("size")
    stok, ln = take()
    size = parse_int(stok, "size", ln)
    if size < 1:
        raise ParseError(f"size {size} is not positive", ln)
    ops = []
    while pos < len(tokens):
        take("op")
        opname, _ = take()
        take("arity")
        atok, ln = take()
        arity = parse_int(atok, "arity", ln)
        if arity < 0:
            raise ParseError(f"op {opname}: negative arity {arity}", ln)
        count = size ** arity
        entries = []
        for _ in range(count):
            etok, eln = take()
            v = parse_int(etok, "table entry", eln)
            if not 0 <= v < size:
                raise ParseError(f"table entry {v} out of range 0..{size - 1}", eln)
            entries.append(v)
        ops.append(Operation(opname, arity, tuple(entries)))
    try:
        return FiniteAlgebra(name, size, tuple(ops))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
