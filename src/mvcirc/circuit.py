"""Circuit IR over a finite algebra, the four instance kinds, and text I/O.

A circuit is a gate list in topological order (operands strictly precede
their gate) with an ordered output list.  Inputs are named, not positional,
because generated instances carry structured names.  Serialization preserves
gate order so generated gadgets diff cleanly.  BlockProgram evaluates a
circuit over blocks of assignments at once, for the solvers' enumerations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .algebra import (
    _ORDER,
    App,
    Const as TermConst,
    FiniteAlgebra,
    Term,
    Var,
    _op_tables,
    column_digits,
    map_digits,
    pack_column,
)
from .errors import (
    ArityMismatch,
    ElementOutOfRange,
    ForwardReference,
    ParseError,
    UnboundInput,
    UnknownOp,
    parse_int,
)

_RESERVED = {"input", "const"}


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str                     # "input" | "const" | "op"
    name: str = ""                # input name or op name
    value: int = 0                # const element
    args: tuple[int, ...] = ()    # operand gate indices


def input_gate(name: str) -> Gate:
    return Gate("input", name=name)


def const_gate(value: int) -> Gate:
    return Gate("const", value=value)


def op_gate(op: str, args: Sequence[int]) -> Gate:
    return Gate("op", name=op, args=tuple(args))


@dataclass(frozen=True)
class Circuit:
    gates: tuple[Gate, ...]
    outputs: tuple[int, ...]
    algebra_name: str = ""

    def __post_init__(self) -> None:
        for i, g in enumerate(self.gates):
            if g.kind == "op":
                for a in g.args:
                    if a >= i:
                        raise ForwardReference(f"gate g{i} references g{a}")
                    if a < 0:
                        raise ValueError("negative gate reference")
        if not self.outputs:
            raise ValueError("circuit needs at least one output")
        for o in self.outputs:
            if not 0 <= o < len(self.gates):
                raise ValueError(f"output gate g{o} out of range")

    @cached_property
    def input_names(self) -> tuple[str, ...]:
        """The input names in order of first appearance, read once per
        circuit."""
        return tuple(dict.fromkeys(g.name for g in self.gates if g.kind == "input"))

    def with_outputs(self, outputs: Sequence[int]) -> "Circuit":
        return Circuit(self.gates, tuple(outputs), self.algebra_name)


Assignment = Mapping[str, int]


def eval_circuit(
    alg: FiniteAlgebra,
    c: Circuit,
    asg: Assignment,
    hook: Optional[Callable[[int, int], None]] = None,
) -> tuple[int, ...]:
    """Single forward pass; each gate evaluates exactly once.  hook, when
    given, then sees each (gate, value) in gate order."""
    vals = gate_values(alg, c, asg)
    if hook is not None:
        for i, v in enumerate(vals):
            hook(i, v)
    return tuple(vals[o] for o in c.outputs)


def gate_values(alg: FiniteAlgebra, c: Circuit, asg: Assignment) -> list[int]:
    """The value of every gate at one assignment, in gate order, with the op
    tables read from the algebra's column form."""
    n = alg.size
    ops = _op_tables(alg).ops
    vals: list[int] = []
    append = vals.append
    for i, g in enumerate(c.gates):
        kind = g.kind
        if kind == "op":
            try:
                arity, _, table = ops[g.name]
            except KeyError:
                raise UnknownOp(f"algebra {alg.name} has no operation {g.name!r}") from None
            args = g.args
            if len(args) != arity:
                raise ArityMismatch(
                    f"gate g{i}: op {g.name} expects {arity} args, got {len(args)}"
                )
            if arity == 2:
                v = table[vals[args[0]] * n + vals[args[1]]]
            elif arity == 1:
                v = table[vals[args[0]]]
            else:
                idx = 0
                for a in args:
                    idx = idx * n + vals[a]
                v = table[idx]
        elif kind == "input":
            try:
                v = asg[g.name]
            except KeyError:
                raise UnboundInput(f"input {g.name!r} not assigned") from None
            if not 0 <= v < n:
                raise ElementOutOfRange(f"input {g.name}={v} out of range")
        else:
            v = g.value
            if not 0 <= v < n:
                raise ElementOutOfRange(f"const {v} out of range")
        append(v)
    return vals


def compile_circuit(alg: FiniteAlgebra, c: Circuit) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """Compile to an evaluator of one assignment, taking values for
    sorted(input_names), and check every gate against the algebra.  Its one
    caller is solvers.solve_affine, which reads and checks the affine form
    of each compared output that is not a constant; every enumeration runs
    on BlockProgram."""
    n = alg.size
    names = sorted(c.input_names)
    slot = {nm: i for i, nm in enumerate(names)}
    ops = {op.name: op for op in alg.ops}
    prog: list[tuple] = []
    for i, g in enumerate(c.gates):
        if g.kind == "input":
            prog.append(("i", slot[g.name]))
        elif g.kind == "const":
            if not 0 <= g.value < n:
                raise ElementOutOfRange(f"const {g.value} out of range")
            prog.append(("c", g.value))
        else:
            op = ops.get(g.name)
            if op is None:
                raise UnknownOp(f"algebra {alg.name} has no operation {g.name!r}")
            if len(g.args) != op.arity:
                raise ArityMismatch(f"gate g{i}: op {g.name} arity mismatch")
            prog.append(("o", op.table, g.args))
    outs = c.outputs

    def run(values: Sequence[int]) -> tuple[int, ...]:
        vals = []
        append = vals.append
        for instr in prog:
            tag = instr[0]
            if tag == "o":
                table, args = instr[1], instr[2]
                idx = 0
                for a in args:
                    idx = idx * n + vals[a]
                append(table[idx])
            elif tag == "i":
                append(values[instr[1]])
            else:
                append(instr[1])
        return tuple(vals[o] for o in outs)

    return run


# ---------------------------------------------------------------------------
# Block evaluation
#
# A block is `count` assignments.  Every input and gate holds a column with
# one digit per assignment (see "Byte columns" in algebra.py).  A step is
# evaluated over the whole block at once, and each gate's column is read
# as an integer at most once per block: a unary step at width 1 translates
# its argument's bytes, any other step combines its arguments' integers by
# Horner and maps the digits through its table, and the compared pairs
# XOR as integers.  A gate keeps only the forms later steps read.
#
# At width 1 a program folds its steps once, before the first block past
# FOLD_AT assignments.  An op gate or constant that exactly one step reads
# and no pair names joins that step's group, and each group becomes one
# step over its leaves, the inputs and gates it reads from outside: a tag-2
# translate of its one leaf, or a tag-3 Horner on its k leaves, whose table
# is the whole group tabulated over the |A|^k <= 256 leaf tuples (a group
# with no leaf is a constant).  A group then costs one Horner, one
# to_bytes, one translate and at most one from_bytes per block, where it
# cost that much per gate.  A fold costs about what a few thousand
# assignments of enumeration cost, so the many short enumerations, which
# would not earn it back, never fold.

FOLD_AT = 8192      # assignments evaluated before the steps fold


class BlockProgram:
    """A circuit compiled once for block evaluation, with the gate pairs an
    enumeration compares.  Input columns come in the order of `names`
    (sorted input names); `mismatches` evaluates a block and flags, per
    assignment, whether some pair differs.  Every gate is checked against
    the algebra, but only gates that some compared gate depends on are
    evaluated.  `steps` is the one step list that `mismatches` and
    `differs` read; at width 1 it is replaced once by its folded form (see
    "Block evaluation")."""

    __slots__ = ("size", "width", "names", "pairs", "gates", "steps", "fold_in")

    def __init__(self, alg: FiniteAlgebra, c: Circuit, pairs: Iterable[tuple[int, int]]):
        tables = _op_tables(alg)
        size = self.size = alg.size
        self.width = tables.width
        names = self.names = sorted(c.input_names)
        pairs = self.pairs = tuple(pairs)
        gates = c.gates
        count = self.gates = len(gates)
        # how later steps read each gate's column: 1 as an integer, 2 as
        # bytes; a gate nothing reads is dead
        use = [0] * count
        for a, b in pairs:
            use[a] = use[b] = 1
        ops = tables.ops
        # one backward pass checks every gate, with one op lookup and one
        # arity check per op gate, marks what the live gates read, and
        # collects the live gates' steps, last gate first, each ending in
        # its use: (gate, 0, input slot, use) | (gate, 1, value, use)
        # | (gate, 2, table, arg, use) | (gate, 3, table, args, use), an op
        # gate taking its step tag from the op tables.  An input's slot is
        # found by a scan of names, which costs less than one assignment of
        # the enumeration that follows.
        steps: list[tuple] = []
        append = steps.append
        for i in range(count - 1, -1, -1):
            g = gates[i]
            u = use[i]
            kind = g.kind
            if kind == "op":
                try:
                    arity, tag, table = ops[g.name]
                except KeyError:
                    raise UnknownOp(f"algebra {alg.name} has no operation {g.name!r}") from None
                args = g.args
                if len(args) != arity:
                    raise ArityMismatch(f"gate g{i}: op {g.name} arity mismatch")
                if not u:
                    continue
                if tag == 3:
                    for a in args:
                        use[a] |= 1
                    append((i, 3, table, args, u))
                elif tag == 2:
                    use[args[0]] |= 2
                    append((i, 2, table, args[0], u))
                else:
                    append((i, 1, table[0], u))
            elif kind == "input":
                if u:
                    append((i, 0, names.index(g.name), u))
            elif not 0 <= g.value < size:
                raise ElementOutOfRange(f"const {g.value} out of range")
            elif u:
                append((i, 1, g.value, u))
        steps.reverse()
        self.steps = steps
        # the assignments left to evaluate before the steps fold; None once
        # they have, or at two-byte width, where they keep their form
        self.fold_in = FOLD_AT if self.width == 1 else None

    def assignment(self, columns: Sequence[bytes], p: int) -> tuple[int, ...]:
        """The input values of assignment p of a block."""
        w = self.width
        if w == 1:
            return tuple(map(itemgetter(p), columns))
        return tuple([column_digits(w, col)[p] for col in columns])

    def differs(self, values: Sequence[int]) -> bool:
        """Whether some pair of gates differs at one assignment, given its
        input values: the scalar form of mismatches, for the first
        assignment of an enumeration, which often decides it."""
        n = self.size
        vals = [0] * self.gates
        for step in self.steps:
            tag = step[1]
            if tag == 3:
                idx = 0
                for a in step[3]:
                    idx = idx * n + vals[a]
                vals[step[0]] = step[2][idx]
            elif tag == 2:
                vals[step[0]] = step[2][vals[step[3]]]
            else:
                vals[step[0]] = values[step[2]] if tag == 0 else step[2]
        for a, b in self.pairs:
            if vals[a] != vals[b]:
                return True
        return False

    def mismatches(self, columns: Sequence[bytes], count: int) -> bytes:
        """Evaluate the block whose input columns are given: one byte per
        assignment, zero exactly where every pair of gates agrees."""
        left = self.fold_in
        if left is not None:
            if left <= 0:
                self._fold()
            else:
                self.fold_in = left - count
        ints = self._run(self.steps, columns, count)[0]
        diff = 0
        for a, b in self.pairs:
            diff |= ints[a] ^ ints[b]
        w = self.width
        raw = diff.to_bytes(count * w, _ORDER)
        return raw if w == 1 else bytes(map(bool, column_digits(w, raw)))

    def _run(self, steps: Sequence[tuple], columns: Sequence[bytes],
             count: int) -> tuple[list[int], list[bytes]]:
        """Every step's column over a block, as an integer and as bytes,
        each where the step's use asks for it."""
        n, w, order = self.size, self.width, _ORDER
        length = count * w
        frm = int.from_bytes
        cols: list = [b""] * self.gates
        ints = [0] * self.gates
        for step in steps:
            tag = step[1]
            if tag == 3:
                acc = 0
                for a in step[3]:
                    acc = acc * n + ints[a]
                col = acc.to_bytes(length, order)
                col = col.translate(step[2]) if w == 1 else map_digits(w, step[2], col)
            elif tag == 2:
                col = cols[step[3]].translate(step[2])
            elif tag == 0:
                col = columns[step[2]]
            else:
                col = pack_column(w, (step[2],)) * count
            if step[-1] & 1:
                ints[step[0]] = frm(col, order)
            if step[-1] & 2:
                cols[step[0]] = col
        return ints, cols

    def _fold(self) -> None:
        """Replace the steps by their groups' steps.  In gate order, each
        step takes into its group every argument other than an input that
        it alone reads and no pair names, with that argument's group; while
        the leaves number more than 8 or index more than 256 table rows,
        the taken argument with the most leaves stays a step instead.  A
        group other than its gate's own step is tabulated by running its
        steps over the leaf tuples in product order."""
        n, steps = self.size, self.steps
        limit = 0
        while limit < 8 and n ** (limit + 1) <= 256:
            limit += 1
        step_of = {step[0]: step for step in steps}
        reads = {step[0]: step[3] if step[1] == 3 else (step[3],) if step[1] == 2 else ()
                 for step in steps}
        readers = Counter(a for args in reads.values() for a in set(args))
        compared = {g for pair in self.pairs for g in pair}
        leaves: dict[int, dict[int, None]] = {}     # gate -> its group's leaves, in order
        inner: dict[int, list[int]] = {}            # gate -> the arguments in its group
        for step in steps:
            g = step[0]
            args = dict.fromkeys(reads[g])
            fold = [a for a in args if readers[a] == 1 and a not in compared
                    and step_of[a][1] != 0]
            while True:
                group: dict[int, None] = {}
                for a in args:
                    group.update(leaves[a] if a in fold else {a: None})
                if len(group) <= limit or not fold:
                    break
                fold.remove(max(fold, key=lambda a: len(leaves[a])))
            leaves[g], inner[g] = group, fold
        folded = {a for args in inner.values() for a in args}
        grids: dict[int, list[bytes]] = {}     # k -> the k leaf columns in product order
        out = []
        for step in steps:
            g = step[0]
            if g in folded:
                continue
            k = len(leaves[g])
            if tuple(leaves[g]) != reads[g]:
                members, todo = [], [g]
                while todo:
                    members.append(todo.pop())
                    todo.extend(inner[members[-1]])
                columns = grids.get(k)
                if columns is None:     # leaf j takes each value n^(k-1-j) times in turn
                    columns = grids[k] = [
                        b"".join([bytes((v,)) * n ** (k - 1 - j) for v in range(n)]) * n ** j
                        for j in range(k)]
                program = [(leaf, 0, j, 3) for j, leaf in enumerate(leaves[g])]
                program += [step_of[m][:-1] + (3,) for m in sorted(members)]
                table = self._run(program, columns, n ** k)[1][g].ljust(256, b"\0")
                step = ((g, 1, table[0], 0) if k == 0 else
                        (g, 2, table, next(iter(leaves[g])), 0) if k == 1 else
                        (g, 3, table, tuple(leaves[g]), 0))
            out.append(step)
        # how the folded steps read each gate, as in __init__
        use = dict.fromkeys(compared, 1)
        for step in out:
            if step[1] == 3:
                for a in step[3]:
                    use[a] = use.get(a, 0) | 1
            elif step[1] == 2:
                use[step[3]] = use.get(step[3], 0) | 2
        self.steps = [step[:-1] + (use[step[0]],) for step in out]
        self.fold_in = None


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class CsatInstance:
    circuit: Circuit

    def __post_init__(self) -> None:
        if len(self.circuit.outputs) != 2:
            raise ValueError("CSAT instance needs exactly 2 outputs")


@dataclass(frozen=True)
class McsatInstance:
    circuit: Circuit

    def __post_init__(self) -> None:
        if len(self.circuit.outputs) < 2:
            raise ValueError("MCSAT instance needs at least 2 outputs")


@dataclass(frozen=True)
class CeqvInstance:
    circuit: Circuit

    def __post_init__(self) -> None:
        if len(self.circuit.outputs) != 2:
            raise ValueError("CEQV instance needs exactly 2 outputs")


@dataclass(frozen=True)
class ScsatInstance:
    """A system of equations g_i = h_i over one shared gate list."""

    circuit: Circuit
    equations: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for g, h in self.equations:
            for x in (g, h):
                if not 0 <= x < len(self.circuit.gates):
                    raise ValueError(f"equation gate g{x} out of range")


Instance = CsatInstance | McsatInstance | CeqvInstance | ScsatInstance


# ---------------------------------------------------------------------------
# Builder


class CircuitBuilder:
    """Incremental construction with input-gate interning by name."""

    def __init__(self, algebra_name: str = ""):
        self.gates: list[Gate] = []
        self.algebra_name = algebra_name
        self._inputs: dict[str, int] = {}

    def input(self, name: str) -> int:
        if name in self._inputs:
            return self._inputs[name]
        self.gates.append(input_gate(name))
        self._inputs[name] = len(self.gates) - 1
        return self._inputs[name]

    def const(self, value: int) -> int:
        self.gates.append(const_gate(value))
        return len(self.gates) - 1

    def op(self, name: str, *args: int) -> int:
        self.gates.append(op_gate(name, args))
        return len(self.gates) - 1

    def inline_term(self, t: Term, binding: Sequence[int]) -> int:
        """Add gates computing t with Var(i) wired to gate binding[i]."""
        if isinstance(t, Var):
            return binding[t.index]
        if isinstance(t, TermConst):
            return self.const(t.value)
        assert isinstance(t, App)
        args = [self.inline_term(a, binding) for a in t.args]
        return self.op(t.op, *args)

    def build(self, outputs: Sequence[int]) -> Circuit:
        return Circuit(tuple(self.gates), tuple(outputs), self.algebra_name)


def iterated_commutator_circuit(alg: FiniteAlgebra, n: int,
                                mul: str = "mul", inv: str = "inv") -> Circuit:
    """Maximally shared circuit for t_n = [..[[x1,x2],x3]..,xn] with
    [a,b] = a^-1 b^-1 a b.  Has n input gates plus 5 gates per commutator."""
    if n < 2:
        raise ValueError("need n >= 2")
    b = CircuitBuilder(alg.name)
    xs = [b.input(f"x{i}") for i in range(1, n + 1)]
    acc = xs[0]
    for x in xs[1:]:
        ai = b.op(inv, acc)
        bi = b.op(inv, x)
        p1 = b.op(mul, ai, bi)
        p2 = b.op(mul, p1, acc)
        acc = b.op(mul, p2, x)
    return b.build([acc])


# ---------------------------------------------------------------------------
# Text format
#
#   gN = input <name>
#   gN = const <element>
#   gN = <opname> gI gJ ...
#   outputs: gI gJ ...
#   equation: gI gJ          (repeatable; systems of equations)


def serialize_circuit(c: Circuit) -> str:
    lines = []
    for i, g in enumerate(c.gates):
        if g.kind == "input":
            lines.append(f"g{i} = input {g.name}")
        elif g.kind == "const":
            lines.append(f"g{i} = const {g.value}")
        else:
            lines.append(f"g{i} = {g.name} " + " ".join(f"g{a}" for a in g.args))
    lines.append("outputs: " + " ".join(f"g{o}" for o in c.outputs))
    return "\n".join(lines) + "\n"


def _parse_gate_ref(tok: str, current: int, ln: int) -> int:
    if not tok.startswith("g"):
        raise ParseError(f"expected gate reference, got {tok!r}", ln)
    idx = parse_int(tok[1:], "gate number", ln)
    if idx >= current:
        raise ForwardReference(f"gate reference {tok} ahead of definition", ln)
    if idx < 0:
        raise ParseError(f"bad gate reference {tok!r}", ln)
    return idx


def parse_circuit(text: str, alg: Optional[FiniteAlgebra] = None,
                  algebra_name: str = "",
                  kind: Optional[Callable[[Circuit], object]] = None,
                  ) -> Circuit | ScsatInstance | CsatInstance | McsatInstance | CeqvInstance:
    """Parse the gate-list format.  Returns a ScsatInstance when equation
    lines are present, else a Circuit, or kind(circuit) with kind given
    (say CsatInstance), a ValueError from kind on a wrong output count
    then a ParseError at the outputs: line.  With alg given, op names and
    arities are checked at parse time."""
    gates: list[Gate] = []
    outputs: Optional[list[int]] = None
    outputs_line: Optional[int] = None
    equations: list[tuple[int, int]] = []
    if alg is not None and not algebra_name:
        algebra_name = alg.name
    opmap = {op.name: op for op in alg.ops} if alg is not None else None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("outputs:"):
            if outputs is not None:
                raise ParseError("second outputs: line", ln)
            toks = line[len("outputs:"):].split()
            outputs = [_parse_gate_ref(t, len(gates), ln) for t in toks]
            outputs_line = ln
            continue
        if line.startswith("equation:"):
            toks = line[len("equation:"):].split()
            if len(toks) != 2:
                raise ParseError("equation takes exactly two gate references", ln)
            g, h = (_parse_gate_ref(t, len(gates), ln) for t in toks)
            equations.append((g, h))
            continue
        parts = line.split()
        if len(parts) < 3 or parts[1] != "=":
            raise ParseError(f"cannot parse line {raw!r}", ln)
        if parts[0] != f"g{len(gates)}":
            raise ParseError(f"expected gate g{len(gates)}, got {parts[0]!r}", ln)
        head = parts[2]
        rest = parts[3:]
        if head == "input":
            if len(rest) != 1:
                raise ParseError("input takes one name", ln)
            gates.append(input_gate(rest[0]))
        elif head == "const":
            if len(rest) != 1:
                raise ParseError("const takes one element", ln)
            v = parse_int(rest[0], "constant", ln)
            if alg is not None and not 0 <= v < alg.size:
                raise ParseError(f"constant {v} out of range 0..{alg.size - 1}", ln)
            gates.append(const_gate(v))
        else:
            if head in _RESERVED:
                raise ParseError(f"malformed {head} line", ln)
            if opmap is not None:
                op = opmap.get(head)
                if op is None:
                    raise ParseError(f"unknown operation {head!r}", ln)
                if len(rest) != op.arity:
                    raise ParseError(
                        f"op {head} expects {op.arity} operands, got {len(rest)}", ln
                    )
            args = [_parse_gate_ref(t, len(gates), ln) for t in rest]
            gates.append(op_gate(head, args))
    if equations:
        circ = Circuit(tuple(gates), tuple(outputs) if outputs else (0,), algebra_name)
        return ScsatInstance(circ, tuple(equations))
    if not outputs:
        raise ParseError("missing outputs: line" if outputs is None else "outputs: line names no gate",
                         outputs_line)
    circ = Circuit(tuple(gates), tuple(outputs), algebra_name)
    if kind is None:
        return circ
    try:
        return kind(circ)
    except ValueError as exc:     # the wrong number of outputs for kind
        raise ParseError(str(exc), outputs_line) from None


# ---------------------------------------------------------------------------
# Random instance generation (seeded; used by tests and experiments)


def random_circuit(alg: FiniteAlgebra, rng, n_inputs: int, n_gates: int,
                   n_outputs: int = 2) -> Circuit:
    """Random topologically ordered circuit; inputs all appear first."""
    b = CircuitBuilder(alg.name)
    for i in range(n_inputs):
        b.input(f"x{i}")
    usable = [op for op in alg.ops if op.arity >= 1]
    while len(b.gates) < n_gates:
        roll = rng.random()
        if not usable or roll < 0.15:
            b.const(rng.randrange(alg.size))
            continue
        op = usable[rng.randrange(len(usable))]
        args = [rng.randrange(len(b.gates)) for _ in range(op.arity)]
        b.op(op.name, *args)
    outs = [rng.randrange(len(b.gates)) for _ in range(n_outputs)]
    return b.build(outs)
