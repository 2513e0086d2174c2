import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mvcirc.algebra import App, Const, Var, eval_term, pack_column
from mvcirc.circuit import (
    FOLD_AT,
    BlockProgram,
    CeqvInstance,
    CircuitBuilder,
    CsatInstance,
    McsatInstance,
    ScsatInstance,
    compile_circuit,
    eval_circuit,
    gate_values,
    iterated_commutator_circuit,
    parse_circuit,
    random_circuit,
    serialize_circuit,
)
from mvcirc.errors import (
    ArityMismatch,
    ElementOutOfRange,
    ForwardReference,
    ParseError,
    UnboundInput,
    UnknownOp,
)
from mvcirc.solvers import _lex_blocks
from mvcirc.zoo import get

from conftest import EDGE_ALGEBRAS, random_edge_circuit


def _term_size(t):
    if isinstance(t, App):
        return 1 + sum(_term_size(a) for a in t.args)
    return 1


def test_eval_meet_join_pair(lat2):
    b = CircuitBuilder("2lattice")
    x, y = b.input("x"), b.input("y")
    c = b.build([b.op("meet", x, y), b.op("join", x, y)])
    assert eval_circuit(lat2, c, {"x": 0, "y": 1}) == (0, 1)


def test_eval_s3_commutator_of_commuting_elements(s3):
    c = iterated_commutator_circuit(s3, 2)
    # rotations commute: [r, r^2] = identity
    assert eval_circuit(s3, c, {"x1": 3, "x2": 4}) == (0,)
    # non-commuting transpositions give a nonidentity element
    assert eval_circuit(s3, c, {"x1": 1, "x2": 2}) != (0,)


def test_shared_gate_evaluates_once(lat2):
    b = CircuitBuilder("2lattice")
    x, y = b.input("x"), b.input("y")
    shared = b.op("meet", x, y)
    c = b.build([b.op("join", shared, x), b.op("meet", shared, y)])
    count = {}
    eval_circuit(lat2, c, {"x": 1, "y": 1}, hook=lambda i, v: count.__setitem__(i, count.get(i, 0) + 1))
    assert all(v == 1 for v in count.values())
    assert len(count) == len(c.gates)


def test_unbound_input(lat2):
    b = CircuitBuilder("2lattice")
    x = b.input("x")
    c = b.build([x])
    with pytest.raises(UnboundInput):
        eval_circuit(lat2, c, {})


# ---------------------------------------------------------------------------
# Gate-count fact for the iterated commutator


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_iterated_commutator_gate_count(s3, n):
    c = iterated_commutator_circuit(s3, n)
    assert len(c.gates) == 6 * n - 5


def _commutator_word(a, b):
    """[a, b] = a^-1 b^-1 a b, multiplied left to right."""
    inv_a, inv_b = App("inv", (a,)), App("inv", (b,))
    return App("mul", (App("mul", (App("mul", (inv_a, inv_b)), a)), b))


def test_iterated_commutator_semantics(s3):
    # against the term [[x1, x2], x3], for n = 3
    c = iterated_commutator_circuit(s3, 3)
    t = _commutator_word(_commutator_word(Var(0), Var(1)), Var(2))
    for asg in itertools.product(range(6), repeat=3):
        env = {"x1": asg[0], "x2": asg[1], "x3": asg[2]}
        assert eval_circuit(s3, c, env) == (eval_term(s3, t, asg),)


# ---------------------------------------------------------------------------
# Terms inlined into circuits


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inline_term_eval_agrees_randomized(data):
    alg = get(data.draw(st.sampled_from(["Z4", "2lattice", "2boolean", "majority", "S3"])))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))

    def rand_term(depth):
        usable = [op for op in alg.ops if op.arity >= 1]
        if depth == 0 or rng.random() < 0.3:
            return Var(rng.randrange(3)) if rng.random() < 0.7 else Const(rng.randrange(alg.size))
        op = usable[rng.randrange(len(usable))]
        return App(op.name, tuple(rand_term(depth - 1) for _ in range(op.arity)))

    t = rand_term(3)
    b = CircuitBuilder(alg.name)
    c = b.build([b.inline_term(t, [b.input(f"x{i}") for i in range(3)])])
    for asg in itertools.product(range(alg.size), repeat=3):
        env = {f"x{i}": asg[i] for i in range(3)}
        assert eval_circuit(alg, c, env)[0] == eval_term(alg, t, asg)


# ---------------------------------------------------------------------------
# Text format


def test_parse_serialize_round_trip(lat2):
    text = "g0 = input x\ng1 = input y\ng2 = meet g0 g1\noutputs: g2 g0\n"
    c = parse_circuit(text, lat2)
    assert serialize_circuit(c) == text
    assert parse_circuit(serialize_circuit(c), lat2) == c


def test_parse_forward_reference():
    with pytest.raises(ForwardReference):
        parse_circuit("g0 = meet g1 g0\ng1 = input x\noutputs: g0\n")


def test_parse_unknown_op(lat2):
    with pytest.raises(ParseError) as exc:
        parse_circuit("g0 = input x\ng1 = frobnicate g0\noutputs: g1\n", lat2)
    assert "frobnicate" in str(exc.value)


def test_parse_system(lat2):
    text = (
        "g0 = input x\ng1 = input y\ng2 = meet g0 g1\ng3 = const 1\n"
        "equation: g2 g3\nequation: g0 g1\n"
    )
    inst = parse_circuit(text, lat2)
    assert isinstance(inst, ScsatInstance)
    assert inst.equations == ((2, 3), (0, 1))


def test_parse_missing_outputs(lat2):
    with pytest.raises(ParseError):
        parse_circuit("g0 = input x\n", lat2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_circuit_round_trips(seed):
    alg = get("majority")
    rng = random.Random(seed)
    c = random_circuit(alg, rng, n_inputs=3, n_gates=9, n_outputs=2)
    text = serialize_circuit(c)
    assert parse_circuit(text, alg) == c
    assert serialize_circuit(parse_circuit(text, alg)) == text


# ---------------------------------------------------------------------------
# Instance validation


def test_instance_output_counts(lat2):
    b = CircuitBuilder("2lattice")
    x = b.input("x")
    one_out = b.build([x])
    with pytest.raises(ValueError):
        CsatInstance(one_out)
    with pytest.raises(ValueError):
        McsatInstance(one_out)
    with pytest.raises(ValueError):
        CeqvInstance(one_out)
    three = b.build([x, x, x])
    McsatInstance(three)  # fine
    with pytest.raises(ValueError):
        CsatInstance(three)


def test_compile_matches_eval(z6):
    rng = random.Random(13)
    for _ in range(20):
        c = random_circuit(z6, rng, 3, 10, 2)
        run = compile_circuit(z6, c)
        names = sorted(c.input_names)
        for asg in itertools.product(range(6), repeat=len(names)):
            env = dict(zip(names, asg))
            assert run(asg) == eval_circuit(z6, c, env)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(EDGE_ALGEBRAS), st.integers(0, 2 ** 32), st.integers(1, 300))
def test_block_kernel_matches_eval(alg, seed, count):
    rng = random.Random(seed)
    c = random_edge_circuit(alg, rng, rng.randrange(4), rng.randrange(1, 14), 2)
    pairs = [(rng.randrange(len(c.gates)), rng.randrange(len(c.gates)))
             for _ in range(rng.randrange(4))]
    prog = BlockProgram(alg, c, pairs)
    assert prog.names == sorted(c.input_names)
    assignments = [tuple(rng.randrange(alg.size) for _ in prog.names) for _ in range(count)]
    columns = [pack_column(prog.width, (a[i] for a in assignments)) for i in range(len(prog.names))]
    flags = prog.mismatches(columns, count)
    assert len(flags) == count
    for p, values in enumerate(assignments):
        assert prog.assignment(columns, p) == values
        vals = gate_values(alg, c, dict(zip(prog.names, values)))
        expected = any(vals[a] != vals[b] for a, b in pairs)
        assert (flags[p] != 0) == prog.differs(values) == expected


def test_block_kernel_uses_two_byte_digits_for_wide_tables():
    def identity(alg):
        b = CircuitBuilder(alg.name)
        return b.build([b.input("x0")])

    widths = {alg.name: BlockProgram(alg, identity(alg), []).width for alg in EDGE_ALGEBRAS}
    assert widths["W17"] == widths["T7"] == 2
    assert widths["Z6"] == widths["majority"] == widths["one"] == 1


def _fold_circuit(alg, rng):
    """A random circuit and pairs for the fold.  Op gates of every arity
    read mostly the last four gates, so groups chain past the leaf bound,
    arguments repeat and gates have several readers; constants come first
    and among them (all the gates, past the inputs, of an algebra with no
    ops); the pairs compare the last gate with a gate that some op gate reads,
    then maybe any two gates."""
    b = CircuitBuilder(alg.name)
    for i in range(rng.randrange(1, 6)):
        b.input(f"x{i}")
    b.const(rng.randrange(alg.size))
    for _ in range(rng.randrange(4, 24)):
        if not alg.ops or rng.random() < 0.1:
            b.const(rng.randrange(alg.size))
            continue
        op = rng.choice(alg.ops)
        near = len(b.gates)
        b.op(op.name, *(rng.randrange(max(0, near - 4), near) if rng.random() < 0.8
                        else rng.randrange(near) for _ in range(op.arity)))
    last = len(b.gates) - 1
    read = [a for g in b.gates for a in g.args] or [last]
    pairs = [(last, rng.choice(read)), (rng.randrange(last + 1), rng.randrange(last + 1))]
    return b.build([last]), pairs[:rng.randrange(1, 3)]


@pytest.mark.parametrize("alg", EDGE_ALGEBRAS, ids=lambda alg: alg.name)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32), count=st.integers(256, 700))
def test_folded_kernel_matches_unfolded(alg, seed, count):
    rng = random.Random(seed)
    c, pairs = _fold_circuit(alg, rng)
    prog = BlockProgram(alg, c, pairs)
    assignments = [tuple(rng.randrange(alg.size) for _ in prog.names) for _ in range(count)]
    columns = [pack_column(prog.width, (a[i] for a in assignments)) for i in range(len(prog.names))]
    unfolded, steps = prog.mismatches(columns, count), prog.steps
    before = [prog.differs(values) for values in assignments]
    while prog.fold_in is not None:
        prog.mismatches(columns, count)
    flags = prog.mismatches(columns, count)
    assert (prog.steps is steps) == (prog.width == 2)     # one-byte digits alone fold
    assert flags == unfolded
    # a compared gate, and a gate that several steps read, stays a step
    readers = Counter(a for step in steps if step[1] >= 2
                      for a in ({step[3]} if step[1] == 2 else set(step[3])))
    kept = {step[0] for step in prog.steps}
    assert kept >= {g for pair in pairs for g in pair} | {a for a, n in readers.items() if n > 1}
    for p, values in enumerate(assignments):
        vals = gate_values(alg, c, dict(zip(prog.names, values)))
        expected = any(vals[a] != vals[b] for a, b in pairs)
        assert (flags[p] != 0) == prog.differs(values) == before[p] == expected


def test_s3_chain_folds_after_its_first_blocks(s3):
    # acc_i = acc_{i-1} (x_i x_{3i mod 7}): 7 inputs, 12 products, a
    # constant and acc_6 * 1.  Folded, each acc_i from acc_2 on takes in its
    # product (3 leaves, the most that 6^k <= 256 allows), acc_1 takes in
    # x_1 x_3, and acc_6 * 1 becomes a translate of acc_6: 14 steps.
    b = CircuitBuilder(s3.name)
    xs = [b.input(f"x{i}") for i in range(7)]
    acc = xs[0]
    for i in range(1, 7):
        acc = b.op("mul", acc, b.op("mul", xs[i], xs[3 * i % 7]))
    shifted = b.op("mul", acc, b.const(1))
    prog = BlockProgram(s3, b.build([acc, shifted]), [(acc, shifted)])
    evaluated, runs = 0, set()      # (FOLD_AT evaluated before the block, steps it ran)
    for columns, count in _lex_blocks(s3, 7):
        prog.mismatches(columns, count)
        runs.add((evaluated >= FOLD_AT, len(prog.steps)))
        evaluated += count
    assert runs == {(False, 21), (True, 14)}
    assert prog.steps[-1][:2] == (shifted, 2)


def test_hook_sees_every_gate_in_order(z6):
    c = random_circuit(z6, random.Random(5), 3, 12, 2)
    seen = []
    outputs = eval_circuit(z6, c, {"x0": 1, "x1": 4, "x2": 5}, hook=lambda i, v: seen.append((i, v)))
    assert [i for i, _ in seen] == list(range(len(c.gates)))
    assert outputs == tuple(seen[o][1] for o in c.outputs)
    assert [v for _, v in seen] == gate_values(z6, c, {"x0": 1, "x1": 4, "x2": 5})


def test_block_program_checks_every_gate(z6):
    b = CircuitBuilder(z6.name)
    x = b.input("x")
    b.op("nope", x)                   # not compared, still rejected
    with pytest.raises(UnknownOp):
        BlockProgram(z6, b.build([x]), [(0, 0)])
    b = CircuitBuilder(z6.name)
    b.const(6)
    with pytest.raises(ElementOutOfRange):
        BlockProgram(z6, b.build([0]), [])
    # a bad gate that the compared pair does not read, before or after it
    bad_gates = ((lambda b, x: b.op("nope", x), UnknownOp),
                 (lambda b, x: b.op("mul", x), ArityMismatch),
                 (lambda b, x: b.const(6), ElementOutOfRange))
    for add_bad, error in bad_gates:
        for bad_first in (True, False):
            b = CircuitBuilder(z6.name)
            x = b.input("x")
            if bad_first:
                add_bad(b, x)
            compared = b.op("inv", x)
            if not bad_first:
                add_bad(b, x)
            with pytest.raises(error):
                BlockProgram(z6, b.build([compared]), [(compared, x)])
