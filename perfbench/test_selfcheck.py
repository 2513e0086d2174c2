"""Self-check of the benchmark's own code (not part of the repo's test suite).

    python3 -m pytest -q perfbench

Seeded generation must repeat exactly, every planted large-n answer must
agree with brute force at a small n, and the answer checker must reject
wrong answers, wrong witnesses and wrong classifications.
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import instances as gen  # noqa: E402
import run  # noqa: E402
from mvcirc.circuit import serialize_circuit  # noqa: E402
from mvcirc.solvers import solve_bruteforce  # noqa: E402
from mvcirc.zoo import get  # noqa: E402


def _fingerprint(cases):
    return [(c.name, c.kind, c.planted, serialize_circuit(c.instance.circuit),
             getattr(c.instance, "equations", None)) for c in cases]


def test_same_seed_same_instances():
    assert _fingerprint(gen.dispatch_mix(7)) == _fingerprint(gen.dispatch_mix(7))
    assert _fingerprint(sum(gen.large_cases(7), [])) == _fingerprint(sum(gen.large_cases(7), []))
    assert _fingerprint(gen.dispatch_mix(7)) != _fingerprint(gen.dispatch_mix(8))
    assert _fingerprint(sum(gen.large_cases(7), [])) != _fingerprint(sum(gen.large_cases(8), []))


def test_dispatch_mix_shape_is_seed_independent():
    def shape(cases):
        return sorted((c.name, len(c.instance.circuit.gates), len(c.instance.circuit.input_names))
                      for c in cases)

    cases = gen.dispatch_mix(3)
    assert len(cases) == 1008
    for kind in gen.KINDS:
        assert sum(c.kind == kind for c in cases) == 252
    for c in cases:
        assert 5 <= len(c.instance.circuit.gates) <= 17
        assert len(c.instance.circuit.input_names) <= 5
    assert shape(cases) == shape(gen.dispatch_mix(4))


def test_large_n_sizes():
    feasible, beyond = gen.large_cases(1)
    inputs = {c.name: len(c.instance.circuit.input_names) for c in feasible + beyond}
    assert inputs == {"Z4ring/chain": 9, "Z6/chain": 7, "Z6/fold": 7, "S3/chain": 7,
                      "Z6/affine": 6, "Z2xZ2/affine": 8, "2boolean/3sat-16": 16,
                      "Z6/chain-40": 40, "Z4ring/chain-40": 40, "Z6/affine-40": 40,
                      "Z2xZ2/affine-40": 40}
    threesat = feasible[-1]
    assert len(threesat.instance.circuit.gates) == 326
    assert threesat.cnf.satisfied_by([True] * 16)


@pytest.mark.parametrize("seed", range(5))
def test_planted_answers_agree_with_brute_force(seed):
    rng = random.Random(seed)
    built = [
        ("Z4ring", gen.unsat_chain(get("Z4ring"), rng, 4), "unsat"),
        ("Z6", gen.unsat_chain(get("Z6"), rng, 3), "unsat"),
        ("S3", gen.unsat_chain(get("S3"), rng, 3), "unsat"),
        ("Z6", gen.fold_pair(get("Z6"), rng, 4), "equiv"),
        ("Z6", gen.planted_system(get("Z6"), rng, 3), "sat"),
        ("Z2xZ2", gen.planted_system(get("Z2xZ2"), rng, 4), "sat"),
    ]
    small_3sat = gen.threesat_case(rng, num_vars=6, num_clauses=14, negatives=9)
    built.append(("2boolean", small_3sat.instance, "sat"))
    for alg_name, inst, planted in built:
        alg = get(alg_name)
        res = solve_bruteforce(alg, inst)
        assert res.answer == planted, alg_name
        if res.witness is not None:
            assert run.witness_ok(alg, inst, res.witness)
    res = solve_bruteforce(get("2boolean"), small_3sat.instance)
    assert res.witness == {f"x{v}": 1 for v in range(1, 7)}


def test_checker_rejects_wrong_answers():
    checker = run.Checker("large-n", 1)
    chain, affine = 0, 4
    assert checker.cases[chain].planted == "unsat"
    checker.check(chain, {"answer": "unsat", "witness": None})
    checker.check(chain, {"error": "BudgetExceeded: too big"})
    assert checker.errors == []
    checker.check(chain, {"answer": "sat", "witness": None})
    assert len(checker.errors) == 1
    inst = checker.cases[affine].instance
    zeros = {nm: 0 for nm in inst.circuit.input_names}
    good = solve_bruteforce(get("Z6"), inst).witness
    checker.check(affine, {"answer": "sat", "witness": good})
    assert len(checker.errors) == 1
    if not run.witness_ok(get("Z6"), inst, zeros):
        checker.check(affine, {"answer": "sat", "witness": zeros})
        assert len(checker.errors) == 2


def test_checker_rejects_wrong_classification():
    checker = run.Checker("classify-cold", 1)
    report = {"verdicts": {p: {"kind": "PolyTime"} for p in gen.KINDS},
              "flags": {"dl_like": "yes", "nilpotent": False}, "typeset": []}
    checker.check("Z6", report)
    assert checker.errors == []
    checker.check("2lattice", report)   # golden SCSAT/CEQV verdicts differ
    assert len(checker.errors) == 2
