#!/usr/bin/env python3
"""How the PolyTime verdicts scale: for every zoo algebra and every problem
kind that the classification calls PolyTime, dispatch planted instances with
n inputs and about 3n gates at the default budget, and print per row the
route, the time, assignments_tried and any BudgetExceeded.  Every answer is
checked against its plant and, where |A|^n is at most BRUTE_MAX assignments,
against brute force.  This is a report: it asserts no scaling bound.

Usage: python scripts/polytime_scaling.py [limit_s] [n ...]

The plants are the benchmark's constructions in perfbench/instances.py:
- planted_system, an SCSAT system of two equations g = c on a random
  circuit of 3n gates, with c the value of g at a planted assignment (sat);
  its first equation is also the planted CSAT and MCSAT instance (sat), and
  g against a constant other than c the planted CEQV instance (nequiv);
- unsat_chain, CSAT g = g + 1 for the group operation + (unsat), over the
  algebras that have one;
- fold_pair, CEQV left against right fold under mul, half the inputs
  inverted (equiv), over the algebras with mul and inv.

A dispatch that runs past limit_s seconds (default 20) is stopped, and that
plant's larger sizes are skipped.  The sizes default to 10 20 40 80 160.
Exits 1 when an answer disagrees with its plant or with brute force.
"""

import random
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import instances  # the benchmark's seeded constructions, from perfbench/

from mvcirc.circuit import CeqvInstance, Circuit, CsatInstance, McsatInstance, const_gate
from mvcirc.errors import BudgetExceeded
from mvcirc.solvers import dispatch, solve_bruteforce
from mvcirc.structure import classify
from mvcirc.zoo import zoo

KINDS = ("CSAT", "MCSAT", "SCSAT", "CEQV")
SIZES = (10, 20, 40, 80, 160)
BRUTE_MAX = 2 ** 20     # the most assignments the brute-force cross-check evaluates


class TimeLimit(Exception):
    pass


def _stop(signum, frame):
    raise TimeLimit


def plants(alg, kind, rng, n):
    """(name, instance, answer) for each plant of kind with n inputs."""
    system = instances.planted_system(alg, rng, n)
    circ = system.circuit
    g, c = system.equations[0]
    ops = {op.name for op in alg.ops}
    if kind == "SCSAT":
        yield "planted system", system, "sat"
    elif kind == "CSAT":
        yield "planted equation", CsatInstance(circ.with_outputs((g, c))), "sat"
        if ops & {"add", "mul"}:
            yield "unsat chain", instances.unsat_chain(alg, rng, n), "unsat"
    elif kind == "MCSAT":
        yield "planted equation", McsatInstance(circ.with_outputs((g, c))), "sat"
    else:
        other = const_gate((circ.gates[c].value + 1) % alg.size)
        differs = Circuit(circ.gates + (other,), (g, len(circ.gates)), circ.algebra_name)
        yield "planted difference", CeqvInstance(differs), "nequiv"
        if {"mul", "inv"} <= ops:
            yield "fold pair", instances.fold_pair(alg, rng, n), "equiv"


def timed_dispatch(alg, inst, limit):
    """(the result, seconds): a SolveResult, the BudgetExceeded raised, or
    None when the dispatch ran past limit seconds."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            return dispatch(alg, inst), time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded as exc:
        return exc, time.perf_counter() - start
    except TimeLimit:
        return None, limit


def main() -> int:
    limit = float(sys.argv[1]) if len(sys.argv) > 1 else 20.0
    sizes = [int(a) for a in sys.argv[2:]] or list(SIZES)
    previous = signal.signal(signal.SIGALRM, _stop)
    wrong = 0
    print(f"{'algebra':9} {'kind':6} {'plant':19} {'n':>4} {'gates':>5}  "
          f"{'route':34} {'seconds':>8} {'tried':>9}  outcome")
    try:
        for entry in zoo():
            alg = entry.algebra
            verdicts = classify(alg).verdicts
            for kind in (k for k in KINDS if verdicts[k].kind == "PolyTime"):
                if not any(op.arity for op in alg.ops):
                    print(f"{alg.name:9} {kind:6} no plant: the algebra has no operations")
                    continue
                stopped: dict[str, int] = {}      # plant -> the size it ran out of time at
                for n in sizes:
                    rng = random.Random(f"{alg.name}:{kind}:{n}")
                    for plant, inst, answer in plants(alg, kind, rng, n):
                        gates = len(inst.circuit.gates)
                        head = f"{alg.name:9} {kind:6} {plant:19} {n:4d} {gates:5d}"
                        if plant in stopped:
                            print(f"{head}  skipped: over {limit:g} s at n = {stopped[plant]}")
                            continue
                        res, seconds = timed_dispatch(alg, inst, limit)
                        route, tried = "-", "-"
                        if res is None:
                            stopped[plant] = n
                            outcome = f"over {limit:g} s"
                        elif isinstance(res, BudgetExceeded):
                            outcome = f"BudgetExceeded: {res}"
                        else:
                            route, tried = res.solver_used, res.assignments_tried
                            outcome = res.answer
                            if res.answer != answer:
                                wrong += 1
                                outcome += f" WRONG, planted {answer}"
                            if alg.size ** len(inst.circuit.input_names) <= BRUTE_MAX:
                                brute = solve_bruteforce(alg, inst, BRUTE_MAX).answer
                                if brute != res.answer:
                                    wrong += 1
                                    outcome += f" WRONG, brute force says {brute}"
                        print(f"{head}  {route:34} {seconds:8.3f} {tried:>9}  {outcome}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
