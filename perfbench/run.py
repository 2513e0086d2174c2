#!/usr/bin/env python3
"""mvcirc benchmark: one command, every metric by name and unit, answers checked.

    python3 perfbench/run.py --workload {classify-cold,dispatch-mix,large-n}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  Load
comes from one closed-loop client in one process at a time, no threads.
Worker processes (worker.py) do the timed work, started one after another;
this process generates the same seeded inputs again and checks every answer
the workers report, outside any timed region.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run (see README.md).  The last line of standard output is
one JSON object {correct, attempted, failed, metrics}.  The exit code is 1
when any answer is wrong, 2 when the program cannot be imported and 3 when
a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
DEADLINE_S = 170.0

WORKLOADS = ("classify-cold", "dispatch-mix", "large-n")
# share of --seconds measured by each worker process; a share of 0 only
# sets up, so every run sees at least three set-ups
SHARES = {"dispatch-mix": (1 / 3, 1 / 3, 1 / 3), "large-n": (1 / 2, 1 / 2, 0.0)}
COLD_MIN_PASSES = 3


class WorkerFailed(Exception):
    pass


def _worker(args: list[str], started: float) -> dict:
    # fixed string hashing, so set iteration order is the same in every process
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    budget = DEADLINE_S - (time.monotonic() - started)
    if budget <= 0:
        raise WorkerFailed("out of time before starting a worker")
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args, repr(spawn)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args[:2]} timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(workload: str, seed: int, seconds: float, started: float,
                one_pass: bool = False) -> list[dict]:
    """Untraced timed passes; with one_pass, a single pass in a single
    process (the traced run's baseline and answer check)."""
    if workload == "classify-cold" or one_pass:
        # cold state means a fresh interpreter for every classify-cold pass
        out: list[dict] = []
        t0 = time.monotonic()
        while True:
            out.append(_worker(["pass", workload, str(seed), "1e-9", str(len(out))], started))
            elapsed = time.monotonic() - t0
            if one_pass or (len(out) >= COLD_MIN_PASSES and elapsed + elapsed / len(out) > seconds):
                return out
    return [
        _worker(["pass", workload, str(seed), repr(share * seconds), str(1000 * k)], started)
        for k, share in enumerate(SHARES[workload])
    ]


# ---------------------------------------------------------------------------
# correctness, checked outside the timed region


class Checker:
    def __init__(self, workload: str, seed: int) -> None:
        sys.path.insert(0, str(SRC))
        sys.path.insert(0, str(HERE))
        import instances as gen
        from mvcirc.zoo import get, zoo

        self.workload = workload
        self.errors: list[str] = []
        self.get = get
        if workload == "classify-cold":
            self.golden = {e.name: e.golden for e in zoo()}
        elif workload == "dispatch-mix":
            from mvcirc.solvers import solve_bruteforce

            self.cases = gen.dispatch_mix(seed)
            self.expected = [solve_bruteforce(get(c.algebra), c.instance).answer
                             for c in self.cases]
        else:
            feasible, beyond = gen.large_cases(seed)
            self.cases = feasible + beyond
            self.expected = [c.planted for c in self.cases]

    def check(self, key, outcome: dict) -> None:
        if "error" in outcome:
            return
        if self.workload == "classify-cold":
            self._check_golden(key, outcome)
            return
        case = self.cases[key]
        if outcome["answer"] != self.expected[key]:
            self.errors.append(f"{case.name}: answer {outcome['answer']}, "
                               f"expected {self.expected[key]}")
        witness = outcome["witness"]
        if witness is not None and not witness_ok(self.get(case.algebra), case.instance, witness):
            self.errors.append(f"{case.name}: witness {witness} does not re-evaluate")
        if case.cnf is not None and witness is not None:
            asg = [witness[f"x{v}"] == 1 for v in range(1, case.cnf.num_vars + 1)]
            if not case.cnf.satisfied_by(asg):
                self.errors.append(f"{case.name}: witness does not satisfy the CNF")

    def _check_golden(self, name: str, report: dict) -> None:
        golden = self.golden[name]
        for prob, kind in golden.get("verdicts", {}).items():
            if report["verdicts"][prob]["kind"] != kind:
                self.errors.append(f"{name} {prob}: {report['verdicts'][prob]['kind']} != {kind}")
        for flag, want in golden.get("flags", {}).items():
            if flag == "typeset":
                got = report["typeset"]
            elif flag == "poly_equiv_to_some_lattice":
                # not part of the classify report; asked of the library directly
                from mvcirc.structure import is_poly_equiv_to_some_lattice

                got = is_poly_equiv_to_some_lattice(self.get(name))
            else:
                got = report["flags"][flag]
            if got != want:
                self.errors.append(f"{name} flag {flag}: {got} != {want}")


def witness_ok(alg, inst, witness: dict) -> bool:
    """Re-evaluate a witness with the eval_circuit oracle."""
    from mvcirc.circuit import CeqvInstance, ScsatInstance, eval_circuit

    circ = inst.circuit
    if sorted(witness) != sorted(circ.input_names):
        return False
    vals: list[int] = []
    eval_circuit(alg, circ, witness, hook=lambda i, v: vals.append(v))
    if isinstance(inst, ScsatInstance):
        return all(vals[g] == vals[h] for g, h in inst.equations)
    outs = [vals[o] for o in circ.outputs]
    if isinstance(inst, CeqvInstance):
        return outs[0] != outs[1]
    return all(o == outs[0] for o in outs)


# ---------------------------------------------------------------------------
# metrics


def _p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def end_to_end(workers: list[dict], raw: bool = False) -> dict[str, float]:
    """Timings are medians over passes; latency percentiles are taken over
    operations, each operation's latency being its median over passes.
    Speed-normalised seconds unless raw (see worker.py)."""
    lat, wall, setup = ("raw", "raw_wall", "setup_raw_s") if raw else ("lat", "wall", "setup_s")
    passes = [p for w in workers for p in w["passes"]]
    per_op: dict = {}
    for p in passes:
        for key, seconds in zip(p["keys"][:p["timed"]], p[lat]):
            per_op.setdefault(key, []).append(seconds)
    op_s = [statistics.median(v) for v in per_op.values()]
    return {
        "setup_s": statistics.median(w[setup] for w in workers),
        "pass_s": statistics.median(p[wall] for p in passes),
        "ops_per_s": statistics.median(p["timed"] / p[wall] for p in passes),
        "op_ms_p50": statistics.median(op_s) * 1e3,
        "op_ms_p99": _p99(op_s) * 1e3,
        "peak_rss_mb": max(w["rss_mb"] for w in workers),
    }


def check_outcomes(checker: Checker, workers: list[dict]) -> tuple[int, int]:
    attempted = failed = 0
    for w in workers:
        for p in w["passes"]:
            for key, outcome in zip(p["keys"], p["outcomes"]):
                attempted += 1
                failed += "error" in outcome
                checker.check(key, outcome)
    return attempted, failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "mvcirc" / "__init__.py").is_file():
        print(f"error: mvcirc sources not found under {SRC}", file=sys.stderr)
        return 2

    checker = Checker(args.workload, args.seed)
    print(f"# mvcirc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# host: {os.cpu_count()} cpus, python {platform.python_version()}, "
          "no hardware counters; load from one process, one closed-loop client, no threads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    try:
        workers = run_workers(args.workload, args.seed, args.seconds, started, bool(args.trace))
        traced = None
        if args.trace:
            RESULTS.mkdir(exist_ok=True)
            spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
            traced = _worker(["trace", str(args.seed), str(spans_path)], started)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted, failed = check_outcomes(checker, workers)
    e2e = end_to_end(workers)
    passes = [p for w in workers for p in w["passes"]]
    print(f"# {len(workers)} worker processes, {len(passes)} timed passes, "
          f"{passes[0]['timed']} timed operations per pass (latency percentiles over "
          f"{passes[0]['timed']} per-operation medians)")
    raw = end_to_end(workers, raw=True)
    ref_ms = statistics.median(p["ref_s"] for p in passes) * 1e3
    print("# raw, not speed-normalised: " + ", ".join(
        f"{k} {v:.6g}" for k, v in raw.items() if k != "peak_rss_mb")
        + f"; reference kernel {ref_ms:.4f} ms (nominal {1e3 * NOMINAL_S:g} ms)")
    if traced is None:
        values = e2e
    else:
        values = dict(traced["metrics"])
        untraced = statistics.median(p["wall"] for p in passes)
        values["trace.overhead_ratio"] = traced["walls"][args.workload] / untraced
        print(f"# traced run: {traced['spans']} spans written to {spans_path.relative_to(ROOT)}; "
              f"tracing overhead on {args.workload}: traced pass "
              f"{traced['walls'][args.workload]:.4f} s vs untraced {untraced:.4f} s")
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations raised)")
    for err in checker.errors[:20]:
        print(f"WRONG: {err}")
    result = {"correct": not checker.errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not checker.errors else 1


if __name__ == "__main__":
    sys.exit(main())
