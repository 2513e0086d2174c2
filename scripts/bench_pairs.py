#!/usr/bin/env python3
"""Compare two checkouts on every benchmark workload and write BENCH_<n>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --logs DIR --out BENCH_<n>.json

PARENT_DIR and CHANGE_DIR are checkouts of the parent commit and of the
change (made with `git archive` or `git clone`).  For each workload of
BENCHMARK.json this runs ten pairs of

    python3 perfbench/run.py --workload W --seed 1 --seconds 24 --trace 0

alternating which side runs first, then each side once on the held-out seed
20261017, and last three traced runs (--trace 1, classify-cold) per side,
again alternating.  The output of each run is kept in DIR as
<workload>_<side>_<seed>_<tag>.txt; a run whose file is already there is not
repeated, so an interrupted comparison resumes where it stopped.

Both sides start from source alone: before the first run the __pycache__
directories under each tree's src/ and perfbench/ are deleted, and every
run.py (with the workers it starts) runs with PYTHONDONTWRITEBYTECODE=1,
so neither side's set-up reads bytecode cached by an earlier run.

The JSON holds, per workload and side, the median and quartiles of every
end-to-end metric over the ten seed-1 runs, the number of pairs in which the
change is better, the held-out runs, the failure counts, and per side the
median and every value of each per-layer metric over the traced runs.  A
traced rate is not speed-normalised, so one traced run swings with the
host; the median of three is steadier.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
TRACED = 3
SEED, HELD_OUT = 1, 20261017
SECONDS = 24
SIDES = ("parent", "change")


def run(tree: Path, logs: Path, workload: str, side: str, seed: int, tag: str,
        trace: int = 0) -> dict:
    """The last JSON line of one run.py run, from its log when it exists."""
    log = logs / f"{workload}_{side}_{seed}_{tag}.txt"
    if not log.exists():
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(SECONDS), "--trace", str(trace)],
            cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True)
        log.write_text(proc.stdout + proc.stderr + f"exit {proc.returncode}\n")
    lines = [ln for ln in log.read_text().splitlines() if ln.startswith("{")]
    if not lines:
        raise SystemExit(f"{log}: the run printed no result")
    return json.loads(lines[-1])


def clear_bytecode(tree: Path) -> None:
    """Delete the cached bytecode under tree's src/ and perfbench/."""
    for top in ("src", "perfbench"):
        for cache in sorted((tree / top).rglob("__pycache__")):
            shutil.rmtree(cache)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(trees: dict[str, Path], logs: Path) -> dict:
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    out: dict = {"command": "python3 perfbench/run.py --workload W --seed N "
                            f"--seconds {SECONDS} --trace 0",
                 "pairs": PAIRS, "seed": SEED, "held_out_seed": HELD_OUT, "workloads": {}}
    for workload in (w["name"] for w in declared["workloads"]):
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(1, PAIRS + 1):
            for side in SIDES if i % 2 else reversed(SIDES):
                runs[side].append(run(trees[side], logs, workload, side, SEED, str(i)))
        held = {side: run(trees[side], logs, workload, side, HELD_OUT, "h") for side in SIDES}
        entry: dict = {"metrics": {}, "failed_per_run": {}, "correct": {}}
        for name, direction in better.items():
            vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
            wins = sum((c < p) if direction == "lower" else (c > p)
                       for p, c in zip(vals["parent"], vals["change"]))
            entry["metrics"][name] = {
                "unit": runs["parent"][0]["metrics"][name]["unit"],
                "better": direction,
                **{side: summary(vals[side]) for side in SIDES},
                "change_better_in_pairs": wins,
                "held_out": {side: held[side]["metrics"][name]["value"] for side in SIDES},
            }
        for side in SIDES:
            entry["failed_per_run"][side] = [f"{r['failed']}/{r['attempted']}"
                                             for r in runs[side] + [held[side]]]
            entry["correct"][side] = all(r["correct"] for r in runs[side] + [held[side]])
        out["workloads"][workload] = entry
    traced: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(1, TRACED + 1):
        for side in SIDES if i % 2 else reversed(SIDES):
            traced[side].append(run(trees[side], logs, "classify-cold", side, SEED,
                                    f"trace{i}", trace=1))
    names = dict.fromkeys(name for side in SIDES for r in traced[side] for name in r["metrics"])
    out["traced_classify_cold_seed1"] = {"runs": TRACED, "metrics": {
        name: {side: traced_summary(traced[side], name) for side in SIDES} for name in names}}
    return out


def traced_summary(runs: list[dict], name: str) -> dict | None:
    """Median and every value of one per-layer metric over the traced runs
    of one side; None when that side does not report the metric."""
    values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
    if not values:
        return None
    return {"median": statistics.median(values), "runs": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--logs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    args.logs.mkdir(parents=True, exist_ok=True)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        clear_bytecode(tree)
    result = compare(trees, args.logs)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
