"""The experiment scripts run end to end on small batches."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from mvcirc.circuit import CeqvInstance, CircuitBuilder, CsatInstance, ScsatInstance
from mvcirc.zoo import get, zoo

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["classify_zoo.py"],
    ["support_profile.py", "Z4", "20", "0"],
    ["solver_shootout.py", "Z6", "20", "0"],    # exits 1 on any disagreement
    ["polytime_scaling.py", "10", "3", "5"],    # exits 1 on an answer against its plant
    ["malcev_scaling.py", "Z16", "E2^4"],       # exits 1 if a child fails
], ids=lambda argv: argv[0])
def test_script_exits_cleanly(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_malcev_scaling_builds_d8_times_z2_as_a_nonabelian_group():
    spec = importlib.util.spec_from_file_location("malcev_scaling",
                                                  ROOT / "scripts" / "malcev_scaling.py")
    malcev_scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(malcev_scaling)
    alg = malcev_scaling.build("D8xZ2")
    mul, inv = (alg.op(name).table for name in ("mul", "inv"))
    n = alg.size

    def times(x, y):
        return mul[x * n + y]

    assert n == 16 and alg.name == "D8xZ2"
    assert all(times(times(x, y), z) == times(x, times(y, z))
               for x in range(n) for y in range(n) for z in range(n))
    assert all(times(0, x) == x == times(x, 0) and times(x, inv[x]) == 0 for x in range(n))
    # D8's centre has order 2, so the product's has order 4
    assert sum(all(times(x, y) == times(y, x) for y in range(n)) for x in range(n)) == 4
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "malcev_scaling.py"), "D8xZ2"],
                         capture_output=True, text=True, env=env, check=True).stdout
    assert re.search(r"^D8xZ2 .* False +\[2\]$", out, re.MULTILINE), out


def test_classify_zoo_times_each_row_in_milliseconds():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "classify_zoo.py")],
                         capture_output=True, text=True, env=env, check=True).stdout
    times = [float(m) for m in re.findall(r"\[(\d+\.\d\d) ms\]$", out, re.MULTILINE)]
    # a coarse clock read every row as zero
    assert len(times) == len(zoo()) and sum(times) > 0


def test_bench_pairs_takes_the_median_of_three_traced_runs(tmp_path, monkeypatch):
    """compare() reads every run from its log when the log is there, so
    written logs stand in for the benchmark runs."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = {}
    for side in bench_pairs.SIDES:
        trees[side] = tmp_path / side
        trees[side].mkdir()
        (trees[side] / "BENCHMARK.json").write_text(json.dumps(declared))
    logs = tmp_path / "logs"
    logs.mkdir()

    def log(workload, side, seed, tag, metrics):
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
            name: {"value": value, "unit": "s"} for name, value in metrics.items()}})
        (logs / f"{workload}_{side}_{seed}_{tag}.txt").write_text(f"noise\n{line}\nexit 0\n")

    e2e = {m["name"]: 1.0 for m in declared["end_to_end"]}
    for workload in (w["name"] for w in declared["workloads"]):
        for side in bench_pairs.SIDES:
            for tag in [str(i) for i in range(1, bench_pairs.PAIRS + 1)] + ["h"]:
                seed = bench_pairs.HELD_OUT if tag == "h" else bench_pairs.SEED
                log(workload, side, seed, tag, e2e)
    for i, value in enumerate([1.0, 2.0, 6.0], start=1):
        log("classify-cold", "parent", bench_pairs.SEED, f"trace{i}", {"tct.s": value})
        log("classify-cold", "change", bench_pairs.SEED, f"trace{i}",
            {"tct.s": value / 2, "new.s": value})

    order = []
    read = bench_pairs.run

    def run(tree, logs, workload, side, seed, tag, trace=0):
        order.append((side, tag))
        return read(tree, logs, workload, side, seed, tag, trace)

    monkeypatch.setattr(bench_pairs, "run", run)
    traced = bench_pairs.compare(trees, logs)["traced_classify_cold_seed1"]
    assert order[-6:] == [("parent", "trace1"), ("change", "trace1"), ("change", "trace2"),
                          ("parent", "trace2"), ("parent", "trace3"), ("change", "trace3")]
    assert traced["runs"] == 3
    assert traced["metrics"]["tct.s"] == {
        "parent": {"median": 2.0, "runs": [1.0, 2.0, 6.0]},
        "change": {"median": 1.0, "runs": [0.5, 1.0, 3.0]},
    }
    assert traced["metrics"]["new.s"]["parent"] is None


def test_bench_pairs_runs_both_sides_without_cached_bytecode(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    for top in ("src/mvcirc", "perfbench", "tests"):
        (tmp_path / top / "__pycache__").mkdir(parents=True)
        (tmp_path / top / "__pycache__" / "m.cpython.pyc").write_bytes(b"")
    bench_pairs.clear_bytecode(tmp_path)
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("__pycache__")) == [
        "tests/__pycache__"]

    envs = []

    def fake_run(argv, cwd, env, **kwargs):
        envs.append(env)
        return subprocess.CompletedProcess(argv, 0, '{"metrics": {}}\n', "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs.run(tmp_path, tmp_path, "classify-cold", "parent", 1, "1")
    assert envs[0]["PYTHONDONTWRITEBYTECODE"] == "1"


def test_traced_dispatch_records_the_fast_solvers(monkeypatch):
    """perfbench/spans.py rebinds module attributes to wrappers; dispatch
    must reach the solvers through those names, or the traced per-layer
    metrics solvers.affine_s and solvers.sweep_assignments_per_s read 0."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from mvcirc import cli, reductions, solvers, structure  # noqa: F401  (all that install wraps)

    for module in list(sys.modules.values()):   # monkeypatch restores every rebinding
        for _, name, _ in spans.TRACED:
            if name in getattr(module, "__dict__", {}):
                monkeypatch.setattr(module, name, getattr(module, name))
    tracer = spans.Tracer()
    tracer.install()
    z6, z4 = get("Z6"), get("Z4")
    b = CircuitBuilder(z6.name)
    t, c = b.op("mul", b.input("x"), b.input("x")), b.const(4)
    scsat = ScsatInstance(b.build([t]), ((t, c),))
    b = CircuitBuilder(z4.name)
    pair = b.build([b.op("mul", b.input("x"), b.input("y")), b.const(1)])
    tracer.on = True
    routes = [solvers.dispatch(z6, scsat).solver_used,
              *(solvers.dispatch(z4, inst).solver_used
                for inst in (CsatInstance(pair), CeqvInstance(pair)))]
    tracer.on = False
    assert routes == ["affine", "supernilpotent", "ceqv-affine"]
    view = spans.SpanView(tracer, None)
    assert view.top_total({"solvers.solve_affine"}) > 0
    assert view.count_total("solvers.solve_supernilpotent") > 0


def test_polytime_scaling_counts_a_brute_force_disagreement_as_wrong(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))      # the script adds perfbench/
    spec = importlib.util.spec_from_file_location("polytime_scaling",
                                                  ROOT / "scripts" / "polytime_scaling.py")
    polytime_scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(polytime_scaling)
    flipped = {"sat": "unsat", "unsat": "sat", "equiv": "nequiv", "nequiv": "equiv"}
    brute = polytime_scaling.solve_bruteforce

    def lying(alg, inst, budget):
        res = brute(alg, inst, budget)
        return replace(res, answer=flipped[res.answer])

    monkeypatch.setattr(polytime_scaling, "solve_bruteforce", lying)
    monkeypatch.setattr(sys, "argv", ["polytime_scaling.py", "10", "3"])
    assert polytime_scaling.main() == 1
    # at n = 3 every plant is answered and fits brute force, so every row
    # but the header and the trivial algebra's is marked, by brute force only
    rows = [r for r in capsys.readouterr().out.splitlines()[1:] if "no plant" not in r]
    assert rows and all(re.search(r"  (\w+) WRONG, brute force says (\w+)$", r) for r in rows)
    assert not any("WRONG, planted" in r for r in rows)
