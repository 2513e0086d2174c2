"""One benchmark process: set up, run timed passes, print one JSON line.

Started by run.py with the mvcirc sources on PYTHONPATH, one process at a
time.  Usage (internal):

    worker.py pass  <workload> <seed> <share_seconds> <pass_offset> <spawn_time>
    worker.py trace <seed> <spans_path> <spawn_time>

`spawn_time` is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers
interpreter start, imports, zoo build, warm classification and instance
generation.  Every timing is speed-normalised (see speed.py); raw seconds
go alongside.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import resource
import statistics
import sys
import time

import instances as gen
from speed import NOMINAL_S, SpeedClock


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _outcome(fn) -> dict:
    """Run one operation; never raises."""
    try:
        return fn()
    except Exception as exc:  # a raising operation is a counted failure
        return {"error": f"{type(exc).__name__}: {exc}"[:200]}


def _solve_outcome(res) -> dict:
    return {"answer": res.answer, "witness": res.witness,
            "solver": getattr(res, "solver_used", "other"),
            "tried": getattr(res, "assignments_tried", 0)}


# ---------------------------------------------------------------------------
# workloads


class ClassifyCold:
    """One cold pass: `mvcirc classify zoo:<name> --json` in-process for
    every zoo algebra, in zoo order."""

    def setup(self, seed: int) -> None:
        import mvcirc.cli
        import mvcirc.structure  # noqa: F401  (imported by the classify command)
        from mvcirc.zoo import zoo

        self.cli = mvcirc.cli
        self.names = [e.name for e in zoo()]
        for e in zoo():
            e.algebra

    def ops(self, pass_index: int):
        for name in self.names:
            yield name, lambda name=name: self._classify(name)

    def _classify(self, name: str) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(["classify", f"zoo:{name}", "--json"])
        if rc != 0:
            raise RuntimeError(f"classify exited {rc}")
        return json.loads(buf.getvalue())


class DispatchMix:
    """Seeded random instances through solvers.dispatch, warm classification."""

    def setup(self, seed: int) -> None:
        from mvcirc.solvers import dispatch
        from mvcirc.structure import classify
        from mvcirc.zoo import get

        self.dispatch = dispatch
        self.algs = {name: get(name) for name in gen.DISPATCH_ALGEBRAS}
        for alg in self.algs.values():
            classify(alg)
        self.cases = gen.dispatch_mix(seed)
        self.seed = seed

    def ops(self, pass_index: int):
        order = list(range(len(self.cases)))
        random.Random(f"{self.seed}:order:{pass_index}").shuffle(order)
        for i in order:
            c = self.cases[i]
            yield i, lambda c=c: _solve_outcome(self.dispatch(self.algs[c.algebra], c.instance))


class LargeN:
    """Brute-feasible single instances, then the beyond-brute group."""

    def setup(self, seed: int) -> None:
        from mvcirc.solvers import dispatch
        from mvcirc.structure import classify
        from mvcirc.zoo import get

        self.dispatch = dispatch
        self.algs = {name: get(name) for name in gen.LARGE_ALGEBRAS}
        for alg in self.algs.values():
            classify(alg)
        self.feasible, self.beyond = gen.large_cases(seed)

    def ops(self, pass_index: int):
        for i, c in enumerate(self.feasible + self.beyond):
            yield i, lambda c=c: _solve_outcome(self.dispatch(self.algs[c.algebra], c.instance))


WORKLOADS = {"classify-cold": ClassifyCold, "dispatch-mix": DispatchMix, "large-n": LargeN}


def run_pass(workload, pass_index: int, clock: SpeedClock) -> dict:
    """Time every operation of one pass.  `wall` sums the timed operations;
    for large-n those are the brute-feasible group, while the beyond-brute
    group is reported through its outcomes."""
    keys, raw, bounds, outcomes = [], [], [], []
    for key, op in workload.ops(pass_index):
        start = clock.now()
        outcomes.append(_outcome(op))
        seconds, t0, t1 = clock.elapsed(start)
        keys.append(key)
        raw.append(seconds)
        bounds.append((t0, t1))
    lat = [r * clock.factor(t0, t1) for r, (t0, t1) in zip(raw, bounds)]
    timed = len(workload.feasible) if isinstance(workload, LargeN) else len(lat)
    return {"wall": sum(lat[:timed]), "raw_wall": sum(raw[:timed]), "timed": timed,
            "keys": keys, "lat": lat, "raw": raw, "outcomes": outcomes,
            "ref_s": NOMINAL_S / clock.factor(bounds[0][0], bounds[-1][1])}


def cmd_pass(name: str, seed: int, share: float, offset: int, spawn: float) -> dict:
    with SpeedClock() as clock:
        begun = time.perf_counter()
        workload = WORKLOADS[name]()
        workload.setup(seed)
        setup_raw = time.monotonic() - spawn - clock.spent
        setup_s = setup_raw * clock.factor(begun, time.perf_counter())
        passes = []
        rss_mb = _rss_mb()
        t0 = time.perf_counter()
        while share > 0:
            passes.append(run_pass(workload, offset + len(passes), clock))
            if len(passes) == 1:
                # later passes repeat the work; they only add this script's records
                rss_mb = _rss_mb()
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(passes) > share:
                break
    return {"setup_s": setup_s, "setup_raw_s": setup_raw, "passes": passes, "rss_mb": rss_mb}


# ---------------------------------------------------------------------------
# traced run


def cmd_trace(seed: int, spans_path: str) -> dict:
    """Every layer probe, in one fresh interpreter; see README.md for which
    end-to-end metric each per-layer metric should move.  The speed clock
    runs throughout, for the traced passes' normalised walls; span times
    are raw and include its samples (about 2% of the time)."""
    with SpeedClock() as clock:
        return _trace(seed, spans_path, clock)


def _trace(seed: int, spans_path: str, clock: SpeedClock) -> dict:
    import mvcirc.cli  # noqa: F401
    from spans import PREDICATES, SpanView, Tracer

    tracer = Tracer()
    tracer.install()
    from mvcirc.algebra import poly_clone_on_points
    from mvcirc.circuit import eval_circuit
    from mvcirc.commutator import nilpotency_class
    from mvcirc.solvers import solve_bruteforce
    from mvcirc.structure import classify
    from mvcirc.zoo import get, zoo

    m: dict[str, float] = {}
    walls: dict[str, float] = {}

    # cold classification of the zoo, traced
    cold = ClassifyCold()
    cold.setup(seed)
    tracer.on, tracer.pass_id = True, "classify-cold"
    walls["classify-cold"] = run_pass(cold, 0, clock)["wall"]
    tracer.on = False
    v = SpanView(tracer, "classify-cold")
    m["congruence.lattice_s"] = v.top_total({"congruence.congruence_lattice"})
    m["congruence.congruences"] = v.count_total("congruence.congruence_lattice")
    m["algebra.gumm_search_s"] = v.top_total({"algebra.find_directed_gumm_terms"})
    m["algebra.malcev_search_s"] = v.top_total({"algebra.find_malcev_term"})
    m["commutator.predicates_s"] = v.top_total(PREDICATES)
    m["tct.typed_lattice_s"] = v.top_total({"tct.typed_congruence_lattice"})
    m["tct.untyped_covers"] = v.count_total("tct.typed_congruence_lattice")
    m["structure.dl_like_s"] = v.top_total({"structure.is_dl_like"})
    m["structure.classify_self_s"] = v.self_total({"structure.classify"})
    for alg in ("AD2", "Z2xL2", "S3", "majority"):
        m[f"structure.classify_s.{alg}"] = v.first("structure.classify", get(alg).name)

    # clone closure on a fixed list of closures that complete under the cap
    tracer.on, tracer.pass_id = True, "clone"
    tables, t0 = 0, time.perf_counter()
    for e in zoo():
        a = e.algebra
        tables += len(poly_clone_on_points(a, [(x,) for x in range(a.size)], 1)[0])
    for alg_name in ("2boolean", "Z6", "Z2xL2"):
        a = get(alg_name)
        pts = list(itertools.product(range(a.size), repeat=3))
        tables += len(poly_clone_on_points(a, pts, 3, constants=False)[0])
    m["algebra.clone_s"] = time.perf_counter() - t0
    tracer.on = False
    m["algebra.clone_tables"] = tables
    m["algebra.clone_tables_per_s"] = tables / m["algebra.clone_s"]

    # dispatch-mix: untraced pass (routes, dispatch vs brute), traced pass
    mix = DispatchMix()
    mix.setup(seed)
    plain = run_pass(mix, 0, clock)
    routes = {r: [0, 0.0] for r in ("brute", "usp", "supernilpotent", "ceqv", "affine",
                                    "product", "other")}
    fallbacks = tried = 0
    for seconds, out in zip(plain["raw"], plain["outcomes"]):
        solver = out.get("solver", "other")
        route = ("product" if solver.startswith("product(") else
                 "ceqv" if solver.startswith("ceqv") else
                 solver if solver in routes else "other")
        routes[route][0] += 1
        routes[route][1] += seconds
        fallbacks += "->brute" in solver
        tried += out.get("tried", 0)
    for r, (count, seconds) in routes.items():
        m[f"solvers.route_count.{r}"] = count
        if r != "other":   # no route has another name today: its time would read 0
            m[f"solvers.route_s.{r}"] = seconds
    m["solvers.fallbacks"] = fallbacks
    m["solvers.assignments_tried"] = tried
    brute_s: dict[str, float] = {}
    disp_s: dict[str, float] = {}
    for key, seconds in zip(plain["keys"], plain["raw"]):
        c = mix.cases[key]
        t0 = time.perf_counter()
        solve_bruteforce(mix.algs[c.algebra], c.instance)
        brute_s[c.algebra] = brute_s.get(c.algebra, 0.0) + time.perf_counter() - t0
        disp_s[c.algebra] = disp_s.get(c.algebra, 0.0) + seconds
    m["solvers.dispatch_over_brute"] = sum(disp_s.values()) / sum(brute_s.values())
    m["solvers.dispatch_over_brute.Z6"] = disp_s["Z6"] / brute_s["Z6"]
    tracer.on, tracer.pass_id = True, "dispatch-mix"
    walls["dispatch-mix"] = run_pass(mix, 0, clock)["wall"]
    tracer.on = False

    # warm per-call costs the dispatcher pays on every instance
    z6 = get("Z6")
    nilpotency_class(z6)
    samples = []
    for _ in range(30):
        t0 = time.perf_counter()
        nilpotency_class(z6)
        samples.append(time.perf_counter() - t0)
    m["commutator.nilpotency_class_ms"] = statistics.median(samples) * 1e3
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(2000):
            classify(z6)
        samples.append((time.perf_counter() - t0) / 2000)
    m["structure.classify_lookup_us"] = statistics.median(samples) * 1e6
    calls, t0 = 0, time.perf_counter()
    for _ in range(3):
        for c in mix.cases:
            zeros = {nm: 0 for nm in c.instance.circuit.input_names}
            eval_circuit(mix.algs[c.algebra], c.instance.circuit, zeros)
            calls += 1
    m["circuit.eval_circuit_per_s"] = calls / (time.perf_counter() - t0)

    # large-n, traced (instance generation included, for the reductions layer)
    tracer.on, tracer.pass_id = True, "large-n"
    large = LargeN()
    large.setup(seed)
    res = run_pass(large, 0, clock)
    tracer.on = False
    walls["large-n"] = res["wall"]
    v = SpanView(tracer, "large-n")
    m["solvers.affine_s"] = v.top_total({"solvers.solve_affine"})
    sweeps = {"solvers.solve_supernilpotent", "solvers.ceqv_supernilpotent_experimental"}
    sweep_s = v.top_total(sweeps)
    sweep_n = sum(v.count_total(s) for s in sweeps)
    m["solvers.sweep_assignments_per_s"] = sweep_n / sweep_s if sweep_s else 0.0
    m["solvers.beyond_decided"] = sum(
        1 for out in res["outcomes"][len(large.feasible):] if "error" not in out)
    tried = gate_evals = 0
    t0 = time.perf_counter()
    for c in large.feasible:
        if c.name in ("S3/chain", "2boolean/3sat-16"):
            r = solve_bruteforce(large.algs[c.algebra], c.instance)
            tried += r.assignments_tried
            gate_evals += r.assignments_tried * len(c.instance.circuit.gates)
    seconds = time.perf_counter() - t0
    m["circuit.assignments_per_s"] = tried / seconds
    m["circuit.gate_evals_per_s"] = gate_evals / seconds

    self_time = SpanView(tracer, None).self_by_module()
    for module in ("algebra", "congruence", "commutator", "tct", "structure", "circuit",
                   "solvers", "reductions", "cli"):
        m[f"self_s.{module}"] = self_time.get(module, 0.0)
    tracer.dump(spans_path)
    return {"metrics": m, "walls": walls, "spans": len(tracer.spans), "rss_mb": _rss_mb()}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "pass":
        name, seed, share, offset, spawn = argv[1:6]
        out = cmd_pass(name, int(seed), float(share), int(offset), float(spawn))
    elif mode == "trace":
        seed, spans_path = argv[1:3]
        out = cmd_trace(int(seed), spans_path)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
