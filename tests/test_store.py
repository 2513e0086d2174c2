"""The per-algebra store and the solver plan: one bounded store, and each
per-algebra fact computed at most once per algebra."""

import importlib
import inspect
import itertools
import pkgutil
import random
from collections import Counter
from dataclasses import fields

import pytest

import mvcirc
from mvcirc import algebra, commutator, congruence, errors, solvers, structure, tct
from mvcirc.algebra import STORE_BOUND, FactStore, FiniteAlgebra, Operation
from mvcirc.circuit import (
    BlockProgram,
    CeqvInstance,
    Circuit,
    CsatInstance,
    McsatInstance,
    ScsatInstance,
    random_circuit,
)
from mvcirc.partition import Partition
from mvcirc.structure import classify
from mvcirc.tct import MinimalSet
from mvcirc.zoo import ZooEntry, get, zoo

from conftest import clone_cap


def _content(alg):
    return (alg.size, alg.signature(), tuple(op.table for op in alg.ops))


def _on_every_call(monkeypatch, module, name, note):
    """Call note(name, *args) before each call of module.name, patched
    wherever the function was imported to, so that every call is seen."""
    fn = getattr(module, name)

    def noted(*args, **kwargs):
        note(name, *args)
        return fn(*args, **kwargs)

    for holder in (algebra, commutator, congruence, solvers, structure, tct):
        if getattr(holder, name, None) is fn:
            monkeypatch.setattr(holder, name, noted)


def test_each_per_algebra_fact_is_computed_once(monkeypatch):
    runs = Counter()

    def count(name, alg, *_):
        # _Coordinates is built from the stored group of one algebra
        runs[(name, id(alg) if name == "_Coordinates" else _content(alg))] += 1

    for module, name in ((commutator, "nilpotency_class"), (congruence, "_congruence_lattice"),
                         (congruence, "_factor_pairs"), (tct, "_typed_congruence_lattice"),
                         (commutator, "_module_structure"), (solvers, "_Coordinates")):
        _on_every_call(monkeypatch, module, name, count)
    monkeypatch.setattr(algebra, "STORE", FactStore())

    rng = random.Random(4)
    # Z4ring is supernilpotent and not affine, so its sweep reads the class
    for name in ("Z6", "Z2xL2", "S3", "Z4ring"):
        alg = get(name)
        for _ in range(6):
            c = random_circuit(alg, rng, 3, 9, 3)
            pair = c.with_outputs(c.outputs[:2])
            for inst in (CsatInstance(pair), McsatInstance(c), CeqvInstance(pair),
                         ScsatInstance(c, ((c.outputs[0], c.outputs[1]),))):
                solvers.dispatch(alg, inst)

    ran = {name for name, _ in runs}
    assert ran == {"nilpotency_class", "_congruence_lattice", "_factor_pairs",
                   "_module_structure", "_Coordinates"}
    assert [key for key, n in runs.items() if n > 1] == []


def test_dispatch_builds_no_classification_report(monkeypatch):
    """The plan reads its routes from the three hypothesis predicates
    alone: dispatching every kind over the zoo on a fresh store builds no
    report, types no cover and searches for no Gumm chain, and still
    answers as brute force does."""
    called = []
    for module, name in ((structure, "_classify"), (tct, "_typed_congruence_lattice"),
                         (algebra, "find_directed_gumm_terms")):
        _on_every_call(monkeypatch, module, name, lambda name, *_: called.append(name))
    monkeypatch.setattr(algebra, "STORE", FactStore())

    rng = random.Random(23)
    for entry in zoo():
        alg = entry.algebra
        for _ in range(3):
            c = random_circuit(alg, rng, 3, 8, 3)
            pair = c.with_outputs(c.outputs[:2])
            for inst in (CsatInstance(pair), McsatInstance(c), CeqvInstance(pair),
                         ScsatInstance(c, ((c.outputs[0], c.outputs[2]),))):
                got, want = solvers.dispatch(alg, inst), solvers.solve_bruteforce(alg, inst)
                assert got.answer == want.answer, (entry.name, got.solver_used)
    assert called == []


# Malcev searches built (on the algebra and its quotients) by a cold
# plan_for(alg).flags, as counted before abelianness was read from the module
# structure: is_abelian reads it only once a search has answered, so it must
# start none of its own.
MALCEV_BUILDS = {"trivial": 1, "2lattice": 0, "2semilattice": 0, "2boolean": 0, "Z2": 1,
                 "Z3": 1, "Z4": 2, "Z2xZ2": 2, "Z6": 3, "S3": 0, "Z4ring": 2, "majority": 0,
                 "Z2xL2": 0, "AD2": 0}


def test_plan_flags_start_no_further_malcev_search(monkeypatch):
    builds = []
    real = algebra.stored

    def counting(alg, fact, build):
        if fact == "malcev":
            return real(alg, fact, lambda: builds.append(alg.name) or build())
        return real(alg, fact, build)

    monkeypatch.setattr(algebra, "stored", counting)
    counts = {}
    for entry in zoo():
        monkeypatch.setattr(algebra, "STORE", FactStore())
        builds.clear()
        solvers.plan_for(entry.algebra).flags
        counts[entry.name] = len(builds)
    assert counts == MALCEV_BUILDS


def test_cold_classify_decides_dl_likeness_and_builds_quotients_once(monkeypatch):
    """The factor pairs, the decomposition flags and is_dl_like all read
    quotients, and the flags read is_dl_like of every right factor: a cold
    classify of the zoo still runs each build once per store key.  Every
    quotient and commutator it asks for is of a congruence in the stored
    Con(A), so none is checked by is_congruence."""
    runs = Counter()
    dl_like, build, check = structure._is_dl_like, algebra._quotient, algebra.is_congruence

    def counted_dl_like(alg):
        runs[("dl_like", _content(alg))] += 1
        return dl_like(alg)

    def counted_quotient(alg, theta):
        runs[("quotient", _content(alg), theta)] += 1
        return build(alg, theta)

    monkeypatch.setattr(structure, "_is_dl_like", counted_dl_like)
    monkeypatch.setattr(algebra, "_quotient", counted_quotient)
    monkeypatch.setattr(algebra, "is_congruence",
                        lambda alg, p: runs.update(["is_congruence"]) or check(alg, p))
    monkeypatch.setattr(algebra, "STORE", FactStore())
    for e in zoo():
        classify(e.algebra)

    assert runs["is_congruence"] == 0
    assert {key[0] for key in runs} == {"dl_like", "quotient"}
    assert [key for key, n in runs.items() if n > 1] == []


def test_warm_quotient_formats_no_name(monkeypatch):
    """The quotient is stored under a key holding the caller's name, so it
    is built and named once; a renamed twin gets a quotient of its own name."""
    monkeypatch.setattr(algebra, "STORE", FactStore())
    z6 = get("Z6")
    theta = congruence.congruence_lattice(z6).congruences[1]
    cold = algebra.quotient(z6, theta)
    formatted = []
    real = Partition.__str__
    monkeypatch.setattr(Partition, "__str__", lambda p: formatted.append(p) or real(p))
    assert algebra.quotient(z6, theta) is cold
    assert formatted == []
    assert algebra.quotient(z6.rename("twin"), theta).name == f"twin/{theta}"
    assert cold.name == f"Z6/{theta}"


def test_no_module_level_cache_outside_the_store():
    stores = []
    for info in pkgutil.iter_modules(mvcirc.__path__):
        module = importlib.import_module(f"mvcirc.{info.name}")
        for attr, value in vars(module).items():
            assert not attr.endswith("_cache"), f"{info.name}.{attr}"
            assert not hasattr(value, "cache_info"), f"{info.name}.{attr} is memoized"
            if isinstance(value, FactStore):
                stores.append(value)
    assert stores and all(s is algebra.STORE for s in stores)


def _public_functions(module):
    """The public functions of a module, and the public methods and
    constructors of its public classes, defined in that module."""
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{name}.{attr}", member


def test_one_clone_cap_and_no_cap_parameter():
    """The clone cap is the module constant algebra.CLONE_CAP and the
    support sweep always runs off 0: no public function takes a cap, a
    config or a zero, and a solver is configured by its budget alone."""
    with_option = [f"{info.name}.{name}({option})"
                   for info in pkgutil.iter_modules(mvcirc.__path__)
                   for name, fn in _public_functions(importlib.import_module(f"mvcirc.{info.name}"))
                   for option in ("cap", "config", "zero")
                   if option in inspect.signature(fn).parameters]
    # the one zero is a witness's datum, the element that plays 0 in it
    assert with_option == ["reductions.Type3Witness.__init__(zero)"]
    assert not hasattr(solvers, "SolverConfig")


def test_unread_api_stays_deleted():
    """Each layer computes a structure through one path: no one-line wrapper
    beside the function it calls, and no field or method that nothing in the
    program reads."""
    assert [f"{m.__name__}.{name}" for m, name in (
        (tct, "typeset"), (algebra, "unary_poly_clone"),
        (congruence, "principal_congruence"), (commutator, "centralizes"),
        (commutator, "_context_sets"), (algebra, "_translations"),
        (errors, "LinearityCheckFailed"), (solvers, "composition_length"))
        if hasattr(m, name)] == []
    assert [f"{c.__name__}.{name}" for c, name in (
        (Partition, "pairs"), (Partition, "join"), (BlockProgram, "pack"), (Operation, "index"),
        (Circuit, "size"), (solvers.Plan, "malcev"))
        if hasattr(c, name)] == []
    assert [f"{c.__name__}.{f.name}" for c, gone in (
        (algebra.Clone, {"arity", "points"}), (MinimalSet, {"idempotent"}),
        (ZooEntry, {"_cache"}), (solvers.SolveResult, {"diagnostic"}))
        for f in fields(c) if f.name in gone] == []


def test_no_store_key_holds_the_cap():
    """Facts are keyed on what affects them, and the cap is one constant,
    so no key holds it: a cap no other key value can equal never shows up
    in the keys a classification and a dispatch store."""
    cap = 199_999

    def atoms(key):
        if isinstance(key, tuple):
            for part in key:
                yield from atoms(part)
        else:
            yield key

    with clone_cap(cap):
        for name in ("Z6", "Z2xL2", "majority"):
            alg = get(name)
            classify(alg)
            c = random_circuit(alg, random.Random(name), 3, 6, 2)
            solvers.dispatch(alg, CsatInstance(c))
        keys = [key for entry in algebra.STORE._entries.values() for key in entry]
    assert keys and cap not in {atom for key in keys for atom in atoms(key)}


def test_store_stays_within_bound_and_evicted_algebras_reclassify(monkeypatch):
    monkeypatch.setattr(algebra, "STORE", FactStore())
    unary_pairs = itertools.product(itertools.product(range(3), repeat=3), repeat=2)
    algebras = [
        FiniteAlgebra(f"U{i}", 3, (Operation("f", 1, f), Operation("g", 1, g)))
        for i, (f, g) in zip(range(STORE_BOUND + 1), unary_pairs)
    ]
    first = classify(algebras[0])
    for alg in algebras[1:]:
        classify(alg)
        assert len(algebra.STORE) <= STORE_BOUND
    again = classify(algebras[0])
    assert again is not first          # evicted, so computed afresh
    assert again.as_dict() == first.as_dict()


def test_cold_ad2_classify_closes_each_point_list_once(monkeypatch):
    monkeypatch.setattr(algebra, "STORE", FactStore())
    close = algebra._close_tables
    runs = Counter()

    def counted(alg, points, generators, *args, **kwargs):
        runs[(_content(alg), tuple(points), tuple(tab for tab, _ in generators))] += 1
        return close(alg, points, generators, *args, **kwargs)

    monkeypatch.setattr(algebra, "_close_tables", counted)
    classify(get("AD2"))
    assert runs and max(runs.values()) == 1


def test_cold_ad2_classify_closes_no_ternary_polynomial_clone(monkeypatch):
    # the TCT labels of AD2's abelian covers come from binary polynomials on
    # a trace; only the Malcev and Gumm searches close over 3-tuples, and
    # they close the term clone, which has no constants
    monkeypatch.setattr(algebra, "STORE", FactStore())
    close = algebra._close_tables
    ternary = []

    def counted(alg, points, generators, *args, **kwargs):
        if len(points[0]) == 3:
            ternary.append(any(isinstance(wit, algebra.Const) for _, wit in generators))
        return close(alg, points, generators, *args, **kwargs)

    monkeypatch.setattr(algebra, "_close_tables", counted)
    classify(get("AD2"))
    assert ternary and not any(ternary)


def test_cold_zoo_classify_computes_each_commutator_once(monkeypatch):
    monkeypatch.setattr(algebra, "STORE", FactStore())
    build = commutator._commutator
    runs = Counter()

    def counted(alg, alpha, beta):
        runs[(_content(alg), alpha, beta)] += 1
        return build(alg, alpha, beta)

    monkeypatch.setattr(commutator, "_commutator", counted)
    for entry in zoo():
        classify(entry.algebra)
    assert runs and max(runs.values()) == 1


def test_equal_content_shares_one_entry_and_its_key_is_built_once(monkeypatch):
    monkeypatch.setattr(algebra, "STORE", FactStore())
    z6 = get("Z6")
    twin = z6.rename("Z6 again")
    assert twin is not z6 and twin.content is twin.content
    assert algebra.STORE.facts(z6) is algebra.STORE.facts(twin)
    assert len(algebra.STORE) == 1
    assert classify(twin).algebra == "Z6 again"     # the name stays in the report's key


def test_capped_malcev_closure_runs_once(monkeypatch):
    # the ternary term clone of this algebra outgrows the cap: classify's
    # Malcev and Gumm searches and the plan's Malcev term share one closure
    close = algebra._close_tables
    capped = []

    def counted(alg, points, generators, cap, stop=None):
        clone, hit = close(alg, points, generators, cap, stop)
        if not clone.complete and hit is None:
            capped.append(len(points))
        return clone, hit

    monkeypatch.setattr(algebra, "_close_tables", counted)
    alg = FiniteAlgebra("f3", 3, (Operation("f", 2, (1, 2, 0, 2, 0, 1, 0, 0, 0)),))
    with clone_cap(2000):
        classify(alg)
        assert algebra.find_malcev_term(alg).status is errors.Tri.UNKNOWN
    assert capped == [21]       # the 3(3*3 - 2) points with at most two distinct coordinates


def test_capped_unary_clone_closes_once(monkeypatch):
    # majority's unary polynomial clone outgrows cap 6: minimal_sets asks
    # for it on each of majority's own 12 covers, and the capped outcome is
    # remembered (its typing runs on 2-element quotients, whose clones close)
    close = algebra._close_tables
    alg = get("majority")
    whole = tuple((x,) for x in range(alg.size))
    runs = []

    def counted(alg_, points, generators, *args, **kwargs):
        if tuple(points) == whole and any(isinstance(w, algebra.Const) for _, w in generators):
            runs.append(_content(alg_))
        return close(alg_, points, generators, *args, **kwargs)

    monkeypatch.setattr(algebra, "_close_tables", counted)
    with clone_cap(6):
        covers = congruence.congruence_lattice(alg).cover_pairs()
        for lo, hi in covers:
            with pytest.raises(errors.CapExceeded):
                tct.minimal_sets(alg, lo, hi)
    assert len(covers) == 12
    assert runs == [_content(alg)]
