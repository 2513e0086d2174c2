"""Spans around calls into mvcirc's public functions, recorded from outside.

`Tracer.install()` replaces each listed function by a wrapper in every
loaded module that holds a reference to it, so calls made inside the
library (classify -> congruence_lattice, dispatch -> solve_affine, ...) are
recorded too.  A span is (name, start, end, parent span, pass id, count,
label: the algebra's name when the first argument is an algebra);
spans stay in memory and `dump` writes them out when the run ends.  A
function that a later version of mvcirc no longer has is skipped.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# (module, function, count taken from its result or arguments)
TRACED: list[tuple[str, str, Optional[Callable]]] = [
    ("algebra", "find_directed_gumm_terms", None),
    ("algebra", "find_malcev_term", None),
    ("algebra", "kary_poly_clone", None),
    ("algebra", "poly_clone_on_points", lambda res, args: len(res[0])),
    ("congruence", "congruence_lattice", lambda res, args: len(res.congruences)),
    ("commutator", "commutator", None),
    ("commutator", "is_abelian", None),
    ("commutator", "is_solvable", None),
    ("commutator", "is_nilpotent", None),
    ("commutator", "nilpotency_class", None),
    ("commutator", "is_supernilpotent", None),
    ("commutator", "is_affine", None),
    ("tct", "typed_congruence_lattice",
     lambda res, args: sum(1 for v in res.labels.values() if v is None)),
    ("tct", "typeset", None),
    ("structure", "classify", None),
    ("structure", "is_dl_like", None),
    ("structure", "decompose_nd", None),
    ("circuit", "eval_circuit", None),
    ("solvers", "dispatch", None),
    ("solvers", "solve_bruteforce", lambda res, args: res.assignments_tried),
    ("solvers", "solve_usp", lambda res, args: res.assignments_tried),
    ("solvers", "solve_supernilpotent", lambda res, args: res.assignments_tried),
    ("solvers", "ceqv_supernilpotent_experimental", lambda res, args: res.assignments_tried),
    ("solvers", "solve_affine", None),
    ("reductions", "threesat_to_csat", None),
    ("cli", "main", None),
]

PREDICATES = {f"commutator.{f}" for f in (
    "is_abelian", "is_solvable", "is_nilpotent", "nilpotency_class",
    "is_supernilpotent", "is_affine")}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []   # [name id, start, end, parent, pass id, count, label]
        self.stack: list[int] = []
        self.on = False
        self.pass_id = ""

    def install(self) -> None:
        import importlib

        modules = {m: importlib.import_module(f"mvcirc.{m}") for m in
                   ("algebra", "partition", "congruence", "commutator", "tct",
                    "structure", "circuit", "solvers", "reductions", "zoo", "cli")}
        for mod, fn_name, count in TRACED:
            fn = getattr(modules[mod], fn_name, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, f"{mod}.{fn_name}", count)
            for m in list(sys.modules.values()):
                if getattr(m, "__dict__", {}).get(fn_name) is fn:
                    setattr(m, fn_name, wrapper)

    def _wrap(self, fn: Callable, name: str, count: Optional[Callable]) -> Callable:
        self.names.append(name)
        name_id = len(self.names) - 1
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            label = getattr(args[0], "name", "") if args else ""
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None,
                   label if isinstance(label, str) else ""]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                rec[5] = count(result, args)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass", "count", "label"],
                       "spans": [[self.names[s[0]]] + s[1:] for s in self.spans]}, fh)


class SpanView:
    """The spans of one pass, with inclusive and self times."""

    def __init__(self, tracer: Tracer, pass_id: Optional[str]) -> None:
        """pass_id None selects every span."""
        self.names = tracer.names
        self.all = tracer.spans
        self.idx = [i for i, s in enumerate(tracer.spans) if pass_id in (None, s[4])]
        child_time: dict[int, float] = defaultdict(float)
        for i in self.idx:
            s = self.all[i]
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        self.child_time = child_time

    def name(self, i: int) -> str:
        return self.names[self.all[i][0]]

    def dur(self, i: int) -> float:
        s = self.all[i]
        return s[2] - s[1]

    def _has_ancestor_in(self, i: int, group: set[str]) -> bool:
        p = self.all[i][3]
        while p >= 0:
            if self.name(p) in group:
                return True
            p = self.all[p][3]
        return False

    def top_total(self, group: set[str]) -> float:
        """Time inside calls of the group, nested calls counted once."""
        return sum(self.dur(i) for i in self.idx
                   if self.name(i) in group and not self._has_ancestor_in(i, group))

    def count_total(self, name: str) -> int:
        return sum(self.all[i][5] or 0 for i in self.idx if self.name(i) == name)

    def self_total(self, names: set[str]) -> float:
        return sum(self.dur(i) - self.child_time[i] for i in self.idx if self.name(i) in names)

    def first(self, name: str, label: str) -> float:
        for i in self.idx:
            if self.name(i) == name and self.all[i][6] == label:
                return self.dur(i)
        raise KeyError(f"no {name} span for {label}")

    def self_by_module(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for i in self.idx:
            out[self.name(i).split(".")[0]] += self.dur(i) - self.child_time[i]
        return out
