"""Command-line front end: mvcirc {classify, solve, conlat, commutator,
typeset, reduce, zoo}.

Every command accepts zoo:<name> or a file path for the algebra argument and
--json for structured output.  Exit codes: 0 decided, 2 budget exceeded,
3 precondition violation, 64 usage error, 66 file error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn, Optional, Sequence

from .algebra import FiniteAlgebra, serialize_algebra
from .circuit import (
    CeqvInstance,
    Circuit,
    CsatInstance,
    McsatInstance,
    ScsatInstance,
    parse_circuit,
    serialize_circuit,
)
from .errors import BudgetExceeded, MvcircError, ParseError
from .partition import Partition

EX_OK = 0
EX_BUDGET = 2
EX_PRECONDITION = 3
EX_USAGE = 64
EX_NOINPUT = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we reserve that
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _unreadable(path: str, exc: Exception) -> NoReturn:
    reason = (exc.strerror or exc) if isinstance(exc, OSError) else "not UTF-8 text"
    print(f"error: cannot read {path!r}: {reason}", file=sys.stderr)
    sys.exit(EX_NOINPUT)


def _load_algebra(source: str) -> FiniteAlgebra:
    from .zoo import load_algebra

    try:
        return load_algebra(source)
    except (OSError, UnicodeDecodeError) as exc:
        _unreadable(source, exc)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EX_NOINPUT)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        _unreadable(path, exc)


def _emit(data: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_zoo(args) -> int:
    from .zoo import zoo

    entries = zoo()
    if args.action == "list":
        if args.json:
            print(json.dumps(
                {"schema": 1,
                 "entries": [{"name": e.name, "size": e.algebra.size,
                              "ops": [f"{o.name}/{o.arity}" for o in e.algebra.ops]}
                             for e in entries]},
                indent=2, sort_keys=True))
        else:
            for e in entries:
                ops = " ".join(f"{o.name}/{o.arity}" for o in e.algebra.ops)
                print(f"{e.name:14s} size {e.algebra.size}  ops: {ops}")
        return EX_OK
    if args.action == "show":
        if not args.name:
            print("error: zoo show needs a name", file=sys.stderr)
            return EX_USAGE
        from .zoo import get

        try:
            print(serialize_algebra(get(args.name)), end="")
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EX_NOINPUT
        return EX_OK
    return EX_USAGE


def _cmd_classify(args) -> int:
    from .structure import classify

    alg = _load_algebra(args.algebra)
    report = classify(alg)
    data = report.as_dict()
    lines = [f"algebra {report.algebra} (size {report.size})"]
    f = data["flags"]
    lines.append(
        "flags: "
        + " ".join(f"{k}={v}" for k, v in f.items())
    )
    lines.append(f"typeset: {report.typeset}")
    if report.decomposition:
        lines.append(f"decomposition: N={report.decomposition['N']} D={report.decomposition['D']}")
    for prob in ("CSAT", "MCSAT", "SCSAT", "CEQV"):
        v = report.verdicts[prob]
        lines.append(f"{prob}: {v.kind} ({v.reason})")
    for c in report.caveats:
        lines.append(f"caveat: {c}")
    _emit(data, args.json, "\n".join(lines))
    return EX_OK


def _cmd_conlat(args) -> int:
    from .congruence import congruence_lattice

    alg = _load_algebra(args.algebra)
    lat = congruence_lattice(alg)
    if args.dot:
        lines = ["digraph conlat {"]
        for i, p in enumerate(lat.congruences):
            lines.append(f'  n{i} [label="{p}"];')
        for a, b in lat.covers:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        print("\n".join(lines))
        return EX_OK
    data = {
        "schema": 1,
        "algebra": alg.name,
        "congruences": [str(p) for p in lat.congruences],
        "covers": [[str(lat.congruences[a]), str(lat.congruences[b])] for a, b in lat.covers],
    }
    text_lines = [f"Con({alg.name}): {len(lat)} congruences"]
    for p in lat.congruences:
        text_lines.append(f"  {p}")
    text_lines.append("covers:")
    for a, b in lat.covers:
        text_lines.append(f"  {lat.congruences[a]} -< {lat.congruences[b]}")
    _emit(data, args.json, "\n".join(text_lines))
    return EX_OK


def _cmd_commutator(args) -> int:
    from .commutator import commutator

    alg = _load_algebra(args.algebra)
    alpha = Partition.parse(args.alpha, alg.size)
    beta = Partition.parse(args.beta, alg.size)
    result = commutator(alg, alpha, beta)
    _emit(
        {"schema": 1, "algebra": alg.name, "alpha": str(alpha), "beta": str(beta),
         "commutator": str(result)},
        args.json,
        str(result),
    )
    return EX_OK


def _cmd_typeset(args) -> int:
    from .tct import typed_congruence_lattice

    alg = _load_algebra(args.algebra)
    typed = typed_congruence_lattice(alg)
    lat = typed.lattice
    labels = {
        (str(lat.congruences[i]), str(lat.congruences[j])): t
        for (i, j), t in typed.labels.items()
    }
    data = {
        "schema": 1,
        "algebra": alg.name,
        "typeset": typed.typeset_list(),
        "covers": [
            {"lower": lo, "upper": hi, "type": (t if t is not None else "unknown")}
            for (lo, hi), t in sorted(labels.items())
        ],
    }
    lines = [f"typeset({alg.name}) = {data['typeset']}"]
    for (lo, hi), t in labels.items():
        lines.append(f"  {lo} -<({t if t is not None else '?'})- {hi}")
    _emit(data, args.json, "\n".join(lines))
    return EX_OK


def _paired_outputs(circ: Circuit) -> ScsatInstance:
    """The SCSAT instance equating circ's outputs in pairs; ValueError on an odd count."""
    outs = circ.outputs
    if len(outs) % 2:
        raise ValueError("scsat input needs equation: lines or an even output list")
    return ScsatInstance(circ, tuple(zip(outs[::2], outs[1::2])))


# problem kind -> its instance type, made from a circuit with no equation: lines
_KINDS = {"csat": CsatInstance, "mcsat": McsatInstance, "ceqv": CeqvInstance,
          "scsat": _paired_outputs}


def _instance_from_text(kind: str, alg: FiniteAlgebra, text: str):
    """The instance of kind that text holds; ParseError when the text is
    malformed or holds no instance of kind."""
    parsed = parse_circuit(text, alg, alg.name, _KINDS[kind])
    if kind != "scsat" and isinstance(parsed, ScsatInstance):
        raise ParseError(f"{kind} input must not contain equation: lines")
    return parsed


def _budget(text: str) -> int:
    """--budget's type: a non-negative integer, else a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


# --solver choice -> the route dispatch runs (None: the plan's own)
_SOLVERS = {"auto": None, "brute": "brute", "usp": "usp", "supernil": "supernilpotent",
            "affine": "affine"}


def _cmd_solve(args) -> int:
    from .solvers import BUDGET, dispatch

    alg = _load_algebra(args.algebra)
    inst = _instance_from_text(args.problem, alg, _read_text(args.circuit))
    budget = BUDGET if args.budget is None else args.budget
    result = dispatch(alg, inst, budget, solver=_SOLVERS[args.solver])
    text_out = result.answer.upper()
    if result.witness is not None:
        text_out += " " + " ".join(f"{k}={v}" for k, v in sorted(result.witness.items()))
    _emit(result.as_dict(), args.json, text_out)
    return EX_OK


def _cmd_reduce(args) -> int:
    if args.what == "3sat":
        from .reductions import boolean_host_witness, derive_type3_witness, parse_dimacs, threesat_to_csat
        from .errors import InvalidWitness

        alg = _load_algebra(args.algebra)
        cnf = parse_dimacs(_read_text(args.input))
        try:
            witness = boolean_host_witness(alg)
        except (InvalidWitness, MvcircError):
            witness = derive_type3_witness(alg)
        if witness is None:
            print("error: no Boolean-behaved minimal set found in this algebra", file=sys.stderr)
            return EX_PRECONDITION
        inst = threesat_to_csat(alg, witness, cnf)
        print(serialize_circuit(inst.circuit), end="")
        return EX_OK
    if args.what == "csp":
        from .reductions import csp_to_csat, parse_structure_file, parse_csp_instance

        d = parse_structure_file(_read_text(args.algebra))
        instance = parse_csp_instance(d, _read_text(args.input))
        alg, inst = csp_to_csat(d, instance)
        print(f"# algebra: {alg.name} (size {alg.size})")
        print(serialize_circuit(inst.circuit), end="")
        return EX_OK
    print(f"error: unknown reduction {args.what!r}", file=sys.stderr)
    return EX_USAGE


def build_parser() -> _Parser:
    p = _Parser(prog="mvcirc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pz = sub.add_parser("zoo", help="list or show built-in algebras")
    pz.add_argument("action", choices=["list", "show"])
    pz.add_argument("name", nargs="?")
    pz.add_argument("--json", action="store_true")
    pz.set_defaults(fn=_cmd_zoo)

    pc = sub.add_parser("classify", help="structural flags and tractability verdicts")
    pc.add_argument("algebra")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=_cmd_classify)

    pl = sub.add_parser("conlat", help="congruence lattice with cover edges")
    pl.add_argument("algebra")
    pl.add_argument("--json", action="store_true")
    pl.add_argument("--dot", action="store_true")
    pl.set_defaults(fn=_cmd_conlat)

    pm = sub.add_parser("commutator", help="binary commutator of two congruences")
    pm.add_argument("algebra")
    pm.add_argument("--alpha", required=True)
    pm.add_argument("--beta", required=True)
    pm.add_argument("--json", action="store_true")
    pm.set_defaults(fn=_cmd_commutator)

    pt = sub.add_parser("typeset", help="labeled Hasse diagram of Con A")
    pt.add_argument("algebra")
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(fn=_cmd_typeset)

    ps = sub.add_parser("solve", help="decide csat/mcsat/scsat/ceqv")
    ps.add_argument("problem", choices=["csat", "mcsat", "scsat", "ceqv"])
    ps.add_argument("algebra")
    ps.add_argument("circuit", help="circuit file, or - for stdin")
    ps.add_argument("--solver", default="auto",
                    choices=list(_SOLVERS))
    ps.add_argument("--budget", type=_budget)
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(fn=_cmd_solve)

    pr = sub.add_parser("reduce", help="generate reduction instances")
    pr.add_argument("what", choices=["3sat", "csp"])
    pr.add_argument("algebra", help="algebra (3sat) or structure file (csp)")
    pr.add_argument("input", help="DIMACS file (3sat) or instance file (csp)")
    pr.set_defaults(fn=_cmd_reduce)

    return p


_PARSER = build_parser()     # built once per process; parse_args leaves it unchanged

# error -> exit code, the first class that matches
_EXIT_CODES = ((BudgetExceeded, EX_BUDGET), (ParseError, EX_USAGE),
               (MvcircError, EX_PRECONDITION))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.  A package error prints
    one error: line and maps to its code in _EXIT_CODES."""
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:  # helpers exit for file errors
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    except MvcircError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
