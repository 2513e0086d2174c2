import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvcirc
from mvcirc.cli import main


def run_cli(argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_zoo_list(capsys):
    code, out, _ = run_cli(["zoo", "list"], capsys)
    assert code == 0
    assert "Z6" in out and "majority" in out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) >= 13


def test_zoo_show_round_trips(capsys):
    code, out, _ = run_cli(["zoo", "show", "Z4"], capsys)
    assert code == 0
    from mvcirc.algebra import parse_algebra
    from mvcirc.zoo import get

    assert parse_algebra(out) == get("Z4")


def test_classify_json_z6(capsys):
    code, out, _ = run_cli(["classify", "zoo:Z6", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["verdicts"]["SCSAT"]["kind"] == "PolyTime"
    assert data["flags"]["supernilpotent"] == "yes"


def test_classify_s3_text(capsys):
    code, out, _ = run_cli(["classify", "zoo:S3"], capsys)
    assert code == 0
    assert "CSAT: NPComplete-regime" in out
    assert "CEQV: CoNPComplete-regime" in out


def test_conlat_z4(capsys):
    code, out, _ = run_cli(["conlat", "zoo:Z4"], capsys)
    assert code == 0
    assert "{0 2|1 3}" in out
    assert "-<" in out


def test_conlat_dot(capsys):
    code, out, _ = run_cli(["conlat", "zoo:Z4", "--dot"], capsys)
    assert code == 0
    assert out.startswith("digraph")


def test_commutator_cmd(capsys):
    code, out, _ = run_cli(
        ["commutator", "zoo:S3", "--alpha", "{0 1 2 3 4 5}", "--beta", "{0 1 2 3 4 5}"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "{0 3 4|1 2 5}"


def test_commutator_cmd_rejects_a_non_congruence(capsys):
    code, _, err = run_cli(
        ["commutator", "zoo:Z4", "--alpha", "{0 1|2|3}", "--beta", "{0 1 2 3}"], capsys)
    assert code == 3
    assert "not a congruence" in err


@pytest.mark.parametrize("alpha", ["{0 x}", "{0 9}", "{0 1|1 2}"])
def test_commutator_cmd_rejects_a_bad_element(alpha, capsys):
    code, out, err = run_cli(["commutator", "zoo:Z6", "--alpha", alpha, "--beta", "{}"], capsys)
    assert code == 64 and out == ""
    assert err.startswith("error: ") and "invalid literal" not in err


def test_typeset_cmd(capsys):
    code, out, _ = run_cli(["typeset", "zoo:2boolean", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["typeset"] == [3]


def test_solve_csat(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("g0 = input x\ng1 = input y\ng2 = meet g0 g1\ng3 = const 1\noutputs: g2 g3\n")
    code, out, _ = run_cli(["solve", "csat", "zoo:2lattice", str(circ)], capsys)
    assert code == 0
    assert out.strip() == "SAT x=1 y=1"


def test_solve_ceqv(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text(
        "g0 = input x\ng1 = input y\ng2 = meet g0 g1\ng3 = meet g1 g0\noutputs: g2 g3\n"
    )
    code, out, _ = run_cli(["solve", "ceqv", "zoo:2lattice", str(circ)], capsys)
    assert code == 0
    assert out.strip() == "EQUIV"


def test_solve_scsat_equations(tmp_path, capsys):
    circ = tmp_path / "s.txt"
    circ.write_text(
        "g0 = input x\ng1 = mul g0 g0\ng2 = const 1\nequation: g1 g2\n"
    )
    code, out, _ = run_cli(["solve", "scsat", "zoo:Z2", str(circ)], capsys)
    assert code == 0
    assert out.strip() == "UNSAT"


def test_solve_unknown_file(capsys):
    code, _, err = run_cli(["solve", "csat", "zoo:Z2", "/nonexistent/file"], capsys)
    assert code == 66


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
@pytest.mark.parametrize("command", ["classify", "solve"])
def test_unreadable_input_exit_code(tmp_path, capsys, command, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"algebra caf\xe9 size 1\n")
    argv = ["classify", str(path)] if command == "classify" else [
        "solve", "csat", "zoo:Z2", str(path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 66
    assert "cannot read" in err


def test_classify_bad_arity_is_a_usage_error(tmp_path, capsys):
    alg = tmp_path / "bad.alg"
    alg.write_text("algebra X size 2\nop f arity -1\n0\n")
    code, _, err = run_cli(["classify", str(alg)], capsys)
    assert code == 64
    assert "negative arity" in err


def test_solve_budget_exit_code(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    lines = [f"g{i} = input x{i}" for i in range(8)]
    lines.append("outputs: g0 g1")
    circ.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        ["solve", "csat", "zoo:Z6", str(circ), "--solver", "brute", "--budget", "100"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("route", [[], ["--solver", "brute"]])
def test_solve_negative_budget_is_a_usage_error(tmp_path, capsys, route):
    circ = tmp_path / "c.txt"
    circ.write_text("g0 = input x\ng1 = input y\ng2 = meet g0 g1\ng3 = const 1\noutputs: g2 g3\n")
    argv = ["solve", "csat", "zoo:2lattice", str(circ), *route]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", "-1"])
    assert exc.value.code == 64
    assert "--budget" in capsys.readouterr().err
    # a zero budget is a budget: brute force needs 4 evaluations
    code, _, _ = run_cli(argv + ["--solver", "brute", "--budget", "0"], capsys)
    assert code == 2


def test_solve_precondition_exit_code(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("g0 = input x\ng1 = mul g0 g0\noutputs: g0 g1\n")
    code, _, err = run_cli(["solve", "csat", "zoo:Z2", str(circ), "--solver", "usp"], capsys)
    assert code == 3


def test_solve_does_not_mask_a_type_error(tmp_path, monkeypatch):
    """Exit 3 means a precondition failed; a TypeError from a fault in the
    program is raised, not reported as one."""
    circ = tmp_path / "c.txt"
    circ.write_text("g0 = input x\ng1 = mul g0 g0\noutputs: g0 g1\n")

    def faulty(*args, **kwargs):
        raise TypeError("fault")

    monkeypatch.setattr("mvcirc.solvers.dispatch", faulty)
    with pytest.raises(TypeError, match="fault"):
        main(["solve", "csat", "zoo:Z2", str(circ)])


@pytest.mark.parametrize("problem, text", [
    ("mcsat", "g0 = input x\ng1 = input y\ng2 = mul g0 g1\ng3 = const 1\noutputs: g2 g3 g0\n"),
    ("scsat", "g0 = input x\ng1 = mul g0 g0\ng2 = const 1\nequation: g1 g2\n"),
], ids=["mcsat", "scsat"])
def test_solve_supernil_rejects_kinds_it_does_not_decide(tmp_path, capsys, problem, text):
    # the support sweep decides CSAT and CEQV; other kinds are a precondition error
    circ = tmp_path / "c.txt"
    circ.write_text(text)
    code, out, err = run_cli(["solve", problem, "zoo:Z4", str(circ), "--solver", "supernil"],
                             capsys)
    assert (code, out) == (3, "")
    assert "does not decide" in err


def test_usage_error_exit_code():
    # the child imports the package under test, installed or not
    source = str(Path(mvcirc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (source, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "mvcirc.cli", "bogus-command"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 64


def test_reduce_3sat(tmp_path, capsys):
    dimacs = tmp_path / "f.cnf"
    dimacs.write_text("p cnf 2 1\n1 -2 2 0\n")
    code, out, _ = run_cli(["reduce", "3sat", "zoo:2boolean", str(dimacs)], capsys)
    assert code == 0
    assert "outputs:" in out


def test_reduce_3sat_of_a_cnf_without_clauses_is_satisfiable(tmp_path, capsys):
    # an empty conjunction is true, so the circuit compares one with itself
    dimacs = tmp_path / "f.cnf"
    dimacs.write_text("p cnf 2 0\n")
    code, out, _ = run_cli(["reduce", "3sat", "zoo:2boolean", str(dimacs)], capsys)
    assert code == 0
    circ = tmp_path / "c.txt"
    circ.write_text(out)
    code, out, _ = run_cli(["solve", "csat", "zoo:2boolean", str(circ)], capsys)
    assert code == 0
    assert out.split()[0] == "SAT"


def test_reduce_csp(tmp_path, capsys):
    struct = tmp_path / "d.txt"
    struct.write_text("domain 2\nrel eq arity 2\n0 0\n1 1\n")
    inst = tmp_path / "i.txt"
    inst.write_text("eq x y\n")
    code, out, _ = run_cli(["reduce", "csp", str(struct), str(inst)], capsys)
    assert code == 0
    assert "R_eq" in out


@pytest.mark.parametrize("what, text, line", [
    ("3sat", "p cnf x 1\n1 2 -1 0\n", 1),
    ("3sat", "p cnf -2 0\n", 1),
    ("3sat", "p cnf 2 banana\n", 1),
    ("3sat", "p cnf 2 1\n1 q 2 0\n", 2),
    ("3sat", "p cnf 2 1\n1 3 2 0\n", 2),
    ("csp", "domain two\nrel eq arity 2\n0 0\n", 1),
    ("csp", "domain 2\nrel eq arity 2\n0 0\n0 5\n", 4),
    ("3sat", "p cnf 3 1\n1 2 3 0\np cnf 1 0\n", 3),
    ("csp", "domain 3\nrel eq arity 1\n2\ndomain 2\n", 4),
    ("csp", "domain 2\nrel eq arity 2\n0 0\nrel eq arity 2\n1 1\n", 4),
    ("solve", "g0 = input x\ng1 = const 0\noutputs: g0 g1\noutputs: g1 g0\n", 4),
])
def test_reduce_malformed_input_is_a_usage_error(tmp_path, capsys, what, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    inst = tmp_path / "i.txt"
    inst.write_text("eq x y\n")
    argv = {"3sat": ["reduce", "3sat", "zoo:2boolean", str(bad)],
            "csp": ["reduce", "csp", str(bad), str(inst)],
            "solve": ["solve", "csat", "zoo:2lattice", str(bad)]}[what]
    code, _, err = run_cli(argv, capsys)
    assert code == 64
    assert err.startswith("error: ") and f"at line {line}" in err


@pytest.mark.parametrize("problem, text, message", [
    ("csat", "g0 = input x\ng1 = input y\n# three outputs\noutputs: g0 g1 g1\n",
     "CSAT instance needs exactly 2 outputs at line 4"),
    ("ceqv", "g0 = input x\noutputs: g0\n", "CEQV instance needs exactly 2 outputs at line 2"),
    ("mcsat", "g0 = input x\noutputs: g0\n", "MCSAT instance needs at least 2 outputs at line 2"),
    ("csat", "g0 = input x\n\noutputs:   # none\n", "outputs: line names no gate at line 3"),
])
def test_solve_names_the_outputs_line_of_a_wrong_output_list(tmp_path, capsys, problem, text,
                                                              message):
    circ = tmp_path / "c.txt"
    circ.write_text(text)
    code, _, err = run_cli(["solve", problem, "zoo:2lattice", str(circ)], capsys)
    assert code == 64
    assert err.strip() == f"error: {message}"


def test_solve_mcsat(tmp_path, capsys):
    circ = tmp_path / "m.txt"
    circ.write_text(
        "g0 = input x\ng1 = input y\ng2 = meet g0 g1\ng3 = join g0 g1\n"
        "outputs: g2 g3 g0\n"
    )
    code, out, _ = run_cli(["solve", "mcsat", "zoo:2lattice", str(circ)], capsys)
    assert code == 0
    assert out.startswith("SAT")


def test_solve_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO("g0 = input x\ng1 = const 0\noutputs: g0 g1\n")
    )
    code, out, _ = run_cli(["solve", "csat", "zoo:2lattice", "-"], capsys)
    assert code == 0
    assert out.strip() == "SAT x=0"


def test_outputs_byte_stable(capsys):
    code1, out1, _ = run_cli(["classify", "zoo:Z4ring", "--json"], capsys)
    code2, out2, _ = run_cli(["classify", "zoo:Z4ring", "--json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
