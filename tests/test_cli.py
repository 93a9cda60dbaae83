import subprocess
import sys

import pytest

from beliefnet import cutset, is_polytree, load_network, propagation
from beliefnet.cli import run

BAD_SUM = "network t\nvariable A : a, b\ncpt A\n: 0.9, 0.6\n"
NAN_ROW = "network t\nvariable A : a, b\ncpt A\n: nan, nan\n"
BAD_SYNTAX = "network t\nvariable A a, b\n"
IMPOSSIBLE = """\
network t
variable A : a, b
variable B : a, b
variable C : a, b
cpt A
: 0.5, 0.5
cpt B | A
a : 1.0, 0.0
b : 0.0, 1.0
cpt C
: 0.5, 0.5
"""


def _fx(fixture_dir, name):
    return str(fixture_dir / name)


def test_query_forward(fixture_dir, capsys):
    code = run(["query", _fx(fixture_dir, "serial.bn"),
                "--target", "Z", "--evidence", "X=true"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == ("P(Z=true) = 0.809000\n"
                   "P(Z=false) = 0.191000\n"
                   "class: Forward\n"
                   "method: bp\n")
    assert err == ""


def test_query_without_evidence_has_no_class_line(fixture_dir, capsys):
    code = run(["query", _fx(fixture_dir, "serial.bn"), "--target", "Y"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == ("P(Y=true) = 0.768000\n"
                   "P(Y=false) = 0.232000\n"
                   "method: bp\n")


def test_query_loopy_auto_uses_cutset(fixture_dir, capsys):
    code = run(["query", _fx(fixture_dir, "sprinkler.bn"),
                "--target", "X3", "--evidence", "X4=wet"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.splitlines()[0] == "P(X3=on) = 0.413806"
    assert out.splitlines()[-1] == "method: cutset"


def test_query_explicit_enumeration(fixture_dir, capsys):
    code = run(["query", _fx(fixture_dir, "serial.bn"),
                "--target", "Z", "--evidence", "X=true", "--method", "enum"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.splitlines()[0] == "P(Z=true) = 0.809000"
    assert out.splitlines()[-1] == "method: enum"


def test_query_soft_evidence(fixture_dir, capsys):
    code = run(["query", _fx(fixture_dir, "serial.bn"),
                "--target", "X", "--soft", "Y=0.5:0.2"])
    out, _ = capsys.readouterr()
    assert code == 0
    # 0.9*(0.85*0.5+0.15*0.2) / 0.4304
    assert out.splitlines()[0] == "P(X=true) = 0.951441"


def test_query_trace_on_polytree(fixture_dir, capsys):
    code = run(["query", _fx(fixture_dir, "serial.bn"),
                "--target", "Z", "--evidence", "X=true", "--trace"])
    out, err = capsys.readouterr()
    assert code == 0
    lines = err.strip().splitlines()
    assert len(lines) == 4  # two edges, one message each way
    assert all(line.startswith("MSG ") for line in lines)
    assert out.splitlines()[0] == "P(Z=true) = 0.809000"


def test_query_trace_on_loopy(fixture_dir, capsys):
    code = run(["query", _fx(fixture_dir, "sprinkler.bn"),
                "--target", "X3", "--evidence", "X4=wet", "--trace"])
    _, err = capsys.readouterr()
    assert code == 0
    lines = err.strip().splitlines()
    assert len(lines) == 20  # two sweeps over five edges
    assert all(line.startswith("MSG ") for line in lines)


@pytest.mark.parametrize("name, target, evidence, lines, sweeps, cutsets", [
    ("serial.bn", "Z", ["--evidence", "X=true"], 4, 1, 0),
    ("sprinkler.bn", "X3", ["--evidence", "X4=wet"], 20, 1, 1),
    ("loopy8.bn", "H", [], 72, 1, 1),
], ids=["serial", "sprinkler", "loopy8"])
def test_query_trace_runs_inference_once(fixture_dir, capsys, monkeypatch,
                                         name, target, evidence, lines, sweeps, cutsets):
    calls = []

    def counting(fn, tag):
        def wrapped(*args, **kwargs):
            calls.append(tag)
            return fn(*args, **kwargs)
        return wrapped

    for module in (propagation, cutset):
        monkeypatch.setattr(module, "_run", counting(module._run, "sweep"))
    monkeypatch.setattr(cutset, "select_cutset", counting(cutset.select_cutset, "cutset"))
    code = run(["query", _fx(fixture_dir, name), "--target", target, *evidence, "--trace"])
    _, err = capsys.readouterr()
    assert code == 0
    assert len(err.splitlines()) == lines
    assert calls.count("sweep") == sweeps
    assert calls.count("cutset") == cutsets


@pytest.mark.parametrize("name", ["serial", "diverging", "converging", "sprinkler", "loopy8"])
def test_query_trace_leaves_stdout_and_exit_code_unchanged(fixture_dir, capsys, name):
    path = _fx(fixture_dir, f"{name}.bn")
    net = load_network(path)
    findings = [[]] + [["--evidence", f"{v.id}={state}"] for v in net.variables for state in v.states]
    for target in (v.id for v in net.variables):
        for evidence in findings:
            for method in ("auto", "enum", "bp", "cutset"):
                argv = ["query", path, "--target", target, *evidence, "--method", method]
                answers = []
                for extra in ([], ["--trace"]):
                    code = run(argv + extra)
                    answers.append((code, capsys.readouterr().out))
                assert answers[0] == answers[1], argv


def test_dsep_separated(fixture_dir, capsys):
    code = run(["dsep", _fx(fixture_dir, "serial.bn"), "X", "Z", "--given", "Y"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == "d-separated\n"


def test_dsep_connected_shows_path(fixture_dir, capsys):
    code = run(["dsep", _fx(fixture_dir, "serial.bn"), "X", "Z"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == "d-connected: X-Y-Z\n"


def test_dsep_unknown_variable(fixture_dir, capsys):
    code = run(["dsep", _fx(fixture_dir, "serial.bn"), "X", "Q"])
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:")


def test_classify(fixture_dir, capsys):
    code = run(["classify", _fx(fixture_dir, "serial.bn"),
                "--target", "Z", "--evidence", "X=true"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == "Forward\n"


def test_classify_needs_evidence(fixture_dir, capsys):
    code = run(["classify", _fx(fixture_dir, "serial.bn"), "--target", "Z"])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:")


def test_cutset_on_polytree(fixture_dir, capsys):
    code = run(["cutset", _fx(fixture_dir, "serial.bn")])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == "polytree\n"


def test_cutset_on_loop(fixture_dir, capsys):
    code = run(["cutset", _fx(fixture_dir, "sprinkler.bn")])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == "cutset: X1\n"


def test_cutset_two_loops(fixture_dir, capsys):
    code = run(["cutset", _fx(fixture_dir, "loopy8.bn")])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == "cutset: A,B\n"


def test_joint(fixture_dir, capsys):
    code = run(["joint", _fx(fixture_dir, "serial.bn"),
                "--assign", "X=true,Y=true,Z=true"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == "0.726750\n"


def test_joint_needs_every_variable(fixture_dir, capsys):
    code = run(["joint", _fx(fixture_dir, "serial.bn"), "--assign", "X=true"])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:")


def test_validate_ok(fixture_dir, capsys):
    code = run(["validate", _fx(fixture_dir, "sprinkler.bn")])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == "" and err == ""


def test_validate_reports_violations(tmp_path, capsys):
    p = tmp_path / "bad.bn"
    p.write_text(BAD_SUM)
    code = run(["validate", str(p)])
    _, err = capsys.readouterr()
    assert code == 1
    assert "row-sum" in err


def test_validate_rejects_a_nan_entry(tmp_path, capsys):
    p = tmp_path / "nan.bn"
    p.write_text(NAN_ROW)
    code = run(["validate", str(p)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "probability-range at line 4, cpt A prior: entries outside [0, 1]\n"


@pytest.mark.parametrize("command, code", [(["validate"], 1), (["query", "--target", "Z"], 2)],
                         ids=["validate", "query"])
def test_a_row_of_inf_and_minus_inf_prints_only_its_violation(fixture_dir, tmp_path,
                                                              command, code):
    p = tmp_path / "inf.bn"
    p.write_text((fixture_dir / "serial.bn").read_text().replace(": 0.9, 0.1", ": inf, -inf"))
    proc = subprocess.run([sys.executable, "-m", "beliefnet", command[0], str(p), *command[1:]],
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr == "probability-range at line 7, cpt X prior: entries outside [0, 1]\n"


def test_validate_syntax_error_is_usage(tmp_path, capsys):
    p = tmp_path / "bad.bn"
    p.write_text(BAD_SYNTAX)
    code = run(["validate", str(p)])
    _, err = capsys.readouterr()
    assert code == 2
    assert "line 2" in err


def test_missing_file(capsys):
    code = run(["validate", "/no/such/file.bn"])
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:")


def test_broken_network_in_query_is_usage(tmp_path, capsys):
    p = tmp_path / "bad.bn"
    p.write_text(BAD_SUM)
    code = run(["query", str(p), "--target", "A"])
    _, err = capsys.readouterr()
    assert code == 2
    assert "row-sum" in err


def test_unknown_evidence_variable(fixture_dir, capsys):
    code = run(["query", _fx(fixture_dir, "serial.bn"),
                "--target", "Z", "--evidence", "Q=true"])
    _, err = capsys.readouterr()
    assert code == 2
    assert "unknown variable" in err


def test_duplicate_evidence(fixture_dir, capsys):
    code = run(["query", _fx(fixture_dir, "serial.bn"),
                "--target", "Z", "--evidence", "X=true,X=false"])
    _, err = capsys.readouterr()
    assert code == 2
    assert "two evidence entries" in err


def test_bad_soft_weights(fixture_dir, capsys):
    code = run(["query", _fx(fixture_dir, "serial.bn"),
                "--target", "Z", "--soft", "Y=0.5"])
    _, err = capsys.readouterr()
    assert code == 2
    assert "needs 2 weights" in err


@pytest.mark.parametrize("weights", ["nan:1", "inf:1", "1:-inf"])
def test_non_finite_soft_weights_are_usage(fixture_dir, capsys, weights):
    code = run(["query", _fx(fixture_dir, "serial.bn"),
                "--target", "Z", "--soft", f"Y={weights}"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: soft evidence weights must be finite\n"


def test_impossible_evidence_is_domain_error(tmp_path, capsys):
    p = tmp_path / "det.bn"
    p.write_text(IMPOSSIBLE)
    code = run(["query", str(p), "--target", "C",
                "--evidence", "A=a,B=b"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "probability zero" in err


def test_polytree_method_on_loopy_is_domain_error(fixture_dir, capsys):
    code = run(["query", _fx(fixture_dir, "sprinkler.bn"),
                "--target", "X3", "--method", "bp"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "multiply connected" in err


def test_no_arguments_is_usage(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_module_entry_point(fixture_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "beliefnet", "dsep",
         _fx(fixture_dir, "serial.bn"), "X", "Z", "--given", "Y"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "d-separated\n"


@pytest.mark.parametrize("name", ["serial", "diverging", "converging", "sprinkler", "loopy8"])
def test_every_engine_prints_the_same_digits(fixture_dir, capsys, name):
    path = _fx(fixture_dir, f"{name}.bn")
    net = load_network(path)
    methods = ["enum", "cutset", "auto"] + ["bp"] * bool(is_polytree(net))
    findings = [[]] + [["--evidence", f"{v.id}={state}"] for v in net.variables for state in v.states]
    for target in net.variables:
        for finding in findings:
            if finding and finding[1].startswith(f"{target.id}="):
                continue
            printed = set()
            for method in methods:
                code = run(["query", path, "--target", target.id, "--method", method, *finding])
                out, _ = capsys.readouterr()
                printed.add((code, tuple(line for line in out.splitlines()
                                         if line.startswith("P("))))
            assert len(printed) == 1, (target.id, finding, printed)
