import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qfamily import cli
from qfamily.derivation import derive_family
from qfamily.grammar import format_ri, ri_from_json


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_lists_ten_inequalities(capsys):
    code, out, _ = run_cli(capsys, "family")
    assert code == 0
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("  ") and not line.lstrip().startswith("|")]
    assert listed == ["mother", "father", "tp", "sd", "qe",
                      "eq1", "eq2", "eq3", "eq4", "eq5"]


def test_family_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "family", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 10
    family = derive_family()
    for name, data in payload.items():
        assert ri_from_json(data).same_statement(family[name])


def test_derive_prints_the_prepend_trace(capsys):
    code, out, _ = run_cli(capsys, "derive", "--target", "eq2")
    assert code == 0
    assert "prepend tp" in out
    assert out.strip().endswith("I(A:E) [c->c] + {qq} >= Ic(A>B) [qq]")


def test_derive_unknown_target_fails(capsys):
    code, _, err = run_cli(capsys, "derive", "--target", "eq9")
    assert code == 2
    assert "eq9" in err


def test_rates_on_erasure(capsys):
    code, out, _ = run_cli(capsys, "rates", "--ri", "eq5",
                           "--channel", "erasure", "--param", "0.25")
    assert code == 0
    assert "0.5 [q->q]" in out


def test_rates_on_identity(capsys):
    code, out, _ = run_cli(capsys, "rates", "--ri", "eq5", "--channel", "identity")
    assert code == 0
    assert "1 [q->q]" in out


def test_rates_mother_on_bell_is_trivial(capsys):
    code, out, _ = run_cli(capsys, "rates", "--ri", "mother",
                           "--state", "bell", "--json")
    assert code == 0
    payload = json.loads(out)
    qubit_rate = next(e["rate"] for e in payload["inputs"] if e["kind_token"] == "[q->q]")
    ebit_rate = next(e["rate"] for e in payload["outputs"] if e["kind_token"] == "[qq]")
    assert abs(qubit_rate) < 1e-9
    assert abs(ebit_rate - 1.0) < 1e-9


def test_rates_param_out_of_domain_fails(capsys):
    code, _, err = run_cli(capsys, "rates", "--ri", "eq5",
                           "--channel", "erasure", "--param", "1.5")
    assert code == 2
    assert "outside" in err


def test_rates_requires_exactly_one_object(capsys):
    code, _, err = run_cli(capsys, "rates", "--ri", "eq5")
    assert code == 2
    assert "exactly one" in err


def test_sweep_five_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--channel", "erasure",
                           "--param", "0:1:0.25")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "param,H_A,H_B,H_E,I_AB,I_AE,Ic"
    assert len(lines) == 6
    ic_values = [float(line.split(",")[-1]) for line in lines[1:]]
    assert ic_values == pytest.approx([1, 0.5, 0, -0.5, -1], abs=1e-9)


def test_sweep_prints_a_tiny_parameter_as_given(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--channel", "erasure",
                           "--param", "1e-13,0.5")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1e-13", "0.5"]


def test_verify_circuits_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-circuits", "--trials", "5", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert len(report["protocols"]) == 7
    assert all(entry["pass"] for entry in report["protocols"])


def test_check_identities_passes_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "check-identities", "--trials", "25", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "check-identities", "--trials", "25", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "PASS" in out1


@pytest.mark.parametrize("argv", [
    ("family",),
    ("family", "--json"),
    ("sweep", "--channel", "dephasing", "--param", "0:1:0.5"),
    ("verify-circuits", "--trials", "3", "--seed", "9"),
])
def test_output_is_byte_identical_across_runs(capsys, argv):
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_dual_of_mother_text(capsys):
    code, out, _ = run_cli(capsys, "dual", "--ri", "mother")
    assert code == 0
    assert out.strip() == "1/2*I(A:E) [qq] + {q->q} >= 1/2*I(A:B) [q->q]"


def test_dual_of_parsed_text(capsys):
    code, out, _ = run_cli(capsys, "dual", "--text", "2 [c->c] + [qq] >=! [q->q]")
    assert code == 0
    assert out.strip() == "2 [c->c] + [q->q] >=! [qq]"


def test_registry_file_provides_objects(capsys, tmp_path):
    from qfamily.channels import builtin_objects, registry_entry_json

    entry = registry_entry_json(builtin_objects()["erasure_state_p25"])
    entry["name"] = "my_state"
    path = tmp_path / "objects.json"
    path.write_text(json.dumps([entry]))
    code, out, _ = run_cli(capsys, "rates", "--ri", "eq2", "--state", "my_state",
                           "--registry", str(path))
    assert code == 0
    assert "my_state" in out


def test_registry_env_var(capsys, tmp_path, monkeypatch):
    from qfamily.channels import builtin_objects, registry_entry_json

    entry = registry_entry_json(builtin_objects()["bell"])
    entry["name"] = "env_bell"
    path = tmp_path / "env.json"
    path.write_text(json.dumps([entry]))
    monkeypatch.setenv("QFAMILY_REGISTRY", str(path))
    code, out, _ = run_cli(capsys, "rates", "--ri", "mother", "--state", "env_bell")
    assert code == 0
    assert "env_bell" in out


@pytest.mark.parametrize("argv", [
    ("dual", "--text", "1/0 [qq] >= [qq]"),
    ("check-identities", "--trials", "0"),
    ("check-identities", "--trials", "-5"),
    ("verify-circuits", "--trials", "-3"),
])
def test_boundary_errors_exit_2_with_an_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("registry", [
    [{"name": "x", "kind": "state", "data": [[1, 0]]}],
    [{"name": "x", "kind": "state", "dims": [1, 1]}],
    [5],
    None,
    [{"name": "x", "kind": "state", "dims": 5, "data": [[1, 0]]}],
    [{"name": "x", "kind": "state", "dims": [True, True], "data": [[1, 0]]}],
], ids=["no-dims", "no-data", "not-an-object", "missing-file", "scalar-dims", "boolean-dims"])
def test_malformed_registry_exits_2_with_an_error_line(capsys, tmp_path, registry):
    path = tmp_path / "f.json"
    if registry is not None:
        path.write_text(json.dumps(registry))
    code, out, err = run_cli(capsys, "rates", "--ri", "mother", "--state", "x",
                             "--registry", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_closed_stdout_exits_nonzero_without_a_traceback():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen([sys.executable, "-m", "qfamily.cli", "family", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before the first write, as after `| head -c 10`
    err = proc.stderr.read()
    assert proc.wait() != 0
    assert err == b""


def test_family_prints_only_duality_claims_that_hold(capsys, monkeypatch):
    _, out, _ = run_cli(capsys, "family")
    line = out.splitlines()[-1]
    false_claims = (("tp", "sd", None), ("eq1", "eq5", None))
    monkeypatch.setattr(cli, "DUALITY_CLAIMS", cli.DUALITY_CLAIMS + false_claims)
    _, out_with_false, _ = run_cli(capsys, "family")
    assert out_with_false == out
    assert line.startswith("duality: mother <-> father; ")
    assert "tp <-> sd" not in line and "eq1 <-> eq5" not in line
