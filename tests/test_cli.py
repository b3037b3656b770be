import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qfamily import cli
from qfamily.channels import sweep_csv
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
    assert "not achievable" not in out


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


def test_negative_rate_is_marked_not_achievable(capsys):
    argv = ("rates", "--ri", "eq5", "--channel", "erasure", "--param", "0.75")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "  outputs: -0.5 [q->q] (not achievable)\n" in out
    assert "  inputs:  1 copy of {q->q}\n" in out
    code, out, _ = run_cli(capsys, *argv, "--json")
    payload = json.loads(out)
    assert [e["achievable"] for e in payload["inputs"]] == [True]
    assert [e["achievable"] for e in payload["outputs"]] == [False]
    assert payload["outputs"][0]["rate"] == pytest.approx(-0.5, abs=1e-12)


def test_rates_json_shows_the_entropies_and_dims_used(capsys):
    code, out, _ = run_cli(capsys, "rates", "--ri", "eq5",
                           "--channel", "erasure", "--param", "0.25", "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["ri", "mode", "object", "inputs", "outputs", "entropies", "dims"]
    assert payload["dims"] == [2, 3, 3]
    h_p = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert payload["entropies"] == pytest.approx(
        {"H(A)": 1.0, "H(B)": 0.75 + h_p, "H(E)": 0.25 + h_p}, abs=1e-12)
    h = payload["entropies"]
    # eq5's output rate is Ic(A>B) = H(B) - H(E), from these very numbers
    assert payload["outputs"][0]["rate"] == pytest.approx(h["H(B)"] - h["H(E)"], abs=1e-15)


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


def test_a_long_sweep_writes_its_first_rows_before_the_grid_ends(monkeypatch):
    # 0:1:1e-300 has more points than fit in memory.  Reading 1000 of them
    # fails the test; the first write stops the sweep before that.
    class FirstWrite(Exception):
        pass

    walked, written = [], []
    real_parse_grid = cli._parse_grid

    def watched_grid(text):
        for point in real_parse_grid(text):
            assert len(walked) < 1000, "no row written after 1000 grid points"
            walked.append(point)
            yield point

    def first_write(text):
        written.append(text)
        raise FirstWrite

    monkeypatch.setattr(cli, "_parse_grid", watched_grid)
    monkeypatch.setattr(sys.stdout, "write", first_write)
    with pytest.raises(FirstWrite):
        cli.main(["sweep", "--channel", "erasure", "--param", "0:1:1e-300"])
    assert len(walked) > 1
    assert written == [sweep_csv("erasure", walked)]


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
    from qfamily.channels import builtin_objects
    from test_channels import registry_entry_json

    entry = registry_entry_json(builtin_objects()["erasure_state_p25"])
    entry["name"] = "my_state"
    path = tmp_path / "objects.json"
    path.write_text(json.dumps([entry]))
    code, out, _ = run_cli(capsys, "rates", "--ri", "eq2", "--state", "my_state",
                           "--registry", str(path))
    assert code == 0
    assert "my_state" in out


def test_registry_env_var(capsys, tmp_path, monkeypatch):
    from qfamily.channels import builtin_objects
    from test_channels import registry_entry_json

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
    ("sweep", "--channel", "erasure", "--param", "1/0"),
    ("sweep", "--channel", "erasure", "--param", "0:1:1/0"),
    ("sweep", "--channel", "erasure", "--param", "0.5:0.4:0.1"),
    ("rates", "--ri", "eq5", "--channel", "identity", "--param", "nan"),
    ("rates", "--ri", "eq5", "--channel", "identity", "--param", "-7"),
    ("sweep", "--channel", "identity", "--param", "5,-3"),
])
def test_boundary_errors_exit_2_with_an_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_a_grid_value_beyond_float_range_exits_2(capsys):
    code, out, err = run_cli(capsys, "sweep", "--channel", "erasure", "--param", "1e400")
    assert (code, out, err) == (2, "", "error: grid value '1e400' does not fit a float\n")


def test_a_grid_range_is_walked_one_point_at_a_time(capsys):
    # 1e300 points would never fit in memory: the sweep ends at p = 2, the
    # first point outside the family's domain, with the family's own error
    code, out, err = run_cli(capsys, "sweep", "--channel", "erasure", "--param", "0:1e300:1")
    assert (code, out, err) == (2, "", "error: erasure parameter 2.0 outside [0, 1]\n")


@pytest.mark.parametrize("argv, registry, message", [
    (["dual", "--text", "(" * 600 + "H(A)" + ")" * 600 + " [qq] >= [qq]"], None,
     "error: nested parentheses (at position 1)\n"),
    (["rates", "--ri", "mother", "--state", "x"], "[" * 100000 + "]" * 100000, None),
], ids=["dual-text", "registry"])
def test_deep_nesting_exits_2_with_one_error_line(tmp_path, argv, registry, message):
    if registry is not None:
        path = tmp_path / "deep.json"
        path.write_text(registry)
        argv = [*argv, "--registry", str(path)]
        message = f"error: registry {path} nests too deeply to read\n"
    proc = subprocess.run([sys.executable, "-m", "qfamily.cli", *argv],
                          capture_output=True, text=True, env=_src_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


# Tables whose entropies leave a rate within rounding noise of zero: on the
# Bell state H(E) comes out near 6.4e-16, on the fully dephasing channel
# Ic(A>B) near -1.1e-16.
@pytest.mark.parametrize("argv, side, line", [
    (("--ri", "eq2", "--state", "bell"), "inputs", "  inputs:  0 [c->c] + 1 copy of {qq}"),
    (("--ri", "mother", "--state", "bell"), "inputs", "  inputs:  0 [q->q] + 1 copy of {qq}"),
    (("--ri", "eq5", "--channel", "dephasing", "--param", "1"), "outputs", "  outputs: 0 [q->q]"),
], ids=["eq2-bell", "mother-bell", "eq5-dephasing-1"])
def test_rates_below_the_noise_floor_are_zero_in_text_and_json(capsys, argv, side, line):
    code, out, _ = run_cli(capsys, "rates", *argv)
    assert code == 0
    assert line in out.splitlines()
    code, out, _ = run_cli(capsys, "rates", *argv, "--json")
    rates = [entry["rate"] for entry in json.loads(out)[side] if entry["rate"] is not None]
    assert code == 0
    assert rates == [0.0] and math.copysign(1.0, rates[0]) == 1.0


@pytest.mark.parametrize("registry", [
    [{"name": "x", "kind": "state", "data": [[1, 0]]}],
    [{"name": "x", "kind": "state", "dims": [1, 1]}],
    [5],
    None,
    [{"name": "x", "kind": "state", "dims": 5, "data": [[1, 0]]}],
    [{"name": "x", "kind": "state", "dims": [True, True], "data": [[1, 0]]}],
    "{bad",
], ids=["no-dims", "no-data", "not-an-object", "missing-file", "scalar-dims", "boolean-dims",
        "not-json"])
def test_malformed_registry_exits_2_with_an_error_line(capsys, tmp_path, registry):
    path = tmp_path / "f.json"
    if registry is not None:
        path.write_text(registry if isinstance(registry, str) else json.dumps(registry))
    code, out, err = run_cli(capsys, "rates", "--ri", "mother", "--state", "x",
                             "--registry", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    if isinstance(registry, str):  # raw text: the error names the file and the place
        assert str(path) in err and "line 1 column 2" in err


def test_a_registry_entry_named_like_a_channel_family_exits_2(capsys, tmp_path):
    # the fully dephasing qubit channel, which `--channel erasure` used to
    # replace silently by the erasure family at p = 0
    kraus = [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [1, 0]]
    path = tmp_path / "f.json"
    path.write_text(json.dumps([{"name": "erasure", "kind": "channel", "dims": [2, 2, 2],
                                 "data": kraus}]))
    code, out, err = run_cli(capsys, "rates", "--ri", "eq5", "--channel", "erasure",
                             "--registry", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: registry entry 'erasure' is named like a channel family, "
                   "which `--channel erasure` would pick instead\n")


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this tree's qfamily."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_closed_stdout_exits_nonzero_without_a_traceback():
    proc = subprocess.Popen([sys.executable, "-m", "qfamily.cli", "family", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
    proc.stdout.close()  # the reader is gone before the first write, as after `| head -c 10`
    err = proc.stderr.read()
    assert proc.wait() != 0
    assert err == b""


def test_registry_state_off_unit_trace_is_reported_with_a_plain_float(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"name": "s", "kind": "state", "dims": [1, 1], "data": [[1.01, 0]]}]))
    proc = subprocess.run([sys.executable, "-m", "qfamily.cli", "rates", "--ri", "mother",
                           "--state", "s", "--registry", str(path)],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: trace 1.01 differs from 1 by more than 1e-10\n"


def test_a_pure_registry_state_at_the_trace_tolerance_has_zero_rates(capsys, tmp_path):
    # |00><00| with trace 1 + 9e-11, which the trace check accepts
    path = tmp_path / "pure00.json"
    path.write_text(json.dumps([{"name": "pure00", "kind": "state", "dims": [2, 2],
                                 "data": [[1 + 9e-11, 0]] + [[0, 0]] * 15}]))
    tables = 0
    for name in derive_family():
        argv = ("rates", "--ri", name, "--state", "pure00", "--registry", str(path))
        code, out, _ = run_cli(capsys, *argv)
        if code != 0 or "copy of {qq}" not in out:  # it does not consume the state
            continue
        tables += 1
        assert "(not achievable)" not in out
        for line in out.splitlines()[1:]:
            assert set(re.findall(r"(\S+) \[", line)) <= {"0"}, line
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        report = json.loads(out)
        assert {e["rate"] for e in report["inputs"] + report["outputs"]} <= {0.0, None}
        assert min(report["entropies"].values()) >= 0.0
    assert tables > 0


def test_family_prints_only_duality_claims_that_hold(capsys, monkeypatch):
    _, out, _ = run_cli(capsys, "family")
    line = out.splitlines()[-1]
    false_claims = (("tp", "sd", None), ("eq1", "eq5", None))
    monkeypatch.setattr(cli, "DUALITY_CLAIMS", cli.DUALITY_CLAIMS + false_claims)
    _, out_with_false, _ = run_cli(capsys, "family")
    assert out_with_false == out
    assert line.startswith("duality: mother <-> father; ")
    assert "tp <-> sd" not in line and "eq1 <-> eq5" not in line


@pytest.mark.parametrize("modules", ["qfamily", "qfamily.algebra, qfamily.grammar, qfamily.derivation"])
def test_package_and_symbolic_layer_load_no_numpy(modules):
    code = f"import sys, {modules}; print(sorted({{'numpy', 'qfamily.entropy'}} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), check=True)
    assert proc.stdout == "[]\n"


def test_the_symbolic_layer_check_passes():
    """tests/check_symbolic.py, which CI runs alone on the other supported
    Pythons, passes in a fresh interpreter here."""
    script = Path(__file__).resolve().parent / "check_symbolic.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(": ok\n")


# ---------------------------------------------------------------------------
# The entry point's BLAS thread choice and its deferred modules
# ---------------------------------------------------------------------------

# The variables this numpy's OpenBLAS reads for its thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _run_fresh(argv, **thread_vars) -> str:
    """Stdout of a fresh interpreter run with only the given thread variables set."""
    env = {k: v for k, v in _src_env().items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**env, **thread_vars}, check=True)
    return proc.stdout


_OPENBLAS_AFTER_IMPORT = "import os, qfamily.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"


def test_entry_point_runs_openblas_on_one_thread():
    code = ("import os, qfamily.cli, numpy as np; np.linalg.eigvalsh(np.eye(4));"
            "status = open('/proc/self/status').read() if os.path.exists('/proc/self/status') else '';"
            "threads = [line.split()[1] for line in status.splitlines() if line.startswith('Threads:')];"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), *threads)")
    out = _run_fresh(["-c", code]).split()
    assert out[0] == "1"
    if sys.platform.startswith("linux"):
        assert out[1:] == ["1"]


@pytest.mark.parametrize("user_vars, expected", [
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"GOTO_NUM_THREADS": "2"}, "None"),
    ({"OMP_NUM_THREADS": "2"}, "None"),
], ids=["openblas", "goto", "omp"])
def test_a_thread_count_the_user_chose_wins(user_vars, expected):
    # Against the entry point's own choice, made when the user set none.
    assert _run_fresh(["-c", _OPENBLAS_AFTER_IMPORT]) == "1\n"
    assert _run_fresh(["-c", _OPENBLAS_AFTER_IMPORT], **user_vars) == expected + "\n"


def test_entry_point_defers_the_circuit_lab_and_the_rng():
    code = "import sys, qfamily.cli; print(sorted({'qfamily.circuits', 'qfamily.rng'} & set(sys.modules)))"
    assert _run_fresh(["-c", code]) == "[]\n"


@pytest.mark.parametrize("argv", [
    ("sweep", "--channel", "depolarizing", "--param", "0:1:0.01"),
    ("check-identities", "--seed", "3", "--trials", "7"),
], ids=["sweep", "check-identities"])
def test_blas_thread_count_never_moves_output_bytes(argv):
    cli_argv = ["-m", "qfamily.cli", *argv]
    assert _run_fresh(cli_argv) == _run_fresh(cli_argv, OPENBLAS_NUM_THREADS="2")


# ---------------------------------------------------------------------------
# Rate tables against the paper's closed forms
# ---------------------------------------------------------------------------


def _h(*probs: float) -> float:
    """Shannon entropy in bits."""
    return -sum(q * math.log2(q) for q in probs if q > 0)


GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

# (derivation, channel family, table side, resource) -> the rate as a function
# of the family's parameter p, on the channel state with a maximally
# entangled input.  eq5 is the quantum capacity through Ic(A>B); eq4 is the
# entanglement-assisted classical capacity I(A:B), per ebit H(A) = 1.
CHANNEL_FORMS = {
    ("eq5", "erasure", "outputs", "[q->q]"): lambda p: 1 - 2 * p,
    ("eq5", "dephasing", "outputs", "[q->q]"): lambda p: 1 - _h(p / 2, 1 - p / 2),
    ("eq5", "depolarizing", "outputs", "[q->q]"):
        lambda p: 1 - _h(1 - 3 * p / 4, p / 4, p / 4, p / 4),
    ("eq4", "erasure", "outputs", "[c->c]"): lambda p: 2 * (1 - p),
}

# The hashing inequality eq2 on two built-in states, with the closed form of
# each noiseless rate: I(A:E) cbits in, Ic(A>B) ebits out.
STATE_FORMS = {
    ("eq2", "erasure_state_p25"): {("inputs", "[c->c]"): 0.5, ("outputs", "[qq]"): 0.5},
    ("eq2", "depolarizing_state_p50"): {
        ("inputs", "[c->c]"): _h(5 / 8, 1 / 8, 1 / 8, 1 / 8),
        ("outputs", "[qq]"): 1 - _h(5 / 8, 1 / 8, 1 / 8, 1 / 8),
    },
}

CASES = [((ri, "--channel", family, "--param", str(p)), {(side, token): form(p)})
         for (ri, family, side, token), form in CHANNEL_FORMS.items() for p in GRID]
CASES += [((ri, "--state", state), forms) for (ri, state), forms in STATE_FORMS.items()]


def _text_rates(out: str) -> dict:
    """(side, token) -> (printed rate, marked not achievable) of a rate table's text."""
    rates = {}
    for line in out.splitlines()[1:]:
        side, terms = line.split(":", 1)
        for term in terms.split(" + "):
            words = term.split()
            if "copy" not in words and "copies" not in words:
                rates[(side.strip(), words[1])] = (words[0], "(not achievable)" in term)
    return rates


@pytest.mark.parametrize("args, forms", CASES, ids=[" ".join(args) for args, _ in CASES])
def test_rate_tables_match_the_closed_forms(capsys, args, forms):
    ri, *obj = args
    code, out, _ = run_cli(capsys, "rates", "--ri", ri, *obj)
    assert code == 0
    text = _text_rates(out)
    code, out, _ = run_cli(capsys, "rates", "--ri", ri, *obj, "--json")
    assert code == 0
    payload = json.loads(out)
    entries = {(side, e["kind_token"]): e for side in ("inputs", "outputs") for e in payload[side]}
    for key, expected in forms.items():
        printed, marked = text[key]
        entry = entries[key]
        assert marked == (expected < 0) == (not entry["achievable"]), key
        if expected == 0:  # noise never reaches the output
            assert (printed, entry["rate"]) == ("0", 0.0), key
        else:
            assert float(printed) == pytest.approx(expected, abs=5e-12), key
            assert entry["rate"] == pytest.approx(expected, abs=1e-12), key
