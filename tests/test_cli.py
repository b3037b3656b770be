import ast
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tomllib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qfamily import cli, derivation
from qfamily.algebra import CBIT, vec
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


@pytest.mark.parametrize("argv", [
    ("derive", "--target", "eq9"),
    ("rates", "--ri", "eq9", "--channel", "no_such_channel"),
    ("dual", "--ri", "eq9"),
], ids=["derive", "rates", "dual"])
def test_derive_unknown_target_fails(capsys, argv):
    """Each verb that takes a family member names an unknown one alike;
    `rates` checks it before the object, which does not exist either."""
    known = ", ".join(sorted(derive_family()))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: unknown inequality 'eq9'; known: {known}\n")


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


@pytest.mark.parametrize("argv", [
    ("--ri", "eq2", "--state", "erasure_state_p25"),
    ("--ri", "eq5", "--channel", "amplitude_damping_p40"),
    ("--ri", "eq5", "--channel", "identity"),
    ("--ri", "eq5", "--channel", "erasure", "--param", "0.5"),
], ids=["built-in-state", "built-in-channel", "family", "family-point"])
def test_rates_builds_only_the_object_it_picks(capsys, monkeypatch, argv):
    from qfamily import channels

    built = []
    real = channels.channel_state

    def counted(kraus):
        built.append(kraus.shape)
        return real(kraus)

    monkeypatch.setattr(channels, "channel_state", counted)
    code, _, err = run_cli(capsys, "rates", *argv)
    assert (code, err, len(built)) == (0, "", 1)


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


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_a_negative_zero_parameter_is_named_and_built_as_zero(capsys, json_flag):
    argv = ("rates", "--ri", "eq5", "--channel", "depolarizing")
    negative = run_cli(capsys, *argv, "--param", "-0.0", *json_flag)
    assert negative == run_cli(capsys, *argv, "--param", "0", *json_flag)
    assert negative[0] == 0 and "depolarizing(p=0.0)" in negative[1]


@pytest.mark.parametrize("param, message", [
    ("1e-400", "grid value '1e-400' does not fit a float"),
    ("1e400", "grid value '1e400' does not fit a float"),
    ("nan", "grid value 'nan' is not a number"),
], ids=["1e-400", "1e400", "nan"])
def test_rates_param_is_read_as_sweep_reads_a_grid_value(capsys, param, message):
    argv = ("rates", "--ri", "eq5", "--channel", "depolarizing")
    assert run_cli(capsys, *argv, "--param", param) == (2, "", f"error: {message}\n")
    assert run_cli(capsys, *argv, "--param", "1/4") == run_cli(capsys, *argv, "--param", "0.25")


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
    from test_channels import builtin_objects, registry_entry_json

    entry = registry_entry_json(builtin_objects()["erasure_state_p25"])
    entry["name"] = "my_state"
    path = tmp_path / "objects.json"
    path.write_text(json.dumps([entry]))
    code, out, _ = run_cli(capsys, "rates", "--ri", "eq2", "--state", "my_state",
                           "--registry", str(path))
    assert code == 0
    assert "my_state" in out


def test_registry_env_var(capsys, tmp_path, monkeypatch):
    from test_channels import builtin_objects, registry_entry_json

    entry = registry_entry_json(builtin_objects()["bell"])
    entry["name"] = "env_bell"
    path = tmp_path / "env.json"
    path.write_text(json.dumps([entry]))
    monkeypatch.setenv("QFAMILY_REGISTRY", str(path))
    code, out, _ = run_cli(capsys, "rates", "--ri", "mother", "--state", "env_bell")
    assert code == 0
    assert "env_bell" in out


def test_rates_on_a_registry_state_at_the_trace_and_psd_tolerances(capsys, tmp_path):
    # accepted by load_registry: trace 1 + 9e-11, three eigenvalues of -9e-11;
    # the state left when they are dropped has weight 1 + 3.6e-10
    diagonal = [1 + 3.6e-10, -9e-11, -9e-11, -9e-11]
    data = [[diagonal[i // 5] if i % 5 == 0 else 0.0, 0.0] for i in range(16)]
    path = tmp_path / "edge.json"
    path.write_text(json.dumps([{"name": "edge", "kind": "state", "dims": [2, 2], "data": data}]))
    code, out, err = run_cli(capsys, "rates", "--ri", "eq2", "--state", "edge",
                             "--registry", str(path), "--json")
    assert (code, err) == (0, "")
    table = json.loads(out)
    rates = [entry["rate"] for side in ("inputs", "outputs") for entry in table[side]
             if entry["rate"] is not None]
    assert rates and all(abs(rate) <= 1e-9 for rate in rates)  # |00>: no entanglement
    assert all(0.0 <= h <= 1e-9 for h in table["entropies"].values())


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


@pytest.mark.parametrize("verb", ["verify-circuits", "check-identities"])
@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 65 - 1])
def test_a_seed_outside_64_bits_exits_2(capsys, verb, seed):
    # splitmix64 keeps the low 64 bits, so such a seed would alias one inside
    code, out, err = run_cli(capsys, verb, "--trials", "1", "--seed", str(seed))
    assert (code, out, err) == (2, "", f"error: --seed must be in [0, 2^64), got {seed}\n")


@pytest.mark.parametrize("verb", ["verify-circuits", "check-identities"])
def test_the_largest_64_bit_seed_is_taken(capsys, verb):
    code, out, err = run_cli(capsys, verb, "--trials", "1", "--seed", str(2 ** 64 - 1))
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("grid, message", [
    ("1e400", "grid value '1e400' does not fit a float"),
    ("1e-400", "grid value '1e-400' does not fit a float"),
    # read at once: Fraction alone would first build 10**99999999
    ("1e99999999", "grid value '1e99999999' does not fit a float"),
    ("0:1:-1e-99_999_999", "grid value '-1e-99_999_999' does not fit a float"),
    ("nan", "grid value 'nan' is not a number"),
    ("abc", "grid value 'abc' is not a number"),
    ("1e 99999999", "grid value '1e 99999999' is not a number"),
    ("0:1:0.5,0.7", "grid value '0.5,0.7' is not a number"),
    (",", "grid value '' is not a number"),
], ids=["1e400", "1e-400", "huge-exponent", "huge-negative-exponent", "nan", "abc", "exponent-after-a-space",
        "comma-in-a-range", "comma-alone"])
def test_a_grid_value_beyond_float_range_exits_2(capsys, grid, message):
    code, out, err = run_cli(capsys, "sweep", "--channel", "erasure", "--param", grid)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("grid", ["1e-400", "0,1e-400", "-1e-400,0", "0:1:1e-400", "1e-400:1:1"])
def test_a_nonzero_grid_value_whose_float_underflows_is_refused(grid):
    # a step that rounds to 0.0 would repeat the first point without end
    with pytest.raises(cli.CliError, match=r"^grid value '-?1e-400' does not fit a float$"):
        cli._parse_grid(grid)


def test_zero_with_a_huge_exponent_is_zero():
    assert cli._parse_grid("0e-99999999,0.0e+99999999") == [0.0, 0.0]


def test_a_grid_range_is_walked_one_point_at_a_time(capsys):
    # 1e300 points would never fit in memory: the sweep ends at p = 2, the
    # first point outside the family's domain, with the family's own error
    code, out, err = run_cli(capsys, "sweep", "--channel", "erasure", "--param", "0:1e300:1")
    assert (code, out, err) == (2, "", "error: erasure parameter 2.0 outside [0, 1]\n")


# Grid endpoints in the spellings `--param` takes: p/q, mantissa and exponent, decimal.
_grid_numbers = st.one_of(
    st.builds("{}/{}".format, st.integers(-10**9, 10**9), st.integers(1, 10**9)),
    st.builds("{}e{}".format, st.integers(-10**6, 10**6), st.integers(-12, 2)),
    st.decimals(-100, 100, places=7, allow_nan=False, allow_infinity=False).map(str),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(start=_grid_numbers, step=_grid_numbers.filter(lambda text: Fraction(text) > 0),
       points=st.integers(1, 300), slack=st.fractions(0, 1).filter(lambda f: f < 1))
def test_a_grid_range_gives_the_floats_of_its_exact_points(start, step, points, slack):
    """Each point of a start:stop:step range is, bit for bit, `float` of the
    exact point that stepping `Fraction`s reaches."""
    stop = Fraction(start) + (points - 1 + slack) * Fraction(step)
    text = f"{start}:{stop.numerator}/{stop.denominator}:{step}"
    exact = itertools.takewhile(lambda v: v <= stop, itertools.count(Fraction(start), Fraction(step)))
    assert [x.hex() for x in cli._parse_grid(text)] == [float(v).hex() for v in exact]


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


@pytest.mark.parametrize("entry, builtin", [
    ({"name": "bell", "kind": "channel", "dims": [2, 2, 1], "data": [[1, 0], [0, 0], [0, 0], [1, 0]]},
     "state"),
    ({"name": "erasure_p25", "kind": "state", "dims": [1, 1], "data": [[1, 0]]}, "channel"),
], ids=["bell-as-a-channel", "erasure_p25-as-a-state"])
def test_a_registry_entry_named_like_a_built_in_object_exits_2(capsys, tmp_path, entry, builtin):
    # the identity channel named `bell` used to replace the built-in state, so
    # `--state bell` then exited 2 with `unknown state 'bell'`
    path = tmp_path / "f.json"
    path.write_text(json.dumps([entry]))
    code, out, err = run_cli(capsys, "rates", "--ri", "mother", "--state", "bell", "--registry", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: registry entry {entry['name']!r} is named like a built-in {builtin}\n"


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


def test_family_names_each_duality_claim_that_fails_and_exits_1(capsys, monkeypatch):
    """A false claim used to vanish from the `duality:` line with exit 0."""
    _, out, _ = run_cli(capsys, "family")
    false_claims = (("tp", "sd", None), ("eq1", "eq5", None), ("qe", "qe", None),
                    ("tp", "qe", vec(1, CBIT)))
    monkeypatch.setattr(derivation, "DUALITY_CLAIMS", derivation.DUALITY_CLAIMS + false_claims)
    code, out_with_false, err = run_cli(capsys, "family")
    assert (code, err) == (1, "")
    assert out_with_false == out + "".join(f"duality failed: {claim}\n" for claim in (
        "tp <-> sd", "eq1 <-> eq5", "qe self-dual", "tp <-> qe after wasting [c->c]"))
    assert out.splitlines()[-1].startswith("duality: mother <-> father; ")


def test_family_json_names_each_duality_claim_that_fails_on_stderr_and_exits_1(capsys, monkeypatch):
    """`family --json` used to check no claim: a false one left exit 0 and no word."""
    code, document, err = run_cli(capsys, "family", "--json")
    assert (code, err) == (0, "")
    false_claims = (("tp", "sd", None), ("qe", "qe", None))
    monkeypatch.setattr(derivation, "DUALITY_CLAIMS", derivation.DUALITY_CLAIMS + false_claims)
    code, out, err = run_cli(capsys, "family", "--json")
    assert (code, out) == (1, document)
    assert err == "duality failed: tp <-> sd\nduality failed: qe self-dual\n"


def _family_with_a_wrong_regeneration():
    """The family, with `mother_via_rule_I` stating eq2 instead of mother."""
    full = derive_family()
    return {**full, "mother_via_rule_I": full["eq2"].with_name("mother_via_rule_I")}


REGENERATION_FAILED = "regeneration failed: mother_via_rule_I does not state mother\n"


def test_family_names_a_regeneration_that_fails_and_exits_1(capsys, monkeypatch):
    """A re-derivation that misses its target used to leave exit 0."""
    _, out, _ = run_cli(capsys, "family")
    monkeypatch.setattr(cli, "derive_family", _family_with_a_wrong_regeneration)
    code, out_with_failure, err = run_cli(capsys, "family")
    assert (code, err) == (1, "")
    assert out_with_failure == out + REGENERATION_FAILED


def test_family_json_names_a_regeneration_that_fails_on_stderr_and_exits_1(capsys, monkeypatch):
    _, document, _ = run_cli(capsys, "family", "--json")
    monkeypatch.setattr(cli, "derive_family", _family_with_a_wrong_regeneration)
    code, out, err = run_cli(capsys, "family", "--json")
    assert (code, out, err) == (1, document, REGENERATION_FAILED)


@pytest.mark.parametrize("modules", ["qfamily", "qfamily.algebra, qfamily.grammar, qfamily.derivation"])
def test_package_and_symbolic_layer_load_no_numpy(modules):
    code = f"import sys, {modules}; print(sorted({{'numpy', 'qfamily.entropy'}} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), check=True)
    assert proc.stdout == "[]\n"


def test_the_circuit_lab_loads_no_entropy_engine():
    code = 'import sys, qfamily.circuits; sys.exit("qfamily.entropy" in sys.modules)'
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env())
    assert (proc.returncode, proc.stderr) == (0, "")


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


# After `import qfamily.cli` and one BLAS call: the thread variable as the
# process sees it, then (on Linux) the process's thread count.
_BLAS_AFTER_IMPORT = (
    "import os, qfamily.cli, numpy as np; np.linalg.eigvalsh(np.eye(4));"
    "status = open('/proc/self/status').read() if os.path.exists('/proc/self/status') else '';"
    "threads = [line.split()[1] for line in status.splitlines() if line.startswith('Threads:')];"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), *threads)")


def test_entry_point_runs_openblas_on_one_thread():
    """One BLAS thread, and no variable left behind for child processes."""
    out = _run_fresh(["-c", _BLAS_AFTER_IMPORT]).split()
    assert out[0] == "None"
    if sys.platform.startswith("linux"):
        assert out[1:] == ["1"]


@pytest.mark.parametrize("user_vars, expected", [
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"GOTO_NUM_THREADS": "2"}, "None"),
    ({"OMP_NUM_THREADS": "2"}, "None"),
], ids=["openblas", "goto", "omp"])
def test_a_thread_count_the_user_chose_wins(user_vars, expected):
    # Against the entry point's own choice, made when the user set none: one
    # thread, and the variable gone again.
    assert _run_fresh(["-c", _BLAS_AFTER_IMPORT]).split()[0] == "None"
    out = _run_fresh(["-c", _BLAS_AFTER_IMPORT], **user_vars).split()
    assert out[0] == expected
    if sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) >= 2:
        assert out[1:] == ["2"]


def test_entry_point_defers_the_circuit_lab_and_the_rng():
    code = "import sys, qfamily.cli; print(sorted({'qfamily.circuits', 'qfamily.rng'} & set(sys.modules)))"
    assert _run_fresh(["-c", code]) == "[]\n"


NUMERIC_MODULES = ("qfamily.channels", "qfamily.entropy", "dataclasses")


def _numeric_modules_after(argv) -> tuple[int, str, list]:
    """Exit code and stderr of the program run on `argv` in a fresh
    interpreter, and the NUMERIC_MODULES that were loaded when it returned."""
    script = (f"import sys\nfrom qfamily.cli import run\nsys.argv = ['qfamily', *{list(argv)!r}]\n"
              "code = run()\nsys.stdout.flush()\n"
              f"print(sorted(set({NUMERIC_MODULES!r}) & set(sys.modules)), file=sys.stderr)\n"
              "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_src_env())
    *err, loaded = proc.stderr.splitlines(keepends=True)
    return proc.returncode, "".join(err), ast.literal_eval(loaded)


@pytest.mark.parametrize("argv", [
    ("family",),
    ("family", "--json"),
    ("derive", "--target", "mother_via_rule_I"),
    ("dual", "--ri", "mother"),
    ("dual", "--text", "1/2*I(A:E) [qq] + {q->q} >= 1/2*I(A:B) [q->q]"),
], ids=["family", "family-json", "derive", "dual-ri", "dual-text"])
def test_a_symbolic_verb_loads_no_numeric_module(argv):
    """`family`, `derive` and `dual` build no state, so they neither compile
    `channels` and `entropy` nor generate the rate table's dataclasses."""
    assert _numeric_modules_after(argv) == (0, "", [])


@pytest.mark.parametrize("argv, error", [
    (("sweep", "--channel", "depolarizing", "--param", "nan"), "error: grid value 'nan' is not a number\n"),
    (("rates", "--ri", "eq2"), "error: exactly one of --state or --channel is required\n"),
], ids=["sweep-nan", "rates-no-object"])
def test_a_usage_error_exits_before_the_numeric_layer_loads(argv, error):
    code, err, loaded = _numeric_modules_after(argv)
    assert (code, err) == (2, error)
    assert "qfamily.channels" not in loaded


@pytest.mark.parametrize("argv", [
    ("sweep", "--channel", "depolarizing", "--param", "0:1:0.01"),
    ("check-identities", "--seed", "3", "--trials", "7"),
], ids=["sweep", "check-identities"])
def test_blas_thread_count_never_moves_output_bytes(argv):
    cli_argv = ["-m", "qfamily.cli", *argv]
    assert _run_fresh(cli_argv) == _run_fresh(cli_argv, OPENBLAS_NUM_THREADS="2")


# ---------------------------------------------------------------------------
# The program entry: `python -m qfamily.cli` and the console script
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def _program(entry: str) -> list[str]:
    """The interpreter arguments that start the qfamily program `entry`'s way."""
    if entry == "module":
        return ["-m", "qfamily.cli"]
    with open(ROOT / "pyproject.toml", "rb") as fh:
        module, attr = tomllib.load(fh)["project"]["scripts"]["qfamily"].split(":")
    # what the wrapper that pip writes for a console script runs
    return ["-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"]


@pytest.mark.parametrize("entry", ["module", "console-script"])
def test_the_program_prints_the_goldens_and_keeps_its_exit_codes(entry):
    program = [sys.executable, *_program(entry)]
    proc = subprocess.run([*program, "family"], capture_output=True, env=_src_env())
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (ROOT / "tests" / "golden" / "family.txt").read_bytes()

    proc = subprocess.run([*program, "derive", "--target", "eq9"], capture_output=True, env=_src_env())
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1

    proc = subprocess.Popen([*program, "family"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_src_env())
    proc.stdout.close()  # the reader is gone before the first write, as after `| head -c 10`
    err = proc.stderr.read()
    assert (proc.wait(), err) == (1, b"")


@pytest.mark.parametrize("code, frozen", [
    ("sys.argv = ['qfamily', *ARGV]\n"
     "try:\n    runpy.run_module('qfamily.cli', run_name='__main__')\n"
     "except SystemExit:\n    pass", True),
    ("from qfamily.cli import run\nsys.argv = ['qfamily', *ARGV]\nrun()", True),
    ("from qfamily.cli import main\nmain(ARGV)", False),
], ids=["module", "console-script", "main"])
def test_only_the_program_freezes_what_start_up_built(code, frozen):
    """`run` freezes the objects start-up made and leaves collection on;
    `main` called in-process touches neither."""
    script = (f"import gc, runpy, sys\nARGV = ['dual', '--ri', 'eq5']\n{code}\n"
              "print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_src_env(), check=True)
    assert proc.stderr == f"True {frozen}\n"


def test_importing_the_program_runs_no_collection():
    """The console script imports `run` as a module.  The collector waits
    while the import builds its objects, and comes back as it was, with the
    young generation empty.  The test starts from an empty young generation
    too, so a collection counts only if the import made it."""
    script = ("import gc, sys\n"
              "gc.collect()\n"
              "starts = []\n"
              "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info))\n"
              "from qfamily.cli import run\n"
              "collections = len(starts)\n"
              "print(collections, gc.isenabled(), gc.get_freeze_count(), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_src_env(), check=True)
    assert proc.stderr == "0 True 0\n"


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
