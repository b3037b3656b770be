"""The benchmark's checks reject wrong outputs: each test feeds a check one
real qfamily output, then the same output with a single value wrong.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import contextlib
import dataclasses
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from qfamily import channels, circuits, cli  # noqa: E402
from qfamily.derivation import derive_family  # noqa: E402
from qfamily.rng import SplitMix64  # noqa: E402

ENTROPY = sys.modules["qfamily.entropy"]


def cli_output(*args) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(list(args)) == 0
    return buffer.getvalue()


def rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def test_sweep_cell_off_by_1e6_is_rejected():
    grid = [Fraction(k, 100) for k in range(101)]
    text = channels.sweep_csv("amplitude_damping", grid)
    checks.check_sweep_csv("amplitude_damping", text)
    lines = text.splitlines()
    cells = lines[37].split(",")
    cells[3] = f"{float(cells[3]) + 1e-6:.12g}"
    lines[37] = ",".join(cells)
    rejects(checks.check_sweep_csv, "amplitude_damping", "\n".join(lines) + "\n")


def test_sweep_row_identity_is_checked_on_printed_cells():
    text = channels.sweep_csv("erasure", [Fraction(k, 100) for k in range(101)])
    lines = text.splitlines()
    cells = lines[50].split(",")
    cells[5] = f"{float(cells[5]) + 1e-6:.12g}"  # I_AE
    lines[50] = ",".join(cells)
    rejects(checks.check_sweep_csv, "erasure", "\n".join(lines) + "\n")


def test_verify_report_with_one_failed_entry_is_rejected():
    report = circuits.verify_all(trials=2, seed=5)
    checks.check_verify_report(report)
    broken = json.loads(json.dumps(report))
    broken["protocols"][3]["pass"] = False
    rejects(checks.check_verify_report, broken)
    broken = json.loads(json.dumps(report))
    broken["protocols"][0]["ledger"]["consumed"]["[c->c]"] = 1
    rejects(checks.check_verify_report, broken)


def test_family_statement_with_one_coefficient_changed_is_rejected():
    text = cli_output("family")
    checks.check_family_text(text)
    assert "1/2*I(A:B) [qq]" in text
    rejects(checks.check_family_text, text.replace("1/2*I(A:B) [qq]", "1/3*I(A:B) [qq]", 1))

    payload = cli_output("family", "--json")
    checks.check_family_json(payload)
    data = json.loads(payload)
    data["eq4"]["lhs"][0]["coeff"]["H_A"] = "2"
    rejects(checks.check_family_json, json.dumps(data))


def test_derive_and_dual_outputs_are_checked():
    for target in ("eq2", "mother_via_rule_I", "tp"):
        checks.check_cli(("derive", "--target", target), cli_output("derive", "--target", target))
    rejects(checks.check_cli, ("derive", "--target", "eq2"), cli_output("derive", "--target", "eq1"))
    checks.check_cli(("dual", "--ri", "mother"), cli_output("dual", "--ri", "mother"))
    rejects(checks.check_cli, ("dual", "--ri", "mother"), cli_output("dual", "--ri", "eq4"))
    source = checks.dual_text_input("eq5")
    checks.check_cli(("dual", "--text", source), cli_output("dual", "--text", source))
    rejects(checks.check_cli, ("dual", "--text", source), cli_output("dual", "--ri", "eq5"))


def test_identity_residual_above_1e9_is_rejected():
    rng = SplitMix64(3)
    psi = ENTROPY.random_tripartite_state(rng, 3, 2)
    values = [tuple(ENTROPY.evaluate_raw(s, psi) for s in ("I(A:B)", "I(A:E)", "H(A)", "Ic(A>B)"))]
    checks.check_identities(values)
    i_ab, i_ae, h_a, i_c = values[0]
    rejects(checks.check_identities, [(i_ab, i_ae, h_a + 2e-9, i_c)])
    rejects(checks.check_identities, [])


def test_rate_off_by_1e6_is_rejected(tmp_path):
    entries = checks.random_registry(9)
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(entries))
    objects = channels.load_registry(path)
    family = derive_family()
    for entry in entries:
        reference = checks.reference_entropies(entry)
        name = "eq1" if entry["kind"] == "state" else "eq5"
        table = channels.rate_table(family[name], objects[entry["name"]])
        checks.check_rate_table(name, table, reference)
        wrong = dataclasses.replace(table.rhs[0], rate=table.rhs[0].rate + 1e-6)
        rejects(checks.check_rate_table, name, dataclasses.replace(table, rhs=(wrong,)), reference)


def test_round_trip_that_changes_a_statement_is_rejected():
    from qfamily import grammar

    stored = derive_family()
    wire = {name: json.dumps(grammar.ri_to_json(ri)) for name, ri in stored.items()}
    replayed = {name: ri for name, ri in stored.items() if ri.trace}
    from_wire = {name: grammar.ri_from_json(json.loads(text)) for name, text in wire.items()}
    from_text = dict(stored)
    checks.check_round_trips(stored, replayed, wire, from_wire, from_text)
    from_text["eq3"] = stored["eq4"]
    rejects(checks.check_round_trips, stored, replayed, wire, from_wire, from_text)


def test_own_parser_reads_every_spelling_alike():
    for name, text in checks.PAPER_TEXT.items():
        statement = checks.PAPER[name]
        assert checks.parse_statement(checks.format_statement(statement)) == statement
        assert checks.dual(checks.dual(statement)) == statement
    assert checks.dual(checks.PAPER["mother"]) == checks.PAPER["father"]
