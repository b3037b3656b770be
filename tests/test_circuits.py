import functools
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfamily.algebra import CBIT, COBIT, EBIT, QUBIT_CHANNEL
from qfamily.circuits import (
    BELL,
    PLUS,
    LocalityError,
    Party,
    Register,
    demo_rule_I_on_teleportation,
    demo_rule_O_on_superdense,
    run_cobit_checks,
    run_coherent_superdense,
    run_coherent_teleportation,
    run_entanglement_distribution,
    run_superdense,
    run_teleportation,
    state_fidelity,
    verify_all,
    verify_cobit_equivalence,
)
from qfamily import circuits
from qfamily.derivation import COBIT_EBIT, COHERENT_SD, COHERENT_TP, PRIMITIVES
from qfamily.rng import SplitMix64, random_pure, random_unitary


# -- register discipline -------------------------------------------------------


def test_gates_cannot_span_parties():
    reg = Register()
    a = reg.add_qubit(Party.ALICE)
    b = reg.add_qubit(Party.BOB)
    with pytest.raises(LocalityError):
        reg.cnot(a, b)
    with pytest.raises(LocalityError):
        reg.cz(a, b)


def test_cobit_source_must_be_alices():
    reg = Register()
    q = reg.add_qubit(Party.BOB)
    with pytest.raises(LocalityError, match="Alice"):
        reg.cobit(q)


def test_send_books_a_channel_use():
    reg = Register()
    q = reg.add_qubit(Party.ALICE)
    reg.send(q, Party.BOB)
    assert reg.ledger.consumed[QUBIT_CHANNEL] == 1
    assert reg.owners[q] is Party.BOB


def test_measurement_branches_and_norms():
    reg = Register()
    q = reg.add_qubit(Party.ALICE, PLUS)
    branches = reg.measure([q])
    assert [b.outcome for b in branches] == [(0,), (1,)]
    for branch in branches:
        assert branch.probability == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.norm(branch.register.amps) == pytest.approx(1.0, abs=1e-12)


X = np.array([[0, 1], [1, 0]])


def _bell_measured_teleportation():
    """Alice's half of teleportation: her Bell measurement, one branch each."""
    reg = Register()
    msg = reg.add_qubit(Party.ALICE, (0.6, 0.8))
    a_half, b_half = reg.share_ebit()
    reg.cnot(msg, a_half)
    reg.h(msg)
    return reg.measure([msg, a_half]), b_half


def test_fix_up_without_communication_is_a_locality_error():
    branches, b_half = _bell_measured_teleportation()
    for branch in branches:
        with pytest.raises(LocalityError, match="Bob does not hold"):
            branch.register.apply_if(branch.bits[1], X, b_half)


def test_communicate_books_one_cbit_per_bit_and_lets_bob_act():
    branches, b_half = _bell_measured_teleportation()
    for branch in branches:
        out = branch.register
        out.communicate(branch.bits, Party.BOB)
        assert out.ledger.consumed[CBIT] == 2
        assert out.known[Party.BOB] == dict(zip(branch.bits, branch.outcome))
        out.apply_if(branch.bits[1], X, b_half)


def test_only_held_bits_can_be_communicated():
    reg = Register()
    reg.known[Party.BOB]["b"] = 1
    with pytest.raises(LocalityError, match="not held by the sender"):
        reg.communicate(["b"], Party.BOB)
    with pytest.raises(LocalityError):
        reg.communicate(["nobody's"], Party.ALICE)
    assert not reg.ledger.consumed


def test_failed_ebit_claim_on_a_product_state_books_nothing():
    reg = Register()
    a = reg.add_qubit(Party.ALICE)
    b = reg.add_qubit(Party.BOB)
    assert reg.claim_ebits([(a, b)]) == pytest.approx(0.5, abs=1e-12)
    assert not +reg.ledger.produced


def test_claims_book_their_resource_only_at_threshold():
    reg = Register()
    q = reg.add_qubit(Party.BOB, PLUS)
    assert reg.claim_qubit(q, (1, 0)) == pytest.approx(0.5, abs=1e-12)
    assert not +reg.ledger.produced
    assert reg.claim_qubit(q, PLUS) >= 1 - 1e-12
    assert reg.ledger.produced == {QUBIT_CHANNEL: 1}
    assert reg.claim_cbits(["m0"], [1]) == 0.0
    assert reg.ledger.produced == {QUBIT_CHANNEL: 1}


def test_claims_need_the_right_holders():
    reg = Register()
    a = reg.add_qubit(Party.ALICE)
    b = reg.add_qubit(Party.BOB)
    with pytest.raises(LocalityError, match="Bob"):
        reg.claim_qubit(a, (1, 0))
    with pytest.raises(LocalityError, match="Alice"):
        reg.claim_ebits([(b, a)])


def test_two_qubit_gates_need_two_qubits():
    reg = Register()
    q = reg.add_qubit(Party.ALICE)
    with pytest.raises(ValueError, match="two qubits"):
        reg.cnot(q, q)


@pytest.mark.parametrize("matrix", [np.diag([1.0, 0.5]), np.full((2, 2), np.nan)],
                         ids=["non-unitary", "nan"])
def test_gate_that_breaks_the_norm_is_caught(matrix):
    reg = Register()
    q = reg.add_qubit(Party.ALICE, PLUS)
    with pytest.raises(AssertionError, match="norm drifted"):
        reg.apply_single(matrix, q)


# -- kernels against a dense reference -----------------------------------------------

DENSE_SINGLE = {
    "h": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "x": np.array([[0, 1], [1, 0]]),
    "z": np.diag([1, -1]),
}
P0, P1 = np.diag([1, 0]), np.diag([0, 1])


def _dense(n, ops):
    """The 2^n x 2^n matrix of `ops` (qubit -> 2x2) by np.kron, qubit 0 leftmost."""
    return functools.reduce(np.kron, [ops.get(q, np.eye(2)) for q in range(n)])


def _dense_controlled(n, control, target, gate):
    return _dense(n, {control: P0}) + _dense(n, {control: P1, target: gate})


def _partial_trace(amps, n, keep):
    """rho of the qubits `keep`, in that order, by einsum over the others."""
    letters = "abcdefghij"
    bra = "".join(letters[n + q] if q in keep else letters[q] for q in range(n))
    out = "".join(letters[q] for q in keep) + "".join(letters[n + q] for q in keep)
    t = amps.reshape([2] * n)
    return np.einsum(f"{letters[:n]},{bra}->{out}", t, t.conj()).reshape(2 ** len(keep), -1)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32), data=st.data())
def test_kernels_match_a_dense_reference(n, seed, data):
    rng = SplitMix64(seed)
    reg = Register()
    reg.add_qubit(Party.ALICE, random_pure(rng, 2 ** n))
    want = reg.amps.copy()
    gates = ["h", "x", "z", "u"] + (["cnot", "cz"] if n > 1 else [])
    for _ in range(data.draw(st.integers(0, 12))):
        name, before = data.draw(st.sampled_from(gates)), reg.amps
        if name in ("cnot", "cz"):
            control, target = data.draw(st.permutations(range(n)))[:2]
            getattr(reg, name)(control, target)
            full = _dense_controlled(n, control, target, DENSE_SINGLE["x" if name == "cnot" else "z"])
            assert np.array_equal(reg.amps, full @ before)  # exact: a permutation or signs
        else:
            qubit = data.draw(st.integers(0, n - 1))
            matrix = random_unitary(rng, 2) if name == "u" else DENSE_SINGLE[name]
            reg.apply_single(matrix, qubit)
            full = _dense(n, {qubit: matrix})
        want = full @ want
        assert np.max(np.abs(reg.amps - want)) <= 1e-12
    for k in range(1, min(n, 3) + 1):
        for keep in itertools.permutations(range(n), k):
            rho = _partial_trace(reg.amps, n, keep)
            assert np.max(np.abs(reg.reduced_dm(list(keep)) - rho)) <= 1e-12
            t = 1.5 * random_pure(rng, 2 ** k)
            assert abs(reg.fidelity(keep, t) - (t.conj() @ rho @ t).real / (t.conj() @ t).real) <= 1e-12


# -- teleportation ---------------------------------------------------------------


@pytest.mark.parametrize("amplitudes", [(1, 0), (0, 1), PLUS])
def test_teleportation_exact_on_fixed_inputs(amplitudes):
    run = run_teleportation(amplitudes)
    assert len(run.fidelities) == 4
    assert run.fidelity >= 1 - 1e-10


def test_teleportation_on_random_inputs():
    rng = SplitMix64(21)
    worst = min(run_teleportation(random_pure(rng, 2)).fidelity for _ in range(50))
    assert worst >= 1 - 1e-10


def test_teleportation_ledger_matches_its_inequality():
    assert run_teleportation(PLUS).ledger.matches(PRIMITIVES["tp"])


def test_every_teleportation_branch_ends_with_the_same_ledger():
    run = run_teleportation((0.6, 0.8))
    assert len(run.ledgers) == 4
    assert all(ledger == run.ledger for ledger in run.ledgers)
    assert run.ledger.matches(PRIMITIVES["tp"])


def test_no_signalling_before_the_classical_bits():
    run = run_teleportation((0.6, 0.8))
    assert np.max(np.abs(run.values["bob_premeasurement_dm"] - np.eye(2) / 2)) < 1e-12


# -- superdense coding ------------------------------------------------------------


def test_superdense_decodes_all_messages():
    for bits in itertools.product((0, 1), repeat=2):
        run = run_superdense(bits)
        assert run.values["decoded"] == bits
        assert run.ledger.matches(PRIMITIVES["sd"])


# -- entanglement distribution ----------------------------------------------------


def test_entanglement_distribution():
    run = run_entanglement_distribution()
    assert run.fidelity >= 1 - 1e-12
    assert abs(run.values["bob_entropy"] - 1.0) < 1e-9
    assert run.ledger.matches(PRIMITIVES["qe"])


def test_three_rounds_give_three_bell_pairs():
    reg = Register()
    for _ in range(3):
        q0 = reg.add_qubit(Party.ALICE)
        q1 = reg.add_qubit(Party.ALICE)
        reg.h(q0)
        reg.cnot(q0, q1)
        reg.send(q1, Party.BOB)
    target = np.kron(np.kron(BELL, BELL), BELL)
    assert state_fidelity(reg.amps, target) >= 1 - 1e-12
    assert reg.ledger.consumed[QUBIT_CHANNEL] == 3


# -- the cobit channel --------------------------------------------------------------


def test_cobit_copies_basis_states():
    run = run_cobit_checks()
    assert min(run.fidelities["basis 0"], run.fidelities["basis 1"]) >= 1 - 1e-12


def test_cobit_creates_entanglement_from_plus():
    run = run_cobit_checks()
    assert run.fidelities["plus"] >= 1 - 1e-12
    assert abs(run.values["bob_entropy_on_plus"] - 1.0) < 1e-9
    assert run.ledger.matches(COBIT_EBIT)


def test_cobit_row_fails_when_its_run_books_no_ebit(monkeypatch):
    real = circuits.run_cobit_checks

    def no_ebit():
        run = real()
        run.ledger.produced.clear()
        return run

    monkeypatch.setattr(circuits, "run_cobit_checks", no_ebit)
    report = verify_all(trials=1)
    assert [e["pass"] for e in report["protocols"] if e["name"] == "cobit"] == [False]
    assert not report["pass"]


def test_cobit_applied_twice_copies_twice():
    reg = Register()
    src = reg.add_qubit(Party.ALICE, (0, 1))
    reg.cobit(src)
    reg.cobit(src)
    want = np.zeros(8, dtype=complex)
    want[7] = 1.0
    assert state_fidelity(reg.amps, want) >= 1 - 1e-12
    assert reg.ledger.consumed[COBIT] == 2


# -- coherent protocols ---------------------------------------------------------------


def test_coherent_superdense_on_basis_message():
    message = np.zeros(4)
    message[2] = 1.0  # |10>
    run = run_coherent_superdense(message)
    assert run.fidelity >= 1 - 1e-10
    assert run.ledger.matches(COHERENT_SD)


def test_coherent_superdense_on_uniform_message_makes_two_ebits():
    run = run_coherent_superdense(np.full(4, 0.5))
    assert run.fidelity >= 1 - 1e-10
    # across the (message, copy) pairing the state is exactly two EPR pairs
    paired = np.zeros((2, 2, 2, 2), dtype=complex)
    for z in (0, 1):
        for x in (0, 1):
            paired[z, x, z, x] = 0.5
    assert state_fidelity(run.values["final_state"], paired.reshape(-1)) >= 1 - 1e-10


def test_coherent_superdense_product_message_stays_product():
    run = run_coherent_superdense((1, 0, 0, 0))
    want = np.zeros(16, dtype=complex)
    want[0] = 1.0
    assert state_fidelity(run.values["final_state"], want) >= 1 - 1e-12


def test_coherent_teleportation_fixed_input():
    run = run_coherent_teleportation((0, 1))
    assert run.fidelities["output"] >= 1 - 1e-10
    assert run.fidelities["residual"] >= 1 - 1e-10
    assert run.ledger.matches(COHERENT_TP)


def test_coherent_teleportation_random_inputs():
    rng = SplitMix64(22)
    for _ in range(50):
        run = run_coherent_teleportation(random_pure(rng, 2))
        assert min(run.fidelities["output"], run.fidelities["residual"]) >= 1 - 1e-10


def test_coherent_teleportation_net_is_the_catalytic_identity():
    run = run_coherent_teleportation(PLUS)
    assert run.ledger.net() == {COBIT: -2, QUBIT_CHANNEL: 1, EBIT: 1}


def test_cobit_equivalence_composes_to_zero():
    report = verify_cobit_equivalence()
    assert report.passed
    assert report.values["forward"].net() == {COBIT: 2, QUBIT_CHANNEL: -1, EBIT: -1}
    assert report.values["reverse"].net() == {COBIT: -2, QUBIT_CHANNEL: 1, EBIT: 1}
    assert all(v == 0 for v in report.values["net"].values())


# -- rule demonstrations -----------------------------------------------------------------


def test_rule_I_demo_uniform_and_decoupled():
    demo = demo_rule_I_on_teleportation()
    assert demo.passed
    assert sorted(demo.values["outcome_probabilities"]) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for p in demo.values["outcome_probabilities"].values():
        assert abs(p - 0.25) <= 1e-12
    assert demo.fidelities["overlap"] >= 1 - 1e-12
    assert demo.fidelities["coherent"] >= 1 - 1e-12


def test_rule_O_demo_residual_is_message_independent():
    demo = demo_rule_O_on_superdense()
    assert demo.passed
    assert demo.values["all_decoded"]
    assert min(demo.fidelities[bits] for bits in itertools.product((0, 1), repeat=2)) >= 1 - 1e-12
    assert demo.fidelities["overlap"] >= 1 - 1e-12


# -- suite -------------------------------------------------------------------------------


RUNNERS = ("run_teleportation", "run_superdense", "run_entanglement_distribution",
           "run_cobit_checks", "run_coherent_superdense", "run_coherent_teleportation")


def test_verify_all_makes_the_same_gates_branches_and_runs(monkeypatch):
    """What the benchmark's tracer counts through these names, for one pass."""
    counts = Counter()

    def count(owner, name, key, by_length=False):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            result = real(*args, **kwargs)
            counts[key] += len(result) if by_length else 1
            return result

        monkeypatch.setattr(owner, name, counted)

    for name in ("apply_single", "_cnot_unchecked", "cz"):
        count(Register, name, name)
    count(Register, "measure", "branches", by_length=True)
    for name in RUNNERS:
        count(circuits, name, "runs")
    verify_all(trials=20, seed=7)
    # 355 gates in all
    assert counts == {"apply_single": 172, "_cnot_unchecked": 151, "cz": 32, "branches": 100, "runs": 60}


def test_report_names_the_worst_case_and_its_margin(monkeypatch):
    real, calls = circuits.run_teleportation, []

    def one_bad_run(amplitudes):
        run = real(amplitudes)
        calls.append(amplitudes)
        if len(calls) == 4:
            run.fidelities["degraded"] = 0.75
        return run

    monkeypatch.setattr(circuits, "run_teleportation", one_bad_run)
    entry = verify_all(trials=3, seed=0)["protocols"][0]
    assert (entry["cases"], entry["worst_case"], entry["pass"]) == (5, 3, False)
    assert entry["margin"] == 0.75 - circuits.PROTOCOL_FIDELITY


def test_verify_all_reports_seven_protocols_and_two_demos():
    report = verify_all(trials=10, seed=3)
    names = [entry["name"] for entry in report["protocols"]]
    assert names == [
        "teleportation",
        "superdense",
        "entanglement_distribution",
        "cobit",
        "coherent_superdense",
        "coherent_teleportation",
        "cobit_equivalence",
    ]
    assert all(entry["pass"] for entry in report["protocols"])
    assert [d["name"] for d in report["rule_demos"]] == [
        "rule_I_on_teleportation",
        "rule_O_on_superdense",
    ]
    assert report["pass"]
    cases = {e["name"]: e["cases"] for e in [*report["protocols"], *report["rule_demos"]]}
    assert [cases["teleportation"], cases["superdense"], cases["coherent_superdense"],
            cases["coherent_teleportation"]] == [12, 4, 3, 12]
    for entry in [*report["protocols"], *report["rule_demos"]]:
        assert list(entry)[-4:] == ["pass", "cases", "worst_case", "margin"]
        assert 0 <= entry["worst_case"] < entry["cases"] and entry["margin"] >= 0
