import functools
import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfamily.algebra import CBIT, COBIT, EBIT, QUBIT_CHANNEL
from qfamily.circuits import (
    BELL,
    PLUS,
    Ledger,
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
    verify_all,
    verify_cobit_equivalence,
)
from qfamily import circuits
from qfamily.derivation import COBIT_EBIT, PRIMITIVES
from qfamily.rng import SplitMix64
from test_golden import FIXED_INPUT_ENTRIES, _same_report
from test_rng import random_pure, random_unitary


def state_fidelity(a, b):
    """|<a|b>|^2 / (|a|^2 |b|^2) of two states' amplitudes: the reference
    for `Register.fidelity` on a whole register."""
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


# -- register discipline -------------------------------------------------------


def test_gates_cannot_span_parties():
    reg = Register()
    a = reg.add_qubit(Party.ALICE, PLUS)
    b = reg.add_qubit(Party.BOB, PLUS)
    before = reg.amps.copy()
    with pytest.raises(LocalityError):
        reg.cnot(a, b)
    with pytest.raises(LocalityError):
        reg.cz(a, b)
    # a Pauli controlled by a qubit the other party holds
    for gate in (circuits._X, circuits._Z):
        for control, target in ((a, b), (b, a)):
            with pytest.raises(LocalityError):
                reg.apply_if(control, gate, target)
    assert np.array_equal(reg.amps, before)


def test_cobit_source_must_be_alices():
    reg = Register()
    q = reg.add_qubit(Party.BOB)
    with pytest.raises(LocalityError, match="Alice"):
        reg.cobit(q)


def test_send_books_a_channel_use():
    reg = Register()
    q = reg.add_qubit(Party.ALICE)
    reg.send(q, Party.BOB)
    assert reg.ledgers[0].consumed[QUBIT_CHANNEL] == 1
    assert reg.owners[q] is Party.BOB


def test_measurement_branches_and_norms():
    reg = Register()
    q = reg.add_qubit(Party.ALICE, PLUS)
    before = reg.amps.copy()
    branches = reg.measure([q])
    # each branch is a new register; teleportation reads Bob's state before
    # the measurement from the measured one
    assert np.array_equal(reg.amps, before)
    assert [b.outcome for b in branches] == [(0,), (1,)]
    for branch in branches:
        assert branch.probability == pytest.approx(0.5, abs=1e-12)
        # |+> = (1, 1) enters as (1/2, 1/2), and a branch keeps its amplitudes unscaled
        assert np.linalg.norm(branch.register.amps) == 0.5


X = circuits._X  # the lab's own X: `apply_single` takes no other matrix


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
        assert out.ledgers[0].consumed[CBIT] == 2
        assert out.known[Party.BOB] == dict(zip(branch.bits, branch.outcome))
        out.apply_if(branch.bits[1], X, b_half)


def test_a_ledger_books_no_zero_count():
    ledger = Ledger()
    ledger.consume(EBIT, 0)
    ledger.produce(CBIT, 0)
    assert (ledger.consumed, ledger.produced) == ({}, {})
    reg = Register()
    reg.communicate([], Party.BOB)
    assert (reg.ledgers[0].consumed, reg.ledgers[0].produced) == ({}, {})
    reg.communicate([], Party.ALICE)
    reg.ledgers[0].consume(CBIT, 2)
    assert (reg.ledgers[0].consumed, reg.ledgers[0].produced) == ({CBIT: 2}, {})


def test_only_held_bits_can_be_communicated():
    reg = Register()
    reg.known[Party.BOB]["b"] = 1
    with pytest.raises(LocalityError, match="not held by the sender"):
        reg.communicate(["b"], Party.BOB)
    with pytest.raises(LocalityError):
        reg.communicate(["nobody's"], Party.ALICE)
    assert not reg.ledgers[0].consumed


def test_failed_ebit_claim_on_a_product_state_books_nothing():
    reg = Register()
    a = reg.add_qubit(Party.ALICE)
    b = reg.add_qubit(Party.BOB)
    assert reg.claim(EBIT, (a,), (b,), BELL) == pytest.approx(0.5, abs=1e-12)
    assert not reg.ledgers[0].produced


def test_claims_book_their_resource_only_at_threshold():
    reg = Register()
    q = reg.add_qubit(Party.BOB, PLUS)
    assert reg.claim(QUBIT_CHANNEL, (), (q,), (1, 0)) == pytest.approx(0.5, abs=1e-12)
    assert not reg.ledgers[0].produced
    assert reg.claim(QUBIT_CHANNEL, (), (q,), PLUS) >= 1 - 1e-12
    assert reg.ledgers[0].produced == {QUBIT_CHANNEL: 1}
    assert reg.claim_cbits(["m0"], [1]) == 0.0
    assert reg.ledgers[0].produced == {QUBIT_CHANNEL: 1}


def test_claims_need_the_right_holders():
    """Each claim would reach the threshold if its qubits were held right."""
    reg = Register()
    a, b = reg.share_ebit()
    a0, a1 = reg.add_qubit(Party.ALICE, BELL)
    with pytest.raises(LocalityError, match=f"qubit {b} must be held by Alice"):
        reg.claim(EBIT, (b,), (a,), BELL)  # a Bob qubit in `alice`
    with pytest.raises(LocalityError, match=f"qubit {a1} must be held by Bob"):
        reg.claim(EBIT, (a0,), (a1,), BELL)  # an Alice qubit in `bob`
    with pytest.raises(LocalityError, match=f"qubit {a} must be held by Bob"):
        reg.claim(QUBIT_CHANNEL, (), (a,), (1, 0))
    assert not reg.ledgers[0].produced


def test_a_claim_books_one_resource_per_bob_qubit_for_each_state_at_threshold():
    """Two cobits on a batch of two messages, claimed against the first
    message's copies for both: only the first state books, two of them."""
    messages = np.array([(0, 0, 1, 0), (0.5, 0.5, 0.5, 0.5)])
    reg = Register(batch=2)
    m0, m1 = reg.add_qubit(Party.ALICE, messages)
    copies = reg.cobit(m0), reg.cobit(m1)
    fidelities = reg.claim(COBIT, (m0, m1), copies, circuits._copies(messages[[0, 0]]))
    assert fidelities.tolist() == [1.0, 0.25]
    assert [ledger.produced for ledger in reg.ledgers] == [{COBIT: 2}, {}]
    assert reg.claim(COBIT, (m0, m1), copies, circuits._copies(messages)).tolist() == [1.0, 1.0]
    assert [ledger.produced for ledger in reg.ledgers] == [{COBIT: 4}, {COBIT: 2}]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), batch=st.integers(1, 4), order=st.permutations(range(4)))
def test_the_two_pair_copies_target_is_two_interleaved_bell_pairs(seed, batch, order):
    """k ebits ordered (a_1..a_k, b_1..b_k) against `_copies` of ones give
    the fidelity of the pairs (a_i, b_i) against |Phi_+> tensor |Phi_+>."""
    rng = SplitMix64(seed)
    reg = Register(batch=batch)
    reg.add_qubit(Party.ALICE, [random_pure(rng, 16) for _ in range(batch)])
    q0, c1, q1, c2 = order
    reg.send(c1, Party.BOB)
    reg.send(c2, Party.BOB)
    interleaved = reg.fidelity([q0, c1, q1, c2], np.kron(BELL, BELL))
    copies = reg.claim(EBIT, (q0, q1), (c1, c2), circuits._copies(np.ones(4)))
    assert np.max(np.abs(copies - interleaved)) <= 1e-12


def test_two_qubit_gates_need_two_qubits():
    reg = Register()
    q = reg.add_qubit(Party.ALICE)
    with pytest.raises(ValueError, match="two qubits"):
        reg.cnot(q, q)


@pytest.mark.parametrize("amplitudes", [(0, 0), (np.nan, 1), (np.inf, 0), [(1, 0), (0, 0)]],
                         ids=["zero", "nan", "inf", "one-zero-row-of-a-batch"])
def test_a_state_that_is_not_finite_or_has_no_norm_is_refused(amplitudes):
    reg = Register(batch=2)
    with pytest.raises(ValueError, match="finite amplitudes"):
        reg.add_qubit(Party.ALICE, amplitudes)
    assert reg.n == 0


@pytest.mark.parametrize("amplitudes, target", [
    ((1e200, 0), (1, 0)), ((5e-324, 0), (1, 0)), ((1.5e308, 1.5e308j), (1, 1j)),
], ids=["1e200", "subnormal", "huge-complex"])
def test_a_state_whose_norm_would_overflow_or_underflow_is_scaled_as_it_enters(amplitudes, target):
    """Each row enters scaled by a power of two: (1e154, 0) keeps a finite
    |psi|^2 through three unnormalised Hadamards, and states whose |psi|^2 is
    not a positive finite float are taken."""
    reg = Register()
    q = reg.add_qubit(Party.ALICE, (1e154, 0))
    for _ in range(3):
        reg.h(q)
    assert reg.fidelity([q], PLUS).tolist() == [1.0]
    q = reg.add_qubit(Party.ALICE, amplitudes)
    assert reg.fidelity([q], target).tolist() == [1.0]


@pytest.mark.parametrize("name", ["PLUS", "BELL", "_KET0"])
def test_a_constant_row_is_scaled_once_and_refuses_writes(name):
    """`_scaled` hands back one read-only row for a constant, equal to what
    it makes of a writable copy, and the constant refuses writes too."""
    row = getattr(circuits, name)
    scaled = circuits._scaled(row)
    assert circuits._scaled(row) is scaled and len(circuits._FIXED_ROWS) == 3
    assert scaled.tobytes() == circuits._scaled(np.array(row)).tobytes()
    for array in (row, scaled):
        with pytest.raises(ValueError, match="read-only"):
            array[..., -1] = -1


@pytest.mark.parametrize("runner", [run_teleportation, run_coherent_teleportation])
@pytest.mark.parametrize("amplitudes", [(1e200, 0), (5e-324, 0), (1.5e308, 1.5e308j)],
                         ids=["1e200", "subnormal", "huge-complex"])
def test_a_claim_scales_its_target_as_the_state_entered(runner, amplitudes):
    """The runners claim against their raw inputs: a target whose |t|^2
    overflows or underflows is scaled like the state, so every fidelity is
    exactly 1, not NaN."""
    [run] = runner(amplitudes)
    assert list(run.fidelities.values()) == [1.0] * len(run.fidelities)


@pytest.mark.parametrize("gate", [
    np.array(circuits._H), circuits._H * 2.0 ** 500, random_unitary(SplitMix64(4), 2),
    np.zeros((2, 2)), np.full((2, 2), np.nan),
], ids=["writable-copy-of-H", "H-times-2^500", "random-unitary", "zeros", "nan"])
def test_apply_single_refuses_any_gate_but_the_labs_own(gate):
    """Only the module's H, X and Z are taken, by identity: an equal copy is
    refused like any other matrix, and the amplitudes stay as they were."""
    reg = Register()
    q = reg.add_qubit(Party.ALICE, PLUS)
    before = reg.amps
    with pytest.raises(ValueError, match="must be the lab's H, X or Z"):
        reg.apply_single(gate, q)
    assert reg.amps is before


def test_the_labs_gates_are_read_only_and_exact():
    """H is the integer [[1, 1], [1, -1]], so H^dag H = 2I, and X^dag X =
    Z^dag Z = I, all exactly; none of the three takes a write."""
    for gate, square in ((circuits._H, 2), (circuits._X, 1), (circuits._Z, 1)):
        assert np.array_equal(gate.conj().T @ gate, square * np.eye(2))
        with pytest.raises(ValueError, match="read-only"):
            gate[0, 0] = 0


def test_a_batch_needs_one_state_or_one_per_member():
    reg = Register(batch=2)
    with pytest.raises(ValueError, match="3 states for a batch of 2"):
        reg.add_qubit(Party.ALICE, np.ones((3, 2)))


def test_batched_measurement_keeps_each_states_probabilities():
    reg = Register(batch=2)
    q = reg.add_qubit(Party.ALICE, [(0.6, 0.8), PLUS])
    branches = reg.measure([q])
    assert [b.outcome for b in branches] == [(0,), (1,)]
    assert np.allclose([b.probability for b in branches], [[0.36, 0.5], [0.64, 0.5]], atol=1e-12, rtol=0)
    # (0.6, 0.8) enters as it is, |+> = (1, 1) as (1/2, 1/2)
    assert np.array_equal(branches[1].register.amps, [[0, 0.8], [0, 0.5]])


def test_batched_measurement_whose_support_differs_across_the_batch_raises():
    reg = Register(batch=2)
    q = reg.add_qubit(Party.ALICE, [(1.0, 0.0), PLUS])  # outcome 1 is possible for |+> only
    with pytest.raises(ValueError, match="differ across the batch"):
        reg.measure([q])


# -- kernels against a dense reference -----------------------------------------------

DENSE_SINGLE = {
    "h": np.array([[1, 1], [1, -1]]),
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
    """rho of the qubits `keep`, in that order, by einsum over the others,
    of the unit vector along `amps`."""
    letters = "abcdefghij"
    bra = "".join(letters[n + q] if q in keep else letters[q] for q in range(n))
    out = "".join(letters[q] for q in keep) + "".join(letters[n + q] for q in keep)
    t = amps.reshape([2] * n) / np.linalg.norm(amps)
    return np.einsum(f"{letters[:n]},{bra}->{out}", t, t.conj()).reshape(2 ** len(keep), -1)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32), data=st.data())
def test_kernels_match_a_dense_reference(n, seed, data):
    """Every kernel on a batch of one to three random states, each state
    against the dense matrix of the gate: the one-qubit gates are the lab's
    H, X and Z, checked against the integer H and the Paulis, and `apply_if`
    with a control qubit against the dense CNOT and CZ."""
    rng = SplitMix64(seed)
    batch = data.draw(st.integers(1, 3))
    reg = Register(batch=batch)
    reg.add_qubit(Party.ALICE, [random_pure(rng, 2 ** n) for _ in range(batch)])
    want = reg.amps.copy()
    gates = ["h", "x", "z"] + (["cnot", "cz", "if x", "if z"] if n > 1 else [])
    for _ in range(data.draw(st.integers(0, 12))):
        name, before = data.draw(st.sampled_from(gates)), reg.amps
        if name in ("cnot", "cz", "if x", "if z"):
            control, target = data.draw(st.permutations(range(n)))[:2]
            if name.startswith("if"):  # a Pauli controlled by a qubit: CNOT or CZ
                reg.apply_if(control, getattr(circuits, f"_{name[-1].upper()}"), target)
            else:
                getattr(reg, name)(control, target)
            full = _dense_controlled(n, control, target, DENSE_SINGLE["x" if name in ("cnot", "if x") else "z"])
            assert np.array_equal(reg.amps, before @ full.T)  # exact: a permutation or signs
        else:
            qubit = data.draw(st.integers(0, n - 1))
            reg.apply_single(getattr(circuits, f"_{name.upper()}"), qubit)
            full = _dense(n, {qubit: DENSE_SINGLE[name]})
        want = want @ full.T
        assert np.max(np.abs(reg.amps - want)) <= 1e-12
    for k in range(1, min(n, 3) + 1):
        for keep in itertools.permutations(range(n), k):
            # one target for the whole batch, then one per state
            shared = 1.5 * random_pure(rng, 2 ** k)
            own = 1.5 * np.array([random_pure(rng, 2 ** k) for _ in range(batch)])
            rhos = reg.reduced_dm(list(keep))
            for target, rows in ((shared, [shared] * batch), (own, own)):
                fidelities = reg.fidelity(keep, target)
                for b, t in enumerate(rows):
                    rho = _partial_trace(reg.amps[b], n, keep)
                    assert np.max(np.abs(rhos[b] - rho)) <= 1e-12
                    assert abs(fidelities[b] - (t.conj() @ rho @ t).real / (t.conj() @ t).real) <= 1e-12


# -- teleportation ---------------------------------------------------------------


@pytest.mark.parametrize("amplitudes", [(1, 0), (0, 1), PLUS])
def test_teleportation_exact_on_fixed_inputs(amplitudes):
    [run] = run_teleportation(amplitudes)
    assert len(run.fidelities) == 4
    assert run.fidelity >= 1 - 1e-10


def test_teleportation_on_random_inputs():
    rng = SplitMix64(21)
    worst = min(run.fidelity for run in run_teleportation([random_pure(rng, 2) for _ in range(50)]))
    assert worst >= 1 - 1e-10


def test_teleportation_ledger_matches_its_inequality():
    [run] = run_teleportation(PLUS)
    assert run.ledger.matches(PRIMITIVES["tp"])


def test_every_teleportation_branch_ends_with_the_same_ledger():
    [run] = run_teleportation((0.6, 0.8))
    assert len(run.ledgers) == 4
    assert all(ledger == run.ledger for ledger in run.ledgers)
    assert run.ledger.matches(PRIMITIVES["tp"])


def test_no_signalling_before_the_classical_bits():
    [run] = run_teleportation((0.6, 0.8))
    assert np.max(np.abs(run.values["bob_premeasurement_dm"] - np.eye(2) / 2)) < 1e-12


# -- superdense coding ------------------------------------------------------------


def test_superdense_decodes_all_messages():
    for bits in itertools.product((0, 1), repeat=2):
        run = run_superdense(bits)
        assert run.values["decoded"] == bits
        assert run.ledger.matches(PRIMITIVES["sd"])


# -- entanglement distribution ----------------------------------------------------


def _bob_state(alice_bob: np.ndarray) -> np.ndarray:
    """The density matrix of the second qubit of unscaled two-qubit amplitudes."""
    m = alice_bob.reshape(2, 2)
    return m.T @ m.conj() / np.vdot(m, m).real


def test_entanglement_distribution():
    run = run_entanglement_distribution()
    assert run.fidelity >= 1 - 1e-12
    assert np.array_equal(_bob_state(run.values["final_state"]), np.eye(2) / 2)
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
    assert reg.ledgers[0].consumed[QUBIT_CHANNEL] == 3


# -- the cobit channel --------------------------------------------------------------


def test_cobit_copies_basis_states():
    run = run_cobit_checks()
    assert min(run.fidelities["basis 0"], run.fidelities["basis 1"]) >= 1 - 1e-12


def test_cobit_creates_entanglement_from_plus():
    run = run_cobit_checks()
    assert run.fidelities["plus"] >= 1 - 1e-12
    assert np.array_equal(_bob_state(run.values["final_state"]), np.eye(2) / 2)
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
    assert reg.ledgers[0].consumed[COBIT] == 2


# -- coherent protocols ---------------------------------------------------------------


def test_coherent_superdense_on_basis_message():
    message = np.zeros(4)
    message[2] = 1.0  # |10>
    [run] = run_coherent_superdense(message)
    assert run.fidelity >= 1 - 1e-10
    assert run.ledger.matches(circuits._COHERENT_SD)


def test_coherent_superdense_on_uniform_message_makes_two_ebits():
    [run] = run_coherent_superdense(np.full(4, 0.5))
    assert run.fidelity >= 1 - 1e-10
    # across the (message, copy) pairing the state is exactly two EPR pairs
    paired = np.zeros((2, 2, 2, 2), dtype=complex)
    for z in (0, 1):
        for x in (0, 1):
            paired[z, x, z, x] = 0.5
    assert state_fidelity(run.values["final_state"], paired.reshape(-1)) >= 1 - 1e-10


def test_coherent_superdense_product_message_stays_product():
    [run] = run_coherent_superdense((1, 0, 0, 0))
    want = np.zeros(16, dtype=complex)
    want[0] = 1.0
    assert state_fidelity(run.values["final_state"], want) >= 1 - 1e-12


def test_coherent_teleportation_fixed_input():
    [run] = run_coherent_teleportation((0, 1))
    assert run.fidelities["output"] >= 1 - 1e-10
    assert run.fidelities["residual"] >= 1 - 1e-10
    assert run.ledger.matches(circuits._COHERENT_TP)


def test_coherent_teleportation_random_inputs():
    rng = SplitMix64(22)
    for run in run_coherent_teleportation([random_pure(rng, 2) for _ in range(50)]):
        assert min(run.fidelities["output"], run.fidelities["residual"]) >= 1 - 1e-10


def test_coherent_teleportation_net_is_the_catalytic_identity():
    [run] = run_coherent_teleportation(PLUS)
    assert run.ledger.net() == {COBIT: -2, QUBIT_CHANNEL: 1, EBIT: 1}


def test_cobit_equivalence_composes_to_zero():
    [forward] = run_coherent_superdense(np.kron(PLUS, PLUS))
    [reverse] = run_coherent_teleportation(PLUS)
    report = verify_cobit_equivalence(forward, reverse)
    assert report.holds and report.fidelity == 1.0
    assert forward.ledger.net() == {COBIT: 2, QUBIT_CHANNEL: -1, EBIT: -1}
    assert reverse.ledger.net() == {COBIT: -2, QUBIT_CHANNEL: 1, EBIT: 1}
    ledgers = report.report["ledger"]
    assert ledgers["reverse"] == {"consumed": {"[qq]": 1, "[q->qq]": 2}, "produced": {"[q->q]": 1, "[qq]": 2}}
    assert ledgers["net"] and all(v == 0 for v in ledgers["net"].values())


# -- rule demonstrations -----------------------------------------------------------------


def test_rule_I_demo_uniform_and_decoupled():
    [teleported], [coherent] = run_teleportation(PLUS), run_coherent_teleportation(PLUS)
    demo = demo_rule_I_on_teleportation(teleported, coherent)
    assert demo.holds and demo.fidelity == 1.0
    assert sorted(demo.report["outcome_probabilities"]) == ["00", "01", "10", "11"]
    for p in demo.report["outcome_probabilities"].values():
        assert abs(p - 0.25) <= 1e-12
    assert demo.fidelities["overlap"] >= 1 - 1e-12
    assert demo.fidelities["coherent"] >= 1 - 1e-12


def test_rule_O_demo_residual_is_message_independent():
    sent = [run_superdense(bits) for bits in itertools.product((0, 1), repeat=2)]
    demo = demo_rule_O_on_superdense(sent, run_coherent_superdense(np.eye(4)))
    assert demo.holds and demo.fidelity == 1.0  # `holds`: Bob decoded every message
    assert min(demo.fidelities[bits] for bits in itertools.product((0, 1), repeat=2)) >= 1 - 1e-12
    assert demo.fidelities["overlap"] >= 1 - 1e-12


# -- exact values on fixed inputs ---------------------------------------------------------


def test_fixed_inputs_give_exact_values():
    """Every amplitude of a fixed input stays a small integer times a power
    of two, so each probability, fidelity and overlap read from it is exact."""
    teleported = run_teleportation([(1, 0), (0, 1), PLUS])
    for run in teleported:
        assert set(run.fidelities.values()) == {1.0}
        assert np.array_equal(run.values["outcome_probabilities"], np.full(4, 0.25))
        assert np.array_equal(run.values["bob_premeasurement_dm"], np.eye(2) / 2)
    sent = [run_superdense(bits) for bits in itertools.product((0, 1), repeat=2)]
    coherent = run_coherent_teleportation([(0, 1), PLUS])
    runs = [run_entanglement_distribution(), run_cobit_checks(), *sent, *coherent,
            *run_coherent_superdense(np.vstack([np.eye(4), np.full(4, 0.5)]))]
    for run in runs:
        assert set(run.fidelities.values()) == {1.0}, run.fidelities
    rule_I = demo_rule_I_on_teleportation(teleported[2], coherent[1])
    rule_O = demo_rule_O_on_superdense(sent, run_coherent_superdense(np.eye(4)))
    assert rule_I.fidelities["overlap"] == rule_O.fidelities["overlap"] == 1.0
    assert rule_O.fidelities["coherent"] == 1.0
    assert rule_I.report["outcome_probabilities"] == dict.fromkeys(["00", "01", "10", "11"], 0.25)
    assert rule_O.report["min_residual_bell_fidelity"] == 1.0


def test_the_min_overlap_of_one_state_and_a_phase_times_it_is_exactly_1():
    """Each Gram entry is squared as re^2 + im^2, which rounds nowhere on
    these amplitudes, where |z|^2 taken through abs (hypot) can round."""
    s = np.array([1.0, 1.0])
    overlaps = {(a, b): circuits._min_overlap(np.array([s, complex(a, b) * s]))
                for a in range(1, 40) for b in range(1, 40)}
    assert {pair for pair, overlap in overlaps.items() if overlap != 1.0} == set()


# -- batches against batches of one ----------------------------------------------------

BATCHED_RUNNERS = {"run_teleportation": 2, "run_coherent_superdense": 4,
                   "run_coherent_teleportation": 2}


def _rotated_hadamard(angle):
    """The lab's H followed by a rotation through `angle` about the generic
    axis (X + Y + Z) / sqrt(3)."""
    axis = np.array([[1, 1 - 1j], [1 + 1j, -1]]) / np.sqrt(3)
    return circuits._H @ (np.cos(angle) * np.eye(2) - 1j * np.sin(angle) * axis)


def _one_at_a_time(runner):
    """`runner` with each row of its inputs run alone, as a batch of one."""
    return lambda inputs: [run for row in np.atleast_2d(inputs) for run in runner(row)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(BATCHED_RUNNERS)), seed=st.integers(0, 2 ** 32),
       size=st.integers(1, 9), angle=st.sampled_from([0.0, 0.1, 0.3]),
       claim_bar=st.sampled_from([circuits.PROTOCOL_FIDELITY, 0.994, 0.95, 0.917]))
def test_a_batch_agrees_with_batches_of_one(name, seed, size, angle, claim_bar):
    """With the Hadamard followed by a rotation through `angle` about a
    generic axis, and a lower claim bar, the fidelities, branch ledgers and
    side conditions differ from input to input."""
    inputs = SplitMix64(seed).complex_matrix(size, BATCHED_RUNNERS[name])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circuits, "_H", _rotated_hadamard(angle))
        patch.setattr(circuits, "PROTOCOL_FIDELITY", claim_bar)
        runner = getattr(circuits, name)
        batch, alone = runner(inputs), _one_at_a_time(runner)(inputs)
    assert len(batch) == len(alone) == size
    for together, apart in zip(batch, alone):
        assert list(together.fidelities) == list(apart.fidelities)
        assert all(abs(together.fidelities[k] - f) <= 1e-12 for k, f in apart.fidelities.items())
        assert together.ledgers == apart.ledgers
        assert together.holds == apart.holds
        assert (together.fidelity >= claim_bar) == (apart.fidelity >= claim_bar)
        assert list(together.values) == list(apart.values)
        assert all(np.max(np.abs(together.values[k] - v)) <= 1e-12 for k, v in apart.values.items())


@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32), trials=st.integers(1, 12))
def test_verify_all_reports_alike_with_every_input_run_alone(seed, trials):
    batched = verify_all(trials=trials, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        for name in BATCHED_RUNNERS:
            patch.setattr(circuits, name, _one_at_a_time(getattr(circuits, name)))
        alone = verify_all(trials=trials, seed=seed)
    _same_report(batched, alone)


@pytest.mark.parametrize("trials, seed", [(1, 0), (2, 5), (3, 1), (4, 2), (7, 3), (20, 7)])
def test_verify_all_reports_alike_in_batches_of_three_draws(monkeypatch, trials, seed):
    """Each batch is drawn when it runs, in the order one block would be, so
    the batch size moves no value, no worst case and no run that the derived
    entries read."""
    whole = verify_all(trials=trials, seed=seed)
    monkeypatch.setattr(circuits, "VERIFY_CHUNK", 3)
    assert verify_all(trials=trials, seed=seed) == whole


def test_verify_all_memory_does_not_grow_with_trials(monkeypatch):
    """Eight times the trials, past the batch size, need about the same
    peak: the runs of a batch are dropped once it is summed up."""
    monkeypatch.setattr(circuits, "VERIFY_CHUNK", 256, raising=False)
    verify_all(trials=3, seed=0)  # fills the gate and index caches

    def peak(trials):
        tracemalloc.start()
        try:
            verify_all(trials=trials, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(512), peak(4096)
    assert many < 1.5 * few, (few, many)


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
        count(circuits, name, name)
    verify_all(trials=20, seed=7)
    # 43 gates and 9 runs in all; a batched runner is one run however many
    # inputs it takes, and no derived entry runs a circuit of its own
    assert counts == {"apply_single": 24, "_cnot_unchecked": 17, "cz": 2, "branches": 8,
                      "run_teleportation": 1, "run_superdense": 4, "run_entanglement_distribution": 1,
                      "run_cobit_checks": 1, "run_coherent_superdense": 1, "run_coherent_teleportation": 1}


# Each changes what a runner returned, in place: `arg` is the runner's
# argument and `out` its result.  Input 1 of the teleportation rows is |+>;
# inputs 0-3 of the coherent super-dense row are the basis messages and
# input 4 is |+>|+>.


def _skew_outcome_probabilities(arg, out):
    out[1].values["outcome_probabilities"] = out[1].values["outcome_probabilities"] * [1, 1, 1, 0.5]


def _flip_one_branchs_bob_state(arg, out):
    out[1].values["bob_states"] = out[1].values["bob_states"] * [[1, 1], [1, 1], [1, 1], [1, -1]]


def _lose_coherent_output(arg, out):
    out[1].fidelities["output"] = 0.5


def _lose_one_basis_messages_cobits(arg, out):
    if len(out) > 4:  # the row's batch, not a batch of the four messages alone
        out[2].fidelities["cobits"] = 0.5


def _lose_the_plus_plus_cobits(arg, out):
    out[4].fidelities["cobits"] = 0.5


def _flip_one_residual(arg, out):
    if arg == (1, 0):
        out.values["residual"] = out.values["residual"] * [1, 1, 1, -1]  # |Phi_+> -> |Phi_->


@pytest.mark.parametrize("name, change, failing", [
    ("run_teleportation", _skew_outcome_probabilities, {"rule_I_on_teleportation"}),
    ("run_teleportation", _flip_one_branchs_bob_state, {"rule_I_on_teleportation"}),
    ("run_coherent_teleportation", _lose_coherent_output,
     {"coherent_teleportation", "cobit_equivalence", "rule_I_on_teleportation"}),
    ("run_superdense", _flip_one_residual, {"rule_O_on_superdense"}),
    ("run_coherent_superdense", _lose_one_basis_messages_cobits,
     {"coherent_superdense", "rule_O_on_superdense"}),
    ("run_coherent_superdense", _lose_the_plus_plus_cobits, {"coherent_superdense", "cobit_equivalence"}),
])
def test_derived_entries_read_the_protocol_rows_runs(monkeypatch, name, change, failing):
    """A change to what a protocol row's runner returned fails exactly the
    entries whose checks read it: the derived entries run no circuit of
    their own for these inputs."""
    real = getattr(circuits, name)

    def changed(arg):
        out = real(arg)
        change(arg, out)
        return out

    monkeypatch.setattr(circuits, name, changed)
    report = verify_all(trials=3, seed=0)
    entries = [*report["protocols"], *report["rule_demos"]]
    assert {entry["name"] for entry in entries if not entry["pass"]} == failing
    assert not report["pass"]


FIXED_INPUT_MAKERS = {"superdense": "run_superdense",
                      "entanglement_distribution": "run_entanglement_distribution",
                      "cobit": "run_cobit_checks", "cobit_equivalence": "verify_cobit_equivalence",
                      "rule_I_on_teleportation": "demo_rule_I_on_teleportation",
                      "rule_O_on_superdense": "demo_rule_O_on_superdense"}


@pytest.mark.parametrize("entry, maker", FIXED_INPUT_MAKERS.items(), ids=list(FIXED_INPUT_MAKERS))
def test_a_fixed_input_entry_fails_one_ulp_below_fidelity_1(monkeypatch, entry, maker):
    """Every fidelity of an entry whose every input is fixed reads exactly
    1, and any one of them lowered by one ulp, in the Run that `maker`
    returned, fails that entry alone."""
    assert sorted(FIXED_INPUT_MAKERS) == sorted(FIXED_INPUT_ENTRIES)
    real, made = getattr(circuits, maker), []
    monkeypatch.setattr(circuits, maker, lambda *args: made.append(real(*args)) or made[-1])
    verify_all(trials=2, seed=0)
    fidelities = [(i, key, value) for i, run in enumerate(made) for key, value in run.fidelities.items()]
    assert {value for _, _, value in fidelities} == {1.0}
    for i, key, _ in fidelities:
        calls = itertools.count()

        def lowered(*args):
            run = real(*args)
            if next(calls) == i:
                run.fidelities[key] = np.nextafter(1.0, 0.0)
            return run

        monkeypatch.setattr(circuits, maker, lowered)
        report = verify_all(trials=2, seed=0)
        failed = [e for e in [*report["protocols"], *report["rule_demos"]] if not e["pass"]]
        assert [(e["name"], e["margin"]) for e in failed] == [(entry, np.nextafter(1.0, 0.0) - 1.0)], (i, key)


def test_one_claim_bar_books_a_near_exact_ebit_and_its_entry_still_fails(monkeypatch):
    """With the Hadamard rotated by 1e-6, entanglement distribution reads an
    infidelity of about 7e-13.  Its claim books the ebit at PROTOCOL_FIDELITY,
    as every runner's claim does, and its entry, whose every input is fixed,
    still fails: only `verify_all`'s row judges, and its bar there is 1."""
    monkeypatch.setattr(circuits, "_H", _rotated_hadamard(1e-6))
    run = run_entanglement_distribution()
    assert circuits.PROTOCOL_FIDELITY <= run.fidelity < 1.0
    assert run.ledger.matches(PRIMITIVES["qe"])
    [entry] = [e for e in verify_all(trials=2, seed=0)["protocols"] if e["name"] == "entanglement_distribution"]
    assert (entry["pass"], entry["margin"]) == (False, run.fidelity - 1.0)


def test_report_names_the_worst_case_and_its_margin(monkeypatch):
    real = circuits.run_teleportation

    def one_bad_run(amplitudes):
        runs = real(amplitudes)
        runs[3].fidelities["degraded"] = 0.75
        return runs

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
            cases["coherent_teleportation"]] == [12, 4, 6, 12]
    for entry in [*report["protocols"], *report["rule_demos"]]:
        assert list(entry)[-4:] == ["pass", "cases", "worst_case", "margin"]
        assert 0 <= entry["worst_case"] < entry["cases"] and entry["margin"] >= 0
