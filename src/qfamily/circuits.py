"""Exact state-vector runs of the noiseless protocols.

Teleportation, super-dense coding, entanglement distribution, the coherent
bit channel, and the coherent versions of teleportation and super-dense
coding are Clifford circuits on at most five qubits; every run keeps the
global state pure (measurements enumerate branches instead of sampling).

Kernels act on the flat amplitude vector, where qubit i is bit n-1-i of an
index: a one-qubit gate is one batched matmul, CNOT a gather through an index
permutation and CZ a product with a +-1 mask (both tables cached on first
use), and a fidelity |t^dag M|^2 / |t|^2, where the rows of M are the compared
qubits' values; no density matrix is formed.

Party discipline: each qubit is owned by Alice or Bob, and gates may not
span parties.  Each party holds a set of classical bits: its inputs, its own
measurement outcomes and the bits sent to it.  A gate conditioned on a bit
runs only if the acting party holds that bit.

Ledgers: each run books its resources in an integer ledger that must match
the protocol's exact resource inequality at coefficient one.  Only the
booking primitives write it.  `share_ebit` (a preshared ebit), `send` (a
qubit channel use), `cobit` (the one licensed cross-party controlled copy)
and `communicate` (one classical bit channel use per bit) book what is
consumed.  The checked claims `claim_qubit`, `claim_ebits`, `claim_cobits`
and `claim_cbits` book what is produced, and only when the claimed state
reaches the run's fidelity threshold.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .algebra import (
    CBIT,
    COBIT,
    EBIT,
    QUBIT_CHANNEL,
    ResourceInequality,
    ResourceKind,
)
from .derivation import COBIT_EBIT, COHERENT_SD, COHERENT_TP, PRIMITIVES
from .entropy import entropy
from .rng import SplitMix64, random_pure

NORM_TOL = 1e-12
PROTOCOL_FIDELITY = 1.0 - 1e-10
EXACT_FIDELITY = 1.0 - 1e-12

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


class Party(Enum):
    ALICE = "alice"
    BOB = "bob"

    __hash__ = object.__hash__  # members are singletons; Enum's hash runs in Python


class LocalityError(ValueError):
    """A gate spanning parties outside the declared resources."""


def _by_kind(counts) -> dict:
    return {k.token: n for k, n in sorted(counts.items(), key=lambda kv: kv[0].sort_key)}


def _wanted_counts(ri: ResourceInequality) -> tuple[dict, dict]:
    """The (consumed, produced) counts of a ledger matching `ri` at coefficient 1."""
    return tuple({kind: int(coeff.as_constant()) for kind, coeff in side.terms}
                 for side in (ri.lhs, ri.rhs))


@dataclass
class Ledger:
    """Whole-protocol resource counts (noiseless kinds only)."""

    consumed: Counter = field(default_factory=Counter)
    produced: Counter = field(default_factory=Counter)

    def consume(self, kind: ResourceKind, n: int = 1):
        self.consumed[kind] += n

    def produce(self, kind: ResourceKind, n: int = 1):
        self.produced[kind] += n

    def counts(self) -> tuple[dict, dict]:
        """Nonzero (consumed, produced) counts, in the form of `_wanted_counts`."""
        return tuple({k: n for k, n in counts.items() if n}
                     for counts in (self.consumed, self.produced))

    def matches(self, ri: ResourceInequality) -> bool:
        """Exact integer match against an inequality at coefficient 1."""
        return self.counts() == _wanted_counts(ri)

    def copy(self) -> "Ledger":
        return Ledger(Counter(self.consumed), Counter(self.produced))

    def net(self) -> dict[ResourceKind, int]:
        kinds = set(self.consumed) | set(self.produced)
        return {k: self.produced[k] - self.consumed[k] for k in kinds}

    def as_json(self) -> dict:
        return {"consumed": _by_kind(self.consumed), "produced": _by_kind(self.produced)}


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(np.asarray(a).reshape(-1), np.asarray(b).reshape(-1))) ** 2)


def _unit(amplitudes) -> np.ndarray:
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    return v / np.linalg.norm(v)


@functools.lru_cache(maxsize=64)
def _two_qubit_tables(n: int, control: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """(perm, signs) on n qubits: amps[perm] is CNOT, flipping the target bit
    where the control bit is 1, and amps * signs is CZ, -1 where both are 1."""
    if control == target:
        raise ValueError(f"a two-qubit gate needs two qubits, got {control} twice")
    index = np.arange(1 << n)
    c, t = (index >> (n - 1 - control)) & 1, (index >> (n - 1 - target)) & 1
    perm, signs = index ^ (c << (n - 1 - target)), 1.0 - 2.0 * (c & t)
    perm.flags.writeable = signs.flags.writeable = False
    return perm, signs


@functools.lru_cache(maxsize=64)
def _cut(n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Flat indices of the amplitudes as a (2^k, 2^(n-k)) matrix M: rows
    indexed by the listed qubits in that order, columns by the others."""
    rest = [q for q in range(n) if q not in qubits]
    cut = np.arange(1 << n).reshape([2] * n).transpose([*qubits, *rest]).reshape(1 << len(qubits), -1)
    cut.flags.writeable = False
    return cut


class Register:
    """Pure state over owned qubits; qubit i is axis i of the amplitude tensor.

    `known[party]` maps the names of the classical bits that party holds to
    their values.  A claim books its resource when its fidelity reaches
    `threshold`.
    """

    def __init__(self, threshold: float = PROTOCOL_FIDELITY):
        self.amps = np.array([1.0 + 0.0j])
        self.owners: list[Party] = []
        self.known: dict[Party, dict[str, int]] = {Party.ALICE: {}, Party.BOB: {}}
        self.ledger = Ledger()
        self.threshold = threshold

    @property
    def n(self) -> int:
        return len(self.owners)

    def copy(self) -> "Register":
        dup = Register(self.threshold)
        dup.amps = self.amps.copy()
        dup.owners = list(self.owners)
        dup.known = {party: dict(bits) for party, bits in self.known.items()}
        dup.ledger = self.ledger.copy()
        return dup

    def _tensor(self) -> np.ndarray:
        return self.amps.reshape([2] * self.n)

    def _check_norm(self):
        norm = float(np.vdot(self.amps, self.amps).real) ** 0.5
        if not abs(norm - 1.0) <= NORM_TOL:
            raise AssertionError(f"norm drifted to {norm!r}")

    def _require_owner(self, qubit: int, party: Party):
        if self.owners[qubit] is not party:
            raise LocalityError(f"qubit {qubit} must be held by {party.name.title()}")

    def _require_one_party(self, qubits: tuple[int, ...]):
        parties = {self.owners[q] for q in qubits}
        if len(parties) > 1:
            raise LocalityError(
                f"gate on qubits {qubits} spans parties; only declared resources cross the cut"
            )

    # -- allocation and the consuming primitives ------------------------------

    def add_qubit(self, owner: Party, amplitudes=(1.0, 0.0)):
        """Fresh qubits of one party in a joint state of 2^k amplitudes: the
        new qubit's index, or a tuple of the k new indices."""
        q = _unit(amplitudes)
        k = q.size.bit_length() - 1
        self.amps = np.outer(self.amps, q).reshape(-1)  # kron of vectors, ~6x cheaper
        self.owners.extend([owner] * k)
        new = tuple(range(self.n - k, self.n))
        return new[0] if k == 1 else new

    def share_ebit(self) -> tuple[int, int]:
        """Preshared EPR pair: one half each.  Books one ebit consumed."""
        a_half, b_half = self.add_qubit(Party.ALICE, BELL)
        self.owners[b_half] = Party.BOB
        self.ledger.consume(EBIT)
        return a_half, b_half

    def send(self, qubit: int, to: Party):
        """Transfer a qubit through the noiseless channel (one use booked)."""
        if self.owners[qubit] is to:
            raise LocalityError(f"qubit {qubit} already belongs to {to.value}")
        self.ledger.consume(QUBIT_CHANNEL)
        self.owners[qubit] = to

    def cobit(self, source: int) -> int:
        """Controlled copy |x>^A -> |x>^A |x>^B onto a fresh Bob qubit."""
        self._require_owner(source, Party.ALICE)
        target = self.add_qubit(Party.BOB)
        self._cnot_unchecked(source, target)
        self.ledger.consume(COBIT)
        return target

    def communicate(self, bits, to: Party):
        """Send classical bits the other party holds to `to`: one [c->c] each."""
        sender = self.known[Party.BOB if to is Party.ALICE else Party.ALICE]
        for bit in bits:
            if bit not in sender:
                raise LocalityError(f"bit {bit!r} is not held by the sender")
            self.known[to][bit] = sender[bit]
        self.ledger.consume(CBIT, len(bits))

    # -- local gates ---------------------------------------------------------

    def apply_single(self, matrix: np.ndarray, qubit: int):
        """`matrix` on `qubit`: one batched matmul with the qubit as the middle axis."""
        self.amps = (matrix @ self.amps.reshape(1 << qubit, 2, -1)).reshape(-1)
        self._check_norm()

    def apply_if(self, bit: str, matrix: np.ndarray, qubit: int):
        """`matrix` on `qubit` if the classical `bit` is 1; the qubit's owner
        must hold the bit."""
        held = self.known[self.owners[qubit]]
        if bit not in held:
            raise LocalityError(f"{self.owners[qubit].name.title()} does not hold bit {bit!r}")
        if held[bit]:
            self.apply_single(matrix, qubit)

    def h(self, qubit: int):
        self.apply_single(_H, qubit)

    def _cnot_unchecked(self, control: int, target: int):
        self.amps = self.amps[_two_qubit_tables(self.n, control, target)[0]]
        self._check_norm()

    def cnot(self, control: int, target: int):
        self._require_one_party((control, target))
        self._cnot_unchecked(control, target)

    def cz(self, control: int, target: int):
        self._require_one_party((control, target))
        self.amps = self.amps * _two_qubit_tables(self.n, control, target)[1]
        self._check_norm()

    # -- measurement (branch enumeration) and inspection ---------------------

    def measure(self, qubits: list[int]) -> list["Branch"]:
        """All outcome branches with nonzero probability; measured qubits
        collapse in place, everything stays pure.  The outcome of qubit q is
        the classical bit "m<q>", held by the measuring party."""
        self._require_one_party(tuple(qubits))
        party = self.owners[qubits[0]]
        names = tuple(f"m{q}" for q in qubits)
        cut = _cut(self.n, tuple(qubits))
        rows = self.amps[cut]
        branches = []
        for row, outcome in enumerate(itertools.product((0, 1), repeat=len(qubits))):
            sub = rows[row]
            probability = float(np.vdot(sub, sub).real)
            if probability < 1e-15:
                continue
            register = self.copy()
            register.amps = np.zeros_like(self.amps)
            register.amps[cut[row]] = sub / np.sqrt(probability)
            register.known[party].update(zip(names, outcome))
            branches.append(Branch(outcome, probability, register, names))
        return branches

    def reduced_dm(self, qubits: list[int]) -> np.ndarray:
        """Reduced density matrix M M^dag on the listed qubits, in the listed order."""
        m = self.amps[_cut(self.n, tuple(qubits))]
        return m @ m.conj().T

    def fidelity(self, qubits: list[int], target) -> float:
        """<t| rho |t> / <t|t> = |t^dag M|^2 / |t|^2 for the reduced state
        rho = M M^dag of `qubits`, in that order, and the target amplitudes t."""
        t = np.asarray(target, dtype=complex).reshape(-1)
        overlap = t.conj() @ self.amps[_cut(self.n, tuple(qubits))]
        return float(np.vdot(overlap, overlap).real / np.vdot(t, t).real)

    # -- checked claims: the only way to book a produced resource -------------

    def _claim(self, kind: ResourceKind, n: int, fidelity: float) -> float:
        if fidelity >= self.threshold:
            self.ledger.produce(kind, n)
        return fidelity

    def claim_qubit(self, qubit: int, state) -> float:
        """Bob's `qubit` carries `state`: one [q->q] produced."""
        self._require_owner(qubit, Party.BOB)
        return self._claim(QUBIT_CHANNEL, 1, self.fidelity([qubit], state))

    def claim_ebits(self, pairs) -> float:
        """Every (Alice qubit, Bob qubit) pair is |Phi+>: one [qq] produced each."""
        for a, b in pairs:
            self._require_owner(a, Party.ALICE)
            self._require_owner(b, Party.BOB)
        qubits = [q for pair in pairs for q in pair]
        target = functools.reduce(np.kron, [BELL] * len(pairs))
        return self._claim(EBIT, len(pairs), self.fidelity(qubits, target))

    def claim_cobits(self, sources, copies, message) -> float:
        """Alice's `sources` and Bob's `copies` hold sum_x c_x |x>|x> for the
        message amplitudes c: one [q->qq] produced per source."""
        for a, b in zip(sources, copies):
            self._require_owner(a, Party.ALICE)
            self._require_owner(b, Party.BOB)
        target = np.diag(np.asarray(message).reshape(-1))
        return self._claim(COBIT, len(sources), self.fidelity([*sources, *copies], target))

    def claim_cbits(self, bits, sent) -> float:
        """Bob holds `bits` and they read `sent`: one [c->c] produced each."""
        got = tuple(self.known[Party.BOB].get(bit) for bit in bits)
        return self._claim(CBIT, len(bits), float(got == tuple(sent)))


@dataclass
class Branch:
    outcome: tuple[int, ...]
    probability: float
    register: Register
    bits: tuple[str, ...]  # the names of the outcome bits


# ---------------------------------------------------------------------------
# Protocols and rule demonstrations
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """One run of a protocol or a demonstration.

    `ledgers` holds the ledger of every final branch, `fidelities` every
    state comparison the run made (claims included), `holds` whether its
    exact side conditions held, `report` the keys it adds to its entry in
    `verify_all`, and `values` what else it measured.
    """

    threshold: float
    ledgers: list[Ledger]
    fidelities: dict
    holds: bool = True
    report: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    @property
    def ledger(self) -> Ledger:
        return self.ledgers[0]

    @property
    def fidelity(self) -> float:
        return min(self.fidelities.values())

    @property
    def passed(self) -> bool:
        return self.holds and self.fidelity >= self.threshold


def _fix_up(reg: Register, target: int, z: str, x: str):
    """Z^z X^x on `target` for the classical bits z, x its owner holds."""
    reg.apply_if(x, _X, target)
    reg.apply_if(z, _Z, target)


def _controlled_fix_up(reg: Register, target: int, z: int, x: int):
    """Z^z X^x on `target` controlled by the qubits z, x of its owner."""
    reg.cnot(x, target)
    reg.cz(z, target)


def _teleport(reg: Register, msg: int, a_half: int, b_half: int):
    """Alice's Bell measurement of (msg, a_half), her outcome bits (z, x)
    sent to Bob, and his Z^z X^x fix-up on b_half.  Returns Bob's state
    before the measurement and one final branch per outcome."""
    reg.cnot(msg, a_half)
    reg.h(msg)
    premeasurement = reg.reduced_dm([b_half])
    branches = reg.measure([msg, a_half])
    for branch in branches:
        branch.register.communicate(branch.bits, Party.BOB)
        _fix_up(branch.register, b_half, *branch.bits)
    return premeasurement, branches


def _superdense(reg: Register, encode, z, x) -> tuple[int, int]:
    """Share an ebit, apply `encode(reg, a_half, z, x)` (one of the fix-ups)
    to Alice's half, send it, and rotate Bob's pair from the Bell basis to
    the computational basis."""
    a_half, b_half = reg.share_ebit()
    encode(reg, a_half, z, x)
    reg.send(a_half, Party.BOB)
    reg.cnot(a_half, b_half)
    reg.h(a_half)
    return a_half, b_half


def run_teleportation(input_amplitudes=(1.0, 0.0)) -> Run:
    """Teleport one qubit: Bell measurement, two classical bits, Pauli fixup.

    Every outcome branch must hand Bob the input state, and Bob's state
    before the measurement must be maximally mixed (no signalling).
    """
    reg = Register(PROTOCOL_FIDELITY)
    msg = reg.add_qubit(Party.ALICE, input_amplitudes)
    a_half, b_half = reg.share_ebit()
    premeasurement, branches = _teleport(reg, msg, a_half, b_half)
    fidelities = {b.outcome: b.register.claim_qubit(b_half, input_amplitudes) for b in branches}
    return Run(PROTOCOL_FIDELITY, [b.register.ledger for b in branches], fidelities,
               holds=bool(np.max(np.abs(premeasurement - np.eye(2) / 2)) <= 1e-12),
               values={"bob_premeasurement_dm": premeasurement})


def run_superdense(bits: tuple[int, int]) -> Run:
    """Send Alice's two input bits (z, x) with one qubit use and one ebit.

    She applies Z^z X^x to her half; Bob's Bell-basis decoding must read the
    bits back in every branch (it is deterministic: one branch survives).
    """
    reg = Register(PROTOCOL_FIDELITY)
    reg.known[Party.ALICE].update(z=bits[0], x=bits[1])
    branches = reg.measure(list(_superdense(reg, _fix_up, "z", "x")))
    fidelities = {b.outcome: b.register.claim_cbits(b.bits, bits) for b in branches}
    decoded = branches[0].outcome if len(branches) == 1 else None
    return Run(PROTOCOL_FIDELITY, [b.register.ledger for b in branches], fidelities,
               values={"decoded": decoded})


def run_entanglement_distribution() -> Run:
    """Make an EPR pair locally and send half: one channel use buys one ebit."""
    reg = Register(EXACT_FIDELITY)
    q0, q1 = reg.add_qubit(Party.ALICE, (1.0, 0.0, 0.0, 0.0))
    reg.h(q0)
    reg.cnot(q0, q1)
    reg.send(q1, Party.BOB)
    fidelity = reg.claim_ebits([(q0, q1)])
    bob_entropy = entropy(reg.reduced_dm([q1]))
    return Run(EXACT_FIDELITY, [reg.ledger], {"ebit": fidelity}, holds=abs(bob_entropy - 1.0) <= 1e-9,
               values={"bob_entropy": bob_entropy})


def run_cobit_checks() -> Run:
    """The defining isometry on basis states, plus entanglement creation on
    |+>; the ledger is that of the |+> run."""
    fidelities = {}
    for value in (0, 1):
        reg = Register(EXACT_FIDELITY)
        reg.cobit(reg.add_qubit(Party.ALICE, (1 - value, value)))
        fidelities[f"basis {value}"] = state_fidelity(reg.amps, np.eye(4)[3 * value])
    reg = Register(EXACT_FIDELITY)
    src = reg.add_qubit(Party.ALICE, PLUS)
    copy = reg.cobit(src)
    fidelities["plus"] = reg.claim_ebits([(src, copy)])
    bob_entropy = entropy(reg.reduced_dm([copy]))
    return Run(EXACT_FIDELITY, [reg.ledger], fidelities, holds=abs(bob_entropy - 1.0) <= 1e-9,
               values={"bob_entropy_on_plus": bob_entropy})


def run_coherent_superdense(message=(0.0, 0.0, 1.0, 0.0)) -> Run:
    """Super-dense coding with controlled encodings instead of a classical
    choice: one qubit use plus one ebit realize two cobits.

    Qubit order (m0, m1, a, b): the message register stays with Alice, the
    decoded pair (a, b) at Bob carries the copies.
    """
    reg = Register(PROTOCOL_FIDELITY)
    m0, m1 = reg.add_qubit(Party.ALICE, message)
    pair = _superdense(reg, _controlled_fix_up, m0, m1)
    fidelity = reg.claim_cobits((m0, m1), pair, message)
    return Run(PROTOCOL_FIDELITY, [reg.ledger], {"cobits": fidelity},
               values={"final_state": reg.amps.copy()})


def run_coherent_teleportation(input_amplitudes=(1.0, 0.0)) -> Run:
    """Teleportation with the measurement replaced by two cobits.

    Bob's controlled corrections deliver the input on his half and leave
    each (message bit, copy) pair in an EPR state: entanglement out for
    free, modulo the one catalytic ebit.
    """
    message = _unit(input_amplitudes)
    reg = Register(PROTOCOL_FIDELITY)
    q0 = reg.add_qubit(Party.ALICE, message)
    q1, q2 = reg.share_ebit()
    reg.cnot(q0, q1)
    reg.h(q0)
    c1, c2 = reg.cobit(q0), reg.cobit(q1)
    _controlled_fix_up(reg, q2, c1, c2)
    fidelities = {
        "output": reg.claim_qubit(q2, message),
        "residual": reg.claim_ebits([(q0, c1), (q1, c2)]),
        # the whole register: Phi_+ on (q0, c1) and on (q1, c2), the message on q2
        "total": reg.fidelity([q0, c1, q1, c2, q2], np.kron(np.kron(BELL, BELL), message)),
    }
    return Run(PROTOCOL_FIDELITY, [reg.ledger], fidelities, values={"final_state": reg.amps.copy()})


def verify_cobit_equivalence() -> Run:
    """Two cobits and a qubit-plus-ebit simulate each other with the one
    ebit catalyst conserved: composing both ledgers nets to zero."""
    forward = run_coherent_superdense(np.kron(PLUS, PLUS))
    reverse = run_coherent_teleportation(PLUS)
    net = Counter()
    for run in (forward, reverse):
        net.update(run.ledger.net())
    holds = (
        forward.ledger.matches(COHERENT_SD)
        and reverse.ledger.matches(COHERENT_TP)
        and all(v == 0 for v in net.values())
    )
    return Run(PROTOCOL_FIDELITY, [], {"forward": forward.fidelity, "reverse": reverse.fidelity}, holds,
               report={"ledger": {"forward": forward.ledger.as_json(),
                                  "reverse": reverse.ledger.as_json(), "net": _by_kind(net)}},
               values={"forward": forward.ledger, "reverse": reverse.ledger, "net": net})


def demo_rule_I_on_teleportation(input_amplitudes=PLUS) -> Run:
    """Teleportation meets the input-coherentification conditions exactly:
    the Bell outcome is uniform on four values, and after Bob's correction
    his system is the same state on every branch, so replacing the
    measurement with cobits leaves (sum_x 1/2 |x>|x>) tensor the payload."""
    reg = Register(EXACT_FIDELITY)
    msg = reg.add_qubit(Party.ALICE, input_amplitudes)
    _, branches = _teleport(reg, msg, *reg.share_ebit())
    probabilities = {b.outcome: b.probability for b in branches}
    states = [b.register._tensor()[b.outcome] for b in branches]
    overlap = min(abs(np.vdot(s, t)) for s in states for t in states)
    coherent = run_coherent_teleportation(input_amplitudes)
    uniform = len(probabilities) == 4 and all(abs(p - 0.25) <= 1e-12 for p in probabilities.values())
    reported = {f"{z}{x}": p for (z, x), p in sorted(probabilities.items())}
    return Run(EXACT_FIDELITY, [], {"coherent": coherent.fidelity, "overlap": overlap}, uniform,
               report={"outcome_probabilities": reported, "min_pairwise_overlap": overlap},
               values={"outcome_probabilities": probabilities})


def demo_rule_O_on_superdense() -> Run:
    """Super-dense coding decouples its message from the quantum system:
    Bob reads (z, x) without disturbing the state, so undoing his decoding
    and applying Z^z X^x to his own half returns |Phi_+> whatever the
    message, and the controlled-encoding version runs with no measurement
    at all.  `fidelities[(z, x)]` is the residual |Phi_+> fidelity."""
    fidelities, states, decoded = {}, [], []
    for bits in itertools.product((0, 1), repeat=2):
        reg = Register(EXACT_FIDELITY)
        reg.known[Party.ALICE].update(z=bits[0], x=bits[1])
        a_half, b_half = _superdense(reg, _fix_up, "z", "x")
        for branch in reg.measure([a_half, b_half]):
            out = branch.register
            decoded.append(branch.outcome == bits)
            out.h(a_half)
            out.cnot(a_half, b_half)
            _fix_up(out, b_half, *branch.bits)
            fidelities[bits] = state_fidelity(out.amps, BELL)
            states.append(out.amps)
    residual = min(fidelities.values())
    fidelities["overlap"] = min(abs(np.vdot(s, t)) for s in states for t in states)
    fidelities["coherent"] = min(run_coherent_superdense(m).fidelity for m in np.eye(4))
    return Run(EXACT_FIDELITY, [], fidelities, holds=all(decoded),
               report={
                   "min_residual_bell_fidelity": residual,
                   "min_pairwise_residual_overlap": fidelities["overlap"],
               },
               values={"all_decoded": all(decoded)})


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------


def verify_all(trials: int = 50, seed: int = 0) -> dict:
    """Run the seven protocols plus the two rule demonstrations.

    Each row of the table is (report section, name, target inequality or
    None, argument tuples, runner).  An entry passes when every run passes
    at its own threshold and, where the row has a target, the ledger of
    every branch matches it.  Each entry also states its number of runs
    (`cases`), the input index of its lowest-fidelity run (`worst_case`; the
    first within 1e-12 of the lowest, so float noise cannot move it) and that
    fidelity minus the run's threshold (`margin`).  Returns a JSON-ready
    report; overall `pass` is True only if every entry passed.
    """
    rng = SplitMix64(seed)

    def draws(fixed, dim, count):
        return [(v,) for v in [*fixed, *(random_pure(rng, dim) for _ in range(count))]]

    protocol, demo = "protocols", "rule_demos"
    rows = (
        (protocol, "teleportation", PRIMITIVES["tp"], draws([(1.0, 0.0), PLUS], 2, trials),
         run_teleportation),
        (protocol, "superdense", PRIMITIVES["sd"],
         [(bits,) for bits in itertools.product((0, 1), repeat=2)], run_superdense),
        (protocol, "entanglement_distribution", PRIMITIVES["qe"], [()], run_entanglement_distribution),
        (protocol, "cobit", COBIT_EBIT, [()], run_cobit_checks),
        (protocol, "coherent_superdense", COHERENT_SD, draws([np.eye(4)[2], np.full(4, 0.5)], 4, 1),
         run_coherent_superdense),
        (protocol, "coherent_teleportation", COHERENT_TP, draws([(0.0, 1.0), PLUS], 2, trials),
         run_coherent_teleportation),
        # No target on the last three: the equivalence run matches its two
        # runs against COHERENT_SD and COHERENT_TP itself, and the rule
        # demos book no ledger.
        (protocol, "cobit_equivalence", None, [()], verify_cobit_equivalence),
        (demo, "rule_I_on_teleportation", None, [()], demo_rule_I_on_teleportation),
        (demo, "rule_O_on_superdense", None, [()], demo_rule_O_on_superdense),
    )
    report: dict = {protocol: [], demo: []}
    for section, name, target, inputs, runner in rows:
        runs = [runner(*args) for args in inputs]
        low = min(run.fidelity for run in runs)
        worst = next(i for i, run in enumerate(runs) if run.fidelity - low <= 1e-12)
        entry = {"name": name, "fidelity": low}
        if runs[0].ledgers:
            entry["ledger"] = runs[0].ledger.as_json()
        wanted = None if target is None else _wanted_counts(target)
        passed = all(
            run.passed and (wanted is None or all(ledger.counts() == wanted for ledger in run.ledgers))
            for run in runs
        )
        report[section].append({**entry, **runs[0].report, "pass": passed, "cases": len(runs),
                                "worst_case": worst, "margin": low - runs[worst].threshold})
    report["pass"] = all(entry["pass"] for entry in [*report[protocol], *report[demo]])
    return report
