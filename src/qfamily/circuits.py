"""Exact state-vector runs of the noiseless protocols.

Teleportation, super-dense coding, entanglement distribution, the coherent
bit channel, and the coherent versions of teleportation and super-dense
coding are Clifford circuits on at most five qubits; every run keeps the
global state pure (measurements enumerate branches instead of sampling).
Teleportation and super-dense coding are written once each; their coherent
rows run the same body with cobits, message qubits and qubit-controlled
Paulis (`Register.apply_if`) for bits, against `derivation.coherent`.

A register holds a batch of B >= 1 states of the same qubits: its amplitudes
have shape (B, 2^n), row b being state b and qubit i bit n-1-i of a column
index.  They are never normalised (H is [[1, 1], [1, -1]]), only scaled by a
power of two as they enter: every reader divides by each state's |psi|^2, so
a fixed input's probabilities, fidelities and overlaps are exact, and the
kernels, acting on all B states at once, check no norm.  A one-qubit gate,
which is always the module's H, X or Z, is one batched matmul, CNOT a gather
through an index permutation and CZ a product with a +-1 mask (both tables
cached on first use), and a fidelity |t^dag M|^2 / (|t|^2 |psi|^2) per state,
where the rows of M are the compared qubits' values; no density matrix is
formed.  The runners whose inputs are amplitudes take one state or a batch of
them and return one Run per input, and `verify_all` runs each of their rows
in batches of VERIFY_CHUNK drawn inputs, drawing each batch as it runs.

`verify_all` runs each circuit once; its last three entries check those
runs.  The cobit equivalence reads input 4 (|+>|+>) of the coherent
super-dense row and input 1 (|+>) of the coherent teleportation row, rule I
that run and input 1 (|+>) of the teleportation row, rule O the four
super-dense runs and inputs 0-3 (the basis messages) of the coherent
super-dense row.

Party discipline: each qubit is owned by Alice or Bob, and gates may not
span parties.  Each party holds a set of classical bits: its inputs, its own
measurement outcomes and the bits sent to it.  A gate conditioned on a bit
runs only if the acting party holds that bit.

Ledgers: each run books its resources in an integer ledger, one per state of
a batch, that must match the protocol's exact resource inequality at
coefficient one.  Only the booking primitives write it.  `share_ebit` (a
preshared ebit), `send` (a qubit channel use), `cobit` (the one licensed
cross-party controlled copy) and `communicate` (one classical bit channel use
per bit) book what is consumed.  The checked claims `claim` (one quantum
resource per Bob qubit) and `claim_cbits` book what is produced, for each
state whose claimed fidelity reaches PROTOCOL_FIDELITY, the one claim bar.
Whether a run passes is judged in one place, `verify_all`'s row.  An ebit is
a cobit on |+>: `_copies` builds the target of both.  A ledger never stores
a zero count.
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
from .derivation import COBIT_EBIT, PRIMITIVES, coherent
from .rng import SplitMix64

PROTOCOL_FIDELITY = 1.0 - 1e-10
SIGNALLING_TOL = 1e-12  # on max|rho_B - I/2| of Bob's qubit before teleportation's measurement
WORST_CASE_TIE = 1e-12  # a fidelity this close to a row's lowest can be its `worst_case`
VERIFY_CHUNK = 1024  # drawn inputs per batch of a row of verify_all
_COHERENT_SD, _COHERENT_TP = coherent(PRIMITIVES["sd"]), coherent(PRIMITIVES["tp"])  # each keeps `_wanted_counts`


class Party(Enum):
    ALICE = "alice"
    BOB = "bob"

    __hash__ = object.__hash__  # members are singletons; Enum's hash runs in Python


class LocalityError(ValueError):
    """A gate spanning parties outside the declared resources."""


def _by_kind(counts) -> dict:
    return {k.token: n for k, n in sorted(counts.items(), key=lambda kv: kv[0].sort_key)}


def _wanted_counts(ri: ResourceInequality) -> tuple[dict, dict]:
    """The (consumed, produced) counts of a ledger matching `ri` at coefficient
    1, computed on the first call and kept on `ri`."""
    return ri._kept("_wanted_counts", lambda: tuple(
        {kind: int(coeff.as_constant()) for kind, coeff in side.terms} for side in (ri.lhs, ri.rhs)))


@dataclass
class Ledger:
    """Whole-protocol resource counts (noiseless kinds only), in plain dicts:
    a register copies one ledger per state at every measurement branch."""

    consumed: dict = field(default_factory=dict)
    produced: dict = field(default_factory=dict)

    def consume(self, kind: ResourceKind, n: int = 1):
        if n:
            self.consumed[kind] = self.consumed.get(kind, 0) + n

    def produce(self, kind: ResourceKind, n: int = 1):
        if n:
            self.produced[kind] = self.produced.get(kind, 0) + n

    def matches(self, ri: ResourceInequality) -> bool:
        """Exact integer match against an inequality at coefficient 1."""
        return (self.consumed, self.produced) == _wanted_counts(ri)

    def copy(self) -> "Ledger":
        return Ledger(dict(self.consumed), dict(self.produced))

    def net(self) -> dict[ResourceKind, int]:
        kinds = set(self.consumed) | set(self.produced)
        return {k: self.produced.get(k, 0) - self.consumed.get(k, 0) for k in kinds}

    def as_json(self) -> dict:
        return {"consumed": _by_kind(self.consumed), "produced": _by_kind(self.produced)}


def _copies(message) -> np.ndarray:
    """sum_x c_x |x>|x> for message amplitudes c, one row or one per state:
    the target of cobits, and at c = 1 of k ebits, ordered (a_1..a_k, b_1..b_k)."""
    c = np.atleast_2d(message)
    return (c[:, :, None] * np.eye(c.shape[1])).reshape(len(c), -1)


def _min_overlap(states: np.ndarray) -> float:
    """min |<s|t>| / (|s| |t|) over all pairs of the states, one per row,
    from their Gram matrix, each entry squared as re^2 + im^2: exact on
    amplitudes that are small integers times powers of two."""
    gram = states.conj() @ states.T
    norms = gram.diagonal().real
    return float(((gram * gram.conj()).real / np.outer(norms, norms)).min()) ** 0.5


def _norms(amps: np.ndarray) -> np.ndarray:
    """|psi|^2 of each row."""
    return np.vecdot(amps, amps).real


def _scaled(amplitudes) -> np.ndarray:
    """Finite rows of amplitudes, not all zero, each times the power of two
    that puts its largest real or imaginary part in [1/2, 1): exact, and no
    row's |psi|^2 overflows or underflows.  Each row constant is scaled once."""
    if id(amplitudes) in _FIXED_ROWS:
        return _FIXED_ROWS[id(amplitudes)][1]
    parts = np.array(amplitudes, dtype=complex, ndmin=2, order="C").view(float)
    top = np.abs(parts).max(axis=1)  # NaN where a part is NaN
    if not all(0 < x < np.inf for x in top.tolist()):
        raise ValueError("a state needs finite amplitudes, not all zero")
    return np.ldexp(parts, -np.frexp(top)[1][:, None]).view(complex)


def _constant(value) -> np.ndarray:
    """A complex array that refuses writes, for a module constant."""
    array = np.array(value, dtype=complex)
    array.flags.writeable = False
    return array


_H, _X, _Z = _constant([[1, 1], [1, -1]]), _constant([[0, 1], [1, 0]]), _constant([[1, 0], [0, -1]])
PLUS, BELL, _KET0 = _constant([1, 1]), _constant([1, 0, 0, 1]), _constant([1, 0])
_FIXED_ROWS: dict = {}  # id(row constant) -> (the constant, its `_scaled` rows, read-only)
_FIXED_ROWS.update({id(row): (row, _constant(_scaled(row))) for row in (PLUS, BELL, _KET0)})


def _kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker products of two batches of vectors; a batch of one
    broadcasts against the other."""
    out = a[:, :, None] * b[:, None, :]
    return out.reshape(len(out), -1)


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
    """A batch of `batch` pure states over the same owned qubits.

    `amps` has shape (batch, 2^n), row b holding state b unscaled, and
    `ledgers[b]` books its resources.  `known[party]` maps the names of the
    classical bits that party holds to their values, shared by the batch.  A
    claim books its resource for each state whose fidelity reaches
    PROTOCOL_FIDELITY.
    """

    def __init__(self, batch: int = 1):
        self.amps = np.ones((batch, 1), dtype=complex)
        self.owners: list[Party] = []
        self.known: dict[Party, dict[str, int]] = {Party.ALICE: {}, Party.BOB: {}}
        self.ledgers = [Ledger() for _ in range(batch)]

    @property
    def n(self) -> int:
        return len(self.owners)

    def _fork(self, amps: np.ndarray) -> "Register":
        """A register with `amps` and copies of this one's owners, bits and ledgers."""
        dup = Register(0)
        dup.amps = amps
        dup.owners = list(self.owners)
        dup.known = {party: dict(bits) for party, bits in self.known.items()}
        dup.ledgers = [ledger.copy() for ledger in self.ledgers]
        return dup

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

    def _consume(self, kind: ResourceKind, n: int = 1):
        for ledger in self.ledgers:
            ledger.consume(kind, n)

    def add_qubit(self, owner: Party, amplitudes=_KET0):
        """Fresh qubits of one party in a joint state of 2^k amplitudes, one
        row for the whole batch or one per state, `_scaled`: the new qubit's
        index, or a tuple of the k new indices."""
        q = _scaled(amplitudes)
        if len(q) not in (1, len(self.amps)):
            raise ValueError(f"{len(q)} states for a batch of {len(self.amps)}")
        k = q.shape[1].bit_length() - 1
        self.amps = _kron_rows(self.amps, q)
        self.owners.extend([owner] * k)
        new = tuple(range(self.n - k, self.n))
        return new[0] if k == 1 else new

    def share_ebit(self) -> tuple[int, int]:
        """Preshared EPR pair: one half each.  Books one ebit consumed."""
        a_half, b_half = self.add_qubit(Party.ALICE, BELL)
        self.owners[b_half] = Party.BOB
        self._consume(EBIT)
        return a_half, b_half

    def send(self, qubit: int, to: Party):
        """Transfer a qubit through the noiseless channel (one use booked)."""
        if self.owners[qubit] is to:
            raise LocalityError(f"qubit {qubit} already belongs to {to.value}")
        self._consume(QUBIT_CHANNEL)
        self.owners[qubit] = to

    def cobit(self, source: int) -> int:
        """Controlled copy |x>^A -> |x>^A |x>^B onto a fresh Bob qubit."""
        self._require_owner(source, Party.ALICE)
        target = self.add_qubit(Party.BOB)
        self._cnot_unchecked(source, target)
        self._consume(COBIT)
        return target

    def communicate(self, bits, to: Party):
        """Send classical bits the other party holds to `to`: one [c->c] each."""
        sender = self.known[Party.BOB if to is Party.ALICE else Party.ALICE]
        for bit in bits:
            if bit not in sender:
                raise LocalityError(f"bit {bit!r} is not held by the sender")
            self.known[to][bit] = sender[bit]
        self._consume(CBIT, len(bits))

    # -- local gates ---------------------------------------------------------

    def apply_single(self, gate: np.ndarray, qubit: int):
        """`gate`, the module's `_H`, `_X` or `_Z` (checked by identity: any
        other matrix is refused before the amplitudes change), on `qubit` of
        every state: one batched matmul with the qubit as the middle axis."""
        if not (gate is _H or gate is _X or gate is _Z):
            raise ValueError(f"a one-qubit gate must be the lab's H, X or Z, got {gate!r}")
        batch = len(self.amps)
        self.amps = (gate @ self.amps.reshape(batch << qubit, 2, -1)).reshape(batch, -1)

    def apply_if(self, control, gate: np.ndarray, qubit: int):
        """`gate`, the lab's X or Z, on `qubit` if `control` is 1: a bit the
        qubit's owner holds, or a qubit of the owner, making X a CNOT and Z a CZ."""
        if not isinstance(control, str):
            return (self.cnot if gate is _X else self.cz)(control, qubit)
        held = self.known[self.owners[qubit]]
        if control not in held:
            raise LocalityError(f"{self.owners[qubit].name.title()} does not hold bit {control!r}")
        if held[control]:
            self.apply_single(gate, qubit)

    def h(self, qubit: int):
        self.apply_single(_H, qubit)

    def _cnot_unchecked(self, control: int, target: int):
        self.amps = self.amps[:, _two_qubit_tables(self.n, control, target)[0]]

    def cnot(self, control: int, target: int):
        self._require_one_party((control, target))
        self._cnot_unchecked(control, target)

    def cz(self, control: int, target: int):
        self._require_one_party((control, target))
        self.amps = self.amps * _two_qubit_tables(self.n, control, target)[1]

    # -- measurement (branch enumeration) and inspection ---------------------

    def measure(self, qubits: list[int]) -> list["Branch"]:
        """All outcome branches, each a new register, pure and unscaled, in
        which the measured qubits have collapsed; this one stays as it was.  The
        outcome of qubit q is the classical bit "m<q>", held by the measuring
        party and shared by the batch, so an outcome is a branch only when its
        probability is nonzero for every state, and a ValueError is raised
        when the states' supports differ."""
        self._require_one_party(tuple(qubits))
        party = self.owners[qubits[0]]
        names = tuple(f"m{q}" for q in qubits)
        cut = _cut(self.n, tuple(qubits))
        rows = self.amps[:, cut]
        probabilities = _norms(rows) / _norms(self.amps)[:, None]
        support = probabilities > 0
        if (support != support[0]).any():
            raise ValueError(f"the outcomes of qubits {list(qubits)} with nonzero probability "
                             f"differ across the batch")
        branches = []
        for row, outcome in enumerate(itertools.product((0, 1), repeat=len(qubits))):
            if not support[0, row]:
                continue
            amps = np.zeros_like(self.amps)
            amps[:, cut[row]] = rows[:, row]
            register = self._fork(amps)
            register.known[party].update(zip(names, outcome))
            branches.append(Branch(outcome, probabilities[:, row], register, names))
        return branches

    def reduced_dm(self, qubits: list[int]) -> np.ndarray:
        """Reduced density matrices M M^dag / |psi|^2 on the listed qubits, in
        the listed order: shape (batch, 2^k, 2^k), each of trace 1."""
        m = self.amps[:, _cut(self.n, tuple(qubits))]
        return m @ m.conj().transpose(0, 2, 1) / _norms(self.amps)[:, None, None]

    def fidelity(self, qubits: list[int], target) -> np.ndarray:
        """<t| rho |t> / <t|t> = |t^dag M|^2 / (|t|^2 |psi|^2) per state, for
        rho the `reduced_dm` of `qubits`, in that order, and the target
        `_scaled` amplitudes t: one row for the whole batch or one per state."""
        t = _scaled(target)
        overlap = (t.conj()[:, None, :] @ self.amps[:, _cut(self.n, tuple(qubits))])[:, 0]
        return _norms(overlap) / (_norms(t) * _norms(self.amps))

    # -- checked claims: the only way to book a produced resource -------------

    def _claim(self, kind: ResourceKind, n: int, fidelity: np.ndarray) -> np.ndarray:
        for ledger, value in zip(self.ledgers, fidelity):
            if value >= PROTOCOL_FIDELITY:
                ledger.produce(kind, n)
        return fidelity

    def claim(self, kind: ResourceKind, alice, bob, target) -> np.ndarray:
        """Alice's qubits `alice`, then Bob's qubits `bob`, hold `target`, one
        row or one per state: one `kind` produced per Bob qubit."""
        for q, party in zip([*alice, *bob], [Party.ALICE] * len(alice) + [Party.BOB] * len(bob)):
            self._require_owner(q, party)
        return self._claim(kind, len(bob), self.fidelity([*alice, *bob], target))

    def claim_cbits(self, bits, sent) -> np.ndarray:
        """Bob holds `bits` and they read `sent`: one [c->c] produced each."""
        got = tuple(self.known[Party.BOB].get(bit) for bit in bits)
        return self._claim(CBIT, len(bits), np.full(len(self.amps), float(got == tuple(sent))))


@dataclass
class Branch:
    outcome: tuple[int, ...]
    probability: np.ndarray  # one per state of the batch
    register: Register
    bits: tuple  # a fix-up's controls: the outcome bits' names, or (told coherently) Bob's copy qubits


# ---------------------------------------------------------------------------
# Protocols and rule demonstrations
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """One run of a protocol or a demonstration.

    `ledgers` holds the ledger of every final branch, `fidelities` every
    state comparison the run made (claims included), `holds` whether its
    exact side conditions held, `report` the keys it adds to its entry in
    `verify_all`, and `values` what else it measured.  A run carries no bar:
    `verify_all` judges it.
    """

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


def _runs(registers: list[Register], fidelities: dict, values: dict, holds=True) -> list[Run]:
    """One Run per state of a batch: state b's ledger in each final register
    (one per branch), and entry b of every array in `fidelities`, `holds`
    and `values`."""
    batch = len(registers[0].ledgers)
    fidelities = {key: f.tolist() for key, f in fidelities.items()}
    holds = np.broadcast_to(holds, (batch,)).tolist()
    return [Run([reg.ledgers[b] for reg in registers],
                {key: f[b] for key, f in fidelities.items()}, holds[b],
                values={key: v[b] for key, v in values.items()})
            for b in range(batch)]


def _fix_up(reg: Register, target: int, z, x):
    """Z^z X^x on `target`, conditioned on bits or qubits of its owner (`apply_if`)."""
    reg.apply_if(x, _X, target)
    reg.apply_if(z, _Z, target)


def _teleportation(inputs: np.ndarray, coherently: bool) -> list[Run]:
    """Teleport each row of `inputs`, one Run each: share an ebit, CNOT and H
    on Alice's (msg, a_half), tell Bob both, fix up his half and claim it.
    Classically every outcome branch must hand Bob the input state, and his
    state before the measurement must be maximally mixed (no signalling);
    `values` keeps each branch's outcome probability and Bob's corrected
    state, in the order of `fidelities`.  Coherently his corrections also
    leave each (message bit, copy) pair in an EPR state, which is claimed:
    entanglement out for free, modulo the one catalytic ebit."""
    reg = Register(len(inputs))
    msg = reg.add_qubit(Party.ALICE, inputs)
    a_half, b_half = reg.share_ebit()
    reg.cnot(msg, a_half)
    reg.h(msg)
    if coherently:  # Alice tells Bob (msg, a_half) by one cobit each: one branch, his copies its bits
        branches = [Branch((), np.ones(len(inputs)), reg, copies := (reg.cobit(msg), reg.cobit(a_half)))]
    else:  # she measures them and sends him the outcome bits: one branch per outcome
        branches = reg.measure([msg, a_half])
        for branch in branches:
            branch.register.communicate(branch.bits, Party.BOB)
    for branch in branches:
        _fix_up(branch.register, b_half, *branch.bits)
    fidelities = {b.outcome: b.register.claim(QUBIT_CHANNEL, (), (b_half,), inputs) for b in branches}
    if coherently:
        pairs = _copies(np.ones(4))  # Phi_+ on msg and its copy, and on a_half and its copy
        fidelities = {"output": fidelities[()], "residual": reg.claim(EBIT, (msg, a_half), copies, pairs),
                      "total": reg.fidelity([msg, a_half, *copies, b_half], _kron_rows(pairs, inputs))}
        return _runs([reg], fidelities, {"final_state": reg.amps})
    premeasurement = reg.reduced_dm([b_half])  # measuring forked the branches and left `reg` as it was
    signalling = np.max(np.abs(premeasurement - np.eye(2) / 2), axis=(1, 2))
    # msg and a_half have collapsed to |z>|x> on the branch of outcome (z, x)
    bob_states = [b.register.amps.reshape(-1, 2, 2, 2)[:, b.outcome[0], b.outcome[1]] for b in branches]
    values = {"bob_premeasurement_dm": premeasurement, "bob_states": np.stack(bob_states, axis=1),
              "outcome_probabilities": np.stack([b.probability for b in branches], axis=1)}
    return _runs([b.register for b in branches], fidelities, values, holds=signalling <= SIGNALLING_TOL)


def run_teleportation(input_amplitudes=(1.0, 0.0)) -> list[Run]:
    """Teleport each row of `input_amplitudes`: Bell measurement, two bits, Pauli fixup."""
    return _teleportation(np.atleast_2d(input_amplitudes), coherently=False)


def run_coherent_teleportation(input_amplitudes=(1.0, 0.0)) -> list[Run]:
    """Teleport each row of `input_amplitudes` through two cobits: controlled Pauli fixup."""
    return _teleportation(np.atleast_2d(input_amplitudes), coherently=True)


def _superdense(message, coherently: bool) -> list[Run]:
    """Send Alice's two bits (z, x), one Run per row of `message`, with one
    qubit use and one ebit: she applies Z^z X^x to her half and sends it, and
    Bob rotates his pair from the Bell basis to the computational basis.
    Coherently (z, x) are qubits (m0, m1), in the state of the row, that stay
    with Alice, and Bob's pair (a, b) is claimed as their two cobits.
    Classically they are the one row's bits, and Bob's measurement must read
    them back in every branch (it is deterministic: one branch survives).
    After his claim he undoes his decoding and applies Z^z X^x to his own
    half; `values["residual"]` keeps the state this leaves on each branch,
    and `values["bell"]` its |Phi_+> fidelity."""
    reg = Register(len(message))
    if coherently:
        z, x = reg.add_qubit(Party.ALICE, message)
    else:
        z, x = "z", "x"
        reg.known[Party.ALICE].update(z=message[0][0], x=message[0][1])
    a_half, b_half = reg.share_ebit()
    _fix_up(reg, a_half, z, x)
    reg.send(a_half, Party.BOB)
    reg.cnot(a_half, b_half)
    reg.h(a_half)
    if coherently:
        fidelities = {"cobits": reg.claim(COBIT, (z, x), (a_half, b_half), _copies(message))}
        return _runs([reg], fidelities, {"final_state": reg.amps})
    branches = reg.measure([a_half, b_half])
    fidelities = {b.outcome: b.register.claim_cbits(b.bits, message[0]) for b in branches}
    for branch in branches:
        branch.register.h(a_half)
        branch.register.cnot(a_half, b_half)
        _fix_up(branch.register, b_half, *branch.bits)
    decoded = branches[0].outcome if len(branches) == 1 else None
    residual = np.stack([b.register.amps for b in branches], axis=1)
    bell = np.stack([b.register.fidelity([a_half, b_half], BELL) for b in branches], axis=1)
    return _runs([b.register for b in branches], fidelities,
                 {"decoded": [decoded], "residual": residual, "bell": bell})


def run_superdense(bits: tuple[int, int]) -> Run:
    """Super-dense coding of Alice's two input bits (z, x)."""
    return _superdense([bits], coherently=False)[0]


def run_coherent_superdense(message=(0.0, 0.0, 1.0, 0.0)) -> list[Run]:
    """Super-dense coding of each row of `message`, a two-qubit state, into two cobits."""
    return _superdense(np.atleast_2d(message), coherently=True)


def run_entanglement_distribution() -> Run:
    """Make an EPR pair locally and send half: one channel use buys one ebit."""
    reg = Register()
    q0, q1 = reg.add_qubit(Party.ALICE, (1.0, 0.0, 0.0, 0.0))
    reg.h(q0)
    reg.cnot(q0, q1)
    reg.send(q1, Party.BOB)
    fidelities = {"ebit": reg.claim(EBIT, (q0,), (q1,), BELL)}
    return _runs([reg], fidelities, {"final_state": reg.amps})[0]


def run_cobit_checks() -> Run:
    """The defining isometry on basis states, plus entanglement creation on
    |+>, as one batch of three; the ledger and `values["final_state"]` are
    those of the |+> run."""
    inputs = np.array([(1.0, 0.0), (0.0, 1.0), PLUS])
    reg = Register(3)
    src = reg.add_qubit(Party.ALICE, inputs)
    copy = reg.cobit(src)
    basis = reg.fidelity([src, copy], _copies(inputs))
    fidelities = {f"basis {v}": float(basis[v]) for v in (0, 1)}
    fidelities["plus"] = float(reg.claim(EBIT, (src,), (copy,), BELL)[2])
    return Run([reg.ledgers[2]], fidelities, values={"final_state": reg.amps[2]})


def verify_cobit_equivalence(forward: Run, reverse: Run) -> Run:
    """Two cobits and a qubit-plus-ebit simulate each other with the one
    ebit catalyst conserved: composing the ledgers of `forward`, a coherent
    super-dense run, and `reverse`, a coherent teleportation run, nets to 0."""
    net = Counter()
    for run in (forward, reverse):
        net.update(run.ledger.net())
    holds = (forward.ledger.matches(_COHERENT_SD) and reverse.ledger.matches(_COHERENT_TP)
             and all(v == 0 for v in net.values()))
    return Run([], {"forward": forward.fidelity, "reverse": reverse.fidelity}, holds,
               report={"ledger": {"forward": forward.ledger.as_json(),
                                  "reverse": reverse.ledger.as_json(), "net": _by_kind(net)}})


def demo_rule_I_on_teleportation(teleported: Run, coherent: Run) -> Run:
    """Teleportation meets the input-coherentification conditions exactly:
    the Bell outcome is uniform on four values, and after Bob's correction
    his system is the same state on every branch, so replacing the
    measurement with cobits leaves (sum_x 1/2 |x>|x>) tensor the payload.
    `teleported` and `coherent` are the plain and coherent runs of one fixed
    input, whose outcome probabilities are exact: each must be 1/4."""
    probabilities = dict(zip(teleported.fidelities, teleported.values["outcome_probabilities"].tolist()))
    overlap = _min_overlap(teleported.values["bob_states"])
    uniform = len(probabilities) == 4 and all(p == 0.25 for p in probabilities.values())
    reported = {f"{z}{x}": p for (z, x), p in sorted(probabilities.items())}
    return Run([], {"coherent": coherent.fidelity, "overlap": overlap}, uniform,
               report={"outcome_probabilities": reported, "min_pairwise_overlap": overlap})


def demo_rule_O_on_superdense(sent: list[Run], coherent: list[Run]) -> Run:
    """Super-dense coding decouples its message from the quantum system:
    Bob reads (z, x) without disturbing the state, so undoing his decoding
    and applying Z^z X^x to his own half returns |Phi_+> whatever the
    message, and the controlled-encoding version runs with no measurement
    at all.  `sent` and `coherent` hold the plain and coherent runs of the
    messages (z, x) in lexicographic order; `fidelities[(z, x)]` is the
    residual |Phi_+> fidelity."""
    pairs = list(zip(itertools.product((0, 1), repeat=2), sent, coherent, strict=True))
    fidelities = {bits: float(run.values["bell"].min()) for bits, run, _ in pairs}
    decoded = all(run.values["decoded"] == bits for bits, run, _ in pairs)
    residual = min(fidelities.values())
    fidelities["overlap"] = _min_overlap(np.concatenate([run.values["residual"] for run in sent]))
    fidelities["coherent"] = min(run.fidelity for run in coherent)
    return Run([], fidelities, holds=decoded,
               report={"min_residual_bell_fidelity": residual,
                       "min_pairwise_residual_overlap": fidelities["overlap"]})


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------


def verify_all(trials: int = 50, seed: int = 0) -> dict:
    """Run the seven protocols plus the two rule demonstrations.

    Each entry is added from its row: (report section, name, target
    inequality or None, batches of runs).  The random inputs of a row are
    drawn and run in batches of at most VERIFY_CHUNK, the first batch led by
    the row's fixed inputs, one Run per input, so memory does not grow with
    `trials`; the last three entries read runs of the first batches before
    them.  The pass rule, judged here alone: every run holds, the ledger of
    every branch matches the row's target if it has one, and every fidelity
    reaches the row's bar, PROTOCOL_FIDELITY if the row draws inputs, else
    exactly 1.  Each entry also states its number of runs (`cases`), the
    input index of its lowest-fidelity run (`worst_case`; the first within
    WORST_CASE_TIE of the lowest, so float noise cannot move it) and that
    fidelity minus the row's bar (`margin`).  Returns a JSON-ready report;
    overall `pass` is True only if every entry passed.
    """
    rng = SplitMix64(seed)
    protocol, demo = "protocols", "rule_demos"
    report: dict = {protocol: [], demo: []}

    def drawn(runner, fixed, dim, count):
        """`runner` on the fixed inputs and `count` drawn ones, in batches
        of VERIFY_CHUNK draws, each drawn when its batch runs."""
        for start in range(0, max(count, 1), VERIFY_CHUNK):
            inputs = rng.complex_matrix(min(count - start, VERIFY_CHUNK), dim)
            yield runner(np.vstack([np.asarray(fixed, dtype=complex), inputs]) if start == 0 else inputs)

    def row(section, name, target, batches) -> list[Run]:
        """Add the row's entry to the report; its first batch of runs.  A
        row of fixed runs is a list, and `drawn` yields a row's batches."""
        bar = 1.0 if isinstance(batches, list) else PROTOCOL_FIDELITY
        wanted = None if target is None else _wanted_counts(target)
        fidelities, passed, first = [], True, None
        for runs in batches:
            first = runs if first is None else first
            fidelities += [run.fidelity for run in runs]
            passed &= all(run.holds and run.fidelity >= bar and (wanted is None or all(
                (ledger.consumed, ledger.produced) == wanted for ledger in run.ledgers)) for run in runs)
            del runs  # the next batch runs without this one (the first stays in `first`)
        low = min(fidelities)
        worst = next(i for i, fidelity in enumerate(fidelities) if fidelity - low <= WORST_CASE_TIE)
        entry = {"name": name, "fidelity": low}
        if first[0].ledgers:
            entry["ledger"] = first[0].ledger.as_json()
        report[section].append({**entry, **first[0].report, "pass": passed, "cases": len(fidelities),
                                "worst_case": worst, "margin": low - bar})
        return first

    teleported = row(protocol, "teleportation", PRIMITIVES["tp"],
                     drawn(run_teleportation, [(1.0, 0.0), PLUS], 2, trials))[1]
    sent = row(protocol, "superdense", PRIMITIVES["sd"],
               [[run_superdense(bits) for bits in itertools.product((0, 1), repeat=2)]])
    row(protocol, "entanglement_distribution", PRIMITIVES["qe"], [[run_entanglement_distribution()]])
    row(protocol, "cobit", COBIT_EBIT, [[run_cobit_checks()]])
    coherent_sd = row(protocol, "coherent_superdense", _COHERENT_SD,
                      drawn(run_coherent_superdense, [*np.eye(4), np.full(4, 0.5)], 4, 1))
    reverse = row(protocol, "coherent_teleportation", _COHERENT_TP,
                  drawn(run_coherent_teleportation, [(0.0, 1.0), PLUS], 2, trials))[1]
    # No target on the last three: the equivalence run matches its two runs
    # against the coherent rows' targets itself, and the rule demos book no ledger.
    row(protocol, "cobit_equivalence", None, [[verify_cobit_equivalence(coherent_sd[4], reverse)]])
    row(demo, "rule_I_on_teleportation", None, [[demo_rule_I_on_teleportation(teleported, reverse)]])
    row(demo, "rule_O_on_superdense", None, [[demo_rule_O_on_superdense(sent, coherent_sd[:4])]])
    report["pass"] = all(entry["pass"] for entry in [*report[protocol], *report[demo]])
    return report
