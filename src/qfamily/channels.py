"""Concrete channel families, the named-object registry, and numeric rate
reporting for resource inequalities.

Families (all on one qubit in): erasure (output qubit + flag, d_out=3),
depolarizing, dephasing (off-diagonals scaled by 1-p), amplitude_damping,
identity.  Rates are always evaluated on the tripartite pure state built
from the object: a purification for states, the dilated channel output on
half of a maximally entangled input for channels.

`CHANNEL_FAMILIES` is the one family table: it maps each family's name to
its kernel, from a vector of parameters to a stack of Kraus operators.
`sweep` runs a kernel on SWEEP_CHUNK points at a time, and `family_channel`,
the one builder of a family's channel, on one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .algebra import (
    H_A, H_B, H_E, I_AB, I_AE, I_COH, Record, ResourceInequality, ResourceTag, ResourceVector,
)
from .entropy import (
    DensityOp,
    QuantumChannel,
    TripartitePureState,
    ValidationError,
    channel_entropy_triples,
    channel_state,
    entropy_triple,
    purify,
    reduced,
)

# A computed number with |x| below this is rounding noise: `_floored` makes it
# 0.0, in a sweep and in a rate table, and a floored rate >= 0 is achievable.
NOISE_FLOOR = 1e-12

_QUBIT_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _floored(x: float) -> float:
    """x, or 0.0 (never -0.0) when |x| is below NOISE_FLOOR."""
    return x if abs(x) >= NOISE_FLOOR else 0.0


# Each family kernel maps a vector of B parameters to the unvalidated Kraus
# stack (B, K, d_out, d_in) of the family's channel at each.


def _check_parameters(family: str, params: np.ndarray) -> None:
    """Each family's parameter is a probability; NaN fails the test too.  The
    first point outside [0, 1] is named."""
    outside = ~((0.0 <= params) & (params <= 1.0))
    if outside.any():
        first = float(params[outside.argmax()])
        raise ValidationError(f"{family} parameter {first} outside [0, 1]")


def _pauli_mixture(weights: dict[str, np.ndarray]) -> np.ndarray:
    """Kraus stack of rho -> sum_P w_P P rho P over the named Paulis."""
    roots = np.sqrt(np.stack(list(weights.values()), axis=1))
    paulis = np.stack([_QUBIT_PAULI[name] for name in weights])
    return roots[:, :, np.newaxis, np.newaxis] * paulis


def _identity_kraus(p: np.ndarray) -> np.ndarray:
    """The qubit identity channel; its parameter is checked and unused."""
    _check_parameters("identity", p)
    kraus = np.zeros((p.size, 1, 2, 2), dtype=complex)
    kraus[:, 0] = _QUBIT_PAULI["I"]
    return kraus


def _erasure_kraus(p: np.ndarray) -> np.ndarray:
    """With probability p the qubit is replaced by a flag state |2>."""
    _check_parameters("erasure", p)
    kraus = np.zeros((p.size, 3, 3, 2), dtype=complex)
    kraus[:, 0, 0, 0] = kraus[:, 0, 1, 1] = np.sqrt(1.0 - p)
    kraus[:, 1, 2, 0] = kraus[:, 2, 2, 1] = np.sqrt(p)
    return kraus


def _depolarizing_kraus(p: np.ndarray) -> np.ndarray:
    """rho -> (1-p) rho + p I/2 (fully depolarizing at p=1)."""
    _check_parameters("depolarizing", p)
    return _pauli_mixture({"I": 1.0 - 3.0 * p / 4.0, "X": p / 4.0, "Y": p / 4.0, "Z": p / 4.0})


def _dephasing_kraus(p: np.ndarray) -> np.ndarray:
    """Off-diagonal terms scaled by 1-p (complete dephasing at p=1)."""
    _check_parameters("dephasing", p)
    return _pauli_mixture({"I": 1.0 - p / 2.0, "Z": p / 2.0})


def _amplitude_damping_kraus(p: np.ndarray) -> np.ndarray:
    _check_parameters("amplitude damping", p)
    kraus = np.zeros((p.size, 2, 2, 2), dtype=complex)
    kraus[:, 0, 0, 0] = 1.0
    kraus[:, 0, 1, 1] = np.sqrt(1.0 - p)
    kraus[:, 1, 0, 1] = np.sqrt(p)
    return kraus


CHANNEL_FAMILIES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": _identity_kraus,
    "erasure": _erasure_kraus,
    "depolarizing": _depolarizing_kraus,
    "dephasing": _dephasing_kraus,
    "amplitude_damping": _amplitude_damping_kraus,
}


def _family_kraus(name: str) -> Callable[[np.ndarray], np.ndarray]:
    if name not in CHANNEL_FAMILIES:
        raise ValidationError(
            f"unknown channel family {name!r}; known: {sorted(CHANNEL_FAMILIES)}"
        )
    return CHANNEL_FAMILIES[name]


def family_channel(name: str, p: float = 0.0) -> QuantumChannel:
    """The family's channel at one parameter: its kernel with B = 1."""
    return QuantumChannel(tuple(_family_kraus(name)(np.array([p], dtype=float))[0]))


# ---------------------------------------------------------------------------
# Registered objects (named states and channels)
# ---------------------------------------------------------------------------


class RegisteredState(Record):
    _fields = ("name", "rho", "split")
    kind = "state"

    def __init__(self, name: str, rho: DensityOp, split: tuple[int, int]):
        vars(self).update(name=name, rho=rho, split=split)

    def tripartite(self) -> TripartitePureState:
        """Its purification, built on the first call and kept."""
        return self._kept("_tripartite", lambda: purify(self.rho, self.split))


class RegisteredChannel(Record):
    _fields = ("name", "channel")
    kind = "channel"

    def __init__(self, name: str, channel: QuantumChannel):
        vars(self).update(name=name, channel=channel)

    def tripartite(self) -> TripartitePureState:
        """Its channel state, built on the first call and kept."""
        return self._kept("_tripartite", lambda: channel_state(self.channel))


RegisteredObject = RegisteredState | RegisteredChannel


def state_from_channel(name: str, channel: QuantumChannel) -> RegisteredState:
    """The bipartite state left by sending half of |Phi_+> through a channel."""
    psi = channel_state(channel)
    return RegisteredState(
        name, reduced(psi, "AB"), (psi.dims[0], psi.dims[1])
    )


def builtin_objects() -> dict[str, RegisteredObject]:
    """Example registry used by docs, the CLI and cross-layer checks."""
    objects: list[RegisteredObject] = [
        state_from_channel("bell", family_channel("identity")),
        state_from_channel("erasure_state_p25", family_channel("erasure", 0.25)),
        state_from_channel("depolarizing_state_p50", family_channel("depolarizing", 0.5)),
        RegisteredChannel("identity", family_channel("identity")),
        RegisteredChannel("erasure_p25", family_channel("erasure", 0.25)),
        RegisteredChannel("dephasing_p30", family_channel("dephasing", 0.3)),
        RegisteredChannel("amplitude_damping_p40", family_channel("amplitude_damping", 0.4)),
    ]
    return {obj.name: obj for obj in objects}


def _real(x) -> float:
    """A JSON number as a float: not a bool, and an int only if it fits."""
    if type(x) not in (int, float):
        raise TypeError
    return float(x)


def _complex_array(pairs: Sequence, count: int, what: str) -> np.ndarray:
    try:
        values = [complex(_real(re), _real(im)) for re, im in pairs]
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what}: data must be a list of [re, im] pairs of numbers "
                              f"that fit a float") from None
    if len(values) != count:
        raise ValidationError(f"{what}: expected {count} complex pairs, got {len(values)}")
    return np.array(values)


def load_registry(path) -> dict[str, RegisteredObject]:
    """Load named objects from JSON: a list (or single object) of entries
    {name, kind: "state"|"channel", dims, data} with data as row-major
    [re, im] pairs — the full density matrix for states (dims [dA, dB]),
    concatenated Kraus operators for channels (dims [d_in, d_out, n_kraus]).
    """
    import json

    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read registry {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"registry {path} is not valid JSON: {exc.msg} "
                              f"at line {exc.lineno} column {exc.colno}") from None
    except RecursionError:
        raise ValidationError(f"registry {path} nests too deeply to read") from None
    entries = raw if isinstance(raw, list) else [raw]
    registry: dict[str, RegisteredObject] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValidationError(f"registry entry {entry!r} is not an object")
        missing = [key for key in ("name", "kind", "dims", "data") if key not in entry]
        if missing:
            raise ValidationError(f"registry entry {entry.get('name')!r} lacks {', '.join(missing)}")
        name, kind, dims = entry["name"], entry["kind"], entry["dims"]
        if not isinstance(name, str):
            raise ValidationError(f"registry entry name {name!r} is not a string")
        if name in registry:
            raise ValidationError(f"registry {path} names {name!r} twice")
        if kind not in ("state", "channel"):
            raise ValidationError(f"entry {name!r} has unknown kind {kind!r}")
        arity = 2 if kind == "state" else 3
        if not (isinstance(dims, list) and len(dims) == arity
                and all(type(d) is int and d > 0 for d in dims)):
            raise ValidationError(f"entry {name!r}: dims must be {arity} positive integers, "
                                  f"got {dims!r}")
        if kind == "state":
            d_a, d_b = dims
            dim = d_a * d_b
            data = _complex_array(entry["data"], dim * dim, name)
            registry[name] = RegisteredState(name, DensityOp(data.reshape(dim, dim)), (d_a, d_b))
        else:
            d_in, d_out, n_kraus = dims
            data = _complex_array(entry["data"], d_in * d_out * n_kraus, name)
            kraus = tuple(data.reshape(n_kraus, d_out, d_in))
            registry[name] = RegisteredChannel(name, QuantumChannel(kraus))
    return registry


# ---------------------------------------------------------------------------
# Rate tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateEntry:
    kind_token: str
    rate: float | None       # evaluated coefficient for noiseless resources
    copies: int | None       # whole copies for noisy resources
    achievable: bool         # False for a noiseless rate below 0 after the floor

    def render(self) -> str:
        if self.copies is not None:
            noun = "copy" if self.copies == 1 else "copies"
            return f"{self.copies} {noun} of {self.kind_token}"
        note = "" if self.achievable else " (not achievable)"
        return f"{self.rate:.12g} {self.kind_token}{note}"


@dataclass(frozen=True)
class RateTable:
    ri_name: str
    mode: str
    object_name: str
    lhs: tuple[RateEntry, ...]
    rhs: tuple[RateEntry, ...]
    dims: tuple[int, int, int]             # (d_A, d_B, d_E) of the state used
    entropies: tuple[float, float, float]  # its (H(A), H(B), H(E)) in bits

    def render(self) -> str:
        lines = [f"{self.ri_name} [{self.mode}] on {self.object_name}"]
        lines.append("  inputs:  " + (" + ".join(e.render() for e in self.lhs) or "0"))
        lines.append("  outputs: " + (" + ".join(e.render() for e in self.rhs) or "0"))
        return "\n".join(lines)


def _side_entries(side: ResourceVector, obj: RegisteredObject,
                  entropies: tuple[float, float, float]) -> tuple[RateEntry, ...]:
    entries = []
    for kind, coeff in side.terms:
        if kind.is_noisy:
            wanted = "state" if kind.tag is ResourceTag.NOISY_STATE else "channel"
            if wanted != obj.kind:
                raise ValidationError(
                    f"{kind.token} needs a {wanted}, but {obj.name!r} is a {obj.kind}"
                )
            if kind.handle is not None and kind.handle != obj.name:
                raise ValidationError(
                    f"{kind.token} is pinned to {kind.handle!r}, got {obj.name!r}"
                )
            entries.append(RateEntry(kind.token, None, int(coeff.as_constant()), True))
        else:
            rate = _floored(coeff.value(*entropies))
            entries.append(RateEntry(kind.token, rate, None, rate >= 0))
    return tuple(entries)


def rate_table(ri: ResourceInequality, obj: RegisteredObject) -> RateTable:
    """Numeric instantiation of an inequality on a registered object."""
    psi = obj.tripartite()
    entropies = entropy_triple(psi)
    return RateTable(
        ri_name=ri.name,
        mode=ri.mode.value,
        object_name=f"{obj.kind} {obj.name}",
        lhs=_side_entries(ri.lhs, obj, entropies),
        rhs=_side_entries(ri.rhs, obj, entropies),
        dims=psi.dims,
        entropies=entropies,
    )


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_HEADER = ("param", "H_A", "H_B", "H_E", "I_AB", "I_AE", "Ic")

_SWEEP_EXPRS = (H_A, H_B, H_E, I_AB, I_AE, I_COH)

# Grid points per `sweep` call when a sweep is rendered: a 101-point grid is
# one chunk, and an endless one yields its first rows after this many.
SWEEP_CHUNK = 128


def sweep(family: str, params: Iterable[float | Fraction]) -> list[tuple[float, ...]]:
    """One row per parameter: the six standard quantities on the channel
    state with maximally entangled input.

    Each SWEEP_CHUNK points make one Kraus stack, validated once and
    diagonalised with one SVD per cut; `EntropicExpr.value` on the entropy
    columns does each row's float operations, in the same order.
    """
    kraus_of = _family_kraus(family)
    rows = []
    points = iter(params)
    while chunk := [float(p) for p in islice(points, SWEEP_CHUNK)]:
        h_a, h_b, h_e = channel_entropy_triples(kraus_of(np.array(chunk))).T
        values = (expr.value(h_a, h_b, h_e).tolist() for expr in _SWEEP_EXPRS)
        rows.extend(zip(chunk, *values))
    return rows


def sweep_csv_chunks(family: str, params: Iterable[float | Fraction]) -> Iterator[str]:
    """`sweep_csv` in pieces, one per SWEEP_CHUNK grid points, each yielded
    as soon as its rows are computed; the header comes with the first.

    The grid is read one chunk at a time, so a grid too long to hold in
    memory streams its rows.
    """
    lines = [",".join(SWEEP_HEADER)]
    points = iter(params)
    while True:
        chunk = list(islice(points, SWEEP_CHUNK))
        for param, *values in sweep(family, chunk):
            cells = (f"{_floored(v):.12g}" for v in values)
            lines.append(",".join((f"{param:.12g}", *cells)))
        if lines:
            yield "\n".join(lines) + "\n"
        if len(chunk) < SWEEP_CHUNK:
            return
        lines = []


def sweep_csv(family: str, params: Iterable[float | Fraction]) -> str:
    """CSV rendering with 12 significant digits, rows in grid order."""
    return "".join(sweep_csv_chunks(family, params))
