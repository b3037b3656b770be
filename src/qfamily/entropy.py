"""Numerical backend: purifications, channel states, von Neumann entropies,
and evaluation of entropic expressions on concrete tripartite pure states.
`TripartitePureState` is the one checked numeric record.  A density matrix
or a Kraus stack is checked once, by `purify` or `channel_state`, which
return its pure state; that check bounds the state's norm, so the state is
not checked again, and nothing derived from a state, such as a marginal,
is checked either.  A random tripartite state has normalised complex
Gaussian amplitudes with d_E = d_A d_B, a purification of the random mixed
state G G^dag / tr on A x B (which the tests draw as `random_density`).

The channel-state path runs on stacks with a leading batch axis: a Kraus
stack (B, K, d_out, d_in) is checked, turned into B channel states and
diagonalised with one SVD per cut (`channel_entropy_triples`).
`channel_state` and `entropy_triple` run the same kernels on a stack of one.

Conventions: all logarithms are base 2 (bits/ebits/qubits per copy);
eigenvalues below 1e-12 contribute 0 to entropies; amplitude layout of a
tripartite state is row-major over (A, B, E).
"""

from __future__ import annotations

import functools
import math
from typing import Mapping

import numpy as np

from .algebra import EntropicExpr, Record, canonicalize

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-10
EIGENVALUE_FLOOR = 1e-12


class ValidationError(ValueError):
    """A numeric object violating its defining invariants."""


def _check_density(m: np.ndarray) -> None:
    """Raise ValidationError unless m is a square matrix, Hermitian, of unit
    trace and PSD within tolerance.

    PSD is certified by one Cholesky factorisation of sym + PSD_TOL/2 * I
    (the shift added in place to a copy's diagonal).  Its success proves
    lambda_min(sym) > -PSD_TOL/2 - O(n eps) for a unit-trace matrix, so only
    when it fails is the spectrum computed, and the verdict is then eigvalsh's.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"density operator must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("density operator has NaN or infinite entries")
    adjoint = m.conj().T
    herm = np.abs(m - adjoint).max()
    if herm > HERMITIAN_TOL:
        raise ValidationError(f"not Hermitian: max|rho - rho^dag| = {herm:.3e} > {HERMITIAN_TOL}")
    tr = float(m.trace().real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"trace {tr!r} differs from 1 by more than {TRACE_TOL}")
    sym = (m + adjoint) / 2
    shifted = sym.copy()
    shifted.reshape(-1)[:: m.shape[0] + 1] += PSD_TOL / 2
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lo = float(np.linalg.eigvalsh(sym).min())
        if lo < -PSD_TOL:
            raise ValidationError(f"negative eigenvalue {lo:.3e} below -{PSD_TOL}") from None


class TripartitePureState(Record):
    """Unit vector on A x B x E with an explicit dimension split.

    The amplitudes are a read-only copy of the caller's array, so the state
    cannot change after it is checked, and what is computed from them is
    computed once: its entropy triple and its marginals' entropies.
    Compared and hashed by identity: its fields are arrays, which have no
    single truth value.  A copy (pickle, deepcopy) is built again by the
    constructor, so it is checked, its amplitudes are read-only and what it
    kept is empty.
    """

    _fields = ("dims", "amplitudes")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, dims: tuple[int, int, int], amplitudes: np.ndarray):
        if not (isinstance(dims, (tuple, list)) and len(dims) == 3
                and all(type(d) is int for d in dims)):
            raise ValidationError(f"dimensions must be three integers, got {dims!r}")
        dims = tuple(dims)
        if any(d < 1 for d in dims):
            raise ValidationError(f"dimensions must be positive, got {dims}")
        d_a, d_b, d_e = dims
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size != d_a * d_b * d_e:
            raise ValidationError(
                f"amplitude length {amps.size} does not match dims {dims}"
            )
        # a NaN or infinite entry makes the norm NaN or infinite
        with np.errstate(over="ignore", invalid="ignore"):
            norm = float(np.sqrt(np.vecdot(amps, amps).real))
        if not abs(norm - 1.0) <= NORM_TOL:
            if not np.isfinite(amps).all():
                raise ValidationError("amplitude vector has NaN or infinite entries")
            raise ValidationError(f"norm {norm!r} differs from 1 by more than {NORM_TOL}")
        _bounded(dims, amps, self)

    def __reduce__(self):
        return type(self), self._values()

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


def _bounded(dims: tuple[int, int, int], amps: np.ndarray, psi=None) -> TripartitePureState:
    """psi, by default a new state, holding `dims` and a read-only flat copy
    of the amplitudes `amps`, whose norm a check has bounded within NORM_TOL:
    the constructor's, or that of the object they were made from.  So
    `purify` and `channel_state` build their state here, as `algebra._built`
    builds a record, without the constructor's checks."""
    psi = object.__new__(TripartitePureState) if psi is None else psi
    amps = amps.flatten()
    amps.flags.writeable = False
    # entropy of each marginal evaluate_raw has formed, keyed by sorted names
    vars(psi).update(dims=dims, amplitudes=amps, _marginal_entropies={})
    return psi


def _check_channels(kraus: np.ndarray) -> None:
    """Raise ValidationError unless every member of the Kraus stack
    (B, K, d_out, d_in) is finite and trace preserving, naming the first
    member that is not as `channel_state` would on that member alone.

    sum_e K_e^dag K_e is U^dag U for the member's dilation U; a NaN or
    infinite entry makes its deviation from I NaN or infinite.
    """
    u = _dilations(kraus)
    with np.errstate(over="ignore", invalid="ignore"):
        devs = np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(kraus.shape[-1])).max(axis=(1, 2))
    ok = devs <= TRACE_TOL
    if not ok.all():
        first = ok.argmin()
        if not np.isfinite(kraus[first]).all():
            raise ValidationError("Kraus operator has NaN or infinite entries")
        raise ValidationError(
            f"not trace preserving: max|sum K^dag K - I| = {devs[first]:.3e} > {TRACE_TOL}"
        )


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def _bits(spectrum: np.ndarray) -> float:
    """-sum p log2 p over the weights above EIGENVALUE_FLOOR.

    One spectrum at a time: a masked sum over a stack of spectra would group
    numpy's pairwise summation differently for 8 or more weights.
    """
    kept = spectrum[spectrum > EIGENVALUE_FLOOR]
    return float(0.0 - np.add.reduce(kept * np.log2(kept)))  # 0.0, never -0.0


def purify(rho: np.ndarray, split: tuple[int, int]) -> TripartitePureState:
    """Purification of the density matrix rho on A x B, dims `split`, a
    tuple of two positive ints: |psi>^ABE with Tr_E psi = rho / tr rho.

    rho is checked once, by `_check_density`.  The environment dimension is
    the rank of rho (eigenvalues below 1e-12 dropped), so pure inputs get a
    one-dimensional environment.  eigh's eigenvectors are orthonormal and
    the kept eigenvalues are divided by their sum, so psi is a unit vector
    within rounding, and its norm is not checked again.
    """
    m = np.asarray(rho, dtype=complex)
    _check_density(m)
    d_a, d_b = split if type(split) is tuple and len(split) == 2 else (None, None)
    if not (type(d_a) is int and type(d_b) is int and d_a > 0 and d_a * d_b == m.shape[0]):
        raise ValidationError(f"split {split} does not factor dimension {m.shape[0]}")
    eigenvalues, vectors = np.linalg.eigh(m)
    # eigh sorts the eigenvalues ascending, so those kept are a suffix
    dropped = int(np.count_nonzero(eigenvalues <= EIGENVALUE_FLOOR))
    kept = eigenvalues[dropped:]
    amps = vectors[:, dropped:] * np.sqrt(kept / kept.sum())
    return _bounded((d_a, d_b, kept.size), amps)


def _dilations(kraus: np.ndarray) -> np.ndarray:
    """The Stinespring isometry U: d_in -> d_out * d_env of each member of a
    Kraus stack (B, K, d_out, d_in), with U[b*d_env + e, a] = K_e[b, a].
    Tracing out the environment recovers the Kraus action, and
    U^dag U = sum_e K_e^dag K_e."""
    n, d_env, d_out, d_in = kraus.shape
    return kraus.transpose(0, 2, 1, 3).reshape(n, d_out * d_env, d_in)


def channel_state(kraus: np.ndarray) -> TripartitePureState:
    """Send the A' half of |Phi_+>^AA' (maximally entangled, dim(A) = d_in)
    through the dilation of the channel of the Kraus stack (K, d_out, d_in):
    |psi>^ABE with dims (d_in, d_out, K).  The stack is checked once, as a
    stack of one, and that check bounds the state's norm (see
    `channel_entropy_triples`)."""
    stack = np.asarray(kraus, dtype=complex)[np.newaxis]
    if stack.ndim != 4 or not stack.size:
        raise ValidationError(f"a Kraus stack must be a nonempty (K, d_out, d_in) array, "
                              f"got shape {stack.shape[1:]}")
    _check_channels(stack)
    amplitudes = _channel_amplitudes(stack)[0]
    return _bounded(amplitudes.shape, amplitudes)


def _channel_amplitudes(kraus: np.ndarray) -> np.ndarray:
    """The unvalidated amplitudes (B, d_in, d_out, d_env) of `channel_state`
    for each member of a Kraus stack (B, K, d_out, d_in)."""
    n, d_env, d_out, d_in = kraus.shape
    phi = maximally_entangled(d_in).reshape(d_in, d_in)
    psi = (_dilations(kraus) @ phi.T).swapaxes(1, 2)  # (B, d_in, d_out*d_env)
    return psi.reshape(n, d_in, d_out, d_env)


def channel_entropy_triples(kraus: np.ndarray) -> np.ndarray:
    """`entropy_triple(channel_state(member))` of each member of a Kraus
    stack (B, K, d_out, d_in), as a (B, 3) array.

    The stack is checked once, each member as `channel_state` would check
    it, and each cut takes one SVD for the whole stack.  A member's
    state has |psi|^2 = tr(U^dag U) / d_in, within TRACE_TOL of 1, so its
    norm is within about TRACE_TOL / 2 of 1, inside NORM_TOL: the states
    are not checked again.
    """
    _check_channels(kraus)
    return _entropy_triples(_channel_amplitudes(kraus))


def maximally_entangled(dim: int) -> np.ndarray:
    """|Phi_+> on two dim-dimensional systems, flat row-major."""
    phi = np.zeros(dim * dim, dtype=complex)
    phi[:: dim + 1] = 1.0 / np.sqrt(dim)
    return phi


# Sorted kept axes of each canonical subsystem name (its letters in A, B, E
# order), and `_marginal`'s transposes of each: kept axes first, then last.
_KEPT_AXES = {
    "A": (0,), "B": (1,), "E": (2,),
    "AB": (0, 1), "AE": (0, 2), "BE": (1, 2), "ABE": (0, 1, 2),
}
_ROWS_COLS = {keep: ((*keep, *drop), (*drop, *keep)) for keep in _KEPT_AXES.values()
              for drop in [tuple(ax for ax in range(3) if ax not in keep)]}


def _canonical(subsystems: str) -> str:
    """The canonical name of the named subsystems (letters of A, B, E, in
    any order): one dict lookup for a canonical string, else a parse."""
    if subsystems in _KEPT_AXES:
        return subsystems
    names = set()
    for name in subsystems:
        if name not in ("A", "B", "E"):
            raise ValidationError(f"unknown subsystem {name!r}: expected A, B or E")
        names.add(name)
    if not names:
        raise ValidationError("need at least one subsystem")
    return "".join(sorted(names))


def _marginal(psi: TripartitePureState, keep: tuple[int, ...], conj=None, out=None) -> np.ndarray:
    """The unvalidated partial trace onto the sorted axes `keep`.

    This is the GEMM that `np.tensordot(t, t.conj(), (drop, drop))` makes,
    on the same two operands, without tensordot's set-up: kept axes of t as
    rows against kept axes of conj(t) (`conj`, if the caller has it) as
    columns, summed over the rest, written into `out` if given (its size).
    """
    rows_axes, cols_axes = _ROWS_COLS[tuple(keep)]
    kept = math.prod(psi.dims[ax] for ax in keep) if out is None else len(out)
    t = psi.amplitudes.reshape(psi.dims)
    rows = t.transpose(rows_axes).reshape(kept, -1)
    cols = (t.conj() if conj is None else conj).transpose(cols_axes).reshape(-1, kept)
    return np.dot(rows, cols, out=out)


# The marginals the raw symbols use, formed together on a state's first call
_RAW_MARGINALS = ("A", "B", "E", "AB", "AE")


@functools.lru_cache(maxsize=256)
def _plan(dims: tuple[int, int, int], key: str, first: bool) -> tuple:
    """(size, names) of each stack `_marginal_entropy` forms for `key` on a
    state of `dims`, with `_RAW_MARGINALS` on its `first` call, in order of use."""
    groups: dict[int, list[str]] = {}
    for name in dict.fromkeys((*_RAW_MARGINALS, key)) if first else (key,):
        groups.setdefault(math.prod(dims[ax] for ax in _KEPT_AXES[name]), []).append(name)
    return tuple((size, tuple(names)) for size, names in groups.items())


def _marginal_entropy(psi: TripartitePureState, subsystems: str) -> float:
    """Entropy of psi's marginal on `subsystems`, formed once per state.

    A marginal of a validated state is M M^dag, PSD with trace |psi|^2, so
    it is not validated again.  The first call forms all of `_RAW_MARGINALS`
    too, from one conj(t).  Each call writes what it forms into one stack
    per matrix size, as `_plan` groups them, and takes one eigvalsh per
    stack, which gives each matrix the spectrum a call of its own would.
    """
    memo = psi._marginal_entropies
    key = subsystems if subsystems in memo else _canonical(subsystems)
    if key not in memo:
        conj = psi.amplitudes.reshape(psi.dims).conj()
        for size, names in _plan(psi.dims, key, not memo):
            stack = np.empty((len(names), size, size), dtype=complex)
            for name, out in zip(names, stack):
                _marginal(psi, _KEPT_AXES[name], conj, out)
            for name, spectrum in zip(names, np.linalg.eigvalsh(stack)):
                memo[name] = _bits(spectrum)
    return memo[key]


def entropy_triple(psi: TripartitePureState) -> tuple[float, float, float]:
    """(H(A), H(B), H(E)) in bits from the Schmidt spectra of the three cuts.

    For a pure state the spectrum of a one-party marginal is the squared
    singular values of the amplitude tensor with that party's axis as rows
    and the other two as columns (Schmidt decomposition), so no reduced
    state is formed.  Each cut's weights are divided by their sum, |psi|^2
    within NORM_TOL, so each value lies in [0, log2 d].  Weights below
    1e-12 contribute nothing, as in `evaluate_raw`.  The triple is computed
    on the state's first call and kept on the state.
    """
    return psi._kept("_entropy_triple",
                     lambda: tuple(_entropy_triples(psi.tensor()[np.newaxis])[0].tolist()))


def _entropy_triples(amplitudes: np.ndarray) -> np.ndarray:
    """`entropy_triple` of each state of a validated stack (B, d_A, d_B, d_E),
    as a (B, 3) array: one SVD per cut for the whole stack."""
    n, d_a, d_b, d_e = amplitudes.shape
    cuts = (
        amplitudes.reshape(n, d_a, d_b * d_e),
        amplitudes.transpose(0, 2, 1, 3).reshape(n, d_b, d_a * d_e),
        amplitudes.reshape(n, d_a * d_b, d_e),
    )
    squares = (np.linalg.svd(cut, compute_uv=False) ** 2 for cut in cuts)
    # numpy sums each contiguous row on its own: the same sums, bit for bit,
    # as one spectrum at a time
    weights = [w / w.sum(axis=1, keepdims=True) for w in squares]
    return np.array([[_bits(w) for w in cut] for cut in weights]).T


def evaluate(expr: EntropicExpr | Mapping[str, object], psi: TripartitePureState) -> float:
    """Numeric value (bits) of an entropic expression on a concrete state."""
    return canonicalize(expr).value(*entropy_triple(psi))


# The raw symbols of algebra.SYMBOLS, each from its marginals' entropies h
_RAW_SYMBOLS = {"H(A)": lambda h: h["A"], "I(A:B)": lambda h: h["A"] + h["B"] - h["AB"],
                "I(A:E)": lambda h: h["A"] + h["E"] - h["AE"], "Ic(A>B)": lambda h: h["B"] - h["AB"]}


def evaluate_raw(symbol: str, psi: TripartitePureState) -> float:
    """Evaluate a raw symbol directly from reduced-state entropies, without
    the pure-state eliminations (independent check of canonicalize).  Each
    marginal is formed once per state, however many symbols use it."""
    key = symbol if symbol in _RAW_SYMBOLS else symbol.replace(";", ":").replace(" ", "")
    if key in ("1", "CONST"):
        return 1.0
    if key in _RAW_SYMBOLS:
        _marginal_entropy(psi, "A")  # on a state's first call, forms every raw marginal
        return _RAW_SYMBOLS[key](psi._marginal_entropies)
    if key.startswith("H(") and key.endswith(")"):
        return _marginal_entropy(psi, key[2:-1])
    raise ValidationError(f"unknown raw symbol {symbol!r}")


def random_tripartite_state(rng, d_a: int, d_b: int) -> TripartitePureState:
    """G / |G| as amplitudes, rows on AB and columns on E, for the n x n
    complex Gaussian G = rng.complex_matrix(n, n), n = d_E = d_A d_B."""
    n = d_a * d_b
    g = rng.complex_matrix(n, n)
    return TripartitePureState((d_a, d_b, n), g / np.linalg.norm(g))
