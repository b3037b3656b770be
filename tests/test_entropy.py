import itertools
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qfamily.algebra import HALF, H_A, SYMBOLS, canonicalize
from qfamily.cli import IDENTITY_TOLERANCE
from qfamily.entropy import (
    NORM_TOL,
    TripartitePureState,
    ValidationError,
    channel_state,
    entropy_triple,
    evaluate,
    evaluate_raw,
    maximally_entangled,
    purify,
    random_tripartite_state,
    _bits,
    _check_channels,
    _check_density,
    _channel_amplitudes,
    _dilations,
)
from qfamily.channels import CHANNEL_FAMILIES, family_channel
from qfamily.rng import SplitMix64
from test_rng import random_density, random_pure, random_unitary

BELL = maximally_entangled(2)

# scalar oracle: -sum(l * log2 l) over the known eigenvalue list
WERNER_HALF_ENTROPY = 1.5487949406953985
assert abs(
    WERNER_HALF_ENTROPY - (-(0.625 * math.log2(0.625) + 3 * 0.125 * math.log2(0.125)))
) < 1e-15


def kraus_action(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag over the Kraus stack (K, d_out, d_in)."""
    return sum(k @ rho @ k.conj().T for k in kraus)


def dilation(kraus: np.ndarray) -> np.ndarray:
    """The channel's Stinespring isometry: `_dilations` on a stack of one."""
    return _dilations(kraus[np.newaxis])[0]


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


# -- validation --------------------------------------------------------------


def test_density_invariants_enforced():
    with pytest.raises(ValidationError, match="Hermitian"):
        purify(np.array([[0.5, 0.5], [-0.5, 0.5]]), (2, 1))
    with pytest.raises(ValidationError, match="trace"):
        purify(np.eye(2), (2, 1))
    with pytest.raises(ValidationError, match="eigenvalue"):
        purify(np.diag([1.5, -0.5]), (2, 1))
    with pytest.raises(ValidationError, match=r"^density operator must be square, got shape \(2, 3\)$"):
        purify(np.zeros((2, 3)), (2, 1))


def test_state_norm_enforced():
    with pytest.raises(ValidationError, match=r"^norm 1\.4142135623730951 differs from 1 by more than 1e-10$"):
        TripartitePureState((2, 2, 1), np.array([1.0, 0, 0, 1.0]))


def _density_verdict_by_eigvalsh(m):
    """The density-operator rule with one eigvalsh per matrix, written out:
    the message `purify` raises, or None where it accepts."""
    herm = np.max(np.abs(m - m.conj().T))
    if herm > 1e-10:
        return f"not Hermitian: max|rho - rho^dag| = {herm:.3e} > 1e-10"
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > 1e-10:
        return f"trace {tr!r} differs from 1 by more than 1e-10"
    lo = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
    if lo < -1e-10:
        return f"negative eigenvalue {lo:.3e} below -1e-10"
    return None


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(2, 64), st.floats(-3e-10, 1e-10), st.data())
def test_density_check_decides_as_eigvalsh_does(n, lowest, data):
    # a unit-trace Hermitian matrix with smallest eigenvalue `lowest`, and
    # possibly a run of zero eigenvalues as in a rank-deficient marginal
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    weights = rng.random(n - 1)
    weights[:data.draw(st.integers(0, n - 2))] = 0.0
    m = (u * np.concatenate([[lowest], weights / weights.sum() * (1 - lowest)])) @ u.conj().T
    try:
        purify(m, (n, 1))
        verdict = None
    except ValidationError as exc:
        verdict = str(exc)
    assert verdict == _density_verdict_by_eigvalsh(m)


@pytest.mark.parametrize("dims", [
    (2.5, 2, 1), (True, 2, 2), (2, 2, np.int64(1)), (2, 2), (1, 1, 1, 1), "ABE",
], ids=["float", "bool", "numpy-int", "two", "four", "string"])
def test_state_dims_must_be_three_ints(dims):
    with pytest.raises(ValidationError, match="three integers"):
        TripartitePureState(dims, np.ones(4) / 2)


def test_state_amplitudes_are_a_read_only_copy():
    amps = BELL.copy()
    psi = TripartitePureState((2, 2, 1), amps)
    before = evaluate_raw("I(A:B)", psi)
    with pytest.raises(ValueError, match="read-only"):
        psi.amplitudes[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        psi.tensor()[0, 0, 0] = 1.0
    amps[:] = np.array([1.0, 0.0, 0.0, 0.0])
    assert psi.amplitudes.tobytes() == BELL.tobytes()
    assert evaluate_raw("I(A:B)", psi) == before
    assert evaluate_raw("H(AB)", psi) == entropy(
        reduced(TripartitePureState((2, 2, 1), BELL), "AB"))


def test_channel_trace_preservation_enforced():
    with pytest.raises(ValidationError, match="trace preserving"):
        channel_state((np.array([[1.0, 0.0], [0.0, 0.5]]),))


@pytest.mark.parametrize("kraus", [(), np.eye(2), np.zeros((1, 2, 0))], ids=["no-operator", "a-matrix", "no-input"])
def test_channel_state_takes_a_nonempty_kraus_stack(kraus):
    shape = np.shape(kraus)
    with pytest.raises(ValidationError) as error:
        channel_state(kraus)
    assert str(error.value) == f"a Kraus stack must be a nonempty (K, d_out, d_in) array, got shape {shape}"


def test_trace_preservation_is_bounded_by_trace_tol(monkeypatch):
    """A Kraus stack whose sum K^dag K is off I by about 1e-8 is refused at
    TRACE_TOL = 1e-10, with that tolerance named, and built at 1e-6."""
    from qfamily import entropy as module
    kraus = (np.diag([1.0, 1.0 + 5e-9]),)
    with pytest.raises(ValidationError, match=r"= 1\.000e-08 > 1e-10$"):
        channel_state(kraus)
    monkeypatch.setattr(module, "TRACE_TOL", 1e-6)
    assert channel_state(kraus).dims == (2, 2, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("build", [
    lambda x: purify(np.full((2, 2), x), (2, 1)),
    lambda x: purify(np.array([[1.0, x], [x, 0.0]]), (2, 1)),
    lambda x: TripartitePureState((2, 1, 1), np.array([1.0, x])),
    lambda x: channel_state((np.array([[1.0, 0.0], [0.0, x]]),)),
], ids=["density-all", "density-offdiagonal", "state", "channel"])
def test_validators_reject_nan_and_inf(build, bad):
    with pytest.raises(ValidationError, match="NaN or infinite"):
        build(bad)


@pytest.mark.parametrize("build", [
    lambda: purify(np.eye(2) / 2, (2, 1)),
    lambda: TripartitePureState((2, 2, 1), BELL),
    lambda: channel_state((np.eye(2),)),
], ids=["density", "state", "channel"])
def test_numeric_objects_compare_and_hash_by_identity(build):
    a, b = build(), build()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_package_attribute_entropy_is_the_module():
    import qfamily.entropy

    assert qfamily.entropy is sys.modules["qfamily.entropy"]
    assert not hasattr(qfamily.entropy, "entropy")  # the reference below lives in the tests


# -- entropy -----------------------------------------------------------------


def reduced(psi: TripartitePureState, subsystems: str) -> np.ndarray:
    """The tests' partial trace onto the named subsystems (letters of A, B,
    E): `np.tensordot` of the amplitude tensor with its conjugate over the
    other axes, the GEMM that `evaluate_raw` makes."""
    keep = sorted("ABE".index(name) for name in subsystems)
    drop = [ax for ax in range(3) if ax not in keep]
    t = psi.tensor()
    size = math.prod(psi.dims[ax] for ax in keep)
    return np.tensordot(t, t.conj(), (drop, drop)).reshape(size, size)


def entropy(rho: np.ndarray) -> float:
    """The tests' reference von Neumann entropy in bits: `eigvalsh` of a
    density matrix that passes `_check_density`, its weights below 1e-12
    dropped by the engine's `_bits`, so a marginal's value is bit for bit
    `evaluate_raw`'s."""
    _check_density(rho)
    return _bits(np.linalg.eigvalsh(rho))


def test_entropy_of_pure_and_maximally_mixed():
    assert entropy(np.diag([1.0, 0.0])) == 0.0
    assert abs(entropy(np.eye(2) / 2) - 1.0) < 1e-12


def test_entropy_of_werner_spectrum():
    rho = np.diag([0.625, 0.125, 0.125, 0.125])
    assert abs(entropy(rho) - WERNER_HALF_ENTROPY) < 1e-12


def test_entropy_unitary_invariance():
    rng = SplitMix64(11)
    for _ in range(5):
        rho = random_density(rng, 4)
        u = random_unitary(rng, 4)
        rotated = u @ rho @ u.conj().T
        assert abs(entropy(rho) - entropy(rotated)) < 1e-9


def test_entropy_additive_on_products():
    rng = SplitMix64(12)
    for _ in range(5):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        total = entropy(np.kron(a, b))
        assert abs(total - entropy(a) - entropy(b)) < 1e-9


# -- purification ------------------------------------------------------------


def test_purify_pure_state_needs_no_environment():
    rho = np.outer(BELL, BELL.conj())
    psi = purify(rho, (2, 2))
    assert psi.dims == (2, 2, 1)
    assert abs(abs(np.vdot(psi.amplitudes, np.kron(BELL, [1.0]))) - 1.0) < 1e-9


def test_purify_maximally_mixed_two_qubits():
    psi = purify(np.eye(4) / 4, (2, 2))
    assert psi.dims[2] == 4
    h = {s: entropy(reduced(psi, s)) for s in ("A", "B", "E")}
    assert abs(h["A"] - 1.0) < 1e-9
    assert abs(h["B"] - 1.0) < 1e-9
    assert abs(h["E"] - 2.0) < 1e-9


def test_purify_werner_mixture_environment_entropy():
    rho = 0.5 * np.outer(BELL, BELL.conj()) + 0.5 * np.eye(4) / 4
    psi = purify(rho, (2, 2))
    assert abs(entropy(reduced(psi, "E")) - WERNER_HALF_ENTROPY) < 1e-9


def test_purify_then_trace_recovers_input():
    rng = SplitMix64(13)
    for _ in range(5):
        rho = random_density(rng, 6)
        psi = purify(rho, (2, 3))
        back = reduced(psi, "AB")
        assert np.max(np.abs(back - rho)) < 1e-9


def test_purify_of_a_state_at_the_trace_and_psd_tolerances_is_a_unit_vector():
    # trace 1 + 9e-11, and dropping the negative eigenvalues leaves weight 1 + 3.6e-10
    rho = np.diag([1 + 3.6e-10, -9e-11, -9e-11, -9e-11])
    psi = purify(rho, (2, 2))
    assert psi.dims == (2, 2, 1)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-15


def test_purify_split_must_factor_dimension():
    with pytest.raises(ValidationError, match="split"):
        purify(np.eye(4) / 4, (3, 2))


@pytest.mark.parametrize("split", [(-2, -2), (2.0, 2), (True, 4)], ids=["negative", "float", "bool"])
def test_purify_split_must_be_two_positive_ints(split):
    """The split becomes the state's first two dims, which no later check
    reads again: a product equal to the dimension is not enough."""
    with pytest.raises(ValidationError) as error:
        purify(np.eye(4) / 4, split)
    assert str(error.value) == f"split {split} does not factor dimension 4"


# -- dilation ----------------------------------------------------------------


def test_identity_dilation_is_trivial():
    u = dilation(family_channel("identity"))
    assert u.shape == (2, 2)
    assert np.max(np.abs(u - np.eye(2))) < 1e-12


def test_dilation_is_isometric_and_reproduces_kraus_action():
    rng = SplitMix64(14)
    for channel in (family_channel("erasure", 0.3), family_channel("depolarizing", 0.7),
                    family_channel("amplitude_damping", 0.4)):
        u = dilation(channel)
        (d_out, d_in), d_env = channel[0].shape, len(channel)
        assert u.shape == (d_out * d_env, d_in)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d_in))) < 1e-9
        for i in range(d_in):
            for j in range(d_in):
                basis_op = np.zeros((d_in, d_in), dtype=complex)
                basis_op[i, j] = 1.0
                dilated = u @ basis_op @ u.conj().T
                dilated = dilated.reshape(d_out, d_env, d_out, d_env)
                traced = np.trace(dilated, axis1=1, axis2=3)
                assert np.max(np.abs(traced - kraus_action(channel, basis_op))) < 1e-9
    _ = rng


def test_fully_depolarizing_output_is_maximally_mixed():
    rng = SplitMix64(15)
    channel = family_channel("depolarizing", 1.0)
    for _ in range(5):
        phi = random_pure(rng, 2)
        psi = TripartitePureState((1, 2, 4), dilation(channel) @ phi)
        assert abs(entropy(reduced(psi, "B")) - 1.0) < 1e-9


# -- channel states ----------------------------------------------------------


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_channels_at_the_trace_tolerance_give_states_that_pass_the_state_check(seed, d_in, d_out, k, data):
    """sum K^dag K = I + diag(t) with every |t_a| at the edge of 1e-10: the
    channel passes `_check_channels`, and its state, of |psi|^2 = 1 + mean(t),
    passes `TripartitePureState`'s norm check, which `channel_state` and
    `channel_entropy_triples` leave out."""
    assume(d_out * k >= d_in)
    edge = st.floats(0.99e-10, 1e-10).flatmap(lambda t: st.sampled_from([t, -t]))
    shifts = np.array(data.draw(st.lists(edge, min_size=d_in, max_size=d_in)))
    isometry = random_unitary(SplitMix64(seed), d_out * k)[:, :d_in] * np.sqrt(1 + shifts)
    kraus = isometry.reshape(d_out, k, d_in).transpose(1, 0, 2)[np.newaxis]
    try:
        _check_channels(kraus)
    except ValidationError:
        assume(False)  # round-off took a shift past the tolerance
    amplitudes = _channel_amplitudes(kraus)
    for member in amplitudes:
        TripartitePureState(member.shape, member)
    assert abs(np.linalg.norm(amplitudes) - 1) <= 0.5e-10 + 1e-15


def test_identity_channel_on_half_a_bell_pair():
    psi = channel_state(family_channel("identity"))
    assert abs(evaluate_raw("H(A)", psi) - 1.0) < 1e-9
    assert evaluate_raw("H(E)", psi) < 1e-9
    assert abs(evaluate_raw("I(A:B)", psi) - 2.0) < 1e-9


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.9])
def test_erasure_channel_state_marginals(p):
    psi = channel_state(family_channel("erasure", p))
    assert abs(evaluate_raw("H(B)", psi) - ((1 - p) + binary_entropy(p))) < 1e-9
    assert abs(evaluate_raw("H(E)", psi) - (p + binary_entropy(p))) < 1e-9
    assert abs(evaluate_raw("Ic(A>B)", psi) - (1 - 2 * p)) < 1e-9


def test_dephasing_at_zero_matches_identity():
    psi = channel_state(family_channel("dephasing", 0.0))
    assert abs(evaluate_raw("I(A:B)", psi) - 2.0) < 1e-9
    assert abs(evaluate_raw("Ic(A>B)", psi) - 1.0) < 1e-9


def _channels_with_states():
    """The five families at p in {0, 1/4, 1/2, 3/4, 1} and at the built-in
    channels' parameters."""
    for family in sorted(CHANNEL_FAMILIES):
        for p in (0.0, 0.25, 0.3, 0.4, 0.5, 0.75, 1.0):
            yield f"{family}(p={p})", family_channel(family, p)


def test_channel_state_is_the_dilation_applied_to_half_a_maximally_entangled_pair():
    for name, channel in _channels_with_states():
        (d_out, d_in), d_env = channel[0].shape, len(channel)
        u = np.zeros((d_out * d_env, d_in), dtype=complex)
        for e, k in enumerate(channel):
            for b in range(d_out):
                u[b * d_env + e] = k[b]
        phi = maximally_entangled(d_in)
        expected = (u @ phi.reshape(d_in, d_in).T).T
        psi = channel_state(channel)
        assert psi.dims == (d_in, d_out, d_env), name
        assert psi.amplitudes.tobytes() == expected.reshape(-1).tobytes(), name


def test_density_and_channel_keep_what_was_validated():
    """The states of a density matrix and of a Kraus stack share no array
    with them: changing the input after the state is built changes nothing."""
    m = np.eye(2, dtype=complex) / 2
    psi = purify(m, (2, 1))
    kept = psi.amplitudes.tobytes()
    m[0, 0] = 5
    assert psi.amplitudes.tobytes() == kept
    assert abs(entropy(reduced(psi, "AB")) - 1.0) < 1e-12
    ks = family_channel("depolarizing", 0.5)
    psi = channel_state(ks)
    kept = psi.amplitudes.tobytes()
    ks[0][:] = 0
    assert psi.amplitudes.tobytes() == kept
    assert entropy_triple(psi) == entropy_triple(channel_state(family_channel("depolarizing", 0.5)))


def test_validated_arrays_are_read_only():
    for psi in (purify(np.eye(2) / 2, (2, 1)), channel_state(family_channel("erasure", 0.5))):
        with pytest.raises(ValueError, match="read-only"):
            psi.amplitudes[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            psi.tensor()[0, 0, 0] = 1


# -- reduced states and evaluation -------------------------------------------


def test_reduced_of_bell_is_maximally_mixed():
    psi = TripartitePureState((2, 2, 1), BELL)
    assert np.max(np.abs(reduced(psi, "A") - np.eye(2) / 2)) < 1e-12


def test_reduced_of_product_state_is_pure():
    psi = TripartitePureState((2, 2, 1), np.kron([1.0, 0.0], np.kron([0.0, 1.0], [1.0])))
    assert entropy(reduced(psi, "A")) < 1e-12


def test_a_random_state_takes_no_factorisation(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a random state needs no factorisation")

    for name in ("eigh", "eigvalsh", "svd", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refused)
    assert random_tripartite_state(SplitMix64(5), 3, 4).dims == (3, 4, 12)


@pytest.mark.parametrize("pending_spare", [False, True], ids=["no-spare", "spare"])
def test_a_random_state_draws_one_complex_matrix(pending_spare):
    for seed in range(20):
        for d_a, d_b in ((1, 1), (2, 2), (2, 3), (4, 4)):
            drawn, reference = SplitMix64(seed), SplitMix64(seed)
            if pending_spare:
                drawn.normals(1)
                reference.normals(1)
            random_tripartite_state(drawn, d_a, d_b)
            reference.complex_matrix(d_a * d_b, d_a * d_b)
            assert (drawn.state, drawn._spare) == (reference.state, reference._spare)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(2, 4), st.integers(2, 4))
def test_a_random_state_purifies_the_random_density_of_its_draw(seed, d_a, d_b):
    psi = random_tripartite_state(SplitMix64(seed), d_a, d_b)
    assert psi.dims == (d_a, d_b, d_a * d_b)
    rho = random_density(SplitMix64(seed), d_a * d_b)
    assert np.abs(reduced(psi, "AB") - rho).max() <= 1e-14


def test_purity_symmetry_on_random_states():
    rng = SplitMix64(16)
    for _ in range(20):
        psi = random_tripartite_state(rng, rng.randint(2, 4), rng.randint(2, 4))
        for pair, solo in (("AB", "E"), ("AE", "B"), ("BE", "A")):
            gap = abs(entropy(reduced(psi, pair)) - entropy(reduced(psi, solo)))
            assert gap < 1e-9


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 4), st.integers(1, 4), st.booleans())
def test_entropy_triple_matches_reduced_states(seed, d_a, d_b, product):
    rng = SplitMix64(seed)
    if product:
        psi = TripartitePureState(
            (d_a, d_b, 1), np.kron(random_pure(rng, d_a), random_pure(rng, d_b)))
    else:
        psi = random_tripartite_state(rng, d_a, d_b)
    for value, name in zip(entropy_triple(psi), "ABE"):
        assert abs(value - entropy(reduced(psi, name))) < 1e-10


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 4), st.integers(1, 4),
       st.floats(-NORM_TOL, NORM_TOL))
def test_entropy_triple_of_an_accepted_state_lies_in_range(seed, d_a, d_b, scale):
    base = random_tripartite_state(SplitMix64(seed), d_a, d_b)
    try:
        psi = TripartitePureState(base.dims, base.amplitudes * (1 + scale))
    except ValidationError:
        assume(False)  # rounding took the scaled norm just past NORM_TOL
    for value, d in zip(entropy_triple(psi), psi.dims):
        assert 0.0 <= value <= math.log2(d)


def test_evaluate_raw_takes_every_symbol_on_a_state_at_the_norm_tolerance():
    # norm 1 + 9e-11 is accepted; each marginal's trace is about 1 + 1.8e-10
    psi = TripartitePureState((2, 2, 1), BELL * (1 + 9e-11))
    values = {symbol: evaluate_raw(symbol, psi) for symbol in SYMBOLS}
    assert min(values.values()) >= -1e-9
    sum_gap = 0.5 * values["I(A:B)"] + 0.5 * values["I(A:E)"] - values["H(A)"]
    diff_gap = 0.5 * values["I(A:B)"] - 0.5 * values["I(A:E)"] - values["Ic(A>B)"]
    assert max(abs(sum_gap), abs(diff_gap)) <= IDENTITY_TOLERANCE


def test_evaluate_mutual_information_on_bell():
    psi = TripartitePureState((2, 2, 1), BELL)
    assert abs(evaluate(canonicalize({"I(A:B)": 1}), psi) - 2.0) < 1e-12


def test_displayed_identity_vanishes_numerically():
    rng = SplitMix64(17)
    expr = canonicalize({"I(A:B)": HALF, "I(A:E)": HALF}) - H_A
    assert expr.is_zero
    for _ in range(10):
        psi = random_tripartite_state(rng, 3, 3)
        raw = (
            0.5 * evaluate_raw("I(A:B)", psi)
            + 0.5 * evaluate_raw("I(A:E)", psi)
            - evaluate_raw("H(A)", psi)
        )
        assert abs(raw) < 1e-9


def test_raw_symbols_match_canonical_numerically():
    rng = SplitMix64(18)
    symbols = ["H(A)", "H(B)", "H(E)", "H(AB)", "H(AE)", "H(BE)", "H(ABE)",
               "I(A:B)", "I(A:E)", "Ic(A>B)"]
    states = [
        random_tripartite_state(rng, rng.randint(2, 4), rng.randint(2, 4))
        for _ in range(100)
    ]
    for symbol in symbols:
        expr = canonicalize({symbol: 1})
        for psi in states:
            assert abs(evaluate_raw(symbol, psi) - evaluate(expr, psi)) < 1e-9


@pytest.mark.parametrize("call", [
    lambda psi: evaluate_raw("H(AX)", psi),
    lambda psi: evaluate_raw("H(a)", psi),
], ids=["H(AX)", "H(a)"])
def test_unknown_subsystem_is_a_validation_error_naming_it(call):
    psi = TripartitePureState((2, 2, 1), BELL)
    with pytest.raises(ValidationError, match="unknown subsystem"):
        call(psi)
    with pytest.raises(ValidationError, match="unknown subsystem"):
        call(psi)
    assert psi._marginal_entropies == {}


RAW_COMBINATIONS = {
    "H(A)": lambda h: h("A"),
    "H(BA)": lambda h: h("AB"),
    "H(E B)": lambda h: h("BE"),
    "I(A:B)": lambda h: h("A") + h("B") - h("AB"),
    "I(A;E)": lambda h: h("A") + h("E") - h("AE"),
    "Ic(A>B)": lambda h: h("B") - h("AB"),
}


def test_evaluate_raw_equals_fresh_reduced_entropies_in_any_order():
    """Bit for bit on every (d_A, d_B) in {2, 3, 4}^2: A and B share a stack
    when d_A = d_B, and (4, 4) forms a 64 x 64 AE marginal."""
    rng = SplitMix64(19)
    states = [random_tripartite_state(rng, d_a, d_b)
              for d_a, d_b in itertools.product((2, 3, 4), repeat=2)]
    for psi in states:
        def fresh(names):
            return entropy(reduced(psi, names))

        expected = {symbol: combine(fresh) for symbol, combine in RAW_COMBINATIONS.items()}
        for order in itertools.permutations(RAW_COMBINATIONS):
            copy = TripartitePureState(psi.dims, psi.amplitudes)
            assert {symbol: evaluate_raw(symbol, copy) for symbol in order} == expected


def test_evaluate_raw_forms_each_marginal_once_per_state(monkeypatch):
    from qfamily import entropy as module

    formed, spectra = [], []
    real_marginal, real_eigvalsh = module._marginal, np.linalg.eigvalsh

    def counting_marginal(psi, keep, *rest):
        formed.append("".join("ABE"[ax] for ax in keep))
        return real_marginal(psi, keep, *rest)

    def counting_eigvalsh(matrices):
        spectra.append(matrices.shape)
        return real_eigvalsh(matrices)

    monkeypatch.setattr(module, "_marginal", counting_marginal)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    symbols = ("I(A:B)", "I(A:E)", "H(A)", "Ic(A>B)")
    psi = random_tripartite_state(SplitMix64(20), 2, 3)
    for _ in range(3):
        for symbol in symbols:
            evaluate_raw(symbol, psi)
    assert sorted(formed) == ["A", "AB", "AE", "B", "E"]
    # one stacked spectrum per marginal size: A, B, then E with AB, then AE
    assert spectra == [(1, 2, 2), (1, 3, 3), (2, 6, 6), (1, 12, 12)]

    # the triple, kept in a slot of its own, leaves the memo empty: the raw
    # symbols still form all five marginals in one grouped pass
    fresh = [evaluate_raw(symbol, psi).hex() for symbol in symbols]
    formed.clear()
    spectra.clear()
    psi = random_tripartite_state(SplitMix64(20), 2, 3)
    entropy_triple(psi)
    assert [evaluate_raw(symbol, psi).hex() for symbol in symbols] == fresh
    assert sorted(formed) == ["A", "AB", "AE", "B", "E"]
    assert spectra == [(1, 2, 2), (1, 3, 3), (2, 6, 6), (1, 12, 12)]


@pytest.mark.parametrize("d_a, d_b", list(itertools.product((2, 3, 4), repeat=2)))
def test_raw_marginals_share_one_stack_per_size_on_every_drawn_shape(monkeypatch, d_a, d_b):
    """The stacks of a state's first raw symbol, for each shape that
    check-identities and the benchmark draw: the marginals A, B, E, AB and
    AE grouped by size in that order, d_E = d_A d_B.  The benchmark's eig
    call budget per `checks` op rests on this grouping."""
    spectra, real_eigvalsh = [], np.linalg.eigvalsh

    def counting_eigvalsh(matrices):
        spectra.append(matrices.shape)
        return real_eigvalsh(matrices)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    psi = random_tripartite_state(SplitMix64(10 * d_a + d_b), d_a, d_b)
    for symbol in ("I(A:B)", "I(A:E)", "H(A)", "Ic(A>B)"):
        evaluate_raw(symbol, psi)
    counts = Counter([d_a, d_b, d_a * d_b, d_a * d_b, d_a * d_a * d_b])  # in order of first use
    assert spectra == [(count, size, size) for size, count in counts.items()]


def test_the_stack_plan_cache_is_bounded():
    from qfamily import entropy as module

    assert module._plan.cache_parameters()["maxsize"] == 256


# -- the marginal kernel, bit for bit -----------------------------------------

KEEP_SETS = [keep for size in (1, 2, 3) for keep in itertools.combinations(range(3), size)]


@settings(derandomize=True, max_examples=100)
@given(dims=st.tuples(*[st.integers(1, 4)] * 3), seed=st.integers(0, 2 ** 32))
def test_marginal_is_bitwise_the_tensordot_partial_trace(dims, seed):
    from qfamily.entropy import _marginal

    amplitudes = SplitMix64(seed).complex_matrix(1, math.prod(dims))[0]
    psi = TripartitePureState(dims, amplitudes / np.linalg.norm(amplitudes))
    t = psi.tensor()
    for keep in KEEP_SETS:
        drop = [ax for ax in range(3) if ax not in keep]
        kept = math.prod(dims[ax] for ax in keep)
        expected = np.tensordot(t, t.conj(), (drop, drop)).reshape(kept, kept)
        for axes in (keep, list(keep)):
            formed = _marginal(psi, axes)
            assert formed.shape == expected.shape
            assert formed.tobytes() == expected.tobytes()


# evaluate_raw on the purification of random_density(SplitMix64(21), 6) that
# eigh gives, eigenvectors times the square roots of their eigenvalues, dims
# (2, 3, 6), as float.hex: every spelling of algebra.SYMBOLS, and others that
# name the same marginals, each on a fresh copy of the state
PINNED_RAW_VALUES = {
    "1": "0x1.0000000000000p+0",
    "CONST": "0x1.0000000000000p+0",
    "H(A)": "0x1.fc630ea639082p-1",
    "H(B)": "0x1.7dc00d8e00db2p+0",
    "H(E)": "0x1.a154b1b108e38p+0",
    "H(AB)": "0x1.a154b1b108e37p+0",
    "H(AE)": "0x1.7dc00d8e00db1p+0",
    "H(BE)": "0x1.fc630ea639080p-1",
    "H(ABE)": "-0x1.14ff58be0a240p-50",
    "I(A:B)": "0x1.b539c66028f7ap-1",
    "I(A:E)": "0x1.21c62b76248c7p+0",
    "Ic(A>B)": "-0x1.1ca5211840428p-3",
    "H(BA)": "0x1.a154b1b108e37p+0",
    "H(E A)": "0x1.7dc00d8e00db1p+0",
    "H(EB)": "0x1.fc630ea639080p-1",
    "I(A;E)": "0x1.21c62b76248c7p+0",
    "Ic(A > B)": "-0x1.1ca5211840428p-3",
}


def test_every_raw_spelling_keeps_its_pinned_value():
    assert set(SYMBOLS) <= set(PINNED_RAW_VALUES)
    eigenvalues, vectors = np.linalg.eigh(random_density(SplitMix64(21), 6))
    psi = TripartitePureState((2, 3, 6), vectors * np.sqrt(eigenvalues))
    for symbol, pinned in PINNED_RAW_VALUES.items():
        copy = TripartitePureState(psi.dims, psi.amplitudes)
        assert evaluate_raw(symbol, copy).hex() == pinned, symbol
    together = {symbol: evaluate_raw(symbol, psi) for symbol in PINNED_RAW_VALUES}
    assert {symbol: value.hex() for symbol, value in together.items()} == PINNED_RAW_VALUES


@pytest.mark.parametrize("symbol, message", [
    ("H(AC)", "unknown subsystem 'C': expected A, B or E"),
    ("H(a)", "unknown subsystem 'a': expected A, B or E"),
    ("H()", "need at least one subsystem"),
    ("XYZ", "unknown raw symbol 'XYZ'"),
])
def test_a_bad_raw_symbol_keeps_its_error_message(symbol, message):
    psi = random_tripartite_state(SplitMix64(21), 2, 3)
    with pytest.raises(ValidationError) as error:
        evaluate_raw(symbol, psi)
    assert str(error.value) == message
