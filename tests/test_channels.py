import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfamily.algebra import H_A, H_B, H_E, I_AB, I_AE, I_COH
from qfamily.channels import (
    CHANNEL_FAMILIES,
    SWEEP_CHUNK,
    RegisteredChannel,
    RegisteredState,
    builtin_objects,
    family_channel,
    load_registry,
    rate_table,
    sweep,
    sweep_csv,
    sweep_csv_chunks,
)
from qfamily.derivation import derive_family
from qfamily.entropy import (
    DensityOp,
    QuantumChannel,
    ValidationError,
    channel_entropy_triples,
    channel_state,
    entropy,
    entropy_triple,
    reduced,
)


def registry_entry_json(obj) -> dict:
    """A registered object in the JSON layout `load_registry` reads."""
    if isinstance(obj, RegisteredState):
        flat = obj.rho.matrix.reshape(-1)
        return {
            "name": obj.name,
            "kind": "state",
            "dims": list(obj.split),
            "data": [[z.real, z.imag] for z in flat],
        }
    flat = np.concatenate([k.reshape(-1) for k in obj.channel.kraus])
    return {
        "name": obj.name,
        "kind": "channel",
        "dims": [*obj.channel.kraus[0].shape[::-1], len(obj.channel.kraus)],
        "data": [[z.real, z.imag] for z in flat],
    }


def erasure_marginal_entropies(p: float) -> tuple[float, float]:
    """Independent oracle: the reduced spectra are known in closed form."""

    def h(eigenvalues):
        return -sum(l * math.log2(l) for l in eigenvalues if l > 1e-12)

    return h([(1 - p) / 2, (1 - p) / 2, p]), h([p / 2, p / 2, 1 - p])


@pytest.mark.parametrize("p", [0.0, 0.1, 0.35, 0.5, 0.8, 1.0])
def test_erasure_reduced_spectra_against_closed_form(p):
    psi = channel_state(family_channel("erasure", p))
    h_b, h_e = erasure_marginal_entropies(p)
    assert abs(entropy(reduced(psi, "B")) - h_b) < 1e-9
    assert abs(entropy(reduced(psi, "E")) - h_e) < 1e-9


def test_erasure_sweep_matches_linear_formulas():
    params = [i / 4 for i in range(5)]
    rows = sweep("erasure", params)
    ic_column = [row[6] for row in rows]
    assert ic_column == pytest.approx([1, 0.5, 0, -0.5, -1], abs=1e-9)
    for row in rows:
        p = row[0]
        assert abs(row[4] - (2 - 2 * p)) < 1e-9       # I_AB
        assert abs(row[4] + row[5] - 2 * row[1]) < 1e-9  # I_AB + I_AE = 2 H_A


def shannon(*probabilities: float) -> float:
    return -sum(q * math.log2(q) for q in probabilities if q > 0)


def binary_entropy(q: float) -> float:
    return shannon(q, 1 - q)


# (H(B), H(E)) of each family's channel state with maximally entangled
# input, from the spectra of B's output and of the Choi state.
CLOSED_FORMS = {
    "dephasing": lambda p: (1.0, binary_entropy(p / 2)),
    "depolarizing": lambda p: (1.0, shannon(1 - 3 * p / 4, p / 4, p / 4, p / 4)),
    "amplitude_damping": lambda p: (binary_entropy((1 - p) / 2), binary_entropy(p / 2)),
}


@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
def test_sweep_matches_closed_forms(family):
    rows = sweep(family, [Fraction(k, 100) for k in range(101)])
    assert [row[0] for row in rows] == [k / 100 for k in range(101)]
    for p, h_a, h_b, h_e, i_ab, i_ae, i_coh in rows:
        want_b, want_e = CLOSED_FORMS[family](p)
        assert abs(h_a - 1.0) < 1e-10
        assert abs(h_b - want_b) < 1e-10
        assert abs(h_e - want_e) < 1e-10
        # pure-state relations with H(A) = 1
        assert abs(i_ab - (1.0 + want_b - want_e)) < 1e-10
        assert abs(i_ae - (1.0 + want_e - want_b)) < 1e-10
        assert abs(i_coh - (want_b - want_e)) < 1e-10


def test_sweep_makes_three_spectral_calls_per_chunk(monkeypatch):
    calls = []
    for name in ("svd", "eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rows = sweep("erasure", [i / 10 for i in range(11)])
    assert len(rows) == 11
    assert len(calls) == 3


# The six quantities of a sweep row, in column order.
SWEEP_VALUES = (H_A, H_B, H_E, I_AB, I_AE, I_COH)


# Grids that hold 0 and 1 and cross the SWEEP_CHUNK boundary.
@st.composite
def chunked_grids(draw, min_size=SWEEP_CHUNK - 1):
    grid = draw(st.lists(st.floats(0.0, 1.0), min_size=min_size, max_size=2 * SWEEP_CHUNK + 10))
    for p in (0.0, 1.0):
        grid.insert(draw(st.integers(0, len(grid))), p)
    return grid


def _raised(build) -> str:
    with pytest.raises(ValidationError) as excinfo:
        build()
    return str(excinfo.value)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(chunked_grids())
def test_a_batch_agrees_with_batches_of_one(grid):
    """Each sweep row is, to the bit, the row of its point built alone."""
    for family in CHANNEL_FAMILIES:
        rows = sweep(family, grid)
        assert len(rows) == len(grid)
        for p, row in zip(grid, rows):
            entropies = entropy_triple(channel_state(family_channel(family, p)))
            alone = (p, *(expr.value(*entropies) for expr in SWEEP_VALUES))
            assert np.array(row).tobytes() == np.array(alone).tobytes()


@settings(derandomize=True, max_examples=20, deadline=None)
@given(chunked_grids(min_size=0),
       st.one_of(st.just(math.nan), st.floats().filter(lambda p: not 0.0 <= p <= 1.0)),
       st.data())
def test_an_out_of_domain_member_fails_a_sweep_as_it_fails_alone(grid, bad, data):
    grid.insert(data.draw(st.integers(0, len(grid))), bad)
    for family in CHANNEL_FAMILIES:
        message = _raised(lambda: family_channel(family, bad))
        assert message.endswith(f"parameter {bad} outside [0, 1]")
        assert _raised(lambda: sweep(family, grid)) == message


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.sampled_from(sorted(CHANNEL_FAMILIES)), chunked_grids(min_size=0),
       st.sampled_from(["not trace preserving", "NaN"]), st.data())
def test_a_stack_with_one_bad_member_fails_as_that_member_alone(family, grid, fault, data):
    stack = np.stack([np.stack(family_channel(family, p).kraus) for p in grid])
    member = data.draw(st.integers(0, len(grid) - 1))
    if fault == "NaN":
        stack[member, 0, 0, 0] = math.nan
    else:
        stack[member] *= 1.01
    message = _raised(lambda: QuantumChannel(tuple(stack[member])))
    assert fault in message
    assert _raised(lambda: channel_entropy_triples(stack)) == message


def test_any_family_at_zero_is_the_identity_channel():
    for family in ("erasure", "depolarizing", "dephasing", "amplitude_damping"):
        psi = channel_state(family_channel(family, 0.0))
        h = {s: entropy(reduced(psi, s)) for s in ("A", "B", "E")}
        assert abs((h["A"] + h["B"] - h["E"]) - 2.0) < 1e-9   # I(A:B) = 2
        assert abs((h["B"] - h["E"]) - 1.0) < 1e-9            # Ic = 1


def test_sweep_csv_shape_and_precision():
    text = sweep_csv("erasure", [0, 0.25, 0.5, 0.75, 1])
    lines = text.strip().split("\n")
    assert lines[0] == "param,H_A,H_B,H_E,I_AB,I_AE,Ic"
    assert len(lines) == 6
    assert lines[3].startswith("0.5,")


def test_sweep_csv_is_the_same_bytes_across_chunk_boundaries():
    grid = [Fraction(k, 300) for k in range(301)]
    chunks = list(sweep_csv_chunks("amplitude_damping", grid))
    assert [len(chunk.splitlines()) for chunk in chunks] == [1 + 128, 128, 45]
    rows = [sweep_csv("amplitude_damping", [p]).split("\n", 1)[1] for p in grid]
    assert "".join(chunks) == sweep_csv("amplitude_damping", []) + "".join(rows)


def test_out_of_domain_parameter_rejected():
    with pytest.raises(ValidationError):
        family_channel("erasure", 1.5)
    with pytest.raises(ValidationError, match="unknown channel family"):
        family_channel("teleporter", 0.5)


# -- rate tables --------------------------------------------------------------


@pytest.fixture(scope="module")
def family():
    return derive_family()


@pytest.fixture(scope="module")
def objects():
    return builtin_objects()


def test_eq5_rate_on_identity_channel(family, objects):
    table = rate_table(family["eq5"], objects["identity"])
    assert table.rhs[0].kind_token == "[q->q]"
    assert abs(table.rhs[0].rate - 1.0) < 1e-9
    assert table.lhs[0].copies == 1


def test_eq5_rate_on_quarter_erasure(family, objects):
    table = rate_table(family["eq5"], objects["erasure_p25"])
    assert abs(table.rhs[0].rate - 0.5) < 1e-9


def test_eq4_rate_on_fully_depolarizing_channel(family):
    useless = RegisteredChannel("depolarizing_p100", family_channel("depolarizing", 1.0))
    table = rate_table(family["eq4"], useless)
    assert abs(table.rhs[0].rate) < 1e-9


def test_parents_are_trivial_on_noiseless_objects(family, objects):
    table = rate_table(family["mother"], objects["bell"])
    rates = {e.kind_token: e.rate for e in table.lhs if e.rate is not None}
    assert abs(rates["[q->q]"]) < 1e-9
    assert abs(table.rhs[0].rate - 1.0) < 1e-9


def test_rate_table_values_equal_direct_evaluation(family, objects):
    from qfamily.entropy import evaluate

    ri = family["eq2"]
    obj = objects["erasure_state_p25"]
    psi = obj.tripartite()
    table = rate_table(ri, obj)
    for side_vec, side_entries in ((ri.lhs, table.lhs), (ri.rhs, table.rhs)):
        for (kind, coeff), entry in zip(side_vec.terms, side_entries):
            if entry.rate is not None:
                assert entry.rate == evaluate(coeff, psi)


def test_rate_table_rejects_wrong_object_kind(family, objects):
    with pytest.raises(ValidationError, match="needs a state"):
        rate_table(family["mother"], objects["identity"])
    with pytest.raises(ValidationError, match="needs a channel"):
        rate_table(family["father"], objects["bell"])


def test_rate_table_respects_handle_pinning(objects):
    from qfamily.algebra import EBIT, ResourceInequality, ResourceKind, ResourceTag, vec

    werner = ResourceKind(ResourceTag.NOISY_STATE, "werner")
    pinned = ResourceInequality(name="pinned", lhs=vec(1, werner), rhs=vec(1, EBIT))
    with pytest.raises(ValidationError, match="pinned"):
        rate_table(pinned, objects["bell"])


@pytest.mark.parametrize("rate, rendered", [
    (Fraction(-1, 10**12), "-1e-12 [q->q] (not achievable)"),
    (Fraction(1, 10**12), "1e-12 [q->q]"),
    (Fraction(-999, 10**15), "0 [q->q]"),
], ids=["minus-floor", "floor", "below-floor"])
def test_rates_at_the_noise_floor(objects, rate, rendered):
    from qfamily.algebra import EBIT, QUBIT_CHANNEL, ResourceInequality, vec

    edge = ResourceInequality("edge", vec(1, EBIT), vec(rate, QUBIT_CHANNEL))
    (entry,) = rate_table(edge, objects["bell"]).rhs
    assert entry.render() == rendered
    assert entry.achievable == (rendered[0] != "-")


# -- registry ------------------------------------------------------------------


def test_registry_json_round_trip(tmp_path, objects):
    entries = [registry_entry_json(obj) for obj in objects.values()]
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(entries))
    loaded = load_registry(path)
    assert set(loaded) == set(objects)
    bell = loaded["bell"]
    assert bell.kind == "state"
    assert np.max(np.abs(bell.rho.matrix - objects["bell"].rho.matrix)) < 1e-12
    erasure = loaded["erasure_p25"]
    assert erasure.kind == "channel"
    for ours, theirs in zip(erasure.channel.kraus, objects["erasure_p25"].channel.kraus):
        assert np.max(np.abs(ours - theirs)) < 1e-12


def test_registry_rejects_malformed_entries(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"name": "x", "kind": "spin", "dims": [2], "data": []}]))
    with pytest.raises(ValidationError, match="unknown kind"):
        load_registry(path)


def test_identity_channel_arbitrary_dimension():
    psi = channel_state(QuantumChannel((np.eye(3),)))
    assert abs(entropy(reduced(psi, "A")) - math.log2(3)) < 1e-9


# -- what a registered object computes once -------------------------------------


def _members_on(family, obj):
    """The family members whose table `obj` can carry: all but those whose
    noisy resource needs the other kind of object."""
    other = "{q->q}" if obj.kind == "state" else "{qq}"
    return [ri for ri in family.values()
            if all(kind.token != other for kind, _ in ri.lhs.terms)]


def _fresh_copy(obj):
    """The same object built again from its arrays, with nothing computed."""
    if isinstance(obj, RegisteredState):
        return RegisteredState(obj.name, DensityOp(obj.rho.matrix), obj.split)
    return RegisteredChannel(obj.name, QuantumChannel(obj.channel.kraus))


@pytest.mark.parametrize("source", ["builtin", "registry"])
def test_tables_on_one_object_purify_or_dilate_it_once(monkeypatch, tmp_path, family, source):
    from qfamily import channels as module

    objects = builtin_objects()
    if source == "registry":
        path = tmp_path / "registry.json"
        path.write_text(json.dumps([registry_entry_json(obj) for obj in objects.values()]))
        objects = load_registry(path)
    state, channel = objects["erasure_state_p25"], objects["amplitude_damping_p40"]
    expected = {obj.name: [pickle.dumps(rate_table(ri, _fresh_copy(obj)))
                           for ri in _members_on(family, obj)] for obj in (state, channel)}
    assert {ri.name for obj in (state, channel) for ri in _members_on(family, obj)} == set(family)

    calls = []
    real_purify, real_channel_state, real_svd = module.purify, module.channel_state, np.linalg.svd

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(module, "purify", counted("purify", real_purify))
    monkeypatch.setattr(module, "channel_state", counted("channel_state", real_channel_state))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", real_svd))
    for obj, built_by in ((state, "purify"), (channel, "channel_state")):
        calls.clear()
        tables = [rate_table(ri, obj) for ri in _members_on(family, obj)]
        assert calls == [built_by, "svd", "svd", "svd"]
        # pickle writes each float's 8 bytes: the tables are bitwise equal
        assert [pickle.dumps(table) for table in tables] == expected[obj.name]


@pytest.mark.parametrize("part", [True, 10 ** 400], ids=["boolean", "past-a-float"])
def test_a_registry_data_part_that_is_no_float_exits_2(capsys, tmp_path, part):
    from qfamily import cli

    path = tmp_path / "f.json"
    path.write_text(json.dumps([{"name": "s", "kind": "state", "dims": [1, 1],
                                 "data": [[part, 0]]}]))
    with pytest.raises(ValidationError, match="numbers that fit a float"):
        load_registry(path)
    code = cli.main(["rates", "--ri", "mother", "--state", "s", "--registry", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == ("error: s: data must be a list of [re, im] pairs of numbers "
                   "that fit a float\n")


def test_a_name_used_twice_in_one_registry_exits_2(capsys, tmp_path, objects):
    from qfamily import cli

    state = {**registry_entry_json(objects["bell"]), "name": "s"}
    channel = {**registry_entry_json(objects["identity"]), "name": "s"}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps([state, channel]))
    with pytest.raises(ValidationError, match="names 's' twice"):
        load_registry(path)
    code = cli.main(["rates", "--ri", "eq1", "--state", "s", "--registry", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: registry {path} names 's' twice\n"
