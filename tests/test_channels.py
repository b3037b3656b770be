import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfamily.algebra import H_A, H_B, H_E, I_AB, I_AE, I_COH
from qfamily.channels import (
    BUILTIN_OBJECTS,
    CHANNEL_FAMILIES,
    SWEEP_CHUNK,
    RegisteredObject,
    family_channel,
    family_object,
    load_registry,
    rate_table,
    sweep,
    sweep_csv,
    sweep_csv_chunks,
)
from qfamily.derivation import derive_family
from qfamily.entropy import (
    TripartitePureState,
    ValidationError,
    channel_entropy_triples,
    channel_state,
    entropy_triple,
)
from test_entropy import entropy, reduced
from qfamily.rng import SplitMix64
from test_rng import random_density, random_unitary


def builtin_objects() -> dict[str, RegisteredObject]:
    """Every built-in object, each built as `rates` builds the one it picks."""
    return {name: family_object(name, *row) for name, row in BUILTIN_OBJECTS.items()}


def example_objects() -> dict[str, RegisteredObject]:
    """The built-in objects, and the identity channel as `--channel identity` makes it."""
    return {**builtin_objects(), "identity": family_object("identity", "channel", "identity", 0.0)}


def registry_entry_json(obj) -> dict:
    """A registered object in the JSON layout `load_registry` reads: a
    state's AB marginal, or the Kraus operators of a channel read off its
    channel state, K_e[b, a] = sqrt(d_in) psi[a, b, e]."""
    d_a, d_b, d_e = obj.psi.dims
    if obj.kind == "state":
        flat, dims = reduced(obj.psi, "AB").reshape(-1), [d_a, d_b]
    else:
        kraus = math.sqrt(d_a) * obj.psi.tensor().transpose(2, 1, 0)
        flat, dims = kraus.reshape(-1), [d_a, d_b, d_e]
    return {"name": obj.name, "kind": obj.kind, "dims": dims,
            "data": [[z.real, z.imag] for z in flat]}


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


def test_a_grid_of_whole_chunks_ends_without_an_empty_stack():
    # sweep_csv_chunks reads one more, empty, chunk after the last full one
    assert sweep("erasure", []) == []
    text = sweep_csv("erasure", [k / SWEEP_CHUNK for k in range(SWEEP_CHUNK)])
    assert len(text.splitlines()) == SWEEP_CHUNK + 1


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
    stack = np.stack([family_channel(family, p) for p in grid])
    member = data.draw(st.integers(0, len(grid) - 1))
    if fault == "NaN":
        stack[member, 0, 0, 0] = math.nan
    else:
        stack[member] *= 1.01
    message = _raised(lambda: channel_state(stack[member]))
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
    return example_objects()


def test_eq5_rate_on_identity_channel(family, objects):
    table = rate_table(family["eq5"], objects["identity"])
    assert table.rhs[0].kind_token == "[q->q]"
    assert abs(table.rhs[0].rate - 1.0) < 1e-9
    assert table.lhs[0].copies == 1


def test_eq5_rate_on_quarter_erasure(family, objects):
    table = rate_table(family["eq5"], objects["erasure_p25"])
    assert abs(table.rhs[0].rate - 0.5) < 1e-9


def test_eq4_rate_on_fully_depolarizing_channel(family):
    useless = RegisteredObject("depolarizing_p100", "channel",
                               channel_state(family_channel("depolarizing", 1.0)))
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
    psi = obj.psi
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
    for name, obj in objects.items():
        assert loaded[name].kind == obj.kind
        ours, theirs = (reduced(o.psi, "AB") for o in (loaded[name], obj))
        assert np.max(np.abs(ours - theirs)) < 1e-12
    erasure = loaded["erasure_p25"]
    assert np.max(np.abs(erasure.psi.amplitudes - objects["erasure_p25"].psi.amplitudes)) < 1e-12


def test_registry_rejects_malformed_entries(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"name": "x", "kind": "spin", "dims": [2], "data": []}]))
    with pytest.raises(ValidationError, match="unknown kind"):
        load_registry(path)


def test_identity_channel_arbitrary_dimension():
    psi = channel_state((np.eye(3),))
    assert abs(entropy(reduced(psi, "A")) - math.log2(3)) < 1e-9


# -- what a registered object computes once -------------------------------------


def _members_on(family, obj):
    """The family members whose table `obj` can carry: all but those whose
    noisy resource needs the other kind of object."""
    other = "{q->q}" if obj.kind == "state" else "{qq}"
    return [ri for ri in family.values()
            if all(kind.token != other for kind, _ in ri.lhs.terms)]


def _fresh_copy(obj):
    """The same object with its state built again, with nothing computed."""
    return RegisteredObject(obj.name, obj.kind, TripartitePureState(obj.psi.dims, obj.psi.amplitudes))


@pytest.mark.parametrize("source", ["builtin", "registry"])
def test_tables_on_one_object_purify_or_dilate_it_once(monkeypatch, tmp_path, family, source):
    """Each object is purified or dilated once, where it is registered, and
    its tables then take the three SVDs of one entropy triple."""
    from qfamily import channels as module

    path = tmp_path / "registry.json"
    path.write_text(json.dumps([registry_entry_json(obj) for obj in builtin_objects().values()]))
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
    objects = builtin_objects() if source == "builtin" else load_registry(path)
    purified = "purify" if source == "registry" else "channel_state"
    assert calls == [purified if obj.kind == "state" else "channel_state" for obj in objects.values()]

    state, channel = objects["erasure_state_p25"], objects["amplitude_damping_p40"]
    expected = {obj.name: [pickle.dumps(rate_table(ri, _fresh_copy(obj)))
                           for ri in _members_on(family, obj)] for obj in (state, channel)}
    assert {ri.name for obj in (state, channel) for ri in _members_on(family, obj)} == set(family)
    for obj in (state, channel):
        calls.clear()
        tables = [rate_table(ri, obj) for ri in _members_on(family, obj)]
        assert calls == ["svd", "svd", "svd"]
        # pickle writes each float's 8 bytes: the tables are bitwise equal
        assert [pickle.dumps(table) for table in tables] == expected[obj.name]


def test_built_in_objects_and_their_tables_take_no_density_check_or_factorisation(
        monkeypatch, family):
    """A built-in state is its channel's state as it is: no density matrix is
    checked, nothing is purified, and no `eigh` or Cholesky runs, either to
    build the six objects or to make a table on each."""
    from qfamily import channels as module, entropy as engine

    def refused(*args, **kwargs):
        raise AssertionError("a built-in object needs no density check or factorisation")

    for where, name in ((engine, "_check_density"), (module, "purify"), (engine, "purify"),
                        (np.linalg, "eigh"), (np.linalg, "cholesky")):
        monkeypatch.setattr(where, name, refused)
    objects = builtin_objects()
    for obj in objects.values():
        rate_table(family["eq5" if obj.kind == "channel" else "eq1"], obj)
    monkeypatch.undo()
    sources = {"bell": ("identity", 0.0), "erasure_state_p25": ("erasure", 0.25),
               "depolarizing_state_p50": ("depolarizing", 0.5)}
    for name, (channel_family, p) in sources.items():
        assert objects[name].kind == "state"
        expected = channel_state(family_channel(channel_family, p))
        assert objects[name].psi.dims == expected.dims
        assert objects[name].psi.amplitudes.tobytes() == expected.amplitudes.tobytes()


def test_each_object_is_checked_once_and_its_state_is_not_checked_again(monkeypatch, tmp_path):
    """The built-in objects, a family point and a registry of two states and
    two channels take one `_check_channels` or `_check_density` each, and no
    `TripartitePureState` constructor: the check of a Kraus stack or a
    density matrix bounds the norm of its state."""
    from qfamily import entropy as engine

    def entry(name, kind, dims, array):
        return {"name": name, "kind": kind, "dims": dims,
                "data": [[z.real, z.imag] for z in array.reshape(-1)]}

    rng = SplitMix64(37)
    path = tmp_path / "registry.json"
    path.write_text(json.dumps([
        entry("state0", "state", [2, 2], random_density(rng, 4)),
        entry("state1", "state", [2, 3], random_density(rng, 6)),
        entry("channel0", "channel", [2, 2, 2], random_unitary(rng, 4)[:, :2].reshape(2, 2, 2)),
        entry("channel1", "channel", [2, 3, 2], random_unitary(rng, 6)[:, :2].reshape(2, 3, 2)),
    ]))
    checks = []
    for name in ("_check_channels", "_check_density"):
        def counted(*args, name=name, real=getattr(engine, name)):
            checks.append(name)
            return real(*args)
        monkeypatch.setattr(engine, name, counted)

    def refused(*args, **kwargs):
        raise AssertionError("the state of a checked object is checked again")

    monkeypatch.setattr(engine.TripartitePureState, "__init__", refused)
    objects = [*builtin_objects().values(),
               family_object("depolarizing(p=0.5)", "channel", "depolarizing", 0.5),
               *load_registry(path).values()]
    assert checks == ["_check_channels"] * 7 + ["_check_density"] * 2 + ["_check_channels"] * 2
    for obj in objects:
        amplitudes = obj.psi.amplitudes
        assert type(obj.psi) is TripartitePureState and amplitudes.base is None
        assert not amplitudes.flags.writeable
        assert abs(np.linalg.norm(obj.psi.amplitudes) - 1) <= 1e-12


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
