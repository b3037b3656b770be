"""qfamily's records against the frozen dataclasses they replaced.

Each reference below is the dataclass a record class used to be, with its
qualified name, fields and defaults.  On drawn values, a record and its
reference (the same field values in the dataclass) must print the same
`repr`, compare and hash alike, refuse to set or delete a field, and survive
pickle and deepcopy the same way.  The numeric record, `TripartitePureState`,
compares and hashes by identity, as its `eq=False` dataclass did.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import subprocess
import sys
import types
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfamily import algebra, channels, circuits, derivation, entropy
from qfamily.algebra import Mode, StepKind
from test_channels import builtin_objects
from test_cli import _src_env
from test_entropy import reduced


@dataclass(frozen=True, init=False)
class EntropicExpr:
    _key: tuple = (0, 0, 0, 0, 1)


@dataclass(frozen=True)
class ResourceVector:
    terms: tuple = ()


@dataclass(frozen=True)
class RuleFlags:
    rule_I_ok: bool = False
    rule_O_ok: bool = False


@dataclass(frozen=True)
class ResourceInequality:
    name: str
    lhs: algebra.ResourceVector
    rhs: algebra.ResourceVector
    mode: Mode = Mode.ASYMPTOTIC
    flags: algebra.RuleFlags = field(default_factory=algebra.RuleFlags)
    trace: tuple = ()


@dataclass(frozen=True)
class DerivationStep:
    kind: StepKind
    tool: str
    multiplier: algebra.EntropicExpr
    before: algebra.ResourceInequality
    after: algebra.ResourceInequality


@dataclass(frozen=True)
class _Rule:
    name: str
    certified: str
    lhs: algebra.ResourceVector
    rhs: algebra.ResourceVector


@dataclass(frozen=True, eq=False)
class TripartitePureState:
    dims: tuple
    amplitudes: np.ndarray
    _marginal_entropies: dict = field(default_factory=dict, init=False, repr=False)


@dataclass(frozen=True)
class RegisteredObject:
    name: str
    kind: str
    psi: entropy.TripartitePureState


def _mirror(reference, record):
    """The reference dataclass holding the record's field values as they are;
    its own `__init__` does not run, so nothing is converted or checked."""
    mirrored = object.__new__(reference)
    for f in dataclasses.fields(reference):
        object.__setattr__(mirrored, f.name, getattr(record, f.name))
    return mirrored


# -- drawn values ------------------------------------------------------------

FAMILY = derivation.derive_family()
TRACED = [ri for ri in FAMILY.values() if ri.trace]
OBJECTS = list(builtin_objects().values())
# the states `purify` makes of the built-in states' AB marginals, and those
# `channel_state` makes of the identity channel and the built-in channels
PURIFIED = [entropy.purify(reduced(o.psi, "AB"), o.psi.dims[:2]) for o in OBJECTS if o.kind == "state"]
DILATED = [entropy.channel_state(channels.family_channel(family, p)) for family, p in (
    ("identity", 0.0), ("erasure", 0.25), ("dephasing", 0.3), ("amplitude_damping", 0.4))]

rationals = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
exprs = st.builds(algebra.EntropicExpr, st.tuples(rationals, rationals, rationals, rationals))
noiseless = st.sampled_from([algebra.CBIT, algebra.QUBIT_CHANNEL, algebra.EBIT, algebra.COBIT])
noisy = st.sampled_from([algebra.NOISY_STATE, algebra.NOISY_CHANNEL,
                         algebra.ResourceKind(algebra.ResourceTag.NOISY_STATE, "bell")])
terms = st.one_of(st.tuples(noiseless, exprs), st.tuples(noisy, st.integers(0, 2)))
vectors = st.builds(algebra.ResourceVector, st.lists(terms, max_size=3).map(tuple))
flags = st.builds(algebra.RuleFlags, st.booleans(), st.booleans())
names = st.sampled_from(["mother", "eq1", "dual(tp)"])
statements = st.builds(algebra.ResourceInequality, names, vectors, vectors, st.sampled_from(Mode), flags)
inequalities = st.one_of(statements, st.sampled_from(list(FAMILY.values())))
steps = st.one_of(
    st.builds(algebra.DerivationStep, st.sampled_from(StepKind), st.sampled_from(["tp", "[qq]", ""]),
              exprs, statements, statements),
    st.sampled_from([step for ri in TRACED for step in ri.trace]),
)
rules = st.one_of(
    st.sampled_from(list(derivation.RULES.values())),
    st.builds(derivation._Rule, st.sampled_from(["rule_I", "rule_O"]), st.just("decoupled"),
              vectors, vectors),
)
registered = st.sampled_from(OBJECTS)
# one RegisteredObject record holds both kinds; each kind is its own case
REGISTERED_KINDS = {"RegisteredState": "state", "RegisteredChannel": "channel"}


def _registered_of(kind):
    of_kind = st.sampled_from([o for o in OBJECTS if o.kind == kind])
    renamed = st.builds(lambda o, name: channels.RegisteredObject(name, o.kind, o.psi), of_kind, names)
    return st.one_of(of_kind, renamed)


CASES = {
    "EntropicExpr": (algebra.EntropicExpr, EntropicExpr, exprs),
    "ResourceVector": (algebra.ResourceVector, ResourceVector, vectors),
    "RuleFlags": (algebra.RuleFlags, RuleFlags, flags),
    "ResourceInequality": (algebra.ResourceInequality, ResourceInequality, inequalities),
    "DerivationStep": (algebra.DerivationStep, DerivationStep, steps),
    "_Rule": (derivation._Rule, _Rule, rules),
    "TripartitePureState": (entropy.TripartitePureState, TripartitePureState,
                            st.sampled_from(PURIFIED + [o.psi for o in OBJECTS] + DILATED)),
}
CASES.update({case: (channels.RegisteredObject, RegisteredObject, _registered_of(kind))
              for case, kind in REGISTERED_KINDS.items()})


@pytest.mark.parametrize("name", CASES)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_the_frozen_dataclass_it_replaced(name, data):
    cls, reference, values = CASES[name]
    assert cls.__qualname__ == reference.__qualname__ == ("RegisteredObject" if name in REGISTERED_KINDS else name)
    by_value = reference.__dataclass_params__.eq
    a, b = data.draw(values), data.draw(values)
    ref_a = _mirror(reference, a)
    ref_b = ref_a if b is a else _mirror(reference, b)  # one object, one mirror
    assert type(a) is cls and not dataclasses.is_dataclass(a)
    if name in REGISTERED_KINDS:
        assert a.kind == b.kind == REGISTERED_KINDS[name]

    assert repr(a) == repr(ref_a)
    for x, y, ref_x, ref_y in ((a, b, ref_a, ref_b), (a, a, ref_a, ref_a), (b, a, ref_b, ref_a)):
        assert (x == y) is (ref_x == ref_y) and (x != y) is (ref_x != ref_y)
    assert a.__eq__(ref_a) is NotImplemented and ref_a.__eq__(a) is NotImplemented
    assert hash(a) == (hash(ref_a) if by_value else object.__hash__(a))

    for f in dataclasses.fields(reference):
        for obj in (a, ref_a):
            with pytest.raises(AttributeError):
                setattr(obj, f.name, None)
            with pytest.raises(AttributeError):
                delattr(obj, f.name)
    assert repr(a) == repr(ref_a)

    for clone, ref_clone in ((pickle.loads(pickle.dumps(a)), pickle.loads(pickle.dumps(ref_a))),
                             (copy.deepcopy(a), copy.deepcopy(ref_a))):
        assert type(clone) is cls and repr(clone) == repr(ref_clone)
        assert (clone == a) is (ref_clone == ref_a)
        assert (hash(clone) == hash(a)) is (clone == a)
        with pytest.raises(AttributeError):
            setattr(clone, dataclasses.fields(reference)[0].name, None)


def test_the_program_loads_no_dataclass_and_no_json():
    """After `import qfamily.cli`, no qfamily module attribute is a
    dataclass: the rate table's two load with `channels`, for `rates` and
    `sweep` only.  `json`, which only the verbs that print or read JSON use,
    is not loaded."""
    code = ("import dataclasses, sys, qfamily.cli\n"
            "found = {name for module, m in list(sys.modules.items()) if module.startswith('qfamily')\n"
            "        for name, value in vars(m).items()\n"
            "        if isinstance(value, type) and dataclasses.is_dataclass(value)}\n"
            "print(sorted(found), 'json' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), check=True)
    assert proc.stdout == "[] False\n"


def _observed(obj, other) -> tuple:
    """What a caller can see of a record without reading its `__dict__`."""
    clone = copy.deepcopy(obj)
    return (obj == obj, obj == other, other == obj, hash(obj), repr(obj), pickle.dumps(obj),
            type(clone), repr(clone), sorted(vars(clone)), clone == obj)


def _fill_state(psi):
    entropy.entropy_triple(psi)
    entropy.evaluate_raw("I(A:B)", psi)


@pytest.mark.parametrize("make, fill, slots", [
    (lambda: builtin_objects()["erasure_p25"].psi, _fill_state,
     ["_entropy_triple", "_marginal_entropies"]),
    # a record that writes out no `__reduce__`: only `Record.__getstate__`
    # leaves its kept counts out of a copy
    (lambda: derivation.coherent(derivation.PRIMITIVES["sd"]), circuits._wanted_counts,
     ["_wanted_counts"]),
], ids=["TripartitePureState", "ResourceInequality"])
def test_what_a_record_keeps_cannot_be_observed(make, fill, slots):
    obj, other = make(), make()
    before = _observed(obj, other)
    fill(obj)
    assert all(vars(obj)[slot] for slot in slots)  # the cache is filled
    assert _observed(obj, other) == before
    clone = copy.deepcopy(obj)
    assert not any(vars(clone).get(slot) for slot in slots)
    fill(clone)
    for slot in slots:
        assert vars(clone)[slot] is not vars(obj)[slot]
    for name in (*obj._fields, *slots, "anything"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


# each state a copy is taken of, named for what it was made of: a density
# operator (through `purify`), a built-in object, or a quantum channel
# (through `channel_state`)
COPIED = {
    **{f"DensityOp{i}": psi for i, psi in enumerate(PURIFIED)},
    **{f"TripartitePureState{i}": o.psi for i, o in enumerate(OBJECTS)},
    **{f"QuantumChannel{i}": psi for i, psi in enumerate(DILATED)},
}


@pytest.mark.parametrize("obj", list(COPIED.values()), ids=list(COPIED))
def test_a_copy_of_a_validated_object_is_built_again_and_read_only(obj):
    for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(clone) is type(obj) and clone is not obj and repr(clone) == repr(obj)
        arrays = [a for value in clone._values() for a in (value if type(value) is tuple else [value])
                  if isinstance(a, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)


def _arrays_in(value, seen):
    """The ndarrays in `value`, in the values of a mapping and the items of a
    tuple or list, however deep."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (dict, types.MappingProxyType)):
        for item in value.values():
            yield from _arrays_in(item, seen)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays_in(item, seen)


def test_no_module_holds_a_writable_array():
    """A module constant is shared by every caller in the process: with
    `circuits.BELL` writable, `circuits.BELL[3] = -1` made entanglement
    distribution read fidelity 0.0 and `verify_all` fail."""
    import qfamily

    found = 0
    for info in pkgutil.iter_modules(qfamily.__path__):
        module = importlib.import_module(f"qfamily.{info.name}")
        for name, value in vars(module).items():
            for array in _arrays_in(value, set()):
                found += 1
                assert not array.flags.writeable, f"{info.name}.{name}"
    assert found >= 12  # the gates, rows and Paulis, and the rows scaled from them
