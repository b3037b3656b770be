"""qfamily's records against the frozen dataclasses they replaced.

Each reference below is the dataclass a record class used to be, with its
qualified name, fields and defaults.  On drawn values, a record and its
reference (the same field values in the dataclass) must print the same
`repr`, compare and hash alike, refuse to set or delete a field, and survive
pickle and deepcopy the same way.  The numeric classes compare and hash by
identity, as their `eq=False` dataclasses did.
"""

import copy
import dataclasses
import pickle
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfamily import algebra, channels, derivation, entropy
from qfamily.algebra import Mode, StepKind
from test_cli import _src_env


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
class DensityOp:
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class TripartitePureState:
    dims: tuple
    amplitudes: np.ndarray
    _marginal_entropies: dict = field(default_factory=dict, init=False, repr=False)


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    kraus: tuple


@dataclass(frozen=True)
class RegisteredState:
    name: str
    rho: entropy.DensityOp
    split: tuple

    kind = "state"


@dataclass(frozen=True)
class RegisteredChannel:
    name: str
    channel: entropy.QuantumChannel

    kind = "channel"


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
OBJECTS = list(channels.builtin_objects().values())

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
states = st.sampled_from([o for o in OBJECTS if o.kind == "state"])
registered_channels = st.sampled_from([o for o in OBJECTS if o.kind == "channel"])
renamed_states = st.builds(lambda o, name: channels.RegisteredState(name, o.rho, o.split), states, names)
renamed_channels = st.builds(lambda o, name: channels.RegisteredChannel(name, o.channel),
                             registered_channels, names)

CASES = {
    "EntropicExpr": (algebra.EntropicExpr, EntropicExpr, exprs),
    "ResourceVector": (algebra.ResourceVector, ResourceVector, vectors),
    "RuleFlags": (algebra.RuleFlags, RuleFlags, flags),
    "ResourceInequality": (algebra.ResourceInequality, ResourceInequality, inequalities),
    "DerivationStep": (algebra.DerivationStep, DerivationStep, steps),
    "_Rule": (derivation._Rule, _Rule, rules),
    "DensityOp": (entropy.DensityOp, DensityOp, states.map(lambda o: o.rho)),
    "TripartitePureState": (entropy.TripartitePureState, TripartitePureState,
                            registered.map(lambda o: o.tripartite())),
    "QuantumChannel": (entropy.QuantumChannel, QuantumChannel, registered_channels.map(lambda o: o.channel)),
    "RegisteredState": (channels.RegisteredState, RegisteredState, st.one_of(states, renamed_states)),
    "RegisteredChannel": (channels.RegisteredChannel, RegisteredChannel,
                          st.one_of(registered_channels, renamed_channels)),
}


@pytest.mark.parametrize("name", CASES)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_the_frozen_dataclass_it_replaced(name, data):
    cls, reference, values = CASES[name]
    assert cls.__qualname__ == reference.__qualname__ == name
    by_value = reference.__dataclass_params__.eq
    a, b = data.draw(values), data.draw(values)
    ref_a = _mirror(reference, a)
    ref_b = ref_a if b is a else _mirror(reference, b)  # one object, one mirror
    assert type(a) is cls and not dataclasses.is_dataclass(a)

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


def test_the_program_loads_two_dataclasses_and_no_json():
    """After `import qfamily.cli`, the only dataclasses among qfamily's
    module attributes are the rate table's two, and `json`, which only the
    verbs that print or read JSON use, is not loaded."""
    code = ("import dataclasses, sys, qfamily.cli\n"
            "found = {name for module, m in list(sys.modules.items()) if module.startswith('qfamily')\n"
            "        for name, value in vars(m).items()\n"
            "        if isinstance(value, type) and dataclasses.is_dataclass(value)}\n"
            "print(sorted(found), 'json' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), check=True)
    assert proc.stdout == "['RateEntry', 'RateTable'] False\n"


def _observed(obj, other) -> tuple:
    """What a caller can see of a record without reading its `__dict__`."""
    clone = copy.deepcopy(obj)
    return (obj == obj, obj == other, other == obj, hash(obj), repr(obj), pickle.dumps(obj),
            type(clone), repr(clone), sorted(vars(clone)), clone == obj)


def _fill_tripartite(obj):
    obj.tripartite()


def _fill_state(psi):
    entropy.entropy_triple(psi)
    entropy.evaluate_raw("I(A:B)", psi)


@pytest.mark.parametrize("make, fill, slots", [
    (lambda: channels.builtin_objects()["erasure_state_p25"], _fill_tripartite, ["_tripartite"]),
    (lambda: channels.builtin_objects()["dephasing_p30"], _fill_tripartite, ["_tripartite"]),
    (lambda: channels.builtin_objects()["erasure_p25"].tripartite(), _fill_state,
     ["_entropy_triple", "_marginal_entropies"]),
], ids=["RegisteredState", "RegisteredChannel", "TripartitePureState"])
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


@pytest.mark.parametrize("obj", [o.rho for o in OBJECTS if o.kind == "state"]
                         + [o.tripartite() for o in OBJECTS]
                         + [o.channel for o in OBJECTS if o.kind == "channel"],
                         ids=lambda o: type(o).__name__)
def test_a_copy_of_a_validated_object_is_built_again_and_read_only(obj):
    for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(clone) is type(obj) and clone is not obj and repr(clone) == repr(obj)
        arrays = [a for value in clone._values() for a in (value if type(value) is tuple else [value])
                  if isinstance(a, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)
