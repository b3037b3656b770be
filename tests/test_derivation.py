import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qfamily.algebra import (
    AlgebraError,
    CBIT,
    COBIT,
    DerivationStep,
    EBIT,
    Gen,
    HALF,
    H_A,
    H_B,
    H_E,
    I_AB,
    I_AE,
    I_COH,
    Mode,
    NOISY_CHANNEL,
    NOISY_STATE,
    QUBIT_CHANNEL,
    ResourceVector,
    StepKind,
    dual,
    vec,
)
from qfamily.derivation import (
    DerivationError,
    append,
    apply_rule_I,
    apply_rule_O,
    cancel,
    COBIT_WORTH,
    coherent,
    derive_family,
    FAMILY_ORDER,
    PRIMITIVES,
    RULES,
    _COMPOSITIONS,
    prepend,
    replay,
    waste,
)
from qfamily.entropy import evaluate, random_tripartite_state
from qfamily.grammar import ParseError, parse_ri, parse_vector
from qfamily.rng import SplitMix64


def expand_cobits(vector):
    """Replace c [q->qq] by c times COBIT_WORTH."""
    c = vector.coeff(COBIT)
    return vector + (COBIT_WORTH + vec(-1, COBIT)).scale(c)


def step_flow_discrepancy(step, value_fn) -> float:
    """Largest per-kind violation of the step's resource-flow arithmetic,
    with coefficients mapped to floats by `value_fn`.

    Every rewrite obeys (lhs_after - lhs_before) + (rhs_before - rhs_after)
    = k * (L - R), the net resources the step injects: L and R are the tool's
    inputs and outputs for compositions, the rule's table entries for the
    rules, the wasted vector and nothing for WASTE (k = 1), and nothing for
    CANCEL.  This holds independently of how matching was resolved.
    """
    injected_lhs = injected_rhs = ResourceVector()
    if step.kind in _COMPOSITIONS:
        injected_lhs, injected_rhs = PRIMITIVES[step.tool].lhs, PRIMITIVES[step.tool].rhs
    elif step.kind in RULES:
        injected_lhs, injected_rhs = RULES[step.kind].lhs, RULES[step.kind].rhs
    elif step.kind is StepKind.WASTE:
        injected_lhs = parse_vector(step.tool)
    k = value_fn(step.multiplier)
    sides = (step.before.lhs, step.before.rhs, step.after.lhs, step.after.rhs)
    kinds = {kind for side in sides for kind, _ in side.terms}
    worst = 0.0
    for kind in kinds:
        lhs_delta = value_fn(step.after.lhs.coeff(kind)) - value_fn(step.before.lhs.coeff(kind))
        rhs_delta = value_fn(step.before.rhs.coeff(kind)) - value_fn(step.after.rhs.coeff(kind))
        injected = k * (value_fn(injected_lhs.coeff(kind)) - value_fn(injected_rhs.coeff(kind)))
        worst = max(worst, abs(lhs_delta + rhs_delta - injected))
    return worst


@pytest.fixture(scope="module")
def family():
    return derive_family()


@pytest.fixture(scope="module")
def registry():
    return PRIMITIVES


# -- golden statements -------------------------------------------------------

GOLDEN = {
    "eq1": "I(A:B) [c->c] + {qq} >= Ic(A>B) [q->q]",
    "eq2": "I(A:E) [c->c] + {qq} >= Ic(A>B) [qq]",
    "eq3": "H(A) [q->q] + {qq} >= I(A:B) [c->c]",
    "eq4": "H(A) [qq] + {q->q} >= I(A:B) [c->c]",
    "eq5": "{q->q} >= Ic(A>B) [q->q]",
}


@pytest.mark.parametrize("name,text", sorted(GOLDEN.items()))
def test_children_match_their_golden_statements(family, name, text):
    assert family[name].same_statement(parse_ri(text))


def test_eq2_canonical_coefficients(family):
    eq2 = family["eq2"]
    assert eq2.lhs.coeff(CBIT).as_pairs() == {Gen.H_A: (1, 1), Gen.H_B: (-1, 1), Gen.H_E: (1, 1)}
    assert eq2.rhs.coeff(EBIT).as_pairs() == {Gen.H_B: (1, 1), Gen.H_E: (-1, 1)}


def test_eq1_also_follows_from_eq2(family):
    assert family["eq1_via_eq2"].same_statement(family["eq1"])


def test_derived_children_are_asymptotic(family):
    for name in GOLDEN:
        assert family[name].mode is Mode.ASYMPTOTIC


# -- composition mechanics ---------------------------------------------------


def test_append_with_zero_multiplier_is_identity(registry):
    mother = registry["mother"]
    assert append(mother, registry["sd"], 0) is mother


def test_prepend_with_zero_multiplier_is_identity(registry):
    assert prepend(registry["mother"], registry["qe"], 0) is registry["mother"]


def test_appending_two_exacts_stays_exact(registry):
    composed = append(registry["qe"], registry["sd"], 1)
    assert composed.mode is Mode.EXACT
    # qe makes the ebit that sd consumes; the qubit channel input remains
    assert composed.lhs == vec(2, QUBIT_CHANNEL)
    assert composed.rhs == vec(2, CBIT)


def test_partial_match_keeps_formal_remainder(registry):
    # consuming the 1/2*I(A:E) fraction of father's qubit output via qe
    father, qe = registry["father"], registry["qe"]
    out = append(father, qe, I_AE * HALF)
    assert out.rhs.coeff(QUBIT_CHANNEL) == I_COH
    assert out.rhs.coeff(EBIT) == I_AE * HALF


def test_cancel_requires_asymptotic_mode(registry):
    with pytest.raises(DerivationError, match="asymptotic"):
        cancel(registry["tp"], EBIT, 1)


def test_cancel_zero_is_identity(registry):
    assert cancel(registry["mother"], NOISY_STATE, 0) is registry["mother"]


def test_cancel_missing_kind_rejected(registry):
    with pytest.raises(DerivationError, match="absent"):
        cancel(registry["mother"], CBIT, 1)


def test_cancel_more_than_present_rejected(registry):
    with pytest.raises(DerivationError, match="cannot cancel"):
        cancel(registry["mother"], NOISY_STATE, 2)


def test_waste_is_monotone_and_additive(family):
    eq5 = family["eq5"]
    wasted = waste(eq5, vec(I_AE, CBIT))
    assert wasted.lhs.coeff(CBIT) == I_AE
    assert wasted.rhs == eq5.rhs
    assert waste(eq5, vec(0, CBIT)).same_statement(eq5)


def test_waste_rejects_negative_vector(family):
    with pytest.raises(DerivationError, match="negative"):
        waste(family["eq5"], vec(-2, CBIT))


def test_wasted_eq5_is_dual_to_eq2(family):
    wasted = waste(family["eq5"], vec(I_AE, CBIT))
    assert dual(wasted).same_statement(family["eq2"])


def test_wasted_qe_is_dual_to_tp(registry):
    wasted = waste(registry["qe"], vec(2, CBIT))
    assert dual(wasted).same_statement(registry["tp"])
    assert dual(registry["sd"]).same_statement(registry["sd"])  # self-dual


# -- coherentification rules -------------------------------------------------


def test_rule_I_regenerates_mother_from_eq2(family, registry):
    assert apply_rule_I(family["eq2"]).same_statement(registry["mother"])


def test_rule_O_regenerates_mother_from_eq3(family, registry):
    rewritten = apply_rule_O(family["eq3"])
    assert cancel(rewritten, QUBIT_CHANNEL, I_AB * HALF).same_statement(registry["mother"])


def test_rule_O_regenerates_father_from_eq4(family, registry):
    rewritten = apply_rule_O(family["eq4"])
    assert cancel(rewritten, EBIT, I_AB * HALF).same_statement(registry["father"])


def test_rules_require_certification(family):
    eq5 = family["eq5"]
    with pytest.raises(DerivationError, match="not certified"):
        apply_rule_I(eq5)
    with pytest.raises(DerivationError, match="not certified"):
        apply_rule_O(eq5)


def test_rules_pass_through_without_classical_term(registry):
    mother = registry["mother"].with_flags(rule_I_ok=True, rule_O_ok=True)
    assert apply_rule_I(mother) is mother
    assert apply_rule_O(mother) is mother


def test_rule_I_on_certified_teleportation_gives_cobit_accounting(registry):
    toy = registry["tp"].with_flags(rule_I_ok=True)
    out = apply_rule_I(toy)
    assert out.lhs == vec(1, QUBIT_CHANNEL) + vec(1, EBIT)
    assert out.rhs == vec(1, QUBIT_CHANNEL) + vec(1, EBIT)


@pytest.mark.parametrize("rule, name", [(apply_rule_I, "tp"), (apply_rule_O, "sd")])
def test_rules_I_and_O_are_the_coherent_transform_with_cobits_at_their_worth(registry, rule, name):
    """Rule I on certified teleportation, and rule O on certified
    super-dense coding, move the same net resources (rhs - lhs) as `coherent`
    on the same primitive with each [q->qq] valued at COBIT_WORTH."""
    certified = registry[name].with_flags(rule_I_ok=True, rule_O_ok=True)
    ruled, made = rule(certified), coherent(certified)
    assert all(v.coeff(CBIT).is_zero for v in (made.lhs, made.rhs, ruled.lhs, ruled.rhs))
    assert expand_cobits(made.rhs) - expand_cobits(made.lhs) == ruled.rhs - ruled.lhs


# -- traces ------------------------------------------------------------------


def test_every_trace_replays_to_its_statement(family):
    for name, ri in family.items():
        if not ri.trace:
            continue
        assert replay(ri.trace).same_statement(ri), name


def test_replay_re_executes_bare_statements_and_builds_no_trace_step(family, monkeypatch):
    """replay checks each step's statement only: the trace step a rewrite
    records, which replay used to build and drop, is never built."""
    from qfamily import derivation

    traces = [ri.trace for ri in family.values() if ri.trace]
    traces.append(waste(family["tp"], vec(2, CBIT)).trace)
    kinds = {step.kind for trace in traces for step in trace}
    assert kinds == set(StepKind)
    replayed = [replay(trace) for trace in traces]

    def no_step(*args):
        raise AssertionError("replay built a trace step")

    monkeypatch.setattr(derivation, "_with_step", no_step)
    for trace, before in zip(traces, replayed):
        again = replay(trace)
        assert again.same_statement(trace[-1].after) and again.same_statement(before)
        assert again.trace == ()


def test_no_cancel_step_touches_an_exact_inequality(family):
    for ri in family.values():
        for step in ri.trace:
            if step.kind is StepKind.CANCEL:
                assert step.before.mode is Mode.ASYMPTOTIC


@pytest.mark.parametrize("tool", ["0", "2 [q->q]", "[q->q] + [qq]", "[q->q] "])
def test_replay_reads_a_cancel_tool_as_one_resource_token(family, tool):
    """eq1 cancels [q->q]; a tool that is not that one token is refused,
    not read as the first kind of a vector."""
    trace = family["eq1"].trace
    assert [step.kind for step in trace] == [StepKind.APPEND, StepKind.CANCEL]
    assert trace[1].tool == "[q->q]"
    step = trace[1]
    with pytest.raises(ParseError, match=re.escape(repr(tool))):
        replay((trace[0], DerivationStep(step.kind, tool, step.multiplier, step.before, step.after)))


def test_eq5_trace_uses_the_fractional_qe_step(family):
    kinds = [step.kind for step in family["eq5"].trace]
    assert kinds == [StepKind.APPLY_QE_FRACTION, StepKind.CANCEL]


def test_steps_chain_exactly(family):
    for ri in family.values():
        for first, second in zip(ri.trace, ri.trace[1:]):
            assert first.after.same_statement(second.before)
        if ri.trace:
            assert ri.trace[-1].after.same_statement(ri)


def test_family_table_has_the_ten_canonical_entries(family):
    assert FAMILY_ORDER == (
        "mother", "father", "tp", "sd", "qe", "eq1", "eq2", "eq3", "eq4", "eq5",
    )
    assert set(FAMILY_ORDER) <= set(family)


def test_certification_flags_are_asserted_data(family):
    assert family["eq1"].flags.rule_I_ok and not family["eq1"].flags.rule_O_ok
    assert family["eq2"].flags.rule_I_ok
    assert family["eq3"].flags.rule_O_ok
    assert family["eq4"].flags.rule_O_ok
    assert not family["eq5"].flags.rule_I_ok and not family["eq5"].flags.rule_O_ok


def test_dual_fixes_classical_parts_of_eq3_eq4(family):
    assert dual(family["eq3"]).same_statement(family["eq4"])
    assert dual(dual(family["eq3"])).same_statement(family["eq3"])


def test_noisy_handles_must_match_for_composition():
    from qfamily.algebra import ResourceInequality, ResourceKind, ResourceTag

    alpha = ResourceKind(ResourceTag.NOISY_STATE, "alpha")
    beta = ResourceKind(ResourceTag.NOISY_STATE, "beta")
    pinned = ResourceInequality(
        name="pinned",
        lhs=vec(1, alpha),
        rhs=vec(1, EBIT),
    )
    other = ResourceInequality(
        name="other",
        lhs=vec(1, EBIT),
        rhs=vec(1, beta),
    )
    composed = prepend(pinned, other, 1)
    # different handles do not merge: both noisy terms survive
    assert composed.lhs.coeff(alpha).as_constant() == 1
    assert composed.lhs.coeff(EBIT).as_constant() == 1
    assert composed.rhs.coeff(beta).as_constant() == 1


# -- random rewrite scripts --------------------------------------------------

STARTS = derive_family()
MULTIPLIERS = st.one_of(
    st.fractions(min_value=0, max_value=3, max_denominator=4),
    st.sampled_from([I_AB * HALF, I_AE * HALF, I_AE, I_COH, H_A]),
)
SCRIPT_STEPS = st.one_of(
    st.tuples(st.just("append"), st.sampled_from(sorted(PRIMITIVES)), MULTIPLIERS),
    st.tuples(st.just("prepend"), st.sampled_from(sorted(PRIMITIVES)), MULTIPLIERS),
    st.tuples(st.just("cancel"), st.integers(0, 5), st.sampled_from([1, HALF, Fraction(1, 3)])),
    st.tuples(st.just("waste"), st.sampled_from([CBIT, QUBIT_CHANNEL, EBIT, COBIT]), MULTIPLIERS),
    st.tuples(st.just("rule_I"), st.none(), st.none()),
    st.tuples(st.just("rule_O"), st.none(), st.none()),
)


def _run_step(ri, step):
    op, what, k = step
    if op == "append":
        return append(ri, PRIMITIVES[what], k)
    if op == "prepend":
        return prepend(ri, PRIMITIVES[what], k)
    if op == "cancel":
        rhs_kinds = [kind for kind, _ in ri.rhs.terms]
        shared = [kind for kind, _ in ri.lhs.terms if kind in rhs_kinds] or [CBIT]
        kind = shared[what % len(shared)]
        return cancel(ri, kind, ri.lhs.coeff(kind) * k)
    if op == "waste":
        return waste(ri, vec(k, what))
    if op == "rule_I":
        return apply_rule_I(ri.with_flags(rule_I_ok=True))
    return apply_rule_O(ri.with_flags(rule_O_ok=True))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from(sorted(STARTS)), st.lists(SCRIPT_STEPS, max_size=6), st.integers(0, 2**32))
def test_random_rewrite_scripts_replay_and_balance(start, script, seed):
    ri = STARTS[start]
    for step in script:
        try:
            ri = _run_step(ri, step)
        except DerivationError:
            continue
    if not ri.trace:
        return
    assert replay(ri.trace).same_statement(ri)
    rng = SplitMix64(seed)
    psi = random_tripartite_state(rng, rng.randint(2, 3), rng.randint(2, 3))
    entropies = tuple(evaluate(h, psi) for h in (H_A, H_B, H_E))
    for step in ri.trace:
        assert step_flow_discrepancy(step, lambda e: e.value(*entropies)) <= 1e-9


# -- composition against its first, seven-vector form ------------------------


def _seven_vector_composition(base, tool, k, prepending):
    """Reference: the composition's two result sides built from whole
    vectors (two scalings, the covered part, and two per side)."""
    need, supply = tool.lhs.scale(k), tool.rhs.scale(k)
    meets, far, facing, other = ((supply, need, base.lhs, base.rhs) if prepending
                                 else (need, supply, base.rhs, base.lhs))
    covered = ResourceVector(tuple(
        (kind, have if have.is_zero or (have - amount).is_definitely_negative() else amount)
        for kind, amount in meets.terms for have in (facing.coeff(kind),)))
    facing, other = facing - covered + far, other + (meets - covered)
    return (facing, other) if prepending else (other, facing)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(sorted(STARTS)), st.sampled_from(sorted(PRIMITIVES)), MULTIPLIERS, st.booleans())
def test_composition_matches_the_seven_vector_form_and_its_errors(start, tool, k, prepending):
    base, tool = STARTS[start], PRIMITIVES[tool]
    try:
        want = _seven_vector_composition(base, tool, k, prepending)
    except AlgebraError as exc:
        with pytest.raises(DerivationError) as raised:
            (prepend if prepending else append)(base, tool, k)
        assert str(raised.value) == str(exc)
        return
    got = (prepend if prepending else append)(base, tool, k)
    assert (got.lhs, got.rhs) == want
