"""Mechanical derivation of the protocol family by composition and rewriting.

The five primitives, held in the read-only mapping `PRIMITIVES`, are

    mother:  1/2*I(A:E) [q->q] + {qq}    >=  1/2*I(A:B) [qq]
    father:  1/2*I(A:E) [qq]   + {q->q}  >=  1/2*I(A:B) [q->q]
    tp:      2 [c->c] + [qq]             >=! [q->q]
    sd:      [q->q] + [qq]               >=! 2 [c->c]
    qe:      [q->q]                      >=! [qq]

and every child is produced by a short script of rewrites, each of which is
arithmetic on the two resource vectors: sequential composition
(append/prepend a tool protocol at some rate, both through the one primitive
`_compose`, which subtracts the covered part of the facing side and moves
the rest across), catalytic cancellation of equal terms on both sides
(licensed only asymptotically), wasting (adding unused inputs), and the two
coherentification rules, held as data in the one table `RULES` built from a
cobit's worth `COBIT_WORTH`: they move the net resources of `coherent`,
which sends a cobit for each classical bit and gives the circuit lab's
coherent rows their targets, at that worth.  Each operation records a
replayable trace step, an `algebra.DerivationStep`, unless `replay` calls it
traced=False; `grammar`, which this module imports and which never imports
it, writes traces as JSON and reads them back.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import MappingProxyType

from . import grammar
from .algebra import (
    AlgebraError,
    CBIT,
    CoeffLike,
    EBIT,
    EntropicExpr,
    HALF,
    I_AB,
    I_AE,
    I_COH,
    Mode,
    NOISY_CHANNEL,
    NOISY_STATE,
    QUBIT_CHANNEL,
    COBIT,
    DerivationStep,
    Record,
    ResourceInequality,
    ResourceKind,
    ResourceVector,
    StepKind,
    ZERO,
    as_expr,
    vec,
)


class DerivationError(ValueError):
    """A rewrite whose preconditions do not hold."""


def _with_step(base: ResourceInequality, result: ResourceInequality,
               kind: StepKind, tool: str, multiplier: EntropicExpr) -> ResourceInequality:
    step = DerivationStep(kind, tool, multiplier, base.bare(), result)
    return ResourceInequality(result.name, result.lhs, result.rhs, result.mode, result.flags,
                              base.trace + (step,))


@contextmanager
def _algebra_errors():
    """Report an invalid vector (e.g. a fractional count of noisy copies)
    met inside a rewrite as a failed precondition of that rewrite."""
    try:
        yield
    except AlgebraError as exc:
        raise DerivationError(str(exc)) from exc


def _check_multiplier(k: EntropicExpr):
    if k.is_definitely_negative():
        raise DerivationError(f"multiplier {k} is negative")


# Step kind of each composition -> the verb that names its result.  The
# names are part of the JSON wire format.
_COMPOSITIONS = {
    StepKind.APPEND: "append",
    StepKind.APPLY_QE_FRACTION: "append",
    StepKind.PREPEND: "prepend",
}


def _compose(base: ResourceInequality, tool: ResourceInequality, k: CoeffLike,
             step_kind: StepKind, traced: bool = True) -> ResourceInequality:
    """Compose `tool`, scaled by k, with `base`: after it for APPEND and
    APPLY_QE_FRACTION, before it for PREPEND.

    The side of the tool that meets the base (its inputs when appended, its
    outputs when prepended) is matched kind by kind against the facing side
    of the base; whatever the facing side cannot cover moves to the base's
    other side.  The tool's far side joins the facing side.  A matched term
    keeps its formal remainder (e.g. consuming 1/2*I(A:E) of a 1/2*I(A:B)
    output leaves Ic(A>B)).
    """
    k = as_expr(k)
    if k.is_zero:
        return base
    _check_multiplier(k)
    verb = _COMPOSITIONS[step_kind]
    with _algebra_errors():
        need, supply = tool.lhs.scale(k), tool.rhs.scale(k)
        meets, far, facing, other = ((supply, need, base.lhs, base.rhs) if verb == "prepend"
                                     else (need, supply, base.rhs, base.lhs))
        facing, rest = dict(facing.terms), []
        for kind, amount in meets.terms:
            # the side covers all of `amount`, unless it lacks the kind or would
            # be left definitely negative: then it covers all it has
            have = facing.get(kind, ZERO)
            covered = have if have.is_zero or (have - amount).is_definitely_negative() else amount
            facing[kind] = have - covered
            rest.append((kind, amount - covered))
        facing = ResourceVector(tuple(facing.items()) + far.terms)
        other = ResourceVector(other.terms + tuple(rest))
    lhs, rhs = (facing, other) if verb == "prepend" else (other, facing)
    mode = Mode.EXACT if base.mode is Mode.EXACT and tool.mode is Mode.EXACT else Mode.ASYMPTOTIC
    result = ResourceInequality(f"{verb}({base.name},{tool.name})", lhs, rhs, mode)
    return _with_step(base, result, step_kind, tool.name, k) if traced else result


def append(base: ResourceInequality, tool: ResourceInequality, k: CoeffLike) -> ResourceInequality:
    """Run `tool` (scaled by k) on the outputs of `base`; tool inputs the
    outputs cannot cover become inputs of the composite."""
    return _compose(base, tool, k, StepKind.APPEND)


def prepend(base: ResourceInequality, tool: ResourceInequality, k: CoeffLike) -> ResourceInequality:
    """Run `tool` (scaled by k) first, feeding its outputs into `base`; tool
    outputs the base does not consume become outputs of the composite."""
    return _compose(base, tool, k, StepKind.PREPEND)


def cancel(ri: ResourceInequality, kind: ResourceKind, amount: CoeffLike,
           traced: bool = True) -> ResourceInequality:
    """Catalytic cancellation: subtract `amount` of `kind` from both sides.

    Recycling a returned resource is licensed only for asymptotic
    inequalities, so EXACT inputs are rejected.
    """
    amount = as_expr(amount)
    if amount.is_zero:
        return ri
    if ri.mode is Mode.EXACT:
        raise DerivationError("catalysis requires asymptotic mode")
    _check_multiplier(amount)
    for side_name, side in (("left", ri.lhs), ("right", ri.rhs)):
        have = side.coeff(kind)
        if have.is_zero:
            raise DerivationError(f"cannot cancel {kind.token}: absent from {side_name} side")
        if (have - amount).is_definitely_negative():
            raise DerivationError(
                f"cannot cancel {amount} of {kind.token}: {side_name} side only has {have}"
            )
    with _algebra_errors():
        spent = vec(amount, kind)
        result = ResourceInequality(ri.name, ri.lhs - spent, ri.rhs - spent, ri.mode)
    return _with_step(ri, result, StepKind.CANCEL, kind.token, amount) if traced else result


def waste(ri: ResourceInequality, vector: ResourceVector, traced: bool = True) -> ResourceInequality:
    """Consume `vector` in addition to the existing inputs and discard it."""
    if vector.is_empty:
        return ri
    for kind, coeff in vector.terms:
        if coeff.is_definitely_negative():
            raise DerivationError(f"waste vector has negative {kind.token} coefficient")
    result = ResourceInequality(f"waste({ri.name})", ri.lhs + vector, ri.rhs, ri.mode)
    return (_with_step(ri, result, StepKind.WASTE, grammar.format_vector(vector), as_expr(1))
            if traced else result)


# A cobit [q->qq] is worth half a qubit channel plus half an ebit, by the
# catalytic equivalence 2 [q->qq] == [q->q] + [qq].
COBIT_WORTH = vec(HALF, QUBIT_CHANNEL) + vec(HALF, EBIT)
_SPENT_CBIT = vec(-1, CBIT)


class _Rule(Record):
    """A coherentification rule as data: per unit of [c->c] it replaces, the
    vectors added to the left and right sides.  Rule I makes an input bit a
    cobit and re-homes the cobit's ebit half as an output; rule O makes an
    output bit a cobit.  `name` prefixes the result's name (JSON wire format)
    and its RuleFlags field, which certifies the condition `certified`."""

    _fields = ("name", "certified", "lhs", "rhs")

    def __init__(self, name: str, certified: str, lhs: ResourceVector, rhs: ResourceVector):
        vars(self).update(name=name, certified=certified, lhs=lhs, rhs=rhs)


RULES = {
    StepKind.RULE_I: _Rule(
        "rule_I", "uniform+decoupled",
        vec(HALF, QUBIT_CHANNEL) + _SPENT_CBIT,
        vec(HALF, EBIT),
    ),
    StepKind.RULE_O: _Rule("rule_O", "decoupled", ResourceVector(), COBIT_WORTH + _SPENT_CBIT),
}


def _apply_rule(ri: ResourceInequality, step_kind: StepKind, traced: bool = True) -> ResourceInequality:
    rule = RULES[step_kind]
    if not getattr(ri.flags, f"{rule.name}_ok"):
        raise DerivationError(f"protocol not certified {rule.certified} ({rule.name.replace('_', ' ')})")
    c = (ri.rhs if rule.lhs.coeff(CBIT).is_zero else ri.lhs).coeff(CBIT)
    if c.is_zero:
        return ri
    lhs, rhs = ri.lhs + rule.lhs.scale(c), ri.rhs + rule.rhs.scale(c)
    result = ResourceInequality(f"{rule.name}({ri.name})", lhs, rhs, Mode.ASYMPTOTIC)
    return _with_step(ri, result, step_kind, "", c) if traced else result


def apply_rule_I(ri: ResourceInequality) -> ResourceInequality:
    """Coherentify input classical bits by the RULES entry for rule I.

    Requires the rule_I_ok certification (uniform message, decoupled at the
    end).  An inequality with no classical input passes through unchanged.
    """
    return _apply_rule(ri, StepKind.RULE_I)


def apply_rule_O(ri: ResourceInequality) -> ResourceInequality:
    """Coherentify output classical bits by the RULES entry for rule O.

    Requires the rule_O_ok certification (message decoupled from the
    remaining quantum system, hence private).  No classical output: no-op.
    """
    return _apply_rule(ri, StepKind.RULE_O)


# ---------------------------------------------------------------------------
# The primitives and the scripted family
# ---------------------------------------------------------------------------


# The five primitives, keyed by name; read-only, as every derivation and
# every replayed trace shares them.
PRIMITIVES = MappingProxyType({ri.name: ri for ri in (
    ResourceInequality("mother", vec(I_AE * HALF, QUBIT_CHANNEL) + vec(1, NOISY_STATE),
                       vec(I_AB * HALF, EBIT)),
    ResourceInequality("father", vec(I_AE * HALF, EBIT) + vec(1, NOISY_CHANNEL),
                       vec(I_AB * HALF, QUBIT_CHANNEL)),
    ResourceInequality("tp", vec(2, CBIT) + vec(1, EBIT), vec(1, QUBIT_CHANNEL), Mode.EXACT),
    ResourceInequality("sd", vec(1, QUBIT_CHANNEL) + vec(1, EBIT), vec(2, CBIT), Mode.EXACT),
    ResourceInequality("qe", vec(1, QUBIT_CHANNEL), vec(1, EBIT), Mode.EXACT),
)})


# A cobit applied to |+> makes an ebit (exact, single-shot; verified gate by gate in circuits).
COBIT_EBIT = ResourceInequality("cobit_ebit", vec(1, COBIT), vec(1, EBIT), Mode.EXACT)


def coherent(ri: ResourceInequality) -> ResourceInequality:
    """`ri` with cobits sent in place of classical bits: each [c->c] it
    consumes becomes a [q->qq] and returns a [qq] (rule I), and each [c->c]
    it produces becomes a [q->qq] (rule O).  Exact where `ri` is."""
    spent, made = ri.lhs.coeff(CBIT), ri.rhs.coeff(CBIT)
    cobits = vec(1, COBIT) + _SPENT_CBIT
    return ResourceInequality(f"coherent_{ri.name}", ri.lhs + cobits.scale(spent),
                              ri.rhs + cobits.scale(made) + vec(spent, EBIT), ri.mode)


def derive_family() -> dict[str, ResourceInequality]:
    """All scripted derivations, traces included.

    Children: eq1 (classical-communication-assisted quantum transmission
    over a noisy state), eq2 (one-way distillation at the hashing rate),
    eq3 (noisy super-dense coding), eq4 (entanglement-assisted classical
    coding), eq5 (unassisted quantum capacity), plus eq1 re-derived from
    eq2 and the three reverse coherentifications (rules I and O: the net of
    `coherent` at a cobit's worth) that regenerate the parents.  Certification flags
    are asserted per protocol: eq2 and eq1 carry rule_I_ok, eq3 and eq4
    carry rule_O_ok, eq5 carries none (an irreversible transformation cannot
    regenerate its parent).
    """
    mother, father = PRIMITIVES["mother"], PRIMITIVES["father"]
    tp, sd, qe = PRIMITIVES["tp"], PRIMITIVES["sd"], PRIMITIVES["qe"]

    eq1 = cancel(append(mother, tp, I_AB * HALF), QUBIT_CHANNEL, I_AE * HALF)
    eq1 = eq1.with_name("eq1").with_flags(rule_I_ok=True)

    eq2 = cancel(prepend(mother, tp, I_AE * HALF), EBIT, I_AE * HALF)
    eq2 = eq2.with_name("eq2").with_flags(rule_I_ok=True)

    eq3 = append(mother, sd, I_AB * HALF).with_name("eq3").with_flags(rule_O_ok=True)
    eq4 = append(father, sd, I_AB * HALF).with_name("eq4").with_flags(rule_O_ok=True)

    eq5 = _compose(father, qe, I_AE * HALF, StepKind.APPLY_QE_FRACTION)
    eq5 = cancel(eq5, EBIT, I_AE * HALF).with_name("eq5")

    eq1_via_eq2 = append(eq2, tp, I_COH).with_name("eq1_via_eq2")
    mother_via_rule_I = apply_rule_I(eq2).with_name("mother_via_rule_I")
    mother_via_rule_O = cancel(apply_rule_O(eq3), QUBIT_CHANNEL, I_AB * HALF)
    mother_via_rule_O = mother_via_rule_O.with_name("mother_via_rule_O")
    father_via_rule_O = cancel(apply_rule_O(eq4), EBIT, I_AB * HALF)
    father_via_rule_O = father_via_rule_O.with_name("father_via_rule_O")

    out = dict(PRIMITIVES)
    for ri in (eq1, eq2, eq3, eq4, eq5, eq1_via_eq2,
               mother_via_rule_I, mother_via_rule_O, father_via_rule_O):
        out[ri.name] = ri
    return out


FAMILY_ORDER = ("mother", "father", "tp", "sd", "qe", "eq1", "eq2", "eq3", "eq4", "eq5")


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------


def _execute_step(step: DerivationStep) -> ResourceInequality:
    base = step.before
    if step.kind in _COMPOSITIONS:
        if step.tool not in PRIMITIVES:
            raise DerivationError(f"trace references unknown tool {step.tool!r}")
        return _compose(base, PRIMITIVES[step.tool], step.multiplier, step.kind, traced=False)
    if step.kind in RULES:
        return _apply_rule(base, step.kind, traced=False)
    if step.kind is StepKind.CANCEL:
        return cancel(base, grammar.resource_from_token(step.tool), step.multiplier, traced=False)
    if step.kind is StepKind.WASTE:
        return waste(base, grammar.parse_vector(step.tool), traced=False)
    raise DerivationError(f"unknown step kind {step.kind}")


def replay(trace: tuple[DerivationStep, ...]) -> ResourceInequality:
    """Re-execute a trace from its first snapshot, checking every step's
    statement (no trace is built).  Raises DerivationError if any re-executed step disagrees with its stored
    `after` snapshot or if consecutive steps do not chain.
    """
    if not trace:
        raise DerivationError("empty trace")
    state = trace[0].before
    for i, step in enumerate(trace):
        if not state.same_statement(step.before):
            raise DerivationError(f"step {i}: chained state disagrees with snapshot")
        state = _execute_step(step)
        if not state.same_statement(step.after):
            raise DerivationError(f"step {i}: replayed {step.kind.value} disagrees with snapshot")
    return state


def render_trace(ri: ResourceInequality, indent: str = "  ") -> str:
    """Human-readable trace: one rewrite per line."""
    if not ri.trace:
        return f"{indent}(primitive)"
    lines = [f"{indent}start: {grammar.format_ri(ri.trace[0].before)}"]
    for step in ri.trace:
        if step.kind in _COMPOSITIONS:
            what = f"{step.kind.value.lower()} {step.tool} x {grammar.format_expr(step.multiplier)}"
        elif step.kind is StepKind.CANCEL:
            what = f"cancel {grammar.format_expr(step.multiplier)} {step.tool} on both sides"
        elif step.kind is StepKind.WASTE:
            what = f"waste {step.tool}"
        else:
            what = f"{step.kind.value.lower().replace('_', ' ')} on {grammar.format_expr(step.multiplier)} [c->c]"
        lines.append(f"{indent}{what}  ->  {grammar.format_ri(step.after)}")
    return "\n".join(lines)
