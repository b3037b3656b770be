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
coherentification rules of the table `RULES`.  Both rules are read, at
import, off `coherent`, which sends a cobit for each classical bit and gives
the circuit lab's coherent rows their targets: each is `coherent` on one
[c->c], consumed for rule I and produced for rule O, with a cobit valued at
its worth `COBIT_WORTH`, itself read off coherent super-dense coding.  No
rule vector is written by hand.  Each operation records a replayable trace
step, an `algebra.DerivationStep`, unless `replay` calls it traced=False;
`grammar`, which this module imports and which never imports it, writes
traces as JSON and reads them back.  `claims` checks the paper's claims
about the family: the dualities, and that each re-derivation
`<target>_via_<how>` states its target.
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
    dual,
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


# ---------------------------------------------------------------------------
# The primitives, the rules that coherent communication gives, and the family
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
    cobits = vec(1, COBIT) + vec(-1, CBIT)
    return ResourceInequality(f"coherent_{ri.name}", ri.lhs + cobits.scale(spent),
                              ri.rhs + cobits.scale(made) + vec(spent, EBIT), ri.mode)


# A cobit [q->qq] is worth what super-dense coding, made coherent, spends per
# cobit it sends: 1/2 [q->q] + 1/2 [qq].
_COHERENT_SD = coherent(PRIMITIVES["sd"])
COBIT_WORTH = _COHERENT_SD.lhs.scale(1 / _COHERENT_SD.rhs.coeff(COBIT).as_constant())


def _rule_vectors(lhs: ResourceVector, rhs: ResourceVector) -> tuple[ResourceVector, ResourceVector]:
    """What `coherent` adds to the two sides of `lhs >= rhs`, with each
    [q->qq] valued at COBIT_WORTH and the ebit that both sides hold cancelled."""
    made, cobit = coherent(ResourceInequality("unit", lhs, rhs)), COBIT_WORTH - vec(1, COBIT)
    lhs, rhs = (new + cobit.scale(new.coeff(COBIT)) - old
                for new, old in ((made.lhs, lhs), (made.rhs, rhs)))
    shared = vec(min(lhs.coeff(EBIT).as_constant(), rhs.coeff(EBIT).as_constant()), EBIT)
    return lhs - shared, rhs - shared


class _Rule(Record):
    """A coherentification rule: per [c->c] it replaces, the vectors added to
    the two sides.  `name` prefixes the result's name (JSON wire format) and
    its RuleFlags field, which certifies the condition `certified`."""

    _fields = ("name", "certified", "lhs", "rhs")

    def __init__(self, name: str, certified: str, lhs: ResourceVector, rhs: ResourceVector):
        vars(self).update(name=name, certified=certified, lhs=lhs, rhs=rhs)


# Rule I makes a consumed [c->c] a cobit, rule O a produced one: each is
# `coherent` on that one bit, at a cobit's worth.
RULES = {
    StepKind.RULE_I: _Rule("rule_I", "uniform+decoupled", *_rule_vectors(vec(1, CBIT), ResourceVector())),
    StepKind.RULE_O: _Rule("rule_O", "decoupled", *_rule_vectors(ResourceVector(), vec(1, CBIT))),
}


def apply_rule(ri: ResourceInequality, step_kind: StepKind, traced: bool = True) -> ResourceInequality:
    """Coherentify the [c->c] that `ri` consumes (RULE_I; certified uniform
    and decoupled at the end) or produces (RULE_O; certified decoupled from
    the remaining quantum system, hence private) by its RULES entry.  With no
    [c->c] on that side, `ri` passes through unchanged."""
    rule = RULES[step_kind]
    if not getattr(ri.flags, f"{rule.name}_ok"):
        raise DerivationError(f"protocol not certified {rule.certified} ({rule.name.replace('_', ' ')})")
    c = (ri.rhs if rule.lhs.coeff(CBIT).is_zero else ri.lhs).coeff(CBIT)
    if c.is_zero:
        return ri
    lhs, rhs = ri.lhs + rule.lhs.scale(c), ri.rhs + rule.rhs.scale(c)
    result = ResourceInequality(f"{rule.name}({ri.name})", lhs, rhs, Mode.ASYMPTOTIC)
    return _with_step(ri, result, step_kind, "", c) if traced else result


def derive_family() -> dict[str, ResourceInequality]:
    """All scripted derivations, traces included.

    Children: eq1 (classical-communication-assisted quantum transmission
    over a noisy state), eq2 (one-way distillation at the hashing rate),
    eq3 (noisy super-dense coding), eq4 (entanglement-assisted classical
    coding), eq5 (unassisted quantum capacity), plus four re-derivations,
    each named `<target>_via_<how>` for `claims` to check: eq1 from eq2, and
    the three reverse coherentifications (rules I and O: `coherent` at a
    cobit's worth) that regenerate the parents.  Certification flags are
    asserted per protocol: eq2 and eq1 carry rule_I_ok, eq3 and eq4
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
    mother_via_rule_I = apply_rule(eq2, StepKind.RULE_I).with_name("mother_via_rule_I")
    mother_via_rule_O = cancel(apply_rule(eq3, StepKind.RULE_O), QUBIT_CHANNEL, I_AB * HALF)
    mother_via_rule_O = mother_via_rule_O.with_name("mother_via_rule_O")
    father_via_rule_O = cancel(apply_rule(eq4, StepKind.RULE_O), EBIT, I_AB * HALF)
    father_via_rule_O = father_via_rule_O.with_name("father_via_rule_O")

    children = (eq1, eq2, eq3, eq4, eq5, eq1_via_eq2, mother_via_rule_I, mother_via_rule_O, father_via_rule_O)
    return {**PRIMITIVES, **{ri.name: ri for ri in children}}


FAMILY_ORDER = ("mother", "father", "tp", "sd", "qe", "eq1", "eq2", "eq3", "eq4", "eq5")

# Duality claims (a, b, wasted): the dual of b, with `wasted` (if any) added
# to its inputs, states a.
DUALITY_CLAIMS = (("mother", "father", None), ("eq3", "eq4", None), ("sd", "sd", None),
                  ("tp", "qe", vec(2, CBIT)), ("eq2", "eq5", vec(I_AE, CBIT)))


def claims(family: dict[str, ResourceInequality]) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """The paper's claims about `family` that hold, and those that fail, as
    (kind, claim) pairs.  Each row of DUALITY_CLAIMS is a "duality" claim;
    each member named `<target>_via_<how>` makes a "regeneration" claim,
    that it states `<target>`."""
    held, failed = [], []
    for a, b, wasted in DUALITY_CLAIMS:
        other = family[b] if wasted is None else waste(family[b], wasted)
        claim = (f"{a} self-dual" if a == b else f"{a} <-> {b}" if wasted is None
                 else f"{a} <-> {b} after wasting {grammar.format_vector(wasted)}")
        (held if dual(other).same_statement(family[a]) else failed).append(("duality", claim))
    for name, ri in family.items():
        target, via, _ = name.partition("_via_")
        if via:
            holds = ri.same_statement(family[target])
            claim = f"{name} {'states' if holds else 'does not state'} {target}"
            (held if holds else failed).append(("regeneration", claim))
    return held, failed


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
        return apply_rule(base, step.kind, traced=False)
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
