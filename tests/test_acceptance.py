"""Acceptance suite: one test per criterion, one printed line per criterion."""

import argparse
import importlib
import itertools
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

from qfamily.algebra import (
    CBIT,
    EBIT,
    Gen,
    HALF,
    I_AB,
    I_AE,
    NOISY_CHANNEL,
    NOISY_STATE,
    QUBIT_CHANNEL,
    ResourceTag,
    StepKind,
    dual,
    vec,
)
from qfamily.channels import rate_table, sweep, sweep_csv
from qfamily.circuits import (
    PLUS,
    _COHERENT_SD,
    _COHERENT_TP,
    run_coherent_superdense,
    run_coherent_teleportation,
    run_superdense,
    run_teleportation,
    demo_rule_I_on_teleportation,
    demo_rule_O_on_superdense,
    run_entanglement_distribution,
    verify_all,
)
from qfamily.derivation import (
    PRIMITIVES,
    apply_rule,
    cancel,
    derive_family,
    replay,
    waste,
)
from qfamily.entropy import evaluate, evaluate_raw, random_tripartite_state
from qfamily.rng import SplitMix64
from test_channels import example_objects
from test_derivation import step_flow_discrepancy
from test_rng import random_pure

FAMILY = derive_family()


def _announce(number: int, text: str):
    print(f"\ncriterion {number}: PASS — {text}")


def q(p_over_q: str) -> Fraction:
    return Fraction(p_over_q)


def as_fractions(expr) -> dict:
    """An expression's nonzero coefficients as `Fraction`s, by generator."""
    return {gen: Fraction(*pair) for gen, pair in expr.as_pairs().items()}


GOLDEN_SIDES = {
    "eq1": (
        {CBIT: {Gen.H_A: q("1"), Gen.H_B: q("1"), Gen.H_E: q("-1")},
         NOISY_STATE: {Gen.CONST: q("1")}},
        {QUBIT_CHANNEL: {Gen.H_B: q("1"), Gen.H_E: q("-1")}},
    ),
    "eq2": (
        {CBIT: {Gen.H_A: q("1"), Gen.H_B: q("-1"), Gen.H_E: q("1")},
         NOISY_STATE: {Gen.CONST: q("1")}},
        {EBIT: {Gen.H_B: q("1"), Gen.H_E: q("-1")}},
    ),
    "eq3": (
        {QUBIT_CHANNEL: {Gen.H_A: q("1")}, NOISY_STATE: {Gen.CONST: q("1")}},
        {CBIT: {Gen.H_A: q("1"), Gen.H_B: q("1"), Gen.H_E: q("-1")}},
    ),
    "eq4": (
        {EBIT: {Gen.H_A: q("1")}, NOISY_CHANNEL: {Gen.CONST: q("1")}},
        {CBIT: {Gen.H_A: q("1"), Gen.H_B: q("1"), Gen.H_E: q("-1")}},
    ),
    "eq5": (
        {NOISY_CHANNEL: {Gen.CONST: q("1")}},
        {QUBIT_CHANNEL: {Gen.H_B: q("1"), Gen.H_E: q("-1")}},
    ),
}


def test_criterion_1_family_tree_exact():
    for name, (lhs, rhs) in GOLDEN_SIDES.items():
        ri = FAMILY[name]
        assert {k: as_fractions(v) for k, v in ri.lhs.terms} == lhs, name
        assert {k: as_fractions(v) for k, v in ri.rhs.terms} == rhs, name
    _announce(1, "eq1-eq5 match the golden coefficient maps exactly")


def test_criterion_2_coherentification_round_trips():
    mother, father = PRIMITIVES["mother"], PRIMITIVES["father"]

    regained = apply_rule(FAMILY["eq2"], StepKind.RULE_I)
    assert regained.lhs == mother.lhs and regained.rhs == mother.rhs

    regained = cancel(apply_rule(FAMILY["eq3"], StepKind.RULE_O), QUBIT_CHANNEL, I_AB * HALF)
    assert regained.lhs == mother.lhs and regained.rhs == mother.rhs

    regained = cancel(apply_rule(FAMILY["eq4"], StepKind.RULE_O), EBIT, I_AB * HALF)
    assert regained.lhs == father.lhs and regained.rhs == father.rhs

    assert dual(mother).lhs == father.lhs and dual(mother).rhs == father.rhs

    def quantum(side):
        return tuple((kind, coeff) for kind, coeff in side.terms if kind.tag is not ResourceTag.CBIT)

    dual_eq3 = dual(FAMILY["eq3"])
    assert quantum(dual_eq3.lhs) == quantum(FAMILY["eq4"].lhs)
    assert quantum(dual_eq3.rhs) == quantum(FAMILY["eq4"].rhs)

    wasted = waste(FAMILY["eq5"], vec(I_AE, CBIT))
    assert dual(wasted).same_statement(FAMILY["eq2"])
    _announce(2, "rule I/O round-trips, duality, and the wasteful dual hold exactly")


def test_criterion_3_entropic_identity_suite():
    rng = SplitMix64(2026)
    worst_sum = 0.0
    worst_diff = 0.0
    for _ in range(120):
        psi = random_tripartite_state(rng, rng.randint(2, 4), rng.randint(2, 4))
        assert psi.dims[2] <= 16
        i_ab = evaluate_raw("I(A:B)", psi)
        i_ae = evaluate_raw("I(A:E)", psi)
        worst_sum = max(worst_sum, abs(0.5 * i_ab + 0.5 * i_ae - evaluate_raw("H(A)", psi)))
        worst_diff = max(worst_diff, abs(0.5 * i_ab - 0.5 * i_ae - evaluate_raw("Ic(A>B)", psi)))
    assert worst_sum <= 1e-9
    assert worst_diff <= 1e-9
    _announce(3, f"120 random states: max violations {worst_sum:.2e}, {worst_diff:.2e}")


def test_criterion_4_channel_rates():
    params = [Fraction(i, 10) for i in range(11)]
    for row in sweep("erasure", params):
        p = row[0]
        assert abs(row[4] - (2 - 2 * p)) <= 1e-9   # I(A:B)
        assert abs(row[6] - (1 - 2 * p)) <= 1e-9   # Ic(A>B)
    identity_row = sweep("identity", [0.0])[0]
    assert abs(identity_row[4] - 2.0) <= 1e-9
    assert abs(identity_row[6] - 1.0) <= 1e-9
    # H(E) and I(A:E) of the identity are rounding noise, printed as 0
    csv_rows = sweep_csv("identity", [0, 0.5, 1]).splitlines()[1:]
    assert csv_rows == ["0,1,1,0,2,0,1", "0.5,1,1,0,2,0,1", "1,1,1,0,2,0,1"]
    # the parameter column is the user's input and is printed as given
    csv_rows = sweep_csv("identity", [1e-13, 0.5]).splitlines()[1:]
    assert csv_rows == ["1e-13,1,1,0,2,0,1", "0.5,1,1,0,2,0,1"]
    _announce(4, "erasure sweep matches Ic = 1-2p and I(A:B) = 2-2p; identity exact")


def test_criterion_5_circuit_suite():
    rng = SplitMix64(5)
    tp_fidelity = min(
        run.fidelity for run in run_teleportation([random_pure(rng, 2) for _ in range(50)])
    )
    assert tp_fidelity >= 1 - 1e-10

    for bits in itertools.product((0, 1), repeat=2):
        assert run_superdense(bits).values["decoded"] == bits

    qe = run_entanglement_distribution()
    assert qe.fidelity >= 1 - 1e-12

    [coherent_sd] = run_coherent_superdense(random_pure(rng, 4))
    assert coherent_sd.fidelity >= 1 - 1e-10
    assert coherent_sd.ledger.matches(_COHERENT_SD)

    [coherent_tp] = run_coherent_teleportation(random_pure(rng, 2))
    assert min(coherent_tp.fidelities["output"], coherent_tp.fidelities["residual"]) >= 1 - 1e-10
    assert coherent_tp.ledger.matches(_COHERENT_TP)

    [teleported], [coherent] = run_teleportation(PLUS), run_coherent_teleportation(PLUS)
    rule_i = demo_rule_I_on_teleportation(teleported, coherent)
    assert all(abs(p - 0.25) <= 1e-12 for p in rule_i.values["outcome_probabilities"].values())
    assert len(rule_i.values["outcome_probabilities"]) == 4
    assert rule_i.fidelities["overlap"] >= 1 - 1e-12

    sent = [run_superdense(bits) for bits in itertools.product((0, 1), repeat=2)]
    rule_o = demo_rule_O_on_superdense(sent, run_coherent_superdense(np.eye(4)))
    assert rule_o.passed
    assert rule_o.fidelities["overlap"] >= 1 - 1e-12
    assert min(rule_o.fidelities[bits] for bits in itertools.product((0, 1), repeat=2)) >= 1 - 1e-12

    report = verify_all(trials=50, seed=5)
    assert report["pass"]
    _announce(5, f"all protocols exact (worst teleportation fidelity {tp_fidelity:.15f})")


def _compatible_objects(ri, objects):
    tags = {kind.tag for side in (ri.lhs, ri.rhs) for kind, _ in side.terms}
    wants_state = ResourceTag.NOISY_STATE in tags
    wants_channel = ResourceTag.NOISY_CHANNEL in tags
    for obj in objects.values():
        if wants_state and obj.kind == "state":
            yield obj
        elif wants_channel and obj.kind == "channel":
            yield obj


def test_criterion_6_cross_layer_consistency():
    objects = example_objects()
    derived = [name for name, ri in FAMILY.items() if ri.trace]
    checked = 0
    worst = 0.0
    for name in derived:
        ri = FAMILY[name]
        replayed = replay(ri.trace)
        assert replayed.lhs == ri.lhs and replayed.rhs == ri.rhs
        for obj in _compatible_objects(ri, objects):
            psi = obj.psi

            def value(expr):
                return evaluate(expr, psi)

            for step in ri.trace:
                worst = max(worst, step_flow_discrepancy(step, value))
            for side, replayed_side in ((ri.lhs, replayed.lhs), (ri.rhs, replayed.rhs)):
                for kind, coeff in side.terms:
                    assert abs(value(coeff) - value(replayed_side.coeff(kind))) <= 1e-9
            table = rate_table(ri, obj)
            for side, entries in ((ri.lhs, table.lhs), (ri.rhs, table.rhs)):
                for (kind, coeff), entry in zip(side.terms, entries):
                    if entry.rate is not None:
                        assert abs(entry.rate - value(coeff)) <= 1e-9
            checked += 1
    assert worst <= 1e-9
    assert checked >= 20
    _announce(6, f"{checked} (inequality, object) pairs; worst step-flow gap {worst:.2e}")


def test_criterion_7_finite_blocklength_out_of_scope():
    import qfamily
    from qfamily import cli

    layers = {info.name for info in pkgutil.iter_modules(qfamily.__path__)}
    assert {"algebra", "grammar", "derivation", "entropy", "channels", "circuits", "cli"} <= layers
    names = [name for layer in layers for name in dir(importlib.import_module(f"qfamily.{layer}"))]
    verbs = next(action.choices for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert "family" in verbs
    assert not any("blocklength" in name or "coding" in name for name in [*names, *verbs])
    _announce(7, "finite-n parent coding intentionally absent; nothing claims it")
