"""Mutants of `src/qfamily` that the checks must catch, and their runner.

Each entry of MUTANTS replaces one exact text in one file of `src/` and
names the checks that must then fail: commands, each run with the Python
that runs this script, which must exit nonzero and print the given text;
and pytest test ids, each of which must fail.  `source` quotes the
CHANGES.md entry that the mutant comes from: its opening words, then the
words that name the mutant.

Run from the repository root, with numpy, pytest and hypothesis installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the mutants named

The runner copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory and first runs every named check there, unmutated: each must
pass.  Then, for each mutant, it applies the mutant to a fresh copy and runs
only that mutant's checks.  It prints one line per mutant and exits 1 if a
check fails on the unmutated tree or passes on its mutant.
"""

import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in `file`
    new: str
    source: tuple[str, ...]  # quotations from CHANGES.md
    commands: tuple[tuple[str, str], ...] = ()  # (arguments to Python, text the run must print)
    tests: tuple[str, ...] = ()  # pytest ids, each of which must fail


DERIVATION, ALGEBRA = "src/qfamily/derivation.py", "src/qfamily/algebra.py"
ENTROPY, CIRCUITS = "src/qfamily/entropy.py", "src/qfamily/circuits.py"
CHANNELS, CLI = "src/qfamily/channels.py", "src/qfamily/cli.py"
GRAMMAR = "src/qfamily/grammar.py"
FAMILY = "-m qfamily.cli family"
VERIFY_CIRCUITS = "-m qfamily.cli verify-circuits --trials 5 --seed 1"
SYMBOLIC = "tests/check_symbolic.py"
RULES_ARE_COHERENT = "Rules I and O are `coherent` at a cobit's worth"
WRITTEN_ONCE = "Teleportation and super-dense coding are written once each"
CONE_TESTS = tuple(f"tests/test_derivation.py::{name}" for name in (
    "test_composition_refuses_minus_I_AB_as_a_multiplier",
    "test_cancel_refuses_minus_I_AB_as_an_amount",
    "test_waste_refuses_minus_I_AB_as_a_coefficient",
    "test_replay_refuses_a_hand_edited_step_with_multiplier_minus_I_AB",
    "test_the_sign_test_is_sound_and_complete_on_the_entropy_cone",
))
SEARCH_TEST = "tests/test_derivation.py::test_mother_and_father_generate_the_five_children_within_two_moves"
CHECKED_ONCE = "One checked numeric object"
CHECKED_ONCE_TEST = "tests/test_channels.py::test_each_object_is_checked_once_and_its_state_is_not_checked_again"
NO_ENTROPIES = "The circuit lab computes no entropies"
ONE_CLAIM = "One claim for every quantum resource in the circuit lab"
ONE_PASS_RULE = "One pass rule in the circuit lab"
CIRCUIT_TESTS = "tests/test_circuits.py::"
BUILT_ONCE = "Each registered object builds its pure state once"
RUNS_ONCE = "Each protocol circuit runs once per `verify_all`"
NO_NUMERIC_CODE = "Symbolic verbs load no numeric code"
ONE_PLACE = "One pass rule in one place"
CLAIM_BAR_TEST = CIRCUIT_TESTS + "test_one_claim_bar_books_a_near_exact_ebit_and_its_entry_still_fails"


def _regeneration_failed(member: str, target: str) -> tuple[str, str]:
    return FAMILY, f"regeneration failed: {member} does not state {target}"


MUTANTS = (
    Mutant(
        "coherent-returns-no-ebit", DERIVATION,
        "ri.rhs + cobits.scale(made) + vec(spent, EBIT), ri.mode)",
        "ri.rhs + cobits.scale(made), ri.mode)",
        (WRITTEN_ONCE, "`coherent` without its returned `[qq]`", RULES_ARE_COHERENT, "mutant (a)"),
        commands=(_regeneration_failed("mother_via_rule_I", "mother"), (VERIFY_CIRCUITS, ""), (SYMBOLIC, "")),
    ),
    Mutant(
        "coherent-half-the-produced-cobits", DERIVATION,
        "cobits.scale(made)",
        "cobits.scale(made * HALF)",
        (WRITTEN_ONCE, "`coherent` with half the produced cobits"),
        commands=((VERIFY_CIRCUITS, ""), (SYMBOLIC, "")),
    ),
    Mutant(
        "mother-via-rule-O-cancels-I(A:E)", DERIVATION,
        "cancel(apply_rule(eq3, StepKind.RULE_O), QUBIT_CHANNEL, I_AB * HALF)",
        "cancel(apply_rule(eq3, StepKind.RULE_O), QUBIT_CHANNEL, I_AE * HALF)",
        (RULES_ARE_COHERENT, "mutant (b)"),
        commands=(_regeneration_failed("mother_via_rule_O", "mother"),),
    ),
    Mutant(
        "eq1-via-eq2-at-I(A:B)", DERIVATION,
        "append(eq2, tp, I_COH)",
        "append(eq2, tp, I_AB * HALF)",
        (RULES_ARE_COHERENT, "mutant (c)"),
        commands=(_regeneration_failed("eq1_via_eq2", "eq1"),),
    ),
    Mutant(
        "coefficient-wise-sign-test", ALGEBRA,
        "return self._key != _ZERO_KEY and max(c, a + b, a + e, b + e) <= 0",
        "return max(self._key[:4]) <= 0 and min(self._key[:4]) < 0",
        (RULES_ARE_COHERENT, "the sign test put back to the coefficient-wise rule"),
        tests=CONE_TESTS,
    ),
    Mutant(
        "sd-makes-one-cbit", DERIVATION,
        'ResourceInequality("sd", vec(1, QUBIT_CHANNEL) + vec(1, EBIT), vec(2, CBIT), Mode.EXACT)',
        'ResourceInequality("sd", vec(1, QUBIT_CHANNEL) + vec(1, EBIT), vec(1, CBIT), Mode.EXACT)',
        (RULES_ARE_COHERENT, '`PRIMITIVES["sd"]` producing one `[c->c]`'),
        tests=(SEARCH_TEST,),
    ),
    Mutant(
        "tp-spends-one-cbit", DERIVATION,
        'ResourceInequality("tp", vec(2, CBIT)',
        'ResourceInequality("tp", vec(1, CBIT)',
        (RULES_ARE_COHERENT, '`PRIMITIVES["tp"]` consuming one `[c->c]`'),
        tests=(SEARCH_TEST,),
    ),
    Mutant(
        "channel-state-unchecked", ENTROPY,
        "    _check_channels(stack)\n",
        "",
        (CHECKED_ONCE, "`channel_state` without `_check_channels`"),
        tests=("tests/test_entropy.py::test_channel_trace_preservation_enforced", CHECKED_ONCE_TEST),
    ),
    Mutant(
        "purify-unchecked", ENTROPY,
        "    _check_density(m)\n",
        "",
        (CHECKED_ONCE, "`purify` without `_check_density`"),
        tests=("tests/test_entropy.py::test_density_invariants_enforced",
               "tests/test_entropy.py::test_density_check_decides_as_eigvalsh_does", CHECKED_ONCE_TEST),
    ),
    Mutant(
        "state-without-reduce", ENTROPY,
        "    def __reduce__(self):\n        return type(self), self._values()\n",
        "",
        (BUILT_ONCE, "no `__reduce__`",
         CHECKED_ONCE, "`TripartitePureState` without `__reduce__`"),
        tests=("tests/test_records.py::test_a_copy_of_a_validated_object_is_built_again_and_read_only",),
    ),
    Mutant(
        "apply-if-cz-for-x", CIRCUITS,
        "return (self.cnot if gate is _X else self.cz)(control, qubit)",
        "return self.cz(control, qubit)",
        (WRITTEN_ONCE, "`apply_if`'s control qubit taking CZ for X"),
        tests=("tests/test_circuits.py::test_kernels_match_a_dense_reference",),
    ),
    Mutant(
        "apply-if-unchecked-cnot", CIRCUITS,
        "(self.cnot if gate is _X",
        "(self._cnot_unchecked if gate is _X",
        (WRITTEN_ONCE, "taking the unchecked CNOT fails `test_gates_cannot_span_parties`"),
        tests=("tests/test_circuits.py::test_gates_cannot_span_parties",),
    ),
    Mutant(
        "entanglement-distribution-without-h", CIRCUITS,
        "    reg.h(q0)\n    reg.cnot(q0, q1)\n",
        "    reg.cnot(q0, q1)\n",
        (NO_ENTROPIES, "entanglement distribution without its `h`"),
        commands=((VERIFY_CIRCUITS, ""),),
        tests=(CIRCUIT_TESTS + "test_entanglement_distribution",),
    ),
    Mutant(
        "cobit-row-on-zero-for-plus", CIRCUITS,
        "inputs = np.array([(1.0, 0.0), (0.0, 1.0), PLUS])",
        "inputs = np.array([(1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])",
        (NO_ENTROPIES, "the cobit row's |+> input replaced by |0>"),
        commands=((VERIFY_CIRCUITS, ""),),
        tests=(CIRCUIT_TESTS + "test_cobit_creates_entanglement_from_plus",),
    ),
    Mutant(
        "claim-books-per-alice-qubit", CIRCUITS,
        "return self._claim(kind, len(bob),",
        "return self._claim(kind, len(alice),",
        (ONE_CLAIM, "`claim` booking per Alice qubit"),
        commands=((VERIFY_CIRCUITS, ""),),
        tests=(CIRCUIT_TESTS + "test_teleportation_ledger_matches_its_inequality",),
    ),
    Mutant(
        "claim-without-ownership-checks", CIRCUITS,
        "            self._require_owner(q, party)\n        return self._claim(",
        "            pass\n        return self._claim(",
        (ONE_CLAIM, "`claim` without its ownership checks (killed by a test only)"),
        tests=(CIRCUIT_TESTS + "test_claims_need_the_right_holders",),
    ),
    Mutant(
        "copies-as-a-product-target", CIRCUITS,
        "return (c[:, :, None] * np.eye(c.shape[1])).reshape(len(c), -1)",
        "return _kron_rows(c, c)",
        (ONE_CLAIM, "`_copies` as a product target"),
        commands=((VERIFY_CIRCUITS, ""),),
        tests=(CIRCUIT_TESTS + "test_the_two_pair_copies_target_is_two_interleaved_bell_pairs",),
    ),
    Mutant(
        "superdense-bell-against-phi-minus", CIRCUITS,
        "b.register.fidelity([a_half, b_half], BELL)",
        "b.register.fidelity([a_half, b_half], (1, 0, 0, -1))",
        (ONE_CLAIM, "the super-dense Bell fidelity taken against |Phi_->"),
        commands=((VERIFY_CIRCUITS, ""),),
        tests=(CIRCUIT_TESTS + "test_rule_O_demo_residual_is_message_independent",),
    ),
    Mutant(
        "residual-pairs-crossed", CIRCUITS,
        "reg.claim(EBIT, (msg, a_half), copies, pairs)",
        "reg.claim(EBIT, (msg, a_half), copies[::-1], pairs)",
        (ONE_CLAIM, "the residual pairs crossed"),
        commands=((VERIFY_CIRCUITS, ""),),
        tests=(CIRCUIT_TESTS + "test_coherent_teleportation_fixed_input",),
    ),
    Mutant(
        "scale-not-a-power-of-two", CIRCUITS,
        "np.ldexp(parts, -np.frexp(top)[1][:, None])",
        "(parts / (top[:, None] * 1.1))",
        (ONE_CLAIM, "an add_qubit scale that is not a power of two", ONE_PASS_RULE),
        commands=((VERIFY_CIRCUITS, ""),),
        tests=("tests/test_golden.py::test_circuit_report_matches_golden",),
    ),
    Mutant(
        "eq3-dual-to-eq5", DERIVATION,
        '("eq3", "eq4", None)',
        '("eq3", "eq5", None)',
        ("Each distinct symbolic value is converted once on the wire",
         "`family` (cli.py) prints `duality failed: <claim>` per failing claim and exits 1"),
        commands=((FAMILY, "duality failed: eq3 <-> eq5"),),
        tests=("tests/test_cli.py::test_the_program_prints_the_goldens_and_keeps_its_exit_codes",),
    ),
    Mutant(
        "registry-part-accepts-bool", CHANNELS,
        "    if type(x) not in (int, float):\n",
        "    if not isinstance(x, (int, float)):\n",
        (BUILT_ONCE, "bool accepted"),
        tests=("tests/test_channels.py::test_a_registry_data_part_that_is_no_float_exits_2",),
    ),
    Mutant(
        "registry-accepts-a-name-twice", CHANNELS,
        "        if name in registry:\n            raise ValidationError(f\"registry {path} names {name!r} twice\")\n",
        "",
        (BUILT_ONCE, "duplicates accepted"),
        tests=("tests/test_channels.py::test_a_name_used_twice_in_one_registry_exits_2",),
    ),
    Mutant(
        "record-without-getstate", ALGEBRA,
        "    def __getstate__(self) -> dict:\n"
        '        """The fields alone: what `_kept` holds is not copied."""\n'
        "        return {name: getattr(self, name) for name in self._fields}\n\n",
        "",
        (BUILT_ONCE, "no `__getstate__`"),
        tests=("tests/test_records.py::test_what_a_record_keeps_cannot_be_observed",),
    ),
    Mutant(
        "entropy-triple-kept-in-the-marginals-slot", ENTROPY,
        'psi._kept("_entropy_triple",',
        'psi._kept("_marginal_entropies",',
        (BUILT_ONCE, "the triple kept in `_marginal_entropies`"),
        tests=("tests/test_records.py::test_what_a_record_keeps_cannot_be_observed",),
    ),
    Mutant(
        "superdense-without-its-fix-up", CIRCUITS,
        "        _fix_up(branch.register, b_half, *branch.bits)\n    decoded = ",
        "    decoded = ",
        (RUNS_ONCE, "`run_superdense` without its fix-up"),
        commands=((VERIFY_CIRCUITS, ""),),
        tests=(CIRCUIT_TESTS + "test_rule_O_demo_residual_is_message_independent",),
    ),
    Mutant(
        "cli-loads-channels-at-start-up", CLI,
        "    from . import grammar\n",
        "    from . import channels, grammar\n",
        (NO_NUMERIC_CODE, "`from . import channels` put back into `cli.py`'s start-up block"),
        tests=("tests/test_cli.py::test_a_symbolic_verb_loads_no_numeric_module",),
    ),
    Mutant(
        "fixed-input-entries-at-the-claim-bar", CIRCUITS,
        "bar = 1.0 if isinstance(batches, list) else PROTOCOL_FIDELITY",
        "bar = PROTOCOL_FIDELITY",
        (ONE_PLACE, "the bar of an entry without drawn inputs lowered to `PROTOCOL_FIDELITY`"),
        tests=(CIRCUIT_TESTS + "test_a_fixed_input_entry_fails_one_ulp_below_fidelity_1",
               CLAIM_BAR_TEST),
    ),
    Mutant(
        "claims-book-only-at-fidelity-1", CIRCUITS,
        "            if value >= PROTOCOL_FIDELITY:\n",
        "            if value >= 1.0:\n",
        (ONE_PLACE, "`_claim`'s bar raised to 1.0"),
        commands=((VERIFY_CIRCUITS, ""),),
        tests=(CLAIM_BAR_TEST,),
    ),
    Mutant(
        "format-rational-divides-by-zero-at-thirds", GRAMMAR,
        'return str(p) if q == 1 else f"{p}/{q}"',
        'return str(p) if q == 1 else f"{p}/{q // (q != 3)}"',
        (ONE_PLACE, "a `ZeroDivisionError` planted in `grammar`"),
        tests=("tests/test_cli_fuzz.py::test_every_run_exits_0_or_1_quietly_or_2_with_one_error_line",),
    ),
)

PYTEST = ("-m", "pytest", "-q", "-p", "no:cacheprovider")


def _copy(tree: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", tree)
    return tree


def _run(tree: Path, args) -> tuple[int, str]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def _passing(tree: Path, mutant: Mutant) -> list[str]:
    """The checks of `mutant` that pass in `tree`, where it is applied."""
    passing = []
    for args, says in mutant.commands:
        code, out = _run(tree, shlex.split(args))
        if code == 0 or says not in out:
            passing.append(args)
    if mutant.tests:
        _, out = _run(tree, (*PYTEST, *mutant.tests))
        failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
        passing += [test for test in mutant.tests
                    if not any(f == test or f.startswith(test + "[") for f in failed)]
    return passing


def _failing_unmutated(tree: Path, mutants) -> list[str]:
    """The named checks that fail in `tree`, where no mutant is applied."""
    commands = sorted({args for mutant in mutants for args, _ in mutant.commands})
    failing = [args for args in commands if _run(tree, shlex.split(args))[0] != 0]
    tests = sorted({test for mutant in mutants for test in mutant.tests})
    if tests:
        code, out = _run(tree, (*PYTEST, *tests))
        failing += [f"pytest {' '.join(tests)}:\n{out}"] if code else []
    return failing


def main(names) -> int:
    unknown = sorted(set(names) - {mutant.name for mutant in MUTANTS})
    if unknown:
        print(f"unknown mutant {unknown[0]!r}; known: {', '.join(m.name for m in MUTANTS)}")
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for failing in _failing_unmutated(_copy(Path(tmp) / "unmutated"), chosen):
            print(f"FAILS UNMUTATED {failing}")
            ok = False
        for i, mutant in enumerate(chosen):
            tree = _copy(Path(tmp) / f"mutant{i}")
            path = tree / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"STALE {mutant.name}: its old text occurs {text.count(mutant.old)} times in {mutant.file}")
                ok = False
                continue
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            passing = _passing(tree, mutant)
            print(f"SURVIVED {mutant.name}: {'; '.join(passing)} passed" if passing else f"killed {mutant.name}")
            ok = ok and not passing
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
