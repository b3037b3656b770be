"""Command-line front end.

Verbs: family, derive, rates, sweep, verify-circuits, check-identities,
dual.  Output is deterministic for fixed inputs and seed; the exit code is
0 exactly when every requested check passed.  Named states/channels come
from the built-in examples plus an optional JSON registry given by
--registry or the QFAMILY_REGISTRY environment variable.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import Iterable

# qfamily's matrices are at most 16x16, so a BLAS thread pool only costs CPU.
# Unless the user chose a thread count, give OpenBLAS one; numpy reads it on import.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import channels, grammar
from .algebra import CBIT, I_AE, dual, vec
from .derivation import FAMILY_ORDER, derive_family, render_trace, waste
from .entropy import random_tripartite_state, evaluate_raw

IDENTITY_TOLERANCE = 1e-9

# Duality claims (a, b, wasted) printed by `family`: the dual of b, with
# `wasted` (if any) added to its inputs, states a.  A claim is printed only
# when it holds.
DUALITY_CLAIMS = (
    ("mother", "father", None),
    ("eq3", "eq4", None),
    ("sd", "sd", None),
    ("tp", "qe", vec(2, CBIT)),
    ("eq2", "eq5", vec(I_AE, CBIT)),
)


class CliError(ValueError):
    """User-facing error: message printed, nonzero exit."""


def _load_objects(args) -> dict:
    objects = channels.builtin_objects()
    path = args.registry or os.environ.get("QFAMILY_REGISTRY")
    if path:
        registry = channels.load_registry(path)
        shadowed = sorted(set(registry) & set(channels.CHANNEL_FAMILIES))
        if shadowed:
            raise CliError(f"registry entry {shadowed[0]!r} is named like a channel family, "
                           f"which `--channel {shadowed[0]}` would pick instead")
        objects.update(registry)
    return objects


def _positive_trials(args) -> int:
    if args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    return args.trials


def _holding_dualities(full) -> list[str]:
    held = []
    for a, b, wasted in DUALITY_CLAIMS:
        other = full[b] if wasted is None else waste(full[b], wasted)
        if not dual(other).same_statement(full[a]):
            continue
        if a == b:
            held.append(f"{a} self-dual")
        elif wasted is None:
            held.append(f"{a} <-> {b}")
        else:
            held.append(f"{a} <-> {b} after wasting {grammar.format_vector(wasted)}")
    return held


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def cmd_family(args) -> int:
    full = derive_family()
    if args.json:
        payload = {name: grammar.ri_to_json(full[name]) for name in FAMILY_ORDER}
        print(json.dumps(payload, indent=2))
        return 0
    print("primitives:")
    for name in FAMILY_ORDER[:5]:
        print(f"  {name:8s} {grammar.format_ri(full[name])}")
    print("children:")
    for name in FAMILY_ORDER[5:]:
        ri = full[name]
        print(f"  {name:8s} {grammar.format_ri(ri)}")
        print(render_trace(ri, indent="           | "))
    held = _holding_dualities(full)
    if held:
        print("duality: " + "; ".join(held))
    return 0


def cmd_derive(args) -> int:
    full = derive_family()
    if args.target not in full:
        raise CliError(f"unknown derivation target {args.target!r}; known: {', '.join(sorted(full))}")
    ri = full[args.target]
    print(f"{ri.name}: {grammar.format_ri(ri)}")
    print(render_trace(ri))
    return 0


def _pick_object(args, objects):
    if bool(args.state) == bool(args.channel):
        raise CliError("exactly one of --state or --channel is required")
    name = args.channel
    if name in channels.CHANNEL_FAMILIES:
        return channels.RegisteredChannel(
            name if args.param is None else f"{name}(p={args.param})",
            channels.CHANNEL_FAMILIES[name](0.0 if args.param is None else args.param),
        )
    kind, name = ("state", args.state) if args.state else ("channel", name)
    if name not in objects or objects[name].kind != kind:
        raise CliError(f"unknown {kind} {name!r}")
    if args.param is not None:
        raise CliError("--param applies to channel families only")
    return objects[name]


def cmd_rates(args) -> int:
    full = derive_family()
    if args.ri not in full:
        raise CliError(f"unknown inequality {args.ri!r}; known: {', '.join(sorted(full))}")
    obj = _pick_object(args, _load_objects(args))
    table = channels.rate_table(full[args.ri], obj)
    if args.json:
        payload = {
            "ri": table.ri_name,
            "mode": table.mode,
            "object": table.object_name,
            "inputs": [vars(e) for e in table.lhs],
            "outputs": [vars(e) for e in table.rhs],
            "entropies": dict(zip(("H(A)", "H(B)", "H(E)"), table.entropies)),
            "dims": list(table.dims),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(table.render())
    return 0


def _grid_value(text: str) -> Fraction:
    try:
        value = Fraction(text)
        float(value)
    except ZeroDivisionError:
        raise CliError(f"grid value {text!r} has a zero denominator") from None
    except OverflowError:
        raise CliError(f"grid value {text!r} does not fit a float") from None
    return value


def _parse_grid(text: str) -> Iterable[Fraction]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"grid {text!r} is not start:stop:step")
        start, stop, step = (_grid_value(p) for p in parts)
        if step <= 0:
            raise CliError("grid step must be positive")
        if start > stop:
            raise CliError(f"grid {text!r} has no points")
        # One point at a time: a range may hold more points than fit in memory.
        return itertools.takewhile(lambda value: value <= stop, itertools.count(start, step))
    return [_grid_value(p) for p in text.split(",")]


def cmd_sweep(args) -> int:
    grid = _parse_grid(args.param)
    # Each chunk of rows is written as soon as it is computed.  A grid point
    # outside the family's domain therefore ends the sweep after the chunks
    # before its own have been written.
    for text in channels.sweep_csv_chunks(args.channel, grid):
        sys.stdout.write(text)
        sys.stdout.flush()
    return 0


def cmd_verify_circuits(args) -> int:
    from . import circuits

    report = circuits.verify_all(trials=_positive_trials(args), seed=args.seed)
    print(json.dumps(report, indent=2))
    return 0 if report["pass"] else 1


def cmd_check_identities(args) -> int:
    from .rng import SplitMix64

    trials = _positive_trials(args)
    rng = SplitMix64(args.seed)
    worst_sum = 0.0
    worst_diff = 0.0
    for _ in range(trials):
        d_a = rng.randint(2, 4)
        d_b = rng.randint(2, 4)
        psi = random_tripartite_state(rng, d_a, d_b)
        i_ab = evaluate_raw("I(A:B)", psi)
        i_ae = evaluate_raw("I(A:E)", psi)
        h_a = evaluate_raw("H(A)", psi)
        i_coh = evaluate_raw("Ic(A>B)", psi)
        worst_sum = max(worst_sum, abs(0.5 * i_ab + 0.5 * i_ae - h_a))
        worst_diff = max(worst_diff, abs(0.5 * i_ab - 0.5 * i_ae - i_coh))
    ok = worst_sum <= IDENTITY_TOLERANCE and worst_diff <= IDENTITY_TOLERANCE
    print(f"trials={args.trials} seed={args.seed}")
    print(f"max |1/2*I(A:B) + 1/2*I(A:E) - H(A)|   = {worst_sum:.3e}")
    print(f"max |1/2*I(A:B) - 1/2*I(A:E) - Ic(A>B)| = {worst_diff:.3e}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_dual(args) -> int:
    if bool(args.ri) == bool(args.text):
        raise CliError("exactly one of --ri or --text is required")
    if args.ri:
        full = derive_family()
        if args.ri not in full:
            raise CliError(f"unknown inequality {args.ri!r}")
        ri = full[args.ri]
    else:
        ri = grammar.parse_ri(args.text)
    print(grammar.format_ri(dual(ri)))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfamily",
        description="Protocol family calculus: derivations, rates, and exact circuit checks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_family = sub.add_parser("family", help="list the ten inequalities with traces")
    p_family.add_argument("--json", action="store_true")
    p_family.set_defaults(func=cmd_family)

    p_derive = sub.add_parser("derive", help="show one derivation trace")
    p_derive.add_argument("--target", required=True)
    p_derive.set_defaults(func=cmd_derive)

    p_rates = sub.add_parser("rates", help="numeric rate table on a state or channel")
    p_rates.add_argument("--ri", required=True)
    p_rates.add_argument("--state")
    p_rates.add_argument("--channel")
    p_rates.add_argument("--param", type=float)
    p_rates.add_argument("--registry")
    p_rates.add_argument("--json", action="store_true")
    p_rates.set_defaults(func=cmd_rates)

    p_sweep = sub.add_parser("sweep", help="CSV sweep over a channel family")
    p_sweep.add_argument("--channel", required=True)
    p_sweep.add_argument("--param", required=True, help="start:stop:step or comma list")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify-circuits", help="run the exact protocol suite")
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify_circuits)

    p_check = sub.add_parser("check-identities", help="entropic identity suite on random states")
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check_identities)

    p_dual = sub.add_parser("dual", help="static/dynamic dual of an inequality")
    p_dual.add_argument("--ri")
    p_dual.add_argument("--text")
    p_dual.set_defaults(func=cmd_dual)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (`qfamily family | head`).  Point stdout at
        # devnull so that the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
