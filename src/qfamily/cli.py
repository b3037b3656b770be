"""Command-line front end.

Verbs: family, derive, rates, sweep, verify-circuits, check-identities,
dual.  Output is deterministic for fixed inputs and seed; the exit code is
0 exactly when every requested check passed.  Named states/channels come
from the built-in examples plus an optional JSON registry given by
--registry or the QFAMILY_REGISTRY environment variable; only the object
that `rates` picks is built.  Numpy loads at start-up; only `rates` and
`sweep` load `channels`, with its two dataclasses.
"""

from __future__ import annotations

import gc
import os

# Start-up builds some 33,000 objects, numpy's and qfamily's, that all live
# until exit.  The collector waits while they are built, whoever imports this
# module.  A freeze and a thaw move them to the oldest generation unwalked, so
# the collector, given back as it was, does not walk them all at once.
_collecting, _thawed = gc.isenabled(), not gc.get_freeze_count()
gc.disable()
# qfamily's matrices are at most 16x16, so a BLAS thread pool only costs CPU.
# Unless the user chose a thread count, OpenBLAS gets one while numpy loads.
_one_blas_thread = not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ)
if _one_blas_thread:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import argparse
    import re
    import sys
    from fractions import Fraction
    from math import lcm
    from typing import Iterable

    # here, not in a verb: a tracer installed before numpy loads breaks its import
    import numpy  # noqa: F401

    from . import grammar
    from .algebra import dual
    from .derivation import FAMILY_ORDER, claims, derive_family, render_trace
finally:
    if _one_blas_thread:
        del os.environ["OPENBLAS_NUM_THREADS"]
    if _thawed:
        gc.freeze()
        gc.unfreeze()
    if _collecting:
        gc.enable()

IDENTITY_TOLERANCE = 1e-9


class CliError(ValueError):
    """User-facing error: message printed, nonzero exit."""


def _load_registry(args) -> dict:
    """The registry's objects, if one is given: none may be named like a
    channel family or a built-in object."""
    path = args.registry or os.environ.get("QFAMILY_REGISTRY")
    if not path:
        return {}
    from . import channels
    registry = channels.load_registry(path)
    shadowed = sorted(set(registry) & set(channels.CHANNEL_FAMILIES))
    if shadowed:
        raise CliError(f"registry entry {shadowed[0]!r} is named like a channel family, "
                       f"which `--channel {shadowed[0]}` would pick instead")
    taken = sorted(set(registry) & set(channels.BUILTIN_OBJECTS))
    if taken:
        raise CliError(f"registry entry {taken[0]!r} is named like a built-in "
                       f"{channels.BUILTIN_OBJECTS[taken[0]][0]}")
    return registry


def _positive_trials(args) -> int:
    if args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    return args.trials


def _seed(args) -> int:
    """The 64-bit seed; one outside [0, 2^64) would alias one inside it."""
    if not 0 <= args.seed < 1 << 64:
        raise CliError(f"--seed must be in [0, 2^64), got {args.seed}")
    return args.seed


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def cmd_family(args) -> int:
    """Print the family and the duality claims that hold.  A claim that fails
    is printed as failed (on stderr under --json), and `family` exits 1."""
    full = derive_family()
    held, failed = claims(full)
    if args.json:
        import json
        print(json.dumps({name: grammar.ri_to_json(full[name]) for name in FAMILY_ORDER}, indent=2))
    else:
        print("primitives:")
        for name in FAMILY_ORDER[:5]:
            print(f"  {name:8s} {grammar.format_ri(full[name])}")
        print("children:")
        for name in FAMILY_ORDER[5:]:
            ri = full[name]
            print(f"  {name:8s} {grammar.format_ri(ri)}")
            print(render_trace(ri, indent="           | "))
        dualities = [claim for kind, claim in held if kind == "duality"]
        if dualities:
            print("duality: " + "; ".join(dualities))
    for kind, claim in failed:
        print(f"{kind} failed: {claim}", file=sys.stderr if args.json else sys.stdout)
    return 1 if failed else 0


def _family_member(name: str):
    """The family's inequality called `name`."""
    full = derive_family()
    if name not in full:
        raise CliError(f"unknown inequality {name!r}; known: {', '.join(sorted(full))}")
    return full[name]


def cmd_derive(args) -> int:
    ri = _family_member(args.target)
    print(f"{ri.name}: {grammar.format_ri(ri)}")
    print(render_trace(ri))
    return 0


def _pick_object(args, registry):
    """The object `rates` runs on, the only one built: a family point, a
    registry object or a built-in one."""
    from . import channels
    name = args.channel
    if name in channels.CHANNEL_FAMILIES:
        p = 0.0 if args.param is None else float(_grid_value(args.param))
        return channels.family_object(name if args.param is None else f"{name}(p={p})",
                                      "channel", name, p)
    kind, name = ("state", args.state) if args.state else ("channel", name)
    found, row = registry.get(name), channels.BUILTIN_OBJECTS.get(name)
    if (found.kind if found else row and row[0]) != kind:
        raise CliError(f"unknown {kind} {name!r}")
    if args.param is not None:
        raise CliError("--param applies to channel families only")
    return found or channels.family_object(name, *row)


def cmd_rates(args) -> int:
    ri = _family_member(args.ri)
    if bool(args.state) == bool(args.channel):
        raise CliError("exactly one of --state or --channel is required")
    from . import channels
    table = channels.rate_table(ri, _pick_object(args, _load_registry(args)))
    if args.json:
        import json
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
    # Fraction builds 10**exponent (minutes at 1e-99999999); past 9999 no verdict moves
    big = re.fullmatch(r"(.*e[-+]?)(\d+(?:_\d+)*)(\s*)", text, re.IGNORECASE | re.DOTALL)
    try:
        value = Fraction(f"{big[1]}9999{big[3]}" if big and int(big[2]) > 9999 else text)
        float(value)
    except ZeroDivisionError:
        raise CliError(f"grid value {text!r} has a zero denominator") from None
    except OverflowError:
        raise CliError(f"grid value {text!r} does not fit a float") from None
    except ValueError:
        raise CliError(f"grid value {text!r} is not a number") from None
    if value and not float(value):  # nonzero, but its float underflows to 0.0
        raise CliError(f"grid value {text!r} does not fit a float")
    return value


def _parse_grid(text: str) -> Iterable[float]:
    """The grid's points as floats, each the correctly rounded value of the
    exact point, as `float(Fraction)` gives it."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"grid {text!r} is not start:stop:step")
        start, stop, step = (_grid_value(p) for p in parts)
        if step <= 0:
            raise CliError("grid step must be positive")
        if start > stop:
            raise CliError(f"grid {text!r} has no points")
        # Point i is (a + i*b) / q, with start and step over one denominator q:
        # exact integers, rounded once by int true division, as float(Fraction)
        # rounds.  One point at a time: a range may hold more points than fit
        # in memory.
        q = lcm(start.denominator, step.denominator)
        a = start.numerator * (q // start.denominator)
        b = step.numerator * (q // step.denominator)
        return ((a + i * b) / q for i in range((stop - start) // step + 1))
    return [float(_grid_value(p)) for p in text.split(",")]


def cmd_sweep(args) -> int:
    grid = _parse_grid(args.param)
    from . import channels
    # Each chunk of rows is written as soon as it is computed.  A grid point
    # outside the family's domain therefore ends the sweep after the chunks
    # before its own have been written.
    for text in channels.sweep_csv_chunks(args.channel, grid):
        sys.stdout.write(text)
        sys.stdout.flush()
    return 0


def cmd_verify_circuits(args) -> int:
    import json

    from . import circuits

    report = circuits.verify_all(trials=_positive_trials(args), seed=_seed(args))
    print(json.dumps(report, indent=2))
    return 0 if report["pass"] else 1


def cmd_check_identities(args) -> int:
    from .entropy import evaluate_raw, random_tripartite_state
    from .rng import SplitMix64

    trials = _positive_trials(args)
    rng = SplitMix64(_seed(args))
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
    ri = _family_member(args.ri) if args.ri else grammar.parse_ri(args.text)
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
    p_rates.add_argument("--param")
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
    """Run one verb on `argv` (default: the command line) and return its exit
    code: 0 when every requested check passed, 1 when one failed or stdout
    closed early, 2 on a usage or input error."""
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


def run() -> int:
    """The `qfamily` program, the target of `python -m qfamily.cli` and of the
    console script: `main` on the command line, with every object that start-up
    made moved out of the collector's reach.  Collection stays on for the verb,
    which still frees its own cycles."""
    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
