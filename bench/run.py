"""qfamily's benchmark: three workloads, six end-to-end metrics, a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it builds nothing and imports qfamily from
`src`.  Workloads (bench/README.md says why each was chosen):

  cli-symbolic  each op is a fresh `python -m qfamily.cli` running family,
                derive or dual
  cli-sweep     each op is a fresh `qfamily sweep --channel F --param 0:1:0.01`
  checks        each op is one in-process verification pass over every layer

The loop is closed: one op at a time, in whole rounds, until --seconds have
passed and at least 100 ops ran.  Every output is checked against references
in bench/checks.py.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run does a fixed number of rounds with qfamily's public
functions wrapped (bench/tracing.py) and the metrics are per layer.  The last
line of stdout is {"correct", "attempted", "failed", "metrics"}; the line
before it records the commit, versions and thread settings, and a copy of
both goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import checks
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
THREAD_VARS = speed.THREAD_VARS
MIN_OPS = 100          # op_p90_ms needs at least ten ops beyond it
PHASE_CAP_S = 140.0    # past this, a run ends after the current op, so it exits within 180 s
SETUP_SAMPLES = 5      # fresh-interpreter set-ups per run; setup_s is their median
SWEEP_GRID = "0:1:0.01"
CHECK_TRIALS = 20
TRACED_ROUNDS = {"cli-symbolic": 2, "cli-sweep": 10, "checks": 50}
SYMBOLS = ("I(A:B)", "I(A:E)", "H(A)", "Ic(A>B)")


class Sample(NamedTuple):
    latency_s: float
    cpu_s: float
    rss_kb: int
    output: object
    scale: float = 1.0  # speed.Speedometer factor for the op
    reading: int = 0    # index of that speed reading


class OpFailed(Exception):
    """The program did not complete an op (exit code or exception)."""


# ---------------------------------------------------------------------------
# Workloads.  Constructing one is the set-up; run_op is one timed op.
# ---------------------------------------------------------------------------


class ColdWorkload:
    """Each op is a fresh interpreter running one `qfamily` verb."""

    threads = "default: thread variables removed, as a user runs the command"
    OPS: tuple = ()

    def __init__(self, seed: int, tracer=None):
        self.rng = random.Random(seed)
        self.traced = tracer is not None  # tracing happens in the children
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        self.env["PYTHONPATH"] = str(SRC)
        self.layer_stats: list[dict] = []
        self.stderr = OUT / f"stderr-{os.getpid()}.txt"
        self.launcher = subprocess.Popen([sys.executable, "-S", str(BENCH / "launcher.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            warm_up = self.next_round()[0]
            self.check(warm_up, self.run_op(warm_up).output)
        except BaseException:
            self.close()
            raise
        self.layer_stats.clear()

    def close(self):
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()
        self.stderr.unlink(missing_ok=True)

    def next_round(self) -> list:
        ops = list(self.OPS)
        self.rng.shuffle(ops)
        return ops

    def run_op(self, args: tuple) -> Sample:
        trace_file = OUT / f"layers-{os.getpid()}.json"
        if self.traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_file), *args]
        else:
            argv = [sys.executable, "-m", "qfamily.cli", *args]
        request = {"argv": argv, "env": self.env, "stderr": str(self.stderr)}
        self.launcher.stdin.write(json.dumps(request).encode() + b"\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        out = self.launcher.stdout.read(reply["bytes"])
        if reply["code"] != 0:
            raise OpFailed(f"{args} exited {reply['code']}: {self.stderr.read_text()[-400:]}")
        if self.traced:
            self.layer_stats.append(json.loads(trace_file.read_text()))
            trace_file.unlink()
        return Sample(reply["latency_s"], reply["cpu_s"], reply["maxrss_kb"], out.decode())

    def peak_rss_kb(self, samples: list[Sample]) -> int:
        return max(s.rss_kb for s in samples)


class SymbolicWorkload(ColdWorkload):
    OPS = (
        ("family",),
        ("family", "--json"),
        *(("derive", "--target", name) for name in checks.DERIVE_TARGETS),
        *(("dual", "--ri", name) for name in checks.FAMILY_ORDER),
        *(("dual", "--text", checks.dual_text_input(name)) for name in checks.FAMILY_ORDER),
    )

    def check(self, args, out):
        checks.check_cli(args, out)


class SweepWorkload(ColdWorkload):
    OPS = tuple(("sweep", "--channel", family, "--param", SWEEP_GRID) for family in checks.SWEEP_FAMILIES)

    def check(self, args, out):
        checks.check_sweep_csv(args[2], out)


class ChecksWorkload:
    """Each op is one verification pass, in this process, seeded by its index."""

    threads = "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1, set before numpy loads"

    def __init__(self, seed: int, tracer=None):
        from qfamily import channels, circuits, derivation, grammar, rng

        if tracer is not None:
            tracer.install()
        self.channels, self.circuits, self.grammar, self.rng = channels, circuits, grammar, rng
        self.derivation = derivation
        self.entropy = sys.modules["qfamily.entropy"]  # the package attribute is a function
        entries = checks.random_registry(seed)
        path = OUT / f"registry-{os.getpid()}.json"
        path.write_text(json.dumps(entries))
        try:
            self.objects = channels.load_registry(path)
        finally:
            path.unlink()
        self.entropies = {entry["name"]: checks.reference_entropies(entry) for entry in entries}
        self.family = derivation.derive_family()
        pools = {kind: [e["name"] for e in entries if e["kind"] == kind] for kind in ("state", "channel")}
        self.rate_jobs = [
            (name, pools[checks.needs_object(name) or ("state", "channel")[i % 2]][i % 2])
            for i, name in enumerate(checks.FAMILY_ORDER)
        ]
        self.seed, self.index = seed, 0
        self.check(None, self.run_op(self.op_seed(0xFFFF)).output)

    def op_seed(self, index: int) -> int:
        return (self.seed << 16) + index

    def next_round(self) -> list:
        self.index += 1
        return [self.op_seed(self.index)]

    def run_op(self, s: int) -> Sample:
        start, cpu = time.perf_counter(), time.process_time()
        output = self.verification_pass(s)
        return Sample(time.perf_counter() - start, time.process_time() - cpu, 0, output)

    def verification_pass(self, s: int):
        grammar, entropy = self.grammar, self.entropy
        stored = self.family
        replayed = {name: self.derivation.replay(ri.trace) for name, ri in stored.items() if ri.trace}
        wire = {name: json.dumps(grammar.ri_to_json(ri)) for name, ri in stored.items()}
        from_wire = {name: grammar.ri_from_json(json.loads(text)) for name, text in wire.items()}
        from_text = {name: grammar.parse_ri(grammar.format_ri(ri)) for name, ri in stored.items()}
        report = self.circuits.verify_all(trials=CHECK_TRIALS, seed=s)
        gen = self.rng.SplitMix64(s)
        identities = []
        for _ in range(CHECK_TRIALS):
            d_a, d_b = gen.randint(2, 4), gen.randint(2, 4)
            psi = entropy.random_tripartite_state(gen, d_a, d_b)
            identities.append(tuple(entropy.evaluate_raw(symbol, psi) for symbol in SYMBOLS))
        tables = [(name, obj, self.channels.rate_table(stored[name], self.objects[obj]))
                  for name, obj in self.rate_jobs]
        return replayed, wire, from_wire, from_text, report, identities, tables

    def check(self, s, output):
        replayed, wire, from_wire, from_text, report, identities, tables = output
        checks.check_round_trips(self.family, replayed, wire, from_wire, from_text)
        checks.check_verify_report(report)
        checks.check_identities(identities)
        for name, obj, table in tables:
            checks.check_rate_table(name, table, self.entropies[obj])

    def peak_rss_kb(self, samples) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self):
        pass


WORKLOADS = {"cli-symbolic": SymbolicWorkload, "cli-sweep": SweepWorkload, "checks": ChecksWorkload}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> float:
    """Time from starting a fresh run of `name` to its first op."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise OpFailed(f"set-up of {name} failed")
    return elapsed


def run_phase(workload, seconds: float, rounds: int | None, probe=None):
    """Whole rounds until `seconds` and MIN_OPS are reached, or exactly `rounds`.

    `probe`, when given, measures one fresh set-up; SETUP_SAMPLES of them are
    spread evenly over the run, so that setup_s sees the same drift as the ops.
    """
    speedometer = speed.Speedometer("in-process" if isinstance(workload, ChecksWorkload) else "cold")
    samples, setups, wrong = [], [], []  # setups: (seconds, speed reading)
    attempted = failed = done = 0
    start = time.perf_counter()
    elapsed = 0.0
    while True:
        if probe and len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append((probe(), speedometer.read()))
        for op in workload.next_round():
            attempted += 1
            if (attempted - 1) % speedometer.ops_per_reading == 0:
                reading = speedometer.read()
            try:
                sample = workload.run_op(op)
            except Exception as exc:  # any program error fails the op, and the run goes on
                failed += 1
                print(f"op failed: {op}: {exc!r}", file=sys.stderr)
                continue
            try:
                workload.check(op, sample.output)
            except checks.CheckFailed as exc:
                wrong.append(f"{op}: {exc}")
            samples.append(sample._replace(output=None, reading=reading))
            if time.perf_counter() - start >= PHASE_CAP_S:
                break
        done += 1
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if done >= rounds:
                break
        elif (elapsed >= seconds and attempted >= MIN_OPS) or elapsed >= PHASE_CAP_S:
            break
    while probe and len(setups) < SETUP_SAMPLES:
        setups.append((probe(), speedometer.read()))
    speedometer.read()
    samples = [sample._replace(scale=speedometer.scale(sample.reading)) for sample in samples]
    raw = {"ops": [[s.latency_s, s.cpu_s, s.reading] for s in samples], "setups": setups,
           "readings": speedometer.readings}
    setups = [(took, speedometer.scale(reading)) for took, reading in setups]
    return samples, setups, attempted, failed, wrong, raw


def end_to_end(samples: list[Sample], setups: list, rss_kb: int, scaled: bool = True) -> dict:
    factor = (lambda scale: scale) if scaled else (lambda scale: 1.0)
    latencies = [s.latency_s * factor(s.scale) for s in samples]
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "cpu_ms_per_op": (sum(s.cpu_s * factor(s.scale) for s in samples) / len(samples) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    if setups:
        metrics = {"setup_s": (statistics.median(t * factor(scale) for t, scale in setups), "s"), **metrics}
    return metrics


# metric -> tracer key whose self time it reports, in ms per op
LAYER_TIMES = {
    "cli.main_ms": "cli.main",
    "derivation.derive_family_ms": "derivation.derive_family",
    "derivation.render_trace_ms": "derivation.render_trace",
    "derivation.replay_ms": "derivation.replay",
    "grammar.format_ms": "grammar.format",
    "grammar.parse_ms": "grammar.parse",
    "grammar.json_ms": "grammar.json",
    "algebra.dual_ms": "algebra.dual",
    "entropy.evaluate_ms": "entropy.evaluate",
    "entropy.channel_state_ms": "entropy.channel_state",
    "entropy.evaluate_raw_ms": "entropy.evaluate_raw",
    "entropy.purify_ms": "entropy.purify",
    "channels.sweep_ms": "channels.sweep",
    "channels.csv_ms": "channels.csv",
    "channels.rate_table_ms": "channels.rate_table",
    "rng.states_ms": "rng.states",
    "circuits.verify_all_ms": "circuits.verify_all",
}
# metric -> tracer count, per op
LAYER_COUNTS = {
    "entropy.eig_calls": "entropy.eig_calls",
    "channels.rows": "channels.rows",
    "rng.draws": "rng.draws",
    "circuits.runs": "circuits.runs",
    "circuits.gates": "circuits.gates",
    "circuits.branches": "circuits.branches",
}


def per_layer(stats: list[dict], ops: int, startup: list[dict], registry: dict) -> dict:
    self_ms, calls, counts = Counter(), Counter(), Counter()
    for entry in stats:
        self_ms.update(entry["self_ms"])
        calls.update(entry["calls"])
        counts.update(entry["counts"])
    metrics = {name: (self_ms[key] / ops, "ms") for name, key in LAYER_TIMES.items()}
    metrics.update({name: (counts[key] / ops, "count") for name, key in LAYER_COUNTS.items()})
    values = counts["entropy.values"]
    metrics["entropy.eig_per_value"] = (counts["entropy.eig_calls"] / values if values else 0.0, "ratio")
    loads = registry["calls"].get("channels.load_registry", 0)
    metrics["channels.load_registry_ms"] = (
        registry["self_ms"].get("channels.load_registry", 0.0) / loads if loads else 0.0, "ms")
    mean = lambda key: sum(s[key] for s in startup) / len(startup) if startup else 0
    metrics["startup.import_ms"] = (statistics.median(s["import_ms"] for s in startup) if startup else 0.0, "ms")
    metrics["startup.modules"] = (mean("modules"), "count")
    metrics["startup.numpy_loaded"] = (mean("numpy_loaded"), "flag")
    metrics["startup.threads"] = (mean("threads"), "count")
    return metrics


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def commit() -> str:
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown"


def run_meta() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qfamily").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: cls.threads for name, cls in WORKLOADS.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qfamily" / "cli.py").is_file():
        print(f"error: no qfamily sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread in this process (and in the ops of `checks`); cold ops
    # get the thread variables removed again.
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed).close()
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    workload = WORKLOADS[args.workload](args.seed, tracer)
    registry = {"self_ms": {}, "calls": {}}
    if tracer is not None:
        registry = tracer.stats()
        tracer.reset()
    rounds = TRACED_ROUNDS[args.workload] if tracer else None
    probe = None if tracer else (lambda: setup_probe(args.workload, args.seed))
    try:
        samples, setups, attempted, failed, wrong, raw = run_phase(workload, args.seconds, rounds, probe)
    finally:
        workload.close()
    if not samples:
        print("error: every op failed", file=sys.stderr)
        return 1
    rss_kb = workload.peak_rss_kb(samples)
    e2e = end_to_end(samples, setups, rss_kb)
    if tracer is None:
        metrics = e2e
    elif args.workload == "checks":
        metrics = per_layer([tracer.stats()], len(samples), [], registry)
    else:
        metrics = per_layer(workload.layer_stats, len(samples),
                            [s["startup"] for s in workload.layer_stats], registry)
    for message in wrong[:5]:
        print(f"wrong output: {message}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"meta": run_meta(), "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "attempted": attempted, "failed": failed, "wrong": len(wrong)}
    record["unscaled"] = {name: value for name, (value, _) in end_to_end(samples, setups, rss_kb, False).items()}
    if tracer:
        record["traced_end_to_end"] = {name: value for name, (value, _) in e2e.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result, "raw": raw}) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
