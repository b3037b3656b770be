"""Per-layer tracing for the benchmark's traced runs.

A `Tracer` wraps qfamily's public functions from outside the package: it
replaces each function in its defining module and in every qfamily module that
imported the name (`cli` included), so calls through either name are seen.
Modules are looked up in `sys.modules`, because `qfamily.entropy` as an
attribute is the function `entropy()` re-exported by the package.  Modules
imported later (lazily, inside a function) are wrapped when they appear.

A timed wrapper records calls and self time: its own duration minus the time
of timed calls nested inside it.  A counting wrapper records calls, or the
length of what the function returns.  Nothing here imports numpy; numpy's
eigen- and singular-value routines are wrapped once numpy is loaded, and only
calls made from `qfamily.entropy` are counted.
"""

from __future__ import annotations

import builtins
import functools
import sys
from collections import Counter
from time import perf_counter

# (module, class or None, function, time key, count key, count by result length)
SPECS = (
    ("qfamily.cli", None, "main", "cli.main", None, False),
    ("qfamily.derivation", None, "derive_family", "derivation.derive_family", None, False),
    ("qfamily.derivation", None, "render_trace", "derivation.render_trace", None, False),
    ("qfamily.derivation", None, "replay", "derivation.replay", None, False),
    ("qfamily.grammar", None, "format_ri", "grammar.format", None, False),
    ("qfamily.grammar", None, "format_vector", "grammar.format", None, False),
    ("qfamily.grammar", None, "format_expr", "grammar.format", None, False),
    ("qfamily.grammar", None, "parse_ri", "grammar.parse", None, False),
    ("qfamily.grammar", None, "parse_vector", "grammar.parse", None, False),
    ("qfamily.grammar", None, "parse_expr", "grammar.parse", None, False),
    ("qfamily.grammar", None, "ri_to_json", "grammar.json", None, False),
    ("qfamily.grammar", None, "ri_from_json", "grammar.json", None, False),
    ("qfamily.algebra", None, "dual", "algebra.dual", None, False),
    ("qfamily.entropy", None, "evaluate", "entropy.evaluate", "entropy.values", False),
    ("qfamily.entropy", None, "evaluate_raw", "entropy.evaluate_raw", "entropy.values", False),
    ("qfamily.entropy", None, "channel_state", "entropy.channel_state", None, False),
    ("qfamily.entropy", None, "purify", "entropy.purify", None, False),
    ("qfamily.entropy", None, "random_tripartite_state", "rng.states", None, False),
    ("qfamily.channels", None, "sweep", "channels.sweep", "channels.rows", True),
    ("qfamily.channels", None, "sweep_csv", "channels.csv", None, False),
    ("qfamily.channels", None, "rate_table", "channels.rate_table", None, False),
    ("qfamily.channels", None, "load_registry", "channels.load_registry", None, False),
    ("qfamily.circuits", None, "verify_all", "circuits.verify_all", None, False),
    ("qfamily.rng", "SplitMix64", "next_u64", None, "rng.draws", False),
    ("qfamily.circuits", "Register", "apply_single", None, "circuits.gates", False),
    ("qfamily.circuits", "Register", "_cnot_unchecked", None, "circuits.gates", False),
    ("qfamily.circuits", "Register", "cz", None, "circuits.gates", False),
    ("qfamily.circuits", "Register", "measure", None, "circuits.branches", True),
    *(("qfamily.circuits", None, name, None, "circuits.runs", False) for name in (
        "run_teleportation", "run_superdense", "run_entanglement_distribution",
        "run_cobit_checks", "run_coherent_superdense", "run_coherent_teleportation")),
)
EIG_FUNCTIONS = ("eigvalsh", "eigh", "svd")


class Tracer:
    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack = [0.0]
        self._modules_seen = -1

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def stats(self) -> dict:
        return {
            "self_ms": {key: seconds * 1e3 for key, seconds in self.self_s.items()},
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    # -- wrappers -------------------------------------------------------------

    def _timed(self, fn, key, count_key, by_len):
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                stack[-1] += elapsed
                self_s[key] += elapsed - inner
                calls[key] += 1
            if count_key:
                counts[count_key] += len(result) if by_len else 1
            return result

        return wrapper

    def _counted(self, fn, key, by_len):
        counts = self.counts
        if by_len:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[key] += len(result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _eig_counter(self, fn):
        counts, frame = self.counts, sys._getframe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if frame(1).f_globals.get("__name__") == "qfamily.entropy":
                counts["entropy.eig_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every listed function whose module is loaded; idempotent."""
        self._modules_seen = len(sys.modules)
        importers = [m for name, m in list(sys.modules.items())
                     if m is not None and (name == "qfamily" or name.startswith("qfamily."))]
        for module_name, owner_name, attr, time_key, count_key, by_len in SPECS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner).get(attr)
            if original is None or hasattr(original, "_bench_traced"):
                continue
            if time_key:
                wrapper = self._timed(original, time_key, count_key, by_len)
            else:
                wrapper = self._counted(original, count_key, by_len)
            wrapper._bench_traced = True
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for importer in importers:
                for name, value in list(vars(importer).items()):
                    if value is original:
                        setattr(importer, name, wrapper)
        linalg = sys.modules.get("numpy.linalg")
        if linalg is not None:
            for name in EIG_FUNCTIONS:
                fn = getattr(linalg, name)
                if not hasattr(fn, "_bench_eig"):
                    wrapper = self._eig_counter(fn)
                    wrapper._bench_eig = True
                    setattr(linalg, name, wrapper)
        if not hasattr(builtins.__import__, "_bench_hook"):
            self._hook_imports()

    def _hook_imports(self):
        real_import = builtins.__import__

        def traced_import(*args, **kwargs):
            module = real_import(*args, **kwargs)
            if len(sys.modules) != self._modules_seen:
                self.install()
            return module

        traced_import._bench_hook = True
        builtins.__import__ = traced_import


def thread_count() -> int:
    """Threads of this process, from /proc/self/status (0 where there is none)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
