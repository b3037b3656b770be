"""Run one `qfamily` verb in a fresh interpreter with per-layer tracing.

    PYTHONPATH=src python3 bench/traced_cli.py TRACE.json VERB [ARGS...]

The verb's output goes to stdout as under `python -m qfamily.cli`, and the
exit code is the verb's.  TRACE.json receives the tracer's counters and the
start-up figures: the time of `import qfamily.cli`, the number of modules
loaded after the verb (leaving out the ones only this harness loads), whether
numpy was loaded, and the process's thread count.
"""

import sys
import time

start = time.perf_counter()
import qfamily.cli  # noqa: E402

import_ms = (time.perf_counter() - start) * 1e3
before = set(sys.modules)
import tracing  # noqa: E402

harness_only = set(sys.modules) - before
tracer = tracing.Tracer()
tracer.install()
code = qfamily.cli.main(sys.argv[2:])
sys.stdout.flush()
startup = {
    "import_ms": import_ms,
    "modules": len(set(sys.modules) - harness_only),
    "numpy_loaded": int("numpy" in sys.modules),
    "threads": tracing.thread_count(),
}
import json  # noqa: E402

with open(sys.argv[1], "w") as fh:
    json.dump({**tracer.stats(), "startup": startup}, fh)
sys.exit(code)
