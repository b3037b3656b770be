"""Start the cold ops from a small process, and time them.

    python3 -S bench/launcher.py

A child's `ru_maxrss` includes the peak resident set of the process it was
spawned from (Linux records it when the child execs), so children are spawned
from this small process rather than from the benchmark, which holds numpy and
the op records.  One request per line on stdin: {"argv", "env", "stderr"}.
The reply is one JSON line {"code", "latency_s", "cpu_s", "maxrss_kb",
"bytes"} followed by that many bytes of the child's stdout.  The launcher
exits at end of input.
"""

import json
import os
import sys
import time

requests, replies = sys.stdin.buffer, sys.stdout.buffer
for line in requests:
    request = json.loads(line)
    read_end, write_end = os.pipe()
    actions = [
        (os.POSIX_SPAWN_CLOSE, 0),
        (os.POSIX_SPAWN_DUP2, write_end, 1),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600),
        (os.POSIX_SPAWN_CLOSE, read_end),
        (os.POSIX_SPAWN_CLOSE, write_end),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"], file_actions=actions)
    os.close(write_end)
    chunks = []
    while chunk := os.read(read_end, 1 << 16):
        chunks.append(chunk)
    os.close(read_end)
    _, status, usage = os.wait4(pid, 0)
    latency = time.perf_counter() - start
    out = b"".join(chunks)
    header = {
        "code": os.waitstatus_to_exitcode(status),
        "latency_s": latency,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "bytes": len(out),
    }
    replies.write(json.dumps(header).encode() + b"\n" + out)
    replies.flush()
