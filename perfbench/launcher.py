"""Starts the benchmark's CLI steps, one at a time, and reports each one's
wall time, peak RSS and exit code.

Linux carries the peak RSS of the process that starts a program into that
program's own `ru_maxrss`: a vforked child execs from its parent's memory,
a forked one from a copy of it. run.py imports numpy and scipy and builds
the inputs, so a step it started itself could read run.py's peak instead of
its own. run.py therefore starts this process first, before it imports
anything large, and has it start every step. This process imports only the
standard library and stays small; each reply carries its own peak RSS, so
run.py can flag a step whose reading is not above it.

Protocol: one JSON request per line on stdin,
`{"args": [...], "log": path, "timeout": seconds}`; the step runs as
`python -m randcert.cli <args>` in the log file's directory with stdout and
stderr written to the log. One JSON reply per line on stdout,
`{"wall_s", "rss_mib", "exit", "self_rss_mib"}`. The process ends at the end
of stdin.
"""

import json
import os
import resource
import subprocess
import sys
import threading
import time


def run(args: list[str], log: str, timeout: float) -> dict:
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "randcert.cli", *args], stdout=out,
                                stderr=subprocess.STDOUT, cwd=os.path.dirname(log))
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mib": usage.ru_maxrss / 1024, "exit": proc.returncode,
            "self_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["args"], req["log"], req["timeout"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
