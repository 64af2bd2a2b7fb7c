"""Start the benchmark's child processes from a process that stays small.

On Linux a child's peak RSS (``ru_maxrss``) never reads below the resident
size of the process that forked it, so children started straight from the
benchmark, which holds the inputs it checks, would all report at least the
benchmark's own size.  This helper imports nothing heavy and runs one child
at a time.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "log": path, "env": {...}, "cwd": path}``, answered by one
JSON line ``{"returncode", "wall_s", "cpu_s", "rss_mb"}`` on stdout.  The
child's stdout and stderr go to ``log``.  End of input ends the helper.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["log"], "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=log, stderr=subprocess.STDOUT,
                                env=request["env"], cwd=request["cwd"])
        try:
            # this child's own rusage; RUSAGE_CHILDREN would give the
            # maximum over every child so far
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
