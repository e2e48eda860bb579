"""Starts the benchmark's processes from a parent that stays small.

On Linux a child's ru_maxrss counts its parent's resident set at the
moment of the fork or vfork, so processes started straight from
run.py, which holds numpy and the checked outputs, would all report at
least run.py's peak. This launcher holds only the standard library: it
reads one JSON request per line on stdin

    {"argv": [...], "out": DIR, "timeout": SECONDS}

runs argv in the launcher's working directory and environment with
stdout and stderr captured into DIR/stdout.txt and DIR/stderr.txt, and
answers with one line {"wall_s", "rss_mb", "status"}: the time from
spawn to exit, the child's peak resident set and its exit status.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], out: str, timeout: float) -> dict:
    with open(os.path.join(out, "stdout.txt"), "wb") as so, \
            open(os.path.join(out, "stderr.txt"), "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "status": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["out"], request["timeout"])
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
