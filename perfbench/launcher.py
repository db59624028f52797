"""Spawns the CLI processes on behalf of the benchmark and reports their cost.

On Linux a child's `ru_maxrss` starts at the resident set of the process
that forked it, so a benchmark holding hundreds of megabytes of generated
inputs would inflate every child's peak. This helper is started before the
benchmark loads anything, stays small, and runs each child for it.

Protocol, one JSON object per line: the request on stdin is
`{"argv": [...], "stderr": path}`; the reply on stdout is
`{"wall_s": float, "exit_code": int, "max_rss_kb": int}`.
The helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
        sys.stdout.write(json.dumps({
            "wall_s": wall, "exit_code": proc.returncode,
            "max_rss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
