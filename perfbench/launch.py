"""Run one command and record its wall time and peak RSS, from a small process.

    python3 perfbench/launch.py RESULT_PATH COMMAND [ARGS...]

Writes ``<wall seconds> <peak RSS in KB> <exit code>`` to RESULT_PATH. On
Linux a process's ``ru_maxrss`` starts from the high-water mark of the memory
it had before ``exec``, which for a spawned child is its parent's. The bench
holds the workload in memory, so a command it spawned directly would report
the bench's peak when that is the larger; spawned from this launcher, the
floor is the launcher's own few MB.
"""

import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    result, command = argv[0], argv[1:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result, "w", encoding="utf-8") as fh:
        fh.write(f"{wall!r} {usage.ru_maxrss} {proc.returncode}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
