"""Starts the benchmark's CLI jobs from a small process.

A child's ``ru_maxrss`` also counts the memory of the process that
started it: the child runs in its parent's address space until it
execs. ``run.py`` holds the workload's inputs and timings, so it starts
its jobs through this process, whose own footprint is below that of any
CLI job, and each job's ``peak_rss_mb`` is its own.

Reads one JSON job per line on stdin, {"argv", "stdin", "stdout",
"stderr", "timeout"}, and answers each with one JSON line, {"code",
"wall", "cpu", "rss_mb"}. Jobs inherit this process's environment and
working directory. Exits at end of input; on SIGTERM it stops the
running job first.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter


def run(job):
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        fin = open(job["stdin"], "rb") if job["stdin"] else subprocess.DEVNULL
        try:
            t0 = perf_counter()
            proc = subprocess.Popen(job["argv"], stdin=fin, stdout=out, stderr=err)
            timer = threading.Timer(job["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        finally:
            if fin is not subprocess.DEVNULL:
                fin.close()
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
