"""Run commands for run.py and report each one's wall time and resource usage.

run.py starts this helper before it renders anything and sends it one JSON
request per line: {"cmd", "env", "cwd", "log", "timeout_s"}. It answers each
with one JSON line: {"wall_s", "rc", "cpu_s", "rss_mb"}. A child's ru_maxrss
starts from the RSS of the process it was forked from, so `rop place` is
started from this small process rather than from the benchmark's, which holds
a rendered bundle. The figures cover the child and every worker it reaped.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["log"], "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["cmd"], stdout=log, stderr=subprocess.STDOUT, env=req["env"], cwd=req["cwd"]
        )
        killer = threading.Timer(req["timeout_s"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rc": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> None:
    # SIGTERM raises SystemExit, so a running child is killed and reaped first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
