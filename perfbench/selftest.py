#!/usr/bin/env python3
"""Self-test of the benchmark's failure accounting.

Runs a short polybench-serial (two small kernels, one second) with the host
compiler replaced by /bin/false, so every program fails native preparation
and every invocation falls back to the interpreter. The benchmark must
still finish, and must count every operation as failed instead of
reporting its time:

    python3 perfbench/selftest.py

Exits 0 when the checks hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIMINGS = ("setup_s", "invoke_p50_ns", "calls_per_s")


def main():
    env = dict(os.environ, DCIR_CXX="/bin/false")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           "polybench-serial", "--seed", "1", "--seconds", "1", "--trace",
           "0", "--kernels", "durbin,trisolv"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=600, cwd=os.path.dirname(HERE))
    lines = proc.stdout.strip().splitlines()
    problems = []
    if proc.returncode != 0 or not lines:
        problems.append("run.py exited with %d" % proc.returncode)
    else:
        res = json.loads(lines[-1])
        if res["correct"]:
            problems.append("a run with no host compiler reported correct")
        if res["attempted"] < 1 or res["failed"] != res["attempted"]:
            problems.append("%d of %d operations counted as failed"
                            % (res["failed"], res["attempted"]))
        for name in TIMINGS:
            if name in res["metrics"]:
                problems.append("failed operations reported as %s" % name)
        print(json.dumps(res))
    for p in problems:
        print("selftest: FAIL: " + p, file=sys.stderr)
    if not problems:
        print("selftest: ok", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
