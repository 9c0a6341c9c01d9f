#!/usr/bin/env python3
"""The repository benchmark: builds dcirbench from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to .bench_build/perfbench
(first run: about a minute on 3 cores). Workloads: polybench-serial,
polybench-par3, serve-fixed, serve-shapes (see perfbench/NOTES.md).

--trace 0 measures the end-to-end metrics. Set-up is measured three times,
each from an empty JIT cache (two set-up-only processes, then the measuring
process), and setup_s is their median; it is left out when an operation of
any set-up failed. --trace 1 runs the traced process,
which prints the per-layer metrics. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. A report with the
per-program rows and host metadata goes to .bench_build/perfbench/reports/.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
REPORTS = os.path.join(BUILD, "reports")
WORKLOADS = ("polybench-serial", "polybench-par3", "serve-fixed",
             "serve-shapes")
SETUP_REPEATS = 3
# Every child must end well inside the 180 s a run may take.
CHILD_TIMEOUT = 150


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def run_child(cmd, env, timeout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("%s timed out after %d s" % (cmd[0], timeout))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def child_env():
    env = dict(os.environ)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    # The benchmark sets its own private cache; inherited tracing or
    # process-wide compile switches would change what is measured.
    for var in ("DCIR_CACHE_DIR", "DCIR_TRACE", "DCIR_PROFILE_MAPS",
                "DCIR_CHECK_BOUNDS", "DCIR_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
    return env


def build():
    """Configures and builds dcirbench; returns the binary's path."""
    for need in ("CMakeLists.txt", "src", os.path.join("workloads",
                                                       "polybench")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise RuntimeError("no DCIR source tree here (missing %s)" % need)
    env = child_env()
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], env=env, check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "3"], env=env,
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "dcirbench")


def write_reference():
    """Converts the reference checksums to the table dcirbench reads."""
    with open(os.path.join(HERE, "reference", "polybench_x8.json")) as f:
        ref = json.load(f)
    path = os.path.join(WORK, "polybench_x8.tsv")
    with open(path, "w") as f:
        for stem, k in sorted(ref["kernels"].items()):
            defs = ",".join("%s=%d" % kv for kv in sorted(k["defines"].items()))
            f.write("%s %s %s\n" % (stem, k["checksum_text"], defs))
    return path


def parse_result(code, out, what):
    """The child's last stdout line; the lines before it are passed on."""
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (what, code))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def print_rows(res):
    rows = res.get("rows") or []
    if rows:
        print("%-16s %12s %12s %12s %8s" % ("row", "median_ms", "q1_ms",
                                             "q3_ms", "n"))
        for r in rows:
            def f(v):
                return "%12.6f" % v if v is not None else "%12s" % "-"
            print("%-16s %s %s %s %8d" % (r["key"], f(r["median_ms"]),
                                          f(r["q1_ms"]), f(r["q3_ms"]),
                                          r["n"]))
    print("host: " + json.dumps(res.get("meta", {})))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--kernels", default="",
                    help="comma-separated Polybench subset (self-test)")
    args = ap.parse_args()

    try:
        binary = build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2
    os.makedirs(REPORTS, exist_ok=True)
    env = child_env()
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--work", WORK,
            "--reference", write_reference()]
    if args.kernels:
        base += ["--kernels", args.kernels]
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    results = []
    try:
        if args.trace:
            cmd = base + ["--traced", "--trace-out",
                          os.path.join(REPORTS, tag + ".trace.json")]
            results.append(parse_result(*run_child(cmd, env, CHILD_TIMEOUT),
                                        "traced run"))
        else:
            deadline = time.monotonic() + CHILD_TIMEOUT
            for _ in range(SETUP_REPEATS - 1):
                results.append(parse_result(
                    *run_child(base + ["--setup-only"], env,
                               deadline - time.monotonic()), "set-up run"))
            results.append(parse_result(
                *run_child(base, env, deadline - time.monotonic()),
                "measuring run"))
    except (RuntimeError, ValueError) as e:
        log(str(e))
        return 1
    finally:
        for d in glob.glob(os.path.join(WORK, "cache-*")):
            shutil.rmtree(d, ignore_errors=True)

    main_res = results[-1]
    metrics = {k: v for k, v in main_res["metrics"].items()
               if v["value"] is not None}
    if not args.trace:
        setups = [r["metrics"]["setup_s"]["value"] for r in results]
        if None not in setups:
            metrics["setup_s"] = {"value": statistics.median(setups),
                                  "unit": "s"}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["correct"] for r in results)

    print_rows(main_res)
    with open(os.path.join(REPORTS, tag + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "runs": results}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
