#!/usr/bin/env python3
"""Regenerate the Polybench reference checksums the benchmark checks against.

Every kernel of workloads/polybench is scaled the way the benchmark scales
it (each `#define NAME <integer>` multiplied by 8, MINI x8), compiled as plain
C with the host C compiler, and run. No DCIR code is involved: this is the
independent oracle. The kernels keep their arrays on the stack (heat-3d at
x8 holds about 8 MB), so each runs on a thread with a 1 GiB stack.

Run from the repository root:

    python3 perfbench/reference/make_reference.py \
        --out perfbench/reference/polybench_x8.json

The output records each kernel's checksum, the scaled defines (the
benchmark refuses to run when the source it compiles defines different
sizes) and the exact compile command.
"""

import argparse
import glob
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

DEFINE = re.compile(r"^#define[ \t]+(\S+)[ \t]+(-?\d+)[ \t\r]*$")
# The benchmark's Polybench size (PolybenchScale in src/Workloads.cpp) and
# the file run.py reads.
SCALE = 8
OUT = "perfbench/reference/polybench_x8.json"

DRIVER = r"""
#include <math.h>
#include <pthread.h>
#include <stdio.h>

static double Result;
static void *run(void *Arg) {
  (void)Arg;
  Result = %(entry)s();
  return 0;
}

int main(void) {
  pthread_attr_t Attr;
  pthread_t T;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, (size_t)1 << 30);
  if (pthread_create(&T, &Attr, run, 0) != 0)
    return 2;
  pthread_join(T, 0);
  printf("%%.17g\n", Result);
  return 0;
}
"""


def scale_source(source, factor):
    lines, defines = [], {}
    for line in source.split("\n"):
        m = DEFINE.match(line)
        if m:
            value = int(m.group(2)) * factor
            defines[m.group(1)] = value
            line = "#define %s %d" % (m.group(1), value)
        lines.append(line)
    return "\n".join(lines), defines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--cc", default=os.environ.get("CC", "cc"))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    root = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
    cflags = ["-O2", "-ffp-contract=off", "-fno-fast-math", "-pthread"]
    version = subprocess.run([args.cc, "--version"], capture_output=True,
                             text=True, check=True).stdout.split("\n")[0]
    kernels = {}
    work = tempfile.mkdtemp(prefix="polyref-", dir=os.path.dirname(
        os.path.abspath(args.out)))
    try:
        for path in sorted(glob.glob(os.path.join(root, "workloads",
                                                  "polybench", "*.c"))):
            stem = os.path.splitext(os.path.basename(path))[0]
            entry = "kernel_" + stem
            with open(path) as f:
                scaled, defines = scale_source(f.read(), SCALE)
            src = os.path.join(work, stem + ".c")
            exe = os.path.join(work, stem)
            with open(src, "w") as f:
                f.write("#include <math.h>\n" + scaled + "\n" +
                        DRIVER % {"entry": entry})
            subprocess.run([args.cc] + cflags + [src, "-o", exe, "-lm"],
                           check=True)
            out = subprocess.run([exe], capture_output=True, text=True,
                                 check=True).stdout.strip()
            kernels[stem] = {"entry": entry, "checksum": float(out),
                             "checksum_text": out, "defines": defines}
            print("%-16s %s" % (stem, out), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    doc = {
        "scale": SCALE,
        "compiler": version,
        "compile": " ".join([args.cc] + cflags + ["<kernel>.c", "-lm"]),
        "regenerate": "python3 perfbench/reference/make_reference.py "
                      "--out " + OUT,
        "kernels": kernels,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
