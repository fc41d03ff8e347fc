#!/usr/bin/env python3
"""Build and run the rfkit benchmark from the repository root.

    python3 perfbench/run.py --workload chain-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

The first form runs one workload, untraced (--trace 0, end-to-end metrics)
or traced (--trace 1, per-layer metrics); its last stdout line is the
result object. --all runs every workload untraced and then traced, so one
command prints every metric. --size tiny shrinks the inputs (smoke test).

The script builds perfbench.exe and rfsim.exe with dune (dune's shared
cache disabled, so nothing is written outside the checkout) and exits
non-zero without a result when the build fails.
"""

import glob
import os
import shutil
import subprocess
import sys

WORKLOADS = ["chain-sweep", "small-served", "paper-kernels"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RFSIM = os.path.join("_build", "default", "bin", "rfsim.exe")


def dune():
    """dune from PATH, else from an opam switch under the home directory."""
    found = shutil.which("dune") or next(
        iter(sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))), None)
    if not found:
        sys.exit("perfbench: dune not found")
    return found


def build():
    exe = dune()
    # the switch's compilers sit beside dune; the shared cache stays off
    path = os.path.dirname(exe) + os.pathsep + os.environ.get("PATH", "")
    env = dict(os.environ, DUNE_CACHE="disabled", PATH=path)
    cmd = [exe, "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/rfsim.exe"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit("perfbench: build failed")


def run(args):
    proc = subprocess.run([EXE, "--rfsim", RFSIM] + args)
    return proc.returncode


def main():
    args = sys.argv[1:]
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the repository root")
    build()
    if "--all" not in args:
        # replace this process, so a stop signal reaches the benchmark
        os.execv(EXE, [EXE, "--rfsim", RFSIM] + args)
    rest = [a for a in args if a != "--all"]
    code = 0
    for trace in ("0", "1"):
        for w in WORKLOADS:
            code = run(["--workload", w, "--trace", trace] + rest) or code
    sys.exit(code)


if __name__ == "__main__":
    main()
