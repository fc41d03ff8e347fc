#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the repository root:

    python3 perfbench/smoke_test.py

It checks that
  * the same seed gives the same generated inputs (chain decks and job
    lists, served sweep points, kernel order) and another seed different
    ones;
  * every workload, untraced and traced, finishes in seconds at tiny size,
    reports correct=true, prints exactly the metrics BENCHMARK.json
    declares, and prints the workload-specific metrics on its record line;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

DETAIL = {
    ("chain-sweep", "0"): ["failed_frac"],
    ("chain-sweep", "1"): [
        "circuit.dc_ms", "circuit.ac_ms", "circuit.tran_ms", "solve.certify_ms",
        "rf.pss_ms", "rf.pss_ms_per_newton", "rf.cascade_first_stage_ratio",
        "batch.parallel_speedup",
    ],
    ("small-served", "0"): ["warm_sweep_p50_ms", "serve.retries", "serve.overloaded", "failed_frac"],
    ("small-served", "1"): [
        "serve.ack_ms", "serve.first_report_ms", "serve.done_ms", "serve.retries",
        "serve.overloaded", "batch.cache_hit_ratio",
    ],
    ("paper-kernels", "0"): [
        "hb2_fig1_ms", "mmft_fig4_ms", "ies3_fig6_ms", "pvl_sec5_ms", "pnoise_sec3_ms",
        "opt_lowpass_ms", "failed_frac",
    ],
    ("paper-kernels", "1"): [
        "rf.hb2_newton_iters", "rf.hb2_gmres_iters", "rf.mmft_newton_iters",
        "em.ies3_build_ms", "em.ies3_solve_ms", "em.ies3_matvec_ms", "em.ies3_memory_mb",
        "em.ies3_compression_ratio", "rom.pvl_reduce_ms", "rom.rom_transfer_us",
        "rom.exact_transfer_us", "noise.orbit_ms", "noise.ppv_ms", "opt.evals",
        "opt.eval_ms", "opt.cache_hit_ratio",
    ],
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(args, cwd=".", timeout=120):
    return subprocess.run(
        ["python3", "perfbench/run.py"] + args,
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }

    a = bench(["--dump-inputs", "--seed", "1"]).stdout
    b = bench(["--dump-inputs", "--seed", "1"]).stdout
    c = bench(["--dump-inputs", "--seed", "2"]).stdout
    check(a != "" and a == b, "same seed gives the same inputs")
    for kind in ("chain", "served", "kernels"):
        pick = lambda s: [l for l in s.splitlines() if l.lstrip().startswith(kind)]
        check(pick(a) != pick(c), "another seed gives other %s inputs" % kind)

    for w in [x["name"] for x in spec["workloads"]]:
        for trace in ("0", "1"):
            t0 = time.time()
            p = bench(["--workload", w, "--seed", "1", "--seconds", "1",
                       "--trace", trace, "--size", "tiny"])
            wall = time.time() - t0
            tag = "%s trace=%s" % (w, trace)
            check(p.returncode == 0, "%s exits 0 (%.1f s)" % (tag, wall))
            check(wall < 60, "%s finishes in seconds" % tag)
            lines = p.stdout.strip().splitlines()
            if len(lines) < 2:
                check(False, "%s prints a record and a result\n%s" % (tag, p.stderr[-2000:]))
                continue
            result, record = json.loads(lines[-1]), json.loads(lines[-2])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s result has exactly the contract keys" % tag)
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, "%s is correct" % tag)
            check(set(result["metrics"]) == declared[trace],
                  "%s prints every declared metric" % tag)
            check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                      and m["unit"] for m in result["metrics"].values()),
                  "%s metric values are finite numbers with units" % tag)
            missing = [n for n in DETAIL[(w, trace)] if n not in record["detail"]]
            check(not missing, "%s record names its workload metrics %s" % (tag, missing or ""))
            check(set(record["fingerprint"]) >= {"nproc", "ocaml", "calibration_ms"},
                  "%s record carries the machine fingerprint" % tag)

    bare = os.path.join(".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench(["--workload", "chain-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
              cwd=bare, timeout=180)
    check(p.returncode != 0 and '"correct"' not in p.stdout,
          "a directory with only the benchmark exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
