#!/usr/bin/env python3
"""Builds and runs the wall-clock platform benchmark.

Run from the root of the repository:

  python3 bench/platform/run.py --workload ingest_mix --seed 1 --seconds 12
  python3 bench/platform/run.py --workload ingest_mix --seed 1 --trace 1
  python3 bench/platform/run.py --seed 1 --runs 3 --out a.json   # a set
  python3 bench/platform/run.py --smoke                          # < 30 s
  python3 bench/platform/run.py --workload ingest_mix --calibrate

The first call configures and builds bench/platform (Release) into
build-bench/; later calls only re-run the incremental build. One workload
and one run: the benchmark's own output is passed through, and its last
line is the JSON verdict. Several runs (a set): each run's JSON is kept in
--out, alternating the workload order between rounds, for agree.py.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "platform_bench")
WORKLOADS = ["ingest_mix", "durable_ingest", "query_fanout", "paging_skew"]
RUN_TIMEOUT_S = 170


def fail(msg, code):
    sys.stderr.write("run.py: %s\n" % msg)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("runtime sources (src/) not found next to bench/platform", 3)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "platform_bench",
                      "-j", "4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see %s)" % log_path, 3)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, extra=(), echo=False):
    """Runs the binary once; returns (exit code, parsed last-line JSON)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--work-dir",
           BUILD] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("%s seed %d did not finish in %d s" % (workload, seed,
                                                   RUN_TIMEOUT_S), 4)
    lines = proc.stdout.rstrip("\n").split("\n") if proc.stdout else []
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def smoke():
    """Every workload at 10% rate with 2 s phases; every metric that
    BENCHMARK.json lists must be printed, with its unit."""
    spec = bench_spec()
    wanted = {m["name"]: m["unit"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    for w in WORKLOADS:
        code, result = run_once(w, 1, 2, True, ["--smoke"])
        if result is None:
            problems.append("%s: no JSON result (exit %d)" % (w, code))
            continue
        if code != 0 or not result.get("correct"):
            problems.append("%s: run failed its checks (exit %d)" % (w, code))
        got = result.get("metrics", {})
        for name, unit in sorted(wanted.items()):
            if name not in got:
                problems.append("%s: metric %s missing" % (w, name))
            elif got[name].get("unit") != unit:
                problems.append("%s: metric %s has unit %s, want %s" %
                                (w, name, got[name].get("unit"), unit))
        print("smoke %s: %d metrics, correct=%s" %
              (w, len(got), result.get("correct")))
    for p in problems:
        print("smoke FAIL " + p)
    if problems:
        sys.exit(1)
    print("smoke OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--calibrate", action="store_true")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload (seeds seed, seed+1, ...)")
    ap.add_argument("--out", help="write every run's result to this file")
    ap.add_argument("--reverse", action="store_true",
                    help="start a set with the workloads in reverse order")
    args = ap.parse_args()

    build()
    if args.smoke:
        smoke()
        return
    seconds = args.seconds
    if seconds is None:
        seconds = bench_spec()["run_seconds"]
    trace = args.trace == "1"
    extra = ["--calibrate"] if args.calibrate else []

    if args.workload and args.runs == 1 and not args.out:
        code, result = run_once(args.workload, args.seed, seconds, trace,
                                extra, echo=True)
        if result is None:
            fail("benchmark printed no result (exit %d)" % code, 5)
        sys.exit(code)

    workloads = [args.workload] if args.workload else WORKLOADS
    records = []
    all_ok = True
    for r in range(args.runs):
        forward = (r % 2 == 0) != args.reverse
        order = workloads if forward else list(reversed(workloads))
        for w in order:
            seed = args.seed + r
            t0 = time.time()
            code, result = run_once(w, seed, seconds, trace, extra)
            if result is None:
                fail("%s seed %d printed no result (exit %d)" % (w, seed, code),
                     5)
            all_ok = all_ok and code == 0 and result["correct"]
            records.append({"workload": w, "seed": seed, "trace": int(trace),
                            "wall_s": round(time.time() - t0, 2),
                            "result": result})
            print("%s seed %d: correct=%s failed=%d (%.1f s)" %
                  (w, seed, result["correct"], result["failed"],
                   time.time() - t0))
            sys.stdout.flush()
    out = args.out or os.path.join(BUILD, "results", "set-%d.json" %
                                   int(time.time()))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"seconds": seconds, "trace": int(trace), "runs": records},
                  f, indent=1)
    print("wrote %s" % out)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
