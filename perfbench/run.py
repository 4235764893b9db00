#!/usr/bin/env python3
"""The repo benchmark: builds perfbench/ (and the library under it) from
source, runs one workload and prints every metric by name with its unit.

Run from the repository root:

    python3 perfbench/run.py --workload search_1m --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (plus Chrome trace files under the build directory). The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. --repeat K runs the workload K times with seeds
seed..seed+K-1 and prints each metric's median, quartiles and spread, flagging
any end-to-end metric whose spread exceeds its bound.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Content hash of the library and benchmark sources: identifies the
    measured code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open("CMakeLists.txt", "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return "git-" + r.stdout.strip()
    return "src-" + source_digest()


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if r.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(build_dir, "perfbench")


def run_once(exe, args, seed, work_dir, commit):
    """One measuring process; returns its result object. Its other output
    lines are passed through."""
    cmd = [exe, "--workload", args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir, "--commit", commit]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S} s (seed {seed})")
    lines = r.stdout.splitlines()
    sys.stderr.write(r.stderr)
    if not lines:
        fail(f"no output (exit {r.returncode}, seed {seed})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"last line is not a result object (exit {r.returncode}, seed {seed})")
    if r.returncode != 0 or not result.get("correct"):
        fail(f"run failed (exit {r.returncode}, seed {seed}): "
             f"{result.get('failed')} of {result.get('attempted')} ops failed or disagreed with the oracle")
    return result


def check_names(result, declared):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}")


def repeat_summary(results, declared):
    """Median, quartiles and spreads per metric over the repeated runs."""
    print(f"repeat summary over {len(results)} runs (spread = IQR / median; "
          f"range = (max - min) / median)")
    print(f"  {'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'range':>8s} {'bound':>6s}")
    medians = {}
    for m in declared:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
        spread = (q3 - q1) / abs(med) if med else 0.0
        rng = (max(vals) - min(vals)) / abs(med) if med else 0.0
        bound = m.get("bound")
        note = ""
        if bound is not None and m["name"] != "setup_s":
            if spread > bound:
                note = "  EXCEEDS BOUND"
            elif spread > bound / 3:
                note = "  above bound/3"
        print(f"  {m['name']:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {rng:8.4f} "
              f"{'' if bound is None else bound:>6}{note}")
        medians[m["name"]] = {"value": med, "unit": m["unit"]}
    return medians


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1)
    args = p.parse_args()

    if not (os.path.isdir("src") and os.path.isfile("CMakeLists.txt")):
        fail("run from the repository root: the library sources (src/, CMakeLists.txt) are missing", 2)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    exe = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    commit = commit_id()
    print("run-context " + json.dumps({"nproc": len(os.sched_getaffinity(0)), "commit": commit,
                                       "workload": args.workload, "seed": args.seed,
                                       "seconds": args.seconds, "trace": args.trace,
                                       "repeat": args.repeat}))

    results = []
    for i in range(max(args.repeat, 1)):
        result = run_once(exe, args, args.seed + i, work_dir, commit)
        check_names(result, declared)
        results.append(result)
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": repeat_summary(results, declared)}
    print(json.dumps(final))


if __name__ == "__main__":
    main()
