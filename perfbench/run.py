#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload inproc-64k --seed 1 --seconds 30 --trace 0

Builds the library, bonsai_sim and the harness into .bench_build (configure
once, then an incremental build on every call), runs the harness, records the
full result with its build fingerprint under .bench_build/results/, and
prints as the last line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. Exit code: 0 when every
operation and correctness check passed, 1 when one failed, 2 when the build
or the harness could not run.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                    "--target", "bonsai_perfbench", "bonsai_sim"],
                   check=True, stdout=sys.stderr)
    return build_dir


def source_digest(root):
    """sha256 over the files a build reads: the library, its build file and
    the benchmark itself (the checkout the benchmark runs in has no git)."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", os.path.relpath(HERE, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(".") and d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_state(root):
    """(sha, dirty) of the checkout when it is itself a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != os.path.realpath(root):
            return None, None
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", "src", "CMakeLists.txt",
                    os.path.relpath(HERE, root)) != ""
        return sha, dirty
    except (OSError, subprocess.CalledProcessError):
        return None, None


def expected_metrics(root, trace):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_harness(cmd):
    """Run the harness in its own process group, echoing its output; returns
    (exit code, last output line). On timeout the whole group is killed."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"harness exceeded {HARNESS_TIMEOUT_S} s and was killed")
        return 2, ""
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    return proc.returncode, lines[-1] if lines else ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["inproc-64k", "mesh-256k-drift", "serve-jobs"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    try:
        build_dir = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    stamp = time.strftime("%Y%m%dT%H%M%S")
    results_dir = os.path.join(build_dir, "results")
    scratch_dir = os.path.join(build_dir, "scratch")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(scratch_dir, exist_ok=True)
    base = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}")
    cmd = [os.path.join(build_dir, "bonsai_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--sim-binary", os.path.join(build_dir, "repo", "bonsai_sim"),
           "--scratch-dir", scratch_dir, "--spans", base + ".spans.json"]
    rc, last = run_harness(cmd)
    try:
        record = json.loads(last)
    except json.JSONDecodeError:
        log(f"harness exited with {rc} without a result")
        return 2

    expected = expected_metrics(root, args.trace)
    if expected is not None and set(record["metrics"]) != expected:
        missing = sorted(expected - set(record["metrics"]))
        extra = sorted(set(record["metrics"]) - expected)
        record["failures"].append(f"metric set differs from BENCHMARK.json: "
                                  f"missing {missing}, unlisted {extra}")
        record["failed"] += 1
        record["attempted"] += 1
        record["correct"] = False
        rc = 1

    sha, dirty = git_state(root)
    record["fingerprint"].update({"git_sha": sha, "git_dirty": dirty,
                                  "source_sha256": source_digest(root),
                                  "seed": args.seed})
    with open(base + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"fingerprint": record["fingerprint"]}))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if rc == 0 and record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
