#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload train_hosr --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR, default .bench_build; later runs only
rebuild what changed. perfbench/config.json holds each workload's fixed
offered rate.
Progress goes to stderr. Stdout ends with the host fingerprint line and
then one JSON line: correct, attempted, failed and metrics -- the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. The full result, with fingerprint and gates, is saved under
.bench_out/; a traced run also leaves its spans there as gzipped JSON. The
exit code is non-zero when the build, a correctness gate or the metric
check fails.

  python3 perfbench/run.py --compare DIR_A DIR_B

prints per-metric medians of two sets of saved results, and refuses (exit
2) when their host fingerprints differ.
"""

import argparse
import gzip
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Fingerprint keys that must match for two results to be comparable. The
# source hashes differ by design between the two sides of a comparison.
HOST_KEYS = ("nproc", "cpu_model", "dispatch", "build_type")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr) == 0


def source_sha():
    """Hash of every file the benchmark builds from (src/ and perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout's own .git, if it has one."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git_dir, head[5:])) as f:
                head = f.read().strip()
        return head
    except OSError:
        return "none"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_metrics(metrics, expected):
    problems = []
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            problems.append("missing metric " + name)
        elif got.get("unit") != unit:
            problems.append("%s: unit %s, expected %s"
                            % (name, got.get("unit"), unit))
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("%s: value %r is not a finite number"
                            % (name, got.get("value")))
    for name in metrics:
        if name not in expected:
            problems.append("unexpected metric " + name)
    return problems


def run(args):
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    if args.workload not in config["fixed_rate"]:
        log("run.py: unknown workload %r" % args.workload)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        log("run.py: build failed")
        return 1
    binary = os.path.join(build_dir, "hosr_perfbench")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(ROOT, ".bench_work", "%s-%d" % (tag, os.getpid()))
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--fixed_rate=%g" % config["fixed_rate"][args.workload],
           "--workdir=" + workdir]
    spans_path = os.path.join(out_dir, tag + ".spans.json")
    if args.trace:
        cmd.append("--trace_out=" + spans_path)

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run.py: workload exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if os.path.exists(spans_path):
        with open(spans_path, "rb") as raw, \
                gzip.open(spans_path + ".gz", "wb") as packed:
            shutil.copyfileobj(raw, packed)
        os.remove(spans_path)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        log("run.py: workload printed no result (exit %d)" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    problems = check_metrics(result["metrics"], expected_metrics(args.trace))
    for p in problems:
        log("run.py: " + p)

    result["fingerprint"]["source_sha"] = source_sha()
    result["fingerprint"]["git_sha"] = git_sha()
    result["workload"] = args.workload
    result["seed"] = args.seed
    result["trace"] = args.trace
    with open(os.path.join(out_dir, tag + ".json"), "w") as f:
        json.dump(result, f, indent=1)

    correct = bool(result["correct"]) and not problems
    print(json.dumps({"fingerprint": result["fingerprint"]}))
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(result["attempted"])),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}))
    sys.stdout.flush()
    return 0 if correct and proc.returncode == 0 else 1


def load_results(directory):
    results = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                results.append(json.load(f))
    return results


def compare(dir_a, dir_b):
    sides = [load_results(dir_a), load_results(dir_b)]
    hosts = {tuple(r["fingerprint"].get(k) for k in HOST_KEYS)
             for side in sides for r in side}
    if len(hosts) != 1:
        log("run.py: refusing to compare results from different hosts:")
        for host in sorted(hosts, key=str):
            log("  " + ", ".join("%s=%s" % kv for kv in zip(HOST_KEYS, host)))
        return 2
    medians = []
    for side in sides:
        values = {}
        for r in side:
            for name, m in r["metrics"].items():
                key = (r["workload"], r["trace"], name, m["unit"])
                values.setdefault(key, []).append(m["value"])
        medians.append({k: statistics.median(v) for k, v in values.items()})
    print("%-18s %-34s %14s %14s %8s" % ("workload", "metric", "A", "B", "B/A"))
    for key in sorted(set(medians[0]) & set(medians[1])):
        a, b = medians[0][key], medians[1][key]
        ratio = "%8.3f" % (b / a) if a else "       -"
        print("%-18s %-34s %14.6g %14.6g %s" % (key[0], key[2], a, b, ratio))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="DIR")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
