#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
perfbench/ (the simulator libraries from src/ plus the msbench program) in
the build directory named by $CARGO_TARGET_DIR, or .bench_build; later runs
only check that the build is current.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics, with --trace 1 the per-layer metrics.  The lines before
it give the run conditions and context.

Modeled values are deterministic.  The first run of a (binary, workload,
seed) stores them under <build>/modeled/; every later run of the same
triple must reproduce them bit for bit, or it reports correct: false.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_oneshot", "reuse_loop", "tiny_stream")
# msbench runs for --seconds plus set-up and scoring; a run that takes
# longer than this is stuck.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args():
    p = argparse.ArgumentParser(description="GPU multisplit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in [1, 600]")
    return args


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure and (re)build msbench; output goes to stderr.  Both
    steps are quick no-ops once the build is current."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", "msbench", "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(bdir, "msbench")


def git_sha():
    """The checked-out commit, read from .git without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_modeled(bdir, binary, workload, seed, modeled):
    """Compare modeled values with the first run of this binary and seed.

    Returns the names that differ.  Values are printed with 17 significant
    digits, so equal doubles compare equal after the JSON round trip."""
    d = os.path.join(bdir, "modeled", file_digest(binary))
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-%d.json" % (workload, seed))
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    drift = sorted(k for k, v in modeled.items() if k in known and known[k] != v)
    if not drift:
        merged = dict(known)
        merged.update(modeled)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(merged, f, sort_keys=True)
        os.replace(tmp, path)
    return drift


def main():
    args = parse_args()
    bdir = build_dir()
    binary = build(bdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: msbench did not finish in %d s" % RUN_TIMEOUT_S)
        return 1
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        log("perfbench: msbench exited with code %d" % r.returncode)
        return 1
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: msbench printed no result")
        return 1

    for line in lines[:-1]:
        print(line)
    print("run: workload=%s seed=%d seconds=%d trace=%d nproc=%d "
          "sim_threads=%d simd=%s git=%s"
          % (args.workload, args.seed, args.seconds, args.trace,
             res["nproc"], res["sim_threads"], res["simd"], git_sha()))
    correct = bool(res["correct"])
    drift = check_modeled(bdir, binary, args.workload, args.seed,
                          res["modeled"])
    if drift:
        correct = False
        print("ERROR: modeled values differ from an earlier run of this "
              "binary and seed: " + ", ".join(drift))
    metrics = res["metrics"]
    for name in sorted(metrics):
        value = metrics[name]["value"]
        if value is None:
            correct = False
            value = float("nan")
        print("  %-36s %.6g %s" % (name, value, metrics[name]["unit"]))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
