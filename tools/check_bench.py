#!/usr/bin/env python3
"""Append one bench run to the cross-commit bench history.

Runs a bench binary with --json (and --telemetry) and appends one JSONL
line -- git sha, the report's schema version, host threads, headline
metrics, request-latency percentiles when the bench emits a telemetry
timeline -- to bench/history/<bench>.jsonl, the trajectory
tools/bench_history.py summarizes.

Comparing a run against a committed baseline is `ms_cli diff`'s job; see
tools/check_baseline.cmake.

Usage: check_bench.py record <bench-binary> [--history-dir <dir>]
                      [--n <log2>] [--trials <k>]
"""

import datetime
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent)
        sha = proc.stdout.strip()
        return sha if proc.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


def latency_from_timeline(path):
    """Histogram digests of the final snapshot of a --telemetry timeline
    (None when the bench wrote no usable timeline)."""
    try:
        lines = [l for l in Path(path).read_text().splitlines() if l.strip()]
    except OSError:
        return None
    if len(lines) < 2:
        return None
    header = json.loads(lines[0])
    if header.get("telemetry") != "timeline":
        return None
    snap = json.loads(lines[-1])
    digests = {}
    for name, h in snap.get("histograms", {}).items():
        digests[name] = {k: h[k] for k in (
            "count", "p50_ms", "p95_ms", "p99_ms", "p999_ms", "max_ms")}
    return digests or None


def cmd_record(argv):
    """`record` mode: run one bench, append one history line."""
    bench = None
    history_dir = Path(__file__).resolve().parent.parent / "bench" / "history"
    log2_n = None
    trials = None
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--history-dir":
            i += 1
            history_dir = Path(argv[i])
        elif a == "--n":
            i += 1
            log2_n = int(argv[i])
        elif a == "--trials":
            i += 1
            trials = int(argv[i])
        elif bench is None and not a.startswith("-"):
            bench = Path(a)
        else:
            print(f"record: unexpected argument {a!r}", file=sys.stderr)
            return 2
        i += 1
    if bench is None:
        print(__doc__, file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "report.json"
        telem_path = Path(tmp) / "timeline.jsonl"
        cmd = [str(bench), "--json", str(out_path),
               "--telemetry", str(telem_path)]
        if log2_n is not None:
            cmd += ["--n", str(log2_n)]
        if trials is not None:
            cmd += ["--trials", str(trials)]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
            return 1
        report = json.loads(out_path.read_text())
        latency = latency_from_timeline(telem_path)

    entry = {
        "history": "bench_run",
        "schema_version": report["schema_version"],
        "utc": datetime.datetime.now(datetime.timezone.utc)
               .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_sha": git_sha(),
        "bench": report["bench"],
        "device": report["device"],
        "log2_n": report["log2_n"],
        "trials": report["trials"],
        "host_threads": int(os.environ.get("MS_HOST_THREADS", 0))
                        or (os.cpu_count() or 1),
        "results": [],
    }
    # Additive provenance (never compared): which host lane engine ran.
    if "host_simd" in report:
        entry["host_simd"] = report["host_simd"]
    if latency is not None:
        entry["latency"] = latency
    # Resilience digest (v7): the executor-side accounting worth trending.
    # All zeros in ordinary bench runs (chaos is off), but history from
    # chaos-enabled runs shows retry/fallback pressure over time.
    res = report.get("resilience")
    if res is not None:
        entry["resilience"] = {k: res[k] for k in (
            "requests", "faults_observed", "retries", "fallbacks",
            "recovered", "lost") if k in res}
    # Batching digest (v8): serving-executor packing pressure over time.
    bat = report.get("batching")
    if bat is not None and bat.get("batches", 0) > 0:
        entry["batching"] = {k: bat[k] for k in (
            "batches", "packed_problems", "unpacked_problems",
            "fused_launches", "fill_ratio", "problems_retried") if k in bat}
    for row in report["results"]:
        rec = {k: row[k] for k in ("method", "m", "key_value") if k in row}
        for k in ("method_selected", "rate_gkeys", "total_ms", "steady_ms",
                  "host_ms", "host_ms_min", "host_keys_per_sec",
                  "requests_per_sec", "launch_overhead_pct"):
            if k in row:
                rec[k] = row[k]
        if isinstance(row.get("batching"), dict):
            rec["batching"] = row["batching"]
        entry["results"].append(rec)

    history_dir.mkdir(parents=True, exist_ok=True)
    out_file = history_dir / f"{report['bench']}.jsonl"
    with out_file.open("a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"recorded {report['bench']} @ {entry['git_sha']} -> {out_file}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "record":
        return cmd_record(sys.argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
