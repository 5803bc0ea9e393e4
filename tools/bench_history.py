#!/usr/bin/env python3
"""Summarize the bench-history trajectory (bench/history/*.jsonl).

Each line of a history file is one recorded bench run (written by
`check_bench.py record`): git sha, schema version, host threads, the
bench's headline metrics per configuration, and request-latency
percentiles when the run carried a telemetry timeline.  This tool reads
those files and prints, per bench:

  - run count and the sha/time span covered,
  - per configuration: modeled headline first -> last (modeled drift is a
    real behavior change -- the simulator is deterministic),
  - host_keys_per_sec first -> last (host speed, noisy, min-of-trials),
  - latest request-latency percentiles when present.

Exit codes: 0 = summarized cleanly, 1 = malformed history (bad JSON,
missing fields, schema mismatch), 2 = usage error / nothing to read.

Usage: bench_history.py --summarize [file.jsonl | dir] ...
       (default path: bench/history next to this script's repo)
"""

import json
import sys
from pathlib import Path

# Report schema versions (kReportSchemaVersion, src/sim/metrics.hpp) this
# tool reads; `check_bench.py record` stamps each line with the version of
# the report it ran, so a schema bump must add itself here (the
# bench_history_selfcheck test fails until it does).  History records are
# append-only, so older stamps stay readable as long as the record fields
# are unchanged: v6 only added the "resilience" block to metrics reports
# and v7 only touched span dumps / timeline exemplars -- history rows carry
# the same fields as v5.  v8 adds the "batching" block and serving rows'
# requests_per_sec; every earlier field is unchanged.
COMPATIBLE_VERSIONS = (5, 6, 7, 8)

REQUIRED_FIELDS = (
    "history", "schema_version", "utc", "git_sha", "bench", "device",
    "log2_n", "trials", "host_threads", "results",
)


def load_history(path):
    """Parse one .jsonl history file into a list of run entries.

    Raises SystemExit(1) on malformed lines: history files are appended by
    tooling, so damage means something is wrong with the pipeline, not the
    data -- fail loudly.
    """
    entries = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as e:
            raise SystemExit(f"FAIL: {path}:{lineno}: malformed JSON: {e}")
        for field in REQUIRED_FIELDS:
            if field not in entry:
                raise SystemExit(
                    f"FAIL: {path}:{lineno}: missing field {field!r}")
        if entry["history"] != "bench_run":
            raise SystemExit(
                f"FAIL: {path}:{lineno}: not a bench_run record")
        if entry["schema_version"] not in COMPATIBLE_VERSIONS:
            raise SystemExit(
                f"FAIL: {path}:{lineno}: schema_version "
                f"{entry['schema_version']!r}, this tool reads "
                f"{COMPATIBLE_VERSIONS}")
        entries.append(entry)
    return entries


def headline(row):
    """Headline metric of one result row, preferring throughput.  Serving
    rows (v8) lead with request throughput."""
    if "requests_per_sec" in row:
        return row["requests_per_sec"], "req/s"
    if "rate_gkeys" in row:
        return row["rate_gkeys"], "Gkeys/s"
    if "steady_ms" in row:
        return row["steady_ms"], "steady ms"
    if "total_ms" in row:
        return row["total_ms"], "ms"
    return None, ""


def config_key(row):
    return (row.get("method"), row.get("m"), row.get("key_value"))


def pct_change(first, last):
    if first in (None, 0):
        return ""
    return f" ({(last - first) / first * 100.0:+.1f}%)"


def summarize_file(path):
    entries = load_history(path)
    if not entries:
        print(f"{path.name}: empty history")
        return
    first, last = entries[0], entries[-1]
    print(f"{last['bench']}: {len(entries)} run(s), "
          f"{first['git_sha']} ({first['utc']}) -> "
          f"{last['git_sha']} ({last['utc']}), "
          f"device {last['device']}, n=2^{last['log2_n']}, "
          f"host_threads {last['host_threads']}")

    first_rows = {config_key(r): r for r in first["results"]}
    for row in last["results"]:
        key = config_key(row)
        base = first_rows.get(key)
        val, unit = headline(row)
        if val is None:
            continue
        base_val = headline(base)[0] if base is not None else None
        span = (f"{base_val:10.3f} -> {val:10.3f} {unit}"
                f"{pct_change(base_val, val)}"
                if base_val is not None else f"{val:10.3f} {unit}")
        host = ""
        if "host_keys_per_sec" in row:
            base_host = (base or {}).get("host_keys_per_sec")
            host = f" | host {row['host_keys_per_sec']:10.3e} keys/s"
            if base_host:
                host += pct_change(base_host, row["host_keys_per_sec"])
        method, m, kv = key
        print(f"  {method:<18} m={m!s:<4} {'kv' if kv else 'key':<3} "
              f"{span}{host}")

    for name, h in (last.get("latency") or {}).items():
        print(f"  latency {name}: count {h['count']} "
              f"p50 {h['p50_ms']:.4f} p95 {h['p95_ms']:.4f} "
              f"p99 {h['p99_ms']:.4f} p99.9 {h['p999_ms']:.4f} "
              f"max {h['max_ms']:.4f} ms")

    # Resilience digest (v7 records): first -> last delta of the executor
    # accounting, so chaos-enabled history shows retry/fallback drift.
    res_last = last.get("resilience")
    if res_last:
        res_first = first.get("resilience") or {}
        parts = []
        for k in ("retries", "fallbacks", "recovered", "lost"):
            if k not in res_last:
                continue
            f_val, l_val = res_first.get(k), res_last[k]
            parts.append(f"{k} {f_val} -> {l_val}" if f_val is not None
                         and len(entries) > 1 else f"{k} {l_val}")
        if parts:
            print(f"  resilience: {', '.join(parts)}")

    # Batching digest (v8 records): serving-executor packing pressure of
    # the latest run (top-level for ms_cli-style reports, else the densest
    # per-row block a serving bench recorded).
    bat = last.get("batching")
    if not bat:
        rows = [r.get("batching") for r in last["results"]
                if isinstance(r.get("batching"), dict)]
        bat = max(rows, key=lambda b: b.get("batches", 0), default=None)
    if bat:
        fill = bat.get("fill_ratio")
        fill_txt = f", fill {fill * 100.0:.1f}%" if fill is not None else ""
        print(f"  batching: {bat.get('batches', 0)} batch(es), "
              f"{bat.get('packed_problems', 0)} packed / "
              f"{bat.get('unpacked_problems', 0)} unpacked, "
              f"{bat.get('fused_launches', 0)} fused launch(es)"
              f"{fill_txt}")


def main():
    args = sys.argv[1:]
    if "--summarize" not in args:
        print(__doc__, file=sys.stderr)
        return 2
    paths = [Path(a) for a in args if a != "--summarize"]
    if not paths:
        paths = [Path(__file__).resolve().parent.parent / "bench" / "history"]
    files = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.glob("*.jsonl")))
        elif p.is_file():
            files.append(p)
        else:
            print(f"bench_history: no such file or directory: {p}",
                  file=sys.stderr)
            return 2
    if not files:
        print("bench_history: no history files found (run "
              "`check_bench.py record <bench>` to start one)")
        return 0
    for i, f in enumerate(files):
        if i:
            print()
        summarize_file(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
