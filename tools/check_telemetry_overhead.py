#!/usr/bin/env python3
"""CI gate: telemetry must observe, never perturb.

Runs bench/plan_reuse twice -- telemetry off and telemetry on -- and
enforces the two contracts of DESIGN.md §11:

  1. Modeled costs are tolerance-0 identical: `ms_cli diff --tolerance 0`
     of the two --json reports finds no drift (it skips the host_* keys;
     host wall-clock is the only thing allowed to differ).  Any drift in a
     modeled number means telemetry wrote to simulator state it should
     only read.
  2. Host overhead stays below 5%.  Both modes run several times and the
     *minimum* wall times are compared (min-of-N is the noise-resistant
     statistic; means conflate scheduler noise with real overhead).  A
     small absolute allowance covers timer quantization on sub-second
     runs.

Also checks the telemetry run actually produced a usable timeline (header
plus at least one snapshot) -- a silently empty file would make the
overhead comparison meaningless.

Usage: check_telemetry_overhead.py <plan_reuse-binary> <ms_cli-binary>
                                   [runs] [max_pct]
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Sub-second bench runs quantize on OS scheduling; this absolute slack
# keeps the percentage gate meaningful without hiding real overhead.
ABS_SLACK_SEC = 0.05


def timed_run(cmd):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: {' '.join(map(str, cmd))} exited "
                         f"{proc.returncode}")
    return elapsed


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench, ms_cli = Path(sys.argv[1]), Path(sys.argv[2])
    runs = int(sys.argv[3]) if len(sys.argv) > 3 else 3
    max_pct = float(sys.argv[4]) if len(sys.argv) > 4 else 5.0

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        off_json, on_json = tmp / "off.json", tmp / "on.json"
        timeline = tmp / "timeline.jsonl"

        off_times, on_times = [], []
        for i in range(runs):
            off_times.append(timed_run(
                [bench, "--json", off_json]))
            on_times.append(timed_run(
                [bench, "--json", on_json, "--telemetry", timeline]))

        diff = subprocess.run(
            [ms_cli, "diff", off_json, on_json, "--tolerance", "0"],
            capture_output=True, text=True)
        lines = [l for l in timeline.read_text().splitlines() if l.strip()]

    failures = []

    # Contract 1: modeled costs tolerance-0.
    print(diff.stdout, end="")
    if diff.returncode != 0:
        failures.append(
            f"ms_cli diff of the telemetry off/on reports exited "
            f"{diff.returncode}; its DRIFT lines above name the fields")

    # Contract 2: host overhead bounded.
    t_off, t_on = min(off_times), min(on_times)
    overhead_pct = ((t_on - t_off) / t_off * 100.0) if t_off > 0 else 0.0
    print(f"host wall (min of {runs}): off {t_off:.3f}s, on {t_on:.3f}s "
          f"({overhead_pct:+.1f}%)")
    if t_on > t_off * (1.0 + max_pct / 100.0) + ABS_SLACK_SEC:
        failures.append(
            f"telemetry host overhead {overhead_pct:.1f}% exceeds "
            f"{max_pct:.0f}%")

    # The timeline must be real: header line + >= 1 snapshot.
    if len(lines) < 2:
        failures.append(f"timeline has {len(lines)} line(s), expected a "
                        "header plus snapshots")
    else:
        header = json.loads(lines[0])
        if header.get("telemetry") != "timeline":
            failures.append("timeline header is malformed")
        final = json.loads(lines[-1])
        if not final.get("scalars") or not final.get("histograms"):
            failures.append("final telemetry snapshot is empty")

    if failures:
        print("\nFAIL: telemetry overhead gate:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"OK: modeled costs identical, overhead {overhead_pct:+.1f}% "
          f"<= {max_pct:.0f}%, timeline has {len(lines) - 1} snapshot(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
