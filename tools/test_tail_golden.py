#!/usr/bin/env python3
"""Golden-output test for `ms_cli tail`.

Drives the tail subcommand over the committed span-dump fixture in
tools/testdata/ and checks the output and exit-code contract:

  0  rendered        (the fixture: p99 line, ranked attribution table
                      summing to 100%, retry-backoff category from the
                      chaos-recovered requests, slowest-N trees with the
                      request/attempt/stage/launch nesting and fault
                      events; every listed request >= 95% attributed)
  2  unusable input  (a telemetry timeline is not a span dump; missing
                      file; a span whose parent is not an earlier span --
                      self-parented launch or request, parent out of range
                      -- is a malformed line, never a hang or a crash;
                      so is a fractional span or parent id; a
                      schema_version past 2^32 is not read as a
                      wrapped-around v8)

Usage: test_tail_golden.py <ms_cli-binary> <testdata-dir>
"""

import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path


# A broken tail can loop forever or print an unbounded tree; bound both so
# the test fails instead of hanging or filling memory.
TIMEOUT_S = 30
MAX_OUTPUT_BYTES = 16 << 20


def cap_output():
    resource.setrlimit(resource.RLIMIT_FSIZE,
                       (MAX_OUTPUT_BYTES, MAX_OUTPUT_BYTES))


def run_tail(ms_cli, *args):
    with tempfile.TemporaryFile() as out:
        try:
            proc = subprocess.run([str(ms_cli), "tail", *map(str, args)],
                                  stdout=out, stderr=subprocess.STDOUT,
                                  timeout=TIMEOUT_S, preexec_fn=cap_output)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {TIMEOUT_S} s"
        out.seek(0)
        return proc.returncode, out.read().decode(errors="replace")


def clip(text, limit=4000):
    return text if len(text) <= limit else text[:limit] + "\n... (clipped)"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    ms_cli = Path(sys.argv[1])
    data = Path(sys.argv[2])
    fixture = data / "spans_chaos_small.jsonl"
    not_spans = data / "diff_base.json"
    failures = []

    code, out = run_tail(ms_cli, fixture, "--top", "3")
    if code != 0:
        failures.append(f"fixture: expected exit 0, got {code}\n{out}")
    for needle in (
            "p99 request latency:",
            "tail-latency attribution",
            "retry backoff",
            "launch overhead",
            "slowest 3 request(s)",
            "request:",
            "attempt:",
            "stage:",
            "launch:",
            "! retry",
    ):
        if needle not in out:
            failures.append(f"fixture: output missing '{needle}'\n{out}")

    # The acceptance bar: every slow request's latency >= 95% attributed
    # to named categories (the span model makes it exactly 100%).
    shares = re.findall(r"attributed (\d+(?:\.\d+)?)%", out)
    if not shares:
        failures.append(f"fixture: no per-request attribution lines\n{out}")
    for s in shares:
        if float(s) < 95.0:
            failures.append(f"fixture: request only {s}% attributed\n{out}")
    total = re.search(r"^  total\s+\S+\s+(\d+(?:\.\d+)?)%", out, re.M)
    if total is None:
        failures.append(f"fixture: no attribution total line\n{out}")
    elif float(total.group(1)) < 95.0:
        failures.append(
            f"fixture: tail set only {total.group(1)}% attributed\n{out}")

    code, out = run_tail(ms_cli, not_spans)
    if code != 2 or "not a span dump" not in out:
        failures.append(
            f"non-span input: expected exit 2 + diagnostic, got {code}\n{out}")

    code, out = run_tail(ms_cli, data / "no_such_file.jsonl")
    if code != 2:
        failures.append(f"missing file: expected exit 2, got {code}\n{out}")

    for name, line in (("spans_parent_self_launch.jsonl", 3),
                       ("spans_parent_self_request.jsonl", 2),
                       ("spans_parent_out_of_range.jsonl", 3),
                       ("spans_fractional_ids.jsonl", 3)):
        code, out = run_tail(ms_cli, data / name)
        if code != 2 or f"tail: malformed line {line}" not in out:
            failures.append(f"{name}: expected exit 2 + 'malformed line "
                            f"{line}', got {code}\n{out}")

    code, out = run_tail(ms_cli, data / "spans_schema_overflow.jsonl")
    if code != 2 or "schema v4294967304" not in out:
        failures.append(f"spans_schema_overflow.jsonl: expected exit 2 + "
                        f"'schema v4294967304', got {code}\n{out}")

    if failures:
        print("FAIL: ms_cli tail golden contract:")
        for f in failures:
            print(f"  {clip(f)}")
        return 1
    print("OK: ms_cli tail golden contract holds over committed fixtures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
