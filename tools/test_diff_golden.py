#!/usr/bin/env python3
"""Golden-output test for `ms_cli diff`.

Drives the diff subcommand over the committed fixtures in tools/testdata/
and checks the full exit-code contract:

  0  identical reports            (self-diff of diff_base.json)
  1  regression found             (diff_base vs diff_edited: one bumped
                                   per-site sector counter; the finding must
                                   name the result row, site label and
                                   counter)
  2  unusable input               (schema_version mismatch against the v1
                                   fixture, a fractional schema_version,
                                   and a missing file)

Usage: test_diff_golden.py <ms_cli-binary> <testdata-dir>
"""

import subprocess
import sys
from pathlib import Path


def run_diff(ms_cli, *args):
    proc = subprocess.run([str(ms_cli), "diff", *map(str, args)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    ms_cli = Path(sys.argv[0 + 1])
    data = Path(sys.argv[2])
    base = data / "diff_base.json"
    edited = data / "diff_edited.json"
    old = data / "diff_old_schema.json"
    failures = []

    code, out = run_diff(ms_cli, base, base)
    if code != 0:
        failures.append(f"self-diff: expected exit 0, got {code}\n{out}")
    if "zero drift" not in out:
        failures.append(f"self-diff: missing 'zero drift' summary\n{out}")

    code, out = run_diff(ms_cli, base, edited)
    if code != 1:
        failures.append(f"edited diff: expected exit 1, got {code}\n{out}")
    needle = "sites[label=warp_ms/postscan_scatter].dram_read_tx"
    if needle not in out:
        failures.append(
            f"edited diff: finding does not name the edited site counter "
            f"({needle})\n{out}")
    if "baseline" not in out or "current" not in out:
        failures.append(f"edited diff: finding lacks before/after values\n{out}")

    code, out = run_diff(ms_cli, base, old)
    if code != 2:
        failures.append(
            f"old-schema diff: expected exit 2, got {code}\n{out}")
    if "schema_version" not in out:
        failures.append(
            f"old-schema diff: error does not mention schema_version\n{out}")

    # schema_version 8.75 is not a version, and never truncates to v8.
    code, out = run_diff(ms_cli, base, data / "diff_schema_fraction.json")
    if code != 2 or "schema_version" not in out:
        failures.append(
            f"fractional schema: expected exit 2 naming schema_version, "
            f"got {code}\n{out}")

    code, out = run_diff(ms_cli, base, data / "does_not_exist.json")
    if code != 2:
        failures.append(f"missing file: expected exit 2, got {code}\n{out}")

    # Tolerance flag: the edited counter drifts 2 transactions on a small
    # count; a huge tolerance must turn the failure into a pass.
    code, out = run_diff(ms_cli, base, edited, "--tolerance", "200")
    if code != 0:
        failures.append(
            f"tolerant diff: expected exit 0 at 200% tolerance, got {code}"
            f"\n{out}")

    if failures:
        print("FAIL: ms_cli diff golden test:")
        for f in failures:
            print("  " + f.replace("\n", "\n    "))
        return 1
    print("OK: ms_cli diff exit codes and finding paths match the contract")
    return 0


if __name__ == "__main__":
    sys.exit(main())
