#!/usr/bin/env python3
"""Checks the shape of a BENCH_throughput.json written by perf_microbench.

Usage: check_throughput_json.py <path>

The document must parse as JSON and carry exactly the top-level keys and
the battery keys below. Every row list must be non-empty, and every row
must hold its label key plus median, p25, p75 (numbers) and n (an
integer). Exits 0 when the shape holds and 1 with one line per fault
otherwise.
"""
import json
import sys

TOP_KEYS = {"benchmark", "unit", "aggregation", "repeats",
            "hardware_threads", "cpu_model", "bits_per_measurement",
            "sources", "battery"}
BATTERY_KEYS = {"bits", "tests", "threads", "whole_battery"}


def check_keys(obj, want, where, faults):
    if not isinstance(obj, dict):
        faults.append(f"{where}: not an object")
        return False
    if set(obj) != want:
        faults.append(f"{where}: keys {sorted(obj)}, want {sorted(want)}")
        return False
    return True


def check_rows(rows, label, where, faults):
    if not isinstance(rows, list) or not rows:
        faults.append(f"{where}: not a non-empty array")
        return
    want = {label, "median", "p25", "p75", "n"}
    for i, row in enumerate(rows):
        at = f"{where}[{i}]"
        if not check_keys(row, want, at, faults):
            continue
        if not isinstance(row[label], str):
            faults.append(f"{at}.{label}: not a string")
        for key in ("median", "p25", "p75"):
            if isinstance(row[key], bool) or \
                    not isinstance(row[key], (int, float)):
                faults.append(f"{at}.{key}: not a number")
        if isinstance(row["n"], bool) or not isinstance(row["n"], int):
            faults.append(f"{at}.n: not an integer")


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        with open(argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"{argv[1]}: {e}", file=sys.stderr)
        return 1
    faults = []
    if check_keys(doc, TOP_KEYS, "document", faults):
        check_rows(doc["sources"], "id", "sources", faults)
        if check_keys(doc["battery"], BATTERY_KEYS, "battery", faults):
            check_rows(doc["battery"]["tests"], "name", "battery.tests",
                       faults)
            check_rows(doc["battery"]["whole_battery"], "engine",
                       "battery.whole_battery", faults)
    for fault in faults:
        print(f"{argv[1]}: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
