#!/usr/bin/env python3
"""Smoke test of the tenant benchmark.

Runs every workload at --seconds 1 in both modes (from the
repository root):

    python3 tenantbench/smoke_test.py

and checks that each run exits 0, prints the result object last,
names every metric BENCHMARK.json lists for that mode with the
listed unit, reports no failed request, and is correct: the reply
digests of the first rounds match the in-process reference replay
and the expected values checked in for seed 1 (golden.json), the
genesis snapshot golden holds, and the traced replay's modeled
counts and observed values equal its untraced twin's and the
expected ones.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=600)
            tag = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{tag}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed",
                               "metrics"}:
                errors.append(f"{tag}: wrong result keys {sorted(result)}")
                continue
            if "# expected values for this seed: checked" not in lines:
                errors.append(f"{tag}: no expected values checked")
            if not result["correct"] or result["failed"]:
                errors.append(f"{tag}: incorrect or failed requests")
                errors.extend(f"  {l}" for l in lines if "problem" in l)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                errors.append(f"{tag}: metric names/units differ from "
                              f"BENCHMARK.json: {sorted(printed.items())}")
            print(f"{tag}: ok={not errors} attempted={result['attempted']}")
    for e in errors:
        print(f"FAIL {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
