#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, must print every
   metric BENCHMARK.json names, with its unit and a finite value, report no
   failures, and (release workloads) print the same release digests in both
   modes.
2. Runs with a deliberately corrupted expected answer, release digest,
   traced digest, install-target answer or pattern count must report
   `correct: false`, which proves each check can fail.
"""

import json
import math
import re
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))
SEED = "2"


def run(workload, trace, *extra):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", SEED, "--seconds", "4",
                             "--trace", str(trace), "--short", *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace}: exit {p.returncode}\n{p.stderr[-3000:]}")
    return json.loads(lines[-1]), p.stderr


def digests(stderr):
    return sorted(re.findall(r"digests? ([0-9a-f]{16}(?: [0-9a-f]{16})?)", stderr))


def main():
    problems = []
    for w in SPEC["workloads"]:
        name = w["name"]
        seen = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, stderr = run(name, trace)
            seen[trace] = digests(stderr)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = result["metrics"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}/{trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{name}/{trace}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            if set(got) != set(want):
                problems.append(f"{name}/{trace}: metrics differ: missing "
                                f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            for metric, unit in want.items():
                v = got.get(metric)
                if v is None:
                    continue
                if v["unit"] != unit:
                    problems.append(f"{name}/{trace}: {metric} unit {v['unit']}, want {unit}")
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{name}/{trace}: {metric} value {v['value']}")
        if not seen[0] or seen[0] != seen[1]:
            problems.append(f"{name}: release digests differ between modes: {seen[0]} vs {seen[1]}")
        print(f"{name}: metrics, units and digests checked", flush=True)

    # Each fault must fail the check named beside it.
    for workload, trace, fault in (
            ("release-dna", 0, "digest"),          # release digest fixed per seed
            ("release-dna", 1, "traced-digest"),   # traced release = build_pure's digest
            ("serve-read", 0, "answer"),           # answers = query_naive
            ("serve-install", 0, "answer"),
            ("serve-install", 0, "target-a"),      # a target batch equals A's or B's answers
            ("serve-install", 0, "target-b"),
            ("serve-read", 0, "pattern-count")):   # daemon patterns_total = generator count
        result, _ = run(workload, trace, "--corrupt", fault)
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{workload}: corrupted {fault} went unnoticed: {result}")
        else:
            print(f"{workload}: corrupted {fault} caught ({result['failed']} failures)", flush=True)

    for p in problems:
        print("FAIL:", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
