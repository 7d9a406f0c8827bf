#!/usr/bin/env python3
"""CI gate for the build-path perf baseline.

Compares the single-thread end-to-end build times in a freshly generated
results/BENCH_build.json against the committed results/BENCH_build_baseline.json
and fails when any scenario regressed by more than the allowed factor
(default 1.25, i.e. >25% slower). Structural fields (digests, node counts)
must match the baseline exactly — a digest change means the build's output
changed, which is a correctness signal, not a perf one, and gets its own
error message. `index_heap_bytes` (the corpus index's heap footprint) is a
ceiling: the current run fails when it exceeds the baseline's value.

Usage: check_build_bench.py [current.json] [baseline.json] [max_ratio]
"""

import json
import sys

ALLOWED_NEW_SCENARIOS = True  # scenarios absent from the baseline are informational


def scenario_map(report):
    return {s["name"]: s for s in report["scenarios"]}


def single_thread_ns(scenario):
    for t in scenario["timings"]:
        if t["threads"] == 1:
            return t["end_to_end_ns"]
    raise KeyError(f"no threads=1 row in scenario {scenario['name']!r}")


def main() -> int:
    cur_path = sys.argv[1] if len(sys.argv) > 1 else "results/BENCH_build.json"
    base_path = sys.argv[2] if len(sys.argv) > 2 else "results/BENCH_build_baseline.json"
    max_ratio = float(sys.argv[3]) if len(sys.argv) > 3 else 1.25

    try:
        with open(base_path) as f:
            baseline = json.load(f)
    except FileNotFoundError:
        print(f"[build-gate] no baseline at {base_path}; skipping (commit one to arm the gate)")
        return 0
    with open(cur_path) as f:
        current = json.load(f)

    base, cur = scenario_map(baseline), scenario_map(current)
    failures = []
    for name, b in base.items():
        if name not in cur:
            failures.append(f"{name}: present in baseline but missing from current run")
            continue
        c = cur[name]
        structural = ["n", "ell", "epsilon", "tau", "candidates", "peak_trie_nodes", "digest"]
        # Added with the multi-workload scenarios; tolerate their absence in
        # older baselines so the gate stays usable during the transition.
        for opt in ("workload", "corpus_bytes"):
            if opt in b:
                structural.append(opt)
        for field in structural:
            if b[field] != c[field]:
                failures.append(
                    f"{name}: structural field {field!r} changed "
                    f"({b[field]!r} -> {c[field]!r}) — build output drifted from baseline"
                )
        # The index footprint is a ceiling; tolerated when absent from an
        # older baseline, like `workload`.
        if "index_heap_bytes" in b:
            b_heap, c_heap = b["index_heap_bytes"], c.get("index_heap_bytes")
            if c_heap is None:
                failures.append(f"{name}: index_heap_bytes missing from current run")
            elif c_heap > b_heap:
                failures.append(
                    f"{name}: index_heap_bytes {c_heap} exceeds the baseline's {b_heap}"
                )
        b_ns, c_ns = single_thread_ns(b), single_thread_ns(c)
        ratio = c_ns / b_ns if b_ns else float("inf")
        status = "OK" if ratio <= max_ratio else "REGRESSION"
        print(
            f"[build-gate] {name}: single-thread end-to-end "
            f"{b_ns / 1e6:.2f} ms -> {c_ns / 1e6:.2f} ms ({ratio:.2f}x) {status}"
        )
        if ratio > max_ratio:
            failures.append(
                f"{name}: single-thread build time regressed {ratio:.2f}x "
                f"(limit {max_ratio:.2f}x)"
            )
    for name in cur:
        if name not in base and ALLOWED_NEW_SCENARIOS:
            print(f"[build-gate] {name}: new scenario (no baseline), informational only")

    if failures:
        print("[build-gate] FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("[build-gate] all scenarios within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
