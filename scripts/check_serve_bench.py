#!/usr/bin/env python3
"""CI gate for the serving-tier perf baseline.

Compares a freshly generated results/BENCH_serve.json against the committed
results/BENCH_serve_baseline.json. Structural fields — shard definitions,
snapshot/universe digests, workload definition and the answers digest — must
match the baseline exactly: a digest change means the build output or the
serving path changed behaviour, which is a correctness signal and gets its
own error message. Throughput is gated per mode: the run fails when QPS
drops below baseline/<max_slowdown> (default 2.0; loopback TCP on shared CI
runners is noisy, so the perf gate is looser than the build gate's 1.25).
The per-shard single-query latency column (the in-process accelerated-path
microbenchmark) is gated with the same slowdown factor, and so is every
row of the connection sweep (conn_sweep) — including the 4096-connection
point, whose presence in the baseline makes the 10k-class concurrency
claim a hard CI requirement.

Usage: check_serve_bench.py [current.json] [baseline.json] [max_slowdown]
"""

import json
import sys

STRUCTURAL_SHARD_FIELDS = (
    "shard_id",
    "n",
    "ell",
    "epsilon",
    "node_count",
    "serialized_len",
    "universe",
    "universe_digest",
    "snapshot_digest",
)

# Added with the multi-workload shards (workload, corpus_bytes) and the
# v2 snapshot codec (serialized_len_v2, the deterministic delta-compressed
# encoding size); tolerated as absent in older baselines so the gate stays
# usable during the transition. When the baseline has them, drift
# hard-fails like any structural field.
OPTIONAL_STRUCTURAL_SHARD_FIELDS = (
    "workload",
    "corpus_bytes",
    "serialized_len_v2",
)

# Per-shard latency columns gated like qps (current may regress at most
# max_slowdown over baseline): the in-process single-query microbenchmark
# and the two cold-load decode paths of the shipped uncompressed v2
# snapshot (owned full-copy vs borrowed zero-copy).
GATED_SHARD_LATENCY_FIELDS = (
    "single_query_ns",
    "cold_load_ns",
    "cold_load_v2_ns",
)

STRUCTURAL_WORKLOAD_FIELDS = (
    "connections",
    "requests_per_conn",
    "batch",
    "burst",
    "total_queries",
    "workload_digest",
    "answers_digest",
)

# Per-row structural fields of the connection sweep (conn_sweep): the
# point definition and its digests are deterministic for the seed; qps
# and qps_per_conn are measurements and get the slowdown gate instead.
STRUCTURAL_SWEEP_FIELDS = (
    "conns",
    "requests_per_conn",
    "total_queries",
    "workload_digest",
    "answers_digest",
)


def main() -> int:
    cur_path = sys.argv[1] if len(sys.argv) > 1 else "results/BENCH_serve.json"
    base_path = sys.argv[2] if len(sys.argv) > 2 else "results/BENCH_serve_baseline.json"
    max_slowdown = float(sys.argv[3]) if len(sys.argv) > 3 else 2.0

    try:
        with open(base_path) as f:
            baseline = json.load(f)
    except FileNotFoundError:
        print(f"[serve-gate] no baseline at {base_path}; skipping (commit one to arm the gate)")
        return 0
    with open(cur_path) as f:
        current = json.load(f)

    failures = []

    base_shards = {s["name"]: s for s in baseline["shards"]}
    cur_shards = {s["name"]: s for s in current["shards"]}
    for name, b in base_shards.items():
        c = cur_shards.get(name)
        if c is None:
            failures.append(f"shard {name}: present in baseline but missing from current run")
            continue
        fields = list(STRUCTURAL_SHARD_FIELDS)
        fields += [f for f in OPTIONAL_STRUCTURAL_SHARD_FIELDS if f in b]
        for field in fields:
            if b[field] != c[field]:
                failures.append(
                    f"shard {name}: structural field {field!r} changed "
                    f"({b[field]!r} -> {c[field]!r}) — served content drifted from baseline"
                )
        # Latency columns: gate each measured path like qps.
        for field in GATED_SHARD_LATENCY_FIELDS:
            if field not in b:
                continue
            b_ns, c_ns = b[field], c.get(field, float("inf"))
            ratio = c_ns / b_ns if b_ns else float("inf")
            status = "OK" if ratio <= max_slowdown else "REGRESSION"
            print(
                f"[serve-gate] shard {name}: {field} {b_ns:.0f} -> {c_ns:.0f} ns "
                f"({ratio:.2f}x slower-factor) {status}"
            )
            if ratio > max_slowdown:
                failures.append(
                    f"shard {name}: {field} regressed {ratio:.2f}x (limit {max_slowdown:.2f}x)"
                )
        # The compressed v2 encoding (serialized_len_v2) must actually be
        # smaller than the uncompressed v2 snapshot that ships
        # (serialized_len) on every shard — a deterministic codec property,
        # not a perf gate.
        if "serialized_len_v2" in c:
            plain_len, v2_len = c.get("serialized_len"), c["serialized_len_v2"]
            if plain_len is not None and v2_len >= plain_len:
                failures.append(
                    f"shard {name}: compressed v2 snapshot ({v2_len} B) is not smaller "
                    f"than uncompressed v2 ({plain_len} B) — the compressed dialect lost "
                    f"its size advantage"
                )

    for name in cur_shards:
        if name not in base_shards:
            print(f"[serve-gate] shard {name}: new shard (no baseline), informational only")

    bw, cw = baseline["workload"], current["workload"]
    for field in STRUCTURAL_WORKLOAD_FIELDS:
        if bw[field] != cw[field]:
            failures.append(
                f"workload: structural field {field!r} changed "
                f"({bw[field]!r} -> {cw[field]!r}) — load definition drifted from baseline"
            )

    base_modes = {m["mode"]: m for m in baseline["modes"]}
    cur_modes = {m["mode"]: m for m in current["modes"]}
    for mode, b in base_modes.items():
        c = cur_modes.get(mode)
        if c is None:
            failures.append(f"mode {mode}: missing from current run")
            continue
        ratio = b["qps"] / c["qps"] if c["qps"] else float("inf")
        status = "OK" if ratio <= max_slowdown else "REGRESSION"
        print(
            f"[serve-gate] {mode}: {b['qps']:.0f} -> {c['qps']:.0f} queries/s "
            f"({ratio:.2f}x slower-factor, p99 {c['latency_p99_us']:.0f} µs) {status}"
        )
        if ratio > max_slowdown:
            failures.append(
                f"{mode}: throughput regressed {ratio:.2f}x (limit {max_slowdown:.2f}x)"
            )

    # Connection sweep: every baseline point must exist in the current run
    # with identical structure (including the 4096-connection row — the
    # 10k-class concurrency claim), and its qps is gated like a mode.
    base_sweep = {p["conns"]: p for p in baseline.get("conn_sweep", [])}
    cur_sweep = {p["conns"]: p for p in current.get("conn_sweep", [])}
    if not base_sweep and cur_sweep:
        print("[serve-gate] conn_sweep: new section (no baseline), informational only")
    for conns, b in sorted(base_sweep.items()):
        c = cur_sweep.get(conns)
        if c is None:
            failures.append(
                f"conn_sweep {conns}: point present in baseline but missing from current run"
            )
            continue
        for field in STRUCTURAL_SWEEP_FIELDS:
            if b[field] != c[field]:
                failures.append(
                    f"conn_sweep {conns}: structural field {field!r} changed "
                    f"({b[field]!r} -> {c[field]!r}) — sweep definition drifted from baseline"
                )
        ratio = b["qps"] / c["qps"] if c["qps"] else float("inf")
        status = "OK" if ratio <= max_slowdown else "REGRESSION"
        print(
            f"[serve-gate] sweep {conns} conns: {b['qps']:.0f} -> {c['qps']:.0f} queries/s "
            f"({ratio:.2f}x slower-factor, {c['qps_per_conn']:.1f} qps/conn) {status}"
        )
        if ratio > max_slowdown:
            failures.append(
                f"conn_sweep {conns}: throughput regressed {ratio:.2f}x "
                f"(limit {max_slowdown:.2f}x)"
            )

    # Metrics reconciliation is asserted inside the benchmark itself; here
    # just require the recorded counters to agree when present.
    cur_metrics = current.get("metrics")
    if cur_metrics is not None:
        if cur_metrics["patterns_total"] != cur_metrics["generator_patterns_total"]:
            failures.append(
                "metrics: daemon patterns_total "
                f"({cur_metrics['patterns_total']}) disagrees with the generator "
                f"({cur_metrics['generator_patterns_total']})"
            )
        # Observability columns (per-op histogram + event-loop split): the
        # current run must always carry them — the daemon instruments by
        # default, so their absence means the layer was silently dropped.
        for field in (
            "op_query_batch_p50_ns",
            "op_query_batch_p99_ns",
            "loop_wait_ns",
            "loop_busy_ns",
            "loop_utilization",
            "trace_events_total",
        ):
            if field not in cur_metrics:
                failures.append(
                    f"metrics: observability column {field!r} missing from current run"
                )
        if cur_metrics.get("op_query_batch_p99_ns", 0) <= 0:
            failures.append(
                "metrics: op_query_batch_p99_ns is not positive — the per-op "
                "histogram recorded nothing during the load"
            )
        if cur_metrics.get("trace_events_total", 0) <= 0:
            failures.append(
                "metrics: trace_events_total is not positive — the trace ring "
                "recorded nothing during the load"
            )
        util = cur_metrics.get("loop_utilization")
        if util is not None and not (0.0 <= util <= 1.0):
            failures.append(f"metrics: loop_utilization {util} outside [0, 1]")
        if util is not None:
            print(
                f"[serve-gate] observability: op_query_batch p50 "
                f"{cur_metrics.get('op_query_batch_p50_ns', 0):.0f} ns / p99 "
                f"{cur_metrics.get('op_query_batch_p99_ns', 0):.0f} ns, "
                f"loop utilization {util:.1%}, "
                f"{cur_metrics.get('trace_events_total', 0)} trace events"
            )

    # Instrumentation overhead: the same pipelined replay against a daemon
    # with full observability (trace ring + slow-op log, the default) and
    # one stripped to bare counters. Observability must stay effectively
    # free: the gap is gated at 5% of counters-only throughput regardless
    # of max_slowdown. Tolerated as absent only in older baselines.
    MAX_OVERHEAD_FRAC = 0.05
    cur_over = current.get("overhead")
    if cur_over is None:
        failures.append("overhead: instrumentation-overhead section missing from current run")
    else:
        frac = cur_over["overhead_frac"]
        status = "OK" if frac <= MAX_OVERHEAD_FRAC else "REGRESSION"
        print(
            f"[serve-gate] overhead: {cur_over['instrumented_qps']:.0f} qps instrumented vs "
            f"{cur_over['counters_only_qps']:.0f} qps counters-only "
            f"({frac:+.2%} cost, limit {MAX_OVERHEAD_FRAC:.0%}) {status}"
        )
        if frac > MAX_OVERHEAD_FRAC:
            failures.append(
                f"overhead: observability costs {frac:.2%} of throughput "
                f"(limit {MAX_OVERHEAD_FRAC:.0%})"
            )

    # Degradation counters (overload sheds, deadline evictions, idle
    # reaps, rollbacks): each daemon counter must equal what the
    # generator observed — an exact reconciliation, not a perf gate.
    # Tolerated as absent in older baselines/runs during the transition.
    cur_deg = current.get("degradation")
    if cur_deg is None:
        if baseline.get("degradation") is not None:
            failures.append(
                "degradation: section present in baseline but missing from current run"
            )
    else:
        for total, observed in (
            ("overloaded_total", "shed_observed"),
            ("deadline_evicted_total", "loris_observed"),
            ("idle_reaped_total", "idle_observed"),
            ("rollbacks_total", "rollback_observed"),
        ):
            if cur_deg[total] != cur_deg[observed]:
                failures.append(
                    f"degradation: daemon {total} ({cur_deg[total]}) disagrees with "
                    f"the generator's {observed} ({cur_deg[observed]})"
                )
            elif cur_deg[total] == 0:
                failures.append(
                    f"degradation: {total} is 0 — the robustness scenario did not "
                    "exercise this path"
                )
        print(
            "[serve-gate] degradation: "
            + ", ".join(
                f"{k}={cur_deg[k]}"
                for k in (
                    "overloaded_total",
                    "deadline_evicted_total",
                    "idle_reaped_total",
                    "rollbacks_total",
                )
            )
            + " (all reconciled)"
        )

    # Crash-restart recovery: persist → kill → torn manifest tail →
    # recover → first bit-identical answer. Gated like a latency column
    # against the baseline when present; the recovery count itself is a
    # structural fact.
    cur_dur = current.get("durability")
    base_dur = baseline.get("durability")
    if cur_dur is None:
        if base_dur is not None:
            failures.append(
                "durability: section present in baseline but missing from current run"
            )
    else:
        if cur_dur["recoveries_total"] < 1:
            failures.append("durability: restart recovered no corpora")
        if base_dur is not None:
            b_ns, c_ns = base_dur["restart_recovery_ns"], cur_dur["restart_recovery_ns"]
            ratio = c_ns / b_ns if b_ns else float("inf")
            status = "OK" if ratio <= max_slowdown else "REGRESSION"
            print(
                f"[serve-gate] restart_recovery_ns {b_ns:.0f} -> {c_ns:.0f} ns "
                f"({ratio:.2f}x slower-factor) {status}"
            )
            if ratio > max_slowdown:
                failures.append(
                    f"durability: restart_recovery_ns regressed {ratio:.2f}x "
                    f"(limit {max_slowdown:.2f}x)"
                )
        else:
            print(
                f"[serve-gate] restart_recovery_ns {cur_dur['restart_recovery_ns']:.0f} ns "
                "(no baseline, informational only)"
            )

    if failures:
        print("[serve-gate] FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("[serve-gate] all modes within budget, structure matches baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
