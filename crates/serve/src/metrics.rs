//! Operator-visible serving metrics: lock-free counters the request
//! paths bump on every answered frame, snapshotted on demand by the
//! `Metrics` wire op and rendered scrapeable by `MetricsText`.
//!
//! Everything is a relaxed atomic — the hot path pays a handful of
//! uncontended `fetch_add`s per request and the two `Instant::now`
//! calls bracketing the answer computation. Latency lands in
//! fixed-bucket power-of-two histograms ([`LatencyHistogram`]): 64
//! buckets cover the full `u64` nanosecond range, so recording is one
//! `leading_zeros` plus one `fetch_add` and quantiles are a 64-entry
//! scan of a stack-resident snapshot — no allocation, no locks, no
//! sampling. The reported p50/p99 are therefore bucket-resolution
//! estimates (≤ 2× truncation error), which is the right trade for a
//! counter that every request touches. v2 keeps one histogram per op
//! kind and per shard (fixed slot table) next to the global one, so a
//! slow `LoadSnapshot` no longer hides inside the `Query` p99.
//!
//! The registry counts *served work*, not wire bytes: `patterns_total`
//! is the number of individual pattern lookups answered (a `QueryBatch`
//! of 16 counts as 16), which is what the benchmark's closed-loop
//! generator reconciles its own counts against.
//!
//! The registry also owns the optional [`TraceRing`]: rich per-request
//! observations ([`MetricsRegistry::observe`]) append `frame_answered` /
//! `frame_error` events and the slow-op log entries. Every event carries
//! pattern *fingerprints* and lengths only — never pattern bytes
//! (DESIGN.md §16).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::trace::{TraceEvent, TraceKind, TraceRing, NO_SHARD};
use crate::wire::{CacheStats, MetricsReport, MetricsShard, OpCounts, OpLatencies, OpLatency};

/// Request kinds the registry tracks, one counter and one latency
/// histogram each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// [`crate::wire::Request::Query`]
    Query,
    /// [`crate::wire::Request::QueryBatch`]
    QueryBatch,
    /// [`crate::wire::Request::Contains`]
    Contains,
    /// [`crate::wire::Request::Stats`]
    Stats,
    /// [`crate::wire::Request::LoadSnapshot`]
    LoadSnapshot,
    /// [`crate::wire::Request::Metrics`]
    Metrics,
    /// [`crate::wire::Request::Shutdown`]
    Shutdown,
    /// [`crate::wire::Request::Rollback`]
    Rollback,
    /// [`crate::wire::Request::Trace`]
    Trace,
    /// [`crate::wire::Request::MetricsText`]
    MetricsText,
}

const OP_KINDS: usize = 10;

impl OpKind {
    /// Every kind, indexable by `kind as usize`.
    pub const ALL: [OpKind; OP_KINDS] = [
        OpKind::Query,
        OpKind::QueryBatch,
        OpKind::Contains,
        OpKind::Stats,
        OpKind::LoadSnapshot,
        OpKind::Metrics,
        OpKind::Shutdown,
        OpKind::Rollback,
        OpKind::Trace,
        OpKind::MetricsText,
    ];

    /// Stable snake_case label (exposition `op` label values).
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Query => "query",
            OpKind::QueryBatch => "query_batch",
            OpKind::Contains => "contains",
            OpKind::Stats => "stats",
            OpKind::LoadSnapshot => "load_snapshot",
            OpKind::Metrics => "metrics",
            OpKind::Shutdown => "shutdown",
            OpKind::Rollback => "rollback",
            OpKind::Trace => "trace",
            OpKind::MetricsText => "metrics_text",
        }
    }

    /// The wire opcode of this request kind (trace events carry it in
    /// `detail`).
    pub fn wire_code(self) -> u8 {
        match self {
            OpKind::Query => 0,
            OpKind::QueryBatch => 1,
            OpKind::Contains => 2,
            OpKind::Stats => 3,
            OpKind::LoadSnapshot => 4,
            OpKind::Shutdown => 5,
            OpKind::Metrics => 6,
            OpKind::Rollback => 7,
            OpKind::Trace => 8,
            OpKind::MetricsText => 9,
        }
    }
}

/// 64 power-of-two buckets over nanoseconds: bucket `b` holds samples
/// with `floor(log2(max(v, 1))) == b`, i.e. `[2^b, 2^(b+1))` (bucket 0
/// also absorbs 0 ns).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; 64],
}

/// A consistent point-in-time copy of a [`LatencyHistogram`], loaded in
/// one pass so several quantiles (p50 *and* p99 of the same report) are
/// computed from identical counts. Lives on the stack — no allocation.
#[derive(Debug, Clone, Copy)]
pub struct HistogramSnapshot {
    counts: [u64; 64],
    total: u64,
}

impl HistogramSnapshot {
    /// Total samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 < q ≤ 1) as the midpoint of the bucket the
    /// quantile sample fell into; 0.0 when empty. Accurate to bucket
    /// resolution (a factor of 2 in the worst case).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Midpoint of [2^b, 2^(b+1)); bucket 0 represents ~1 ns.
                return 1.5 * (1u64 << b) as f64;
            }
        }
        unreachable!("quantile target exceeds total");
    }

    /// `(p50, p99)` from this one snapshot.
    pub fn p50_p99(&self) -> (f64, f64) {
        (self.quantile(0.50), self.quantile(0.99))
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    fn bucket(ns: u64) -> usize {
        63 - (ns | 1).leading_zeros() as usize
    }

    /// Records one sample.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// One consistent copy of the bucket counts (single relaxed pass,
    /// stack-allocated).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: [u64; 64] = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot { counts, total: counts.iter().sum() }
    }

    /// The `q`-quantile of a fresh snapshot. Callers needing several
    /// quantiles from *the same* counts should take one
    /// [`snapshot`](LatencyHistogram::snapshot) and query it.
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }
}

/// Fixed per-shard histogram slots: the first [`SHARD_SLOTS`] distinct
/// shard ids each claim a dedicated histogram via CAS; later ids fall
/// into a shared overflow histogram (reported against no shard).
const SHARD_SLOTS: usize = 16;
const SLOT_EMPTY: u64 = u64::MAX;

#[derive(Debug)]
struct ShardSlot {
    id: AtomicU64,
    latency: LatencyHistogram,
}

/// A rich per-request observation — everything
/// [`MetricsRegistry::observe`] needs to update counters, histograms,
/// and the trace ring in one call. Pattern content appears only as an
/// FNV-1a `fingerprint` plus `len`.
#[derive(Debug, Clone, Copy)]
pub struct OpObservation {
    /// Which request kind was answered.
    pub op: OpKind,
    /// Individual pattern lookups this frame answered.
    pub patterns: u64,
    /// Service latency in nanoseconds (answer computation only).
    pub latency_ns: u64,
    /// Connection id (the accept counter value; 0 = unknown).
    pub conn: u64,
    /// Shard the request routed to, if any.
    pub shard: Option<u32>,
    /// FNV-1a fingerprint of the pattern bytes (first pattern for a
    /// batch), 0 when not applicable.
    pub fingerprint: u64,
    /// Pattern length (or batch size for `QueryBatch`).
    pub len: u32,
    /// Whether the response was an `Error` frame.
    pub error: bool,
}

impl OpObservation {
    /// A minimal observation: op + work + latency, nothing else known.
    pub fn basic(op: OpKind, patterns: u64, latency_ns: u64) -> Self {
        Self {
            op,
            patterns,
            latency_ns,
            conn: 0,
            shard: None,
            fingerprint: 0,
            len: 0,
            error: false,
        }
    }
}

/// The daemon-wide metrics state. One instance per [`crate::Server`],
/// shared by the event loop and the installer thread.
#[derive(Debug)]
pub struct MetricsRegistry {
    start: Instant,
    conns_accepted: AtomicU64,
    conns_open: AtomicU64,
    ops: [AtomicU64; OP_KINDS],
    errors: AtomicU64,
    patterns: AtomicU64,
    overloaded: AtomicU64,
    idle_reaped: AtomicU64,
    deadline_evicted: AtomicU64,
    recoveries: AtomicU64,
    rollbacks: AtomicU64,
    latency: LatencyHistogram,
    op_latency: [LatencyHistogram; OP_KINDS],
    shard_slots: [ShardSlot; SHARD_SLOTS],
    shard_overflow: LatencyHistogram,
    loop_wait: AtomicU64,
    loop_busy: AtomicU64,
    accept_first: LatencyHistogram,
    parks: AtomicU64,
    unparks: AtomicU64,
    slow_ops: AtomicU64,
    slow_ns: u64,
    trace: Option<Arc<TraceRing>>,
    /// `(uptime_ns, patterns_total)` at the previous `report()` — the
    /// anchor of the windowed-qps delta.
    window: Mutex<(u64, u64)>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A fresh registry with tracing and the slow-op log disabled;
    /// uptime starts now.
    pub fn new() -> Self {
        Self::with_observability(0, 0)
    }

    /// A registry owning a [`TraceRing`] of `trace_capacity` events
    /// (0 disables tracing — counters only) and a slow-op threshold in
    /// nanoseconds (0 disables the slow-op log).
    pub fn with_observability(trace_capacity: usize, slow_op_threshold_ns: u64) -> Self {
        Self {
            start: Instant::now(),
            conns_accepted: AtomicU64::new(0),
            conns_open: AtomicU64::new(0),
            ops: std::array::from_fn(|_| AtomicU64::new(0)),
            errors: AtomicU64::new(0),
            patterns: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            idle_reaped: AtomicU64::new(0),
            deadline_evicted: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            op_latency: std::array::from_fn(|_| LatencyHistogram::new()),
            shard_slots: std::array::from_fn(|_| ShardSlot {
                id: AtomicU64::new(SLOT_EMPTY),
                latency: LatencyHistogram::new(),
            }),
            shard_overflow: LatencyHistogram::new(),
            loop_wait: AtomicU64::new(0),
            loop_busy: AtomicU64::new(0),
            accept_first: LatencyHistogram::new(),
            parks: AtomicU64::new(0),
            unparks: AtomicU64::new(0),
            slow_ops: AtomicU64::new(0),
            slow_ns: slow_op_threshold_ns,
            trace: (trace_capacity > 0).then(|| Arc::new(TraceRing::new(trace_capacity))),
            window: Mutex::new((0, 0)),
        }
    }

    /// The trace ring, when tracing is enabled. The server and the
    /// snapshot store emit their lifecycle events through this.
    pub fn tracer(&self) -> Option<&Arc<TraceRing>> {
        self.trace.as_ref()
    }

    /// Configured slow-op threshold in nanoseconds (0 = disabled).
    pub fn slow_op_threshold_ns(&self) -> u64 {
        self.slow_ns
    }

    /// A connection was accepted. Returns its connection id (dense,
    /// starting at 1) — trace events reference it.
    pub fn conn_opened(&self) -> u64 {
        let id = self.conns_accepted.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_open.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// A connection ended (any reason).
    pub fn conn_closed(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// One request answered: bumps the op counter, adds `patterns`
    /// individual lookups, and records the service latency (time spent
    /// computing the answer, network excluded) into the global and
    /// per-op histograms. Prefer [`observe`](MetricsRegistry::observe)
    /// on the serving path — it additionally feeds the per-shard
    /// histogram, the trace ring, and the slow-op log.
    pub fn record(&self, op: OpKind, patterns: u64, latency_ns: u64) {
        self.observe(&OpObservation::basic(op, patterns, latency_ns));
    }

    /// The full-fidelity recording path: counters + global/per-op/
    /// per-shard histograms + `frame_answered`/`frame_error` trace
    /// events + the slow-op log.
    pub fn observe(&self, o: &OpObservation) {
        self.ops[o.op as usize].fetch_add(1, Ordering::Relaxed);
        if o.patterns > 0 {
            self.patterns.fetch_add(o.patterns, Ordering::Relaxed);
        }
        self.latency.record(o.latency_ns);
        self.op_latency[o.op as usize].record(o.latency_ns);
        if let Some(shard) = o.shard {
            self.shard_histogram(shard).record(o.latency_ns);
        }
        if o.error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let slow = !o.error && self.slow_ns > 0 && o.latency_ns >= self.slow_ns;
        if slow {
            self.slow_ops.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(ring) = &self.trace {
            let base = TraceEvent {
                conn: o.conn,
                shard: o.shard.unwrap_or(NO_SHARD),
                fingerprint: o.fingerprint,
                len: o.len,
                dur_ns: o.latency_ns,
                detail: o.op.wire_code() as u64,
                ..TraceEvent::new(if o.error {
                    TraceKind::FrameError
                } else {
                    TraceKind::FrameAnswered
                })
            };
            ring.emit(base);
            if slow {
                ring.emit(TraceEvent {
                    detail: self.slow_ns,
                    ..TraceEvent { kind: TraceKind::SlowOp, ..base }
                });
            }
        }
    }

    /// The histogram a shard's requests land in: its claimed slot, or
    /// the shared overflow histogram once all slots are taken.
    fn shard_histogram(&self, shard: u32) -> &LatencyHistogram {
        let want = shard as u64;
        for slot in &self.shard_slots {
            let id = slot.id.load(Ordering::Relaxed);
            if id == want {
                return &slot.latency;
            }
            if id == SLOT_EMPTY
                && slot
                    .id
                    .compare_exchange(SLOT_EMPTY, want, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                return &slot.latency;
            }
            // CAS lost to a racer: re-check — the racer may have claimed
            // this very slot for the same shard.
            if slot.id.load(Ordering::Relaxed) == want {
                return &slot.latency;
            }
        }
        &self.shard_overflow
    }

    /// One error response sent (malformed frame, unknown shard, rejected
    /// snapshot, refused shutdown, …). For frames that never decoded to
    /// an op; decoded requests report errors through
    /// [`observe`](MetricsRegistry::observe).
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Individual pattern lookups answered so far.
    pub fn patterns_total(&self) -> u64 {
        self.patterns.load(Ordering::Relaxed)
    }

    /// Connections currently admitted (opened minus closed). The
    /// admission bound compares against this before accepting more.
    pub fn conns_open_now(&self) -> u64 {
        self.conns_open.load(Ordering::Relaxed)
    }

    /// A connection was shed with an `Overloaded` frame at the admission
    /// bound (it was never admitted; `conn_opened` was not called).
    pub fn record_overloaded(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// An idle connection was reaped by the idle timeout.
    pub fn record_idle_reaped(&self) {
        self.idle_reaped.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection stalled mid-frame past the read deadline and was
    /// evicted (slow-loris defense).
    pub fn record_deadline_evicted(&self) {
        self.deadline_evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` shards were re-installed from the snapshot store's manifest
    /// at startup.
    pub fn record_recoveries(&self, n: u64) {
        self.recoveries.fetch_add(n, Ordering::Relaxed);
    }

    /// A retained epoch was successfully rolled back in.
    pub fn record_rollback(&self) {
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// One readiness event-loop iteration: `wait_ns` blocked in
    /// `epoll_wait`, `busy_ns` servicing readiness events.
    pub fn record_loop(&self, wait_ns: u64, busy_ns: u64) {
        if wait_ns > 0 {
            self.loop_wait.fetch_add(wait_ns, Ordering::Relaxed);
        }
        if busy_ns > 0 {
            self.loop_busy.fetch_add(busy_ns, Ordering::Relaxed);
        }
    }

    /// Accept-to-first-response latency of one connection: admission to
    /// the first response byte handed to the socket layer.
    pub fn record_accept_to_first(&self, ns: u64) {
        self.accept_first.record(ns);
    }

    /// Write backpressure parked a connection's reads.
    pub fn record_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    /// A parked connection resumed reading.
    pub fn record_unpark(&self) {
        self.unparks.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots everything into a wire-ready report. `cache` and
    /// `shards` come from the server (the registry does not own them);
    /// the per-shard latency columns are filled in here from the slot
    /// histograms. Each call advances the windowed-qps anchor — the
    /// reported `qps_window` covers the interval since the previous
    /// `report()` (the full uptime for the first one).
    pub fn report(&self, cache: CacheStats, mut shards: Vec<MetricsShard>) -> MetricsReport {
        let uptime_ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let patterns_total = load(&self.patterns);
        let qps =
            if uptime_ns == 0 { 0.0 } else { patterns_total as f64 / (uptime_ns as f64 / 1e9) };
        let qps_window = {
            let mut anchor = self.window.lock().expect("window mutex not poisoned");
            let (last_ns, last_patterns) = *anchor;
            let dt_ns = uptime_ns.saturating_sub(last_ns);
            let dp = patterns_total.saturating_sub(last_patterns);
            *anchor = (uptime_ns, patterns_total);
            if dt_ns == 0 {
                qps
            } else {
                dp as f64 / (dt_ns as f64 / 1e9)
            }
        };
        for s in shards.iter_mut() {
            let snap = self.shard_histogram(s.shard_id).snapshot();
            s.ops = snap.count();
            (s.latency_p50_ns, s.latency_p99_ns) = snap.p50_p99();
        }
        let (latency_p50_ns, latency_p99_ns) = self.latency.snapshot().p50_p99();
        let op_q = |op: OpKind| -> OpLatency {
            let (p50_ns, p99_ns) = self.op_latency[op as usize].snapshot().p50_p99();
            OpLatency { p50_ns, p99_ns }
        };
        let loop_wait_ns = load(&self.loop_wait);
        let loop_busy_ns = load(&self.loop_busy);
        let loop_total = loop_wait_ns + loop_busy_ns;
        let (accept_to_first_p50_ns, accept_to_first_p99_ns) =
            self.accept_first.snapshot().p50_p99();
        let lookups = cache.hits + cache.misses;
        MetricsReport {
            uptime_ns,
            conns_accepted: load(&self.conns_accepted),
            conns_open: load(&self.conns_open),
            ops: OpCounts {
                query: load(&self.ops[OpKind::Query as usize]),
                query_batch: load(&self.ops[OpKind::QueryBatch as usize]),
                contains: load(&self.ops[OpKind::Contains as usize]),
                stats: load(&self.ops[OpKind::Stats as usize]),
                load_snapshot: load(&self.ops[OpKind::LoadSnapshot as usize]),
                rollback: load(&self.ops[OpKind::Rollback as usize]),
                metrics: load(&self.ops[OpKind::Metrics as usize]),
                shutdown: load(&self.ops[OpKind::Shutdown as usize]),
                trace: load(&self.ops[OpKind::Trace as usize]),
                metrics_text: load(&self.ops[OpKind::MetricsText as usize]),
                errors: load(&self.errors),
            },
            patterns_total,
            overloaded_total: load(&self.overloaded),
            idle_reaped_total: load(&self.idle_reaped),
            deadline_evicted_total: load(&self.deadline_evicted),
            recoveries_total: load(&self.recoveries),
            rollbacks_total: load(&self.rollbacks),
            qps,
            qps_window,
            latency_p50_ns,
            latency_p99_ns,
            op_latency: OpLatencies {
                query: op_q(OpKind::Query),
                query_batch: op_q(OpKind::QueryBatch),
                contains: op_q(OpKind::Contains),
                stats: op_q(OpKind::Stats),
                load_snapshot: op_q(OpKind::LoadSnapshot),
                rollback: op_q(OpKind::Rollback),
                metrics: op_q(OpKind::Metrics),
                shutdown: op_q(OpKind::Shutdown),
                trace: op_q(OpKind::Trace),
                metrics_text: op_q(OpKind::MetricsText),
            },
            loop_wait_ns,
            loop_busy_ns,
            loop_utilization: if loop_total == 0 {
                0.0
            } else {
                loop_busy_ns as f64 / loop_total as f64
            },
            accept_to_first_p50_ns,
            accept_to_first_p99_ns,
            parks_total: load(&self.parks),
            unparks_total: load(&self.unparks),
            slow_ops_total: load(&self.slow_ops),
            slow_op_threshold_ns: self.slow_ns,
            trace_events_total: self.trace.as_ref().map_or(0, |t| t.recorded()),
            trace_overwritten_total: self.trace.as_ref().map_or(0, |t| t.overwritten()),
            cache,
            cache_hit_rate: if lookups == 0 { 0.0 } else { cache.hits as f64 / lookups as f64 },
            shards,
        }
    }
}

/// Renders a [`MetricsReport`] as a Prometheus-style text exposition
/// (`# TYPE` + `dpsc_*` samples), the `MetricsText` op's payload. Pure
/// post-processing of the report — no pattern content can appear here
/// because none exists in the report.
pub fn render_prometheus(m: &MetricsReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    let counter = |out: &mut String, name: &str, v: u64| {
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
    };
    let gauge = |out: &mut String, name: &str, v: f64| {
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
    };
    gauge(&mut out, "dpsc_uptime_seconds", m.uptime_ns as f64 / 1e9);
    counter(&mut out, "dpsc_conns_accepted_total", m.conns_accepted);
    gauge(&mut out, "dpsc_conns_open", m.conns_open as f64);
    out.push_str("# TYPE dpsc_ops_total counter\n");
    for (label, v) in [
        ("query", m.ops.query),
        ("query_batch", m.ops.query_batch),
        ("contains", m.ops.contains),
        ("stats", m.ops.stats),
        ("load_snapshot", m.ops.load_snapshot),
        ("rollback", m.ops.rollback),
        ("metrics", m.ops.metrics),
        ("shutdown", m.ops.shutdown),
        ("trace", m.ops.trace),
        ("metrics_text", m.ops.metrics_text),
    ] {
        let _ = writeln!(out, "dpsc_ops_total{{op=\"{label}\"}} {v}");
    }
    counter(&mut out, "dpsc_errors_total", m.ops.errors);
    counter(&mut out, "dpsc_patterns_total", m.patterns_total);
    counter(&mut out, "dpsc_overloaded_total", m.overloaded_total);
    counter(&mut out, "dpsc_idle_reaped_total", m.idle_reaped_total);
    counter(&mut out, "dpsc_deadline_evicted_total", m.deadline_evicted_total);
    counter(&mut out, "dpsc_recoveries_total", m.recoveries_total);
    counter(&mut out, "dpsc_rollbacks_total", m.rollbacks_total);
    gauge(&mut out, "dpsc_qps_lifetime", m.qps);
    gauge(&mut out, "dpsc_qps_window", m.qps_window);
    out.push_str("# TYPE dpsc_latency_ns summary\n");
    let _ = writeln!(out, "dpsc_latency_ns{{quantile=\"0.5\"}} {}", m.latency_p50_ns);
    let _ = writeln!(out, "dpsc_latency_ns{{quantile=\"0.99\"}} {}", m.latency_p99_ns);
    out.push_str("# TYPE dpsc_op_latency_ns summary\n");
    for (label, ol) in [
        ("query", m.op_latency.query),
        ("query_batch", m.op_latency.query_batch),
        ("contains", m.op_latency.contains),
        ("stats", m.op_latency.stats),
        ("load_snapshot", m.op_latency.load_snapshot),
        ("rollback", m.op_latency.rollback),
        ("metrics", m.op_latency.metrics),
        ("shutdown", m.op_latency.shutdown),
        ("trace", m.op_latency.trace),
        ("metrics_text", m.op_latency.metrics_text),
    ] {
        let _ =
            writeln!(out, "dpsc_op_latency_ns{{op=\"{label}\",quantile=\"0.5\"}} {}", ol.p50_ns);
        let _ =
            writeln!(out, "dpsc_op_latency_ns{{op=\"{label}\",quantile=\"0.99\"}} {}", ol.p99_ns);
    }
    counter(&mut out, "dpsc_loop_wait_ns_total", m.loop_wait_ns);
    counter(&mut out, "dpsc_loop_busy_ns_total", m.loop_busy_ns);
    gauge(&mut out, "dpsc_loop_utilization", m.loop_utilization);
    out.push_str("# TYPE dpsc_accept_to_first_ns summary\n");
    let _ =
        writeln!(out, "dpsc_accept_to_first_ns{{quantile=\"0.5\"}} {}", m.accept_to_first_p50_ns);
    let _ =
        writeln!(out, "dpsc_accept_to_first_ns{{quantile=\"0.99\"}} {}", m.accept_to_first_p99_ns);
    counter(&mut out, "dpsc_parks_total", m.parks_total);
    counter(&mut out, "dpsc_unparks_total", m.unparks_total);
    counter(&mut out, "dpsc_slow_ops_total", m.slow_ops_total);
    gauge(&mut out, "dpsc_slow_op_threshold_ns", m.slow_op_threshold_ns as f64);
    counter(&mut out, "dpsc_trace_events_total", m.trace_events_total);
    counter(&mut out, "dpsc_trace_overwritten_total", m.trace_overwritten_total);
    counter(&mut out, "dpsc_cache_hits_total", m.cache.hits);
    counter(&mut out, "dpsc_cache_misses_total", m.cache.misses);
    gauge(&mut out, "dpsc_cache_entries", m.cache.entries as f64);
    gauge(&mut out, "dpsc_cache_capacity", m.cache.capacity as f64);
    gauge(&mut out, "dpsc_cache_hit_rate", m.cache_hit_rate);
    if !m.shards.is_empty() {
        out.push_str("# TYPE dpsc_shard_epoch gauge\n");
        for s in &m.shards {
            let _ = writeln!(out, "dpsc_shard_epoch{{shard=\"{}\"}} {}", s.shard_id, s.epoch);
        }
        out.push_str("# TYPE dpsc_shard_serialized_bytes gauge\n");
        for s in &m.shards {
            let _ = writeln!(
                out,
                "dpsc_shard_serialized_bytes{{shard=\"{}\"}} {}",
                s.shard_id, s.serialized_len
            );
        }
        out.push_str("# TYPE dpsc_shard_ops_total counter\n");
        for s in &m.shards {
            let _ = writeln!(out, "dpsc_shard_ops_total{{shard=\"{}\"}} {}", s.shard_id, s.ops);
        }
        out.push_str("# TYPE dpsc_shard_latency_ns summary\n");
        for s in &m.shards {
            let _ = writeln!(
                out,
                "dpsc_shard_latency_ns{{shard=\"{}\",quantile=\"0.5\"}} {}",
                s.shard_id, s.latency_p50_ns
            );
            let _ = writeln!(
                out,
                "dpsc_shard_latency_ns{{shard=\"{}\",quantile=\"0.99\"}} {}",
                s.shard_id, s.latency_p99_ns
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(1), 0);
        assert_eq!(LatencyHistogram::bucket(2), 1);
        assert_eq!(LatencyHistogram::bucket(3), 1);
        assert_eq!(LatencyHistogram::bucket(4), 2);
        assert_eq!(LatencyHistogram::bucket(1023), 9);
        assert_eq!(LatencyHistogram::bucket(1024), 10);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), 63);
    }

    #[test]
    fn quantiles_track_the_mass() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram reports 0");
        // 99 samples near 1 µs, 1 sample near 1 ms: p50 sits in the µs
        // bucket, p995+ in the ms bucket.
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000);
        assert_eq!(h.count(), 100);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        let (p50, p99) = snap.p50_p99();
        assert!((512.0..2048.0).contains(&p50), "p50 = {p50}");
        assert!((512.0..2048.0).contains(&p99), "p99 = {p99} (99/100 samples are ~1 µs)");
        let p995 = snap.quantile(0.995);
        assert!(p995 >= 524_288.0, "p995 = {p995} must reach the ms bucket");
        // Direct quantile calls agree with the snapshot on a quiet
        // histogram.
        assert_eq!(h.quantile(0.5), p50);
    }

    #[test]
    fn registry_counts_ops_patterns_and_conns() {
        let m = MetricsRegistry::new();
        assert_eq!(m.conn_opened(), 1);
        assert_eq!(m.conn_opened(), 2);
        m.conn_closed();
        m.record(OpKind::Query, 1, 800);
        m.record(OpKind::QueryBatch, 16, 5_000);
        m.record(OpKind::Stats, 0, 300);
        m.record(OpKind::Rollback, 0, 100);
        m.record(OpKind::Trace, 0, 200);
        m.record(OpKind::MetricsText, 0, 250);
        m.record_error();
        m.record_overloaded();
        m.record_overloaded();
        m.record_idle_reaped();
        m.record_deadline_evicted();
        m.record_recoveries(4);
        m.record_rollback();
        let report = m.report(
            CacheStats { hits: 3, misses: 1, entries: 4, capacity: 64 },
            vec![MetricsShard {
                shard_id: 2,
                epoch: 9,
                serialized_len: 1234,
                ops: 0,
                latency_p50_ns: 0.0,
                latency_p99_ns: 0.0,
            }],
        );
        assert_eq!(report.conns_accepted, 2);
        assert_eq!(report.conns_open, 1);
        assert_eq!(report.ops.query, 1);
        assert_eq!(report.ops.query_batch, 1);
        assert_eq!(report.ops.stats, 1);
        assert_eq!(report.ops.errors, 1);
        assert_eq!(report.ops.rollback, 1);
        assert_eq!(report.ops.trace, 1);
        assert_eq!(report.ops.metrics_text, 1);
        assert_eq!(report.patterns_total, 17);
        assert_eq!(report.overloaded_total, 2);
        assert_eq!(report.idle_reaped_total, 1);
        assert_eq!(report.deadline_evicted_total, 1);
        assert_eq!(report.recoveries_total, 4);
        assert_eq!(report.rollbacks_total, 1);
        assert!(report.qps > 0.0);
        assert!(report.latency_p50_ns > 0.0);
        assert!((report.cache_hit_rate - 0.75).abs() < 1e-12);
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].epoch, 9);
        // Per-op histograms separate the kinds.
        assert!(report.op_latency.query.p50_ns > 0.0);
        assert!(report.op_latency.query_batch.p50_ns > report.op_latency.query.p50_ns);
        assert_eq!(report.op_latency.load_snapshot.p50_ns, 0.0, "no LoadSnapshot recorded");
        // First report's window equals the lifetime average.
        assert!((report.qps_window - report.qps).abs() / report.qps < 0.5);
    }

    #[test]
    fn per_shard_histograms_claim_slots_and_overflow() {
        let m = MetricsRegistry::new();
        for shard in 0..(SHARD_SLOTS as u32 + 4) {
            m.observe(&OpObservation {
                shard: Some(shard),
                ..OpObservation::basic(OpKind::Query, 1, 1_000 + shard as u64 * 10)
            });
        }
        // Slot-resident shards report their own counts…
        let mk = |id: u32| MetricsShard {
            shard_id: id,
            epoch: 1,
            serialized_len: 10,
            ops: 0,
            latency_p50_ns: 0.0,
            latency_p99_ns: 0.0,
        };
        let report = m.report(CacheStats::default(), (0..SHARD_SLOTS as u32).map(mk).collect());
        for s in &report.shards {
            assert_eq!(s.ops, 1, "shard {}", s.shard_id);
            assert!(s.latency_p50_ns > 0.0);
        }
        // …and the late shards all share the overflow histogram.
        assert_eq!(m.shard_overflow.count(), 4);
    }

    #[test]
    fn observe_feeds_trace_ring_and_slow_op_log() {
        let m = MetricsRegistry::with_observability(64, 1_000_000);
        assert_eq!(m.slow_op_threshold_ns(), 1_000_000);
        m.observe(&OpObservation {
            conn: 7,
            shard: Some(3),
            fingerprint: 0xDEAD_BEEF,
            len: 4,
            ..OpObservation::basic(OpKind::Query, 1, 2_000)
        });
        m.observe(&OpObservation {
            conn: 7,
            shard: Some(3),
            fingerprint: 0xFEED_F00D,
            len: 9,
            ..OpObservation::basic(OpKind::Query, 1, 5_000_000)
        });
        m.observe(&OpObservation {
            conn: 8,
            error: true,
            ..OpObservation::basic(OpKind::Rollback, 0, 3_000_000)
        });
        let ring = m.tracer().expect("tracing enabled");
        let events = ring.snapshot(100);
        let kinds: Vec<TraceKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::FrameAnswered,
                TraceKind::FrameAnswered,
                TraceKind::SlowOp,
                TraceKind::FrameError,
            ],
            "slow op follows its frame; errors never enter the slow-op log"
        );
        assert_eq!(events[1].fingerprint, 0xFEED_F00D);
        assert_eq!(events[2].fingerprint, 0xFEED_F00D, "slow-op entry carries the fingerprint");
        assert_eq!(events[2].detail, 1_000_000, "slow-op detail is the threshold");
        assert_eq!(events[3].conn, 8);
        let report = m.report(CacheStats::default(), Vec::new());
        assert_eq!(report.slow_ops_total, 1);
        assert_eq!(report.ops.errors, 1);
        assert_eq!(report.trace_events_total, 4);
        assert_eq!(report.trace_overwritten_total, 0);
    }

    #[test]
    fn windowed_qps_reflects_recent_activity_only() {
        let m = MetricsRegistry::new();
        m.record(OpKind::Query, 1_000, 500);
        let first = m.report(CacheStats::default(), Vec::new());
        assert!(first.qps_window > 0.0);
        // Nothing served since the first report: the window drops to 0
        // while the lifetime average stays positive.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let second = m.report(CacheStats::default(), Vec::new());
        assert!(second.qps > 0.0);
        assert_eq!(second.qps_window, 0.0);
        // New work shows up in the next window.
        m.record(OpKind::Query, 10, 500);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let third = m.report(CacheStats::default(), Vec::new());
        assert!(third.qps_window > 0.0);
        assert!(third.qps < first.qps, "lifetime average decays");
    }

    #[test]
    fn prometheus_exposition_has_the_required_families() {
        let m = MetricsRegistry::with_observability(16, 1);
        m.observe(&OpObservation {
            shard: Some(0),
            fingerprint: 42,
            len: 3,
            ..OpObservation::basic(OpKind::Query, 1, 900)
        });
        let report = m.report(
            CacheStats { hits: 1, misses: 1, entries: 1, capacity: 8 },
            vec![MetricsShard {
                shard_id: 0,
                epoch: 2,
                serialized_len: 100,
                ops: 0,
                latency_p50_ns: 0.0,
                latency_p99_ns: 0.0,
            }],
        );
        let text = render_prometheus(&report);
        for needle in [
            "# TYPE dpsc_ops_total counter",
            "dpsc_ops_total{op=\"query\"} 1",
            "dpsc_patterns_total 1",
            "dpsc_latency_ns{quantile=\"0.5\"}",
            "dpsc_op_latency_ns{op=\"query\",quantile=\"0.99\"}",
            "dpsc_qps_window",
            "dpsc_loop_utilization",
            "dpsc_accept_to_first_ns{quantile=\"0.5\"}",
            "dpsc_slow_ops_total 1",
            "dpsc_trace_events_total 2",
            "dpsc_shard_epoch{shard=\"0\"} 2",
            "dpsc_shard_latency_ns{shard=\"0\",quantile=\"0.99\"}",
        ] {
            assert!(text.contains(needle), "exposition missing `{needle}`:\n{text}");
        }
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line.split_once(' ').is_some_and(
                        |(name, v)| name.starts_with("dpsc_") && v.parse::<f64>().is_ok()
                    ),
                "malformed exposition line `{line}`"
            );
        }
    }
}
