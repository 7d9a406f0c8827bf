//! Experiment `serve_throughput`: the serving-tier perf baseline.
//!
//! Spins up the `dpsc-serve` daemon on a loopback ephemeral port with
//! four DP-built shards — two σ = 4 dna toys plus the ≥ 1 MB `text-1m`
//! and `log-1m` corpora — then drives it with a closed-loop load
//! generator: `connections` client threads, each replaying a
//! pre-generated deterministic request stream (Zipf-weighted present
//! patterns mixed with uniform absent probes, seeded via
//! `dpcore::stream`), in two modes — one request per round-trip
//! (`closed_loop`) and bursts shipped in a single write (`pipelined`,
//! which exercises the server's per-connection batching). Results land
//! in `results/BENCH_serve.json`, the serving-side companion of
//! `BENCH_build.json`, and CI gates regressions against the committed
//! baseline via `scripts/check_serve_bench.py`.
//!
//! ## Determinism contract
//! Everything in the artifact except throughput/latency measurements and
//! cache counters is byte-deterministic for the seed: shard definitions,
//! snapshot digests, workload digests (FNV-1a per connection, XORed so
//! thread interleaving cannot matter), and the answers digest. Every
//! served answer is asserted bit-identical to the **naive binary-search
//! trie walk** ([`FrozenSynopsis::query_naive`]) against the same
//! snapshot *while the experiment runs* — the server answers through the
//! accelerated SWAR/table layout, so this is a live differential check
//! that the acceleration layer is behaviorally invisible. A digest drift
//! therefore means the build or the serving path changed behaviour,
//! which the gate reports louder than a slowdown.
//!
//! Besides wire-level throughput, the artifact records a per-shard
//! **single-query latency** column: an in-process microbenchmark of the
//! accelerated path vs the naive walk over the shard's own pattern
//! universe. In-process on purpose — loopback round trips cost ~1 µs,
//! which would swamp the ~100 ns lookup the fast path optimises.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_dpcore::stream::derive_stream as derive_seed;
use dpsc_private_count::codec::fnv1a;
use dpsc_private_count::{build_pure, BuildParams, CountMode, FrozenSynopsis};
use dpsc_serve::wire::{decode_response, encode_request};
use dpsc_serve::{Client, Request, Response, Server, ServerConfig, ShardManager};
use dpsc_textindex::CorpusIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::exps::common::Workload;
use crate::Table;

/// Where the raw perf artifact is written.
pub const BENCH_PATH: &str = "results/BENCH_serve.json";

/// Base seed: corpora, builds, and every connection's request stream
/// derive from it.
const BASE_SEED: u64 = 0x5E12_7EAF;

/// Zipf exponent for the present-pattern mix.
const ZIPF_S: f64 = 1.1;
/// Fraction of queries drawn from the present-pattern universe.
const PRESENT_FRAC: f64 = 0.8;
/// Requests shipped per write in pipelined mode.
const BURST: usize = 32;

/// Connection counts for the concurrency sweep: the readiness core must
/// hold every socket of a point open *simultaneously* (enforced with a
/// barrier between connect and traffic) and answer all of them
/// bit-identically. 4096 is the 10k-class data point — far beyond
/// anything a thread-per-connection pool covers.
const SWEEP_CONNS: [usize; 3] = [16, 256, 4096];
/// Generator threads for the sweep (each thread multiplexes
/// `conns/threads` blocking sockets, one outstanding request per socket).
const SWEEP_THREADS: usize = 8;

struct ShardSpec {
    name: &'static str,
    workload: Workload,
    shard_id: u32,
    n: usize,
    ell: usize,
    epsilon: f64,
    tau_frac: f64,
}

/// Same non-FAIL DP-build regimes as `BENCH_build.json`'s fast tier, so
/// the two artifacts track the same constructions. `text-1m` and
/// `log-1m` are the ≥ 1 MB corpora (larger alphabets exercise the mid
/// SWAR-block and direct-table fast-path tiers at the root).
const SHARDS: [ShardSpec; 4] = [
    ShardSpec {
        name: "dna-small",
        workload: Workload::Dna,
        shard_id: 0,
        n: 1024,
        ell: 64,
        epsilon: 20.0,
        tau_frac: 0.45,
    },
    ShardSpec {
        name: "dna-mid",
        workload: Workload::Dna,
        shard_id: 1,
        n: 2048,
        ell: 64,
        epsilon: 16.0,
        tau_frac: 0.35,
    },
    ShardSpec {
        name: "text-1m",
        workload: Workload::Text,
        shard_id: 2,
        n: 10624,
        ell: 97,
        epsilon: 16.0,
        tau_frac: 0.35,
    },
    ShardSpec {
        name: "log-1m",
        workload: Workload::Log,
        shard_id: 3,
        n: 36_000,
        ell: 30,
        epsilon: 16.0,
        tau_frac: 0.10,
    },
];

/// One FNV-1a fold step for the incremental digests (same constants as
/// `codec::fnv1a`, lifted to u64 words).
fn fnv_fold(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// One built shard: the snapshot, its wire bytes in every codec dialect,
/// and the deterministic present-pattern universe the Zipf mix draws
/// from.
struct BuiltShard {
    spec: &'static ShardSpec,
    frozen: FrozenSynopsis,
    bytes: Vec<u8>,
    /// Uncompressed `DPSF` v2: what actually ships to the daemon, so the
    /// resident snapshots serve *borrowed* from the received buffers.
    bytes_v2: Vec<u8>,
    /// Delta-compressed v2 — the size column (`serialized_len_v2`).
    bytes_v2c: Vec<u8>,
    /// Total generated corpus size (`Database::total_len`).
    corpus_bytes: usize,
    universe: Vec<Vec<u8>>,
    universe_digest: u64,
    snapshot_digest: u64,
}

fn build_shard(spec: &'static ShardSpec, tag: u64) -> BuiltShard {
    let mut rng = StdRng::seed_from_u64(derive_seed(BASE_SEED, tag));
    let db = spec.workload.make_corpus(spec.n, spec.ell, &mut rng);
    let idx = CorpusIndex::build(&db);
    let tau = spec.tau_frac * spec.n as f64;
    let params = BuildParams::new(CountMode::Document, PrivacyParams::pure(spec.epsilon), 0.1)
        .with_thresholds(tau, f64::NEG_INFINITY);
    let built = build_pure(&idx, &params, &mut rng)
        .expect("benchmark regimes are tuned to avoid the FAIL branch");
    let frozen = built.freeze();
    let bytes = frozen.to_bytes();
    let snapshot_digest = fnv1a(&bytes);
    // Both v2 dialects must round-trip canonically, and the compressed
    // dialect must actually pay for its header on every scenario shard —
    // these are correctness claims of the codec, checked live like the
    // served-answer differential.
    let bytes_v2 = frozen.to_bytes_v2(false);
    let bytes_v2c = frozen.to_bytes_v2(true);
    for (dialect, b) in [("v2", &bytes_v2), ("v2 compressed", &bytes_v2c)] {
        let back = FrozenSynopsis::from_bytes(b).expect("v2 snapshot decodes");
        assert_eq!(back, frozen, "{dialect} decode drifted on {}", spec.name);
        assert_eq!(back.to_bytes(), *b, "{dialect} encoding not canonical on {}", spec.name);
    }
    assert!(
        bytes_v2c.len() < bytes.len(),
        "compressed v2 ({}) must undercut v1 ({}) on {}",
        bytes_v2c.len(),
        bytes.len(),
        spec.name
    );

    // Deterministic present-pattern universe: short substrings of the
    // corpus documents, first-seen order, capped. Rank order is what the
    // Zipf sampler weights, so it is part of the workload definition.
    let mut universe: Vec<Vec<u8>> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    'outer: for doc in db.documents() {
        for (start, len) in [(0usize, 3usize), (1, 4), (2, 6), (0, 8)] {
            if doc.len() >= start + len {
                let pat = doc[start..start + len].to_vec();
                if seen.insert(pat.clone()) {
                    universe.push(pat);
                    if universe.len() >= 512 {
                        break 'outer;
                    }
                }
            }
        }
    }
    let mut universe_digest = 0xCBF2_9CE4_8422_2325u64;
    for p in &universe {
        universe_digest = fnv_fold(universe_digest, fnv1a(p));
    }
    BuiltShard {
        spec,
        frozen,
        bytes,
        bytes_v2,
        bytes_v2c,
        corpus_bytes: db.total_len(),
        universe,
        universe_digest,
        snapshot_digest,
    }
}

/// Per-shard cold-load latency: ns per full decode-and-install of the v1
/// codec ([`FrozenSynopsis::from_bytes`], four array copies) vs the v2
/// borrowed path ([`FrozenSynopsis::from_bytes_shared`] on uncompressed
/// v2 bytes, zero array copies — the snapshot points into the shared
/// buffer). Both validate checksums and structure and rebuild the
/// accelerated layout, so the delta isolates what borrowing saves.
/// Min-over-repeats average, like [`single_query_latency`].
fn cold_load_latency(shard: &BuiltShard) -> (f64, f64) {
    const REPS: usize = 7;
    const ITERS: usize = 24;
    let shared: Arc<[u8]> = shard.bytes_v2.clone().into();
    let run = |v2: bool| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            for _ in 0..ITERS {
                let decoded = if v2 {
                    FrozenSynopsis::from_bytes_shared(Arc::clone(&shared))
                } else {
                    FrozenSynopsis::from_bytes(std::hint::black_box(&shard.bytes))
                }
                .expect("benchmark snapshot decodes");
                debug_assert_eq!(decoded.is_borrowed(), v2);
                std::hint::black_box(&decoded);
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / ITERS as f64);
        }
        best
    };
    (run(false), run(true))
}

/// Per-shard single-query latency: ns/query over the shard's pattern
/// universe for the accelerated path ([`FrozenSynopsis::query`]) vs the
/// naive binary-search walk ([`FrozenSynopsis::query_naive`], the
/// pre-acceleration serving path kept as the differential oracle).
/// Min-over-repeats average, in-process (see the module docs for why not
/// over the wire).
fn single_query_latency(shard: &BuiltShard) -> (f64, f64) {
    const REPS: usize = 7;
    const ITERS: usize = 48;
    let pats: Vec<&[u8]> = shard.universe.iter().map(|p| p.as_slice()).collect();
    let queries = (ITERS * pats.len()) as f64;
    let run = |naive: bool| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..ITERS {
                for p in &pats {
                    let v = if naive {
                        shard.frozen.query_naive(std::hint::black_box(p))
                    } else {
                        shard.frozen.query(std::hint::black_box(p))
                    };
                    acc ^= v.to_bits();
                }
            }
            std::hint::black_box(acc);
            best = best.min(t0.elapsed().as_nanos() as f64 / queries);
        }
        best
    };
    (run(false), run(true))
}

/// Zipf(s) sampler over ranks `0..n` via inverse-CDF binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..*self.cdf.last().expect("non-empty universe"));
        self.cdf.partition_point(|&c| c <= u)
    }
}

/// The full pre-generated workload of one connection: requests plus the
/// locally computed expected answers (the served answers are asserted
/// bit-identical during the run).
struct ConnWorkload {
    requests: Vec<Request>,
    expected: Vec<Vec<f64>>,
    /// FNV-1a over (shard, patterns) in stream order.
    workload_digest: u64,
    /// FNV-1a over expected answer bits in stream order.
    answers_digest: u64,
    queries: usize,
}

fn generate_workload(
    conn: u64,
    requests: usize,
    batch: usize,
    shards: &[BuiltShard],
    zipfs: &[Zipf],
) -> ConnWorkload {
    let mut rng = StdRng::seed_from_u64(derive_seed(BASE_SEED, 0x0100 + conn));
    let mut reqs = Vec::with_capacity(requests);
    let mut expected = Vec::with_capacity(requests);
    let mut wd = 0xCBF2_9CE4_8422_2325u64;
    let mut ad = 0xCBF2_9CE4_8422_2325u64;
    let mut queries = 0usize;
    for _ in 0..requests {
        let si = rng.gen_range(0..shards.len());
        let shard = &shards[si];
        let mut patterns = Vec::with_capacity(batch);
        for _ in 0..batch {
            let pat: Vec<u8> = if rng.gen_bool(PRESENT_FRAC) {
                shard.universe[zipfs[si].sample(&mut rng)].clone()
            } else {
                let len = rng.gen_range(2..10usize);
                (0..len).map(|_| rng.gen_range(b'0'..=b'9')).collect()
            };
            wd = fnv_fold(wd, fnv1a(&pat) ^ shard.spec.shard_id as u64);
            patterns.push(pat);
        }
        // Expected answers come from the *naive* walk: the daemon serves
        // through the accelerated layout, so the replay's bit-identical
        // assertion is a live fast-path-vs-oracle differential check.
        let answers: Vec<f64> = patterns.iter().map(|p| shard.frozen.query_naive(p)).collect();
        for a in &answers {
            ad = fnv_fold(ad, a.to_bits());
        }
        queries += patterns.len();
        reqs.push(Request::QueryBatch { shard: shard.spec.shard_id, patterns });
        expected.push(answers);
    }
    ConnWorkload { requests: reqs, expected, workload_digest: wd, answers_digest: ad, queries }
}

/// Per-mode measurements over one replay of every connection's stream.
#[derive(Clone, Copy, Default)]
struct ModeTimes {
    elapsed_ns: u128,
    qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

fn percentile(sorted: &[u128], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64 / 1e3
}

/// Replays every connection's stream against the daemon, one request per
/// round-trip (`burst == 1`) or in pipelined bursts, asserting every
/// answer bit-identical to the precomputed expectation.
fn replay(addr: std::net::SocketAddr, workloads: &[ConnWorkload], burst: usize) -> ModeTimes {
    let total_queries: usize = workloads.iter().map(|w| w.queries).sum();
    let latencies: Vec<std::sync::Mutex<Vec<u128>>> =
        workloads.iter().map(|_| std::sync::Mutex::new(Vec::new())).collect();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (w, lat) in workloads.iter().zip(&latencies) {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("load generator connects");
                let mut lats = Vec::with_capacity(w.requests.len());
                for (chunk, exp_chunk) in w.requests.chunks(burst).zip(w.expected.chunks(burst)) {
                    let t = Instant::now();
                    let responses = if chunk.len() == 1 {
                        vec![client.call(&chunk[0]).expect("request answered")]
                    } else {
                        client.pipeline(chunk).expect("burst answered")
                    };
                    let per_req = t.elapsed().as_nanos() / chunk.len() as u128;
                    for (resp, exp) in responses.iter().zip(exp_chunk) {
                        match resp {
                            Response::QueryBatch { values } => {
                                assert_eq!(values.len(), exp.len());
                                for (v, e) in values.iter().zip(exp) {
                                    assert_eq!(
                                        v.to_bits(),
                                        e.to_bits(),
                                        "served answer drifted from the local synopsis"
                                    );
                                }
                            }
                            other => panic!("unexpected response {other:?}"),
                        }
                        lats.push(per_req);
                    }
                }
                *lat.lock().expect("latency mutex not poisoned") = lats;
            });
        }
    });
    let elapsed_ns = t0.elapsed().as_nanos();
    let mut all: Vec<u128> = latencies
        .iter()
        .flat_map(|l| l.lock().expect("latency mutex not poisoned").clone())
        .collect();
    all.sort_unstable();
    ModeTimes {
        elapsed_ns,
        qps: total_queries as f64 / (elapsed_ns as f64 / 1e9),
        p50_us: percentile(&all, 0.50),
        p95_us: percentile(&all, 0.95),
        p99_us: percentile(&all, 0.99),
    }
}

/// One row of the concurrency sweep.
struct SweepPoint {
    conns: usize,
    requests_per_conn: usize,
    total_queries: usize,
    elapsed_ns: u128,
    qps: f64,
    qps_per_conn: f64,
    workload_digest: u64,
    answers_digest: u64,
}

/// Connects with bounded retries: a 4096-socket storm can transiently
/// overflow the accept backlog, and a refused/reset connect here is a
/// retry, not a failure.
fn connect_with_retry(addr: SocketAddr) -> TcpStream {
    let mut last = None;
    for _ in 0..100 {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).expect("nodelay");
                return s;
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }
    panic!("sweep generator failed to connect: {last:?}");
}

/// Reads exactly one response frame from a blocking socket.
fn read_response_frame(stream: &mut TcpStream) -> Response {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("response frame length");
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).expect("response frame body");
    decode_response(&body).expect("response frame decodes")
}

/// Replays one sweep point: every socket is connected before any request
/// is sent (a barrier makes "conns sockets simultaneously open" a hard
/// property, not a race), then each generator thread drives its slice of
/// sockets in write-all-then-read-all rounds — one outstanding request
/// per socket, so the round-trips of a slice overlap at the server
/// without any client-side readiness machinery, and no send/receive
/// buffer can deadlock (a single request and its response both fit in
/// the kernel buffers with room to spare). Every answer is asserted
/// bit-identical to the precomputed naive-walk expectation, same as
/// [`replay`].
fn replay_sweep(addr: SocketAddr, workloads: &[ConnWorkload]) -> SweepPoint {
    let conns = workloads.len();
    let threads = conns.clamp(1, SWEEP_THREADS);
    let per_thread = conns.div_ceil(threads);
    let barrier = std::sync::Barrier::new(threads);
    // Traffic time only: the clock starts after the barrier (once every
    // socket of the point is open), so a slow connect storm — retries
    // sleep 10 ms — cannot masquerade as serving throughput. The point's
    // elapsed is the slowest thread's traffic window.
    let elapsed_ns = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for slice in workloads.chunks(per_thread) {
            let (barrier, elapsed_ns) = (&barrier, &elapsed_ns);
            scope.spawn(move || {
                let mut socks: Vec<TcpStream> =
                    slice.iter().map(|_| connect_with_retry(addr)).collect();
                barrier.wait(); // all sweep sockets are now open at once
                let t0 = Instant::now();
                let rounds = slice.iter().map(|w| w.requests.len()).max().unwrap_or(0);
                for r in 0..rounds {
                    for (w, s) in slice.iter().zip(&mut socks) {
                        if let Some(req) = w.requests.get(r) {
                            s.write_all(&encode_request(req)).expect("request written");
                        }
                    }
                    for (w, s) in slice.iter().zip(&mut socks) {
                        let Some(exp) = w.expected.get(r) else { continue };
                        match read_response_frame(s) {
                            Response::QueryBatch { values } => {
                                assert_eq!(values.len(), exp.len());
                                for (v, e) in values.iter().zip(exp) {
                                    assert_eq!(
                                        v.to_bits(),
                                        e.to_bits(),
                                        "sweep answer drifted from the local synopsis"
                                    );
                                }
                            }
                            other => panic!("unexpected sweep response {other:?}"),
                        }
                    }
                }
                elapsed_ns
                    .fetch_max(t0.elapsed().as_nanos() as u64, std::sync::atomic::Ordering::SeqCst);
            });
        }
    });
    let elapsed_ns = elapsed_ns.load(std::sync::atomic::Ordering::SeqCst) as u128;
    let total_queries: usize = workloads.iter().map(|w| w.queries).sum();
    let qps = total_queries as f64 / (elapsed_ns as f64 / 1e9);
    SweepPoint {
        conns,
        requests_per_conn: workloads.first().map(|w| w.requests.len()).unwrap_or(0),
        total_queries,
        elapsed_ns,
        qps,
        qps_per_conn: qps / conns.max(1) as f64,
        workload_digest: workloads.iter().fold(0u64, |acc, w| acc ^ w.workload_digest),
        answers_digest: workloads.iter().fold(0u64, |acc, w| acc ^ w.answers_digest),
    }
}

/// Counters and timings from the robustness scenario: overload shedding,
/// slow-loris eviction, idle reaping, a durable rollback, and the
/// crash-restart recovery measurement. Every `*_total` is the daemon's
/// own counter, asserted equal to the generator-side observation at
/// runtime and recorded for the gate.
struct RobustnessResult {
    overloaded_total: u64,
    shed_observed: u64,
    deadline_evicted_total: u64,
    loris_observed: u64,
    idle_reaped_total: u64,
    idle_observed: u64,
    rollbacks_total: u64,
    rollback_observed: u64,
    /// Persist → kill → recover → first (bit-identical) answer, in ns.
    restart_recovery_ns: u128,
    recoveries_total: u64,
}

/// A read-only admission probe: connects and reads without ever writing,
/// so the shed `Overloaded` frame cannot be lost to a reset racing
/// unread request bytes. Returns once the frame (and the close behind
/// it) arrives.
fn shed_probe(addr: SocketAddr) -> Response {
    let mut s = TcpStream::connect(addr).expect("probe connects at TCP level");
    s.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let resp = read_response_frame(&mut s);
    let mut rest = [0u8; 16];
    assert!(
        matches!(s.read(&mut rest), Ok(0) | Err(_)),
        "shed connection must close after its frame"
    );
    resp
}

/// Pings `admin` (keeping it non-idle) while polling `victim` for the
/// server-side close, up to a 10 s budget. Returns true once the victim
/// socket reads EOF or a reset.
fn await_eviction(admin: &mut Client, shard: u32, pattern: &[u8], victim: &mut TcpStream) -> bool {
    victim.set_read_timeout(Some(Duration::from_millis(10))).expect("read timeout");
    let mut one = [0u8; 16];
    let t = Instant::now();
    while t.elapsed() < Duration::from_secs(10) {
        admin.query(shard, pattern).expect("admin connection stays healthy");
        match victim.read(&mut one) {
            Ok(0) => return true,
            Ok(_) => panic!("evicted connection received unexpected bytes"),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return true,
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    false
}

/// The robustness scenario: a second daemon with a snapshot store, a
/// 2-connection admission bound, a 150 ms read deadline, and a 400 ms
/// idle timeout. Installs two epochs durably and rolls back; holds a
/// slow-loris connection to eviction; sheds three read-only probes at
/// admission; lets an idle connection get reaped — then asserts the
/// daemon's degradation counters reconcile *exactly* with what the
/// generator did. Finally: a torn record is appended to the manifest (a
/// simulated crash mid-append), the daemon restarts cold on the same
/// directory, and `restart_recovery_ns` clocks persist → kill → recover
/// → first answer, with that answer asserted bit-identical to the
/// pre-crash rolled-back epoch.
fn robustness_scenario(shards: &[BuiltShard]) -> RobustnessResult {
    let dir = std::env::temp_dir().join(format!("dpsc-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let small = &shards[0];
    let mid = &shards[1];
    let probe: Vec<&[u8]> = small.universe.iter().take(64).map(|p| p.as_slice()).collect();
    let expect_small: Vec<u64> =
        probe.iter().map(|p| small.frozen.query_naive(p).to_bits()).collect();
    let expect_mid: Vec<u64> = probe.iter().map(|p| mid.frozen.query_naive(p).to_bits()).collect();

    let manager = Arc::new(ShardManager::new());
    let config = ServerConfig {
        max_conns: 2,
        read_deadline: Some(Duration::from_millis(150)),
        idle_timeout: Some(Duration::from_millis(400)),
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let handle = Server::spawn(config, manager).expect("robustness daemon binds");
    let addr = handle.addr();
    let mut admin = Client::connect(addr).expect("admin connects");

    // Durable installs + rollback: small → mid → back to small.
    let e1 = admin.load_snapshot(0, &small.bytes_v2).expect("epoch 1 installs");
    admin.load_snapshot(0, &mid.bytes_v2).expect("epoch 2 installs");
    let served: Vec<u64> =
        admin.query_batch(0, &probe).expect("epoch 2 serves").iter().map(|v| v.to_bits()).collect();
    assert_eq!(served, expect_mid, "pre-rollback answers");
    admin.rollback(0, e1).expect("rollback to a retained epoch");
    let served: Vec<u64> = admin
        .query_batch(0, &probe)
        .expect("rollback serves")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(served, expect_small, "rollback re-installs epoch 1 bit-identically");
    let rollback_observed = 1u64;

    // A slow loris takes the second admitted slot: a partial frame, then
    // silence until the read deadline evicts it.
    let mut loris = TcpStream::connect(addr).expect("loris connects");
    loris.write_all(b"DP").expect("partial frame sent");
    admin.query(0, probe[0]).expect("admin still served");

    // With both slots held, read-only probes are shed with a typed frame.
    let shed_observed = 3u64;
    for i in 0..shed_observed {
        let resp = shed_probe(addr);
        assert!(matches!(resp, Response::Overloaded), "probe {i} got {resp:?}");
    }
    let loris_observed = u64::from(await_eviction(&mut admin, 0, probe[0], &mut loris));
    assert_eq!(loris_observed, 1, "loris must be evicted at the read deadline");

    // An idle connection (admitted into the freed slot, never writes)
    // gets reaped at the idle timeout.
    let mut idler = TcpStream::connect(addr).expect("idler connects");
    let idle_observed = u64::from(await_eviction(&mut admin, 0, probe[0], &mut idler));
    assert_eq!(idle_observed, 1, "idler must be reaped at the idle timeout");

    // Exact reconciliation: the daemon counted precisely what we did.
    let report = admin.metrics().expect("metrics answered");
    assert_eq!(report.overloaded_total, shed_observed, "shed accounting drifted");
    assert_eq!(report.deadline_evicted_total, loris_observed, "eviction accounting drifted");
    assert_eq!(report.idle_reaped_total, idle_observed, "reap accounting drifted");
    assert_eq!(report.rollbacks_total, rollback_observed, "rollback accounting drifted");
    assert_eq!(report.recoveries_total, 0, "fresh store had nothing to recover");
    let counters = (
        report.overloaded_total,
        report.deadline_evicted_total,
        report.idle_reaped_total,
        report.rollbacks_total,
    );
    drop(admin);
    handle.shutdown();

    // Simulated crash mid-manifest-append: a torn record on the tail.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("MANIFEST"))
            .expect("manifest exists after durable installs");
        f.write_all(&[0xAB; 20]).expect("torn tail appended");
    }

    // Cold restart on the same directory: recovery replays the manifest
    // (repairing the torn tail) and the first answer must be
    // bit-identical to the pre-crash rolled-back epoch.
    let t0 = Instant::now();
    let manager = Arc::new(ShardManager::new());
    let config = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
    let handle = Server::spawn(config, manager).expect("recovery daemon binds");
    let mut client = Client::connect(handle.addr()).expect("recovery client connects");
    let served: Vec<u64> = client
        .query_batch(0, &probe)
        .expect("recovered epoch serves")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let restart_recovery_ns = t0.elapsed().as_nanos();
    assert_eq!(served, expect_small, "recovered answers must match the pre-crash epoch");
    let report = client.metrics().expect("metrics answered");
    assert_eq!(report.recoveries_total, 1, "one corpus replayed at startup");
    let recoveries_total = report.recoveries_total;
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!(
        "[serve_throughput] robustness: {} sheds, {} eviction, {} reap, {} rollback \
         reconciled; restart recovery {:.2} ms",
        counters.0,
        counters.1,
        counters.2,
        counters.3,
        restart_recovery_ns as f64 / 1e6
    );
    RobustnessResult {
        overloaded_total: counters.0,
        shed_observed,
        deadline_evicted_total: counters.1,
        loris_observed,
        idle_reaped_total: counters.2,
        idle_observed,
        rollbacks_total: counters.3,
        rollback_observed,
        restart_recovery_ns,
        recoveries_total,
    }
}

/// The instrumentation-overhead comparison: the same pipelined replay
/// against a daemon with full observability (trace ring + slow-op log)
/// and against one stripped to bare counters (`trace_capacity = 0`).
/// CI gates `overhead_frac` at ≤ 5%: observability must stay effectively
/// free at serving speed.
struct OverheadResult {
    instrumented_qps: f64,
    counters_only_qps: f64,
    /// `1 − instrumented/counters_only` (negative = noise in favour of
    /// the instrumented run).
    overhead_frac: f64,
}

/// Measures [`OverheadResult`]: best-of-3 pipelined replays per config,
/// shards installed in-process (identical bits to the wire-shipped ones,
/// so the replay's differential check still holds).
fn overhead_scenario(shards: &[BuiltShard], workloads: &[ConnWorkload]) -> OverheadResult {
    let run = |observability: bool| -> f64 {
        let manager = Arc::new(ShardManager::new());
        for s in shards {
            manager.install(s.spec.shard_id, s.frozen.clone(), s.bytes_v2.len());
        }
        let config = ServerConfig {
            trace_capacity: if observability { 1024 } else { 0 },
            slow_op_threshold: observability.then(|| Duration::from_millis(50)),
            ..ServerConfig::default()
        };
        let handle = Server::spawn(config, manager).expect("overhead daemon binds");
        let mut best = 0.0f64;
        for _ in 0..3 {
            best = best.max(replay(handle.addr(), workloads, BURST).qps);
        }
        handle.shutdown();
        best
    };
    let counters_only_qps = run(false);
    let instrumented_qps = run(true);
    let overhead_frac = 1.0 - instrumented_qps / counters_only_qps;
    eprintln!(
        "[serve_throughput] instrumentation overhead: {instrumented_qps:.0} qps instrumented \
         vs {counters_only_qps:.0} qps counters-only ({:+.2}%)",
        overhead_frac * 100.0
    );
    OverheadResult { instrumented_qps, counters_only_qps, overhead_frac }
}

struct RunResult {
    connections: usize,
    requests_per_conn: usize,
    batch: usize,
    total_queries: usize,
    workload_digest: u64,
    answers_digest: u64,
    closed_loop: ModeTimes,
    pipelined: ModeTimes,
    cache_hits: u64,
    cache_misses: u64,
    sweep: Vec<SweepPoint>,
    /// Server-reported cumulative pattern count vs the generator's own —
    /// asserted equal at runtime, recorded for the gate.
    metrics_patterns_total: u64,
    generator_patterns_total: u64,
    metrics_p50_ns: f64,
    metrics_p99_ns: f64,
    /// Per-op percentiles for the op the load is made of, from the
    /// daemon's dedicated `QueryBatch` histogram.
    metrics_op_qb_p50_ns: f64,
    metrics_op_qb_p99_ns: f64,
    /// Event-loop utilization split (readiness core): time inside
    /// `epoll_wait` vs time servicing readiness events.
    loop_wait_ns: u64,
    loop_busy_ns: u64,
    loop_utilization: f64,
    trace_events_total: u64,
    robustness: RobustnessResult,
    overhead: OverheadResult,
}

fn to_json(
    shards: &[BuiltShard],
    lats: &[(f64, f64)],
    cold_lats: &[(f64, f64)],
    run: &RunResult,
    tier: &str,
    repeats: usize,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"dpsc-bench-serve/v1\",\n");
    out.push_str(&format!("  \"seed\": {BASE_SEED},\n"));
    out.push_str(&format!("  \"tier\": \"{tier}\",\n"));
    out.push_str(&format!("  \"repeats\": {repeats},\n"));
    out.push_str(&format!(
        "  \"hardware_threads\": {},\n",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    ));
    out.push_str(&format!("  \"zipf_s\": {ZIPF_S},\n"));
    out.push_str(&format!("  \"present_frac\": {PRESENT_FRAC},\n"));
    out.push_str(
        "  \"notes\": \"All fields except *_ns/*_us, qps, fastpath_speedup and cache counters \
         are deterministic for the seed (digests XOR per-connection FNV-1a streams, so thread \
         interleaving cannot change them). Served answers are asserted bit-identical to the \
         naive binary-search trie walk at runtime; single_query_ns is the in-process \
         accelerated path, single_query_naive_ns the oracle walk on the same universe. \
         serialized_len_v2 is the delta-compressed DPSF v2 encoding (deterministic); \
         cold_load_ns is a full v1 decode-and-install, cold_load_v2_ns the v2 zero-copy \
         borrowed decode of the same snapshot. Snapshots ship to the daemon as \
         uncompressed v2, so the replay also differentially checks borrowed serving. \
         conn_sweep points hold every socket open simultaneously (barrier-enforced); \
         their digests are deterministic, qps fields are not. metrics.patterns_total is \
         the daemon's own counter, asserted equal to generator_patterns_total at \
         runtime. metrics.op_query_batch_* comes from the daemon's per-op histogram, \
         loop_* from the daemon's event loop. overhead \
         compares the same pipelined replay against a daemon with full observability \
         (default) vs trace_capacity = 0 bare counters; CI gates overhead_frac at \
         0.05.\",\n",
    );
    out.push_str("  \"shards\": [\n");
    for (i, (s, (&(fast_ns, naive_ns), &(cold_ns, cold_v2_ns)))) in
        shards.iter().zip(lats.iter().zip(cold_lats)).enumerate()
    {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", s.spec.name));
        out.push_str(&format!("      \"workload\": \"{}\",\n", s.spec.workload.as_str()));
        out.push_str(&format!("      \"shard_id\": {},\n", s.spec.shard_id));
        out.push_str(&format!("      \"n\": {},\n", s.spec.n));
        out.push_str(&format!("      \"ell\": {},\n", s.spec.ell));
        out.push_str(&format!("      \"corpus_bytes\": {},\n", s.corpus_bytes));
        out.push_str(&format!("      \"epsilon\": {},\n", s.spec.epsilon));
        out.push_str(&format!("      \"node_count\": {},\n", s.frozen.node_count()));
        out.push_str(&format!("      \"serialized_len\": {},\n", s.bytes.len()));
        out.push_str(&format!("      \"serialized_len_v2\": {},\n", s.bytes_v2c.len()));
        out.push_str(&format!("      \"accel_bytes\": {},\n", s.frozen.accel_memory_bytes()));
        out.push_str(&format!("      \"universe\": {},\n", s.universe.len()));
        out.push_str(&format!("      \"universe_digest\": \"{:016x}\",\n", s.universe_digest));
        out.push_str(&format!("      \"snapshot_digest\": \"{:016x}\",\n", s.snapshot_digest));
        out.push_str(&format!("      \"single_query_ns\": {fast_ns:.1},\n"));
        out.push_str(&format!("      \"single_query_naive_ns\": {naive_ns:.1},\n"));
        out.push_str(&format!("      \"cold_load_ns\": {cold_ns:.1},\n"));
        out.push_str(&format!("      \"cold_load_v2_ns\": {cold_v2_ns:.1},\n"));
        out.push_str(&format!("      \"fastpath_speedup\": {:.3}\n", naive_ns / fast_ns));
        out.push_str(&format!("    }}{}\n", if i + 1 < shards.len() { "," } else { "" }));
    }
    out.push_str("  ],\n");
    out.push_str("  \"workload\": {\n");
    out.push_str(&format!("    \"connections\": {},\n", run.connections));
    out.push_str(&format!("    \"requests_per_conn\": {},\n", run.requests_per_conn));
    out.push_str(&format!("    \"batch\": {},\n", run.batch));
    out.push_str(&format!("    \"burst\": {BURST},\n"));
    out.push_str(&format!("    \"total_queries\": {},\n", run.total_queries));
    out.push_str(&format!("    \"workload_digest\": \"{:016x}\",\n", run.workload_digest));
    out.push_str(&format!("    \"answers_digest\": \"{:016x}\"\n", run.answers_digest));
    out.push_str("  },\n");
    out.push_str("  \"modes\": [\n");
    for (i, (name, t)) in
        [("closed_loop", run.closed_loop), ("pipelined", run.pipelined)].iter().enumerate()
    {
        out.push_str(&format!(
            "    {{\"mode\": \"{name}\", \"elapsed_ns\": {}, \"qps\": {:.0}, \
             \"latency_p50_us\": {:.1}, \"latency_p95_us\": {:.1}, \"latency_p99_us\": {:.1}}}{}\n",
            t.elapsed_ns,
            t.qps,
            t.p50_us,
            t.p95_us,
            t.p99_us,
            if i == 0 { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"conn_sweep\": [\n");
    for (i, p) in run.sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"conns\": {}, \"requests_per_conn\": {}, \"total_queries\": {}, \
             \"elapsed_ns\": {}, \"qps\": {:.0}, \"qps_per_conn\": {:.2}, \
             \"workload_digest\": \"{:016x}\", \"answers_digest\": \"{:016x}\"}}{}\n",
            p.conns,
            p.requests_per_conn,
            p.total_queries,
            p.elapsed_ns,
            p.qps,
            p.qps_per_conn,
            p.workload_digest,
            p.answers_digest,
            if i + 1 < run.sweep.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"metrics\": {\n");
    out.push_str(&format!(
        "    \"patterns_total\": {},\n    \"generator_patterns_total\": {},\n",
        run.metrics_patterns_total, run.generator_patterns_total
    ));
    out.push_str(&format!(
        "    \"latency_p50_ns\": {:.0},\n    \"latency_p99_ns\": {:.0},\n",
        run.metrics_p50_ns, run.metrics_p99_ns
    ));
    out.push_str(&format!(
        "    \"op_query_batch_p50_ns\": {:.0},\n    \"op_query_batch_p99_ns\": {:.0},\n",
        run.metrics_op_qb_p50_ns, run.metrics_op_qb_p99_ns
    ));
    out.push_str(&format!(
        "    \"loop_wait_ns\": {},\n    \"loop_busy_ns\": {},\n    \"loop_utilization\": {:.6},\n",
        run.loop_wait_ns, run.loop_busy_ns, run.loop_utilization
    ));
    out.push_str(&format!("    \"trace_events_total\": {}\n", run.trace_events_total));
    out.push_str("  },\n");
    out.push_str("  \"overhead\": {\n");
    out.push_str(&format!(
        "    \"instrumented_qps\": {:.0},\n    \"counters_only_qps\": {:.0},\n",
        run.overhead.instrumented_qps, run.overhead.counters_only_qps
    ));
    out.push_str(&format!("    \"overhead_frac\": {:.6}\n", run.overhead.overhead_frac));
    out.push_str("  },\n");
    let r = &run.robustness;
    out.push_str("  \"durability\": {\n");
    out.push_str(&format!("    \"restart_recovery_ns\": {},\n", r.restart_recovery_ns));
    out.push_str(&format!("    \"recoveries_total\": {}\n", r.recoveries_total));
    out.push_str("  },\n");
    out.push_str("  \"degradation\": {\n");
    out.push_str(&format!(
        "    \"overloaded_total\": {},\n    \"shed_observed\": {},\n",
        r.overloaded_total, r.shed_observed
    ));
    out.push_str(&format!(
        "    \"deadline_evicted_total\": {},\n    \"loris_observed\": {},\n",
        r.deadline_evicted_total, r.loris_observed
    ));
    out.push_str(&format!(
        "    \"idle_reaped_total\": {},\n    \"idle_observed\": {},\n",
        r.idle_reaped_total, r.idle_observed
    ));
    out.push_str(&format!(
        "    \"rollbacks_total\": {},\n    \"rollback_observed\": {}\n",
        r.rollbacks_total, r.rollback_observed
    ));
    out.push_str("  },\n");
    out.push_str(&format!("  \"cache_hits\": {},\n", run.cache_hits));
    out.push_str(&format!("  \"cache_misses\": {}\n", run.cache_misses));
    out.push_str("}\n");
    out
}

/// Runs the load generator, persists [`BENCH_PATH`], and tabulates the
/// two serving modes.
pub fn serve_throughput() -> Table {
    let full = std::env::var("DPSC_SERVE_FULL").map(|v| v == "1").unwrap_or(false);
    let (tier, repeats, connections, requests_per_conn, batch) =
        if full { ("full", 3, 8, 1200, 16) } else { ("fast", 2, 4, 600, 16) };

    // ---- Build the shards and the deterministic workloads -----------------
    let shards: Vec<BuiltShard> =
        SHARDS.iter().enumerate().map(|(i, s)| build_shard(s, i as u64 + 1)).collect();
    // In-process microbenchmarks before the daemon starts competing for
    // the CPU: accelerated path vs naive oracle, and v1 full-copy decode
    // vs v2 borrowed decode, per shard.
    let lats: Vec<(f64, f64)> = shards.iter().map(single_query_latency).collect();
    let cold_lats: Vec<(f64, f64)> = shards.iter().map(cold_load_latency).collect();
    let zipfs: Vec<Zipf> = shards.iter().map(|s| Zipf::new(s.universe.len(), ZIPF_S)).collect();
    let workloads: Vec<ConnWorkload> = (0..connections)
        .map(|c| generate_workload(c as u64, requests_per_conn, batch, &shards, &zipfs))
        .collect();
    let workload_digest = workloads.iter().fold(0u64, |acc, w| acc ^ w.workload_digest);
    let answers_digest = workloads.iter().fold(0u64, |acc, w| acc ^ w.answers_digest);
    let total_queries: usize = workloads.iter().map(|w| w.queries).sum();

    // ---- Daemon up, snapshots shipped over the wire -----------------------
    let manager = Arc::new(ShardManager::new());
    let handle = Server::spawn(ServerConfig::default(), Arc::clone(&manager))
        .expect("daemon binds a loopback port");
    let addr = handle.addr();
    {
        let mut admin = Client::connect(addr).expect("admin connects");
        for s in &shards {
            // Ship uncompressed v2: the daemon installs each shard
            // *borrowed* from the received buffer, so the whole replay
            // (answers asserted against the naive walk) doubles as a
            // differential check of zero-copy serving.
            admin.load_snapshot(s.spec.shard_id, &s.bytes_v2).expect("snapshot loads");
        }
    }
    for s in &shards {
        let resident = manager.snapshot(s.spec.shard_id).expect("shard resident");
        assert!(resident.synopsis.is_borrowed(), "{} must serve borrowed", s.spec.name);
    }

    // ---- Measure both modes, best-of-repeats ------------------------------
    let mut closed_loop = ModeTimes::default();
    let mut pipelined = ModeTimes::default();
    for rep in 0..repeats {
        let cl = replay(addr, &workloads, 1);
        let pl = replay(addr, &workloads, BURST);
        if rep == 0 || cl.qps > closed_loop.qps {
            closed_loop = cl;
        }
        if rep == 0 || pl.qps > pipelined.qps {
            pipelined = pl;
        }
    }
    // ---- Concurrency sweep ------------------------------------------------
    // One point per entry of `SWEEP_CONNS`, each with every socket held
    // open simultaneously (barrier-enforced in `replay_sweep`). Request
    // counts shrink as the connection count grows so each point stays a
    // few seconds; the *property* under test is held-open concurrency
    // with bit-identical answers, not per-point duration. Workload seed
    // tags live in a separate 0x10000-per-point namespace so they can
    // never collide with the modes streams (tagged 0x0100 + conn).
    let sweep_reqs: [usize; 3] = if full { [512, 32, 4] } else { [128, 8, 2] };
    let mut sweep = Vec::with_capacity(SWEEP_CONNS.len());
    for (pi, (&conns, &reqs)) in SWEEP_CONNS.iter().zip(&sweep_reqs).enumerate() {
        let point_workloads: Vec<ConnWorkload> = (0..conns)
            .map(|c| {
                generate_workload(
                    0x10000 * (pi as u64 + 1) + c as u64,
                    reqs,
                    batch,
                    &shards,
                    &zipfs,
                )
            })
            .collect();
        let point = replay_sweep(addr, &point_workloads);
        eprintln!(
            "[serve_throughput] sweep point: {} conns, {:.0} qps ({:.1} qps/conn)",
            point.conns, point.qps, point.qps_per_conn
        );
        sweep.push(point);
    }

    // ---- Server-side accounting must reconcile with the generator ---------
    let (cache_hits, cache_misses, report) = {
        let mut admin = Client::connect(addr).expect("admin reconnects");
        let stats = admin.stats().expect("stats answered");
        let report = admin.metrics().expect("metrics answered");
        (stats.cache.hits, stats.cache.misses, report)
    };
    // The generator knows exactly how many pattern lookups it issued:
    // both modes replay the full workload once per repeat, plus the sweep
    // points. If the daemon's counter disagrees, requests were dropped or
    // double-counted somewhere in the serve path.
    let generator_patterns_total = (2 * repeats * total_queries) as u64
        + sweep.iter().map(|p| p.total_queries as u64).sum::<u64>();
    assert_eq!(
        report.patterns_total, generator_patterns_total,
        "daemon metrics lost or invented pattern lookups"
    );
    assert_eq!(report.ops.errors, 0, "load run must not produce error responses");
    // Observability is on by default (trace ring + per-op histograms), so
    // the load must have left visible traces: the dedicated QueryBatch
    // histogram and the event stream both have to be populated.
    assert!(report.op_latency.query_batch.p99_ns > 0.0, "QueryBatch histogram must be live");
    assert!(report.trace_events_total > 0, "trace ring must have recorded the load");
    handle.shutdown();

    // ---- Robustness: overload, eviction, rollback, crash-restart ----------
    let robustness = robustness_scenario(&shards);

    // ---- Instrumentation overhead: full observability vs bare counters ----
    let overhead = overhead_scenario(&shards, &workloads);

    let run = RunResult {
        connections,
        requests_per_conn,
        batch,
        total_queries,
        workload_digest,
        answers_digest,
        closed_loop,
        pipelined,
        cache_hits,
        cache_misses,
        sweep,
        metrics_patterns_total: report.patterns_total,
        generator_patterns_total,
        metrics_p50_ns: report.latency_p50_ns,
        metrics_p99_ns: report.latency_p99_ns,
        metrics_op_qb_p50_ns: report.op_latency.query_batch.p50_ns,
        metrics_op_qb_p99_ns: report.op_latency.query_batch.p99_ns,
        loop_wait_ns: report.loop_wait_ns,
        loop_busy_ns: report.loop_busy_ns,
        loop_utilization: report.loop_utilization,
        trace_events_total: report.trace_events_total,
        robustness,
        overhead,
    };

    std::fs::create_dir_all("results").ok();
    if let Err(e) =
        std::fs::write(BENCH_PATH, to_json(&shards, &lats, &cold_lats, &run, tier, repeats))
    {
        eprintln!("[serve_throughput] failed writing {BENCH_PATH}: {e}");
    }

    // NB: table id must differ from BENCH_PATH's stem (the experiments
    // binary writes every table to results/<id>.json).
    let mut t = Table::new(
        "serve_throughput",
        "Serving daemon: closed-loop vs pipelined load over the wire protocol",
        &["mode", "connections", "queries", "queries/s", "p50 µs", "p95 µs", "p99 µs"],
    );
    for (name, m) in [("closed_loop", run.closed_loop), ("pipelined", run.pipelined)] {
        t.row(vec![
            name.to_string(),
            connections.to_string(),
            total_queries.to_string(),
            format!("{:.0}", m.qps),
            format!("{:.1}", m.p50_us),
            format!("{:.1}", m.p95_us),
            format!("{:.1}", m.p99_us),
        ]);
    }
    // Sweep points share the table; per-request latency is not sampled
    // there (the property under test is held-open concurrency), so the
    // percentile columns stay blank and the p50 slot carries qps/conn.
    for p in &run.sweep {
        t.row(vec![
            format!("sweep/{}conns", p.conns),
            p.conns.to_string(),
            p.total_queries.to_string(),
            format!("{:.0}", p.qps),
            format!("{:.1}/conn", p.qps_per_conn),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    // The instrumentation-overhead pair: same pipelined replay, full
    // observability vs bare counters. CI gates the gap at ≤ 5%.
    for (name, qps) in [
        ("overhead/instrumented", run.overhead.instrumented_qps),
        ("overhead/counters_only", run.overhead.counters_only_qps),
    ] {
        t.row(vec![
            name.to_string(),
            connections.to_string(),
            total_queries.to_string(),
            format!("{:.0}", qps),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    t.note(format!(
        "tier = {tier}, repeats = {repeats} (best kept), batch = \
         {batch} patterns/request, pipelined bursts of {BURST} requests. Zipf(s = {ZIPF_S}) \
         present mix ({:.0}%), digests deterministic; raw artifact: {BENCH_PATH}.",
        PRESENT_FRAC * 100.0
    ));
    t.note(format!(
        "cache after run: {} hits / {} misses; every served answer asserted bit-identical to \
         the naive binary-search trie walk (live fast-path differential check).",
        run.cache_hits, run.cache_misses
    ));
    t.note(format!(
        "sweep: every point holds all its sockets open simultaneously (barrier between \
         connect and traffic); daemon metrics reconciled with the generator — \
         patterns_total {} == generator count {}, 0 error responses, service latency p50 \
         {:.0} ns / p99 {:.0} ns.",
        run.metrics_patterns_total,
        run.generator_patterns_total,
        run.metrics_p50_ns,
        run.metrics_p99_ns
    ));
    t.note(format!(
        "observability (on by default): QueryBatch op histogram p50 {:.0} ns / p99 {:.0} ns, \
         event-loop utilization {:.1}% ({} trace events recorded); instrumentation overhead \
         vs a counters-only daemon: {:.0} qps instrumented vs {:.0} qps bare ({:+.2}%, CI \
         gate ≤ 5%).",
        run.metrics_op_qb_p50_ns,
        run.metrics_op_qb_p99_ns,
        run.loop_utilization * 100.0,
        run.trace_events_total,
        run.overhead.instrumented_qps,
        run.overhead.counters_only_qps,
        run.overhead.overhead_frac * 100.0
    ));
    t.note(format!(
        "robustness: {} admission sheds, {} deadline eviction, {} idle reap and {} rollback \
         all reconciled exactly against the daemon's counters; crash-restart recovery \
         (persist → kill → torn manifest tail → recover → first bit-identical answer) took \
         {:.2} ms.",
        run.robustness.overloaded_total,
        run.robustness.deadline_evicted_total,
        run.robustness.idle_reaped_total,
        run.robustness.rollbacks_total,
        run.robustness.restart_recovery_ns as f64 / 1e6
    ));
    for (s, (&(fast_ns, naive_ns), &(cold_ns, cold_v2_ns))) in
        shards.iter().zip(lats.iter().zip(&cold_lats))
    {
        t.note(format!(
            "{}: {} workload, {:.2} MB corpus, {} nodes — single query {:.0} ns fast vs \
             {:.0} ns naive ({:.2}× speedup); cold load {:.0} ns v1 vs {:.0} ns v2 borrowed; \
             snapshot {} B v1, {} B v2 compressed ({:.2}×)",
            s.spec.name,
            s.spec.workload.as_str(),
            s.corpus_bytes as f64 / 1e6,
            s.frozen.node_count(),
            fast_ns,
            naive_ns,
            naive_ns / fast_ns,
            cold_ns,
            cold_v2_ns,
            s.bytes.len(),
            s.bytes_v2c.len(),
            s.bytes.len() as f64 / s.bytes_v2c.len() as f64
        ));
    }
    t
}
