//! Traced runs only: the daemon's query and install paths replayed
//! in-process through the public functions the server composes, one span
//! per call, so each layer's share of a request has a number.

use std::sync::Arc;
use std::time::Instant;

use dpsc_private_count::FrozenSynopsis;
use dpsc_serve::wire::{decode_request, decode_response, encode_request, encode_response};
use dpsc_serve::{QueryCache, Request, Response, ShardManager, SnapshotStore};

use crate::daemon::{answers_match, traffic_request, InstallItem, StreamGen, Traffic};
use crate::spec::{BATCH, CACHE_CAPACITY, REPLAY_CHUNK, REPLAY_INSTALLS, REPLAY_REQUESTS};
use crate::stats::{median, Outcome};
use crate::trace::{SpanId, Tracer};

/// Runs `f`, under a span named `name` when tracing.
fn timed<T>(
    tr: &mut Option<(&mut Tracer, SpanId)>,
    name: &'static str,
    items: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some((t, parent)) => {
            let s = t.open(name, Some(*parent));
            let v = f();
            t.close(s, items);
            v
        }
        None => f(),
    }
}

/// Serves one QueryBatch frame the way the daemon does (decode, pin the
/// shard, cache lookups, walks, inserts of misses, encode), plus the
/// client's decode of the answer. Every pattern is walked, hit or miss, so
/// the walk is timed per pattern. Returns the answers and the misses.
fn serve_one(
    frame: &[u8],
    manager: &ShardManager,
    cache: &QueryCache,
    mut tr: Option<(&mut Tracer, SpanId)>,
) -> (Vec<f64>, u64) {
    let req = timed(&mut tr, "serve.wire.decode_request", 1, || decode_request(&frame[4..]));
    let Ok(Request::QueryBatch { shard, patterns }) = req else {
        unreachable!("replay sends QueryBatch")
    };
    let n = patterns.len() as u64;
    let snap = timed(&mut tr, "serve.shard.pin", 1, || manager.snapshot(shard))
        .expect("replayed shard is installed");
    let cached: Vec<Option<f64>> = timed(&mut tr, "serve.cache.lookup", n, || {
        patterns.iter().map(|p| cache.get(shard, snap.epoch, p)).collect()
    });
    let walked: Vec<f64> = timed(&mut tr, "private_count.walk", n, || {
        patterns.iter().map(|p| snap.synopsis.query(p)).collect()
    });
    let misses = cached.iter().filter(|c| c.is_none()).count() as u64;
    timed(&mut tr, "serve.cache.insert", misses, || {
        for ((p, c), &w) in patterns.iter().zip(&cached).zip(&walked) {
            if c.is_none() {
                cache.insert(shard, snap.epoch, p, w);
            }
        }
    });
    let values: Vec<f64> = cached.iter().zip(&walked).map(|(c, &w)| c.unwrap_or(w)).collect();
    let resp = timed(&mut tr, "serve.wire.encode_response", 1, || {
        encode_response(&Response::QueryBatch { values })
    });
    match timed(&mut tr, "serve.wire.decode_response", 1, || decode_response(&resp[4..])) {
        Ok(Response::QueryBatch { values }) => (values, misses),
        other => unreachable!("replay got {other:?}"),
    }
}

/// Serves `requests` in order, untraced; returns the wall time in seconds.
fn replay_plain(requests: &[Request], manager: &ShardManager, cache: &QueryCache) -> f64 {
    let t0 = Instant::now();
    for req in requests {
        let frame = encode_request(req);
        std::hint::black_box(serve_one(&frame, manager, cache, None));
    }
    t0.elapsed().as_secs_f64()
}

/// Serves `requests` in order under one `serve.request` span each, keeping
/// the answers and misses in `served`; returns the wall time in seconds.
fn replay_traced(
    requests: &[Request],
    manager: &ShardManager,
    cache: &QueryCache,
    tr: &mut Tracer,
    served: &mut Vec<(Vec<f64>, u64)>,
) -> f64 {
    let t0 = Instant::now();
    for req in requests {
        let root = tr.open("serve.request", None);
        let s = tr.open("serve.wire.encode_request", Some(root));
        let frame = encode_request(req);
        tr.close(s, 1);
        served.push(serve_one(&frame, manager, cache, Some((&mut *tr, root))));
        tr.close(root, BATCH as u64);
    }
    t0.elapsed().as_secs_f64()
}

/// Replays the first [`REPLAY_REQUESTS`] requests of a step's stream
/// against `shards` (id, v2 bytes) untraced and traced, each side with a
/// cache of its own of the daemon's capacity, in chunks of
/// [`REPLAY_CHUNK`] requests whose order alternates (untraced first, then
/// traced first). Answers are checked after the timing. Sets the
/// query-path per-layer metrics and returns the median replayed service
/// time per request (ns) and the trace overhead (median over chunks of
/// traced / untraced − 1).
pub fn replay_reads(
    traffic: &Traffic,
    shards: &[(u32, Arc<[u8]>)],
    stream_seed: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (f64, f64) {
    let manager = ShardManager::new();
    for (id, bytes) in shards {
        manager.load_snapshot_shared(*id, Arc::clone(bytes)).expect("replay snapshot decodes");
    }
    let mut gen = StreamGen::new(traffic, stream_seed);
    let descs: Vec<_> = (0..REPLAY_REQUESTS).map(|_| gen.next()).collect();
    let requests: Vec<Request> = descs.iter().map(|d| traffic_request(traffic, d)).collect();

    let (plain_cache, traced_cache) =
        (QueryCache::new(CACHE_CAPACITY), QueryCache::new(CACHE_CAPACITY));
    let mut served = Vec::with_capacity(requests.len());
    let mut overheads = Vec::new();
    for (c, chunk) in requests.chunks(REPLAY_CHUNK).enumerate() {
        let (plain, traced) = if c % 2 == 0 {
            let plain = replay_plain(chunk, &manager, &plain_cache);
            (plain, replay_traced(chunk, &manager, &traced_cache, tr, &mut served))
        } else {
            let traced = replay_traced(chunk, &manager, &traced_cache, tr, &mut served);
            (replay_plain(chunk, &manager, &plain_cache), traced)
        };
        overheads.push(traced / plain - 1.0);
    }
    let mut hits = 0u64;
    for ((values, misses), desc) in served.iter().zip(&descs) {
        hits += BATCH as u64 - misses;
        out.check(answers_match(traffic, desc, values), || "replayed answer differs".into());
    }

    let per_req = |name: &str| median(&tr.durations(name));
    let per_pattern = |name: &str| per_req(name) / BATCH as f64;
    out.set("serve.wire.encode_request_ns", per_req("serve.wire.encode_request"));
    out.set("serve.wire.decode_request_ns", per_req("serve.wire.decode_request"));
    out.set("serve.shard.pin_ns", per_req("serve.shard.pin"));
    out.set("serve.cache.lookup_ns", per_pattern("serve.cache.lookup"));
    out.set("serve.cache.hit_ratio", hits as f64 / (BATCH * requests.len()) as f64);
    out.set("private_count.walk_ns", per_pattern("private_count.walk"));
    out.set("serve.wire.encode_response_ns", per_req("serve.wire.encode_response"));
    out.set("serve.wire.decode_response_ns", per_req("serve.wire.decode_response"));

    // Server-side service time of each request: what the daemon runs for a
    // frame, walking only the misses.
    let durs = |name: &str| tr.durations(name);
    let (dec, pin, look, walk, ins, enc) = (
        durs("serve.wire.decode_request"),
        durs("serve.shard.pin"),
        durs("serve.cache.lookup"),
        durs("private_count.walk"),
        durs("serve.cache.insert"),
        durs("serve.wire.encode_response"),
    );
    let misses = tr.items("serve.cache.insert");
    let service: Vec<f64> = (0..dec.len())
        .map(|i| dec[i] + pin[i] + look[i] + walk[i] * misses[i] / BATCH as f64 + ins[i] + enc[i])
        .collect();
    (median(&service), median(&overheads))
}

/// Replays installs of `items` (cycled, [`REPLAY_INSTALLS`] in all) through
/// the calls the daemon makes: wire decode, shared decode and validation,
/// persist into a scratch snapshot store (fsync included), shard swap.
pub fn replay_installs(
    items: &[InstallItem],
    store_dir: &std::path::Path,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let _ = std::fs::remove_dir_all(store_dir);
    let store = match SnapshotStore::open(store_dir, 4) {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("replay store: {e}"));
            return;
        }
    };
    let manager = ShardManager::new();
    let mut accel = Vec::new();
    for i in 0..REPLAY_INSTALLS {
        let item = &items[i % items.len()];
        let s = tr.open("serve.wire.decode_load_snapshot", None);
        let req = decode_request(&item.frame[4..]);
        tr.close(s, item.frame.len() as u64);
        let Ok(Request::LoadSnapshot { shard, snapshot }) = req else {
            out.check(false, || "replayed install frame does not decode".into());
            continue;
        };
        let s = tr.open("private_count.decode_shared", None);
        let decoded = FrozenSynopsis::from_bytes_shared(Arc::clone(&snapshot));
        tr.close(s, snapshot.len() as u64);
        let Ok(synopsis) = decoded else {
            out.check(false, || "replayed snapshot does not decode".into());
            continue;
        };
        accel.push(synopsis.accel_memory_bytes() as f64);
        let s = tr.open("serve.store.persist", None);
        let persisted = store.persist(shard, &snapshot);
        tr.close(s, snapshot.len() as u64);
        out.check(persisted.is_ok(), || format!("replayed persist: {persisted:?}"));
        let s = tr.open("serve.shard.swap", None);
        manager.install(shard, synopsis, snapshot.len());
        tr.close(s, 1);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(store_dir);
    out.set(
        "serve.wire.decode_load_snapshot_ms",
        median(&tr.durations("serve.wire.decode_load_snapshot")) / 1e6,
    );
    out.set(
        "private_count.decode_shared_ms",
        median(&tr.durations("private_count.decode_shared")) / 1e6,
    );
    out.set("private_count.accel_bytes", median(&accel));
    out.set("serve.store.persist_ms", median(&tr.durations("serve.store.persist")) / 1e6);
    out.set("serve.shard.swap_us", median(&tr.durations("serve.shard.swap")) / 1e3);
}
