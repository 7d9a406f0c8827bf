//! The repository benchmark. One run measures one workload for a given
//! seed and prints, as the last line of standard output, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-read --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Every workload releases corpora, installs snapshots into an in-process
//! daemon and reads them back over loopback; the workload decides the data
//! and which of the three dominates (see `perfbench/README.md`).

mod daemon;
mod release;
mod replay;
mod spec;
mod stats;
mod trace;
mod vocab;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dpsc_dpcore::stream::derive_stream;
use dpsc_private_count::FrozenSynopsis;
use dpsc_strkit::alphabet::Database;
use dpsc_strkit::trie::Trie;
use rand::rngs::StdRng;
use rand::SeedableRng;

use daemon::{
    Daemon, InstallItem, InstallPlan, Load, PhaseOut, ReadShard, Step, TargetReads, Traffic,
};
use release::{
    build_rng, corpus_rng, make_corpus, read_patterns, release, release_traced, Released,
};
use spec::*;
use stats::{median, peak_rss_mib, quantile, windowed_quantile, Outcome};
use trace::Tracer;

/// Deliberate faults, for the benchmark's own tests: each must make the
/// run report `correct: false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Corrupt {
    /// Flip one bit of the most frequently read expected answer.
    Answer,
    /// Flip one bit of the first recorded release digest.
    Digest,
    /// Flip one bit of every traced release's digest (traced runs).
    TracedDigest,
    /// Flip one bit of every expected answer of install snapshot A
    /// (serve-install), so batches served from A match neither snapshot.
    TargetA,
    /// The same for snapshot B.
    TargetB,
    /// Count one pattern more than the generator sent.
    PatternCount,
}

impl Corrupt {
    const ALL: [(&'static str, Corrupt); 6] = [
        ("answer", Corrupt::Answer),
        ("digest", Corrupt::Digest),
        ("traced-digest", Corrupt::TracedDigest),
        ("target-a", Corrupt::TargetA),
        ("target-b", Corrupt::TargetB),
        ("pattern-count", Corrupt::PatternCount),
    ];
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One set-up instead of several (the benchmark's own tests).
    short: bool,
    corrupt: Option<Corrupt>,
    /// Measure one connection's closed-loop capacity instead of a workload.
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ServeRead,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        short: false,
        corrupt: None,
        calibrate: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--short" => args.short = true,
            "--calibrate" => args.calibrate = true,
            "--corrupt" => {
                let v = value()?;
                let found = Corrupt::ALL.iter().find(|(name, _)| *name == v);
                args.corrupt = Some(found.ok_or(format!("unknown --corrupt fault {v}"))?.1);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    match workload {
        Some(w) => args.workload = w,
        None if args.calibrate => {}
        None => return Err("--workload is required".into()),
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.calibrate {
        std::process::exit(match calibrate(args.seed, args.seconds) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench: calibration failed: {e}");
                1
            }
        });
    }
    let (end_to_end, per_layer) = match vocab::load("BENCHMARK.json") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: the metric list: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let mut tracer = args.trace.then(Tracer::new);
    let result = match args.workload.release_corpus() {
        Some(corpus) => run_release(&args, corpus, &mut out, tracer.as_mut()),
        None => run_serve(&args, &mut out, tracer.as_mut()),
    };
    if let Err(e) = result {
        out.check(false, || format!("run aborted: {e}"));
    }
    out.set("peak_rss_mb", peak_rss_mib());
    out.set("failed_frac", out.failed as f64 / out.attempted.max(1) as f64);
    if let Some(tr) = &tracer {
        let path = PathBuf::from(format!(
            ".perfbench/spans-{}-seed{}.csv",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = tr.write_csv(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        } else {
            eprintln!("spans: {}", path.display());
        }
    }
    let line = out.result_line(if args.trace { &per_layer } else { &end_to_end });
    for p in &out.problems {
        eprintln!("FAILED: {p}");
    }
    println!("{line}");
}

/// Scratch directories live in the checkout, named per process.
fn scratch_dir(what: &str) -> PathBuf {
    PathBuf::from(format!(".perfbench/{what}-{}", std::process::id()))
}

/// A daemon phase's steps: the three open-loop read steps at the frozen
/// rates, then a saturation step, then (unless installs run beside the
/// reads throughout) an install step. `secs` gives each kind's length.
fn phase_steps(rate_secs: f64, saturate_secs: f64, install_secs: Option<f64>) -> Vec<Step> {
    let beside = install_secs.is_none();
    let mut steps: Vec<Step> = RATES
        .iter()
        .map(|&(name, rate)| Step {
            name,
            load: Load::Rate(rate),
            secs: rate_secs,
            installs: beside,
        })
        .collect();
    steps.push(Step {
        name: "saturate",
        load: Load::Window(SATURATION_WINDOW),
        secs: saturate_secs,
        installs: beside,
    });
    if let Some(secs) = install_secs {
        steps.push(Step { name: "install", load: Load::None, secs, installs: true });
    }
    steps
}

/// Median of repeated set-ups: at least [`SETUPS`] (one when short), and
/// more while they are cheap, so a set-up of a few milliseconds still
/// reports a steady median.
fn setups<T>(
    args: &Args,
    mut once: impl FnMut(bool) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let (min, max) = if args.short || args.trace { (1, 1) } else { (SETUPS, 25) };
    let mut times = Vec::new();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let last = times.len() + 1 >= max
            || (times.len() + 1 >= min && started.elapsed().as_secs_f64() > 0.3);
        let value = once(last)?;
        times.push(t0.elapsed().as_secs_f64());
        if last {
            return Ok((value, median(&times)));
        }
    }
}

/// A release workload. Set-up: generate the corpus, release it with build
/// seed A, start the daemon and ship A to shard 0. Timed: release the
/// corpus repeatedly (alternating build seeds A and B, each release's
/// digest checked against the first of its seed), then serve the releases
/// from shard 0: the read steps, the saturation step and an install step
/// alternating B and A.
fn run_release(
    args: &Args,
    corpus: &Corpus,
    out: &mut Outcome,
    mut tr: Option<&mut Tracer>,
) -> Result<(), String> {
    let mut digests: [Option<u64>; 2] = [None, None];
    let (state, setup_s) = setups(args, |last| {
        let db = make_corpus(corpus, &mut corpus_rng(corpus, args.seed));
        let patterns = read_patterns(&db, args.seed, corpus.tag);
        let a = release(corpus, &db, build_rng(corpus, args.seed, 0))
            .map_err(|e| format!("release of {}: {e}", corpus.name))?;
        check_digest(out, &mut digests[0], a.digest, corpus.name, args.corrupt);
        let nodes = a.structure.node_count() as u64;
        let mut d = Daemon::start(None)?;
        d.ship(0, &a.bytes.into(), nodes)?;
        if !last {
            d.stop();
            return Ok(None);
        }
        Ok(Some((db, patterns, d)))
    })?;
    let (db, patterns, mut d) = state.expect("the last set-up keeps its daemon");
    out.set("setup_s", setup_s);

    let loop_end =
        Instant::now() + std::time::Duration::from_secs_f64(args.seconds * RELEASE_LOOP_FRAC);
    let mut kept: [Option<Released>; 2] = [None, None];
    let (mut secs, mut traced_secs) = (Vec::new(), Vec::new());
    let mut i = 0u64;
    while i < 2 || Instant::now() < loop_end {
        let k = i % 2;
        let rng = build_rng(corpus, args.seed, k);
        // A traced run alternates which of the pair goes first, so neither
        // side always inherits the other's freed memory.
        let traced_first = i % 4 >= 2;
        let mut traced = None;
        if let (Some(tr), true) = (tr.as_deref_mut(), traced_first) {
            traced = Some(
                release_traced(corpus, &db, rng.clone(), tr)
                    .map_err(|e| format!("traced release: {e}"))?,
            );
        }
        let r = release(corpus, &db, rng.clone())
            .map_err(|e| format!("release of {}: {e}", corpus.name))?;
        check_digest(out, &mut digests[k as usize], r.digest, corpus.name, args.corrupt);
        secs.push(r.secs);
        if let (Some(tr), false) = (tr.as_deref_mut(), traced_first) {
            traced = Some(
                release_traced(corpus, &db, rng.clone(), tr)
                    .map_err(|e| format!("traced release: {e}"))?,
            );
        }
        if let Some(t) = traced {
            check_traced_digest(out, &t, &r, corpus.name, args.corrupt);
            traced_secs.push(t.secs);
        }
        kept[k as usize] = Some(r);
        i += 1;
    }
    let [Some(a), Some(b)] = kept else { unreachable!("at least two releases ran") };
    eprintln!(
        "{}: {} releases, median {:.4} s, corpus {} B, snapshot {} B, {} nodes, digests {:016x} {:016x}",
        corpus.name,
        secs.len(),
        median(&secs),
        db.total_len(),
        a.bytes.len(),
        a.structure.node_count(),
        a.digest,
        b.digest
    );
    out.set("release_s", median(&secs));
    out.set("snapshot_ratio", a.bytes.len() as f64 / db.total_len() as f64);
    if let Some(tr) = tr.as_deref_mut() {
        release_layer_metrics(tr, out, 1);
        out.set("trace_overhead_frac", median(&traced_secs) / median(&secs) - 1.0);
    }

    // Serve the release: shard 0 holds A; reads, then installs of B and A.
    let bytes: [Arc<[u8]>; 2] = [a.bytes.clone().into(), b.bytes.clone().into()];
    let nodes = [a.structure.node_count() as u64, b.structure.node_count() as u64];
    let frozen = FrozenSynopsis::from_bytes(&a.bytes).map_err(|e| format!("decode A: {e:?}"))?;
    let mut shard = ReadShard::new(0, patterns, &frozen);
    corrupt_answer(&mut shard, args.corrupt);
    let traffic = Traffic { shards: vec![shard], target: None };
    let plan = InstallPlan {
        items: vec![
            InstallItem::new(0, &bytes[1], nodes[1], 1),
            InstallItem::new(0, &bytes[0], nodes[0], 0),
        ],
        rollbacks: false,
        initial: None,
        period_ms: INSTALL_PERIOD_ALONE_MS,
    };
    let rest = args.seconds * (1.0 - RELEASE_LOOP_FRAC);
    let steps = phase_steps(rest * 0.12, rest * 0.34, Some(rest * 0.3));
    let phase = d.run(&traffic, &plan, &steps, args.seed, out)?;
    d.stop();
    check_patterns(&phase, out, args.corrupt);
    serve_metrics(&phase, out);
    if let Some(tr) = tr {
        serve_layer_metrics(
            &traffic,
            &[(0, bytes[0].clone())],
            &plan,
            &phase,
            args.seed,
            tr,
            out,
            false,
        );
    }
    Ok(())
}

/// A serve workload. serve-read: the four shards, the read steps, then an
/// install step re-shipping dna-small. serve-install: the same shards plus a
/// fifth holding `dna-release` snapshot A, a snapshot store, and every read
/// step run while installs alternate B and A with periodic rollbacks.
fn run_serve(args: &Args, out: &mut Outcome, mut tr: Option<&mut Tracer>) -> Result<(), String> {
    let install = args.workload == Workload::ServeInstall;
    let mut release_total = Vec::new();
    let mut digests: Vec<Option<u64>> = vec![None; SERVE_SHARDS.len() + 2];
    let mut sizes = (0usize, 0usize);
    let (state, setup_s) = setups(args, |last| {
        let t0 = Instant::now();
        let mut release_s = 0.0;
        let mut shards = Vec::new();
        let mut ship = Vec::new();
        sizes = (0, 0);
        for (i, corpus) in SERVE_SHARDS.iter().enumerate() {
            let (db, rng) = serve_shard_corpus(i, corpus);
            let r =
                release_checked(args, corpus, &db, rng, &mut digests[i], out, tr.as_deref_mut())?;
            release_s += r.secs;
            sizes.0 += r.bytes.len();
            sizes.1 += db.total_len();
            eprintln!(
                "  {}: corpus {} B, {} nodes, snapshot {} B, release {:.3} s, digest {:016x}",
                corpus.name,
                db.total_len(),
                r.structure.node_count(),
                r.bytes.len(),
                r.secs,
                r.digest
            );
            let frozen =
                FrozenSynopsis::from_bytes(&r.bytes).map_err(|e| format!("decode: {e:?}"))?;
            shards.push(ReadShard::new(
                i as u32,
                read_patterns(&db, args.seed, corpus.tag),
                &frozen,
            ));
            ship.push((i as u32, Arc::<[u8]>::from(r.bytes), r.structure.node_count() as u64));
        }
        let mut target = None;
        if install {
            let db = make_corpus(&DNA_RELEASE, &mut corpus_rng(&DNA_RELEASE, SERVE_SHARD_SEED));
            let n = SERVE_SHARDS.len();
            let mut ab = Vec::new();
            for k in 0..2 {
                let rng = build_rng(&DNA_RELEASE, SERVE_SHARD_SEED, k);
                let r = release_checked(
                    args,
                    &DNA_RELEASE,
                    &db,
                    rng,
                    &mut digests[n + k as usize],
                    out,
                    tr.as_deref_mut(),
                )?;
                release_s += r.secs;
                sizes.0 += r.bytes.len();
                sizes.1 += db.total_len();
                ab.push(r);
            }
            let pool = present_patterns(ab[0].structure.trie());
            eprintln!(
                "  {} A/B: corpus {} B, {}/{} nodes, snapshots {}/{} B, read pool {} patterns, \
                 digests {:016x} {:016x}",
                DNA_RELEASE.name,
                db.total_len(),
                ab[0].structure.node_count(),
                ab[1].structure.node_count(),
                ab[0].bytes.len(),
                ab[1].bytes.len(),
                pool.len(),
                ab[0].digest,
                ab[1].digest
            );
            if pool.len() < TARGET_POOL_OVER_CACHE * CACHE_CAPACITY {
                return Err(format!("install target has {} present patterns, too few", pool.len()));
            }
            let flip = |k: usize| {
                let corrupted = [Corrupt::TargetA, Corrupt::TargetB][k];
                (args.corrupt == Some(corrupted)) as u64
            };
            let answers = [0, 1].map(|k| {
                pool.iter().map(|p| ab[k].structure.query(p).to_bits() ^ flip(k)).collect()
            });
            let nodes = [0, 1].map(|k| ab[k].structure.node_count() as u64);
            let [a, b] = [0, 1].map(|k| Arc::<[u8]>::from(std::mem::take(&mut ab[k].bytes)));
            target = Some((TargetReads { id: n as u32, pool, answers }, [a, b], nodes));
        }
        release_total.push(release_s);
        let mut d = Daemon::start(install.then(|| scratch_dir("store")))?;
        for (id, bytes, nodes) in &ship {
            d.ship(*id, bytes, *nodes)?;
        }
        let initial = match &target {
            Some((t, snaps, nodes)) => Some((d.ship(t.id, &snaps[0], nodes[0])?, 0)),
            None => None,
        };
        eprintln!("setup: {:.3} s ({:.3} s releasing)", t0.elapsed().as_secs_f64(), release_s);
        if !last {
            d.stop();
            return Ok(None);
        }
        Ok(Some((d, shards, ship, target, initial)))
    })?;
    let (mut d, mut shards, ship, target, initial) =
        state.expect("the last set-up keeps its daemon");
    out.set("setup_s", setup_s);
    out.set("release_s", median(&release_total));
    out.set("snapshot_ratio", sizes.0 as f64 / sizes.1 as f64);
    if let Some(tr) = tr.as_deref_mut() {
        release_layer_metrics(tr, out, SERVE_SHARDS.len() + 2 * install as usize);
    }

    corrupt_answer(&mut shards[0], args.corrupt);
    let (traffic, plan, steps, replay_shards) = match target {
        None => {
            // Re-ship one shard, the largest: shards of four sizes would
            // make the median install flip between two of them.
            let (id, bytes, nodes) = &ship[0];
            let items = vec![InstallItem::new(*id, bytes, *nodes, 0)];
            let plan = InstallPlan {
                items,
                rollbacks: false,
                initial: None,
                period_ms: INSTALL_PERIOD_ALONE_MS,
            };
            let steps =
                phase_steps(args.seconds * 0.2, args.seconds * 0.25, Some(args.seconds * 0.15));
            let replay: Vec<_> = ship.iter().map(|(id, b, _)| (*id, b.clone())).collect();
            (Traffic { shards, target: None }, plan, steps, replay)
        }
        Some((t, snaps, nodes)) => {
            let id = t.id;
            let items = vec![
                InstallItem::new(id, &snaps[1], nodes[1], 1),
                InstallItem::new(id, &snaps[0], nodes[0], 0),
            ];
            let plan = InstallPlan {
                items,
                rollbacks: true,
                initial,
                period_ms: INSTALL_PERIOD_BESIDE_READS_MS,
            };
            let steps = phase_steps(args.seconds * 0.2, args.seconds * 0.4, None);
            let mut replay: Vec<_> = ship.iter().map(|(id, b, _)| (*id, b.clone())).collect();
            replay.push((id, snaps[0].clone()));
            (Traffic { shards, target: Some(t) }, plan, steps, replay)
        }
    };
    let phase = d.run(&traffic, &plan, &steps, args.seed, out)?;
    d.stop();
    check_patterns(&phase, out, args.corrupt);
    serve_metrics(&phase, out);
    if let Some(tr) = tr {
        serve_layer_metrics(&traffic, &replay_shards, &plan, &phase, args.seed, tr, out, true);
    }
    Ok(())
}

/// Serve shard `i` as `serve_throughput` builds it: corpus and build draw
/// from one stream of its base seed, whatever `--seed` is. Returns the
/// corpus and the stream, positioned for the build.
fn serve_shard_corpus(i: usize, corpus: &Corpus) -> (Database, StdRng) {
    let mut rng = StdRng::seed_from_u64(derive_stream(SERVE_SHARD_SEED, i as u64 + 1));
    let db = make_corpus(corpus, &mut rng);
    (db, rng)
}

/// One release of a serve workload's corpus, its digest checked against
/// the first set-up's; traced runs also check that the decomposed release
/// reproduces it.
fn release_checked(
    args: &Args,
    corpus: &Corpus,
    db: &Database,
    rng: StdRng,
    digest: &mut Option<u64>,
    out: &mut Outcome,
    tr: Option<&mut Tracer>,
) -> Result<Released, String> {
    let r =
        release(corpus, db, rng.clone()).map_err(|e| format!("release of {}: {e}", corpus.name))?;
    check_digest(out, digest, r.digest, corpus.name, args.corrupt);
    if let Some(tr) = tr {
        let t = release_traced(corpus, db, rng, tr).map_err(|e| format!("traced release: {e}"))?;
        check_traced_digest(out, &t, &r, corpus.name, args.corrupt);
    }
    Ok(r)
}

/// The traced release must reproduce `build_pure`'s snapshot.
fn check_traced_digest(
    out: &mut Outcome,
    traced: &Released,
    untraced: &Released,
    name: &str,
    corrupt: Option<Corrupt>,
) {
    let digest = traced.digest ^ (corrupt == Some(Corrupt::TracedDigest)) as u64;
    out.check(digest == untraced.digest, || {
        format!(
            "{name}: traced release digest {digest:016x} != build_pure's {:016x}",
            untraced.digest
        )
    });
}

/// The daemon's `patterns_total` grew by exactly the patterns the generator
/// sent.
fn check_patterns(phase: &PhaseOut, out: &mut Outcome, corrupt: Option<Corrupt>) {
    let sent = phase.patterns_sent + (corrupt == Some(Corrupt::PatternCount)) as u64;
    let counted = phase.patterns_counted;
    out.check(counted == sent, || {
        format!("daemon patterns_total grew by {counted}, generator sent {sent}")
    });
}

fn check_digest(
    out: &mut Outcome,
    first: &mut Option<u64>,
    digest: u64,
    name: &str,
    corrupt: Option<Corrupt>,
) {
    match first {
        None => *first = Some(if corrupt == Some(Corrupt::Digest) { digest ^ 1 } else { digest }),
        Some(d) => {
            let d = *d;
            out.check(d == digest, || {
                format!("{name}: release digest {digest:016x}, first was {d:016x}")
            });
        }
    }
}

fn corrupt_answer(shard: &mut ReadShard, corrupt: Option<Corrupt>) {
    if corrupt == Some(Corrupt::Answer) {
        shard.answers[0] ^= 1;
    }
}

/// Every string the released trie stores (the root excluded).
fn present_patterns(trie: &Trie<f64>) -> Vec<Vec<u8>> {
    trie.dfs().filter(|&n| n != Trie::<f64>::ROOT).map(|n| trie.string_of(n)).collect()
}

/// Read and install metrics of a daemon phase: latencies of the open-loop
/// steps, throughput of the saturation step, and installs outside it.
fn serve_metrics(phase: &PhaseOut, out: &mut Outcome) {
    let mut saturate = None;
    for (i, s) in phase.steps.iter().enumerate() {
        let us = |q| quantile(&s.lat_ns, q) / 1e3;
        eprintln!(
            "step {}: sent {} completed {} backlog_end {} latency us p50 {:.1} p90 {:.1} p99 {:.1} \
             p99.9 {:.1}, lag p50 {:.1} us, {:.0} requests/s",
            s.name,
            s.sent,
            s.completed,
            s.backlog_end,
            us(0.5),
            us(0.9),
            us(0.99),
            us(0.999),
            median(&s.lag_ns) / 1e3,
            median(&s.window_rps)
        );
        if s.name == "saturate" {
            saturate = Some(i);
            out.set("read_rps", median(&s.window_rps));
        } else if !s.lat_ns.is_empty() {
            let p50 = windowed_quantile(&s.lat_ns, 0.5, READ_WINDOW) / 1e3;
            out.set(&format!("read_p50_us.{}", s.name), p50);
            let p99 = windowed_quantile(&s.lat_ns, 0.99, READ_WINDOW) / 1e3;
            out.set(&format!("read_p99_us.{}", s.name), p99);
        }
    }
    let installs: Vec<f64> = phase
        .install_ns
        .iter()
        .filter(|&&(step, _)| Some(step) != saturate)
        .map(|&(_, ns)| ns)
        .collect();
    eprintln!(
        "installs: {} (+{} during saturation), p50 {:.3} ms, p90 {:.3} ms",
        installs.len(),
        phase.install_ns.len() - installs.len(),
        quantile(&installs, 0.5) / 1e6,
        quantile(&installs, 0.9) / 1e6
    );
    out.set("install_p50_ms", windowed_quantile(&installs, 0.5, INSTALL_WINDOW) / 1e6);
    out.set("install_p90_ms", windowed_quantile(&installs, 0.9, INSTALL_WINDOW) / 1e6);
}

/// Per-layer metrics of the traced releases: medians over releases of the
/// per-call spans, summed over the `per_release` releases that make one
/// release of the workload's data (a serve set-up releases every shard).
fn release_layer_metrics(tr: &Tracer, out: &mut Outcome, per_release: usize) {
    let grouped = |v: Vec<f64>| -> f64 {
        let sums: Vec<f64> = v.chunks(per_release).map(|c| c.iter().sum()).collect();
        median(&sums)
    };
    let ms = |name: &str| grouped(tr.durations(name)) / 1e6;
    for (metric, span) in [
        ("textindex.corpus_index_ms", "textindex.corpus_index"),
        ("strkit.suffix_array_ms", "strkit.suffix_array"),
        ("strkit.lcp_ms", "strkit.lcp"),
        ("strkit.rolling_hash_ms", "strkit.rolling_hash"),
        ("textindex.doc_counter_ms", "textindex.doc_counter"),
        ("private_count.candidates_ms", "private_count.candidates"),
        ("private_count.count_trie_ms", "private_count.count_trie"),
        ("private_count.noise_prune_ms", "private_count.noise_prune"),
        ("private_count.noise_ms", "private_count.noise"),
        ("private_count.prune_ms", "private_count.prune"),
        ("private_count.freeze_ms", "private_count.freeze"),
        ("private_count.encode_v2_ms", "private_count.encode_v2"),
    ] {
        out.set(metric, ms(span));
    }
    out.set("private_count.candidates", grouped(tr.items("private_count.candidates")));
    out.set("private_count.trie_nodes", grouped(tr.items("private_count.freeze")));
    out.set("private_count.snapshot_bytes", grouped(tr.items("private_count.encode_v2")));
    let layers = [
        "textindex.corpus_index",
        "private_count.candidates",
        "private_count.count_trie",
        "private_count.noise_prune",
        "private_count.freeze",
        "private_count.encode_v2",
    ];
    let unattributed: Vec<f64> = tr
        .ids("release")
        .into_iter()
        .map(|id| 1.0 - layers.iter().map(|l| tr.child_ns(id, l)).sum::<f64>() / tr.duration(id))
        .collect();
    out.set("release.unattributed_frac", median(&unattributed));
}

/// Per-layer metrics of the daemon phase: the in-process replays, the
/// daemon's own counters over the read steps, and the generator's.
#[allow(clippy::too_many_arguments)]
fn serve_layer_metrics(
    traffic: &Traffic,
    shards: &[(u32, Arc<[u8]>)],
    plan: &InstallPlan,
    phase: &PhaseOut,
    seed: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
    overhead_from_replay: bool,
) {
    let mid = RATES.iter().position(|&(n, _)| n == "mid").expect("mid rate");
    let (service_ns, overhead) =
        replay::replay_reads(traffic, shards, derive_stream(seed, 0x300 + mid as u64), tr, out);
    if overhead_from_replay {
        out.set("trace_overhead_frac", overhead);
    }
    let lo_p50_ns = median(&phase.steps[0].lat_ns);
    out.set("serve.outside_server_us", (lo_p50_ns - service_ns) / 1e3);
    replay::replay_installs(&plan.items, &scratch_dir("replay-store"), tr, out);

    let reads = RATES.len();
    let (r0, r1) = (&phase.reports[0], &phase.reports[reads]);
    let busy = (r1.loop_busy_ns - r0.loop_busy_ns) as f64;
    let wait = (r1.loop_wait_ns - r0.loop_wait_ns) as f64;
    out.set("serve.loop_busy_s", busy / 1e9);
    out.set("serve.loop_wait_s", wait / 1e9);
    out.set("serve.loop_utilization", busy / (busy + wait).max(1.0));
    out.set("serve.cache_hits", (r1.cache.hits - r0.cache.hits) as f64);
    out.set("serve.cache_misses", (r1.cache.misses - r0.cache.misses) as f64);
    out.set("serve.overloaded_total", (r1.overloaded_total - r0.overloaded_total) as f64);
    out.set("serve.op_query_batch_p50_ns", r1.op_latency.query_batch.p50_ns);
    out.set("serve.op_query_batch_p99_ns", r1.op_latency.query_batch.p99_ns);
    let last = phase.reports.last().expect("report");
    out.set("serve.op_load_snapshot_p50_ns", last.op_latency.load_snapshot.p50_ns);

    let read_steps = &phase.steps[..reads];
    let lag: Vec<f64> = read_steps.iter().flat_map(|s| s.lag_ns.iter().copied()).collect();
    out.set("gen.lag_p50_us", quantile(&lag, 0.5) / 1e3);
    out.set("gen.lag_p99_us", quantile(&lag, 0.99) / 1e3);
    out.set("gen.sent", read_steps.iter().map(|s| s.sent).sum::<u64>() as f64);
    out.set("gen.completed", read_steps.iter().map(|s| s.completed).sum::<u64>() as f64);
    out.set("gen.backlog_end", read_steps.iter().map(|s| s.backlog_end).max().unwrap_or(0) as f64);
}

/// Prints one connection's closed-loop QueryBatch capacity on the
/// serve-read shards: the basis of the frozen [`RATES`].
fn calibrate(seed: u64, seconds: f64) -> Result<(), String> {
    let mut d = Daemon::start(None)?;
    let mut shards = Vec::new();
    for (i, corpus) in SERVE_SHARDS.iter().enumerate() {
        let (db, rng) = serve_shard_corpus(i, corpus);
        let r = release(corpus, &db, rng)?;
        let frozen = FrozenSynopsis::from_bytes(&r.bytes).map_err(|e| format!("{e:?}"))?;
        shards.push(ReadShard::new(i as u32, read_patterns(&db, seed, corpus.tag), &frozen));
        d.ship(i as u32, &r.bytes.into(), r.structure.node_count() as u64)?;
    }
    let traffic = Traffic { shards, target: None };
    let (rps, rtt_us) = daemon::closed_loop_capacity(&mut d, &traffic, seconds, seed)?;
    d.stop();
    println!("closed-loop capacity: {rps:.0} requests/s, median round trip {rtt_us:.1} us");
    for (name, frac) in [("lo", 0.25), ("mid", 0.5), ("hi", 0.8)] {
        println!("{name}: {:.0} requests/s", rps * frac);
    }
    Ok(())
}
