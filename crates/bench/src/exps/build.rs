//! Experiment `build_throughput`: the build-path perf baseline.
//!
//! Times the three build phases — Step 1 (candidate doubling), Step 2
//! (exact-count trie), Steps 3–6 (heavy-path noise + prune) — plus the
//! end-to-end `build_pure`, across corpus sizes and worker-thread counts,
//! and writes `results/BENCH_build.json`, the repo's perf-trajectory
//! artifact that CI gates regressions against. Scenarios span three
//! workload families: `dna_corpus` (σ = 4 toys at several sizes),
//! `text_corpus` (σ = 27 natural-language stand-in) and `log_corpus`
//! (σ = 76 access-log stand-in) — the latter two at ≥ 1 MB corpus size so
//! the build path is measured on realistically shaped inputs, not just
//! 4-letter toys.
//!
//! ## Determinism contract
//! Everything in the artifact except the `*_ns` timing fields is
//! byte-deterministic across runs with the same seed **and across thread
//! counts**: scenario definitions, candidate/trie/pruned sizes, level
//! sizes, and the FNV-1a digest of the built structure's canonical
//! `FrozenSynopsis` encoding. The experiment *executes* the thread-count
//! invariant (it builds at 1/4/8 threads and asserts digest equality)
//! rather than assuming it; `tests/build_determinism.rs` pins the same
//! invariant in the test suite. Timings are measurements (min over
//! repeats) and are the only fields that vary run to run.
//! `index_heap_bytes` is the corpus index's heap footprint
//! (`CorpusIndex::heap_bytes`), which the gate treats as a ceiling.
//!
//! `DPSC_BUILD_FULL=1` adds the `dna-flood` scenario — a noise-flooded
//! ~1M-node build exercising the Step 2/Steps 3–6 heavy regime — and more
//! repeats.

use std::time::Instant;

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_dpcore::stream::derive_stream as derive_seed;
use dpsc_private_count::candidates::{build_candidates_pure, CandidateParams};
use dpsc_private_count::codec::fnv1a;
use dpsc_private_count::pipeline::{build_count_trie, run_pipeline_on_trie, PipelineParams};
use dpsc_private_count::{build_pure_traced, BuildParams, CountMode, FrozenSynopsis, SpanRecorder};
use dpsc_textindex::CorpusIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::exps::common::Workload;
use crate::Table;

/// Where the raw perf artifact is written.
pub const BENCH_PATH: &str = "results/BENCH_build.json";

/// Base seed: corpus generation and every build seed derive from it.
const BASE_SEED: u64 = 0xB11D_BEAC;

/// Thread counts swept per scenario.
const THREADS: [usize; 3] = [1, 4, 8];

struct Scenario {
    name: &'static str,
    workload: Workload,
    n: usize,
    ell: usize,
    epsilon: f64,
    tau_frac: f64,
}

/// Tuned so the exact construction succeeds (no FAIL branch) at every
/// size while keeping multi-level candidate sets; see DESIGN.md §10.
/// The `text-1m`/`log-1m` rows are the ≥ 1 MB corpora ROADMAP item 5
/// asks for (multi-MB inputs with larger alphabets and longer documents).
const FAST: [Scenario; 5] = [
    Scenario {
        name: "dna-small",
        workload: Workload::Dna,
        n: 1024,
        ell: 64,
        epsilon: 20.0,
        tau_frac: 0.45,
    },
    Scenario {
        name: "dna-mid",
        workload: Workload::Dna,
        n: 2048,
        ell: 64,
        epsilon: 16.0,
        tau_frac: 0.35,
    },
    Scenario {
        name: "dna-large",
        workload: Workload::Dna,
        n: 4096,
        ell: 64,
        epsilon: 16.0,
        tau_frac: 0.30,
    },
    Scenario {
        name: "text-1m",
        workload: Workload::Text,
        n: 10624,
        ell: 97,
        epsilon: 16.0,
        tau_frac: 0.35,
    },
    Scenario {
        name: "log-1m",
        workload: Workload::Log,
        n: 36_000,
        ell: 30,
        epsilon: 16.0,
        tau_frac: 0.10,
    },
];

/// Full-tier extra: a noise-flooded (but non-FAIL) regime whose ~1M-node
/// trie shifts the cost into Steps 2–6.
const FLOOD: Scenario = Scenario {
    name: "dna-flood",
    workload: Workload::Dna,
    n: 1024,
    ell: 64,
    epsilon: 16.0,
    tau_frac: 0.48,
};

#[derive(Clone, Copy, Default)]
struct PhaseTimes {
    step1_ns: u128,
    step2_ns: u128,
    steps3_6_ns: u128,
    end_to_end_ns: u128,
    /// In-pipeline span durations from the `SpanRecorder` the traced
    /// end-to-end build carries — the same phase vocabulary the serve
    /// trace ring uses (`candidates`/`count_trie`/`noise`/`prune`).
    span_candidates_ns: u128,
    span_count_trie_ns: u128,
    span_noise_ns: u128,
    span_prune_ns: u128,
}

struct ScenarioResult {
    name: &'static str,
    workload: &'static str,
    n: usize,
    ell: usize,
    /// Total corpus size in bytes (`Database::total_len`).
    corpus_bytes: usize,
    /// Heap bytes of the corpus index (`CorpusIndex::heap_bytes`).
    index_heap_bytes: usize,
    epsilon: f64,
    tau: f64,
    candidates: usize,
    level_sizes: Vec<usize>,
    peak_trie_nodes: usize,
    pruned_nodes: usize,
    digest: u64,
    /// Min-over-repeats timings per entry of [`THREADS`].
    times: Vec<PhaseTimes>,
}

/// One timed build at a given thread count, mirroring `build_pure`'s
/// internal ε/3 split so the phase sum matches the end-to-end cost.
#[allow(clippy::type_complexity)]
fn run_once(
    idx: &CorpusIndex,
    sc: &Scenario,
    threads: usize,
    seed: u64,
) -> (PhaseTimes, usize, Vec<usize>, usize, usize, u64) {
    let tau = sc.tau_frac * sc.n as f64;
    let privacy = PrivacyParams::pure(sc.epsilon);
    let third = privacy.split_even(3);
    let mut t = PhaseTimes::default();

    let cand_params = CandidateParams {
        delta_clip: 1,
        privacy: third,
        beta: 0.1 / 3.0,
        tau_override: Some(tau),
        level_cap_override: None,
        threads,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let cands = build_candidates_pure(idx, &cand_params, &mut rng)
        .expect("benchmark regimes are tuned to avoid the FAIL branch");
    t.step1_ns = t0.elapsed().as_nanos();

    let t0 = Instant::now();
    let trie = build_count_trie(idx, &cands.strings, 1);
    t.step2_ns = t0.elapsed().as_nanos();

    let pipe = PipelineParams {
        delta_clip: 1,
        privacy_roots: third,
        privacy_diffs: third,
        beta: 0.2 / 3.0,
        gaussian: false,
        prune_override: Some(f64::NEG_INFINITY),
        threads,
    };
    let t0 = Instant::now();
    let out = run_pipeline_on_trie(&trie, sc.ell, &pipe, &mut rng);
    t.steps3_6_ns = t0.elapsed().as_nanos();

    let params = BuildParams::new(CountMode::Document, privacy, 0.1)
        .with_thresholds(tau, f64::NEG_INFINITY)
        .with_threads(threads);
    let mut rng = StdRng::seed_from_u64(seed);
    let rec = SpanRecorder::new();
    let t0 = Instant::now();
    let built =
        build_pure_traced(idx, &params, &mut rng, &rec).expect("same seed as the phase run");
    t.end_to_end_ns = t0.elapsed().as_nanos();
    let span = |name: &str| rec.dur_ns(name).unwrap_or(0) as u128;
    t.span_candidates_ns = span("candidates");
    t.span_count_trie_ns = span("count_trie");
    t.span_noise_ns = span("noise");
    t.span_prune_ns = span("prune");
    let digest = fnv1a(&FrozenSynopsis::freeze(&built).to_bytes());

    (t, cands.strings.len(), cands.level_sizes, trie.len(), out.trie.len(), digest)
}

fn run_scenario(sc: &Scenario, sc_idx: u64, repeats: usize) -> ScenarioResult {
    let mut rng = StdRng::seed_from_u64(derive_seed(BASE_SEED, sc_idx));
    let db = sc.workload.make_corpus(sc.n, sc.ell, &mut rng);
    let idx = CorpusIndex::build(&db);

    let mut result = ScenarioResult {
        name: sc.name,
        workload: sc.workload.as_str(),
        n: sc.n,
        ell: sc.ell,
        corpus_bytes: db.total_len(),
        index_heap_bytes: idx.heap_bytes(),
        epsilon: sc.epsilon,
        tau: sc.tau_frac * sc.n as f64,
        candidates: 0,
        level_sizes: Vec::new(),
        peak_trie_nodes: 0,
        pruned_nodes: 0,
        digest: 0,
        times: Vec::new(),
    };
    let mut reference_digest: Option<u64> = None;
    for &threads in &THREADS {
        let mut best = PhaseTimes::default();
        for rep in 0..repeats {
            // Same derived seed at every thread count — the digest
            // comparison below is exactly the determinism invariant.
            let seed = derive_seed(BASE_SEED, (sc_idx << 8) | rep as u64);
            let (t, n_cands, level_sizes, peak, pruned, digest) = run_once(&idx, sc, threads, seed);
            if rep == 0 {
                match reference_digest {
                    None => {
                        reference_digest = Some(digest);
                        result.candidates = n_cands;
                        result.level_sizes = level_sizes;
                        result.peak_trie_nodes = peak;
                        result.pruned_nodes = pruned;
                        result.digest = digest;
                    }
                    Some(d) => assert_eq!(
                        d, digest,
                        "{}: digest changed between thread counts — determinism broken",
                        sc.name
                    ),
                }
            }
            let keep = |best: u128, cur: u128| if best == 0 { cur } else { best.min(cur) };
            best.step1_ns = keep(best.step1_ns, t.step1_ns);
            best.step2_ns = keep(best.step2_ns, t.step2_ns);
            best.steps3_6_ns = keep(best.steps3_6_ns, t.steps3_6_ns);
            best.end_to_end_ns = keep(best.end_to_end_ns, t.end_to_end_ns);
            best.span_candidates_ns = keep(best.span_candidates_ns, t.span_candidates_ns);
            best.span_count_trie_ns = keep(best.span_count_trie_ns, t.span_count_trie_ns);
            best.span_noise_ns = keep(best.span_noise_ns, t.span_noise_ns);
            best.span_prune_ns = keep(best.span_prune_ns, t.span_prune_ns);
        }
        result.times.push(best);
    }
    result
}

fn to_json(results: &[ScenarioResult], tier: &str, repeats: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"dpsc-bench-build/v1\",\n");
    out.push_str(&format!("  \"seed\": {BASE_SEED},\n"));
    out.push_str(&format!("  \"tier\": \"{tier}\",\n"));
    out.push_str(&format!("  \"repeats\": {repeats},\n"));
    out.push_str(&format!(
        "  \"hardware_threads\": {},\n",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    ));
    out.push_str(
        "  \"notes\": \"All fields except *_ns are deterministic for the seed and identical \
         across thread counts (digest = FNV-1a of the canonical FrozenSynopsis bytes, asserted \
         at runtime). *_ns fields are min-over-repeats wall-clock measurements.\",\n",
    );
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"workload\": \"{}\",\n", r.workload));
        out.push_str(&format!("      \"n\": {},\n", r.n));
        out.push_str(&format!("      \"ell\": {},\n", r.ell));
        out.push_str(&format!("      \"corpus_bytes\": {},\n", r.corpus_bytes));
        out.push_str(&format!("      \"index_heap_bytes\": {},\n", r.index_heap_bytes));
        out.push_str(&format!("      \"epsilon\": {},\n", r.epsilon));
        out.push_str(&format!("      \"tau\": {},\n", r.tau));
        out.push_str(&format!("      \"candidates\": {},\n", r.candidates));
        out.push_str(&format!(
            "      \"level_sizes\": [{}],\n",
            r.level_sizes.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(", ")
        ));
        out.push_str(&format!("      \"peak_trie_nodes\": {},\n", r.peak_trie_nodes));
        out.push_str(&format!("      \"pruned_nodes\": {},\n", r.pruned_nodes));
        out.push_str(&format!("      \"digest\": \"{:016x}\",\n", r.digest));
        let t1 = r.times.first().map(|t| t.end_to_end_ns).unwrap_or(0);
        let t8 = r.times.last().map(|t| t.end_to_end_ns).unwrap_or(0);
        out.push_str(&format!(
            "      \"speedup_8t_end_to_end\": {:.3},\n",
            if t8 > 0 { t1 as f64 / t8 as f64 } else { f64::NAN }
        ));
        out.push_str("      \"timings\": [\n");
        for (j, (&threads, t)) in THREADS.iter().zip(&r.times).enumerate() {
            out.push_str(&format!(
                "        {{\"threads\": {}, \"step1_ns\": {}, \"step2_ns\": {}, \
                 \"steps3_6_ns\": {}, \"end_to_end_ns\": {}, \"span_candidates_ns\": {}, \
                 \"span_count_trie_ns\": {}, \"span_noise_ns\": {}, \"span_prune_ns\": {}}}{}\n",
                threads,
                t.step1_ns,
                t.step2_ns,
                t.steps3_6_ns,
                t.end_to_end_ns,
                t.span_candidates_ns,
                t.span_count_trie_ns,
                t.span_noise_ns,
                t.span_prune_ns,
                if j + 1 < r.times.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!("    }}{}\n", if i + 1 < results.len() { "," } else { "" }));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the sweep, persists [`BENCH_PATH`], and tabulates phase timings.
pub fn build_throughput() -> Table {
    let full = std::env::var("DPSC_BUILD_FULL").map(|v| v == "1").unwrap_or(false);
    let (tier, repeats) = if full { ("full", 5) } else { ("fast", 3) };
    let mut scenarios: Vec<&Scenario> = FAST.iter().collect();
    if full {
        scenarios.push(&FLOOD);
    }
    let results: Vec<ScenarioResult> = scenarios
        .iter()
        .enumerate()
        .map(|(i, sc)| run_scenario(sc, i as u64 + 1, repeats))
        .collect();

    std::fs::create_dir_all("results").ok();
    if let Err(e) = std::fs::write(BENCH_PATH, to_json(&results, tier, repeats)) {
        eprintln!("[build_throughput] failed writing {BENCH_PATH}: {e}");
    }

    // NB: table id must differ from BENCH_PATH's stem (the experiments
    // binary writes every table to results/<id>.json).
    let mut t = Table::new(
        "build_throughput",
        "Build pipeline wall time by phase and worker-thread count (dna/text/log corpora)",
        &[
            "scenario",
            "threads",
            "step1 ms",
            "step2 ms",
            "steps3-6 ms",
            "end-to-end ms",
            "spans cand/trie/noise/prune ms",
            "peak nodes",
        ],
    );
    let ms = |ns: u128| format!("{:.2}", ns as f64 / 1e6);
    for r in &results {
        for (&threads, times) in THREADS.iter().zip(&r.times) {
            t.row(vec![
                r.name.to_string(),
                threads.to_string(),
                ms(times.step1_ns),
                ms(times.step2_ns),
                ms(times.steps3_6_ns),
                ms(times.end_to_end_ns),
                format!(
                    "{}/{}/{}/{}",
                    ms(times.span_candidates_ns),
                    ms(times.span_count_trie_ns),
                    ms(times.span_noise_ns),
                    ms(times.span_prune_ns)
                ),
                r.peak_trie_nodes.to_string(),
            ]);
        }
    }
    let hw = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    t.note(format!(
        "tier = {tier}, repeats = {repeats} (min taken), hardware_threads = {hw}. Thread \
         scaling is only visible on multicore hosts; structural outputs and digests are \
         asserted identical across thread counts. Raw artifact: {BENCH_PATH}."
    ));
    for r in &results {
        let t1 = r.times.first().map(|t| t.end_to_end_ns).unwrap_or(0);
        let t8 = r.times.last().map(|t| t.end_to_end_ns).unwrap_or(1);
        t.note(format!(
            "{}: {} workload, {:.2} MB corpus, digest {:016x}, end-to-end 1→8 threads \
             speedup {:.2}×",
            r.name,
            r.workload,
            r.corpus_bytes as f64 / 1e6,
            r.digest,
            t1 as f64 / t8 as f64
        ));
    }
    t
}
