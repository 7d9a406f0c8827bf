//! The frozen definition of the benchmark: corpora, workloads, traffic
//! shape and request rates (the metric vocabulary is `BENCHMARK.json`'s).
//! Everything a run does derives from these constants and the `--seed`
//! argument.

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Absolute open-loop request rates (QueryBatch requests per second) of the
/// three read steps. Measured once with `--calibrate` as roughly 25/50/80 %
/// of one connection's closed-loop capacity on a 2-vCPU x86-64 host
/// (four calibrations over seeds 1–3: 19.1k–20.3k requests/s, 46–50 us
/// median round trip), then frozen.
pub const RATES: [(&str, f64); 3] = [("lo", 5_000.0), ("mid", 10_000.0), ("hi", 15_500.0)];

/// Patterns per QueryBatch request.
pub const BATCH: usize = 16;
/// Zipf exponent of the present-pattern mix.
pub const ZIPF_S: f64 = 1.1;
/// Share of patterns drawn from the present universe; the rest are probes.
pub const PRESENT_FRAC: f64 = 0.8;
/// Present-pattern universe per read shard.
pub const UNIVERSE: usize = 512;
/// Probe patterns per read shard.
pub const PROBES: usize = 512;
/// The daemon's query-cache capacity (the `ServerConfig` default).
pub const CACHE_CAPACITY: usize = 8192;
/// The install target's read pool must exceed the cache this many times
/// over, so its reads mostly miss.
pub const TARGET_POOL_OVER_CACHE: usize = 4;
/// Share of serve-install reads that go to the install target shard.
pub const TARGET_READ_FRAC: f64 = 0.25;
/// Every this many install operations on serve-install, one is a Rollback.
pub const ROLLBACK_EVERY: usize = 4;
/// Install period while reads run beside installs (serve-install).
pub const INSTALL_PERIOD_BESIDE_READS_MS: f64 = 200.0;
/// Install period of an install step with no reads: back to back.
pub const INSTALL_PERIOD_ALONE_MS: f64 = 1.0;
/// Installs the traced run replays in-process.
pub const REPLAY_INSTALLS: usize = 8;
/// How many times an untraced run sets up, to report the median set-up.
pub const SETUPS: usize = 3;
/// Requests of the `mid` stream replayed in-process by a traced run.
pub const REPLAY_REQUESTS: usize = 20_000;
/// The replay times traced against untraced work in chunks of this many
/// requests, alternating which side goes first.
pub const REPLAY_CHUNK: usize = 1_000;
/// Requests the saturation step keeps in flight on the read connection.
pub const SATURATION_WINDOW: usize = 64;
/// The saturation step's throughput is the median over windows this long.
pub const THROUGHPUT_WINDOW_MS: u64 = 250;
/// Read latencies are summarised per window of this many requests, so each
/// window's p99 has ten samples beyond it.
pub const READ_WINDOW: usize = 1000;
/// Install latencies are summarised per window of this many installs, so
/// each window's p90 has ten samples beyond it.
pub const INSTALL_WINDOW: usize = 100;
/// How long a step waits for outstanding responses before counting them
/// as failed.
pub const DRAIN_TIMEOUT_S: f64 = 2.0;

/// Corpus family: the repository's experiment corpora, whose
/// `make_corpus` draws the documents.
pub use dpsc_bench::exps::common::Workload as Family;

/// One corpus and the DP release regime built over it.
#[derive(Debug)]
pub struct Corpus {
    pub name: &'static str,
    pub family: Family,
    /// Documents.
    pub n: usize,
    /// Declared maximum document length.
    pub ell: usize,
    pub epsilon: f64,
    /// Candidate threshold as a share of `n`.
    pub tau_frac: f64,
    /// Tag that separates this corpus's random streams from the others'.
    pub tag: u64,
}

/// The σ = 76 access-log stand-in, 36 000 lines of 30 bytes (1.08 MB).
pub const LOG_1M: Corpus = Corpus {
    name: "log-1m",
    family: Family::Log,
    n: 36_000,
    ell: 30,
    epsilon: 16.0,
    tau_frac: 0.10,
    tag: 1,
};
/// The σ = 27 text stand-in, 10 624 documents of 97 bytes (1.03 MB).
pub const TEXT_1M: Corpus = Corpus {
    name: "text-1m",
    family: Family::Text,
    n: 10_624,
    ell: 97,
    epsilon: 16.0,
    tau_frac: 0.35,
    tag: 2,
};
/// σ = 4 genome reads, 1024 × 64.
pub const DNA_SMALL: Corpus = Corpus {
    name: "dna-small",
    family: Family::Dna,
    n: 1024,
    ell: 64,
    epsilon: 20.0,
    tau_frac: 0.45,
    tag: 3,
};
/// σ = 4 genome reads, 2048 × 64.
pub const DNA_MID: Corpus = Corpus {
    name: "dna-mid",
    family: Family::Dna,
    n: 2048,
    ell: 64,
    epsilon: 16.0,
    tau_frac: 0.35,
    tag: 4,
};
/// σ = 4 genome reads, 1024 × 64, in a regime (large ε, low τ) where the
/// DP layers do most of the work and the released trie has a stable size.
pub const DNA_RELEASE: Corpus = Corpus {
    name: "dna-release",
    family: Family::Dna,
    n: 1024,
    ell: 64,
    epsilon: 400.0,
    tau_frac: 0.05,
    tag: 5,
};

/// Base seed of the serve workloads' data: the one `serve_throughput`
/// builds its shards from, so both hold the same four snapshots; the
/// install target's two `dna-release` snapshots derive from it too. `--seed`
/// varies the serve workloads' request streams, not their data.
pub const SERVE_SHARD_SEED: u64 = 0x5E12_7EAF;

/// The shards every serve workload holds (the `serve_throughput` set).
pub const SERVE_SHARDS: [&Corpus; 4] = [&DNA_SMALL, &DNA_MID, &TEXT_1M, &LOG_1M];

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReleaseLog,
    ReleaseDna,
    ServeRead,
    ServeInstall,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ReleaseLog, Workload::ReleaseDna, Workload::ServeRead, Workload::ServeInstall];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReleaseLog => "release-log",
            Workload::ReleaseDna => "release-dna",
            Workload::ServeRead => "serve-read",
            Workload::ServeInstall => "serve-install",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The corpus a release workload releases repeatedly.
    pub fn release_corpus(self) -> Option<&'static Corpus> {
        match self {
            Workload::ReleaseLog => Some(&LOG_1M),
            Workload::ReleaseDna => Some(&DNA_RELEASE),
            Workload::ServeRead | Workload::ServeInstall => None,
        }
    }
}

/// Share of `--seconds` a release workload spends releasing; the rest
/// serves the last release (read steps, saturation, then installs).
pub const RELEASE_LOOP_FRAC: f64 = 0.5;
