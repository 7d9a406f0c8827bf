//! # dp-substring-counting
//!
//! A from-scratch Rust implementation of *Differentially Private Substring
//! and Document Counting with Near-Optimal Error* (Bernardini, Bille,
//! Gørtz, Steiner — PODS 2025, arXiv:2412.13813).
//!
//! This facade crate re-exports the whole system; see the individual crates
//! for the layers:
//!
//! | crate | contents |
//! |---|---|
//! | [`strkit`] | suffix arrays (SA-IS), LCP, RMQ/LCE, rolling hashes, tries |
//! | [`textindex`] | generalized corpus index: `count`, `count_Δ`, Document Count, q-gram enumeration |
//! | [`dpcore`] | Laplace/Gaussian mechanisms, budget accounting, binary-tree mechanism |
//! | [`hierarchy`] | heavy-path decomposition, DP counting on trees (Theorems 8–9), colored counting |
//! | [`private_count`] | Theorems 1–4 data structures, mining, prior-work baseline |
//! | [`lowerbounds`] | Theorems 5–7 instances and distinguishing attacks |
//! | [`workloads`] | synthetic corpus generators |
//! | [`audit`] | statistical conformance harness: sampler goodness-of-fit, end-to-end privacy distinguishers, utility-vs-theorem-bound scenario matrix |
//! | [`serve`] | sharded TCP serving daemon: epoll readiness core (10k+ connections on one thread), binary wire protocol, per-connection batching, epoch-keyed LRU cache, hot snapshot swap, live metrics |
//!
//! ## Quickstart
//!
//! ```
//! use dp_substring_counting::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // The paper's Example 1 database.
//! let db = Database::paper_example();
//! let idx = CorpusIndex::build(&db);
//!
//! // Theorem 1: ε-DP substring counting structure. On a 6-document toy
//! // database real DP noise drowns every count, so construction may take
//! // the paper's FAIL branch (candidate overflow) — both outcomes are
//! // legitimate mechanism outputs. Real corpora (see the examples/) have
//! // signal above the Θ(ℓ·polylog/ε) noise floor.
//! let mut rng = StdRng::seed_from_u64(0);
//! let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1.0), 0.1)
//!     .with_thresholds(1.5, 1.5); // demo thresholds (post-processing)
//! match build_pure(&idx, &params, &mut rng) {
//!     Ok(structure) => {
//!         // Query ad libitum — post-processing, no further privacy loss.
//!         assert!(structure.query(b"ab").is_finite());
//!
//!         // Serving: freeze the trie into a flat immutable index (still
//!         // post-processing) — allocation-free lookups, batch queries,
//!         // and a compact binary wire format.
//!         let frozen = structure.freeze();
//!         let answers = frozen.query_batch(&[&b"ab"[..], b"be", b"zz"]);
//!         assert_eq!(answers.len(), 3);
//!         let shipped = FrozenSynopsis::from_bytes(&frozen.to_bytes()).unwrap();
//!         assert_eq!(shipped, frozen);
//!     }
//!     Err(e) => println!("construction aborted (FAIL branch): {e}"),
//! }
//! ```

pub use dpsc_audit as audit;
pub use dpsc_dpcore as dpcore;
pub use dpsc_hierarchy as hierarchy;
pub use dpsc_lowerbounds as lowerbounds;
pub use dpsc_private_count as private_count;
pub use dpsc_serve as serve;
pub use dpsc_strkit as strkit;
pub use dpsc_textindex as textindex;
pub use dpsc_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use dpsc_audit::{run_matrix, AuditConfig, ConformanceReport};
    pub use dpsc_dpcore::budget::{BudgetAccountant, PrivacyParams};
    pub use dpsc_dpcore::noise::Noise;
    pub use dpsc_hierarchy::{
        private_tree_counts_approx, private_tree_counts_pure, ColoredUniverse, Tree,
        TreeSensitivity,
    };
    pub use dpsc_private_count::{
        build_approx, build_pure, build_qgram_fast, build_qgram_pure, build_simple_trie,
        evaluate_mining, BuildParams, CountMode, DecodeError, FastQgramParams, FrozenSynopsis,
        PrivateCountStructure, QgramParams, SimpleTrieParams, SnapshotCodec,
    };
    pub use dpsc_serve::{
        Client, ClientConfig, ClientError, MetricsReport, RetryPolicy, Server, ServerConfig,
        ServerHandle, ShardManager, ShutdownPolicy, SnapshotStore, TraceEvent, TraceKind,
    };
    pub use dpsc_strkit::alphabet::{Alphabet, Database};
    pub use dpsc_textindex::CorpusIndex;
}
