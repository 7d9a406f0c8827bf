//! # dpsc-textindex — corpus indexing substrate
//!
//! The generalized suffix index over a database `D = S_1, …, S_n` that every
//! mechanism in this system queries for *true* counts before adding noise:
//!
//! * [`CorpusIndex`] — suffix array + LCP + rolling hash over
//!   `S_1 $_1 … S_n $_n` (the construction in the paper's Lemma 7), exposing
//!   `count(P, D)`, the clipped `count_Δ(P, D)`, and `Document Count`
//!   lookups.
//! * [`doc_counter::DocDistinctCounter`] — distinct-document counting over
//!   suffix-array intervals via the prev-occurrence reduction and a
//!   wavelet matrix ([`range_count::WaveletMatrix`]): `O(log N)` rank steps
//!   per interval in `N⌈log₂(N + 1)⌉` bits plus a rank directory.
//! * [`qgrams::depth_groups`] — enumeration of the distinct length-`d`
//!   substrings (the `d`-minimal suffix-tree nodes of Lemma 21), the engine
//!   of the fast (ε,δ)-DP q-gram construction (Theorem 4).
//!
//! Everything here is *non-private*: it computes exact counts. Privacy lives
//! in `dpsc-dpcore` / `dpsc-private-count`, which consume these counts.

pub mod corpus;
pub mod doc_counter;
pub mod qgrams;
pub mod range_count;

pub use corpus::CorpusIndex;
pub use doc_counter::DocDistinctCounter;
pub use qgrams::{depth_groups, DepthGroup};
pub use range_count::WaveletMatrix;
