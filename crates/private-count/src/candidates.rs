//! Step 1: differentially private candidate-set construction
//! (Lemma 6 for ε-DP, Lemma 15 for (ε,δ)-DP).
//!
//! The candidate set `C ⊆ Σ^[1,ℓ]` shrinks the universe from `|Σ|^ℓ` to
//! `≤ n²ℓ³` while guaranteeing (w.h.p.) that every string *not* in `C` has
//! a small true count. Construction is by length doubling:
//!
//! 1. `P_1` = letters with noisy `count_Δ ≥ τ`;
//! 2. `P_{2^k}` = concatenations of two `P_{2^{k-1}}` strings with noisy
//!    `count_Δ ≥ τ` (noise added to *every* pair, including pairs whose true
//!    count is 0 — required for privacy);
//! 3. for every non-power length `m ∈ (2^k, 2^{k+1})`, `C_m` = strings whose
//!    length-`2^k` prefix **and** suffix are both in `P_{2^k}` (pure
//!    post-processing: the overlap test never touches the database).
//!
//! Each doubling level spends `ε/(⌊log ℓ⌋+1)` (and `δ/(⌊log ℓ⌋+1)`) of the
//! step's budget; per-level sensitivity is `2ℓ` in L1 (Corollary 3) and
//! `√(2ℓΔ)` in L2 (Corollary 6, via Hölder).
//!
//! ## Lookup engineering
//! The paper asks substring-concatenation queries against the suffix tree
//! (\[7,8\]); we answer them with rolling hashes: each level precomputes the
//! map *hash of distinct `2^k`-substring → SA interval* (one LCP scan via
//! [`dpsc_textindex::depth_groups`]) in a reusable open-addressed table
//! (`IntervalTable`), so a pair lookup is `O(1)` expected with no hashing
//! beyond a fingerprint mix and no per-level allocator round trip.
//! Suffix/prefix overlaps for `C_m` are hash comparisons over a pooled
//! candidate buffer. See DESIGN.md §2 for the substitution rationale.
//!
//! ## Parallelism and determinism
//! The pair scan of each doubling level is embarrassingly parallel and
//! carries almost all of Step 1's noise draws (`|P|²` per level, one per
//! pair — absent pairs included, as privacy requires). It is parallelized
//! over **fixed-size chunks** of `Q_1` rows; each chunk draws its noise
//! from an independent RNG stream derived SplitMix64-style from a single
//! base draw off the caller's RNG (the same derivation pattern as
//! `dpsc_audit::matrix`). Chunk boundaries and stream seeds depend only on
//! the level and chunk index — never on the thread count — so the released
//! candidate set is bit-identical for every `threads` setting, including 1.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_dpcore::noise::Noise;
use dpsc_strkit::hash::HashValue;
use dpsc_strkit::search::SaInterval;
use dpsc_textindex::{depth_groups, CorpusIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for candidate construction.
#[derive(Debug, Clone, Copy)]
pub struct CandidateParams {
    /// The clip level `Δ ∈ [1, ℓ]` of `count_Δ`.
    pub delta_clip: usize,
    /// Privacy budget for the whole of Step 1.
    pub privacy: PrivacyParams,
    /// Failure probability for the whole of Step 1.
    pub beta: f64,
    /// Threshold override: if set, use this `τ` instead of the analytic
    /// `2α`. Privacy is unaffected (thresholding noisy counts is
    /// post-processing); only the accuracy guarantee changes.
    pub tau_override: Option<f64>,
    /// Maximum candidate-set size per level before aborting (paper: `nℓ`).
    /// `None` uses `nℓ`.
    pub level_cap_override: Option<usize>,
    /// Worker threads for the per-level pair scans. `0` and `1` both mean
    /// sequential. The released candidate set is identical for every
    /// setting (see the module docs on stream derivation).
    pub threads: usize,
}

/// Error: a level exceeded the `nℓ` cap (the paper's FAIL outcome, which
/// happens with probability ≤ β under the analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateOverflow {
    /// The level (string length `2^level`) that overflowed.
    pub level: usize,
    /// Number of strings that passed the threshold.
    pub size: usize,
    /// The cap that was exceeded.
    pub cap: usize,
}

impl std::fmt::Display for CandidateOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "candidate level 2^{} overflowed: {} strings > cap {}",
            self.level, self.size, self.cap
        )
    }
}

impl std::error::Error for CandidateOverflow {}

/// The output of Step 1.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// All candidate strings (the union of the `P_{2^k}` and the `C_m`),
    /// deduplicated by construction.
    pub strings: Vec<Vec<u8>>,
    /// Analytic error bound `α`: strings outside the set have
    /// `count_Δ < 3α` w.p. ≥ 1−β.
    pub alpha: f64,
    /// The threshold used.
    pub tau: f64,
    /// Sizes of `P_{2^k}` per level (diagnostics).
    pub level_sizes: Vec<usize>,
}

/// Memory safety valve for the overlap extension: at 2^22 strings per
/// length the construction is already far past any useful regime (the
/// paper's bound is |C_m| ≤ (nℓ)²), so we stop materializing rather than
/// exhaust memory.
pub const OVERLAP_SAFETY_CAP: usize = 1 << 22;

/// One candidate string with its hash in the corpus symbol space and its
/// suffix-array interval (empty for candidates absent from the corpus).
/// Carrying the interval lets the next level's pair scan extend it
/// directly instead of consulting a per-level substring table.
#[derive(Debug, Clone)]
pub(crate) struct Cand {
    pub(crate) bytes: Vec<u8>,
    pub(crate) hash: HashValue,
    pub(crate) iv: SaInterval,
}

pub(crate) use dpsc_dpcore::stream::derive_stream;

/// Stream tag for chunk `chunk` of level `level` (level 0 = the letter
/// scan, which is chunk 0 of level 0).
#[inline]
fn stream_tag(level: usize, chunk: usize) -> u64 {
    ((level as u64) << 40) | chunk as u64
}

/// `Q_1` rows per pair-scan chunk. Fixed — never derived from the thread
/// count — so chunk boundaries (and hence noise streams) are the same for
/// every parallelism setting.
const PAIR_CHUNK_ROWS: usize = 16;

/// Reusable open-addressed map `HashValue → SaInterval` (linear probing,
/// power-of-two capacity, generation-stamped slots so clearing is O(1)).
/// One instance lives across all doubling levels: rebuilding the per-level
/// substring map reuses the same allocation instead of growing a fresh
/// `HashMap` per level, and lookups probe a contiguous slot array keyed by
/// [`HashValue::fingerprint`] with full-key confirmation per slot.
pub(crate) struct IntervalTable {
    slots: Vec<TableSlot>,
    mask: usize,
    generation: u32,
}

#[derive(Clone, Copy)]
struct TableSlot {
    gen: u32,
    key: HashValue,
    iv: SaInterval,
}

const EMPTY_SLOT: TableSlot = TableSlot { gen: 0, key: HashValue::EMPTY, iv: SaInterval::EMPTY };

impl IntervalTable {
    pub(crate) fn new() -> Self {
        Self { slots: Vec::new(), mask: 0, generation: 0 }
    }

    /// Clears the table and ensures capacity for `len` entries at a load
    /// factor ≤ 1/2. Reuses (never shrinks) the slot array whenever it is
    /// big enough; a full wipe happens only on growth or on the
    /// once-in-2³² generation wrap.
    pub(crate) fn reset(&mut self, len: usize) {
        let want = (len.max(1) * 2).next_power_of_two();
        if self.slots.len() < want || self.generation == u32::MAX {
            let new_len = want.max(self.slots.len());
            self.slots.clear();
            self.slots.resize(new_len, EMPTY_SLOT);
            self.mask = self.slots.len() - 1;
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }

    pub(crate) fn insert(&mut self, key: HashValue, iv: SaInterval) {
        let mut i = key.fingerprint() as usize & self.mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.gen != self.generation {
                *slot = TableSlot { gen: self.generation, key, iv };
                return;
            }
            if slot.key == key {
                slot.iv = iv;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    pub(crate) fn get(&self, key: HashValue) -> Option<SaInterval> {
        let mut i = key.fingerprint() as usize & self.mask;
        loop {
            let slot = &self.slots[i];
            if slot.gen != self.generation {
                return None;
            }
            if slot.key == key {
                return Some(slot.iv);
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// Output of the doubling phase: the sets `P_{2^0} … P_{2^max_power}` with
/// the per-level accuracy parameters.
pub(crate) struct DoublingLevels {
    pub(crate) levels: Vec<Vec<Cand>>,
    pub(crate) alpha: f64,
    pub(crate) tau: f64,
}

/// Runs the doubling construction `P_{2^0} … P_{2^max_power}`, spending
/// `privacy` split evenly over the `max_power + 1` levels. Used by the
/// full candidate construction (`max_power = ⌊log ℓ⌋`) and by the q-gram
/// algorithm of Theorem 3 (`max_power = ⌊log q⌋`).
///
/// All noise flows from chunk streams derived off a single base draw from
/// `rng`, so the result depends on the caller's RNG state but not on
/// `threads` (see the module docs).
#[allow(clippy::too_many_arguments)] // crate-internal; parameters are the paper's own knobs
pub(crate) fn doubling_levels<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    delta_clip: usize,
    privacy: PrivacyParams,
    beta: f64,
    gaussian: bool,
    tau_override: Option<f64>,
    cap: usize,
    max_power: usize,
    threads: usize,
    rng: &mut R,
) -> Result<DoublingLevels, CandidateOverflow> {
    let ell = idx.max_len();
    let n = idx.n_docs();
    let sigma = idx.alphabet_size();
    let num_levels = max_power + 1;
    let level_privacy = privacy.split_even(num_levels);
    let beta_level = beta / num_levels as f64;
    let k_counts = ((ell * ell) as f64 * (n * n) as f64).max(sigma as f64);
    let (noise, alpha) =
        level_noise(gaussian, level_privacy, ell, delta_clip, k_counts, beta_level);
    let tau = tau_override.unwrap_or(2.0 * alpha);
    let stream_base: u64 = rng.gen();

    // Level 0: all letters of Σ (absent letters included, with noise on 0 —
    // required for privacy). |Σ| draws: sequential, own stream.
    let mut rng0 = StdRng::seed_from_u64(derive_stream(stream_base, stream_tag(0, 0)));
    let mut current: Vec<Cand> = Vec::new();
    for sym_idx in 0..sigma {
        let letter = idx.alphabet_base() + sym_idx as u8;
        let iv = idx.interval(&[letter]);
        let c = idx.count_clipped_in_interval(iv, delta_clip) as f64;
        if c + noise.sample(&mut rng0) >= tau {
            current.push(Cand { bytes: vec![letter], hash: idx.hash_pattern(&[letter]), iv });
        }
    }
    if current.len() > cap {
        return Err(CandidateOverflow { level: 0, size: current.len(), cap });
    }
    let mut levels = vec![current];
    let mut table = IntervalTable::new();

    for k in 1..=max_power {
        let len = 1usize << k;
        if len > ell {
            break;
        }
        let current = levels.last().expect("at least level 0");
        // Adaptive pair-count strategy. Sparse levels (the common case:
        // |P|² pair extensions cost less than one pass over the text)
        // extend each `Q_1` interval by `Q_2`'s symbols — exact, O(len·log)
        // per pair, and skips the per-level substring sweep entirely.
        // Dense levels (noise-flooded regimes) amortize one `depth_groups`
        // sweep into the reusable open-addressed table for O(1) lookups.
        // Both paths produce identical exact counts, so the released set —
        // and hence determinism — does not depend on the choice.
        let pairs = current.len() * current.len();
        let dense = pairs.saturating_mul(len) / 2 > idx.text_len();
        let lookup = if dense {
            let groups = depth_groups(idx, len);
            table.reset(groups.len());
            for g in &groups {
                table.insert(idx.substring_hash(g.witness_pos as usize, len), g.interval);
            }
            PairLookup::Table(&table)
        } else {
            PairLookup::Extend
        };
        let next = scan_level_pairs(
            idx,
            current,
            lookup,
            noise,
            tau,
            delta_clip,
            cap,
            len,
            k,
            threads,
            stream_base,
        )
        .map_err(|size| CandidateOverflow { level: k, size, cap })?;
        levels.push(next);
    }
    Ok(DoublingLevels { levels, alpha, tau })
}

/// How a level's pair scan resolves concatenation intervals.
#[derive(Clone, Copy)]
enum PairLookup<'a> {
    /// Dense level: precomputed `depth_groups` table, O(1) per pair.
    Table(&'a IntervalTable),
    /// Sparse level: extend `Q_1`'s interval by `Q_2`'s symbols.
    Extend,
}

/// Scans all `|P|²` concatenation pairs of one doubling level, adding noise
/// to every pair's clipped count and keeping those that clear `tau`.
/// Returns `Err(observed_size)` when the survivors exceed `cap` — the FAIL
/// decision is exact and thread-count independent: the survivor count is a
/// deterministic function of the chunk streams, workers only stop early
/// once the shared counter has *already* passed `cap`, and in the Ok path
/// no chunk ever aborts, so all pairs are scanned and the returned set is
/// bit-identical for every thread count.
#[allow(clippy::too_many_arguments)] // crate-internal hot path
fn scan_level_pairs(
    idx: &CorpusIndex,
    current: &[Cand],
    lookup: PairLookup<'_>,
    noise: Noise,
    tau: f64,
    delta_clip: usize,
    cap: usize,
    len: usize,
    level: usize,
    threads: usize,
    stream_base: u64,
) -> Result<Vec<Cand>, usize> {
    let rows = current.len();
    let half = len / 2;
    let n_chunks = rows.div_ceil(PAIR_CHUNK_ROWS);
    let found = AtomicUsize::new(0);

    let scan_chunk = |chunk: usize, out: &mut Vec<Cand>| {
        let mut rng = StdRng::seed_from_u64(derive_stream(stream_base, stream_tag(level, chunk)));
        let start = chunk * PAIR_CHUNK_ROWS;
        for q1 in &current[start..rows.min(start + PAIR_CHUNK_ROWS)] {
            // Once the global survivor count has passed the cap the level's
            // outcome is FAIL regardless of what remains; stop scanning.
            if found.load(Ordering::Relaxed) > cap {
                return;
            }
            for q2 in current {
                // The concat hash is needed per pair in table mode but only
                // per *survivor* in extend mode; compute it at most once.
                let (iv, hash) = match lookup {
                    PairLookup::Table(table) => {
                        let hash = idx.concat_hash(q1.hash, q2.hash);
                        (table.get(hash).unwrap_or(SaInterval::EMPTY), Some(hash))
                    }
                    PairLookup::Extend => {
                        let mut iv = q1.iv;
                        for (d, &b) in q2.bytes.iter().enumerate() {
                            if iv.is_empty() {
                                break;
                            }
                            iv = idx.extend_interval(iv, half + d, b);
                        }
                        (iv, None)
                    }
                };
                let true_count = if iv.is_empty() {
                    0.0
                } else {
                    idx.count_clipped_in_interval(iv, delta_clip) as f64
                };
                if true_count + noise.sample(&mut rng) >= tau {
                    let mut bytes = Vec::with_capacity(len);
                    bytes.extend_from_slice(&q1.bytes);
                    bytes.extend_from_slice(&q2.bytes);
                    let hash = hash.unwrap_or_else(|| idx.concat_hash(q1.hash, q2.hash));
                    out.push(Cand { bytes, hash, iv });
                    if found.fetch_add(1, Ordering::Relaxed) + 1 > cap {
                        return;
                    }
                }
            }
        }
    };

    let workers = threads.max(1).min(n_chunks);
    let mut chunk_results: Vec<Vec<Cand>> = Vec::with_capacity(n_chunks);
    if workers <= 1 {
        for chunk in 0..n_chunks {
            let mut out = Vec::new();
            scan_chunk(chunk, &mut out);
            chunk_results.push(out);
        }
    } else {
        let results: Vec<std::sync::Mutex<Vec<Cand>>> =
            (0..n_chunks).map(|_| std::sync::Mutex::new(Vec::new())).collect();
        let next_chunk = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
                    if chunk >= n_chunks {
                        break;
                    }
                    let mut out = Vec::new();
                    scan_chunk(chunk, &mut out);
                    *results[chunk].lock().expect("chunk mutex not poisoned") = out;
                });
            }
        });
        chunk_results
            .extend(results.into_iter().map(|m| m.into_inner().expect("chunk mutex poisoned")));
    }

    let total: usize = chunk_results.iter().map(|c| c.len()).sum();
    if total > cap {
        return Err(total);
    }
    let mut next = Vec::with_capacity(total);
    for chunk in chunk_results {
        next.extend(chunk);
    }
    Ok(next)
}

/// Builds the candidate set with Laplace noise (Lemma 6, pure ε-DP).
pub fn build_candidates_pure<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &CandidateParams,
    rng: &mut R,
) -> Result<CandidateSet, CandidateOverflow> {
    assert!(params.privacy.is_pure(), "Lemma 6 requires δ = 0");
    build_candidates_impl(idx, params, false, rng)
}

/// Builds the candidate set with Gaussian noise (Lemma 15, (ε,δ)-DP).
pub fn build_candidates_approx<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &CandidateParams,
    rng: &mut R,
) -> Result<CandidateSet, CandidateOverflow> {
    assert!(params.privacy.delta > 0.0, "Lemma 15 requires δ > 0");
    build_candidates_impl(idx, params, true, rng)
}

/// Per-level noise and the analytic sup-error `α` over `K` counts.
fn level_noise(
    gaussian: bool,
    level_privacy: PrivacyParams,
    ell: usize,
    delta_clip: usize,
    k_counts: f64,
    beta_level: f64,
) -> (Noise, f64) {
    if gaussian {
        // Corollary 6: L2 ≤ √(2ℓΔ); Corollary 2 sup error.
        let l2 = (2.0 * ell as f64 * delta_clip as f64).sqrt();
        let noise = Noise::gaussian_for(level_privacy.epsilon, level_privacy.delta, l2);
        let alpha = 2.0 * l2 / level_privacy.epsilon
            * ((2.0 / level_privacy.delta).ln() * (2.0 * k_counts / beta_level).ln()).sqrt();
        (noise, alpha)
    } else {
        // Corollary 3: L1 ≤ 2ℓ; Corollary 1 sup error.
        let l1 = 2.0 * ell as f64;
        let noise = Noise::laplace_for(level_privacy.epsilon, l1);
        let alpha = l1 / level_privacy.epsilon * (k_counts / beta_level).ln();
        (noise, alpha)
    }
}

fn build_candidates_impl<R: Rng + ?Sized>(
    idx: &CorpusIndex,
    params: &CandidateParams,
    gaussian: bool,
    rng: &mut R,
) -> Result<CandidateSet, CandidateOverflow> {
    let ell = idx.max_len();
    let n = idx.n_docs();
    let max_power = (ell as f64).log2().floor() as usize; // ⌊log ℓ⌋
    let cap = params.level_cap_override.unwrap_or(n * ell);

    let doubling = doubling_levels(
        idx,
        params.delta_clip,
        params.privacy,
        params.beta,
        gaussian,
        params.tau_override,
        cap,
        max_power,
        params.threads,
        rng,
    )?;

    let mut strings: Vec<Vec<u8>> = Vec::new();
    let mut level_sizes = Vec::with_capacity(doubling.levels.len());
    for (k, level) in doubling.levels.iter().enumerate() {
        level_sizes.push(level.len());
        strings.extend(level.iter().map(|c| c.bytes.clone()));
        // C_m for 2^k < m < 2^{k+1}: post-processing of P_{2^k} (no
        // database access, no privacy cost).
        extend_with_overlaps(idx, level, 1 << k, ell, OVERLAP_SAFETY_CAP, &mut strings);
    }

    Ok(CandidateSet { strings, alpha: doubling.alpha, tau: doubling.tau, level_sizes })
}

/// Adds to `out` every string of length `m ∈ (L, 2L)` (`L` = `len`, capped
/// at ℓ) whose length-`L` prefix and suffix are both in `cands`:
/// `Q1[0..L] · Q2[2L−m..L]` for every pair with a suffix/prefix overlap of
/// length `2L − m`.
///
/// Matching is hash-indexed: for each overlap length `o`, candidates are
/// bucketed by length-`o` prefix hash and joined against suffix hashes, so
/// the cost is `O(|P|·L + matches)` instead of the naive `O(|P|²·L)` — the
/// practical stand-in for the paper's LCE-based overlap detection (proof of
/// Lemma 7, Step 2). Hash hits are byte-verified before emission.
///
/// `per_length_cap` is a far-away safety valve (callers pass
/// [`OVERLAP_SAFETY_CAP`]) bounding memory if a noise-flooded candidate
/// level produces quadratically many overlaps; it binds only in regimes
/// that are already headed for the paper's FAIL outcome. It must NOT be
/// used as a tight budget: truncation is arbitrary and could drop frequent
/// strings. The cap decision never touches the database.
fn extend_with_overlaps(
    idx: &CorpusIndex,
    cands: &[Cand],
    len: usize,
    ell: usize,
    per_length_cap: usize,
    out: &mut Vec<Vec<u8>>,
) {
    if cands.is_empty() || len == 0 {
        return;
    }
    let max_m = (2 * len - 1).min(ell);
    if max_m <= len {
        return;
    }
    // All prefix/suffix hashes of each candidate in O(len) via a per-string
    // rolling hash (same parameter space as the corpus, so hashes agree
    // with `idx.hash_pattern`).
    struct Hashes {
        prefix: Vec<HashValue>,
        suffix: Vec<HashValue>,
    }
    let hashes: Vec<Hashes> = cands
        .iter()
        .map(|c| {
            let encoded: Vec<u32> =
                c.bytes.iter().map(|&b| idx.n_docs() as u32 + b as u32).collect();
            let h = dpsc_strkit::hash::RollingHash::new(&encoded);
            let prefix = (0..=len).map(|o| h.substring(0, o)).collect();
            let suffix = (0..=len).map(|o| h.substring(len - o, len)).collect();
            Hashes { prefix, suffix }
        })
        .collect();
    for m in len + 1..=max_m {
        let o = 2 * len - m;
        // Bucket candidates by their length-o prefix hash.
        let mut by_prefix: HashMap<HashValue, Vec<u32>> = HashMap::new();
        for (j, h) in hashes.iter().enumerate() {
            by_prefix.entry(h.prefix[o]).or_default().push(j as u32);
        }
        let mut emitted = 0usize;
        'outer: for (i, q1) in cands.iter().enumerate() {
            let Some(js) = by_prefix.get(&hashes[i].suffix[o]) else {
                continue;
            };
            for &j in js {
                let q2 = &cands[j as usize];
                // Exact confirmation (hashes are probabilistic).
                if q1.bytes[len - o..] == q2.bytes[..o] {
                    let mut s = Vec::with_capacity(m);
                    s.extend_from_slice(&q1.bytes);
                    s.extend_from_slice(&q2.bytes[o..]);
                    out.push(s);
                    emitted += 1;
                    if emitted >= per_length_cap {
                        break 'outer;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_strkit::alphabet::Database;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params_with_tau(tau: f64) -> CandidateParams {
        CandidateParams {
            delta_clip: usize::MAX / 2,        // effectively Δ = ℓ clamp below
            privacy: PrivacyParams::pure(1e9), // noise ≈ 0
            beta: 0.1,
            tau_override: Some(tau),
            level_cap_override: None,
            threads: 1,
        }
    }

    #[test]
    fn noiseless_candidates_match_example_2() {
        // Example 2 of the paper: exact sets with threshold τ = 1.
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = params_with_tau(0.9);
        p.delta_clip = db.max_len();
        let set = build_candidates_pure(&idx, &p, &mut rng).unwrap();

        let has = |s: &str| set.strings.iter().any(|x| x == s.as_bytes());
        // P_1 = {a, b, e, s}
        for s in ["a", "b", "e", "s"] {
            assert!(has(s), "missing {s}");
        }
        assert!(!has("c"));
        // P_2 = {aa, ab, ba, be, bs, ee, es, sa}
        for s in ["aa", "ab", "ba", "be", "bs", "ee", "es", "sa"] {
            assert!(has(s), "missing {s}");
        }
        assert!(!has("bb"));
        // P_4 = {aaaa, absa, babe, bees, bsab}
        for s in ["aaaa", "absa", "babe", "bees", "bsab"] {
            assert!(has(s), "missing {s}");
        }
        // C_3 per Example 3 (built from P_2 overlaps).
        for s in
            ["aaa", "aab", "aba", "abe", "abs", "baa", "bab", "bee", "bsa", "eee", "saa", "sab"]
        {
            assert!(has(s), "missing C_3 string {s}");
        }
        // C_5: Example 3 lists {aaaaa, aaaab, absab}, but that example is
        // derived from the *noisy* P_4 (which spuriously contains "aaab");
        // the exact sets yield C_5 = {aaaaa, absab}.
        for s in ["aaaaa", "absab"] {
            assert!(has(s), "missing C_5 string {s}");
        }
        assert!(!has("aaaab"));
        assert!(!has("abeab"));
        assert_eq!(set.level_sizes[0], 4);
        assert_eq!(set.level_sizes[1], 8);
        assert_eq!(set.level_sizes[2], 5);
    }

    #[test]
    fn every_frequent_string_is_covered_noiselessly() {
        // With τ = 1 and zero noise, C must contain every substring of the
        // database (Lemma 6's completeness direction in the exact regime).
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = params_with_tau(0.9);
        p.delta_clip = db.max_len();
        let set = build_candidates_pure(&idx, &p, &mut rng).unwrap();
        use std::collections::HashSet;
        let have: HashSet<&[u8]> = set.strings.iter().map(|s| s.as_slice()).collect();
        for doc in db.documents() {
            for i in 0..doc.len() {
                for j in i + 1..=doc.len() {
                    assert!(
                        have.contains(&doc[i..j]),
                        "substring {:?} of {:?} missing",
                        std::str::from_utf8(&doc[i..j]).unwrap(),
                        std::str::from_utf8(doc).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn no_duplicates() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = params_with_tau(0.9);
        p.delta_clip = db.max_len();
        let set = build_candidates_pure(&idx, &p, &mut rng).unwrap();
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for s in &set.strings {
            assert!(seen.insert(s.clone()), "duplicate candidate {:?}", s);
        }
    }

    #[test]
    fn high_threshold_prunes_rare_strings() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = params_with_tau(3.0);
        p.delta_clip = db.max_len();
        let set = build_candidates_pure(&idx, &p, &mut rng).unwrap();
        let has = |s: &str| set.strings.iter().any(|x| x == s.as_bytes());
        // count(a) = 8, count(b) = 6, count(e) = 5, count(s) = 2 < 3.
        assert!(has("a") && has("b") && has("e"));
        assert!(!has("s"));
    }

    #[test]
    fn gaussian_variant_runs_and_covers_noiselessly() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(5);
        let p = CandidateParams {
            delta_clip: db.max_len(),
            privacy: PrivacyParams::approx(1e9, 1e-9),
            beta: 0.1,
            tau_override: Some(0.9),
            level_cap_override: None,
            threads: 1,
        };
        let set = build_candidates_approx(&idx, &p, &mut rng).unwrap();
        assert!(set.strings.iter().any(|s| s == b"absab"));
    }

    #[test]
    fn overflow_is_reported() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        let mut rng = StdRng::seed_from_u64(6);
        let p = CandidateParams {
            delta_clip: db.max_len(),
            privacy: PrivacyParams::pure(1e9),
            beta: 0.1,
            tau_override: Some(0.9),
            level_cap_override: Some(2),
            threads: 1,
        };
        let err = build_candidates_pure(&idx, &p, &mut rng).unwrap_err();
        assert_eq!(err.level, 0);
        assert!(err.size > 2);
    }
}
