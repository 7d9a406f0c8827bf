//! Frozen serving-layer synopsis: the published trie flattened into an
//! immutable CSR index.
//!
//! [`PrivateCountStructure`] is the *construction-time* artifact: an
//! arena trie whose node-by-node pointer chasing is convenient while the
//! pipeline inserts, prunes and re-counts, but wasteful once the synopsis
//! is released and only ever *read*. Because the released structure is
//! pure post-processing, it can be re-shaped freely with no privacy cost —
//! so [`FrozenSynopsis::freeze`] performs a one-shot flatten into four
//! contiguous arrays (breadth-first node order, CSR edge lists with
//! per-node sorted labels), giving allocation-free lookups instead of a
//! pointer walk through scattered arena nodes. On top of the CSR arrays
//! sits a derived, never-serialized acceleration index (`fastpath`):
//! per-node SWAR label blocks or direct child tables, chosen by fanout,
//! probed branchlessly — one or two cache lines per pattern byte.
//!
//! The frozen form is also the *shippable* form: the sectioned `DPSF` v2
//! format (`codec_v2`), 8-byte-aligned sections with per-section
//! checksums, in two dialects:
//!
//! * **uncompressed** — what [`FrozenSynopsis::to_bytes`] emits after
//!   [`FrozenSynopsis::freeze`]. The sections are raw little-endian
//!   arrays, so they decode *borrowed*
//!   ([`FrozenSynopsis::from_bytes_shared`]): after validation the arrays
//!   point straight into the shared input buffer (an `Arc<[u8]>`), and
//!   installing a shard performs zero per-array copies.
//! * **compressed** — opt-in through [`FrozenSynopsis::to_bytes_v2`]`(true)`.
//!   It trades borrowing for size: `edge_start` as delta+varint degrees,
//!   `edge_target` as zigzag-varint gaps; it always decodes owned.
//!
//! A decoded synopsis re-serializes to the dialect it arrived in, so both
//! round-trip canonically (`from_bytes(b)?.to_bytes() == b`).

use std::sync::Arc;

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_strkit::trie::Trie;

use crate::codec::{le_f64, le_u32, DecodeError};
use crate::codec_v2;
use crate::fastpath::FastPath;
use crate::structure::{CountMode, PrivateCountStructure};

/// Raw little-endian `(counts, edge_start, edge_label, edge_target)`
/// section bytes of a borrowed storage, exactly sized.
type SectionViews<'a> = (&'a [u8], &'a [u8], &'a [u8], &'a [u8]);

/// Physical backing of the four CSR arrays.
///
/// `Owned` holds `Vec`s (freeze, [`FrozenSynopsis::from_bytes`],
/// compressed decode). `Borrowed` points into a shared, already-validated
/// v2 buffer: the offsets address the little-endian section bytes inside
/// `buf`, and every accessor reads fields with `from_le_bytes` — safe
/// code, one load on little-endian targets, no aliasing tricks (the
/// workspace denies `unsafe`). Cloning a `Borrowed` storage clones the
/// `Arc`, not the data.
#[derive(Debug, Clone)]
pub(crate) enum Storage {
    Owned {
        counts: Vec<f64>,
        edge_start: Vec<u32>,
        edge_label: Vec<u8>,
        edge_target: Vec<u32>,
    },
    Borrowed {
        buf: Arc<[u8]>,
        counts_off: usize,
        edge_start_off: usize,
        edge_label_off: usize,
        edge_target_off: usize,
        n_nodes: usize,
        n_edges: usize,
    },
}

impl Storage {
    /// Number of nodes (root included).
    #[inline]
    pub(crate) fn n_nodes(&self) -> usize {
        match self {
            Self::Owned { counts, .. } => counts.len(),
            Self::Borrowed { n_nodes, .. } => *n_nodes,
        }
    }

    /// Number of edges (`n_nodes − 1` for every valid synopsis).
    #[inline]
    pub(crate) fn n_edges(&self) -> usize {
        match self {
            Self::Owned { edge_label, .. } => edge_label.len(),
            Self::Borrowed { n_edges, .. } => *n_edges,
        }
    }

    /// Noisy count of node `v`.
    #[inline]
    pub(crate) fn count(&self, v: usize) -> f64 {
        match self {
            Self::Owned { counts, .. } => counts[v],
            Self::Borrowed { buf, counts_off, .. } => le_f64(buf, counts_off + 8 * v),
        }
    }

    /// CSR offset `edge_start[i]` (valid for `i ≤ n_nodes`).
    #[inline]
    pub(crate) fn edge_start_at(&self, i: usize) -> usize {
        match self {
            Self::Owned { edge_start, .. } => edge_start[i] as usize,
            Self::Borrowed { buf, edge_start_off, .. } => {
                le_u32(buf, edge_start_off + 4 * i) as usize
            }
        }
    }

    /// Edge labels `edge_label[lo..hi]` — labels are plain bytes, so both
    /// storages can hand out a real slice.
    #[inline]
    pub(crate) fn edge_labels(&self, lo: usize, hi: usize) -> &[u8] {
        match self {
            Self::Owned { edge_label, .. } => &edge_label[lo..hi],
            Self::Borrowed { buf, edge_label_off, .. } => {
                &buf[edge_label_off + lo..edge_label_off + hi]
            }
        }
    }

    /// Target of edge `e`.
    #[inline]
    pub(crate) fn edge_target_at(&self, e: usize) -> u32 {
        match self {
            Self::Owned { edge_target, .. } => edge_target[e],
            Self::Borrowed { buf, edge_target_off, .. } => le_u32(buf, edge_target_off + 4 * e),
        }
    }

    /// Whether the arrays alias a shared input buffer.
    #[inline]
    pub(crate) fn is_borrowed(&self) -> bool {
        matches!(self, Self::Borrowed { .. })
    }

    /// The borrowed storage's raw little-endian section views
    /// `(counts, edge_start, edge_label, edge_target)`, exactly sized.
    /// Hot loops bind these once instead of re-dispatching through the
    /// enum accessors per element.
    fn borrowed_views(&self) -> Option<SectionViews<'_>> {
        match self {
            Self::Owned { .. } => None,
            Self::Borrowed {
                buf,
                counts_off,
                edge_start_off,
                edge_label_off,
                edge_target_off,
                n_nodes,
                n_edges,
            } => Some((
                &buf[*counts_off..counts_off + 8 * n_nodes],
                &buf[*edge_start_off..edge_start_off + 4 * (n_nodes + 1)],
                &buf[*edge_label_off..edge_label_off + n_edges],
                &buf[*edge_target_off..edge_target_off + 4 * n_edges],
            )),
        }
    }

    /// Rebuilds the derived acceleration index. Deterministic in the
    /// logical arrays, so owned and borrowed storages of the same
    /// synopsis produce identical layouts.
    pub(crate) fn build_fastpath(&self) -> FastPath {
        match self {
            Self::Owned { edge_start, edge_label, edge_target, .. } => {
                FastPath::build(edge_start, edge_label, edge_target)
            }
            borrowed => {
                let (_, es, lb, tg) = borrowed.borrowed_views().expect("borrowed storage");
                FastPath::build_with(
                    borrowed.n_nodes(),
                    |v| (le_u32(es, 4 * v) as usize, le_u32(es, 4 * v + 4) as usize),
                    |e| lb[e],
                    |e| le_u32(tg, 4 * e),
                )
            }
        }
    }

    /// Structural validation shared by every decoder: the arrays must
    /// describe a tree the query path can walk without bounds panics, and
    /// the stored counts must be finite. Checks run *range-first* — an
    /// adversarial `edge_start` entry past the edge arrays is reported as
    /// an error before anything indexes with it.
    pub(crate) fn validate(&self) -> Result<(), DecodeError> {
        match self {
            Self::Owned { counts, edge_start, edge_label, edge_target } => validate_seq(
                counts.len(),
                edge_label.len(),
                counts.iter().copied(),
                edge_start.iter().map(|&x| x as usize),
                edge_label,
                edge_target.iter().map(|&x| x as usize),
            ),
            borrowed => {
                let (counts, es, lb, tg) = borrowed.borrowed_views().expect("borrowed storage");
                validate_seq(
                    borrowed.n_nodes(),
                    borrowed.n_edges(),
                    counts.chunks_exact(8).map(|c| le_f64(c, 0)),
                    es.chunks_exact(4).map(|c| le_u32(c, 0) as usize),
                    lb,
                    tg.chunks_exact(4).map(|c| le_u32(c, 0) as usize),
                )
            }
        }
    }
}

/// [`Storage::validate`] as one sequential sweep over storage-agnostic
/// element streams, so each backing monomorphizes to straight-line
/// chunked loads (no per-element enum dispatch, no random access).
///
/// The encoder numbers nodes in breadth-first order, so every edge points
/// *forward* (`target > source`). Validating that per edge makes a
/// separate reachability pass redundant: `edges = nodes − 1` targets, all
/// distinct (the in-degree bit set) and all nonzero, give every non-root
/// node exactly one incoming edge, and walking those edges backwards
/// strictly decreases the id until it reaches the root — so cycles and
/// disconnected components are impossible by construction.
fn validate_seq(
    n_nodes: usize,
    n_edges: usize,
    counts: impl Iterator<Item = f64>,
    mut edge_start: impl Iterator<Item = usize>,
    labels: &[u8],
    mut targets: impl Iterator<Item = usize>,
) -> Result<(), DecodeError> {
    let mut lo = edge_start.next().expect("edge_start holds n_nodes + 1 entries");
    if lo != 0 {
        return Err(DecodeError::Structural("CSR offsets do not span the edge arrays".into()));
    }
    let mut incoming = vec![false; n_nodes];
    for v in 0..n_nodes {
        let hi = edge_start.next().expect("edge_start holds n_nodes + 1 entries");
        if hi < lo {
            return Err(DecodeError::Structural(format!("CSR offsets decrease at node {v}")));
        }
        if hi > n_edges {
            return Err(DecodeError::Structural(format!(
                "CSR offsets exceed the edge arrays at node {v}"
            )));
        }
        for e in lo..hi {
            if e > lo && labels[e - 1] >= labels[e] {
                return Err(DecodeError::Structural(format!(
                    "edge labels of node {v} are not strictly sorted"
                )));
            }
            let t = targets.next().expect("targets hold n_edges entries");
            if t <= v || t >= n_nodes {
                return Err(DecodeError::Structural(format!(
                    "edge target {t} at node {v} breaks the BFS numbering \
                     (would be unreachable from the root)"
                )));
            }
            if incoming[t] {
                return Err(DecodeError::Structural(format!("node {t} has two incoming edges")));
            }
            incoming[t] = true;
        }
        lo = hi;
    }
    if lo != n_edges {
        return Err(DecodeError::Structural("CSR offsets do not span the edge arrays".into()));
    }
    for (v, c) in counts.enumerate() {
        if !c.is_finite() {
            return Err(DecodeError::BadField {
                field: "counts",
                detail: format!("non-finite count {c} at node {v}"),
            });
        }
    }
    Ok(())
}

/// Logical array equality across storages. Owned/owned compares the
/// `Vec`s directly; any mix involving a borrowed storage compares
/// element-wise through the accessors.
fn storage_logical_eq(a: &Storage, b: &Storage) -> bool {
    if let (
        Storage::Owned { counts: ca, edge_start: sa, edge_label: la, edge_target: ta },
        Storage::Owned { counts: cb, edge_start: sb, edge_label: lb, edge_target: tb },
    ) = (a, b)
    {
        return ca == cb && sa == sb && la == lb && ta == tb;
    }
    let (n, e) = (a.n_nodes(), a.n_edges());
    n == b.n_nodes()
        && e == b.n_edges()
        && (0..n).all(|v| a.count(v) == b.count(v))
        && (0..=n).all(|i| a.edge_start_at(i) == b.edge_start_at(i))
        && a.edge_labels(0, e) == b.edge_labels(0, e)
        && (0..e).all(|i| a.edge_target_at(i) == b.edge_target_at(i))
}

/// An immutable, flat, serializable `count_Δ` synopsis.
///
/// Node `0` is the root (the empty string); nodes are numbered in
/// breadth-first order, so every node's children occupy a contiguous id
/// range and the edge arrays of consecutive nodes are adjacent in memory.
/// For node `v`, the outgoing edges are
/// `edge_label[edge_start[v]..edge_start[v+1]]` (strictly increasing
/// labels) with parallel targets in `edge_target`; its noisy count is
/// `counts[v]`.
#[derive(Debug, Clone)]
pub struct FrozenSynopsis {
    /// The four CSR arrays, owned or borrowed from a shared v2 buffer.
    pub(crate) store: Storage,
    pub(crate) mode: CountMode,
    pub(crate) privacy: PrivacyParams,
    pub(crate) alpha_counts: f64,
    pub(crate) alpha_absent: f64,
    pub(crate) n_docs: usize,
    pub(crate) max_len: usize,
    /// Whether [`Self::to_bytes`] emits the compressed v2 dialect: false
    /// after [`Self::freeze`], else the dialect the bytes arrived in.
    pub(crate) compressed: bool,
    /// Degree-adaptive branchless edge index (SWAR blocks / direct
    /// tables, see `fastpath`). Derived data: rebuilt identically by
    /// [`Self::freeze`] and [`Self::from_bytes`], never serialized — the
    /// wire format is byte-identical to a synopsis without it.
    pub(crate) fast: FastPath,
}

/// Equality is *logical*: same metadata and same array contents. Storage
/// representation (owned vs borrowed) and the wire dialect are serving
/// details — a borrowed decode of an uncompressed snapshot equals the
/// owned decode of its compressed twin. (`fast` is derived
/// deterministically from the arrays, so it cannot differ when the arrays
/// agree.)
impl PartialEq for FrozenSynopsis {
    fn eq(&self, other: &Self) -> bool {
        self.mode == other.mode
            && self.privacy == other.privacy
            && self.alpha_counts == other.alpha_counts
            && self.alpha_absent == other.alpha_absent
            && self.n_docs == other.n_docs
            && self.max_len == other.max_len
            && storage_logical_eq(&self.store, &other.store)
    }
}

impl FrozenSynopsis {
    /// Flattens a built structure into the frozen serving layout.
    /// One pass of `O(nodes)` work; the input is unchanged (post-processing).
    pub fn freeze(structure: &PrivateCountStructure) -> Self {
        let trie = structure.trie();
        let n = trie.len();
        // Breadth-first order: children (already label-sorted in the arena)
        // receive contiguous frozen ids, so target ranges are contiguous too.
        let mut order: Vec<u32> = Vec::with_capacity(n);
        order.push(Trie::<f64>::ROOT);
        let mut head = 0usize;
        while head < order.len() {
            let u = order[head];
            head += 1;
            order.extend(trie.children(u));
        }
        debug_assert_eq!(order.len(), n);
        let mut frozen_of = vec![0u32; n];
        for (fid, &tid) in order.iter().enumerate() {
            frozen_of[tid as usize] = fid as u32;
        }
        let mut counts = Vec::with_capacity(n);
        let mut edge_start = Vec::with_capacity(n + 1);
        let mut edge_label = Vec::with_capacity(n.saturating_sub(1));
        let mut edge_target = Vec::with_capacity(n.saturating_sub(1));
        edge_start.push(0);
        for &tid in &order {
            counts.push(*trie.value(tid));
            for &(sym, c) in trie.edges(tid) {
                edge_label.push(sym);
                edge_target.push(frozen_of[c as usize]);
            }
            edge_start.push(edge_label.len() as u32);
        }
        let (n_docs, max_len) = structure.db_params();
        let store = Storage::Owned { counts, edge_start, edge_label, edge_target };
        let fast = store.build_fastpath();
        Self {
            store,
            fast,
            mode: structure.mode(),
            privacy: structure.privacy(),
            alpha_counts: structure.alpha_counts(),
            alpha_absent: structure.alpha_absent(),
            n_docs,
            max_len,
            compressed: false,
        }
    }

    /// The frozen node spelling `pattern`, if present — the branchless
    /// tiered walk (`fastpath`): one SWAR block probe or direct-table
    /// load per pattern byte.
    #[inline]
    fn locate(&self, pattern: &[u8]) -> Option<u32> {
        let mut cur = 0u32;
        for &b in pattern {
            cur = self.fast.step(cur, b)?;
        }
        Some(cur)
    }

    /// Reference walk: per-byte binary search over the CSR label ranges.
    /// Kept (not dead code) as the differential-testing oracle for the
    /// fast path and as the baseline the serving benchmarks compare
    /// against; answers are bit-identical to [`Self::locate`].
    #[inline]
    fn locate_naive(&self, pattern: &[u8]) -> Option<u32> {
        let mut cur = 0u32;
        for &b in pattern {
            let lo = self.store.edge_start_at(cur as usize);
            let hi = self.store.edge_start_at(cur as usize + 1);
            let i = self.store.edge_labels(lo, hi).binary_search(&b).ok()?;
            cur = self.store.edge_target_at(lo + i);
        }
        Some(cur)
    }

    /// Walks four patterns in lockstep, one byte per pattern per
    /// iteration: the four child-step loads are independent, so the CPU
    /// overlaps their latencies instead of serializing one walk at a
    /// time. A finished pattern (exhausted or missed) keeps its state.
    #[inline]
    fn locate4(&self, pats: [&[u8]; 4]) -> [Option<u32>; 4] {
        let mut cur = [Some(0u32); 4];
        let max_len = pats.iter().map(|p| p.len()).max().unwrap_or(0);
        for d in 0..max_len {
            for i in 0..4 {
                if let Some(c) = cur[i] {
                    if let Some(&b) = pats[i].get(d) {
                        cur[i] = self.fast.step(c, b);
                    }
                }
            }
        }
        cur
    }

    #[inline]
    fn count_of(&self, node: Option<u32>) -> f64 {
        match node {
            Some(v) => self.store.count(v as usize),
            None => 0.0,
        }
    }

    /// Noisy `count_Δ(P, D)`; absent patterns return 0, exactly as
    /// [`PrivateCountStructure::query`]. Allocation-free; one branchless
    /// edge probe per pattern byte (`O(|P|)` for fanout ≤ 8 and ≥ 32,
    /// `O(|P| · ⌈σ/8⌉)` worst case in between).
    #[inline]
    pub fn query(&self, pattern: &[u8]) -> f64 {
        self.count_of(self.locate(pattern))
    }

    /// [`Self::query`] through the reference binary-search walk — the
    /// pre-acceleration `O(|P| log σ)` path. Exists so tests, benchmarks
    /// and the serving load generator can assert, at runtime, that the
    /// fast path is behaviorally invisible (bit-identical answers).
    #[inline]
    pub fn query_naive(&self, pattern: &[u8]) -> f64 {
        self.count_of(self.locate_naive(pattern))
    }

    /// Whether the pattern is represented in the synopsis.
    #[inline]
    pub fn contains(&self, pattern: &[u8]) -> bool {
        self.locate(pattern).is_some()
    }

    /// [`Self::contains`] through the reference binary-search walk.
    #[inline]
    pub fn contains_naive(&self, pattern: &[u8]) -> bool {
        self.locate_naive(pattern).is_some()
    }

    /// The lockstep batch kernel: answers `patterns` into `out`
    /// (equal lengths), four patterns per iteration.
    fn query_batch_into(&self, patterns: &[&[u8]], out: &mut [f64]) {
        debug_assert_eq!(patterns.len(), out.len());
        let mut quads = patterns.chunks_exact(4);
        let mut outs = out.chunks_exact_mut(4);
        for (quad, o) in quads.by_ref().zip(outs.by_ref()) {
            let located = self.locate4([quad[0], quad[1], quad[2], quad[3]]);
            for (slot, node) in o.iter_mut().zip(located) {
                *slot = self.count_of(node);
            }
        }
        for (p, slot) in quads.remainder().iter().zip(outs.into_remainder()) {
            *slot = self.query(p);
        }
    }

    /// Answers a batch of queries in order. One output allocation; the
    /// per-pattern lookups are allocation-free and advance four patterns
    /// per iteration (`locate4`) to hide load latency.
    pub fn query_batch(&self, patterns: &[&[u8]]) -> Vec<f64> {
        let mut out = vec![0.0f64; patterns.len()];
        self.query_batch_into(patterns, &mut out);
        out
    }

    /// Answers a batch of queries across `threads` scoped worker threads
    /// (clamped to the batch size; `0` means one thread). Same output as
    /// [`Self::query_batch`] — the synopsis is immutable, so workers share
    /// it by reference. A single-threaded call (or a batch that fits one
    /// chunk) takes a direct sequential path: no scope, no spawn.
    pub fn query_batch_parallel(&self, patterns: &[&[u8]], threads: usize) -> Vec<f64> {
        if patterns.is_empty() {
            return Vec::new();
        }
        let threads = threads.clamp(1, patterns.len());
        let chunk = patterns.len().div_ceil(threads);
        if threads == 1 || chunk >= patterns.len() {
            return self.query_batch(patterns);
        }
        let mut out = vec![0.0f64; patterns.len()];
        std::thread::scope(|scope| {
            for (pats, outs) in patterns.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move || self.query_batch_into(pats, outs));
            }
        });
        out
    }

    /// The count mode (`Δ`).
    #[inline]
    pub fn mode(&self) -> CountMode {
        self.mode
    }

    /// The privacy guarantee of the construction that produced this synopsis.
    #[inline]
    pub fn privacy(&self) -> PrivacyParams {
        self.privacy
    }

    /// Error bound on stored noisy counts (high probability).
    #[inline]
    pub fn alpha_counts(&self) -> f64 {
        self.alpha_counts
    }

    /// True-count bound for strings not present in the synopsis.
    #[inline]
    pub fn alpha_absent(&self) -> f64 {
        self.alpha_absent
    }

    /// Overall additive error `α` (present or absent patterns).
    pub fn alpha(&self) -> f64 {
        self.alpha_counts.max(self.alpha_absent)
    }

    /// Number of nodes, root included.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.store.n_nodes()
    }

    /// Database size parameters `(n, ℓ)` the synopsis was built from.
    pub fn db_params(&self) -> (usize, usize) {
        (self.n_docs, self.max_len)
    }

    /// Whether the CSR arrays alias a shared input buffer (zero-copy v2
    /// decode via [`Self::from_bytes_shared`]) rather than owned `Vec`s.
    #[inline]
    pub fn is_borrowed(&self) -> bool {
        self.store.is_borrowed()
    }

    /// Size of [`Self::to_bytes`] in bytes, from a size-only encoding
    /// pass, so a layout change cannot silently desync the two.
    pub fn serialized_len(&self) -> usize {
        codec_v2::encoded_len(self, self.compressed)
    }

    /// Bytes of in-memory acceleration data (`fastpath` blocks and
    /// tables) carried on top of the serialized arrays. Never shipped:
    /// rebuilt locally on decode.
    pub fn accel_memory_bytes(&self) -> usize {
        self.fast.memory_bytes()
    }

    /// Serializes to `DPSF` v2 in this value's dialect: uncompressed
    /// after [`Self::freeze`], otherwise the dialect it was decoded from.
    /// Canonical: `from_bytes(b)?.to_bytes() == b`.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec_v2::encode(self, self.compressed)
    }

    /// Serializes to the chosen v2 dialect, whichever one [`Self::to_bytes`]
    /// would emit. With `compressed` the edge arrays use delta/gap varints
    /// (smaller, decodes owned); without, sections are raw little-endian
    /// arrays eligible for zero-copy borrowed decode via
    /// [`Self::from_bytes_shared`].
    pub fn to_bytes_v2(&self, compressed: bool) -> Vec<u8> {
        codec_v2::encode(self, compressed)
    }

    /// Parses a `DPSF` v2 snapshot of either dialect into fully owned
    /// storage.
    ///
    /// Decoding is defensive: every read is length-checked, declared
    /// section sizes are validated against the actual input length
    /// *before* any allocation, the checksums must match, and the decoded
    /// CSR arrays must describe a well-formed tree (monotone offsets,
    /// sorted labels, every non-root node exactly one incoming edge, every
    /// node reachable from the root) carrying only finite counts.
    /// Truncated, corrupted or other-version inputs (the retired v1
    /// included) return `Err`, never panic, and accepted encodings are
    /// canonical: `from_bytes(b)?.to_bytes() == b`.
    ///
    /// # Errors
    /// A [`DecodeError`] describing the first defect found.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        codec_v2::decode_owned(bytes)
    }

    /// Like [`Self::from_bytes`], but hands the decoder shared ownership
    /// of the input. An uncompressed snapshot decodes *borrowed*: the
    /// arrays point into `buf` with zero per-array copies, and the buffer
    /// stays alive for as long as the synopsis does. Compressed inputs
    /// fall back to an owned decode. Validation is identical to
    /// [`Self::from_bytes`] in every case.
    pub fn from_bytes_shared(buf: Arc<[u8]>) -> Result<Self, DecodeError> {
        codec_v2::decode_shared(&buf)
    }
}

impl PrivateCountStructure {
    /// Freezes this structure into the flat serving layout
    /// ([`FrozenSynopsis`]). Post-processing: no privacy cost.
    pub fn freeze(&self) -> FrozenSynopsis {
        FrozenSynopsis::freeze(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_structure() -> PrivateCountStructure {
        let mut trie: Trie<f64> = Trie::new(20.0);
        let a = trie.insert_path(b"a", |_| 0.0);
        let ab = trie.insert_path(b"ab", |_| 0.0);
        let ac = trie.insert_path(b"ac", |_| 0.0);
        let b = trie.insert_path(b"b", |_| 0.0);
        *trie.value_mut(a) = 8.25;
        *trie.value_mut(ab) = 4.125;
        *trie.value_mut(ac) = 3.5;
        *trie.value_mut(b) = 6.0;
        PrivateCountStructure::new(
            trie,
            CountMode::Substring,
            PrivacyParams::pure(1.0),
            1.5,
            2.5,
            6,
            5,
        )
    }

    #[test]
    fn freeze_preserves_queries_and_metadata() {
        let s = toy_structure();
        let f = s.freeze();
        for pat in [&b""[..], b"a", b"ab", b"ac", b"b", b"ba", b"abc", b"zz"] {
            assert_eq!(f.query(pat).to_bits(), s.query(pat).to_bits(), "pattern {pat:?}");
            assert_eq!(f.contains(pat), s.contains(pat), "pattern {pat:?}");
        }
        assert_eq!(f.node_count(), s.node_count());
        assert_eq!(f.mode(), s.mode());
        assert_eq!(f.privacy(), s.privacy());
        assert_eq!(f.alpha_counts(), s.alpha_counts());
        assert_eq!(f.alpha_absent(), s.alpha_absent());
        assert_eq!(f.alpha(), s.alpha());
        assert_eq!(f.db_params(), s.db_params());
        assert_eq!(f.to_bytes(), f.to_bytes_v2(false), "freeze emits uncompressed v2");
        assert!(!f.is_borrowed());
    }

    #[test]
    fn batch_paths_agree_with_single_queries() {
        let s = toy_structure();
        let f = s.freeze();
        let patterns: Vec<&[u8]> = vec![b"", b"a", b"ab", b"ac", b"b", b"zz", b"abc"];
        let single: Vec<f64> = patterns.iter().map(|p| f.query(p)).collect();
        assert_eq!(f.query_batch(&patterns), single);
        for threads in [0usize, 1, 2, 7, 64] {
            assert_eq!(f.query_batch_parallel(&patterns, threads), single, "threads={threads}");
        }
        assert!(f.query_batch_parallel(&[], 4).is_empty());
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let s = toy_structure();
        let f = s.freeze();
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), f.serialized_len());
        let back = FrozenSynopsis::from_bytes(&bytes).expect("roundtrip parses");
        assert_eq!(back, f);
    }

    #[test]
    fn v2_roundtrips_in_both_dialects() {
        let f = toy_structure().freeze();
        for compressed in [false, true] {
            let bytes = f.to_bytes_v2(compressed);
            let back = FrozenSynopsis::from_bytes(&bytes).expect("v2 parses");
            assert_eq!(back, f, "compressed={compressed}");
            assert!(!back.is_borrowed(), "from_bytes decodes owned");
            // Canonical: re-serializing in the dialect it arrived in
            // reproduces the input bytes, and serialized_len agrees.
            assert_eq!(back.to_bytes(), bytes, "compressed={compressed}");
            assert_eq!(back.serialized_len(), bytes.len(), "compressed={compressed}");
        }
    }

    #[test]
    fn v2_borrowed_decode_answers_identically() {
        let f = toy_structure().freeze();
        let shared: Arc<[u8]> = f.to_bytes_v2(false).into();
        let borrowed = FrozenSynopsis::from_bytes_shared(Arc::clone(&shared)).expect("parses");
        assert!(borrowed.is_borrowed(), "uncompressed v2 must borrow");
        assert_eq!(borrowed, f);
        for pat in [&b""[..], b"a", b"ab", b"ac", b"b", b"ba", b"abc", b"zz"] {
            assert_eq!(borrowed.query(pat).to_bits(), f.query(pat).to_bits(), "pattern {pat:?}");
            assert_eq!(
                borrowed.query_naive(pat).to_bits(),
                f.query_naive(pat).to_bits(),
                "pattern {pat:?}"
            );
        }
        // Borrowed re-encodes canonically too.
        assert_eq!(borrowed.to_bytes(), &shared[..]);
        // Compressed inputs fall back to owned decodes.
        let compressed: Arc<[u8]> = f.to_bytes_v2(true).into();
        assert!(!FrozenSynopsis::from_bytes_shared(compressed).expect("parses").is_borrowed());
    }

    #[test]
    fn v2_compressed_is_smaller_than_uncompressed() {
        // Measure the varint savings on a realistic size: a few hundred
        // nodes (all strings of length ≤ 3 over a 6-letter alphabet)
        // rather than the 5-node toy.
        let mut trie: Trie<f64> = Trie::new(100.0);
        let sigma = b"abcdef";
        for (i, &a) in sigma.iter().enumerate() {
            for (j, &b) in sigma.iter().enumerate() {
                for (k, &c) in sigma.iter().enumerate() {
                    let id = trie.insert_path(&[a, b, c], |_| 0.0);
                    *trie.value_mut(id) = (i * 36 + j * 6 + k) as f64;
                }
            }
        }
        let f = PrivateCountStructure::new(
            trie,
            CountMode::Substring,
            PrivacyParams::pure(1.0),
            1.5,
            2.5,
            50,
            8,
        )
        .freeze();
        let v2 = f.to_bytes_v2(false).len();
        let v2c = f.to_bytes_v2(true).len();
        assert!(v2c < v2, "compressed v2 ({v2c}) must undercut uncompressed v2 ({v2})");
        // And the compressed dialect still roundtrips bit-exactly.
        let back = FrozenSynopsis::from_bytes(&f.to_bytes_v2(true)).expect("parses");
        assert_eq!(back, f);
    }

    #[test]
    fn root_only_synopsis_works() {
        let trie: Trie<f64> = Trie::new(7.5);
        let s = PrivateCountStructure::new(
            trie,
            CountMode::Document,
            PrivacyParams::approx(0.5, 1e-8),
            1.0,
            2.0,
            3,
            4,
        );
        let f = s.freeze();
        assert_eq!(f.node_count(), 1);
        assert_eq!(f.query(b""), 7.5);
        assert_eq!(f.query(b"a"), 0.0);
        let back = FrozenSynopsis::from_bytes(&f.to_bytes()).expect("parses");
        assert_eq!(back, f);
        for compressed in [false, true] {
            let bytes = f.to_bytes_v2(compressed);
            let back = FrozenSynopsis::from_bytes(&bytes).expect("v2 parses");
            assert_eq!(back, f);
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = toy_structure().freeze().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                FrozenSynopsis::from_bytes(&bytes[..len]).is_err(),
                "prefix of length {len} must not parse"
            );
        }
        // Trailing garbage is rejected too.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(FrozenSynopsis::from_bytes(&extended).is_err());
    }

    #[test]
    fn version_and_magic_mismatches_are_rejected() {
        let bytes = toy_structure().freeze().to_bytes();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(FrozenSynopsis::from_bytes(&wrong_magic)
            .unwrap_err()
            .to_string()
            .contains("magic"));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(FrozenSynopsis::from_bytes(&wrong_version)
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    /// Overwrites header bytes `bytes[at..]` with `patch` and re-stamps
    /// the v2 header checksum (the last 8 header bytes, covering all
    /// before them), simulating an adversary who keeps the frame valid.
    fn patch_and_restamp(bytes: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
        let sum_off = codec_v2::HEADER_LEN - 8;
        assert!(at + patch.len() <= sum_off, "patch must stay inside the header fields");
        let mut out = bytes.to_vec();
        out[at..at + patch.len()].copy_from_slice(patch);
        let sum = crate::codec::fnv1a(&out[..sum_off]);
        out[sum_off..codec_v2::HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// v2 header offsets of the clip level and δ (see `codec_v2`).
    const CLIP_OFF: usize = 16;
    const DELTA_OFF: usize = 32;

    #[test]
    fn nonzero_clip_with_non_clipped_tag_is_rejected() {
        // toy_structure is Substring (tag 1, clip field 0); setting the
        // clip field with a fixed checksum must fail canonicality.
        let bytes = toy_structure().freeze().to_bytes();
        let forged = patch_and_restamp(&bytes, CLIP_OFF, &5u64.to_le_bytes());
        let err = FrozenSynopsis::from_bytes(&forged).unwrap_err();
        assert!(err.to_string().contains("clip"), "unexpected error: {err}");
        // The same patch on a Clipped-mode synopsis is meaningful and fine.
        let mut trie: Trie<f64> = Trie::new(1.0);
        trie.insert_path(b"x", |_| 0.5);
        let clipped = PrivateCountStructure::new(
            trie,
            CountMode::Clipped(7),
            PrivacyParams::pure(1.0),
            1.0,
            2.0,
            3,
            4,
        )
        .freeze();
        for compressed in [false, true] {
            let bytes = clipped.to_bytes_v2(compressed);
            let reclipped = patch_and_restamp(&bytes, CLIP_OFF, &5u64.to_le_bytes());
            let parsed = FrozenSynopsis::from_bytes(&reclipped).expect("valid clipped encoding");
            assert_eq!(parsed.mode(), CountMode::Clipped(5));
            assert_eq!(parsed.to_bytes(), reclipped, "canonical re-serialization");
        }
    }

    #[test]
    fn negative_zero_delta_is_rejected() {
        // toy_structure is pure DP (δ = +0.0); flipping δ's sign bit with
        // a restamped checksum must fail rather than decode to a synopsis
        // that re-serializes differently.
        let f = toy_structure().freeze();
        for compressed in [false, true] {
            let bytes = f.to_bytes_v2(compressed);
            let forged = patch_and_restamp(&bytes, DELTA_OFF, &(-0.0f64).to_bits().to_le_bytes());
            let err = FrozenSynopsis::from_bytes(&forged).unwrap_err();
            assert!(err.to_string().contains("delta"), "unexpected error: {err}");
        }
    }

    #[test]
    fn disconnected_cycle_is_rejected() {
        // Hand-build the arrays for: childless root, plus nodes 1 ⇄ 2
        // forming a cycle. Every non-root node has in-degree exactly one
        // and edges = nodes − 1, so only the BFS-order edge check (which
        // is what makes every node reachable from the root) can catch it:
        // the cycle necessarily contains a backward edge (2 → 1).
        let good = toy_structure().freeze();
        let cyclic = FrozenSynopsis {
            store: Storage::Owned {
                counts: vec![1.0, 2.0, 3.0],
                edge_start: vec![0, 0, 1, 2],
                edge_label: vec![b'a', b'a'],
                edge_target: vec![2, 1],
            },
            ..good
        };
        let err = FrozenSynopsis::from_bytes(&cyclic.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("BFS"), "unexpected error: {err}");
    }

    #[test]
    fn single_bit_flips_are_rejected() {
        let bytes = toy_structure().freeze().to_bytes();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    FrozenSynopsis::from_bytes(&corrupt).is_err(),
                    "bit {bit} of byte {pos} flipped silently"
                );
            }
        }
    }
}
