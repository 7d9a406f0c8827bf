//! Generalized suffix index over a document corpus.
//!
//! Implements the paper's indexing substrate (proof of Lemma 7): the suffix
//! structure of `S = S_1 $_1 S_2 $_2 … S_n $_n` where the `$_i` are `n`
//! distinct sentinels outside `Σ`. We encode the concatenation over `u32`
//! symbols — sentinel `i` maps to `i`, and byte `b` maps to `n + b` — so all
//! sentinels are distinct, smaller than every letter, and SA-IS applies
//! directly.
//!
//! Every count the paper's mechanisms privatize reduces to a suffix-array
//! interval over this text:
//!
//! * `count(P, D)` = interval width ([`CorpusIndex::count`]);
//! * `count_Δ(P, D)` = per-document clipped sum over the interval
//!   ([`CorpusIndex::count_clipped`]);
//! * `count_1(P, D)` (Document Count) = number of distinct documents in the
//!   interval ([`CorpusIndex::document_count`], backed by the
//!   prev-occurrence + wavelet-matrix structure in
//!   [`crate::doc_counter`]).

use dpsc_strkit::alphabet::{Alphabet, Database};
use dpsc_strkit::hash::{hash_symbols, HashValue, RollingHash};
use dpsc_strkit::lcp::LcpArray;
use dpsc_strkit::search::{find_interval, SaInterval};
use dpsc_strkit::suffix_array::SuffixArray;

use crate::doc_counter::DocDistinctCounter;

/// Widest suffix-array interval whose distinct documents are counted by
/// scanning its document ids. Most intervals the builders query are this
/// narrow (on 1024 × 64 DNA reads, 80% have width ≤ 3), and there a few
/// independent loads beat the counter's chain of one dependent rank step per
/// bit of `N`.
const NARROW_SCAN_WIDTH: usize = 16;

/// Immutable index over a [`Database`].
#[derive(Debug, Clone)]
pub struct CorpusIndex {
    /// Concatenated text with per-document sentinels, in `u32` encoding.
    text: Vec<u32>,
    /// Document id owning each text position (sentinels belong to their
    /// document).
    doc_of: Vec<u32>,
    /// Start offset of each document in `text`.
    doc_start: Vec<u32>,
    sa: SuffixArray,
    lcp: LcpArray,
    hash: RollingHash,
    n_docs: usize,
    max_len: usize,
    alphabet: Alphabet,
    doc_counter: DocDistinctCounter,
}

impl CorpusIndex {
    /// Builds the index in `O(N log N)` time for `N = Σ|S_i| + n`
    /// (the `log` comes from the document counter's wavelet matrix, one
    /// linear pass per bit of `N`; the suffix array itself is linear).
    pub fn build(db: &Database) -> Self {
        let n_docs = db.n();
        let total: usize = db.total_len() + n_docs;
        let mut text = Vec::with_capacity(total);
        let mut doc_of = Vec::with_capacity(total);
        let mut doc_start = Vec::with_capacity(n_docs);
        for (i, doc) in db.documents().iter().enumerate() {
            doc_start.push(text.len() as u32);
            for &b in doc {
                text.push(n_docs as u32 + b as u32);
                doc_of.push(i as u32);
            }
            text.push(i as u32); // sentinel $_i
            doc_of.push(i as u32);
        }
        let sigma = n_docs + 256;
        // Each step's scratch (SA-IS levels, the document counter's
        // partition buffers, Φ) is freed before the next step allocates, so
        // the peak stays near the largest single transient plus the
        // finished parts.
        let sa = SuffixArray::from_ints(&text, sigma);
        let doc_counter = DocDistinctCounter::build(&sa, &doc_of);
        let lcp = LcpArray::build(&text, &sa);
        let hash = RollingHash::new(&text);
        Self {
            text,
            doc_of,
            doc_start,
            sa,
            lcp,
            hash,
            n_docs,
            max_len: db.max_len(),
            alphabet: db.alphabet(),
            doc_counter,
        }
    }

    /// Number of documents `n`.
    #[inline]
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Declared maximum document length `ℓ`.
    #[inline]
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Alphabet size `|Σ|` of the underlying database.
    #[inline]
    pub fn alphabet_size(&self) -> usize {
        self.alphabet.size()
    }

    /// The database alphabet.
    #[inline]
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// Smallest byte value of the alphabet (the alphabet is a contiguous
    /// byte range; see [`Alphabet`]).
    #[inline]
    pub fn alphabet_base(&self) -> u8 {
        self.alphabet.base()
    }

    /// Length of the concatenated text (including sentinels).
    #[inline]
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// The underlying suffix array.
    #[inline]
    pub fn suffix_array(&self) -> &SuffixArray {
        &self.sa
    }

    /// The LCP array companion.
    #[inline]
    pub fn lcp(&self) -> &LcpArray {
        &self.lcp
    }

    /// Bytes owned on the heap by the index (allocated capacity of every
    /// array it keeps).
    pub fn heap_bytes(&self) -> usize {
        let u32s = self.text.capacity() + self.doc_of.capacity() + self.doc_start.capacity();
        u32s * std::mem::size_of::<u32>()
            + self.sa.heap_bytes()
            + self.lcp.heap_bytes()
            + self.hash.heap_bytes()
            + self.doc_counter.heap_bytes()
    }

    /// Encodes a pattern byte into the internal `u32` symbol space.
    #[inline]
    fn encode(&self, b: u8) -> u32 {
        self.n_docs as u32 + b as u32
    }

    /// Suffix-array interval of `pattern` (as raw bytes over `Σ`).
    ///
    /// `O(|P| log N)`. Patterns never contain sentinels, so an interval
    /// position always corresponds to an occurrence fully inside one
    /// document.
    pub fn interval(&self, pattern: &[u8]) -> SaInterval {
        let encoded: Vec<u32> = pattern.iter().map(|&b| self.encode(b)).collect();
        find_interval(&encoded, &self.text, &self.sa)
    }

    /// Narrows a suffix-array interval by one more pattern symbol: given
    /// the interval of suffixes starting with some `P` of length `depth`,
    /// returns the interval of suffixes starting with `P·b`. `O(log N)`.
    ///
    /// This is the incremental form of [`CorpusIndex::interval`]; walking a
    /// pattern symbol-by-symbol costs `O(|P| log N)` total and lets trie
    /// construction share work across candidates with common prefixes. It
    /// is the innermost operation of Step 2 (exact-count trie), so the
    /// binary searches are inlined and allocation-free.
    #[inline]
    pub fn extend_interval(&self, iv: SaInterval, depth: usize, b: u8) -> SaInterval {
        if iv.is_empty() {
            return SaInterval::EMPTY;
        }
        let c = self.encode(b);
        let sa = self.sa.sa();
        let text = &self.text[..];
        // Symbol of rank r at offset `depth`; suffixes shorter than depth+1
        // cannot occur here for sentinel-free prefixes, but guard anyway by
        // treating them as minimal.
        #[inline]
        fn sym(sa: &[u32], text: &[u32], r: u32, depth: usize) -> u32 {
            let pos = sa[r as usize] as usize + depth;
            if pos < text.len() {
                text[pos]
            } else {
                0
            }
        }
        let lo = iv.lo + partition_u32(iv.hi - iv.lo, |off| sym(sa, text, iv.lo + off, depth) < c);
        let hi = iv.lo + partition_u32(iv.hi - iv.lo, |off| sym(sa, text, iv.lo + off, depth) <= c);
        SaInterval { lo, hi }
    }

    /// The full interval `[0, N)` (every suffix matches the empty pattern).
    pub fn full_interval(&self) -> SaInterval {
        SaInterval { lo: 0, hi: self.text.len() as u32 }
    }

    /// `count(P, D)`: total occurrences of `pattern` across all documents.
    ///
    /// For the empty pattern the paper defines `count(ε, S) = |S|`, so the
    /// database-level count is the total symbol count.
    pub fn count(&self, pattern: &[u8]) -> usize {
        if pattern.is_empty() {
            return self.text.len() - self.n_docs;
        }
        self.interval(pattern).count()
    }

    /// `count_Δ(P, D) = Σ_S min(Δ, count(P, S))` (paper §1.1).
    ///
    /// `O(|P| log N + occ)` via interval iteration with a per-document tally.
    pub fn count_clipped(&self, pattern: &[u8], delta: usize) -> u64 {
        assert!(delta >= 1, "Δ must be at least 1");
        if pattern.is_empty() {
            // count(ε, S) = |S|, clipped at Δ per document.
            return self.doc_lengths().map(|len| len.min(delta) as u64).sum();
        }
        let iv = self.interval(pattern);
        self.count_clipped_in_interval(iv, delta)
    }

    /// Clipped count over a precomputed interval.
    ///
    /// Allocation-free on the hot path: the per-document tally lives in a
    /// thread-local dense scratch (one `u32` per document plus a touched
    /// list), reset by touched entries after each call, so repeated calls —
    /// one per candidate pair in Step 1 and one per new trie node in
    /// Step 2 — never hit the allocator or hash a key.
    pub fn count_clipped_in_interval(&self, iv: SaInterval, delta: usize) -> u64 {
        if iv.is_empty() {
            return 0;
        }
        if delta == 1 {
            // count_1 is exactly Document Count.
            return self.document_count_in_interval(iv) as u64;
        }
        if delta >= self.max_len {
            // min(Δ, count(P,S)) = count(P,S) whenever Δ ≥ ℓ ≥ count(P,S).
            return iv.count() as u64;
        }
        thread_local! {
            static TALLY: std::cell::RefCell<(Vec<u32>, Vec<u32>)> =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        TALLY.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let (counts, touched) = &mut *scratch;
            if counts.len() < self.n_docs {
                counts.resize(self.n_docs, 0);
            }
            debug_assert!(touched.is_empty());
            let sa = self.sa.sa();
            for r in iv.lo..iv.hi {
                let doc = self.doc_of[sa[r as usize] as usize];
                let slot = &mut counts[doc as usize];
                if *slot == 0 {
                    touched.push(doc);
                }
                *slot += 1;
            }
            let mut total = 0u64;
            for &doc in touched.iter() {
                let slot = &mut counts[doc as usize];
                total += (*slot as usize).min(delta) as u64;
                *slot = 0;
            }
            touched.clear();
            total
        })
    }

    /// `count_1(P, D)` (Document Count): number of documents containing
    /// `pattern`. `O(|P| log N)`: the interval search plus `O(log N)` rank
    /// steps in the document counter.
    pub fn document_count(&self, pattern: &[u8]) -> usize {
        if pattern.is_empty() {
            return self.n_docs;
        }
        let iv = self.interval(pattern);
        self.document_count_in_interval(iv)
    }

    /// Distinct documents in a precomputed interval: a scan of the
    /// occurrences' document ids when there are at most 16 of them,
    /// otherwise `O(log N)` rank steps in the document counter.
    pub fn document_count_in_interval(&self, iv: SaInterval) -> usize {
        if iv.is_empty() {
            return 0;
        }
        if iv.count() > NARROW_SCAN_WIDTH {
            return self.doc_counter.distinct(iv);
        }
        let mut seen = [0u32; NARROW_SCAN_WIDTH];
        let mut k = 0;
        for &pos in &self.sa.sa()[iv.lo as usize..iv.hi as usize] {
            let doc = self.doc_of[pos as usize];
            if !seen[..k].contains(&doc) {
                seen[k] = doc;
                k += 1;
            }
        }
        k
    }

    /// All occurrences of `pattern` as `(document, offset_in_document)`
    /// pairs, unordered.
    pub fn occurrences(&self, pattern: &[u8]) -> Vec<(usize, usize)> {
        let iv = self.interval(pattern);
        (iv.lo..iv.hi)
            .map(|r| {
                let pos = self.sa.sa()[r as usize] as usize;
                let doc = self.doc_of[pos] as usize;
                (doc, pos - self.doc_start[doc] as usize)
            })
            .collect()
    }

    /// Length of each document.
    pub fn doc_lengths(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_docs).map(move |i| {
            let start = self.doc_start[i] as usize;
            let end = if i + 1 < self.n_docs {
                self.doc_start[i + 1] as usize - 1 // exclude sentinel
            } else {
                self.text.len() - 1
            };
            end - start
        })
    }

    /// Number of symbols of position `pos`'s document that remain at and
    /// after `pos` (i.e. before its sentinel). Occurrence starts with
    /// `remaining ≥ |P|` are exactly the valid in-document matches.
    pub fn remaining_in_doc(&self, pos: usize) -> usize {
        let doc = self.doc_of[pos] as usize;
        let sentinel = if doc + 1 < self.n_docs {
            self.doc_start[doc + 1] as usize - 1
        } else {
            self.text.len() - 1
        };
        sentinel - pos
    }

    /// Document id owning text position `pos`.
    #[inline]
    pub fn doc_of(&self, pos: usize) -> usize {
        self.doc_of[pos] as usize
    }

    /// Rolling hash of `text[pos .. pos + len)` (internal symbol space, so
    /// hashes are only comparable to other corpus hashes and to
    /// [`CorpusIndex::hash_pattern`] values).
    pub fn substring_hash(&self, pos: usize, len: usize) -> HashValue {
        self.hash.substring(pos, pos + len)
    }

    /// Hash of two corpus substrings concatenated.
    pub fn concat_hash(&self, a: HashValue, b: HashValue) -> HashValue {
        self.hash.concat(a, b)
    }

    /// Hash of an arbitrary pattern in the corpus symbol space, in one
    /// allocation-free pass.
    pub fn hash_pattern(&self, pattern: &[u8]) -> HashValue {
        hash_symbols(pattern.iter().map(|&b| self.encode(b)))
    }

    /// Decodes `text[pos .. pos+len)` back to raw bytes.
    ///
    /// # Panics
    /// Panics if the range crosses a sentinel.
    pub fn decode_substring(&self, pos: usize, len: usize) -> Vec<u8> {
        self.text[pos..pos + len]
            .iter()
            .map(|&c| {
                assert!(c >= self.n_docs as u32, "range crosses a sentinel");
                (c - self.n_docs as u32) as u8
            })
            .collect()
    }
}

/// First `off ∈ [0, n)` where `pred` flips from true to false.
#[inline]
fn partition_u32(n: u32, pred: impl Fn(u32) -> bool) -> u32 {
    let mut lo = 0u32;
    let mut hi = n;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_strkit::alphabet::{Alphabet, Database};
    use dpsc_strkit::{naive_contains, naive_count};

    fn paper_db() -> Database {
        Database::paper_example()
    }

    #[test]
    fn counts_match_example_1() {
        let idx = CorpusIndex::build(&paper_db());
        assert_eq!(idx.document_count(b"ab"), 3);
        assert_eq!(idx.count(b"ab"), 4);
        // count_Δ interpolates.
        assert_eq!(idx.count_clipped(b"ab", 1), 3);
        assert_eq!(idx.count_clipped(b"ab", 5), 4);
        // "a" appears 4+1+2+1+0+0 = 8 times.
        assert_eq!(idx.count(b"a"), 8);
        assert_eq!(idx.count_clipped(b"a", 2), 2 + 1 + 2 + 1);
    }

    #[test]
    fn counts_match_naive_on_all_substrings() {
        let db = paper_db();
        let idx = CorpusIndex::build(&db);
        for doc in db.documents() {
            for i in 0..doc.len() {
                for j in i + 1..=doc.len() {
                    let p = &doc[i..j];
                    let want_count: usize = db.documents().iter().map(|d| naive_count(p, d)).sum();
                    let want_docs = db.documents().iter().filter(|d| naive_contains(p, d)).count();
                    assert_eq!(idx.count(p), want_count, "count of {:?}", p);
                    assert_eq!(idx.document_count(p), want_docs, "doc count of {:?}", p);
                    for delta in 1..=db.max_len() {
                        let want: u64 = db
                            .documents()
                            .iter()
                            .map(|d| naive_count(p, d).min(delta) as u64)
                            .sum();
                        assert_eq!(idx.count_clipped(p, delta), want);
                    }
                }
            }
        }
    }

    #[test]
    fn absent_pattern_counts_zero() {
        let idx = CorpusIndex::build(&paper_db());
        assert_eq!(idx.count(b"zz"), 0);
        assert_eq!(idx.document_count(b"zz"), 0);
        assert_eq!(idx.count_clipped(b"zz", 3), 0);
    }

    #[test]
    fn empty_pattern_conventions() {
        let db = paper_db();
        let idx = CorpusIndex::build(&db);
        let total: usize = db.documents().iter().map(|d| d.len()).sum();
        assert_eq!(idx.count(b""), total);
        assert_eq!(idx.document_count(b""), db.n());
        let want: u64 = db.documents().iter().map(|d| d.len().min(2) as u64).sum();
        assert_eq!(idx.count_clipped(b"", 2), want);
    }

    #[test]
    fn occurrences_positions() {
        let idx = CorpusIndex::build(&paper_db());
        let mut occ = idx.occurrences(b"ab");
        occ.sort_unstable();
        // aaaa:none, abe:0, absab:0 and 3, babe:1.
        assert_eq!(occ, vec![(1, 0), (2, 0), (2, 3), (3, 1)]);
    }

    #[test]
    fn doc_lengths_and_remaining() {
        let db = paper_db();
        let idx = CorpusIndex::build(&db);
        let lens: Vec<usize> = idx.doc_lengths().collect();
        assert_eq!(lens, vec![4, 3, 5, 4, 3, 4]);
        // First doc "aaaa": position 0 has 4 symbols remaining.
        assert_eq!(idx.remaining_in_doc(0), 4);
        assert_eq!(idx.remaining_in_doc(3), 1);
        assert_eq!(idx.remaining_in_doc(4), 0); // sentinel position
    }

    #[test]
    fn single_document_corpus() {
        let db = Database::new(Alphabet::lowercase(26), 6, vec![b"banana".to_vec()]).unwrap();
        let idx = CorpusIndex::build(&db);
        assert_eq!(idx.count(b"an"), 2);
        assert_eq!(idx.document_count(b"an"), 1);
        assert_eq!(idx.count_clipped(b"an", 1), 1);
    }

    #[test]
    fn extend_interval_matches_direct_lookup() {
        let db = paper_db();
        let idx = CorpusIndex::build(&db);
        for pat in [&b"a"[..], b"ab", b"abs", b"absab", b"be", b"bees", b"zz", b"az"] {
            let mut iv = idx.full_interval();
            for (depth, &b) in pat.iter().enumerate() {
                iv = idx.extend_interval(iv, depth, b);
            }
            let direct = idx.interval(pat);
            if direct.is_empty() {
                // Empty intervals may differ in position, never in content.
                assert!(iv.is_empty(), "pattern {:?}", pat);
            } else {
                assert_eq!(iv, direct, "pattern {:?}", pat);
            }
        }
    }

    #[test]
    fn hash_pattern_matches_substring_hash() {
        let db = paper_db();
        let idx = CorpusIndex::build(&db);
        // "abs" occurs in document 2 at offset 0; find its text position.
        let occ = idx.occurrences(b"abs");
        assert_eq!(occ.len(), 1);
        let iv = idx.interval(b"abs");
        let pos = idx.suffix_array().sa()[iv.lo as usize] as usize;
        assert_eq!(idx.substring_hash(pos, 3), idx.hash_pattern(b"abs"));
        assert_eq!(idx.decode_substring(pos, 3), b"abs".to_vec());
    }

    #[test]
    fn hash_pattern_matches_every_occurrence() {
        let db = paper_db();
        let idx = CorpusIndex::build(&db);
        let mut patterns: Vec<Vec<u8>> = vec![Vec::new(), b"zz".to_vec(), b"abab".to_vec()];
        for doc in db.documents() {
            for i in 0..doc.len() {
                patterns.extend((i + 1..=doc.len()).map(|j| doc[i..j].to_vec()));
            }
        }
        for p in &patterns {
            let h = idx.hash_pattern(p);
            // The former construction: a whole rolling hash over the
            // encoded pattern.
            let encoded: Vec<u32> = p.iter().map(|&b| idx.encode(b)).collect();
            assert_eq!(h, RollingHash::new(&encoded).substring(0, p.len()), "{p:?}");
            let iv = idx.interval(p);
            for &pos in &idx.suffix_array().sa()[iv.lo as usize..iv.hi as usize] {
                assert_eq!(idx.substring_hash(pos as usize, p.len()), h, "{p:?} at {pos}");
            }
        }
        // Distinct patterns of one length hash apart.
        let (ab, ba) = (idx.hash_pattern(b"ab"), idx.hash_pattern(b"ba"));
        assert_ne!(ab, ba);
    }

    #[test]
    fn index_heap_per_symbol_is_bounded() {
        // Log-like documents (σ = 95 printable bytes, lines of 30–90
        // symbols) totalling over 200k symbols.
        let mut state = 5u64;
        let mut next = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut docs = Vec::new();
        let mut total = 0;
        while total < 200_000 {
            let len = 30 + next(61) as usize;
            let line: Vec<u8> =
                (0..len).map(|k| b' ' + (next(95) / (1 + k as u64 % 3)) as u8).collect();
            total += line.len() + 1;
            docs.push(line);
        }
        let db = Database::new(Alphabet::new(b' ', 95), 90, docs).unwrap();
        let idx = CorpusIndex::build(&db);
        let per_symbol = idx.heap_bytes() as f64 / idx.text_len() as f64;
        // text, doc_of, SA and LCP take 4 B each, the rolling hash 12 B and
        // the document counter ~3.4 B (18 wavelet levels plus rank
        // directories). A stored inverse (4 B) or per-symbol power tables
        // (16 B) break the bound.
        // Measured at 31.45 B/symbol; allow 10% headroom.
        assert!(per_symbol <= 31.45 * 1.10, "{per_symbol:.2} B/symbol");
    }
}
