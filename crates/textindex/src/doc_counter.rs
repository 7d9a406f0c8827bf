//! Distinct-document counting over suffix-array intervals.
//!
//! Document Count(P) is the number of *distinct* documents among the
//! occurrences of `P`, i.e. the number of distinct colors in the suffix-array
//! interval of `P`. We use the classic reduction (Muthukrishnan \[58\]): let
//! `prev[r]` be the previous rank with the same document as rank `r` (or
//! `-1`). The distinct documents in `[lo, hi)` are exactly the ranks with
//! `prev[r] < lo`, counted with a [`WaveletMatrix`] over `prev[r] + 1` in
//! `O(log N)` rank steps and `N⌈log₂(N + 1)⌉` bits plus a rank directory.

use dpsc_strkit::search::SaInterval;
use dpsc_strkit::suffix_array::SuffixArray;

use crate::range_count::WaveletMatrix;

/// Distinct-color counter over the suffix array's rank sequence.
#[derive(Debug, Clone)]
pub struct DocDistinctCounter {
    /// `prev[r] + 1` for every rank `r` (0 when `r` is its document's first
    /// rank).
    prev1: WaveletMatrix,
}

impl DocDistinctCounter {
    /// Builds from the suffix array and the per-text-position document ids.
    pub fn build(sa: &SuffixArray, doc_of: &[u32]) -> Self {
        let n = sa.len();
        assert_eq!(n, doc_of.len());
        let n_docs = doc_of.iter().copied().max().map_or(0, |d| d as usize + 1);
        let mut last_rank1_of_doc: Vec<u32> = vec![0; n_docs];
        let prev1: Vec<u32> = (1u32..)
            .zip(sa.sa())
            .map(|(r1, &pos)| {
                let d = doc_of[pos as usize] as usize;
                std::mem::replace(&mut last_rank1_of_doc[d], r1)
            })
            .collect();
        Self { prev1: WaveletMatrix::build(prev1) }
    }

    /// Number of distinct documents among ranks `[iv.lo, iv.hi)`.
    pub fn distinct(&self, iv: SaInterval) -> usize {
        if iv.is_empty() {
            return 0;
        }
        // prev[r] < lo  ⟺  prev[r] + 1 < lo + 1.
        self.prev1.count_less(iv.lo as usize, iv.hi as usize, iv.lo + 1)
    }

    /// Bytes owned on the heap.
    pub fn heap_bytes(&self) -> usize {
        self.prev1.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_strkit::search::find_interval;

    #[test]
    fn distinct_matches_naive() {
        // Text "abab|baba|aaaa" as three docs concatenated with sentinels.
        let docs: [&[u8]; 3] = [b"abab", b"baba", b"aaaa"];
        let n_docs = docs.len();
        let mut text: Vec<u32> = Vec::new();
        let mut doc_of: Vec<u32> = Vec::new();
        for (i, d) in docs.iter().enumerate() {
            for &b in *d {
                text.push(n_docs as u32 + b as u32);
                doc_of.push(i as u32);
            }
            text.push(i as u32);
            doc_of.push(i as u32);
        }
        let sa = SuffixArray::from_ints(&text, 256 + n_docs);
        let counter = DocDistinctCounter::build(&sa, &doc_of);

        let check = |pat: &[u8], want: usize| {
            let encoded: Vec<u32> = pat.iter().map(|&b| n_docs as u32 + b as u32).collect();
            let iv = find_interval(&encoded, &text, &sa);
            assert_eq!(counter.distinct(iv), want, "pattern {:?}", pat);
        };
        check(b"ab", 2); // abab, baba
        check(b"a", 3);
        check(b"aa", 1); // aaaa only
        check(b"bb", 0);
        check(b"abab", 1);
    }

    #[test]
    fn empty_interval_is_zero() {
        let sa = SuffixArray::from_bytes(b"ab");
        let counter = DocDistinctCounter::build(&sa, &[0, 0]);
        assert_eq!(counter.distinct(SaInterval::EMPTY), 0);
    }

    #[test]
    fn heap_stays_within_bit_budget() {
        // 4096 positions in documents of 8, over a 3-letter alphabet.
        let n = 4096usize;
        let text: Vec<u8> = (0..n).map(|i| b'a' + ((i * i + i / 8) % 3) as u8).collect();
        let doc_of: Vec<u32> = (0..n as u32).map(|i| i / 8).collect();
        let counter = DocDistinctCounter::build(&SuffixArray::from_bytes(&text), &doc_of);
        let bits = (usize::BITS - n.leading_zeros()) as usize; // ⌈log₂(N + 1)⌉
        let budget = (1.6 * (n * bits) as f64 / 8.0) as usize + 1024;
        assert!(counter.heap_bytes() <= budget, "{} > {budget}", counter.heap_bytes());
    }
}
