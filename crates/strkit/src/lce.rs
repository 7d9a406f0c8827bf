//! Longest-common-extension (LCE) queries.
//!
//! `LCE(i, j)` = length of the longest common prefix of the suffixes starting
//! at text positions `i` and `j`. The paper uses LCE queries over the pooled
//! candidate strings to find suffix/prefix overlaps when assembling the
//! candidate sets `C_m` (proof of Lemma 7, Step 2). We answer them in `O(1)`
//! via suffix array + LCP + sparse-table RMQ.

use crate::lcp::LcpArray;
use crate::rmq::SparseTableRmq;
use crate::suffix_array::SuffixArray;

/// LCE structure over an integer text.
#[derive(Debug, Clone)]
pub struct Lce {
    rank: Vec<u32>,
    rmq: SparseTableRmq,
    n: usize,
}

impl Lce {
    /// Builds from a precomputed suffix array and LCP array.
    pub fn new(sa: &SuffixArray, lcp: &LcpArray) -> Self {
        assert_eq!(sa.len(), lcp.len());
        Self { rank: sa.rank(), rmq: SparseTableRmq::new(lcp.values()), n: sa.len() }
    }

    /// Builds directly from a byte text.
    pub fn from_bytes(text: &[u8]) -> Self {
        let sa = SuffixArray::from_bytes(text);
        let lcp = LcpArray::build(text, &sa);
        Self::new(&sa, &lcp)
    }

    /// Length of the longest common prefix of the suffixes at positions `i`
    /// and `j`.
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of range.
    pub fn lce(&self, i: usize, j: usize) -> usize {
        assert!(i <= self.n && j <= self.n, "position out of range");
        if i == j {
            return self.n - i;
        }
        if i == self.n || j == self.n {
            return 0;
        }
        let (mut a, mut b) = (self.rank[i] as usize, self.rank[j] as usize);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        self.rmq.min(a + 1, b + 1) as usize
    }

    /// Text length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the text is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcp::naive_lcp;

    fn check(text: &[u8]) {
        let lce = Lce::from_bytes(text);
        for i in 0..=text.len() {
            for j in 0..=text.len() {
                assert_eq!(
                    lce.lce(i, j),
                    naive_lcp(&text[i..], &text[j..]),
                    "lce({i},{j}) on {:?}",
                    text
                );
            }
        }
    }

    #[test]
    fn matches_naive() {
        check(b"banana");
        check(b"aaaa");
        check(b"abcab");
        check(b"a");
    }
}
