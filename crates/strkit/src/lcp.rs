//! Longest-common-prefix arrays (the Φ algorithm).
//!
//! Built with the Φ/PLCP construction (Kärkkäinen, Manzini, Puglisi,
//! "Permuted Longest-Common-Prefix Array", CPM 2009): it needs the suffix
//! array but not its inverse, so no rank array is ever materialized.
//!
//! `lcp[i]` is the length of the longest common prefix of the suffixes
//! ranked `i-1` and `i` in the suffix array (`lcp\[0\] = 0`). Together with a
//! range-minimum structure this yields `O(1)` longest common extensions
//! ([`crate::lce`]) and lets us walk the virtual suffix *tree* (branching
//! nodes = LCP intervals), which is how `dpsc-textindex` implements the
//! paper's suffix-tree traversals (Lemma 7, Lemma 21).

use crate::suffix_array::SuffixArray;

/// LCP array companion to a [`SuffixArray`].
#[derive(Debug, Clone)]
pub struct LcpArray {
    lcp: Vec<u32>,
}

impl LcpArray {
    /// Builds the LCP array in `O(n)` with the Φ algorithm: `phi[sa[r]] =
    /// sa[r-1]` names each suffix's predecessor in rank order, the
    /// permuted LCP (`plcp[p] = lcp[rank[p]]`) is computed in text order into
    /// that same buffer (it drops by at most one per position, as in Kasai's
    /// algorithm), and a final pass permutes it into rank order.
    ///
    /// Works for any integer text; generic over the symbol type so the same
    /// code serves byte texts and sentinel-augmented integer texts.
    pub fn build<T: PartialEq>(text: &[T], sa: &SuffixArray) -> Self {
        let n = text.len();
        assert_eq!(n, sa.len(), "text/suffix-array length mismatch");
        let sa = sa.sa();
        // The smallest suffix has no predecessor.
        const NONE: u32 = u32::MAX;
        let mut phi = vec![NONE; n];
        for w in sa.windows(2) {
            phi[w[1] as usize] = w[0];
        }
        let mut h = 0usize;
        for i in 0..n {
            let j = phi[i];
            if j == NONE {
                phi[i] = 0;
                h = 0;
                continue;
            }
            let j = j as usize;
            while i + h < n && j + h < n && text[i + h] == text[j + h] {
                h += 1;
            }
            phi[i] = h as u32;
            h = h.saturating_sub(1);
        }
        let lcp = sa.iter().map(|&p| phi[p as usize]).collect();
        Self { lcp }
    }

    /// The LCP values; `self.values()\[0\] == 0`.
    #[inline]
    pub fn values(&self) -> &[u32] {
        &self.lcp
    }

    /// Length.
    #[inline]
    pub fn len(&self) -> usize {
        self.lcp.len()
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lcp.is_empty()
    }

    /// Bytes owned on the heap (allocated capacity).
    pub fn heap_bytes(&self) -> usize {
        self.lcp.capacity() * std::mem::size_of::<u32>()
    }
}

/// Naive LCP of two slices, for testing.
pub fn naive_lcp<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(text: &[u8]) {
        let sa = SuffixArray::from_bytes(text);
        let lcp = LcpArray::build(text, &sa);
        for i in 1..text.len() {
            let a = sa.sa()[i - 1] as usize;
            let b = sa.sa()[i] as usize;
            assert_eq!(
                lcp.values()[i] as usize,
                naive_lcp(&text[a..], &text[b..]),
                "rank {i} of {:?}",
                text
            );
        }
        if !text.is_empty() {
            assert_eq!(lcp.values()[0], 0);
        }
    }

    #[test]
    fn phi_matches_naive() {
        check(b"");
        check(b"a");
        check(b"banana");
        check(b"mississippi");
        check(b"aaaaaa");
        check(b"abcabcabc");
        check(b"abaababaabaab");
    }
}
