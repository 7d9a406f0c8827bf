//! # dpsc-strkit — string-algorithm substrate
//!
//! Foundational string data structures used throughout the differentially
//! private substring/document counting system (Bernardini–Bille–Gørtz–Steiner,
//! PODS 2025):
//!
//! * [`SuffixArray`] — SA-IS linear-time suffix array construction over byte
//!   or integer texts on `u32` buffers, storing no inverse (the paper's
//!   suffix-tree substrate, §2.1).
//! * [`LcpArray`] — linear-time longest-common-prefix array by the Φ
//!   algorithm (no rank array needed).
//! * [`SparseTableRmq`] — `O(1)` range-minimum queries after `O(N log N)`
//!   preprocessing; powers [`Lce`] longest-common-extension queries, the
//!   substitute for the `O(1)`-LCE structures of \[6,30,45\] in the paper.
//! * [`Lce`] — longest common extension between arbitrary text positions.
//! * [`RollingHash`] — double polynomial rolling hash (fast substring
//!   equality / concatenation lookups), 12 bytes per symbol.
//! * [`Trie`] — counted tries over byte strings (the `T_C` structure of the
//!   paper's Step 2), with pruning and DFS mining traversals.
//! * Pattern search over suffix arrays ([`search`]) with naive reference
//!   implementations for cross-validation.
//!
//! All structures are deterministic and allocation-conscious: indices are
//! `u32` where the text length permits, and construction never holds more
//! than the documented working space.

pub mod alphabet;
pub mod hash;
pub mod lce;
pub mod lcp;
pub mod rmq;
pub mod search;
pub mod suffix_array;
pub mod trie;

pub use alphabet::Alphabet;
pub use hash::RollingHash;
pub use lce::Lce;
pub use lcp::LcpArray;
pub use rmq::SparseTableRmq;
pub use suffix_array::SuffixArray;
pub use trie::Trie;

/// Returns the number of (possibly overlapping) occurrences of `pattern` in
/// `text`, computed naively in `O(|text| · |pattern|)`.
///
/// This is the reference definition of `count(P, S)` from the paper
/// (Section 1.1): the number of positions `i` with
/// `text[i .. i+|P|] == pattern`. The empty pattern occurs `|text|` times by
/// the paper's convention (`count(ε, S) = |S|`).
///
/// Used as ground truth in tests and for small inputs; production paths use
/// [`search::count_occurrences`] over a [`SuffixArray`].
pub fn naive_count(pattern: &[u8], text: &[u8]) -> usize {
    if pattern.is_empty() {
        return text.len();
    }
    if pattern.len() > text.len() {
        return 0;
    }
    text.windows(pattern.len()).filter(|w| *w == pattern).count()
}

/// Returns `true` iff `pattern` occurs in `text` (naive reference).
pub fn naive_contains(pattern: &[u8], text: &[u8]) -> bool {
    pattern.is_empty() || text.windows(pattern.len()).any(|w| w == pattern)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_count_basic() {
        assert_eq!(naive_count(b"ab", b"absab"), 2);
        assert_eq!(naive_count(b"aa", b"aaaa"), 3);
        assert_eq!(naive_count(b"", b"abc"), 3);
        assert_eq!(naive_count(b"abcd", b"abc"), 0);
        assert_eq!(naive_count(b"x", b""), 0);
    }

    #[test]
    fn naive_contains_basic() {
        assert!(naive_contains(b"", b""));
        assert!(naive_contains(b"be", b"babe"));
        assert!(!naive_contains(b"eb", b"babe"));
    }
}
