//! Wavelet matrix: static range counting of values below a bound.
//!
//! `N·⌈log₂(max + 1)⌉` bits plus a rank directory, `O(N log max)`
//! construction, `O(log max)` rank steps per query (Claude, Navarro, Ordóñez,
//! "The wavelet matrix", SPIRE 2012). This powers the distinct-document
//! counting of [`crate::doc_counter`] — the classic colored-range-counting
//! reduction (Muthukrishnan \[58\], cited by the paper as the non-private
//! document counting substrate).

/// One bit level: bit `i` is the level's bit of the value at position `i`
/// of this level's permutation.
#[derive(Debug, Clone)]
struct Level {
    /// `n / 64 + 1` words, so the word holding position `n` always exists.
    words: Vec<u64>,
    /// `ranks[w]` = number of one bits in `words[..w]`.
    ranks: Vec<u32>,
    /// Number of zero bits; zeros precede ones in the next level's order.
    zeros: usize,
}

impl Level {
    /// Number of zero bits among positions `[0, i)`, `i ≤ n`.
    #[inline]
    fn rank0(&self, i: usize) -> usize {
        let (w, b) = (i / 64, i % 64);
        let ones =
            self.ranks[w] as usize + (self.words[w] & ((1u64 << b) - 1)).count_ones() as usize;
        i - ones
    }
}

/// Static sequence of `u32` values answering "how many values in `[lo, hi)`
/// are below `bound`" with one rank pair per bit of the largest value.
///
/// Level `k` stores bit `bits − 1 − k` (most significant first) of every
/// value, in the order of a stable partition of the previous level by its
/// bit: zeros first, then ones.
#[derive(Debug, Clone)]
pub struct WaveletMatrix {
    levels: Vec<Level>,
    n: usize,
}

impl WaveletMatrix {
    /// Builds the matrix over `values`, reusing the vector as one of its two
    /// partition buffers.
    ///
    /// # Panics
    /// Panics if there are more than `u32::MAX` values.
    pub fn build(values: Vec<u32>) -> Self {
        let n = values.len();
        assert!(n <= u32::MAX as usize, "at most u32::MAX values");
        let bits = values.iter().max().map_or(0, |&m| 32 - m.leading_zeros());
        let n_words = n / 64 + 1;
        let mut cur = values;
        let mut next = vec![0u32; n];
        let mut levels = Vec::with_capacity(bits as usize);
        for shift in (0..bits).rev() {
            let mut words = vec![0u64; n_words];
            // Zeros fill `next` from the front, ones from the back (reversed
            // afterwards); the select keeps the loop free of data-dependent
            // branches.
            let (mut zeros, mut ones) = (0usize, 0usize);
            for (chunk, word) in cur.chunks(64).zip(words.iter_mut()) {
                let mut acc = 0u64;
                for (j, &v) in chunk.iter().enumerate() {
                    let bit = ((v >> shift) & 1) as usize;
                    acc |= (bit as u64) << j;
                    let dst = if bit == 1 { n - 1 - ones } else { zeros };
                    next[dst] = v;
                    ones += bit;
                    zeros += 1 - bit;
                }
                *word = acc;
            }
            next[zeros..].reverse();
            let mut ranks = Vec::with_capacity(n_words);
            let mut total = 0u32;
            for w in &words {
                ranks.push(total);
                total += w.count_ones();
            }
            levels.push(Level { words, ranks, zeros });
            std::mem::swap(&mut cur, &mut next);
        }
        Self { levels, n }
    }

    /// Number of indices `i ∈ [lo, hi)` with `values[i] < bound`.
    ///
    /// Descends from the most significant bit, counting at every level where
    /// `bound` has a one the values that agree with `bound` above this bit
    /// and have a zero here.
    pub fn count_less(&self, lo: usize, hi: usize, bound: u32) -> usize {
        assert!(lo <= hi && hi <= self.n, "range out of bounds");
        let bits = self.levels.len();
        if u64::from(bound) >> bits != 0 {
            return hi - lo;
        }
        let (mut l, mut r) = (lo, hi);
        let mut total = 0usize;
        for (k, level) in self.levels.iter().enumerate() {
            if l == r {
                break;
            }
            let (l0, r0) = (level.rank0(l), level.rank0(r));
            if (bound >> (bits - 1 - k)) & 1 == 1 {
                total += r0 - l0;
                l = level.zeros + (l - l0);
                r = level.zeros + (r - r0);
            } else {
                l = l0;
                r = r0;
            }
        }
        total
    }

    /// Number of bit levels, `⌈log₂(max + 1)⌉` (0 when every value is 0).
    #[inline]
    pub fn bits(&self) -> usize {
        self.levels.len()
    }

    /// Length of the underlying sequence.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bytes owned on the heap (allocated capacity).
    pub fn heap_bytes(&self) -> usize {
        self.levels.capacity() * std::mem::size_of::<Level>()
            + self
                .levels
                .iter()
                .map(|l| l.words.capacity() * 8 + l.ranks.capacity() * 4)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(values: &[u32], lo: usize, hi: usize, bound: u32) -> usize {
        values[lo..hi].iter().filter(|&&v| v < bound).count()
    }

    fn check_all_ranges(values: &[u32], bounds: &[u32]) {
        let wm = WaveletMatrix::build(values.to_vec());
        assert_eq!(wm.len(), values.len());
        for lo in 0..=values.len() {
            for hi in lo..=values.len() {
                for &bound in bounds {
                    assert_eq!(
                        wm.count_less(lo, hi, bound),
                        naive(values, lo, hi, bound),
                        "[{lo},{hi}) bound {bound}"
                    );
                }
            }
        }
    }

    /// Deterministic values for tests (SplitMix64).
    fn pseudo_random(n: usize, below: u64, mut state: u64) -> Vec<u32> {
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) % below) as u32
            })
            .collect()
    }

    #[test]
    fn matches_naive_exhaustive() {
        let values: Vec<u32> = vec![3, 0, 4, 1, 0, 9, 2, 6, 5, 3, 5, 8, 9, 7];
        check_all_ranges(&values, &[0, 1, 3, 5, 9, 10, 16, u32::MAX]);
    }

    #[test]
    fn lengths_across_word_boundaries() {
        for n in [1usize, 2, 3, 5, 7, 13, 17, 31, 33, 63, 64, 65, 127, 128, 129] {
            let values: Vec<u32> = (0..n as u32).map(|i| (i * 7919) % 101).collect();
            check_all_ranges(&values, &[0, 50, 101, 128]);
        }
    }

    #[test]
    fn extreme_values() {
        check_all_ranges(&[u32::MAX, 0, 1 << 31, u32::MAX - 1, 7], &[0, 1, 8, 1 << 31, u32::MAX]);
        check_all_ranges(&[0; 70], &[0, 1, 2]);
        assert_eq!(WaveletMatrix::build(vec![0; 70]).bits(), 0);
    }

    #[test]
    fn empty_array() {
        let wm = WaveletMatrix::build(Vec::new());
        assert_eq!(wm.count_less(0, 0, 5), 0);
        assert!(wm.is_empty());
    }

    /// N values below N fit in `N` bits per level plus a half-size rank
    /// directory; a layout spending a word per entry per level would not.
    #[test]
    fn heap_stays_within_bit_budget() {
        let n = 65_539usize;
        let values = pseudo_random(n, n as u64, 0x5EED);
        let wm = WaveletMatrix::build(values.clone());
        assert_eq!(wm.bits(), 32 - values.iter().max().unwrap().leading_zeros() as usize);
        let budget = (1.6 * (n * wm.bits()) as f64 / 8.0) as usize + 1024;
        assert!(wm.heap_bytes() <= budget, "{} > {budget} bytes", wm.heap_bytes());
        for (i, &(lo, hi)) in [(0, n), (1, n - 1), (64, 65), (1000, 40_000)].iter().enumerate() {
            let bound = values[i * 997];
            assert_eq!(wm.count_less(lo, hi, bound), naive(&values, lo, hi, bound));
        }
    }
}
