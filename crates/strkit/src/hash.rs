//! Double polynomial rolling hashes modulo two Mersenne-like primes.
//!
//! Used as the fast path for substring-concatenation lookups (the paper's
//! substring concatenation queries of \[7, 8\]): given candidate halves `Q_1`,
//! `Q_2`, we can compare `hash(Q_1 · Q_2)` against precomputed substring
//! hashes of the corpus in `O(1)` and fall back to suffix-array binary search
//! to confirm (hashes alone are probabilistic; the SA confirms exactly).
//!
//! A [`RollingHash`] stores only the two prefix-hash arrays, 12 bytes per
//! symbol (the `2^31 - 1` residues fit `u32`). Powers of the bases up to
//! 4096 come from a table built at compile time; longer lengths, which
//! corpus lookups never reach (substrings are at most `ℓ` long), use
//! square-and-multiply with the same modular products.

const MOD1: u64 = (1 << 61) - 1; // Mersenne prime 2^61 - 1
const MOD2: u64 = (1 << 31) - 1; // Mersenne prime 2^31 - 1
const BASE1: u64 = 0x9E37_79B9; // fixed odd bases; collision analysis below
const BASE2: u64 = 0x85EB_CA6B;

/// Longest length whose base powers come from the table.
const POW_TABLE_LEN: usize = 4096;

/// `POW1[k] = BASE1^k mod p1` for `k ≤ POW_TABLE_LEN`.
static POW1: [u64; POW_TABLE_LEN + 1] = pow_table(true);
/// `POW2[k] = BASE2^k mod p2` for `k ≤ POW_TABLE_LEN`.
static POW2: [u64; POW_TABLE_LEN + 1] = pow_table(false);

/// Powers of `BASE1` modulo `p1` (`first`) or of `BASE2` modulo `p2`.
const fn pow_table(first: bool) -> [u64; POW_TABLE_LEN + 1] {
    let mut t = [1u64; POW_TABLE_LEN + 1];
    let mut k = 1;
    while k <= POW_TABLE_LEN {
        t[k] = if first { mul_mod1(t[k - 1], BASE1) } else { mul_mod2(t[k - 1], BASE2) };
        k += 1;
    }
    t
}

/// `base^e` by square-and-multiply under `mul`.
fn pow_mod(base: u64, mut e: usize, mul: fn(u64, u64) -> u64) -> u64 {
    let (mut acc, mut sq) = (1u64, base);
    while e > 0 {
        if e & 1 == 1 {
            acc = mul(acc, sq);
        }
        sq = mul(sq, sq);
        e >>= 1;
    }
    acc
}

/// `BASE1^len mod p1`.
#[inline]
fn pow1(len: usize) -> u64 {
    POW1.get(len).copied().unwrap_or_else(|| pow_mod(BASE1, len, mul_mod1))
}

/// `BASE2^len mod p2`.
#[inline]
fn pow2(len: usize) -> u64 {
    POW2.get(len).copied().unwrap_or_else(|| pow_mod(BASE2, len, mul_mod2))
}

#[inline]
const fn mul_mod1(a: u64, b: u64) -> u64 {
    // 2^61-1 fits products in u128 with a cheap fold.
    let prod = a as u128 * b as u128;
    let lo = (prod & MOD1 as u128) as u64;
    let hi = (prod >> 61) as u64;
    let mut r = lo + hi;
    if r >= MOD1 {
        r -= MOD1;
    }
    r
}

#[inline]
const fn mul_mod2(a: u64, b: u64) -> u64 {
    (a * b) % MOD2
}

/// One step of both polynomial hashes: appends symbol `c` (shifted by +1 so
/// the zero symbol does not collide with "absent").
#[inline]
fn push_symbol(h1: u64, h2: u64, c: u32) -> (u64, u64) {
    let c1 = c as u64 + 1;
    ((mul_mod1(h1, BASE1) + c1) % MOD1, (mul_mod2(h2, BASE2) + c1) % MOD2)
}

/// Precomputed prefix hashes allowing `O(1)` hashes of any substring and
/// `O(1)` hashes of concatenations of two substrings.
///
/// The false-positive probability of a single comparison over a corpus of
/// length `N` is roughly `N / 2^92` (two independent moduli), negligible for
/// every workload in this repository; exact confirmation paths exist where
/// correctness is load-bearing.
#[derive(Debug, Clone)]
pub struct RollingHash {
    /// `pre1[i]`: hash of the first `i` symbols modulo `2^61 - 1`.
    pre1: Vec<u64>,
    /// `pre2[i]`: hash of the first `i` symbols modulo `2^31 - 1`.
    pre2: Vec<u32>,
}

/// Hash value of a string: `(h mod p1, h mod p2, length)`.
///
/// The length is part of the identity so that concatenation is well defined
/// and strings of different lengths never compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HashValue {
    h1: u64,
    h2: u64,
    len: u32,
}

impl HashValue {
    /// Hash of the empty string.
    pub const EMPTY: Self = Self { h1: 0, h2: 0, len: 0 };

    /// Length of the hashed string.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether this hashes the empty string.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// 64-bit fingerprint mixing both residues and the length (SplitMix64
    /// finalizer). Used as the probe key of open-addressed candidate
    /// tables; full [`HashValue`] equality is still checked per slot, so
    /// fingerprint collisions cost a probe, never a wrong answer.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        let mut z = self.h1 ^ self.h2.rotate_left(29) ^ ((self.len as u64) << 1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl RollingHash {
    /// Preprocesses `text` over any integer alphabet in `O(n)`.
    pub fn new(text: &[u32]) -> Self {
        let n = text.len();
        let mut pre1 = Vec::with_capacity(n + 1);
        let mut pre2 = Vec::with_capacity(n + 1);
        pre1.push(0);
        pre2.push(0);
        let (mut h1, mut h2) = (0u64, 0u64);
        for &c in text {
            (h1, h2) = push_symbol(h1, h2, c);
            pre1.push(h1);
            pre2.push(h2 as u32);
        }
        Self { pre1, pre2 }
    }

    /// Preprocesses a byte text.
    pub fn from_bytes(text: &[u8]) -> Self {
        let ints: Vec<u32> = text.iter().map(|&b| b as u32).collect();
        Self::new(&ints)
    }

    /// Hash of `text[lo..hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi >= len` is violated.
    pub fn substring(&self, lo: usize, hi: usize) -> HashValue {
        assert!(lo <= hi && hi < self.pre1.len(), "substring range out of bounds");
        let len = hi - lo;
        let h1 = (self.pre1[hi] + MOD1 - mul_mod1(self.pre1[lo], pow1(len))) % MOD1;
        let (pre2_hi, pre2_lo) = (self.pre2[hi] as u64, self.pre2[lo] as u64);
        let h2 = (pre2_hi + MOD2 - mul_mod2(pre2_lo, pow2(len))) % MOD2;
        HashValue { h1, h2, len: len as u32 }
    }

    /// Hash of the concatenation `a · b` in `O(1)`.
    pub fn concat(&self, a: HashValue, b: HashValue) -> HashValue {
        let h1 = (mul_mod1(a.h1, pow1(b.len as usize)) + b.h1) % MOD1;
        let h2 = (mul_mod2(a.h2, pow2(b.len as usize)) + b.h2) % MOD2;
        HashValue { h1, h2, len: a.len + b.len }
    }

    /// Bytes owned on the heap (allocated capacity).
    pub fn heap_bytes(&self) -> usize {
        self.pre1.capacity() * std::mem::size_of::<u64>()
            + self.pre2.capacity() * std::mem::size_of::<u32>()
    }
}

/// Hashes a stream of integer symbols in one pass, without allocating;
/// values equal [`RollingHash::substring`] over the same symbols.
pub fn hash_symbols(symbols: impl IntoIterator<Item = u32>) -> HashValue {
    let (mut h1, mut h2, mut len) = (0u64, 0u64, 0u32);
    for c in symbols {
        (h1, h2) = push_symbol(h1, h2, c);
        len += 1;
    }
    HashValue { h1, h2, len }
}

/// Hashes an arbitrary standalone byte string with the same parameters, so
/// results are comparable to [`RollingHash::substring`] values.
pub fn hash_bytes(s: &[u8]) -> HashValue {
    hash_symbols(s.iter().map(|&b| b as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substring_equality() {
        let text = b"abracadabra";
        let h = RollingHash::from_bytes(text);
        // "abra" at 0 and 7.
        assert_eq!(h.substring(0, 4), h.substring(7, 11));
        // "a" everywhere.
        assert_eq!(h.substring(0, 1), h.substring(3, 4));
        assert_ne!(h.substring(0, 1), h.substring(1, 2));
        // Different lengths never equal even with same prefix.
        assert_ne!(h.substring(0, 1), h.substring(0, 2));
    }

    #[test]
    fn concat_matches_direct() {
        let text = b"abcabcxyz";
        let h = RollingHash::from_bytes(text);
        let ab = h.substring(0, 2);
        let cx = h.substring(5, 7);
        let cat = h.concat(ab, cx);
        assert_eq!(cat, hash_bytes(b"abcx"));
        assert_eq!(h.concat(HashValue::EMPTY, ab), ab);
        assert_eq!(h.concat(ab, HashValue::EMPTY), ab);
    }

    #[test]
    fn standalone_matches_preprocessed() {
        let text = b"hello world";
        let h = RollingHash::from_bytes(text);
        assert_eq!(h.substring(0, 5), hash_bytes(b"hello"));
        assert_eq!(h.substring(6, 11), hash_bytes(b"world"));
        assert_eq!(h.substring(0, 0), HashValue::EMPTY);
    }

    #[test]
    fn lengths_beyond_the_power_table() {
        // A text long enough that substrings and concatenations need powers
        // past the table, checked against one-pass hashes of the bytes.
        let n = 3 * POW_TABLE_LEN + 17;
        let text: Vec<u8> = (0..n).map(|i| b'a' + ((i * i + 7 * i) % 23) as u8).collect();
        let h = RollingHash::from_bytes(&text);
        for (lo, hi) in [(0, n), (5, POW_TABLE_LEN + 6), (1, POW_TABLE_LEN + 1), (100, n - 3)] {
            assert_eq!(h.substring(lo, hi), hash_bytes(&text[lo..hi]), "[{lo}, {hi})");
        }
        for (a, mid, b) in [(0, 10, n), (3, n - POW_TABLE_LEN - 1, n), (0, POW_TABLE_LEN, n)] {
            let cat = h.concat(h.substring(a, mid), h.substring(mid, b));
            assert_eq!(cat, hash_bytes(&text[a..b]), "[{a}, {mid}) · [{mid}, {b})");
        }
        // The long hash a · b also matches when the halves are disjoint
        // pieces of the text.
        let (x, y) = (&text[..POW_TABLE_LEN + 9], &text[17..2 * POW_TABLE_LEN + 40]);
        let joined: Vec<u8> = x.iter().chain(y).copied().collect();
        let cat = h.concat(h.substring(0, x.len()), h.substring(17, 17 + y.len()));
        assert_eq!(cat, hash_bytes(&joined));
    }
}
