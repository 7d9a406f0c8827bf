//! Suffix array construction (SA-IS) over byte and small-integer texts.
//!
//! The paper builds the suffix tree of `S = S_1 $_1 S_2 $_2 … S_n $_n` (proof
//! of Lemma 7). We build the equivalent suffix *array* in linear time with
//! SA-IS (Nong–Zhang–Chan), plus the LCP array ([`crate::lcp`]); together
//! they expose the same interface (pattern intervals, node frequencies,
//! string depths) as the suffix tree of Farach-Colton et al. \[29, 30\] used by
//! the paper — see DESIGN.md §2 for the substitution table.
//!
//! Two text forms are supported:
//! * plain byte texts ([`SuffixArray::from_bytes`]);
//! * integer texts with alphabets larger than 256
//!   ([`SuffixArray::from_ints`]) — needed for the generalized text with `n`
//!   distinct sentinels `$_1 < … < $_n < Σ`.

/// A suffix array over a text, with rank (inverse) array.
///
/// Invariant: `sa` is a permutation of `0..n` such that
/// `text[sa[i]..] < text[sa[i+1]..]` lexicographically, and
/// `rank[sa[i]] == i`.
#[derive(Debug, Clone)]
pub struct SuffixArray {
    sa: Vec<u32>,
    rank: Vec<u32>,
}

impl SuffixArray {
    /// Builds the suffix array of a byte text in `O(n)` time.
    ///
    /// Specialized byte path: bytes always fit the `σ = 256` alphabet, so
    /// this skips both the per-symbol alphabet check and the intermediate
    /// `Vec<u32>` copy that routing through [`Self::from_ints`] would cost,
    /// building the shifted SA-IS input directly.
    pub fn from_bytes(text: &[u8]) -> Self {
        assert!(text.len() <= u32::MAX as usize - 2, "text too long for u32 indexing");
        let n = text.len();
        if n == 0 {
            return Self { sa: Vec::new(), rank: Vec::new() };
        }
        let mut s: Vec<usize> = Vec::with_capacity(n + 1);
        s.extend(text.iter().map(|&b| b as usize + 1));
        s.push(0);
        Self::from_shifted(&s, 257)
    }

    /// Builds the suffix array of an integer text whose symbols lie in
    /// `[0, sigma)` in `O(n + sigma)` time.
    ///
    /// # Panics
    /// Panics if any symbol is `>= sigma`.
    pub fn from_ints(text: &[u32], sigma: usize) -> Self {
        assert!(
            text.iter().all(|&c| (c as usize) < sigma),
            "text symbol outside declared alphabet"
        );
        assert!(text.len() <= u32::MAX as usize - 2, "text too long for u32 indexing");
        let n = text.len();
        if n == 0 {
            return Self { sa: Vec::new(), rank: Vec::new() };
        }
        // Shift symbols by +1 and append a unique smallest sentinel 0; SA-IS
        // requires the sentinel. We strip it from the result.
        let mut s: Vec<usize> = Vec::with_capacity(n + 1);
        s.extend(text.iter().map(|&c| c as usize + 1));
        s.push(0);
        Self::from_shifted(&s, sigma + 1)
    }

    /// Shared tail of the constructors: runs SA-IS on the already-shifted,
    /// sentinel-terminated input `s` and strips the sentinel suffix.
    fn from_shifted(s: &[usize], sigma: usize) -> Self {
        let n = s.len() - 1;
        let sa_with_sentinel = sais(s, sigma);
        // sa_with_sentinel[0] is the sentinel suffix (position n); drop it.
        debug_assert_eq!(sa_with_sentinel[0], n);
        let sa: Vec<u32> = sa_with_sentinel[1..].iter().map(|&i| i as u32).collect();
        let mut rank = vec![0u32; n];
        for (r, &p) in sa.iter().enumerate() {
            rank[p as usize] = r as u32;
        }
        Self { sa, rank }
    }

    /// The suffix array: `self.sa()[i]` is the start of the `i`-th smallest
    /// suffix.
    #[inline]
    pub fn sa(&self) -> &[u32] {
        &self.sa
    }

    /// The inverse permutation: `self.rank()[p]` is the lexicographic rank of
    /// the suffix starting at `p`.
    #[inline]
    pub fn rank(&self) -> &[u32] {
        &self.rank
    }

    /// Text length.
    #[inline]
    pub fn len(&self) -> usize {
        self.sa.len()
    }

    /// Whether the text is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sa.is_empty()
    }
}

/// Naive `O(n² log n)` suffix array used as ground truth in tests.
pub fn naive_suffix_array(text: &[u8]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

/// SA-IS over `s` with symbols in `[0, sigma)`; `s` must end with a unique
/// smallest sentinel (value 0 appearing exactly once, at the end).
fn sais(s: &[usize], sigma: usize) -> Vec<usize> {
    let n = s.len();
    debug_assert!(n >= 1);
    debug_assert_eq!(s[n - 1], 0);
    if n == 1 {
        return vec![0];
    }
    let mut sa = vec![usize::MAX; n];
    sais_inner(s, sigma, &mut sa);
    sa
}

/// Type of each suffix: S-type (`true`) or L-type (`false`).
fn classify(s: &[usize]) -> Vec<bool> {
    let n = s.len();
    let mut is_s = vec![false; n];
    is_s[n - 1] = true;
    for i in (0..n - 1).rev() {
        is_s[i] = s[i] < s[i + 1] || (s[i] == s[i + 1] && is_s[i + 1]);
    }
    is_s
}

#[inline]
fn is_lms(is_s: &[bool], i: usize) -> bool {
    i > 0 && is_s[i] && !is_s[i - 1]
}

/// Computes, for each symbol, the exclusive end of its bucket (`tails=true`)
/// or the inclusive start (`tails=false`).
fn buckets(s: &[usize], sigma: usize, tails: bool) -> Vec<usize> {
    let mut count = vec![0usize; sigma];
    for &c in s {
        count[c] += 1;
    }
    let mut out = vec![0usize; sigma];
    let mut sum = 0usize;
    for c in 0..sigma {
        if tails {
            sum += count[c];
            out[c] = sum; // exclusive end
        } else {
            out[c] = sum; // inclusive start
            sum += count[c];
        }
    }
    out
}

/// Induced sorting: given LMS suffixes already placed in `sa` (everything
/// else `usize::MAX`), fill in L-type then S-type suffixes.
fn induce(s: &[usize], sigma: usize, is_s: &[bool], sa: &mut [usize]) {
    let n = s.len();
    // Left-to-right pass placing L-type suffixes at bucket heads.
    let mut heads = buckets(s, sigma, false);
    for i in 0..n {
        let p = sa[i];
        if p == usize::MAX || p == 0 {
            continue;
        }
        let j = p - 1;
        if !is_s[j] {
            let c = s[j];
            sa[heads[c]] = j;
            heads[c] += 1;
        }
    }
    // Right-to-left pass placing S-type suffixes at bucket tails.
    let mut tails = buckets(s, sigma, true);
    for i in (0..n).rev() {
        let p = sa[i];
        if p == usize::MAX || p == 0 {
            continue;
        }
        let j = p - 1;
        if is_s[j] {
            let c = s[j];
            tails[c] -= 1;
            sa[tails[c]] = j;
        }
    }
}

fn sais_inner(s: &[usize], sigma: usize, sa: &mut [usize]) {
    let n = s.len();
    let is_s = classify(s);

    // Step 1: place LMS suffixes at the ends of their buckets (arbitrary
    // order) and induce to approximately sort them.
    sa.fill(usize::MAX);
    {
        let mut tails = buckets(s, sigma, true);
        for i in (1..n).rev() {
            if is_lms(&is_s, i) {
                let c = s[i];
                tails[c] -= 1;
                sa[tails[c]] = i;
            }
        }
    }
    induce(s, sigma, &is_s, sa);

    // Step 2: compact the (now sorted) LMS suffixes and name their LMS
    // substrings.
    let mut lms_sorted: Vec<usize> = sa.iter().copied().filter(|&p| is_lms(&is_s, p)).collect();
    let num_lms = lms_sorted.len();
    // Name LMS substrings in sorted order, starting from 0; equal adjacent
    // substrings share a name.
    let mut name_of = vec![usize::MAX; n];
    let mut name = 0usize;
    let mut prev = usize::MAX;
    for &p in &lms_sorted {
        if prev != usize::MAX && !lms_substrings_equal(s, &is_s, prev, p) {
            name += 1;
        }
        name_of[p] = name;
        prev = p;
    }
    let num_names = if num_lms == 0 { 0 } else { name + 1 };

    // Step 3: if names are not yet unique, recurse on the reduced string.
    let lms_positions: Vec<usize> = (1..n).filter(|&i| is_lms(&is_s, i)).collect();
    if num_names < num_lms {
        let reduced: Vec<usize> = lms_positions.iter().map(|&p| name_of[p]).collect();
        // The reduced string ends with the sentinel's LMS (position n-1 has
        // name 0 and is the unique minimum because the sentinel is unique).
        let mut sub_sa = vec![usize::MAX; reduced.len()];
        sais_inner(&reduced, num_names, &mut sub_sa);
        for (r, &idx) in sub_sa.iter().enumerate() {
            lms_sorted[r] = lms_positions[idx];
        }
    } else {
        // Names unique: order LMS positions by name directly.
        for &p in &lms_positions {
            lms_sorted[name_of[p]] = p;
        }
        lms_sorted.truncate(num_lms);
    }

    // Step 4: final induced sort from the exactly-sorted LMS suffixes.
    sa.fill(usize::MAX);
    {
        let mut tails = buckets(s, sigma, true);
        for &p in lms_sorted.iter().rev() {
            let c = s[p];
            tails[c] -= 1;
            sa[tails[c]] = p;
        }
    }
    induce(s, sigma, &is_s, sa);
}

/// Compares the LMS substrings starting at `a` and `b` for equality.
///
/// An LMS substring runs from an LMS position to the next LMS position
/// (inclusive); the sentinel's LMS substring is just the sentinel.
fn lms_substrings_equal(s: &[usize], is_s: &[bool], a: usize, b: usize) -> bool {
    let n = s.len();
    if a == n - 1 || b == n - 1 {
        return a == b;
    }
    let mut i = 0usize;
    loop {
        let pa = a + i;
        let pb = b + i;
        let a_end = i > 0 && is_lms(is_s, pa);
        let b_end = i > 0 && is_lms(is_s, pb);
        if a_end && b_end {
            return true;
        }
        if a_end != b_end || s[pa] != s[pb] || is_s[pa] != is_s[pb] {
            return false;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(text: &[u8]) {
        let sa = SuffixArray::from_bytes(text);
        let expected = naive_suffix_array(text);
        assert_eq!(sa.sa(), expected.as_slice(), "text={:?}", text);
        for (r, &p) in sa.sa().iter().enumerate() {
            assert_eq!(sa.rank()[p as usize] as usize, r);
        }
    }

    #[test]
    fn empty_and_tiny() {
        check(b"");
        check(b"a");
        check(b"aa");
        check(b"ab");
        check(b"ba");
    }

    #[test]
    fn classic_examples() {
        check(b"banana");
        check(b"mississippi");
        check(b"abracadabra");
        check(b"aaaaaaaaaa");
        check(b"abababab");
        check(b"cabbage");
    }

    #[test]
    fn paper_concatenation() {
        // S = S_1 $_1 ... S_n $_n with sentinels encoded as ints below Σ.
        let docs: [&[u8]; 3] = [b"aaaa", b"abe", b"absab"];
        let mut ints = Vec::new();
        let n_docs = docs.len() as u32;
        for (i, d) in docs.iter().enumerate() {
            ints.extend(d.iter().map(|&b| b as u32 + n_docs));
            ints.push(i as u32); // sentinel $_i, all distinct and < letters
        }
        let sa = SuffixArray::from_ints(&ints, 256 + n_docs as usize);
        // Validate against a naive sort of the integer suffixes.
        let mut expected: Vec<u32> = (0..ints.len() as u32).collect();
        expected.sort_by(|&a, &b| ints[a as usize..].cmp(&ints[b as usize..]));
        assert_eq!(sa.sa(), expected.as_slice());
    }

    #[test]
    fn byte_and_int_constructors_agree() {
        // The specialized byte path must produce bit-identical output to
        // routing the same text through the generic integer path.
        let mut state = 0x9E37_79B9_7F4A_7C15u64; // splitmix64
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for trial in 0..40 {
            let len = (next() % 200) as usize;
            // Mix narrow and full-byte alphabets across trials.
            let sigma = if trial % 2 == 0 { 3 } else { 256 };
            let text: Vec<u8> = (0..len).map(|_| (next() % sigma) as u8).collect();
            let by_bytes = SuffixArray::from_bytes(&text);
            let ints: Vec<u32> = text.iter().map(|&b| b as u32).collect();
            let by_ints = SuffixArray::from_ints(&ints, 256);
            assert_eq!(by_bytes.sa(), by_ints.sa(), "trial {trial}, text={text:?}");
            assert_eq!(by_bytes.rank(), by_ints.rank(), "trial {trial}");
        }
    }

    #[test]
    fn all_distinct_symbols() {
        check(b"zyxwvutsrq");
        check(b"abcdefghij");
    }

    #[test]
    fn repetitive_blocks() {
        check(b"aabaabaabaab");
        check(b"abaababaabaababaababa");
    }
}
