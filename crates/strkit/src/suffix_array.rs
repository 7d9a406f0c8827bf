//! Suffix array construction (SA-IS) over byte and integer texts.
//!
//! The paper builds the suffix tree of `S = S_1 $_1 S_2 $_2 … S_n $_n` (proof
//! of Lemma 7). We build the equivalent suffix *array* in linear time with
//! SA-IS (Nong, Zhang, Chan, "Two Efficient Algorithms for Linear Time Suffix
//! Array Construction", IEEE TC 2011), plus the LCP array ([`crate::lcp`]);
//! together they expose the same interface (pattern intervals, node
//! frequencies, string depths) as the suffix tree of Farach-Colton et al.
//! \[29, 30\] used by the paper — see DESIGN.md §2 for the substitution table.
//!
//! SA-IS sorts the caller's text in place of a shifted, sentinel-terminated
//! copy: the empty suffix acts as a virtual sentinel smaller than every
//! symbol. Every level works on `u32` buffers, classifies L/S types and sums
//! bucket bounds once, and recurses on `u32` LMS-substring names (the layout
//! follows the AtCoder Library's `sa_is`). Only the suffix array is stored;
//! [`SuffixArray::rank`] computes the inverse on demand.
//!
//! Two text forms are supported:
//! * plain byte texts ([`SuffixArray::from_bytes`]);
//! * integer texts with alphabets larger than 256
//!   ([`SuffixArray::from_ints`]) — needed for the generalized text with `n`
//!   distinct sentinels `$_1 < … < $_n < Σ`.

/// Marks an empty suffix-array slot during induced sorting.
const EMPTY: u32 = u32::MAX;

/// A suffix array over a text.
///
/// Invariant: `sa` is a permutation of `0..n` such that
/// `text[sa[i]..] < text[sa[i+1]..]` lexicographically.
#[derive(Debug, Clone)]
pub struct SuffixArray {
    sa: Vec<u32>,
}

impl SuffixArray {
    /// Builds the suffix array of a byte text in `O(n)` time, sorting the
    /// bytes directly (no widened copy of the text).
    pub fn from_bytes(text: &[u8]) -> Self {
        Self { sa: sa_is(text, 256) }
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
        Self { sa: sa_is(text, sigma) }
    }

    /// The suffix array: `self.sa()[i]` is the start of the `i`-th smallest
    /// suffix.
    #[inline]
    pub fn sa(&self) -> &[u32] {
        &self.sa
    }

    /// The inverse permutation, computed in `O(n)`: `self.rank()[p]` is the
    /// lexicographic rank of the suffix starting at `p`.
    pub fn rank(&self) -> Vec<u32> {
        let mut rank = vec![0u32; self.sa.len()];
        for (r, &p) in (0u32..).zip(&self.sa) {
            rank[p as usize] = r;
        }
        rank
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

    /// Bytes owned on the heap (allocated capacity).
    pub fn heap_bytes(&self) -> usize {
        self.sa.capacity() * std::mem::size_of::<u32>()
    }
}

/// Naive `O(n² log n)` suffix array used as ground truth in tests.
pub fn naive_suffix_array(text: &[u8]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

/// SA-IS over `s` with symbols in `[0, sigma)`. The empty suffix is a
/// virtual sentinel: a suffix that is a proper prefix of another sorts
/// first.
fn sa_is<T: Copy + Into<u32> + PartialEq>(s: &[T], sigma: usize) -> Vec<u32> {
    let n = s.len();
    // Slot values `0..n` and `EMPTY` must stay distinct after the
    // `wrapping_sub(1)` in `induce`.
    assert!(n <= u32::MAX as usize - 2, "text too long for u32 indexing");
    if n == 0 {
        return Vec::new();
    }
    let sym = |i: usize| s[i].into() as usize;

    // `ls[i]`: suffix `i` is S-type (smaller than suffix `i + 1`). The last
    // suffix is L-type: the virtual sentinel after it is smallest.
    let mut ls = vec![false; n];
    for i in (0..n - 1).rev() {
        ls[i] = if s[i] == s[i + 1] { ls[i + 1] } else { sym(i) < sym(i + 1) };
    }
    // `sum_l[c]`: start of bucket `c`, where its L-type suffixes go;
    // `sum_s[c]`: start of its S-type part. `sum_l[c + 1]` ends bucket `c`.
    let mut sum_l = vec![0u32; sigma + 1];
    let mut sum_s = vec![0u32; sigma + 1];
    for (i, &is_s) in ls.iter().enumerate() {
        if is_s {
            sum_l[sym(i) + 1] += 1;
        } else {
            sum_s[sym(i)] += 1;
        }
    }
    for c in 0..sigma {
        sum_s[c] += sum_l[c];
        sum_l[c + 1] += sum_s[c];
    }

    // LMS positions in text order, and each one's index among them.
    let mut lms_map = vec![EMPTY; n];
    let mut lms: Vec<u32> = Vec::new();
    for i in 1..n {
        if !ls[i - 1] && ls[i] {
            lms_map[i] = lms.len() as u32;
            lms.push(i as u32);
        }
    }
    let m = lms.len();

    // Induce from the LMS suffixes in text order: this sorts them by their
    // LMS substrings.
    let mut sa = vec![EMPTY; n];
    induce(s, &ls, &sum_l, &sum_s, &lms, &mut sa);
    if m == 0 {
        return sa;
    }

    // Name the LMS substrings in sorted order; equal neighbours share a
    // name. A substring runs from its LMS position to the next one,
    // inclusive; the last one runs into the sentinel and equals no other.
    let mut names = vec![0u32; m];
    let mut name = 0u32;
    let mut prev: Option<usize> = None;
    for p in sa.iter().map(|&p| p as usize).filter(|&p| lms_map[p] != EMPTY) {
        if let Some(q) = prev {
            let end = |i: usize| lms.get(lms_map[i] as usize + 1).map_or(n, |&e| e as usize);
            let (end_q, end_p) = (end(q), end(p));
            let same =
                end_q - q == end_p - p && end_q < n && end_p < n && s[q..=end_q] == s[p..=end_p];
            name += u32::from(!same);
        }
        names[lms_map[p] as usize] = name;
        prev = Some(p);
    }
    drop(lms_map);

    // Sort the LMS suffixes exactly: by the names directly when they are
    // unique, otherwise by recursing on the reduced string of names.
    let mut sorted = if name as usize + 1 == m {
        let mut inv = vec![0u32; m];
        for (k, &c) in (0u32..).zip(&names) {
            inv[c as usize] = k;
        }
        inv
    } else {
        sa_is(&names, name as usize + 1)
    };
    drop(names);
    for k in sorted.iter_mut() {
        *k = lms[*k as usize];
    }
    induce(s, &ls, &sum_l, &sum_s, &sorted, &mut sa);
    sa
}

/// Induced sorting with the bucket bounds `sum_l`/`sum_s` of `sa_is`:
/// seeds `sa` with the LMS suffixes `lms` (in the order given, at the start
/// of their buckets' S-type parts), then fills in the L-type suffixes left
/// to right and the S-type suffixes right to left.
fn induce<T: Copy + Into<u32>>(
    s: &[T],
    ls: &[bool],
    sum_l: &[u32],
    sum_s: &[u32],
    lms: &[u32],
    sa: &mut [u32],
) {
    let n = s.len();
    let sym = |i: usize| s[i].into() as usize;
    sa.fill(EMPTY);
    let mut buf = sum_s.to_vec();
    for &p in lms {
        let c = sym(p as usize);
        sa[buf[c] as usize] = p;
        buf[c] += 1;
    }
    buf.copy_from_slice(sum_l);
    // Suffix n-1 follows the virtual sentinel, the smallest suffix.
    let c = sym(n - 1);
    sa[buf[c] as usize] = (n - 1) as u32;
    buf[c] += 1;
    for i in 0..n {
        // `p = sa[i] - 1`; empty slots and suffix 0 wrap to `>= n`.
        let p = sa[i].wrapping_sub(1) as usize;
        if p < n && !ls[p] {
            let c = sym(p);
            sa[buf[c] as usize] = p as u32;
            buf[c] += 1;
        }
    }
    buf.copy_from_slice(sum_l);
    for i in (0..n).rev() {
        let p = sa[i].wrapping_sub(1) as usize;
        if p < n && ls[p] {
            let c = sym(p) + 1;
            buf[c] -= 1;
            sa[buf[c] as usize] = p as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(text: &[u8]) {
        let sa = SuffixArray::from_bytes(text);
        let expected = naive_suffix_array(text);
        assert_eq!(sa.sa(), expected.as_slice(), "text={:?}", text);
        let rank = sa.rank();
        for (r, &p) in sa.sa().iter().enumerate() {
            assert_eq!(rank[p as usize] as usize, r);
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

    /// Naive sort of the suffixes of an integer text.
    fn naive_int_sa(text: &[u32]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..text.len() as u32).collect();
        sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        sa
    }

    /// Tiny deterministic generator (64-bit LCG, high bits).
    fn lcg(state: &mut u64) -> u32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*state >> 33) as u32
    }

    /// `S_1 $_1 … S_n $_n` with sentinel `i` and byte `b` mapped to `n + b`.
    fn generalized(docs: &[Vec<u8>]) -> (Vec<u32>, usize) {
        let n_docs = docs.len() as u32;
        let mut text = Vec::new();
        for (i, d) in (0u32..).zip(docs) {
            text.extend(d.iter().map(|&b| n_docs + b as u32));
            text.push(i);
        }
        (text, n_docs as usize + 256)
    }

    #[test]
    fn every_text_up_to_length_three() {
        let mut texts: Vec<Vec<u8>> = vec![Vec::new()];
        for _ in 0..3 {
            let longer: Vec<Vec<u8>> = texts
                .iter()
                .filter(|t| t.len() == texts.last().unwrap().len())
                .flat_map(|t| (b'a'..=b'c').map(move |c| [t.as_slice(), &[c]].concat()))
                .collect();
            texts.extend(longer);
        }
        assert_eq!(texts.len(), 1 + 3 + 9 + 27);
        for t in &texts {
            check(t);
            let ints: Vec<u32> = t.iter().map(|&b| (b - b'a') as u32).collect();
            assert_eq!(SuffixArray::from_ints(&ints, 3).sa(), naive_int_sa(&ints).as_slice());
        }
    }

    #[test]
    fn fibonacci_words() {
        let (mut a, mut b) = (b"b".to_vec(), b"a".to_vec());
        while b.len() < 2000 {
            check(&b);
            let next = [b.as_slice(), a.as_slice()].concat();
            a = std::mem::replace(&mut b, next);
        }
    }

    #[test]
    fn unary_and_periodic_texts() {
        for len in [1, 2, 3, 4, 5, 17, 64, 1000] {
            check(&vec![b'a'; len]);
            check(&b"ab".repeat(len));
            check(&b"abc".repeat(len));
            check(&b"aab".repeat(len));
            check(&b"cba".repeat(len));
            let mut runs = vec![b'b'; len];
            runs.extend(vec![b'a'; len]);
            runs.extend(vec![b'b'; len]);
            check(&runs);
        }
    }

    #[test]
    fn more_than_65536_sentinels() {
        // 70 000 short documents over {a, b}, many of them equal or empty:
        // σ > 2^16 and the recursion names many equal LMS substrings.
        let mut state = 7u64;
        let docs: Vec<Vec<u8>> = (0..70_000)
            .map(|_| {
                let len = lcg(&mut state) % 4;
                (0..len).map(|_| b'a' + (lcg(&mut state) % 2) as u8).collect()
            })
            .collect();
        let (text, sigma) = generalized(&docs);
        assert!(sigma > 1 << 16);
        assert_eq!(SuffixArray::from_ints(&text, sigma).sa(), naive_int_sa(&text).as_slice());
    }

    #[test]
    fn log_like_generalized_text_checked_three_ways() {
        // Log lines: a shared timestamp prefix, a few levels and services,
        // varying ids — long shared prefixes across documents.
        let mut state = 11u64;
        let levels = ["INFO", "WARN", "ERROR", "DEBUG"];
        let services = ["auth", "db", "cache", "api", "queue"];
        let mut docs: Vec<Vec<u8>> = Vec::new();
        let mut total = 0;
        while total < 100_000 {
            let line = format!(
                "2024-05-{:02} 12:{:02}:{:02} {} {} id={} took={}ms",
                1 + lcg(&mut state) % 3,
                lcg(&mut state) % 60,
                lcg(&mut state) % 60,
                levels[(lcg(&mut state) % 4) as usize],
                services[(lcg(&mut state) % 5) as usize],
                lcg(&mut state) % 500,
                lcg(&mut state) % 50,
            );
            total += line.len() + 1;
            docs.push(line.into_bytes());
        }
        let (text, sigma) = generalized(&docs);
        let n = text.len();
        assert!(n >= 100_000);
        let sa = SuffixArray::from_ints(&text, sigma);
        let lcp = crate::lcp::LcpArray::build(&text, &sa);

        // 1. `sa` is a permutation of 0..n.
        let mut seen = vec![false; n];
        for &p in sa.sa() {
            assert!(!std::mem::replace(&mut seen[p as usize], true), "{p} twice");
        }
        assert_eq!(sa.len(), n);
        // 2. Adjacent suffixes strictly increase, and 3. `lcp[r]` is their
        // mismatch offset. Every suffix reaches a distinct sentinel, so the
        // first mismatch exists and lies within one document.
        assert_eq!(lcp.values()[0], 0);
        for r in 1..n {
            let (a, b) = (sa.sa()[r - 1] as usize, sa.sa()[r] as usize);
            let k = (0..).find(|&k| text[a + k] != text[b + k]).unwrap();
            assert!(text[a + k] < text[b + k], "ranks {} and {r} out of order", r - 1);
            assert_eq!(lcp.values()[r] as usize, k, "lcp at rank {r}");
        }
    }
}
