//! Property-based tests for the string and indexing substrates: the exact
//! layers everything else trusts.

use dp_substring_counting::strkit::alphabet::{Alphabet, Database};
use dp_substring_counting::strkit::lce::Lce;
use dp_substring_counting::strkit::lcp::{naive_lcp, LcpArray};
use dp_substring_counting::strkit::search::{count_occurrences, SaInterval};
use dp_substring_counting::strkit::suffix_array::{naive_suffix_array, SuffixArray};
use dp_substring_counting::strkit::trie::Trie;
use dp_substring_counting::strkit::{naive_contains, naive_count};
use dp_substring_counting::textindex::{
    depth_groups, CorpusIndex, DocDistinctCounter, WaveletMatrix,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_text() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(vec![b'a', b'b', b'c']), 0..60)
}

fn small_docs() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::sample::select(vec![b'a', b'b', b'c']), 1..16),
        1..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn suffix_array_matches_naive(text in small_text()) {
        let sa = SuffixArray::from_bytes(&text);
        let expected = naive_suffix_array(&text);
        prop_assert_eq!(sa.sa(), expected.as_slice());
    }

    #[test]
    fn lcp_matches_naive(text in small_text()) {
        let sa = SuffixArray::from_bytes(&text);
        let lcp = LcpArray::build(&text, &sa);
        for i in 1..text.len() {
            let a = sa.sa()[i - 1] as usize;
            let b = sa.sa()[i] as usize;
            prop_assert_eq!(lcp.values()[i] as usize, naive_lcp(&text[a..], &text[b..]));
        }
    }

    #[test]
    fn lce_matches_naive(text in small_text(), i in 0usize..60, j in 0usize..60) {
        prop_assume!(i <= text.len() && j <= text.len());
        let lce = Lce::from_bytes(&text);
        prop_assert_eq!(lce.lce(i, j), naive_lcp(&text[i..], &text[j..]));
    }

    #[test]
    fn sa_search_counts_match_naive(text in small_text(), pat in small_text()) {
        prop_assume!(!text.is_empty());
        let sa = SuffixArray::from_bytes(&text);
        prop_assert_eq!(count_occurrences(&pat[..], &text, &sa), naive_count(&pat, &text));
    }

    #[test]
    fn corpus_counts_match_brute_force(docs in small_docs(), delta in 1usize..6) {
        let db = Database::from_documents(Alphabet::lowercase(3), docs.clone()).unwrap();
        let idx = CorpusIndex::build(&db);
        // Probe every substring of every document plus an absent pattern.
        let mut pats: Vec<Vec<u8>> = vec![b"zz".to_vec()];
        for doc in &docs {
            for i in 0..doc.len() {
                for j in i + 1..=doc.len().min(i + 6) {
                    pats.push(doc[i..j].to_vec());
                }
            }
        }
        for p in pats {
            let want_count: usize = docs.iter().map(|d| naive_count(&p, d)).sum();
            let want_docs = docs.iter().filter(|d| naive_contains(&p, d)).count();
            let want_clip: u64 =
                docs.iter().map(|d| naive_count(&p, d).min(delta) as u64).sum();
            prop_assert_eq!(idx.count(&p), want_count);
            prop_assert_eq!(idx.document_count(&p), want_docs);
            prop_assert_eq!(idx.count_clipped(&p, delta), want_clip);
        }
    }

    #[test]
    fn depth_groups_partition_distinct_substrings(docs in small_docs(), d in 1usize..8) {
        let db = Database::from_documents(Alphabet::lowercase(3), docs.clone()).unwrap();
        let idx = CorpusIndex::build(&db);
        let groups = depth_groups(&idx, d);
        // Distinct d-substrings by brute force.
        let mut want: std::collections::BTreeMap<Vec<u8>, usize> = Default::default();
        for doc in &docs {
            if doc.len() >= d {
                for w in doc.windows(d) {
                    *want.entry(w.to_vec()).or_insert(0) += 1;
                }
            }
        }
        prop_assert_eq!(groups.len(), want.len());
        for (g, (gram, cnt)) in groups.iter().zip(want.iter()) {
            prop_assert_eq!(&idx.decode_substring(g.witness_pos as usize, d), gram);
            prop_assert_eq!(g.count(), *cnt);
        }
    }

    #[test]
    fn wavelet_matrix_matches_naive(
        values in proptest::sample::select(vec![0usize, 1, 17, 50, 63, 64, 65, 128, 129])
            .prop_flat_map(|n| proptest::collection::vec(0u32..100, n..n + 1)),
        bound in 0u32..120,
    ) {
        let wm = WaveletMatrix::build(values.clone());
        for lo in 0..=values.len() {
            for hi in lo..=values.len() {
                let want = values[lo..hi].iter().filter(|&&v| v < bound).count();
                prop_assert_eq!(wm.count_less(lo, hi, bound), want);
            }
        }
    }

    #[test]
    fn trie_roundtrip(strings in proptest::collection::vec(
        proptest::collection::vec(proptest::sample::select(vec![b'a', b'b']), 1..8), 1..20)
    ) {
        let mut trie: Trie<u32> = Trie::new(0);
        for (i, s) in strings.iter().enumerate() {
            let node = trie.insert_path(s, |_| 0);
            *trie.value_mut(node) = i as u32 + 1;
        }
        // Every inserted string is found; walk() of any prefix works.
        for s in &strings {
            let node = trie.walk(s).expect("inserted string found");
            prop_assert_eq!(trie.string_of(node), s.clone());
            for cut in 0..s.len() {
                prop_assert!(trie.walk(&s[..cut]).is_some());
            }
        }
        // DFS visits every node exactly once.
        let visited: Vec<u32> = trie.dfs().collect();
        prop_assert_eq!(visited.len(), trie.len());
        let set: std::collections::HashSet<u32> = visited.into_iter().collect();
        prop_assert_eq!(set.len(), trie.len());
    }
}

/// Seeded multi-document corpora, plus a single-document corpus and one of
/// identical documents: `DocDistinctCounter::distinct` and
/// `CorpusIndex::document_count_in_interval` against a naive distinct count
/// on every suffix-array interval (empty, width 1 and full included), and
/// `CorpusIndex::document_count` against `naive_contains` on every substring.
#[test]
fn document_counts_match_naive_on_random_corpora() {
    let mut corpora: Vec<Vec<Vec<u8>>> =
        vec![vec![b"abcabca".to_vec()], vec![b"abab".to_vec(); 4], vec![b"c".to_vec(); 3]];
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_docs = rng.gen_range(1..8usize);
        let mut docs: Vec<Vec<u8>> = Vec::with_capacity(n_docs);
        for i in 0..n_docs {
            if i > 0 && rng.gen_bool(0.3) {
                let j = rng.gen_range(0..i);
                docs.push(docs[j].clone());
            } else {
                let len = rng.gen_range(1..13usize);
                docs.push((0..len).map(|_| b'a' + rng.gen_range(0..3u8)).collect());
            }
        }
        corpora.push(docs);
    }
    for docs in corpora {
        let db = Database::from_documents(Alphabet::lowercase(3), docs.clone()).unwrap();
        let idx = CorpusIndex::build(&db);
        let n = idx.text_len();
        let doc_of: Vec<u32> = (0..n).map(|p| idx.doc_of(p) as u32).collect();
        let counter = DocDistinctCounter::build(idx.suffix_array(), &doc_of);
        let sa = idx.suffix_array().sa();
        for lo in 0..=n {
            let mut seen = std::collections::HashSet::new();
            for hi in lo..=n {
                if hi > lo {
                    seen.insert(doc_of[sa[hi - 1] as usize]);
                }
                let iv = SaInterval { lo: lo as u32, hi: hi as u32 };
                assert_eq!(counter.distinct(iv), seen.len(), "{docs:?} [{lo},{hi})");
                assert_eq!(idx.document_count_in_interval(iv), seen.len());
            }
        }
        assert_eq!(idx.document_count(b""), docs.len());
        assert_eq!(idx.document_count(b"cccccccccccccc"), 0);
        for doc in &docs {
            for i in 0..doc.len() {
                for j in i + 1..=doc.len() {
                    let p = &doc[i..j];
                    let want = docs.iter().filter(|d| naive_contains(p, d)).count();
                    assert_eq!(idx.document_count(p), want, "{docs:?} pattern {p:?}");
                }
            }
        }
    }
}
