//! Robustness of the `DPSF` v2 snapshot codec — the only format a
//! `FrozenSynopsis` reads or writes — on a *real* DP-built structure, for
//! both dialects (uncompressed/borrowable and delta-compressed): exact
//! round-trips, `Err` (never a panic) on truncations, magic/version
//! damage, tiny inputs, bit flips, splices, and noise, forged-but-restamped
//! non-finite fields, a clean `UnsupportedVersion` for the retired v1, and
//! a differential sweep asserting that owned, compressed, and borrowed
//! decodes answer bit-identically.

mod common;

use std::sync::Arc;

use dp_substring_counting::prelude::*;
use dp_substring_counting::private_count::codec::fnv1a;
use dp_substring_counting::workloads::markov_corpus;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// v2 header layout landmarks (see DESIGN.md §13): the section table
// starts at 88 with 24-byte entries {offset, len, checksum}, the header
// checksum sits at 184, and sections begin at 192.
const TABLE_OFF: usize = 88;
const TABLE_ENTRY_LEN: usize = 24;
const HEADER_SUM_OFF: usize = 184;
const ALPHA_COUNTS_OFF: usize = 40;
const ALPHA_ABSENT_OFF: usize = 48;

/// A genuinely constructed (Theorem 1) synopsis plus its corpus.
fn built() -> (PrivateCountStructure, FrozenSynopsis, Vec<Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(11);
    let db = markov_corpus(60, 16, 4, 0.6, &mut rng);
    let idx = CorpusIndex::build(&db);
    let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1e4), 0.1)
        .with_thresholds(1.5, 1.5);
    let s = build_pure(&idx, &params, &mut rng).expect("construction succeeds");
    let f = s.freeze();
    (s, f, db.documents().to_vec())
}

fn le_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

/// `(offset, len)` of section `i` read straight from the wire table.
fn section(bytes: &[u8], i: usize) -> (usize, usize) {
    let entry = TABLE_OFF + TABLE_ENTRY_LEN * i;
    (le_u64(bytes, entry) as usize, le_u64(bytes, entry + 8) as usize)
}

/// Applies `patch`, then recomputes every section checksum and the header
/// checksum so the damage is *only* the patched field — exactly what a
/// forging adversary who controls the whole byte string can do.
fn patch_and_restamp_v2(bytes: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + patch.len()].copy_from_slice(patch);
    for i in 0..4 {
        let (off, len) = section(&out, i);
        let sum = fnv1a(&out[off..off + len]).to_le_bytes();
        let entry = TABLE_OFF + TABLE_ENTRY_LEN * i;
        out[entry + 16..entry + 24].copy_from_slice(&sum);
    }
    let header_sum = fnv1a(&out[..HEADER_SUM_OFF]).to_le_bytes();
    out[HEADER_SUM_OFF..HEADER_SUM_OFF + 8].copy_from_slice(&header_sum);
    out
}

#[test]
fn v2_roundtrip_preserves_queries_exactly() {
    let (structure, frozen, docs) = built();
    assert_eq!(frozen.to_bytes(), frozen.to_bytes_v2(false), "freeze emits uncompressed v2");
    for compressed in [false, true] {
        let bytes = frozen.to_bytes_v2(compressed);
        let back = FrozenSynopsis::from_bytes(&bytes).expect("round-trip parses");
        assert_eq!(back, frozen);
        for doc in &docs {
            for i in 0..doc.len() {
                for j in i + 1..=doc.len() {
                    let pat = &doc[i..j];
                    assert_eq!(back.query(pat).to_bits(), structure.query(pat).to_bits());
                }
            }
        }
        // Serializing the decoded synopsis reproduces the identical bytes.
        assert_eq!(back.to_bytes(), bytes, "compressed={compressed} not canonical");
        assert_eq!(back.serialized_len(), bytes.len());
    }
}

#[test]
fn v2_truncations_and_extensions_error() {
    let (_, frozen, _) = built();
    for compressed in [false, true] {
        let bytes = frozen.to_bytes_v2(compressed);
        // Every strict prefix fails — the whole 192-byte header territory
        // is covered exhaustively, the sections by stride.
        for len in (0..bytes.len()).filter(|&l| l < 200 || l % 37 == 0) {
            assert!(
                FrozenSynopsis::from_bytes(&bytes[..len]).is_err(),
                "prefix {len} parsed (compressed={compressed})"
            );
        }
        for extra in [1usize, 8, 1024] {
            let mut e = bytes.clone();
            e.extend(std::iter::repeat_n(0xAB, extra));
            assert!(
                FrozenSynopsis::from_bytes(&e).is_err(),
                "extension {extra} parsed (compressed={compressed})"
            );
        }
    }
}

#[test]
fn version_and_magic_damage_errors() {
    let (_, frozen, _) = built();
    for compressed in [false, true] {
        let bytes = frozen.to_bytes_v2(compressed);
        for pos in 0..6 {
            for val in [0u8, 2, 7, 0xFF] {
                let mut m = bytes.clone();
                if m[pos] == val {
                    continue;
                }
                m[pos] = val;
                assert!(
                    FrozenSynopsis::from_bytes(&m).is_err(),
                    "byte {pos} := {val} parsed (compressed={compressed})"
                );
            }
        }
    }
}

#[test]
fn empty_and_tiny_inputs_error() {
    assert!(FrozenSynopsis::from_bytes(&[]).is_err());
    for len in 1..16 {
        assert!(FrozenSynopsis::from_bytes(&vec![0u8; len]).is_err());
        assert!(FrozenSynopsis::from_bytes(&vec![0xFFu8; len]).is_err());
    }
    // A valid header prefix with nothing after it is still truncated.
    let (_, frozen, _) = built();
    for compressed in [false, true] {
        let bytes = frozen.to_bytes_v2(compressed);
        assert!(FrozenSynopsis::from_bytes(&bytes[..16]).is_err(), "compressed={compressed}");
    }
}

#[test]
fn retired_v1_version_is_unsupported_on_both_decode_paths() {
    let (_, frozen, _) = built();
    let want = DecodeError::UnsupportedVersion { found: 1, expected: 2 };
    for compressed in [false, true] {
        let mut v1 = frozen.to_bytes_v2(compressed);
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(FrozenSynopsis::from_bytes(&v1).unwrap_err(), want, "compressed={compressed}");
        let shared: Arc<[u8]> = v1.into();
        assert_eq!(
            FrozenSynopsis::from_bytes_shared(shared).unwrap_err(),
            want,
            "compressed={compressed}"
        );
    }
}

#[test]
fn v2_bit_flip_corpus_errors() {
    let (_, frozen, _) = built();
    for compressed in [false, true] {
        let bytes = frozen.to_bytes_v2(compressed);
        // Strided single-bit flips across header, section table, section
        // payloads, alignment padding, and checksums; the stride is
        // coprime to 8 so every bit index is exercised.
        for pos in (0..bytes.len()).step_by(13) {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[pos] ^= 1 << bit;
                assert!(
                    FrozenSynopsis::from_bytes(&m).is_err(),
                    "bit {bit} of byte {pos}/{} flipped silently (compressed={compressed})",
                    bytes.len()
                );
            }
        }
    }
}

#[test]
fn v2_alignment_padding_is_validated() {
    let (_, frozen, _) = built();
    let bytes = frozen.to_bytes_v2(true);
    // Compressed sections have data-dependent lengths, so padding gaps
    // between them are near-certain. Corrupt every padding byte in turn:
    // it is outside all section checksums, so only an explicit zero-check
    // can reject it.
    let mut covered = false;
    for i in 0..3 {
        let (off, len) = section(&bytes, i);
        let (next_off, _) = section(&bytes, i + 1);
        for pad in off + len..next_off {
            covered = true;
            let forged = patch_and_restamp_v2(&bytes, pad, &[0x5A]);
            let err =
                FrozenSynopsis::from_bytes(&forged).expect_err("nonzero alignment padding parsed");
            assert!(format!("{err}").contains("padding"), "unexpected error: {err}");
        }
    }
    assert!(covered, "corpus produced no inter-section padding to test");
}

#[test]
fn v2_random_mutation_corpus_never_panics() {
    let (_, frozen, _) = built();
    let mut rng = StdRng::seed_from_u64(0xD0C2);
    for compressed in [false, true] {
        let bytes = frozen.to_bytes_v2(compressed);
        for _ in 0..250 {
            let mut m = bytes.clone();
            match rng.gen_range(0..4u32) {
                0 => {
                    let start = rng.gen_range(0..m.len());
                    let len = rng.gen_range(1..64usize).min(m.len() - start);
                    for b in &mut m[start..start + len] {
                        *b = rng.gen();
                    }
                }
                1 => {
                    let start = rng.gen_range(0..m.len());
                    let len = rng.gen_range(1..64usize).min(m.len() - start);
                    m.drain(start..start + len);
                }
                2 => {
                    let start = rng.gen_range(0..m.len());
                    let len = rng.gen_range(1..64usize).min(m.len() - start);
                    let window: Vec<u8> = m[start..start + len].to_vec();
                    let at = rng.gen_range(0..m.len());
                    m.splice(at..at, window);
                }
                _ => {
                    let len = rng.gen_range(0..2048usize);
                    m = (0..len).map(|_| rng.gen()).collect();
                }
            }
            if let Ok(parsed) = FrozenSynopsis::from_bytes(&m) {
                assert_eq!(parsed.to_bytes(), m, "accepted a non-canonical encoding");
                assert_eq!(parsed, frozen, "accepted a mutated synopsis as different content");
            }
        }
    }
}

#[test]
fn v2_borrowed_and_owned_answer_bit_identically() {
    let (structure, frozen, docs) = built();
    let v2u: Arc<[u8]> = frozen.to_bytes_v2(false).into();
    let borrowed = FrozenSynopsis::from_bytes_shared(Arc::clone(&v2u)).expect("shared decode");
    assert!(borrowed.is_borrowed(), "uncompressed v2 via Arc must decode borrowed");
    let owned = FrozenSynopsis::from_bytes(&v2u).expect("owned decode");
    assert!(!owned.is_borrowed());
    // Compressed v2 falls back to owned storage through the same entry
    // point.
    let v2c = FrozenSynopsis::from_bytes_shared(frozen.to_bytes_v2(true).into()).unwrap();
    assert!(!v2c.is_borrowed());

    for syn in [&borrowed, &owned, &v2c] {
        assert_eq!(*syn, frozen);
    }
    for doc in &docs {
        for i in 0..doc.len() {
            for j in i + 1..=doc.len() {
                let pat = &doc[i..j];
                let want = structure.query(pat).to_bits();
                for (label, syn) in [("borrowed", &borrowed), ("owned", &owned), ("v2c", &v2c)] {
                    assert_eq!(syn.query(pat).to_bits(), want, "{label} disagrees on {pat:?}");
                    assert_eq!(
                        syn.query_naive(pat).to_bits(),
                        want,
                        "{label} naive path disagrees on {pat:?}"
                    );
                }
            }
        }
    }
    // The borrowed synopsis re-encodes canonically from its byte views.
    assert_eq!(borrowed.to_bytes(), v2u.as_ref());
}

#[test]
fn v2_forged_non_finite_fields_error() {
    let (_, frozen, _) = built();
    for compressed in [false, true] {
        let bytes = frozen.to_bytes_v2(compressed);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let le = bad.to_le_bytes();
            for (field, at) in
                [("alpha_counts", ALPHA_COUNTS_OFF), ("alpha_absent", ALPHA_ABSENT_OFF)]
            {
                let forged = patch_and_restamp_v2(&bytes, at, &le);
                let err = FrozenSynopsis::from_bytes(&forged)
                    .expect_err("restamped non-finite alpha parsed");
                assert!(format!("{err}").contains(field), "wrong error for {field}: {err}");
            }
            if !compressed {
                // Counts are raw f64s only in the uncompressed dialect.
                let (counts_off, _) = section(&bytes, 0);
                let forged = patch_and_restamp_v2(&bytes, counts_off, &le);
                let err = FrozenSynopsis::from_bytes(&forged)
                    .expect_err("restamped non-finite count parsed");
                assert!(format!("{err}").contains("count"), "wrong error: {err}");
                // The borrowed path must reject it too — validation runs
                // before any query can touch the bytes.
                let shared: Arc<[u8]> = forged.into();
                assert!(FrozenSynopsis::from_bytes_shared(shared).is_err());
            }
        }
    }
}

#[test]
fn v2_forged_oversized_edge_start_is_an_error_not_a_panic() {
    let (_, frozen, _) = built();
    let bytes = frozen.to_bytes_v2(false);
    // Point node 0's CSR end past every edge array; with all checksums
    // restamped, only the structural range check stands between this and
    // an out-of-bounds index.
    let (edge_start_off, _) = section(&bytes, 1);
    let forged = patch_and_restamp_v2(&bytes, edge_start_off + 4, &u32::MAX.to_le_bytes());
    let err = FrozenSynopsis::from_bytes(&forged).expect_err("oversized CSR offset parsed");
    assert!(format!("{err}").contains("CSR"), "unexpected error: {err}");
}

/// Builds a real structure on tiny random corpora (retrying the
/// legitimate FAIL branch on derived seeds) so the proptest below can
/// assert that all three decode paths agree bit-for-bit.
fn build_small(docs: Vec<Vec<u8>>, seed: u64) -> Option<(PrivateCountStructure, Vec<Vec<u8>>)> {
    let db = Database::from_documents(Alphabet::lowercase(26), docs.clone()).expect("valid docs");
    let idx = CorpusIndex::build(&db);
    let mut rng = StdRng::seed_from_u64(seed);
    let params = BuildParams::new(CountMode::Substring, PrivacyParams::pure(1e4), 0.1)
        .with_thresholds(1.0, 1.0);
    build_pure(&idx, &params, &mut rng).ok().map(|s| (s, docs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn v2_owned_compressed_and_borrowed_decode_bit_identically(
        docs in proptest::collection::vec(
            proptest::collection::vec(proptest::sample::select(vec![b'a', b'b', b'c']), 1..12),
            1..10,
        ),
        seed in 0u64..1 << 40,
    ) {
        let (structure, docs) = common::with_retry_seeds(seed, 6, |s| build_small(docs.clone(), s));
        let frozen = structure.freeze();
        let v2_owned = FrozenSynopsis::from_bytes(&frozen.to_bytes_v2(false)).expect("v2 decodes");
        let v2_compressed =
            FrozenSynopsis::from_bytes(&frozen.to_bytes_v2(true)).expect("v2c decodes");
        let shared: Arc<[u8]> = frozen.to_bytes_v2(false).into();
        let v2_borrowed = FrozenSynopsis::from_bytes_shared(shared).expect("borrowed decodes");
        prop_assert!(v2_borrowed.is_borrowed());
        for doc in &docs {
            for i in 0..doc.len() {
                for j in i + 1..=doc.len() {
                    let pat = &doc[i..j];
                    let want = frozen.query(pat).to_bits();
                    prop_assert_eq!(v2_owned.query(pat).to_bits(), want);
                    prop_assert_eq!(v2_compressed.query(pat).to_bits(), want);
                    prop_assert_eq!(v2_borrowed.query(pat).to_bits(), want);
                }
            }
        }
        // Absent patterns exercise the early-exit paths of all storages.
        for pat in [b"zz".as_slice(), b"xyzw", b"qqqqqqqq"] {
            let want = frozen.query(pat).to_bits();
            prop_assert_eq!(v2_owned.query(pat).to_bits(), want);
            prop_assert_eq!(v2_compressed.query(pat).to_bits(), want);
            prop_assert_eq!(v2_borrowed.query(pat).to_bits(), want);
        }
    }
}
