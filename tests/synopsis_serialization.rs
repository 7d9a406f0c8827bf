//! Robustness of the default snapshot encoding — `FrozenSynopsis::to_bytes`,
//! the uncompressed `DPSF` v2 dialect that `freeze()` emits — on a *real*
//! DP-built structure: exact round-trips, and `Err` (never a panic) on a
//! corpus of mutated byte strings — truncations, extensions, single-bit
//! flips, spliced garbage, and unstructured noise. The dialect-specific
//! suite (both dialects, forged fields, borrowed decodes) is
//! `tests/synopsis_v2.rs`.

use dp_substring_counting::prelude::*;
use dp_substring_counting::workloads::markov_corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

#[test]
fn binary_roundtrip_preserves_queries_exactly() {
    let (structure, frozen, docs) = built();
    let bytes = frozen.to_bytes();
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
    assert_eq!(back.to_bytes(), bytes);
}

#[test]
fn truncations_and_extensions_error() {
    let (_, frozen, _) = built();
    let bytes = frozen.to_bytes();
    // Every strict prefix fails — stride keeps the sweep fast, the whole
    // 192-byte v2 header territory is covered exhaustively.
    for len in (0..bytes.len()).filter(|&l| l < 200 || l % 37 == 0) {
        assert!(FrozenSynopsis::from_bytes(&bytes[..len]).is_err(), "prefix {len} parsed");
    }
    // Appending bytes fails too (trailing garbage).
    for extra in [1usize, 8, 1024] {
        let mut e = bytes.clone();
        e.extend(std::iter::repeat_n(0xAB, extra));
        assert!(FrozenSynopsis::from_bytes(&e).is_err(), "extension {extra} parsed");
    }
}

#[test]
fn bit_flip_corpus_errors() {
    let (_, frozen, _) = built();
    let bytes = frozen.to_bytes();
    // Strided single-bit flips across the whole buffer (header, section
    // table, section payloads, checksums); the stride is coprime to 8 so
    // every bit index is exercised.
    for pos in (0..bytes.len()).step_by(13) {
        for bit in 0..8 {
            let mut m = bytes.clone();
            m[pos] ^= 1 << bit;
            assert!(
                FrozenSynopsis::from_bytes(&m).is_err(),
                "bit {bit} of byte {pos}/{} flipped silently",
                bytes.len()
            );
        }
    }
}

#[test]
fn random_mutation_corpus_never_panics() {
    let (_, frozen, _) = built();
    let bytes = frozen.to_bytes();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for _ in 0..500 {
        let mut m = bytes.clone();
        match rng.gen_range(0..4u32) {
            // Overwrite a random window with noise.
            0 => {
                let start = rng.gen_range(0..m.len());
                let len = rng.gen_range(1..64usize).min(m.len() - start);
                for b in &mut m[start..start + len] {
                    *b = rng.gen();
                }
            }
            // Delete a random window.
            1 => {
                let start = rng.gen_range(0..m.len());
                let len = rng.gen_range(1..64usize).min(m.len() - start);
                m.drain(start..start + len);
            }
            // Duplicate a random window in place.
            2 => {
                let start = rng.gen_range(0..m.len());
                let len = rng.gen_range(1..64usize).min(m.len() - start);
                let window: Vec<u8> = m[start..start + len].to_vec();
                let at = rng.gen_range(0..m.len());
                m.splice(at..at, window);
            }
            // Pure noise of arbitrary length (structure destroyed).
            _ => {
                let len = rng.gen_range(0..2048usize);
                m = (0..len).map(|_| rng.gen()).collect();
            }
        }
        // Decoding must return cleanly — Err for anything damaged, Ok only
        // if the mutation reproduced a valid encoding (then it must
        // re-serialize consistently).
        if let Ok(parsed) = FrozenSynopsis::from_bytes(&m) {
            assert_eq!(parsed.to_bytes(), m, "accepted a non-canonical encoding");
            assert_eq!(parsed, frozen, "accepted a mutated synopsis as different content");
        }
    }
}
