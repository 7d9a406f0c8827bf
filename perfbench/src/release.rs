//! The curator's release path, from a corpus in memory to v2 snapshot
//! bytes: `CorpusIndex::build` → `build_pure` → `freeze` →
//! `to_bytes_v2(false)`, untraced or decomposed into spans.

use std::time::Instant;

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_dpcore::stream::derive_stream;
use dpsc_private_count::codec::fnv1a;
use dpsc_private_count::{
    build_pure, build_pure_traced, BuildParams, CountMode, FrozenSynopsis, PrivateCountStructure,
    SpanRecorder,
};
use dpsc_strkit::alphabet::Database;
use dpsc_strkit::hash::RollingHash;
use dpsc_strkit::lcp::LcpArray;
use dpsc_strkit::suffix_array::SuffixArray;
use dpsc_textindex::{CorpusIndex, DocDistinctCounter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Corpus, PROBES, UNIVERSE};
use crate::trace::{SpanId, Tracer};

const BETA: f64 = 0.1;
const MODE: CountMode = CountMode::Document;

/// The random stream a release workload's corpus is drawn from.
pub fn corpus_rng(corpus: &Corpus, seed: u64) -> StdRng {
    StdRng::seed_from_u64(derive_stream(seed, corpus.tag))
}

/// The documents of `corpus`, drawn from `rng`.
pub fn make_corpus(corpus: &Corpus, rng: &mut StdRng) -> Database {
    corpus.family.make_corpus(corpus.n, corpus.ell, rng)
}

/// The build randomness of release variant `k` (0 or 1) of `corpus`.
pub fn build_rng(corpus: &Corpus, seed: u64, k: u64) -> StdRng {
    StdRng::seed_from_u64(derive_stream(derive_stream(seed, corpus.tag), 0x100 + k))
}

fn params(corpus: &Corpus) -> BuildParams {
    BuildParams::new(MODE, PrivacyParams::pure(corpus.epsilon), BETA)
        .with_thresholds(corpus.tau_frac * corpus.n as f64, f64::NEG_INFINITY)
}

/// One finished release.
pub struct Released {
    pub bytes: Vec<u8>,
    pub structure: PrivateCountStructure,
    /// FNV-1a of `bytes`.
    pub digest: u64,
    /// Wall time from corpus in memory to v2 bytes, in seconds.
    pub secs: f64,
}

/// Releases `db` with the program's own composition (`build_pure`).
pub fn release(corpus: &Corpus, db: &Database, mut rng: StdRng) -> Result<Released, String> {
    let t0 = Instant::now();
    let idx = CorpusIndex::build(db);
    let structure = build_pure(&idx, &params(corpus), &mut rng).map_err(|e| e.to_string())?;
    drop(idx);
    let bytes = structure.freeze().to_bytes_v2(false);
    let secs = t0.elapsed().as_secs_f64();
    Ok(Released { digest: fnv1a(&bytes), bytes, structure, secs })
}

/// Releases `db` as [`release`] does, with `build_pure_traced` in place of
/// `build_pure` (bit-identical for the same RNG state). Records a `release`
/// span with one child per call, the build's own phases (candidates, count
/// trie, noise, prune) mapped onto the tracer, noise and prune under one
/// `noise_prune` span; after the release, re-runs the index's sub-steps on
/// the same generalized text under a `textindex.substeps` span.
pub fn release_traced(
    corpus: &Corpus,
    db: &Database,
    mut rng: StdRng,
    tr: &mut Tracer,
) -> Result<Released, String> {
    let t0 = Instant::now();
    let root = tr.open("release", None);

    let s = tr.open("textindex.corpus_index", Some(root));
    let idx = CorpusIndex::build(db);
    tr.close(s, idx.text_len() as u64);

    let rec_origin = tr.now_ns();
    let rec = SpanRecorder::new();
    let structure =
        build_pure_traced(&idx, &params(corpus), &mut rng, &rec).map_err(|e| e.to_string())?;
    drop(idx);
    // The recorder's clock started just after `rec_origin`.
    let phase = |name: &str| rec.spans().into_iter().find(|p| p.name == name);
    for (phase_name, span) in
        [("candidates", "private_count.candidates"), ("count_trie", "private_count.count_trie")]
    {
        let p = phase(phase_name).ok_or(format!("build recorded no {phase_name} phase"))?;
        tr.push(span, root, rec_origin + p.start_ns, p.dur_ns, p.items);
    }
    let (noise, prune) = match (phase("noise"), phase("prune")) {
        (Some(n), Some(p)) => (n, p),
        _ => return Err("build recorded no noise or prune phase".into()),
    };
    let np_start = rec_origin + noise.start_ns;
    let np_end = rec_origin + prune.start_ns + prune.dur_ns;
    let np = tr.push("private_count.noise_prune", root, np_start, np_end - np_start, prune.items);
    tr.push("private_count.noise", np, rec_origin + noise.start_ns, noise.dur_ns, noise.items);
    tr.push("private_count.prune", np, rec_origin + prune.start_ns, prune.dur_ns, prune.items);

    let s = tr.open("private_count.freeze", Some(root));
    let frozen = FrozenSynopsis::freeze(&structure);
    tr.close(s, frozen.node_count() as u64);

    let s = tr.open("private_count.encode_v2", Some(root));
    let bytes = frozen.to_bytes_v2(false);
    tr.close(s, bytes.len() as u64);
    drop(frozen);
    let secs = t0.elapsed().as_secs_f64();
    tr.close(root, structure.node_count() as u64);

    index_substeps(db, tr);
    Ok(Released { digest: fnv1a(&bytes), bytes, structure, secs })
}

/// Times `CorpusIndex::build`'s sub-calls on the generalized text it builds
/// (documents joined by distinct sentinels, bytes shifted past them).
fn index_substeps(db: &Database, tr: &mut Tracer) {
    let root = tr.open("textindex.substeps", None);
    let n_docs = db.n();
    let mut text = Vec::with_capacity(db.total_len() + n_docs);
    let mut doc_of = Vec::with_capacity(db.total_len() + n_docs);
    for (i, doc) in db.documents().iter().enumerate() {
        text.extend(doc.iter().map(|&b| (n_docs + b as usize) as u32));
        text.push(i as u32);
        doc_of.resize(text.len(), i as u32);
    }
    let timed = |tr: &mut Tracer, name: &'static str, f: &mut dyn FnMut()| {
        let s: SpanId = tr.open(name, Some(root));
        f();
        tr.close(s, text.len() as u64);
    };
    let mut sa = None;
    timed(tr, "strkit.suffix_array", &mut || {
        sa = Some(SuffixArray::from_ints(&text, n_docs + 256))
    });
    let sa = sa.expect("suffix array built");
    timed(tr, "strkit.lcp", &mut || drop(std::hint::black_box(LcpArray::build(&text, &sa))));
    timed(tr, "strkit.rolling_hash", &mut || drop(std::hint::black_box(RollingHash::new(&text))));
    timed(tr, "textindex.doc_counter", &mut || {
        drop(std::hint::black_box(DocDistinctCounter::build(&sa, &doc_of)))
    });
    tr.close(root, 0);
}

/// A read shard's query patterns: a present universe of up to [`UNIVERSE`]
/// short corpus substrings in first-seen order (the Zipf ranks), then
/// [`PROBES`] uniform probes of digit strings. Returns the patterns and the
/// universe size.
pub fn read_patterns(db: &Database, seed: u64, tag: u64) -> (Vec<Vec<u8>>, usize) {
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(UNIVERSE + PROBES);
    let mut seen = std::collections::HashSet::new();
    'docs: for doc in db.documents() {
        for (start, len) in [(0usize, 3usize), (1, 4), (2, 6), (0, 8)] {
            if doc.len() >= start + len && seen.insert(doc[start..start + len].to_vec()) {
                out.push(doc[start..start + len].to_vec());
                if out.len() == UNIVERSE {
                    break 'docs;
                }
            }
        }
    }
    let universe = out.len();
    let mut rng = StdRng::seed_from_u64(derive_stream(seed, 0x200 + tag));
    for _ in 0..PROBES {
        let len = rng.gen_range(2..10usize);
        out.push((0..len).map(|_| rng.gen_range(b'0'..=b'9')).collect());
    }
    (out, universe)
}
