//! `DPSF` v2: the sectioned snapshot codec behind zero-copy serving, and
//! the only format a `FrozenSynopsis` reads or writes (version 1, a
//! packed layout with one trailing checksum, is retired and decodes as
//! `UnsupportedVersion`). The four CSR arrays sit in aligned sections,
//! each with its own checksum, so an uncompressed snapshot decodes without
//! copying and a corrupt byte is reported by section:
//!
//! ```text
//! off   size  field
//!   0      4  magic "DPSF"
//!   4      2  version = 2 (u16 LE)
//!   6      2  flags (bit 0 = compressed edge arrays; others reserved = 0)
//!   8      4  mode tag (u32 LE)
//!  12      4  section count = 4 (u32 LE)
//!  16      8  clip level (u64 LE)
//!  24     32  ε, δ, α_counts, α_absent (f64 bit patterns, LE)
//!  56     32  n_docs, ℓ, n_nodes, n_edges (u64 LE)
//!  88     96  section table: 4 × { offset u64, len u64, fnv1a u64 }
//! 184      8  header checksum = fnv1a(bytes[0..184])
//! 192      …  sections, fixed order counts / edge_start / edge_label /
//!             edge_target, each starting on an 8-byte boundary with
//!             zeroed padding between (padding is validated, so the
//!             encoding stays canonical)
//! ```
//!
//! **Borrowing.** Every section offset is a multiple of 8 and the
//! uncompressed sections are raw little-endian arrays, so after the
//! header, table and per-section checksums validate, the decoder can
//! point the synopsis arrays *into the input buffer* (`Arc<[u8]>`) and
//! skip the copies entirely — `Storage::Borrowed`. Reads go through
//! `from_le_bytes` on fixed-size ranges (safe code; compiles to a plain
//! load on little-endian targets), which is what keeps the workspace's
//! `unsafe_code = "deny"` intact: no `&[u8]` → `&[f64]` casts anywhere.
//!
//! **Compression** (flag bit 0): `edge_start` is stored as per-node
//! degrees (delta of the offsets) in LEB128 varints, and `edge_target`
//! as zigzag varints of consecutive gaps — BFS numbering makes targets
//! near-monotone, so gaps are small. Varints are required to be minimal
//! on decode (no redundant continuation bytes), keeping the dialect
//! canonical: `from_bytes(b)?.to_bytes() == b` for both dialects.
//! Compressed snapshots always decode into owned storage. The dialect is
//! opt-in (`to_bytes_v2(true)`): `freeze` emits uncompressed snapshots,
//! the ones the daemon serves borrowed.

use std::sync::Arc;

use dpsc_dpcore::budget::PrivacyParams;

use crate::codec::{fnv1a, le_f64, le_u32, require_finite, Cursor, DecodeError};
use crate::structure::CountMode;
use crate::synopsis::{FrozenSynopsis, Storage};

/// Magic bytes opening the binary format ("DP Synopsis, Frozen").
const MAGIC: [u8; 4] = *b"DPSF";
/// Version tag of the sectioned format.
const VERSION: u16 = 2;
/// Flag bit 0: edge arrays are varint-compressed.
const FLAG_COMPRESSED: u16 = 1;
/// The four sections, in their fixed on-wire order.
const SECTION_NAMES: [&str; 4] = ["counts", "edge_start", "edge_label", "edge_target"];
/// Bytes of fixed header fields before the section table.
const TABLE_OFF: usize = 88;
/// One section-table entry: offset, length, checksum.
const TABLE_ENTRY_LEN: usize = 24;
/// Offset of the header checksum (it covers everything before itself).
const HEADER_SUM_OFF: usize = TABLE_OFF + 4 * TABLE_ENTRY_LEN;
/// Total header size; the first section starts here (8-byte aligned).
pub(crate) const HEADER_LEN: usize = HEADER_SUM_OFF + 8;

/// Next multiple of 8 at or above `x`.
#[inline]
fn align8(x: usize) -> usize {
    (x + 7) & !7
}

/// Appends `v` as a minimal LEB128 varint.
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded size of `v` as a minimal LEB128 varint.
#[inline]
fn varint_len(v: u64) -> usize {
    ((64 - v.leading_zeros()).max(1) as usize).div_ceil(7)
}

/// Reads one minimal LEB128 varint from `buf` at `*pos`. Rejects
/// truncation, >64-bit values, and non-minimal encodings (a redundant
/// zero final byte) — minimality is what makes compressed snapshots
/// canonical.
fn read_varint(buf: &[u8], pos: &mut usize, field: &'static str) -> Result<u64, DecodeError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or(DecodeError::BadField { field, detail: "varint truncated".to_string() })?;
        *pos += 1;
        let payload = (b & 0x7F) as u64;
        if shift == 63 && payload > 1 {
            return Err(DecodeError::BadField {
                field,
                detail: "varint overflows u64".to_string(),
            });
        }
        value |= payload << shift;
        if b & 0x80 == 0 {
            if shift > 0 && b == 0 {
                return Err(DecodeError::BadField {
                    field,
                    detail: "non-minimal varint (redundant zero final byte)".to_string(),
                });
            }
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::BadField {
                field,
                detail: "varint longer than 10 bytes".to_string(),
            });
        }
    }
}

/// Maps a signed gap onto the unsigned varint domain (zigzag).
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Byte length of each section in the chosen dialect, in wire order.
fn section_lens(store: &Storage, compressed: bool) -> [usize; 4] {
    let n = store.n_nodes();
    let e = store.n_edges();
    let edge_start = if compressed {
        (0..n)
            .map(|v| varint_len((store.edge_start_at(v + 1) - store.edge_start_at(v)) as u64))
            .sum()
    } else {
        4 * (n + 1)
    };
    let edge_target = if compressed {
        let mut prev = 0i64;
        let mut total = 0usize;
        for i in 0..e {
            let t = store.edge_target_at(i) as i64;
            total += varint_len(zigzag(t - prev));
            prev = t;
        }
        total
    } else {
        4 * e
    };
    [8 * n, edge_start, e, edge_target]
}

/// Section offsets (first at [`HEADER_LEN`], each aligned to 8) and the
/// total encoded size (the last section's end, unpadded).
fn section_layout(lens: &[usize; 4]) -> ([usize; 4], usize) {
    let mut offsets = [0usize; 4];
    let mut off = HEADER_LEN;
    for (slot, len) in offsets.iter_mut().zip(lens) {
        *slot = off;
        off = align8(off + len);
    }
    (offsets, offsets[3] + lens[3])
}

/// Serialized size of `syn` in the v2 dialect — a size-only pass, no
/// encoding. Keeps `FrozenSynopsis::serialized_len` in sync with
/// [`encode`] by construction (both derive from [`section_lens`]).
pub(crate) fn encoded_len(syn: &FrozenSynopsis, compressed: bool) -> usize {
    section_layout(&section_lens(&syn.store, compressed)).1
}

/// Encodes `syn` into the v2 wire format.
pub(crate) fn encode(syn: &FrozenSynopsis, compressed: bool) -> Vec<u8> {
    let store = &syn.store;
    let n = store.n_nodes();
    let e = store.n_edges();
    let lens = section_lens(store, compressed);
    let (offsets, total) = section_layout(&lens);

    let mut counts = Vec::with_capacity(lens[0]);
    for v in 0..n {
        counts.extend_from_slice(&store.count(v).to_bits().to_le_bytes());
    }
    let mut edge_start = Vec::with_capacity(lens[1]);
    if compressed {
        for v in 0..n {
            let degree = store.edge_start_at(v + 1) - store.edge_start_at(v);
            write_varint(&mut edge_start, degree as u64);
        }
    } else {
        for i in 0..=n {
            edge_start.extend_from_slice(&(store.edge_start_at(i) as u32).to_le_bytes());
        }
    }
    let edge_label = store.edge_labels(0, e).to_vec();
    let mut edge_target = Vec::with_capacity(lens[3]);
    if compressed {
        let mut prev = 0i64;
        for i in 0..e {
            let t = store.edge_target_at(i) as i64;
            write_varint(&mut edge_target, zigzag(t - prev));
            prev = t;
        }
    } else {
        for i in 0..e {
            edge_target.extend_from_slice(&store.edge_target_at(i).to_le_bytes());
        }
    }
    let sections = [counts, edge_start, edge_label, edge_target];
    debug_assert!(sections.iter().map(Vec::len).eq(lens.iter().copied()));

    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let flags = if compressed { FLAG_COMPRESSED } else { 0 };
    out.extend_from_slice(&flags.to_le_bytes());
    let (tag, clip) = mode_wire(syn.mode);
    out.extend_from_slice(&(tag as u32).to_le_bytes());
    out.extend_from_slice(&(SECTION_NAMES.len() as u32).to_le_bytes());
    out.extend_from_slice(&clip.to_le_bytes());
    out.extend_from_slice(&syn.privacy.epsilon.to_bits().to_le_bytes());
    out.extend_from_slice(&syn.privacy.delta.to_bits().to_le_bytes());
    out.extend_from_slice(&syn.alpha_counts.to_bits().to_le_bytes());
    out.extend_from_slice(&syn.alpha_absent.to_bits().to_le_bytes());
    out.extend_from_slice(&(syn.n_docs as u64).to_le_bytes());
    out.extend_from_slice(&(syn.max_len as u64).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(e as u64).to_le_bytes());
    debug_assert_eq!(out.len(), TABLE_OFF);
    for (offset, section) in offsets.iter().zip(&sections) {
        out.extend_from_slice(&(*offset as u64).to_le_bytes());
        out.extend_from_slice(&(section.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(section).to_le_bytes());
    }
    debug_assert_eq!(out.len(), HEADER_SUM_OFF);
    let header_sum = fnv1a(&out);
    out.extend_from_slice(&header_sum.to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    for (offset, section) in offsets.iter().zip(&sections) {
        out.resize(*offset, 0); // zeroed alignment padding
        out.extend_from_slice(section);
    }
    debug_assert_eq!(out.len(), total);
    out
}

/// Decodes v2 bytes into fully owned storage.
pub(crate) fn decode_owned(bytes: &[u8]) -> Result<FrozenSynopsis, DecodeError> {
    decode_impl(bytes, None)
}

/// Decodes v2 bytes with shared ownership of the buffer: uncompressed
/// snapshots borrow their arrays from `buf` (zero per-array copies);
/// compressed ones still decode owned.
pub(crate) fn decode_shared(buf: &Arc<[u8]>) -> Result<FrozenSynopsis, DecodeError> {
    decode_impl(buf, Some(buf))
}

fn decode_impl(bytes: &[u8], shared: Option<&Arc<[u8]>>) -> Result<FrozenSynopsis, DecodeError> {
    let mut cur = Cursor::new(bytes);
    let magic: [u8; 4] = cur.take(4)?.try_into().expect("4-byte magic");
    if magic != MAGIC {
        return Err(DecodeError::BadMagic { found: magic, expected: MAGIC });
    }
    let version = cur.u16()?;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion { found: version, expected: VERSION });
    }
    let flags = cur.u16()?;
    if flags & !FLAG_COMPRESSED != 0 {
        return Err(DecodeError::BadField {
            field: "flags",
            detail: format!("reserved flag bits set: {flags:#06x}"),
        });
    }
    let compressed = flags & FLAG_COMPRESSED != 0;
    let tag = cur.u32()?;
    let tag = u8::try_from(tag).map_err(|_| DecodeError::BadField {
        field: "mode tag",
        detail: format!("unknown tag {tag}"),
    })?;
    let section_count = cur.u32()?;
    if section_count as usize != SECTION_NAMES.len() {
        return Err(DecodeError::BadField {
            field: "section count",
            detail: format!("{section_count} != {}", SECTION_NAMES.len()),
        });
    }
    let clip = cur.u64()?;
    let mode = mode_from_wire(tag, clip)?;
    let epsilon = cur.f64()?;
    let delta = cur.f64()?;
    check_privacy_fields(epsilon, delta)?;
    let alpha_counts = cur.f64()?;
    let alpha_absent = cur.f64()?;
    require_finite("alpha_counts", alpha_counts)?;
    require_finite("alpha_absent", alpha_absent)?;
    let n_docs = cur.usize64()?;
    let max_len = cur.usize64()?;
    let n_nodes = cur.usize64()?;
    let n_edges = cur.usize64()?;
    check_tree_shape(n_nodes, n_edges)?;
    debug_assert_eq!(cur.pos(), TABLE_OFF);
    let mut sections = [(0usize, 0usize); 4];
    let mut section_sums = [0u64; 4];
    for i in 0..SECTION_NAMES.len() {
        let offset = cur.usize64()?;
        let len = cur.usize64()?;
        section_sums[i] = cur.u64()?;
        sections[i] = (offset, len);
    }
    // Authenticate the header (including the section table) before
    // trusting any offset in it.
    let stored = cur.u64()?;
    debug_assert_eq!(cur.pos(), HEADER_LEN);
    let computed = fnv1a(&bytes[..HEADER_SUM_OFF]);
    if stored != computed {
        return Err(DecodeError::ChecksumMismatch { stored, computed });
    }
    // The layout is fully determined by the header counts: each section
    // must sit at the next 8-aligned offset, and the fixed-width sections
    // must have exactly their computed size. Anything else is
    // non-canonical and rejected.
    let known_lens: [Option<usize>; 4] = [
        Some(8 * n_nodes),
        (!compressed).then(|| 4 * (n_nodes + 1)),
        Some(n_edges),
        (!compressed).then(|| 4 * n_edges),
    ];
    let mut expect_off = HEADER_LEN;
    for (i, &(offset, len)) in sections.iter().enumerate() {
        let name = SECTION_NAMES[i];
        if offset != expect_off {
            return Err(DecodeError::Structural(format!(
                "section {name} at offset {offset}, layout requires {expect_off}"
            )));
        }
        if let Some(want) = known_lens[i] {
            if len != want {
                return Err(DecodeError::BadField {
                    field: "section length",
                    detail: format!("section {name} is {len} bytes, layout requires {want}"),
                });
            }
        }
        let end = offset.checked_add(len).ok_or(DecodeError::SizeOverflow)?;
        expect_off = end.checked_add(7).ok_or(DecodeError::SizeOverflow)? & !7;
    }
    let total = sections[3].0 + sections[3].1;
    if bytes.len() < total {
        return Err(DecodeError::Truncated {
            offset: bytes.len(),
            need: total - bytes.len(),
            have: 0,
        });
    }
    if bytes.len() > total {
        return Err(DecodeError::TrailingGarbage { extra: bytes.len() - total });
    }
    // Alignment padding must be zero (canonicality: exactly one encoding
    // per synopsis) and the per-section checksums must hold, so a corrupt
    // byte anywhere in the payload is caught and *named*.
    for i in 0..3 {
        let gap = sections[i].0 + sections[i].1..sections[i + 1].0;
        if bytes[gap].iter().any(|&b| b != 0) {
            return Err(DecodeError::Structural(format!(
                "nonzero alignment padding after section {}",
                SECTION_NAMES[i]
            )));
        }
    }
    for (i, &(offset, len)) in sections.iter().enumerate() {
        let computed = fnv1a(&bytes[offset..offset + len]);
        if computed != section_sums[i] {
            return Err(DecodeError::SectionChecksumMismatch {
                section: SECTION_NAMES[i],
                stored: section_sums[i],
                computed,
            });
        }
    }

    let store = if compressed {
        Storage::Owned {
            counts: bytes[sections[0].0..sections[0].0 + sections[0].1]
                .chunks_exact(8)
                .map(|c| le_f64(c, 0))
                .collect(),
            edge_start: decode_degrees(
                &bytes[sections[1].0..sections[1].0 + sections[1].1],
                n_nodes,
                n_edges,
            )?,
            edge_label: bytes[sections[2].0..sections[2].0 + sections[2].1].to_vec(),
            edge_target: decode_gaps(
                &bytes[sections[3].0..sections[3].0 + sections[3].1],
                n_edges,
            )?,
        }
    } else if let Some(buf) = shared {
        Storage::Borrowed {
            buf: Arc::clone(buf),
            counts_off: sections[0].0,
            edge_start_off: sections[1].0,
            edge_label_off: sections[2].0,
            edge_target_off: sections[3].0,
            n_nodes,
            n_edges,
        }
    } else {
        Storage::Owned {
            counts: bytes[sections[0].0..sections[0].0 + sections[0].1]
                .chunks_exact(8)
                .map(|c| le_f64(c, 0))
                .collect(),
            edge_start: bytes[sections[1].0..sections[1].0 + sections[1].1]
                .chunks_exact(4)
                .map(|c| le_u32(c, 0))
                .collect(),
            edge_label: bytes[sections[2].0..sections[2].0 + sections[2].1].to_vec(),
            edge_target: bytes[sections[3].0..sections[3].0 + sections[3].1]
                .chunks_exact(4)
                .map(|c| le_u32(c, 0))
                .collect(),
        }
    };
    store.validate()?;
    let fast = store.build_fastpath();
    Ok(FrozenSynopsis {
        store,
        fast,
        mode,
        privacy: privacy_from_wire(epsilon, delta),
        alpha_counts,
        alpha_absent,
        n_docs,
        max_len,
        compressed,
    })
}

/// Decompresses the `edge_start` section: `n_nodes` per-node degree
/// varints, prefix-summed back into CSR offsets.
fn decode_degrees(buf: &[u8], n_nodes: usize, n_edges: usize) -> Result<Vec<u32>, DecodeError> {
    let mut edge_start = Vec::with_capacity(n_nodes + 1);
    edge_start.push(0u32);
    let mut acc = 0u64;
    let mut pos = 0usize;
    for _ in 0..n_nodes {
        let degree = read_varint(buf, &mut pos, "edge_start")?;
        acc = acc.checked_add(degree).ok_or(DecodeError::SizeOverflow)?;
        if acc > n_edges as u64 {
            return Err(DecodeError::Structural("CSR offsets do not span the edge arrays".into()));
        }
        edge_start.push(acc as u32);
    }
    if pos != buf.len() {
        return Err(DecodeError::BadField {
            field: "edge_start",
            detail: format!("{} trailing bytes after {n_nodes} degree varints", buf.len() - pos),
        });
    }
    Ok(edge_start)
}

/// Decompresses the `edge_target` section: `n_edges` zigzag gap varints
/// cumulated back into absolute targets.
fn decode_gaps(buf: &[u8], n_edges: usize) -> Result<Vec<u32>, DecodeError> {
    let mut edge_target = Vec::with_capacity(n_edges);
    let mut prev = 0i64;
    let mut pos = 0usize;
    for _ in 0..n_edges {
        let gap = unzigzag(read_varint(buf, &mut pos, "edge_target")?);
        let t = prev.checked_add(gap).ok_or(DecodeError::SizeOverflow)?;
        if !(0..=u32::MAX as i64).contains(&t) {
            return Err(DecodeError::BadField {
                field: "edge_target",
                detail: format!("gap-decoded target {t} outside the u32 range"),
            });
        }
        edge_target.push(t as u32);
        prev = t;
    }
    if pos != buf.len() {
        return Err(DecodeError::BadField {
            field: "edge_target",
            detail: format!("{} trailing bytes after {n_edges} gap varints", buf.len() - pos),
        });
    }
    Ok(edge_target)
}

/// Wire encoding of a [`CountMode`]: `(tag, clip level)`.
fn mode_wire(mode: CountMode) -> (u8, u64) {
    match mode {
        CountMode::Document => (0, 0),
        CountMode::Substring => (1, 0),
        CountMode::Clipped(d) => (2, d as u64),
    }
}

/// Decodes and canonicality-checks a mode tag + clip level pair.
fn mode_from_wire(tag: u8, clip: u64) -> Result<CountMode, DecodeError> {
    match tag {
        // Canonicality: the clip field carries information only for
        // tag 2; any other encoding must use zero so that equal
        // synopses have exactly one byte representation.
        0 | 1 if clip != 0 => Err(DecodeError::BadField {
            field: "clip level",
            detail: format!("nonzero clip level {clip} with mode tag {tag}"),
        }),
        0 => Ok(CountMode::Document),
        1 => Ok(CountMode::Substring),
        2 => {
            let d = usize::try_from(clip).map_err(|_| DecodeError::SizeOverflow)?;
            Ok(CountMode::Clipped(d))
        }
        other => {
            Err(DecodeError::BadField { field: "mode tag", detail: format!("unknown tag {other}") })
        }
    }
}

/// Domain checks for the decoded privacy parameters.
fn check_privacy_fields(epsilon: f64, delta: f64) -> Result<(), DecodeError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(DecodeError::BadField { field: "epsilon", detail: epsilon.to_string() });
    }
    // `-0.0` would satisfy a plain range check but re-serialize as
    // `+0.0` (PrivacyParams::pure normalizes it), breaking
    // canonicality — reject the sign bit explicitly.
    if delta.is_sign_negative() || !((0.0..1.0).contains(&delta)) {
        return Err(DecodeError::BadField { field: "delta", detail: delta.to_string() });
    }
    Ok(())
}

/// Rebuilds [`PrivacyParams`] from validated wire floats.
fn privacy_from_wire(epsilon: f64, delta: f64) -> PrivacyParams {
    if delta == 0.0 {
        PrivacyParams::pure(epsilon)
    } else {
        PrivacyParams::approx(epsilon, delta)
    }
}

/// Node/edge count sanity of a decoded header.
fn check_tree_shape(n_nodes: usize, n_edges: usize) -> Result<(), DecodeError> {
    if n_nodes == 0 {
        return Err(DecodeError::BadField {
            field: "node count",
            detail: "zero (the root is mandatory)".to_string(),
        });
    }
    if n_edges != n_nodes - 1 {
        return Err(DecodeError::BadField {
            field: "edge count",
            detail: format!("{n_edges} != node count {n_nodes} - 1"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip_minimally() {
        let values = [0u64, 1, 127, 128, 129, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "value {v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos, "test").unwrap(), v);
            assert_eq!(pos, buf.len(), "value {v} fully consumed");
        }
    }

    #[test]
    fn non_minimal_and_oversized_varints_are_rejected() {
        // 0x80 0x00 encodes 0 with a redundant continuation byte.
        let mut pos = 0;
        assert!(read_varint(&[0x80, 0x00], &mut pos, "test").is_err());
        // Truncated: continuation bit set, no next byte.
        let mut pos = 0;
        assert!(read_varint(&[0x80], &mut pos, "test").is_err());
        // 11 bytes of continuation overflow u64.
        let mut pos = 0;
        assert!(read_varint(&[0xFF; 11], &mut pos, "test").is_err());
        // 10th byte may carry only the top bit of a u64.
        let mut buf = vec![0xFF; 9];
        buf.push(0x02);
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos, "test").is_err());
        let mut buf = vec![0xFF; 9];
        buf.push(0x01);
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos, "test").unwrap(), u64::MAX);
    }

    #[test]
    fn zigzag_is_a_bijection_on_gaps() {
        for v in [0i64, 1, -1, 2, -2, 63, -64, u32::MAX as i64, -(u32::MAX as i64)] {
            assert_eq!(unzigzag(zigzag(v)), v, "value {v}");
        }
        // Small magnitudes map to small codes (what makes gaps cheap).
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn align8_is_the_next_multiple() {
        for (x, want) in [(0usize, 0usize), (1, 8), (7, 8), (8, 8), (9, 16), (192, 192)] {
            assert_eq!(align8(x), want, "align8({x})");
        }
    }
}
