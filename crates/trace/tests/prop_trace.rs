//! Property-based round-trip guarantees of the trace codecs: any op
//! sequence — including degenerate phases with zero memory operations —
//! encodes and decodes identically through both the binary and the text
//! format.
//!
//! The binary codec is also held to an independent reference: a plain
//! per-op encoder written from the format description, which the chunked
//! writer, the in-memory encoder and the fused digest must match byte for
//! byte, and a streaming
//! decoder fed through a reader that returns few bytes per call, which the
//! slice decoder must agree with on every valid document and on every
//! truncation and byte flip of a seeded one.

use proptest::prelude::*;
use std::io::Read;
use tw_trace::{diff, digest_encoding, TraceDocument, TraceError};
use tw_types::{
    Addr, BypassKind, CommRegion, Digest, MemKind, RegionId, RegionInfo, RegionTable, TraceOp,
};

/// Decodes one generated 4-tuple into a trace op. Addresses are arbitrary
/// word indices (not confined to the declared regions — the codec must not
/// care), regions arbitrary small ids, and kind 3 produces barriers so
/// phases of every length (including zero mem ops) arise naturally.
fn op_from(kind: u8, payload: u64, region: u64, cycles: u64) -> TraceOp {
    match kind {
        0 => TraceOp::Mem {
            kind: MemKind::Load,
            addr: Addr::new(payload * 4),
            region: RegionId(region as u16),
        },
        1 => TraceOp::Mem {
            kind: MemKind::Store,
            addr: Addr::new(payload * 4),
            region: RegionId(region as u16),
        },
        2 => TraceOp::Compute {
            cycles: cycles as u32,
        },
        _ => TraceOp::Barrier {
            id: (payload % 100) as u32,
        },
    }
}

fn doc_with_streams(streams: Vec<Vec<TraceOp>>) -> TraceDocument {
    let mut regions = RegionTable::new();
    regions.insert(RegionInfo::plain(
        RegionId(0),
        "anything",
        Addr::new(0),
        1 << 40,
    ));
    TraceDocument {
        benchmark: "custom".into(),
        input: "proptest".into(),
        regions,
        streams,
    }
}

/// LEB128, one byte per step, as the format description states it.
fn ref_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let low = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(low);
            return;
        }
        out.push(low | 0x80);
    }
}

fn ref_string(out: &mut Vec<u8>, s: &str) {
    ref_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The reference encoder: the binary layout written out field by field and
/// op by op, independent of the crate's writer.
fn ref_encode(doc: &TraceDocument) -> Vec<u8> {
    let mut out = b"DNVT".to_vec();
    out.push(1);
    ref_string(&mut out, &doc.benchmark);
    ref_string(&mut out, &doc.input);
    ref_varint(&mut out, doc.streams.len() as u64);
    ref_varint(&mut out, doc.regions.len() as u64);
    for r in doc.regions.iter() {
        ref_varint(&mut out, r.id.0 as u64);
        ref_string(&mut out, &r.name);
        ref_varint(&mut out, r.base.byte());
        ref_varint(&mut out, r.bytes);
        let bypass = match r.bypass {
            BypassKind::None => 0,
            BypassKind::ReadThenOverwritten => 1,
            BypassKind::StreamingOncePerPhase => 2,
        };
        out.push(r.written_in_parallel_phases as u8 | bypass << 1);
        match &r.comm {
            None => out.push(0),
            Some(comm) => {
                out.push(1);
                ref_varint(&mut out, comm.object_bytes);
                ref_varint(&mut out, comm.useful_offsets.len() as u64);
                for &off in &comm.useful_offsets {
                    ref_varint(&mut out, off);
                }
            }
        }
    }
    for stream in &doc.streams {
        let mut prev = 0u64;
        for op in stream {
            match *op {
                TraceOp::Mem { kind, addr, region } => {
                    out.push(if kind == MemKind::Load { 0x00 } else { 0x01 });
                    let delta = addr.byte().wrapping_sub(prev) as i64;
                    ref_varint(&mut out, ((delta << 1) ^ (delta >> 63)) as u64);
                    ref_varint(&mut out, region.0 as u64);
                    prev = addr.byte();
                }
                TraceOp::Compute { cycles } => {
                    out.push(0x02);
                    ref_varint(&mut out, cycles as u64);
                }
                TraceOp::Barrier { id } => {
                    out.push(0x03);
                    ref_varint(&mut out, id as u64);
                }
            }
        }
        out.push(0xFF);
    }
    out
}

/// A `Read` source that hands out at most `step` bytes per call, so the
/// streaming decoder sees reads split at every possible boundary.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Decodes `bytes` through the streaming `Read` path.
fn stream_decode(bytes: &[u8], step: usize) -> Result<TraceDocument, TraceError> {
    TraceDocument::read_binary(Trickle { bytes, step })
}

/// Asserts the slice decoder and the streaming decoder reach the same
/// outcome on `bytes`: the same document, or errors of the same variant
/// with the same message.
fn assert_decoders_agree(bytes: &[u8], step: usize, what: &str) {
    let streamed = stream_decode(bytes, step);
    if !bytes.starts_with(b"DNVT") {
        // `from_bytes` hands non-binary input to the text parser; both
        // paths must still refuse it.
        assert!(matches!(streamed, Err(TraceError::Malformed(_))), "{what}");
        assert!(TraceDocument::from_bytes(bytes).is_err(), "{what}");
        return;
    }
    match (TraceDocument::from_bytes(bytes), streamed) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: decoders disagree"),
        (Err(TraceError::Malformed(a)), Err(TraceError::Malformed(b))) => {
            assert_eq!(a, b, "{what}: decoders fail differently")
        }
        (a, b) => panic!("{what}: slice decoder {a:?}, streaming decoder {b:?}"),
    }
}

/// A region table exercising every header field: multi-byte UTF-8 names,
/// full-width bases and sizes, every bypass kind, comm regions with
/// offsets.
fn regions_from(seeds: &[(u64, u64, u64, u32)]) -> RegionTable {
    let mut regions = RegionTable::new();
    for (i, &(base, bytes, offsets_seed, flags)) in seeds.iter().enumerate() {
        let mut r = RegionInfo::plain(
            RegionId(i as u16 * 7),
            format!("région {i} {offsets_seed:x}"),
            Addr::new(base),
            bytes,
        );
        r.bypass = match flags % 3 {
            0 => BypassKind::None,
            1 => BypassKind::ReadThenOverwritten,
            _ => BypassKind::StreamingOncePerPhase,
        };
        r.written_in_parallel_phases = flags & 4 != 0;
        if flags & 8 != 0 {
            r.comm = Some(CommRegion {
                object_bytes: offsets_seed >> (flags % 64),
                useful_offsets: (0..offsets_seed % 9)
                    .map(|k| k * 8 + offsets_seed % 5)
                    .collect(),
            });
        }
        regions.insert(r);
    }
    regions
}

/// Ops over the full value ranges: `shift` mixes one-byte deltas with
/// ten-byte ones, and region ids, cycle counts and barrier ids use their
/// whole widths.
fn full_range_op(kind: u8, payload: u64, shift: u32, wide: u32) -> TraceOp {
    match kind {
        0 => TraceOp::load(Addr::new(payload >> shift), RegionId(wide as u16)),
        1 => TraceOp::store(Addr::new(payload >> shift), RegionId((wide >> 16) as u16)),
        2 => TraceOp::compute(wide),
        _ => TraceOp::barrier(wide >> (shift % 32)),
    }
}

/// A small seeded document (about 1.5 KB), with a region table that covers
/// every header field: the subject of the exhaustive truncation and
/// bit-flip sweeps.
fn seeded_document() -> TraceDocument {
    let regions = regions_from(&[
        (0x1000, 1 << 20, 0x35, 9),
        (u64::MAX - 64, 4096, 0x1f, 6),
        (1 << 40, 300, 0, 13),
    ]);
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let streams = (0..3)
        .map(|core| {
            (0..40 + core * 9)
                .map(|_| {
                    let r = next();
                    full_range_op(
                        (r % 4) as u8,
                        next(),
                        (r >> 8) as u32 % 64,
                        (r >> 32) as u32,
                    )
                })
                .collect()
        })
        .collect();
    TraceDocument {
        benchmark: "seeded".into(),
        input: "truncation and flip sweep".into(),
        regions,
        streams,
    }
}

#[test]
fn decoders_agree_on_every_truncation_and_byte_flip() {
    let doc = seeded_document();
    let bytes = doc.to_binary_bytes().unwrap();
    assert_eq!(bytes, ref_encode(&doc));
    let mut written = Vec::new();
    doc.write_binary(&mut written).unwrap();
    assert_eq!(written, bytes);
    assert_decoders_agree(&bytes, 3, "the intact document");
    assert_eq!(TraceDocument::from_bytes(&bytes).unwrap(), doc);
    for cut in 0..bytes.len() {
        let what = format!("truncated to {cut} of {} bytes", bytes.len());
        assert_decoders_agree(&bytes[..cut], 1 + cut % 5, &what);
        assert!(TraceDocument::from_bytes(&bytes[..cut]).is_err(), "{what}");
    }
    let mut flipped = bytes.clone();
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            flipped[pos] ^= 1 << bit;
            let what = format!("bit {bit} of byte {pos} flipped");
            assert_decoders_agree(&flipped, 1 + (pos + bit) % 7, &what);
            flipped[pos] ^= 1 << bit;
        }
    }
    // Trailing bytes, as from a concatenated file, fail the same way too.
    let mut longer = bytes.clone();
    longer.extend_from_slice(&bytes[..7]);
    assert_decoders_agree(&longer, 4, "a trailing partial copy");
    assert!(TraceDocument::from_bytes(&longer).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chunked writer and the fused digest match the per-op reference
    /// encoder for arbitrary documents, including ones long enough to
    /// spill the writer's chunk buffer many times; and the slice and
    /// streaming decoders return the same document from them.
    #[test]
    fn chunked_codec_matches_the_reference_encoder(
        raw in prop::collection::vec((0u8..4, any::<u64>(), 0u32..64, any::<u32>()), 0..20_000),
        cores in 1usize..4,
        seeds in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()), 0..4),
        step in 1usize..64,
    ) {
        let ops: Vec<TraceOp> = raw
            .into_iter()
            .map(|(k, p, s, w)| full_range_op(k, p, s, w))
            .collect();
        // Uneven per-core split: some streams empty, one holding most ops.
        let mut streams = vec![Vec::new(); cores];
        for (i, op) in ops.into_iter().enumerate() {
            streams[(i * i) % cores].push(op);
        }
        let doc = TraceDocument {
            benchmark: "custom".into(),
            // Header strings of every length up to a few hundred bytes.
            input: format!("{cores} cores {}", "·".repeat(step * 3)),
            regions: regions_from(&seeds),
            streams,
        };
        let reference = ref_encode(&doc);
        let mut written = Vec::new();
        doc.write_binary(&mut written).unwrap();
        prop_assert!(written == reference, "chunked writer diverged from the reference encoder");
        let bytes = doc.to_binary_bytes().unwrap();
        prop_assert!(bytes == reference, "in-memory encoder diverged from the reference encoder");
        prop_assert_eq!(doc.digest().unwrap(), Digest::of_bytes(&reference));
        prop_assert_eq!(
            digest_encoding(&doc.benchmark, &doc.input, &doc.regions, &doc.streams),
            Digest::of_bytes(&reference)
        );
        let sliced = TraceDocument::from_bytes(&bytes).unwrap();
        let streamed = stream_decode(&bytes, step).unwrap();
        prop_assert_eq!(&sliced, &doc);
        prop_assert_eq!(&streamed, &doc);
    }
}

proptest! {
    /// Binary encode -> decode is the identity for arbitrary op sequences
    /// across multiple cores.
    #[test]
    fn binary_codec_round_trips_arbitrary_streams(
        raw_a in prop::collection::vec((0u8..4, 0u64..1_000_000, 0u64..64, 0u64..10_000), 0..300),
        raw_b in prop::collection::vec((0u8..4, 0u64..1_000_000, 0u64..64, 0u64..10_000), 0..300),
    ) {
        let streams = vec![
            raw_a.into_iter().map(|(k, p, r, c)| op_from(k, p, r, c)).collect(),
            raw_b.into_iter().map(|(k, p, r, c)| op_from(k, p, r, c)).collect(),
        ];
        let doc = doc_with_streams(streams);
        let bytes = doc.to_binary_bytes().unwrap();
        let back = TraceDocument::from_bytes(&bytes).unwrap();
        prop_assert!(diff(&doc, &back).is_none(), "binary round trip diverged");
        prop_assert_eq!(&doc, &back);
    }

    /// The text format round-trips the same arbitrary sequences.
    #[test]
    fn text_codec_round_trips_arbitrary_streams(
        raw in prop::collection::vec((0u8..4, 0u64..1_000_000, 0u64..64, 0u64..10_000), 0..200),
    ) {
        let doc = doc_with_streams(vec![
            raw.into_iter().map(|(k, p, r, c)| op_from(k, p, r, c)).collect(),
        ]);
        let back = TraceDocument::from_text(&doc.to_text()).unwrap();
        prop_assert_eq!(&doc, &back);
    }

    /// Degenerate phase structure: streams that are nothing but barriers
    /// (every phase has zero memory operations) survive both codecs.
    #[test]
    fn degenerate_zero_mem_phases_round_trip(
        barrier_count in 0usize..50,
        cores in 1usize..8,
    ) {
        let stream: Vec<TraceOp> = (0..barrier_count as u32).map(TraceOp::barrier).collect();
        let doc = doc_with_streams(vec![stream; cores]);
        let bytes = doc.to_binary_bytes().unwrap();
        let back = TraceDocument::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&doc, &back);
        let text_back = TraceDocument::from_text(&doc.to_text()).unwrap();
        prop_assert_eq!(&doc, &text_back);
    }

    /// Truncating the binary encoding anywhere strictly inside the payload
    /// never yields a silently valid trace: the reader either errors or (on
    /// header-only truncations that keep the byte sequence self-delimiting)
    /// reports a different document, never the original one with ops lost.
    #[test]
    fn truncation_is_never_a_silent_success(
        raw in prop::collection::vec((0u8..4, 0u64..1_000_000, 0u64..64, 0u64..10_000), 1..100),
        cut_fraction in 1u64..100,
    ) {
        let doc = doc_with_streams(vec![
            raw.into_iter().map(|(k, p, r, c)| op_from(k, p, r, c)).collect(),
        ]);
        let bytes = doc.to_binary_bytes().unwrap();
        let cut = (bytes.len() as u64 * cut_fraction / 100) as usize;
        prop_assert!(cut < bytes.len());
        match TraceDocument::from_bytes(&bytes[..cut]) {
            Err(_) => {}
            Ok(decoded) => prop_assert!(
                diff(&doc, &decoded).is_some(),
                "truncated to {cut}/{} bytes yet decoded identically",
                bytes.len()
            ),
        }
    }
}
