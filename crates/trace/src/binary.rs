//! The compact, versioned binary trace format.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic      b"DNVT"                          (4 raw bytes)
//! version    u8 = 1
//! benchmark  string (varint length + UTF-8)
//! input      string
//! cores      varint
//! regions    varint count, then per region:
//!              id, name (string), base, bytes,
//!              flags u8 (bit 0: written-in-parallel-phases,
//!                        bits 1-2: bypass kind 0/1/2),
//!              comm u8 (0/1); if 1: object_bytes, offset count, offsets
//! streams    one per core, in core order; each is a sequence of ops
//!            terminated by the end-of-stream tag:
//!              0x00 load   zigzag-varint addr delta, region id
//!              0x01 store  zigzag-varint addr delta, region id
//!              0x02 compute  varint cycles
//!              0x03 barrier  varint id
//!              0xFF end of stream
//! ```
//!
//! Memory addresses are delta-encoded per core: each load/store stores the
//! zigzag of the wrapping byte-difference from the previous memory access of
//! the *same core* (initially 0), so the short strides of real reference
//! streams encode in one or two bytes while arbitrary 64-bit addresses
//! remain representable. Barrier records frame the phases: everything
//! between two barriers is one phase, and a phase may legally contain zero
//! memory operations.
//!
//! Encoding and decoding work on bytes in memory. [`TraceWriter`] encodes
//! into a fixed chunk buffer and hands its sink one large write per chunk;
//! [`digest_encoding`] and `TraceDocument::to_binary_bytes` run the same
//! encoder straight into a digester or a byte vector;
//! [`TraceDocument::from_bytes`](crate::TraceDocument::from_bytes) decodes a
//! slice through a cursor. [`TraceReader`] keeps the streaming path for
//! `Read` sources. Both decoders run the same parsing code over a byte
//! source, so for the same bytes they return the same document or the same
//! error.

use crate::varint::{put_u64, read_u64, unzigzag, zigzag, ByteSink, MAX_VARINT_BYTES};
use crate::{TraceDocument, TraceError};
use std::io::{Read, Write};
use tw_types::{
    Addr, BypassKind, CommRegion, Digest, Digester, MemKind, RegionId, RegionInfo, RegionTable,
    TraceOp,
};

/// Leading magic of the binary format.
pub const BINARY_MAGIC: &[u8; 4] = b"DNVT";

/// Current (and only) format version.
pub const FORMAT_VERSION: u8 = 1;

const TAG_LOAD: u8 = 0x00;
const TAG_STORE: u8 = 0x01;
const TAG_COMPUTE: u8 = 0x02;
const TAG_BARRIER: u8 = 0x03;
const TAG_END: u8 = 0xFF;

/// Bytes [`TraceWriter`] gathers before handing them to its sink.
const CHUNK_BYTES: usize = 64 * 1024;

/// The longest encoding of one op: a tag, a full-width address delta and a
/// `u16` region id (three varint bytes).
const MAX_OP_BYTES: usize = 1 + MAX_VARINT_BYTES + 3;

fn put_string<S: ByteSink>(out: &mut S, s: &str) {
    put_u64(out, s.len() as u64);
    out.put_slice(s.as_bytes());
}

fn put_region<S: ByteSink>(out: &mut S, r: &RegionInfo) {
    put_u64(out, r.id.0 as u64);
    put_string(out, &r.name);
    put_u64(out, r.base.byte());
    put_u64(out, r.bytes);
    let bypass = match r.bypass {
        BypassKind::None => 0u8,
        BypassKind::ReadThenOverwritten => 1,
        BypassKind::StreamingOncePerPhase => 2,
    };
    let flags = (r.written_in_parallel_phases as u8) | (bypass << 1);
    out.put_slice(&[flags, r.comm.is_some() as u8]);
    if let Some(comm) = &r.comm {
        put_u64(out, comm.object_bytes);
        put_u64(out, comm.useful_offsets.len() as u64);
        for &off in &comm.useful_offsets {
            put_u64(out, off);
        }
    }
}

fn put_header<S: ByteSink>(
    out: &mut S,
    benchmark: &str,
    input: &str,
    cores: usize,
    regions: &RegionTable,
) {
    out.put_slice(BINARY_MAGIC);
    out.put(FORMAT_VERSION);
    put_string(out, benchmark);
    put_string(out, input);
    put_u64(out, cores as u64);
    put_u64(out, regions.len() as u64);
    for r in regions.iter() {
        put_region(out, r);
    }
}

/// Encodes one op. `prev_addr` is the address of the stream's previous
/// memory access (0 at the start of a stream) and is advanced past this one.
#[inline]
fn put_op<S: ByteSink>(out: &mut S, op: &TraceOp, prev_addr: &mut u64) {
    match *op {
        TraceOp::Mem { kind, addr, region } => {
            out.put(match kind {
                MemKind::Load => TAG_LOAD,
                MemKind::Store => TAG_STORE,
            });
            let delta = addr.byte().wrapping_sub(*prev_addr) as i64;
            put_u64(out, zigzag(delta));
            put_u64(out, region.0 as u64);
            *prev_addr = addr.byte();
        }
        TraceOp::Compute { cycles } => {
            out.put(TAG_COMPUTE);
            put_u64(out, cycles as u64);
        }
        TraceOp::Barrier { id } => {
            out.put(TAG_BARRIER);
            put_u64(out, id as u64);
        }
    }
}

/// Encodes a whole trace, given by its parts, into `out` in one pass.
fn put_document<S: ByteSink>(
    out: &mut S,
    benchmark: &str,
    input: &str,
    regions: &RegionTable,
    streams: &[Vec<TraceOp>],
) {
    put_header(out, benchmark, input, streams.len(), regions);
    for stream in streams {
        let mut prev_addr = 0;
        for op in stream {
            put_op(out, op, &mut prev_addr);
        }
        out.put(TAG_END);
    }
}

/// The binary encoding of a document, encoded straight into the returned
/// buffer (a `Vec` sink gains nothing from [`TraceWriter`]'s chunking).
pub(crate) fn encode_document(doc: &TraceDocument) -> Vec<u8> {
    let mut out = Vec::new();
    put_document(
        &mut out,
        &doc.benchmark,
        &doc.input,
        &doc.regions,
        &doc.streams,
    );
    out
}

/// The digest of a trace's binary encoding, given by its parts: equal to
/// `Digest::of_bytes` over the bytes [`TraceWriter`] would write, without
/// materializing them. Each byte is folded into the digester as it is
/// encoded, so the encoding work overlaps the hash's multiply chain instead
/// of adding to it.
pub fn digest_encoding(
    benchmark: &str,
    input: &str,
    regions: &RegionTable,
    streams: &[Vec<TraceOp>],
) -> Digest {
    let mut d = Digester::new();
    put_document(&mut d, benchmark, input, regions, streams);
    d.finish()
}

/// Streaming encoder: header up front, then ops appended one at a time,
/// core by core.
///
/// Ops are encoded into a fixed 64 KiB chunk buffer, and bytes reach the
/// sink only when the chunk spills or on [`TraceWriter::finish`]. Memory
/// stays constant however long the capture (the header is buffered whole,
/// then spilled if it alone fills a chunk), and the sink sees a few large
/// writes instead of several tiny ones per op. A writer dropped without
/// `finish` loses its last chunk.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    buf: Vec<u8>,
    cores_declared: usize,
    cores_done: usize,
    prev_addr: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Encodes the header and readies the writer for core 0's stream.
    pub fn new(
        w: W,
        benchmark: &str,
        input: &str,
        cores: usize,
        regions: &RegionTable,
    ) -> Result<Self, TraceError> {
        let mut writer = TraceWriter {
            w,
            buf: Vec::with_capacity(CHUNK_BYTES),
            cores_declared: cores,
            cores_done: 0,
            prev_addr: 0,
        };
        put_header(&mut writer.buf, benchmark, input, cores, regions);
        writer.spill_if_past(CHUNK_BYTES)?;
        Ok(writer)
    }

    /// Hands the buffered bytes to the sink once more than `limit` are held.
    #[inline]
    fn spill_if_past(&mut self, limit: usize) -> Result<(), TraceError> {
        if self.buf.len() > limit {
            self.w.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Appends one op to the current core's stream.
    #[inline]
    pub fn op(&mut self, op: &TraceOp) -> Result<(), TraceError> {
        if self.cores_done >= self.cores_declared {
            return Err(TraceError::Malformed(
                "op written after the last declared core stream".to_string(),
            ));
        }
        self.spill_if_past(CHUNK_BYTES - MAX_OP_BYTES)?;
        put_op(&mut self.buf, op, &mut self.prev_addr);
        Ok(())
    }

    /// Terminates the current core's stream and readies the next.
    pub fn end_stream(&mut self) -> Result<(), TraceError> {
        if self.cores_done >= self.cores_declared {
            return Err(TraceError::Malformed(
                "more streams ended than cores declared".to_string(),
            ));
        }
        self.spill_if_past(CHUNK_BYTES - 1)?;
        self.buf.push(TAG_END);
        self.cores_done += 1;
        self.prev_addr = 0;
        Ok(())
    }

    /// Writes out the last chunk, flushes, and returns the underlying writer.
    ///
    /// Fails if fewer streams were ended than cores declared in the header —
    /// a truncated file would otherwise be undetectable.
    pub fn finish(mut self) -> Result<W, TraceError> {
        if self.cores_done != self.cores_declared {
            return Err(TraceError::Malformed(format!(
                "only {} of {} core streams written",
                self.cores_done, self.cores_declared
            )));
        }
        self.spill_if_past(0)?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Where the decoder's bytes come from. The parsing code below is generic
/// over it, so the slice path and the `Read` path cannot drift apart.
trait Source {
    /// The next byte, or `None` at the end of the input.
    fn byte(&mut self) -> Option<u8>;
    /// Fills `out` completely, or returns `false` if the input ends first.
    fn fill(&mut self, out: &mut [u8]) -> bool;
    /// The next LEB128 varint.
    fn varint(&mut self) -> Result<u64, TraceError> {
        read_u64(|| self.byte())
    }
}

/// A `Read` source, one `read_exact` per request.
#[derive(Debug)]
struct ReadSource<R>(R);

impl<R: Read> Source for ReadSource<R> {
    fn byte(&mut self) -> Option<u8> {
        let mut byte = [0u8; 1];
        self.0.read_exact(&mut byte).ok().map(|()| byte[0])
    }

    fn fill(&mut self, out: &mut [u8]) -> bool {
        self.0.read_exact(out).is_ok()
    }
}

/// A cursor over bytes already in memory.
#[derive(Debug)]
struct SliceSource<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Source for SliceSource<'_> {
    #[inline]
    fn byte(&mut self) -> Option<u8> {
        let byte = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(byte)
    }

    fn fill(&mut self, out: &mut [u8]) -> bool {
        match self.bytes.get(self.pos..self.pos + out.len()) {
            Some(head) => {
                out.copy_from_slice(head);
                self.pos += out.len();
                true
            }
            None => false,
        }
    }

    /// Most varints in a trace are one byte (short strides, small region
    /// ids): take those without entering the general loop.
    #[inline]
    fn varint(&mut self) -> Result<u64, TraceError> {
        match self.bytes.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(byte as u64)
            }
            _ => read_u64(|| self.byte()),
        }
    }
}

fn read_string<S: Source>(src: &mut S) -> Result<String, TraceError> {
    let len = src.varint()? as usize;
    // A length prefix beyond any plausible metadata string means a corrupt
    // or adversarial header; refuse before allocating.
    if len > 1 << 20 {
        return Err(TraceError::Malformed(format!(
            "string length {len} exceeds the 1 MiB header limit"
        )));
    }
    let mut buf = vec![0u8; len];
    if !src.fill(&mut buf) {
        return Err(TraceError::Malformed("truncated string".to_string()));
    }
    String::from_utf8(buf).map_err(|_| TraceError::Malformed("string is not UTF-8".to_string()))
}

fn read_region<S: Source>(src: &mut S) -> Result<RegionInfo, TraceError> {
    let id = src.varint()?;
    if id > u16::MAX as u64 {
        return Err(TraceError::Malformed(format!("region id {id} exceeds u16")));
    }
    let name = read_string(src)?;
    let base = src.varint()?;
    let bytes = src.varint()?;
    let mut two = [0u8; 2];
    if !src.fill(&mut two) {
        return Err(TraceError::Malformed("truncated region flags".to_string()));
    }
    let [flags, has_comm] = two;
    let bypass = match (flags >> 1) & 0x3 {
        0 => BypassKind::None,
        1 => BypassKind::ReadThenOverwritten,
        2 => BypassKind::StreamingOncePerPhase,
        k => return Err(TraceError::Malformed(format!("unknown bypass kind {k}"))),
    };
    let comm = match has_comm {
        0 => None,
        1 => {
            let object_bytes = src.varint()?;
            let n = src.varint()? as usize;
            if n > 1 << 20 {
                return Err(TraceError::Malformed(format!(
                    "comm region with {n} offsets exceeds the sanity limit"
                )));
            }
            let mut useful_offsets = Vec::with_capacity(n);
            for _ in 0..n {
                useful_offsets.push(src.varint()?);
            }
            Some(CommRegion {
                object_bytes,
                useful_offsets,
            })
        }
        k => return Err(TraceError::Malformed(format!("bad comm marker {k}"))),
    };
    Ok(RegionInfo {
        id: RegionId(id as u16),
        name,
        base: Addr::new(base),
        bytes,
        comm,
        bypass,
        written_in_parallel_phases: flags & 1 != 0,
    })
}

/// The decoder state over any [`Source`]: the parsed header and how many
/// core streams have been read.
#[derive(Debug)]
struct Decoder<S> {
    src: S,
    benchmark: String,
    input: String,
    cores: usize,
    cores_read: usize,
    regions: RegionTable,
}

impl<S: Source> Decoder<S> {
    fn new(mut src: S) -> Result<Self, TraceError> {
        let mut magic = [0u8; 4];
        if !src.fill(&mut magic) {
            return Err(TraceError::Malformed(
                "file shorter than the magic".to_string(),
            ));
        }
        if &magic != BINARY_MAGIC {
            return Err(TraceError::Malformed(format!(
                "bad magic {magic:02x?}; expected {BINARY_MAGIC:02x?}"
            )));
        }
        let version = src
            .byte()
            .ok_or_else(|| TraceError::Malformed("missing version byte".to_string()))?;
        if version != FORMAT_VERSION {
            return Err(TraceError::Malformed(format!(
                "unsupported format version {version} (this build reads version {FORMAT_VERSION})"
            )));
        }
        let benchmark = read_string(&mut src)?;
        let input = read_string(&mut src)?;
        let cores = src.varint()? as usize;
        if cores == 0 || cores > 4096 {
            return Err(TraceError::Malformed(format!(
                "implausible core count {cores}"
            )));
        }
        let n_regions = src.varint()? as usize;
        if n_regions > 1 << 16 {
            return Err(TraceError::Malformed(format!(
                "implausible region count {n_regions}"
            )));
        }
        let mut regions = RegionTable::new();
        for _ in 0..n_regions {
            let info = read_region(&mut src)?;
            // Guard before insert: RegionTable::insert panics on duplicates,
            // and untrusted bytes must never abort the process.
            if regions.get(info.id).is_some() {
                return Err(TraceError::Malformed(format!(
                    "duplicate region id {}",
                    info.id
                )));
            }
            regions.insert(info);
        }
        Ok(Decoder {
            src,
            benchmark,
            input,
            cores,
            cores_read: 0,
            regions,
        })
    }

    fn expect_eof(&mut self) -> Result<(), TraceError> {
        match self.src.byte() {
            None => Ok(()),
            Some(_) => Err(TraceError::Malformed(
                "trailing bytes after the last declared core stream".to_string(),
            )),
        }
    }

    fn next_stream(&mut self) -> Result<Option<Vec<TraceOp>>, TraceError> {
        if self.cores_read == self.cores {
            return Ok(None);
        }
        let src = &mut self.src;
        let mut ops = Vec::new();
        let mut prev_addr: u64 = 0;
        loop {
            let tag = src.byte().ok_or_else(|| {
                TraceError::Malformed(format!(
                    "core {} stream truncated before its end marker",
                    self.cores_read
                ))
            })?;
            match tag {
                TAG_LOAD | TAG_STORE => {
                    let delta = unzigzag(src.varint()?);
                    let addr = prev_addr.wrapping_add(delta as u64);
                    prev_addr = addr;
                    let region = src.varint()?;
                    if region > u16::MAX as u64 {
                        return Err(TraceError::Malformed(format!(
                            "region id {region} exceeds u16"
                        )));
                    }
                    let kind = if tag == TAG_LOAD {
                        MemKind::Load
                    } else {
                        MemKind::Store
                    };
                    ops.push(TraceOp::Mem {
                        kind,
                        addr: Addr::new(addr),
                        region: RegionId(region as u16),
                    });
                }
                TAG_COMPUTE => {
                    let cycles = src.varint()?;
                    if cycles > u32::MAX as u64 {
                        return Err(TraceError::Malformed(format!(
                            "compute cycles {cycles} exceed u32"
                        )));
                    }
                    ops.push(TraceOp::Compute {
                        cycles: cycles as u32,
                    });
                }
                TAG_BARRIER => {
                    let id = src.varint()?;
                    if id > u32::MAX as u64 {
                        return Err(TraceError::Malformed(format!(
                            "barrier id {id} exceeds u32"
                        )));
                    }
                    ops.push(TraceOp::Barrier { id: id as u32 });
                }
                TAG_END => {
                    self.cores_read += 1;
                    return Ok(Some(ops));
                }
                t => {
                    return Err(TraceError::Malformed(format!(
                        "unknown op tag {t:#04x} in core {} stream",
                        self.cores_read
                    )))
                }
            }
        }
    }

    /// Reads every declared stream, insists on end of input, and assembles
    /// the document.
    fn into_document(mut self) -> Result<TraceDocument, TraceError> {
        let mut streams = Vec::with_capacity(self.cores);
        while let Some(stream) = self.next_stream()? {
            streams.push(stream);
        }
        self.expect_eof()?;
        Ok(TraceDocument {
            benchmark: self.benchmark,
            input: self.input,
            regions: self.regions,
            streams,
        })
    }
}

/// Decodes a whole binary document from a `Read` source.
pub(crate) fn read_document<R: Read>(r: R) -> Result<TraceDocument, TraceError> {
    Decoder::new(ReadSource(r))?.into_document()
}

/// Decodes a whole binary document held in memory.
pub(crate) fn decode_document(bytes: &[u8]) -> Result<TraceDocument, TraceError> {
    Decoder::new(SliceSource { bytes, pos: 0 })?.into_document()
}

/// Streaming decoder: parses the header eagerly, then yields one core's
/// stream at a time. For bytes already in memory,
/// [`TraceDocument::from_bytes`](crate::TraceDocument::from_bytes) decodes
/// the same format straight from the slice.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    inner: Decoder<ReadSource<R>>,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the header.
    pub fn new(r: R) -> Result<Self, TraceError> {
        Ok(TraceReader {
            inner: Decoder::new(ReadSource(r))?,
        })
    }

    /// Benchmark name from the header.
    pub fn benchmark(&self) -> &str {
        &self.inner.benchmark
    }

    /// Input description from the header.
    pub fn input(&self) -> &str {
        &self.inner.input
    }

    /// Core count from the header.
    pub fn cores(&self) -> usize {
        self.inner.cores
    }

    /// Takes ownership of the parsed region table.
    pub fn take_regions(&mut self) -> RegionTable {
        std::mem::take(&mut self.inner.regions)
    }

    /// Asserts the input is exhausted. Call after the last stream: trailing
    /// bytes mean a concatenated or partially overwritten file, which must
    /// not silently parse as the leading document — that would blind the
    /// determinism oracle built on `trace diff`.
    pub fn expect_eof(&mut self) -> Result<(), TraceError> {
        self.inner.expect_eof()
    }

    /// Parses the next core's stream, or `None` when all declared streams
    /// have been read.
    pub fn next_stream(&mut self) -> Result<Option<Vec<TraceOp>>, TraceError> {
        self.inner.next_stream()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regions_one() -> RegionTable {
        let mut t = RegionTable::new();
        t.insert(RegionInfo::plain(RegionId(1), "a", Addr::new(0), 1 << 20));
        t
    }

    #[test]
    fn sequential_addresses_encode_compactly() {
        // 1000 sequential word accesses: ~3 bytes per op (tag + 1-byte
        // delta + 1-byte region), far below the 13+ bytes of a naive fixed
        // encoding.
        let regions = regions_one();
        let mut w = TraceWriter::new(Vec::new(), "custom", "seq", 1, &regions).unwrap();
        for i in 0..1000u64 {
            w.op(&TraceOp::load(Addr::new(i * 4), RegionId(1))).unwrap();
        }
        w.end_stream().unwrap();
        let bytes = w.finish().unwrap();
        let header_overhead = 64; // generous bound for magic + strings + region
        assert!(
            bytes.len() < header_overhead + 1000 * 4,
            "encoding is not compact: {} bytes for 1000 ops",
            bytes.len()
        );
    }

    #[test]
    fn writer_enforces_stream_accounting() {
        let regions = regions_one();
        let w = TraceWriter::new(Vec::new(), "x", "y", 2, &regions).unwrap();
        // Finishing with only the header written must fail.
        assert!(matches!(w.finish(), Err(TraceError::Malformed(_))));

        let mut w = TraceWriter::new(Vec::new(), "x", "y", 1, &regions).unwrap();
        w.end_stream().unwrap();
        assert!(w.end_stream().is_err());
        assert!(w.op(&TraceOp::compute(1)).is_err());
    }

    #[test]
    fn reader_rejects_future_versions_and_bad_tags() {
        let regions = regions_one();
        let mut w = TraceWriter::new(Vec::new(), "x", "y", 1, &regions).unwrap();
        w.end_stream().unwrap();
        let mut bytes = w.finish().unwrap();

        let mut future = bytes.clone();
        future[4] = FORMAT_VERSION + 1;
        let err = TraceReader::new(future.as_slice()).err().unwrap();
        assert!(err.to_string().contains("version"), "{err}");

        // Corrupt the end-of-stream tag into an unknown op tag.
        *bytes.last_mut().unwrap() = 0x7E;
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        assert!(r.next_stream().is_err());
    }

    #[test]
    fn truncated_stream_is_detected() {
        let regions = regions_one();
        let mut w = TraceWriter::new(Vec::new(), "x", "y", 1, &regions).unwrap();
        w.op(&TraceOp::load(Addr::new(64), RegionId(1))).unwrap();
        w.end_stream().unwrap();
        let bytes = w.finish().unwrap();
        // Drop the end marker: the reader must not silently return a stream.
        let mut r = TraceReader::new(&bytes[..bytes.len() - 1]).unwrap();
        assert!(r.next_stream().is_err());
    }

    #[test]
    fn duplicate_region_ids_are_a_parse_error_not_a_panic() {
        let mut regions = RegionTable::new();
        regions.insert(RegionInfo::plain(RegionId(1), "a", Addr::new(0), 64));
        let mut w = TraceWriter::new(Vec::new(), "x", "y", 1, &regions).unwrap();
        w.end_stream().unwrap();
        let mut bytes = w.finish().unwrap();
        // Append a second copy of the (sole) region record and bump the
        // region count from 1 to 2. The region record starts right after
        // magic(4) + version(1) + "x"(2) + "y"(2) + cores(1) + count(1).
        let region_start = 11;
        let region_end = bytes.len() - 1; // strip the end-of-stream tag
        let copy = bytes[region_start..region_end].to_vec();
        bytes[region_start - 1] = 2;
        bytes.splice(region_end..region_end, copy);
        let err = TraceReader::new(bytes.as_slice()).err().unwrap();
        assert!(err.to_string().contains("duplicate region"), "{err}");
    }

    #[test]
    fn trailing_bytes_after_the_last_stream_are_rejected() {
        use crate::TraceDocument;
        let regions = regions_one();
        let mut w = TraceWriter::new(Vec::new(), "x", "y", 1, &regions).unwrap();
        w.op(&TraceOp::load(Addr::new(64), RegionId(1))).unwrap();
        w.end_stream().unwrap();
        let mut bytes = w.finish().unwrap();
        assert!(TraceDocument::from_bytes(&bytes).is_ok());
        // A concatenated or partially overwritten file must not silently
        // parse as the leading document.
        bytes.push(0x00);
        let err = TraceDocument::from_bytes(&bytes).err().unwrap();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn extreme_address_jumps_round_trip() {
        let regions = regions_one();
        let addrs = [0u64, !3u64, 4, 1 << 40, 0];
        let mut w = TraceWriter::new(Vec::new(), "x", "y", 1, &regions).unwrap();
        for &a in &addrs {
            w.op(&TraceOp::store(Addr::new(a), RegionId(1))).unwrap();
        }
        w.end_stream().unwrap();
        let bytes = w.finish().unwrap();
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let ops = r.next_stream().unwrap().unwrap();
        let got: Vec<u64> = ops
            .iter()
            .map(|op| match op {
                TraceOp::Mem { addr, .. } => addr.byte(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, addrs);
    }
}
