//! LEB128 varints and zigzag mapping, the primitives of the binary format.
//!
//! Unsigned quantities (counts, region ids, cycle counts) are LEB128
//! varints; address deltas are zigzag-mapped first so that the small
//! positive *and* negative strides of real reference streams both encode in
//! one or two bytes.
//!
//! Both directions work on in-memory bytes rather than on `io` traits: the
//! encoder appends to a [`ByteSink`] and the decoder pulls from a byte
//! source, so a varint costs a few instructions, not one I/O call per byte.

use crate::TraceError;
use tw_types::Digester;

/// Maximum encoded length of a `u64` varint (10 × 7 bits ≥ 64 bits).
pub const MAX_VARINT_BYTES: usize = 10;

/// Where the encoder appends bytes: a buffer, or a digester that folds
/// each byte in as it is produced.
pub trait ByteSink {
    /// Appends one byte.
    fn put(&mut self, byte: u8);

    /// Appends a run of bytes.
    fn put_slice(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.push(byte);
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl ByteSink for Digester {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.write_bytes(&[byte]);
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        self.write_bytes(bytes);
    }
}

/// Appends `v` to `out` as a LEB128 varint.
#[inline]
pub fn put_u64<S: ByteSink>(out: &mut S, mut v: u64) {
    while v >= 0x80 {
        out.put(v as u8 | 0x80);
        v >>= 7;
    }
    out.put(v as u8);
}

/// Reads one LEB128 varint, pulling bytes from `next` (which returns `None`
/// once the input is exhausted).
#[inline]
pub fn read_u64(mut next: impl FnMut() -> Option<u8>) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    for i in 0..MAX_VARINT_BYTES {
        let Some(byte) = next() else {
            return Err(malformed("truncated varint"));
        };
        let payload = (byte & 0x7f) as u64;
        // The 10th byte may only contribute the single remaining bit.
        if i == MAX_VARINT_BYTES - 1 && payload > 1 {
            return Err(malformed("varint overflows u64"));
        }
        v |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(malformed("varint longer than 10 bytes"))
}

/// Builds an error off the hot path, so the decode loops stay small enough
/// to inline.
#[cold]
fn malformed(what: &str) -> TraceError {
    TraceError::Malformed(what.to_string())
}

/// Maps a signed value to an unsigned one with small magnitudes staying
/// small (0, -1, 1, -2 → 0, 1, 2, 3).
pub const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(bytes: &[u8]) -> Result<u64, TraceError> {
        let mut it = bytes.iter().copied();
        read_u64(|| it.next())
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            assert!(buf.len() <= MAX_VARINT_BYTES);
            assert_eq!(read_all(&buf).unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn small_values_encode_in_one_byte() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 100);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_varint_is_rejected() {
        // Continuation bit set but no following byte.
        assert!(read_all(&[0x80]).is_err());
    }

    #[test]
    fn overlong_varint_is_rejected() {
        assert!(read_all(&[0xff; 11]).is_err());
    }

    #[test]
    fn zigzag_round_trips_and_keeps_small_magnitudes_small() {
        for v in [0i64, -1, 1, -2, 2, 1000, -1000, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}
