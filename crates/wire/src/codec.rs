//! A small fixed-layout binary codec and the RPC frame format.
//!
//! Alpenhorn messages must be fixed-size (cover traffic has to be
//! indistinguishable from real traffic), so the codec favours explicit
//! fixed-width fields; variable-length data is always carried with an
//! explicit length prefix inside a fixed-size padded field.
//!
//! [`Frame`] is the outermost envelope of the client ↔ coordinator RPC
//! protocol (see [`crate::rpc`]): a magic-tagged, versioned, length-prefixed,
//! checksummed wrapper that lets the receiving side reject malformed,
//! mis-versioned, or corrupted traffic at the boundary before any message
//! decoding runs.

use std::io::{Read, Write};

use crate::error::WireError;

/// Append-only encoder producing a byte vector.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Creates an encoder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends raw bytes with no length prefix (fixed-size field).
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends variable-length bytes with a `u32` length prefix.
    pub fn put_var_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(v.len() as u32);
        self.put_bytes(v)
    }

    /// Appends `v` into a field of exactly `width` bytes: one length byte,
    /// the data, and zero padding. Panics if `v.len() >= width`.
    pub fn put_padded(&mut self, v: &[u8], width: usize) -> &mut Self {
        assert!(
            v.len() < width,
            "padded field overflow: {} bytes into width {width}",
            v.len()
        );
        self.put_u8(v.len() as u8);
        self.put_bytes(v);
        for _ in 0..(width - 1 - v.len()) {
            self.buf.push(0);
        }
        self
    }

    /// Returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current length of the encoded buffer.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor-based decoder over a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::UnexpectedEnd { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, context)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, context)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, context)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        self.take(n, context)
    }

    /// Reads a fixed-size array.
    pub fn get_array<const N: usize>(
        &mut self,
        context: &'static str,
    ) -> Result<[u8; N], WireError> {
        let b = self.take(N, context)?;
        let mut out = [0u8; N];
        out.copy_from_slice(b);
        Ok(out)
    }

    /// Reads variable-length bytes written by [`Encoder::put_var_bytes`].
    pub fn get_var_bytes(&mut self, context: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.get_u32(context)? as usize;
        self.take(len, context)
    }

    /// Reads a padded field written by [`Encoder::put_padded`].
    pub fn get_padded(
        &mut self,
        width: usize,
        context: &'static str,
    ) -> Result<&'a [u8], WireError> {
        let len = self.get_u8(context)? as usize;
        if len >= width {
            return Err(WireError::InvalidValue { context });
        }
        let field = self.take(width - 1, context)?;
        Ok(&field[..len])
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns an error if any input remains.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Errors from reading a frame off a byte stream: either the underlying I/O
/// failed or the frame itself was malformed.
#[derive(Debug)]
pub enum FrameIoError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The frame was structurally invalid (bad magic, version, length, or
    /// checksum).
    Wire(WireError),
}

impl core::fmt::Display for FrameIoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameIoError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameIoError::Wire(e) => write!(f, "frame decode error: {e}"),
        }
    }
}

impl std::error::Error for FrameIoError {}

impl From<std::io::Error> for FrameIoError {
    fn from(e: std::io::Error) -> Self {
        FrameIoError::Io(e)
    }
}

impl From<WireError> for FrameIoError {
    fn from(e: WireError) -> Self {
        FrameIoError::Wire(e)
    }
}

/// The length-prefixed, versioned, checksummed RPC frame.
///
/// Layout (all integers big-endian):
///
/// ```text
/// +-------+---------+-----------+----------------+------------+
/// | magic | version |  length   |    payload     |  checksum  |
/// | 2 B   | 1 B     | 4 B (u32) | `length` bytes | 4 B        |
/// +-------+---------+-----------+----------------+------------+
/// ```
///
/// The checksum is the first four bytes of SHA-256 over everything before it
/// (header and payload), so truncation, bit flips, and length corruption are
/// all caught.
///
/// Versioning rule: any change to the frame layout or to the encoding of the
/// RPC messages inside it bumps [`Frame::VERSION`], and every other version
/// byte is rejected with [`WireError::UnsupportedVersion`]. The frame carries
/// no telemetry: every round-scoped request names its (protocol, round), so
/// each receiver derives the round's correlation id
/// (`alpenhorn_obs::correlation_id`) from the payload itself.
pub struct Frame;

impl Frame {
    /// Magic bytes every frame starts with ("AH" for Alpenhorn).
    pub const MAGIC: [u8; 2] = *b"AH";
    /// The protocol version this implementation speaks. History: v1 = the
    /// first RPC surface; v2 added [`crate::rpc::RpcError::Unavailable`]
    /// (typed transient server faults); v3 added the `retry_after_ms`
    /// backoff hint to `Unavailable` (overload shedding). A v4 layout with
    /// an optional correlation-id block existed briefly and is rejected.
    pub const VERSION: u8 = 3;
    /// Header length: magic + version + length prefix.
    pub const HEADER_LEN: usize = 2 + 1 + 4;
    /// Trailing checksum length.
    pub const CHECKSUM_LEN: usize = 4;
    /// Maximum payload size a frame may carry (16 MiB). A length prefix
    /// beyond this is rejected before any allocation happens, so a hostile
    /// peer cannot make the receiver reserve unbounded memory.
    pub const MAX_PAYLOAD_LEN: usize = 1 << 24;

    fn checksum(parts: &[&[u8]]) -> [u8; Self::CHECKSUM_LEN] {
        let mut hasher = alpenhorn_crypto::sha256::Sha256::new();
        for part in parts {
            hasher.update(part);
        }
        let digest = hasher.finalize();
        let mut out = [0u8; Self::CHECKSUM_LEN];
        out.copy_from_slice(&digest[..Self::CHECKSUM_LEN]);
        out
    }

    /// Validates magic and version and returns the claimed payload length.
    fn check_header(header: &[u8]) -> Result<usize, WireError> {
        if header[..2] != Self::MAGIC {
            return Err(WireError::BadMagic);
        }
        if header[2] != Self::VERSION {
            return Err(WireError::UnsupportedVersion { version: header[2] });
        }
        let claimed = u32::from_be_bytes([header[3], header[4], header[5], header[6]]) as usize;
        if claimed > Self::MAX_PAYLOAD_LEN {
            return Err(WireError::FrameTooLarge { claimed });
        }
        Ok(claimed)
    }

    /// Wraps `payload` in a complete frame.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`Frame::MAX_PAYLOAD_LEN`]; no RPC
    /// message comes close (mailbox responses are the largest and are bounded
    /// by the round's mailbox size).
    pub fn encode(payload: &[u8]) -> Vec<u8> {
        assert!(
            payload.len() <= Self::MAX_PAYLOAD_LEN,
            "frame payload of {} bytes exceeds the maximum",
            payload.len()
        );
        let mut out = Vec::with_capacity(Self::HEADER_LEN + payload.len() + Self::CHECKSUM_LEN);
        out.extend_from_slice(&Self::MAGIC);
        out.push(Self::VERSION);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(payload);
        let checksum = Self::checksum(&[&out]);
        out.extend_from_slice(&checksum);
        out
    }

    /// Decodes one complete frame from `buf`, returning the payload.
    ///
    /// The whole buffer must be exactly one frame; malformed input (wrong
    /// magic, unsupported version, oversized or lying length prefix,
    /// truncation, checksum mismatch) is rejected with a typed error and
    /// never panics.
    pub fn decode(buf: &[u8]) -> Result<&[u8], WireError> {
        if buf.len() < Self::HEADER_LEN + Self::CHECKSUM_LEN {
            return Err(WireError::UnexpectedEnd {
                context: "frame header",
            });
        }
        let claimed = Self::check_header(&buf[..Self::HEADER_LEN])?;
        let total = Self::HEADER_LEN + claimed + Self::CHECKSUM_LEN;
        if buf.len() < total {
            return Err(WireError::UnexpectedEnd {
                context: "frame payload",
            });
        }
        if buf.len() > total {
            return Err(WireError::TrailingBytes {
                remaining: buf.len() - total,
            });
        }
        let body_end = total - Self::CHECKSUM_LEN;
        if buf[body_end..] != Self::checksum(&[&buf[..body_end]]) {
            return Err(WireError::ChecksumMismatch);
        }
        Ok(&buf[Self::HEADER_LEN..body_end])
    }

    /// Writes `payload` as one frame to `writer` and flushes.
    pub fn write_to(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
        writer.write_all(&Frame::encode(payload))?;
        writer.flush()
    }

    /// Reads one complete frame from `reader`, returning the payload.
    ///
    /// Validates magic, version, length bound, and checksum before returning;
    /// the oversized-length check runs before the payload allocation.
    pub fn read_from(reader: &mut impl Read) -> Result<Vec<u8>, FrameIoError> {
        let mut header = [0u8; Self::HEADER_LEN];
        reader.read_exact(&mut header)?;
        let claimed = Self::check_header(&header)?;
        let mut payload = vec![0u8; claimed];
        reader.read_exact(&mut payload)?;
        let mut checksum = [0u8; Self::CHECKSUM_LEN];
        reader.read_exact(&mut checksum)?;
        if checksum != Self::checksum(&[&header, &payload]) {
            return Err(WireError::ChecksumMismatch.into());
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut e = Encoder::new();
        e.put_u8(7).put_u16(300).put_u32(70_000).put_u64(1 << 40);
        let buf = e.finish();
        assert_eq!(buf.len(), 1 + 2 + 4 + 8);
        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_u8("a").unwrap(), 7);
        assert_eq!(d.get_u16("b").unwrap(), 300);
        assert_eq!(d.get_u32("c").unwrap(), 70_000);
        assert_eq!(d.get_u64("d").unwrap(), 1 << 40);
        d.finish().unwrap();
    }

    #[test]
    fn var_bytes_round_trip() {
        let mut e = Encoder::new();
        e.put_var_bytes(b"hello");
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_var_bytes("v").unwrap(), b"hello");
    }

    #[test]
    fn padded_field_is_fixed_width() {
        let mut e = Encoder::new();
        e.put_padded(b"alice@example.org", 64);
        let buf = e.finish();
        assert_eq!(buf.len(), 64);
        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_padded(64, "email").unwrap(), b"alice@example.org");
        d.finish().unwrap();
    }

    #[test]
    fn padded_field_same_size_regardless_of_content() {
        let mut short = Encoder::new();
        short.put_padded(b"a@b", 64);
        let mut long = Encoder::new();
        long.put_padded(b"someone.with.a.long.name@example.com", 64);
        assert_eq!(short.finish().len(), long.finish().len());
    }

    #[test]
    #[should_panic(expected = "padded field overflow")]
    fn padded_field_overflow_panics() {
        let mut e = Encoder::new();
        e.put_padded(&[0u8; 64], 64);
    }

    #[test]
    fn decoder_detects_truncation() {
        let buf = [1u8, 2];
        let mut d = Decoder::new(&buf);
        assert!(matches!(
            d.get_u32("field"),
            Err(WireError::UnexpectedEnd { context: "field" })
        ));
    }

    #[test]
    fn decoder_detects_trailing_bytes() {
        let buf = [1u8, 2, 3];
        let mut d = Decoder::new(&buf);
        d.get_u8("x").unwrap();
        assert_eq!(d.finish(), Err(WireError::TrailingBytes { remaining: 2 }));
    }

    #[test]
    fn get_array_round_trip() {
        let mut e = Encoder::new();
        e.put_bytes(&[9u8; 32]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let arr: [u8; 32] = d.get_array("key").unwrap();
        assert_eq!(arr, [9u8; 32]);
    }

    #[test]
    fn plain_frames_are_byte_identical_to_v3() {
        // Reconstruct the frame layout by hand: the encoder must produce
        // exactly these bytes.
        let payload = b"hello alpenhorn";
        let mut v3 = Vec::new();
        v3.extend_from_slice(&Frame::MAGIC);
        v3.push(3);
        v3.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        v3.extend_from_slice(payload);
        let mut hasher = alpenhorn_crypto::sha256::Sha256::new();
        hasher.update(&v3);
        v3.extend_from_slice(&hasher.finalize()[..Frame::CHECKSUM_LEN]);
        assert_eq!(Frame::encode(payload), v3);
        assert_eq!(Frame::decode(&v3).unwrap(), payload);
    }

    #[test]
    fn version_4_frames_are_rejected() {
        let mut framed = Frame::encode(b"round work");
        framed[2] = 4;
        assert_eq!(
            Frame::decode(&framed),
            Err(WireError::UnsupportedVersion { version: 4 })
        );
        assert!(matches!(
            Frame::read_from(&mut &framed[..]),
            Err(FrameIoError::Wire(WireError::UnsupportedVersion {
                version: 4
            }))
        ));
    }

    #[test]
    fn frames_round_trip_through_streams() {
        let mut wire = Vec::new();
        Frame::write_to(&mut wire, b"first").unwrap();
        Frame::write_to(&mut wire, b"").unwrap();
        let mut reader = &wire[..];
        assert_eq!(Frame::read_from(&mut reader).unwrap(), b"first".to_vec());
        assert_eq!(Frame::read_from(&mut reader).unwrap(), Vec::<u8>::new());
        assert!(matches!(
            Frame::read_from(&mut reader),
            Err(FrameIoError::Io(_))
        ));
    }

    #[test]
    fn padded_rejects_corrupt_length() {
        let mut buf = vec![0u8; 64];
        buf[0] = 64; // length byte >= width
        let mut d = Decoder::new(&buf);
        assert!(matches!(
            d.get_padded(64, "email"),
            Err(WireError::InvalidValue { .. })
        ));
    }
}
