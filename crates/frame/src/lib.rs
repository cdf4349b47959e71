//! # peert-frame — shared framing primitives
//!
//! The PIL serial link (PR 2–4) and the serve wire protocol (PR 8) both
//! frame byte streams the same way: a start-of-frame marker, a length
//! field, a payload, and a trailing CRC16-CCITT, parsed by an
//! incremental state machine that resynchronizes on corruption instead
//! of wedging. This crate is the shared home for those primitives:
//!
//! * [`crc16`] / [`crc16_update`] — CRC16-CCITT (poly `0x1021`, init
//!   `0xFFFF`), table-driven slicing-by-8, the same polynomial the PIL
//!   packet layer has always used (`peert-pil` re-exports [`crc16`], so
//!   `peert_pil::packet::crc16` is unchanged);
//! * [`Enc`] / [`Dec`] — bounds-checked little-endian byte cursors, so
//!   every codec in the workspace reads and writes multi-byte fields
//!   identically (floats travel as `f64::to_bits`, bit-exact);
//! * [`Deframer`] — an incremental parser for the wire frame grammar
//!   `SOF | VER | KIND | LEN(u32 LE) | payload | CRC16 LE`, with
//!   bounded buffers, CRC rejection and resync-on-garbage counters, and
//!   [`encode_frame`], which writes that grammar in place.
//!
//! Nothing here interprets payloads: the deframer yields [`RawFrame`]s
//! and the protocol layers above (`peert-pil::packet`, `peert-wire`)
//! give the bytes meaning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// CRC16-CCITT (poly 0x1021, init 0xFFFF).
pub fn crc16(data: &[u8]) -> u16 {
    crc16_update(0xFFFF, data)
}

/// Continue a CRC16-CCITT over `data` from the register value `crc`:
/// `crc16_update(crc16(a), b) == crc16(a ++ b)`, so a header and a
/// payload held apart check without being copied together.
///
/// Slicing-by-8: eight bytes per step through eight 256-entry tables,
/// where `CRC_TABLES[k][b]` is the CRC contribution of byte `b` followed
/// by `k` zero bytes. The eight lookups of a step are independent, so
/// they overlap instead of each waiting on the register update before
/// it.
pub fn crc16_update(mut crc: u16, data: &[u8]) -> u16 {
    let t = &CRC_TABLES;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let [hi, lo] = crc.to_be_bytes();
        crc = t[7][(b[0] ^ hi) as usize]
            ^ t[6][(b[1] ^ lo) as usize]
            ^ t[5][b[2] as usize]
            ^ t[4][b[3] as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc << 8) ^ t[0][((crc >> 8) as u8 ^ b) as usize];
    }
    crc
}

const CRC_TABLES: [[u16; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u16; 256]; 8] {
    let mut t = [[0u16; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x1021 } else { crc << 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev << 8) ^ t[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

// ---------------------------------------------------------------------------
// byte cursors
// ---------------------------------------------------------------------------

/// Little-endian byte writer. Infallible: it grows its buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i16`, little-endian two's complement.
    pub fn i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i32`, little-endian two's complement.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern, little-endian —
    /// bit-exact round trips, NaN payloads included.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append raw bytes verbatim.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed (`u32`) UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.bytes(v.as_bytes());
    }
}

/// Why a decode failed. Carries enough to print a useful diagnostic
/// without allocating on the (hot) happy path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The cursor ran past the end of the payload.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A tag/discriminant byte had no defined meaning.
    BadTag {
        /// What was being decoded (static context string).
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A count or length field exceeded its documented bound.
    BadLength {
        /// What was being decoded (static context string).
        what: &'static str,
        /// The offending length.
        len: u64,
    },
    /// Bytes were left over after a complete decode (framing bug).
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, remaining } => {
                write!(f, "truncated payload: needed {needed} byte(s), {remaining} left")
            }
            DecodeError::BadTag { what, tag } => write!(f, "bad {what} tag 0x{tag:02X}"),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::BadLength { what, len } => write!(f, "{what} length {len} out of bounds"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after payload"),
        }
    }
}

/// Bounds-checked little-endian byte reader over a borrowed payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the payload was consumed exactly.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { needed: n, remaining: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a little-endian `i16`.
    pub fn i16(&mut self) -> Result<i16, DecodeError> {
        Ok(self.u16()? as i16)
    }

    /// Read a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, DecodeError> {
        Ok(self.u32()? as i32)
    }

    /// Read an `f64` from its IEEE-754 bit pattern (bit-exact).
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed (`u32`) UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// Read a count field and sanity-check it: each counted element
    /// occupies at least `min_elem_bytes` of the remaining payload, so a
    /// corrupted count can never drive a huge allocation.
    pub fn count(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(DecodeError::BadLength { what, len: n as u64 });
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// frame grammar
// ---------------------------------------------------------------------------

/// Start-of-frame marker for the wire grammar (distinct from the PIL
/// packet SOF `0xA5`, so a wire stream mis-routed into a PIL parser is
/// all resyncs, never a false frame).
pub const WIRE_SOF: u8 = 0x5A;

/// Frame overhead in bytes: SOF + VER + KIND + LEN(4) + CRC16(2).
pub const WIRE_OVERHEAD: usize = 9;

/// One deframed (but not yet interpreted) wire frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawFrame {
    /// Protocol version byte, carried through unjudged: the outer
    /// grammar is frozen across versions, payload semantics are not.
    pub version: u8,
    /// Frame kind discriminant.
    pub kind: u8,
    /// Payload bytes (CRC already verified).
    pub payload: Vec<u8>,
}

impl RawFrame {
    /// Encode to wire bytes:
    /// `SOF | VER | KIND | LEN(u32 LE) | payload | CRC16 LE`, with the
    /// CRC computed over `VER..payload` (everything after the SOF).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(WIRE_OVERHEAD + self.payload.len());
        encode_frame(&mut out, self.version, self.kind, |e| e.bytes(&self.payload));
        out
    }
}

/// Append one wire frame to `out`, after whatever it already holds:
/// the header, the payload that `payload` writes straight into `out`
/// (no intermediate payload buffer), then the CRC over `VER..payload`.
/// The bytes appended are exactly [`RawFrame::encode`]'s for the same
/// version, kind and payload.
pub fn encode_frame(out: &mut Vec<u8>, version: u8, kind: u8, payload: impl FnOnce(&mut Enc)) {
    let start = out.len();
    let mut e = Enc { buf: std::mem::take(out) };
    e.u8(WIRE_SOF);
    e.u8(version);
    e.u8(kind);
    e.u32(0); // LEN, patched once the payload is written
    payload(&mut e);
    *out = e.buf;
    let len = (out.len() - start - 7) as u32;
    out[start + 3..start + 7].copy_from_slice(&len.to_le_bytes());
    let crc = crc16(&out[start + 1..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeframeState {
    Sof,
    Ver,
    Kind,
    Len(u8),
    Payload,
    CrcLo,
    CrcHi,
}

/// Incremental frame parser: feed bytes, get [`RawFrame`]s.
///
/// Mirrors `peert_pil::packet::PacketParser`: a byte that can't extend
/// the current frame aborts it and returns the parser to SOF hunting
/// (counted in [`Deframer::resyncs`]); a completed frame whose CRC
/// doesn't match is dropped (counted in [`Deframer::crc_errors`]) and
/// hunting resumes at the byte after its CRC trailer; a
/// LEN field beyond the configured cap aborts immediately (counted in
/// [`Deframer::oversize`]) so a corrupted length can swallow at most
/// `max_payload` bytes of the stream. The parser never panics and never
/// wedges: after any garbage, a gap of `max_payload + overhead`
/// SOF-free bytes provably returns it to SOF hunting.
#[derive(Debug)]
pub struct Deframer {
    state: DeframeState,
    max_payload: usize,
    version: u8,
    kind: u8,
    len: usize,
    payload: Vec<u8>,
    crc_lo: u8,
    crc_errors: u64,
    resyncs: u64,
    oversize: u64,
}

impl Deframer {
    /// A deframer that accepts payloads up to `max_payload` bytes —
    /// the bounded per-connection buffer.
    pub fn new(max_payload: usize) -> Self {
        Deframer {
            state: DeframeState::Sof,
            max_payload,
            version: 0,
            kind: 0,
            len: 0,
            payload: Vec::new(),
            crc_lo: 0,
            crc_errors: 0,
            resyncs: 0,
            oversize: 0,
        }
    }

    /// Feed one byte; returns a frame when a CRC-valid one completes.
    pub fn push(&mut self, byte: u8) -> Option<RawFrame> {
        match self.state {
            DeframeState::Sof => {
                if byte == WIRE_SOF {
                    self.state = DeframeState::Ver;
                } else {
                    self.resyncs += 1;
                }
                None
            }
            DeframeState::Ver => {
                self.version = byte;
                self.state = DeframeState::Kind;
                None
            }
            DeframeState::Kind => {
                self.kind = byte;
                self.len = 0;
                self.state = DeframeState::Len(0);
                None
            }
            DeframeState::Len(i) => {
                self.len |= (byte as usize) << (8 * i as usize);
                if i == 3 {
                    if self.len > self.max_payload {
                        self.oversize += 1;
                        self.abort();
                        return None;
                    }
                    self.payload.clear();
                    self.payload.reserve(self.len);
                    self.state =
                        if self.len == 0 { DeframeState::CrcLo } else { DeframeState::Payload };
                } else {
                    self.state = DeframeState::Len(i + 1);
                }
                None
            }
            DeframeState::Payload => {
                self.payload.push(byte);
                if self.payload.len() == self.len {
                    self.state = DeframeState::CrcLo;
                }
                None
            }
            DeframeState::CrcLo => {
                self.crc_lo = byte;
                self.state = DeframeState::CrcHi;
                None
            }
            DeframeState::CrcHi => {
                self.state = DeframeState::Sof;
                let got = u16::from_le_bytes([self.crc_lo, byte]);
                let [l0, l1, l2, l3] = (self.len as u32).to_le_bytes();
                let header = crc16(&[self.version, self.kind, l0, l1, l2, l3]);
                if crc16_update(header, &self.payload) != got {
                    self.crc_errors += 1;
                    return None;
                }
                Some(RawFrame {
                    version: self.version,
                    kind: self.kind,
                    payload: std::mem::take(&mut self.payload),
                })
            }
        }
    }

    /// Feed a slice; collected frames in order. Equivalent to [`push`]
    /// on every byte — same frames, same counters — except that payload
    /// bytes are copied in one run per call instead of one at a time.
    ///
    /// [`push`]: Deframer::push
    pub fn push_slice(&mut self, mut bytes: &[u8]) -> Vec<RawFrame> {
        let mut frames = Vec::new();
        while let Some((&byte, rest)) = bytes.split_first() {
            if self.state == DeframeState::Payload {
                let n = (self.len - self.payload.len()).min(bytes.len());
                self.payload.extend_from_slice(&bytes[..n]);
                bytes = &bytes[n..];
                if self.payload.len() == self.len {
                    self.state = DeframeState::CrcLo;
                }
                continue;
            }
            frames.extend(self.push(byte));
            bytes = rest;
        }
        frames
    }

    fn abort(&mut self) {
        self.state = DeframeState::Sof;
        self.resyncs += 1;
    }

    /// Completed frames whose CRC check failed.
    pub fn crc_errors(&self) -> u64 {
        self.crc_errors
    }

    /// Bytes discarded while hunting for SOF, plus aborted frames.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Frames aborted because LEN exceeded the payload cap.
    pub fn oversize(&self) -> u64 {
        self.oversize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE of "123456789" is 0x29B1
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    fn enc_dec_round_trip_every_width() {
        let mut e = Enc::new();
        e.u8(0xAB);
        e.u16(0xBEEF);
        e.u32(0xDEAD_BEEF);
        e.u64(0x0123_4567_89AB_CDEF);
        e.i16(-2);
        e.i32(-3);
        e.f64(-0.0);
        e.str("héllo");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xAB);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(d.i16().unwrap(), -2);
        assert_eq!(d.i32().unwrap(), -3);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.str().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn dec_truncation_is_an_error_not_a_panic() {
        let mut d = Dec::new(&[1, 2]);
        assert!(matches!(d.u32(), Err(DecodeError::Truncated { needed: 4, remaining: 2 })));
    }

    #[test]
    fn dec_count_rejects_absurd_lengths() {
        let mut e = Enc::new();
        e.u32(u32::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.count("items", 8), Err(DecodeError::BadLength { .. })));
    }

    #[test]
    fn frame_round_trips_through_the_deframer() {
        let f = RawFrame { version: 1, kind: 0x42, payload: vec![1, 2, 3] };
        let mut d = Deframer::new(1024);
        let got = d.push_slice(&f.encode());
        assert_eq!(got, vec![f]);
        assert_eq!((d.crc_errors(), d.resyncs(), d.oversize()), (0, 0, 0));
    }

    #[test]
    fn empty_payload_frame_round_trips() {
        let f = RawFrame { version: 1, kind: 0, payload: vec![] };
        let mut d = Deframer::new(16);
        assert_eq!(d.push_slice(&f.encode()), vec![f]);
    }

    #[test]
    fn corrupted_frame_is_crc_rejected() {
        let f = RawFrame { version: 1, kind: 7, payload: vec![9; 10] };
        let mut bytes = f.encode();
        bytes[8] ^= 0x01;
        let mut d = Deframer::new(1024);
        assert!(d.push_slice(&bytes).is_empty());
        assert_eq!(d.crc_errors(), 1);
    }

    #[test]
    fn oversize_len_aborts_within_the_cap() {
        let mut d = Deframer::new(8);
        let mut bytes = vec![WIRE_SOF, 1, 0];
        bytes.extend_from_slice(&1_000_000u32.to_le_bytes());
        assert!(d.push_slice(&bytes).is_empty());
        assert_eq!(d.oversize(), 1);
        // and a valid frame right after still parses
        let f = RawFrame { version: 1, kind: 3, payload: vec![5] };
        assert_eq!(d.push_slice(&f.encode()), vec![f]);
    }

    #[test]
    fn garbage_then_frame_resyncs() {
        let f = RawFrame { version: 1, kind: 2, payload: vec![1, 2] };
        let mut stream = vec![0x00, 0xFF, 0x13];
        stream.extend(f.encode());
        let mut d = Deframer::new(64);
        assert_eq!(d.push_slice(&stream), vec![f]);
        assert_eq!(d.resyncs(), 3);
    }
}
