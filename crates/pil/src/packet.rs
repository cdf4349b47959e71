//! The PIL sample-exchange protocol.
//!
//! Each control period, one packet travels in each direction (§6): the
//! host sends the sensor samples the redirected peripheral reads will
//! return; the board answers with the actuation samples. Framing:
//!
//! ```text
//! SOF(0xA5) | LEN(u8, payload bytes) | SEQ(u8) | payload: n × i16 LE | CRC16-CCITT (2 B)
//! ```
//!
//! The parser is an incremental state machine: the line delivers one byte
//! per interrupt, and "some interrupt service routines are ... invoked by
//! the communication interrupt service routine when a corresponding event
//! is indicated by the received packet" (§6).

/// CRC16-CCITT (poly 0x1021, init 0xFFFF) — the shared implementation
/// in `peert-frame`, re-exported so this module stays the packet
/// layer's single import point.
pub use peert_frame::crc16;
use peert_frame::crc16_update;

/// Start-of-frame marker.
pub const SOF: u8 = 0xA5;
/// Maximum samples per packet (payload length must fit u8).
pub const MAX_SAMPLES: usize = 120;
/// Frame overhead in bytes (SOF + LEN + SEQ + CRC16).
pub const OVERHEAD_BYTES: usize = 5;

/// One protocol packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Sequence number (wraps at 256).
    pub seq: u8,
    /// Signal samples (Q15 / scaled engineering values).
    pub samples: Vec<i16>,
}

impl Packet {
    /// Build a packet; errors if the payload exceeds the frame format.
    pub fn new(seq: u8, samples: Vec<i16>) -> Result<Self, String> {
        if samples.len() > MAX_SAMPLES {
            return Err(format!("{} samples exceed the frame maximum {MAX_SAMPLES}", samples.len()));
        }
        Ok(Packet { seq, samples })
    }

    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        OVERHEAD_BYTES + 2 * self.samples.len()
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_bytes());
        buf.extend([SOF, (self.samples.len() * 2) as u8, self.seq]);
        for &s in &self.samples {
            buf.extend(s.to_le_bytes());
        }
        let crc = crc16(&buf[1..]);
        buf.extend(crc.to_le_bytes());
        buf
    }
}

/// Parser states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Sof,
    Len,
    Seq,
    Payload,
    CrcLo,
    CrcHi,
}

/// Incremental frame parser.
#[derive(Debug)]
pub struct PacketParser {
    state: State,
    len: usize,
    seq: u8,
    payload: Vec<u8>,
    crc_lo: u8,
    crc_errors: u64,
    resyncs: u64,
}

impl Default for PacketParser {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketParser {
    /// New parser hunting for SOF.
    pub fn new() -> Self {
        PacketParser {
            state: State::Sof,
            len: 0,
            seq: 0,
            payload: Vec::new(),
            crc_lo: 0,
            crc_errors: 0,
            resyncs: 0,
        }
    }

    /// Feed one byte; returns a packet when a valid frame completes.
    pub fn push(&mut self, byte: u8) -> Option<Packet> {
        match self.state {
            State::Sof => {
                if byte == SOF {
                    self.state = State::Len;
                } else {
                    self.resyncs += 1;
                }
                None
            }
            State::Len => {
                if byte as usize > MAX_SAMPLES * 2 || !byte.is_multiple_of(2) {
                    self.abort();
                    return None;
                }
                self.len = byte as usize;
                self.state = State::Seq;
                None
            }
            State::Seq => {
                self.seq = byte;
                self.payload.clear();
                self.state = if self.len == 0 { State::CrcLo } else { State::Payload };
                None
            }
            State::Payload => {
                self.payload.push(byte);
                if self.payload.len() == self.len {
                    self.state = State::CrcLo;
                }
                None
            }
            State::CrcLo => {
                self.crc_lo = byte;
                self.state = State::CrcHi;
                None
            }
            State::CrcHi => {
                self.state = State::Sof;
                let got = u16::from_le_bytes([self.crc_lo, byte]);
                let header = crc16(&[self.len as u8, self.seq]);
                if crc16_update(header, &self.payload) != got {
                    self.crc_errors += 1;
                    return None;
                }
                let samples = self
                    .payload
                    .chunks_exact(2)
                    .map(|c| i16::from_le_bytes([c[0], c[1]]))
                    .collect();
                Some(Packet { seq: self.seq, samples })
            }
        }
    }

    fn abort(&mut self) {
        self.state = State::Sof;
        self.resyncs += 1;
    }

    /// CRC failures seen.
    pub fn crc_errors(&self) -> u64 {
        self.crc_errors
    }

    /// Bytes discarded while hunting for SOF (including aborted frames).
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }
}

/// Convert an engineering value to a wire sample with a full-scale range.
pub fn to_sample(v: f64, full_scale: f64) -> i16 {
    let norm = (v / full_scale).clamp(-1.0, 1.0 - 1.0 / 32768.0);
    (norm * 32768.0).round() as i16
}

/// Convert a wire sample back to an engineering value.
pub fn from_sample(s: i16, full_scale: f64) -> f64 {
    s as f64 / 32768.0 * full_scale
}

/// Quantize-and-recover `vals` through the i16 wire representation at
/// `scale` — exactly what one frame does to a signal. The host-side
/// fallback replicas chain these so their trajectories stay
/// bit-identical to the wire path.
pub fn quantize_roundtrip(vals: &[f64], scale: f64) -> Vec<f64> {
    vals.iter().map(|&v| from_sample(to_sample(v, scale), scale)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_parse_round_trip() {
        let p = Packet::new(7, vec![0, -1, 32_000, -32_768]).unwrap();
        let bytes = p.encode();
        assert_eq!(bytes.len(), p.wire_bytes());
        let mut parser = PacketParser::new();
        let mut got = None;
        for b in bytes {
            got = parser.push(b).or(got);
        }
        assert_eq!(got.unwrap(), p);
        assert_eq!(parser.crc_errors(), 0);
    }

    #[test]
    fn oversized_payload_is_rejected() {
        assert!(Packet::new(0, vec![0; MAX_SAMPLES + 1]).is_err());
        assert!(Packet::new(0, vec![0; MAX_SAMPLES]).is_ok());
    }

    #[test]
    fn corrupted_byte_fails_crc_not_panics() {
        let p = Packet::new(3, vec![123, -456]).unwrap();
        let mut bytes = p.encode();
        bytes[4] ^= 0x10;
        let mut parser = PacketParser::new();
        let got: Vec<Packet> = bytes.iter().filter_map(|&b| parser.push(b)).collect();
        assert!(got.is_empty());
        assert_eq!(parser.crc_errors(), 1);
    }

    #[test]
    fn parser_resyncs_after_garbage() {
        let mut parser = PacketParser::new();
        for b in [0x00, 0xFF, 0x42] {
            assert!(parser.push(b).is_none());
        }
        assert_eq!(parser.resyncs(), 3);
        let p = Packet::new(1, vec![5]).unwrap();
        let got: Vec<Packet> = p.encode().iter().filter_map(|&b| parser.push(b)).collect();
        assert_eq!(got, vec![p]);
    }

    #[test]
    fn back_to_back_frames_parse() {
        let a = Packet::new(1, vec![1]).unwrap();
        let b = Packet::new(2, vec![2, 3]).unwrap();
        let mut stream = a.encode();
        stream.extend(b.encode());
        let mut parser = PacketParser::new();
        let got: Vec<Packet> = stream.iter().filter_map(|&x| parser.push(x)).collect();
        assert_eq!(got, vec![a, b]);
    }

    #[test]
    fn empty_payload_packet_works() {
        let p = Packet::new(9, vec![]).unwrap();
        let mut parser = PacketParser::new();
        let got: Vec<Packet> = p.encode().iter().filter_map(|&b| parser.push(b)).collect();
        assert_eq!(got, vec![p]);
    }

    #[test]
    fn odd_length_field_aborts_the_frame() {
        let mut parser = PacketParser::new();
        parser.push(SOF);
        parser.push(3); // odd → invalid
        assert_eq!(parser.resyncs(), 1);
    }

    #[test]
    fn sample_scaling_round_trips() {
        for v in [-200.0, -1.0, 0.0, 55.5, 199.9] {
            let s = to_sample(v, 200.0);
            let back = from_sample(s, 200.0);
            assert!((back - v).abs() < 200.0 / 32768.0 + 1e-9, "v={v} back={back}");
        }
        assert_eq!(to_sample(1e9, 200.0), i16::MAX);
        assert_eq!(to_sample(-1e9, 200.0), i16::MIN);
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE of "123456789" is 0x29B1
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }
}
