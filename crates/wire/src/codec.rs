//! The wire frame vocabulary: what travels over a `peert-wire` socket.
//!
//! Outer grammar (handled by [`peert_frame::Deframer`]):
//!
//! ```text
//! SOF(0x5A) | VER(u8) | KIND(u8) | LEN(u32 LE) | payload | CRC16-CCITT LE
//! ```
//!
//! The CRC covers `VER..payload`. Payload encodings are self-contained
//! little-endian (floats as `f64::to_bits`, strings u32-length-prefixed
//! UTF-8, collections u32-count-prefixed), so a frame decodes with no
//! out-of-band schema. Every multi-byte field goes through
//! [`peert_frame::Enc`]/[`peert_frame::Dec`]; decoding is hardened —
//! truncation, bad tags and absurd counts are typed errors, never
//! panics or unbounded allocations.
//!
//! Frame kinds (client → server use low discriminants, server → client
//! the high bit):
//!
//! | kind | frame | payload |
//! |------|------------|---------|
//! | 0x01 | Submit     | request_id u64, tenant str, dt f64, steps u64, priority u8, deadline (u8 flag + u64 ns), probes, overrides, diagram |
//! | 0x02 | Cancel     | session_id u64 |
//! | 0x81 | Accepted   | request_id u64, session_id u64 |
//! | 0x82 | Rejected   | request_id u64, tagged [`Reject`] |
//! | 0x83 | Chunk      | session_id u64, start_step u64, values (tagged bit patterns) |
//! | 0x84 | Done       | session_id u64, tagged [`SessionOutcome`], steps u64 |
//! | 0x85 | Error      | code u16, message str |
//! | 0x86 | CancelAck  | session_id u64, known u8 |
//!
//! The submitted diagram travels as a [`DiagramSpec`] (plain data; the
//! daemon instantiates it), with probes and override targets addressed
//! by *block index* into the spec, mapped to [`peert_model::BlockId`]s
//! server-side after the build. [`peert_model::Value`]s travel as the
//! same `(tag, bits)` pairs the verify harness compares trajectories
//! with — `F64=0` (`to_bits`), `I32=1`, `I16=2`, `U16=3`, `Bool=4`,
//! `Q15=5` (raw register) — so a wire round trip is bit-exact by
//! construction.

use peert_fixedpoint::Q15;
use peert_frame::{encode_frame, Dec, DecodeError, Enc, RawFrame};
use peert_model::spec::{BlockSpec, DiagramSpec};
use peert_model::Value;
use peert_serve::{Reject, SessionOutcome};

/// Wire protocol version. A frame with any other version byte is
/// answered with an [`Frame::Error`] (code [`ERR_VERSION`]) and
/// otherwise ignored — the outer grammar is frozen across versions, so
/// framing survives even when payload semantics change.
pub const PROTOCOL_VERSION: u8 = 1;

/// Per-frame payload cap (also the deframer's bounded buffer): large
/// enough for a generous diagram or result chunk, small enough that a
/// malicious LEN can't balloon a connection's memory.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// `Chunk` payload bytes ahead of the values: session id, start step,
/// value count.
const CHUNK_HEADER_BYTES: usize = 20;
/// Wire bytes per value: tag plus 64-bit pattern.
const VALUE_BYTES: usize = 9;
/// The most values one `Chunk` frame carries within
/// [`MAX_FRAME_PAYLOAD`] (116 506). A session probing more ports than
/// this could not stream even one step.
pub(crate) const MAX_CHUNK_VALUES: usize = (MAX_FRAME_PAYLOAD - CHUNK_HEADER_BYTES) / VALUE_BYTES;

/// [`Frame::Error`] code: unsupported protocol version.
pub const ERR_VERSION: u16 = 1;
/// [`Frame::Error`] code: payload failed to decode.
pub const ERR_MALFORMED: u16 = 2;
/// [`Frame::Error`] code: frame kind not valid in this direction.
pub const ERR_UNEXPECTED: u16 = 3;

/// A per-lane override addressed by block *index* into the submitted
/// [`DiagramSpec`] (the daemon resolves indices to block ids after
/// instantiating).
#[derive(Clone, Debug, PartialEq)]
pub enum WireOverride {
    /// Override parameter `index` of block `block`.
    Param {
        /// Block index into the spec.
        block: u32,
        /// Parameter index within the block's lowered window.
        index: u32,
        /// New value for this lane.
        value: f64,
    },
    /// Override the `Value` a `Constant`-family block emits.
    Const {
        /// Block index into the spec.
        block: u32,
        /// New value for this lane.
        value: Value,
    },
}

/// A session submission as it travels over the wire — the plain-data
/// mirror of [`peert_serve::SessionSpec`] (a [`DiagramSpec`] instead of
/// a built diagram, block indices instead of block ids).
#[derive(Clone, Debug, PartialEq)]
pub struct WireSpec {
    /// Tenant the session is accounted to.
    pub tenant: String,
    /// The model, as plain data.
    pub diagram: DiagramSpec,
    /// Fundamental step in seconds.
    pub dt: f64,
    /// Step budget.
    pub steps: u64,
    /// Scheduling priority.
    pub priority: u8,
    /// Wall-clock deadline budget in nanoseconds, if any.
    pub deadline_ns: Option<u64>,
    /// Probes as `(block index, output port)` into the spec.
    pub probes: Vec<(u32, u32)>,
    /// Per-lane overrides.
    pub overrides: Vec<WireOverride>,
}

impl WireSpec {
    /// A spec with no probes, no overrides, default priority, no
    /// deadline — the same defaults as
    /// [`peert_serve::SessionSpec::new`].
    pub fn new(tenant: impl Into<String>, diagram: DiagramSpec, steps: u64) -> Self {
        let dt = diagram.dt;
        WireSpec {
            tenant: tenant.into(),
            diagram,
            dt,
            steps,
            priority: 0,
            deadline_ns: None,
            probes: Vec::new(),
            overrides: Vec::new(),
        }
    }

    /// Add one probe by `(block index, output port)`.
    pub fn probe(mut self, block: u32, port: u32) -> Self {
        self.probes.push((block, port));
        self
    }

    /// Set the scheduling priority.
    pub fn priority(mut self, p: u8) -> Self {
        self.priority = p;
        self
    }

    /// Set a wall-clock deadline budget in nanoseconds.
    pub fn deadline_ns(mut self, ns: u64) -> Self {
        self.deadline_ns = Some(ns);
        self
    }

    /// Add a per-lane override.
    pub fn with_override(mut self, o: WireOverride) -> Self {
        self.overrides.push(o);
        self
    }
}

/// One wire frame, decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: submit a session. `request_id` is
    /// client-chosen and echoed in the matching [`Frame::Accepted`] /
    /// [`Frame::Rejected`], so a client can pipeline submissions.
    Submit {
        /// Client-chosen correlation id.
        request_id: u64,
        /// The session.
        spec: WireSpec,
    },
    /// Client → server: cancel a session by server-assigned id.
    Cancel {
        /// Session to cancel.
        session_id: u64,
    },
    /// Server → client: the submission was admitted.
    Accepted {
        /// Echo of the submission's correlation id.
        request_id: u64,
        /// Server-assigned session id (all later frames use this).
        session_id: u64,
    },
    /// Server → client: the submission was refused.
    Rejected {
        /// Echo of the submission's correlation id.
        request_id: u64,
        /// Why — the same typed reason in-process callers get.
        reject: Reject,
    },
    /// Server → client: a run of probe values.
    Chunk {
        /// Which session this chunk belongs to.
        session_id: u64,
        /// First step covered.
        start_step: u64,
        /// Probe-major values (`probes.len()` per step).
        values: Vec<Value>,
    },
    /// Server → client: terminal event for a session.
    Done {
        /// Which session ended.
        session_id: u64,
        /// How it ended.
        outcome: SessionOutcome,
        /// Steps recorded over the whole session.
        steps: u64,
    },
    /// Server → client: a protocol-level complaint (bad version,
    /// malformed payload, unexpected kind). The connection stays up.
    Error {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Server → client: a [`Frame::Cancel`] was processed. `known` is
    /// false when the session id wasn't live on this connection
    /// (already reaped, or never existed) — either way the cancel is
    /// *done*, which lets clients issue deterministic cancel schedules.
    CancelAck {
        /// Echo of the cancel's session id.
        session_id: u64,
        /// Whether the session was live when the cancel arrived.
        known: bool,
    },
}

const KIND_SUBMIT: u8 = 0x01;
const KIND_CANCEL: u8 = 0x02;
const KIND_ACCEPTED: u8 = 0x81;
const KIND_REJECTED: u8 = 0x82;
const KIND_CHUNK: u8 = 0x83;
const KIND_DONE: u8 = 0x84;
const KIND_ERROR: u8 = 0x85;
const KIND_CANCEL_ACK: u8 = 0x86;

impl Frame {
    /// This frame's kind discriminant.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Submit { .. } => KIND_SUBMIT,
            Frame::Cancel { .. } => KIND_CANCEL,
            Frame::Accepted { .. } => KIND_ACCEPTED,
            Frame::Rejected { .. } => KIND_REJECTED,
            Frame::Chunk { .. } => KIND_CHUNK,
            Frame::Done { .. } => KIND_DONE,
            Frame::Error { .. } => KIND_ERROR,
            Frame::CancelAck { .. } => KIND_CANCEL_ACK,
        }
    }

    /// Encode to complete wire bytes (framing + CRC included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append this frame's wire bytes to `out`, after whatever it
    /// already holds: the payload is written in place, with no
    /// intermediate buffer, so a writer can batch frames into one
    /// reused buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_frame(out, PROTOCOL_VERSION, self.kind(), |e| match self {
            Frame::Submit { request_id, spec } => {
                e.u64(*request_id);
                enc_spec(e, spec);
            }
            Frame::Cancel { session_id } => e.u64(*session_id),
            Frame::Accepted { request_id, session_id } => {
                e.u64(*request_id);
                e.u64(*session_id);
            }
            Frame::Rejected { request_id, reject } => {
                e.u64(*request_id);
                enc_reject(e, reject);
            }
            Frame::Chunk { session_id, start_step, values } => {
                e.u64(*session_id);
                e.u64(*start_step);
                e.u32(values.len() as u32);
                for v in values {
                    enc_value(e, *v);
                }
            }
            Frame::Done { session_id, outcome, steps } => {
                e.u64(*session_id);
                enc_outcome(e, outcome);
                e.u64(*steps);
            }
            Frame::Error { code, message } => {
                e.u16(*code);
                e.str(message);
            }
            Frame::CancelAck { session_id, known } => {
                e.u64(*session_id);
                e.u8(u8::from(*known));
            }
        });
    }

    /// Decode a deframed payload. The caller has already checked the
    /// version byte (framing is version-independent; payloads are not).
    pub fn decode(raw: &RawFrame) -> Result<Frame, DecodeError> {
        let mut d = Dec::new(&raw.payload);
        let frame = match raw.kind {
            KIND_SUBMIT => Frame::Submit { request_id: d.u64()?, spec: dec_spec(&mut d)? },
            KIND_CANCEL => Frame::Cancel { session_id: d.u64()? },
            KIND_ACCEPTED => Frame::Accepted { request_id: d.u64()?, session_id: d.u64()? },
            KIND_REJECTED => {
                Frame::Rejected { request_id: d.u64()?, reject: dec_reject(&mut d)? }
            }
            KIND_CHUNK => {
                let session_id = d.u64()?;
                let start_step = d.u64()?;
                let n = d.count("chunk values", 9)?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(dec_value(&mut d)?);
                }
                Frame::Chunk { session_id, start_step, values }
            }
            KIND_DONE => {
                let session_id = d.u64()?;
                let outcome = dec_outcome(&mut d)?;
                let steps = d.u64()?;
                Frame::Done { session_id, outcome, steps }
            }
            KIND_ERROR => Frame::Error { code: d.u16()?, message: d.str()? },
            KIND_CANCEL_ACK => {
                Frame::CancelAck { session_id: d.u64()?, known: d.u8()? != 0 }
            }
            other => return Err(DecodeError::BadTag { what: "frame kind", tag: other }),
        };
        d.finish()?;
        Ok(frame)
    }
}

/// The `Chunk` frames that carry `values`, `per_step` of them per step
/// from `start_step` on, none over [`MAX_FRAME_PAYLOAD`]: one frame
/// when they fit, otherwise pieces split at step boundaries, each
/// advancing `start_step` by the steps before it.
pub(crate) fn chunk_frames(
    session_id: u64,
    start_step: u64,
    per_step: usize,
    values: Vec<Value>,
) -> Vec<Frame> {
    if values.len() <= MAX_CHUNK_VALUES {
        return vec![Frame::Chunk { session_id, start_step, values }];
    }
    let per_step = per_step.max(1);
    let steps = (MAX_CHUNK_VALUES / per_step).max(1);
    values
        .chunks(steps * per_step)
        .zip((start_step..).step_by(steps))
        .map(|(piece, start_step)| Frame::Chunk { session_id, start_step, values: piece.to_vec() })
        .collect()
}

// ---------------------------------------------------------------------------
// values — the `(tag, bits)` pairs of `peert_verify::value_bits`
// ---------------------------------------------------------------------------

fn enc_value(e: &mut Enc, v: Value) {
    let (tag, bits) = match v {
        Value::F64(x) => (0u8, x.to_bits()),
        Value::I32(x) => (1, x as u32 as u64),
        Value::I16(x) => (2, x as u16 as u64),
        Value::U16(x) => (3, x as u64),
        Value::Bool(b) => (4, b as u64),
        Value::Q15(q) => (5, q.raw() as u16 as u64),
    };
    e.u8(tag);
    e.u64(bits);
}

fn dec_value(d: &mut Dec) -> Result<Value, DecodeError> {
    let tag = d.u8()?;
    let bits = d.u64()?;
    Ok(match tag {
        0 => Value::F64(f64::from_bits(bits)),
        1 => Value::I32(bits as u32 as i32),
        2 => Value::I16(bits as u16 as i16),
        3 => Value::U16(bits as u16),
        4 => Value::Bool(bits != 0),
        5 => Value::Q15(Q15::from_raw(bits as u16 as i16)),
        t => return Err(DecodeError::BadTag { what: "value", tag: t }),
    })
}

// ---------------------------------------------------------------------------
// rejects and outcomes
// ---------------------------------------------------------------------------

fn enc_reject(e: &mut Enc, r: &Reject) {
    match r {
        Reject::QuotaExceeded { tenant, active, quota } => {
            e.u8(0);
            e.str(tenant);
            e.u64(*active as u64);
            e.u64(*quota as u64);
        }
        Reject::Backpressure { shard, cap } => {
            e.u8(1);
            e.u32(*shard as u32);
            e.u64(*cap as u64);
        }
        Reject::Invalid(msg) => {
            e.u8(2);
            e.str(msg);
        }
        Reject::OverridesUnsupported(msg) => {
            e.u8(3);
            e.str(msg);
        }
        Reject::ShuttingDown => e.u8(4),
        Reject::DeadlineInfeasible { budget_ns, predicted_ns, p99_step_ns } => {
            e.u8(5);
            e.u64(*budget_ns);
            e.u64(*predicted_ns);
            e.u64(*p99_step_ns);
        }
    }
}

fn dec_reject(d: &mut Dec) -> Result<Reject, DecodeError> {
    Ok(match d.u8()? {
        0 => Reject::QuotaExceeded {
            tenant: d.str()?,
            active: d.u64()? as usize,
            quota: d.u64()? as usize,
        },
        1 => Reject::Backpressure { shard: d.u32()? as usize, cap: d.u64()? as usize },
        2 => Reject::Invalid(d.str()?),
        3 => Reject::OverridesUnsupported(d.str()?),
        4 => Reject::ShuttingDown,
        5 => Reject::DeadlineInfeasible {
            budget_ns: d.u64()?,
            predicted_ns: d.u64()?,
            p99_step_ns: d.u64()?,
        },
        t => return Err(DecodeError::BadTag { what: "reject", tag: t }),
    })
}

fn enc_outcome(e: &mut Enc, o: &SessionOutcome) {
    match o {
        SessionOutcome::Completed => e.u8(0),
        SessionOutcome::Cancelled => e.u8(1),
        SessionOutcome::Failed(msg) => {
            e.u8(2);
            e.str(msg);
        }
    }
}

fn dec_outcome(d: &mut Dec) -> Result<SessionOutcome, DecodeError> {
    Ok(match d.u8()? {
        0 => SessionOutcome::Completed,
        1 => SessionOutcome::Cancelled,
        2 => SessionOutcome::Failed(d.str()?),
        t => return Err(DecodeError::BadTag { what: "outcome", tag: t }),
    })
}

// ---------------------------------------------------------------------------
// submissions
// ---------------------------------------------------------------------------

fn enc_spec(e: &mut Enc, s: &WireSpec) {
    e.str(&s.tenant);
    e.f64(s.dt);
    e.u64(s.steps);
    e.u8(s.priority);
    match s.deadline_ns {
        Some(ns) => {
            e.u8(1);
            e.u64(ns);
        }
        None => {
            e.u8(0);
            e.u64(0);
        }
    }
    e.u32(s.probes.len() as u32);
    for &(b, p) in &s.probes {
        e.u32(b);
        e.u32(p);
    }
    e.u32(s.overrides.len() as u32);
    for o in &s.overrides {
        match o {
            WireOverride::Param { block, index, value } => {
                e.u8(0);
                e.u32(*block);
                e.u32(*index);
                e.f64(*value);
            }
            WireOverride::Const { block, value } => {
                e.u8(1);
                e.u32(*block);
                enc_value(e, *value);
            }
        }
    }
    enc_diagram(e, &s.diagram);
}

fn dec_spec(d: &mut Dec) -> Result<WireSpec, DecodeError> {
    let tenant = d.str()?;
    let dt = d.f64()?;
    let steps = d.u64()?;
    let priority = d.u8()?;
    let deadline_flag = d.u8()?;
    let deadline_raw = d.u64()?;
    let deadline_ns = match deadline_flag {
        0 => None,
        1 => Some(deadline_raw),
        t => return Err(DecodeError::BadTag { what: "deadline flag", tag: t }),
    };
    let n_probes = d.count("probes", 8)?;
    let mut probes = Vec::with_capacity(n_probes);
    for _ in 0..n_probes {
        probes.push((d.u32()?, d.u32()?));
    }
    let n_over = d.count("overrides", 5)?;
    let mut overrides = Vec::with_capacity(n_over);
    for _ in 0..n_over {
        overrides.push(match d.u8()? {
            0 => WireOverride::Param { block: d.u32()?, index: d.u32()?, value: d.f64()? },
            1 => WireOverride::Const { block: d.u32()?, value: dec_value(d)? },
            t => return Err(DecodeError::BadTag { what: "override", tag: t }),
        });
    }
    let diagram = dec_diagram(d)?;
    Ok(WireSpec { tenant, diagram, dt, steps, priority, deadline_ns, probes, overrides })
}

// ---------------------------------------------------------------------------
// diagrams — `BlockSpec` tags follow declaration order in
// `peert_model::spec`
// ---------------------------------------------------------------------------

fn enc_diagram(e: &mut Enc, spec: &DiagramSpec) {
    e.f64(spec.dt);
    e.u32(spec.blocks.len() as u32);
    for b in &spec.blocks {
        enc_block(e, b);
    }
    e.u32(spec.wires.len() as u32);
    for &(sb, sp, db, dp) in &spec.wires {
        e.u32(sb as u32);
        e.u32(sp as u32);
        e.u32(db as u32);
        e.u32(dp as u32);
    }
}

fn dec_diagram(d: &mut Dec) -> Result<DiagramSpec, DecodeError> {
    let dt = d.f64()?;
    let n_blocks = d.count("blocks", 1)?;
    let mut blocks = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        blocks.push(dec_block(d)?);
    }
    let n_wires = d.count("wires", 16)?;
    let mut wires = Vec::with_capacity(n_wires);
    for _ in 0..n_wires {
        wires.push((
            d.u32()? as usize,
            d.u32()? as usize,
            d.u32()? as usize,
            d.u32()? as usize,
        ));
    }
    Ok(DiagramSpec { dt, blocks, wires })
}

fn enc_block(e: &mut Enc, b: &BlockSpec) {
    match b {
        BlockSpec::Input { index } => {
            e.u8(0);
            e.u32(*index as u32);
        }
        BlockSpec::Output => e.u8(1),
        BlockSpec::Constant { value } => {
            e.u8(2);
            e.f64(*value);
        }
        BlockSpec::Step { time, level } => {
            e.u8(3);
            e.f64(*time);
            e.f64(*level);
        }
        BlockSpec::Sine { amplitude, freq_hz } => {
            e.u8(4);
            e.f64(*amplitude);
            e.f64(*freq_hz);
        }
        BlockSpec::Ramp { slope, start } => {
            e.u8(5);
            e.f64(*slope);
            e.f64(*start);
        }
        BlockSpec::Pulse { amplitude, period, duty } => {
            e.u8(6);
            e.f64(*amplitude);
            e.f64(*period);
            e.f64(*duty);
        }
        BlockSpec::Gain { gain } => {
            e.u8(7);
            e.f64(*gain);
        }
        BlockSpec::Sum { signs } => {
            e.u8(8);
            e.str(signs);
        }
        BlockSpec::Product { inputs } => {
            e.u8(9);
            e.u32(*inputs as u32);
        }
        BlockSpec::MinMax { is_max, inputs } => {
            e.u8(10);
            e.u8(u8::from(*is_max));
            e.u32(*inputs as u32);
        }
        BlockSpec::Abs => e.u8(11),
        BlockSpec::Saturation { lo, hi } => {
            e.u8(12);
            e.f64(*lo);
            e.f64(*hi);
        }
        BlockSpec::DeadZone { width } => {
            e.u8(13);
            e.f64(*width);
        }
        BlockSpec::Quantizer { interval } => {
            e.u8(14);
            e.f64(*interval);
        }
        BlockSpec::RateLimiter { rate } => {
            e.u8(15);
            e.f64(*rate);
        }
        BlockSpec::Relay { on_point, off_point, on_value, off_value } => {
            e.u8(16);
            e.f64(*on_point);
            e.f64(*off_point);
            e.f64(*on_value);
            e.f64(*off_value);
        }
        BlockSpec::Compare { op } => {
            e.u8(17);
            e.u8(*op);
        }
        BlockSpec::Switch => e.u8(18),
        BlockSpec::UnitDelay { period } => {
            e.u8(19);
            e.f64(*period);
        }
        BlockSpec::ZeroOrderHold { period } => {
            e.u8(20);
            e.f64(*period);
        }
        BlockSpec::DiscreteIntegrator { period, lo, hi } => {
            e.u8(21);
            e.f64(*period);
            e.f64(*lo);
            e.f64(*hi);
        }
        BlockSpec::DiscreteDerivative { period } => {
            e.u8(22);
            e.f64(*period);
        }
        BlockSpec::DiscreteTransferFcn { num, den, period } => {
            e.u8(23);
            e.u32(num.len() as u32);
            for &c in num {
                e.f64(c);
            }
            e.u32(den.len() as u32);
            for &c in den {
                e.f64(c);
            }
            e.f64(*period);
        }
    }
}

fn dec_block(d: &mut Dec) -> Result<BlockSpec, DecodeError> {
    Ok(match d.u8()? {
        0 => BlockSpec::Input { index: d.u32()? as usize },
        1 => BlockSpec::Output,
        2 => BlockSpec::Constant { value: d.f64()? },
        3 => BlockSpec::Step { time: d.f64()?, level: d.f64()? },
        4 => BlockSpec::Sine { amplitude: d.f64()?, freq_hz: d.f64()? },
        5 => BlockSpec::Ramp { slope: d.f64()?, start: d.f64()? },
        6 => BlockSpec::Pulse { amplitude: d.f64()?, period: d.f64()?, duty: d.f64()? },
        7 => BlockSpec::Gain { gain: d.f64()? },
        8 => BlockSpec::Sum { signs: d.str()? },
        9 => BlockSpec::Product { inputs: d.u32()? as usize },
        10 => BlockSpec::MinMax { is_max: d.u8()? != 0, inputs: d.u32()? as usize },
        11 => BlockSpec::Abs,
        12 => BlockSpec::Saturation { lo: d.f64()?, hi: d.f64()? },
        13 => BlockSpec::DeadZone { width: d.f64()? },
        14 => BlockSpec::Quantizer { interval: d.f64()? },
        15 => BlockSpec::RateLimiter { rate: d.f64()? },
        16 => BlockSpec::Relay {
            on_point: d.f64()?,
            off_point: d.f64()?,
            on_value: d.f64()?,
            off_value: d.f64()?,
        },
        17 => BlockSpec::Compare { op: d.u8()? },
        18 => BlockSpec::Switch,
        19 => BlockSpec::UnitDelay { period: d.f64()? },
        20 => BlockSpec::ZeroOrderHold { period: d.f64()? },
        21 => BlockSpec::DiscreteIntegrator { period: d.f64()?, lo: d.f64()?, hi: d.f64()? },
        22 => BlockSpec::DiscreteDerivative { period: d.f64()? },
        23 => {
            let n_num = d.count("tf numerator", 8)?;
            let mut num = Vec::with_capacity(n_num);
            for _ in 0..n_num {
                num.push(d.f64()?);
            }
            let n_den = d.count("tf denominator", 8)?;
            let mut den = Vec::with_capacity(n_den);
            for _ in 0..n_den {
                den.push(d.f64()?);
            }
            BlockSpec::DiscreteTransferFcn { num, den, period: d.f64()? }
        }
        t => return Err(DecodeError::BadTag { what: "block", tag: t }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use peert_frame::Deframer;

    fn round_trip(f: &Frame) -> Frame {
        let mut d = Deframer::new(MAX_FRAME_PAYLOAD);
        let frames = d.push_slice(&f.encode());
        assert_eq!(frames.len(), 1, "exactly one frame");
        assert_eq!(frames[0].version, PROTOCOL_VERSION);
        Frame::decode(&frames[0]).expect("decodes")
    }

    #[test]
    fn simple_frames_round_trip() {
        for f in [
            Frame::Cancel { session_id: 7 },
            Frame::Accepted { request_id: 1, session_id: 2 },
            Frame::CancelAck { session_id: 9, known: true },
            Frame::CancelAck { session_id: 10, known: false },
            Frame::Error { code: ERR_MALFORMED, message: "nope".into() },
            Frame::Done { session_id: 3, outcome: SessionOutcome::Completed, steps: 640 },
            Frame::Done {
                session_id: 4,
                outcome: SessionOutcome::Failed("engine error".into()),
                steps: 0,
            },
            Frame::Rejected {
                request_id: 5,
                reject: Reject::DeadlineInfeasible {
                    budget_ns: 1,
                    predicted_ns: 1_000_000,
                    p99_step_ns: 100,
                },
            },
        ] {
            assert_eq!(round_trip(&f), f);
        }
    }

    #[test]
    fn chunk_values_are_bit_exact() {
        let f = Frame::Chunk {
            session_id: 11,
            start_step: 64,
            values: vec![
                Value::F64(-0.0),
                Value::F64(f64::NAN),
                Value::I32(-5),
                Value::I16(-1),
                Value::U16(65535),
                Value::Bool(true),
                Value::Q15(Q15::from_raw(-32768)),
            ],
        };
        let Frame::Chunk { values, .. } = round_trip(&f) else { panic!("wrong kind") };
        // NaN != NaN under PartialEq, so compare bit patterns
        let bits = |v: Value| match v {
            Value::F64(x) => (0u8, x.to_bits()),
            Value::I32(x) => (1, x as u32 as u64),
            Value::I16(x) => (2, x as u16 as u64),
            Value::U16(x) => (3, x as u64),
            Value::Bool(b) => (4, b as u64),
            Value::Q15(q) => (5, q.raw() as u16 as u64),
        };
        let Frame::Chunk { values: orig, .. } = f else { unreachable!() };
        let got: Vec<_> = values.into_iter().map(bits).collect();
        let want: Vec<_> = orig.into_iter().map(bits).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn submit_round_trips_with_every_block_kind() {
        let diagram = DiagramSpec {
            dt: 1e-3,
            blocks: vec![
                BlockSpec::Input { index: 0 },
                BlockSpec::Output,
                BlockSpec::Constant { value: 1.5 },
                BlockSpec::Step { time: 0.1, level: 2.0 },
                BlockSpec::Sine { amplitude: 1.0, freq_hz: 50.0 },
                BlockSpec::Ramp { slope: 0.5, start: 0.0 },
                BlockSpec::Pulse { amplitude: 1.0, period: 0.02, duty: 0.5 },
                BlockSpec::Gain { gain: -3.25 },
                BlockSpec::Sum { signs: "+-".into() },
                BlockSpec::Product { inputs: 2 },
                BlockSpec::MinMax { is_max: true, inputs: 3 },
                BlockSpec::Abs,
                BlockSpec::Saturation { lo: -1.0, hi: 1.0 },
                BlockSpec::DeadZone { width: 0.1 },
                BlockSpec::Quantizer { interval: 0.25 },
                BlockSpec::RateLimiter { rate: 10.0 },
                BlockSpec::Relay { on_point: 0.5, off_point: -0.5, on_value: 1.0, off_value: 0.0 },
                BlockSpec::Compare { op: 2 },
                BlockSpec::Switch,
                BlockSpec::UnitDelay { period: 1e-3 },
                BlockSpec::ZeroOrderHold { period: 2e-3 },
                BlockSpec::DiscreteIntegrator { period: 1e-3, lo: -10.0, hi: 10.0 },
                BlockSpec::DiscreteDerivative { period: 1e-3 },
                BlockSpec::DiscreteTransferFcn {
                    num: vec![0.5, 0.5],
                    den: vec![1.0, -0.9],
                    period: 1e-3,
                },
            ],
            wires: vec![(2, 0, 7, 0), (7, 0, 1, 0)],
        };
        let f = Frame::Submit {
            request_id: 42,
            spec: WireSpec {
                tenant: "tenant-α".into(),
                diagram,
                dt: 1e-3,
                steps: 1000,
                priority: 3,
                deadline_ns: Some(5_000_000_000),
                probes: vec![(7, 0), (1, 0)],
                overrides: vec![
                    WireOverride::Param { block: 7, index: 0, value: 2.5 },
                    WireOverride::Const { block: 2, value: Value::F64(9.0) },
                ],
            },
        };
        assert_eq!(round_trip(&f), f);
    }

    #[test]
    fn unknown_kind_and_bad_tags_are_typed_errors() {
        let raw = RawFrame { version: PROTOCOL_VERSION, kind: 0x7F, payload: vec![] };
        assert!(matches!(
            Frame::decode(&raw),
            Err(DecodeError::BadTag { what: "frame kind", .. })
        ));
        let raw = RawFrame { version: PROTOCOL_VERSION, kind: KIND_DONE, payload: vec![0; 9] };
        assert!(Frame::decode(&raw).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut e = Enc::new();
        e.u64(1);
        e.u8(0xEE); // trailing garbage after a complete Cancel payload
        let raw = RawFrame { version: PROTOCOL_VERSION, kind: KIND_CANCEL, payload: e.into_bytes() };
        assert!(matches!(Frame::decode(&raw), Err(DecodeError::TrailingBytes(1))));
    }
}
