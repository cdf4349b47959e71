//! Property-based tests for the wire frame codec: every frame kind
//! round-trips bit-exactly through encode → deframe → decode, and the
//! stream layer survives whatever a hostile or broken peer sends —
//! re-slicing, truncation, bit flips, oversize lengths and raw garbage
//! never panic, never wedge the deframer, and never surface a silently
//! corrupted frame.

use peert_fixedpoint::Q15;
use peert_frame::{Deframer, RawFrame, WIRE_OVERHEAD, WIRE_SOF};
use peert_model::spec::{BlockSpec, DiagramSpec};
use peert_model::Value;
use peert_prop::{any, check, option_of, prop_assert, prop_assert_eq, vec_of, within, Index, Rng};
use peert_serve::{Reject, SessionOutcome};
use peert_wire::{Frame, WireOverride, WireSpec, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION};

// ---------------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------------

/// A string of fewer than `max` chars drawn across ASCII and a
/// multi-byte range, so length prefixes count bytes != chars.
fn arb_string(rng: &mut Rng, max: usize) -> String {
    vec_of(rng, 0..max, |r| within(r, 32u32..0x2FF))
        .into_iter()
        .filter_map(char::from_u32)
        .collect()
}

fn arb_signs(rng: &mut Rng) -> String {
    vec_of(rng, 0..5, any::<bool>).into_iter().map(|b| if b { '+' } else { '-' }).collect()
}

/// Any `Value`, including non-finite floats: floats travel as raw bit
/// patterns, so the generator draws bits, not numbers.
fn arb_value(rng: &mut Rng) -> Value {
    match rng.below(6) {
        0 => Value::F64(any(rng)),
        1 => Value::I32(any(rng)),
        2 => Value::I16(any(rng)),
        3 => Value::U16(any(rng)),
        4 => Value::Bool(any(rng)),
        _ => Value::Q15(Q15::from_raw(any(rng))),
    }
}

/// Every block kind, with raw-bit float parameters.
fn arb_block(rng: &mut Rng) -> BlockSpec {
    match rng.below(24) {
        0 => BlockSpec::Input { index: within(rng, 0usize..4) },
        1 => BlockSpec::Output,
        2 => BlockSpec::Constant { value: any(rng) },
        3 => BlockSpec::Step { time: any(rng), level: any(rng) },
        4 => BlockSpec::Sine { amplitude: any(rng), freq_hz: any(rng) },
        5 => BlockSpec::Ramp { slope: any(rng), start: any(rng) },
        6 => BlockSpec::Pulse { amplitude: any(rng), period: any(rng), duty: any(rng) },
        7 => BlockSpec::Gain { gain: any(rng) },
        8 => BlockSpec::Sum { signs: arb_signs(rng) },
        9 => BlockSpec::Product { inputs: within(rng, 1usize..5) },
        10 => BlockSpec::MinMax { is_max: any(rng), inputs: within(rng, 1usize..5) },
        11 => BlockSpec::Abs,
        12 => BlockSpec::Saturation { lo: any(rng), hi: any(rng) },
        13 => BlockSpec::DeadZone { width: any(rng) },
        14 => BlockSpec::Quantizer { interval: any(rng) },
        15 => BlockSpec::RateLimiter { rate: any(rng) },
        16 => BlockSpec::Relay {
            on_point: any(rng),
            off_point: any(rng),
            on_value: any(rng),
            off_value: any(rng),
        },
        17 => BlockSpec::Compare { op: any(rng) },
        18 => BlockSpec::Switch,
        19 => BlockSpec::UnitDelay { period: any(rng) },
        20 => BlockSpec::ZeroOrderHold { period: any(rng) },
        21 => BlockSpec::DiscreteIntegrator { period: any(rng), lo: any(rng), hi: any(rng) },
        22 => BlockSpec::DiscreteDerivative { period: any(rng) },
        _ => BlockSpec::DiscreteTransferFcn {
            num: vec_of(rng, 1..4, any),
            den: vec_of(rng, 1..4, any),
            period: any(rng),
        },
    }
}

/// An arbitrary `DiagramSpec` as wire *data* — structural validity
/// (wire targets in range, ports that exist) is the daemon's problem,
/// not the codec's, so the generator doesn't bother being well-formed.
fn arb_diagram(rng: &mut Rng) -> DiagramSpec {
    DiagramSpec {
        dt: any(rng),
        blocks: vec_of(rng, 0..6, arb_block),
        wires: vec_of(rng, 0..8, |r| {
            (
                within(r, 0usize..64),
                within(r, 0usize..4),
                within(r, 0usize..64),
                within(r, 0usize..4),
            )
        }),
    }
}

fn arb_override(rng: &mut Rng) -> WireOverride {
    match rng.below(2) {
        0 => WireOverride::Param { block: any(rng), index: within(rng, 0u32..8), value: any(rng) },
        _ => WireOverride::Const { block: any(rng), value: arb_value(rng) },
    }
}

fn arb_spec(rng: &mut Rng) -> WireSpec {
    WireSpec {
        tenant: arb_string(rng, 12),
        diagram: arb_diagram(rng),
        dt: any(rng),
        steps: any(rng),
        priority: any(rng),
        deadline_ns: option_of(rng, any),
        probes: vec_of(rng, 0..8, |r| (any(r), within(r, 0u32..4))),
        overrides: vec_of(rng, 0..4, arb_override),
    }
}

fn arb_reject(rng: &mut Rng) -> Reject {
    match rng.below(6) {
        0 => Reject::QuotaExceeded {
            tenant: arb_string(rng, 12),
            active: within(rng, 0usize..100),
            quota: within(rng, 0usize..100),
        },
        1 => {
            Reject::Backpressure { shard: within(rng, 0usize..16), cap: within(rng, 0usize..1000) }
        }
        2 => Reject::Invalid(arb_string(rng, 24)),
        3 => Reject::OverridesUnsupported(arb_string(rng, 24)),
        4 => Reject::ShuttingDown,
        _ => Reject::DeadlineInfeasible {
            budget_ns: any(rng),
            predicted_ns: any(rng),
            p99_step_ns: any(rng),
        },
    }
}

fn arb_outcome(rng: &mut Rng) -> SessionOutcome {
    match rng.below(3) {
        0 => SessionOutcome::Completed,
        1 => SessionOutcome::Cancelled,
        _ => SessionOutcome::Failed(arb_string(rng, 24)),
    }
}

/// Every frame kind, client- and server-side.
fn arb_frame(rng: &mut Rng) -> Frame {
    match rng.below(8) {
        0 => Frame::Submit { request_id: any(rng), spec: arb_spec(rng) },
        1 => Frame::Cancel { session_id: any(rng) },
        2 => Frame::Accepted { request_id: any(rng), session_id: any(rng) },
        3 => Frame::Rejected { request_id: any(rng), reject: arb_reject(rng) },
        4 => Frame::Chunk {
            session_id: any(rng),
            start_step: any(rng),
            values: vec_of(rng, 0..24, arb_value),
        },
        5 => Frame::Done { session_id: any(rng), outcome: arb_outcome(rng), steps: any(rng) },
        6 => Frame::Error { code: any(rng), message: arb_string(rng, 24) },
        _ => Frame::CancelAck { session_id: any(rng), known: any(rng) },
    }
}

/// Frame equality through re-encoding: `f64::NAN != f64::NAN` under
/// `PartialEq`, but encoding is a pure function of the bit patterns, so
/// two frames are wire-identical iff their bytes are.
fn wire_eq(a: &Frame, b: &Frame) -> bool {
    a.encode() == b.encode()
}

/// Deframer cap for the adversarial-stream properties: small enough
/// that a flush gap is cheap, large enough for every generated frame.
const TEST_CAP: usize = 1 << 12;

fn flush_gap() -> Vec<u8> {
    vec![0u8; TEST_CAP + WIRE_OVERHEAD]
}

/// Every frame kind survives encode → deframe → decode bit-exactly.
#[test]
fn every_frame_kind_round_trips() {
    check(64, arb_frame, |f| {
        let bytes = f.encode();
        let mut d = Deframer::new(MAX_FRAME_PAYLOAD);
        let raws = d.push_slice(&bytes);
        prop_assert_eq!(raws.len(), 1);
        prop_assert_eq!(raws[0].version, PROTOCOL_VERSION);
        prop_assert_eq!(raws[0].kind, f.kind());
        let back = Frame::decode(&raws[0]).expect("valid frame decodes");
        prop_assert!(wire_eq(&back, &f), "round trip changed the frame");
        prop_assert_eq!(d.crc_errors(), 0);
        Ok(())
    });
}

/// A train of frames, cut into arbitrary slices, parses completely
/// and in order — slice boundaries are invisible to the stream.
#[test]
fn frame_trains_survive_arbitrary_re_slicing() {
    check(
        64,
        |rng| (vec_of(rng, 1..6, arb_frame), vec_of(rng, 0..12, any::<Index>)),
        |(frames, cuts)| {
            let mut stream = Vec::new();
            for f in &frames {
                stream.extend(f.encode());
            }
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c.index(stream.len() + 1)).collect();
            bounds.push(0);
            bounds.push(stream.len());
            bounds.sort_unstable();
            let mut d = Deframer::new(MAX_FRAME_PAYLOAD);
            let mut got = Vec::new();
            for w in bounds.windows(2) {
                got.extend(d.push_slice(&stream[w[0]..w[1]]));
            }
            prop_assert_eq!(got.len(), frames.len());
            for (raw, want) in got.iter().zip(frames.iter()) {
                let back = Frame::decode(raw).expect("valid frame decodes");
                prop_assert!(wire_eq(&back, want));
            }
            Ok(())
        },
    );
}

/// `push_slice`'s bulk payload copy is invisible: a corrupted stream
/// (garbage ahead of a frame train, bit flips anywhere, SOF and LEN
/// included) cut into arbitrary slices yields the same frames and the
/// same `crc_errors`/`resyncs`/`oversize` as feeding `push` one byte
/// at a time.
#[test]
fn push_slice_matches_byte_at_a_time_push() {
    check(
        64,
        |rng| {
            (
                vec_of(rng, 0..64, any::<u8>),
                vec_of(rng, 1..6, arb_frame),
                vec_of(rng, 0..6, |r| (any::<Index>(r), within(r, 0u8..8))),
                vec_of(rng, 0..12, any::<Index>),
            )
        },
        |(garbage, frames, flips, cuts)| {
            let mut stream = garbage;
            for f in &frames {
                f.encode_into(&mut stream);
            }
            for (at, bit) in &flips {
                let i = at.index(stream.len());
                stream[i] ^= 1 << bit;
            }
            let mut bytewise = Deframer::new(TEST_CAP);
            let want: Vec<RawFrame> = stream.iter().filter_map(|&b| bytewise.push(b)).collect();
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c.index(stream.len() + 1)).collect();
            bounds.push(0);
            bounds.push(stream.len());
            bounds.sort_unstable();
            let mut sliced = Deframer::new(TEST_CAP);
            let mut got = Vec::new();
            for w in bounds.windows(2) {
                got.extend(sliced.push_slice(&stream[w[0]..w[1]]));
            }
            prop_assert_eq!(got, want);
            let counters = |d: &Deframer| (d.crc_errors(), d.resyncs(), d.oversize());
            prop_assert_eq!(counters(&sliced), counters(&bytewise));
            Ok(())
        },
    );
}

/// `encode_into` appends: onto a buffer that already holds bytes it
/// leaves them alone and adds exactly `encode()`'s bytes, so LEN and
/// the CRC are placed and computed relative to the frame, not the
/// buffer.
#[test]
fn encode_into_appends_encode_after_any_prefix() {
    check(
        64,
        |rng| (vec_of(rng, 0..64, any::<u8>), arb_frame(rng)),
        |(prefix, f)| {
            let mut out = prefix.clone();
            f.encode_into(&mut out);
            let mut want = prefix;
            want.extend(f.encode());
            prop_assert_eq!(out, want);
            Ok(())
        },
    );
}

/// A single-bit flip anywhere past SOF and LEN leaves the frame
/// boundary intact, so the corruption is caught by CRC, the frame is
/// dropped, and the very next frame parses. (SOF and LEN flips break
/// framing itself; they get their own bounded-loss properties.)
#[test]
fn bit_flips_are_dropped_with_resync() {
    check(
        64,
        |rng| (arb_frame(rng), arb_frame(rng), any::<Index>(rng), within(rng, 0u8..8)),
        |(f1, f2, byte_idx, bit)| {
            let mut stream = f1.encode();
            let len = stream.len();
            // flip within VER, KIND, payload or CRC — not SOF (0), not LEN (3..7)
            let flippable: Vec<usize> = (1..len).filter(|&i| !(3..7).contains(&i)).collect();
            let idx = flippable[byte_idx.index(flippable.len())];
            stream[idx] ^= 1 << bit;
            stream.extend(f2.encode());
            let mut d = Deframer::new(MAX_FRAME_PAYLOAD);
            let got = d.push_slice(&stream);
            prop_assert_eq!(got.len(), 1, "corrupted frame must be dropped");
            // a VER flip still CRC-fails; the payload is never trusted
            prop_assert_eq!(d.crc_errors(), 1);
            let back = Frame::decode(&got[0]).expect("clean frame decodes");
            prop_assert!(wire_eq(&back, &f2), "the frame after the corruption must parse");
            Ok(())
        },
    );
}

/// A corrupted LEN mis-frames the stream: the loss is bounded (at
/// most the payload cap), never a panic, and after a SOF-free flush
/// gap the next frame parses.
#[test]
fn len_flips_lose_at_most_the_cap() {
    check(
        64,
        |rng| (arb_frame(rng), arb_frame(rng), within(rng, 0usize..4), within(rng, 0u8..8)),
        |(f1, f2, len_byte, bit)| {
            let mut stream = f1.encode();
            stream[3 + len_byte] ^= 1 << bit;
            stream.extend(flush_gap());
            stream.extend(f2.encode());
            let mut d = Deframer::new(TEST_CAP);
            let got = d.push_slice(&stream);
            let back = Frame::decode(got.last().expect("trailing frame parses"))
                .expect("trailing frame decodes");
            prop_assert!(wire_eq(&back, &f2));
            Ok(())
        },
    );
}

/// Truncating a frame anywhere never wedges the deframer: after a
/// flush gap, the next valid frame parses.
#[test]
fn truncation_never_wedges() {
    check(
        64,
        |rng| (arb_frame(rng), arb_frame(rng), any::<Index>(rng)),
        |(f1, f2, cut)| {
            let whole = f1.encode();
            let keep = cut.index(whole.len());
            let mut stream = whole[..keep].to_vec();
            stream.extend(flush_gap());
            stream.extend(f2.encode());
            let mut d = Deframer::new(TEST_CAP);
            let got = d.push_slice(&stream);
            let back = Frame::decode(got.last().expect("frame after truncation parses"))
                .expect("frame after truncation decodes");
            prop_assert!(wire_eq(&back, &f2));
            Ok(())
        },
    );
}

/// Arbitrary garbage never panics the deframer and never produces a
/// frame that passes CRC *and* decodes to a submit/cancel by
/// accident without the full grammar agreeing; afterwards the parser
/// is still functional.
#[test]
fn garbage_streams_never_panic_or_wedge() {
    check(
        64,
        |rng| (vec_of(rng, 0..512, any::<u8>), arb_frame(rng)),
        |(garbage, f)| {
            let mut d = Deframer::new(TEST_CAP);
            for raw in d.push_slice(&garbage) {
                let _ = Frame::decode(&raw); // must not panic, whatever parsed
            }
            let mut stream = flush_gap();
            stream.extend(f.encode());
            let got = d.push_slice(&stream);
            let back = Frame::decode(got.last().expect("frame after garbage parses"))
                .expect("frame after garbage decodes");
            prop_assert!(wire_eq(&back, &f));
            Ok(())
        },
    );
}

/// `Frame::decode` over arbitrary payload bytes under any kind byte
/// is total: typed errors or a frame, never a panic and never an
/// absurd allocation (`Dec::count` bounds every collection by the
/// bytes actually present).
#[test]
fn decode_is_total_over_arbitrary_payloads() {
    check(
        64,
        |rng| (any::<u8>(rng), vec_of(rng, 0..256, any::<u8>)),
        |(kind, payload)| {
            let raw = RawFrame { version: PROTOCOL_VERSION, kind, payload };
            if let Ok(f) = Frame::decode(&raw) {
                // anything that decodes must re-encode into a deframeable frame
                let mut d = Deframer::new(MAX_FRAME_PAYLOAD);
                prop_assert_eq!(d.push_slice(&f.encode()).len(), 1);
            }
            Ok(())
        },
    );
}

/// A LEN beyond the payload cap aborts *at the fourth LEN byte* — the
/// deframer is back to SOF hunting immediately (no flush gap needed)
/// and the oversize counter records the attack.
#[test]
fn oversize_len_aborts_promptly_and_recovers() {
    let cap = 256;
    let mut d = Deframer::new(cap);
    let mut stream = vec![WIRE_SOF, PROTOCOL_VERSION, 0x01];
    stream.extend_from_slice(&(cap as u32 + 1).to_le_bytes());
    let f = Frame::Cancel { session_id: 99 };
    stream.extend(f.encode());
    let got = d.push_slice(&stream);
    assert_eq!(d.oversize(), 1);
    assert_eq!(got.len(), 1, "the frame right after the oversize header must parse");
    assert_eq!(Frame::decode(&got[0]).expect("decodes"), f);
}
