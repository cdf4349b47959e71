//! Serializable diagram specifications.
//!
//! `Box<dyn Block>` is not `Clone`, so anything that needs to ship a
//! diagram across a process boundary — the verify harness's generated
//! test cases, the serve wire protocol's session submissions — uses a
//! [`DiagramSpec`]: a plain-data description that can be instantiated
//! *fresh* for every execution path (reference interpreter, kernel
//! tape, codegen/PIL pipeline, a remote `peert-serve` daemon).
//! Two instantiations of the same spec are the same model, which
//! [`DiagramSpec::build`] guarantees by construction and the harnesses
//! double-check through [`crate::Diagram::fingerprint`].
//!
//! This module lived in `peert-verify` through PR 7; the wire protocol
//! (PR 8) made it the shared vocabulary between the generator, the
//! codec and the daemon, so it moved down into the model crate.

use crate::block::Block;
use crate::graph::{BlockId, Diagram, GraphError};
use crate::library::discrete::{
    DiscreteDerivative, DiscreteIntegrator, DiscreteTransferFcn, UnitDelay, ZeroOrderHold,
};
use crate::library::logic::{Compare, CompareOp, Switch};
use crate::library::math::{Abs, Gain, MinMax, Product, Sum};
use crate::library::nonlinear::{DeadZone, Quantizer, RateLimiter, Relay, Saturation};
use crate::library::sources::{Constant, PulseGenerator, Ramp, SineWave, Step};
use crate::subsystem::{Inport, Outport};
use peert_trace::{json_struct, JsonValue, ToJson};

/// The most inputs one instantiated block may have: as many wires as
/// one 1 MiB wire frame can carry at 16 bytes each. A wider `Sum`,
/// `Product` or `MinMax` is refused before the execution plan sizes a
/// per-input table for it.
pub const MAX_BLOCK_INPUTS: usize = 65_536;

/// One block of a specified diagram, as plain data.
#[derive(Clone, Debug, PartialEq)]
pub enum BlockSpec {
    /// Controller input marker (instantiates to an `Inport`).
    Input {
        /// Which controller input this marker is (0-based).
        index: usize,
    },
    /// Controller output marker (instantiates to an `Outport`).
    Output,
    /// Constant source.
    Constant {
        /// The value.
        value: f64,
    },
    /// Step source (0 before `time`, `level` after).
    Step {
        /// Switch time in seconds.
        time: f64,
        /// Final level.
        level: f64,
    },
    /// Sine source (zero phase and bias).
    Sine {
        /// Amplitude.
        amplitude: f64,
        /// Frequency in Hz.
        freq_hz: f64,
    },
    /// Ramp source.
    Ramp {
        /// Slope per second.
        slope: f64,
        /// Start time in seconds.
        start: f64,
    },
    /// Pulse source.
    Pulse {
        /// Amplitude.
        amplitude: f64,
        /// Period in seconds.
        period: f64,
        /// Duty cycle in `[0, 1]`.
        duty: f64,
    },
    /// Scalar gain.
    Gain {
        /// The gain factor.
        gain: f64,
    },
    /// Signed sum; one input per sign character.
    Sum {
        /// Sign string, e.g. `"+-"`.
        signs: String,
    },
    /// N-input product.
    Product {
        /// Number of inputs.
        inputs: usize,
    },
    /// N-input min or max.
    MinMax {
        /// True = max, false = min.
        is_max: bool,
        /// Number of inputs.
        inputs: usize,
    },
    /// Absolute value.
    Abs,
    /// Saturation to `[lo, hi]`.
    Saturation {
        /// Lower limit.
        lo: f64,
        /// Upper limit.
        hi: f64,
    },
    /// Dead zone of `width` around zero.
    DeadZone {
        /// Zone half-width parameter.
        width: f64,
    },
    /// Quantizer to multiples of `interval`.
    Quantizer {
        /// Quantization interval.
        interval: f64,
    },
    /// Symmetric rate limiter.
    RateLimiter {
        /// Max rising slew per second.
        rate: f64,
    },
    /// Hysteresis relay.
    Relay {
        /// Switch-on threshold.
        on_point: f64,
        /// Switch-off threshold (≤ `on_point`).
        off_point: f64,
        /// Output when on.
        on_value: f64,
        /// Output when off.
        off_value: f64,
    },
    /// Relational compare of input 0 vs input 1 (bool out).
    Compare {
        /// Operator index into `[Lt, Le, Gt, Ge, Eq, Ne]`.
        op: u8,
    },
    /// 3-input switch: bool input 1 selects input 0 or input 2.
    Switch,
    /// One-period delay.
    UnitDelay {
        /// Sample period in seconds.
        period: f64,
    },
    /// Zero-order hold.
    ZeroOrderHold {
        /// Sample period in seconds.
        period: f64,
    },
    /// Forward-Euler discrete integrator, clamped to `[lo, hi]`.
    DiscreteIntegrator {
        /// Sample period in seconds.
        period: f64,
        /// Lower state limit.
        lo: f64,
        /// Upper state limit.
        hi: f64,
    },
    /// Backward-difference derivative.
    DiscreteDerivative {
        /// Sample period in seconds.
        period: f64,
    },
    /// Direct-form-II transfer function.
    DiscreteTransferFcn {
        /// Numerator coefficients.
        num: Vec<f64>,
        /// Denominator coefficients.
        den: Vec<f64>,
        /// Sample period in seconds.
        period: f64,
    },
}

impl BlockSpec {
    /// `(inputs, outputs)` of the instantiated block.
    pub fn ports(&self) -> (usize, usize) {
        match self {
            BlockSpec::Input { .. } => (0, 1),
            BlockSpec::Output => (1, 1),
            BlockSpec::Constant { .. }
            | BlockSpec::Step { .. }
            | BlockSpec::Sine { .. }
            | BlockSpec::Ramp { .. }
            | BlockSpec::Pulse { .. } => (0, 1),
            BlockSpec::Gain { .. }
            | BlockSpec::Abs
            | BlockSpec::Saturation { .. }
            | BlockSpec::DeadZone { .. }
            | BlockSpec::Quantizer { .. }
            | BlockSpec::RateLimiter { .. }
            | BlockSpec::Relay { .. }
            | BlockSpec::UnitDelay { .. }
            | BlockSpec::ZeroOrderHold { .. }
            | BlockSpec::DiscreteIntegrator { .. }
            | BlockSpec::DiscreteDerivative { .. }
            | BlockSpec::DiscreteTransferFcn { .. } => (1, 1),
            BlockSpec::Sum { signs } => (signs.len(), 1),
            BlockSpec::Product { inputs } | BlockSpec::MinMax { inputs, .. } => (*inputs, 1),
            BlockSpec::Compare { .. } => (2, 1),
            BlockSpec::Switch => (3, 1),
        }
    }

    /// Whether the instantiated block has direct feedthrough — the
    /// verify generator only wires *forward* edges into feedthrough
    /// blocks, so every generated diagram is acyclic by construction.
    pub fn feedthrough(&self) -> bool {
        !matches!(
            self,
            BlockSpec::UnitDelay { .. } | BlockSpec::DiscreteIntegrator { .. }
        )
    }

    /// Instantiate the library block. Parameters outside a family's
    /// domain and a `Sum`, `Product` or `MinMax` wider than
    /// [`MAX_BLOCK_INPUTS`] are errors.
    pub fn instantiate(&self) -> Result<Box<dyn Block>, String> {
        let (inputs, _) = self.ports();
        if inputs > MAX_BLOCK_INPUTS {
            return Err(format!(
                "{inputs} inputs on one block exceed the limit of {MAX_BLOCK_INPUTS}"
            ));
        }
        Ok(match self {
            BlockSpec::Input { .. } => Box::new(Inport),
            BlockSpec::Output => Box::new(Outport),
            BlockSpec::Constant { value } => Box::new(Constant::new(*value)),
            BlockSpec::Step { time, level } => Box::new(Step::new(*time, *level)),
            BlockSpec::Sine { amplitude, freq_hz } => Box::new(SineWave::new(*amplitude, *freq_hz)),
            BlockSpec::Ramp { slope, start } => {
                Box::new(Ramp { slope: *slope, start_time: *start })
            }
            BlockSpec::Pulse { amplitude, period, duty } => Box::new(PulseGenerator {
                amplitude: *amplitude,
                period: *period,
                duty: *duty,
                delay: 0.0,
            }),
            BlockSpec::Gain { gain } => Box::new(Gain::new(*gain)),
            BlockSpec::Sum { signs } => Box::new(Sum::new(signs)?),
            BlockSpec::Product { inputs } => Box::new(Product { inputs: *inputs }),
            BlockSpec::MinMax { is_max, inputs } => {
                Box::new(MinMax { is_max: *is_max, inputs: *inputs })
            }
            BlockSpec::Abs => Box::new(Abs),
            BlockSpec::Saturation { lo, hi } => Box::new(Saturation::new(*lo, *hi)?),
            BlockSpec::DeadZone { width } => Box::new(DeadZone { width: *width }),
            BlockSpec::Quantizer { interval } => Box::new(Quantizer { interval: *interval }),
            BlockSpec::RateLimiter { rate } => Box::new(RateLimiter::new(*rate)?),
            BlockSpec::Relay { on_point, off_point, on_value, off_value } => {
                Box::new(Relay::new(*on_point, *off_point, *on_value, *off_value)?)
            }
            BlockSpec::Compare { op } => Box::new(Compare {
                op: [
                    CompareOp::Lt,
                    CompareOp::Le,
                    CompareOp::Gt,
                    CompareOp::Ge,
                    CompareOp::Eq,
                    CompareOp::Ne,
                ][*op as usize % 6],
            }),
            BlockSpec::Switch => Box::new(Switch),
            BlockSpec::UnitDelay { period } => Box::new(UnitDelay::new(*period)),
            BlockSpec::ZeroOrderHold { period } => Box::new(ZeroOrderHold::new(*period)),
            BlockSpec::DiscreteIntegrator { period, lo, hi } => {
                Box::new(DiscreteIntegrator::with_limits(*period, *lo, *hi)?)
            }
            BlockSpec::DiscreteDerivative { period } => {
                Box::new(DiscreteDerivative::new(*period))
            }
            BlockSpec::DiscreteTransferFcn { num, den, period } => {
                Box::new(DiscreteTransferFcn::new(*period, num.clone(), den.clone())?)
            }
        })
    }
}

json_struct! {
    /// A whole specified diagram as plain data: blocks plus wires
    /// `(src_block, src_port, dst_block, dst_port)` by index.
    #[derive(Clone, Debug, PartialEq)]
    pub struct DiagramSpec {
        /// Fundamental step in seconds.
        pub dt: f64,
        /// The blocks, in insertion order.
        pub blocks: Vec<BlockSpec>,
        /// Wires as `(src_block, src_port, dst_block, dst_port)`.
        pub wires: Vec<(usize, usize, usize, usize)>,
    }
}

impl DiagramSpec {
    /// Instantiate a fresh [`Diagram`]. Blocks are named `b0`, `b1`, …
    pub fn build(&self) -> Result<Diagram, String> {
        let mut d = Diagram::new();
        let mut ids: Vec<BlockId> = Vec::with_capacity(self.blocks.len());
        for (i, b) in self.blocks.iter().enumerate() {
            let id = d
                .add_boxed(format!("b{i}"), b.instantiate()?)
                .map_err(|e: GraphError| e.to_string())?;
            ids.push(id);
        }
        for &(sb, sp, db, dp) in &self.wires {
            if sb >= ids.len() || db >= ids.len() {
                return Err(format!("wire ({sb},{sp})->({db},{dp}) references a missing block"));
            }
            d.connect((ids[sb], sp), (ids[db], dp)).map_err(|e| e.to_string())?;
        }
        Ok(d)
    }

    /// The spec with block `b` removed: wires touching `b` are dropped
    /// and higher block indices shift down — the shrinker's one move.
    pub fn without_block(&self, b: usize) -> DiagramSpec {
        let blocks = self
            .blocks
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != b)
            .map(|(_, s)| s.clone())
            .collect();
        let remap = |i: usize| if i > b { i - 1 } else { i };
        let wires = self
            .wires
            .iter()
            .filter(|&&(sb, _, db, _)| sb != b && db != b)
            .map(|&(sb, sp, db, dp)| (remap(sb), sp, remap(db), dp))
            .collect();
        DiagramSpec { dt: self.dt, blocks, wires }
    }

    /// The spec as JSON text, for failure reports.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

impl ToJson for BlockSpec {
    /// Externally tagged: a unit variant is its name, any other variant
    /// an object `{"Variant": {fields}}`.
    fn to_json_value(&self) -> JsonValue {
        use BlockSpec as B;
        let (variant, fields): (&str, Vec<(&str, &dyn ToJson)>) = match self {
            B::Output => return JsonValue::str("Output"),
            B::Abs => return JsonValue::str("Abs"),
            B::Switch => return JsonValue::str("Switch"),
            B::Input { index } => ("Input", vec![("index", index)]),
            B::Constant { value } => ("Constant", vec![("value", value)]),
            B::Step { time, level } => ("Step", vec![("time", time), ("level", level)]),
            B::Sine { amplitude, freq_hz } => {
                ("Sine", vec![("amplitude", amplitude), ("freq_hz", freq_hz)])
            }
            B::Ramp { slope, start } => ("Ramp", vec![("slope", slope), ("start", start)]),
            B::Pulse { amplitude, period, duty } => {
                ("Pulse", vec![("amplitude", amplitude), ("period", period), ("duty", duty)])
            }
            B::Gain { gain } => ("Gain", vec![("gain", gain)]),
            B::Sum { signs } => ("Sum", vec![("signs", signs)]),
            B::Product { inputs } => ("Product", vec![("inputs", inputs)]),
            B::MinMax { is_max, inputs } => ("MinMax", vec![("is_max", is_max), ("inputs", inputs)]),
            B::Saturation { lo, hi } => ("Saturation", vec![("lo", lo), ("hi", hi)]),
            B::DeadZone { width } => ("DeadZone", vec![("width", width)]),
            B::Quantizer { interval } => ("Quantizer", vec![("interval", interval)]),
            B::RateLimiter { rate } => ("RateLimiter", vec![("rate", rate)]),
            B::Relay { on_point, off_point, on_value, off_value } => (
                "Relay",
                vec![
                    ("on_point", on_point),
                    ("off_point", off_point),
                    ("on_value", on_value),
                    ("off_value", off_value),
                ],
            ),
            B::Compare { op } => ("Compare", vec![("op", op)]),
            B::UnitDelay { period } => ("UnitDelay", vec![("period", period)]),
            B::ZeroOrderHold { period } => ("ZeroOrderHold", vec![("period", period)]),
            B::DiscreteIntegrator { period, lo, hi } => {
                ("DiscreteIntegrator", vec![("period", period), ("lo", lo), ("hi", hi)])
            }
            B::DiscreteDerivative { period } => ("DiscreteDerivative", vec![("period", period)]),
            B::DiscreteTransferFcn { num, den, period } => {
                ("DiscreteTransferFcn", vec![("num", num), ("den", den), ("period", period)])
            }
        };
        let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v.to_json_value())).collect();
        JsonValue::Obj(vec![(variant.to_string(), JsonValue::Obj(fields))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> DiagramSpec {
        DiagramSpec {
            dt: 1e-3,
            blocks: vec![
                BlockSpec::Constant { value: 0.5 },
                BlockSpec::Gain { gain: 2.0 },
            ],
            wires: vec![(0, 0, 1, 0)],
        }
    }

    #[test]
    fn build_produces_equal_fingerprints() {
        let spec = tiny_spec();
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn without_block_drops_and_remaps_wires() {
        let spec = tiny_spec().without_block(1);
        assert_eq!(spec.blocks.len(), 1);
        assert!(spec.wires.is_empty(), "the wire touched block 1");
        let spec2 = tiny_spec().without_block(0);
        assert!(spec2.wires.is_empty());
    }

    #[test]
    fn to_json_parses_back_externally_tagged() {
        let mut spec = tiny_spec();
        spec.blocks.push(BlockSpec::Output);
        let doc = JsonValue::parse(&spec.to_json()).expect("DiagramSpec renders valid JSON");
        assert_eq!(doc.keys(), ["dt", "blocks", "wires"]);
        assert_eq!(doc.get("dt").and_then(JsonValue::as_f64), Some(1e-3));
        let blocks = doc.get("blocks").and_then(JsonValue::as_array).unwrap();
        assert_eq!(blocks[0].keys(), ["Constant"]);
        assert_eq!(blocks[1].get("Gain").and_then(|g| g.get("gain")), Some(&JsonValue::Num(2.0)));
        assert_eq!(blocks[2].as_str(), Some("Output"));
        let wire = &doc.get("wires").and_then(JsonValue::as_array).unwrap()[0];
        assert_eq!(wire.as_array().map(<[_]>::len), Some(4));
    }

    #[test]
    fn out_of_range_wire_is_an_error_not_a_panic() {
        let mut spec = tiny_spec();
        spec.wires.push((7, 0, 1, 0));
        assert!(spec.build().is_err());
    }
}
