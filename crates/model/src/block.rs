//! The block abstraction and its execution contract.
//!
//! Simulink executes a model in two phases per major time step: every
//! block's *output* method runs in an order compatible with the dataflow
//! (direct-feedthrough inputs must be computed first), then every block's
//! *update* method advances discrete state. Blocks declare a sample time;
//! triggered (function-call) blocks only run when an event arrives. This
//! module defines the [`Block`] trait and the [`BlockCtx`] passed to it.

use crate::signal::Value;

/// Number of data ports of a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortCount {
    /// Input data ports.
    pub inputs: usize,
    /// Output data ports.
    pub outputs: usize,
    /// Function-call (event) output ports.
    pub events: usize,
}

impl PortCount {
    /// A block with `inputs` and `outputs` data ports, no events.
    pub const fn new(inputs: usize, outputs: usize) -> Self {
        PortCount { inputs, outputs, events: 0 }
    }

    /// A block that also owns `events` function-call output ports.
    pub const fn with_events(inputs: usize, outputs: usize, events: usize) -> Self {
        PortCount { inputs, outputs, events }
    }
}

/// When a block executes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SampleTime {
    /// Every engine step (continuous and "inherited" blocks).
    Continuous,
    /// Every `period` seconds, starting at `offset`.
    Discrete {
        /// Sample period in seconds.
        period: f64,
        /// Phase offset in seconds.
        offset: f64,
    },
    /// Only when a function-call event targets this block.
    Triggered,
}

impl SampleTime {
    /// Discrete with zero offset.
    pub fn every(period: f64) -> Self {
        SampleTime::Discrete { period, offset: 0.0 }
    }
}

/// Execution context handed to a block's `output`/`update` methods.
pub struct BlockCtx<'a> {
    /// Current simulation time in seconds.
    pub t: f64,
    /// Engine fundamental step in seconds.
    pub dt: f64,
    pub(crate) inputs: &'a [Value],
    pub(crate) outputs: &'a mut [Value],
    pub(crate) events: &'a mut Vec<usize>,
}

impl<'a> BlockCtx<'a> {
    /// Construct a context (used by the engine and by tests).
    pub fn new(
        t: f64,
        dt: f64,
        inputs: &'a [Value],
        outputs: &'a mut [Value],
        events: &'a mut Vec<usize>,
    ) -> Self {
        BlockCtx { t, dt, inputs, outputs, events }
    }

    /// Read input port `i` (default value if unconnected).
    pub fn input(&self, i: usize) -> Value {
        self.inputs.get(i).copied().unwrap_or_default()
    }

    /// Read input port `i` as f64.
    pub fn in_f64(&self, i: usize) -> f64 {
        self.input(i).as_f64()
    }

    /// Read input port `i` as bool.
    pub fn in_bool(&self, i: usize) -> bool {
        self.input(i).as_bool()
    }

    /// Write output port `i`.
    pub fn set_output(&mut self, i: usize, v: impl Into<Value>) {
        if let Some(slot) = self.outputs.get_mut(i) {
            *slot = v.into();
        }
    }

    /// Assert function-call event port `i` (executed by the engine right
    /// after this block's output phase, in port order).
    pub fn emit_event(&mut self, i: usize) {
        self.events.push(i);
    }

    /// Number of connected inputs visible to the block.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }
}

/// A code-generation parameter value exposed by a block.
///
/// The code generator's per-block templates (the TLC scripts of §3) read
/// block parameters through this typed bag instead of downcasting.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    /// Numeric parameter.
    F(f64),
    /// Integer parameter.
    I(i64),
    /// String parameter (bean names, sign strings…).
    S(String),
}

impl ParamValue {
    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::F(v) => Some(*v),
            ParamValue::I(v) => Some(*v as f64),
            ParamValue::S(_) => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::S(s) => Some(s),
            _ => None,
        }
    }
}

/// A Simulink-style block.
pub trait Block: Send {
    /// Library type name, e.g. `"Gain"` — used by diagnostics and by the
    /// code generator's template lookup.
    fn type_name(&self) -> &'static str;

    /// Code-generation parameters (name → value), read by the per-block
    /// template. Blocks that cannot be code-generated may return an empty
    /// bag; the generator reports them as unsupported.
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        Vec::new()
    }

    /// Port configuration.
    fn ports(&self) -> PortCount;

    /// Whether any output depends *directly* on the current input values
    /// (direct feedthrough). Non-feedthrough blocks (delays, integrators)
    /// break algebraic loops.
    fn feedthrough(&self) -> bool {
        true
    }

    /// The block's sample time.
    fn sample(&self) -> SampleTime {
        SampleTime::Continuous
    }

    /// Reset all internal state to initial conditions.
    fn reset(&mut self) {}

    /// Lower this block to a compiled kernel for the tape
    /// ([`crate::kernel`]). `None` (the default) means "not lowerable":
    /// the block gets a trampoline entry that calls this instance's
    /// `output`/`update`. Lowering is a crate-internal optimization of
    /// the built-in library — external blocks keep the default and lose
    /// nothing but speed (and a multi-lane [`crate::Engine`]).
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        None
    }

    /// Output phase: compute outputs from inputs and current state.
    fn output(&mut self, ctx: &mut BlockCtx);

    /// Update phase: advance discrete state using the current inputs.
    fn update(&mut self, _ctx: &mut BlockCtx) {}
}

/// Run a single block in isolation for one step — a test harness used by
/// the unit tests of the block library.
pub fn step_block(
    block: &mut dyn Block,
    t: f64,
    dt: f64,
    inputs: &[Value],
) -> (Vec<Value>, Vec<usize>) {
    let n = block.ports().outputs;
    let mut outputs = vec![Value::default(); n];
    let mut events = Vec::new();
    {
        let mut ctx = BlockCtx::new(t, dt, inputs, &mut outputs, &mut events);
        block.output(&mut ctx);
    }
    {
        let mut ctx = BlockCtx::new(t, dt, inputs, &mut outputs, &mut events);
        block.update(&mut ctx);
    }
    (outputs, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;
    impl Block for Doubler {
        fn type_name(&self) -> &'static str {
            "Doubler"
        }
        fn ports(&self) -> PortCount {
            PortCount::new(1, 1)
        }
        fn output(&mut self, ctx: &mut BlockCtx) {
            let v = ctx.in_f64(0) * 2.0;
            ctx.set_output(0, v);
            if v > 10.0 {
                ctx.emit_event(0);
            }
        }
    }

    #[test]
    fn step_block_runs_output_phase() {
        let (out, ev) = step_block(&mut Doubler, 0.0, 0.01, &[Value::F64(3.0)]);
        assert_eq!(out[0], Value::F64(6.0));
        assert!(ev.is_empty());
    }

    #[test]
    fn events_are_recorded() {
        let (_, ev) = step_block(&mut Doubler, 0.0, 0.01, &[Value::F64(100.0)]);
        assert_eq!(ev, vec![0]);
    }

    #[test]
    fn unconnected_input_reads_default() {
        let (out, _) = step_block(&mut Doubler, 0.0, 0.01, &[]);
        assert_eq!(out[0], Value::F64(0.0));
    }

    #[test]
    fn sample_time_helper() {
        assert_eq!(SampleTime::every(0.001), SampleTime::Discrete { period: 0.001, offset: 0.0 });
    }
}
