//! Subsystems: hierarchical composition and function-call triggering.
//!
//! The paper's single-model approach (§5) builds "two interconnected
//! subsystems — a controller and a plant in the closed loop"; code is
//! generated "for the controller subsystem only". Function-call subsystems
//! execute when a PE block's event port (a peripheral interrupt) fires.
//! [`Subsystem`] is an atomic block wrapping an inner [`Diagram`]; its
//! inner blocks all execute at the subsystem's own rate (or per trigger),
//! matching Simulink's atomic-subsystem semantics.

use crate::block::{Block, BlockCtx, PortCount, SampleTime};
use crate::graph::{BlockId, Diagram, GraphError};
use crate::signal::Value;

/// Input port marker inside a subsystem. The wrapping [`Subsystem`] writes
/// the outer input value onto this block's output wire before each inner
/// sweep — `output` intentionally leaves the slot untouched.
pub struct Inport;

impl Block for Inport {
    fn type_name(&self) -> &'static str {
        "Inport"
    }
    fn ports(&self) -> PortCount {
        PortCount::new(0, 1)
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::inport())
    }
    fn output(&mut self, _ctx: &mut BlockCtx) {
        // value injected by the owning Subsystem; nothing to compute
    }
}

/// Output port marker inside a subsystem: copies its input through so the
/// wrapping [`Subsystem`] can read it after the sweep.
pub struct Outport;

impl Block for Outport {
    fn type_name(&self) -> &'static str {
        "Outport"
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::outport())
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let v = ctx.input(0);
        ctx.set_output(0, v);
    }
}

/// An atomic subsystem block.
pub struct Subsystem {
    diagram: Diagram,
    order: Vec<BlockId>,
    /// Per block of `order`: the `(block, port)` driving each of its
    /// inputs (`None` = unconnected), resolved once at construction.
    sources: Vec<Vec<Option<(usize, usize)>>>,
    values: Vec<Vec<Value>>,
    /// Input and event buffers every inner block call reuses.
    inputs: Vec<Value>,
    events: Vec<usize>,
    inports: Vec<BlockId>,
    outports: Vec<BlockId>,
    sample: SampleTime,
    executions: u64,
}

impl Subsystem {
    /// Wrap `diagram` as an atomic subsystem. `inports`/`outports` list the
    /// marker blocks, in outer-port order. `sample` is the subsystem rate
    /// ([`SampleTime::Triggered`] makes it a function-call subsystem).
    pub fn new(
        diagram: Diagram,
        inports: Vec<BlockId>,
        outports: Vec<BlockId>,
        sample: SampleTime,
    ) -> Result<Self, GraphError> {
        let order = diagram.sorted_order()?;
        let values = diagram.blocks.iter().map(|b| vec![Value::default(); b.ports().outputs]).collect();
        let sources = order
            .iter()
            .map(|&BlockId(idx)| {
                (0..diagram.blocks[idx].ports().inputs)
                    .map(|p| diagram.wires.get(&(idx, p)).map(|&(src, sp)| (src.0, sp)))
                    .collect()
            })
            .collect();
        Ok(Subsystem {
            diagram,
            order,
            sources,
            values,
            inputs: Vec::new(),
            events: Vec::new(),
            inports,
            outports,
            sample,
            executions: 0,
        })
    }

    /// How many times this subsystem executed.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// The inner diagram (for code generation).
    pub fn diagram(&self) -> &Diagram {
        &self.diagram
    }

    /// Inner inport block ids in port order.
    pub fn inports(&self) -> &[BlockId] {
        &self.inports
    }

    /// Inner outport block ids in port order.
    pub fn outports(&self) -> &[BlockId] {
        &self.outports
    }

    fn exec_inner(&mut self, t: f64, dt: f64) {
        for phase_out in [true, false] {
            for k in 0..self.order.len() {
                let idx = self.order[k].0;
                let values = &self.values;
                self.inputs.clear();
                self.inputs.extend(
                    self.sources[k]
                        .iter()
                        .map(|s| s.map_or_else(Value::default, |(b, p)| values[b][p])),
                );
                // inner blocks' events go nowhere
                self.events.clear();
                let mut outputs = std::mem::take(&mut self.values[idx]);
                {
                    let mut ctx =
                        BlockCtx::new(t, dt, &self.inputs, &mut outputs, &mut self.events);
                    if phase_out {
                        self.diagram.blocks[idx].output(&mut ctx);
                    } else {
                        self.diagram.blocks[idx].update(&mut ctx);
                    }
                }
                self.values[idx] = outputs;
            }
        }
    }
}

impl Block for Subsystem {
    fn type_name(&self) -> &'static str {
        "Subsystem"
    }
    fn ports(&self) -> PortCount {
        PortCount::new(self.inports.len(), self.outports.len())
    }
    fn sample(&self) -> SampleTime {
        self.sample
    }
    fn reset(&mut self) {
        self.executions = 0;
        for b in &mut self.diagram.blocks {
            b.reset();
        }
        for v in &mut self.values {
            for slot in v.iter_mut() {
                *slot = Value::default();
            }
        }
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        // inject outer inputs onto the inport wires
        for (i, &ip) in self.inports.iter().enumerate() {
            self.values[ip.0][0] = ctx.input(i);
        }
        self.exec_inner(ctx.t, ctx.dt);
        self.executions += 1;
        for (i, &op) in self.outports.iter().enumerate() {
            let v = self.values[op.0][0];
            ctx.set_output(i, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::library::math::Gain;
    use crate::library::sources::Constant;

    /// controller-style subsystem computing y = 3 * u
    fn gain3_subsystem(sample: SampleTime) -> Subsystem {
        let mut inner = Diagram::new();
        let ip = inner.add("u", Inport).unwrap();
        let g = inner.add("g", Gain::new(3.0)).unwrap();
        let op = inner.add("y", Outport).unwrap();
        inner.connect((ip, 0), (g, 0)).unwrap();
        inner.connect((g, 0), (op, 0)).unwrap();
        Subsystem::new(inner, vec![ip], vec![op], sample).unwrap()
    }

    #[test]
    fn subsystem_computes_through_inner_diagram() {
        let mut d = Diagram::new();
        let c = d.add("c", Constant::new(2.0)).unwrap();
        let s = d.add("sub", gain3_subsystem(SampleTime::Continuous)).unwrap();
        d.connect((c, 0), (s, 0)).unwrap();
        let mut e = Engine::new(d, 0.01).unwrap();
        e.step().unwrap();
        assert_eq!(e.probe((s, 0)).as_f64(), 6.0);
    }

    #[test]
    fn discrete_subsystem_runs_at_its_rate() {
        let mut d = Diagram::new();
        let c = d.add("c", Constant::new(1.0)).unwrap();
        let s = d.add("sub", gain3_subsystem(SampleTime::every(0.05))).unwrap();
        d.connect((c, 0), (s, 0)).unwrap();
        let mut e = Engine::new(d, 0.01).unwrap();
        e.run_until(0.1).unwrap();
        // hits at t = 0 and 0.05
        let sub = e
            .diagram()
            .block(s)
            .ports();
        assert_eq!(sub.inputs, 1);
        // executions counted inside the subsystem
        // (probe still carries the result)
        assert_eq!(e.probe((s, 0)).as_f64(), 3.0);
    }

    #[test]
    fn triggered_subsystem_only_runs_on_fire() {
        let mut d = Diagram::new();
        let c = d.add("c", Constant::new(5.0)).unwrap();
        let s = d.add("sub", gain3_subsystem(SampleTime::Triggered)).unwrap();
        d.connect((c, 0), (s, 0)).unwrap();
        let mut e = Engine::new(d, 0.01).unwrap();
        e.run_until(0.05).unwrap();
        assert_eq!(e.probe((s, 0)).as_f64(), 0.0, "never ran");
        e.fire(s).unwrap();
        assert_eq!(e.probe((s, 0)).as_f64(), 15.0);
    }

    #[test]
    fn subsystem_reset_resets_inner_blocks() {
        let mut sub = gain3_subsystem(SampleTime::Continuous);
        let (out, _) = crate::block::step_block(&mut sub, 0.0, 0.01, &[Value::F64(1.0)]);
        assert_eq!(out[0].as_f64(), 3.0);
        assert_eq!(sub.executions(), 1);
        sub.reset();
        assert_eq!(sub.executions(), 0);
    }

    #[test]
    fn subsystem_rejects_inner_algebraic_loops() {
        let mut inner = Diagram::new();
        let a = inner.add("a", Gain::new(1.0)).unwrap();
        let b = inner.add("b", Gain::new(1.0)).unwrap();
        inner.connect((a, 0), (b, 0)).unwrap();
        inner.connect((b, 0), (a, 0)).unwrap();
        assert!(Subsystem::new(inner, vec![], vec![], SampleTime::Continuous).is_err());
    }
}
