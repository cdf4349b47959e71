//! Straight-line reference interpreter.
//!
//! The one independent implementation of the engine's step semantics,
//! written for obviousness rather than speed: no precompiled plan, no
//! kernel tape, no flat arena, no scratch reuse — just "walk the sorted
//! order, gather inputs through the wire map, run output then update"
//! on the block instances themselves. The differential runners execute
//! a diagram through both this interpreter and [`peert_model::Engine`]
//! (and its batched lanes) and demand bit-identical values on every
//! output port of every block at every step, and equal block-eval
//! counts.

use peert_model::block::BlockCtx;
use peert_model::graph::{BlockId, Diagram};
use peert_model::signal::Value;
use peert_model::SampleTime;

/// When a block runs, in integer steps — mirrors the quantization the
/// execution plan applies (`round(period/dt)`, min 1 step).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Sched {
    /// Every major step.
    Always,
    /// Discrete rate.
    At {
        /// Period in steps.
        period: u64,
        /// Offset in steps.
        offset: u64,
    },
    /// Triggered blocks never run on the major clock; only
    /// [`RefInterp::fire`] runs them.
    Never,
}

impl Sched {
    fn of(sample: SampleTime, dt: f64) -> Sched {
        match sample {
            SampleTime::Continuous => Sched::Always,
            SampleTime::Discrete { period, offset } => Sched::At {
                period: ((period / dt).round() as u64).max(1),
                offset: (offset / dt).round().max(0.0) as u64,
            },
            SampleTime::Triggered => Sched::Never,
        }
    }

    fn due(self, step: u64) -> bool {
        match self {
            Sched::Always => true,
            Sched::At { period, offset } => {
                step >= offset && (step - offset).is_multiple_of(period)
            }
            Sched::Never => false,
        }
    }
}

/// The reference interpreter: owns a diagram instance and steps it with
/// the naive two-phase walk.
pub struct RefInterp {
    diagram: Diagram,
    order: Vec<BlockId>,
    sched: Vec<Sched>,
    values: Vec<Vec<Value>>,
    step_index: u64,
    t: f64,
    dt: f64,
    evals: u64,
}

impl RefInterp {
    /// Build over `diagram` with fundamental step `dt`. Fails if the
    /// diagram has an algebraic loop.
    pub fn new(diagram: Diagram, dt: f64) -> Result<Self, String> {
        let order = diagram.sorted_order().map_err(|e| format!("{e:?}"))?;
        let sched = diagram
            .ids()
            .map(|id| Sched::of(diagram.block(id).sample(), dt))
            .collect();
        let values = diagram
            .ids()
            .map(|id| vec![Value::default(); diagram.block(id).ports().outputs])
            .collect();
        Ok(RefInterp { diagram, order, sched, values, step_index: 0, t: 0.0, dt, evals: 0 })
    }

    fn gather(&self, id: BlockId) -> Vec<Value> {
        let n = self.diagram.block(id).ports().inputs;
        (0..n)
            .map(|p| {
                self.diagram
                    .source_of((id, p))
                    .map(|(src, sp)| self.values[src.index()][sp])
                    .unwrap_or_default()
            })
            .collect()
    }

    fn exec(&mut self, id: BlockId, output_phase: bool) {
        self.evals += 1;
        let ins = self.gather(id);
        let mut outs = std::mem::take(&mut self.values[id.index()]);
        let mut events = Vec::new();
        let mut ctx = BlockCtx::new(self.t, self.dt, &ins, &mut outs, &mut events);
        if output_phase {
            self.diagram.block_mut(id).output(&mut ctx);
        } else {
            self.diagram.block_mut(id).update(&mut ctx);
        }
        self.values[id.index()] = outs;
    }

    /// Execute one major step: output phase over the sorted order, then
    /// update phase, then advance time — exactly the engine's contract.
    pub fn step(&mut self) {
        let due: Vec<bool> =
            (0..self.sched.len()).map(|i| self.sched[i].due(self.step_index)).collect();
        let order = self.order.clone();
        for &id in &order {
            if due[id.index()] {
                self.exec(id, true);
            }
        }
        for &id in &order {
            if due[id.index()] {
                self.exec(id, false);
            }
        }
        self.step_index += 1;
        self.t = self.step_index as f64 * self.dt;
    }

    /// Dispatch one function call into block `id` at the current time:
    /// its output, then its update. Events the block emits are not
    /// followed (the generated diagrams have no event ports).
    pub fn fire(&mut self, id: BlockId) {
        self.exec(id, true);
        self.exec(id, false);
    }

    /// Block phase executions so far (output and update of every due
    /// block, two per [`RefInterp::fire`]) — the engine's `block_evals`.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Read output port `port` of block `id` (latest computed value).
    pub fn probe(&self, id: BlockId, port: usize) -> Value {
        self.values[id.index()][port]
    }

    /// Block ids in insertion order (same order the spec built them in).
    pub fn ids(&self) -> Vec<BlockId> {
        self.diagram.ids().collect()
    }

    /// Number of output ports of block `id`.
    pub fn outputs_of(&self, id: BlockId) -> usize {
        self.diagram.block(id).ports().outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peert_model::library::discrete::UnitDelay;
    use peert_model::library::math::Gain;
    use peert_model::library::sources::Constant;

    #[test]
    fn interpreter_computes_the_dataflow() {
        let mut d = Diagram::new();
        let c = d.add("c", Constant::new(3.0)).unwrap();
        let g = d.add("g", Gain::new(2.0)).unwrap();
        d.connect((c, 0), (g, 0)).unwrap();
        let mut i = RefInterp::new(d, 1e-3).unwrap();
        i.step();
        assert_eq!(i.probe(g, 0), Value::F64(6.0));
    }

    #[test]
    fn discrete_rate_is_quantized_to_steps() {
        // period 4*dt: the delay only latches on steps 0, 4, 8…
        let mut d = Diagram::new();
        let c = d.add("c", Constant::new(1.0)).unwrap();
        let u = d.add("u", UnitDelay::new(4e-3)).unwrap();
        d.connect((c, 0), (u, 0)).unwrap();
        let mut i = RefInterp::new(d, 1e-3).unwrap();
        i.step(); // step 0: outputs initial 0, latches 1
        assert_eq!(i.probe(u, 0), Value::F64(0.0));
        for _ in 0..3 {
            i.step(); // steps 1–3: not due, holds
        }
        assert_eq!(i.probe(u, 0), Value::F64(0.0));
        i.step(); // step 4: due, outputs latched 1
        assert_eq!(i.probe(u, 0), Value::F64(1.0));
    }
}
