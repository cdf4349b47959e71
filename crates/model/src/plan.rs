//! Execution-plan tables: the layout the kernel tape is built on.
//!
//! [`crate::kernel`] walks the [`Diagram`] once and resolves everything a
//! step touches into dense tables:
//!
//! * a **value arena** layout — every output port of every block gets one
//!   slot in a single flat `Vec<Value>`;
//! * an **input-resolution table** — for each block input port, the arena
//!   slot of the driving output (or [`UNCONNECTED`]);
//! * **integer-step schedules** — discrete sample times are converted to
//!   whole numbers of fundamental steps and grouped into [`RateBucket`]s,
//!   so a sample hit is one integer compare instead of a float compare
//!   against an accumulating (and drifting) `next_hit` time;
//! * a flattened **event-target table** for function-call wires.
//!
//! The plan is immutable once built: `reset()` rewinds the engine without
//! recompiling, and a rerun from the same plan reproduces the identical
//! trajectory.

use crate::block::SampleTime;
use crate::graph::{BlockId, Diagram};

/// Sentinel arena slot for an unconnected input port.
pub const UNCONNECTED: u32 = u32::MAX;

/// Sentinel for an event port with no function-call wire attached.
pub const NO_EVENT_TARGET: u32 = u32::MAX;

/// How one block participates in the step schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sched {
    /// Continuous: runs on every major step.
    EveryStep,
    /// Discrete: runs when the rate bucket with this index is due.
    Bucket(u32),
    /// Triggered: never runs from the periodic schedule.
    Never,
}

/// One distinct discrete rate, in whole fundamental steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateBucket {
    /// Sample period in fundamental steps (≥ 1).
    pub period_steps: u64,
    /// First hit, in fundamental steps from t = 0.
    pub offset_steps: u64,
}

impl RateBucket {
    /// Whether this rate hits at major step `step_index`.
    #[inline]
    pub fn due(&self, step_index: u64) -> bool {
        step_index >= self.offset_steps
            && (step_index - self.offset_steps).is_multiple_of(self.period_steps)
    }
}

/// The compiled diagram: everything a tape step touches, laid out flat.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    /// Feedthrough-compatible execution order (block indices); triggered
    /// blocks are excluded — they only run via events.
    pub(crate) order: Vec<u32>,
    /// Per-block first slot in the value arena.
    pub(crate) out_base: Vec<u32>,
    /// Per-block output-port count (cached `ports()` metadata).
    pub(crate) out_count: Vec<u32>,
    /// Per-block first entry in `in_src`.
    pub(crate) in_base: Vec<u32>,
    /// Per-block input-port count (cached `ports()` metadata).
    pub(crate) in_count: Vec<u32>,
    /// Flattened input resolution: `in_src[in_base[b] + port]` is the arena
    /// slot feeding that port, or [`UNCONNECTED`].
    pub(crate) in_src: Vec<u32>,
    /// Per-block first entry in `ev_target`.
    pub(crate) ev_base: Vec<u32>,
    /// Per-block event-port count (cached `ports()` metadata).
    pub(crate) ev_count: Vec<u32>,
    /// Flattened event wiring: `ev_target[ev_base[b] + port]` is the
    /// triggered block fed by that event port, or [`NO_EVENT_TARGET`].
    pub(crate) ev_target: Vec<u32>,
    /// Per-block schedule (cached `sample()` metadata).
    pub(crate) sched: Vec<Sched>,
    /// Distinct discrete rates, indexed by [`Sched::Bucket`].
    pub(crate) buckets: Vec<RateBucket>,
    /// Total arena slots (sum of all output counts).
    pub(crate) arena_len: usize,
    /// Largest input-port count of any block (scratch-buffer capacity).
    pub(crate) max_inputs: usize,
    /// Largest event-port count of any block (scratch-buffer capacity).
    pub(crate) max_events: usize,
}

impl ExecutionPlan {
    /// Compile `diagram` for fundamental step `dt`, with `order` already
    /// topologically sorted by feedthrough.
    ///
    /// Discrete periods and offsets are quantized to the nearest whole
    /// number of fundamental steps (Simulink imposes the same integer-
    /// multiple constraint on sample times); a period shorter than half a
    /// step clamps to one step.
    pub(crate) fn compile(diagram: &Diagram, dt: f64, order: &[BlockId]) -> Self {
        let n = diagram.blocks.len();
        let mut out_base = Vec::with_capacity(n);
        let mut out_count = Vec::with_capacity(n);
        let mut in_base = Vec::with_capacity(n);
        let mut in_count = Vec::with_capacity(n);
        let mut ev_base = Vec::with_capacity(n);
        let mut ev_count = Vec::with_capacity(n);
        let mut sched = Vec::with_capacity(n);
        let mut buckets: Vec<RateBucket> = Vec::new();
        let mut arena_len = 0u32;
        let mut in_total = 0u32;
        let mut ev_total = 0u32;
        let mut max_inputs = 0usize;
        let mut max_events = 0usize;

        for b in &diagram.blocks {
            let ports = b.ports();
            out_base.push(arena_len);
            out_count.push(ports.outputs as u32);
            arena_len += ports.outputs as u32;
            in_base.push(in_total);
            in_count.push(ports.inputs as u32);
            in_total += ports.inputs as u32;
            ev_base.push(ev_total);
            ev_count.push(ports.events as u32);
            ev_total += ports.events as u32;
            max_inputs = max_inputs.max(ports.inputs);
            max_events = max_events.max(ports.events);

            sched.push(match b.sample() {
                SampleTime::Continuous => Sched::EveryStep,
                SampleTime::Triggered => Sched::Never,
                SampleTime::Discrete { period, offset } => {
                    let bucket = RateBucket {
                        period_steps: ((period / dt).round() as u64).max(1),
                        offset_steps: (offset / dt).round().max(0.0) as u64,
                    };
                    let id = buckets.iter().position(|&x| x == bucket).unwrap_or_else(|| {
                        buckets.push(bucket);
                        buckets.len() - 1
                    });
                    Sched::Bucket(id as u32)
                }
            });
        }

        let mut in_src = vec![UNCONNECTED; in_total as usize];
        for (&(dst, port), &(src, src_port)) in &diagram.wires {
            in_src[in_base[dst] as usize + port] = out_base[src.0] + src_port as u32;
        }
        let mut ev_target = vec![NO_EVENT_TARGET; ev_total as usize];
        for (&(src, port), &target) in &diagram.event_wires {
            ev_target[ev_base[src] as usize + port] = target.0 as u32;
        }

        ExecutionPlan {
            order: order.iter().map(|id| id.0 as u32).collect(),
            out_base,
            out_count,
            in_base,
            in_count,
            in_src,
            ev_base,
            ev_count,
            ev_target,
            sched,
            buckets,
            arena_len: arena_len as usize,
            max_inputs,
            max_events,
        }
    }

    /// Number of distinct discrete rates in the diagram.
    pub fn rate_count(&self) -> usize {
        self.buckets.len()
    }

    /// Total value-arena slots (one per output port in the diagram).
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// The compiled schedule of one block.
    pub fn sched_of(&self, id: BlockId) -> Sched {
        self.sched[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockCtx, PortCount};
    use crate::graph::Diagram;

    struct Probe {
        sample: SampleTime,
    }
    impl Block for Probe {
        fn type_name(&self) -> &'static str {
            "Probe"
        }
        fn ports(&self) -> PortCount {
            PortCount::with_events(2, 1, 1)
        }
        fn sample(&self) -> SampleTime {
            self.sample
        }
        fn output(&mut self, _ctx: &mut BlockCtx) {}
    }

    #[test]
    fn identical_rates_share_a_bucket() {
        let mut d = Diagram::new();
        let a = d.add("a", Probe { sample: SampleTime::every(0.004) }).unwrap();
        let b = d.add("b", Probe { sample: SampleTime::every(0.004) }).unwrap();
        let c = d.add("c", Probe { sample: SampleTime::every(0.007) }).unwrap();
        let order = d.sorted_order().unwrap();
        let plan = ExecutionPlan::compile(&d, 0.001, &order);
        assert_eq!(plan.rate_count(), 2);
        assert_eq!(plan.sched_of(a), plan.sched_of(b));
        assert_ne!(plan.sched_of(a), plan.sched_of(c));
        assert_eq!(plan.buckets[0], RateBucket { period_steps: 4, offset_steps: 0 });
    }

    #[test]
    fn rate_bucket_hits_by_integer_arithmetic() {
        let rb = RateBucket { period_steps: 7, offset_steps: 3 };
        let hits: Vec<u64> = (0..30).filter(|&s| rb.due(s)).collect();
        assert_eq!(hits, vec![3, 10, 17, 24]);
    }

    #[test]
    fn arena_and_input_tables_cover_every_port() {
        let mut d = Diagram::new();
        let a = d.add("a", Probe { sample: SampleTime::Continuous }).unwrap();
        let b = d.add("b", Probe { sample: SampleTime::Continuous }).unwrap();
        d.connect((a, 0), (b, 1)).unwrap();
        let order = d.sorted_order().unwrap();
        let plan = ExecutionPlan::compile(&d, 0.001, &order);
        assert_eq!(plan.arena_len(), 2, "one slot per output port");
        assert_eq!(plan.in_src.len(), 4, "two input ports per block");
        // b's port 1 resolves to a's only output slot; everything else is open
        assert_eq!(plan.in_src[plan.in_base[b.index()] as usize + 1], plan.out_base[a.index()]);
        assert_eq!(plan.in_src[plan.in_base[b.index()] as usize], UNCONNECTED);
        assert_eq!(plan.max_inputs, 2);
    }
}
