//! Fixed-step simulation engine.
//!
//! Executes a [`Diagram`] with Simulink's two-phase fixed-step semantics:
//! per major step, all due blocks run their *output* method in
//! feedthrough-compatible order, function-call events fire their triggered
//! subsystems immediately, then all due blocks run their *update* method.
//! This is the "Model in the Loop" vehicle of the development cycle (§2, §6)
//! — the closed-loop single model of plant and controller runs here before
//! any code is generated.
//!
//! [`Engine::new`] compiles the diagram into a kernel tape
//! ([`crate::kernel::CompiledPlan`]) once and steps nothing else. Library
//! blocks run as fused kernels; a block without a lowering (a custom
//! block, a subsystem, a sink, anything with event ports or more than one
//! output) gets a *trampoline* entry that calls this engine's own block
//! instance. After warm-up the step loop performs no heap allocation: a
//! trampoline gathers its inputs into one reused buffer, outputs land in
//! the tape's flat value arena, and discrete sample hits are integer
//! comparisons against precomputed rate buckets.
//!
//! The lane count is fixed when the engine is built. [`Engine::new`]
//! steps one instance; [`Engine::with_lanes`] steps N instances of the
//! same tape over structure-of-arrays lanes, each tape entry decoded
//! once per step and run across every lane. Lanes diverge through
//! [`Engine::set_param`] and [`Engine::set_const`], read through
//! [`Engine::probe_lane`], and drop out in place through
//! [`Engine::retain_lanes`].

use std::collections::VecDeque;
use std::sync::Arc;

use crate::block::{Block, BlockCtx};
use crate::graph::{BlockId, Diagram, GraphError, Source};
use crate::kernel::{global_cache, CompiledPlan, KInstr, KernelRuntime, PlanCache};
use crate::plan::{ExecutionPlan, NO_EVENT_TARGET};
use crate::signal::Value;
use peert_trace::{ClockDomain, EventId, Tracer};

/// Simulation errors.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The diagram failed to sort (bad wiring / algebraic loop).
    Graph(GraphError),
    /// A single step dispatched more triggered executions than the safety
    /// cap — an event livelock (a triggered subsystem re-triggering itself).
    EventStorm {
        /// The step's time.
        t: f64,
    },
    /// [`Engine::with_lanes`] refused a diagram whose tape needs a
    /// trampoline entry: a trampoline calls the engine's one instance of
    /// the block, which lanes cannot share. Only a request for more than
    /// one lane returns this.
    Kernel(crate::kernel::KernelError),
    /// The fundamental step is not a finite positive number of seconds.
    InvalidStep {
        /// The refused step.
        dt: f64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Graph(g) => write!(f, "{g}"),
            SimError::EventStorm { t } => write!(f, "event livelock at t={t}"),
            SimError::Kernel(k) => write!(f, "{k}"),
            SimError::InvalidStep { dt } => {
                write!(f, "fundamental step {dt} s is not finite and positive")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<GraphError> for SimError {
    fn from(e: GraphError) -> Self {
        SimError::Graph(e)
    }
}

/// Refuse a fundamental step that is not finite and positive: an
/// infinite one would reach the kernels as `0 · inf = NaN` bounds.
fn check_step(dt: f64) -> Result<(), SimError> {
    if dt.is_finite() && dt > 0.0 {
        Ok(())
    } else {
        Err(SimError::InvalidStep { dt })
    }
}

/// Safety cap on triggered dispatches within one major step.
const EVENT_CAP: usize = 10_000;

/// Which step backend an [`Engine`] runs on.
///
/// There is one: every engine steps its kernel tape. The enum stays
/// because the repository benchmark records [`Engine::backend`] in its
/// output (`"servo": "Compiled"`), and that record's format is fixed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The fused-kernel tape ([`crate::kernel`]): monomorphized kernels
    /// over a flat arena, with trampoline entries for blocks that do not
    /// lower. Bit-exact with `peert-verify`'s reference interpreter (the
    /// verify "mil" and "kernel" phases are the proof).
    Compiled,
}

/// Error from [`Engine::try_probe`]: the probed source does not exist.
#[derive(Clone, Debug, PartialEq)]
pub enum ProbeError {
    /// The block index is past the end of the diagram.
    BlockOutOfRange {
        /// Offending block index.
        block: usize,
        /// Number of blocks in the diagram.
        len: usize,
    },
    /// The block exists but has no such output port.
    PortOutOfRange {
        /// Name of the probed block.
        block: String,
        /// Number of output ports the block has.
        outputs: usize,
        /// The port index asked for.
        port: usize,
    },
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::BlockOutOfRange { block, len } => {
                write!(f, "probe: block #{block} out of range (diagram has {len} blocks)")
            }
            ProbeError::PortOutOfRange { block, outputs, port } => {
                write!(
                    f,
                    "probe: block '{block}' has {outputs} output port(s), asked for port {port}"
                )
            }
        }
    }
}

impl std::error::Error for ProbeError {}

/// Registered trace event ids for the engine's instrumentation points
/// (present iff [`Engine::enable_trace`] was called).
struct EngineTraceIds {
    step: EventId,
    output: EventId,
    update: EventId,
    /// One instant id per discrete rate bucket, fired on each hit.
    buckets: Vec<EventId>,
    evals: EventId,
    trig: EventId,
}

/// The engine's side of trampoline entries and function-call events:
/// reusable buffers, the dispatch queue and the eval counters. Kept
/// apart from the tape, the runtime and the block instances so a sweep
/// can borrow all four at once.
struct Dispatch {
    /// Reusable input buffer for the trampoline entry being run.
    inputs: Vec<Value>,
    /// Event ports the last trampoline output phase asserted.
    events: Vec<usize>,
    /// Persistent function-call dispatch queue.
    queue: VecDeque<u32>,
    triggered_execs: u64,
    /// Total block phase executions (output + update + triggered).
    block_evals: u64,
}

impl Dispatch {
    /// Run one phase of trampoline entry `i` on the engine's own block
    /// instance: inputs gathered from the arena through the operand pool
    /// (unconnected ports read the zero slot), outputs written straight
    /// into the block's `out_base` slots. Events asserted in the output
    /// phase are left in `events` for [`Dispatch::enqueue_emitted`];
    /// update-phase events are dropped (function calls fire at output
    /// time, as in Simulink).
    #[allow(clippy::too_many_arguments)]
    fn call(
        &mut self,
        plan: &CompiledPlan,
        rt: &mut KernelRuntime,
        blocks: &mut [Box<dyn Block>],
        i: &KInstr,
        t: f64,
        dt: f64,
        output_phase: bool,
    ) {
        let ob = i.obase as usize;
        self.inputs.clear();
        for &slot in &plan.opool[ob..ob + i.n_ops as usize] {
            self.inputs.push(rt.values[slot as usize]);
        }
        let b = i.block as usize;
        let base = plan.exec.out_base[b] as usize;
        let outputs = &mut rt.values[base..base + plan.exec.out_count[b] as usize];
        self.events.clear();
        let mut ctx = BlockCtx::new(t, dt, &self.inputs, outputs, &mut self.events);
        if output_phase {
            blocks[b].output(&mut ctx);
        } else {
            blocks[b].update(&mut ctx);
            self.events.clear();
        }
    }

    /// Run one phase of any tape entry, kernel or trampoline.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        plan: &CompiledPlan,
        rt: &mut KernelRuntime,
        blocks: &mut [Box<dyn Block>],
        i: &KInstr,
        t: f64,
        dt: f64,
        output_phase: bool,
    ) {
        if i.tramp {
            self.call(plan, rt, blocks, i, t, dt, output_phase);
        } else if output_phase {
            crate::kernel::run_instr(i, i.out, plan, rt, t, dt);
        } else if let Some(u) = i.upd {
            crate::kernel::run_instr(i, u, plan, rt, t, dt);
        }
    }

    /// Enqueue the targets of the events block `b` just asserted.
    fn enqueue_emitted(&mut self, plan: &CompiledPlan, b: usize) {
        let ev_base = plan.exec.ev_base[b] as usize;
        for &port in &self.events {
            debug_assert!(
                port < plan.exec.ev_count[b] as usize,
                "block #{b} emitted on event port {port} but declares only {} event port(s)",
                plan.exec.ev_count[b]
            );
            let target = plan.exec.ev_target[ev_base + port];
            if target != NO_EVENT_TARGET {
                self.queue.push_back(target);
            }
        }
        self.events.clear();
    }

    /// Dispatch queued function calls in FIFO order: each runs its
    /// target's output (enqueueing what that emits), then its update.
    fn drain(
        &mut self,
        plan: &CompiledPlan,
        rt: &mut KernelRuntime,
        blocks: &mut [Box<dyn Block>],
        t: f64,
        dt: f64,
    ) -> Result<(), SimError> {
        let mut dispatched = 0usize;
        while let Some(target) = self.queue.pop_front() {
            dispatched += 1;
            if dispatched > EVENT_CAP {
                self.queue.clear();
                return Err(SimError::EventStorm { t });
            }
            self.triggered_execs += 1;
            self.block_evals += 2;
            let ii = plan.block_instr[target as usize];
            if ii == u32::MAX {
                continue; // pruned off the tape
            }
            let i = &plan.tape[ii as usize];
            self.run(plan, rt, blocks, i, t, dt, true);
            self.enqueue_emitted(plan, target as usize);
            self.run(plan, rt, blocks, i, t, dt, false);
        }
        Ok(())
    }
}

/// The fixed-step engine: one compiled tape stepped over a fixed number
/// of lanes, with the diagram's block instances for trampoline entries.
pub struct Engine {
    diagram: Diagram,
    /// The compiled tape, shared through the plan cache.
    tape: Arc<CompiledPlan>,
    /// The lanes' value arena and state/parameter/constant pools.
    rt: KernelRuntime,
    cache_hit: bool,
    dt: f64,
    t: f64,
    step_index: u64,
    /// Per-bucket due flag, refreshed once per major step.
    bucket_due: Vec<bool>,
    dispatch: Dispatch,
    tracer: Tracer,
    trace_ids: Option<EngineTraceIds>,
}

impl Engine {
    /// Build an engine over `diagram` with fundamental step `dt` seconds.
    ///
    /// Compiles through the process-wide [`crate::kernel::PlanCache`],
    /// keyed by [`Diagram::fingerprint`] plus the lowered specs. The tape
    /// caches the blocks' `ports()` and `sample()` metadata and every
    /// lowered block's parameters, so a structural or parameter change
    /// needs a new engine. A `dt` that is not finite and positive is
    /// refused with [`SimError::InvalidStep`], here and in every other
    /// constructor.
    pub fn new(diagram: Diagram, dt: f64) -> Result<Self, SimError> {
        Self::with_cache(diagram, dt, &mut crate::lock(global_cache()))
    }

    /// [`Engine::new`] compiling through a caller-owned
    /// [`crate::kernel::PlanCache`] instead of the process-wide one —
    /// differential harnesses use this to assert exact hit/miss counts.
    pub fn with_cache(diagram: Diagram, dt: f64, cache: &mut PlanCache) -> Result<Self, SimError> {
        Self::cached(diagram, dt, 1, true, cache)
    }

    /// Build an engine stepping `lanes` instances of `diagram` together
    /// over structure-of-arrays lanes. The lanes start identical;
    /// diverge them with [`Engine::set_param`] and [`Engine::set_const`].
    ///
    /// Compiles with const-folding off, so every parameter keeps its
    /// tape target, through `cache` or, given `None`, the process-wide
    /// cache. Lanes share the engine's one instance of each block, so
    /// with more than one lane a diagram whose tape needs a trampoline
    /// entry is refused with a [`SimError::Kernel`] naming the block.
    pub fn with_lanes(
        diagram: Diagram,
        dt: f64,
        lanes: usize,
        cache: Option<&mut PlanCache>,
    ) -> Result<Self, SimError> {
        assert!(lanes >= 1, "an engine steps at least one lane");
        match cache {
            Some(cache) => Self::cached(diagram, dt, lanes, false, cache),
            None => Self::cached(diagram, dt, lanes, false, &mut crate::lock(global_cache())),
        }
    }

    /// Compile through `cache` (refusing trampolines unless `lanes` is
    /// 1) and allocate the lanes.
    fn cached(
        diagram: Diagram,
        dt: f64,
        lanes: usize,
        fold: bool,
        cache: &mut PlanCache,
    ) -> Result<Self, SimError> {
        check_step(dt)?;
        let order = diagram.sorted_order()?;
        let (tape, cache_hit) = cache
            .get_or_compile(&diagram, &order, dt, fold, lanes == 1)
            .map_err(SimError::Kernel)?;
        Ok(Self::from_tape(diagram, dt, tape, cache_hit, lanes))
    }

    /// Build an engine whose tape omits the blocks listed in `dead`
    /// (indices into the diagram) — the hook `peert-lint`'s dead-block
    /// removal proof drives. Bypasses the plan cache (pruned tapes are
    /// diagram-specific).
    pub fn compiled_pruned(diagram: Diagram, dt: f64, dead: &[usize]) -> Result<Self, SimError> {
        check_step(dt)?;
        let order = diagram.sorted_order()?;
        let tape = crate::kernel::compile(&diagram, &order, dt, dead, true);
        Ok(Self::from_tape(diagram, dt, Arc::new(tape), false, 1))
    }

    fn from_tape(
        diagram: Diagram,
        dt: f64,
        tape: Arc<CompiledPlan>,
        cache_hit: bool,
        lanes: usize,
    ) -> Self {
        debug_assert!(lanes == 1 || tape.trampolines == 0, "trampolines need a lane of their own");
        let rt = KernelRuntime::new(&tape, lanes);
        let dispatch = Dispatch {
            inputs: Vec::with_capacity(tape.exec.max_inputs),
            events: Vec::with_capacity(tape.exec.max_events),
            queue: VecDeque::with_capacity(16),
            triggered_execs: 0,
            block_evals: 0,
        };
        Engine {
            diagram,
            bucket_due: vec![false; tape.exec.buckets.len()],
            tape,
            rt,
            cache_hit,
            dt,
            t: 0.0,
            step_index: 0,
            dispatch,
            tracer: Tracer::disabled(),
            trace_ids: None,
        }
    }

    /// Enable step-loop tracing with a ring of `capacity` records, stamped
    /// in wall-clock nanoseconds: one `engine.step` span per major step
    /// enclosing `engine.output_phase` / `engine.update_phase` spans, one
    /// instant per discrete-rate-bucket hit, and running
    /// `engine.block_evals` / `engine.triggered_execs` counters. Call with
    /// 0 to disable again.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Tracer::new(capacity, ClockDomain::WallNanos);
        self.trace_ids = Some(EngineTraceIds {
            step: self.tracer.register("engine.step"),
            output: self.tracer.register("engine.output_phase"),
            update: self.tracer.register("engine.update_phase"),
            buckets: self
                .tape
                .exec
                .buckets
                .iter()
                .map(|b| {
                    self.tracer
                        .register(&format!("rate.p{}o{}", b.period_steps, b.offset_steps))
                })
                .collect(),
            evals: self.tracer.register("engine.block_evals"),
            trig: self.tracer.register("engine.triggered_execs"),
        });
        // Construction-time fact, exported once: whether this engine's
        // tape came from the cache.
        let hit = self.tracer.register("plancache.hit");
        let miss = self.tracer.register("plancache.miss");
        self.tracer.set(hit, self.cache_hit as u64);
        self.tracer.set(miss, !self.cache_hit as u64);
    }

    /// The engine's tracer (disabled unless [`Engine::enable_trace`] was
    /// called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Total block phase executions (output + update + triggered) since
    /// construction or [`Engine::reset`].
    pub fn block_evals(&self) -> u64 {
        self.dispatch.block_evals
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Fundamental step.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of major steps taken.
    pub fn steps(&self) -> u64 {
        self.step_index
    }

    /// Lanes stepping together.
    pub fn lanes(&self) -> usize {
        self.rt.lanes
    }

    /// Total triggered-subsystem executions dispatched.
    pub fn triggered_execs(&self) -> u64 {
        self.dispatch.triggered_execs
    }

    /// The tape's execution plan: arena layout, input resolution and
    /// rate buckets.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.tape.exec
    }

    /// Which backend steps this engine (always [`Backend::Compiled`]).
    pub fn backend(&self) -> Backend {
        Backend::Compiled
    }

    /// Whether this engine's tape came out of the plan cache (false on a
    /// cold compile or a pruned tape).
    pub fn plan_cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// The compiled tape.
    pub fn compiled_plan(&self) -> &CompiledPlan {
        &self.tape
    }

    /// The diagram (to inspect blocks, e.g. read a Scope).
    pub fn diagram(&self) -> &Diagram {
        &self.diagram
    }

    /// Read the last value of output `src` on lane 0.
    ///
    /// Panics with a descriptive message if the block or port does not
    /// exist — a probe of a mis-built harness should fail loudly, not
    /// index arbitrary memory.
    pub fn probe(&self, src: Source) -> Value {
        self.probe_lane(0, src)
    }

    /// Read the last value of output `src` on `lane`. Panics like
    /// [`Engine::probe`], and when the lane is out of range.
    #[inline]
    pub fn probe_lane(&self, lane: usize, src: Source) -> Value {
        let lanes = self.rt.lanes;
        assert!(lane < lanes, "probe: lane {lane} out of range ({lanes} lanes)");
        let slot = self.slot(src).unwrap_or_else(|e| panic!("{e}"));
        self.rt.values[slot * lanes + lane]
    }

    /// Non-panicking variant of [`Engine::probe`]: returns a
    /// [`ProbeError`] instead of panicking when the block or port does
    /// not exist, so differential harnesses can report bad probes as
    /// ordinary failures.
    pub fn try_probe(&self, src: Source) -> Result<Value, ProbeError> {
        Ok(self.rt.values[self.slot(src)? * self.rt.lanes])
    }

    /// The arena slot of output `src`.
    #[inline]
    fn slot(&self, (id, port): Source) -> Result<usize, ProbeError> {
        let b = id.index();
        let exec = &self.tape.exec;
        if b >= exec.out_count.len() {
            return Err(ProbeError::BlockOutOfRange { block: b, len: exec.out_count.len() });
        }
        let outputs = exec.out_count[b] as usize;
        if port >= outputs {
            return Err(ProbeError::PortOutOfRange {
                block: self.diagram.names[b].clone(),
                outputs,
                port,
            });
        }
        Ok(exec.out_base[b] as usize + port)
    }

    /// Override parameter `index` of `block` on one lane (e.g. a `Gain`
    /// gain, a `Saturation` bound — the lowering's parameter order).
    ///
    /// Refused, with the lane left as it was, when the lane is out of
    /// range, the block has no live tape entry (const-folded by
    /// [`Engine::new`], pruned, out of range), the index is past the
    /// block's window or fixes its layout (a transfer function's
    /// lengths, an integrator's has-limits flag), or the value is
    /// outside the family's domain, which its constructor checks too.
    /// The error names the refused value.
    pub fn set_param(
        &mut self,
        lane: usize,
        block: BlockId,
        index: usize,
        v: f64,
    ) -> Result<(), String> {
        self.rt.set_param(&self.tape, block.index(), index, lane, v)
    }

    /// Override the `Value` a `Constant` block emits on one lane.
    pub fn set_const(&mut self, lane: usize, block: BlockId, v: Value) -> Result<(), String> {
        self.rt.set_const(&self.tape, block.index(), lane, v)
    }

    /// Keep the lanes whose `keep` flag is set and drop the rest, in
    /// place: the survivors keep their order, state and overrides and
    /// step on bit for bit, now numbered `0..` in that order. Panics
    /// unless `keep` has one flag per lane and at least one is set.
    pub fn retain_lanes(&mut self, keep: &[bool]) {
        self.rt.retain_lanes(&self.tape, keep);
    }

    /// Inject an external function-call event into a triggered block —
    /// used by co-simulation harnesses that map hardware interrupts onto
    /// model events. Runs the target's output, then its update, at the
    /// current time; events the target emits cascade as in a step.
    pub fn fire(&mut self, target: BlockId) -> Result<(), SimError> {
        self.dispatch.queue.push_back(target.index() as u32);
        self.dispatch.drain(&self.tape, &mut self.rt, &mut self.diagram.blocks, self.t, self.dt)
    }

    /// One phase sweep over the tape. A tape without trampoline entries
    /// takes the kernel-only sweep, which never looks at the flag.
    fn sweep(&mut self, output_phase: bool) -> Result<u64, SimError> {
        let plan: &CompiledPlan = &self.tape;
        let (t, dt) = (self.t, self.dt);
        if plan.trampolines == 0 {
            return crate::kernel::sweep::<false, _>(
                plan,
                &mut self.rt,
                t,
                dt,
                &self.bucket_due,
                output_phase,
                |_, _| Ok(()),
            );
        }
        let (blocks, d) = (&mut self.diagram.blocks, &mut self.dispatch);
        crate::kernel::sweep::<true, _>(
            plan,
            &mut self.rt,
            t,
            dt,
            &self.bucket_due,
            output_phase,
            |i, rt| {
                d.call(plan, rt, blocks, i, t, dt, output_phase);
                if !d.events.is_empty() {
                    // dispatch right after the emitting entry, before the
                    // next one runs
                    d.enqueue_emitted(plan, i.block as usize);
                    d.drain(plan, rt, blocks, t, dt)?;
                }
                Ok(())
            },
        )
    }

    /// Execute one major step: refresh the rate flags, sweep the tape
    /// twice (output then update).
    pub fn step(&mut self) -> Result<(), SimError> {
        // One predictable branch when tracing is off (the <2 % overhead
        // budget of the disabled path rides on this being the only cost).
        let tracing = self.tracer.is_enabled();
        if tracing {
            let ts = self.tracer.now();
            if let Some(ids) = &self.trace_ids {
                self.tracer.begin(ids.step, ts);
            }
        }
        for (flag, bucket) in self.bucket_due.iter_mut().zip(&self.tape.exec.buckets) {
            *flag = bucket.due(self.step_index);
        }
        if tracing {
            if let Some(ids) = &self.trace_ids {
                let ts = self.tracer.now();
                for (b, &due) in self.bucket_due.iter().enumerate() {
                    if due {
                        self.tracer.instant(ids.buckets[b], ts);
                    }
                }
                self.tracer.begin(ids.output, ts);
            }
        }
        let mut evals = self.sweep(true)?;
        if tracing {
            if let Some(ids) = &self.trace_ids {
                let ts = self.tracer.now();
                self.tracer.end(ids.output, ts);
                self.tracer.begin(ids.update, ts);
            }
        }
        evals += self.sweep(false)?;
        self.dispatch.block_evals += evals;
        self.step_index += 1;
        self.t = self.step_index as f64 * self.dt;
        if tracing {
            if let Some(ids) = &self.trace_ids {
                let ts = self.tracer.now();
                self.tracer.end(ids.update, ts);
                self.tracer.set(ids.evals, self.dispatch.block_evals);
                self.tracer.set(ids.trig, self.dispatch.triggered_execs);
                self.tracer.end(ids.step, ts);
            }
        }
        Ok(())
    }

    /// Run until `t_end` (exclusive of a final partial step).
    pub fn run_until(&mut self, t_end: f64) -> Result<(), SimError> {
        while self.t < t_end - self.dt * 1e-9 {
            self.step()?;
        }
        Ok(())
    }

    /// Reset time, state and logs for a fresh run. The tape is reused
    /// as-is — no cache lookup, no recompilation: scheduling derives from
    /// the immutable rate buckets, the runtime reloads its initial state
    /// pool and every block instance resets, so a rerun reproduces the
    /// identical trajectory. Per-lane overrides survive.
    pub fn reset(&mut self) {
        self.t = 0.0;
        self.step_index = 0;
        self.dispatch.triggered_execs = 0;
        self.dispatch.block_evals = 0;
        self.dispatch.queue.clear();
        for b in &mut self.diagram.blocks {
            b.reset();
        }
        self.rt.reset(&self.tape);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, PortCount, SampleTime};

    /// Counts its executions; optionally emits event 0 each output.
    struct Counter {
        period: Option<f64>,
        count: u64,
        emit: bool,
    }
    impl Block for Counter {
        fn type_name(&self) -> &'static str {
            "Counter"
        }
        fn ports(&self) -> PortCount {
            PortCount::with_events(0, 1, 1)
        }
        fn sample(&self) -> SampleTime {
            match self.period {
                Some(p) => SampleTime::every(p),
                None => SampleTime::Continuous,
            }
        }
        fn reset(&mut self) {
            self.count = 0;
        }
        fn output(&mut self, ctx: &mut BlockCtx) {
            self.count += 1;
            ctx.set_output(0, self.count as f64);
            if self.emit {
                ctx.emit_event(0);
            }
        }
    }

    /// Counter with an explicit sample time (offset tests).
    struct Sampled {
        sample: SampleTime,
        count: u64,
    }
    impl Block for Sampled {
        fn type_name(&self) -> &'static str {
            "Sampled"
        }
        fn ports(&self) -> PortCount {
            PortCount::new(0, 1)
        }
        fn sample(&self) -> SampleTime {
            self.sample
        }
        fn reset(&mut self) {
            self.count = 0;
        }
        fn output(&mut self, ctx: &mut BlockCtx) {
            self.count += 1;
            ctx.set_output(0, self.count as f64);
        }
    }

    /// Triggered sink recording how often it ran.
    struct TrigSink {
        runs: u64,
    }
    impl Block for TrigSink {
        fn type_name(&self) -> &'static str {
            "TrigSink"
        }
        fn ports(&self) -> PortCount {
            PortCount::new(1, 1)
        }
        fn sample(&self) -> SampleTime {
            SampleTime::Triggered
        }
        fn reset(&mut self) {
            self.runs = 0;
        }
        fn output(&mut self, ctx: &mut BlockCtx) {
            self.runs += 1;
            let v = ctx.input(0);
            ctx.set_output(0, v);
        }
    }

    #[test]
    fn continuous_blocks_run_every_step() {
        let mut d = Diagram::new();
        let c = d.add("c", Counter { period: None, count: 0, emit: false }).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.run_until(0.01).unwrap();
        assert_eq!(e.steps(), 10);
        assert_eq!(e.probe((c, 0)).as_f64(), 10.0);
    }

    #[test]
    fn discrete_blocks_run_at_their_rate() {
        let mut d = Diagram::new();
        let c = d.add("c", Counter { period: Some(0.005), count: 0, emit: false }).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.run_until(0.02).unwrap();
        // hits at t = 0, 5, 10, 15 ms
        assert_eq!(e.probe((c, 0)).as_f64(), 4.0);
    }

    #[test]
    fn events_run_triggered_blocks_immediately() {
        let mut d = Diagram::new();
        let src = d.add("src", Counter { period: Some(0.004), count: 0, emit: true }).unwrap();
        let snk = d.add("snk", TrigSink { runs: 0 }).unwrap();
        d.connect((src, 0), (snk, 0)).unwrap();
        d.connect_event(src, 0, snk).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.run_until(0.012).unwrap(); // source hits at 0, 4, 8 ms
        assert_eq!(e.probe((snk, 0)).as_f64(), 3.0, "sink saw the value at trigger time");
        assert_eq!(e.triggered_execs(), 3);
    }

    #[test]
    fn triggered_blocks_do_not_run_periodically() {
        let mut d = Diagram::new();
        let snk = d.add("snk", TrigSink { runs: 0 }).unwrap();
        let _ = snk;
        let mut e = Engine::new(d, 0.001).unwrap();
        e.run_until(0.01).unwrap();
        assert_eq!(e.triggered_execs(), 0);
    }

    #[test]
    fn fire_injects_an_external_event() {
        let mut d = Diagram::new();
        let snk = d.add("snk", TrigSink { runs: 0 }).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.fire(snk).unwrap();
        e.fire(snk).unwrap();
        assert_eq!(e.triggered_execs(), 2);
    }

    #[test]
    fn reset_restores_initial_conditions() {
        let mut d = Diagram::new();
        let c = d.add("c", Counter { period: None, count: 0, emit: false }).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.run_until(0.005).unwrap();
        e.reset();
        assert_eq!(e.time(), 0.0);
        e.run_until(0.003).unwrap();
        assert_eq!(e.probe((c, 0)).as_f64(), 3.0);
    }

    #[test]
    fn self_triggering_loop_is_caught() {
        struct SelfTrig;
        impl Block for SelfTrig {
            fn type_name(&self) -> &'static str {
                "SelfTrig"
            }
            fn ports(&self) -> PortCount {
                PortCount::with_events(0, 0, 1)
            }
            fn sample(&self) -> SampleTime {
                SampleTime::Triggered
            }
            fn output(&mut self, ctx: &mut BlockCtx) {
                ctx.emit_event(0);
            }
        }
        let mut d = Diagram::new();
        let a = d.add("a", SelfTrig).unwrap();
        d.connect_event(a, 0, a).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        assert!(matches!(e.fire(a), Err(SimError::EventStorm { .. })));
    }

    #[test]
    #[should_panic(expected = "probe: block")]
    fn probe_of_a_missing_port_panics_with_context() {
        let mut d = Diagram::new();
        let c = d.add("c", Counter { period: None, count: 0, emit: false }).unwrap();
        let e = Engine::new(d, 0.001).unwrap();
        let _ = e.probe((c, 7));
    }

    #[test]
    fn try_probe_reports_bad_sources_as_errors() {
        let mut d = Diagram::new();
        let c = d.add("c", Counter { period: None, count: 0, emit: false }).unwrap();
        let e = Engine::new(d, 0.001).unwrap();
        assert!(e.try_probe((c, 0)).is_ok());
        match e.try_probe((c, 7)) {
            Err(ProbeError::PortOutOfRange { block, outputs, port }) => {
                assert_eq!(block, "c");
                assert_eq!(outputs, 1);
                assert_eq!(port, 7);
            }
            other => panic!("expected PortOutOfRange, got {other:?}"),
        }
        // the Display text is the contract `probe` panics with
        let msg = e.try_probe((c, 7)).unwrap_err().to_string();
        assert_eq!(msg, "probe: block 'c' has 1 output port(s), asked for port 7");
    }

    #[test]
    fn million_step_multirate_hit_counts_are_exact() {
        // periods 1, 4, 7 ms with non-zero offsets over 10^6 steps of 1 ms:
        // the integer schedule must hit exactly, with no float drift
        let mut d = Diagram::new();
        let a = d
            .add("a", Sampled { sample: SampleTime::every(0.001), count: 0 })
            .unwrap();
        let b = d
            .add("b", Sampled { sample: SampleTime::Discrete { period: 0.004, offset: 0.002 }, count: 0 })
            .unwrap();
        let c = d
            .add("c", Sampled { sample: SampleTime::Discrete { period: 0.007, offset: 0.003 }, count: 0 })
            .unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        const N: u64 = 1_000_000;
        for _ in 0..N {
            e.step().unwrap();
        }
        // hits at step s: s >= offset && (s - offset) % period == 0, s < N
        assert_eq!(e.probe((a, 0)).as_f64(), 1_000_000.0);
        assert_eq!(e.probe((b, 0)).as_f64(), 250_000.0, "(10^6 - 2 + 3) / 4 hits");
        assert_eq!(e.probe((c, 0)).as_f64(), 142_857.0, "(10^6 - 3 + 6) / 7 hits");
        assert_eq!(e.plan().rate_count(), 3);
    }

    #[test]
    fn trace_spans_nest_and_counters_track_evals() {
        let mut d = Diagram::new();
        let _a = d.add("a", Counter { period: None, count: 0, emit: false }).unwrap();
        let _b = d.add("b", Counter { period: Some(0.004), count: 0, emit: false }).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.enable_trace(1 << 10);
        for _ in 0..8 {
            e.step().unwrap();
        }
        assert!(e.tracer().is_enabled());
        // a: 8 output + 8 update; b: 2 hits (t=0, 4 ms) × 2 phases
        assert_eq!(e.block_evals(), 16 + 4);
        assert_eq!(e.tracer().counter_by_name("engine.block_evals"), Some(20));
        let json = peert_trace::chrome_trace_json(&[("mil", e.tracer())]);
        let doc = peert_trace::JsonValue::parse(&json).unwrap();
        let events = doc.as_array().unwrap();
        let mut depth = 0i64;
        for ev in events {
            match ev.get("ph").and_then(|p| p.as_str()).unwrap() {
                "B" => depth += 1,
                "E" => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0, "balanced spans");
        // the 4 ms rate bucket fired its instant on both hits
        let rate_hits = events
            .iter()
            .filter(|ev| {
                ev.get("ph").and_then(|p| p.as_str()) == Some("i")
                    && ev.get("name").and_then(|n| n.as_str()).is_some_and(|n| n.starts_with("rate."))
            })
            .count();
        assert_eq!(rate_hits, 2);
    }

    #[test]
    fn disabled_trace_leaves_no_records_and_reset_clears_evals() {
        let mut d = Diagram::new();
        let _ = d.add("a", Counter { period: None, count: 0, emit: false }).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        e.step().unwrap();
        assert!(!e.tracer().is_enabled());
        assert!(e.tracer().is_empty());
        assert_eq!(e.block_evals(), 2);
        e.reset();
        assert_eq!(e.block_evals(), 0);
    }

    #[test]
    fn reset_and_rerun_reproduce_the_identical_trajectory() {
        let mut d = Diagram::new();
        let src = d.add("src", Counter { period: Some(0.003), count: 0, emit: true }).unwrap();
        let snk = d.add("snk", TrigSink { runs: 0 }).unwrap();
        let fast = d.add("fast", Counter { period: None, count: 0, emit: false }).unwrap();
        d.connect((src, 0), (snk, 0)).unwrap();
        d.connect_event(src, 0, snk).unwrap();
        let mut e = Engine::new(d, 0.001).unwrap();
        let record = |e: &mut Engine| -> Vec<(f64, f64, f64)> {
            (0..500)
                .map(|_| {
                    e.step().unwrap();
                    (e.probe((src, 0)).as_f64(), e.probe((snk, 0)).as_f64(), e.probe((fast, 0)).as_f64())
                })
                .collect()
        };
        let first = record(&mut e);
        let execs = e.triggered_execs();
        e.reset();
        let second = record(&mut e);
        assert_eq!(first, second, "reused plan reproduces the trajectory exactly");
        assert_eq!(e.triggered_execs(), execs);
    }

    /// A step that is infinite, NaN, zero or negative is refused by every
    /// constructor. At an infinite step a zero-rate RateLimiter used to be
    /// accepted and then panic in its slew clamp (`0 · inf = NaN`).
    #[test]
    fn a_non_finite_or_non_positive_step_is_refused_at_construction() {
        use crate::library::nonlinear::RateLimiter;
        use crate::library::sources::Constant;
        let diagram = || {
            let mut d = Diagram::new();
            let c = d.add("c", Constant::new(1.0)).unwrap();
            let r = d.add("r", RateLimiter::new(0.0).unwrap()).unwrap();
            d.connect((c, 0), (r, 0)).unwrap();
            d
        };
        for dt in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let refused = |e: Result<Engine, SimError>| {
                matches!(e, Err(SimError::InvalidStep { dt: got }) if got.to_bits() == dt.to_bits())
            };
            assert!(refused(Engine::new(diagram(), dt)), "new at {dt}");
            let mut cache = PlanCache::new(4);
            assert!(refused(Engine::with_cache(diagram(), dt, &mut cache)), "with_cache at {dt}");
            assert!(refused(Engine::with_lanes(diagram(), dt, 2, None)), "with_lanes at {dt}");
            assert!(refused(Engine::compiled_pruned(diagram(), dt, &[])), "pruned at {dt}");
        }
        let mut e = Engine::new(diagram(), 1e-3).unwrap();
        e.run_until(0.01).unwrap();
    }
}
