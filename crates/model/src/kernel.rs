//! The kernel tape: the one step executor.
//!
//! Each block is lowered once into a [`KernelSpec`] — a monomorphized
//! `fn(&mut KernelCtx)` per block family plus its parameters, constants
//! and state layout — and the whole diagram becomes a flat tape of
//! `KInstr` entries with every operand slot, parameter window and
//! rate-bucket membership pre-resolved. A step is then a branch-light
//! sweep over the tape: no per-step `dyn Block` dispatch, no input
//! resolution walk, no scratch gather/scatter.
//!
//! A block that does not lower — a custom block, a subsystem, a sink,
//! anything with event ports, `Triggered`, or with more than one output
//! — gets a *trampoline* entry instead. It carries no kernel: the
//! [`crate::Engine`] running the tape gathers the block's inputs from the
//! arena and calls its own block instance, whose `BlockCtx` outputs are
//! the block's arena slots. Triggered blocks get trampoline entries past
//! the end of the periodic tape, which the sweep never reaches; the
//! engine dispatches them from its function-call queue. A tape without
//! trampolines takes a sweep that never checks for them.
//!
//! Three consumers sit on top of the tape:
//!
//! * [`crate::Engine`] steps one instance, trampolines included.
//! * [`BatchEngine`] steps N instances of the *same* compiled plan over
//!   structure-of-arrays lanes: the value arena, state, parameter and
//!   constant pools are replicated per lane and every tape entry loops
//!   over lanes, amortizing instruction decode across instances. Lanes
//!   have no block instances of their own, so it refuses a tape with a
//!   trampoline entry.
//! * [`PlanCache`] keys compiled artifacts by `Diagram::fingerprint()`
//!   plus a lowered-spec digest, so repeated instantiations of the same
//!   topology (verify campaigns, `reset()`-heavy workloads) reuse the
//!   tape instead of recompiling.
//!
//! Everything stays inside `#![forbid(unsafe_code)]`: slots are
//! validated at compile time and indexed with ordinary checked slices;
//! the win comes from removing dispatch and gather work, not from
//! removing bounds checks with `unsafe`.
//!
//! Bit-exactness with the blocks themselves is the contract: every
//! kernel reproduces its block's `output`/`update` arithmetic
//! operation-for-operation (same fold order, same `Value` variants), and
//! the `peert-verify` "kernel" phase plus `tests/kernel_props.rs` enforce
//! it against the reference interpreter on every port of every step of
//! generated diagrams.

use std::convert::Infallible;
use std::sync::{Arc, Mutex, OnceLock};

use crate::block::{Block, SampleTime};
use crate::graph::{BlockId, Diagram, DiagramFingerprint, Source};
use crate::log::lock;
use crate::plan::{ExecutionPlan, Sched, UNCONNECTED};
use crate::signal::Value;

// ---------------------------------------------------------------------
// Kernel context: what a lowered kernel sees at run time
// ---------------------------------------------------------------------

/// Per-instruction view handed to a kernel function.
///
/// `values` is the whole arena, slot-major (`slot * lanes + lane`);
/// `state`, `params` and `consts` are this instruction's windows only,
/// lane-contiguous (`lane * len + k`). Kernels loop over lanes
/// themselves, so one kernel body serves both the solo engine
/// (`lanes == 1`) and [`BatchEngine`].
pub(crate) struct KernelCtx<'a> {
    /// Simulation time the block observes (`step_index * dt`).
    pub(crate) t: f64,
    /// Fundamental step.
    pub(crate) dt: f64,
    lanes: usize,
    slen: usize,
    plen: usize,
    clen: usize,
    dst: usize,
    ops: &'a [u32],
    values: &'a mut [Value],
    state: &'a mut [f64],
    params: &'a [f64],
    consts: &'a [Value],
}

impl KernelCtx<'_> {
    #[inline]
    fn lanes(&self) -> usize {
        self.lanes
    }

    #[inline]
    fn inputs(&self) -> usize {
        self.ops.len()
    }

    /// Raw `Value` on input `port` for `lane` (unconnected ports read
    /// the zero slot, which holds `Value::default()`).
    #[inline]
    fn in_val(&self, port: usize, lane: usize) -> Value {
        self.values[self.ops[port] as usize * self.lanes + lane]
    }

    #[inline]
    fn in_f64(&self, port: usize, lane: usize) -> f64 {
        self.in_val(port, lane).as_f64()
    }

    #[inline]
    fn in_bool(&self, port: usize, lane: usize) -> bool {
        self.in_val(port, lane).as_bool()
    }

    /// Write this block's (single) output for `lane`.
    #[inline]
    fn set(&mut self, lane: usize, v: impl Into<Value>) {
        self.values[self.dst * self.lanes + lane] = v.into();
    }

    /// Parameter window for `lane`.
    #[inline]
    fn p(&self, lane: usize) -> &[f64] {
        &self.params[lane * self.plen..(lane + 1) * self.plen]
    }

    /// Constant `k` for `lane`.
    #[inline]
    fn cv(&self, lane: usize, k: usize) -> Value {
        self.consts[lane * self.clen + k]
    }

    /// State scalar `k` for `lane`.
    #[inline]
    fn st(&self, lane: usize, k: usize) -> f64 {
        self.state[lane * self.slen + k]
    }

    #[inline]
    fn set_st(&mut self, lane: usize, k: usize, v: f64) {
        self.state[lane * self.slen + k] = v;
    }

    /// Split borrow of (params, state) for `lane` — for kernels that
    /// read coefficients while mutating state (DiscreteTransferFcn).
    #[inline]
    fn param_state(&mut self, lane: usize) -> (&[f64], &mut [f64]) {
        (
            &self.params[lane * self.plen..(lane + 1) * self.plen],
            &mut self.state[lane * self.slen..(lane + 1) * self.slen],
        )
    }
}

/// A monomorphized kernel: one per block family and phase.
pub(crate) type KernelFn = fn(&mut KernelCtx);

// ---------------------------------------------------------------------
// Kernel bodies
// ---------------------------------------------------------------------
// Each body reproduces its block's `output`/`update` arithmetic exactly
// (fold order and all) so trajectories match the block bit for bit.

fn k_nop(_c: &mut KernelCtx) {}

/// Outport: copy the input `Value` verbatim.
fn k_copy_val(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.in_val(0, l);
        c.set(l, v);
    }
}

/// Constant (and every const-folded block): emit `consts[0]` verbatim.
fn k_const(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.cv(l, 0);
        c.set(l, v);
    }
}

fn k_step_src(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let p = c.p(l);
        let v = if c.t >= p[0] { p[2] } else { p[1] };
        c.set(l, v);
    }
}

fn k_ramp(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let p = c.p(l);
        let v = if c.t >= p[1] { p[0] * (c.t - p[1]) } else { 0.0 };
        c.set(l, v);
    }
}

fn k_sine(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let p = c.p(l);
        let v = p[0] * (std::f64::consts::TAU * p[1] * c.t + p[2]).sin() + p[3];
        c.set(l, v);
    }
}

fn k_pulse(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let p = c.p(l);
        let t = c.t - p[3];
        let v = if t >= 0.0 {
            let phase = (t / p[1]).fract();
            if phase < p[2] {
                p[0]
            } else {
                0.0
            }
        } else {
            0.0
        };
        c.set(l, v);
    }
}

fn k_gain(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.in_f64(0, l) * c.p(l)[0];
        c.set(l, v);
    }
}

fn k_sum(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        // -0.0 matches `Iterator::sum::<f64>()`'s identity, preserving the
        // sign of all-negative-zero sums bit-for-bit.
        let mut acc = -0.0;
        for i in 0..c.inputs() {
            acc += c.p(l)[i] * c.in_f64(i, l);
        }
        c.set(l, acc);
    }
}

fn k_product(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let mut acc = 1.0;
        for i in 0..c.inputs() {
            acc *= c.in_f64(i, l);
        }
        c.set(l, acc);
    }
}

fn k_max(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let mut acc = f64::NEG_INFINITY;
        for i in 0..c.inputs() {
            acc = acc.max(c.in_f64(i, l));
        }
        c.set(l, acc);
    }
}

fn k_min(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let mut acc = f64::INFINITY;
        for i in 0..c.inputs() {
            acc = acc.min(c.in_f64(i, l));
        }
        c.set(l, acc);
    }
}

fn k_abs(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.in_f64(0, l).abs();
        c.set(l, v);
    }
}

fn k_trig_sin(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.in_f64(0, l).sin();
        c.set(l, v);
    }
}

fn k_trig_cos(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.in_f64(0, l).cos();
        c.set(l, v);
    }
}

fn k_trig_atan2(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.in_f64(0, l).atan2(c.in_f64(1, l));
        c.set(l, v);
    }
}

fn k_saturation(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let p = c.p(l);
        let v = c.in_f64(0, l).clamp(p[0], p[1]);
        c.set(l, v);
    }
}

fn k_deadzone(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let w = c.p(l)[0];
        let u = c.in_f64(0, l);
        let v = if u > w {
            u - w
        } else if u < -w {
            u + w
        } else {
            0.0
        };
        c.set(l, v);
    }
}

fn k_quantizer(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let q = c.p(l)[0];
        let v = (c.in_f64(0, l) / q).round() * q;
        c.set(l, v);
    }
}

/// RateLimiter output (mutates state in the output phase, like the
/// block does).
fn k_ratelimiter(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let u = c.in_f64(0, l);
        let (rising, falling) = (c.p(l)[0], c.p(l)[1]);
        let (mut s, primed) = (c.st(l, 0), c.st(l, 1));
        if primed == 0.0 {
            s = u;
            c.set_st(l, 1, 1.0);
        } else {
            let max_up = rising * c.dt;
            let max_dn = falling * c.dt;
            let delta = (u - s).clamp(-max_dn, max_up);
            s += delta;
        }
        c.set_st(l, 0, s);
        c.set(l, s);
    }
}

/// Relay output (hysteresis state flips in the output phase).
fn k_relay(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let u = c.in_f64(0, l);
        let p0 = c.p(l)[0];
        let p1 = c.p(l)[1];
        let mut on = c.st(l, 0) != 0.0;
        if u >= p0 {
            on = true;
        } else if u <= p1 {
            on = false;
        }
        c.set_st(l, 0, f64::from(u8::from(on)));
        let v = if on { c.p(l)[2] } else { c.p(l)[3] };
        c.set(l, v);
    }
}

fn k_cmp_lt(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.in_f64(0, l) < c.in_f64(1, l);
        c.set(l, v);
    }
}

fn k_cmp_le(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.in_f64(0, l) <= c.in_f64(1, l);
        c.set(l, v);
    }
}

fn k_cmp_gt(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.in_f64(0, l) > c.in_f64(1, l);
        c.set(l, v);
    }
}

fn k_cmp_ge(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.in_f64(0, l) >= c.in_f64(1, l);
        c.set(l, v);
    }
}

#[allow(clippy::float_cmp)]
fn k_cmp_eq(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.in_f64(0, l) == c.in_f64(1, l);
        c.set(l, v);
    }
}

#[allow(clippy::float_cmp)]
fn k_cmp_ne(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.in_f64(0, l) != c.in_f64(1, l);
        c.set(l, v);
    }
}

fn k_logic_and(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = (0..c.inputs()).all(|i| c.in_bool(i, l));
        c.set(l, v);
    }
}

fn k_logic_or(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = (0..c.inputs()).any(|i| c.in_bool(i, l));
        c.set(l, v);
    }
}

fn k_logic_xor(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = (0..c.inputs()).fold(false, |acc, i| acc ^ c.in_bool(i, l));
        c.set(l, v);
    }
}

fn k_logic_not(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = !c.in_bool(0, l);
        c.set(l, v);
    }
}

/// Switch: route input 0 or 2 (the `Value` verbatim) on control input 1.
fn k_switch(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = if c.in_bool(1, l) {
            c.in_val(0, l)
        } else {
            c.in_val(2, l)
        };
        c.set(l, v);
    }
}

/// Shared output for every "emit state scalar 0" block (UnitDelay,
/// DiscreteIntegrator, Integrator, TransferFcn1).
fn k_load0(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.st(l, 0);
        c.set(l, v);
    }
}

/// UnitDelay update: latch the input.
fn k_store0(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let u = c.in_f64(0, l);
        c.set_st(l, 0, u);
    }
}

/// ZeroOrderHold output: pass the sampled input through.
fn k_zoh(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let v = c.in_f64(0, l);
        c.set(l, v);
    }
}

/// DiscreteIntegrator update: forward Euler with optional clamp.
/// Params: `[period, has_limits, lo, hi]`.
fn k_dint_upd(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let u = c.in_f64(0, l);
        let (period, has) = (c.p(l)[0], c.p(l)[1]);
        let mut s = c.st(l, 0);
        s += period * u;
        if has != 0.0 {
            s = s.clamp(c.p(l)[2], c.p(l)[3]);
        }
        c.set_st(l, 0, s);
    }
}

/// DiscreteDerivative output. Params `[period]`, state `[prev, primed]`.
fn k_dderiv_out(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let u = c.in_f64(0, l);
        let v = if c.st(l, 1) != 0.0 {
            (u - c.st(l, 0)) / c.p(l)[0]
        } else {
            0.0
        };
        c.set(l, v);
    }
}

fn k_dderiv_upd(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let u = c.in_f64(0, l);
        c.set_st(l, 0, u);
        c.set_st(l, 1, 1.0);
    }
}

/// DiscreteTransferFcn output (direct form II; mutates `w[0]` in the
/// output phase exactly like the block). Params
/// `[nn, nd, num.., den..]`, state `w`.
fn k_dtf_out(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let u = c.in_f64(0, l);
        let y;
        {
            let (p, w) = c.param_state(l);
            let nn = p[0] as usize;
            let nd = p[1] as usize;
            let mut w0 = u;
            for i in 0..nd {
                w0 -= p[2 + nn + i] * w[i + 1];
            }
            w[0] = w0;
            let mut acc = 0.0;
            for i in 0..nn {
                acc += p[2 + i] * w[i];
            }
            y = acc;
        }
        c.set(l, y);
    }
}

/// DiscreteTransferFcn update: shift the delay line.
fn k_dtf_upd(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        for k in (1..c.slen).rev() {
            let v = c.st(l, k - 1);
            c.set_st(l, k, v);
        }
    }
}

/// Continuous Integrator update: trapezoidal once primed. State
/// `[s, prev_u, have_prev]`.
fn k_integ_upd(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let u = c.in_f64(0, l);
        let slope = if c.st(l, 2) != 0.0 {
            0.5 * (u + c.st(l, 1))
        } else {
            u
        };
        let s = c.st(l, 0) + c.dt * slope;
        c.set_st(l, 0, s);
        c.set_st(l, 1, u);
        c.set_st(l, 2, 1.0);
    }
}

/// TransferFcn1 update: exact first-order discretization. Params
/// `[gain, tau]`, state `[s]`.
fn k_tf1_upd(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let u = c.in_f64(0, l);
        let p = c.p(l);
        let a = (-c.dt / p[1]).exp();
        let s = a * c.st(l, 0) + (1.0 - a) * p[0] * u;
        c.set_st(l, 0, s);
    }
}

/// Lookup1D: linear interpolation with flat extrapolation. Params
/// `[n, x.., y..]`. Replicates the block's `partition_point` index.
fn k_lookup1d(c: &mut KernelCtx) {
    for l in 0..c.lanes() {
        let u = c.in_f64(0, l);
        let p = c.p(l);
        let n = p[0] as usize;
        let (x, y) = (&p[1..1 + n], &p[1 + n..1 + 2 * n]);
        let v = if u <= x[0] {
            y[0]
        } else if u >= x[n - 1] {
            y[n - 1]
        } else {
            let i = x.partition_point(|&b| b <= u);
            let (x0, x1) = (x[i - 1], x[i]);
            y[i - 1] + (u - x0) / (x1 - x0) * (y[i] - y[i - 1])
        };
        c.set(l, v);
    }
}

// ---------------------------------------------------------------------
// KernelSpec: what a block lowers to
// ---------------------------------------------------------------------

/// A block family lowered to monomorphized kernels.
///
/// Returned by [`crate::block::Block::lower`]. Construction is
/// crate-internal: lowering is an optimization of the built-in library,
/// and external `Block` implementations simply keep the default
/// `lower() -> None`, which gives them a trampoline tape entry.
pub struct KernelSpec {
    pub(crate) out: KernelFn,
    pub(crate) upd: Option<KernelFn>,
    pub(crate) params: Vec<f64>,
    pub(crate) consts: Vec<Value>,
    pub(crate) state: Vec<f64>,
    pub(crate) state_reset: Vec<f64>,
    pub(crate) foldable: bool,
    /// A trampoline: the engine calls the block instance instead.
    pub(crate) tramp: bool,
    pub(crate) family: &'static str,
}

impl KernelSpec {
    /// A stateless output-only kernel.
    pub(crate) fn stateless(out: KernelFn, family: &'static str) -> Self {
        KernelSpec {
            out,
            upd: None,
            params: Vec::new(),
            consts: Vec::new(),
            state: Vec::new(),
            state_reset: Vec::new(),
            foldable: false,
            tramp: false,
            family,
        }
    }

    /// A trampoline entry for a block of type `type_name`. It bakes in
    /// nothing but the block's wiring and schedule, which
    /// `Diagram::fingerprint` covers, so cached tapes stay sound.
    fn trampoline(type_name: &'static str) -> Self {
        KernelSpec { tramp: true, ..Self::stateless(k_nop, type_name) }
    }

    /// Attach parameters (pre-resolved scalars the kernel reads).
    pub(crate) fn with_params(mut self, params: Vec<f64>) -> Self {
        self.params = params;
        self
    }

    /// Attach constants (raw `Value`s emitted verbatim).
    pub(crate) fn with_consts(mut self, consts: Vec<Value>) -> Self {
        self.consts = consts;
        self
    }

    /// Attach state: the block's *current* scalars and its post-`reset`
    /// scalars (they differ when a constructor and `reset` disagree,
    /// e.g. `UnitDelay::new` starts at 0 but resets to `initial`).
    pub(crate) fn with_state(mut self, now: Vec<f64>, reset: Vec<f64>) -> Self {
        self.state = now;
        self.state_reset = reset;
        self
    }

    /// Attach an update-phase kernel.
    pub(crate) fn with_update(mut self, upd: KernelFn) -> Self {
        self.upd = Some(upd);
        self
    }

    /// Mark the family const-foldable (must mirror `peert-lint`'s
    /// `FOLDABLE_BLOCKS` so the lint verify phase covers the fold).
    pub(crate) fn foldable(mut self) -> Self {
        self.foldable = true;
        self
    }
}

// Crate-internal constructors for the whole built-in library, so the
// library modules stay one-liners and the layouts live next to the
// kernels that consume them.
impl KernelSpec {
    pub(crate) fn constant(v: Value) -> Self {
        Self::stateless(k_const, "Constant").with_consts(vec![v])
    }

    pub(crate) fn step_source(time: f64, initial: f64, fin: f64) -> Self {
        Self::stateless(k_step_src, "Step").with_params(vec![time, initial, fin])
    }

    pub(crate) fn ramp(slope: f64, start: f64) -> Self {
        Self::stateless(k_ramp, "Ramp").with_params(vec![slope, start])
    }

    pub(crate) fn sine(amplitude: f64, freq_hz: f64, phase: f64, bias: f64) -> Self {
        Self::stateless(k_sine, "SineWave").with_params(vec![amplitude, freq_hz, phase, bias])
    }

    pub(crate) fn pulse(amplitude: f64, period: f64, duty: f64, delay: f64) -> Self {
        Self::stateless(k_pulse, "PulseGenerator").with_params(vec![amplitude, period, duty, delay])
    }

    pub(crate) fn gain(gain: f64) -> Self {
        Self::stateless(k_gain, "Gain").with_params(vec![gain]).foldable()
    }

    pub(crate) fn sum(signs: &[f64]) -> Self {
        Self::stateless(k_sum, "Sum").with_params(signs.to_vec()).foldable()
    }

    pub(crate) fn product() -> Self {
        Self::stateless(k_product, "Product").foldable()
    }

    pub(crate) fn minmax(is_max: bool) -> Self {
        Self::stateless(if is_max { k_max } else { k_min }, "MinMax").foldable()
    }

    pub(crate) fn abs() -> Self {
        Self::stateless(k_abs, "Abs").foldable()
    }

    pub(crate) fn trig_sin() -> Self {
        Self::stateless(k_trig_sin, "TrigFn")
    }

    pub(crate) fn trig_cos() -> Self {
        Self::stateless(k_trig_cos, "TrigFn")
    }

    pub(crate) fn trig_atan2() -> Self {
        Self::stateless(k_trig_atan2, "TrigFn")
    }

    pub(crate) fn saturation(lo: f64, hi: f64) -> Self {
        Self::stateless(k_saturation, "Saturation").with_params(vec![lo, hi]).foldable()
    }

    pub(crate) fn dead_zone(width: f64) -> Self {
        Self::stateless(k_deadzone, "DeadZone").with_params(vec![width]).foldable()
    }

    pub(crate) fn quantizer(interval: f64) -> Self {
        Self::stateless(k_quantizer, "Quantizer").with_params(vec![interval]).foldable()
    }

    pub(crate) fn rate_limiter(rising: f64, falling: f64, state: f64, primed: bool) -> Self {
        Self::stateless(k_ratelimiter, "RateLimiter")
            .with_params(vec![rising, falling])
            .with_state(vec![state, f64::from(u8::from(primed))], vec![0.0, 0.0])
    }

    pub(crate) fn relay(
        on_point: f64,
        off_point: f64,
        on_value: f64,
        off_value: f64,
        on: bool,
    ) -> Self {
        Self::stateless(k_relay, "Relay")
            .with_params(vec![on_point, off_point, on_value, off_value])
            .with_state(vec![f64::from(u8::from(on))], vec![0.0])
    }

    pub(crate) fn compare(op: crate::library::logic::CompareOp) -> Self {
        use crate::library::logic::CompareOp as Op;
        let out = match op {
            Op::Lt => k_cmp_lt,
            Op::Le => k_cmp_le,
            Op::Gt => k_cmp_gt,
            Op::Ge => k_cmp_ge,
            Op::Eq => k_cmp_eq,
            Op::Ne => k_cmp_ne,
        };
        Self::stateless(out, "Compare").foldable()
    }

    pub(crate) fn logic_gate(op: crate::library::logic::LogicOp) -> Self {
        use crate::library::logic::LogicOp as Op;
        let out = match op {
            Op::And => k_logic_and,
            Op::Or => k_logic_or,
            Op::Xor => k_logic_xor,
            Op::Not => k_logic_not,
        };
        Self::stateless(out, "LogicGate").foldable()
    }

    pub(crate) fn switch() -> Self {
        Self::stateless(k_switch, "Switch").foldable()
    }

    pub(crate) fn unit_delay(state: f64, initial: f64) -> Self {
        Self::stateless(k_load0, "UnitDelay")
            .with_update(k_store0)
            .with_state(vec![state], vec![initial])
    }

    pub(crate) fn zero_order_hold() -> Self {
        Self::stateless(k_zoh, "ZeroOrderHold")
    }

    pub(crate) fn discrete_integrator(
        period: f64,
        limits: Option<(f64, f64)>,
        state: f64,
        initial: f64,
    ) -> Self {
        let (has, lo, hi) = match limits {
            Some((lo, hi)) => (1.0, lo, hi),
            None => (0.0, 0.0, 0.0),
        };
        Self::stateless(k_load0, "DiscreteIntegrator")
            .with_update(k_dint_upd)
            .with_params(vec![period, has, lo, hi])
            .with_state(vec![state], vec![initial])
    }

    pub(crate) fn discrete_derivative(period: f64, prev: f64, primed: bool) -> Self {
        Self::stateless(k_dderiv_out, "DiscreteDerivative")
            .with_update(k_dderiv_upd)
            .with_params(vec![period])
            .with_state(vec![prev, f64::from(u8::from(primed))], vec![0.0, 0.0])
    }

    pub(crate) fn discrete_tf(num: &[f64], den: &[f64], w: &[f64]) -> Self {
        let mut params = vec![num.len() as f64, den.len() as f64];
        params.extend_from_slice(num);
        params.extend_from_slice(den);
        Self::stateless(k_dtf_out, "DiscreteTransferFcn")
            .with_update(k_dtf_upd)
            .with_params(params)
            .with_state(w.to_vec(), vec![0.0; w.len()])
    }

    pub(crate) fn integrator(state: f64, prev_u: f64, have_prev: bool, initial: f64) -> Self {
        Self::stateless(k_load0, "Integrator").with_update(k_integ_upd).with_state(
            vec![state, prev_u, f64::from(u8::from(have_prev))],
            vec![initial, 0.0, 0.0],
        )
    }

    pub(crate) fn transfer_fcn1(gain: f64, tau: f64, state: f64) -> Self {
        Self::stateless(k_load0, "TransferFcn1")
            .with_update(k_tf1_upd)
            .with_params(vec![gain, tau])
            .with_state(vec![state], vec![0.0])
    }

    pub(crate) fn lookup1d(x: &[f64], y: &[f64]) -> Self {
        let mut params = vec![x.len() as f64];
        params.extend_from_slice(x);
        params.extend_from_slice(y);
        Self::stateless(k_lookup1d, "Lookup1D").with_params(params)
    }

    pub(crate) fn inport() -> Self {
        Self::stateless(k_nop, "Inport")
    }

    pub(crate) fn outport() -> Self {
        Self::stateless(k_copy_val, "Outport")
    }

    pub(crate) fn terminator() -> Self {
        Self::stateless(k_nop, "Terminator")
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why [`BatchEngine`] refused a diagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// The block needs a trampoline entry (no kernel lowering, event
    /// ports, `Triggered`, or more than one output). A trampoline calls
    /// one block instance, and batched lanes have none of their own.
    Trampoline {
        /// The refused block's index.
        block: usize,
        /// Its name in the diagram.
        name: String,
        /// Its `type_name()`.
        type_name: String,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Trampoline { block, name, type_name } => write!(
                f,
                "block #{block} '{name}' ({type_name}) runs through a trampoline, \
                 which batched lanes cannot share"
            ),
        }
    }
}

impl std::error::Error for KernelError {}

// ---------------------------------------------------------------------
// The compiled tape
// ---------------------------------------------------------------------

/// One tape entry: a block with everything pre-resolved.
pub(crate) struct KInstr {
    pub(crate) out: KernelFn,
    pub(crate) upd: Option<KernelFn>,
    pub(crate) sched: Sched,
    /// A trampoline: the engine calls block `block`'s instance instead
    /// of `out`/`upd`.
    pub(crate) tramp: bool,
    /// The diagram block this entry runs.
    pub(crate) block: u32,
    pub(crate) dst: u32,
    pub(crate) obase: u32,
    pub(crate) n_ops: u32,
    pub(crate) sbase: u32,
    pub(crate) slen: u32,
    pub(crate) pbase: u32,
    pub(crate) plen: u32,
    pub(crate) cbase: u32,
    pub(crate) clen: u32,
    pub(crate) family: &'static str,
}

/// A diagram compiled to a flat kernel tape plus template pools.
///
/// Immutable once built; runtime mutability (values, state, per-lane
/// parameter overrides) lives in `KernelRuntime`, so one `CompiledPlan`
/// can be shared by many engines via the [`PlanCache`].
pub struct CompiledPlan {
    pub(crate) exec: ExecutionPlan,
    /// Periodic entries in topological order, then the triggered
    /// blocks' entries, which only event dispatch runs.
    pub(crate) tape: Vec<KInstr>,
    /// Length of the periodic prefix of `tape`.
    pub(crate) periodic: usize,
    /// Trampoline entries on the tape.
    pub(crate) trampolines: usize,
    pub(crate) opool: Vec<u32>,
    pub(crate) params: Vec<f64>,
    pub(crate) consts: Vec<Value>,
    pub(crate) state0: Vec<f64>,
    pub(crate) state_reset: Vec<f64>,
    pub(crate) arena_slots: usize,
    pub(crate) zero_slot: u32,
    pub(crate) single_rate: bool,
    /// Per-block tape index, `u32::MAX` when the block is not on the
    /// tape (pruned dead, or triggered-only).
    pub(crate) block_instr: Vec<u32>,
    /// Per-block: was this block const-folded into a `k_const`?
    pub(crate) folded: Vec<bool>,
    pub(crate) dt: f64,
}

impl CompiledPlan {
    /// How many tape entries the plan holds (the triggered blocks'
    /// entries included).
    pub fn tape_len(&self) -> usize {
        self.tape.len()
    }

    /// How many tape entries are trampolines into block instances.
    pub fn trampolines(&self) -> usize {
        self.trampolines
    }

    /// How many blocks were const-folded into compile-time constants.
    pub fn folded_blocks(&self) -> usize {
        self.folded.iter().filter(|&&f| f).count()
    }

    /// A deterministic byte serialization of everything structurally
    /// meaningful in the compiled artifact (families, schedules,
    /// operand slots, pools, state templates, rate buckets, `dt`).
    /// Two compilations of the same diagram must produce identical
    /// bytes — the eviction/recompilation tests byte-compare this.
    pub fn structural_bytes(&self) -> Vec<u8> {
        let mut b = Vec::new();
        let push_u32 = |b: &mut Vec<u8>, v: u32| b.extend_from_slice(&v.to_le_bytes());
        let push_u64 = |b: &mut Vec<u8>, v: u64| b.extend_from_slice(&v.to_le_bytes());
        push_u64(&mut b, self.dt.to_bits());
        push_u32(&mut b, self.arena_slots as u32);
        push_u32(&mut b, self.zero_slot);
        push_u32(&mut b, self.periodic as u32);
        b.push(u8::from(self.single_rate));
        for bucket in &self.exec.buckets {
            push_u64(&mut b, bucket.period_steps);
            push_u64(&mut b, bucket.offset_steps);
        }
        for i in &self.tape {
            b.extend_from_slice(i.family.as_bytes());
            b.push(0);
            b.push(u8::from(i.upd.is_some()));
            b.push(u8::from(i.tramp));
            push_u32(&mut b, i.block);
            match i.sched {
                Sched::EveryStep => push_u32(&mut b, u32::MAX),
                Sched::Bucket(k) => push_u32(&mut b, k),
                Sched::Never => push_u32(&mut b, u32::MAX - 1),
            }
            push_u32(&mut b, i.dst);
            for k in 0..i.n_ops {
                push_u32(&mut b, self.opool[(i.obase + k) as usize]);
            }
            for k in 0..i.plen {
                push_u64(&mut b, self.params[(i.pbase + k) as usize].to_bits());
            }
            for k in 0..i.clen {
                let (tag, bits) = value_tag_bits(self.consts[(i.cbase + k) as usize]);
                b.push(tag);
                push_u64(&mut b, bits);
            }
            for k in 0..i.slen {
                push_u64(&mut b, self.state0[(i.sbase + k) as usize].to_bits());
                push_u64(&mut b, self.state_reset[(i.sbase + k) as usize].to_bits());
            }
        }
        for (bi, f) in self.block_instr.iter().zip(&self.folded) {
            push_u32(&mut b, *bi);
            b.push(u8::from(*f));
        }
        b
    }
}

/// Canonical `(tag, payload)` of a `Value` for digesting/serialization
/// — distinguishes variants the numeric view cannot (Bool(true) vs
/// F64(1.0)).
fn value_tag_bits(v: Value) -> (u8, u64) {
    match v {
        Value::F64(x) => (0, x.to_bits()),
        Value::I32(x) => (1, u64::from(x as u32)),
        Value::I16(x) => (2, u64::from(x as u16)),
        Value::U16(x) => (3, u64::from(x)),
        Value::Bool(x) => (4, u64::from(x)),
        Value::Q15(q) => (5, u64::from(q.raw() as u16)),
    }
}

// ---------------------------------------------------------------------
// Lowering & compilation
// ---------------------------------------------------------------------

/// Lower one block to a kernel, or to a trampoline when the block has
/// no lowering or the kernel tape cannot model it (event ports,
/// `Triggered`, more than one output).
fn lower_block(b: &dyn Block) -> KernelSpec {
    let ports = b.ports();
    let kernel = if ports.events > 0
        || ports.outputs > 1
        || matches!(b.sample(), SampleTime::Triggered)
    {
        None
    } else {
        b.lower()
    };
    kernel.unwrap_or_else(|| KernelSpec::trampoline(b.type_name()))
}

/// Lower every block of `diagram` (the cheap stage — cache lookups run
/// this without paying for a full tape build).
fn lower_all(diagram: &Diagram) -> Vec<KernelSpec> {
    diagram.blocks.iter().map(|b| lower_block(b.as_ref())).collect()
}

/// The first block of `diagram` that lowered to a trampoline, as the
/// error [`BatchEngine`] refuses it with.
fn refuse_trampolines(diagram: &Diagram, specs: &[KernelSpec]) -> Result<(), KernelError> {
    match specs.iter().position(|s| s.tramp) {
        None => Ok(()),
        Some(block) => Err(KernelError::Trampoline {
            block,
            name: diagram.names[block].clone(),
            type_name: specs[block].family.to_string(),
        }),
    }
}

/// FNV-1a digest of the lowered specs plus compile options. Combined
/// with `Diagram::fingerprint()` equality this keys the [`PlanCache`]:
/// the fingerprint covers topology/wiring, the digest covers everything
/// the lowering resolved (exact parameter bits, `Value` variants the
/// fingerprint's numeric view would conflate, capture state, fold
/// mode).
fn specs_digest(specs: &[KernelSpec], dt: f64, fold: bool, prune: &[usize]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&dt.to_bits().to_le_bytes());
    eat(&[u8::from(fold)]);
    for &p in prune {
        eat(&(p as u64).to_le_bytes());
    }
    for s in specs {
        eat(s.family.as_bytes());
        eat(&[0, u8::from(s.upd.is_some()), u8::from(s.foldable), u8::from(s.tramp)]);
        for &p in &s.params {
            eat(&p.to_bits().to_le_bytes());
        }
        for &c in &s.consts {
            let (tag, bits) = value_tag_bits(c);
            eat(&[tag]);
            eat(&bits.to_le_bytes());
        }
        for &v in &s.state {
            eat(&v.to_bits().to_le_bytes());
        }
        for &v in &s.state_reset {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Compile `diagram` into a kernel tape.
///
/// `prune` lists block indices to drop from the tape entirely (the
/// lint-proved dead set); `fold` enables const-subgraph pre-evaluation.
pub(crate) fn compile(
    diagram: &Diagram,
    order: &[BlockId],
    dt: f64,
    prune: &[usize],
    fold: bool,
) -> CompiledPlan {
    build(diagram, order, dt, lower_all(diagram), prune, fold)
}

/// Assemble the tape from already-lowered specs.
fn build(
    diagram: &Diagram,
    order: &[BlockId],
    dt: f64,
    mut specs: Vec<KernelSpec>,
    prune: &[usize],
    fold: bool,
) -> CompiledPlan {
    let exec = ExecutionPlan::compile(diagram, dt, order);
    let n = specs.len();
    let zero_slot = exec.arena_len as u32;
    let single_rate = exec
        .order
        .iter()
        .all(|&b| matches!(exec.sched[b as usize], Sched::EveryStep));

    let mut folded = vec![false; n];
    if fold {
        fold_constants(&exec, &mut specs, &mut folded, prune, dt, zero_slot);
    }

    let mut tape = Vec::with_capacity(exec.order.len());
    let mut opool = Vec::new();
    let mut params = Vec::new();
    let mut consts = Vec::new();
    let mut state0 = Vec::new();
    let mut state_reset = Vec::new();
    let mut block_instr = vec![u32::MAX; n];

    // the periodic sweep in topological order, then the triggered blocks
    // (absent from `order`), which only event dispatch reaches
    let triggered = (0..n as u32).filter(|&b| exec.sched[b as usize] == Sched::Never);
    for b in exec.order.iter().copied().chain(triggered) {
        let bi = b as usize;
        if prune.contains(&bi) {
            continue;
        }
        let s = &specs[bi];
        let dst = if exec.out_count[bi] == 1 {
            exec.out_base[bi]
        } else {
            zero_slot
        };
        let obase = opool.len() as u32;
        let ib = exec.in_base[bi] as usize;
        let n_ops = exec.in_count[bi];
        for &src in &exec.in_src[ib..ib + n_ops as usize] {
            opool.push(if src == UNCONNECTED { zero_slot } else { src });
        }
        let (pbase, plen) = (params.len() as u32, s.params.len() as u32);
        params.extend_from_slice(&s.params);
        let (cbase, clen) = (consts.len() as u32, s.consts.len() as u32);
        consts.extend_from_slice(&s.consts);
        let (sbase, slen) = (state0.len() as u32, s.state.len() as u32);
        state0.extend_from_slice(&s.state);
        state_reset.extend_from_slice(&s.state_reset);
        block_instr[bi] = tape.len() as u32;
        tape.push(KInstr {
            out: s.out,
            upd: s.upd,
            sched: exec.sched[bi],
            tramp: s.tramp,
            block: b,
            dst,
            obase,
            n_ops,
            sbase,
            slen,
            pbase,
            plen,
            cbase,
            clen,
            family: s.family,
        });
    }

    let arena_slots = exec.arena_len + 1;
    let periodic = tape.iter().filter(|i| i.sched != Sched::Never).count();
    let trampolines = tape.iter().filter(|i| i.tramp).count();
    CompiledPlan {
        exec,
        tape,
        periodic,
        trampolines,
        opool,
        params,
        consts,
        state0,
        state_reset,
        arena_slots,
        zero_slot,
        single_rate,
        block_instr,
        folded,
        dt,
    }
}

/// Const-subgraph pre-evaluation: mirror `peert-lint`'s rule (Constant
/// roots; a foldable block folds when all *connected* inputs come from
/// folded blocks and at least one input is connected), evaluate each
/// folded block's kernel once at compile time, and replace its spec
/// with a `k_const` emitting the computed `Value`.
///
/// Folding is restricted to zero-offset schedules: with offsets all
/// zero every block writes its slot on step 0 in topological order, so
/// from the first step onward a folded input always equals its folded
/// constant and the replacement is bit-exact. (The foldable families
/// are all time-invariant, so evaluation at `t = 0` is general.)
fn fold_constants(
    exec: &ExecutionPlan,
    specs: &mut [KernelSpec],
    folded: &mut [bool],
    prune: &[usize],
    dt: f64,
    zero_slot: u32,
) {
    let sched_ok = |bi: usize| match exec.sched[bi] {
        Sched::EveryStep => true,
        Sched::Bucket(k) => exec.buckets[k as usize].offset_steps == 0,
        Sched::Never => false,
    };
    // Which block produces each arena slot (for walking input sources).
    let mut slot_owner = vec![usize::MAX; exec.arena_len];
    for bi in 0..specs.len() {
        for k in 0..exec.out_count[bi] {
            slot_owner[(exec.out_base[bi] + k) as usize] = bi;
        }
    }
    // Fixpoint over the topological order (one pass suffices for
    // feedthrough chains; loop in case order interleaves).
    loop {
        let mut changed = false;
        for &b in &exec.order {
            let bi = b as usize;
            if folded[bi] || prune.contains(&bi) || !sched_ok(bi) {
                continue;
            }
            let s = &specs[bi];
            let is_root = !s.tramp && s.family == "Constant";
            if !is_root && !s.foldable {
                continue;
            }
            if !is_root {
                let ib = exec.in_base[bi] as usize;
                let srcs = &exec.in_src[ib..ib + exec.in_count[bi] as usize];
                let connected: Vec<usize> = srcs
                    .iter()
                    .filter(|&&s| s != UNCONNECTED)
                    .map(|&s| slot_owner[s as usize])
                    .collect();
                if connected.is_empty()
                    || !connected.iter().all(|&src| folded[src] && !prune.contains(&src))
                {
                    continue;
                }
            }
            folded[bi] = true;
            changed = true;
        }
        if !changed {
            break;
        }
    }
    // Evaluate the folded subgraph once over a scalar arena, in
    // topological order, then rewrite specs.
    let mut arena = vec![Value::default(); exec.arena_len + 1];
    for &b in &exec.order {
        let bi = b as usize;
        if !folded[bi] {
            continue;
        }
        let (v, fam) = {
            let s = &specs[bi];
            let ib = exec.in_base[bi] as usize;
            let ops: Vec<u32> = exec.in_src[ib..ib + exec.in_count[bi] as usize]
                .iter()
                .map(|&src| if src == UNCONNECTED { zero_slot } else { src })
                .collect();
            let mut state = s.state.clone();
            let dst = exec.out_base[bi] as usize;
            let mut ctx = KernelCtx {
                t: 0.0,
                dt,
                lanes: 1,
                slen: state.len(),
                plen: s.params.len(),
                clen: s.consts.len(),
                dst,
                ops: &ops,
                values: &mut arena,
                state: &mut state,
                params: &s.params,
                consts: &s.consts,
            };
            (s.out)(&mut ctx);
            (arena[dst], s.family)
        };
        specs[bi] = KernelSpec::stateless(k_const, fam).with_consts(vec![v]);
    }
}

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

struct CacheEntry {
    digest: u64,
    fingerprint: DiagramFingerprint,
    plan: Arc<CompiledPlan>,
}

/// An LRU cache of compiled plans keyed by `Diagram::fingerprint()`
/// plus a lowered-spec digest, with hit/miss counters (exported through
/// `peert-trace` as `plancache.hit` / `plancache.miss` by the engine).
pub struct PlanCache {
    cap: usize,
    entries: Vec<CacheEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// An empty cache holding at most `cap` compiled plans.
    pub fn new(cap: usize) -> Self {
        PlanCache { cap: cap.max(1), entries: Vec::new(), hits: 0, misses: 0, evictions: 0 }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (= compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Plans evicted by the LRU policy so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up or compile the plan for `diagram`. Returns the shared
    /// plan and whether it was a cache hit. The unpruned compile path
    /// only — pruned tapes are bespoke and bypass the cache.
    pub(crate) fn get_or_compile(
        &mut self,
        diagram: &Diagram,
        order: &[BlockId],
        dt: f64,
        fold: bool,
    ) -> (Arc<CompiledPlan>, bool) {
        self.get_or_build(diagram, order, dt, fold, lower_all(diagram))
    }

    /// [`PlanCache::get_or_compile`] over already-lowered specs.
    fn get_or_build(
        &mut self,
        diagram: &Diagram,
        order: &[BlockId],
        dt: f64,
        fold: bool,
        specs: Vec<KernelSpec>,
    ) -> (Arc<CompiledPlan>, bool) {
        let digest = specs_digest(&specs, dt, fold, &[]);
        let fingerprint = diagram.fingerprint();
        if let Some(pos) = self
            .entries
            .iter()
            .position(|e| e.digest == digest && e.fingerprint == fingerprint)
        {
            let entry = self.entries.remove(pos);
            let plan = Arc::clone(&entry.plan);
            self.entries.insert(0, entry);
            self.hits += 1;
            return (plan, true);
        }
        let plan = Arc::new(build(diagram, order, dt, specs, &[], fold));
        self.misses += 1;
        self.entries.insert(0, CacheEntry { digest, fingerprint, plan: Arc::clone(&plan) });
        if self.entries.len() > self.cap {
            self.evictions += (self.entries.len() - self.cap) as u64;
            self.entries.truncate(self.cap);
        }
        (plan, false)
    }
}

/// Capacity of the process-wide plan cache.
const GLOBAL_CACHE_CAP: usize = 64;

static GLOBAL_CACHE: OnceLock<Mutex<PlanCache>> = OnceLock::new();

/// The process-wide plan cache `Engine::new` and `BatchEngine::new`
/// compile through.
pub(crate) fn global_cache() -> &'static Mutex<PlanCache> {
    GLOBAL_CACHE.get_or_init(|| Mutex::new(PlanCache::new(GLOBAL_CACHE_CAP)))
}

/// A snapshot of the process-wide plan cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Plans dropped by the LRU policy.
    pub evictions: u64,
    /// Plans currently resident.
    pub entries: usize,
}

/// Counters of the process-wide [`PlanCache`].
pub fn global_cache_stats() -> CacheStats {
    let c = lock(global_cache());
    CacheStats { hits: c.hits(), misses: c.misses(), evictions: c.evictions(), entries: c.len() }
}

/// Digest of `diagram`'s lowered kernel specs under the batch-engine
/// compilation flags (`fold` off), or `None` when any block needs a
/// trampoline entry (such diagrams cannot run in [`BatchEngine`] lanes).
///
/// Two diagrams sharing both this digest and [`Diagram::fingerprint`]
/// compile to the same [`CompiledPlan`] cache entry, so a scheduler can
/// use the digest as a cheap pre-grouping key for lane coalescing
/// without compiling anything.
pub fn lowering_digest(diagram: &Diagram, dt: f64) -> Option<u64> {
    let specs = lower_all(diagram);
    refuse_trampolines(diagram, &specs).ok()?;
    Some(specs_digest(&specs, dt, false, &[]))
}

// ---------------------------------------------------------------------
// Kernel runtime: the mutable half of a compiled plan
// ---------------------------------------------------------------------

/// Per-engine (or per-batch) mutable storage for a [`CompiledPlan`]:
/// the value arena and the state/parameter/constant pools, replicated
/// across `lanes` structure-of-arrays lanes.
///
/// Layouts: `values[slot * lanes + lane]`; the state/param/const pools
/// tile the template pools window-by-window, each window lane-
/// contiguous, so a window starting at template index `base` starts at
/// `base * lanes` at run time.
pub(crate) struct KernelRuntime {
    pub(crate) lanes: usize,
    pub(crate) values: Vec<Value>,
    state: Vec<f64>,
    params: Vec<f64>,
    consts: Vec<Value>,
}

impl KernelRuntime {
    pub(crate) fn new(plan: &CompiledPlan, lanes: usize) -> Self {
        assert!(lanes >= 1, "KernelRuntime needs at least one lane");
        let mut rt = KernelRuntime {
            lanes,
            values: vec![Value::default(); plan.arena_slots * lanes],
            state: vec![0.0; plan.state0.len() * lanes],
            params: vec![0.0; plan.params.len() * lanes],
            consts: vec![Value::default(); plan.consts.len() * lanes],
        };
        rt.load_state(plan, &plan.state0);
        rt.refresh_rom(plan);
        rt
    }

    /// Broadcast a state template (either `state0` or `state_reset`)
    /// into every lane.
    fn load_state(&mut self, plan: &CompiledPlan, template: &[f64]) {
        for i in &plan.tape {
            let (base, len) = (i.sbase as usize, i.slen as usize);
            if len == 0 {
                continue;
            }
            let window = &template[base..base + len];
            for chunk in
                self.state[base * self.lanes..(base + len) * self.lanes].chunks_exact_mut(len)
            {
                chunk.copy_from_slice(window);
            }
        }
    }

    /// (Re)broadcast the parameter/constant templates into every lane,
    /// discarding any per-lane overrides.
    pub(crate) fn refresh_rom(&mut self, plan: &CompiledPlan) {
        for i in &plan.tape {
            let (pb, pl) = (i.pbase as usize, i.plen as usize);
            if pl > 0 {
                let window = &plan.params[pb..pb + pl];
                for chunk in
                    self.params[pb * self.lanes..(pb + pl) * self.lanes].chunks_exact_mut(pl)
                {
                    chunk.copy_from_slice(window);
                }
            }
            let (cb, cl) = (i.cbase as usize, i.clen as usize);
            if cl > 0 {
                let window = &plan.consts[cb..cb + cl];
                for chunk in
                    self.consts[cb * self.lanes..(cb + cl) * self.lanes].chunks_exact_mut(cl)
                {
                    chunk.copy_from_slice(window);
                }
            }
        }
    }

    /// Reset to the post-`reset()` template: arena to defaults, state to
    /// `state_reset`. Per-lane parameter/constant overrides survive
    /// (they model per-lane configuration, not simulation state).
    pub(crate) fn reset(&mut self, plan: &CompiledPlan) {
        self.values.fill(Value::default());
        self.load_state(plan, &plan.state_reset);
    }

    /// Override parameter `index` of `block` on `lane`. Returns false
    /// when the block has no tape entry, was const-folded, or the index
    /// is out of range.
    pub(crate) fn set_param(
        &mut self,
        plan: &CompiledPlan,
        block: usize,
        index: usize,
        lane: usize,
        v: f64,
    ) -> bool {
        if lane >= self.lanes || block >= plan.block_instr.len() || plan.folded[block] {
            return false;
        }
        let ii = plan.block_instr[block];
        if ii == u32::MAX {
            return false;
        }
        let i = &plan.tape[ii as usize];
        if index >= i.plen as usize {
            return false;
        }
        self.params[i.pbase as usize * self.lanes + lane * i.plen as usize + index] = v;
        true
    }

    /// Override the emitted `Value` of a `Constant`-family block on
    /// `lane`.
    pub(crate) fn set_const(
        &mut self,
        plan: &CompiledPlan,
        block: usize,
        lane: usize,
        v: Value,
    ) -> bool {
        if lane >= self.lanes || block >= plan.block_instr.len() || plan.folded[block] {
            return false;
        }
        let ii = plan.block_instr[block];
        if ii == u32::MAX {
            return false;
        }
        let i = &plan.tape[ii as usize];
        if i.clen != 1 {
            return false;
        }
        self.consts[i.cbase as usize * self.lanes + lane] = v;
        true
    }

    /// Copy one lane out into template-layout (single-lane) pools.
    fn extract_lane(&self, plan: &CompiledPlan, lane: usize) -> LanePools {
        let mut values = Vec::with_capacity(plan.arena_slots);
        for slot in 0..plan.arena_slots {
            values.push(self.values[slot * self.lanes + lane]);
        }
        let mut state = vec![0.0; plan.state0.len()];
        let mut params = vec![0.0; plan.params.len()];
        let mut consts = vec![Value::default(); plan.consts.len()];
        for i in &plan.tape {
            let (sb, sl) = (i.sbase as usize, i.slen as usize);
            for k in 0..sl {
                state[sb + k] = self.state[sb * self.lanes + lane * sl + k];
            }
            let (pb, pl) = (i.pbase as usize, i.plen as usize);
            for k in 0..pl {
                params[pb + k] = self.params[pb * self.lanes + lane * pl + k];
            }
            let (cb, cl) = (i.cbase as usize, i.clen as usize);
            for k in 0..cl {
                consts[cb + k] = self.consts[cb * self.lanes + lane * cl + k];
            }
        }
        LanePools { values, state, params, consts }
    }

    /// Load template-layout pools into one lane (inverse of
    /// `extract_lane`).
    fn load_lane(&mut self, plan: &CompiledPlan, lane: usize, pools: &LanePools) {
        for slot in 0..plan.arena_slots {
            self.values[slot * self.lanes + lane] = pools.values[slot];
        }
        for i in &plan.tape {
            let (sb, sl) = (i.sbase as usize, i.slen as usize);
            for k in 0..sl {
                self.state[sb * self.lanes + lane * sl + k] = pools.state[sb + k];
            }
            let (pb, pl) = (i.pbase as usize, i.plen as usize);
            for k in 0..pl {
                self.params[pb * self.lanes + lane * pl + k] = pools.params[pb + k];
            }
            let (cb, cl) = (i.cbase as usize, i.clen as usize);
            for k in 0..cl {
                self.consts[cb * self.lanes + lane * cl + k] = pools.consts[cb + k];
            }
        }
    }
}

/// Template-layout (single-lane) copies of every mutable pool.
struct LanePools {
    values: Vec<Value>,
    state: Vec<f64>,
    params: Vec<f64>,
    consts: Vec<Value>,
}

/// Run one tape instruction's kernel over all lanes.
#[inline]
pub(crate) fn run_instr(
    i: &KInstr,
    f: KernelFn,
    plan: &CompiledPlan,
    rt: &mut KernelRuntime,
    t: f64,
    dt: f64,
) {
    let lanes = rt.lanes;
    let (sb, sl) = (i.sbase as usize * lanes, i.slen as usize * lanes);
    let (pb, pl) = (i.pbase as usize * lanes, i.plen as usize * lanes);
    let (cb, cl) = (i.cbase as usize * lanes, i.clen as usize * lanes);
    let ob = i.obase as usize;
    let mut ctx = KernelCtx {
        t,
        dt,
        lanes,
        slen: i.slen as usize,
        plen: i.plen as usize,
        clen: i.clen as usize,
        dst: i.dst as usize,
        ops: &plan.opool[ob..ob + i.n_ops as usize],
        values: &mut rt.values,
        state: &mut rt.state[sb..sb + sl],
        params: &rt.params[pb..pb + pl],
        consts: &rt.consts[cb..cb + cl],
    };
    f(&mut ctx);
}

/// One phase sweep over the periodic tape. Returns the number of due
/// entries (= block evaluations: due blocks count in both phases).
///
/// `tramp` runs a due trampoline entry. With `TRAMP` false the sweep
/// never checks for one, so a kernel-only tape pays nothing for them.
#[inline]
pub(crate) fn sweep<const TRAMP: bool, E>(
    plan: &CompiledPlan,
    rt: &mut KernelRuntime,
    t: f64,
    dt: f64,
    bucket_due: &[bool],
    output_phase: bool,
    mut tramp: impl FnMut(&KInstr, &mut KernelRuntime) -> Result<(), E>,
) -> Result<u64, E> {
    let mut evals = 0u64;
    for i in &plan.tape[..plan.periodic] {
        let due = plan.single_rate
            || match i.sched {
                Sched::EveryStep => true,
                Sched::Bucket(b) => bucket_due[b as usize],
                Sched::Never => false,
            };
        if !due {
            continue;
        }
        evals += 1;
        if TRAMP && i.tramp {
            tramp(i, rt)?;
        } else if output_phase {
            run_instr(i, i.out, plan, rt, t, dt);
        } else if let Some(u) = i.upd {
            run_instr(i, u, plan, rt, t, dt);
        }
    }
    Ok(evals)
}

// ---------------------------------------------------------------------
// BatchEngine: N lanes of the same compiled plan
// ---------------------------------------------------------------------

/// N instances of one compiled diagram stepping together over
/// structure-of-arrays lanes.
///
/// Every tape entry is decoded once per step and executed across all
/// lanes, amortizing dispatch and index decode — the seed of the
/// many-instances serving story (parameter sweeps, verify/fault
/// campaigns). Lanes start identical; diverge them with
/// [`BatchEngine::set_param`] / [`BatchEngine::set_const`].
///
/// Lanes share one tape and own no block instances, so every block must
/// lower to a kernel: a diagram that needs a trampoline entry fails
/// construction with a [`KernelError`] naming the block. Compiles
/// through the shared [`PlanCache`] with const-folding *off*, so
/// per-lane parameter overrides keep their targets.
pub struct BatchEngine {
    plan: Arc<CompiledPlan>,
    rt: KernelRuntime,
    dt: f64,
    t: f64,
    step_index: u64,
    bucket_due: Vec<bool>,
}

impl BatchEngine {
    /// Compile (or fetch from the global cache) and allocate `lanes`
    /// lanes. The diagram is only borrowed — the tape captures
    /// everything.
    pub fn new(diagram: &Diagram, dt: f64, lanes: usize) -> Result<Self, crate::engine::SimError> {
        Self::with_cache(diagram, dt, lanes, &mut lock(global_cache()))
    }

    /// Like [`BatchEngine::new`] but through a caller-owned cache (for
    /// deterministic hit/miss accounting in tests).
    pub fn with_cache(
        diagram: &Diagram,
        dt: f64,
        lanes: usize,
        cache: &mut PlanCache,
    ) -> Result<Self, crate::engine::SimError> {
        assert!(dt > 0.0, "dt must be positive");
        let order = diagram.sorted_order()?;
        let specs = lower_all(diagram);
        refuse_trampolines(diagram, &specs).map_err(crate::engine::SimError::Kernel)?;
        let (plan, _) = cache.get_or_build(diagram, &order, dt, false, specs);
        Ok(Self::from_plan(plan, dt, lanes))
    }

    fn from_plan(plan: Arc<CompiledPlan>, dt: f64, lanes: usize) -> Self {
        assert!(lanes >= 1, "BatchEngine needs at least one lane");
        let rt = KernelRuntime::new(&plan, lanes);
        let buckets = plan.exec.buckets.len();
        BatchEngine { plan, rt, dt, t: 0.0, step_index: 0, bucket_due: vec![false; buckets] }
    }

    /// Lanes stepping together.
    pub fn lanes(&self) -> usize {
        self.rt.lanes
    }

    /// Simulation time all lanes are at.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Major steps completed.
    pub fn steps(&self) -> u64 {
        self.step_index
    }

    /// The shared compiled plan.
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// Advance every lane one major step (output phase, then update
    /// phase — identical to [`crate::Engine::step`] semantics).
    pub fn step(&mut self) {
        let plan: &CompiledPlan = &self.plan;
        if !plan.single_rate {
            for (due, b) in self.bucket_due.iter_mut().zip(&plan.exec.buckets) {
                *due = b.due(self.step_index);
            }
        }
        let no_tramp = |_: &KInstr, _: &mut KernelRuntime| Ok::<(), Infallible>(());
        let (t, dt, due) = (self.t, self.dt, &self.bucket_due);
        let Ok(_) = sweep::<false, _>(plan, &mut self.rt, t, dt, due, true, no_tramp);
        let Ok(_) = sweep::<false, _>(plan, &mut self.rt, t, dt, due, false, no_tramp);
        self.step_index += 1;
        self.t = self.step_index as f64 * self.dt;
    }

    /// Read output `src` on `lane` (same contract as
    /// `Engine::probe`). Panics when the lane, block or port is out of
    /// range.
    pub fn probe(&self, lane: usize, src: Source) -> Value {
        let (id, port) = src;
        assert!(lane < self.rt.lanes, "lane {lane} out of range");
        let bi = id.index();
        assert!(bi < self.plan.exec.out_count.len(), "probe: block out of range");
        assert!(
            (port as u32) < self.plan.exec.out_count[bi],
            "probe: port {port} out of range for block #{bi}"
        );
        let slot = (self.plan.exec.out_base[bi] + port as u32) as usize;
        self.rt.values[slot * self.rt.lanes + lane]
    }

    /// Override parameter `index` of `block` on one lane (e.g. a `Gain`
    /// gain, a `Saturation` bound — the lowering's parameter order).
    /// Returns false if the block is not on the tape or has no such
    /// parameter.
    pub fn set_param(&mut self, lane: usize, block: BlockId, index: usize, v: f64) -> bool {
        self.rt.set_param(&self.plan, block.index(), index, lane, v)
    }

    /// Override the `Value` a `Constant` block emits on one lane.
    pub fn set_const(&mut self, lane: usize, block: BlockId, v: Value) -> bool {
        self.rt.set_const(&self.plan, block.index(), lane, v)
    }

    /// Rewind every lane to t = 0 with post-`reset()` block state.
    /// Per-lane parameter/constant overrides survive.
    pub fn reset(&mut self) {
        self.rt.reset(&self.plan);
        self.t = 0.0;
        self.step_index = 0;
        self.bucket_due.fill(false);
    }

    /// The shared compiled plan, clonable for
    /// [`BatchEngine::from_shared_plan`] (e.g. a scheduler compacting a
    /// half-dead batch into a narrower one without another cache
    /// lookup).
    pub fn shared_plan(&self) -> Arc<CompiledPlan> {
        Arc::clone(&self.plan)
    }

    /// Allocate `lanes` fresh lanes over an already-compiled plan
    /// (shared, not recompiled — `dt` comes from the plan itself).
    pub fn from_shared_plan(plan: Arc<CompiledPlan>, lanes: usize) -> Self {
        let dt = plan.dt;
        Self::from_plan(plan, dt, lanes)
    }

    /// Capture everything lane-local about `lane` — value arena slice,
    /// state, per-lane parameter/constant overrides — plus the shared
    /// step index, so the lane can be transplanted into another
    /// [`BatchEngine`] of the same plan.
    pub fn checkpoint_lane(&self, lane: usize) -> LaneCheckpoint {
        assert!(lane < self.rt.lanes, "checkpoint_lane: lane {lane} out of range");
        LaneCheckpoint { step_index: self.step_index, pools: self.rt.extract_lane(&self.plan, lane) }
    }

    /// Load a checkpoint into `lane`. Fails (returning `false`, engine
    /// untouched) when the checkpoint was taken on a different plan
    /// shape or at a different step index than this engine is at —
    /// lanes share one clock, so a transplant must be time-aligned
    /// (use [`BatchEngine::seek`] on a fresh engine first).
    pub fn restore_lane(&mut self, lane: usize, chk: &LaneCheckpoint) -> bool {
        if lane >= self.rt.lanes
            || chk.step_index != self.step_index
            || chk.pools.values.len() != self.plan.arena_slots
            || chk.pools.state.len() != self.plan.state0.len()
            || chk.pools.params.len() != self.plan.params.len()
            || chk.pools.consts.len() != self.plan.consts.len()
        {
            return false;
        }
        self.rt.load_lane(&self.plan, lane, &chk.pools);
        true
    }

    /// Fast-forward a *fresh* engine's clock to `step_index` without
    /// stepping, so checkpointed lanes can be restored time-aligned.
    /// Panics if any step has already run.
    pub fn seek(&mut self, step_index: u64) {
        assert!(self.step_index == 0, "seek: engine has already stepped");
        self.step_index = step_index;
        self.t = step_index as f64 * self.dt;
    }
}

/// One lane of a [`BatchEngine`], frozen for transplant (see
/// [`BatchEngine::checkpoint_lane`]).
pub struct LaneCheckpoint {
    step_index: u64,
    pools: LanePools,
}

impl LaneCheckpoint {
    /// The shared step index the lane was frozen at.
    pub fn step_index(&self) -> u64 {
        self.step_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockCtx, PortCount, SampleTime};
    use crate::engine::Engine;
    use crate::library::continuous::Integrator;
    use crate::library::math::{Gain, Sum};
    use crate::library::sources::{Constant, SineWave};

    /// Gain-by-3 with a non-trivial rate: period 4 ms, offset 2 ms.
    struct OffsetGain;
    impl Block for OffsetGain {
        fn type_name(&self) -> &'static str {
            "OffsetGain"
        }
        fn ports(&self) -> PortCount {
            PortCount::new(1, 1)
        }
        fn sample(&self) -> SampleTime {
            SampleTime::Discrete { period: 0.004, offset: 0.002 }
        }
        fn lower(&self) -> Option<KernelSpec> {
            Some(KernelSpec::gain(3.0))
        }
        fn output(&mut self, ctx: &mut BlockCtx) {
            let v = ctx.in_f64(0) * 3.0;
            ctx.set_output(0, v);
        }
    }

    fn offset_diagram() -> Diagram {
        let mut d = Diagram::new();
        let s = d.add("sine", SineWave::new(1.0, 25.0)).unwrap();
        let g = d.add("og", OffsetGain).unwrap();
        d.connect((s, 0), (g, 0)).unwrap();
        d
    }

    fn foldable_diagram() -> Diagram {
        let mut d = Diagram::new();
        let c1 = d.add("c1", Constant::new(2.0)).unwrap();
        let c2 = d.add("c2", Constant::new(3.0)).unwrap();
        let s = d.add("err", Sum::error()).unwrap();
        let g = d.add("g", Gain::new(1.5)).unwrap();
        let sine = d.add("sine", SineWave::new(0.5, 50.0)).unwrap();
        let mix = d.add("mix", Sum::new("++").unwrap()).unwrap();
        d.connect((c1, 0), (s, 0)).unwrap();
        d.connect((c2, 0), (s, 1)).unwrap();
        d.connect((s, 0), (g, 0)).unwrap();
        d.connect((g, 0), (mix, 0)).unwrap();
        d.connect((sine, 0), (mix, 1)).unwrap();
        d
    }

    #[test]
    fn folded_gain_emits_the_precomputed_product() {
        let mut cache = PlanCache::new(4);
        let mut e = Engine::with_cache(foldable_diagram(), 1e-3, &mut cache).unwrap();
        e.step().unwrap();
        // (2 - 3) * 1.5, computed at compile time
        let g = crate::graph::BlockId(3);
        assert_eq!(e.probe((g, 0)), Value::F64(-1.5));
    }

    #[test]
    fn structural_bytes_are_deterministic_across_compiles() {
        let d1 = foldable_diagram();
        let d2 = foldable_diagram();
        let o1 = d1.sorted_order().unwrap();
        let o2 = d2.sorted_order().unwrap();
        let p1 = compile(&d1, &o1, 1e-3, &[], true);
        let p2 = compile(&d2, &o2, 1e-3, &[], true);
        assert_eq!(p1.structural_bytes(), p2.structural_bytes());
        // folding changes the tape bytes (same wiring, different consts)
        let p3 = compile(&d1, &o1, 1e-3, &[], false);
        assert_ne!(p1.structural_bytes(), p3.structural_bytes());
    }

    #[test]
    fn digest_distinguishes_value_variants_behind_equal_fingerprints() {
        // Constant params() renders as_f64(), so Bool(true) and F64(1.0)
        // fingerprint identically — only the spec digest tells them apart.
        let mut bool_d = Diagram::new();
        bool_d.add("c", Constant { value: Value::Bool(true) }).unwrap();
        let mut f64_d = Diagram::new();
        f64_d.add("c", Constant { value: Value::F64(1.0) }).unwrap();
        assert!(bool_d.fingerprint() == f64_d.fingerprint());

        let mut cache = PlanCache::new(4);
        let e_bool = Engine::with_cache(bool_d, 1e-3, &mut cache).unwrap();
        let e_f64 = Engine::with_cache(f64_d, 1e-3, &mut cache).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2), "false sharing across variants");
        let c = crate::graph::BlockId(0);
        let mut e_bool = e_bool;
        let mut e_f64 = e_f64;
        e_bool.step().unwrap();
        e_f64.step().unwrap();
        assert_eq!(e_bool.probe((c, 0)), Value::Bool(true));
        assert_eq!(e_f64.probe((c, 0)), Value::F64(1.0));
    }

    #[test]
    fn runtime_param_overrides_respect_tape_layout() {
        let d = foldable_diagram();
        let order = d.sorted_order().unwrap();
        // fold on: the gain was folded away, so its params are gone
        let folded_plan = compile(&d, &order, 1e-3, &[], true);
        let mut rt = KernelRuntime::new(&folded_plan, 1);
        assert!(!rt.set_param(&folded_plan, 3, 0, 0, 9.0), "folded block has no live params");
        // fold off: the gain keeps its parameter window
        let live_plan = compile(&d, &order, 1e-3, &[], false);
        let mut rt = KernelRuntime::new(&live_plan, 1);
        assert!(rt.set_param(&live_plan, 3, 0, 0, 9.0));
        assert!(!rt.set_param(&live_plan, 3, 7, 0, 9.0), "index past the window");
        assert!(!rt.set_param(&live_plan, 99, 0, 0, 9.0), "block out of range");
        assert!(!rt.set_const(&live_plan, 3, 0, Value::F64(1.0)), "gain is not a Constant");
        assert!(rt.set_const(&live_plan, 0, 0, Value::F64(8.0)));
    }

    #[test]
    fn lane_checkpoint_transplants_bit_exact() {
        // divergent lanes, stateful diagram (integrator), transplant
        // lane 2 into a narrow engine mid-run: trajectories must match
        // the untouched wide engine bit-for-bit
        let mut d = Diagram::new();
        let s = d.add("sine", SineWave::new(1.0, 25.0)).unwrap();
        let g = d.add("g", Gain::new(1.0)).unwrap();
        let i = d.add("int", Integrator::new(0.0)).unwrap();
        d.connect((s, 0), (g, 0)).unwrap();
        d.connect((g, 0), (i, 0)).unwrap();

        let mut cache = PlanCache::new(4);
        let mut wide = BatchEngine::with_cache(&d, 1e-3, 4, &mut cache).unwrap();
        for lane in 0..4 {
            assert!(wide.set_param(lane, g, 0, 1.0 + lane as f64 * 0.5));
        }
        for _ in 0..10 {
            wide.step();
        }

        let chk = wide.checkpoint_lane(2);
        assert_eq!(chk.step_index(), 10);
        let mut narrow = BatchEngine::from_shared_plan(wide.shared_plan(), 1);
        narrow.seek(10);
        assert!(narrow.restore_lane(0, &chk));
        assert_eq!(narrow.steps(), 10);

        for _ in 0..30 {
            wide.step();
            narrow.step();
            for &src in &[(s, 0), (g, 0), (i, 0)] {
                let (a, b) = (wide.probe(2, src), narrow.probe(0, src));
                assert_eq!(a.as_f64().to_bits(), b.as_f64().to_bits(), "{src:?}");
            }
        }
    }

    #[test]
    fn restore_lane_rejects_misaligned_clock_and_shape() {
        let d = offset_diagram();
        let mut cache = PlanCache::new(4);
        let mut e = BatchEngine::with_cache(&d, 1e-3, 2, &mut cache).unwrap();
        e.step();
        let chk = e.checkpoint_lane(0);
        // same engine, same clock: fine
        assert!(e.restore_lane(1, &chk));
        // lane out of range
        assert!(!e.restore_lane(2, &chk));
        // clock mismatch
        e.step();
        assert!(!e.restore_lane(1, &chk));
        // different plan shape
        let other = foldable_diagram();
        let mut o = BatchEngine::with_cache(&other, 1e-3, 2, &mut cache).unwrap();
        o.step();
        assert!(!o.restore_lane(0, &chk));
    }

    #[test]
    fn plan_cache_counts_evictions() {
        let mut cache = PlanCache::new(1);
        let _ = BatchEngine::with_cache(&offset_diagram(), 1e-3, 1, &mut cache).unwrap();
        assert_eq!((cache.misses(), cache.evictions()), (1, 0));
        let _ = BatchEngine::with_cache(&foldable_diagram(), 1e-3, 1, &mut cache).unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 1);
        // the survivor still hits
        let _ = BatchEngine::with_cache(&foldable_diagram(), 1e-3, 1, &mut cache).unwrap();
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn lowering_digest_is_some_iff_compilable() {
        struct Opaque;
        impl Block for Opaque {
            fn type_name(&self) -> &'static str {
                "Opaque"
            }
            fn ports(&self) -> PortCount {
                PortCount::new(0, 1)
            }
            fn output(&mut self, ctx: &mut BlockCtx) {
                ctx.set_output(0, 1.0);
            }
        }
        assert!(lowering_digest(&foldable_diagram(), 1e-3).is_some());
        let mut d = Diagram::new();
        d.add("opaque", Opaque).unwrap();
        assert!(lowering_digest(&d, 1e-3).is_none());
    }
}
