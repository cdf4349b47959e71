//! Block-diagram modeling and simulation engine — the reproduction's
//! Matlab/Simulink (§3).
//!
//! "Matlab Simulink ... allows engineers to develop a control application
//! algorithm in the high level graphical language of data-flow and
//! state-flow diagrams." This crate provides that substrate:
//!
//! * typed scalar **signals** ([`signal`]) including the fixed-point types
//!   the 16-bit target needs;
//! * a **block** abstraction ([`block`]) with the Simulink execution
//!   contract: an *output* phase (compute outputs from inputs and state)
//!   and an *update* phase (advance discrete state), plus direct-feedthrough
//!   declarations so the scheduler can order blocks and detect algebraic
//!   loops;
//! * a **block library** ([`library`]) of sources, sinks, math, discrete,
//!   continuous, nonlinear and logic blocks;
//! * **state charts** ([`chart`]) standing in for Stateflow — the paper's
//!   §5 uses them for "asynchronous change of a Stateflow chart state" and
//!   the case study's manual/automatic mode logic;
//! * **subsystems** ([`subsystem`]), both periodic and *function-call
//!   triggered* — the mechanism PE blocks use to run event-driven code when
//!   a peripheral interrupt fires ("The events are represented as
//!   function-call ports in the PE blocks", §5);
//! * a **diagram graph** ([`graph`]) with topological sorting and algebraic
//!   loop detection, and **execution-plan tables** ([`plan`]): a flat value
//!   arena, dense input-resolution tables and integer-step rate buckets;
//! * the **kernel tape** ([`kernel`]): the plan lowered into a flat tape
//!   of monomorphized kernels (no per-step dispatch), with trampoline
//!   entries for blocks that do not lower, cached by diagram
//!   fingerprint, and one parameter domain per kernel family shared by
//!   the block constructors and per-lane overrides;
//! * a fixed-step **engine** ([`engine`]), the one type that steps the
//!   tape: the closed-loop single model (plant + controller, §5) in MIL
//!   simulation with an allocation-free step loop, over a lane count
//!   fixed at construction — one lane with the diagram's block
//!   instances, or N structure-of-arrays lanes of a kernel-only tape
//!   stepping together;
//! * **signal logging** ([`log`]) — the Scope data every experiment
//!   post-processes.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod block;
pub mod chart;
pub mod engine;
pub mod graph;
pub mod kernel;
pub mod library;
pub mod log;
pub mod plan;
pub mod signal;
pub mod spec;
pub mod subsystem;

pub use block::{Block, BlockCtx, PortCount, SampleTime};
pub use engine::{Backend, Engine, ProbeError, SimError};
pub use kernel::{
    global_cache_stats, lowering_digest, CacheStats, CompiledPlan, KernelError, PlanCache,
};
pub use graph::{BlockFingerprint, BlockId, Diagram, DiagramFingerprint, GraphError};
pub use log::{lock, SignalLog};
pub use plan::ExecutionPlan;
pub use signal::{DataType, Value};
