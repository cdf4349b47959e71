//! Session-facing types: what a client submits, what it gets back.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use peert_model::graph::Source;
use peert_model::{Diagram, Value};

use crate::server::QuotaSlot;

/// Everything the service needs to run one simulation session.
///
/// The diagram is consumed: ownership moves into the daemon, which uses
/// it as the compilation key (fingerprint + lowering digest) for lane
/// coalescing. Per-lane divergence — parameter sweeps, Monte-Carlo
/// campaigns — goes through [`LaneOverride`]s so divergent sessions
/// still share one compiled plan.
pub struct SessionSpec {
    /// Tenant the session is accounted to (quota key).
    pub tenant: String,
    /// The model to simulate.
    pub diagram: Diagram,
    /// Fundamental step in seconds.
    pub dt: f64,
    /// Step budget: the session completes after recording this many
    /// steps (unless cancelled first).
    pub steps: u64,
    /// Output ports streamed back per step, in this order.
    pub probes: Vec<Source>,
    /// Per-session parameter/constant divergence, applied to this
    /// session's lane after the shared plan is instantiated.
    pub overrides: Vec<LaneOverride>,
    /// Scheduling priority; higher runs sooner within a shard. A
    /// client-side deadline maps onto this (nearest deadline ⇒ highest
    /// priority) — the daemon itself never consults wall-clock time,
    /// which keeps scheduling decisions reproducible.
    pub priority: u8,
    /// Optional wall-clock completion budget. Admission predicts the
    /// session's run time from the routed shard's measured p99
    /// step latency and rejects with [`Reject::DeadlineInfeasible`]
    /// *before* any compute is spent if the prediction exceeds the
    /// budget. Only admission consults it — scheduling stays
    /// wall-clock-free, so admitted sessions remain deterministic.
    pub deadline_budget: Option<Duration>,
}

impl SessionSpec {
    /// A spec with no probes, no overrides and default priority.
    pub fn new(tenant: impl Into<String>, diagram: Diagram, dt: f64, steps: u64) -> Self {
        SessionSpec {
            tenant: tenant.into(),
            diagram,
            dt,
            steps,
            probes: Vec::new(),
            overrides: Vec::new(),
            priority: 0,
            deadline_budget: None,
        }
    }

    /// Stream every output port of every block, in diagram order.
    pub fn probe_all(mut self) -> Self {
        self.probes = all_ports(&self.diagram);
        self
    }

    /// Add one probe.
    pub fn probe(mut self, src: Source) -> Self {
        self.probes.push(src);
        self
    }

    /// Set the scheduling priority.
    pub fn priority(mut self, p: u8) -> Self {
        self.priority = p;
        self
    }

    /// Add a per-lane override.
    pub fn with_override(mut self, o: LaneOverride) -> Self {
        self.overrides.push(o);
        self
    }

    /// Set a wall-clock completion budget for deadline admission.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline_budget = Some(budget);
        self
    }
}

/// Every output port of every block of `diagram`, in diagram order.
pub fn all_ports(diagram: &Diagram) -> Vec<Source> {
    let mut out = Vec::new();
    for id in diagram.ids() {
        for port in 0..diagram.block(id).ports().outputs {
            out.push((id, port));
        }
    }
    out
}

/// One per-lane divergence applied to a session's lane of the shared
/// plan (the [`peert_model::Engine::set_param`] /
/// [`peert_model::Engine::set_const`] surface). An override the engine
/// refuses — a value outside the block family's domain, a parameter
/// that fixes the block's layout, a target not on the tape — ends the
/// session [`SessionOutcome::Failed`] with the engine's reason, which
/// names the refused value.
#[derive(Clone, Debug)]
pub enum LaneOverride {
    /// Override parameter `index` of `block` (lowering parameter
    /// order, e.g. a `Gain`'s gain is parameter 0).
    Param {
        /// Target block.
        block: peert_model::BlockId,
        /// Parameter index within the block's lowered window.
        index: usize,
        /// New value for this lane.
        value: f64,
    },
    /// Override the `Value` a `Constant`-family block emits.
    Const {
        /// Target block.
        block: peert_model::BlockId,
        /// New value for this lane.
        value: Value,
    },
}

/// Why the admission controller refused a submission. Admission never
/// blocks: every refusal is immediate and carries its reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reject {
    /// The tenant already holds its full quota of unreaped sessions.
    QuotaExceeded {
        /// Tenant that hit the limit.
        tenant: String,
        /// Sessions currently held (admitted, handle not yet dropped).
        active: usize,
        /// The per-tenant limit.
        quota: usize,
    },
    /// The target shard's bounded queue is full.
    Backpressure {
        /// Shard the session routed to.
        shard: usize,
        /// The queue capacity that was exhausted.
        cap: usize,
    },
    /// The spec itself is unusable (zero budget, bad dt, cyclic
    /// diagram, out-of-range probe, …).
    Invalid(String),
    /// Overrides require a diagram that lowers fully, but this one has a
    /// trampoline entry (it runs in a one-lane gang of its own, whose
    /// overrides are not offered).
    OverridesUnsupported(String),
    /// The session cannot finish inside its wall-clock deadline
    /// budget: `steps × p99(step latency)` on the routed shard already
    /// exceeds the budget, so running it would only burn compute.
    DeadlineInfeasible {
        /// The budget the client asked for, in nanoseconds.
        budget_ns: u64,
        /// Predicted run time (`steps × p99_step_ns`), in nanoseconds.
        predicted_ns: u64,
        /// The measured p99 step latency the prediction used, in
        /// nanoseconds (rounded up, floored at 1).
        p99_step_ns: u64,
    },
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::QuotaExceeded { tenant, active, quota } => {
                write!(f, "tenant {tenant:?} quota exceeded ({active}/{quota} unreaped sessions)")
            }
            Reject::Backpressure { shard, cap } => {
                write!(f, "shard {shard} queue full (cap {cap})")
            }
            Reject::Invalid(r) => write!(f, "invalid session spec: {r}"),
            Reject::OverridesUnsupported(r) => write!(f, "overrides unsupported: {r}"),
            Reject::DeadlineInfeasible { budget_ns, predicted_ns, p99_step_ns } => write!(
                f,
                "deadline infeasible: predicted {predicted_ns} ns \
                 (p99 step {p99_step_ns} ns) exceeds budget {budget_ns} ns"
            ),
            Reject::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

/// How a session ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Ran its full step budget.
    Completed,
    /// Cancelled by the client; trailing steps were never simulated.
    Cancelled,
    /// The daemon could not run it (an override the engine refused,
    /// an engine error, …).
    Failed(String),
}

/// One message on a session's result stream.
#[derive(Clone, Debug)]
pub enum SessionEvent {
    /// Probe values for steps `start_step ..`, probe-major per step
    /// (`probes.len()` values per step, steps concatenated).
    Chunk {
        /// First step covered by `values`.
        start_step: u64,
        /// `probes.len() × n_steps` values.
        values: Vec<Value>,
    },
    /// Terminal event; nothing follows.
    Done {
        /// How the session ended.
        outcome: SessionOutcome,
        /// Steps recorded over the whole session.
        steps: u64,
    },
}

/// Everything a finished session produced, assembled from its stream.
#[derive(Clone, Debug)]
pub struct SessionResult {
    /// How the session ended.
    pub outcome: SessionOutcome,
    /// Steps recorded.
    pub steps: u64,
    /// Concatenated probe values (probe-major per step).
    pub trajectory: Vec<Value>,
}

/// Where a shard delivers one session's events: each `Chunk` in step
/// order, then `Done`, after which the shard drops it. Called on the
/// shard's thread with no server lock held, so it may take locks of its
/// own (or block, stalling the shard).
pub type Sink = Box<dyn FnMut(SessionEvent) + Send>;

/// A session's cancellation flag, shared by its submitter and its
/// shard. Cloneable and cheap; cancelling is idempotent and takes
/// effect at the next quantum boundary, exactly like
/// [`SessionHandle::cancel`].
#[derive(Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Ask the daemon to stop the session at the next quantum boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Client-side handle: the result stream plus cancellation. Dropping
/// (or consuming via [`SessionHandle::join`]) releases the tenant's
/// quota slot — quota counts *unreaped* sessions, which keeps
/// over-quota rejection deterministic under test schedules.
pub struct SessionHandle {
    pub(crate) id: u64,
    pub(crate) events: Receiver<SessionEvent>,
    pub(crate) cancel: CancelToken,
    pub(crate) slot: QuotaSlot,
}

impl SessionHandle {
    /// Server-assigned session id (unique per server).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Tenant the session is accounted to.
    pub fn tenant(&self) -> &str {
        &self.slot.tenant
    }

    /// Ask the daemon to stop the session at the next quantum
    /// boundary. Idempotent; racing a natural completion is benign
    /// (the session then reports `Completed`).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Next stream event (blocking).
    pub fn next_event(&self) -> Option<SessionEvent> {
        self.events.recv().ok()
    }

    /// Drain the stream to completion, assembling the full result. A
    /// stream that ends without `Done` reads `Failed`.
    pub fn join(self) -> SessionResult {
        // a timeout past the clock's range waits like a plain receive
        self.join_deadline(Duration::MAX).unwrap_or_else(|why| SessionResult {
            outcome: SessionOutcome::Failed(why),
            steps: 0,
            trajectory: Vec::new(),
        })
    }

    /// Like [`SessionHandle::join`] but bounded per event: if the
    /// stream stalls longer than `timeout` between events, returns
    /// `Err` with whatever arrived (wedge detection for tests).
    pub fn join_deadline(self, timeout: Duration) -> Result<SessionResult, String> {
        let mut trajectory = Vec::new();
        loop {
            match self.events.recv_timeout(timeout) {
                Ok(SessionEvent::Chunk { values, .. }) => trajectory.extend(values),
                Ok(SessionEvent::Done { outcome, steps }) => {
                    return Ok(SessionResult { outcome, steps, trajectory })
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!(
                        "session {} wedged: no event within {timeout:?}",
                        self.id
                    ))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("session {} stream dropped", self.id))
                }
            }
        }
    }
}

/// The daemon-side half of an admitted session.
pub(crate) struct SessionTask {
    pub(crate) seq: u64,
    pub(crate) diagram: Option<Diagram>,
    pub(crate) dt: f64,
    pub(crate) budget: u64,
    pub(crate) probes: Vec<Source>,
    pub(crate) overrides: Vec<LaneOverride>,
    pub(crate) priority: u8,
    pub(crate) digest: Option<u64>,
    pub(crate) fingerprint: peert_model::DiagramFingerprint,
    pub(crate) cancel: CancelToken,
    /// Taken (and dropped) with `Done`.
    pub(crate) sink: Option<Sink>,
    /// The quota slot when no [`SessionHandle`] holds it, dropped just
    /// before `Done`.
    pub(crate) slot: Option<QuotaSlot>,
}
