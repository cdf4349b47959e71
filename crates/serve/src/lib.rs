//! `peert-serve` — multi-tenant batched simulation service.
//!
//! The paper's workflow is one engineer running one MIL/PIL session;
//! the serving layer turns the same engine into a daemon that runs
//! many sessions for many tenants at once:
//!
//! * **admission** ([`Server::submit`]): per-tenant quotas and bounded
//!   per-shard queues. Admission never blocks — every refusal is an
//!   immediate [`Reject`] with its reason;
//! * **coalescing**: every session runs as a lane of a gang, one
//!   [`peert_model::Engine`] per gang. Runnable sessions are grouped by
//!   `Diagram::fingerprint` + lowering digest and stepped together over
//!   that engine's SoA lanes — many tenants, one compiled plan — with
//!   per-lane [`LaneOverride`] divergence for parameter sweeps and
//!   Monte-Carlo campaigns. A diagram whose tape needs a trampoline
//!   entry (a block without a kernel lowering) gets a one-lane gang of
//!   its own, stepping its own block instances. Every gang compiles
//!   through the server's plan cache, and finished lanes are dropped
//!   from a gang's engine in place;
//! * **scheduling**: shard worker threads (std `mpsc` channels, no
//!   async runtime) advance each gang one quantum of steps per round,
//!   highest priority first, so a long session can't starve the rest
//!   and cancellation latency is bounded by one quantum;
//! * **streaming** ([`Sink`]): a shard hands each session's chunks of
//!   probe values, then its `Done`, to one sink its submitter supplied:
//!   a channel behind [`SessionHandle`] for [`Server::submit`], the
//!   caller's own for [`Server::submit_with`]. Cancellation takes
//!   effect at the next quantum boundary, and a gang that panics ends
//!   its sessions `Failed` while the shard keeps serving;
//! * **observability** ([`ServeStats`]): deterministic JSON
//!   snapshot (quota/backpressure/batching counters, plan-cache
//!   hit/miss/eviction, live queue depths) mirrored as `serve.*` /
//!   `plancache.*` metrics per shard with step-latency p50/p95/p99
//!   through `peert-trace`.
//!
//! Scheduling decisions depend only on submission order, priorities
//! and quanta — never wall-clock — so a driver that pauses the server
//! ([`ServeConfig::start_paused`]), submits a schedule and resumes
//! gets bit-reproducible batching, which both the verify "serve" phase
//! and the `SERVE_SOAK` test exploit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod server;
mod session;
mod shard;
mod stats;
#[cfg(test)]
mod tests;

pub use server::{route_shard, ServeConfig, Server};
pub use session::{
    all_ports, CancelToken, LaneOverride, Reject, SessionEvent, SessionHandle, SessionOutcome,
    SessionResult, SessionSpec, Sink,
};
pub use stats::{PlanCacheStats, ServeCounters, ServeStats, ShardStats};
