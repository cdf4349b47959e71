//! Service observability: a JSON snapshot plus a `peert-trace`
//! metrics mirror with per-shard counter naming.

use peert_trace::{json_struct, HistSummary, LogHistogram, MetricsReport, ToJson};

json_struct! {
    /// Whole-service monotonic counters. Everything in here is a pure
    /// function of the admission/schedule history — no wall-clock — so a
    /// deterministic schedule (the soak test) can predict the final value
    /// exactly. JSON members follow declaration order, so the rendering is
    /// deterministic too.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct ServeCounters {
        /// Submissions attempted (accepted + rejected).
        pub submitted: u64,
        /// Sessions admitted past quota and backpressure.
        pub accepted: u64,
        /// Rejections: tenant quota exhausted.
        pub rejected_quota: u64,
        /// Rejections: shard queue full.
        pub rejected_backpressure: u64,
        /// Rejections: unusable spec or unsupported overrides.
        pub rejected_invalid: u64,
        /// Rejections: predicted run time exceeded the deadline budget.
        pub rejected_deadline: u64,
        /// Sessions that ran their full step budget.
        pub completed: u64,
        /// Sessions cancelled by their client.
        pub cancelled: u64,
        /// Sessions the daemon could not run.
        pub failed: u64,
        /// Steps recorded by *completed* sessions (Σ of their budgets).
        pub steps_completed: u64,
        /// Gangs formed (one engine each, one-lane gangs included).
        pub batches: u64,
        /// Session lanes that shared a batch with at least one other
        /// session (the coalescing win).
        pub coalesced_lanes: u64,
        /// Sessions whose diagram has a trampoline entry, so they ran in
        /// a one-lane gang of their own.
        pub solo_sessions: u64,
    }
}

json_struct! {
    /// The server-owned [`peert_model::PlanCache`] counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct PlanCacheStats {
        /// Lookups served from the cache.
        pub hits: u64,
        /// Lookups that had to compile.
        pub misses: u64,
        /// Plans dropped by the LRU policy.
        pub evictions: u64,
        /// Plans currently resident.
        pub resident: usize,
    }
}

json_struct! {
    /// One shard's view: sessions it ran, batches it formed, its live
    /// queue depth, its slice of plan-cache traffic, and its step-latency
    /// distribution.
    #[derive(Clone, Debug, Default)]
    pub struct ShardStats {
        /// Shard index.
        pub shard: usize,
        /// Session lanes started on this shard.
        pub sessions: u64,
        /// Gangs this shard formed.
        pub batches: u64,
        /// Gangs narrowed in place after enough lanes finished.
        pub compactions: u64,
        /// One-lane gangs of diagrams with trampoline entries this shard
        /// ran.
        pub solo_sessions: u64,
        /// Plan-cache hits attributable to this shard's lookups.
        pub cache_hits: u64,
        /// Plan-cache misses (compiles) attributable to this shard.
        pub cache_misses: u64,
        /// Messages waiting in the shard's bounded queue right now.
        pub queue_depth: usize,
        /// Wall-clock nanoseconds to advance one scheduled gang by one
        /// step (p50/p95/p99 in ns).
        pub step_ns: HistSummary,
    }
}

json_struct! {
    /// Full service snapshot: counters + plan cache + per-shard stats.
    #[derive(Clone, Debug, Default)]
    pub struct ServeStats {
        /// Whole-service monotonic counters.
        pub counters: ServeCounters,
        /// Plan-cache traffic.
        pub plan_cache: PlanCacheStats,
        /// Per-shard breakdown.
        pub shards: Vec<ShardStats>,
    }
}

impl ServeStats {
    /// Deterministic JSON rendering (field order = declaration order).
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Mirror the snapshot as `serve.*` / `plancache.*` metrics, one
    /// name-spaced set per shard plus service-wide rollups — the same
    /// report shape the engine/PIL layers export through `peert-trace`.
    pub fn metrics_report(&self) -> MetricsReport {
        let mut m = MetricsReport::new();
        let c = &self.counters;
        m.add_counter("serve.sessions", c.accepted);
        m.add_counter(
            "serve.rejected",
            c.rejected_quota + c.rejected_backpressure + c.rejected_invalid + c.rejected_deadline,
        );
        m.add_counter("serve.rejected_deadline", c.rejected_deadline);
        m.add_counter("serve.queue_depth", self.shards.iter().map(|s| s.queue_depth as u64).sum());
        m.add_counter("serve.completed", c.completed);
        m.add_counter("serve.cancelled", c.cancelled);
        m.add_counter("serve.batches", c.batches);
        m.add_counter("serve.coalesced_lanes", c.coalesced_lanes);
        m.add_counter("plancache.hit", self.plan_cache.hits);
        m.add_counter("plancache.miss", self.plan_cache.misses);
        m.add_counter("plancache.evict", self.plan_cache.evictions);
        for s in &self.shards {
            let p = format!("serve.shard{}.", s.shard);
            m.add_counter(&format!("{p}sessions"), s.sessions);
            m.add_counter(&format!("{p}batches"), s.batches);
            m.add_counter(&format!("{p}compactions"), s.compactions);
            m.add_counter(&format!("{p}solo_sessions"), s.solo_sessions);
            m.add_counter(&format!("{p}queue_depth"), s.queue_depth as u64);
            m.add_counter(&format!("plancache.shard{}.hit", s.shard), s.cache_hits);
            m.add_counter(&format!("plancache.shard{}.miss", s.shard), s.cache_misses);
            m.add_histogram(&format!("{p}step_ns"), s.step_ns);
        }
        m
    }
}

/// Mutable per-shard accounting, owned by the worker thread behind a
/// mutex so `Server::stats` can snapshot it live.
#[derive(Default)]
pub(crate) struct ShardState {
    pub(crate) sessions: u64,
    pub(crate) batches: u64,
    pub(crate) compactions: u64,
    pub(crate) solo_sessions: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) hist: LogHistogram,
}

impl ShardState {
    /// Measured p99 step latency in whole nanoseconds (rounded up,
    /// floored at 1 so a sub-nanosecond measurement still predicts a
    /// nonzero run time), or `None` while the histogram is empty —
    /// the deadline-admission input.
    pub(crate) fn p99_step_ns(&self) -> Option<u64> {
        let s = self.hist.summary(1.0);
        if s.count == 0 {
            return None;
        }
        Some((s.p99.ceil() as u64).max(1))
    }

    pub(crate) fn snapshot(&self, shard: usize, queue_depth: usize) -> ShardStats {
        ShardStats {
            shard,
            sessions: self.sessions,
            batches: self.batches,
            compactions: self.compactions,
            solo_sessions: self.solo_sessions,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            queue_depth,
            step_ns: self.hist.summary(1.0),
        }
    }
}
