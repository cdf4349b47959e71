//! The daemon: admission control, shard routing, lifecycle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use peert_model::{lock, lowering_digest, Diagram, PlanCache};

use crate::session::{Reject, SessionHandle, SessionSpec, SessionTask};
use crate::shard::{run_shard, ShardMsg};
use crate::stats::{PlanCacheStats, ServeCounters, ServeStats, ShardState};

/// Service sizing and policy. Everything is per-server; two servers
/// share nothing (including the plan cache).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads. Sessions route to `shard = route_key % shards`,
    /// so same-plan sessions always land together (coalescing beats
    /// load spreading for same-fingerprint floods).
    pub shards: usize,
    /// Bounded per-shard queue capacity; a full queue rejects with
    /// [`Reject::Backpressure`] instead of blocking.
    pub queue_cap: usize,
    /// Max *unreaped* sessions per tenant (admitted, handle still
    /// alive). Counting until the client reaps keeps over-quota
    /// rejection deterministic under test schedules.
    pub tenant_quota: usize,
    /// Max lanes per gang engine (gang width).
    pub max_lanes: usize,
    /// Steps each gang advances per scheduling round — the fairness /
    /// cancellation-latency granule.
    pub quantum: u64,
    /// Server-owned plan-cache capacity. Every gang compiles through
    /// this cache, one-lane gangs of diagrams with trampoline entries
    /// included.
    pub plan_cache_cap: usize,
    /// Narrow a gang (drop its finished lanes from the engine in place)
    /// once at least half its lanes finished.
    pub compact: bool,
    /// Start with scheduling paused (deterministic batch formation:
    /// submit everything, then [`Server::resume`]).
    pub start_paused: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_cap: 256,
            tenant_quota: 64,
            max_lanes: 32,
            quantum: 64,
            plan_cache_cap: 64,
            compact: true,
            start_paused: false,
        }
    }
}

/// State shared between the admission front-end, the shard workers and
/// live [`SessionHandle`]s.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) counters: Mutex<ServeCounters>,
    pub(crate) cache: Mutex<PlanCache>,
    pub(crate) shard_states: Vec<Mutex<ShardState>>,
    /// Per-shard count of messages sent and not yet taken off the queue
    /// (std channels expose no length): raised before each send,
    /// lowered by the worker on receipt, so it never reads low.
    pub(crate) queued: Vec<AtomicUsize>,
    tenants: Mutex<HashMap<String, usize>>,
    paused: AtomicBool,
    closed: AtomicBool,
    seq: AtomicU64,
    job_rr: AtomicU64,
}

impl Shared {
    /// Block the calling worker while the server is paused (poll — the
    /// pause gate is a test/determinism feature, not a hot path).
    pub(crate) fn wait_if_paused(&self) {
        while self.is_paused() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Whether scheduling is currently paused.
    pub(crate) fn is_paused(&self) -> bool {
        self.paused.load(Ordering::Acquire)
    }

    pub(crate) fn release_tenant(&self, tenant: &str) {
        let mut t = lock(&self.tenants);
        if let Some(n) = t.get_mut(tenant) {
            *n -= 1;
            if *n == 0 {
                t.remove(tenant);
            }
        }
    }
}

/// The shard a session for `diagram` at `dt` routes to on a
/// `shards`-wide server.
///
/// Public so deterministic drivers (the soak test) can derive the
/// expected schedule: the key is the lowering digest when the diagram
/// lowers fully (identical-plan sessions therefore always share a
/// shard), or a block-type hash for diagrams with trampoline entries,
/// which run in one-lane gangs.
pub fn route_shard(diagram: &Diagram, dt: f64, shards: usize) -> usize {
    shard_of(lowering_digest(diagram, dt), diagram, shards)
}

/// [`route_shard`] from a lowering digest already computed.
fn shard_of(digest: Option<u64>, diagram: &Diagram, shards: usize) -> usize {
    (route_key(digest, diagram) % shards.max(1) as u64) as usize
}

fn route_key(digest: Option<u64>, diagram: &Diagram) -> u64 {
    if let Some(d) = digest {
        return d;
    }
    // FNV-1a over the block type names — any deterministic spreading
    // works, these sessions never coalesce anyway.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in diagram.ids() {
        for b in diagram.block(id).type_name().bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// A running multi-tenant simulation service.
///
/// Lifecycle: [`Server::start`] spawns the shard workers;
/// [`Server::submit`] admits sessions (never blocks — rejects with
/// reason); [`Server::shutdown`] stops admission, drains everything
/// already admitted and joins the workers. Dropping the server without
/// `shutdown` aborts the same way.
pub struct Server {
    shared: Arc<Shared>,
    txs: Vec<SyncSender<ShardMsg>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawn the shard workers and start (possibly paused).
    pub fn start(config: ServeConfig) -> Server {
        let shards = config.shards.max(1);
        let start_paused = config.start_paused;
        let cache_cap = config.plan_cache_cap;
        let shared = Arc::new(Shared {
            config: ServeConfig { shards, ..config },
            counters: Mutex::new(ServeCounters::default()),
            cache: Mutex::new(PlanCache::new(cache_cap)),
            shard_states: (0..shards).map(|_| Mutex::new(ShardState::default())).collect(),
            queued: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            tenants: Mutex::new(HashMap::new()),
            paused: AtomicBool::new(start_paused),
            closed: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            job_rr: AtomicU64::new(0),
        });
        let mut txs = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = sync_channel(shared.config.queue_cap.max(1));
            let sh = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("peert-serve-{shard}"))
                    .spawn(move || run_shard(shard, &sh, &rx))
                    .expect("spawn shard worker"),
            );
            txs.push(tx);
        }
        Server { shared, txs, workers }
    }

    /// Admit a session or reject it with a reason. Never blocks.
    pub fn submit(&self, spec: SessionSpec) -> Result<SessionHandle, Reject> {
        let mut c = lock(&self.shared.counters);
        c.submitted += 1;
        drop(c);
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(self.count_reject(Reject::ShuttingDown));
        }
        if let Err(r) = validate(&spec) {
            return Err(self.count_reject(r));
        }
        let digest = lowering_digest(&spec.diagram, spec.dt);
        if digest.is_none() && !spec.overrides.is_empty() {
            return Err(self.count_reject(Reject::OverridesUnsupported(
                "diagram does not lower to the batch kernel".into(),
            )));
        }

        let shard = shard_of(digest, &spec.diagram, self.txs.len());

        // deadline admission: predict run time from the routed shard's
        // measured p99 step latency and refuse infeasible sessions
        // before any compute is spent. An empty histogram (cold start)
        // admits — there is nothing to predict from yet.
        if let Some(budget) = spec.deadline_budget {
            let p99 = lock(&self.shared.shard_states[shard]).p99_step_ns();
            if let Some(p99_step_ns) = p99 {
                let predicted_ns = p99_step_ns.saturating_mul(spec.steps);
                let budget_ns = u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX);
                if predicted_ns > budget_ns {
                    return Err(self.count_reject(Reject::DeadlineInfeasible {
                        budget_ns,
                        predicted_ns,
                        p99_step_ns,
                    }));
                }
            }
        }

        // quota: count of unreaped sessions per tenant
        let quota = self.shared.config.tenant_quota;
        {
            let mut tenants = lock(&self.shared.tenants);
            let n = tenants.entry(spec.tenant.clone()).or_insert(0);
            if *n >= quota {
                let active = *n;
                drop(tenants);
                return Err(self.count_reject(Reject::QuotaExceeded {
                    tenant: spec.tenant,
                    active,
                    quota,
                }));
            }
            *n += 1;
        }

        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let fingerprint = spec.diagram.fingerprint();
        let task = SessionTask {
            seq,
            diagram: Some(spec.diagram),
            dt: spec.dt,
            budget: spec.steps,
            probes: spec.probes,
            overrides: spec.overrides,
            priority: spec.priority,
            digest,
            fingerprint,
            cancel: Arc::clone(&cancel),
            tx,
        };
        let tenant = spec.tenant;
        self.shared.queued[shard].fetch_add(1, Ordering::AcqRel);
        let sent = self.txs[shard].try_send(ShardMsg::Session(Box::new(task)));
        if sent.is_err() {
            self.shared.queued[shard].fetch_sub(1, Ordering::AcqRel);
        }
        match sent {
            Ok(()) => {
                lock(&self.shared.counters).accepted += 1;
                Ok(SessionHandle {
                    id: seq,
                    tenant,
                    events: rx,
                    cancel,
                    shared: Arc::clone(&self.shared),
                })
            }
            Err(TrySendError::Full(_)) => {
                self.shared.release_tenant(&tenant);
                Err(self.count_reject(Reject::Backpressure {
                    shard,
                    cap: self.shared.config.queue_cap.max(1),
                }))
            }
            Err(TrySendError::Disconnected(_)) => {
                self.shared.release_tenant(&tenant);
                Err(self.count_reject(Reject::ShuttingDown))
            }
        }
    }

    /// Enqueue a generic job (experiment sweeps ride the same shards
    /// as sessions). Round-robin routed; blocks if the target queue is
    /// full (jobs are trusted in-process work, not tenant traffic).
    /// Returns false once the server is shutting down.
    pub fn submit_job(&self, job: impl FnOnce() + Send + 'static) -> bool {
        if self.shared.closed.load(Ordering::Acquire) {
            return false;
        }
        let shard =
            (self.shared.job_rr.fetch_add(1, Ordering::Relaxed) % self.txs.len() as u64) as usize;
        lock(&self.shared.counters).jobs += 1;
        self.send(shard, ShardMsg::Job(Box::new(job)))
    }

    /// Blocking send to `shard`, counted in its queue depth.
    fn send(&self, shard: usize, msg: ShardMsg) -> bool {
        self.shared.queued[shard].fetch_add(1, Ordering::AcqRel);
        let ok = self.txs[shard].send(msg).is_ok();
        if !ok {
            self.shared.queued[shard].fetch_sub(1, Ordering::AcqRel);
        }
        ok
    }

    /// Pause scheduling: workers stop draining their queues and
    /// stepping at the next quantum boundary. Submissions still queue
    /// (and still hit backpressure), which is exactly what
    /// deterministic schedule tests need.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Release);
    }

    /// Resume scheduling.
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Release);
    }

    /// Live snapshot: counters, plan cache, per-shard stats.
    pub fn stats(&self) -> ServeStats {
        let counters = lock(&self.shared.counters).clone();
        let plan_cache = {
            let c = lock(&self.shared.cache);
            PlanCacheStats {
                hits: c.hits(),
                misses: c.misses(),
                evictions: c.evictions(),
                resident: c.len(),
            }
        };
        let shards = self
            .shared
            .shard_states
            .iter()
            .enumerate()
            .map(|(i, s)| lock(s).snapshot(i, self.shared.queued[i].load(Ordering::Acquire)))
            .collect();
        ServeStats { counters, plan_cache, shards }
    }

    /// Stop admission, drain every admitted session/job to completion
    /// and join the workers. Returns the final snapshot.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        self.resume(); // a paused worker can't drain a full queue
        for shard in 0..self.txs.len() {
            // a full queue drains as workers absorb it; blocking send
            // is fine here because the workers are running
            self.send(shard, ShardMsg::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

fn validate(spec: &SessionSpec) -> Result<(), Reject> {
    if spec.steps == 0 {
        return Err(Reject::Invalid("step budget is zero".into()));
    }
    if !spec.dt.is_finite() || spec.dt <= 0.0 {
        return Err(Reject::Invalid(format!("dt {} is not positive and finite", spec.dt)));
    }
    if let Err(e) = spec.diagram.sorted_order() {
        return Err(Reject::Invalid(format!("diagram does not schedule: {e:?}")));
    }
    for &(id, port) in &spec.probes {
        if id.index() >= spec.diagram.len() {
            return Err(Reject::Invalid(format!("probe block #{} out of range", id.index())));
        }
        if port >= spec.diagram.block(id).ports().outputs {
            return Err(Reject::Invalid(format!(
                "probe port {port} out of range for block #{}",
                id.index()
            )));
        }
    }
    Ok(())
}

impl Server {
    fn count_reject(&self, r: Reject) -> Reject {
        let mut c = lock(&self.shared.counters);
        match &r {
            Reject::QuotaExceeded { .. } => c.rejected_quota += 1,
            Reject::Backpressure { .. } => c.rejected_backpressure += 1,
            Reject::Invalid(_) | Reject::OverridesUnsupported(_) => c.rejected_invalid += 1,
            Reject::DeadlineInfeasible { .. } => c.rejected_deadline += 1,
            Reject::ShuttingDown => {}
        }
        r
    }
}
