//! Shard worker: drains its bounded queue, coalesces same-plan
//! sessions into `BatchEngine` gangs, and round-robins quanta across
//! the active set.

use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

use peert_model::graph::Source;
use peert_model::{lock, BatchEngine, DiagramFingerprint, Engine, Value};

use crate::server::Shared;
use crate::session::{LaneOverride, SessionEvent, SessionOutcome, SessionTask};

/// What the admission front-end hands a shard.
pub(crate) enum ShardMsg {
    /// An admitted session.
    Session(Box<SessionTask>),
    /// A generic job (experiment sweeps).
    Job(Box<dyn FnOnce() + Send>),
    /// Drain everything already admitted, then exit.
    Shutdown,
}

/// One session occupying one lane of a gang (or a solo engine).
struct Lane {
    task: SessionTask,
    recorded: u64,
    flushed: u64,
    chunk: Vec<Value>,
    done: bool,
}

impl Lane {
    fn new(task: SessionTask) -> Self {
        Lane { task, recorded: 0, flushed: 0, chunk: Vec::new(), done: false }
    }

    fn flush(&mut self) {
        if !self.chunk.is_empty() {
            let values = std::mem::take(&mut self.chunk);
            let _ = self
                .task
                .tx
                .send(SessionEvent::Chunk { start_step: self.flushed, values });
            self.flushed = self.recorded;
        }
    }

    fn finish(&mut self, outcome: SessionOutcome, shared: &Shared) {
        self.flush();
        let mut c = lock(&shared.counters);
        match &outcome {
            SessionOutcome::Completed => {
                c.completed += 1;
                c.steps_completed += self.recorded;
            }
            SessionOutcome::Cancelled => c.cancelled += 1,
            SessionOutcome::Failed(_) => c.failed += 1,
        }
        drop(c);
        let _ = self.task.tx.send(SessionEvent::Done { outcome, steps: self.recorded });
        self.done = true;
    }
}

/// Same-plan sessions stepping together through one `BatchEngine`.
struct Gang {
    engine: BatchEngine,
    lanes: Vec<Lane>,
    priority: u8,
    seq: u64,
}

impl Gang {
    fn live(&self) -> usize {
        self.lanes.iter().filter(|l| !l.done).count()
    }
}

/// A session whose tape has trampoline entries, so it cannot share a
/// batch: it steps its own engine.
struct Solo {
    engine: Engine,
    lane: Lane,
    priority: u8,
    seq: u64,
}

pub(crate) fn run_shard(shard: usize, shared: &Arc<Shared>, rx: &Receiver<ShardMsg>) {
    let mut pending: Vec<SessionTask> = Vec::new();
    let mut jobs: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    let mut gangs: Vec<Gang> = Vec::new();
    let mut solos: Vec<Solo> = Vec::new();
    let mut shutting_down = false;
    let queued = &shared.queued[shard];

    loop {
        shared.wait_if_paused();

        let idle =
            pending.is_empty() && jobs.is_empty() && gangs.is_empty() && solos.is_empty();
        if idle && !shutting_down {
            // nothing to do: sleep on the queue
            match rx.recv() {
                Ok(m) => {
                    queued.fetch_sub(1, Ordering::AcqRel);
                    absorb(m, &mut pending, &mut jobs, &mut shutting_down);
                }
                Err(_) => break,
            }
            if shared.is_paused() {
                // paused mid-sleep: park again before draining more, so
                // a paused server accumulates queue depth deterministically
                continue;
            }
        }
        while let Ok(m) = rx.try_recv() {
            queued.fetch_sub(1, Ordering::AcqRel);
            absorb(m, &mut pending, &mut jobs, &mut shutting_down);
        }

        if !pending.is_empty() {
            form_gangs(shard, shared, &mut pending, &mut gangs, &mut solos);
        }

        // one quantum per active gang/solo, highest priority first
        gangs.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.seq.cmp(&b.seq)));
        solos.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.seq.cmp(&b.seq)));
        for g in &mut gangs {
            gang_quantum(g, shard, shared);
        }
        for s in &mut solos {
            solo_quantum(s, shard, shared);
        }
        gangs.retain(|g| g.live() > 0);
        solos.retain(|s| !s.lane.done);
        if shared.config.compact {
            for g in &mut gangs {
                maybe_compact(g, shard, shared);
            }
        }

        for job in jobs.drain(..) {
            job();
        }

        if shutting_down
            && pending.is_empty()
            && gangs.is_empty()
            && solos.is_empty()
            && queued.load(Ordering::Acquire) == 0
        {
            break;
        }
    }
}

fn absorb(
    m: ShardMsg,
    pending: &mut Vec<SessionTask>,
    jobs: &mut Vec<Box<dyn FnOnce() + Send>>,
    shutting_down: &mut bool,
) {
    match m {
        ShardMsg::Session(t) => pending.push(*t),
        ShardMsg::Job(j) => jobs.push(j),
        ShardMsg::Shutdown => *shutting_down = true,
    }
}

/// Group the drained backlog into gangs: stable-sort by (priority,
/// arrival), bucket by (priority, lowering digest, fingerprint) in
/// first-seen order, then cut each bucket into `max_lanes`-wide gangs.
/// Sessions that cannot batch become solo engines.
fn form_gangs(
    shard: usize,
    shared: &Arc<Shared>,
    pending: &mut Vec<SessionTask>,
    gangs: &mut Vec<Gang>,
    solos: &mut Vec<Solo>,
) {
    pending.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.seq.cmp(&b.seq)));
    let mut buckets: Vec<(u8, u64, DiagramFingerprint, Vec<SessionTask>)> = Vec::new();
    for task in pending.drain(..) {
        let Some(digest) = task.digest else {
            start_solo(task, shard, shared, solos);
            continue;
        };
        if let Some(b) = buckets.iter_mut().find(|(p, d, fp, _)| {
            *p == task.priority && *d == digest && *fp == task.fingerprint
        }) {
            b.3.push(task);
        } else {
            buckets.push((task.priority, digest, task.fingerprint.clone(), vec![task]));
        }
    }
    let max_lanes = shared.config.max_lanes.max(1);
    for (priority, _, _, mut tasks) in buckets {
        while !tasks.is_empty() {
            let take = tasks.len().min(max_lanes);
            let group: Vec<SessionTask> = tasks.drain(..take).collect();
            start_gang(group, priority, shard, shared, gangs);
        }
    }
}

fn start_gang(
    group: Vec<SessionTask>,
    priority: u8,
    shard: usize,
    shared: &Arc<Shared>,
    gangs: &mut Vec<Gang>,
) {
    let n = group.len();
    let seq = group[0].seq;
    let dt = group[0].dt;
    let mut lanes: Vec<Lane> = group.into_iter().map(Lane::new).collect();
    let diagram = lanes[0].task.diagram.take().expect("gang representative diagram");

    let engine = {
        let mut cache = lock(&shared.cache);
        let (h0, m0) = (cache.hits(), cache.misses());
        let r = BatchEngine::with_cache(&diagram, dt, n, &mut cache);
        let (dh, dm) = (cache.hits() - h0, cache.misses() - m0);
        drop(cache);
        let mut st = lock(&shared.shard_states[shard]);
        st.cache_hits += dh;
        st.cache_misses += dm;
        st.sessions += n as u64;
        r
    };
    let mut engine = match engine {
        Ok(e) => e,
        Err(e) => {
            // admission proved the diagram lowers, so this is unreachable
            // in practice — still, fail the sessions rather than the shard
            for lane in &mut lanes {
                lane.finish(SessionOutcome::Failed(format!("batch compile: {e:?}")), shared);
            }
            return;
        }
    };
    {
        let mut st = lock(&shared.shard_states[shard]);
        st.batches += 1;
    }
    {
        let mut c = lock(&shared.counters);
        c.batches += 1;
        if n >= 2 {
            c.coalesced_lanes += n as u64;
        }
    }
    for (li, lane) in lanes.iter_mut().enumerate() {
        for o in lane.task.overrides.clone() {
            let ok = match o {
                LaneOverride::Param { block, index, value } => {
                    engine.set_param(li, block, index, value)
                }
                LaneOverride::Const { block, value } => engine.set_const(li, block, value),
            };
            if !ok {
                lane.finish(
                    SessionOutcome::Failed(
                        "override target not on the tape (folded, pruned or out of range)".into(),
                    ),
                    shared,
                );
                break;
            }
        }
    }
    gangs.push(Gang { engine, lanes, priority, seq });
}

fn start_solo(task: SessionTask, shard: usize, shared: &Arc<Shared>, solos: &mut Vec<Solo>) {
    let priority = task.priority;
    let seq = task.seq;
    let dt = task.dt;
    let mut lane = Lane::new(task);
    let diagram = lane.task.diagram.take().expect("solo diagram");
    {
        let mut st = lock(&shared.shard_states[shard]);
        st.sessions += 1;
        st.solo_sessions += 1;
    }
    lock(&shared.counters).solo_sessions += 1;
    match Engine::new(diagram, dt) {
        Ok(engine) => solos.push(Solo { engine, lane, priority, seq }),
        Err(e) => lane.finish(SessionOutcome::Failed(format!("engine: {e:?}")), shared),
    }
}

/// Remaining budget of the widest live lane (how far the gang still
/// has to step).
fn max_remaining(lanes: &[Lane]) -> u64 {
    lanes
        .iter()
        .filter(|l| !l.done)
        .map(|l| l.task.budget - l.recorded)
        .max()
        .unwrap_or(0)
}

fn cancel_sweep(lanes: &mut [Lane], shared: &Shared) {
    for lane in lanes.iter_mut() {
        if !lane.done && lane.task.cancel.load(std::sync::atomic::Ordering::Acquire) {
            lane.finish(SessionOutcome::Cancelled, shared);
        }
    }
}

fn gang_quantum(gang: &mut Gang, shard: usize, shared: &Arc<Shared>) {
    cancel_sweep(&mut gang.lanes, shared);
    let rem = max_remaining(&gang.lanes);
    if rem == 0 {
        return;
    }
    let q = shared.config.quantum.max(1).min(rem);
    let t0 = Instant::now();
    for _ in 0..q {
        gang.engine.step();
        for (li, lane) in gang.lanes.iter_mut().enumerate() {
            if !lane.done && lane.recorded < lane.task.budget {
                record_probes(&mut lane.chunk, &lane.task.probes, |p| gang.engine.probe(li, p));
                lane.recorded += 1;
            }
        }
    }
    let ns_per_step = (t0.elapsed().as_nanos() as u64) / q;
    lock(&shared.shard_states[shard]).hist.record(ns_per_step);
    for lane in &mut gang.lanes {
        if !lane.done {
            lane.flush();
            if lane.recorded == lane.task.budget {
                lane.finish(SessionOutcome::Completed, shared);
            }
        }
    }
}

fn solo_quantum(solo: &mut Solo, shard: usize, shared: &Arc<Shared>) {
    cancel_sweep(std::slice::from_mut(&mut solo.lane), shared);
    let lane = &mut solo.lane;
    if lane.done {
        return;
    }
    let q = shared.config.quantum.max(1).min(lane.task.budget - lane.recorded);
    let t0 = Instant::now();
    for _ in 0..q {
        if let Err(e) = solo.engine.step() {
            lane.finish(SessionOutcome::Failed(format!("step: {e:?}")), shared);
            return;
        }
        record_probes(&mut lane.chunk, &lane.task.probes, |p| solo.engine.probe(p));
        lane.recorded += 1;
    }
    let ns_per_step = (t0.elapsed().as_nanos() as u64) / q;
    lock(&shared.shard_states[shard]).hist.record(ns_per_step);
    lane.flush();
    if lane.recorded == lane.task.budget {
        lane.finish(SessionOutcome::Completed, shared);
    }
}

fn record_probes(chunk: &mut Vec<Value>, probes: &[Source], probe: impl Fn(Source) -> Value) {
    for &p in probes {
        chunk.push(probe(p));
    }
}

/// Once at least half a (≥4-lane) gang's lanes have finished, transplant
/// the survivors into a narrower engine over the same shared plan —
/// checkpoint/restore is bit-exact, so trajectories are unaffected, and
/// the dead lanes stop costing SoA bandwidth.
fn maybe_compact(gang: &mut Gang, shard: usize, shared: &Arc<Shared>) {
    let live = gang.live();
    let total = gang.lanes.len();
    if total < 4 || live == 0 || (total - live) < live {
        return;
    }
    let mut narrow = BatchEngine::from_shared_plan(gang.engine.shared_plan(), live);
    narrow.seek(gang.engine.steps());
    let mut target = 0;
    for (li, lane) in gang.lanes.iter().enumerate() {
        if !lane.done {
            let chk = gang.engine.checkpoint_lane(li);
            let ok = narrow.restore_lane(target, &chk);
            debug_assert!(ok, "same plan + seeked clock must restore");
            if !ok {
                return; // keep the wide engine; correctness first
            }
            target += 1;
        }
    }
    gang.engine = narrow;
    gang.lanes.retain(|l| !l.done);
    lock(&shared.shard_states[shard]).compactions += 1;
}
