//! Shard worker: drains its bounded queue, coalesces same-plan
//! sessions into gangs (one multi-lane `Engine` each), and round-robins
//! quanta across the active set.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

use peert_model::graph::Source;
use peert_model::{lock, DiagramFingerprint, Engine, Value};

use crate::server::Shared;
use crate::session::{LaneOverride, SessionEvent, SessionOutcome, SessionTask};

/// What the admission front-end hands a shard.
pub(crate) enum ShardMsg {
    /// An admitted session.
    Session(Box<SessionTask>),
    /// Drain everything already admitted, then exit.
    Shutdown,
}

/// One session occupying one lane of a gang.
struct Lane {
    task: SessionTask,
    recorded: u64,
    flushed: u64,
    chunk: Vec<Value>,
}

impl Lane {
    fn new(task: SessionTask) -> Self {
        Lane { task, recorded: 0, flushed: 0, chunk: Vec::new() }
    }

    /// Whether the lane has delivered `Done` (and dropped its sink).
    fn done(&self) -> bool {
        self.task.sink.is_none()
    }

    fn flush(&mut self) {
        let Some(sink) = &mut self.task.sink else { return };
        if !self.chunk.is_empty() {
            let values = std::mem::take(&mut self.chunk);
            sink(SessionEvent::Chunk { start_step: self.flushed, values });
            self.flushed = self.recorded;
        }
    }

    /// Flush, count the outcome, release the quota slot, then deliver
    /// `Done` (no server lock held) and drop the sink.
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
        drop(self.task.slot.take());
        if let Some(mut sink) = self.task.sink.take() {
            sink(SessionEvent::Done { outcome, steps: self.recorded });
        }
    }
}

/// Same-plan sessions stepping together through one `Engine`, one lane
/// each. A diagram whose tape has trampoline entries gets a one-lane
/// gang of its own, stepping its own block instances.
struct Gang {
    engine: Engine,
    lanes: Vec<Lane>,
    priority: u8,
    seq: u64,
}

impl Gang {
    fn live(&self) -> usize {
        self.lanes.iter().filter(|l| !l.done()).count()
    }
}

pub(crate) fn run_shard(shard: usize, shared: &Arc<Shared>, rx: &Receiver<ShardMsg>) {
    let mut pending: Vec<SessionTask> = Vec::new();
    let mut gangs: Vec<Gang> = Vec::new();
    let mut shutting_down = false;
    let queued = &shared.queued[shard];

    loop {
        shared.wait_if_paused();

        let idle = pending.is_empty() && gangs.is_empty();
        if idle && !shutting_down {
            // nothing to do: sleep on the queue
            match rx.recv() {
                Ok(m) => {
                    queued.fetch_sub(1, Ordering::AcqRel);
                    absorb(m, &mut pending, &mut shutting_down);
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
            absorb(m, &mut pending, &mut shutting_down);
        }

        if !pending.is_empty() {
            form_gangs(shard, shared, &mut pending, &mut gangs);
        }

        // one quantum per active gang, highest priority first; a gang
        // that panics ends its live sessions and is dropped
        gangs.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.seq.cmp(&b.seq)));
        for g in &mut gangs {
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| gang_quantum(g, shard, shared))) {
                let text = panic.downcast_ref::<&str>().map(|s| s.to_string());
                let text = text.or_else(|| panic.downcast_ref::<String>().cloned());
                let why = format!("panic: {}", text.unwrap_or_default());
                for lane in g.lanes.iter_mut().filter(|l| !l.done()) {
                    lane.finish(SessionOutcome::Failed(why.clone()), shared);
                }
            }
        }
        gangs.retain(|g| g.live() > 0);
        if shared.config.compact {
            for g in &mut gangs {
                maybe_compact(g, shard, shared);
            }
        }

        if shutting_down
            && pending.is_empty()
            && gangs.is_empty()
            && queued.load(Ordering::Acquire) == 0
        {
            break;
        }
    }
}

fn absorb(m: ShardMsg, pending: &mut Vec<SessionTask>, shutting_down: &mut bool) {
    match m {
        ShardMsg::Session(t) => pending.push(*t),
        ShardMsg::Shutdown => *shutting_down = true,
    }
}

/// Group the drained backlog into gangs: stable-sort by (priority,
/// arrival), bucket by (priority, lowering digest, fingerprint) in
/// first-seen order, then cut each bucket into `max_lanes`-wide gangs.
/// A session whose diagram has no lowering digest (its tape needs a
/// trampoline entry) gets a one-lane gang of its own.
fn form_gangs(
    shard: usize,
    shared: &Arc<Shared>,
    pending: &mut Vec<SessionTask>,
    gangs: &mut Vec<Gang>,
) {
    pending.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.seq.cmp(&b.seq)));
    let mut buckets: Vec<(u8, u64, DiagramFingerprint, Vec<SessionTask>)> = Vec::new();
    for task in pending.drain(..) {
        let Some(digest) = task.digest else {
            let priority = task.priority;
            start_gang(vec![task], priority, shard, shared, gangs);
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
    // no digest: the tape needs trampolines, so the gang has one lane
    let solo = group[0].digest.is_none();
    let mut lanes: Vec<Lane> = group.into_iter().map(Lane::new).collect();
    let diagram = lanes[0].task.diagram.take().expect("gang representative diagram");

    let engine = {
        let mut cache = lock(&shared.cache);
        let (h0, m0) = (cache.hits(), cache.misses());
        let r = Engine::with_lanes(diagram, dt, n, Some(&mut cache));
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
            // admission proved the diagram schedules and that a multi-lane
            // gang lowers, so this is unreachable in practice — still,
            // fail the sessions rather than the shard
            for lane in &mut lanes {
                lane.finish(SessionOutcome::Failed(format!("compile: {e:?}")), shared);
            }
            return;
        }
    };
    {
        let mut st = lock(&shared.shard_states[shard]);
        st.batches += 1;
        st.solo_sessions += u64::from(solo);
    }
    {
        let mut c = lock(&shared.counters);
        c.batches += 1;
        c.solo_sessions += u64::from(solo);
        if n >= 2 {
            c.coalesced_lanes += n as u64;
        }
    }
    for (li, lane) in lanes.iter_mut().enumerate() {
        let refused = lane.task.overrides.iter().find_map(|o| {
            match *o {
                LaneOverride::Param { block, index, value } => {
                    engine.set_param(li, block, index, value)
                }
                LaneOverride::Const { block, value } => engine.set_const(li, block, value),
            }
            .err()
        });
        if let Some(why) = refused {
            lane.finish(SessionOutcome::Failed(format!("override refused: {why}")), shared);
        }
    }
    gangs.push(Gang { engine, lanes, priority, seq });
}

/// Remaining budget of the widest live lane (how far the gang still
/// has to step).
fn max_remaining(lanes: &[Lane]) -> u64 {
    lanes
        .iter()
        .filter(|l| !l.done())
        .map(|l| l.task.budget - l.recorded)
        .max()
        .unwrap_or(0)
}

fn cancel_sweep(lanes: &mut [Lane], shared: &Shared) {
    for lane in lanes.iter_mut() {
        if !lane.done() && lane.task.cancel.is_cancelled() {
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
        if let Err(e) = gang.engine.step() {
            for lane in gang.lanes.iter_mut().filter(|l| !l.done()) {
                lane.finish(SessionOutcome::Failed(format!("step: {e:?}")), shared);
            }
            return;
        }
        for (li, lane) in gang.lanes.iter_mut().enumerate() {
            if !lane.done() && lane.recorded < lane.task.budget {
                let probe = |p| gang.engine.probe_lane(li, p);
                record_probes(&mut lane.chunk, &lane.task.probes, probe);
                lane.recorded += 1;
            }
        }
    }
    let ns_per_step = (t0.elapsed().as_nanos() as u64) / q;
    lock(&shared.shard_states[shard]).hist.record(ns_per_step);
    for lane in &mut gang.lanes {
        if !lane.done() {
            lane.flush();
            if lane.recorded == lane.task.budget {
                lane.finish(SessionOutcome::Completed, shared);
            }
        }
    }
}

fn record_probes(chunk: &mut Vec<Value>, probes: &[Source], probe: impl Fn(Source) -> Value) {
    for &p in probes {
        chunk.push(probe(p));
    }
}

/// Once at least half a (≥4-lane) gang's lanes have finished, drop the
/// finished lanes from its engine in place — the survivors keep their
/// slices bit for bit, so trajectories are unaffected, and the dead
/// lanes stop costing SoA bandwidth.
fn maybe_compact(gang: &mut Gang, shard: usize, shared: &Arc<Shared>) {
    let live = gang.live();
    let total = gang.lanes.len();
    if total < 4 || live == 0 || (total - live) < live {
        return;
    }
    let keep: Vec<bool> = gang.lanes.iter().map(|l| !l.done()).collect();
    gang.engine.retain_lanes(&keep);
    gang.lanes.retain(|l| !l.done());
    lock(&shared.shard_states[shard]).compactions += 1;
}
