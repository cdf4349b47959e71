//! Deterministic multi-tenant soak: waves of paused submission →
//! cancellation → resume → join, mixed fingerprints, quota exhaustion
//! and a queue-overflow flood — with the final [`ServeCounters`]
//! predicted *exactly* from the schedule. Nothing here is approximate:
//! admission, gang formation and the plan cache are all pure functions
//! of the submission order, and this test is the proof.
//!
//! The default run keeps tier-1 fast; `SERVE_SOAK=1` stretches it to
//! the full 10³-session soak (CI runs that gate in release, see
//! `scripts/ci.sh`).

use std::time::Duration;

use peert_model::library::continuous::Integrator;
use peert_model::library::math::Gain;
use peert_model::library::sources::SineWave;
use peert_model::{lowering_digest, Diagram};
use peert_serve::{route_shard, Reject, ServeConfig, ServeCounters, Server, SessionSpec};

const DT: f64 = 1e-3;
const JOIN: Duration = Duration::from_secs(120);
const SHAPES: usize = 3;

/// Soak scale: (waves, tenants, submits per tenant per wave, quota,
/// flood size, queue cap). Accepted sessions per wave = tenants ×
/// quota, which must fit one shard's queue (a wave may route every
/// shape to the same shard); the flood must overflow it.
fn scale() -> (u64, u64, u64, usize, u64, usize) {
    if std::env::var("SERVE_SOAK").ok().as_deref() == Some("1") {
        (5, 8, 30, 25, 300, 256) // 5×8×25 = 1000 accepted wave sessions
    } else {
        (2, 4, 5, 3, 40, 16) // quick tier-1 variant, same invariants
    }
}

/// Fixed diagram per shape — parameters must be identical across
/// sessions of a shape, or their lowering digests diverge and nothing
/// coalesces (per-session divergence would go through `LaneOverride`).
fn shape(s: u64) -> Diagram {
    let mut d = Diagram::new();
    match s % SHAPES as u64 {
        0 => {
            let sw = d.add("sine", SineWave::new(1.0, 10.0)).unwrap();
            let g = d.add("gain", Gain::new(1.5)).unwrap();
            d.connect((sw, 0), (g, 0)).unwrap();
        }
        1 => {
            let sw = d.add("sine", SineWave::new(1.0, 10.0)).unwrap();
            let g = d.add("gain", Gain::new(2.0)).unwrap();
            let i = d.add("int", Integrator::new(0.0)).unwrap();
            d.connect((sw, 0), (g, 0)).unwrap();
            d.connect((g, 0), (i, 0)).unwrap();
        }
        _ => {
            let sw = d.add("sine", SineWave::new(2.0, 5.0)).unwrap();
            let g = d.add("gain", Gain::new(0.5)).unwrap();
            d.connect((sw, 0), (g, 0)).unwrap();
        }
    }
    d
}

fn budget(s: u64) -> u64 {
    16 + 8 * (s % SHAPES as u64)
}

/// Gang chunks the scheduler will cut an `n`-session bucket into, and
/// their contribution to the `batches` / `coalesced_lanes` counters.
fn gangs_of(n: u64, max_lanes: u64) -> (u64, u64) {
    let (mut batches, mut coalesced, mut left) = (0, 0, n);
    while left > 0 {
        let take = left.min(max_lanes);
        batches += 1;
        if take >= 2 {
            coalesced += take;
        }
        left -= take;
    }
    (batches, coalesced)
}

/// Wedge the worker `shape(0)` routes to inside the sink of a one-step
/// `shape(0)` session, which signals and then blocks until the returned
/// release handle is dropped. Sinks run after the round's queue drain,
/// so once it signals the worker provably cannot pop another message —
/// which makes the queue-overflow arithmetic below exact.
fn block_shard(server: &Server) -> std::sync::mpsc::Sender<()> {
    let (running_tx, running_rx) = std::sync::mpsc::channel::<()>();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let blocker = SessionSpec::new("blocker", shape(0), DT, 1);
    let admitted = server.submit_with(blocker, move |_| {
        Box::new(move |_event| {
            running_tx.send(()).expect("soak main alive");
            let _ = release_rx.recv(); // released when the sender drops
        })
    });
    admitted.expect("an idle server admits the blocker");
    running_rx.recv_timeout(JOIN).expect("blocker sink never ran");
    release_tx
}

#[test]
fn soak_counters_equal_schedule_derived_expectations() {
    let (waves, tenants, submits, quota, flood, queue_cap) = scale();
    assert!(tenants as usize * quota <= queue_cap, "a wave must fit one queue");
    assert!(flood > queue_cap as u64, "the flood must overflow the queue");
    let max_lanes = 8u64;
    let config = ServeConfig {
        shards: 4,
        queue_cap,
        tenant_quota: quota,
        max_lanes: max_lanes as usize,
        quantum: 16,
        plan_cache_cap: 64,
        compact: true,
        start_paused: true,
    };
    let server = Server::start(config);

    let mut exp = ServeCounters::default();
    let mut exp_gangs = 0u64; // for the plan-cache hit count

    // ── wave phase: paused submission, quota exhaustion, pre-resume
    // cancellation, then resume and join everything ──────────────────
    for wave in 0..waves {
        if wave > 0 {
            server.pause();
        }
        let mut handles = Vec::new();
        let mut wave_shape_counts = [0u64; SHAPES];
        for t in 0..tenants {
            for j in 0..submits {
                let s = t + j;
                exp.submitted += 1;
                let spec = SessionSpec::new(format!("tenant{t}"), shape(s), DT, budget(s));
                if j >= quota as u64 {
                    // the first `quota` handles of this tenant are
                    // still unreaped, so this must reject
                    match server.submit(spec) {
                        Err(Reject::QuotaExceeded { .. }) => exp.rejected_quota += 1,
                        other => panic!("expected quota reject, got {:?}", other.map(|_| ())),
                    }
                    continue;
                }
                let h = server.submit(spec).expect("under quota, roomy queue");
                exp.accepted += 1;
                wave_shape_counts[(s % SHAPES as u64) as usize] += 1;
                if j % 5 == 0 {
                    // cancelled while the server is paused: the flag is
                    // set before the lane ever steps, so it records 0
                    h.cancel();
                    exp.cancelled += 1;
                } else {
                    exp.completed += 1;
                    exp.steps_completed += budget(s);
                }
                handles.push(h);
            }
        }
        // gang formation sees each wave's whole backlog at once:
        // per shape, ceil(n / max_lanes) gangs
        for &n in &wave_shape_counts {
            let (b, c) = gangs_of(n, max_lanes);
            exp.batches += b;
            exp.coalesced_lanes += c;
            exp_gangs += b;
        }
        server.resume();
        for h in handles {
            h.join_deadline(JOIN).expect("wave session wedged");
        }
    }

    // ── flood phase: wedge one shard's worker, then overflow its
    // bounded queue with one-step sessions of a single shape ─────────
    let flood_shard = route_shard(&shape(0), DT, 4);
    let release = block_shard(&server);
    exp.submitted += 1;
    exp.accepted += 1;
    exp.completed += 1;
    exp.steps_completed += 1;
    exp.batches += 1;
    exp_gangs += 1;

    let mut flood_handles = Vec::new();
    for i in 0..flood {
        exp.submitted += 1;
        // fresh tenants, each staying at quota, so only the queue limits
        let spec = SessionSpec::new(format!("bp{}", i / quota as u64), shape(0), DT, 1);
        match server.submit(spec) {
            Ok(h) => {
                exp.accepted += 1;
                exp.completed += 1;
                exp.steps_completed += 1;
                flood_handles.push(h);
            }
            Err(Reject::Backpressure { shard, cap }) => {
                assert_eq!((shard, cap), (flood_shard, queue_cap));
                assert!(i >= queue_cap as u64, "queue rejected before it was full");
                exp.rejected_backpressure += 1;
            }
            Err(other) => panic!("unexpected reject: {other}"),
        }
    }
    assert_eq!(exp.rejected_backpressure, flood.saturating_sub(queue_cap as u64));
    let (b, c) = gangs_of(flood - exp.rejected_backpressure, max_lanes);
    exp.batches += b;
    exp.coalesced_lanes += c;
    exp_gangs += b;
    drop(release); // un-wedge the worker; the backlog drains as one bucket
    for h in flood_handles {
        h.join_deadline(JOIN).expect("flood session wedged");
    }

    // ── the proof: counters equal the schedule-derived expectation ───
    let stats = server.shutdown();
    assert_eq!(stats.counters, exp);

    // the plan cache compiled each shape exactly once, ever
    assert_eq!(stats.plan_cache.misses, SHAPES as u64);
    assert_eq!(stats.plan_cache.hits, exp_gangs - SHAPES as u64);
    assert_eq!(stats.plan_cache.evictions, 0);
    assert!(
        stats.plan_cache.hits > stats.plan_cache.misses,
        "coalescing must dominate compilation"
    );

    // routing really did put every flood session on one shard
    let digest = lowering_digest(&shape(0), DT).expect("shape 0 lowers");
    assert_eq!(flood_shard, (digest % 4) as usize);

    // every shard that ran sessions measured step latency
    for sh in &stats.shards {
        if sh.sessions > 0 {
            assert!(sh.step_ns.count > 0, "shard {} ran without histogram samples", sh.shard);
        }
    }
}
