//! Serving-layer throughput: 8 same-fingerprint sessions of the PR-1
//! 400-block chain, coalesced into one shared 8-lane engine vs forced
//! one-engine-per-session (`max_lanes = 1`). The recorded numbers live
//! in BENCH_serve.json (E17); this bench is the interactive/CI view of
//! the same comparison, timing the whole submit → resume → join cycle
//! (server spin-up and plan compile included).

use peert_bench::timing::Bench;
use peert_model::graph::Diagram;
use peert_model::library::math::Gain;
use peert_model::library::sources::SineWave;
use peert_serve::{ServeConfig, Server, SessionOutcome, SessionSpec};

const SESSIONS: usize = 8;
const STEPS: u64 = 200;

fn chain(n: usize) -> Diagram {
    let mut d = Diagram::new();
    let mut prev = d.add("src", SineWave::new(1.0, 10.0)).unwrap();
    for i in 0..n {
        let blk = d.add(format!("g{i}"), Gain::new(1.0001)).unwrap();
        d.connect((prev, 0), (blk, 0)).unwrap();
        prev = blk;
    }
    d
}

/// One full service cycle; returns total steps run (fed to the timer's
/// black box so nothing is optimized away).
fn run(max_lanes: usize) -> u64 {
    let server = Server::start(ServeConfig {
        shards: 1,
        queue_cap: SESSIONS,
        tenant_quota: SESSIONS,
        max_lanes,
        quantum: 64,
        plan_cache_cap: 4,
        compact: false,
        start_paused: true,
    });
    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            server
                .submit(SessionSpec::new(format!("t{i}"), chain(400), 1e-3, STEPS))
                .expect("roomy config admits all")
        })
        .collect();
    server.resume();
    let mut steps = 0;
    for h in handles {
        let r = h.join();
        assert_eq!(r.outcome, SessionOutcome::Completed);
        steps += r.steps;
    }
    steps
}

fn main() {
    Bench::new("serve_throughput_8_sessions_400_blocks")
        .case("one_engine_per_session", || run(1))
        .case("coalesced", || run(SESSIONS))
        .run();
}
