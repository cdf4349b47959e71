//! CI perf smoke for batched lanes: over a cheap 2k-step run of the
//! 400-block chain, one lane of an 8-lane `Engine` must not cost more
//! per step than a one-lane `Engine`. Gated on `KERNEL_SMOKE=1` (wall-clock
//! compares are meaningless under an unloaded-machine assumption, so CI
//! opts in explicitly; the honest numbers live in BENCH_kernel.json /
//! E16).

use std::time::Instant;

use peert_model::graph::Diagram;
use peert_model::library::math::Gain;
use peert_model::library::sources::SineWave;
use peert_model::Engine;

const LANES: usize = 8;

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

/// Wall-clock seconds for `n` steps of `step`.
fn time_steps(n: u64, mut step: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..n {
        step();
    }
    t0.elapsed().as_secs_f64()
}

#[test]
fn batched_lane_is_not_slower_than_one_engine() {
    if std::env::var("KERNEL_SMOKE").as_deref() != Ok("1") {
        eprintln!("kernel_smoke: skipped (set KERNEL_SMOKE=1 to run)");
        return;
    }
    const STEPS: u64 = 2_000;
    let mut solo = Engine::new(chain(400), 1e-3).unwrap();
    let mut batch = Engine::with_lanes(chain(400), 1e-3, LANES, None).unwrap();
    let mut solo_step = || solo.step().unwrap();
    let mut batch_step = || batch.step().unwrap();
    // warmup, then interleaved rounds keeping the per-engine minimum so
    // transient load hits both configurations equally
    time_steps(STEPS / 4, &mut solo_step);
    time_steps(STEPS / 4, &mut batch_step);
    let (mut solo_best, mut lane_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..4 {
        solo_best = solo_best.min(time_steps(STEPS, &mut solo_step));
        lane_best = lane_best.min(time_steps(STEPS, &mut batch_step) / LANES as f64);
    }
    assert!(
        lane_best <= solo_best,
        "a batched lane is slower than one engine: {lane_best:.6}s vs {solo_best:.6}s over {STEPS} steps"
    );
}
