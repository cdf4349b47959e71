//! Trace-overhead ablation: the PR-1 400-block chain stepped with the
//! tracer disabled (the default — one predictable branch per step) vs
//! enabled (ring writes + counter updates). The disabled case is the
//! number that must stay within 2 % of the untraced baseline.

use peert_bench::timing::Bench;
use peert_model::graph::Diagram;
use peert_model::library::math::Gain;
use peert_model::library::sources::SineWave;
use peert_model::Engine;

fn chain_engine(n: usize) -> Engine {
    let mut d = Diagram::new();
    let mut prev = d.add("src", SineWave::new(1.0, 10.0)).unwrap();
    for i in 0..n {
        let blk = d.add(format!("g{i}"), Gain::new(1.0001)).unwrap();
        d.connect((prev, 0), (blk, 0)).unwrap();
        prev = blk;
    }
    Engine::new(d, 1e-3).unwrap()
}

fn main() {
    let mut disabled = chain_engine(400);
    let mut enabled = chain_engine(400);
    enabled.enable_trace(1 << 12);
    Bench::new("trace_overhead_400_blocks")
        .case("disabled", || {
            disabled.step().unwrap();
            disabled.time()
        })
        .case("enabled", || {
            enabled.step().unwrap();
            enabled.time()
        })
        .run();
}
