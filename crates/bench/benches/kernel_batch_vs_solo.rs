//! The kernel tape on the PR-1 400-block chain: one `Engine` vs the
//! batched SoA engine (per-lane time across 8 instances). The recorded
//! numbers live in BENCH_kernel.json (E16); this bench is the
//! interactive/CI view of the same comparison.

use peert_bench::timing::Bench;
use peert_model::graph::Diagram;
use peert_model::library::math::Gain;
use peert_model::library::sources::SineWave;
use peert_model::{BatchEngine, Engine};

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

fn main() {
    let mut compiled = Engine::new(chain(400), 1e-3).unwrap();
    let mut batched = BatchEngine::new(&chain(400), 1e-3, LANES).unwrap();
    Bench::new("kernel_batch_vs_solo_400_blocks")
        .case("compiled", || {
            compiled.step().unwrap();
            compiled.time()
        })
        .case("batched_8_lanes", || {
            batched.step();
            batched.time()
        })
        .run();
}
