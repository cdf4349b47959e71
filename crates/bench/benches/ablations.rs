//! Ablation benches for the design choices DESIGN.md calls out:
//! engine sweep scaling, peripheral tick batching, and packet codec
//! throughput.

use peert_bench::timing::Bench;
use peert_mcu::board::Mcu;
use peert_mcu::{McuCatalog, McuSpec};
use peert_model::graph::Diagram;
use peert_model::library::math::Gain;
use peert_model::library::sources::SineWave;
use peert_model::Engine;
use peert_pil::packet::{Packet, PacketParser};

/// How the fixed-step sweep scales with the number of blocks — the cost of
/// the per-block dynamic dispatch + wire copying design.
fn engine_scaling() {
    let mut bench = Bench::new("ablation_engine_block_count");
    for n in [10usize, 100, 400] {
        let mut d = Diagram::new();
        let mut prev = d.add("src", SineWave::new(1.0, 10.0)).unwrap();
        for i in 0..n {
            let blk = d.add(format!("g{i}"), Gain::new(1.0001)).unwrap();
            d.connect((prev, 0), (blk, 0)).unwrap();
            prev = blk;
        }
        let mut e = Engine::new(d, 1e-3).unwrap();
        bench = bench.case(n.to_string(), move || {
            e.step().unwrap();
            e.time()
        });
    }
    bench.run();
}

/// Peripheral tick batching: advancing the MCU in one large window vs many
/// small ones (the event-timestamped peripheral design makes both exact;
/// this measures the overhead of window count alone).
fn mcu_tick_batching(spec: &McuSpec) {
    let mut bench = Bench::new("ablation_tick_batching");
    for windows in [1u64, 100, 10_000] {
        bench = bench.case(windows.to_string(), move || {
            let mut mcu = Mcu::new(spec);
            mcu.timers[0].configure(1, 60_000).unwrap();
            mcu.timers[0].start(0);
            let total = 600_000u64; // 10 ms
            for k in 1..=windows {
                mcu.advance_to(total * k / windows);
            }
            mcu.timers[0].rollovers()
        });
    }
    bench.run();
}

/// Packet codec throughput vs payload size.
fn packet_codec() {
    let mut bench = Bench::new("ablation_packet_codec");
    for n in [1usize, 8, 64] {
        let p = Packet::new(1, (0..n as i16).collect()).unwrap();
        bench = bench.case(n.to_string(), move || {
            let mut parser = PacketParser::new();
            let mut out = None;
            for byte in p.encode() {
                if let Some(pkt) = parser.push(byte) {
                    out = Some(pkt);
                }
            }
            out.unwrap()
        });
    }
    bench.run();
}

fn main() {
    let spec = McuCatalog::standard().find("MC56F8367").unwrap().clone();
    engine_scaling();
    mcu_tick_batching(&spec);
    packet_codec();
}
