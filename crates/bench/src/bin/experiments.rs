//! Regenerates every experiment (E1–E9) and prints the EXPERIMENTS.md
//! tables; `--json <path>` additionally dumps the raw rows.

use peert_bench::*;
use peert_trace::{JsonValue, ToJson};
use std::env;
use std::fs;

/// Write `blob` as JSON text to `path`, or exit 1 with the error.
fn write_json(path: &str, blob: &JsonValue) {
    if let Err(e) = fs::write(path, blob.render()) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let json_path = {
        let args: Vec<String> = env::args().collect();
        args.iter()
            .position(|a| a == "--json")
            .and_then(|i| args.get(i + 1).cloned())
    };

    println!("# PEERT reproduction — experiment report\n");

    println!("## E1 — Bean Inspector & expert-system validation (Fig 4.1, §4)\n");
    let e1 = e1_bean_inspector();
    println!("{:<52} {:<9} finding", "case", "verdict");
    for r in &e1 {
        println!(
            "{:<52} {:<9} {}",
            r.case,
            if r.accepted { "accepted" } else { "REJECTED" },
            r.finding.as_deref().unwrap_or("-")
        );
    }

    println!("\n## E2 — MIL servo case study (Figs 7.1/7.2, §7)\n");
    let e2 = e2_mil_servo();
    println!(
        "{:<58} {:>8} {:>9} {:>8} {:>8} {:>8}",
        "scenario", "rise[s]", "overshoot", "settle", "ss err", "IAE"
    );
    for r in &e2 {
        println!(
            "{:<58} {:>8.3} {:>9.3} {:>8.3} {:>8.2} {:>8.2}",
            r.scenario, r.rise_time, r.overshoot, r.settling_time, r.steady_state_error, r.iae
        );
    }

    println!("\n## E3 — peripheral-aware MIL: feedback ADC resolution (§5)\n");
    let e3 = e3_adc_resolution();
    println!("{:>5} {:>10} {:>12}", "bits", "IAE", "ripple RMS");
    for r in &e3 {
        let label = if r.bits == 0 { "enc".to_string() } else { r.bits.to_string() };
        println!("{label:>5} {:>10.2} {:>12.3}", r.iae, r.ripple_rms);
    }

    println!("\n## E4 — fixed point vs double on the catalog cores (§7)\n");
    let e4 = e4_fixed_point();
    println!(
        "{:<8} {:<12} {:>10} {:>10} {:>8} {:>12}",
        "arith", "target", "cyc/step", "µs/step", "util", "rms vs f64"
    );
    for r in &e4 {
        println!(
            "{:<8} {:<12} {:>10} {:>10.2} {:>7.2}% {:>12.3}",
            r.arithmetic,
            r.target,
            r.step_cycles,
            r.step_micros,
            r.utilization * 100.0,
            r.rms_vs_float
        );
    }

    println!("\n## E5 — code generation across the catalog (§2, §5)\n");
    let e5 = e5_codegen();
    println!(
        "{:<12} {:>5} {:>9} {:>8} {:>9} {:>9} {:>10}",
        "target", "LoC", "flash[B]", "RAM[B]", "cyc/step", "gen[µs]", "man-days"
    );
    for r in &e5 {
        if r.built {
            println!(
                "{:<12} {:>5} {:>9} {:>8} {:>9} {:>9} {:>10.1}",
                r.target, r.loc, r.flash_bytes, r.ram_bytes, r.step_cycles, r.gen_micros,
                r.manual_days
            );
        } else {
            println!("{:<12} build rejected: {}", r.target, r.error.as_deref().unwrap_or("?"));
        }
    }

    println!("\n## E6 — PIL link sweep: RS-232 (§6) and the §8 SPI extension\n");
    let e6 = e6_pil(150);
    println!(
        "{:<16} {:>9} {:>12} {:>10} {:>13} {:>7} {:>12}",
        "link", "period", "step[ms]", "comm frac", "min per.[ms]", "misses", "rms vs MIL"
    );
    for r in &e6 {
        println!(
            "{:<16} {:>9.4} {:>12.3} {:>9.1}% {:>13.3} {:>7} {:>12.3}",
            r.link,
            r.period_s,
            r.mean_step_ms,
            r.comm_fraction * 100.0,
            r.min_period_ms,
            r.deadline_misses,
            r.rms_vs_mil
        );
    }

    println!("\n## E7 — non-preemptive scheduling under background load (§5)\n");
    let e7 = e7_scheduling();
    println!(
        "{:>12} {:>14} {:>12} {:>6} {:>8} {:>10}",
        "burst[µs]", "resp max[µs]", "jitter[µs]", "lost", "util", "HIL IAE"
    );
    for r in &e7 {
        println!(
            "{:>12.0} {:>14.2} {:>12.2} {:>6} {:>7.1}% {:>10.2}",
            r.burst_micros,
            r.response_max_us,
            r.jitter_us,
            r.lost,
            r.utilization * 100.0,
            r.hil_iae
        );
    }

    println!("\n## E8 — one-click portability across the catalog (§1)\n");
    let e8 = e8_portability();
    println!("{:<12} {:<8} {:>10} {:>8} {:>10}", "target", "built", "µs/step", "util", "flash[B]");
    for r in &e8 {
        if r.built {
            println!(
                "{:<12} {:<8} {:>10.2} {:>7.2}% {:>10}",
                r.target,
                "yes",
                r.step_micros,
                r.utilization * 100.0,
                r.flash_bytes
            );
        } else {
            println!("{:<12} {:<8} {}", r.target, "NO", r.reason.as_deref().unwrap_or("?"));
        }
    }

    println!("\n## E9 — model⇄project sync convergence (§5 PES_COM)\n");
    println!("{:>6} {:>7} {:>7} {:>11} {:>10}", "seed", "edits", "syncs", "consistent", "conflicts");
    let mut e9 = Vec::new();
    for seed in 0..5 {
        let r = e9_sync(seed, 80);
        println!(
            "{seed:>6} {:>7} {:>7} {:>11} {:>10}",
            r.edits, r.syncs, r.consistent, r.conflicts
        );
        e9.push(r);
    }

    println!("\n## E11 — PIL line-noise fault injection\n");
    let e11 = e11_line_noise(150);
    println!("{:>12} {:>12} {:>11} {:>12}", "p(bitflip)", "dropped", "CRC errs", "rms vs MIL");
    for r in &e11 {
        println!(
            "{:>12.3} {:>11.1}% {:>11} {:>12.3}",
            r.corruption_prob,
            r.drop_fraction * 100.0,
            r.crc_errors,
            r.rms_vs_mil
        );
    }

    println!("\n## E10 — the validation ladder: MIL → PIL → HIL (§2, §6)\n");
    let e10 = e10_validation_ladder();
    println!("{:<6} {:>9} {:>13} {:>15}", "level", "IAE", "rms vs MIL", "worst step[µs]");
    for r in &e10 {
        println!(
            "{:<6} {:>9.2} {:>13.3} {:>15.1}",
            r.level, r.iae, r.rms_vs_mil, r.worst_step_us
        );
    }

    println!("\n## E12 — tracing overhead (400-block chain)\n");
    let e12 = e12_trace_overhead(20_000);
    println!("{:<10} {:>12} {:>10}", "tracer", "ns/step", "µs/step");
    for r in &e12 {
        println!("{:<10} {:>12.1} {:>10.2}", r.mode, r.ns_per_step, r.ns_per_step / 1e3);
    }
    write_json("BENCH_trace.json", &trace_summary(&e12));
    println!("\ntrace-overhead summary written to BENCH_trace.json");

    println!("\n## E16 — kernel tape: one engine vs batched lanes (400-block chain)\n");
    let e16 = e16_kernel(20_000);
    println!("{:<12} {:>6} {:>16} {:>10}", "engine", "lanes", "ns/step/lane", "speedup");
    let engine_ns = e16[0].ns_per_step_per_lane;
    for r in &e16 {
        println!(
            "{:<12} {:>6} {:>16.1} {:>9.2}x",
            r.engine, r.lanes, r.ns_per_step_per_lane, engine_ns / r.ns_per_step_per_lane
        );
    }
    write_json("BENCH_kernel.json", &kernel_summary(&e16));
    println!("\nkernel-backend summary written to BENCH_kernel.json");

    println!("\n## E17 — serving-layer throughput: coalesced vs per-session engines\n");
    let e17 = e17_serve(2_000);
    println!(
        "{:<24} {:>9} {:>11} {:>10} {:>12} {:>14}",
        "mode", "sessions", "steps each", "wall[ms]", "sessions/s", "p99 step[ns]"
    );
    for r in &e17 {
        println!(
            "{:<24} {:>9} {:>11} {:>10.2} {:>12.1} {:>14.0}",
            r.mode, r.sessions, r.steps_per_session, r.wall_ms, r.sessions_per_sec, r.p99_step_ns
        );
    }
    println!("\n## E18 — wire front-end overhead: loopback TCP vs in-process submission\n");
    let e18 = e18_wire(2_000);
    println!(
        "{:<16} {:>9} {:>11} {:>14} {:>10} {:>12}",
        "path", "sessions", "steps each", "submit[µs]", "wall[ms]", "sessions/s"
    );
    for r in &e18 {
        println!(
            "{:<16} {:>9} {:>11} {:>14.1} {:>10.2} {:>12.1}",
            r.path, r.sessions, r.steps_per_session, r.submit_us_mean, r.wall_ms,
            r.sessions_per_sec
        );
    }
    let (inproc, wire) = (&e18[0], &e18[1]);
    println!(
        "\nper-submission wire overhead: {:.1} µs ({:.2}x the in-process admission)",
        wire.submit_us_mean - inproc.submit_us_mean,
        wire.submit_us_mean / inproc.submit_us_mean
    );

    write_json("BENCH_serve.json", &serve_summary(&e17, &e18));
    println!("\nserve-throughput summary written to BENCH_serve.json");

    println!("\n## E19 — distributed control over the simulated CAN bus\n");
    let e19 = e19_bus(512);
    println!(
        "{:<12} {:>6} {:>8} {:>11} {:>11} {:>8} {:>14} {:>14}",
        "scenario", "steps", "frames", "bits/frame", "bits/step", "retries", "worst[cyc]", "bound[cyc]"
    );
    for r in &e19 {
        println!(
            "{:<12} {:>6} {:>8} {:>11.1} {:>11.1} {:>8} {:>14} {:>14}",
            r.scenario, r.steps, r.frames_sent, r.bits_per_frame, r.bits_per_step, r.retries,
            r.worst_delivery_cycles, r.bound_cycles
        );
        if r.worst_delivery_cycles > r.bound_cycles {
            eprintln!(
                "error: E19 {}: observed delivery latency {} exceeds the analytic bound {}",
                r.scenario, r.worst_delivery_cycles, r.bound_cycles
            );
            std::process::exit(1);
        }
    }
    write_json("BENCH_bus.json", &bus_summary(&e19));
    println!("\nbus-delay summary written to BENCH_bus.json");

    println!("\n## E20 — certified quantization-error analysis (peert-lint)\n");
    let e20 = e20_quant(20);
    println!(
        "{:<10} {:>6} {:>7} {:>12} {:>14} {:>14} {:>11} {:>6}",
        "family", "depth", "blocks", "lint[µs]", "affine", "interval", "tightening", "sites"
    );
    for r in &e20 {
        println!(
            "{:<10} {:>6} {:>7} {:>12.1} {:>14.3e} {:>14.3e} {:>10.2}x {:>6}",
            r.family, r.depth, r.blocks, r.analysis_us, r.affine_bound, r.interval_bound,
            r.tightening, r.sites
        );
    }
    write_json("BENCH_lint.json", &lint_summary(&e20));
    println!("\nquant-analysis summary written to BENCH_lint.json");

    if let Some(path) = json_path {
        let blob = JsonValue::object([
            ("e1", e1.to_json_value()),
            ("e2", e2.to_json_value()),
            ("e3", e3.to_json_value()),
            ("e4", e4.to_json_value()),
            ("e5", e5.to_json_value()),
            ("e6", e6.to_json_value()),
            ("e7", e7.to_json_value()),
            ("e8", e8.to_json_value()),
            ("e9", e9.to_json_value()),
            ("e10", e10.to_json_value()),
            ("e11", e11.to_json_value()),
            ("e12", e12.to_json_value()),
            ("e16", e16.to_json_value()),
            ("e17", e17.to_json_value()),
            ("e18", e18.to_json_value()),
            ("e19", e19.to_json_value()),
            ("e20", e20.to_json_value()),
        ]);
        write_json(&path, &blob);
        println!("\nraw rows written to {path}");
    }
}
