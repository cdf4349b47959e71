//! Golden board timeline: the four PIL variants the repository
//! benchmark's design loop runs — {float, Q15 @ 250} × {SPI 2 MHz @ 1 ms,
//! RS-232 115 200 @ 2 ms} — under seeded ARQ fault schedules, pinned
//! cycle for cycle against `tests/golden/pil_timeline.txt`.
//!
//! Per step it pins the simulated step, comm-in, comm-out and compute
//! cycles; per run the ARQ retries and timeouts, the executive's
//! `ProfileReport` (idle, background and total cycles, lost interrupts,
//! stack high water, every task's exec/response/start-delta/jitter
//! histograms) and the controller-step profile. Any change to how the
//! executive, the peripherals or the PIL exchange loop spend simulated
//! time shows up here as a line diff.

use peert::servo::{ControllerArithmetic, ServoOptions};
use peert::workflow::make_pil_session_resilient;
use peert_control::pid::PidConfig;
use peert_pil::{ArqConfig, LinkKind};
use peert_rtexec::TaskProfile;
use peert_trace::LogHistogram;
use std::fmt::Write as _;

const GOLDEN: &str = "tests/golden/pil_timeline.txt";
const SEED: u64 = 7;

/// `(name, q15, rs232)` in the benchmark's variant order.
const VARIANTS: [(&str, bool, bool); 4] = [
    ("float-spi", false, false),
    ("q15-spi", true, false),
    ("float-rs232", false, true),
    ("q15-rs232", true, true),
];

fn hist(h: &LogHistogram) -> String {
    format!(
        "n={} min={} max={} sum={} p50={} p99={}",
        h.count(),
        h.min(),
        h.max(),
        h.sum(),
        h.percentile(0.5),
        h.percentile(0.99)
    )
}

fn task(out: &mut String, name: &str, t: &TaskProfile) {
    writeln!(out, "task {name} activations={}", t.activations).unwrap();
    writeln!(out, "  exec {}", hist(t.exec_hist())).unwrap();
    writeln!(out, "  response {}", hist(t.response_hist())).unwrap();
    writeln!(out, "  start_delta {}", hist(t.start_delta_hist())).unwrap();
    match t.sampling_jitter_hist() {
        Some(j) => writeln!(out, "  jitter {}", hist(j)).unwrap(),
        None => writeln!(out, "  jitter none").unwrap(),
    }
}

/// The rendered timeline of one variant.
fn timeline(case: u64, name: &str, q15: bool, rs232: bool) -> String {
    let period = if rs232 { 2e-3 } else { 1e-3 };
    let steps = if rs232 { 45 } else { 100 };
    let d = ServoOptions::default();
    let opts = ServoOptions {
        control_period_s: period,
        pid: PidConfig { ts: period, ..d.pid },
        arithmetic: if q15 {
            ControllerArithmetic::FixedQ15 { scale: 250.0 }
        } else {
            ControllerArithmetic::Float
        },
        ..d
    };
    let link = if rs232 {
        LinkKind::Rs232 { baud: 115_200 }
    } else {
        LinkKind::Spi { clock_hz: 2_000_000 }
    };
    let arq = ArqConfig::default();
    let faults = peert_verify::gen_arq_schedule(SEED, case, steps, arq.max_retries);
    let (mut session, _log) =
        make_pil_session_resilient(&opts, "MC56F8367", link, faults.clone(), arq, 0).unwrap();
    session.run(steps).unwrap();
    let st = session.stats();

    let mut out = String::new();
    writeln!(out, "variant {name} seed={SEED} case={case} steps={steps}").unwrap();
    writeln!(
        out,
        "faults corrupt={:?} drop={:?} drop_reply={:?}",
        faults.corrupt_steps, faults.drop_steps, faults.drop_reply_steps
    )
    .unwrap();
    for k in 0..st.step_cycles.len() {
        writeln!(
            out,
            "step {k} total={} in={} out={} compute={}",
            st.step_cycles[k], st.comm_in_cycles[k], st.comm_out_cycles[k], st.compute_cycles[k]
        )
        .unwrap();
    }
    writeln!(
        out,
        "arq retries={} timeouts={} duplicates={} failed={} deadline_misses={} crc_errors={}",
        st.retries,
        st.timeouts,
        st.duplicate_replies,
        st.failed_exchanges,
        st.deadline_misses,
        st.crc_errors
    )
    .unwrap();
    let trajectory = st
        .trajectory_y
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, y| (h ^ y.to_bits()).wrapping_mul(0x0100_0000_01b3));
    writeln!(out, "trajectory fnv={trajectory:016x}").unwrap();
    let r = session.executive().report();
    writeln!(
        out,
        "report idle={} background={} total={} lost_interrupts={} stack_high_water={} overflow={}",
        r.idle_cycles,
        r.background_cycles,
        r.total_cycles,
        r.lost_interrupts,
        r.stack_high_water,
        r.stack_overflow
    )
    .unwrap();
    for (name, t) in &r.tasks {
        task(&mut out, name, t);
    }
    task(&mut out, "ctl_step", session.ctl_profile());
    out
}

#[test]
fn design_loop_pil_variants_keep_their_golden_board_timeline() {
    let mut got = String::new();
    for (case, &(name, q15, rs232)) in VARIANTS.iter().enumerate() {
        got.push_str(&timeline(case as u64, name, q15, rs232));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let want = std::fs::read_to_string(&path).unwrap();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{GOLDEN}:{} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{GOLDEN} line count differs");
}
