//! Deterministic ARQ soak: a long faulted PIL run whose every counter
//! is predicted exactly from the (seeded, reproducible) fault schedule,
//! and whose trajectory is proved bit-identical to the fault-free run —
//! retransmissions shift cycle timing, never values.
//!
//! The default run keeps tier-1 fast; `PIL_SOAK=1` stretches it to the
//! full 10⁵-step soak (CI runs that gate in release, see
//! `scripts/ci.sh`). The observed per-step recovery overhead is checked
//! against the analytic [`ArqTiming`] recovery bound, which is the E14
//! measurement from EXPERIMENTS.md.

use peert::servo::ServoOptions;
use peert::workflow::make_pil_session_resilient;
use peert_control::setpoint::SetpointProfile;
use peert_pil::cosim::LinkKind;
use peert_pil::{ArqConfig, FaultSchedule};
use peert_prop::Rng;

fn opts() -> ServoOptions {
    let mut o = ServoOptions {
        setpoint: SetpointProfile::from(0.0).at(0.02, 150.0),
        load_step: Some((0.35, 0.02)),
        ..Default::default()
    };
    o.control_period_s = 1e-3; // 1 kHz fits the SPI 2 MHz exchange budget
    o.pid.ts = 1e-3;
    o
}

const LINK: LinkKind = LinkKind::Spi { clock_hz: 2_000_000 };
const SEED: u64 = 0x50AC_2026;

/// Totals a soak schedule is built from — the oracle every traced
/// counter must match exactly.
#[derive(Default)]
struct Expected {
    total_faults: u64,
    corrupt: u64,
    drop_reply: u64,
    /// Per-step fault multiplicity (0 = clean step).
    mult: Vec<u32>,
}

/// The seeded soak schedule: roughly 1 step in 16 carries 1..=3 faults
/// (always within the retry budget of 3), split pseudo-randomly across
/// corrupt / drop-request / drop-reply. Pure function of (seed, steps):
/// the run is reproducible byte-for-byte.
fn soak_schedule(seed: u64, steps: u64) -> (FaultSchedule, Expected) {
    let mut faults = FaultSchedule::default();
    let mut exp = Expected { mult: vec![0; steps as usize], ..Default::default() };
    for step in 0..steps {
        let h = Rng::new(seed ^ step.wrapping_mul(0x9E37_79B9)).next_u64();
        if !h.is_multiple_of(16) {
            continue;
        }
        let mult = 1 + ((h >> 8) % 3) as u32; // 1..=3 ≤ max_retries
        exp.mult[step as usize] = mult;
        exp.total_faults += mult as u64;
        for k in 0..mult {
            match (h >> (16 + 2 * k)) % 3 {
                0 => {
                    faults.corrupt_steps.push(step);
                    exp.corrupt += 1;
                }
                1 => faults.drop_steps.push(step),
                _ => {
                    faults.drop_reply_steps.push(step);
                    exp.drop_reply += 1;
                }
            }
        }
    }
    (faults, exp)
}

fn soak_steps() -> u64 {
    if std::env::var("PIL_SOAK").ok().as_deref() == Some("1") {
        100_000
    } else {
        4_000
    }
}

#[test]
fn seeded_soak_recovers_every_fault_with_exact_accounting() {
    let steps = soak_steps();
    let arq = ArqConfig::default(); // budget 3, watchdog 3
    let (faults, exp) = soak_schedule(SEED, steps);
    assert!(exp.total_faults > steps / 20, "schedule too sparse to be a soak");

    let (mut session, log) =
        make_pil_session_resilient(&opts(), "MC56F8367", LINK, faults, arq, 1 << 12).unwrap();
    session.run(steps).unwrap();
    let stats = session.stats().clone();
    let speed = log.lock().unwrap().clone();

    // --- every counter equals its schedule-derived expectation ---
    assert_eq!(stats.steps, steps);
    assert_eq!(stats.retries, exp.total_faults, "one retransmission per scheduled fault");
    assert_eq!(stats.timeouts, exp.total_faults, "one expired deadline per scheduled fault");
    assert_eq!(stats.crc_errors, exp.corrupt);
    assert_eq!(stats.duplicate_replies, exp.drop_reply);
    assert_eq!(stats.failed_exchanges, 0, "an under-budget soak never fails an exchange");
    assert_eq!(stats.degraded_steps, 0);
    assert_eq!(stats.degraded_at_step, None);
    assert!(!session.is_degraded());

    // --- the faulted trajectory is bit-identical to the clean run ---
    let (mut clean_session, clean_log) = make_pil_session_resilient(
        &opts(),
        "MC56F8367",
        LINK,
        FaultSchedule::default(),
        arq,
        1 << 12,
    )
    .unwrap();
    clean_session.run(steps).unwrap();
    let clean_stats = clean_session.stats().clone();
    let clean_speed = clean_log.lock().unwrap().clone();
    assert_eq!(speed.y.len(), clean_speed.y.len());
    for (i, (a, b)) in speed.y.iter().zip(clean_speed.y.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "trajectory diverged at sample {i}");
    }

    // --- E14: observed recovery overhead vs the analytic bound ---
    let timing = session.arq_timing();
    let mut worst_extra = [0i64; 4]; // indexed by multiplicity 0..=3
    for s in 0..steps as usize {
        let extra = stats.step_cycles[s] as i64 - clean_stats.step_cycles[s] as i64;
        let m = exp.mult[s] as usize;
        worst_extra[m] = worst_extra[m].max(extra);
        // every timed wait (one timeout + one backoff per failed
        // attempt, plus the final resync) can overshoot by up to one
        // executive idle quantum, so allow that much on top of the
        // analytic bound
        let slack = (2 * m as i64 + 1) * 64;
        assert!(
            extra <= timing.recovery_bound_cycles(exp.mult[s]) as i64 + slack,
            "step {s} (multiplicity {m}) took {extra} extra cycles, bound {} (+{slack} slack)",
            timing.recovery_bound_cycles(exp.mult[s])
        );
    }
    assert_eq!(worst_extra[0], 0, "clean steps must not pay any ARQ overhead");
    eprintln!(
        "pil_soak: {steps} steps, {} faults over {} faulted steps \
         ({} corrupt / {} drop-req / {} drop-reply)",
        exp.total_faults,
        exp.mult.iter().filter(|&&m| m > 0).count(),
        exp.corrupt,
        exp.total_faults - exp.corrupt - exp.drop_reply,
        exp.drop_reply,
    );
    eprintln!(
        "pil_soak: E14 timing — timeout {} cy, backoff base {} cy (cap {} cy)",
        timing.timeout_cycles, timing.backoff_base, timing.backoff_cap
    );
    for m in 1..=3u32 {
        eprintln!(
            "pil_soak: E14 recovery, {m} fault(s): worst observed +{} cy, bound {} cy",
            worst_extra[m as usize],
            timing.recovery_bound_cycles(m)
        );
    }
}

#[test]
fn soak_survives_a_mid_run_blackout_and_degrades_cleanly() {
    // a blackout long enough to trip the watchdog in the middle of the
    // run: the session must complete every remaining step on the host
    // fallback without wedging, erroring or double-stepping
    let steps: u64 = 1_500;
    let arq = ArqConfig::default();
    let blackout_start: u64 = 400;
    let trip = blackout_start + arq.watchdog_failures as u64;
    let burst: Vec<u64> = (blackout_start..trip)
        .flat_map(|s| std::iter::repeat_n(s, (arq.max_retries + 1) as usize))
        .collect();
    let faults = FaultSchedule { drop_steps: burst, ..Default::default() };

    let (mut session, log) =
        make_pil_session_resilient(&opts(), "MC56F8367", LINK, faults, arq, 1 << 12).unwrap();
    session.run(steps).unwrap();
    let stats = session.stats().clone();

    assert_eq!(stats.steps, steps, "degraded session still completes the horizon");
    assert!(session.is_degraded());
    assert_eq!(stats.degraded_at_step, Some(trip));
    assert_eq!(stats.degraded_steps, steps - trip);
    assert_eq!(stats.failed_exchanges, arq.watchdog_failures as u64);
    assert_eq!(stats.timeouts, stats.retries + stats.failed_exchanges);

    // the loop keeps regulating on the fallback: the tail tracks the
    // 150 rad/s setpoint
    let speed = log.lock().unwrap().clone();
    let tail = *speed.y.last().expect("trajectory recorded");
    assert!(
        (tail - 150.0).abs() < 5.0,
        "fallback failed to keep regulating (final speed {tail})"
    );
}
