//! Integration: the PIL phase across crates — MCU simulator + rtexec +
//! serial/packet + co-simulation, against the Fig 6.2 topology.

use peert::servo::ServoOptions;
use peert::workflow::{run_mil, run_pil};
use peert_control::setpoint::SetpointProfile;
use peert_mcu::McuCatalog;

fn opts_at(period: f64) -> ServoOptions {
    let mut o = ServoOptions {
        setpoint: SetpointProfile::from(0.0).at(0.02, 150.0),
        load_step: None,
        ..Default::default()
    };
    o.control_period_s = period;
    o.pid.ts = period;
    o
}

#[test]
fn pil_matches_mil_when_the_link_keeps_up() {
    let opts = opts_at(2e-3);
    let mil = run_mil(&opts, 0.4).unwrap();
    let (stats, speed) = run_pil(&opts, "MC56F8367", 115_200, 200).unwrap();
    assert_eq!(stats.deadline_misses, 0);
    let rms = speed.rms_diff(&mil.speed);
    assert!(rms < 10.0, "PIL trajectory within quantization of MIL: {rms}");
}

#[test]
fn comm_overhead_scales_inversely_with_baud() {
    let slow = run_pil(&opts_at(0.02), "MC56F8367", 9_600, 30).unwrap().0;
    let fast = run_pil(&opts_at(0.002), "MC56F8367", 115_200, 30).unwrap().0;
    let ratio = slow.mean_step_cycles() / fast.mean_step_cycles();
    assert!(
        (ratio - 12.0).abs() < 2.0,
        "12× baud ratio appears in the step time: {ratio}"
    );
}

#[test]
fn pil_on_the_coldfire_board_also_works() {
    // §5's portability extends to the PIL setup: a different dev board
    let (stats, _) = run_pil(&opts_at(2e-3), "MCF5213", 115_200, 100).unwrap();
    assert_eq!(stats.steps, 100);
    assert_eq!(stats.crc_errors, 0);
}

#[test]
fn infeasible_period_is_detected_not_hidden() {
    let (stats, _) = run_pil(&opts_at(1e-3), "MC56F8367", 115_200, 50).unwrap();
    assert_eq!(stats.deadline_misses, 50, "every 1 kHz step overruns at 115200 baud");
    let bus = McuCatalog::standard().find("MC56F8367").unwrap().bus_hz();
    let feasible = stats.min_feasible_period_s(bus);
    assert!(feasible > 1.3e-3 && feasible < 1.6e-3, "≈1.4 ms minimum: {feasible}");
}

#[test]
fn compute_time_is_a_small_fraction_at_rs232_speeds() {
    let (stats, _) = run_pil(&opts_at(2e-3), "MC56F8367", 115_200, 50).unwrap();
    assert!(stats.comm_fraction() > 0.9, "the paper's slow-line caveat: {}", stats.comm_fraction());
}

#[test]
fn pil_profiling_reports_the_comm_isr() {
    // the per-byte receive interrupt is visible in the board profile with
    // plausible counts: (5 overhead + 4 payload) bytes per inbound packet
    let opts = opts_at(2e-3);
    let spec = McuCatalog::standard().find("MC56F8367").unwrap().clone();
    let target = peert::target_pil::PilTarget::new();
    let controller = peert::servo::build_controller(&opts).unwrap();
    let (_, image) = target
        .build(
            &controller,
            "m",
            &spec,
            &peert_codegen::tlc::CodegenOptions::default(),
        )
        .unwrap();
    let cfg = peert_pil::cosim::PilConfig {
        link: peert_pil::cosim::LinkKind::Rs232 { baud: 115_200 },
        control_period_s: 2e-3,
        sensor_channels: 2,
        actuation_channels: 1,
        sensor_scale: 32_768.0,
        actuation_scale: 1.0,
        rx_isr_cycles: 60,
        corruption_prob: 0.0,
        noise_seed: 0,
        faults: Default::default(),
        arq: peert_pil::ArqConfig::FIRE_AND_FORGET,
        trace_capacity: 0,
    };
    let mut session = target
        .make_session(
            &spec,
            &image,
            cfg,
            peert::servo::pil_controller(&opts).unwrap(),
            peert::servo::pil_plant(&opts),
        )
        .unwrap();
    session.run(20).unwrap();
    let profile = session.executive().profile("comm_rx").unwrap();
    assert_eq!(profile.activations, 20 * 9, "one rx ISR per inbound byte");
    assert_eq!(profile.exec_min(), 60);
}
