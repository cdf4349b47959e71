//! The E1–E9 experiment implementations.

use peert::servo::{
    build_controller, build_servo_model, ControllerArithmetic, Feedback, ServoOptions,
};
use peert::target_peert::PeertTarget;
use peert::hil::{run_hil, run_hil_loaded};
use peert::workflow::{run_mil, run_pil, run_pil_link, run_pil_noisy};
use peert_beans::bean::{Bean, BeanConfig, Severity};
use peert_beans::catalog::{AdcBean, PwmBean, QuadDecBean, SerialBean, TimerIntBean};
use peert_beans::{ExpertSystem, Inspector, PeProject, PropertyValue};
use peert_codegen::tlc::{Arithmetic, CodegenOptions};
use peert_codegen::{generate_controller, TaskImage};
use peert_control::metrics::StepMetrics;
use peert_control::setpoint::SetpointProfile;
use peert_mcu::board::vectors;
use peert_mcu::{McuCatalog, McuSpec};
use peert_model::lock;
use peert_trace::json_struct;
use peert_rtexec::Executive;

fn catalog() -> McuCatalog {
    McuCatalog::standard()
}

/// Map `f` over `items` in parallel — one scoped thread and one engine
/// per configuration (the sweeps have at most seven) — joining in
/// submit order, so the result vector (and any JSON serialized from
/// it) is byte-identical to the serial `items.into_iter().map(f).collect()`.
fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|s| {
        let cases: Vec<_> = items.into_iter().map(|item| s.spawn(move || f(item))).collect();
        cases.into_iter().map(|case| case.join().expect("sweep case panicked")).collect()
    })
}

fn mc56() -> McuSpec {
    catalog().find("MC56F8367").unwrap().clone()
}

/// The PR-1 400-block Gain chain every engine ablation steps
/// (E12/E16/E17 and the kernel/serve benches): one sine
/// source feeding 400 slightly-amplifying gains.
fn ablation_chain() -> peert_model::Diagram {
    use peert_model::library::math::Gain;
    use peert_model::library::sources::SineWave;
    let mut d = peert_model::Diagram::new();
    let mut prev = d.add("src", SineWave::new(1.0, 10.0)).unwrap();
    for i in 0..400 {
        let blk = d.add(format!("g{i}"), Gain::new(1.0001)).unwrap();
        d.connect((prev, 0), (blk, 0)).unwrap();
        prev = blk;
    }
    d
}

fn quick_servo() -> ServoOptions {
    ServoOptions {
        setpoint: SetpointProfile::from(0.0).at(0.02, 150.0),
        load_step: None,
        ..Default::default()
    }
}

// ---------------------------------------------------------------- E1 ----

json_struct! {
    /// One E1 row: a configuration attempt and the expert system's verdict.
    #[derive(Clone, Debug)]
    pub struct E1Row {
        /// What was attempted.
        pub case: String,
        /// Whether the expert system accepted it.
        pub accepted: bool,
        /// First finding message, if any.
        pub finding: Option<String>,
    }
}

/// E1 — Bean Inspector & expert validation (Fig 4.1, §4): invalid hardware
/// settings must be rejected at design time, valid ones auto-completed.
pub fn e1_bean_inspector() -> Vec<E1Row> {
    let spec = mc56();
    let mut rows = Vec::new();
    let mut check = |case: &str, findings: Vec<peert_beans::Finding>| {
        let errors: Vec<_> =
            findings.iter().filter(|f| f.severity == Severity::Error).collect();
        rows.push(E1Row {
            case: case.into(),
            accepted: errors.is_empty(),
            finding: errors.first().map(|f| f.message.clone()),
        });
    };

    check("1 kHz TimerInt on MC56F8367", TimerIntBean::new(1e-3).validate("TI", &spec));
    check("1-hour TimerInt (unreachable)", TimerIntBean::new(3600.0).validate("TI", &spec));
    check("12-bit ADC on MC56F8367", AdcBean::new(12, 0).validate("AD", &spec));
    check(
        "12-bit ADC on MC9S12DP256 (8/10-bit converter)",
        AdcBean::new(12, 0).validate("AD", catalog().find("MC9S12DP256").unwrap()),
    );
    check("20 kHz PWM on MC56F8367", PwmBean::new(20_000.0).validate("PWM", &spec));
    check("10 MHz PWM (reachable but only 7 duty levels)", PwmBean::new(1e7).validate("PWM", &spec));
    check("40 MHz PWM (beyond the 60 MHz bus)", PwmBean::new(4e7).validate("PWM", &spec));
    check(
        "QuadDecoder on MC9S08GB60 (no decoder block)",
        QuadDecBean::new(100).validate("QD", catalog().find("MC9S08GB60").unwrap()),
    );
    check("115200 baud SCI on MC56F8367", SerialBean::new(115_200).validate("RS", &spec));

    // inspector edit rollback: an invalid edit must be refused
    let mut bean = Bean { name: "AD1".into(), config: BeanConfig::Adc(AdcBean::new(12, 0)) };
    let refused =
        Inspector::set(&mut bean, "resolution [bits]", PropertyValue::Int(14), Some(&spec))
            .is_err();
    rows.push(E1Row {
        case: "Inspector edit to unsupported 14 bits".into(),
        accepted: !refused,
        finding: refused.then(|| "edit refused and rolled back".into()),
    });

    // pin conflict across beans
    let mut p = PeProject::new("MC56F8367");
    p.add(Bean {
        name: "B1".into(),
        config: BeanConfig::BitIo(peert_beans::catalog::BitIoBean::input(0, 3)),
    })
    .unwrap();
    p.add(Bean {
        name: "B2".into(),
        config: BeanConfig::BitIo(peert_beans::catalog::BitIoBean::output(0, 3)),
    })
    .unwrap();
    let (findings, alloc) = ExpertSystem::check(&p, &spec);
    rows.push(E1Row {
        case: "two beans on pin 0.3".into(),
        accepted: alloc.is_some(),
        finding: findings.first().map(|f| f.message.clone()),
    });
    rows
}

// ---------------------------------------------------------------- E2 ----

json_struct! {
    /// E2 row: MIL servo step-response metrics.
    #[derive(Clone, Debug)]
    pub struct E2Row {
        /// Scenario label.
        pub scenario: String,
        /// 10–90 % rise time (s).
        pub rise_time: f64,
        /// Overshoot fraction.
        pub overshoot: f64,
        /// 2 % settling time (s).
        pub settling_time: f64,
        /// Steady-state error (rad/s).
        pub steady_state_error: f64,
        /// IAE.
        pub iae: f64,
    }
}

fn metrics_row(scenario: &str, m: &StepMetrics) -> E2Row {
    E2Row {
        scenario: scenario.into(),
        rise_time: m.rise_time,
        overshoot: m.overshoot,
        settling_time: m.settling_time,
        steady_state_error: m.steady_state_error,
        iae: m.iae,
    }
}

/// E2 — the MIL servo case study (Figs 7.1/7.2): step response and load
/// disturbance rejection.
pub fn e2_mil_servo() -> Vec<E2Row> {
    let mut rows = Vec::new();
    let mil = run_mil(&quick_servo(), 0.8).unwrap();
    rows.push(metrics_row("step to 150 rad/s (no load)", &mil.metrics));

    let loaded = ServoOptions { load_step: Some((0.5, 0.05)), ..quick_servo() };
    let mut model = build_servo_model(&loaded).unwrap();
    model.run(1.2).unwrap();
    let log = lock(&model.speed_log).clone();
    // dip depth + recovery after the load step
    let before = log.sample_at(0.49).unwrap();
    let worst = log
        .t
        .iter()
        .zip(&log.y)
        .filter(|(t, _)| **t >= 0.5 && **t <= 0.7)
        .map(|(_, y)| *y)
        .fold(f64::INFINITY, f64::min);
    let recovered = log.sample_at(1.15).unwrap();
    rows.push(E2Row {
        scenario: format!(
            "load step 0.05 N·m: dip {:.1} → recovered {:.1} rad/s",
            before - worst,
            recovered
        ),
        rise_time: f64::NAN,
        overshoot: f64::NAN,
        settling_time: f64::NAN,
        steady_state_error: 150.0 - recovered,
        iae: f64::NAN,
    });
    rows
}

// ---------------------------------------------------------------- E3 ----

json_struct! {
    /// E3 row: control quality vs feedback ADC resolution.
    #[derive(Clone, Debug)]
    pub struct E3Row {
        /// ADC resolution in bits (0 = ideal/unquantized feedback).
        pub bits: u8,
        /// IAE of the step response.
        pub iae: f64,
        /// RMS speed ripple at steady state (rad/s).
        pub ripple_rms: f64,
    }
}

/// The ADC resolutions E3 sweeps; `0` is the ideal-encoder reference.
const E3_BITS: [u8; 7] = [4, 6, 8, 10, 12, 16, 0];

/// One E3 configuration: its own servo model and engine, end to end.
fn e3_case(bits: u8) -> E3Row {
    let opts = if bits == 0 {
        quick_servo()
    } else {
        ServoOptions {
            feedback: Feedback::AnalogTacho { resolution_bits: bits, full_scale: 250.0 },
            ..quick_servo()
        }
    };
    let mut model = build_servo_model(&opts).unwrap();
    model.run(0.8).unwrap();
    let log = lock(&model.speed_log).clone();
    let m = StepMetrics::from_response(&log.t, &log.y, 150.0, 0.02);
    if bits == 0 {
        return E3Row { bits, iae: m.iae, ripple_rms: 0.0 };
    }
    // steady-state ripple over the last 0.2 s
    let tail: Vec<f64> = log
        .t
        .iter()
        .zip(&log.y)
        .filter(|(t, _)| **t > 0.6)
        .map(|(_, y)| *y - 150.0)
        .collect();
    let ripple = (tail.iter().map(|e| e * e).sum::<f64>() / tail.len() as f64).sqrt();
    E3Row { bits, iae: m.iae, ripple_rms: ripple }
}

/// E3 — single-model hardware fidelity (§5): MIL with the real peripheral
/// resolution differs measurably from idealized MIL. The configurations
/// are independent, so the sweep fans out one engine per thread.
pub fn e3_adc_resolution() -> Vec<E3Row> {
    par_map(E3_BITS.to_vec(), e3_case)
}

/// Serial reference path of [`e3_adc_resolution`] (determinism tests).
pub fn e3_adc_resolution_serial() -> Vec<E3Row> {
    E3_BITS.into_iter().map(e3_case).collect()
}

// ---------------------------------------------------------------- E4 ----

json_struct! {
    /// E4 row: fixed-point vs float controller.
    #[derive(Clone, Debug)]
    pub struct E4Row {
        /// Arithmetic label.
        pub arithmetic: String,
        /// Target MCU.
        pub target: String,
        /// Controller step cost in cycles.
        pub step_cycles: u64,
        /// Step time in µs.
        pub step_micros: f64,
        /// CPU utilization at 1 kHz.
        pub utilization: f64,
        /// RMS trajectory deviation from the float MIL reference (rad/s).
        pub rms_vs_float: f64,
    }
}

/// E4 — fixed point vs double (§7): quality loss is negligible, cycle cost
/// on the FPU-less 16-bit part is dramatically lower.
pub fn e4_fixed_point() -> Vec<E4Row> {
    let float_opts = quick_servo();
    let mut float_model = build_servo_model(&float_opts).unwrap();
    float_model.run(0.6).unwrap();
    let float_log = lock(&float_model.speed_log).clone();

    let mut rows = Vec::new();
    for (label, arith, copts) in [
        ("double", ControllerArithmetic::Float, Arithmetic::Float),
        ("Q15", ControllerArithmetic::FixedQ15 { scale: 250.0 }, Arithmetic::FixedQ15),
    ] {
        let opts = ServoOptions { arithmetic: arith, ..quick_servo() };
        let mut model = build_servo_model(&opts).unwrap();
        model.run(0.6).unwrap();
        let log = lock(&model.speed_log).clone();
        let rms = log.rms_diff(&float_log);

        let controller = build_controller(&opts).unwrap();
        let target = PeertTarget::new();
        let code = generate_controller(
            &controller,
            "servo",
            &CodegenOptions { arithmetic: copts, dt: 1e-3 },
            peert_codegen::target::Target::registry(&target),
        )
        .unwrap();
        for mcu in ["MC56F8367", "MPC5554"] {
            let spec = catalog().find(mcu).unwrap().clone();
            let image = TaskImage::build(&code, &spec);
            rows.push(E4Row {
                arithmetic: label.into(),
                target: mcu.into(),
                step_cycles: image.step_cycles,
                step_micros: image.step_time_secs(&spec) * 1e6,
                utilization: image.utilization(&spec, 1e-3),
                rms_vs_float: rms,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- E5 ----

json_struct! {
    /// E5 row: code generation metrics per target MCU.
    #[derive(Clone, Debug)]
    pub struct E5Row {
        /// Target MCU (or "manual baseline").
        pub target: String,
        /// Whether the build succeeded.
        pub built: bool,
        /// Generated LoC.
        pub loc: usize,
        /// Flash bytes.
        pub flash_bytes: u32,
        /// RAM bytes.
        pub ram_bytes: u32,
        /// Step cycles.
        pub step_cycles: u64,
        /// Generation time in µs.
        pub gen_micros: u128,
        /// Equivalent manual effort (days at the §2 rate of 6 LoC/day).
        pub manual_days: f64,
        /// Failure reason when not built.
        pub error: Option<String>,
    }
}

/// E5 — code generation across the catalog (§2, §3, §5): LoC, footprint,
/// generation time, and the §2 manual-productivity contrast.
pub fn e5_codegen() -> Vec<E5Row> {
    let opts = quick_servo();
    let mut rows = Vec::new();
    for spec in catalog().specs() {
        match peert::workflow::run_codegen(&opts, &spec.name) {
            Ok(out) => rows.push(E5Row {
                target: spec.name.clone(),
                built: true,
                loc: out.report.loc,
                flash_bytes: out.report.flash_bytes,
                ram_bytes: out.report.ram_bytes,
                step_cycles: out.report.step_cycles,
                gen_micros: out.report.gen_micros,
                manual_days: out.report.manual_days_equivalent,
                error: None,
            }),
            Err(e) => rows.push(E5Row {
                target: spec.name.clone(),
                built: false,
                loc: 0,
                flash_bytes: 0,
                ram_bytes: 0,
                step_cycles: 0,
                gen_micros: 0,
                manual_days: 0.0,
                error: Some(e),
            }),
        }
    }
    rows
}

// ---------------------------------------------------------------- E6 ----

json_struct! {
    /// E6 row: PIL behaviour vs link speed.
    #[derive(Clone, Debug)]
    pub struct E6Row {
        /// Link label (e.g. "RS-232 9600", "SPI 2 MHz").
        pub link: String,
        /// Control period used (s).
        pub period_s: f64,
        /// Mean step duration (ms).
        pub mean_step_ms: f64,
        /// Communication fraction of a step.
        pub comm_fraction: f64,
        /// Minimum feasible control period (ms).
        pub min_period_ms: f64,
        /// Deadline misses.
        pub deadline_misses: u64,
        /// RMS deviation of the PIL speed trajectory from MIL (rad/s).
        pub rms_vs_mil: f64,
    }
}

/// The links E6 sweeps: label, link kind, control period.
fn e6_cases() -> Vec<(String, peert_pil::cosim::LinkKind, f64)> {
    use peert_pil::cosim::LinkKind;
    vec![
        ("RS-232 9600".into(), LinkKind::Rs232 { baud: 9_600 }, 0.02),
        ("RS-232 19200".into(), LinkKind::Rs232 { baud: 19_200 }, 0.01),
        ("RS-232 57600".into(), LinkKind::Rs232 { baud: 57_600 }, 0.004),
        ("RS-232 115200".into(), LinkKind::Rs232 { baud: 115_200 }, 0.002),
        ("RS-232 460800".into(), LinkKind::Rs232 { baud: 460_800 }, 0.001),
        // the §8 future-work link on the open simulator target
        ("SPI 2 MHz".into(), LinkKind::Spi { clock_hz: 2_000_000 }, 0.001),
    ]
}

/// One E6 link case: its own MIL engine and PIL co-simulation session.
fn e6_case(label: String, link: peert_pil::cosim::LinkKind, period: f64, steps: u64) -> E6Row {
    let bus_hz = mc56().bus_hz();
    let mut opts = quick_servo();
    opts.control_period_s = period;
    opts.pid.ts = period;
    let mil = run_mil(&opts, steps as f64 * period).unwrap();
    let (stats, speed) = run_pil_link(&opts, "MC56F8367", link, steps).unwrap();
    E6Row {
        link: label,
        period_s: period,
        mean_step_ms: stats.mean_step_cycles() / bus_hz * 1e3,
        comm_fraction: stats.comm_fraction(),
        min_period_ms: stats.min_feasible_period_s(bus_hz) * 1e3,
        deadline_misses: stats.deadline_misses,
        rms_vs_mil: speed.rms_diff(&mil.speed),
    }
}

/// E6 — PIL simulation (Fig 6.2, §6): RS-232 time dominates, overhead
/// scales with 1/baud, the trajectory matches MIL within quantization.
/// Every link case is an independent MIL + PIL pair, so the sweep fans
/// out one case per thread.
pub fn e6_pil(steps: u64) -> Vec<E6Row> {
    par_map(e6_cases(), move |(label, link, period)| e6_case(label, link, period, steps))
}

/// Serial reference path of [`e6_pil`] (determinism tests).
pub fn e6_pil_serial(steps: u64) -> Vec<E6Row> {
    e6_cases().into_iter().map(|(label, link, period)| e6_case(label, link, period, steps)).collect()
}

// ---------------------------------------------------------------- E7 ----

json_struct! {
    /// E7 row: scheduling behaviour under background load.
    #[derive(Clone, Debug)]
    pub struct E7Row {
        /// Background burst length (µs of non-preemptible work).
        pub burst_micros: f64,
        /// Max interrupt response (µs).
        pub response_max_us: f64,
        /// Sampling jitter (µs, peak deviation from the 1 ms grid).
        pub jitter_us: f64,
        /// Lost timer activations.
        pub lost: u64,
        /// CPU utilization.
        pub utilization: f64,
        /// Closed-loop IAE of the HIL servo under the same load (the §1
        /// quality-degradation column).
        pub hil_iae: f64,
    }
}

/// E7 — scheduling & jitter (§5 non-preemptive execution): response time
/// and sampling jitter grow with background load; overload loses samples.
pub fn e7_scheduling() -> Vec<E7Row> {
    let spec = mc56();
    let bus = spec.bus_hz();
    let mut rows = Vec::new();
    for burst_us in [0.0f64, 50.0, 200.0, 500.0, 900.0, 1500.0] {
        let mut mcu = peert_mcu::board::Mcu::new(&spec);
        mcu.intc.configure(vectors::timer(0), 5);
        mcu.timers[0].configure(1, 60_000).unwrap(); // 1 kHz
        mcu.timers[0].start(0);
        let mut exec = Executive::new(mcu);
        exec.attach(vectors::timer(0), "ctl", 3_000, 64, None); // 50 µs body
        if burst_us > 0.0 {
            exec.set_background_burst(Some((burst_us * bus / 1e6) as u64));
        }
        exec.start();
        exec.run_for_secs(0.5);
        let p = exec.profile("ctl").unwrap().clone();
        let report = exec.report();
        // the same load applied to the real closed loop (HIL): §1's
        // "timing variations ... degrade the control performance"
        let burst_cycles = (burst_us * bus / 1e6) as u64;
        let hil = run_hil_loaded(
            &quick_servo(),
            "MC56F8367",
            0.4,
            (burst_cycles > 0).then_some(burst_cycles),
        )
        .unwrap();
        let hil_iae = StepMetrics::from_response(&hil.speed.t, &hil.speed.y, 150.0, 0.02).iae;
        rows.push(E7Row {
            burst_micros: burst_us,
            response_max_us: p.response_max() as f64 / bus * 1e6,
            jitter_us: p.start_jitter(60_000) as f64 / bus * 1e6,
            lost: report.lost_interrupts,
            utilization: report.utilization(),
            hil_iae,
        });
    }
    rows
}

// ---------------------------------------------------------------- E8 ----

json_struct! {
    /// E8 row: portability of the unchanged model across the catalog.
    #[derive(Clone, Debug)]
    pub struct E8Row {
        /// Target part.
        pub target: String,
        /// Whether the retarget built.
        pub built: bool,
        /// Step cost in µs on that part.
        pub step_micros: f64,
        /// Utilization at 1 kHz.
        pub utilization: f64,
        /// Flash bytes.
        pub flash_bytes: u32,
        /// Rejection reason if not built.
        pub reason: Option<String>,
    }
}

/// One E8 retarget attempt: full codegen against a single catalog part.
fn e8_case(target: String) -> E8Row {
    let opts = quick_servo();
    match peert::workflow::run_codegen(&opts, &target) {
        Ok(out) => E8Row {
            target,
            built: true,
            step_micros: out.image.step_time_secs(&out.spec) * 1e6,
            utilization: out.image.utilization(&out.spec, 1e-3),
            flash_bytes: out.image.flash_bytes,
            reason: None,
        },
        Err(e) => E8Row {
            target,
            built: false,
            step_micros: f64::NAN,
            utilization: f64::NAN,
            flash_bytes: 0,
            reason: Some(e),
        },
    }
}

/// The catalog parts E8 retargets to.
fn e8_targets() -> Vec<String> {
    catalog().specs().iter().map(|s| s.name.clone()).collect()
}

/// E8 — portability (§1, §3.1): the unchanged servo model retargets by
/// swapping the CPU bean; parts lacking a required peripheral are rejected
/// by the expert system with a named finding. Each retarget is an
/// independent codegen run, so the sweep fans out one part per thread.
pub fn e8_portability() -> Vec<E8Row> {
    par_map(e8_targets(), e8_case)
}

/// Serial reference path of [`e8_portability`] (determinism tests).
pub fn e8_portability_serial() -> Vec<E8Row> {
    e8_targets().into_iter().map(e8_case).collect()
}

// ---------------------------------------------------------------- E9 ----

json_struct! {
    /// E9 summary: sync convergence under a randomized edit sequence.
    #[derive(Clone, Debug)]
    pub struct E9Row {
        /// Number of random edits applied.
        pub edits: usize,
        /// Syncs performed.
        pub syncs: usize,
        /// Whether model and project converged.
        pub consistent: bool,
        /// Conflicts recorded.
        pub conflicts: usize,
    }
}

/// E9 — model⇄project sync (§5 PES_COM): random interleaved edits on both
/// sides converge after sync.
pub fn e9_sync(seed: u64, edits: usize) -> E9Row {
    let mut rng = peert_prop::Rng::new(seed);
    let mut s = peert::sync::SyncedProject::new("MC56F8367");
    let mut counter = 0usize;
    let mut names: Vec<String> = Vec::new();
    let mut syncs = 0usize;
    for _ in 0..edits {
        let model_side = rng.chance(1, 2);
        match rng.below(4) {
            0 => {
                let name = format!("B{counter}");
                counter += 1;
                let cfg = BeanConfig::TimerInt(TimerIntBean::new(1e-3));
                let ok = if model_side {
                    s.model_add(&name, cfg).is_ok()
                } else {
                    s.project_add(&name, cfg).is_ok()
                };
                if ok {
                    names.push(name);
                }
            }
            1 if !names.is_empty() => {
                let i = rng.below(names.len() as u64) as usize;
                let name = names[i].clone();
                // remove may fail if the other side hasn't synced it yet
                let ok = if model_side {
                    s.model_remove(&name).is_ok()
                } else {
                    s.project_remove(&name).is_ok()
                };
                if ok {
                    names.remove(i);
                }
            }
            2 if !names.is_empty() => {
                let i = rng.below(names.len() as u64) as usize;
                let new = format!("B{counter}");
                counter += 1;
                let ok = if model_side {
                    s.model_rename(&names[i], &new).is_ok()
                } else {
                    s.project_rename(&names[i], &new).is_ok()
                };
                if ok {
                    names[i] = new;
                }
            }
            _ => {
                s.sync();
                syncs += 1;
            }
        }
    }
    s.sync();
    syncs += 1;
    E9Row { edits, syncs, consistent: s.is_consistent(), conflicts: s.conflicts().len() }
}

// --------------------------------------------------------------- E11 ----

json_struct! {
    /// E11 row: PIL robustness under line noise.
    #[derive(Clone, Debug)]
    pub struct E11Row {
        /// Per-byte bit-flip probability on the wire.
        pub corruption_prob: f64,
        /// Fraction of exchanges lost to CRC failures.
        pub drop_fraction: f64,
        /// CRC errors detected by the board.
        pub crc_errors: u64,
        /// RMS deviation of the PIL trajectory from clean MIL (rad/s).
        pub rms_vs_mil: f64,
    }
}

/// E11 — line-noise fault injection on the PIL link: corrupted frames are
/// always CRC-detected (never silently wrong), the loop degrades
/// gracefully by holding its last actuation, and quality falls
/// monotonically with the error rate.
pub fn e11_line_noise(steps: u64) -> Vec<E11Row> {
    use peert_pil::cosim::LinkKind;
    let mut opts = quick_servo();
    opts.control_period_s = 2e-3;
    opts.pid.ts = 2e-3;
    let mil = run_mil(&opts, steps as f64 * 2e-3).unwrap();
    let mut rows = Vec::new();
    for p in [0.0, 0.001, 0.005, 0.02, 0.05] {
        let (stats, speed) = run_pil_noisy(
            &opts,
            "MC56F8367",
            LinkKind::Rs232 { baud: 115_200 },
            p,
            steps,
        )
        .unwrap();
        rows.push(E11Row {
            corruption_prob: p,
            drop_fraction: stats.failed_exchanges as f64 / stats.steps as f64,
            crc_errors: stats.crc_errors,
            rms_vs_mil: speed.rms_diff(&mil.speed),
        });
    }
    rows
}

// --------------------------------------------------------------- E10 ----

json_struct! {
    /// E10 row: one validation level of the §6 V-cycle.
    #[derive(Clone, Debug)]
    pub struct E10Row {
        /// Validation level ("MIL" / "PIL" / "HIL").
        pub level: String,
        /// Step-response IAE toward 150 rad/s.
        pub iae: f64,
        /// RMS deviation from the MIL reference (rad/s).
        pub rms_vs_mil: f64,
        /// Worst timer-ISR/exchange duration observed (µs), NaN for MIL.
        pub worst_step_us: f64,
    }
}

/// E10 — the full validation ladder (§2/§6): MIL → PIL → HIL on the same
/// model; each level adds implementation detail while the trajectory
/// stays consistent.
pub fn e10_validation_ladder() -> Vec<E10Row> {
    let bus = mc56().bus_hz();
    let mut opts = quick_servo();
    opts.control_period_s = 2e-3; // feasible for the RS-232 PIL link
    opts.pid.ts = 2e-3;
    let horizon = 0.5;

    let mil = run_mil(&opts, horizon).unwrap();
    let mil_iae =
        StepMetrics::from_response(&mil.speed.t, &mil.speed.y, 150.0, 0.02).iae;

    let (pil_stats, pil_speed) =
        run_pil(&opts, "MC56F8367", 115_200, (horizon / opts.control_period_s) as u64).unwrap();
    let pil_iae = StepMetrics::from_response(&pil_speed.t, &pil_speed.y, 150.0, 0.02).iae;

    let hil = run_hil(&opts, "MC56F8367", horizon).unwrap();
    let hil_iae = StepMetrics::from_response(&hil.speed.t, &hil.speed.y, 150.0, 0.02).iae;
    let hil_worst = hil.profile.tasks["ctl_step"].exec_max() as f64 / bus * 1e6;

    vec![
        E10Row { level: "MIL".into(), iae: mil_iae, rms_vs_mil: 0.0, worst_step_us: f64::NAN },
        E10Row {
            level: "PIL".into(),
            iae: pil_iae,
            rms_vs_mil: pil_speed.rms_diff(&mil.speed),
            worst_step_us: pil_stats.step_cycles.iter().copied().max().unwrap_or(0) as f64 / bus
                * 1e6,
        },
        E10Row {
            level: "HIL".into(),
            iae: hil_iae,
            rms_vs_mil: hil.speed.rms_diff(&mil.speed),
            worst_step_us: hil_worst,
        },
    ]
}

// ---------------------------------------------------------------- E12 ----

json_struct! {
    /// One trace-overhead measurement on the 400-block ablation chain.
    #[derive(Clone, Debug)]
    pub struct E12Row {
        /// Tracer state: "disabled" or "enabled".
        pub mode: String,
        /// Steps timed (after a 10 % warmup).
        pub steps: u64,
        /// Mean wall-clock nanoseconds per engine step.
        pub ns_per_step: f64,
    }
}

/// E12 — tracing overhead: the PR-1 400-block chain stepped with the
/// tracer disabled (one predictable branch per step, the configuration
/// every MIL run ships with) vs enabled (ring writes + counters).
pub fn e12_trace_overhead(steps: u64) -> Vec<E12Row> {
    use peert_model::Engine;

    let build = || Engine::new(ablation_chain(), 1e-3).unwrap();
    let mut plain = build();
    let mut traced = build();
    traced.enable_trace(1 << 12);
    let chunk = |e: &mut Engine, n: u64| {
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            e.step().unwrap();
        }
        t0.elapsed().as_nanos() as f64 / n as f64
    };
    // interleave the two configurations and keep the per-mode minimum, so
    // frequency scaling or a transient background load hits both equally
    let rounds = 10;
    let per_round = (steps / rounds).max(1);
    chunk(&mut plain, per_round); // warmup
    chunk(&mut traced, per_round);
    let (mut disabled, mut enabled) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        disabled = disabled.min(chunk(&mut plain, per_round));
        enabled = enabled.min(chunk(&mut traced, per_round));
    }
    vec![
        E12Row { mode: "disabled".into(), steps, ns_per_step: disabled },
        E12Row { mode: "enabled".into(), steps, ns_per_step: enabled },
    ]
}

// ---------------------------------------------------------------- E16 ----

json_struct! {
    /// One engine configuration timed on the 400-block ablation chain.
    #[derive(Clone, Debug)]
    pub struct E16Row {
        /// Engine configuration: "compiled" or "batched".
        pub engine: String,
        /// Steps timed per round (after warmup).
        pub steps: u64,
        /// Instances stepping together (1 except for "batched").
        pub lanes: usize,
        /// Mean wall-clock nanoseconds per step *per lane*.
        pub ns_per_step_per_lane: f64,
    }
}

/// Lanes the E16 batched configuration steps together.
pub const E16_LANES: usize = 8;

/// E16 — the kernel tape on the PR-1 400-block chain, one instance on a
/// one-lane [`peert_model::Engine`] vs [`E16_LANES`] instances over the
/// SoA lanes of one [`peert_model::Engine::with_lanes`]. The two
/// configurations are interleaved and the per-configuration minimum
/// kept, as in E12.
pub fn e16_kernel(steps: u64) -> Vec<E16Row> {
    use peert_model::Engine;

    let mut comp = Engine::new(ablation_chain(), 1e-3).unwrap();
    assert_eq!(comp.compiled_plan().trampolines(), 0, "every chain block lowers");
    let mut batch = Engine::with_lanes(ablation_chain(), 1e-3, E16_LANES, None).unwrap();

    let engine_chunk = |e: &mut Engine, n: u64| {
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            e.step().unwrap();
        }
        t0.elapsed().as_nanos() as f64 / n as f64
    };
    let batch_chunk = |b: &mut Engine, n: u64| {
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            b.step().unwrap();
        }
        t0.elapsed().as_nanos() as f64 / n as f64 / E16_LANES as f64
    };

    let rounds = 10;
    let per_round = (steps / rounds).max(1);
    engine_chunk(&mut comp, per_round); // warmup
    batch_chunk(&mut batch, per_round);
    let (mut c_ns, mut b_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        c_ns = c_ns.min(engine_chunk(&mut comp, per_round));
        b_ns = b_ns.min(batch_chunk(&mut batch, per_round));
    }
    vec![
        E16Row { engine: "compiled".into(), steps, lanes: 1, ns_per_step_per_lane: c_ns },
        E16Row { engine: "batched".into(), steps, lanes: E16_LANES, ns_per_step_per_lane: b_ns },
    ]
}

// ---------------------------------------------------------------- E17 ----

json_struct! {
    /// One serving configuration pushing the same session load (E17).
    #[derive(Clone, Debug)]
    pub struct E17Row {
        /// Serving mode: "coalesced" (all sessions share one 8-lane engine)
        /// or "one-engine-per-session" (`max_lanes = 1` forces a private
        /// engine per session — the pre-serve baseline).
        pub mode: String,
        /// Same-fingerprint sessions submitted.
        pub sessions: usize,
        /// Step budget per session.
        pub steps_per_session: u64,
        /// Wall-clock milliseconds from resume to the last session joined.
        pub wall_ms: f64,
        /// Completed sessions per second of wall clock.
        pub sessions_per_sec: f64,
        /// p99 of the shard's scheduled step latency in ns (whole gang per
        /// step), from the `serve.shard0.step_ns` histogram.
        pub p99_step_ns: f64,
        /// Batch engines the schedule instantiated (incl. the warmup gang).
        pub batches: u64,
        /// Plan-cache hits — every gang after the warmup compile.
        pub cache_hits: u64,
    }
}

/// Same-fingerprint sessions the E17 comparison submits.
pub const E17_SESSIONS: usize = 8;

/// One E17 mode: warm the plan cache, submit [`E17_SESSIONS`] paused,
/// then time resume → last join. One shard, so the `max_lanes` knob is
/// the only difference between the modes.
fn e17_case(mode: &str, max_lanes: usize, steps: u64) -> E17Row {
    use peert_serve::{ServeConfig, Server, SessionOutcome, SessionSpec};
    let sessions = E17_SESSIONS;
    let server = Server::start(ServeConfig {
        shards: 1,
        queue_cap: sessions + 1,
        tenant_quota: sessions + 1,
        max_lanes,
        quantum: 64,
        plan_cache_cap: 4,
        compact: false,
        start_paused: false,
    });
    // warm the plan cache so neither mode times the one-off compile
    server.submit(SessionSpec::new("warmup", ablation_chain(), 1e-3, 1)).unwrap().join();
    server.pause();
    let handles: Vec<_> = (0..sessions)
        .map(|i| {
            server
                .submit(SessionSpec::new(format!("tenant{i}"), ablation_chain(), 1e-3, steps))
                .expect("roomy config admits all")
        })
        .collect();
    let t0 = std::time::Instant::now();
    server.resume();
    for h in handles {
        assert_eq!(h.join().outcome, SessionOutcome::Completed);
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = server.shutdown();
    E17Row {
        mode: mode.into(),
        sessions,
        steps_per_session: steps,
        wall_ms: wall * 1e3,
        sessions_per_sec: sessions as f64 / wall,
        p99_step_ns: stats.shards[0].step_ns.p99,
        batches: stats.counters.batches,
        cache_hits: stats.plan_cache.hits,
    }
}

/// E17 — serving-layer throughput: [`E17_SESSIONS`] same-fingerprint
/// sessions of the 400-block chain, coalesced into one 8-lane
/// [`peert_model::Engine`] vs forced one-engine-per-session.
/// Both modes run one shard with a warm plan cache, so the ratio
/// isolates the coalescing win itself (BENCH_serve.json records it).
pub fn e17_serve(steps: u64) -> Vec<E17Row> {
    vec![
        e17_case("one-engine-per-session", 1, steps),
        e17_case("coalesced", E17_SESSIONS, steps),
    ]
}

// ---------------------------------------------------------------- E18 ----

json_struct! {
    /// One submission path pushing the same session load (E18).
    #[derive(Clone, Debug)]
    pub struct E18Row {
        /// Submission path: "in-process" (`Server::submit` directly) or
        /// "wire-loopback" (framed over a real 127.0.0.1 TCP socket via
        /// [`peert_wire::WireClient`]).
        pub path: String,
        /// Sessions submitted.
        pub sessions: usize,
        /// Step budget per session.
        pub steps_per_session: u64,
        /// Mean admission round-trip per session in µs, measured while the
        /// daemon is paused — for the wire path this is encode + TCP +
        /// deframe + admit + the `Accepted` frame coming back.
        pub submit_us_mean: f64,
        /// Wall-clock milliseconds from resume to the last session joined
        /// (result streaming included — chunks cross the socket on the
        /// wire path).
        pub wall_ms: f64,
        /// Completed sessions per second of wall clock.
        pub sessions_per_sec: f64,
    }
}

/// Same-fingerprint sessions the E18 comparison submits per path.
pub const E18_SESSIONS: usize = 8;

/// The [`ablation_chain`] as a wire-encodable [`DiagramSpec`]; both
/// E18 paths run this exact diagram so the delta is pure front-end
/// overhead.
fn ablation_chain_spec() -> peert_model::spec::DiagramSpec {
    use peert_model::spec::BlockSpec;
    let mut blocks = vec![BlockSpec::Sine { amplitude: 1.0, freq_hz: 10.0 }];
    let mut wires = Vec::new();
    for i in 0..400usize {
        blocks.push(BlockSpec::Gain { gain: 1.0001 });
        wires.push((i, 0, i + 1, 0));
    }
    peert_model::spec::DiagramSpec { dt: 1e-3, blocks, wires }
}

fn e18_config(sessions: usize) -> peert_serve::ServeConfig {
    peert_serve::ServeConfig {
        shards: 1,
        queue_cap: sessions + 1,
        tenant_quota: sessions + 1,
        max_lanes: sessions,
        quantum: 64,
        plan_cache_cap: 4,
        compact: false,
        start_paused: false,
    }
}

/// E18 — wire front-end overhead: the E17 coalesced workload submitted
/// once through in-process [`peert_serve::Server::submit`] and once
/// through the framed loopback-TCP front end. Both paths warm the plan
/// cache first and submit paused, so the per-submission delta is the
/// codec + socket + connection-writer cost and nothing else
/// (BENCH_serve.json records it).
pub fn e18_wire(steps: u64) -> Vec<E18Row> {
    use peert_serve::{Server, SessionOutcome, SessionSpec};
    use peert_wire::{WireClient, WireServer, WireSpec};
    let sessions = E18_SESSIONS;
    let spec = ablation_chain_spec();

    // in-process baseline
    let inproc = {
        let server = Server::start(e18_config(sessions));
        let diagram = spec.build().expect("chain builds");
        server.submit(SessionSpec::new("warmup", diagram, 1e-3, 1)).unwrap().join();
        server.pause();
        let t0 = std::time::Instant::now();
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let diagram = spec.build().expect("chain builds");
                server
                    .submit(SessionSpec::new(format!("tenant{i}"), diagram, 1e-3, steps))
                    .expect("roomy config admits all")
            })
            .collect();
        let submit_us = t0.elapsed().as_secs_f64() * 1e6 / sessions as f64;
        let t0 = std::time::Instant::now();
        server.resume();
        for h in handles {
            assert_eq!(h.join().outcome, SessionOutcome::Completed);
        }
        let wall = t0.elapsed().as_secs_f64();
        server.shutdown();
        E18Row {
            path: "in-process".into(),
            sessions,
            steps_per_session: steps,
            submit_us_mean: submit_us,
            wall_ms: wall * 1e3,
            sessions_per_sec: sessions as f64 / wall,
        }
    };

    // the same schedule across a real loopback socket
    let wire = {
        let server = std::sync::Arc::new(Server::start(e18_config(sessions)));
        let ws = WireServer::start(std::sync::Arc::clone(&server), "127.0.0.1:0")
            .expect("bind loopback");
        let mut client = WireClient::connect(ws.local_addr()).expect("connect loopback");
        client
            .submit(WireSpec::new("warmup", spec.clone(), 1))
            .expect("warmup admits")
            .join();
        server.pause();
        let t0 = std::time::Instant::now();
        let live: Vec<_> = (0..sessions)
            .map(|i| {
                client
                    .submit(WireSpec::new(format!("tenant{i}"), spec.clone(), steps))
                    .expect("roomy config admits all")
            })
            .collect();
        let submit_us = t0.elapsed().as_secs_f64() * 1e6 / sessions as f64;
        let t0 = std::time::Instant::now();
        server.resume();
        for s in live {
            assert_eq!(s.join().outcome, SessionOutcome::Completed);
        }
        let wall = t0.elapsed().as_secs_f64();
        client.close();
        ws.shutdown();
        if let Ok(server) = std::sync::Arc::try_unwrap(server) {
            server.shutdown();
        }
        E18Row {
            path: "wire-loopback".into(),
            sessions,
            steps_per_session: steps,
            submit_us_mean: submit_us,
            wall_ms: wall * 1e3,
            sessions_per_sec: sessions as f64 / wall,
        }
    };

    vec![inproc, wire]
}

// ---------------------------------------------------------------------
// E19 — distributed control over the simulated CAN bus (peert-bus +
// peert-pil::multi): per-frame bus overhead and observed delivery
// latency vs the analytic `sched.bus-delay` bound from peert-lint.

json_struct! {
    /// One E19 measurement row.
    #[derive(Clone, Debug)]
    pub struct E19Row {
        /// Scenario: "clean", "faulted" (under-budget drop/corrupt plan) or
        /// "partition" (two-step window on the last node, below watchdog).
        pub scenario: String,
        /// Control steps simulated.
        pub steps: u64,
        /// Frames the bus carried.
        pub frames_sent: u64,
        /// Average wire bits per frame (protocol overhead included).
        pub bits_per_frame: f64,
        /// Average wire bits per control step.
        pub bits_per_step: f64,
        /// Retransmissions the ARQ layer performed.
        pub retries: u64,
        /// Steps that exhausted a hop's retry budget.
        pub failed_steps: u64,
        /// Worst observed sensor→actuation delivery latency (cycles).
        pub worst_delivery_cycles: u64,
        /// Static bound: the composed per-hop `sched.bus-delay` worst case,
        /// plus the ARQ recovery allowance for the scheduled multiplicity.
        pub bound_cycles: u64,
    }
}

fn e19_nodes() -> Vec<peert_pil::NodeSpec> {
    let mk = |name: &str, cycles: u64| peert_pil::NodeSpec {
        name: name.into(),
        mcu: mc56(),
        step_cycles: cycles,
        in_channels: 1,
        out_channels: 1,
    };
    vec![mk("sensor", 600), mk("ctl", 1400), mk("pwm", 350)]
}

fn e19_stages() -> Vec<peert_pil::StageFn> {
    let mut lp = 0.0f64;
    let mut u = 0.0f64;
    vec![
        Box::new(move |ins: &[f64]| {
            lp = 0.8 * lp + 0.2 * ins[0];
            vec![lp]
        }),
        Box::new(move |ins: &[f64]| {
            u = 0.7 * u + 0.6 * (0.25 - ins[0]);
            vec![u.clamp(-1.0, 1.0)]
        }),
        Box::new(|ins: &[f64]| vec![(ins[0] * 0.95).clamp(-1.0, 1.0)]),
    ]
}

fn e19_plant() -> peert_pil::cosim::PlantFn {
    let mut k = 0u64;
    Box::new(move |_applied: &[f64], _dt: f64| {
        let t = k as f64 * 10e-3;
        k += 1;
        vec![0.4 * (6.0 * t).sin() + 0.1 * (41.0 * t).sin()]
    })
}

/// Composed static bound for one full sensor→actuation pipeline: the
/// per-message `sched.bus-delay` worst case (blocking + interference +
/// own transmission) for each hop's DATA and ACK, plus the hop's
/// receive-side processing.
fn e19_static_bound(session: &peert_pil::MultiPilSession, period_s: f64) -> u64 {
    use peert_lint::{analyze_bus, BusMsgSpec, BusSchedSpec};
    use peert_pil::multi::{ack_id, ack_wire_bytes, data_id};
    let mut messages = Vec::new();
    for hop in 0..=session.n_stages() {
        messages.push(BusMsgSpec {
            name: format!("data{hop}"),
            id: data_id(hop),
            wire_bytes: session.hop_data_bytes(hop),
            deadline_s: period_s,
        });
        messages.push(BusMsgSpec {
            name: format!("ack{hop}"),
            id: ack_id(hop),
            wire_bytes: ack_wire_bytes(),
            deadline_s: period_s,
        });
    }
    let bus_hz = mc56().bus_hz();
    let verdict = analyze_bus(&BusSchedSpec::for_bus(session.bus_config(), bus_hz, messages));
    let mut bound = 0u64;
    for hop in 0..=session.n_stages() {
        let data = verdict.message(&format!("data{hop}")).expect("data message analyzed");
        let ack = verdict.message(&format!("ack{hop}")).expect("ack message analyzed");
        bound += data.delay_cycles + session.hop_proc_cycles(hop) + ack.delay_cycles;
    }
    bound
}

fn e19_case(
    scenario: &str,
    steps: u64,
    faults: peert_pil::MultiFaultSchedule,
    partitions: Vec<peert_pil::StepPartition>,
    max_mult: u32,
) -> E19Row {
    let period_s = 10e-3;
    let cfg = peert_pil::MultiPilConfig {
        control_period_s: period_s,
        hop_scales: vec![2.0; 4],
        faults,
        partitions,
        ..Default::default()
    };
    let mut session =
        peert_pil::MultiPilSession::new(e19_nodes(), e19_stages(), cfg, e19_plant())
            .expect("E19 chain is consistent");
    let mut bound = e19_static_bound(&session, period_s);
    if max_mult > 0 {
        // a step carrying m faults pays at most the worst hop's
        // timeout+backoff ladder on top of the clean pipeline
        bound += (0..=session.n_stages())
            .map(|h| session.hop_timing(h).recovery_bound_cycles(max_mult))
            .max()
            .unwrap_or(0);
    }
    session.run(steps);
    let stats = session.stats();
    let bus = session.bus_counters();
    E19Row {
        scenario: scenario.into(),
        steps,
        frames_sent: bus.frames_sent,
        bits_per_frame: bus.bits_sent as f64 / bus.frames_sent as f64,
        bits_per_step: bus.bits_sent as f64 / steps as f64,
        retries: stats.retries,
        failed_steps: stats.failed_steps,
        worst_delivery_cycles: stats.worst_delivery_cycles,
        bound_cycles: bound,
    }
}

/// E19 — the three distributed-control scenarios: fault-free, an
/// under-budget fault plan (every 8th step carries 1..=3 late-hop
/// faults), and a two-step partition of the PWM node. Acceptance: the
/// analytic bound dominates every observed delivery latency
/// (BENCH_bus.json records the margins).
pub fn e19_bus(steps: u64) -> Vec<E19Row> {
    let mut faults = peert_pil::MultiFaultSchedule::default();
    for step in (0..steps).step_by(8) {
        let mult = 1 + (step / 8) % 3;
        let hop = 2 + ((step / 8) % 2) as usize;
        for k in 0..mult {
            match (step / 8 + k) % 3 {
                0 => faults.corrupt_data.push((hop, step)),
                1 => faults.drop_data.push((hop, step)),
                _ => faults.drop_ack.push((hop, step)),
            }
        }
    }
    let part_from = steps / 2;
    let partition = peert_pil::StepPartition {
        node: 3,
        from_step: part_from,
        until_step: part_from + 2,
    };
    vec![
        e19_case("clean", steps, Default::default(), Vec::new(), 0),
        e19_case("faulted", steps, faults, Vec::new(), 3),
        e19_case("partition", steps, Default::default(), vec![partition], 0),
    ]
}

// ---------------------------------------------------------------- E20 ----

json_struct! {
    /// One diagram family under the quantization-error analysis (E20).
    #[derive(Clone, Debug)]
    pub struct E20Row {
        /// Family: "diamond" (mixed-sign fan-in, correlation cancels) or
        /// "chain" (single path, affine ≡ interval).
        pub family: String,
        /// Stages in the family.
        pub depth: usize,
        /// Blocks in the generated diagram.
        pub blocks: usize,
        /// Wall-clock microseconds per full lint pass (value intervals +
        /// both error modes + certificates), minimum over rounds.
        pub analysis_us: f64,
        /// Certified affine error radius at the outport.
        pub affine_bound: f64,
        /// Decorrelated interval error radius at the same port.
        pub interval_bound: f64,
        /// `interval / affine` — how much correlation tracking tightened
        /// the certificate (1.0 = tie).
        pub tightening: f64,
        /// Distinct quantization sites in the diagram.
        pub sites: usize,
    }
}

/// Build one E20 diagram: `depth` stages after a constant source. A
/// "diamond" stage splits its input through two positive gains and
/// recombines with a mixed-sign `Sum`, so both branches carry the same
/// upstream noise symbols and the affine mode cancels them; a "chain"
/// stage is a single gain, where decorrelation costs nothing.
fn e20_diagram(family: &str, depth: usize) -> peert_model::graph::Diagram {
    use peert_model::library::math::{Gain, Sum};
    use peert_model::library::sources::Constant;
    use peert_model::subsystem::Outport;

    let mut d = peert_model::graph::Diagram::new();
    let mut prev = d.add("src", Constant::new(0.5)).unwrap();
    for s in 0..depth {
        prev = if family == "diamond" {
            let a = d.add(format!("a{s}"), Gain::new(0.60)).unwrap();
            let b = d.add(format!("b{s}"), Gain::new(0.55)).unwrap();
            d.connect((prev, 0), (a, 0)).unwrap();
            d.connect((prev, 0), (b, 0)).unwrap();
            let sum = d.add(format!("s{s}"), Sum::new("+-").unwrap()).unwrap();
            d.connect((a, 0), (sum, 0)).unwrap();
            d.connect((b, 0), (sum, 1)).unwrap();
            sum
        } else {
            let g = d.add(format!("g{s}"), Gain::new(0.75)).unwrap();
            d.connect((prev, 0), (g, 0)).unwrap();
            g
        };
    }
    let o = d.add("out", Outport).unwrap();
    d.connect((prev, 0), (o, 0)).unwrap();
    d
}

/// E20 — cost and payoff of the affine quantization-error analysis:
/// full lint pass timed per family/depth, with the affine-vs-interval
/// certificate gap recorded. The differential soundness side (measured
/// divergence ≤ certificate on 64 seeded diagrams) is `peert-verify`'s
/// numeric phase; this experiment prices the analysis and quantifies
/// the correlation payoff.
pub fn e20_quant(rounds: u32) -> Vec<E20Row> {
    use peert_lint::{lint_diagram, ErrorModel, FormatSpec, LintOptions, QuantOptions};

    let mut rows = Vec::new();
    for (family, depth) in
        [("chain", 16usize), ("chain", 64), ("diamond", 8), ("diamond", 32)]
    {
        let d = e20_diagram(family, depth);
        let mut opts = LintOptions::with_format(FormatSpec::q15());
        opts.quant = Some(QuantOptions::new(ErrorModel::all_blocks(&FormatSpec::q15())));
        let lint = lint_diagram(&d, 1e-3, &opts); // warmup + the recorded result
        let qa = lint.quant.as_ref().expect("quant analysis ran");
        let outport = qa.affine.len() - 1;
        let mut best = f64::INFINITY;
        for _ in 0..rounds.max(1) {
            let t0 = std::time::Instant::now();
            let l = lint_diagram(&d, 1e-3, &opts);
            best = best.min(t0.elapsed().as_nanos() as f64 / 1e3);
            assert!(l.quant.is_some());
        }
        rows.push(E20Row {
            family: family.into(),
            depth,
            blocks: qa.affine.len(),
            analysis_us: best,
            affine_bound: qa.affine[outport],
            interval_bound: qa.interval[outport],
            tightening: qa.interval[outport] / qa.affine[outport],
            sites: qa.sites,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use peert_trace::ToJson;

    #[test]
    fn e1_rejects_exactly_the_invalid_cases() {
        let rows = e1_bean_inspector();
        let by_case = |needle: &str| {
            rows.iter().find(|r| r.case.contains(needle)).unwrap_or_else(|| panic!("{needle}"))
        };
        assert!(by_case("1 kHz TimerInt").accepted);
        assert!(!by_case("1-hour TimerInt").accepted);
        assert!(by_case("12-bit ADC on MC56F8367").accepted);
        assert!(!by_case("12-bit ADC on MC9S12DP256").accepted);
        assert!(by_case("10 MHz PWM").accepted, "reachable, warning only");
        assert!(!by_case("40 MHz PWM").accepted, "gross deviation is an error");
        assert!(!by_case("no decoder block").accepted);
        assert!(!by_case("pin 0.3").accepted);
        assert!(!by_case("14 bits").accepted);
    }

    #[test]
    fn e3_quality_degrades_monotonically_with_coarse_adc() {
        let rows = e3_adc_resolution();
        let iae = |bits: u8| rows.iter().find(|r| r.bits == bits).unwrap().iae;
        assert!(iae(4) > iae(8), "4-bit worse than 8-bit: {} vs {}", iae(4), iae(8));
        assert!(iae(8) > iae(12) * 0.99, "8-bit no better than 12-bit");
        let r12 = rows.iter().find(|r| r.bits == 12).unwrap();
        let ideal = rows.iter().find(|r| r.bits == 0).unwrap();
        assert!(r12.iae < ideal.iae * 1.5, "12-bit ≈ ideal (paper's operating point)");
    }

    #[test]
    fn e4_q15_is_cheap_and_accurate() {
        let rows = e4_fixed_point();
        let pick = |arith: &str, tgt: &str| {
            rows.iter().find(|r| r.arithmetic == arith && r.target == tgt).unwrap()
        };
        let f = pick("double", "MC56F8367");
        let q = pick("Q15", "MC56F8367");
        assert!(f.step_cycles as f64 > 2.0 * q.step_cycles as f64);
        assert!(q.rms_vs_float < 5.0, "Q15 trajectory near float: {}", q.rms_vs_float);
        // the FPU part narrows the gap
        let fp = pick("double", "MPC5554");
        let qp = pick("Q15", "MPC5554");
        let dsp_gap = f.step_cycles as f64 / q.step_cycles as f64;
        let ppc_gap = fp.step_cycles as f64 / qp.step_cycles as f64;
        assert!(ppc_gap < dsp_gap);
    }

    #[test]
    fn e6_spi_beats_every_rs232_rate() {
        let rows = e6_pil(40);
        let spi = rows.iter().find(|r| r.link.starts_with("SPI")).unwrap();
        for r in rows.iter().filter(|r| r.link.starts_with("RS-232")) {
            assert!(spi.mean_step_ms < r.mean_step_ms, "SPI faster than {}", r.link);
        }
        assert_eq!(spi.deadline_misses, 0, "SPI sustains 1 kHz");
    }

    #[test]
    fn e10_all_levels_agree_within_quantization() {
        let rows = e10_validation_ladder();
        assert_eq!(rows.len(), 3);
        let mil = &rows[0];
        for r in &rows[1..] {
            assert!(
                (r.iae - mil.iae).abs() / mil.iae < 0.2,
                "{} IAE within 20% of MIL: {} vs {}",
                r.level, r.iae, mil.iae
            );
            assert!(r.rms_vs_mil < 15.0, "{} rms {}", r.level, r.rms_vs_mil);
        }
    }

    #[test]
    fn e11_noise_degrades_gracefully_and_detectably() {
        let rows = e11_line_noise(150);
        assert_eq!(rows[0].drop_fraction, 0.0, "clean line drops nothing");
        let worst = rows.last().unwrap();
        assert!(worst.drop_fraction > 0.1, "5 %/byte kills many frames");
        assert!(worst.crc_errors > 0, "every loss is CRC-detected");
        assert!(
            worst.rms_vs_mil > rows[0].rms_vs_mil,
            "quality falls with noise: {} vs {}",
            worst.rms_vs_mil,
            rows[0].rms_vs_mil
        );
        // the reproduction, pinned: each row's CRC count and the bits of
        // its drop fraction and RMS deviation
        let pinned: [(u64, u64, u64); 5] = [
            (0, 0x0, 0x3f93584198320393),
            (1, 0x3f8b4e81b4e81b4f, 0x3fe7753a5cba071b),
            (9, 0x3fb2c5f92c5f92c6, 0x401c4ab8fd9bac89),
            (22, 0x3fcdddddddddddde, 0x40362f3a66b3e8dd),
            (35, 0x3fd5555555555555, 0x403c780d23bfa10a),
        ];
        assert_eq!(rows.len(), pinned.len());
        for (r, &(crc, drop_bits, rms_bits)) in rows.iter().zip(&pinned) {
            let p = r.corruption_prob;
            assert_eq!(r.crc_errors, crc, "p = {p}");
            assert_eq!(r.drop_fraction.to_bits(), drop_bits, "p = {p}: {}", r.drop_fraction);
            assert_eq!(r.rms_vs_mil.to_bits(), rms_bits, "p = {p}: {}", r.rms_vs_mil);
        }
    }

    #[test]
    fn e7_jitter_grows_with_background_load() {
        let rows = e7_scheduling();
        assert!(rows[0].jitter_us < rows[3].jitter_us);
        assert!(rows.last().unwrap().lost > 0, "1.5 ms bursts starve the 1 ms timer");
        assert!(rows[0].response_max_us < 2.0, "idle response under 2 µs");
        // the §1 claim: overload degrades the closed loop
        assert!(
            rows.last().unwrap().hil_iae > rows[0].hil_iae * 1.1,
            "control quality under overload: {} vs idle {}",
            rows.last().unwrap().hil_iae,
            rows[0].hil_iae
        );
    }

    #[test]
    fn e8_only_the_decoder_less_part_fails() {
        let rows = e8_portability();
        for r in &rows {
            if r.target == "MC9S08GB60" {
                assert!(!r.built);
                assert!(r.reason.as_ref().unwrap().contains("no quadrature decoder"));
            } else {
                assert!(r.built, "{} should build: {:?}", r.target, r.reason);
            }
        }
    }

    #[test]
    fn parallel_sweeps_are_byte_identical_to_serial() {
        let e3 = e3_adc_resolution().to_json_value().render();
        let e3_serial = e3_adc_resolution_serial().to_json_value().render();
        assert_eq!(e3, e3_serial, "E3 parallel JSON ≡ serial JSON");
        let e6 = e6_pil(40).to_json_value().render();
        let e6_serial = e6_pil_serial(40).to_json_value().render();
        assert_eq!(e6, e6_serial, "E6 parallel JSON ≡ serial JSON");
        let e8 = e8_portability().to_json_value().render();
        let e8_serial = e8_portability_serial().to_json_value().render();
        assert_eq!(e8, e8_serial, "E8 parallel JSON ≡ serial JSON");
    }

    #[test]
    fn e17_coalescing_beats_one_engine_per_session() {
        let rows = e17_serve(400);
        let (solo, gang) = (&rows[0], &rows[1]);
        // the warmup session forms its own 1-lane gang in both modes
        assert_eq!(gang.batches, 2, "8 same-fingerprint sessions coalesce into one gang");
        assert_eq!(solo.batches, 1 + E17_SESSIONS as u64, "max_lanes = 1 forbids sharing");
        assert_eq!(solo.cache_hits, E17_SESSIONS as u64, "per-session gangs share the plan");
        assert_eq!(gang.cache_hits, 1);
        assert!(
            gang.sessions_per_sec > 1.3 * solo.sessions_per_sec,
            "coalescing wins even unoptimized: {:.1} vs {:.1} sessions/sec",
            gang.sessions_per_sec,
            solo.sessions_per_sec
        );
    }

    #[test]
    fn e19_static_bound_dominates_observed_latency() {
        for row in e19_bus(64) {
            assert!(
                row.worst_delivery_cycles <= row.bound_cycles,
                "{}: observed {} > bound {}",
                row.scenario,
                row.worst_delivery_cycles,
                row.bound_cycles
            );
            assert!(row.bits_per_frame > 47.0, "frame overhead is priced in");
        }
    }

    #[test]
    fn e20_correlation_pays_on_the_diamond_and_ties_on_the_chain() {
        for row in e20_quant(1) {
            assert!(row.affine_bound.is_finite(), "{}-{}: no certificate", row.family, row.depth);
            assert!(
                row.affine_bound <= row.interval_bound * (1.0 + 1e-12),
                "{}-{}: affine above interval",
                row.family,
                row.depth
            );
            if row.family == "diamond" {
                assert!(
                    row.tightening > 1.5,
                    "{}-{}: cancellation should tighten markedly, got {:.3}",
                    row.family,
                    row.depth,
                    row.tightening
                );
            } else {
                assert!(
                    (row.tightening - 1.0).abs() < 1e-9,
                    "{}-{}: single path must tie, got {:.3}",
                    row.family,
                    row.depth,
                    row.tightening
                );
            }
        }
    }

    #[test]
    fn e9_sync_converges_for_many_seeds() {
        for seed in 0..20 {
            let row = e9_sync(seed, 60);
            assert!(row.consistent, "seed {seed} diverged: {row:?}");
        }
    }
}
