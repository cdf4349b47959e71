//! The development cycle of Fig 6.1: single model → MIL simulation →
//! synchronization → code generation → PIL simulation.
//!
//! "The validation of each development phase is done by the simulation in
//! the Matlab Simulink. First Model in the Loop validates the model of the
//! controller. After the code generation, the Processor in the Loop
//! simulation can be used to validate the real-time execution of the
//! controller on the MCU in the loop with the plant model in Simulink."
//! (§2)

use crate::servo::{
    build_controller, build_servo_model, pil_controller, servo_project, ControllerArithmetic,
    ServoModel, ServoOptions,
};
use crate::target_peert::{BuildOutput, PeertTarget};
use crate::target_pil::PilTarget;
use peert_codegen::tlc::{Arithmetic, CodegenOptions};
use peert_codegen::{generate_controller, CodegenReport, TaskImage};
use peert_lint::{FormatSpec, LintOptions, LintReport, SchedSpec, TaskSpec};
use peert_control::metrics::StepMetrics;
use peert_mcu::McuCatalog;
use peert_model::log::{lock, SharedLog, SignalLog};
use peert_pil::arq::ArqConfig;
use peert_pil::cosim::{FaultSchedule, LinkKind, PilConfig, PilSession, PilStats, PlantFn};
use peert_plant::dcmotor::DcMotor;
use peert_trace::{chrome_trace_json, ClockDomain, JsonValue, MetricsReport, Tracer};

/// Result of the MIL phase.
#[derive(Clone, Debug)]
pub struct MilResult {
    /// Logged speed trajectory.
    pub speed: SignalLog,
    /// Logged duty trajectory.
    pub duty: SignalLog,
    /// Step-response metrics toward the first setpoint plateau.
    pub metrics: StepMetrics,
}

/// Result of the whole cycle.
#[derive(Clone, Debug)]
pub struct CycleReport {
    /// MIL phase.
    pub mil: MilResult,
    /// Code-generation metrics.
    pub codegen: CodegenReport,
    /// PIL phase statistics.
    pub pil: PilStats,
    /// RMS deviation of the PIL speed trajectory from MIL (rad/s).
    pub pil_vs_mil_rms: f64,
}

/// The arithmetic option mapped into codegen terms.
fn codegen_opts(opts: &ServoOptions) -> CodegenOptions {
    CodegenOptions {
        arithmetic: match opts.arithmetic {
            ControllerArithmetic::Float => Arithmetic::Float,
            ControllerArithmetic::FixedQ15 { .. } => Arithmetic::FixedQ15,
        },
        dt: opts.control_period_s,
    }
}

/// Phase 0 — static analysis: lint the controller model, the bean
/// project, and the predicted task set *before* anything is simulated
/// or generated. The numeric checks run at the configured arithmetic
/// (the Q15 scale is taken from [`ControllerArithmetic::FixedQ15`]);
/// the schedulability check prices the generated step on the target's
/// cost table, so an infeasible period is refused without running a
/// single simulated cycle.
pub fn run_lint(opts: &ServoOptions, cpu: &str) -> Result<LintReport, String> {
    let spec = McuCatalog::standard()
        .find(cpu)
        .cloned()
        .ok_or_else(|| format!("unknown CPU '{cpu}'"))?;
    let controller = build_controller(opts)?;
    let mut lint_opts = LintOptions::default();
    if let ControllerArithmetic::FixedQ15 { scale } = opts.arithmetic {
        lint_opts.format = Some(FormatSpec { format: peert_fixedpoint::QFormat::Q15, scale });
    }
    let fp = controller.diagram().fingerprint();
    let mut report =
        peert_lint::lint_fingerprint(&fp, opts.control_period_s, &lint_opts).report;

    // cross-layer: the bean project through the expert system, plus
    // block↔bean consistency on the controller diagram
    let project = servo_project(opts, cpu);
    report.merge(peert_lint::lint_project(&project, &spec, &lint_opts.config));
    report.merge(peert_lint::lint_block_beans(&fp, &project, &lint_opts.config));

    // static timing: price the generated step on the target and bound
    // the response time the executive would measure
    let code = generate_controller(
        &controller,
        "servo",
        &codegen_opts(opts),
        PeertTarget::new().registry(),
    )
    .map_err(|e| e.to_string())?;
    let image = TaskImage::build(&code, &spec);
    let sched = SchedSpec::for_mcu(
        &spec,
        None,
        vec![TaskSpec {
            name: "TI1".into(),
            period_s: opts.control_period_s,
            cost_cycles: image.step_cycles as u64,
        }],
    );
    let (_, sched_report) = peert_lint::lint_sched(&sched, &lint_opts.config);
    report.merge(sched_report);
    Ok(report)
}

/// Refuse the cycle when the lint report carries deny-level findings.
fn lint_gate(opts: &ServoOptions, cpu: &str) -> Result<(), String> {
    let report = run_lint(opts, cpu)?;
    if !report.is_deny_clean() {
        return Err(format!(
            "static analysis refused the cycle:\n{}",
            peert_lint::render_text(&report)
        ));
    }
    Ok(())
}

/// Phase 1 — MIL: simulate the single model for `t_end` seconds.
pub fn run_mil(opts: &ServoOptions, t_end: f64) -> Result<MilResult, String> {
    simulate_mil(&mut build_servo_model(opts)?, opts, t_end)
}

/// Run a built servo model for `t_end` seconds and move its two scope
/// logs out of it: each is sized for the whole run before the first
/// step, and the caller keeps the model only for its engine.
fn simulate_mil(
    model: &mut ServoModel,
    opts: &ServoOptions,
    t_end: f64,
) -> Result<MilResult, String> {
    // each scope logs one sample per engine step
    let steps = (t_end / model.engine.dt()).ceil() as usize;
    lock(&model.speed_log).reserve(steps);
    lock(&model.duty_log).reserve(steps);
    model.run(t_end)?;
    let speed = std::mem::take(&mut *lock(&model.speed_log));
    let duty = std::mem::take(&mut *lock(&model.duty_log));
    let plateau = opts.setpoint.abs_max();
    let t0 = opts
        .setpoint
        .breakpoints()
        .first()
        .map_or(0.0, |&(t, _)| t);
    let metrics = StepMetrics::from_response(&speed.t, &speed.y, plateau, t0);
    Ok(MilResult { speed, duty, metrics })
}

/// The §7 fixed-point advisor step: observe the MIL signal ranges and
/// propose the Q15 normalization scale for the speed channels — "Simulink
/// allows choosing and validating an appropriate fix-point representation
/// of real numbers in the controller model."
///
/// The returned scale is the smallest power of two covering the observed
/// speed range with 25 % headroom (transients beyond the recorded run).
pub fn propose_q15_scale(mil: &MilResult) -> f64 {
    let mut tracker = peert_fixedpoint::RangeTracker::new();
    for &y in &mil.speed.y {
        tracker.observe(y);
    }
    let needed = tracker.abs_max().unwrap_or(1.0) * 1.25;
    let mut scale = 1.0f64;
    while scale < needed {
        scale *= 2.0;
    }
    scale
}

/// Phase 2 — code generation through the PEERT target.
pub fn run_codegen(opts: &ServoOptions, cpu: &str) -> Result<BuildOutput, String> {
    let controller = build_controller(opts)?;
    let mut project = servo_project(opts, cpu);
    let target = PeertTarget::new();
    target
        .build_application(
            &controller,
            "servo",
            &mut project,
            &McuCatalog::standard(),
            &codegen_opts(opts),
            "TI1",
        )
        .map_err(|e| e.to_string())
}

/// A PIL plant that also logs the motor speed for MIL comparison.
fn pil_plant_logged(opts: &ServoOptions) -> (PlantFn, SharedLog) {
    let lines = match opts.feedback {
        crate::servo::Feedback::Encoder { lines } => lines,
        _ => 100,
    };
    let cpr = (lines * 4) as f64;
    let mut motor = DcMotor::new(opts.motor);
    let profile = opts.setpoint.clone();
    let load = opts.load_step;
    let log = peert_model::log::shared_log();
    let log2 = log.clone();
    let mut t = 0.0f64;
    let plant: PlantFn = Box::new(move |actuation: &[f64], dt: f64| {
        let duty = actuation.first().copied().unwrap_or(0.0).clamp(0.0, 1.0);
        let torque = match load {
            Some((t0, tau)) if t >= t0 => tau,
            _ => 0.0,
        };
        if dt > 0.0 {
            motor.advance(duty, torque, 1.0, dt);
            t += dt;
            lock(&log2).push(t, motor.speed());
        }
        let counts =
            (motor.angle() / std::f64::consts::TAU * cpr).floor() as i64 as u16 as i16 as f64;
        vec![counts, profile.value(t)]
    });
    (plant, log)
}

/// Phase 3 — PIL: run the generated image against the host plant over the
/// RS-232 line for `steps` control periods.
pub fn run_pil(
    opts: &ServoOptions,
    cpu: &str,
    baud: u32,
    steps: u64,
) -> Result<(PilStats, SignalLog), String> {
    run_pil_link(opts, cpu, LinkKind::Rs232 { baud }, steps)
}

/// Like [`run_pil`] but over an arbitrary link — the §8 open-target
/// extension (RS-232 or SPI).
pub fn run_pil_link(
    opts: &ServoOptions,
    cpu: &str,
    link: LinkKind,
    steps: u64,
) -> Result<(PilStats, SignalLog), String> {
    run_pil_noisy(opts, cpu, link, 0.0, steps)
}

/// Like [`run_pil_link`] with line-noise fault injection: each wire byte
/// flips a bit with probability `corruption_prob`; corrupted frames fail
/// CRC and the board holds its last actuation for that period.
pub fn run_pil_noisy(
    opts: &ServoOptions,
    cpu: &str,
    link: LinkKind,
    corruption_prob: f64,
    steps: u64,
) -> Result<(PilStats, SignalLog), String> {
    let (mut session, log) = make_pil_session(opts, cpu, link, corruption_prob, 0)?;
    session.run(steps)?;
    let stats = session.stats().clone();
    let speed = lock(&log).clone();
    Ok((stats, speed))
}

/// Assemble the servo PIL session: generate the PIL build of the
/// controller, price it on `cpu`, wire the logged plant. `trace_capacity`
/// > 0 turns the board tracer on.
pub fn make_pil_session(
    opts: &ServoOptions,
    cpu: &str,
    link: LinkKind,
    corruption_prob: f64,
    trace_capacity: usize,
) -> Result<(PilSession, SharedLog), String> {
    assemble_pil_session(
        opts,
        cpu,
        link,
        corruption_prob,
        FaultSchedule::default(),
        ArqConfig::FIRE_AND_FORGET,
        trace_capacity,
    )
}

/// Outcome of a fault-tolerant PIL run: the stats, the logged plant
/// trajectory, and the degradation verdict surfaced at the top level so
/// callers can flag (not fail) an experiment whose link collapsed.
#[derive(Clone, Debug)]
pub struct ResilientPilReport {
    /// Per-run statistics, including the ARQ counters
    /// (`retries`/`timeouts`/`failed_exchanges`/`degraded_steps`).
    pub stats: PilStats,
    /// Logged motor-speed trajectory.
    pub speed: SignalLog,
    /// True when the watchdog declared the link degraded and the tail of
    /// the run executed on the host-side MIL fallback.
    pub degraded: bool,
    /// First step owned by the fallback, when `degraded`.
    pub degraded_at_step: Option<u64>,
}

/// Like [`run_pil_link`] with a deterministic [`FaultSchedule`] replayed
/// on the wire under the transport policy `arq`: faulted exchanges are
/// retransmitted within the retry budget, and a link the watchdog
/// declares dead degrades to host-side MIL execution instead of erroring
/// — the run always completes, with the degradation flagged in the
/// report. [`ArqConfig::FIRE_AND_FORGET`] gives the zero-budget exchange
/// whose error counters equal the schedule.
pub fn run_pil_resilient(
    opts: &ServoOptions,
    cpu: &str,
    link: LinkKind,
    faults: FaultSchedule,
    arq: ArqConfig,
    trace_capacity: usize,
    steps: u64,
) -> Result<ResilientPilReport, String> {
    let (mut session, log) =
        make_pil_session_resilient(opts, cpu, link, faults, arq, trace_capacity)?;
    session.run(steps)?;
    let stats = session.stats().clone();
    let speed = lock(&log).clone();
    Ok(ResilientPilReport {
        degraded: session.is_degraded(),
        degraded_at_step: stats.degraded_at_step,
        stats,
        speed,
    })
}

/// The servo PIL session under a deterministic fault schedule and the
/// transport policy `arq` — the session behind [`run_pil_resilient`],
/// exposed for callers that need the live session (tracer, profiles)
/// after the run.
pub fn make_pil_session_resilient(
    opts: &ServoOptions,
    cpu: &str,
    link: LinkKind,
    faults: FaultSchedule,
    arq: ArqConfig,
    trace_capacity: usize,
) -> Result<(PilSession, SharedLog), String> {
    assemble_pil_session(opts, cpu, link, 0.0, faults, arq, trace_capacity)
}

fn assemble_pil_session(
    opts: &ServoOptions,
    cpu: &str,
    link: LinkKind,
    corruption_prob: f64,
    faults: FaultSchedule,
    arq: ArqConfig,
    trace_capacity: usize,
) -> Result<(PilSession, SharedLog), String> {
    let spec = McuCatalog::standard()
        .find(cpu)
        .cloned()
        .ok_or_else(|| format!("unknown CPU '{cpu}'"))?;
    let pil_target = PilTarget::new();
    let controller_sub = build_controller(opts)?;
    let (_code, image) = pil_target
        .build(&controller_sub, "servo_pil", &spec, &codegen_opts(opts))
        .map_err(|e| e.to_string())?;
    let cfg = PilConfig {
        link,
        control_period_s: opts.control_period_s,
        sensor_channels: 2, // encoder register + setpoint
        actuation_channels: 1,
        sensor_scale: 32_768.0, // raw 16-bit patterns travel unscaled
        actuation_scale: 1.0,
        rx_isr_cycles: 60,
        corruption_prob,
        noise_seed: 0x5EED,
        faults,
        arq,
        trace_capacity,
    };
    let (plant, log) = pil_plant_logged(opts);
    let session = pil_target.make_session(&spec, &image, cfg, pil_controller(opts)?, plant)?;
    Ok((session, log))
}

/// The full Fig 6.1 development cycle for the servo case study.
pub fn run_development_cycle(
    opts: &ServoOptions,
    cpu: &str,
    baud: u32,
    t_end: f64,
) -> Result<CycleReport, String> {
    lint_gate(opts, cpu)?;
    let mil = run_mil(opts, t_end)?;
    let build = run_codegen(opts, cpu)?;
    let steps = (t_end / opts.control_period_s) as u64;
    let (pil, pil_speed) = run_pil(opts, cpu, baud, steps)?;
    let pil_vs_mil_rms = pil_speed.rms_diff(&mil.speed);
    Ok(CycleReport { mil, codegen: build.report, pil, pil_vs_mil_rms })
}

/// Trace artifacts from a traced development cycle — the observability
/// view of Fig 6.1.
#[derive(Clone, Debug)]
pub struct CycleTrace {
    /// Chrome `trace_event` JSON array: the workflow phases, the MIL
    /// engine's step loop, and the PIL board timeline as three trace
    /// processes. Loadable in `chrome://tracing` or Perfetto.
    pub chrome_json: String,
    /// Machine-readable metrics JSON: quantile summaries (controller
    /// exec/response/sampling-jitter in µs) plus every trace counter.
    pub metrics_json: String,
}

/// [`run_development_cycle`] with the tracing subsystem attached to all
/// three phases: wall-clock phase spans on the workflow, step spans on the
/// MIL engine, cycle-stamped packet/task spans on the PIL board.
pub fn run_development_cycle_traced(
    opts: &ServoOptions,
    cpu: &str,
    baud: u32,
    t_end: f64,
) -> Result<(CycleReport, CycleTrace), String> {
    let mut wf = Tracer::new(16, ClockDomain::WallNanos);
    let lint_id = wf.register("phase.lint");
    let mil_id = wf.register("phase.mil");
    let cg_id = wf.register("phase.codegen");
    let pil_id = wf.register("phase.pil");

    // --- phase 0: static analysis gate ---
    let ts = wf.now();
    wf.begin(lint_id, ts);
    lint_gate(opts, cpu)?;
    let ts = wf.now();
    wf.end(lint_id, ts);

    // --- phase 1: MIL, with the engine's step loop traced ---
    let ts = wf.now();
    wf.begin(mil_id, ts);
    let mut model = build_servo_model(opts)?;
    model.engine.enable_trace(1 << 12);
    let mil = simulate_mil(&mut model, opts, t_end)?;
    let ts = wf.now();
    wf.end(mil_id, ts);

    // --- phase 2: code generation ---
    let ts = wf.now();
    wf.begin(cg_id, ts);
    let build = run_codegen(opts, cpu)?;
    let ts = wf.now();
    wf.end(cg_id, ts);

    // --- phase 3: PIL with the board tracer on ---
    let ts = wf.now();
    wf.begin(pil_id, ts);
    let steps = (t_end / opts.control_period_s) as u64;
    let (mut session, log) =
        make_pil_session(opts, cpu, LinkKind::Rs232 { baud }, 0.0, 1 << 14)?;
    session.run(steps)?;
    let pil = session.stats().clone();
    let pil_speed = lock(&log).clone();
    let ts = wf.now();
    wf.end(pil_id, ts);

    let pil_vs_mil_rms = pil_speed.rms_diff(&mil.speed);
    let report = CycleReport { mil, codegen: build.report, pil, pil_vs_mil_rms };

    // --- export: one Chrome trace, one metrics report ---
    let board = session.executive().tracer();
    let chrome_json = chrome_trace_json(&[
        ("workflow", &wf),
        ("mil.engine", model.engine.tracer()),
        ("pil.board", board),
    ]);

    let bus_hz = session.executive().mcu.clock.bus_hz();
    let cycles_to_us = 1e6 / bus_hz;
    let ctl = session.ctl_profile();
    let mut m = MetricsReport::new();
    m.set_meta("scenario", JsonValue::str("servo_development_cycle"));
    m.set_meta("cpu", JsonValue::str(cpu));
    m.set_meta("baud", JsonValue::Num(baud as f64));
    m.set_meta("bus_hz", JsonValue::Num(bus_hz));
    m.set_meta("pil_steps", JsonValue::Num(report.pil.steps as f64));
    m.set_meta("mil_block_evals", JsonValue::Num(model.engine.block_evals() as f64));
    m.add_histogram("pil.ctl.exec_us", ctl.exec_hist().summary(cycles_to_us));
    m.add_histogram("pil.ctl.response_us", ctl.response_hist().summary(cycles_to_us));
    if let Some(j) = ctl.sampling_jitter_hist() {
        m.add_histogram("pil.ctl.sampling_jitter_us", j.summary(cycles_to_us));
    }
    m.add_counter("pil.deadline_misses", report.pil.deadline_misses);
    m.absorb_counters("pil.board.", board);
    m.absorb_counters("mil.engine.", model.engine.tracer());

    // Fixed-point cycles also export the certified quantization-error
    // analysis: how many rounding sites the diagram has, how many output
    // ports got a finite certificate over the PIL horizon, and the worst
    // certified bound (at full-scale inputs).
    if let ControllerArithmetic::FixedQ15 { scale } = opts.arithmetic {
        let controller = build_controller(opts)?;
        let fp = controller.diagram().fingerprint();
        let spec = FormatSpec { format: peert_fixedpoint::QFormat::Q15, scale };
        let ranges: std::collections::BTreeMap<String, (f64, f64)> = fp
            .blocks
            .iter()
            .filter(|b| b.type_name == "Inport")
            .map(|b| (b.name.clone(), (-scale, scale)))
            .collect();
        let certs = peert_lint::certify_ports(
            &fp,
            opts.control_period_s,
            steps,
            &peert_lint::ErrorModel::all_blocks(&spec),
            &ranges,
        );
        let sites = certs.iter().map(|c| c.sites as u64).max().unwrap_or(0);
        let certified = certs.iter().filter(|c| c.bound.is_finite()).count() as u64;
        m.add_counter("lint.quant.sites", sites);
        m.add_counter("lint.quant.ports", certs.len() as u64);
        m.add_counter("lint.quant.ports_certified", certified);
        // ∞ (nothing certifiable, e.g. hardware bean blocks the numeric
        // model can't transfer) renders as JSON null by convention
        let worst = certs.iter().map(|c| c.bound).fold(0.0, f64::max);
        m.set_meta("lint.quant.worst_bound", JsonValue::Num(worst));
    }
    let metrics_json = m.to_json();

    Ok((report, CycleTrace { chrome_json, metrics_json }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_opts() -> ServoOptions {
        ServoOptions {
            setpoint: peert_control::setpoint::SetpointProfile::from(0.0).at(0.02, 150.0),
            load_step: None,
            ..Default::default()
        }
    }

    #[test]
    fn lint_phase_passes_the_servo_model() {
        let report = run_lint(&fast_opts(), "MC56F8367").unwrap();
        assert!(report.is_deny_clean(), "{}", peert_lint::render_text(&report));
        // the fixed-point variant at the advised scale is also clean
        let opts = ServoOptions {
            arithmetic: crate::servo::ControllerArithmetic::FixedQ15 { scale: 256.0 },
            ..fast_opts()
        };
        let report = run_lint(&opts, "MC56F8367").unwrap();
        assert!(report.is_deny_clean(), "{}", peert_lint::render_text(&report));
    }

    #[test]
    fn lint_gate_refuses_an_infeasible_control_period() {
        // 3 µs period: the priced step alone exceeds it, so the static
        // analyzer must refuse the cycle before MIL even starts
        let mut opts = fast_opts();
        opts.control_period_s = 3e-6;
        opts.pid.ts = 3e-6;
        let report = run_lint(&opts, "MC56F8367").unwrap();
        assert!(report.has_rule(peert_lint::rules::SCHED_UTIL));
        assert!(!report.is_deny_clean());
        let err = run_development_cycle(&opts, "MC56F8367", 115_200, 0.01).unwrap_err();
        assert!(err.contains("static analysis refused"), "{err}");
        assert!(err.contains("sched.util"), "{err}");
    }

    #[test]
    fn mil_phase_produces_metrics() {
        let mil = run_mil(&fast_opts(), 0.4).unwrap();
        assert!(mil.speed.len() > 100);
        assert!(mil.metrics.rise_time > 0.0);
        assert!(mil.metrics.steady_state_error.abs() < 3.0);
        // both logs were sized for the run up front, never regrown
        for log in [&mil.speed, &mil.duty] {
            assert!(log.t.capacity() - log.len() <= 1, "{} of {}", log.t.capacity(), log.len());
            assert!(log.y.capacity() - log.len() <= 1, "{} of {}", log.y.capacity(), log.len());
        }
    }

    #[test]
    fn codegen_phase_builds_for_the_case_study_part() {
        let out = run_codegen(&fast_opts(), "MC56F8367").unwrap();
        assert!(out.report.loc > 30);
        assert!(out.image.utilization(&out.spec, 1e-3) < 0.2);
    }

    #[test]
    fn fixed_point_advisor_proposes_a_covering_scale() {
        let mil = run_mil(&fast_opts(), 0.4).unwrap();
        let scale = propose_q15_scale(&mil);
        let max_speed = mil.speed.y.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        assert!(scale >= max_speed, "scale {scale} covers the range {max_speed}");
        assert!(scale <= 4.0 * max_speed.max(1.0), "not absurdly conservative");
        assert!(scale.log2().fract().abs() < 1e-12, "power of two");
        // ...and the advised scale actually builds and runs a Q15 loop
        let opts = ServoOptions {
            arithmetic: crate::servo::ControllerArithmetic::FixedQ15 { scale },
            ..fast_opts()
        };
        let mil_q = run_mil(&opts, 0.4).unwrap();
        assert!(mil_q.speed.rms_diff(&mil.speed) < 5.0);
    }

    #[test]
    fn pil_phase_exchanges_and_logs() {
        let (stats, speed) = run_pil(&fast_opts(), "MC56F8367", 115_200, 300).unwrap();
        assert_eq!(stats.steps, 300);
        assert_eq!(stats.crc_errors, 0);
        assert!(speed.len() > 100);
    }

    #[test]
    fn pil_fault_schedule_counters_equal_the_schedule() {
        let faults = FaultSchedule {
            corrupt_steps: vec![10, 40],
            drop_steps: vec![25],
            overrun_steps: vec![60],
            drop_reply_steps: Vec::new(),
        };
        let stats = run_pil_resilient(
            &fast_opts(),
            "MC56F8367",
            LinkKind::Spi { clock_hz: 2_000_000 },
            faults.clone(),
            ArqConfig::FIRE_AND_FORGET,
            1 << 12,
            100,
        )
        .unwrap()
        .stats;
        assert_eq!(stats.steps, 100);
        assert_eq!(stats.crc_errors, faults.corrupt_steps.len() as u64);
        assert_eq!(
            stats.dropped_exchanges,
            (faults.corrupt_steps.len() + faults.drop_steps.len()) as u64
        );
        assert_eq!(stats.deadline_misses, faults.overrun_steps.len() as u64);
        assert_eq!(stats.injected_overruns, faults.overrun_steps.len() as u64);
    }

    #[test]
    fn resilient_pil_recovers_bit_exact_then_degrades_gracefully() {
        let link = LinkKind::Spi { clock_hz: 2_000_000 };
        let arq = ArqConfig::default();
        let run = |faults: FaultSchedule| {
            run_pil_resilient(&fast_opts(), "MC56F8367", link, faults, arq, 0, 80).unwrap()
        };
        let clean = run(FaultSchedule::default());
        assert!(!clean.degraded);
        assert_eq!(clean.stats.retries, 0);

        // under-budget faults: the ARQ layer recovers every exchange and
        // the logged plant trajectory is bit-identical to the clean run
        let faulted = run(FaultSchedule {
            corrupt_steps: vec![5, 5, 12],
            drop_steps: vec![20],
            drop_reply_steps: vec![33],
            overrun_steps: Vec::new(),
        });
        assert!(!faulted.degraded);
        assert_eq!(faulted.stats.retries, 5);
        assert_eq!(faulted.stats.timeouts, 5);
        assert_eq!(faulted.stats.failed_exchanges, 0);
        let bits = |l: &SignalLog| l.y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&faulted.speed), bits(&clean.speed), "recovery is bit-exact");

        // a burst past the budget at the watchdog threshold: the run
        // completes degraded instead of erroring
        let burst: Vec<u64> =
            [10u64, 11, 12].iter().flat_map(|&s| std::iter::repeat_n(s, 4)).collect();
        let degraded = run(FaultSchedule { drop_steps: burst, ..Default::default() });
        assert!(degraded.degraded);
        assert_eq!(degraded.degraded_at_step, Some(13));
        assert_eq!(degraded.stats.steps, 80, "degraded runs still complete");
        assert_eq!(degraded.stats.degraded_steps, 80 - 13);
    }

    #[test]
    fn pil_reveals_that_rs232_cannot_sustain_1khz() {
        // the §6 question "whether the computation power ... is sufficient"
        // — here the bottleneck is the line: 16 bytes at 115200 baud take
        // 1.39 ms, more than the 1 ms control period
        let report = run_development_cycle(&fast_opts(), "MC56F8367", 115_200, 0.2).unwrap();
        assert!(report.pil.deadline_misses > 0);
        assert!(report.pil.min_feasible_period_s(60e6) > 1e-3);
    }

    #[test]
    fn full_cycle_pil_tracks_mil_at_a_feasible_period() {
        let mut opts = fast_opts();
        opts.control_period_s = 2e-3; // 500 Hz fits the line budget
        opts.pid.ts = 2e-3;
        let report = run_development_cycle(&opts, "MC56F8367", 115_200, 0.4).unwrap();
        assert_eq!(report.pil.deadline_misses, 0, "500 Hz fits 115200 baud");
        assert!(
            report.pil_vs_mil_rms < 20.0,
            "PIL trajectory close to MIL (quantization + comm delay only): {}",
            report.pil_vs_mil_rms
        );
        assert!(report.pil.comm_fraction() > 0.5, "RS-232 still dominates the step");
    }
}
