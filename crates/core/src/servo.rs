//! The servo case study (§7, Figs 7.1/7.2): speed control of a brushed DC
//! motor.
//!
//! "The motor is actuated by a power transistor switched by a pulse width
//! modulated (PWM) signal from the MCU. The feedback is provided by an
//! incremental rotating encoder (IRC) ... A few button keyboard is used to
//! set the speed set-point and switch between the manual and the automatic
//! control mode."
//!
//! This module builds the paper's *single model* (§5): one closed-loop
//! diagram of plant + controller subsystems. "During the simulation, the
//! PE blocks remain in the model since they have inputs/outputs for
//! signals from/to the plant model." The controller subsystem constructor
//! is shared between MIL insertion and code generation, so the generated
//! application is the very artifact that was simulated.

use crate::peblocks::{DiscretePid, PeAdc, PeBitIn, PePwm, PeQuadDec, SpeedFromCounts};
use peert_beans::bean::BeanConfig;
use peert_beans::catalog::{AdcBean, BitIoBean, PinEdge, PwmBean, QuadDecBean, TimerIntBean};
use peert_beans::PeProject;
use peert_control::pid::PidConfig;
use peert_control::setpoint::SetpointProfile;
use peert_model::block::{Block, BlockCtx, PortCount, SampleTime};
use peert_model::chart::mode_chart;
use peert_model::graph::{BlockId, Diagram};
use peert_model::library::logic::Switch;
use peert_model::library::sinks::Scope;
use peert_model::library::sources::Step;
use peert_model::log::SharedLog;
use peert_model::subsystem::{Inport, Outport, Subsystem};
use peert_model::Engine;
use peert_pil::cosim::{ControllerFn, PlantFn};
use peert_plant::dcmotor::{DcMotor, DcMotorParams};

/// Feedback path variant.
#[derive(Clone, Debug)]
pub enum Feedback {
    /// Incremental encoder through the quadrature decoder (the paper's).
    Encoder {
        /// Encoder line count (the paper's IRC has 100).
        lines: u32,
    },
    /// Analog tachometer through the ADC — the variant E3 sweeps for the
    /// resolution experiment.
    AnalogTacho {
        /// ADC resolution in bits.
        resolution_bits: u8,
        /// Tachometer full-scale speed (rad/s at Vref-high).
        full_scale: f64,
    },
}

/// Controller arithmetic variant (§7's data-type decision).
#[derive(Clone, Copy, Debug)]
pub enum ControllerArithmetic {
    /// Reference double implementation.
    Float,
    /// Q15 with a speed normalization scale.
    FixedQ15 {
        /// Engineering value of Q15 full scale on the speed channels.
        scale: f64,
    },
}

/// Options assembling one servo model.
#[derive(Clone, Debug)]
pub struct ServoOptions {
    /// Control period in seconds (1 kHz in the case study).
    pub control_period_s: f64,
    /// Speed-loop PID configuration.
    pub pid: PidConfig,
    /// Controller arithmetic.
    pub arithmetic: ControllerArithmetic,
    /// Feedback path.
    pub feedback: Feedback,
    /// Setpoint profile in rad/s.
    pub setpoint: SetpointProfile,
    /// Optional load-torque step: (time s, torque N·m).
    pub load_step: Option<(f64, f64)>,
    /// Motor parameters.
    pub motor: DcMotorParams,
    /// PWM carrier frequency in Hz.
    pub pwm_hz: f64,
    /// Include the button keyboard + manual/automatic mode chart.
    pub mode_logic: bool,
}

impl Default for ServoOptions {
    fn default() -> Self {
        ServoOptions {
            control_period_s: 1e-3,
            pid: PidConfig::servo_speed_loop(),
            arithmetic: ControllerArithmetic::Float,
            feedback: Feedback::Encoder { lines: 100 },
            setpoint: SetpointProfile::from(0.0).at(0.05, 150.0),
            load_step: Some((0.8, 0.05)),
            motor: DcMotorParams::default(),
            pwm_hz: 20_000.0,
            mode_logic: false,
        }
    }
}

/// Replays a [`SetpointProfile`] — the plant-side reference source.
pub struct ProfileSource {
    /// The profile.
    pub profile: SetpointProfile,
}

impl Block for ProfileSource {
    fn type_name(&self) -> &'static str {
        "ProfileSource"
    }
    fn ports(&self) -> PortCount {
        PortCount::new(0, 1)
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let v = self.profile.value(ctx.t);
        ctx.set_output(0, v);
    }
}

/// Build the Fig 7.2 controller subsystem.
///
/// Inports: 0 = feedback signal (shaft angle for the encoder variant,
/// tacho volts for the analog variant), 1 = setpoint (rad/s); with mode
/// logic also 2 = auto button, 3 = manual button, 4 = manual duty.
/// Outport 0 = PWM duty command.
pub fn build_controller(opts: &ServoOptions) -> Result<Subsystem, String> {
    let mut d = Diagram::new();
    let fb_in = d.add("feedback", Inport).map_err(|e| e.to_string())?;
    let sp_in = d.add("setpoint", Inport).map_err(|e| e.to_string())?;

    // feedback conditioning through the PE block of the chosen peripheral
    let speed_src: (BlockId, usize) = match &opts.feedback {
        Feedback::Encoder { lines } => {
            let qd = d
                .add("QD1", PeQuadDec::new("QD1", QuadDecBean::new(*lines)))
                .map_err(|e| e.to_string())?;
            let sfc = d
                .add("speed_calc", SpeedFromCounts::new(lines * 4, opts.control_period_s))
                .map_err(|e| e.to_string())?;
            d.connect((fb_in, 0), (qd, 0)).map_err(|e| e.to_string())?;
            d.connect((qd, 0), (sfc, 0)).map_err(|e| e.to_string())?;
            (sfc, 0)
        }
        Feedback::AnalogTacho { resolution_bits, full_scale } => {
            let adc = d
                .add("AD1", PeAdc::new("AD1", AdcBean::new(*resolution_bits, 0)))
                .map_err(|e| e.to_string())?;
            let code_max = ((1u32 << *resolution_bits) - 1) as f64;
            let scale = d
                .add(
                    "code_to_speed",
                    peert_model::library::math::Gain::new(full_scale / code_max),
                )
                .map_err(|e| e.to_string())?;
            d.connect((fb_in, 0), (adc, 0)).map_err(|e| e.to_string())?;
            d.connect((adc, 0), (scale, 0)).map_err(|e| e.to_string())?;
            (scale, 0)
        }
    };

    let pid_block = match opts.arithmetic {
        ControllerArithmetic::Float => DiscretePid::float(opts.pid)?,
        ControllerArithmetic::FixedQ15 { scale } => DiscretePid::fixed(opts.pid, scale, 1.0)?,
    };
    let pid = d.add("PID", pid_block).map_err(|e| e.to_string())?;
    d.connect((sp_in, 0), (pid, 0)).map_err(|e| e.to_string())?;
    d.connect(speed_src, (pid, 1)).map_err(|e| e.to_string())?;

    let pwm = d
        .add("PWM1", PePwm::new("PWM1", resolved_pwm(opts.pwm_hz)))
        .map_err(|e| e.to_string())?;
    let duty_out = d.add("duty", Outport).map_err(|e| e.to_string())?;

    let mut inports = vec![fb_in, sp_in];
    if opts.mode_logic {
        // the §7 keyboard: auto/manual buttons drive the mode chart; the
        // switch selects the PID output or the manual duty
        let btn_auto = d.add("btn_auto_in", Inport).map_err(|e| e.to_string())?;
        let btn_man = d.add("btn_manual_in", Inport).map_err(|e| e.to_string())?;
        let manual_duty = d.add("manual_duty", Inport).map_err(|e| e.to_string())?;
        let mut auto_bean = BitIoBean::input(0, 0);
        auto_bean.edge = PinEdge::Rising;
        let mut man_bean = BitIoBean::input(0, 1);
        man_bean.edge = PinEdge::Rising;
        let b1 = d
            .add("BTN_AUTO", PeBitIn::new("BTN_AUTO", auto_bean))
            .map_err(|e| e.to_string())?;
        let b2 = d
            .add("BTN_MAN", PeBitIn::new("BTN_MAN", man_bean))
            .map_err(|e| e.to_string())?;
        let chart = d
            .add("mode", mode_chart(SampleTime::Continuous))
            .map_err(|e| e.to_string())?;
        let sw = d.add("mode_switch", Switch).map_err(|e| e.to_string())?;
        d.connect((btn_auto, 0), (b1, 0)).map_err(|e| e.to_string())?;
        d.connect((btn_man, 0), (b2, 0)).map_err(|e| e.to_string())?;
        d.connect((b1, 0), (chart, 0)).map_err(|e| e.to_string())?;
        d.connect((b2, 0), (chart, 1)).map_err(|e| e.to_string())?;
        d.connect((pid, 0), (sw, 0)).map_err(|e| e.to_string())?;
        d.connect((chart, 1), (sw, 1)).map_err(|e| e.to_string())?;
        d.connect((manual_duty, 0), (sw, 2)).map_err(|e| e.to_string())?;
        d.connect((sw, 0), (pwm, 0)).map_err(|e| e.to_string())?;
        inports.extend([btn_auto, btn_man, manual_duty]);
    } else {
        d.connect((pid, 0), (pwm, 0)).map_err(|e| e.to_string())?;
    }
    d.connect((pwm, 0), (duty_out, 0)).map_err(|e| e.to_string())?;

    Subsystem::new(d, inports, vec![duty_out], SampleTime::every(opts.control_period_s))
        .map_err(|e| e.to_string())
}

/// A PWM bean resolved against the case-study part (for realistic duty
/// quantization during MIL).
fn resolved_pwm(freq_hz: f64) -> PwmBean {
    let mut bean = PwmBean::new(freq_hz);
    let spec = peert_mcu::McuCatalog::standard()
        .find("MC56F8367")
        .expect("catalog part")
        .clone();
    let _ = bean.resolve(&spec);
    bean
}

/// The assembled closed-loop model with its instrumentation.
pub struct ServoModel {
    /// The simulation engine over the single model.
    pub engine: Engine,
    /// The controller subsystem's block id.
    pub controller: BlockId,
    /// Logged motor speed (rad/s).
    pub speed_log: SharedLog,
    /// Logged commanded duty.
    pub duty_log: SharedLog,
}

impl ServoModel {
    /// Run the MIL simulation until `t_end` seconds.
    pub fn run(&mut self, t_end: f64) -> Result<(), String> {
        self.engine.run_until(t_end).map_err(|e| e.to_string())
    }
}

/// Build the Fig 7.1 closed-loop single model.
pub fn build_servo_model(opts: &ServoOptions) -> Result<ServoModel, String> {
    let (d, controller, speed_log, duty_log) = assemble_servo(opts)?;
    let engine = Engine::new(d, servo_dt(opts)).map_err(|e| e.to_string())?;
    Ok(ServoModel { engine, controller, speed_log, duty_log })
}

/// The Fig 7.1 closed-loop single model as a bare diagram, with the
/// fundamental step [`build_servo_model`] simulates it at — for
/// harnesses that step it on something other than [`Engine`].
pub fn servo_diagram(opts: &ServoOptions) -> Result<(Diagram, f64), String> {
    Ok((assemble_servo(opts)?.0, servo_dt(opts)))
}

/// The MIL fundamental step: a tenth of the control period.
fn servo_dt(opts: &ServoOptions) -> f64 {
    opts.control_period_s / 10.0
}

/// The closed-loop diagram, its controller id and the two scope logs.
fn assemble_servo(opts: &ServoOptions) -> Result<(Diagram, BlockId, SharedLog, SharedLog), String> {
    let mut d = Diagram::new();
    let sp = d
        .add("setpoint_src", ProfileSource { profile: opts.setpoint.clone() })
        .map_err(|e| e.to_string())?;
    let load = match opts.load_step {
        Some((t, torque)) => d.add("load", Step::new(t, torque)).map_err(|e| e.to_string())?,
        None => d.add("load", Step::new(f64::MAX, 0.0)).map_err(|e| e.to_string())?,
    };
    let controller = d
        .add_boxed("controller".to_string(), Box::new(build_controller(opts)?))
        .map_err(|e| e.to_string())?;
    let motor = d.add("motor", DcMotor::new(opts.motor)).map_err(|e| e.to_string())?;
    let speed_scope = Scope::new();
    let speed_log = speed_scope.log();
    let duty_scope = Scope::new();
    let duty_log = duty_scope.log();
    let s1 = d.add("speed_scope", speed_scope).map_err(|e| e.to_string())?;
    let s2 = d.add("duty_scope", duty_scope).map_err(|e| e.to_string())?;

    // plant → controller: the feedback signal the PE block consumes
    match &opts.feedback {
        Feedback::Encoder { .. } => {
            d.connect((motor, 1), (controller, 0)).map_err(|e| e.to_string())?; // angle
        }
        Feedback::AnalogTacho { full_scale, .. } => {
            // tacho: speed → volts on the 0..3.3 V ADC input
            let tacho = d
                .add("tacho", peert_model::library::math::Gain::new(3.3 / full_scale))
                .map_err(|e| e.to_string())?;
            d.connect((motor, 0), (tacho, 0)).map_err(|e| e.to_string())?;
            d.connect((tacho, 0), (controller, 0)).map_err(|e| e.to_string())?;
        }
    }
    d.connect((sp, 0), (controller, 1)).map_err(|e| e.to_string())?;
    d.connect((controller, 0), (motor, 0)).map_err(|e| e.to_string())?; // duty
    d.connect((load, 0), (motor, 1)).map_err(|e| e.to_string())?;
    d.connect((motor, 0), (s1, 0)).map_err(|e| e.to_string())?;
    d.connect((controller, 0), (s2, 0)).map_err(|e| e.to_string())?;
    Ok((d, controller, speed_log, duty_log))
}

/// The PE project mirroring the servo model's PE blocks (what PES_COM sync
/// produces).
pub fn servo_project(opts: &ServoOptions, cpu: &str) -> PeProject {
    let mut blocks: Vec<(String, BeanConfig)> = vec![
        ("TI1".into(), BeanConfig::TimerInt(TimerIntBean::new(opts.control_period_s))),
        ("PWM1".into(), BeanConfig::Pwm(PwmBean::new(opts.pwm_hz))),
    ];
    match &opts.feedback {
        Feedback::Encoder { lines } => {
            blocks.push(("QD1".into(), BeanConfig::QuadDec(QuadDecBean::new(*lines))));
        }
        Feedback::AnalogTacho { resolution_bits, .. } => {
            blocks.push(("AD1".into(), BeanConfig::Adc(AdcBean::new(*resolution_bits, 0))));
        }
    }
    if opts.mode_logic {
        let mut auto_bean = BitIoBean::input(0, 0);
        auto_bean.edge = PinEdge::Rising;
        let mut man_bean = BitIoBean::input(0, 1);
        man_bean.edge = PinEdge::Rising;
        blocks.push(("BTN_AUTO".into(), BeanConfig::BitIo(auto_bean)));
        blocks.push(("BTN_MAN".into(), BeanConfig::BitIo(man_bean)));
    }
    crate::target_peert::project_from_blocks(cpu, blocks).expect("unique bean names")
}

/// PIL controller side for the servo: functionally the generated code
/// (encoder counts in, duty out), run per exchange on the board.
pub fn pil_controller(opts: &ServoOptions) -> Result<ControllerFn, String> {
    let Feedback::Encoder { lines } = opts.feedback else {
        return Err("PIL servo adapter expects encoder feedback".into());
    };
    let cpr = lines * 4;
    let ts = opts.control_period_s;
    let mut prev: u16 = 0;
    let mut primed = false;
    let mut pid = peert_control::pid::PidF64::new(opts.pid)?;
    Ok(Box::new(move |samples: &[f64]| {
        // wire sample 0: encoder position register (raw 16-bit pattern)
        let pos = samples[0] as i64 as u16;
        let speed = if primed {
            let delta = pos.wrapping_sub(prev) as i16 as f64;
            delta / cpr as f64 * std::f64::consts::TAU / ts
        } else {
            primed = true;
            0.0
        };
        prev = pos;
        // wire sample 1: setpoint (scaled on the wire by the session)
        let sp = samples.get(1).copied().unwrap_or(0.0);
        vec![pid.step(sp, speed)]
    }))
}

/// PIL plant side for the servo: the motor on the host simulator, shipping
/// the encoder register and the current setpoint each period.
pub fn pil_plant(opts: &ServoOptions) -> PlantFn {
    let lines = match opts.feedback {
        Feedback::Encoder { lines } => lines,
        _ => 100,
    };
    let cpr = (lines * 4) as f64;
    let mut motor = DcMotor::new(opts.motor);
    let profile = opts.setpoint.clone();
    let load = opts.load_step;
    let mut t = 0.0f64;
    Box::new(move |actuation: &[f64], dt: f64| {
        let duty = actuation.first().copied().unwrap_or(0.0).clamp(0.0, 1.0);
        let torque = match load {
            Some((t0, tau)) if t >= t0 => tau,
            _ => 0.0,
        };
        if dt > 0.0 {
            motor.advance(duty, torque, 1.0, dt);
            t += dt;
        }
        let counts =
            (motor.angle() / std::f64::consts::TAU * cpr).floor() as i64 as u16 as i16 as f64;
        vec![counts, profile.value(t)]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use peert_control::metrics::StepMetrics;

    #[test]
    fn mil_servo_tracks_the_setpoint() {
        let opts = ServoOptions { load_step: None, ..Default::default() };
        let mut m = build_servo_model(&opts).unwrap();
        m.run(1.0).unwrap();
        let log = m.speed_log.lock().unwrap();
        let metrics = StepMetrics::from_response(&log.t, &log.y, 150.0, 0.05);
        assert!(
            metrics.steady_state_error.abs() < 2.0,
            "PI removes steady error, got {}",
            metrics.steady_state_error
        );
        assert!(metrics.rise_time > 0.0 && metrics.rise_time < 0.5, "{metrics:?}");
    }

    #[test]
    fn load_step_causes_a_dip_then_recovery() {
        let opts = ServoOptions::default(); // load at 0.8 s
        let mut m = build_servo_model(&opts).unwrap();
        m.run(1.6).unwrap();
        let log = m.speed_log.lock().unwrap();
        let before = log.sample_at(0.79).unwrap();
        let dip = log.sample_at(0.86).unwrap();
        let recovered = log.sample_at(1.55).unwrap();
        assert!(dip < before - 1.0, "load dips the speed: {dip} vs {before}");
        assert!((recovered - 150.0).abs() < 3.0, "integral recovers: {recovered}");
    }

    #[test]
    fn fixed_point_controller_stays_close_to_float() {
        let base = ServoOptions { load_step: None, ..Default::default() };
        let mut float_model = build_servo_model(&base).unwrap();
        float_model.run(0.5).unwrap();
        let q15 = ServoOptions {
            arithmetic: ControllerArithmetic::FixedQ15 { scale: 250.0 },
            ..base
        };
        let mut fixed_model = build_servo_model(&q15).unwrap();
        fixed_model.run(0.5).unwrap();
        let f = float_model.speed_log.lock().unwrap();
        let q = fixed_model.speed_log.lock().unwrap();
        let rms = f.rms_diff(&q);
        assert!(rms < 5.0, "Q15 trajectory close to float: rms {rms}");
    }

    #[test]
    fn analog_tacho_variant_closes_the_loop() {
        let opts = ServoOptions {
            feedback: Feedback::AnalogTacho { resolution_bits: 12, full_scale: 250.0 },
            load_step: None,
            ..Default::default()
        };
        let mut m = build_servo_model(&opts).unwrap();
        m.run(0.6).unwrap();
        let y = m.speed_log.lock().unwrap().sample_at(0.55).unwrap();
        assert!((y - 150.0).abs() < 5.0, "tacho loop settles: {y}");
    }

    #[test]
    fn coarse_adc_degrades_control_quality() {
        let run = |bits: u8| {
            let opts = ServoOptions {
                feedback: Feedback::AnalogTacho { resolution_bits: bits, full_scale: 250.0 },
                load_step: None,
                ..Default::default()
            };
            let mut m = build_servo_model(&opts).unwrap();
            m.run(0.6).unwrap();
            let log = m.speed_log.lock().unwrap();
            StepMetrics::from_response(&log.t, &log.y, 150.0, 0.05).iae
        };
        let fine = run(12);
        let coarse = run(4);
        assert!(coarse > fine, "4-bit feedback is worse: {coarse} vs {fine}");
    }

    #[test]
    fn mode_logic_switches_between_manual_and_auto() {
        let opts = ServoOptions { mode_logic: true, load_step: None, ..Default::default() };
        let mut controller = build_controller(&opts).unwrap();
        use peert_model::block::step_block;
        use peert_model::Value;
        // manual mode (default): duty = manual input
        let (o, _) = step_block(
            &mut controller,
            0.0,
            1e-3,
            &[Value::F64(0.0), Value::F64(100.0), Value::Bool(false), Value::Bool(false), Value::F64(0.3)],
        );
        assert!((o[0].as_f64() - 0.3).abs() < 1e-2, "manual duty passes through");
        // press the auto button → PID takes over
        let (o, _) = step_block(
            &mut controller,
            1e-3,
            1e-3,
            &[Value::F64(0.0), Value::F64(100.0), Value::Bool(true), Value::Bool(false), Value::F64(0.3)],
        );
        let auto_duty = o[0].as_f64();
        assert!((auto_duty - 0.3).abs() > 1e-3, "automatic mode computes its own duty");
    }

    #[test]
    fn servo_project_mirrors_the_blocks() {
        let p = servo_project(&ServoOptions::default(), "MC56F8367");
        assert!(p.find("TI1").is_some());
        assert!(p.find("QD1").is_some());
        assert!(p.find("PWM1").is_some());
        assert!(p.find("AD1").is_none(), "encoder variant has no ADC bean");
        let p2 = servo_project(
            &ServoOptions {
                feedback: Feedback::AnalogTacho { resolution_bits: 12, full_scale: 250.0 },
                mode_logic: true,
                ..Default::default()
            },
            "MC56F8367",
        );
        assert!(p2.find("AD1").is_some());
        assert!(p2.find("BTN_AUTO").is_some());
    }

    #[test]
    fn pil_adapters_close_the_loop_functionally() {
        let opts = ServoOptions { load_step: None, ..Default::default() };
        let mut ctl = pil_controller(&opts).unwrap();
        let mut plant = pil_plant(&opts);
        let mut sensors = plant(&[0.0], 0.0);
        for _ in 0..700 {
            let u = ctl(&sensors);
            sensors = plant(&u, opts.control_period_s);
        }
        let sp = sensors[1];
        assert!((sp - 150.0).abs() < 1e-9, "profile reached its plateau");
        // reconstruct speed the same way the controller does
        let mut ctl2 = pil_controller(&opts).unwrap();
        let _ = ctl2(&sensors);
        // after 0.7 s the loop should hold ~150 rad/s: check duty is active
        let u = ctl(&sensors);
        assert!(u[0] > 0.05 && u[0] < 1.0, "loop actively regulating, duty {}", u[0]);
    }
}
