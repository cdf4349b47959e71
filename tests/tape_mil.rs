//! Integration: every MIL model steps on the kernel tape, custom blocks
//! and function-call events included. The paper's servo case study
//! (§7) keeps its PE blocks, plant and scopes in the loop through
//! trampoline entries and must match the reference interpreter bit for
//! bit; event-driven diagrams (§5) dispatch on the tape with exact
//! execution counts.

use peert::peblocks::PeBitIn;
use peert::servo::{servo_diagram, ControllerArithmetic, ServoOptions};
use peert_beans::catalog::{BitIoBean, PinEdge};
use peert_model::block::{Block, BlockCtx, PortCount, SampleTime};
use peert_model::graph::{BlockId, Diagram};
use peert_model::library::math::Gain;
use peert_model::library::sources::{Constant, PulseGenerator};
use peert_model::subsystem::{Inport, Outport, Subsystem};
use peert_model::{Engine, SimError};
use peert_plant::dcmotor::{DcMotor, DcMotorParams};
use peert_verify::diff::value_bits;
use peert_verify::interp::RefInterp;

/// Step `diagram` on the tape and `reference` (a second instance of the
/// same model) on the reference interpreter, comparing every output
/// port of every block after every step and the eval counts at the end.
fn assert_tape_matches_reference(e: &mut Engine, r: &mut RefInterp, steps: usize, what: &str) {
    let ids = r.ids();
    for s in 0..steps {
        e.step().unwrap();
        r.step();
        for &id in &ids {
            for p in 0..r.outputs_of(id) {
                assert_eq!(
                    value_bits(e.probe((id, p))),
                    value_bits(r.probe(id, p)),
                    "{what}: step {s}, block '{}' port {p}",
                    e.diagram().name(id)
                );
            }
        }
    }
    assert_eq!(e.block_evals(), r.evals(), "{what}: eval accounting");
}

/// Names of the blocks whose tape entries are trampolines: exactly the
/// top-level blocks without a kernel lowering.
fn unlowered(d: &Diagram) -> Vec<&str> {
    d.ids().filter(|&id| d.block(id).lower().is_none()).map(|id| d.name(id)).collect()
}

/// Run the servo lockstep for 15 000 steps (1.5 s); returns the final
/// motor speed.
fn servo_lockstep(opts: &ServoOptions, what: &str) -> f64 {
    let (d, dt) = servo_diagram(opts).unwrap();
    assert_eq!(
        unlowered(&d),
        ["setpoint_src", "controller", "motor", "speed_scope", "duty_scope"],
        "ProfileSource, Subsystem, DcMotor and both Scopes trampoline"
    );
    let mut e = Engine::new(d, dt).unwrap();
    assert_eq!(e.compiled_plan().trampolines(), 5);
    assert_eq!(e.compiled_plan().tape_len(), 6, "the load Step is a kernel");
    let mut r = RefInterp::new(servo_diagram(opts).unwrap().0, dt).unwrap();
    assert_tape_matches_reference(&mut e, &mut r, 15_000, what);
    let motor = e.diagram().find("motor").unwrap();
    e.probe((motor, 0)).as_f64()
}

#[test]
fn the_float_servo_steps_on_the_tape_bit_exact_with_the_reference() {
    let speed = servo_lockstep(&ServoOptions::default(), "float servo");
    assert!(speed > 100.0, "the loop pulls the motor up to 150 rad/s, got {speed}");
}

#[test]
fn the_q15_servo_steps_on_the_tape_bit_exact_with_the_reference() {
    let opts = ServoOptions {
        arithmetic: ControllerArithmetic::FixedQ15 { scale: 250.0 },
        ..ServoOptions::default()
    };
    let speed = servo_lockstep(&opts, "Q15 servo");
    assert!(speed > 100.0, "the loop pulls the motor up to 150 rad/s, got {speed}");
}

#[test]
fn the_mode_logic_servo_steps_on_the_tape_bit_exact_with_the_reference() {
    let opts = ServoOptions { mode_logic: true, ..ServoOptions::default() };
    let speed = servo_lockstep(&opts, "mode-logic servo");
    // no button press: the chart stays in manual mode at zero duty, and
    // the 0.8 s load step turns the idle motor backwards
    assert!(speed < 0.0, "manual mode at zero duty, got {speed}");
}

#[test]
fn every_port_of_a_multi_output_custom_block_probes() {
    let motor = |d: &mut Diagram| {
        let duty = d.add("duty", Constant::new(0.6)).unwrap();
        let m = d.add("motor", DcMotor::new(DcMotorParams::default())).unwrap();
        d.connect((duty, 0), (m, 0)).unwrap();
        m
    };
    let mut d = Diagram::new();
    let m = motor(&mut d);
    let mut reference = Diagram::new();
    motor(&mut reference);
    let mut e = Engine::new(d, 1e-4).unwrap();
    let mut r = RefInterp::new(reference, 1e-4).unwrap();
    assert_tape_matches_reference(&mut e, &mut r, 2_000, "DcMotor");
    // speed, angle and current all moved off zero, each in its own slot
    let ports: Vec<f64> = (0..3).map(|p| e.probe((m, p)).as_f64()).collect();
    assert!(ports.iter().all(|&v| v > 0.0), "{ports:?}");
    assert!(ports[0] != ports[1] && ports[1] != ports[2], "{ports:?}");
}

/// y = 3·u, executed only when a function call arrives.
fn triggered_gain3() -> Subsystem {
    let mut inner = Diagram::new();
    let u = inner.add("u", Inport).unwrap();
    let g = inner.add("g", Gain::new(3.0)).unwrap();
    let y = inner.add("y", Outport).unwrap();
    inner.connect((u, 0), (g, 0)).unwrap();
    inner.connect((g, 0), (y, 0)).unwrap();
    Subsystem::new(inner, vec![u], vec![y], SampleTime::Triggered).unwrap()
}

#[test]
fn a_button_edge_fires_a_triggered_subsystem_on_the_tape() {
    // the event_driven_thermal shape: a pulse train drives a PE input
    // pin whose rising-edge event runs a function-call subsystem
    let mut d = Diagram::new();
    // high on steps 0–4 of every 10 (1 ms steps), so 10 rising edges in
    // 100 steps, the first at step 0
    let press = d
        .add("press", PulseGenerator { amplitude: 1.0, period: 0.01, duty: 0.45, delay: 0.0 })
        .unwrap();
    let mut bean = BitIoBean::input(0, 2);
    bean.edge = PinEdge::Rising;
    let button = d.add("BTN", PeBitIn::new("BTN", bean)).unwrap();
    let logic = d.add("logic", triggered_gain3()).unwrap();
    let after = d.add("after", Gain::new(2.0)).unwrap();
    d.connect((press, 0), (button, 0)).unwrap();
    d.connect((button, 0), (logic, 0)).unwrap();
    d.connect_event(button, 0, logic).unwrap();
    d.connect((logic, 0), (after, 0)).unwrap();

    let mut e = Engine::new(d, 1e-3).unwrap();
    let plan = e.compiled_plan();
    assert_eq!((plan.tape_len(), plan.trampolines()), (4, 2), "button and subsystem");
    e.step().unwrap();
    // the subsystem ran inside the button's entry, before `after` read it
    assert_eq!(e.probe((logic, 0)).as_f64(), 3.0);
    assert_eq!(e.probe((after, 0)).as_f64(), 6.0);
    for _ in 1..100 {
        e.step().unwrap();
    }
    assert_eq!(e.triggered_execs(), 10, "one dispatch per rising edge");
    // three periodic blocks × two phases × 100 steps, plus output and
    // update of each of the 10 dispatches
    assert_eq!(e.block_evals(), 3 * 2 * 100 + 2 * 10);

    // an external fire uses the same dispatch
    e.fire(logic).unwrap();
    assert_eq!((e.triggered_execs(), e.block_evals()), (11, 622));
    e.reset();
    assert_eq!((e.triggered_execs(), e.block_evals(), e.probe((after, 0)).as_f64()), (0, 0, 0.0));
}

/// Emits its event port on every output phase.
struct Emitter;
impl Block for Emitter {
    fn type_name(&self) -> &'static str {
        "Emitter"
    }
    fn ports(&self) -> PortCount {
        PortCount::with_events(0, 0, 1)
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        ctx.emit_event(0);
    }
}

/// A triggered block that re-triggers itself.
struct Echo;
impl Block for Echo {
    fn type_name(&self) -> &'static str {
        "Echo"
    }
    fn ports(&self) -> PortCount {
        PortCount::with_events(0, 0, 1)
    }
    fn sample(&self) -> SampleTime {
        SampleTime::Triggered
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        ctx.emit_event(0);
    }
}

#[test]
fn a_self_triggering_block_is_an_event_storm_on_the_tape() {
    let mut d = Diagram::new();
    let src = d.add("src", Emitter).unwrap();
    let echo = d.add("echo", Echo).unwrap();
    d.connect_event(src, 0, echo).unwrap();
    d.connect_event(echo, 0, echo).unwrap();
    let mut e = Engine::new(d, 1e-3).unwrap();
    assert_eq!(e.step(), Err(SimError::EventStorm { t: 0.0 }));
    assert_eq!(e.triggered_execs(), 10_000, "stopped at the dispatch cap");
    assert_eq!(e.steps(), 0, "the failed step did not advance time");
    let echo: BlockId = echo;
    assert!(matches!(e.fire(echo), Err(SimError::EventStorm { .. })));
}
