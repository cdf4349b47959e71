//! A self-contained demo model for the `peert-lint` binary, the golden
//! renderer tests, and the CI determinism gate.
//!
//! The demo mirrors a servo loop in miniature: a setpoint step, a
//! sensed feedback sine, an error sum driving a gain and saturation —
//! plus two deliberate lint targets (a dead block and a constant-
//! foldable subgraph). `defect: true` seeds the three deny-class
//! defects from the verification plan: a forced Q15 overflow, a
//! block ↔ bean bit-width mismatch, and an over-utilized task set.

use crate::analysis::{lint_fingerprint, FormatSpec, LintOptions};
use crate::cross::{lint_block_beans, lint_project};
use crate::diag::LintReport;
use crate::sched::{lint_sched, SchedSpec, TaskSpec};
use peert_beans::bean::{Bean, BeanConfig};
use peert_beans::catalog::{AdcBean, PwmBean, TimerIntBean};
use peert_beans::project::PeProject;
use peert_mcu::McuCatalog;
use peert_model::block::{ParamValue, PortCount, SampleTime};
use peert_model::graph::{BlockFingerprint, BlockId, Diagram, DiagramFingerprint};
use peert_model::library::math::{Gain, Sum};
use peert_model::library::nonlinear::Saturation;
use peert_model::library::sinks::Scope;
use peert_model::library::sources::{Constant, SineWave, Step};

/// Fundamental step of the demo model.
pub const DEMO_DT: f64 = 1e-3;

/// Build the demo diagram. With `defect` the trim subgraph becomes a
/// constant 6.0 — provably outside Q15 at unit scale.
pub fn demo_model(defect: bool) -> Diagram {
    let mut d = Diagram::new();
    let sp = d.add("setpoint", Step::new(0.05, 0.4)).unwrap();
    let fb = d.add("feedback", SineWave::new(0.2, 5.0)).unwrap();
    let err = d.add("err", Sum::new("+-").unwrap()).unwrap();
    let boost = d.add("boost", Gain::new(1.2)).unwrap();
    let sat = d.add("sat", Saturation::new(-0.9, 0.9).unwrap()).unwrap();
    let duty = d.add("duty", Scope::new()).unwrap();
    d.connect((sp, 0), (err, 0)).unwrap();
    d.connect((fb, 0), (err, 1)).unwrap();
    d.connect((err, 0), (boost, 0)).unwrap();
    d.connect((boost, 0), (sat, 0)).unwrap();
    d.connect((sat, 0), (duty, 0)).unwrap();
    // a dead branch: reads the loop but feeds nothing
    let orphan = d.add("orphan", Gain::new(5.0)).unwrap();
    d.connect((sat, 0), (orphan, 0)).unwrap();
    // a constant-foldable trim path (overflows Q15 in defect mode)
    let (trim_v, trim_k) = if defect { (3.0, 2.0) } else { (0.1, 0.5) };
    let trim = d.add("trim", Constant::new(trim_v)).unwrap();
    let trim_gain = d.add("trim_gain", Gain::new(trim_k)).unwrap();
    let trim_scope = d.add("trim_scope", Scope::new()).unwrap();
    d.connect((trim, 0), (trim_gain, 0)).unwrap();
    d.connect((trim_gain, 0), (trim_scope, 0)).unwrap();
    d
}

/// The demo Processor Expert project: control timer, feedback ADC, and
/// a 20 kHz PWM stage on the MC56F8367.
pub fn demo_project() -> PeProject {
    let mut p = PeProject::new("MC56F8367");
    p.add(Bean { name: "TI1".into(), config: BeanConfig::TimerInt(TimerIntBean::new(DEMO_DT)) })
        .unwrap();
    p.add(Bean { name: "AD1".into(), config: BeanConfig::Adc(AdcBean::new(12, 0)) }).unwrap();
    p.add(Bean { name: "PWM1".into(), config: BeanConfig::Pwm(PwmBean::new(20_000.0)) }).unwrap();
    p
}

fn pe_block(
    name: &str,
    type_name: &str,
    params: Vec<(&'static str, ParamValue)>,
    events: usize,
    target: Option<usize>,
) -> BlockFingerprint {
    BlockFingerprint {
        name: name.into(),
        type_name: type_name.into(),
        params: params.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        ports: PortCount::with_events(0, 1, events),
        feedthrough: false,
        sample: SampleTime::Continuous,
        sources: Vec::new(),
        event_targets: vec![target.map(BlockId::from_index); events],
    }
}

/// Fingerprint of the PE hardware layer of the demo model (the blocks
/// the closed-loop model would contain around the controller). With
/// `defect` the ADC block simulates 10 bits against the 12-bit bean.
pub fn demo_pe_fingerprint(defect: bool) -> DiagramFingerprint {
    let adc_bits = if defect { 10 } else { 12 };
    DiagramFingerprint {
        blocks: vec![
            BlockFingerprint {
                name: "ctl".into(),
                type_name: "Subsystem".into(),
                params: Vec::new(),
                ports: PortCount::new(1, 1),
                feedthrough: true,
                sample: SampleTime::Triggered,
                sources: vec![Some((BlockId::from_index(2), 0))],
                event_targets: Vec::new(),
            },
            pe_block(
                "timer",
                "PeTimerInt",
                vec![("bean", ParamValue::S("TI1".into())), ("period", ParamValue::F(DEMO_DT))],
                1,
                Some(0),
            ),
            pe_block(
                "adc",
                "PeAdc",
                vec![
                    ("bean", ParamValue::S("AD1".into())),
                    ("resolution", ParamValue::I(adc_bits)),
                ],
                0,
                None,
            ),
        ],
    }
}

/// The demo task set: the E7 configuration (60 MHz bus, 1 kHz control
/// task of 3000 cycles). With `defect` the handler cost exceeds the
/// period — utilization above 100%.
pub fn demo_tasks(defect: bool) -> SchedSpec {
    SchedSpec {
        bus_hz: 60e6,
        isr_entry: 12,
        isr_exit: 8,
        background_burst_cycles: Some(54_000),
        tasks: vec![TaskSpec {
            name: "ctl".into(),
            period_s: DEMO_DT,
            cost_cycles: if defect { 70_000 } else { 3_000 },
        }],
    }
}

/// Run the full demo lint: model rules at Q15 unit scale, cross-layer
/// rules against the demo project, and the schedulability bound.
pub fn demo_lint(defect: bool) -> LintReport {
    let opts = LintOptions::with_format(FormatSpec::q15());
    let mut report =
        lint_fingerprint(&demo_model(defect).fingerprint(), DEMO_DT, &opts).report;
    let project = demo_project();
    let spec = McuCatalog::standard()
        .find(project.cpu())
        .expect("demo project targets a cataloged MCU")
        .clone();
    report.merge(lint_project(&project, &spec, &opts.config));
    report.merge(lint_block_beans(&demo_pe_fingerprint(defect), &project, &opts.config));
    let (_, sched_report) = lint_sched(&demo_tasks(defect), &opts.config);
    report.merge(sched_report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::rules;

    #[test]
    fn clean_demo_is_deny_clean_but_not_silent() {
        let r = demo_lint(false);
        assert!(r.is_deny_clean(), "{:?}", r.denials().collect::<Vec<_>>());
        assert!(r.has_rule(rules::GRAPH_DEAD));
        assert!(r.has_rule(rules::GRAPH_CONST_FOLD));
    }

    #[test]
    fn defect_demo_trips_the_expected_rules() {
        let r = demo_lint(true);
        assert!(!r.is_deny_clean());
        assert!(r.has_rule(rules::NUM_OVERFLOW));
        assert!(r.has_rule(rules::CFG_ADC_WIDTH));
        assert!(r.has_rule(rules::SCHED_UTIL));
        assert!(r.has_rule(rules::SCHED_OVERRUN));
    }
}
