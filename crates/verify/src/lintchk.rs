//! The "lint" verification phase: prove the static analyzer's claims
//! against actual execution.
//!
//! `peert-lint` makes three falsifiable promises, and this module
//! tests each one on generated diagrams instead of trusting the
//! implementation:
//!
//! * **Certification soundness** — when the interval analysis certifies
//!   a diagram overflow-free at a fixed-point format, no value the
//!   engine actually produces may leave the format's representable
//!   range. The format's scale is chosen *adversarially tight*: the
//!   smallest power of two covering the analysis bounds, so the claim
//!   is checked right at the edge the analyzer drew.
//! * **Dead-block elimination** — removing a block the lint marked dead
//!   must be trajectory-preserving: every live block's every output
//!   port must match bit-for-bit between the original diagram and the
//!   reduced one, at every step.
//! * **Defect detection** — seeded deny-class defects (a Q15 overflow
//!   by construction, an over-utilized task set, a `checked_generate`
//!   call on an overflowing controller) must be refused with exactly
//!   the expected rule IDs.

use crate::diff::value_bits;
use crate::interp::RefInterp;
use crate::spec::DiagramSpec;
use peert_lint::{
    lint_sched, rules, CheckedGenerateError, FormatSpec, LintConfig, LintOptions, SchedSpec,
    TaskSpec,
};
use peert_model::block::SampleTime;
use peert_model::graph::Diagram;
use peert_model::library::math::Gain;
use peert_model::library::sources::Constant;
use peert_model::signal::Value;
use peert_model::subsystem::{Outport, Subsystem};
use peert_model::Engine;

/// What one lint case proved.
#[derive(Clone, Copy, Debug, Default)]
pub struct LintCaseReport {
    /// The case was certified overflow-free and the certificate held.
    pub certified: bool,
    /// Dead blocks whose removal was proved bit-exact.
    pub dead_removed: u64,
}

/// The smallest power-of-two scale whose Q15 real range covers `m`.
pub(crate) fn covering_scale(m: f64) -> f64 {
    let mut scale = 1.0f64;
    // Q15 real_max is just below 1.0, so a bound of exactly `scale`
    // still needs the next power up; hence `>=`.
    while m >= scale && scale < 1e30 {
        scale *= 2.0;
    }
    scale
}

/// Run the lint phase on one generated spec.
pub fn run_lint_case(spec: &DiagramSpec, steps: u64) -> Result<LintCaseReport, String> {
    let diagram = spec.build()?;
    let fp = diagram.fingerprint();
    let mut report = LintCaseReport::default();

    // -- certification soundness ------------------------------------
    // First pass without a format to learn the bounds, then lint again
    // at the tightest covering scale and check the certificate.
    let free = peert_lint::lint_fingerprint(&fp, spec.dt, &LintOptions::default());
    if free.all_finite {
        let max_abs = free
            .bounds
            .iter()
            .zip(fp.blocks.iter())
            .filter(|(_, b)| b.ports.outputs > 0)
            .map(|(i, _)| i.abs_max())
            .fold(0.0f64, f64::max);
        let format = FormatSpec {
            format: peert_fixedpoint::QFormat::Q15,
            scale: covering_scale(max_abs),
        };
        let lint =
            peert_lint::lint_fingerprint(&fp, spec.dt, &LintOptions::with_format(format));
        if lint.certified_overflow_free(Some(&format)) {
            let (lo, hi) = format.real_range();
            let d = spec.build()?;
            let ids: Vec<_> = d.ids().collect();
            let ports: Vec<usize> =
                ids.iter().map(|&id| d.block(id).ports().outputs).collect();
            let mut engine = Engine::new(d, spec.dt).map_err(|e| format!("{e:?}"))?;
            for step in 0..steps {
                engine.step().map_err(|e| format!("engine step {step}: {e:?}"))?;
                for (i, &id) in ids.iter().enumerate() {
                    for port in 0..ports[i] {
                        if let Value::F64(v) = engine.probe((id, port)) {
                            if v < lo || v > hi {
                                return Err(format!(
                                    "certified overflow-free at {} × {}, but step {step} \
                                     block #{} port {port} produced {v} outside [{lo}, {hi}]",
                                    format.format, format.scale, id.index()
                                ));
                            }
                        }
                    }
                }
            }
            report.certified = true;
        }
    }

    // -- dead-block elimination is trajectory-preserving -------------
    for &dead in &free.dead {
        check_dead_removal(spec, dead, &free.dead, steps)?;
        report.dead_removed += 1;
    }

    // -- the kernel backend consumes the same proof: lint's dead set
    // pruned straight off the compiled tape must leave every live
    // block's trajectory bit-identical
    if !free.dead.is_empty() {
        check_pruned_tape(spec, &free.dead, steps)?;
    }

    Ok(report)
}

/// Compile `spec` with lint's dead set pruned from the kernel tape
/// (`Engine::compiled_pruned`) and demand every *live* block's output
/// trajectory is bit-identical to the reference interpreter's, with the
/// tape exactly `dead.len()` instructions shorter than the unpruned
/// compile.
fn check_pruned_tape(spec: &DiagramSpec, dead: &[usize], steps: u64) -> Result<(), String> {
    let d_ref = spec.build()?;
    let ids: Vec<_> = d_ref.ids().collect();
    let ports: Vec<usize> = ids.iter().map(|&id| d_ref.block(id).ports().outputs).collect();
    let mut reference = RefInterp::new(d_ref, spec.dt)?;
    let mut pruned = Engine::compiled_pruned(spec.build()?, spec.dt, dead)
        .map_err(|e| format!("pruned compile: {e:?}"))?;

    let full = Engine::compiled_pruned(spec.build()?, spec.dt, &[])
        .map_err(|e| format!("full compile: {e:?}"))?;
    let (full_len, pruned_len) =
        (full.compiled_plan().tape_len(), pruned.compiled_plan().tape_len());
    if pruned_len + dead.len() != full_len {
        return Err(format!(
            "pruning {} dead block(s) shrank the tape {} -> {} (expected {})",
            dead.len(),
            full_len,
            pruned_len,
            full_len - dead.len()
        ));
    }

    for step in 0..steps {
        reference.step();
        pruned.step().map_err(|e| format!("pruned step {step}: {e:?}"))?;
        for (i, &id) in ids.iter().enumerate() {
            if dead.contains(&i) {
                continue;
            }
            for port in 0..ports[i] {
                let rv = reference.probe(id, port);
                let pv = pruned.probe((id, port));
                if value_bits(rv) != value_bits(pv) {
                    return Err(format!(
                        "pruned tape changed live block #{i} port {port} at step {step}: \
                         {pv:?} != {rv:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Remove block `dead` from `spec` and demand every *live* block's
/// trajectory is bit-identical to the original diagram's.
fn check_dead_removal(
    spec: &DiagramSpec,
    dead: usize,
    all_dead: &[usize],
    steps: u64,
) -> Result<(), String> {
    let reduced = spec.without_block(dead);
    let d_full = spec.build()?;
    let d_red = reduced.build()?;
    let ids_full: Vec<_> = d_full.ids().collect();
    let ids_red: Vec<_> = d_red.ids().collect();
    let ports: Vec<usize> =
        ids_full.iter().map(|&id| d_full.block(id).ports().outputs).collect();
    let mut full = Engine::new(d_full, spec.dt).map_err(|e| format!("{e:?}"))?;
    let mut red = Engine::new(d_red, spec.dt).map_err(|e| format!("{e:?}"))?;
    // other dead blocks may legitimately change (a removed block can
    // have fed them) — only live blocks are the observable surface
    let remap = |i: usize| if i > dead { i - 1 } else { i };
    for step in 0..steps {
        full.step().map_err(|e| format!("full step {step}: {e:?}"))?;
        red.step().map_err(|e| format!("reduced step {step}: {e:?}"))?;
        for (i, &id) in ids_full.iter().enumerate() {
            if all_dead.contains(&i) {
                continue;
            }
            for port in 0..ports[i] {
                let fv = full.probe((id, port));
                let rv = red.probe((ids_red[remap(i)], port));
                if value_bits(fv) != value_bits(rv) {
                    return Err(format!(
                        "removing dead block #{dead} changed live block #{i} port {port} \
                         at step {step}: {fv:?} != {rv:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The seeded deny-class defects: each must be refused with exactly the
/// expected rule IDs. Returns the number of defect checks that passed.
pub fn run_lint_defect_checks() -> Result<u64, String> {
    let mut passed = 0u64;

    // 1. a forced Q15 overflow: Constant 3.0 → Gain 2.0 → sink, linted
    // at the unit-scale Q15 format, must deny with num.overflow
    let spec = DiagramSpec {
        dt: 1e-3,
        blocks: vec![
            crate::spec::BlockSpec::Constant { value: 3.0 },
            crate::spec::BlockSpec::Gain { gain: 2.0 },
            crate::spec::BlockSpec::Output,
        ],
        wires: vec![(0, 0, 1, 0), (1, 0, 2, 0)],
    };
    let fp = spec.build()?.fingerprint();
    let lint = peert_lint::lint_fingerprint(
        &fp,
        spec.dt,
        &LintOptions::with_format(FormatSpec::q15()),
    );
    if lint.report.is_deny_clean() || !lint.report.has_rule(rules::NUM_OVERFLOW) {
        return Err("forced Q15 overflow was not denied with num.overflow".into());
    }
    passed += 1;

    // 2. an over-utilized task set must deny with sched.util AND predict
    // the overrun
    let sched = SchedSpec {
        bus_hz: 60e6,
        isr_entry: 12,
        isr_exit: 10,
        background_burst_cycles: Some(54_000),
        tasks: vec![TaskSpec { name: "ctl".into(), period_s: 1e-3, cost_cycles: 70_000 }],
    };
    let (verdict, sreport) = lint_sched(&sched, &LintConfig::new());
    if sreport.is_deny_clean()
        || !sreport.has_rule(rules::SCHED_UTIL)
        || !sreport.has_rule(rules::SCHED_OVERRUN)
        || !verdict.any_overrun()
    {
        return Err("over-utilized task set was not denied with sched.util/sched.overrun".into());
    }
    passed += 1;

    // 3. the codegen gate: generating fixed-point code for an
    // overflowing controller must be refused before any code is emitted
    let mut inner = Diagram::new();
    let c = inner.add("big", Constant::new(3.0)).map_err(|e| e.to_string())?;
    let g = inner.add("double", Gain::new(2.0)).map_err(|e| e.to_string())?;
    let o = inner.add("out", Outport).map_err(|e| e.to_string())?;
    inner.connect((c, 0), (g, 0)).map_err(|e| e.to_string())?;
    inner.connect((g, 0), (o, 0)).map_err(|e| e.to_string())?;
    let sub = Subsystem::new(inner, vec![], vec![o], SampleTime::every(1e-3))
        .map_err(|e| e.to_string())?;
    let opts = peert_codegen::CodegenOptions {
        arithmetic: peert_codegen::Arithmetic::FixedQ15,
        dt: 1e-3,
    };
    match peert_lint::checked_generate(
        &sub,
        "defect",
        &opts,
        &peert_codegen::TlcRegistry::standard(),
        &LintOptions::default(),
    ) {
        Err(CheckedGenerateError::LintDenied(r)) if r.has_rule(rules::NUM_OVERFLOW) => passed += 1,
        Err(e) => return Err(format!("checked_generate failed the wrong way: {e}")),
        Ok(_) => return Err("checked_generate emitted code for an overflowing controller".into()),
    }

    Ok(passed)
}
