//! Certified quantization-error analysis.
//!
//! This module answers, *statically*, the question the PIL differential
//! runs measure empirically: by how much can the fixed-point (or
//! boundary-quantized) execution of a diagram diverge from the exact
//! floating-point run? Every block output that rounds is a *quantization
//! site* owning one affine noise symbol (see [`crate::affine`]); forms
//! are propagated through the full block library by a Kleene iteration,
//! so errors that travel two reconverging paths with opposite signs
//! cancel instead of compounding.
//!
//! Two runs of the same propagation are compared:
//!
//! * **affine** — forms keep their symbols (correlation preserved);
//! * **interval** — every gathered form is decorrelated first, which is
//!   exactly the classic interval-width error analysis.
//!
//! By construction the affine radius never exceeds the interval radius,
//! and the gap is the payoff of the domain (the verify "numeric" phase
//! measures it across a seeded corpus).
//!
//! When the Kleene iteration does not stabilize (marginally-stable
//! accumulators: an unlimited `DiscreteIntegrator`, an expansive filter
//! in a loop), a second radius-only phase runs the error recurrence as a
//! monotone increasing orbit and certifies a *per-step growth rate*
//! instead: each transfer used there is monotone and concave, so once
//! the observed orbit increments stop growing they can never grow again,
//! and `bound = orbit + rate · remaining_steps` is sound over the whole
//! horizon (the `num.error-growth` rule reports the rate).
//!
//! The result is one [`ErrorCertificate`] per `Outport`. Certificates
//! are conditional on the diagram being free of `num.div-zero` /
//! `num.nan` denials (a NaN dataflow has no meaningful error) and, in
//! the all-blocks model, on every padded value range staying inside the
//! representable format range — ranges that escape are invalidated to an
//! infinite bound rather than silently trusted.

use crate::affine::ErrorForm;
use crate::analysis::FormatSpec;
use crate::diag::{rules, Diagnostic, LintConfig, LintReport, Severity};
use crate::interval::{analyze_with_inputs, param_coeffs, param_f, param_i, param_s, Interval};
use peert_fixedpoint::QFormat;
use peert_model::graph::{BlockFingerprint, DiagramFingerprint};
use std::collections::{BTreeMap, BTreeSet};

/// Where quantization happens, and how much each site can round.
///
/// Two models ship:
///
/// * [`ErrorModel::all_blocks`] — the fixed-point codegen target: every
///   block output rounds to the format grid, coefficients are stored in
///   Q15, and values must stay inside the representable range.
/// * [`ErrorModel::boundary`] — the PIL link: the target computes in the
///   same f64 arithmetic as the MIL model and only the sensor/actuator
///   boundary quantizes.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorModel {
    /// Rounding magnitude applied at every block output (half step of
    /// the storage grid, in real-world units).
    pub output_rounding: f64,
    /// Extra error injected at each `Inport` (sensor-side quantization).
    pub inport_error: f64,
    /// Extra rounding applied at each `Outport` (actuator-side
    /// quantization).
    pub outport_rounding: f64,
    /// Whether `Gain` / `DiscreteTransferFcn` coefficients are stored in
    /// Q15 (adds the coefficient-rounding error term and enables the
    /// `num.coeff-quantization` scan).
    pub quantize_coeffs: bool,
    /// Representable real range; a padded value interval escaping it
    /// invalidates the rounding model for that block (bound becomes ∞).
    pub range: Option<(f64, f64)>,
}

impl ErrorModel {
    /// The fixed-point codegen model for `spec`.
    pub fn all_blocks(spec: &FormatSpec) -> ErrorModel {
        let (lo, hi) = spec.real_range();
        ErrorModel {
            output_rounding: spec.format.max_quantization_error() * spec.scale.abs(),
            inport_error: 0.0,
            outport_rounding: 0.0,
            quantize_coeffs: true,
            range: Some((lo, hi)),
        }
    }

    /// The PIL boundary model: target math is exact, only the link
    /// quantizes (`inport_error` on the way in, `outport_rounding` on
    /// the way out).
    pub fn boundary(inport_error: f64, outport_rounding: f64) -> ErrorModel {
        ErrorModel {
            output_rounding: 0.0,
            inport_error,
            outport_rounding,
            quantize_coeffs: false,
            range: None,
        }
    }
}

/// Options for the quantization-error pass of the lint.
#[derive(Clone, Debug)]
pub struct QuantOptions {
    /// The quantization model to certify against.
    pub model: ErrorModel,
    /// Default per-port tolerance for `num.q15-error` (a certified bound
    /// above this denies; the default ∞ never denies).
    pub tolerance: f64,
    /// Per-port (by `Outport` block name) tolerance overrides.
    pub port_tolerances: BTreeMap<String, f64>,
}

impl QuantOptions {
    /// Analysis-only options for `model` (no tolerance denials).
    pub fn new(model: ErrorModel) -> QuantOptions {
        QuantOptions { model, tolerance: f64::INFINITY, port_tolerances: BTreeMap::new() }
    }
}

/// The machine-readable promise the analysis makes for one output port:
/// over any run of at most `horizon_steps` engine steps, the quantized
/// execution's value at `port` differs from the exact execution's by at
/// most `bound` at every step.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorCertificate {
    /// The `Outport` block name.
    pub port: String,
    /// Diagnostic path (`model/<name>`).
    pub path: String,
    /// Certified worst-case divergence (∞ when nothing could be
    /// certified).
    pub bound: f64,
    /// Certified per-step growth rate (0 when the error fixpoint
    /// converged outright).
    pub growth_per_step: f64,
    /// Engine-step horizon the bound covers.
    pub horizon_steps: u64,
    /// Distinct quantization sites contributing at this port.
    pub sites: usize,
}

/// Full result of [`analyze_errors`], one entry per block in fingerprint
/// order.
#[derive(Clone, Debug)]
pub struct QuantAnalysis {
    /// Correlation-preserving (affine) error radius per block output.
    pub affine: Vec<f64>,
    /// Decorrelated (interval-width) error radius per block output.
    pub interval: Vec<f64>,
    /// The certified bound actually used: `min(affine, interval)`, with
    /// range-invalidated blocks forced to ∞.
    pub bound: Vec<f64>,
    /// Certified per-step growth rate per block (0 unless the growth
    /// phase ran).
    pub growth: Vec<f64>,
    /// Per-step growth of the block's *state* error — nonzero exactly at
    /// the accumulators the `num.error-growth` rule anchors to.
    pub state_growth: Vec<f64>,
    /// Whether the Kleene iteration stabilized in both modes (if not,
    /// the bounds come from the growth extrapolation).
    pub converged: bool,
    /// Distinct quantization sites across the whole diagram.
    pub sites: usize,
    /// One certificate per `Outport`, in fingerprint order.
    pub certificates: Vec<ErrorCertificate>,
}

/// Extra Kleene passes beyond the block count, absorbing state-update
/// lag in feedback loops.
const PASS_SLACK: usize = 4;

/// `a·b` with the convention `0·∞ = 0` (an absent error contributes
/// nothing no matter how large its multiplier).
fn mul0(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        a * b
    }
}

/// Quantized Q15 coefficient and the magnitude of its rounding delta.
fn q15_coeff(k: f64) -> (f64, f64) {
    let kq = QFormat::Q15.pass(k);
    (kq, (kq - k).abs())
}

/// Non-strict blocks: their output reads only internal state, so a ⊥
/// input does not make the output ⊥ (this is what lets the Kleene
/// iteration enter feedback loops).
fn is_state_output(type_name: &str) -> bool {
    matches!(type_name, "UnitDelay" | "DiscreteIntegrator")
}

/// Blocks whose output differs between the exact and quantized runs
/// *even on identical input trajectories* (their stored coefficients
/// differ), so the identical-inputs shortcut must not apply.
fn coeff_sensitive(type_name: &str) -> bool {
    matches!(type_name, "Gain" | "DiscreteTransferFcn")
}

/// The per-block sample period (params override, engine `dt` fallback).
fn block_period(b: &BlockFingerprint, dt: f64) -> f64 {
    match param_f(&b.params, "period") {
        Some(p) if p > 0.0 => p,
        _ => dt,
    }
}

// ---------------------------------------------------------------------
// Phase 1: affine Kleene iteration
// ---------------------------------------------------------------------

struct Phase1 {
    converged: bool,
    forms: Vec<Option<ErrorForm>>,
}

/// One application of the error transfer for block `i`.
///
/// Inputs come pre-gathered: `ef[p]` is the source form (⊥ as `None`,
/// already decorrelated in interval mode), `uv[p]` the source's value
/// interval from the *exact* run, `pv[p]` the same interval padded by
/// the error radius — the hull covering **both** runs, which is what
/// every branch decision must consult.
///
/// Returns the output form (`None` = ⊥, not yet computable) and, for
/// state-bearing blocks, the candidate state-error radius `ρ'`.
#[allow(clippy::too_many_arguments)]
fn transfer_err(
    b: &BlockFingerprint,
    i: usize,
    n_blocks: usize,
    ef: &[Option<ErrorForm>],
    uv: &[Interval],
    pv: &[Interval],
    rho_i: f64,
    m: &ErrorModel,
    dt: f64,
) -> (Option<ErrorForm>, Option<f64>) {
    let q = m.output_rounding;
    let site = ErrorForm::noise(i as u32, q);
    let ssym = (n_blocks + i) as u32;
    let ty = b.type_name.as_str();

    match ty {
        "Inport" => return (Some(ErrorForm::noise(i as u32, m.inport_error + q)), None),
        // sources compute the same value in both runs; only the output
        // rounding differs
        "Constant" | "Step" | "Ramp" | "SineWave" | "PulseGenerator" | "FromWorkspace"
        | "PeTimerInt" => return (Some(site), None),
        "Outport" => {
            let Some(e) = &ef[0] else { return (None, None) };
            return (Some(e.add(&ErrorForm::noise(i as u32, q + m.outport_rounding))), None);
        }
        _ => {}
    }

    // identical-inputs shortcut: every input error is exactly zero, so
    // both runs see identical trajectories and (states included) compute
    // identical outputs — only this block's own rounding remains. This
    // covers unknown block types too; it is what makes the boundary
    // model exact for subgraphs the quantization never reaches.
    let all_exact = ef.iter().all(|e| matches!(e, Some(f) if f.radius() == 0.0));
    if all_exact && !(m.quantize_coeffs && coeff_sensitive(ty)) {
        return (Some(site), Some(0.0));
    }

    // strictness: feedthrough outputs of a ⊥ input are ⊥; state-output
    // blocks keep emitting from ρ (that is how loops are entered)
    if !is_state_output(ty) && ef.iter().any(|e| e.is_none()) {
        return (None, None);
    }
    let e0 = || ef[0].clone().unwrap_or_else(ErrorForm::zero);

    match ty {
        "Gain" => {
            let k = param_f(&b.params, "gain").unwrap_or(1.0);
            let (k_eff, extra) = if m.quantize_coeffs {
                let (kq, dk) = q15_coeff(k);
                (kq, mul0(dk, uv[0].abs_max()))
            } else {
                (k, 0.0)
            };
            (Some(e0().scale(k_eff).add(&ErrorForm::noise(i as u32, q + extra))), None)
        }
        "Sum" => {
            let signs = param_s(&b.params, "signs").unwrap_or("+");
            let mut acc = ErrorForm::zero();
            for (idx, s) in signs.chars().enumerate() {
                let e = match ef.get(idx) {
                    Some(Some(e)) => e.clone(),
                    Some(None) => return (None, None),
                    None => ErrorForm::zero(),
                };
                acc = if s == '-' { acc.sub(&e) } else { acc.add(&e) };
            }
            (Some(acc.add(&site)), None)
        }
        "Product" => {
            // err(x·y) = x·e_y + y·e_x + e_x·e_y; correlation survives
            // only when one side is an exact constant
            let mut e_acc = ErrorForm::zero();
            let mut v_acc = Interval::point(1.0);
            for idx in 0..ef.len() {
                let ex = ef[idx].clone().unwrap_or_else(ErrorForm::zero);
                let (ra, rx) = (e_acc.radius(), ex.radius());
                e_acc = if ra == 0.0 && v_acc.is_point() {
                    ex.scale(v_acc.lo)
                } else if rx == 0.0 && uv[idx].is_point() {
                    e_acc.scale(uv[idx].lo)
                } else {
                    ErrorForm::residual(
                        mul0(v_acc.abs_max(), rx) + mul0(uv[idx].abs_max(), ra) + mul0(ra, rx),
                    )
                };
                v_acc = v_acc * uv[idx];
            }
            (Some(e_acc.add(&site)), None)
        }
        "MinMax" => {
            let is_max = param_i(&b.params, "is_max").unwrap_or(0) != 0;
            let mut e_acc = e0();
            let mut p_acc = pv[0];
            for idx in 1..ef.len() {
                let ex = ef[idx].clone().unwrap_or_else(ErrorForm::zero);
                let undecidable = p_acc.is_bottom() || pv[idx].is_bottom();
                let first_wins =
                    !undecidable && if is_max { p_acc.lo > pv[idx].hi } else { p_acc.hi < pv[idx].lo };
                let second_wins =
                    !undecidable && if is_max { pv[idx].lo > p_acc.hi } else { pv[idx].hi < p_acc.lo };
                e_acc = if first_wins {
                    e_acc
                } else if second_wins {
                    ex
                } else {
                    // min/max are jointly non-expansive in the ∞-norm
                    ErrorForm::residual(e_acc.radius().max(ex.radius()))
                };
                p_acc = if undecidable {
                    Interval::BOTTOM
                } else if is_max {
                    p_acc.max_with(pv[idx])
                } else {
                    p_acc.min_with(pv[idx])
                };
            }
            (Some(e_acc.add(&site)), None)
        }
        "Abs" => {
            let e = e0();
            let out = if !pv[0].is_bottom() && pv[0].lo >= 0.0 {
                e
            } else if !pv[0].is_bottom() && pv[0].hi <= 0.0 {
                e.neg()
            } else {
                ErrorForm::residual(e.radius())
            };
            (Some(out.add(&site)), None)
        }
        "TrigFn" => {
            let r = e0().radius();
            let out = match param_s(&b.params, "op") {
                // sin/cos are 1-Lipschitz with range width 2
                Some("Sin" | "Cos") => ErrorForm::residual(r.min(2.0)),
                Some("Atan") => ErrorForm::residual(r.min(std::f64::consts::PI)),
                Some("Atan2") => ErrorForm::residual(std::f64::consts::TAU),
                _ => ErrorForm::top(),
            };
            (Some(out.add(&site)), None)
        }
        "Saturation" => {
            let lo = param_f(&b.params, "lo").unwrap_or(f64::NEG_INFINITY);
            let hi = param_f(&b.params, "hi").unwrap_or(f64::INFINITY);
            let w = hi - lo;
            let cap = if w.is_nan() { f64::INFINITY } else { w.max(0.0) };
            let e = e0();
            let out = if pv[0].is_bottom() {
                ErrorForm::residual(e.radius().min(cap))
            } else if pv[0].lo >= lo && pv[0].hi <= hi {
                e // both runs strictly inside: clamp is the identity
            } else if pv[0].hi <= lo || pv[0].lo >= hi {
                ErrorForm::zero() // both runs clamp to the same rail
            } else {
                ErrorForm::residual(e.radius().min(cap))
            };
            (Some(out.add(&site)), None)
        }
        "DeadZone" => {
            let w = param_f(&b.params, "width").unwrap_or(0.0);
            let e = e0();
            let out = if pv[0].is_bottom() {
                ErrorForm::residual(e.radius())
            } else if pv[0].lo > w || pv[0].hi < -w {
                e // both runs on the same linear branch: exact shift
            } else if pv[0].hi <= w && pv[0].lo >= -w {
                ErrorForm::zero() // both runs inside the band → both 0
            } else {
                ErrorForm::residual(e.radius())
            };
            (Some(out.add(&site)), None)
        }
        "Quantizer" => {
            let p = param_f(&b.params, "interval").unwrap_or(0.0);
            if p == 0.0 {
                (Some(ErrorForm::top()), None)
            } else {
                // quant(x) = x + d(x) with |d| ≤ p/2 per run
                (Some(e0().add(&ErrorForm::noise(i as u32, p.abs() + q))), None)
            }
        }
        "RateLimiter" => {
            // y = clamp(u, y_prev ± r·dt): monotone non-expansive in
            // both u and the state, so err ≤ max(e_state, e_u)
            let r_u = e0().radius();
            let cand = rho_i.max(r_u);
            (Some(ErrorForm::noise(ssym, cand).add(&site)), Some(cand))
        }
        "Relay" => {
            let on_pt = param_f(&b.params, "on_point").unwrap_or(0.0);
            let off_pt = param_f(&b.params, "off_point").unwrap_or(0.0);
            let on_v = param_f(&b.params, "on_value").unwrap_or(0.0);
            let off_v = param_f(&b.params, "off_value").unwrap_or(0.0);
            let p = pv[0];
            // both runs switch (or stay) on / drop (or stay) off
            let decided = !p.is_bottom() && (p.lo >= on_pt || p.hi < off_pt);
            let out = if decided {
                ErrorForm::zero()
            } else {
                ErrorForm::residual((on_v - off_v).abs())
            };
            (Some(out.add(&site)), None)
        }
        "Compare" => {
            let d = pv[0] - pv[1];
            let decided = !d.is_bottom()
                && match param_s(&b.params, "op") {
                    Some("Lt") => d.hi < 0.0 || d.lo >= 0.0,
                    Some("Le") => d.hi <= 0.0 || d.lo > 0.0,
                    Some("Gt") => d.lo > 0.0 || d.hi <= 0.0,
                    Some("Ge") => d.lo >= 0.0 || d.hi < 0.0,
                    Some("Eq" | "Ne") => d.lo > 0.0 || d.hi < 0.0 || (d.lo == 0.0 && d.hi == 0.0),
                    _ => false,
                };
            let out = if decided { ErrorForm::zero() } else { ErrorForm::residual(1.0) };
            (Some(out.add(&site)), None)
        }
        "LogicGate" => {
            // bool(v) = v ≠ 0: an input is decided when its padded hull
            // excludes 0 or is exactly {0}
            let all_decided = pv.iter().all(|p| {
                !p.is_bottom() && (p.lo > 0.0 || p.hi < 0.0 || (p.lo == 0.0 && p.hi == 0.0))
            });
            let out = if all_decided { ErrorForm::zero() } else { ErrorForm::residual(1.0) };
            (Some(out.add(&site)), None)
        }
        "Switch" => {
            let ctl = pv[1];
            let decided_true = !ctl.is_bottom() && (ctl.lo > 0.0 || ctl.hi < 0.0);
            let decided_false = !ctl.is_bottom() && ctl.lo == 0.0 && ctl.hi == 0.0;
            let out = if decided_true {
                ef[0].clone().unwrap_or_else(ErrorForm::zero)
            } else if decided_false {
                ef[2].clone().unwrap_or_else(ErrorForm::zero)
            } else {
                let u = pv[0].union(*pv.get(2).unwrap_or(&Interval::ZERO));
                let w = if u.is_bottom() || !u.is_finite() { f64::INFINITY } else { u.hi - u.lo };
                ErrorForm::residual(w)
            };
            (Some(out.add(&site)), None)
        }
        "UnitDelay" | "ZeroOrderHold" => {
            // the held value is a *stale* realization of the input error
            // (previous step / previous sample), so it gets the state
            // symbol, not the input's symbols — claiming cancellation
            // against the current step would be unsound
            let cand = ef[0].as_ref().map(|e| e.radius());
            (Some(ErrorForm::noise(ssym, rho_i).add(&site)), cand)
        }
        "DiscreteIntegrator" => {
            let p = block_period(b, dt);
            let cap = match (param_f(&b.params, "lo"), param_f(&b.params, "hi")) {
                (Some(lo), Some(hi)) => {
                    let w = hi - lo;
                    if w.is_nan() {
                        f64::INFINITY
                    } else {
                        w.max(0.0)
                    }
                }
                _ => f64::INFINITY,
            };
            let cand = ef[0].as_ref().map(|e| (rho_i + mul0(p, e.radius())).min(cap));
            (Some(ErrorForm::noise(ssym, rho_i).add(&site)), cand)
        }
        "DiscreteDerivative" => {
            let p = param_f(&b.params, "period").unwrap_or(0.0);
            if p <= 0.0 {
                return (Some(ErrorForm::top()), None);
            }
            let e_u = e0();
            let cand = e_u.radius();
            let out = e_u.scale(1.0 / p).add(&ErrorForm::noise(ssym, rho_i / p)).add(&site);
            (Some(out), Some(cand))
        }
        "DiscreteTransferFcn" => {
            let (Some(num), Some(den)) =
                (param_coeffs(&b.params, "num"), param_coeffs(&b.params, "den"))
            else {
                return (Some(ErrorForm::top()), None);
            };
            let (num_q, den_q): (Vec<_>, Vec<_>) = if m.quantize_coeffs {
                (num.iter().map(|&c| q15_coeff(c)).collect(),
                 den.iter().map(|&c| q15_coeff(c)).collect())
            } else {
                (num.iter().map(|&c| (c, 0.0)).collect(),
                 den.iter().map(|&c| (c, 0.0)).collect())
            };
            // the exact run's internal state bound: |w| ≤ |u|/(1 − Σ|aᵢ|)
            let a_sum: f64 = den.iter().map(|a| a.abs()).sum();
            let wmax =
                if a_sum < 1.0 { uv[0].abs_max() / (1.0 - a_sum) } else { f64::INFINITY };
            let aq_sum: f64 = den_q.iter().map(|(a, _)| a.abs()).sum();
            let da_term: f64 = den_q.iter().map(|&(_, d)| mul0(d, wmax)).sum();
            // w0 = u − Σ aᵢ·w_prev: the coefficient delta multiplies the
            // exact run's state, the quantized coefficients its error
            let e_w0 = e0()
                .add(&ErrorForm::noise(ssym, mul0(aq_sum, rho_i)))
                .add(&ErrorForm::noise(i as u32, da_term));
            let b0 = num_q.first().copied().unwrap_or((0.0, 0.0));
            let bq_tail: f64 = num_q.iter().skip(1).map(|(b, _)| b.abs()).sum();
            let db_term: f64 = num_q.iter().map(|&(_, d)| mul0(d, wmax)).sum();
            let out = e_w0
                .scale(b0.0)
                .add(&ErrorForm::noise(ssym, mul0(bq_tail, rho_i)))
                .add(&ErrorForm::noise(i as u32, db_term + q));
            let cand = rho_i.max(e_w0.radius());
            (Some(out), Some(cand))
        }
        "DiscretePid" => match (param_f(&b.params, "umin"), param_f(&b.params, "umax")) {
            (Some(lo), Some(hi)) if hi >= lo && (hi - lo).is_finite() => {
                (Some(ErrorForm::residual(hi - lo).add(&site)), None)
            }
            _ => (Some(ErrorForm::top()), None),
        },
        "PeAdc" => {
            let bits = param_i(&b.params, "resolution").unwrap_or(16).clamp(1, 32) as i32;
            (Some(ErrorForm::residual(2f64.powi(bits) - 1.0).add(&site)), None)
        }
        "PePwm" | "PeBitIn" => (Some(ErrorForm::residual(1.0).add(&site)), None),
        "PeQuadDec" => (Some(ErrorForm::residual(65_535.0).add(&site)), None),
        "SpeedFromCounts" => {
            let cpr = param_i(&b.params, "counts_per_rev").unwrap_or(0);
            let ts = param_f(&b.params, "ts").unwrap_or(0.0);
            if cpr <= 0 || ts <= 0.0 {
                (Some(ErrorForm::top()), None)
            } else {
                let max_speed = 32_768.0 / (cpr as f64) * std::f64::consts::TAU / ts;
                (Some(ErrorForm::residual(2.0 * max_speed).add(&site)), None)
            }
        }
        _ => (Some(ErrorForm::top()), None),
    }
}

/// The Kleene iteration: bottom-initialized forms accumulated with the
/// radius-exact join, state radii accumulated with `max`. Any fixpoint
/// (or partial iterate kept by the join) is a sound over-approximation;
/// `converged` reports whether a full pass changed nothing.
fn phase1(
    fp: &DiagramFingerprint,
    dt: f64,
    m: &ErrorModel,
    vals: &[Interval],
    correlated: bool,
) -> Phase1 {
    let n = fp.blocks.len();
    let mut forms: Vec<Option<ErrorForm>> = vec![None; n];
    let mut rho = vec![0.0f64; n];
    let mut converged = false;
    for _pass in 0..(n + PASS_SLACK) {
        let mut changed = false;
        for (i, b) in fp.blocks.iter().enumerate() {
            let mut ef = Vec::with_capacity(b.ports.inputs);
            let mut uv = Vec::with_capacity(b.ports.inputs);
            let mut pv = Vec::with_capacity(b.ports.inputs);
            for p in 0..b.ports.inputs {
                match b.sources.get(p).copied().flatten() {
                    None => {
                        // unconnected ports read the default 0 exactly
                        ef.push(Some(ErrorForm::zero()));
                        uv.push(Interval::ZERO);
                        pv.push(Interval::ZERO);
                    }
                    Some((src, _port)) => {
                        let s = src.index();
                        let f = forms[s].clone();
                        let f = if correlated { f } else { f.map(|e| e.decorrelate()) };
                        let v = vals.get(s).copied().unwrap_or(Interval::TOP);
                        let padded = match &f {
                            None => Interval::BOTTOM,
                            Some(e) if e.radius().is_infinite() => Interval::TOP,
                            Some(e) => v.pad(e.radius()),
                        };
                        ef.push(f);
                        uv.push(v);
                        pv.push(padded);
                    }
                }
            }
            let (out, cand) = transfer_err(b, i, n, &ef, &uv, &pv, rho[i], m, dt);
            if let Some(out) = out {
                let joined = match &forms[i] {
                    None => out,
                    Some(old) => old.join(&out),
                };
                if forms[i].as_ref() != Some(&joined) {
                    forms[i] = Some(joined);
                    changed = true;
                }
            }
            if let Some(c) = cand {
                if c > rho[i] {
                    rho[i] = c;
                    changed = true;
                }
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    let _ = rho;
    Phase1 { converged, forms }
}

// ---------------------------------------------------------------------
// Phase 2: radius-only growth certification
// ---------------------------------------------------------------------

struct Phase2 {
    bound: Vec<f64>,
    growth: Vec<f64>,
    state_growth: Vec<f64>,
}

/// Topological order of the feedthrough dependency graph (edges into
/// non-feedthrough blocks are next-step edges and excluded). `None` on
/// an algebraic loop — which the engine refuses to run anyway.
fn feedthrough_topo(fp: &DiagramFingerprint) -> Option<Vec<usize>> {
    let n = fp.blocks.len();
    let mut indeg = vec![0usize; n];
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, b) in fp.blocks.iter().enumerate() {
        if !b.feedthrough {
            continue;
        }
        for src in b.sources.iter().flatten() {
            edges[src.0.index()].push(i);
            indeg[i] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let i = queue[head];
        head += 1;
        order.push(i);
        for &j in &edges[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                queue.push(j);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Phase-2 output-radius transfer: monotone and concave in every error
/// component (the foundation of the growth certification), branch-free
/// (decisions could flip as radii grow, breaking concavity), constants
/// frozen from `vals`.
fn transfer_rad(
    b: &BlockFingerprint,
    _dt: f64,
    m: &ErrorModel,
    vals: &[Interval],
    r: &[f64],
    rho_i: f64,
) -> f64 {
    let q = m.output_rounding;
    let ty = b.type_name.as_str();
    let in_r = |p: usize| -> f64 {
        match b.sources.get(p).copied().flatten() {
            None => 0.0,
            Some((src, _)) => r[src.index()],
        }
    };
    let in_v = |p: usize| -> Interval {
        match b.sources.get(p).copied().flatten() {
            None => Interval::ZERO,
            Some((src, _)) => vals.get(src.index()).copied().unwrap_or(Interval::TOP),
        }
    };
    match ty {
        "Inport" => m.inport_error + q,
        "Constant" | "Step" | "Ramp" | "SineWave" | "PulseGenerator" | "FromWorkspace"
        | "PeTimerInt" => q,
        "Outport" => in_r(0) + q + m.outport_rounding,
        "Gain" => {
            let k = param_f(&b.params, "gain").unwrap_or(1.0);
            let (k_eff, extra) = if m.quantize_coeffs {
                let (kq, dk) = q15_coeff(k);
                (kq, mul0(dk, in_v(0).abs_max()))
            } else {
                (k, 0.0)
            };
            mul0(k_eff.abs(), in_r(0)) + extra + q
        }
        "Sum" => {
            let signs = param_s(&b.params, "signs").unwrap_or("+");
            (0..signs.chars().count()).map(&in_r).sum::<f64>() + q
        }
        // bilinear error term (e_x·e_y): not concave, no growth bound
        "Product" => f64::INFINITY,
        // min/max are non-expansive jointly: |min(a,b) − min(a′,b′)| ≤
        // max(|a−a′|, |b−b′|); max is monotone (exactness of the orbit)
        // though not concave (the extrapolated path may refuse, soundly)
        "MinMax" => (0..b.ports.inputs).map(&in_r).fold(0.0, f64::max) + q,
        "Abs" | "DeadZone" => in_r(0) + q,
        "TrigFn" => match param_s(&b.params, "op") {
            Some("Sin" | "Cos") => in_r(0).min(2.0) + q,
            Some("Atan") => in_r(0).min(std::f64::consts::PI) + q,
            Some("Atan2") => std::f64::consts::TAU + q,
            _ => f64::INFINITY,
        },
        "Saturation" => {
            let lo = param_f(&b.params, "lo").unwrap_or(f64::NEG_INFINITY);
            let hi = param_f(&b.params, "hi").unwrap_or(f64::INFINITY);
            let w = hi - lo;
            let cap = if w.is_nan() { f64::INFINITY } else { w.max(0.0) };
            in_r(0).min(cap) + q
        }
        "Quantizer" => {
            let p = param_f(&b.params, "interval").unwrap_or(0.0);
            if p == 0.0 {
                f64::INFINITY
            } else {
                in_r(0) + p.abs() + q
            }
        }
        "RateLimiter" => rho_i + in_r(0) + q,
        "Relay" => {
            let on_v = param_f(&b.params, "on_value").unwrap_or(0.0);
            let off_v = param_f(&b.params, "off_value").unwrap_or(0.0);
            (on_v - off_v).abs() + q
        }
        "Compare" | "LogicGate" => 1.0 + q,
        "Switch" => {
            let u = in_v(0).union(in_v(2));
            let w = if u.is_bottom() || !u.is_finite() { f64::INFINITY } else { u.hi - u.lo };
            w + in_r(0) + in_r(2) + q
        }
        "UnitDelay" | "DiscreteIntegrator" => rho_i + q,
        // a due hold re-samples the *current* input within the step, so
        // the state lag alone would understate it by one increment
        "ZeroOrderHold" => in_r(0).max(rho_i) + q,
        "DiscreteDerivative" => {
            let p = param_f(&b.params, "period").unwrap_or(0.0);
            if p <= 0.0 {
                f64::INFINITY
            } else {
                (in_r(0) + rho_i) / p + q
            }
        }
        "DiscreteTransferFcn" => {
            let (Some(num), Some(den)) =
                (param_coeffs(&b.params, "num"), param_coeffs(&b.params, "den"))
            else {
                return f64::INFINITY;
            };
            let (w0, _, db_term, b0, bq_tail) = dtf_terms(&num, &den, m, in_v(0), in_r(0), rho_i);
            mul0(b0.abs(), w0) + mul0(bq_tail, rho_i) + db_term + q
        }
        "DiscretePid" => match (param_f(&b.params, "umin"), param_f(&b.params, "umax")) {
            (Some(lo), Some(hi)) if hi >= lo && (hi - lo).is_finite() => hi - lo + q,
            _ => f64::INFINITY,
        },
        "PeAdc" => {
            let bits = param_i(&b.params, "resolution").unwrap_or(16).clamp(1, 32) as i32;
            2f64.powi(bits) - 1.0 + q
        }
        "PePwm" | "PeBitIn" => 1.0 + q,
        "PeQuadDec" => 65_535.0 + q,
        "SpeedFromCounts" => {
            let cpr = param_i(&b.params, "counts_per_rev").unwrap_or(0);
            let ts = param_f(&b.params, "ts").unwrap_or(0.0);
            if cpr <= 0 || ts <= 0.0 {
                f64::INFINITY
            } else {
                2.0 * (32_768.0 / (cpr as f64) * std::f64::consts::TAU / ts) + q
            }
        }
        _ => f64::INFINITY,
    }
}

/// Shared `DiscreteTransferFcn` radius terms:
/// `(w0_err, da_term, db_term, b0_q, Σ|b_q[1..]|)`.
fn dtf_terms(
    num: &[f64],
    den: &[f64],
    m: &ErrorModel,
    u_val: Interval,
    u_r: f64,
    rho_i: f64,
) -> (f64, f64, f64, f64, f64) {
    let (num_q, den_q): (Vec<_>, Vec<_>) = if m.quantize_coeffs {
        (num.iter().map(|&c| q15_coeff(c)).collect(), den.iter().map(|&c| q15_coeff(c)).collect())
    } else {
        (num.iter().map(|&c| (c, 0.0)).collect(), den.iter().map(|&c| (c, 0.0)).collect())
    };
    let a_sum: f64 = den.iter().map(|a| a.abs()).sum();
    let wmax = if a_sum < 1.0 { u_val.abs_max() / (1.0 - a_sum) } else { f64::INFINITY };
    let aq_sum: f64 = den_q.iter().map(|(a, _)| a.abs()).sum();
    let da_term: f64 = den_q.iter().map(|&(_, d)| mul0(d, wmax)).sum();
    let db_term: f64 = num_q.iter().map(|&(_, d)| mul0(d, wmax)).sum();
    let b0 = num_q.first().map_or(0.0, |&(b, _)| b);
    let bq_tail: f64 = num_q.iter().skip(1).map(|(b, _)| b.abs()).sum();
    let w0 = u_r + mul0(aq_sum, rho_i) + da_term;
    (w0, da_term, db_term, b0, bq_tail)
}

/// Phase-2 state-radius update `ρ'` (each is `≥ ρ` on the increasing
/// orbit, and monotone + concave like the output transfers).
fn state_rad(
    b: &BlockFingerprint,
    dt: f64,
    m: &ErrorModel,
    vals: &[Interval],
    r: &[f64],
    rho_i: f64,
) -> Option<f64> {
    let in_r = |p: usize| -> f64 {
        match b.sources.get(p).copied().flatten() {
            None => 0.0,
            Some((src, _)) => r[src.index()],
        }
    };
    match b.type_name.as_str() {
        "UnitDelay" | "ZeroOrderHold" | "DiscreteDerivative" => Some(in_r(0)),
        "DiscreteIntegrator" => {
            let p = block_period(b, dt);
            let cap = match (param_f(&b.params, "lo"), param_f(&b.params, "hi")) {
                (Some(lo), Some(hi)) => {
                    let w = hi - lo;
                    if w.is_nan() {
                        f64::INFINITY
                    } else {
                        w.max(0.0)
                    }
                }
                _ => f64::INFINITY,
            };
            Some((rho_i + mul0(p, in_r(0))).min(cap))
        }
        // sum instead of max: max increments are not monotone
        "RateLimiter" => Some(rho_i + in_r(0)),
        "DiscreteTransferFcn" => {
            let (num, den) =
                (param_coeffs(&b.params, "num")?, param_coeffs(&b.params, "den")?);
            let u_val = match b.sources.first().copied().flatten() {
                None => Interval::ZERO,
                Some((src, _)) => vals.get(src.index()).copied().unwrap_or(Interval::TOP),
            };
            let (w0, ..) = dtf_terms(&num, &den, m, u_val, in_r(0), rho_i);
            Some(rho_i + w0)
        }
        _ => None,
    }
}

/// Relative slack for the non-increasing-increment check (float dust).
const GROWTH_SLACK_REL: f64 = 1e-9;
/// Absolute slack companion.
const GROWTH_SLACK_ABS: f64 = 1e-30;

/// Horizons up to this many steps are iterated exactly — one pass per
/// engine step — so the orbit itself is the per-step bound and even
/// super-linear error growth (chained accumulators) gets a finite
/// certificate over the bounded mission. Longer horizons fall back to
/// linear extrapolation with the growth certification.
const PHASE2_EXACT_CAP: u64 = 4096;

/// Run the radius recurrence as an increasing orbit from 0.
///
/// One pass = one engine step: outputs sweep in feedthrough-topological
/// order (so same-step propagation completes within the pass), then
/// states update from the settled outputs. Every transfer is monotone,
/// so the orbit is increasing and the radius after pass `k` bounds the
/// error at every step `≤ k`.
///
/// Short horizons (≤ [`PHASE2_EXACT_CAP`]) simply run `horizon` passes
/// and read the bound off the orbit. Beyond that, the orbit runs for a
/// fixed budget and extrapolates linearly, which needs certification:
/// the transfers are also concave, so increments of the orbit are
/// non-increasing *once they are observed to be* — concavity supplies
/// the induction step, the measured `g2 ≤ g1` the base. Expansive
/// systems (geometric error growth) fail the observation and collapse
/// to ∞, which is correct: no linear extrapolation bounds them.
fn phase2(
    fp: &DiagramFingerprint,
    dt: f64,
    horizon_steps: u64,
    m: &ErrorModel,
    vals: &[Interval],
) -> Phase2 {
    let n = fp.blocks.len();
    let inf = Phase2 {
        bound: vec![f64::INFINITY; n],
        growth: vec![0.0; n],
        state_growth: vec![0.0; n],
    };
    let Some(order) = feedthrough_topo(fp) else {
        return inf; // algebraic loop: the engine refuses it too
    };
    let mut r = vec![0.0f64; n];
    let mut rho = vec![0.0f64; n];
    let budget = n + PASS_SLACK;
    let pass = |r: &mut Vec<f64>, rho: &mut Vec<f64>| {
        for &i in &order {
            r[i] = transfer_rad(&fp.blocks[i], dt, m, vals, r, rho[i]);
        }
        for (i, b) in fp.blocks.iter().enumerate() {
            if let Some(c) = state_rad(b, dt, m, vals, r, rho[i]) {
                rho[i] = rho[i].max(c);
            }
        }
    };

    if horizon_steps <= PHASE2_EXACT_CAP {
        // exact path: the orbit IS the bound, no certification needed
        let passes = horizon_steps.max(2);
        let mut s_prev2 = vec![0.0f64; 2 * n];
        let mut s_prev1 = vec![0.0f64; 2 * n];
        for _ in 0..passes {
            s_prev2 = std::mem::take(&mut s_prev1);
            s_prev1 = r.iter().chain(rho.iter()).copied().collect();
            pass(&mut r, &mut rho);
        }
        let mut bound = vec![f64::INFINITY; n];
        let mut growth = vec![0.0f64; n];
        let mut state_growth = vec![0.0f64; n];
        for i in 0..n {
            if r[i].is_finite() {
                bound[i] = r[i];
                growth[i] = r[i] - s_prev1[i];
            }
            if rho[i].is_finite() {
                let g1 = s_prev1[n + i] - s_prev2[n + i];
                let g2 = rho[i] - s_prev1[n + i];
                // "sustained" filter: a settling accumulator leaves
                // dust (g2 ≪ g1); genuine growth keeps g2 ≈ g1
                if g2 > 0.0 && g2 >= 0.9 * g1 {
                    state_growth[i] = g2;
                }
            }
        }
        return Phase2 { bound, growth, state_growth };
    }

    for _ in 0..budget {
        pass(&mut r, &mut rho);
    }
    let s0: Vec<f64> = r.iter().chain(rho.iter()).copied().collect();
    pass(&mut r, &mut rho);
    let s1: Vec<f64> = r.iter().chain(rho.iter()).copied().collect();
    pass(&mut r, &mut rho);
    let s2: Vec<f64> = r.iter().chain(rho.iter()).copied().collect();

    // certification: for every finite component the increment must not
    // have grown (∞ components are already as bad as they can get)
    let certified = (0..2 * n).all(|k| {
        if !s2[k].is_finite() {
            return true;
        }
        let g1 = s1[k] - s0[k];
        let g2 = s2[k] - s1[k];
        g2 <= g1 * (1.0 + GROWTH_SLACK_REL) + GROWTH_SLACK_ABS
    });
    if !certified {
        return inf;
    }
    let remaining = (horizon_steps as f64 - (budget + 2) as f64).max(0.0);
    let mut bound = vec![f64::INFINITY; n];
    let mut growth = vec![0.0f64; n];
    let mut state_growth = vec![0.0f64; n];
    for i in 0..n {
        if s2[i].is_finite() {
            let g2 = s2[i] - s1[i];
            bound[i] = s2[i] + mul0(g2, remaining);
            growth[i] = g2;
        }
        if s2[n + i].is_finite() {
            let g1 = s1[n + i] - s0[n + i];
            let g2 = s2[n + i] - s1[n + i];
            // "sustained" filter: geometric contraction leaves float
            // dust (g2 ≪ g1); genuine linear growth keeps g2 ≈ g1
            if g2 > 0.0 && g2 >= 0.9 * g1 {
                state_growth[i] = g2;
            }
        }
    }
    Phase2 { bound, growth, state_growth }
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

/// Run the certified error analysis against `model`. `vals` are the
/// per-block output intervals of the *exact* run (from
/// [`crate::interval::analyze_with_inputs`]); every branch decision and
/// range-validity check consults them.
pub fn analyze_errors(
    fp: &DiagramFingerprint,
    dt: f64,
    horizon_steps: u64,
    model: &ErrorModel,
    vals: &[Interval],
) -> QuantAnalysis {
    let n = fp.blocks.len();
    let p1a = phase1(fp, dt, model, vals, true);
    let p1i = phase1(fp, dt, model, vals, false);
    let converged = p1a.converged && p1i.converged;
    let rad_of = |forms: &[Option<ErrorForm>]| -> Vec<f64> {
        forms.iter().map(|f| f.as_ref().map_or(f64::INFINITY, ErrorForm::radius)).collect()
    };
    let (affine, interval, growth, state_growth) = if converged {
        (rad_of(&p1a.forms), rad_of(&p1i.forms), vec![0.0; n], vec![0.0; n])
    } else {
        let p2 = phase2(fp, dt, horizon_steps, model, vals);
        (p2.bound.clone(), p2.bound, p2.growth, p2.state_growth)
    };
    let mut bound: Vec<f64> = (0..n).map(|i| affine[i].min(interval[i])).collect();

    // range validity: the constant-rounding model only holds while the
    // quantized value stays representable; blocks whose padded hull
    // escapes (and everything downstream of them) lose their bound
    if let Some((lo, hi)) = model.range {
        let mut invalid = vec![false; n];
        for (i, b) in fp.blocks.iter().enumerate() {
            if b.ports.outputs == 0 {
                continue;
            }
            let v = vals.get(i).copied().unwrap_or(Interval::TOP);
            let hull = if bound[i].is_infinite() { Interval::TOP } else { v.pad(bound[i]) };
            if v.is_bottom() || hull.lo < lo || hull.hi > hi {
                invalid[i] = true;
            }
        }
        for _ in 0..n {
            let mut changed = false;
            for (i, b) in fp.blocks.iter().enumerate() {
                if invalid[i] {
                    continue;
                }
                if b.sources.iter().flatten().any(|s| invalid[s.0.index()]) {
                    invalid[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (i, inv) in invalid.iter().enumerate() {
            if *inv {
                bound[i] = f64::INFINITY;
            }
        }
    }

    let all_sites: BTreeSet<u32> =
        p1a.forms.iter().flatten().flat_map(ErrorForm::symbols).collect();
    let certificates = fp
        .blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| b.type_name == "Outport")
        .map(|(i, b)| ErrorCertificate {
            port: b.name.clone(),
            path: format!("model/{}", b.name),
            bound: bound[i],
            growth_per_step: growth[i],
            horizon_steps,
            sites: p1a.forms[i].as_ref().map_or(0, |f| f.symbols().count()),
        })
        .collect();
    QuantAnalysis {
        affine,
        interval,
        bound,
        growth,
        state_growth,
        converged,
        sites: all_sites.len(),
        certificates,
    }
}

/// Run [`analyze_errors`] and emit the three `num.*` quantization rules
/// into `report`.
#[allow(clippy::too_many_arguments)]
pub fn check_quant(
    fp: &DiagramFingerprint,
    dt: f64,
    horizon_steps: u64,
    opts: &QuantOptions,
    vals: &[Interval],
    config: &LintConfig,
    report: &mut LintReport,
) -> QuantAnalysis {
    let qa = analyze_errors(fp, dt, horizon_steps, &opts.model, vals);
    let path_of = |i: usize| format!("model/{}", fp.blocks[i].name);

    // num.coeff-quantization: representability of stored coefficients
    if opts.model.quantize_coeffs {
        let mut coeffs: Vec<(usize, String, f64)> = Vec::new();
        for (i, b) in fp.blocks.iter().enumerate() {
            match b.type_name.as_str() {
                "Gain" => {
                    if let Some(k) = param_f(&b.params, "gain") {
                        coeffs.push((i, "gain".into(), k));
                    }
                }
                "DiscreteTransferFcn" => {
                    for key in ["num", "den"] {
                        for (j, c) in
                            param_coeffs(&b.params, key).unwrap_or_default().iter().enumerate()
                        {
                            coeffs.push((i, format!("{key}[{j}]"), *c));
                        }
                    }
                }
                _ => {}
            }
        }
        let (q15_lo, q15_hi) = (QFormat::Q15.real_min(), QFormat::Q15.real_max());
        for (i, name, k) in coeffs {
            if !k.is_finite() {
                continue; // num.nan owns non-finite params
            }
            if k < q15_lo || k > q15_hi {
                let d = Diagnostic {
                    rule: rules::NUM_COEFF_QUANTIZATION.into(),
                    severity: Severity::Error,
                    path: path_of(i),
                    message: format!(
                        "coefficient '{name}' = {k} saturates Q15 ([{q15_lo}, {q15_hi}]) — FRAC16 clamps it"
                    ),
                    suggestion: Some(
                        "rescale the coefficient into Q15 range or split the gain".into(),
                    ),
                };
                if let Some(sev) = config.severity_for_import(&d.rule, d.severity) {
                    report.push_diagnostic(Diagnostic { severity: sev, ..d });
                }
            } else {
                let kq = QFormat::Q15.pass(k);
                if kq != k {
                    report.push(
                        config,
                        rules::NUM_COEFF_QUANTIZATION,
                        path_of(i),
                        format!(
                            "coefficient '{name}' = {k} is not exactly representable in Q15 (stored as {kq}, |Δ| = {:.3e})",
                            (kq - k).abs()
                        ),
                        Some("pick a coefficient on the 2^-15 grid".into()),
                    );
                }
            }
        }
    }

    // num.q15-error: certified bound vs the per-port tolerance
    for cert in &qa.certificates {
        let tol =
            opts.port_tolerances.get(&cert.port).copied().unwrap_or(opts.tolerance);
        if cert.bound > tol {
            report.push(
                config,
                rules::NUM_Q15_ERROR,
                cert.path.clone(),
                format!(
                    "certified quantization error {:.3e} exceeds the port tolerance {:.3e} over {} steps",
                    cert.bound, tol, cert.horizon_steps
                ),
                Some(
                    "loosen the tolerance, reduce accumulator depth, or widen the fixed-point format"
                        .into(),
                ),
            );
        }
    }

    // num.error-growth: accumulators whose error provably grows every
    // step (the fixpoint exists only as a rate)
    for (i, b) in fp.blocks.iter().enumerate() {
        if qa.state_growth[i] > 0.0 {
            report.push(
                config,
                rules::NUM_ERROR_GROWTH,
                path_of(i),
                format!(
                    "'{}' accumulates quantization error at {:.3e} per step — the bound is linear in the horizon, not a fixpoint",
                    b.type_name, qa.state_growth[i]
                ),
                Some("add saturation limits or a leakage term to the accumulator".into()),
            );
        }
    }
    qa
}

/// Convenience entry for callers outside the lint (PIL tolerance
/// plumbing): run the value analysis with `input_ranges`, then the error
/// analysis, and return the per-port certificates.
pub fn certify_ports(
    fp: &DiagramFingerprint,
    dt: f64,
    horizon_steps: u64,
    model: &ErrorModel,
    input_ranges: &BTreeMap<String, (f64, f64)>,
) -> Vec<ErrorCertificate> {
    let ia = analyze_with_inputs(fp, dt, horizon_steps, input_ranges);
    analyze_errors(fp, dt, horizon_steps, model, &ia.bounds).certificates
}

#[cfg(test)]
mod tests {
    use super::*;
    use peert_model::graph::Diagram;
    use peert_model::library::discrete::DiscreteIntegrator;
    use peert_model::library::math::{Gain, Sum};
    use peert_model::library::nonlinear::Saturation;
    use peert_model::library::sources::Constant;
    use peert_model::subsystem::{Inport, Outport};

    fn q15_q() -> f64 {
        QFormat::Q15.max_quantization_error()
    }

    fn analyze(d: &Diagram, model: &ErrorModel, horizon: u64) -> QuantAnalysis {
        let fp = d.fingerprint();
        let ia = analyze_with_inputs(&fp, 1e-3, horizon, &BTreeMap::new());
        analyze_errors(&fp, 1e-3, horizon, model, &ia.bounds)
    }

    #[test]
    fn mixed_sign_diamond_cancels_and_certifies() {
        // c → {g1: 0.8, g2: 0.7} → sum(+-) → out: the source's rounding
        // error reaches the sum on both paths and mostly cancels
        let mut d = Diagram::new();
        let c = d.add("c", Constant::new(0.25)).unwrap();
        let g1 = d.add("g1", Gain::new(0.8)).unwrap();
        let g2 = d.add("g2", Gain::new(0.7)).unwrap();
        let s = d.add("s", Sum::new("+-").unwrap()).unwrap();
        let o = d.add("out", Outport).unwrap();
        d.connect((c, 0), (g1, 0)).unwrap();
        d.connect((c, 0), (g2, 0)).unwrap();
        d.connect((g1, 0), (s, 0)).unwrap();
        d.connect((g2, 0), (s, 1)).unwrap();
        d.connect((s, 0), (o, 0)).unwrap();
        let spec = FormatSpec::q15();
        let qa = analyze(&d, &ErrorModel::all_blocks(&spec), 1000);
        assert!(qa.converged);
        let i = s.index();
        assert!(qa.affine[i].is_finite() && qa.interval[i].is_finite());
        assert!(
            qa.affine[i] < qa.interval[i] * (1.0 - 1e-9),
            "cancellation must beat decorrelation: {} vs {}",
            qa.affine[i],
            qa.interval[i]
        );
        // the gap is exactly the shared source term the signed paths
        // cancel: (|k1|+|k2|)·q vs |k1−k2|·q at the *stored* gains
        let (k1q, k2q) = (QFormat::Q15.pass(0.8), QFormat::Q15.pass(0.7));
        let gap = qa.interval[i] - qa.affine[i];
        assert!((gap - 2.0 * k1q.min(k2q) * q15_q()).abs() < 1e-12, "gap {gap}");
        assert_eq!(qa.certificates.len(), 1);
        let cert = &qa.certificates[0];
        assert_eq!(cert.port, "out");
        assert!(cert.bound >= qa.affine[o.index()] - 1e-15);
        assert!(cert.bound.is_finite());
        assert!(cert.sites > 0);
    }

    #[test]
    fn decided_saturation_absorbs_upstream_error() {
        // 5.0 (valid at scale 8) strictly above the saturation rail:
        // both runs clamp to the same constant, so only the block's own
        // rounding is left
        let mut d = Diagram::new();
        let c = d.add("c", Constant::new(5.0)).unwrap();
        let g = d.add("g", Gain::new(0.9)).unwrap();
        let sat = d.add("sat", Saturation::new(-1.0, 1.0).unwrap()).unwrap();
        let o = d.add("out", Outport).unwrap();
        d.connect((c, 0), (g, 0)).unwrap();
        d.connect((g, 0), (sat, 0)).unwrap();
        d.connect((sat, 0), (o, 0)).unwrap();
        let spec = FormatSpec { format: QFormat::Q15, scale: 8.0 };
        let model = ErrorModel::all_blocks(&spec);
        let qa = analyze(&d, &model, 1000);
        assert!(qa.converged);
        let q = model.output_rounding;
        // sat output error = its own site only
        assert!((qa.bound[sat.index()] - q).abs() < 1e-12, "{}", qa.bound[sat.index()]);
        // and the port adds one more rounding
        assert!((qa.certificates[0].bound - 2.0 * q).abs() < 1e-12);
    }

    #[test]
    fn unlimited_integrator_certifies_linear_growth() {
        let mut d = Diagram::new();
        let c = d.add("c", Constant::new(0.01)).unwrap();
        let int = d.add("int", DiscreteIntegrator::new(1e-3)).unwrap();
        let o = d.add("out", Outport).unwrap();
        d.connect((c, 0), (int, 0)).unwrap();
        d.connect((int, 0), (o, 0)).unwrap();
        let spec = FormatSpec::q15();
        let model = ErrorModel::all_blocks(&spec);
        let horizon = 1000u64;
        let qa = analyze(&d, &model, horizon);
        assert!(!qa.converged, "unlimited accumulator must not converge");
        let q = model.output_rounding;
        let i = int.index();
        assert!(qa.state_growth[i] > 0.0, "growth rule must anchor at the integrator");
        // error accumulates ~period·q per step; the extrapolated bound
        // must cover the horizon without wild overshoot
        let per_step = 1e-3 * q;
        assert!(qa.bound[i].is_finite());
        assert!(qa.bound[i] >= 900.0 * per_step, "{} vs {}", qa.bound[i], 900.0 * per_step);
        assert!(qa.bound[i] <= 1100.0 * per_step + 2.0 * q, "{}", qa.bound[i]);
        assert!(qa.certificates[0].growth_per_step > 0.0);
    }

    #[test]
    fn unknown_types_are_top_but_exact_inputs_shortcut() {
        use peert_model::library::sinks::Scope;
        // boundary model: no rounding anywhere, an unknown sink costs 0
        let mut d = Diagram::new();
        let c = d.add("c", Constant::new(1.0)).unwrap();
        let sc = d.add("scope", Scope::new()).unwrap();
        d.connect((c, 0), (sc, 0)).unwrap();
        let qa = analyze(&d, &ErrorModel::boundary(0.0, 0.0), 100);
        assert!(qa.converged);
        assert_eq!(qa.bound[c.index()], 0.0);
        // with a nonzero inport error feeding a TrigFn of unknown op the
        // form goes to ⊤
        let mut d2 = Diagram::new();
        let inp = d2.add("b0", Inport).unwrap();
        let g = d2.add("g", Gain::new(2.0)).unwrap();
        d2.connect((inp, 0), (g, 0)).unwrap();
        let qa2 = analyze(&d2, &ErrorModel::boundary(1e-4, 0.0), 100);
        assert!((qa2.bound[g.index()] - 2e-4).abs() < 1e-18, "{}", qa2.bound[g.index()]);
    }

    #[test]
    fn boundary_model_matches_forward_amplification() {
        // in → gain 2 → out with sensor error 1e-4 and actuator
        // rounding 5e-5: certified bound = 2·1e-4 + 5e-5
        let mut d = Diagram::new();
        let inp = d.add("b0", Inport).unwrap();
        let g = d.add("g", Gain::new(2.0)).unwrap();
        let o = d.add("out", Outport).unwrap();
        d.connect((inp, 0), (g, 0)).unwrap();
        d.connect((g, 0), (o, 0)).unwrap();
        let fp = d.fingerprint();
        let mut ranges = BTreeMap::new();
        ranges.insert("b0".to_string(), (-0.75, 0.75));
        let certs =
            certify_ports(&fp, 1e-3, 100, &ErrorModel::boundary(1e-4, 5e-5), &ranges);
        assert_eq!(certs.len(), 1);
        assert!((certs[0].bound - 2.5e-4).abs() < 1e-15, "{}", certs[0].bound);
        assert_eq!(certs[0].growth_per_step, 0.0);
    }

    #[test]
    fn coeff_rule_denies_saturating_gain_and_warns_inexact() {
        let spec = FormatSpec::q15();
        let run = |gain: f64| {
            let mut d = Diagram::new();
            let c = d.add("c", Constant::new(0.1)).unwrap();
            let g = d.add("g", Gain::new(gain)).unwrap();
            let o = d.add("out", Outport).unwrap();
            d.connect((c, 0), (g, 0)).unwrap();
            d.connect((g, 0), (o, 0)).unwrap();
            let fp = d.fingerprint();
            let ia = analyze_with_inputs(&fp, 1e-3, 1000, &BTreeMap::new());
            let mut report = LintReport::new();
            let cfg = LintConfig::new();
            let opts = QuantOptions::new(ErrorModel::all_blocks(&spec));
            check_quant(&fp, 1e-3, 1000, &opts, &ia.bounds, &cfg, &mut report);
            report
        };
        // 1.5 saturates FRAC16 outright: deny
        let r = run(1.5);
        assert!(r.has_rule(rules::NUM_COEFF_QUANTIZATION));
        assert!(!r.is_deny_clean());
        // 0.5 is exactly representable: clean
        let r = run(0.5);
        assert!(!r.has_rule(rules::NUM_COEFF_QUANTIZATION), "{:?}", r.diagnostics());
        // 0.3 is representable only approximately: warn, still clean
        let r = run(0.3);
        assert!(r.has_rule(rules::NUM_COEFF_QUANTIZATION));
        assert!(r.is_deny_clean());
    }

    #[test]
    fn tolerance_denials_carry_the_q15_error_rule() {
        let mut d = Diagram::new();
        let c = d.add("c", Constant::new(0.25)).unwrap();
        let g = d.add("g", Gain::new(0.5)).unwrap();
        let o = d.add("out", Outport).unwrap();
        d.connect((c, 0), (g, 0)).unwrap();
        d.connect((g, 0), (o, 0)).unwrap();
        let fp = d.fingerprint();
        let ia = analyze_with_inputs(&fp, 1e-3, 1000, &BTreeMap::new());
        let cfg = LintConfig::new();
        let spec = FormatSpec::q15();
        let mut opts = QuantOptions::new(ErrorModel::all_blocks(&spec));
        opts.tolerance = 1e-12; // tighter than one rounding step
        let mut report = LintReport::new();
        check_quant(&fp, 1e-3, 1000, &opts, &ia.bounds, &cfg, &mut report);
        assert!(report.has_rule(rules::NUM_Q15_ERROR));
        assert!(!report.is_deny_clean());
        // with the default ∞ tolerance the same diagram is clean
        let mut report = LintReport::new();
        let opts = QuantOptions::new(ErrorModel::all_blocks(&spec));
        check_quant(&fp, 1e-3, 1000, &opts, &ia.bounds, &cfg, &mut report);
        assert!(!report.has_rule(rules::NUM_Q15_ERROR));
    }
}
