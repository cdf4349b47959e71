//! Interval abstract interpretation over a diagram fingerprint.
//!
//! The analysis walks [`peert_model::graph::DiagramFingerprint`] — the
//! introspection surface every block exposes (type name, parameter bag,
//! wiring) — and computes, per block, an over-approximation of every
//! value its output can take over a bounded horizon. Transfer functions
//! cover the full shipped block library; any unknown type widens to ⊤
//! (the whole real line), which keeps the analysis *sound*: a claim
//! "this output stays within `[lo, hi]`" is made only when it is true of
//! the concrete execution (up to the float-rounding pad the overflow
//! rules apply, see [`crate::analysis`]).
//!
//! Feedback loops through state blocks (`UnitDelay`,
//! `DiscreteIntegrator`) are resolved by Kleene iteration with widening:
//! after a fixed number of passes any still-growing interval jumps to ⊤.

use peert_model::block::ParamValue;
use peert_model::graph::DiagramFingerprint;

/// A closed interval `[lo, hi]` over the extended reals. `lo > hi`
/// encodes ⊥ (no value yet); [`Interval::TOP`] is the whole line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower bound (may be `-∞`).
    pub lo: f64,
    /// Upper bound (may be `+∞`).
    pub hi: f64,
}

impl Interval {
    /// The whole extended real line.
    pub const TOP: Interval = Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY };
    /// The empty interval (pre-fixpoint bottom).
    pub const BOTTOM: Interval = Interval { lo: f64::INFINITY, hi: f64::NEG_INFINITY };
    /// The single point 0.
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    /// The single point `v` (NaN widens to ⊤ — NaN params are reported
    /// separately by the `num.nan` rule).
    pub fn point(v: f64) -> Interval {
        if v.is_nan() {
            Interval::TOP
        } else {
            Interval { lo: v, hi: v }
        }
    }

    /// `[lo, hi]` with the ends ordered for the caller.
    pub fn new(a: f64, b: f64) -> Interval {
        if a.is_nan() || b.is_nan() {
            return Interval::TOP;
        }
        Interval { lo: a.min(b), hi: a.max(b) }
    }

    /// Whether this is ⊥.
    pub fn is_bottom(&self) -> bool {
        self.lo > self.hi
    }

    /// Whether both ends are finite.
    pub fn is_finite(&self) -> bool {
        !self.is_bottom() && self.lo.is_finite() && self.hi.is_finite()
    }

    /// Whether the interval is the single point `v`.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether `v` lies inside.
    pub fn contains(&self, v: f64) -> bool {
        !self.is_bottom() && self.lo <= v && v <= self.hi
    }

    /// Largest absolute value reachable.
    pub fn abs_max(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Convex hull of two intervals (⊥ is the identity).
    pub fn union(self, other: Interval) -> Interval {
        if self.is_bottom() {
            return other;
        }
        if other.is_bottom() {
            return self;
        }
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Scale by a constant.
    pub fn scale(self, k: f64) -> Interval {
        self * Interval::point(k)
    }

    /// Absolute value.
    pub fn abs(self) -> Interval {
        if self.is_bottom() {
            return self;
        }
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            -self
        } else {
            Interval { lo: 0.0, hi: self.abs_max() }
        }
    }

    /// Clamp into `[lo, hi]`.
    pub fn clamp_to(self, lo: f64, hi: f64) -> Interval {
        if self.is_bottom() {
            return self;
        }
        Interval { lo: self.lo.clamp(lo, hi), hi: self.hi.clamp(lo, hi) }
    }

    /// Pointwise minimum of two intervals.
    pub fn min_with(self, other: Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        Interval { lo: self.lo.min(other.lo), hi: self.hi.min(other.hi) }
    }

    /// Pointwise maximum of two intervals.
    pub fn max_with(self, other: Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        Interval { lo: self.lo.max(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Dead-zone transfer: values within `±width` collapse to 0, the
    /// rest shift toward 0 by `width` (monotone, non-expansive).
    pub fn dead_zone(self, width: f64) -> Interval {
        if self.is_bottom() {
            return self;
        }
        let dz = |v: f64| {
            if v > width {
                v - width
            } else if v < -width {
                v + width
            } else {
                0.0
            }
        };
        Interval { lo: dz(self.lo), hi: dz(self.hi) }
    }

    /// Symmetric outward pad (quantization half-step and the like).
    pub fn pad(self, eps: f64) -> Interval {
        if self.is_bottom() {
            return self;
        }
        Interval { lo: self.lo - eps, hi: self.hi + eps }
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;
    /// Interval sum.
    fn add(self, other: Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        let lo = self.lo + other.lo;
        let hi = self.hi + other.hi;
        // ∞ + -∞ = NaN: widen instead of poisoning the analysis
        if lo.is_nan() || hi.is_nan() {
            return Interval::TOP;
        }
        Interval { lo, hi }
    }
}

impl std::ops::Sub for Interval {
    type Output = Interval;
    /// Interval difference.
    fn sub(self, other: Interval) -> Interval {
        self + -other
    }
}

impl std::ops::Neg for Interval {
    type Output = Interval;
    /// Negation.
    fn neg(self) -> Interval {
        if self.is_bottom() {
            return self;
        }
        Interval { lo: -self.hi, hi: -self.lo }
    }
}

impl std::ops::Mul for Interval {
    type Output = Interval;
    /// Interval product (corner products; `0 · ∞` widens).
    fn mul(self, other: Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        let corners = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        if corners.iter().any(|c| c.is_nan()) {
            return Interval::TOP;
        }
        Interval {
            lo: corners.iter().copied().fold(f64::INFINITY, f64::min),
            hi: corners.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Fetch a float parameter from a fingerprint parameter bag.
pub fn param_f(params: &[(String, ParamValue)], key: &str) -> Option<f64> {
    params.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
        ParamValue::F(x) => Some(*x),
        ParamValue::I(x) => Some(*x as f64),
        ParamValue::S(_) => None,
    })
}

/// Fetch an integer parameter.
pub fn param_i(params: &[(String, ParamValue)], key: &str) -> Option<i64> {
    params.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
        ParamValue::I(x) => Some(*x),
        ParamValue::F(x) => Some(*x as i64),
        ParamValue::S(_) => None,
    })
}

/// Fetch a string parameter.
pub fn param_s<'a>(params: &'a [(String, ParamValue)], key: &str) -> Option<&'a str> {
    params.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
        ParamValue::S(s) => Some(s.as_str()),
        _ => None,
    })
}

/// Parse a comma-joined coefficient list (`DiscreteTransferFcn` encodes
/// `num`/`den` this way in its parameter bag).
pub(crate) fn param_coeffs(params: &[(String, ParamValue)], key: &str) -> Option<Vec<f64>> {
    let s = param_s(params, key)?;
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',').map(|t| t.trim().parse::<f64>().ok()).collect()
}

/// How many Kleene passes before a still-changing interval widens to ⊤.
const WIDEN_AFTER: usize = 8;

/// Result of the interval analysis: one interval per block (its output
/// hull — every block in the shipped library has at most one meaningful
/// output range; multi-output unknowns are ⊤ anyway).
#[derive(Clone, Debug)]
pub struct IntervalAnalysis {
    /// Per-block output interval, in fingerprint (insertion) order.
    pub bounds: Vec<Interval>,
    /// Whether every block's bounds are finite (a precondition for
    /// overflow *certification*).
    pub all_finite: bool,
}

/// Run the analysis. `dt` is the engine's fundamental step and
/// `horizon_steps` bounds time-dependent sources (`Ramp`) and
/// accumulators (`DiscreteIntegrator` without limits): the result is
/// sound for any run of at most `horizon_steps` engine steps.
pub fn analyze(fp: &DiagramFingerprint, dt: f64, horizon_steps: u64) -> IntervalAnalysis {
    analyze_with_inputs(fp, dt, horizon_steps, &std::collections::BTreeMap::new())
}

/// Like [`analyze`], but with caller-declared ranges for `Inport`
/// blocks (by block name). An `Inport` absent from the map is ⊤ — the
/// result stays sound for *any* input; a declared range makes the
/// result conditional on the caller honoring it.
pub fn analyze_with_inputs(
    fp: &DiagramFingerprint,
    dt: f64,
    horizon_steps: u64,
    input_ranges: &std::collections::BTreeMap<String, (f64, f64)>,
) -> IntervalAnalysis {
    let n = fp.blocks.len();
    let t_max = (horizon_steps as f64) * dt;
    let mut bounds = vec![Interval::BOTTOM; n];

    for pass in 0..(WIDEN_AFTER + 2) {
        let mut changed = false;
        for (i, b) in fp.blocks.iter().enumerate() {
            let ins: Vec<Interval> = (0..b.ports.inputs)
                .map(|p| match b.sources.get(p).copied().flatten() {
                    // unconnected inputs read the default value 0
                    None => Interval::ZERO,
                    Some((src, _port)) => bounds[src.index()],
                })
                .collect();
            let out = if b.type_name == "Inport" {
                match input_ranges.get(&b.name) {
                    Some(&(lo, hi)) => Interval::new(lo, hi),
                    None => Interval::TOP,
                }
            } else {
                transfer(&b.type_name, &b.params, &ins, t_max)
            };
            let new = if pass >= WIDEN_AFTER && out != bounds[i] && !out.is_bottom() {
                // widening: still unstable after the grace passes
                Interval::TOP
            } else {
                bounds[i].union(out)
            };
            if new != bounds[i] {
                bounds[i] = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // sinks (no outputs) contribute nothing downstream; only blocks
    // whose output someone could read gate certification
    let all_finite = fp
        .blocks
        .iter()
        .zip(&bounds)
        .filter(|(b, _)| b.ports.outputs > 0)
        .all(|(_, iv)| iv.is_finite());
    IntervalAnalysis { bounds, all_finite }
}

/// The per-type transfer function: fold the input intervals (already
/// resolved, `[0,0]` for unconnected ports) into the output interval.
/// Unknown types return ⊤.
fn transfer(
    type_name: &str,
    params: &[(String, ParamValue)],
    ins: &[Interval],
    t_max: f64,
) -> Interval {
    let in0 = ins.first().copied().unwrap_or(Interval::ZERO);
    match type_name {
        // ---- markers & sources ----
        "Outport" => in0,
        "Constant" => Interval::point(param_f(params, "value").unwrap_or(0.0)),
        "Step" => {
            let a = param_f(params, "initial").unwrap_or(0.0);
            let b = param_f(params, "final").unwrap_or(0.0);
            Interval::new(a, b)
        }
        "Ramp" => {
            let slope = param_f(params, "slope").unwrap_or(0.0);
            let start = param_f(params, "start_time").unwrap_or(0.0);
            let reach = slope * (t_max - start).max(0.0);
            Interval::new(0.0, reach)
        }
        "SineWave" => {
            let amp = param_f(params, "amplitude").unwrap_or(0.0).abs();
            let bias = param_f(params, "bias").unwrap_or(0.0);
            Interval { lo: bias - amp, hi: bias + amp }
        }
        "PulseGenerator" => {
            Interval::new(0.0, param_f(params, "amplitude").unwrap_or(0.0))
        }
        "FromWorkspace" => Interval::new(
            param_f(params, "samples_min").unwrap_or(f64::NEG_INFINITY),
            param_f(params, "samples_max").unwrap_or(f64::INFINITY),
        ),
        // ---- math ----
        "Gain" => in0.scale(param_f(params, "gain").unwrap_or(1.0)),
        "Sum" => {
            let signs = param_s(params, "signs").unwrap_or("+");
            signs
                .chars()
                .zip(ins.iter().copied().chain(std::iter::repeat(Interval::ZERO)))
                .fold(Interval::ZERO, |acc, (s, x)| if s == '-' { acc - x } else { acc + x })
        }
        "Product" => ins
            .iter()
            .copied()
            .fold(Interval::point(1.0), |acc, x| acc * x),
        "MinMax" => {
            let is_max = param_i(params, "is_max").unwrap_or(0) != 0;
            let first = in0;
            ins.iter().copied().skip(1).fold(first, |acc, x| {
                if is_max {
                    acc.max_with(x)
                } else {
                    acc.min_with(x)
                }
            })
        }
        "Abs" => in0.abs(),
        "TrigFn" => match param_s(params, "op") {
            Some("Sin" | "Cos") => Interval { lo: -1.0, hi: 1.0 },
            Some("Atan") => Interval {
                lo: -std::f64::consts::FRAC_PI_2,
                hi: std::f64::consts::FRAC_PI_2,
            },
            Some("Atan2") => Interval { lo: -std::f64::consts::PI, hi: std::f64::consts::PI },
            _ => Interval::TOP,
        },
        // ---- nonlinear ----
        "Saturation" => in0.clamp_to(
            param_f(params, "lo").unwrap_or(f64::NEG_INFINITY),
            param_f(params, "hi").unwrap_or(f64::INFINITY),
        ),
        "DeadZone" => in0.dead_zone(param_f(params, "width").unwrap_or(0.0)),
        "Quantizer" => {
            let q = param_f(params, "interval").unwrap_or(0.0);
            if q == 0.0 {
                Interval::TOP // div-zero; flagged by its own rule
            } else {
                in0.pad(q.abs() / 2.0)
            }
        }
        // primes to its first input then slews toward it: the output
        // never leaves the hull of the inputs seen so far
        "RateLimiter" => in0,
        "Relay" => Interval::new(
            param_f(params, "on_value").unwrap_or(0.0),
            param_f(params, "off_value").unwrap_or(0.0),
        ),
        // ---- logic ----
        "Compare" | "LogicGate" => Interval { lo: 0.0, hi: 1.0 },
        "Switch" => {
            let in2 = ins.get(2).copied().unwrap_or(Interval::ZERO);
            in0.union(in2)
        }
        // ---- discrete / state ----
        "UnitDelay" => {
            Interval::point(param_f(params, "initial").unwrap_or(0.0)).union(in0)
        }
        "ZeroOrderHold" => Interval::ZERO.union(in0),
        "DiscreteIntegrator" => {
            let initial = param_f(params, "initial").unwrap_or(0.0);
            // forward-Euler accumulation over the horizon: |state| grows
            // by at most |in|·period per due step, i.e. |in|·t_max total
            let reach = in0.abs_max() * t_max;
            let acc = Interval::point(initial)
                .union(Interval { lo: initial - reach, hi: initial + reach });
            match (param_f(params, "lo"), param_f(params, "hi")) {
                (Some(lo), Some(hi)) => acc.clamp_to(lo, hi),
                _ => acc,
            }
        }
        "DiscreteDerivative" => {
            let period = param_f(params, "period").unwrap_or(0.0);
            if period <= 0.0 {
                Interval::TOP
            } else {
                let swing = (in0.hi - in0.lo).max(0.0) / period;
                Interval { lo: -swing, hi: swing }.union(Interval::ZERO)
            }
        }
        "DiscreteTransferFcn" => {
            let (Some(num), Some(den)) =
                (param_coeffs(params, "num"), param_coeffs(params, "den"))
            else {
                return Interval::TOP;
            };
            let a_sum: f64 = den.iter().map(|a| a.abs()).sum();
            if a_sum >= 1.0 {
                return Interval::TOP; // no geometric bound
            }
            // |w| ≤ |u|/(1 − Σ|aᵢ|), |y| ≤ Σ|bᵢ|·|w|
            let w = in0.abs_max() / (1.0 - a_sum);
            let b_sum: f64 = num.iter().map(|b| b.abs()).sum();
            Interval { lo: -(b_sum * w), hi: b_sum * w }
        }
        // ---- PE hardware blocks ----
        "PeAdc" => {
            let bits = param_i(params, "resolution").unwrap_or(16).clamp(1, 32) as u32;
            Interval { lo: 0.0, hi: (2f64.powi(bits as i32)) - 1.0 }
        }
        "PePwm" | "PeBitIn" => Interval { lo: 0.0, hi: 1.0 },
        "PeQuadDec" => Interval { lo: 0.0, hi: 65_535.0 },
        "PeTimerInt" => Interval::ZERO,
        "SpeedFromCounts" => {
            let cpr = param_i(params, "counts_per_rev").unwrap_or(0);
            let ts = param_f(params, "ts").unwrap_or(0.0);
            if cpr <= 0 || ts <= 0.0 {
                Interval::TOP // div-zero; flagged by its own rule
            } else {
                // one-period count delta is a wrapped i16
                let max_speed =
                    32_768.0 / (cpr as f64) * std::f64::consts::TAU / ts;
                Interval { lo: -max_speed, hi: max_speed }
            }
        }
        "DiscretePid" => match (param_f(params, "umin"), param_f(params, "umax")) {
            (Some(lo), Some(hi)) => Interval::new(lo, hi),
            _ => Interval::TOP,
        },
        // Inport (subsystem boundary), Chart, Scope, plants, unknowns
        _ => Interval::TOP,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peert_model::graph::Diagram;
    use peert_model::library::math::{Gain, Sum};
    use peert_model::library::nonlinear::Saturation;
    use peert_model::library::sources::{Constant, SineWave};

    #[test]
    fn interval_arithmetic_basics() {
        let a = Interval::new(-1.0, 2.0);
        assert_eq!(a + Interval::point(1.0), Interval::new(0.0, 3.0));
        assert_eq!(a.scale(-2.0), Interval::new(-4.0, 2.0));
        assert_eq!(a.abs(), Interval::new(0.0, 2.0));
        assert_eq!(a.clamp_to(0.0, 1.0), Interval::new(0.0, 1.0));
        assert_eq!(a.dead_zone(0.5), Interval::new(-0.5, 1.5));
        assert!((Interval::TOP * Interval::ZERO).contains(0.0), "0·∞ widens, not NaN");
    }

    #[test]
    fn propagation_through_a_small_diagram() {
        let mut d = Diagram::new();
        let c = d.add("c", Constant::new(0.5)).unwrap();
        let s = d.add("s", SineWave::new(2.0, 10.0)).unwrap();
        let g = d.add("g", Gain::new(3.0)).unwrap();
        let sum = d.add("sum", Sum::new("+-").unwrap()).unwrap();
        let sat = d.add("sat", Saturation::new(-1.0, 1.0).unwrap()).unwrap();
        d.connect((s, 0), (g, 0)).unwrap();
        d.connect((c, 0), (sum, 0)).unwrap();
        d.connect((g, 0), (sum, 1)).unwrap();
        d.connect((sum, 0), (sat, 0)).unwrap();
        let a = analyze(&d.fingerprint(), 1e-3, 1000);
        assert_eq!(a.bounds[c.index()], Interval::point(0.5));
        assert_eq!(a.bounds[g.index()], Interval::new(-6.0, 6.0));
        assert_eq!(a.bounds[sum.index()], Interval::new(-5.5, 6.5));
        assert_eq!(a.bounds[sat.index()], Interval::new(-1.0, 1.0));
        assert!(a.all_finite);
    }

    #[test]
    fn feedback_through_state_widens_but_stays_sound() {
        use peert_model::library::discrete::UnitDelay;
        let mut d = Diagram::new();
        let g = d.add("g", Gain::new(1.5)).unwrap();
        let z = d.add("z", UnitDelay::new(1e-3)).unwrap();
        // divergent loop: z -> g -> z
        d.connect((z, 0), (g, 0)).unwrap();
        d.connect((g, 0), (z, 0)).unwrap();
        let a = analyze(&d.fingerprint(), 1e-3, 1000);
        // must terminate; the loop state is unbounded, so ⊤ is correct…
        // except the loop's fixpoint from initial 0 is exactly {0}.
        assert!(a.bounds[z.index()].contains(0.0));
    }

    #[test]
    fn unknown_types_are_top() {
        assert_eq!(transfer("SomeFutureBlock", &[], &[], 1.0), Interval::TOP);
    }
}
