//! Discrete blocks: UnitDelay, ZeroOrderHold, DiscreteIntegrator,
//! DiscreteTransferFcn.

use crate::block::{Block, BlockCtx, ParamValue, PortCount, SampleTime};

/// One-sample delay `z^-1`; breaks algebraic loops.
pub struct UnitDelay {
    /// Sample period in seconds.
    pub period: f64,
    /// Initial condition.
    pub initial: f64,
    state: f64,
}

impl UnitDelay {
    /// Delay with zero initial condition.
    pub fn new(period: f64) -> Self {
        UnitDelay { period, initial: 0.0, state: 0.0 }
    }
}

impl Block for UnitDelay {
    fn type_name(&self) -> &'static str {
        "UnitDelay"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![("period", ParamValue::F(self.period)), ("initial", ParamValue::F(self.initial))]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn feedthrough(&self) -> bool {
        false
    }
    fn sample(&self) -> SampleTime {
        SampleTime::every(self.period)
    }
    fn reset(&mut self) {
        self.state = self.initial;
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::unit_delay(self.state, self.initial))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        ctx.set_output(0, self.state);
    }
    fn update(&mut self, ctx: &mut BlockCtx) {
        self.state = ctx.in_f64(0);
    }
}

/// Samples a fast signal at a slower rate and holds it.
pub struct ZeroOrderHold {
    /// Sample period in seconds.
    pub period: f64,
    held: f64,
}

impl ZeroOrderHold {
    /// New hold at `period`.
    pub fn new(period: f64) -> Self {
        ZeroOrderHold { period, held: 0.0 }
    }
}

impl Block for ZeroOrderHold {
    fn type_name(&self) -> &'static str {
        "ZeroOrderHold"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![("period", ParamValue::F(self.period))]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn sample(&self) -> SampleTime {
        SampleTime::every(self.period)
    }
    fn reset(&mut self) {
        self.held = 0.0;
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        // `held` is write-only from the engine's point of view — the
        // output always equals the sampled input, so the lowering is
        // stateless.
        Some(crate::kernel::KernelSpec::zero_order_hold())
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        self.held = ctx.in_f64(0);
        ctx.set_output(0, self.held);
    }
}

/// Forward-Euler discrete-time integrator `y[k+1] = y[k] + T·u[k]`.
pub struct DiscreteIntegrator {
    /// Sample period in seconds.
    pub period: f64,
    /// Initial condition.
    pub initial: f64,
    /// Output saturation limits (anti-windup clamping), if any.
    pub limits: Option<(f64, f64)>,
    state: f64,
}

impl DiscreteIntegrator {
    /// Unlimited integrator from zero.
    pub fn new(period: f64) -> Self {
        DiscreteIntegrator { period, initial: 0.0, limits: None, state: 0.0 }
    }

    /// Integrator from zero whose state is clamped to `[lo, hi]`; an
    /// empty or NaN interval is an error (the clamp would panic on it at
    /// the first update). Per-lane overrides run the same check.
    pub fn with_limits(period: f64, lo: f64, hi: f64) -> Result<Self, String> {
        crate::kernel::discrete_integrator_domain(&[period, 1.0, lo, hi])?;
        Ok(DiscreteIntegrator { limits: Some((lo, hi)), ..Self::new(period) })
    }
}

impl Block for DiscreteIntegrator {
    fn type_name(&self) -> &'static str {
        "DiscreteIntegrator"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        {
        let mut p = vec![("period", ParamValue::F(self.period)), ("initial", ParamValue::F(self.initial))];
        if let Some((lo, hi)) = self.limits {
            p.push(("lo", ParamValue::F(lo)));
            p.push(("hi", ParamValue::F(hi)));
        }
        p
    }
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn feedthrough(&self) -> bool {
        false
    }
    fn sample(&self) -> SampleTime {
        SampleTime::every(self.period)
    }
    fn reset(&mut self) {
        self.state = self.initial;
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::discrete_integrator(
            self.period,
            self.limits,
            self.state,
            self.initial,
        ))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        ctx.set_output(0, self.state);
    }
    fn update(&mut self, ctx: &mut BlockCtx) {
        self.state += self.period * ctx.in_f64(0);
        if let Some((lo, hi)) = self.limits {
            self.state = self.state.clamp(lo, hi);
        }
    }
}

/// Backward-difference discrete derivative `y[k] = (u[k] - u[k-1]) / T`.
pub struct DiscreteDerivative {
    /// Sample period in seconds.
    pub period: f64,
    prev: f64,
    primed: bool,
}

impl DiscreteDerivative {
    /// New derivative (first output is 0).
    pub fn new(period: f64) -> Self {
        DiscreteDerivative { period, prev: 0.0, primed: false }
    }
}

impl Block for DiscreteDerivative {
    fn type_name(&self) -> &'static str {
        "DiscreteDerivative"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![("period", ParamValue::F(self.period))]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn sample(&self) -> SampleTime {
        SampleTime::every(self.period)
    }
    fn reset(&mut self) {
        self.prev = 0.0;
        self.primed = false;
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::discrete_derivative(self.period, self.prev, self.primed))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let u = ctx.in_f64(0);
        let v = if self.primed { (u - self.prev) / self.period } else { 0.0 };
        ctx.set_output(0, v);
    }
    fn update(&mut self, ctx: &mut BlockCtx) {
        self.prev = ctx.in_f64(0);
        self.primed = true;
    }
}

/// Direct-form-II discrete transfer function
/// `H(z) = (b0 + b1 z^-1 + …) / (1 + a1 z^-1 + …)`.
pub struct DiscreteTransferFcn {
    /// Sample period in seconds.
    pub period: f64,
    /// Numerator coefficients `b0..`.
    pub num: Vec<f64>,
    /// Denominator coefficients `a1..` (leading 1 implied).
    pub den: Vec<f64>,
    w: Vec<f64>,
}

impl DiscreteTransferFcn {
    /// New transfer function; state order = max(len(num)-1, len(den)).
    pub fn new(period: f64, num: Vec<f64>, den: Vec<f64>) -> Result<Self, String> {
        if num.is_empty() {
            return Err("numerator must have at least one coefficient".into());
        }
        let order = (num.len() - 1).max(den.len());
        Ok(DiscreteTransferFcn { period, num, den, w: vec![0.0; order + 1] })
    }
}

impl Block for DiscreteTransferFcn {
    fn type_name(&self) -> &'static str {
        "DiscreteTransferFcn"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![
            ("period", ParamValue::F(self.period)),
            ("num", ParamValue::S(self.num.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(","))),
            ("den", ParamValue::S(self.den.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(","))),
        ]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn sample(&self) -> SampleTime {
        SampleTime::every(self.period)
    }
    fn reset(&mut self) {
        self.w.iter_mut().for_each(|x| *x = 0.0);
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::discrete_tf(&self.num, &self.den, &self.w))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let u = ctx.in_f64(0);
        let mut w0 = u;
        for (i, a) in self.den.iter().enumerate() {
            w0 -= a * self.w[i + 1];
        }
        self.w[0] = w0;
        let mut y = 0.0;
        for (i, b) in self.num.iter().enumerate() {
            y += b * self.w[i];
        }
        ctx.set_output(0, y);
    }
    fn update(&mut self, _ctx: &mut BlockCtx) {
        for i in (1..self.w.len()).rev() {
            self.w[i] = self.w[i - 1];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::step_block;
    use crate::signal::Value;

    #[test]
    fn unit_delay_shifts_one_sample() {
        let mut d = UnitDelay::new(0.1);
        let (o1, _) = step_block(&mut d, 0.0, 0.1, &[Value::F64(5.0)]);
        assert_eq!(o1[0].as_f64(), 0.0, "initial condition first");
        let (o2, _) = step_block(&mut d, 0.1, 0.1, &[Value::F64(9.0)]);
        assert_eq!(o2[0].as_f64(), 5.0);
    }

    #[test]
    fn unit_delay_reset_restores_ic() {
        let mut d = UnitDelay { period: 0.1, initial: 2.0, state: 99.0 };
        d.reset();
        let (o, _) = step_block(&mut d, 0.0, 0.1, &[Value::F64(0.0)]);
        assert_eq!(o[0].as_f64(), 2.0);
    }

    #[test]
    fn integrator_accumulates_forward_euler() {
        let mut i = DiscreteIntegrator::new(0.5);
        // y starts 0; after update with u=2: y = 1.0
        let (o1, _) = step_block(&mut i, 0.0, 0.5, &[Value::F64(2.0)]);
        assert_eq!(o1[0].as_f64(), 0.0);
        let (o2, _) = step_block(&mut i, 0.5, 0.5, &[Value::F64(2.0)]);
        assert_eq!(o2[0].as_f64(), 1.0);
    }

    #[test]
    fn integrator_limits_clamp_state() {
        let mut i = DiscreteIntegrator { period: 1.0, initial: 0.0, limits: Some((-0.5, 0.5)), state: 0.0 };
        for k in 0..10 {
            step_block(&mut i, k as f64, 1.0, &[Value::F64(10.0)]);
        }
        let (o, _) = step_block(&mut i, 10.0, 1.0, &[Value::F64(0.0)]);
        assert_eq!(o[0].as_f64(), 0.5, "state clamped at the limit");
    }

    #[test]
    fn derivative_of_a_ramp_is_its_slope() {
        let mut d = DiscreteDerivative::new(0.1);
        let (o, _) = step_block(&mut d, 0.0, 0.1, &[Value::F64(0.0)]);
        assert_eq!(o[0].as_f64(), 0.0, "unprimed output is zero");
        let (o, _) = step_block(&mut d, 0.1, 0.1, &[Value::F64(0.5)]);
        assert!((o[0].as_f64() - 5.0).abs() < 1e-12);
        let (o, _) = step_block(&mut d, 0.2, 0.1, &[Value::F64(1.0)]);
        assert!((o[0].as_f64() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zoh_holds_between_samples() {
        let mut z = ZeroOrderHold::new(0.1);
        let (o, _) = step_block(&mut z, 0.0, 0.1, &[Value::F64(3.0)]);
        assert_eq!(o[0].as_f64(), 3.0);
    }

    #[test]
    fn transfer_fcn_pure_gain() {
        let mut h = DiscreteTransferFcn::new(0.1, vec![2.0], vec![]).unwrap();
        let (o, _) = step_block(&mut h, 0.0, 0.1, &[Value::F64(3.0)]);
        assert_eq!(o[0].as_f64(), 6.0);
    }

    #[test]
    fn transfer_fcn_first_order_lowpass_converges() {
        // y[k] = 0.5 y[k-1] + 0.5 u[k]  →  H = 0.5 / (1 - 0.5 z^-1)
        let mut h = DiscreteTransferFcn::new(0.1, vec![0.5], vec![-0.5]).unwrap();
        let mut y = 0.0;
        for k in 0..100 {
            let (o, _) = step_block(&mut h, k as f64 * 0.1, 0.1, &[Value::F64(1.0)]);
            y = o[0].as_f64();
        }
        assert!((y - 1.0).abs() < 1e-9, "DC gain 1, got {y}");
    }

    #[test]
    fn transfer_fcn_rejects_empty_numerator() {
        assert!(DiscreteTransferFcn::new(0.1, vec![], vec![]).is_err());
    }
}
