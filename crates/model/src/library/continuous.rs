//! Continuous blocks, discretized at the engine's fundamental step
//! (Simulink's fixed-step solver `ode1`/`ode2` territory). The plant side
//! of the single model is built from these.

use crate::block::{Block, BlockCtx, PortCount};

/// Continuous integrator, advanced with Heun's method (trapezoidal,
/// 2nd order) at the engine step.
pub struct Integrator {
    /// Initial condition.
    pub initial: f64,
    state: f64,
    prev_u: f64,
    have_prev: bool,
}

impl Integrator {
    /// Integrator from `initial`.
    pub fn new(initial: f64) -> Self {
        Integrator { initial, state: initial, prev_u: 0.0, have_prev: false }
    }
}

impl Block for Integrator {
    fn type_name(&self) -> &'static str {
        "Integrator"
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn feedthrough(&self) -> bool {
        false
    }
    fn reset(&mut self) {
        self.state = self.initial;
        self.prev_u = 0.0;
        self.have_prev = false;
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::integrator(
            self.state,
            self.prev_u,
            self.have_prev,
            self.initial,
        ))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        ctx.set_output(0, self.state);
    }
    fn update(&mut self, ctx: &mut BlockCtx) {
        let u = ctx.in_f64(0);
        let slope = if self.have_prev { 0.5 * (u + self.prev_u) } else { u };
        self.state += ctx.dt * slope;
        self.prev_u = u;
        self.have_prev = true;
    }
}

/// First-order continuous transfer function `K / (τ s + 1)`, discretized
/// exactly (matched ZOH) at the engine step.
pub struct TransferFcn1 {
    /// DC gain.
    pub gain: f64,
    /// Time constant in seconds.
    pub tau: f64,
    state: f64,
}

impl TransferFcn1 {
    /// New first-order lag; the time constant must be positive (per-lane
    /// overrides run the same check).
    pub fn new(gain: f64, tau: f64) -> Result<Self, String> {
        crate::kernel::transfer_fcn1_domain(&[gain, tau])?;
        Ok(TransferFcn1 { gain, tau, state: 0.0 })
    }
}

impl Block for TransferFcn1 {
    fn type_name(&self) -> &'static str {
        "TransferFcn1"
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn feedthrough(&self) -> bool {
        false
    }
    fn reset(&mut self) {
        self.state = 0.0;
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::transfer_fcn1(self.gain, self.tau, self.state))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        ctx.set_output(0, self.state);
    }
    fn update(&mut self, ctx: &mut BlockCtx) {
        let u = ctx.in_f64(0);
        let a = (-ctx.dt / self.tau).exp();
        self.state = a * self.state + (1.0 - a) * self.gain * u;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::step_block;
    use crate::signal::Value;

    #[test]
    fn integrator_of_constant_is_linear() {
        let mut i = Integrator::new(0.0);
        let dt = 0.01;
        for k in 0..100 {
            step_block(&mut i, k as f64 * dt, dt, &[Value::F64(2.0)]);
        }
        let (o, _) = step_block(&mut i, 1.0, dt, &[Value::F64(2.0)]);
        assert!((o[0].as_f64() - 2.0).abs() < 1e-6, "∫2 dt over 1 s = 2");
    }

    #[test]
    fn integrator_of_ramp_is_quadratic() {
        let mut i = Integrator::new(0.0);
        let dt = 0.001;
        for k in 0..1000 {
            let t = k as f64 * dt;
            step_block(&mut i, t, dt, &[Value::F64(t)]);
        }
        let (o, _) = step_block(&mut i, 1.0, dt, &[Value::F64(1.0)]);
        // ∫t dt over [0,1] = 0.5; Heun is exact for linear integrands
        assert!((o[0].as_f64() - 0.5).abs() < 1e-3);
    }

    #[test]
    fn first_order_lag_reaches_63_percent_at_tau() {
        let mut h = TransferFcn1::new(1.0, 0.1).unwrap();
        let dt = 0.0001;
        let steps = (0.1 / dt) as usize;
        let mut y = 0.0;
        for k in 0..=steps {
            let (o, _) = step_block(&mut h, k as f64 * dt, dt, &[Value::F64(1.0)]);
            y = o[0].as_f64();
        }
        assert!((y - 0.632).abs() < 0.01, "step response at t=τ ≈ 63.2 %, got {y}");
    }

    #[test]
    fn lag_rejects_nonpositive_tau() {
        assert!(TransferFcn1::new(1.0, 0.0).is_err());
        assert!(TransferFcn1::new(1.0, -1.0).is_err());
    }

    #[test]
    fn reset_restores_initial_conditions() {
        let mut i = Integrator::new(5.0);
        step_block(&mut i, 0.0, 0.1, &[Value::F64(100.0)]);
        i.reset();
        let (o, _) = step_block(&mut i, 0.0, 0.1, &[Value::F64(0.0)]);
        assert_eq!(o[0].as_f64(), 5.0);
    }
}
