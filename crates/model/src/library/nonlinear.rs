//! Nonlinear blocks: Saturation, Quantizer, RateLimiter, Relay, DeadZone.

use crate::block::{Block, BlockCtx, ParamValue, PortCount};

/// Clamps the input into `[lo, hi]`.
pub struct Saturation {
    /// Lower limit.
    pub lo: f64,
    /// Upper limit.
    pub hi: f64,
}

impl Saturation {
    /// New saturation over `[lo, hi]`; an empty or NaN interval is an
    /// error (the clamp would panic on it every step). Per-lane
    /// overrides run the same check.
    pub fn new(lo: f64, hi: f64) -> Result<Self, String> {
        crate::kernel::saturation_domain(&[lo, hi])?;
        Ok(Saturation { lo, hi })
    }
}

impl Block for Saturation {
    fn type_name(&self) -> &'static str {
        "Saturation"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![("lo", ParamValue::F(self.lo)), ("hi", ParamValue::F(self.hi))]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::saturation(self.lo, self.hi))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let v = ctx.in_f64(0).clamp(self.lo, self.hi);
        ctx.set_output(0, v);
    }
}

/// Rounds the input to the nearest multiple of `interval`.
pub struct Quantizer {
    /// Quantization interval.
    pub interval: f64,
}

impl Block for Quantizer {
    fn type_name(&self) -> &'static str {
        "Quantizer"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![("interval", ParamValue::F(self.interval))]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::quantizer(self.interval))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let v = (ctx.in_f64(0) / self.interval).round() * self.interval;
        ctx.set_output(0, v);
    }
}

/// Limits the slew rate of the signal.
pub struct RateLimiter {
    /// Maximum rising rate in units/second.
    pub rising: f64,
    /// Maximum falling rate (positive number) in units/second.
    pub falling: f64,
    state: f64,
    primed: bool,
}

impl RateLimiter {
    /// Symmetric rate limiter; a negative or NaN rate is an error (the
    /// slew clamp would panic on it at the first step). Per-lane
    /// overrides run the same check.
    pub fn new(rate: f64) -> Result<Self, String> {
        crate::kernel::rate_limiter_domain(&[rate, rate])?;
        Ok(RateLimiter { rising: rate, falling: rate, state: 0.0, primed: false })
    }
}

impl Block for RateLimiter {
    fn type_name(&self) -> &'static str {
        "RateLimiter"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![("rising", ParamValue::F(self.rising)), ("falling", ParamValue::F(self.falling))]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn reset(&mut self) {
        self.state = 0.0;
        self.primed = false;
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::rate_limiter(
            self.rising,
            self.falling,
            self.state,
            self.primed,
        ))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let u = ctx.in_f64(0);
        if !self.primed {
            self.state = u;
            self.primed = true;
        } else {
            let max_up = self.rising * ctx.dt;
            let max_dn = self.falling * ctx.dt;
            let delta = (u - self.state).clamp(-max_dn, max_up);
            self.state += delta;
        }
        ctx.set_output(0, self.state);
    }
}

/// Relay with hysteresis: output switches to `on_value` above `on_point`,
/// back to `off_value` below `off_point`.
pub struct Relay {
    /// Switch-on threshold.
    pub on_point: f64,
    /// Switch-off threshold (≤ on_point).
    pub off_point: f64,
    /// Output when on.
    pub on_value: f64,
    /// Output when off.
    pub off_value: f64,
    state_on: bool,
}

impl Relay {
    /// New relay, initially off; the off point must not exceed the on
    /// point (per-lane overrides run the same check).
    pub fn new(on_point: f64, off_point: f64, on_value: f64, off_value: f64) -> Result<Self, String> {
        crate::kernel::relay_domain(&[on_point, off_point, on_value, off_value])?;
        Ok(Relay { on_point, off_point, on_value, off_value, state_on: false })
    }
}

impl Block for Relay {
    fn type_name(&self) -> &'static str {
        "Relay"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![("on_point", ParamValue::F(self.on_point)), ("off_point", ParamValue::F(self.off_point)), ("on_value", ParamValue::F(self.on_value)), ("off_value", ParamValue::F(self.off_value))]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn reset(&mut self) {
        self.state_on = false;
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::relay(
            self.on_point,
            self.off_point,
            self.on_value,
            self.off_value,
            self.state_on,
        ))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let u = ctx.in_f64(0);
        if u >= self.on_point {
            self.state_on = true;
        } else if u <= self.off_point {
            self.state_on = false;
        }
        ctx.set_output(0, if self.state_on { self.on_value } else { self.off_value });
    }
}

/// Zero output inside `[-width, width]`, shifted passthrough outside.
pub struct DeadZone {
    /// Half-width of the dead band.
    pub width: f64,
}

impl Block for DeadZone {
    fn type_name(&self) -> &'static str {
        "DeadZone"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![("width", ParamValue::F(self.width))]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::dead_zone(self.width))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let u = ctx.in_f64(0);
        let v = if u > self.width {
            u - self.width
        } else if u < -self.width {
            u + self.width
        } else {
            0.0
        };
        ctx.set_output(0, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::step_block;
    use crate::signal::Value;

    fn run1(b: &mut dyn Block, u: f64) -> f64 {
        step_block(b, 0.0, 0.01, &[Value::F64(u)]).0[0].as_f64()
    }

    #[test]
    fn saturation_clamps() {
        let mut s = Saturation::new(-1.0, 1.0).unwrap();
        assert_eq!(run1(&mut s, 5.0), 1.0);
        assert_eq!(run1(&mut s, -5.0), -1.0);
        assert_eq!(run1(&mut s, 0.3), 0.3);
    }

    #[test]
    fn saturation_rejects_empty_and_nan_intervals() {
        assert!(Saturation::new(1.0, 0.0).is_err());
        assert!(Saturation::new(f64::NAN, 1.0).is_err());
        assert!(Saturation::new(0.0, f64::NAN).is_err());
        assert!(Saturation::new(0.5, 0.5).is_ok(), "a point interval clamps fine");
    }

    #[test]
    fn quantizer_rounds_to_interval() {
        let mut q = Quantizer { interval: 0.25 };
        assert_eq!(run1(&mut q, 0.3), 0.25);
        assert_eq!(run1(&mut q, 0.4), 0.5);
        assert_eq!(run1(&mut q, -0.3), -0.25);
    }

    #[test]
    fn rate_limiter_bounds_slew() {
        let mut r = RateLimiter::new(10.0).unwrap(); // 0.1 per 10 ms step
        assert_eq!(run1(&mut r, 0.0), 0.0, "primes at first input");
        let y = run1(&mut r, 100.0);
        assert!((y - 0.1).abs() < 1e-12, "rise limited to rate*dt, got {y}");
        let y = run1(&mut r, -100.0);
        assert!((y - 0.0).abs() < 1e-12, "falls at most rate*dt");
    }

    #[test]
    fn rate_limiter_rejects_negative_and_nan_rates() {
        assert!(RateLimiter::new(-1.0).is_err());
        assert!(RateLimiter::new(f64::NAN).is_err());
        assert!(RateLimiter::new(0.0).is_ok(), "a zero rate holds the first input");
    }

    #[test]
    fn relay_has_hysteresis() {
        let mut r = Relay::new(1.0, -1.0, 10.0, 0.0).unwrap();
        assert_eq!(run1(&mut r, 0.0), 0.0, "starts off");
        assert_eq!(run1(&mut r, 1.5), 10.0, "switches on");
        assert_eq!(run1(&mut r, 0.0), 10.0, "stays on inside band");
        assert_eq!(run1(&mut r, -1.5), 0.0, "switches off");
    }

    #[test]
    fn relay_rejects_inverted_thresholds() {
        assert!(Relay::new(-1.0, 1.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn dead_zone_kills_small_signals() {
        let mut d = DeadZone { width: 0.5 };
        assert_eq!(run1(&mut d, 0.3), 0.0);
        assert_eq!(run1(&mut d, 1.0), 0.5);
        assert_eq!(run1(&mut d, -1.0), -0.5);
    }
}
