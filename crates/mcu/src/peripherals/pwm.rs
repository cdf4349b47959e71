//! PWM generator with dead-time insertion and fault input.
//!
//! The case study's actuator path (§7): "The motor is actuated by a power
//! transistor switched by a pulse width modulated (PWM) signal from the MCU."
//! For closed-loop simulation the quantity that matters is the *average*
//! duty ratio seen by the power stage over a control period (the motor's
//! electrical time constant filters the switching ripple), so the model
//! exposes the effective duty ratio including dead-time loss, plus an
//! optional cycle-accurate reload interrupt.

use super::Peripheral;
use crate::interrupt::{InterruptController, IrqVector};
use crate::Cycles;

/// PWM alignment mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PwmAlign {
    /// Edge-aligned: counter counts up, resets at modulo.
    Edge,
    /// Center-aligned: counter counts up then down (half the event rate).
    Center,
}

/// The PWM peripheral.
#[derive(Clone, Debug)]
pub struct Pwm {
    /// Reload interrupt vector (fires once per PWM period when enabled).
    pub vector: IrqVector,
    period_counts: u32,
    duty_counts: u32,
    dead_time_counts: u32,
    prescaler: u32,
    align: PwmAlign,
    enabled: bool,
    reload_irq: bool,
    fault: bool,
    next_reload: Cycles,
    reloads: u64,
}

impl Pwm {
    /// New disabled PWM on `vector`.
    pub fn new(vector: IrqVector) -> Self {
        Pwm {
            vector,
            period_counts: 1000,
            duty_counts: 0,
            dead_time_counts: 0,
            prescaler: 1,
            align: PwmAlign::Edge,
            enabled: false,
            reload_irq: false,
            fault: false,
            next_reload: 0,
            reloads: 0,
        }
    }

    /// Configure carrier period, prescaler, alignment and dead time.
    pub fn configure(
        &mut self,
        prescaler: u32,
        period_counts: u32,
        dead_time_counts: u32,
        align: PwmAlign,
    ) -> Result<(), String> {
        if prescaler == 0 || period_counts == 0 {
            return Err("PWM prescaler and period must be nonzero".into());
        }
        if dead_time_counts >= period_counts {
            return Err(format!(
                "dead time {dead_time_counts} counts must be below the period {period_counts}"
            ));
        }
        self.prescaler = prescaler;
        self.period_counts = period_counts;
        self.dead_time_counts = dead_time_counts;
        self.align = align;
        Ok(())
    }

    /// Carrier period in bus cycles.
    pub fn period_cycles(&self) -> Cycles {
        let base = self.prescaler as Cycles * self.period_counts as Cycles;
        match self.align {
            PwmAlign::Edge => base,
            PwmAlign::Center => base * 2,
        }
    }

    /// Set the duty register (the bean's `SetRatio16`-style method);
    /// clamps to the period.
    pub fn set_duty_counts(&mut self, counts: u32) {
        self.duty_counts = counts.min(self.period_counts);
    }

    /// Set duty as a 16-bit ratio (0 = 0 %, 0xFFFF = 100 %), the uniform
    /// bean API the generated code calls.
    pub fn set_ratio16(&mut self, ratio: u16) {
        let counts = (ratio as u64 * self.period_counts as u64 + 0x7FFF) / 0xFFFF;
        self.set_duty_counts(counts as u32);
    }

    /// Programmed duty register in counts.
    pub fn duty_counts(&self) -> u32 {
        self.duty_counts
    }

    /// Effective output duty ratio in `[0, 1]`, including dead-time loss
    /// and the fault override.
    pub fn duty_ratio(&self) -> f64 {
        if !self.enabled || self.fault {
            return 0.0;
        }
        let effective = self.duty_counts.saturating_sub(self.dead_time_counts);
        effective as f64 / self.period_counts as f64
    }

    /// Enable the output stage at time `now`.
    pub fn enable(&mut self, now: Cycles) {
        self.enabled = true;
        self.next_reload = now + self.period_cycles();
    }

    /// Disable the output stage (outputs forced inactive).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether the output stage is live.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enable/disable the per-period reload interrupt.
    pub fn set_reload_irq(&mut self, on: bool) {
        self.reload_irq = on;
    }

    /// Assert or clear the external fault input (over-current trip); while
    /// asserted the outputs are forced inactive.
    pub fn set_fault(&mut self, fault: bool) {
        self.fault = fault;
    }

    /// Whether the fault input is asserted.
    pub fn fault(&self) -> bool {
        self.fault
    }

    /// Period reloads since enable.
    pub fn reloads(&self) -> u64 {
        self.reloads
    }

    /// Resolution of the duty setting in distinct levels (period counts).
    pub fn duty_levels(&self) -> u32 {
        self.period_counts + 1
    }
}

impl Peripheral for Pwm {
    fn tick(&mut self, _from: Cycles, to: Cycles, irq: &mut InterruptController) {
        if !self.enabled {
            return;
        }
        let period = self.period_cycles();
        while self.next_reload <= to {
            self.reloads += 1;
            if self.reload_irq {
                irq.request(self.vector, self.next_reload);
            }
            self.next_reload += period;
        }
    }

    fn next_event(&self) -> Option<Cycles> {
        // a reload without its interrupt only moves `reloads` and
        // `next_reload`, which `tick` catches up over any window
        (self.enabled && self.reload_irq).then_some(self.next_reload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: IrqVector = IrqVector(3);

    fn pwm() -> Pwm {
        let mut p = Pwm::new(V);
        // 60 MHz bus / (1 × 3000) = 20 kHz carrier, the case-study rate
        p.configure(1, 3000, 0, PwmAlign::Edge).unwrap();
        p
    }

    #[test]
    fn configure_validates() {
        let mut p = Pwm::new(V);
        assert!(p.configure(0, 100, 0, PwmAlign::Edge).is_err());
        assert!(p.configure(1, 0, 0, PwmAlign::Edge).is_err());
        assert!(p.configure(1, 100, 100, PwmAlign::Edge).is_err());
        assert!(p.configure(1, 100, 5, PwmAlign::Edge).is_ok());
    }

    #[test]
    fn duty_ratio_tracks_register() {
        let mut p = pwm();
        p.enable(0);
        p.set_duty_counts(1500);
        assert!((p.duty_ratio() - 0.5).abs() < 1e-12);
        p.set_duty_counts(99999);
        assert!((p.duty_ratio() - 1.0).abs() < 1e-12, "clamps to period");
    }

    #[test]
    fn ratio16_api_maps_full_scale() {
        let mut p = pwm();
        p.enable(0);
        p.set_ratio16(0);
        assert_eq!(p.duty_counts(), 0);
        p.set_ratio16(u16::MAX);
        assert_eq!(p.duty_counts(), 3000);
        p.set_ratio16(u16::MAX / 2);
        assert!((p.duty_ratio() - 0.5).abs() < 1e-3);
    }

    #[test]
    fn disabled_or_faulted_output_is_zero() {
        let mut p = pwm();
        p.set_duty_counts(1500);
        assert_eq!(p.duty_ratio(), 0.0, "not enabled yet");
        p.enable(0);
        p.set_fault(true);
        assert_eq!(p.duty_ratio(), 0.0, "fault forces outputs off");
        p.set_fault(false);
        assert!(p.duty_ratio() > 0.0);
    }

    #[test]
    fn dead_time_reduces_effective_duty() {
        let mut p = Pwm::new(V);
        p.configure(1, 1000, 20, PwmAlign::Edge).unwrap();
        p.enable(0);
        p.set_duty_counts(500);
        assert!((p.duty_ratio() - 0.48).abs() < 1e-12);
        p.set_duty_counts(10);
        assert_eq!(p.duty_ratio(), 0.0, "duty below dead time vanishes");
    }

    #[test]
    fn center_alignment_doubles_the_period() {
        let mut p = pwm();
        let edge = p.period_cycles();
        p.configure(1, 3000, 0, PwmAlign::Center).unwrap();
        assert_eq!(p.period_cycles(), edge * 2);
    }

    #[test]
    fn reload_irq_fires_once_per_period() {
        let mut p = pwm();
        p.set_reload_irq(true);
        p.enable(0);
        let mut irq = InterruptController::new();
        irq.configure(V, 6);
        irq.set_global_enable(true);
        let mut times = vec![];
        for step in 0..4u64 {
            let (from, to) = (step * 3000, (step + 1) * 3000);
            p.tick(from, to, &mut irq);
            while let Some(d) = irq.dispatch(to) {
                times.push(d.asserted_at);
            }
        }
        assert_eq!(times, vec![3000, 6000, 9000, 12000]);
        assert_eq!(p.reloads(), 4);
    }

    #[test]
    fn only_an_interrupting_reload_is_an_event() {
        let mut p = pwm();
        assert_eq!(p.next_event(), None, "stopped");
        p.enable(0);
        assert_eq!(p.next_event(), None, "a reload without its interrupt posts nothing");
        let mut irq = InterruptController::new();
        p.tick(0, 10_000, &mut irq);
        assert_eq!(p.reloads(), 3, "one window catches the reloads up");
        p.set_reload_irq(true);
        assert_eq!(p.next_event(), Some(12_000));
    }
}
