//! Programmable-interval timer (the 56F8xxx "quad timer" style counter).
//!
//! A prescaled modulo counter producing a periodic interrupt — the time base
//! PEERT uses to execute "periodic parts of the model code ...
//! non-preemptively in a timer interrupt" (§5).

use super::Peripheral;
use crate::interrupt::{InterruptController, IrqVector};
use crate::Cycles;

/// Periodic timer peripheral.
#[derive(Clone, Debug)]
pub struct Timer {
    /// Interrupt vector asserted on every counter rollover.
    pub vector: IrqVector,
    prescaler: u32,
    modulo: u32,
    enabled: bool,
    /// Absolute cycle of the next rollover event.
    next_event: Cycles,
    /// Rollovers since reset (diagnostic).
    rollovers: u64,
}

impl Timer {
    /// New disabled timer on `vector`.
    pub fn new(vector: IrqVector) -> Self {
        Timer { vector, prescaler: 1, modulo: 1, enabled: false, next_event: 0, rollovers: 0 }
    }

    /// Program prescaler and modulo. Returns an error for zero values,
    /// mirroring the register-level constraint PE validates at design time.
    pub fn configure(&mut self, prescaler: u32, modulo: u32) -> Result<(), String> {
        if prescaler == 0 || modulo == 0 {
            return Err("timer prescaler and modulo must be nonzero".into());
        }
        self.prescaler = prescaler;
        self.modulo = modulo;
        Ok(())
    }

    /// Rollover period in bus cycles.
    pub fn period_cycles(&self) -> Cycles {
        self.prescaler as Cycles * self.modulo as Cycles
    }

    /// Start counting; the first rollover lands one full period after `now`.
    pub fn start(&mut self, now: Cycles) {
        self.enabled = true;
        self.next_event = now + self.period_cycles();
    }

    /// Stop counting.
    pub fn stop(&mut self) {
        self.enabled = false;
    }

    /// Whether the timer is running.
    pub fn running(&self) -> bool {
        self.enabled
    }

    /// Rollovers since reset.
    pub fn rollovers(&self) -> u64 {
        self.rollovers
    }
}

impl Peripheral for Timer {
    fn tick(&mut self, _from: Cycles, to: Cycles, irq: &mut InterruptController) {
        if !self.enabled {
            return;
        }
        let period = self.period_cycles();
        while self.next_event <= to {
            irq.request(self.vector, self.next_event);
            self.rollovers += 1;
            self.next_event += period;
        }
    }

    fn next_event(&self) -> Option<Cycles> {
        self.enabled.then_some(self.next_event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: IrqVector = IrqVector(1);

    fn ctl() -> InterruptController {
        let mut c = InterruptController::new();
        c.configure(V, 5);
        c.set_global_enable(true);
        c
    }

    #[test]
    fn configure_rejects_zero() {
        let mut t = Timer::new(V);
        assert!(t.configure(0, 10).is_err());
        assert!(t.configure(10, 0).is_err());
        assert!(t.configure(4, 1000).is_ok());
        assert_eq!(t.period_cycles(), 4000);
    }

    #[test]
    fn first_event_one_period_after_start() {
        let mut t = Timer::new(V);
        t.configure(1, 100).unwrap();
        t.start(50);
        let mut irq = ctl();
        t.tick(50, 149, &mut irq);
        assert_eq!(irq.pending_count(), 0, "no rollover before 150");
        t.tick(149, 150, &mut irq);
        let d = irq.dispatch(150).unwrap();
        assert_eq!(d.asserted_at, 150);
    }

    #[test]
    fn emits_every_period_with_exact_timestamps() {
        let mut t = Timer::new(V);
        t.configure(2, 50).unwrap(); // 100-cycle period
        t.start(0);
        let mut irq = ctl();
        let mut asserts = vec![];
        for step in 0..10u64 {
            let (from, to) = (step * 37, (step + 1) * 37); // awkward window size
            t.tick(from, to, &mut irq);
            while let Some(d) = irq.dispatch(to) {
                asserts.push(d.asserted_at);
            }
        }
        assert_eq!(asserts, vec![100, 200, 300]);
        assert_eq!(t.rollovers(), 3);
    }

    #[test]
    fn missed_rollover_is_lost_not_queued_twice() {
        let mut t = Timer::new(V);
        t.configure(1, 10).unwrap();
        t.start(0);
        let mut irq = ctl();
        // three periods pass without a dispatch opportunity
        t.tick(0, 30, &mut irq);
        assert_eq!(irq.pending_count(), 1);
        assert_eq!(irq.lost_count(), 2);
    }

    #[test]
    fn stopped_timer_is_silent() {
        let mut t = Timer::new(V);
        t.configure(1, 10).unwrap();
        t.start(0);
        t.stop();
        let mut irq = ctl();
        t.tick(0, 1000, &mut irq);
        assert_eq!(irq.pending_count(), 0);
        assert!(!t.running());
    }
}
