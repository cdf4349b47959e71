//! Quadrature decoder for incremental rotary encoders.
//!
//! The case-study feedback path (§7): "The feedback is provided by an
//! incremental rotating encoder (IRC) generating the quadrature modulated
//! signal (100 periods of two phase shifted pulse signals A and B per
//! rotation and one index pulse per rotation). These signals are handled by
//! the MCU counters."
//!
//! The decoder counts *4× the line count* per revolution (every A/B edge),
//! keeps a 16-bit wrapping position register, and latches the revolution
//! counter on the index pulse — exactly the register set the PE
//! QuadratureDecoder bean exposes.

use super::Peripheral;
use crate::interrupt::{InterruptController, IrqVector};
use crate::Cycles;
use std::f64::consts::TAU;

/// The quadrature decoder peripheral.
#[derive(Clone, Debug)]
pub struct QuadDecoder {
    /// Index-pulse interrupt vector.
    pub vector: IrqVector,
    /// Encoder line count (pulses per revolution per phase).
    lines_per_rev: u32,
    /// Interrupt on index pulse.
    index_irq: bool,
    /// 16-bit wrapping position counter (counts, 4× decoding).
    position: u16,
    /// Signed revolution counter incremented/decremented at the index.
    revolutions: i32,
    /// Continuous shaft angle currently applied (radians).
    shaft_angle: f64,
    /// Total quadrature edges seen (diagnostic).
    edges: u64,
    index_events: u64,
}

impl QuadDecoder {
    /// New decoder for an encoder of `lines_per_rev` lines (the paper's IRC
    /// has 100).
    pub fn new(vector: IrqVector, lines_per_rev: u32) -> Result<Self, String> {
        if lines_per_rev == 0 {
            return Err("encoder line count must be nonzero".into());
        }
        Ok(QuadDecoder {
            vector,
            lines_per_rev,
            index_irq: false,
            position: 0,
            revolutions: 0,
            shaft_angle: 0.0,
            edges: 0,
            index_events: 0,
        })
    }

    /// Counts per revolution after 4× decoding.
    pub fn counts_per_rev(&self) -> u32 {
        self.lines_per_rev * 4
    }

    /// Enable/disable the index-pulse interrupt.
    pub fn set_index_irq(&mut self, on: bool) {
        self.index_irq = on;
    }

    /// Drive the shaft to `angle` radians at time `now`; generates the
    /// quadrature edges (and index crossings) between the old and new angle.
    pub fn set_shaft_angle(&mut self, angle: f64, now: Cycles, irq: &mut InterruptController) {
        let cpr = self.counts_per_rev() as f64;
        let old_count = (self.shaft_angle / TAU * cpr).floor() as i64;
        let new_count = (angle / TAU * cpr).floor() as i64;
        let delta = new_count - old_count;
        self.edges += delta.unsigned_abs();
        self.position = self.position.wrapping_add(delta as u16);

        // index pulses at every whole-revolution boundary crossed
        let old_rev = (self.shaft_angle / TAU).floor() as i64;
        let new_rev = (angle / TAU).floor() as i64;
        let rev_delta = new_rev - old_rev;
        if rev_delta != 0 {
            self.revolutions += rev_delta as i32;
            self.index_events += rev_delta.unsigned_abs();
            if self.index_irq {
                irq.request(self.vector, now);
            }
        }
        self.shaft_angle = angle;
    }

    /// Raw 16-bit position register (the bean's `GetPosition`).
    pub fn position(&self) -> u16 {
        self.position
    }

    /// Signed revolution counter (index-maintained).
    pub fn revolutions(&self) -> i32 {
        self.revolutions
    }

    /// Quadrature edges counted since reset.
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Index pulses seen.
    pub fn index_events(&self) -> u64 {
        self.index_events
    }

    /// Signed count delta between two successive 16-bit position readings,
    /// assuming |true delta| < 2^15 — the standard velocity-estimation
    /// helper generated code uses.
    pub fn count_delta(prev: u16, curr: u16) -> i16 {
        curr.wrapping_sub(prev) as i16
    }

    /// Reset position and revolution registers.
    pub fn reset(&mut self) {
        self.position = 0;
        self.revolutions = 0;
    }
}

impl Peripheral for QuadDecoder {
    fn tick(&mut self, _from: Cycles, _to: Cycles, _irq: &mut InterruptController) {
        // edges are event-driven via `set_shaft_angle`
    }

    fn next_event(&self) -> Option<Cycles> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: IrqVector = IrqVector(5);

    fn ctl() -> InterruptController {
        let mut c = InterruptController::new();
        c.configure(V, 3);
        c.set_global_enable(true);
        c
    }

    fn qd() -> QuadDecoder {
        QuadDecoder::new(V, 100).unwrap()
    }

    #[test]
    fn line_count_must_be_nonzero() {
        assert!(QuadDecoder::new(V, 0).is_err());
        assert_eq!(qd().counts_per_rev(), 400);
    }

    #[test]
    fn quarter_turn_gives_quarter_of_cpr() {
        let mut q = qd();
        let mut irq = ctl();
        q.set_shaft_angle(TAU / 4.0, 100, &mut irq);
        assert_eq!(q.position(), 100);
        assert_eq!(q.edges(), 100);
    }

    #[test]
    fn reverse_rotation_counts_down() {
        let mut q = qd();
        let mut irq = ctl();
        q.set_shaft_angle(-TAU / 4.0, 100, &mut irq);
        assert_eq!(q.position(), 0u16.wrapping_sub(100));
        assert_eq!(QuadDecoder::count_delta(0, q.position()), -100);
    }

    #[test]
    fn position_wraps_at_16_bits() {
        let mut q = qd();
        let mut irq = ctl();
        // 200 revolutions = 80 000 counts > 65 535
        q.set_shaft_angle(200.0 * TAU, 100, &mut irq);
        assert_eq!(q.position(), (80_000u32 % 65_536) as u16);
        assert_eq!(q.revolutions(), 200);
    }

    #[test]
    fn count_delta_handles_wraparound() {
        assert_eq!(QuadDecoder::count_delta(65_500, 100), 136);
        assert_eq!(QuadDecoder::count_delta(100, 65_500), -136);
        assert_eq!(QuadDecoder::count_delta(0, 0), 0);
    }

    #[test]
    fn index_pulse_fires_once_per_revolution() {
        let mut q = qd();
        q.set_index_irq(true);
        let mut irq = ctl();
        q.set_shaft_angle(0.5 * TAU, 10, &mut irq);
        assert!(irq.dispatch(11).is_none(), "no index before a full rev");
        q.set_shaft_angle(1.1 * TAU, 20, &mut irq);
        assert!(irq.dispatch(21).is_some());
        assert_eq!(q.index_events(), 1);
        assert_eq!(q.revolutions(), 1);
    }

    #[test]
    fn incremental_and_jump_paths_agree() {
        let mut a = qd();
        let mut b = qd();
        let mut irq = ctl();
        let target = 3.7 * TAU;
        for i in 1..=1000 {
            a.set_shaft_angle(target * i as f64 / 1000.0, i, &mut irq);
        }
        b.set_shaft_angle(target, 1, &mut irq);
        assert_eq!(a.position(), b.position());
        assert_eq!(a.revolutions(), b.revolutions());
    }

    #[test]
    fn reset_clears_registers() {
        let mut q = qd();
        let mut irq = ctl();
        q.set_shaft_angle(2.0 * TAU, 10, &mut irq);
        q.reset();
        assert_eq!(q.position(), 0);
        assert_eq!(q.revolutions(), 0);
    }
}
