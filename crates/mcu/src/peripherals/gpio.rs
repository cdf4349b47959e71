//! General-purpose I/O port with per-pin direction and edge interrupts.
//!
//! The case study's "few button keyboard is used to set the speed set-point
//! and switch between the manual and the automatic control mode" (§7) hangs
//! off this peripheral; the PE block set wraps it as BitIO / PortIO beans.

use super::Peripheral;
use crate::interrupt::{InterruptController, IrqVector};
use crate::Cycles;

/// Number of pins per port.
pub const PORT_WIDTH: usize = 16;

/// Edge sensitivity of a pin interrupt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeSense {
    /// No interrupt.
    None,
    /// Interrupt on 0→1.
    Rising,
    /// Interrupt on 1→0.
    Falling,
    /// Interrupt on any edge.
    Both,
}

/// A 16-pin GPIO port.
#[derive(Clone, Debug)]
pub struct GpioPort {
    /// Interrupt vector shared by all pins of the port (KBI style).
    pub vector: IrqVector,
    /// Direction mask: bit set = output.
    dir: u16,
    /// Output latch.
    latch: u16,
    /// External input levels (driven by the board / test bench).
    input: u16,
    /// Per-pin edge sensitivity.
    sense: [EdgeSense; PORT_WIDTH],
    /// Pins whose edge fired since the last `take_edge_flags`.
    edge_flags: u16,
    edges_seen: u64,
}

impl GpioPort {
    /// New port, all pins inputs, no interrupts.
    pub fn new(vector: IrqVector) -> Self {
        GpioPort {
            vector,
            dir: 0,
            latch: 0,
            input: 0,
            sense: [EdgeSense::None; PORT_WIDTH],
            edge_flags: 0,
            edges_seen: 0,
        }
    }

    /// Set pin direction (true = output).
    pub fn set_direction(&mut self, pin: usize, output: bool) -> Result<(), String> {
        let bit = Self::bit(pin)?;
        if output {
            self.dir |= bit;
        } else {
            self.dir &= !bit;
        }
        Ok(())
    }

    /// Configure a pin's edge interrupt sensitivity.
    pub fn set_edge_sense(&mut self, pin: usize, sense: EdgeSense) -> Result<(), String> {
        Self::bit(pin)?;
        self.sense[pin] = sense;
        Ok(())
    }

    /// Write one output pin (the BitIO bean's `PutVal`).
    pub fn write_pin(&mut self, pin: usize, level: bool) -> Result<(), String> {
        let bit = Self::bit(pin)?;
        if level {
            self.latch |= bit;
        } else {
            self.latch &= !bit;
        }
        Ok(())
    }

    /// Read one pin (the BitIO bean's `GetVal`): outputs read their latch,
    /// inputs read the external level.
    pub fn read_pin(&self, pin: usize) -> Result<bool, String> {
        let bit = Self::bit(pin)?;
        let word = (self.input & !self.dir) | (self.latch & self.dir);
        Ok(word & bit != 0)
    }

    /// Read the whole port.
    pub fn read_port(&self) -> u16 {
        (self.input & !self.dir) | (self.latch & self.dir)
    }

    /// Drive an external input level at time `now`; edges on sensitive
    /// pins post the port interrupt.
    pub fn drive_input(&mut self, pin: usize, level: bool, now: Cycles, irq: &mut InterruptController) {
        let Ok(bit) = Self::bit(pin) else { return };
        let old = self.input & bit != 0;
        if level {
            self.input |= bit;
        } else {
            self.input &= !bit;
        }
        if old == level {
            return;
        }
        let fires = match self.sense[pin] {
            EdgeSense::None => false,
            EdgeSense::Rising => level,
            EdgeSense::Falling => !level,
            EdgeSense::Both => true,
        };
        if fires && self.dir & bit == 0 {
            self.edge_flags |= bit;
            self.edges_seen += 1;
            irq.request(self.vector, now);
        }
    }

    /// Read-and-clear the edge flag register (which pins caused the IRQ).
    pub fn take_edge_flags(&mut self) -> u16 {
        std::mem::take(&mut self.edge_flags)
    }

    /// Total sensitive edges observed.
    pub fn edges_seen(&self) -> u64 {
        self.edges_seen
    }

    fn bit(pin: usize) -> Result<u16, String> {
        if pin >= PORT_WIDTH {
            Err(format!("pin {pin} out of range 0..{PORT_WIDTH}"))
        } else {
            Ok(1 << pin)
        }
    }
}

impl Peripheral for GpioPort {
    fn tick(&mut self, _from: Cycles, _to: Cycles, _irq: &mut InterruptController) {
        // level changes are event-driven through `drive_input`
    }

    fn next_event(&self) -> Option<Cycles> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: IrqVector = IrqVector(4);

    fn ctl() -> InterruptController {
        let mut c = InterruptController::new();
        c.configure(V, 2);
        c.set_global_enable(true);
        c
    }

    #[test]
    fn pin_bounds_are_checked() {
        let mut p = GpioPort::new(V);
        assert!(p.set_direction(16, true).is_err());
        assert!(p.write_pin(99, true).is_err());
        assert!(p.read_pin(16).is_err());
    }

    #[test]
    fn outputs_read_latch_inputs_read_external() {
        let mut p = GpioPort::new(V);
        let mut irq = ctl();
        p.set_direction(0, true).unwrap();
        p.write_pin(0, true).unwrap();
        assert!(p.read_pin(0).unwrap());
        p.drive_input(1, true, 0, &mut irq);
        assert!(p.read_pin(1).unwrap());
        // writing an input pin's latch does not affect its read value
        p.write_pin(1, false).unwrap();
        assert!(p.read_pin(1).unwrap());
        assert_eq!(p.read_port() & 0b11, 0b11);
    }

    #[test]
    fn rising_edge_interrupt_on_button_press() {
        let mut p = GpioPort::new(V);
        let mut irq = ctl();
        p.set_edge_sense(5, EdgeSense::Rising).unwrap();
        p.drive_input(5, true, 1000, &mut irq); // press
        let d = irq.dispatch(1010).unwrap();
        assert_eq!(d.asserted_at, 1000);
        assert_eq!(p.take_edge_flags(), 1 << 5);
        assert_eq!(p.take_edge_flags(), 0, "flags clear on read");
        p.drive_input(5, false, 2000, &mut irq); // release: no IRQ
        assert!(irq.dispatch(2010).is_none());
    }

    #[test]
    fn falling_and_both_sensitivity() {
        let mut p = GpioPort::new(V);
        let mut irq = ctl();
        p.set_edge_sense(1, EdgeSense::Falling).unwrap();
        p.set_edge_sense(2, EdgeSense::Both).unwrap();
        p.drive_input(1, true, 10, &mut irq);
        assert!(irq.dispatch(11).is_none());
        p.drive_input(1, false, 20, &mut irq);
        assert!(irq.dispatch(21).is_some());
        p.drive_input(2, true, 30, &mut irq);
        assert!(irq.dispatch(31).is_some());
        p.drive_input(2, false, 40, &mut irq);
        assert!(irq.dispatch(41).is_some());
        assert_eq!(p.edges_seen(), 3);
    }

    #[test]
    fn no_edge_without_level_change() {
        let mut p = GpioPort::new(V);
        let mut irq = ctl();
        p.set_edge_sense(0, EdgeSense::Both).unwrap();
        p.drive_input(0, false, 10, &mut irq); // already low
        assert_eq!(p.edges_seen(), 0);
    }

    #[test]
    fn output_pins_do_not_fire_input_edges() {
        let mut p = GpioPort::new(V);
        let mut irq = ctl();
        p.set_direction(3, true).unwrap();
        p.set_edge_sense(3, EdgeSense::Both).unwrap();
        p.drive_input(3, true, 10, &mut irq);
        assert_eq!(p.edges_seen(), 0);
    }
}
