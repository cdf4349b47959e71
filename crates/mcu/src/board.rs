//! The simulated chip instance and the development board around it.
//!
//! [`Mcu`] instantiates the peripheral set described by an [`McuSpec`] and
//! advances all of it on a shared bus-cycle timeline. [`Board`] adds the
//! off-chip world of the case study and the PIL setup (Fig 6.2): the motor
//! shaft feeding the encoder, analog voltages on the ADC pins, buttons on a
//! GPIO port and the PWM power-stage output.

use crate::cpu::StackModel;
use crate::database::McuSpec;
use crate::interrupt::InterruptController;
use crate::peripherals::{Adc, GpioPort, Peripheral, Pwm, QuadDecoder, Sci, Timer};
use crate::{ClockTree, Cycles};

/// Standard vector assignment for instantiated peripherals.
pub mod vectors {
    use crate::interrupt::IrqVector;

    /// Vector of timer channel `i`.
    pub fn timer(i: usize) -> IrqVector {
        IrqVector(0x10 + i as u16)
    }
    /// End-of-conversion vector of ADC module `i`.
    pub fn adc(i: usize) -> IrqVector {
        IrqVector(0x20 + i as u16)
    }
    /// Reload vector of PWM generator `i`.
    pub fn pwm(i: usize) -> IrqVector {
        IrqVector(0x30 + i as u16)
    }
    /// Port interrupt of GPIO port `i`.
    pub fn gpio(i: usize) -> IrqVector {
        IrqVector(0x40 + i as u16)
    }
    /// Index vector of quadrature decoder `i`.
    pub fn qdec(i: usize) -> IrqVector {
        IrqVector(0x50 + i as u16)
    }
    /// Receive vector of SCI module `i`.
    pub fn sci_rx(i: usize) -> IrqVector {
        IrqVector(0x60 + 2 * i as u16)
    }
    /// Transmit vector of SCI module `i`.
    pub fn sci_tx(i: usize) -> IrqVector {
        IrqVector(0x61 + 2 * i as u16)
    }
}

/// A simulated MCU: clock, interrupt controller, peripherals, stack, time.
#[derive(Clone, Debug)]
pub struct Mcu {
    /// The catalog entry this chip was built from.
    pub spec: McuSpec,
    /// Clock configuration (copied from the spec, reconfigurable).
    pub clock: ClockTree,
    /// Interrupt controller.
    pub intc: InterruptController,
    /// General-purpose timers.
    pub timers: Vec<Timer>,
    /// ADC modules.
    pub adcs: Vec<Adc>,
    /// PWM generators.
    pub pwms: Vec<Pwm>,
    /// GPIO ports.
    pub ports: Vec<GpioPort>,
    /// Quadrature decoders.
    pub qdecs: Vec<QuadDecoder>,
    /// SCI (UART) modules.
    pub scis: Vec<Sci>,
    /// Stack usage model.
    pub stack: StackModel,
    now: Cycles,
}

impl Mcu {
    /// Instantiate a chip from its catalog entry.
    pub fn new(spec: &McuSpec) -> Self {
        let clock = spec.clock.clone();
        let bus_hz = clock.bus_hz();
        Mcu {
            spec: spec.clone(),
            intc: InterruptController::new(),
            timers: (0..spec.timers.count).map(|i| Timer::new(vectors::timer(i))).collect(),
            adcs: (0..spec.adc.count).map(|i| Adc::new(vectors::adc(i))).collect(),
            pwms: (0..spec.pwm.count).map(|i| Pwm::new(vectors::pwm(i))).collect(),
            ports: (0..spec.gpio_ports).map(|i| GpioPort::new(vectors::gpio(i))).collect(),
            qdecs: (0..spec.qdec_count)
                .map(|i| QuadDecoder::new(vectors::qdec(i), 100).expect("nonzero line count"))
                .collect(),
            scis: (0..spec.sci_count)
                .map(|i| Sci::new(vectors::sci_rx(i), vectors::sci_tx(i), bus_hz))
                .collect(),
            stack: StackModel::new(spec.stack_bytes),
            clock,
            now: 0,
        }
    }

    /// Current simulation time in bus cycles.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Current simulation time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.clock.cycles_to_secs(self.now)
    }

    /// Advance the whole chip to absolute cycle `to`, ticking every
    /// peripheral over the window. Idempotent for `to <= now`.
    pub fn advance_to(&mut self, to: Cycles) {
        if to <= self.now {
            return;
        }
        let from = self.now;
        for t in &mut self.timers {
            t.tick(from, to, &mut self.intc);
        }
        for a in &mut self.adcs {
            a.tick(from, to, &mut self.intc);
        }
        for p in &mut self.pwms {
            p.tick(from, to, &mut self.intc);
        }
        for g in &mut self.ports {
            g.tick(from, to, &mut self.intc);
        }
        for q in &mut self.qdecs {
            q.tick(from, to, &mut self.intc);
        }
        for s in &mut self.scis {
            s.tick(from, to, &mut self.intc);
        }
        self.now = to;
    }

    /// Advance by a relative number of cycles.
    pub fn advance(&mut self, cycles: Cycles) {
        self.advance_to(self.now + cycles);
    }

    /// The earliest [`Peripheral::next_event`] on the chip, or `None`
    /// while no peripheral can post an interrupt request: until then no
    /// [`Mcu::advance_to`] posts one, and no request can appear except
    /// one posted from outside.
    pub fn next_event(&self) -> Option<Cycles> {
        let timers = self.timers.iter().map(Peripheral::next_event);
        let adcs = self.adcs.iter().map(Peripheral::next_event);
        let pwms = self.pwms.iter().map(Peripheral::next_event);
        let ports = self.ports.iter().map(Peripheral::next_event);
        let qdecs = self.qdecs.iter().map(Peripheral::next_event);
        let scis = self.scis.iter().map(Peripheral::next_event);
        timers.chain(adcs).chain(pwms).chain(ports).chain(qdecs).chain(scis).flatten().min()
    }
}

/// The development board: an [`Mcu`] plus its off-chip wiring.
#[derive(Clone, Debug)]
pub struct Board {
    /// The chip.
    pub mcu: Mcu,
    /// Index of the ADC wired to the analog sensor input.
    pub sensor_adc: usize,
    /// Index of the PWM wired to the power stage.
    pub drive_pwm: usize,
    /// Index of the quadrature decoder wired to the shaft encoder
    /// (`None` if the part has no decoder).
    pub shaft_qdec: Option<usize>,
    /// Index of the GPIO port carrying the button keyboard.
    pub button_port: usize,
}

impl Board {
    /// Wire up a board around a chip, using the first instance of each
    /// peripheral kind.
    pub fn new(spec: &McuSpec) -> Self {
        let mcu = Mcu::new(spec);
        Board {
            sensor_adc: 0,
            drive_pwm: 0,
            shaft_qdec: (!mcu.qdecs.is_empty()).then_some(0),
            button_port: 0,
            mcu,
        }
    }

    /// Drive the encoder shaft to `angle` radians (from the plant).
    pub fn set_shaft_angle(&mut self, angle: f64) {
        if let Some(i) = self.shaft_qdec {
            let now = self.mcu.now;
            self.mcu.qdecs[i].set_shaft_angle(angle, now, &mut self.mcu.intc);
        }
    }

    /// Drive an analog sensor voltage on ADC channel `ch`.
    pub fn set_sensor_volts(&mut self, ch: usize, volts: f64) {
        self.mcu.adcs[self.sensor_adc].set_input(ch, volts);
    }

    /// Effective duty ratio currently commanded to the power stage.
    pub fn drive_duty(&self) -> f64 {
        self.mcu.pwms[self.drive_pwm].duty_ratio()
    }

    /// Press (`true`) or release a button wired to `pin` of the button port.
    pub fn set_button(&mut self, pin: usize, pressed: bool) {
        let now = self.mcu.now;
        self.mcu.ports[self.button_port].drive_input(pin, pressed, now, &mut self.mcu.intc);
    }

    /// Whether the button on `pin` currently reads pressed.
    pub fn button_pressed(&self, pin: usize) -> bool {
        self.mcu.ports[self.button_port].read_pin(pin).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::McuCatalog;
    use crate::peripherals::adc::AdcMode;

    fn mc56() -> McuSpec {
        McuCatalog::standard().find("MC56F8367").unwrap().clone()
    }

    #[test]
    fn mcu_instantiates_the_spec_inventory() {
        let spec = mc56();
        let m = Mcu::new(&spec);
        assert_eq!(m.timers.len(), spec.timers.count);
        assert_eq!(m.adcs.len(), spec.adc.count);
        assert_eq!(m.pwms.len(), spec.pwm.count);
        assert_eq!(m.qdecs.len(), spec.qdec_count);
        assert_eq!(m.scis.len(), spec.sci_count);
        assert_eq!(m.ports.len(), spec.gpio_ports);
        assert_eq!(m.stack.capacity(), spec.stack_bytes);
    }

    #[test]
    fn advance_ticks_all_peripherals_once() {
        let mut m = Mcu::new(&mc56());
        m.intc.configure(vectors::timer(0), 5);
        m.intc.set_global_enable(true);
        m.timers[0].configure(1, 60_000).unwrap(); // 1 ms at 60 MHz
        m.timers[0].start(0);
        m.advance(180_000); // 3 ms
        assert_eq!(m.timers[0].rollovers(), 3);
        assert!((m.now_secs() - 3e-3).abs() < 1e-9);
    }

    #[test]
    fn advance_to_is_idempotent_backwards() {
        let mut m = Mcu::new(&mc56());
        m.advance_to(1000);
        m.advance_to(500);
        assert_eq!(m.now(), 1000);
    }

    #[test]
    fn board_wires_shaft_to_decoder() {
        let mut b = Board::new(&mc56());
        b.set_shaft_angle(std::f64::consts::TAU); // one revolution
        let q = &b.mcu.qdecs[0];
        assert_eq!(q.position(), 400);
    }

    #[test]
    fn board_on_a_part_without_qdec_ignores_the_shaft() {
        let cat = McuCatalog::standard();
        let mut b = Board::new(cat.find("MC9S08GB60").unwrap());
        assert!(b.shaft_qdec.is_none());
        b.set_shaft_angle(1.0); // must not panic
    }

    #[test]
    fn board_buttons_reach_gpio() {
        let mut b = Board::new(&mc56());
        assert!(!b.button_pressed(2));
        b.set_button(2, true);
        assert!(b.button_pressed(2));
    }

    #[test]
    fn board_adc_and_pwm_paths() {
        let mut b = Board::new(&mc56());
        b.mcu.adcs[0].configure(12, 0.0, 3.3, 102, AdcMode::Single).unwrap();
        b.set_sensor_volts(0, 3.3);
        let now = b.mcu.now();
        b.mcu.adcs[0].start_conversion(now);
        b.mcu.advance(200);
        assert_eq!(b.mcu.adcs[0].result(), 4095);

        b.mcu.pwms[0].configure(1, 3000, 0, crate::peripherals::pwm::PwmAlign::Edge).unwrap();
        let now = b.mcu.now();
        b.mcu.pwms[0].enable(now);
        b.mcu.pwms[0].set_ratio16(u16::MAX / 2);
        assert!((b.drive_duty() - 0.5).abs() < 1e-3);
    }
}
