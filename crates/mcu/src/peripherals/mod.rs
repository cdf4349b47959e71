//! Register-level models of the on-chip peripherals wrapped by the PE block
//! set: "Timers, ADC, PWM, PortIO, Quadrature Decoder etc." (§5), plus the
//! SCI (RS-232) used by the PIL link (§6).
//!
//! Every peripheral advances over an absolute bus-cycle window
//! `(from, to]` and posts interrupt requests with *exact* assert timestamps,
//! so response-time and jitter measurements downstream are not limited by
//! the simulation step.

pub mod adc;
pub mod gpio;
pub mod pwm;
pub mod qdec;
pub mod sci;
pub mod timer;

pub use adc::Adc;
pub use gpio::GpioPort;
pub use pwm::Pwm;
pub use qdec::QuadDecoder;
pub use sci::Sci;
pub use timer::Timer;

use crate::interrupt::InterruptController;
use crate::Cycles;

/// A peripheral that advances in bus-cycle time.
pub trait Peripheral {
    /// Advance from absolute cycle `from` (exclusive) to `to` (inclusive),
    /// posting any interrupt requests with their exact assert times.
    fn tick(&mut self, from: Cycles, to: Cycles, irq: &mut InterruptController);

    /// The next absolute cycle at which `tick` may post an interrupt
    /// request (a rollover, reload, completion or arrival with its
    /// interrupt enabled), or `None` while none can come. No `tick` over
    /// a window ending before it posts a request, and `tick` is exact
    /// over any window, so a caller may cross any stretch up to it in
    /// one window.
    fn next_event(&self) -> Option<Cycles>;
}
