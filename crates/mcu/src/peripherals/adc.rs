//! Successive-approximation ADC with conversion time and end-of-conversion
//! interrupt.
//!
//! The paper's flagship example of peripheral-aware MIL simulation (§5):
//! "the ADC block representing the 12 bits AD converter on the MCU chip
//! really provides the controller model with values with the 12 bits
//! resolution, even though the data type of the input signal from the plant
//! model is double and the data type of the output signal to the controller
//! model is uint16."

use super::Peripheral;
use crate::interrupt::{InterruptController, IrqVector};
use crate::Cycles;
use peert_fixedpoint::QFormat;

/// Maximum number of multiplexed input channels.
pub const MAX_CHANNELS: usize = 8;

/// ADC operating mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdcMode {
    /// One conversion per software trigger (`start_conversion`).
    Single,
    /// Back-to-back conversions of the selected channel.
    Continuous,
}

/// The ADC peripheral.
#[derive(Clone, Debug)]
pub struct Adc {
    /// End-of-conversion interrupt vector.
    pub vector: IrqVector,
    resolution_bits: u8,
    vref_low: f64,
    vref_high: f64,
    conversion_cycles: Cycles,
    mode: AdcMode,
    channel: usize,
    inputs: [f64; MAX_CHANNELS],
    /// Absolute completion time of the in-flight conversion, if any.
    busy_until: Option<Cycles>,
    result: u16,
    result_fresh: bool,
    conversions: u64,
}

impl Adc {
    /// New idle 12-bit ADC on `vector` with a 0..3.3 V range and a
    /// placeholder conversion time (reconfigure before use).
    pub fn new(vector: IrqVector) -> Self {
        Adc {
            vector,
            resolution_bits: 12,
            vref_low: 0.0,
            vref_high: 3.3,
            conversion_cycles: 100,
            mode: AdcMode::Single,
            channel: 0,
            inputs: [0.0; MAX_CHANNELS],
            busy_until: None,
            result: 0,
            result_fresh: false,
            conversions: 0,
        }
    }

    /// Configure resolution, reference range, conversion time and mode.
    pub fn configure(
        &mut self,
        resolution_bits: u8,
        vref_low: f64,
        vref_high: f64,
        conversion_cycles: Cycles,
        mode: AdcMode,
    ) -> Result<(), String> {
        if !(1..=16).contains(&resolution_bits) {
            return Err(format!("ADC resolution {resolution_bits} bits out of range 1..=16"));
        }
        if vref_high <= vref_low {
            return Err("ADC reference range is empty".into());
        }
        if conversion_cycles == 0 {
            return Err("ADC conversion time must be nonzero".into());
        }
        self.resolution_bits = resolution_bits;
        self.vref_low = vref_low;
        self.vref_high = vref_high;
        self.conversion_cycles = conversion_cycles;
        self.mode = mode;
        Ok(())
    }

    /// Select the multiplexer channel.
    pub fn select_channel(&mut self, channel: usize) -> Result<(), String> {
        if channel >= MAX_CHANNELS {
            return Err(format!("ADC channel {channel} out of range 0..{MAX_CHANNELS}"));
        }
        self.channel = channel;
        Ok(())
    }

    /// Drive the analog input of `channel` (the plant side of the wire).
    pub fn set_input(&mut self, channel: usize, volts: f64) {
        if channel < MAX_CHANNELS {
            self.inputs[channel] = volts;
        }
    }

    /// The digital transfer function: quantize `volts` to the result code.
    pub fn quantize(&self, volts: f64) -> u16 {
        let fmt = QFormat::adc(self.resolution_bits);
        let norm = (volts - self.vref_low) / (self.vref_high - self.vref_low);
        let code = (norm * fmt.raw_max() as f64).round();
        code.clamp(0.0, fmt.raw_max() as f64) as u16
    }

    /// Start a conversion at time `now` (the bean's `Measure` method).
    /// Returns `false` if a conversion is already in flight.
    pub fn start_conversion(&mut self, now: Cycles) -> bool {
        if self.busy_until.is_some() {
            return false;
        }
        self.busy_until = Some(now + self.conversion_cycles);
        true
    }

    /// Whether a conversion is in flight.
    pub fn busy(&self) -> bool {
        self.busy_until.is_some()
    }

    /// Read the result register (the bean's `GetValue` method); clears the
    /// freshness flag.
    pub fn result(&mut self) -> u16 {
        self.result_fresh = false;
        self.result
    }

    /// Whether an unread result is available.
    pub fn result_fresh(&self) -> bool {
        self.result_fresh
    }

    /// Configured resolution in bits.
    pub fn resolution_bits(&self) -> u8 {
        self.resolution_bits
    }

    /// Configured conversion time in bus cycles.
    pub fn conversion_cycles(&self) -> Cycles {
        self.conversion_cycles
    }

    /// Completed conversions since reset.
    pub fn conversions(&self) -> u64 {
        self.conversions
    }

    /// Full-scale code for the configured resolution.
    pub fn full_scale(&self) -> u16 {
        ((1u32 << self.resolution_bits) - 1) as u16
    }
}

impl Peripheral for Adc {
    fn tick(&mut self, _from: Cycles, to: Cycles, irq: &mut InterruptController) {
        while let Some(done_at) = self.busy_until {
            if done_at > to {
                break;
            }
            self.result = self.quantize(self.inputs[self.channel]);
            self.result_fresh = true;
            self.conversions += 1;
            irq.request(self.vector, done_at);
            self.busy_until = match self.mode {
                AdcMode::Single => None,
                AdcMode::Continuous => Some(done_at + self.conversion_cycles),
            };
        }
    }

    fn next_event(&self) -> Option<Cycles> {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: IrqVector = IrqVector(2);

    fn ctl() -> InterruptController {
        let mut c = InterruptController::new();
        c.configure(V, 4);
        c.set_global_enable(true);
        c
    }

    fn adc() -> Adc {
        let mut a = Adc::new(V);
        a.configure(12, 0.0, 3.3, 100, AdcMode::Single).unwrap();
        a
    }

    #[test]
    fn configure_validates() {
        let mut a = Adc::new(V);
        assert!(a.configure(0, 0.0, 3.3, 10, AdcMode::Single).is_err());
        assert!(a.configure(17, 0.0, 3.3, 10, AdcMode::Single).is_err());
        assert!(a.configure(12, 3.3, 0.0, 10, AdcMode::Single).is_err());
        assert!(a.configure(12, 0.0, 3.3, 0, AdcMode::Single).is_err());
        assert!(a.select_channel(MAX_CHANNELS).is_err());
    }

    #[test]
    fn quantize_endpoints_and_midpoint() {
        let a = adc();
        assert_eq!(a.quantize(0.0), 0);
        assert_eq!(a.quantize(3.3), 4095);
        assert_eq!(a.quantize(-1.0), 0, "below range clamps");
        assert_eq!(a.quantize(5.0), 4095, "above range clamps");
        let mid = a.quantize(1.65);
        assert!((mid as i32 - 2048).abs() <= 1);
    }

    #[test]
    fn conversion_takes_time_and_raises_eoc() {
        let mut a = adc();
        a.set_input(0, 1.0);
        let mut irq = ctl();
        assert!(a.start_conversion(0));
        assert!(a.busy());
        a.tick(0, 99, &mut irq);
        assert!(!a.result_fresh(), "not done before conversion time");
        a.tick(99, 100, &mut irq);
        assert!(a.result_fresh());
        let d = irq.dispatch(100).unwrap();
        assert_eq!(d.asserted_at, 100);
        let code = a.result();
        assert_eq!(code, a.quantize(1.0));
        assert!(!a.result_fresh(), "read clears freshness");
        assert!(!a.busy());
    }

    #[test]
    fn double_start_is_rejected_while_busy() {
        let mut a = adc();
        assert!(a.start_conversion(0));
        assert!(!a.start_conversion(10));
    }

    #[test]
    fn continuous_mode_restarts_itself() {
        let mut a = adc();
        a.configure(12, 0.0, 3.3, 100, AdcMode::Continuous).unwrap();
        a.set_input(0, 2.0);
        let mut irq = ctl();
        a.start_conversion(0);
        a.tick(0, 350, &mut irq);
        assert_eq!(a.conversions(), 3, "completions at 100, 200, 300");
        assert!(a.busy(), "next conversion already in flight");
    }

    #[test]
    fn resolution_changes_step_size() {
        let mut a = adc();
        a.configure(8, 0.0, 3.3, 100, AdcMode::Single).unwrap();
        assert_eq!(a.full_scale(), 255);
        // an 8-bit converter cannot distinguish 1.650 V from 1.655 V
        assert_eq!(a.quantize(1.650), a.quantize(1.655));
        a.configure(16, 0.0, 3.3, 100, AdcMode::Single).unwrap();
        assert_ne!(a.quantize(1.650), a.quantize(1.655));
    }

    #[test]
    fn channel_mux_selects_input() {
        let mut a = adc();
        a.set_input(0, 0.0);
        a.set_input(3, 3.3);
        a.select_channel(3).unwrap();
        let mut irq = ctl();
        a.start_conversion(0);
        a.tick(0, 100, &mut irq);
        assert_eq!(a.result(), 4095);
    }
}
