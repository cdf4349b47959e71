//! SCI — the asynchronous serial interface (RS-232) used by the PIL link.
//!
//! §6: "The communication between the simulator PC and the development board
//! is provided by RS232 asynchronous serial line. Even though the
//! communication over RS232 is very slow, the main advantage of this
//! interface is that it is present on any development board."
//!
//! The model is baud-rate accurate: every byte occupies `bits_per_frame`
//! bit times on the wire (start + 8 data + optional parity + stop bits), so
//! the PIL overhead experiment (E6) sees the real transfer-time scaling.

use super::Peripheral;
use crate::interrupt::{InterruptController, IrqVector};
use crate::Cycles;
use std::collections::VecDeque;

/// Hardware FIFO depth on each direction.
pub const FIFO_DEPTH: usize = 64;

/// The SCI (UART) peripheral.
#[derive(Clone, Debug)]
pub struct Sci {
    /// Receive interrupt vector (one per received byte).
    pub rx_vector: IrqVector,
    /// Transmit-complete interrupt vector.
    pub tx_vector: IrqVector,
    baud: u32,
    bus_hz: f64,
    stop_bits: u8,
    parity: bool,
    /// Synchronous (SPI-style) mode: no start/stop framing, 8 bits/byte.
    sync_mode: bool,
    /// Bytes waiting to be shifted out, with the cycle each becomes done.
    tx_fifo: VecDeque<u8>,
    /// Completion time of the byte currently in the shift register.
    tx_busy_until: Option<Cycles>,
    /// Byte currently shifting out (already removed from the FIFO).
    tx_shifting: Option<u8>,
    /// Bytes delivered to the wire (with their completion timestamps).
    tx_done: VecDeque<(u8, Cycles)>,
    /// Received bytes ready to read.
    rx_fifo: VecDeque<u8>,
    /// In-flight inbound bytes (arrive when their timestamp passes).
    rx_inflight: VecDeque<(u8, Cycles)>,
    tx_irq: bool,
    rx_irq: bool,
    overruns: u64,
    tx_count: u64,
    rx_count: u64,
}

impl Sci {
    /// New SCI with a given bus clock; 8N1 framing at 115200 by default.
    pub fn new(rx_vector: IrqVector, tx_vector: IrqVector, bus_hz: f64) -> Self {
        Sci {
            rx_vector,
            tx_vector,
            baud: 115_200,
            bus_hz,
            stop_bits: 1,
            parity: false,
            sync_mode: false,
            tx_fifo: VecDeque::new(),
            tx_busy_until: None,
            tx_shifting: None,
            tx_done: VecDeque::new(),
            rx_fifo: VecDeque::new(),
            rx_inflight: VecDeque::new(),
            tx_irq: false,
            rx_irq: false,
            overruns: 0,
            tx_count: 0,
            rx_count: 0,
        }
    }

    /// Configure line parameters.
    pub fn configure(&mut self, baud: u32, stop_bits: u8, parity: bool) -> Result<(), String> {
        if baud == 0 {
            return Err("baud rate must be nonzero".into());
        }
        if self.bus_hz / (baud as f64) < 16.0 {
            return Err(format!(
                "baud {baud} not derivable from a {:.0} Hz bus (needs ≥16× oversampling)",
                self.bus_hz
            ));
        }
        if !(1..=2).contains(&stop_bits) {
            return Err("stop bits must be 1 or 2".into());
        }
        self.baud = baud;
        self.stop_bits = stop_bits;
        self.parity = parity;
        self.sync_mode = false;
        Ok(())
    }

    /// Configure synchronous (SPI-style) operation: the clock line carries
    /// raw 8-bit frames with no start/stop overhead — the faster link the
    /// paper's §8 future work wants the open simulator target to support.
    pub fn configure_sync(&mut self, bit_hz: u32) -> Result<(), String> {
        if bit_hz == 0 {
            return Err("SPI clock must be nonzero".into());
        }
        if self.bus_hz / (bit_hz as f64) < 2.0 {
            return Err(format!(
                "SPI clock {bit_hz} not derivable from a {:.0} Hz bus (needs ≥2× ratio)",
                self.bus_hz
            ));
        }
        self.baud = bit_hz;
        self.stop_bits = 0;
        self.parity = false;
        self.sync_mode = true;
        Ok(())
    }

    /// Whether the port runs in synchronous (SPI) mode.
    pub fn sync_mode(&self) -> bool {
        self.sync_mode
    }

    /// Enable interrupts per direction.
    pub fn set_irqs(&mut self, rx: bool, tx: bool) {
        self.rx_irq = rx;
        self.tx_irq = tx;
    }

    /// Bits per frame: start + 8 data + optional parity + stop bits for
    /// the asynchronous mode; a bare 8 bits in synchronous (SPI) mode.
    pub fn bits_per_frame(&self) -> u32 {
        if self.sync_mode {
            8
        } else {
            1 + 8 + self.parity as u32 + self.stop_bits as u32
        }
    }

    /// Wire time of one byte in bus cycles.
    pub fn byte_time_cycles(&self) -> Cycles {
        (self.bits_per_frame() as f64 * self.bus_hz / self.baud as f64).round() as Cycles
    }

    /// Wire time of one byte in seconds.
    pub fn byte_time_secs(&self) -> f64 {
        self.bits_per_frame() as f64 / self.baud as f64
    }

    /// Queue a byte for transmission at time `now` (the bean's `SendChar`).
    /// Returns `false` (and drops the byte) when the TX FIFO is full.
    pub fn send(&mut self, byte: u8, now: Cycles) -> bool {
        if self.tx_fifo.len() >= FIFO_DEPTH {
            return false;
        }
        self.tx_fifo.push_back(byte);
        self.pump_tx(now);
        true
    }

    /// Bytes still queued or shifting.
    pub fn tx_backlog(&self) -> usize {
        self.tx_fifo.len() + self.tx_busy_until.is_some() as usize
    }

    /// Drain bytes that have fully left the wire (the line model consumes
    /// these and hands them to the peer).
    pub fn take_tx_done(&mut self) -> Vec<(u8, Cycles)> {
        self.tx_done.drain(..).collect()
    }

    /// The peer's line model delivers a byte that finishes arriving at
    /// `arrives_at`.
    pub fn inject_rx(&mut self, byte: u8, arrives_at: Cycles) {
        self.rx_inflight.push_back((byte, arrives_at));
    }

    /// Read one received byte (the bean's `RecvChar`).
    pub fn recv(&mut self) -> Option<u8> {
        self.rx_fifo.pop_front()
    }

    /// Received bytes waiting to be read.
    pub fn rx_available(&self) -> usize {
        self.rx_fifo.len()
    }

    /// RX FIFO overruns (bytes dropped on arrival).
    pub fn overruns(&self) -> u64 {
        self.overruns
    }

    /// Total bytes transmitted / received.
    pub fn counters(&self) -> (u64, u64) {
        (self.tx_count, self.rx_count)
    }

    /// Configured baud rate.
    pub fn baud(&self) -> u32 {
        self.baud
    }

    fn pump_tx(&mut self, now: Cycles) {
        if self.tx_busy_until.is_none() {
            if let Some(byte) = self.tx_fifo.pop_front() {
                self.tx_shifting = Some(byte);
                self.tx_busy_until = Some(now + self.byte_time_cycles());
            }
        }
    }
}

impl Peripheral for Sci {
    fn tick(&mut self, _from: Cycles, to: Cycles, irq: &mut InterruptController) {
        // transmit side
        while let Some(done_at) = self.tx_busy_until {
            if done_at > to {
                break;
            }
            let byte = self.tx_shifting.take().expect("shifting byte present while busy");
            self.tx_done.push_back((byte, done_at));
            self.tx_count += 1;
            self.tx_busy_until = None;
            if self.tx_irq {
                irq.request(self.tx_vector, done_at);
            }
            self.pump_tx(done_at);
        }
        // receive side
        while let Some(&(byte, at)) = self.rx_inflight.front() {
            if at > to {
                break;
            }
            self.rx_inflight.pop_front();
            if self.rx_fifo.len() >= FIFO_DEPTH {
                self.overruns += 1;
                continue;
            }
            self.rx_fifo.push_back(byte);
            self.rx_count += 1;
            if self.rx_irq {
                irq.request(self.rx_vector, at);
            }
        }
    }

    fn next_event(&self) -> Option<Cycles> {
        // `tick` delivers inbound bytes in queue order, so the front's
        // arrival is the next receive-side request; a side whose
        // interrupt is off only moves bytes, which `tick` catches up
        let tx = self.tx_busy_until.filter(|_| self.tx_irq);
        let rx = self.rx_inflight.front().filter(|_| self.rx_irq).map(|&(_, at)| at);
        tx.into_iter().chain(rx).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RX: IrqVector = IrqVector(6);
    const TX: IrqVector = IrqVector(7);
    const BUS: f64 = 60.0e6;

    fn ctl() -> InterruptController {
        let mut c = InterruptController::new();
        c.configure(RX, 4);
        c.configure(TX, 4);
        c.set_global_enable(true);
        c
    }

    fn sci() -> Sci {
        let mut s = Sci::new(RX, TX, BUS);
        s.configure(115_200, 1, false).unwrap();
        s
    }

    #[test]
    fn configure_validates_baud_and_framing() {
        let mut s = Sci::new(RX, TX, BUS);
        assert!(s.configure(0, 1, false).is_err());
        assert!(s.configure(10_000_000, 1, false).is_err(), "no 16x oversampling");
        assert!(s.configure(9600, 3, false).is_err());
        assert!(s.configure(9600, 2, true).is_ok());
        assert_eq!(s.bits_per_frame(), 12);
    }

    #[test]
    fn byte_time_matches_baud() {
        let s = sci();
        // 10 bits at 115200 baud on a 60 MHz bus
        let expect = (10.0 * BUS / 115_200.0).round() as Cycles;
        assert_eq!(s.byte_time_cycles(), expect);
        assert!((s.byte_time_secs() - 10.0 / 115_200.0).abs() < 1e-12);
    }

    #[test]
    fn transmission_is_serialized_byte_by_byte() {
        let mut s = sci();
        let mut irq = ctl();
        let bt = s.byte_time_cycles();
        s.send(0xAA, 0);
        s.send(0x55, 0);
        assert_eq!(s.tx_backlog(), 2);
        s.tick(0, bt, &mut irq);
        let done = s.take_tx_done();
        assert_eq!(done, vec![(0xAA, bt)]);
        s.tick(bt, 2 * bt, &mut irq);
        assert_eq!(s.take_tx_done(), vec![(0x55, 2 * bt)]);
        assert_eq!(s.tx_backlog(), 0);
    }

    #[test]
    fn tx_fifo_overflow_rejects() {
        let mut s = sci();
        for i in 0..FIFO_DEPTH {
            assert!(s.send(i as u8, 0));
        }
        // FIFO_DEPTH bytes fit: one in the shifter + DEPTH-1 queued... the
        // first send moved a byte to the shifter, so one more still fits.
        assert!(s.send(0xFF, 0));
        assert!(!s.send(0xEE, 0), "beyond shifter + FIFO capacity");
    }

    #[test]
    fn rx_delivers_at_arrival_time_with_irq() {
        let mut s = sci();
        s.set_irqs(true, false);
        let mut irq = ctl();
        s.inject_rx(0x42, 500);
        s.tick(0, 499, &mut irq);
        assert_eq!(s.rx_available(), 0);
        s.tick(499, 500, &mut irq);
        assert_eq!(s.rx_available(), 1);
        assert_eq!(irq.dispatch(501).unwrap().asserted_at, 500);
        assert_eq!(s.recv(), Some(0x42));
        assert_eq!(s.recv(), None);
    }

    #[test]
    fn rx_overrun_drops_and_counts() {
        let mut s = sci();
        let mut irq = ctl();
        for i in 0..(FIFO_DEPTH + 5) {
            s.inject_rx(i as u8, 10);
        }
        s.tick(0, 20, &mut irq);
        assert_eq!(s.rx_available(), FIFO_DEPTH);
        assert_eq!(s.overruns(), 5);
    }

    #[test]
    fn counters_track_traffic() {
        let mut s = sci();
        let mut irq = ctl();
        s.send(1, 0);
        s.inject_rx(2, 10);
        s.tick(0, s.byte_time_cycles() + 10, &mut irq);
        assert_eq!(s.counters(), (1, 1));
    }

    #[test]
    fn sync_mode_drops_framing_overhead() {
        let mut s = Sci::new(RX, TX, BUS);
        s.configure_sync(2_000_000).unwrap();
        assert!(s.sync_mode());
        assert_eq!(s.bits_per_frame(), 8);
        // 8 bits at 2 MHz on a 60 MHz bus = 240 cycles/byte
        assert_eq!(s.byte_time_cycles(), 240);
        // switching back to async restores the framing
        s.configure(115_200, 1, false).unwrap();
        assert!(!s.sync_mode());
        assert_eq!(s.bits_per_frame(), 10);
    }

    #[test]
    fn sync_mode_validates_the_clock_ratio() {
        let mut s = Sci::new(RX, TX, BUS);
        assert!(s.configure_sync(0).is_err());
        assert!(s.configure_sync(40_000_000).is_err(), "needs >=2x bus ratio");
        assert!(s.configure_sync(10_000_000).is_ok());
    }

    #[test]
    fn slower_baud_means_longer_byte_time() {
        let mut fast = sci();
        let mut slow = Sci::new(RX, TX, BUS);
        slow.configure(9600, 1, false).unwrap();
        assert!(slow.byte_time_cycles() > 10 * fast.byte_time_cycles());
        // keep `fast` mutable-used
        fast.send(0, 0);
    }

    #[test]
    fn only_a_side_with_its_interrupt_on_reports_events() {
        let mut s = sci();
        let bt = s.byte_time_cycles();
        s.send(0x11, 0);
        s.inject_rx(0x22, 5 * bt);
        assert_eq!(s.next_event(), None, "both interrupts off");
        s.set_irqs(true, false);
        assert_eq!(s.next_event(), Some(5 * bt), "receive side only");
        s.set_irqs(false, true);
        assert_eq!(s.next_event(), Some(bt), "transmit side only");
        s.set_irqs(true, true);
        assert_eq!(s.next_event(), Some(bt), "the earlier of the two");
    }
}
