//! Reliable ARQ transport for the PIL link.
//!
//! The packet layer ([`crate::packet`]) *detects* line faults (CRC-16,
//! resync); this module makes the link *recover* from them. Each control
//! period is one stop-and-wait ARQ exchange keyed by the frame sequence
//! number:
//!
//! * the host (re)transmits the sensor frame until a matching actuation
//!   reply arrives, with a per-attempt reply deadline and exponential
//!   backoff between retransmissions, bounded by a retry budget;
//! * the board replica suppresses duplicate requests (a retransmission
//!   after a lost *reply*) by re-sending the cached reply without
//!   re-stepping the controller — the controller executes **exactly
//!   once** per control period however often the frames repeat;
//! * a watchdog counts consecutive exchanges that exhausted their retry
//!   budget and declares the session **degraded** once the threshold is
//!   reached, at which point [`crate::cosim::PilSession`] falls back to
//!   host-side MIL execution of the quantized controller replica so the
//!   experiment completes with a flagged-degraded result instead of an
//!   error.
//!
//! The pieces here are deliberately small, pure state machines
//! ([`ArqTiming`], [`LinkSupervisor`], [`ReplicaGate`]) so the protocol
//! can be property-tested exhaustively against arbitrary fault
//! interleavings via [`sim`] without dragging the cycle-accurate MCU
//! model along; the co-simulation in [`crate::cosim`] drives exactly the
//! same components on the real (simulated) wire.

/// Retry / timeout / backoff / watchdog policy for the reliable
/// transport. Timing knobs are expressed as multiples of the *nominal
/// exchange time* (request wire time + priced controller step + reply
/// wire time) so one config works across baud rates and links; the
/// session derives absolute cycle counts via [`ArqTiming::derive`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArqConfig {
    /// Retransmissions allowed per exchange (attempts = `max_retries` + 1).
    pub max_retries: u32,
    /// Per-attempt reply deadline as a multiple of the nominal exchange
    /// time. On the bus ([`crate::multi`]) it must exceed 1.0: the ACK
    /// lands at the nominal time, so 1.0 would time out every clean
    /// exchange, and [`crate::multi::MultiPilSession::new`] rejects it.
    /// [`crate::cosim::PilSession`] accepts a delivered reply before it
    /// checks the deadline, so 1.0 is safe there.
    pub timeout_factor: f64,
    /// First backoff delay as a multiple of the nominal exchange time;
    /// retry `r` backs off `base · 2^(r−1)`, capped.
    pub backoff_base_factor: f64,
    /// Backoff cap as a multiple of the nominal exchange time.
    pub backoff_max_factor: f64,
    /// Consecutive exchanges that must exhaust their retry budget before
    /// the watchdog declares the session degraded.
    pub watchdog_failures: u32,
}

impl ArqConfig {
    const DEFAULT: ArqConfig = ArqConfig {
        max_retries: 3,
        timeout_factor: 2.0,
        backoff_base_factor: 0.5,
        backoff_max_factor: 4.0,
        watchdog_failures: 3,
    };

    /// Fire-and-forget, the zero-budget policy: one attempt per period,
    /// no retransmission, and a watchdog that never fires, so a lost
    /// frame holds the last output for that period. The reply deadline
    /// is one nominal exchange, so a faulted step lasts as long as a
    /// clean one. The default of [`crate::cosim::PilConfig::arq`], and
    /// valid only there: its deadline is too short for the bus.
    pub const FIRE_AND_FORGET: ArqConfig = ArqConfig {
        max_retries: 0,
        timeout_factor: 1.0,
        watchdog_failures: u32::MAX,
        ..ArqConfig::DEFAULT
    };
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig::DEFAULT
    }
}

/// Absolute per-session ARQ timing, derived from an [`ArqConfig`] and
/// the measured nominal exchange time in bus cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArqTiming {
    /// Reply deadline per attempt, in cycles from the attempt's start.
    pub timeout_cycles: u64,
    /// First backoff delay in cycles.
    pub backoff_base: u64,
    /// Backoff cap in cycles.
    pub backoff_cap: u64,
}

impl ArqTiming {
    /// Derive absolute timing from `cfg` for a link whose clean exchange
    /// takes `nominal_exchange_cycles`.
    pub fn derive(cfg: &ArqConfig, nominal_exchange_cycles: u64) -> Self {
        let n = nominal_exchange_cycles.max(1) as f64;
        let scale = |f: f64| ((f * n).ceil() as u64).max(1);
        ArqTiming {
            timeout_cycles: scale(cfg.timeout_factor),
            backoff_base: scale(cfg.backoff_base_factor),
            backoff_cap: scale(cfg.backoff_max_factor),
        }
    }

    /// Backoff before retry `r` (1-based): `base · 2^(r−1)`, capped.
    pub fn backoff_cycles(&self, retry: u32) -> u64 {
        let shift = retry.saturating_sub(1).min(62);
        self.backoff_base
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap)
    }

    /// Upper bound on the extra cycles a *recovered* exchange with
    /// `faulted_attempts` failed attempts spends beyond a clean one:
    /// every failed attempt burns its full reply deadline and every
    /// retransmission its backoff. This is the E14 recovery bound.
    pub fn recovery_bound_cycles(&self, faulted_attempts: u32) -> u64 {
        (1..=faulted_attempts)
            .map(|r| self.timeout_cycles + self.backoff_cycles(r))
            .sum()
    }
}

/// Link health as judged by the watchdog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkHealth {
    /// Exchanges are completing within the retry budget.
    Healthy,
    /// The watchdog threshold was crossed; the session has fallen back
    /// to host-side MIL execution.
    Degraded,
}

/// The watchdog: counts consecutive exchanges that exhausted their retry
/// budget; degradation is sticky (a degraded session never resumes the
/// wire — the fallback replica owns the controller state from then on).
#[derive(Clone, Debug)]
pub struct LinkSupervisor {
    threshold: u32,
    consecutive: u32,
    degraded: bool,
}

impl LinkSupervisor {
    /// Supervisor that degrades after `threshold` consecutive failed
    /// exchanges (clamped to at least 1).
    pub fn new(threshold: u32) -> Self {
        LinkSupervisor { threshold: threshold.max(1), consecutive: 0, degraded: false }
    }

    /// A completed exchange: resets the consecutive-failure count.
    pub fn record_success(&mut self) {
        if !self.degraded {
            self.consecutive = 0;
        }
    }

    /// An exchange that exhausted its retry budget; returns the health
    /// after accounting for it.
    pub fn record_failure(&mut self) -> LinkHealth {
        if !self.degraded {
            self.consecutive += 1;
            if self.consecutive >= self.threshold {
                self.degraded = true;
            }
        }
        self.health()
    }

    /// Current link health.
    pub fn health(&self) -> LinkHealth {
        if self.degraded {
            LinkHealth::Degraded
        } else {
            LinkHealth::Healthy
        }
    }

    /// True once the watchdog has fired (sticky).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Consecutive failed exchanges so far.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive
    }
}

/// How the board replica classifies an arriving request frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// A new exchange: step the controller, cache and send the reply.
    Fresh,
    /// Retransmission of the exchange just completed (its reply was
    /// lost): re-send the cached reply, do **not** re-step.
    Duplicate,
    /// An out-of-order leftover from an older exchange: ignore it.
    Stale,
}

/// Board-side duplicate/stale suppression over the wrapping `u8` frame
/// sequence number, using serial-number arithmetic (RFC 1982 style): a
/// frame is *newer* when `(seq − last) as i8 > 0`, a *duplicate* when it
/// equals the last completed exchange, and *stale* otherwise. Forward
/// jumps are fresh, so an exchange the board never saw (all its frames
/// lost) does not wedge the gate.
#[derive(Clone, Debug, Default)]
pub struct ReplicaGate {
    last: Option<u8>,
}

impl ReplicaGate {
    /// A gate that has completed no exchange yet (everything is fresh).
    pub fn new() -> Self {
        ReplicaGate { last: None }
    }

    /// Classify an arriving request frame's sequence number.
    pub fn classify(&self, seq: u8) -> Admission {
        match self.last {
            None => Admission::Fresh,
            Some(last) => {
                let diff = seq.wrapping_sub(last) as i8;
                if diff == 0 {
                    Admission::Duplicate
                } else if diff > 0 {
                    Admission::Fresh
                } else {
                    Admission::Stale
                }
            }
        }
    }

    /// Record a completed (controller-stepped) exchange.
    pub fn commit(&mut self, seq: u8) {
        self.last = Some(seq);
    }

    /// Sequence number of the last completed exchange, if any.
    pub fn last_completed(&self) -> Option<u8> {
        self.last
    }
}

pub mod sim {
    //! Pure protocol simulation of one host + one board replica joined
    //! by a faulty channel — the ARQ state machine without the
    //! cycle-accurate MCU underneath, so property tests can sweep
    //! arbitrary interleavings of corrupt / drop / duplicate / reorder
    //! faults cheaply.
    //!
    //! The model controller is a shared integrator `state += input(step)`
    //! (`input(k) = k + 1`), executed exactly once per control period on
    //! whichever side owns the step — the board while the link is
    //! healthy, the host fallback once degraded — mirroring the shared
    //! controller closure of [`crate::cosim::PilSession`].

    use super::{Admission, ArqConfig, LinkHealth, LinkSupervisor, ReplicaGate};

    /// One scheduled channel fault, applied to a single (step, attempt)
    /// exchange round.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Fault {
        /// Clean round: request and reply both delivered.
        None,
        /// The request frame arrives bit-flipped; CRC drops it.
        CorruptRequest,
        /// The request frame is lost on the wire.
        DropRequest,
        /// The request frame arrives twice back to back.
        DuplicateRequest,
        /// A stale copy of the *previous* exchange's request arrives
        /// before the current request.
        StaleRequest,
        /// The reply frame arrives bit-flipped; CRC drops it.
        CorruptReply,
        /// The reply frame is lost on the wire.
        DropReply,
        /// The reply frame arrives twice back to back.
        DuplicateReply,
        /// A stale copy of the previous reply arrives before the
        /// current reply.
        StaleReply,
    }

    impl Fault {
        /// True when the fault defeats the attempt (the host will time
        /// out); duplicate/stale deliveries are benign noise.
        pub fn is_failure(self) -> bool {
            matches!(
                self,
                Fault::CorruptRequest | Fault::DropRequest | Fault::CorruptReply | Fault::DropReply
            )
        }
    }

    /// What a protocol run did — every counter a property test needs.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct Outcome {
        /// Control periods the session resolved (must equal the request;
        /// anything less means the protocol wedged).
        pub steps_completed: u64,
        /// Controller executions performed on the board.
        pub board_steps: u64,
        /// Controller executions performed by the host fallback.
        pub fallback_steps: u64,
        /// Steps on which the controller ran more than once — the
        /// exactly-once invariant demands this stays 0.
        pub double_execs: u64,
        /// Retransmissions sent by the host.
        pub retries: u64,
        /// Reply deadlines that expired.
        pub timeouts: u64,
        /// Exchanges that exhausted the retry budget.
        pub failed_exchanges: u64,
        /// Duplicate requests the board answered from its reply cache.
        pub duplicates_suppressed: u64,
        /// Stale frames ignored on either side.
        pub stale_ignored: u64,
        /// First step executed by the host fallback, if the watchdog
        /// fired.
        pub degraded_at: Option<u64>,
        /// Actuation the host applied each step (the held previous value
        /// on a failed exchange).
        pub outputs: Vec<i64>,
    }

    /// Input fed to the model controller at `step`.
    pub fn input(step: u64) -> i64 {
        step as i64 + 1
    }

    /// Run `steps` lockstep exchanges under `cfg`, with `fault_at(step,
    /// attempt)` scripting the channel. Never panics and always returns
    /// (every exchange resolves within `max_retries + 1` attempts).
    pub fn run(steps: u64, cfg: &ArqConfig, mut fault_at: impl FnMut(u64, u32) -> Fault) -> Outcome {
        let mut o = Outcome::default();
        let mut gate = ReplicaGate::new();
        let mut dog = LinkSupervisor::new(cfg.watchdog_failures);
        // the one controller state both sides share (see module docs)
        let mut ctl_state: i64 = 0;
        let mut exec_count = vec![0u32; steps as usize];
        // the board's cached (seq, output) of its last completed exchange
        let mut cached_reply: Option<(u8, i64)> = None;
        let mut applied: i64 = 0;
        let exec = |state: &mut i64, step: u64, counts: &mut [u32], double: &mut u64| {
            *state = state.wrapping_add(input(step));
            counts[step as usize] += 1;
            if counts[step as usize] > 1 {
                *double += 1;
            }
            *state
        };

        for step in 0..steps {
            let seq = (step % 256) as u8;
            if dog.is_degraded() {
                // host-side MIL fallback: no wire traffic at all
                applied = exec(&mut ctl_state, step, &mut exec_count, &mut o.double_execs);
                o.fallback_steps += 1;
                o.outputs.push(applied);
                o.steps_completed += 1;
                continue;
            }

            let mut attempt: u32 = 0;
            let mut success = false;
            loop {
                let fault = fault_at(step, attempt);
                if attempt > 0 {
                    o.retries += 1;
                }

                // --- request leg ---
                if fault == Fault::StaleRequest && step > 0 {
                    // an old request resurfaces ahead of the real one
                    let stale_seq = seq.wrapping_sub(1);
                    match gate.classify(stale_seq) {
                        Admission::Duplicate => o.duplicates_suppressed += 1,
                        _ => o.stale_ignored += 1,
                    }
                }
                let request_delivered =
                    !matches!(fault, Fault::CorruptRequest | Fault::DropRequest);
                let mut reply_ready = false;
                if request_delivered {
                    let copies = if fault == Fault::DuplicateRequest { 2 } else { 1 };
                    for _ in 0..copies {
                        match gate.classify(seq) {
                            Admission::Fresh => {
                                let out =
                                    exec(&mut ctl_state, step, &mut exec_count, &mut o.double_execs);
                                o.board_steps += 1;
                                gate.commit(seq);
                                cached_reply = Some((seq, out));
                            }
                            Admission::Duplicate => o.duplicates_suppressed += 1,
                            Admission::Stale => o.stale_ignored += 1,
                        }
                    }
                    reply_ready = matches!(cached_reply, Some((s, _)) if s == seq);
                }

                // --- reply leg ---
                if fault == Fault::StaleReply {
                    // an old reply resurfaces; its seq mismatches and the
                    // host ignores it
                    o.stale_ignored += 1;
                }
                let reply_delivered =
                    reply_ready && !matches!(fault, Fault::CorruptReply | Fault::DropReply);
                if reply_delivered {
                    if fault == Fault::DuplicateReply {
                        // the second copy reaches a host that already
                        // accepted this exchange
                        o.stale_ignored += 1;
                    }
                    let (_, out) = cached_reply.expect("reply_ready implies a cached reply");
                    applied = out;
                    success = true;
                    break;
                }

                o.timeouts += 1;
                if attempt >= cfg.max_retries {
                    break;
                }
                attempt += 1;
            }

            if success {
                dog.record_success();
            } else {
                o.failed_exchanges += 1;
                if dog.record_failure() == LinkHealth::Degraded && o.degraded_at.is_none() {
                    // the fallback owns the *next* step; this one holds
                    o.degraded_at = Some(step + 1);
                }
            }
            o.outputs.push(applied);
            o.steps_completed += 1;
        }
        o
    }

    /// The fault-free reference run (same `cfg`): what a recovered
    /// session must be bit-identical to.
    pub fn clean_outputs(steps: u64, cfg: &ArqConfig) -> Vec<i64> {
        run(steps, cfg, |_, _| Fault::None).outputs
    }
}

#[cfg(test)]
mod tests {
    use super::sim::Fault;
    use super::*;

    #[test]
    fn timing_derivation_scales_and_caps() {
        let cfg = ArqConfig::default();
        let t = ArqTiming::derive(&cfg, 1000);
        assert_eq!(t.timeout_cycles, 2000);
        assert_eq!(t.backoff_base, 500);
        assert_eq!(t.backoff_cap, 4000);
        // exponential doubling, then the cap
        assert_eq!(t.backoff_cycles(1), 500);
        assert_eq!(t.backoff_cycles(2), 1000);
        assert_eq!(t.backoff_cycles(3), 2000);
        assert_eq!(t.backoff_cycles(4), 4000);
        assert_eq!(t.backoff_cycles(10), 4000);
    }

    #[test]
    fn recovery_bound_is_monotonic_in_fault_count() {
        let t = ArqTiming::derive(&ArqConfig::default(), 1000);
        let mut prev = 0;
        for m in 1..=6 {
            let b = t.recovery_bound_cycles(m);
            assert!(b > prev, "bound must grow with the fault count");
            prev = b;
        }
        assert_eq!(t.recovery_bound_cycles(1), 2000 + 500);
    }

    #[test]
    fn supervisor_degrades_only_on_consecutive_failures() {
        let mut dog = LinkSupervisor::new(3);
        dog.record_failure();
        dog.record_failure();
        dog.record_success(); // streak broken
        dog.record_failure();
        dog.record_failure();
        assert_eq!(dog.health(), LinkHealth::Healthy);
        assert_eq!(dog.record_failure(), LinkHealth::Degraded);
        assert!(dog.is_degraded());
        // sticky: a late success does not resurrect the link
        dog.record_success();
        assert!(dog.is_degraded());
    }

    #[test]
    fn gate_serial_arithmetic_handles_wrap_and_gaps() {
        let mut g = ReplicaGate::new();
        assert_eq!(g.classify(0), Admission::Fresh);
        g.commit(0);
        assert_eq!(g.classify(0), Admission::Duplicate);
        assert_eq!(g.classify(1), Admission::Fresh);
        // a skipped exchange (all frames lost) must not wedge: forward
        // jumps are fresh
        assert_eq!(g.classify(2), Admission::Fresh);
        g.commit(255);
        assert_eq!(g.classify(0), Admission::Fresh, "wraps past 255");
        assert_eq!(g.classify(255), Admission::Duplicate);
        assert_eq!(g.classify(254), Admission::Stale);
    }

    #[test]
    fn clean_protocol_run_is_all_board_steps() {
        let cfg = ArqConfig::default();
        let o = sim::run(10, &cfg, |_, _| Fault::None);
        assert_eq!(o.steps_completed, 10);
        assert_eq!(o.board_steps, 10);
        assert_eq!((o.retries, o.timeouts, o.failed_exchanges, o.fallback_steps), (0, 0, 0, 0));
        assert_eq!(o.double_execs, 0);
        // integrator of 1..=k
        assert_eq!(o.outputs[9], (1..=10).sum::<i64>());
    }

    #[test]
    fn lost_reply_recovers_via_duplicate_suppression() {
        let cfg = ArqConfig::default();
        let o = sim::run(5, &cfg, |step, attempt| {
            if step == 2 && attempt == 0 {
                Fault::DropReply
            } else {
                Fault::None
            }
        });
        assert_eq!(o.steps_completed, 5);
        assert_eq!(o.retries, 1);
        assert_eq!(o.timeouts, 1);
        assert_eq!(o.duplicates_suppressed, 1, "board answered the retry from cache");
        assert_eq!(o.double_execs, 0, "the controller never ran twice");
        assert_eq!(o.outputs, sim::clean_outputs(5, &cfg), "recovered to lockstep");
    }

    #[test]
    fn budget_exhaustion_degrades_after_the_watchdog_threshold() {
        let cfg = ArqConfig { max_retries: 2, watchdog_failures: 2, ..Default::default() };
        // steps 3 and 4 fail every attempt; watchdog fires after step 4
        let o = sim::run(10, &cfg, |step, _| {
            if step == 3 || step == 4 {
                Fault::DropRequest
            } else {
                Fault::None
            }
        });
        assert_eq!(o.steps_completed, 10);
        assert_eq!(o.failed_exchanges, 2);
        assert_eq!(o.degraded_at, Some(5));
        assert_eq!(o.fallback_steps, 5);
        assert_eq!(o.board_steps, 3);
        assert_eq!(o.double_execs, 0);
        // timeouts = retries + failed exchanges (each failed exchange has
        // one more expired deadline than retransmissions)
        assert_eq!(o.timeouts, o.retries + o.failed_exchanges);
    }
}
