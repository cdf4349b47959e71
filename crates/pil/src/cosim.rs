//! Lockstep PIL co-simulation of the development board and the host plant
//! simulator (Fig 6.2).
//!
//! Per control period: the host composes a packet of plant outputs and
//! ships it down the RS-232 line (baud-accurate byte times through the
//! board's SCI model); the board's communication ISR receives it byte by
//! byte, the controller step executes (priced by its [`TaskImage`] cycle
//! cost), the actuation packet is serialized back, and the host advances
//! the plant model by one control period. The measured quantities are the
//! §6 list: per-step communication and execution times, response/jitter,
//! stack, plus deadline misses whenever a step overruns the control
//! period — the data answering "whether the computation power of the
//! processor is sufficient".

use crate::arq::{Admission, ArqConfig, ArqTiming, LinkHealth, LinkSupervisor, ReplicaGate};
use crate::packet::{
    from_sample, quantize_roundtrip, to_sample, Packet, PacketParser, OVERHEAD_BYTES,
};
use peert_codegen::TaskImage;
use peert_mcu::board::vectors;
use peert_mcu::board::Mcu;
use peert_mcu::peripherals::sci::FIFO_DEPTH;
use peert_mcu::{Cycles, McuSpec};
use peert_rtexec::{Executive, TaskProfile};
use peert_trace::EventId;

/// The controller side: sensor samples in, actuation samples out
/// (functionally the generated step function).
pub type ControllerFn = Box<dyn FnMut(&[f64]) -> Vec<f64> + Send>;
/// The plant side: actuations + dt in, next sensor samples out
/// (the xPC-simulator stand-in).
pub type PlantFn = Box<dyn FnMut(&[f64], f64) -> Vec<f64> + Send>;

/// The physical link carrying the PIL exchange.
///
/// RS-232 is the paper's choice (§6, universally available but slow); SPI
/// is its §8 future work ("The disadvantages of the currently used xPC
/// target are that it is closed and does not allow us to implement a
/// support for new communications (e.g. SPI)") — the open simulator
/// target here supports both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkKind {
    /// Asynchronous serial (8N1 framing) at `baud`.
    Rs232 {
        /// Baud rate.
        baud: u32,
    },
    /// Synchronous serial (bare 8-bit frames) at `clock_hz`.
    Spi {
        /// Clock rate in Hz.
        clock_hz: u32,
    },
}

/// A deterministic schedule of injected PIL faults: every listed step
/// number triggers faults of that kind, so a verification harness can
/// assert the traced error counters *equal* the schedule (not merely
/// "some errors happened").
///
/// Kinds:
/// * `corrupt_steps` — one payload bit of the inbound sensor frame is
///   flipped; CRC-16 catches it, so each occurrence yields exactly one
///   CRC error.
/// * `drop_steps` — the inbound frame is lost entirely (line time still
///   elapses); no CRC error.
/// * `overrun_steps` — the controller step is stretched past the control
///   period (a scheduler overrun); exactly one deadline miss.
/// * `drop_reply_steps` — the outbound actuation frame is lost on the
///   wire. The board executed the step, so a retransmitted request is
///   answered from the reply cache without re-stepping the controller.
///
/// The *occurrence count* of a step in the corrupt, drop and drop-reply
/// lists is the number of consecutive attempts of that exchange the
/// faults defeat, corrupt first, then drop, then drop-reply — list step
/// 7 three times in `corrupt_steps` and the first three attempts at step
/// 7 arrive corrupted. An exchange whose every attempt is defeated is
/// lost: one failed and one dropped exchange, and the host holds its
/// last output. `overrun_steps` is boolean: a listed step overruns
/// once, duplicates are ignored.
///
/// Under [`ArqConfig::FIRE_AND_FORGET`] (the default) each exchange has
/// one attempt, and a faulted step loses its exchange. The host waits
/// one nominal exchange for the reply that never comes, so on that step:
/// * [`PilStats::step_cycles`] include the compute time the board never
///   ran;
/// * one timeout and one failed exchange are counted, so `timeouts ==
///   failed_exchanges == dropped_exchanges`;
/// * no `pil.tx` span is traced;
/// * only the first fault counts: a step in both `corrupt_steps` and
///   `drop_steps` counts one CRC error, because corruption comes first;
/// * `drop_reply_steps` applies too: the board runs the step, its reply
///   is lost, and the host holds its last output.
///
/// The schedule is replayed verbatim on every run, so two sessions with
/// the same configuration produce byte-identical trajectories.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// Steps whose inbound frame gets one payload bit flipped.
    pub corrupt_steps: Vec<u64>,
    /// Steps whose inbound frame is dropped on the wire.
    pub drop_steps: Vec<u64>,
    /// Steps whose controller step overruns the control period.
    pub overrun_steps: Vec<u64>,
    /// Steps whose outbound actuation frame is dropped on the wire.
    pub drop_reply_steps: Vec<u64>,
}

impl FaultSchedule {
    /// Occurrence count of `step` in `list` — the ARQ fault multiplicity.
    fn multiplicity(list: &[u64], step: u64) -> u32 {
        list.iter().filter(|&&s| s == step).count() as u32
    }
}

/// PIL run configuration.
#[derive(Clone, Debug)]
pub struct PilConfig {
    /// The communication link.
    pub link: LinkKind,
    /// Control period in seconds.
    pub control_period_s: f64,
    /// Number of plant→board channels.
    pub sensor_channels: usize,
    /// Number of board→host channels.
    pub actuation_channels: usize,
    /// Engineering full-scale per sensor channel (for i16 wire samples).
    pub sensor_scale: f64,
    /// Engineering full-scale per actuation channel.
    pub actuation_scale: f64,
    /// Cycles charged per received byte in the communication ISR.
    pub rx_isr_cycles: Cycles,
    /// Per-byte corruption probability on the wire (line-noise fault
    /// injection; 0.0 = clean line). Corrupted frames fail CRC and the
    /// attempt is lost, like a scheduled fault.
    pub corruption_prob: f64,
    /// Seed for the deterministic noise source.
    pub noise_seed: u64,
    /// Deterministic multi-kind fault schedule (corruption, frame drops,
    /// scheduler overruns) — see [`FaultSchedule`]. Defaults to empty.
    pub faults: FaultSchedule,
    /// Transport policy: every exchange runs the sequence-numbered ARQ
    /// protocol of [`crate::arq`] — bounded retransmission with
    /// exponential backoff, duplicate suppression on the board, and
    /// watchdog-triggered fallback to host-side MIL execution once the
    /// link is declared degraded. The default,
    /// [`ArqConfig::FIRE_AND_FORGET`], is the zero-budget policy: one
    /// attempt per period, and a lost frame holds the last output.
    pub arq: ArqConfig,
    /// Ring capacity of the board trace (0 = tracing off). When set, the
    /// session records per-packet RX/TX spans, controller-step spans, and
    /// CRC/drop/line-stall counters on the executive's tracer.
    pub trace_capacity: usize,
}

impl Default for PilConfig {
    fn default() -> Self {
        PilConfig {
            link: LinkKind::Rs232 { baud: 115_200 },
            control_period_s: 1e-3,
            sensor_channels: 1,
            actuation_channels: 1,
            sensor_scale: 1.0,
            actuation_scale: 1.0,
            rx_isr_cycles: 60,
            corruption_prob: 0.0,
            noise_seed: 0x5EED,
            faults: FaultSchedule::default(),
            arq: ArqConfig::FIRE_AND_FORGET,
            trace_capacity: 0,
        }
    }
}

/// Deterministic xorshift noise source for line-fault injection.
struct Noise {
    state: u64,
    prob: f64,
}

impl Noise {
    fn new(seed: u64, prob: f64) -> Self {
        Noise { state: seed.max(1), prob }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Maybe flip one bit of `byte`.
    fn corrupt(&mut self, byte: u8) -> u8 {
        if self.prob > 0.0 && (self.next_u64() as f64 / u64::MAX as f64) < self.prob {
            byte ^ (1 << (self.next_u64() % 8))
        } else {
            byte
        }
    }
}

/// Per-run statistics.
#[derive(Clone, Debug, Default)]
pub struct PilStats {
    /// Completed exchange steps.
    pub steps: u64,
    /// Inbound (host→board) communication cycles per step.
    pub comm_in_cycles: Vec<Cycles>,
    /// Controller compute cycles per step (entry + body + exit).
    pub compute_cycles: Vec<Cycles>,
    /// Outbound communication cycles per step.
    pub comm_out_cycles: Vec<Cycles>,
    /// Total step durations in cycles. A lost exchange lasts until its
    /// last reply deadline; under [`ArqConfig::FIRE_AND_FORGET`] that is
    /// one nominal exchange, compute time included although the board
    /// never ran the step.
    pub step_cycles: Vec<Cycles>,
    /// Steps whose duration exceeded the control period.
    pub deadline_misses: u64,
    /// CRC errors seen by the board parser.
    pub crc_errors: u64,
    /// Exchanges lost on the wire: every attempt was defeated and the
    /// host held its last output.
    pub dropped_exchanges: u64,
    /// Scheduler overruns injected by the fault schedule (each one is
    /// also counted as a deadline miss).
    pub injected_overruns: u64,
    /// ARQ retransmissions sent by the host (always 0 under
    /// [`ArqConfig::FIRE_AND_FORGET`], whose budget is zero).
    pub retries: u64,
    /// ARQ reply deadlines that expired. Invariant:
    /// `timeouts == retries + failed_exchanges`, so under
    /// [`ArqConfig::FIRE_AND_FORGET`] `timeouts == failed_exchanges ==
    /// dropped_exchanges`.
    pub timeouts: u64,
    /// ARQ exchanges that exhausted their retry budget (each is also
    /// counted in `dropped_exchanges`).
    pub failed_exchanges: u64,
    /// Duplicate requests the board replica answered from its reply
    /// cache without re-stepping the controller.
    pub duplicate_replies: u64,
    /// Steps executed by the host-side MIL fallback after the watchdog
    /// declared the link degraded.
    pub degraded_steps: u64,
    /// First step owned by the fallback, if the watchdog fired.
    pub degraded_at_step: Option<u64>,
    /// Host-side trajectory: (time s, first sensor channel).
    pub trajectory_t: Vec<f64>,
    /// Host-side trajectory values.
    pub trajectory_y: Vec<f64>,
}

impl PilStats {
    fn mean(v: &[Cycles]) -> f64 {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<Cycles>() as f64 / v.len() as f64
        }
    }

    /// Mean total step duration in cycles.
    pub fn mean_step_cycles(&self) -> f64 {
        Self::mean(&self.step_cycles)
    }

    /// Mean communication share of a step (both directions).
    pub fn comm_fraction(&self) -> f64 {
        let comm = Self::mean(&self.comm_in_cycles) + Self::mean(&self.comm_out_cycles);
        let total = self.mean_step_cycles();
        if total == 0.0 {
            0.0
        } else {
            comm / total
        }
    }

    /// Smallest control period (seconds) this setup could sustain.
    pub fn min_feasible_period_s(&self, bus_hz: f64) -> f64 {
        self.step_cycles.iter().copied().max().unwrap_or(0) as f64 / bus_hz
    }
}

/// Registered trace ids for the PIL link's instrumentation points.
#[derive(Clone, Copy)]
struct PilTraceIds {
    rx: EventId,
    tx: EventId,
    ctl: EventId,
    crc_ctr: EventId,
    crc_inst: EventId,
    dropped_ctr: EventId,
    overrun_ctr: EventId,
    line_ctr: EventId,
    retry: EventId,
    retries_ctr: EventId,
    timeouts_ctr: EventId,
    degraded_ctr: EventId,
    duplicate_ctr: EventId,
}

/// One PIL session.
pub struct PilSession {
    exec: Executive,
    cfg: PilConfig,
    controller: ControllerFn,
    plant: PlantFn,
    image_step_cycles: Cycles,
    seq: u8,
    parser: PacketParser,
    stats: PilStats,
    noise: Noise,
    last_actuation: Vec<f64>,
    /// Profile of the board's controller step (nominal period = control
    /// period), the source of the sampling-jitter quantiles.
    ctl_profile: TaskProfile,
    trace_ids: Option<PilTraceIds>,
    crc_seen: u64,
    /// ARQ watchdog (never fires under [`ArqConfig::FIRE_AND_FORGET`]).
    supervisor: LinkSupervisor,
    /// Board-side duplicate/stale suppression over the frame seq,
    /// resynced after every failed exchange.
    gate: ReplicaGate,
    /// The board's cached reply for the last committed exchange.
    cached_reply: Option<Packet>,
}

impl PilSession {
    /// Assemble a session: board MCU from `spec`, controller priced by
    /// `image`, plant on the host side. Errors when `spec` has no SCI or
    /// a frame in either direction is wider than the SCI FIFO.
    pub fn new(
        spec: &McuSpec,
        image: &TaskImage,
        cfg: PilConfig,
        controller: ControllerFn,
        plant: PlantFn,
    ) -> Result<Self, String> {
        if spec.sci_count == 0 {
            return Err(format!("{} has no SCI for the PIL link", spec.name));
        }
        // a frame is queued whole on one side and drained whole on the
        // other, so it must fit the FIFO
        let directions = [("sensor", cfg.sensor_channels), ("actuation", cfg.actuation_channels)];
        for (dir, channels) in directions {
            let bytes = OVERHEAD_BYTES + 2 * channels;
            if bytes > FIFO_DEPTH {
                return Err(format!(
                    "{dir} frame of {channels} channels is {bytes} bytes, wider than the \
                     {FIFO_DEPTH}-byte SCI FIFO"
                ));
            }
        }
        let mut mcu = Mcu::new(spec);
        match cfg.link {
            LinkKind::Rs232 { baud } => mcu.scis[0].configure(baud, 1, false)?,
            LinkKind::Spi { clock_hz } => mcu.scis[0].configure_sync(clock_hz)?,
        }
        mcu.scis[0].set_irqs(true, false);
        mcu.intc.configure(vectors::sci_rx(0), 6);
        let mut exec = Executive::new(mcu);
        // the communication ISR: charged per received byte
        exec.attach(vectors::sci_rx(0), "comm_rx", cfg.rx_isr_cycles, 16, None);
        let trace_ids = if cfg.trace_capacity > 0 {
            // one shared board tracer: the executive's task/irq events and
            // the PIL link's packet spans land on the same timeline
            exec.enable_trace(cfg.trace_capacity);
            let t = exec.tracer_mut();
            Some(PilTraceIds {
                rx: t.register("pil.rx"),
                tx: t.register("pil.tx"),
                ctl: t.register("pil.ctl_step"),
                crc_ctr: t.register("pil.crc_errors"),
                crc_inst: t.register("pil.crc_error"),
                dropped_ctr: t.register("pil.dropped_exchanges"),
                overrun_ctr: t.register("pil.overruns"),
                line_ctr: t.register("pil.line_cycles"),
                retry: t.register("pil.retry"),
                retries_ctr: t.register("pil.retries"),
                timeouts_ctr: t.register("pil.timeouts"),
                degraded_ctr: t.register("pil.degraded_steps"),
                duplicate_ctr: t.register("pil.duplicate_replies"),
            })
        } else {
            None
        };
        let mut ctl_profile = TaskProfile::default();
        ctl_profile
            .set_nominal_period(exec.mcu.clock.secs_to_cycles(cfg.control_period_s));
        exec.start();
        Ok(PilSession {
            noise: Noise::new(cfg.noise_seed, cfg.corruption_prob),
            last_actuation: vec![0.0; cfg.actuation_channels],
            supervisor: LinkSupervisor::new(cfg.arq.watchdog_failures),
            gate: ReplicaGate::new(),
            cached_reply: None,
            exec,
            cfg,
            controller,
            plant,
            image_step_cycles: image.step_cycles,
            seq: 0,
            parser: PacketParser::new(),
            stats: PilStats::default(),
            ctl_profile,
            trace_ids,
            crc_seen: 0,
        })
    }

    /// Cycles a clean exchange takes end to end: both frames' wire time
    /// plus the priced controller step — the base unit the ARQ timeout
    /// and backoff are derived from.
    fn nominal_exchange_cycles(&self) -> Cycles {
        let byte_cycles = self.exec.mcu.scis[0].byte_time_cycles();
        let req_bytes = (OVERHEAD_BYTES + 2 * self.cfg.sensor_channels) as Cycles;
        let rep_bytes = (OVERHEAD_BYTES + 2 * self.cfg.actuation_channels) as Cycles;
        let table = self.exec.mcu.spec.cost_table();
        (req_bytes + rep_bytes) * byte_cycles
            + table.isr_entry as Cycles
            + self.image_step_cycles
            + table.isr_exit as Cycles
    }

    /// The absolute ARQ timing this session runs with — lets tests and
    /// experiments compute the worst-case recovery bound for the
    /// configured link.
    pub fn arq_timing(&self) -> ArqTiming {
        ArqTiming::derive(&self.cfg.arq, self.nominal_exchange_cycles())
    }

    /// True once the watchdog has declared the link degraded (sticky;
    /// the session is executing its host-side MIL fallback).
    pub fn is_degraded(&self) -> bool {
        self.supervisor.is_degraded()
    }

    /// Run `steps` control periods; returns the stats.
    ///
    /// Each period is one ARQ exchange under [`PilConfig::arq`]:
    /// sequence-numbered, with bounded retransmission, duplicate
    /// suppression, and watchdog-triggered fallback to host-side MIL
    /// execution of the quantized replica. A degraded link completes the
    /// run on the fallback (flagged via [`PilStats::degraded_steps`])
    /// instead of erroring.
    pub fn run(&mut self, steps: u64) -> Result<&PilStats, String> {
        let max_retries = self.cfg.arq.max_retries;
        let timing = self.arq_timing();
        let byte_cycles = self.exec.mcu.scis[0].byte_time_cycles();
        let period_cycles = self.exec.mcu.clock.secs_to_cycles(self.cfg.control_period_s);

        let mut sensors = (self.plant)(&vec![0.0; self.cfg.actuation_channels], 0.0);
        if sensors.len() != self.cfg.sensor_channels {
            return Err(format!(
                "plant produced {} channels, config says {}",
                sensors.len(),
                self.cfg.sensor_channels
            ));
        }

        let ids = self.trace_ids;
        for step in 0..steps {
            let t0 = self.exec.mcu.now();

            if self.supervisor.is_degraded() {
                // --- host-side MIL fallback: the quantized replica of the
                // board path (i16 round-trip on sensors and actuations), no
                // wire traffic, controller stepped exactly once ---
                let actuation =
                    (self.controller)(&quantize_roundtrip(&sensors, self.cfg.sensor_scale));
                if actuation.len() != self.cfg.actuation_channels {
                    return Err(format!(
                        "controller produced {} channels, config says {}",
                        actuation.len(),
                        self.cfg.actuation_channels
                    ));
                }
                let applied = quantize_roundtrip(&actuation, self.cfg.actuation_scale);
                self.last_actuation.clone_from(&applied);
                self.stats.degraded_steps += 1;
                if let Some(ids) = ids {
                    self.exec.tracer_mut().add(ids.degraded_ctr, 1);
                }
                sensors = (self.plant)(&applied, self.cfg.control_period_s);
                self.exec.run_until(t0 + period_cycles);
                self.stats.steps += 1;
                self.stats.comm_in_cycles.push(0);
                self.stats.compute_cycles.push(0);
                self.stats.comm_out_cycles.push(0);
                self.stats.step_cycles.push(period_cycles);
                let t_s = step as f64 * self.cfg.control_period_s;
                self.stats.trajectory_t.push(t_s);
                self.stats.trajectory_y.push(sensors.first().copied().unwrap_or(0.0));
                self.seq = self.seq.wrapping_add(1);
                continue;
            }

            // per-attempt fault plan: the occurrence count of this step in
            // each list is how many consecutive attempts that fault defeats
            let n_corrupt = FaultSchedule::multiplicity(&self.cfg.faults.corrupt_steps, step);
            let n_drop_req = FaultSchedule::multiplicity(&self.cfg.faults.drop_steps, step);
            let n_drop_rep = FaultSchedule::multiplicity(&self.cfg.faults.drop_reply_steps, step);
            #[derive(Clone, Copy, PartialEq)]
            enum WireFault {
                Clean,
                Corrupt,
                DropRequest,
                DropReply,
            }
            let fault_of = |attempt: u32| {
                if attempt < n_corrupt {
                    WireFault::Corrupt
                } else if attempt < n_corrupt + n_drop_req {
                    WireFault::DropRequest
                } else if attempt < n_corrupt + n_drop_req + n_drop_rep {
                    WireFault::DropReply
                } else {
                    WireFault::Clean
                }
            };

            let samples: Vec<i16> =
                sensors.iter().map(|&v| to_sample(v, self.cfg.sensor_scale)).collect();
            let pkt = Packet::new(self.seq, samples)?;
            let bytes = pkt.encode();

            let mut delivered: Option<Vec<f64>> = None;
            let mut comm_in_total: Cycles = 0;
            let mut comm_out_total: Cycles = 0;
            let mut compute_this_step: Cycles = 0;
            let mut attempt: u32 = 0;
            loop {
                let attempt_t0 = self.exec.mcu.now();
                if attempt > 0 {
                    self.stats.retries += 1;
                    if let Some(ids) = ids {
                        let tracer = self.exec.tracer_mut();
                        tracer.add(ids.retries_ctr, 1);
                        tracer.begin(ids.retry, attempt_t0);
                    }
                    // exponential backoff before the retransmission
                    self.exec.run_until(attempt_t0 + timing.backoff_cycles(attempt));
                }
                let fault = fault_of(attempt);

                // --- request leg (host → board) ---
                let send_t0 = self.exec.mcu.now();
                if let Some(ids) = ids {
                    self.exec.tracer_mut().begin(ids.rx, send_t0);
                }
                if fault != WireFault::DropRequest {
                    for (j, &b) in bytes.iter().enumerate() {
                        let arrives = send_t0 + (j as Cycles + 1) * byte_cycles;
                        let mut wire_byte = self.noise.corrupt(b);
                        if j == 3 && fault == WireFault::Corrupt {
                            // flip one bit of the first payload byte
                            wire_byte ^= 0x01;
                        }
                        self.exec.mcu.scis[0].inject_rx(wire_byte, arrives);
                    }
                }
                let rx_done = send_t0 + bytes.len() as Cycles * byte_cycles;
                self.exec.run_until(rx_done + 1);
                let rx_end = self.exec.mcu.now();
                comm_in_total += rx_end - send_t0;
                if let Some(ids) = ids {
                    self.exec.tracer_mut().end(ids.rx, rx_end);
                }

                // drain the SCI FIFO through the parser
                let mut request = None;
                while let Some(b) = self.exec.mcu.scis[0].recv() {
                    if let Some(p) = self.parser.push(b) {
                        request = Some(p);
                    }
                }
                let crc_now = self.parser.crc_errors();
                if let Some(ids) = ids {
                    let delta = crc_now - self.crc_seen;
                    if delta > 0 {
                        let now = self.exec.mcu.now();
                        let tracer = self.exec.tracer_mut();
                        tracer.add(ids.crc_ctr, delta);
                        tracer.instant(ids.crc_inst, now);
                    }
                }
                self.crc_seen = crc_now;

                // --- board replica: admit, step or answer from cache ---
                let mut respond = false;
                if let Some(request) = request {
                    match self.gate.classify(request.seq) {
                        Admission::Fresh => {
                            let table = self.exec.mcu.spec.cost_table();
                            let compute = table.isr_entry as Cycles
                                + self.image_step_cycles
                                + table.isr_exit as Cycles;
                            let ctl_start = self.exec.mcu.now();
                            self.exec.mcu.advance(compute);
                            let ctl_end = self.exec.mcu.now();
                            if let Some(ids) = ids {
                                let tracer = self.exec.tracer_mut();
                                tracer.begin(ids.ctl, ctl_start);
                                tracer.end(ids.ctl, ctl_end);
                            }
                            // release = period start: response covers the
                            // wire time, start deltas feed the
                            // sampling-jitter histogram
                            self.ctl_profile.record(t0, ctl_start, ctl_end);
                            compute_this_step = compute;
                            let sensor_vals: Vec<f64> = request
                                .samples
                                .iter()
                                .map(|&s| from_sample(s, self.cfg.sensor_scale))
                                .collect();
                            let actuation = (self.controller)(&sensor_vals);
                            if actuation.len() != self.cfg.actuation_channels {
                                return Err(format!(
                                    "controller produced {} channels, config says {}",
                                    actuation.len(),
                                    self.cfg.actuation_channels
                                ));
                            }
                            let reply_samples: Vec<i16> = actuation
                                .iter()
                                .map(|&v| to_sample(v, self.cfg.actuation_scale))
                                .collect();
                            self.cached_reply = Some(Packet::new(request.seq, reply_samples)?);
                            self.gate.commit(request.seq);
                            respond = true;
                        }
                        Admission::Duplicate => {
                            // the reply was lost, not the request: answer
                            // from the cache, never re-step the controller
                            self.stats.duplicate_replies += 1;
                            if let Some(ids) = ids {
                                self.exec.tracer_mut().add(ids.duplicate_ctr, 1);
                            }
                            respond = true;
                        }
                        Admission::Stale => {}
                    }
                }

                // --- reply leg (board → host) ---
                if respond {
                    let reply =
                        self.cached_reply.clone().expect("a committed exchange caches its reply");
                    let tx_start = self.exec.mcu.now();
                    if let Some(ids) = ids {
                        self.exec.tracer_mut().begin(ids.tx, tx_start);
                    }
                    for &b in &reply.encode() {
                        let now = self.exec.mcu.now();
                        if !self.exec.mcu.scis[0].send(b, now) {
                            return Err(format!("step {step}: board TX FIFO overflow"));
                        }
                    }
                    while self.exec.mcu.scis[0].tx_backlog() > 0 {
                        let now = self.exec.mcu.now();
                        self.exec.run_until(now + byte_cycles);
                    }
                    let tx_end = self.exec.mcu.now();
                    comm_out_total += tx_end - tx_start;
                    if let Some(ids) = ids {
                        self.exec.tracer_mut().end(ids.tx, tx_end);
                    }
                    // the board pays the TX cycles either way; the fault
                    // decides whether the host ever sees the frame
                    if fault != WireFault::DropReply {
                        let applied: Vec<f64> = reply
                            .samples
                            .iter()
                            .map(|&s| from_sample(s, self.cfg.actuation_scale))
                            .collect();
                        delivered = Some(applied);
                    }
                }

                if delivered.is_some() {
                    if attempt > 0 {
                        if let Some(ids) = ids {
                            let now = self.exec.mcu.now();
                            self.exec.tracer_mut().end(ids.retry, now);
                        }
                    }
                    break;
                }

                // reply deadline expires relative to the (re)transmission
                let deadline = send_t0 + timing.timeout_cycles;
                if self.exec.mcu.now() < deadline {
                    self.exec.run_until(deadline);
                }
                self.stats.timeouts += 1;
                if let Some(ids) = ids {
                    self.exec.tracer_mut().add(ids.timeouts_ctr, 1);
                }
                if attempt > 0 {
                    if let Some(ids) = ids {
                        let now = self.exec.mcu.now();
                        self.exec.tracer_mut().end(ids.retry, now);
                    }
                }
                if attempt >= max_retries {
                    break; // budget exhausted: the exchange failed
                }
                attempt += 1;
            }

            // a scheduled scheduler overrun (boolean semantics): stretch
            // the step past the control period
            if self.cfg.faults.overrun_steps.contains(&step) {
                self.exec.mcu.advance(period_cycles);
                self.stats.injected_overruns += 1;
                if let Some(ids) = ids {
                    self.exec.tracer_mut().add(ids.overrun_ctr, 1);
                }
            }
            let step_end = self.exec.mcu.now();

            let applied = match delivered {
                Some(a) => {
                    self.supervisor.record_success();
                    self.last_actuation.clone_from(&a);
                    a
                }
                None => {
                    // budget exhausted: hold the last applied actuation
                    // (§6's redirected-peripheral semantics under line
                    // faults) and let the watchdog judge the link
                    self.stats.failed_exchanges += 1;
                    self.stats.dropped_exchanges += 1;
                    if let Some(ids) = ids {
                        self.exec.tracer_mut().add(ids.dropped_ctr, 1);
                    }
                    // resync the board's gate: no retransmission of this
                    // SEQ follows, and the 8-bit serial-number window
                    // cannot span an outage (128 lost exchanges would read
                    // as stale, 256 as a duplicate of a long-gone reply)
                    self.gate = ReplicaGate::new();
                    if self.supervisor.record_failure() == LinkHealth::Degraded
                        && self.stats.degraded_at_step.is_none()
                    {
                        // the fallback owns the *next* step: this one never
                        // ran the controller, so execution stays exactly-once
                        self.stats.degraded_at_step = Some(step + 1);
                    }
                    self.last_actuation.clone()
                }
            };
            sensors = (self.plant)(&applied, self.cfg.control_period_s);

            // bookkeeping
            let total = step_end - t0;
            if total > period_cycles {
                self.stats.deadline_misses += 1;
            } else {
                self.exec.run_until(t0 + period_cycles);
            }
            if let Some(ids) = ids {
                self.exec.tracer_mut().add(ids.line_ctr, comm_in_total + comm_out_total);
            }
            self.stats.steps += 1;
            self.stats.comm_in_cycles.push(comm_in_total);
            self.stats.compute_cycles.push(compute_this_step);
            self.stats.comm_out_cycles.push(comm_out_total);
            self.stats.step_cycles.push(total);
            let t_s = step as f64 * self.cfg.control_period_s;
            self.stats.trajectory_t.push(t_s);
            self.stats.trajectory_y.push(sensors.first().copied().unwrap_or(0.0));
            self.seq = self.seq.wrapping_add(1);
        }
        self.stats.crc_errors = self.parser.crc_errors();
        Ok(&self.stats)
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &PilStats {
        &self.stats
    }

    /// The board executive (for profiling inspection).
    pub fn executive(&self) -> &Executive {
        &self.exec
    }

    /// Profile of the board's controller step — nominal period is the
    /// control period, so [`TaskProfile::sampling_jitter_hist`] holds the
    /// per-step sampling-jitter distribution.
    pub fn ctl_profile(&self) -> &TaskProfile {
        &self.ctl_profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peert_codegen::{generate_controller, CodegenOptions, TaskImage, TlcRegistry};
    use peert_mcu::McuCatalog;
    use peert_model::block::SampleTime;
    use peert_model::graph::Diagram;
    use peert_model::library::math::Gain;
    use peert_model::subsystem::{Inport, Outport, Subsystem};

    fn spec() -> McuSpec {
        McuCatalog::standard().find("MC56F8367").unwrap().clone()
    }

    fn image() -> TaskImage {
        let mut d = Diagram::new();
        let i = d.add("u", Inport).unwrap();
        let g = d.add("g", Gain::new(0.5)).unwrap();
        let o = d.add("y", Outport).unwrap();
        d.connect((i, 0), (g, 0)).unwrap();
        d.connect((g, 0), (o, 0)).unwrap();
        let sub = Subsystem::new(d, vec![i], vec![o], SampleTime::every(1e-3)).unwrap();
        let code = generate_controller(
            &sub,
            "p_ctl",
            &CodegenOptions::default(),
            &TlcRegistry::standard(),
        )
        .unwrap();
        TaskImage::build(&code, &spec())
    }

    /// first-order plant y' = u - y, sensors = [y]
    fn plant() -> PlantFn {
        let mut y = 0.0f64;
        Box::new(move |u: &[f64], dt: f64| {
            y += dt * (u[0] - y) * 50.0;
            vec![y]
        })
    }

    fn session(cfg: PilConfig) -> PilSession {
        // P controller toward setpoint 0.5
        let controller: ControllerFn = Box::new(|s: &[f64]| vec![(0.5 - s[0]).clamp(0.0, 0.9)]);
        PilSession::new(&spec(), &image(), cfg, controller, plant()).unwrap()
    }

    #[test]
    fn lockstep_exchanges_complete() {
        let mut s = session(PilConfig::default());
        let stats = s.run(50).unwrap();
        assert_eq!(stats.steps, 50);
        assert_eq!(stats.crc_errors, 0);
        assert_eq!(stats.trajectory_y.len(), 50);
        // the closed loop's P-only fixed point is y = 0.25
        assert!((stats.trajectory_y.last().unwrap() - 0.25).abs() < 0.05);
    }

    #[test]
    fn comm_dominates_at_low_baud() {
        let mut slow = session(PilConfig { link: LinkKind::Rs232 { baud: 9600 }, control_period_s: 0.02, ..Default::default() });
        slow.run(20).unwrap();
        assert!(
            slow.stats().comm_fraction() > 0.9,
            "9600 baud is all wire time: {}",
            slow.stats().comm_fraction()
        );
    }

    #[test]
    fn step_time_scales_with_baud() {
        let mut fast = session(PilConfig { link: LinkKind::Rs232 { baud: 115_200 }, ..Default::default() });
        fast.run(20).unwrap();
        let mut slow = session(PilConfig { link: LinkKind::Rs232 { baud: 9600 }, control_period_s: 0.02, ..Default::default() });
        slow.run(20).unwrap();
        let r = slow.stats().mean_step_cycles() / fast.stats().mean_step_cycles();
        assert!(r > 8.0, "12× baud ratio shows in step time, got {r}");
    }

    #[test]
    fn too_short_period_misses_deadlines() {
        // at 9600 baud a packet pair takes ~15 ms; a 1 ms period must fail
        let mut s = session(PilConfig { link: LinkKind::Rs232 { baud: 9600 }, control_period_s: 1e-3, ..Default::default() });
        s.run(10).unwrap();
        assert_eq!(s.stats().deadline_misses, 10);
        let feasible = s.stats().min_feasible_period_s(60e6);
        assert!(feasible > 1e-3);
    }

    #[test]
    fn part_without_sci_is_rejected() {
        let mut bad = spec();
        bad.sci_count = 0;
        let controller: ControllerFn = Box::new(|_| vec![0.0]);
        assert!(PilSession::new(&bad, &image(), PilConfig::default(), controller, plant()).is_err());
    }

    #[test]
    fn channel_count_mismatches_are_errors() {
        let controller: ControllerFn = Box::new(|_| vec![0.0, 0.0]); // 2 channels, cfg says 1
        let mut s =
            PilSession::new(&spec(), &image(), PilConfig::default(), controller, plant()).unwrap();
        assert!(s.run(1).is_err());
    }

    #[test]
    fn spi_link_is_an_order_of_magnitude_faster() {
        // §8 future work: the open simulator target supports SPI
        let mut rs = session(PilConfig { link: LinkKind::Rs232 { baud: 115_200 }, ..Default::default() });
        rs.run(20).unwrap();
        let mut spi = session(PilConfig { link: LinkKind::Spi { clock_hz: 2_000_000 }, ..Default::default() });
        spi.run(20).unwrap();
        let ratio = rs.stats().mean_step_cycles() / spi.stats().mean_step_cycles();
        assert!(ratio > 8.0, "2 MHz SPI ≫ 115200 RS-232: ratio {ratio}");
        assert_eq!(spi.stats().crc_errors, 0);
    }

    #[test]
    fn line_noise_drops_exchanges_but_the_loop_survives() {
        let cfg = PilConfig {
            corruption_prob: 0.02, // 2 % of bytes flip a bit
            control_period_s: 2e-3,
            ..Default::default()
        };
        let mut s = session(cfg);
        let stats = s.run(200).unwrap();
        assert!(stats.dropped_exchanges > 0, "noise must bite at 2 %/byte");
        assert!(stats.crc_errors > 0, "drops are CRC-detected, never silent");
        assert_eq!(stats.steps, 200, "the session completes despite the noise");
        // the held-output policy keeps the loop near its fixed point
        let y = *stats.trajectory_y.last().unwrap();
        assert!((y - 0.25).abs() < 0.1, "loop still regulating: {y}");
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let cfg = PilConfig {
                corruption_prob: 0.05,
                noise_seed: seed,
                control_period_s: 2e-3,
                ..Default::default()
            };
            let mut s = session(cfg);
            s.run(100).unwrap().dropped_exchanges
        };
        assert_eq!(run(42), run(42), "same seed, same drops");
    }

    #[test]
    fn clean_line_drops_nothing() {
        let mut s = session(PilConfig { control_period_s: 2e-3, ..Default::default() });
        let stats = s.run(100).unwrap();
        assert_eq!(stats.dropped_exchanges, 0);
        assert_eq!(stats.crc_errors, 0);
    }

    #[test]
    fn traced_session_records_packet_spans_and_counters() {
        let cfg = PilConfig { trace_capacity: 1 << 12, ..Default::default() };
        let mut s = session(cfg);
        s.run(10).unwrap();
        let tracer = s.executive().tracer();
        let count = |name: &str, kind: peert_trace::EventKind| {
            tracer
                .records()
                .filter(|r| r.kind == kind && tracer.name(r.id) == name)
                .count()
        };
        use peert_trace::EventKind::{SpanBegin, SpanEnd};
        // one RX, TX and controller span per exchange step
        assert_eq!(count("pil.rx", SpanBegin), 10);
        assert_eq!(count("pil.rx", SpanEnd), 10);
        assert_eq!(count("pil.tx", SpanBegin), 10);
        assert_eq!(count("pil.tx", SpanEnd), 10);
        assert_eq!(count("pil.ctl_step", SpanBegin), 10);
        // the comm ISR task spans from the executive share the timeline
        assert!(count("task.comm_rx", SpanBegin) > 0);
        // line-stall cycles accumulated; a clean line has no CRC counter
        assert!(tracer.counter_by_name("pil.line_cycles").unwrap() > 0);
        assert_eq!(tracer.counter_by_name("pil.crc_errors"), None);
        // controller profile: one activation per step, sampling jitter
        // measured against the control period
        assert_eq!(s.ctl_profile().activations, 10);
        assert_eq!(s.ctl_profile().sampling_jitter_hist().unwrap().count(), 9);
    }

    #[test]
    fn parser_resyncs_after_injected_noise_and_trace_counts_the_corruption() {
        // satellite (c): corrupt exactly one payload bit in K chosen
        // frames; the parser must resync on every following frame and the
        // trace CRC counter must equal the injected corruption count
        let corrupt_steps = vec![3u64, 7, 15, 16, 29];
        let injected = corrupt_steps.len() as u64;
        let cfg = PilConfig {
            faults: FaultSchedule { corrupt_steps: corrupt_steps.clone(), ..Default::default() },
            control_period_s: 2e-3,
            trace_capacity: 1 << 12,
            ..Default::default()
        };
        let mut s = session(cfg);
        let stats = s.run(40).unwrap().clone();
        assert_eq!(stats.steps, 40, "the session survives the noise");
        assert_eq!(stats.crc_errors, injected);
        assert_eq!(stats.dropped_exchanges, injected);
        let tracer = s.executive().tracer();
        assert_eq!(tracer.counter_by_name("pil.crc_errors"), Some(injected));
        assert_eq!(tracer.counter_by_name("pil.dropped_exchanges"), Some(injected));
        let crc_instants = tracer
            .records()
            .filter(|r| {
                r.kind == peert_trace::EventKind::Instant && tracer.name(r.id) == "pil.crc_error"
            })
            .count() as u64;
        assert_eq!(crc_instants, injected, "one trace instant per bad frame");
        // every clean frame after a corrupted one parsed: controller ran on
        // all non-corrupted steps, so the parser resynchronized each time
        assert_eq!(s.ctl_profile().activations, 40 - injected);
    }

    #[test]
    fn fault_schedule_counters_equal_the_schedule_exactly() {
        // every fault kind at disjoint steps on a fast SPI link (no
        // natural deadline misses): counters must *equal* the schedule
        let faults = FaultSchedule {
            corrupt_steps: vec![2, 9, 17],
            drop_steps: vec![5, 11],
            overrun_steps: vec![7, 13, 20, 26],
            drop_reply_steps: Vec::new(),
        };
        let cfg = PilConfig {
            link: LinkKind::Spi { clock_hz: 2_000_000 },
            faults: faults.clone(),
            trace_capacity: 1 << 12,
            ..Default::default()
        };
        let mut s = session(cfg);
        let stats = s.run(30).unwrap().clone();
        assert_eq!(stats.steps, 30);
        assert_eq!(stats.crc_errors, faults.corrupt_steps.len() as u64);
        assert_eq!(
            stats.dropped_exchanges,
            (faults.corrupt_steps.len() + faults.drop_steps.len()) as u64
        );
        assert_eq!(stats.deadline_misses, faults.overrun_steps.len() as u64);
        assert_eq!(stats.injected_overruns, faults.overrun_steps.len() as u64);
        // fire-and-forget: every lost exchange is one expired deadline
        assert_eq!(stats.timeouts, stats.failed_exchanges);
        assert_eq!(stats.failed_exchanges, stats.dropped_exchanges);
        let tracer = s.executive().tracer();
        assert_eq!(tracer.counter_by_name("pil.crc_errors"), Some(3));
        assert_eq!(tracer.counter_by_name("pil.dropped_exchanges"), Some(5));
        assert_eq!(tracer.counter_by_name("pil.overruns"), Some(4));
        // the controller ran on every step whose exchange completed
        assert_eq!(s.ctl_profile().activations, 30 - 5);
    }

    #[test]
    fn fault_schedule_replay_is_byte_identical() {
        let run = || {
            let cfg = PilConfig {
                link: LinkKind::Spi { clock_hz: 2_000_000 },
                faults: FaultSchedule {
                    corrupt_steps: vec![3, 8],
                    drop_steps: vec![6],
                    overrun_steps: vec![10],
                    drop_reply_steps: Vec::new(),
                },
                ..Default::default()
            };
            let mut s = session(cfg);
            let stats = s.run(25).unwrap();
            (
                stats.trajectory_y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                stats.step_cycles.clone(),
            )
        };
        assert_eq!(run(), run(), "same schedule, byte-identical trajectory");
    }

    #[test]
    fn recovery_restores_lockstep_within_one_exchange() {
        // open-loop stimulus plant + stateless controller: on a faulted
        // step the host sees the held previous actuation, and on the very
        // next clean exchange the reply is bit-identical to the clean run
        // again — recovery within one exchange
        use std::sync::{Arc, Mutex};
        let run = |faults: FaultSchedule| -> Vec<u64> {
            let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = seen.clone();
            let mut k = 0u64;
            let plant: PlantFn = Box::new(move |u: &[f64], dt: f64| {
                if dt > 0.0 {
                    sink.lock().unwrap().push(u[0].to_bits());
                    k += 1;
                }
                vec![0.01 * k as f64] // stimulus independent of actuation
            });
            let controller: ControllerFn = Box::new(|s: &[f64]| vec![2.0 * s[0]]);
            let cfg = PilConfig {
                link: LinkKind::Spi { clock_hz: 2_000_000 },
                faults,
                ..Default::default()
            };
            let mut s = PilSession::new(&spec(), &image(), cfg, controller, plant).unwrap();
            s.run(20).unwrap();
            let v = seen.lock().unwrap().clone();
            v
        };
        let clean = run(FaultSchedule::default());
        let drops = [4u64, 9];
        let faulted =
            run(FaultSchedule { drop_steps: drops.to_vec(), ..Default::default() });
        assert_eq!(clean.len(), faulted.len());
        for (step, (c, f)) in clean.iter().zip(&faulted).enumerate() {
            if drops.contains(&(step as u64)) {
                assert_ne!(c, f, "step {step}: the held output is visible on the host");
            } else {
                assert_eq!(c, f, "step {step}: lockstep restored after the fault");
            }
        }
    }

    #[test]
    fn arq_recovers_bit_exact_under_budget() {
        // per-step fault multiplicity ≤ the retry budget: every exchange
        // recovers and the trajectory is bit-identical to the clean run
        let run = |faults: FaultSchedule| {
            let cfg = PilConfig {
                link: LinkKind::Spi { clock_hz: 2_000_000 },
                faults,
                arq: ArqConfig::default(),
                ..Default::default()
            };
            let mut s = session(cfg);
            let stats = s.run(40).unwrap().clone();
            stats
        };
        let clean = run(FaultSchedule::default());
        assert_eq!((clean.retries, clean.timeouts, clean.dropped_exchanges), (0, 0, 0));
        // step 7 eats 3 corruptions (the full budget); 12 and 13 one drop
        // each; 20 loses two replies; 25 one of each kind
        let faults = FaultSchedule {
            corrupt_steps: vec![7, 7, 7, 25],
            drop_steps: vec![12, 13, 25],
            drop_reply_steps: vec![20, 20, 25],
            overrun_steps: Vec::new(),
        };
        let total =
            (faults.corrupt_steps.len() + faults.drop_steps.len() + faults.drop_reply_steps.len()) as u64;
        let faulted = run(faults);
        assert_eq!(faulted.steps, 40);
        assert_eq!(faulted.retries, total, "one retransmission per defeated attempt");
        assert_eq!(faulted.timeouts, total, "every defeated attempt timed out");
        assert_eq!(faulted.crc_errors, 4);
        assert_eq!(faulted.duplicate_replies, 3, "lost replies answered from cache");
        assert_eq!(faulted.failed_exchanges, 0);
        assert_eq!(faulted.dropped_exchanges, 0, "nothing was lost for good");
        assert_eq!(faulted.degraded_steps, 0);
        assert_eq!(faulted.degraded_at_step, None);
        assert_eq!(faulted.deadline_misses, 0, "recovery fits inside the period");
        let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&faulted.trajectory_y),
            bits(&clean.trajectory_y),
            "recovered run is bit-exact with the clean run"
        );
    }

    #[test]
    fn zero_budget_clean_run_matches_a_budgeted_run_bit_for_bit() {
        let run = |arq: ArqConfig| {
            let cfg = PilConfig {
                link: LinkKind::Spi { clock_hz: 2_000_000 },
                arq,
                ..Default::default()
            };
            let mut s = session(cfg);
            let st = s.run(30).unwrap();
            let bits = st.trajectory_y.iter().map(|y| y.to_bits()).collect::<Vec<u64>>();
            (bits, st.step_cycles.clone())
        };
        assert_eq!(ArqConfig::FIRE_AND_FORGET.max_retries, 0);
        assert_eq!(ArqConfig::default().max_retries, 3);
        assert_eq!(run(ArqConfig::FIRE_AND_FORGET), run(ArqConfig::default()));
    }

    #[test]
    fn fire_and_forget_holds_the_output_through_an_outage_longer_than_the_seq_window() {
        // 200 lost exchanges outlast the 8-bit SEQ's serial-number window:
        // the first request after the outage must still be taken as fresh
        let applied = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = applied.clone();
        let mut inner = plant();
        let recording: PlantFn = Box::new(move |u: &[f64], dt: f64| {
            log.lock().unwrap().push(u[0]);
            inner(u, dt)
        });
        let cfg = PilConfig {
            link: LinkKind::Spi { clock_hz: 2_000_000 },
            faults: FaultSchedule { drop_steps: (10..210).collect(), ..Default::default() },
            ..Default::default()
        };
        let controller: ControllerFn = Box::new(|s: &[f64]| vec![(0.5 - s[0]).clamp(0.0, 0.9)]);
        let mut s = PilSession::new(&spec(), &image(), cfg, controller, recording).unwrap();
        let stats = s.run(300).unwrap().clone();
        assert_eq!((stats.dropped_exchanges, stats.failed_exchanges, stats.timeouts), (200, 200, 200));
        assert_eq!((stats.duplicate_replies, stats.retries), (0, 0));
        assert_eq!(s.ctl_profile().activations, 100);
        assert!(!s.is_degraded());
        // plant call 0 takes the initial sample; call k + 1 applies step k
        let applied = applied.lock().unwrap();
        let held = applied[10].to_bits();
        assert!(applied[11..=210].iter().all(|u| u.to_bits() == held), "the outage holds step 9's output");
        assert_ne!(applied[211].to_bits(), held, "step 210 runs the controller again");
    }

    #[test]
    fn arq_degrades_to_mil_fallback_and_completes() {
        // three consecutive exchanges (the watchdog threshold) fail their
        // whole budget: the session flags itself degraded and finishes on
        // the host-side fallback instead of erroring
        let burst: Vec<u64> = [5u64, 6, 7]
            .iter()
            .flat_map(|&s| std::iter::repeat_n(s, 4)) // budget is 3 retries
            .collect();
        let cfg = PilConfig {
            link: LinkKind::Spi { clock_hz: 2_000_000 },
            faults: FaultSchedule { drop_steps: burst, ..Default::default() },
            arq: ArqConfig::default(),
            ..Default::default()
        };
        let mut s = session(cfg);
        let stats = s.run(30).unwrap().clone();
        assert_eq!(stats.steps, 30, "a degraded session still completes");
        assert_eq!(stats.failed_exchanges, 3);
        assert_eq!(stats.dropped_exchanges, 3);
        assert_eq!(stats.degraded_at_step, Some(8), "fallback owns the step after the trip");
        assert_eq!(stats.degraded_steps, 30 - 8);
        assert_eq!(stats.timeouts, stats.retries + stats.failed_exchanges);
        assert!(s.is_degraded());
        // the fallback keeps regulating: the loop still approaches its
        // fixed point even though the board is gone
        let y = *stats.trajectory_y.last().unwrap();
        assert!((y - 0.25).abs() < 0.1, "fallback keeps the loop closed: {y}");
    }

    #[test]
    fn arq_trace_has_one_retry_span_per_retransmission() {
        let cfg = PilConfig {
            link: LinkKind::Spi { clock_hz: 2_000_000 },
            faults: FaultSchedule {
                corrupt_steps: vec![3, 3, 9],
                drop_reply_steps: vec![6],
                ..Default::default()
            },
            arq: ArqConfig::default(),
            trace_capacity: 1 << 12,
            ..Default::default()
        };
        let mut s = session(cfg);
        let stats = s.run(20).unwrap().clone();
        assert_eq!(stats.retries, 4);
        let tracer = s.executive().tracer();
        let count = |name: &str, kind: peert_trace::EventKind| {
            tracer
                .records()
                .filter(|r| r.kind == kind && tracer.name(r.id) == name)
                .count() as u64
        };
        use peert_trace::EventKind::{SpanBegin, SpanEnd};
        assert_eq!(count("pil.retry", SpanBegin), stats.retries);
        assert_eq!(count("pil.retry", SpanEnd), stats.retries);
        // one rx span per attempt: 20 first attempts + 4 retransmissions
        assert_eq!(count("pil.rx", SpanBegin), 20 + stats.retries);
        assert_eq!(tracer.counter_by_name("pil.retries"), Some(stats.retries));
        assert_eq!(tracer.counter_by_name("pil.timeouts"), Some(stats.timeouts));
        assert_eq!(
            tracer.counter_by_name("pil.duplicate_replies"),
            Some(stats.duplicate_replies)
        );
        assert_eq!(tracer.counter_by_name("pil.degraded_steps"), None, "never degraded");
    }

    #[test]
    fn arq_timing_is_exposed_for_the_configured_link() {
        let cfg = PilConfig {
            link: LinkKind::Spi { clock_hz: 2_000_000 },
            arq: ArqConfig::default(),
            ..Default::default()
        };
        let s = session(cfg);
        let t = s.arq_timing();
        assert!(t.timeout_cycles > 0);
        assert!(t.backoff_cap >= t.backoff_base);
        // fire-and-forget waits one nominal exchange, half the default
        let faf = session(PilConfig { link: LinkKind::Spi { clock_hz: 2_000_000 }, ..Default::default() });
        assert_eq!(2 * faf.arq_timing().timeout_cycles, t.timeout_cycles);
    }

    #[test]
    fn frames_wider_than_the_sci_fifo_are_rejected_up_front() {
        let build = |sensors: usize, actuations: usize| {
            let cfg = PilConfig {
                link: LinkKind::Spi { clock_hz: 2_000_000 },
                sensor_channels: sensors,
                actuation_channels: actuations,
                ..Default::default()
            };
            let controller: ControllerFn = Box::new(move |_| vec![0.0; actuations]);
            let plant: PlantFn = Box::new(move |_, _| vec![0.0; sensors]);
            PilSession::new(&spec(), &image(), cfg, controller, plant)
        };
        // 29 channels: 5 + 2·29 = 63 bytes per frame, within the FIFO
        let mut s = build(29, 29).unwrap();
        let stats = s.run(10).unwrap().clone();
        assert_eq!((stats.steps, stats.crc_errors, stats.dropped_exchanges), (10, 0, 0));
        assert_eq!(s.ctl_profile().activations, 10);
        // 30 channels: a 65-byte frame never fits the 64-byte FIFO whole
        for (sensors, actuations) in [(30, 1), (1, 30)] {
            let err = build(sensors, actuations).err().expect("oversized frame is rejected");
            assert!(err.contains("65 bytes") && err.contains("64-byte SCI FIFO"), "{err}");
        }
    }

    #[test]
    fn untraced_session_leaves_the_tracer_disabled() {
        let mut s = session(PilConfig::default());
        s.run(5).unwrap();
        assert!(!s.executive().tracer().is_enabled());
        assert_eq!(s.executive().tracer().len(), 0);
    }

    #[test]
    fn comm_isr_shows_in_the_board_profile() {
        let mut s = session(PilConfig::default());
        s.run(5).unwrap();
        let p = s.executive().profile("comm_rx").unwrap();
        // 5 steps × (5 overhead + 2 payload) bytes inbound
        assert_eq!(p.activations, 5 * 7);
    }
}
