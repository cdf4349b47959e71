//! Multi-node PIL co-simulation over a simulated CAN-like bus.
//!
//! Where [`crate::cosim`] locksteps one board against the host over a
//! point-to-point serial line, this module partitions a control path
//! across several MCU nodes — e.g. sensor conditioning, control law and
//! PWM shaping as three chips — that exchange [`peert_frame`]-framed
//! messages over a shared [`peert_bus::SimBus`] with CAN-style priority
//! arbitration.
//!
//! # Topology and protocol
//!
//! With `S` stages the bus carries `S + 1` nodes: node 0 is the host
//! (plant side), node `i + 1` runs stage `i`. Each control step walks
//! `S + 1` hops: hop `h < S` carries the quantized signal from node `h`
//! to node `h + 1` (which then executes stage `h`), and hop `S` returns
//! the actuation from the last stage node to the host. Every hop is a
//! stop-and-wait DATA/ACK exchange reusing PR 4's ARQ machinery — but
//! generalized to *per-peer* state: each hop owns its own
//! [`ArqTiming`], [`ReplicaGate`] and [`LinkSupervisor`].
//!
//! Frame IDs encode CAN priority (lower wins arbitration): ACKs at
//! `0x080 + hop` outrank DATA at `0x100 + hop`, which outrank the
//! once-per-step STATUS heartbeats at `0x400 + node`.
//!
//! # Degradation
//!
//! When any hop's watchdog trips (too many consecutive exchanges
//! exhausting their retry budget — e.g. a bus partition isolating a
//! node), the whole session falls back to a host-side replica: the same
//! stage closures run in-process, chained through the same per-hop
//! quantization round-trips, so a recovered-in-time run stays
//! bit-identical to a clean one and a degraded run stays bit-identical
//! to pure MIL.

use crate::arq::{Admission, ArqConfig, ArqTiming, LinkHealth, LinkSupervisor, ReplicaGate};
use crate::cosim::PlantFn;
use crate::packet::{from_sample, to_sample};
pub use crate::packet::quantize_roundtrip;
use peert_bus::{BusConfig, BusCounters, BusFaultSchedule, BusFrame, Cycle, Delivery, FaultKind, SimBus};
use peert_frame::{Dec, Deframer, Enc, RawFrame, WIRE_OVERHEAD};
use peert_mcu::board::Mcu;
use peert_mcu::{Cycles, McuSpec};
use peert_trace::{ClockDomain, EventId, Tracer};

/// A pipeline stage: maps the hop's decoded input channels to the
/// stage's output channels. Stages are owned closures so tests can
/// wrap generated controller subsystems or plain functions alike.
pub type StageFn = Box<dyn FnMut(&[f64]) -> Vec<f64> + Send>;

/// Protocol version stamped into every frame.
pub const PROTO_VERSION: u8 = 1;
/// Frame-kind base for hop DATA frames (`kind = base + hop`).
pub const DATA_KIND_BASE: u8 = 0x10;
/// Frame-kind base for hop ACK frames (`kind = base + hop`).
pub const ACK_KIND_BASE: u8 = 0x30;
/// Frame-kind base for per-node STATUS heartbeats (`kind = base + node`).
pub const STATUS_KIND_BASE: u8 = 0x50;

/// Bus arbitration ID of hop `h`'s DATA frame.
pub fn data_id(hop: usize) -> u16 {
    0x100 + hop as u16
}

/// Bus arbitration ID of hop `h`'s ACK frame (outranks all DATA).
pub fn ack_id(hop: usize) -> u16 {
    0x080 + hop as u16
}

/// Bus arbitration ID of node `n`'s STATUS heartbeat (lowest priority).
pub fn status_id(node: usize) -> u16 {
    0x400 + node as u16
}

/// Wire bytes of a DATA frame carrying `channels` i16 samples.
pub fn data_wire_bytes(channels: usize) -> usize {
    WIRE_OVERHEAD + 1 + 2 * channels
}

/// Wire bytes of an ACK frame.
pub fn ack_wire_bytes() -> usize {
    WIRE_OVERHEAD + 1
}

/// Wire bytes of a STATUS heartbeat.
pub fn status_wire_bytes() -> usize {
    WIRE_OVERHEAD + 4
}

/// One MCU node of the distributed pipeline.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Display name (trace lane suffix).
    pub name: String,
    /// Chip this stage runs on.
    pub mcu: McuSpec,
    /// Cycle cost of one stage execution on that chip.
    pub step_cycles: Cycles,
    /// Input channels (must match the previous stage's outputs).
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
}

/// Deterministic per-(hop, step) fault schedule for the cosim. Each
/// entry defeats one transmission attempt; listing the same `(hop,
/// step)` pair `m` times defeats `m` consecutive attempts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MultiFaultSchedule {
    /// Corrupt the DATA frame of `(hop, step)` (CRC rejection at every
    /// receiving deframer).
    pub corrupt_data: Vec<(usize, u64)>,
    /// Drop the DATA frame of `(hop, step)` after it wins arbitration.
    pub drop_data: Vec<(usize, u64)>,
    /// Drop the ACK frame of `(hop, step)`.
    pub drop_ack: Vec<(usize, u64)>,
}

impl MultiFaultSchedule {
    /// Whether no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.corrupt_data.is_empty() && self.drop_data.is_empty() && self.drop_ack.is_empty()
    }

    /// Total number of scheduled fault events.
    pub fn total_faults(&self) -> u64 {
        (self.corrupt_data.len() + self.drop_data.len() + self.drop_ack.len()) as u64
    }

    fn count(list: &[(usize, u64)], hop: usize, step: u64) -> u32 {
        list.iter().filter(|&&(h, s)| h == hop && s == step).count() as u32
    }
}

/// A step-indexed bus partition: `node` is unreachable (cannot transmit
/// or receive) for steps in `from_step..until_step`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepPartition {
    /// Bus node index (0 = host, `i + 1` = stage `i`).
    pub node: usize,
    /// First isolated step.
    pub from_step: u64,
    /// First step after the window (exclusive).
    pub until_step: u64,
}

/// Configuration of a [`MultiPilSession`].
#[derive(Clone, Debug)]
pub struct MultiPilConfig {
    /// Control period in seconds (one full pipeline walk per period).
    pub control_period_s: f64,
    /// Bus pricing (bit time, frame overhead).
    pub bus: BusConfig,
    /// Full-scale value per hop (`stages + 1` entries: hop `h` quantizes
    /// with `hop_scales[h]`).
    pub hop_scales: Vec<f64>,
    /// Receive-ISR cost per wire byte, in cycles.
    pub rx_isr_cycles: Cycles,
    /// ARQ policy shared by every hop (timing derived per hop).
    pub arq: ArqConfig,
    /// Deterministic per-(hop, step) fault schedule.
    pub faults: MultiFaultSchedule,
    /// Step-indexed partition windows.
    pub partitions: Vec<StepPartition>,
    /// Whether each stage node broadcasts a STATUS heartbeat per step.
    pub status_frames: bool,
    /// Trace ring capacity per lane (0 disables tracing).
    pub trace_capacity: usize,
}

impl Default for MultiPilConfig {
    fn default() -> Self {
        MultiPilConfig {
            control_period_s: 1e-3,
            bus: BusConfig::default(),
            hop_scales: Vec::new(),
            rx_isr_cycles: 2,
            arq: ArqConfig::default(),
            faults: MultiFaultSchedule::default(),
            partitions: Vec::new(),
            status_frames: true,
            trace_capacity: 0,
        }
    }
}

/// Counters and recorded outputs of a [`MultiPilSession`] run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MultiPilStats {
    /// Control steps executed (distributed or fallback).
    pub steps: u64,
    /// Steps whose pipeline walk overran the control period.
    pub deadline_misses: u64,
    /// DATA retransmissions across all hops.
    pub retries: u64,
    /// Attempt timeouts across all hops (`retries + failed_hops`).
    pub timeouts: u64,
    /// Hop exchanges that exhausted their retry budget.
    pub failed_hops: u64,
    /// Steps aborted by a failed hop (actuation held).
    pub failed_steps: u64,
    /// Duplicate DATA frames answered with a cached ACK.
    pub duplicate_acks: u64,
    /// Frames admitted as stale (late ACKs, reordered DATA).
    pub stale_frames: u64,
    /// Payloads that deframed but failed structural decode.
    pub decode_errors: u64,
    /// CRC rejections summed over every node's deframer.
    pub crc_rejected: u64,
    /// Resyncs summed over every node's deframer.
    pub resyncs: u64,
    /// Steps executed by the host-side fallback replica.
    pub degraded_steps: u64,
    /// First step executed via fallback, if the watchdog ever tripped.
    pub degraded_at_step: Option<u64>,
    /// Per-stage execution counts (exactly-once admission per step).
    pub stage_execs: Vec<u64>,
    /// Sensor-to-actuation delivery latency in cycles, per completed
    /// distributed step.
    pub delivery_latencies: Vec<u64>,
    /// Worst observed delivery latency.
    pub worst_delivery_cycles: u64,
    /// Applied actuation per step, as IEEE-754 bit patterns (bit-exact
    /// comparison across runs).
    pub trajectory: Vec<Vec<u64>>,
}

struct NodeState {
    name: String,
    lane: String,
    mcu: Mcu,
    step_cycles: Cycles,
    isr_entry: Cycles,
    isr_exit: Cycles,
    deframer: Deframer,
    tracer: Tracer,
    ev_step: EventId,
    ev_execs: EventId,
    stage: StageFn,
    out: Vec<f64>,
}

struct HostIds {
    step: EventId,
    frames: EventId,
    bits: EventId,
    arb_losses: EventId,
    dropped: EventId,
    corrupted: EventId,
    part_tx: EventId,
    part_rx: EventId,
    retransmits: EventId,
    timeouts: EventId,
    duplicate_acks: EventId,
    failed_steps: EventId,
    degraded_steps: EventId,
    crc_rejected: EventId,
}

struct Wait {
    hop: usize,
    seq: u8,
    acked: bool,
}

/// A distributed PIL session: `S` stage nodes plus the host exchanging
/// framed samples over a simulated CAN bus, with per-hop ARQ and a
/// host-side fallback replica.
pub struct MultiPilSession {
    period_cycles: Cycles,
    control_period_s: f64,
    rx_isr_cycles: Cycles,
    arq: ArqConfig,
    faults: MultiFaultSchedule,
    partitions: Vec<StepPartition>,
    status_frames: bool,
    hop_scales: Vec<f64>,
    hop_channels: Vec<usize>,
    bus: SimBus,
    nodes: Vec<NodeState>,
    host_deframer: Deframer,
    host_tracer: Tracer,
    host_ids: HostIds,
    gates: Vec<ReplicaGate>,
    ack_cache: Vec<Option<(u8, Vec<u8>)>>,
    dogs: Vec<LinkSupervisor>,
    timing: Vec<ArqTiming>,
    plant: PlantFn,
    applied: Vec<f64>,
    stats: MultiPilStats,
    step: u64,
    degraded: bool,
    wait: Option<Wait>,
    host_rx: Option<(Vec<f64>, Cycle)>,
}

impl MultiPilSession {
    /// Build a session from the node specs, the matching stage closures
    /// and the plant. Fails on inconsistent channel chains or scales.
    pub fn new(
        specs: Vec<NodeSpec>,
        stages: Vec<StageFn>,
        cfg: MultiPilConfig,
        plant: PlantFn,
    ) -> Result<Self, String> {
        let s = specs.len();
        if s == 0 {
            return Err("at least one stage node required".into());
        }
        if stages.len() != s {
            return Err(format!("{} node specs but {} stage closures", s, stages.len()));
        }
        if cfg.hop_scales.len() != s + 1 {
            return Err(format!(
                "hop_scales must have stages + 1 = {} entries, got {}",
                s + 1,
                cfg.hop_scales.len()
            ));
        }
        if cfg.hop_scales.iter().any(|&sc| sc <= 0.0 || sc.is_nan()) {
            return Err("hop_scales must be positive".into());
        }
        if cfg.control_period_s <= 0.0 || cfg.control_period_s.is_nan() {
            return Err("control_period_s must be positive".into());
        }
        // the ACK lands at the nominal exchange time, so a deadline of
        // one nominal exchange would time out every clean hop
        if cfg.arq.timeout_factor <= 1.0 || cfg.arq.timeout_factor.is_nan() {
            return Err(format!(
                "arq.timeout_factor must exceed 1.0 on the bus, got {}",
                cfg.arq.timeout_factor
            ));
        }
        for i in 1..s {
            if specs[i].in_channels != specs[i - 1].out_channels {
                return Err(format!(
                    "stage {} expects {} inputs but stage {} emits {}",
                    i,
                    specs[i].in_channels,
                    i - 1,
                    specs[i - 1].out_channels
                ));
            }
        }
        let bus_hz = specs[0].mcu.bus_hz();
        if specs.iter().any(|n| (n.mcu.bus_hz() - bus_hz).abs() > 1e-9) {
            return Err("all nodes must share one bus clock for lockstep".into());
        }
        for p in &cfg.partitions {
            if p.node > s {
                return Err(format!("partition names node {} but the bus has {} nodes", p.node, s + 1));
            }
        }

        let period_cycles = (cfg.control_period_s * bus_hz).round() as Cycles;
        let mut hop_channels = Vec::with_capacity(s + 1);
        hop_channels.push(specs[0].in_channels);
        for spec in &specs {
            hop_channels.push(spec.out_channels);
        }

        let domain = ClockDomain::SimCycles { bus_hz };
        let mut nodes = Vec::with_capacity(s);
        for (spec, stage) in specs.into_iter().zip(stages) {
            let table = spec.mcu.cost_table();
            let mut tracer = Tracer::new(cfg.trace_capacity, domain);
            let ev_step = tracer.register("node.step");
            let ev_execs = tracer.register("node.execs");
            nodes.push(NodeState {
                lane: format!("node.{}", spec.name),
                name: spec.name,
                mcu: Mcu::new(&spec.mcu),
                step_cycles: spec.step_cycles,
                isr_entry: u64::from(table.isr_entry),
                isr_exit: u64::from(table.isr_exit),
                deframer: Deframer::new(256),
                tracer,
                ev_step,
                ev_execs,
                stage,
                out: vec![0.0; spec.out_channels],
            });
        }

        let mut host_tracer = Tracer::new(cfg.trace_capacity, domain);
        let host_ids = HostIds {
            step: host_tracer.register("host.step"),
            frames: host_tracer.register("bus.frames"),
            bits: host_tracer.register("bus.bits"),
            arb_losses: host_tracer.register("bus.arbitration_losses"),
            dropped: host_tracer.register("bus.dropped"),
            corrupted: host_tracer.register("bus.corrupted"),
            part_tx: host_tracer.register("bus.partition_tx_losses"),
            part_rx: host_tracer.register("bus.partition_rx_losses"),
            retransmits: host_tracer.register("bus.retransmits"),
            timeouts: host_tracer.register("bus.timeouts"),
            duplicate_acks: host_tracer.register("bus.duplicate_acks"),
            failed_steps: host_tracer.register("bus.failed_steps"),
            degraded_steps: host_tracer.register("bus.degraded_steps"),
            crc_rejected: host_tracer.register("bus.crc_rejected"),
        };

        let bus = SimBus::new(cfg.bus, s + 1, BusFaultSchedule::default());
        let applied = vec![0.0; hop_channels[s]];

        let mut session = MultiPilSession {
            period_cycles: period_cycles.max(1),
            control_period_s: cfg.control_period_s,
            rx_isr_cycles: cfg.rx_isr_cycles,
            arq: cfg.arq,
            faults: cfg.faults,
            partitions: cfg.partitions,
            status_frames: cfg.status_frames,
            hop_scales: cfg.hop_scales,
            hop_channels,
            bus,
            nodes,
            host_deframer: Deframer::new(256),
            host_tracer,
            host_ids,
            gates: (0..=s).map(|_| ReplicaGate::new()).collect(),
            ack_cache: vec![None; s + 1],
            dogs: (0..=s).map(|_| LinkSupervisor::new(cfg.arq.watchdog_failures)).collect(),
            timing: Vec::new(),
            plant,
            applied,
            stats: MultiPilStats {
                stage_execs: vec![0; s],
                ..MultiPilStats::default()
            },
            step: 0,
            degraded: false,
            wait: None,
            host_rx: None,
        };
        session.timing = (0..=s)
            .map(|h| ArqTiming::derive(&session.arq, session.nominal_hop_cycles(h)))
            .collect();
        Ok(session)
    }

    /// Number of pipeline stages.
    pub fn n_stages(&self) -> usize {
        self.nodes.len()
    }

    /// Number of hops per step (`stages + 1`).
    pub fn n_hops(&self) -> usize {
        self.nodes.len() + 1
    }

    /// The control period in bus cycles.
    pub fn period_cycles(&self) -> Cycles {
        self.period_cycles
    }

    /// Wire bytes of hop `h`'s DATA frame.
    pub fn hop_data_bytes(&self, hop: usize) -> usize {
        data_wire_bytes(self.hop_channels[hop])
    }

    /// Receive-side processing cost of a fresh DATA frame on hop `h`
    /// (ISR entry/exit + per-byte copy + stage execution; the host only
    /// pays the copy).
    pub fn hop_proc_cycles(&self, hop: usize) -> Cycles {
        let wire = self.hop_data_bytes(hop) as u64;
        if hop < self.nodes.len() {
            let n = &self.nodes[hop];
            n.isr_entry + self.rx_isr_cycles * wire + n.step_cycles + n.isr_exit
        } else {
            self.rx_isr_cycles * wire
        }
    }

    /// Clean exchange time of hop `h`: DATA transmission + receive
    /// processing + ACK transmission.
    pub fn nominal_hop_cycles(&self, hop: usize) -> Cycles {
        let cfg = self.bus.config();
        cfg.frame_cycles(self.hop_data_bytes(hop))
            + self.hop_proc_cycles(hop)
            + cfg.frame_cycles(ack_wire_bytes())
    }

    /// The derived ARQ timing of hop `h`.
    pub fn hop_timing(&self, hop: usize) -> ArqTiming {
        self.timing[hop]
    }

    /// Arbitration losses a clean, fault-free step contributes when
    /// STATUS heartbeats are on. At the step start DATA0 beats all `S`
    /// statuses (`S` losses). The statuses then drain one per hop, and
    /// while `k` of them remain pending each loses three rounds — to
    /// the winning status, to the hop's ACK and to the next hop's DATA
    /// (`3·Σ k = 3·S(S−1)/2` in total). Exact whenever every hop's
    /// receive processing is shorter than one status transmission
    /// (`0 < proc < status frame time`), which holds for realistic ISR
    /// costs against CAN-scale frame times.
    pub fn clean_arbitration_losses_per_step(&self) -> u64 {
        if self.status_frames {
            let s = self.nodes.len() as u64;
            s + 3 * s * (s - 1) / 2
        } else {
            0
        }
    }

    /// Whether the watchdog has tripped and the session runs fallback.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Run statistics.
    pub fn stats(&self) -> &MultiPilStats {
        &self.stats
    }

    /// Raw bus counters.
    pub fn bus_counters(&self) -> &BusCounters {
        self.bus.counters()
    }

    /// The bus pricing this session runs on.
    pub fn bus_config(&self) -> &BusConfig {
        self.bus.config()
    }

    /// Trace lanes: the host lane (with `bus.*` counters) followed by
    /// one lane per stage node. Feed to
    /// [`peert_trace::chrome_trace_json`].
    pub fn tracers(&self) -> Vec<(&str, &Tracer)> {
        let mut out = Vec::with_capacity(self.nodes.len() + 1);
        out.push(("pil.host", &self.host_tracer));
        for n in &self.nodes {
            out.push((n.lane.as_str(), &n.tracer));
        }
        out
    }

    /// Node display names in pipeline order.
    pub fn node_names(&self) -> Vec<&str> {
        self.nodes.iter().map(|n| n.name.as_str()).collect()
    }

    fn partition_active(&self, node: usize, step: u64) -> bool {
        self.partitions.iter().any(|p| p.node == node && p.from_step <= step && step < p.until_step)
    }

    fn encode_data(hop: usize, seq: u8, samples: &[i16]) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u8(seq);
        for &v in samples {
            enc.i16(v);
        }
        RawFrame { version: PROTO_VERSION, kind: DATA_KIND_BASE + hop as u8, payload: enc.into_bytes() }
            .encode()
    }

    fn encode_ack(hop: usize, seq: u8) -> Vec<u8> {
        RawFrame { version: PROTO_VERSION, kind: ACK_KIND_BASE + hop as u8, payload: vec![seq] }.encode()
    }

    fn encode_status(node: usize, step: u64) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u32(step as u32);
        RawFrame { version: PROTO_VERSION, kind: STATUS_KIND_BASE + node as u8, payload: enc.into_bytes() }
            .encode()
    }

    /// Execute `steps` control steps.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.run_step();
        }
        self.sync_counters();
    }

    fn run_step(&mut self) {
        let step = self.step;
        let dt = if step == 0 { 0.0 } else { self.control_period_s };
        let applied = self.applied.clone();
        let sensors = (self.plant)(&applied, dt);

        if self.degraded {
            self.fallback_step(&sensors);
            return;
        }

        let s = self.nodes.len();
        let t0 = self.bus.now();
        self.host_tracer.begin(self.host_ids.step, t0);

        for node in 0..=s {
            self.bus.set_isolated(node, self.partition_active(node, step));
        }

        self.bus.clear_directives();
        for hop in 0..=s {
            let c = MultiFaultSchedule::count(&self.faults.corrupt_data, hop, step);
            if c > 0 {
                self.bus.defeat_next(FaultKind::Corrupt, Some(data_id(hop)), c);
            }
            let d = MultiFaultSchedule::count(&self.faults.drop_data, hop, step);
            if d > 0 {
                self.bus.defeat_next(FaultKind::Drop, Some(data_id(hop)), d);
            }
            let a = MultiFaultSchedule::count(&self.faults.drop_ack, hop, step);
            if a > 0 {
                self.bus.defeat_next(FaultKind::Drop, Some(ack_id(hop)), a);
            }
        }

        if self.status_frames {
            for i in 0..s {
                let node = i + 1;
                self.bus
                    .submit(node, BusFrame { id: status_id(node), bytes: Self::encode_status(node, step) });
            }
        }

        let seq = (step % 256) as u8;
        self.host_rx = None;
        let mut vals = sensors;
        let mut failed: Option<usize> = None;
        for hop in 0..=s {
            let scale = self.hop_scales[hop];
            let samples: Vec<i16> = vals.iter().map(|&v| to_sample(v, scale)).collect();
            if !self.run_hop(hop, seq, &samples) {
                failed = Some(hop);
                break;
            }
            if hop < s {
                vals = self.nodes[hop].out.clone();
            }
        }

        match failed {
            None => {
                let (act, at) = self.host_rx.take().expect("hop S completed, actuation present");
                self.applied = act;
                let latency = at.saturating_sub(t0);
                self.stats.delivery_latencies.push(latency);
                self.stats.worst_delivery_cycles = self.stats.worst_delivery_cycles.max(latency);
                for hop in 0..=s {
                    self.dogs[hop].record_success();
                }
            }
            Some(h) => {
                self.stats.failed_steps += 1;
                for hop in 0..h {
                    self.dogs[hop].record_success();
                }
                if self.dogs[h].record_failure() == LinkHealth::Degraded {
                    self.degraded = true;
                }
            }
        }

        self.stats.trajectory.push(self.applied.iter().map(|v| v.to_bits()).collect());

        let t_end = t0 + self.period_cycles;
        if self.bus.now() > t_end {
            self.stats.deadline_misses += 1;
        }
        let boundary = t_end.max(self.bus.now());
        self.drain_until(boundary);
        // A step that overran its period can strand frames (e.g. this
        // step's statuses): flush them so the next step starts clean.
        while !self.bus.idle() {
            let before = (self.bus.now(), self.bus.pending());
            let ds = self.bus.advance_next(Cycle::MAX);
            for d in ds {
                self.handle_delivery(d);
            }
            if (self.bus.now(), self.bus.pending()) == before {
                break;
            }
        }
        self.host_tracer.end(self.host_ids.step, self.bus.now());

        self.stats.steps += 1;
        self.step += 1;
        self.sync_counters();
    }

    /// Host-side replica step: the same stage closures chained through
    /// the same per-hop quantization round-trips, no bus traffic.
    fn fallback_step(&mut self, sensors: &[f64]) {
        if self.stats.degraded_at_step.is_none() {
            self.stats.degraded_at_step = Some(self.step);
        }
        let mut v = quantize_roundtrip(sensors, self.hop_scales[0]);
        for i in 0..self.nodes.len() {
            v = (self.nodes[i].stage)(&v);
            self.stats.stage_execs[i] += 1;
            v = quantize_roundtrip(&v, self.hop_scales[i + 1]);
        }
        self.applied = v;
        self.stats.degraded_steps += 1;
        self.stats.trajectory.push(self.applied.iter().map(|val| val.to_bits()).collect());
        let t0 = self.bus.now();
        let ds = self.bus.advance_to(t0 + self.period_cycles);
        debug_assert!(ds.is_empty(), "degraded steps leave the bus idle");
        self.stats.steps += 1;
        self.step += 1;
    }

    fn wait_acked(&self) -> bool {
        self.wait.as_ref().is_some_and(|w| w.acked)
    }

    /// One stop-and-wait DATA/ACK exchange on `hop`. Returns whether
    /// the exchange completed within the retry budget.
    fn run_hop(&mut self, hop: usize, seq: u8, samples: &[i16]) -> bool {
        let data = Self::encode_data(hop, seq, samples);
        let timing = self.timing[hop];
        let sender = hop; // bus node h originates hop h
        self.wait = Some(Wait { hop, seq, acked: false });
        let mut attempt: u32 = 0;
        let ok = loop {
            if attempt > 0 {
                self.stats.retries += 1;
                let wake = self.bus.now() + timing.backoff_cycles(attempt);
                self.drain_until(wake);
                if self.wait_acked() {
                    break true; // a late ACK landed during backoff
                }
            }
            self.bus.submit(sender, BusFrame { id: data_id(hop), bytes: data.clone() });
            let deadline = self.bus.now() + timing.timeout_cycles;
            loop {
                if self.wait_acked() {
                    break;
                }
                if self.bus.now() >= deadline {
                    break;
                }
                let ds = self.bus.advance_next(deadline);
                if ds.is_empty() && self.bus.now() >= deadline {
                    break;
                }
                for d in ds {
                    self.handle_delivery(d);
                }
            }
            if self.wait_acked() {
                break true;
            }
            self.stats.timeouts += 1;
            if attempt >= self.arq.max_retries {
                break false;
            }
            attempt += 1;
        };
        self.wait = None;
        if !ok {
            self.stats.failed_hops += 1;
        }
        ok
    }

    fn drain_until(&mut self, target: Cycle) {
        while self.bus.now() < target {
            let ds = self.bus.advance_next(target);
            if ds.is_empty() && self.bus.now() >= target {
                break;
            }
            for d in ds {
                self.handle_delivery(d);
            }
        }
    }

    fn handle_delivery(&mut self, d: Delivery) {
        let frames = if d.to == 0 {
            self.host_deframer.push_slice(&d.bytes)
        } else {
            self.nodes[d.to - 1].deframer.push_slice(&d.bytes)
        };
        let wire_len = d.bytes.len() as u64;
        for f in frames {
            self.handle_frame(d.to, &f, d.at, wire_len);
        }
    }

    fn handle_frame(&mut self, node: usize, f: &RawFrame, at: Cycle, wire_len: u64) {
        let s = self.nodes.len();
        let kind = f.kind;
        if (DATA_KIND_BASE..DATA_KIND_BASE + (s as u8 + 1)).contains(&kind) {
            let hop = (kind - DATA_KIND_BASE) as usize;
            let receiver = (hop + 1) % (s + 1);
            if node != receiver {
                return; // broadcast overheard by a non-addressee
            }
            self.handle_data(hop, node, f, at, wire_len);
        } else if (ACK_KIND_BASE..ACK_KIND_BASE + (s as u8 + 1)).contains(&kind) {
            let hop = (kind - ACK_KIND_BASE) as usize;
            if node != hop {
                return; // only hop h's sender consumes its ACK
            }
            let Some(&seq) = f.payload.first() else {
                self.stats.decode_errors += 1;
                return;
            };
            if let Some(w) = &mut self.wait {
                if w.hop == hop && w.seq == seq {
                    w.acked = true;
                    return;
                }
            }
            self.stats.stale_frames += 1;
        }
        // STATUS frames are monitoring-only: deframed, then ignored.
    }

    fn handle_data(&mut self, hop: usize, node: usize, f: &RawFrame, at: Cycle, wire_len: u64) {
        let channels = self.hop_channels[hop];
        let mut dec = Dec::new(&f.payload);
        let Ok(seq) = dec.u8() else {
            self.stats.decode_errors += 1;
            return;
        };
        let mut samples = Vec::with_capacity(channels);
        for _ in 0..channels {
            match dec.i16() {
                Ok(v) => samples.push(v),
                Err(_) => {
                    self.stats.decode_errors += 1;
                    return;
                }
            }
        }
        if dec.finish().is_err() {
            self.stats.decode_errors += 1;
            return;
        }

        match self.gates[hop].classify(seq) {
            Admission::Fresh => {
                let scale = self.hop_scales[hop];
                let vals: Vec<f64> = samples.iter().map(|&v| from_sample(v, scale)).collect();
                let ready = if hop < self.nodes.len() {
                    let rx_isr = self.rx_isr_cycles;
                    let n = &mut self.nodes[hop];
                    let cost = n.isr_entry + rx_isr * wire_len + n.step_cycles + n.isr_exit;
                    n.mcu.advance_to(at);
                    n.mcu.advance(cost);
                    n.tracer.begin(n.ev_step, at);
                    n.tracer.end(n.ev_step, at + cost);
                    n.out = (n.stage)(&vals);
                    self.stats.stage_execs[hop] += 1;
                    let execs = self.stats.stage_execs[hop];
                    let n = &mut self.nodes[hop];
                    n.tracer.set(n.ev_execs, execs);
                    at + cost
                } else {
                    let cost = self.rx_isr_cycles * wire_len;
                    self.host_rx = Some((vals, at + cost));
                    at + cost
                };
                self.gates[hop].commit(seq);
                let ack = Self::encode_ack(hop, seq);
                self.ack_cache[hop] = Some((seq, ack.clone()));
                self.bus.submit_at(node, BusFrame { id: ack_id(hop), bytes: ack }, ready);
            }
            Admission::Duplicate => {
                self.stats.duplicate_acks += 1;
                let ready = if hop < self.nodes.len() {
                    let n = &self.nodes[hop];
                    at + n.isr_entry + self.rx_isr_cycles * wire_len + n.isr_exit
                } else {
                    at + self.rx_isr_cycles * wire_len
                };
                if let Some((_, ack)) = &self.ack_cache[hop] {
                    let ack = ack.clone();
                    self.bus.submit_at(node, BusFrame { id: ack_id(hop), bytes: ack }, ready);
                }
            }
            Admission::Stale => {
                self.stats.stale_frames += 1;
            }
        }
    }

    fn sync_counters(&mut self) {
        let mut crc = self.host_deframer.crc_errors();
        let mut resyncs = self.host_deframer.resyncs();
        for n in &self.nodes {
            crc += n.deframer.crc_errors();
            resyncs += n.deframer.resyncs();
        }
        self.stats.crc_rejected = crc;
        self.stats.resyncs = resyncs;

        let b = self.bus.counters().clone();
        let ids = &self.host_ids;
        let t = &mut self.host_tracer;
        t.set(ids.frames, b.frames_sent);
        t.set(ids.bits, b.bits_sent);
        t.set(ids.arb_losses, b.arbitration_losses);
        t.set(ids.dropped, b.dropped_frames);
        t.set(ids.corrupted, b.corrupted_frames);
        t.set(ids.part_tx, b.partition_tx_losses);
        t.set(ids.part_rx, b.partition_rx_losses);
        t.set(ids.retransmits, self.stats.retries);
        t.set(ids.timeouts, self.stats.timeouts);
        t.set(ids.duplicate_acks, self.stats.duplicate_acks);
        t.set(ids.failed_steps, self.stats.failed_steps);
        t.set(ids.degraded_steps, self.stats.degraded_steps);
        t.set(ids.crc_rejected, self.stats.crc_rejected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peert_mcu::{McuCatalog, McuSpec};

    fn spec() -> McuSpec {
        McuCatalog::standard().find("MC56F8367").unwrap().clone()
    }

    fn gain_stage(g: f64) -> StageFn {
        Box::new(move |ins: &[f64]| ins.iter().map(|v| v * g).collect())
    }

    fn three_nodes() -> Vec<NodeSpec> {
        vec![
            NodeSpec { name: "sensor".into(), mcu: spec(), step_cycles: 400, in_channels: 1, out_channels: 1 },
            NodeSpec { name: "ctl".into(), mcu: spec(), step_cycles: 900, in_channels: 1, out_channels: 1 },
            NodeSpec { name: "pwm".into(), mcu: spec(), step_cycles: 300, in_channels: 1, out_channels: 1 },
        ]
    }

    fn stages() -> Vec<StageFn> {
        vec![gain_stage(0.5), gain_stage(-0.8), gain_stage(0.9)]
    }

    fn cfg() -> MultiPilConfig {
        MultiPilConfig {
            control_period_s: 10e-3,
            hop_scales: vec![2.0, 2.0, 4.0, 4.0],
            ..MultiPilConfig::default()
        }
    }

    fn plant() -> PlantFn {
        let mut k: u64 = 0;
        Box::new(move |_applied: &[f64], _dt: f64| {
            let v = ((k % 37) as f64 / 37.0) * 1.6 - 0.8;
            k += 1;
            vec![v]
        })
    }

    fn replica_trajectory(steps: u64) -> Vec<Vec<u64>> {
        let mut st = stages();
        let mut pl = plant();
        let scales = [2.0, 2.0, 4.0, 4.0];
        let mut out = Vec::new();
        let mut applied = vec![0.0];
        for step in 0..steps {
            let dt = if step == 0 { 0.0 } else { 10e-3 };
            let sensors = pl(&applied, dt);
            let mut v = quantize_roundtrip(&sensors, scales[0]);
            for (i, stage) in st.iter_mut().enumerate() {
                v = stage(&v);
                v = quantize_roundtrip(&v, scales[i + 1]);
            }
            applied = v;
            out.push(applied.iter().map(|x| x.to_bits()).collect());
        }
        out
    }

    #[test]
    fn clean_run_matches_host_replica_bit_exactly() {
        let mut s = MultiPilSession::new(three_nodes(), stages(), cfg(), plant()).unwrap();
        s.run(50);
        let st = s.stats();
        assert_eq!(st.steps, 50);
        assert_eq!(st.failed_steps, 0);
        assert_eq!(st.retries, 0);
        assert_eq!(st.deadline_misses, 0);
        assert_eq!(st.stage_execs, vec![50, 50, 50]);
        assert_eq!(st.trajectory, replica_trajectory(50));
        assert!(!s.is_degraded());
    }

    #[test]
    fn clean_counters_match_closed_form() {
        let mut s = MultiPilSession::new(three_nodes(), stages(), cfg(), plant()).unwrap();
        let steps = 20u64;
        s.run(steps);
        let b = s.bus_counters();
        // 2 frames per hop x 4 hops + 3 statuses per step.
        assert_eq!(b.frames_sent, steps * (2 * 4 + 3));
        assert_eq!(b.arbitration_losses, steps * s.clean_arbitration_losses_per_step());
        assert_eq!(b.dropped_frames, 0);
        assert_eq!(b.corrupted_frames, 0);
        assert_eq!(s.stats().timeouts, 0);
    }

    #[test]
    fn under_budget_faults_stay_bit_exact_with_exact_counters() {
        let mut c = cfg();
        c.faults = MultiFaultSchedule {
            corrupt_data: vec![(1, 3)],
            drop_data: vec![(0, 5), (2, 7), (2, 7)],
            drop_ack: vec![(3, 9)],
        };
        let mut s = MultiPilSession::new(three_nodes(), stages(), c, plant()).unwrap();
        let steps = 20u64;
        s.run(steps);
        let st = s.stats();
        assert_eq!(st.trajectory, replica_trajectory(steps));
        assert_eq!(st.failed_steps, 0);
        // retries = total fault multiplicities; timeouts = retries (no failures).
        assert_eq!(st.retries, 5);
        assert_eq!(st.timeouts, 5);
        assert_eq!(st.duplicate_acks, 1); // the dropped ACK forces one re-ACK
        assert_eq!(st.crc_rejected, 3); // corrupt DATA rejected at 3 listening deframers
        let b = s.bus_counters();
        assert_eq!(b.dropped_frames, 4);
        assert_eq!(b.corrupted_frames, 1);
        // extras: corrupt(1) + drop_data(3) + 2 x drop_ack(1).
        assert_eq!(b.frames_sent, steps * 11 + 1 + 3 + 2);
    }

    #[test]
    fn partition_trips_watchdog_then_recovers_semantics() {
        let mut c = cfg();
        // Isolate the PWM node (bus node 3) long enough to trip the
        // watchdog (3 consecutive failed steps), to the end of the run.
        c.partitions = vec![StepPartition { node: 3, from_step: 4, until_step: u64::MAX }];
        let mut s = MultiPilSession::new(three_nodes(), stages(), c, plant()).unwrap();
        let steps = 12u64;
        s.run(steps);
        let st = s.stats();
        assert!(s.is_degraded());
        assert_eq!(st.failed_steps, 3);
        assert_eq!(st.degraded_at_step, Some(7));
        assert_eq!(st.degraded_steps, steps - 7);
        // Stage 2 lives on the isolated node: it misses the 3 failed steps.
        assert_eq!(st.stage_execs, vec![steps, steps, steps - 3]);
        // Hop 2 (to node 3) exhausts its budget each failed step.
        assert_eq!(st.failed_hops, 3);
        assert_eq!(st.timeouts, st.retries + st.failed_hops);
        // Failed steps hold the previous actuation; fallback steps track
        // the replica exactly. Spot-check the held plateau.
        assert_eq!(st.trajectory[4], st.trajectory[3]);
        assert_eq!(st.trajectory[5], st.trajectory[3]);
        assert_eq!(st.trajectory[6], st.trajectory[3]);
        let replica = replica_trajectory(steps);
        assert_eq!(st.trajectory[7..], replica[7..]);
    }

    #[test]
    fn recovered_partition_is_bit_identical_after_rejoin() {
        let mut c = cfg();
        // 2 failed steps < watchdog threshold 3: the session never
        // degrades and the post-recovery trajectory realigns because the
        // stimulus is open-loop and stage state is linear in inputs seen.
        c.partitions = vec![StepPartition { node: 3, from_step: 4, until_step: 6 }];
        let mut s = MultiPilSession::new(three_nodes(), stages(), c, plant()).unwrap();
        let steps = 12u64;
        s.run(steps);
        let st = s.stats();
        assert!(!s.is_degraded());
        assert_eq!(st.failed_steps, 2);
        let replica = replica_trajectory(steps);
        assert_eq!(st.trajectory[..4], replica[..4]);
        assert_eq!(st.trajectory[6..], replica[6..]);
    }

    #[test]
    fn tracers_expose_one_lane_per_node_plus_bus_counters() {
        let mut c = cfg();
        c.trace_capacity = 1024;
        let mut s = MultiPilSession::new(three_nodes(), stages(), c, plant()).unwrap();
        s.run(5);
        let lanes = s.tracers();
        let names: Vec<&str> = lanes.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["pil.host", "node.sensor", "node.ctl", "node.pwm"]);
        let host = lanes[0].1;
        assert_eq!(host.counter_by_name("bus.frames"), Some(5 * 11));
        assert!(host.counter_by_name("bus.arbitration_losses").is_some());
        for (_, t) in &lanes[1..] {
            assert_eq!(t.counter_by_name("node.execs"), Some(5));
        }
    }

    #[test]
    fn config_validation_rejects_mismatched_chain() {
        let mut nodes = three_nodes();
        nodes[1].in_channels = 2;
        let Err(err) = MultiPilSession::new(nodes, stages(), cfg(), plant()) else {
            panic!("mismatched channel chain must be rejected");
        };
        assert!(err.contains("expects"));
        let mut c = cfg();
        c.hop_scales = vec![2.0];
        let Err(err) = MultiPilSession::new(three_nodes(), stages(), c, plant()) else {
            panic!("short hop_scales must be rejected");
        };
        assert!(err.contains("hop_scales"));
    }

    #[test]
    fn config_validation_rejects_a_deadline_of_one_exchange() {
        for arq in [ArqConfig::FIRE_AND_FORGET, ArqConfig { timeout_factor: f64::NAN, ..ArqConfig::default() }] {
            let c = MultiPilConfig { arq, ..cfg() };
            let Err(err) = MultiPilSession::new(three_nodes(), stages(), c, plant()) else {
                panic!("timeout_factor {} must be rejected", arq.timeout_factor);
            };
            assert!(err.contains("timeout_factor must exceed 1.0"), "{err}");
        }
    }
}
