//! The PEERT runtime scheduler on the simulated MCU.
//!
//! §5's task architecture, verbatim: periodic model code runs
//! *non-preemptively* inside the timer interrupt; asynchronous
//! function-call subsystems run inside the ISRs of their triggering
//! events; a manually written background task consumes the remaining CPU.
//! Because execution is non-preemptive, any running task delays the
//! dispatch of the next interrupt — the source of the response-time and
//! jitter effects E7 measures.

use crate::profile::{ProfileReport, TaskProfile};
use peert_mcu::board::Mcu;
use peert_mcu::interrupt::IrqVector;
use peert_mcu::Cycles;
use peert_trace::{ClockDomain, EventId, Tracer};
use std::collections::HashMap;

/// Functional work attached to a task: called once per completed
/// activation with the completion time. This is where the co-simulation
/// harness steps the controller model — semantically the generated code.
pub type TaskWork = Box<dyn FnMut(Cycles) + Send>;

struct IsrTask {
    name: String,
    cycles: Cycles,
    stack_bytes: u32,
    work: Option<TaskWork>,
    /// Trace ids for this task's span (`task.<name>`) and its interrupt
    /// assertion instant (`irq.<name>`).
    span_id: EventId,
    irq_id: EventId,
}

/// The executive: ISR task table + optional background task on one MCU.
pub struct Executive {
    /// The chip this executive runs on.
    pub mcu: Mcu,
    tasks: HashMap<u16, IsrTask>,
    /// Background task burst length in cycles (None = pure idle loop).
    background_burst: Option<Cycles>,
    /// Dispatch granularity while idle (models the main-loop poll
    /// length): an idle CPU notices a request at the first poll boundary
    /// after it is asserted.
    idle_quantum: Cycles,
    profiles: HashMap<String, TaskProfile>,
    idle_cycles: Cycles,
    background_cycles: Cycles,
    started_at: Cycles,
    tracer: Tracer,
}

impl Executive {
    /// New executive over a configured MCU.
    pub fn new(mcu: Mcu) -> Self {
        Executive {
            mcu,
            tasks: HashMap::new(),
            background_burst: None,
            idle_quantum: 20,
            profiles: HashMap::new(),
            idle_cycles: 0,
            background_cycles: 0,
            started_at: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Enable event tracing with a ring of `capacity` records, stamped in
    /// simulated MCU cycles. Safe to call before or after [`attach`]
    /// (existing tasks are re-registered); call with 0 to disable again.
    ///
    /// [`attach`]: Executive::attach
    pub fn enable_trace(&mut self, capacity: usize) {
        let bus_hz = self.mcu.clock.bus_hz();
        self.tracer = Tracer::new(capacity, ClockDomain::SimCycles { bus_hz });
        for task in self.tasks.values_mut() {
            task.span_id = self.tracer.register(&format!("task.{}", task.name));
            task.irq_id = self.tracer.register(&format!("irq.{}", task.name));
        }
    }

    /// The executive's tracer (disabled unless [`enable_trace`] was
    /// called).
    ///
    /// [`enable_trace`]: Executive::enable_trace
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the tracer, so co-simulation layers sharing the
    /// board timeline can register their own events on it.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Declare the nominal activation period of task `name` in cycles, so
    /// its profile records per-activation sampling jitter.
    pub fn set_nominal_period(&mut self, name: &str, period: Cycles) {
        if let Some(p) = self.profiles.get_mut(name) {
            p.set_nominal_period(period);
        }
    }

    /// Attach an ISR task to an interrupt vector. `cycles` is the task
    /// body cost (ISR entry/exit overhead is charged by the executive),
    /// `work` the functional side effect per activation.
    pub fn attach(
        &mut self,
        vector: IrqVector,
        name: &str,
        cycles: Cycles,
        stack_bytes: u32,
        work: Option<TaskWork>,
    ) {
        let span_id = self.tracer.register(&format!("task.{name}"));
        let irq_id = self.tracer.register(&format!("irq.{name}"));
        self.tasks.insert(
            vector.0,
            IsrTask { name: name.to_string(), cycles, stack_bytes, work, span_id, irq_id },
        );
        self.profiles.entry(name.to_string()).or_default();
    }

    /// Configure the background task: each iteration runs `burst` cycles
    /// with interrupts held off (non-preemptive §5) — the knob E7 sweeps.
    pub fn set_background_burst(&mut self, burst: Option<Cycles>) {
        self.background_burst = burst;
    }

    /// Set the idle-loop poll granularity in cycles.
    pub fn set_idle_quantum(&mut self, q: Cycles) {
        self.idle_quantum = q.max(1);
    }

    /// Enable interrupts and mark the profiling epoch (the end of the
    /// generated `main()` init section).
    pub fn start(&mut self) {
        self.mcu.intc.set_global_enable(true);
        self.started_at = self.mcu.now();
    }

    /// Run the CPU loop until absolute cycle `until` (it stops at the
    /// first ISR, burst or idle-poll boundary at or after it).
    ///
    /// Idle time is event-driven, like `SimBus::advance_next` on the CAN
    /// bus: the loop jumps from one [`Mcu::next_event`] to the next
    /// instead of polling every quantum, and lands on exactly the
    /// instants, request order and cycle counts of the polling loop.
    pub fn run_until(&mut self, until: Cycles) {
        while self.mcu.now() < until {
            let now = self.mcu.now();
            if let Some(d) = self.mcu.intc.dispatch(now) {
                let table = self.mcu.spec.cost_table();
                let Some(task) = self.tasks.get_mut(&d.vector.0) else {
                    // spurious vector: charge entry/exit only
                    self.mcu.advance((table.isr_entry + table.isr_exit) as Cycles);
                    continue;
                };
                self.mcu.stack.push(table.isr_frame_bytes + task.stack_bytes);
                let start = now + table.isr_entry as Cycles;
                let finish = start + task.cycles;
                if self.tracer.is_enabled() {
                    self.tracer.instant(task.irq_id, d.asserted_at);
                    self.tracer.begin(task.span_id, start);
                    self.tracer.end(task.span_id, finish);
                }
                // the ISR body runs with further dispatch held off
                self.mcu.advance_to(finish + table.isr_exit as Cycles);
                if let Some(work) = task.work.as_mut() {
                    work(finish);
                }
                self.mcu.stack.pop(table.isr_frame_bytes + task.stack_bytes);
                self.profiles
                    .get_mut(&task.name)
                    .expect("profile registered with the task")
                    .record(d.asserted_at, start, finish);
            } else if let Some(burst) = self.background_burst {
                // one non-preemptible background iteration
                self.mcu.advance(burst);
                self.background_cycles += burst;
            } else {
                // Idle: the main loop polls every quantum, but nothing can
                // be dispatched before the next peripheral event. Cross
                // all empty polls in one window to the first quantum
                // boundary at or after that event (or `until`): the same
                // instant polling reaches, with every event of the window
                // in its last quantum, as in one poll.
                let q = self.idle_quantum;
                let target = self.mcu.next_event().map_or(until, |e| e.min(until));
                let polls = target.saturating_sub(now).div_ceil(q).max(1);
                self.mcu.advance(polls * q);
                self.idle_cycles += polls * q;
            }
        }
    }

    /// Run for a duration in seconds.
    pub fn run_for_secs(&mut self, secs: f64) {
        let cycles = self.mcu.clock.secs_to_cycles(secs);
        let until = self.mcu.now() + cycles;
        self.run_until(until);
    }

    /// Profiling report for the run so far.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            tasks: self.profiles.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            stack_high_water: self.mcu.stack.high_water(),
            stack_overflow: self.mcu.stack.overflowed(),
            lost_interrupts: self.mcu.intc.lost_count(),
            idle_cycles: self.idle_cycles,
            background_cycles: self.background_cycles,
            total_cycles: self.mcu.now() - self.started_at,
        }
    }

    /// The profile of one task.
    pub fn profile(&self, name: &str) -> Option<&TaskProfile> {
        self.profiles.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peert_mcu::board::vectors;
    use peert_mcu::McuCatalog;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn mcu_1khz_timer() -> Mcu {
        let spec = McuCatalog::standard().find("MC56F8367").unwrap().clone();
        let mut mcu = Mcu::new(&spec);
        mcu.intc.configure(vectors::timer(0), 5);
        mcu.timers[0].configure(1, 60_000).unwrap(); // 1 kHz at 60 MHz
        mcu.timers[0].start(0);
        mcu
    }

    #[test]
    fn periodic_task_runs_at_the_timer_rate() {
        let mut exec = Executive::new(mcu_1khz_timer());
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        exec.attach(
            vectors::timer(0),
            "ctl",
            3000, // 50 µs body
            64,
            Some(Box::new(move |_t| {
                c.fetch_add(1, Ordering::SeqCst);
            })),
        );
        exec.start();
        exec.run_for_secs(0.1);
        let n = count.load(Ordering::SeqCst);
        assert!((99..=101).contains(&n), "≈100 activations in 100 ms, got {n}");
        let p = exec.profile("ctl").unwrap();
        assert_eq!(p.exec_min(), 3000);
        assert_eq!(p.exec_max(), 3000);
    }

    #[test]
    fn idle_system_has_low_response_latency_and_jitter() {
        let mut exec = Executive::new(mcu_1khz_timer());
        exec.attach(vectors::timer(0), "ctl", 3000, 64, None);
        exec.start();
        exec.run_for_secs(0.05);
        let p = exec.profile("ctl").unwrap();
        let entry = exec.mcu.spec.cost_table().isr_entry as u64;
        assert!(p.response_max() <= exec.mcu.spec.cost_table().isr_entry as u64 + 20 + 1,
            "idle response bounded by quantum+entry, got {}", p.response_max());
        assert!(p.start_jitter(60_000) <= 20 + entry);
    }

    #[test]
    fn background_load_inflates_response_and_jitter() {
        let mut quiet = Executive::new(mcu_1khz_timer());
        quiet.attach(vectors::timer(0), "ctl", 3000, 64, None);
        quiet.start();
        quiet.run_for_secs(0.05);

        let mut busy = Executive::new(mcu_1khz_timer());
        busy.attach(vectors::timer(0), "ctl", 3000, 64, None);
        busy.set_background_burst(Some(30_000)); // 0.5 ms non-preemptible bursts
        busy.start();
        busy.run_for_secs(0.05);

        let rq = quiet.profile("ctl").unwrap().response_max();
        let rb = busy.profile("ctl").unwrap().response_max();
        assert!(rb > 10 * rq, "long bursts delay the timer ISR: {rb} vs {rq}");
        assert!(
            busy.profile("ctl").unwrap().start_jitter(60_000)
                > quiet.profile("ctl").unwrap().start_jitter(60_000)
        );
    }

    #[test]
    fn overload_loses_activations() {
        let mut exec = Executive::new(mcu_1khz_timer());
        // 1.5 ms body on a 1 ms period: permanent overrun
        exec.attach(vectors::timer(0), "ctl", 90_000, 64, None);
        exec.start();
        exec.run_for_secs(0.05);
        let report = exec.report();
        assert!(report.lost_interrupts > 0, "missed rollovers under overload");
        let p = exec.profile("ctl").unwrap();
        assert!(p.activations < 50);
    }

    #[test]
    fn event_task_runs_on_its_interrupt() {
        let spec = McuCatalog::standard().find("MC56F8367").unwrap().clone();
        let mut mcu = Mcu::new(&spec);
        mcu.intc.configure(vectors::adc(0), 4);
        let mut exec = Executive::new(mcu);
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        exec.attach(
            vectors::adc(0),
            "adc_eoc",
            500,
            32,
            Some(Box::new(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            })),
        );
        exec.start();
        exec.run_until(100);
        // fire the ADC end-of-conversion by hand at t=100
        exec.mcu.intc.request(vectors::adc(0), 100);
        exec.run_until(10_000);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stack_accounting_reaches_the_report() {
        let mut exec = Executive::new(mcu_1khz_timer());
        exec.attach(vectors::timer(0), "ctl", 1000, 100, None);
        exec.start();
        exec.run_for_secs(0.01);
        let report = exec.report();
        let expect = exec.mcu.spec.cost_table().isr_frame_bytes + 100;
        assert_eq!(report.stack_high_water, expect);
        assert!(!report.stack_overflow);
    }

    #[test]
    fn trace_records_task_spans_and_irq_instants() {
        let mut exec = Executive::new(mcu_1khz_timer());
        exec.attach(vectors::timer(0), "ctl", 3000, 64, None);
        exec.enable_trace(1 << 12);
        exec.start();
        exec.run_for_secs(0.01); // ≈10 activations
        let p = exec.profile("ctl").unwrap();
        let begins = exec
            .tracer()
            .records()
            .filter(|r| r.kind == peert_trace::EventKind::SpanBegin)
            .count() as u64;
        let instants = exec
            .tracer()
            .records()
            .filter(|r| r.kind == peert_trace::EventKind::Instant)
            .count() as u64;
        assert_eq!(begins, p.activations, "one span per activation");
        assert_eq!(instants, p.activations, "one irq instant per activation");
        // spans begin at the profile's recorded starts: sim-cycle domain
        assert!(matches!(
            exec.tracer().domain(),
            peert_trace::ClockDomain::SimCycles { .. }
        ));
    }

    #[test]
    fn enable_trace_after_attach_registers_existing_tasks() {
        let mut exec = Executive::new(mcu_1khz_timer());
        exec.attach(vectors::timer(0), "ctl", 1000, 16, None);
        exec.enable_trace(64);
        exec.start();
        exec.run_for_secs(0.005);
        let names: Vec<&str> = exec
            .tracer()
            .records()
            .map(|r| exec.tracer().name(r.id))
            .collect();
        assert!(names.contains(&"task.ctl"), "task span registered: {names:?}");
        assert!(names.contains(&"irq.ctl"), "irq instant registered: {names:?}");
    }

    #[test]
    fn utilization_grows_with_task_cost() {
        let mut light = Executive::new(mcu_1khz_timer());
        light.attach(vectors::timer(0), "ctl", 600, 16, None);
        light.start();
        light.run_for_secs(0.05);
        let mut heavy = Executive::new(mcu_1khz_timer());
        heavy.attach(vectors::timer(0), "ctl", 30_000, 16, None);
        heavy.start();
        heavy.run_for_secs(0.05);
        assert!(heavy.report().utilization() > light.report().utilization() + 0.3);
    }
}
