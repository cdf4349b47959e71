//! Property-based tests for the executive: activation accounting and
//! profiling invariants under random loads.

use peert_mcu::board::{vectors, Mcu};
use peert_mcu::McuCatalog;
use peert_prop::{check, option_of, prop_assert, prop_assert_eq, prop_assume, within};
use peert_rtexec::Executive;

fn mcu_with_timer(period_cycles: u32) -> Mcu {
    let spec = McuCatalog::standard().find("MC56F8367").unwrap().clone();
    let mut mcu = Mcu::new(&spec);
    mcu.intc.configure(vectors::timer(0), 5);
    mcu.timers[0].configure(1, period_cycles).unwrap();
    mcu.timers[0].start(0);
    mcu
}

// each case simulates tens of ms of MCU time; keep the suite quick
/// No activation is ever unaccounted: rollovers = completed + lost +
/// (≤1 still pending).
#[test]
fn activations_plus_losses_equal_rollovers() {
    check(
        32,
        |rng| {
            (
                within(rng, 5_000u32..120_000),
                within(rng, 100u64..150_000),
                option_of(rng, |rng| within(rng, 1_000u64..200_000)),
                within(rng, 10u64..80),
            )
        },
        |(period, body, burst, run_ms)| {
            let mut exec = Executive::new(mcu_with_timer(period));
            exec.attach(vectors::timer(0), "t", body, 32, None);
            exec.set_background_burst(burst);
            exec.start();
            exec.run_for_secs(run_ms as f64 * 1e-3);
            let rollovers = exec.mcu.timers[0].rollovers();
            let done = exec.profile("t").unwrap().activations;
            let lost = exec.mcu.intc.lost_count();
            let pending = exec.mcu.intc.pending_count() as u64;
            prop_assert_eq!(
                rollovers,
                done + lost + pending,
                "rollovers {} = done {} + lost {} + pending {}",
                rollovers,
                done,
                lost,
                pending
            );
            Ok(())
        },
    );
}

/// Execution time is always exactly the configured body cost, and the
/// response time is never less than the ISR entry cost.
#[test]
fn profile_invariants_hold() {
    check(
        32,
        |rng| (within(rng, 100u64..50_000), option_of(rng, |rng| within(rng, 1_000u64..100_000))),
        |(body, burst)| {
            let mut exec = Executive::new(mcu_with_timer(60_000));
            exec.attach(vectors::timer(0), "t", body, 32, None);
            exec.set_background_burst(burst);
            exec.start();
            exec.run_for_secs(0.03);
            let p = exec.profile("t").unwrap();
            prop_assume!(p.activations > 0);
            prop_assert_eq!(p.exec_min(), body);
            prop_assert_eq!(p.exec_max(), body);
            let entry = exec.mcu.spec.cost_table().isr_entry as u64;
            prop_assert!(p.response_min() >= entry);
            if let Some(b) = burst {
                // non-preemption bound: response ≤ entry + burst (+ quantum slack)
                prop_assert!(p.response_max() <= entry + b + 1);
            }
            Ok(())
        },
    );
}

/// Utilization is in [0, 1] and grows monotonically with body cost at
/// a fixed period.
#[test]
fn utilization_is_bounded_and_monotone() {
    check(
        32,
        |rng| (within(rng, 500u64..20_000), within(rng, 1_000u64..30_000)),
        |(b1, extra)| {
            let util = |body: u64| {
                let mut exec = Executive::new(mcu_with_timer(60_000));
                exec.attach(vectors::timer(0), "t", body, 32, None);
                exec.start();
                exec.run_for_secs(0.02);
                exec.report().utilization()
            };
            let u1 = util(b1);
            let u2 = util(b1 + extra);
            prop_assert!((0.0..=1.0).contains(&u1));
            prop_assert!((0.0..=1.0).contains(&u2));
            prop_assert!(u2 >= u1 - 1e-9, "more work, more utilization: {u1} vs {u2}");
            Ok(())
        },
    );
}

/// The stack never overflows for loads within capacity, and its
/// high-water mark equals isr frame + task bytes.
#[test]
fn stack_high_water_is_exact() {
    check(
        32,
        |rng| within(rng, 0u32..500),
        |task_bytes| {
            let mut exec = Executive::new(mcu_with_timer(60_000));
            exec.attach(vectors::timer(0), "t", 1_000, task_bytes, None);
            exec.start();
            exec.run_for_secs(0.01);
            let expect = exec.mcu.spec.cost_table().isr_frame_bytes + task_bytes;
            let report = exec.report();
            prop_assert_eq!(report.stack_high_water, expect);
            prop_assert_eq!(report.stack_overflow, expect > exec.mcu.stack.capacity());
            Ok(())
        },
    );
}

mod idle_jump {
    //! The executive crosses idle time in one window per peripheral
    //! event. This pins it against the loop it replaced: a reference
    //! that polls an idle CPU every quantum, kept only here.

    use peert_mcu::board::{vectors, Mcu};
    use peert_mcu::interrupt::IrqVector;
    use peert_mcu::peripherals::adc::AdcMode;
    use peert_mcu::peripherals::pwm::PwmAlign;
    use peert_mcu::{Cycles, McuCatalog};
    use peert_prop::{any, check, prop_assert_eq, vec_of, within, Rng};
    use peert_rtexec::{Executive, ProfileReport, TaskProfile};
    use peert_trace::EventKind;
    use std::collections::BTreeMap;

    /// The vectors a case may wire, each to a task or left spurious.
    fn wired() -> [IrqVector; 6] {
        [
            vectors::timer(0),
            vectors::timer(1),
            vectors::pwm(0),
            vectors::adc(0),
            vectors::sci_rx(0),
            vectors::sci_tx(0),
        ]
    }

    /// Stimulus applied at the start of one `run_until` segment.
    #[derive(Clone, Debug)]
    struct Segment {
        /// Cycles from the previous target to this one.
        span: u64,
        /// Inbound SCI bytes, as offsets from the segment start (in
        /// any order: the SCI delivers them in queue order).
        rx: Vec<u64>,
        /// Outbound SCI bytes queued at the segment start.
        tx: usize,
        /// Start an ADC conversion at the segment start.
        adc: bool,
    }

    #[derive(Clone, Debug)]
    struct Case {
        /// `(prescaler, modulo)` of each running timer.
        timers: Vec<(u32, u32)>,
        /// PWM `(period counts, center aligned, reload interrupt)`.
        pwm: Option<(u32, bool, bool)>,
        /// ADC `(conversion cycles, continuous)`.
        adc: (u64, bool),
        /// SCI in synchronous (SPI) mode rather than RS-232.
        sync: bool,
        /// SCI `(receive, transmit)` interrupt enables.
        sci_irqs: (bool, bool),
        /// Per wired vector: priority, and the task body (None = spurious).
        irqs: Vec<(u8, Option<u64>)>,
        burst: Option<u64>,
        quantum: u64,
        segments: Vec<Segment>,
    }

    fn case(rng: &mut Rng) -> Case {
        Case {
            timers: vec_of(rng, 0..3, |rng| (within(rng, 1u32..4), within(rng, 200u32..30_000))),
            pwm: if any(rng) {
                Some((within(rng, 300u32..20_000), any(rng), any(rng)))
            } else {
                None
            },
            adc: (within(rng, 50u64..5_000), any(rng)),
            sync: any(rng),
            sci_irqs: (any(rng), any(rng)),
            irqs: (0..wired().len())
                .map(|_| {
                    let body = if rng.below(4) == 0 { None } else { Some(within(rng, 1u64..4_000)) };
                    (within(rng, 1u8..4), body)
                })
                .collect(),
            burst: if rng.below(4) == 0 { Some(within(rng, 100u64..20_000)) } else { None },
            quantum: [1, 5, 20, 200][rng.below(4) as usize],
            segments: vec_of(rng, 1..5, |rng| Segment {
                span: within(rng, 1u64..60_000),
                rx: vec_of(rng, 0..6, |rng| within(rng, 0u64..40_000)),
                tx: within(rng, 0usize..4),
                adc: any(rng),
            }),
        }
    }

    fn name(v: IrqVector) -> String {
        format!("v{:02x}", v.0)
    }

    /// The chip a case configures, before any task runs.
    fn board(c: &Case) -> Mcu {
        let spec = McuCatalog::standard().find("MC56F8367").unwrap().clone();
        let mut mcu = Mcu::new(&spec);
        for (i, &(prescaler, modulo)) in c.timers.iter().enumerate() {
            mcu.timers[i].configure(prescaler, modulo).unwrap();
            mcu.timers[i].start(0);
        }
        if let Some((period, center, irq)) = c.pwm {
            let align = if center { PwmAlign::Center } else { PwmAlign::Edge };
            mcu.pwms[0].configure(1, period, 0, align).unwrap();
            mcu.pwms[0].set_reload_irq(irq);
            mcu.pwms[0].enable(0);
        }
        let mode = if c.adc.1 { AdcMode::Continuous } else { AdcMode::Single };
        mcu.adcs[0].configure(12, 0.0, 3.3, c.adc.0, mode).unwrap();
        if c.sync {
            mcu.scis[0].configure_sync(2_000_000).unwrap();
        } else {
            mcu.scis[0].configure(115_200, 1, false).unwrap();
        }
        mcu.scis[0].set_irqs(c.sci_irqs.0, c.sci_irqs.1);
        for (&v, &(priority, _)) in wired().iter().zip(&c.irqs) {
            mcu.intc.configure(v, priority);
        }
        mcu
    }

    /// Apply a segment's stimulus at the chip's current time.
    fn stimulate(mcu: &mut Mcu, s: &Segment) {
        let now = mcu.now();
        for &at in &s.rx {
            mcu.scis[0].inject_rx(0x5A, now + at);
        }
        for _ in 0..s.tx {
            mcu.scis[0].send(0xA5, now);
        }
        if s.adc {
            mcu.adcs[0].start_conversion(now);
        }
    }

    /// The CPU loop with an idle CPU polling every quantum.
    struct Polling {
        mcu: Mcu,
        tasks: BTreeMap<u16, (String, Cycles)>,
        burst: Option<Cycles>,
        quantum: Cycles,
        profiles: BTreeMap<String, TaskProfile>,
        idle: Cycles,
        background: Cycles,
        /// `(vector, asserted_at, dispatched_at)` of every task dispatch.
        dispatches: Vec<(u16, Cycles, Cycles)>,
    }

    const STACK: u32 = 16;

    impl Polling {
        fn run_until(&mut self, until: Cycles) {
            while self.mcu.now() < until {
                let now = self.mcu.now();
                if let Some(d) = self.mcu.intc.dispatch(now) {
                    let table = self.mcu.spec.cost_table();
                    let Some((name, cycles)) = self.tasks.get(&d.vector.0) else {
                        self.mcu.advance((table.isr_entry + table.isr_exit) as Cycles);
                        continue;
                    };
                    self.mcu.stack.push(table.isr_frame_bytes + STACK);
                    let start = now + table.isr_entry as Cycles;
                    let finish = start + cycles;
                    self.mcu.advance_to(finish + table.isr_exit as Cycles);
                    self.mcu.stack.pop(table.isr_frame_bytes + STACK);
                    self.profiles.get_mut(name).unwrap().record(d.asserted_at, start, finish);
                    self.dispatches.push((d.vector.0, d.asserted_at, now));
                } else if let Some(burst) = self.burst {
                    self.mcu.advance(burst);
                    self.background += burst;
                } else {
                    self.mcu.advance(self.quantum);
                    self.idle += self.quantum;
                }
            }
        }

        fn report(&self) -> ProfileReport {
            ProfileReport {
                tasks: self.profiles.clone(),
                stack_high_water: self.mcu.stack.high_water(),
                stack_overflow: self.mcu.stack.overflowed(),
                lost_interrupts: self.mcu.intc.lost_count(),
                idle_cycles: self.idle,
                background_cycles: self.background,
                total_cycles: self.mcu.now(),
            }
        }
    }

    /// The executive's dispatch sequence, read back from its trace: an
    /// `irq.<task>` instant at the assert, then the `task.<task>` span
    /// opening one ISR entry after the dispatch.
    fn traced_dispatches(exec: &Executive) -> Vec<(u16, Cycles, Cycles)> {
        let entry = exec.mcu.spec.cost_table().isr_entry as Cycles;
        let tracer = exec.tracer();
        let mut asserted = 0;
        let mut out = Vec::new();
        for r in tracer.records() {
            match r.kind {
                EventKind::Instant => asserted = r.ts,
                EventKind::SpanBegin => {
                    let hex = tracer.name(r.id).strip_prefix("task.v").unwrap();
                    out.push((u16::from_str_radix(hex, 16).unwrap(), asserted, r.ts - entry));
                }
                EventKind::SpanEnd => {}
            }
        }
        out
    }

    /// Same dispatch instants and order, the same chip state (every
    /// peripheral, the pending requests with their sequence numbers,
    /// lost interrupts, the stack), the same `idle_cycles` and the same
    /// `report()` as the polling loop — over random timer, PWM, ADC and
    /// SCI traffic (PWM and SCI interrupts on or off), background bursts
    /// and idle quanta {1, 5, 20, 200}.
    #[test]
    fn idle_jumps_match_the_polling_loop_exactly() {
        check(48, case, |c| {
            let mut exec = Executive::new(board(&c));
            let mut reference = Polling {
                mcu: board(&c),
                tasks: BTreeMap::new(),
                burst: c.burst,
                quantum: c.quantum,
                profiles: BTreeMap::new(),
                idle: 0,
                background: 0,
                dispatches: Vec::new(),
            };
            for (&v, &(_, body)) in wired().iter().zip(&c.irqs) {
                if let Some(cycles) = body {
                    exec.attach(v, &name(v), cycles, STACK, None);
                    reference.tasks.insert(v.0, (name(v), cycles));
                    reference.profiles.insert(name(v), TaskProfile::default());
                }
            }
            exec.set_background_burst(c.burst);
            exec.set_idle_quantum(c.quantum);
            exec.enable_trace(1 << 16);
            exec.start();
            reference.mcu.intc.set_global_enable(true);

            let mut until = 0;
            for s in &c.segments {
                stimulate(&mut exec.mcu, s);
                stimulate(&mut reference.mcu, s);
                until += s.span;
                exec.run_until(until);
                reference.run_until(until);
                prop_assert_eq!(exec.mcu.now(), reference.mcu.now());
            }
            prop_assert_eq!(exec.tracer().dropped(), 0);
            prop_assert_eq!(traced_dispatches(&exec), reference.dispatches);
            prop_assert_eq!(exec.report().idle_cycles, reference.idle);
            prop_assert_eq!(format!("{:?}", exec.report()), format!("{:?}", reference.report()));
            prop_assert_eq!(format!("{:?}", exec.mcu), format!("{:?}", reference.mcu));
            Ok(())
        });
    }
}
