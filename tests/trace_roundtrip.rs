//! Acceptance: with tracing enabled, a MIL→PIL servo run exports a Chrome
//! `trace_event` JSON that round-trips (valid JSON, balanced B/E spans,
//! monotonic timestamps) plus a metrics JSON carrying p50/p95/p99 sampling
//! jitter for the control task.

use peert::servo::ServoOptions;
use peert::workflow::{make_pil_session_resilient, run_development_cycle_traced};
use peert_control::setpoint::SetpointProfile;
use peert_mcu::McuCatalog;
use peert_pil::cosim::LinkKind;
use peert_pil::{
    ArqConfig, FaultSchedule, MultiFaultSchedule, MultiPilConfig, MultiPilSession, NodeSpec,
};
use peert_trace::{chrome_trace_json, JsonValue, MetricsReport};

fn opts() -> ServoOptions {
    let mut o = ServoOptions {
        setpoint: SetpointProfile::from(0.0).at(0.02, 150.0),
        load_step: None,
        ..Default::default()
    };
    o.control_period_s = 2e-3; // 500 Hz fits the 115200-baud line budget
    o.pid.ts = 2e-3;
    o
}

#[test]
fn traced_cycle_exports_a_loadable_chrome_trace_and_jitter_metrics() {
    let (report, trace) =
        run_development_cycle_traced(&opts(), "MC56F8367", 115_200, 0.2).unwrap();
    assert!(report.pil.steps > 50, "the cycle actually ran");

    // --- Chrome trace: parse it back with the crate's own parser ---
    let events = JsonValue::parse(&trace.chrome_json).expect("valid JSON");
    let events = events.as_array().expect("trace_event array format");
    assert!(events.len() > 100, "all three processes contributed events");

    // process metadata for workflow, MIL engine and PIL board timelines
    let process_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert_eq!(process_names, ["workflow", "mil.engine", "pil.board"]);

    // per pid: B/E balanced, never negative, timestamps monotonic
    for pid in 1..=3u64 {
        let mut depth = 0i64;
        let mut last_ts = f64::NEG_INFINITY;
        let mut n = 0u64;
        for e in events.iter().filter(|e| e.get("pid").and_then(|p| p.as_u64()) == Some(pid)) {
            if let Some(ts) = e.get("ts").and_then(|t| t.as_f64()) {
                assert!(ts >= last_ts, "pid {pid}: ts went backwards ({last_ts} -> {ts})");
                last_ts = ts;
                n += 1;
            }
            match e.get("ph").and_then(|p| p.as_str()).unwrap() {
                "B" => depth += 1,
                "E" => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "pid {pid}: E before its B");
        }
        assert_eq!(depth, 0, "pid {pid}: unbalanced spans");
        assert!(n > 0, "pid {pid}: no timestamped events");
    }

    // the workflow phases appear as named spans
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("B"))
        .filter_map(|e| e.get("name")?.as_str())
        .collect();
    for phase in ["phase.mil", "phase.codegen", "phase.pil"] {
        assert!(span_names.contains(&phase), "missing workflow span {phase}");
    }
    assert!(span_names.contains(&"pil.rx"), "board packet spans exported");

    // --- metrics: sampling-jitter quantiles for the control task ---
    let metrics = JsonValue::parse(&trace.metrics_json).expect("valid metrics JSON");
    let jitter = metrics
        .get("histograms")
        .and_then(|h| h.get("pil.ctl.sampling_jitter_us"))
        .expect("pil.ctl.sampling_jitter_us summary present");
    for q in ["p50", "p95", "p99", "max", "count"] {
        let v = jitter.get(q).and_then(|v| v.as_f64());
        assert!(v.is_some(), "jitter summary has {q}");
        assert!(v.unwrap() >= 0.0);
    }
    let count = jitter.get("count").unwrap().as_u64().unwrap();
    assert_eq!(count, report.pil.steps - 1, "one jitter sample per period pair");
    // quantiles are ordered
    let p50 = jitter.get("p50").unwrap().as_f64().unwrap();
    let p99 = jitter.get("p99").unwrap().as_f64().unwrap();
    let max = jitter.get("max").unwrap().as_f64().unwrap();
    assert!(p50 <= p99 && p99 <= max);

    // exec-time summary rides along, scaled to microseconds
    let exec = metrics.get("histograms").and_then(|h| h.get("pil.ctl.exec_us")).unwrap();
    assert!(exec.get("p50").unwrap().as_f64().unwrap() > 0.0);

    // counters from both instrumented layers survive the export
    let counters = metrics.get("counters").unwrap();
    assert!(counters.get("mil.engine.engine.block_evals").unwrap().as_u64().unwrap() > 0);
    assert!(counters.get("pil.board.pil.line_cycles").unwrap().as_u64().unwrap() > 0);
}

#[test]
fn fixed_point_traced_cycle_exports_the_quantization_certificate_counters() {
    // a fixed-point cycle additionally exports the certified error
    // analysis: site count, certified ports, and the worst bound
    let mut o = opts();
    o.arithmetic = peert::servo::ControllerArithmetic::FixedQ15 { scale: 256.0 };
    let (_report, trace) =
        run_development_cycle_traced(&o, "MC56F8367", 115_200, 0.1).unwrap();
    let metrics = JsonValue::parse(&trace.metrics_json).expect("valid metrics JSON");
    let counters = metrics.get("counters").unwrap();
    let sites = counters.get("lint.quant.sites").and_then(|v| v.as_u64());
    assert!(sites.unwrap_or(0) > 0, "quantization sites counted: {sites:?}");
    let ports = counters.get("lint.quant.ports").and_then(|v| v.as_u64());
    assert_eq!(ports, Some(1), "the servo controller has one output port");
    assert!(
        counters.get("lint.quant.ports_certified").and_then(|v| v.as_u64()).is_some(),
        "certified-port counter exported"
    );
    // present even when nothing was certifiable (the servo diagram's
    // hardware bean blocks have no numeric transfer, so ∞ renders null)
    let worst = metrics.get("meta").and_then(|m| m.get("lint.quant.worst_bound"));
    assert!(worst.is_some(), "worst certified bound exported");

    // the float cycle exports none of these
    let (_report, trace) =
        run_development_cycle_traced(&opts(), "MC56F8367", 115_200, 0.1).unwrap();
    let metrics = JsonValue::parse(&trace.metrics_json).expect("valid metrics JSON");
    assert!(metrics.get("counters").unwrap().get("lint.quant.sites").is_none());
}

#[test]
fn arq_counters_round_trip_through_both_exporters() {
    // a resilient session with under-budget faults early (retries that
    // recover) and an over-budget burst late (watchdog trips, the tail
    // degrades to the host fallback)
    let arq = ArqConfig::default(); // budget 3, watchdog 3
    let steps: u64 = 60;
    let burst: Vec<u64> =
        [40u64, 41, 42].iter().flat_map(|&s| std::iter::repeat_n(s, 4)).collect();
    let mut corrupt = vec![5, 5, 20];
    corrupt.extend(burst);
    let faults = FaultSchedule {
        corrupt_steps: corrupt,
        drop_reply_steps: vec![12],
        ..Default::default()
    };
    let (mut session, _log) = make_pil_session_resilient(
        &opts(),
        "MC56F8367",
        LinkKind::Spi { clock_hz: 2_000_000 },
        faults,
        arq,
        1 << 14,
    )
    .unwrap();
    session.run(steps).unwrap();
    let stats = session.stats().clone();
    // schedule-derived expectations: 4 recovered faults + 3×3 burst
    // retries; each burst step adds one extra timeout; fallback owns the
    // tail from step 43
    assert_eq!(stats.retries, 4 + 9);
    assert_eq!(stats.timeouts, stats.retries + 3);
    assert_eq!(stats.degraded_at_step, Some(43));
    assert_eq!(stats.degraded_steps, steps - 43);
    assert_eq!(stats.duplicate_replies, 1);
    assert!(session.is_degraded());

    // --- metrics exporter: the ARQ counters survive with their values ---
    let board = session.executive().tracer();
    let mut m = MetricsReport::new();
    m.absorb_counters("pil.board.", board);
    let metrics = JsonValue::parse(&m.to_json()).expect("valid metrics JSON");
    let counters = metrics.get("counters").unwrap();
    let counter = |name: &str| counters.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
    assert_eq!(counter("pil.board.pil.retries"), stats.retries);
    assert_eq!(counter("pil.board.pil.timeouts"), stats.timeouts);
    assert_eq!(counter("pil.board.pil.degraded_steps"), stats.degraded_steps);
    assert_eq!(counter("pil.board.pil.duplicate_replies"), stats.duplicate_replies);
    assert_eq!(counter("pil.board.pil.failed_exchanges"), stats.failed_exchanges);

    // --- Chrome exporter: one balanced retry span per retransmission ---
    let chrome = chrome_trace_json(&[("pil.board", board)]);
    let events = JsonValue::parse(&chrome).expect("valid chrome JSON");
    let events = events.as_array().unwrap();
    let phase_count = |name: &str, ph: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some(ph)
                    && e.get("name").and_then(|n| n.as_str()) == Some(name)
            })
            .count() as u64
    };
    assert_eq!(phase_count("pil.retry", "B"), stats.retries);
    // `E` events carry no name in the trace_event format, so prove each
    // retry span *closes* by replaying the LIFO discipline: every pop
    // that matches a `pil.retry` begin is one closed retry span
    let mut stack: Vec<&str> = Vec::new();
    let mut closed_retries = 0u64;
    for e in events {
        match e.get("ph").and_then(|p| p.as_str()).unwrap() {
            "B" => stack.push(e.get("name").and_then(|n| n.as_str()).unwrap()),
            "E" => {
                let name = stack.pop().expect("E before its B in the board trace");
                if name == "pil.retry" {
                    closed_retries += 1;
                }
            }
            _ => {}
        }
    }
    assert!(stack.is_empty(), "unbalanced spans in the board trace");
    assert_eq!(closed_retries, stats.retries, "every retry span is closed");
}

/// Golden shape for the multi-node (distributed PIL over the simulated
/// CAN bus) trace: one Chrome process lane per bus node plus the host
/// lane carrying the `bus.*` counters.
#[test]
fn multi_node_trace_exports_one_process_lane_per_node_plus_bus_counters() {
    let spec = McuCatalog::standard().find("MC56F8367").unwrap().clone();
    let mk = |name: &str, cycles: u64| NodeSpec {
        name: name.into(),
        mcu: spec.clone(),
        step_cycles: cycles,
        in_channels: 1,
        out_channels: 1,
    };
    let nodes = vec![mk("sensor", 400), mk("ctl", 900), mk("pwm", 300)];
    let stages: Vec<peert_pil::StageFn> = vec![
        Box::new(|ins: &[f64]| vec![ins[0] * 0.5]),
        Box::new(|ins: &[f64]| vec![ins[0] * -0.8]),
        Box::new(|ins: &[f64]| vec![ins[0] * 0.9]),
    ];
    let cfg = MultiPilConfig {
        control_period_s: 10e-3,
        hop_scales: vec![2.0; 4],
        trace_capacity: 1 << 12,
        // one recovered drop so the retransmit counter is non-zero
        faults: MultiFaultSchedule { drop_data: vec![(2, 3)], ..Default::default() },
        ..Default::default()
    };
    let mut k = 0u64;
    let plant = Box::new(move |_applied: &[f64], _dt: f64| {
        k += 1;
        vec![((k % 23) as f64 / 23.0) - 0.5]
    });
    let steps = 10u64;
    let mut session = MultiPilSession::new(nodes, stages, cfg, plant).unwrap();
    session.run(steps);

    let chrome = chrome_trace_json(&session.tracers());
    let events = JsonValue::parse(&chrome).expect("valid chrome JSON");
    let events = events.as_array().expect("trace_event array format");

    // --- golden lane set: host first, then one lane per bus node ---
    let process_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert_eq!(process_names, ["pil.host", "node.sensor", "node.ctl", "node.pwm"]);

    // --- per lane: balanced spans, monotonic timestamps ---
    for pid in 1..=4u64 {
        let mut depth = 0i64;
        let mut last_ts = f64::NEG_INFINITY;
        let mut spans = 0u64;
        for e in events.iter().filter(|e| e.get("pid").and_then(|p| p.as_u64()) == Some(pid)) {
            if let Some(ts) = e.get("ts").and_then(|t| t.as_f64()) {
                assert!(ts >= last_ts, "pid {pid}: ts went backwards ({last_ts} -> {ts})");
                last_ts = ts;
            }
            match e.get("ph").and_then(|p| p.as_str()).unwrap() {
                "B" => {
                    depth += 1;
                    spans += 1;
                }
                "E" => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "pid {pid}: E before its B");
        }
        assert_eq!(depth, 0, "pid {pid}: unbalanced spans");
        assert!(spans > 0, "pid {pid}: lane carries no spans");
    }

    // --- the host lane carries the bus.* counter set with the exact
    // schedule-derived values ---
    let counter = |name: &str| {
        events
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("C")
                    && e.get("pid").and_then(|p| p.as_u64()) == Some(1)
                    && e.get("name").and_then(|n| n.as_str()) == Some(name)
            })
            .and_then(|e| e.get("args")?.get("value")?.as_f64())
    };
    // 11 frames per clean step + 1 retransmitted DATA frame
    assert_eq!(counter("bus.frames"), Some((steps * 11 + 1) as f64));
    assert_eq!(counter("bus.dropped"), Some(1.0));
    assert_eq!(counter("bus.retransmits"), Some(1.0));
    assert_eq!(counter("bus.corrupted"), Some(0.0));
    for name in [
        "bus.bits",
        "bus.arbitration_losses",
        "bus.partition_tx_losses",
        "bus.partition_rx_losses",
        "bus.timeouts",
        "bus.duplicate_acks",
        "bus.failed_steps",
        "bus.degraded_steps",
        "bus.crc_rejected",
    ] {
        assert!(counter(name).is_some(), "missing bus counter {name}");
    }

    // --- node lanes carry per-step spans and the exec counter ---
    let node_spans = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("B")
                && e.get("name").and_then(|n| n.as_str()) == Some("node.step")
        })
        .count() as u64;
    assert_eq!(node_spans, 3 * steps, "every stage executes (and traces) every step");
}
