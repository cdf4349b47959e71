//! In-crate integration tests: admission, coalescing, streaming,
//! cancellation, compaction and stats — each checked against a solo
//! [`Engine`] reference where trajectories are involved.

use std::time::Duration;

use peert_model::library::{Gain, SineWave};
use peert_model::{Block, BlockCtx, Diagram, Engine, PortCount, Value};
use peert_trace::{JsonValue, ToJson};

use crate::server::{route_shard, ServeConfig, Server};
use crate::session::{LaneOverride, Reject, SessionOutcome, SessionSpec};
use crate::sweep::sweep_map;

const DT: f64 = 1e-3;
const JOIN: Duration = Duration::from_secs(30);

/// sine → gain, lowerable; `gain` is the override target (block #1,
/// parameter 0).
fn chain(gain: f64) -> Diagram {
    let mut d = Diagram::new();
    let s = d.add("sine", SineWave::new(1.0, 10.0)).unwrap();
    let g = d.add("gain", Gain::new(gain)).unwrap();
    d.connect((s, 0), (g, 0)).unwrap();
    d
}

/// A block the kernel cannot lower (default `lower()` → `None`), so
/// any diagram containing it gets a trampoline entry and runs in a
/// one-lane gang.
struct Opaque;

impl Block for Opaque {
    fn type_name(&self) -> &'static str {
        "Opaque"
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let v = ctx.in_f64(0);
        ctx.set_output(0, v * v + 0.25);
    }
}

fn opaque_chain() -> Diagram {
    let mut d = Diagram::new();
    let s = d.add("sine", SineWave::new(1.0, 10.0)).unwrap();
    let o = d.add("sq", Opaque).unwrap();
    d.connect((s, 0), (o, 0)).unwrap();
    d
}

/// Step a solo engine `steps` times, probing every port after each
/// step — the reference the served trajectories must match bit-for-bit.
fn reference(diagram: Diagram, steps: u64) -> Vec<Value> {
    let probes = crate::session::all_ports(&diagram);
    let mut e = Engine::new(diagram, DT).unwrap();
    let mut out = Vec::new();
    for _ in 0..steps {
        e.step().unwrap();
        for &p in &probes {
            out.push(e.probe(p));
        }
    }
    out
}

fn small_config() -> ServeConfig {
    ServeConfig { shards: 2, queue_cap: 64, quantum: 8, max_lanes: 4, ..ServeConfig::default() }
}

#[test]
fn single_session_matches_solo_engine() {
    let server = Server::start(small_config());
    let spec = SessionSpec::new("acme", chain(1.5), DT, 100).probe_all();
    let h = server.submit(spec).unwrap();
    let r = h.join_deadline(JOIN).unwrap();
    assert_eq!(r.outcome, SessionOutcome::Completed);
    assert_eq!(r.steps, 100);
    assert_eq!(r.trajectory, reference(chain(1.5), 100));
    let stats = server.shutdown();
    assert_eq!(stats.counters.completed, 1);
    assert_eq!(stats.counters.steps_completed, 100);
}

#[test]
fn coalesced_lanes_diverge_by_override_and_stay_bit_exact() {
    let server = Server::start(ServeConfig { start_paused: true, ..small_config() });
    let gains = [0.5, 1.0, 1.75, 3.25];
    let gain_block = chain(1.0).ids().nth(1).unwrap();
    let handles: Vec<_> = gains
        .iter()
        .map(|&g| {
            let spec = SessionSpec::new("acme", chain(1.0), DT, 120)
                .probe_all()
                .with_override(LaneOverride::Param { block: gain_block, index: 0, value: g });
            server.submit(spec).unwrap()
        })
        .collect();
    server.resume();
    for (h, &g) in handles.into_iter().zip(&gains) {
        let r = h.join_deadline(JOIN).unwrap();
        assert_eq!(r.outcome, SessionOutcome::Completed);
        // a lane overridden to gain g must equal a solo run built with g
        assert_eq!(r.trajectory, reference(chain(g), 120));
    }
    let stats = server.shutdown();
    // all four share one digest, so one gang and one batch compile
    assert_eq!(stats.counters.batches, 1);
    assert_eq!(stats.counters.coalesced_lanes, 4);
    assert_eq!(stats.plan_cache.misses, 1);
}

#[test]
fn quota_counts_unreaped_sessions_and_releases_on_join() {
    let server =
        Server::start(ServeConfig { tenant_quota: 2, ..small_config() });
    let h1 = server.submit(SessionSpec::new("t", chain(1.0), DT, 10)).unwrap();
    let _h2 = server.submit(SessionSpec::new("t", chain(1.0), DT, 10)).unwrap();
    match server.submit(SessionSpec::new("t", chain(1.0), DT, 10)) {
        Err(Reject::QuotaExceeded { tenant, active, quota }) => {
            assert_eq!(tenant, "t");
            assert_eq!((active, quota), (2, 2));
        }
        other => panic!("expected quota reject, got {other:?}", other = other.map(|_| ())),
    }
    // other tenants are unaffected
    let _h3 = server.submit(SessionSpec::new("u", chain(1.0), DT, 10)).unwrap();
    // reaping a session frees the slot
    h1.join_deadline(JOIN).unwrap();
    let _h4 = server.submit(SessionSpec::new("t", chain(1.0), DT, 10)).unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.counters.rejected_quota, 1);
    assert_eq!(stats.counters.accepted, 4);
}

#[test]
fn paused_shard_queue_backpressures_deterministically() {
    let server = Server::start(ServeConfig {
        shards: 1,
        queue_cap: 2,
        start_paused: true,
        ..ServeConfig::default()
    });
    let h1 = server.submit(SessionSpec::new("t", chain(1.0), DT, 5)).unwrap();
    let h2 = server.submit(SessionSpec::new("t", chain(1.0), DT, 5)).unwrap();
    match server.submit(SessionSpec::new("t", chain(1.0), DT, 5)) {
        Err(Reject::Backpressure { shard, cap }) => assert_eq!((shard, cap), (0, 2)),
        other => panic!("expected backpressure, got {other:?}", other = other.map(|_| ())),
    }
    // while paused the queue holds exactly the two admitted sessions
    assert_eq!(server.stats().shards[0].queue_depth, 2);
    server.resume();
    h1.join_deadline(JOIN).unwrap();
    h2.join_deadline(JOIN).unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.counters.rejected_backpressure, 1);
}

#[test]
fn invalid_specs_reject_with_reason() {
    let server = Server::start(small_config());
    assert!(matches!(
        server.submit(SessionSpec::new("t", chain(1.0), DT, 0)),
        Err(Reject::Invalid(_))
    ));
    assert!(matches!(
        server.submit(SessionSpec::new("t", chain(1.0), -1.0, 10)),
        Err(Reject::Invalid(_))
    ));
    let bad_probe = SessionSpec::new("t", chain(1.0), DT, 10).probe((
        peert_model::BlockId::from_index(7),
        0,
    ));
    assert!(matches!(server.submit(bad_probe), Err(Reject::Invalid(_))));
    let stats = server.shutdown();
    assert_eq!(stats.counters.rejected_invalid, 3);
    assert_eq!(stats.counters.accepted, 0);
}

#[test]
fn unlowerable_diagram_runs_in_a_one_lane_gang_and_matches_the_reference() {
    let server = Server::start(small_config());
    let spec = SessionSpec::new("t", opaque_chain(), DT, 64).probe_all();
    let h = server.submit(spec).unwrap();
    let r = h.join_deadline(JOIN).unwrap();
    assert_eq!(r.outcome, SessionOutcome::Completed);
    assert_eq!(r.trajectory, reference(opaque_chain(), 64));
    let stats = server.shutdown();
    assert_eq!(stats.counters.solo_sessions, 1);
    // a one-lane gang compiles through the server's own plan cache,
    // like every other gang
    assert_eq!(stats.plan_cache.misses, 1);
}

/// A custom block with state of its own: it outputs the running sum of
/// its input. Two sessions sharing one instance would each see the
/// other's sums.
struct Accumulate(f64);

impl Block for Accumulate {
    fn type_name(&self) -> &'static str {
        "Accumulate"
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn reset(&mut self) {
        self.0 = 0.0;
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        self.0 += ctx.in_f64(0);
        ctx.set_output(0, self.0);
    }
}

fn accumulate_chain() -> Diagram {
    let mut d = Diagram::new();
    let s = d.add("sine", SineWave::new(1.0, 10.0)).unwrap();
    let a = d.add("acc", Accumulate(0.0)).unwrap();
    d.connect((s, 0), (a, 0)).unwrap();
    d
}

#[test]
fn stateful_custom_block_sessions_each_step_their_own_instances() {
    let server = Server::start(ServeConfig { start_paused: true, ..small_config() });
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let spec = SessionSpec::new("t", accumulate_chain(), DT, 48).probe_all();
            server.submit(spec).unwrap()
        })
        .collect();
    server.resume();
    for h in handles {
        let r = h.join_deadline(JOIN).unwrap();
        assert_eq!(r.outcome, SessionOutcome::Completed);
        assert_eq!(r.trajectory, reference(accumulate_chain(), 48));
    }
    let stats = server.shutdown();
    assert_eq!(stats.counters.solo_sessions, 2);
    // same diagram, same tape: the second gang reuses the first's plan
    assert_eq!((stats.plan_cache.misses, stats.plan_cache.hits), (1, 1));
}

/// Submit `diagram` with one override on a one-shard server: the
/// session must end `Failed` with a reason naming `value`, and the
/// next session on the same shard must complete.
fn refused_override_then_healthy(diagram: Diagram, o: LaneOverride, value: &str) {
    let server = Server::start(ServeConfig { shards: 1, ..small_config() });
    let bad = SessionSpec::new("t", diagram, DT, 16).probe_all().with_override(o);
    let r = server.submit(bad).unwrap().join_deadline(JOIN).unwrap();
    match &r.outcome {
        SessionOutcome::Failed(why) => assert!(why.contains(value), "{why}"),
        other => panic!("expected the override to be refused, got {other:?}"),
    }
    let healthy = SessionSpec::new("t", chain(1.5), DT, 16).probe_all();
    let r = server.submit(healthy).unwrap().join_deadline(JOIN).unwrap();
    assert_eq!(r.outcome, SessionOutcome::Completed);
    assert_eq!(r.trajectory, reference(chain(1.5), 16));
    let stats = server.shutdown();
    assert_eq!((stats.counters.failed, stats.counters.completed), (1, 1));
}

#[test]
fn an_empty_saturation_override_fails_its_session_and_the_shard_keeps_serving() {
    use peert_model::library::nonlinear::Saturation;
    let mut d = Diagram::new();
    let s = d.add("sine", SineWave::new(1.0, 10.0)).unwrap();
    let sat = d.add("sat", Saturation::new(-0.5, 1.0).unwrap()).unwrap();
    d.connect((s, 0), (sat, 0)).unwrap();
    // lo = 5 above hi = 1 would panic the clamp
    refused_override_then_healthy(d, LaneOverride::Param { block: sat, index: 0, value: 5.0 }, "5");
}

#[test]
fn a_transfer_function_length_override_fails_its_session_and_the_shard_keeps_serving() {
    use peert_model::library::discrete::DiscreteTransferFcn;
    let mut d = Diagram::new();
    let s = d.add("sine", SineWave::new(1.0, 10.0)).unwrap();
    let tf = DiscreteTransferFcn::new(DT, vec![0.5, 0.5], vec![-0.2]).unwrap();
    let tf = d.add("tf", tf).unwrap();
    d.connect((s, 0), (tf, 0)).unwrap();
    // parameter 0 is the numerator length: 9 would index past the window
    refused_override_then_healthy(d, LaneOverride::Param { block: tf, index: 0, value: 9.0 }, "9");
}

#[test]
fn overrides_on_unlowerable_diagrams_reject_up_front() {
    let server = Server::start(small_config());
    let block = opaque_chain().ids().next().unwrap();
    let spec = SessionSpec::new("t", opaque_chain(), DT, 10)
        .with_override(LaneOverride::Param { block, index: 0, value: 2.0 });
    assert!(matches!(server.submit(spec), Err(Reject::OverridesUnsupported(_))));
    server.shutdown();
}

#[test]
fn cancellation_cuts_the_budget_short() {
    let server = Server::start(ServeConfig { quantum: 4, ..small_config() });
    let spec = SessionSpec::new("t", chain(1.0), DT, u64::MAX / 2).probe_all();
    let h = server.submit(spec).unwrap();
    // let it run a little, then cancel
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(h.tenant(), "t");
    h.cancel();
    let r = h.join_deadline(JOIN).unwrap();
    assert_eq!(r.outcome, SessionOutcome::Cancelled);
    assert!(r.steps < u64::MAX / 2);
    // the stream never lies about its length: 2 ports per recorded step
    assert_eq!(r.trajectory.len() as u64, r.steps * 2);
    let stats = server.shutdown();
    assert_eq!(stats.counters.cancelled, 1);
}

#[test]
fn compaction_narrows_gangs_without_changing_trajectories() {
    let server = Server::start(ServeConfig {
        shards: 1,
        max_lanes: 8,
        quantum: 8,
        compact: true,
        start_paused: true,
        ..ServeConfig::default()
    });
    // 4 short lanes die early, 4 long lanes survive → one compaction
    let budgets = [16u64, 16, 16, 16, 96, 96, 96, 96];
    let handles: Vec<_> = budgets
        .iter()
        .map(|&b| {
            server.submit(SessionSpec::new("t", chain(2.0), DT, b).probe_all()).unwrap()
        })
        .collect();
    server.resume();
    for (h, &b) in handles.into_iter().zip(&budgets) {
        let r = h.join_deadline(JOIN).unwrap();
        assert_eq!(r.outcome, SessionOutcome::Completed);
        assert_eq!(r.steps, b);
        assert_eq!(r.trajectory, reference(chain(2.0), b));
    }
    let stats = server.shutdown();
    assert_eq!(stats.counters.batches, 1);
    assert!(stats.shards[0].compactions >= 1, "expected at least one compaction");
}

#[test]
fn same_schedule_produces_identical_stats_json() {
    let run = || {
        let server = Server::start(ServeConfig {
            shards: 2,
            start_paused: true,
            quantum: 16,
            max_lanes: 4,
            tenant_quota: 2,
            ..ServeConfig::default()
        });
        let mut handles = Vec::new();
        for i in 0..6 {
            let tenant = format!("t{}", i % 3);
            match server.submit(SessionSpec::new(tenant, chain(1.0 + i as f64), DT, 32)) {
                Ok(h) => handles.push(h),
                Err(Reject::QuotaExceeded { .. }) => {}
                Err(r) => panic!("unexpected reject: {r}"),
            }
        }
        server.resume();
        for h in handles {
            h.join_deadline(JOIN).unwrap();
        }
        server.shutdown()
    };
    let (a, b) = (run(), run());
    // histograms carry wall-clock latencies; the counter block and the
    // cache block must be schedule-determined
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.plan_cache.to_json_value().render(), b.plan_cache.to_json_value().render());
    // the full snapshot is real JSON with a stable member order
    let doc = JsonValue::parse(&a.to_json()).expect("ServeStats renders valid JSON");
    assert_eq!(doc.keys(), ["counters", "plan_cache", "shards"]);
    let counters = doc.get("counters").unwrap();
    assert_eq!(counters.keys()[..2], ["submitted", "accepted"]);
    assert_eq!(counters.get("submitted").and_then(JsonValue::as_u64), Some(a.counters.submitted));
    assert_eq!(doc.get("shards").and_then(JsonValue::as_array).map(<[_]>::len), Some(a.shards.len()));
}

#[test]
fn metrics_report_exports_per_shard_series() {
    let server = Server::start(ServeConfig { shards: 2, ..ServeConfig::default() });
    let h = server.submit(SessionSpec::new("t", chain(1.0), DT, 16)).unwrap();
    h.join_deadline(JOIN).unwrap();
    let stats = server.shutdown();
    let json = stats.metrics_report().to_json();
    for name in [
        "serve.sessions",
        "serve.rejected",
        "serve.queue_depth",
        "plancache.hit",
        "plancache.miss",
        "serve.shard0.sessions",
        "serve.shard1.sessions",
        "serve.shard0.step_ns",
    ] {
        assert!(json.contains(name), "metrics report missing {name}: {json}");
    }
}

#[test]
fn route_shard_is_stable_and_groups_equal_plans() {
    let a = route_shard(&chain(1.0), DT, 8);
    let b = route_shard(&chain(1.0), DT, 8);
    assert_eq!(a, b);
    assert!(a < 8);
    // unlowerable diagrams still route deterministically
    let c = route_shard(&opaque_chain(), DT, 8);
    assert_eq!(c, route_shard(&opaque_chain(), DT, 8));
}

#[test]
fn sweep_map_returns_results_in_submit_order() {
    let items: Vec<u64> = (0..37).collect();
    let out = sweep_map(items.clone(), |i| i * i + 1);
    assert_eq!(out, items.iter().map(|i| i * i + 1).collect::<Vec<_>>());
}

#[test]
fn priority_separates_gangs() {
    // same diagram, different priorities → different buckets → two
    // batches even though everything fits one gang width
    let server = Server::start(ServeConfig {
        shards: 1,
        max_lanes: 8,
        start_paused: true,
        ..ServeConfig::default()
    });
    let mut handles = Vec::new();
    for p in [0u8, 0, 1, 1] {
        handles.push(
            server.submit(SessionSpec::new("t", chain(1.0), DT, 16).priority(p)).unwrap(),
        );
    }
    server.resume();
    for h in handles {
        h.join_deadline(JOIN).unwrap();
    }
    let stats = server.shutdown();
    assert_eq!(stats.counters.batches, 2);
    assert_eq!(stats.counters.coalesced_lanes, 4);
    // second gang reuses the first gang's compiled plan
    assert_eq!(stats.plan_cache.misses, 1);
    assert_eq!(stats.plan_cache.hits, 1);
}

// ---------------------------------------------------------------------------
// deadline admission
// ---------------------------------------------------------------------------

/// Warm a single-shard server's latency histogram with one completed
/// session, returning the server and the measured p99 (ns/step,
/// ceiling) its stats now report.
fn warmed_single_shard() -> (Server, u64) {
    let server = Server::start(ServeConfig {
        shards: 1,
        quantum: 8,
        ..ServeConfig::default()
    });
    let h = server.submit(SessionSpec::new("warm", chain(1.0), DT, 64)).unwrap();
    assert_eq!(h.join_deadline(JOIN).unwrap().outcome, SessionOutcome::Completed);
    let stats = server.stats();
    let summary = &stats.shards[0].step_ns;
    assert!(summary.count > 0, "warm-up session must populate the shard histogram");
    let p99 = (summary.p99.ceil() as u64).max(1);
    (server, p99)
}

#[test]
fn infeasible_deadline_is_rejected_with_the_measured_p99() {
    let (server, p99) = warmed_single_shard();
    let steps = 1_u64 << 40; // predicted = p99 * 2^40 ns ≫ any sane budget
    let spec = SessionSpec::new("acme", chain(1.0), DT, steps)
        .deadline(Duration::from_nanos(1));
    match server.submit(spec) {
        Err(Reject::DeadlineInfeasible { budget_ns, predicted_ns, p99_step_ns }) => {
            assert_eq!(budget_ns, 1);
            assert_eq!(p99_step_ns, p99, "the reject must carry the measured p99");
            assert_eq!(predicted_ns, p99.saturating_mul(steps));
        }
        Err(other) => panic!("expected DeadlineInfeasible, got {other:?}"),
        Ok(_) => panic!("expected DeadlineInfeasible, got admission"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.counters.rejected_deadline, 1);
    assert_eq!(stats.counters.submitted, 2); // warm-up + the rejected one
    assert_eq!(stats.counters.accepted, 1);
}

#[test]
fn feasible_deadline_is_admitted_and_completes() {
    let (server, _) = warmed_single_shard();
    // an hour of wall-clock budget for 32 steps is always feasible
    let spec = SessionSpec::new("acme", chain(2.0), DT, 32)
        .probe_all()
        .deadline(Duration::from_secs(3600));
    let h = server.submit(spec).expect("feasible deadline must be admitted");
    let r = h.join_deadline(JOIN).unwrap();
    assert_eq!(r.outcome, SessionOutcome::Completed);
    assert_eq!(r.trajectory, reference(chain(2.0), 32));
    let stats = server.shutdown();
    assert_eq!(stats.counters.rejected_deadline, 0);
}

#[test]
fn cold_start_admits_any_deadline() {
    // no session has run yet, so the shard histogram is empty: there is
    // no measured p99 to predict with, and admission must not guess —
    // even a 1 ns budget is admitted (and simply missed)
    let server = Server::start(ServeConfig { shards: 1, ..ServeConfig::default() });
    let spec = SessionSpec::new("acme", chain(1.0), DT, 8)
        .deadline(Duration::from_nanos(1));
    let h = server.submit(spec).expect("cold-start submissions bypass deadline admission");
    assert_eq!(h.join_deadline(JOIN).unwrap().outcome, SessionOutcome::Completed);
    let stats = server.shutdown();
    assert_eq!(stats.counters.rejected_deadline, 0);
}

#[test]
fn deadline_rejects_are_counted_in_the_metrics_report() {
    let (server, _) = warmed_single_shard();
    let spec = SessionSpec::new("acme", chain(1.0), DT, 1 << 40)
        .deadline(Duration::from_nanos(1));
    assert!(matches!(server.submit(spec), Err(Reject::DeadlineInfeasible { .. })));
    let stats = server.shutdown();
    let json = stats.metrics_report().to_json();
    assert!(
        json.contains("serve.rejected_deadline"),
        "metrics report missing serve.rejected_deadline: {json}"
    );
}
