//! Wire phase: the same seeded multi-tenant schedule executed twice —
//! once through a real loopback TCP socket ([`peert_wire::WireServer`]
//! and [`peert_wire::WireClient`]) and once through in-process
//! [`Server::submit`] — must be indistinguishable: every accepted
//! session's trajectory bit-identical, every rejection the same typed
//! [`Reject`] value, every cancel landing before the first step, and
//! the two servers' final [`ServeCounters`] *equal*.
//!
//! Determinism hinges on three facts the serve layer guarantees:
//!
//! * both servers start paused, so the whole schedule is admitted (and
//!   quota-rejected) before any scheduling decision is made;
//! * a cancel issued while paused lands before the first quantum's
//!   cancel sweep, so the session ends `Cancelled` with *exactly zero*
//!   steps on both paths;
//! * the shard releases a wire session's quota slot before its sink
//!   frames `Done`, so once the client has seen `Done` quota accounting
//!   over the wire matches handle lifetimes in-process.
//!
//! Schedules are sized so per-tenant submission counts routinely exceed
//! the (deliberately small) quota: the phase proves quota rejections —
//! not just happy paths — carry identical payloads across the socket.

use std::sync::Arc;

use peert_model::Value;
use peert_serve::{
    LaneOverride, Reject, ServeConfig, ServeCounters, Server, SessionOutcome, SessionSpec,
};
use peert_wire::{WireClient, WireError, WireOverride, WireServer, WireSpec};

use crate::diff::value_bits;
use crate::gen;
use crate::rng::Rng;
use crate::spec::{BlockSpec, DiagramSpec};
use crate::MIL_STEPS;

/// What one wire schedule proved.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireScheduleReport {
    /// Accepted sessions whose trajectories matched bit-for-bit.
    pub sessions: u64,
    /// Rejections (quota) proved identical across the socket.
    pub rejects: u64,
    /// Cancelled-while-paused sessions proved to stop at step zero on
    /// both paths.
    pub cancelled: u64,
}

const JOIN: std::time::Duration = std::time::Duration::from_secs(60);

/// One planned submission, executed identically on both paths.
struct Planned {
    tenant: String,
    spec: DiagramSpec,
    steps: u64,
    priority: u8,
    /// `(block index, gain)` for a `Gain` parameter override.
    gain_override: Option<(usize, f64)>,
    /// Cancel immediately after admission, while the server is paused.
    cancel: bool,
}

/// How one submission ended. `PartialEq` is the whole point: the wire
/// run and the in-process run must produce equal vectors of these.
#[derive(Clone, Debug, PartialEq)]
enum SubOutcome {
    Rejected(Reject),
    Finished { outcome: SessionOutcome, steps: u64, bits: Vec<(u8, u64)> },
}

fn bits(vs: &[Value]) -> Vec<(u8, u64)> {
    vs.iter().map(|&v| value_bits(v)).collect()
}

/// Every output port of every block, in diagram order — the index-space
/// twin of [`peert_serve::SessionSpec::probe_all`] for the wire side.
fn probe_all_indices(spec: &DiagramSpec) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (i, b) in spec.blocks.iter().enumerate() {
        for port in 0..b.ports().1 {
            out.push((i as u32, port as u32));
        }
    }
    out
}

/// Derive the schedule for `case` of `seed`: a paused server sized so
/// gangs straddle specs and quotas are routinely exceeded.
fn plan_schedule(seed: u64, case: u64) -> (ServeConfig, Vec<Planned>) {
    let mut r = Rng::derive(seed, 0x317E_C400 ^ case);
    let max_lanes = 2 + r.below(3) as usize; // 2..=4
    let config = ServeConfig {
        shards: 1 + (case % 2) as usize,
        queue_cap: 256,
        // Small on purpose: with 3 tenants and up to ~14 sessions, some
        // schedules must quota-reject, and both paths must agree on
        // exactly which submissions those are.
        tenant_quota: 2 + r.below(3) as usize,
        max_lanes,
        quantum: 4 + r.below(12),
        plan_cache_cap: 16,
        compact: r.chance(1, 2),
        start_paused: true,
    };
    let mut plan = Vec::new();
    let n_specs = 1 + r.below(2);
    for si in 0..n_specs {
        let spec = gen::gen_mil_spec(seed, case * 37 + si * 11);
        let k = max_lanes as u64 + 1 + r.below(4);
        for _ in 0..k {
            let tenant = format!("tenant{}", r.below(3));
            let priority = r.below(2) as u8;
            let gain_override = if r.chance(1, 2) {
                let gain = r.range_f64(0.25, 2.0);
                spec.blocks
                    .iter()
                    .position(|b| matches!(b, BlockSpec::Gain { .. }))
                    .map(|idx| (idx, gain))
            } else {
                None
            };
            let cancel = r.chance(1, 8);
            plan.push(Planned {
                tenant,
                spec: spec.clone(),
                steps: MIL_STEPS,
                priority,
                gain_override,
                cancel,
            });
        }
    }
    (config, plan)
}

/// The schedule through in-process `Server::submit`.
fn run_inprocess(
    config: ServeConfig,
    plan: &[Planned],
) -> Result<(Vec<SubOutcome>, ServeCounters), String> {
    let server = Server::start(config);
    let mut out: Vec<Option<SubOutcome>> = plan.iter().map(|_| None).collect();
    let mut live = Vec::new();
    for (i, p) in plan.iter().enumerate() {
        let diagram = p.spec.build()?;
        let mut s = SessionSpec::new(p.tenant.clone(), diagram, p.spec.dt, p.steps)
            .probe_all()
            .priority(p.priority);
        if let Some((idx, gain)) = p.gain_override {
            s = s.with_override(LaneOverride::Param {
                block: peert_model::BlockId::from_index(idx),
                index: 0,
                value: gain,
            });
        }
        match server.submit(s) {
            Ok(h) => {
                if p.cancel {
                    h.cancel();
                }
                live.push((i, h));
            }
            Err(r) => out[i] = Some(SubOutcome::Rejected(r)),
        }
    }
    server.resume();
    for (i, h) in live {
        let res = h.join_deadline(JOIN).map_err(|e| format!("in-process session {i}: {e}"))?;
        out[i] = Some(SubOutcome::Finished {
            outcome: res.outcome,
            steps: res.steps,
            bits: bits(&res.trajectory),
        });
    }
    let stats = server.shutdown();
    let outs = out.into_iter().map(|o| o.expect("every submission recorded")).collect();
    Ok((outs, stats.counters))
}

/// The same schedule through a real loopback socket.
fn run_wire(
    config: ServeConfig,
    plan: &[Planned],
) -> Result<(Vec<SubOutcome>, ServeCounters), String> {
    let server = Arc::new(Server::start(config));
    let ws = WireServer::start(Arc::clone(&server), "127.0.0.1:0")
        .map_err(|e| format!("wire server bind: {e}"))?;
    let mut client = WireClient::connect(ws.local_addr())
        .map_err(|e| format!("wire client connect: {e}"))?;

    let mut out: Vec<Option<SubOutcome>> = plan.iter().map(|_| None).collect();
    let mut live = Vec::new();
    for (i, p) in plan.iter().enumerate() {
        let mut w =
            WireSpec::new(p.tenant.clone(), p.spec.clone(), p.steps).priority(p.priority);
        for (b, port) in probe_all_indices(&p.spec) {
            w = w.probe(b, port);
        }
        if let Some((idx, gain)) = p.gain_override {
            w = w.with_override(WireOverride::Param { block: idx as u32, index: 0, value: gain });
        }
        match client.submit(w) {
            Ok(sess) => {
                if p.cancel {
                    let known = client
                        .cancel(sess.id())
                        .map_err(|e| format!("cancel of session {i}: {e}"))?;
                    if !known {
                        return Err(format!(
                            "cancel of paused session {i} answered known=false; the \
                             server forgot a session it had just accepted"
                        ));
                    }
                }
                live.push((i, sess));
            }
            Err(WireError::Rejected(r)) => out[i] = Some(SubOutcome::Rejected(r)),
            Err(e) => return Err(format!("submission {i} failed at the wire layer: {e}")),
        }
    }
    server.resume();
    for (i, sess) in live {
        let res = sess.join_deadline(JOIN).map_err(|e| format!("wire session {i}: {e}"))?;
        out[i] = Some(SubOutcome::Finished {
            outcome: res.outcome,
            steps: res.steps,
            bits: bits(&res.trajectory),
        });
    }
    client.close();
    ws.shutdown();
    let server = Arc::try_unwrap(server)
        .map_err(|_| "wire front end leaked a Server reference past shutdown".to_string())?;
    let stats = server.shutdown();
    let outs = out.into_iter().map(|o| o.expect("every submission recorded")).collect();
    Ok((outs, stats.counters))
}

/// Run wire schedule `case` of `seed`: the loopback run must be
/// indistinguishable from the in-process run.
pub fn run_wire_schedule(seed: u64, case: u64) -> Result<WireScheduleReport, String> {
    let (config, plan) = plan_schedule(seed, case);
    let (ip_out, ip_counters) = run_inprocess(config.clone(), &plan)?;
    let (w_out, w_counters) = run_wire(config, &plan)?;

    let mut report = WireScheduleReport::default();
    for (i, (w, ip)) in w_out.iter().zip(ip_out.iter()).enumerate() {
        if w != ip {
            return Err(format!(
                "submission {i} (tenant {}, cancel={}) diverged across the socket:\n  \
                 wire:       {}\n  in-process: {}",
                plan[i].tenant,
                plan[i].cancel,
                describe(w),
                describe(ip),
            ));
        }
        match w {
            SubOutcome::Rejected(_) => report.rejects += 1,
            SubOutcome::Finished { outcome, steps, .. } => {
                if plan[i].cancel {
                    if *outcome != SessionOutcome::Cancelled || *steps != 0 {
                        return Err(format!(
                            "submission {i} was cancelled while paused but ended \
                             {outcome:?} after {steps} step(s); a pre-resume cancel \
                             must land before the first quantum"
                        ));
                    }
                    report.cancelled += 1;
                } else {
                    if *outcome != SessionOutcome::Completed {
                        return Err(format!("submission {i} ended {outcome:?} on both paths"));
                    }
                    report.sessions += 1;
                }
            }
        }
    }

    if w_counters != ip_counters {
        return Err(format!(
            "final counters diverged across the socket:\n  wire:       {w_counters:?}\n  \
             in-process: {ip_counters:?}"
        ));
    }
    if w_counters.submitted != plan.len() as u64 {
        return Err(format!(
            "{} submissions reached the daemon, schedule had {}",
            w_counters.submitted,
            plan.len()
        ));
    }
    Ok(report)
}

fn describe(o: &SubOutcome) -> String {
    match o {
        SubOutcome::Rejected(r) => format!("rejected: {r}"),
        SubOutcome::Finished { outcome, steps, bits } => {
            format!("{outcome:?} after {steps} step(s), {} probed value(s)", bits.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_few_wire_schedules_replay_identically() {
        let mut totals = WireScheduleReport::default();
        for case in 0..6 {
            let r = run_wire_schedule(0xC0FFEE, case).expect("wire schedule");
            totals.sessions += r.sessions;
            totals.rejects += r.rejects;
            totals.cancelled += r.cancelled;
        }
        assert!(totals.sessions > 0, "no session completed across six schedules");
    }
}
