//! Serve phase: seeded multi-tenant schedules through `peert-serve`,
//! every batched-lane trajectory proved bit-exact against a
//! [`RefInterp`] run of the same (possibly overridden) spec.
//!
//! Each schedule builds a few generated diagrams, submits several
//! sessions per diagram (random tenants, priorities and per-lane `Gain`
//! overrides) into a paused server with a deliberately small gang width
//! — so one diagram spans several gangs and the plan cache must hit —
//! then resumes, joins every stream and compares bit-for-bit. One
//! session per schedule may be cancelled mid-run: its trajectory must
//! be an exact prefix of the reference.

use peert_model::Value;
use peert_serve::{LaneOverride, Reject, ServeConfig, Server, SessionOutcome, SessionSpec};

use crate::diff::value_bits;
use crate::gen;
use crate::interp::RefInterp;
use crate::rng::Rng;
use crate::spec::{BlockSpec, DiagramSpec};
use crate::MIL_STEPS;

/// What one schedule proved.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScheduleReport {
    /// Sessions joined bit-exact (including the cancelled prefix, if any).
    pub sessions: u64,
    /// Plan-cache hits the server recorded.
    pub cache_hits: u64,
    /// Plan-cache misses the server recorded.
    pub cache_misses: u64,
}

const JOIN: std::time::Duration = std::time::Duration::from_secs(60);

/// Reference trajectory: the reference interpreter over every output
/// port of every block, probed after each step — exactly what a served
/// session with `probe_all` streams back.
fn reference(spec: &DiagramSpec, steps: u64) -> Result<Vec<Value>, String> {
    let diagram = spec.build()?;
    let probes = peert_serve::all_ports(&diagram);
    let mut interp = RefInterp::new(diagram, spec.dt)?;
    let mut out = Vec::with_capacity((steps as usize) * probes.len());
    for _ in 0..steps {
        interp.step();
        for &(id, port) in &probes {
            out.push(interp.probe(id, port));
        }
    }
    Ok(out)
}

/// The spec with its first `Gain` re-parameterized to `gain` — the solo
/// twin of a served session carrying a `LaneOverride::Param` on that
/// block. Returns the block index alongside.
fn override_gain(spec: &DiagramSpec, gain: f64) -> Option<(DiagramSpec, usize)> {
    let idx = spec
        .blocks
        .iter()
        .position(|b| matches!(b, BlockSpec::Gain { .. }))?;
    let mut twin = spec.clone();
    twin.blocks[idx] = BlockSpec::Gain { gain };
    Some((twin, idx))
}

fn bits(vs: &[Value]) -> Vec<(u8, u64)> {
    vs.iter().map(|&v| value_bits(v)).collect()
}

/// Run schedule `case` of `seed`. Every session must complete (or, for
/// the one cancelled session, stop early) with a bit-exact trajectory.
pub fn run_serve_schedule(seed: u64, case: u64) -> Result<ScheduleReport, String> {
    let mut r = Rng::derive(seed, 0x5E12_7E00 ^ case);

    let max_lanes = 2 + r.below(3) as usize; // 2..=4: small on purpose
    let config = ServeConfig {
        shards: 1 + (case % 3) as usize,
        queue_cap: 256,
        tenant_quota: 64,
        max_lanes,
        quantum: 4 + r.below(12),
        plan_cache_cap: 16,
        compact: r.chance(1, 2),
        start_paused: true,
    };
    let server = Server::start(config);

    // (handle, reference spec, budget) per session, submitted paused so
    // gang formation sees the whole schedule at once
    let mut pending = Vec::new();
    let n_specs = 1 + r.below(3);
    for si in 0..n_specs {
        let spec = gen::gen_mil_spec(seed, case * 31 + si * 7);
        // more sessions than the gang is wide → ≥2 gangs per spec →
        // the second gang must hit the plan cache
        let k = 2 * max_lanes as u64 + r.below(3);
        for _ in 0..k {
            let tenant = format!("tenant{}", r.below(4));
            let priority = r.below(2) as u8;
            let (ref_spec, override_of) = if r.chance(1, 2) {
                match override_gain(&spec, r.range_f64(0.25, 2.0)) {
                    Some((twin, idx)) => {
                        let BlockSpec::Gain { gain } = twin.blocks[idx] else { unreachable!() };
                        (twin, Some((idx, gain)))
                    }
                    None => (spec.clone(), None),
                }
            } else {
                (spec.clone(), None)
            };
            let diagram = spec.build()?;
            let mut s = SessionSpec::new(tenant, diagram, spec.dt, MIL_STEPS)
                .probe_all()
                .priority(priority);
            if let Some((idx, gain)) = override_of {
                s = s.with_override(LaneOverride::Param {
                    block: peert_model::BlockId::from_index(idx),
                    index: 0,
                    value: gain,
                });
            }
            match server.submit(s) {
                Ok(h) => pending.push((h, ref_spec, MIL_STEPS)),
                Err(Reject::OverridesUnsupported(_)) if override_of.is_some() => {
                    return Err(format!(
                        "spec {si} of schedule {case} did not lower but gen_mil_spec \
                         diagrams must (kernel phase relies on it)"
                    ));
                }
                Err(e) => return Err(format!("unexpected reject: {e}")),
            }
        }
    }

    // one long session, cancelled mid-run: must stop early with an
    // exact prefix of the reference
    let cancelled = if r.chance(1, 2) {
        let spec = gen::gen_mil_spec(seed, case * 31);
        let h = server
            .submit(
                SessionSpec::new("tenant-cancel", spec.build()?, spec.dt, MIL_STEPS * 1000)
                    .probe_all(),
            )
            .map_err(|e| format!("cancel-session reject: {e}"))?;
        Some((h, spec))
    } else {
        None
    };

    server.resume();
    if let Some((h, _)) = &cancelled {
        h.cancel();
    }

    let mut report = ScheduleReport::default();
    for (i, (h, ref_spec, budget)) in pending.into_iter().enumerate() {
        let res = h.join_deadline(JOIN).map_err(|e| format!("session {i}: {e}"))?;
        if res.outcome != SessionOutcome::Completed {
            return Err(format!("session {i} ended {:?}, expected completion", res.outcome));
        }
        if res.steps != budget {
            return Err(format!("session {i} recorded {} steps, budget {budget}", res.steps));
        }
        let want = reference(&ref_spec, budget)?;
        if bits(&res.trajectory) != bits(&want) {
            let at = bits(&res.trajectory)
                .iter()
                .zip(bits(&want).iter())
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(format!(
                "session {i} diverged from the solo engine at flat index {at}: \
                 served {:?} != reference {:?}\nspec: {}",
                res.trajectory.get(at),
                want.get(at),
                ref_spec.to_json()
            ));
        }
        report.sessions += 1;
    }

    if let Some((h, spec)) = cancelled {
        let res = h.join_deadline(JOIN).map_err(|e| format!("cancelled session: {e}"))?;
        if res.outcome != SessionOutcome::Cancelled {
            return Err(format!("cancelled session ended {:?}", res.outcome));
        }
        let want = reference(&spec, res.steps)?;
        if bits(&res.trajectory) != bits(&want) {
            return Err(format!(
                "cancelled session's {}-step prefix diverged from the solo engine",
                res.steps
            ));
        }
        report.sessions += 1;
    }

    let stats = server.shutdown();
    if stats.counters.failed != 0 {
        return Err(format!("{} session(s) failed inside the daemon", stats.counters.failed));
    }
    report.cache_hits = stats.plan_cache.hits;
    report.cache_misses = stats.plan_cache.misses;
    Ok(report)
}
