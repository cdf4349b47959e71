//! Differential runners.
//!
//! Three comparisons, in increasing pipeline depth:
//!
//! 1. [`run_mil_case`] — the engine's kernel tape vs the naive
//!    reference interpreter on the same spec, **bit-exact** on every
//!    output port of every block at every step ([`run_kernel_case`]
//!    adds the batched lanes).
//! 2. [`run_pil_case`] — MIL vs the MIL→codegen→PIL lockstep pipeline.
//!    The wire carries Q1.15 samples, so the oracle is two-sided: the
//!    actuation stream must be *bit-exact* against a host-side quantized
//!    replica of the board, and *within a propagated quantization
//!    tolerance* of the exact MIL trajectory (the model in
//!    EXPERIMENTS.md E13).
//! 3. [`run_fault_schedule_case`] — the same pipeline under a
//!    deterministic fault schedule: every traced error counter must
//!    equal the schedule exactly, and the actuation stream must match
//!    the drop-aware replica bit-for-bit (which proves the link is back
//!    in lockstep on the first clean exchange after each fault).

use std::sync::{Arc, Mutex};

use crate::interp::RefInterp;
use crate::spec::{ControllerCase, DiagramSpec, InjectedBug};
use peert_codegen::{generate_controller, CodegenOptions, TaskImage, TlcRegistry};
use peert_mcu::McuSpec;
use peert_model::block::step_block;
use peert_model::signal::Value;
use peert_model::Engine;
use peert_pil::packet::{from_sample, to_sample};
use peert_pil::{ArqConfig, FaultSchedule, LinkKind, PilConfig, PilSession};

/// Tagged bit pattern of a [`Value`] — the bit-exact comparison key
/// (`f64` via `to_bits`, so `-0.0` vs `0.0` and NaN payloads count as
/// differences; `Q15` via its raw register pattern).
pub fn value_bits(v: Value) -> (u8, u64) {
    match v {
        Value::F64(x) => (0, x.to_bits()),
        Value::I32(x) => (1, x as u32 as u64),
        Value::I16(x) => (2, x as u16 as u64),
        Value::U16(x) => (3, x as u64),
        Value::Bool(b) => (4, b as u64),
        Value::Q15(q) => (5, q.raw() as u16 as u64),
    }
}

/// Run `spec` through the engine and the reference interpreter for
/// `steps` steps, demanding bit-identical values everywhere. `bug`
/// perturbs the *interpreter* instantiation only (the shrinking demo).
pub fn run_mil_case(
    spec: &DiagramSpec,
    steps: u64,
    bug: Option<InjectedBug>,
) -> Result<(), String> {
    let d_engine = spec.build()?;
    let d_interp = crate::spec::build_bugged(spec, bug)?;
    if d_engine.fingerprint() != d_interp.fingerprint() {
        return Err("two instantiations of the spec disagree structurally".into());
    }
    let mut engine = Engine::new(d_engine, spec.dt).map_err(|e| format!("{e:?}"))?;
    let mut interp = RefInterp::new(d_interp, spec.dt)?;
    let ids = interp.ids();
    for step in 0..steps {
        engine.step().map_err(|e| format!("engine step {step}: {e:?}"))?;
        interp.step();
        for &id in &ids {
            for port in 0..interp.outputs_of(id) {
                let ev = engine.probe((id, port));
                let iv = interp.probe(id, port);
                if value_bits(ev) != value_bits(iv) {
                    return Err(format!(
                        "step {step}, block #{}, port {port}: engine {ev:?} != interpreter {iv:?}",
                        id.index()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The "kernel" differential: the reference interpreter, the engine's
/// kernel tape and a `lanes`-wide [`Engine::with_lanes`] all step the same
/// spec in lockstep, and every output port of every block must be
/// bit-identical across all three at every step (each batch lane
/// individually). Also demands the tape lowered every block (zero
/// trampoline entries) and that the engine's block-eval accounting
/// equals the interpreter's.
pub fn run_kernel_case(spec: &DiagramSpec, steps: u64, lanes: usize) -> Result<(), String> {
    let mut interp = RefInterp::new(spec.build()?, spec.dt)?;
    let mut comp = Engine::new(spec.build()?, spec.dt).map_err(|e| format!("{e:?}"))?;
    let trampolines = comp.compiled_plan().trampolines();
    if trampolines != 0 {
        return Err(format!(
            "generated diagram did not lower to kernels: {trampolines} trampoline entries"
        ));
    }
    let batch_d = spec.build()?;
    let ids: Vec<_> = batch_d.ids().collect();
    let ports: Vec<usize> = ids.iter().map(|&id| batch_d.block(id).ports().outputs).collect();
    let mut batch = Engine::with_lanes(batch_d, spec.dt, lanes, None)
        .map_err(|e| format!("batch: {e:?}"))?;
    for step in 0..steps {
        interp.step();
        comp.step().map_err(|e| format!("compiled step {step}: {e:?}"))?;
        batch.step().map_err(|e| format!("batched step {step}: {e:?}"))?;
        for (i, &id) in ids.iter().enumerate() {
            for port in 0..ports[i] {
                let iv = interp.probe(id, port);
                let cv = comp.probe((id, port));
                if value_bits(cv) != value_bits(iv) {
                    return Err(format!(
                        "step {step}, block #{}, port {port}: compiled {cv:?} != \
                         interpreter {iv:?}",
                        id.index()
                    ));
                }
                for lane in 0..lanes {
                    let bv = batch.probe_lane(lane, (id, port));
                    if value_bits(bv) != value_bits(iv) {
                        return Err(format!(
                            "step {step}, block #{}, port {port}, lane {lane}: \
                             batched {bv:?} != interpreter {iv:?}",
                            id.index()
                        ));
                    }
                }
            }
        }
    }
    if interp.evals() != comp.block_evals() {
        return Err(format!(
            "block-eval accounting diverged: interpreter {} != compiled {}",
            interp.evals(),
            comp.block_evals()
        ));
    }
    Ok(())
}

/// Run `spec` through the engine twice — once, reset, again — and demand
/// the second trajectory reproduces the first byte-for-byte (the plan's
/// reset contract).
pub fn check_reset_determinism(spec: &DiagramSpec, steps: u64) -> Result<(), String> {
    let d = spec.build()?;
    let ids: Vec<_> = d.ids().collect();
    let ports: Vec<usize> = ids.iter().map(|&id| d.block(id).ports().outputs).collect();
    let mut engine = Engine::new(d, spec.dt).map_err(|e| format!("{e:?}"))?;
    let record = |engine: &mut Engine| -> Result<Vec<(u8, u64)>, String> {
        let mut bits = Vec::new();
        for step in 0..steps {
            engine.step().map_err(|e| format!("engine step {step}: {e:?}"))?;
            for (i, &id) in ids.iter().enumerate() {
                for port in 0..ports[i] {
                    bits.push(value_bits(engine.probe((id, port))));
                }
            }
        }
        Ok(bits)
    };
    let first = record(&mut engine)?;
    engine.reset();
    let second = record(&mut engine)?;
    if first != second {
        return Err("trajectory after reset() differs from the first run".into());
    }
    Ok(())
}

/// What a three-way PIL case measured (for reporting).
#[derive(Clone, Debug, Default)]
pub struct PilCaseReport {
    /// Largest |PIL − MIL| seen on any output channel at any step.
    pub worst_divergence: f64,
    /// The tolerance that bounded it.
    pub tolerance: f64,
    /// Controller activations on the board.
    pub activations: u64,
}

/// Counter totals of a fault-schedule run (for reporting).
#[derive(Clone, Debug, Default)]
pub struct FaultReport {
    /// CRC errors seen by the board parser.
    pub crc_errors: u64,
    /// Dropped exchanges (corrupt + drop faults).
    pub dropped_exchanges: u64,
    /// Deadline misses (one per injected overrun).
    pub deadline_misses: u64,
    /// Injected scheduler overruns.
    pub injected_overruns: u64,
}

/// Stimulus rows `rows[k][i]` = channel `i` at `t = k·dt`, computed by
/// stepping the stimulus blocks themselves so the values are
/// bit-identical to what the MIL engine evaluates.
fn stim_rows(case: &ControllerCase) -> Result<Vec<Vec<f64>>, String> {
    let mut blocks: Vec<_> = case
        .stim
        .iter()
        .map(|s| s.instantiate())
        .collect::<Result<_, _>>()?;
    let dt = case.ctl.dt;
    Ok((0..=case.steps)
        .map(|k| {
            let t = k as f64 * dt;
            blocks
                .iter_mut()
                .map(|b| step_block(b.as_mut(), t, dt, &[]).0[0].as_f64())
                .collect()
        })
        .collect())
}

/// The exact MIL output trajectory `mil[k][o]` of the case's flat
/// diagram (stimuli inlined), via the engine.
fn mil_outputs(case: &ControllerCase) -> Result<Vec<Vec<f64>>, String> {
    let spec = case.mil_spec();
    let d = spec.build()?;
    let ids: Vec<_> = d.ids().collect();
    let outs = case.output_indices();
    let mut engine = Engine::new(d, spec.dt).map_err(|e| format!("{e:?}"))?;
    let mut rows = Vec::with_capacity(case.steps as usize);
    for step in 0..case.steps {
        engine.step().map_err(|e| format!("MIL step {step}: {e:?}"))?;
        rows.push(outs.iter().map(|&o| engine.probe((ids[o], 0)).as_f64()).collect());
    }
    Ok(rows)
}

/// Check that regenerating the controller C source from a fresh
/// instantiation reproduces the identical digest.
fn check_codegen_determinism(case: &ControllerCase) -> Result<(), String> {
    let opts = CodegenOptions { dt: case.ctl.dt, ..Default::default() };
    let registry = TlcRegistry::standard();
    let digest = |case: &ControllerCase| -> Result<u64, String> {
        let sub = case.subsystem()?;
        let code = generate_controller(&sub, "vcase", &opts, &registry)
            .map_err(|e| format!("codegen: {e:?}"))?;
        Ok(code.source.digest())
    };
    let (a, b) = (digest(case)?, digest(case)?);
    if a != b {
        return Err(format!("codegen digest not reproducible: {a:016x} != {b:016x}"));
    }
    Ok(())
}

/// Sensor full-scale for the wire. Stimuli are bounded to |v| ≤ 0.75, so
/// a fixed 2.0 leaves ≥ 62 % headroom — quantization never clips.
pub(crate) const SENSOR_SCALE: f64 = 2.0;

/// Drive `case` through a [`PilSession`] under `faults` and the transport
/// policy `arq`, and return the stats plus the actuation bit stream the
/// host received each step.
fn run_session(
    case: &ControllerCase,
    mcu: &McuSpec,
    faults: FaultSchedule,
    arq: ArqConfig,
    act_scale: f64,
) -> Result<(peert_pil::PilStats, Vec<Vec<u64>>, u64), String> {
    let sub = case.subsystem()?;
    let opts = CodegenOptions { dt: case.ctl.dt, ..Default::default() };
    let code = generate_controller(&sub, "vcase", &opts, &TlcRegistry::standard())
        .map_err(|e| format!("codegen: {e:?}"))?;
    let image = TaskImage::build(&code, mcu);

    let cfg = PilConfig {
        link: LinkKind::Spi { clock_hz: 2_000_000 },
        control_period_s: case.ctl.dt,
        sensor_channels: case.n_inputs(),
        actuation_channels: case.n_outputs(),
        sensor_scale: SENSOR_SCALE,
        actuation_scale: act_scale,
        rx_isr_cycles: 60,
        corruption_prob: 0.0,
        noise_seed: 0,
        faults,
        arq,
        trace_capacity: 0,
    };

    // board side: the controller subsystem, stepped once per activation
    let activations = Arc::new(Mutex::new(0u64));
    let act_count = Arc::clone(&activations);
    let dt = case.ctl.dt;
    let mut board_sub = case.subsystem()?;
    let mut k: u64 = 0;
    let controller = Box::new(move |sensors: &[f64]| -> Vec<f64> {
        let ins: Vec<Value> = sensors.iter().map(|&v| Value::F64(v)).collect();
        let t = k as f64 * dt;
        k += 1;
        *act_count.lock().unwrap() += 1;
        step_block(&mut board_sub, t, dt, &ins).0.iter().map(|v| v.as_f64()).collect()
    });

    // host side: precomputed stimulus rows, recording what comes back
    let rows = stim_rows(case)?;
    let received = Arc::new(Mutex::new(Vec::<Vec<u64>>::new()));
    let rx = Arc::clone(&received);
    let mut row = 0usize;
    let plant = Box::new(move |act: &[f64], step_dt: f64| -> Vec<f64> {
        if step_dt > 0.0 {
            rx.lock().unwrap().push(act.iter().map(|v| v.to_bits()).collect());
            row += 1;
        }
        rows[row.min(rows.len() - 1)].clone()
    });

    let mut session = PilSession::new(mcu, &image, cfg, controller, plant)?;
    session.run(case.steps)?;
    let stats = session.stats().clone();
    let got = received.lock().unwrap().clone();
    let acts = *activations.lock().unwrap();
    Ok((stats, got, acts))
}

/// Host-side replica of the board: the same subsystem fed the same
/// quantized sensors, holding its last actuation on faulted steps.
/// Returns the bit pattern of the (quantized, descaled) reply per step.
fn host_reference(
    case: &ControllerCase,
    faults: &FaultSchedule,
    act_scale: f64,
) -> Result<Vec<Vec<u64>>, String> {
    let mut sub = case.subsystem()?;
    let rows = stim_rows(case)?;
    let dt = case.ctl.dt;
    let mut last_raw = vec![0.0f64; case.n_outputs()];
    let mut k_exec: u64 = 0;
    let mut replies = Vec::with_capacity(case.steps as usize);
    for step in 0..case.steps {
        let faulted = faults.corrupt_steps.contains(&step) || faults.drop_steps.contains(&step);
        if !faulted {
            // board sensors: engineering values after the wire round-trip
            let ins: Vec<Value> = rows[step as usize]
                .iter()
                .map(|&v| Value::F64(from_sample(to_sample(v, SENSOR_SCALE), SENSOR_SCALE)))
                .collect();
            let t = k_exec as f64 * dt;
            k_exec += 1;
            last_raw = step_block(&mut sub, t, dt, &ins).0.iter().map(|v| v.as_f64()).collect();
        }
        replies.push(
            last_raw
                .iter()
                .map(|&v| from_sample(to_sample(v, act_scale), act_scale).to_bits())
                .collect(),
        );
    }
    Ok(replies)
}

/// The MIL ↔ codegen ↔ PIL three-way check on a clean line.
pub fn run_pil_case(case: &ControllerCase, mcu: &McuSpec) -> Result<PilCaseReport, String> {
    // leg 1: reference interpreter vs kernel tape on the flat MIL diagram
    run_mil_case(&case.mil_spec(), case.steps, None)?;
    // leg 2: regenerating the C source is bit-reproducible
    check_codegen_determinism(case)?;

    let act_scale = case.actuation_scale();
    let (stats, received, activations) =
        run_session(case, mcu, FaultSchedule::default(), ArqConfig::FIRE_AND_FORGET, act_scale)?;
    if stats.crc_errors != 0 || stats.dropped_exchanges != 0 {
        return Err(format!(
            "clean line reported {} CRC errors / {} drops",
            stats.crc_errors, stats.dropped_exchanges
        ));
    }
    if activations != case.steps {
        return Err(format!("controller ran {activations} times over {} steps", case.steps));
    }

    // oracle (a): bit-exact against the quantized host replica
    let expected = host_reference(case, &FaultSchedule::default(), act_scale)?;
    if received != expected {
        let step = received.iter().zip(&expected).position(|(a, b)| a != b);
        return Err(format!(
            "PIL actuation diverged from the quantized replica at step {step:?}"
        ));
    }

    // oracle (b): bounded divergence from the exact MIL trajectory —
    // per-channel tolerances are the *certified* quantization bounds
    // from the affine error analysis under the boundary model (sensor
    // round-trip ≤ half an LSB at SENSOR_SCALE in, actuation rounding
    // ≤ half an LSB at act_scale out, exact f64 in between)
    let mil = mil_outputs(case)?;
    let q_sensor = SENSOR_SCALE / 32_768.0;
    let q_act = act_scale / 32_768.0;
    let certs = case.certified_bounds(q_sensor / 2.0, q_act / 2.0)?;
    if certs.len() != case.n_outputs() {
        return Err(format!(
            "{} certificate(s) for {} output channel(s)",
            certs.len(),
            case.n_outputs()
        ));
    }
    let mut report = PilCaseReport { activations, ..Default::default() };
    for (step, bits) in received.iter().enumerate() {
        for (ch, &b) in bits.iter().enumerate() {
            let pil = f64::from_bits(b);
            let exact = mil[step][ch];
            let tol = certs[ch].bound + 1e-9;
            let err = (pil - exact).abs();
            if err > tol {
                return Err(format!(
                    "step {step}, output {ch}: |PIL {pil} − MIL {exact}| = {err:e} \
                     exceeds tolerance {tol:e}"
                ));
            }
            if err > report.worst_divergence {
                report.worst_divergence = err;
                report.tolerance = tol;
            }
        }
    }
    Ok(report)
}

/// The pipeline under a deterministic fault schedule: counters must
/// equal the schedule exactly and the actuation stream must match the
/// drop-aware replica bit-for-bit.
pub fn run_fault_schedule_case(
    case: &ControllerCase,
    mcu: &McuSpec,
    faults: &FaultSchedule,
) -> Result<FaultReport, String> {
    let act_scale = case.actuation_scale();
    let (stats, received, activations) =
        run_session(case, mcu, faults.clone(), ArqConfig::FIRE_AND_FORGET, act_scale)?;

    let n_corrupt = faults.corrupt_steps.len() as u64;
    let n_drop = faults.drop_steps.len() as u64;
    let n_overrun = faults.overrun_steps.len() as u64;
    if stats.crc_errors != n_corrupt {
        return Err(format!("crc_errors {} != schedule {}", stats.crc_errors, n_corrupt));
    }
    if stats.dropped_exchanges != n_corrupt + n_drop {
        return Err(format!(
            "dropped_exchanges {} != schedule {}",
            stats.dropped_exchanges,
            n_corrupt + n_drop
        ));
    }
    if stats.injected_overruns != n_overrun || stats.deadline_misses != n_overrun {
        return Err(format!(
            "overruns {} / deadline misses {} != schedule {}",
            stats.injected_overruns, stats.deadline_misses, n_overrun
        ));
    }
    if activations != case.steps - n_corrupt - n_drop {
        return Err(format!(
            "controller ran {activations} times, expected {}",
            case.steps - n_corrupt - n_drop
        ));
    }

    // drop-aware replica: bit-exact equality on *every* step means the
    // link recovered lockstep on the first clean exchange after a fault
    let expected = host_reference(case, faults, act_scale)?;
    if received != expected {
        let step = received.iter().zip(&expected).position(|(a, b)| a != b);
        return Err(format!(
            "faulted actuation diverged from the drop-aware replica at step {step:?}"
        ));
    }
    Ok(FaultReport {
        crc_errors: stats.crc_errors,
        dropped_exchanges: stats.dropped_exchanges,
        deadline_misses: stats.deadline_misses,
        injected_overruns: stats.injected_overruns,
    })
}

/// Counter totals of an ARQ recovery run (for reporting).
#[derive(Clone, Debug, Default)]
pub struct ArqReport {
    /// Retransmissions the host sent (== the schedule's fault count).
    pub retries: u64,
    /// Expired reply deadlines (== retries on a fully recovered run).
    pub timeouts: u64,
    /// Duplicate requests the board answered from its reply cache.
    pub duplicate_replies: u64,
}

/// The bit-exact recovery proof: under any [`FaultSchedule`] whose
/// per-step fault count stays within the retry budget, the ARQ session
/// must produce the **clean run's** actuation stream bit-for-bit, with
/// counters equal to the schedule and zero lost exchanges — recovery is
/// proved, not just observed.
pub fn run_arq_recovery_case(
    case: &ControllerCase,
    mcu: &McuSpec,
    faults: &FaultSchedule,
    arq: &ArqConfig,
) -> Result<ArqReport, String> {
    // precondition the oracle depends on: every step's fault multiplicity
    // fits the retry budget
    for step in 0..case.steps {
        let m = [&faults.corrupt_steps, &faults.drop_steps, &faults.drop_reply_steps]
            .iter()
            .map(|l| l.iter().filter(|&&s| s == step).count() as u32)
            .sum::<u32>();
        if m > arq.max_retries {
            return Err(format!(
                "schedule puts {m} faults on step {step}, budget is {}",
                arq.max_retries
            ));
        }
    }
    let act_scale = case.actuation_scale();
    let (stats, received, activations) =
        run_session(case, mcu, faults.clone(), *arq, act_scale)?;

    let n_corrupt = faults.corrupt_steps.len() as u64;
    let n_drop_rep = faults.drop_reply_steps.len() as u64;
    let total = (faults.corrupt_steps.len()
        + faults.drop_steps.len()
        + faults.drop_reply_steps.len()) as u64;
    if stats.retries != total || stats.timeouts != total {
        return Err(format!(
            "retries {} / timeouts {} != scheduled fault count {}",
            stats.retries, stats.timeouts, total
        ));
    }
    if stats.crc_errors != n_corrupt {
        return Err(format!("crc_errors {} != schedule {}", stats.crc_errors, n_corrupt));
    }
    if stats.duplicate_replies != n_drop_rep {
        return Err(format!(
            "duplicate_replies {} != dropped replies {}",
            stats.duplicate_replies, n_drop_rep
        ));
    }
    if stats.failed_exchanges != 0 || stats.dropped_exchanges != 0 || stats.degraded_steps != 0 {
        return Err(format!(
            "under-budget faults lost exchanges: failed {} dropped {} degraded {}",
            stats.failed_exchanges, stats.dropped_exchanges, stats.degraded_steps
        ));
    }
    if activations != case.steps {
        return Err(format!(
            "controller ran {activations} times over {} steps (exactly-once violated)",
            case.steps
        ));
    }

    // the oracle: the *clean* replica — a recovered run leaves no trace
    // of the faults in the data
    let expected = host_reference(case, &FaultSchedule::default(), act_scale)?;
    if received != expected {
        let step = received.iter().zip(&expected).position(|(a, b)| a != b);
        return Err(format!(
            "ARQ-recovered actuation differs from the clean run at step {step:?}"
        ));
    }
    Ok(ArqReport {
        retries: stats.retries,
        timeouts: stats.timeouts,
        duplicate_replies: stats.duplicate_replies,
    })
}

/// The graceful-degradation proof: a fault burst past the retry budget
/// at `arq.watchdog_failures` consecutive steps must complete (never
/// error, never wedge) with `degraded_steps > 0`, and the whole
/// trajectory must equal the drop-aware replica bit-for-bit — the
/// held-output steps *and* the host-fallback tail are both exact.
pub fn run_arq_degradation_case(
    case: &ControllerCase,
    mcu: &McuSpec,
    arq: &ArqConfig,
    burst_start: u64,
) -> Result<u64, String> {
    let watchdog = arq.watchdog_failures as u64;
    let trip = burst_start + watchdog;
    if trip >= case.steps {
        return Err(format!(
            "burst at {burst_start}+{watchdog} leaves no degraded tail in {} steps",
            case.steps
        ));
    }
    // each burst step carries one more fault than the budget tolerates
    let burst: Vec<u64> = (burst_start..trip)
        .flat_map(|s| std::iter::repeat_n(s, arq.max_retries as usize + 1))
        .collect();
    let faults = FaultSchedule { drop_steps: burst, ..Default::default() };
    let act_scale = case.actuation_scale();
    let (stats, received, activations) =
        run_session(case, mcu, faults, *arq, act_scale)?;

    if stats.steps != case.steps {
        return Err(format!("run stopped at step {} of {}", stats.steps, case.steps));
    }
    if stats.failed_exchanges != watchdog {
        return Err(format!("failed_exchanges {} != burst {}", stats.failed_exchanges, watchdog));
    }
    if stats.degraded_at_step != Some(trip) {
        return Err(format!(
            "degraded_at_step {:?}, watchdog must trip at {trip}",
            stats.degraded_at_step
        ));
    }
    if stats.degraded_steps != case.steps - trip || stats.degraded_steps == 0 {
        return Err(format!(
            "degraded_steps {} != tail {}",
            stats.degraded_steps,
            case.steps - trip
        ));
    }
    if stats.timeouts != stats.retries + stats.failed_exchanges {
        return Err(format!(
            "timeout accounting broken: {} != {} + {}",
            stats.timeouts, stats.retries, stats.failed_exchanges
        ));
    }
    if activations != case.steps - watchdog {
        return Err(format!(
            "controller ran {activations} times, expected {} (burst steps never execute)",
            case.steps - watchdog
        ));
    }

    // the oracle: the drop-aware replica with the burst as plain drops —
    // held outputs during the burst, exact quantized execution after
    let burst_as_drops = FaultSchedule {
        drop_steps: (burst_start..trip).collect(),
        ..Default::default()
    };
    let expected = host_reference(case, &burst_as_drops, act_scale)?;
    if received != expected {
        let step = received.iter().zip(&expected).position(|(a, b)| a != b);
        return Err(format!(
            "degraded trajectory differs from the drop-aware replica at step {step:?}"
        ));
    }
    Ok(stats.degraded_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_controller_case, gen_mil_spec};
    use peert_mcu::McuCatalog;

    #[test]
    fn engine_matches_interpreter_on_generated_diagrams() {
        for case in 0..12 {
            let spec = gen_mil_spec(0xC0FFEE, case);
            run_mil_case(&spec, 40, None)
                .unwrap_or_else(|e| panic!("case {case}: {e}\nspec: {}", spec.to_json()));
        }
    }

    #[test]
    fn injected_bug_is_caught() {
        // find a generated spec containing a Gain: the buggy interpreter
        // path must diverge from the engine
        let spec = (0..64)
            .map(|c| gen_mil_spec(7, c))
            .find(|s| s.blocks.iter().any(|b| matches!(b, crate::spec::BlockSpec::Gain { .. })))
            .expect("some case contains a Gain");
        assert!(run_mil_case(&spec, 40, Some(InjectedBug::GainOffset)).is_err());
    }

    #[test]
    fn pil_three_way_holds_on_a_generated_controller() {
        let mcu = McuCatalog::standard().find("MC56F8367").unwrap().clone();
        let case = gen_controller_case(0xC0FFEE, 0);
        let report = run_pil_case(&case, &mcu).unwrap();
        assert!(report.worst_divergence <= report.tolerance || report.tolerance == 0.0);
    }

    #[test]
    fn fault_counters_equal_the_schedule() {
        let mcu = McuCatalog::standard().find("MC56F8367").unwrap().clone();
        let case = gen_controller_case(0xC0FFEE, 1);
        let faults = FaultSchedule {
            corrupt_steps: vec![3, 17],
            drop_steps: vec![8, 23],
            overrun_steps: vec![12],
            drop_reply_steps: Vec::new(),
        };
        let r = run_fault_schedule_case(&case, &mcu, &faults).unwrap();
        assert_eq!(
            (r.crc_errors, r.dropped_exchanges, r.deadline_misses, r.injected_overruns),
            (2, 4, 1, 1)
        );
    }

    #[test]
    fn arq_recovery_is_bit_exact_on_a_generated_controller() {
        let mcu = McuCatalog::standard().find("MC56F8367").unwrap().clone();
        let case = gen_controller_case(0xC0FFEE, 2);
        let faults = FaultSchedule {
            corrupt_steps: vec![4, 4, 19],
            drop_steps: vec![9, 30, 30],
            drop_reply_steps: vec![14, 25, 25],
            overrun_steps: Vec::new(),
        };
        let r = run_arq_recovery_case(&case, &mcu, &faults, &ArqConfig::default()).unwrap();
        assert_eq!(r.retries, 9);
        assert_eq!(r.timeouts, 9);
        assert_eq!(r.duplicate_replies, 3);
    }

    #[test]
    fn arq_recovery_rejects_over_budget_schedules_upfront() {
        let mcu = McuCatalog::standard().find("MC56F8367").unwrap().clone();
        let case = gen_controller_case(0xC0FFEE, 2);
        let faults = FaultSchedule { drop_steps: vec![6, 6, 6, 6], ..Default::default() };
        assert!(run_arq_recovery_case(&case, &mcu, &faults, &ArqConfig::default()).is_err());
    }

    #[test]
    fn arq_degradation_is_clean_and_exact_on_a_generated_controller() {
        let mcu = McuCatalog::standard().find("MC56F8367").unwrap().clone();
        let case = gen_controller_case(0xC0FFEE, 3);
        let arq = ArqConfig::default();
        let degraded =
            run_arq_degradation_case(&case, &mcu, &arq, 10).unwrap();
        assert_eq!(degraded, case.steps - 10 - arq.watchdog_failures as u64);
    }
}
