//! The `BENCH_*.json` summaries the `experiments` binary writes, one
//! function per file, so their shape is testable without a full run.
//! Key names and order are the files' published schema.

use peert_trace::{JsonValue, ToJson};

use crate::experiments::{E12Row, E16Row, E17Row, E18Row, E19Row, E20Row};

/// `BENCH_trace.json`: the tracer's disabled vs enabled step cost (E12).
pub fn trace_summary(e12: &[E12Row]) -> JsonValue {
    let off = e12[0].ns_per_step;
    let on = e12[1].ns_per_step;
    JsonValue::object([
        ("experiment", JsonValue::str("trace_overhead_400_block_chain")),
        ("steps", e12[0].steps.to_json_value()),
        ("disabled_ns_per_step", off.to_json_value()),
        ("enabled_ns_per_step", on.to_json_value()),
        ("enabled_overhead_pct", ((on - off) / off * 100.0).to_json_value()),
    ])
}

/// `BENCH_kernel.json`: one engine vs batched lanes on the tape (E16).
pub fn kernel_summary(e16: &[E16Row]) -> JsonValue {
    let compiled_ns = e16[0].ns_per_step_per_lane;
    let batched_ns = e16[1].ns_per_step_per_lane;
    JsonValue::object([
        ("experiment", JsonValue::str("kernel_backend_400_block_chain")),
        ("steps", e16[0].steps.to_json_value()),
        ("compiled_ns_per_step", compiled_ns.to_json_value()),
        ("batched_lanes", e16[1].lanes.to_json_value()),
        ("batched_ns_per_step_per_lane", batched_ns.to_json_value()),
        ("speedup_batched_per_lane", (compiled_ns / batched_ns).to_json_value()),
    ])
}

/// `BENCH_serve.json`: coalesced vs per-session serving (E17) and the
/// wire front end's submission overhead (E18).
pub fn serve_summary(e17: &[E17Row], e18: &[E18Row]) -> JsonValue {
    let (solo, gang) = (&e17[0], &e17[1]);
    let (inproc, wire) = (&e18[0], &e18[1]);
    JsonValue::object([
        ("experiment", JsonValue::str("serve_throughput_same_fingerprint_sessions")),
        ("sessions", solo.sessions.to_json_value()),
        ("steps_per_session", solo.steps_per_session.to_json_value()),
        ("solo_sessions_per_sec", solo.sessions_per_sec.to_json_value()),
        ("coalesced_sessions_per_sec", gang.sessions_per_sec.to_json_value()),
        ("speedup_coalesced", (gang.sessions_per_sec / solo.sessions_per_sec).to_json_value()),
        ("solo_p99_step_ns", solo.p99_step_ns.to_json_value()),
        ("coalesced_p99_step_ns", gang.p99_step_ns.to_json_value()),
        ("wire_sessions_per_sec", wire.sessions_per_sec.to_json_value()),
        ("wire_submit_us_mean", wire.submit_us_mean.to_json_value()),
        ("inprocess_submit_us_mean", inproc.submit_us_mean.to_json_value()),
        ("wire_submit_overhead_us", (wire.submit_us_mean - inproc.submit_us_mean).to_json_value()),
    ])
}

/// `BENCH_bus.json`: CAN-bus delivery latency against its bound (E19).
pub fn bus_summary(e19: &[E19Row]) -> JsonValue {
    JsonValue::object([
        ("experiment", JsonValue::str("distributed_pil_over_simulated_can_bus")),
        ("steps", e19[0].steps.to_json_value()),
        ("clean_worst_delivery_cycles", e19[0].worst_delivery_cycles.to_json_value()),
        ("clean_bound_cycles", e19[0].bound_cycles.to_json_value()),
        ("faulted_worst_delivery_cycles", e19[1].worst_delivery_cycles.to_json_value()),
        ("faulted_bound_cycles", e19[1].bound_cycles.to_json_value()),
        ("faulted_retries", e19[1].retries.to_json_value()),
        ("bits_per_frame", e19[0].bits_per_frame.to_json_value()),
        ("bits_per_step", e19[0].bits_per_step.to_json_value()),
        (
            "bound_margin_clean",
            (e19[0].bound_cycles as f64 / e19[0].worst_delivery_cycles as f64).to_json_value(),
        ),
    ])
}

/// `BENCH_lint.json`: affine vs interval quantization bounds (E20).
pub fn lint_summary(e20: &[E20Row]) -> JsonValue {
    let diamond = e20.iter().rev().find(|r| r.family == "diamond").unwrap();
    JsonValue::object([
        ("experiment", JsonValue::str("quant_error_analysis_affine_vs_interval")),
        ("rows", e20.to_json_value()),
        ("diamond_depth", diamond.depth.to_json_value()),
        ("diamond_tightening", diamond.tightening.to_json_value()),
        (
            "worst_analysis_us",
            e20.iter().map(|r| r.analysis_us).fold(0.0f64, f64::max).to_json_value(),
        ),
    ])
}
