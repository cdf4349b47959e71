//! End-to-end checks of the verification harness itself, at a smaller
//! case count than the CI gate, plus the negative tests the harness
//! relies on (`try_probe` error reporting, reset determinism).

use peert_model::{Engine, ProbeError};
use peert_pil::FaultSchedule;
use peert_verify::{demo_shrink, diff, gen, run_suite, spec::BlockSpec};

#[test]
fn small_suite_passes() {
    let report = run_suite(0xC0FFEE, 8, true).unwrap_or_else(|f| {
        panic!("phase {} case {} failed: {}\nspec: {}", f.phase, f.case, f.message, f.spec)
    });
    assert_eq!(report.mil_cases, 8);
    assert_eq!(report.pil_cases, 8);
    assert_eq!(report.fault_cases, 1);
    assert!(report.worst_divergence <= report.worst_tolerance || report.worst_divergence == 0.0);
}

#[test]
fn different_seeds_generate_different_diagrams() {
    assert_ne!(gen::gen_mil_spec(1, 0), gen::gen_mil_spec(2, 0));
}

#[test]
fn shrink_demo_reduces_to_a_single_gain() {
    let (min, blocks) = demo_shrink(0xC0FFEE).unwrap();
    assert!(blocks <= 5, "minimal repro has {blocks} blocks");
    assert!(
        min.blocks.iter().all(|b| matches!(b, BlockSpec::Gain { .. })),
        "only the buggy block class survives shrinking: {min:?}"
    );
}

#[test]
fn out_of_range_probe_is_an_error_not_a_panic() {
    // a BlockId minted by a *bigger* diagram indexes past the engine's
    // arena: try_probe must report it as a structured error
    let small = gen::gen_mil_spec(3, 0);
    let big = {
        // grow a diagram guaranteed to have more blocks than `small`
        let mut spec = small.clone();
        while spec.blocks.len() <= small.blocks.len() + 1 {
            spec.blocks.push(BlockSpec::Abs);
        }
        spec
    };
    let foreign = big.build().unwrap().ids().last().unwrap();
    let engine = Engine::new(small.build().unwrap(), small.dt).unwrap();
    match engine.try_probe((foreign, 0)) {
        Err(ProbeError::BlockOutOfRange { block, len }) => {
            assert_eq!(block, foreign.index());
            assert_eq!(len, small.blocks.len());
        }
        other => panic!("expected BlockOutOfRange, got {other:?}"),
    }
    // and a valid block with a bogus port
    let first = small.build().unwrap().ids().next().unwrap();
    assert!(matches!(
        engine.try_probe((first, 99)),
        Err(ProbeError::PortOutOfRange { port: 99, .. })
    ));
}

#[test]
fn reset_after_a_fault_schedule_run_replays_byte_for_byte() {
    // the fault schedule lives in the PIL layer; the MIL engine's reset
    // contract is checked on the same generated controller diagram
    let case = gen::gen_controller_case(0xC0FFEE, 2);
    diff::check_reset_determinism(&case.mil_spec(), case.steps).unwrap();

    // and the faulted PIL run itself is replay-deterministic: two
    // sessions with the same schedule agree on every counter
    let mcu = peert_verify::default_mcu();
    let faults = FaultSchedule {
        corrupt_steps: vec![5, 19],
        drop_steps: vec![11],
        overrun_steps: vec![27],
        drop_reply_steps: Vec::new(),
    };
    let a = diff::run_fault_schedule_case(&case, &mcu, &faults).unwrap();
    let b = diff::run_fault_schedule_case(&case, &mcu, &faults).unwrap();
    assert_eq!(
        (a.crc_errors, a.failed_exchanges, a.deadline_misses, a.injected_overruns),
        (b.crc_errors, b.failed_exchanges, b.deadline_misses, b.injected_overruns)
    );
    assert_eq!((a.crc_errors, a.failed_exchanges), (2, 3));
}
