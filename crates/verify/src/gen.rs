//! Seeded random diagram generation.
//!
//! Two generators share the grammar in [`crate::spec`]:
//!
//! * [`gen_mil_spec`] emits an arbitrary multirate diagram over the full
//!   block library, for the engine-vs-interpreter differential tests. Wires
//!   into feedthrough blocks only run *forward* (lower index → higher),
//!   so every diagram is acyclic by construction; wires into state
//!   blocks (`UnitDelay`, `DiscreteIntegrator`) may point anywhere,
//!   which exercises feedback loops broken by state.
//! * [`gen_controller_case`] emits a single-rate, pure-forward
//!   controller over the PIL-safe subset plus a host-side stimulus per
//!   input, for the MIL ↔ codegen ↔ PIL three-way test.
//!
//! Every case draws from `Rng::derive(seed, tag ^ case)`, so case `k` is
//! reproducible in isolation: `--seed S --cases k+1` always regenerates
//! it, regardless of what happened to earlier cases.

use crate::rng::Rng;
use crate::spec::{BlockSpec, ControllerCase, DiagramSpec};

/// Stream tag for MIL diagram cases.
const MIL_STREAM: u64 = 0x4D49_4C00_0000_0000;
/// Stream tag for controller/PIL cases.
const CTL_STREAM: u64 = 0x4354_4C00_0000_0000;
/// Stream tag for numeric-certificate cases.
const NUM_STREAM: u64 = 0x4E55_4D00_0000_0000;

/// Fundamental step shared by all generated diagrams.
pub const DT: f64 = 1e-3;

fn gen_source(r: &mut Rng) -> BlockSpec {
    match r.below(5) {
        0 => BlockSpec::Constant { value: r.range_f64(-2.0, 2.0) },
        1 => BlockSpec::Step { time: r.range_f64(0.0, 0.02), level: r.range_f64(-2.0, 2.0) },
        2 => BlockSpec::Sine { amplitude: r.range_f64(0.1, 2.0), freq_hz: r.range_f64(1.0, 80.0) },
        3 => BlockSpec::Ramp { slope: r.range_f64(-5.0, 5.0), start: r.range_f64(0.0, 0.02) },
        _ => BlockSpec::Pulse {
            amplitude: r.range_f64(-2.0, 2.0),
            period: r.range_f64(2.0, 16.0) * DT,
            duty: r.range_f64(0.1, 0.9),
        },
    }
}

fn gen_period(r: &mut Rng) -> f64 {
    *r.pick(&[1.0, 2.0, 4.0, 5.0, 8.0]) * DT
}

fn gen_processing(r: &mut Rng) -> BlockSpec {
    match r.below(16) {
        0 => BlockSpec::Gain { gain: r.range_f64(-3.0, 3.0) },
        1 => BlockSpec::Sum { signs: r.pick(&["++", "+-", "-+", "+++"]).to_string() },
        2 => BlockSpec::Product { inputs: 2 + r.below(2) as usize },
        3 => BlockSpec::MinMax { is_max: r.chance(1, 2), inputs: 2 + r.below(2) as usize },
        4 => BlockSpec::Abs,
        5 => {
            let hi = r.range_f64(0.1, 1.5);
            BlockSpec::Saturation { lo: -r.range_f64(0.1, 1.5), hi }
        }
        6 => BlockSpec::DeadZone { width: r.range_f64(0.05, 0.5) },
        7 => BlockSpec::Quantizer { interval: r.range_f64(0.01, 0.25) },
        8 => BlockSpec::RateLimiter { rate: r.range_f64(0.5, 50.0) },
        9 => {
            let on = r.range_f64(-0.5, 1.0);
            BlockSpec::Relay {
                on_point: on,
                off_point: on - r.range_f64(0.1, 1.0),
                on_value: r.range_f64(0.5, 2.0),
                off_value: r.range_f64(-2.0, 0.0),
            }
        }
        10 => BlockSpec::Compare { op: r.below(6) as u8 },
        11 => BlockSpec::Switch,
        12 => BlockSpec::UnitDelay { period: gen_period(r) },
        13 => BlockSpec::ZeroOrderHold { period: gen_period(r) },
        14 => BlockSpec::DiscreteIntegrator {
            period: gen_period(r),
            lo: -r.range_f64(0.5, 3.0),
            hi: r.range_f64(0.5, 3.0),
        },
        _ => {
            if r.chance(1, 2) {
                BlockSpec::DiscreteDerivative { period: gen_period(r) }
            } else {
                BlockSpec::DiscreteTransferFcn {
                    num: vec![r.range_f64(0.1, 1.0)],
                    den: vec![r.range_f64(-0.9, 0.9)],
                    period: gen_period(r),
                }
            }
        }
    }
}

/// Generate MIL differential case `case` of seed `seed`: an arbitrary
/// multirate diagram of 3–12 blocks, the first 1–2 of which are sources.
pub fn gen_mil_spec(seed: u64, case: u64) -> DiagramSpec {
    let mut r = Rng::derive(seed, MIL_STREAM ^ case);
    let n_sources = 1 + r.below(2) as usize;
    let n_blocks = (3 + r.below(10) as usize).max(n_sources + 1);
    let mut blocks: Vec<BlockSpec> = (0..n_sources).map(|_| gen_source(&mut r)).collect();
    blocks.extend((n_sources..n_blocks).map(|_| gen_processing(&mut r)));

    let mut wires = Vec::new();
    for (i, b) in blocks.iter().enumerate().skip(n_sources) {
        let (n_in, _) = b.ports();
        for p in 0..n_in {
            if !r.chance(7, 8) {
                continue; // leave this input unconnected
            }
            // feedthrough inputs must come from strictly earlier blocks
            // (acyclic by construction); state blocks may close loops
            let src = if b.feedthrough() {
                r.below(i as u64) as usize
            } else {
                r.below(n_blocks as u64) as usize
            };
            if src != i {
                wires.push((src, 0, i, p));
            }
        }
    }
    DiagramSpec { dt: DT, blocks, wires }
}

fn gen_pil_block(r: &mut Rng) -> BlockSpec {
    match r.below(9) {
        0 | 1 => {
            let mag = r.range_f64(0.1, 2.0);
            BlockSpec::Gain { gain: if r.chance(1, 2) { mag } else { -mag } }
        }
        2 => BlockSpec::Sum { signs: r.pick(&["++", "+-"]).to_string() },
        3 => BlockSpec::Abs,
        4 => {
            let hi = r.range_f64(0.2, 1.2);
            BlockSpec::Saturation { lo: -r.range_f64(0.2, 1.2), hi }
        }
        5 => BlockSpec::DeadZone { width: r.range_f64(0.05, 0.4) },
        6 => BlockSpec::MinMax { is_max: r.chance(1, 2), inputs: 2 },
        7 => {
            if r.chance(1, 2) {
                BlockSpec::UnitDelay { period: DT }
            } else {
                BlockSpec::ZeroOrderHold { period: DT }
            }
        }
        _ => BlockSpec::DiscreteIntegrator { period: DT, lo: -1.5, hi: 1.5 },
    }
}

fn gen_stim(r: &mut Rng) -> BlockSpec {
    match r.below(3) {
        0 => BlockSpec::Constant { value: r.range_f64(-0.75, 0.75) },
        1 => BlockSpec::Step { time: r.range_f64(0.0, 0.03), level: r.range_f64(-0.75, 0.75) },
        _ => BlockSpec::Sine { amplitude: r.range_f64(0.1, 0.75), freq_hz: r.range_f64(0.5, 40.0) },
    }
}

/// Generate PIL three-way case `case` of seed `seed`: a single-rate
/// forward-only controller over the PIL-safe block set, 1–2 inputs with
/// bounded stimuli, 1–2 outputs, 48 lockstep exchanges.
pub fn gen_controller_case(seed: u64, case: u64) -> ControllerCase {
    let mut r = Rng::derive(seed, CTL_STREAM ^ case);
    let n_in = 1 + r.below(2) as usize;
    let n_out = 1 + r.below(2) as usize;
    let n_core = 2 + r.below(6) as usize;

    let mut blocks: Vec<BlockSpec> = (0..n_in).map(|index| BlockSpec::Input { index }).collect();
    blocks.extend((0..n_core).map(|_| gen_pil_block(&mut r)));
    blocks.extend((0..n_out).map(|_| BlockSpec::Output));

    let mut wires = Vec::new();
    let first_out = n_in + n_core;
    for (i, b) in blocks.iter().enumerate().skip(n_in) {
        let (n_in_ports, _) = b.ports();
        for p in 0..n_in_ports {
            // Output markers are always driven; core inputs at 7/8
            if i < first_out && !r.chance(7, 8) {
                continue;
            }
            let src = r.below(i.min(first_out) as u64) as usize;
            wires.push((src, 0, i, p));
        }
    }
    let stim = (0..n_in).map(|_| gen_stim(&mut r)).collect();
    ControllerCase { ctl: DiagramSpec { dt: DT, blocks, wires }, stim, steps: 48 }
}

/// Generate numeric-phase case `case` of seed `seed`: a single-rate
/// forward DAG over the affine-friendly block set, opening with a
/// mixed-sign diamond — one bounded source fanned through two positive
/// gains into a `+-` sum — whose correlated rounding errors must
/// cancel, followed by a 2–7 block tail wired strictly into the
/// diamond's cone (so every tail port has wire depth ≥ 3), closed by
/// 1–2 `Output` markers. [`crate::numchk::run_numeric_case`] holds the
/// certified error bounds against a bit-level quantized replica of
/// these diagrams.
pub fn gen_numeric_spec(seed: u64, case: u64) -> DiagramSpec {
    let mut r = Rng::derive(seed, NUM_STREAM ^ case);
    let mut blocks = vec![match r.below(3) {
        0 => BlockSpec::Constant { value: r.range_f64(-0.75, 0.75) },
        1 => BlockSpec::Step { time: r.range_f64(0.0, 0.02), level: r.range_f64(-0.75, 0.75) },
        _ => {
            BlockSpec::Sine { amplitude: r.range_f64(0.1, 0.75), freq_hz: r.range_f64(0.5, 40.0) }
        }
    }];
    blocks.push(BlockSpec::Gain { gain: r.range_f64(0.05, 0.95) });
    blocks.push(BlockSpec::Gain { gain: r.range_f64(0.05, 0.95) });
    blocks.push(BlockSpec::Sum { signs: "+-".into() });
    let mut wires = vec![(0, 0, 1, 0), (0, 0, 2, 0), (1, 0, 3, 0), (2, 0, 3, 1)];

    let n_tail = 2 + r.below(6) as usize; // 2..=7
    for i in 4..4 + n_tail {
        let b = match r.below(8) {
            0 | 1 => {
                let mag = r.range_f64(0.05, 0.95);
                BlockSpec::Gain { gain: if r.chance(1, 2) { mag } else { -mag } }
            }
            2 | 3 => BlockSpec::Sum { signs: r.pick(&["++", "+-"]).to_string() },
            4 => BlockSpec::UnitDelay { period: DT },
            5 => BlockSpec::ZeroOrderHold { period: DT },
            6 => BlockSpec::Abs,
            _ => BlockSpec::Saturation { lo: -r.range_f64(1.5, 2.5), hi: r.range_f64(1.5, 2.5) },
        };
        let (n_in, _) = b.ports();
        for p in 0..n_in {
            // sources drawn from the diamond's sum onward: every tail
            // block sits downstream of the cancellation
            let src = 3 + r.below((i - 3) as u64) as usize;
            wires.push((src, 0, i, p));
        }
        blocks.push(b);
    }

    let n_out = 1 + r.below(2) as usize;
    let last = blocks.len();
    for k in 0..n_out {
        let src =
            if k == 0 { last - 1 } else { 3 + r.below((last - 3) as u64) as usize };
        wires.push((src, 0, last + k, 0));
        blocks.push(BlockSpec::Output);
    }
    DiagramSpec { dt: DT, blocks, wires }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for case in 0..20 {
            assert_eq!(gen_mil_spec(0xC0FFEE, case), gen_mil_spec(0xC0FFEE, case));
            assert_eq!(gen_controller_case(0xC0FFEE, case), gen_controller_case(0xC0FFEE, case));
        }
    }

    #[test]
    fn generated_diagrams_build_and_sort() {
        for case in 0..50 {
            let spec = gen_mil_spec(1, case);
            let d = spec.build().expect("spec must instantiate");
            d.sorted_order().expect("spec must be acyclic");
        }
    }

    #[test]
    fn generated_controllers_are_forward_only_and_well_formed() {
        for case in 0..50 {
            let c = gen_controller_case(2, case);
            for &(sb, _, db, _) in &c.ctl.wires {
                assert!(sb < db, "controller wires must run forward");
            }
            c.subsystem().expect("controller must assemble");
            // every Output marker is driven
            for out in c.output_indices() {
                assert!(c.ctl.wires.iter().any(|&(_, _, db, _)| db == out));
            }
            c.value_bounds();
            // every controller gets a finite certificate per output
            let certs = c.certified_bounds(1e-4, 1e-4).expect("certification must run");
            assert_eq!(certs.len(), c.n_outputs());
            for cert in &certs {
                assert!(
                    cert.bound.is_finite(),
                    "case {case}: infinite certified bound on '{}'",
                    cert.port
                );
            }
        }
    }
}
