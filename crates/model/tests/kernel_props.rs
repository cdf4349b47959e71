//! Differential properties of the kernel tape.
//!
//! The contract under test (DESIGN.md §10): for every diagram the
//! generator can produce, and for hand-built ones with custom blocks,
//! the engine's tape is **bit-exact** with `peert-verify`'s reference
//! interpreter — every output port, every step, including multirate
//! exact-hit boundaries, const-folded subgraphs, trampoline entries and
//! external `fire()` dispatches, with equal block-eval counts — and every
//! lane of a multi-lane `Engine` is bit-exact with the same reference.
//! Per-lane parameter overrides stay inside each family's domain: every
//! special value either is refused or steps without a panic.
//! Comparisons go through `f64::to_bits`-style raw encodings
//! (`peert_verify::diff::value_bits`), never through `==` on floats.

use peert_model::block::{Block, BlockCtx, PortCount, SampleTime};
use peert_model::graph::{BlockId, Diagram};
use peert_model::kernel::{KernelError, KernelSpec};
use peert_model::library::math::{Gain, Sum};
use peert_model::library::sources::{Constant, SineWave};
use peert_model::{Engine, PlanCache, SimError};
use peert_verify::diff::value_bits;
use peert_verify::gen::gen_mil_spec;
use peert_verify::interp::RefInterp;

const SEED: u64 = 0x5EED_CAFE;

/// All output ports of every block, as raw bit encodings.
fn port_bits(e: &Engine) -> Vec<(u8, u64)> {
    let mut bits = Vec::new();
    for id in e.diagram().ids() {
        for p in 0..e.diagram().block(id).ports().outputs {
            bits.push(value_bits(e.probe((id, p))));
        }
    }
    bits
}

/// The reference interpreter's view of the same ports.
fn ref_bits(r: &RefInterp) -> Vec<(u8, u64)> {
    let mut bits = Vec::new();
    for id in r.ids() {
        for p in 0..r.outputs_of(id) {
            bits.push(value_bits(r.probe(id, p)));
        }
    }
    bits
}

/// Step the engine and the reference interpreter in lockstep over
/// `steps` steps, asserting every port bit-identical after every step
/// and equal eval counts at the end. `fire_every` optionally dispatches
/// an external event into `fire_into` every N steps on both.
fn assert_lockstep(
    mut e: Engine,
    mut r: RefInterp,
    steps: usize,
    fire: Option<(u64, BlockId)>,
    what: &str,
) {
    for s in 0..steps {
        e.step().unwrap();
        r.step();
        if let Some((n, target)) = fire {
            if (s as u64).is_multiple_of(n) {
                e.fire(target).unwrap();
                r.fire(target);
            }
        }
        assert_eq!(port_bits(&e), ref_bits(&r), "{what} step {s}: tape diverged from reference");
    }
    assert_eq!(e.block_evals(), r.evals(), "{what}: eval accounting");
}

fn assert_case_lockstep(seed: u64, case: u64, steps: usize, fire_every: Option<u64>) {
    let spec = gen_mil_spec(seed, case);
    let e = Engine::new(spec.build().expect("spec builds"), spec.dt).unwrap();
    assert_eq!(
        e.compiled_plan().trampolines(),
        0,
        "case {case}: generated diagram must lower fully"
    );
    let r = RefInterp::new(spec.build().expect("spec builds"), spec.dt).unwrap();
    let last = BlockId::from_index(spec.blocks.len() - 1);
    let what = format!("seed {seed:#x} case {case}");
    assert_lockstep(e, r, steps, fire_every.map(|n| (n, last)), &what);
}

#[test]
fn compiled_is_bit_exact_on_generated_diagrams() {
    // 64 generated diagrams over 1k steps each: the gen grammar mixes
    // periods {1,2,4,5,8} ms at dt = 1 ms, so exact multirate hit
    // boundaries occur throughout.
    for case in 0..64 {
        assert_case_lockstep(SEED, case, 1000, None);
    }
}

#[test]
fn compiled_fire_paths_match_the_reference() {
    for case in 0..16 {
        assert_case_lockstep(SEED ^ 0xF1E, case, 200, Some(7));
    }
}

/// A library `Gain` with a non-trivial rate: period 4 ms, offset 2 ms.
/// It keeps the gain's lowering, so the tape gates a kernel entry on an
/// offset rate bucket.
struct OffsetGain(Gain);
impl Block for OffsetGain {
    fn type_name(&self) -> &'static str {
        "OffsetGain"
    }
    fn ports(&self) -> PortCount {
        self.0.ports()
    }
    fn sample(&self) -> SampleTime {
        SampleTime::Discrete { period: 0.004, offset: 0.002 }
    }
    fn lower(&self) -> Option<KernelSpec> {
        self.0.lower()
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        self.0.output(ctx);
    }
}

fn offset_diagram() -> Diagram {
    let mut d = Diagram::new();
    let s = d.add("sine", SineWave::new(1.0, 25.0)).unwrap();
    let g = d.add("og", OffsetGain(Gain::new(3.0))).unwrap();
    d.connect((s, 0), (g, 0)).unwrap();
    d
}

#[test]
fn offset_bucket_matches_the_reference_bit_exactly() {
    let mut cache = PlanCache::new(4);
    let e = Engine::with_cache(offset_diagram(), 1e-3, &mut cache).unwrap();
    assert_eq!(e.compiled_plan().trampolines(), 0);
    // non-zero offset must veto const folding for the gated block
    assert_eq!(e.compiled_plan().folded_blocks(), 0);
    let r = RefInterp::new(offset_diagram(), 1e-3).unwrap();
    assert_lockstep(e, r, 40, None, "offset bucket");
}

fn foldable_diagram() -> Diagram {
    let mut d = Diagram::new();
    let c1 = d.add("c1", Constant::new(2.0)).unwrap();
    let c2 = d.add("c2", Constant::new(3.0)).unwrap();
    let s = d.add("err", Sum::error()).unwrap();
    let g = d.add("g", Gain::new(1.5)).unwrap();
    let sine = d.add("sine", SineWave::new(0.5, 50.0)).unwrap();
    let mix = d.add("mix", Sum::new("++").unwrap()).unwrap();
    d.connect((c1, 0), (s, 0)).unwrap();
    d.connect((c2, 0), (s, 1)).unwrap();
    d.connect((s, 0), (g, 0)).unwrap();
    d.connect((g, 0), (mix, 0)).unwrap();
    d.connect((sine, 0), (mix, 1)).unwrap();
    d
}

#[test]
fn const_subgraphs_fold_and_stay_bit_exact() {
    let mut cache = PlanCache::new(4);
    let e = Engine::with_cache(foldable_diagram(), 1e-3, &mut cache).unwrap();
    // c1, c2, err, g fold; sine and mix stay live
    assert_eq!(e.compiled_plan().folded_blocks(), 4);
    let r = RefInterp::new(foldable_diagram(), 1e-3).unwrap();
    assert_lockstep(e, r, 50, None, "folded");
}

#[test]
fn unconnected_inputs_read_the_zero_slot() {
    let lone_gain = || {
        let mut d = Diagram::new();
        d.add("g", Gain::new(5.0)).unwrap();
        d
    };
    let mut cache = PlanCache::new(2);
    let e = Engine::with_cache(lone_gain(), 1e-3, &mut cache).unwrap();
    let r = RefInterp::new(lone_gain(), 1e-3).unwrap();
    assert_lockstep(e, r, 3, None, "unconnected");
}

/// A block the lowering does not know: it gets a trampoline entry.
struct Opaque;
impl Block for Opaque {
    fn type_name(&self) -> &'static str {
        "Opaque"
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let v = ctx.in_f64(0) * 0.5 + 1.0;
        ctx.set_output(0, v);
    }
}

fn opaque_diagram() -> Diagram {
    let mut d = Diagram::new();
    let s = d.add("sine", SineWave::new(1.0, 10.0)).unwrap();
    let o = d.add("opaque", Opaque).unwrap();
    let g = d.add("g", Gain::new(2.0)).unwrap();
    d.connect((s, 0), (o, 0)).unwrap();
    d.connect((o, 0), (g, 0)).unwrap();
    d
}

#[test]
fn an_unlowered_block_runs_through_a_trampoline_bit_exact_with_the_reference() {
    let e = Engine::new(opaque_diagram(), 1e-3).unwrap();
    assert_eq!(e.compiled_plan().trampolines(), 1, "only the opaque block trampolines");
    assert_eq!(e.compiled_plan().tape_len(), 3);
    let r = RefInterp::new(opaque_diagram(), 1e-3).unwrap();
    assert_lockstep(e, r, 100, Some((9, BlockId::from_index(1))), "trampoline");
}

#[test]
fn a_multi_lane_engine_refuses_a_trampoline_and_names_the_block() {
    let err = Engine::with_lanes(opaque_diagram(), 1e-3, 2, None).err().expect("refused");
    let SimError::Kernel(KernelError::Trampoline { block, name, type_name }) = &err else {
        panic!("expected the trampoline refusal, got {err:?}");
    };
    assert_eq!((*block, name.as_str(), type_name.as_str()), (1, "opaque", "Opaque"));
    let msg = err.to_string();
    assert!(msg.contains("'opaque'") && msg.contains("Opaque"), "{msg}");
    assert!(peert_model::lowering_digest(&opaque_diagram(), 1e-3).is_none());
    // one lane steps the engine's own block instance
    let mut cache = PlanCache::new(2);
    let e = Engine::with_lanes(opaque_diagram(), 1e-3, 1, Some(&mut cache)).unwrap();
    assert_eq!(e.compiled_plan().trampolines(), 1);
    let r = RefInterp::new(opaque_diagram(), 1e-3).unwrap();
    assert_lockstep(e, r, 50, None, "one-lane trampoline");
}

/// A custom block whose rate is a constructor argument.
struct Paced(f64);
impl Block for Paced {
    fn type_name(&self) -> &'static str {
        "Paced"
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn sample(&self) -> SampleTime {
        SampleTime::every(self.0)
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let v = ctx.in_f64(0) + 1.0;
        ctx.set_output(0, v);
    }
}

fn paced_diagram(period: f64) -> Diagram {
    let mut d = Diagram::new();
    let s = d.add("sine", SineWave::new(1.0, 10.0)).unwrap();
    let p = d.add("paced", Paced(period)).unwrap();
    d.connect((s, 0), (p, 0)).unwrap();
    d
}

#[test]
fn plan_cache_keys_trampoline_tapes_by_the_custom_blocks_rate() {
    let mut cache = PlanCache::new(4);
    let fast = Engine::with_cache(paced_diagram(0.002), 1e-3, &mut cache).unwrap();
    let slow = Engine::with_cache(paced_diagram(0.005), 1e-3, &mut cache).unwrap();
    assert_eq!((cache.hits(), cache.misses()), (0, 2), "one tape per sample time");
    assert_ne!(
        fast.compiled_plan().structural_bytes(),
        slow.compiled_plan().structural_bytes()
    );
    let again = Engine::with_cache(paced_diagram(0.005), 1e-3, &mut cache).unwrap();
    assert!(again.plan_cache_hit(), "a rebuilt identical diagram hits");
    assert_eq!((cache.hits(), cache.misses()), (1, 2));
    // the shared tape steps the rebuilt diagram's own block instances
    for (e, period) in [(fast, 0.002), (again, 0.005)] {
        let r = RefInterp::new(paced_diagram(period), 1e-3).unwrap();
        assert_lockstep(e, r, 30, None, "paced");
    }
}

#[test]
fn reset_rerun_is_byte_identical_with_zero_extra_misses() {
    let spec = gen_mil_spec(SEED ^ 0x7E5E7, 3);
    let mut cache = PlanCache::new(8);
    let mut e = Engine::with_cache(spec.build().unwrap(), spec.dt, &mut cache).unwrap();
    assert_eq!((cache.hits(), cache.misses()), (0, 1), "cold compile");

    let record = |e: &mut Engine| -> Vec<Vec<(u8, u64)>> {
        (0..300)
            .map(|_| {
                e.step().unwrap();
                port_bits(e)
            })
            .collect()
    };
    let first = record(&mut e);
    e.reset();
    let second = record(&mut e);
    assert_eq!(first, second, "reset-then-rerun must reproduce the trajectory byte-for-byte");
    assert_eq!((cache.hits(), cache.misses()), (0, 1), "reset performs no cache traffic");

    // a second engine over the same topology is a warm hit
    let mut e2 = Engine::with_cache(spec.build().unwrap(), spec.dt, &mut cache).unwrap();
    assert!(e2.plan_cache_hit());
    assert_eq!((cache.hits(), cache.misses()), (1, 1), "warmup complete: hit, no new miss");
    let third = record(&mut e2);
    assert_eq!(first, third, "cached tape drives the identical trajectory");
}

fn gain_chain(g: f64) -> Diagram {
    let mut d = Diagram::new();
    let s = d.add("sine", SineWave::new(1.0, 10.0)).unwrap();
    let a = d.add("g1", Gain::new(g)).unwrap();
    let b = d.add("g2", Gain::new(g + 1.0)).unwrap();
    d.connect((s, 0), (a, 0)).unwrap();
    d.connect((a, 0), (b, 0)).unwrap();
    d
}

#[test]
fn lru_eviction_counters_match_the_analytic_sequence() {
    // capacity 2, three distinct fingerprints round-robin: every access
    // evicts the entry the next access needs, so all six are misses.
    let mut cache = PlanCache::new(2);
    let gains = [2.0, 3.0, 5.0];
    let mut first_bytes: Vec<Vec<u8>> = Vec::new();
    for &g in &gains {
        let e = Engine::with_cache(gain_chain(g), 1e-3, &mut cache).unwrap();
        first_bytes.push(e.compiled_plan().structural_bytes());
    }
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 3, 2));
    for (i, &g) in gains.iter().enumerate() {
        let e = Engine::with_cache(gain_chain(g), 1e-3, &mut cache).unwrap();
        // determinism gate: the evicted plan recompiles byte-identically
        assert_eq!(
            e.compiled_plan().structural_bytes(),
            first_bytes[i],
            "recompile of evicted plan {i} must be byte-identical"
        );
    }
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 6, 2), "LRU thrash: zero hits");
    // after [.., B, C] in cache, B and C hit; A misses again
    let _ = Engine::with_cache(gain_chain(3.0), 1e-3, &mut cache).unwrap();
    let _ = Engine::with_cache(gain_chain(5.0), 1e-3, &mut cache).unwrap();
    assert_eq!((cache.hits(), cache.misses()), (2, 6));
    let _ = Engine::with_cache(gain_chain(2.0), 1e-3, &mut cache).unwrap();
    assert_eq!((cache.hits(), cache.misses()), (2, 7));
}

#[test]
fn batched_lanes_are_bit_exact_with_the_reference() {
    for case in [0u64, 5, 11, 23] {
        let spec = gen_mil_spec(SEED ^ 0xBA7C, case);
        let d = spec.build().unwrap();
        let mut cache = PlanCache::new(4);
        let mut batch = Engine::with_lanes(d, spec.dt, 3, Some(&mut cache)).unwrap();
        let mut reference = RefInterp::new(spec.build().unwrap(), spec.dt).unwrap();
        for s in 0..400 {
            batch.step().unwrap();
            reference.step();
            for id in reference.ids() {
                for p in 0..reference.outputs_of(id) {
                    let want = value_bits(reference.probe(id, p));
                    for lane in 0..batch.lanes() {
                        assert_eq!(
                            value_bits(batch.probe_lane(lane, (id, p))),
                            want,
                            "case {case} step {s} lane {lane} block #{b} port {p}",
                            b = id.index()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn batched_param_overrides_diverge_single_lanes_only() {
    let d = gain_chain(0.5);
    let g1 = BlockId::from_index(1);
    let mut cache = PlanCache::new(4);
    let mut batch = Engine::with_lanes(d, 1e-3, 3, Some(&mut cache)).unwrap();
    assert_eq!(batch.set_param(1, g1, 0, 2.0), Ok(()), "lane 1 gets gain 2.0");

    // reference: same chain rebuilt with g1's factor overridden (g2
    // keeps the built diagram's 1.5)
    let reference = |g1_gain: f64| -> Vec<(u8, u64)> {
        let mut dd = Diagram::new();
        let s = dd.add("sine", SineWave::new(1.0, 10.0)).unwrap();
        let a = dd.add("g1", Gain::new(g1_gain)).unwrap();
        let b = dd.add("g2", Gain::new(1.5)).unwrap();
        dd.connect((s, 0), (a, 0)).unwrap();
        dd.connect((a, 0), (b, 0)).unwrap();
        let mut r = RefInterp::new(dd, 1e-3).unwrap();
        (0..200)
            .map(|_| {
                r.step();
                value_bits(r.probe(b, 0))
            })
            .collect()
    };
    let base = reference(0.5);
    let boosted = reference(2.0);
    let observe = |batch: &mut Engine| -> Vec<Vec<(u8, u64)>> {
        (0..200)
            .map(|_| {
                batch.step().unwrap();
                let g2 = (BlockId::from_index(2), 0);
                (0..3).map(|l| value_bits(batch.probe_lane(l, g2))).collect()
            })
            .collect()
    };
    let lanes = observe(&mut batch);
    for (s, row) in lanes.iter().enumerate() {
        assert_eq!(row[0], base[s], "lane 0 untouched");
        assert_eq!(row[1], boosted[s], "lane 1 overridden");
        assert_eq!(row[2], base[s], "lane 2 untouched");
    }
    // overrides survive reset(): the rerun reproduces the same split
    batch.reset();
    let rerun = observe(&mut batch);
    assert_eq!(lanes, rerun, "reset preserves per-lane overrides and the trajectory");
}

/// One instance of every library family that lowers to a kernel, named,
/// for the override property below. Each is fed by a sine on every
/// input, so only the overridden parameter can push it off its domain.
fn lowered_families() -> Vec<(&'static str, Box<dyn Block>)> {
    use peert_model::library::*;
    let dt = 1e-3;
    vec![
        ("Constant", Box::new(Constant::new(0.5))),
        ("Step", Box::new(Step::new(0.005, 1.0))),
        ("Ramp", Box::new(Ramp { slope: 2.0, start_time: 0.002 })),
        ("SineWave", Box::new(SineWave::new(1.0, 25.0))),
        (
            "PulseGenerator",
            Box::new(PulseGenerator { amplitude: 1.0, period: 0.004, duty: 0.5, delay: 0.0 }),
        ),
        ("Gain", Box::new(Gain::new(1.5))),
        ("Sum", Box::new(Sum::new("+-").unwrap())),
        ("Product", Box::new(Product { inputs: 2 })),
        ("MinMax", Box::new(MinMax { is_max: true, inputs: 2 })),
        ("Abs", Box::new(Abs)),
        ("TrigFn", Box::new(TrigFn { op: TrigOp::Atan2 })),
        ("Saturation", Box::new(Saturation::new(-0.5, 0.5).unwrap())),
        ("DeadZone", Box::new(DeadZone { width: 0.2 })),
        ("Quantizer", Box::new(Quantizer { interval: 0.25 })),
        ("RateLimiter", Box::new(RateLimiter::new(10.0).unwrap())),
        ("Relay", Box::new(Relay::new(0.5, -0.5, 1.0, 0.0).unwrap())),
        ("Compare", Box::new(Compare { op: CompareOp::Lt })),
        ("LogicGate", Box::new(LogicGate { op: LogicOp::Xor, inputs: 2 })),
        ("Switch", Box::new(Switch)),
        ("UnitDelay", Box::new(UnitDelay::new(dt))),
        ("ZeroOrderHold", Box::new(ZeroOrderHold::new(2.0 * dt))),
        ("DiscreteIntegrator", Box::new(DiscreteIntegrator::new(dt))),
        (
            "DiscreteIntegrator (limited)",
            Box::new(DiscreteIntegrator::with_limits(dt, -0.1, 0.1).unwrap()),
        ),
        ("DiscreteDerivative", Box::new(DiscreteDerivative::new(dt))),
        (
            "DiscreteTransferFcn",
            Box::new(DiscreteTransferFcn::new(dt, vec![0.5, 0.5], vec![-0.2]).unwrap()),
        ),
        ("Integrator", Box::new(Integrator::new(0.0))),
        ("TransferFcn1", Box::new(TransferFcn1::new(2.0, 0.01).unwrap())),
        (
            "Lookup1D",
            Box::new(Lookup1D::new(vec![-1.0, 0.0, 1.0], vec![0.0, 2.0, 1.0]).unwrap()),
        ),
    ]
}

#[test]
fn every_special_parameter_override_is_refused_or_steps_without_a_panic() {
    const SPECIAL: [f64; 8] =
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.0, 5e-324, 1e300];
    // past the widest window (the Lookup1D's 7), so refusing an index
    // past the window is part of the property too
    const INDICES: usize = 9;
    let (mut accepted, mut refused) = (0, 0);
    for (name, block) in lowered_families() {
        let mut d = Diagram::new();
        let s = d.add("sine", SineWave::new(1.0, 25.0)).unwrap();
        let inputs = block.ports().inputs;
        let b = d.add_boxed(name.into(), block).unwrap();
        for port in 0..inputs {
            d.connect((s, 0), (b, port)).unwrap();
        }
        // one lane per (index, value), so every override lands alone
        let lanes = INDICES * SPECIAL.len();
        let mut e = Engine::with_lanes(d, 1e-3, lanes, Some(&mut PlanCache::new(1))).unwrap();
        for lane in 0..lanes {
            let (index, v) = (lane / SPECIAL.len(), SPECIAL[lane % SPECIAL.len()]);
            match e.set_param(lane, b, index, v) {
                Ok(()) => accepted += 1,
                Err(why) => {
                    assert!(!why.is_empty(), "{name}: a refusal carries its reason");
                    refused += 1;
                }
            }
        }
        for _ in 0..16 {
            e.step().unwrap_or_else(|err| panic!("{name}: {err}"));
        }
    }
    // both halves of the property were exercised
    assert!(accepted > 0 && refused > 0, "accepted {accepted}, refused {refused}");
}

#[test]
fn refused_overrides_name_the_value_and_leave_the_lane_untouched() {
    use peert_model::library::{DiscreteIntegrator, DiscreteTransferFcn, Saturation};
    let mut d = Diagram::new();
    let s = d.add("sine", SineWave::new(1.0, 25.0)).unwrap();
    let sat = d.add("sat", Saturation::new(-0.5, 1.0).unwrap()).unwrap();
    let int = d.add("int", DiscreteIntegrator::with_limits(1e-3, -1.0, 1.0).unwrap()).unwrap();
    let tf = d.add("tf", DiscreteTransferFcn::new(1e-3, vec![1.0, 0.5], vec![-0.3]).unwrap());
    let tf = tf.unwrap();
    d.connect((s, 0), (sat, 0)).unwrap();
    d.connect((sat, 0), (int, 0)).unwrap();
    d.connect((int, 0), (tf, 0)).unwrap();
    let mut cache = PlanCache::new(2);
    let mut e = Engine::with_lanes(d, 1e-3, 2, Some(&mut cache)).unwrap();
    for (block, index, v, names) in [
        (sat, 0, 5.0, "5"),
        (sat, 1, f64::NAN, "NaN"),
        (int, 1, 0.0, "(to 0)"),
        (int, 2, 2.0, "2"),
        (tf, 0, 9.0, "(to 9)"),
        (tf, 1, 0.0, "(to 0)"),
    ] {
        let why = e.set_param(1, block, index, v).unwrap_err();
        assert!(why.contains(names), "refusal of {v} must name it: {why}");
    }
    // lane 1 still steps exactly like lane 0
    for _ in 0..40 {
        e.step().unwrap();
        for b in [sat, int, tf] {
            assert_eq!(value_bits(e.probe_lane(0, (b, 0))), value_bits(e.probe_lane(1, (b, 0))));
        }
    }
}

#[test]
fn a_nan_into_a_lookup_table_steps_bit_exact_with_the_reference() {
    use peert_model::library::Lookup1D;
    let diagram = || {
        let mut d = Diagram::new();
        let c = d.add("nan", Constant::new(f64::NAN)).unwrap();
        let table = Lookup1D::new(vec![-1.0, 0.0, 1.0], vec![0.0, 2.0, 1.0]).unwrap();
        let t = d.add("table", table).unwrap();
        d.connect((c, 0), (t, 0)).unwrap();
        d
    };
    let e = Engine::new(diagram(), 1e-3).unwrap();
    let r = RefInterp::new(diagram(), 1e-3).unwrap();
    assert_lockstep(e, r, 4, None, "NaN lookup");
}
