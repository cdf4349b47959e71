//! Differential properties of the kernel tape.
//!
//! The contract under test (DESIGN.md §10): for every diagram the
//! generator can produce, and for hand-built ones with custom blocks,
//! the engine's tape is **bit-exact** with `peert-verify`'s reference
//! interpreter — every output port, every step, including multirate
//! exact-hit boundaries, const-folded subgraphs, trampoline entries and
//! external `fire()` dispatches, with equal block-eval counts — and every
//! `BatchEngine` lane is bit-exact with the same reference.
//! Comparisons go through `f64::to_bits`-style raw encodings
//! (`peert_verify::diff::value_bits`), never through `==` on floats.

use peert_model::block::{Block, BlockCtx, PortCount, SampleTime};
use peert_model::graph::{BlockId, Diagram};
use peert_model::kernel::{KernelError, KernelSpec};
use peert_model::library::math::{Gain, Sum};
use peert_model::library::sources::{Constant, SineWave};
use peert_model::{BatchEngine, Engine, PlanCache, SimError};
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
fn batch_engine_refuses_a_trampoline_and_names_the_block() {
    let err = BatchEngine::new(&opaque_diagram(), 1e-3, 2).err().expect("refused");
    let SimError::Kernel(KernelError::Trampoline { block, name, type_name }) = &err else {
        panic!("expected the trampoline refusal, got {err:?}");
    };
    assert_eq!((*block, name.as_str(), type_name.as_str()), (1, "opaque", "Opaque"));
    let msg = err.to_string();
    assert!(msg.contains("'opaque'") && msg.contains("Opaque"), "{msg}");
    assert!(peert_model::lowering_digest(&opaque_diagram(), 1e-3).is_none());
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
        let mut batch = BatchEngine::with_cache(&d, spec.dt, 3, &mut cache).unwrap();
        let mut reference = RefInterp::new(spec.build().unwrap(), spec.dt).unwrap();
        for s in 0..400 {
            batch.step();
            reference.step();
            for id in reference.ids() {
                for p in 0..reference.outputs_of(id) {
                    let want = value_bits(reference.probe(id, p));
                    for lane in 0..batch.lanes() {
                        assert_eq!(
                            value_bits(batch.probe(lane, (id, p))),
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
    let mut batch = BatchEngine::with_cache(&d, 1e-3, 3, &mut cache).unwrap();
    assert!(batch.set_param(1, g1, 0, 2.0), "lane 1 gets gain 2.0");

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
    let observe = |batch: &mut BatchEngine| -> Vec<Vec<(u8, u64)>> {
        (0..200)
            .map(|_| {
                batch.step();
                (0..3).map(|l| value_bits(batch.probe(l, (BlockId::from_index(2), 0)))).collect()
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
