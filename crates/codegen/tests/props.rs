//! Property-based tests for the code generator: determinism, structural
//! soundness, and cost monotonicity over randomized gain-chain models.

use peert_codegen::tlc::{Arithmetic, CodegenOptions, TlcRegistry};
use peert_codegen::{generate_controller, TaskImage};
use peert_mcu::{McuCatalog, Op};
use peert_model::block::SampleTime;
use peert_model::graph::Diagram;
use peert_model::library::discrete::UnitDelay;
use peert_model::library::math::{Gain, Sum};
use peert_model::library::nonlinear::Saturation;
use peert_model::subsystem::{Inport, Outport, Subsystem};
use peert_prop::{any, check, prop_assert, prop_assert_eq, vec_of, within, Rng, Verdict};

/// A randomized but always-valid controller: a chain of gains, optional
/// delays and saturations between one inport and one outport.
fn chain(segments: &[(u8, f64)]) -> Subsystem {
    let mut d = Diagram::new();
    let i = d.add("u", Inport).unwrap();
    let mut prev = (i, 0usize);
    for (k, &(kind, v)) in segments.iter().enumerate() {
        let id = match kind % 4 {
            0 => d.add(format!("g{k}"), Gain::new(v)).unwrap(),
            1 => d.add(format!("z{k}"), UnitDelay::new(1e-3)).unwrap(),
            2 => d.add(format!("s{k}"), Saturation::new(-v.abs() - 0.1, v.abs() + 0.1).unwrap()).unwrap(),
            _ => {
                let sum = d.add(format!("a{k}"), Sum::new("+").unwrap()).unwrap();
                sum
            }
        };
        d.connect(prev, (id, 0)).unwrap();
        prev = (id, 0);
    }
    let o = d.add("y", Outport).unwrap();
    d.connect(prev, (o, 0)).unwrap();
    Subsystem::new(d, vec![i], vec![o], SampleTime::every(1e-3)).unwrap()
}

/// One to `max_len - 1` segments of (block kind, parameter in `±amp`).
fn arb_segments(rng: &mut Rng, max_len: usize, amp: f64) -> Vec<(u8, f64)> {
    vec_of(rng, 1..max_len, |r| (any::<u8>(r), within(r, -amp..amp)))
}

/// Generation is deterministic: same model, same text, same ops.
fn deterministic(segments: Vec<(u8, f64)>) -> Verdict {
    let opts = CodegenOptions::default();
    let reg = TlcRegistry::standard();
    let a = generate_controller(&chain(&segments), "m", &opts, &reg).unwrap();
    let b = generate_controller(&chain(&segments), "m", &opts, &reg).unwrap();
    prop_assert_eq!(&a.source.file("m.c").unwrap().text, &b.source.file("m.c").unwrap().text);
    prop_assert_eq!(a.step_ops, b.step_ops);
    prop_assert_eq!(a.state_bytes, b.state_bytes);
    Ok(())
}

/// Every generated unit has nonempty structure: LoC grows with blocks,
/// every block's comment marker appears exactly once.
fn sound_structure(segments: Vec<(u8, f64)>) -> Verdict {
    let code = generate_controller(
        &chain(&segments),
        "m",
        &CodegenOptions::default(),
        &TlcRegistry::standard(),
    )
    .unwrap();
    prop_assert_eq!(code.block_count, segments.len());
    let text = &code.source.file("m.c").unwrap().text;
    for k in 0..segments.len() {
        let markers = [format!("'g{k}'"), format!("'z{k}'"), format!("'s{k}'"), format!("'a{k}'")];
        let count: usize = markers.iter().map(|m| text.matches(m.as_str()).count()).sum();
        prop_assert_eq!(count, 1, "block {} marker appears once", k);
    }
    prop_assert!(!code.step_ops.is_empty());
    Ok(())
}

/// Fixed-point generation never emits float operations, and its state
/// is never larger than the float build's.
fn floatless_and_compact(segments: Vec<(u8, f64)>) -> Verdict {
    let reg = TlcRegistry::standard();
    let q = generate_controller(
        &chain(&segments),
        "m",
        &CodegenOptions { arithmetic: Arithmetic::FixedQ15, dt: 1e-3 },
        &reg,
    )
    .unwrap();
    prop_assert!(!q.step_ops.iter().any(|o| matches!(o, Op::FAdd | Op::FMul | Op::FDiv)));
    let f = generate_controller(&chain(&segments), "m", &CodegenOptions::default(), &reg).unwrap();
    prop_assert!(q.state_bytes <= f.state_bytes);
    Ok(())
}

/// Pricing is monotone across the op stream: the image cost equals the
/// cost-table sum, on every catalog part.
fn priced_by_table(segments: Vec<(u8, f64)>) -> Verdict {
    let code = generate_controller(
        &chain(&segments),
        "m",
        &CodegenOptions::default(),
        &TlcRegistry::standard(),
    )
    .unwrap();
    for spec in McuCatalog::standard().specs() {
        let image = TaskImage::build(&code, spec);
        let expect = spec.cost_table().sequence_cost(&code.step_ops);
        prop_assert_eq!(image.step_cycles, expect, "{}", &spec.name);
    }
    Ok(())
}

#[test]
fn generation_is_deterministic() {
    check(64, |rng| arb_segments(rng, 15, 2.0), deterministic);
}

#[test]
fn structure_is_sound() {
    check(64, |rng| arb_segments(rng, 15, 2.0), sound_structure);
}

#[test]
fn fixed_point_is_floatless_and_compact() {
    check(64, |rng| arb_segments(rng, 15, 0.9), floatless_and_compact);
}

#[test]
fn image_price_equals_the_table_sum() {
    check(64, |rng| arb_segments(rng, 10, 2.0), priced_by_table);
}

/// A once-shrunk property failure (`segments = [(0, 0.0)]`, a single
/// zero gain), kept as a fixed case for all four properties.
#[test]
fn single_zero_gain_satisfies_every_property() {
    for property in [deterministic, sound_structure, floatless_and_compact, priced_by_table] {
        property(vec![(0, 0.0)]).unwrap();
    }
}
