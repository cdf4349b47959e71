//! Property tests for the quantization-error analysis: on seeded random
//! diagrams the affine (correlation-preserving) radius never exceeds the
//! decorrelated interval radius at any port, and both analyses — and the
//! JSON render carrying their findings — are byte-deterministic across
//! runs. The differential half of this property (measured divergence ≤
//! certified bound on a real quantized run) lives in `peert-verify`'s
//! numeric phase; this side pins the lattice ordering and determinism.

use peert_lint::{
    lint_diagram, render_json, ErrorModel, FormatSpec, LintOptions, QuantOptions,
};
use peert_model::graph::Diagram;
use peert_model::library::discrete::{UnitDelay, ZeroOrderHold};
use peert_model::library::math::{Abs, Gain, MinMax, Sum};
use peert_model::library::nonlinear::{DeadZone, Saturation};
use peert_model::library::sources::Constant;
use peert_model::subsystem::Outport;
use peert_prop::{within, Rng};

const DT: f64 = 1e-3;

/// A seeded random feed-forward diagram over the analyzable block
/// library: 1–2 constant sources, 4–9 interior blocks each wired from
/// random earlier outputs (so `Sum`/`MinMax` inputs often share
/// ancestors and correlation can cancel), and an `Outport` per sink.
fn gen_diagram(seed: u64) -> Diagram {
    let mut r = Rng::new(seed);
    let mut d = Diagram::new();
    let mut ids = Vec::new();
    for s in 0..1 + r.below(2) {
        ids.push(d.add(format!("c{s}"), Constant::new(within(&mut r, -0.7..0.7))).unwrap());
    }
    for i in 0..4 + r.below(6) {
        let (id, inputs) = match r.below(9) {
            0 | 1 => (d.add(format!("g{i}"), Gain::new(within(&mut r, -0.95..0.95))).unwrap(), 1),
            2 | 3 => {
                let signs = if r.below(2) == 0 { "++" } else { "+-" };
                (d.add(format!("s{i}"), Sum::new(signs).unwrap()).unwrap(), 2)
            }
            4 => (d.add(format!("a{i}"), Abs).unwrap(), 1),
            5 => {
                let hi = within(&mut r, 0.3..0.9);
                (d.add(format!("sat{i}"), Saturation::new(-hi, hi).unwrap()).unwrap(), 1)
            }
            6 => (d.add(format!("dz{i}"), DeadZone { width: 0.05 }).unwrap(), 1),
            7 => (d.add(format!("ud{i}"), UnitDelay::new(DT)).unwrap(), 1),
            _ => {
                if r.below(2) == 0 {
                    (d.add(format!("zoh{i}"), ZeroOrderHold::new(DT)).unwrap(), 1)
                } else {
                    let mm = MinMax { is_max: r.below(2) == 0, inputs: 2 };
                    (d.add(format!("mm{i}"), mm).unwrap(), 2)
                }
            }
        };
        for p in 0..inputs {
            let src = ids[r.below(ids.len() as u64) as usize];
            d.connect((src, 0), (id, p)).unwrap();
        }
        ids.push(id);
    }
    let o = d.add("out", Outport).unwrap();
    d.connect((*ids.last().unwrap(), 0), (o, 0)).unwrap();
    d
}

fn quant_opts() -> LintOptions {
    let mut opts = LintOptions::with_format(FormatSpec::q15());
    opts.quant = Some(QuantOptions::new(ErrorModel::all_blocks(&FormatSpec::q15())));
    opts
}

#[test]
fn affine_radius_never_exceeds_the_interval_radius_at_any_port() {
    let mut strict_ports = 0u64;
    for seed in 0..32u64 {
        let d = gen_diagram(seed);
        let lint = lint_diagram(&d, DT, &quant_opts());
        let qa = lint.quant.as_ref().expect("quant analysis ran");
        for i in 0..qa.affine.len() {
            let (a, iv) = (qa.affine[i], qa.interval[i]);
            assert!(
                a <= iv * (1.0 + 1e-12) || (a.is_infinite() && iv.is_infinite()),
                "seed {seed} block {i}: affine {a} > interval {iv}"
            );
            // the published bound is the lattice meet of the two
            assert!(
                qa.bound[i] <= a.min(iv) * (1.0 + 1e-12) || qa.bound[i].is_infinite(),
                "seed {seed} block {i}: bound above both radii"
            );
            if a < iv * (1.0 - 1e-9) {
                strict_ports += 1;
            }
        }
    }
    // the family must actually exercise cancellation, not just tie
    assert!(strict_ports > 0, "no port where correlation tightened the bound");
}

#[test]
fn analysis_and_json_render_are_byte_deterministic() {
    for seed in [0u64, 7, 19, 31] {
        let d1 = gen_diagram(seed);
        let d2 = gen_diagram(seed);
        let l1 = lint_diagram(&d1, DT, &quant_opts());
        let l2 = lint_diagram(&d2, DT, &quant_opts());
        let (q1, q2) = (l1.quant.as_ref().unwrap(), l2.quant.as_ref().unwrap());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&q1.affine), bits(&q2.affine), "seed {seed}: affine drifted");
        assert_eq!(bits(&q1.interval), bits(&q2.interval), "seed {seed}: interval drifted");
        assert_eq!(bits(&q1.bound), bits(&q2.bound), "seed {seed}: bound drifted");
        assert_eq!(q1.certificates, q2.certificates, "seed {seed}: certificates drifted");
        assert_eq!(
            render_json(&l1.report),
            render_json(&l2.report),
            "seed {seed}: JSON render is not byte-stable"
        );
    }
}
