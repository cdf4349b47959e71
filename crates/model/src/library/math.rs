//! Math blocks: Gain, Sum, Product, Abs.

use crate::block::{Block, BlockCtx, ParamValue, PortCount};
use crate::signal::DataType;

/// Multiplies the input by a constant gain; optionally casts the result to
/// a target data type (the typed wires of §7).
pub struct Gain {
    /// The multiplier.
    pub gain: f64,
    /// Output type (None = keep f64).
    pub out_type: Option<DataType>,
}

impl Gain {
    /// Plain f64 gain.
    pub fn new(gain: f64) -> Self {
        Gain { gain, out_type: None }
    }
}

impl Block for Gain {
    fn type_name(&self) -> &'static str {
        "Gain"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![("gain", ParamValue::F(self.gain))]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        // Typed-output gains cast per step; those run through a trampoline.
        match self.out_type {
            None => Some(crate::kernel::KernelSpec::gain(self.gain)),
            Some(_) => None,
        }
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let v = crate::signal::Value::F64(ctx.in_f64(0) * self.gain);
        match self.out_type {
            Some(ty) => ctx.set_output(0, v.cast(ty)),
            None => ctx.set_output(0, v),
        }
    }
}

/// Adds/subtracts its inputs per a sign string such as `"+-"`.
pub struct Sum {
    signs: Vec<f64>,
}

impl Sum {
    /// Build from a sign string (`'+'` or `'-'` per input).
    pub fn new(signs: &str) -> Result<Self, String> {
        let signs: Result<Vec<f64>, String> = signs
            .chars()
            .map(|c| match c {
                '+' => Ok(1.0),
                '-' => Ok(-1.0),
                other => Err(format!("invalid sign character '{other}'")),
            })
            .collect();
        let signs = signs?;
        if signs.is_empty() {
            return Err("sum needs at least one input".into());
        }
        Ok(Sum { signs })
    }

    /// The classic error junction `reference - feedback`.
    pub fn error() -> Self {
        Sum::new("+-").expect("static sign string")
    }
}

impl Block for Sum {
    fn type_name(&self) -> &'static str {
        "Sum"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![("signs", ParamValue::S(self.signs.iter().map(|&s| if s > 0.0 { '+' } else { '-' }).collect()))]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(self.signs.len(), 1)
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::sum(&self.signs))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let v: f64 = self.signs.iter().enumerate().map(|(i, s)| s * ctx.in_f64(i)).sum();
        ctx.set_output(0, v);
    }
}

/// Multiplies its inputs.
pub struct Product {
    /// Number of input ports.
    pub inputs: usize,
}

impl Block for Product {
    fn type_name(&self) -> &'static str {
        "Product"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![("inputs", ParamValue::I(self.inputs as i64))]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(self.inputs, 1)
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::product())
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let v: f64 = (0..self.inputs).map(|i| ctx.in_f64(i)).product();
        ctx.set_output(0, v);
    }
}

/// Elementwise minimum or maximum of its inputs.
pub struct MinMax {
    /// True = max, false = min.
    pub is_max: bool,
    /// Number of input ports.
    pub inputs: usize,
}

impl Block for MinMax {
    fn type_name(&self) -> &'static str {
        "MinMax"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![
            ("is_max", ParamValue::I(self.is_max as i64)),
            ("inputs", ParamValue::I(self.inputs as i64)),
        ]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(self.inputs, 1)
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::minmax(self.is_max))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let vals = (0..self.inputs).map(|i| ctx.in_f64(i));
        let v = if self.is_max {
            vals.fold(f64::NEG_INFINITY, f64::max)
        } else {
            vals.fold(f64::INFINITY, f64::min)
        };
        ctx.set_output(0, v);
    }
}

/// Trigonometric function selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrigOp {
    /// sin(u)
    Sin,
    /// cos(u)
    Cos,
    /// atan2(u0, u1)
    Atan2,
}

/// Trigonometric function block (the field-oriented-control staple).
pub struct TrigFn {
    /// The function.
    pub op: TrigOp,
}

impl Block for TrigFn {
    fn type_name(&self) -> &'static str {
        "TrigFn"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![("op", ParamValue::S(format!("{:?}", self.op)))]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(if self.op == TrigOp::Atan2 { 2 } else { 1 }, 1)
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(match self.op {
            TrigOp::Sin => crate::kernel::KernelSpec::trig_sin(),
            TrigOp::Cos => crate::kernel::KernelSpec::trig_cos(),
            TrigOp::Atan2 => crate::kernel::KernelSpec::trig_atan2(),
        })
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let v = match self.op {
            TrigOp::Sin => ctx.in_f64(0).sin(),
            TrigOp::Cos => ctx.in_f64(0).cos(),
            TrigOp::Atan2 => ctx.in_f64(0).atan2(ctx.in_f64(1)),
        };
        ctx.set_output(0, v);
    }
}

/// Absolute value.
pub struct Abs;

impl Block for Abs {
    fn type_name(&self) -> &'static str {
        "Abs"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        vec![]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::abs())
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let v = ctx.in_f64(0).abs();
        ctx.set_output(0, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::step_block;
    use crate::signal::Value;

    #[test]
    fn gain_multiplies() {
        let (out, _) = step_block(&mut Gain::new(2.5), 0.0, 0.1, &[Value::F64(4.0)]);
        assert_eq!(out[0].as_f64(), 10.0);
    }

    #[test]
    fn gain_casts_output_type() {
        let mut g = Gain { gain: 1.0, out_type: Some(DataType::I16) };
        let (out, _) = step_block(&mut g, 0.0, 0.1, &[Value::F64(3.7)]);
        assert_eq!(out[0], Value::I16(4));
    }

    #[test]
    fn sum_error_junction() {
        let mut s = Sum::error();
        let (out, _) = step_block(&mut s, 0.0, 0.1, &[Value::F64(10.0), Value::F64(3.0)]);
        assert_eq!(out[0].as_f64(), 7.0);
    }

    #[test]
    fn sum_rejects_bad_signs() {
        assert!(Sum::new("+*").is_err());
        assert!(Sum::new("").is_err());
        assert!(Sum::new("++-").is_ok());
    }

    #[test]
    fn product_multiplies_all_inputs() {
        let mut p = Product { inputs: 3 };
        let (out, _) =
            step_block(&mut p, 0.0, 0.1, &[Value::F64(2.0), Value::F64(3.0), Value::F64(4.0)]);
        assert_eq!(out[0].as_f64(), 24.0);
    }

    #[test]
    fn minmax_selects_the_extreme() {
        let ins = [Value::F64(3.0), Value::F64(-1.0), Value::F64(2.0)];
        let (o, _) = step_block(&mut MinMax { is_max: true, inputs: 3 }, 0.0, 0.1, &ins);
        assert_eq!(o[0].as_f64(), 3.0);
        let (o, _) = step_block(&mut MinMax { is_max: false, inputs: 3 }, 0.0, 0.1, &ins);
        assert_eq!(o[0].as_f64(), -1.0);
    }

    #[test]
    fn trig_functions() {
        let half_pi = std::f64::consts::FRAC_PI_2;
        let (o, _) = step_block(&mut TrigFn { op: TrigOp::Sin }, 0.0, 0.1, &[Value::F64(half_pi)]);
        assert!((o[0].as_f64() - 1.0).abs() < 1e-12);
        let (o, _) = step_block(&mut TrigFn { op: TrigOp::Cos }, 0.0, 0.1, &[Value::F64(0.0)]);
        assert_eq!(o[0].as_f64(), 1.0);
        let (o, _) = step_block(
            &mut TrigFn { op: TrigOp::Atan2 },
            0.0,
            0.1,
            &[Value::F64(1.0), Value::F64(1.0)],
        );
        assert!((o[0].as_f64() - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn abs_of_negative() {
        let (out, _) = step_block(&mut Abs, 0.0, 0.1, &[Value::F64(-2.0)]);
        assert_eq!(out[0].as_f64(), 2.0);
    }
}
