//! Lookup-table blocks — the calibration-map workhorses of automotive
//! control software (the §2 powertrain context).

use crate::block::{Block, BlockCtx, ParamValue, PortCount};

/// 1-D lookup table with linear interpolation and clamped ends.
pub struct Lookup1D {
    /// Breakpoints (strictly increasing).
    pub x: Vec<f64>,
    /// Table values (same length as `x`).
    pub y: Vec<f64>,
}

impl Lookup1D {
    /// Build a table; validates monotonicity and matching lengths.
    pub fn new(x: Vec<f64>, y: Vec<f64>) -> Result<Self, String> {
        if x.len() != y.len() {
            return Err("breakpoints and values must have the same length".into());
        }
        if x.len() < 2 {
            return Err("lookup table needs at least two points".into());
        }
        crate::kernel::breakpoints_domain(&x)?;
        Ok(Lookup1D { x, y })
    }

    /// Interpolate at `u` (clamped outside the breakpoint range).
    pub fn eval(&self, u: f64) -> f64 {
        if u <= self.x[0] {
            return self.y[0];
        }
        if u >= *self.x.last().unwrap() {
            return *self.y.last().unwrap();
        }
        // a NaN input is below no breakpoint: floor the index so it
        // interpolates to NaN instead of indexing before the table
        let i = self.x.partition_point(|&b| b <= u).max(1);
        let (x0, x1) = (self.x[i - 1], self.x[i]);
        let (y0, y1) = (self.y[i - 1], self.y[i]);
        y0 + (u - x0) / (x1 - x0) * (y1 - y0)
    }
}

impl Block for Lookup1D {
    fn type_name(&self) -> &'static str {
        "Lookup1D"
    }
    fn params(&self) -> Vec<(&'static str, ParamValue)> {
        let join = |v: &[f64]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",");
        vec![
            ("x", ParamValue::S(join(&self.x))),
            ("y", ParamValue::S(join(&self.y))),
        ]
    }
    fn ports(&self) -> PortCount {
        PortCount::new(1, 1)
    }
    fn lower(&self) -> Option<crate::kernel::KernelSpec> {
        Some(crate::kernel::KernelSpec::lookup1d(&self.x, &self.y))
    }
    fn output(&mut self, ctx: &mut BlockCtx) {
        let v = self.eval(ctx.in_f64(0));
        ctx.set_output(0, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::step_block;
    use crate::signal::Value;

    fn table() -> Lookup1D {
        Lookup1D::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 15.0]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Lookup1D::new(vec![0.0, 1.0], vec![0.0]).is_err());
        assert!(Lookup1D::new(vec![0.0], vec![0.0]).is_err());
        assert!(Lookup1D::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(Lookup1D::new(vec![1.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(Lookup1D::new(vec![0.0, f64::NAN], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn interpolates_linearly() {
        let t = table();
        assert_eq!(t.eval(0.5), 5.0);
        assert_eq!(t.eval(1.5), 12.5);
        assert_eq!(t.eval(1.0), 10.0, "exact breakpoint");
    }

    #[test]
    fn a_nan_input_reads_nan_instead_of_indexing_before_the_table() {
        assert!(table().eval(f64::NAN).is_nan());
    }

    #[test]
    fn clamps_outside_the_range() {
        let t = table();
        assert_eq!(t.eval(-5.0), 0.0);
        assert_eq!(t.eval(99.0), 15.0);
    }

    #[test]
    fn block_interface_and_params() {
        let mut t = table();
        let (o, _) = step_block(&mut t, 0.0, 0.01, &[Value::F64(0.5)]);
        assert_eq!(o[0].as_f64(), 5.0);
        let params = t.params();
        assert_eq!(params[0].1.as_str(), Some("0,1,2"));
    }
}
