//! The code emitter: walks the controller subsystem in dataflow order and
//! assembles the translation unit.
//!
//! §3: "During the code generation, a code is generated for each block in
//! the model according to the corresponding tlc file. These codes are
//! combined according to the data flow in the model." §5: "The code is of
//! course generated for the controller subsystem only."

use crate::tlc::{BlockCode, CodegenOptions, TlcContext, TlcRegistry};
use peert_mcu::Op;
use peert_model::subsystem::Subsystem;
use std::collections::HashMap;

/// One generated file.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// File name, e.g. `servo.c`.
    pub name: String,
    /// Full text.
    pub text: String,
}

impl SourceFile {
    /// Non-blank lines of code.
    pub fn loc(&self) -> usize {
        self.text.lines().filter(|l| !l.trim().is_empty()).count()
    }
}

/// The generated sources.
#[derive(Clone, Debug, Default)]
pub struct GeneratedSource {
    /// All files.
    pub files: Vec<SourceFile>,
}

impl GeneratedSource {
    /// Total non-blank lines across files.
    pub fn total_loc(&self) -> usize {
        self.files.iter().map(|f| f.loc()).sum()
    }

    /// Find a file by name.
    pub fn file(&self, name: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.name == name)
    }

    /// Order-sensitive FNV-1a 64-bit digest over every file name and its
    /// full text. Code generation is deterministic: regenerating from the
    /// same model must reproduce this digest bit-for-bit, which is the
    /// cheap equivalence check differential harnesses (`peert-verify`)
    /// run before pricing or executing the build.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for f in &self.files {
            eat(f.name.as_bytes());
            eat(&[0]);
            eat(f.text.as_bytes());
            eat(&[0xFF]);
        }
        h
    }

    /// Write every generated file into `dir` (created if missing);
    /// returns the written paths — the tangible build artifact of the
    /// Fig 6.1 code-generation phase.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::with_capacity(self.files.len());
        for f in &self.files {
            let path = dir.join(&f.name);
            std::fs::write(&path, &f.text)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

/// Code-generation failure.
#[derive(Clone, Debug, PartialEq)]
pub enum CodegenError {
    /// A block type has no template in the registry.
    UnsupportedBlock {
        /// Block instance name.
        block: String,
        /// Its library type.
        type_name: String,
    },
    /// A template rejected its context.
    Template(String),
    /// The inner diagram failed to sort.
    Graph(String),
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::UnsupportedBlock { block, type_name } => {
                write!(f, "no tlc template for block '{block}' of type {type_name}")
            }
            CodegenError::Template(m) => write!(f, "template error: {m}"),
            CodegenError::Graph(m) => write!(f, "graph error: {m}"),
        }
    }
}

impl std::error::Error for CodegenError {}

/// The result of generating one controller function.
#[derive(Clone, Debug)]
pub struct ControllerCode {
    /// Model (function) name.
    pub name: String,
    /// Generated files.
    pub source: GeneratedSource,
    /// Priced operations of one periodic step.
    pub step_ops: Vec<Op>,
    /// Priced operations of the init function.
    pub init_ops: Vec<Op>,
    /// Persistent state bytes (RAM).
    pub state_bytes: u32,
    /// Number of code-generating blocks.
    pub block_count: usize,
    /// Sinks/virtual blocks skipped (no production code).
    pub skipped: Vec<String>,
    /// Number of controller inputs.
    pub n_inputs: usize,
    /// Number of controller outputs.
    pub n_outputs: usize,
}

/// The runtime support header every generated translation unit includes:
/// the RTW-style typedefs plus the static-inline helpers the block
/// templates reference (`clamp`, `dead_zone`, `rate_limit`, `quantize`,
/// `lookup1d`, `min`/`max`).
pub fn runtime_header() -> SourceFile {
    let text = r#"/*
 * peert_types.h
 * Generated by PEERT (Processor Expert Real-Time Target)
 * RTW-style scalar typedefs + block-template support routines.
 */
#ifndef PEERT_TYPES_H
#define PEERT_TYPES_H

typedef double         real_T;
typedef signed long    int32_T;
typedef signed short   int16_T;
typedef unsigned short uint16_T;
typedef unsigned char  boolean_T;
typedef signed short   frac16_T;

#define FRAC16(x) ((frac16_T)((x) * 32768.0 >= 32767.0 ? 32767 : (x) * 32768.0))
#define TRUE 1
#define FALSE 0

static inline real_T clamp(real_T v, real_T lo, real_T hi)
{
    return (v > hi) ? hi : ((v < lo) ? lo : v);
}

static inline real_T max(real_T a, real_T b) { return (a > b) ? a : b; }
static inline real_T min(real_T a, real_T b) { return (a < b) ? a : b; }

static inline real_T quantize(real_T v, real_T q)
{
    real_T n = v / q;
    real_T r = (real_T)(long)(n + (n >= 0 ? 0.5 : -0.5));
    return r * q;
}

static inline real_T dead_zone(real_T v, real_T w)
{
    if (v > w)  return v - w;
    if (v < -w) return v + w;
    return 0.0;
}

static inline real_T rate_limit(real_T state, real_T u, real_T up, real_T down)
{
    real_T d = u - state;
    if (d > up)    d = up;
    if (d < -down) d = -down;
    return state + d;
}

static inline real_T lookup1d(real_T u, const real_T *x, const real_T *y, int n)
{
    int i;
    if (u <= x[0])     return y[0];
    if (u >= x[n - 1]) return y[n - 1];
    for (i = 1; i < n; ++i) {
        if (u < x[i]) {
            return y[i - 1] + (u - x[i - 1]) / (x[i] - x[i - 1]) * (y[i] - y[i - 1]);
        }
    }
    return y[n - 1];
}

#endif /* PEERT_TYPES_H */
"#;
    SourceFile { name: "peert_types.h".into(), text: text.to_string() }
}

/// Block types that exist only for simulation/visualisation and generate
/// no production code.
const VIRTUAL_BLOCKS: &[&str] = &["Scope", "Display", "Terminator"];

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, 'b');
    }
    s
}

/// Generate the C code for a controller subsystem.
pub fn generate_controller(
    controller: &Subsystem,
    model_name: &str,
    opts: &CodegenOptions,
    registry: &TlcRegistry,
) -> Result<ControllerCode, CodegenError> {
    let diagram = controller.diagram();
    let order = diagram.sorted_order().map_err(|e| CodegenError::Graph(e.to_string()))?;
    let inports = controller.inports();
    let outports = controller.outports();

    // wire expressions per (block index, output port)
    let mut wire: HashMap<(usize, usize), String> = HashMap::new();
    for (k, ip) in inports.iter().enumerate() {
        wire.insert((ip.index(), 0), format!("u[{k}]"));
    }

    let ty = match opts.arithmetic {
        crate::tlc::Arithmetic::Float => "real_T",
        crate::tlc::Arithmetic::FixedQ15 => "frac16_T",
    };

    // time base: real seconds on float targets, a 32-bit tick counter on
    // fixed-point targets (no float arithmetic may survive a Q15 build)
    let fixed = opts.arithmetic == crate::tlc::Arithmetic::FixedQ15;
    let (time_decl, time_init, time_bump, time_op, time_bytes) = if fixed {
        (
            "static int32_T model_ticks;".to_string(),
            "model_ticks = 0;".to_string(),
            "model_ticks++;".to_string(),
            Op::Add32,
            4u32,
        )
    } else {
        (
            "static real_T model_time;".to_string(),
            "model_time = 0.0;".to_string(),
            format!("model_time += {:?};", opts.dt),
            Op::FAdd,
            8u32,
        )
    };
    let mut decls: Vec<String> = vec![time_decl];
    let mut init: Vec<String> = vec![time_init];
    let mut body: Vec<String> = Vec::new();
    let mut update: Vec<String> = Vec::new();
    let mut step_ops: Vec<Op> = vec![time_op];
    let mut init_ops: Vec<Op> = vec![Op::Store];
    let mut state_bytes: u32 = time_bytes;
    let mut block_count = 0usize;
    let mut skipped = Vec::new();
    let mut used_idents: std::collections::HashSet<String> = std::collections::HashSet::new();

    for id in &order {
        let idx = id.index();
        let block = diagram.block(*id);
        let bname = diagram.name(*id);
        let tname = block.type_name();
        if inports.contains(id) {
            continue; // wires already named
        }
        if VIRTUAL_BLOCKS.contains(&tname) {
            skipped.push(bname.to_string());
            continue;
        }
        // gather input expressions
        let n_in = block.ports().inputs;
        let inputs: Vec<String> = (0..n_in)
            .map(|p| {
                diagram
                    .source_of((*id, p))
                    .and_then(|(src, sp)| wire.get(&(src.index(), sp)).cloned())
                    .unwrap_or_else(|| "0".to_string())
            })
            .collect();
        // name the outputs
        let n_out = block.ports().outputs;
        let outputs: Vec<String> = (0..n_out)
            .map(|p| {
                let v = format!("w_{idx}_{p}");
                wire.insert((idx, p), v.clone());
                v
            })
            .collect();
        if outports.contains(id) {
            // Outport: emitted at the end as y[k] assignments
            continue;
        }

        let Some(tpl) = registry.get(tname) else {
            return Err(CodegenError::UnsupportedBlock {
                block: bname.to_string(),
                type_name: tname.to_string(),
            });
        };
        // distinct blocks must own distinct C identifiers even when their
        // names sanitize to the same string ("a b" vs "a_b")
        let mut ident = sanitize(bname);
        if !used_idents.insert(ident.clone()) {
            ident = format!("{ident}_{idx}");
            used_idents.insert(ident.clone());
        }
        let ctx = TlcContext {
            ident,
            params: block.params().into_iter().collect(),
            inputs,
            outputs: outputs.clone(),
            arith: opts.arithmetic,
            dt: opts.dt,
        };
        let code: BlockCode = tpl(&ctx).map_err(CodegenError::Template)?;
        for out in &outputs {
            body.push(format!("{ty} {out};"));
        }
        body.push(format!("/* {tname}: '{bname}' */"));
        decls.extend(code.decls);
        init.extend(code.init);
        body.extend(code.output);
        update.extend(code.update);
        init_ops.extend(code.ops_output.iter().take(1));
        step_ops.extend(code.ops_output);
        step_ops.extend(code.ops_update.iter().copied());
        state_bytes += code.state_bytes;
        block_count += 1;
    }

    // outport assignments
    let mut tail = Vec::new();
    for (k, op) in outports.iter().enumerate() {
        let expr = diagram
            .source_of((*op, 0))
            .and_then(|(src, sp)| wire.get(&(src.index(), sp)).cloned())
            .unwrap_or_else(|| "0".to_string());
        tail.push(format!("y[{k}] = {expr};"));
        step_ops.extend([Op::Load, Op::Store]);
    }

    let guard = sanitize(model_name).to_uppercase();
    let header = SourceFile {
        name: format!("{model_name}.h"),
        text: format!(
            "/*\n * {model_name}.h\n * Generated by PEERT (Processor Expert Real-Time Target)\n */\n\
             #ifndef {guard}_H\n#define {guard}_H\n\n\
             #include \"peert_types.h\"\n\n\
             void {model_name}_init(void);\n\
             void {model_name}_step(const {ty} *u, {ty} *y);\n\n\
             #endif /* {guard}_H */\n"
        ),
    };

    let mut c = String::new();
    c.push_str(&format!(
        "/*\n * {model_name}.c\n * Generated by PEERT (Processor Expert Real-Time Target)\n \
         * Arithmetic: {:?}; fundamental step: {} s\n */\n\n#include \"{model_name}.h\"\n\n",
        opts.arithmetic, opts.dt
    ));
    for d in &decls {
        c.push_str(d);
        c.push('\n');
    }
    c.push_str(&format!("\nvoid {model_name}_init(void)\n{{\n"));
    for l in &init {
        c.push_str("    ");
        c.push_str(l);
        c.push('\n');
    }
    c.push_str("}\n\n");
    c.push_str(&format!("void {model_name}_step(const {ty} *u, {ty} *y)\n{{\n"));
    for l in &body {
        c.push_str("    ");
        c.push_str(l);
        c.push('\n');
    }
    if !update.is_empty() {
        c.push_str("\n    /* update discrete states */\n");
        for l in &update {
            c.push_str("    ");
            c.push_str(l);
            c.push('\n');
        }
    }
    for l in &tail {
        c.push_str("    ");
        c.push_str(l);
        c.push('\n');
    }
    c.push_str(&format!("    {time_bump}\n}}\n"));
    let c_file = SourceFile { name: format!("{model_name}.c"), text: c };

    Ok(ControllerCode {
        name: model_name.to_string(),
        source: GeneratedSource { files: vec![runtime_header(), header, c_file] },
        step_ops,
        init_ops,
        state_bytes,
        block_count,
        skipped,
        n_inputs: inports.len(),
        n_outputs: outports.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlc::Arithmetic;
    use peert_model::block::SampleTime;
    use peert_model::graph::Diagram;
    use peert_model::library::discrete::UnitDelay;
    use peert_model::library::math::{Gain, Sum};
    use peert_model::library::nonlinear::Saturation;
    use peert_model::library::sinks::Scope;
    use peert_model::subsystem::{Inport, Outport, Subsystem};

    /// A little PI-style controller: y = sat(K*(u0-u1) + z^-1 state)
    fn controller() -> Subsystem {
        let mut d = Diagram::new();
        let r = d.add("r", Inport).unwrap();
        let y = d.add("y", Inport).unwrap();
        let e = d.add("err", Sum::error()).unwrap();
        let g = d.add("kp", Gain::new(0.5)).unwrap();
        let z = d.add("z1", UnitDelay::new(1e-3)).unwrap();
        let s = d.add("sum2", Sum::new("++").unwrap()).unwrap();
        let sat = d.add("limit", Saturation::new(0.0, 1.0).unwrap()).unwrap();
        let out = d.add("duty", Outport).unwrap();
        let scope = d.add("scope", Scope::new()).unwrap();
        d.connect((r, 0), (e, 0)).unwrap();
        d.connect((y, 0), (e, 1)).unwrap();
        d.connect((e, 0), (g, 0)).unwrap();
        d.connect((g, 0), (s, 0)).unwrap();
        d.connect((z, 0), (s, 1)).unwrap();
        d.connect((s, 0), (sat, 0)).unwrap();
        d.connect((sat, 0), (z, 0)).unwrap();
        d.connect((sat, 0), (out, 0)).unwrap();
        d.connect((sat, 0), (scope, 0)).unwrap();
        Subsystem::new(d, vec![r, y], vec![out], SampleTime::every(1e-3)).unwrap()
    }

    #[test]
    fn runtime_header_defines_the_template_helpers() {
        let h = runtime_header();
        for sym in ["real_T", "frac16_T", "clamp", "dead_zone", "rate_limit", "lookup1d", "quantize", "FRAC16"] {
            assert!(h.text.contains(sym), "peert_types.h must define {sym}");
        }
    }

    #[test]
    fn generated_bundle_is_self_contained_and_writable() {
        let code = generate_controller(
            &controller(),
            "servo",
            &CodegenOptions::default(),
            &TlcRegistry::standard(),
        )
        .unwrap();
        assert!(code.source.file("peert_types.h").is_some());
        let dir = std::env::temp_dir().join("peert_emit_test");
        let _ = std::fs::remove_dir_all(&dir);
        let paths = code.source.write_to(&dir).unwrap();
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().all(|p| p.exists()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn regeneration_reproduces_the_digest_bit_for_bit() {
        let gen = || {
            generate_controller(
                &controller(),
                "servo",
                &CodegenOptions::default(),
                &TlcRegistry::standard(),
            )
            .unwrap()
            .source
            .digest()
        };
        assert_eq!(gen(), gen(), "codegen must be deterministic");
        // the digest is sensitive to content: a different module name
        // changes the emitted text
        let other = generate_controller(
            &controller(),
            "servo2",
            &CodegenOptions::default(),
            &TlcRegistry::standard(),
        )
        .unwrap()
        .source
        .digest();
        assert_ne!(gen(), other);
    }

    #[test]
    fn generates_header_and_source() {
        let code = generate_controller(
            &controller(),
            "servo",
            &CodegenOptions::default(),
            &TlcRegistry::standard(),
        )
        .unwrap();
        assert_eq!(code.source.files.len(), 3);
        let h = code.source.file("servo.h").unwrap();
        assert!(h.text.contains("void servo_step(const real_T *u, real_T *y);"));
        let c = code.source.file("servo.c").unwrap();
        assert!(c.text.contains("servo_init"));
        assert!(c.text.contains("y[0] ="));
        assert!(c.text.contains("Generated by PEERT"));
        assert!(code.source.total_loc() > 20);
    }

    #[test]
    fn dataflow_order_is_respected_in_the_emitted_text() {
        let code = generate_controller(
            &controller(),
            "servo",
            &CodegenOptions::default(),
            &TlcRegistry::standard(),
        )
        .unwrap();
        let c = &code.source.file("servo.c").unwrap().text;
        let gain_pos = c.find("'kp'").unwrap();
        let sum2_pos = c.find("'sum2'").unwrap();
        let sat_pos = c.find("'limit'").unwrap();
        assert!(gain_pos < sum2_pos && sum2_pos < sat_pos);
    }

    #[test]
    fn sinks_are_skipped_not_errors() {
        let code = generate_controller(
            &controller(),
            "servo",
            &CodegenOptions::default(),
            &TlcRegistry::standard(),
        )
        .unwrap();
        assert_eq!(code.skipped, vec!["scope".to_string()]);
    }

    #[test]
    fn fixed_point_mode_changes_types_and_ops() {
        let opts = CodegenOptions { arithmetic: Arithmetic::FixedQ15, dt: 1e-3 };
        let code =
            generate_controller(&controller(), "servo", &opts, &TlcRegistry::standard()).unwrap();
        let c = &code.source.file("servo.c").unwrap().text;
        assert!(c.contains("frac16_T"));
        assert!(code
            .step_ops
            .iter()
            .all(|o| !matches!(o, Op::FMul | Op::FDiv)), "no float mul/div in Q15 code");
        // float build for comparison
        let fl = generate_controller(
            &controller(),
            "servo",
            &CodegenOptions::default(),
            &TlcRegistry::standard(),
        )
        .unwrap();
        assert!(fl.step_ops.iter().any(|o| matches!(o, Op::FMul)));
        assert!(fl.state_bytes > code.state_bytes, "double states are bigger");
    }

    #[test]
    fn unsupported_block_is_a_clean_error() {
        use peert_model::library::continuous::Integrator;
        let mut d = Diagram::new();
        let i = d.add("u", Inport).unwrap();
        let integ = d.add("cont", Integrator::new(0.0)).unwrap();
        let o = d.add("y", Outport).unwrap();
        d.connect((i, 0), (integ, 0)).unwrap();
        d.connect((integ, 0), (o, 0)).unwrap();
        let sub = Subsystem::new(d, vec![i], vec![o], SampleTime::every(1e-3)).unwrap();
        let err = generate_controller(
            &sub,
            "bad",
            &CodegenOptions::default(),
            &TlcRegistry::standard(),
        )
        .unwrap_err();
        assert!(matches!(err, CodegenError::UnsupportedBlock { .. }));
        assert!(err.to_string().contains("Integrator"));
    }

    #[test]
    fn io_counts_match_the_ports() {
        let code = generate_controller(
            &controller(),
            "servo",
            &CodegenOptions::default(),
            &TlcRegistry::standard(),
        )
        .unwrap();
        assert_eq!(code.n_inputs, 2);
        assert_eq!(code.n_outputs, 1);
        assert_eq!(code.block_count, 5, "err, kp, z1, sum2, limit");
    }

    #[test]
    fn colliding_sanitized_names_get_distinct_idents() {
        use peert_model::library::discrete::UnitDelay;
        let mut d = Diagram::new();
        let i = d.add("u", Inport).unwrap();
        // both sanitize to "z_1"
        let a = d.add("z 1", UnitDelay::new(1e-3)).unwrap();
        let b = d.add("z_1", UnitDelay::new(1e-3)).unwrap();
        let o = d.add("y", Outport).unwrap();
        d.connect((i, 0), (a, 0)).unwrap();
        d.connect((a, 0), (b, 0)).unwrap();
        d.connect((b, 0), (o, 0)).unwrap();
        let sub = Subsystem::new(d, vec![i], vec![o], SampleTime::every(1e-3)).unwrap();
        let code = generate_controller(
            &sub,
            "m",
            &CodegenOptions::default(),
            &TlcRegistry::standard(),
        )
        .unwrap();
        let text = &code.source.file("m.c").unwrap().text;
        let decls: Vec<&str> =
            text.lines().filter(|l| l.contains("static real_T z_1")).collect();
        assert_eq!(decls.len(), 2, "two distinct state declarations: {decls:?}");
        assert_ne!(decls[0], decls[1], "identifiers must differ");
    }

    #[test]
    fn block_names_are_sanitized_for_c() {
        assert_eq!(super::sanitize("My Block-1"), "my_block_1");
        assert_eq!(super::sanitize("1st"), "b1st");
    }
}
