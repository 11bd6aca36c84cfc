//! C source emission.
//!
//! Two printers live here:
//!
//! * [`emit_c`] — turns a scheduled procedure into the kind of
//!   C-with-intrinsics code that Exo itself produces and the paper feeds to
//!   `gcc-10` (Section III, step g). A faithful rendering of the IR — loops,
//!   scalar statements, register-file allocations as `float32x4_t` arrays,
//!   and instruction calls expanded through their `@instr` format strings —
//!   meant for inspection and for the artifact's code-listing outputs.
//! * [`emit_superword_c`] — lowers a *validated superword tape* to a
//!   self-contained, compilable C translation unit: the ahead-of-time
//!   source of the `exo-aot` native tier. Unlike `emit_c`, this output is
//!   built to be compiled on the host (AVX2/FMA or NEON intrinsics, or a
//!   plain-C portable floor) and `dlopen`ed as the fifth execution tier.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use exo_ir::printer::expr_to_string;
use exo_ir::{ArgKind, CallArg, Expr, MemSpace, Proc, ScalarType, Stmt, Sym, WAccess};

use crate::error::{CodegenError, Result};
use crate::exec::ParamKind;
use crate::simd::IsaKind;
use crate::superword::{SAddr, SuperwordKernel, VOp};
use crate::tape::{Addr, TOp, Term};

/// Per-buffer shape information collected before emission.
#[derive(Debug, Clone)]
struct BufInfo {
    dims: Vec<Expr>,
    mem: MemSpace,
}

fn vector_c_type(ty: ScalarType, mem: MemSpace) -> &'static str {
    match (mem, ty) {
        (MemSpace::Neon, _) => "float32x4_t",
        (MemSpace::Neon8f, _) => "float16x8_t",
        (MemSpace::Avx512, _) => "__m512",
        _ => ty.c_name(),
    }
}

/// Emits a C translation unit containing the procedure.
///
/// # Errors
///
/// Returns [`CodegenError`] if a referenced buffer cannot be resolved or a
/// call argument does not fit the instruction's format string.
pub fn emit_c(p: &Proc) -> Result<String> {
    let mut bufs: BTreeMap<Sym, BufInfo> = BTreeMap::new();
    let written_args = p.written_params();
    for arg in &p.args {
        if let ArgKind::Tensor { ty, dims, mem } = &arg.kind {
            let _ = ty;
            bufs.insert(arg.name.clone(), BufInfo { dims: dims.clone(), mem: *mem });
        }
    }
    for (_, stmt) in exo_ir::stmt::walk(&p.body) {
        if let Stmt::Alloc { name, ty, dims, mem } = stmt {
            let _ = ty;
            bufs.insert(name.clone(), BufInfo { dims: dims.clone(), mem: *mem });
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "// Generated by the exo-ukr micro-kernel generator.");
    let _ = writeln!(out, "#include <stdint.h>");
    let _ = writeln!(out, "#if defined(__ARM_NEON)");
    let _ = writeln!(out, "#include <arm_neon.h>");
    let _ = writeln!(out, "#elif defined(__AVX512F__)");
    let _ = writeln!(out, "#include <immintrin.h>");
    let _ = writeln!(out, "#endif");
    let _ = writeln!(out);

    // Signature.
    let mut params: Vec<String> = Vec::new();
    for arg in &p.args {
        match &arg.kind {
            ArgKind::Size => params.push(format!("int_fast32_t {}", arg.name)),
            ArgKind::Index => params.push(format!("int_fast32_t {}", arg.name)),
            ArgKind::Tensor { ty, .. } => {
                let qual = if written_args.contains(&arg.name) { "" } else { "const " };
                params.push(format!("{qual}{}* {}", ty.c_name(), arg.name));
            }
        }
    }
    let _ = writeln!(out, "void {}({}) {{", p.name, params.join(", "));
    for stmt in &p.body {
        emit_stmt(stmt, 1, &bufs, &mut out)?;
    }
    let _ = writeln!(out, "}}");
    Ok(out)
}

fn indent(level: usize) -> String {
    "    ".repeat(level)
}

fn emit_stmt(stmt: &Stmt, level: usize, bufs: &BTreeMap<Sym, BufInfo>, out: &mut String) -> Result<()> {
    let pad = indent(level);
    match stmt {
        Stmt::Comment(c) => {
            let _ = writeln!(out, "{pad}// {c}");
        }
        Stmt::Alloc { name, ty, dims, mem } => {
            if mem.is_register() {
                // The innermost dimension is held by the vector register type.
                let reg_ty = vector_c_type(*ty, *mem);
                let outer: Vec<String> = dims
                    .iter()
                    .take(dims.len().saturating_sub(1))
                    .map(|d| format!("[{}]", expr_to_string(d)))
                    .collect();
                if outer.is_empty() {
                    let _ = writeln!(out, "{pad}{reg_ty} {name};");
                } else {
                    let _ = writeln!(out, "{pad}{reg_ty} {name}{};", outer.join(""));
                }
            } else {
                let total = dims.iter().map(expr_to_string).collect::<Vec<_>>().join(" * ");
                if dims.is_empty() {
                    let _ = writeln!(out, "{pad}{} {name}[1];", ty.c_name());
                } else {
                    let _ = writeln!(out, "{pad}{} {name}[{total}];", ty.c_name());
                }
            }
        }
        Stmt::For { var, lo, hi, body } => {
            let _ = writeln!(
                out,
                "{pad}for (int_fast32_t {var} = {}; {var} < {}; {var}++) {{",
                expr_to_string(lo),
                expr_to_string(hi)
            );
            for s in body {
                emit_stmt(s, level + 1, bufs, out)?;
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Assign { buf, idx, rhs } => {
            let lhs = scalar_access(buf, idx, bufs)?;
            let _ = writeln!(out, "{pad}{lhs} = {};", emit_expr(rhs, bufs)?);
        }
        Stmt::Reduce { buf, idx, rhs } => {
            let lhs = scalar_access(buf, idx, bufs)?;
            let _ = writeln!(out, "{pad}{lhs} += {};", emit_expr(rhs, bufs)?);
        }
        Stmt::If { cond, then_body, else_body } => {
            let _ = writeln!(
                out,
                "{pad}if ({} {} {}) {{",
                expr_to_string(&cond.lhs),
                cond.op.symbol(),
                expr_to_string(&cond.rhs)
            );
            for s in then_body {
                emit_stmt(s, level + 1, bufs, out)?;
            }
            if else_body.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for s in else_body {
                    emit_stmt(s, level + 1, bufs, out)?;
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
        Stmt::Call { instr, args } => {
            let info = instr.instr.as_ref().ok_or_else(|| CodegenError::Unsupported {
                backend: "C",
                what: format!("call to non-instruction procedure `{}`", instr.name),
            })?;
            let mut line = info.c_format.clone();
            for (formal, actual) in instr.args.iter().zip(args) {
                let placeholder_data = format!("{{{}_data}}", formal.name);
                let placeholder_plain = format!("{{{}}}", formal.name);
                let text = match actual {
                    CallArg::Expr(e) => expr_to_string(e),
                    CallArg::Window(w) => window_c_operand(&w.buf, &w.idx, bufs)?,
                };
                line = line.replace(&placeholder_data, &text).replace(&placeholder_plain, &text);
            }
            let _ = writeln!(out, "{pad}{line}");
        }
    }
    Ok(())
}

/// Renders a scalar element access, linearising DRAM buffers and splitting
/// register tiles into `tile[outer...][lane]` form.
fn scalar_access(buf: &Sym, idx: &[Expr], bufs: &BTreeMap<Sym, BufInfo>) -> Result<String> {
    let info = bufs.get(buf).ok_or_else(|| CodegenError::UnknownBuffer { buf: buf.clone() })?;
    if info.mem.is_register() {
        // Scalar access into a register tile: index the vector lanes with [..].
        let mut s = buf.to_string();
        for e in idx {
            s.push_str(&format!("[{}]", expr_to_string(e)));
        }
        Ok(s)
    } else {
        Ok(format!("{}[{}]", buf, linearise(idx, &info.dims)))
    }
}

/// Renders the C operand for a windowed call argument: the address/value of
/// the first selected element.
fn window_c_operand(buf: &Sym, idx: &[WAccess], bufs: &BTreeMap<Sym, BufInfo>) -> Result<String> {
    let info = bufs.get(buf).ok_or_else(|| CodegenError::UnknownBuffer { buf: buf.clone() })?;
    if info.mem.is_register() {
        // Drop the trailing interval (vector lane) dimension: the register
        // array already holds whole vectors.
        let mut s = buf.to_string();
        for access in idx {
            match access {
                WAccess::Point(e) => s.push_str(&format!("[{}]", expr_to_string(e))),
                WAccess::Interval(_, _) => {}
            }
        }
        Ok(s)
    } else {
        let first: Vec<Expr> = idx
            .iter()
            .map(|a| match a {
                WAccess::Point(e) => e.clone(),
                WAccess::Interval(lo, _) => lo.clone(),
            })
            .collect();
        Ok(format!("{}[{}]", buf, linearise(&first, &info.dims)))
    }
}

/// Builds a row-major linearised index expression `i0*d1*d2 + i1*d2 + i2`.
fn linearise(idx: &[Expr], dims: &[Expr]) -> String {
    if idx.is_empty() {
        return "0".to_string();
    }
    let mut terms: Vec<String> = Vec::new();
    for (d, e) in idx.iter().enumerate() {
        let strides: Vec<String> = dims[d + 1..].iter().map(expr_to_string).collect();
        let base = expr_to_string(&e.simplify());
        let needs_parens = base.contains(' ');
        let base = if needs_parens && !strides.is_empty() { format!("({base})") } else { base };
        if strides.is_empty() {
            terms.push(base);
        } else {
            terms.push(format!("{base} * {}", strides.join(" * ")));
        }
    }
    terms.join(" + ")
}

fn emit_expr(e: &Expr, bufs: &BTreeMap<Sym, BufInfo>) -> Result<String> {
    Ok(match e {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => {
            if v.fract() == 0.0 {
                format!("{v:.1}f")
            } else {
                format!("{v}f")
            }
        }
        Expr::Var(s) => s.to_string(),
        Expr::Read { buf, idx } => scalar_access(buf, idx, bufs)?,
        Expr::Binop { op, lhs, rhs } => {
            format!("({} {} {})", emit_expr(lhs, bufs)?, op.symbol(), emit_expr(rhs, bufs)?)
        }
        Expr::Neg(inner) => format!("(-{})", emit_expr(inner, bufs)?),
    })
}

// ---------------------------------------------------------------------------
// Superword-tape lowering: the ahead-of-time C source of the native tier.
// ---------------------------------------------------------------------------

/// Software-prefetch distance (loop iterations ahead) for packed-operand
/// loads inside the dynamic `KC` loop. Prefetch never faults, so running
/// past the end of a panel is harmless.
const PREFETCH_ITERS: i64 = 4;

/// Lanes per vector local on `isa`, widest first. Registers no vector
/// local claims live in plain `float` locals.
fn vector_widths(isa: IsaKind) -> &'static [u32] {
    match isa {
        IsaKind::Avx2 => &[8, 4],
        IsaKind::Neon => &[4],
        IsaKind::Scalar => &[],
    }
}

/// Splits a run of `lanes` registers into `(offset, width)` chunks, widest
/// vector first and single lanes last — the simd chain's chunking.
fn chunks(lanes: u32, widths: &[u32]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut o = 0;
    for &w in widths.iter().chain(&[1]) {
        while lanes - o >= w {
            out.push((o, w));
            o += w;
        }
    }
    out
}

/// An FMA whose operand run partially overlaps its accumulator run: its
/// ascending lane order is semantic, so it never runs as whole vectors.
fn partial_overlap(a: u32, dst: u32, lanes: u32) -> bool {
    a != dst && a < dst + lanes && dst < a + lanes
}

/// The register file partitioned into typed locals ("slots"): slot `s`
/// holds the registers `runs[s].0 ..runs[s].0 + runs[s].1` in the local
/// `r<base>`, a vector when the width is above one and a `float`
/// otherwise.
struct Slots {
    runs: Vec<(u32, u32)>,
    /// Slot index of every register.
    of: Vec<usize>,
}

impl Slots {
    /// Vector slots are the `(base, lanes)` runs of the tape's FMA
    /// operands, chunked like the simd chain, so each chunk is one whole
    /// vector and its FMA one instruction. A chunk that overlaps an
    /// already claimed slot is left to single lanes. Copies are exact and
    /// split wherever a slot boundary falls, so they claim nothing: a
    /// register only ever copied or used as a scalar stays a `float`.
    fn plan(kernel: &SuperwordKernel, isa: IsaKind) -> Slots {
        let widths = vector_widths(isa);
        let mut owner: Vec<Option<(u32, u32)>> = vec![None; kernel.n_regs];
        let mut claim = |start: u32, lanes: u32| {
            for (o, w) in chunks(lanes, widths) {
                let run = (start + o) as usize..(start + o + w) as usize;
                if w > 1 && owner[run.clone()].iter().all(Option::is_none) {
                    owner[run].fill(Some((start + o, w)));
                }
            }
        };
        for op in &kernel.ops {
            if let VOp::VFmaLane { dst, a, lanes, .. } | VOp::VFmaBcast { dst, a, lanes, .. } = op {
                if !partial_overlap(*a, *dst, *lanes) {
                    claim(*dst, *lanes);
                    claim(*a, *lanes);
                }
            }
        }
        let (mut runs, mut of) = (Vec::new(), Vec::with_capacity(kernel.n_regs));
        for (r, owned) in owner.iter().enumerate() {
            let (base, width) = owned.unwrap_or((r as u32, 1));
            if base == r as u32 {
                runs.push((base, width));
            }
            of.push(runs.len() - 1);
        }
        Slots { runs, of }
    }
}

/// The scalar operand an FMA run broadcasts.
enum Bcast {
    /// A register of the file.
    Reg(u32),
    /// A tensor element, as a C lvalue.
    Mem(String),
}

/// One emission pass over the tape. Writes to slots outside `live` are
/// dropped, and every slot an emitted statement reads is recorded in
/// `read`; [`emit_superword_c`] repeats passes until the two agree, so
/// every declared local is read and no read local is missing.
struct SwEmit<'a> {
    isa: IsaKind,
    scalar_names: &'a [String],
    tensor_names: &'a [String],
    /// Per tensor: whether the tape never stores to it.
    read_only: &'a [bool],
    slots: &'a Slots,
    live: &'a [bool],
    read: Vec<bool>,
    /// Per register: the read-only tensor element it currently equals,
    /// valid until the register is written or a loop boundary is crossed.
    fwd: Vec<Option<String>>,
    /// Per slot: written somewhere earlier in program order (an unwritten
    /// slot still holds its zero initialiser).
    dirty: Vec<bool>,
    /// Open dynamic loops.
    depth: usize,
    /// Per open loop: the buffers already prefetched in its body.
    prefetched: Vec<Vec<u16>>,
    tmp: usize,
    out: String,
}

impl SwEmit<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        let n = self.tmp;
        self.tmp += 1;
        format!("{prefix}{n}")
    }

    fn line(&mut self, text: &str) {
        let _ = writeln!(self.out, "{}{text}", indent(self.depth + 1));
    }

    /// Renders one affine term sum as a parenthesised `int64_t` expression.
    fn affine(&self, base: i64, terms: &[(Term, i64)]) -> String {
        let mut parts: Vec<String> = Vec::new();
        if base != 0 || terms.is_empty() {
            parts.push(base.to_string());
        }
        for &(t, c) in terms {
            let name = match t {
                Term::Loop(slot) => format!("t{slot}"),
                Term::Scalar(slot) => self.scalar_names[slot as usize].clone(),
            };
            match c {
                1 => parts.push(name),
                c => parts.push(format!("{c} * {name}")),
            }
        }
        format!("({})", parts.join(" + "))
    }

    fn saddr(&self, a: &SAddr) -> String {
        match a {
            SAddr::Const(v) => format!("({v})"),
            SAddr::Loop { base, slot, coeff } => self.affine(*base, &[(Term::Loop(*slot), *coeff)]),
            SAddr::Scalar { base, slot, coeff } => self.affine(*base, &[(Term::Scalar(*slot), *coeff)]),
            SAddr::General(addr) => self.addr(addr),
        }
    }

    fn addr(&self, a: &Addr) -> String {
        self.affine(a.base, a.terms.as_ref())
    }

    /// The tensor element `buf[idx + o]` as a C lvalue.
    fn elem(&self, buf: u16, idx: &str, o: u32) -> String {
        let name = &self.tensor_names[buf as usize];
        if o == 0 {
            format!("{name}[{idx}]")
        } else {
            format!("{name}[{idx} + {o}]")
        }
    }

    /// Emits one prefetch per (buffer, loop body), at the first
    /// loop-carried packed access of each buffer inside a dynamic loop.
    fn prefetch(&mut self, buf: u16, addr: &SAddr) {
        let Some(scope) = self.prefetched.last_mut() else { return };
        if scope.contains(&buf) {
            return;
        }
        if let SAddr::Loop { base, slot, coeff } = addr {
            scope.push(buf);
            let ahead = self.affine(*base + coeff * PREFETCH_ITERS, &[(Term::Loop(*slot), *coeff)]);
            let line = format!("__builtin_prefetch(&{}[{ahead}], 0, 3);", self.tensor_names[buf as usize]);
            self.line(&line);
        }
    }

    fn slot(&self, r: u32) -> (u32, u32) {
        self.slots.runs[self.slots.of[r as usize]]
    }

    fn is_live(&self, r: u32) -> bool {
        self.live[self.slots.of[r as usize]]
    }

    /// The whole vector slot based at `r`, read.
    fn vector(&mut self, r: u32) -> String {
        self.read[self.slots.of[r as usize]] = true;
        format!("r{r}")
    }

    /// The current value of register `r` as a scalar C expression, with
    /// whether it is a tensor element (so `&expr` is its address).
    /// Lane reads are exact register moves.
    fn get(&mut self, r: u32) -> (String, bool) {
        if let Some(elem) = &self.fwd[r as usize] {
            return (elem.clone(), true);
        }
        self.read[self.slots.of[r as usize]] = true;
        let (base, width) = self.slot(r);
        let lane = r - base;
        let expr = match (self.isa, width, lane) {
            (_, 1, _) => format!("r{base}"),
            (IsaKind::Neon, _, _) => format!("vgetq_lane_f32(r{base}, {lane})"),
            (_, 8, 0) => format!("_mm256_cvtss_f32(r{base})"),
            (_, 8, _) => {
                format!("_mm256_cvtss_f32(_mm256_permutevar8x32_ps(r{base}, _mm256_set1_epi32({lane})))")
            }
            (_, _, 0) => format!("_mm_cvtss_f32(r{base})"),
            (_, _, _) => format!("_mm_cvtss_f32(_mm_permute_ps(r{base}, {}))", 0x55 * lane),
        };
        (expr, false)
    }

    /// Marks registers `r..r + lanes` as overwritten by something that is
    /// not a tensor element.
    fn clobber(&mut self, r: u32, lanes: u32) {
        for x in r..r + lanes {
            self.fwd[x as usize] = None;
            self.dirty[self.slots.of[x as usize]] = true;
        }
    }

    /// Writes one register. `value` is built (and its reads recorded)
    /// only when the slot is live; lane writes are exact blends.
    fn set(&mut self, r: u32, value: impl FnOnce(&mut Self) -> String) {
        if self.is_live(r) {
            let v = value(self);
            let (base, width) = self.slot(r);
            let lane = r - base;
            let line = match (self.isa, width) {
                (_, 1) => format!("r{base} = {v};"),
                (IsaKind::Neon, _) => format!("r{base} = vsetq_lane_f32({v}, r{base}, {lane});"),
                (_, 8) => format!("r{base} = _mm256_blend_ps(r{base}, _mm256_set1_ps({v}), {});", 1 << lane),
                (_, _) => format!("r{base} = _mm_blend_ps(r{base}, _mm_set1_ps({v}), {});", 1 << lane),
            };
            self.line(&line);
        }
        self.clobber(r, 1);
    }

    /// Emits `lanes` register-file copies to or from a tensor (`load`
    /// selects the direction), split at slot boundaries: whole-vector
    /// moves, 128-bit halves of a 256-bit slot, and single lanes. Copies
    /// are exact, so any split computes the same bits.
    fn copy(&mut self, load: bool, reg: u32, buf: u16, idx: &str, lanes: u32) {
        let mut o = 0;
        while o < lanes {
            let r = reg + o;
            let (base, width) = self.slot(r);
            let lane = r - base;
            let step = if width > 1 && lane == 0 && lanes - o >= width {
                width
            } else if self.isa == IsaKind::Avx2 && width == 8 && lane.is_multiple_of(4) && lanes - o >= 4 {
                4
            } else {
                1
            };
            let elem = self.elem(buf, idx, o);
            if step == 1 {
                if load {
                    self.set(r, |_| elem.clone());
                    if self.read_only[buf as usize] {
                        self.fwd[r as usize] = Some(elem);
                    }
                } else {
                    let (v, _) = self.get(r);
                    self.line(&format!("{elem} = {v};"));
                }
                o += 1;
                continue;
            }
            let (vt, half) = (format!("r{base}"), lane / 4);
            let line = match (self.isa, step, width, load) {
                (IsaKind::Neon, _, _, true) => format!("{vt} = vld1q_f32(&{elem});"),
                (IsaKind::Neon, _, _, false) => format!("vst1q_f32(&{elem}, {vt});"),
                (_, 8, _, true) => format!("{vt} = _mm256_loadu_ps(&{elem});"),
                (_, 8, _, false) => format!("_mm256_storeu_ps(&{elem}, {vt});"),
                (_, _, 4, true) => format!("{vt} = _mm_loadu_ps(&{elem});"),
                (_, _, 4, false) => format!("_mm_storeu_ps(&{elem}, {vt});"),
                (_, _, _, true) => {
                    format!("{vt} = _mm256_insertf128_ps({vt}, _mm_loadu_ps(&{elem}), {half});")
                }
                (_, _, _, false) => format!("_mm_storeu_ps(&{elem}, _mm256_extractf128_ps({vt}, {half}));"),
            };
            if !load {
                self.vector(base);
                self.line(&line);
            } else {
                if self.is_live(r) {
                    self.line(&line);
                }
                self.clobber(r, step);
                if self.read_only[buf as usize] {
                    for i in 0..step {
                        self.fwd[(r + i) as usize] = Some(self.elem(buf, idx, o + i));
                    }
                }
            }
            o += step;
        }
    }

    /// Emits `reg[dst+i] = fma(reg[a+i], b, reg[dst+i])` for `i in
    /// 0..lanes`, mirroring the simd chain exactly: one whole-vector FMA
    /// per chunk whose accumulator and operand are both vector slots
    /// (against one broadcast of `b`), single lanes elsewhere, strictly
    /// ascending when the operand run partially overlaps the accumulator
    /// run. Every lane is a single correctly-rounded fused multiply-add on
    /// the native ISAs (bit-equal to the chain's) and an explicit
    /// two-rounding multiply-then-add on the scalar floor (bit-equal to
    /// the superword tier, which `-ffp-contract=off` keeps the compiler
    /// from re-fusing).
    fn fma_run(&mut self, dst: u32, a: u32, b: Bcast, lanes: u32) {
        let widths = if partial_overlap(a, dst, lanes) { &[][..] } else { vector_widths(self.isa) };
        let steps: Vec<(u32, u32, bool)> = chunks(lanes, widths)
            .into_iter()
            .map(|(o, w)| {
                (o, w, w > 1 && self.slot(dst + o) == (dst + o, w) && self.slot(a + o) == (a + o, w))
            })
            .collect();
        let mut vec_width = 0;
        let mut any_lane = false;
        for &(o, w, whole) in &steps {
            let live = (0..w).any(|i| self.is_live(dst + o + i));
            if whole && live {
                vec_width = vec_width.max(w);
            }
            any_lane |= !whole && live;
        }
        let (b_expr, b_mem) = match (vec_width > 0 || any_lane, b) {
            (false, _) => (String::new(), false),
            (true, Bcast::Reg(r)) => self.get(r),
            (true, Bcast::Mem(elem)) => (elem, true),
        };
        let bv = if any_lane {
            let bv = self.fresh("bv");
            self.line(&format!("const float {bv} = {b_expr};"));
            bv
        } else {
            String::new()
        };
        let vb = if vec_width > 0 {
            let vb = self.fresh("vb");
            let (ty, init) = match (self.isa, vec_width, b_mem) {
                (IsaKind::Neon, _, true) => ("float32x4_t", format!("vld1q_dup_f32(&{b_expr})")),
                (IsaKind::Neon, _, false) => ("float32x4_t", format!("vdupq_n_f32({b_expr})")),
                (_, 8, true) => ("__m256", format!("_mm256_broadcast_ss(&{b_expr})")),
                (_, 8, false) => ("__m256", format!("_mm256_set1_ps({b_expr})")),
                (_, _, true) => ("__m128", format!("_mm_broadcast_ss(&{b_expr})")),
                (_, _, false) => ("__m128", format!("_mm_set1_ps({b_expr})")),
            };
            self.line(&format!("const {ty} {vb} = {init};"));
            vb
        } else {
            String::new()
        };
        for (o, w, whole) in steps {
            let (d, s) = (dst + o, a + o);
            if !whole {
                for i in 0..w {
                    let scalar = self.isa == IsaKind::Scalar;
                    self.set(d + i, |e| {
                        let (acc, x) = (e.get(d + i).0, e.get(s + i).0);
                        if scalar {
                            format!("{acc} + {x} * {bv}")
                        } else {
                            format!("fmaf({x}, {bv}, {acc})")
                        }
                    });
                }
                continue;
            }
            if self.is_live(d) {
                let x = self.vector(s);
                let line = match (self.isa, w) {
                    (IsaKind::Neon, _) => format!("r{d} = vfmaq_f32(r{d}, {x}, {vb});"),
                    (_, 8) => format!("r{d} = _mm256_fmadd_ps({x}, {vb}, r{d});"),
                    (_, _) if vec_width == 8 => {
                        format!("r{d} = _mm_fmadd_ps({x}, _mm256_castps256_ps128({vb}), r{d});")
                    }
                    (_, _) => format!("r{d} = _mm_fmadd_ps({x}, {vb}, r{d});"),
                };
                self.line(&line);
            }
            self.clobber(d, w);
        }
    }

    /// Zeroes `len` registers from `base`, skipping slots that still hold
    /// their zero initialiser (never written, and no loop is open).
    fn zero(&mut self, base: u32, len: u32) {
        let mut o = 0;
        while o < len {
            let r = base + o;
            let (slot_base, width) = self.slot(r);
            let pristine = self.depth == 0 && !self.dirty[self.slots.of[r as usize]];
            if width > 1 && r == slot_base && len - o >= width {
                if self.is_live(r) && !pristine {
                    let zero = zero_value(self.isa, width);
                    self.line(&format!("r{r} = {zero};"));
                }
                self.clobber(r, width);
                o += width;
            } else {
                if !pristine {
                    self.set(r, |_| "0.0f".to_string());
                }
                o += 1;
            }
        }
    }

    fn op(&mut self, op: &VOp) {
        match op {
            VOp::LoopBegin { slot, lo, hi, .. } => {
                let (lo_c, hi_c) = (self.saddr(lo), self.saddr(hi));
                let bound = self.fresh("e");
                self.line(&format!("const int64_t {bound} = {hi_c};"));
                self.line(&format!("for (int64_t t{slot} = {lo_c}; t{slot} < {bound}; t{slot}++) {{"));
                self.depth += 1;
                self.prefetched.push(Vec::new());
                self.fwd.fill(None);
            }
            VOp::LoopEnd { .. } => {
                self.depth -= 1;
                self.line("}");
                self.prefetched.pop();
                self.fwd.fill(None);
            }
            VOp::VLoad { dst, buf, addr, lanes } => {
                self.prefetch(*buf, addr);
                let idx = self.saddr(addr);
                self.copy(true, *dst, *buf, &idx, *lanes);
            }
            VOp::VStore { src, buf, addr, lanes } => {
                let idx = self.saddr(addr);
                self.copy(false, *src, *buf, &idx, *lanes);
            }
            // The broadcast lane never aliases the accumulator run
            // (construction-validated), so reading it once matches the
            // superword dispatch reading it once per op.
            VOp::VFmaLane { dst, a, b, lanes } => self.fma_run(*dst, *a, Bcast::Reg(*b), *lanes),
            VOp::VFmaBcast { dst, a, buf, addr, scratch, lanes } => {
                self.prefetch(*buf, addr);
                let elem = self.elem(*buf, &self.saddr(addr), 0);
                self.set(*scratch, |_| elem.clone());
                if self.read_only[*buf as usize] {
                    self.fwd[*scratch as usize] = Some(elem.clone());
                }
                self.fma_run(*dst, *a, Bcast::Mem(elem), *lanes);
            }
            VOp::Scalar(s) => self.scalar(s),
        }
    }

    fn scalar(&mut self, op: &TOp) {
        let binary = |e: &mut Self, a: u32, sym: &str, b: u32| format!("{} {sym} {}", e.get(a).0, e.get(b).0);
        match *op {
            TOp::ConstF { dst, val } => self.set(dst, |_| format!("{val:?}f")),
            TOp::LoadT { dst, buf, ref addr } => {
                let elem = self.elem(buf, &self.addr(addr), 0);
                self.set(dst, |_| elem.clone());
                if self.read_only[buf as usize] {
                    self.fwd[dst as usize] = Some(elem);
                }
            }
            TOp::StoreT { src, buf, ref addr } => {
                let elem = self.elem(buf, &self.addr(addr), 0);
                let (v, _) = self.get(src);
                self.line(&format!("{elem} = {v};"));
            }
            TOp::Mov { dst, src } => {
                let source = self.fwd[src as usize].clone();
                self.set(dst, |e| e.get(src).0);
                self.fwd[dst as usize] = source;
            }
            TOp::Neg { dst, src } => self.set(dst, |e| format!("-{}", e.get(src).0)),
            TOp::AddAssign { dst, src } => self.set(dst, |e| binary(e, dst, "+", src)),
            TOp::Add { dst, a, b } => self.set(dst, |e| binary(e, a, "+", b)),
            TOp::Sub { dst, a, b } => self.set(dst, |e| binary(e, a, "-", b)),
            TOp::Mul { dst, a, b } => self.set(dst, |e| binary(e, a, "*", b)),
            TOp::Div { dst, a, b } => self.set(dst, |e| binary(e, a, "/", b)),
            // The chain's scalar FMA is contracted on native ISAs and
            // two-rounding on the scalar floor — mirrored here.
            TOp::Fma { dst, a, b } => {
                let scalar = self.isa == IsaKind::Scalar;
                self.set(dst, |e| {
                    let (acc, x, y) = (e.get(dst).0, e.get(a).0, e.get(b).0);
                    if scalar {
                        format!("{acc} + {x} * {y}")
                    } else {
                        format!("fmaf({x}, {y}, {acc})")
                    }
                });
            }
            TOp::CastI { dst, ref value } => {
                let v = self.addr(value);
                self.set(dst, |_| format!("(float){v}"));
            }
            TOp::Zero { base, len } => self.zero(base, len),
            TOp::Round { .. } | TOp::LoopBegin { .. } | TOp::LoopEnd { .. } => {
                unreachable!("rejected up front / lifted to VOp level")
            }
        }
    }
}

/// The zero vector of a `width`-lane slot.
fn zero_value(isa: IsaKind, width: u32) -> &'static str {
    match (isa, width) {
        (_, 1) => "0.0f",
        (IsaKind::Neon, _) => "vdupq_n_f32(0.0f)",
        (_, 8) => "_mm256_setzero_ps()",
        (_, _) => "_mm_setzero_ps()",
    }
}

/// The C type of a `width`-lane slot.
fn slot_type(isa: IsaKind, width: u32) -> &'static str {
    match (isa, width) {
        (_, 1) => "float",
        (IsaKind::Neon, _) => "float32x4_t",
        (_, 8) => "__m256",
        (_, _) => "__m128",
    }
}

fn aot_unsupported(what: impl Into<String>) -> CodegenError {
    CodegenError::Unsupported { backend: "aot", what: what.into() }
}

/// Turns a parameter name into a safe, unique C identifier.
fn c_ident(name: &str, used: &mut Vec<String>) -> String {
    let mut s: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if !s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_') {
        s.insert(0, 'p');
    }
    // Avoid the emitter's own locals (the `r<base>` register slots, the
    // `t<slot>` loop counters, the `e<n>` loop bounds and the `bv<n>` /
    // `vb<n>` broadcasts) and a handful of C keywords a tensor could
    // plausibly be called after. Every numbered rule demands a
    // digits-only tail, so appending `_` always terminates the loop.
    let reserved = ["const", "restrict", "float", "int", "void", "for", "if", "do", "while"];
    let numbered = |s: &str, prefix: &str| {
        s.strip_prefix(prefix)
            .is_some_and(|tail| !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()))
    };
    let clashes = |s: &str, used: &[String]| {
        used.iter().any(|u| u == s)
            || reserved.contains(&s)
            || ["r", "t", "e", "bv", "vb"].iter().any(|p| numbered(s, p))
    };
    while clashes(&s, used) {
        s.push('_');
    }
    used.push(s.clone());
    s
}

/// Lowers a validated superword tape to a self-contained C translation
/// unit exporting one `extern`-style kernel function — the emission step
/// of the `exo-aot` native tier.
///
/// The function has the packed micro-kernel signature the tape dispatch
/// uses, with `restrict`-qualified pointers (`const` for tensors the tape
/// never writes):
///
/// ```c
/// void <fn_name>(int64_t KC, const float* restrict Ac,
///                const float* restrict Bc, float* restrict C);
/// ```
///
/// Vector ops lower to AVX2/FMA or NEON intrinsics ([`IsaKind::Avx2`] /
/// [`IsaKind::Neon`]) or to plain scalar C ([`IsaKind::Scalar`], the
/// portable floor). The register file becomes one typed local per slot
/// (`__m256`/`__m128`/`float32x4_t`, plain `float` for other lanes), the
/// slots taken from the `(base, lanes)` runs of the tape's vector ops, so
/// the `C` tile is register-resident by construction: a `float` array,
/// even with constant indices, is not fully scalar-replaced by `-O3` and
/// leaves stack traffic in the `KC` loop. Copies split at slot
/// boundaries; a lane of a vector slot is read or written with an exact
/// extract or blend. A register still holding a read-only packed element
/// is read from the tensor itself, so each `B` value is broadcast once
/// straight from memory; writes nothing reads are dropped, and slots start
/// zeroed once, at their declaration. Micro-iterations arrive already
/// unrolled on the tape, and packed-panel loads inside the dynamic `KC`
/// loop get a software prefetch of the panel a few iterations ahead
/// (`PREFETCH_ITERS`).
///
/// Numerical contract (the compile flags must include
/// `-ffp-contract=off` so the compiler adds no contractions of its own):
/// on the native ISAs every FMA lane is a single correctly-rounded fused
/// multiply-add — bit-identical to the simd closure chain of the same ISA,
/// and therefore within [`crate::fma_contraction_tol`] of the superword
/// tier; the scalar floor is an explicit multiply-then-add, bit-identical
/// to the superword tier and the interpreter. Every other operation is an
/// exact move, so the lowering changes register allocation, never bits.
///
/// # Errors
///
/// Returns [`CodegenError::BadArguments`] if the kernel does not have the
/// packed `(KC, Ac, Bc, C)` signature, and [`CodegenError::Unsupported`]
/// for tapes that write a packed operand or carry an f16 rounding step
/// (the native tier declines; callers fall back to simd).
pub fn emit_superword_c(kernel: &SuperwordKernel, isa: IsaKind, fn_name: &str) -> Result<String> {
    kernel.check_packed_signature()?;
    let n_tensors = kernel.params.iter().filter(|(_, k)| *k == ParamKind::Tensor).count();
    for idx in 0..n_tensors.saturating_sub(1) {
        if kernel.writes_tensor(idx) {
            return Err(aot_unsupported(format!("kernel `{}` writes packed operand {idx}", kernel.name)));
        }
    }
    for op in &kernel.ops {
        if let VOp::Scalar(TOp::Round { .. }) = op {
            return Err(aot_unsupported("f16 rounding has no C lowering in the native tier"));
        }
        if let VOp::Scalar(TOp::ConstF { val, .. }) = op {
            if !val.is_finite() {
                return Err(aot_unsupported("non-finite constant"));
            }
        }
    }

    let mut used: Vec<String> = Vec::new();
    let mut scalar_names = Vec::new();
    let mut tensor_names = Vec::new();
    let mut sig_parts: Vec<String> = Vec::new();
    for (i, (name, kind)) in kernel.params.iter().enumerate() {
        let c_name = c_ident(name, &mut used);
        match kind {
            ParamKind::Scalar => {
                sig_parts.push(format!("int64_t {c_name}"));
                scalar_names.push(c_name);
            }
            ParamKind::Tensor => {
                let tensor_idx = kernel.params[..i].iter().filter(|(_, k)| *k == ParamKind::Tensor).count();
                let qual = if kernel.writes_tensor(tensor_idx) { "" } else { "const " };
                sig_parts.push(format!("{qual}float* restrict {c_name}"));
                tensor_names.push(c_name);
            }
        }
    }
    let read_only: Vec<bool> = (0..n_tensors).map(|t| !kernel.writes_tensor(t)).collect();

    // Dead-write elimination to a fixpoint: start with no live slot, emit,
    // make live every slot the emitted code read, and repeat. Emission is
    // monotone in the live set, so the loop ends with a body whose live
    // slots are exactly the ones it reads.
    let slots = Slots::plan(kernel, isa);
    let mut live = vec![false; slots.runs.len()];
    let body = loop {
        let mut pass = SwEmit {
            isa,
            scalar_names: &scalar_names,
            tensor_names: &tensor_names,
            read_only: &read_only,
            slots: &slots,
            live: &live,
            read: vec![false; slots.runs.len()],
            fwd: vec![None; kernel.n_regs],
            dirty: vec![false; slots.runs.len()],
            depth: 0,
            prefetched: Vec::new(),
            tmp: 0,
            out: String::new(),
        };
        for op in &kernel.ops {
            pass.op(op);
        }
        if pass.read == live {
            break pass.out;
        }
        live = pass.read;
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by exo-aot: superword tape `{}` lowered to C ({}).",
        kernel.name,
        isa.name()
    );
    let _ = writeln!(out, "// Compile with -O3 -ffp-contract=off (see exo_codegen::emit_superword_c).");
    let _ = writeln!(out, "#include <stdint.h>");
    let _ = writeln!(out, "#include <math.h>");
    match isa {
        IsaKind::Avx2 => {
            let _ = writeln!(out, "#if !(defined(__AVX2__) && defined(__FMA__))");
            let _ = writeln!(out, "#error \"this kernel requires -mavx2 -mfma\"");
            let _ = writeln!(out, "#endif");
            let _ = writeln!(out, "#include <immintrin.h>");
        }
        IsaKind::Neon => {
            let _ = writeln!(out, "#ifndef __ARM_NEON");
            let _ = writeln!(out, "#error \"this kernel requires NEON\"");
            let _ = writeln!(out, "#endif");
            let _ = writeln!(out, "#include <arm_neon.h>");
        }
        IsaKind::Scalar => {}
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "void {fn_name}({}) {{", sig_parts.join(", "));
    // The register file: one local per live slot, zeroed like the tape's
    // freshly allocated file.
    for (s, &(base, width)) in slots.runs.iter().enumerate() {
        if live[s] {
            let _ = writeln!(out, "    {} r{base} = {};", slot_type(isa, width), zero_value(isa, width));
        }
    }
    out.push_str(&body);
    let _ = writeln!(out, "}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::builder::*;
    use exo_isa::neon_f32;

    #[test]
    fn emits_signature_and_loops() {
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let c = emit_c(&p).unwrap();
        assert!(c.contains("void ukernel_ref(int_fast32_t MR, int_fast32_t NR, int_fast32_t KC, const float* Ac, const float* Bc, float* C)"));
        assert!(c.contains("for (int_fast32_t k = 0; k < KC; k++) {"));
        assert!(c.contains("C[j * MR + i] += (Ac[k * MR + i] * Bc[k * NR + j]);"));
    }

    #[test]
    fn emits_register_allocations_and_intrinsic_calls() {
        let isa = neon_f32();
        let p = proc("uk")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(8)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(12), int(8)], MemSpace::Dram)
            .body(vec![
                alloc("C_reg", ScalarType::F32, vec![int(12), int(2), int(4)], MemSpace::Neon),
                call(
                    &isa.load,
                    vec![
                        win("C_reg", vec![pt(int(0)), pt(int(1)), interval(0, 4)]),
                        win("C", vec![pt(int(0)), interval(4, 8)]),
                    ],
                ),
            ])
            .build();
        let c = emit_c(&p).unwrap();
        assert!(c.contains("float32x4_t C_reg[12][2];"), "got:\n{c}");
        assert!(c.contains("C_reg[0][1] = vld1q_f32(&C[0 * 8 + 4]);"), "got:\n{c}");
    }

    #[test]
    fn lane_indexed_fma_substitutes_all_placeholders() {
        let isa = neon_f32();
        let fma = isa.fma_lane.clone().unwrap();
        let p = proc("fma_host")
            .body(vec![
                alloc("C_reg", ScalarType::F32, vec![int(12), int(2), int(4)], MemSpace::Neon),
                alloc("A_reg", ScalarType::F32, vec![int(2), int(4)], MemSpace::Neon),
                alloc("B_reg", ScalarType::F32, vec![int(3), int(4)], MemSpace::Neon),
                for_(
                    "jt",
                    0,
                    3,
                    vec![for_(
                        "jtt",
                        0,
                        4,
                        vec![call(
                            &fma,
                            vec![
                                win(
                                    "C_reg",
                                    vec![
                                        pt(Expr::add(Expr::mul(int(4), var("jt")), var("jtt"))),
                                        pt(int(0)),
                                        interval(0, 4),
                                    ],
                                ),
                                win("A_reg", vec![pt(int(0)), interval(0, 4)]),
                                win("B_reg", vec![pt(var("jt")), interval(0, 4)]),
                                arg_expr(var("jtt")),
                            ],
                        )],
                    )],
                ),
            ])
            .build();
        let c = emit_c(&p).unwrap();
        assert!(
            c.contains(
                "C_reg[4 * jt + jtt][0] = vfmaq_laneq_f32(C_reg[4 * jt + jtt][0], A_reg[0], B_reg[jt], jtt);"
            ),
            "got:\n{c}"
        );
        assert!(!c.contains("_data}"), "all format placeholders must be substituted:\n{c}");
    }

    #[test]
    fn unknown_buffer_is_an_error() {
        let p = proc("broken").body(vec![assign("ghost", vec![int(0)], flt(0.0))]).build();
        assert!(matches!(emit_c(&p), Err(CodegenError::UnknownBuffer { .. })));
    }

    #[test]
    fn dram_allocation_is_flattened() {
        let p = proc("scratch")
            .body(vec![alloc("Cb", ScalarType::F32, vec![int(12), int(8)], MemSpace::Dram)])
            .build();
        let c = emit_c(&p).unwrap();
        assert!(c.contains("float Cb[12 * 8];"));
    }

    /// The staged laneq-shaped micro-kernel of the superword tests.
    fn staged_superword(mr: i64, nr: i64) -> SuperwordKernel {
        crate::superword::tests::staged_kernels(mr, nr).2
    }

    #[test]
    fn superword_avx2_emission_is_a_self_contained_fused_kernel() {
        let sw = staged_superword(8, 4);
        let c = emit_superword_c(&sw, IsaKind::Avx2, "exo_aot_kernel").unwrap();
        assert!(c.contains("#include <immintrin.h>"), "got:\n{c}");
        assert!(
            c.contains("void exo_aot_kernel(int64_t KC, const float* restrict Ac, const float* restrict Bc, float* restrict C)"),
            "packed signature with restrict + const qualifiers:\n{c}"
        );
        assert!(c.contains("_mm256_fmadd_ps"), "whole-vector fused FMAs:\n{c}");
        assert!(c.contains("for (int64_t t0 = (0); t0 <"), "dynamic KC loop:\n{c}");
        assert!(c.contains("__builtin_prefetch"), "packed panels are prefetched:\n{c}");
        // The register file starts zeroed, like the tape's, in typed locals.
        assert!(c.contains("    __m256 r0 = _mm256_setzero_ps();"), "got:\n{c}");
        assert!(!c.contains("float reg["), "no register-file array:\n{c}");
    }

    #[test]
    fn superword_emission_keeps_the_tile_in_typed_locals() {
        // (mr, nr, whole-vector FMAs per k-step)
        for (mr, nr, fmas) in [(8, 12, 12), (12, 8, 16), (4, 24, 24)] {
            let sw = staged_superword(mr, nr);
            let c = emit_superword_c(&sw, IsaKind::Avx2, "k").unwrap();
            let (head, rest) = c.split_once("for (int64_t t0").expect("one KC loop");
            let (body, tail) = rest.split_once("\n    }\n").expect("the KC loop closes");
            // Every local is zeroed once, at its declaration, and nothing
            // zeroes it again.
            let decls = head.lines().filter(|l| l.contains(" r") && l.contains("_setzero_ps();")).count();
            assert_eq!(c.matches("setzero").count(), decls, "one zero-init per local:\n{c}");
            // The hot loop is whole-vector loads, broadcasts straight from
            // the packed B panel, and FMAs: no lane shuffles.
            assert_eq!(body.matches("_fmadd_ps(").count(), fmas, "{mr}x{nr}: one FMA per slot:\n{c}");
            let broadcasts = body.matches("_broadcast_ss(&Bc[").count();
            assert_eq!(broadcasts as i64, nr, "{mr}x{nr}: one broadcast per B value:\n{c}");
            for lane_op in ["blend", "permute", "insertf128", "extractf128", "cvtss", "fmaf"] {
                assert!(!body.contains(lane_op), "{mr}x{nr}: `{lane_op}` in the KC loop:\n{body}");
            }
            assert!(tail.contains("_storeu_ps(&C["), "the tile is stored from its locals:\n{c}");
        }
    }

    #[test]
    fn superword_neon_emission_uses_neon_intrinsics() {
        let sw = staged_superword(8, 4);
        let c = emit_superword_c(&sw, IsaKind::Neon, "exo_aot_kernel").unwrap();
        assert!(c.contains("#include <arm_neon.h>"), "got:\n{c}");
        assert!(c.contains("vfmaq_f32"), "got:\n{c}");
        assert!(c.contains("    float32x4_t r0 = vdupq_n_f32(0.0f);"), "typed vector locals:\n{c}");
        assert!(c.contains("vld1q_dup_f32(&Bc["), "B is broadcast straight from the panel:\n{c}");
        assert!(!c.contains("_mm256") && !c.contains("float reg["), "no x86 intrinsics, no array:\n{c}");
    }

    #[test]
    fn superword_scalar_floor_is_plain_unfused_c() {
        let sw = staged_superword(8, 4);
        let c = emit_superword_c(&sw, IsaKind::Scalar, "exo_aot_kernel").unwrap();
        // Bit-equality with the portable tiers: explicit mul-then-add,
        // no contracted `fmaf`, no intrinsics. `-ffp-contract=off` keeps
        // the C compiler from undoing this.
        assert!(!c.contains("fmaf"), "scalar floor must not contract:\n{c}");
        assert!(!c.contains("_mm256") && !c.contains("vfmaq"), "got:\n{c}");
        assert!(c.contains(" * bv"), "broadcast multiply-accumulate runs:\n{c}");
        assert!(c.contains("    float r0 = 0.0f;"), "one float local per register:\n{c}");
    }

    #[test]
    fn superword_emission_rejects_non_packed_kernels() {
        let p = proc("notpacked")
            .size_arg("N")
            .tensor_arg("x", ScalarType::F32, vec![var("N")], MemSpace::Dram)
            .body(vec![for_("i", 0, var("N"), vec![assign("x", vec![var("i")], flt(1.0))])])
            .build();
        let sw = crate::exec::compile(&p).unwrap().to_superword().unwrap();
        assert!(matches!(emit_superword_c(&sw, IsaKind::Avx2, "k"), Err(CodegenError::BadArguments { .. })));
    }

    #[test]
    fn superword_emission_declines_kernels_that_write_a_packed_operand() {
        let p = proc("writes_ac")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .body(vec![assign("Ac", vec![int(0)], flt(1.0))])
            .build();
        let sw = crate::exec::compile(&p).unwrap().to_superword().unwrap();
        assert!(matches!(
            emit_superword_c(&sw, IsaKind::Avx2, "k"),
            Err(CodegenError::Unsupported { backend: "aot", .. })
        ));
    }

    #[test]
    fn superword_emission_declines_f16_rounding() {
        let p = proc("round16")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F16, vec![int(4)], MemSpace::Dram)
            .body(vec![assign("C", vec![int(0)], read("Ac", vec![int(0)]))])
            .build();
        let sw = crate::exec::compile(&p).unwrap().to_superword().unwrap();
        assert!(matches!(
            emit_superword_c(&sw, IsaKind::Avx2, "k"),
            Err(CodegenError::Unsupported { backend: "aot", .. })
        ));
    }

    #[test]
    fn superword_emission_sanitises_hostile_parameter_names() {
        // Parameters named after the emitter's locals — the `r<base>`
        // register slots, the `t<slot>` loop counters, the `e<n>` bounds
        // and the `bv<n>`/`vb<n>` broadcasts — are renamed so they cannot
        // shadow one.
        let hostile = |scalar: &str, t0: &str, t1: &str| {
            let p = proc("hostile")
                .size_arg(scalar)
                .tensor_arg(t0, ScalarType::F32, vec![int(4)], MemSpace::Dram)
                .tensor_arg(t1, ScalarType::F32, vec![int(4)], MemSpace::Dram)
                .tensor_arg("C", ScalarType::F32, vec![int(4)], MemSpace::Dram)
                .body(vec![assign(
                    "C",
                    vec![int(0)],
                    Expr::add(read(t0, vec![int(0)]), read(t1, vec![int(0)])),
                )])
                .build();
            let sw = crate::exec::compile(&p).unwrap().to_superword().unwrap();
            emit_superword_c(&sw, IsaKind::Scalar, "k").unwrap()
        };
        let c = hostile("t0", "r0", "bv0");
        assert!(c.contains("int64_t t0_"), "renamed away from loop counters:\n{c}");
        assert!(c.contains("const float* restrict r0_"), "renamed away from the register slots:\n{c}");
        assert!(c.contains("const float* restrict bv0_"), "renamed away from the broadcasts:\n{c}");
        assert!(c.contains("    float r"), "the register slots keep their names:\n{c}");
        let c = hostile("e0", "vb0", "r");
        assert!(c.contains("int64_t e0_"), "renamed away from loop bounds:\n{c}");
        assert!(c.contains("const float* restrict vb0_"), "renamed away from the broadcasts:\n{c}");
        assert!(c.contains("const float* restrict r,"), "an unnumbered name clashes with nothing:\n{c}");
    }
}
