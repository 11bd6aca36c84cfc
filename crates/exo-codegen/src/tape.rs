//! Tape compilation: a flat, register-allocated lowering of a
//! [`CompiledKernel`].
//!
//! The tree-walking interpreter in [`crate::exec`] re-evaluates boxed
//! expression nodes, re-linearises addresses, and re-allocates locals on
//! every statement it touches — fine as a reference, orders of magnitude
//! off for a hot GEMM inner loop. `to_tape` compiles the same kernel once
//! more, this time into a *tape*: a linear array of ops over a flat `f32`
//! register file.
//!
//! * Constant-trip loops (the register-tile loops of a micro-kernel) are
//!   fully unrolled at tape-build time.
//! * Local buffers with constant extents become contiguous runs of the
//!   register file, so the staged `C` tile and the `Ac`/`Bc` vector stages
//!   live in "registers", exactly as the generated C would place them.
//! * Every memory access is reduced to a precomputed affine address
//!   `base + Σ coeff·loop + Σ coeff·scalar` over the few loops that stay
//!   dynamic (the `KC` loop) — no expression trees survive to run time.
//! * Remaining loops (`for k in 0..KC`) are tape-level jump pairs.
//!
//! The tape is IR only: it has no executor of its own. The superword pass
//! ([`crate::superword`]) re-rolls it into whole-vector ops, and every
//! tier — the in-process chains of [`crate::simd`] and the native C — is
//! compiled from that lowering. The tape
//! keeps the interpreter's exact sequence of f32 operations (same order,
//! same mul-then-add rounding, same f16 rounding points), so every tier
//! built on it can be held bit-for-bit against [`CompiledKernel::run`].
//! Constructs the tape cannot register-allocate (dynamically sized locals,
//! data-dependent branches, non-affine addresses) fail `to_tape` with
//! [`CodegenError::Unsupported`], and the generator reports the shape as
//! unsupported.

use std::collections::HashMap;

use crate::error::{CodegenError, Result};
use crate::exec::{BufSlot, CompiledKernel, IExpr, Op, ParamKind, VExpr};

/// Loops with a constant trip count at or below this are unrolled; longer
/// ones stay dynamic loops on the tape.
const UNROLL_CAP: i64 = 4096;

/// Hard ceiling on tape length, so pathological inputs fail instead of
/// exhausting memory during unrolling.
const MAX_TAPE_OPS: usize = 1 << 20;

/// Marker bit distinguishing statement-scoped temporaries from persistent
/// registers while the tape is being built; cleared by the final remap.
const TEMP_FLAG: u32 = 1 << 31;

/// Vector lanes the register file is aligned to: every local buffer starts
/// on a multiple of this, so the whole-vector ops of the superword IR
/// ([`crate::superword`]) always address lane-aligned register runs.
pub(crate) const LANE_ALIGN: u32 = 8;

/// A term of an affine address: one dynamic-loop counter or one scalar
/// parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Term {
    Loop(u16),
    Scalar(u16),
}

/// Affine integer form `base + Σ coeff·term`, the only shape of index
/// arithmetic that survives onto the tape.
#[derive(Debug, Clone, PartialEq)]
struct Affine {
    base: i64,
    terms: Vec<(Term, i64)>,
}

impl Affine {
    fn constant(v: i64) -> Self {
        Affine { base: v, terms: Vec::new() }
    }

    fn term(t: Term) -> Self {
        Affine { base: 0, terms: vec![(t, 1)] }
    }

    fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.base)
    }

    fn add(mut self, other: &Affine) -> Self {
        self.base += other.base;
        for &(t, c) in &other.terms {
            self.add_term(t, c);
        }
        self
    }

    fn add_term(&mut self, t: Term, c: i64) {
        match self.terms.iter_mut().find(|(existing, _)| *existing == t) {
            Some((_, coeff)) => *coeff += c,
            None => self.terms.push((t, c)),
        }
        self.terms.retain(|&(_, coeff)| coeff != 0);
    }

    fn scale(mut self, f: i64) -> Self {
        self.base *= f;
        for (_, c) in &mut self.terms {
            *c *= f;
        }
        self.terms.retain(|&(_, coeff)| coeff != 0);
        self
    }

    fn into_addr(self) -> Addr {
        Addr { base: self.base, terms: self.terms.into_boxed_slice() }
    }
}

/// A precomputed affine address, evaluated per use with one multiply-add per
/// term (typically zero or one term in a micro-kernel's hot loop).
#[derive(Debug, Clone)]
pub(crate) struct Addr {
    pub(crate) base: i64,
    pub(crate) terms: Box<[(Term, i64)]>,
}

impl Addr {
    #[inline]
    pub(crate) fn eval(&self, loops: &[i64], scalars: &[i64]) -> i64 {
        let mut v = self.base;
        for &(t, c) in self.terms.iter() {
            v += c * match t {
                Term::Loop(i) => loops[i as usize],
                Term::Scalar(i) => scalars[i as usize],
            };
        }
        v
    }
}

/// One tape operation. Register fields index the flat `f32` register file.
#[derive(Debug, Clone)]
pub(crate) enum TOp {
    /// `reg[dst] = val`
    ConstF { dst: u32, val: f32 },
    /// `reg[dst] = tensor[buf][addr]`
    LoadT { dst: u32, buf: u16, addr: Addr },
    /// `tensor[buf][addr] = reg[src]`
    StoreT { src: u32, buf: u16, addr: Addr },
    /// `reg[dst] = reg[src]`
    Mov { dst: u32, src: u32 },
    /// `reg[dst] = reg[a] + reg[b]`
    Add { dst: u32, a: u32, b: u32 },
    /// `reg[dst] = reg[a] - reg[b]`
    Sub { dst: u32, a: u32, b: u32 },
    /// `reg[dst] = reg[a] * reg[b]`
    Mul { dst: u32, a: u32, b: u32 },
    /// `reg[dst] = reg[a] / reg[b]`
    Div { dst: u32, a: u32, b: u32 },
    /// `reg[dst] = -reg[src]`
    Neg { dst: u32, src: u32 },
    /// `reg[dst] += reg[a] * reg[b]` — the hot op (mul then add, unfused,
    /// matching the interpreter's rounding).
    Fma { dst: u32, a: u32, b: u32 },
    /// `reg[dst] += reg[src]`
    AddAssign { dst: u32, src: u32 },
    /// `reg[dst] = addr as f32` (integer affine value cast to float)
    CastI { dst: u32, value: Addr },
    /// Round `reg[reg]` to f16 precision in place.
    Round { reg: u32 },
    /// Zero `len` registers starting at `base` (local-buffer allocation).
    Zero { base: u32, len: u32 },
    /// Enter a dynamic loop over `lo..hi` (jump targets are assigned by
    /// the superword pass, which re-lays the op list out).
    LoopBegin { slot: u16, lo: Addr, hi: Addr },
    /// Bottom of a dynamic loop.
    LoopEnd { slot: u16 },
}

/// A kernel compiled to a flat tape of register ops.
///
/// Obtained from [`CompiledKernel::to_tape`]; executed through its
/// superword lowering ([`TapeKernel::to_superword`]).
#[derive(Debug, Clone)]
pub struct TapeKernel {
    /// Name of the source procedure.
    pub name: String,
    pub(crate) params: Vec<(String, ParamKind)>,
    pub(crate) ops: Vec<TOp>,
    pub(crate) n_regs: usize,
    pub(crate) n_dyn_loops: usize,
    /// Per tensor-parameter flag: does any tape op store to it?
    pub(crate) tensor_written: Vec<bool>,
}

impl TapeKernel {
    /// Number of ops on the tape.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty (a kernel with no statements).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Size of the flat `f32` register file.
    pub fn register_count(&self) -> usize {
        self.n_regs
    }

    /// Whether the tape stores to tensor parameter `idx` (counting tensor
    /// parameters only, in signature order).
    pub fn writes_tensor(&self, idx: usize) -> bool {
        self.tensor_written.get(idx).copied().unwrap_or(false)
    }
}

impl CompiledKernel {
    /// Compiles this kernel to a [`TapeKernel`].
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::Unsupported`] for constructs the tape cannot
    /// register-allocate: dynamically sized locals, dynamic indices into
    /// locals, data-dependent branches, and non-affine index arithmetic.
    pub fn to_tape(&self) -> Result<TapeKernel> {
        let mut b = TapeBuilder {
            ops: Vec::new(),
            loop_bind: HashMap::new(),
            locals: Vec::new(),
            n_dyn: 0,
            persist_next: 0,
            temp_next: 0,
            temp_high: 0,
        };
        b.block(&self.body)?;
        b.finish(self)
    }
}

#[derive(Debug, Clone, Copy)]
enum LoopBind {
    Const(i64),
    Dyn(u16),
}

#[derive(Debug, Clone, Copy)]
struct LocalBind {
    base: u32,
    len: u32,
}

/// Where a compiled access lands: a register (constant-indexed local) or a
/// tensor memory location.
enum Target {
    Reg(u32),
    Mem { buf: u16, addr: Addr },
}

struct TapeBuilder {
    ops: Vec<TOp>,
    loop_bind: HashMap<u16, LoopBind>,
    locals: Vec<Option<LocalBind>>,
    n_dyn: usize,
    persist_next: u32,
    temp_next: u32,
    temp_high: u32,
}

fn unsupported(what: impl Into<String>) -> CodegenError {
    CodegenError::Unsupported { backend: "tape", what: what.into() }
}

impl TapeBuilder {
    fn push(&mut self, op: TOp) -> Result<()> {
        if self.ops.len() >= MAX_TAPE_OPS {
            return Err(unsupported(format!("tape exceeds {MAX_TAPE_OPS} ops")));
        }
        self.ops.push(op);
        Ok(())
    }

    fn persist_alloc(&mut self, len: u32) -> u32 {
        // Lane-align every local so the superword IR's whole-vector ops
        // address lane-aligned register runs; the padding registers are never
        // read or written.
        let base = self.persist_next.next_multiple_of(LANE_ALIGN);
        self.persist_next = base + len;
        base
    }

    fn temp(&mut self) -> u32 {
        let t = self.temp_next;
        self.temp_next += 1;
        self.temp_high = self.temp_high.max(self.temp_next);
        TEMP_FLAG | t
    }

    fn temp_reset(&mut self) {
        self.temp_next = 0;
    }

    /// Lowers an index expression to affine form under the current loop
    /// bindings.
    fn affine(&self, e: &IExpr) -> Result<Affine> {
        Ok(match e {
            IExpr::Const(v) => Affine::constant(*v),
            IExpr::Loop(i) => match self.loop_bind.get(i) {
                Some(LoopBind::Const(c)) => Affine::constant(*c),
                Some(LoopBind::Dyn(d)) => Affine::term(Term::Loop(*d)),
                None => return Err(unsupported("loop variable used outside its loop")),
            },
            IExpr::Scalar(s) => Affine::term(Term::Scalar(*s)),
            IExpr::Add(a, b) => self.affine(a)?.add(&self.affine(b)?),
            IExpr::Sub(a, b) => self.affine(a)?.add(&self.affine(b)?.scale(-1)),
            IExpr::Mul(a, b) => {
                let (l, r) = (self.affine(a)?, self.affine(b)?);
                if let Some(c) = l.as_const() {
                    r.scale(c)
                } else if let Some(c) = r.as_const() {
                    l.scale(c)
                } else {
                    return Err(unsupported("product of two non-constant indices"));
                }
            }
            // Division and modulo mirror the interpreter exactly, including
            // its divide-by-zero convention, but only for fully constant
            // operands — anything else is not affine.
            IExpr::Div(a, b) => {
                let (l, r) = (self.affine(a)?.as_const(), self.affine(b)?.as_const());
                match (l, r) {
                    (Some(x), Some(d)) => Affine::constant(if d == 0 { 0 } else { x.div_euclid(d) }),
                    _ => return Err(unsupported("non-constant integer division")),
                }
            }
            IExpr::Mod(a, b) => {
                let (l, r) = (self.affine(a)?.as_const(), self.affine(b)?.as_const());
                match (l, r) {
                    (Some(x), Some(d)) => Affine::constant(if d == 0 { 0 } else { x.rem_euclid(d) }),
                    _ => return Err(unsupported("non-constant integer modulo")),
                }
            }
            IExpr::Neg(a) => self.affine(a)?.scale(-1),
        })
    }

    /// Resolves a buffer access to a register (constant-indexed local) or a
    /// tensor address.
    fn resolve(&self, buf: &BufSlot, flat: &IExpr) -> Result<Target> {
        let a = self.affine(flat)?;
        match buf {
            BufSlot::Arg(i) => Ok(Target::Mem { buf: *i, addr: a.into_addr() }),
            BufSlot::Local(i) => {
                let bind = self
                    .locals
                    .get(*i as usize)
                    .copied()
                    .flatten()
                    .ok_or_else(|| unsupported("local buffer used before allocation"))?;
                let off = a
                    .as_const()
                    .ok_or_else(|| unsupported("dynamic index into a register-allocated local"))?;
                if off < 0 || off >= bind.len as i64 {
                    return Err(CodegenError::OutOfBounds {
                        buf: format!("Local({i})"),
                        index: off,
                        len: bind.len as usize,
                    });
                }
                Ok(Target::Reg(bind.base + off as u32))
            }
        }
    }

    /// Compiles a value expression, returning the register holding it and
    /// whether that register is a fresh temporary (false = a borrowed
    /// persistent local register that must not be clobbered).
    fn vexpr(&mut self, e: &VExpr) -> Result<(u32, bool)> {
        match e {
            VExpr::Load { buf, flat } => {
                if let Target::Reg(r) = self.resolve(buf, flat)? {
                    return Ok((r, false));
                }
                let t = self.temp();
                self.vexpr_into(t, e)?;
                Ok((t, true))
            }
            _ => {
                let t = self.temp();
                self.vexpr_into(t, e)?;
                Ok((t, true))
            }
        }
    }

    /// Compiles a value expression so that its final op writes `dst`.
    fn vexpr_into(&mut self, dst: u32, e: &VExpr) -> Result<()> {
        match e {
            VExpr::Const(v) => self.push(TOp::ConstF { dst, val: *v }),
            VExpr::Int(i) => {
                let a = self.affine(i)?;
                match a.as_const() {
                    Some(c) => self.push(TOp::ConstF { dst, val: c as f32 }),
                    None => self.push(TOp::CastI { dst, value: a.into_addr() }),
                }
            }
            VExpr::Load { buf, flat } => match self.resolve(buf, flat)? {
                Target::Reg(r) => {
                    if r == dst {
                        Ok(())
                    } else {
                        self.push(TOp::Mov { dst, src: r })
                    }
                }
                Target::Mem { buf, addr } => self.push(TOp::LoadT { dst, buf, addr }),
            },
            VExpr::Add(a, b) => {
                let (ra, _) = self.vexpr(a)?;
                let (rb, _) = self.vexpr(b)?;
                self.push(TOp::Add { dst, a: ra, b: rb })
            }
            VExpr::Sub(a, b) => {
                let (ra, _) = self.vexpr(a)?;
                let (rb, _) = self.vexpr(b)?;
                self.push(TOp::Sub { dst, a: ra, b: rb })
            }
            VExpr::Mul(a, b) => {
                let (ra, _) = self.vexpr(a)?;
                let (rb, _) = self.vexpr(b)?;
                self.push(TOp::Mul { dst, a: ra, b: rb })
            }
            VExpr::Div(a, b) => {
                let (ra, _) = self.vexpr(a)?;
                let (rb, _) = self.vexpr(b)?;
                self.push(TOp::Div { dst, a: ra, b: rb })
            }
            VExpr::Neg(a) => {
                let (ra, _) = self.vexpr(a)?;
                self.push(TOp::Neg { dst, src: ra })
            }
        }
    }

    fn block(&mut self, ops: &[Op]) -> Result<()> {
        for op in ops {
            self.stmt(op)?;
        }
        Ok(())
    }

    fn stmt(&mut self, op: &Op) -> Result<()> {
        match op {
            Op::AllocLocal { slot, len } => {
                let len = self
                    .affine(len)?
                    .as_const()
                    .ok_or_else(|| unsupported("dynamically sized local buffer"))?
                    .max(1);
                if len > UNROLL_CAP * 16 {
                    return Err(unsupported(format!("local buffer of {len} registers")));
                }
                let base = self.persist_alloc(len as u32);
                let slot = *slot as usize;
                if self.locals.len() <= slot {
                    self.locals.resize(slot + 1, None);
                }
                self.locals[slot] = Some(LocalBind { base, len: len as u32 });
                self.push(TOp::Zero { base, len: len as u32 })
            }
            Op::Assign { buf, flat, rhs, f16 } => {
                self.temp_reset();
                match self.resolve(buf, flat)? {
                    Target::Reg(r) => {
                        self.vexpr_into(r, rhs)?;
                        if *f16 {
                            self.push(TOp::Round { reg: r })?;
                        }
                        Ok(())
                    }
                    Target::Mem { buf, addr } => {
                        let (src, owned) = self.vexpr(rhs)?;
                        let src = if *f16 {
                            // Round in a scratch register so a borrowed
                            // local is not corrupted.
                            let r = if owned {
                                src
                            } else {
                                let t = self.temp();
                                self.push(TOp::Mov { dst: t, src })?;
                                t
                            };
                            self.push(TOp::Round { reg: r })?;
                            r
                        } else {
                            src
                        };
                        self.push(TOp::StoreT { src, buf, addr })
                    }
                }
            }
            Op::Reduce { buf, flat, rhs, f16 } => {
                self.temp_reset();
                match self.resolve(buf, flat)? {
                    Target::Reg(r) => {
                        if !*f16 {
                            if let VExpr::Mul(a, b) = rhs {
                                let (ra, _) = self.vexpr(a)?;
                                let (rb, _) = self.vexpr(b)?;
                                return self.push(TOp::Fma { dst: r, a: ra, b: rb });
                            }
                        }
                        let (v, _) = self.vexpr(rhs)?;
                        self.push(TOp::AddAssign { dst: r, src: v })?;
                        if *f16 {
                            self.push(TOp::Round { reg: r })?;
                        }
                        Ok(())
                    }
                    Target::Mem { buf, addr } => {
                        let (v, _) = self.vexpr(rhs)?;
                        let t = self.temp();
                        self.push(TOp::LoadT { dst: t, buf, addr: addr.clone() })?;
                        self.push(TOp::Add { dst: t, a: t, b: v })?;
                        if *f16 {
                            self.push(TOp::Round { reg: t })?;
                        }
                        self.push(TOp::StoreT { src: t, buf, addr })
                    }
                }
            }
            Op::For { var, lo, hi, body } => {
                let lo_a = self.affine(lo)?;
                let hi_a = self.affine(hi)?;
                if let (Some(l), Some(h)) = (lo_a.as_const(), hi_a.as_const()) {
                    if h - l <= UNROLL_CAP {
                        let saved = self.loop_bind.get(var).copied();
                        for i in l..h {
                            self.loop_bind.insert(*var, LoopBind::Const(i));
                            self.block(body)?;
                        }
                        match saved {
                            Some(bind) => self.loop_bind.insert(*var, bind),
                            None => self.loop_bind.remove(var),
                        };
                        return Ok(());
                    }
                }
                // Dynamic loop (or a constant loop too long to unroll).
                if self.n_dyn >= u16::MAX as usize {
                    return Err(unsupported("too many dynamic loops"));
                }
                let slot = self.n_dyn as u16;
                self.n_dyn += 1;
                let saved = self.loop_bind.insert(*var, LoopBind::Dyn(slot));
                self.push(TOp::LoopBegin { slot, lo: lo_a.into_addr(), hi: hi_a.into_addr() })?;
                self.block(body)?;
                self.push(TOp::LoopEnd { slot })?;
                match saved {
                    Some(bind) => self.loop_bind.insert(*var, bind),
                    None => self.loop_bind.remove(var),
                };
                Ok(())
            }
            Op::If { lhs, op, rhs, then_body, else_body } => {
                let l = self.affine(lhs)?.as_const();
                let r = self.affine(rhs)?.as_const();
                match (l, r) {
                    (Some(a), Some(b)) => {
                        if op.eval(a, b) {
                            self.block(then_body)
                        } else {
                            self.block(else_body)
                        }
                    }
                    _ => Err(unsupported("data-dependent branch")),
                }
            }
        }
    }

    fn finish(mut self, kernel: &CompiledKernel) -> Result<TapeKernel> {
        // Temporaries were numbered in their own space during the build;
        // place them after the persistent (local) registers.
        let persist = self.persist_next;
        let remap = |r: &mut u32| {
            if *r & TEMP_FLAG != 0 {
                *r = persist + (*r & !TEMP_FLAG);
            }
        };
        for op in &mut self.ops {
            match op {
                TOp::ConstF { dst, .. } | TOp::CastI { dst, .. } => remap(dst),
                TOp::LoadT { dst, .. } => remap(dst),
                TOp::StoreT { src, .. } => remap(src),
                TOp::Mov { dst, src } | TOp::Neg { dst, src } | TOp::AddAssign { dst, src } => {
                    remap(dst);
                    remap(src);
                }
                TOp::Add { dst, a, b }
                | TOp::Sub { dst, a, b }
                | TOp::Mul { dst, a, b }
                | TOp::Div { dst, a, b }
                | TOp::Fma { dst, a, b } => {
                    remap(dst);
                    remap(a);
                    remap(b);
                }
                TOp::Round { reg } => remap(reg),
                TOp::Zero { .. } | TOp::LoopBegin { .. } | TOp::LoopEnd { .. } => {}
            }
        }
        let n_tensors = kernel.params.iter().filter(|(_, k)| *k == ParamKind::Tensor).count();
        let mut tensor_written = vec![false; n_tensors];
        for op in &self.ops {
            if let TOp::StoreT { buf, .. } = op {
                tensor_written[*buf as usize] = true;
            }
        }
        Ok(TapeKernel {
            name: kernel.name.clone(),
            params: kernel.params.clone(),
            ops: self.ops,
            n_regs: (persist + self.temp_high) as usize,
            n_dyn_loops: self.n_dyn,
            tensor_written,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{compile, RunArg};
    use crate::superword::tests::scalar_chain;
    use crate::superword::TensorView;
    use exo_ir::builder::*;
    use exo_ir::{MemSpace, ScalarType};

    /// The reference kernel specialised to an 8x12 tile: signature
    /// `(KC, Ac, Bc, C)` with constant-trip tile loops, the form every
    /// generated kernel takes.
    fn reference_tape() -> (CompiledKernel, TapeKernel) {
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let p = exo_sched::partial_eval(&p, &[8, 12]).unwrap();
        let compiled = compile(&p).unwrap();
        let tape = compiled.to_tape().unwrap();
        (compiled, tape)
    }

    /// The tape has no executor of its own: these tests run it through its
    /// superword lowering compiled to the scalar chain, the bit-exact
    /// in-process executor.
    #[test]
    fn tape_matches_interpreter_bit_for_bit_on_the_reference_kernel() {
        let (compiled, tape) = reference_tape();
        let chain = scalar_chain(&tape.to_superword().unwrap());
        let (mr, nr, kc) = (8usize, 12usize, 29usize);
        let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + 3) % 13) as f32 * 0.5 - 2.0).collect();
        let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + 1) % 11) as f32 * 0.25 - 1.0).collect();
        let c0: Vec<f32> = (0..nr * mr).map(|i| (i % 5) as f32 * 0.5).collect();

        let (mut a_buf, mut b_buf, mut c_interp) = (a.clone(), b.clone(), c0.clone());
        compiled
            .run(&mut [
                RunArg::Size(kc as i64),
                RunArg::Tensor(&mut a_buf),
                RunArg::Tensor(&mut b_buf),
                RunArg::Tensor(&mut c_interp),
            ])
            .unwrap();
        let (mut a_buf, mut b_buf, mut c_tape) = (a.clone(), b.clone(), c0.clone());
        chain
            .run_views(
                &[kc as i64],
                &mut [TensorView::Rw(&mut a_buf), TensorView::Rw(&mut b_buf), TensorView::Rw(&mut c_tape)],
            )
            .unwrap();
        assert_eq!(c_interp, c_tape, "tape must be bit-for-bit equal to the interpreter");

        // The zero-copy packed entry point computes the same values.
        let mut c_packed = c0.clone();
        chain.run_packed(kc, &a, &b, &mut c_packed).unwrap();
        assert_eq!(c_interp, c_packed);
    }

    #[test]
    fn tape_reports_written_tensors_and_rejects_misuse() {
        let (_, tape) = reference_tape();
        // Signature is (KC, Ac, Bc, C): only C is written.
        assert!(!tape.writes_tensor(0));
        assert!(!tape.writes_tensor(1));
        assert!(tape.writes_tensor(2));
        // Passing the written tensor read-only is rejected up front.
        let a = vec![0.0f32; 8];
        let b = vec![0.0f32; 12];
        let c = vec![0.0f32; 96];
        let err = scalar_chain(&tape.to_superword().unwrap())
            .run_views(&[1], &mut [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Ro(&c)]);
        assert!(matches!(err, Err(CodegenError::BadArguments { .. })));
    }

    #[test]
    fn constant_loops_unroll_and_kc_stays_dynamic() {
        let (_, tape) = reference_tape();
        // The register-tile loops are unrolled; only the KC loop remains.
        assert_eq!(tape.n_dyn_loops, 1);
        assert!(tape.len() > 8 * 12, "unrolled tape should carry ops for every tile element");
    }

    #[test]
    fn fully_symbolic_kernels_are_declined() {
        // Without partial evaluation the tile loops multiply two unknowns
        // (`k * MR`), which is not affine: the tape refuses (and the
        // generator reports such a shape as unsupported).
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let compiled = compile(&p).unwrap();
        assert!(matches!(compiled.to_tape(), Err(CodegenError::Unsupported { .. })));
    }

    #[test]
    fn f16_rounding_matches_the_interpreter() {
        let p = proc("round16")
            .tensor_arg("out", ScalarType::F16, vec![int(2)], MemSpace::Dram)
            .body(vec![assign("out", vec![int(0)], flt(1.0 + 1.0e-5)), reduce("out", vec![int(1)], flt(0.1))])
            .build();
        let compiled = compile(&p).unwrap();
        let chain = scalar_chain(&compiled.to_superword().unwrap());
        let mut out_interp = vec![0.0f32, 3.0];
        compiled.run(&mut [RunArg::Tensor(&mut out_interp)]).unwrap();
        let mut out_tape = vec![0.0f32, 3.0];
        chain.run_views(&[], &mut [TensorView::Rw(&mut out_tape)]).unwrap();
        assert_eq!(out_interp, out_tape);
        assert_eq!(out_interp[0], 1.0);
    }
}
