//! The bytecode optimization pipeline (`zag --opt=0|3`).
//!
//! Sits between [`crate::compile`](mod@crate::compile) and
//! [`crate::interp`]: `compile` produces the naive stream (exactly the
//! `--opt=0` behaviour), and this module rewrites each [`CompiledFn`] in
//! place at `--opt=3`. In the image pipeline ([`crate::compile::PASSES`])
//! it runs after [`crate::inline`] and before the native tiers install;
//! [`crate::coalesce`] runs last and reuses its liveness, block leaders,
//! successors, retargeting and dead-store elimination, which know an
//! installed loop head. Pass ordering, repeated to a fixpoint:
//!
//! 1. **Constant folding + copy propagation** — block-local
//!    forward walk: reads of registers holding a copy are redirected to
//!    the original; `Arith`/`Cmp`/`Neg`/`Not`/`Truthy` over constant
//!    operands fold to `Const` *only when evaluation succeeds* (an op
//!    that would raise, like `1/0`, is left for the runtime so the error
//!    and its text are preserved).
//! 2. **Dead-store elimination** — a backward liveness
//!    dataflow over basic blocks; only side-effect-free `Const`/`Move`
//!    whose destination is dead are removed, with each `jump` left
//!    pointing at the next instruction, then jump targets are compacted.
//! 3. **Superinstruction fusion** — a peephole scan over the
//!    shapes that dominate the NPB inner loops; see the catalogue below.
//!
//! # Fusion catalogue
//!
//! A fused form stays only while a kernel or template matcher reads it
//! (it is the canonical vocabulary that matcher's legality rule is stated
//! in) or a gated workload runs it in a loop that stays interpreted. The
//! *kept by* column names that reader; a form with an empty column goes,
//! with its matcher here, its `interp.rs` arm and its replay-order proof
//! (DESIGN "Fusion catalogue" has the five that went that way).
//!
//! | pattern (after pass 1/2)                        | fused               | kept by |
//! |-------------------------------------------------|---------------------|---------|
//! | `const t,k; arith d,a,t`                        | `ArithK d,a,k`      | `kernels::lcg_callee` (the LCG lifter), `match_rank_pipeline`, template decoder; hot in `dyn` and `fork_small` |
//! | `const t,k; arith d,t,b`                        | `ArithKL d,k,b`     | `kernels::lcg_callee`, template decoder |
//! | `index t,A[i]; arithk u,t,k; indexset A[i],u`   | `IncElemK A[i],k`   | template decoder |
//! | `index t,A[i]; mul u,x,t; add s,s,u`            | `FmaIdx s,x,A[i]`   | template decoder (`fma_tail`); the tail of `FmaGather` |
//! | `arithk t,j,±k; index d,A[t]`                   | `IndexOff d,A[j±k]` | template decoder |
//! | `arithk v,v,±k; jump`                           | `IncJump v,±k`      | `match_matvec_rows`; otherwise only the interpreter (general-path loops) |
//! | `deref t,C; index d,t[i]`                       | `DerefIndex d,(C)[i]` | `match_matvec_rows`, `match_rank_pipeline`, template decoder |
//! | `deref t,C; indexoff d,t[j±k]`                  | `DerefIndexOff d,(C)[j±k]` | `match_matvec_rows`, `match_rank_pipeline`, template decoder (the stencil) |
//! | `deref t,C; indexset t[i],s`                    | `DerefIndexSet (C)[i],s` | `match_matvec_rows`, `match_rank_pipeline`, template decoder |
//! | `dindex t,(X)[i]; deref a,A; dindex c,(C)[i]; fmaidx d,t,a[c]` | `FmaGather d,(X),(A),(C),i` | `match_matvec_rows` |
//!
//! One more rewrite is not a superinstruction (no new opcode):
//! `move t,x; builtin d,op,t..1` → `builtin d,op,x..1`, likewise `print`.
//!
//! Every fusion requires the consumed temporaries to be dead (or
//! redefined) afterwards and no jump target inside the consumed window,
//! and every fused opcode's interpreter arm replays the *unfused*
//! evaluation order on its slow path so runtime errors (which message,
//! which operand order) are byte-identical with `--opt=0` and the
//! tree-walking oracle — the differential suite enforces this.
//!
//! # Verification
//!
//! The pipeline ([`crate::compile::compile_image_opt`]) runs [`verify_fn`]
//! on every function after lowering and after every pass. It proves all
//! register operands `< nregs`, argument blocks in range, constant
//! indices valid, jump targets in bounds, and the stream properly
//! terminated. The interpreter's dispatch loop relies on this to use
//! unchecked register access.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use crate::bytecode::{ArithOp, CompiledFn, Insn, Reg};
use crate::interp::{arith_token, binop, binop_arith, cmp_token};
use crate::value::Value;

/// Optimization level for the bytecode pipeline. Two rungs, named by
/// their `--opt` spelling: the oracle and the best tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// The naive compile output, executed as-is: with the tree-walker, one
    /// of the two oracles every other configuration is compared against.
    O0,
    /// The whole pipeline (default): inlining ([`crate::inline`]), constant
    /// folding, copy propagation, dead-store elimination, superinstruction
    /// fusion, then the native tiers — fixed bulk kernels
    /// ([`crate::kernels`]) and strip-mined templates
    /// ([`crate::templates`]).
    #[default]
    O3,
}

impl OptLevel {
    /// Parse a CLI spelling (`0` | `3`).
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s {
            "0" => Some(OptLevel::O0),
            "3" => Some(OptLevel::O3),
            _ => None,
        }
    }

    /// Map a numeric level (from `ExecConfig::opt` or a service request,
    /// both of which admit only 0 and 3) onto the enum.
    pub fn from_index(n: u8) -> OptLevel {
        match n {
            0 => OptLevel::O0,
            _ => OptLevel::O3,
        }
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OptLevel::O0 => "0",
            OptLevel::O3 => "3",
        })
    }
}

// ---------------------------------------------------------------------------
// Operand visitors
// ---------------------------------------------------------------------------

/// Visit every register an instruction *reads*. Call-style instructions
/// read their whole argument block; `FmaIdx` reads its accumulator;
/// `IncCmpJump`/`IncJump` read the induction register they update.
/// `WsNext` counts its out-registers as read: its exit edge leaves them
/// untouched, so whatever they held before stays observable.
/// `BulkLoop` and `TemplateLoop` report nothing: their registers live in
/// their descriptors, range-checked in [`verify_fn`] and read by liveness
/// through [`visit_live`].
pub(crate) fn visit_uses(insn: &Insn, mut f: impl FnMut(Reg)) {
    match *insn {
        Insn::Const { .. }
        | Insn::Jump { .. }
        | Insn::Trap { .. }
        | Insn::BulkLoop { .. }
        | Insn::TemplateLoop { .. }
        | Insn::RetVoid => {}
        Insn::Move { src, .. }
        | Insn::NewCell { src, .. }
        | Insn::AddrDeref { src, .. }
        | Insn::Neg { src, .. }
        | Insn::Not { src, .. }
        | Insn::Truthy { src, .. }
        | Insn::Ret { src } => f(src),
        Insn::CellGet { cell, .. } => f(cell),
        Insn::CellSet { cell, src } => {
            f(cell);
            f(src);
        }
        Insn::Deref { ptr, .. } => f(ptr),
        Insn::StorePtr { ptr, src } => {
            f(ptr);
            f(src);
        }
        Insn::ElemAddr { arr, idx, .. }
        | Insn::Index { arr, idx, .. }
        | Insn::IndexOff { arr, idx, .. }
        | Insn::IncElemK { arr, idx, .. } => {
            f(arr);
            f(idx);
        }
        Insn::DerefIndex { cell, idx, .. } | Insn::DerefIndexOff { cell, idx, .. } => {
            f(cell);
            f(idx);
        }
        Insn::DerefIndexSet { cell, idx, src } => {
            f(cell);
            f(idx);
            f(src);
        }
        Insn::FmaGather {
            dst,
            xcell,
            acell,
            icell,
            idx,
        } => {
            f(dst);
            f(xcell);
            f(acell);
            f(icell);
            f(idx);
        }
        Insn::IndexSet { arr, idx, src } => {
            f(arr);
            f(idx);
            f(src);
        }
        Insn::Arith { a, b, .. } | Insn::Cmp { a, b, .. } | Insn::CmpJumpFalse { a, b, .. } => {
            f(a);
            f(b);
        }
        Insn::ArithK { a, .. } => f(a),
        Insn::ArithKL { b, .. } => f(b),
        Insn::FmaIdx { dst, x, arr, idx } => {
            f(dst);
            f(x);
            f(arr);
            f(idx);
        }
        Insn::JumpIfFalse { cond, .. } | Insn::JumpIfTrue { cond, .. } => f(cond),
        Insn::IncCmpJump { var, limit, .. } => {
            f(var);
            f(limit);
        }
        Insn::IncJump { var, .. } => f(var),
        Insn::WsNext { ws, lb, ub, .. } => {
            f(ws);
            f(lb);
            f(ub);
        }
        Insn::Call { base, n, .. } => {
            for r in base..base + n {
                f(r);
            }
        }
        Insn::CallValue {
            callee, base, n, ..
        } => {
            f(callee);
            for r in base..base + n {
                f(r);
            }
        }
        Insn::OmpCall { base, n, .. } | Insn::Builtin { base, n, .. } | Insn::Print { base, n } => {
            for r in base..base + n {
                f(r);
            }
        }
    }
}

/// Visit every register an instruction *writes*. Call argument blocks
/// count as defs: `call_fn` moves them out and leaves `Undefined` behind
/// (`OmpCall` only borrows them; nothing reads a spent argument temporary,
/// so one rule serves both).
pub(crate) fn visit_defs(insn: &Insn, mut f: impl FnMut(Reg)) {
    match *insn {
        Insn::Const { dst, .. }
        | Insn::Move { dst, .. }
        | Insn::NewCell { dst, .. }
        | Insn::CellGet { dst, .. }
        | Insn::Deref { dst, .. }
        | Insn::ElemAddr { dst, .. }
        | Insn::AddrDeref { dst, .. }
        | Insn::Index { dst, .. }
        | Insn::IndexOff { dst, .. }
        | Insn::DerefIndex { dst, .. }
        | Insn::DerefIndexOff { dst, .. }
        | Insn::FmaGather { dst, .. }
        | Insn::Arith { dst, .. }
        | Insn::ArithK { dst, .. }
        | Insn::ArithKL { dst, .. }
        | Insn::FmaIdx { dst, .. }
        | Insn::Cmp { dst, .. }
        | Insn::Neg { dst, .. }
        | Insn::Not { dst, .. }
        | Insn::Truthy { dst, .. } => f(dst),
        Insn::IncCmpJump { var, .. } | Insn::IncJump { var, .. } => f(var),
        Insn::WsNext { lb, ub, .. } => {
            f(lb);
            f(ub);
        }
        Insn::Call { dst, base, n, .. } | Insn::OmpCall { dst, base, n, .. } => {
            for r in base..base + n {
                f(r);
            }
            f(dst);
        }
        Insn::CallValue { dst, base, n, .. } => {
            for r in base..base + n {
                f(r);
            }
            f(dst);
        }
        Insn::Builtin { dst, .. } => f(dst),
        Insn::CellSet { .. }
        | Insn::StorePtr { .. }
        | Insn::IndexSet { .. }
        | Insn::IncElemK { .. }
        | Insn::DerefIndexSet { .. }
        | Insn::Jump { .. }
        | Insn::JumpIfFalse { .. }
        | Insn::JumpIfTrue { .. }
        | Insn::CmpJumpFalse { .. }
        | Insn::Print { .. }
        | Insn::Trap { .. }
        | Insn::BulkLoop { .. }
        | Insn::TemplateLoop { .. }
        | Insn::Ret { .. }
        | Insn::RetVoid => {}
    }
}

/// Send every register operand of `insn`, read or written, through `f`.
/// An argument block is renamed by its base alone, so a caller renames
/// none of its registers but keeps the whole block in place.
pub(crate) fn map_regs(insn: &mut Insn, mut f: impl FnMut(Reg) -> Reg) {
    let mut m = |r: &mut Reg| *r = f(*r);
    match insn {
        Insn::Jump { .. }
        | Insn::Trap { .. }
        | Insn::BulkLoop { .. }
        | Insn::TemplateLoop { .. }
        | Insn::RetVoid => {}
        Insn::Const { dst: x, .. }
        | Insn::Ret { src: x }
        | Insn::Print { base: x, .. }
        | Insn::IncJump { var: x, .. }
        | Insn::JumpIfFalse { cond: x, .. }
        | Insn::JumpIfTrue { cond: x, .. } => m(x),
        Insn::Move { dst: x, src: y }
        | Insn::NewCell { dst: x, src: y }
        | Insn::CellGet { dst: x, cell: y }
        | Insn::CellSet { cell: x, src: y }
        | Insn::Deref { dst: x, ptr: y }
        | Insn::StorePtr { ptr: x, src: y }
        | Insn::AddrDeref { dst: x, src: y }
        | Insn::Neg { dst: x, src: y }
        | Insn::Not { dst: x, src: y }
        | Insn::Truthy { dst: x, src: y }
        | Insn::CmpJumpFalse { a: x, b: y, .. }
        | Insn::IncCmpJump {
            var: x, limit: y, ..
        }
        | Insn::ArithK { dst: x, a: y, .. }
        | Insn::ArithKL { dst: x, b: y, .. }
        | Insn::IncElemK { arr: x, idx: y, .. }
        | Insn::Call {
            dst: x, base: y, ..
        }
        | Insn::OmpCall {
            dst: x, base: y, ..
        }
        | Insn::Builtin {
            dst: x, base: y, ..
        } => {
            m(x);
            m(y);
        }
        Insn::ElemAddr {
            dst: x,
            arr: y,
            idx: z,
        }
        | Insn::Index {
            dst: x,
            arr: y,
            idx: z,
        }
        | Insn::IndexOff {
            dst: x,
            arr: y,
            idx: z,
            ..
        }
        | Insn::IndexSet {
            arr: x,
            idx: y,
            src: z,
        }
        | Insn::Arith {
            dst: x, a: y, b: z, ..
        }
        | Insn::Cmp {
            dst: x, a: y, b: z, ..
        }
        | Insn::DerefIndex {
            dst: x,
            cell: y,
            idx: z,
        }
        | Insn::DerefIndexOff {
            dst: x,
            cell: y,
            idx: z,
            ..
        }
        | Insn::DerefIndexSet {
            cell: x,
            idx: y,
            src: z,
        }
        | Insn::WsNext {
            ws: x,
            lb: y,
            ub: z,
            ..
        }
        | Insn::CallValue {
            dst: x,
            callee: y,
            base: z,
            ..
        } => {
            m(x);
            m(y);
            m(z);
        }
        Insn::FmaIdx { dst, x, arr, idx } => {
            m(dst);
            m(x);
            m(arr);
            m(idx);
        }
        Insn::FmaGather {
            dst,
            xcell,
            acell,
            icell,
            idx,
        } => {
            m(dst);
            m(xcell);
            m(acell);
            m(icell);
            m(idx);
        }
    }
}

pub(crate) fn jump_target(insn: &Insn) -> Option<u32> {
    match *insn {
        Insn::Jump { to }
        | Insn::JumpIfFalse { to, .. }
        | Insn::JumpIfTrue { to, .. }
        | Insn::CmpJumpFalse { to, .. }
        | Insn::IncCmpJump { to, .. }
        | Insn::IncJump { to, .. }
        | Insn::WsNext { exit: to, .. } => Some(to),
        _ => None,
    }
}

/// Rewrite an instruction's jump target through an old→new index map.
pub(crate) fn retarget(insn: &mut Insn, map: &[u32]) {
    match insn {
        Insn::Jump { to }
        | Insn::JumpIfFalse { to, .. }
        | Insn::JumpIfTrue { to, .. }
        | Insn::CmpJumpFalse { to, .. }
        | Insn::IncCmpJump { to, .. }
        | Insn::IncJump { to, .. }
        | Insn::WsNext { exit: to, .. } => *to = map[*to as usize],
        _ => {}
    }
}

/// Whether control can fall through to the next instruction.
pub(crate) fn falls_through(insn: &Insn) -> bool {
    !matches!(
        insn,
        Insn::Jump { .. }
            | Insn::IncJump { .. }
            | Insn::Trap { .. }
            | Insn::Ret { .. }
            | Insn::RetVoid
    )
}

/// Basic-block leader marks: entry, every jump target, and every
/// instruction after a branch/terminator.
pub(crate) fn leaders(code: &[Insn]) -> Vec<bool> {
    let mut l = vec![false; code.len()];
    if let Some(first) = l.first_mut() {
        *first = true;
    }
    for (i, insn) in code.iter().enumerate() {
        if let Some(t) = jump_target(insn) {
            l[t as usize] = true;
        }
        let ends_block = jump_target(insn).is_some() || !falls_through(insn);
        if ends_block && i + 1 < code.len() {
            l[i + 1] = true;
        }
    }
    l
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

/// Prove a compiled function safe to execute with unchecked register and
/// constant access: every operand in range, every argument block inside
/// the frame, every jump target inside the stream, and a terminator (or
/// unconditional jump) last. The pipeline runs it after lowering and after
/// every pass; the interpreter's `rg`/`kc` helpers cite this.
pub fn verify_fn(f: &CompiledFn, nfuncs: usize) -> Result<(), String> {
    let bad = |pc: usize, what: String| Err(format!("pc {pc}: {what}"));
    if f.nregs < f.nparams {
        return bad(0, format!("nregs {} < nparams {}", f.nregs, f.nparams));
    }
    if f.code.is_empty() {
        return bad(0, "empty instruction stream".into());
    }
    let n = f.code.len();
    for (pc, insn) in f.code.iter().enumerate() {
        let mut reg_err: Option<Reg> = None;
        let mut check = |r: Reg| {
            if (r as usize) >= f.nregs && reg_err.is_none() {
                reg_err = Some(r);
            }
        };
        visit_uses(insn, &mut check);
        visit_defs(insn, &mut check);
        if let Some(r) = reg_err {
            return bad(
                pc,
                format!("register r{r} out of range (nregs {})", f.nregs),
            );
        }
        // Argument blocks: `base + n` must not overflow the frame.
        if let Insn::Call { base, n: an, .. }
        | Insn::CallValue { base, n: an, .. }
        | Insn::OmpCall { base, n: an, .. }
        | Insn::Builtin { base, n: an, .. }
        | Insn::Print { base, n: an } = *insn
        {
            if base as usize + an as usize > f.nregs {
                return bad(pc, format!("arg block r{base}..{an} beyond frame"));
            }
        }
        let kcheck = |k: u16| (k as usize) < f.consts.len();
        let kbad = match *insn {
            Insn::Const { k, .. }
            | Insn::ArithK { k, .. }
            | Insn::ArithKL { k, .. }
            | Insn::IncElemK { k, .. } => !kcheck(k),
            Insn::Builtin { name_k, .. } => !kcheck(name_k),
            Insn::Trap { msg } => !kcheck(msg),
            _ => false,
        };
        if kbad {
            return bad(pc, "constant index out of range".into());
        }
        if let Insn::Call { func, .. } = *insn {
            if func as usize >= nfuncs {
                return bad(pc, format!("function index f{func} out of range"));
            }
        }
        if let Some(t) = jump_target(insn) {
            if t as usize >= n {
                return bad(pc, format!("jump target {t} out of range"));
            }
        }
        // BulkLoop carries its registers and exit pc in the kernel
        // descriptor (the instruction itself reports no operands).
        if let Insn::BulkLoop { kidx } = *insn {
            let Some(desc) = f.kernels.get(kidx as usize) else {
                return bad(pc, format!("kernel index {kidx} out of range"));
            };
            let mut reg_err = None;
            desc.visit_regs(|r| {
                if (r as usize) >= f.nregs && reg_err.is_none() {
                    reg_err = Some(r);
                }
            });
            if let Some(r) = reg_err {
                return bad(
                    pc,
                    format!("kernel register r{r} out of range (nregs {})", f.nregs),
                );
            }
            if desc.exit as usize >= n {
                return bad(pc, format!("kernel exit pc {} out of range", desc.exit));
            }
        }
        // TemplateLoop likewise carries its registers and exit pc in
        // the template descriptor.
        if let Insn::TemplateLoop { tidx } = *insn {
            let Some(desc) = f.templates.get(tidx as usize) else {
                return bad(pc, format!("template index {tidx} out of range"));
            };
            let mut reg_err = None;
            desc.visit_regs(|r| {
                if (r as usize) >= f.nregs && reg_err.is_none() {
                    reg_err = Some(r);
                }
            });
            if let Some(r) = reg_err {
                return bad(
                    pc,
                    format!("template register r{r} out of range (nregs {})", f.nregs),
                );
            }
            if desc.exit as usize >= n {
                return bad(pc, format!("template exit pc {} out of range", desc.exit));
            }
        }
    }
    if falls_through(&f.code[n - 1]) {
        return bad(n - 1, "stream does not end in a terminator".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

/// The head instruction an installed loop replaced and the pc it resumes
/// at after a normal exit, when `insn` is a [`Insn::BulkLoop`] or
/// [`Insn::TemplateLoop`] of `f`.
pub(crate) fn installed(f: &CompiledFn, insn: &Insn) -> Option<(Insn, u32)> {
    match *insn {
        Insn::BulkLoop { kidx } => f.kernels.get(kidx as usize).map(|d| (d.orig, d.exit)),
        Insn::TemplateLoop { tidx } => f.templates.get(tidx as usize).map(|d| (d.orig, d.exit)),
        _ => None,
    }
}

/// The pcs of `f` an installed loop covers, head through back-edge: the
/// stream its matcher and its replay contract were proved on.
pub(crate) fn installed_spans(f: &CompiledFn) -> Vec<bool> {
    let mut span = vec![false; f.code.len()];
    for (pc, insn) in f.code.iter().enumerate() {
        if let Some((_, exit)) = installed(f, insn) {
            span[pc..(exit as usize).max(pc + 1)].fill(true);
        }
    }
    span
}

/// Successor instruction indices of the block-ending instruction at `end`.
/// An installed loop head goes to its exit, or runs the head it replaced
/// and goes on through the body (a bail replays it).
pub(crate) fn succs(f: &CompiledFn, end: usize, out: &mut Vec<usize>) {
    out.clear();
    let mut insn = f.code[end];
    if let Some((orig, exit)) = installed(f, &insn) {
        out.push(exit as usize);
        insn = orig;
    }
    if let Some(t) = jump_target(&insn) {
        out.push(t as usize);
    }
    if falls_through(&insn) && end + 1 < f.code.len() {
        out.push(end + 1);
    }
}

/// A flat bit matrix: each row one bit per column, in `words` words.
/// Liveness, each instruction's reads and writes, and `coalesce`'s web
/// tables are each one.
pub(crate) struct Bits {
    words: usize,
    bits: Vec<u64>,
}

impl Bits {
    pub(crate) fn new(rows: usize, cols: usize) -> Bits {
        let words = cols.div_ceil(64);
        let bits = vec![0; rows * words];
        Bits { words, bits }
    }

    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.words..(i + 1) * self.words]
    }

    pub(crate) fn has(&self, i: usize, c: impl Into<u32>) -> bool {
        let c = c.into() as usize;
        self.bits[i * self.words + c / 64] & (1 << (c % 64)) != 0
    }

    pub(crate) fn set(&mut self, i: usize, c: impl Into<u32>) {
        let c = c.into() as usize;
        self.bits[i * self.words + c / 64] |= 1 << (c % 64);
    }

    /// Row `into` |= row `from`.
    pub(crate) fn merge(&mut self, into: usize, from: usize) {
        let w = self.words;
        for k in 0..w {
            self.bits[into * w + k] |= self.bits[from * w + k];
        }
    }
}

/// Backward liveness: row `i` holds the registers whose value after
/// instruction `i` may still be read.
pub(crate) type Live = Bits;

/// What each instruction of `f` reads and writes as liveness sees it
/// ([`visit_live`]), a row per instruction each. [`liveness`] builds them
/// and drops them; a pass that reads them per instruction keeps them
/// ([`liveness_of`]).
pub(crate) struct Effects {
    pub(crate) reads: Bits,
    pub(crate) writes: Bits,
}

impl Effects {
    pub(crate) fn of(f: &CompiledFn) -> Effects {
        let n = f.code.len();
        let (mut reads, mut writes) = (Bits::new(n, f.nregs), Bits::new(n, f.nregs));
        for (i, insn) in f.code.iter().enumerate() {
            visit_live(f, insn, true, |u| reads.set(i, u));
            visit_live(f, insn, false, |d| writes.set(i, d));
        }
        Effects { reads, writes }
    }

    /// Whether `r` is live on entry to instruction `at`, after which
    /// `live` holds.
    pub(crate) fn live_in(&self, live: &Live, at: usize, r: Reg) -> bool {
        self.reads.has(at, r) || (live.has(at, r) && !self.writes.has(at, r))
    }
}

/// Visit the registers instruction `insn` of `f` reads (`reads`) or
/// writes (`!reads`), as liveness sees them. An installed loop head reads
/// what it binds plus what the head it replaced reads. It writes nothing:
/// it writes back only registers its body writes, and the body stays in
/// the stream, reachable through replay, so the body's own definitions
/// stand for the head's.
pub(crate) fn visit_live(f: &CompiledFn, insn: &Insn, reads: bool, mut v: impl FnMut(Reg)) {
    match (*insn, reads) {
        (Insn::BulkLoop { kidx }, true) => {
            let d = &f.kernels[kidx as usize];
            visit_uses(&d.orig, &mut v);
            d.visit_regs(v);
        }
        (Insn::TemplateLoop { tidx }, true) => {
            let d = &f.templates[tidx as usize];
            visit_uses(&d.orig, &mut v);
            d.visit_reads(v);
        }
        (Insn::BulkLoop { .. } | Insn::TemplateLoop { .. }, false) => {}
        (_, true) => visit_uses(insn, v),
        (_, false) => visit_defs(insn, v),
    }
}

/// Block leaders of `f` for dataflow: [`leaders`] plus, for each installed
/// loop head, its exit, the next pc and the replaced head's target.
pub(crate) fn block_leaders(f: &CompiledFn) -> Vec<bool> {
    let mut lead = leaders(&f.code);
    for (pc, insn) in f.code.iter().enumerate() {
        if let Some((orig, exit)) = installed(f, insn) {
            let next = Some(pc as u32 + 1).filter(|&p| (p as usize) < lead.len());
            for t in [Some(exit), jump_target(&orig), next].into_iter().flatten() {
                lead[t as usize] = true;
            }
        }
    }
    lead
}

/// The dataflow blocks of `f` ([`block_leaders`]): each block's pcs, and
/// each pc's block.
pub(crate) fn blocks(f: &CompiledFn) -> (Vec<Range<usize>>, Vec<usize>) {
    let (n, lead) = (f.code.len(), block_leaders(f));
    let starts: Vec<usize> = (0..n).filter(|&i| lead[i]).chain([n]).collect();
    let blocks: Vec<Range<usize>> = starts.windows(2).map(|w| w[0]..w[1]).collect();
    let mut block_of = vec![0; n];
    for (b, pcs) in blocks.iter().enumerate() {
        block_of[pcs.clone()].fill(b);
    }
    (blocks, block_of)
}

/// Backward liveness of every instruction of `f`: a fixpoint over the
/// blocks' live-in rows, then one walk that fills each instruction's row.
pub(crate) fn liveness(f: &CompiledFn) -> Live {
    liveness_of(f, &Effects::of(f))
}

/// [`liveness`] over the effects of `f` already built.
pub(crate) fn liveness_of(f: &CompiledFn, eff: &Effects) -> Live {
    let (n, nregs) = (f.code.len(), f.nregs);
    let (blocks, block_of) = blocks(f);
    let nb = blocks.len();
    // Backwards over instruction `i`: `row` = `row` minus its writes plus
    // its reads.
    let step = |i: usize, row: &mut [u64]| {
        let (reads, writes) = (eff.reads.row(i), eff.writes.row(i));
        for (x, word) in row.iter_mut().enumerate() {
            *word = (*word & !writes[x]) | reads[x];
        }
    };
    // Each block's summary: what it reads before writing (`gen`) and what
    // it writes (`kill`).
    let (mut gen, mut kill) = (Bits::new(nb, nregs), Bits::new(nb, nregs));
    for (b, pcs) in blocks.iter().enumerate() {
        for i in pcs.clone().rev() {
            step(i, gen.row_mut(b));
            for (k, d) in kill.row_mut(b).iter_mut().zip(eff.writes.row(i)) {
                *k |= d;
            }
        }
    }
    // The union of the live-in rows of the successors of the block
    // ending at `end`, into `out`.
    let mut sbuf = Vec::new();
    let mut live_out = |end: usize, live_in: &Bits, out: &mut [u64]| {
        out.fill(0);
        succs(f, end, &mut sbuf);
        for &s in &sbuf {
            for (o, i) in out.iter_mut().zip(live_in.row(block_of[s])) {
                *o |= i;
            }
        }
    };
    let mut live_in = Bits::new(nb, nregs);
    let mut cur = vec![0u64; nregs.div_ceil(64)];
    loop {
        let mut changed = false;
        for b in (0..nb).rev() {
            live_out(blocks[b].end - 1, &live_in, &mut cur);
            let (g, k) = (gen.row(b), kill.row(b));
            for (x, a) in live_in.row_mut(b).iter_mut().enumerate() {
                let v = g[x] | (cur[x] & !k[x]);
                changed |= *a | v != *a;
                *a |= v;
            }
        }
        if !changed {
            break;
        }
    }
    let mut live = Bits::new(n, nregs);
    for pcs in &blocks {
        live_out(pcs.end - 1, &live_in, &mut cur);
        for i in pcs.clone().rev() {
            live.row_mut(i).copy_from_slice(&cur);
            step(i, &mut cur);
        }
    }
    live
}

// ---------------------------------------------------------------------------
// Pass 1: constant folding + copy propagation (block-local, forward)
// ---------------------------------------------------------------------------

fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        // Bit equality so folding can't merge 0.0 and -0.0 or lose a NaN.
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

/// Find-or-append a constant; `None` if the pool index space is full.
fn pool_const(consts: &mut Vec<Value>, v: &Value) -> Option<u16> {
    for (i, c) in consts.iter().enumerate() {
        if value_eq(c, v) {
            return Some(i as u16);
        }
    }
    if consts.len() > u16::MAX as usize {
        return None;
    }
    consts.push(v.clone());
    Some((consts.len() - 1) as u16)
}

/// Redirect an instruction's single-register *reads* through the copy
/// map. Argument blocks are never rewritten (the callee moves them out of
/// their slots), and in-place update registers (`IncCmpJump`/`IncJump`
/// `var`, `FmaIdx` accumulator) stay put because they are also defs.
fn rewrite_uses(insn: &mut Insn, copy_of: &HashMap<Reg, Reg>) -> bool {
    let mut changed = false;
    let mut m = |r: &mut Reg| {
        if let Some(&s) = copy_of.get(r) {
            if s != *r {
                *r = s;
                changed = true;
            }
        }
    };
    match insn {
        Insn::Move { src, .. }
        | Insn::NewCell { src, .. }
        | Insn::AddrDeref { src, .. }
        | Insn::Neg { src, .. }
        | Insn::Not { src, .. }
        | Insn::Truthy { src, .. }
        | Insn::Ret { src } => m(src),
        Insn::CellGet { cell, .. } => m(cell),
        Insn::CellSet { cell, src } => {
            m(cell);
            m(src);
        }
        Insn::Deref { ptr, .. } => m(ptr),
        Insn::StorePtr { ptr, src } => {
            m(ptr);
            m(src);
        }
        Insn::ElemAddr { arr, idx, .. }
        | Insn::Index { arr, idx, .. }
        | Insn::IndexOff { arr, idx, .. }
        | Insn::IncElemK { arr, idx, .. } => {
            m(arr);
            m(idx);
        }
        Insn::DerefIndex { cell, idx, .. } | Insn::DerefIndexOff { cell, idx, .. } => {
            m(cell);
            m(idx);
        }
        Insn::DerefIndexSet { cell, idx, src } => {
            m(cell);
            m(idx);
            m(src);
        }
        Insn::FmaGather {
            xcell,
            acell,
            icell,
            idx,
            ..
        } => {
            m(xcell);
            m(acell);
            m(icell);
            m(idx);
        }
        Insn::IndexSet { arr, idx, src } => {
            m(arr);
            m(idx);
            m(src);
        }
        Insn::Arith { a, b, .. } | Insn::Cmp { a, b, .. } | Insn::CmpJumpFalse { a, b, .. } => {
            m(a);
            m(b);
        }
        Insn::ArithK { a, .. } => m(a),
        Insn::ArithKL { b, .. } => m(b),
        Insn::FmaIdx { x, arr, idx, .. } => {
            m(x);
            m(arr);
            m(idx);
        }
        Insn::JumpIfFalse { cond, .. } | Insn::JumpIfTrue { cond, .. } => m(cond),
        Insn::IncCmpJump { limit, .. } => m(limit),
        Insn::WsNext { ws, .. } => m(ws),
        Insn::CallValue { callee, .. } => m(callee),
        _ => {}
    }
    changed
}

/// If `insn` is a pure register-only scalar op, return it with `dst`
/// zeroed (the available-expression key) plus the real `dst`. Indexing is
/// deliberately excluded: array contents can change between occurrences.
/// Reusing the first occurrence's result is error-safe for `Div`/`Rem`
/// too — if the first evaluation succeeded, an identical re-evaluation
/// cannot fail.
fn cse_key(insn: &Insn) -> Option<(Insn, Reg)> {
    let mut key = *insn;
    let dst = match &mut key {
        Insn::Arith { dst, .. }
        | Insn::ArithK { dst, .. }
        | Insn::ArithKL { dst, .. }
        | Insn::Cmp { dst, .. }
        | Insn::Neg { dst, .. }
        | Insn::Not { dst, .. }
        | Insn::Truthy { dst, .. } => std::mem::replace(dst, 0),
        _ => return None,
    };
    Some((key, dst))
}

// Index loops throughout: the body reads `f.code[i]` while growing
// `f.consts` (folding) and consulting positionally-keyed side tables, so
// iterator forms would fight the borrow checker for no clarity gain.
#[allow(clippy::needless_range_loop)]
/// Per-function counts of what the optimization pipeline did, reported
/// through `zag --remarks` (`remarks::collect`). Instruction-granular:
/// `folded` counts rewrites by constant folding / copy propagation,
/// `cse` pure ops replaced with a copy of an earlier identical result,
/// `dse` dead stores removed, `fused` instructions eliminated by
/// superinstruction fusion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    pub folded: u32,
    pub cse: u32,
    pub dse: u32,
    pub fused: u32,
}

impl OptStats {
    pub fn any(&self) -> bool {
        self.folded + self.cse + self.dse + self.fused > 0
    }
}

fn fold_and_copyprop(f: &mut CompiledFn, stats: &mut OptStats) -> bool {
    let lead = leaders(&f.code);
    let mut changed = false;
    let mut copy_of: HashMap<Reg, Reg> = HashMap::new();
    let mut const_of: HashMap<Reg, u16> = HashMap::new();
    let mut avail: Vec<(Insn, Reg)> = Vec::new();
    let mut defs: Vec<Reg> = Vec::new();
    for (i, &is_lead) in lead.iter().enumerate() {
        if is_lead {
            copy_of.clear();
            const_of.clear();
            avail.clear();
        }
        let mut insn = f.code[i];
        rewrite_uses(&mut insn, &copy_of);
        // Folding: only when evaluation succeeds, so ops that would raise
        // at runtime (`1/0`) keep their instruction and their error.
        match insn {
            Insn::Arith { op, dst, a, b } => {
                if let (Some(&ka), Some(&kb)) = (const_of.get(&a), const_of.get(&b)) {
                    let (ca, cb) = (&f.consts[ka as usize], &f.consts[kb as usize]);
                    if let Ok(v) = binop_arith(arith_token(op), ca, cb) {
                        if let Some(k) = pool_const(&mut f.consts, &v) {
                            insn = Insn::Const { dst, k };
                        }
                    }
                }
            }
            Insn::Cmp { op, dst, a, b } => {
                if let (Some(&ka), Some(&kb)) = (const_of.get(&a), const_of.get(&b)) {
                    let (ca, cb) = (&f.consts[ka as usize], &f.consts[kb as usize]);
                    if let Ok(v) = binop(cmp_token(op), ca, cb) {
                        if let Some(k) = pool_const(&mut f.consts, &v) {
                            insn = Insn::Const { dst, k };
                        }
                    }
                }
            }
            Insn::Neg { dst, src } => {
                if let Some(&ks) = const_of.get(&src) {
                    let v = match &f.consts[ks as usize] {
                        Value::Int(v) => Some(Value::Int(v.wrapping_neg())),
                        Value::Float(v) => Some(Value::Float(-v)),
                        _ => None,
                    };
                    if let Some(k) = v.and_then(|v| pool_const(&mut f.consts, &v)) {
                        insn = Insn::Const { dst, k };
                    }
                }
            }
            Insn::Not { dst, src } => {
                if let Some(&ks) = const_of.get(&src) {
                    if let Ok(t) = f.consts[ks as usize].truthy() {
                        if let Some(k) = pool_const(&mut f.consts, &Value::Bool(!t)) {
                            insn = Insn::Const { dst, k };
                        }
                    }
                }
            }
            Insn::Truthy { dst, src } => {
                if let Some(&ks) = const_of.get(&src) {
                    if let Ok(t) = f.consts[ks as usize].truthy() {
                        if let Some(k) = pool_const(&mut f.consts, &Value::Bool(t)) {
                            insn = Insn::Const { dst, k };
                        }
                    }
                }
            }
            // A copy of a known constant becomes a `Const` of its own —
            // this is what exposes `ArithK` fusion across moves.
            Insn::Move { dst, src } => {
                if let Some(&k) = const_of.get(&src) {
                    insn = Insn::Const { dst, k };
                }
            }
            _ => {}
        }
        // Local CSE: a pure scalar op whose exact operands were already
        // computed this block becomes a copy of the earlier result. (The
        // `i % 4` recomputed on both sides of `h[i % 4] = h[i % 4] + 1`
        // is what stands between that store and `IncElemK` fusion.)
        let mut new_avail: Option<(Insn, Reg)> = None;
        let mut cse_hit = false;
        if let Some((key, dst)) = cse_key(&insn) {
            if let Some(&(_, src)) = avail.iter().find(|(k2, _)| *k2 == key) {
                if src != dst {
                    insn = Insn::Move { dst, src };
                    cse_hit = true;
                }
            } else {
                // Only record when `dst` is not an operand: the key names
                // pre-execution values, which a self-update invalidates.
                let mut self_ref = false;
                visit_uses(&insn, |u| self_ref |= u == dst);
                if !self_ref {
                    new_avail = Some((key, dst));
                }
            }
        }
        if insn != f.code[i] {
            f.code[i] = insn;
            changed = true;
            if cse_hit {
                stats.cse += 1;
            } else {
                stats.folded += 1;
            }
        }
        // Map maintenance: kill everything the instruction defines, then
        // record what it establishes.
        defs.clear();
        visit_defs(&insn, |d| defs.push(d));
        for &d in &defs {
            copy_of.remove(&d);
            const_of.remove(&d);
        }
        copy_of.retain(|_, s| !defs.contains(s));
        avail.retain(|(key, r)| {
            if defs.contains(r) {
                return false;
            }
            let mut stale = false;
            visit_uses(key, |u| stale |= defs.contains(&u));
            !stale
        });
        if let Some(entry) = new_avail {
            avail.push(entry);
        }
        match insn {
            Insn::Const { dst, k } => {
                const_of.insert(dst, k);
            }
            Insn::Move { dst, src } if dst != src => {
                copy_of.insert(dst, src);
            }
            _ => {}
        }
    }
    changed
}

// ---------------------------------------------------------------------------
// Pass 2: dead-store elimination
// ---------------------------------------------------------------------------

/// Remove self-moves, each `jump` to the next kept instruction and, given
/// a liveness, side-effect-free stores (`Const`, `Move`) whose destination
/// is dead, then compact jump targets. An installed loop's span is never
/// touched, and each descriptor's exit and replaced head are compacted
/// with the code ([`remap`]).
// Index loops: `keep`/`map`/`f.code` are parallel positional tables.
#[allow(clippy::needless_range_loop)]
pub(crate) fn dse(f: &mut CompiledFn, live: Option<&Live>) -> bool {
    let n = f.code.len();
    let span = installed_spans(f);
    let mut keep = vec![true; n];
    let mut changed = false;
    for i in 0..n {
        let dead = !span[i]
            && match f.code[i] {
                Insn::Move { dst, src } => dst == src || live.is_some_and(|l| !l.has(i, dst)),
                Insn::Const { dst, .. } => live.is_some_and(|l| !l.has(i, dst)),
                _ => false,
            };
        if dead {
            keep[i] = false;
            changed = true;
        }
    }
    // Backwards, so a jump over a run that ends in a dropped jump goes too.
    for i in (0..n).rev() {
        if let Insn::Jump { to } = f.code[i] {
            if !span[i] && to as usize > i && (i + 1..to as usize).all(|j| !keep[j]) {
                keep[i] = false;
                changed = true;
            }
        }
    }
    if !changed {
        return false;
    }
    let mut map = vec![0u32; n + 1];
    let mut kept = 0u32;
    for i in 0..n {
        map[i] = kept;
        if keep[i] {
            kept += 1;
        }
    }
    map[n] = kept;
    let mut out = Vec::with_capacity(kept as usize);
    for i in 0..n {
        if keep[i] {
            out.push(f.code[i]);
        }
    }
    f.code = out;
    remap(f, &map);
    true
}

/// Send every jump target of `f`, and each installed loop's exit and
/// replaced head, through an old→new pc map.
pub(crate) fn remap(f: &mut CompiledFn, map: &[u32]) {
    for insn in &mut f.code {
        retarget(insn, map);
    }
    for d in &mut f.kernels {
        d.exit = map[d.exit as usize];
        retarget(&mut d.orig, map);
    }
    for d in &mut f.templates {
        d.exit = map[d.exit as usize];
        retarget(&mut d.orig, map);
    }
}

// ---------------------------------------------------------------------------
// Pass 3: superinstruction fusion
// ---------------------------------------------------------------------------

/// `true` when the value the pattern left in `t` is unobservable: `t` is
/// redefined by the fused instruction itself, or not live after old
/// instruction index `at`.
fn consumed(t: Reg, redef: Reg, live: &Live, at: usize) -> bool {
    t == redef || !live.has(at, t)
}

fn no_leader(lead: &[bool], i: usize, len: usize) -> bool {
    (1..len).all(|d| !lead[i + d])
}

/// The signed immediate of `+ k` / `- k` (`op` `Add` or `Sub`) for
/// `IndexOff` / `IncJump`: `k` a small non-negative integer constant,
/// negated for `-`. The slow path rebuilds the source operator from the
/// sign, so a negative constant and `- 0` (which would replay as `+ 0`
/// and name `+` in a type error) are refused.
fn signed_imm(consts: &[Value], op: ArithOp, k: u16) -> Option<i32> {
    match (consts.get(k as usize)?, op) {
        (&Value::Int(v), ArithOp::Add) if (0..=i32::MAX as i64).contains(&v) => Some(v as i32),
        (&Value::Int(v), _) if (1..=i32::MAX as i64).contains(&v) => Some(-v as i32),
        _ => None,
    }
}

/// Try to fuse the instruction window starting at `i`; returns the fused
/// instruction and how many instructions it consumed.
fn try_fuse_at(
    code: &[Insn],
    consts: &[Value],
    live: &Live,
    lead: &[bool],
    i: usize,
) -> Option<(Insn, usize)> {
    let w = &code[i..];
    // IncElemK: index t1,A[i]; arithk t2,t1,k; indexset A[i],t2
    if let [Insn::Index { dst: t1, arr, idx }, Insn::ArithK { op, dst: t2, a, k }, Insn::IndexSet {
        arr: arr2,
        idx: idx2,
        src,
    }, ..] = *w
    {
        if a == t1
            && src == t2
            && arr2 == arr
            && idx2 == idx
            && t1 != arr
            && t1 != idx
            && t2 != arr
            && t2 != idx
            && no_leader(lead, i, 3)
            && consumed(t1, t2, live, i + 1)
            && !live.has(i + 2, t2)
        {
            return Some((Insn::IncElemK { op, arr, idx, k }, 3));
        }
    }
    // FmaIdx: index tp,A[i]; mul tm,x,tp; add s,s,tm
    if let [Insn::Index { dst: tp, arr, idx }, Insn::Arith {
        op: ArithOp::Mul,
        dst: tm,
        a: x,
        b,
    }, Insn::Arith {
        op: ArithOp::Add,
        dst,
        a: acc,
        b: b2,
    }, ..] = *w
    {
        let temps_distinct =
            tp != tm && ![arr, idx, x, dst].contains(&tp) && ![arr, idx, x, dst].contains(&tm);
        if b == tp
            && b2 == tm
            && acc == dst
            && temps_distinct
            && no_leader(lead, i, 3)
            && !live.has(i + 2, tp)
            && !live.has(i + 2, tm)
        {
            return Some((Insn::FmaIdx { dst, x, arr, idx }, 3));
        }
    }
    // FmaGather: dindex t,(X)[i]; deref a,(A); dindex c,(C)[i];
    // fmaidx d += t * a[c] — the matvec body with multiplier, operand and
    // index arrays all shared (the three inner forms are themselves fused
    // in an earlier round). Sound without reordering hazards: the fused
    // arm checks `acell` is a pointer at the original deref position and
    // only defers the (infallible) read.
    if let [Insn::DerefIndex {
        dst: t,
        cell: xcell,
        idx,
    }, Insn::Deref { dst: a, ptr: acell }, Insn::DerefIndex {
        dst: c,
        cell: icell,
        idx: i2,
    }, Insn::FmaIdx {
        dst,
        x,
        arr,
        idx: fi,
    }, ..] = *w
    {
        let operands = [dst, xcell, acell, icell, idx];
        let temps_ok = t != a
            && t != c
            && a != c
            && !operands.contains(&t)
            && !operands.contains(&a)
            && !operands.contains(&c);
        if x == t
            && arr == a
            && fi == c
            && i2 == idx
            && temps_ok
            && no_leader(lead, i, 4)
            && [t, a, c].iter().all(|&r| !live.has(i + 3, r))
        {
            return Some((
                Insn::FmaGather {
                    dst,
                    xcell,
                    acell,
                    icell,
                    idx,
                },
                4,
            ));
        }
    }
    // DerefIndex: deref t,C; index d,t[i] — the shared-array load with the
    // cell's `Value` never materialised in a register.
    if let [Insn::Deref { dst: t, ptr: cell }, Insn::Index { dst, arr, idx }, ..] = *w {
        if arr == t
            && idx != t
            && t != cell
            && no_leader(lead, i, 2)
            && consumed(t, dst, live, i + 1)
        {
            return Some((Insn::DerefIndex { dst, cell, idx }, 2));
        }
    }
    // DerefIndexOff: deref t,C; indexoff d,t[j+off]
    if let [Insn::Deref { dst: t, ptr: cell }, Insn::IndexOff { dst, arr, idx, off }, ..] = *w {
        if arr == t
            && idx != t
            && t != cell
            && no_leader(lead, i, 2)
            && consumed(t, dst, live, i + 1)
        {
            return Some((
                Insn::DerefIndexOff {
                    dst,
                    cell,
                    idx,
                    off,
                },
                2,
            ));
        }
    }
    // DerefIndexSet: deref t,C; indexset t[i],src
    if let [Insn::Deref { dst: t, ptr: cell }, Insn::IndexSet { arr, idx, src }, ..] = *w {
        if arr == t
            && idx != t
            && src != t
            && t != cell
            && no_leader(lead, i, 2)
            && !live.has(i + 1, t)
        {
            return Some((Insn::DerefIndexSet { cell, idx, src }, 2));
        }
    }
    // IndexOff: arithk t,j±k; index d,A[t]
    if let [Insn::ArithK {
        op: op @ (ArithOp::Add | ArithOp::Sub),
        dst: t,
        a: j,
        k,
    }, Insn::Index { dst, arr, idx }, ..] = *w
    {
        if idx == t && j != t && t != arr && no_leader(lead, i, 2) && consumed(t, dst, live, i + 1)
        {
            if let Some(off) = signed_imm(consts, op, k) {
                return Some((
                    Insn::IndexOff {
                        dst,
                        arr,
                        idx: j,
                        off,
                    },
                    2,
                ));
            }
        }
    }
    // IncJump: arithk v,v,±k; jump
    if let [Insn::ArithK {
        op: op @ (ArithOp::Add | ArithOp::Sub),
        dst: v,
        a,
        k,
    }, Insn::Jump { to }, ..] = *w
    {
        if a == v && no_leader(lead, i, 2) {
            if let Some(step) = signed_imm(consts, op, k) {
                return Some((Insn::IncJump { var: v, step, to }, 2));
            }
        }
    }
    // ArithK / ArithKL: const t,k; arith d,a,b with t as one operand
    if let [Insn::Const { dst: t, k }, Insn::Arith { op, dst, a, b }, ..] = *w {
        if no_leader(lead, i, 2) && consumed(t, dst, live, i + 1) {
            if b == t && a != t {
                return Some((Insn::ArithK { op, dst, a, k }, 2));
            }
            if a == t && b != t {
                return Some((Insn::ArithKL { op, dst, k, b }, 2));
            }
        }
    }
    // Builtin/print argument forwarding for single-argument calls: the
    // callee only *reads* a 1-slot block, so the block can alias the
    // source register directly.
    if let [Insn::Move { dst: t, src }, Insn::Builtin {
        dst,
        op,
        name_k,
        base,
        n: 1,
    }, ..] = *w
    {
        if base == t && src != t && no_leader(lead, i, 2) && consumed(t, dst, live, i + 1) {
            return Some((
                Insn::Builtin {
                    dst,
                    op,
                    name_k,
                    base: src,
                    n: 1,
                },
                2,
            ));
        }
    }
    if let [Insn::Move { dst: t, src }, Insn::Print { base, n: 1 }, ..] = *w {
        if base == t && src != t && no_leader(lead, i, 2) && !live.has(i + 1, t) {
            return Some((Insn::Print { base: src, n: 1 }, 2));
        }
    }
    None
}

// Index loop: `map` entries for consumed window interiors are assigned
// against the moving `out.len()` cursor, not iterated.
#[allow(clippy::needless_range_loop)]
fn fuse(f: &mut CompiledFn, live: &Live) -> bool {
    let lead = leaders(&f.code);
    let n = f.code.len();
    let mut out: Vec<Insn> = Vec::with_capacity(n);
    let mut map = vec![0u32; n + 1];
    let mut i = 0usize;
    let mut changed = false;
    while i < n {
        map[i] = out.len() as u32;
        if let Some((fused, consumed)) = try_fuse_at(&f.code, &f.consts, live, &lead, i) {
            for j in i + 1..i + consumed {
                // Interior indices are never jump targets (no_leader), but
                // keep the map total.
                map[j] = out.len() as u32;
            }
            out.push(fused);
            i += consumed;
            changed = true;
        } else {
            out.push(f.code[i]);
            i += 1;
        }
    }
    map[n] = out.len() as u32;
    if !changed {
        return false;
    }
    for insn in &mut out {
        retarget(insn, &map);
    }
    f.code = out;
    true
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Optimize one function in place at the given level and report what each
/// rewrite did (the data source for `zag --remarks`). `_nfuncs` is unread:
/// ROADMAP 1(b) drops it when `layers.rs` walks [`crate::compile::PASSES`].
pub fn optimize_fn(f: &mut CompiledFn, opt: OptLevel, _nfuncs: usize) -> OptStats {
    let mut stats = OptStats::default();
    if opt == OptLevel::O0 {
        return stats;
    }
    let orig_code = f.code.clone();
    let orig_nconsts = f.consts.len();
    for _ in 0..8 {
        let mut changed = fold_and_copyprop(f, &mut stats);
        let pre_dse = f.code.len();
        let mut live = liveness(f);
        if dse(f, Some(&live)) {
            changed = true;
            live = liveness(f);
        }
        stats.dse += (pre_dse - f.code.len()) as u32;
        let pre_fuse = f.code.len();
        changed |= fuse(f, &live);
        stats.fused += (pre_fuse - f.code.len()) as u32;
        if !changed {
            break;
        }
    }
    if f.code == orig_code {
        // Nothing changed; drop any constants folding may have parked.
        f.consts.truncate(orig_nconsts);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Image;

    /// Lower `src` and, at `O3`, run this module's passes alone (no
    /// inlining or kernel install), so the tests read what the
    /// fuser emitted.
    fn image(src: &str, opt: OptLevel) -> Image {
        let mut img = lowered(src);
        let nfuncs = img.funcs.len();
        for f in &mut img.funcs {
            optimize_fn(f, opt, nfuncs);
        }
        img
    }

    fn lowered(src: &str) -> Image {
        let pre = zomp_front::preprocess(src).expect("preprocess");
        crate::compile::compile_image(&zomp_front::parse(&pre).expect("parse"))
    }

    fn count(image: &Image, name: &str, pred: impl Fn(&Insn) -> bool) -> usize {
        image
            .get(name)
            .expect("fn")
            .code
            .iter()
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn opt0_is_untouched() {
        let src = "fn main() void { var i: i64 = 0; while (i < 10) : (i += 1) { print(i); } }";
        let img = image(src, OptLevel::O0);
        let main = |img: &Image| img.get("main").unwrap().code.clone();
        assert_eq!(main(&img), main(&lowered(src)));
    }

    #[test]
    fn histogram_body_fuses_to_incelem() {
        let src = "fn main() void {
            var h: []i64 = @allocI(4);
            var i: i64 = 0;
            while (i < 100) : (i += 1) {
                h[i % 4] = h[i % 4] + 1;
            }
            print(h[0]);
        }";
        let img = image(src, OptLevel::O3);
        assert!(
            count(&img, "main", |i| matches!(i, Insn::IncElemK { .. })) >= 1,
            "expected IncElemK in:\n{}",
            crate::bytecode::disasm(&img)
        );
    }

    #[test]
    fn matvec_body_fuses_accumulate_chain() {
        let src = "fn main() void {
            var a: []f64 = @allocF(8);
            var p: []f64 = @allocF(8);
            var col: []i64 = @allocI(8);
            var rowstr: []i64 = @allocI(4);
            var s: f64 = 0.0;
            var j: i64 = 0;
            while (j < 3) : (j += 1) {
                var k: i64 = rowstr[j];
                while (k < rowstr[j + 1]) : (k += 1) {
                    s = s + a[k] * p[col[k]];
                }
            }
            print(s);
        }";
        let img = image(src, OptLevel::O3);
        let dis = crate::bytecode::disasm(&img);
        assert!(
            count(&img, "main", |i| matches!(i, Insn::FmaIdx { .. })) >= 1,
            "expected FmaIdx in:\n{dis}"
        );
        assert!(
            count(&img, "main", |i| matches!(i, Insn::IndexOff { .. })) >= 1,
            "expected IndexOff in:\n{dis}"
        );
    }

    /// The CG matvec with `a`, `p`, `col` shared (cell-held in the
    /// outlined function), `x` the multiplier: either a shared array
    /// element or a local.
    fn shared_matvec(x: &str) -> String {
        format!(
            "fn main() void {{
            var a: []f64 = @allocF(4);
            var p: []f64 = @allocF(4);
            var col: []i64 = @allocI(4);
            var q: []f64 = @allocF(1);
            var m: f64 = 0.5;
            a[0] = 1.5; a[1] = 2.5; a[2] = 3.5; a[3] = 4.5;
            p[0] = 2.0; p[1] = 4.0; p[2] = 8.0; p[3] = 16.0;
            col[0] = 3; col[1] = 1; col[2] = 0; col[3] = 2;
            //$omp parallel num_threads(1) shared(a, p, col, q) firstprivate(m)
            {{
                var s: f64 = 0.0;
                var k: i64 = 0;
                while (k < 4) : (k += 1) {{
                    s = s + {x} * p[col[k]];
                }}
                q[0] = s;
            }}
            print(q[0]);
        }}"
        )
    }

    fn run(src: &str, opt: OptLevel) -> Vec<String> {
        let vm = crate::Vm::build(src, None, crate::Backend::Bytecode, opt).expect("build");
        vm.call_function("main", Vec::new()).expect("run");
        vm.output.into_inner()
    }

    #[test]
    fn shared_matvec_body_fuses_straight_to_fmagather() {
        let src = shared_matvec("a[k]");
        let img = image(&src, OptLevel::O3);
        let f = img.get("__omp_outlined_0").unwrap();
        let dis = crate::bytecode::disasm_fn(f);
        let at = f
            .code
            .iter()
            .position(|i| matches!(i, Insn::FmaGather { .. }))
            .unwrap_or_else(|| panic!("expected FmaGather in:\n{dis}"));
        // The whole four-instruction window went: the loop body is the
        // one instruction, its back-edge jumps straight to it.
        assert!(
            matches!(f.code[at + 1], Insn::IncCmpJump { to, .. } if to as usize == at),
            "{dis}"
        );
        assert_eq!(run(&src, OptLevel::O3), run(&src, OptLevel::O0));
    }

    #[test]
    fn local_multiplier_stays_deref_dindex_fmaidx() {
        let src = shared_matvec("m");
        let img = image(&src, OptLevel::O3);
        let f = img.get("__omp_outlined_0").unwrap();
        let dis = crate::bytecode::disasm_fn(f);
        let at = f
            .code
            .iter()
            .position(|i| matches!(i, Insn::FmaIdx { .. }))
            .unwrap_or_else(|| panic!("expected FmaIdx in:\n{dis}"));
        assert!(
            matches!(
                f.code[at - 2..at],
                [Insn::Deref { .. }, Insn::DerefIndex { .. }]
            ),
            "{dis}"
        );
        assert!(
            !f.code.iter().any(|i| matches!(i, Insn::FmaGather { .. })),
            "{dis}"
        );
        assert_eq!(run(&src, OptLevel::O3), run(&src, OptLevel::O0));
    }

    #[test]
    fn incjump_fuses_plain_backedge() {
        // `while` guard with a non-trivial condition keeps the loop out of
        // the IncCmpJump fast shape, leaving a const+arith+jump back-edge.
        let src = "fn main() void {
            var a: []i64 = @allocI(8);
            var i: i64 = 0;
            while (i < a[0] + 8) : (i += 1) { a[1] = i; }
            print(a[1]);
        }";
        let img = image(src, OptLevel::O3);
        let f = img.get("main").unwrap();
        let has_fused_backedge = f
            .code
            .iter()
            .any(|i| matches!(i, Insn::IncJump { .. } | Insn::IncCmpJump { .. }));
        assert!(
            has_fused_backedge,
            "expected a fused back-edge in:\n{}",
            crate::bytecode::disasm_fn(f)
        );
    }

    #[test]
    fn erroring_const_op_is_not_folded() {
        let src = "fn main() void { print(1 / 0); }";
        let img = image(src, OptLevel::O3);
        let f = img.get("main").unwrap();
        assert!(
            f.code.iter().any(|i| matches!(
                i,
                Insn::Arith { .. } | Insn::ArithK { .. } | Insn::ArithKL { .. }
            )),
            "1/0 must stay a runtime op:\n{}",
            crate::bytecode::disasm_fn(f)
        );
    }

    /// `i64::MIN / -1` and `% -1` fold to their wrapped values, as the
    /// interpreter computes them, instead of crashing the compiler.
    #[test]
    fn int_min_div_by_minus_one_folds_to_the_wrapped_value() {
        let src = "fn main() void { var q: i64 = (-9223372036854775807 - 1) / -1; \
                   var r: i64 = (-9223372036854775807 - 1) % -1; print(q, r); }";
        let img = image(src, OptLevel::O3);
        let f = img.get("main").unwrap();
        assert!(
            !f.code.iter().any(|i| matches!(
                i,
                Insn::Arith { .. } | Insn::ArithK { .. } | Insn::ArithKL { .. }
            )),
            "MIN / -1 and MIN % -1 should fold:\n{}",
            crate::bytecode::disasm_fn(f)
        );
        assert!(f.consts.iter().any(|c| value_eq(c, &Value::Int(i64::MIN))));
        assert!(f.consts.iter().any(|c| value_eq(c, &Value::Int(0))));
    }

    #[test]
    fn const_fold_collapses_pure_scalars() {
        let src = "fn main() void { var x: i64 = 2 + 3 * 4; print(x); }";
        let img = image(src, OptLevel::O3);
        let f = img.get("main").unwrap();
        assert!(
            !f.code.iter().any(|i| matches!(i, Insn::Arith { .. })),
            "2 + 3*4 should fold:\n{}",
            crate::bytecode::disasm_fn(f)
        );
        assert!(f.consts.iter().any(|c| value_eq(c, &Value::Int(14))));
    }

    #[test]
    fn verify_rejects_bad_register() {
        let mut img = lowered("fn main() void { print(1); }");
        let fi = img.by_name["main"];
        let f = &mut img.funcs[fi];
        f.code.insert(
            0,
            Insn::Move {
                dst: 0,
                src: f.nregs as Reg,
            },
        );
        assert!(verify_fn(f, 1).is_err());
    }

    /// Liveness rows two words wide (`nregs` 80): the dead `Const` into
    /// r70 goes, the `Const` into r65, read across a block boundary,
    /// stays.
    #[test]
    fn liveness_spans_two_words_per_row() {
        let mut f = CompiledFn {
            name: "wide".to_string(),
            nparams: 0,
            nregs: 80,
            code: vec![
                Insn::Const { dst: 65, k: 0 },
                Insn::Const { dst: 70, k: 0 },
                Insn::Jump { to: 3 },
                Insn::Ret { src: 65 },
            ],
            consts: vec![Value::Int(7)],
            locals: Vec::new(),
            kernels: Vec::new(),
            templates: Vec::new(),
            lcg: false,
        };
        let live = liveness(&f);
        let (r65, r70): (Reg, Reg) = (65, 70);
        assert!(live.has(1, r65) && !live.has(0, r70) && !live.has(1, r70));
        let stats = optimize_fn(&mut f, OptLevel::O3, 1);
        // The dead `const r70` goes, then the jump left pointing at the
        // next instruction.
        assert_eq!(stats.dse, 2);
        assert_eq!(
            f.code,
            [Insn::Const { dst: 65, k: 0 }, Insn::Ret { src: 65 }]
        );
    }
}
