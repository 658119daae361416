//! The bytecode optimization pipeline (`zag --opt=0|3`).
//!
//! Sits between [`crate::compile`](mod@crate::compile) and
//! [`crate::interp`]: `compile` produces the naive stream (exactly the
//! `--opt=0` behaviour), and this module rewrites each [`CompiledFn`] in
//! place at `--opt=3`. In the image pipeline ([`crate::compile::PASSES`])
//! it runs after [`crate::inline`] and before the native tiers install;
//! [`crate::coalesce`] runs last and reuses its liveness, block leaders,
//! successors, retargeting and dead-store elimination, which know an
//! installed loop head, and its operand readers (`visit_defs`,
//! `map_regs`, `jump_target`). Those readers, like every pass's view of
//! an instruction's registers, constants and jump target, derive from
//! `Insn::operands`. Pass ordering, repeated to a fixpoint:
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

use crate::bytecode::{ArithOp, CompiledFn, Insn, Operand, Reg};
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

/// Visit every register an instruction *reads*, by [`Insn::operands`]:
/// its `Use` and `UseDef` registers and every register of an argument
/// block. `BulkLoop` and `TemplateLoop` report nothing: their registers
/// live in their descriptors, range-checked in [`verify_fn`] and read by
/// liveness through [`visit_live`].
pub(crate) fn visit_uses(insn: &Insn, mut f: impl FnMut(Reg)) {
    let mut insn = *insn;
    insn.operands(|o| match o {
        Operand::Use(r) | Operand::UseDef(r) => f(*r),
        Operand::Args { base, n, .. } => (*base..*base + n).for_each(&mut f),
        _ => {}
    });
}

/// Visit every register an instruction *writes*: its `Def` and `UseDef`
/// registers and a moved argument block, which `call_fn` leaves
/// `Undefined` (`OmpCall` only borrows its block; nothing reads a spent
/// argument temporary, so one rule serves both).
pub(crate) fn visit_defs(insn: &Insn, mut f: impl FnMut(Reg)) {
    let mut insn = *insn;
    insn.operands(|o| match o {
        Operand::Def(r) | Operand::UseDef(r) => f(*r),
        Operand::Args {
            base,
            n,
            moved: true,
        } => (*base..*base + n).for_each(&mut f),
        _ => {}
    });
}

/// Send every register operand of `insn`, read or written, through `f`.
/// An argument block is renamed by its base alone, so a caller renames
/// none of its registers but keeps the whole block in place.
pub(crate) fn map_regs(insn: &mut Insn, mut f: impl FnMut(Reg) -> Reg) {
    insn.operands(|o| match o {
        Operand::Use(r) | Operand::Def(r) | Operand::UseDef(r) | Operand::Args { base: r, .. } => {
            *r = f(*r)
        }
        Operand::Const(_) | Operand::Jump(_) => {}
    });
}

/// The instruction's jump target, if it has one.
pub(crate) fn jump_target(insn: &Insn) -> Option<u32> {
    let (mut insn, mut to) = (*insn, None);
    insn.operands(|o| {
        if let Operand::Jump(t) = o {
            to = Some(*t);
        }
    });
    to
}

/// Rewrite an instruction's jump target through an old→new index map.
pub(crate) fn retarget(insn: &mut Insn, map: &[u32]) {
    insn.operands(|o| {
        if let Operand::Jump(t) = o {
            *t = map[*t as usize];
        }
    });
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
        let to = jump_target(insn);
        if let Some(t) = to {
            l[t as usize] = true;
        }
        let ends_block = to.is_some() || !falls_through(insn);
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
        let (mut fault, mut copy) = (None, *insn);
        copy.operands(|o| {
            let ok = match &o {
                Operand::Use(r) | Operand::Def(r) | Operand::UseDef(r) => (**r as usize) < f.nregs,
                Operand::Args { base, n: an, .. } => **base as usize + *an as usize <= f.nregs,
                Operand::Const(k) => (**k as usize) < f.consts.len(),
                Operand::Jump(t) => (**t as usize) < n,
            };
            if !ok && fault.is_none() {
                fault = Some(operand_fault(o, f.nregs));
            }
        });
        if let Some(what) = fault {
            return bad(pc, what);
        }
        if let Insn::Call { func, .. } = *insn {
            if func as usize >= nfuncs {
                return bad(pc, format!("function index f{func} out of range"));
            }
        }
        // An installed loop carries its registers and exit pc in its
        // descriptor (the instruction itself reports no operands).
        let mut regs = Vec::new();
        let desc = match *insn {
            Insn::BulkLoop { kidx } => Some((
                "kernel",
                kidx,
                f.kernels.get(kidx as usize).map(|d| {
                    d.visit_regs(|r| regs.push(r));
                    d.exit
                }),
            )),
            Insn::TemplateLoop { tidx } => Some((
                "template",
                tidx,
                f.templates.get(tidx as usize).map(|d| {
                    d.visit_regs(|r| regs.push(r));
                    d.exit
                }),
            )),
            _ => None,
        };
        if let Some((what, idx, exit)) = desc {
            let Some(exit) = exit else {
                return bad(pc, format!("{what} index {idx} out of range"));
            };
            if let Some(r) = regs.iter().find(|&&r| r as usize >= f.nregs) {
                let nregs = f.nregs;
                return bad(
                    pc,
                    format!("{what} register r{r} out of range (nregs {nregs})"),
                );
            }
            if exit as usize >= n {
                return bad(pc, format!("{what} exit pc {exit} out of range"));
            }
        }
    }
    if falls_through(&f.code[n - 1]) {
        return bad(n - 1, "stream does not end in a terminator".into());
    }
    Ok(())
}

/// Why operand `o` fails [`verify_fn`] in a frame of `nregs`.
#[cold]
fn operand_fault(o: Operand<'_>, nregs: usize) -> String {
    match o {
        Operand::Use(r) | Operand::Def(r) | Operand::UseDef(r) => {
            format!("register r{r} out of range (nregs {nregs})")
        }
        Operand::Args { base, n, .. } => format!("arg block r{base}..{n} beyond frame"),
        Operand::Const(_) => "constant index out of range".to_string(),
        Operand::Jump(t) => format!("jump target {t} out of range"),
    }
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

/// Redirect an instruction's `Use` registers through the copy map.
/// Argument blocks are never rewritten (the callee moves them out of
/// their slots), and registers updated in place stay put because they
/// are also defs.
fn rewrite_uses(insn: &mut Insn, copy_of: &HashMap<Reg, Reg>) {
    insn.operands(|o| {
        if let Operand::Use(r) = o {
            *r = copy_of.get(r).copied().unwrap_or(*r);
        }
    });
}

/// If `insn` is a pure register-only scalar op, return it with `dst`
/// zeroed (the available-expression key) plus the real `dst`. Indexing is
/// deliberately excluded: array contents can change between occurrences.
/// Reusing the first occurrence's result is error-safe for `Div`/`Rem`
/// too — if the first evaluation succeeded, an identical re-evaluation
/// cannot fail.
fn cse_key(insn: &Insn) -> Option<(Insn, Reg)> {
    let pure = matches!(
        insn,
        Insn::Arith { .. }
            | Insn::ArithK { .. }
            | Insn::ArithKL { .. }
            | Insn::Cmp { .. }
            | Insn::Neg { .. }
            | Insn::Not { .. }
            | Insn::Truthy { .. }
    );
    if !pure {
        return None;
    }
    let (mut key, mut dst) = (*insn, 0);
    key.operands(|o| {
        if let Operand::Def(d) = o {
            dst = std::mem::take(d);
        }
    });
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

    /// One instance of every `Insn` variant, its registers distinct.
    fn every_variant() -> Vec<Insn> {
        use crate::bytecode::{BuiltinOp, CmpOp, OmpFn};
        let (op, cmp) = (ArithOp::Add, CmpOp::Lt);
        vec![
            Insn::Const { dst: 1, k: 0 },
            Insn::Move { dst: 1, src: 2 },
            Insn::NewCell { dst: 1, src: 2 },
            Insn::CellGet { dst: 1, cell: 2 },
            Insn::CellSet { cell: 1, src: 2 },
            Insn::Deref { dst: 1, ptr: 2 },
            Insn::StorePtr { ptr: 1, src: 2 },
            Insn::ElemAddr {
                dst: 1,
                arr: 2,
                idx: 3,
            },
            Insn::AddrDeref { dst: 1, src: 2 },
            Insn::Index {
                dst: 1,
                arr: 2,
                idx: 3,
            },
            Insn::IndexSet {
                arr: 1,
                idx: 2,
                src: 3,
            },
            Insn::Arith {
                op,
                dst: 1,
                a: 2,
                b: 3,
            },
            Insn::Cmp {
                op: cmp,
                dst: 1,
                a: 2,
                b: 3,
            },
            Insn::Neg { dst: 1, src: 2 },
            Insn::Not { dst: 1, src: 2 },
            Insn::Truthy { dst: 1, src: 2 },
            Insn::Jump { to: 0 },
            Insn::JumpIfFalse { cond: 1, to: 0 },
            Insn::JumpIfTrue { cond: 1, to: 0 },
            Insn::CmpJumpFalse {
                op: cmp,
                a: 1,
                b: 2,
                to: 0,
            },
            Insn::IncCmpJump {
                var: 1,
                step: 1,
                limit: 2,
                op: cmp,
                to: 0,
            },
            Insn::ArithK {
                op,
                dst: 1,
                a: 2,
                k: 0,
            },
            Insn::ArithKL {
                op,
                dst: 1,
                k: 0,
                b: 2,
            },
            Insn::IncElemK {
                op,
                arr: 1,
                idx: 2,
                k: 0,
            },
            Insn::FmaIdx {
                dst: 1,
                x: 2,
                arr: 3,
                idx: 4,
            },
            Insn::IndexOff {
                dst: 1,
                arr: 2,
                idx: 3,
                off: 1,
            },
            Insn::IncJump {
                var: 1,
                step: 1,
                to: 0,
            },
            Insn::DerefIndex {
                dst: 1,
                cell: 2,
                idx: 3,
            },
            Insn::DerefIndexOff {
                dst: 1,
                cell: 2,
                idx: 3,
                off: -1,
            },
            Insn::DerefIndexSet {
                cell: 1,
                idx: 2,
                src: 3,
            },
            Insn::FmaGather {
                dst: 1,
                xcell: 2,
                acell: 3,
                icell: 4,
                idx: 5,
            },
            Insn::Call {
                dst: 1,
                func: 0,
                base: 2,
                n: 2,
            },
            Insn::CallValue {
                dst: 1,
                callee: 2,
                base: 3,
                n: 2,
            },
            Insn::OmpCall {
                dst: 1,
                func: OmpFn::Barrier,
                base: 2,
                n: 2,
            },
            Insn::WsNext {
                ws: 1,
                lb: 2,
                ub: 3,
                exit: 0,
            },
            Insn::Builtin {
                dst: 1,
                op: BuiltinOp::Max,
                name_k: 0,
                base: 2,
                n: 2,
            },
            Insn::Print { base: 1, n: 2 },
            Insn::BulkLoop { kidx: 0 },
            Insn::TemplateLoop { tidx: 0 },
            Insn::Trap { msg: 0 },
            Insn::Ret { src: 1 },
            Insn::RetVoid,
        ]
    }

    /// Every register an instruction names, read or written.
    fn regs_of(insn: &Insn) -> std::collections::BTreeSet<Reg> {
        let mut regs = std::collections::BTreeSet::new();
        visit_uses(insn, |r| {
            regs.insert(r);
        });
        visit_defs(insn, |r| {
            regs.insert(r);
        });
        regs
    }

    /// `insn` alone in a frame of `nregs`, with one constant and one
    /// function to name.
    fn verify_alone(insn: Insn, nregs: usize) -> Result<(), String> {
        let f = CompiledFn {
            name: "one".to_string(),
            nparams: 0,
            nregs,
            code: vec![insn, Insn::RetVoid],
            consts: vec![Value::Int(0)],
            locals: Vec::new(),
            kernels: Vec::new(),
            templates: Vec::new(),
            lcg: false,
        };
        verify_fn(&f, 1)
    }

    /// The operand roles, variant by variant: renaming moves exactly the
    /// registers the use and def readers report (an argument block by its
    /// base) and nothing else, and `verify_fn` wants a frame that holds
    /// every one of them.
    #[test]
    fn every_variant_renames_and_verifies_the_registers_it_names() {
        let all = every_variant();
        let kinds: std::collections::HashSet<_> = all.iter().map(std::mem::discriminant).collect();
        assert_eq!((all.len(), kinds.len()), (42, 42));
        for insn in all {
            let regs = regs_of(&insn);
            let mut moved = insn;
            map_regs(&mut moved, |r| r + 10);
            let want: std::collections::BTreeSet<Reg> = regs.iter().map(|r| r + 10).collect();
            assert_eq!(regs_of(&moved), want, "{insn:?}");
            assert_eq!(jump_target(&moved), jump_target(&insn), "{insn:?}");
            let Some(&top) = regs.last() else {
                assert_eq!(moved, insn);
                continue;
            };
            let need = top as usize + 1;
            assert_eq!(verify_alone(moved, need + 10), Ok(()), "{moved:?}");
            assert_eq!(verify_alone(insn, need), Ok(()), "{insn:?}");
            assert!(verify_alone(insn, need - 1).is_err(), "{insn:?}");
        }
    }

    /// The roles the readers single out: a call's argument block is
    /// written (the callee moves it), a builtin's or a print's is not, and
    /// copy propagation rewrites neither a block nor a register the
    /// instruction updates in place.
    #[test]
    fn argument_blocks_and_in_place_registers_keep_their_roles() {
        let defs = |insn: Insn| {
            let mut out = Vec::new();
            visit_defs(&insn, |r| out.push(r));
            out.sort();
            out
        };
        let (op, func) = (crate::bytecode::CmpOp::Lt, crate::bytecode::OmpFn::Barrier);
        let (base, n) = (2, 2);
        assert_eq!(
            defs(Insn::Call {
                dst: 1,
                func: 0,
                base,
                n
            }),
            [1, 2, 3]
        );
        assert_eq!(
            defs(Insn::CallValue {
                dst: 1,
                callee: 4,
                base,
                n
            }),
            [1, 2, 3]
        );
        assert_eq!(
            defs(Insn::OmpCall {
                dst: 1,
                func,
                base,
                n
            }),
            [1, 2, 3]
        );
        let builtin = Insn::Builtin {
            dst: 1,
            op: crate::bytecode::BuiltinOp::Max,
            name_k: 0,
            base,
            n,
        };
        assert_eq!(defs(builtin), [1]);
        assert_eq!(defs(Insn::Print { base, n }), []);

        let copy_of: HashMap<Reg, Reg> = (0..10).map(|r| (r, r + 20)).collect();
        let rewritten = |mut insn: Insn| {
            rewrite_uses(&mut insn, &copy_of);
            insn
        };
        let cases = [
            (
                Insn::IncCmpJump {
                    var: 1,
                    step: 1,
                    limit: 2,
                    op,
                    to: 0,
                },
                Insn::IncCmpJump {
                    var: 1,
                    step: 1,
                    limit: 22,
                    op,
                    to: 0,
                },
            ),
            (
                Insn::IncJump {
                    var: 1,
                    step: 1,
                    to: 0,
                },
                Insn::IncJump {
                    var: 1,
                    step: 1,
                    to: 0,
                },
            ),
            (
                Insn::FmaIdx {
                    dst: 1,
                    x: 2,
                    arr: 3,
                    idx: 4,
                },
                Insn::FmaIdx {
                    dst: 1,
                    x: 22,
                    arr: 23,
                    idx: 24,
                },
            ),
            (
                Insn::FmaGather {
                    dst: 1,
                    xcell: 2,
                    acell: 3,
                    icell: 4,
                    idx: 5,
                },
                Insn::FmaGather {
                    dst: 1,
                    xcell: 22,
                    acell: 23,
                    icell: 24,
                    idx: 25,
                },
            ),
            (
                Insn::WsNext {
                    ws: 1,
                    lb: 2,
                    ub: 3,
                    exit: 0,
                },
                Insn::WsNext {
                    ws: 21,
                    lb: 2,
                    ub: 3,
                    exit: 0,
                },
            ),
            (
                Insn::Call {
                    dst: 1,
                    func: 0,
                    base,
                    n,
                },
                Insn::Call {
                    dst: 1,
                    func: 0,
                    base,
                    n,
                },
            ),
            (
                Insn::CallValue {
                    dst: 1,
                    callee: 4,
                    base,
                    n,
                },
                Insn::CallValue {
                    dst: 1,
                    callee: 24,
                    base,
                    n,
                },
            ),
            (
                Insn::OmpCall {
                    dst: 1,
                    func,
                    base,
                    n,
                },
                Insn::OmpCall {
                    dst: 1,
                    func,
                    base,
                    n,
                },
            ),
            (builtin, builtin),
            (Insn::Print { base, n }, Insn::Print { base, n }),
        ];
        for (insn, want) in cases {
            assert_eq!(rewritten(insn), want, "{insn:?}");
        }
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
