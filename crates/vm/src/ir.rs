//! Block-structured view of a compiled function.
//!
//! The emitter produces a flat instruction stream; every analysis
//! that wants control-flow structure (type inference in
//! [`crate::typeck`], the loop matchers in [`crate::kernels`], the
//! `--dump-ir` pretty-printer) lifts it into basic blocks through
//! this module instead of re-deriving leaders ad hoc. The lift is a
//! view, not a new encoding: blocks are index ranges into
//! `CompiledFn::code`, so there is nothing to lower back — rewrites
//! happen in place on the flat stream and stay valid as long as they
//! do not move instructions (the kernel and template installers only
//! overwrite single slots).

use crate::bytecode::{insn_text, CompiledFn, Image};
use crate::optimize::{falls_through, jump_target, leaders};
use crate::typeck::{self, Ty};

/// One basic block: the half-open instruction range plus its CFG
/// edges (as block indices).
pub struct Block {
    /// First instruction (inclusive).
    pub start: usize,
    /// Last instruction (inclusive) — the only one that may branch.
    pub end: usize,
    pub succs: Vec<usize>,
    pub preds: Vec<usize>,
}

/// Block-structured view of one function.
pub struct FnIr {
    pub blocks: Vec<Block>,
    /// Owning block index for every pc.
    pub block_of: Vec<usize>,
}

/// Lift a flat instruction stream into basic blocks.
pub fn lift(f: &CompiledFn) -> FnIr {
    let code = &f.code;
    let lead = leaders(code);
    let n = code.len();
    let mut block_of = vec![0usize; n];
    let mut blocks: Vec<Block> = Vec::new();
    for pc in 0..n {
        if lead[pc] {
            blocks.push(Block {
                start: pc,
                end: pc,
                succs: Vec::new(),
                preds: Vec::new(),
            });
        }
        let b = blocks.len() - 1;
        block_of[pc] = b;
        blocks[b].end = pc;
    }
    let ends: Vec<usize> = blocks.iter().map(|b| b.end).collect();
    for (b, &end) in ends.iter().enumerate() {
        let insn = &code[end];
        let succ = |pc: usize, blocks: &mut Vec<Block>| {
            let s = block_of[pc];
            if !blocks[b].succs.contains(&s) {
                blocks[b].succs.push(s);
                blocks[s].preds.push(b);
            }
        };
        if falls_through(insn) && end + 1 < n {
            succ(end + 1, &mut blocks);
        }
        if let Some(t) = jump_target(insn) {
            succ(t as usize, &mut blocks);
        }
    }
    FnIr { blocks, block_of }
}

/// Render the typed IR for a whole image (`zag --dump-ir`): each
/// function as its basic blocks, annotated with the register types
/// inference proves at block entry. Only slots with a useful static
/// type are listed — `dyn`/`undef` slots are elided to keep the dump
/// readable (and the golden test stable against register churn in
/// unrelated slots).
pub fn dump(image: &Image) -> String {
    use std::fmt::Write;
    let types = typeck::infer_image(image);
    let mut out = String::new();
    for (fi, f) in image.funcs.iter().enumerate() {
        let ft = &types.fns[fi];
        let fir = lift(f);
        let _ = writeln!(
            out,
            "fn {} (params {}, regs {}) ret {}",
            f.name,
            f.nparams,
            f.nregs,
            types.rets[fi].name()
        );
        if !f.locals.is_empty() {
            let names: Vec<String> = f
                .locals
                .iter()
                .map(|(r, n, boxed)| format!("r{r}={}{n}", if *boxed { "&" } else { "" }))
                .collect();
            let _ = writeln!(out, "  locals: {}", names.join(" "));
        }
        for (b, blk) in fir.blocks.iter().enumerate() {
            let preds: Vec<String> = blk.preds.iter().map(|p| format!("b{p}")).collect();
            let succs: Vec<String> = blk.succs.iter().map(|s| format!("b{s}")).collect();
            let _ = writeln!(
                out,
                "  block b{b} @{}..{}  preds[{}] succs[{}]",
                blk.start,
                blk.end,
                preds.join(" "),
                succs.join(" ")
            );
            match &ft.entry[b] {
                None => {
                    let _ = writeln!(out, "    unreachable");
                    continue;
                }
                Some(env) => {
                    let typed: Vec<String> = env
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| !matches!(t, Ty::Dynamic | Ty::Undef | Ty::Bottom))
                        .map(|(r, t)| format!("r{r}:{}", t.name()))
                        .collect();
                    if !typed.is_empty() {
                        let _ = writeln!(out, "    types: {}", typed.join(" "));
                    }
                }
            }
            for pc in blk.start..=blk.end {
                let _ = writeln!(out, "    {pc:>4}  {}", insn_text(f, &f.code[pc]));
            }
        }
        out.push('\n');
    }
    out
}
