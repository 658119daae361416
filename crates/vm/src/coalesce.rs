//! Constant registers and copy coalescing for the loops that stay
//! interpreted (`--opt=3`, the pass after `install`).
//!
//! Inlining leaves a copy per argument and per `ret`, `var k = f(…)` a
//! copy of the call's result, and lowering a `const` per literal operand
//! (`k % 3 == 0` reloads its `0` every iteration). A register allocator
//! removes both; the interpreter pays one dispatch for each. This pass
//! removes them from the loops the interpreter runs, in three steps over
//! one liveness ([`crate::optimize::liveness`]):
//!
//! 1. **Webs.** The registers of the candidates — the operands of each
//!    `move` in a loop and the destination of each `const` in a loop, none
//!    inside an installed span — are split into their *webs*: the
//!    definitions that reach a common use, joined where the register is
//!    live (a temporary the lowering reuses for unrelated values is
//!    several webs). An instruction that reads and writes one register
//!    keeps one web for both. A web is *pinned* to its register when it is
//!    a function entry value (parameters, the `undefined` of an unwritten
//!    register), when a call's argument block holds it (the block is a
//!    register range), when an installed loop's span reads or writes it,
//!    or when an installed kernel or template names its register at all.
//! 2. **Constant registers.** A web whose definitions are all `const`s of
//!    one scalar literal (`Int`, `Float`, `Bool`), at least one inside a
//!    loop, is not pinned, so each of its uses is an ordinary operand. Its
//!    definitions are deleted and its uses read one fresh register per
//!    literal, loaded once in a prologue at pc 0 (ahead of any back-edge
//!    target, since every pc moves past it).
//! 3. **Copy coalescing.** For each `move d, s` in a loop, innermost loops
//!    first, the class of `s` moves onto the register of `d` (or the class
//!    of `d` onto that of `s`) when it is not pinned and interferes with no
//!    class already on that register. Two webs interfere when one is live
//!    after an instruction that writes the other, a copy between them
//!    excepted. The copy becomes a self-move.
//!
//! [`dse`] then drops the self-moves and each `jump` left pointing at the
//! next instruction (not dead stores: the liveness is stale once registers
//! are renamed), and compacts the jump targets, each kernel and template
//! exit and each replaced head with them ([`crate::optimize::remap`]). Each template's normal-exit
//! write-backs are pruned to the registers live at its exit
//! ([`crate::templates::TemplateDesc::prune_outs`]).
//!
//! **Why after `install`.** The kernel matchers and the template decoder
//! read exact instruction shapes, and every installed loop's replay
//! contract was proved on its stream. Running after them, and leaving
//! every installed span and every register it touches alone, keeps those
//! streams byte-identical but for their jump targets. The pass touches
//! only what the interpreter runs.

use std::collections::HashMap;

use crate::bytecode::{CompiledFn, Image, Insn, Operand, Reg};
use crate::compile::CKey;
use crate::optimize::{
    block_leaders, blocks, dse, installed_spans, jump_target, liveness_of, map_regs, remap, succs,
    visit_defs, Bits, Effects, Live,
};
use crate::value::Value;

/// Largest `instructions × candidate registers` a function may have for
/// the pass to rewrite it, and a 32nd of the largest `webs × webs`: the
/// web table and the provisional web ids hold one `u32` per cell and the
/// two web matrices one bit per pair of webs, 4 MB each at most.
const MAX_CELLS: usize = 1 << 20;

/// Untracked register.
const NONE: u32 = u32::MAX;

/// Run the pass on every function of the image.
pub(crate) fn coalesce_image(image: &mut Image) {
    for f in &mut image.funcs {
        coalesce_fn(f);
    }
}

/// The webs of the tracked registers of one function. Web ids below
/// `regs.len()` are the tracked registers' entry values; id
/// `regs.len() + j` is definition `defs[j]`.
struct Webs {
    /// The tracked registers, each register's index among them, and
    /// their set as a one-row matrix.
    regs: Vec<Reg>,
    index: Vec<u32>,
    mask: Bits,
    /// Every (pc, register) an instruction writes of a tracked register.
    defs: Vec<(u32, Reg)>,
    /// Union-find parents, then (after [`Webs::build`]) each id's root.
    root: Vec<u32>,
    /// The web of each tracked register as an operand of each pc, a row
    /// per pc: what the pc writes there, else what the register holds
    /// before it (so also what it holds after it).
    at: Vec<u32>,
}

impl Webs {
    fn find(&mut self, mut x: u32) -> u32 {
        while self.root[x as usize] != x {
            let up = self.root[self.root[x as usize] as usize];
            self.root[x as usize] = up;
            x = up;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (a, b) = (self.find(a), self.find(b));
        self.root[a.max(b) as usize] = a.min(b);
    }

    /// The web of register `r` as an operand of instruction `pc`; `None`
    /// for an untracked register.
    fn at(&self, pc: usize, r: Reg) -> Option<u32> {
        match *self.index.get(r as usize)? {
            NONE => None,
            i => Some(self.at[pc * self.regs.len() + i as usize]),
        }
    }

    /// The register web `x` lives in before any renaming.
    fn reg(&self, x: u32) -> Reg {
        let t = self.regs.len();
        match (x as usize).checked_sub(t) {
            Some(j) => self.defs[j].1,
            None => self.regs[x as usize],
        }
    }

    /// Call `f` with each tracked register set in `row`.
    fn each_in(&self, row: &[u64], f: impl FnMut(Reg)) {
        each_one(row, self.mask.row(0), f)
    }

    /// Find the webs of the registers in `regs` in one forward walk per
    /// block. Each definition starts a web, and each block entry a
    /// provisional one per live-in register, joined with what each
    /// predecessor's end holds there; an instruction that reads and writes
    /// a register joins the two. The entry values flow into pc 0, and into
    /// every block no path from pc 0 reaches, so what such code reads
    /// stays pinned.
    fn build(f: &CompiledFn, live: &Live, eff: &Effects, regs: Vec<Reg>) -> Webs {
        let (n, t) = (f.code.len(), regs.len());
        let mut index = vec![NONE; f.nregs];
        let mut mask = Bits::new(1, f.nregs);
        for (i, &r) in regs.iter().enumerate() {
            index[r as usize] = i as u32;
            mask.set(0, r);
        }
        let mut webs = Webs {
            root: Vec::new(),
            regs,
            index,
            mask,
            defs: Vec::new(),
            at: vec![0; n * t],
        };
        let mask = webs.mask.row(0).to_vec();
        let ndefs: u32 = (0..n)
            .flat_map(|pc| eff.writes.row(pc).iter().zip(&mask))
            .map(|(a, m)| (a & m).count_ones())
            .sum();
        let (blocks, block_of) = blocks(f);
        let nb = blocks.len();
        // Block `b`'s successors: `succ[first[b]..first[b + 1]]`.
        let (mut succ, mut first, mut buf) = (Vec::new(), vec![0], Vec::new());
        for pcs in &blocks {
            succs(f, pcs.end - 1, &mut buf);
            succ.extend_from_slice(&buf);
            first.push(succ.len());
        }
        let mut reached = vec![false; nb];
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if !std::mem::replace(&mut reached[b], true) {
                stack.extend(succ[first[b]..first[b + 1]].iter().map(|&s| block_of[s]));
            }
        }
        // Ids: entry values, definitions, then block `b`'s provisional
        // web of tracked register `i` at `t + defs + b * t + i`.
        let phi = t + ndefs as usize;
        webs.root = (0..(phi + nb * t) as u32).collect();
        webs.defs.reserve(ndefs as usize);
        let mut cur = vec![0u32; t];
        for b in 0..nb {
            for (i, c) in cur.iter_mut().enumerate() {
                *c = i as u32;
                if eff.live_in(live, blocks[b].start, webs.regs[i]) {
                    *c = (phi + b * t + i) as u32;
                    if b == 0 || !reached[b] {
                        webs.union(*c, i as u32);
                    }
                }
            }
            for pc in blocks[b].clone() {
                each_one(eff.writes.row(pc), &mask, |r| {
                    let (i, def) = (
                        webs.index[r as usize] as usize,
                        (t + webs.defs.len()) as u32,
                    );
                    webs.defs.push((pc as u32, r));
                    if eff.reads.has(pc, r) {
                        webs.union(cur[i], def);
                    }
                    cur[i] = def;
                });
                webs.at[pc * t..(pc + 1) * t].copy_from_slice(&cur);
            }
            for &s in &succ[first[b]..first[b + 1]] {
                let sb = block_of[s];
                for (i, &c) in cur.iter().enumerate() {
                    if eff.live_in(live, s, webs.regs[i]) {
                        webs.union(c, (phi + sb * t + i) as u32);
                    }
                }
            }
        }
        for x in 0..webs.root.len() as u32 {
            let r = webs.find(x);
            webs.root[x as usize] = r;
        }
        for at in &mut webs.at {
            *at = webs.root[*at as usize];
        }
        // Every provisional web holds an entry value or a definition,
        // whose ids are smaller and so its root.
        webs.root.truncate(phi);
        webs
    }
}

/// Call `f` with each register set in both `row` and `mask`.
fn each_one(row: &[u64], mask: &[u64], mut f: impl FnMut(Reg)) {
    for (k, (&a, &m)) in row.iter().zip(mask).enumerate() {
        let mut rest = a & m;
        while rest != 0 {
            f((64 * k) as Reg + rest.trailing_zeros() as Reg);
            rest &= rest - 1;
        }
    }
}

/// Rewrite one function; see the module docs.
pub(crate) fn coalesce_fn(f: &mut CompiledFn) {
    let n = f.code.len();
    if n == 0 || f.nregs == 0 {
        return;
    }
    let span = installed_spans(f);
    // Loop depth of every pc: the back-edges whose range holds it.
    let mut depth = vec![0u32; n];
    for (j, insn) in f.code.iter().enumerate() {
        if let Some(t) = jump_target(insn).filter(|&t| t as usize <= j) {
            depth[t as usize..=j].iter_mut().for_each(|d| *d += 1);
        }
    }
    // The candidates and the registers they name.
    let mut tracked = vec![false; f.nregs];
    let mut cands = Vec::new();
    for (pc, insn) in f.code.iter().enumerate() {
        if span[pc] || depth[pc] == 0 {
            continue;
        }
        match *insn {
            Insn::Move { dst, src } if dst != src => {
                tracked[dst as usize] = true;
                tracked[src as usize] = true;
                cands.push(pc);
            }
            Insn::Const { dst, k } if is_scalar(&f.consts[k as usize]) => {
                tracked[dst as usize] = true;
                cands.push(pc);
            }
            _ => {}
        }
    }
    if cands.is_empty() && f.templates.is_empty() {
        return;
    }
    let dataflow = |f: &CompiledFn| {
        let eff = Effects::of(f);
        let live = liveness_of(f, &eff);
        (eff, live)
    };
    let mut flow = None;
    if !f.templates.is_empty() {
        let (eff, live) = flow.insert(dataflow(f));
        for t in 0..f.templates.len() {
            let exit = f.templates[t].exit as usize;
            f.templates[t].prune_outs(|r| eff.live_in(live, exit, r));
        }
    }
    // A candidate can change nothing when its webs are pinned, as seen from
    // registers alone: a copy's source and destination, or a constant's
    // destination, named by an installed loop, or a definition an argument
    // block reads before its block ends or the register is written again.
    let pin_reg = pinned_regs(f);
    let lead = block_leaders(f);
    let fed = |pc: usize, r: Reg| {
        for q in (pc + 1..n).take_while(|&q| !lead[q]) {
            let mut writes = false;
            visit_defs(&f.code[q], |d| writes |= d == r);
            if writes || arg_block(&f.code[q]).is_some_and(|b| b.contains(&r)) {
                return !writes;
            }
        }
        false
    };
    let def_pinned = |pc: usize, d: Reg| pin_reg[d as usize] || fed(pc, d);
    let movable = cands.iter().any(|&pc| match f.code[pc] {
        Insn::Move { dst, src } => !pin_reg[src as usize] || !def_pinned(pc, dst),
        Insn::Const { dst, .. } => !def_pinned(pc, dst),
        _ => unreachable!("a candidate is a copy or a constant"),
    });
    let regs: Vec<Reg> = (0..f.nregs as Reg)
        .filter(|&r| tracked[r as usize])
        .collect();
    if !movable || n.saturating_mul(regs.len()) > MAX_CELLS {
        return;
    }
    let (eff, live) = flow.unwrap_or_else(|| dataflow(f));
    let webs = Webs::build(f, &live, &eff, regs);
    let fits = webs.root.len().pow(2) <= MAX_CELLS * 32;
    if fits && rewrite(f, &webs, &live, &eff, &span, &depth, &pin_reg) {
        dse(f, None);
    }
}

/// The registers an installed kernel or template names.
fn pinned_regs(f: &CompiledFn) -> Vec<bool> {
    let mut pin = vec![false; f.nregs];
    for d in &f.kernels {
        d.visit_regs(|r| pin[r as usize] = true);
    }
    for d in &f.templates {
        d.visit_regs(|r| pin[r as usize] = true);
    }
    pin
}

/// The register range a call passes its arguments in.
fn arg_block(insn: &Insn) -> Option<std::ops::Range<Reg>> {
    let (mut insn, mut block) = (*insn, None);
    insn.operands(|o| {
        if let Operand::Args { base, n, .. } = o {
            block = Some(*base..*base + n);
        }
    });
    block
}

fn is_scalar(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::Float(_) | Value::Bool(_))
}

/// Steps 1–3 on the webs of `f`: rename every operand to its class's
/// register, turn the constant webs' definitions into self-moves and add
/// the prologue. Returns whether the code changed.
fn rewrite(
    f: &mut CompiledFn,
    webs: &Webs,
    live: &Live,
    eff: &Effects,
    span: &[bool],
    depth: &[u32],
    pin_reg: &[bool],
) -> bool {
    let (n, t) = (f.code.len(), webs.regs.len());
    let nweb = webs.root.len();
    let roots = || (0..nweb as u32).filter(|&x| webs.root[x as usize] == x);

    // Pinned webs.
    let mut pinned = vec![false; nweb];
    for x in 0..t {
        pinned[webs.root[x] as usize] = true;
    }
    for (j, &(_, r)) in webs.defs.iter().enumerate() {
        pinned[webs.root[t + j] as usize] |= pin_reg[r as usize];
    }
    for (pc, insn) in f.code.iter().enumerate() {
        if span[pc] {
            for row in [eff.reads.row(pc), eff.writes.row(pc)] {
                webs.each_in(row, |r| pinned[webs.at(pc, r).unwrap() as usize] = true);
            }
        }
        for x in (arg_block(insn).into_iter().flatten()).filter_map(|r| webs.at(pc, r)) {
            pinned[x as usize] = true;
        }
    }

    // Constant registers: a web of `const`s of one scalar literal, one of
    // them in a loop.
    let mut literal: Vec<Option<Option<u16>>> = vec![None; nweb];
    let mut looped = vec![false; nweb];
    for (j, &(pc, _)) in webs.defs.iter().enumerate() {
        let x = webs.root[t + j] as usize;
        looped[x] |= depth[pc as usize] > 0;
        let k = match f.code[pc as usize] {
            Insn::Const { k, .. } if is_scalar(&f.consts[k as usize]) => Some(k),
            _ => None,
        };
        let key = |k: u16| CKey::of(&f.consts[k as usize]);
        literal[x] = match (literal[x], k) {
            (None, k) => Some(k),
            (Some(Some(a)), Some(b)) if key(a) == key(b) => Some(Some(a)),
            _ => Some(None),
        };
    }
    let mut kreg: HashMap<CKey, Reg> = HashMap::new();
    let mut prologue: Vec<Insn> = Vec::new();
    // The register each class lives in; a `gone` web is a constant's.
    let mut reg_of: Vec<Reg> = (0..nweb as u32).map(|x| webs.reg(x)).collect();
    let mut gone = vec![false; nweb];
    for x in roots() {
        let x = x as usize;
        let (Some(Some(k)), false, true) = (literal[x], pinned[x], looped[x]) else {
            continue;
        };
        let next = f.nregs + prologue.len();
        let key = CKey::of(&f.consts[k as usize]);
        let r = match kreg.get(&key) {
            Some(&r) => r,
            None if next <= Reg::MAX as usize => {
                let dst = next as Reg;
                prologue.push(Insn::Const { dst, k });
                kreg.insert(key, dst);
                dst
            }
            None => continue,
        };
        reg_of[x] = r;
        gone[x] = true;
    }

    // Interference: each definition against the webs live after it.
    let mut adj = Bits::new(nweb, nweb);
    for pc in 0..n {
        let copied = match f.code[pc] {
            Insn::Move { src, .. } => webs.at(pc, src),
            _ => None,
        };
        webs.each_in(eff.writes.row(pc), |r| {
            let d = webs.at(pc, r).unwrap();
            webs.each_in(live.row(pc), |s| {
                let y = webs.at(pc, s).unwrap();
                if y != d && Some(y) != copied {
                    adj.set(d as usize, y);
                    adj.set(y as usize, d);
                }
            });
        });
    }

    // Copy coalescing over classes of webs, innermost loops first.
    let mut class: Vec<u32> = (0..nweb as u32).collect();
    let mut members = Bits::new(nweb, nweb);
    let mut on_reg: Vec<Vec<u32>> = vec![Vec::new(); f.nregs];
    for x in roots() {
        members.set(x as usize, x);
        if !gone[x as usize] {
            on_reg[reg_of[x as usize] as usize].push(x);
        }
    }
    let mut moves: Vec<(u32, usize, u32, u32)> = (0..n)
        .filter(|&pc| !span[pc] && depth[pc] > 0)
        .filter_map(|pc| match f.code[pc] {
            Insn::Move { dst, src } if dst != src => {
                Some((depth[pc], pc, webs.at(pc, dst)?, webs.at(pc, src)?))
            }
            _ => None,
        })
        .collect();
    moves.sort_by_key(|&(d, pc, ..)| (std::cmp::Reverse(d), pc));
    for (_, _, dw, sw) in moves {
        let (cs, cd) = (class[sw as usize], class[dw as usize]);
        if cs == cd || gone[cs as usize] || gone[cd as usize] {
            continue;
        }
        for (from, to) in [(cs, cd), (cd, cs)] {
            let r = reg_of[to as usize] as usize;
            let row = adj.row(from as usize);
            let fits = !pinned[from as usize]
                && on_reg[r].iter().all(|&c| {
                    c == from
                        || row
                            .iter()
                            .zip(members.row(c as usize))
                            .all(|(a, m)| a & m == 0)
                });
            if !fits {
                continue;
            }
            on_reg[reg_of[from as usize] as usize].retain(|&c| c != from);
            adj.merge(to as usize, from as usize);
            members.merge(to as usize, from as usize);
            class
                .iter_mut()
                .filter(|c| **c == from)
                .for_each(|c| *c = to);
            break;
        }
    }

    // Rename every operand to its class's register; a constant web's
    // definitions become self-moves for `dse`.
    let reg = |x: u32| reg_of[class[x as usize] as usize];
    let mut changed = false;
    for pc in (0..n).filter(|&pc| !span[pc]) {
        let mut insn = f.code[pc];
        match insn {
            Insn::Const { dst, .. } if webs.at(pc, dst).is_some_and(|x| gone[x as usize]) => {
                let r = reg(webs.at(pc, dst).unwrap());
                insn = Insn::Move { dst: r, src: r };
            }
            _ => map_regs(&mut insn, |r| webs.at(pc, r).map_or(r, reg)),
        }
        changed |= insn != f.code[pc];
        f.code[pc] = insn;
    }
    if !prologue.is_empty() {
        let m = prologue.len() as u32;
        let map: Vec<u32> = (0..=n as u32).map(|p| p + m).collect();
        remap(f, &map);
        f.code.splice(0..0, prologue);
        f.nregs += m as usize;
        changed = true;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loop of `k` copies `move r(2i+1), r(2i)` whose results nothing
    /// reads.
    fn copies(k: usize) -> CompiledFn {
        let mut code: Vec<Insn> = (0..k)
            .map(|i| Insn::Move {
                dst: (2 * i + 1) as Reg,
                src: (2 * i) as Reg,
            })
            .collect();
        code.push(Insn::Jump { to: 0 });
        CompiledFn {
            name: "copies".to_string(),
            nparams: 0,
            nregs: 2 * k,
            code,
            consts: Vec::new(),
            locals: Vec::new(),
            kernels: Vec::new(),
            templates: Vec::new(),
            lcg: false,
        }
    }

    /// Below the size limit every copy coalesces away; above it the
    /// function is left as it is.
    #[test]
    fn a_function_over_the_size_limit_is_left_as_it_is() {
        let mut small = copies(4);
        coalesce_fn(&mut small);
        assert_eq!(small.code, [Insn::Jump { to: 0 }]);
        let k = 1024;
        assert!((k + 1) * 2 * k > MAX_CELLS);
        let mut big = copies(k);
        let before = big.code.clone();
        coalesce_fn(&mut big);
        assert_eq!(big.code, before);
    }
}
