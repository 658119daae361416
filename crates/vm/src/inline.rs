//! Image-level inlining of small leaf callees (`--opt=3`).
//!
//! A [`Insn::Call`] costs a `CallDepth` round trip, a pooled frame filled
//! and cleared, and a fresh activation of the dispatch loop — about twice
//! the work of the three-instruction helper it usually reaches — and it is
//! a boundary no loop matcher looks across. This pass runs once per image,
//! between lowering and [`crate::optimize`], and replaces every direct call
//! of an *eligible* callee by the callee's code, so the per-function passes
//! clean up the seams (copy propagation forwards the parameter moves, DSE
//! drops the dead ones, fusion sees across the old boundary), `typeck`
//! specialises the merged body, and the kernel and template matchers see a
//! loop without a `Call`.
//!
//! **Eligibility** (legality first, then profitability):
//!
//! * the site passes exactly `nparams` arguments — a wrong-arity call must
//!   stay a call so it still fails with the call's error;
//! * the callee is not on a call-graph cycle;
//! * after its own calls were inlined (functions are processed callees
//!   first, so a helper that calls a helper flattens) it is a *loop-free
//!   leaf*: no `Call`/`CallValue`/`OmpCall`, every jump forward, every
//!   instruction one of the straight-line forms in [`renumber`];
//! * it is at most [`MAX_CALLEE_INSNS`] instructions long, counted on the
//!   stream this pass sees (before `optimize` shrinks it);
//! * every register it reads is written first on every path
//!   ([`defined_before_use`]). A real activation starts from a frame of
//!   `Undefined`; an inlined body starts from whatever its last execution
//!   left, so a callee that could observe the difference is refused. This
//!   is checked, not assumed.
//!
//! **The splice.** The callee's registers are renumbered into a range above
//! the caller's own `nregs` (one range per caller, shared by all its sites:
//! a site's body is dead once its result is moved out). Parameters are
//! bound by `move fresh_i, base+i` — a copy, so a callee that reassigns its
//! parameter cannot touch the caller's variable. Constants are merged into
//! the caller's pool. Each `ret src` becomes `move dst, src` plus a jump to
//! the join point — no jump when the `ret` is the last reachable
//! instruction, so a single-exit helper inlines to straight-line code and
//! the enclosing loop stays template-eligible. Unreachable callee
//! instructions (the `retvoid` lowering appends after a final `return`) are
//! dropped, and every jump of the caller is retargeted.
//!
//! The functions themselves stay in the image: `Vm::call_function` by name,
//! function values and `fork_call` targets are untouched. An inlined site is
//! not an activation, so it does not count against `zomp::MAX_CALL_DEPTH`
//! (DESIGN "Inlining" states the contract).

use std::collections::HashMap;
use std::fmt;

use crate::bytecode::{CompiledFn, Image, Insn, PreOpt, Reg};
use crate::compile::CKey;
use crate::optimize::{falls_through, jump_target, retarget, verify_fn, visit_defs, visit_uses};
use crate::value::Value;

/// Longest callee, in instructions before optimization, that is inlined.
/// The template matcher decodes loops of at most `templates::MAX_INSNS`
/// (also 24) instructions, so a longer body could not leave its loop
/// template-eligible anyway. It is this budget, not a name, that keeps
/// NPB's 47-instruction `randlc` a call for the LCG matchers to verify.
pub(crate) const MAX_CALLEE_INSNS: usize = 24;

/// Most instructions inlining may add to one caller. With the shared
/// register range and the pool check in [`room_for`] this keeps `Reg`,
/// constant indices and pcs inside their `u16`/`u16`/`u32` encodings.
const MAX_CALLER_GROWTH: usize = 4096;

/// Why a call stayed a call — the stable slug vocabulary of the
/// `kernel-missed … call boundary` remark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kept {
    /// The callee is longer than [`MAX_CALLEE_INSNS`] (its length).
    OverBudget(usize),
    /// The callee has a back-edge.
    HasLoop,
    /// The callee still calls a program function.
    Calls,
    /// The callee calls into the `omp.*` runtime.
    OmpCall,
    /// The callee is on a call-graph cycle.
    Recursive,
    /// The site passes the wrong number of arguments.
    Arity,
    /// The site calls through a function value.
    Indirect,
    /// The callee may read a register before writing it.
    UninitRead,
    /// The caller reached [`MAX_CALLER_GROWTH`] (or a `u16` limit).
    GrowthCap,
}

impl fmt::Display for Kept {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kept::OverBudget(n) => write!(f, "over-budget ({n} > {MAX_CALLEE_INSNS})"),
            Kept::HasLoop => f.write_str("has-loop"),
            Kept::Calls => f.write_str("calls"),
            Kept::OmpCall => f.write_str("omp-call"),
            Kept::Recursive => f.write_str("recursive"),
            Kept::Arity => f.write_str("arity"),
            Kept::Indirect => f.write_str("indirect"),
            Kept::UninitRead => f.write_str("uninit-read"),
            Kept::GrowthCap => f.write_str("growth-cap"),
        }
    }
}

/// One inlined call site.
pub struct Site {
    pub caller: usize,
    pub callee: usize,
    /// The callee's length when it was inlined.
    pub insns: usize,
    /// The call's pc in the caller's pre-inline (`[pre-opt]`) stream.
    pub pc: usize,
}

/// What the pass did, for `zag --remarks`.
#[derive(Default)]
pub struct InlineData {
    pub sites: Vec<Site>,
    /// Per function: why calls of it stay calls (`None`: inlined wherever
    /// the arity matches and the caller has room).
    verdicts: Vec<Option<Kept>>,
    /// Per function: whether it refused a site for lack of room.
    capped: Vec<bool>,
}

impl InlineData {
    /// Why the `n`-argument call of `callee` in `caller` was not inlined.
    pub fn why_kept(&self, image: &Image, caller: usize, callee: usize, n: u16) -> Option<Kept> {
        if n as usize != image.funcs[callee].nparams {
            return Some(Kept::Arity);
        }
        let capped = self.capped.get(caller).copied().unwrap_or(false);
        (self.verdicts.get(callee).copied().flatten()).or(capped.then_some(Kept::GrowthCap))
    }
}

/// Inline every eligible direct call in the image (see the module docs).
pub(crate) fn inline_image(image: &mut Image) -> InlineData {
    let nfuncs = image.funcs.len();
    let calls: Vec<Vec<usize>> = image
        .funcs
        .iter()
        .map(|f| {
            let mut out: Vec<usize> = f
                .code
                .iter()
                .filter_map(|insn| match *insn {
                    Insn::Call { func, .. } => Some(func as usize),
                    _ => None,
                })
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect();
    let (order, cyclic) = callees_first(&calls);
    let mut data = InlineData {
        sites: Vec::new(),
        verdicts: cyclic
            .iter()
            .map(|&c| c.then_some(Kept::Recursive))
            .collect(),
        capped: vec![false; nfuncs],
    };
    for fi in order {
        if let Some(merged) = inline_into(image, fi, &mut data) {
            let f = &mut image.funcs[fi];
            let pre = PreOpt {
                code: std::mem::replace(&mut f.code, merged.code),
                nconsts: f.consts.len(),
                nregs: f.nregs,
            };
            f.consts = merged.consts;
            f.nregs = merged.nregs;
            f.pre_opt = Some(pre);
            if let Err(e) = verify_fn(f, nfuncs) {
                panic!("inlining produced invalid bytecode: {e}");
            }
        }
        if !cyclic[fi] {
            data.verdicts[fi] = refusal(&image.funcs[fi]);
        }
    }
    data
}

/// The functions in an order that visits every callee before its callers,
/// and which of them sit on a call-graph cycle (Tarjan's SCC algorithm with
/// an explicit stack: components pop callees first, and zagd compiles
/// hostile call chains on a bounded native stack).
fn callees_first(calls: &[Vec<usize>]) -> (Vec<usize>, Vec<bool>) {
    const UNSEEN: usize = usize::MAX;
    let n = calls.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut order = Vec::with_capacity(n);
    let mut cyclic = vec![false; n];
    let mut next = 0usize;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        // (function, next outgoing edge to look at)
        let mut work = vec![(root, 0usize)];
        while let Some(&(v, edge)) = work.last() {
            if edge == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = calls[v].get(edge) {
                work.last_mut().expect("nonempty").1 += 1;
                if index[w] == UNSEEN {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            work.pop();
            if let Some(&(parent, _)) = work.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let first = order.len();
                loop {
                    let w = stack.pop().expect("component member");
                    on_stack[w] = false;
                    order.push(w);
                    if w == v {
                        break;
                    }
                }
                if order.len() - first > 1 || calls[v].contains(&v) {
                    for &w in &order[first..] {
                        cyclic[w] = true;
                    }
                }
            }
        }
    }
    (order, cyclic)
}

/// Why `g` cannot be inlined as a callee, `None` when it can. Runs on the
/// stream the pass sees, so the budget counts pre-optimization
/// instructions.
fn refusal(g: &CompiledFn) -> Option<Kept> {
    let back_edge = (g.code.iter().enumerate())
        .any(|(pc, insn)| jump_target(insn).is_some_and(|t| t as usize <= pc));
    if back_edge {
        return Some(Kept::HasLoop);
    }
    for insn in &g.code {
        match insn {
            Insn::Call { .. } | Insn::CallValue { .. } => return Some(Kept::Calls),
            Insn::OmpCall { .. } => return Some(Kept::OmpCall),
            _ => {}
        }
    }
    if g.code.len() > MAX_CALLEE_INSNS {
        return Some(Kept::OverBudget(g.code.len()));
    }
    // Without a back-edge only the loop forms themselves (`WsNext`, a
    // kernel head) are left for `renumber` to reject.
    let same: Vec<u16> = (0..g.consts.len() as u16).collect();
    if g.code
        .iter()
        .any(|insn| renumber(*insn, 0, &same).is_none())
    {
        return Some(Kept::HasLoop);
    }
    (!defined_before_use(g)).then_some(Kept::UninitRead)
}

/// Whether every register `g` reads was written — by the caller, for a
/// parameter — on every path to the read. `g` has only forward jumps, so
/// one pass in pc order meets every predecessor of an instruction before
/// the instruction.
fn defined_before_use(g: &CompiledFn) -> bool {
    let n = g.code.len();
    // Registers written on every path to each pc; `None`: unreachable.
    let mut at: Vec<Option<Vec<bool>>> = vec![None; n];
    let mut entry = vec![false; g.nregs];
    entry[..g.nparams].fill(true);
    at[0] = Some(entry);
    for pc in 0..n {
        let Some(mut cur) = at[pc].take() else {
            continue;
        };
        let insn = &g.code[pc];
        let mut defined = true;
        visit_uses(insn, |r| defined &= cur[r as usize]);
        if !defined {
            return false;
        }
        visit_defs(insn, |r| cur[r as usize] = true);
        let mut flow = |to: usize| match &mut at[to] {
            Some(seen) => seen.iter_mut().zip(&cur).for_each(|(a, b)| *a &= *b),
            slot => *slot = Some(cur.clone()),
        };
        if let Some(t) = jump_target(insn) {
            flow(t as usize);
        }
        if falls_through(insn) && pc + 1 < n {
            flow(pc + 1);
        }
    }
    true
}

/// Reachable instructions of a stream with only forward jumps.
fn reachable(code: &[Insn]) -> Vec<bool> {
    let mut reach = vec![false; code.len()];
    reach[0] = true;
    for (pc, insn) in code.iter().enumerate() {
        if !reach[pc] {
            continue;
        }
        if let Some(t) = jump_target(insn) {
            reach[t as usize] = true;
        }
        if falls_through(insn) && pc + 1 < code.len() {
            reach[pc + 1] = true;
        }
    }
    reach
}

/// `insn` with every register moved up by `off` and every constant index
/// sent through `kmap`, for the straight-line forms lowering emits; `None`
/// for calls and loop forms, which [`refusal`] rejects. Jump targets are
/// left for the caller to retarget, and `ret`s pass through unchanged for
/// the splice to rewrite.
fn renumber(insn: Insn, off: Reg, kmap: &[u16]) -> Option<Insn> {
    let r = |x: Reg| x + off;
    let k = |x: u16| kmap[x as usize];
    Some(match insn {
        Insn::Const { dst, k: c } => Insn::Const {
            dst: r(dst),
            k: k(c),
        },
        Insn::Move { dst, src } => Insn::Move {
            dst: r(dst),
            src: r(src),
        },
        Insn::NewCell { dst, src } => Insn::NewCell {
            dst: r(dst),
            src: r(src),
        },
        Insn::CellGet { dst, cell } => Insn::CellGet {
            dst: r(dst),
            cell: r(cell),
        },
        Insn::CellSet { cell, src } => Insn::CellSet {
            cell: r(cell),
            src: r(src),
        },
        Insn::Deref { dst, ptr } => Insn::Deref {
            dst: r(dst),
            ptr: r(ptr),
        },
        Insn::StorePtr { ptr, src } => Insn::StorePtr {
            ptr: r(ptr),
            src: r(src),
        },
        Insn::ElemAddr { dst, arr, idx } => Insn::ElemAddr {
            dst: r(dst),
            arr: r(arr),
            idx: r(idx),
        },
        Insn::AddrDeref { dst, src } => Insn::AddrDeref {
            dst: r(dst),
            src: r(src),
        },
        Insn::Index { dst, arr, idx } => Insn::Index {
            dst: r(dst),
            arr: r(arr),
            idx: r(idx),
        },
        Insn::IndexSet { arr, idx, src } => Insn::IndexSet {
            arr: r(arr),
            idx: r(idx),
            src: r(src),
        },
        Insn::Arith { op, dst, a, b } => Insn::Arith {
            op,
            dst: r(dst),
            a: r(a),
            b: r(b),
        },
        Insn::Cmp { op, dst, a, b } => Insn::Cmp {
            op,
            dst: r(dst),
            a: r(a),
            b: r(b),
        },
        Insn::Neg { dst, src } => Insn::Neg {
            dst: r(dst),
            src: r(src),
        },
        Insn::Not { dst, src } => Insn::Not {
            dst: r(dst),
            src: r(src),
        },
        Insn::Truthy { dst, src } => Insn::Truthy {
            dst: r(dst),
            src: r(src),
        },
        Insn::Jump { to } => Insn::Jump { to },
        Insn::JumpIfFalse { cond, to } => Insn::JumpIfFalse { cond: r(cond), to },
        Insn::JumpIfTrue { cond, to } => Insn::JumpIfTrue { cond: r(cond), to },
        Insn::CmpJumpFalse { op, a, b, to } => Insn::CmpJumpFalse {
            op,
            a: r(a),
            b: r(b),
            to,
        },
        Insn::Builtin {
            dst,
            op,
            name_k,
            base,
            n,
        } => Insn::Builtin {
            dst: r(dst),
            op,
            name_k: k(name_k),
            base: r(base),
            n,
        },
        Insn::Print { base, n } => Insn::Print { base: r(base), n },
        Insn::Trap { msg } => Insn::Trap { msg: k(msg) },
        Insn::Ret { .. } | Insn::RetVoid => insn,
        _ => return None,
    })
}

/// The caller's stream, pool and frame size after inlining.
struct Merged {
    code: Vec<Insn>,
    consts: Vec<Value>,
    nregs: usize,
}

/// Whether the caller, `grown` instructions and `nconsts` constants into
/// this pass, can take `g` without leaving an encoding: the shared register
/// range must fit `Reg`, the merged pool `u16` (bounded by assuming none of
/// `g`'s constants is already there, plus one for `void`).
fn room_for(f: &CompiledFn, g: &CompiledFn, grown: usize, nconsts: usize) -> bool {
    grown + g.nparams + 2 * g.code.len() <= MAX_CALLER_GROWTH
        && f.nregs + g.nregs <= Reg::MAX as usize
        && nconsts + g.consts.len() < u16::MAX as usize
}

/// Build function `fi`'s stream with every eligible call replaced by its
/// callee's body; `None` when no site is eligible. Reads the callees from
/// `image` as they are now — [`callees_first`] ordered them first.
fn inline_into(image: &Image, fi: usize, data: &mut InlineData) -> Option<Merged> {
    let f = &image.funcs[fi];
    // Most functions have no eligible site: decide before copying anything.
    let wanted = |insn: &Insn| match *insn {
        Insn::Call { func, n, .. } => data.why_kept(image, fi, func as usize, n).is_none(),
        _ => false,
    };
    if !f.code.iter().any(wanted) {
        return None;
    }
    let n = f.code.len();
    let off = f.nregs as Reg;
    let mut code: Vec<Insn> = Vec::with_capacity(n);
    // Old pc → new pc, for the caller's own jumps (retargeted at the end:
    // forward targets are not placed yet when the jump is copied).
    let mut map = vec![0u32; n + 1];
    let mut own_jumps: Vec<usize> = Vec::new();
    let mut consts = f.consts.clone();
    let mut pool: Option<HashMap<CKey, u16>> = None;
    let mut extra_regs = 0usize;
    for (pc, &insn) in f.code.iter().enumerate() {
        map[pc] = code.len() as u32;
        let site = match insn {
            Insn::Call { dst, func, base, n } => {
                let callee = func as usize;
                let g = &image.funcs[callee];
                // `verdicts[fi]` is `Recursive` or unset, so a self-call
                // is refused like any other cyclic callee.
                if data.why_kept(image, fi, callee, n).is_some() {
                    None
                } else if !room_for(f, g, code.len() - pc, consts.len()) {
                    data.capped[fi] = true;
                    None
                } else {
                    Some((g, callee, dst, base))
                }
            }
            _ => None,
        };
        let Some((g, callee, dst, base)) = site else {
            if jump_target(&insn).is_some() {
                own_jumps.push(code.len());
            }
            code.push(insn);
            continue;
        };
        let pool = pool.get_or_insert_with(|| {
            (consts.iter().enumerate())
                .map(|(k, v)| (CKey::of(v), k as u16))
                .collect()
        });
        let mut intern = |v: &Value| {
            *pool.entry(CKey::of(v)).or_insert_with(|| {
                consts.push(v.clone());
                (consts.len() - 1) as u16
            })
        };
        let kmap: Vec<u16> = g.consts.iter().map(&mut intern).collect();
        for i in 0..g.nparams as Reg {
            code.push(Insn::Move {
                dst: off + i,
                src: base + i,
            });
        }
        let reach = reachable(&g.code);
        let last = reach.iter().rposition(|&r| r).expect("entry is reachable");
        // Where each callee pc lands; a `ret` before the last instruction
        // takes two slots (its move and its jump to the join point).
        let mut at = vec![0u32; g.code.len() + 1];
        let mut next = code.len();
        for (gpc, ginsn) in g.code.iter().enumerate() {
            at[gpc] = next as u32;
            if reach[gpc] {
                let ret = matches!(ginsn, Insn::Ret { .. } | Insn::RetVoid);
                next += if ret && gpc != last { 2 } else { 1 };
            }
        }
        let join = next as u32;
        for (gpc, &ginsn) in g.code.iter().enumerate() {
            if !reach[gpc] {
                continue;
            }
            match ginsn {
                Insn::Ret { src } => code.push(Insn::Move {
                    dst,
                    src: src + off,
                }),
                Insn::RetVoid => code.push(Insn::Const {
                    dst,
                    k: intern(&Value::Void),
                }),
                _ => {
                    let mut body = renumber(ginsn, off, &kmap).expect("refusal() admitted it");
                    retarget(&mut body, &at);
                    code.push(body);
                    continue;
                }
            }
            if gpc != last {
                code.push(Insn::Jump { to: join });
            }
        }
        debug_assert_eq!(code.len() as u32, join);
        extra_regs = extra_regs.max(g.nregs);
        data.sites.push(Site {
            caller: fi,
            callee,
            insns: g.code.len(),
            pc,
        });
    }
    pool.as_ref()?;
    map[n] = code.len() as u32;
    for i in own_jumps {
        retarget(&mut code[i], &map);
    }
    Some(Merged {
        code,
        consts,
        nregs: f.nregs + extra_regs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::OptLevel;

    fn lowered(src: &str) -> Image {
        let pre = zomp_front::preprocess(src).expect("preprocess");
        crate::compile::compile_image(&zomp_front::parse(&pre).expect("parse"))
    }

    fn calls(image: &Image, name: &str) -> usize {
        let f = image.get(name).expect("fn");
        (f.code.iter())
            .filter(|i| matches!(i, Insn::Call { .. }))
            .count()
    }

    /// A helper of eleven chained additions, `2 * 11 + 2` = 24 instructions
    /// as lowered (a `const` and an `add` each, `ret`, `retvoid`) and 25
    /// when it copies its parameter into a `var` first; either way 14 or
    /// fewer once optimized (one `addk` per addition).
    fn chain(copy: bool) -> String {
        let adds = "k = k + 1; ".repeat(11);
        let head = if copy {
            "fn h(v: i64) i64 { var k: i64 = v; "
        } else {
            "fn h(k: i64) i64 { "
        };
        format!("{head}{adds}return k; }}\nfn main() void {{ print(h(1)); }}")
    }

    #[test]
    fn the_budget_counts_pre_optimization_instructions() {
        let src = chain(true);
        let mut image = lowered(&src);
        let len = image.get("h").unwrap().code.len();
        assert_eq!(len, MAX_CALLEE_INSNS + 1);
        let data = inline_image(&mut image);
        assert_eq!(calls(&image, "main"), 1);
        let (main, h) = (image.by_name["main"], image.by_name["h"]);
        assert_eq!(
            data.why_kept(&image, main, h, 1).map(|k| k.to_string()),
            Some(format!("over-budget ({len} > {MAX_CALLEE_INSNS})"))
        );
        // It would fit if the budget were checked after `optimize`.
        let pre = zomp_front::preprocess(&src).unwrap();
        let optimized =
            crate::compile::compile_image_opt(&zomp_front::parse(&pre).unwrap(), OptLevel::O3);
        assert!(optimized.get("h").unwrap().code.len() <= MAX_CALLEE_INSNS);
        assert_eq!(calls(&optimized, "main"), 1);

        // One instruction fewer is exactly the budget and goes in.
        let mut image = lowered(&chain(false));
        assert_eq!(image.get("h").unwrap().code.len(), MAX_CALLEE_INSNS);
        inline_image(&mut image);
        assert_eq!(calls(&image, "main"), 0);
    }

    #[test]
    fn an_inlined_newcell_makes_a_fresh_cell_per_execution() {
        // `slot` boxes its parameter and hands the cell out: were the cell
        // made once for the site, both calls would return the same one and
        // the second store would show through the first pointer.
        let src = "fn slot(v: i64) *i64 { var c: i64 = v; return &c; }
fn main() void {
    var i: i64 = 0;
    var first: any = undefined;
    while (i < 2) : (i += 1) {
        const p = slot(i);
        if (i == 0) { first = p; }
        p.* = p.* + 10;
    }
    print(first.*);
}";
        let mut image = lowered(src);
        inline_image(&mut image);
        let main = image.get("main").unwrap();
        assert_eq!(calls(&image, "main"), 0);
        assert!(main.code.iter().any(|i| matches!(i, Insn::NewCell { .. })));
        for opt in [OptLevel::O0, OptLevel::O3] {
            let vm = crate::Vm::build(src, None, crate::Backend::Bytecode, opt).unwrap();
            vm.call_function("main", Vec::new()).unwrap();
            assert_eq!(vm.output.lock().clone(), ["10"], "--opt={opt}");
        }
    }

    #[test]
    fn an_uninitialised_read_keeps_the_call() {
        // Hand-built: lowering never emits a read of an unwritten register.
        let mut image = lowered("fn g(v: i64) i64 { return v; }\nfn main() void { print(g(1)); }");
        let g = image.by_name["g"];
        image.funcs[g].nregs = 2;
        image.funcs[g].code = vec![Insn::Ret { src: 1 }];
        let data = inline_image(&mut image);
        assert_eq!(calls(&image, "main"), 1);
        let main = image.by_name["main"];
        assert_eq!(data.why_kept(&image, main, g, 1), Some(Kept::UninitRead));
    }

    #[test]
    fn cycles_are_found_and_callees_come_first() {
        // 0 → 1 → 2 → 1, 0 → 3, 4 → 4.
        let calls = vec![vec![1, 3], vec![2], vec![1], vec![], vec![4]];
        let (order, cyclic) = callees_first(&calls);
        assert_eq!(cyclic, [false, true, true, false, true]);
        let at = |f: usize| order.iter().position(|&x| x == f).unwrap();
        assert!(at(1) < at(0) && at(2) < at(0) && at(3) < at(0));
        assert_eq!(order.len(), 5);
    }
}
