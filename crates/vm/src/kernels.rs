//! Native bulk-kernel tier (`--opt=3` / `Backend::Native`).
//!
//! The optimizer already fuses the NPB inner loops, but an interpreted
//! iteration still pays instruction dispatch
//! and `Value` boxing per element. This
//! module closes the rest of the gap to hand-written Rust for the
//! hottest loop *shapes*: after every other pass has run, the
//! installer pattern-matches single-block loops in the final
//! instruction stream and replaces the loop-head instruction with
//! [`Insn::BulkLoop`], whose descriptor names a precompiled Rust loop
//! over the raw `f64`/`i64` element storage of the involved arrays
//! (borrowed via `ArrF::cells`/`ArrI::cells`, no copies). Because
//! only the per-chunk inner loops are replaced, the surrounding
//! work-sharing protocol (`omp.internal.ws_*`), schedules, reductions
//! and tracing all keep working unchanged.
//!
//! Correctness contract:
//!
//! - A kernel only runs while its type/bounds prechecks hold. On
//!   *any* violation — wrong runtime types, index out of bounds,
//!   division by zero — it writes back the loop-carried registers it
//!   has updated (induction variable, accumulators) and deopts: the
//!   dispatch loop runs the original head instruction in the
//!   `BulkLoop`'s place and resumes interpretation at the loop head, so
//!   the failing iteration replays in the interpreter and raises the
//!   exact same error text at the exact same point (or simply keeps
//!   running interpreted if the shape was merely untypical).
//! - On normal exit every register the loop body defines is written
//!   back with its final-iteration value, so code after the loop
//!   observes the same frame state as interpretation.
//! - Loads and stores happen in interpreter order within an
//!   iteration (re-loading after potentially aliasing stores), so
//!   kernels are exact even when two names refer to one array.
//!
//! Matchers run on the *final* stream (inlining, constant folding and
//! fusion have already happened), which is what makes
//! the shapes short and stable enough to match insn-by-insn.

use crate::bytecode::{ArithOp, BuiltinOp, CmpOp, CompiledFn, Image, Insn, OmpFn, Reg};
use crate::value::{ArrF, ArrI, Value};
use std::sync::Arc;

/// Descriptor for one installed kernel, stored in
/// [`CompiledFn::kernels`] and referenced by [`Insn::BulkLoop`].
#[derive(Debug, Clone, Copy)]
pub struct KernelDesc {
    /// The loop-head instruction the `BulkLoop` replaced; deopt
    /// target (the dispatch loop runs this in its place and replays).
    pub orig: Insn,
    /// pc to resume at after a normal kernel exit.
    pub exit: u32,
    pub kind: KernelKind,
    /// Pragma `unit:line` label of the nearest enclosing worksharing
    /// loop (resolved at install from the preceding `ws_begin` call's
    /// string constant), or `""` when the unit was compiled unnamed.
    /// Rides into `BulkLoop` trace spans and `--remarks` output.
    pub label: &'static str,
}

/// The recognised loop shapes. Register fields are bound by the
/// matcher; `visit_regs` reports all of them for verification.
#[derive(Debug, Clone, Copy)]
pub enum KernelKind {
    /// CG sparse matvec over a whole worksharing chunk of rows:
    /// `do { s = 0.0; k = rowstr[j]; while (k < rowstr[j+1]) {
    /// s += a[k] * p[colidx[k]]; k += 1 } q[j] = s; j += 1 }
    /// while (j < ub)`. One dispatch amortises the slot locks and
    /// descriptor decode over the entire chunk.
    MatvecRows {
        rowcell: Reg,
        j: Reg,
        k: Reg,
        bound: Reg,
        acc: Reg,
        xcell: Reg,
        acell: Reg,
        icell: Reg,
        qcell: Reg,
        ub: Reg,
        /// const-pool index of the accumulator seed (Float).
        sk: u16,
    },
    /// IS fused rank pipeline — one bucket-partitioned outer loop whose
    /// body chains the three rank phases over the bucket's key range:
    /// ```text
    /// do { keylo = b4*sd; keyhi = (b4+1)*sd;
    ///      st = starts[b4]; en = starts[b4+1];
    ///      while (k < keyhi)  ranks[k] = 0;          // fill
    ///      while (p < en)     ranks[buff2[p]] += 1;  // rank-inc
    ///      while (k2 < keyhi) { acc += ranks[k2]; ranks[k2] = acc }
    ///      b4 += 1 } while (b4 < ub)
    /// ```
    /// The private count range stays hot across all three phases and the
    /// per-bucket precheck (key range, scatter range, and the `buff2`
    /// range hint) hoists every per-element bounds check, so a bail can
    /// only happen *before* a bucket's first store — the interpreter
    /// replays the whole bucket with identical effects.
    RankPipeline {
        /// Cells: bucket boundaries, the ranks output, scattered keys.
        scell: Reg,
        rcell: Reg,
        bcell: Reg,
        b4: Reg,
        sd: Reg,
        ub: Reg,
        // Per-bucket scalars, in program order (several share physical
        // registers in the IS stream; the runner writes them back in
        // this order so aliases land exactly as the bytecode would).
        keylo: Reg,
        th: Reg,
        kh0: Reg,
        keyhi: Reg,
        st0: Reg,
        st: Reg,
        en0: Reg,
        en: Reg,
        /// Fill-loop induction and const registers.
        kf: Reg,
        fc: Reg,
        /// Rank-inc loop induction and temporaries.
        p: Reg,
        ra: Reg,
        v: Reg,
        x: Reg,
        y: Reg,
        rb: Reg,
        v2: Reg,
        /// Prefix loop accumulator, induction, and load temp.
        acc: Reg,
        k2: Reg,
        t3: Reg,
        /// Const-pool indices: the `b4 + 1` offset, the fill value, and
        /// the rank increment (all Int).
        kone: u16,
        kfill: u16,
        kinc: u16,
    },
    /// EP batched deviate fill — the first cross-call kernel:
    /// `do { x[j] = randlc(&t, a); j += 1 } while (j < lim)` where the
    /// called function was verified *symbolically* (see [`lcg_callee`])
    /// to compute exactly the NPB 46-bit LCG step, so the kernel runs a
    /// `vranlc`-style batch against a local copy of the seed cell.
    /// `targ`/`aarg` are the call's argument window (left `Undefined`
    /// by the interpreter's arg-stealing calls, reproduced on exit).
    LcgFill {
        /// Cell register holding `Ptr` to the seed (`&t`).
        tcell: Reg,
        /// Call argument window: `targ` receives the cell, `aarg` the
        /// multiplier (`aarg == targ + 1`).
        targ: Reg,
        aarg: Reg,
        /// Loop-invariant multiplier register (`a`).
        areg: Reg,
        /// Call result register (last deviate after a full batch).
        res: Reg,
        /// Output array (`ArrF`, plain register).
        arr: Reg,
        j: Reg,
        /// Loop-invariant trip limit (the pinned `2 * nk`).
        lim: Reg,
    },
}

impl KernelKind {
    /// The register the kernel advances every iteration. Written back
    /// on both success and bail, so the dispatcher can derive the
    /// native iteration count as the before/after delta without the
    /// individual kernels carrying counters.
    pub fn induction(&self) -> Reg {
        match *self {
            KernelKind::MatvecRows { j, .. } => j,
            KernelKind::RankPipeline { b4, .. } => b4,
            KernelKind::LcgFill { j, .. } => j,
        }
    }

    /// Every shape's [`KernelKind::name`], in `match_at` order — the
    /// one kernel census: remarks build their "matches none of the N
    /// kernel shapes" note from it, and `every_installed_kernel_is_entered`
    /// requires the NPB ports to install and enter exactly these.
    pub const NAMES: [&'static str; 3] = ["matvec-rows", "rank-pipeline", "lcg-fill"];

    /// Short stable name for disassembly (`bulkloop kernel0 (matvec-rows)`).
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::MatvecRows { .. } => "matvec-rows",
            KernelKind::RankPipeline { .. } => "rank-pipeline",
            KernelKind::LcgFill { .. } => "lcg-fill",
        }
    }

    /// What the installed kernel decides only at run time, from its
    /// inputs — for the `kernel-installed` remark, so the condition of
    /// the fast side is in the compiler's own output.
    pub fn note(&self) -> Option<String> {
        match self {
            KernelKind::LcgFill { .. } => Some(format!(
                "{LCG_STREAMS} exact streams when seed and multiplier are integers in [0, 2^46)"
            )),
            _ => None,
        }
    }
}

impl KernelDesc {
    /// Report every register the kernel touches (for `verify_fn`).
    pub fn visit_regs(&self, f: impl FnMut(Reg)) {
        let regs: &[Reg] = match self.kind {
            KernelKind::MatvecRows {
                rowcell,
                j,
                k,
                bound,
                acc,
                xcell,
                acell,
                icell,
                qcell,
                ub,
                sk: _,
            } => &[rowcell, j, k, bound, acc, xcell, acell, icell, qcell, ub],
            KernelKind::RankPipeline {
                scell,
                rcell,
                bcell,
                b4,
                sd,
                ub,
                keylo,
                th,
                kh0,
                keyhi,
                st0,
                st,
                en0,
                en,
                kf,
                fc,
                p,
                ra,
                v,
                x,
                y,
                rb,
                v2,
                acc,
                k2,
                t3,
                kone: _,
                kfill: _,
                kinc: _,
            } => &[
                scell, rcell, bcell, b4, sd, ub, keylo, th, kh0, keyhi, st0, st, en0, en, kf, fc,
                p, ra, v, x, y, rb, v2, acc, k2, t3,
            ],
            KernelKind::LcgFill {
                tcell,
                targ,
                aarg,
                areg,
                res,
                arr,
                j,
                lim,
            } => &[tcell, targ, aarg, areg, res, arr, j, lim],
        };
        regs.iter().copied().for_each(f);
    }
}

// ---------------------------------------------------------------------------
// Cross-call matching: symbolic verification of small pure callees
// ---------------------------------------------------------------------------

/// Symbolic value over a two-parameter `(ptr, scalar)` callee. `Trunc`
/// is the NPB truncation idiom `@intToFloat(@floatToInt(v))`; `FtoI`
/// is its half-finished intermediate (an `i64`-typed node that is only
/// legal as the immediate operand of `IntToFloat`).
#[derive(Clone)]
enum Sym {
    /// The pointer parameter itself (only dereferenced/stored through).
    Ptr,
    /// The scalar (`f64`) parameter.
    A,
    /// The pointee's value on entry.
    X,
    /// A float constant, by exact bit pattern.
    C(u64),
    FtoI(std::rc::Rc<Sym>),
    Trunc(std::rc::Rc<Sym>),
    Add(std::rc::Rc<Sym>, std::rc::Rc<Sym>),
    Sub(std::rc::Rc<Sym>, std::rc::Rc<Sym>),
    Mul(std::rc::Rc<Sym>, std::rc::Rc<Sym>),
}

/// Canonical key: a string rendering with the operands of the
/// commutative nodes (`Add`, `Mul`) sorted, so two trees are
/// semantically identical LCG dataflow iff their keys match. Trees are
/// a few hundred expanded nodes at most, so the quadratic string
/// building is irrelevant.
fn sym_key(s: &Sym, out: &mut String) {
    match s {
        Sym::Ptr => out.push('p'),
        Sym::A => out.push('a'),
        Sym::X => out.push('x'),
        Sym::C(bits) => {
            out.push('c');
            out.push_str(&bits.to_string());
        }
        Sym::FtoI(v) => {
            out.push_str("i(");
            sym_key(v, out);
            out.push(')');
        }
        Sym::Trunc(v) => {
            out.push_str("t(");
            sym_key(v, out);
            out.push(')');
        }
        Sym::Sub(l, r) => {
            out.push_str("-(");
            sym_key(l, out);
            out.push(',');
            sym_key(r, out);
            out.push(')');
        }
        Sym::Add(l, r) | Sym::Mul(l, r) => {
            out.push(if matches!(s, Sym::Add(..)) { '+' } else { '*' });
            let (mut a, mut b) = (String::new(), String::new());
            sym_key(l, &mut a);
            sym_key(r, &mut b);
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            out.push('(');
            out.push_str(&a);
            out.push(',');
            out.push_str(&b);
            out.push(')');
        }
    }
}

/// The NPB 46-bit LCG step (`randlc`), as the canonical symbolic pair
/// `(return value, final pointee)`. Exact constants: the kernel is only
/// bit-identical to the callee when the callee uses these very values.
fn lcg_canonical() -> (String, String) {
    use std::rc::Rc;
    const R23: f64 = 0.000_000_119_209_289_550_781_25;
    const T23: f64 = 8_388_608.0;
    const R46: f64 = R23 * R23;
    const T46: f64 = T23 * T23;
    let c = |v: f64| Rc::new(Sym::C(v.to_bits()));
    let mul = |l: &Rc<Sym>, r: &Rc<Sym>| Rc::new(Sym::Mul(l.clone(), r.clone()));
    let add = |l: &Rc<Sym>, r: &Rc<Sym>| Rc::new(Sym::Add(l.clone(), r.clone()));
    let sub = |l: &Rc<Sym>, r: &Rc<Sym>| Rc::new(Sym::Sub(l.clone(), r.clone()));
    let trunc = |v: &Rc<Sym>| Rc::new(Sym::Trunc(v.clone()));
    let (r23, t23, r46, t46) = (c(R23), c(T23), c(R46), c(T46));
    let (a, x) = (Rc::new(Sym::A), Rc::new(Sym::X));
    let a1 = trunc(&mul(&r23, &a));
    let a2 = sub(&a, &mul(&t23, &a1));
    let x1 = trunc(&mul(&r23, &x));
    let x2 = sub(&x, &mul(&t23, &x1));
    let t1 = add(&mul(&a1, &x2), &mul(&a2, &x1));
    let t2 = trunc(&mul(&r23, &t1));
    let z = sub(&t1, &mul(&t23, &t2));
    let t3 = add(&mul(&t23, &z), &mul(&a2, &x2));
    let t4 = trunc(&mul(&r46, &t3));
    let xp = sub(&t3, &mul(&t46, &t4));
    let ret = mul(&r46, &xp);
    let (mut rk, mut mk) = (String::new(), String::new());
    sym_key(&ret, &mut rk);
    sym_key(&xp, &mut mk);
    (rk, mk)
}

/// `true` iff `f` is a two-parameter `(ptr, f64)` function whose body
/// is straight-line float dataflow computing *exactly* the NPB 46-bit
/// LCG step: return value `r46 * x'`, pointee updated to `x'`. The
/// whole body is abstractly interpreted over [`Sym`]; any instruction
/// outside the tiny pure-dataflow subset (a jump, a call, an index)
/// rejects. Tree equality (commutative in `Add`/`Mul`, exact in
/// constants) implies the kernel's hardcoded step reproduces the
/// callee bit-for-bit — float addition and multiplication are
/// deterministic, so equal dataflow means equal bits.
fn lcg_callee(f: &CompiledFn) -> bool {
    use std::rc::Rc;
    if f.nparams != 2 {
        return false;
    }
    let mut env: Vec<Option<Rc<Sym>>> = vec![None; f.nregs.max(2)];
    env[0] = Some(Rc::new(Sym::Ptr));
    env[1] = Some(Rc::new(Sym::A));
    let mut mem: Rc<Sym> = Rc::new(Sym::X);
    let get = |env: &[Option<Rc<Sym>>], r: Reg| env.get(r as usize).cloned().flatten();
    let is_ptr = |env: &[Option<Rc<Sym>>], r: Reg| matches!(get(env, r).as_deref(), Some(Sym::Ptr));
    for insn in &f.code {
        match *insn {
            Insn::Const { dst, k } => {
                env[dst as usize] = match f.consts.get(k as usize) {
                    Some(Value::Float(v)) => Some(Rc::new(Sym::C(v.to_bits()))),
                    _ => None,
                };
            }
            Insn::Move { dst, src } => env[dst as usize] = get(&env, src),
            Insn::Arith { op, dst, a, b } => {
                let (Some(l), Some(r)) = (get(&env, a), get(&env, b)) else {
                    return false;
                };
                env[dst as usize] = Some(Rc::new(match op {
                    ArithOp::Add => Sym::Add(l, r),
                    ArithOp::Sub => Sym::Sub(l, r),
                    ArithOp::Mul => Sym::Mul(l, r),
                    _ => return false,
                }));
            }
            Insn::ArithK { op, dst, a, k } => {
                let (Some(l), Some(Value::Float(v))) = (get(&env, a), f.consts.get(k as usize))
                else {
                    return false;
                };
                let r = Rc::new(Sym::C(v.to_bits()));
                env[dst as usize] = Some(Rc::new(match op {
                    ArithOp::Add => Sym::Add(l, r),
                    ArithOp::Sub => Sym::Sub(l, r),
                    ArithOp::Mul => Sym::Mul(l, r),
                    _ => return false,
                }));
            }
            Insn::ArithKL { op, dst, k, b } => {
                let (Some(Value::Float(v)), Some(r)) = (f.consts.get(k as usize), get(&env, b))
                else {
                    return false;
                };
                let l = Rc::new(Sym::C(v.to_bits()));
                env[dst as usize] = Some(Rc::new(match op {
                    ArithOp::Add => Sym::Add(l, r),
                    ArithOp::Sub => Sym::Sub(l, r),
                    ArithOp::Mul => Sym::Mul(l, r),
                    _ => return false,
                }));
            }
            Insn::Builtin {
                dst,
                op: BuiltinOp::FloatToInt,
                base,
                n: 1,
                ..
            } => {
                let Some(v) = get(&env, base) else {
                    return false;
                };
                env[dst as usize] = Some(Rc::new(Sym::FtoI(v)));
            }
            Insn::Builtin {
                dst,
                op: BuiltinOp::IntToFloat,
                base,
                n: 1,
                ..
            } => {
                let Some(v) = get(&env, base) else {
                    return false;
                };
                let Sym::FtoI(inner) = &*v else { return false };
                env[dst as usize] = Some(Rc::new(Sym::Trunc(inner.clone())));
            }
            Insn::Deref { dst, ptr } => {
                if !is_ptr(&env, ptr) {
                    return false;
                }
                env[dst as usize] = Some(mem.clone());
            }
            Insn::StorePtr { ptr, src } => {
                if !is_ptr(&env, ptr) {
                    return false;
                }
                let Some(v) = get(&env, src) else {
                    return false;
                };
                mem = v;
            }
            Insn::Ret { src } => {
                let Some(ret) = get(&env, src) else {
                    return false;
                };
                let (mut rk, mut mk) = (String::new(), String::new());
                sym_key(&ret, &mut rk);
                sym_key(&mem, &mut mk);
                let (crk, cmk) = lcg_canonical();
                return rk == crk && mk == cmk;
            }
            _ => return false,
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Installation (pattern matching on the final instruction stream)
// ---------------------------------------------------------------------------

/// Install bulk kernels in every function (`--opt=3` only; runs after
/// inlining and optimization). A pre-pass classifies
/// every function as LCG-shaped or not so the loop matchers can see
/// *through* `Call` boundaries without borrowing the image twice.
pub fn install_image(image: &mut Image) {
    install_kernels(image);
    // Typed-template tier: generic loops that missed every fixed
    // kernel shape (runs second so the fixed kernels win the
    // overlap; skips pcs covered by an installed kernel span).
    for f in &mut image.funcs {
        crate::templates::install_fn(f);
    }
}

/// The fixed-kernel half of [`install_image`].
pub(crate) fn install_kernels(image: &mut Image) {
    let lcg: Vec<bool> = image.funcs.iter().map(lcg_callee).collect();
    for f in &mut image.funcs {
        install_fn(f, &lcg);
    }
}

fn install_fn(f: &mut CompiledFn, lcg: &[bool]) {
    for pc in 0..f.code.len() {
        if f.kernels.len() >= u16::MAX as usize {
            break;
        }
        let Some((kind, exit)) = match_at(f, pc, lcg) else {
            continue;
        };
        let kidx = f.kernels.len() as u16;
        f.kernels.push(KernelDesc {
            orig: f.code[pc],
            exit,
            kind,
            label: loop_label(f, pc),
        });
        f.code[pc] = Insn::BulkLoop { kidx };
    }
}

/// Resolve the pragma label of the worksharing loop enclosing the
/// kernel at `pc`: the nearest preceding `omp.internal.ws_begin` call
/// whose first argument is a label constant (the preprocessor only
/// emits that argument for named units). `""` when absent.
pub(crate) fn loop_label(f: &CompiledFn, pc: usize) -> &'static str {
    for i in (0..pc).rev() {
        let Insn::OmpCall {
            func: OmpFn::WsBegin,
            base,
            ..
        } = f.code[i]
        else {
            continue;
        };
        // The label argument is materialised by a `const` into the
        // call's first argument register somewhere before the call.
        for j in (0..i).rev() {
            let Insn::Const { dst, k } = f.code[j] else {
                continue;
            };
            if dst != base {
                continue;
            }
            if let Some(&Value::Label(s)) = f.consts.get(k as usize) {
                return s;
            }
            break;
        }
        break;
    }
    ""
}

fn all_distinct(rs: &[Reg]) -> bool {
    for (i, a) in rs.iter().enumerate() {
        if rs[i + 1..].contains(a) {
            return false;
        }
    }
    true
}

/// The loop must only write `writes`; every other bound register has
/// to stay loop-invariant for the cached-operand kernel to be exact.
fn disciplined(writes: &[Reg], invariant: &[Reg]) -> bool {
    all_distinct(writes) && invariant.iter().all(|r| !writes.contains(r))
}

fn const_int(consts: &[Value], k: u16) -> Option<i64> {
    match consts.get(k as usize)? {
        Value::Int(v) => Some(*v),
        _ => None,
    }
}

// Field views of the generic forms the matchers read. A matcher takes no
// type evidence from the stream: each kernel checks, before its first side
// effect, the type of every register it reads that the loop does not
// define (and of every pool constant it uses), and computes everything
// else from those. So a type the shape did not expect bails, and the
// interpreter replays the loop with its own checks.
fn as_arith(insn: Insn) -> Option<(ArithOp, Reg, Reg, Reg)> {
    match insn {
        Insn::Arith { op, dst, a, b } => Some((op, dst, a, b)),
        _ => None,
    }
}

fn as_index(insn: Insn) -> Option<(Reg, Reg, Reg)> {
    match insn {
        Insn::Index { dst, arr, idx } => Some((dst, arr, idx)),
        _ => None,
    }
}

fn as_index_set(insn: Insn) -> Option<(Reg, Reg, Reg)> {
    match insn {
        Insn::IndexSet { arr, idx, src } => Some((arr, idx, src)),
        _ => None,
    }
}

fn as_cmp_jf(insn: Insn) -> Option<(CmpOp, Reg, Reg, u32)> {
    match insn {
        Insn::CmpJumpFalse { op, a, b, to } => Some((op, a, b, to)),
        _ => None,
    }
}

fn match_at(f: &CompiledFn, pc: usize, lcg: &[bool]) -> Option<(KernelKind, u32)> {
    match_matvec_rows(f, pc)
        .or_else(|| match_rank_pipeline(f, pc))
        .or_else(|| match_lcg_fill(f, pc, lcg))
}

fn match_matvec_rows(f: &CompiledFn, pc: usize) -> Option<(KernelKind, u32)> {
    let code = &f.code;
    let (acc, sk) = match *code.get(pc)? {
        Insn::Const { dst, k } => {
            // The seed must be a Float constant (the `s = 0.0` reset).
            match f.consts.get(k as usize)? {
                Value::Float(_) => (dst, k),
                _ => return None,
            }
        }
        _ => return None,
    };
    let (k, rowcell, j) = match *code.get(pc + 1)? {
        Insn::DerefIndex { dst, cell, idx } => (dst, cell, idx),
        _ => return None,
    };
    let bound = match *code.get(pc + 2)? {
        Insn::DerefIndexOff {
            dst,
            cell,
            idx,
            off: 1,
        } if cell == rowcell && idx == j => dst,
        _ => return None,
    };
    match as_cmp_jf(*code.get(pc + 3)?)? {
        (CmpOp::Lt, a, b, to) if a == k && b == bound && to as usize == pc + 6 => {}
        _ => return None,
    }
    let (xcell, acell, icell) = match *code.get(pc + 4)? {
        Insn::FmaGather {
            dst,
            xcell,
            acell,
            icell,
            idx,
        } if dst == acc && idx == k => (xcell, acell, icell),
        _ => return None,
    };
    match *code.get(pc + 5)? {
        Insn::IncJump { var, step: 1, to } if var == k && to as usize == pc + 2 => {}
        _ => return None,
    }
    let qcell = match *code.get(pc + 6)? {
        Insn::DerefIndexSet { cell, idx, src } if idx == j && src == acc => cell,
        _ => return None,
    };
    let (ub, exit) = match *code.get(pc + 7)? {
        Insn::IncCmpJump {
            var,
            step: 1,
            limit,
            op: CmpOp::Lt,
            to,
        } if var == j && to as usize == pc => (limit, pc as u32 + 8),
        _ => return None,
    };
    if !disciplined(
        &[acc, k, bound, j],
        &[rowcell, xcell, acell, icell, qcell, ub],
    ) {
        return None;
    }
    Some((
        KernelKind::MatvecRows {
            rowcell,
            j,
            k,
            bound,
            acc,
            xcell,
            acell,
            icell,
            qcell,
            ub,
            sk,
        },
        exit,
    ))
}

/// The IS phase-4 bucket loop, fused across the adjacent
/// fill → rank-inc → prefix-sum triple (31 instructions; see
/// [`KernelKind::RankPipeline`]). The shape is the optimizer's
/// canonical output for the source idiom:
/// ```text
/// pc+0   keylo = b4 * sd               pc+13  p = st
/// pc+1   th = b4 + 1                   pc+14  if !(st < en) -> +23
/// pc+2   kh0 = th * sd                 pc+15  ra = *rcell
/// pc+3   keyhi = kh0                   pc+16  v = (*bcell)[p]
/// pc+4   st0 = (*scell)[b4]            pc+17  x = ra[v]
/// pc+5   st = st0                      pc+18  y = x + kinc
/// pc+6   en0 = (*scell)[b4+1]          pc+19  rb = *rcell
/// pc+7   en = en0                      pc+20  v2 = (*bcell)[p]
/// pc+8   k = keylo                     pc+21  rb[v2] = y
/// pc+9   if !(keylo < keyhi) -> +13    pc+22  p += 1; p < en -> +15
/// pc+10  fc = kfill                    pc+23  acc = st
/// pc+11  (*rcell)[k] = fc              pc+24  k2 = keylo
/// pc+12  k += 1; k < keyhi -> +10      pc+25  if !(keylo < keyhi) -> +30
///                                      pc+26  t3 = (*rcell)[k2]
///                                      pc+27  acc = acc + t3
///                                      pc+28  (*rcell)[k2] = acc
///                                      pc+29  k2 += 1; k2 < keyhi -> +26
///                                      pc+30  b4 += 1; b4 < ub -> pc
/// ```
fn match_rank_pipeline(f: &CompiledFn, pc: usize) -> Option<(KernelKind, u32)> {
    let code = &f.code;
    let (keylo, b4, sd) = match as_arith(*code.get(pc)?)? {
        (ArithOp::Mul, dst, a, b) => (dst, a, b),
        _ => return None,
    };
    let (th, kone) = match *code.get(pc + 1)? {
        Insn::ArithK {
            op: ArithOp::Add,
            dst,
            a,
            k,
        } if a == b4 => {
            const_int(&f.consts, k)?;
            (dst, k)
        }
        _ => return None,
    };
    let kh0 = match as_arith(*code.get(pc + 2)?)? {
        (ArithOp::Mul, dst, a, b) if a == th && b == sd => dst,
        _ => return None,
    };
    let keyhi = match *code.get(pc + 3)? {
        Insn::Move { dst, src } if src == kh0 => dst,
        _ => return None,
    };
    let (st0, scell) = match *code.get(pc + 4)? {
        Insn::DerefIndex { dst, cell, idx } if idx == b4 => (dst, cell),
        _ => return None,
    };
    let st = match *code.get(pc + 5)? {
        Insn::Move { dst, src } if src == st0 => dst,
        _ => return None,
    };
    let en0 = match *code.get(pc + 6)? {
        Insn::DerefIndexOff {
            dst,
            cell,
            idx,
            off: 1,
        } if cell == scell && idx == b4 => dst,
        _ => return None,
    };
    let en = match *code.get(pc + 7)? {
        Insn::Move { dst, src } if src == en0 => dst,
        _ => return None,
    };
    let kf = match *code.get(pc + 8)? {
        Insn::Move { dst, src } if src == keylo => dst,
        _ => return None,
    };
    match as_cmp_jf(*code.get(pc + 9)?)? {
        (CmpOp::Lt, a, b, to) if a == keylo && b == keyhi && to as usize == pc + 13 => {}
        _ => return None,
    }
    let (fc, kfill) = match *code.get(pc + 10)? {
        Insn::Const { dst, k } => {
            const_int(&f.consts, k)?;
            (dst, k)
        }
        _ => return None,
    };
    let rcell = match *code.get(pc + 11)? {
        Insn::DerefIndexSet { cell, idx, src } if idx == kf && src == fc => cell,
        _ => return None,
    };
    match *code.get(pc + 12)? {
        Insn::IncCmpJump {
            var,
            step: 1,
            limit,
            op: CmpOp::Lt,
            to,
        } if var == kf && limit == keyhi && to as usize == pc + 10 => {}
        _ => return None,
    }
    let p = match *code.get(pc + 13)? {
        Insn::Move { dst, src } if src == st => dst,
        _ => return None,
    };
    match as_cmp_jf(*code.get(pc + 14)?)? {
        (CmpOp::Lt, a, b, to) if a == st && b == en && to as usize == pc + 23 => {}
        _ => return None,
    }
    let ra = match *code.get(pc + 15)? {
        Insn::Deref { dst, ptr } if ptr == rcell => dst,
        _ => return None,
    };
    let (v, bcell) = match *code.get(pc + 16)? {
        Insn::DerefIndex { dst, cell, idx } if idx == p => (dst, cell),
        _ => return None,
    };
    let x = match as_index(*code.get(pc + 17)?)? {
        (dst, arr, idx) if arr == ra && idx == v => dst,
        _ => return None,
    };
    let (y, kinc) = match *code.get(pc + 18)? {
        Insn::ArithK {
            op: ArithOp::Add,
            dst,
            a,
            k,
        } if a == x => {
            const_int(&f.consts, k)?;
            (dst, k)
        }
        _ => return None,
    };
    let rb = match *code.get(pc + 19)? {
        Insn::Deref { dst, ptr } if ptr == rcell => dst,
        _ => return None,
    };
    let v2 = match *code.get(pc + 20)? {
        Insn::DerefIndex { dst, cell, idx } if cell == bcell && idx == p => dst,
        _ => return None,
    };
    match as_index_set(*code.get(pc + 21)?)? {
        (arr, idx, src) if arr == rb && idx == v2 && src == y => {}
        _ => return None,
    }
    match *code.get(pc + 22)? {
        Insn::IncCmpJump {
            var,
            step: 1,
            limit,
            op: CmpOp::Lt,
            to,
        } if var == p && limit == en && to as usize == pc + 15 => {}
        _ => return None,
    }
    let acc = match *code.get(pc + 23)? {
        Insn::Move { dst, src } if src == st => dst,
        _ => return None,
    };
    let k2 = match *code.get(pc + 24)? {
        Insn::Move { dst, src } if src == keylo => dst,
        _ => return None,
    };
    match as_cmp_jf(*code.get(pc + 25)?)? {
        (CmpOp::Lt, a, b, to) if a == keylo && b == keyhi && to as usize == pc + 30 => {}
        _ => return None,
    }
    let t3 = match *code.get(pc + 26)? {
        Insn::DerefIndex { dst, cell, idx } if cell == rcell && idx == k2 => dst,
        _ => return None,
    };
    match as_arith(*code.get(pc + 27)?)? {
        (ArithOp::Add, dst, a, b) if dst == acc && a == acc && b == t3 => {}
        _ => return None,
    }
    match *code.get(pc + 28)? {
        Insn::DerefIndexSet { cell, idx, src } if cell == rcell && idx == k2 && src == acc => {}
        _ => return None,
    }
    match *code.get(pc + 29)? {
        Insn::IncCmpJump {
            var,
            step: 1,
            limit,
            op: CmpOp::Lt,
            to,
        } if var == k2 && limit == keyhi && to as usize == pc + 26 => {}
        _ => return None,
    }
    let ub = match *code.get(pc + 30)? {
        Insn::IncCmpJump {
            var,
            step: 1,
            limit,
            op: CmpOp::Lt,
            to,
        } if var == b4 && to as usize == pc => limit,
        _ => return None,
    };
    // Alias discipline. Several per-bucket temporaries share physical
    // registers by design (the runner writes them back in program
    // order), so instead of `all_distinct` over everything, require
    // exactly the invariances the runner leans on: the cells, divisor
    // and bound are never written; the outer induction and the scalars
    // re-read *after* an inner loop (`keylo`/`keyhi`/`st`/`en`) are not
    // clobbered by any inner-loop write; and each inner loop keeps its
    // own discipline.
    let writes = [
        keylo, th, kh0, keyhi, st0, st, en0, en, kf, fc, p, ra, v, x, y, rb, v2, acc, k2, t3, b4,
    ];
    if [scell, rcell, bcell, sd, ub]
        .iter()
        .any(|r| writes.contains(r))
    {
        return None;
    }
    let inner_writes = [fc, kf, p, ra, v, x, y, rb, v2, acc, k2, t3];
    if [b4, keylo, keyhi, st, en]
        .iter()
        .any(|r| inner_writes.contains(r))
    {
        return None;
    }
    if !all_distinct(&[fc, kf])
        || !all_distinct(&[ra, v, x, y, rb, v2, p])
        || !all_distinct(&[t3, acc, k2])
    {
        return None;
    }
    Some((
        KernelKind::RankPipeline {
            scell,
            rcell,
            bcell,
            b4,
            sd,
            ub,
            keylo,
            th,
            kh0,
            keyhi,
            st0,
            st,
            en0,
            en,
            kf,
            fc,
            p,
            ra,
            v,
            x,
            y,
            rb,
            v2,
            acc,
            k2,
            t3,
            kone,
            kfill,
            kinc,
        },
        pc as u32 + 31,
    ))
}

/// EP deviate fill, matched *through* the call boundary at the body
/// head of its counted loop (the compiler evaluated the limit `2 * nk`
/// once, into `lim`, ahead of the guard):
/// ```text
/// pc+0  move   targ, tcell     ; arg 0: the seed cell (&t)
/// pc+1  move   aarg, areg      ; arg 1: the multiplier
/// pc+2  call   res, f, targ..2 ; f verified LCG-shaped
/// pc+3  indexset arr[j], res
/// pc+4  inccmpj j += 1; j < lim -> pc+0
/// ```
/// Only installs when `lcg[f]` held for the callee, i.e. the call is
/// *provably* the NPB 46-bit LCG step; the kernel then runs the whole
/// batch against a local copy of the seed without frame setup per
/// element. The shape says nothing about types: [`run_lcg_fill`] bails
/// unless `arr` is a `[]f64`, `j` and `lim` are `Int`, the multiplier
/// is a `Float` and the seed cell holds a `Float`.
fn match_lcg_fill(f: &CompiledFn, pc: usize, lcg: &[bool]) -> Option<(KernelKind, u32)> {
    let code = &f.code;
    let Insn::Move {
        dst: targ,
        src: tcell,
    } = *code.get(pc)?
    else {
        return None;
    };
    let Insn::Move {
        dst: aarg,
        src: areg,
    } = *code.get(pc + 1)?
    else {
        return None;
    };
    if aarg != targ + 1 {
        return None;
    }
    let Insn::Call {
        dst: res,
        func,
        base,
        n: 2,
    } = *code.get(pc + 2)?
    else {
        return None;
    };
    if base != targ || !lcg.get(func as usize).copied().unwrap_or(false) {
        return None;
    }
    let (arr, idx, src) = as_index_set(*code.get(pc + 3)?)?;
    let Insn::IncCmpJump {
        var: j,
        step: 1,
        limit: lim,
        op: CmpOp::Lt,
        to,
    } = *code.get(pc + 4)?
    else {
        return None;
    };
    if idx != j || src != res || to as usize != pc {
        return None;
    }
    // The induction variable and the loop-invariant operands must be
    // untouched by every write.
    let writes = [targ, aarg, res, j];
    if [targ, aarg, res].contains(&j) || [lim, tcell, areg, arr].iter().any(|r| writes.contains(r))
    {
        return None;
    }
    Some((
        KernelKind::LcgFill {
            tcell,
            targ,
            aarg,
            areg,
            res,
            arr,
            j,
            lim,
        },
        pc as u32 + 5,
    ))
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// Run one kernel against the current frame. `true` = the loop
/// completed and all defined registers were written back (jump to
/// `desc.exit`); `false` = deopt (replay `desc.orig` interpreted).
///
/// `pc` is the `BulkLoop` instruction's own address, for telemetry.
/// When tracing is active the dispatcher records a `BulkLoop` span
/// (native iterations derived from the induction register's
/// before/after delta) and, on a bail, a `KernelBail` event carrying
/// the machine-readable reason; the disabled-tracing cost is one
/// relaxed atomic load.
pub(crate) fn run(desc: &KernelDesc, pc: u32, regs: &mut [Value], consts: &[Value]) -> bool {
    if !zomp::trace::active() {
        return run_inner(desc, pc, regs, consts).is_ok();
    }
    let t0 = zomp::trace::kernel_begin_ts();
    let ind = desc.kind.induction() as usize;
    let before = match regs[ind] {
        Value::Int(v) => v,
        _ => 0,
    };
    let r = run_inner(desc, pc, regs, consts);
    let after = match regs[ind] {
        Value::Int(v) => v,
        _ => before,
    };
    let iters = after.wrapping_sub(before).max(0) as u64;
    zomp::trace::kernel_end(kernel_span_label(desc), pc, iters, r.err(), t0);
    r.is_ok()
}

/// Span label: the pragma `unit:line` label when known, else the
/// kernel shape name so unlabelled spans still identify the loop.
fn kernel_span_label(desc: &KernelDesc) -> &'static str {
    if desc.label.is_empty() {
        desc.kind.name()
    } else {
        desc.label
    }
}

/// Machine-readable bail reasons (also the `KernelBail` event labels).
/// `type`: a bound register or constant did not hold the matched
/// Int/Float/array shape. `bounds`: an index left its array.
/// `overflow`: induction arithmetic overflowed.
type Bail = &'static str;
const BAIL_TYPE: Bail = "type";
const BAIL_BOUNDS: Bail = "bounds";
const BAIL_OVERFLOW: Bail = "overflow";

fn run_inner(desc: &KernelDesc, pc: u32, regs: &mut [Value], consts: &[Value]) -> Result<(), Bail> {
    match desc.kind {
        KernelKind::MatvecRows { .. } => run_matvec_rows(&desc.kind, regs, consts),
        KernelKind::RankPipeline { .. } => run_rank_pipeline(&desc.kind, regs, consts),
        KernelKind::LcgFill { .. } => run_lcg_fill(&desc.kind, pc, regs),
    }
}

fn cell_arrf(regs: &[Value], r: Reg) -> Option<Arc<ArrF>> {
    match &regs[r as usize] {
        Value::Ptr(slot) => match &*slot.lock() {
            Value::ArrF(a) => Some(a.clone()),
            _ => None,
        },
        _ => None,
    }
}

fn cell_arri(regs: &[Value], r: Reg) -> Option<Arc<ArrI>> {
    match &regs[r as usize] {
        Value::Ptr(slot) => match &*slot.lock() {
            Value::ArrI(a) => Some(a.clone()),
            _ => None,
        },
        _ => None,
    }
}

fn reg_int(regs: &[Value], r: Reg) -> Option<i64> {
    match regs[r as usize] {
        Value::Int(v) => Some(v),
        _ => None,
    }
}

fn reg_float(regs: &[Value], r: Reg) -> Option<f64> {
    match regs[r as usize] {
        Value::Float(v) => Some(v),
        _ => None,
    }
}

fn run_matvec_rows(kind: &KernelKind, regs: &mut [Value], consts: &[Value]) -> Result<(), Bail> {
    let KernelKind::MatvecRows {
        rowcell,
        j,
        k,
        bound,
        acc,
        xcell,
        acell,
        icell,
        qcell,
        ub,
        sk,
    } = *kind
    else {
        return Err(BAIL_TYPE);
    };
    let (Some(rows), Some(xv), Some(av), Some(ic), Some(qv)) = (
        cell_arri(regs, rowcell),
        cell_arrf(regs, xcell),
        cell_arrf(regs, acell),
        cell_arri(regs, icell),
        cell_arrf(regs, qcell),
    ) else {
        return Err(BAIL_TYPE);
    };
    let _fence = qv.write_fence();
    let (Some(mut jv), Some(ubv)) = (reg_int(regs, j), reg_int(regs, ub)) else {
        return Err(BAIL_TYPE);
    };
    let Some(Value::Float(seed)) = consts.get(sk as usize) else {
        return Err(BAIL_TYPE);
    };
    let seed = *seed;
    let rc = rows.cells();
    let xc = xv.cells();
    let ac = av.cells();
    let icc = ic.cells();
    let qc = qv.cells();
    let xn = xc.len() as i64;
    let an = ac.len() as i64;
    let icn = icc.len() as i64;
    let qn = qc.len() as i64;
    // Gather bounds check hoisted to kernel entry: when the cached
    // min/max of the index array proves every `colidx` element lands
    // inside `a`, the hot inner loop runs with no per-element check at
    // all. The hint is seqlock-validated against writes, and any array
    // this kernel doesn't prove stays on the checked paths below.
    let hoisted = ic.range_hint().is_some_and(|(lo, hi)| lo >= 0 && hi < an);
    // Final inner-loop state of the last *completed* row: on a mid-row
    // bail the interpreter replays the failing row from the head, so the
    // registers must look exactly as they did when that row started.
    let mut last: Option<(i64, i64, f64)> = None;
    let bail = |regs: &mut [Value], jv: i64, last: Option<(i64, i64, f64)>, why: Bail| {
        regs[j as usize] = Value::Int(jv);
        if let Some((kv, bv, s)) = last {
            regs[k as usize] = Value::Int(kv);
            regs[bound as usize] = Value::Int(bv);
            regs[acc as usize] = Value::Float(s);
        }
        Err(why)
    };
    // do-while: any jump to the head runs at least one row.
    loop {
        let Some(jo) = jv.checked_add(1) else {
            return bail(regs, jv, last, BAIL_OVERFLOW);
        };
        if jv < 0 || jo as usize >= rc.len() {
            return bail(regs, jv, last, BAIL_BOUNDS);
        }
        // SAFETY: jv and jo bounds-checked just above; OpenMP
        // no-data-race contract for the elements themselves.
        let mut kv = unsafe { *rc.get_unchecked(jv as usize).get() };
        let bv = unsafe { *rc.get_unchecked(jo as usize).get() };
        let mut s = seed;
        if hoisted && kv >= 0 && bv <= xn && bv <= icn {
            // Hottest path: k-range proven at row entry, gathered
            // indexes proven at kernel entry — zero checks per element.
            while kv < bv {
                // SAFETY: 0 <= kv < bv <= len for both arrays, and the
                // range hint proved 0 <= colidx[*] < an.
                let xe = unsafe { *xc.get_unchecked(kv as usize).get() };
                let ie = unsafe { *icc.get_unchecked(kv as usize).get() };
                let ae = unsafe { *ac.get_unchecked(ie as usize).get() };
                // Mul then add, matching the interpreter's FmaGather
                // exactly (no fused multiply-add: rounding must agree).
                s += xe * ae;
                kv = kv.wrapping_add(1);
            }
        } else if kv >= 0 && bv <= xn && bv <= icn {
            // Hot path: the k-range is provably in bounds, only the
            // gathered index needs a per-element check.
            while kv < bv {
                // SAFETY: 0 <= kv < bv <= len for both arrays.
                let xe = unsafe { *xc.get_unchecked(kv as usize).get() };
                let ie = unsafe { *icc.get_unchecked(kv as usize).get() };
                if ie < 0 || ie >= an {
                    return bail(regs, jv, last, BAIL_BOUNDS);
                }
                // SAFETY: ie bounds-checked just above.
                let ae = unsafe { *ac.get_unchecked(ie as usize).get() };
                s += xe * ae;
                kv = kv.wrapping_add(1);
            }
        } else {
            while kv < bv {
                if kv < 0 || kv >= xn || kv >= icn {
                    return bail(regs, jv, last, BAIL_BOUNDS);
                }
                // SAFETY: kv bounds-checked just above.
                let xe = unsafe { *xc.get_unchecked(kv as usize).get() };
                let ie = unsafe { *icc.get_unchecked(kv as usize).get() };
                if ie < 0 || ie >= an {
                    return bail(regs, jv, last, BAIL_BOUNDS);
                }
                // SAFETY: ie bounds-checked just above.
                let ae = unsafe { *ac.get_unchecked(ie as usize).get() };
                s += xe * ae;
                kv = kv.wrapping_add(1);
            }
        }
        if jv >= qn {
            // `q[j] = s` would be out of bounds (jv >= 0 held above).
            return bail(regs, jv, last, BAIL_BOUNDS);
        }
        // SAFETY: jv bounds-checked against qn just above.
        unsafe { *qc.get_unchecked(jv as usize).get() = s };
        last = Some((kv, bv, s));
        jv = jv.wrapping_add(1);
        if jv >= ubv {
            regs[j as usize] = Value::Int(jv);
            regs[k as usize] = Value::Int(kv);
            regs[bound as usize] = Value::Int(bv);
            regs[acc as usize] = Value::Float(s);
            return Ok(());
        }
    }
}

/// The fused IS phase-4 pipeline. Every fallible condition of a bucket
/// — the `starts[b4]`/`starts[b4+1]` loads, the fill/prefix key range,
/// the rank-inc scan range, and (when the `buff2` range hint can't
/// prove it) the gathered indexes themselves — is validated *before*
/// the bucket's first store, so a bail always replays the whole bucket
/// interpreted against untouched memory and produces the identical
/// error. Scalar registers are written back eagerly per bucket in
/// program order, which resolves the register aliasing in the matched
/// stream for free.
fn run_rank_pipeline(kind: &KernelKind, regs: &mut [Value], consts: &[Value]) -> Result<(), Bail> {
    let KernelKind::RankPipeline {
        scell,
        rcell,
        bcell,
        b4,
        sd,
        ub,
        keylo,
        th,
        kh0,
        keyhi,
        st0,
        st,
        en0,
        en,
        kf,
        fc,
        p,
        ra,
        v,
        x,
        y,
        rb,
        v2,
        acc,
        k2,
        t3,
        kone,
        kfill,
        kinc,
    } = *kind
    else {
        return Err(BAIL_TYPE);
    };
    let (Some(sa), Some(rk), Some(bu)) = (
        cell_arri(regs, scell),
        cell_arri(regs, rcell),
        cell_arri(regs, bcell),
    ) else {
        return Err(BAIL_TYPE);
    };
    // Aliased arrays would break the kernel's proofs: `buff2 == ranks`
    // lets the unchecked rank-inc loop invalidate its own entry check,
    // and `starts == ranks` would let one bucket's (deferred) count
    // writes feed the next bucket's start loads. Leave those programs
    // to the interpreter (IS never aliases them).
    if Arc::ptr_eq(&bu, &rk) || Arc::ptr_eq(&sa, &rk) {
        return Err(BAIL_TYPE);
    }
    let _fence = rk.write_fence();
    let (Some(mut b4v), Some(sdv), Some(ubv)) =
        (reg_int(regs, b4), reg_int(regs, sd), reg_int(regs, ub))
    else {
        return Err(BAIL_TYPE);
    };
    let (Some(onev), Some(fcv), Some(cv)) = (
        const_int(consts, kone),
        const_int(consts, kfill),
        const_int(consts, kinc),
    ) else {
        return Err(BAIL_TYPE);
    };
    let sc = sa.cells();
    let rc = rk.cells();
    let bc = bu.cells();
    let sn = sc.len() as i64;
    let rn = rc.len() as i64;
    let bn = bc.len() as i64;
    let bail = |regs: &mut [Value], b4v: i64, why: Bail| {
        regs[b4 as usize] = Value::Int(b4v);
        Err(why)
    };
    // Per-bucket count buffer, reused across the claim. Holding the
    // bucket's counts in a fresh local allocation (instead of storing
    // through `ranks`' `UnsafeCell`s) buys three things: the fill
    // becomes one `resize` memset, the gather increments stop forcing
    // `buff2` re-loads (LLVM knows the buffer aliases nothing), and
    // the prefix pass fuses with the write-back — the only stores the
    // bucket makes to shared memory are its final rank values, which
    // the interpreter's fill+inc+prefix sequence would also leave.
    let mut buf: Vec<i64> = Vec::new();
    // do-while over the claimed buckets.
    loop {
        // --- per-bucket precheck: no stores before this point.
        // Integer arithmetic wraps like the interpreter's.
        let keylov = b4v.wrapping_mul(sdv);
        let thv = b4v.wrapping_add(onev);
        let keyhiv = thv.wrapping_mul(sdv);
        let b4o = b4v.wrapping_add(1);
        if b4v < 0 || b4v >= sn || b4o < 0 || b4o >= sn {
            return bail(regs, b4v, BAIL_BOUNDS);
        }
        // SAFETY: b4v and b4o bounds-checked just above; OpenMP
        // no-data-race contract for the elements themselves.
        let stv = unsafe { *sc.get_unchecked(b4v as usize).get() };
        let env = unsafe { *sc.get_unchecked(b4o as usize).get() };
        let fill_runs = keylov < keyhiv;
        if fill_runs && (keylov < 0 || keyhiv > rn) {
            return bail(regs, b4v, BAIL_BOUNDS);
        }
        let ri_runs = stv < env;
        if ri_runs && (stv < 0 || env > bn) {
            return bail(regs, b4v, BAIL_BOUNDS);
        }
        // Scalar writebacks follow bytecode program order (pc+0..pc+8).
        // A later bail in this bucket is still exact: the replay
        // recomputes every one of these deterministically from `b4`
        // and memory the kernel has not touched.
        regs[keylo as usize] = Value::Int(keylov);
        regs[th as usize] = Value::Int(thv);
        regs[kh0 as usize] = Value::Int(keyhiv);
        regs[keyhi as usize] = Value::Int(keyhiv);
        regs[st0 as usize] = Value::Int(stv);
        regs[st as usize] = Value::Int(stv);
        regs[en0 as usize] = Value::Int(env);
        regs[en as usize] = Value::Int(env);
        regs[kf as usize] = Value::Int(keylov);
        if fill_runs && keyhiv.wrapping_sub(keylov) <= (1 << 22) {
            let span = (keyhiv - keylov) as usize;
            // --- fill, deferred: the bucket's counts start at the
            // fill constant in the local buffer. Nothing is written
            // to `ranks` until the prefix pass below.
            buf.clear();
            buf.resize(span, fcv);
            regs[fc as usize] = Value::Int(fcv);
            regs[kf as usize] = Value::Int(keyhiv);
            // --- rank-inc into the buffer.
            regs[p as usize] = Value::Int(stv);
            if ri_runs {
                let (mut lastv, mut lastx, mut lasty) = (0i64, 0i64, 0i64);
                for pp in stv..env {
                    // SAFETY: pp range-checked at bucket entry.
                    let vv = unsafe { *bc.get_unchecked(pp as usize).get() };
                    if vv < keylov || vv >= keyhiv {
                        // A key outside its own bucket's range: the
                        // interpreter may accept it (anywhere in
                        // `ranks`), but it breaks the buffered-counts
                        // plan. This bucket has not written a single
                        // shared byte yet, so deopting at the bucket
                        // head replays it exactly.
                        return bail(regs, b4v, BAIL_BOUNDS);
                    }
                    lastv = vv;
                    // SAFETY: vv within [keylov, keyhiv) just checked.
                    let slot = unsafe { buf.get_unchecked_mut((vv - keylov) as usize) };
                    lastx = *slot;
                    lasty = lastx.wrapping_add(cv);
                    *slot = lasty;
                }
                regs[ra as usize] = Value::ArrI(rk.clone());
                regs[v as usize] = Value::Int(lastv);
                regs[x as usize] = Value::Int(lastx);
                regs[y as usize] = Value::Int(lasty);
                regs[rb as usize] = Value::ArrI(rk.clone());
                regs[v2 as usize] = Value::Int(lastv);
                regs[p as usize] = Value::Int(env);
            }
            // --- prefix fused with the write-back: the bucket's only
            // shared stores, identical to what fill+inc+prefix leave.
            regs[acc as usize] = Value::Int(stv);
            regs[k2 as usize] = Value::Int(keylov);
            let mut accv = stv;
            let mut t3v = 0i64;
            for (o, c) in buf.iter().enumerate() {
                t3v = *c;
                accv = accv.wrapping_add(t3v);
                // SAFETY: keylov + o < keyhiv <= rn, checked at entry.
                unsafe { *rc.get_unchecked(keylov as usize + o).get() = accv };
            }
            regs[t3 as usize] = Value::Int(t3v);
            regs[acc as usize] = Value::Int(accv);
            regs[k2 as usize] = Value::Int(keyhiv);
        } else {
            // Degenerate bucket (empty/overflowing key range, or one
            // too large to buffer): run the three phases directly
            // against shared memory, with a read-only pre-scan
            // guarding the unchecked gather.
            if ri_runs {
                for pp in stv..env {
                    // SAFETY: stv/env range-checked above.
                    let vv = unsafe { *bc.get_unchecked(pp as usize).get() };
                    if vv < 0 || vv >= rn {
                        return bail(regs, b4v, BAIL_BOUNDS);
                    }
                }
            }
            // --- fill: reset the bucket's count range.
            if fill_runs {
                // SAFETY: 0 <= keylov < keyhiv <= rn checked above; the
                // tight loop LLVM turns into a memset.
                for idx in keylov..keyhiv {
                    unsafe { *rc.get_unchecked(idx as usize).get() = fcv };
                }
                regs[fc as usize] = Value::Int(fcv);
                regs[kf as usize] = Value::Int(keyhiv);
            }
            // --- rank-inc: count this bucket's keys.
            regs[p as usize] = Value::Int(stv);
            if ri_runs {
                let (mut lastv, mut lastx, mut lasty) = (0i64, 0i64, 0i64);
                for pp in stv..env {
                    // SAFETY: pp range-checked at bucket entry; the
                    // gather index proven by the pre-scan (no-race
                    // contract for the values in between).
                    unsafe {
                        lastv = *bc.get_unchecked(pp as usize).get();
                        let ptr = rc.get_unchecked(lastv as usize).get();
                        lastx = *ptr;
                        lasty = lastx.wrapping_add(cv);
                        *ptr = lasty;
                    }
                }
                regs[ra as usize] = Value::ArrI(rk.clone());
                regs[v as usize] = Value::Int(lastv);
                regs[x as usize] = Value::Int(lastx);
                regs[y as usize] = Value::Int(lasty);
                regs[rb as usize] = Value::ArrI(rk.clone());
                regs[v2 as usize] = Value::Int(lastv);
                regs[p as usize] = Value::Int(env);
            }
            // --- prefix: counts become ranks, seeded by the start.
            regs[acc as usize] = Value::Int(stv);
            regs[k2 as usize] = Value::Int(keylov);
            if fill_runs {
                let mut accv = stv;
                let mut t3v = 0i64;
                for idx in keylov..keyhiv {
                    // SAFETY: same range as the fill above.
                    unsafe {
                        let ptr = rc.get_unchecked(idx as usize).get();
                        t3v = *ptr;
                        accv = accv.wrapping_add(t3v);
                        *ptr = accv;
                    }
                }
                regs[t3 as usize] = Value::Int(t3v);
                regs[acc as usize] = Value::Int(accv);
                regs[k2 as usize] = Value::Int(keyhiv);
            }
        }
        b4v = b4v.wrapping_add(1);
        if b4v >= ubv {
            regs[b4 as usize] = Value::Int(b4v);
            return Ok(());
        }
    }
}

fn reg_arrf(regs: &[Value], r: Reg) -> Option<Arc<ArrF>> {
    match &regs[r as usize] {
        Value::ArrF(a) => Some(a.clone()),
        _ => None,
    }
}

/// The interpreter's `@intToFloat(@floatToInt(v))` pair: a saturating
/// (NaN-to-zero) `as i64` cast widened straight back. This is the NPB
/// truncation primitive the symbolic verifier proved the callee uses.
#[inline(always)]
fn npb_trunc(v: f64) -> f64 {
    (v as i64) as f64
}

const R23: f64 = 0.000_000_119_209_289_550_781_25;
const T23: f64 = 8_388_608.0;
const R46: f64 = R23 * R23;
const T46: f64 = T23 * T23;

/// One NPB 46-bit LCG step, dataflow-identical to the verified callee
/// (see [`lcg_canonical`]): every multiply and subtract below is a node
/// of that DAG, so the result and the updated seed match the
/// interpreted `randlc` call bit for bit. `a1`/`a2` only depend on the
/// loop-invariant multiplier; the caller hoists them out of the batch.
#[inline(always)]
fn lcg_step(x: &mut f64, a1: f64, a2: f64) -> f64 {
    let x1 = npb_trunc(R23 * *x);
    let x2 = *x - T23 * x1;
    let t1 = a1 * x2 + a2 * x1;
    let t2 = npb_trunc(R23 * t1);
    let z = t1 - T23 * t2;
    let t3 = T23 * z + a2 * x2;
    let t4 = npb_trunc(R46 * t3);
    *x = t3 - T46 * t4;
    R46 * *x
}

/// The 23-bit halves `(a1, a2)` of a multiplier, `a = 2^23·a1 + a2`, as
/// the callee computes them on every call.
#[inline(always)]
fn lcg_split(a: f64) -> (f64, f64) {
    let a1 = npb_trunc(R23 * a);
    (a1, a - T23 * a1)
}

/// Independent jump-ahead streams [`run_lcg_fill`] advances per trip on
/// exact inputs. Chosen by measurement, the benchmark's `ep` op (2^18
/// deviates in claims of 2^15, the acceptance tail included, when a
/// kernel ran it): 1 stream 10.1 ms,
/// 4 streams 4.3 ms, 8 streams 3.9 ms, 16 streams 4.0 ms.
pub const LCG_STREAMS: usize = 8;

/// The exactness precondition of the leapfrog: an integer-valued double
/// in `[0, 2^46)` (`NaN` fails the first comparison). For such a seed
/// and multiplier every intermediate of [`lcg_step`] is an integer below
/// `2^47 < 2^53` — `a1·x2 + a2·x1 < 2^47`, `z < 2^23`, `t3 < 2^47`,
/// `x' < 2^46` — so no operation rounds and the step *is*
/// `a·x mod 2^46`: stepping by `a^N mod 2^46` from state `k` lands on
/// state `k + N` with the very bits N single steps produce.
#[inline]
fn lcg_exact(v: f64) -> bool {
    (0.0..T46).contains(&v) && npb_trunc(v) == v
}

fn run_lcg_fill(kind: &KernelKind, pc: u32, regs: &mut [Value]) -> Result<(), Bail> {
    let KernelKind::LcgFill {
        tcell,
        targ,
        aarg,
        areg,
        res,
        arr,
        j,
        lim,
    } = *kind
    else {
        return Err(BAIL_TYPE);
    };
    let (Some(xv), Some(mut jv), Some(limv), Some(av)) = (
        reg_arrf(regs, arr),
        reg_int(regs, j),
        reg_int(regs, lim),
        reg_float(regs, areg),
    ) else {
        return Err(BAIL_TYPE);
    };
    let _fence = xv.write_fence();
    let Value::Ptr(slot) = &regs[tcell as usize] else {
        return Err(BAIL_TYPE);
    };
    let slot = slot.clone();
    let mut t = match *slot.lock() {
        Value::Float(v) => v,
        _ => return Err(BAIL_TYPE),
    };
    // Seed-invariant halves of the multiplier, hoisted: the callee
    // recomputes them per call from the same `a`, so the values are
    // identical every iteration.
    let (a1, a2) = lcg_split(av);
    let xc = xv.cells();
    let xn = xc.len() as i64;
    let mut last: Option<f64> = None;
    const N: usize = LCG_STREAMS;
    if 0 <= jv && jv < limv && limv <= xn && limv - jv >= 2 * N as i64 {
        if lcg_exact(t) && lcg_exact(av) {
            // Leapfrog: `s[k]` is the state `k + 1` steps past `t`, and
            // every trip moves each of them N steps with `a^N mod 2^46`
            // (the same `lcg_step`, so also exact). The N chains share
            // nothing, so the ~80-cycle latency of one step overlaps
            // N-fold.
            let mut an = av;
            for _ in 1..N {
                lcg_step(&mut an, a1, a2);
            }
            let (an1, an2) = lcg_split(an);
            let mut s = [0.0f64; N];
            let mut d = [0.0f64; N];
            for k in 0..N {
                d[k] = lcg_step(&mut t, a1, a2);
                s[k] = t;
            }
            // One slice check for the whole claim (`0 <= jv`,
            // `limv <= xn` held on entry); the < N elements past it
            // take the loop below.
            let groups = (limv - jv) as usize / N;
            let out = &xc[jv as usize..jv as usize + groups * N];
            for (gi, group) in out.chunks_exact(N).enumerate() {
                if gi > 0 {
                    for k in 0..N {
                        d[k] = lcg_step(&mut s[k], an1, an2);
                    }
                }
                for (cell, &dk) in group.iter().zip(&d) {
                    // SAFETY: OpenMP no-data-race contract for the
                    // elements, as for the per-element store below.
                    unsafe { *cell.get() = dk };
                }
            }
            t = s[N - 1];
            last = Some(d[N - 1]);
            jv += (groups * N) as i64;
        } else {
            // A long in-bounds fill that runs one stream because its
            // seed or multiplier is not a 46-bit integer: say so.
            zomp::trace::deopt("lcg-fill:sequential", pc);
        }
    }
    // A do-while: entered at the body head, the loop runs its first
    // iteration before any test (the batch above counts as one).
    while last.is_none() || jv < limv {
        if jv < 0 || jv >= xn {
            // Bail *before* this iteration's call: the replay performs
            // the seed advance itself and then raises the store's
            // out-of-bounds error. Only the state the replayed
            // iteration reads is written back (`j` and the seed cell);
            // the arg window and `res` are rewritten by the replay
            // before anything reads them.
            regs[j as usize] = Value::Int(jv);
            *slot.lock() = Value::Float(t);
            return Err(BAIL_BOUNDS);
        }
        let d = lcg_step(&mut t, a1, a2);
        // SAFETY: jv bounds-checked just above; OpenMP no-data-race
        // contract for the elements themselves.
        unsafe { *xc.get_unchecked(jv as usize).get() = d };
        last = Some(d);
        jv = jv.wrapping_add(1);
    }
    // Normal exit. Interpreter frame state after the final test: the
    // call consumed the arg window (`Undefined`) and `res` holds the
    // last deviate.
    regs[targ as usize] = Value::Undefined;
    regs[aarg as usize] = Value::Undefined;
    regs[j as usize] = Value::Int(jv);
    if let Some(d) = last {
        regs[res as usize] = Value::Float(d);
    }
    *slot.lock() = Value::Float(t);
    Ok(())
}
