//! Native bulk-kernel tier (`--opt=3` / `Backend::Native`).
//!
//! The optimizer already fuses and type-specialises the NPB inner
//! loops, but an interpreted iteration still pays instruction dispatch
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
//! Matchers run on the *final* stream (constant folding, fusion and
//! static specialization have already happened), which is what makes
//! the shapes short and stable enough to match insn-by-insn.

use crate::bytecode::{ArithOp, BuiltinOp, CmpOp, CompiledFn, Image, Insn, OmpFn, PreOpt, Reg};
use crate::optimize::verify_fn;
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
    /// IS bucket-count loop:
    /// `do { b = keys[i] / sd; local[b] += c; i += 1 } while (i < ub)`.
    Histogram {
        keys: Reg,
        i: Reg,
        t: Reg,
        b: Reg,
        sd: Reg,
        local: Reg,
        ub: Reg,
        /// const-pool index of the increment (Int).
        k: u16,
    },
    /// IS permutation scatter:
    /// `do { t = keys[i]; d = t/sd; out[cur[d]] = t; cur[d] += c; i += 1 }
    ///  while (i < lim)`.
    Scatter {
        keys: Reg,
        i: Reg,
        t: Reg,
        t2: Reg,
        sd: Reg,
        bcell: Reg,
        b2: Reg,
        cur: Reg,
        c: Reg,
        lim: Reg,
        k: u16,
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
    /// `while (j < c * nk) { x[j] = randlc(&t, a); j += 1 }` where the
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
        /// Trip-limit register, recomputed `c * nk` at the loop head.
        lim: Reg,
        nk: Reg,
        /// Const-pool index of the Int factor `c`.
        k: u16,
    },
    /// EP acceptance tail over Gaussian pair candidates:
    /// `do { x1 = 2x[2i]-1; x2 = 2x[2i+1]-1; tt = x1²+x2²;
    /// if (tt <= 1) { t2 = sqrt(-2 ln tt / tt); q[max(|x1 t2|,|x2 t2|)] += 1;
    /// sx += x1 t2; sy += x2 t2 } i += 1 } while (i < nk)`.
    /// The eleven temporaries (`ra..rl`) are tracked so every register
    /// the body defines is written back with its exact final-iteration
    /// value (reject- and accept-path values differ; see the runner).
    EpPairs {
        i: Reg,
        nk: Reg,
        x: Reg,
        q: Reg,
        sx: Reg,
        sy: Reg,
        ra: Reg,
        rb: Reg,
        rc: Reg,
        rd: Reg,
        re: Reg,
        rf: Reg,
        rg: Reg,
        rh: Reg,
        ri: Reg,
        rj: Reg,
        rl: Reg,
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
            KernelKind::Histogram { i, .. } => i,
            KernelKind::RankPipeline { b4, .. } => b4,
            KernelKind::Scatter { i, .. } => i,
            KernelKind::LcgFill { j, .. } => j,
            KernelKind::EpPairs { i, .. } => i,
        }
    }

    /// Every shape's [`KernelKind::name`], in `match_at` order — the
    /// one kernel census: remarks build their "matches none of the N
    /// kernel shapes" note from it, and `every_installed_kernel_is_entered`
    /// requires the NPB ports to install and enter exactly these.
    pub const NAMES: [&'static str; 6] = [
        "matvec-rows",
        "histogram",
        "rank-pipeline",
        "scatter",
        "lcg-fill",
        "ep-pairs",
    ];

    /// Short stable name for disassembly (`bulkloop kernel0 (matvec-rows)`).
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::MatvecRows { .. } => "matvec-rows",
            KernelKind::Histogram { .. } => "histogram",
            KernelKind::RankPipeline { .. } => "rank-pipeline",
            KernelKind::Scatter { .. } => "scatter",
            KernelKind::LcgFill { .. } => "lcg-fill",
            KernelKind::EpPairs { .. } => "ep-pairs",
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
    pub fn visit_regs(&self, mut f: impl FnMut(Reg)) {
        match self.kind {
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
            } => {
                for r in [rowcell, j, k, bound, acc, xcell, acell, icell, qcell, ub] {
                    f(r);
                }
            }
            KernelKind::Histogram {
                keys,
                i,
                t,
                b,
                sd,
                local,
                ub,
                k: _,
            } => {
                for r in [keys, i, t, b, sd, local, ub] {
                    f(r);
                }
            }
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
                ..
            } => {
                for r in [
                    scell, rcell, bcell, b4, sd, ub, keylo, th, kh0, keyhi, st0, st, en0, en, kf,
                    fc, p, ra, v, x, y, rb, v2, acc, k2, t3,
                ] {
                    f(r);
                }
            }
            KernelKind::Scatter {
                keys,
                i,
                t,
                t2,
                sd,
                bcell,
                b2,
                cur,
                c,
                lim,
                k: _,
            } => {
                for r in [keys, i, t, t2, sd, bcell, b2, cur, c, lim] {
                    f(r);
                }
            }
            KernelKind::LcgFill {
                tcell,
                targ,
                aarg,
                areg,
                res,
                arr,
                j,
                lim,
                nk,
                k: _,
            } => {
                for r in [tcell, targ, aarg, areg, res, arr, j, lim, nk] {
                    f(r);
                }
            }
            KernelKind::EpPairs {
                i,
                nk,
                x,
                q,
                sx,
                sy,
                ra,
                rb,
                rc,
                rd,
                re,
                rf,
                rg,
                rh,
                ri,
                rj,
                rl,
            } => {
                for r in [
                    i, nk, x, q, sx, sy, ra, rb, rc, rd, re, rf, rg, rh, ri, rj, rl,
                ] {
                    f(r);
                }
            }
        }
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
            Insn::Arith { op, dst, a, b } | Insn::ArithFF { op, dst, a, b } => {
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
/// optimization and static specialization). A pre-pass classifies
/// every function as LCG-shaped or not so the loop matchers can see
/// *through* `Call` boundaries without borrowing the image twice.
pub fn install_image(image: &mut Image) {
    let nfuncs = image.funcs.len();
    let lcg: Vec<bool> = image.funcs.iter().map(lcg_callee).collect();
    for f in &mut image.funcs {
        install_fn(f, nfuncs, &lcg);
    }
}

fn install_fn(f: &mut CompiledFn, nfuncs: usize, lcg: &[bool]) {
    let orig = if f.pre_opt.is_none() {
        Some(f.code.clone())
    } else {
        None
    };
    let mut installed = false;
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
        installed = true;
    }
    // Typed-template tier: generic loops that missed every fixed
    // kernel shape (runs second so the specialised kernels win the
    // overlap; skips pcs covered by an installed kernel span).
    installed |= crate::templates::install_fn(f);
    if installed {
        rewrite_ws_begin_bulk(f);
        if let Some(code) = orig {
            f.pre_opt = Some(PreOpt {
                code,
                nconsts: f.consts.len(),
                nregs: f.nregs,
            });
        }
        if let Err(e) = verify_fn(f, nfuncs) {
            panic!("kernel installation produced invalid bytecode: {e}");
        }
    }
}

/// Retarget the `omp.internal.ws_begin` call enclosing each installed
/// kernel or template to `ws_begin_bulk`: the chunk body is (dominated
/// by) a native loop, which handles any chunk length, so the dynamic dispatcher
/// may claim whole owner batches while its deck is uncontended instead of
/// paying the claim protocol and kernel entry per clause-sized chunk. The
/// schedule's *mapping* semantics are untouched — static chunking and
/// contended dynamic dispatch behave exactly as before (see
/// `zomp::schedule::DynamicDispatch::next_bulk_with_origin`).
fn rewrite_ws_begin_bulk(f: &mut CompiledFn) {
    let heads: Vec<usize> = (0..f.code.len())
        .filter(|&pc| {
            matches!(
                f.code[pc],
                Insn::BulkLoop { .. } | Insn::TemplateLoop { .. }
            )
        })
        .collect();
    for pc in heads {
        // Nearest preceding worksharing begin, the same resolution rule
        // as `loop_label` (a `WsBeginBulk` hit means another kernel in the
        // same loop already retargeted it).
        let begin = f.code[..pc].iter_mut().rev().find_map(|insn| match insn {
            Insn::OmpCall {
                func: func @ (OmpFn::WsBegin | OmpFn::WsBeginBulk),
                ..
            } => Some(func),
            _ => None,
        });
        if let Some(func) = begin {
            *func = OmpFn::WsBeginBulk;
        }
    }
}

/// Resolve the pragma label of the worksharing loop enclosing the
/// kernel at `pc`: the nearest preceding `omp.internal.ws_begin` call
/// whose first argument is a string constant (the preprocessor only
/// emits that argument for named units). `""` when absent.
pub(crate) fn loop_label(f: &CompiledFn, pc: usize) -> &'static str {
    for i in (0..pc).rev() {
        // Kernel installation may have retargeted the call to
        // `WsBeginBulk`, and remarks resolve labels post-install.
        let Insn::OmpCall {
            func: OmpFn::WsBegin | OmpFn::WsBeginBulk,
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
            if let Some(Value::Str(s)) = f.consts.get(k as usize) {
                return zomp::trace::intern(s);
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

fn const_int(f: &CompiledFn, k: u16) -> Option<i64> {
    match f.consts.get(k as usize)? {
        Value::Int(v) => Some(*v),
        _ => None,
    }
}

// Generic-or-specialized views. Static specialization
// rewrites `Arith`→`ArithII`/`ArithFF`, `Index`→`IndexI`/`IndexF`,
// `IndexSet`→`IndexSetI`/`IndexSetF` and `CmpJumpFalse`→`..II`/`..FF`
// wherever inference proves the operand types; the kernel semantics
// are identical either way (the specialized opcodes fall back to the
// generic ones on a type mismatch), so the matchers accept both forms.
fn as_arith(insn: Insn) -> Option<(ArithOp, Reg, Reg, Reg)> {
    match insn {
        Insn::Arith { op, dst, a, b }
        | Insn::ArithII { op, dst, a, b }
        | Insn::ArithFF { op, dst, a, b } => Some((op, dst, a, b)),
        _ => None,
    }
}

fn as_index(insn: Insn) -> Option<(Reg, Reg, Reg)> {
    match insn {
        Insn::Index { dst, arr, idx }
        | Insn::IndexI { dst, arr, idx }
        | Insn::IndexF { dst, arr, idx } => Some((dst, arr, idx)),
        _ => None,
    }
}

fn as_index_set(insn: Insn) -> Option<(Reg, Reg, Reg)> {
    match insn {
        Insn::IndexSet { arr, idx, src }
        | Insn::IndexSetI { arr, idx, src }
        | Insn::IndexSetF { arr, idx, src } => Some((arr, idx, src)),
        _ => None,
    }
}

fn as_cmp_jf(insn: Insn) -> Option<(CmpOp, Reg, Reg, u32)> {
    match insn {
        Insn::CmpJumpFalse { op, a, b, to }
        | Insn::CmpJumpFalseII { op, a, b, to }
        | Insn::CmpJumpFalseFF { op, a, b, to } => Some((op, a, b, to)),
        _ => None,
    }
}

fn match_at(f: &CompiledFn, pc: usize, lcg: &[bool]) -> Option<(KernelKind, u32)> {
    match_matvec_rows(f, pc)
        .or_else(|| match_histogram(f, pc))
        .or_else(|| match_rank_pipeline(f, pc))
        .or_else(|| match_scatter(f, pc))
        .or_else(|| match_lcg_fill(f, pc, lcg))
        .or_else(|| match_ep_pairs(f, pc))
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

fn match_histogram(f: &CompiledFn, pc: usize) -> Option<(KernelKind, u32)> {
    let code = &f.code;
    let (t, keys, i) = match *code.get(pc)? {
        Insn::DerefIndex { dst, cell, idx } => (dst, cell, idx),
        _ => return None,
    };
    let (b, sd) = match as_arith(*code.get(pc + 1)?)? {
        (ArithOp::Div, dst, a, b) if a == t => (dst, b),
        _ => return None,
    };
    let (local, kidx) = match *code.get(pc + 2)? {
        Insn::IncElemK {
            op: ArithOp::Add,
            arr,
            idx,
            k,
        } if idx == b => {
            const_int(f, k)?;
            (arr, k)
        }
        _ => return None,
    };
    let (ub, exit) = match *code.get(pc + 3)? {
        Insn::IncCmpJump {
            var,
            step: 1,
            limit,
            op: CmpOp::Lt,
            to,
        } if var == i && to as usize == pc => (limit, pc as u32 + 4),
        _ => return None,
    };
    if !disciplined(&[t, b, i], &[keys, sd, local, ub]) {
        return None;
    }
    Some((
        KernelKind::Histogram {
            keys,
            i,
            t,
            b,
            sd,
            local,
            ub,
            k: kidx,
        },
        exit,
    ))
}

fn match_scatter(f: &CompiledFn, pc: usize) -> Option<(KernelKind, u32)> {
    let code = &f.code;
    let (t, keys, i) = match *code.get(pc)? {
        Insn::DerefIndex { dst, cell, idx } => (dst, cell, idx),
        _ => return None,
    };
    let t2 = match *code.get(pc + 1)? {
        Insn::Move { dst, src } if src == t => dst,
        _ => return None,
    };
    let sd = match as_arith(*code.get(pc + 2)?)? {
        (ArithOp::Div, dst, a, b) if dst == t && a == t => b,
        _ => return None,
    };
    let (b2, bcell) = match *code.get(pc + 3)? {
        Insn::Deref { dst, ptr } => (dst, ptr),
        _ => return None,
    };
    let (c, cur) = match as_index(*code.get(pc + 4)?)? {
        (dst, arr, idx) if idx == t => (dst, arr),
        _ => return None,
    };
    match as_index_set(*code.get(pc + 5)?)? {
        (arr, idx, src) if arr == b2 && idx == c && src == t2 => {}
        _ => return None,
    }
    let k = match *code.get(pc + 6)? {
        Insn::IncElemK {
            op: ArithOp::Add,
            arr,
            idx,
            k,
        } if arr == cur && idx == t => {
            const_int(f, k)?;
            k
        }
        _ => return None,
    };
    let (lim, exit) = match *code.get(pc + 7)? {
        Insn::IncCmpJump {
            var,
            step: 1,
            limit,
            op: CmpOp::Lt,
            to,
        } if var == i && to as usize == pc => (limit, pc as u32 + 8),
        _ => return None,
    };
    if !disciplined(&[t, t2, b2, c, i], &[keys, sd, bcell, cur, lim]) {
        return None;
    }
    Some((
        KernelKind::Scatter {
            keys,
            i,
            t,
            t2,
            sd,
            bcell,
            b2,
            cur,
            c,
            lim,
            k,
        },
        exit,
    ))
}

/// The IS phase-4 bucket loop, fused across the adjacent
/// fill → rank-inc → prefix-sum triple (31 instructions; see
/// [`KernelKind::RankPipeline`]). The shape is the optimizer's
/// canonical output for the source idiom, the same bet
/// [`match_ep_pairs`] makes on its 32-instruction body:
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
            const_int(f, k)?;
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
            const_int(f, k)?;
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
            const_int(f, k)?;
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

/// EP deviate fill, matched *through* the call boundary:
/// ```text
/// pc+0  kmul   lim, k, nk          ; lim = c * nk (head, re-executed)
/// pc+1  cjfii  j < lim -> pc+7     ; while-loop guard
/// pc+2  move   targ, tcell         ; arg 0: the seed cell (&t)
/// pc+3  move   aarg, areg          ; arg 1: the multiplier
/// pc+4  call   res, f, targ..2     ; f verified LCG-shaped
/// pc+5  indexsetf arr[j], res
/// pc+6  incjump j += 1 -> pc+0
/// ```
/// Only installs when `lcg[f]` held for the callee, i.e. the call is
/// *provably* the NPB 46-bit LCG step; the kernel then runs the whole
/// batch against a local copy of the seed without frame setup per
/// element.
fn match_lcg_fill(f: &CompiledFn, pc: usize, lcg: &[bool]) -> Option<(KernelKind, u32)> {
    let code = &f.code;
    let Insn::ArithKL {
        op: ArithOp::Mul,
        dst: lim,
        k,
        b: nk,
    } = *code.get(pc)?
    else {
        return None;
    };
    const_int(f, k)?;
    let Insn::CmpJumpFalseII {
        op: CmpOp::Lt,
        a: j,
        b: lim2,
        to,
    } = *code.get(pc + 1)?
    else {
        return None;
    };
    if lim2 != lim || to as usize != pc + 7 {
        return None;
    }
    let Insn::Move {
        dst: targ,
        src: tcell,
    } = *code.get(pc + 2)?
    else {
        return None;
    };
    let Insn::Move {
        dst: aarg,
        src: areg,
    } = *code.get(pc + 3)?
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
    } = *code.get(pc + 4)?
    else {
        return None;
    };
    if base != targ || !lcg.get(func as usize).copied().unwrap_or(false) {
        return None;
    }
    let Insn::IndexSetF { arr, idx, src } = *code.get(pc + 5)? else {
        return None;
    };
    if idx != j || src != res {
        return None;
    }
    let Insn::IncJump {
        var,
        step: 1,
        to: to2,
    } = *code.get(pc + 6)?
    else {
        return None;
    };
    if var != j || to2 as usize != pc {
        return None;
    }
    // `lim` may alias `targ`/`aarg`/`res` (the head recomputes it before
    // the guard reads it), but the induction variable and the
    // loop-invariant operands must be untouched by every write.
    let writes = [lim, targ, aarg, res, j];
    if !all_distinct(&[j, lim]) || [targ, aarg, res].contains(&j) {
        return None;
    }
    if [nk, tcell, areg, arr].iter().any(|r| writes.contains(r)) {
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
            nk,
            k,
        },
        (pc + 7) as u32,
    ))
}

fn const_float_is(f: &CompiledFn, k: u16, want: f64) -> bool {
    matches!(f.consts.get(k as usize), Some(Value::Float(v)) if v.to_bits() == want.to_bits())
}

/// EP Gaussian-acceptance tail (do-while body at `pc..pc+31`,
/// back-edge at `pc+31`, exit `pc+32`): candidate pair from `x[2i]`,
/// `x[2i+1]`, radius test `tt <= 1.0`, Box–Muller transform,
/// histogram bump `q[l] += 1.0` and the two reduction accumulators.
/// All arithmetic in the body is total under the interpreter (wrapping
/// int ops, IEEE float ops, saturating `@floatToInt`), so the only
/// bail sources are the three array accesses.
#[rustfmt::skip]
fn match_ep_pairs(f: &CompiledFn, pc: usize) -> Option<(KernelKind, u32)> {
    let code = &f.code;
    let at = |o: usize| code.get(pc + o).copied();
    // pc+0: x1' = 2.0 (candidate scale)
    let Insn::Const { dst: ra, k: k2f } = at(0)? else { return None };
    if !const_float_is(f, k2f, 2.0) { return None; }
    // pc+1: rc = 2 * i
    let Insn::ArithKL { op: ArithOp::Mul, dst: rc, k: k2i, b: i } = at(1)? else { return None };
    if const_int(f, k2i)? != 2 { return None; }
    // pc+2: rd = x[rc]
    let Insn::IndexF { dst: rd, arr: x, idx } = at(2)? else { return None };
    if idx != rc { return None; }
    // pc+3..5: x1 = 2.0 * x[2i] - 1.0
    let Insn::ArithFF { op: ArithOp::Mul, dst: re, a, b } = at(3)? else { return None };
    if a != ra || b != rd { return None; }
    let Insn::ArithK { op: ArithOp::Sub, dst: rg, a, k: k1f } = at(4)? else { return None };
    if a != re || !const_float_is(f, k1f, 1.0) { return None; }
    let Insn::Move { dst, src } = at(5)? else { return None };
    if dst != ra || src != rg { return None; }
    // pc+6..10: x2 = 2.0 * x[2i+1] - 1.0
    let Insn::Const { dst: rb, k } = at(6)? else { return None };
    if !const_float_is(f, k, 2.0) { return None; }
    let Insn::IndexOff { dst, arr, idx, off: 1 } = at(7)? else { return None };
    if dst != rg || arr != x || idx != rc { return None; }
    let Insn::ArithFF { op: ArithOp::Mul, dst: rh, a, b } = at(8)? else { return None };
    if a != rb || b != rg { return None; }
    let Insn::ArithK { op: ArithOp::Sub, dst: rj, a, k } = at(9)? else { return None };
    if a != rh || !const_float_is(f, k, 1.0) { return None; }
    let Insn::Move { dst, src } = at(10)? else { return None };
    if dst != rb || src != rj { return None; }
    // pc+11..14: tt = x1*x1 + x2*x2
    let Insn::ArithFF { op: ArithOp::Mul, dst, a, b } = at(11)? else { return None };
    if dst != rc || a != ra || b != ra { return None; }
    let Insn::ArithFF { op: ArithOp::Mul, dst, a, b } = at(12)? else { return None };
    if dst != rd || a != rj || b != rj { return None; }
    let Insn::ArithFF { op: ArithOp::Add, dst, a, b } = at(13)? else { return None };
    if dst != re || a != rc || b != rd { return None; }
    let Insn::Move { dst, src } = at(14)? else { return None };
    if dst != rc || src != re { return None; }
    // pc+15..16: if !(tt <= 1.0) skip the transform
    let Insn::Const { dst, k } = at(15)? else { return None };
    if dst != rd || !const_float_is(f, k, 1.0) { return None; }
    let Insn::CmpJumpFalseFF { op: CmpOp::Le, a, b, to } = at(16)? else { return None };
    if a != re || b != rd || to as usize != pc + 31 { return None; }
    // pc+17..21: t2 = sqrt(-2.0 * ln(tt) / tt)
    let Insn::Const { dst: rf, k } = at(17)? else { return None };
    if !const_float_is(f, k, -2.0) { return None; }
    let Insn::Builtin { dst, op: BuiltinOp::Log, base, n: 1, .. } = at(18)? else { return None };
    if dst != rh || base != rc { return None; }
    let Insn::ArithFF { op: ArithOp::Mul, dst: ri, a, b } = at(19)? else { return None };
    if a != rf || b != rh { return None; }
    let Insn::ArithFF { op: ArithOp::Div, dst, a, b } = at(20)? else { return None };
    if dst != rd || a != ri || b != rc { return None; }
    let Insn::Builtin { dst, op: BuiltinOp::Sqrt, base, n: 1, .. } = at(21)? else { return None };
    if dst != rj || base != rd { return None; }
    // pc+22..23: t3 = x1 * t2; t4 = x2 * t2
    let Insn::ArithFF { op: ArithOp::Mul, dst, a, b } = at(22)? else { return None };
    if dst != re || a != ra || b != rj { return None; }
    let Insn::ArithFF { op: ArithOp::Mul, dst, a, b } = at(23)? else { return None };
    if dst != rf || a != rb || b != rj { return None; }
    // pc+24..27: l = floatToInt(max(|t3|, |t4|))
    let Insn::Builtin { dst, op: BuiltinOp::Abs, base, n: 1, .. } = at(24)? else { return None };
    if dst != rh || base != re { return None; }
    let Insn::Builtin { dst, op: BuiltinOp::Abs, base, n: 1, .. } = at(25)? else { return None };
    if dst != ri || base != rf { return None; }
    let Insn::Builtin { dst: rg2, op: BuiltinOp::Max, base, n: 2, .. } = at(26)? else { return None };
    if rg2 != rg || base != rh || ri != rh + 1 { return None; }
    let Insn::Builtin { dst: rl, op: BuiltinOp::FloatToInt, base, n: 1, .. } = at(27)? else { return None };
    if base != rg { return None; }
    // pc+28: q[l] += 1.0
    let Insn::IncElemK { op: ArithOp::Add, arr: q, idx, k } = at(28)? else { return None };
    if idx != rl || !const_float_is(f, k, 1.0) { return None; }
    // pc+29..30: sx += t3; sy += t4
    let Insn::ArithFF { op: ArithOp::Add, dst: sx, a, b } = at(29)? else { return None };
    if a != sx || b != re { return None; }
    let Insn::ArithFF { op: ArithOp::Add, dst: sy, a, b } = at(30)? else { return None };
    if a != sy || b != rf { return None; }
    // pc+31: i += 1; while (i < nk)
    let Insn::IncCmpJump { var, step: 1, limit: nk, op: CmpOp::Lt, to } = at(31)? else { return None };
    if var != i || to as usize != pc { return None; }
    let writes = [i, sx, sy, ra, rb, rc, rd, re, rf, rg, rh, ri, rj, rl];
    if !disciplined(&writes, &[nk, x, q]) {
        return None;
    }
    Some((
        KernelKind::EpPairs {
            i, nk, x, q, sx, sy, ra, rb, rc, rd, re, rf, rg, rh, ri, rj, rl,
        },
        (pc + 32) as u32,
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
/// Int/Float/array shape. `bounds`: an index left its array. `div`:
/// division by zero or `i64::MIN / -1`. `overflow`: induction
/// arithmetic overflowed.
type Bail = &'static str;
const BAIL_TYPE: Bail = "type";
const BAIL_BOUNDS: Bail = "bounds";
const BAIL_DIV: Bail = "div";
const BAIL_OVERFLOW: Bail = "overflow";

/// An array a kernel is about to write through raw [`ArrF::cells`] /
/// [`ArrI::cells`] storage, held open for a seqlock write fence so
/// concurrent [`ArrI::range_hint`] scans can't cache a range the
/// kernel's stores invalidate.
enum FencedArr {
    F(Arc<ArrF>, bool),
    I(Arc<ArrI>, bool),
}

impl FencedArr {
    fn begin_f(a: Option<Arc<ArrF>>) -> Option<FencedArr> {
        a.map(|a| {
            let b = a.write_fence_begin();
            FencedArr::F(a, b)
        })
    }
    fn begin_i(a: Option<Arc<ArrI>>) -> Option<FencedArr> {
        a.map(|a| {
            let b = a.write_fence_begin();
            FencedArr::I(a, b)
        })
    }
    fn end(self) {
        match self {
            FencedArr::F(a, b) => a.write_fence_end(b),
            FencedArr::I(a, b) => a.write_fence_end(b),
        }
    }
}

/// Open write fences on every array the kernel stores into (resolved
/// best-effort: an unresolvable register means the kernel is about to
/// bail on its own type precheck without writing anything).
fn begin_fences(kind: &KernelKind, regs: &[Value]) -> [Option<FencedArr>; 2] {
    match *kind {
        KernelKind::MatvecRows { qcell, .. } => [FencedArr::begin_f(cell_arrf(regs, qcell)), None],
        KernelKind::Histogram { local, .. } => [FencedArr::begin_i(reg_arri(regs, local)), None],
        KernelKind::RankPipeline { rcell, .. } => {
            [FencedArr::begin_i(cell_arri(regs, rcell)), None]
        }
        KernelKind::Scatter { bcell, cur, .. } => [
            FencedArr::begin_i(cell_arri(regs, bcell)),
            FencedArr::begin_i(reg_arri(regs, cur)),
        ],
        KernelKind::LcgFill { arr, .. } => [FencedArr::begin_f(reg_arrf(regs, arr)), None],
        KernelKind::EpPairs { q, .. } => [FencedArr::begin_f(reg_arrf(regs, q)), None],
    }
}

fn run_inner(desc: &KernelDesc, pc: u32, regs: &mut [Value], consts: &[Value]) -> Result<(), Bail> {
    let fences = begin_fences(&desc.kind, regs);
    let r = match desc.kind {
        KernelKind::MatvecRows { .. } => run_matvec_rows(&desc.kind, regs, consts),
        KernelKind::Histogram { .. } => run_histogram(&desc.kind, regs, consts),
        KernelKind::RankPipeline { .. } => run_rank_pipeline(&desc.kind, regs, consts),
        KernelKind::Scatter { .. } => run_scatter(&desc.kind, regs, consts),
        KernelKind::LcgFill { .. } => run_lcg_fill(&desc.kind, pc, regs, consts),
        KernelKind::EpPairs { .. } => run_ep_pairs(&desc.kind, regs),
    };
    for f in fences.into_iter().flatten() {
        f.end();
    }
    r
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

fn reg_arri(regs: &[Value], r: Reg) -> Option<Arc<ArrI>> {
    match &regs[r as usize] {
        Value::ArrI(a) => Some(a.clone()),
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

/// `i64::MIN / -1` overflows (a panic in the interpreter's checked
/// division as well); treat it as a deopt so the interpreter owns it.
fn div_ok(x: i64, y: i64) -> bool {
    y != 0 && !(y == -1 && x == i64::MIN)
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

fn run_histogram(kind: &KernelKind, regs: &mut [Value], consts: &[Value]) -> Result<(), Bail> {
    let KernelKind::Histogram {
        keys,
        i,
        t,
        b,
        sd,
        local,
        ub,
        k,
    } = *kind
    else {
        return Err(BAIL_TYPE);
    };
    let (Some(ka), Some(la)) = (cell_arri(regs, keys), reg_arri(regs, local)) else {
        return Err(BAIL_TYPE);
    };
    let (Some(mut iv), Some(sdv), Some(ubv)) =
        (reg_int(regs, i), reg_int(regs, sd), reg_int(regs, ub))
    else {
        return Err(BAIL_TYPE);
    };
    let Some(Value::Int(c)) = consts.get(k as usize) else {
        return Err(BAIL_TYPE);
    };
    let c = *c;
    let kc = ka.cells();
    let lc = la.cells();
    let kn = kc.len() as i64;
    let ln = lc.len() as i64;
    // Key-range bounds check hoisted to kernel entry, mirroring the CG
    // gather hoist: the cached min/max of the key array proves every
    // bucket index `key / sd` lands inside `local` (division by a
    // positive divisor is monotone, so the quotient range is
    // `[lo/sd, hi/sd]`), and the whole induction range is validated
    // up front — the hot loop then runs with zero per-element checks.
    // A power-of-two divisor further strength-reduces the division to
    // a shift, exact because the hint proves the keys nonnegative
    // (truncating and flooring division agree there).
    let end = if ubv > iv { ubv } else { iv.wrapping_add(1) };
    if iv >= 0
        && iv < end
        && end <= kn
        && sdv > 0
        && ka
            .range_hint()
            .is_some_and(|(lo, hi)| lo >= 0 && hi / sdv < ln)
    {
        let (mut tv, mut bv) = (0i64, 0i64);
        // A fresh local count buffer breaks the `UnsafeCell` aliasing
        // chain: without it LLVM must assume every count increment may
        // clobber the key array and re-load it each iteration. Copied
        // in and flushed out around the loop, so it pays off when the
        // buffer is small next to the claim; an aliased key/count pair
        // must observe its own stores, which only the direct loops
        // below reproduce.
        if ln <= end - iv && ln <= (1 << 16) && !Arc::ptr_eq(&ka, &la) {
            let mut buf: Vec<i64> = (0..ln as usize)
                .map(|j| unsafe { *lc.get_unchecked(j).get() })
                .collect();
            if sdv & (sdv - 1) == 0 {
                let s = sdv.trailing_zeros();
                for idx in iv..end {
                    // SAFETY: idx < end <= kn; the range hint proved
                    // 0 <= key >> s < ln. OpenMP no-data-race contract
                    // for the elements themselves.
                    tv = unsafe { *kc.get_unchecked(idx as usize).get() };
                    bv = tv >> s;
                    // SAFETY: bucket index proven by the hint.
                    unsafe {
                        let p = buf.get_unchecked_mut(bv as usize);
                        *p = p.wrapping_add(c);
                    }
                }
            } else {
                for idx in iv..end {
                    // SAFETY: as above, with the exact division.
                    tv = unsafe { *kc.get_unchecked(idx as usize).get() };
                    bv = tv / sdv;
                    // SAFETY: bucket index proven by the hint.
                    unsafe {
                        let p = buf.get_unchecked_mut(bv as usize);
                        *p = p.wrapping_add(c);
                    }
                }
            }
            for (j, v) in buf.iter().enumerate() {
                // SAFETY: j < ln by construction.
                unsafe { *lc.get_unchecked(j).get() = *v };
            }
        } else if sdv & (sdv - 1) == 0 {
            let s = sdv.trailing_zeros();
            for idx in iv..end {
                // SAFETY: idx < end <= kn; the range hint proved
                // 0 <= key >> s < ln. OpenMP no-data-race contract for
                // the elements themselves.
                tv = unsafe { *kc.get_unchecked(idx as usize).get() };
                bv = tv >> s;
                unsafe {
                    let p = lc.get_unchecked(bv as usize).get();
                    *p = (*p).wrapping_add(c);
                }
            }
        } else {
            for idx in iv..end {
                // SAFETY: as above, with the exact division.
                tv = unsafe { *kc.get_unchecked(idx as usize).get() };
                bv = tv / sdv;
                unsafe {
                    let p = lc.get_unchecked(bv as usize).get();
                    *p = (*p).wrapping_add(c);
                }
            }
        }
        regs[i as usize] = Value::Int(end);
        regs[t as usize] = Value::Int(tv);
        regs[b as usize] = Value::Int(bv);
        return Ok(());
    }
    // do-while: the body always runs at least once.
    loop {
        if iv < 0 || iv >= kn {
            regs[i as usize] = Value::Int(iv);
            return Err(BAIL_BOUNDS);
        }
        // SAFETY: iv bounds-checked just above.
        let tv = unsafe { *kc.get_unchecked(iv as usize).get() };
        if !div_ok(tv, sdv) {
            regs[i as usize] = Value::Int(iv);
            return Err(BAIL_DIV);
        }
        let bv = tv / sdv;
        if bv < 0 || bv >= ln {
            regs[i as usize] = Value::Int(iv);
            return Err(BAIL_BOUNDS);
        }
        // SAFETY: bv bounds-checked just above.
        unsafe {
            let p = lc.get_unchecked(bv as usize).get();
            *p = (*p).wrapping_add(c);
        }
        iv = iv.wrapping_add(1);
        if iv >= ubv {
            regs[i as usize] = Value::Int(iv);
            regs[t as usize] = Value::Int(tv);
            regs[b as usize] = Value::Int(bv);
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
    let (Some(mut b4v), Some(sdv), Some(ubv)) =
        (reg_int(regs, b4), reg_int(regs, sd), reg_int(regs, ub))
    else {
        return Err(BAIL_TYPE);
    };
    let (Some(onev), Some(fcv), Some(cv)) = (
        const_int_v(consts, kone),
        const_int_v(consts, kfill),
        const_int_v(consts, kinc),
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

fn const_int_v(consts: &[Value], k: u16) -> Option<i64> {
    match consts.get(k as usize)? {
        Value::Int(v) => Some(*v),
        _ => None,
    }
}

fn run_scatter(kind: &KernelKind, regs: &mut [Value], consts: &[Value]) -> Result<(), Bail> {
    let KernelKind::Scatter {
        keys,
        i,
        t,
        t2,
        sd,
        bcell,
        b2,
        cur,
        c,
        lim,
        k,
    } = *kind
    else {
        return Err(BAIL_TYPE);
    };
    let (Some(ka), Some(ba), Some(ca)) = (
        cell_arri(regs, keys),
        cell_arri(regs, bcell),
        reg_arri(regs, cur),
    ) else {
        return Err(BAIL_TYPE);
    };
    let (Some(mut iv), Some(sdv), Some(limv)) =
        (reg_int(regs, i), reg_int(regs, sd), reg_int(regs, lim))
    else {
        return Err(BAIL_TYPE);
    };
    let Some(Value::Int(inc)) = consts.get(k as usize) else {
        return Err(BAIL_TYPE);
    };
    let inc = *inc;
    let kc = ka.cells();
    let bc = ba.cells();
    let cc = ca.cells();
    let kn = kc.len() as i64;
    let bn = bc.len() as i64;
    let cn = cc.len() as i64;
    // Same hoist as `run_histogram`: the key-range hint proves every
    // cursor index `key / sd` lands inside `cur`, the induction range
    // is validated up front, and a power-of-two divisor becomes a
    // shift. Only the data-dependent cursor *value* still needs its
    // per-element check (the kernel itself advances it).
    let end = if limv > iv { limv } else { iv.wrapping_add(1) };
    if iv >= 0
        && iv < end
        && end <= kn
        && sdv > 0
        && ka
            .range_hint()
            .is_some_and(|(lo, hi)| lo >= 0 && hi / sdv < cn)
    {
        let shift = (sdv & (sdv - 1) == 0).then(|| sdv.trailing_zeros());
        let (mut tv, mut dv, mut cv) = (0i64, 0i64, 0i64);
        // Same trick as `run_histogram`: a fresh local cursor buffer
        // lets LLVM keep the cursor loads out of the way of the
        // scattered stores (through `UnsafeCell` it must otherwise
        // assume every `buff2` store clobbers a cursor). Legal only
        // when the cursor array genuinely is a distinct allocation —
        // an aliased cursor must see the key loads and scatter stores
        // punch through, which only the direct loop reproduces.
        if cn <= end - iv && cn <= (1 << 16) && !Arc::ptr_eq(&ba, &ca) && !Arc::ptr_eq(&ka, &ca) {
            let mut buf: Vec<i64> = (0..cn as usize)
                .map(|j| unsafe { *cc.get_unchecked(j).get() })
                .collect();
            let flush = |buf: &[i64]| {
                for (j, v) in buf.iter().enumerate() {
                    // SAFETY: j < cn by construction.
                    unsafe { *cc.get_unchecked(j).get() = *v };
                }
            };
            for idx in iv..end {
                // SAFETY: idx < end <= kn; the range hint proved
                // 0 <= key / sd < cn. OpenMP no-data-race contract for
                // the elements themselves.
                tv = unsafe { *kc.get_unchecked(idx as usize).get() };
                dv = match shift {
                    Some(s) => tv >> s,
                    None => tv / sdv,
                };
                // SAFETY: dv proven by the hint.
                cv = unsafe { *buf.get_unchecked(dv as usize) };
                if cv < 0 || cv >= bn {
                    // Flush the completed iterations' cursor state so
                    // the interpreted replay sees exactly the memory
                    // the element loop would have left, and errors on
                    // this same element.
                    flush(&buf);
                    regs[i as usize] = Value::Int(idx);
                    return Err(BAIL_BOUNDS);
                }
                // SAFETY: cv bounds-checked just above; dv as before.
                unsafe {
                    *bc.get_unchecked(cv as usize).get() = tv;
                    *buf.get_unchecked_mut(dv as usize) = cv.wrapping_add(inc);
                }
            }
            flush(&buf);
        } else {
            for idx in iv..end {
                // SAFETY: idx < end <= kn; the range hint proved
                // 0 <= key / sd < cn. OpenMP no-data-race contract for the
                // elements themselves.
                tv = unsafe { *kc.get_unchecked(idx as usize).get() };
                dv = match shift {
                    Some(s) => tv >> s,
                    None => tv / sdv,
                };
                // SAFETY: dv proven by the hint.
                cv = unsafe { *cc.get_unchecked(dv as usize).get() };
                if cv < 0 || cv >= bn {
                    regs[i as usize] = Value::Int(idx);
                    return Err(BAIL_BOUNDS);
                }
                // SAFETY: cv bounds-checked just above; dv as before. The
                // interpreter re-loads cur[dv] after the store, reproduced
                // by incrementing through the pointer after `bc` is written
                // (exact under aliasing).
                unsafe {
                    *bc.get_unchecked(cv as usize).get() = tv;
                    let p = cc.get_unchecked(dv as usize).get();
                    *p = (*p).wrapping_add(inc);
                }
            }
        }
        regs[i as usize] = Value::Int(end);
        regs[t as usize] = Value::Int(dv);
        regs[t2 as usize] = Value::Int(tv);
        regs[b2 as usize] = Value::ArrI(ba.clone());
        regs[c as usize] = Value::Int(cv);
        return Ok(());
    }
    loop {
        if iv < 0 || iv >= kn {
            regs[i as usize] = Value::Int(iv);
            return Err(BAIL_BOUNDS);
        }
        // SAFETY: iv bounds-checked just above.
        let tv = unsafe { *kc.get_unchecked(iv as usize).get() };
        if !div_ok(tv, sdv) {
            regs[i as usize] = Value::Int(iv);
            return Err(BAIL_DIV);
        }
        let dv = tv / sdv;
        if dv < 0 || dv >= cn {
            regs[i as usize] = Value::Int(iv);
            return Err(BAIL_BOUNDS);
        }
        // SAFETY: dv bounds-checked just above.
        let cv = unsafe { *cc.get_unchecked(dv as usize).get() };
        if cv < 0 || cv >= bn {
            regs[i as usize] = Value::Int(iv);
            return Err(BAIL_BOUNDS);
        }
        // SAFETY: cv bounds-checked just above.
        unsafe { *bc.get_unchecked(cv as usize).get() = tv };
        // Interpreter order: the cursor increment re-loads cur[dv]
        // after the store above (exact under aliasing).
        // SAFETY: dv bounds-checked above.
        unsafe {
            let p = cc.get_unchecked(dv as usize).get();
            *p = (*p).wrapping_add(inc);
        }
        iv = iv.wrapping_add(1);
        if iv >= limv {
            regs[i as usize] = Value::Int(iv);
            regs[t as usize] = Value::Int(dv);
            regs[t2 as usize] = Value::Int(tv);
            regs[b2 as usize] = Value::ArrI(ba.clone());
            regs[c as usize] = Value::Int(cv);
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
/// deviates in claims of 2^15, `ep-pairs` included): 1 stream 10.1 ms,
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

fn run_lcg_fill(
    kind: &KernelKind,
    pc: u32,
    regs: &mut [Value],
    consts: &[Value],
) -> Result<(), Bail> {
    let KernelKind::LcgFill {
        tcell,
        targ,
        aarg,
        areg,
        res,
        arr,
        j,
        lim,
        nk,
        k,
    } = *kind
    else {
        return Err(BAIL_TYPE);
    };
    let (Some(xv), Some(mut jv), Some(nkv), Some(av)) = (
        reg_arrf(regs, arr),
        reg_int(regs, j),
        reg_int(regs, nk),
        reg_float(regs, areg),
    ) else {
        return Err(BAIL_TYPE);
    };
    let Some(Value::Int(c)) = consts.get(k as usize) else {
        return Err(BAIL_TYPE);
    };
    // The head recomputes `lim = c * nk` every iteration with the
    // interpreter's wrapping semantics; it is constant across the batch.
    let limv = c.wrapping_mul(nkv);
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
    while jv < limv {
        if jv < 0 || jv >= xn {
            // Bail *before* this iteration's call: the replay performs
            // the seed advance itself and then raises the store's
            // out-of-bounds error. Only the state the replayed
            // iteration reads is written back (`j` and the seed cell);
            // the arg window and `res` are rewritten by the replay
            // before anything reads them.
            regs[j as usize] = Value::Int(jv);
            regs[lim as usize] = Value::Int(limv);
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
    // Normal exit. Interpreter frame state after the final guard: the
    // call consumed the arg window (`Undefined`), the head re-ran
    // `kmul` (so `lim` holds the Int limit even when it aliases
    // `aarg`), and `res` holds the last deviate. Zero-trip entries
    // only executed the head and the guard.
    if last.is_some() {
        regs[targ as usize] = Value::Undefined;
        regs[aarg as usize] = Value::Undefined;
    }
    regs[lim as usize] = Value::Int(limv);
    regs[j as usize] = Value::Int(jv);
    if let Some(d) = last {
        regs[res as usize] = Value::Float(d);
    }
    *slot.lock() = Value::Float(t);
    Ok(())
}

/// Final-iteration temporary values for [`run_ep_pairs`] writeback.
/// `any` is refreshed every iteration (both paths); `acc` only by
/// iterations that pass the radius test, matching which registers the
/// accept-path instructions define.
#[derive(Clone, Copy)]
struct EpLast {
    x1: f64,
    x2: f64,
    tt: f64,
    rd: f64,
    re: f64,
    rg: f64,
    rh: f64,
    rj: f64,
}

fn run_ep_pairs(kind: &KernelKind, regs: &mut [Value]) -> Result<(), Bail> {
    let KernelKind::EpPairs {
        i,
        nk,
        x,
        q,
        sx,
        sy,
        ra,
        rb,
        rc,
        rd,
        re,
        rf,
        rg,
        rh,
        ri,
        rj,
        rl,
    } = *kind
    else {
        return Err(BAIL_TYPE);
    };
    let (Some(xv), Some(qv), Some(mut iv), Some(nkv), Some(mut sxv), Some(mut syv)) = (
        reg_arrf(regs, x),
        reg_arrf(regs, q),
        reg_int(regs, i),
        reg_int(regs, nk),
        reg_float(regs, sx),
        reg_float(regs, sy),
    ) else {
        return Err(BAIL_TYPE);
    };
    let xc = xv.cells();
    let qc = qv.cells();
    let xn = xc.len() as i64;
    let qn = qc.len() as i64;
    let bail = |regs: &mut [Value], iv: i64, sxv: f64, syv: f64, why: Bail| {
        // Pre-iteration state only: every bail fires before the failing
        // iteration's first side effect, and the replay recomputes the
        // (deterministic) dataflow up to the identical error point.
        regs[i as usize] = Value::Int(iv);
        regs[sx as usize] = Value::Float(sxv);
        regs[sy as usize] = Value::Float(syv);
        Err(why)
    };
    let mut any;
    let mut acc: Option<(f64, f64, i64)> = None;
    // do-while: the loop head is the body's first instruction, so every
    // dispatch runs at least one iteration (the guard sits before the
    // BulkLoop and after the back-edge).
    loop {
        let ti = 2i64.wrapping_mul(iv);
        let ti1 = ti.wrapping_add(1);
        if ti < 0 || ti >= xn || ti1 < 0 || ti1 >= xn {
            return bail(regs, iv, sxv, syv, BAIL_BOUNDS);
        }
        // SAFETY: ti and ti1 bounds-checked just above.
        let e0 = unsafe { *xc.get_unchecked(ti as usize).get() };
        let e1 = unsafe { *xc.get_unchecked(ti1 as usize).get() };
        let x1 = 2.0 * e0 - 1.0;
        let x2 = 2.0 * e1 - 1.0;
        let tt = x1 * x1 + x2 * x2;
        any = EpLast {
            x1,
            x2,
            tt,
            rd: 1.0,
            re: tt,
            rg: e1,
            rh: 2.0 * e1,
            rj: x2,
        };
        // NaN fails `<=` exactly like the interpreter's CmpJumpFalseFF.
        if tt <= 1.0 {
            let ratio = (-2.0 * tt.ln()) / tt;
            let t2 = ratio.sqrt();
            let t3 = x1 * t2;
            let t4 = x2 * t2;
            let a3 = t3.abs();
            let a4 = t4.abs();
            // f64::max, matching the interpreter's Max builtin.
            let lv = a3.max(a4) as i64;
            if lv < 0 || lv >= qn {
                return bail(regs, iv, sxv, syv, BAIL_BOUNDS);
            }
            // SAFETY: lv bounds-checked just above.
            unsafe {
                let p = qc.get_unchecked(lv as usize).get();
                *p += 1.0;
            }
            sxv += t3;
            syv += t4;
            any.rd = ratio;
            any.re = t3;
            any.rg = a3.max(a4);
            any.rh = a3;
            any.rj = t2;
            acc = Some((t4, a4, lv));
        }
        iv = iv.wrapping_add(1);
        if iv >= nkv {
            break;
        }
    }
    // Normal exit: write back the accumulators and every temporary with
    // its exact final-iteration value. `rf`/`ri`/`rl` are only defined
    // by accept-path instructions, so they keep their pre-loop values
    // when every iteration of this run was rejected.
    regs[i as usize] = Value::Int(iv);
    regs[sx as usize] = Value::Float(sxv);
    regs[sy as usize] = Value::Float(syv);
    regs[ra as usize] = Value::Float(any.x1);
    regs[rb as usize] = Value::Float(any.x2);
    regs[rc as usize] = Value::Float(any.tt);
    regs[rd as usize] = Value::Float(any.rd);
    regs[re as usize] = Value::Float(any.re);
    regs[rg as usize] = Value::Float(any.rg);
    regs[rh as usize] = Value::Float(any.rh);
    regs[rj as usize] = Value::Float(any.rj);
    if let Some((t4, a4, lv)) = acc {
        regs[rf as usize] = Value::Float(t4);
        regs[ri as usize] = Value::Float(a4);
        regs[rl as usize] = Value::Int(lv);
    }
    Ok(())
}
