//! Static type inference over the block-structured IR.
//!
//! A forward dataflow over [`crate::ir`] basic blocks assigns every
//! register a lattice type per block entry. The result is an analysis
//! only: `zag --dump-ir` prints it ([`crate::ir::dump`]), and no pass of
//! the `--opt=3` pipeline reads it. Every instruction checks its operand
//! types when it runs, and the native tiers ([`crate::kernels`],
//! [`crate::templates`]) check theirs at loop entry.
//!
//! The lattice is deliberately flat: `Bottom < {Int, Float, Bool, …}
//! < Dynamic`. Joining two different concrete types goes straight to
//! `Dynamic`, except inside the pointer and reduction families which
//! collapse to their generic member (`Ptr` / `Red`) first. Calls are
//! handled with interprocedural summaries computed to fixpoint across
//! the image: a return type per function, and a parameter-type vector
//! seeded from (in priority order) the source-level type annotations
//! the parser recorded, then the join of every internal `Call` /
//! `fork_call` argument. Parameters with neither — entry points only
//! reachable from the host, and functions whose `Fn` value escapes
//! first-class — stay `Dynamic`.
//!
//! Annotation-seeded and cell-content types (`*f64` params, `NewCell`
//! of a known scalar) are *speculative*: Zag does not enforce
//! annotations at call boundaries, and an aliased `CellSet` can
//! change a cell's pointee type at any time. The printed types are
//! what inference assumed, not what the program is guaranteed to hold.

use crate::bytecode::{BuiltinOp, CompiledFn, Image, Insn, OmpFn, Reg};
use crate::ir;
use crate::optimize::visit_defs;
use crate::value::Value;

/// Static type of a register slot. One variant per runtime
/// [`Value`] shape inference tells apart, plus the two lattice
/// extremes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ty {
    /// Dataflow ⊥: no path has defined this slot yet. Never appears
    /// in the entry environment of a reachable block.
    Bottom,
    Int,
    Float,
    Bool,
    Str,
    /// `[]f64` shared array.
    ArrF,
    /// `[]i64` shared array.
    ArrI,
    /// Boxed scalar cell (`Value::Ptr`) of unknown pointee type.
    Ptr,
    /// Pointer to an `f64`: a cell currently holding a float, or an
    /// element pointer — either way `.*` yields `Float`. Speculative
    /// (see module docs).
    PtrF,
    /// Pointer to an `i64`.
    PtrI,
    /// Boxed shared array (`NewCell` of a `[]f64`): `.*` yields
    /// `ArrF`. The preprocessor boxes every `shared(...)` array this
    /// way, so the outlined-body cells dominating NPB loops land here.
    /// Speculative like the scalar cell types (see module docs).
    PtrAF,
    /// Boxed `[]i64` shared array.
    PtrAI,
    /// Element pointer into a `[]f64` (`&a[i]`).
    ElemPtrF,
    /// Element pointer into a `[]i64`.
    ElemPtrI,
    /// First-class function reference.
    FnRef,
    Void,
    /// Slot not yet initialised at runtime (`Value::Undefined`).
    Undef,
    /// Reduction handle of unknown element type.
    Red,
    /// Reduction handle over `i64` (seed was provably Int).
    RedI,
    /// Reduction handle over `f64`.
    RedF,
    /// Work-sharing iterator handle.
    Ws,
    /// Dataflow ⊤: statically unknown; the site stays generic.
    Dynamic,
}

impl Ty {
    /// Lattice join: `⊥ ∨ t = t`, `t ∨ t = t`; mismatches inside the
    /// pointer family collapse to the widest member that still derefs
    /// usefully (`PtrF`/`PtrI` when the pointee agrees, else `Ptr`),
    /// reduction handles collapse to `Red`, anything else is
    /// `Dynamic`.
    pub fn join(self, other: Ty) -> Ty {
        use Ty::*;
        match (self, other) {
            (Bottom, t) | (t, Bottom) => t,
            (a, b) if a == b => a,
            (PtrF | ElemPtrF, PtrF | ElemPtrF) => PtrF,
            (PtrI | ElemPtrI, PtrI | ElemPtrI) => PtrI,
            (
                Ptr | PtrF | PtrI | PtrAF | PtrAI | ElemPtrF | ElemPtrI,
                Ptr | PtrF | PtrI | PtrAF | PtrAI | ElemPtrF | ElemPtrI,
            ) => Ptr,
            (Red | RedI | RedF, Red | RedI | RedF) => Red,
            _ => Dynamic,
        }
    }

    /// Short stable name used by the `--dump-ir` pretty-printer.
    pub fn name(self) -> &'static str {
        match self {
            Ty::Bottom => "none",
            Ty::Int => "i64",
            Ty::Float => "f64",
            Ty::Bool => "bool",
            Ty::Str => "str",
            Ty::ArrF => "[]f64",
            Ty::ArrI => "[]i64",
            Ty::Ptr => "*any",
            Ty::PtrF => "ptr.f64",
            Ty::PtrI => "ptr.i64",
            Ty::PtrAF => "ptr.[]f64",
            Ty::PtrAI => "ptr.[]i64",
            Ty::ElemPtrF => "*f64",
            Ty::ElemPtrI => "*i64",
            Ty::FnRef => "fn",
            Ty::Void => "void",
            Ty::Undef => "undef",
            Ty::Red => "red",
            Ty::RedI => "red.i64",
            Ty::RedF => "red.f64",
            Ty::Ws => "ws",
            Ty::Dynamic => "dyn",
        }
    }

    fn of_const(v: &Value) -> Ty {
        match v {
            Value::Int(_) => Ty::Int,
            Value::Float(_) => Ty::Float,
            Value::Bool(_) => Ty::Bool,
            Value::Str(_) => Ty::Str,
            Value::Fn(_) => Ty::FnRef,
            Value::Void => Ty::Void,
            Value::Undefined => Ty::Undef,
            _ => Ty::Dynamic,
        }
    }

    /// Static type named by a source-level annotation, `None` for
    /// `any` and everything we do not model. `*f64`/`*i64` map to the
    /// pointee-typed pointer variants: a `&local` argument and a
    /// `&arr[i]` element pointer both deref to the annotated scalar.
    pub fn of_decl(s: &str) -> Option<Ty> {
        Some(match s {
            "i64" => Ty::Int,
            "f64" => Ty::Float,
            "bool" => Ty::Bool,
            "str" => Ty::Str,
            "[]f64" => Ty::ArrF,
            "[]i64" => Ty::ArrI,
            "*f64" => Ty::PtrF,
            "*i64" => Ty::PtrI,
            _ => return None,
        })
    }
}

/// Inference result for one function.
pub struct FnTypes {
    /// Register types at each block entry; `None` = block is
    /// statically unreachable.
    pub entry: Vec<Option<Vec<Ty>>>,
    /// Join of all reachable `ret` sources (`Bottom` if the function
    /// never returns normally).
    pub ret: Ty,
}

/// Inference result for a whole image.
pub struct ImageTypes {
    /// Per-function block-entry environments, indexed like
    /// `image.funcs`.
    pub fns: Vec<FnTypes>,
    /// Per-function return-type summaries (the fixpoint the `fns`
    /// environments were computed against).
    pub rets: Vec<Ty>,
    /// Per-function parameter-type summaries: annotation pins plus
    /// internal call-site evidence, `Dynamic` where neither exists.
    pub params: Vec<Vec<Ty>>,
}

/// Run type inference over every function, iterating the
/// interprocedural return and parameter summaries to fixpoint.
pub fn infer_image(image: &Image) -> ImageTypes {
    let firs: Vec<ir::FnIr> = image.funcs.iter().map(ir::lift).collect();
    let n = image.funcs.len();
    let mut rets = vec![Ty::Bottom; n];
    // A function whose `Fn` const appears in some pool is usable
    // first-class: it can be stored, passed around, and invoked via
    // `CallValue` with arguments we cannot enumerate. Compiler-
    // generated outlined bodies are exempt — their consts pair only
    // with `fork_call`, whose arguments the seeding pass reads.
    let mut open = vec![false; n];
    for f in &image.funcs {
        for v in &f.consts {
            if let Value::Fn(name) = v {
                if let Some(&fi) = image.by_name.get(&**name) {
                    if !image.funcs[fi].name.starts_with("__omp_outlined_") {
                        open[fi] = true;
                    }
                }
            }
        }
    }
    // Source annotations pin a parameter's type outright (speculative,
    // see module docs); everything else accumulates
    // call-site evidence starting from ⊥.
    let pins: Vec<Vec<Option<Ty>>> = image
        .funcs
        .iter()
        .map(|f| f.param_tys.iter().map(|s| Ty::of_decl(s)).collect())
        .collect();
    let mut params: Vec<Vec<Ty>> = image
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| {
            (0..f.nparams)
                .map(|j| match pins[i].get(j) {
                    Some(&Some(t)) => t,
                    _ if open[i] => Ty::Dynamic,
                    _ => Ty::Bottom,
                })
                .collect()
        })
        .collect();
    loop {
        let mut fns = Vec::with_capacity(n);
        let mut changed = false;
        for (i, f) in image.funcs.iter().enumerate() {
            let ft = infer_fn(f, &firs[i], &rets, &params[i]);
            let joined = rets[i].join(ft.ret);
            if joined != rets[i] {
                rets[i] = joined;
                changed = true;
            }
            fns.push(ft);
        }
        for (i, f) in image.funcs.iter().enumerate() {
            seed_params(
                f,
                &firs[i],
                &fns[i],
                &rets,
                image,
                &pins,
                &mut params,
                &mut changed,
            );
        }
        // Summaries only ever move up the lattice, so this converges
        // in a handful of rounds.
        if changed {
            continue;
        }
        // A parameter still ⊥ has no internal caller and never will:
        // the function is only reachable from the host, which can
        // pass anything. Promoting may widen return summaries, so
        // fall through into another fixpoint round.
        let mut promoted = false;
        for p in params.iter_mut().flat_map(|v| v.iter_mut()) {
            if *p == Ty::Bottom {
                *p = Ty::Dynamic;
                promoted = true;
            }
        }
        if !promoted {
            return ImageTypes { fns, rets, params };
        }
    }
}

/// Join call-site argument evidence into the parameter summaries.
/// Walks every reachable block with the converged environments,
/// tracking which registers provably hold a specific `Fn` const so
/// `fork_call` and `CallValue` callees resolve without a CFG walk
/// (the const is emitted adjacent to its use by codegen; losing track
/// across a block boundary just costs evidence, never correctness).
#[allow(clippy::too_many_arguments)]
fn seed_params(
    f: &CompiledFn,
    fir: &ir::FnIr,
    types: &FnTypes,
    rets: &[Ty],
    image: &Image,
    pins: &[Vec<Option<Ty>>],
    params: &mut [Vec<Ty>],
    changed: &mut bool,
) {
    let join_arg = |params: &mut [Vec<Ty>], fi: usize, j: usize, t: Ty, changed: &mut bool| {
        if pins[fi].get(j).is_some_and(|p| p.is_some()) {
            return; // annotation pin wins over evidence
        }
        if let Some(slot) = params[fi].get_mut(j) {
            let joined = slot.join(t);
            if joined != *slot {
                *slot = joined;
                *changed = true;
            }
        }
    };
    for (b, blk) in fir.blocks.iter().enumerate() {
        let Some(entry) = &types.entry[b] else {
            continue;
        };
        let mut env = entry.clone();
        let mut known_fn: Vec<Option<usize>> = vec![None; f.nregs];
        for insn in &f.code[blk.start..=blk.end] {
            // New Fn-const knowledge this instruction establishes.
            let kf = match *insn {
                Insn::Const { dst, k } => Some((
                    dst,
                    match &f.consts[k as usize] {
                        Value::Fn(name) => image.by_name.get(&**name).copied(),
                        _ => None,
                    },
                )),
                Insn::Move { dst, src } => Some((dst, known_fn[src as usize])),
                _ => None,
            };
            match *insn {
                Insn::Call { func, base, n, .. } => {
                    let fi = func as usize;
                    for j in 0..(n as usize).min(image.funcs[fi].nparams) {
                        join_arg(params, fi, j, env[base as usize + j], changed);
                    }
                }
                Insn::CallValue {
                    callee, base, n, ..
                } => {
                    if let Some(fi) = known_fn[callee as usize] {
                        for j in 0..(n as usize).min(image.funcs[fi].nparams) {
                            join_arg(params, fi, j, env[base as usize + j], changed);
                        }
                    }
                    // Unknown callee: the target's Fn value escaped
                    // first-class, so `open` already made it Dynamic.
                }
                Insn::OmpCall {
                    func: OmpFn::ForkCall,
                    base,
                    n,
                    ..
                } => {
                    // fork_call([label,] nt, fname, args...): the label
                    // is statically a Str const when present, nt an
                    // Int; anything else means we cannot trust the
                    // layout, so contribute no evidence.
                    let b0 = base as usize;
                    let fnpos = match env.get(b0) {
                        Some(Ty::Str) => Some(b0 + 2),
                        Some(Ty::Int) => Some(b0 + 1),
                        _ => None,
                    };
                    if let Some(fnpos) = fnpos.filter(|&p| p < b0 + n as usize) {
                        if let Some(fi) = known_fn[fnpos] {
                            let nargs = b0 + n as usize - (fnpos + 1);
                            for j in 0..nargs.min(image.funcs[fi].nparams) {
                                join_arg(params, fi, j, env[fnpos + 1 + j], changed);
                            }
                        }
                    }
                }
                _ => {}
            }
            transfer(insn, &mut env, f, rets);
            // Fn-const knowledge dies with every register the instruction
            // defines (call argument windows included).
            visit_defs(insn, |d| known_fn[d as usize] = None);
            if let Some((d, v)) = kf {
                known_fn[d as usize] = v;
            }
        }
    }
}

/// Forward dataflow over one function's blocks.
fn infer_fn(f: &CompiledFn, fir: &ir::FnIr, rets: &[Ty], params: &[Ty]) -> FnTypes {
    let nb = fir.blocks.len();
    let mut entry: Vec<Option<Vec<Ty>>> = vec![None; nb];
    // Runtime truth at function entry: parameters hold caller values
    // (typed by the interprocedural summary), every other slot is
    // Value::Undefined.
    let mut env0 = vec![Ty::Undef; f.nregs];
    for (j, t) in env0.iter_mut().take(f.nparams).enumerate() {
        *t = params.get(j).copied().unwrap_or(Ty::Dynamic);
    }
    entry[0] = Some(env0);
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let mut env = entry[b].clone().expect("worklist block has env");
        let blk = &fir.blocks[b];
        for insn in &f.code[blk.start..=blk.end] {
            transfer(insn, &mut env, f, rets);
        }
        for &s in &blk.succs {
            match &mut entry[s] {
                Some(e) => {
                    let mut widened = false;
                    for (old, new) in e.iter_mut().zip(&env) {
                        let j = old.join(*new);
                        if j != *old {
                            *old = j;
                            widened = true;
                        }
                    }
                    if widened && !work.contains(&s) {
                        work.push(s);
                    }
                }
                None => {
                    entry[s] = Some(env.clone());
                    work.push(s);
                }
            }
        }
    }
    // Collect the return summary in a final deterministic pass now
    // that the environments have converged.
    let mut ret = Ty::Bottom;
    for (b, e) in entry.iter().enumerate() {
        let Some(e) = e else { continue };
        let mut env = e.clone();
        let blk = &fir.blocks[b];
        for insn in &f.code[blk.start..=blk.end] {
            match insn {
                Insn::Ret { src } => ret = ret.join(env[*src as usize]),
                Insn::RetVoid => ret = ret.join(Ty::Void),
                _ => {}
            }
            transfer(insn, &mut env, f, rets);
        }
    }
    FnTypes { entry, ret }
}

/// Result type of a binary arithmetic op given operand types. Mixed
/// or non-numeric operands raise at runtime, so `Dynamic` (the dst is
/// then never observed) is sound.
fn arith_ty(a: Ty, b: Ty) -> Ty {
    match (a, b) {
        (Ty::Int, Ty::Int) => Ty::Int,
        (Ty::Float, Ty::Float) => Ty::Float,
        _ => Ty::Dynamic,
    }
}

/// Element type of an indexed array.
fn elem_ty(arr: Ty) -> Ty {
    match arr {
        Ty::ArrF => Ty::Float,
        Ty::ArrI => Ty::Int,
        _ => Ty::Dynamic,
    }
}

/// Reduction-handle type for a seed value type.
fn red_of(seed: Ty) -> Ty {
    match seed {
        Ty::Int => Ty::RedI,
        Ty::Float => Ty::RedF,
        _ => Ty::Red,
    }
}

/// Element type carried by a reduction handle.
fn red_elem(h: Ty) -> Ty {
    match h {
        Ty::RedI => Ty::Int,
        Ty::RedF => Ty::Float,
        _ => Ty::Dynamic,
    }
}

/// Return type of an `omp.*` runtime call. `env`, `base` give the
/// argument types at the site — the reduction builtins' results are
/// typed by their seed/handle argument.
fn omp_ret_ty(func: OmpFn, env: &[Ty], base: Reg) -> Ty {
    use OmpFn::*;
    let arg = |i: usize| env.get(base as usize + i).copied().unwrap_or(Ty::Dynamic);
    match func {
        WsNext | IsMaster | SingleBegin | InParallel => Ty::Bool,
        WsLb | WsUb | TripCount | IfThreads => Ty::Int,
        GetThreadNum | GetNumThreads | GetMaxThreads | GetNumProcs | GetLevel => Ty::Int,
        GetWtime => Ty::Float,
        WsBegin => Ty::Ws,
        RedCell | RedLoopBegin => red_of(arg(1)),
        RedIdentity | RedGet | RedLoopEnd => red_elem(arg(0)),
        WsFini | Barrier | SingleEnd | CriticalEnter | CriticalExit | AtomicRmw | RedCombine
        | ForkCall | SetNumThreads => Ty::Void,
    }
}

/// Apply one instruction's effect to the environment. Must
/// over-approximate the interpreter.
fn transfer(insn: &Insn, env: &mut [Ty], f: &CompiledFn, rets: &[Ty]) {
    let get = |env: &[Ty], r: Reg| env[r as usize];
    let set = |env: &mut [Ty], r: Reg, t: Ty| env[r as usize] = t;
    // Argument windows die with their call, as in `optimize::visit_defs`.
    let clear_args = |env: &mut [Ty], base: Reg, n: u16| {
        for r in base..base + n as Reg {
            env[r as usize] = Ty::Undef;
        }
    };
    match *insn {
        Insn::Const { dst, k } => set(env, dst, Ty::of_const(&f.consts[k as usize])),
        Insn::Move { dst, src } => set(env, dst, get(env, src)),
        Insn::NewCell { dst, src } => {
            // The cell's pointee type is the boxed value's type at
            // creation — speculative past any aliased CellSet (module
            // docs).
            let t = match get(env, src) {
                Ty::Float => Ty::PtrF,
                Ty::Int => Ty::PtrI,
                Ty::ArrF => Ty::PtrAF,
                Ty::ArrI => Ty::PtrAI,
                _ => Ty::Ptr,
            };
            set(env, dst, t);
        }
        Insn::CellGet { dst, cell } => {
            let t = match get(env, cell) {
                Ty::PtrF => Ty::Float,
                Ty::PtrI => Ty::Int,
                Ty::PtrAF => Ty::ArrF,
                Ty::PtrAI => Ty::ArrI,
                _ => Ty::Dynamic,
            };
            set(env, dst, t);
        }
        Insn::CellSet { .. } | Insn::StorePtr { .. } => {}
        Insn::Deref { dst, ptr } => {
            let t = match get(env, ptr) {
                Ty::ElemPtrF | Ty::PtrF => Ty::Float,
                Ty::ElemPtrI | Ty::PtrI => Ty::Int,
                Ty::PtrAF => Ty::ArrF,
                Ty::PtrAI => Ty::ArrI,
                _ => Ty::Dynamic,
            };
            set(env, dst, t);
        }
        Insn::ElemAddr { dst, arr, .. } => {
            let t = match get(env, arr) {
                Ty::ArrF => Ty::ElemPtrF,
                Ty::ArrI => Ty::ElemPtrI,
                _ => Ty::Dynamic,
            };
            set(env, dst, t);
        }
        Insn::AddrDeref { dst, src } => {
            let t = match get(env, src) {
                t @ (Ty::Ptr
                | Ty::PtrF
                | Ty::PtrI
                | Ty::PtrAF
                | Ty::PtrAI
                | Ty::ElemPtrF
                | Ty::ElemPtrI) => t,
                _ => Ty::Dynamic,
            };
            set(env, dst, t);
        }
        Insn::Index { dst, arr, .. } | Insn::IndexOff { dst, arr, .. } => {
            let t = elem_ty(get(env, arr));
            set(env, dst, t);
        }
        Insn::IndexSet { .. } => {}
        Insn::Arith { op: _, dst, a, b } => {
            let t = arith_ty(get(env, a), get(env, b));
            set(env, dst, t);
        }
        Insn::ArithK { op: _, dst, a, k } => {
            let t = arith_ty(get(env, a), Ty::of_const(&f.consts[k as usize]));
            set(env, dst, t);
        }
        Insn::ArithKL { op: _, dst, k, b } => {
            let t = arith_ty(Ty::of_const(&f.consts[k as usize]), get(env, b));
            set(env, dst, t);
        }
        Insn::IncElemK { .. } => {}
        Insn::FmaIdx { dst, x, arr, .. } => {
            let prod = arith_ty(get(env, x), elem_ty(get(env, arr)));
            let t = arith_ty(get(env, dst), prod);
            set(env, dst, t);
        }
        Insn::FmaGather { dst, .. } => {
            // Float-only fused accumulator; the result joins the
            // accumulator with a gathered product whose types the
            // runtime re-checks anyway.
            set(env, dst, Ty::Dynamic);
        }
        Insn::DerefIndex { dst, cell, .. } | Insn::DerefIndexOff { dst, cell, .. } => {
            let t = match get(env, cell) {
                Ty::PtrAF => Ty::Float,
                Ty::PtrAI => Ty::Int,
                _ => Ty::Dynamic,
            };
            set(env, dst, t);
        }
        Insn::DerefIndexSet { .. } => {}
        Insn::Cmp { dst, .. } => set(env, dst, Ty::Bool),
        Insn::Neg { dst, src } => {
            let t = match get(env, src) {
                t @ (Ty::Int | Ty::Float) => t,
                _ => Ty::Dynamic,
            };
            set(env, dst, t);
        }
        Insn::Not { dst, .. } | Insn::Truthy { dst, .. } => set(env, dst, Ty::Bool),
        Insn::Jump { .. }
        | Insn::JumpIfFalse { .. }
        | Insn::JumpIfTrue { .. }
        | Insn::CmpJumpFalse { .. } => {}
        // The increment only succeeds when the counter was Int, so on
        // every path out of this instruction the register is Int.
        Insn::IncCmpJump { var, .. } | Insn::IncJump { var, .. } => set(env, var, Ty::Int),
        Insn::Call { dst, func, base, n } => {
            clear_args(env, base, n);
            let t = rets[func as usize];
            set(env, dst, if t == Ty::Bottom { Ty::Dynamic } else { t });
        }
        Insn::CallValue { dst, base, n, .. } => {
            clear_args(env, base, n);
            set(env, dst, Ty::Dynamic);
        }
        Insn::OmpCall { dst, func, base, n } => {
            // Result typing reads the argument types, so compute it
            // before the argument window is consumed.
            let t = omp_ret_ty(func, env, base);
            clear_args(env, base, n);
            set(env, dst, t);
        }
        // A claimed chunk's bounds are `Int`. The exit edge leaves both
        // registers as they were, but one transfer serves both edges:
        // typing is speculative, and the loop body is the only reader
        // that matters.
        Insn::WsNext { lb, ub, .. } => {
            set(env, lb, Ty::Int);
            set(env, ub, Ty::Int);
        }
        Insn::Builtin {
            dst, op, base, n, ..
        } => {
            let t = match op {
                BuiltinOp::IntToFloat
                | BuiltinOp::Sqrt
                | BuiltinOp::Log
                | BuiltinOp::Exp
                | BuiltinOp::Sin
                | BuiltinOp::Cos
                | BuiltinOp::Pow => Ty::Float,
                BuiltinOp::FloatToInt | BuiltinOp::Len => Ty::Int,
                BuiltinOp::AllocF => Ty::ArrF,
                BuiltinOp::AllocI => Ty::ArrI,
                BuiltinOp::Abs | BuiltinOp::Max | BuiltinOp::Min => {
                    let mut t = Ty::Bottom;
                    for r in base..base + n as Reg {
                        t = t.join(get(env, r));
                    }
                    match t {
                        Ty::Int | Ty::Float => t,
                        _ => Ty::Dynamic,
                    }
                }
                BuiltinOp::Dyn => Ty::Dynamic,
            };
            set(env, dst, t);
        }
        Insn::Print { .. } => {}
        // Installed by the last pass; nothing to model.
        Insn::BulkLoop { .. } | Insn::TemplateLoop { .. } => {}
        Insn::Trap { .. } | Insn::Ret { .. } | Insn::RetVoid => {}
    }
}

/// Does nothing. Kept only because the benchmark's `vm.typeck` stage
/// still calls it (ROADMAP item 1(b)): no pass rewrites a site from the
/// inferred types. [`infer_image`] is the analysis.
pub fn specialize_image(_image: &mut Image) {}
