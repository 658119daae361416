//! The register-bytecode instruction set and its disassembler.
//!
//! Each Zag function compiles once (at program load) into a flat
//! [`CompiledFn`]: a `Vec<Insn>` over a dense register file plus a constant
//! pool. Registers are `u16` indices into a per-activation `Vec<Value>` —
//! locals get fixed slots resolved at compile time (no name lookup, no
//! `Arc<Mutex>` unless the local's address is taken), temporaries are
//! stack-disciplined slots above the locals.
//!
//! The hot shapes the preprocessor emits get fused opcodes:
//!
//! * [`Insn::CmpJumpFalse`] — a comparison guard branch with no
//!   materialised boolean (`while (i < n)`, `if (a == b)`).
//! * [`Insn::IncCmpJump`] — the induction-variable back-edge
//!   `i += step; if (i < limit) goto body` of `while (i < n) : (i += 1)`
//!   loops, one instruction per iteration of the driver loops that
//!   dominate worksharing bodies.
//! * [`Insn::Index`]/[`Insn::IndexSet`] — unboxed `f64`/`i64` array
//!   element access with the bounds policy inlined.
//! * [`Insn::WsNext`] — the chunk-pull loop head of every worksharing
//!   loop: claim a chunk and write both bounds, or leave the loop.
//!
//! On top of those, two more instruction families exist (see
//! [`crate::optimize`]):
//!
//! * **Superinstructions** emitted by the `--opt=3` peephole fuser (ten
//!   forms; the catalogue in [`crate::optimize`] says what keeps each):
//!   constant-operand arithmetic ([`Insn::ArithK`]/[`Insn::ArithKL`] — the
//!   "AddSlots" family that removes the const-reload register shuffle),
//!   element increment ([`Insn::IncElemK`] — IS histogram body), the CG
//!   matvec accumulate chain ([`Insn::FmaIdx`], [`Insn::FmaGather`]),
//!   offset indexing ([`Insn::IndexOff`] — `rowstr[j + 1]`), the
//!   unconditional increment back-edge ([`Insn::IncJump`]), and the
//!   deref-fused family ([`Insn::DerefIndex`], [`Insn::DerefIndexOff`],
//!   [`Insn::DerefIndexSet`]) that accesses `shared(...)` arrays under a
//!   single cell lock without cloning the array value into a register.
//! * [`Insn::BulkLoop`] — the `--opt=3` native tier ([`crate::kernels`]):
//!   a recognised hot loop shape replaced by one dispatch into a
//!   precompiled slice kernel, with the original loop-head instruction
//!   kept in the kernel descriptor as the deopt target.

use std::collections::HashMap;

use crate::value::Value;

/// A register index into the activation frame.
pub type Reg = u16;

/// Arithmetic instruction kinds (mirrors the token-level operators the
/// tree-walker dispatches on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

/// Comparison instruction kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    /// `a op b`. On floats an ordering against NaN is false and `!=` true,
    /// the walker's `partial_cmp` behaviour.
    #[inline(always)]
    pub fn eval<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

/// Builtin operations resolved at compile time. `Dyn` keeps the
/// tree-walker's behaviour for names unknown at compile time: the error
/// surfaces only if the call executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinOp {
    IntToFloat,
    FloatToInt,
    Sqrt,
    Log,
    Exp,
    Sin,
    Cos,
    Pow,
    Abs,
    Max,
    Min,
    AllocF,
    AllocI,
    Len,
    Dyn,
}

impl BuiltinOp {
    pub fn from_name(name: &str) -> BuiltinOp {
        match name {
            "@intToFloat" => BuiltinOp::IntToFloat,
            "@floatToInt" => BuiltinOp::FloatToInt,
            "@sqrt" => BuiltinOp::Sqrt,
            "@log" => BuiltinOp::Log,
            "@exp" => BuiltinOp::Exp,
            "@sin" => BuiltinOp::Sin,
            "@cos" => BuiltinOp::Cos,
            "@pow" => BuiltinOp::Pow,
            "@abs" => BuiltinOp::Abs,
            "@max" => BuiltinOp::Max,
            "@min" => BuiltinOp::Min,
            "@allocF" => BuiltinOp::AllocF,
            "@allocI" => BuiltinOp::AllocI,
            "@len" => BuiltinOp::Len,
            _ => BuiltinOp::Dyn,
        }
    }
}

/// The `omp.*` namespace, resolved from the dotted call path once at
/// compile time: the user-facing API of the paper's Listing 7 and the
/// `omp.internal.*` lowering targets of the preprocessor. The run-time
/// dispatch (`builtins::call`) matches on this enum; the path text lives
/// only in [`OMP_FNS`], for resolution and for dumps and remarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmpFn {
    GetThreadNum,
    GetNumThreads,
    GetMaxThreads,
    GetNumProcs,
    InParallel,
    GetLevel,
    GetWtime,
    SetNumThreads,
    ForkCall,
    IfThreads,
    Barrier,
    IsMaster,
    SingleBegin,
    SingleEnd,
    CriticalEnter,
    CriticalExit,
    AtomicRmw,
    RedCell,
    RedIdentity,
    RedCombine,
    RedGet,
    RedLoopBegin,
    RedLoopEnd,
    TripCount,
    WsBegin,
    WsNext,
    WsLb,
    WsUb,
    WsFini,
}

/// Every [`OmpFn`] with its path after `omp.`, in declaration order (so
/// `OMP_FNS[f as usize]` is `f`'s row; a unit test pins the order).
const OMP_FNS: [(OmpFn, &str); 29] = [
    (OmpFn::GetThreadNum, "get_thread_num"),
    (OmpFn::GetNumThreads, "get_num_threads"),
    (OmpFn::GetMaxThreads, "get_max_threads"),
    (OmpFn::GetNumProcs, "get_num_procs"),
    (OmpFn::InParallel, "in_parallel"),
    (OmpFn::GetLevel, "get_level"),
    (OmpFn::GetWtime, "get_wtime"),
    (OmpFn::SetNumThreads, "set_num_threads"),
    (OmpFn::ForkCall, "internal.fork_call"),
    (OmpFn::IfThreads, "internal.if_threads"),
    (OmpFn::Barrier, "internal.barrier"),
    (OmpFn::IsMaster, "internal.is_master"),
    (OmpFn::SingleBegin, "internal.single_begin"),
    (OmpFn::SingleEnd, "internal.single_end"),
    (OmpFn::CriticalEnter, "internal.critical_enter"),
    (OmpFn::CriticalExit, "internal.critical_exit"),
    (OmpFn::AtomicRmw, "internal.atomic_rmw"),
    (OmpFn::RedCell, "internal.red_cell"),
    (OmpFn::RedIdentity, "internal.red_identity"),
    (OmpFn::RedCombine, "internal.red_combine"),
    (OmpFn::RedGet, "internal.red_get"),
    (OmpFn::RedLoopBegin, "internal.red_loop_begin"),
    (OmpFn::RedLoopEnd, "internal.red_loop_end"),
    (OmpFn::TripCount, "internal.trip_count"),
    (OmpFn::WsBegin, "internal.ws_begin"),
    (OmpFn::WsNext, "internal.ws_next"),
    (OmpFn::WsLb, "internal.ws_lb"),
    (OmpFn::WsUb, "internal.ws_ub"),
    (OmpFn::WsFini, "internal.ws_fini"),
];

impl OmpFn {
    /// Resolve the call path after `omp` (`["internal", "ws_next"]`).
    /// Both backends resolve through here; `None` is a path neither knows,
    /// which fails with [`OmpFn::unknown`] only if the call executes.
    pub fn resolve(path: &[&str]) -> Option<OmpFn> {
        let (prefix, name) = match path {
            [name] => ("", name),
            ["internal", name] => ("internal.", name),
            _ => return None,
        };
        OMP_FNS
            .iter()
            .find(|(_, p)| p.strip_prefix(prefix) == Some(name))
            .map(|&(f, _)| f)
    }

    /// The path after `omp.`, as written in source.
    pub fn path(self) -> &'static str {
        OMP_FNS[self as usize].1
    }

    /// The run-time error text for a call path [`OmpFn::resolve`] rejects.
    pub fn unknown(path: &[&str]) -> String {
        match path {
            ["internal", name] => format!("unknown omp.internal function {name}"),
            other => format!("unknown omp function omp.{}", other.join(".")),
        }
    }
}

/// One bytecode instruction. Calls pass arguments in a contiguous register
/// range `[base, base + n)` so no argument vector is built until the
/// callee boundary requires one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `r[dst] = consts[k]`
    Const {
        dst: Reg,
        k: u16,
    },
    /// `r[dst] = r[src]`
    Move {
        dst: Reg,
        src: Reg,
    },
    /// `r[dst] = Ptr(fresh cell seeded with r[src])` — declaration of an
    /// address-taken local; a fresh cell per execution of the declaration,
    /// matching the tree-walker's per-iteration `declare`.
    NewCell {
        dst: Reg,
        src: Reg,
    },
    /// `r[dst] = *cell` where `r[cell]` is the `Ptr` of a boxed local.
    CellGet {
        dst: Reg,
        cell: Reg,
    },
    /// `*cell = r[src]`.
    CellSet {
        cell: Reg,
        src: Reg,
    },
    /// `r[dst] = r[ptr].*` for any pointer value (`Ptr`, `ElemPtrF/I`).
    Deref {
        dst: Reg,
        ptr: Reg,
    },
    /// `r[ptr].* = r[src]`.
    StorePtr {
        ptr: Reg,
        src: Reg,
    },
    /// `r[dst] = &r[arr][r[idx]]` (an `ElemPtrF`/`ElemPtrI`).
    ElemAddr {
        dst: Reg,
        arr: Reg,
        idx: Reg,
    },
    /// `r[dst] = &(r[src].*)` — identity on pointer values, error otherwise.
    AddrDeref {
        dst: Reg,
        src: Reg,
    },
    /// `r[dst] = r[arr][r[idx]]`, unboxed fast path for `ArrF`/`ArrI`.
    Index {
        dst: Reg,
        arr: Reg,
        idx: Reg,
    },
    /// `r[arr][r[idx]] = r[src]`.
    IndexSet {
        arr: Reg,
        idx: Reg,
        src: Reg,
    },
    /// `r[dst] = r[a] op r[b]` (typed fast paths, tree-walker fallback).
    Arith {
        op: ArithOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `r[dst] = Bool(r[a] cmp r[b])`.
    Cmp {
        op: CmpOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `r[dst] = -r[src]`.
    Neg {
        dst: Reg,
        src: Reg,
    },
    /// `r[dst] = !truthy(r[src])`.
    Not {
        dst: Reg,
        src: Reg,
    },
    /// `r[dst] = Bool(truthy(r[src]))` (logical-operator result coercion).
    Truthy {
        dst: Reg,
        src: Reg,
    },
    Jump {
        to: u32,
    },
    /// Branch if `truthy(r[cond])` is false.
    JumpIfFalse {
        cond: Reg,
        to: u32,
    },
    /// Branch if `truthy(r[cond])` is true.
    JumpIfTrue {
        cond: Reg,
        to: u32,
    },
    /// Fused guard: branch to `to` when `r[a] cmp r[b]` is false.
    CmpJumpFalse {
        op: CmpOp,
        a: Reg,
        b: Reg,
        to: u32,
    },
    /// Fused induction back-edge: `r[var] += step; if r[var] cmp r[limit]
    /// jump to` (the loop body head). Integer fast path; generic fallback
    /// reproduces the tree-walker's compound-assign + compare semantics.
    IncCmpJump {
        var: Reg,
        step: i32,
        limit: Reg,
        op: CmpOp,
        to: u32,
    },
    /// `r[dst] = r[a] op consts[k]` — fused constant right operand
    /// (`--opt=3` peephole; "AddSlots" family: the `const` reload and its
    /// temporary register disappear).
    ArithK {
        op: ArithOp,
        dst: Reg,
        a: Reg,
        k: u16,
    },
    /// `r[dst] = consts[k] op r[b]` — fused constant left operand. A
    /// separate opcode from [`Insn::ArithK`] so type-mismatch error
    /// messages keep the original operand order.
    ArithKL {
        op: ArithOp,
        dst: Reg,
        k: u16,
        b: Reg,
    },
    /// `r[arr][r[idx]] = r[arr][r[idx]] op consts[k]` — fused element
    /// increment (the IS histogram body `counts[b] += 1`).
    IncElemK {
        op: ArithOp,
        arr: Reg,
        idx: Reg,
        k: u16,
    },
    /// `r[dst] = r[dst] + r[x] * r[arr][r[idx]]` — the CG matvec
    /// accumulate chain (`s = s + a[k] * p[colidx[k]]`) as one dispatch.
    /// The float fast path still evaluates mul-then-add (no hardware fma)
    /// so results stay bit-identical with the unfused stream.
    FmaIdx {
        dst: Reg,
        x: Reg,
        arr: Reg,
        idx: Reg,
    },
    /// `r[dst] = r[arr][r[idx] + off]` — offset indexing (`rowstr[j + 1]`).
    /// `off >= 0` came from a `+ k` source form, `off < 0` from `- k`; the
    /// generic fallback reconstructs the matching operator for error text.
    IndexOff {
        dst: Reg,
        arr: Reg,
        idx: Reg,
        off: i32,
    },
    /// `r[var] += step; jump to` — the unconditional loop back-edge of
    /// `continue`-expression loops whose guard sits at the head.
    IncJump {
        var: Reg,
        step: i32,
        to: u32,
    },
    /// `r[dst] = (*r[cell])[r[idx]]` — deref-fused indexing of a shared
    /// array. The cell (`shared(...)` variables are `Ptr` slots) is locked
    /// once and the element read under the guard, so the array `Value`
    /// never round-trips through a register (no `Arc` clone, no overwrite
    /// drop). Evaluation and error order match the unfused
    /// `Deref`-then-`Index` pair exactly.
    DerefIndex {
        dst: Reg,
        cell: Reg,
        idx: Reg,
    },
    /// `r[dst] = (*r[cell])[r[idx] + off]` — deref-fused [`Insn::IndexOff`]
    /// (the CG row-bound load `rowstr[j + 1]` on a shared array).
    DerefIndexOff {
        dst: Reg,
        cell: Reg,
        idx: Reg,
        off: i32,
    },
    /// `(*r[cell])[r[idx]] = r[src]` — deref-fused [`Insn::IndexSet`].
    DerefIndexSet {
        cell: Reg,
        idx: Reg,
        src: Reg,
    },
    /// `r[dst] += (*r[xcell])[r[idx]] * (*r[acell])[(*r[icell])[r[idx]]]`
    /// — the complete CG matvec body `s = s + a[k] * p[colidx[k]]` with
    /// `a`, `p`, `colidx` all shared, one dispatch per nonzero. The `acell`
    /// pointer check happens at the unfused `Deref` position (after the
    /// `xcell` load, before the `icell` gather); its *read* is deferred to
    /// after the gather, which is unobservable because dereferencing a
    /// checked `Ptr` cannot fail.
    FmaGather {
        dst: Reg,
        xcell: Reg,
        acell: Reg,
        icell: Reg,
        idx: Reg,
    },
    /// Direct call of program function `func` (compile-time resolved).
    Call {
        dst: Reg,
        func: u16,
        base: Reg,
        n: u16,
    },
    /// Indirect call through a `Fn` value in `r[callee]`.
    CallValue {
        dst: Reg,
        callee: Reg,
        base: Reg,
        n: u16,
    },
    /// Call into the `omp.*` namespace. The callee was resolved at compile
    /// time; `builtins::call` matches on it and borrows the argument block
    /// from the caller's registers (the values stay in place).
    OmpCall {
        dst: Reg,
        func: OmpFn,
        base: Reg,
        n: u16,
    },
    /// The chunk-pull loop head the preprocessor emits for every
    /// worksharing loop, `while (ws_next(w)) { i = ws_lb(w); const ub =
    /// ws_ub(w); ... }`, as one instruction: claim the next chunk of the
    /// iterator in `r[ws]` and write its bounds to `r[lb]`, `r[ub]`, or
    /// jump to `exit` (leaving both untouched) when the loop is exhausted.
    /// This is the paper's `__kmpc_dispatch_next(&lb, &ub)` shape. Emitted
    /// only by `compile` (every `--opt` level executes it).
    WsNext {
        ws: Reg,
        lb: Reg,
        ub: Reg,
        exit: u32,
    },
    /// `@name(...)` with the operation resolved at compile time; `name_k`
    /// is the name string in the pool, for `Dyn` dispatch and error text.
    Builtin {
        dst: Reg,
        op: BuiltinOp,
        name_k: u16,
        base: Reg,
        n: u16,
    },
    /// `print(...)` — render, capture, optionally echo.
    Print {
        base: Reg,
        n: u16,
    },
    /// Native bulk-kernel dispatch (`--opt=3` only, installed by
    /// [`crate::kernels`] after every other pass): replaces the head
    /// instruction of a recognised hot loop. `kidx` indexes
    /// [`CompiledFn::kernels`]; the descriptor carries the bound
    /// registers, the exit pc, and the replaced original instruction.
    /// On a type-precheck failure (or a data-dependent mid-loop bail)
    /// the interpreter runs the original in its place and resumes the
    /// interpreted loop at the exact iteration, so the kernel is
    /// semantically transparent.
    BulkLoop {
        kidx: u16,
    },
    /// Typed-template loop dispatch (`--opt=3` only, installed by
    /// [`crate::templates`] after the fixed kernels): replaces the
    /// head instruction of a short typed loop that missed every fixed
    /// kernel shape. `tidx` indexes [`CompiledFn::templates`]; the
    /// descriptor carries the monomorphized op chain, the exit pc,
    /// and the replaced original instruction. Deopt behaviour is
    /// identical to [`Insn::BulkLoop`]: on a type precheck failure or
    /// a mid-loop bail the interpreter runs the original in its place
    /// and replays the loop interpreted.
    TemplateLoop {
        tidx: u16,
    },
    /// Unconditional runtime error with the pooled message (compile-time
    /// detected failures that the tree-walker would only raise when the
    /// offending node executes).
    Trap {
        msg: u16,
    },
    Ret {
        src: Reg,
    },
    RetVoid,
}

/// One operand of an [`Insn`], tagged with what the instruction does with
/// it ([`Insn::operands`]).
pub(crate) enum Operand<'a> {
    /// A register the instruction reads.
    Use(&'a mut Reg),
    /// A register it writes.
    Def(&'a mut Reg),
    /// A register it updates in place: it reads and writes it, and on some
    /// path leaves it as it was (`wsnext`'s exit edge).
    UseDef(&'a mut Reg),
    /// The argument block `[base, base + n)`, all of it read. `moved`: the
    /// callee takes the values and leaves the block spent, so it counts as
    /// written too (`call`, `callv`, `ompcall`; not `builtin`, `print`).
    Args {
        base: &'a mut Reg,
        n: u16,
        moved: bool,
    },
    /// An index into the function's constant pool.
    Const(&'a mut u16),
    /// A jump target.
    Jump(&'a mut u32),
}

/// `f(op);` for each `op`, in order.
macro_rules! each {
    ($f:ident, $($op:expr),+) => {{
        $($f($op);)+
    }};
}

impl Insn {
    /// Hand `f` every operand of the instruction, each once, with its
    /// role. This is the one place an instruction's layout is declared;
    /// the passes' register, constant and jump readers all derive from it.
    /// An installed loop's registers live in its descriptor, not here.
    #[inline]
    pub(crate) fn operands(&mut self, mut f: impl FnMut(Operand<'_>)) {
        use Operand::{Const, Def, Jump, Use, UseDef};
        match self {
            Insn::Const { dst, k } => each!(f, Def(dst), Const(k)),
            Insn::Move { dst, src }
            | Insn::NewCell { dst, src }
            | Insn::AddrDeref { dst, src }
            | Insn::Neg { dst, src }
            | Insn::Not { dst, src }
            | Insn::Truthy { dst, src } => each!(f, Def(dst), Use(src)),
            Insn::CellGet { dst, cell } => each!(f, Def(dst), Use(cell)),
            Insn::Deref { dst, ptr } => each!(f, Def(dst), Use(ptr)),
            Insn::CellSet { cell, src } => each!(f, Use(cell), Use(src)),
            Insn::StorePtr { ptr, src } => each!(f, Use(ptr), Use(src)),
            Insn::ElemAddr { dst, arr, idx }
            | Insn::Index { dst, arr, idx }
            | Insn::IndexOff { dst, arr, idx, .. } => each!(f, Def(dst), Use(arr), Use(idx)),
            Insn::DerefIndex { dst, cell, idx } | Insn::DerefIndexOff { dst, cell, idx, .. } => {
                each!(f, Def(dst), Use(cell), Use(idx))
            }
            Insn::Arith { dst, a, b, .. } | Insn::Cmp { dst, a, b, .. } => {
                each!(f, Def(dst), Use(a), Use(b))
            }
            Insn::IndexSet { arr, idx, src } => each!(f, Use(arr), Use(idx), Use(src)),
            Insn::DerefIndexSet { cell, idx, src } => each!(f, Use(cell), Use(idx), Use(src)),
            Insn::Jump { to } => f(Jump(to)),
            Insn::JumpIfFalse { cond, to } | Insn::JumpIfTrue { cond, to } => {
                each!(f, Use(cond), Jump(to))
            }
            Insn::CmpJumpFalse { a, b, to, .. } => each!(f, Use(a), Use(b), Jump(to)),
            Insn::IncCmpJump { var, limit, to, .. } => each!(f, UseDef(var), Use(limit), Jump(to)),
            Insn::IncJump { var, to, .. } => each!(f, UseDef(var), Jump(to)),
            Insn::ArithK { dst, a, k, .. } => each!(f, Def(dst), Use(a), Const(k)),
            Insn::ArithKL { dst, k, b, .. } => each!(f, Def(dst), Const(k), Use(b)),
            Insn::IncElemK { arr, idx, k, .. } => each!(f, Use(arr), Use(idx), Const(k)),
            Insn::FmaIdx { dst, x, arr, idx } => each!(f, UseDef(dst), Use(x), Use(arr), Use(idx)),
            Insn::FmaGather {
                dst,
                xcell,
                acell,
                icell,
                idx,
            } => each!(f, UseDef(dst), Use(xcell), Use(acell), Use(icell), Use(idx)),
            Insn::Call { dst, base, n, .. } | Insn::OmpCall { dst, base, n, .. } => {
                each!(f, Def(dst), args(base, *n, true))
            }
            Insn::CallValue {
                dst,
                callee,
                base,
                n,
            } => each!(f, Def(dst), Use(callee), args(base, *n, true)),
            Insn::WsNext { ws, lb, ub, exit } => {
                each!(f, Use(ws), UseDef(lb), UseDef(ub), Jump(exit))
            }
            Insn::Builtin {
                dst,
                name_k,
                base,
                n,
                ..
            } => each!(f, Def(dst), Const(name_k), args(base, *n, false)),
            Insn::Print { base, n } => f(args(base, *n, false)),
            Insn::Trap { msg } => f(Const(msg)),
            Insn::Ret { src } => f(Use(src)),
            Insn::BulkLoop { .. } | Insn::TemplateLoop { .. } | Insn::RetVoid => {}
        }
    }
}

/// The argument block `[base, base + n)`.
#[inline(always)]
fn args(base: &mut Reg, n: u16, moved: bool) -> Operand<'_> {
    Operand::Args { base, n, moved }
}

/// One compiled function.
pub struct CompiledFn {
    pub name: String,
    pub nparams: usize,
    /// Register-file size: params, locals, then temporaries.
    pub nregs: usize,
    pub code: Vec<Insn>,
    pub consts: Vec<Value>,
    /// Debug names of named registers (params and locals), in allocation
    /// order: (register, name, address-taken?).
    pub locals: Vec<(Reg, String, bool)>,
    /// Native bulk-kernel descriptors referenced by [`Insn::BulkLoop`]
    /// (`--opt=3` only; empty below that).
    pub kernels: Vec<crate::kernels::KernelDesc>,
    /// Typed-template descriptors referenced by
    /// [`Insn::TemplateLoop`] (`--opt=3` only; empty below that).
    pub templates: Vec<crate::templates::TemplateDesc>,
    /// Verified as the NPB LCG step (`kernels::lcg_callee`, `--opt=3` only):
    /// a call with `Float` arguments runs as one native step, not this body.
    pub lcg: bool,
}

/// A whole program's compiled image, functions in declaration order.
pub struct Image {
    pub funcs: Vec<CompiledFn>,
    pub by_name: HashMap<String, usize>,
}

impl Image {
    pub fn get(&self, name: &str) -> Option<&CompiledFn> {
        self.by_name.get(name).map(|&i| &self.funcs[i])
    }
}

// ---------------------------------------------------------------------------
// Disassembler (the `--dump-bytecode` surface; golden-tested)
// ---------------------------------------------------------------------------

fn const_text(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("{s:?}"),
        Value::Label(s) => format!("{s:?}"),
        Value::Fn(name) => format!("fn {name}"),
        other => other.render(),
    }
}

fn cmp_text(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
    }
}

fn arith_text(op: ArithOp) -> &'static str {
    match op {
        ArithOp::Add => "add",
        ArithOp::Sub => "sub",
        ArithOp::Mul => "mul",
        ArithOp::Div => "div",
        ArithOp::Rem => "rem",
    }
}

/// Render one function's bytecode as stable, diffable text.
pub fn disasm_fn(f: &CompiledFn) -> String {
    disasm_tagged(f, "")
}

/// [`disasm_fn`] with `tag` after the name (the `--dump-bytecode` stages).
fn disasm_tagged(f: &CompiledFn, tag: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fn {}{tag} (params {}, regs {})",
        f.name, f.nparams, f.nregs
    );
    if !f.locals.is_empty() {
        let names: Vec<String> = f
            .locals
            .iter()
            .map(|(r, n, boxed)| format!("r{r}={}{n}", if *boxed { "&" } else { "" }))
            .collect();
        let _ = writeln!(out, "  locals: {}", names.join(" "));
    }
    for (i, k) in f.consts.iter().enumerate() {
        let _ = writeln!(out, "  k{i} = {}", const_text(k));
    }
    for (pc, insn) in f.code.iter().enumerate() {
        let _ = writeln!(out, "  {pc:>4}  {}", insn_text(f, insn));
    }
    out
}

/// Render one instruction as the stable mnemonic text of
/// `--dump-bytecode`.
pub(crate) fn insn_text(f: &CompiledFn, insn: &Insn) -> String {
    match insn {
        Insn::Const { dst, k } => format!("const      r{dst}, k{k}"),
        Insn::Move { dst, src } => format!("move       r{dst}, r{src}"),
        Insn::NewCell { dst, src } => format!("newcell    r{dst}, r{src}"),
        Insn::CellGet { dst, cell } => format!("cellget    r{dst}, r{cell}"),
        Insn::CellSet { cell, src } => format!("cellset    r{cell}, r{src}"),
        Insn::Deref { dst, ptr } => format!("deref      r{dst}, r{ptr}"),
        Insn::StorePtr { ptr, src } => format!("storeptr   r{ptr}, r{src}"),
        Insn::ElemAddr { dst, arr, idx } => format!("elemaddr   r{dst}, r{arr}[r{idx}]"),
        Insn::AddrDeref { dst, src } => format!("addrderef  r{dst}, r{src}"),
        Insn::Index { dst, arr, idx } => format!("index      r{dst}, r{arr}[r{idx}]"),
        Insn::IndexSet { arr, idx, src } => format!("indexset   r{arr}[r{idx}], r{src}"),
        Insn::Arith { op, dst, a, b } => {
            format!("{:<10} r{dst}, r{a}, r{b}", arith_text(*op))
        }
        Insn::Cmp { op, dst, a, b } => {
            format!("cmp        r{dst}, r{a} {} r{b}", cmp_text(*op))
        }
        Insn::Neg { dst, src } => format!("neg        r{dst}, r{src}"),
        Insn::Not { dst, src } => format!("not        r{dst}, r{src}"),
        Insn::Truthy { dst, src } => format!("truthy     r{dst}, r{src}"),
        Insn::Jump { to } => format!("jump       -> {to}"),
        Insn::JumpIfFalse { cond, to } => format!("jfalse     r{cond} -> {to}"),
        Insn::JumpIfTrue { cond, to } => format!("jtrue      r{cond} -> {to}"),
        Insn::CmpJumpFalse { op, a, b, to } => {
            format!("cjfalse    r{a} {} r{b} -> {to}", cmp_text(*op))
        }
        Insn::IncCmpJump {
            var,
            step,
            limit,
            op,
            to,
        } => format!(
            "inccmpj    r{var} += {step}; r{var} {} r{limit} -> {to}",
            cmp_text(*op)
        ),
        Insn::ArithK { op, dst, a, k } => {
            format!("{:<10} r{dst}, r{a}, k{k}", format!("{}k", arith_text(*op)))
        }
        Insn::ArithKL { op, dst, k, b } => {
            format!("{:<10} r{dst}, k{k}, r{b}", format!("k{}", arith_text(*op)))
        }
        Insn::IncElemK { op, arr, idx, k } => {
            format!("incelem    r{arr}[r{idx}] {}= k{k}", arith_text(*op))
        }
        Insn::FmaIdx { dst, x, arr, idx } => {
            format!("fmaidx     r{dst} += r{x} * r{arr}[r{idx}]")
        }
        Insn::IndexOff { dst, arr, idx, off } => {
            format!("indexoff   r{dst}, r{arr}[r{idx}{off:+}]")
        }
        Insn::IncJump { var, step, to } => {
            format!("incjump    r{var} += {step} -> {to}")
        }
        Insn::DerefIndex { dst, cell, idx } => {
            format!("dindex     r{dst}, (r{cell})[r{idx}]")
        }
        Insn::DerefIndexOff {
            dst,
            cell,
            idx,
            off,
        } => {
            format!("dindexoff  r{dst}, (r{cell})[r{idx}{off:+}]")
        }
        Insn::DerefIndexSet { cell, idx, src } => {
            format!("dindexset  (r{cell})[r{idx}], r{src}")
        }
        Insn::FmaGather {
            dst,
            xcell,
            acell,
            icell,
            idx,
        } => {
            format!("fmagather  r{dst} += (r{xcell})[r{idx}] * (r{acell})[(r{icell})[r{idx}]]")
        }
        Insn::Call { dst, func, base, n } => {
            format!("call       r{dst}, f{func}, r{base}..{n}")
        }
        Insn::CallValue {
            dst,
            callee,
            base,
            n,
        } => format!("callv      r{dst}, r{callee}, r{base}..{n}"),
        Insn::OmpCall { dst, func, base, n } => {
            format!("ompcall    r{dst}, omp.{}, r{base}..{n}", func.path())
        }
        Insn::WsNext { ws, lb, ub, exit } => {
            format!("wsnext     r{lb}, r{ub}, r{ws} -> {exit}")
        }
        Insn::Builtin {
            dst,
            op,
            name_k,
            base,
            n,
        } => format!("builtin    r{dst}, {op:?}(k{name_k}), r{base}..{n}"),
        Insn::Print { base, n } => format!("print      r{base}..{n}"),
        Insn::BulkLoop { kidx } => {
            let what = f
                .kernels
                .get(*kidx as usize)
                .map(|d| d.kind.name())
                .unwrap_or("?");
            format!("bulkloop   kernel{kidx} ({what})")
        }
        Insn::TemplateLoop { tidx } => {
            let what = f
                .templates
                .get(*tidx as usize)
                .map(|d| {
                    format!(
                        "{} insns, {} variants",
                        d.prog.ninsns,
                        d.prog.variants.len()
                    )
                })
                .unwrap_or_else(|| "?".to_string());
            format!("templateloop tmpl{tidx} ({what})")
        }
        Insn::Trap { msg } => format!("trap       k{msg}"),
        Insn::Ret { src } => format!("ret        r{src}"),
        Insn::RetVoid => "retvoid".to_string(),
    }
}

/// Render the whole image, functions in declaration order.
pub fn disasm(image: &Image) -> String {
    let mut out = String::new();
    for f in &image.funcs {
        out.push_str(&disasm_fn(f));
        out.push('\n');
    }
    out
}

/// Render the whole image showing both optimization stages
/// (`--dump-bytecode`): every function whose final stream differs from
/// its stream in `lowered` — the same program through
/// [`crate::compile::compile_image`] alone — is listed as lowered
/// (before inlining) first, then as it ends.
pub fn disasm_stages(lowered: &Image, image: &Image) -> String {
    let mut out = String::new();
    for (pre, f) in lowered.funcs.iter().zip(&image.funcs) {
        if pre.code != f.code {
            out.push_str(&disasm_tagged(pre, " [pre-opt]"));
            out.push('\n');
            out.push_str(&disasm_tagged(f, " [optimized]"));
        } else {
            out.push_str(&disasm_fn(f));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omp_fn_table_is_in_declaration_order_and_round_trips() {
        for (i, &(f, path)) in OMP_FNS.iter().enumerate() {
            assert_eq!(f as usize, i, "{path}");
            let parts: Vec<&str> = path.split('.').collect();
            assert_eq!(OmpFn::resolve(&parts), Some(f));
            assert_eq!(f.path(), path);
        }
        assert_eq!(OmpFn::resolve(&["internal"]), None);
        assert_eq!(OmpFn::resolve(&["ws_next"]), None);
        assert_eq!(OmpFn::resolve(&["internal", "ws_next", "x"]), None);
    }
}
