//! The `omp` namespace bindings: the user-facing API (§III-C, Listing 7)
//! and the `.omp.internal` lowering targets of the preprocessor.
//!
//! Inside a parallel region the current [`zomp::team::ThreadCtx`] is made
//! available to builtins through a thread-local stack of erased pointers —
//! valid for exactly the dynamic extent of the outlined call, which the
//! guard enforces.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use zomp::kmpc::WsLoop;
use zomp::reduction::RedOp;
use zomp::schedule::{LoopBounds, LoopCmp, Schedule, ScheduleKind};
use zomp::sync::OmpLock;
use zomp::team::{Parallel, SingleToken, ThreadCtx};

use crate::bytecode::{BuiltinOp, OmpFn};
use crate::interp::Vm;
use crate::value::{err, ArrF, ArrI, RedCellAny, Value, VmError, VmResult, WsIter, WsState};

/// One pure builtin's arithmetic for one set of argument kinds (`F` an
/// `f64`, `I` an `i64`; `IF` takes an `i64` and returns an `f64`).
#[derive(Clone, Copy)]
pub(crate) enum Pure {
    F(fn(f64) -> f64),
    I(fn(i64) -> i64),
    FF(fn(f64, f64) -> f64),
    II(fn(i64, i64) -> i64),
    IF(fn(i64) -> f64),
    FI(fn(f64) -> i64),
}

/// The pure, infallible builtins, one row per argument kinds: the walker,
/// the bytecode dispatch and the template ops all compute through these
/// rows, so every backend returns the same bits (no vector math library).
/// `@floatToInt` saturates, and NaN becomes 0.
pub(crate) const PURE: [(BuiltinOp, Pure); 14] = [
    (BuiltinOp::IntToFloat, Pure::IF(|v| v as f64)),
    (BuiltinOp::FloatToInt, Pure::FI(|v| v as i64)),
    (BuiltinOp::Sqrt, Pure::F(f64::sqrt)),
    (BuiltinOp::Log, Pure::F(f64::ln)),
    (BuiltinOp::Exp, Pure::F(f64::exp)),
    (BuiltinOp::Sin, Pure::F(f64::sin)),
    (BuiltinOp::Cos, Pure::F(f64::cos)),
    (BuiltinOp::Pow, Pure::FF(f64::powf)),
    (BuiltinOp::Abs, Pure::F(f64::abs)),
    (BuiltinOp::Abs, Pure::I(i64::wrapping_abs)),
    (BuiltinOp::Max, Pure::FF(f64::max)),
    (BuiltinOp::Max, Pure::II(|a, b| a.max(b))),
    (BuiltinOp::Min, Pure::FF(f64::min)),
    (BuiltinOp::Min, Pure::II(|a, b| a.min(b))),
];

impl Pure {
    /// This row applied to `args`, if their kinds are the row's.
    #[inline(always)]
    fn apply(self, args: &[Value]) -> Option<Value> {
        Some(match (self, args) {
            (Pure::F(f), [Value::Float(x)]) => Value::Float(f(*x)),
            (Pure::I(f), [Value::Int(x)]) => Value::Int(f(*x)),
            (Pure::FF(f), [Value::Float(x), Value::Float(y)]) => Value::Float(f(*x, *y)),
            (Pure::II(f), [Value::Int(x), Value::Int(y)]) => Value::Int(f(*x, *y)),
            (Pure::IF(f), [Value::Int(x)]) => Value::Float(f(*x)),
            (Pure::FI(f), [Value::Float(x)]) => Value::Int(f(*x)),
            _ => return None,
        })
    }
}

/// `op` applied to `args` through its [`PURE`] row, if one takes them.
#[inline]
pub(crate) fn pure(op: BuiltinOp, args: &[Value]) -> Option<Value> {
    PURE.iter()
        .filter(|(o, _)| *o == op)
        .find_map(|(_, row)| row.apply(args))
}

/// Every `@builtin` by name (the walker's entry).
pub(crate) fn math_builtin(name: &str, args: &[Value]) -> VmResult<Value> {
    match pure(BuiltinOp::from_name(name), args) {
        Some(v) => Ok(v),
        None => impure_builtin(name, args),
    }
}

/// The builtins no [`PURE`] row takes: the allocating ones and `@len`.
/// Shared by both backends (the bytecode executor lands here after its
/// own [`pure`] call misses), so a mismatch produces the identical
/// `unknown builtin ...` message.
pub(crate) fn impure_builtin(name: &str, args: &[Value]) -> VmResult<Value> {
    match (name, args) {
        ("@allocF", [Value::Int(n)]) => Ok(Value::ArrF(Arc::new(alloc(name, *n, ArrF::try_new)?))),
        ("@allocI", [Value::Int(n)]) => Ok(Value::ArrI(Arc::new(alloc(name, *n, ArrI::try_new)?))),
        ("@len", [Value::ArrF(a)]) => Ok(Value::Int(a.len() as i64)),
        ("@len", [Value::ArrI(a)]) => Ok(Value::Int(a.len() as i64)),
        (other, args) => err(format!(
            "unknown builtin {other} for ({})",
            args.iter()
                .map(|a| a.type_name())
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// `@allocF(n)` / `@allocI(n)`: a negative `n`, or one the allocator
/// refuses, is a runtime error with the same text on every backend.
fn alloc<A>(name: &str, n: i64, try_new: fn(usize) -> Option<A>) -> VmResult<A> {
    if n < 0 {
        return err(format!("{name} length {n} is negative"));
    }
    match try_new(n as usize) {
        Some(a) => Ok(a),
        None => err(format!("{name} cannot allocate {n} elements")),
    }
}

// ---------------------------------------------------------------------------
// Thread-current region context
// ---------------------------------------------------------------------------

thread_local! {
    static CTX_STACK: RefCell<Vec<*const ()>> = const { RefCell::new(Vec::new()) };
    static SINGLE_STACK: RefCell<Vec<Option<SingleToken>>> = const { RefCell::new(Vec::new()) };
    /// The `critical` locks this thread holds: a body that fails inside
    /// one never reaches its `critical_exit` ([`release_criticals`]).
    static HELD_CRITICALS: RefCell<Vec<Arc<OmpLock>>> = const { RefCell::new(Vec::new()) };
}

/// How many `critical` locks this thread holds: the mark to pass to
/// [`release_criticals`] if the call about to run fails.
pub(crate) fn criticals_held() -> usize {
    HELD_CRITICALS.with(|h| h.borrow().len())
}

/// Unlock every `critical` this thread entered since `mark`, where a
/// `VmError` leaves the code that entered them.
pub(crate) fn release_criticals(mark: usize) {
    for lock in HELD_CRITICALS.with(|h| h.borrow_mut().split_off(mark)) {
        lock.unset();
    }
}

pub(crate) struct CtxGuard;

impl CtxGuard {
    pub(crate) fn push(ctx: &ThreadCtx<'_>) -> CtxGuard {
        CTX_STACK.with(|s| s.borrow_mut().push(ctx as *const ThreadCtx as *const ()));
        CtxGuard
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The team barrier of the innermost active region (nothing outside
/// one). A wait the runtime cut short because a teammate's body failed
/// becomes this thread's error, so it unwinds out of the region too
/// instead of computing on; `fork_call` reports the teammate's error,
/// which was stored before the team was poisoned.
fn team_barrier() -> VmResult<()> {
    synced(with_ctx(|ctx| ctx.is_none_or(|c| c.barrier())))
}

/// `ok`: what `ThreadCtx::barrier` / `single_end` returned.
fn synced(ok: bool) -> VmResult<()> {
    if ok {
        Ok(())
    } else {
        err("a teammate failed inside the parallel region")
    }
}

/// Run `f` with the innermost active region context, if any.
fn with_ctx<R>(f: impl FnOnce(Option<&ThreadCtx<'_>>) -> R) -> R {
    let ptr = CTX_STACK.with(|s| s.borrow().last().copied());
    match ptr {
        // SAFETY: the pointer was pushed by CtxGuard for the dynamic extent
        // of the outlined function we are currently executing inside.
        Some(p) => f(Some(unsafe { &*(p as *const ThreadCtx<'_>) })),
        None => f(None),
    }
}

/// The cell of a reduction handle `v`, for the builtin `what`.
fn red_cell<'v>(v: &'v Value, what: &str) -> VmResult<&'v RedCellAny> {
    match v {
        Value::Red(cell) => Ok(cell),
        other => err(format!("{what} on {}", other.type_name())),
    }
}

fn red_op_from_code(code: i64) -> VmResult<RedOp> {
    Ok(match code {
        0 => RedOp::Add,
        1 => RedOp::Mul,
        2 => RedOp::Min,
        3 => RedOp::Max,
        4 => RedOp::BitAnd,
        5 => RedOp::BitOr,
        6 => RedOp::BitXor,
        7 => RedOp::LogicalAnd,
        8 => RedOp::LogicalOr,
        other => return err(format!("unknown reduction op code {other}")),
    })
}

/// Striped locks giving atomicity to `omp.internal.atomic_rmw` on array
/// elements (scalar slots use their own mutex).
fn atomic_stripes() -> &'static [Mutex<()>; 64] {
    static STRIPES: OnceLock<[Mutex<()>; 64]> = OnceLock::new();
    STRIPES.get_or_init(|| std::array::from_fn(|_| Mutex::new(())))
}

fn stripe_for(addr: usize) -> &'static Mutex<()> {
    &atomic_stripes()[(addr >> 4) % 64]
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Entry point from both backends: `omp.<func>(args)`. The callee was
/// resolved from its path by [`OmpFn::resolve`]; `args` is borrowed from
/// the caller (the bytecode executor passes its argument registers).
pub(crate) fn call(vm: &Vm, func: OmpFn, args: &[Value]) -> VmResult<Value> {
    match func {
        // The user-facing API with the redundant `omp_` prefix removed
        // (paper Listing 7).
        OmpFn::GetThreadNum => Ok(Value::Int(zomp::omp::get_thread_num() as i64)),
        OmpFn::GetNumThreads => Ok(Value::Int(zomp::omp::get_num_threads() as i64)),
        OmpFn::GetMaxThreads => Ok(Value::Int(vm.runtime.icvs().num_threads() as i64)),
        OmpFn::GetNumProcs => Ok(Value::Int(zomp::omp::get_num_procs() as i64)),
        OmpFn::InParallel => Ok(Value::Bool(zomp::omp::in_parallel())),
        OmpFn::GetLevel => Ok(Value::Int(zomp::omp::get_level() as i64)),
        OmpFn::GetWtime => Ok(Value::Float(zomp::omp::get_wtime())),
        OmpFn::SetNumThreads => {
            vm.runtime
                .icvs()
                .set_num_threads(args[0].as_int()?.max(1) as usize);
            Ok(Value::Void)
        }

        // -- `omp.internal.*`: the preprocessor's lowering targets ---------
        OmpFn::ForkCall => fork_call(vm, args),
        OmpFn::IfThreads => {
            let cond = args[0].truthy()?;
            let nt = args[1].as_int()?;
            Ok(Value::Int(if cond { nt } else { 1 }))
        }
        OmpFn::Barrier => team_barrier().map(|()| Value::Void),
        OmpFn::IsMaster => Ok(Value::Bool(with_ctx(|ctx| {
            ctx.map(|c| c.is_master()).unwrap_or(true)
        }))),
        OmpFn::SingleBegin => {
            let chosen = with_ctx(|ctx| match ctx {
                Some(ctx) => {
                    let tok = ctx.single_begin();
                    SINGLE_STACK.with(|s| s.borrow_mut().push(Some(tok)));
                    tok.chosen
                }
                None => {
                    SINGLE_STACK.with(|s| s.borrow_mut().push(None));
                    true
                }
            });
            Ok(Value::Bool(chosen))
        }
        OmpFn::SingleEnd => {
            let nowait = args[0].as_int()? != 0;
            let tok = SINGLE_STACK
                .with(|s| s.borrow_mut().pop())
                .ok_or_else(|| VmError("single_end without single_begin".into()))?;
            synced(with_ctx(|ctx| match (ctx, tok) {
                (Some(ctx), Some(tok)) => ctx.single_end(tok, nowait),
                _ => true,
            }))?;
            Ok(Value::Void)
        }
        OmpFn::CriticalEnter => {
            let Value::Str(name) = &args[0] else {
                return err("critical_enter expects a name string");
            };
            // Split-phase (enter/exit straddle interpreter calls), so the
            // guardless `OmpLock` from the VM runtime's registry is used.
            let lock = vm.runtime.critical_lock(name);
            lock.set();
            HELD_CRITICALS.with(|h| h.borrow_mut().push(lock));
            Ok(Value::Void)
        }
        OmpFn::CriticalExit => {
            let Value::Str(name) = &args[0] else {
                return err("critical_exit expects a name string");
            };
            let lock = vm.runtime.critical_lock(name);
            lock.unset();
            HELD_CRITICALS.with(|h| h.borrow_mut().retain(|l| !Arc::ptr_eq(l, &lock)));
            Ok(Value::Void)
        }
        OmpFn::AtomicRmw => atomic_rmw(args),

        // -- reductions ------------------------------------------------------
        OmpFn::RedCell => {
            let op = red_op_from_code(args[0].as_int()?)?;
            Ok(Value::Red(Arc::new(RedCellAny::new(op, &args[1])?)))
        }
        OmpFn::RedIdentity => Ok(red_cell(&args[0], "red_identity")?.identity()),
        OmpFn::RedCombine => {
            red_cell(&args[0], "red_combine")?.combine(&args[1])?;
            Ok(Value::Void)
        }
        OmpFn::RedGet => Ok(red_cell(&args[0], "red_get")?.get()),
        OmpFn::RedLoopBegin => {
            let op = red_op_from_code(args[0].as_int()?)?;
            // Checked before the construct, so a bad seed takes no slot
            // and makes no cell.
            let cell = RedCellAny::new(op, &args[1])?;
            with_ctx(|ctx| match ctx {
                Some(ctx) => ctx
                    .construct_shared(|| Arc::new(cell))
                    .downcast::<RedCellAny>()
                    .map(Value::Red)
                    .map_err(|_| VmError("reduction slot type confusion".into())),
                None => Ok(Value::Red(Arc::new(cell))),
            })
        }
        OmpFn::RedLoopEnd => {
            let Value::Red(cell) = &args[0] else {
                return err("red_loop_end expects a reduction cell");
            };
            cell.combine(&args[1])?;
            // The combined value is only complete after the barrier.
            team_barrier()?;
            Ok(cell.get())
        }

        // -- worksharing loops -------------------------------------------------
        OmpFn::TripCount => {
            let bounds = LoopBounds {
                lb: args[0].as_int()?,
                ub: args[1].as_int()?,
                incr: args[2].as_int()?,
                cmp: cmp_from_code(args[3].as_int()?)?,
            };
            let trip = bounds
                .try_trip_count()
                .map_err(|e| VmError(e.to_string()))?;
            Ok(Value::Int(trip as i64))
        }
        OmpFn::WsBegin => ws_begin(args),
        // The unfused spelling of `Insn::WsNext`, for the tree-walker and
        // hand-written `omp.internal.*` programs.
        OmpFn::WsNext => Ok(Value::Bool(ws_claim(&args[0])?.is_some())),
        OmpFn::WsLb => Ok(Value::Int(ws_cur(&args[0])?.0)),
        OmpFn::WsUb => Ok(Value::Int(ws_cur(&args[0])?.1)),
        OmpFn::WsFini => ws_fini(args),
    }
}

// ---------------------------------------------------------------------------
// fork_call
// ---------------------------------------------------------------------------

fn fork_call(vm: &Vm, args: &[Value]) -> VmResult<Value> {
    // An optional leading string is the region label (`unit:line` of the
    // pragma, emitted by `preprocess_named`). The label is always set
    // explicitly — even when empty — so the runtime's `#[track_caller]`
    // fallback never points at this VM-internal call site. A literal
    // label was interned when the image was built; a string that arrives
    // another way (a `const`, a parameter) is interned here.
    let (label, base) = match args.first() {
        Some(&Value::Label(s)) => (s, 1usize),
        Some(Value::Str(s)) => (zomp::trace::intern(s), 1usize),
        _ => ("", 0usize),
    };
    if args.len() < base + 2 {
        return err("fork_call needs ([label,] num_threads, fn, args...)");
    }
    let nt = args[base].as_int()?;
    let Value::Fn(fname) = &args[base + 1] else {
        return err(format!(
            "fork_call expects an outlined function, got {}",
            args[base + 1].type_name()
        ));
    };
    // One lookup and arity check for the whole team; each thread enters
    // the outlined function by index with its own copy of `rest`.
    let rest = &args[base + 2..];
    let fi = vm.resolve_fn(fname, rest.len())?;
    let par = if nt > 0 {
        Parallel::new().num_threads(nt as usize)
    } else {
        Parallel::new()
    };
    let par = par.label(label);
    let failure: Mutex<Option<VmError>> = Mutex::new(None);
    zomp::fork_call_rt(&vm.runtime, par, |ctx| {
        let _guard = CtxGuard::push(ctx);
        let held = criticals_held();
        if let Err(e) = vm.call_resolved(fi, rest) {
            // Teammates waiting at a `critical` it holds must get in.
            release_criticals(held);
            {
                let mut slot = failure.lock();
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
            // This thread skips every barrier left in the region: let go
            // of the teammates waiting there (after the error is stored,
            // so theirs — see `synced` — can only come second).
            ctx.poison();
        }
    });
    match failure.into_inner() {
        Some(e) => Err(e),
        None => Ok(Value::Void),
    }
}

// ---------------------------------------------------------------------------
// atomic directive
// ---------------------------------------------------------------------------

fn atomic_apply(op: i64, old_i: Option<i64>, old_f: Option<f64>, v: &Value) -> VmResult<Value> {
    // op codes from the preprocessor: 0 add, 1 mul, 9 sub, 10 div.
    match (old_i, old_f, v) {
        (Some(a), None, Value::Int(b)) => Ok(Value::Int(match op {
            0 => a.wrapping_add(*b),
            1 => a.wrapping_mul(*b),
            9 => a.wrapping_sub(*b),
            10 => {
                if *b == 0 {
                    return err("atomic division by zero");
                }
                a.wrapping_div(*b)
            }
            _ => return err(format!("unknown atomic op {op}")),
        })),
        (None, Some(a), Value::Float(b)) => Ok(Value::Float(match op {
            0 => a + b,
            1 => a * b,
            9 => a - b,
            10 => a / b,
            _ => return err(format!("unknown atomic op {op}")),
        })),
        _ => err("atomic operand type mismatch"),
    }
}

fn atomic_rmw(args: &[Value]) -> VmResult<Value> {
    let op = args[1].as_int()?;
    let v = &args[2];
    match &args[0] {
        Value::Ptr(slot) => {
            // The slot's mutex provides the atomicity.
            let mut g = slot.lock();
            let new = match &*g {
                Value::Int(a) => atomic_apply(op, Some(*a), None, v)?,
                Value::Float(a) => atomic_apply(op, None, Some(*a), v)?,
                other => return err(format!("atomic on {}", other.type_name())),
            };
            *g = new;
            Ok(Value::Void)
        }
        Value::ElemPtrF(arr, i) => {
            let _g = stripe_for(Arc::as_ptr(arr) as usize + *i as usize).lock();
            let old = arr.get(*i)?;
            let new = atomic_apply(op, None, Some(old), v)?.as_float()?;
            arr.set(*i, new)?;
            Ok(Value::Void)
        }
        Value::ElemPtrI(arr, i) => {
            let _g = stripe_for(Arc::as_ptr(arr) as usize + *i as usize).lock();
            let old = arr.get(*i)?;
            let new = atomic_apply(op, Some(old), None, v)?.as_int()?;
            arr.set(*i, new)?;
            Ok(Value::Void)
        }
        other => err(format!(
            "atomic target must be a pointer, got {}",
            other.type_name()
        )),
    }
}

// ---------------------------------------------------------------------------
// Worksharing loop drivers
// ---------------------------------------------------------------------------

fn cmp_from_code(code: i64) -> VmResult<LoopCmp> {
    Ok(match code {
        0 => LoopCmp::Lt,
        1 => LoopCmp::Le,
        2 => LoopCmp::Gt,
        3 => LoopCmp::Ge,
        other => return err(format!("bad comparison code {other}")),
    })
}

fn ws_begin(args: &[Value]) -> VmResult<Value> {
    // An optional leading string is the worksharing pragma's `unit:line`
    // label (named translation units only), mirroring `fork_call`.
    let (label, base) = match args.first() {
        Some(&Value::Label(s)) => (Some(s), 1usize),
        Some(Value::Str(s)) => (Some(zomp::trace::intern(s)), 1usize),
        _ => (None, 0usize),
    };
    let kind_code = args[base].as_int()?;
    let chunk_raw = args[base + 1].as_int()?;
    let lb = args[base + 2].as_int()?;
    let ub = args[base + 3].as_int()?;
    let incr = args[base + 4].as_int()?;
    let cmp = cmp_from_code(args[base + 5].as_int()?)?;
    let kind = match kind_code {
        1 => ScheduleKind::Dynamic,
        2 => ScheduleKind::Guided,
        3 => ScheduleKind::Runtime,
        _ => ScheduleKind::Static,
    };
    let sched = Schedule {
        kind,
        chunk: (chunk_raw > 0).then_some(chunk_raw),
    };

    let bounds = LoopBounds { lb, ub, incr, cmp };
    // Non-conforming loops surface as `Trap`s with the `ScheduleError`
    // text — identical on both backends, since builtins are shared.
    let trip = bounds
        .try_trip_count()
        .map_err(|e| VmError(e.to_string()))?;
    let ws = with_ctx(|ctx| WsLoop::begin(ctx, sched, trip, label))
        .map_err(|e| VmError(e.to_string()))?;
    Ok(Value::Ws(Arc::new(Mutex::new(WsState {
        lb,
        incr,
        cur: None,
        ws,
    }))))
}

fn as_ws(v: &Value) -> VmResult<&Arc<WsIter>> {
    match v {
        Value::Ws(w) => Ok(w),
        other => err(format!(
            "expected a worksharing iterator, got {}",
            other.type_name()
        )),
    }
}

/// Claim the next chunk of the iterator `ws` and make it current: the
/// chunk's bounds in source-variable units (first value, exclusive
/// directional bound), or `None` once the loop is exhausted. One
/// acquisition of the thread-private state covers the claim, the trace
/// bookkeeping and both bounds — `__kmpc_dispatch_next(&lb, &ub)`.
pub(crate) fn ws_claim(ws: &Value) -> VmResult<Option<(i64, i64)>> {
    let ws = as_ws(ws)?;
    let mut st = ws.lock();
    let claim = st.ws.next();
    let (lb, incr) = (st.lb, st.incr);
    st.cur = claim.map(|r| (lb + r.start as i64 * incr, lb + r.end as i64 * incr));
    Ok(st.cur)
}

/// The chunk [`ws_claim`] last made current.
fn ws_cur(ws: &Value) -> VmResult<(i64, i64)> {
    let cur = as_ws(ws)?.lock().cur;
    cur.ok_or_else(|| VmError("worksharing iterator has no current chunk".into()))
}

/// End the loop for this thread, exhausted or not (which releases its team
/// construct slot), then synchronise unless `nowait`.
fn ws_fini(args: &[Value]) -> VmResult<Value> {
    let ws = as_ws(&args[0])?;
    let nowait = args[1].as_int()? != 0;
    ws.lock().ws.end();
    if !nowait {
        team_barrier()?;
    }
    Ok(Value::Void)
}
