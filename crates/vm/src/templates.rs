//! Typed-template loop tier (`--opt=3`, installed after the fixed
//! bulk kernels).
//!
//! The fixed kernels in [`crate::kernels`] cover the NPB hot shapes,
//! but any loop that misses all of them falls back to per-instruction
//! dispatch even when its body is a short straight-line run of typed
//! scalar/array operations (the `kernel-missed reason=shape` rows in
//! `--remarks`). This module closes that gap generically: the
//! installer decodes such loop bodies into a chain of monomorphized
//! *template ops* — small `fn(&mut TFrame, &TOp)` functions over an
//! unboxed register frame (`i64`/`f64` slot arrays plus raw
//! `ArrF::cells`/`ArrI::cells` element slices) — and replaces the
//! loop-head instruction with [`Insn::TemplateLoop`]. The runner then
//! executes whole loops as an indirect-threaded chain: one function
//! pointer call per source instruction per iteration, no `Value`
//! boxing, no operand decoding, no match dispatch.
//!
//! A loop whose iterations are independent — apart from single-op
//! reductions — runs *strip-mined* instead (see [`StripPlan`]): each op
//! executes over a strip of up to [`STRIP`] consecutive iterations
//! before the next op starts, every per-iteration scalar expanded to a
//! column, so the indirect call is paid once per op per strip, not once
//! per op per iteration. The installer decides which of the two walks a
//! variant gets; the `template-installed` remark reports the verdict. A
//! loop whose only stores are a gathered update (`h[g] += v`, or the
//! counting-sort scatter `out[cur[g]] = v; cur[g] += k`) runs strip-mined
//! too: the rest of the iteration over the strip, then the update lane by
//! lane in iteration order (see [`Tail`]).
//!
//! One loop form is recognised: a body ending in an [`Insn::IncCmpJump`]
//! whose target is the body's first instruction (a do-while; the
//! compiler's guard in front of it is not part of the template), with no
//! control flow inside but `if` statements without `else` — a forward
//! [`Insn::CmpJumpFalse`] whose arm holds no other branch. The scalar
//! chain skips an arm whose test fails; the strip walk if-converts it
//! (see `plan_strip`). The body may call the pure builtins
//! (`builtins::PURE`). The compiler lowers every canonical
//! counted loop to that form — a limit that is a local, a literal or a
//! pure expression of
//! locals the loop never assigns (evaluated once, before the guard), and
//! a step written as the continue expression or as the body's last
//! statement — so a loop the compiler leaves on the general path (a
//! limit that reads memory, a compound condition) runs interpreted.
//!
//! Types are inferred per loop by union-find over scalar registers
//! and array element kinds, seeded by typed pool constants and by
//! index operands (always `i64`). A loop whose kinds cannot all be
//! pinned that way (a plain `a[i] = b[i]` copy, a `s = s + a[i]`
//! sum) is installed with *both* an all-`i64` and an all-`f64`
//! variant for its unpinned kind groups; the runtime bind picks the
//! first whose type prechecks hold.
//!
//! Correctness contract (identical to the fixed kernels):
//!
//! - Binds type-check every bound register before any side effect;
//!   a mismatch falls through to the next variant and finally back
//!   to the interpreter (which runs the original head instruction).
//! - Mid-loop failures (bounds, div-by-zero) restore the bound
//!   loop-carried registers to their values at the start of the
//!   failing iteration, write them back, and deopt, so the
//!   interpreter replays the failing iteration and raises the exact
//!   error the bytecode would. To make that replay sound, a template
//!   is only installed when no fallible op executes after the first
//!   array store of an iteration (otherwise the replay could re-read
//!   locations the partial iteration already wrote); a second check of
//!   an element the iteration already checked (same array, same
//!   unchanged index register, not past the arm of the first) cannot
//!   fail and does not count.
//! - Float expression shapes are preserved exactly (separate
//!   mul-then-add for the fma-fused forms), so results stay
//!   bit-identical to interpretation.
//! - Loads and stores execute in interpreter order within an
//!   iteration, so aliasing arrays behave exactly as interpreted.

use std::cell::{RefCell, UnsafeCell};
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use crate::builtins::{Pure, PURE};
use crate::bytecode::{ArithOp, BuiltinOp, CmpOp, CompiledFn, Insn, Reg};
use crate::value::{ArrF, ArrI, Value, WriteFence};

/// Scalar slots per kind in a template frame.
pub const NSLOT: usize = 32;
/// Array slots per element kind in a template frame.
pub const NARR: usize = 6;
/// Longest loop (source instructions, head through back-edge) the
/// matcher will decode.
const MAX_INSNS: usize = 32;
/// Iterations a strip-mined variant runs per op. Per-element cost is
/// flat from 64 to 512; 128 keeps a ten-column loop inside 10 KB of L1.
const STRIP: usize = 128;
/// Iterations per call of a [`Tail`] that reads no column: its lane
/// values stay within 16 KB of L1, and its per-call checks (the
/// index proof, the write-backs) are paid once per 2048 lanes. IS's
/// `rank` at one thread (2^20 keys, 1024 buckets) runs about 5 % faster
/// than with such tails at [`STRIP`] (10 rounds of 30 paired ops on a
/// 2-vCPU x86-64 host, faster in 9).
const WIDE: usize = 2048;
/// Most columns per kind a strip plan may use (bounds the per-thread
/// scratch at `2 * MAX_COLS * STRIP * 8` bytes).
const MAX_COLS: usize = 32;
/// Int column 0 is the induction variable's iota.
const IOTA: u16 = 0;
/// Strip operand tag: not a column but the loop-carried accumulator in
/// scalar frame slot `operand & !ACC`.
const ACC: u16 = 0x8000;
/// Most `if` arms per loop: the bits of [`TFrame::taken`].
const ARMS: usize = 32;

type Bail = &'static str;
const BAIL_TYPE: Bail = "type";
const BAIL_BOUNDS: Bail = "bounds";
const BAIL_DIV: Bail = "div";

// ---------------------------------------------------------------------------
// Descriptors
// ---------------------------------------------------------------------------

/// Descriptor for one installed template, stored in
/// [`CompiledFn::templates`] and referenced by [`Insn::TemplateLoop`].
#[derive(Clone)]
pub struct TemplateDesc {
    /// The loop-head instruction the `TemplateLoop` replaced; deopt
    /// target (the dispatch loop runs this in its place and replays).
    pub orig: Insn,
    /// pc to resume at after a normal exit.
    pub exit: u32,
    /// Pragma `unit:line` label of the nearest enclosing worksharing
    /// loop, `""` when unnamed (same resolution as kernel labels).
    pub label: &'static str,
    pub prog: Arc<TProg>,
}

/// One compiled template program: the typed variants plus metadata.
#[derive(Debug)]
pub struct TProg {
    /// Candidate monomorphizations, tried in order at entry. More
    /// than one only when the loop's types could not be pinned
    /// statically (see module docs).
    pub variants: Vec<TVariant>,
    /// Induction register (for trace spans: native iterations are the
    /// before/after delta of this register).
    pub ind: Reg,
    /// The back-edge's limit register, step and test: the trip count
    /// at entry, read from the registers before anything is bound.
    lim: Reg,
    step: i64,
    cmp: CmpOp,
    /// Source instructions covered (head through back-edge), for
    /// remarks and disassembly.
    pub ninsns: usize,
}

/// The loop control of a variant (body then `IncCmpJump`: run ops,
/// bump the induction variable, test it against the limit). `ind` and
/// `lim` index int frame slots, not registers.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    ind: u16,
    step: i64,
    lim: u16,
    cmp: CmpOp,
}

/// An entry bind — type-check register `reg` and load it into frame
/// slot `slot`; any mismatch rejects the variant before any side
/// effect — or an exit write-back, the slot boxed back into the
/// register (`ArrI`/`ArrF`: a bound array into the register a `Deref` of
/// its cell defined).
#[derive(Clone, Copy, Debug)]
pub struct Bind {
    pub kind: BindKind,
    pub reg: Reg,
    pub slot: u16,
}
pub type Out = Bind;

/// What a [`Bind`] holds: a scalar, an array, or (binds only) the array
/// a cell holds.
#[derive(Clone, Copy, Debug)]
pub enum BindKind {
    Int,
    Flt,
    ArrI,
    ArrF,
    CellI,
    CellF,
}

/// One monomorphized template variant.
#[derive(Debug)]
pub struct TVariant {
    pub binds: Vec<Bind>,
    /// Loop-invariant constant loads, run once after a successful
    /// bind: a `Const` no other op overwrites reloads the same value
    /// every iteration, so it executes here instead of in the loop
    /// (its slot still feeds the exit write-back).
    pub prelude: Vec<TOp>,
    pub ops: Vec<TOp>,
    pub shape: Shape,
    /// Written registers boxed back on a normal exit.
    pub outs: Vec<Out>,
    /// Bound-and-written registers boxed back on a bail, after
    /// restoring their start-of-iteration snapshot, so the
    /// interpreter replays the failing iteration from exact state.
    pub bail_outs: Vec<Out>,
    /// Registers only `if` arms write and nothing reads first, boxed back
    /// on exit and on a bail when one of the arms in the mask ran
    /// ([`TFrame::taken`]): else they keep their value from before the loop.
    pub cond_outs: Vec<(u32, Out)>,
    /// Registers an arm gave another kind, boxed back on exit after the
    /// rest when the arm ran in the last iteration ([`TFrame::now`]).
    pub now_outs: Vec<(u16, Out)>,
    /// Slots snapshotted at the top of each iteration when any op is
    /// fallible: `(float?, slot)`.
    pub snap: Vec<(bool, u16)>,
    pub fallible: bool,
    /// `ai`/`af` frame slots the variant stores into (seqlock write
    /// fences open for the whole run, as in the kernels).
    pub wf_i: Vec<u16>,
    pub wf_f: Vec<u16>,
    /// How to run the loop strip-mined, or why it must run one
    /// iteration at a time (the reason the install remark prints).
    pub strip: Result<StripPlan, &'static str>,
}

/// A distributable loop re-lowered for strip execution: strip-mine by
/// [`STRIP`], distribute the strip loop over the ops, expand every
/// per-iteration scalar to a column. Legal because the installer
/// proved (`plan_strip`) that nothing but single-op accumulators is
/// carried between iterations and no stored array is read or written
/// at a second index — or, with a [`Tail`], that every store is a
/// gathered update the strip still performs in iteration order.
#[derive(Default, Debug)]
pub struct StripPlan {
    /// The variant's protos lowered one by one (unfused) with column
    /// operands: every op's definition gets a fresh column (a copy names
    /// its source's), so a destination is numbered above its sources.
    ops: Vec<(StripWalk, TOp)>,
    /// Columns used per kind.
    ni: usize,
    nf: usize,
    /// Loop-invariant scalars broadcast into columns on entry:
    /// `(float?, slot, column)`; likewise the constants of the body.
    bcast: Vec<(bool, u16, u16)>,
    konst: Vec<(u16, KVal)>,
    /// Some op reads the induction variable as a value (affine
    /// loads/stores do not): fill [`IOTA`] every strip.
    iota: bool,
    /// The ops that fold into accumulators, run after the tail over the
    /// lanes it completed.
    folds: Vec<(StripWalk, TOp)>,
    /// Written slots and the column of their last definition, copied
    /// back from the final lane on normal exit — from the column `base`
    /// instead when the last definition is in an arm whose test failed
    /// there: `(float?, slot, column, Some((arm, base)))`.
    last: Vec<Last>,
    /// Slots only an arm defines, `(float?, slot, column, arm)`: after
    /// each strip they take the column's value at the last lane whose
    /// test held, if any.
    held: Vec<(bool, u16, u16, u16)>,
    /// The gathered-update suffix of the iteration, run lane by lane
    /// after `ops` (the head) has filled its columns.
    tail: Option<Tail>,
    /// The loop's `if` arms (each test lists its lanes before a reader).
    arms: usize,
}

/// A gathered update: the suffix of an iteration that stores into an
/// array at an index `g` the head computed, in one of two forms. A lane
/// reads its value `x` from `src`; `g` is `x`, or `x / d` when the head's
/// division by an invariant `d` moved into the tail (`div`: the slots of
/// `d` and `g`). After a strip the frame holds the last lane's values:
/// `x` in `keys` (registers a fused load defined), `g`, the loaded
/// element in `loaded` and the stored one in `stored`.
#[derive(Debug)]
struct Tail {
    src: Src,
    div: Option<(u16, u16)>,
    keys: Vec<u16>,
    loaded: Vec<u16>,
    stored: u16,
    /// The updated array holds floats.
    flt: bool,
    form: TailForm,
    /// The arm the update is in: it skips the lanes whose test failed.
    arm: Option<u16>,
}

/// A written slot's exit value (see [`StripPlan::last`]).
type Last = (bool, u16, u16, Option<(u16, u16)>);

/// Where a tail reads a lane's value.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Src {
    /// A column the head filled.
    Col(u16),
    /// The head's load `ai[arr][ind + off]` (step 1), done by the tail in
    /// the same pass when the head is nothing else (with copies of the
    /// key and the division `div`).
    Load { arr: u16, off: i64 },
}

#[derive(Clone, Copy, Debug)]
enum TailForm {
    /// `h[g] += v`, `v` a column or an immediate (an array reduction).
    Update { h: u16, v: Result<u16, KVal> },
    /// `out[cur[g]] = v; cur[g] += k` (a memory-carried cursor: the
    /// scatter of a counting sort).
    Cursor { cur: u16, out: u16, v: Src, k: i64 },
}

/// One template op: a monomorphized function over the frame plus its
/// pre-resolved operands. `a` is the destination (or target array
/// slot for stores), `b`/`c` are sources, `off` the index offset,
/// `ki`/`kf` an immediate resolved from the constant pool at install
/// time (the pool is frozen after installation). `row` is `f`'s row of
/// [`OPS`], which names it where the plan prints.
#[derive(Clone, Copy)]
pub struct TOp {
    pub f: OpFn,
    row: u8,
    pub a: u16,
    pub b: u16,
    pub c: u16,
    pub off: i64,
    pub ki: i64,
    pub kf: f64,
    /// An arm test's comparison.
    pub cmp: CmpOp,
    /// The arm an `if` test opens; in a strip plan, the arm whose lanes
    /// a fold or a libm call runs over.
    pub arm: Option<u16>,
}

pub type OpFn = fn(&mut TFrame<'_>, &TOp) -> Result<(), Bail>;

/// An op with no operands, to fill in.
const NOP: TOp = TOp {
    f: mov_i.one,
    row: MOV as u8,
    a: 0,
    b: 0,
    c: 0,
    off: 0,
    ki: 0,
    kf: 0.0,
    cmp: CmpOp::Eq,
    arm: None,
};

impl std::fmt::Debug for TOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TOp")
            .field("f", &format_args!("{}", op_name(self.row)))
            .field("a", &self.a)
            .field("b", &self.b)
            .field("c", &self.c)
            .field("off", &self.off)
            .field("ki", &self.ki)
            .field("kf", &self.kf)
            .field("cmp", &self.cmp)
            .field("arm", &self.arm)
            .finish()
    }
}

/// The strip form of an op: the same [`TOp`] operand layout, but `a`,
/// `b`, `c` name columns (or carry the [`ACC`] tag) instead of slots.
type StripFn = fn(&mut Strip<'_, '_>, &TOp) -> Result<(), Bail>;

/// The strip walk that runs a strip plan's op: its row of [`OPS`] (the
/// op's own, or a select's), which names it, and that row's function.
#[derive(Clone, Copy)]
struct StripWalk {
    f: StripFn,
    row: u8,
}

impl StripWalk {
    fn of(row: usize) -> StripWalk {
        let f = OPS[row].strip;
        StripWalk { f, row: row as u8 }
    }
}

impl std::fmt::Debug for StripWalk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.strip", op_name(self.row))
    }
}

/// Both walks of one template op, generated together so each
/// arithmetic expression is written once.
#[derive(Clone, Copy)]
struct Ops {
    one: OpFn,
    strip: StripFn,
}

/// The unboxed execution frame: fixed scalar slot files plus raw
/// element slices of the bound arrays (the owning `Arc`s are held
/// alive by the runner for the duration of the run).
pub struct TFrame<'a> {
    pub ints: [i64; NSLOT],
    pub flts: [f64; NSLOT],
    pub ai: [&'a [UnsafeCell<i64>]; NARR],
    pub af: [&'a [UnsafeCell<f64>]; NARR],
    /// Bit `a`: arm `a` ran in some iteration of this run; in the last.
    pub taken: u32,
    pub now: u32,
    /// The outcome of the last `if` test the scalar chain ran.
    pub held: bool,
}

/// The strip execution state: the scalar frame (invariants, the
/// induction variable at the strip's first iteration, accumulators)
/// plus this thread's column scratch.
struct Strip<'s, 'a> {
    fr: &'s mut TFrame<'a>,
    ci: &'s mut [[i64; STRIP]],
    cf: &'s mut [[f64; STRIP]],
    /// Iterations in this strip (`1..=STRIP`).
    n: usize,
    arms: &'s mut Arms,
    /// The induction variable at lane 0, and its step per lane.
    i0: i64,
    step: i64,
}

/// One kind's columns: a strip's worth of lanes per expanded scalar.
type Cols<T> = Vec<[T; STRIP]>;

thread_local! {
    /// Column scratch, grown to the widest plan this thread has run and
    /// never shrunk or re-zeroed: every column is written (broadcast,
    /// iota or an op's destination) before a strip reads it; likewise
    /// an arm's lanes, by its test.
    static COLS: RefCell<(Cols<i64>, Cols<f64>, Arms)> = const {
        RefCell::new((Vec::new(), Vec::new(), Arms { lanes: [[0; STRIP]; ARMS], held: [0; ARMS] }))
    };
}

/// Per arm, the lanes of the strip its test held at, in order.
struct Arms {
    lanes: [[u8; STRIP]; ARMS],
    held: [usize; ARMS],
}

impl Arms {
    /// The lanes an op of arm `arm` runs over (`None`: not in an arm, all).
    fn of(&self, arm: Option<u16>) -> Option<&[u8]> {
        arm.map(|a| &self.lanes[a as usize][..self.held[a as usize]])
    }
}

/// An element kind's two files, scalar slots and columns, and the arms'
/// lanes.
trait Lane: Copy {
    fn files<'s>(sf: &'s mut Strip<'_, '_>) -> Files<'s, Self>;
}
type Files<'s, T> = (&'s mut [T; NSLOT], &'s mut [[T; STRIP]], &'s Arms);
impl Lane for i64 {
    fn files<'s>(sf: &'s mut Strip<'_, '_>) -> Files<'s, i64> {
        (&mut sf.fr.ints, sf.ci, sf.arms)
    }
}
impl Lane for f64 {
    fn files<'s>(sf: &'s mut Strip<'_, '_>) -> Files<'s, f64> {
        (&mut sf.fr.flts, sf.cf, sf.arms)
    }
}

/// Destination column `d` (its first `n` lanes) and, read-only, the
/// columns numbered below it — where a plan puts every source.
fn split<T>(cols: &mut [[T; STRIP]], d: u16, n: usize) -> (&[[T; STRIP]], &mut [T]) {
    let (lo, hi) = cols.split_at_mut(d as usize);
    (lo, &mut hi[0][..n])
}

/// `d[k] = f(k)` over the lanes `0..d.len()` — for an op inside an arm,
/// over the lanes `ks` its test held at.
#[inline(always)]
fn fill<T>(
    d: &mut [T],
    ks: Option<&[u8]>,
    f: impl Fn(usize) -> Result<T, Bail>,
) -> Result<(), Bail> {
    match ks {
        None => (0..d.len()).try_for_each(|k| f(k).map(|x| d[k] = x)),
        Some(ks) => (ks.iter()).try_for_each(|&k| f(k as usize).map(|x| d[k as usize] = x)),
    }
}

/// Strip form of `a = b op c`. With `a` an accumulator the strip folds
/// into its scalar slot lane by lane, so a float sum rounds in
/// iteration order exactly as the scalar chain does.
fn strip2<T: Lane>(
    sf: &mut Strip,
    op: &TOp,
    e: impl Fn(T, T) -> Result<T, Bail>,
) -> Result<(), Bail> {
    let n = sf.n;
    let (file, cols, arms) = T::files(sf);
    let ks = arms.of(op.arm);
    if op.a & ACC != 0 {
        let s = (op.a & !ACC) as usize;
        let mut acc = file[s];
        let left = op.b == op.a;
        let ys = &cols[if left { op.c } else { op.b } as usize][..n];
        match (ks, left) {
            (None, true) => {
                for &y in ys {
                    acc = e(acc, y)?;
                }
            }
            (None, false) => {
                for &x in ys {
                    acc = e(x, acc)?;
                }
            }
            (Some(ks), _) => {
                for k in ks.iter().map(|&k| k as usize) {
                    acc = if left { e(acc, ys[k]) } else { e(ys[k], acc) }?;
                }
            }
        }
        file[s] = acc;
        return Ok(());
    }
    let (lo, d) = split(cols, op.a, n);
    let (xs, ys) = (&lo[op.b as usize][..n], &lo[op.c as usize][..n]);
    if ks.is_some() {
        return fill(d, ks, |k| e(xs[k], ys[k]));
    }
    for k in 0..n {
        d[k] = e(xs[k], ys[k])?;
    }
    Ok(())
}

/// Strip form of `a = b op immediate` (either operand order).
fn strip1<T: Lane>(sf: &mut Strip, op: &TOp, e: impl Fn(T) -> Result<T, Bail>) -> Result<(), Bail> {
    let n = sf.n;
    let (file, cols, arms) = T::files(sf);
    let ks = arms.of(op.arm);
    if op.a & ACC != 0 {
        let s = (op.a & !ACC) as usize;
        let mut acc = file[s];
        // The lanes an immediate folds in are only counted.
        for _ in 0..ks.map_or(n, |ks| ks.len()) {
            acc = e(acc)?;
        }
        file[s] = acc;
        return Ok(());
    }
    let (lo, d) = split(cols, op.a, n);
    let xs = &lo[op.b as usize][..n];
    if ks.is_some() {
        return fill(d, ks, |k| e(xs[k]));
    }
    for (d, &x) in d.iter_mut().zip(xs) {
        *d = e(x)?;
    }
    Ok(())
}

impl TProg {
    /// How the loop runs, for the install remark: `strip`, or
    /// `scalar: <the rule that keeps it one iteration at a time>`
    /// (the variants differ only in kinds, never in the verdict).
    pub fn verdict(&self) -> String {
        match &self.variants[0].strip {
            Ok(_) => "strip".to_string(),
            Err(why) => format!("scalar: {why}"),
        }
    }
}

impl TemplateDesc {
    /// Report every register the template binds or writes back, for
    /// bytecode verification.
    pub fn visit_regs(&self, mut f: impl FnMut(Reg)) {
        f(self.prog.ind);
        for v in &self.prog.variants {
            let cond = v.cond_outs.iter().map(|(_, o)| o);
            let now = v.now_outs.iter().map(|(_, o)| o);
            let all = v.binds.iter().chain(&v.outs).chain(&v.bail_outs);
            all.chain(cond).chain(now).for_each(|b| f(b.reg));
        }
    }

    /// Report every register the template reads on entry: the induction
    /// and limit registers of the trip-count test, and every variant's
    /// binds (the liveness of an installed head).
    pub fn visit_reads(&self, mut f: impl FnMut(Reg)) {
        f(self.prog.ind);
        f(self.prog.lim);
        for v in &self.prog.variants {
            v.binds.iter().for_each(|b| f(b.reg));
        }
    }

    /// Drop the normal-exit write-backs of the registers `live` says
    /// nothing reads after `exit`. The induction register stays (trace
    /// spans read it), and so do the bail write-backs: a replay needs
    /// exact state. An arm-only register is written back on a bail too,
    /// but nothing reads it before the loop's exit, so dropping it there
    /// is unobservable as well.
    pub(crate) fn prune_outs(&mut self, live: impl Fn(Reg) -> bool) {
        let Some(prog) = Arc::get_mut(&mut self.prog) else {
            return;
        };
        let ind = prog.ind;
        let keep = |o: &Out| o.reg == ind || live(o.reg);
        for v in &mut prog.variants {
            v.outs.retain(keep);
            v.cond_outs.retain(|(_, o)| keep(o));
            v.now_outs.retain(|(_, o)| keep(o));
        }
    }
}

// ---------------------------------------------------------------------------
// Template ops (the monomorphized instruction set)
// ---------------------------------------------------------------------------

/// A zero divisor is an error and `i64::MIN / -1` wraps (to `MIN`, and
/// `MIN % -1` to 0) in the interpreter; deopt on both so the interpreter
/// owns the error text and the wrapped value.
fn div_ok(x: i64, y: i64) -> bool {
    y != 0 && !(y == -1 && x == i64::MIN)
}

/// `a = b op c` over slots of one kind: the scalar op and its strip
/// form from one expression.
macro_rules! ops2 {
    ($n:ident, $t:ty, $file:ident, |$x:ident, $y:ident| $e:expr) => {
        #[allow(non_upper_case_globals)]
        const $n: Ops = {
            #[inline(always)]
            fn e($x: $t, $y: $t) -> Result<$t, Bail> {
                $e
            }
            fn one(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
                fr.$file[op.a as usize] = e(fr.$file[op.b as usize], fr.$file[op.c as usize])?;
                Ok(())
            }
            fn strip(sf: &mut Strip, op: &TOp) -> Result<(), Bail> {
                strip2::<$t>(sf, op, e)
            }
            Ops { one, strip }
        };
    };
}
/// `a = b op immediate` (`$imm` is the `TOp` field holding it).
macro_rules! ops1 {
    ($n:ident, $t:ty, $file:ident, $imm:ident, |$x:ident, $k:ident| $e:expr) => {
        #[allow(non_upper_case_globals)]
        const $n: Ops = {
            #[inline(always)]
            fn e($x: $t, $k: $t) -> Result<$t, Bail> {
                $e
            }
            fn one(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
                fr.$file[op.a as usize] = e(fr.$file[op.b as usize], op.$imm)?;
                Ok(())
            }
            fn strip(sf: &mut Strip, op: &TOp) -> Result<(), Bail> {
                let k = op.$imm;
                strip1::<$t>(sf, op, |x| e(x, k))
            }
            Ops { one, strip }
        };
    };
}
macro_rules! op_ii {
    ($n:ident, |$x:ident, $y:ident| $e:expr) => {
        ops2!($n, i64, ints, |$x, $y| Ok($e));
    };
}
macro_rules! op_ii_div {
    ($n:ident, |$x:ident, $y:ident| $e:expr) => {
        ops2!($n, i64, ints, |$x, $y| if div_ok($x, $y) {
            Ok($e)
        } else {
            Err(BAIL_DIV)
        });
    };
}
macro_rules! op_ik {
    ($n:ident, |$x:ident, $k:ident| $e:expr) => {
        ops1!($n, i64, ints, ki, |$x, $k| Ok($e));
    };
}
macro_rules! op_ik_div {
    ($n:ident, |$x:ident, $k:ident| $num:ident / $den:ident, $e:expr) => {
        ops1!($n, i64, ints, ki, |$x, $k| if div_ok($num, $den) {
            Ok($e)
        } else {
            Err(BAIL_DIV)
        });
    };
}
macro_rules! op_ff {
    ($n:ident, |$x:ident, $y:ident| $e:expr) => {
        ops2!($n, f64, flts, |$x, $y| Ok($e));
    };
}
macro_rules! op_fk {
    ($n:ident, |$x:ident, $k:ident| $e:expr) => {
        ops1!($n, f64, flts, kf, |$x, $k| Ok($e));
    };
}

op_ii!(add_ii, |x, y| x.wrapping_add(y));
op_ii!(sub_ii, |x, y| x.wrapping_sub(y));
op_ii!(mul_ii, |x, y| x.wrapping_mul(y));
op_ii_div!(div_ii, |x, y| x / y);
op_ii_div!(rem_ii, |x, y| x % y);

op_ik!(addk_i, |x, k| x.wrapping_add(k));
op_ik!(subk_i, |x, k| x.wrapping_sub(k));
op_ik!(mulk_i, |x, k| x.wrapping_mul(k));
op_ik_div!(divk_i, |x, k| x / k, x / k);
op_ik_div!(remk_i, |x, k| x / k, x % k);
op_ik!(addkl_i, |x, k| k.wrapping_add(x));
op_ik!(subkl_i, |x, k| k.wrapping_sub(x));
op_ik!(mulkl_i, |x, k| k.wrapping_mul(x));
op_ik_div!(divkl_i, |x, k| k / x, k / x);
op_ik_div!(remkl_i, |x, k| k / x, k % x);

op_ff!(add_ff, |x, y| x + y);
op_ff!(sub_ff, |x, y| x - y);
op_ff!(mul_ff, |x, y| x * y);
op_ff!(div_ff, |x, y| x / y);
op_ff!(rem_ff, |x, y| x % y);

op_fk!(addk_f, |x, k| x + k);
op_fk!(subk_f, |x, k| x - k);
op_fk!(mulk_f, |x, k| x * k);
op_fk!(divk_f, |x, k| x / k);
op_fk!(remk_f, |x, k| x % k);
op_fk!(addkl_f, |x, k| k + x);
op_fk!(subkl_f, |x, k| k - x);
op_fk!(mulkl_f, |x, k| k * x);
op_fk!(divkl_f, |x, k| k / x);
op_fk!(remkl_f, |x, k| k % x);

/// `a = b` and `a = immediate` for one kind. No strip plan runs them: a
/// copy names its source's column, a constant a column filled once.
macro_rules! ops_mov {
    ($mov:ident, $konst:ident, $file:ident, $imm:ident) => {
        #[allow(non_upper_case_globals)]
        const $mov: Ops = Ops {
            one: |fr, op| {
                fr.$file[op.a as usize] = fr.$file[op.b as usize];
                Ok(())
            },
            strip: |_, _| unreachable!("a copy is a named column"),
        };
        #[allow(non_upper_case_globals)]
        const $konst: Ops = Ops {
            one: |fr, op| {
                fr.$file[op.a as usize] = op.$imm;
                Ok(())
            },
            strip: |_, _| unreachable!("a constant is a named column"),
        };
    };
}
ops_mov!(mov_i, const_i, ints, ki);
ops_mov!(mov_f, const_f, flts, kf);

/// First element index of an affine access `ind + off` over a strip of
/// `n` lanes, after checking the first and last lane against `len` —
/// the lanes between them are monotone, so one check covers the strip.
/// Any overflow on the way is reported as out of bounds: the scalar
/// replay then finds out what the interpreter would really do.
fn affine(len: usize, n: usize, i0: i64, step: i64, off: i64) -> Result<i64, Bail> {
    let first = i0.checked_add(off).ok_or(BAIL_BOUNDS)?;
    let last = first
        .checked_add((n as i64 - 1) * step)
        .ok_or(BAIL_BOUNDS)?;
    if (first as u64) >= len as u64 || (last as u64) >= len as u64 {
        return Err(BAIL_BOUNDS);
    }
    Ok(first)
}

/// Fill `d` from `arr`: a gather through the index column, or — `idx`
/// `None`, the index is affine in the induction variable — a (strided)
/// slice copy.
fn load_lanes<T: Copy>(
    arr: &[UnsafeCell<T>],
    d: &mut [T],
    idx: Option<&[i64]>,
    (i0, step, off): (i64, i64, i64),
) -> Result<(), Bail> {
    let Some(idx) = idx else {
        let first = affine(arr.len(), d.len(), i0, step, off)?;
        if step == 1 {
            let src = &arr[first as usize..first as usize + d.len()];
            for (d, c) in d.iter_mut().zip(src) {
                // SAFETY: a plain element read through the cell, as the
                // scalar `ld` does one lane at a time.
                *d = unsafe { *c.get() };
            }
        } else {
            for (k, d) in d.iter_mut().enumerate() {
                // SAFETY: `affine` bounds-checked the first and last
                // lane; the rest lie between them.
                *d = unsafe { *arr.get_unchecked((first + k as i64 * step) as usize).get() };
            }
        }
        return Ok(());
    };
    for (d, &i) in d.iter_mut().zip(idx) {
        let i = i.wrapping_add(off);
        if (i as u64) >= arr.len() as u64 {
            return Err(BAIL_BOUNDS);
        }
        // SAFETY: checked on the line above.
        *d = unsafe { *arr.get_unchecked(i as usize).get() };
    }
    Ok(())
}

/// Store `s` at the affine index `ind + 0`, bounds-checked before the
/// first lane is written.
fn store_lanes<T: Copy>(arr: &[UnsafeCell<T>], s: &[T], i0: i64, step: i64) -> Result<(), Bail> {
    let first = affine(arr.len(), s.len(), i0, step, 0)?;
    for (k, &v) in s.iter().enumerate() {
        // SAFETY: `affine` bounds-checked the first and last lane; the
        // rest lie between them.
        unsafe { *arr.get_unchecked((first + k as i64 * step) as usize).get() = v };
    }
    Ok(())
}

/// Loads/stores: `b` is the index slot, `off` the static offset
/// (`IndexOff`/`DerefIndexOff` fold it with a wrapping add, exactly
/// as the interpreter's `index_off`). A negative or too-large index
/// is one unsigned compare. `$dst` yields the strip load's
/// `(int columns, destination lanes)`.
macro_rules! ops_mem {
    ($ld:ident, $st:ident, $file:ident, $arrs:ident, $cols:ident, |$sf:ident, $op:ident| $dst:expr) => {
        #[allow(non_upper_case_globals)]
        const $ld: Ops = {
            fn one(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
                let i = fr.ints[op.b as usize].wrapping_add(op.off);
                let arr = fr.$arrs[op.c as usize];
                if (i as u64) >= arr.len() as u64 {
                    return Err(BAIL_BOUNDS);
                }
                fr.$file[op.a as usize] = unsafe { *arr.get_unchecked(i as usize).get() };
                Ok(())
            }
            /// `ki`: the index is the induction variable times `ki`, else
            /// (0) a column.
            fn strip($sf: &mut Strip, $op: &TOp) -> Result<(), Bail> {
                let arr = $sf.fr.$arrs[$op.c as usize];
                let (Some(i0), Some(step)) =
                    ($sf.i0.checked_mul($op.ki), $sf.step.checked_mul($op.ki))
                else {
                    return Err(BAIL_BOUNDS);
                };
                let (ci, d) = $dst;
                let idx = ($op.ki == 0).then(|| &ci[$op.b as usize][..d.len()]);
                load_lanes(arr, d, idx, (i0, step, $op.off))
            }
            Ops { one, strip }
        };
        #[allow(non_upper_case_globals)]
        const $st: Ops = {
            fn one(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
                let i = fr.ints[op.b as usize].wrapping_add(op.off);
                let arr = fr.$arrs[op.a as usize];
                if (i as u64) >= arr.len() as u64 {
                    return Err(BAIL_BOUNDS);
                }
                unsafe { *arr.get_unchecked(i as usize).get() = fr.$file[op.c as usize] };
                Ok(())
            }
            /// A plan only ever stores at the induction variable.
            fn strip(sf: &mut Strip, op: &TOp) -> Result<(), Bail> {
                debug_assert_eq!(op.b, IOTA);
                let s = &sf.$cols[op.c as usize][..sf.n];
                store_lanes(sf.fr.$arrs[op.a as usize], s, sf.i0, sf.step)
            }
            Ops { one, strip }
        };
    };
}
ops_mem!(ld_i, st_i, ints, ai, ci, |sf, op| split(sf.ci, op.a, sf.n));
ops_mem!(ld_f, st_f, flts, af, cf, |sf, op| (
    &*sf.ci,
    &mut sf.cf[op.a as usize][..sf.n]
));

/// Row `R` of [`PURE`], one op per row: the row's function is a constant
/// of each instantiation, so both walks call it directly, lane by lane.
fn pure_one<const R: usize>(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    let (a, b, c) = (op.a as usize, op.b as usize, op.c as usize);
    match const { PURE[R].1 } {
        Pure::F(f) => fr.flts[a] = f(fr.flts[b]),
        Pure::I(f) => fr.ints[a] = f(fr.ints[b]),
        Pure::FF(f) => fr.flts[a] = f(fr.flts[b], fr.flts[c]),
        Pure::II(f) => fr.ints[a] = f(fr.ints[b], fr.ints[c]),
        Pure::IF(f) => fr.flts[a] = f(fr.ints[b]),
        Pure::FI(f) => fr.ints[a] = f(fr.flts[b]),
    }
    Ok(())
}
fn pure_strip<const R: usize>(sf: &mut Strip, op: &TOp) -> Result<(), Bail> {
    let n = sf.n;
    let (a, b) = (op.a as usize, op.b as usize);
    match const { PURE[R].1 } {
        Pure::F(f) => strip1::<f64>(sf, op, |x| Ok(f(x))),
        Pure::I(f) => strip1::<i64>(sf, op, |x| Ok(f(x))),
        Pure::FF(f) => strip2::<f64>(sf, op, |x, y| Ok(f(x, y))),
        Pure::II(f) => strip2::<i64>(sf, op, |x, y| Ok(f(x, y))),
        Pure::IF(f) => fill(&mut sf.cf[a][..n], sf.arms.of(op.arm), |k| {
            Ok(f(sf.ci[b][k]))
        }),
        Pure::FI(f) => fill(&mut sf.ci[a][..n], sf.arms.of(op.arm), |k| {
            Ok(f(sf.cf[b][k]))
        }),
    }
}

/// The argument and result kinds of a pure row.
fn sig(row: Pure) -> (&'static [K], K) {
    match row {
        Pure::F(_) => (&[K::Flt], K::Flt),
        Pure::I(_) => (&[K::Int], K::Int),
        Pure::FF(_) => (&[K::Flt, K::Flt], K::Flt),
        Pure::II(_) => (&[K::Int, K::Int], K::Int),
        Pure::IF(_) => (&[K::Int], K::Flt),
        Pure::FI(_) => (&[K::Flt], K::Int),
    }
}

/// An `if` test `b cmp c` opening arm `arm`. The scalar form records
/// the outcome in [`TFrame::held`], for `exec` to skip the arm's `off`
/// ops by; the strip form lists the lanes it holds at.
macro_rules! ops_br {
    ($n:ident, $file:ident, $cols:ident) => {
        #[allow(non_upper_case_globals)]
        const $n: Ops = {
            fn one(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
                let (x, y) = (fr.$file[op.b as usize], fr.$file[op.c as usize]);
                fr.held = op.cmp.eval(x, y);
                Ok(())
            }
            fn strip(sf: &mut Strip, op: &TOp) -> Result<(), Bail> {
                let n = sf.n;
                let (xs, ys) = (&sf.$cols[op.b as usize][..n], &sf.$cols[op.c as usize][..n]);
                let a = op.arm.unwrap_or_default() as usize;
                sf.arms.held[a] = test(&mut sf.arms.lanes[a], xs, ys, op.cmp);
                Ok(())
            }
            Ops { one, strip }
        };
    };
}
ops_br!(br_i, ints, ci);
ops_br!(br_f, flts, cf);

/// The lanes `k` where `xs[k] cmp ys[k]`, in order, into `ks`; how many.
/// One loop per comparison, with no branch on its outcome.
fn test<T: Copy + PartialOrd>(ks: &mut [u8; STRIP], xs: &[T], ys: &[T], cmp: CmpOp) -> usize {
    fn go<T: Copy>(ks: &mut [u8; STRIP], xs: &[T], ys: &[T], f: impl Fn(T, T) -> bool) -> usize {
        let mut held = 0;
        for (k, (&x, &y)) in xs.iter().zip(ys).enumerate() {
            ks[held] = k as u8;
            held += f(x, y) as usize;
        }
        held
    }
    match cmp {
        CmpOp::Lt => go(ks, xs, ys, |x, y| x < y),
        CmpOp::Le => go(ks, xs, ys, |x, y| x <= y),
        CmpOp::Gt => go(ks, xs, ys, |x, y| x > y),
        CmpOp::Ge => go(ks, xs, ys, |x, y| x >= y),
        CmpOp::Eq => go(ks, xs, ys, |x, y| x == y),
        CmpOp::Ne => go(ks, xs, ys, |x, y| x != y),
    }
}

/// `a = arm held ? b : c`, lane by lane: the value after an arm of a
/// register both the arm and the code before it define.
fn sel<T: Lane>(sf: &mut Strip, op: &TOp) -> Result<(), Bail> {
    let n = sf.n;
    let (_, cols, arms) = T::files(sf);
    let (lo, d) = split(cols, op.a, n);
    d.copy_from_slice(&lo[op.c as usize][..n]);
    for &k in arms.of(op.arm).unwrap_or_default() {
        d[k as usize] = lo[op.b as usize][k as usize];
    }
    Ok(())
}

macro_rules! op_table {
    ($($r:literal)*) => {[
        add_ii, sub_ii, mul_ii, div_ii, rem_ii, add_ff, sub_ff, mul_ff, div_ff, rem_ff,
        addk_i, subk_i, mulk_i, divk_i, remk_i, addkl_i, subkl_i, mulkl_i, divkl_i, remkl_i,
        addk_f, subk_f, mulk_f, divk_f, remk_f, addkl_f, subkl_f, mulkl_f, divkl_f, remkl_f,
        $(Ops { one: pure_one::<$r>, strip: pure_strip::<$r> },)*
        mov_i, mov_f, const_i, const_f, ld_i, ld_f, st_i, st_f, br_i, br_f,
        Ops { one: mov_i.one, strip: sel::<i64> },
        Ops { one: mov_i.one, strip: sel::<f64> },
    ]};
}
/// Every template op by row, the row a [`TOp`] carries: the arithmetic
/// ops at `5 * kind + ArithOp`, the kinds being int, float, then an
/// immediate on the right and on the left of an int and of a float; from
/// `PURE_ROW`, [`PURE`]'s rows (an added row fails to compile here); from
/// `MOV`, the fixed ops' int and float rows in pairs, the selects last
/// (strip walks only).
static OPS: [Ops; MOV + 12] = op_table!(0 1 2 3 4 5 6 7 8 9 10 11 12 13);
const PURE_ROW: usize = 30;
const MOV: usize = PURE_ROW + PURE.len();
const KONST: usize = MOV + 2;
const LD: usize = MOV + 4;
const ST: usize = MOV + 6;
const BR: usize = MOV + 8;
const SEL: usize = MOV + 10;

/// The name of row `row` of [`OPS`], as a plan prints it.
fn op_name(row: u8) -> String {
    let r = row as usize;
    match r.checked_sub(PURE_ROW) {
        None => {
            let arith = ["add", "sub", "mul", "div", "rem"];
            let kinds = ["ii", "ff", "k_i", "kl_i", "k_f", "kl_f"];
            format!("{}{}", arith[r % 5], kinds[r / 5])
        }
        Some(p) if p < PURE.len() => format!("pure{p}_{:?}", PURE[p].0),
        Some(_) => {
            let fixed = ["mov", "const", "ld", "st", "br", "sel"];
            format!("{}_{}", fixed[(r - MOV) / 2], ["i", "f"][(r - MOV) % 2])
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// The shortest trip a template is entered for. Entering one binds the
/// registers, builds the frame and sets up the strips before the first
/// iteration, so a loop of one to three iterations runs interpreted
/// instead. Measured on one body only, `fork_small`'s (`s = s + x[i] *
/// (r % 7 + 1)`, `x` shared), in a 1000-region `vm_region` row at a team
/// of one: the minimum of 16 interleaved rounds, ns per region,
/// interpreted / entered, on a 2-vCPU x86-64 host, is 769 / 905 at trip
/// 1, 853 / 949 at 3, 891 / 921 at 4, 926 / 923 at 5, 990 / 913 at 6,
/// 1252 / 924 at 8. Entering breaks even at 5 to 6 iterations; 4 is the
/// conservative side of that, entering a 4-iteration loop for ~30 ns,
/// which is inside the rows' noise.
const MIN_TRIP: u64 = 4;

/// What [`run`] did with the loop.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Ran {
    /// It ran to its exit and the written registers were boxed back
    /// (jump to `desc.exit`).
    Done,
    /// It bailed: replay `desc.orig` interpreted from the state the
    /// template left, for the rest of the activation.
    Bailed,
    /// Nothing: the loop has fewer than [`MIN_TRIP`] iterations left, so
    /// this entry runs `desc.orig` interpreted (the next entry decides
    /// again).
    Short,
}

/// Run one template against the current frame. Telemetry mirrors the
/// kernel tier: a span per dispatch, native iterations from the
/// induction register's before/after delta, and the machine-readable
/// bail reason on deopt. A [`Ran::Short`] loop records nothing.
pub(crate) fn run(desc: &TemplateDesc, pc: u32, regs: &mut [Value]) -> Ran {
    let prog = &desc.prog;
    if let (&Value::Int(i0), &Value::Int(lim)) =
        (&regs[prog.ind as usize], &regs[prog.lim as usize])
    {
        if trip_count(i0, lim, prog.step, prog.cmp).is_some_and(|t| t < MIN_TRIP) {
            return Ran::Short;
        }
    }
    let ran = |r: Result<(), Bail>| if r.is_ok() { Ran::Done } else { Ran::Bailed };
    if !zomp::trace::active() {
        return ran(run_inner(prog, regs));
    }
    let t0 = zomp::trace::kernel_begin_ts();
    let ind = prog.ind as usize;
    let before = match regs[ind] {
        Value::Int(v) => v,
        _ => 0,
    };
    let r = run_inner(prog, regs);
    let after = match regs[ind] {
        Value::Int(v) => v,
        _ => before,
    };
    let iters = after.wrapping_sub(before).max(0) as u64;
    let label = if desc.label.is_empty() {
        "template"
    } else {
        desc.label
    };
    zomp::trace::kernel_end(label, pc, iters, r.err(), t0);
    ran(r)
}

fn run_inner(prog: &TProg, regs: &mut [Value]) -> Result<(), Bail> {
    for v in &prog.variants {
        match run_variant(v, regs) {
            VOut::Skip => continue,
            VOut::Done => return Ok(()),
            VOut::Bail(b) => return Err(b),
        }
    }
    Err(BAIL_TYPE)
}

enum VOut {
    /// A bind type-check failed before any side effect; try the next
    /// variant (and ultimately the interpreter).
    Skip,
    Done,
    Bail(Bail),
}

fn run_variant(v: &TVariant, regs: &mut [Value]) -> VOut {
    // Resolve binds first: scalars straight into the frame's slot files,
    // arrays into owning Arcs (cells lock once, exactly like the kernels —
    // a racy concurrent rebind of the cell itself is unspecified either
    // way). Only the variant's own binds are visited, here and below.
    let mut arci: [Option<Arc<ArrI>>; NARR] = Default::default();
    let mut arcf: [Option<Arc<ArrF>>; NARR] = Default::default();
    let mut fr = TFrame {
        ints: [0; NSLOT],
        flts: [0.0; NSLOT],
        ai: [&[]; NARR],
        af: [&[]; NARR],
        taken: 0,
        now: 0,
        held: false,
    };
    for &Bind { kind, reg, slot } in &v.binds {
        let s = slot as usize;
        match (kind, &regs[reg as usize]) {
            (BindKind::Int, &Value::Int(x)) => fr.ints[s] = x,
            (BindKind::Flt, &Value::Float(x)) => fr.flts[s] = x,
            (BindKind::ArrI, Value::ArrI(a)) => arci[s] = Some(a.clone()),
            (BindKind::ArrF, Value::ArrF(a)) => arcf[s] = Some(a.clone()),
            (BindKind::CellI | BindKind::CellF, Value::Ptr(p)) => match (kind, &*p.lock()) {
                (BindKind::CellI, Value::ArrI(a)) => arci[s] = Some(a.clone()),
                (BindKind::CellF, Value::ArrF(a)) => arcf[s] = Some(a.clone()),
                _ => return VOut::Skip,
            },
            _ => return VOut::Skip,
        }
    }
    for &Bind { kind, slot, .. } in &v.binds {
        let s = slot as usize;
        match kind {
            BindKind::ArrI | BindKind::CellI => {
                fr.ai[s] = arci[s].as_deref().map_or(&[], ArrI::cells)
            }
            BindKind::ArrF | BindKind::CellF => {
                fr.af[s] = arcf[s].as_deref().map_or(&[], ArrF::cells)
            }
            BindKind::Int | BindKind::Flt => {}
        }
    }
    // Hoisted loop-invariant constant loads (infallible by
    // construction — `Const` ops cannot bail).
    for op in &v.prelude {
        let _ = (op.f)(&mut fr, op);
    }
    // Seqlock write fences on every array the template stores into,
    // held open for the whole run (see `ArrI::range_hint`).
    let mut fences: [Option<WriteFence>; 2 * NARR] = Default::default();
    for &s in &v.wf_i {
        fences[s as usize] = arci[s as usize].as_ref().map(|a| a.write_fence());
    }
    for &s in &v.wf_f {
        fences[NARR + s as usize] = arcf[s as usize].as_ref().map(|a| a.write_fence());
    }
    // Strip order moves an iteration's store past later iterations'
    // loads, which is only invisible while no other bound array is the
    // stored one under another name; a gathered-update tail also moves
    // its reads past later iterations' head, so no two bound arrays
    // may be one.
    let r = match &v.strip {
        Ok(plan) if !aliased(plan, v, &arci, &arcf) => {
            // A fused key load's array may carry a cached range that
            // proves every index at once (see `each_lane`).
            let hint = match plan.tail.as_ref().map(|t| t.src) {
                Some(Src::Load { arr, .. }) => {
                    arci[arr as usize].as_ref().and_then(|a| a.range_hint())
                }
                _ => None,
            };
            exec_strip(v, plan, &mut fr, hint)
        }
        _ => exec(v, &mut fr),
    };
    let out = |&Bind { kind, reg, slot }: &Out, regs: &mut [Value]| {
        let s = slot as usize;
        regs[reg as usize] = match kind {
            BindKind::Int => Value::Int(fr.ints[s]),
            BindKind::Flt => Value::Float(fr.flts[s]),
            BindKind::ArrI => Value::ArrI(arci[s].clone().unwrap()),
            BindKind::ArrF => Value::ArrF(arcf[s].clone().unwrap()),
            BindKind::CellI | BindKind::CellF => unreachable!("a cell is never written back"),
        }
    };
    if fr.taken != 0 {
        for (_, o) in v.cond_outs.iter().filter(|(m, _)| fr.taken & m != 0) {
            out(o, regs);
        }
    }
    match r {
        Ok(()) => {
            for o in &v.outs {
                out(o, regs);
            }
            for (_, o) in v.now_outs.iter().filter(|(a, _)| fr.now >> a & 1 != 0) {
                out(o, regs);
            }
            VOut::Done
        }
        Err(b) => {
            for o in &v.bail_outs {
                out(o, regs);
            }
            VOut::Bail(b)
        }
    }
}

/// Whether the bound arrays break the strip plan's no-alias premise: a
/// stored array also bound in another slot, or — with a tail — any two
/// slots holding one array.
fn aliased(
    plan: &StripPlan,
    v: &TVariant,
    arci: &[Option<Arc<ArrI>>; NARR],
    arcf: &[Option<Arc<ArrF>>; NARR],
) -> bool {
    fn twice<T>(arcs: &[Option<Arc<T>>; NARR], slots: &[u16]) -> bool {
        slots.iter().any(|&s| {
            arcs[s as usize].as_ref().is_some_and(|target| {
                (arcs.iter().enumerate()).any(|(k, a)| {
                    k != s as usize && a.as_ref().is_some_and(|a| Arc::ptr_eq(a, target))
                })
            })
        })
    }
    const ALL: [u16; NARR] = [0, 1, 2, 3, 4, 5];
    match plan.tail {
        Some(_) => twice(arci, &ALL) || twice(arcf, &ALL),
        None => twice(arci, &v.wf_i) || twice(arcf, &v.wf_f),
    }
}

/// Iterations the do-while runs from `i0` (its first body runs before
/// any test), or `None` when the count is unknown: the induction
/// variable would wrap on the way (the scalar chain owns wrapping
/// loops), or `step` does not move it towards `lim` (a zero step, a
/// sign that disagrees with `cmp`, an `==`/`!=` test).
fn trip_count(i0: i64, lim: i64, step: i64, cmp: CmpOp) -> Option<u64> {
    let start = i0 as i128 + step as i128;
    // Distance left to cover in the direction of travel.
    let dist = match cmp {
        CmpOp::Lt if step > 0 => lim as i128 - start,
        CmpOp::Le if step > 0 => lim as i128 - start + 1,
        CmpOp::Gt if step < 0 => start - lim as i128,
        CmpOp::Ge if step < 0 => start - lim as i128 + 1,
        _ => return None,
    };
    let stride = step.unsigned_abs() as i128;
    let trip = 1 + (dist.max(0) + stride - 1) / stride;
    i64::try_from(i0 as i128 + trip * step as i128)
        .is_ok()
        .then_some(trip as u64)
}

/// Execute a distributable variant's loop strip by strip: every op runs
/// over up to [`STRIP`] iterations before the next op starts. All
/// fallible ops precede the iteration's store, so in strip order they
/// precede every store of the strip: when a check fails nothing of the
/// strip is in memory yet, and the scalar chain replays it from the
/// strip-start state — storing the iterations that are in bounds,
/// stopping at the one that is not, and bailing exactly as it always
/// has. A [`Tail`] then runs lane by lane and hands over at its failing
/// lane instead. Only the folds and the arm-held values change the frame,
/// after the tail, over the lanes it completed.
fn exec_strip(
    v: &TVariant,
    plan: &StripPlan,
    fr: &mut TFrame,
    hint: Option<(i64, i64)>,
) -> Result<(), Bail> {
    let Shape {
        ind,
        step,
        lim,
        cmp,
    } = v.shape;
    let ind = ind as usize;
    let Some(trip) = trip_count(fr.ints[ind], fr.ints[lim as usize], step, cmp) else {
        return exec(v, fr);
    };
    let shift = plan.tail.as_ref().map(|t| t.shift(&fr.ints, hint));
    if matches!(shift, Some(None)) {
        return exec(v, fr);
    }
    COLS.with(|cols| {
        let (ci, cf, arms) = &mut *cols.borrow_mut();
        if ci.len() < plan.ni {
            ci.resize(plan.ni, [0; STRIP]);
        }
        if cf.len() < plan.nf {
            cf.resize(plan.nf, [0.0; STRIP]);
        }
        let widest = trip.min(STRIP as u64) as usize;
        for &(flt, s, c) in &plan.bcast {
            if flt {
                cf[c as usize][..widest].fill(fr.flts[s as usize]);
            } else {
                ci[c as usize][..widest].fill(fr.ints[s as usize]);
            }
        }
        for &(c, v) in &plan.konst {
            match v {
                KVal::I(x) => ci[c as usize][..widest].fill(x),
                KVal::F(x) => cf[c as usize][..widest].fill(x),
            }
        }
        let mut sf = Strip {
            fr,
            ci,
            cf,
            n: 0,
            arms,
            i0: 0,
            step,
        };
        // A tail that reads no column runs over wide strips: there is no
        // scratch to bound them, and its per-strip work amortises.
        let width = match &plan.tail {
            Some(t) if plan.ops.is_empty() && t.columnless() => WIDE,
            _ => STRIP,
        };
        let mut left = trip;
        while left > 0 {
            sf.n = left.min(width as u64) as usize;
            sf.i0 = sf.fr.ints[ind];
            if plan.iota {
                for (k, x) in sf.ci[IOTA as usize][..sf.n].iter_mut().enumerate() {
                    *x = sf.i0 + k as i64 * step;
                }
            }
            if plan.ops.iter().any(|(w, op)| (w.f)(&mut sf, op).is_err()) {
                return exec(v, sf.fr);
            }
            // The tail checks each lane before storing it: a failure at
            // lane k leaves lanes 0..k complete and lane k untouched (the
            // head stores nothing), so the scalar chain resumes at lane k
            // once the folds and held values cover lanes 0..k.
            let mut failed = None;
            if let (Some(tail), Some(Some(sh))) = (&plan.tail, shift) {
                if let Err(k) = tail.run(&mut sf, sh) {
                    (failed, sf.n) = (Some(k), k);
                    let arms = sf.arms.lanes.iter().zip(&mut sf.arms.held).take(plan.arms);
                    for (ks, held) in arms {
                        *held = ks[..*held].partition_point(|&x| (x as usize) < k);
                    }
                }
            }
            // Only a loop without a tail may fold fallibly (`plan_strip`).
            if !plan.folds.is_empty() {
                let start = (sf.fr.ints, sf.fr.flts);
                if plan.folds.iter().any(|(w, op)| (w.f)(&mut sf, op).is_err()) {
                    (sf.fr.ints, sf.fr.flts) = start;
                    return exec(v, sf.fr);
                }
            }
            for &(flt, s, c, arm) in &plan.held {
                if let Some(&k) = sf.arms.of(Some(arm)).and_then(|ks| ks.last()) {
                    sf.fr.taken |= 1 << arm;
                    sf.put(flt, s, c, k as usize);
                }
            }
            sf.fr.ints[ind] = sf.i0 + sf.n as i64 * step;
            if failed.is_some() {
                return exec(v, sf.fr);
            }
            left -= sf.n as u64;
        }
        // Which arms ran in the last iteration: their last lane is it.
        let k = sf.n - 1;
        sf.fr.now = (0..plan.arms as u16)
            .filter(|&a| sf.arms.of(Some(a)).unwrap_or_default().last() == Some(&(k as u8)))
            .fold(0, |now, a| now | 1 << a);
        for &(flt, s, c, sel) in &plan.last {
            let c = sel
                .filter(|(a, _)| sf.fr.now >> a & 1 == 0)
                .map_or(c, |(_, base)| base);
            sf.put(flt, s, c, k);
        }
        Ok(())
    })
}

impl Strip<'_, '_> {
    /// Lane `k` of a column into a frame slot.
    fn put(&mut self, flt: bool, slot: u16, col: u16, k: usize) {
        if flt {
            self.fr.flts[slot as usize] = self.cf[col as usize][k];
        } else {
            self.fr.ints[slot as usize] = self.ci[col as usize][k];
        }
    }
}

impl Tail {
    /// How this run maps a lane's value to its index, or `None` when the
    /// divisor is not a positive power of two (the run then takes the
    /// scalar chain). `range` is the fused load array's cached range.
    fn shift(&self, ints: &[i64; NSLOT], range: Option<(i64, i64)>) -> Option<Shift> {
        let d = self.div.map_or(1, |(d, _)| ints[d as usize]);
        (d > 0 && d & (d - 1) == 0).then(|| Shift {
            m: d - 1,
            s: d.trailing_zeros(),
            range,
        })
    }

    /// Whether the tail reads no column (its strips may then be wide).
    fn columnless(&self) -> bool {
        matches!(self.src, Src::Load { .. })
            && match self.form {
                TailForm::Update { v, .. } => v.is_err(),
                TailForm::Cursor { v, .. } => v == self.src,
            }
    }

    /// Run the tail over the strip's lanes in iteration order, each form
    /// as one monomorphised loop. `Err(k)`: lane `k` failed a check
    /// before its first store, and the lanes before it are complete.
    fn run(&self, sf: &mut Strip, sh: Shift) -> Result<(), usize> {
        let Strip {
            fr,
            ci,
            cf,
            n,
            i0,
            arms,
            ..
        } = sf;
        let n = *n;
        // The lanes to run: the last, and those before it (none: all).
        let (t, ks) = match arms.of(self.arm) {
            None => (n - 1, None),
            Some([ks @ .., t]) => (*t as usize, Some(ks)),
            Some([]) => return Ok(()),
        };
        let lanes = (ks, t);
        let xs = values(self.src, &fr.ai, (*i0, n), ci)?;
        let g = match (self.form, self.flt) {
            (TailForm::Update { h, v }, true) => {
                let (l, s, g) = match v {
                    Ok(c) => update(fr.af[h as usize], xs, sh, lanes, |k| cf[c as usize][k])?,
                    Err(k) => update(fr.af[h as usize], xs, sh, lanes, |_| k.f())?,
                };
                self.put(&mut fr.flts, l, s);
                g
            }
            (TailForm::Update { h, v }, false) => {
                let (l, s, g) = match v {
                    Ok(c) => update(fr.ai[h as usize], xs, sh, lanes, |k| ci[c as usize][k])?,
                    Err(k) => update(fr.ai[h as usize], xs, sh, lanes, |_| k.i())?,
                };
                self.put(&mut fr.ints, l, s);
                g
            }
            (TailForm::Cursor { cur, out, v, k }, flt) => {
                let cur = fr.ai[cur as usize];
                // Float and int columns are numbered apart: a float value
                // is never the key, whatever its column number.
                let (c, g) = match v {
                    Src::Col(v) if flt => {
                        scatter(cur, fr.af[out as usize], xs, sh, lanes, k, |_, l| {
                            cf[v as usize][l]
                        })?
                    }
                    // The key itself, as a counting sort stores it.
                    v if v == self.src => {
                        scatter(cur, fr.ai[out as usize], xs, sh, lanes, k, |x, _| x)?
                    }
                    v => {
                        let vs = values(v, &fr.ai, (*i0, n), ci)?;
                        scatter(cur, fr.ai[out as usize], xs, sh, lanes, k, |_, l| vs[l])?
                    }
                };
                // With `out` a distinct array the re-load reads `c` back.
                self.put(&mut fr.ints, c, c.wrapping_add(k));
                g
            }
        };
        for &key in &self.keys {
            fr.ints[key as usize] = xs[n - 1];
        }
        if let Some((_, gs)) = self.div {
            fr.ints[gs as usize] = g;
        }
        if let Some(a) = self.arm {
            fr.taken |= 1 << a;
        }
        Ok(())
    }

    /// The last lane's loaded and stored elements into their slots.
    fn put<T: Copy>(&self, file: &mut [T; NSLOT], l: T, s: T) {
        for &x in &self.loaded {
            file[x as usize] = l;
        }
        file[self.stored as usize] = s;
    }
}

/// Lanes `i0..i0 + n` of `src`: its column, or — a fused load — the
/// loaded array's elements, `Err(0)` when they leave the array (the
/// scalar chain then raises the error at its lane).
fn values<'r>(
    src: Src,
    ai: &[&'r [UnsafeCell<i64>]],
    (i0, n): (i64, usize),
    ci: &'r [[i64; STRIP]],
) -> Result<&'r [i64], usize> {
    match src {
        Src::Col(c) => Ok(&ci[c as usize][..n]),
        Src::Load { arr, off } => {
            let a = ai[arr as usize];
            let first = affine(a.len(), n, i0, 1, off).map_err(|_| 0usize)? as usize;
            let cells = &a[first..first + n];
            // SAFETY: `UnsafeCell<i64>` has the layout of `i64`, and no
            // store of the loop reaches this array (it is not a tail
            // array, the head stores nothing, and no other bound array
            // is it), so its elements stay put while the slice lives —
            // OpenMP's no-race contract covers other threads.
            Ok(unsafe { &*(cells as *const [UnsafeCell<i64>] as *const [i64]) })
        }
    }
}

/// How a lane's value `x` becomes its gathered index: `(x + ((x >> 63) &
/// m)) >> s`, which is `x / 2^s` rounded toward zero, as `/` rounds.
#[derive(Clone, Copy)]
struct Shift {
    m: i64,
    s: u32,
    /// The `(min, max)` of every lane value, when a range hint knows it.
    range: Option<(i64, i64)>,
}

impl Shift {
    /// The index of lane value `x`, if it lies in `0..len`.
    #[inline(always)]
    fn index(self, x: i64, len: usize) -> Option<usize> {
        let g = (x + ((x >> 63) & self.m)) >> self.s;
        ((g as u64) < len as u64).then_some(g as usize)
    }
}

/// The lanes a tail runs: the last, `t`, after all before it — or, in an
/// arm, after those its test held at, `ks`.
type Lanes<'k> = (Option<&'k [u8]>, usize);

/// Run `lane(k, g)` over lanes `0..xs.len()` in order (those of `ks`
/// only, if given), `g` the lane's
/// index, checked against `0..len` unless one non-negative upper bound
/// of the lanes — the range hint, or an OR over them — proves them all
/// (which also makes the shift a plain one); `Err(k)` at the first lane
/// that fails. Lanes return nothing, so an update compiles to one
/// read-modify-write.
#[inline(always)]
fn each_lane(
    xs: &[i64],
    sh: Shift,
    len: usize,
    ks: Option<&[u8]>,
    lane: impl Fn(usize, usize) -> Option<()>,
) -> Result<(), usize> {
    if let Some(ks) = ks {
        for k in ks.iter().map(|&k| k as usize) {
            lane(k, sh.index(xs[k], len).ok_or(k)?).ok_or(k)?;
        }
        return Ok(());
    }
    let (lo, hi) = sh.range.unwrap_or_else(|| {
        let or = xs.iter().fold(0, |a, &x| a | x);
        (or, or)
    });
    if lo >= 0 && ((hi >> sh.s) as u64) < len as u64 {
        for (k, &x) in xs.iter().enumerate() {
            lane(k, (x >> sh.s) as usize).ok_or(k)?;
        }
    } else {
        for (k, &x) in xs.iter().enumerate() {
            lane(k, sh.index(x, len).ok_or(k)?).ok_or(k)?;
        }
    }
    Ok(())
}

/// An element kind a tail update adds (wrapping for `i64`, as the
/// interpreter's `+`).
trait Add: Copy {
    fn add(self, v: Self) -> Self;
}
impl Add for i64 {
    fn add(self, v: i64) -> i64 {
        self.wrapping_add(v)
    }
}
impl Add for f64 {
    fn add(self, v: f64) -> f64 {
        self + v
    }
}

/// `h[g] += v(k)` for every lane `k` to run; the last one's loaded and
/// stored elements and index.
#[inline(never)]
fn update<T: Add>(
    h: &[UnsafeCell<T>],
    xs: &[i64],
    sh: Shift,
    (ks, t): Lanes,
    v: impl Fn(usize) -> T,
) -> Result<(T, T, i64), usize> {
    each_lane(&xs[..t], sh, h.len(), ks, |k, g| {
        // SAFETY: `each_lane` checked `g` against the array, or proved
        // it for the whole strip; a plain read-modify-write through the
        // cell, as the scalar chain's load and store do.
        unsafe { *h.get_unchecked(g).get() = (*h.get_unchecked(g).get()).add(v(k)) };
        Some(())
    })?;
    let g = sh.index(xs[t], h.len()).ok_or(t)?;
    // SAFETY: `g` checked on the line above.
    let cell = unsafe { h.get_unchecked(g).get() };
    let l = unsafe { *cell };
    let s = l.add(v(t));
    unsafe { *cell = s };
    Ok((l, s, g as i64))
}

/// Elements past a cursor's store whose line [`scatter`] prefetches: one
/// 64-byte line of 8-byte elements, so each stream's next line is on its
/// way before the stream enters it. The cursors of a counting sort are
/// as many interleaved sequential streams as it has buckets, far more
/// than hardware prefetchers follow, so without this every new line a
/// stream enters is a cache miss.
const AHEAD: usize = 8;

/// Ask for the cache line holding `p`. A hint: it never faults, whatever
/// the address, and is nothing on targets without one here.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch reads nothing the program sees and cannot fault.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// `out[cur[g]] = v(x, k); cur[g] += inc` for every lane `k` to run (`x`
/// its value); the last one's cursor before its advance, and index. Each
/// store prefetches the line its stream reaches [`AHEAD`] elements on.
#[inline(never)]
fn scatter<T: Copy>(
    cur: &[UnsafeCell<i64>],
    out: &[UnsafeCell<T>],
    xs: &[i64],
    sh: Shift,
    (ks, t): Lanes,
    inc: i64,
    v: impl Fn(i64, usize) -> T,
) -> Result<(i64, i64), usize> {
    // SAFETY: `g` as in `update`; the cursor is checked against `out`
    // before either store, and both are plain element accesses through
    // the cells, as the scalar chain's.
    let lane = |k: usize, g: usize| unsafe {
        let slot = cur.get_unchecked(g).get();
        let c = *slot;
        *out.get(c as usize)?.get() = v(xs[k], k);
        *slot = c.wrapping_add(inc);
        prefetch(out.as_ptr().wrapping_add(c as usize + AHEAD));
        Some(c)
    };
    each_lane(&xs[..t], sh, cur.len(), ks, |k, g| lane(k, g).map(drop))?;
    let g = sh.index(xs[t], cur.len()).ok_or(t)?;
    Ok((lane(t, g).ok_or(t)?, g as i64))
}

/// Execute the variant's loop one iteration at a time; `Err` after
/// restoring the iteration snapshot on a mid-iteration failure.
fn exec(v: &TVariant, fr: &mut TFrame) -> Result<(), Bail> {
    let mut si = [0i64; NSLOT];
    let mut sf = [0f64; NSLOT];
    let snap = |fr: &TFrame, si: &mut [i64; NSLOT], sf: &mut [f64; NSLOT]| {
        for &(flt, s) in &v.snap {
            if flt {
                sf[s as usize] = fr.flts[s as usize];
            } else {
                si[s as usize] = fr.ints[s as usize];
            }
        }
    };
    let restore = |fr: &mut TFrame, si: &[i64; NSLOT], sf: &[f64; NSLOT]| {
        for &(flt, s) in &v.snap {
            if flt {
                fr.flts[s as usize] = sf[s as usize];
            } else {
                fr.ints[s as usize] = si[s as usize];
            }
        }
    };
    let Shape {
        ind,
        step,
        lim,
        cmp,
    } = v.shape;
    let (ind, lim) = (ind as usize, lim as usize);
    loop {
        if v.fallible {
            snap(fr, &mut si, &mut sf);
        }
        let mut k = 0;
        while let Some(op) = v.ops.get(k) {
            k += 1;
            if let Err(b) = (op.f)(fr, op) {
                restore(fr, &si, &sf);
                return Err(b);
            }
            if let Some(a) = op.arm {
                if fr.held {
                    (fr.taken, fr.now) = (fr.taken | 1 << a, fr.now | 1 << a);
                } else {
                    (k, fr.now) = (k + op.off as usize, fr.now & !(1 << a));
                }
            }
        }
        let next = fr.ints[ind].wrapping_add(step);
        fr.ints[ind] = next;
        if !cmp.eval(next, fr.ints[lim]) {
            return Ok(());
        }
    }
}

// ---------------------------------------------------------------------------
// Matching: decode + type inference
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum K {
    Unk,
    Int,
    Flt,
}

/// Union-find over type variables with a kind per class.
#[derive(Default)]
struct Uf {
    parent: Vec<u32>,
    kind: Vec<K>,
}

impl Uf {
    fn fresh(&mut self) -> u32 {
        let v = self.parent.len() as u32;
        self.parent.push(v);
        self.kind.push(K::Unk);
        v
    }
    fn find(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            let p = self.parent[v as usize];
            self.parent[v as usize] = self.parent[p as usize];
            v = p;
        }
        v
    }
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return true;
        }
        let merged = match (self.kind[ra as usize], self.kind[rb as usize]) {
            (K::Unk, k) | (k, K::Unk) => k,
            (x, y) if x == y => x,
            _ => return false,
        };
        self.parent[ra as usize] = rb;
        self.kind[rb as usize] = merged;
        true
    }
    fn set(&mut self, v: u32, k: K) -> bool {
        let r = self.find(v);
        match self.kind[r as usize] {
            K::Unk => {
                self.kind[r as usize] = k;
                true
            }
            x => x == k,
        }
    }
    fn kind(&mut self, v: u32) -> K {
        let r = self.find(v);
        self.kind[r as usize]
    }
}

/// Typed pool immediates.
#[derive(Clone, Copy, Debug)]
enum KVal {
    I(i64),
    F(f64),
}

impl KVal {
    fn k(self) -> K {
        match self {
            KVal::I(_) => K::Int,
            KVal::F(_) => K::Flt,
        }
    }
    /// The immediate of an operand the kinds pinned to `i64` / `f64`.
    fn i(self) -> i64 {
        match self {
            KVal::I(v) => v,
            KVal::F(_) => unreachable!("an int operand"),
        }
    }
    fn f(self) -> f64 {
        match self {
            KVal::F(v) => v,
            KVal::I(_) => unreachable!("a float operand"),
        }
    }
}

/// Scalar operand key: real registers are their register number,
/// decomposition scratch temporaries start at `SCRATCH0` (never bound
/// or written back; always defined before use by construction).
const SCRATCH0: u32 = 1 << 16;

/// Proto-op: a decoded, decomposed body instruction with type
/// constraints applied but kinds not yet resolved.
#[derive(Clone, Copy)]
enum P {
    Mov {
        d: u32,
        s: u32,
    },
    Const {
        d: u32,
        v: KVal,
    },
    Bin {
        op: ArithOp,
        d: u32,
        a: u32,
        b: u32,
    },
    /// `left`: the immediate is the left operand (`ArithKL`).
    BinK {
        op: ArithOp,
        d: u32,
        a: u32,
        v: KVal,
        left: bool,
    },
    Ld {
        d: u32,
        arr: Reg,
        idx: u32,
        off: i32,
    },
    St {
        arr: Reg,
        idx: u32,
        s: u32,
    },
    /// A pure builtin of one or two arguments.
    Call {
        op: BuiltinOp,
        d: u32,
        a: u32,
        b: Option<u32>,
    },
    /// `if (a cmp b)`, opening arm `arm`: the protos [`Bld::guards`] marks.
    Br {
        op: CmpOp,
        a: u32,
        b: u32,
        arm: u16,
    },
}

impl P {
    fn reads(&self, mut f: impl FnMut(u32)) {
        match *self {
            P::Mov { s, .. } => f(s),
            P::Const { .. } => {}
            P::Bin { a, b, .. } | P::Br { a, b, .. } => {
                f(a);
                f(b);
            }
            P::Call { a, b, .. } => {
                f(a);
                b.map(f);
            }
            P::BinK { a, .. } => f(a),
            P::Ld { idx, .. } => f(idx),
            P::St { idx, s, .. } => {
                f(idx);
                f(s);
            }
        }
    }
    /// The same proto defining `key` instead (stores define nothing).
    fn retarget(mut self, key: u32) -> P {
        match &mut self {
            P::Mov { d, .. }
            | P::Const { d, .. }
            | P::Bin { d, .. }
            | P::BinK { d, .. }
            | P::Ld { d, .. }
            | P::Call { d, .. } => *d = key,
            P::St { .. } | P::Br { .. } => {}
        }
        self
    }
    fn write(&self) -> Option<u32> {
        match *self {
            P::Mov { d, .. }
            | P::Const { d, .. }
            | P::Bin { d, .. }
            | P::BinK { d, .. }
            | P::Ld { d, .. }
            | P::Call { d, .. } => Some(d),
            P::St { .. } | P::Br { .. } => None,
        }
    }
    /// The element a load or store touches: `(array, index, offset)`.
    fn access(&self) -> Option<(Reg, u32, i32)> {
        match *self {
            P::Ld { arr, idx, off, .. } => Some((arr, idx, off)),
            P::St { arr, idx, .. } => Some((arr, idx, 0)),
            _ => None,
        }
    }
}

/// A multiplicative hasher for the decoder's tables, whose keys are small
/// integers the compiler made (registers, scalar keys): SipHash's
/// resistance to chosen keys buys nothing there, and it costs most of a
/// lookup.
#[derive(Default)]
struct IntHasher(u64);

impl std::hash::Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }
}

type Map<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
type Set<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// Array operand info: cell-ness (bound through a `Ptr` slot or held
/// directly), the element kind variable, and whether the template
/// stores through it.
struct AInfo {
    cell: bool,
    elem: u32,
    written: bool,
}

/// The in-progress decode of one loop.
#[derive(Default)]
struct Bld<'f> {
    consts: &'f [Value],
    uf: Uf,
    svar: Map<u32, u32>,
    sorder: Vec<u32>,
    scalar_regs: Set<Reg>,
    arrs: Map<Reg, AInfo>,
    aorder: Vec<Reg>,
    /// `Deref` destinations and the cell each reads: an array use of
    /// the destination binds the cell instead.
    alias: Map<Reg, Reg>,
    /// `(destination, cell)` per `Deref`, for the exit write-back.
    derefs: Vec<(Reg, Reg)>,
    protos: Vec<P>,
    /// Per proto, the arm it is in.
    guards: Vec<Option<u16>>,
    /// The open arm and the pc it ends at; the arms opened so far.
    arm: Option<(u16, usize)>,
    narms: u16,
    /// Per register, the key its last definition so far defined (see
    /// [`Bld::wr`]); the registers defined outside arms, and in the open
    /// arm; and those read before a definition, whose value a previous
    /// iteration may have left.
    cur: Map<Reg, u32>,
    defined: Set<Reg>,
    in_arm: Set<Reg>,
    carried: Set<Reg>,
    /// The register of each key [`Bld::wr`] added.
    version: Map<u32, Reg>,
    /// Registers the open arm gave a new key, and their key before it;
    /// per closed arm, `(arm, key before, key in the arm)`.
    pending: Vec<(Reg, u32)>,
    merges: Vec<(u16, u32, u32)>,
    nscratch: u32,
}

impl Bld<'_> {
    /// The key a read of register `r` reads: after an arm that gave it a
    /// new key, one value of one kind.
    fn rd(&mut self, r: Reg) -> Option<u32> {
        if !self.defined.contains(&r) && !self.in_arm.contains(&r) {
            self.carried.insert(r);
        }
        let Some(&k) = self.cur.get(&r) else {
            return self.sv(r);
        };
        for (_, _, k1) in self.merges.clone().into_iter().filter(|m| m.1 == k) {
            self.uni(k, k1).then_some(())?;
        }
        Some(k)
    }

    /// The key a definition of register `r` defines. A register the
    /// iteration redefines, with no value carried in, gets a fresh key per
    /// such definition (in an arm, the arm's first), so a temporary the
    /// compiler reuses for another kind (EP's `2 * i`, then `x1 * x1`) is
    /// two values; the last key is the register's on exit. Past the arm
    /// the register is its key before the arm again, merged at a read
    /// ([`Bld::rd`]) or on exit. One nothing reads past the arm may change
    /// kind in it (a `var w: any` the arm sets to a float; a temporary the
    /// compiler reuses, `@floatToInt` before an arm and `@sqrt` in it), and
    /// exits by [`TVariant::now_outs`].
    fn wr(&mut self, r: Reg) -> Option<u32> {
        let fresh = match self.arm {
            None => true,
            Some(_) => self.defined.contains(&r) && !self.in_arm.contains(&r),
        };
        let key = match self.cur.get(&r) {
            Some(&k) if fresh && !self.carried.contains(&r) => {
                if self.arm.is_some() {
                    self.pending.push((r, k));
                }
                let key = self.scratch();
                self.version.insert(key, r);
                key
            }
            Some(&k) => k,
            None => self.sv(r)?,
        };
        self.cur.insert(r, key);
        if self.arm.is_some() {
            self.in_arm.insert(r);
        } else {
            self.defined.insert(r);
        }
        Some(key)
    }

    /// Leave the open arm, if any.
    fn close(&mut self) {
        let Some((arm, _)) = self.arm.take() else {
            return;
        };
        for (r, k0) in std::mem::take(&mut self.pending) {
            self.merges
                .push((arm, k0, self.cur.insert(r, k0).unwrap_or(k0)));
        }
        self.in_arm.clear();
    }

    fn push(&mut self, p: P) {
        self.protos.push(p);
        self.guards.push(self.arm.map(|(a, _)| a));
    }

    /// `if (a op b)` whose arm ends at `to`.
    fn branch(&mut self, op: CmpOp, a: Reg, b: Reg, to: usize) -> Result<(), &'static str> {
        let ra = self.rd(a).ok_or("types")?;
        let rb = self.rd(b).ok_or("types")?;
        if !self.uni(ra, rb) {
            return Err("types");
        }
        let arm = self.narms;
        self.push(P::Br {
            op,
            a: ra,
            b: rb,
            arm,
        });
        (self.arm, self.narms) = (Some((arm, to)), arm + 1);
        Ok(())
    }

    /// Register `r` as a scalar operand; `None` if it was already
    /// used as an array operand (a register serving both roles is a
    /// shape the template cannot bind).
    fn sv(&mut self, r: Reg) -> Option<u32> {
        if self.arrs.contains_key(&r) || self.alias.contains_key(&r) {
            return None;
        }
        self.scalar_regs.insert(r);
        let key = r as u32;
        if !self.svar.contains_key(&key) {
            let v = self.uf.fresh();
            self.svar.insert(key, v);
            self.sorder.push(key);
        }
        Some(key)
    }

    fn scratch(&mut self) -> u32 {
        let key = SCRATCH0 + self.nscratch;
        self.nscratch += 1;
        let v = self.uf.fresh();
        self.svar.insert(key, v);
        self.sorder.push(key);
        key
    }

    /// Register `r` as an array operand with the given cell-ness;
    /// returns the register to bind (the cell, for a `Deref`
    /// destination) and its element kind variable.
    fn av(&mut self, mut r: Reg, mut cell: bool) -> Option<(Reg, u32)> {
        if let Some(&c) = self.alias.get(&r) {
            if cell {
                return None;
            }
            (r, cell) = (c, true);
        }
        if self.scalar_regs.contains(&r) {
            return None;
        }
        if let Some(info) = self.arrs.get(&r) {
            if info.cell != cell {
                return None;
            }
            return Some((r, info.elem));
        }
        let elem = self.uf.fresh();
        self.arrs.insert(
            r,
            AInfo {
                cell,
                elem,
                written: false,
            },
        );
        self.aorder.push(r);
        Some((r, elem))
    }

    fn var(&self, key: u32) -> u32 {
        self.svar[&key]
    }

    fn uni(&mut self, a: u32, b: u32) -> bool {
        let (va, vb) = (self.var(a), self.var(b));
        self.uf.union(va, vb)
    }
    fn uni_v(&mut self, a: u32, v: u32) -> bool {
        let va = self.var(a);
        self.uf.union(va, v)
    }
    fn setk(&mut self, key: u32, k: K) -> bool {
        let v = self.var(key);
        self.uf.set(v, k)
    }

    fn kc(&self, k: u16) -> Option<KVal> {
        match self.consts.get(k as usize)? {
            Value::Int(v) => Some(KVal::I(*v)),
            Value::Float(v) => Some(KVal::F(*v)),
            _ => None,
        }
    }

    /// Decode one body instruction into proto-ops with constraints.
    /// `Err` names why the loop stays interpreted: `shape` (control
    /// flow inside the body), `types` (a kind conflict, or a register
    /// used both as a scalar and as an array), or the opcode no template
    /// op covers.
    fn decode(&mut self, f: &CompiledFn, insn: &Insn) -> Result<(), String> {
        // Every constraint failure is a type conflict.
        macro_rules! t {
            ($e:expr) => {
                $e.ok_or("types")?
            };
        }
        macro_rules! c {
            ($e:expr) => {
                if !$e {
                    return Err("types".into());
                }
            };
        }
        match *insn {
            Insn::Const { dst, k } => {
                let v = t!(self.kc(k));
                let d = t!(self.wr(dst));
                c!(self.setk(d, v.k()));
                self.push(P::Const { d, v });
            }
            Insn::Move { dst, src } => {
                let s = t!(self.rd(src));
                let d = t!(self.wr(dst));
                c!(self.uni(d, s));
                self.push(P::Mov { d, s });
            }
            Insn::Arith { op, dst, a, b } => {
                let (a, b) = (t!(self.rd(a)), t!(self.rd(b)));
                let d = t!(self.wr(dst));
                c!(self.uni(d, a) && self.uni(d, b));
                self.push(P::Bin { op, d, a, b });
            }
            Insn::ArithK { op, dst, a, k } | Insn::ArithKL { op, dst, k, b: a } => {
                let left = matches!(insn, Insn::ArithKL { .. });
                let (v, a) = (t!(self.kc(k)), t!(self.rd(a)));
                let d = t!(self.wr(dst));
                c!(self.uni(d, a) && self.setk(d, v.k()));
                self.push(P::BinK { op, d, a, v, left });
            }
            // A loop-invariant cell read into a register used only as an
            // array from here on: bind the cell, write the array back on
            // exit (after any scalar the register held earlier).
            Insn::Deref { dst, ptr } => {
                c!(dst != ptr
                    && !self.arrs.contains_key(&dst)
                    && self.alias.get(&dst).is_none_or(|&c| c == ptr));
                t!(self.av(ptr, true));
                self.alias.insert(dst, ptr);
                self.derefs.push((dst, ptr));
            }
            Insn::Index { dst, arr, idx } => self.load(dst, arr, false, idx, 0)?,
            Insn::IndexOff { dst, arr, idx, off } => self.load(dst, arr, false, idx, off)?,
            Insn::DerefIndex { dst, cell, idx } => self.load(dst, cell, true, idx, 0)?,
            Insn::DerefIndexOff {
                dst,
                cell,
                idx,
                off,
            } => self.load(dst, cell, true, idx, off)?,
            Insn::IndexSet { arr, idx, src } => self.store(arr, false, idx, src)?,
            Insn::DerefIndexSet { cell, idx, src } => self.store(cell, true, idx, src)?,
            Insn::IncElemK { op, arr, idx, k } => {
                // arr[idx] = arr[idx] op k, load → arith → store.
                let v = t!(self.kc(k));
                let (arr, elem) = t!(self.av(arr, false));
                let idx = t!(self.rd(idx));
                let (d, off, left) = (self.scratch(), 0, false);
                c!(self.setk(idx, K::Int) && self.uni_v(d, elem) && self.setk(d, v.k()));
                self.push(P::Ld { d, arr, idx, off });
                self.push(P::BinK {
                    op,
                    d,
                    a: d,
                    v,
                    left,
                });
                self.arrs.get_mut(&arr).unwrap().written = true;
                self.push(P::St { arr, idx, s: d });
            }
            Insn::FmaIdx { dst, x, arr, idx } => {
                // dst = dst + x * arr[idx]; separate mul-then-add
                // keeps results bit-identical to the unfused pair.
                let (arr, elem) = t!(self.av(arr, false));
                t!(self.fma_tail(dst, x, elem, arr, idx));
            }
            // A pure builtin whose [`PURE`] rows take its argument count.
            Insn::Builtin {
                dst, op, base, n, ..
            } if PURE.iter().any(|&(o, _)| o == op) => {
                let args: Vec<u32> =
                    t!((base..base + n).map(|r| self.rd(r)).collect::<Option<_>>());
                let d = t!(self.wr(dst));
                // One row pins the kinds; `@abs`, `@max`, `@min` have one
                // per kind.
                let mut rows =
                    (PURE.iter()).filter(|&&(o, row)| o == op && sig(row).0.len() == args.len());
                match (rows.next(), rows.next()) {
                    (None, _) => return Err("types".into()),
                    (Some(&(_, row)), None) => {
                        let (ak, rk) = sig(row);
                        c!(args.iter().zip(ak).all(|(&a, &k)| self.setk(a, k)) && self.setk(d, rk));
                    }
                    _ => c!(args.iter().all(|&a| self.uni(d, a))),
                }
                let (a, b) = (args[0], args.get(1).copied());
                self.push(P::Call { op, d, a, b });
            }
            Insn::BulkLoop { .. } | Insn::TemplateLoop { .. } => return Err("shape".into()),
            ref other if crate::optimize::jump_target(other).is_some() => {
                return Err("shape".into())
            }
            ref other => {
                let text = crate::bytecode::insn_text(f, other);
                let op = text.split_whitespace().next().unwrap_or_default();
                return Err(format!("op `{op}`"));
            }
        }
        Ok(())
    }

    /// `dst = arr[idx + off]`, with `arr` a cell when `cell`.
    fn load(
        &mut self,
        dst: Reg,
        arr: Reg,
        cell: bool,
        idx: Reg,
        off: i32,
    ) -> Result<(), &'static str> {
        let (arr, elem) = self.av(arr, cell).ok_or("types")?;
        let idx = self.rd(idx).ok_or("types")?;
        let d = self.wr(dst).ok_or("types")?;
        if !self.setk(idx, K::Int) || !self.uni_v(d, elem) {
            return Err("types");
        }
        self.push(P::Ld { d, arr, idx, off });
        Ok(())
    }

    /// `arr[idx] = src`, with `arr` a cell when `cell`.
    fn store(&mut self, arr: Reg, cell: bool, idx: Reg, src: Reg) -> Result<(), &'static str> {
        let (arr, elem) = self.av(arr, cell).ok_or("types")?;
        let idx = self.rd(idx).ok_or("types")?;
        let s = self.rd(src).ok_or("types")?;
        if !self.setk(idx, K::Int) || !self.uni_v(s, elem) {
            return Err("types");
        }
        self.arrs.get_mut(&arr).unwrap().written = true;
        self.push(P::St { arr, idx, s });
        Ok(())
    }

    /// The `FmaIdx` body `t = arr[idx]; u = x * t; dst = dst + u`, mul
    /// then add as the interpreter computes it.
    fn fma_tail(&mut self, dst: Reg, x: Reg, elem: u32, arr: Reg, idx: Reg) -> Option<()> {
        let (a, idx, s) = (self.rd(x)?, self.rd(idx)?, self.rd(dst)?);
        let (d, t, u, off) = (self.wr(dst)?, self.scratch(), self.scratch(), 0);
        (self.setk(idx, K::Int) && self.uni_v(t, elem) && self.uni(u, a)).then_some(())?;
        (self.uni(u, t) && self.uni(d, u) && self.uni(d, s)).then_some(())?;
        self.push(P::Ld {
            d: t,
            arr,
            idx,
            off,
        });
        let (op, b) = (ArithOp::Mul, t);
        self.push(P::Bin { op, d: u, a, b });
        let (op, a, b) = (ArithOp::Add, s, u);
        self.push(P::Bin { op, d, a, b });
        Some(())
    }
}

/// Loop control from the structural match, before slot assignment.
struct MatchOut {
    var: Reg,
    step: i64,
    lim: Reg,
    cmp: CmpOp,
    ninsns: usize,
}

/// Match a template loop `pc: body...; IncCmpJump -> pc`, or say why it
/// stays interpreted (`Err`, the `kernel-missed` note's template half):
/// the decoder's refusal, [`emit_one`]'s, `shape` when no back-edge
/// closes a single block at `pc`, or `length` past [`MAX_INSNS`]. Only a
/// back-edge target can match (see [`loop_heads`]).
pub(crate) fn match_at(f: &CompiledFn, pc: usize) -> Result<(TProg, u32), String> {
    // The first back-edge to `pc` closes the loop.
    let close = (pc..f.code.len())
        .find(|&j| matches!(f.code[j], Insn::IncCmpJump { to, .. } if to as usize == pc));
    let Some(j) = close else {
        return Err("shape".into());
    };
    if j - pc >= MAX_INSNS {
        return Err("length".into());
    }
    let Insn::IncCmpJump {
        var,
        step,
        limit,
        op,
        ..
    } = f.code[j]
    else {
        unreachable!("`close` found the back-edge")
    };
    let exit = j + 1;
    if exit >= f.code.len() {
        return Err("shape".into());
    }
    // Room for every key and proto the body can make, allocated once.
    let cap = 4 * (j - pc);
    let mut b = Bld {
        consts: &f.consts,
        uf: Uf {
            parent: Vec::with_capacity(cap),
            kind: Vec::with_capacity(cap),
        },
        sorder: Vec::with_capacity(cap),
        protos: Vec::with_capacity(cap),
        guards: Vec::with_capacity(cap),
        ..Bld::default()
    };
    // The back-edge reads both, so a redefinition never starts a new key.
    b.carried.extend([var, limit]);
    for (at, insn) in (pc..j).zip(&f.code[pc..j]) {
        if b.arm.is_some_and(|(_, to)| to == at) {
            b.close();
        }
        match *insn {
            // An `if` without `else`: no branch inside its arm, which ends
            // in the body (or at the back-edge).
            Insn::CmpJumpFalse { op, a, b: rb, to }
                if b.arm.is_none() && (at + 1..=j).contains(&(to as usize)) =>
            {
                if b.narms as usize == ARMS {
                    return Err("length".into());
                }
                b.branch(op, a, rb, to as usize)?;
            }
            _ => b.decode(f, insn)?,
        }
    }
    b.close();
    let kv = b.rd(var).ok_or("types")?;
    let kl = b.rd(limit).ok_or("types")?;
    if !b.setk(kv, K::Int) || !b.setk(kl, K::Int) {
        return Err("types".into());
    }
    let m = MatchOut {
        var,
        step: step as i64,
        lim: limit,
        cmp: op,
        ninsns: j + 1 - pc,
    };
    Ok((emit(b, m)?, exit as u32))
}

// ---------------------------------------------------------------------------
// Emission: kinds → slots → ops
// ---------------------------------------------------------------------------

fn emit(mut b: Bld, m: MatchOut) -> Result<TProg, String> {
    // Any unresolved kind group? Then emit both an all-Int and an
    // all-Flt resolution and let the runtime bind pick (a loop mixing
    // two *different* unknown groups fails both binds and stays
    // interpreted — acceptable, and not a shape the compiler emits).
    let mut has_unk = false;
    for &key in &b.sorder {
        let v = b.svar[&key];
        if b.uf.kind(v) == K::Unk {
            has_unk = true;
        }
    }
    for r in &b.aorder {
        let v = b.arrs[r].elem;
        if b.uf.kind(v) == K::Unk {
            has_unk = true;
        }
    }
    let resolutions: &[K] = if has_unk {
        &[K::Int, K::Flt]
    } else {
        &[K::Int]
    };
    let mut variants = Vec::new();
    let mut refusal = "";
    for &unk in resolutions {
        match emit_one(&mut b, &m, unk) {
            Ok(v) => variants.push(v),
            Err(why) if refusal.is_empty() => refusal = why,
            Err(_) => {}
        }
    }
    if variants.is_empty() {
        return Err(refusal.into());
    }
    Ok(TProg {
        variants,
        ind: m.var,
        lim: m.lim,
        step: m.step,
        cmp: m.cmp,
        ninsns: m.ninsns,
    })
}

/// One variant under the kind resolution `unk`, or why there is none:
/// `slots` / `arrays` (more scalars or arrays of a kind than a frame
/// holds), `fallible-after-store` (a check that could fail after the
/// iteration's first store, which the replay could not undo).
fn emit_one(b: &mut Bld, m: &MatchOut, unk: K) -> Result<TVariant, &'static str> {
    // Kind per scalar key / array under this resolution, and array slots.
    let mut resolve = |v| match b.uf.kind(v) {
        K::Unk => unk,
        k => k,
    };
    let skind: Map<u32, K> = (b.sorder.iter())
        .map(|&k| (k, resolve(b.svar[&k])))
        .collect();
    let akind: Map<Reg, K> = (b.aorder.iter())
        .map(|&r| (r, resolve(b.arrs[&r].elem)))
        .collect();
    let mut narr = [0u16; 2];
    let aslot: Map<Reg, u16> = (b.aorder.iter())
        .map(|&r| {
            let n = &mut narr[(akind[&r] != K::Int) as usize];
            *n += 1;
            (r, *n - 1)
        })
        .collect();
    if narr.iter().any(|&n| n as usize > NARR) {
        return Err("arrays");
    }
    // First-iteration read-before-write analysis over the execution
    // order decides which registers must be bound at entry. A write in an
    // arm counts only inside the arm: past it the test may have failed.
    let mut written: Set<u32> = Set::default();
    let mut bound: Set<u32> = Set::default();
    {
        let mut read = |key: u32, written: &Set<u32>| {
            if key < SCRATCH0 && !written.contains(&key) {
                bound.insert(key);
            }
        };
        let mut in_arm = written.clone();
        for (p, g) in b.protos.iter().zip(&b.guards) {
            if g.is_none() {
                in_arm.clone_from(&written);
            }
            p.reads(|r| read(r, &in_arm));
            if let Some(d) = p.write() {
                in_arm.insert(d);
                if g.is_none() {
                    written.insert(d);
                }
            }
        }
        // The back-edge reads the induction variable and the limit.
        read(m.var as u32, &written);
        read(m.lim as u32, &written);
        written.insert(m.var as u32);
    }
    // Ops. Loop-invariant constants — a `Const` whose slot no other op
    // writes and whose pre-loop value is never read (it is not in
    // `bound`) — hoist into a once-per-run prelude: they reload the
    // same value every iteration, and the slot still holds it for the
    // exit write-back. Everything else stays in iteration order.
    let mut write_count: Map<u32, usize> = Map::default();
    for p in &b.protos {
        if let Some(d) = p.write() {
            *write_count.entry(d).or_default() += 1;
        }
    }
    let hoisted: Vec<bool> = b
        .protos
        .iter()
        .zip(&b.guards)
        .map(|(p, g)| {
            matches!(p, P::Const { .. })
                && g.is_none()
                && p.write()
                    .is_some_and(|d| write_count[&d] == 1 && !bound.contains(&d))
        })
        .collect();
    // Slot assignment, in first-use order. The keys of one register's
    // values of one kind share its slot (each is dead when the next is
    // defined), unless one is a hoisted constant.
    let mut slot: Map<u32, u16> = Map::default();
    let mut shared: Map<(Reg, K), u16> = Map::default();
    let mut nslots = [0u16; 2];
    let hoist_keys: Set<u32> = (b.protos.iter().zip(&hoisted))
        .filter_map(|(p, &h)| p.write().filter(|_| h))
        .collect();
    for &key in &b.sorder {
        let k = skind[&key];
        let next = &mut nslots[(k != K::Int) as usize];
        let reg = (b.version.get(&key).copied())
            .or((key < SCRATCH0).then_some(key as Reg))
            .filter(|_| !hoist_keys.contains(&key));
        let s = match reg {
            Some(r) => *shared.entry((r, k)).or_insert(*next),
            None => *next,
        };
        if s == *next {
            *next += 1;
        }
        slot.insert(key, s);
    }
    if nslots.iter().any(|&n| n as usize > NSLOT) {
        return Err("slots");
    }
    let mut ops: Vec<TOp> = Vec::with_capacity(b.protos.len());
    let mut prelude = Vec::new();
    let mut fallible = false;
    let mut seen_store = false;
    // Elements this iteration has already bounds-checked, as `(array,
    // index, offset)` and the arm the check ran in, until the index
    // register is redefined (under any key: past an arm that redefines
    // it, its key before the arm holds the arm's value): arrays never
    // change length, so checking one again cannot fail. A check in an arm
    // counts only inside the arm: past it the test may have failed.
    let reg_of = |key: u32| b.version.get(&key).map_or(key, |&r| r as u32);
    let mut checked: Vec<((Reg, u32, i32), Option<u16>)> = Vec::new();
    for (i, p) in b.protos.iter().enumerate() {
        let arm = b.guards[i];
        checked.retain(|&(_, a)| a.is_none() || a == arm);
        let repeat = p.access().is_some_and(|a| {
            let seen = checked.iter().any(|&(c, _)| c == a);
            checked.push((a, arm));
            seen
        });
        if let Some(d) = p.write() {
            checked.retain(|&((_, idx, _), _)| reg_of(idx) != reg_of(d));
        }
        let (op, _, op_fallible, is_store) = lower(p, &skind, &akind, &slot, &aslot);
        let op_fallible = op_fallible && !repeat;
        if hoisted[i] {
            prelude.push(op);
            continue;
        }
        // Replay soundness: no fallible op may execute after the
        // first store of an iteration (see module docs). A store's
        // own bounds check fires before it writes, so the first
        // store itself is fine.
        if seen_store && op_fallible {
            return Err("fallible-after-store");
        }
        seen_store |= is_store;
        fallible |= op_fallible;
        // An arm's test skips the ops lowered from the arm's protos.
        if let Some(br) = ops
            .iter_mut()
            .rev()
            .find(|o| o.arm.is_some() && o.arm == arm)
        {
            br.off += 1;
        }
        ops.push(op);
    }
    // Binds: bound scalars plus every array.
    let out_of = |key: u32, reg: Reg| Bind {
        kind: [BindKind::Int, BindKind::Flt][(skind[&key] != K::Int) as usize],
        reg,
        slot: slot[&key],
    };
    let mut binds: Vec<Bind> = (b.sorder.iter())
        .filter(|&&key| key < SCRATCH0 && bound.contains(&key))
        .map(|&key| out_of(key, key as Reg))
        .collect();
    for &reg in &b.aorder {
        let kinds = [
            BindKind::ArrI,
            BindKind::ArrF,
            BindKind::CellI,
            BindKind::CellF,
        ];
        let i = (akind[&reg] != K::Int) as usize + 2 * b.arrs[&reg].cell as usize;
        binds.push(Bind {
            kind: kinds[i],
            reg,
            slot: aslot[&reg],
        });
    }
    // Write-backs. A do-while completes at least one full body before a
    // normal exit, so every register written outside an arm is defined by
    // then; one only arms write is, if one of them ran.
    let mut outs = Vec::new();
    let mut bail_outs = Vec::new();
    let mut cond_outs = Vec::new();
    let mut snap = Vec::new();
    // A register exits with the value of its last key.
    let last: Map<u32, Reg> = (b.cur.iter().map(|(&r, &k)| (k, r)))
        .chain([(m.var as u32, m.var)])
        .collect();
    // An arm's key of another kind than the register's before the arm.
    let now_outs = (b.merges.iter())
        .filter(|&&(_, k0, k1)| skind[&k0] != skind[&k1])
        .filter_map(|&(a, k0, k1)| last.get(&k0).map(|&reg| (a, out_of(k1, reg))))
        .collect();
    for &key in &b.sorder {
        let Some(&reg) = last.get(&key) else {
            continue;
        };
        let (s, flt, out) = (slot[&key], skind[&key] != K::Int, out_of(key, reg));
        if !written.contains(&key) && !bound.contains(&key) {
            let arms = (b.protos.iter().zip(&b.guards))
                .filter(|(p, _)| p.write() == Some(key))
                .fold(0, |m, (_, g)| m | g.map_or(0, |a| 1 << a));
            cond_outs.push((arms, out));
            continue;
        }
        outs.push(out);
        if bound.contains(&key) {
            bail_outs.push(out);
            snap.push((flt, s));
        }
    }
    for &(reg, cell) in &b.derefs {
        let kind = [BindKind::ArrI, BindKind::ArrF][(akind[&cell] != K::Int) as usize];
        let slot = aslot[&cell];
        outs.push(Bind { kind, reg, slot });
    }
    // Write fences per stored-into array slot.
    let mut wf_i = Vec::new();
    let mut wf_f = Vec::new();
    for &r in &b.aorder {
        if !b.arrs[&r].written {
            continue;
        }
        match akind[&r] {
            K::Int => wf_i.push(aslot[&r]),
            _ => wf_f.push(aslot[&r]),
        }
    }
    // Control operands resolved to slots.
    let shape = Shape {
        ind: slot[&(m.var as u32)],
        step: m.step,
        lim: slot[&(m.lim as u32)],
        cmp: m.cmp,
    };
    let strip = plan_strip(
        b,
        m,
        &Kinds {
            skind: &skind,
            akind: &akind,
            slot: &slot,
            aslot: &aslot,
        },
        &bound,
        &write_count,
        &hoisted,
    );
    Ok(TVariant {
        strip,
        binds,
        prelude,
        ops,
        shape,
        outs,
        bail_outs,
        cond_outs,
        now_outs,
        snap,
        fallible,
        wf_i,
        wf_f,
    })
}

/// One kind resolution of a loop: the kind and frame slot of every
/// scalar key and array register.
struct Kinds<'m> {
    skind: &'m Map<u32, K>,
    akind: &'m Map<Reg, K>,
    slot: &'m Map<u32, u16>,
    aslot: &'m Map<Reg, u16>,
}

/// Placeholder key for the destination of the proto being re-lowered
/// over columns (a key no register or scratch temporary can have).
const DEF: u32 = u32::MAX;

/// A gathered-update tail over keys, before columns and slots exist
/// (see [`Tail`]): the index `g`, the value `v` (a key, or an update's
/// immediate), and the keys the tail defines.
struct TailP {
    g: u32,
    v: Result<u32, KVal>,
    loaded: Vec<u32>,
    stored: u32,
    form: FormP,
}

#[derive(Clone, Copy)]
enum FormP {
    Update { h: Reg },
    Cursor { cur: Reg, out: Reg, k: i64 },
}

impl TailP {
    /// Recognise the start of `t` as `h[g] += v` or `out[cur[g]] = v;
    /// cur[g] += k`, with `g` and `v` from the head; and its length.
    #[rustfmt::skip]
    fn decode(t: &[P]) -> Option<(TailP, usize)> {
        use P::{BinK, Ld, St};
        let tail = match *t {
            [Ld { d: x, arr: h, idx: g, off: 0 }, add, St { arr, idx, s: y }, ..] if (arr, idx) == (h, g) => {
                let v = match add {
                    P::Bin { op: ArithOp::Add, d, a, b } if (d, a) == (y, x) => Ok(b),
                    BinK { op: ArithOp::Add, d, a, v, left: false } if (d, a) == (y, x) => Err(v),
                    _ => return None,
                };
                TailP { g, v, loaded: vec![x], stored: y, form: FormP::Update { h } }
            }
            [Ld { d: c, arr: cur, idx: g, off: 0 }, St { arr: out, idx, s: v },
             Ld { d: x, arr: cur2, idx: g2, off: 0 },
             BinK { op: ArithOp::Add, d: y, a, v: KVal::I(k), left: false }, St { arr: cur3, idx: g3, s }, ..]
                if (idx, cur2, cur3, g2, g3, a, s) == (c, cur, cur, g, g, x, y) && out != cur =>
            {
                TailP { g, v: Ok(v), loaded: vec![c, x], stored: y, form: FormP::Cursor { cur, out, k } }
            }
            _ => return None,
        };
        // `g` is read throughout, `v` before anything but the first load.
        let early = tail.v.is_ok_and(|v| v == tail.loaded[0]);
        let len = 2 * tail.loaded.len() + 1;
        (!tail.defs().contains(&tail.g) && !early).then_some((tail, len))
    }

    fn defs(&self) -> Vec<u32> {
        let mut defs = self.loaded.clone();
        defs.push(self.stored);
        defs
    }
}

/// Decide whether the loop may run strip-mined, and if so re-lower it
/// over columns. Distributing the loop over its ops is legal only when
/// no value flows from one iteration to a later one except through a
/// reduction folded in order (DESIGN "Typed-template tier" has the
/// argument). `Err` names the first rule broken; that variant keeps the
/// scalar chain:
///
/// - `guard`: a monotone induction test against a limit the loop does
///   not write, so the trip count is known on entry.
/// - `carried-scalar`: a slot read before it is written, and written, is
///   a single-op accumulator (`a = a ⊕ t`) nothing else reads; a
///   register only an arm defines is not read past the arm.
/// - `non-affine-store` / `memory-dependence`: an array the loop stores
///   into is accessed only at the induction variable itself, or only by
///   a gathered update ([`Tail`]) the head does not touch.
/// - `fallible-in-arm`: an `if` arm holds no load, store or integer
///   division but a gathered update.
/// - `columns`: the expanded scalars fit the per-thread scratch.
///
/// An `if` arm is if-converted: its arithmetic runs on every lane, its
/// libm calls, folds and update on the lanes its test held at (a fold
/// never adds `+ 0.0` for another lane: `-0.0 + 0.0` is `+0.0`), and a
/// register the arm and the code before it define is read past the arm
/// through a per-lane select. Ops after the update join the head; the
/// folds run after the update, over the lanes it completed.
fn plan_strip(
    b: &Bld,
    m: &MatchOut,
    kinds: &Kinds,
    bound: &Set<u32>,
    write_count: &Map<u32, usize>,
    hoisted: &[bool],
) -> Result<StripPlan, &'static str> {
    let (var, step, lim, cmp) = (m.var as u32, m.step, m.lim as u32, m.cmp);
    let monotone = match cmp {
        CmpOp::Lt | CmpOp::Le => step > 0,
        CmpOp::Gt | CmpOp::Ge => step < 0,
        CmpOp::Eq | CmpOp::Ne => false,
    };
    if !monotone || lim == var || write_count.contains_key(&lim) {
        return Err("guard");
    }
    if write_count.contains_key(&var) {
        return Err("carried-scalar");
    }
    let mut nreads: Map<u32, usize> = [(lim, 1)].into_iter().collect();
    for p in &b.protos {
        p.reads(|r| *nreads.entry(r).or_default() += 1);
    }
    // Scalar key -> the column holding its current definition.
    let mut cur: Map<u32, u16> = [(var, IOTA)].into_iter().collect();
    for (&key, &count) in write_count {
        if !bound.contains(&key) {
            continue;
        }
        let folds = b.protos.iter().any(|p| match *p {
            P::Bin { d, a, b, .. } => d == key && (a == key) != (b == key),
            P::BinK { d, a, .. } => d == key && a == key,
            _ => false,
        });
        if count != 1 || nreads.get(&key) != Some(&1) || !folds {
            return Err("carried-scalar");
        }
        cur.insert(key, ACC | kinds.slot[&key]);
    }
    let (body, guard): (Vec<P>, Vec<Option<u16>>) = (b.protos.iter().zip(&b.guards))
        .zip(hoisted)
        .filter(|(_, &h)| !h)
        .map(|(pg, _)| pg)
        .unzip();
    let gathered: Vec<Reg> = (body.iter())
        .filter_map(|p| match *p {
            P::St { arr, idx, .. } if idx != var => Some(arr),
            _ => None,
        })
        .collect();
    let split = (body.iter())
        .position(|p| p.access().is_some_and(|(arr, ..)| gathered.contains(&arr)))
        .unwrap_or(body.len());
    let (tail, tlen) = match &body[split..] {
        [] => (None, 0),
        t => TailP::decode(t)
            .map(|(t, n)| (Some(t), n))
            .ok_or("non-affine-store")?,
    };
    let tail_at = split..split + tlen;
    // The head: the ops before the tail and after it.
    let head: Vec<P> = (body.iter().enumerate())
        .filter(|(i, _)| !tail_at.contains(i))
        .map(|(_, p)| *p)
        .collect();
    let tail_arm = guard.get(split).copied().flatten();
    if let Some(t) = &tail {
        let defs = t.defs();
        let touches = |p: &P| {
            let mut hit = p.access().is_some() || p.write().is_some_and(|d| defs.contains(&d));
            p.reads(|r| hit |= defs.contains(&r));
            hit
        };
        if guard[tail_at.clone()].iter().any(|&g| g != tail_arm)
            || body[tail_at.end..].iter().any(touches)
        {
            return Err("non-affine-store");
        }
        // `emit_one` refuses a check after a store, and the tail begins
        // with one.
        debug_assert!(!head.iter().any(|p| matches!(p, P::St { .. })));
        let arrays = match t.form {
            FormP::Update { h } => vec![h],
            FormP::Cursor { cur, out, .. } => vec![cur, out],
        };
        if (head.iter()).any(|p| p.access().is_some_and(|(arr, ..)| arrays.contains(&arr))) {
            return Err("memory-dependence");
        }
    }
    for p in &head {
        if matches!(*p, P::Ld { arr, idx, off, .. } if b.arrs[&arr].written && (idx != var || off != 0))
        {
            return Err("memory-dependence");
        }
    }
    let mut skind = kinds.skind.clone();
    let mut w = Walk {
        kinds,
        cur,
        cond: Map::default(),
        merges: &b.merges,
        ncols: [1, 0],
        plan: StripPlan::default(),
    };
    // A head that is nothing but a key load `x = a[i]` (step 1), copies
    // of the key and at most one division of it by an invariant for the
    // index: the tail does all of that itself, lane by lane, in one pass.
    // The chain is the registers that hold the key.
    let keyload = tail.as_ref().filter(|_| step == 1).and_then(|t| {
        let P::Ld { d, arr, idx, off } = *head.first()? else {
            return None;
        };
        let (mut chain, mut div) = (vec![d], None);
        for p in &head[1..] {
            match *p {
                P::Mov { d, s } if div.is_none() && chain.contains(&s) => chain.push(d),
                P::Bin {
                    op: ArithOp::Div,
                    d,
                    a,
                    b,
                } if div.is_none()
                    && d == t.g
                    && chain.contains(&a)
                    && b != var
                    && !write_count.contains_key(&b) =>
                {
                    div = Some(b)
                }
                _ => return None,
            }
        }
        // No column holds the divided index, and a register the division
        // overwrote no longer holds the key; an update reads its value
        // from a column, which this head no longer fills.
        let value_ok = t.v.map_or(true, |v| {
            !(div.is_some() && v == t.g)
                && (matches!(t.form, FormP::Cursor { .. }) || !chain.contains(&v))
        });
        let src = Src::Load {
            arr: kinds.aslot[&arr],
            off: off as i64,
        };
        (idx == var
            && kinds.akind[&arr] == K::Int
            && (div.is_some() || chain.contains(&t.g))
            && value_ok)
            .then_some((src, chain, div))
    });
    let mut defined: Set<u32> = Set::default();
    // Keys that hold the induction variable times a constant: a load they
    // index is a strided slice, one bounds check per strip.
    let mut affine: Map<u32, i64> = [(var, 1)].into_iter().collect();
    // The open arm, and the column each register it defines had before.
    let mut open: Option<(u16, Map<u32, Option<u16>>)> = None;
    let mut tail_defs = Vec::new();
    for (i, (p, &g)) in body.iter().zip(&guard).enumerate() {
        if open.as_ref().is_some_and(|(a, _)| g != Some(*a)) {
            w.close(open.take());
        }
        if let Some(t) = tail.as_ref().filter(|_| i == split) {
            tail_defs = w.tail(t, tail_arm, var, keyload.clone())?;
        }
        if tail_at.contains(&i) || keyload.is_some() {
            continue;
        }
        let mut reads = Vec::new();
        p.reads(|r| reads.push(r));
        for r in reads {
            w.col(r)?;
        }
        w.plan.iota |= match *p {
            P::Ld { .. } => false,
            P::St { s, .. } => s == var,
            _ => {
                let mut reads_var = false;
                p.reads(|r| reads_var |= r == var);
                reads_var
            }
        };
        // An accumulator keeps its tagged slot as the destination;
        // every other definition gets the next column.
        let def = p
            .write()
            .filter(|d| w.cur.get(d).is_none_or(|c| c & ACC == 0));
        let p = match def {
            Some(d) => {
                // A register an earlier arm left to its test.
                if w.cond.remove(&d).is_some() && g.is_some() {
                    return Err("carried-scalar");
                }
                if let Some((_, pre)) = &mut open {
                    pre.entry(d).or_insert(w.cur.get(&d).copied());
                }
                let scale = match (*p, g) {
                    (P::Mov { s, .. }, None) => affine.get(&s).copied(),
                    (
                        P::BinK {
                            op: ArithOp::Mul,
                            a,
                            v: KVal::I(k),
                            ..
                        },
                        None,
                    ) => affine.get(&a).and_then(|s| s.checked_mul(k)),
                    _ => None,
                };
                match scale {
                    Some(k) => affine.insert(d, k),
                    None => affine.remove(&d),
                };
                // A copy names its source's column, and a constant gets a
                // column filled once per run: neither is an op.
                let named = match *p {
                    P::Mov { s, .. } => Some(w.cur[&s]),
                    P::Const { v, .. } => {
                        let c = w.fresh(skind[&d] != K::Int)?;
                        w.plan.konst.push((c, v));
                        Some(c)
                    }
                    _ => None,
                };
                if let Some(c) = named {
                    w.cur.insert(d, c);
                    defined.insert(d);
                    continue;
                }
                let kind = skind[&d];
                skind.insert(DEF, kind);
                let c = w.fresh(kind != K::Int)?;
                w.cur.insert(DEF, c);
                p.retarget(DEF)
            }
            None => *p,
        };
        let (mut op, f, fallible, _) = lower(&p, &skind, kinds.akind, &w.cur, kinds.aslot);
        match p {
            // A call into libm in an arm runs over the lanes its test held
            // at; a cheaper op runs over all, vectorised.
            P::Call { op: bop, .. } => {
                use BuiltinOp::{Cos, Exp, Log, Pow, Sin};
                op.arm = g.filter(|_| matches!(bop, Log | Exp | Sin | Cos | Pow));
            }
            P::Ld { idx, .. } => op.ki = affine.get(&idx).copied().unwrap_or(0),
            _ => {}
        }
        if op.a & ACC != 0 && p.write().is_some() {
            // A fold after the tail's stores cannot fail and replay.
            if fallible && tail.is_some() {
                return Err("carried-scalar");
            }
            op.arm = g;
            w.plan.folds.push((f, op));
        } else {
            if fallible && g.is_some() {
                return Err("fallible-in-arm");
            }
            w.plan.ops.push((f, op));
        }
        if let P::Br { arm, .. } = p {
            open = Some((arm, Map::default()));
        }
        if let Some(d) = def {
            let c = w.cur[&DEF];
            w.cur.insert(d, c);
            defined.insert(d);
        }
    }
    w.close(open);
    if b.merges.iter().any(|m| tail_defs.contains(&m.2)) {
        return Err("non-affine-store");
    }
    let last: Set<u32> = (b.cur.values().copied())
        .chain(b.merges.iter().map(|m| m.2))
        .collect();
    for &key in (b.sorder.iter())
        .filter(|k| last.contains(k) && defined.contains(k) && !tail_defs.contains(k))
    {
        let (flt, slot) = (skind[&key] != K::Int, kinds.slot[&key]);
        match w.cond.get(&key) {
            Some(&(arm, c, Some(base))) => w.plan.last.push((flt, slot, c, Some((arm, base)))),
            Some(&(arm, c, None)) => w.plan.held.push((flt, slot, c, arm)),
            None => w.plan.last.push((flt, slot, w.cur[&key], None)),
        }
    }
    [w.plan.ni, w.plan.nf] = w.ncols;
    w.plan.arms = b.narms as usize;
    Ok(w.plan)
}

/// The strip planner's state as it walks the head in iteration order.
struct Walk<'k> {
    kinds: &'k Kinds<'k>,
    /// Scalar key -> the column holding its current definition.
    cur: Map<u32, u16>,
    /// Registers a closed arm defined: `(arm, column, column before the
    /// arm)`, the one to use at a lane whose test failed (`None`: the
    /// value is an earlier iteration's).
    cond: Map<u32, (u16, u16, Option<u16>)>,
    /// [`Bld::merges`]: an arm's key for a register, and its key before.
    merges: &'k [(u16, u32, u32)],
    ncols: [usize; 2],
    plan: StripPlan,
}

impl Walk<'_> {
    fn fresh(&mut self, flt: bool) -> Result<u16, &'static str> {
        let n = &mut self.ncols[flt as usize];
        *n += 1;
        (*n <= MAX_COLS).then_some(*n as u16 - 1).ok_or("columns")
    }

    /// The column of `key` as read here: a key with no column yet was
    /// not defined earlier in the iteration and is not carried, so it is
    /// loop-invariant and gets a broadcast one; one an arm defined is
    /// selected per lane.
    fn col(&mut self, key: u32) -> Result<u16, &'static str> {
        let flt = self.kinds.skind[&key] != K::Int;
        if let Some((arm, b, base)) = self.cond.remove(&key) {
            let (a, c, arm) = (self.fresh(flt)?, base.ok_or("carried-scalar")?, Some(arm));
            self.plan.ops.push((
                StripWalk::of(SEL + flt as usize),
                TOp {
                    a,
                    b,
                    c,
                    arm,
                    ..NOP
                },
            ));
            self.cur.insert(key, a);
        }
        if let Some(&c) = self.cur.get(&key) {
            return Ok(c);
        }
        let c = self.fresh(flt)?;
        self.cur.insert(key, c);
        self.plan.bcast.push((flt, self.kinds.slot[&key], c));
        Ok(c)
    }

    /// Close an arm: what it defined becomes conditional on its test.
    fn close(&mut self, open: Option<(u16, Map<u32, Option<u16>>)>) {
        let Some((arm, pre)) = open else { return };
        for (key, before) in pre {
            let c = match before {
                Some(b) => self.cur.insert(key, b),
                None => self.cur.remove(&key),
            };
            self.cond
                .insert(key, (arm, c.expect("the arm defined it"), before));
        }
        // The register's key before the arm, past it: the arm's where its
        // test held (one kind: else no read merged them, and the exit
        // write-back picks).
        for &(_, k0, k1) in self.merges.iter().filter(|m| m.0 == arm) {
            if let Some(&(_, c1, _)) = self.cond.get(&k1) {
                if self.kinds.skind[&k0] == self.kinds.skind[&k1] {
                    self.cond.insert(k0, (arm, c1, self.cur.get(&k0).copied()));
                }
            }
        }
    }

    /// Plan the tail `t` over the columns the head has filled so far, in
    /// arm `arm` or none; the keys it defines.
    fn tail(
        &mut self,
        t: &TailP,
        arm: Option<u16>,
        var: u32,
        keyload: Option<(Src, Vec<u32>, Option<u32>)>,
    ) -> Result<Vec<u32>, &'static str> {
        let kinds = self.kinds;
        let mut tail_defs = t.defs();
        let slot = |key: u32| kinds.slot[&key];
        self.plan.iota |= t.v.ok() == Some(var);
        let (src, chain, div) = match keyload {
            Some(fused) => fused,
            None => (Src::Col(self.col(t.g)?), Vec::new(), None),
        };
        let (form, flt) = match (t.form, t.v) {
            (FormP::Update { h }, v) => {
                let v = match v {
                    Ok(key) => Ok(self.col(key)?),
                    Err(k) => Err(k),
                };
                let flt = kinds.akind[&h] != K::Int;
                (
                    TailForm::Update {
                        h: kinds.aslot[&h],
                        v,
                    },
                    flt,
                )
            }
            (FormP::Cursor { cur, out, k }, v) => {
                let v = match v {
                    Ok(v) if chain.contains(&v) => src,
                    Ok(v) => Src::Col(self.col(v)?),
                    Err(_) => unreachable!("a scatter stores a register"),
                };
                let (flt, cur, out) = (
                    kinds.akind[&out] != K::Int,
                    kinds.aslot[&cur],
                    kinds.aslot[&out],
                );
                (TailForm::Cursor { cur, out, v, k }, flt)
            }
        };
        let div = div.map(|d| (slot(d), slot(t.g)));
        if div.is_some() {
            tail_defs.push(t.g);
        }
        // The chain's registers the tail does not redefine end holding
        // the last key.
        let mut keys = Vec::new();
        for k in chain {
            if !tail_defs.contains(&k) {
                keys.push(slot(k));
                tail_defs.push(k);
            }
        }
        self.plan.tail = Some(Tail {
            src,
            div,
            keys,
            loaded: t.loaded.iter().map(|&k| slot(k)).collect(),
            stored: slot(t.stored),
            flt,
            form,
            arm,
        });
        Ok(tail_defs)
    }
}

/// Lower one proto-op under a kind resolution. Returns the op, its
/// strip form (same operand layout, columns for slots), its
/// fallibility, and whether it is an array store.
fn lower(
    p: &P,
    skind: &Map<u32, K>,
    akind: &Map<Reg, K>,
    slot: &Map<u32, u16>,
    aslot: &Map<Reg, u16>,
) -> (TOp, StripWalk, bool, bool) {
    let mut op = NOP;
    let row: usize;
    let (fallible, store) = match *p {
        P::Mov { d, s } => {
            op.a = slot[&d];
            op.b = slot[&s];
            row = MOV + (skind[&d] != K::Int) as usize;
            (false, false)
        }
        P::Const { d, v } => {
            op.a = slot[&d];
            match v {
                KVal::I(x) => {
                    op.ki = x;
                    row = KONST;
                }
                KVal::F(x) => {
                    op.kf = x;
                    row = KONST + 1;
                }
            }
            (false, false)
        }
        P::Bin { op: ao, d, a, b } => {
            op.a = slot[&d];
            op.b = slot[&a];
            op.c = slot[&b];
            let int = skind[&d] == K::Int;
            row = 5 * !int as usize + ao as usize;
            (int && matches!(ao, ArithOp::Div | ArithOp::Rem), false)
        }
        P::BinK {
            op: ao,
            d,
            a,
            v,
            left,
        } => {
            op.a = slot[&d];
            op.b = slot[&a];
            let int = match v {
                KVal::I(x) => {
                    op.ki = x;
                    true
                }
                KVal::F(x) => {
                    op.kf = x;
                    false
                }
            };
            row = 5 * (2 + 2 * !int as usize + left as usize) + ao as usize;
            (int && matches!(ao, ArithOp::Div | ArithOp::Rem), false)
        }
        P::Ld { d, arr, idx, off } => {
            op.a = slot[&d];
            op.b = slot[&idx];
            op.c = aslot[&arr];
            op.off = off as i64;
            row = LD + (akind[&arr] != K::Int) as usize;
            (true, false)
        }
        P::St { arr, idx, s } => {
            op.a = aslot[&arr];
            op.b = slot[&idx];
            op.c = slot[&s];
            row = ST + (akind[&arr] != K::Int) as usize;
            (true, true)
        }
        P::Call { op: bop, d, a, b } => {
            op.a = slot[&d];
            op.b = slot[&a];
            op.c = b.map_or(0, |b| slot[&b]);
            // The row whose kinds the resolution gave the operands.
            let kinds: Vec<K> = [a].into_iter().chain(b).map(|k| skind[&k]).collect();
            row = PURE_ROW
                + (PURE.iter())
                    .position(|&(o, row)| o == bop && sig(row) == (&kinds[..], skind[&d]))
                    .expect("the decoder pinned a row's kinds");
            (false, false)
        }
        P::Br { op: cmp, a, b, arm } => {
            op.b = slot[&a];
            op.c = slot[&b];
            (op.cmp, op.arm) = (cmp, Some(arm));
            row = BR + (skind[&a] != K::Int) as usize;
            (false, false)
        }
    };
    (op.f, op.row) = (OPS[row].one, row as u8);
    (op, StripWalk::of(row), fallible, store)
}

// ---------------------------------------------------------------------------
// Installation
// ---------------------------------------------------------------------------

/// The pcs a template loop can be headed at: the targets of every
/// `IncCmpJump`. A loop matches only when the `IncCmpJump` closing its
/// body jumps to `pc` from some `j >= pc`. [`install_fn`] rewrites only
/// pcs it has already passed, so the back-edge of any loop it can still
/// match is in `f.code` when this scan runs.
fn loop_heads(code: &[Insn]) -> Vec<bool> {
    let mut head = vec![false; code.len()];
    for insn in code {
        if let Insn::IncCmpJump { to, .. } = *insn {
            head[to as usize] = true;
        }
    }
    head
}

/// Install templates in one function. Runs in the kernel installer
/// after the fixed kernels, at loop heads only, skipping any pc covered
/// by an installed kernel's span.
pub(crate) fn install_fn(f: &mut CompiledFn) {
    let heads = loop_heads(&f.code);
    let spans: Vec<(usize, usize)> = f
        .code
        .iter()
        .enumerate()
        .filter_map(|(pc, insn)| match insn {
            Insn::BulkLoop { kidx } => Some((pc, f.kernels[*kidx as usize].exit as usize)),
            _ => None,
        })
        .collect();
    let covered = |pc: usize| spans.iter().any(|&(s, e)| pc >= s && pc < e);
    for (pc, head) in heads.into_iter().enumerate() {
        if f.templates.len() >= u16::MAX as usize {
            break;
        }
        if !head || covered(pc) {
            continue;
        }
        let Ok((prog, exit)) = match_at(f, pc) else {
            continue;
        };
        let tidx = f.templates.len() as u16;
        f.templates.push(TemplateDesc {
            orig: f.code[pc],
            exit,
            label: crate::kernels::loop_label(f, pc),
            prog: Arc::new(prog),
        });
        f.code[pc] = Insn::TemplateLoop { tidx };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(code: Vec<Insn>, consts: Vec<Value>, nregs: usize) -> CompiledFn {
        CompiledFn {
            name: "t".to_string(),
            nparams: 0,
            nregs,
            code,
            consts,
            locals: Vec::new(),
            kernels: Vec::new(),
            templates: Vec::new(),
            lcg: false,
        }
    }

    /// `do { r1 = r1 * 3 } while (++r2 < r0)` — the EP/IS setup shape.
    #[test]
    fn form_a_mulk_matches_and_runs() {
        let f = mk(
            vec![
                Insn::ArithK {
                    op: ArithOp::Mul,
                    dst: 1,
                    a: 1,
                    k: 0,
                },
                Insn::IncCmpJump {
                    var: 2,
                    step: 1,
                    limit: 0,
                    op: CmpOp::Lt,
                    to: 0,
                },
                Insn::RetVoid,
            ],
            vec![Value::Int(3)],
            3,
        );
        let (prog, exit) = match_at(&f, 0).expect("should match");
        assert_eq!(exit, 2);
        assert_eq!(prog.ninsns, 2);
        assert_eq!(prog.ind, 2);
        assert_eq!(prog.variants.len(), 1);
        let v = &prog.variants[0];
        assert!(!v.fallible);
        let mut regs = vec![Value::Int(5), Value::Int(1), Value::Int(0)];
        assert!(run_inner(&prog, &mut regs).is_ok());
        assert!(matches!(regs[1], Value::Int(243)));
        assert!(matches!(regs[2], Value::Int(5)));
        // Wrong accumulator type: bind must fail with no side effects.
        let mut regs = vec![Value::Int(5), Value::Float(1.0), Value::Int(0)];
        assert!(run_inner(&prog, &mut regs).is_err());
        assert!(matches!(regs[1], Value::Float(x) if x == 1.0));
    }

    /// Untyped `a[i] = b[i]` copy: one unknown kind group, so both an
    /// Int and a Flt variant install and the bind picks at runtime.
    #[test]
    fn dual_variant_copy_loop() {
        let f = mk(
            vec![
                Insn::Index {
                    dst: 3,
                    arr: 1,
                    idx: 2,
                },
                Insn::IndexSet {
                    arr: 0,
                    idx: 2,
                    src: 3,
                },
                Insn::IncCmpJump {
                    var: 2,
                    step: 1,
                    limit: 4,
                    op: CmpOp::Lt,
                    to: 0,
                },
                Insn::RetVoid,
            ],
            vec![],
            5,
        );
        let (prog, _) = match_at(&f, 0).expect("should match");
        assert_eq!(prog.variants.len(), 2);
        let src = Arc::new(ArrF::new(4));
        for i in 0..4 {
            src.set(i as i64, (i as f64) + 0.5).unwrap();
        }
        let dst = Arc::new(ArrF::new(4));
        let mut regs = vec![
            Value::ArrF(dst.clone()),
            Value::ArrF(src),
            Value::Int(0),
            Value::Undefined,
            Value::Int(4),
        ];
        assert!(run_inner(&prog, &mut regs).is_ok());
        assert_eq!(dst.get(3).unwrap(), 3.5);
        // The loaded element was boxed back as a Float.
        assert!(matches!(regs[3], Value::Float(x) if x == 3.5));
    }

    /// Out-of-bounds mid-run: loop-carried state must be written back
    /// so the interpreter replays the failing iteration exactly.
    #[test]
    fn bail_restores_iteration_state() {
        let f = mk(
            vec![
                Insn::Index {
                    dst: 3,
                    arr: 1,
                    idx: 2,
                },
                Insn::Arith {
                    op: ArithOp::Add,
                    dst: 4,
                    a: 4,
                    b: 3,
                },
                Insn::IncCmpJump {
                    var: 2,
                    step: 1,
                    limit: 0,
                    op: CmpOp::Lt,
                    to: 0,
                },
                Insn::RetVoid,
            ],
            vec![],
            5,
        );
        let (prog, _) = match_at(&f, 0).expect("should match");
        let arr = Arc::new(ArrI::new(3));
        for i in 0..3 {
            arr.set(i, 10 + i).unwrap();
        }
        // Limit 5 but the array has 3 elements: bail at i == 3 with
        // the accumulator holding exactly the first three sums.
        let mut regs = vec![
            Value::Int(5),
            Value::ArrI(arr),
            Value::Int(0),
            Value::Undefined,
            Value::Int(0),
        ];
        let r = run_inner(&prog, &mut regs);
        assert_eq!(r, Err(BAIL_BOUNDS));
        assert!(matches!(regs[2], Value::Int(3)));
        assert!(matches!(regs[4], Value::Int(33)));
        // r3 (defined before use every iteration) is untouched: the
        // interpreter replay re-defines it before reading.
        assert!(matches!(regs[3], Value::Undefined));
    }

    // -- strip execution ----------------------------------------------------

    fn back_edge(var: Reg, limit: Reg, to: u32) -> Insn {
        Insn::IncCmpJump {
            var,
            step: 1,
            limit,
            op: CmpOp::Lt,
            to,
        }
    }

    fn verdict(code: Vec<Insn>, consts: Vec<Value>, nregs: usize) -> String {
        let f = mk(code, consts, nregs);
        match_at(&f, 0).expect("should match").0.verdict()
    }

    fn cell(v: Value) -> Value {
        Value::Ptr(Arc::new(parking_lot::Mutex::new(v)))
    }

    /// The benchmark's stencil body as `compile` + `optimize` emit it:
    /// `v[i] = 0.25 * u[i - 1] + 0.5 * u[i] + 0.25 * u[i + 1]` over
    /// shared (cell-held) arrays, r2 = &u, r3 = &v, r8 = i, r10 = ub.
    fn stencil_fn() -> CompiledFn {
        let ld = |dst, off| Insn::DerefIndexOff {
            dst,
            cell: 2,
            idx: 8,
            off,
        };
        let ff = |op, dst, a, b| Insn::Arith { op, dst, a, b };
        mk(
            vec![
                Insn::Const { dst: 11, k: 0 },
                ld(15, -1),
                ff(ArithOp::Mul, 16, 11, 15),
                Insn::Const { dst: 17, k: 1 },
                Insn::DerefIndex {
                    dst: 19,
                    cell: 2,
                    idx: 8,
                },
                ff(ArithOp::Mul, 20, 17, 19),
                ff(ArithOp::Add, 21, 16, 20),
                Insn::Const { dst: 22, k: 0 },
                ld(26, 1),
                ff(ArithOp::Mul, 27, 22, 26),
                ff(ArithOp::Add, 28, 21, 27),
                Insn::DerefIndexSet {
                    cell: 3,
                    idx: 8,
                    src: 28,
                },
                back_edge(8, 10, 0),
                Insn::RetVoid,
            ],
            vec![Value::Float(0.25), Value::Float(0.5)],
            29,
        )
    }

    fn stencil_regs(u: &Arc<ArrF>, v: &Arc<ArrF>, from: i64, to: i64) -> Vec<Value> {
        let mut regs = vec![Value::Undefined; 29];
        regs[2] = cell(Value::ArrF(u.clone()));
        regs[3] = cell(Value::ArrF(v.clone()));
        regs[8] = Value::Int(from);
        regs[10] = Value::Int(to);
        regs
    }

    fn ramp(n: usize) -> Arc<ArrF> {
        let u = Arc::new(ArrF::new(n));
        for i in 0..n {
            u.set(i as i64, ((i * 37) % 101) as f64 * 0.173 + 0.01)
                .unwrap();
        }
        u
    }

    /// Both benchmark loops are distributable, and the strip walk
    /// computes bit-for-bit what the scalar chain does, at every trip
    /// count around a strip boundary.
    #[test]
    fn benchmark_loops_run_strip_mined_and_match_the_scalar_chain() {
        let f = stencil_fn();
        let (prog, _) = match_at(&f, 0).expect("should match");
        assert_eq!(prog.verdict(), "strip");
        let u = ramp(3 * STRIP + 9);
        for trip in [1, STRIP - 1, STRIP, STRIP + 1, 3 * STRIP + 7] {
            let to = 1 + trip as i64;
            let v = Arc::new(ArrF::new(u.len()));
            let mut regs = stencil_regs(&u, &v, 1, to);
            assert!(run_inner(&prog, &mut regs).is_ok());
            let src = u.to_vec();
            let got = v.to_vec();
            for i in 1..=trip {
                let want = 0.25 * src[i - 1] + 0.5 * src[i] + 0.25 * src[i + 1];
                assert_eq!(got[i].to_bits(), want.to_bits(), "trip {trip} v[{i}]");
            }
            assert!(got[trip + 1..].iter().all(|&x| x == 0.0), "trip {trip}");
            // Written slots hold the last iteration's definitions.
            assert!(matches!(regs[8], Value::Int(i) if i == to));
            assert!(matches!(regs[26], Value::Float(x) if x == src[trip + 1]));
            assert!(matches!(regs[28], Value::Float(x) if x == got[trip]));
        }

        // `acc = acc + x[j] * x[j]` over a shared array, wrapping.
        let ld = |dst| Insn::DerefIndex {
            dst,
            cell: 4,
            idx: 9,
        };
        let f = mk(
            vec![
                ld(13),
                ld(12),
                Insn::Arith {
                    op: ArithOp::Mul,
                    dst: 10,
                    a: 13,
                    b: 12,
                },
                Insn::Arith {
                    op: ArithOp::Add,
                    dst: 6,
                    a: 6,
                    b: 10,
                },
                back_edge(9, 11, 0),
                Insn::RetVoid,
            ],
            vec![],
            14,
        );
        let (prog, _) = match_at(&f, 0).expect("should match");
        assert_eq!(prog.verdict(), "strip");
        let n = 3 * STRIP + 7;
        let x = Arc::new(ArrI::new(n));
        let mut expect = 5i64;
        for j in 0..n as i64 {
            let e = (j - 100).wrapping_mul(0x0123_4567_89ab);
            x.set(j, e).unwrap();
            expect = expect.wrapping_add(e.wrapping_mul(e));
        }
        let mut regs = vec![Value::Undefined; 14];
        regs[4] = cell(Value::ArrI(x));
        regs[6] = Value::Int(5);
        regs[9] = Value::Int(0);
        regs[11] = Value::Int(n as i64);
        assert!(run_inner(&prog, &mut regs).is_ok());
        assert!(matches!(regs[6], Value::Int(s) if s == expect));
        assert!(matches!(regs[9], Value::Int(j) if j == n as i64));
    }

    /// A float sum is folded in iteration order, not per lane: the
    /// strip result equals the sequential sum bit for bit.
    #[test]
    fn float_accumulator_rounds_in_iteration_order() {
        let f = mk(
            vec![
                Insn::Index {
                    dst: 3,
                    arr: 1,
                    idx: 2,
                },
                Insn::Arith {
                    op: ArithOp::Add,
                    dst: 4,
                    a: 4,
                    b: 3,
                },
                back_edge(2, 0, 0),
                Insn::RetVoid,
            ],
            vec![],
            5,
        );
        let (prog, _) = match_at(&f, 0).expect("should match");
        assert_eq!(prog.verdict(), "strip");
        let n = 3 * STRIP + 7;
        let a = Arc::new(ArrF::new(n));
        let mut expect = 0.0f64;
        for i in 0..n {
            let e = if i % 3 == 0 {
                1.0e16
            } else {
                1.0 / (i as f64 + 1.0)
            };
            a.set(i as i64, e).unwrap();
            expect += e;
        }
        let mut regs = vec![
            Value::Int(n as i64),
            Value::ArrF(a),
            Value::Int(0),
            Value::Undefined,
            Value::Float(0.0),
        ];
        assert!(run_inner(&prog, &mut regs).is_ok());
        assert!(matches!(regs[4], Value::Float(s) if s.to_bits() == expect.to_bits()));
    }

    /// An out-of-bounds load in the middle of the third strip: the
    /// first two strips and the in-bounds part of the third are
    /// stored, the induction register names the failing iteration.
    #[test]
    fn strip_bail_replays_to_the_failing_iteration() {
        let f = stencil_fn();
        let (prog, _) = match_at(&f, 0).expect("should match");
        let fail_at = 2 * STRIP + 50;
        // u[i + 1] is the first access past the end at i = len - 1.
        let u = ramp(fail_at + 1);
        let v = Arc::new(ArrF::new(4 * STRIP));
        let mut regs = stencil_regs(&u, &v, 1, 3 * STRIP as i64 + 7);
        assert_eq!(run_inner(&prog, &mut regs), Err(BAIL_BOUNDS));
        assert!(matches!(regs[8], Value::Int(i) if i == fail_at as i64));
        let got = v.to_vec();
        assert!(got[1..fail_at].iter().all(|&x| x != 0.0));
        assert!(got[fail_at..].iter().all(|&x| x == 0.0));
    }

    /// One loop per rule of `plan_strip`.
    #[test]
    fn classifier_names_the_rule_that_keeps_a_loop_scalar() {
        let mulk = Insn::ArithK {
            op: ArithOp::Mul,
            dst: 1,
            a: 1,
            k: 0,
        };
        // `do { r1 *= 3 } while (++r2 != r0)`: no trip count.
        let ne = Insn::IncCmpJump {
            var: 2,
            step: 1,
            limit: 0,
            op: CmpOp::Ne,
            to: 0,
        };
        assert_eq!(
            verdict(vec![mulk, ne, Insn::RetVoid], vec![Value::Int(3)], 3),
            "scalar: guard"
        );
        // `r1 = r1 * 3 + r1`: a recurrence of two ops.
        let add = Insn::Arith {
            op: ArithOp::Add,
            dst: 1,
            a: 1,
            b: 1,
        };
        assert_eq!(
            verdict(
                vec![mulk, add, back_edge(2, 0, 0), Insn::RetVoid],
                vec![Value::Int(3)],
                3
            ),
            "scalar: carried-scalar"
        );
        // `h[key[i]] += 1`: the histogram, a gathered update.
        let key = Insn::Index {
            dst: 3,
            arr: 1,
            idx: 2,
        };
        let bump = Insn::IncElemK {
            op: ArithOp::Add,
            arr: 4,
            idx: 3,
            k: 0,
        };
        assert_eq!(
            verdict(
                vec![key, bump, back_edge(2, 0, 0), Insn::RetVoid],
                vec![Value::Int(1)],
                5
            ),
            "strip"
        );
        // `y[i] = 1; h[key[i]] += 1`: the update's load could fail after
        // the store, so no template takes the loop at all.
        let one = Insn::Const { dst: 5, k: 0 };
        let fill = Insn::IndexSet {
            arr: 6,
            idx: 2,
            src: 5,
        };
        let code = vec![one, fill, key, bump, back_edge(2, 0, 0), Insn::RetVoid];
        let f = mk(code, vec![Value::Int(1)], 7);
        assert_eq!(
            match_at(&f, 0).err().as_deref(),
            Some("fallible-after-store")
        );
        // `a[i + 1] = a[i]`: a store past the induction variable.
        assert_eq!(
            verdict(
                vec![
                    key,
                    Insn::ArithK {
                        op: ArithOp::Add,
                        dst: 4,
                        a: 2,
                        k: 0
                    },
                    Insn::IndexSet {
                        arr: 1,
                        idx: 4,
                        src: 3
                    },
                    back_edge(2, 0, 0),
                    Insn::RetVoid
                ],
                vec![Value::Int(1)],
                5
            ),
            "scalar: non-affine-store"
        );
        // `a[i] = a[i - 1]`: a value flows through memory.
        assert_eq!(
            verdict(
                vec![
                    Insn::IndexOff {
                        dst: 3,
                        arr: 1,
                        idx: 2,
                        off: -1
                    },
                    Insn::IndexSet {
                        arr: 1,
                        idx: 2,
                        src: 3
                    },
                    back_edge(2, 0, 0),
                    Insn::RetVoid
                ],
                vec![],
                4
            ),
            "scalar: memory-dependence"
        );
        // `r3 = a[i]`, then 16 x `r3 = r3 + r(5+n)`: 17 float definitions
        // and 16 broadcast invariants.
        let mut code = vec![Insn::Index {
            dst: 3,
            arr: 1,
            idx: 2,
        }];
        code.extend((5..21).map(|b| Insn::Arith {
            op: ArithOp::Add,
            dst: 3,
            a: 3,
            b,
        }));
        code.extend([back_edge(2, 0, 0), Insn::RetVoid]);
        assert_eq!(verdict(code, vec![], 21), "scalar: columns");
    }

    /// The same array bound as source and destination takes the scalar
    /// chain at run time and so still sees its own stores.
    #[test]
    fn aliased_store_runs_the_scalar_chain() {
        let f = stencil_fn();
        let (prog, _) = match_at(&f, 0).expect("should match");
        let n = 2 * STRIP;
        let (u, twin) = (ramp(n), ramp(n));
        let mut regs = stencil_regs(&u, &u, 1, n as i64 - 1);
        assert!(run_inner(&prog, &mut regs).is_ok());
        let mut expect = twin.to_vec();
        for i in 1..n - 1 {
            expect[i] = 0.25 * expect[i - 1] + 0.5 * expect[i] + 0.25 * expect[i + 1];
        }
        assert_eq!(u.to_vec(), expect);
    }

    /// An op's row rides in padding: naming its function costs no space.
    #[test]
    fn op_row_fits_in_padding() {
        assert_eq!(std::mem::size_of::<TOp>(), 48);
        assert_eq!(op_name(NOP.row), "mov_i");
        assert_eq!(format!("{:?}", StripWalk::of(SEL + 1)), "sel_f.strip");
    }

    /// Trip counts: do-while runs once even when the test is already
    /// false; wrapping loops are left to the scalar chain.
    #[test]
    fn trip_count_matches_the_loop_semantics() {
        use CmpOp::*;
        assert_eq!(trip_count(0, 10, 1, Lt), Some(10));
        assert_eq!(trip_count(0, 10, 3, Lt), Some(4));
        assert_eq!(trip_count(0, 9, 3, Le), Some(4));
        assert_eq!(trip_count(10, 10, 1, Lt), Some(1));
        assert_eq!(trip_count(96, -1, -1, Gt), Some(97));
        assert_eq!(trip_count(96, 0, -2, Ge), Some(49));
        assert_eq!(trip_count(i64::MAX - 1, i64::MAX, 2, Le), None);
        assert_eq!(trip_count(i64::MIN, i64::MAX, 1, Lt), Some(u64::MAX));
        // A step that does not head for the limit has no count.
        assert_eq!(trip_count(0, 10, 0, Lt), None);
        assert_eq!(trip_count(10, 0, 0, Ge), None);
        assert_eq!(trip_count(0, 10, -1, Lt), None);
        assert_eq!(trip_count(10, 0, 1, Gt), None);
        assert_eq!(trip_count(0, 10, 1, Ne), None);
    }

    /// Every program the repository ships: `examples/zag/` and the
    /// integration fixtures.
    fn shipped_programs() -> Vec<(String, String)> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut dirs = vec![root.join("examples/zag")];
        let fixtures = std::fs::read_dir(root.join("crates/integration/fixtures")).unwrap();
        dirs.extend(fixtures.map(|d| d.unwrap().path()));
        let mut out = Vec::new();
        for dir in dirs {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|e| e == "zag") {
                    let src = std::fs::read_to_string(&path).unwrap();
                    out.push((path.display().to_string(), src));
                }
            }
        }
        out
    }

    /// The exactness argument of [`loop_heads`], on every shipped program
    /// and a loop the compiler leaves on the general path (its limit
    /// reads memory, so its back-edge is an `IncJump`): on the image as
    /// [`install_fn`] sees it (the fixed kernels already in), no pc that
    /// no `IncCmpJump` targets matches a template, no `IncJump` target is
    /// a loop head, some loop matches, and the general-path one does not.
    #[test]
    fn templates_match_only_at_loop_heads() {
        let general = "fn bump(a: []f64, n: []i64) void {\n\
                       var i: i64 = 0;\n\
                       while (i < n[0]) : (i += 1) { a[i] = a[i] + 1.0; }\n}\n";
        let mut programs = shipped_programs();
        programs.push(("general path".to_string(), general.to_string()));
        let (mut matched, mut inc_jumps) = (0, 0);
        for (path, src) in programs {
            // Programs the front end refuses (the deep-nesting fault)
            // never reach the installer.
            let Ok(pre) = zomp_front::preprocess(&src) else {
                continue;
            };
            let ast = zomp_front::parse(&pre).unwrap();
            let mut image = crate::compile::compile_image(&ast);
            let mut data = crate::compile::PassData::default();
            for pass in crate::compile::PASSES
                .iter()
                .take_while(|p| p.name != "install")
            {
                (pass.run)(&mut image, &mut data);
            }
            crate::kernels::install_kernels(&mut image);
            for f in &image.funcs {
                let heads = loop_heads(&f.code);
                for insn in &f.code {
                    if let Insn::IncJump { to, .. } = *insn {
                        assert!(!heads[to as usize], "{path}: fn `{}`: pc {to}", f.name);
                        inc_jumps += (f.name == "bump") as usize;
                    }
                }
                for (pc, head) in heads.into_iter().enumerate() {
                    if match_at(f, pc).is_err() {
                        continue;
                    }
                    assert!(head, "{path}: fn `{}` matched at pc {pc}", f.name);
                    assert_ne!(f.name, "bump", "the general-path loop matched");
                    matched += 1;
                }
            }
        }
        assert!(
            matched > 0 && inc_jumps == 1,
            "{matched} matches, {inc_jumps} IncJump"
        );
    }
}
