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
//! variant gets; the `template-installed` remark reports the verdict.
//!
//! Two loop forms are recognised, matching what the compiler emits
//! for `while` loops after optimization:
//!
//! * Form A (do-while): straight-line body ending in an
//!   [`Insn::IncCmpJump`] whose target is the loop head.
//! * Form B (head-guarded): optional straight-line head,
//!   [`Insn::CmpJumpFalse`] to the loop exit, straight-line body,
//!   [`Insn::IncJump`] back to the head.
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
//!   locations the partial iteration already wrote).
//! - Float expression shapes are preserved exactly (separate
//!   mul-then-add for the fma-fused forms), so results stay
//!   bit-identical to interpretation.
//! - Loads and stores execute in interpreter order within an
//!   iteration, so aliasing arrays behave exactly as interpreted.

use std::cell::{RefCell, UnsafeCell};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::bytecode::{ArithOp, CmpOp, CompiledFn, Insn, Reg};
use crate::value::{ArrF, ArrI, Value};

/// Scalar slots per kind in a template frame.
pub const NSLOT: usize = 32;
/// Array slots per element kind in a template frame.
pub const NARR: usize = 6;
/// Longest loop (source instructions, head through back-edge) the
/// matcher will decode.
const MAX_INSNS: usize = 24;
/// Iterations a strip-mined variant runs per op. Per-element cost is
/// flat from 64 to 512; 128 keeps a ten-column loop inside 10 KB of L1.
const STRIP: usize = 128;
/// Most columns per kind a strip plan may use (bounds the per-thread
/// scratch at `2 * MAX_COLS * STRIP * 8` bytes).
const MAX_COLS: usize = 32;
/// Int column 0 is the induction variable's iota.
const IOTA: u16 = 0;
/// Strip operand tag: not a column but the loop-carried accumulator in
/// scalar frame slot `operand & !ACC`.
const ACC: u16 = 0x8000;

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
pub struct TProg {
    /// Candidate monomorphizations, tried in order at entry. More
    /// than one only when the loop's types could not be pinned
    /// statically (see module docs).
    pub variants: Vec<TVariant>,
    /// Induction register (for trace spans: native iterations are the
    /// before/after delta of this register).
    pub ind: Reg,
    /// Source instructions covered (head through back-edge), for
    /// remarks and disassembly.
    pub ninsns: usize,
}

/// The loop control shape of a variant. Fields index frame slots,
/// not registers.
#[derive(Clone, Copy)]
pub enum Shape {
    /// Body then `IncCmpJump`: run ops, bump induction, test.
    DoWhile {
        ind: u16,
        step: i64,
        lim: u16,
        cmp: CmpOp,
    },
    /// Head ops, guard test, body ops, `IncJump`: `nhead` splits
    /// `ops`; the guard compares slots `ga`/`gb` (`gflt` selects the
    /// float file).
    HeadGuard {
        ind: u16,
        step: i64,
        nhead: u16,
        ga: u16,
        gb: u16,
        gflt: bool,
        cmp: CmpOp,
    },
}

/// Entry bind: type-check a register and load it into the frame.
/// Any mismatch rejects the variant before any side effect.
#[derive(Clone, Copy)]
pub enum Bind {
    Int { reg: Reg, slot: u16 },
    Flt { reg: Reg, slot: u16 },
    ArrI { reg: Reg, slot: u16 },
    ArrF { reg: Reg, slot: u16 },
    CellI { reg: Reg, slot: u16 },
    CellF { reg: Reg, slot: u16 },
}

/// Exit write-back: box a frame slot back into a register.
#[derive(Clone, Copy)]
pub enum Out {
    Int { reg: Reg, slot: u16 },
    Flt { reg: Reg, slot: u16 },
}

/// One monomorphized template variant.
pub struct TVariant {
    pub binds: Vec<Bind>,
    /// Loop-invariant constant loads, run once after a successful
    /// bind: a `Const` no other op overwrites reloads the same value
    /// every iteration, so it executes here instead of in the loop
    /// (its slot still feeds the exit write-back).
    pub prelude: Vec<TOp>,
    pub ops: Vec<TOp>,
    pub shape: Shape,
    /// Written registers boxed back on every normal exit.
    pub outs: Vec<Out>,
    /// Written registers boxed back only when at least one full body
    /// execution happened (Form B regs defined only inside the
    /// guarded body: after zero iterations their slots hold garbage
    /// and the interpreter would not have touched them either).
    pub outs_body: Vec<Out>,
    /// Bound-and-written registers boxed back on a bail, after
    /// restoring their start-of-iteration snapshot, so the
    /// interpreter replays the failing iteration from exact state.
    pub bail_outs: Vec<Out>,
    /// Slots snapshotted at the top of each iteration when any op is
    /// fallible: `(float?, slot)`.
    pub snap: Vec<(bool, u16)>,
    pub fallible: bool,
    /// `ai`/`af` frame slots the variant stores into (seqlock write
    /// fences open for the whole run, as the kernels do).
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
/// at a second index.
pub struct StripPlan {
    /// The variant's protos lowered one by one (unfused) with column
    /// operands: every definition gets a fresh column, so a
    /// destination is always numbered above its sources.
    ops: Vec<(StripFn, TOp)>,
    /// Columns used per kind.
    ni: usize,
    nf: usize,
    /// Loop-invariant scalars broadcast into columns on entry:
    /// `(float?, slot, column)`.
    bcast: Vec<(bool, u16, u16)>,
    /// Some op reads the induction variable as a value (affine
    /// loads/stores do not): fill [`IOTA`] every strip.
    iota: bool,
    /// Written slots and the column of their last definition, copied
    /// back from the final lane on normal exit.
    last: Vec<(bool, u16, u16)>,
}

/// One template op: a monomorphized function over the frame plus its
/// pre-resolved operands. `a` is the destination (or target array
/// slot for stores), `b`/`c` are sources, `off` the index offset,
/// `ki`/`kf` an immediate resolved from the constant pool at install
/// time (the pool is frozen after installation).
pub struct TOp {
    pub f: OpFn,
    pub a: u16,
    pub b: u16,
    pub c: u16,
    pub off: i64,
    pub ki: i64,
    pub kf: f64,
}

pub type OpFn = fn(&mut TFrame<'_>, &TOp) -> Result<(), Bail>;

/// The strip form of an op: the same [`TOp`] operand layout, but `a`,
/// `b`, `c` name columns (or carry the [`ACC`] tag) instead of slots.
type StripFn = fn(&mut Strip<'_, '_>, &TOp) -> Result<(), Bail>;

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
    /// The induction variable at lane 0, and its step per lane.
    i0: i64,
    step: i64,
}

/// One kind's columns: a strip's worth of lanes per expanded scalar.
type Cols<T> = Vec<[T; STRIP]>;

thread_local! {
    /// Column scratch, grown to the widest plan this thread has run and
    /// never shrunk or re-zeroed: every column is written (broadcast,
    /// iota or an op's destination) before a strip reads it.
    static COLS: RefCell<(Cols<i64>, Cols<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// An element kind's two files: scalar slots and columns.
trait Lane: Copy {
    fn files<'s>(sf: &'s mut Strip<'_, '_>) -> (&'s mut [Self; NSLOT], &'s mut [[Self; STRIP]]);
}
impl Lane for i64 {
    fn files<'s>(sf: &'s mut Strip<'_, '_>) -> (&'s mut [i64; NSLOT], &'s mut [[i64; STRIP]]) {
        (&mut sf.fr.ints, sf.ci)
    }
}
impl Lane for f64 {
    fn files<'s>(sf: &'s mut Strip<'_, '_>) -> (&'s mut [f64; NSLOT], &'s mut [[f64; STRIP]]) {
        (&mut sf.fr.flts, sf.cf)
    }
}

/// Destination column `d` (its first `n` lanes) and, read-only, the
/// columns numbered below it — where a plan puts every source.
fn split<T>(cols: &mut [[T; STRIP]], d: u16, n: usize) -> (&[[T; STRIP]], &mut [T]) {
    let (lo, hi) = cols.split_at_mut(d as usize);
    (lo, &mut hi[0][..n])
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
    let (file, cols) = T::files(sf);
    if op.a & ACC != 0 {
        let s = (op.a & !ACC) as usize;
        let mut acc = file[s];
        if op.b == op.a {
            for &y in &cols[op.c as usize][..n] {
                acc = e(acc, y)?;
            }
        } else {
            for &x in &cols[op.b as usize][..n] {
                acc = e(x, acc)?;
            }
        }
        file[s] = acc;
        return Ok(());
    }
    let (lo, d) = split(cols, op.a, n);
    let (xs, ys) = (&lo[op.b as usize][..n], &lo[op.c as usize][..n]);
    for k in 0..n {
        d[k] = e(xs[k], ys[k])?;
    }
    Ok(())
}

/// Strip form of `a = b op immediate` (either operand order).
fn strip1<T: Lane>(sf: &mut Strip, op: &TOp, e: impl Fn(T) -> Result<T, Bail>) -> Result<(), Bail> {
    let n = sf.n;
    let (file, cols) = T::files(sf);
    if op.a & ACC != 0 {
        let s = (op.a & !ACC) as usize;
        let mut acc = file[s];
        for _ in 0..n {
            acc = e(acc)?;
        }
        file[s] = acc;
        return Ok(());
    }
    let (lo, d) = split(cols, op.a, n);
    for (d, &x) in d.iter_mut().zip(&lo[op.b as usize][..n]) {
        *d = e(x)?;
    }
    Ok(())
}

impl TProg {
    /// How the loop runs, for the install remark: `strip`, or
    /// `scalar: <the rule that keeps it one iteration at a time>`
    /// (the variants differ only in kinds, never in the verdict).
    pub(crate) fn verdict(&self) -> String {
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
            for b in &v.binds {
                match *b {
                    Bind::Int { reg, .. }
                    | Bind::Flt { reg, .. }
                    | Bind::ArrI { reg, .. }
                    | Bind::ArrF { reg, .. }
                    | Bind::CellI { reg, .. }
                    | Bind::CellF { reg, .. } => f(reg),
                }
            }
            for o in v.outs.iter().chain(&v.outs_body).chain(&v.bail_outs) {
                match *o {
                    Out::Int { reg, .. } | Out::Flt { reg, .. } => f(reg),
                }
            }
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

// Fused multiply-add pairs (see `fuse`): one dispatch for a multiply
// whose product feeds the directly following add. The product slot
// (`off`) is still written, so the pair's architectural effects — and
// therefore the bind/write-back/bail analyses done over the unfused
// protos — are preserved exactly; floats round in two steps, exactly
// as the separate ops would (never a hardware FMA). For `fma_*` the
// `ki` field carries the second multiplicand's *slot*, not an
// immediate; `fmak_*` carry the immediate in `ki`/`kf` as usual.
fn fma_ii(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    let m = fr.ints[op.c as usize].wrapping_mul(fr.ints[op.ki as usize]);
    fr.ints[op.off as usize] = m;
    fr.ints[op.a as usize] = fr.ints[op.b as usize].wrapping_add(m);
    Ok(())
}
fn fma_ff(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    let m = fr.flts[op.c as usize] * fr.flts[op.ki as usize];
    fr.flts[op.off as usize] = m;
    fr.flts[op.a as usize] = fr.flts[op.b as usize] + m;
    Ok(())
}
fn fmak_i(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    let m = fr.ints[op.c as usize].wrapping_mul(op.ki);
    fr.ints[op.off as usize] = m;
    fr.ints[op.a as usize] = fr.ints[op.b as usize].wrapping_add(m);
    Ok(())
}
fn fmak_f(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    let m = fr.flts[op.c as usize] * op.kf;
    fr.flts[op.off as usize] = m;
    fr.flts[op.a as usize] = fr.flts[op.b as usize] + m;
    Ok(())
}

/// `a = b` and `a = immediate` for one kind.
macro_rules! ops_mov {
    ($mov:ident, $konst:ident, $t:ty, $file:ident, $imm:ident) => {
        #[allow(non_upper_case_globals)]
        const $mov: Ops = {
            fn one(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
                fr.$file[op.a as usize] = fr.$file[op.b as usize];
                Ok(())
            }
            fn strip(sf: &mut Strip, op: &TOp) -> Result<(), Bail> {
                let n = sf.n;
                let (lo, d) = split(<$t>::files(sf).1, op.a, n);
                d.copy_from_slice(&lo[op.b as usize][..n]);
                Ok(())
            }
            Ops { one, strip }
        };
        #[allow(non_upper_case_globals)]
        const $konst: Ops = {
            fn one(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
                fr.$file[op.a as usize] = op.$imm;
                Ok(())
            }
            fn strip(sf: &mut Strip, op: &TOp) -> Result<(), Bail> {
                let n = sf.n;
                split(<$t>::files(sf).1, op.a, n).1.fill(op.$imm);
                Ok(())
            }
            Ops { one, strip }
        };
    };
}
ops_mov!(mov_i, const_i, i64, ints, ki);
ops_mov!(mov_f, const_f, f64, flts, kf);

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
/// `None`, the index is the induction variable — a (strided) slice copy.
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
            fn strip($sf: &mut Strip, $op: &TOp) -> Result<(), Bail> {
                let arr = $sf.fr.$arrs[$op.c as usize];
                let at = ($sf.i0, $sf.step, $op.off);
                let (ci, d) = $dst;
                let idx = ($op.b != IOTA).then(|| &ci[$op.b as usize][..d.len()]);
                load_lanes(arr, d, idx, at)
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

fn cmp_i(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}
fn cmp_f(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// Run one template against the current frame. `true` = the loop
/// completed and the written registers were boxed back (jump to
/// `desc.exit`); `false` = deopt (replay `desc.orig` interpreted).
/// Telemetry mirrors the kernel tier: a span per dispatch, native
/// iterations from the induction register's before/after delta, and
/// the machine-readable bail reason on deopt.
pub(crate) fn run(desc: &TemplateDesc, pc: u32, regs: &mut [Value]) -> bool {
    if !zomp::trace::active() {
        return run_inner(&desc.prog, regs).is_ok();
    }
    let t0 = zomp::trace::kernel_begin_ts();
    let ind = desc.prog.ind as usize;
    let before = match regs[ind] {
        Value::Int(v) => v,
        _ => 0,
    };
    let r = run_inner(&desc.prog, regs);
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
    r.is_ok()
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
    // Resolve binds first: scalars into local slot files, arrays into
    // owning Arcs (cells lock once, exactly like the kernels — a racy
    // concurrent rebind of the cell itself is unspecified either way).
    let mut ints = [0i64; NSLOT];
    let mut flts = [0f64; NSLOT];
    let mut arci: [Option<Arc<ArrI>>; NARR] = Default::default();
    let mut arcf: [Option<Arc<ArrF>>; NARR] = Default::default();
    for b in &v.binds {
        match *b {
            Bind::Int { reg, slot } => match regs[reg as usize] {
                Value::Int(x) => ints[slot as usize] = x,
                _ => return VOut::Skip,
            },
            Bind::Flt { reg, slot } => match regs[reg as usize] {
                Value::Float(x) => flts[slot as usize] = x,
                _ => return VOut::Skip,
            },
            Bind::ArrI { reg, slot } => match &regs[reg as usize] {
                Value::ArrI(a) => arci[slot as usize] = Some(a.clone()),
                _ => return VOut::Skip,
            },
            Bind::ArrF { reg, slot } => match &regs[reg as usize] {
                Value::ArrF(a) => arcf[slot as usize] = Some(a.clone()),
                _ => return VOut::Skip,
            },
            Bind::CellI { reg, slot } => match &regs[reg as usize] {
                Value::Ptr(p) => match &*p.lock() {
                    Value::ArrI(a) => arci[slot as usize] = Some(a.clone()),
                    _ => return VOut::Skip,
                },
                _ => return VOut::Skip,
            },
            Bind::CellF { reg, slot } => match &regs[reg as usize] {
                Value::Ptr(p) => match &*p.lock() {
                    Value::ArrF(a) => arcf[slot as usize] = Some(a.clone()),
                    _ => return VOut::Skip,
                },
                _ => return VOut::Skip,
            },
        }
    }
    let mut fr = TFrame {
        ints,
        flts,
        ai: [&[]; NARR],
        af: [&[]; NARR],
    };
    for (k, a) in arci.iter().enumerate() {
        if let Some(a) = a {
            fr.ai[k] = a.cells();
        }
    }
    for (k, a) in arcf.iter().enumerate() {
        if let Some(a) = a {
            fr.af[k] = a.cells();
        }
    }
    // Hoisted loop-invariant constant loads (infallible by
    // construction — `Const` ops cannot bail).
    for op in &v.prelude {
        let _ = (op.f)(&mut fr, op);
    }
    // Seqlock write fences on every array the template stores into,
    // held open for the whole run (see `ArrI::range_hint`).
    let mut bump_i = [false; NARR];
    let mut bump_f = [false; NARR];
    for &s in &v.wf_i {
        bump_i[s as usize] = arci[s as usize].as_ref().unwrap().write_fence_begin();
    }
    for &s in &v.wf_f {
        bump_f[s as usize] = arcf[s as usize].as_ref().unwrap().write_fence_begin();
    }
    // Strip order moves an iteration's store past later iterations'
    // loads, which is only invisible while no other bound array is the
    // stored one under another name.
    let r = match &v.strip {
        Ok(plan) if !stored_alias(&arci, &v.wf_i) && !stored_alias(&arcf, &v.wf_f) => {
            exec_strip(v, plan, &mut fr)
        }
        _ => exec(v, &mut fr),
    };
    for &s in &v.wf_i {
        arci[s as usize]
            .as_ref()
            .unwrap()
            .write_fence_end(bump_i[s as usize]);
    }
    for &s in &v.wf_f {
        arcf[s as usize]
            .as_ref()
            .unwrap()
            .write_fence_end(bump_f[s as usize]);
    }
    match r {
        Ok(ran_body) => {
            for o in &v.outs {
                box_out(o, &fr, regs);
            }
            if ran_body {
                for o in &v.outs_body {
                    box_out(o, &fr, regs);
                }
            }
            VOut::Done
        }
        Err(b) => {
            for o in &v.bail_outs {
                box_out(o, &fr, regs);
            }
            VOut::Bail(b)
        }
    }
}

fn box_out(o: &Out, fr: &TFrame, regs: &mut [Value]) {
    match *o {
        Out::Int { reg, slot } => regs[reg as usize] = Value::Int(fr.ints[slot as usize]),
        Out::Flt { reg, slot } => regs[reg as usize] = Value::Float(fr.flts[slot as usize]),
    }
}

/// Whether an array the variant stores into is also bound in another
/// slot of its kind.
fn stored_alias<T>(arcs: &[Option<Arc<T>>; NARR], stored: &[u16]) -> bool {
    stored.iter().any(|&s| {
        let target = arcs[s as usize].as_ref().unwrap();
        arcs.iter()
            .enumerate()
            .any(|(k, a)| k != s as usize && a.as_ref().is_some_and(|a| Arc::ptr_eq(a, target)))
    })
}

/// Iterations the loop runs from `i0`, or `None` when the induction
/// variable would wrap on the way (the scalar chain owns wrapping
/// loops). `first`: a do-while, whose first body runs before any test.
/// The plan guarantees `cmp` and the sign of `step` agree.
fn trip_count(i0: i64, lim: i64, step: i64, cmp: CmpOp, first: bool) -> Option<u64> {
    let start = i0 as i128 + if first { step as i128 } else { 0 };
    // Distance left to cover in the direction of travel.
    let dist = match cmp {
        CmpOp::Lt => lim as i128 - start,
        CmpOp::Le => lim as i128 - start + 1,
        CmpOp::Gt => start - lim as i128,
        CmpOp::Ge => start - lim as i128 + 1,
        CmpOp::Eq | CmpOp::Ne => return None,
    };
    let stride = step.unsigned_abs() as i128;
    let trip = first as i128 + (dist.max(0) + stride - 1) / stride;
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
/// has.
fn exec_strip(v: &TVariant, plan: &StripPlan, fr: &mut TFrame) -> Result<bool, Bail> {
    let (ind, step, lim, cmp, first) = match v.shape {
        Shape::DoWhile {
            ind,
            step,
            lim,
            cmp,
        } => (ind as usize, step, lim, cmp, true),
        Shape::HeadGuard {
            ind, step, gb, cmp, ..
        } => (ind as usize, step, gb, cmp, false),
    };
    let Some(trip) = trip_count(fr.ints[ind], fr.ints[lim as usize], step, cmp, first) else {
        return exec(v, fr);
    };
    COLS.with(|cols| {
        let (ci, cf) = &mut *cols.borrow_mut();
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
        let mut sf = Strip {
            fr,
            ci,
            cf,
            n: 0,
            i0: 0,
            step,
        };
        let mut left = trip;
        while left > 0 {
            sf.n = left.min(STRIP as u64) as usize;
            sf.i0 = sf.fr.ints[ind];
            if plan.iota {
                for (k, x) in sf.ci[IOTA as usize][..sf.n].iter_mut().enumerate() {
                    *x = sf.i0 + k as i64 * step;
                }
            }
            // Accumulators fold into their scalar slots as the strip
            // runs; a later op's failed check needs them back.
            let start = (sf.fr.ints, sf.fr.flts);
            for (f, op) in &plan.ops {
                if f(&mut sf, op).is_err() {
                    (sf.fr.ints, sf.fr.flts) = start;
                    return exec(v, sf.fr).map(|ran| ran || left < trip);
                }
            }
            sf.fr.ints[ind] = sf.i0 + sf.n as i64 * step;
            left -= sf.n as u64;
        }
        if trip > 0 {
            for &(flt, s, c) in &plan.last {
                if flt {
                    sf.fr.flts[s as usize] = sf.cf[c as usize][sf.n - 1];
                } else {
                    sf.fr.ints[s as usize] = sf.ci[c as usize][sf.n - 1];
                }
            }
        }
        Ok(trip > 0)
    })
}

/// Execute the variant's loop. `Ok(ran_body)` on normal exit (whether
/// at least one full guarded-body execution happened); `Err` after
/// restoring the iteration snapshot on a mid-iteration failure.
fn exec(v: &TVariant, fr: &mut TFrame) -> Result<bool, Bail> {
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
    match v.shape {
        Shape::DoWhile {
            ind,
            step,
            lim,
            cmp,
        } => {
            let (ind, lim) = (ind as usize, lim as usize);
            loop {
                if v.fallible {
                    snap(fr, &mut si, &mut sf);
                }
                for op in &v.ops {
                    if let Err(b) = (op.f)(fr, op) {
                        restore(fr, &si, &sf);
                        return Err(b);
                    }
                }
                let next = fr.ints[ind].wrapping_add(step);
                fr.ints[ind] = next;
                if !cmp_i(cmp, next, fr.ints[lim]) {
                    return Ok(true);
                }
            }
        }
        Shape::HeadGuard {
            ind,
            step,
            nhead,
            ga,
            gb,
            gflt,
            cmp,
        } => {
            let (ind, nhead) = (ind as usize, nhead as usize);
            let (ga, gb) = (ga as usize, gb as usize);
            let mut ran_body = false;
            loop {
                if v.fallible {
                    snap(fr, &mut si, &mut sf);
                }
                for op in &v.ops[..nhead] {
                    if let Err(b) = (op.f)(fr, op) {
                        restore(fr, &si, &sf);
                        return Err(b);
                    }
                }
                let taken = if gflt {
                    cmp_f(cmp, fr.flts[ga], fr.flts[gb])
                } else {
                    cmp_i(cmp, fr.ints[ga], fr.ints[gb])
                };
                if !taken {
                    return Ok(ran_body);
                }
                for op in &v.ops[nhead..] {
                    if let Err(b) = (op.f)(fr, op) {
                        restore(fr, &si, &sf);
                        return Err(b);
                    }
                }
                fr.ints[ind] = fr.ints[ind].wrapping_add(step);
                ran_body = true;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Matching: decode + type inference
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum K {
    Unk,
    Int,
    Flt,
}

/// Union-find over type variables with a kind per class.
struct Uf {
    parent: Vec<u32>,
    kind: Vec<K>,
}

impl Uf {
    fn new() -> Uf {
        Uf {
            parent: Vec::new(),
            kind: Vec::new(),
        }
    }
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
#[derive(Clone, Copy)]
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
}

impl P {
    fn reads(&self, mut f: impl FnMut(u32)) {
        match *self {
            P::Mov { s, .. } => f(s),
            P::Const { .. } => {}
            P::Bin { a, b, .. } => {
                f(a);
                f(b);
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
            | P::Ld { d, .. } => *d = key,
            P::St { .. } => {}
        }
        self
    }
    fn write(&self) -> Option<u32> {
        match *self {
            P::Mov { d, .. }
            | P::Const { d, .. }
            | P::Bin { d, .. }
            | P::BinK { d, .. }
            | P::Ld { d, .. } => Some(d),
            P::St { .. } => None,
        }
    }
}

/// Array operand info: cell-ness (bound through a `Ptr` slot or held
/// directly), the element kind variable, and whether the template
/// stores through it.
struct AInfo {
    cell: bool,
    elem: u32,
    written: bool,
}

/// The in-progress decode of one loop.
struct Bld<'f> {
    f: &'f CompiledFn,
    uf: Uf,
    svar: HashMap<u32, u32>,
    sorder: Vec<u32>,
    scalar_regs: HashSet<Reg>,
    arrs: HashMap<Reg, AInfo>,
    aorder: Vec<Reg>,
    protos: Vec<P>,
    nscratch: u32,
}

impl<'f> Bld<'f> {
    fn new(f: &'f CompiledFn) -> Bld<'f> {
        Bld {
            f,
            uf: Uf::new(),
            svar: HashMap::new(),
            sorder: Vec::new(),
            scalar_regs: HashSet::new(),
            arrs: HashMap::new(),
            aorder: Vec::new(),
            protos: Vec::new(),
            nscratch: 0,
        }
    }

    /// Register `r` as a scalar operand; `None` if it was already
    /// used as an array operand (a register serving both roles is a
    /// shape the template cannot bind).
    fn sv(&mut self, r: Reg) -> Option<u32> {
        if self.arrs.contains_key(&r) {
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
    /// returns its element kind variable.
    fn av(&mut self, r: Reg, cell: bool) -> Option<u32> {
        if self.scalar_regs.contains(&r) {
            return None;
        }
        if let Some(info) = self.arrs.get(&r) {
            if info.cell != cell {
                return None;
            }
            return Some(info.elem);
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
        Some(elem)
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
        match self.f.consts.get(k as usize)? {
            Value::Int(v) => Some(KVal::I(*v)),
            Value::Float(v) => Some(KVal::F(*v)),
            _ => None,
        }
    }

    /// Decode one body instruction into proto-ops with constraints.
    /// `false` = unsupported instruction or type conflict: the loop
    /// stays interpreted.
    fn decode(&mut self, insn: &Insn) -> bool {
        macro_rules! t {
            ($e:expr) => {
                match $e {
                    Some(v) => v,
                    None => return false,
                }
            };
        }
        macro_rules! c {
            ($e:expr) => {
                if !$e {
                    return false;
                }
            };
        }
        match *insn {
            Insn::Const { dst, k } => {
                let v = t!(self.kc(k));
                let d = t!(self.sv(dst));
                c!(self.setk(d, v.k()));
                self.protos.push(P::Const { d, v });
            }
            Insn::Move { dst, src } => {
                let d = t!(self.sv(dst));
                let s = t!(self.sv(src));
                c!(self.uni(d, s));
                self.protos.push(P::Mov { d, s });
            }
            Insn::Arith { op, dst, a, b } => {
                let d = t!(self.sv(dst));
                let ra = t!(self.sv(a));
                let rb = t!(self.sv(b));
                c!(self.uni(d, ra));
                c!(self.uni(d, rb));
                self.protos.push(P::Bin {
                    op,
                    d,
                    a: ra,
                    b: rb,
                });
            }
            Insn::ArithK { op, dst, a, k } => {
                let v = t!(self.kc(k));
                let d = t!(self.sv(dst));
                let ra = t!(self.sv(a));
                c!(self.uni(d, ra));
                c!(self.setk(d, v.k()));
                self.protos.push(P::BinK {
                    op,
                    d,
                    a: ra,
                    v,
                    left: false,
                });
            }
            Insn::ArithKL { op, dst, k, b } => {
                let v = t!(self.kc(k));
                let d = t!(self.sv(dst));
                let rb = t!(self.sv(b));
                c!(self.uni(d, rb));
                c!(self.setk(d, v.k()));
                self.protos.push(P::BinK {
                    op,
                    d,
                    a: rb,
                    v,
                    left: true,
                });
            }
            Insn::Index { dst, arr, idx } => {
                let elem = t!(self.av(arr, false));
                let d = t!(self.sv(dst));
                let i = t!(self.sv(idx));
                c!(self.setk(i, K::Int));
                c!(self.uni_v(d, elem));
                self.protos.push(P::Ld {
                    d,
                    arr,
                    idx: i,
                    off: 0,
                });
            }
            Insn::IndexOff { dst, arr, idx, off } => {
                let elem = t!(self.av(arr, false));
                let d = t!(self.sv(dst));
                let i = t!(self.sv(idx));
                c!(self.setk(i, K::Int));
                c!(self.uni_v(d, elem));
                self.protos.push(P::Ld {
                    d,
                    arr,
                    idx: i,
                    off,
                });
            }
            Insn::DerefIndex { dst, cell, idx } => {
                let elem = t!(self.av(cell, true));
                let d = t!(self.sv(dst));
                let i = t!(self.sv(idx));
                c!(self.setk(i, K::Int));
                c!(self.uni_v(d, elem));
                self.protos.push(P::Ld {
                    d,
                    arr: cell,
                    idx: i,
                    off: 0,
                });
            }
            Insn::DerefIndexOff {
                dst,
                cell,
                idx,
                off,
            } => {
                let elem = t!(self.av(cell, true));
                let d = t!(self.sv(dst));
                let i = t!(self.sv(idx));
                c!(self.setk(i, K::Int));
                c!(self.uni_v(d, elem));
                self.protos.push(P::Ld {
                    d,
                    arr: cell,
                    idx: i,
                    off,
                });
            }
            Insn::IndexSet { arr, idx, src } => {
                let elem = t!(self.av(arr, false));
                let i = t!(self.sv(idx));
                let s = t!(self.sv(src));
                c!(self.setk(i, K::Int));
                c!(self.uni_v(s, elem));
                self.arrs.get_mut(&arr).unwrap().written = true;
                self.protos.push(P::St { arr, idx: i, s });
            }
            Insn::DerefIndexSet { cell, idx, src } => {
                let elem = t!(self.av(cell, true));
                let i = t!(self.sv(idx));
                let s = t!(self.sv(src));
                c!(self.setk(i, K::Int));
                c!(self.uni_v(s, elem));
                self.arrs.get_mut(&cell).unwrap().written = true;
                self.protos.push(P::St {
                    arr: cell,
                    idx: i,
                    s,
                });
            }
            Insn::IncElemK { op, arr, idx, k } => {
                // arr[idx] = arr[idx] op k, load → arith → store.
                let v = t!(self.kc(k));
                let elem = t!(self.av(arr, false));
                let i = t!(self.sv(idx));
                c!(self.setk(i, K::Int));
                let tmp = self.scratch();
                c!(self.uni_v(tmp, elem));
                c!(self.setk(tmp, v.k()));
                self.protos.push(P::Ld {
                    d: tmp,
                    arr,
                    idx: i,
                    off: 0,
                });
                self.protos.push(P::BinK {
                    op,
                    d: tmp,
                    a: tmp,
                    v,
                    left: false,
                });
                self.arrs.get_mut(&arr).unwrap().written = true;
                self.protos.push(P::St {
                    arr,
                    idx: i,
                    s: tmp,
                });
            }
            Insn::FmaIdx { dst, x, arr, idx } => {
                // dst = dst + x * arr[idx]; separate mul-then-add
                // keeps results bit-identical to the unfused pair.
                let elem = t!(self.av(arr, false));
                c!(self.fma_tail(dst, x, elem, arr, idx));
            }
            _ => return false,
        }
        true
    }

    /// The `FmaIdx` body: `tmp = arr[idx]; tmp2 = x * tmp; dst = dst +
    /// tmp2`.
    fn fma_tail(&mut self, dst: Reg, x: Reg, elem: u32, arr: Reg, idx: Reg) -> bool {
        let Some(d) = self.sv(dst) else { return false };
        let Some(rx) = self.sv(x) else { return false };
        let Some(i) = self.sv(idx) else { return false };
        if !self.setk(i, K::Int) {
            return false;
        }
        let tmp = self.scratch();
        let tmp2 = self.scratch();
        if !self.uni_v(tmp, elem)
            || !self.uni(tmp2, rx)
            || !self.uni(tmp2, tmp)
            || !self.uni(d, tmp2)
        {
            return false;
        }
        self.protos.push(P::Ld {
            d: tmp,
            arr,
            idx: i,
            off: 0,
        });
        self.protos.push(P::Bin {
            op: ArithOp::Mul,
            d: tmp2,
            a: rx,
            b: tmp,
        });
        self.protos.push(P::Bin {
            op: ArithOp::Add,
            d,
            a: d,
            b: tmp2,
        });
        true
    }
}

/// Loop control metadata from the structural match, pre-slot-assignment.
enum FormMeta {
    A {
        var: Reg,
        step: i64,
        lim: Reg,
        cmp: CmpOp,
    },
    B {
        var: Reg,
        step: i64,
        nhead: usize,
        ga: Reg,
        gb: Reg,
        cmp: CmpOp,
    },
}

struct MatchOut {
    form: FormMeta,
    ninsns: usize,
}

/// Match a template loop headed at `pc`; `None` leaves the loop alone.
/// Only a back-edge target can match (see [`loop_heads`]).
pub(crate) fn match_at(f: &CompiledFn, pc: usize) -> Option<(TProg, u32)> {
    if let Some(r) = match_form_a(f, pc) {
        return Some(r);
    }
    match_form_b(f, pc)
}

/// Form A: `pc: body...; IncCmpJump -> pc`.
fn match_form_a(f: &CompiledFn, pc: usize) -> Option<(TProg, u32)> {
    let n = f.code.len();
    let mut b = Bld::new(f);
    let mut j = pc;
    loop {
        if j >= n || j - pc >= MAX_INSNS {
            return None;
        }
        if let Insn::IncCmpJump {
            var,
            step,
            limit,
            op,
            to,
        } = f.code[j]
        {
            if to as usize != pc {
                return None;
            }
            let exit = j + 1;
            if exit >= n {
                return None;
            }
            let kv = b.sv(var)?;
            if !b.setk(kv, K::Int) {
                return None;
            }
            let kl = b.sv(limit)?;
            if !b.setk(kl, K::Int) {
                return None;
            }
            let m = MatchOut {
                form: FormMeta::A {
                    var,
                    step: step as i64,
                    lim: limit,
                    cmp: op,
                },
                ninsns: j + 1 - pc,
            };
            let prog = emit(b, m)?;
            return Some((prog, exit as u32));
        }
        if !b.decode(&f.code[j]) {
            return None;
        }
        j += 1;
    }
}

/// Form B: `pc: head...; CmpJumpFalse -> exit; body...; IncJump -> pc`.
fn match_form_b(f: &CompiledFn, pc: usize) -> Option<(TProg, u32)> {
    let n = f.code.len();
    let mut b = Bld::new(f);
    let mut j = pc;
    let (ga, gb, gcmp, exit) = loop {
        if j >= n || j - pc >= MAX_INSNS {
            return None;
        }
        match f.code[j] {
            Insn::CmpJumpFalse { op, a, b: rb, to } => break (a, rb, op, to),
            ref insn => {
                if !b.decode(insn) {
                    return None;
                }
                j += 1;
            }
        }
    };
    let ka = b.sv(ga)?;
    let kb = b.sv(gb)?;
    if !b.uni(ka, kb) {
        return None;
    }
    let nhead = b.protos.len();
    j += 1;
    loop {
        if j >= n || j - pc >= MAX_INSNS {
            return None;
        }
        if let Insn::IncJump { var, step, to } = f.code[j] {
            if to as usize != pc {
                return None;
            }
            // The guard must jump forward past the back-edge (the
            // loop exit); anything else is not a single-block loop.
            if exit as usize <= j || exit as usize >= n {
                return None;
            }
            let kv = b.sv(var)?;
            if !b.setk(kv, K::Int) {
                return None;
            }
            let m = MatchOut {
                form: FormMeta::B {
                    var,
                    step: step as i64,
                    nhead,
                    ga,
                    gb,
                    cmp: gcmp,
                },
                ninsns: j + 1 - pc,
            };
            let prog = emit(b, m)?;
            return Some((prog, exit));
        }
        if !b.decode(&f.code[j]) {
            return None;
        }
        j += 1;
    }
}

// ---------------------------------------------------------------------------
// Emission: kinds → slots → ops
// ---------------------------------------------------------------------------

fn emit(mut b: Bld, m: MatchOut) -> Option<TProg> {
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
    for &unk in resolutions {
        if let Some(v) = emit_one(&mut b, &m, unk) {
            variants.push(v);
        }
    }
    if variants.is_empty() {
        return None;
    }
    let ind = match m.form {
        FormMeta::A { var, .. } | FormMeta::B { var, .. } => var,
    };
    Some(TProg {
        variants,
        ind,
        ninsns: m.ninsns,
    })
}

fn emit_one(b: &mut Bld, m: &MatchOut, unk: K) -> Option<TVariant> {
    // Kind per scalar key / array under this resolution.
    let mut skind: HashMap<u32, K> = HashMap::new();
    for &key in &b.sorder.clone() {
        let v = b.svar[&key];
        let k = match b.uf.kind(v) {
            K::Unk => unk,
            k => k,
        };
        skind.insert(key, k);
    }
    let mut akind: HashMap<Reg, K> = HashMap::new();
    for r in b.aorder.clone() {
        let v = b.arrs[&r].elem;
        let k = match b.uf.kind(v) {
            K::Unk => unk,
            k => k,
        };
        akind.insert(r, k);
    }
    // Slot assignment, in first-use order.
    let mut slot: HashMap<u32, u16> = HashMap::new();
    let (mut ni, mut nf) = (0u16, 0u16);
    for &key in &b.sorder {
        let s = match skind[&key] {
            K::Int => {
                ni += 1;
                ni - 1
            }
            _ => {
                nf += 1;
                nf - 1
            }
        };
        slot.insert(key, s);
    }
    if ni as usize > NSLOT || nf as usize > NSLOT {
        return None;
    }
    let mut aslot: HashMap<Reg, u16> = HashMap::new();
    let (mut nai, mut naf) = (0u16, 0u16);
    for &r in &b.aorder {
        let s = match akind[&r] {
            K::Int => {
                nai += 1;
                nai - 1
            }
            _ => {
                naf += 1;
                naf - 1
            }
        };
        aslot.insert(r, s);
    }
    if nai as usize > NARR || naf as usize > NARR {
        return None;
    }
    // First-iteration read-before-write analysis over the execution
    // order decides which registers must be bound at entry.
    let mut written: HashSet<u32> = HashSet::new();
    let mut bound: HashSet<u32> = HashSet::new();
    let mut head_written: HashSet<u32> = HashSet::new();
    {
        let read = |key: u32, written: &HashSet<u32>, bound: &mut HashSet<u32>| {
            if key < SCRATCH0 && !written.contains(&key) {
                bound.insert(key);
            }
        };
        let (nhead, tail_reads): (usize, Vec<u32>) = match m.form {
            FormMeta::A { var, lim, .. } => (b.protos.len(), vec![var as u32, lim as u32]),
            FormMeta::B {
                var, nhead, ga, gb, ..
            } => {
                // Guard reads run between head and body.
                let _ = (ga, gb);
                (nhead, vec![var as u32])
            }
        };
        for (i, p) in b.protos.iter().enumerate() {
            if i == nhead {
                if let FormMeta::B { ga, gb, .. } = m.form {
                    read(ga as u32, &written, &mut bound);
                    read(gb as u32, &written, &mut bound);
                }
            }
            p.reads(|r| read(r, &written, &mut bound));
            if let Some(d) = p.write() {
                written.insert(d);
                if i < nhead {
                    head_written.insert(d);
                }
            }
        }
        if b.protos.len() == nhead {
            if let FormMeta::B { ga, gb, .. } = m.form {
                read(ga as u32, &written, &mut bound);
                read(gb as u32, &written, &mut bound);
            }
        }
        for r in tail_reads {
            read(r, &written, &mut bound);
        }
        let var = match m.form {
            FormMeta::A { var, .. } | FormMeta::B { var, .. } => var,
        };
        written.insert(var as u32);
        if matches!(m.form, FormMeta::A { .. }) {
            // A do-while always completes at least one full body
            // execution before a normal exit.
            head_written = written.iter().copied().collect();
        }
    }
    // Ops. Loop-invariant constants — a `Const` whose slot no other op
    // writes and whose pre-loop value is never read (it is not in
    // `bound`) — hoist into a once-per-run prelude: they reload the
    // same value every iteration, and the slot still holds it for the
    // exit write-back. Everything else stays in iteration order.
    let mut write_count: HashMap<u32, usize> = HashMap::new();
    for p in &b.protos {
        if let Some(d) = p.write() {
            *write_count.entry(d).or_default() += 1;
        }
    }
    let nhead_protos = match m.form {
        FormMeta::B { nhead, .. } => nhead,
        FormMeta::A { .. } => b.protos.len(),
    };
    let hoisted: Vec<bool> = b
        .protos
        .iter()
        .map(|p| {
            matches!(p, P::Const { .. })
                && p.write()
                    .is_some_and(|d| write_count[&d] == 1 && !bound.contains(&d))
        })
        .collect();
    let mut ops = Vec::with_capacity(b.protos.len());
    let mut prelude = Vec::new();
    let mut nhead_hoisted = 0usize;
    let mut nhead_fused = 0usize;
    let mut fallible = false;
    let mut seen_store = false;
    let mut skip = false;
    for (i, p) in b.protos.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        // Multiply + dependent add fuse into one dispatch — but never
        // across the Form B head/guard boundary, where the guard
        // evaluation runs between the two halves.
        if i + 1 != nhead_protos {
            if let Some(fop) = b
                .protos
                .get(i + 1)
                .and_then(|next| fuse(p, next, &skind, &slot))
            {
                ops.push(fop);
                skip = true;
                if i + 1 < nhead_protos {
                    nhead_fused += 1;
                }
                continue;
            }
        }
        let (op, _, op_fallible, is_store) = lower(p, &skind, &akind, &slot, &aslot);
        if hoisted[i] {
            prelude.push(op);
            if i < nhead_protos {
                nhead_hoisted += 1;
            }
            continue;
        }
        // Replay soundness: no fallible op may execute after the
        // first store of an iteration (see module docs). A store's
        // own bounds check fires before it writes, so the first
        // store itself is fine.
        if seen_store && op_fallible {
            return None;
        }
        seen_store |= is_store;
        fallible |= op_fallible;
        ops.push(op);
    }
    // Binds: bound scalars plus every array.
    let mut binds = Vec::new();
    for &key in &b.sorder {
        if key >= SCRATCH0 || !bound.contains(&key) {
            continue;
        }
        let reg = key as Reg;
        let s = slot[&key];
        binds.push(match skind[&key] {
            K::Int => Bind::Int { reg, slot: s },
            _ => Bind::Flt { reg, slot: s },
        });
    }
    for &r in &b.aorder {
        let s = aslot[&r];
        let cell = b.arrs[&r].cell;
        binds.push(match (akind[&r], cell) {
            (K::Int, false) => Bind::ArrI { reg: r, slot: s },
            (K::Int, true) => Bind::CellI { reg: r, slot: s },
            (_, false) => Bind::ArrF { reg: r, slot: s },
            (_, true) => Bind::CellF { reg: r, slot: s },
        });
    }
    // Write-backs.
    let mut outs = Vec::new();
    let mut outs_body = Vec::new();
    let mut bail_outs = Vec::new();
    let mut snap = Vec::new();
    for &key in &b.sorder {
        if key >= SCRATCH0 || !written.contains(&key) {
            continue;
        }
        let reg = key as Reg;
        let s = slot[&key];
        let flt = skind[&key] != K::Int;
        let out = if flt {
            Out::Flt { reg, slot: s }
        } else {
            Out::Int { reg, slot: s }
        };
        if bound.contains(&key) || head_written.contains(&key) {
            outs.push(out);
        } else {
            outs_body.push(out);
        }
        if bound.contains(&key) {
            bail_outs.push(out);
            snap.push((flt, s));
        }
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
    // Shape, with control operands resolved to slots.
    let shape = match m.form {
        FormMeta::A {
            var,
            step,
            lim,
            cmp,
        } => Shape::DoWhile {
            ind: slot[&(var as u32)],
            step,
            lim: slot[&(lim as u32)],
            cmp,
        },
        FormMeta::B {
            var,
            step,
            nhead,
            ga,
            gb,
            cmp,
        } => {
            // nhead counts protos, which map 1:1 onto emitted ops in
            // order (lower() emits exactly one op per proto), minus
            // the head constants hoisted into the prelude and one per
            // mul+add pair fused into a single op.
            Shape::HeadGuard {
                ind: slot[&(var as u32)],
                step,
                nhead: (nhead - nhead_hoisted - nhead_fused) as u16,
                ga: slot[&(ga as u32)],
                gb: slot[&(gb as u32)],
                gflt: skind[&(ga as u32)] != K::Int,
                cmp,
            }
        }
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
    Some(TVariant {
        strip,
        binds,
        prelude,
        ops,
        shape,
        outs,
        outs_body,
        bail_outs,
        snap,
        fallible,
        wf_i,
        wf_f,
    })
}

/// One kind resolution of a loop: the kind and frame slot of every
/// scalar key and array register.
struct Kinds<'m> {
    skind: &'m HashMap<u32, K>,
    akind: &'m HashMap<Reg, K>,
    slot: &'m HashMap<u32, u16>,
    aslot: &'m HashMap<Reg, u16>,
}

/// Placeholder key for the destination of the proto being re-lowered
/// over columns (a key no register or scratch temporary can have).
const DEF: u32 = u32::MAX;

/// Decide whether the loop may run strip-mined, and if so re-lower it
/// over columns. The strip walk distributes the loop over its ops, so
/// it is legal only when no value flows from one iteration to a later
/// one except through a reduction the strip can fold in order:
///
/// - `guard`: the trip count must be computable on entry — a monotone
///   induction test against an unwritten limit, nothing in the head.
/// - `carried-scalar`: a slot read before it is written, and written,
///   must be a single-op accumulator (`a = a ⊕ t`) nothing else reads.
/// - `non-affine-store` / `memory-dependence`: an array the loop
///   stores into is accessed only at the induction variable itself, so
///   each iteration owns one element of it.
/// - `columns`: the expanded scalars must fit the per-thread scratch.
///
/// `Err` carries the first rule broken; that variant keeps the scalar
/// chain.
fn plan_strip(
    b: &Bld,
    m: &MatchOut,
    kinds: &Kinds,
    bound: &HashSet<u32>,
    write_count: &HashMap<u32, usize>,
    hoisted: &[bool],
) -> Result<StripPlan, &'static str> {
    let (var, step, lim, cmp) = match m.form {
        FormMeta::A {
            var,
            step,
            lim,
            cmp,
        } => (var as u32, step, lim as u32, cmp),
        FormMeta::B {
            var,
            step,
            nhead: 0,
            ga,
            gb,
            cmp,
        } if ga == var => (var as u32, step, gb as u32, cmp),
        FormMeta::B { .. } => return Err("guard"),
    };
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
    let mut nreads: HashMap<u32, usize> = HashMap::from([(lim, 1)]);
    for p in &b.protos {
        p.reads(|r| *nreads.entry(r).or_default() += 1);
    }
    // Scalar key -> the column holding its current definition.
    let mut cur: HashMap<u32, u16> = HashMap::from([(var, IOTA)]);
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
    for p in &b.protos {
        if matches!(*p, P::St { idx, .. } if idx != var) {
            return Err("non-affine-store");
        }
    }
    for p in &b.protos {
        if matches!(*p, P::Ld { arr, idx, off, .. } if b.arrs[&arr].written && (idx != var || off != 0))
        {
            return Err("memory-dependence");
        }
    }
    let mut skind = kinds.skind.clone();
    let mut ncols = [1usize, 0];
    let mut fresh = |flt: bool| {
        let n = &mut ncols[flt as usize];
        *n += 1;
        (*n <= MAX_COLS).then_some(*n as u16 - 1).ok_or("columns")
    };
    let mut plan = StripPlan {
        ops: Vec::new(),
        ni: 0,
        nf: 0,
        bcast: Vec::new(),
        iota: false,
        last: Vec::new(),
    };
    let mut defined: HashSet<u32> = HashSet::new();
    for (p, _) in b.protos.iter().zip(hoisted).filter(|(_, &h)| !h) {
        // A key with no column yet was not defined earlier in the
        // iteration and is not carried, so it is loop-invariant.
        let mut invariant = Vec::new();
        p.reads(|r| {
            if !cur.contains_key(&r) && !invariant.contains(&r) {
                invariant.push(r);
            }
        });
        for r in invariant {
            let flt = skind[&r] != K::Int;
            let c = fresh(flt)?;
            cur.insert(r, c);
            plan.bcast.push((flt, kinds.slot[&r], c));
        }
        plan.iota |= match *p {
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
            .filter(|d| cur.get(d).is_none_or(|c| c & ACC == 0));
        let p = match def {
            Some(d) => {
                let kind = skind[&d];
                skind.insert(DEF, kind);
                cur.insert(DEF, fresh(kind != K::Int)?);
                p.retarget(DEF)
            }
            None => *p,
        };
        let (op, f, ..) = lower(&p, &skind, kinds.akind, &cur, kinds.aslot);
        plan.ops.push((f, op));
        if let Some(d) = def {
            cur.insert(d, cur[&DEF]);
            defined.insert(d);
        }
    }
    for &key in b
        .sorder
        .iter()
        .filter(|k| **k < SCRATCH0 && defined.contains(k))
    {
        plan.last
            .push((skind[&key] != K::Int, kinds.slot[&key], cur[&key]));
    }
    [plan.ni, plan.nf] = ncols;
    Ok(plan)
}

/// Peephole fusion: a multiply immediately followed by the add that
/// consumes its product collapses into one fused dispatch. The fused
/// op still writes the product slot, so the read-before-write
/// analysis, binds, and write-backs computed over the unfused protos
/// stay exact — only the per-iteration dispatch disappears. Both
/// halves are infallible (int mul/add wrap, they cannot bail), so the
/// replay contract is untouched, and floats round in two separate
/// steps, bit-identical to the unfused pair.
fn fuse(p1: &P, p2: &P, skind: &HashMap<u32, K>, slot: &HashMap<u32, u16>) -> Option<TOp> {
    let t = p1.write()?;
    let (d2, x, y) = match *p2 {
        P::Bin {
            op: ArithOp::Add,
            d,
            a,
            b,
        } => (d, a, b),
        _ => return None,
    };
    let other = if x == t {
        y
    } else if y == t {
        x
    } else {
        return None;
    };
    let int = skind[&t] == K::Int;
    if skind[&other] != skind[&t] || skind[&d2] != skind[&t] {
        return None;
    }
    let mut op = TOp {
        f: mov_i.one,
        a: slot[&d2],
        b: slot[&other],
        c: 0,
        off: slot[&t] as i64,
        ki: 0,
        kf: 0.0,
    };
    match *p1 {
        P::Bin {
            op: ArithOp::Mul,
            a,
            b,
            ..
        } => {
            op.c = slot[&a];
            op.ki = slot[&b] as i64;
            op.f = if int { fma_ii } else { fma_ff };
        }
        P::BinK {
            op: ArithOp::Mul,
            a,
            v,
            ..
        } => {
            if int != matches!(v, KVal::I(_)) {
                return None;
            }
            op.c = slot[&a];
            match v {
                KVal::I(k) => {
                    op.ki = k;
                    op.f = fmak_i;
                }
                KVal::F(k) => {
                    op.kf = k;
                    op.f = fmak_f;
                }
            }
        }
        _ => return None,
    }
    Some(op)
}

/// Lower one proto-op under a kind resolution. Returns the op, its
/// strip form (same operand layout, columns for slots), its
/// fallibility, and whether it is an array store.
fn lower(
    p: &P,
    skind: &HashMap<u32, K>,
    akind: &HashMap<Reg, K>,
    slot: &HashMap<u32, u16>,
    aslot: &HashMap<Reg, u16>,
) -> (TOp, StripFn, bool, bool) {
    let mut op = TOp {
        f: mov_i.one,
        a: 0,
        b: 0,
        c: 0,
        off: 0,
        ki: 0,
        kf: 0.0,
    };
    let ops: Ops;
    let (fallible, store) = match *p {
        P::Mov { d, s } => {
            op.a = slot[&d];
            op.b = slot[&s];
            ops = if skind[&d] == K::Int { mov_i } else { mov_f };
            (false, false)
        }
        P::Const { d, v } => {
            op.a = slot[&d];
            match v {
                KVal::I(x) => {
                    op.ki = x;
                    ops = const_i;
                }
                KVal::F(x) => {
                    op.kf = x;
                    ops = const_f;
                }
            }
            (false, false)
        }
        P::Bin { op: ao, d, a, b } => {
            op.a = slot[&d];
            op.b = slot[&a];
            op.c = slot[&b];
            let int = skind[&d] == K::Int;
            ops = match (ao, int) {
                (ArithOp::Add, true) => add_ii,
                (ArithOp::Sub, true) => sub_ii,
                (ArithOp::Mul, true) => mul_ii,
                (ArithOp::Div, true) => div_ii,
                (ArithOp::Rem, true) => rem_ii,
                (ArithOp::Add, false) => add_ff,
                (ArithOp::Sub, false) => sub_ff,
                (ArithOp::Mul, false) => mul_ff,
                (ArithOp::Div, false) => div_ff,
                (ArithOp::Rem, false) => rem_ff,
            };
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
            ops = match (ao, int, left) {
                (ArithOp::Add, true, false) => addk_i,
                (ArithOp::Sub, true, false) => subk_i,
                (ArithOp::Mul, true, false) => mulk_i,
                (ArithOp::Div, true, false) => divk_i,
                (ArithOp::Rem, true, false) => remk_i,
                (ArithOp::Add, true, true) => addkl_i,
                (ArithOp::Sub, true, true) => subkl_i,
                (ArithOp::Mul, true, true) => mulkl_i,
                (ArithOp::Div, true, true) => divkl_i,
                (ArithOp::Rem, true, true) => remkl_i,
                (ArithOp::Add, false, false) => addk_f,
                (ArithOp::Sub, false, false) => subk_f,
                (ArithOp::Mul, false, false) => mulk_f,
                (ArithOp::Div, false, false) => divk_f,
                (ArithOp::Rem, false, false) => remk_f,
                (ArithOp::Add, false, true) => addkl_f,
                (ArithOp::Sub, false, true) => subkl_f,
                (ArithOp::Mul, false, true) => mulkl_f,
                (ArithOp::Div, false, true) => divkl_f,
                (ArithOp::Rem, false, true) => remkl_f,
            };
            (int && matches!(ao, ArithOp::Div | ArithOp::Rem), false)
        }
        P::Ld { d, arr, idx, off } => {
            op.a = slot[&d];
            op.b = slot[&idx];
            op.c = aslot[&arr];
            op.off = off as i64;
            ops = if akind[&arr] == K::Int { ld_i } else { ld_f };
            (true, false)
        }
        P::St { arr, idx, s } => {
            op.a = aslot[&arr];
            op.b = slot[&idx];
            op.c = slot[&s];
            ops = if akind[&arr] == K::Int { st_i } else { st_f };
            (true, true)
        }
    };
    op.f = ops.one;
    (op, ops.strip, fallible, store)
}

// ---------------------------------------------------------------------------
// Installation
// ---------------------------------------------------------------------------

/// The pcs a template loop can be headed at: the targets of every
/// `IncCmpJump`/`IncJump`. Form A matches only when the `IncCmpJump`
/// closing its body jumps to `pc`, form B only when the `IncJump` does,
/// and both back-edges sit at some `j >= pc`. [`install_fn`] rewrites
/// only pcs it has already passed, so the back-edge of any loop it can
/// still match is in `f.code` when this scan runs.
fn loop_heads(code: &[Insn]) -> Vec<bool> {
    let mut head = vec![false; code.len()];
    for insn in code {
        if let Insn::IncCmpJump { to, .. } | Insn::IncJump { to, .. } = *insn {
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
        let Some((prog, exit)) = match_at(f, pc) else {
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
        assert!(v.outs_body.is_empty());
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

    /// Form B with a guarded body that never runs: body-only
    /// registers must not be clobbered by the write-back.
    #[test]
    fn form_b_zero_iterations_leaves_body_defs_alone() {
        let f = mk(
            vec![
                Insn::CmpJumpFalse {
                    op: CmpOp::Lt,
                    a: 0,
                    b: 1,
                    to: 4,
                },
                Insn::Const { dst: 2, k: 0 },
                Insn::IncJump {
                    var: 0,
                    step: 1,
                    to: 0,
                },
                Insn::RetVoid,
                Insn::RetVoid,
            ],
            vec![Value::Int(7)],
            3,
        );
        let (prog, exit) = match_at(&f, 0).expect("should match");
        assert_eq!(exit, 4);
        let mut regs = vec![Value::Int(5), Value::Int(5), Value::Str(Arc::from("x"))];
        assert!(run_inner(&prog, &mut regs).is_ok());
        assert!(matches!(regs[2], Value::Str(_)));
        // And with iterations, the const lands.
        let mut regs = vec![Value::Int(0), Value::Int(5), Value::Undefined];
        assert!(run_inner(&prog, &mut regs).is_ok());
        assert!(matches!(regs[0], Value::Int(5)));
        assert!(matches!(regs[2], Value::Int(7)));
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
        // `h[key[i]] += 1`: the histogram.
        assert_eq!(
            verdict(
                vec![
                    Insn::Index {
                        dst: 3,
                        arr: 1,
                        idx: 2
                    },
                    Insn::IncElemK {
                        op: ArithOp::Add,
                        arr: 4,
                        idx: 3,
                        k: 0
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

    /// Trip counts: do-while runs once even when the test is already
    /// false; wrapping loops are left to the scalar chain.
    #[test]
    fn trip_count_matches_the_loop_semantics() {
        use CmpOp::*;
        assert_eq!(trip_count(0, 10, 1, Lt, true), Some(10));
        assert_eq!(trip_count(0, 10, 3, Lt, true), Some(4));
        assert_eq!(trip_count(0, 9, 3, Le, true), Some(4));
        assert_eq!(trip_count(10, 10, 1, Lt, true), Some(1));
        assert_eq!(trip_count(10, 10, 1, Lt, false), Some(0));
        assert_eq!(trip_count(96, -1, -1, Gt, false), Some(97));
        assert_eq!(trip_count(96, 0, -2, Ge, false), Some(49));
        assert_eq!(trip_count(i64::MAX - 1, i64::MAX, 2, Le, true), None);
        assert_eq!(trip_count(i64::MIN, i64::MAX, 1, Lt, false), Some(u64::MAX));
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
    /// and a form-B loop (no shipped program has one): on the image as
    /// [`install_fn`] sees it (the fixed kernels already in), no pc that
    /// no back-edge targets matches a template, and both forms match
    /// somewhere.
    #[test]
    fn templates_match_only_at_loop_heads() {
        let form_b = "fn bump(a: []f64, n: i64) void {\n\
                      var i: i64 = 0;\n\
                      while (i < n - 1) : (i += 1) { a[i] = a[i] + 1.0; }\n}\n";
        let mut programs = shipped_programs();
        programs.push(("form B".to_string(), form_b.to_string()));
        // Matches closed by an `IncCmpJump` (form A) and an `IncJump` (B).
        let mut matched = [0, 0];
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
                .filter(|p| p.name != "install")
            {
                (pass.run)(&mut image, &mut data);
            }
            crate::kernels::install_kernels(&mut image);
            for f in &image.funcs {
                let heads = loop_heads(&f.code);
                for (pc, head) in heads.into_iter().enumerate() {
                    if match_at(f, pc).is_none() {
                        continue;
                    }
                    assert!(head, "{path}: fn `{}` matched at pc {pc}", f.name);
                    let by_inc_jump = (f.code.iter())
                        .any(|i| matches!(*i, Insn::IncJump { to, .. } if to as usize == pc));
                    matched[by_inc_jump as usize] += 1;
                }
            }
        }
        assert!(
            matched.iter().all(|&n| n > 0),
            "matches per form: {matched:?}"
        );
    }
}
