//! Runtime values of the Zag VM.
//!
//! Zag is statically annotated but the VM is dynamically typed — the
//! preprocessor has "no semantic context" (§III-B3), so generated code uses
//! `any`-typed parameters and the types meet again only at runtime, which
//! is where the paper's `?*anyopaque` casts happen in Zig.
//!
//! Shared mutability follows the OpenMP contract: scalar variables live in
//! `Arc<Mutex<Value>>` slots (shared scalars are passed as [`Value::Ptr`]
//! after the preprocessor's pointer rewriting), and arrays are
//! [`ArrF`]/[`ArrI`] — `UnsafeCell` element storage, bounds-checked on
//! every access. [`zomp::safety::SafetyMode`] governs only the Rust API's
//! [`zomp::shared::SharedSlice`]: a Zag index never reaches memory
//! unchecked.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use zomp::kmpc::WsLoop;
use zomp::reduction::{RedCell, RedOp};

/// A variable slot: scalar variables, shareable across threads through
/// [`Value::Ptr`].
pub type Slot = Arc<Mutex<Value>>;

/// A VM error: message plus an optional source-byte offset.
#[derive(Debug, Clone)]
pub struct VmError(pub String);

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error: {}", self.0)
    }
}

impl std::error::Error for VmError {}

pub type VmResult<T> = Result<T, VmError>;

pub fn err<T>(msg: impl Into<String>) -> VmResult<T> {
    Err(VmError(msg.into()))
}

macro_rules! shared_array {
    ($name:ident, $elem:ty, $zero:expr) => {
        /// A shared numeric array. Element reads/writes are raw under the
        /// OpenMP no-data-race contract; bounds are checked on every access.
        pub struct $name {
            data: Box<[UnsafeCell<$elem>]>,
            /// Write seqlock for [`Self::range_hint`]. `0` = hint
            /// tracking inactive (the common case: `set` pays one
            /// relaxed load and nothing else). Activated lazily by the
            /// first `range_hint` call; from then on every write
            /// brackets itself with two `+1` bumps (odd = in flight),
            /// so a cached scan is provably from a quiescent array.
            stamp: AtomicU64,
            /// Last successful scan: `(stamp it was taken at, min, max)`.
            #[allow(dead_code)] // only the int variant is consulted today
            hint: Mutex<Option<(u64, $elem, $elem)>>,
        }

        // SAFETY: cross-thread element access is governed by the OpenMP
        // disjoint-writes contract, exactly as for zomp::shared::SharedSlice.
        unsafe impl Sync for $name {}
        unsafe impl Send for $name {}

        impl $name {
            pub fn new(n: usize) -> Self {
                let data = (0..n).map(|_| UnsafeCell::new($zero)).collect();
                Self {
                    data,
                    stamp: AtomicU64::new(0),
                    hint: Mutex::new(None),
                }
            }

            /// [`Self::new`], or `None` when the allocator refuses `n`
            /// elements (`@allocF`/`@allocI` report that as a runtime
            /// error instead of aborting the process). The reservation
            /// is a probe, released at once, so that `new` stays the
            /// small constructor host code inlines: building it on a
            /// reserve-and-fill made the benchmark's `npb_native` set-up
            /// 5 % slower.
            pub fn try_new(n: usize) -> Option<Self> {
                Vec::<$elem>::new().try_reserve_exact(n).ok()?;
                Some(Self::new(n))
            }

            pub fn len(&self) -> usize {
                self.data.len()
            }

            pub fn is_empty(&self) -> bool {
                self.data.is_empty()
            }

            #[inline]
            fn check(&self, i: i64) -> VmResult<usize> {
                if i < 0 || i as usize >= self.data.len() {
                    return err(format!(
                        "index {} out of bounds (len {})",
                        i,
                        self.data.len()
                    ));
                }
                Ok(i as usize)
            }

            #[inline]
            pub fn get(&self, i: i64) -> VmResult<$elem> {
                let i = self.check(i)?;
                // SAFETY: bounds validated; no concurrent writer per OpenMP
                // rules.
                Ok(unsafe { *self.data.get_unchecked(i).get() })
            }

            #[inline]
            pub fn set(&self, i: i64, v: $elem) -> VmResult<()> {
                let i = self.check(i)?;
                let tracked = self.stamp.load(Ordering::Relaxed) != 0;
                if tracked {
                    self.stamp.fetch_add(1, Ordering::Release);
                }
                // SAFETY: as for `get`.
                unsafe { *self.data.get_unchecked(i).get() = v };
                if tracked {
                    self.stamp.fetch_add(1, Ordering::Release);
                }
                Ok(())
            }

            /// Bracket a raw bulk write (a kernel or template storing
            /// through [`Self::cells`]) so concurrent/later
            /// [`Self::range_hint`] scans can't cache a stale range. The
            /// fence stays open while the guard lives and closes when it
            /// drops, on unwinding too.
            pub(crate) fn write_fence(&self) -> WriteFence<'_> {
                let tracked = self.stamp.load(Ordering::Relaxed) != 0;
                if tracked {
                    self.stamp.fetch_add(1, Ordering::Release);
                }
                WriteFence {
                    bumped: tracked.then_some(&self.stamp),
                }
            }

            /// `(min, max)` over all elements, cached against the write
            /// seqlock: the scan is O(n) once and O(1) on every later
            /// call until a write bumps the stamp. `None` when the
            /// array is empty, a write is in flight, or a write raced
            /// the scan — callers fall back to per-element checks.
            ///
            /// The first call activates write tracking (stamp 0 → 2);
            /// a writer racing that very activation may skip its bump,
            /// which is the same program-level data race the raw
            /// element accesses already exclude by the OpenMP no-race
            /// contract, so a hint cached here is sound for any
            /// contract-abiding program.
            #[allow(dead_code)] // only the int variant is consulted today
            pub(crate) fn range_hint(&self) -> Option<($elem, $elem)> {
                if self.data.is_empty() {
                    return None;
                }
                let mut s0 = self.stamp.load(Ordering::Acquire);
                if s0 == 0 {
                    s0 =
                        match self
                            .stamp
                            .compare_exchange(0, 2, Ordering::AcqRel, Ordering::Acquire)
                        {
                            Ok(_) => 2,
                            Err(cur) => cur,
                        };
                }
                if s0 & 1 == 1 {
                    return None;
                }
                if let Some((s, lo, hi)) = *self.hint.lock() {
                    if s == s0 {
                        return Some((lo, hi));
                    }
                }
                // SAFETY: non-empty checked above; reads are raw under
                // the no-race contract, and the stamp recheck below
                // rejects the scan if any tracked write overlapped it.
                let mut lo = unsafe { *self.data.get_unchecked(0).get() };
                let mut hi = lo;
                for c in self.data.iter() {
                    let v = unsafe { *c.get() };
                    if v < lo {
                        lo = v;
                    }
                    if v > hi {
                        hi = v;
                    }
                }
                if self.stamp.load(Ordering::Acquire) != s0 {
                    return None;
                }
                *self.hint.lock() = Some((s0, lo, hi));
                Some((lo, hi))
            }

            /// Raw element storage for the `--opt=3` bulk kernels
            /// ([`crate::kernels`]). Kernels bounds-check the whole
            /// index range themselves and bail back to the interpreter on
            /// violation, so the exact error of `get`/`set` is reproduced
            /// by the interpreter replay.
            pub(crate) fn cells(&self) -> &[UnsafeCell<$elem>] {
                &self.data
            }

            /// Snapshot for verification/tests.
            pub fn to_vec(&self) -> Vec<$elem> {
                (0..self.data.len() as i64)
                    .map(|i| self.get(i).unwrap())
                    .collect()
            }
        }
    };
}

/// An open write fence on one array ([`ArrI::write_fence`],
/// [`ArrF::write_fence`]): the array's write seqlock stays odd, so no
/// range hint is taken or trusted while raw stores are in flight, until
/// the guard drops.
pub(crate) struct WriteFence<'a> {
    /// The stamp bumped on open, or `None` when tracking was inactive
    /// (tracking may activate while the fence is open; the closing bump
    /// must pair with an opening one to keep the stamp even).
    bumped: Option<&'a AtomicU64>,
}

impl Drop for WriteFence<'_> {
    fn drop(&mut self) {
        if let Some(stamp) = self.bumped {
            stamp.fetch_add(1, Ordering::Release);
        }
    }
}

shared_array!(ArrF, f64, 0.0);
shared_array!(ArrI, i64, 0);

/// Type-erased reduction cell (the runtime meeting point of the paper's
/// `?*anyopaque` reduction group), the one allocation a reduction makes:
/// a region reduction's cell is made at the fork site, a loop
/// reduction's is shared across the team via
/// `ThreadCtx::construct_shared`.
pub enum RedCellAny {
    I(RedCell<i64>),
    F(RedCell<f64>),
    B(RedCell<bool>),
}

impl RedCellAny {
    /// A cell for `op` seeded with `seed`, or a runtime error when `op`
    /// is not defined for the seed's type (`&` on a float, `+` on a bool).
    pub fn new(op: RedOp, seed: &Value) -> VmResult<RedCellAny> {
        let defined = match seed {
            Value::Float(_) => matches!(op, RedOp::Add | RedOp::Mul | RedOp::Min | RedOp::Max),
            Value::Bool(_) => !matches!(op, RedOp::Add | RedOp::Mul | RedOp::Min | RedOp::Max),
            _ => true,
        };
        if !defined {
            return err(format!(
                "reduction op {op:?} is not defined for {}",
                seed.type_name()
            ));
        }
        Ok(match seed {
            Value::Int(v) => RedCellAny::I(RedCell::new(op, *v)),
            Value::Float(v) => RedCellAny::F(RedCell::new(op, *v)),
            Value::Bool(v) => RedCellAny::B(RedCell::new(op, *v)),
            other => return err(format!("cannot reduce over {}", other.type_name())),
        })
    }

    pub fn identity(&self) -> Value {
        match self {
            RedCellAny::I(c) => Value::Int(c.identity()),
            RedCellAny::F(c) => Value::Float(c.identity()),
            RedCellAny::B(c) => Value::Bool(c.identity()),
        }
    }

    pub fn combine(&self, v: &Value) -> VmResult<()> {
        match (self, v) {
            (RedCellAny::I(c), Value::Int(v)) => c.combine(*v),
            (RedCellAny::F(c), Value::Float(v)) => c.combine(*v),
            (RedCellAny::B(c), Value::Bool(v)) => c.combine(*v),
            (_, other) => {
                return err(format!(
                    "reduction partial of type {} does not match the cell",
                    other.type_name()
                ))
            }
        }
        Ok(())
    }

    pub fn get(&self) -> Value {
        match self {
            RedCellAny::I(c) => Value::Int(c.get()),
            RedCellAny::F(c) => Value::Float(c.get()),
            RedCellAny::B(c) => Value::Bool(c.get()),
        }
    }
}

/// Worksharing-loop iterator (the VM object behind the
/// `omp.internal.ws_*` generic wrapper family). The lock stays although
/// lowered code never contends for it (each thread begins, claims and
/// ends its own iterator): a `Value::Ws` is a value, which `firstprivate`
/// can hand to a whole team and a shared variable can carry past its
/// region, so the state it points at must be safe to reach from any
/// thread. Uncontended, it is one atomic swap per claim.
pub type WsIter = Mutex<WsState>;

pub struct WsState {
    /// Denormalisation: source value of iteration 0 and the stride.
    pub lb: i64,
    pub incr: i64,
    /// Current chunk in source-variable units: (first value, exclusive
    /// directional bound).
    pub cur: Option<(i64, i64)>,
    pub ws: WsLoop,
}

/// A Zag runtime value.
#[derive(Clone)]
pub enum Value {
    Void,
    Undefined,
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(Arc<str>),
    ArrF(Arc<ArrF>),
    ArrI(Arc<ArrI>),
    /// Pointer to a scalar variable slot (`&x` / shared rewriting).
    Ptr(Slot),
    /// Pointer to a float array element (`&a[i]`).
    ElemPtrF(Arc<ArrF>, i64),
    /// Pointer to an int array element.
    ElemPtrI(Arc<ArrI>, i64),
    /// A function reference by name.
    Fn(Arc<str>),
    /// A pragma's `unit:line` label, the first argument of `fork_call`
    /// and `ws_begin`: a string literal there is interned once, when the
    /// function is compiled (the walker: when the call is evaluated), so
    /// the runtime's trace spans take it without a lookup.
    Label(&'static str),
    Red(Arc<RedCellAny>),
    Ws(Arc<WsIter>),
}

impl Value {
    /// Duplicate a value into another register slot.
    ///
    /// The dispatch loop's `Const`/`Move` arms (and the frame-arena
    /// argument shuffle) call this instead of `Clone::clone`: the
    /// `Copy`-able scalar variants — the only things that flow through the
    /// NPB inner loops — take an early inlined path with no refcount
    /// traffic, while the `Arc`-carrying variants fall through to an
    /// outlined `#[cold]` clone so the hot path stays branch-predictable
    /// and small.
    #[inline(always)]
    pub fn dup(&self) -> Value {
        match self {
            Value::Void => Value::Void,
            Value::Undefined => Value::Undefined,
            Value::Int(v) => Value::Int(*v),
            Value::Float(v) => Value::Float(*v),
            Value::Bool(v) => Value::Bool(*v),
            other => other.dup_slow(),
        }
    }

    /// The `Arc`-bumping tail of [`Value::dup`], kept out of the
    /// interpreter's hot path.
    #[cold]
    #[inline(never)]
    fn dup_slow(&self) -> Value {
        self.clone()
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Void => "void",
            Value::Undefined => "undefined",
            Value::Int(_) => "i64",
            Value::Float(_) => "f64",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
            Value::ArrF(_) => "[]f64",
            Value::ArrI(_) => "[]i64",
            Value::Ptr(_) => "*any",
            Value::ElemPtrF(..) => "*f64",
            Value::ElemPtrI(..) => "*i64",
            Value::Fn(_) => "fn",
            Value::Label(_) => "str",
            Value::Red(_) => "reduction cell",
            Value::Ws(_) => "worksharing iterator",
        }
    }

    pub fn as_int(&self) -> VmResult<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => err(format!("expected i64, got {}", other.type_name())),
        }
    }

    pub fn as_float(&self) -> VmResult<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            other => err(format!("expected f64, got {}", other.type_name())),
        }
    }

    pub fn as_bool(&self) -> VmResult<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => err(format!("expected bool, got {}", other.type_name())),
        }
    }

    pub fn truthy(&self) -> VmResult<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            Value::Int(v) => Ok(*v != 0),
            other => err(format!("{} is not a condition", other.type_name())),
        }
    }

    /// Display form used by `print`.
    pub fn render(&self) -> String {
        match self {
            Value::Void => "void".into(),
            Value::Undefined => "undefined".into(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Value::Bool(v) => v.to_string(),
            Value::Str(s) => s.to_string(),
            Value::Label(s) => s.to_string(),
            Value::ArrF(a) => format!("[]f64(len {})", a.len()),
            Value::ArrI(a) => format!("[]i64(len {})", a.len()),
            Value::Ptr(p) => format!("*({})", p.lock().render()),
            Value::ElemPtrF(..) | Value::ElemPtrI(..) => "*elem".into(),
            Value::Fn(name) => format!("fn {name}"),
            Value::Red(_) => "reduction cell".into(),
            Value::Ws(_) => "ws iterator".into(),
        }
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_bounds_check_in_debug_mode() {
        let a = ArrF::new(4);
        assert!(a.set(3, 1.5).is_ok());
        assert_eq!(a.get(3).unwrap(), 1.5);
        assert!(a.get(4).is_err());
        assert!(a.set(-1, 0.0).is_err());
    }

    #[test]
    fn arrays_share_across_threads() {
        let a = Arc::new(ArrI::new(100));
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let a = Arc::clone(&a);
                s.spawn(move || {
                    for i in (t..100).step_by(4) {
                        a.set(i, i * 2).unwrap();
                    }
                });
            }
        });
        for i in 0..100 {
            assert_eq!(a.get(i).unwrap(), i * 2);
        }
    }

    #[test]
    fn red_handle_int_add() {
        let h = RedCellAny::new(RedOp::Add, &Value::Int(5)).unwrap();
        assert_eq!(h.identity().as_int().unwrap(), 0);
        h.combine(&Value::Int(3)).unwrap();
        h.combine(&Value::Int(4)).unwrap();
        assert_eq!(h.get().as_int().unwrap(), 12);
    }

    #[test]
    fn red_handle_rejects_mismatched_partial() {
        let h = RedCellAny::new(RedOp::Add, &Value::Float(0.0)).unwrap();
        assert!(h.combine(&Value::Int(1)).is_err());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(3).as_int().unwrap(), 3);
        assert!(Value::Float(1.0).as_int().is_err());
        assert!(Value::Int(1).truthy().unwrap());
        assert!(!Value::Int(0).truthy().unwrap());
        assert_eq!(Value::Float(2.0).render(), "2.0");
        assert_eq!(Value::Float(2.5).render(), "2.5");
    }

    /// Property: over pseudo-random contents and interleaved writes,
    /// `range_hint` always agrees with a naive min/max scan, and a
    /// write between two calls invalidates the cached range.
    #[test]
    fn range_hint_matches_naive_min_max_under_writes() {
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..50 {
            let n = 1 + (next() % 64) as usize;
            let a = ArrI::new(n);
            for i in 0..n {
                a.set(i as i64, (next() % 2001) as i64 - 1000).unwrap();
            }
            let naive = |a: &ArrI| {
                let v = a.to_vec();
                (*v.iter().min().unwrap(), *v.iter().max().unwrap())
            };
            assert_eq!(a.range_hint(), Some(naive(&a)), "case {case} initial");
            // Cached path returns the same thing.
            assert_eq!(a.range_hint(), Some(naive(&a)), "case {case} cached");
            // A write invalidates the cache; the next scan sees it.
            let i = (next() % n as u64) as i64;
            let v = (next() % 20001) as i64 - 10000;
            a.set(i, v).unwrap();
            assert_eq!(a.range_hint(), Some(naive(&a)), "case {case} after write");
        }
    }

    /// The write seqlock mechanics: tracking activates on first call
    /// (stamp 0 means untracked writes stay free), an in-flight bulk
    /// write (odd stamp) returns `None` instead of a torn range, and
    /// the fence-end makes the hint observable again.
    #[test]
    fn range_hint_stamp_activation_and_inflight_write() {
        let a = ArrI::new(8);
        // Untracked: set() must not bump the stamp before the first
        // range_hint call activates tracking.
        a.set(0, 7).unwrap();
        assert_eq!(a.stamp.load(Ordering::Relaxed), 0);
        assert_eq!(a.range_hint(), Some((0, 7)));
        let s = a.stamp.load(Ordering::Relaxed);
        assert!(
            s != 0 && s.is_multiple_of(2),
            "tracking active and quiescent"
        );
        // Bulk-write fence held open: the hint must refuse to scan.
        let fence = a.write_fence();
        assert_eq!(a.range_hint(), None, "in-flight write must hide the hint");
        drop(fence);
        assert_eq!(a.range_hint(), Some((0, 7)));
        // Tracked set() leaves the stamp even and the hint fresh.
        a.set(1, -3).unwrap();
        assert_eq!(a.stamp.load(Ordering::Relaxed) % 2, 0);
        assert_eq!(a.range_hint(), Some((-3, 7)));
    }

    /// A panic while a fence is open (a kernel or template unwinding out
    /// of `Vm::dispatch`) still closes it: the hint comes back.
    #[test]
    fn write_fence_closes_on_unwind() {
        let a = ArrI::new(4);
        a.set(2, 9).unwrap();
        assert_eq!(a.range_hint(), Some((0, 9)));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _fence = a.write_fence();
            panic!("unwinding with a write fence open");
        }));
        assert!(r.is_err());
        assert_eq!(a.stamp.load(Ordering::Relaxed) % 2, 0);
        assert_eq!(a.range_hint(), Some((0, 9)));
    }

    /// A concurrent writer never lets a reader cache a range that
    /// misses its writes: once the writer joins, the very next hint
    /// reflects the final contents, and no hint observed during the
    /// race ever claims a bound outside the values that were ever
    /// present in the array.
    #[test]
    fn range_hint_concurrent_writer_invalidation() {
        let a = Arc::new(ArrI::new(64));
        // Values only ever in [0, 1000]: any hint outside that range
        // would be a torn read leaking through the seqlock.
        assert_eq!(a.range_hint(), Some((0, 0)));
        std::thread::scope(|s| {
            let w = Arc::clone(&a);
            s.spawn(move || {
                for round in 0..200i64 {
                    w.set(round % 64, round % 1000 + 1).unwrap();
                }
            });
            let r = Arc::clone(&a);
            s.spawn(move || {
                for _ in 0..200 {
                    if let Some((lo, hi)) = r.range_hint() {
                        assert!((0..=1000).contains(&lo) && (0..=1000).contains(&hi));
                        assert!(lo <= hi);
                    }
                }
            });
        });
        let v = a.to_vec();
        let want = (*v.iter().min().unwrap(), *v.iter().max().unwrap());
        assert_eq!(a.range_hint(), Some(want), "post-join hint must be exact");
    }
}
