//! Reduction clauses: operators, identities, and atomic combination cells.
//!
//! The paper implements `reduction(op: list)` on both parallel regions and
//! worksharing loops by (§III-B1):
//!
//! 1. creating an **atomic cell** per reduction variable, seeded with the
//!    variable's value in the enclosing scope;
//! 2. giving each thread a **private copy initialised to the operator's
//!    identity** (required by the OpenMP standard);
//! 3. atomically combining each thread's partial into the cell at region
//!    end — using native atomic RMW where Zig provides one, and the CAS loop
//!    of Listing 6 for multiplication and the logical operators.
//!
//! [`RedCell`] packages steps 1 and 3; [`crate::workshare::parallel_reduce`]
//! and the VM's `.omp.internal` bindings drive the whole protocol.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{
    AtomicBool, AtomicI32, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};

use crate::atomic::{rmw_cas_loop, AtomicF32, AtomicF64};
use crate::pad::CachePadded;

/// Reduction operators accepted by the `reduction` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    /// `+` (and `-`, which the OpenMP spec combines identically).
    Add,
    /// `*` — no native atomic; CAS loop.
    Mul,
    /// `min`.
    Min,
    /// `max`.
    Max,
    /// `&` bitwise and.
    BitAnd,
    /// `|` bitwise or.
    BitOr,
    /// `^` bitwise xor.
    BitXor,
    /// `&&` logical and — no native atomic; CAS loop.
    LogicalAnd,
    /// `||` logical or — no native atomic; CAS loop.
    LogicalOr,
}

impl RedOp {
    /// Parse the clause spelling used in pragmas (`reduction(+: x)`).
    pub fn parse(s: &str) -> Option<RedOp> {
        Some(match s {
            "+" | "-" => RedOp::Add,
            "*" => RedOp::Mul,
            "min" => RedOp::Min,
            "max" => RedOp::Max,
            "&" => RedOp::BitAnd,
            "|" => RedOp::BitOr,
            "^" => RedOp::BitXor,
            "and" | "&&" => RedOp::LogicalAnd,
            "or" | "||" => RedOp::LogicalOr,
            _ => return None,
        })
    }
}

/// Types usable as reduction variables.
///
/// `identity` yields the value each thread's private copy starts from;
/// `combine` is the sequential operator (used for thread-local accumulation
/// and by the tests as the reference semantics); `atomic_combine` merges a
/// partial into the shared cell thread-safely.
pub trait Reduce: Copy + PartialEq + Send + Sync + std::fmt::Debug + 'static {
    /// Atomic storage for the shared reduction cell.
    type Cell: Send + Sync;

    /// Operator identity (OpenMP-mandated initial value of privates).
    fn identity(op: RedOp) -> Self;
    /// Sequential combine.
    fn combine(op: RedOp, a: Self, b: Self) -> Self;
    /// Create a cell holding `v`.
    fn new_cell(v: Self) -> Self::Cell;
    /// Atomically `cell = combine(op, cell, v)`.
    fn atomic_combine(cell: &Self::Cell, op: RedOp, v: Self);
    /// Read the cell (only meaningful after the region barrier).
    fn load_cell(cell: &Self::Cell) -> Self;
}

macro_rules! reduce_int {
    ($t:ty, $atomic:ty) => {
        impl Reduce for $t {
            type Cell = $atomic;

            fn identity(op: RedOp) -> Self {
                match op {
                    RedOp::Add => 0,
                    RedOp::Mul => 1,
                    RedOp::Min => <$t>::MAX,
                    RedOp::Max => <$t>::MIN,
                    RedOp::BitAnd => !0,
                    RedOp::BitOr | RedOp::BitXor => 0,
                    RedOp::LogicalAnd => 1,
                    RedOp::LogicalOr => 0,
                }
            }

            fn combine(op: RedOp, a: Self, b: Self) -> Self {
                match op {
                    RedOp::Add => a.wrapping_add(b),
                    RedOp::Mul => a.wrapping_mul(b),
                    RedOp::Min => a.min(b),
                    RedOp::Max => a.max(b),
                    RedOp::BitAnd => a & b,
                    RedOp::BitOr => a | b,
                    RedOp::BitXor => a ^ b,
                    RedOp::LogicalAnd => ((a != 0) && (b != 0)) as $t,
                    RedOp::LogicalOr => ((a != 0) || (b != 0)) as $t,
                }
            }

            fn new_cell(v: Self) -> Self::Cell {
                <$atomic>::new(v)
            }

            fn atomic_combine(cell: &Self::Cell, op: RedOp, v: Self) {
                match op {
                    // Native atomic RMW ops, as provided by Zig's @atomicRmw.
                    RedOp::Add => {
                        cell.fetch_add(v, Ordering::AcqRel);
                    }
                    RedOp::Min => {
                        cell.fetch_min(v, Ordering::AcqRel);
                    }
                    RedOp::Max => {
                        cell.fetch_max(v, Ordering::AcqRel);
                    }
                    RedOp::BitAnd => {
                        cell.fetch_and(v, Ordering::AcqRel);
                    }
                    RedOp::BitOr => {
                        cell.fetch_or(v, Ordering::AcqRel);
                    }
                    RedOp::BitXor => {
                        cell.fetch_xor(v, Ordering::AcqRel);
                    }
                    // Missing from the atomic instruction set: CAS loop
                    // (paper Listing 6).
                    RedOp::Mul | RedOp::LogicalAnd | RedOp::LogicalOr => {
                        rmw_cas_loop(
                            || cell.load(Ordering::Acquire),
                            |old, new| {
                                cell.compare_exchange_weak(
                                    old,
                                    new,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                            },
                            |old| Self::combine(op, old, v),
                        );
                    }
                }
            }

            fn load_cell(cell: &Self::Cell) -> Self {
                cell.load(Ordering::Acquire)
            }
        }
    };
}

reduce_int!(i64, AtomicI64);
reduce_int!(i32, AtomicI32);
reduce_int!(u64, AtomicU64);
reduce_int!(u32, AtomicU32);

macro_rules! reduce_float {
    ($t:ty, $cell:ty) => {
        impl Reduce for $t {
            type Cell = $cell;

            fn identity(op: RedOp) -> Self {
                match op {
                    RedOp::Add => 0.0,
                    RedOp::Mul => 1.0,
                    RedOp::Min => <$t>::INFINITY,
                    RedOp::Max => <$t>::NEG_INFINITY,
                    _ => panic!("reduction op {op:?} is not defined for floating point"),
                }
            }

            fn combine(op: RedOp, a: Self, b: Self) -> Self {
                match op {
                    RedOp::Add => a + b,
                    RedOp::Mul => a * b,
                    RedOp::Min => a.min(b),
                    RedOp::Max => a.max(b),
                    _ => panic!("reduction op {op:?} is not defined for floating point"),
                }
            }

            fn new_cell(v: Self) -> Self::Cell {
                <$cell>::new(v)
            }

            fn atomic_combine(cell: &Self::Cell, op: RedOp, v: Self) {
                // No hardware float RMW exists: every operator is a CAS loop.
                match op {
                    RedOp::Add => {
                        cell.fetch_add(v);
                    }
                    RedOp::Mul => {
                        cell.fetch_mul(v);
                    }
                    RedOp::Min => {
                        cell.fetch_min(v);
                    }
                    RedOp::Max => {
                        cell.fetch_max(v);
                    }
                    _ => panic!("reduction op {op:?} is not defined for floating point"),
                }
            }

            fn load_cell(cell: &Self::Cell) -> Self {
                cell.load()
            }
        }
    };
}

reduce_float!(f64, AtomicF64);
reduce_float!(f32, AtomicF32);

impl Reduce for bool {
    type Cell = AtomicBool;

    fn identity(op: RedOp) -> Self {
        match op {
            RedOp::LogicalAnd | RedOp::BitAnd => true,
            RedOp::LogicalOr | RedOp::BitOr | RedOp::BitXor => false,
            _ => panic!("reduction op {op:?} is not defined for bool"),
        }
    }

    fn combine(op: RedOp, a: Self, b: Self) -> Self {
        match op {
            RedOp::LogicalAnd | RedOp::BitAnd => a && b,
            RedOp::LogicalOr | RedOp::BitOr => a || b,
            RedOp::BitXor => a ^ b,
            _ => panic!("reduction op {op:?} is not defined for bool"),
        }
    }

    fn new_cell(v: Self) -> Self::Cell {
        AtomicBool::new(v)
    }

    fn atomic_combine(cell: &Self::Cell, op: RedOp, v: Self) {
        match op {
            RedOp::LogicalAnd | RedOp::BitAnd => {
                cell.fetch_and(v, Ordering::AcqRel);
            }
            RedOp::LogicalOr | RedOp::BitOr => {
                cell.fetch_or(v, Ordering::AcqRel);
            }
            RedOp::BitXor => {
                cell.fetch_xor(v, Ordering::AcqRel);
            }
            _ => panic!("reduction op {op:?} is not defined for bool"),
        }
    }

    fn load_cell(cell: &Self::Cell) -> Self {
        cell.load(Ordering::Acquire)
    }
}

/// A shared reduction cell: the runtime object behind one variable in a
/// `reduction` clause.
///
/// Seeded with the variable's pre-region value; threads call
/// [`RedCell::combine`] with their partials; after the region's barrier the
/// final value is read back with [`RedCell::get`] and stored to the original
/// variable.
#[derive(Debug)]
pub struct RedCell<T: Reduce> {
    cell: T::Cell,
    op: RedOp,
}

impl<T: Reduce> RedCell<T> {
    /// Create a cell for operator `op` seeded with the original value.
    pub fn new(op: RedOp, initial: T) -> Self {
        RedCell {
            cell: T::new_cell(initial),
            op,
        }
    }

    /// The identity each thread's private copy must start from.
    pub fn identity(&self) -> T {
        T::identity(self.op)
    }

    /// The operator.
    pub fn op(&self) -> RedOp {
        self.op
    }

    /// Atomically merge a thread's partial result.
    ///
    /// This is the single funnel every reduction construct drains through
    /// (tree merges fold partials privately and the root calls here once),
    /// so it is where [`crate::trace`] observes `ReductionCombine`.
    pub fn combine(&self, partial: T) {
        let t0 = if crate::trace::mode() == 0 {
            0
        } else {
            crate::trace::now_ns()
        };
        T::atomic_combine(&self.cell, self.op, partial);
        crate::trace::reduction_combine(t0);
    }

    /// Read the combined value (call after the region barrier).
    pub fn get(&self) -> T {
        T::load_cell(&self.cell)
    }
}

/// Combining-tree fan-in for [`ReduceTree`], matching the barrier tree's
/// shape so a team's reduction merge climbs the same‑depth hierarchy.
const RTREE_FANIN: usize = 4;

/// What a tree node folds: a group of per-thread input slots (leaf level)
/// or a group of lower tree nodes.
#[derive(Debug, Clone)]
enum RChildren {
    Inputs(Range<usize>),
    Nodes(Range<usize>),
}

/// One combining node: an arrival counter plus the folded partial of its
/// subtree, written by the node's last arriver before it ascends.
struct RNode<T> {
    arrived: AtomicUsize,
    expect: usize,
    parent: Option<usize>,
    children: RChildren,
    /// Written exactly once, by the node's last arriver; read exactly once,
    /// by the parent's last arriver (ordered through the arrival counters).
    partial: UnsafeCell<Option<T>>,
}

// SAFETY: `partial` is written by the node's last arriver before its
// release-arrival at the parent, and read by the parent's last arriver
// after its acquire-arrival — never concurrently.
unsafe impl<T: Send> Sync for RNode<T> {}

/// Single-shot padded tree reduction for one worksharing construct.
///
/// The shared single-cell merge (`nth` CAS loops on one line) is replaced
/// by: each thread publishes its partial in a cache-line-padded slot, then
/// arrives at its leaf node; the last arriver of each node folds its
/// children *sequentially* and ascends, so partials combine in a log₄(nth)
/// tree. Only the root performs one [`RedCell::combine`] — the paper's
/// Listing 6 CAS-loop leaf combiner — keeping entry-point semantics (cell
/// seeded with the original value, result read after the barrier) intact.
///
/// No thread ever waits here: non-last arrivers return immediately and the
/// construct's closing barrier (or region join) orders the root fold before
/// any [`RedCell::get`].
pub struct ReduceTree<T: Reduce> {
    op: RedOp,
    /// Per-thread partial inputs, padded so publication stores never
    /// false-share.
    inputs: Box<[CachePadded<UnsafeCell<Option<T>>>]>,
    nodes: Box<[CachePadded<RNode<T>>]>,
    leaf_of: Box<[usize]>,
}

// SAFETY: each `inputs[tid]` cell is written only by team thread `tid`
// before its leaf arrival and read only by the leaf's last arriver after
// acquiring that arrival.
unsafe impl<T: Reduce> Sync for ReduceTree<T> {}

impl<T: Reduce> ReduceTree<T> {
    /// Tree for a team of `nth` threads reducing with `op`.
    pub fn new(op: RedOp, nth: usize) -> Self {
        let nth = nth.max(1);
        let mut nodes: Vec<CachePadded<RNode<T>>> = Vec::new();
        let mut level_start = Vec::new();
        let mut width = nth;
        let mut leaf_level = true;
        while width > 1 {
            level_start.push(nodes.len());
            let groups = width.div_ceil(RTREE_FANIN);
            let prev_start = if leaf_level {
                0
            } else {
                level_start[level_start.len() - 2]
            };
            for g in 0..groups {
                let lo = g * RTREE_FANIN;
                let hi = (lo + RTREE_FANIN).min(width);
                let children = if leaf_level {
                    RChildren::Inputs(lo..hi)
                } else {
                    RChildren::Nodes(prev_start + lo..prev_start + hi)
                };
                nodes.push(CachePadded::new(RNode {
                    arrived: AtomicUsize::new(0),
                    expect: hi - lo,
                    parent: None, // patched below
                    children,
                    partial: UnsafeCell::new(None),
                }));
            }
            width = groups;
            leaf_level = false;
        }
        for l in 0..level_start.len().saturating_sub(1) {
            let (start, next) = (level_start[l], level_start[l + 1]);
            for g in 0..next - start {
                nodes[start + g].parent = Some(next + g / RTREE_FANIN);
            }
        }
        ReduceTree {
            op,
            inputs: (0..nth)
                .map(|_| CachePadded::new(UnsafeCell::new(None)))
                .collect(),
            nodes: nodes.into_boxed_slice(),
            leaf_of: (0..nth).map(|tid| tid / RTREE_FANIN).collect(),
        }
    }

    /// Merge thread `tid`'s partial. Every team thread must call this
    /// exactly once; the overall last arriver folds into `cell`.
    pub fn merge(&self, tid: usize, partial: T, cell: &RedCell<T>) {
        if self.nodes.is_empty() {
            // Team of one: no tree to climb.
            cell.combine(partial);
            return;
        }
        // SAFETY: only thread `tid` writes its input slot, before its leaf
        // arrival below publishes it.
        unsafe { *self.inputs[tid].get() = Some(partial) };
        let mut node = self.leaf_of[tid];
        loop {
            let nd = &self.nodes[node];
            // AcqRel: the write end publishes this thread's partial (and,
            // for interior nodes, the subtree fold); the read end of the
            // *last* arrival pulls in every sibling's published partial
            // through the counter's release sequence.
            let pos = nd.arrived.fetch_add(1, Ordering::AcqRel) + 1;
            if pos < nd.expect {
                return;
            }
            // Last arriver: fold this node's children sequentially.
            let folded = self.fold_children(nd);
            match nd.parent {
                Some(p) => {
                    // SAFETY: we are the node's unique last arriver; the
                    // parent's last arriver reads this only after acquiring
                    // our arrival there.
                    unsafe { *nd.partial.get() = Some(folded) };
                    node = p;
                }
                None => {
                    // Root: one shared-cell merge total, via the CAS-loop /
                    // native-RMW leaf combiner (the paper's Listing 6).
                    cell.combine(folded);
                    return;
                }
            }
        }
    }

    fn fold_children(&self, nd: &RNode<T>) -> T {
        let mut acc = T::identity(self.op);
        match &nd.children {
            RChildren::Inputs(r) => {
                for i in r.clone() {
                    // SAFETY: published by thread `i` before its arrival,
                    // which we have acquired.
                    let v = unsafe { (*self.inputs[i].get()).expect("input partial missing") };
                    acc = T::combine(self.op, acc, v);
                }
            }
            RChildren::Nodes(r) => {
                for i in r.clone() {
                    // SAFETY: written by the child node's last arriver
                    // before its arrival here, which we have acquired.
                    let v =
                        unsafe { (*self.nodes[i].partial.get()).expect("child partial missing") };
                    acc = T::combine(self.op, acc, v);
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_ops() {
        assert_eq!(RedOp::parse("+"), Some(RedOp::Add));
        assert_eq!(RedOp::parse("-"), Some(RedOp::Add));
        assert_eq!(RedOp::parse("*"), Some(RedOp::Mul));
        assert_eq!(RedOp::parse("min"), Some(RedOp::Min));
        assert_eq!(RedOp::parse("max"), Some(RedOp::Max));
        assert_eq!(RedOp::parse("&&"), Some(RedOp::LogicalAnd));
        assert_eq!(RedOp::parse("||"), Some(RedOp::LogicalOr));
        assert_eq!(RedOp::parse("nope"), None);
    }

    #[test]
    fn identities_are_neutral_i64() {
        for op in [
            RedOp::Add,
            RedOp::Mul,
            RedOp::Min,
            RedOp::Max,
            RedOp::BitAnd,
            RedOp::BitOr,
            RedOp::BitXor,
            RedOp::LogicalAnd,
            RedOp::LogicalOr,
        ] {
            for v in [-5i64, 0, 1, 42] {
                let vv = match op {
                    // Logical ops only make sense on 0/1 operands.
                    RedOp::LogicalAnd | RedOp::LogicalOr => (v != 0) as i64,
                    _ => v,
                };
                assert_eq!(
                    i64::combine(op, i64::identity(op), vv),
                    vv,
                    "identity not neutral for {op:?}"
                );
            }
        }
    }

    #[test]
    fn identities_are_neutral_f64() {
        for op in [RedOp::Add, RedOp::Mul, RedOp::Min, RedOp::Max] {
            for v in [-2.5f64, 0.0, 7.25] {
                assert_eq!(f64::combine(op, f64::identity(op), v), v);
            }
        }
    }

    #[test]
    fn redcell_seeds_with_original_value() {
        // reduction(+: x) with x starting at 10 and partials 1,2,3 → 16.
        let cell = RedCell::<i64>::new(RedOp::Add, 10);
        cell.combine(1);
        cell.combine(2);
        cell.combine(3);
        assert_eq!(cell.get(), 16);
    }

    #[test]
    fn redcell_mul_uses_cas_loop() {
        let cell = RedCell::<i64>::new(RedOp::Mul, 2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| cell.combine(3));
            }
        });
        assert_eq!(cell.get(), 2 * 81);
    }

    #[test]
    fn redcell_f64_concurrent_min_max() {
        let minc = RedCell::<f64>::new(RedOp::Min, f64::INFINITY);
        let maxc = RedCell::<f64>::new(RedOp::Max, f64::NEG_INFINITY);
        std::thread::scope(|s| {
            for t in 0..8i64 {
                let (minc, maxc) = (&minc, &maxc);
                s.spawn(move || {
                    minc.combine(t as f64 - 4.0);
                    maxc.combine(t as f64 - 4.0);
                });
            }
        });
        assert_eq!(minc.get(), -4.0);
        assert_eq!(maxc.get(), 3.0);
    }

    #[test]
    fn redcell_bool_logical() {
        let c = RedCell::<bool>::new(RedOp::LogicalAnd, true);
        c.combine(true);
        c.combine(false);
        assert!(!c.get());
        let c = RedCell::<bool>::new(RedOp::LogicalOr, false);
        c.combine(false);
        assert!(!c.get());
        c.combine(true);
        assert!(c.get());
    }

    #[test]
    fn bitwise_identities() {
        let c = RedCell::<u64>::new(RedOp::BitAnd, 0b1111);
        c.combine(0b1010);
        c.combine(0b0110);
        assert_eq!(c.get(), 0b0010);
        let c = RedCell::<u64>::new(RedOp::BitXor, 0);
        c.combine(0b1100);
        c.combine(0b1010);
        assert_eq!(c.get(), 0b0110);
    }

    #[test]
    fn reduce_tree_shape() {
        // 16 threads: 4 leaves + 1 root; leaves fold input groups of 4.
        let t = ReduceTree::<i64>::new(RedOp::Add, 16);
        assert_eq!(t.nodes.len(), 5);
        assert!(matches!(t.nodes[0].children, RChildren::Inputs(_)));
        assert!(matches!(t.nodes[4].children, RChildren::Nodes(_)));
        assert!(t.nodes[4].parent.is_none());
        // 1 thread: no tree at all.
        assert!(ReduceTree::<i64>::new(RedOp::Add, 1).nodes.is_empty());
        // 21 threads: 6 leaves + 2 mid + 1 root.
        assert_eq!(ReduceTree::<i64>::new(RedOp::Add, 21).nodes.len(), 9);
    }

    #[test]
    fn reduce_tree_single_thread_folds_directly() {
        let cell = RedCell::<i64>::new(RedOp::Add, 5);
        ReduceTree::<i64>::new(RedOp::Add, 1).merge(0, 7, &cell);
        assert_eq!(cell.get(), 12);
    }

    fn tree_sum(nth: usize) -> i64 {
        let cell = RedCell::<i64>::new(RedOp::Add, 100);
        let tree = ReduceTree::<i64>::new(RedOp::Add, nth);
        std::thread::scope(|s| {
            for tid in 0..nth {
                let (tree, cell) = (&tree, &cell);
                s.spawn(move || tree.merge(tid, tid as i64 + 1, cell));
            }
        });
        cell.get()
    }

    #[test]
    fn reduce_tree_concurrent_sum_matches_serial() {
        // seed 100 + sum(1..=nth), across team sizes spanning 1–3 levels.
        for nth in [2usize, 4, 5, 8, 13, 16, 21] {
            let want = 100 + (nth * (nth + 1) / 2) as i64;
            assert_eq!(tree_sum(nth), want, "nth={nth}");
        }
    }

    #[test]
    fn reduce_tree_mul_and_float() {
        let cell = RedCell::<f64>::new(RedOp::Mul, 2.0);
        let tree = ReduceTree::<f64>::new(RedOp::Mul, 6);
        std::thread::scope(|s| {
            for tid in 0..6 {
                let (tree, cell) = (&tree, &cell);
                s.spawn(move || tree.merge(tid, 2.0, cell));
            }
        });
        assert_eq!(cell.get(), 2.0 * 64.0);

        let cell = RedCell::<i64>::new(RedOp::Min, i64::MAX);
        let tree = ReduceTree::<i64>::new(RedOp::Min, 9);
        std::thread::scope(|s| {
            for tid in 0..9 {
                let (tree, cell) = (&tree, &cell);
                s.spawn(move || tree.merge(tid, 50 - tid as i64, cell));
            }
        });
        assert_eq!(cell.get(), 42);
    }
}
