//! Loop schedules and iteration-space partitioning.
//!
//! This module contains the *pure* scheduling logic shared between the live
//! runtime ([`crate::workshare`], [`crate::kmpc`]) and the ARCHER2 machine
//! model in the `archer-sim` crate: given a normalised iteration space
//! `0..trip_count`, which iterations does thread `tid` of `nth` execute, and
//! in what chunks?
//!
//! The paper lowers worksharing loops to two families of libomp entry points:
//!
//! * `__kmpc_for_static_init` / `__kmpc_for_static_fini` for `static`
//!   schedules — partitioning is a closed-form function of `(tid, nth)`,
//!   computed here by [`static_block`] and [`StaticChunked`];
//! * `__kmpc_dispatch_init` / `__kmpc_dispatch_next` for `dynamic`, `guided`
//!   and `runtime` schedules — threads repeatedly grab chunks from shared
//!   state, modelled by [`DynamicDispatch`] and [`GuidedDispatch`].
//!
//! The dispatch protocol is contention-aware: instead of the textbook single
//! shared cursor (`zomp-bench` keeps one as the benchmark baseline), the
//! iteration space is carved into per-thread, cache-line-padded ranges up
//! front and threads *steal half* of a victim's remaining range when their
//! own runs dry ([`StealDeck`]). Entry-point semantics are unchanged:
//! `__kmpc_dispatch_next` still hands each caller disjoint chunks until the
//! space is exhausted.
//!
//! Loop bounds are extracted from the source loop exactly as §III-B2
//! describes (lower bound from the init expression, upper bound and
//! comparison operator from the condition, increment from the continuation
//! expression); [`LoopBounds`] normalises all of that to a trip count.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::pad::CachePadded;

/// The schedule kinds supported by the paper's worksharing implementation.
///
/// `runtime` defers the choice to the `run-sched-var` ICV
/// (`OMP_SCHEDULE` / `omp_set_schedule`), mirroring `kmp_sch_runtime`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// `kmp_sch_static` / `kmp_sch_static_chunked`.
    Static,
    /// `kmp_sch_dynamic_chunked`.
    Dynamic,
    /// `kmp_sch_guided_chunked`.
    Guided,
    /// `kmp_sch_runtime`: resolved against the ICVs at loop entry.
    Runtime,
}

/// A schedule clause: kind plus optional chunk size.
///
/// In the paper's AST encoding this is a 3-bit kind and a 29-bit chunk packed
/// into one `u32` of the `extra_data` array, with chunk 0 meaning
/// "unspecified" (chunks must be positive per the OpenMP spec). The front-end
/// crate reproduces that packing; here we keep the decoded form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Schedule {
    pub kind: ScheduleKind,
    /// `None` = no chunk specified. Always `>= 1` when `Some`.
    pub chunk: Option<i64>,
}

impl Schedule {
    /// `schedule(static)`.
    pub const fn static_default() -> Self {
        Schedule {
            kind: ScheduleKind::Static,
            chunk: None,
        }
    }

    /// `schedule(static, chunk)`.
    pub const fn static_chunked(chunk: i64) -> Self {
        Schedule {
            kind: ScheduleKind::Static,
            chunk: Some(chunk),
        }
    }

    /// `schedule(dynamic[, chunk])`.
    pub const fn dynamic(chunk: Option<i64>) -> Self {
        Schedule {
            kind: ScheduleKind::Dynamic,
            chunk,
        }
    }

    /// `schedule(guided[, chunk])`.
    pub const fn guided(chunk: Option<i64>) -> Self {
        Schedule {
            kind: ScheduleKind::Guided,
            chunk,
        }
    }

    /// `schedule(runtime)`.
    pub const fn runtime() -> Self {
        Schedule {
            kind: ScheduleKind::Runtime,
            chunk: None,
        }
    }
}

/// Comparison operator of the source loop condition (taken directly from the
/// Zig `while` condition per §III-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopCmp {
    /// `i < ub`
    Lt,
    /// `i <= ub`
    Le,
    /// `i > ub`
    Gt,
    /// `i >= ub`
    Ge,
}

/// Raw loop bounds as extracted from the source loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopBounds {
    /// Initial value of the loop counter.
    pub lb: i64,
    /// Right-hand side of the comparison.
    pub ub: i64,
    /// Signed increment applied by the continuation expression.
    pub incr: i64,
    /// Comparison operator.
    pub cmp: LoopCmp,
}

/// Typed error for non-conforming loop/schedule parameters.
///
/// Returned by the fallible entry points ([`LoopBounds::try_trip_count`],
/// [`StaticChunked::try_new`], [`crate::kmpc::for_static_init`],
/// [`crate::kmpc::WsLoop::begin`]); the panicking convenience wrappers
/// panic with exactly this error's `Display` text, so both surfaces report
/// identical messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The loop increment is 0: the loop cannot make progress.
    ZeroIncrement,
    /// The increment's sign cannot reach the bound (e.g. a `<` loop with a
    /// negative step).
    WrongDirection { cmp: LoopCmp },
    /// An inclusive bound at the integer domain edge overflowed.
    BoundOverflow,
    /// A chunk size below 1.
    NonPositiveChunk(i64),
    /// `tid`/`nth` do not describe a valid team member.
    BadThread { tid: usize, nth: usize },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::ZeroIncrement => {
                write!(f, "worksharing loop increment must be nonzero")
            }
            ScheduleError::WrongDirection { cmp } => match cmp {
                LoopCmp::Lt | LoopCmp::Le => {
                    write!(f, "upward loop ({cmp:?}) needs a positive increment")
                }
                LoopCmp::Gt | LoopCmp::Ge => {
                    write!(f, "downward loop ({cmp:?}) needs a negative increment")
                }
            },
            ScheduleError::BoundOverflow => write!(f, "loop bound overflow"),
            ScheduleError::NonPositiveChunk(_) => write!(f, "chunk sizes must be positive"),
            ScheduleError::BadThread { tid, nth } => {
                write!(f, "thread id {tid} is not valid for a team of {nth}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl LoopBounds {
    /// An upward, exclusive loop `for i in lb..ub` with unit stride.
    pub const fn upto(lb: i64, ub: i64) -> Self {
        LoopBounds {
            lb,
            ub,
            incr: 1,
            cmp: LoopCmp::Lt,
        }
    }

    /// An upward, exclusive loop with a stride.
    pub const fn upto_by(lb: i64, ub: i64, incr: i64) -> Self {
        LoopBounds {
            lb,
            ub,
            incr,
            cmp: LoopCmp::Lt,
        }
    }

    /// Number of iterations the loop executes ("trip count").
    ///
    /// Returns 0 for loops whose condition is false on entry. Panics on a
    /// zero increment or an increment whose sign cannot make progress (those
    /// are non-conforming loops the compiler would reject); the panic text
    /// is [`ScheduleError`]'s `Display`. Use [`LoopBounds::try_trip_count`]
    /// for the fallible form.
    pub fn trip_count(&self) -> u64 {
        self.try_trip_count().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`LoopBounds::trip_count`]: returns the typed
    /// [`ScheduleError`] instead of panicking on non-conforming loops.
    pub fn try_trip_count(&self) -> Result<u64, ScheduleError> {
        if self.incr == 0 {
            return Err(ScheduleError::ZeroIncrement);
        }
        match self.cmp {
            LoopCmp::Lt | LoopCmp::Le => {
                if self.incr < 0 {
                    return Err(ScheduleError::WrongDirection { cmp: self.cmp });
                }
                let ub = if self.cmp == LoopCmp::Le {
                    self.ub.checked_add(1).ok_or(ScheduleError::BoundOverflow)?
                } else {
                    self.ub
                };
                if self.lb >= ub {
                    Ok(0)
                } else {
                    let span = (ub as i128) - (self.lb as i128);
                    Ok(((span + self.incr as i128 - 1) / self.incr as i128) as u64)
                }
            }
            LoopCmp::Gt | LoopCmp::Ge => {
                if self.incr > 0 {
                    return Err(ScheduleError::WrongDirection { cmp: self.cmp });
                }
                let ub = if self.cmp == LoopCmp::Ge {
                    self.ub.checked_sub(1).ok_or(ScheduleError::BoundOverflow)?
                } else {
                    self.ub
                };
                if self.lb <= ub {
                    Ok(0)
                } else {
                    let span = (self.lb as i128) - (ub as i128);
                    let step = -(self.incr as i128);
                    Ok(((span + step - 1) / step) as u64)
                }
            }
        }
    }

    /// Map a normalised iteration index back to the source loop-variable
    /// value.
    #[inline]
    pub fn iter_value(&self, logical: u64) -> i64 {
        self.lb + (logical as i64) * self.incr
    }
}

impl From<Range<i64>> for LoopBounds {
    fn from(r: Range<i64>) -> Self {
        LoopBounds::upto(r.start, r.end)
    }
}

/// Closed-form block partition used by `schedule(static)` with no chunk.
///
/// Matches libomp's `kmp_sch_static`: iterations are divided into `nth`
/// nearly equal contiguous blocks; the first `trip % nth` threads receive one
/// extra iteration. Returns the normalised range for `tid`.
pub fn static_block(tid: usize, nth: usize, trip: u64) -> Range<u64> {
    assert!(nth >= 1 && tid < nth);
    let nth = nth as u64;
    let tid = tid as u64;
    let small = trip / nth;
    let extras = trip % nth;
    let (start, len) = if tid < extras {
        (tid * (small + 1), small + 1)
    } else {
        (extras * (small + 1) + (tid - extras) * small, small)
    };
    start..start + len
}

/// Iterator over the chunks of `schedule(static, chunk)` for one thread:
/// chunk `k` of the loop goes to thread `k % nth` (round-robin), i.e. thread
/// `tid` executes chunks `tid, tid + nth, tid + 2*nth, ...`.
///
/// This matches the `__kmpc_for_static_init` contract for
/// `kmp_sch_static_chunked`, where the returned stride is `chunk * nth`.
#[derive(Debug, Clone)]
pub struct StaticChunked {
    next_start: u64,
    stride: u64,
    chunk: u64,
    trip: u64,
}

impl StaticChunked {
    /// Panicking constructor; the panic text is [`ScheduleError`]'s
    /// `Display`. Use [`StaticChunked::try_new`] for the fallible form.
    pub fn new(tid: usize, nth: usize, trip: u64, chunk: i64) -> Self {
        Self::try_new(tid, nth, trip, chunk).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects non-positive chunks and invalid
    /// `tid`/`nth` with a typed [`ScheduleError`].
    pub fn try_new(tid: usize, nth: usize, trip: u64, chunk: i64) -> Result<Self, ScheduleError> {
        if chunk < 1 {
            return Err(ScheduleError::NonPositiveChunk(chunk));
        }
        if nth < 1 || tid >= nth {
            return Err(ScheduleError::BadThread { tid, nth });
        }
        let chunk = serialized_chunk(nth, trip, chunk as u64);
        // A saturated start or stride lies past any trip: the thread's
        // chunks end there instead of wrapping back into the loop.
        Ok(StaticChunked {
            next_start: (tid as u64).saturating_mul(chunk),
            stride: chunk.saturating_mul(nth as u64),
            chunk,
            trip,
        })
    }
}

impl Iterator for StaticChunked {
    type Item = Range<u64>;

    fn next(&mut self) -> Option<Range<u64>> {
        if self.next_start >= self.trip {
            return None;
        }
        let start = self.next_start;
        let end = start.saturating_add(self.chunk).min(self.trip);
        self.next_start = start.saturating_add(self.stride);
        Some(start..end)
    }
}

/// Default chunk size for `schedule(dynamic)` with no chunk clause (the
/// OpenMP spec mandates 1).
pub const DYNAMIC_DEFAULT_CHUNK: u64 = 1;

/// The chunk `schedule(static, chunk)` claims in a team of `nth`: the
/// clause's, but a team of one takes the whole loop — its first claim is
/// `[0, trip)`, the next is nothing. With no thread to balance against only
/// the claim count changes (libomp's `__kmp_dispatch_next` merges a
/// serialized team's chunks the same way). [`crate::kmpc::WsLoop`] serves
/// every schedule of a team of one through this static path.
fn serialized_chunk(nth: usize, trip: u64, chunk: u64) -> u64 {
    if nth <= 1 {
        trip.max(1)
    } else {
        chunk
    }
}

/// How a dispatched chunk was obtained — the claim-path provenance reported
/// to [`crate::trace`] (`ompt_dispatch_ws_loop_chunk`-style event payload).
///
/// `Owned` covers claims served from the calling thread's own deck slot
/// (including remainders a previous steal published there — the *claim*
/// itself was local), plus every static-schedule chunk. `Stolen` marks
/// claims that CAS-carved a range out of a victim's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkOrigin {
    Owned,
    Stolen,
}

/// Largest trip count the work-stealing deck handles: ranges are packed as
/// two `u32` halves into one `AtomicU64`, and the owner's fetch-add claims
/// need headroom in the low half (see [`StealDeck`]). The dispatchers panic
/// past it; [`crate::kmpc::WsLoop::begin`] serves longer dynamic and guided
/// loops on the static path, keeping the clause's chunk.
pub const STEAL_MAX_TRIP: u64 = 1 << 31;

/// A dynamic claim is one batch: one atomic RMW on the thread's own slot
/// claims `chunk * STEAL_BATCH` iterations and hands them out whole. This
/// amortises the per-chunk atomic cost that made the shared cursor the
/// fork/dispatch bottleneck. Public so the analytic simulator's dispatch
/// cost model stays in sync with the runtime.
pub const STEAL_BATCH: u64 = 8;

/// Cap on a single owner batch so `lo + batch` can never carry out of the
/// low `u32` half of the packed range word.
const STEAL_BATCH_CAP: u64 = 1 << 29;

/// Pack a remaining range `[lo, hi)` into one atomic word.
#[inline]
const fn pack(lo: u32, hi: u32) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

/// Unpack `(lo, hi)` from a range word. `lo >= hi` means empty.
#[inline]
const fn unpack(w: u64) -> (u32, u32) {
    (w as u32, (w >> 32) as u32)
}

/// Work-stealing dispatch core shared by [`DynamicDispatch`] and
/// [`GuidedDispatch`].
///
/// The iteration space is carved into `nth` contiguous blocks (the same
/// partition as `schedule(static)`), one per thread, each in its own
/// cache-line-padded slot. A thread claims from its own slot until it
/// drains, then steals the upper half of a victim's remaining range, keeps
/// one claim's worth, and publishes the rest in its own slot for others to
/// steal in turn. A one-slot deck never finds a victim.
///
/// Each slot holds its remaining range packed as `(hi << 32) | lo`. The
/// owner advances `lo` (a fetch-add on the low half); thieves shrink `hi`
/// by CAS-ing the whole word. `lo` may overshoot `hi` by at most one batch
/// (the owner pre-checks emptiness before fetch-adding), so with
/// `hi <= 2^31` and batches capped at [`STEAL_BATCH_CAP`] the low half
/// never carries into the high half.
///
/// All atomics here are `Relaxed`: the claimed bounds travel *inside* the
/// atomic word itself, atomic RMWs guarantee each iteration is claimed
/// exactly once regardless of ordering, and the loop body's user data is
/// ordered by the construct's barriers, not by the dispatch protocol.
pub(crate) struct StealDeck {
    slots: Box<[CachePadded<AtomicU64>]>,
}

impl StealDeck {
    /// Panics past [`STEAL_MAX_TRIP`]: the packed `u32` range words would
    /// silently truncate a longer loop.
    fn new(trip: u64, nth: usize) -> Self {
        assert!(
            trip <= STEAL_MAX_TRIP,
            "a dispatched loop of {trip} iterations exceeds STEAL_MAX_TRIP ({STEAL_MAX_TRIP})"
        );
        let slots = (0..nth)
            .map(|tid| {
                let r = static_block(tid, nth, trip);
                CachePadded::new(AtomicU64::new(pack(r.start as u32, r.end as u32)))
            })
            .collect();
        StealDeck { slots }
    }

    /// Claim up to `want` iterations from this thread's own slot.
    #[inline]
    fn claim_local(&self, tid: usize, want: u64) -> Option<(u32, u32)> {
        let slot = &self.slots[tid];
        // Pre-check emptiness so repeated calls on a drained slot never
        // fetch-add: this bounds `lo`'s overshoot past `hi` to one batch,
        // which the packing headroom absorbs.
        let (lo, hi) = unpack(slot.load(Ordering::Relaxed));
        if lo >= hi {
            return None;
        }
        let (lo, hi) = unpack(slot.fetch_add(want, Ordering::Relaxed));
        if lo >= hi {
            // A thief shrank `hi` below `lo` between the check and the claim.
            return None;
        }
        Some((lo, ((lo as u64 + want).min(hi as u64)) as u32))
    }

    /// Steal roughly half of some other thread's remaining range.
    ///
    /// Scans victims round-robin starting after `tid`; takes the *upper*
    /// half `[mid, hi)` so the victim's owner-side fetch-add on `lo` stays
    /// valid whether the CAS lands before or after it. Ranges shorter than
    /// `2 * min_keep` are stolen whole: splitting them would leave sub-chunk
    /// remnants, and remnants smaller than one iteration's worth of interest
    /// could outlive every active claimant.
    fn steal(&self, tid: usize, min_keep: u64) -> Option<(u32, u32)> {
        let n = self.slots.len();
        for off in 1..n {
            let slot = &self.slots[(tid + off) % n];
            loop {
                let w = slot.load(Ordering::Relaxed);
                let (lo, hi) = unpack(w);
                if lo >= hi {
                    break;
                }
                let rem = (hi - lo) as u64;
                let mid = if rem < 2 * min_keep.max(1) {
                    lo
                } else {
                    lo + (rem / 2) as u32
                };
                // No ABA hazard despite the plain-store publish in
                // `install`: ranges only ever re-enter a slot with a
                // strictly larger `lo` than any value the slot held before
                // (steals take upper halves, owners only advance `lo`), so a
                // stale `w` can never reappear as the current word.
                if slot
                    .compare_exchange_weak(w, pack(lo, mid), Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    return Some((mid, hi));
                }
            }
        }
        // Exhaustion probe: every victim scanned, nothing left to take.
        // Off the claim hot path — reached once per thread per construct.
        crate::trace::steal_failure();
        None
    }

    /// Publish a stolen remainder in this thread's own (drained) slot so
    /// other thieves can find it. Plain store: thieves skip empty slots, so
    /// nothing CASes against the pre-store word.
    fn install(&self, tid: usize, lo: u32, hi: u32) {
        self.slots[tid].store(pack(lo, hi), Ordering::Relaxed);
    }

    /// `schedule(dynamic)` claim protocol: a claim is one batch of
    /// [`STEAL_BATCH`] clause chunks, fetch-added off this thread's own
    /// slot; once that drains, a steal keeps one batch and publishes the
    /// rest in the slot.
    #[inline]
    fn next_dynamic(&self, tid: usize, chunk: u64) -> Option<(Range<u64>, ChunkOrigin)> {
        let batch = chunk.saturating_mul(STEAL_BATCH).min(STEAL_BATCH_CAP);
        if let Some((lo, hi)) = self.claim_local(tid, batch) {
            return Some((lo as u64..hi as u64, ChunkOrigin::Owned));
        }
        let (lo, hi) = self.steal(tid, 1)?;
        let take = ((lo as u64 + batch).min(hi as u64)) as u32;
        if take < hi {
            self.install(tid, take, hi);
        }
        Some((lo as u64..take as u64, ChunkOrigin::Stolen))
    }

    /// `schedule(guided)` claim protocol: each claim takes half the *local*
    /// remaining range (never less than `min_chunk`). Since each slot starts
    /// with `~trip/nth` iterations, the first chunk is `~trip/(2*nth)` —
    /// the same decay shape as the classic global formula
    /// `ceil(remaining / (2 * nth))`, without the shared CAS hot spot.
    fn next_guided(&self, tid: usize, min_chunk: u64) -> Option<(Range<u64>, ChunkOrigin)> {
        // A claim never leaves a remnant below `min_chunk` behind: the spec
        // allows only final-remainder chunks below the clause minimum.
        let sized = |rem: u64| {
            let take = rem.div_ceil(2).max(min_chunk).min(rem);
            if rem - take < min_chunk {
                rem
            } else {
                take
            }
        };
        let slot = &self.slots[tid];
        loop {
            let w = slot.load(Ordering::Relaxed);
            let (lo, hi) = unpack(w);
            if lo < hi {
                let take = sized((hi - lo) as u64);
                if slot
                    .compare_exchange_weak(
                        w,
                        pack(lo + take as u32, hi),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return Some((lo as u64..lo as u64 + take, ChunkOrigin::Owned));
                }
                // Raced with a thief; re-read and retry.
                continue;
            }
            match self.steal(tid, min_chunk) {
                Some((slo, shi)) => {
                    let take = sized((shi - slo) as u64);
                    let split = slo + take as u32;
                    if split < shi {
                        self.install(tid, split, shi);
                    }
                    return Some((slo as u64..split as u64, ChunkOrigin::Stolen));
                }
                None => return None,
            }
        }
    }

    /// Sum of remaining iterations across all slots (diagnostics only; racy
    /// by nature).
    fn remaining(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| {
                let (lo, hi) = unpack(s.load(Ordering::Relaxed));
                hi.saturating_sub(lo) as u64
            })
            .sum()
    }
}

impl fmt::Debug for StealDeck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StealDeck")
            .field("slots", &self.slots.len())
            .field("remaining", &self.remaining())
            .finish()
    }
}

/// Dispatch state for `schedule(dynamic[, chunk])`: the
/// `__kmpc_dispatch_next` protocol for `kmp_sch_dynamic_chunked`.
///
/// Backed by the work-stealing [`StealDeck`] (per-thread padded ranges,
/// steal-half on drain). A claim is a batch of up to [`STEAL_BATCH`] clause
/// chunks: the ones its thread would win on its next calls anyway, so each
/// thread runs the iterations, in the order, that clause-sized claims give.
#[derive(Debug)]
pub struct DynamicDispatch {
    deck: StealDeck,
    chunk: u64,
}

impl DynamicDispatch {
    /// Panics if `trip` exceeds [`STEAL_MAX_TRIP`];
    /// [`crate::kmpc::WsLoop::begin`] serves such loops statically.
    pub fn new(trip: u64, nth: usize, chunk: Option<i64>) -> Self {
        let chunk = chunk
            .map(|c| c.max(1) as u64)
            .unwrap_or(DYNAMIC_DEFAULT_CHUNK);
        DynamicDispatch {
            deck: StealDeck::new(trip, nth),
            chunk,
        }
    }

    /// Claim the next batch for thread `tid`, or `None` when this thread's
    /// range has drained and no victim has work left to steal.
    ///
    /// Each thread must pass its own team id.
    #[inline]
    pub fn next(&self, tid: usize) -> Option<Range<u64>> {
        self.next_with_origin(tid).map(|(r, _)| r)
    }

    /// [`next`](Self::next) plus the claim's provenance, for the
    /// observability layer.
    #[inline]
    pub fn next_with_origin(&self, tid: usize) -> Option<(Range<u64>, ChunkOrigin)> {
        self.deck.next_dynamic(tid, self.chunk)
    }
}

/// Dispatch state for `schedule(guided[, chunk])`.
///
/// Chunks start large and decay exponentially, following libomp's
/// `kmp_sch_guided_chunked` shape: the first chunk is `~trip/(2*nth)` and
/// each subsequent claim halves a thread's remaining share, never dropping
/// below the clause chunk (default 1). Backed by the same work-stealing
/// deck as [`DynamicDispatch`].
#[derive(Debug)]
pub struct GuidedDispatch {
    deck: StealDeck,
    min_chunk: u64,
}

impl GuidedDispatch {
    /// Panics if `trip` exceeds [`STEAL_MAX_TRIP`], as
    /// [`DynamicDispatch::new`] does.
    pub fn new(trip: u64, nth: usize, chunk: Option<i64>) -> Self {
        GuidedDispatch {
            deck: StealDeck::new(trip, nth),
            min_chunk: chunk.map(|c| c.max(1) as u64).unwrap_or(1),
        }
    }

    /// Claim the next (decaying) chunk for thread `tid`. Same `tid` contract
    /// as [`DynamicDispatch::next`].
    #[inline]
    pub fn next(&self, tid: usize) -> Option<Range<u64>> {
        self.next_with_origin(tid).map(|(r, _)| r)
    }

    /// [`next`](Self::next) plus the chunk's claim-path provenance, for the
    /// observability layer.
    #[inline]
    pub fn next_with_origin(&self, tid: usize) -> Option<(Range<u64>, ChunkOrigin)> {
        self.deck.next_guided(tid, self.min_chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trip_count_upward_exclusive() {
        assert_eq!(LoopBounds::upto(0, 10).trip_count(), 10);
        assert_eq!(LoopBounds::upto(3, 10).trip_count(), 7);
        assert_eq!(LoopBounds::upto(10, 10).trip_count(), 0);
        assert_eq!(LoopBounds::upto(11, 10).trip_count(), 0);
        assert_eq!(LoopBounds::upto_by(0, 10, 3).trip_count(), 4); // 0 3 6 9
        assert_eq!(LoopBounds::upto_by(0, 9, 3).trip_count(), 3); // 0 3 6
    }

    #[test]
    fn trip_count_inclusive_fortran_style() {
        // Fortran DO i = 1, n has an inclusive upper bound; the paper notes
        // ports must adjust. The runtime handles it natively via Le.
        let b = LoopBounds {
            lb: 1,
            ub: 10,
            incr: 1,
            cmp: LoopCmp::Le,
        };
        assert_eq!(b.trip_count(), 10);
    }

    #[test]
    fn trip_count_downward() {
        let b = LoopBounds {
            lb: 10,
            ub: 0,
            incr: -1,
            cmp: LoopCmp::Gt,
        };
        assert_eq!(b.trip_count(), 10); // 10,9,...,1
        let b = LoopBounds {
            lb: 10,
            ub: 0,
            incr: -2,
            cmp: LoopCmp::Ge,
        };
        assert_eq!(b.trip_count(), 6); // 10,8,6,4,2,0
    }

    #[test]
    fn iter_value_denormalises() {
        let b = LoopBounds::upto_by(5, 50, 3);
        assert_eq!(b.iter_value(0), 5);
        assert_eq!(b.iter_value(2), 11);
        let b = LoopBounds {
            lb: 10,
            ub: 0,
            incr: -2,
            cmp: LoopCmp::Gt,
        };
        assert_eq!(b.iter_value(3), 4);
    }

    #[test]
    fn static_block_covers_and_balances() {
        for &trip in &[0u64, 1, 7, 64, 100, 12345] {
            for &nth in &[1usize, 2, 3, 7, 128] {
                let mut total = 0;
                let mut prev_end = 0;
                let mut sizes = vec![];
                for tid in 0..nth {
                    let r = static_block(tid, nth, trip);
                    assert_eq!(r.start, prev_end, "blocks must be contiguous");
                    prev_end = r.end;
                    sizes.push(r.end - r.start);
                    total += r.end - r.start;
                }
                assert_eq!(prev_end, trip);
                assert_eq!(total, trip);
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "blocks must be balanced");
            }
        }
    }

    #[test]
    fn static_chunked_round_robin() {
        // trip=10, chunk=2, nth=3: chunks [0,2) [2,4) [4,6) [6,8) [8,10)
        // thread 0: chunks 0,3 -> [0,2),[6,8); thread 1: [2,4),[8,10);
        // thread 2: [4,6).
        let collect = |tid| StaticChunked::new(tid, 3, 10, 2).collect::<Vec<_>>();
        assert_eq!(collect(0), vec![0..2, 6..8]);
        assert_eq!(collect(1), vec![2..4, 8..10]);
        assert_eq!(collect(2), vec![4..6]);
    }

    #[test]
    fn static_chunked_covers_exactly() {
        for &trip in &[0u64, 1, 5, 17, 1000] {
            for &nth in &[1usize, 2, 5, 9] {
                for &chunk in &[1i64, 2, 7, 100] {
                    let mut seen = vec![false; trip as usize];
                    for tid in 0..nth {
                        for r in StaticChunked::new(tid, nth, trip, chunk) {
                            for i in r {
                                assert!(!seen[i as usize], "iteration executed twice");
                                seen[i as usize] = true;
                            }
                        }
                    }
                    assert!(seen.iter().all(|&s| s), "iteration missed");
                }
            }
        }
    }

    /// A huge `schedule(static, chunk)` chunk saturates the start and the
    /// stride instead of wrapping them: the team covers the loop exactly
    /// once and every thread's claims end.
    #[test]
    fn huge_static_chunk_covers_once_and_ends() {
        for chunk in [1i64 << 62, i64::MAX] {
            for nth in [2usize, 3, 4, 128] {
                for trip in [0u64, 10, 1 << 40] {
                    let mut claims: Vec<Range<u64>> = (0..nth)
                        .flat_map(|tid| StaticChunked::new(tid, nth, trip, chunk).take(3))
                        .collect();
                    claims.sort_by_key(|r| r.start);
                    let want = [(trip > 0).then_some(0..trip)];
                    assert_eq!(claims, want.into_iter().flatten().collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn dynamic_dispatch_covers_exactly() {
        let d = DynamicDispatch::new(103, 2, Some(10));
        let mut seen = [false; 103];
        let mut claims = 0;
        for tid in [0, 1] {
            while let Some(r) = d.next(tid) {
                assert!(r.end - r.start <= 10 * STEAL_BATCH, "batch exceeded");
                claims += 1;
                for i in r {
                    assert!(!seen[i as usize]);
                    seen[i as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(
            claims >= 2,
            "{claims} claims of at most 80 cannot cover 103"
        );
    }

    /// The serialized-team contract of [`crate::kmpc::WsLoop`], for every
    /// schedule, at a team of one and orphaned: the first claim is
    /// `[0, trip)` (nothing for an empty loop), the next is nothing, and
    /// no construct slot is taken — also past [`STEAL_MAX_TRIP`].
    #[test]
    fn team_of_one_claims_the_whole_loop_once() {
        use crate::kmpc::WsLoop;
        use crate::team::{fork_call, Parallel, ThreadCtx};
        fn claims(
            ctx: Option<&ThreadCtx<'_>>,
            sched: Schedule,
            trip: u64,
        ) -> [Option<Range<u64>>; 2] {
            let mut ws = WsLoop::begin(ctx, sched, trip, None).expect("valid schedule");
            let got = [ws.next(), ws.next()];
            ws.end();
            got
        }
        for trip in [0, 1, 2, 127, 128, 129, 1000, STEAL_MAX_TRIP + 10] {
            let whole = [(trip > 0).then_some(0..trip), None];
            for chunk in [None, Some(1), Some(7)] {
                for kind in [
                    ScheduleKind::Static,
                    ScheduleKind::Dynamic,
                    ScheduleKind::Guided,
                    ScheduleKind::Runtime,
                ] {
                    let sched = Schedule { kind, chunk };
                    let what = format!("{sched:?}, trip {trip}");
                    assert_eq!(claims(None, sched, trip), whole, "orphaned {what}");
                    fork_call(Parallel::new().num_threads(1), |ctx| {
                        assert_eq!(claims(Some(ctx), sched, trip), whole, "{what}");
                        assert_eq!(ctx.constructs_entered(), 0, "{what}: slot taken");
                    });
                }
            }
        }
    }

    #[test]
    fn dynamic_single_caller_drains_all_slots_by_stealing() {
        // With a 4-way deck but only thread 0 pulling, the other threads'
        // ranges must be reached via the steal path.
        let d = DynamicDispatch::new(1000, 4, Some(7));
        let mut seen = [false; 1000];
        while let Some(r) = d.next(0) {
            assert!(r.end - r.start <= 7 * STEAL_BATCH);
            for i in r {
                assert!(!seen[i as usize], "iteration {i} executed twice");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "steal path missed iterations");
    }

    #[test]
    fn dynamic_concurrent_exactly_once() {
        use std::sync::atomic::AtomicU8;
        const TRIP: usize = 50_000;
        const NTH: usize = 4;
        let d = DynamicDispatch::new(TRIP as u64, NTH, Some(3));
        let hits: Vec<AtomicU8> = (0..TRIP).map(|_| AtomicU8::new(0)).collect();
        std::thread::scope(|s| {
            for tid in 0..NTH {
                let d = &d;
                let hits = &hits;
                s.spawn(move || {
                    while let Some(r) = d.next(tid) {
                        for i in r {
                            hits[i as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn origins_distinguish_owned_and_stolen() {
        // Thread 0 draining a 4-way deck alone must claim its own block
        // (Owned) and reach the other blocks through steals (Stolen).
        let d = DynamicDispatch::new(1000, 4, Some(7));
        let (mut owned, mut stolen) = (0u64, 0u64);
        let mut total = 0u64;
        while let Some((r, o)) = d.next_with_origin(0) {
            total += r.end - r.start;
            match o {
                ChunkOrigin::Owned => owned += 1,
                ChunkOrigin::Stolen => stolen += 1,
            }
        }
        assert_eq!(total, 1000);
        assert!(owned > 0, "own block must be claimed locally");
        assert!(stolen > 0, "other blocks must be reached by stealing");
    }

    /// The default chunk is 1, so a claim is a batch of `STEAL_BATCH`
    /// iterations off the thread's own block.
    #[test]
    fn dynamic_default_chunk_is_one() {
        let d = DynamicDispatch::new(40, 2, None);
        assert_eq!(d.next(0), Some(0..8));
        assert_eq!(d.next(1), Some(20..28));
    }

    #[test]
    #[should_panic(expected = "exceeds STEAL_MAX_TRIP")]
    fn dispatch_past_steal_max_trip_panics() {
        DynamicDispatch::new(STEAL_MAX_TRIP + 1, 2, None);
    }

    #[test]
    fn dynamic_empty_loop() {
        let d = DynamicDispatch::new(0, 4, Some(4));
        for tid in 0..4 {
            assert_eq!(d.next(tid), None);
        }
    }

    #[test]
    fn guided_chunks_decay_and_cover() {
        // Thread 1 of a team of 2 drains its own slot of 500 first, so
        // the classic decay shape is exactly reproduced there (first
        // chunk = half the slot), then thread 0 drains the rest.
        let g = GuidedDispatch::new(1000, 2, None);
        let mut chunks = vec![];
        let mut covered = 500;
        while covered < 1000 {
            let r = g.next(1).unwrap();
            assert_eq!(r.start, covered, "guided chunks are contiguous");
            covered = r.end;
            chunks.push(r.end - r.start);
        }
        assert_eq!(chunks[0], 250);
        for w in chunks.windows(2) {
            assert!(w[1] <= w[0], "guided chunk sizes must not grow");
        }
        // Tail chunks bottom out at the minimum chunk size (1 here).
        assert_eq!(*chunks.last().unwrap(), 1);
        let mut rest = 0;
        while let Some(r) = g.next(0) {
            rest += r.end - r.start;
        }
        assert_eq!(rest, 500);
    }

    #[test]
    fn guided_first_chunk_matches_global_formula() {
        // 4 slots of 250 each; the first claim halves the local share:
        // 125 = trip / (2 * nth), the paper's guided first-chunk size.
        let g = GuidedDispatch::new(1000, 4, None);
        let r = g.next(0).unwrap();
        assert_eq!(r.end - r.start, 125);
    }

    #[test]
    fn guided_single_caller_drains_all_slots_by_stealing() {
        let g = GuidedDispatch::new(997, 8, Some(5));
        let mut seen = [false; 997];
        while let Some(r) = g.next(3) {
            for i in r {
                assert!(!seen[i as usize], "iteration {i} executed twice");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn guided_respects_min_chunk() {
        let g = GuidedDispatch::new(100, 8, Some(10));
        let mut sizes = vec![];
        let mut total = 0u64;
        while let Some(r) = g.next(0) {
            sizes.push(r.end - r.start);
            total += r.end - r.start;
        }
        // Claims honour the minimum except where a range fragment (slot or
        // steal split) runs out below it.
        let below_min = sizes.iter().filter(|&&s| s < 10).count();
        assert!(below_min <= 24, "too many sub-minimum claims: {sizes:?}");
        assert_eq!(total, 100);
    }
}
