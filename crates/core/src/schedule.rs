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
//! shared cursor (kept in [`legacy`] as fallback and benchmark baseline),
//! the iteration space is carved into per-thread, cache-line-padded ranges
//! up front and threads *steal half* of a victim's remaining range when
//! their own runs dry ([`StealDeck`]). Entry-point semantics are unchanged:
//! `__kmpc_dispatch_next` still hands each caller disjoint chunks until the
//! space is exhausted.
//!
//! Loop bounds are extracted from the source loop exactly as §III-B2
//! describes (lower bound from the init expression, upper bound and
//! comparison operator from the condition, increment from the continuation
//! expression); [`LoopBounds`] normalises all of that to a trip count.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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
        Ok(StaticChunked {
            next_start: tid as u64 * chunk,
            stride: chunk * nth as u64,
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
        let end = (start + self.chunk).min(self.trip);
        self.next_start = match start.checked_add(self.stride) {
            Some(v) => v,
            None => self.trip,
        };
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
/// `Owned` covers claims served from the calling thread's own deck slot or
/// owner-private batch cache (including remainders a previous steal
/// published there — the *claim* itself was local and uncontended), plus
/// every static-schedule chunk and the legacy shared-cursor protocols.
/// `Stolen` marks claims that CAS-carved a range out of a victim's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkOrigin {
    Owned,
    Stolen,
}

/// Largest trip count the work-stealing deck handles: ranges are packed as
/// two `u32` halves into one `AtomicU64`, and the owner's fetch-add claims
/// need headroom in the low half (see [`StealSlot::range`]). Loops longer
/// than this fall back to the [`legacy`] shared-cursor protocol.
pub const STEAL_MAX_TRIP: u64 = 1 << 31;

/// Owner claims are batched: one atomic RMW claims `chunk * STEAL_BATCH`
/// iterations into an owner-private cache, which then serves `chunk`-sized
/// pieces with no atomics at all. This amortises the per-chunk atomic cost
/// that made the shared cursor the fork/dispatch bottleneck. Public so the
/// analytic simulator's dispatch cost model stays in sync with the runtime.
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

/// One thread's share of the iteration space, padded to its own cache line.
struct StealSlot {
    /// Remaining owned range packed as `(hi << 32) | lo`. The owner advances
    /// `lo` (a fetch-add on the low half); thieves shrink `hi` by CAS-ing the
    /// whole word. `lo` may overshoot `hi` by at most one batch (the owner
    /// pre-checks emptiness before fetch-adding), so with `hi <= 2^31` and
    /// batches capped at [`STEAL_BATCH_CAP`] the low half never carries into
    /// the high half.
    range: AtomicU64,
    /// Owner-private cache of one claimed batch `(lo, hi, stolen)`, drained
    /// chunk-by-chunk without touching shared state; `stolen` remembers the
    /// batch's [`ChunkOrigin`] for tracing. Never read or written by other
    /// threads (see the `Sync` impl note).
    local: UnsafeCell<(u32, u32, bool)>,
}

// SAFETY: `local` is only ever accessed by the slot's owning thread — the
// `next(tid)` contract says each thread passes its own team id. All
// cross-thread traffic goes through the atomic `range` word.
unsafe impl Sync for StealSlot {}

/// Work-stealing dispatch core shared by [`DynamicDispatch`] and
/// [`GuidedDispatch`].
///
/// The iteration space is carved into `nth` contiguous blocks (the same
/// partition as `schedule(static)`) held in per-thread [`StealSlot`]s. A
/// thread claims from its own slot until it drains, then steals the upper
/// half of a victim's remaining range, keeps one batch, and publishes the
/// rest in its own slot for others to steal in turn.
///
/// All atomics here are `Relaxed`: the claimed bounds travel *inside* the
/// atomic word itself, atomic RMWs guarantee each iteration is claimed
/// exactly once regardless of ordering, and the loop body's user data is
/// ordered by the construct's barriers, not by the dispatch protocol.
pub(crate) struct StealDeck {
    slots: Box<[CachePadded<StealSlot>]>,
    /// Has any thread ever entered the steal path on this deck? Sticky,
    /// set before the victim scan. While false, every slot's remaining
    /// range is untouched by thieves, so bulk claimants
    /// ([`Self::next_dynamic_bulk`]) may take their whole batch in one
    /// claim without starving anyone: a thread that *would* want to
    /// steal flips the flag first, and from then on bulk claims degrade
    /// to the chunk-at-a-time protocol that leaves stealable remainders.
    contended: AtomicBool,
}

impl StealDeck {
    fn new(trip: u64, nth: usize) -> Self {
        debug_assert!(trip <= STEAL_MAX_TRIP && nth > 1);
        let slots = (0..nth)
            .map(|tid| {
                let r = static_block(tid, nth, trip);
                CachePadded::new(StealSlot {
                    range: AtomicU64::new(pack(r.start as u32, r.end as u32)),
                    local: UnsafeCell::new((0, 0, false)),
                })
            })
            .collect();
        StealDeck {
            slots,
            contended: AtomicBool::new(false),
        }
    }

    /// Claim up to `want` iterations from this thread's own slot.
    #[inline]
    fn claim_local(&self, tid: usize, want: u64) -> Option<(u32, u32)> {
        let slot = &self.slots[tid];
        // Pre-check emptiness so repeated calls on a drained slot never
        // fetch-add: this bounds `lo`'s overshoot past `hi` to one batch,
        // which the packing headroom absorbs.
        let (lo, hi) = unpack(slot.range.load(Ordering::Relaxed));
        if lo >= hi {
            return None;
        }
        let (lo, hi) = unpack(slot.range.fetch_add(want, Ordering::Relaxed));
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
        // Sticky contention mark, set *before* scanning victims so a bulk
        // claimant racing this thief sees the flag no later than the thief
        // sees the claimant's slot state (both sides are RMW/load on the
        // same slot words; the flag is advisory — see `next_dynamic_bulk`).
        self.contended.store(true, Ordering::Relaxed);
        let n = self.slots.len();
        for off in 1..n {
            let slot = &self.slots[(tid + off) % n];
            loop {
                let w = slot.range.load(Ordering::Relaxed);
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
                    .range
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
        self.slots[tid].range.store(pack(lo, hi), Ordering::Relaxed);
    }

    /// `schedule(dynamic)` claim protocol: fixed `chunk`-sized pieces, with
    /// owner claims batched [`STEAL_BATCH`] chunks at a time.
    #[inline]
    fn next_dynamic(&self, tid: usize, chunk: u64) -> Option<(Range<u64>, ChunkOrigin)> {
        let slot = &self.slots[tid];
        // SAFETY: `local` is owner-private per the `next(tid)` contract.
        let cache = unsafe { &mut *slot.local.get() };
        loop {
            if cache.0 < cache.1 {
                let lo = cache.0;
                let hi = ((lo as u64 + chunk).min(cache.1 as u64)) as u32;
                cache.0 = hi;
                let origin = if cache.2 {
                    ChunkOrigin::Stolen
                } else {
                    ChunkOrigin::Owned
                };
                return Some((lo as u64..hi as u64, origin));
            }
            let batch = (chunk.saturating_mul(STEAL_BATCH)).min(STEAL_BATCH_CAP);
            if let Some((lo, hi)) = self.claim_local(tid, batch) {
                *cache = (lo, hi, false);
                continue;
            }
            match self.steal(tid, 1) {
                Some((lo, hi)) => {
                    // Keep one batch for ourselves, publish the rest.
                    let take = ((lo as u64 + batch).min(hi as u64)) as u32;
                    *cache = (lo, take, true);
                    if take < hi {
                        self.install(tid, take, hi);
                    }
                }
                None => return None,
            }
        }
    }

    /// Bulk variant of [`Self::next_dynamic`] for claimants whose chunk
    /// body is a single native kernel (`--opt=3` `BulkLoop`): while the
    /// deck is uncontended, hand back the *entire* owner batch in one
    /// claim instead of `chunk`-sized pieces, amortising the claim
    /// protocol (and the VM's per-chunk `ws_next`/kernel-entry overhead)
    /// across `chunk * STEAL_BATCH` iterations.
    ///
    /// The contention flag is advisory, not a lock: a thief that races a
    /// bulk claim still operates on the same atomic range words, so every
    /// iteration is claimed exactly once either way — a lost race only
    /// means one oversized chunk that could have been split. Once the
    /// flag is up it stays up, and this degrades to `next_dynamic`
    /// exactly, preserving stealable remainders under real contention.
    #[inline]
    fn next_dynamic_bulk(&self, tid: usize, chunk: u64) -> Option<(Range<u64>, ChunkOrigin)> {
        if self.contended.load(Ordering::Relaxed) {
            return self.next_dynamic(tid, chunk);
        }
        let slot = &self.slots[tid];
        // SAFETY: `local` is owner-private per the `next(tid)` contract.
        let cache = unsafe { &mut *slot.local.get() };
        if cache.0 < cache.1 {
            // Drain whatever a previous chunked claim left cached.
            let (lo, hi) = (cache.0, cache.1);
            cache.0 = hi;
            let origin = if cache.2 {
                ChunkOrigin::Stolen
            } else {
                ChunkOrigin::Owned
            };
            return Some((lo as u64..hi as u64, origin));
        }
        let batch = (chunk.saturating_mul(STEAL_BATCH)).min(STEAL_BATCH_CAP);
        if let Some((lo, hi)) = self.claim_local(tid, batch) {
            return Some((lo as u64..hi as u64, ChunkOrigin::Owned));
        }
        // Own slot drained: fall back to the stealing protocol (which
        // raises the contention flag before touching any victim).
        self.next_dynamic(tid, chunk)
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
            let w = slot.range.load(Ordering::Relaxed);
            let (lo, hi) = unpack(w);
            if lo < hi {
                let take = sized((hi - lo) as u64);
                if slot
                    .range
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
                let (lo, hi) = unpack(s.range.load(Ordering::Relaxed));
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
/// steal-half on drain). Loops longer than [`STEAL_MAX_TRIP`], and a deck
/// of one thread (which `WsLoop` never builds), use the
/// [`legacy::SharedCursorDispatch`] single-cursor protocol instead.
#[derive(Debug)]
pub struct DynamicDispatch {
    core: DynCore,
    chunk: u64,
}

#[derive(Debug)]
enum DynCore {
    Steal(StealDeck),
    Legacy(legacy::SharedCursorDispatch),
}

impl DynamicDispatch {
    pub fn new(trip: u64, nth: usize, chunk: Option<i64>) -> Self {
        let chunk = chunk
            .map(|c| c.max(1) as u64)
            .unwrap_or(DYNAMIC_DEFAULT_CHUNK);
        let core = if nth > 1 && trip <= STEAL_MAX_TRIP {
            DynCore::Steal(StealDeck::new(trip, nth))
        } else {
            DynCore::Legacy(legacy::SharedCursorDispatch::new(trip, chunk))
        };
        DynamicDispatch { core, chunk }
    }

    /// Claim the next chunk for thread `tid`, or `None` when this thread's
    /// range has drained and no victim has work left to steal.
    ///
    /// Each thread must pass its own team id: per-thread state keyed by
    /// `tid` is accessed without locks.
    #[inline]
    pub fn next(&self, tid: usize) -> Option<Range<u64>> {
        self.next_with_origin(tid).map(|(r, _)| r)
    }

    /// [`next`](Self::next) plus the chunk's claim-path provenance, for the
    /// observability layer.
    #[inline]
    pub fn next_with_origin(&self, tid: usize) -> Option<(Range<u64>, ChunkOrigin)> {
        match &self.core {
            DynCore::Steal(deck) => deck.next_dynamic(tid, self.chunk),
            DynCore::Legacy(d) => d.next().map(|r| (r, ChunkOrigin::Owned)),
        }
    }

    /// Bulk claim for single-kernel chunk bodies: whole owner batches
    /// while the deck is uncontended, [`Self::next_with_origin`]'s
    /// chunk-at-a-time protocol once any thread has entered the steal
    /// path. The legacy shared-cursor core has no per-thread slots to
    /// coarsen, so it dispatches unchanged.
    #[inline]
    pub fn next_bulk_with_origin(&self, tid: usize) -> Option<(Range<u64>, ChunkOrigin)> {
        match &self.core {
            DynCore::Steal(deck) => deck.next_dynamic_bulk(tid, self.chunk),
            DynCore::Legacy(d) => d.next().map(|r| (r, ChunkOrigin::Owned)),
        }
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
    core: GuidedCore,
    min_chunk: u64,
}

#[derive(Debug)]
enum GuidedCore {
    Steal(StealDeck),
    Legacy(legacy::SharedGuidedDispatch),
}

impl GuidedDispatch {
    pub fn new(trip: u64, nth: usize, chunk: Option<i64>) -> Self {
        let min_chunk = chunk.map(|c| c.max(1) as u64).unwrap_or(1);
        let core = if nth > 1 && trip <= STEAL_MAX_TRIP {
            GuidedCore::Steal(StealDeck::new(trip, nth))
        } else {
            GuidedCore::Legacy(legacy::SharedGuidedDispatch::new(trip, nth, min_chunk))
        };
        GuidedDispatch { core, min_chunk }
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
        match &self.core {
            GuidedCore::Steal(deck) => deck.next_guided(tid, self.min_chunk),
            GuidedCore::Legacy(g) => g.next().map(|r| (r, ChunkOrigin::Owned)),
        }
    }
}

/// The pre-stealing shared-state dispatch protocols.
///
/// They serve loops longer than [`STEAL_MAX_TRIP`] (whose ranges don't fit
/// the packed-`u32` steal words), and the `zomp-bench` crate as the
/// baseline for the work-stealing protocol.
pub mod legacy {
    use super::*;

    /// Single shared atomic cursor; every chunk claim is one contended
    /// fetch-add on the same cache line.
    #[derive(Debug)]
    pub struct SharedCursorDispatch {
        cursor: AtomicU64,
        trip: u64,
        chunk: u64,
    }

    impl SharedCursorDispatch {
        pub fn new(trip: u64, chunk: u64) -> Self {
            SharedCursorDispatch {
                cursor: AtomicU64::new(0),
                trip,
                chunk: chunk.max(1),
            }
        }

        /// Claim the next chunk, or `None` once the space is exhausted.
        #[inline]
        pub fn next(&self) -> Option<Range<u64>> {
            // Relaxed: the claimed start travels in the RMW result itself
            // and user data is ordered by the construct barriers.
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.trip {
                return None;
            }
            Some(start..(start + self.chunk).min(self.trip))
        }
    }

    /// Single shared `taken` cell claimed with a CAS loop; chunk sizes
    /// follow the classic global `ceil(remaining / (2 * nth))` formula.
    #[derive(Debug)]
    pub struct SharedGuidedDispatch {
        taken: AtomicU64,
        trip: u64,
        nth: u64,
        min_chunk: u64,
    }

    impl SharedGuidedDispatch {
        pub fn new(trip: u64, nth: usize, min_chunk: u64) -> Self {
            SharedGuidedDispatch {
                taken: AtomicU64::new(0),
                trip,
                nth: nth.max(1) as u64,
                min_chunk: min_chunk.max(1),
            }
        }

        /// Claim the next (decaying) chunk.
        pub fn next(&self) -> Option<Range<u64>> {
            loop {
                // Relaxed load/CAS: value-only protocol, same as above.
                let taken = self.taken.load(Ordering::Relaxed);
                if taken >= self.trip {
                    return None;
                }
                let remaining = self.trip - taken;
                let chunk = (remaining.div_ceil(2 * self.nth)).max(self.min_chunk);
                let chunk = chunk.min(remaining);
                match self.taken.compare_exchange_weak(
                    taken,
                    taken + chunk,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Some(taken..taken + chunk),
                    Err(_) => continue,
                }
            }
        }
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

    #[test]
    fn dynamic_dispatch_covers_exactly() {
        let d = DynamicDispatch::new(103, 2, Some(10));
        let mut seen = [false; 103];
        let mut claims = 0;
        for tid in [0, 1] {
            while let Some(r) = d.next(tid) {
                assert!(r.end - r.start <= 10, "chunk granularity exceeded");
                claims += 1;
                for i in r {
                    assert!(!seen[i as usize]);
                    seen[i as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(
            claims >= 11,
            "{claims} claims of at most 10 cannot cover 103"
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
            bulk: bool,
        ) -> [Option<Range<u64>>; 2] {
            let mut ws = WsLoop::begin(ctx, sched, trip, None).expect("valid schedule");
            let mut next = || if bulk { ws.next_bulk() } else { ws.next() };
            let got = [next(), next()];
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
                    for bulk in [false, true] {
                        let what = format!("{sched:?}, trip {trip}, bulk {bulk}");
                        assert_eq!(claims(None, sched, trip, bulk), whole, "orphaned {what}");
                        fork_call(Parallel::new().num_threads(1), |ctx| {
                            assert_eq!(claims(Some(ctx), sched, trip, bulk), whole, "{what}");
                            assert_eq!(ctx.constructs_entered(), 0, "{what}: slot taken");
                        });
                    }
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
            assert!(r.end - r.start <= 7);
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
        // Legacy fallback reports everything as Owned.
        let d = DynamicDispatch::new(STEAL_MAX_TRIP + 10, 4, Some(1 << 20));
        assert_eq!(d.next_with_origin(2).unwrap().1, ChunkOrigin::Owned);
    }

    #[test]
    fn dynamic_default_chunk_is_one() {
        let d = DynamicDispatch::new(5, 2, None);
        assert_eq!(d.next(0), Some(0..1));
        assert_eq!(d.next(1), Some(3..4));
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

    #[test]
    fn legacy_shared_cursor_matches_old_protocol() {
        let d = legacy::SharedCursorDispatch::new(103, 10);
        let mut covered = 0;
        while let Some(r) = d.next() {
            assert_eq!(r.start, covered, "shared cursor chunks are sequential");
            covered = r.end;
        }
        assert_eq!(covered, 103);
    }

    #[test]
    fn legacy_guided_first_chunk_is_global_formula() {
        let g = legacy::SharedGuidedDispatch::new(1000, 4, 1);
        let mut covered = 0;
        let mut first = None;
        while let Some(r) = g.next() {
            assert_eq!(r.start, covered);
            covered = r.end;
            first.get_or_insert(r.end - r.start);
        }
        assert_eq!(covered, 1000);
        assert_eq!(first, Some(125)); // remaining / (2 * nth)
    }

    #[test]
    fn huge_trip_falls_back_to_legacy() {
        let d = DynamicDispatch::new(STEAL_MAX_TRIP + 10, 4, Some(1 << 20));
        assert!(matches!(d.core, DynCore::Legacy(_)));
        // First chunks are sequential from 0 (shared-cursor behaviour).
        assert_eq!(d.next(2), Some(0..(1 << 20)));
        let g = GuidedDispatch::new(STEAL_MAX_TRIP + 10, 4, None);
        assert!(matches!(g.core, GuidedCore::Legacy(_)));
        assert!(g.next(1).unwrap().start == 0);
    }
}
