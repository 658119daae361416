//! OMPT-style runtime observability: per-thread event tracing, scheduler
//! and barrier counters, and Chrome-trace / JSON exporters.
//!
//! OpenMP exposes runtime introspection through the OMPT tool interface:
//! the runtime reports fork/join, dispatch and synchronisation activity
//! to a tool. This module is that layer for zomp, designed around the
//! constraint the paper's §VI profiling proposal implies ("similar to that
//! of gprof" — always compiled in, negligible when off). The runtime
//! reports what it saw through two sinks, each switched by one bit of a
//! mode byte:
//!
//! * **Disabled path**: one relaxed load of the mode byte ([`mode`]). No
//!   timestamps, no allocation, no locks.
//! * **Events** ([`EVENTS`]): spans go to *lock-free per-thread rings* —
//!   cache-line padded, fixed capacity ([`RING_CAP`]), owner-only writes
//!   published with a single release store. A full ring drops new events
//!   and counts them ([`MetricsSnapshot::events_dropped`]); earlier events
//!   are never corrupted.
//! * **Counters** ([`COUNTERS`]): per-thread relaxed counters (chunks
//!   owned vs stolen, steal failures, barrier spin vs park resolutions,
//!   dispatch init/fini calls, …) folded into a [`MetricsSnapshot`] on
//!   demand.
//!
//! Two exporters build [`Json`] documents: [`chrome_trace_json`] in the
//! Chrome Trace Event Format (load the file in `chrome://tracing` or
//! Perfetto: one row per OS thread, one slice per region / loop / chunk /
//! barrier wait), and [`metrics_json`] from the counter snapshot. Both are
//! also reachable without code changes through the `ZOMP_TRACE=<path>` and
//! `ZOMP_METRICS=<path>` environment variables (see [`init_from_env`] /
//! [`finish`], called by the shipped binaries).
//!
//! Events are recorded as *complete spans* (begin time + duration) rather
//! than begin/end pairs: a span is written once, at its end, by the thread
//! that owns it — so concurrent teams on the shared worker pool can never
//! interleave half-open pairs, and the Chrome exporter maps each record to
//! one `"ph":"X"` slice with no matching step.

use std::cell::UnsafeCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use crate::json::{obj, Json};
use crate::pad::CachePadded;
use crate::schedule::ChunkOrigin;

// ---------------------------------------------------------------------------
// Mode
// ---------------------------------------------------------------------------

/// Mode bit: aggregate per-thread counters ([`metrics`]).
pub const COUNTERS: u8 = 1;
/// Mode bit: record events into the per-thread rings (exporters, profile).
pub const EVENTS: u8 = 2;

/// The global observability mode byte. Relaxed everywhere: it is an
/// independent on/off switch; recorded data is ordered by the rings' own
/// release/acquire edges.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Current mode bits — **the** disabled-path check: a single relaxed load.
#[inline]
pub fn mode() -> u8 {
    MODE.load(Ordering::Relaxed)
}

/// Is any instrumentation active?
#[inline]
pub fn active() -> bool {
    mode() != 0
}

/// Turn on aggregate counters.
pub fn enable_counters() {
    MODE.fetch_or(COUNTERS, Ordering::Relaxed);
}

/// Turn on event recording (implies nothing else; most users want
/// counters too — [`crate::profile::enable`] sets both).
pub fn enable_events() {
    MODE.fetch_or(EVENTS, Ordering::Relaxed);
}

/// Turn off the given mode bits (recorded data is kept).
pub fn disable(bits: u8) {
    MODE.fetch_and(!bits, Ordering::Relaxed);
}

/// Turn everything off (recorded data is kept).
pub fn disable_all() {
    MODE.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the first observability call of the process. Never 0,
/// so 0 can serve as the "was disabled at begin" sentinel in span guards.
#[inline]
pub fn now_ns() -> u64 {
    (epoch().elapsed().as_nanos() as u64).max(1)
}

/// [`now_ns`] when any instrumentation is on, else the 0 sentinel: the
/// begin stamp of a region, barrier wait or join wait. The `*_end` helpers
/// record no event for a sentinel begin (the mode flipped mid-span),
/// keeping spans internally consistent.
#[inline]
pub(crate) fn stamp() -> u64 {
    if mode() == 0 {
        0
    } else {
        now_ns()
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What a recorded span measures. The payload words `a`/`b` are
/// kind-specific (team size, chunk bounds, parked flag, trip count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A parallel region on its master thread (`a` = team size).
    Parallel,
    /// A parallel region's outlined body on a worker thread (`a` = team
    /// size). Split from [`EventKind::Parallel`] so region invocation
    /// counts don't multiply by the team size.
    Implicit,
    /// The master waiting on the join latch (`__kmpc_fork_call`'s join).
    TaskWait,
    /// One worksharing-loop construct on one thread, from init to fini
    /// (`a` = trip count). Chunk spans nest inside; the difference is
    /// dispatch overhead.
    LoopDispatch,
    /// Executing one chunk claimed from the thread's own deck slot
    /// (`a` = first iteration, `b` = length).
    ChunkOwned,
    /// Executing one chunk stolen from a victim's deck (`a`/`b` as above).
    ChunkStolen,
    /// Waiting in a barrier (`a` = 1 if the wait parked on the condvar,
    /// 0 if it resolved while spinning).
    BarrierWait,
    /// One atomic merge into a reduction cell.
    ReductionCombine,
    /// One native bulk-kernel execution (`--opt=3` tier): `a` = iterations
    /// completed natively, `b` = the loop-head pc it ran at. Labelled with
    /// the worksharing pragma's `unit:line` (falling back to the kernel
    /// shape name). A bail is the [`EventKind::KernelBail`] beside it.
    BulkLoop,
    /// A kernel bail, recorded alongside its [`EventKind::BulkLoop`] span:
    /// the label is the machine-readable reason, `a` = the loop-head pc,
    /// `b` = iterations completed before the bail.
    KernelBail,
    /// A native tier took its slow path without bailing (`a` = pc). The
    /// label names it: `"lcg-fill:sequential"`, a fill that ran one
    /// stream because its seed or multiplier was not exact.
    Deopt,
}

impl EventKind {
    /// Short name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Parallel => "parallel",
            EventKind::Implicit => "implicit task",
            EventKind::TaskWait => "task wait",
            EventKind::LoopDispatch => "loop",
            EventKind::ChunkOwned => "chunk (owned)",
            EventKind::ChunkStolen => "chunk (stolen)",
            EventKind::BarrierWait => "barrier wait",
            EventKind::ReductionCombine => "reduction",
            EventKind::BulkLoop => "bulk loop",
            EventKind::KernelBail => "kernel bail",
            EventKind::Deopt => "deopt",
        }
    }
}

/// One recorded span. `Copy` so ring slots need no drop glue; labels are
/// interned `&'static str` ([`intern`]).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub kind: EventKind,
    /// Span start, [`now_ns`] units.
    pub t_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    pub b: u64,
    /// Construct label (region `file:line`, schedule kind, …); `""` if
    /// none.
    pub label: &'static str,
}

const EMPTY_EVENT: Event = Event {
    kind: EventKind::Parallel,
    t_ns: 0,
    dur_ns: 0,
    a: 0,
    b: 0,
    label: "",
};

/// Fixed capacity of each per-thread event ring. Once full, new events are
/// dropped and counted; earlier events stay intact (`len` is monotonic, so
/// a published slot is never rewritten).
pub const RING_CAP: usize = 1 << 13;

/// Per-thread aggregate counters. Owner-incremented with relaxed RMWs (the
/// owner is the only writer; readers fold racily-but-monotonically).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub regions: AtomicU64,
    pub chunks_owned: AtomicU64,
    pub chunks_stolen: AtomicU64,
    pub iters_owned: AtomicU64,
    pub iters_stolen: AtomicU64,
    pub steal_failures: AtomicU64,
    pub barrier_waits: AtomicU64,
    pub barrier_spins: AtomicU64,
    pub barrier_parks: AtomicU64,
    pub dispatch_inits: AtomicU64,
    pub dispatch_finis: AtomicU64,
    pub reductions: AtomicU64,
    pub task_waits: AtomicU64,
    pub kernel_enters: AtomicU64,
    pub kernel_iters: AtomicU64,
    pub kernel_bails: AtomicU64,
    pub deopts: AtomicU64,
}

/// One OS thread's event ring + counters, padded so neighbouring threads'
/// hot words never share a cache line.
pub(crate) struct ThreadRing {
    /// Slots `[0, len)` are published. Written only by the owning thread;
    /// a slot is written exactly once, *before* the `len` release store
    /// that publishes it, and `len` never decreases — so readers that
    /// acquire `len` see fully initialised, immutable events.
    events: Box<[UnsafeCell<Event>]>,
    /// Publication cursor (release store by owner, acquire load by
    /// readers). Saturates at [`RING_CAP`].
    len: CachePadded<AtomicUsize>,
    /// Read floor: [`reset`] advances it so exporters/reports only fold
    /// events recorded after the last reset. Written by readers only.
    start: AtomicUsize,
    /// Events refused because the ring was full.
    dropped: AtomicU64,
    counters: CachePadded<Counters>,
    /// OS thread name at registration (exporter row label).
    name: String,
    /// Stable registry index (exporter row id).
    seq: usize,
}

// SAFETY: `events[i]` is written once by the owner before the release
// store of `len = i + 1`, and never rewritten (`len` is monotonic; `start`
// only moves the read floor). Readers only dereference slots below an
// acquired `len`.
unsafe impl Sync for ThreadRing {}
unsafe impl Send for ThreadRing {}

impl ThreadRing {
    fn new(seq: usize) -> Self {
        let name = std::thread::current()
            .name()
            .map(|n| n.to_string())
            .unwrap_or_else(|| format!("thread-{seq}"));
        ThreadRing {
            events: (0..RING_CAP)
                .map(|_| UnsafeCell::new(EMPTY_EVENT))
                .collect(),
            len: CachePadded::new(AtomicUsize::new(0)),
            start: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            counters: CachePadded::new(Counters::default()),
            name,
            seq,
        }
    }

    /// Owner-only: append one event, or count a drop if full.
    fn push(&self, ev: Event) {
        // Relaxed read of our own previous store.
        let len = self.len.load(Ordering::Relaxed);
        if len >= RING_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: owner-only write to an unpublished slot.
        unsafe { *self.events[len].get() = ev };
        // Release pairs with readers' acquire of `len`.
        self.len.store(len + 1, Ordering::Release);
    }

    /// Reader: snapshot the published events after the read floor.
    fn snapshot(&self) -> Vec<Event> {
        let end = self.len.load(Ordering::Acquire).min(RING_CAP);
        let start = self.start.load(Ordering::Relaxed).min(end);
        (start..end)
            // SAFETY: slots below the acquired `len` are published and
            // immutable (see the `Sync` impl note).
            .map(|i| unsafe { *self.events[i].get() })
            .collect()
    }
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static REG: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static RING: std::cell::RefCell<Option<Arc<ThreadRing>>> =
        const { std::cell::RefCell::new(None) };
}

/// Run `f` with the calling thread's ring, registering it on first use.
/// The registration mutex is taken once per thread lifetime, never on the
/// per-event path.
fn with_ring<R>(f: impl FnOnce(&ThreadRing) -> R) -> R {
    RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_none() {
            let mut reg = registry().lock();
            let ring = Arc::new(ThreadRing::new(reg.len()));
            reg.push(Arc::clone(&ring));
            *slot = Some(ring);
        }
        f(slot.as_ref().unwrap())
    })
}

#[inline]
fn record(ev: Event) {
    with_ring(|r| r.push(ev));
}

#[inline]
fn count(f: impl Fn(&Counters)) {
    with_ring(|r| f(&r.counters));
}

/// All rings' events (after their read floors), tagged with the ring's
/// display row. Used by the exporters and [`crate::profile`].
pub(crate) fn all_events() -> Vec<(usize, String, Vec<Event>)> {
    let rings: Vec<Arc<ThreadRing>> = registry().lock().clone();
    rings
        .iter()
        .map(|r| (r.seq, r.name.clone(), r.snapshot()))
        .collect()
}

/// Forget recorded events and zero the counters. Ring capacity already
/// consumed stays consumed (slots are write-once); only the read floor
/// moves. Counter zeroing is racy against concurrently running teams —
/// call between regions, as the tests and binaries do.
pub fn reset() {
    let rings: Vec<Arc<ThreadRing>> = registry().lock().clone();
    for r in rings {
        let len = r.len.load(Ordering::Acquire).min(RING_CAP);
        r.start.store(len, Ordering::Relaxed);
        r.dropped.store(0, Ordering::Relaxed);
        let c = &r.counters;
        for a in [
            &c.regions,
            &c.chunks_owned,
            &c.chunks_stolen,
            &c.iters_owned,
            &c.iters_stolen,
            &c.steal_failures,
            &c.barrier_waits,
            &c.barrier_spins,
            &c.barrier_parks,
            &c.dispatch_inits,
            &c.dispatch_finis,
            &c.reductions,
            &c.task_waits,
            &c.kernel_enters,
            &c.kernel_iters,
            &c.kernel_bails,
            &c.deopts,
        ] {
            a.store(0, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Label interning
// ---------------------------------------------------------------------------

/// Intern a label so events (which are `Copy`) can carry it as
/// `&'static str`. Interning is cold-path only (region entry with tracing
/// on, front-end label resolution); repeated labels cost one hash lookup.
pub fn intern(s: &str) -> &'static str {
    static SET: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let set = SET.get_or_init(|| Mutex::new(HashSet::new()));
    let mut g = set.lock();
    if let Some(&hit) = g.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    g.insert(leaked);
    leaked
}

/// `file:line` label for a caller location, cached per location so hot
/// regions don't re-format. Backs the `#[track_caller]` auto-labels of
/// [`crate::team::fork_call`].
pub fn location_label(loc: &'static std::panic::Location<'static>) -> &'static str {
    static CACHE: OnceLock<Mutex<HashMap<(usize, u32), &'static str>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (loc.file().as_ptr() as usize, loc.line());
    let mut g = cache.lock();
    if let Some(&hit) = g.get(&key) {
        return hit;
    }
    let label = intern(&format!("{}:{}", loc.file(), loc.line()));
    g.insert(key, label);
    label
}

// ---------------------------------------------------------------------------
// Instrumentation entry points (called from the runtime hot paths)
// ---------------------------------------------------------------------------
//
// Shape: a begin stamp ([`stamp`], or a `*_begin_ts` helper) is 0 when
// instrumentation is off — one relaxed load — and the matching `*_end` /
// span helper checks the mode once more and records counters and events as
// enabled. Counters never need the begin timestamp; events skip sentinel
// (0) begins so a mid-span mode flip cannot fabricate a span stretching
// back to the epoch.

/// Record the span that began at `t0`, unless events are off (`m`) or `t0`
/// is the sentinel.
#[inline]
fn record_span(m: u8, kind: EventKind, t0: u64, a: u64, b: u64, label: &'static str) {
    if t0 == 0 || m & EVENTS == 0 {
        return;
    }
    record(Event {
        kind,
        t_ns: t0,
        dur_ns: now_ns().saturating_sub(t0),
        a,
        b,
        label,
    });
}

/// Region exit on any participating thread; `master` distinguishes the
/// [`EventKind::Parallel`] span (one per region) from the per-worker
/// [`EventKind::Implicit`] spans.
pub fn region_end(label: &'static str, threads: usize, master: bool, t0: u64) {
    let m = mode();
    if m == 0 {
        return;
    }
    if m & COUNTERS != 0 && master {
        count(|c| {
            c.regions.fetch_add(1, Ordering::Relaxed);
        });
    }
    let kind = if master {
        EventKind::Parallel
    } else {
        EventKind::Implicit
    };
    record_span(m, kind, t0, threads as u64, 0, label);
}

/// Worksharing-construct entry (`__kmpc_dispatch_init` /
/// `__kmpc_for_static_init` shaped). `dynamic` selects the dispatch-init
/// counter (static partitioning has no dispatcher to initialise).
pub fn dispatch_begin_ts(dynamic: bool) -> u64 {
    let m = mode();
    if m == 0 {
        return 0;
    }
    if m & COUNTERS != 0 && dynamic {
        count(|c| {
            c.dispatch_inits.fetch_add(1, Ordering::Relaxed);
        });
    }
    now_ns()
}

/// Worksharing-construct exit: records the [`EventKind::LoopDispatch`]
/// span (chunk spans nest inside it; the difference is dispatch overhead).
pub fn dispatch_end(label: &'static str, trip: u64, dynamic: bool, t0: u64) {
    let m = mode();
    if m == 0 {
        return;
    }
    if m & COUNTERS != 0 && dynamic {
        count(|c| {
            c.dispatch_finis.fetch_add(1, Ordering::Relaxed);
        });
    }
    record_span(m, EventKind::LoopDispatch, t0, trip, 0, label);
}

/// Timestamp just before a claimed chunk's body runs (0 when events are
/// off — counter-only tracing skips per-chunk clock reads).
#[inline]
pub fn chunk_begin_ts() -> u64 {
    if mode() & EVENTS == 0 {
        0
    } else {
        now_ns()
    }
}

/// One claimed chunk, after its body ran. Counts it (and its iterations)
/// under its provenance and records the execution span.
pub fn chunk(origin: ChunkOrigin, start: u64, len: u64, t0: u64) {
    let m = mode();
    if m == 0 {
        return;
    }
    if m & COUNTERS != 0 {
        count(|c| match origin {
            ChunkOrigin::Owned => {
                c.chunks_owned.fetch_add(1, Ordering::Relaxed);
                c.iters_owned.fetch_add(len, Ordering::Relaxed);
            }
            ChunkOrigin::Stolen => {
                c.chunks_stolen.fetch_add(1, Ordering::Relaxed);
                c.iters_stolen.fetch_add(len, Ordering::Relaxed);
            }
        });
    }
    let kind = match origin {
        ChunkOrigin::Owned => EventKind::ChunkOwned,
        ChunkOrigin::Stolen => EventKind::ChunkStolen,
    };
    record_span(m, kind, t0, start, len, "");
}

/// A steal attempt that found no victim with work (dispatch exhaustion
/// probe).
#[inline]
pub fn steal_failure() {
    if mode() & COUNTERS == 0 {
        return;
    }
    count(|c| {
        c.steal_failures.fetch_add(1, Ordering::Relaxed);
    });
}

/// Barrier release; `parked` says whether the wait gave up spinning and
/// blocked on the condvar. `t0` is the arrival `stamp()`.
pub fn barrier_end(t0: u64, parked: bool) {
    let m = mode();
    if m == 0 {
        return;
    }
    if m & COUNTERS != 0 {
        count(|c| {
            c.barrier_waits.fetch_add(1, Ordering::Relaxed);
            if parked {
                c.barrier_parks.fetch_add(1, Ordering::Relaxed);
            } else {
                c.barrier_spins.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    record_span(m, EventKind::BarrierWait, t0, parked as u64, 0, "");
}

/// One atomic merge into a reduction cell (the single root combine of a
/// tree reduction, or a direct [`crate::reduction::RedCell::combine`]).
pub fn reduction_combine(t0: u64) {
    let m = mode();
    if m == 0 {
        return;
    }
    if m & COUNTERS != 0 {
        count(|c| {
            c.reductions.fetch_add(1, Ordering::Relaxed);
        });
    }
    record_span(m, EventKind::ReductionCombine, t0, 0, 0, "");
}

/// The master's join wait at region end.
pub fn task_wait(t0: u64) {
    let m = mode();
    if m == 0 {
        return;
    }
    if m & COUNTERS != 0 {
        count(|c| {
            c.task_waits.fetch_add(1, Ordering::Relaxed);
        });
    }
    record_span(m, EventKind::TaskWait, t0, 0, 0, "");
}

/// Timestamp just before a native bulk kernel runs (0 when events are
/// off — counter-only tracing skips the clock read, and the disabled path
/// stays one relaxed load).
#[inline]
pub fn kernel_begin_ts() -> u64 {
    if mode() & EVENTS == 0 {
        0
    } else {
        now_ns()
    }
}

/// One native bulk-kernel execution at loop-head `pc`, after it ran.
/// `iters` is the count of loop iterations the kernel completed natively;
/// `bail` carries the machine-readable reason when it handed the remaining
/// iterations back to the interpreter. Records the [`EventKind::BulkLoop`]
/// span (plus a [`EventKind::KernelBail`] marker on bails) and bumps the
/// kernel enter/iteration/bail counters.
pub fn kernel_end(label: &'static str, pc: u32, iters: u64, bail: Option<&'static str>, t0: u64) {
    let m = mode();
    if m == 0 {
        return;
    }
    if m & COUNTERS != 0 {
        count(|c| {
            c.kernel_enters.fetch_add(1, Ordering::Relaxed);
            c.kernel_iters.fetch_add(iters, Ordering::Relaxed);
            if bail.is_some() {
                c.kernel_bails.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    if t0 == 0 || m & EVENTS == 0 {
        return;
    }
    let dur = now_ns().saturating_sub(t0);
    record(Event {
        kind: EventKind::BulkLoop,
        t_ns: t0,
        dur_ns: dur,
        a: iters,
        b: pc as u64,
        label,
    });
    if let Some(reason) = bail {
        record(Event {
            kind: EventKind::KernelBail,
            t_ns: t0,
            dur_ns: dur,
            a: pc as u64,
            b: iters,
            label: reason,
        });
    }
}

/// A native tier took its slow path without bailing. `rewrite` names it
/// (`"lcg-fill:sequential"`), `pc` the loop head.
pub fn deopt(rewrite: &'static str, pc: u32) {
    let m = mode();
    if m == 0 {
        return;
    }
    if m & COUNTERS != 0 {
        count(|c| {
            c.deopts.fetch_add(1, Ordering::Relaxed);
        });
    }
    if m & EVENTS != 0 {
        record(Event {
            kind: EventKind::Deopt,
            t_ns: now_ns(),
            dur_ns: 0,
            a: pc as u64,
            b: 0,
            label: rewrite,
        });
    }
}

// ---------------------------------------------------------------------------
// Metrics snapshot
// ---------------------------------------------------------------------------

/// Aggregated counters across every thread that has touched the runtime
/// since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Parallel regions executed (counted once, on the master).
    pub regions: u64,
    /// Chunks claimed from the thread's own deck slot (plus all static
    /// chunks, which are owned by construction).
    pub chunks_owned: u64,
    /// Chunks obtained by stealing from a victim's deck.
    pub chunks_stolen: u64,
    /// Iterations inside owned chunks.
    pub iters_owned: u64,
    /// Iterations inside stolen chunks.
    pub iters_stolen: u64,
    /// Steal attempts that scanned every victim and found nothing.
    pub steal_failures: u64,
    /// Barrier waits (excluding single-thread no-op barriers).
    pub barrier_waits: u64,
    /// Barrier waits resolved while still spinning.
    pub barrier_spins: u64,
    /// Barrier waits that transitioned to a condvar park.
    pub barrier_parks: u64,
    /// Dynamic/guided dispatch initialisations (`__kmpc_dispatch_init`).
    pub dispatch_inits: u64,
    /// Matching dispatch completions.
    pub dispatch_finis: u64,
    /// Atomic reduction-cell merges.
    pub reductions: u64,
    /// Master join waits.
    pub task_waits: u64,
    /// Native bulk-kernel entries (`--opt=3` tier).
    pub kernel_enters: u64,
    /// Loop iterations executed natively inside bulk kernels.
    pub kernel_iters: u64,
    /// Kernel runs that bailed back to the interpreter mid-loop.
    pub kernel_bails: u64,
    /// Slow paths a native tier took without bailing ([`deopt`]).
    pub deopts: u64,
    /// Always 0: nothing rewrites code at runtime. The benchmark reads it by name.
    pub quickens: u64,
    /// Events currently held in the rings.
    pub events_recorded: u64,
    /// Events dropped because a ring was full.
    pub events_dropped: u64,
    /// Threads that have registered a ring.
    pub threads: u64,
}

/// Fold every thread's counters into one snapshot.
pub fn metrics() -> MetricsSnapshot {
    let rings: Vec<Arc<ThreadRing>> = registry().lock().clone();
    let mut s = MetricsSnapshot {
        threads: rings.len() as u64,
        ..Default::default()
    };
    for r in &rings {
        let c = &r.counters;
        s.regions += c.regions.load(Ordering::Relaxed);
        s.chunks_owned += c.chunks_owned.load(Ordering::Relaxed);
        s.chunks_stolen += c.chunks_stolen.load(Ordering::Relaxed);
        s.iters_owned += c.iters_owned.load(Ordering::Relaxed);
        s.iters_stolen += c.iters_stolen.load(Ordering::Relaxed);
        s.steal_failures += c.steal_failures.load(Ordering::Relaxed);
        s.barrier_waits += c.barrier_waits.load(Ordering::Relaxed);
        s.barrier_spins += c.barrier_spins.load(Ordering::Relaxed);
        s.barrier_parks += c.barrier_parks.load(Ordering::Relaxed);
        s.dispatch_inits += c.dispatch_inits.load(Ordering::Relaxed);
        s.dispatch_finis += c.dispatch_finis.load(Ordering::Relaxed);
        s.reductions += c.reductions.load(Ordering::Relaxed);
        s.task_waits += c.task_waits.load(Ordering::Relaxed);
        s.kernel_enters += c.kernel_enters.load(Ordering::Relaxed);
        s.kernel_iters += c.kernel_iters.load(Ordering::Relaxed);
        s.kernel_bails += c.kernel_bails.load(Ordering::Relaxed);
        s.deopts += c.deopts.load(Ordering::Relaxed);
        let end = r.len.load(Ordering::Acquire).min(RING_CAP);
        let start = r.start.load(Ordering::Relaxed).min(end);
        s.events_recorded += (end - start) as u64;
        s.events_dropped += r.dropped.load(Ordering::Relaxed);
    }
    s
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// The recorded events in the Chrome Trace Event Format
/// (`chrome://tracing` / Perfetto): one `pid`, one `tid` row per OS
/// thread, one complete (`"ph":"X"`) slice per span, timestamps in
/// microseconds.
pub fn chrome_trace_json() -> Json {
    let int = |v: u64| Json::Int(v as i64);
    let mut entries = Vec::new();
    for (seq, name, events) in all_events() {
        entries.push(obj([
            ("name", "thread_name".into()),
            ("ph", "M".into()),
            ("pid", Json::Int(1)),
            ("tid", int(seq as u64)),
            ("args", obj([("name", Json::Str(name))])),
        ]));
        for ev in events {
            let args = match ev.kind {
                EventKind::Parallel | EventKind::Implicit => Some(obj([("threads", int(ev.a))])),
                EventKind::LoopDispatch => Some(obj([("trip", int(ev.a))])),
                EventKind::ChunkOwned | EventKind::ChunkStolen => Some(obj([
                    ("start", int(ev.a)),
                    ("len", int(ev.b)),
                    ("stolen", Json::Bool(ev.kind == EventKind::ChunkStolen)),
                ])),
                EventKind::BarrierWait => Some(obj([("parked", Json::Bool(ev.a != 0))])),
                EventKind::BulkLoop => Some(obj([("iters", int(ev.a)), ("pc", int(ev.b))])),
                EventKind::KernelBail => Some(obj([("pc", int(ev.a)), ("iters_done", int(ev.b))])),
                EventKind::Deopt => Some(obj([("pc", int(ev.a))])),
                EventKind::TaskWait | EventKind::ReductionCombine => None,
            };
            let name = if ev.label.is_empty() {
                ev.kind.name()
            } else {
                ev.label
            };
            let slice = [
                ("name", name.into()),
                ("cat", ev.kind.name().into()),
                ("ph", "X".into()),
                ("ts", Json::Float(ev.t_ns as f64 / 1e3)),
                ("dur", Json::Float(ev.dur_ns as f64 / 1e3)),
                ("pid", Json::Int(1)),
                ("tid", int(seq as u64)),
            ];
            let slice = slice.into_iter().chain(args.map(|a| ("args", a)));
            entries.push(Json::Obj(slice.map(|(k, v)| (k.to_string(), v)).collect()));
        }
    }
    obj([
        ("traceEvents", Json::Arr(entries)),
        ("displayTimeUnit", "ms".into()),
    ])
}

/// The counter snapshot ([`metrics`]) as one JSON object.
pub fn metrics_json() -> Json {
    let s = metrics();
    obj([
        ("threads", s.threads),
        ("regions", s.regions),
        ("chunks_owned", s.chunks_owned),
        ("chunks_stolen", s.chunks_stolen),
        ("iters_owned", s.iters_owned),
        ("iters_stolen", s.iters_stolen),
        ("steal_failures", s.steal_failures),
        ("barrier_waits", s.barrier_waits),
        ("barrier_spins", s.barrier_spins),
        ("barrier_parks", s.barrier_parks),
        ("dispatch_inits", s.dispatch_inits),
        ("dispatch_finis", s.dispatch_finis),
        ("reductions", s.reductions),
        ("task_waits", s.task_waits),
        ("kernel_enters", s.kernel_enters),
        ("kernel_iters", s.kernel_iters),
        ("kernel_bails", s.kernel_bails),
        ("deopts", s.deopts),
        ("events_recorded", s.events_recorded),
        ("events_dropped", s.events_dropped),
    ]
    .map(|(k, v)| (k, Json::Int(v as i64))))
}

/// Write [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: &str) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json().render())
}

/// Write [`metrics_json`] to `path`.
pub fn write_metrics_json(path: &str) -> std::io::Result<()> {
    std::fs::write(path, metrics_json().render())
}

// ---------------------------------------------------------------------------
// Environment activation
// ---------------------------------------------------------------------------

// The output-path table moved into [`crate::runtime::Runtime`]: each runtime
// owns its trace/metrics/profile sinks, so a multi-tenant host can route
// different programs' artefacts to different files. The functions below are
// the historical free-function surface, now thin wrappers over
// [`crate::runtime::Runtime::current`] (the default global instance for
// standalone binaries).

/// Route the Chrome trace to `path` when [`finish`] runs, enabling event
/// recording (programmatic equivalent of `ZOMP_TRACE=<path>`). Applies to
/// the current [`crate::runtime::Runtime`].
pub fn set_trace_path(path: &str) {
    crate::runtime::Runtime::current().set_trace_path(path);
}

/// Route the metrics dump to `path` when [`finish`] runs, enabling
/// counters (programmatic equivalent of `ZOMP_METRICS=<path>`). Applies to
/// the current [`crate::runtime::Runtime`].
pub fn set_metrics_path(path: &str) {
    crate::runtime::Runtime::current().set_metrics_path(path);
}

/// Route the rendered profile report (regions, per-construct breakdown,
/// per-loop tier residency) to `path` — or stderr when `None` — when
/// [`finish`] runs. Enables profiling (programmatic equivalent of
/// `ZOMP_PROFILE=1` / `ZOMP_PROFILE=<path>`). Applies to the current
/// [`crate::runtime::Runtime`].
pub fn set_profile_out(path: Option<&str>) {
    crate::runtime::Runtime::current().set_profile_out(path);
}

/// Read `ZOMP_TRACE` / `ZOMP_METRICS` and activate the matching
/// instrumentation — at most once per *runtime*, not per process
/// ([`crate::runtime::Runtime::init_sinks_from_env`]). Called lazily by
/// [`crate::team::fork_call`]; a `fn main` that wants the files written
/// must call [`finish`] before exiting (the shipped binaries do).
pub fn init_from_env() {
    crate::runtime::Runtime::current().init_sinks_from_env();
}

/// Write any outputs configured on the current runtime via env vars or
/// `set_*_path`. Returns the paths written.
pub fn finish() -> std::io::Result<Vec<String>> {
    crate::runtime::Runtime::current().finish()
}

// ---------------------------------------------------------------------------
// Test support
// ---------------------------------------------------------------------------

/// Serialises tests that toggle the process-global mode byte (profile
/// tests, trace tests). parking_lot mutexes do not poison, so a panicking
/// test cannot wedge the rest.
#[cfg(test)]
pub(crate) fn test_serial() -> parking_lot::MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD.get_or_init(|| Mutex::new(())).lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_is_zero_and_stamps_sentinel() {
        let _g = test_serial();
        disable_all();
        assert_eq!(mode(), 0);
        assert_eq!(stamp(), 0);
        // End helpers on sentinel begins must not record.
        let before = metrics().events_recorded;
        region_end("x", 4, true, 0);
        barrier_end(0, false);
        assert_eq!(metrics().events_recorded, before);
    }

    #[test]
    fn counters_and_events_fold_into_snapshot() {
        let _g = test_serial();
        disable_all();
        reset();
        enable_counters();
        enable_events();
        let t0 = chunk_begin_ts();
        assert!(t0 > 0);
        chunk(ChunkOrigin::Owned, 0, 10, t0);
        chunk(ChunkOrigin::Stolen, 10, 5, chunk_begin_ts());
        steal_failure();
        let t = stamp();
        barrier_end(t, true);
        disable_all();
        let m = metrics();
        assert_eq!(m.chunks_owned, 1);
        assert_eq!(m.chunks_stolen, 1);
        assert_eq!(m.iters_owned, 10);
        assert_eq!(m.iters_stolen, 5);
        assert_eq!(m.steal_failures, 1);
        assert_eq!(m.barrier_waits, 1);
        assert_eq!(m.barrier_parks, 1);
        assert_eq!(m.barrier_spins, 0);
        assert!(m.events_recorded >= 3);
        reset();
        assert_eq!(metrics().chunks_owned, 0);
    }

    #[test]
    fn ring_overflow_drops_new_events_and_keeps_old() {
        let _g = test_serial();
        disable_all();
        reset();
        enable_events();
        // This thread's ring: fill it past capacity.
        let base_dropped = with_ring(|r| r.dropped.load(Ordering::Relaxed));
        let first_len = with_ring(|r| r.len.load(Ordering::Relaxed));
        for i in 0..(RING_CAP + 100) as u64 {
            record(Event {
                kind: EventKind::ChunkOwned,
                t_ns: i + 1,
                dur_ns: 1,
                a: i,
                b: 1,
                label: "",
            });
        }
        disable_all();
        let (len, dropped, snap) = with_ring(|r| {
            (
                r.len.load(Ordering::Relaxed),
                r.dropped.load(Ordering::Relaxed),
                r.snapshot(),
            )
        });
        assert_eq!(len, RING_CAP, "ring saturates at capacity");
        assert!(
            dropped - base_dropped >= 100,
            "overflow must be counted: {dropped}"
        );
        // Events written before the overflow are intact: payload `a`
        // still matches the order they were pushed in.
        for (k, ev) in snap.iter().enumerate() {
            let expect = (first_len + k) as u64 - first_len as u64;
            assert_eq!(ev.a, expect, "event {k} corrupted by overflow");
        }
        reset();
    }

    #[test]
    fn interning_dedupes() {
        let a = intern("some/file.rs:42");
        let b = intern("some/file.rs:42");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn chrome_export_is_balanced_json() {
        let _g = test_serial();
        disable_all();
        reset();
        enable_events();
        let t0 = now_ns();
        record(Event {
            kind: EventKind::Parallel,
            t_ns: t0,
            dur_ns: 10,
            a: 4,
            b: 0,
            label: intern("demo \"region\""),
        });
        disable_all();
        let json = Json::parse(&chrome_trace_json().render()).expect("the trace parses");
        // Found by its name: a test that does not take `test_serial` may
        // run a region while events are on and add `implicit task` slices.
        let name = Json::from("demo \"region\"");
        let slice = json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .and_then(|es| {
                es.iter()
                    .find(|e| e.get("ph") == Some(&Json::from("X")) && e.get("name") == Some(&name))
            })
            .expect("the region's complete slice, its label escaped and read back");
        assert_eq!(
            slice.get("args").and_then(|a| a.get("threads")),
            Some(&Json::Int(4))
        );
        reset();
    }
}
