//! Parallel regions: function outlining, the hot worker team, and fork/join.
//!
//! The paper lowers a `parallel` pragma by *outlining* the region body into a
//! function and passing it to `__kmpc_fork_call`, which runs it on every
//! thread of the team (§III-B1). [`fork_call`] is that entry point: the
//! outlined function is any `Fn(&ThreadCtx) + Sync` closure, and the three
//! argument groups the paper passes through the variadic `__kmpc_fork_call`
//! (firstprivate values, pointers to shared variables, reduction cells) are
//! simply the closure's captures — by value, by `&`, and by
//! [`crate::reduction::RedCell`] respectively.
//!
//! Threads come from a process-wide, persistent pool (libomp's "hot team"):
//! workers are created on first use, parked between regions and re-used, so
//! repeated region entry costs two condvar signals rather than a
//! pthread_create.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::barrier::{Barrier, Latch};
use crate::icv::Icvs;
use crate::kmpc::{Dispatcher, WsLoop};
use crate::runtime::Runtime;
use crate::schedule::Schedule;
use crate::trace;

/// Number of in-flight worksharing-construct buffers per team. Threads may
/// drift up to this many `nowait` constructs apart without blocking; libomp
/// uses 7 dispatch buffers for the same purpose.
pub(crate) const NUM_CONSTRUCT_SLOTS: usize = 16;

#[derive(Default)]
struct SlotState {
    /// A dynamic/guided worksharing loop's dispatcher (see [`WsLoop`]).
    dispatch: Option<Arc<Dispatcher>>,
    /// `single` construct: has some thread already claimed the body?
    claimed: bool,
    /// Construct-scoped shared payload (e.g. a worksharing-loop reduction
    /// cell created by the first arriving thread), used by pragma-lowered
    /// code via [`ThreadCtx::construct_shared`].
    shared_payload: Option<Arc<dyn std::any::Any + Send + Sync>>,
}

impl std::fmt::Debug for SlotState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotState")
            .field("claimed", &self.claimed)
            .field("has_dispatch", &self.dispatch.is_some())
            .field("has_payload", &self.shared_payload.is_some())
            .finish()
    }
}

/// One entry of the construct ring: serves construct numbers
/// `slot_index, slot_index + N, slot_index + 2N, ...` in turn.
#[derive(Debug)]
pub(crate) struct ConstructSlot {
    /// Construct number this slot currently serves.
    gen: AtomicU64,
    state: Mutex<SlotState>,
    /// Threads that have finished this construct instance.
    finished: AtomicUsize,
}

/// State shared by every thread of one team for the duration of a region.
#[derive(Debug)]
pub struct TeamShared {
    nthreads: usize,
    barrier: Barrier,
    slots: Box<[ConstructSlot]>,
    /// Region label (pragma `file:line` or `.label()`), carried so worker
    /// threads can tag their implicit-task trace spans.
    label: &'static str,
    /// The runtime this team is bound to: workers enter it so ICV queries,
    /// `schedule(runtime)` resolution, and `critical` sections inside the
    /// region all resolve against the forking runtime, not a process global.
    runtime: Arc<Runtime>,
    /// First panic payload raised inside the region (master's included),
    /// re-thrown by the master after the join.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl TeamShared {
    fn new(nthreads: usize, label: &'static str, runtime: Arc<Runtime>) -> Self {
        let slots = (0..NUM_CONSTRUCT_SLOTS)
            .map(|k| ConstructSlot {
                gen: AtomicU64::new(k as u64),
                state: Mutex::new(SlotState::default()),
                finished: AtomicUsize::new(0),
            })
            .collect();
        TeamShared {
            nthreads,
            barrier: Barrier::new(nthreads),
            slots,
            label,
            runtime,
            panic_payload: Mutex::new(None),
        }
    }

    pub fn num_threads(&self) -> usize {
        self.nthreads
    }

    /// The runtime this team was forked from.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Wait until the ring slot for construct `c` is available and return it.
    fn acquire_slot(&self, c: u64) -> &ConstructSlot {
        let slot = &self.slots[(c as usize) % NUM_CONSTRUCT_SLOTS];
        // Acquire: pairs with the Release `gen` bump in `release_slot` so the
        // recycled slot's cleared state is visible before we reuse it.
        while slot.gen.load(Ordering::Acquire) != c {
            // A failed teammate never releases its slots, so the recycle
            // this waits for may never come. Hand out the stale slot:
            // its exhausted dispatcher / claimed `single` send the caller
            // on to the next barrier, which reports the poison.
            if self.barrier.is_poisoned() {
                break;
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        slot
    }

    /// Mark the calling thread done with `slot`; the last finisher recycles
    /// it for the construct `N` positions later.
    fn release_slot(&self, slot: &ConstructSlot) {
        // AcqRel: Release publishes this thread's use of the slot payload;
        // Acquire lets the last finisher observe every earlier finisher's use
        // before it wipes the slot.
        if slot.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.nthreads {
            // Release (with the `gen` bump below): the reset counter and
            // cleared state must be visible to whoever Acquires the new gen.
            slot.finished.store(0, Ordering::Release);
            {
                let mut st = slot.state.lock();
                *st = SlotState::default();
            }
            slot.gen
                .fetch_add(NUM_CONSTRUCT_SLOTS as u64, Ordering::Release);
        }
    }

    /// The calling thread is done with construct `c`.
    pub(crate) fn release_construct(&self, c: u64) {
        self.release_slot(&self.slots[(c as usize) % NUM_CONSTRUCT_SLOTS]);
    }

    /// A team thread panicked: keep the first payload for the master to
    /// re-throw and let go of everyone who would wait for that thread.
    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        {
            let mut g = self.panic_payload.lock();
            if g.is_none() {
                *g = Some(payload);
            }
        }
        self.barrier.poison();
    }
}

/// Per-thread handle inside a parallel region: the first argument of every
/// outlined function.
///
/// Carries the thread's id, the team, and the thread's private
/// construct counter (threads of a team must encounter worksharing
/// constructs in the same order; the counter pairs each encounter with its
/// team-shared ring slot).
pub struct ThreadCtx<'a> {
    tid: usize,
    team: &'a TeamShared,
    /// The `Arc` a team of 2+ is shared through, which a [`WsLoop`] keeps
    /// so it can release its construct slot wherever it is ended or
    /// dropped. `None` for a team of one: it lives on the forking thread's
    /// stack, and its loops take no slot.
    shared: Option<&'a Arc<TeamShared>>,
    construct_counter: Cell<u64>,
}

impl<'a> ThreadCtx<'a> {
    fn new(tid: usize, team: &'a TeamShared, shared: Option<&'a Arc<TeamShared>>) -> Self {
        ThreadCtx {
            tid,
            team,
            shared,
            construct_counter: Cell::new(0),
        }
    }

    /// `omp_get_thread_num`.
    #[inline]
    pub fn thread_num(&self) -> usize {
        self.tid
    }

    /// `omp_get_num_threads`.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.team.nthreads
    }

    /// Is this the master (thread 0)?
    #[inline]
    pub fn is_master(&self) -> bool {
        self.tid == 0
    }

    /// The [`Runtime`] this thread's team is bound to.
    #[inline]
    pub fn runtime(&self) -> &Arc<Runtime> {
        self.team.runtime()
    }

    /// Explicit `omp barrier`. `false` when the wait ended because the
    /// team was [poisoned](ThreadCtx::poison), not because everyone
    /// arrived: the caller should wind its own work up, as no later
    /// barrier of this region will synchronise either.
    pub fn barrier(&self) -> bool {
        // `wait_as` routes this thread straight to its tree leaf without
        // consuming an arrival ticket.
        self.team.barrier.wait_as(self.tid).is_ok()
    }

    /// Declare that this thread is abandoning the region (its body
    /// failed) and will not reach the constructs its teammates wait at.
    /// Their waits at the team barrier and for a construct slot end at
    /// once, now and for the rest of the region (a `TeamShared` serves
    /// one region, so nothing is ever reset), and [`ThreadCtx::barrier`]
    /// tells them why.
    pub fn poison(&self) {
        self.team.barrier.poison();
    }

    /// `omp master`: run `f` on thread 0 only. No implied barrier.
    pub fn master<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        self.is_master().then(f)
    }

    /// `omp single [nowait]`: exactly one thread (the first to arrive) runs
    /// `f`. Unless `nowait`, all threads synchronise afterwards.
    pub fn single<R>(&self, nowait: bool, f: impl FnOnce() -> R) -> Option<R> {
        let (slot, _c) = self.enter_construct();
        let claimed = {
            let mut st = slot.state.lock();
            if st.claimed {
                false
            } else {
                st.claimed = true;
                true
            }
        };
        let out = claimed.then(f);
        self.team.release_slot(slot);
        if !nowait {
            self.barrier();
        }
        out
    }

    /// `omp sections`: distribute the given section bodies across the team
    /// (each runs exactly once). Implied barrier unless `nowait`.
    pub fn sections(&self, nowait: bool, sections: &[&(dyn Fn() + Sync)]) {
        let mut ws = WsLoop::begin(
            Some(self),
            Schedule::dynamic(Some(1)),
            sections.len() as u64,
            Some("sections"),
        )
        .expect("chunk 1 is positive");
        while let Some(r) = ws.next() {
            for s in r {
                sections[s as usize]();
            }
        }
        ws.end();
        if !nowait {
            self.barrier();
        }
    }

    /// Internal: advance this thread's construct counter and acquire the
    /// matching team slot.
    pub(crate) fn enter_construct(&self) -> (&'a ConstructSlot, u64) {
        let c = self.construct_counter.get();
        self.construct_counter.set(c + 1);
        (self.team.acquire_slot(c), c)
    }

    /// Internal: fetch (initialising exactly once) the dispatcher of a slot.
    pub(crate) fn slot_dispatcher(
        &self,
        slot: &ConstructSlot,
        make: impl FnOnce() -> Dispatcher,
    ) -> Arc<Dispatcher> {
        let mut st = slot.state.lock();
        if st.dispatch.is_none() {
            st.dispatch = Some(Arc::new(make()));
        }
        Arc::clone(st.dispatch.as_ref().unwrap())
    }

    /// Internal: this thread is done with construct `c`.
    fn release_construct(&self, c: u64) {
        self.team.release_construct(c);
    }

    /// Internal: a team of 2+, for a handle that outlives this borrow.
    pub(crate) fn shared_team(&self) -> Arc<TeamShared> {
        Arc::clone(self.shared.expect("a team of 2+ is shared"))
    }

    /// Constructs this thread has entered so far in the region.
    #[cfg(test)]
    pub(crate) fn constructs_entered(&self) -> u64 {
        self.construct_counter.get()
    }

    /// A construct-scoped shared value: the first thread to arrive creates
    /// it, every thread receives the same `Arc`. Pass the returned token to
    /// [`ThreadCtx::construct_done`] when finished with the construct.
    pub fn construct_shared(
        &self,
        make: impl FnOnce() -> Arc<dyn std::any::Any + Send + Sync>,
    ) -> (Arc<dyn std::any::Any + Send + Sync>, ConstructToken) {
        let (slot, c) = self.enter_construct();
        let payload = {
            let mut st = slot.state.lock();
            if st.shared_payload.is_none() {
                st.shared_payload = Some(make());
            }
            Arc::clone(st.shared_payload.as_ref().unwrap())
        };
        (payload, ConstructToken { construct: c })
    }

    /// Finish a construct entered via [`ThreadCtx::construct_shared`].
    pub fn construct_done(&self, token: ConstructToken) {
        self.release_construct(token.construct);
    }

    // The closure-based `single` cannot serve a lowering target whose
    // construct body is inline code (the paper's preprocessor output, run by
    // the `zomp-vm` interpreter); `single_begin`/`single_end` expose the same
    // team machinery split-phase, as `WsLoop` does for loops.

    /// Split-phase `single`: returns a token saying whether this thread won
    /// the body. Pass the token to [`ThreadCtx::single_end`] after the body.
    pub fn single_begin(&self) -> SingleToken {
        let (slot, c) = self.enter_construct();
        let chosen = {
            let mut st = slot.state.lock();
            if st.claimed {
                false
            } else {
                st.claimed = true;
                true
            }
        };
        SingleToken {
            construct: c,
            chosen,
        }
    }

    /// Finish a split-phase `single`; synchronises unless `nowait`.
    /// Returns what the closing [`ThreadCtx::barrier`] did (`true` with
    /// `nowait`).
    pub fn single_end(&self, token: SingleToken, nowait: bool) -> bool {
        self.release_construct(token.construct);
        nowait || self.barrier()
    }
}

/// Token of a split-phase `single` construct. See
/// [`ThreadCtx::single_begin`].
#[derive(Debug, Clone, Copy)]
pub struct SingleToken {
    construct: u64,
    /// Did this thread win the `single` body?
    pub chosen: bool,
}

/// Token of a construct entered via [`ThreadCtx::construct_shared`].
#[derive(Debug, Clone, Copy)]
pub struct ConstructToken {
    construct: u64,
}

// ---------------------------------------------------------------------------
// Worker pool ("hot team")
// ---------------------------------------------------------------------------

/// The outlined function pointer smuggled to workers. Soundness: the master
/// does not return from [`fork_call`] until every worker has signalled the
/// join latch, so the borrow outlives all uses.
#[derive(Clone, Copy)]
struct RawTask(*const (dyn for<'x> Fn(&ThreadCtx<'x>) + Sync));

unsafe impl Send for RawTask {}

struct Job {
    task: RawTask,
    team: Arc<TeamShared>,
    tid: usize,
    latch: Arc<Latch>,
}

#[derive(Default)]
struct WorkerSlot {
    inbox: Mutex<Option<Job>>,
    cv: Condvar,
}

impl WorkerSlot {
    fn assign(&self, job: Job) {
        let mut g = self.inbox.lock();
        debug_assert!(g.is_none(), "worker already has a job");
        *g = Some(job);
        self.cv.notify_one();
    }

    fn take(&self) -> Job {
        let mut g = self.inbox.lock();
        loop {
            if let Some(j) = g.take() {
                return j;
            }
            self.cv.wait(&mut g);
        }
    }
}

fn worker_loop(slot: Arc<WorkerSlot>) {
    loop {
        let job = slot.take();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let ctx = ThreadCtx::new(job.tid, &job.team, Some(&job.team));
            // Bind the forking runtime on this pool thread for the region's
            // duration: the pool is shared by all runtimes, so the binding
            // must travel with the job, not live on the thread.
            let _rt = job.team.runtime.enter();
            with_region_state(job.tid, job.team.nthreads, || {
                let t0 = trace::stamp();
                // SAFETY: the master blocks on `job.latch` until we count
                // down, so the closure behind the raw pointer is alive.
                let f = unsafe { &*job.task.0 };
                f(&ctx);
                // Implicit-task span: this worker's slice of the region.
                trace::region_end(job.team.label, job.team.nthreads, false, t0);
            });
        }));
        if let Err(payload) = result {
            job.team.record_panic(payload);
        }
        job.latch.count_down();
    }
}

/// Deepest chain of nested user-function activations — calls, and
/// region bodies entered through `fork_call` — a thread running
/// interpreted user code may build. The Zag VM turns activation
/// `MAX_CALL_DEPTH + 1` into a runtime error; without the limit,
/// unbounded recursion runs off the native stack and aborts the process
/// (and with it every other request of a `zagd`).
pub const MAX_CALL_DEPTH: usize = 2000;

/// Stack size of every thread that runs user code: the pool workers
/// here, `zagd`'s service workers, `zag`'s program thread. Sized from
/// [`MAX_CALL_DEPTH`] so that limit is reached before the guard page.
/// Measured per activation, worst of both VM backends and of recursion
/// that opens a region at every level: 3.0 KB optimized, 57 KB in a debug
/// build; budgeted at 6 KB and 96 KB. The optimized size stays under
/// glibc's thread-stack cache (40 MB) for a few threads at once — above
/// it every spawn pays an `mmap`/`munmap` pair, which doubled spawn+join
/// time at 16 MB x 2. The pages are only touched by recursion that deep.
pub const STACK_BYTES: usize = MAX_CALL_DEPTH
    * if cfg!(debug_assertions) {
        96 << 10
    } else {
        6 << 10
    };

struct Pool {
    free: Mutex<Vec<Arc<WorkerSlot>>>,
    spawned: AtomicUsize,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: std::sync::OnceLock<Pool> = std::sync::OnceLock::new();
        POOL.get_or_init(|| Pool {
            free: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
        })
    }

    fn checkout(&self, n: usize) -> Vec<Arc<WorkerSlot>> {
        let mut out = {
            let mut free = self.free.lock();
            let take = free.len().min(n);
            let at = free.len() - take;
            free.split_off(at)
        };
        while out.len() < n {
            let slot = Arc::new(WorkerSlot::default());
            // Relaxed: the counter only names worker threads; no data rides
            // on it.
            let id = self.spawned.fetch_add(1, Ordering::Relaxed);
            let s = Arc::clone(&slot);
            std::thread::Builder::new()
                .name(format!("zomp-worker-{id}"))
                .stack_size(STACK_BYTES)
                .spawn(move || worker_loop(s))
                .expect("failed to spawn zomp worker thread");
            out.push(slot);
        }
        out
    }

    fn checkin(&self, slots: Vec<Arc<WorkerSlot>>) {
        self.free.lock().extend(slots);
    }
}

// ---------------------------------------------------------------------------
// Per-thread region bookkeeping (backs the omp_* query API)
// ---------------------------------------------------------------------------

thread_local! {
    /// Stack of (tid, team size) for nested region queries.
    static REGION_STACK: std::cell::RefCell<Vec<(usize, usize)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn with_region_state<R>(tid: usize, nthreads: usize, f: impl FnOnce() -> R) -> R {
    REGION_STACK.with(|s| s.borrow_mut().push((tid, nthreads)));
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            REGION_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let _guard = PopGuard;
    f()
}

/// (tid, team size) of the innermost active region on this thread, if any.
pub(crate) fn current_region() -> Option<(usize, usize)> {
    REGION_STACK.with(|s| s.borrow().last().copied())
}

/// Nesting depth of active parallel regions on this thread
/// (`omp_get_level`).
pub(crate) fn region_level() -> usize {
    REGION_STACK.with(|s| s.borrow().len())
}

// ---------------------------------------------------------------------------
// fork_call
// ---------------------------------------------------------------------------

/// Builder for a `parallel` pragma's clauses that affect team formation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parallel {
    num_threads: Option<usize>,
    if_clause: bool,
    if_set: bool,
    label: Option<&'static str>,
}

impl Parallel {
    pub fn new() -> Self {
        Parallel {
            num_threads: None,
            if_clause: true,
            if_set: false,
            label: None,
        }
    }

    /// Label this region for [`crate::profile`] reports.
    pub fn label(mut self, label: &'static str) -> Self {
        self.label = Some(label);
        self
    }

    /// `num_threads(n)` clause.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n.max(1));
        self
    }

    /// `if(expr)` clause: when false the region executes on one thread.
    pub fn when(mut self, cond: bool) -> Self {
        self.if_clause = cond;
        self.if_set = true;
        self
    }

    fn resolve_team_size(&self, icvs: &Icvs) -> usize {
        if !self.if_clause {
            return 1;
        }
        self.num_threads
            .unwrap_or_else(|| icvs.num_threads())
            .clamp(1, crate::icv::MAX_THREADS_LIMIT)
    }
}

/// Execute `f` on a team of threads — the `__kmpc_fork_call` equivalent.
///
/// The calling thread becomes the master (thread 0) and participates; the
/// region carries an implicit barrier at its end by construction (the join).
/// Nested invocations serialise onto a team of one, matching the default
/// `OMP_NESTED=false` behaviour used throughout the paper.
///
/// Panics raised inside the region are captured and re-raised on the master
/// once all threads have joined.
///
/// When observability is on ([`crate::trace`]) and the region has no
/// explicit [`Parallel::label`], it is auto-labelled with the caller's
/// `file:line` (`#[track_caller]`) — the Rust-side equivalent of the
/// front end stamping outlined regions with their pragma location.
#[track_caller]
pub fn fork_call<F>(par: Parallel, f: F)
where
    F: for<'x> Fn(&ThreadCtx<'x>) + Sync,
{
    fork_call_rt(&Runtime::current(), par, f)
}

/// [`fork_call`] against an explicit [`Runtime`] instance: the team's ICVs,
/// `critical` registries, and `schedule(runtime)` resolution all come from
/// `rt`, and every team thread has `rt` as [`Runtime::current`] for the
/// region's duration. This is the entry point a multi-tenant host (`zagd`)
/// uses to run concurrent programs with isolated runtime state over one
/// shared worker pool.
#[track_caller]
pub fn fork_call_rt<F>(rt: &Arc<Runtime>, par: Parallel, f: F)
where
    F: for<'x> Fn(&ThreadCtx<'x>) + Sync,
{
    let caller = std::panic::Location::caller();
    rt.init_sinks_from_env();
    let nested = current_region().is_some();
    let n = if nested {
        1
    } else {
        par.resolve_team_size(rt.icvs())
    };

    // Region instrumentation (the paper's proposed profiling support):
    // one relaxed load when disabled, label resolution only when on.
    let label = match par.label {
        Some(l) => l,
        None if trace::active() => trace::location_label(caller),
        None => "",
    };
    // Close the master's region span on every exit path (incl. panic
    // propagation after join); it covers the body *and* the join wait.
    struct RegionGuard {
        label: &'static str,
        threads: usize,
        t0: u64,
    }
    impl Drop for RegionGuard {
        fn drop(&mut self) {
            trace::region_end(self.label, self.threads, true, self.t0);
        }
    }
    let _region = RegionGuard {
        label,
        threads: n,
        t0: trace::stamp(),
    };

    if n == 1 {
        let team = TeamShared::new(1, label, Arc::clone(rt));
        let ctx = ThreadCtx::new(0, &team, None);
        let _rt = rt.enter();
        with_region_state(0, 1, || f(&ctx));
        return;
    }

    let team = Arc::new(TeamShared::new(n, label, Arc::clone(rt)));
    let latch = Arc::new(Latch::new(n - 1));
    let fref: &(dyn for<'x> Fn(&ThreadCtx<'x>) + Sync) = &f;
    // SAFETY: we erase the lifetime, then guarantee liveness by not
    // returning until `latch.wait()` confirms every worker is done.
    let task = RawTask(unsafe {
        std::mem::transmute::<
            *const (dyn for<'x> Fn(&ThreadCtx<'x>) + Sync + '_),
            *const (dyn for<'x> Fn(&ThreadCtx<'x>) + Sync + 'static),
        >(fref as *const _)
    });

    let workers = Pool::global().checkout(n - 1);
    for (i, w) in workers.iter().enumerate() {
        w.assign(Job {
            task,
            team: Arc::clone(&team),
            tid: i + 1,
            latch: Arc::clone(&latch),
        });
    }

    let master_result = panic::catch_unwind(AssertUnwindSafe(|| {
        let ctx = ThreadCtx::new(0, &team, Some(&team));
        let _rt = rt.enter();
        with_region_state(0, n, || f(&ctx));
    }));
    // Before the join: workers parked at a barrier the master will not
    // reach would otherwise keep the latch from ever opening.
    if let Err(payload) = master_result {
        team.record_panic(payload);
    }

    let t_join = trace::stamp();
    latch.wait();
    trace::task_wait(t_join);
    Pool::global().checkin(workers);

    // The first panic of the region, whichever thread raised it.
    let first_panic = team.panic_payload.lock().take();
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_thread_runs_once() {
        let hits = AtomicUsize::new(0);
        fork_call(Parallel::new().num_threads(4), |ctx| {
            assert!(ctx.thread_num() < 4);
            assert_eq!(ctx.num_threads(), 4);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn thread_ids_are_distinct() {
        let seen: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        fork_call(Parallel::new().num_threads(8), |ctx| {
            seen[ctx.thread_num()].fetch_add(1, Ordering::SeqCst);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn if_clause_serialises() {
        fork_call(Parallel::new().num_threads(8).when(false), |ctx| {
            assert_eq!(ctx.num_threads(), 1);
            assert_eq!(ctx.thread_num(), 0);
        });
    }

    #[test]
    fn nested_regions_serialise() {
        fork_call(Parallel::new().num_threads(2), |outer| {
            let outer_n = outer.num_threads();
            assert_eq!(outer_n, 2);
            fork_call(Parallel::new().num_threads(4), |inner| {
                assert_eq!(inner.num_threads(), 1);
            });
        });
    }

    #[test]
    fn master_only_runs_on_thread_zero() {
        let count = AtomicUsize::new(0);
        fork_call(Parallel::new().num_threads(4), |ctx| {
            ctx.master(|| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn single_runs_exactly_once_and_synchronises() {
        let count = AtomicUsize::new(0);
        fork_call(Parallel::new().num_threads(4), |ctx| {
            ctx.single(false, || {
                count.fetch_add(1, Ordering::SeqCst);
            });
            // After the single's implied barrier everyone sees the effect.
            assert_eq!(count.load(Ordering::SeqCst), 1);
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn repeated_singles_rotate_through_slot_ring() {
        // More singles than ring slots exercises slot recycling.
        let count = AtomicUsize::new(0);
        fork_call(Parallel::new().num_threads(3), |ctx| {
            for _ in 0..(NUM_CONSTRUCT_SLOTS * 3) {
                ctx.single(false, || {
                    count.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), NUM_CONSTRUCT_SLOTS * 3);
    }

    #[test]
    fn sections_each_run_once() {
        let a = AtomicUsize::new(0);
        let b = AtomicUsize::new(0);
        let c = AtomicUsize::new(0);
        let fa = || {
            a.fetch_add(1, Ordering::SeqCst);
        };
        let fb = || {
            b.fetch_add(1, Ordering::SeqCst);
        };
        let fc = || {
            c.fetch_add(1, Ordering::SeqCst);
        };
        fork_call(Parallel::new().num_threads(2), |ctx| {
            ctx.sections(false, &[&fa, &fb, &fc]);
        });
        assert_eq!(a.load(Ordering::SeqCst), 1);
        assert_eq!(b.load(Ordering::SeqCst), 1);
        assert_eq!(c.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn barrier_inside_region() {
        let before = AtomicUsize::new(0);
        fork_call(Parallel::new().num_threads(4), |ctx| {
            before.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            assert_eq!(before.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn region_reuses_hot_team() {
        // Run many regions back to back: worker count must not grow past
        // what one region needs (checked indirectly via correctness).
        for round in 0..50usize {
            let sum = AtomicUsize::new(0);
            fork_call(Parallel::new().num_threads(4), |ctx| {
                sum.fetch_add(ctx.thread_num() + round, Ordering::SeqCst);
            });
            assert_eq!(sum.load(Ordering::SeqCst), 6 + 4 * round);
        }
    }

    #[test]
    fn closure_borrows_stack_data() {
        let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let total = AtomicUsize::new(0);
        fork_call(Parallel::new().num_threads(4), |ctx| {
            let tid = ctx.thread_num();
            let per = data.len() / ctx.num_threads();
            let mine: u64 = data[tid * per..(tid + 1) * per].iter().sum();
            total.fetch_add(mine as usize, Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst), 36);
    }

    #[test]
    fn worker_panic_propagates_to_master() {
        let result = panic::catch_unwind(|| {
            fork_call(Parallel::new().num_threads(3), |ctx| {
                if ctx.thread_num() == 2 {
                    panic!("boom from worker");
                }
            });
        });
        assert!(result.is_err());
    }

    /// A thread that panics never reaches the barrier its teammates wait
    /// at: they are let go (`barrier()` says so), and the panic the
    /// master re-throws is the first one, not one a teammate raised on
    /// its way out — whether the first came from the master or a worker.
    #[test]
    fn panic_ahead_of_a_barrier_releases_the_team() {
        for failing in [0usize, 2] {
            let result = panic::catch_unwind(|| {
                fork_call(Parallel::new().num_threads(3), |ctx| {
                    if ctx.thread_num() == failing {
                        panic!("first, from thread {failing}");
                    }
                    if !ctx.barrier() {
                        panic!("second, from a released teammate");
                    }
                    unreachable!("the barrier cannot complete without thread {failing}");
                });
            });
            let payload = result.expect_err("the region panicked");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("first, from thread {failing}").as_str())
            );
        }
        // The pool threads of the failed teams serve the next region.
        let hits = AtomicUsize::new(0);
        fork_call(Parallel::new().num_threads(3), |ctx| {
            hits.fetch_add(1, Ordering::SeqCst);
            assert!(ctx.barrier());
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }
}

#[cfg(test)]
mod split_phase_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Batch claims (up to `STEAL_BATCH` clause chunks each) hand out
    /// every iteration exactly once.
    #[test]
    fn split_dispatch_covers_all_iterations() {
        const N: u64 = 173;
        let hits: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        fork_call(Parallel::new().num_threads(4), |ctx| {
            let mut ws = WsLoop::begin(Some(ctx), Schedule::dynamic(Some(5)), N, None)
                .expect("valid schedule");
            while let Some(r) = ws.next() {
                assert!(r.end - r.start <= 5 * crate::schedule::STEAL_BATCH);
                for i in r {
                    hits[i as usize].fetch_add(1, Ordering::SeqCst);
                }
            }
            ws.end();
            ctx.barrier();
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn split_single_chooses_exactly_one() {
        let wins = AtomicUsize::new(0);
        fork_call(Parallel::new().num_threads(4), |ctx| {
            for _ in 0..10 {
                let tok = ctx.single_begin();
                if tok.chosen {
                    wins.fetch_add(1, Ordering::SeqCst);
                }
                ctx.single_end(tok, false);
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), 10);
    }

    /// `end` before exhaustion releases the slot, a second `end` and the
    /// drop that follows are no-ops, and an ended loop claims nothing more.
    #[test]
    fn split_dispatch_explicit_end_without_exhaustion() {
        fork_call(Parallel::new().num_threads(2), |ctx| {
            let mut ws = WsLoop::begin(Some(ctx), Schedule::dynamic(Some(1)), 6, None)
                .expect("valid schedule");
            assert!(ws.next().is_some());
            ws.end();
            ws.end();
            assert_eq!(ws.next(), None);
            drop(ws);
            ctx.barrier();
            // Team machinery must still be usable afterwards, past the
            // slot's next turn (a second release would skip that turn).
            for _ in 0..=NUM_CONSTRUCT_SLOTS {
                let tok = ctx.single_begin();
                ctx.single_end(tok, false);
            }
        });
    }
}
