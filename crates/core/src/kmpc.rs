//! The internal `__kmpc_*`-shaped API (the paper's `.omp.internal`
//! namespace).
//!
//! The paper's preprocessor does not target the user-facing `omp_*` API but
//! the *internal* libomp entry points, re-exported to Zig under
//! `.omp.internal` together with generic wrapper helpers (§III-C). This
//! module is that layer: thin, explicitly-named functions matching the
//! libomp contract. Its [`WsLoop`] drives every worksharing loop: the
//! `zomp-vm` crate's `ws_*` builtins, [`crate::workshare::for_loop`] and
//! [`crate::team::ThreadCtx::sections`] all run through it. Rust
//! applications normally use [`crate::workshare`] instead.
//!
//! Name mapping:
//!
//! | libomp | here |
//! |---|---|
//! | `__kmpc_fork_call` | [`fork_call`] (re-export of [`crate::team::fork_call`]) |
//! | `__kmpc_for_static_init_8` | [`for_static_init`]; [`WsLoop::begin`] |
//! | `__kmpc_dispatch_init_8` | [`WsLoop::begin`] |
//! | `__kmpc_dispatch_next_8` | [`WsLoop::next`] |
//! | `__kmpc_dispatch_fini` / `__kmpc_for_static_fini` | [`WsLoop::end`] |
//! | `__kmpc_barrier` | [`crate::team::ThreadCtx::barrier`] |
//! | `__kmpc_critical` / `__kmpc_end_critical` | [`crate::sync::critical_named`] |
//! | `__kmpc_master` | [`crate::team::ThreadCtx::master`] |
//! | `__kmpc_single` | [`crate::team::ThreadCtx::single`] |
//! | reduction helpers | [`crate::reduction::RedCell`] |

use std::ops::Range;
use std::sync::Arc;

use crate::runtime::Runtime;
use crate::schedule::{
    static_block, ChunkOrigin, DynamicDispatch, GuidedDispatch, Schedule, ScheduleError,
    ScheduleKind, StaticChunked, STEAL_MAX_TRIP,
};
use crate::team::{TeamShared, ThreadCtx};
use crate::trace;

pub use crate::team::fork_call;

/// The per-thread result of `__kmpc_for_static_init`: which *normalised*
/// iteration ranges this thread executes. For the unchunked static schedule
/// this is a single block; for `static,chunk` it is the round-robin chunk
/// sequence (equivalent to libomp's `(lb, ub, stride)` triple).
pub enum StaticIter {
    Block(std::iter::Once<Range<u64>>),
    Chunked(StaticChunked),
}

impl Iterator for StaticIter {
    type Item = Range<u64>;

    fn next(&mut self) -> Option<Range<u64>> {
        match self {
            StaticIter::Block(it) => it.next(),
            StaticIter::Chunked(it) => it.next(),
        }
    }
}

/// `__kmpc_for_static_init`: compute the calling thread's share of a
/// statically scheduled loop. Pure — no team state is touched, exactly as in
/// libomp. Returns a typed [`ScheduleError`] on a non-positive chunk or an
/// invalid `tid`/`nth` pair instead of panicking.
pub fn for_static_init(
    tid: usize,
    nth: usize,
    trip: u64,
    chunk: Option<i64>,
) -> Result<StaticIter, ScheduleError> {
    if nth < 1 || tid >= nth {
        return Err(ScheduleError::BadThread { tid, nth });
    }
    Ok(match chunk {
        None => StaticIter::Block(std::iter::once(static_block(tid, nth, trip))),
        Some(c) => StaticIter::Chunked(StaticChunked::try_new(tid, nth, trip, c)?),
    })
}

/// Shared dispatch state of one dynamic/guided worksharing loop, kept in
/// the team's construct slot.
#[derive(Debug)]
pub(crate) enum Dispatcher {
    Dynamic(DynamicDispatch),
    Guided(GuidedDispatch),
}

/// Where a [`WsLoop`] claims its chunks.
enum Claims {
    /// This thread's closed-form ranges: a static schedule, any schedule
    /// at a team of one, or a loop too long for the steal deck.
    Static(StaticIter),
    /// The dispatcher of `team`'s construct `construct`, claimed as thread
    /// `tid` (the work-stealing decks key per-thread state by team id).
    Team {
        team: Arc<TeamShared>,
        construct: u64,
        tid: usize,
        dispatcher: Arc<Dispatcher>,
    },
    /// [`WsLoop::end`] ran.
    Ended,
}

/// One thread's split-phase handle on one worksharing loop. Every
/// worksharing loop in the runtime runs through it.
///
/// [`WsLoop::begin`] is `__kmpc_for_static_init` and `__kmpc_dispatch_init`
/// in one. A static schedule gets this thread's closed-form ranges, and so
/// does every schedule at a team of one (orphaned loops included): with no
/// thread to balance against, a serialized team needs no dispatcher, and its
/// one claim is the whole loop. Dynamic and guided schedules at a team of 2
/// or more share the team construct slot's work-stealing dispatcher, up to
/// [`STEAL_MAX_TRIP`] iterations; a longer loop takes the static path with
/// the clause's chunk. [`WsLoop::next`] then claims chunks in normalised
/// iteration units, and [`WsLoop::end`] finishes the construct for this
/// thread.
///
/// The handle records the loop's trace spans: one `LoopDispatch` span per
/// thread, reporting the iterations that thread claimed (so a team's spans
/// sum to the trip), with one span per claimed chunk nested inside it.
///
/// Contract, as for every OpenMP worksharing construct: the thread that
/// began a loop claims from it, and every thread of a team begins the same
/// loops in the same order. Dropping a handle ends it, so a thread that
/// abandons a loop still releases its construct slot.
pub struct WsLoop {
    claims: Claims,
    /// Label of the `LoopDispatch` span.
    label: &'static str,
    /// A dynamic or guided schedule: counted as a dispatch init/fini pair
    /// whichever path serves it.
    dynamic: bool,
    /// Construct-entry timestamp (0 when tracing was off at entry).
    t0: u64,
    /// Iterations this thread claimed while tracing was on.
    claimed: u64,
    /// The claimed chunk `(origin, start, len, t0)` whose body runs
    /// between claims: its span closes at the next claim or at `end`.
    pending: Option<(ChunkOrigin, u64, u64, u64)>,
}

impl WsLoop {
    /// Enter a worksharing loop of `trip` normalised iterations. `ctx` is
    /// the calling thread's region context, `None` for an orphaned loop.
    ///
    /// `runtime` is resolved against the team's ICVs (an orphaned loop's:
    /// [`Runtime::current`]). A non-positive chunk is a typed
    /// [`ScheduleError`] under every kind, returned before any team state is
    /// touched, so an `Err` leaves nothing to release. `label` names the
    /// `LoopDispatch` span; `None` names it after the schedule kind.
    pub fn begin(
        ctx: Option<&ThreadCtx<'_>>,
        sched: Schedule,
        trip: u64,
        label: Option<&'static str>,
    ) -> Result<WsLoop, ScheduleError> {
        let sched = if sched.kind == ScheduleKind::Runtime {
            match ctx {
                Some(ctx) => ctx.runtime().icvs().run_schedule(),
                None => Runtime::current().icvs().run_schedule(),
            }
        } else {
            sched
        };
        if let Some(c) = sched.chunk.filter(|&c| c < 1) {
            return Err(ScheduleError::NonPositiveChunk(c));
        }
        let dynamic = sched.kind != ScheduleKind::Static;
        let t0 = trace::dispatch_begin_ts(dynamic);
        let claims = match ctx {
            Some(ctx) if dynamic && ctx.num_threads() > 1 && trip <= STEAL_MAX_TRIP => {
                let (slot, construct) = ctx.enter_construct();
                let nth = ctx.num_threads();
                let dispatcher = ctx.slot_dispatcher(slot, || match sched.kind {
                    ScheduleKind::Guided => {
                        Dispatcher::Guided(GuidedDispatch::new(trip, nth, sched.chunk))
                    }
                    _ => Dispatcher::Dynamic(DynamicDispatch::new(trip, nth, sched.chunk)),
                });
                Claims::Team {
                    team: ctx.shared_team(),
                    construct,
                    tid: ctx.thread_num(),
                    dispatcher,
                }
            }
            _ => {
                let (tid, nth) = ctx.map_or((0, 1), |c| (c.thread_num(), c.num_threads()));
                Claims::Static(for_static_init(tid, nth, trip, sched.chunk)?)
            }
        };
        Ok(WsLoop {
            claims,
            label: label.unwrap_or(match sched.kind {
                ScheduleKind::Static => "static",
                ScheduleKind::Guided => "guided",
                _ => "dynamic",
            }),
            dynamic,
            t0,
            claimed: 0,
            pending: None,
        })
    }

    /// `__kmpc_dispatch_next`: close the previous chunk's span and claim
    /// the next chunk of normalised iterations, or `None` once this
    /// thread's share is exhausted. A dynamic claim is a whole batch (see
    /// [`DynamicDispatch`]).
    #[inline]
    #[allow(clippy::should_implement_trait)] // named after __kmpc_dispatch_next
    pub fn next(&mut self) -> Option<Range<u64>> {
        self.close_chunk();
        let (r, origin) = match &mut self.claims {
            Claims::Static(it) => (it.find(|r| !r.is_empty())?, ChunkOrigin::Owned),
            Claims::Team {
                tid, dispatcher, ..
            } => match &**dispatcher {
                Dispatcher::Dynamic(d) => d.next_with_origin(*tid)?,
                Dispatcher::Guided(g) => g.next_with_origin(*tid)?,
            },
            Claims::Ended => return None,
        };
        if trace::active() {
            self.claimed += r.end - r.start;
            self.pending = Some((origin, r.start, r.end - r.start, trace::chunk_begin_ts()));
        }
        Some(r)
    }

    fn close_chunk(&mut self) {
        if let Some((origin, start, len, t0)) = self.pending.take() {
            trace::chunk(origin, start, len, t0);
        }
    }

    /// `__kmpc_dispatch_fini` / `__kmpc_for_static_fini`: finish the loop
    /// for this thread, exhausted or not. Closes its spans and releases
    /// its construct slot. Idempotent, and run on drop. The loop's
    /// implicit barrier is the caller's.
    pub fn end(&mut self) {
        let claims = std::mem::replace(&mut self.claims, Claims::Ended);
        if matches!(claims, Claims::Ended) {
            return;
        }
        self.close_chunk();
        trace::dispatch_end(self.label, self.claimed, self.dynamic, self.t0);
        if let Claims::Team {
            team,
            construct,
            dispatcher,
            ..
        } = claims
        {
            drop(dispatcher);
            team.release_construct(construct);
        }
    }
}

impl Drop for WsLoop {
    fn drop(&mut self) {
        self.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::LoopBounds;
    use crate::team::{Parallel, NUM_CONSTRUCT_SLOTS};
    use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

    /// Drain `ws` to exhaustion and end it.
    fn drain(mut ws: WsLoop, mut body: impl FnMut(u64)) {
        while let Some(r) = ws.next() {
            r.for_each(&mut body);
        }
        ws.end();
    }

    #[test]
    fn static_init_block_matches_schedule_module() {
        let mut it = for_static_init(1, 4, 100, None).expect("valid static init");
        assert_eq!(it.next(), Some(25..50));
        assert_eq!(it.next(), None);
    }

    #[test]
    fn static_init_chunked_round_robins() {
        let ranges: Vec<_> = for_static_init(0, 2, 10, Some(3))
            .expect("valid static init")
            .collect();
        assert_eq!(ranges, vec![0..3, 6..9]);
    }

    /// Every kind, `runtime` included, at teams of 1, 2 and 4: each
    /// iteration is claimed exactly once.
    #[test]
    fn dispatch_loop_covers_all_iterations() {
        const N: u64 = 250;
        for sched in [
            Schedule::static_default(),
            Schedule::static_chunked(7),
            Schedule::dynamic(Some(7)),
            Schedule::guided(None),
            Schedule::runtime(),
        ] {
            for nth in [1, 2, 4] {
                let hits: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
                fork_call(Parallel::new().num_threads(nth), |ctx| {
                    let ws = WsLoop::begin(Some(ctx), sched, N, None).expect("valid schedule");
                    drain(ws, |i| {
                        hits[i as usize].fetch_add(1, Ordering::SeqCst);
                    });
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                    "{sched:?} at {nth}"
                );
            }
        }
    }

    /// A static loop claims exactly this thread's `for_static_init`
    /// ranges and takes no construct slot; strided bounds denormalise.
    #[test]
    fn static_loop_strided() {
        let bounds = LoopBounds::upto_by(0, 20, 4);
        let trip = bounds.trip_count();
        let sum = AtomicI64::new(0);
        fork_call(Parallel::new().num_threads(3), |ctx| {
            for chunk in [None, Some(1)] {
                let sched = Schedule {
                    kind: ScheduleKind::Static,
                    chunk,
                };
                let mut ws = WsLoop::begin(Some(ctx), sched, trip, None).expect("valid schedule");
                let mut claims = Vec::new();
                while let Some(r) = ws.next() {
                    for i in r.clone() {
                        sum.fetch_add(bounds.iter_value(i), Ordering::SeqCst);
                    }
                    claims.push(r);
                }
                ws.end();
                let want: Vec<_> = for_static_init(ctx.thread_num(), 3, trip, chunk)
                    .expect("valid static init")
                    .filter(|r| !r.is_empty())
                    .collect();
                assert_eq!(claims, want);
            }
            assert_eq!(ctx.constructs_entered(), 0, "a static loop takes no slot");
        });
        assert_eq!(sum.load(Ordering::SeqCst), 2 * (4 + 8 + 12 + 16));
    }

    #[test]
    fn invalid_static_init_parameters_are_typed_errors() {
        assert_eq!(
            for_static_init(4, 4, 10, None).err(),
            Some(ScheduleError::BadThread { tid: 4, nth: 4 })
        );
        assert_eq!(
            for_static_init(0, 2, 10, Some(0)).err(),
            Some(ScheduleError::NonPositiveChunk(0))
        );
    }

    /// Under every kind, at a team of one, of two, and orphaned, a chunk
    /// below 1 is a typed error that takes no construct slot; the team
    /// then runs a loop as usual.
    #[test]
    fn invalid_dispatch_chunk_is_a_typed_error_and_releases_nothing() {
        let kinds = [
            ScheduleKind::Static,
            ScheduleKind::Dynamic,
            ScheduleKind::Guided,
        ];
        for c in [0, -3] {
            for kind in kinds {
                let sched = Schedule {
                    kind,
                    chunk: Some(c),
                };
                let err = Some(ScheduleError::NonPositiveChunk(c));
                assert_eq!(WsLoop::begin(None, sched, 10, None).err(), err);
                for nth in [1, 2] {
                    let hits = AtomicUsize::new(0);
                    fork_call(Parallel::new().num_threads(nth), |ctx| {
                        assert_eq!(WsLoop::begin(Some(ctx), sched, 10, None).err(), err);
                        assert_eq!(ctx.constructs_entered(), 0, "{sched:?}: no slot taken");
                        let ws = WsLoop::begin(Some(ctx), Schedule::dynamic(None), 8, None)
                            .expect("valid schedule");
                        drain(ws, |_| {
                            hits.fetch_add(1, Ordering::SeqCst);
                        });
                    });
                    assert_eq!(hits.load(Ordering::SeqCst), 8);
                }
            }
        }
    }

    /// A dynamic or guided loop longer than the steal deck holds takes the
    /// static path at teams of 2 and 4: each thread's claims are
    /// `for_static_init`'s with the clause's chunk, they sum to the trip,
    /// and no construct slot is taken.
    #[test]
    fn huge_trip_takes_the_static_path() {
        use crate::runtime::{Runtime, RuntimeConfig};
        const TRIP: u64 = STEAL_MAX_TRIP + 10;
        let big = Schedule::dynamic(Some(1 << 20));
        let rt = Runtime::with_config(&RuntimeConfig::default().run_schedule(big));
        for (sched, chunk) in [
            (big, big.chunk),
            (Schedule::guided(None), None),
            (Schedule::runtime(), big.chunk),
        ] {
            for nth in [2, 4] {
                let total = AtomicUsize::new(0);
                crate::team::fork_call_rt(&rt, Parallel::new().num_threads(nth), |ctx| {
                    let mut ws = WsLoop::begin(Some(ctx), sched, TRIP, None).expect("valid");
                    let claims: Vec<_> = std::iter::from_fn(|| ws.next()).collect();
                    ws.end();
                    let want: Vec<_> = for_static_init(ctx.thread_num(), nth, TRIP, chunk)
                        .expect("valid static init")
                        .filter(|r| !r.is_empty())
                        .collect();
                    assert_eq!(claims, want, "{sched:?} at {nth}");
                    let len: u64 = claims.iter().map(|r| r.end - r.start).sum();
                    total.fetch_add(len as usize, Ordering::SeqCst);
                    assert_eq!(ctx.constructs_entered(), 0, "{sched:?}: slot taken");
                });
                assert_eq!(
                    total.load(Ordering::SeqCst) as u64,
                    TRIP,
                    "{sched:?} at {nth}"
                );
            }
        }
    }

    /// A thread that takes one chunk and drops the handle without ending
    /// it releases its slot: more abandoned loops than the ring has slots
    /// do not wedge the team, and a later loop still covers its space.
    #[test]
    fn abandoned_dispatch_handle_releases_slot() {
        let hits = AtomicUsize::new(0);
        fork_call(Parallel::new().num_threads(2), |ctx| {
            for _ in 0..3 * NUM_CONSTRUCT_SLOTS {
                let mut ws = WsLoop::begin(Some(ctx), Schedule::dynamic(Some(1)), 4, None)
                    .expect("valid schedule");
                let _ = ws.next();
            }
            ctx.barrier();
            let ws =
                WsLoop::begin(Some(ctx), Schedule::dynamic(None), 8, None).expect("valid schedule");
            drain(ws, |_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }
}
