//! Worksharing loops: the `omp while` (C: `omp for`) implementation.
//!
//! The paper lowers worksharing loops to two families of entry points
//! (§III-B2):
//!
//! * **static** schedules call `__kmpc_for_static_init` once — partitioning
//!   is closed-form, with no team-shared state — iterate, and call
//!   `__kmpc_for_static_fini`;
//! * **dynamic/guided/runtime** schedules call `__kmpc_dispatch_init` and
//!   then grab chunks with `__kmpc_dispatch_next` until exhaustion.
//!
//! [`for_loop`] drives either protocol from inside a region through
//! [`crate::kmpc::WsLoop`], which runs every loop of the runtime;
//! [`for_reduce`] layers the reduction protocol (thread-local partial initialised to the
//! operator identity, atomically combined at loop end) on top, and
//! [`parallel_for`] / [`parallel_reduce`] fuse a `parallel` region with a
//! single loop — the `parallel while` combined construct.

use crate::kmpc::WsLoop;
use crate::reduction::{RedCell, RedOp, Reduce, ReduceTree};
use crate::schedule::{LoopBounds, Schedule};
use crate::team::{fork_call, Parallel, ThreadCtx};

/// Execute a worksharing loop from inside a parallel region.
///
/// `f` is called with the source loop-variable value for each iteration
/// assigned to the calling thread. Unless `nowait`, the team synchronises at
/// loop end (the implicit barrier every worksharing construct carries by
/// default). Panics with [`crate::schedule::ScheduleError`]'s text on a
/// non-conforming loop or a chunk below 1.
pub fn for_loop<B, F>(ctx: &ThreadCtx<'_>, sched: Schedule, bounds: B, nowait: bool, mut f: F)
where
    B: Into<LoopBounds>,
    F: FnMut(i64),
{
    let bounds: LoopBounds = bounds.into();
    let mut ws = WsLoop::begin(Some(ctx), sched, bounds.trip_count(), None)
        .unwrap_or_else(|e| panic!("{e}"));
    while let Some(r) = ws.next() {
        for i in r {
            f(bounds.iter_value(i));
        }
    }
    ws.end();
    if !nowait {
        ctx.barrier();
    }
}

/// Worksharing loop with a `reduction` clause.
///
/// Each thread accumulates into a private partial initialised to the
/// operator identity. At loop end the partials are merged through a
/// construct-scoped [`ReduceTree`]: padded per-thread slots combined up a
/// log₄(nth) tree, with a single [`RedCell::combine`] at the root instead of
/// `nth` threads CAS-ing one cell. The (non-`nowait`) barrier then makes the
/// combined value safe to read via [`RedCell::get`].
pub fn for_reduce<B, T, F>(
    ctx: &ThreadCtx<'_>,
    sched: Schedule,
    bounds: B,
    nowait: bool,
    cell: &RedCell<T>,
    mut f: F,
) where
    B: Into<LoopBounds>,
    T: Reduce,
    F: FnMut(i64, &mut T),
{
    let mut local = cell.identity();
    for_loop(ctx, sched, bounds, true, |i| f(i, &mut local));
    let nth = ctx.num_threads();
    if nth == 1 {
        cell.combine(local);
    } else {
        let op = cell.op();
        let tree = ctx
            .construct_shared(|| std::sync::Arc::new(ReduceTree::<T>::new(op, nth)))
            .downcast::<ReduceTree<T>>()
            .expect("construct payload is this loop's reduction tree");
        tree.merge(ctx.thread_num(), local, cell);
    }
    if !nowait {
        ctx.barrier();
    }
}

/// Combined `parallel while` construct: fork a team and run one worksharing
/// loop over `bounds`.
#[track_caller]
pub fn parallel_for<B, F>(par: Parallel, sched: Schedule, bounds: B, f: F)
where
    B: Into<LoopBounds>,
    F: Fn(i64) + Sync,
{
    let bounds: LoopBounds = bounds.into();
    fork_call(par, |ctx| {
        // The region join is the barrier; nowait avoids a redundant one.
        for_loop(ctx, sched, bounds, true, &f);
    });
}

/// Combined `parallel while reduction(op: acc)` construct. Returns the
/// reduced value (seeded with `init`, per OpenMP semantics where the
/// original variable's value participates in the reduction).
#[track_caller]
pub fn parallel_reduce<B, T, F>(
    par: Parallel,
    sched: Schedule,
    bounds: B,
    init: T,
    op: RedOp,
    f: F,
) -> T
where
    B: Into<LoopBounds>,
    T: Reduce,
    F: Fn(i64, &mut T) + Sync,
{
    let bounds: LoopBounds = bounds.into();
    let cell = RedCell::new(op, init);
    fork_call(par, |ctx| {
        for_reduce(ctx, sched, bounds, true, &cell, |i, acc| f(i, acc));
    });
    cell.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

    fn all_schedules() -> Vec<Schedule> {
        vec![
            Schedule::static_default(),
            Schedule::static_chunked(1),
            Schedule::static_chunked(7),
            Schedule::dynamic(None),
            Schedule::dynamic(Some(5)),
            Schedule::guided(None),
            Schedule::guided(Some(3)),
        ]
    }

    #[test]
    fn every_iteration_exactly_once_all_schedules() {
        const N: usize = 503; // prime, so partitions are ragged
        for sched in all_schedules() {
            let hits: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(Parallel::new().num_threads(4), sched, 0..N as i64, |i| {
                hits[i as usize].fetch_add(1, Ordering::SeqCst);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::SeqCst),
                    1,
                    "iteration {i} ran wrong number of times under {sched:?}"
                );
            }
        }
    }

    #[test]
    fn strided_bounds_visit_correct_values() {
        let sum = AtomicI64::new(0);
        parallel_for(
            Parallel::new().num_threads(3),
            Schedule::static_default(),
            LoopBounds::upto_by(10, 30, 5), // 10 15 20 25
            |i| {
                sum.fetch_add(i, Ordering::SeqCst);
            },
        );
        assert_eq!(sum.load(Ordering::SeqCst), 70);
    }

    #[test]
    fn empty_loop_is_fine() {
        for sched in all_schedules() {
            parallel_for(Parallel::new().num_threads(4), sched, 5..5, |_| {
                panic!("no iterations should run")
            });
        }
    }

    /// A chunk below 1 panics under every kind, with the typed error's
    /// text, before any iteration runs.
    #[test]
    fn non_positive_chunk_panics_under_every_kind() {
        for sched in [
            Schedule::static_chunked(0),
            Schedule::dynamic(Some(0)),
            Schedule::guided(Some(-2)),
        ] {
            let ran = AtomicUsize::new(0);
            let err = std::panic::catch_unwind(|| {
                parallel_for(Parallel::new().num_threads(2), sched, 0..10, |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            })
            .expect_err("a non-positive chunk panics");
            assert_eq!(
                err.downcast_ref::<String>().map(String::as_str),
                Some("chunk sizes must be positive"),
                "{sched:?}"
            );
            assert_eq!(ran.load(Ordering::SeqCst), 0, "{sched:?}");
        }
    }

    #[test]
    fn reduce_add_matches_serial() {
        let n = 10_000i64;
        for sched in all_schedules() {
            let got = parallel_reduce(
                Parallel::new().num_threads(4),
                sched,
                0..n,
                0i64,
                RedOp::Add,
                |i, acc| *acc += i,
            );
            assert_eq!(got, n * (n - 1) / 2, "under {sched:?}");
        }
    }

    #[test]
    fn reduce_seeds_with_initial_value() {
        let got = parallel_reduce(
            Parallel::new().num_threads(4),
            Schedule::static_default(),
            0..10,
            100i64,
            RedOp::Add,
            |i, acc| *acc += i,
        );
        assert_eq!(got, 145);
    }

    #[test]
    fn reduce_mul_uses_identity_one() {
        let got = parallel_reduce(
            Parallel::new().num_threads(4),
            Schedule::dynamic(Some(1)),
            0..10,
            1i64,
            RedOp::Mul,
            |_, acc| *acc *= 2,
        );
        assert_eq!(got, 1024);
    }

    #[test]
    fn reduce_min_max_f64() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 997) as f64).collect();
        let mx = parallel_reduce(
            Parallel::new().num_threads(4),
            Schedule::guided(None),
            0..data.len() as i64,
            f64::NEG_INFINITY,
            RedOp::Max,
            |i, acc| *acc = acc.max(data[i as usize]),
        );
        let expect = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(mx, expect);
    }

    #[test]
    fn nowait_loops_inside_region() {
        // Two nowait loops followed by an explicit barrier: every iteration
        // of both loops runs exactly once even though threads drift.
        const N: usize = 100;
        let first: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        let second: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        fork_call(Parallel::new().num_threads(4), |ctx| {
            for_loop(ctx, Schedule::dynamic(Some(3)), 0..N as i64, true, |i| {
                first[i as usize].fetch_add(1, Ordering::SeqCst);
            });
            for_loop(ctx, Schedule::dynamic(Some(7)), 0..N as i64, true, |i| {
                second[i as usize].fetch_add(1, Ordering::SeqCst);
            });
            ctx.barrier();
            if ctx.is_master() {
                for i in 0..N {
                    assert_eq!(first[i].load(Ordering::SeqCst), 1);
                    assert_eq!(second[i].load(Ordering::SeqCst), 1);
                }
            }
        });
    }

    #[test]
    fn loop_barrier_orders_phases() {
        // Loop 1 (with barrier) writes, loop 2 reads: classic two-phase
        // stencil pattern must observe all phase-1 writes.
        const N: usize = 64;
        let a: Vec<AtomicI64> = (0..N).map(|_| AtomicI64::new(0)).collect();
        let ok = AtomicUsize::new(0);
        fork_call(Parallel::new().num_threads(4), |ctx| {
            for_loop(ctx, Schedule::static_default(), 0..N as i64, false, |i| {
                a[i as usize].store(i + 1, Ordering::SeqCst);
            });
            for_loop(ctx, Schedule::static_default(), 0..N as i64, true, |i| {
                if a[i as usize].load(Ordering::SeqCst) == i + 1 {
                    ok.fetch_add(1, Ordering::SeqCst);
                }
            });
        });
        assert_eq!(ok.load(Ordering::SeqCst), N);
    }

    #[test]
    fn many_dynamic_loops_recycle_slots() {
        // More dynamic loops than ring slots in one region.
        let total = AtomicI64::new(0);
        fork_call(Parallel::new().num_threads(3), |ctx| {
            for _ in 0..40 {
                for_loop(ctx, Schedule::dynamic(Some(2)), 0..10, false, |i| {
                    total.fetch_add(i, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 40 * 45);
    }

    #[test]
    fn runtime_schedule_reads_icv() {
        // An isolated runtime carries the run-sched-var, so this test cannot
        // race with others mutating the global ICVs.
        use crate::runtime::{Runtime, RuntimeConfig};
        let rt = Runtime::with_config(
            &RuntimeConfig::default().run_schedule(Schedule::dynamic(Some(4))),
        );
        let n = 1000i64;
        let cell = RedCell::new(RedOp::Add, 0i64);
        rt.fork_call(Parallel::new().num_threads(4), |ctx| {
            for_reduce(ctx, Schedule::runtime(), 0..n, true, &cell, |i, acc| {
                *acc += i
            });
        });
        assert_eq!(cell.get(), n * (n - 1) / 2);
    }

    #[test]
    fn downward_loop() {
        use crate::schedule::LoopCmp;
        let sum = AtomicI64::new(0);
        parallel_for(
            Parallel::new().num_threads(2),
            Schedule::static_default(),
            LoopBounds {
                lb: 10,
                ub: 0,
                incr: -1,
                cmp: LoopCmp::Gt,
            },
            |i| {
                sum.fetch_add(i, Ordering::SeqCst);
            },
        );
        assert_eq!(sum.load(Ordering::SeqCst), 55);
    }
}

/// Combined `parallel sections` construct: fork a team and distribute the
/// given section bodies, each running exactly once.
#[track_caller]
pub fn parallel_sections(par: Parallel, sections: &[&(dyn Fn() + Sync)]) {
    fork_call(par, |ctx| {
        ctx.sections(true, sections);
    });
}

#[cfg(test)]
mod sections_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_sections_runs_each_once() {
        let counts: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        let fns: Vec<Box<dyn Fn() + Sync>> = (0..5)
            .map(|i| {
                let c = &counts[i];
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn Fn() + Sync>
            })
            .collect();
        let refs: Vec<&(dyn Fn() + Sync)> = fns.iter().map(|b| b.as_ref()).collect();
        parallel_sections(Parallel::new().num_threads(3), &refs);
        for c in &counts {
            assert_eq!(c.load(Ordering::SeqCst), 1);
        }
    }
}
