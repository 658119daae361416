//! Microbenchmarks of the runtime primitives the paper's compiler lowers
//! to: region fork/join, barriers, the worksharing schedules, and the
//! reduction paths (native atomic RMW vs the Listing 6 CAS loop).
//!
//! These are host-machine measurements (the class C tables come from the
//! `paper-figures` model harness); sample sizes are kept small so the suite
//! stays quick on small hosts.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use zomp::prelude::*;
use zomp::workshare::for_loop;

fn team_size() -> usize {
    // Oversubscription past the core count only adds scheduler noise.
    zomp::omp::get_num_procs().clamp(1, 4)
}

fn bench_fork(c: &mut Criterion) {
    let mut g = c.benchmark_group("fork_join");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    let mut sizes = vec![1usize, 2, team_size()];
    sizes.sort_unstable();
    sizes.dedup();
    for threads in sizes {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                fork_call(Parallel::new().num_threads(t), |ctx| {
                    black_box(ctx.thread_num());
                });
            });
        });
    }
    g.finish();
}

fn bench_barrier(c: &mut Criterion) {
    let mut g = c.benchmark_group("barrier");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    let mut sizes = vec![2usize, team_size().max(2)];
    sizes.sort_unstable();
    sizes.dedup();
    for threads in sizes {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                fork_call(Parallel::new().num_threads(t), |ctx| {
                    for _ in 0..16 {
                        ctx.barrier();
                    }
                });
            });
        });
    }
    g.finish();
}

fn bench_schedules(c: &mut Criterion) {
    const N: i64 = 1 << 14;
    let data: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let mut g = c.benchmark_group("schedule");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    let schedules = [
        ("static", Schedule::static_default()),
        ("static_16", Schedule::static_chunked(16)),
        ("dynamic_16", Schedule::dynamic(Some(16))),
        ("guided", Schedule::guided(None)),
    ];
    for (name, sched) in schedules {
        g.bench_function(name, |b| {
            b.iter(|| {
                let s = parallel_reduce(
                    Parallel::new().num_threads(team_size()),
                    sched,
                    0..N,
                    0.0f64,
                    RedOp::Add,
                    |i, acc| *acc += data[i as usize],
                );
                black_box(s)
            });
        });
    }
    g.finish();
}

fn bench_reductions(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduction_combine");
    g.sample_size(30).measurement_time(Duration::from_secs(2));
    // Native atomic path (fetch_add) vs the CAS loop (multiply, Listing 6).
    g.bench_function("i64_add_native", |b| {
        let cell = RedCell::<i64>::new(RedOp::Add, 0);
        b.iter(|| {
            for _ in 0..1000 {
                cell.combine(black_box(1));
            }
        });
    });
    g.bench_function("i64_mul_cas_loop", |b| {
        let cell = RedCell::<i64>::new(RedOp::Mul, 1);
        b.iter(|| {
            for _ in 0..1000 {
                cell.combine(black_box(1));
            }
        });
    });
    g.bench_function("f64_add_cas_loop", |b| {
        let cell = RedCell::<f64>::new(RedOp::Add, 0.0);
        b.iter(|| {
            for _ in 0..1000 {
                cell.combine(black_box(1.0));
            }
        });
    });
    g.finish();
}

/// Work-stealing decks vs the legacy shared cursor: drain the same loop
/// through both dispatchers, solo and with 4 contending threads. The solo
/// deck is a team of 2 drained by one thread (a team of one would claim
/// the whole loop at once).
fn bench_dispatch_impls(c: &mut Criterion) {
    use zomp::schedule::{legacy::SharedCursorDispatch, DynamicDispatch};
    const N: u64 = 1 << 15;
    let mut g = c.benchmark_group("dispatch_next");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    g.bench_function("steal_deck_solo", |b| {
        b.iter(|| {
            let d = DynamicDispatch::new(N, 2, Some(1));
            while let Some(r) = d.next(0) {
                black_box(r);
            }
        });
    });
    g.bench_function("shared_cursor_solo", |b| {
        b.iter(|| {
            let d = SharedCursorDispatch::new(N, 1);
            while let Some(r) = d.next() {
                black_box(r);
            }
        });
    });
    g.bench_function("steal_deck_4way", |b| {
        b.iter(|| {
            let d = DynamicDispatch::new(N, 4, Some(1));
            std::thread::scope(|s| {
                for tid in 0..4 {
                    let d = &d;
                    s.spawn(move || {
                        while let Some(r) = d.next(tid) {
                            black_box(r);
                        }
                    });
                }
            });
        });
    });
    g.bench_function("shared_cursor_4way", |b| {
        b.iter(|| {
            let d = SharedCursorDispatch::new(N, 1);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let d = &d;
                    s.spawn(move || {
                        while let Some(r) = d.next() {
                            black_box(r);
                        }
                    });
                }
            });
        });
    });
    g.finish();
}

/// Central vs combining-tree barrier at the same team size (the production
/// selector switches at 8; this pins each implementation explicitly).
fn bench_barrier_impls(c: &mut Criterion) {
    use zomp::barrier::Barrier;
    const CYCLES: usize = 64;
    let mut g = c.benchmark_group("barrier_impl");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for (name, make) in [
        ("central_8", Barrier::new_central as fn(usize) -> Barrier),
        ("tree_8", Barrier::new_tree),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let bar = make(8);
                std::thread::scope(|s| {
                    for tid in 0..8 {
                        let bar = &bar;
                        s.spawn(move || {
                            for _ in 0..CYCLES {
                                black_box(bar.wait_as(tid).expect("nobody poisons this barrier"));
                            }
                        });
                    }
                });
            });
        });
    }
    g.finish();
}

/// Flat atomic combine (every thread CASes one cell) vs the padded combining
/// tree (one CAS total, log-depth folds).
fn bench_reduction_impls(c: &mut Criterion) {
    use zomp::reduction::ReduceTree;
    const NTH: usize = 4;
    let mut g = c.benchmark_group("reduction_impl");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    g.bench_function("flat_atomic_4way", |b| {
        b.iter(|| {
            let cell = RedCell::<f64>::new(RedOp::Add, 0.0);
            std::thread::scope(|s| {
                for tid in 0..NTH {
                    let cell = &cell;
                    s.spawn(move || cell.combine(tid as f64));
                }
            });
            black_box(cell.get())
        });
    });
    g.bench_function("tree_4way", |b| {
        b.iter(|| {
            let cell = RedCell::<f64>::new(RedOp::Add, 0.0);
            let tree = ReduceTree::<f64>::new(RedOp::Add, NTH);
            std::thread::scope(|s| {
                for tid in 0..NTH {
                    let cell = &cell;
                    let tree = &tree;
                    s.spawn(move || tree.merge(tid, tid as f64, cell));
                }
            });
            black_box(cell.get())
        });
    });
    g.finish();
}

fn bench_worksharing_nowait(c: &mut Criterion) {
    const N: i64 = 1 << 12;
    let mut g = c.benchmark_group("nowait_vs_barrier");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    for (name, nowait) in [("with_barrier", false), ("nowait", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                fork_call(Parallel::new().num_threads(team_size()), |ctx| {
                    for _ in 0..8 {
                        for_loop(ctx, Schedule::static_default(), 0..N, nowait, |i| {
                            black_box(i);
                        });
                    }
                    ctx.barrier();
                });
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fork,
    bench_barrier,
    bench_schedules,
    bench_reductions,
    bench_dispatch_impls,
    bench_barrier_impls,
    bench_reduction_impls,
    bench_worksharing_nowait
);
criterion_main!(benches);
