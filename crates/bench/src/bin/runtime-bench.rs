//! Emit `BENCH_runtime.json`: median nanoseconds per runtime-primitive
//! operation on the host machine, for trajectory tracking across commits.
//!
//! Covers the four hot paths the contention-aware refactor touched —
//! region fork/join, barrier cycles, dynamic-dispatch chunk claims (both
//! the work-stealing decks and the shared-cursor baseline, so the speedup
//! is recorded), and reduction merges (padded combining tree vs flat atomic).
//!
//! Usage: `cargo run --release -p zomp-bench --bin runtime-bench [-- OUT]`
//! (default output path `BENCH_runtime.json` in the current directory).

use std::hint::black_box;
use std::time::Instant;

use zomp::prelude::*;
use zomp::reduction::ReduceTree;
use zomp::schedule::DynamicDispatch;
use zomp_bench::baseline::SharedCursor;

/// Contending threads for every multi-thread measurement (the acceptance
/// configuration for the dispatch speedup).
const THREADS: usize = 4;
/// Samples per metric; the median damps scheduler noise on small hosts.
const SAMPLES: usize = 15;

/// Median ns/op over `SAMPLES` runs of `f`, where each run performs `ops`
/// operations.
fn median_ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    // One untimed warmup to populate caches and the hot team.
    f();
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    ns.sort_by(|a, b| a.total_cmp(b));
    ns[ns.len() / 2]
}

fn bench_fork() -> f64 {
    const FORKS: u64 = 200;
    median_ns_per_op(FORKS, || {
        for _ in 0..FORKS {
            fork_call(Parallel::new().num_threads(THREADS), |ctx| {
                black_box(ctx.thread_num());
            });
        }
    })
}

fn bench_barrier() -> f64 {
    const CYCLES: u64 = 2000;
    median_ns_per_op(CYCLES, || {
        fork_call(Parallel::new().num_threads(THREADS), |ctx| {
            for _ in 0..CYCLES {
                ctx.barrier();
            }
        });
    })
}

/// ns per chunk claim, draining `trip` chunk-1 iterations with `THREADS`
/// std threads (no team machinery — isolates the dispatcher itself).
fn bench_dispatch_steal(trip: u64) -> f64 {
    median_ns_per_op(trip, || {
        let d = DynamicDispatch::new(trip, THREADS, Some(1));
        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let d = &d;
                s.spawn(move || {
                    while let Some(r) = d.next(tid) {
                        black_box(r);
                    }
                });
            }
        });
    })
}

fn bench_dispatch_shared_cursor(trip: u64) -> f64 {
    median_ns_per_op(trip, || {
        let d = SharedCursor::new(trip, 1);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let d = &d;
                s.spawn(move || {
                    while let Some(r) = d.next() {
                        black_box(r);
                    }
                });
            }
        });
    })
}

/// ns per reduction construct (tree build + `THREADS` merges + root
/// combine, plus the round barrier both variants share). Threads persist
/// across rounds so spawn cost stays out of the measurement.
fn bench_reduction_tree() -> f64 {
    const ROUNDS: usize = 200;
    median_ns_per_op(ROUNDS as u64, || {
        let cells: Vec<RedCell<f64>> = (0..ROUNDS).map(|_| RedCell::new(RedOp::Add, 0.0)).collect();
        let trees: Vec<ReduceTree<f64>> = (0..ROUNDS)
            .map(|_| ReduceTree::new(RedOp::Add, THREADS))
            .collect();
        let bar = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let (cells, trees, bar) = (&cells, &trees, &bar);
                s.spawn(move || {
                    for (tree, cell) in trees.iter().zip(cells.iter()) {
                        tree.merge(tid, tid as f64, cell);
                        bar.wait();
                    }
                });
            }
        });
        black_box(cells.last().map(|c| c.get()));
    })
}

/// Old flat path: every thread CASes the one reduction cell directly.
fn bench_reduction_flat() -> f64 {
    const ROUNDS: usize = 200;
    median_ns_per_op(ROUNDS as u64, || {
        let cells: Vec<RedCell<f64>> = (0..ROUNDS).map(|_| RedCell::new(RedOp::Add, 0.0)).collect();
        let bar = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let (cells, bar) = (&cells, &bar);
                s.spawn(move || {
                    for cell in cells.iter() {
                        cell.combine(tid as f64);
                        bar.wait();
                    }
                });
            }
        });
        black_box(cells.last().map(|c| c.get()));
    })
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_runtime.json".into());

    const TRIP: u64 = 1 << 17;
    eprintln!("measuring fork/join ({THREADS} threads)...");
    let fork_ns = bench_fork();
    eprintln!("measuring barrier cycle ({THREADS} threads)...");
    let barrier_ns = bench_barrier();
    eprintln!("measuring dispatch-next, work-stealing decks...");
    let steal_ns = bench_dispatch_steal(TRIP);
    eprintln!("measuring dispatch-next, shared-cursor baseline...");
    let legacy_ns = bench_dispatch_shared_cursor(TRIP);
    eprintln!("measuring reduction merge, combining tree...");
    let tree_ns = bench_reduction_tree();
    eprintln!("measuring reduction merge, flat atomic...");
    let flat_ns = bench_reduction_flat();

    // Chunk throughput ratio at the acceptance configuration: how many
    // times more chunk claims per second the decks sustain over the
    // shared cursor at 4 contending threads.
    let speedup = legacy_ns / steal_ns;

    let meta = zomp_bench::meta::json_object();
    let json = format!(
        "{{\n  \
         \"meta\": {meta},\n  \
         \"threads\": {THREADS},\n  \
         \"samples\": {SAMPLES},\n  \
         \"median_ns\": {{\n    \
         \"fork_join\": {fork_ns:.1},\n    \
         \"barrier_cycle\": {barrier_ns:.1},\n    \
         \"dispatch_next_steal\": {steal_ns:.2},\n    \
         \"dispatch_next_legacy\": {legacy_ns:.2},\n    \
         \"reduction_merge_tree\": {tree_ns:.1},\n    \
         \"reduction_merge_flat\": {flat_ns:.1}\n  \
         }},\n  \
         \"dispatch_chunk_throughput_ratio\": {speedup:.2}\n}}\n"
    );
    std::fs::write(&out, &json).expect("write BENCH_runtime.json");
    print!("{json}");
    eprintln!(
        "dispatch chunk throughput at {THREADS} threads: {speedup:.2}x the shared cursor -> {out}"
    );
}
