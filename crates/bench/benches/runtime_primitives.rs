//! Microbenchmarks of the runtime primitives the paper's compiler lowers
//! to: region fork/join, barriers, the worksharing schedules, and the
//! reduction paths (native atomic RMW vs the Listing 6 CAS loop).
//!
//! The `vm_region` group is the VM's per-region budget at a team of one:
//! each row adds one piece of a `parallel` region to the row before it,
//! so the differences are the terms (fork/join, region reduction,
//! worksharing protocol, template entry) and `fork_small` is
//! `runtime_fine`'s program of the same name.
//!
//! The `compile` group is what a `zagd` cache miss pays before its program
//! runs: `compile_opt` on the NPB ports and one `Runtime` construction.
//!
//! The `trace_modes` group is the cost of one kernel-telemetry probe pair
//! at each tracing setting (disabled, counters, events).
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

/// Work-stealing decks vs the shared-cursor baseline: drain the same loop
/// through both dispatchers, solo and with 4 contending threads. The solo
/// deck is a team of 2 drained by one thread (a team of one would claim
/// the whole loop at once).
fn bench_dispatch_impls(c: &mut Criterion) {
    use zomp::schedule::DynamicDispatch;
    use zomp_bench::baseline::SharedCursor;
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
            let d = SharedCursor::new(N, 1);
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
            let d = SharedCursor::new(N, 1);
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

/// What one kernel-telemetry probe pair (`kernel_begin_ts` then
/// `kernel_end`, the hooks the VM crosses on every native kernel run)
/// costs with tracing disabled, with counters (`ZOMP_METRICS`) and with
/// events and counters (`ZOMP_TRACE`), in ns per pair. A thread's event
/// ring holds `trace::RING_CAP` events and is never refilled, so past its
/// first samples the events row times the full-ring path, which counts a
/// drop instead of writing the event.
fn bench_trace_modes(c: &mut Criterion) {
    use zomp::trace;
    let mut g = c.benchmark_group("trace_modes");
    g.sample_size(20).measurement_time(Duration::from_secs(1));
    let modes: [(&str, fn()); 3] = [
        ("disabled", trace::disable_all),
        ("counters", trace::enable_counters),
        ("events", || {
            trace::enable_counters();
            trace::enable_events();
        }),
    ];
    for (name, arm) in modes {
        trace::disable_all();
        arm();
        g.bench_function(BenchmarkId::new("kernel_probe", name), |b| {
            b.iter(|| {
                let t0 = trace::kernel_begin_ts();
                trace::kernel_end("bench-kernel", 7, black_box(64), None, t0);
            })
        });
    }
    trace::disable_all();
    trace::reset();
    g.finish();
}

/// Regions per timed call in [`bench_vm_region`]: the call's own cost
/// is spread over them, and a call's median in µs reads as ns per region.
const VM_REGIONS: i64 = 1000;

/// One Zag function per `vm_region` row, all `probe(x, regions, n)`:
/// `regions` back-to-back regions at a team of one, each adding one piece
/// to the row above. The `if`/`else` keeps `ws_interp`'s loop body out of
/// the template tier; `template`'s body is the one `fork_small` runs.
const VM_REGION_PROBES: [(&str, &str); 4] = [
    (
        "empty",
        "var s: i64 = 0;
        //$omp parallel num_threads(1) firstprivate(n)
        {
            var z: i64 = n;
        }",
    ),
    (
        "reduction",
        "var s: i64 = 0;
        //$omp parallel num_threads(1) firstprivate(n) reduction(+: s)
        {
            s = s + n;
        }",
    ),
    (
        "ws_interp",
        "var s: i64 = 0;
        //$omp parallel num_threads(1) shared(x) firstprivate(n) reduction(+: s)
        {
            var i: i64 = 0;
            //$omp while schedule(static)
            while (i < n) : (i += 1) {
                if (x[i] > 500) {
                    s = s + 1;
                } else {
                    s = s + 2;
                }
            }
        }",
    ),
    (
        "template",
        "var s: i64 = 0;
        //$omp parallel num_threads(1) shared(x) firstprivate(r, n) reduction(+: s)
        {
            var i: i64 = 0;
            //$omp while schedule(static)
            while (i < n) : (i += 1) {
                s = s + x[i] * (r % 7 + 1);
            }
        }",
    ),
];

/// `runtime_fine`'s `fork_small(x, regions, nthreads)`, read from the
/// benchmark's own program text so the row cannot drift from it.
fn fork_small_source() -> String {
    const PROGRAMS: &str = include_str!("../../../benchmark/src/programs.rs");
    const HEAD: &str = "pub const FORK_SMALL: &str = r#\"";
    let start = PROGRAMS
        .find(HEAD)
        .expect("benchmark/src/programs.rs defines FORK_SMALL")
        + HEAD.len();
    let len = PROGRAMS[start..]
        .find("\"#;")
        .expect("FORK_SMALL is a raw string");
    PROGRAMS[start..start + len].to_string()
}

/// The VM's per-region cost at a team of one, term by term (ns per
/// region). `ws_interp` and `template` run at trips 0, 1 and 64; at
/// trip 0 neither body runs, so the two rows differ only in noise.
fn bench_vm_region(c: &mut Criterion) {
    use std::sync::Arc;
    use zomp_vm::value::ArrI;
    use zomp_vm::{Backend, OptLevel, Value, Vm};
    let x = Arc::new(ArrI::new(64));
    for i in 0..64 {
        x.set(i, i * 37 % 1000).expect("in bounds");
    }
    let mut g = c.benchmark_group("vm_region");
    g.sample_size(30).measurement_time(Duration::from_secs(1));
    let rows = VM_REGION_PROBES.iter().map(|&(name, body)| {
        let source = format!(
            "fn probe(x: []i64, regions: i64, n: i64) i64 {{
    var total: i64 = 0;
    var r: i64 = 0;
    while (r < regions) : (r += 1) {{
        {body}
        total = total + s;
    }}
    return total;
}}"
        );
        let trips: &[i64] = match name {
            "ws_interp" | "template" => &[0, 1, 64],
            _ => &[1],
        };
        (name, "probe", source, trips)
    });
    // `fork_small`'s third argument is the team size.
    let fork_small = ("fork_small", "fork_small", fork_small_source(), &[1][..]);
    for (name, func, source, trips) in rows.chain([fork_small]) {
        let vm = Vm::build(&source, Some("probe.zag"), Backend::Native, OptLevel::O3)
            .unwrap_or_else(|e| panic!("probe `{name}`: {}", e.render(&source)));
        for &n in trips {
            let args = || {
                vec![
                    Value::ArrI(Arc::clone(&x)),
                    Value::Int(VM_REGIONS),
                    Value::Int(n),
                ]
            };
            let id = match trips.len() {
                1 => name.to_string(),
                _ => format!("{name}_{n}"),
            };
            g.bench_function(BenchmarkId::new(id, "x1000"), |b| {
                b.iter(|| black_box(vm.call_function(func, args()).expect("probe runs")))
            });
        }
    }
    g.finish();
}

/// What a never-seen `zagd` source pays before it runs: `compile_opt` at
/// `--opt=3` on the three NPB ports, and building the `Runtime` every
/// request executes against (µs per row; `zag --time-passes` splits a
/// compile by stage).
fn bench_compile(c: &mut Criterion) {
    use zomp_bench::ports::{ZAG_EP, ZAG_MATVEC, ZAG_RANK};
    use zomp_vm::OptLevel;
    let mut g = c.benchmark_group("compile");
    g.sample_size(30).measurement_time(Duration::from_secs(2));
    for (name, source) in [("cg", ZAG_MATVEC), ("ep", ZAG_EP), ("is", ZAG_RANK)] {
        g.bench_function(BenchmarkId::new("compile_opt", name), |b| {
            b.iter(|| zomp_vm::compile_opt(black_box(source), Some("port.zag"), OptLevel::O3))
        });
    }
    g.bench_function("runtime", |b| {
        b.iter(|| zomp::Runtime::with_config(&zomp::RuntimeConfig::default()))
    });
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
    bench_worksharing_nowait,
    bench_trace_modes,
    bench_vm_region,
    bench_compile
);
criterion_main!(benches);
