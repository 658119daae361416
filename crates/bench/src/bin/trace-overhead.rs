//! Emit `BENCH_trace_overhead.json`: cost of the observability layer at
//! its three settings — fully disabled (the default; must stay within
//! noise of the pre-observability baseline), counters only
//! (`ZOMP_METRICS`), and full event tracing (`ZOMP_TRACE`).
//!
//! Three workloads bracket the instrumented hot paths:
//!
//! - `dispatch_claim_ns`: raw work-stealing chunk claims under contention
//!   (the PR 1 acceptance metric — the disabled number is directly
//!   comparable to `dispatch_next_steal` in `BENCH_runtime.json`);
//! - `loop_iter_ns`: end-to-end `parallel_for` dynamic loop, per
//!   iteration (this path crosses the chunk/dispatch instrumentation);
//! - `fork_join_ns`: region enter/exit (region spans + join wait);
//! - `kernel_probe_ns`: the `--opt=3` bulk-kernel telemetry probe pair
//!   (`kernel_begin_ts` + `kernel_end`) plus a deopt mark — the hooks
//!   the tiered VM crosses on every kernel entry and deopt.
//!
//! Usage: `cargo run --release -p zomp-bench --bin trace-overhead [-- OUT]`
//! (default output path `BENCH_trace_overhead.json`).

use std::hint::black_box;
use std::time::Instant;

use zomp::prelude::*;
use zomp::schedule::{DynamicDispatch, Schedule};
use zomp::trace;
use zomp::workshare::parallel_for;

const THREADS: usize = 4;
const SAMPLES: usize = 15;

fn median_ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            // Full rings degrade event pushes to drop-counting; reset so
            // every sample measures the recording path, not the drop path.
            trace::reset();
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    ns.sort_by(|a, b| a.total_cmp(b));
    ns[ns.len() / 2]
}

fn bench_dispatch_claim(trip: u64) -> f64 {
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

fn bench_loop_iter(trip: i64) -> f64 {
    median_ns_per_op(trip as u64, || {
        parallel_for(
            Parallel::new().num_threads(THREADS).label("bench-loop"),
            Schedule::dynamic(Some(64)),
            0..trip,
            |i| {
                black_box(i);
            },
        );
    })
}

fn bench_fork_join() -> f64 {
    const FORKS: u64 = 200;
    median_ns_per_op(FORKS, || {
        for _ in 0..FORKS {
            fork_call(
                Parallel::new().num_threads(THREADS).label("bench-fork"),
                |ctx| {
                    black_box(ctx.thread_num());
                },
            );
        }
    })
}

/// The kernel-telemetry probe pair the VM's `BulkLoop` arm executes per
/// native kernel run, plus a deopt mark — measured bare so the
/// disabled number bounds what `--opt=3` pays with tracing off.
fn bench_kernel_probe() -> f64 {
    const CALLS: u64 = 1 << 17;
    median_ns_per_op(CALLS, || {
        for i in 0..CALLS {
            let t0 = trace::kernel_begin_ts();
            trace::kernel_end("bench-kernel", 7, 64, None, t0);
            if i & 0xfff == 0 {
                trace::deopt("index.f->index", 11);
            }
            black_box(t0);
        }
    })
}

struct Tier {
    dispatch_claim_ns: f64,
    loop_iter_ns: f64,
    fork_join_ns: f64,
    kernel_probe_ns: f64,
}

fn measure_tier() -> Tier {
    const TRIP: u64 = 1 << 17;
    Tier {
        dispatch_claim_ns: bench_dispatch_claim(TRIP),
        loop_iter_ns: bench_loop_iter(1 << 17),
        fork_join_ns: bench_fork_join(),
        kernel_probe_ns: bench_kernel_probe(),
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_trace_overhead.json".into());

    eprintln!("tier 1/3: instrumentation disabled...");
    trace::disable_all();
    let off = measure_tier();

    eprintln!("tier 2/3: counters only (ZOMP_METRICS path)...");
    trace::enable_counters();
    let counters = measure_tier();

    eprintln!("tier 3/3: full event tracing (ZOMP_TRACE path)...");
    trace::enable_events();
    let events = measure_tier();
    trace::disable_all();
    trace::reset();

    let tier_json = |t: &Tier| {
        format!(
            "{{\n      \"dispatch_claim\": {:.2},\n      \"loop_iter\": {:.2},\n      \
             \"fork_join\": {:.1},\n      \"kernel_probe\": {:.2}\n    }}",
            t.dispatch_claim_ns, t.loop_iter_ns, t.fork_join_ns, t.kernel_probe_ns
        )
    };
    let meta = zomp_bench::meta::json_object();
    let json = format!(
        "{{\n  \"meta\": {meta},\n  \"threads\": {THREADS},\n  \"samples\": {SAMPLES},\n  \"median_ns\": {{\n    \
         \"disabled\": {},\n    \"counters\": {},\n    \"events\": {}\n  }},\n  \
         \"loop_iter_overhead_ratio\": {{\n    \"counters\": {:.3},\n    \"events\": {:.3}\n  }}\n}}\n",
        tier_json(&off),
        tier_json(&counters),
        tier_json(&events),
        counters.loop_iter_ns / off.loop_iter_ns,
        events.loop_iter_ns / off.loop_iter_ns,
    );
    std::fs::write(&out, &json).expect("write BENCH_trace_overhead.json");
    print!("{json}");
    eprintln!(
        "loop overhead vs disabled: counters {:.2}x, events {:.2}x -> {out}",
        counters.loop_iter_ns / off.loop_iter_ns,
        events.loop_iter_ns / off.loop_iter_ns
    );
}
