//! A thread that fails inside a parallel region must not strand its team.
//!
//! The failing thread's body returns early, so it skips every barrier
//! left in the region; before PR 22 its teammates waited there for good
//! (`zag` never exited, `zagd` answered 504 and wrote the worker off).
//! Now the failure poisons the team: waiters are let go, unwind with a
//! secondary error, and `fork_call` reports the first, real one. Every
//! case here runs under a watchdog, so a regression fails instead of
//! hanging the suite, and is followed by a healthy region on the same
//! worker pool whose results must be exactly what a fresh process
//! computes.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use zomp_vm::value::{ArrF, Value};
use zomp_vm::{Backend, OptLevel, Vm};

/// `SCHEDULE` is substituted per variant. In every faulty entry exactly
/// one iteration (or one thread) fails, so the error text is the same
/// whichever thread gets there first.
const PROGRAM: &str = r#"
// The last iteration stores one past the end; the loop's closing
// barrier is where the rest of the team waits.
fn loop_end(n: i64, nthreads: i64) i64 {
    var a: []i64 = @allocI(n - 1);
    //$omp parallel num_threads(nthreads) shared(a) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp while SCHEDULE
        while (i < n) : (i += 1) {
            a[i] = i;
        }
    }
    return a[0];
}

// The same inside a reduction loop: the wait is `red_loop_end`'s.
fn reduction_end(n: i64, nthreads: i64) i64 {
    var a: []i64 = @allocI(n - 1);
    var total: i64 = 0;
    //$omp parallel num_threads(nthreads) shared(a, total) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp while SCHEDULE reduction(+: total)
        while (i < n) : (i += 1) {
            a[i] = i;
            total = total + i;
        }
    }
    return total;
}

// The last thread fails ahead of an explicit barrier and a `single`.
fn before_barrier(n: i64, nthreads: i64) i64 {
    var a: []i64 = @allocI(n);
    //$omp parallel num_threads(nthreads) shared(a) firstprivate(n, nthreads)
    {
        if (omp.get_thread_num() == nthreads - 1) {
            a[n] = 1;
        }
        //$omp barrier
        //$omp single
        {
            a[0] = 7;
        }
    }
    return a[0];
}

// No barrier until the join, but more `nowait` loops than the team has
// construct slots: the teammates outrun the ring and wait for a slot the
// failed thread will never release.
fn nowait_ring(n: i64, nthreads: i64) i64 {
    var a: []i64 = @allocI(n - 1);
    //$omp parallel num_threads(nthreads) shared(a) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp while schedule(dynamic, 1) nowait
        while (i < n) : (i += 1) {
            a[i] = i;
        }
        var round: i64 = 0;
        while (round < 40) : (round += 1) {
            var k: i64 = 0;
            //$omp while schedule(dynamic, 1) nowait
            while (k < n - 1) : (k += 1) {
                a[k] = a[k] + 0;
            }
        }
    }
    return a[0];
}

fn healthy(n: i64, nthreads: i64, out: []f64) i64 {
    var total: i64 = 0;
    //$omp parallel num_threads(nthreads) shared(out, total) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp while SCHEDULE reduction(+: total)
        while (i < n) : (i += 1) {
            out[i] = @sqrt(@intToFloat(i));
            total = total + i * i;
        }
        //$omp barrier
    }
    return total;
}
"#;

const N: i64 = 40;

/// `vm.call_function`, or a panic if it has not come back in 5 s.
fn call_within_5s(
    vm: &Arc<Vm>,
    what: &str,
    name: &'static str,
    args: Vec<Value>,
) -> Result<Value, String> {
    let (tx, rx) = mpsc::channel();
    let vm = Arc::clone(vm);
    std::thread::Builder::new()
        .stack_size(zomp::STACK_BYTES)
        .spawn(move || {
            let _ = tx.send(vm.call_function(name, args).map_err(|e| e.to_string()));
        })
        .expect("spawn");
    rx.recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("{what}: `{name}` still running after 5 s — the team hangs"))
}

fn healthy_region_is_exact(vm: &Arc<Vm>, what: &str, threads: i64) {
    let out = Arc::new(ArrF::new(N as usize));
    let total = call_within_5s(
        vm,
        what,
        "healthy",
        vec![
            Value::Int(N),
            Value::Int(threads),
            Value::ArrF(Arc::clone(&out)),
        ],
    )
    .unwrap_or_else(|e| panic!("{what}: healthy region after the fault: {e}"));
    assert_eq!(
        total.as_int().unwrap(),
        (0..N).map(|i| i * i).sum::<i64>(),
        "{what}: reduction after the fault"
    );
    for i in 0..N {
        assert_eq!(
            out.get(i).unwrap().to_bits(),
            (i as f64).sqrt().to_bits(),
            "{what}: out[{i}] after the fault"
        );
    }
}

/// Failures *inside* `critical`: the failing thread never reaches its
/// `critical_exit`, and the lock lives on the `Vm`'s runtime, so a held
/// lock would block a teammate at the same `critical` — and every later
/// call on the same `Vm` that enters it.
const CRITICAL: &str = r#"
// Every thread but thread 1 fails inside the section, with one text.
fn in_region(n: i64, nthreads: i64) i64 {
    var a: []i64 = @allocI(n);
    //$omp parallel num_threads(nthreads) shared(a) firstprivate(n)
    {
        //$omp critical
        {
            if (omp.get_thread_num() != 1) {
                a[n] = 1;
            }
            a[0] = a[0] + 1;
        }
    }
    return a[0];
}

// The same failure with no region around it.
fn serial(n: i64) i64 {
    var a: []i64 = @allocI(n);
    //$omp critical
    {
        a[n] = 1;
    }
    return a[0];
}

fn healthy(nthreads: i64) i64 {
    var count: i64 = 0;
    //$omp parallel num_threads(nthreads) shared(count)
    {
        //$omp critical
        {
            count = count + 1;
        }
    }
    return count;
}
"#;

#[test]
fn a_thread_failing_inside_critical_lets_go_of_the_lock() {
    let build = |backend, opt| {
        Arc::new(
            Vm::build(CRITICAL, None, backend, opt)
                .unwrap_or_else(|e| panic!("{}", e.render(CRITICAL))),
        )
    };
    let tiers = [
        ("walker", build(Backend::Ast, OptLevel::O0)),
        ("--opt=0", build(Backend::Bytecode, OptLevel::O0)),
        ("--opt=3", build(Backend::Bytecode, OptLevel::O3)),
    ];
    let want = call_within_5s(&tiers[0].1, "walker, serial", "serial", vec![Value::Int(N)])
        .expect_err("`serial` fails by construction");
    assert!(want.contains("out of bounds"), "{want}");
    for (tier, vm) in &tiers {
        // Each failure is followed by regions that enter the same
        // `critical` on the same `Vm`, at every team size.
        let healthy = |what: &str| {
            for threads in [1i64, 2, 4] {
                let got = call_within_5s(vm, what, "healthy", vec![Value::Int(threads)]);
                assert_eq!(got.map(|v| v.render()), Ok(threads.to_string()), "{what}");
            }
        };
        let what = format!("serial, {tier}");
        let got = call_within_5s(vm, &what, "serial", vec![Value::Int(N)]);
        assert_eq!(got.map(|v| v.render()), Err(want.clone()), "{what}");
        healthy(&what);
        for threads in [1i64, 2, 4] {
            let what = format!("team of {threads}, {tier}");
            let args = vec![Value::Int(N), Value::Int(threads)];
            let got = call_within_5s(vm, &what, "in_region", args);
            assert_eq!(got.map(|v| v.render()), Err(want.clone()), "{what}");
            healthy(&what);
        }
    }
}

#[test]
fn a_failed_thread_does_not_strand_its_team() {
    for sched in [
        "schedule(static)",
        "schedule(dynamic, 3)",
        "schedule(guided)",
    ] {
        let src = PROGRAM.replace("SCHEDULE", sched);
        let build = |backend, opt| {
            Arc::new(
                Vm::build(&src, None, backend, opt)
                    .unwrap_or_else(|e| panic!("{}", e.render(&src))),
            )
        };
        let walker = build(Backend::Ast, OptLevel::O0);
        let tiers = [
            ("walker", Arc::clone(&walker)),
            ("--opt=0", build(Backend::Bytecode, OptLevel::O0)),
            ("--opt=3", build(Backend::Bytecode, OptLevel::O3)),
        ];
        for entry in ["loop_end", "reduction_end", "before_barrier", "nowait_ring"] {
            let args = |threads| vec![Value::Int(N), Value::Int(threads)];
            // A team of one has nobody to strand: its error is the text
            // every team size must report.
            let want = call_within_5s(&walker, "walker, team of 1", entry, args(1))
                .expect_err("the entry fails by construction");
            assert!(want.contains("out of bounds"), "{entry}: {want}");
            for threads in [2i64, 4] {
                for (tier, vm) in &tiers {
                    let what = format!("{entry}, {sched}, team of {threads}, {tier}");
                    let got = call_within_5s(vm, &what, entry, args(threads));
                    assert_eq!(got.map(|v| v.render()), Err(want.clone()), "{what}");
                    healthy_region_is_exact(vm, &what, threads);
                }
            }
        }
    }
}
