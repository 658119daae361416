//! Cross-crate integration: the same computation expressed (a) in
//! pragma-annotated Zag through the full compiler pipeline and (b) in
//! native Rust on the zomp runtime must agree; runtime facilities (ICVs,
//! profiling, safety modes) must work through every layer.

use std::sync::Arc;

use zomp::prelude::*;
use zomp_vm::value::{ArrF, Value};
use zomp_vm::Vm;

/// Dot product three ways: serial Rust, zomp-parallel Rust, and Zag
/// through the pragma pipeline. All must agree (identical static
/// partitioning and per-thread left-to-right accumulation make the zomp
/// and Zag runs bitwise equal; serial differs only by summation order).
#[test]
fn dot_product_zag_equals_rust() {
    let n = 2048usize;
    let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).cos()).collect();

    // (a) native Rust on zomp.
    let rust_dot = parallel_reduce(
        Parallel::new().num_threads(4),
        Schedule::static_default(),
        0..n as i64,
        0.0f64,
        RedOp::Add,
        |i, acc| *acc += xs[i as usize] * ys[i as usize],
    );

    // (b) Zag through tokenizer → parser → preprocessor → VM → zomp.
    let x = Arc::new(ArrF::new(n));
    let y = Arc::new(ArrF::new(n));
    for i in 0..n {
        x.set(i as i64, xs[i]).unwrap();
        y.set(i as i64, ys[i]).unwrap();
    }
    let vm = Vm::new(
        r#"
fn dot(x: []f64, y: []f64, n: i64) f64 {
    var acc: f64 = 0.0;
    //$omp parallel num_threads(4) shared(x, y, acc) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp while schedule(static) reduction(+: acc)
        while (i < n) : (i += 1) {
            acc = acc + x[i] * y[i];
        }
    }
    return acc;
}
"#,
    )
    .unwrap();
    let zag_dot = vm
        .call_function(
            "dot",
            vec![Value::ArrF(x), Value::ArrF(y), Value::Int(n as i64)],
        )
        .unwrap()
        .as_float()
        .unwrap();

    let serial: f64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
    assert!(
        (zag_dot - rust_dot).abs() < 1e-12,
        "zag {zag_dot} vs rust {rust_dot}"
    );
    assert!(((zag_dot - serial) / serial).abs() < 1e-12);
}

/// The VM obeys the ICVs: OMP-style runtime schedule set through the Rust
/// API drives `schedule(runtime)` loops inside Zag.
#[test]
fn runtime_schedule_icv_crosses_layers() {
    zomp::omp::set_schedule(Schedule::dynamic(Some(3)));
    let out = Vm::run(
        r#"
fn main() void {
    var total: i64 = 0;
    //$omp parallel num_threads(3) reduction(+: total)
    {
        var i: i64 = 0;
        //$omp while schedule(runtime)
        while (i < 100) : (i += 1) {
            total += i;
        }
    }
    print(total);
}
"#,
    )
    .unwrap();
    assert_eq!(out, vec!["4950"]);
    zomp::omp::set_schedule(Schedule::static_default());
}

/// Profiling instruments regions created by the VM's fork_call too.
#[test]
fn profiling_sees_vm_regions() {
    zomp::profile::reset();
    zomp::profile::enable();
    Vm::run(
        r#"
fn main() void {
    var x: i64 = 0;
    //$omp parallel num_threads(2) reduction(+: x)
    {
        x += 1;
    }
    _ = x;
}
"#,
    )
    .unwrap();
    zomp::profile::disable();
    let report = zomp::profile::report();
    let region = report.iter().find(|r| r.label == "<parallel>");
    assert!(region.is_some(), "VM region not profiled: {report:?}");
    assert!(region.unwrap().invocations >= 1);
}

/// The NPB CG kernel runs on the same runtime the VM uses, concurrently
/// from separate host threads, without interference (the worker pool is
/// shared but teams are independent).
#[test]
fn npb_and_vm_share_the_runtime_pool() {
    use npb::cg::{run, Mode};
    use npb::class::CgParams;

    let tiny = CgParams {
        class: npb::Class::S,
        na: 300,
        nonzer: 4,
        niter: 3,
        shift: 9.0,
        zeta_verify: f64::NAN,
    };

    std::thread::scope(|s| {
        let h1 = s.spawn(|| run(&tiny, Mode::Parallel(2)).zeta);
        let h2 = s.spawn(|| {
            Vm::run(
                r#"
fn main() void {
    var c: i64 = 0;
    //$omp parallel num_threads(2) reduction(+: c)
    {
        var i: i64 = 0;
        //$omp while schedule(dynamic, 7)
        while (i < 500) : (i += 1) {
            c += 1;
        }
    }
    print(c);
}
"#,
            )
            .unwrap()
        });
        let zeta_parallel = h1.join().unwrap();
        let vm_out = h2.join().unwrap();
        assert_eq!(vm_out, vec!["500"]);
        let zeta_serial = run(&tiny, Mode::Serial).zeta;
        assert!((zeta_parallel - zeta_serial).abs() < 1e-10);
    });
}

/// Zag arrays check bounds in every safety mode: the mode governs only the
/// Rust API's `SharedSlice`, so an out-of-bounds read and store fail with
/// the same text under `Debug` and `Production`.
#[test]
fn safety_mode_crosses_the_stack() {
    use zomp::safety::{with_safety_mode, SafetyMode};
    const PROG: &str = r#"
fn main() void {
    var a: []i64 = @allocI(4);
    var i: i64 = 0;
    while (i < 4) : (i += 1) {
        a[i] = i;
    }
    print(a[3]);
}
"#;
    // In-bounds program works in every mode.
    with_safety_mode(SafetyMode::Debug, || {
        assert_eq!(Vm::run(PROG).unwrap(), vec!["3"]);
    });
    with_safety_mode(SafetyMode::Production, || {
        assert_eq!(Vm::run(PROG).unwrap(), vec!["3"]);
    });
    for (bad, text) in [
        ("print(a[9]);", "index 9 out of bounds (len 4)"),
        ("a[1000] = 7;", "index 1000 out of bounds (len 4)"),
    ] {
        let src = format!("fn main() void {{ var a: []i64 = @allocI(4); {bad} }}");
        for mode in [SafetyMode::Debug, SafetyMode::Production] {
            let e = with_safety_mode(mode, || Vm::run(&src).unwrap_err());
            assert!(e.to_string().contains(text), "{mode:?} {bad}: {e}");
        }
    }
}

/// The preprocessor's output is a fixed point: preprocessing it again
/// changes nothing (idempotence of the pass pipeline).
#[test]
fn preprocessing_is_idempotent() {
    let src = r#"
fn main() void {
    var s: f64 = 0.0;
    //$omp parallel num_threads(2) reduction(+: s)
    {
        var i: i64 = 0;
        //$omp while schedule(static, 4) nowait
        while (i < 64) : (i += 1) {
            s = s + 1.0;
        }
        //$omp barrier
        //$omp master
        { s = s * 1.0; }
    }
    _ = s;
}
"#;
    let once = zomp_front::preprocess(src).unwrap();
    let twice = zomp_front::preprocess(&once).unwrap();
    assert_eq!(once, twice);
}

/// A histogram computed with `omp atomic` in Zag matches the zomp-native
/// RedCell/critical implementation.
#[test]
fn histogram_zag_vs_rust() {
    const BUCKETS: usize = 8;
    const N: i64 = 4000;

    // Native Rust with atomics.
    let cells: Vec<zomp::atomic::AtomicF64> = (0..BUCKETS)
        .map(|_| zomp::atomic::AtomicF64::new(0.0))
        .collect();
    parallel_for(
        Parallel::new().num_threads(4),
        Schedule::dynamic(Some(64)),
        0..N,
        |i| {
            cells[(i % BUCKETS as i64) as usize].fetch_add(1.0);
        },
    );
    let rust: Vec<f64> = cells.iter().map(|c| c.load()).collect();

    // Zag with the atomic directive.
    let out = Vm::run(
        r#"
fn main() void {
    var h: []i64 = @allocI(8);
    //$omp parallel num_threads(4) shared(h)
    {
        var i: i64 = 0;
        //$omp while schedule(dynamic, 64)
        while (i < 4000) : (i += 1) {
            //$omp atomic
            h[i % 8] += 1;
        }
    }
    print(h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]);
}
"#,
    )
    .unwrap();
    let zag: Vec<f64> = out[0]
        .split_whitespace()
        .map(|t| t.parse().unwrap())
        .collect();
    assert_eq!(zag, rust);
    assert_eq!(zag.iter().sum::<f64>(), N as f64);
}
