//! End-to-end checks of the tier-observability pipeline over the public
//! VM API: the kernel telemetry probes fold into `MetricsSnapshot`,
//! specialised-opcode and bulk-loop fallbacks count and leave no state
//! behind, and the profiler's event fold attributes a kernel-carried
//! pragma loop to the native tier with its `unit:line` label intact.
//!
//! Tracing mode is process-global, so every test serialises on one
//! mutex and restores the disabled state before releasing it.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use zomp::{profile, trace};
use zomp_vm::value::{ArrF, Value};
use zomp_vm::{Backend, OptLevel, Vm};

fn serial() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    let g = M
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    trace::disable_all();
    trace::reset();
    g
}

/// A fill-const pragma loop: the simplest of the seven bulk-kernel
/// shapes, so at `--opt=3` every iteration runs native.
const FILL: &str = r#"
fn fill(a: []f64, n: i64, nthreads: i64) void {
    //$omp parallel num_threads(nthreads) shared(a) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < n) : (i += 1) {
            a[i] = 3.0;
        }
    }
}
"#;

/// With counters on, a kernel-carried loop reports every trip through
/// the `KernelEnter` telemetry: total native iterations equal the trip
/// count, no bails, and the result array is still correct.
#[test]
fn kernel_counters_fold_into_metrics() {
    let _g = serial();
    const N: usize = 4096;
    const THREADS: u64 = 4;
    let a = Arc::new(ArrF::new(N));
    let vm =
        Vm::build(FILL, Some("fill.zag"), Backend::Native, OptLevel::O3).expect("compile fill");
    trace::enable_counters();
    vm.call_function(
        "fill",
        vec![
            Value::ArrF(a.clone()),
            Value::Int(N as i64),
            Value::Int(THREADS as i64),
        ],
    )
    .expect("run fill");
    trace::disable_all();
    let m = trace::metrics();
    assert!(
        m.kernel_enters >= 1 && m.kernel_enters <= THREADS,
        "static schedule on {THREADS} threads: expected 1..={THREADS} kernel \
         entries, got {}",
        m.kernel_enters
    );
    assert_eq!(
        m.kernel_iters, N as u64,
        "every iteration of the fill loop must run inside the kernel"
    );
    assert_eq!(m.kernel_bails, 0, "fill-const must not bail");
    for i in 0..N as i64 {
        assert_eq!(a.get(i).unwrap(), 3.0);
    }
    trace::reset();
}

/// Run `name(args)` with counters on and return the outcome (result
/// rendered, or error text) plus the counter snapshot of that one call.
fn counted_call(
    vm: &Vm,
    name: &str,
    args: Vec<Value>,
) -> (Result<String, String>, trace::MetricsSnapshot) {
    trace::reset();
    trace::enable_counters();
    let r = vm.call_function(name, args);
    trace::disable_all();
    let m = trace::metrics();
    trace::reset();
    (r.map(|v| v.render()).map_err(|e| e.to_string()), m)
}

/// Annotations are not enforced at the host boundary: typeck emits
/// `ArithII` for an `i64`-annotated parameter, the host passes a Float,
/// and the specialised opcode must fall back to the generic one in
/// place — same result (`twice`) or same error text (`mixed`) as the
/// walker, and the fallback is counted.
#[test]
fn host_float_into_i64_param_deopts_to_the_walker_outcome() {
    let _g = serial();
    let src = r#"
fn twice(x: i64) i64 {
    return x + x;
}
fn mixed(x: i64, y: i64) i64 {
    return x + y;
}
"#;
    let oracle = Vm::build(src, None, Backend::Ast, OptLevel::O0).expect("compile oracle");
    for (backend, opt) in [
        (Backend::Bytecode, OptLevel::O2),
        (Backend::Native, OptLevel::O3),
    ] {
        let vm = Vm::build(src, None, backend, opt).expect("compile");
        for (name, args) in [
            ("twice", vec![Value::Float(1.5)]),
            ("mixed", vec![Value::Float(1.5), Value::Int(2)]),
        ] {
            let (want, _) = counted_call(&oracle, name, args.clone());
            let (got, m) = counted_call(&vm, name, args);
            assert_eq!(got, want, "`{name}` at {backend:?} {opt:?}");
            assert!(
                m.deopts >= 1,
                "`{name}` at {opt:?}: the Int-specialised add must deopt on a Float"
            );
        }
    }
}

/// Nothing is sticky: a kernel that bailed on an undersized buffer
/// (raising the walker's exact error) is tried again on the next call
/// from the same thread, and with a well-sized buffer carries every
/// iteration natively.
#[test]
fn kernel_bail_is_not_remembered_across_calls() {
    let _g = serial();
    const N: usize = 512;
    let vm =
        Vm::build(FILL, Some("fill.zag"), Backend::Native, OptLevel::O3).expect("compile fill");
    let oracle = Vm::build(FILL, Some("fill.zag"), Backend::Ast, OptLevel::O0).expect("oracle");
    let args = |len: usize| {
        vec![
            Value::ArrF(Arc::new(ArrF::new(len))),
            Value::Int(N as i64),
            Value::Int(1),
        ]
    };

    let (want, _) = counted_call(&oracle, "fill", args(N - 1));
    assert!(want.is_err(), "the oracle must run out of bounds: {want:?}");
    let (got, m) = counted_call(&vm, "fill", args(N - 1));
    assert_eq!(got, want, "bail must replay to the walker's error");
    assert!(m.kernel_bails >= 1, "the undersized fill must bail");

    let (got, m) = counted_call(&vm, "fill", args(N));
    assert_eq!(got, Ok("void".to_string()));
    assert_eq!(
        m.kernel_iters, N as u64,
        "the kernel must carry the whole loop again after an earlier bail"
    );
    assert_eq!(m.kernel_bails, 0);
}

/// A bail that is not an error: the loop is typed `[]i64` by its
/// annotations, the host hands `[]f64`, so no template variant binds
/// and the head bails at every chunk of every call. The walker's
/// result must hold across schedules and team sizes.
#[test]
fn type_bail_at_every_chunk_matches_the_walker() {
    let _g = serial();
    const N: usize = 203;
    const SQ: &str = r#"
fn sq(a: []i64, out: []i64, n: i64, nthreads: i64) void {
    //$omp parallel num_threads(nthreads) shared(a, out) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp while SCHEDULE
        while (i < n) : (i += 1) {
            out[i] = a[i] * a[i] - a[i];
        }
    }
}
"#;
    let run = |vm: &Vm, threads: i64| {
        let a = Arc::new(ArrF::new(N));
        for i in 0..N as i64 {
            a.set(i, 0.25 * i as f64 - 7.0).unwrap();
        }
        let out = Arc::new(ArrF::new(N));
        let (r, m) = counted_call(
            vm,
            "sq",
            vec![
                Value::ArrF(a),
                Value::ArrF(out.clone()),
                Value::Int(N as i64),
                Value::Int(threads),
            ],
        );
        let bits: Vec<u64> = (0..N as i64)
            .map(|i| out.get(i).unwrap().to_bits())
            .collect();
        (r, bits, m)
    };
    for sched in [
        "schedule(static)",
        "schedule(static, 5)",
        "schedule(dynamic, 7)",
    ] {
        let src = SQ.replace("SCHEDULE", sched);
        let vm = Vm::build(&src, None, Backend::Native, OptLevel::O3).expect("compile sq");
        assert!(
            vm.program
                .code
                .funcs
                .iter()
                .any(|f| !f.templates.is_empty()),
            "the typed loop must install a template under {sched}"
        );
        let oracle = Vm::build(&src, None, Backend::Ast, OptLevel::O0).expect("compile oracle");
        for threads in [1i64, 2, 4] {
            let (want, want_bits, _) = run(&oracle, threads);
            let (got, got_bits, m) = run(&vm, threads);
            assert_eq!(got, want, "{sched}, {threads} threads");
            assert_eq!(got_bits, want_bits, "{sched}, {threads} threads");
            assert!(m.kernel_bails >= 1, "{sched}: the []f64 input must bail");
            assert_eq!(m.kernel_iters, 0, "{sched}: no iteration may run typed");
        }
    }
}

/// The profiler's event fold sees the same run: one pragma loop,
/// labelled with its compilation unit, with (near-)all iterations
/// attributed to the native tier.
#[test]
fn tier_report_attributes_fill_loop_to_native() {
    let _g = serial();
    const N: usize = 4096;
    let a = Arc::new(ArrF::new(N));
    let vm =
        Vm::build(FILL, Some("fill.zag"), Backend::Native, OptLevel::O3).expect("compile fill");
    profile::reset();
    profile::enable();
    vm.call_function(
        "fill",
        vec![Value::ArrF(a), Value::Int(N as i64), Value::Int(4)],
    )
    .expect("run fill");
    profile::disable();
    let tiers = profile::tier_report();
    trace::reset();
    let t = tiers
        .iter()
        .find(|t| t.total_iters > 0)
        .expect("the fill pragma loop must appear in the tier report");
    assert!(
        t.label.starts_with("fill.zag:"),
        "loop label must carry the compilation unit: {}",
        t.label
    );
    assert_eq!(t.total_iters, N as u64);
    assert!(
        t.native_frac() > 0.99,
        "fill loop must be fully native, got {:.3} ({}/{} iters)",
        t.native_frac(),
        t.native_iters,
        t.total_iters
    );
    assert_eq!(t.bails, 0);
    assert_eq!(t.deopts, 0);
}
