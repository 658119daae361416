//! Runtime-instance isolation: the property `zagd` is built on.
//!
//! One process, one shared worker pool, many `zomp::Runtime` instances —
//! each with its own ICVs, critical registries, and threadprivate
//! storage. These tests run programs concurrently on distinct runtimes
//! and assert zero cross-talk: bit-identical outputs versus solo runs,
//! per-runtime ICV visibility, and no registry bleed.

use std::sync::Arc;

use zomp::{Runtime, RuntimeConfig, Schedule};
use zomp_vm::{compile_opt, Backend, OptLevel, Value, Vm};

/// A deterministic parallel program: per-element writes with no
/// cross-thread reduction, so the integer checksum is bit-identical for
/// any team size and any interleaving.
const CHECKSUM_SRC: &str = r#"
fn checksum(n: i64, nthreads: i64) i64 {
    var a: []i64 = @allocI(n);
    //$omp parallel num_threads(nthreads) shared(a) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp while schedule(dynamic, 16)
        while (i < n) : (i += 1) {
            a[i] = (i * 2654435761) % 1000003;
        }
    }
    var s: i64 = 0;
    var j: i64 = 0;
    while (j < n) : (j += 1) {
        s = s + a[j] * (j % 31 + 1);
    }
    return s;
}
"#;

fn vm_on(program: &Arc<zomp_vm::Program>, rt: Arc<Runtime>) -> Vm {
    Vm::from_program(Arc::clone(program), Backend::Bytecode, rt)
}

fn checksum_program() -> Arc<zomp_vm::Program> {
    Arc::new(compile_opt(CHECKSUM_SRC, None, OptLevel::O3).expect("compile"))
}

#[test]
fn concurrent_runtimes_match_solo_runs_bit_for_bit() {
    let program = checksum_program();
    let run = |rt: Arc<Runtime>, nthreads: i64| -> i64 {
        vm_on(&program, rt)
            .call_function("checksum", vec![Value::Int(4000), Value::Int(nthreads)])
            .expect("run")
            .as_int()
            .expect("int result")
    };

    // Solo baselines, one runtime per team size.
    let solo: Vec<i64> = (1..=4)
        .map(|nt| {
            let rt = Runtime::with_config(&RuntimeConfig::default().num_threads(nt));
            run(rt, nt as i64)
        })
        .collect();
    assert!(solo.windows(2).all(|w| w[0] == w[1]), "not deterministic");

    // The stress shape zagd serves: N concurrent programs with differing
    // ICVs, all multiplexing one shared worker pool.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let program = Arc::clone(&program);
            std::thread::spawn(move || {
                let nt = i % 4 + 1;
                let cfg = RuntimeConfig::default()
                    .num_threads(nt)
                    .run_schedule(if i % 2 == 0 {
                        Schedule::dynamic(Some(8))
                    } else {
                        Schedule::static_default()
                    });
                let rt = Runtime::with_config(&cfg);
                vm_on(&program, rt)
                    .call_function("checksum", vec![Value::Int(4000), Value::Int(nt as i64)])
                    .expect("run")
                    .as_int()
                    .expect("int result")
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("program thread"), solo[0]);
    }
}

#[test]
fn per_runtime_icvs_are_visible_to_programs_without_bleed() {
    const SRC: &str = r#"
fn team_size() i64 {
    return omp.get_max_threads();
}
"#;
    let program = Arc::new(compile_opt(SRC, None, OptLevel::O3).expect("compile"));
    let handles: Vec<_> = [1usize, 2, 3, 4]
        .into_iter()
        .map(|nt| {
            let program = Arc::clone(&program);
            std::thread::spawn(move || {
                let rt = Runtime::with_config(&RuntimeConfig::default().num_threads(nt));
                let got = vm_on(&program, rt)
                    .call_function("team_size", vec![])
                    .expect("run")
                    .as_int()
                    .expect("int");
                (nt as i64, got)
            })
        })
        .collect();
    for h in handles {
        let (want, got) = h.join().unwrap();
        assert_eq!(got, want, "a VM saw another runtime's nthreads-var");
    }
}

#[test]
fn set_num_threads_on_one_runtime_leaves_others_alone() {
    let a = Runtime::with_config(&RuntimeConfig::default().num_threads(2));
    let b = Runtime::with_config(&RuntimeConfig::default().num_threads(3));
    {
        let _g = a.enter();
        zomp::omp::set_num_threads(5);
    }
    assert_eq!(
        a.icvs().num_threads(),
        5,
        "facade writes the entered runtime"
    );
    assert_eq!(b.icvs().num_threads(), 3, "...and only the entered runtime");
    assert_ne!(
        Runtime::global().icvs().num_threads(),
        5,
        "global runtime must not absorb a scoped set_num_threads"
    );
}

#[test]
fn critical_and_threadprivate_registries_do_not_bleed() {
    let a = Runtime::with_config(&RuntimeConfig::default());
    let b = Runtime::with_config(&RuntimeConfig::default());

    assert!(!Arc::ptr_eq(
        &a.critical_lock("zone"),
        &b.critical_lock("zone")
    ));
    // b holding the identically-named lock must not block a's programs.
    let lb = b.critical_lock("zone");
    lb.set();
    assert!(a.critical_lock("zone").test());
    a.critical_lock("zone").unset();
    lb.unset();

    let ta = a.threadprivate("counter", || 0i64);
    let tb = b.threadprivate("counter", || 0i64);
    assert!(!Arc::ptr_eq(&ta, &tb));
    ta.set(41);
    assert_eq!(tb.get(), 0, "threadprivate state leaked across runtimes");
}

#[test]
fn env_is_read_per_runtime_not_latched_per_process() {
    // Regression: a process-wide latch of OMP_NUM_THREADS silently
    // ignores every later configuration change. RuntimeConfig::from_env
    // must snapshot at construction time, every time.
    const VAR: &str = "OMP_NUM_THREADS";
    let saved = std::env::var(VAR).ok();

    std::env::set_var(VAR, "2");
    let first = Runtime::with_config(&RuntimeConfig::from_env());
    std::env::set_var(VAR, "6");
    let second = Runtime::with_config(&RuntimeConfig::from_env());

    match saved {
        Some(v) => std::env::set_var(VAR, v),
        None => std::env::remove_var(VAR),
    }

    assert_eq!(first.icvs().num_threads(), 2);
    assert_eq!(
        second.icvs().num_threads(),
        6,
        "second runtime latched the first runtime's environment snapshot"
    );
}
