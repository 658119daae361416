//! The execution tiers engage: `--opt=3` runs the CG, EP and IS ports
//! faster than the tree-walker and than the raw `--opt=0` stream, IS keeps
//! its 4-thread time in bounds, and the template tier outruns `--opt=0` on
//! its fixture. These are mechanism checks (a tier that stopped engaging),
//! not performance claims: the benchmark in `benchmark/` owns the gated
//! numbers. Every time is the minimum over a few calls after one untimed
//! warm-up, because load on a shared host only ever adds time.
//!
//! Wall-clock ratios mean nothing in a debug build, so the test runs in
//! optimised builds only:
//! `cargo test --release -p zomp-integration --test tier_speedups -- --nocapture`
//! also prints the ns per iteration of every tier.

use std::sync::Arc;
use std::time::Instant;

use zomp_bench::ports::{inputs, Size, ZAG_TEMPLATE};
use zomp_vm::value::{ArrF, ArrI, Value};
use zomp_vm::{Backend, OptLevel, Vm};

/// The tiers timed on every port, single thread: the tree-walker,
/// `--opt=0` and `--opt=3`.
const TIERS: [(Backend, OptLevel); 3] = [
    (Backend::Ast, OptLevel::O0),
    (Backend::Bytecode, OptLevel::O0),
    (Backend::Native, OptLevel::O3),
];

/// Minimum ns per operation over `samples` calls of `f`, each doing
/// `ops` operations, after one untimed warm-up.
fn min_ns_per_op(samples: usize, ops: u64, mut f: impl FnMut()) -> f64 {
    f();
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Iterations one call of a port runs: CG's nonzeros times its sweeps,
/// EP's pairs, IS's keys.
fn ops(entry: &str, args: &[Value]) -> u64 {
    let int = |i: usize| match args[i] {
        Value::Int(v) => v as u64,
        ref other => panic!("{entry}: argument {i} is {}", other.type_name()),
    };
    match (entry, &args[1]) {
        ("matvec", Value::ArrI(rowstr)) => rowstr.get(int(0) as i64).unwrap() as u64 * int(6),
        ("ep", _) => 1 << int(0),
        _ => int(1),
    }
}

/// ns per iteration of `entry` at `tier`.
fn time(source: &str, entry: &str, args: &[Value], tier: (Backend, OptLevel)) -> f64 {
    let vm = Vm::build(source, None, tier.0, tier.1).expect("compile");
    min_ns_per_op(3, ops(entry, args), || {
        vm.call_function(entry, args.to_vec()).expect("run");
    })
}

/// The template fixture's arguments for `func`, `n` elements swept
/// `reps` times.
fn template_args(func: &str, n: usize, reps: i64) -> Vec<Value> {
    match func {
        "smooth" => {
            let u = Arc::new(ArrF::new(n));
            for i in 0..n {
                u.set(i as i64, (i % 17) as f64 * 0.25).unwrap();
            }
            let v = Arc::new(ArrF::new(n));
            vec![
                Value::ArrF(u),
                Value::ArrF(v),
                Value::Int(n as i64),
                Value::Int(reps),
            ]
        }
        _ => {
            let x = Arc::new(ArrI::new(n));
            for i in 0..n {
                x.set(i as i64, (i % 31) as i64 - 15).unwrap();
            }
            vec![Value::ArrI(x), Value::Int(n as i64), Value::Int(reps)]
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times wall clock; run with --release")]
fn opt3_outruns_the_walker_and_opt0() {
    const CG_OVER_WALKER: f64 = 2.0;
    const CG_OVER_O0: f64 = 2.0;
    const EP_OVER_O0: f64 = 3.0;
    const IS_OVER_O0: f64 = 3.0;
    const IS_SCALING_4_CORES: f64 = 1.5;
    const IS_SCALING_FEWER_CORES: f64 = 0.35;
    const TEMPLATE_OVER_O0: f64 = 2.5;

    let size = Size {
        cg_na: 400,
        cg_nonzer: 5,
        ..Size::TIMED
    };
    eprintln!("ns/iter, one thread: walker, --opt=0, --opt=3 -> --opt=3 over each");
    let mut o3_is = 0.0;
    for (source, unit, entry, args) in inputs(size, 1) {
        let [walker, o0, o3] = TIERS.map(|tier| time(source, entry, &args, tier));
        eprintln!(
            "  {unit}: {walker:.1} {o0:.2} {o3:.3} -> {:.0}x, {:.1}x",
            walker / o3,
            o0 / o3
        );
        let (floor, what) = match unit {
            "cg.zag" => {
                assert!(
                    walker / o3 >= CG_OVER_WALKER,
                    "{unit}: --opt=3 under {CG_OVER_WALKER}x the tree-walker"
                );
                (CG_OVER_O0, "CG")
            }
            "ep.zag" => (EP_OVER_O0, "EP"),
            _ => {
                o3_is = o3;
                (IS_OVER_O0, "IS")
            }
        };
        assert!(
            o0 / o3 >= floor,
            "{what}: --opt=3 under {floor}x the --opt=0 stream"
        );
    }

    // t(1)/t(4) is a speedup only where there are cores to scale onto;
    // on fewer, four threads only add scheduling, and the floor catches a
    // collapse (a lock on the worksharing path), not a slow host.
    let [.., (source, _, entry, args)] = inputs(size, 4);
    let o3_is_4 = time(source, entry, &args, (Backend::Native, OptLevel::O3));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = match cores {
        4.. => IS_SCALING_4_CORES,
        _ => IS_SCALING_FEWER_CORES,
    };
    let scaling = o3_is / o3_is_4;
    eprintln!("  is.zag --opt=3 t(1)/t(4): {scaling:.2} on {cores} cores (floor {floor})");
    assert!(
        scaling >= floor,
        "IS at 4 threads: t(1)/t(4) {scaling:.2} under {floor} on {cores} cores"
    );

    // The template tier on the fixture's two loops: installed, the same
    // bits as `--opt=0`, and faster by the floor.
    let remarks = zomp_vm::remarks::collect(ZAG_TEMPLATE, "template.zag", OptLevel::O3)
        .expect("template remarks");
    let installed = (remarks.iter())
        .filter(|d| d.code == "template-installed")
        .count();
    assert!(installed > 0, "no template-installed remark on the fixture");
    let (n, reps) = (65536, 8);
    let o0 = Vm::build(ZAG_TEMPLATE, None, Backend::Bytecode, OptLevel::O0).expect("compile");
    let o3 = Vm::build(ZAG_TEMPLATE, None, Backend::Native, OptLevel::O3).expect("compile");
    for func in ["smooth", "sumsq"] {
        let r0 = o0.call_function(func, template_args(func, n, reps));
        let r3 = o3.call_function(func, template_args(func, n, reps));
        let same = match (r0.expect("run --opt=0"), r3.expect("run --opt=3")) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Int(a), Value::Int(b)) => a == b,
            _ => false,
        };
        assert!(same, "`{func}` differs between --opt=0 and --opt=3");
        let ns = |vm: &Vm| {
            let args = template_args(func, n, reps);
            min_ns_per_op(5, n as u64 * reps as u64, || {
                vm.call_function(func, args.clone()).expect("run");
            })
        };
        let (t0, t3) = (ns(&o0), ns(&o3));
        eprintln!(
            "  template `{func}`: --opt=0 {t0:.2}, --opt=3 {t3:.3} ns/iter -> {:.1}x \
             ({installed} templates installed)",
            t0 / t3
        );
        assert!(
            t0 / t3 >= TEMPLATE_OVER_O0,
            "template tier under {TEMPLATE_OVER_O0}x the --opt=0 stream on `{func}`"
        );
    }
}
