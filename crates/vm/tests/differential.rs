//! Differential testing: the bytecode VM against the tree-walking oracle.
//!
//! Every program here runs on both backends; outputs (or error messages)
//! must match exactly. The corner programs are deterministic by
//! construction — parallel ones only print aggregates that do not depend
//! on scheduling. The shipped example programs may print genuinely racy
//! values (e.g. which thread won a `single`), so for those we compare the
//! lines proven stable under a single backend across repeated runs.

use std::sync::atomic::{AtomicI64, Ordering};

use zomp::schedule::{LoopBounds, LoopCmp, Schedule};
use zomp::workshare::{for_loop, parallel_sections};
use zomp::Parallel;
use zomp_vm::{Backend, OptLevel, Value, Vm};

/// Every optimization level the bytecode backend must stay faithful at:
/// `O0` is the raw stream (with the tree-walker, one of the two oracles),
/// `O3` the whole pipeline — inlining, folding/copy-prop/DSE,
/// superinstruction fusion, static type specialization, then bulk
/// kernels and templates for hot loops.
const OPT_LEVELS: [OptLevel; 2] = [OptLevel::O0, OptLevel::O3];

/// The opt levels this process actually exercises: all of [`OPT_LEVELS`]
/// by default, or just the one named by `ZAG_TEST_OPT=0|3` — the hook
/// the CI opt-level matrix uses to run each level as a separate step with
/// its own pass/fail line.
fn opt_levels() -> Vec<OptLevel> {
    match std::env::var("ZAG_TEST_OPT") {
        Ok(s) => {
            let opt = OptLevel::parse(&s)
                .unwrap_or_else(|| panic!("ZAG_TEST_OPT must be 0|3, got {s:?}"));
            vec![opt]
        }
        Err(_) => OPT_LEVELS.to_vec(),
    }
}

fn run_on(src: &str, backend: Backend, opt: OptLevel) -> Result<Vec<String>, String> {
    let vm = Vm::build(src, None, backend, opt).unwrap_or_else(|e| panic!("{}", e.render(src)));
    match vm.call_function("main", Vec::new()) {
        Ok(_) => Ok(vm.output.into_inner()),
        Err(e) => Err(e.to_string()),
    }
}

/// The bytecode backend, at every opt level, must agree with the
/// tree-walking oracle on output lines *and* on error messages.
fn assert_backends_agree(name: &str, src: &str) {
    let ast = run_on(src, Backend::Ast, OptLevel::O0);
    for opt in opt_levels() {
        let bc = run_on(src, Backend::Bytecode, opt);
        assert_eq!(bc, ast, "{name}: backends diverged at --opt={opt}");
    }
}

#[test]
fn serial_language_corners() {
    for (name, src) in [
        (
            "arith_and_precedence",
            r#"fn main() void {
    var i: i64 = 7;
    var f: f64 = 2.5;
    print(i + 2 * 3, i % 3, i / 2, -i);
    print(f * 2.0, f - 0.5, f / 0.5, -f);
    print(1 < 2, 2 <= 2, 3 > 4, 4 >= 5, 1 == 1, 1 != 1);
    print("a" == "a", "a" != "b", true == true);
}"#,
        ),
        (
            "nan_comparisons",
            r#"fn main() void {
    var nan: f64 = 0.0 / 0.0;
    print(nan < 1.0, nan <= 1.0, nan > 1.0, nan >= 1.0);
    print(nan == nan, nan != nan);
}"#,
        ),
        (
            "short_circuit_side_effects",
            r#"fn side(x: i64) bool {
    print("side", x);
    return x > 0;
}
fn main() void {
    print(side(1) and side(-1));
    print(side(-2) and side(2));
    print(side(3) or side(4));
    print(side(-5) or side(5));
    print(!side(6));
}"#,
        ),
        (
            "pointers_and_aliasing",
            r#"fn bump(p: *i64) void { p.* += 1; }
fn main() void {
    var x: i64 = 10;
    var p: *i64 = &x;
    bump(p);
    bump(&x);
    p.* = p.* * 2;
    print(x, p.*);
}"#,
        ),
        (
            "arrays_and_compound_assign",
            r#"fn main() void {
    var a: f64 = @allocF(4);
    var n: i64 = @allocI(4);
    var i: i64 = 0;
    while (i < 4) : (i += 1) {
        a[i] = @intToFloat(i);
        n[i] = i * i;
    }
    a[2] += 10.0;
    a[2] *= 2.0;
    n[3] -= 5;
    var p: *f64 = &a[1];
    p.* += 100.0;
    print(a[0], a[1], a[2], a[3], @len(a));
    print(n[0], n[1], n[2], n[3], @len(n));
}"#,
        ),
        (
            "shadowing_and_scopes",
            r#"fn main() void {
    var x: i64 = 1;
    {
        var x: i64 = x + 10;
        print(x);
        {
            var x: i64 = x * 2;
            print(x);
        }
        print(x);
    }
    print(x);
}"#,
        ),
        (
            "break_continue_nested",
            r#"fn main() void {
    var total: i64 = 0;
    var i: i64 = 0;
    while (i < 10) : (i += 1) {
        if (i == 7) { break; }
        var j: i64 = 0;
        while (j < 10) : (j += 1) {
            if (j == 3) { continue; }
            if (j > 5) { break; }
            total += i * 10 + j;
        }
    }
    print(total, i);
}"#,
        ),
        (
            "downward_and_strided_loops",
            r#"fn main() void {
    var s: i64 = 0;
    var i: i64 = 10;
    while (i > 0) : (i -= 2) { s += i; }
    var j: i64 = 0;
    while (j < 20) : (j += 3) { s += 1; }
    print(s, i, j);
}"#,
        ),
        (
            "recursion_and_function_values",
            r#"fn fib(n: i64) i64 {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
fn main() void {
    print(fib(15));
    const f = fib;
    print(f(10));
}"#,
        ),
        (
            "builtins_typed_and_mixed",
            r#"fn main() void {
    print(@sqrt(2.0), @log(@exp(1.0)), @sin(0.0), @cos(0.0));
    print(@pow(2.0, 10.0), @abs(-3.5), @abs(-7));
    print(@max(2.0, 3.0), @max(9, 4), @min(2.0, 3.0), @min(9, 4));
    print(@floatToInt(3.9), @intToFloat(4));
}"#,
        ),
        (
            "string_escapes_and_print",
            r#"fn main() void {
    print("quote: \" and newline:\nend");
    print("a", 1, 2.5, true, "b");
}"#,
        ),
        (
            "var_decl_without_init",
            r#"fn main() void {
    var x: any = undefined;
    x = 41;
    x += 1;
    print(x);
}"#,
        ),
        (
            "condition_shapes",
            r#"fn main() void {
    var i: i64 = 3;
    if (i > 1 and i < 10) { print("band"); }
    if (i > 5 or i == 3) { print("bor"); }
    if (!(i == 4)) { print("bnot"); }
    var b: bool = i > 2;
    if (b) { print("bval"); }
    while (b) { b = false; print("bloop"); }
}"#,
        ),
    ] {
        assert_backends_agree(name, src);
    }
}

#[test]
fn runtime_errors_match_exactly() {
    for (name, src) in [
        (
            "division_by_zero",
            r#"fn main() void { var z: i64 = 0; print(1 / z); }"#,
        ),
        (
            "remainder_by_zero",
            r#"fn main() void { var z: i64 = 0; print(1 % z); }"#,
        ),
        ("unknown_variable", r#"fn main() void { print(nope); }"#),
        ("unknown_variable_assign", r#"fn main() void { nope = 3; }"#),
        (
            "index_out_of_bounds",
            r#"fn main() void { var a: f64 = @allocF(2); print(a[5]); }"#,
        ),
        (
            "type_mismatch_arith",
            r#"fn main() void { print(1 + 2.0); }"#,
        ),
        (
            "type_mismatch_compound",
            r#"fn main() void { var x: i64 = 1; x += 2.0; print(x); }"#,
        ),
        ("cannot_compare", r#"fn main() void { print("a" < "b"); }"#),
        (
            "not_callable",
            r#"fn main() void { var x: i64 = 3; x(1); }"#,
        ),
        ("unknown_builtin", r#"fn main() void { print(@sqrt(4)); }"#),
        ("cannot_negate", r#"fn main() void { print(-"s"); }"#),
        (
            "cannot_deref",
            r#"fn main() void { var x: i64 = 1; print(x.*); }"#,
        ),
        (
            "cannot_index",
            r#"fn main() void { var x: i64 = 1; print(x[0]); }"#,
        ),
        (
            "not_a_condition",
            r#"fn main() void { if ("s") { print(1); } }"#,
        ),
        (
            "arity_mismatch",
            r#"fn f(a: i64) void { print(a); }
fn main() void { f(1, 2); }"#,
        ),
        (
            "error_after_output",
            r#"fn main() void {
    print("before");
    var z: i64 = 0;
    print(1 / z);
    print("after");
}"#,
        ),
    ] {
        let ast = run_on(src, Backend::Ast, OptLevel::O0);
        assert!(ast.is_err(), "{name}: expected a runtime error");
        for opt in opt_levels() {
            let bc = run_on(src, Backend::Bytecode, opt);
            assert_eq!(bc, ast, "{name}: backends diverged at --opt={opt}");
        }
    }
}

/// Error corners aimed at the optimizer itself: each program's hot shape
/// gets fused or specialized at `--opt=3`, and the fused/specialized
/// arm's slow path must reproduce the walker's error text and ordering.
#[test]
fn fused_and_specialized_errors_match_exactly() {
    for (name, src) in [
        (
            // `a[k] * p[...]` with an i64 array: the FmaIdx chain must
            // fail with the walker's multiply type-mismatch text.
            "fma_chain_type_mismatch",
            r#"fn main() void {
    var a: i64 = @allocI(4);
    var p: f64 = @allocF(4);
    var s: f64 = 0.0;
    var k: i64 = 0;
    while (k < 4) : (k += 1) {
        s = s + a[k] * p[k];
    }
    print(s);
}"#,
        ),
        (
            // `h[i] = h[i] + 1` fuses to IncElemK; the OOB index must
            // report the walker's bounds text.
            "incelem_out_of_bounds",
            r#"fn main() void {
    var h: i64 = @allocI(4);
    var i: i64 = 2;
    h[i + 3] = h[i + 3] + 1;
    print(h[0]);
}"#,
        ),
        (
            // `rowstr[j + 1]` fuses to IndexOff; out-of-bounds offset.
            "indexoff_out_of_bounds",
            r#"fn main() void {
    var rowstr: i64 = @allocI(4);
    var j: i64 = 3;
    print(rowstr[j + 1]);
}"#,
        ),
        (
            // A computed store: the division error must fire before any
            // store is observable.
            "store_of_div_by_zero",
            r#"fn main() void {
    var a: i64 = @allocI(2);
    var z: i64 = 0;
    var i: i64 = 0;
    a[i] = 7 / z;
    print(a[0]);
}"#,
        ),
        (
            // Mixed-type element update: IncElemK's slow path must load,
            // fail in the arithmetic, and leave the walker's message.
            "incelem_type_mismatch",
            r#"fn main() void {
    var h: f64 = @allocF(2);
    var i: i64 = 0;
    h[i] = h[i] + 1;
    print(h[0]);
}"#,
        ),
        (
            // Constant folding must refuse to evaluate an erroring op.
            "const_div_zero_not_folded",
            r#"fn main() void { print(1 / 0); }"#,
        ),
        (
            // IndexOff with a *negative* offset spelled as subtraction:
            // the slow path reconstructs `j - 1` for the error text.
            "indexoff_negative_oob",
            r#"fn main() void {
    var a: i64 = @allocI(4);
    var j: i64 = 0;
    print(a[j - 1]);
}"#,
        ),
    ] {
        let ast = run_on(src, Backend::Ast, OptLevel::O0);
        assert!(ast.is_err(), "{name}: expected a runtime error");
        for opt in opt_levels() {
            let bc = run_on(src, Backend::Bytecode, opt);
            assert_eq!(bc, ast, "{name}: backends diverged at --opt={opt}");
        }
    }
}

/// One case per interpreter arm that only the deleted `--opt=2` rung used
/// to execute in this suite: `AddrDeref` (`&p.*`, on a cell pointer, on an
/// element pointer, and on a non-pointer for its error text) and `CmpFF`
/// (a float comparison materialised into a `bool` inside a loop whose
/// operands inference proves `f64`, with a mid-loop type flip so the
/// specialised arm also takes its generic fallback).
#[test]
fn addr_deref_and_float_compare_arms_agree() {
    for (name, src) in [
        (
            "addr_of_deref_pointer_local",
            r#"fn bump(p: *i64) void { p.* += 1; }
fn main() void {
    var x: i64 = 5;
    var p: *i64 = &x;
    var q: *i64 = &p.*;
    bump(q);
    q.* = q.* * 2;
    print(x, p.*, q.*);
}"#,
        ),
        (
            "addr_of_deref_element_pointer",
            r#"fn main() void {
    var a: []f64 = @allocF(3);
    var e: *f64 = &a[1];
    var i: i64 = 0;
    while (i < 3) : (i += 1) {
        var r: *f64 = &e.*;
        r.* = r.* + 0.25;
    }
    print(a[0], a[1], a[2], e.*);
}"#,
        ),
        (
            "addr_of_deref_non_pointer",
            r#"fn main() void {
    var x: i64 = 1;
    print("before");
    var q: any = &x.*;
    print(q);
}"#,
        ),
        (
            "float_compare_into_bool",
            r#"fn main() void {
    var v: []f64 = @allocF(6);
    var i: i64 = 0;
    while (i < 6) : (i += 1) { v[i] = 0.75 * @intToFloat(i) - 1.0; }
    var lim: f64 = 1.25;
    var hits: i64 = 0;
    var last: bool = false;
    i = 0;
    while (i < 6) : (i += 1) {
        var x: f64 = v[i];
        var below: bool = x < lim;
        var same: bool = x == lim;
        print(i, below, same, x >= lim);
        if (below) { hits += 1; }
        last = below;
    }
    print(hits, last);
}"#,
        ),
        (
            "float_compare_operand_flips_to_int",
            r#"fn main() void {
    var x: any = undefined;
    x = 0.5;
    var lim: f64 = 2.0;
    var i: i64 = 0;
    while (i < 5) : (i += 1) {
        var below: bool = x < lim;
        print(i, below);
        x = x + x;
        if (i == 2) { x = 3; }
    }
}"#,
        ),
    ] {
        assert_backends_agree(name, src);
    }
}

/// `matvec-rows` bails mid-chunk and the interpreter replays the failing
/// row — `DerefIndexOff` (the row bound), `FmaGather` (the body),
/// `DerefIndexSet` (the store) — to the oracle's exact error: on `colidx`
/// entries past the end of `p` and, at a team of 1, on a `q` one row
/// short. At a team of 1 the rows already stored are the oracle's too; at
/// 2 and 4 the error text is. (Every third row carries a bad entry so each
/// thread's static block fails with the same text: a thread that fails
/// skips the loop's barrier, so a teammate that did not would wait there
/// for good.)
#[test]
fn matvec_rows_bail_replays_to_the_oracle_error() {
    use zomp_vm::value::{ArrF, ArrI};
    const MATVEC: &str = r#"fn matvec(n: i64, rowstr: []i64, colidx: []i64, a: []f64, p: []f64, q: []f64,
          nthreads: i64) void {
    //$omp parallel num_threads(nthreads) shared(rowstr, colidx, a, p, q) firstprivate(n)
    {
        var j: i64 = 0;
        //$omp while schedule(static) private(k, s)
        while (j < n) : (j += 1) {
            s = 0.0;
            k = rowstr[j];
            while (k < rowstr[j + 1]) : (k += 1) {
                s = s + a[k] * p[colidx[k]];
            }
            q[j] = s;
        }
    }
}
fn main() void {}"#;
    let installed = zomp_vm::remarks::collect(MATVEC, "t.zag", OptLevel::O3)
        .unwrap_or_else(|e| panic!("{}", e.render(MATVEC)))
        .iter()
        .any(|d| d.code == "kernel-installed" && d.message.contains("matvec-rows"));
    assert!(installed, "expected matvec-rows to install");
    const N: usize = 12;
    const NNZ: usize = 3;
    let run = |bad_cols: bool, qlen: usize, backend: Backend, opt: OptLevel, threads: i64| {
        let rowstr = ArrI::new(N + 1);
        let colidx = ArrI::new(N * NNZ);
        let a = ArrF::new(N * NNZ);
        let p = ArrF::new(N);
        for j in 0..=N {
            rowstr.set(j as i64, (j * NNZ) as i64).unwrap();
        }
        for k in 0..N * NNZ {
            let bad = bad_cols && k % (3 * NNZ) == 2 * NNZ + 1;
            let col = if bad { 99 } else { (k * 5 + 1) % N };
            colidx.set(k as i64, col as i64).unwrap();
            a.set(k as i64, 0.1 * k as f64 + 0.3).unwrap();
        }
        for j in 0..N {
            p.set(j as i64, 1.0 / (j as f64 + 1.5)).unwrap();
        }
        let q = std::sync::Arc::new(ArrF::new(qlen));
        let vm = Vm::build(MATVEC, None, backend, opt)
            .unwrap_or_else(|e| panic!("{}", e.render(MATVEC)));
        let r = vm.call_function(
            "matvec",
            vec![
                Value::Int(N as i64),
                Value::ArrI(rowstr.into()),
                Value::ArrI(colidx.into()),
                Value::ArrF(a.into()),
                Value::ArrF(p.into()),
                Value::ArrF(q.clone()),
                Value::Int(threads),
            ],
        );
        let bits: Vec<u64> = q.to_vec().iter().map(|x| x.to_bits()).collect();
        (r.map(|v| v.render()).map_err(|e| e.to_string()), bits)
    };
    // (bad `colidx` entries in rows 2, 5, 8, 11; rows `q` holds; teams)
    for (bad_cols, qlen, teams) in [(true, N, &[1, 2, 4][..]), (false, N - 1, &[1][..])] {
        let oracle = run(bad_cols, qlen, Backend::Ast, OptLevel::O0, 1);
        assert!(oracle.0.is_err(), "{:?}", oracle.0);
        let stored = oracle.1.iter().filter(|&&b| b != 0).count();
        assert_eq!(stored, if bad_cols { 2 } else { N - 1 });
        for &threads in teams {
            let walker = run(bad_cols, qlen, Backend::Ast, OptLevel::O0, threads);
            assert_eq!(walker.0, oracle.0, "walker, {threads} threads");
            for opt in opt_levels() {
                let got = run(bad_cols, qlen, Backend::Bytecode, opt, threads);
                assert_eq!(got.0, oracle.0, "--opt={opt}, {threads} threads");
                if threads == 1 {
                    assert_eq!(got.1, oracle.1, "--opt={opt}: rows stored");
                }
            }
        }
    }
}

/// These programs flip a slot's type mid-loop, so any instruction
/// specialized on it must fall back to the generic form and keep
/// producing oracle output.
#[test]
fn type_flip_deopt_agrees() {
    for (name, src) in [
        (
            "scalar_int_to_float_flip",
            r#"fn main() void {
    var x: any = undefined;
    x = 1;
    var i: i64 = 0;
    while (i < 6) : (i += 1) {
        x = x + x;
        if (i == 2) {
            x = 0.5;
        }
    }
    print(x);
}"#,
        ),
        (
            "cmp_operand_type_flip",
            r#"fn main() void {
    var x: any = undefined;
    var y: any = undefined;
    x = 1;
    y = 10;
    var i: i64 = 0;
    var hits: i64 = 0;
    while (i < 8) : (i += 1) {
        if (x < y) { hits += 1; }
        if (i == 3) { x = 0.5; y = 2.5; }
    }
    print(hits);
}"#,
        ),
        (
            "array_int_to_float_swap",
            r#"fn main() void {
    var a: any = undefined;
    a = @allocI(3);
    var total: f64 = 0.0;
    var i: i64 = 0;
    while (i < 6) : (i += 1) {
        var j: i64 = 0;
        while (j < 3) : (j += 1) {
            a[j] = a[j];
        }
        if (i == 2) {
            a = @allocF(3);
            a[0] = 1.5;
        }
    }
    print(a[0], total);
}"#,
        ),
    ] {
        assert_backends_agree(name, src);
    }
}

#[test]
fn parallel_aggregates_agree() {
    for (name, src) in [
        (
            "static_reduction",
            r#"fn main() void {
    var total: i64 = 0;
    //$omp parallel num_threads(4) reduction(+: total)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < 10000) : (i += 1) { total += i; }
    }
    print(total);
}"#,
        ),
        (
            "dynamic_schedule_exactly_once",
            r#"fn main() void {
    var hits: i64 = @allocI(1000);
    //$omp parallel num_threads(4)
    {
        var i: i64 = 0;
        //$omp while schedule(dynamic, 7)
        while (i < 1000) : (i += 1) {
            //$omp atomic
            hits[i] += 1;
        }
    }
    var bad: i64 = 0;
    var j: i64 = 0;
    while (j < 1000) : (j += 1) {
        if (hits[j] != 1) { bad += 1; }
    }
    print(bad);
}"#,
        ),
        (
            "firstprivate_and_barriers",
            r#"fn main() void {
    var base: i64 = 5;
    var total: i64 = 0;
    //$omp parallel num_threads(3) firstprivate(base) reduction(+: total)
    {
        base += omp.get_thread_num();
        omp.internal.barrier();
        total += base;
    }
    print(total);
}"#,
        ),
        (
            "pi_quadrature",
            r#"fn main() void {
    const n: i64 = 100000;
    var pi: f64 = 0.0;
    const w: f64 = 1.0 / @intToFloat(n);
    //$omp parallel num_threads(4) reduction(+: pi)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < n) : (i += 1) {
            const x: f64 = (@intToFloat(i) + 0.5) * w;
            pi += 4.0 / (1.0 + x * x);
        }
    }
    pi = pi * w;
    print(pi > 3.14159, pi < 3.14160);
}"#,
        ),
    ] {
        assert_backends_agree(name, src);
    }
}

/// One loop shape of the chunk-protocol matrix: the worksharing loop(s)
/// as source, with `SCHED` standing for the schedule clause and `BODY` for
/// the per-iteration statements over the index `e`; the same loops as
/// Rust-API bounds whose values are `e` (every loop but the last is
/// `nowait`); and the index values the loops must visit exactly once.
struct ChunkShape {
    name: &'static str,
    loops: &'static str,
    bounds: Vec<LoopBounds>,
    visits: Vec<i64>,
}

fn chunk_shapes() -> Vec<ChunkShape> {
    vec![
        ChunkShape {
            name: "plain",
            loops: "var i: i64 = 0;
        //$omp while SCHED
        while (i < 97) : (i += 1) { const e: i64 = i; BODY }",
            bounds: vec![LoopBounds::upto(0, 97)],
            visits: (0..97).collect(),
        },
        ChunkShape {
            name: "collapse2",
            loops: "var i: i64 = 0;
        //$omp while SCHED collapse(2)
        while (i < 9) : (i += 1) {
            var j: i64 = 0;
            while (j < 11) : (j += 1) { const e: i64 = i * 11 + j; BODY }
        }",
            bounds: vec![LoopBounds::upto(0, 99)],
            visits: (0..99).collect(),
        },
        ChunkShape {
            name: "nowait",
            loops: "var i: i64 = 0;
        //$omp while SCHED nowait
        while (i < 50) : (i += 1) { const e: i64 = i; BODY }
        var k: i64 = 50;
        //$omp while SCHED
        while (k < 97) : (k += 1) { const e: i64 = k; BODY }",
            bounds: vec![LoopBounds::upto(0, 50), LoopBounds::upto(50, 97)],
            visits: (0..97).collect(),
        },
        ChunkShape {
            name: "zero_trip",
            loops: "var i: i64 = 5;
        //$omp while SCHED
        while (i < 5) : (i += 1) { const e: i64 = i; BODY }",
            bounds: vec![LoopBounds::upto(5, 5)],
            visits: Vec::new(),
        },
        ChunkShape {
            name: "down_gt",
            loops: "var i: i64 = 96;
        //$omp while SCHED
        while (i > -1) : (i -= 1) { const e: i64 = i; BODY }",
            bounds: vec![LoopBounds {
                lb: 96,
                ub: -1,
                incr: -1,
                cmp: LoopCmp::Gt,
            }],
            visits: (0..97).collect(),
        },
        ChunkShape {
            name: "down_ge_stride2",
            loops: "var i: i64 = 96;
        //$omp while SCHED
        while (i >= 0) : (i -= 2) { const e: i64 = i; BODY }",
            bounds: vec![LoopBounds {
                lb: 96,
                ub: 0,
                incr: -2,
                cmp: LoopCmp::Ge,
            }],
            visits: (0..97).step_by(2).collect(),
        },
    ]
}

/// Runs `run` over 100 fresh hit counters with the trace on: the per-index
/// hit counts, and the sum of its threads' `LoopDispatch` span payloads.
fn traced_hits(run: impl FnOnce(&[AtomicI64])) -> (Vec<i64>, u64) {
    use zomp::trace;
    let hits: Vec<AtomicI64> = (0..100).map(|_| AtomicI64::new(0)).collect();
    trace::reset();
    trace::enable_events();
    run(&hits);
    trace::disable_all();
    let spans = trace::chrome_trace_json()
        .lines()
        .filter(|l| l.contains("\"cat\":\"loop\""))
        .map(|l| {
            let digits = l.split("\"trip\":").nth(1).expect("a trip arg");
            let end = digits
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(digits.len());
            digits[..end].parse::<u64>().expect("a numeric trip arg")
        })
        .sum();
    (
        hits.iter().map(|h| h.load(Ordering::Relaxed)).collect(),
        spans,
    )
}

/// One shape's loops through `for_loop` under `sched` at a team of
/// `threads`, as [`traced_hits`] reports them.
fn for_loop_row(shape: &ChunkShape, sched: Schedule, threads: usize) -> (Vec<i64>, u64) {
    let last = shape.bounds.len() - 1;
    traced_hits(|hits| {
        zomp::fork_call(Parallel::new().num_threads(threads), |ctx| {
            for (k, &bounds) in shape.bounds.iter().enumerate() {
                for_loop(ctx, sched, bounds, k < last, |e| {
                    hits[e as usize].fetch_add(1, Ordering::Relaxed);
                });
            }
        })
    })
}

/// One shape's index values as the sections of one `sections` construct at
/// a team of `threads`, as [`traced_hits`] reports them.
fn sections_row(shape: &ChunkShape, threads: usize) -> (Vec<i64>, u64) {
    traced_hits(|hits| {
        let bodies: Vec<Box<dyn Fn() + Sync + '_>> = shape
            .visits
            .iter()
            .map(|&e| {
                Box::new(move || {
                    hits[e as usize].fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn Fn() + Sync>
            })
            .collect();
        let refs: Vec<&(dyn Fn() + Sync)> = bodies.iter().map(|b| b.as_ref()).collect();
        parallel_sections(Parallel::new().num_threads(threads), &refs);
    })
}

/// The chunk protocol (`ws_begin` / the fused `wsnext` claim / `ws_fini`)
/// across every schedule kind, team size and loop shape the preprocessor
/// emits: each iteration must run exactly once with the right index value,
/// identically on the oracle, the bytecode backend at every `--opt` level
/// and the native backend. `hits` proves exactly-once coverage, the
/// reduction proves the index values (inline, and through a user function
/// so the chunk body crosses a call boundary). The Rust-API constructs
/// (`for_loop`, and `sections`, which has no schedule clause) run the same
/// shapes: exactly-once coverage, and per-thread loop spans that sum to the
/// iterations run (this reads the process-wide trace rings, hence `alone`).
#[test]
fn chunk_protocol_matrix_agrees() {
    const SCHEDULES: [(&str, Schedule); 6] = [
        ("schedule(static)", Schedule::static_default()),
        ("schedule(static, 3)", Schedule::static_chunked(3)),
        ("schedule(dynamic, 1)", Schedule::dynamic(Some(1))),
        ("schedule(dynamic, 5)", Schedule::dynamic(Some(5))),
        ("schedule(guided)", Schedule::guided(None)),
        ("schedule(runtime)", Schedule::runtime()),
    ];
    const BODIES: [(&str, &str); 2] = [
        ("inline", "sum += e * 7 + 1;"),
        ("call", "sum += weigh(e);"),
    ];
    alone("chunk_protocol_matrix_agrees", || {
        for shape in chunk_shapes() {
            let weight: i64 = shape.visits.iter().map(|i| i * 7 + 1).sum();
            let expected = vec![format!(
                "{} {} 0 {weight}",
                shape.visits.len(),
                100 - shape.visits.len()
            )];
            let mut once = vec![0i64; 100];
            for &e in &shape.visits {
                once[e as usize] = 1;
            }
            let trip = shape.visits.len() as u64;
            for threads in [1, 2, 4] {
                let name = format!("{}/t{threads}/sections", shape.name);
                let (hits, spans) = sections_row(&shape, threads);
                assert_eq!(hits, once, "{name}: coverage");
                assert_eq!(spans, trip, "{name}: span payloads");
            }
            for (sched, schedule) in SCHEDULES {
                for threads in [1, 2, 4] {
                    let name = format!("{}/{sched}/t{threads}/for_loop", shape.name);
                    let (hits, spans) = for_loop_row(&shape, schedule, threads);
                    assert_eq!(hits, once, "{name}: coverage");
                    assert_eq!(spans, trip, "{name}: span payloads");
                    for (body_name, body) in BODIES {
                        let loops = shape
                            .loops
                            .replace("SCHED", sched)
                            .replace("BODY", &format!("\n//$omp atomic\nhits[e] += 1;\n{body}"));
                        let src = format!(
                            "fn weigh(v: i64) i64 {{ return v * 7 + 1; }}
fn main() void {{
    var hits: i64 = @allocI(100);
    var sum: i64 = 0;
    //$omp parallel num_threads({threads}) shared(hits) reduction(+: sum)
    {{
        {loops}
    }}
    var once: i64 = 0;
    var never: i64 = 0;
    var other: i64 = 0;
    var k: i64 = 0;
    while (k < 100) : (k += 1) {{
        if (hits[k] == 1) {{ once += 1; }} else {{
            if (hits[k] == 0) {{ never += 1; }} else {{ other += 1; }}
        }}
    }}
    print(once, never, other, sum);
}}"
                        );
                        let name = format!("{}/{sched}/t{threads}/{body_name}", shape.name);
                        assert_eq!(
                            run_on(&src, Backend::Ast, OptLevel::O0),
                            Ok(expected.clone()),
                            "{name}: oracle missed the expected coverage\n{src}"
                        );
                        assert_backends_agree(&name, &src);
                    }
                }
            }
        }
    });
}

/// Runs `test` in a process of its own: the trace counters it reads are
/// process-wide, and the other tests of this binary claim chunks too. The
/// harness's call of test `name` re-runs the binary for that test alone,
/// and the child (or a person who asked for `--exact`) does the work.
fn alone(name: &str, test: impl FnOnce()) {
    if std::env::args().any(|a| a == "--exact") {
        return test();
    }
    let exe = std::env::current_exe().expect("the test binary's path");
    let out = std::process::Command::new(exe)
        .args([name, "--exact", "--nocapture"])
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "`{name}` in a process of its own:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// One worksharing loop twice over: orphaned, and in a region of
/// `nthreads`. `SCHED` is the clause, `BODY` the iteration: it marks
/// `hits[i]` and adds to `sum` inline or through a call that stays a call
/// (the recursive branch keeps `weigh` from inlining, so that loop stays
/// out of the bulk tiers at `--opt=3`; the inline one may not).
const SERIALIZED: &str = "fn weigh(v: i64) i64 {
    if (v < 0) { return weigh(0 - v); }
    return v % 13 + 1;
}
fn orphaned(hits: []i64, n: i64) i64 {
    var sum: i64 = 0;
    var i: i64 = 0;
    //$omp while SCHED
    while (i < n) : (i += 1) { BODY }
    return sum;
}
fn team(hits: []i64, n: i64, nthreads: i64) i64 {
    var sum: i64 = 0;
    //$omp parallel num_threads(nthreads) shared(hits) firstprivate(n) reduction(+: sum)
    {
        var i: i64 = 0;
        //$omp while SCHED
        while (i < n) : (i += 1) { BODY }
    }
    return sum;
}";

/// A team of one — or no team at all — claims its whole worksharing loop
/// once under every schedule, on the walker, `--opt=0` and `--opt=3`
/// alike: one claim of `trip` iterations (none for an empty loop), with
/// results bit-identical to the walker's. Teams of 2 and 4 keep the claim
/// counts of the per-chunk protocol: exactly those of the closed-form
/// static schedules and of one-iteration dynamic claims, and for the
/// decks at least one claim per non-empty thread block (every claim stays
/// inside one block) and per clause-sized chunk where claims are capped
/// at the chunk.
#[test]
fn team_of_one_claims_every_schedule_once() {
    use std::sync::Arc;
    use zomp::trace;
    use zomp_vm::value::ArrI;
    alone("team_of_one_claims_every_schedule_once", || {
        // `runtime` resolves against the `Vm`'s ICVs, set to `dynamic, 3`.
        const SCHEDULES: [(&str, Option<u64>); 7] = [
            ("schedule(static)", None),
            ("schedule(static, 3)", None),
            ("schedule(dynamic)", Some(1)),
            ("schedule(dynamic, 5)", Some(5)),
            ("schedule(guided)", None),
            ("schedule(guided, 4)", None),
            ("schedule(runtime)", Some(3)),
        ];
        const BODIES: [(&str, &str); 2] = [
            ("inline", "hits[i] = hits[i] + 1; sum += i * 7 + 1;"),
            ("call", "hits[i] = hits[i] + 1; sum += weigh(i);"),
        ];
        let trips = [0u64, 1, 2, 127, 128, 129, 255, 257, 1023, 1025];
        let runtime = Arc::new(zomp::Runtime::with_config(
            &zomp::RuntimeConfig::default().run_schedule(zomp::Schedule::dynamic(Some(3))),
        ));
        for (sched, cap) in SCHEDULES {
            for (body_name, body) in BODIES {
                let src = SERIALIZED.replace("SCHED", sched).replace("BODY", body);
                let build = |backend, opt| {
                    let mut vm =
                        Vm::build(&src, None, backend, opt).unwrap_or_else(|e| panic!("{e:?}"));
                    vm.runtime = Arc::clone(&runtime);
                    vm
                };
                let mut tiers = vec![("walker".to_string(), build(Backend::Ast, OptLevel::O0))];
                for opt in opt_levels() {
                    tiers.push((format!("--opt={opt}"), build(Backend::Bytecode, opt)));
                }
                for trip in trips {
                    // `None` is the orphaned loop; `Some(t)` a team of `t`.
                    for threads in [None, Some(1u64), Some(2), Some(4)] {
                        let mut walker = None;
                        for (tier, vm) in &tiers {
                            let what = format!("{sched}/{body_name}/n{trip}/{threads:?}/{tier}");
                            let hits = Arc::new(ArrI::new(trip as usize));
                            let mut args = vec![Value::ArrI(hits.clone()), Value::Int(trip as i64)];
                            let entry = match threads {
                                None => "orphaned",
                                Some(t) => {
                                    args.push(Value::Int(t as i64));
                                    "team"
                                }
                            };
                            trace::reset();
                            trace::enable_counters();
                            let ret = vm.call_function(entry, args);
                            trace::disable_all();
                            let m = trace::metrics();
                            let ret = ret.unwrap_or_else(|e| panic!("{what}: {e}")).render();
                            let hits: Vec<i64> =
                                (0..trip as i64).map(|i| hits.get(i).unwrap()).collect();
                            assert!(hits.iter().all(|&h| h == 1), "{what}: coverage {hits:?}");
                            match &walker {
                                None => walker = Some(ret),
                                Some(w) => assert_eq!(&ret, w, "{what}: differs from the walker"),
                            }
                            let claims = m.chunks_owned + m.chunks_stolen;
                            assert_eq!(m.iters_owned + m.iters_stolen, trip, "{what}: iterations");
                            let nth = match threads {
                                None | Some(1) => {
                                    assert_eq!(claims, u64::from(trip > 0), "{what}: claims");
                                    continue;
                                }
                                Some(t) => t,
                            };
                            if sched == "schedule(static)" {
                                assert_eq!(claims, trip.min(nth), "{what}: one claim per block");
                            } else if sched == "schedule(static, 3)" {
                                assert_eq!(claims, trip.div_ceil(3), "{what}: one per chunk");
                            } else {
                                assert!(
                                    (trip.min(nth)..=trip).contains(&claims),
                                    "{what}: {claims} claims"
                                );
                                // Only bulk claims (`--opt=3`, a loop the
                                // native tiers take) may exceed the cap.
                                if let (Some(c), "call") = (cap, body_name) {
                                    assert!(claims >= trip.div_ceil(c), "{what}: {claims} claims");
                                }
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Hand-written `omp.internal.*` drivers: the fused shape outside any
/// region (a team of one: one claim), the same loop with its bounds read
/// again inside the body, the shape `compile` must leave unfused
/// (address-taken induction variable), and a team's dynamic loop ended
/// after its region — plus the protocol's error texts.
#[test]
fn handwritten_chunk_drivers_and_errors_agree() {
    const DRIVER: &str = "fn main() void {
    var s: i64 = 0;
    var i: i64 = 0;
    EXTRA
    const w = omp.internal.ws_begin(KIND, 4, 0, 10, 1, 0);
    while (omp.internal.ws_next(w)) {
        i = omp.internal.ws_lb(w);
        const ub = omp.internal.ws_ub(w);
        s += omp.internal.ws_ub(w) - omp.internal.ws_lb(w);
        while (i < ub) : (i += 1) { s += i * 100; }
    }
    omp.internal.ws_fini(w, 1);
    print(s, i);
}";
    for kind in ["0", "1", "2"] {
        for (name, extra) in [("fused", ""), ("boxed_unfused", "const p = &i;")] {
            let src = DRIVER.replace("KIND", kind).replace("EXTRA", extra);
            let ast = run_on(&src, Backend::Ast, OptLevel::O0);
            assert_eq!(ast, Ok(vec!["4510 10".to_string()]), "{name}/{kind}");
            assert_backends_agree(&format!("{name}/{kind}"), &src);
        }
    }
    // One thread's iterator outlives the region in a shared variable and
    // is ended where no region context exists; the other's is dropped
    // unended at region exit.
    let fini_after_region = "fn main() void {
    var w: i64 = 0;
    var s: i64 = 0;
    //$omp parallel num_threads(2) shared(w) reduction(+: s)
    {
        const mine = omp.internal.ws_begin(1, 1, 0, 10, 1, 0);
        if (omp.internal.ws_next(mine)) { s += omp.internal.ws_ub(mine) - omp.internal.ws_lb(mine); }
        //$omp critical
        { w = mine; }
    }
    omp.internal.ws_fini(w, 0);
    print(s);
}";
    assert_eq!(
        run_on(fini_after_region, Backend::Ast, OptLevel::O0),
        Ok(vec!["2".to_string()]),
        "fini_after_region"
    );
    assert_backends_agree("fini_after_region", fini_after_region);
    for (name, src, text) in [
        (
            "unknown_omp_function",
            "fn main() void { print(1); omp.nonexistent(2); }",
            "unknown omp function omp.nonexistent",
        ),
        (
            "unknown_internal_function",
            "fn main() void { omp.internal.nonexistent(); }",
            "unknown omp.internal function nonexistent",
        ),
        (
            "no_current_chunk",
            "fn main() void {
    const w = omp.internal.ws_begin(1, 4, 0, 10, 1, 0);
    print(omp.internal.ws_lb(w));
}",
            "worksharing iterator has no current chunk",
        ),
        (
            "not_an_iterator",
            "fn main() void {
    var w: i64 = 3;
    var i: i64 = 0;
    while (omp.internal.ws_next(w)) {
        i = omp.internal.ws_lb(w);
        const ub = omp.internal.ws_ub(w);
    }
}",
            "expected a worksharing iterator, got i64",
        ),
        (
            "zero_increment",
            "fn main() void {
    var s: i64 = 0;
    //$omp parallel num_threads(2) reduction(+: s)
    {
        var i: i64 = 0;
        //$omp while schedule(dynamic, 1)
        while (i < 10) : (i += 0) { s += 1; }
    }
    print(s);
}",
            "worksharing loop increment must be nonzero",
        ),
        (
            "fork_call_unknown_function",
            "fn main() void { omp.internal.fork_call(2, nope_fn); }",
            "unknown variable `nope_fn`",
        ),
        (
            "fork_call_arity",
            "fn body(a: i64) void { print(a); }
fn main() void { omp.internal.fork_call(2, body); }",
            "`body` expects 1 arguments, got 0",
        ),
    ] {
        let ast = run_on(src, Backend::Ast, OptLevel::O0);
        assert_eq!(ast, Err(format!("runtime error: {text}")), "{name}");
        assert_backends_agree(name, src);
    }
}

/// Tokenwise equality with a relative tolerance for floats: reduction
/// combine order depends on thread arrival, so float sums jitter in the
/// last bits run-to-run on *both* backends.
fn lines_equivalent(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    let (ta, tb): (Vec<&str>, Vec<&str>) = (a.split(' ').collect(), b.split(' ').collect());
    ta.len() == tb.len()
        && ta.iter().zip(&tb).all(|(x, y)| {
            x == y
                || matches!((x.parse::<f64>(), y.parse::<f64>()), (Ok(fx), Ok(fy))
                    if (fx - fy).abs() <= 1e-9 * fx.abs().max(fy.abs()))
        })
}

/// Example programs may print racy values (which thread won `single`): a
/// line is only compared when two runs of the *same* backend produce it
/// identically, and float tokens get reduction-order tolerance.
#[test]
fn example_programs_stable_lines_agree() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/zag");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/zag exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "zag") {
            continue;
        }
        seen += 1;
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let src = std::fs::read_to_string(&path).unwrap();
        let ast1 =
            run_on(&src, Backend::Ast, OptLevel::O0).unwrap_or_else(|e| panic!("{name}: {e}"));
        let ast2 = run_on(&src, Backend::Ast, OptLevel::O0).unwrap();
        for opt in opt_levels() {
            let bc1 = run_on(&src, Backend::Bytecode, opt)
                .unwrap_or_else(|e| panic!("{name} at --opt={opt}: {e}"));
            let bc2 = run_on(&src, Backend::Bytecode, opt).unwrap();
            assert_eq!(
                bc1.len(),
                ast1.len(),
                "{name}: line counts diverged at --opt={opt}"
            );
            for (i, line) in bc1.iter().enumerate() {
                let stable =
                    lines_equivalent(line, &bc2[i]) && lines_equivalent(&ast1[i], &ast2[i]);
                if stable {
                    assert!(
                        lines_equivalent(line, &ast1[i]),
                        "{name}: line {i} diverged at --opt={opt}:\n  bytecode: {line}\n  ast:      {}",
                        ast1[i]
                    );
                }
            }
        }
    }
    assert!(seen >= 3, "expected the shipped sample programs");
}

/// PR 2's pragma labels (`unit:line` from `preprocess_named`) must reach
/// the runtime's `ParallelBegin` probe when regions are entered through
/// compiled bytecode, so Chrome traces keep source-pragma names.
#[test]
fn bytecode_fork_call_keeps_pragma_labels() {
    use std::sync::{Mutex, OnceLock};
    static LABELS: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    let labels = LABELS.get_or_init(|| Mutex::new(Vec::new()));
    zomp::trace::register_callback(|probe| {
        if let zomp::trace::Probe::ParallelBegin { label, .. } = probe {
            LABELS
                .get()
                .unwrap()
                .lock()
                .unwrap()
                .push(label.to_string());
        }
    });
    let src = r#"fn main() void {
    var s: i64 = 0;
    //$omp parallel num_threads(2) reduction(+: s)
    {
        s += 1;
    }
    print(s);
}"#;
    for opt in opt_levels() {
        labels.lock().unwrap().clear();
        let vm = Vm::build(src, Some("label_demo.zag"), Backend::Bytecode, opt).unwrap();
        assert!(matches!(
            vm.call_function("main", Vec::new()).unwrap(),
            Value::Void
        ));
        assert_eq!(vm.output.into_inner(), vec!["2"]);
        let got = labels.lock().unwrap();
        assert!(
            got.iter().any(|l| l == "label_demo.zag:3"),
            "pragma label missing from ParallelBegin probes at --opt={opt}: {got:?}"
        );
    }
}

// -- strip-mined templates vs the oracle ------------------------------------

/// `templates::STRIP`: iterations a strip-mined template runs per op.
const STRIP: i64 = 128;

/// The strip/scalar verdict of every template `src` installs at
/// `--opt=3`, in remark order.
fn template_verdicts(src: &str) -> Vec<String> {
    zomp_vm::remarks::collect(src, "t.zag", OptLevel::O3)
        .unwrap_or_else(|e| panic!("{}", e.render(src)))
        .iter()
        .filter(|d| d.code == "template-installed")
        .map(|d| {
            let (_, verdict) = d.message.rsplit_once("), ").expect("verdict suffix");
            verdict.to_string()
        })
        .collect()
}

/// Four worksharing loops the template tier runs strip-mined — a float
/// stencil, a descending loop and a stride-3 loop that use the induction
/// variable as a value, and a wrapping `i64` reduction — then serial
/// checksums, one a float sum whose value depends on the order of its
/// additions.
fn strip_program(n: i64, threads: i64, sched: &str) -> String {
    format!(
        "fn fsum(v: []f64, u: []f64, n: i64) f64 {{
    var s: f64 = 0.0;
    var m: i64 = 0;
    while (m < n) : (m += 1) {{
        s = s + v[m + 1] * 1.0e15;
    }}
    m = 0;
    while (m < n) : (m += 1) {{
        s = s + u[m];
    }}
    return s;
}}
fn isum(y: []i64, n: i64) i64 {{
    var s: i64 = 0;
    var m: i64 = 0;
    while (m < n) : (m += 1) {{
        s = s + y[m] * (m + 1);
    }}
    return s;
}}
fn main() void {{
    var n: i64 = {n};
    var u: []f64 = @allocF(n + 2);
    var v: []f64 = @allocF(n + 2);
    var x: []i64 = @allocI(n + 2);
    var y: []i64 = @allocI(n + 2);
    var z: []i64 = @allocI(n + 2);
    var k: i64 = 0;
    while (k < n + 2) : (k += 1) {{
        u[k] = @intToFloat(k * 37 % 101) * 0.173 + 0.01;
        x[k] = (k % 31 - 15) * 1000003;
    }}
    var acc: i64 = 0;
    //$omp parallel num_threads({threads}) shared(u, v, x, y, z) firstprivate(n) reduction(+: acc)
    {{
        var i: i64 = 1;
        //$omp while {sched} nowait
        while (i < n + 1) : (i += 1) {{
            v[i] = 0.25 * u[i - 1] + 0.5 * u[i] + 0.25 * u[i + 1];
        }}
        var d: i64 = n - 1;
        //$omp while {sched} nowait
        while (d > -1) : (d -= 1) {{
            y[d] = x[d] * 3 + d;
        }}
        var s: i64 = 0;
        //$omp while {sched} nowait
        while (s < n) : (s += 3) {{
            z[s] = x[s] * s;
        }}
        var j: i64 = 0;
        //$omp while {sched}
        while (j < n) : (j += 1) {{
            acc = acc + x[j] * x[j] * 4611686018427;
        }}
    }}
    print(acc, fsum(v, u, n), isum(y, n), isum(z, n), v[n], y[0]);
}}"
    )
}

/// Strip execution against the tree-walker at every trip count around a
/// strip boundary, team size and schedule kind: chunks end mid-strip,
/// strips end mid-chunk, and every result is bit-identical.
#[test]
fn strip_corpus_agrees_across_trip_counts_threads_and_schedules() {
    let verdicts = template_verdicts(&strip_program(5, 2, "schedule(static)"));
    assert_eq!(
        verdicts.iter().filter(|v| *v == "strip").count(),
        7,
        "four worksharing loops and three serial sums should be strip-mined: {verdicts:?}"
    );
    for n in [0, 1, STRIP - 1, STRIP, STRIP + 1, 3 * STRIP + 7] {
        for threads in [1, 2, 4] {
            for sched in [
                "schedule(static)",
                "schedule(dynamic, 150)",
                "schedule(guided)",
            ] {
                let name = format!("strip/n{n}/t{threads}/{sched}");
                assert_backends_agree(&name, &strip_program(n, threads, sched));
            }
        }
    }
}

/// Loops the classifier must leave on the scalar chain, or that reach it
/// at run time: the same array passed as source and destination, a value
/// carried through memory, two stores per iteration, and a head-guarded
/// loop that runs zero times.
#[test]
fn strip_rejected_loops_agree() {
    let src = format!(
        "fn smooth(u: []f64, v: []f64, n: i64) void {{
    var i: i64 = 1;
    while (i < n) : (i += 1) {{
        v[i] = 0.25 * u[i - 1] + 0.5 * u[i] + 0.25 * u[i + 1];
    }}
}}
fn main() void {{
    var n: i64 = {n};
    var a: []f64 = @allocF(n + 1);
    var b: []f64 = @allocF(n + 1);
    var p: []i64 = @allocI(n + 1);
    var q: []i64 = @allocI(n + 1);
    var k: i64 = 0;
    while (k < n + 1) : (k += 1) {{
        a[k] = @intToFloat(k * 37 % 101) * 0.173 + 0.01;
        p[k] = k % 7 + 1;
    }}
    smooth(a, b, n);
    smooth(a, a, n);
    k = 0;
    while (k < n) : (k += 1) {{
        p[k + 1] = p[k] * 2;
    }}
    k = 0;
    while (k < n) : (k += 1) {{
        q[k] = p[k] + 1;
        p[k] = q[k] * 3;
    }}
    var zero: i64 = 0;
    var fsum: f64 = 0.0;
    k = 0;
    while (k < zero) : (k = k + 1) {{
        fsum = fsum + a[k];
    }}
    print(k, fsum);
    k = 0;
    while (k < n) : (k = k + 1) {{
        fsum = fsum + a[k] - b[k] * 0.5;
    }}
    print(k, fsum, a[n - 1], b[n - 1], p[n], p[n - 1], q[n - 1]);
}}",
        n = 2 * STRIP + 40
    );
    let verdicts = template_verdicts(&src);
    assert!(
        verdicts.contains(&"scalar: non-affine-store".to_string()),
        "`p[k + 1] = p[k] * 2` must stay scalar: {verdicts:?}"
    );
    assert_backends_agree("stay_scalar", &src);
}

/// An out-of-bounds load in the middle of the third strip: the error
/// text and the stored array — everything before the failing iteration
/// written, nothing after — are the tree-walker's at every tier.
#[test]
fn strip_out_of_bounds_matches_the_walker() {
    let src = "fn scale(u: []f64, v: []f64, n: i64) f64 {
    var s: f64 = 0.0;
    var i: i64 = 0;
    while (i < n) : (i += 1) {
        v[i] = u[i] * 2.0 + 1.0;
    }
    return s;
}
fn main() void {}";
    assert_eq!(template_verdicts(src), ["strip"]);
    let n = 3 * STRIP + 7;
    let short = (2 * STRIP + 50) as usize;
    let run = |backend: Backend, opt: OptLevel| {
        let u = std::sync::Arc::new(zomp_vm::value::ArrF::new(short));
        for i in 0..short {
            u.set(i as i64, i as f64 * 0.5).unwrap();
        }
        let v = std::sync::Arc::new(zomp_vm::value::ArrF::new(n as usize));
        let vm = Vm::build(src, None, backend, opt).unwrap_or_else(|e| panic!("{}", e.render(src)));
        let r = vm.call_function(
            "scale",
            vec![Value::ArrF(u), Value::ArrF(v.clone()), Value::Int(n)],
        );
        let bits: Vec<u64> = v.to_vec().iter().map(|x| x.to_bits()).collect();
        (r.map(|v| v.render()).map_err(|e| e.to_string()), bits)
    };
    let oracle = run(Backend::Ast, OptLevel::O0);
    assert!(oracle.0.is_err(), "{:?}", oracle.0);
    assert_eq!(oracle.1.iter().filter(|&&b| b != 0).count(), short);
    for opt in opt_levels() {
        assert_eq!(run(Backend::Bytecode, opt), oracle, "--opt={opt}");
    }
}

// -- inlining vs the oracle --------------------------------------------------

/// What the inliner did with `src` at `--opt=3`: the callee of every
/// `inlined` remark, and every `call boundary` note joined (the notes carry
/// the slug saying why each remaining callee stayed a call).
fn inline_remarks(src: &str) -> (Vec<String>, String) {
    let diags = zomp_vm::remarks::collect(src, "t.zag", OptLevel::O3)
        .unwrap_or_else(|e| panic!("{}", e.render(src)));
    let inlined = diags
        .iter()
        .filter(|d| d.code == "inlined")
        .map(|d| {
            let (_, rest) = d.message.split_once("inlined `").expect("callee");
            rest.split_once('`').expect("callee").0.to_string()
        })
        .collect();
    let notes: Vec<&str> = diags
        .iter()
        .filter(|d| d.message.contains("call boundary"))
        .filter_map(|d| d.note.as_deref())
        .collect();
    (inlined, notes.join("\n"))
}

/// Small helpers called from a worksharing loop: a three-`return` helper,
/// a helper that calls a helper twice, and a `void` helper that calls that
/// one and stores (three levels flattened into the loop). `sum`
/// is an `i64` reduction and each iteration stores its own element, so the
/// printed values do not depend on the schedule.
fn inline_ws_program(sched: &str, threads: i64) -> String {
    format!(
        "fn step(k: i64, lim: i64) i64 {{
    if (k % 3 == 0) {{
        return k / 3 + lim;
    }}
    if (k % 5 == 0) {{
        return k * 2 - lim;
    }}
    return k + 1;
}}
fn sq(v: i64) i64 {{ return v * v; }}
fn poly(v: i64) i64 {{ return sq(v) + sq(v + 1); }}
fn mark(out: []i64, i: i64) void {{ out[i] = poly(i) - 7; }}
fn main() void {{
    var out: []i64 = @allocI(211);
    var sum: i64 = 0;
    //$omp parallel num_threads({threads}) shared(out) reduction(+: sum)
    {{
        var i: i64 = 0;
        //$omp while {sched}
        while (i < 211) : (i += 1) {{
            sum = sum + poly(i) + step(i, 3);
            mark(out, i);
        }}
    }}
    var check: i64 = 0;
    var k: i64 = 0;
    while (k < 211) : (k += 1) {{
        check = check + out[k] * (k + 1);
    }}
    print(sum, check, mark(out, 0));
}}"
    )
}

/// Inlined helpers against the tree-walker (which never inlines) and the
/// raw `--opt=0` stream: results, output and error text are identical at
/// every tier and team size, and the remarks say which calls went in and,
/// by slug, why the others did not.
#[test]
fn inline_matrix_agrees() {
    // Under each of the six schedules; the loop is left without a call.
    let (inlined, notes) = inline_remarks(&inline_ws_program("schedule(static)", 2));
    for callee in ["step", "sq", "poly", "mark"] {
        assert!(inlined.iter().any(|c| c == callee), "{callee}: {inlined:?}");
    }
    assert_eq!(notes, "", "no call is left in any loop");
    for sched in [
        "schedule(static)",
        "schedule(static, 3)",
        "schedule(dynamic, 1)",
        "schedule(dynamic, 5)",
        "schedule(guided)",
        "schedule(runtime)",
    ] {
        for threads in [1, 2, 4] {
            let name = format!("inline/{sched}/t{threads}");
            assert_backends_agree(&name, &inline_ws_program(sched, threads));
        }
    }

    // Parameters are copies, arguments run once and in order, and an
    // address-taken local is a fresh cell at every inlined execution.
    let serial = r#"fn bump(a: i64, b: i64) i64 {
    a = a + 1;
    b = b * 2;
    return a + b;
}
fn say(x: i64) i64 {
    print("say", x);
    return x;
}
fn next(p: *i64) i64 {
    p.* += 1;
    return p.*;
}
fn sub(a: i64, b: i64) i64 { return a - b; }
fn acc(p: *i64, v: i64) i64 {
    var t: i64 = v;
    const q = &t;
    q.* = q.* + p.*;
    p.* = t;
    return t;
}
fn nothing() void {}
fn main() void {
    var x: i64 = 5;
    print(bump(x, x), x);
    var c: i64 = 0;
    print(sub(say(1), say(2)), sub(next(&c), next(&c)), c);
    var total: i64 = 0;
    var i: i64 = 0;
    while (i < 6) : (i += 1) {
        total = total + acc(&c, i) + bump(i, i);
    }
    print(total, c, i, nothing());
}"#;
    let (inlined, _) = inline_remarks(serial);
    for callee in ["bump", "say", "next", "sub", "acc", "nothing"] {
        assert!(inlined.iter().any(|c| c == callee), "{callee}: {inlined:?}");
    }
    assert_eq!(
        run_on(serial, Backend::Ast, OptLevel::O0),
        Ok(vec![
            "16 5".to_string(),
            "say 1".to_string(),
            "say 2".to_string(),
            "-1 -1 2".to_string(),
            "98 17 6 void".to_string(),
        ])
    );
    assert_backends_agree("serial", serial);

    // Calls that must stay calls, each named with its slug.
    let kept = r#"fn fact(n: i64) i64 {
    if (n < 2) { return 1; }
    return n * fact(n - 1);
}
fn even(n: i64) i64 {
    if (n == 0) { return 1; }
    return odd(n - 1);
}
fn odd(n: i64) i64 {
    if (n == 0) { return 0; }
    return even(n - 1);
}
fn via(n: i64) i64 { return n + 1; }
fn looped(n: i64) i64 {
    var s: i64 = 0;
    var j: i64 = 0;
    while (j < n) : (j += 1) { s = s + j; }
    return s;
}
fn big(v: i64) i64 {
    var k: i64 = v;
    k = k + 1; k = k + 1; k = k + 1; k = k + 1; k = k + 1; k = k + 1;
    k = k + 1; k = k + 1; k = k + 1; k = k + 1; k = k + 1;
    return k;
}
fn wrap(n: i64) i64 { return fact(n) + 1; }
fn who(n: i64) i64 { return n + omp.get_thread_num(); }
fn main() void {
    const f = via;
    var s: i64 = 0;
    var i: i64 = 0;
    while (i < 7) : (i += 1) {
        s = s + fact(i) + even(i) + f(i) + looped(i) + big(i) + wrap(i) + who(i);
    }
    print(s);
}"#;
    let (inlined, notes) = inline_remarks(kept);
    assert_eq!(inlined, Vec::<String>::new());
    for slug in [
        "`fact` [recursive]",
        "`even` [recursive]",
        "a function value [indirect]",
        "`looped` [has-loop]",
        "`big` [over-budget (25 > 24)]",
        "`wrap` [calls]",
        "`who` [omp-call]",
    ] {
        assert!(notes.contains(slug), "{slug} missing from: {notes}");
    }
    assert_backends_agree("kept", kept);

    // A wrong-arity call stays a call and fails as one.
    let arity = "fn two(a: i64, b: i64) i64 { return a + b; }
fn main() void {
    var i: i64 = 0;
    while (i < 3) : (i += 1) { print(two(i, i)); print(two(i)); }
}";
    let (inlined, notes) = inline_remarks(arity);
    assert_eq!(inlined, ["two"], "the two-argument site goes in");
    assert!(notes.contains("`two` [arity]"), "{notes}");
    assert_eq!(
        run_on(arity, Backend::Ast, OptLevel::O0),
        Err("runtime error: `two` expects 2 arguments, got 1".to_string())
    );
    assert_backends_agree("arity", arity);
}

/// An inlined helper that fails on some iterations only: the error text
/// and everything done before it — lines printed, elements stored — are
/// the tree-walker's, also where the enclosing loop became a template and
/// bails to replay the failing iteration; and a host `f64` handed to an
/// `i64`-annotated parameter flows through the inlined body to the
/// walker's result or error.
#[test]
fn inline_faults_and_host_types_match_the_walker() {
    let src = "fn inv(a: i64, b: i64) i64 { return a / b; }
fn at(a: []i64, i: i64) i64 { return a[i]; }
fn shout(out: []i64, n: i64) void {
    var i: i64 = 0;
    while (i < n) : (i += 1) {
        print(inv(1000, 7 - i));
    }
}
fn fill(out: []i64, n: i64) void {
    var i: i64 = 0;
    while (i < n) : (i += 1) {
        out[i] = inv(1000, 7 - i);
    }
}
fn copy(out: []i64, n: i64) void {
    var i: i64 = 0;
    while (i < n) : (i += 1) {
        out[i + 2] = at(out, i) * 2 + 1;
    }
}
fn twice(x: i64) i64 { return x + x; }
fn mixed(x: i64, y: i64) i64 { return x + y; }
fn host(out: []i64, x: i64) i64 { return twice(x) + mixed(x, 2); }
fn hosted(out: []i64, x: i64) i64 { return twice(x); }
fn main() void {}";
    let diags = zomp_vm::remarks::collect(src, "t.zag", OptLevel::O3).unwrap();
    let templated = |func: &str| {
        diags
            .iter()
            .any(|d| d.code == "template-installed" && d.message.contains(&format!("`{func}`")))
    };
    assert!(
        templated("fill") && templated("copy"),
        "once the helper is inlined the store loops are templates: {diags:?}"
    );
    let run = |backend: Backend, opt: OptLevel, func: &str, arg: Value| {
        let out = std::sync::Arc::new(zomp_vm::value::ArrI::new(10));
        let vm = Vm::build(src, None, backend, opt).unwrap_or_else(|e| panic!("{}", e.render(src)));
        let r = vm.call_function(func, vec![Value::ArrI(out.clone()), arg]);
        (
            r.map(|v| v.render()).map_err(|e| e.to_string()),
            vm.output.into_inner(),
            out.to_vec(),
        )
    };
    for (func, arg, fails) in [
        ("shout", Value::Int(10), true),
        ("fill", Value::Int(10), true),
        ("copy", Value::Int(10), true),
        ("host", Value::Float(1.5), true),
        ("hosted", Value::Float(1.5), false),
    ] {
        let oracle = run(Backend::Ast, OptLevel::O0, func, arg.clone());
        assert_eq!(oracle.0.is_err(), fails, "{func}: {:?}", oracle.0);
        for opt in opt_levels() {
            let got = run(Backend::Bytecode, opt, func, arg.clone());
            assert_eq!(got, oracle, "{func} at --opt={opt}");
        }
    }
}

// -- call-depth limit --------------------------------------------------------

/// Run `f` on a thread with the stack every thread running Zag code for
/// the runtime has (`cargo test` threads get 2 MB, too little for
/// `MAX_CALL_DEPTH` frames in a debug build).
fn on_user_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(zomp::STACK_BYTES)
            .spawn_scoped(s, f)
            .expect("spawn")
            .join()
            .expect("the program thread must not overflow its stack")
    })
}

/// `zomp::MAX_CALL_DEPTH` nested activations run; one more is the same
/// runtime error on the oracle and at every tier, serially and on both
/// threads of a `parallel` region (whose body is one activation itself) —
/// never a native stack overflow. An inlined call is not an activation:
/// the one program that differs between tiers is a leaf called from
/// activation number `MAX_CALL_DEPTH` (DESIGN "Inlining").
#[test]
fn call_depth_limit_is_an_error_at_every_tier() {
    let limit = zomp::MAX_CALL_DEPTH as i64;
    // `down(k)` nests k + 1 calls.
    let program = |serial: i64, forked: i64| {
        format!(
            "fn down(k: i64) i64 {{ if (k == 0) {{ return 0; }} return 1 + down(k - 1); }}
fn main() void {{
    print(down({serial}));
    var total: i64 = 0;
    //$omp parallel num_threads(2) reduction(+: total)
    {{
        total = total + down({forked});
    }}
    print(total);
}}"
        )
    };
    let deepest = program(limit - 1, limit - 2);
    on_user_stack(|| {
        assert_eq!(
            run_on(&deepest, Backend::Ast, OptLevel::O0),
            Ok(vec![(limit - 1).to_string(), (2 * (limit - 2)).to_string()])
        );
        assert_backends_agree("deepest", &deepest);
    });
    for (name, too_deep) in [
        ("serial", program(limit, 0)),
        ("forked", program(0, limit - 1)),
    ] {
        on_user_stack(|| {
            let e = run_on(&too_deep, Backend::Ast, OptLevel::O0).expect_err("limit + 1");
            assert!(e.contains("stack overflow"), "{name}: {e}");
            assert_backends_agree(name, &too_deep);
        });
    }
    // `down` recurses and stays a call at every tier; `one` is a call —
    // activation `limit + 1` — only where nothing inlines it.
    let boundary = format!(
        "fn one() i64 {{ return 1; }}
fn down(k: i64) i64 {{ if (k == 0) {{ return one(); }} return 1 + down(k - 1); }}
fn main() void {{ print(down({})); }}",
        limit - 1
    );
    on_user_stack(|| {
        let oracle = run_on(&boundary, Backend::Ast, OptLevel::O0);
        let e = oracle
            .clone()
            .expect_err("the leaf is one activation too many");
        assert!(e.contains("stack overflow"), "{e}");
        let inlined = Ok(vec![limit.to_string()]);
        for opt in opt_levels() {
            let want = if opt == OptLevel::O0 {
                &oracle
            } else {
                &inlined
            };
            assert_eq!(
                &run_on(&boundary, Backend::Bytecode, opt),
                want,
                "--opt={opt}"
            );
        }
    });
}
