//! End-to-end tests of the full pipeline: pragma-annotated Zag source →
//! tokenizer → parser → multi-pass preprocessor → interpreter → real
//! threads on the zomp runtime.

use zomp_vm::Vm;

fn run(src: &str) -> Vec<String> {
    Vm::run(src)
        .map_err(|e| panic!("{e}\n--- source ---\n{src}"))
        .unwrap()
}

// -- sequential language basics ----------------------------------------------

#[test]
fn arithmetic_and_control_flow() {
    let out = run(r#"
fn main() void {
    var x: i64 = 0;
    var i: i64 = 0;
    while (i < 10) : (i += 1) {
        if (i % 2 == 0) {
            x += i;
        }
    }
    print(x);
}
"#);
    assert_eq!(out, vec!["20"]);
}

#[test]
fn functions_and_recursion() {
    let out = run(r#"
fn fib(n: i64) i64 {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
fn main() void {
    print(fib(15));
}
"#);
    assert_eq!(out, vec!["610"]);
}

#[test]
fn arrays_and_builtins() {
    let out = run(r#"
fn main() void {
    var a: []f64 = @allocF(5);
    var i: i64 = 0;
    while (i < @len(a)) : (i += 1) {
        a[i] = @intToFloat(i * i);
    }
    print(a[4], @sqrt(a[4]));
}
"#);
    assert_eq!(out, vec!["16.0 4.0"]);
}

#[test]
fn pointers_and_deref() {
    let out = run(r#"
fn bump(p: *i64) void {
    p.* += 5;
}
fn main() void {
    var x: i64 = 10;
    bump(&x);
    bump(&x);
    print(x);
}
"#);
    assert_eq!(out, vec!["20"]);
}

#[test]
fn break_and_continue() {
    let out = run(r#"
fn main() void {
    var s: i64 = 0;
    var i: i64 = 0;
    while (i < 100) : (i += 1) {
        if (i == 7) {
            break;
        }
        if (i % 2 == 1) {
            continue;
        }
        s += i;
    }
    print(s, i);
}
"#);
    // 0+2+4+6 = 12, stopped at 7.
    assert_eq!(out, vec!["12 7"]);
}

#[test]
fn openmp_names_remain_usable_identifiers() {
    let out = run(r#"
fn main() void {
    var parallel: i64 = 2;
    var shared: i64 = 3;
    print(parallel * shared);
}
"#);
    assert_eq!(out, vec!["6"]);
}

// -- parallel regions ---------------------------------------------------------

#[test]
fn parallel_region_runs_every_thread() {
    let out = run(r#"
fn main() void {
    var count: i64 = 0;
    //$omp parallel num_threads(4) reduction(+: count)
    {
        count += 1;
    }
    print(count);
}
"#);
    assert_eq!(out, vec!["4"]);
}

#[test]
fn thread_ids_are_live_inside_region() {
    let out = run(r#"
fn main() void {
    var max_tid: i64 = 0;
    var nthreads: i64 = 0;
    //$omp parallel num_threads(3) reduction(max: max_tid) shared(nthreads)
    {
        max_tid = omp.get_thread_num();
        nthreads = omp.get_num_threads();
    }
    print(max_tid, nthreads, omp.in_parallel());
}
"#);
    assert_eq!(out, vec!["2 3 false"]);
}

#[test]
fn firstprivate_copies_value_in() {
    let out = run(r#"
fn main() void {
    var base: i64 = 100;
    var total: i64 = 0;
    //$omp parallel num_threads(4) firstprivate(base) reduction(+: total)
    {
        base += omp.get_thread_num();
        total += base;
    }
    print(base, total);
}
"#);
    // Each thread starts from 100; 4*100 + (0+1+2+3) = 406; outer unchanged.
    assert_eq!(out, vec!["100 406"]);
}

#[test]
fn shared_scalar_through_pointer_rewrite() {
    let out = run(r#"
fn main() void {
    var flag: i64 = 0;
    //$omp parallel num_threads(4) shared(flag)
    {
        //$omp master
        {
            flag = 42;
        }
    }
    print(flag);
}
"#);
    assert_eq!(out, vec!["42"]);
}

#[test]
fn if_clause_serialises_region() {
    let out = run(r#"
fn main() void {
    var n: i64 = 0;
    //$omp parallel num_threads(8) if(false) reduction(+: n)
    {
        n += omp.get_num_threads();
    }
    print(n);
}
"#);
    assert_eq!(out, vec!["1"]);
}

#[test]
fn region_reduction_mul_uses_cas_loop() {
    let out = run(r#"
fn main() void {
    var p: i64 = 3;
    //$omp parallel num_threads(5) reduction(*: p)
    {
        p *= 2;
    }
    print(p);
}
"#);
    // Seed 3 times 2^5.
    assert_eq!(out, vec!["96"]);
}

#[test]
fn float_reduction_region() {
    let out = run(r#"
fn main() void {
    var s: f64 = 0.5;
    //$omp parallel num_threads(4) reduction(+: s)
    {
        s += 1.0;
    }
    print(s);
}
"#);
    assert_eq!(out, vec!["4.5"]);
}

// -- worksharing loops ----------------------------------------------------------

fn fill_program(schedule: &str) -> String {
    format!(
        r#"
fn main() void {{
    var a: []i64 = @allocI(100);
    //$omp parallel num_threads(4) shared(a)
    {{
        var i: i64 = 0;
        //$omp while {schedule}
        while (i < 100) : (i += 1) {{
            a[i] = a[i] + i;
        }}
    }}
    var check: i64 = 0;
    var j: i64 = 0;
    while (j < 100) : (j += 1) {{
        check += a[j];
    }}
    print(check);
}}
"#
    )
}

#[test]
fn worksharing_covers_each_iteration_exactly_once_all_schedules() {
    for sched in [
        "",
        "schedule(static)",
        "schedule(static, 7)",
        "schedule(dynamic)",
        "schedule(dynamic, 5)",
        "schedule(guided)",
        "schedule(runtime)",
    ] {
        let out = run(&fill_program(sched));
        assert_eq!(out, vec!["4950"], "schedule {sched}");
    }
}

#[test]
fn loop_reduction_inside_region() {
    // The CG pattern: reduction into a shared scalar of the enclosing
    // region, lowered across two preprocessor passes.
    let out = run(r#"
fn main() void {
    var rho: f64 = 0.0;
    var n: i64 = 1000;
    //$omp parallel num_threads(4) shared(rho) firstprivate(n)
    {
        var j: i64 = 0;
        //$omp while reduction(+: rho)
        while (j < n) : (j += 1) {
            rho = rho + 1.0;
        }
    }
    print(rho);
}
"#);
    assert_eq!(out, vec!["1000.0"]);
}

#[test]
fn two_nowait_loops_then_barrier() {
    let out = run(r#"
fn main() void {
    var a: []i64 = @allocI(50);
    var b: []i64 = @allocI(50);
    //$omp parallel num_threads(3) shared(a, b)
    {
        var i: i64 = 0;
        //$omp while nowait
        while (i < 50) : (i += 1) {
            a[i] = 1;
        }
        var j: i64 = 0;
        //$omp while schedule(dynamic, 3) nowait
        while (j < 50) : (j += 1) {
            b[j] = 2;
        }
        //$omp barrier
    }
    var s: i64 = 0;
    var k: i64 = 0;
    while (k < 50) : (k += 1) {
        s += a[k] + b[k];
    }
    print(s);
}
"#);
    assert_eq!(out, vec!["150"]);
}

#[test]
fn strided_and_downward_loops() {
    let out = run(r#"
fn main() void {
    var up: i64 = 0;
    var down: i64 = 0;
    //$omp parallel num_threads(2) reduction(+: up, down)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < 20) : (i += 4) {
            up += i;
        }
        var j: i64 = 20;
        //$omp while schedule(dynamic)
        while (j > 0) : (j -= 5) {
            down += j;
        }
    }
    print(up, down);
}
"#);
    // up: 0+4+8+12+16 = 40; down: 20+15+10+5 = 50.
    assert_eq!(out, vec!["40 50"]);
}

#[test]
fn firstprivate_on_loop() {
    let out = run(r#"
fn main() void {
    var scale: i64 = 10;
    var total: i64 = 0;
    //$omp parallel num_threads(2) firstprivate(scale) reduction(+: total)
    {
        var i: i64 = 0;
        //$omp while firstprivate(scale)
        while (i < 10) : (i += 1) {
            total += scale;
        }
    }
    print(total);
}
"#);
    assert_eq!(out, vec!["100"]);
}

// -- synchronisation directives ---------------------------------------------------

#[test]
fn single_runs_once_and_synchronises() {
    let out = run(r#"
fn main() void {
    var winner_count: i64 = 0;
    //$omp parallel num_threads(4) reduction(+: winner_count)
    {
        //$omp single
        {
            winner_count += 1;
        }
    }
    print(winner_count);
}
"#);
    assert_eq!(out, vec!["1"]);
}

#[test]
fn critical_protects_shared_updates() {
    let out = run(r#"
fn main() void {
    var counter: i64 = 0;
    //$omp parallel num_threads(4) shared(counter)
    {
        var k: i64 = 0;
        while (k < 100) : (k += 1) {
            //$omp critical (c1)
            {
                counter = counter + 1;
            }
        }
    }
    print(counter);
}
"#);
    assert_eq!(out, vec!["400"]);
}

#[test]
fn atomic_updates_shared_scalar() {
    let out = run(r#"
fn main() void {
    var hits: i64 = 0;
    //$omp parallel num_threads(4) shared(hits)
    {
        var k: i64 = 0;
        while (k < 250) : (k += 1) {
            //$omp atomic
            hits += 1;
        }
    }
    print(hits);
}
"#);
    assert_eq!(out, vec!["1000"]);
}

#[test]
fn atomic_on_array_elements() {
    let out = run(r#"
fn main() void {
    var q: []i64 = @allocI(2);
    //$omp parallel num_threads(4) shared(q)
    {
        var k: i64 = 0;
        while (k < 100) : (k += 1) {
            //$omp atomic
            q[k % 2] += 1;
        }
    }
    print(q[0], q[1]);
}
"#);
    assert_eq!(out, vec!["200 200"]);
}

// -- errors and safety -------------------------------------------------------------

#[test]
fn out_of_bounds_is_caught_in_debug_mode() {
    zomp::safety::with_safety_mode(zomp::safety::SafetyMode::Debug, || {
        let err = Vm::run(
            r#"
fn main() void {
    var a: []f64 = @allocF(3);
    a[3] = 1.0;
}
"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");
    });
}

#[test]
fn runtime_error_inside_region_propagates() {
    let err = Vm::run(
        r#"
fn main() void {
    //$omp parallel num_threads(3)
    {
        var x: i64 = 1 / 0;
        _ = x;
    }
}
"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

#[test]
fn unknown_variable_reports_error() {
    let err = Vm::run("fn main() void { print(nope); }").unwrap_err();
    assert!(err.to_string().contains("unknown variable"), "{err}");
}

// -- a miniature NPB-style kernel through the whole pipeline -----------------------

#[test]
fn mini_dot_product_matches_serial() {
    // A miniature CG building block: dot product with region + loop
    // reduction, verified against the serial loop in the same program.
    let out = run(r#"
fn main() void {
    var n: i64 = 512;
    var x: []f64 = @allocF(512);
    var y: []f64 = @allocF(512);
    var init: i64 = 0;
    while (init < n) : (init += 1) {
        x[init] = @intToFloat(init);
        y[init] = 2.0;
    }

    var serial: f64 = 0.0;
    var i: i64 = 0;
    while (i < n) : (i += 1) {
        serial = serial + x[i] * y[i];
    }

    var dot: f64 = 0.0;
    //$omp parallel num_threads(4) shared(x, y, dot) firstprivate(n)
    {
        var j: i64 = 0;
        //$omp while schedule(guided) reduction(+: dot)
        while (j < n) : (j += 1) {
            dot = dot + x[j] * y[j];
        }
    }

    if (dot == serial) {
        print("match", dot);
    } else {
        print("MISMATCH", dot, serial);
    }
}
"#);
    assert_eq!(out, vec!["match 261632.0"]);
}

// -- orphaned constructs (outside any parallel region) -------------------------

#[test]
fn worksharing_outside_region_runs_serially() {
    // OpenMP: a worksharing construct outside a parallel region binds to an
    // implicit team of one.
    let out = run(r#"
fn main() void {
    var s: i64 = 0;
    var i: i64 = 0;
    //$omp while schedule(dynamic, 4)
    while (i < 50) : (i += 1) {
        s += i;
    }
    print(s, omp.in_parallel());
}
"#);
    assert_eq!(out, vec!["1225 false"]);
}

#[test]
fn orphaned_single_and_master_run() {
    let out = run(r#"
fn main() void {
    var x: i64 = 0;
    //$omp master
    { x += 1; }
    //$omp single
    { x += 10; }
    //$omp barrier
    print(x);
}
"#);
    assert_eq!(out, vec!["11"]);
}

#[test]
fn wtime_is_available_in_zag() {
    let out = run(r#"
fn main() void {
    var t0: f64 = omp.get_wtime();
    var spin: i64 = 0;
    while (spin < 1000) : (spin += 1) {
        _ = spin;
    }
    var t1: f64 = omp.get_wtime();
    print(t1 >= t0);
}
"#);
    assert_eq!(out, vec!["true"]);
}

#[test]
fn reduction_min_over_loop() {
    let out = run(r#"
fn main() void {
    var lo: i64 = 1000000;
    //$omp parallel num_threads(3) reduction(min: lo)
    {
        var i: i64 = 0;
        //$omp while schedule(dynamic, 5)
        while (i < 100) : (i += 1) {
            var v: i64 = (i - 40) * (i - 40);
            if (v < lo) {
                lo = v;
            }
        }
    }
    print(lo);
}
"#);
    assert_eq!(out, vec!["0"]);
}

#[test]
fn nested_parallel_serialises_in_zag() {
    let out = run(r#"
fn main() void {
    var outer_n: i64 = 0;
    var inner_n: i64 = 0;
    //$omp parallel num_threads(2) reduction(+: outer_n, inner_n)
    {
        outer_n += omp.get_num_threads();
        //$omp parallel num_threads(8) reduction(+: inner_n)
        {
            inner_n += omp.get_num_threads();
        }
    }
    print(outer_n, inner_n);
}
"#);
    // 2 threads each seeing team size 2; inner regions serialise to 1.
    assert_eq!(out, vec!["4 2"]);
}

// -- collapse -------------------------------------------------------------------

#[test]
fn collapse2_covers_2d_space_exactly() {
    let out = run(r#"
fn main() void {
    var grid: []i64 = @allocI(600);
    var n: i64 = 20;
    var m: i64 = 30;
    //$omp parallel num_threads(4) shared(grid) firstprivate(n, m)
    {
        var i: i64 = 0;
        //$omp while collapse(2) schedule(dynamic, 7)
        while (i < n) : (i += 1) {
            var j: i64 = 0;
            while (j < m) : (j += 1) {
                grid[i * m + j] = grid[i * m + j] + 1;
            }
        }
    }
    var bad: i64 = 0;
    var k: i64 = 0;
    while (k < 600) : (k += 1) {
        if (grid[k] != 1) {
            bad += 1;
        }
    }
    print(bad);
}
"#);
    assert_eq!(out, vec!["0"]);
}

#[test]
fn collapse2_with_reduction_and_strides() {
    let out = run(r#"
fn main() void {
    var total: i64 = 0;
    //$omp parallel num_threads(3) shared(total)
    {
        var i: i64 = 0;
        //$omp while collapse(2) reduction(+: total)
        while (i < 10) : (i += 2) {
            var j: i64 = 1;
            while (j < 7) : (j += 3) {
                total = total + i * 100 + j;
            }
        }
    }
    print(total);
}
"#);
    // i in {0,2,4,6,8}, j in {1,4}: sum of (i*100 + j) = 2*100*(0+2+4+6+8) + 5*(1+4)
    assert_eq!(out, vec!["4025"]);
}

/// `collapse(3)` over a descending `>=` level and a strided one, with a
/// reduction: every point of the 4 x 5 x 5 space runs once, and each
/// level's counter holds its value in the body.
#[test]
fn collapse3_covers_3d_space_exactly() {
    let out = run(r#"
fn main() void {
    var grid: []i64 = @allocI(100);
    var total: i64 = 0;
    //$omp parallel num_threads(4) shared(grid, total)
    {
        var i: i64 = 0;
        //$omp while collapse(3) schedule(static, 6) reduction(+: total)
        while (i < 4) : (i += 1) {
            var j: i64 = 4;
            while (j >= 0) : (j -= 1) {
                var k: i64 = 1;
                while (k < 10) : (k += 2) {
                    grid[i * 25 + j * 5 + (k - 1) / 2] = grid[i * 25 + j * 5 + (k - 1) / 2] + 1;
                    total = total + i * 100 + j * 10 + k;
                }
            }
        }
    }
    var bad: i64 = 0;
    var e: i64 = 0;
    while (e < 100) : (e += 1) {
        if (grid[e] != 1) {
            bad += 1;
        }
    }
    print(bad, total);
}
"#);
    // 25 * 100 * (0+1+2+3) + 20 * 10 * (0+1+2+3+4) + 20 * (1+3+5+7+9)
    assert_eq!(out, vec!["0 17500"]);
}

/// A nest shallower than its `collapse` depth is an error, not a loop
/// collapsed less deeply.
#[test]
fn collapse3_over_a_two_deep_nest_is_an_error() {
    let err = Vm::run(
        r#"
fn main() void {
    var i: i64 = 0;
    //$omp while collapse(3)
    while (i < 2) : (i += 1) {
        var j: i64 = 0;
        while (j < 2) : (j += 1) { }
    }
}
"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("collapse"), "{err}");
}

// -- the nesting bound ---------------------------------------------------------

/// A way Zag source nests: its name, and the program nested `n` levels
/// that way, which prints one line.
type Shape = (&'static str, fn(usize) -> String);

fn deep_shapes() -> Vec<Shape> {
    fn main(body: String) -> String {
        format!("fn main() void {{\n    var x: i64 = 1;\n    {body}\n}}\n")
    }
    vec![
        ("parens", |n| {
            main(format!("print({}x{});", "(".repeat(n), ")".repeat(n)))
        }),
        ("right-nested sum", |n| {
            main(format!("print({}x{});", "x + (".repeat(n), ")".repeat(n)))
        }),
        ("left chain", |n| {
            main(format!("print({}x);", "x + ".repeat(n)))
        }),
        ("unary", |n| main(format!("print({}x);", "- ".repeat(n)))),
        ("blocks", |n| {
            main(format!("{}print(x);{}", "{ ".repeat(n), " }".repeat(n)))
        }),
        ("ifs", |n| {
            main(format!(
                "{}print(x);{}",
                "if (x > 0) { ".repeat(n),
                " }".repeat(n)
            ))
        }),
        ("whiles", |n| {
            let (open, close) = ("while (x > 0) { ".repeat(n), " break; }".repeat(n));
            main(format!("{open}print(x);{close}"))
        }),
        ("else-if chain", |n| {
            main(format!(
                "if (x < 0) {{ }}{} else {{ print(x); }}",
                " else if (x < 0) { }".repeat(n)
            ))
        }),
        ("worksharing loop", |n| {
            let (open, close) = ("{ ".repeat(n), " }".repeat(n));
            main(format!(
                "var s: i64 = 0;\n//$omp parallel num_threads(2) shared(s)\n{{ {open}\n\
                 var i: i64 = 0;\n//$omp while reduction(+: s)\n\
                 while (i < 4) : (i += 1) {{ s += i; }}\n{close} }}\nprint(s);"
            ))
        }),
    ]
}

/// A program as deep as the front end takes (the deepest `n` that
/// compiles; one level more is the parser's nesting error) lowers at both
/// opt levels and runs on both backends inside a 2 MB thread stack. The
/// preprocessor parses what it writes under the same bound, so a
/// worksharing loop's limit sits a few levels below the parser's.
#[test]
fn programs_at_the_nesting_bound_compile_and_run() {
    use zomp_front::parser::MAX_NEST;
    use zomp_vm::{Backend, OptLevel};
    for (name, shape) in deep_shapes() {
        let compiles = |n: usize| zomp_vm::compile(&shape(n)).err();
        let n = (1..MAX_NEST as usize)
            .rev()
            .find(|&n| compiles(n).is_none())
            .expect("some depth compiles");
        let err = compiles(n + 1).expect("one level deeper is refused");
        assert_eq!(
            err.message,
            format!("nesting deeper than {MAX_NEST} levels"),
            "{name}"
        );
        assert!(n + 8 >= MAX_NEST as usize / 2, "{name}: only {n} levels");
        let src = shape(n);
        let runs = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut outs = Vec::new();
                for backend in [Backend::Ast, Backend::Bytecode] {
                    for opt in [OptLevel::O0, OptLevel::O3] {
                        let vm = Vm::build(&src, None, backend, opt).expect("compiles");
                        vm.call_function("main", Vec::new()).expect("runs");
                        outs.push(vm.output.into_inner());
                    }
                }
                outs
            })
            .expect("spawn")
            .join()
            .unwrap_or_else(|_| panic!("{name} at depth {n} failed"));
        assert!(
            runs.iter().all(|o| o.len() == 1 && *o == runs[0]),
            "{name}: {runs:?}"
        );
    }
}
