//! Corner cases of the native tiers ([`zomp_vm::kernels`] and the
//! template tier) and of the register slots they run beside.
//!
//! The differential suite proves whole-program agreement; these tests pin
//! the *mechanism*: which locals are boxed, which adds stay generic, and
//! that a bulk kernel's mid-loop bail reproduces the interpreter's exact
//! error.

use zomp_vm::bytecode::disasm_fn;
use zomp_vm::{Backend, OptLevel, Vm};

fn build(src: &str, opt: OptLevel) -> Vm {
    Vm::build(src, None, Backend::Bytecode, opt).unwrap_or_else(|e| panic!("{}", e.render(src)))
}

fn run(src: &str, backend: Backend, opt: OptLevel) -> Result<Vec<String>, String> {
    let vm = Vm::build(src, None, backend, opt).unwrap_or_else(|e| panic!("{}", e.render(src)));
    match vm.call_function("main", Vec::new()) {
        Ok(_) => Ok(vm.output.into_inner()),
        Err(e) => Err(e.to_string()),
    }
}

/// A slot reassigned from Int to Float: the add on it stays a plain
/// `add`, and the program keeps matching the oracle through the type
/// flip.
#[test]
fn mixed_reassignment_stays_dynamic_and_deopts() {
    let src = r#"fn main() void {
    var x: any = undefined;
    x = 1;
    var i: i64 = 0;
    while (i < 6) : (i += 1) {
        x = x + x;
        if (i == 2) { x = 0.5; }
    }
    print(x);
}"#;
    let vm = build(src, OptLevel::O3);
    let dis = disasm_fn(vm.program.code.get("main").unwrap());
    assert!(
        dis.contains("add        r"),
        "the Int/Float-flipping add must stay an add:\n{dis}"
    );
    let ast = run(src, Backend::Ast, OptLevel::O0);
    assert_eq!(
        run(src, Backend::Bytecode, OptLevel::O3),
        ast,
        "type flip diverged at --opt=3"
    );
}

/// `&x` boxes the local: its register is a `newcell` flagged
/// address-taken.
#[test]
fn address_taken_local_is_ptr() {
    let src = r#"fn main() void {
    var x: i64 = 1;
    var p: any = &x;
    var i: i64 = 0;
    while (i < 3) : (i += 1) { p.* = x + 1; }
    print(x);
}"#;
    let vm = build(src, OptLevel::O3);
    let f = vm.program.code.get("main").unwrap();
    let dis = disasm_fn(f);
    assert!(dis.contains("newcell"), "local `x` should be boxed:\n{dis}");
    let &(_, _, addr_taken) = f
        .locals
        .iter()
        .find(|(_, name, _)| name == "x")
        .expect("local x");
    assert!(addr_taken, "local `x` should be flagged address-taken");
}

/// An array allocated inside a `parallel` body, filled and summed there
/// by each thread of the team.
#[test]
fn private_array_elem_type_stable_across_parallel_body() {
    let src = r#"fn main() void {
    var t: i64 = 0;
    //$omp parallel num_threads(2) reduction(+: t)
    {
        var a: f64 = @allocF(8);
        var j: i64 = 0;
        while (j < 8) : (j += 1) { a[j] = 1.5; }
        var s: f64 = 0.0;
        var k: i64 = 0;
        while (k < 8) : (k += 1) { s = s + a[k]; }
        t += @floatToInt(s);
    }
    print(t);
}"#;
    assert_eq!(
        run(src, Backend::Bytecode, OptLevel::O3),
        Ok(vec!["24".to_string()])
    );
}

/// At `--opt=3` the work-shared fill loop matches no fixed kernel and
/// lands on the template tier; when the loop runs out of bounds
/// mid-flight the template must bail back to the interpreter and surface
/// the *exact* error the oracle produces.
#[test]
fn bulk_kernel_bails_with_oracle_error() {
    let src = r#"fn main() void {
    var a: f64 = @allocF(10);
    //$omp parallel num_threads(1) shared(a)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < 20) : (i += 1) { a[i] = 0.5; }
    }
    print(a[0]);
}"#;
    let vm = build(src, OptLevel::O3);
    assert!(
        vm.program
            .code
            .funcs
            .iter()
            .any(|f| !f.templates.is_empty()),
        "expected a template to install for the fill loop"
    );
    let ast = run(src, Backend::Ast, OptLevel::O0);
    assert!(ast.is_err(), "expected an out-of-bounds error");
    assert_eq!(run(src, Backend::Bytecode, OptLevel::O3), ast);
    assert_eq!(run(src, Backend::Bytecode, OptLevel::O0), ast);
}

/// The happy path of the same loop: in-bounds fill at `--opt=3` agrees
/// with the oracle and still installs the template (i.e. the agreement
/// is exercising the bulk path, not a failed match).
#[test]
fn bulk_kernel_fill_agrees_in_bounds() {
    let src = r#"fn main() void {
    var a: f64 = @allocF(16);
    //$omp parallel num_threads(2) shared(a)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < 16) : (i += 1) { a[i] = 2.5; }
    }
    print(a[0], a[15]);
}"#;
    let vm = build(src, OptLevel::O3);
    assert!(vm
        .program
        .code
        .funcs
        .iter()
        .any(|f| !f.templates.is_empty()));
    let ast = run(src, Backend::Ast, OptLevel::O0);
    assert_eq!(run(src, Backend::Bytecode, OptLevel::O3), ast);
}

/// The strip/scalar verdict of every template `src` installs at
/// `--opt=3`, in remark order.
fn template_verdicts(src: &str) -> Vec<String> {
    zomp_vm::remarks::collect(src, "t.zag", OptLevel::O3)
        .unwrap_or_else(|e| panic!("{}", e.render(src)))
        .iter()
        .filter(|d| d.code == "template-installed")
        .map(|d| {
            d.message
                .rsplit_once("), ")
                .expect("verdict suffix")
                .1
                .to_string()
        })
        .collect()
}

/// A gathered-update tail's mid-strip bail, pinned on the IS bucket
/// count: the loop runs strip-mined; with every key in range it agrees
/// with the oracle, and with key 1000 at element 9 (past the last
/// bucket) it hands over at that lane and replays to the oracle's exact
/// error.
#[test]
fn histogram_template_bails_on_out_of_range_key() {
    const HIST: &str = r#"fn main() void {
    var keys: i64 = @allocI(16);
    var k: i64 = 0;
    while (k < 16) : (k += 1) { keys[k] = k; }
    keys[9] = KEY9;
    var sd: i64 = 4;
    var total: i64 = 0;
    //$omp parallel num_threads(1) shared(keys) firstprivate(sd) reduction(+: total)
    {
        var local: i64 = @allocI(4);
        var i: i64 = 0;
        //$omp while schedule(static) nowait
        while (i < 16) : (i += 1) {
            var b: i64 = keys[i] / sd;
            local[b] = local[b] + 1;
        }
        total += local[0] + 10 * local[1] + 100 * local[2] + 1000 * local[3];
    }
    print(total);
}"#;
    for (key9, in_range) in [("9", true), ("1000", false)] {
        let src = HIST.replace("KEY9", key9);
        assert!(
            template_verdicts(&src).contains(&"strip".to_string()),
            "expected the bucket count to run strip-mined: {:?}",
            template_verdicts(&src)
        );
        let ast = run(&src, Backend::Ast, OptLevel::O0);
        assert_eq!(ast.is_ok(), in_range, "{ast:?}");
        assert_eq!(run(&src, Backend::Bytecode, OptLevel::O3), ast);
        assert_eq!(run(&src, Backend::Bytecode, OptLevel::O0), ast);
    }
}

/// The scatter's twin: the cursor of one bucket runs past `buff2` in the
/// middle of a strip, so the tail hands over there and the replay raises
/// the oracle's error; with room for every key it agrees with the
/// oracle element for element.
#[test]
fn scatter_template_bails_when_a_cursor_leaves_its_array() {
    const SCATTER: &str = r#"fn main() void {
    var n: i64 = 200;
    var keys: i64 = @allocI(n);
    var buff2: i64 = @allocI(ROOM);
    var k: i64 = 0;
    while (k < n) : (k += 1) { keys[k] = (k * 37) % 64; }
    var sd: i64 = 16;
    //$omp parallel num_threads(1) shared(keys, buff2) firstprivate(n, sd)
    {
        var cursor: i64 = @allocI(4);
        var c: i64 = 0;
        while (c < 4) : (c += 1) { cursor[c] = c * 50; }
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < n) : (i += 1) {
            var key: i64 = keys[i];
            var b: i64 = key / sd;
            buff2[cursor[b]] = key;
            cursor[b] = cursor[b] + 1;
        }
    }
    var s: i64 = 0;
    k = 0;
    while (k < 200) : (k += 1) { s = s * 31 + buff2[k]; }
    print(s, buff2[0], buff2[199]);
}"#;
    // Bucket 3's keys land from 150 on: room for 170 elements stops the
    // scatter at its 21st key, with lanes of the strip on either side.
    for (room, fits) in [("200", true), ("170", false)] {
        let src = SCATTER.replace("ROOM", room);
        assert!(
            template_verdicts(&src).contains(&"strip".to_string()),
            "expected the scatter to run strip-mined: {:?}",
            template_verdicts(&src)
        );
        let ast = run(&src, Backend::Ast, OptLevel::O0);
        assert_eq!(ast.is_ok(), fits, "{ast:?}");
        assert_eq!(run(&src, Backend::Bytecode, OptLevel::O3), ast);
        assert_eq!(run(&src, Backend::Bytecode, OptLevel::O0), ast);
    }
}
