//! Corner cases of the static type-inference pass ([`zomp_vm::typeck`])
//! and the native bulk-kernel tier ([`zomp_vm::kernels`]).
//!
//! The differential suite proves whole-program agreement; these tests pin
//! the *mechanism*: which instructions the specializer rewrites statically,
//! which slots it must leave `Dynamic` (so their sites stay generic),
//! and that a bulk kernel's mid-loop bail reproduces the interpreter's
//! exact error.

use zomp_vm::bytecode::disasm_fn;
use zomp_vm::compile::{compile_image, PassData, PASSES};
use zomp_vm::typeck::{infer_image, Ty};
use zomp_vm::{Backend, OptLevel, Vm};

fn build(src: &str, opt: OptLevel) -> Vm {
    Vm::build(src, None, Backend::Bytecode, opt).unwrap_or_else(|e| panic!("{}", e.render(src)))
}

/// The image as the specializer leaves it — lowered, then run through
/// [`PASSES`] up to and including `typeck` — before the kernel tier
/// replaces loop heads with `bulkloop` / `templateloop`.
fn specialized(src: &str) -> zomp_vm::bytecode::Image {
    let pre = zomp_front::preprocess(src).expect("preprocess");
    let mut image = compile_image(&zomp_front::parse(&pre).expect("parse"));
    let mut data = PassData::default();
    let typeck = PASSES.iter().position(|p| p.name == "typeck").unwrap();
    for pass in &PASSES[..=typeck] {
        (pass.run)(&mut image, &mut data);
    }
    image
}

fn run(src: &str, backend: Backend, opt: OptLevel) -> Result<Vec<String>, String> {
    let vm = Vm::build(src, None, backend, opt).unwrap_or_else(|e| panic!("{}", e.render(src)));
    match vm.call_function("main", Vec::new()) {
        Ok(_) => Ok(vm.output.into_inner()),
        Err(e) => Err(e.to_string()),
    }
}

/// A monomorphic integer loop specializes *statically*: the compiled
/// image already holds `cjfii`/`addii` before the first instruction runs.
#[test]
fn int_loop_specializes_before_execution() {
    let src = r#"fn main() void {
    var s: i64 = 0;
    var i: i64 = 0;
    while (i < 10) : (i += 1) { s = s + i; }
    print(s);
}"#;
    let dis = disasm_fn(specialized(src).get("main").unwrap());
    assert!(
        dis.contains("cjfii"),
        "loop compare not specialized:\n{dis}"
    );
    assert!(dis.contains("addii"), "int add not specialized:\n{dis}");
}

/// A slot reassigned from Int to Float joins to `Dynamic`: the add on it
/// must stay generic, and the program must keep matching the oracle
/// through the type flip.
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
        "the Int/Float-flipping add must stay generic:\n{dis}"
    );
    assert!(
        !dis.contains("addii") && !dis.contains("addff"),
        "a Dynamic slot must not be statically specialized:\n{dis}"
    );
    let ast = run(src, Backend::Ast, OptLevel::O0);
    assert_eq!(
        run(src, Backend::Bytecode, OptLevel::O3),
        ast,
        "type flip diverged at --opt=3"
    );
}

/// `&x` boxes the local: inference types its register as a cell pointer
/// at every block boundary after the `newcell` (the pointee-typed
/// `ptr.i64` when the seed is provably Int, the generic `*any`
/// otherwise).
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
    let &(xreg, _, addr_taken) = f
        .locals
        .iter()
        .find(|(_, name, _)| name == "x")
        .expect("local x");
    assert!(addr_taken, "local `x` should be flagged address-taken");
    let idx = vm.program.code.by_name["main"];
    let types = infer_image(&vm.program.code);
    let saw_ptr = types.fns[idx]
        .entry
        .iter()
        .flatten()
        .any(|env| matches!(env[xreg as usize], Ty::Ptr | Ty::PtrI | Ty::PtrF));
    assert!(
        saw_ptr,
        "boxed local never inferred as Ptr at a block entry"
    );
}

/// An array allocated inside a `parallel` body keeps a stable element
/// type across the whole outlined function: its index/index-set sites
/// specialize statically to the `F` forms inside `__omp_outlined_0`.
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
    let dis = disasm_fn(specialized(src).get("__omp_outlined_0").unwrap());
    assert!(
        dis.contains("indexsetf"),
        "array store not specialized in outlined fn:\n{dis}"
    );
    assert!(
        dis.contains("indexf"),
        "array load not specialized in outlined fn:\n{dis}"
    );
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

/// A fixed kernel's mid-loop bail, pinned on a non-LCG shape: the IS
/// bucket-count loop installs `histogram`; with every key in range it
/// agrees with the oracle, and with one key past the last bucket it
/// bails at that element and replays to the oracle's exact error.
#[test]
fn histogram_kernel_bails_on_out_of_range_key() {
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
        let vm = build(&src, OptLevel::O3);
        assert!(
            vm.program
                .code
                .funcs
                .iter()
                .flat_map(|f| &f.kernels)
                .any(|k| k.kind.name() == "histogram"),
            "expected the histogram kernel to install"
        );
        let ast = run(&src, Backend::Ast, OptLevel::O0);
        assert_eq!(ast.is_ok(), in_range, "{ast:?}");
        assert_eq!(run(&src, Backend::Bytecode, OptLevel::O3), ast);
        assert_eq!(run(&src, Backend::Bytecode, OptLevel::O0), ast);
    }
}
