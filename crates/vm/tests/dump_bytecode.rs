//! Golden-file test for the bytecode disassembly of a small loop program,
//! at both optimization levels.
//!
//! Codegen changes (new fusion rules, different register assignment,
//! constant-pool ordering) show up as a readable diff against
//! `tests/golden/loop.disasm` (the raw `--opt=0` stream),
//! `tests/golden/loop.opt3.disasm` (the `--dump-bytecode` pre/post
//! view, so fusion regressions are visible as instruction-level diffs),
//! `tests/golden/chunk_heads.disasm` (the fused chunk-claim head of both
//! worksharing loop shapes), and `tests/golden/inline_{step,weigh}.disasm`
//! (a worksharing loop before and after its helper is inlined).
//! To accept a new golden output:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p zomp-vm --test dump_bytecode
//! ```

use zomp_vm::bytecode::{disasm, disasm_stages};
use zomp_vm::compile::compile_image;
use zomp_vm::OptLevel;

const PROGRAM: &str = r#"fn main() void {
    var total: i64 = 0;
    //$omp parallel num_threads(2) reduction(+: total)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < 1000) : (i += 1) {
            total += 1;
        }
    }
    print(total);
}
"#;

/// Compare `got` against `tests/golden/<golden>` (or rewrite the file
/// under `UPDATE_GOLDEN=1`).
fn assert_golden(got: &str, golden: &str) {
    let path = format!("{}/tests/golden/{golden}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "dump drifted from tests/golden/{golden}; \
         review the diff and re-bless with UPDATE_GOLDEN=1 if intended"
    );
}

/// `zag --dump-bytecode`'s listing of `program`: its image next to the
/// same program lowered again.
fn stages(program: &zomp_vm::Program) -> String {
    disasm_stages(&compile_image(&program.ast), &program.code)
}

fn check(opt: OptLevel, golden: &str) {
    let program = zomp_vm::compile_opt(PROGRAM, Some("golden.zag"), opt).expect("compile");
    // O0 keeps the historical single-stage golden; the optimized level
    // uses the pre/post `--dump-bytecode` rendering.
    let got = if opt == OptLevel::O0 {
        disasm(&program.code)
    } else {
        stages(&program)
    };
    assert_golden(&got, golden);
}

#[test]
fn loop_program_disassembly_matches_golden() {
    check(OptLevel::O0, "loop.disasm");
}

#[test]
fn loop_program_opt3_disassembly_matches_golden() {
    check(OptLevel::O3, "loop.opt3.disasm");
}

/// Both chunk-pull loops the preprocessor emits: the plain form assigns
/// the user's induction variable, the `collapse(2)` form declares the
/// flattened index.
const CHUNK_PROGRAM: &str = r#"fn main() void {
    var hits: i64 = @allocI(64);
    //$omp parallel num_threads(2) shared(hits)
    {
        var i: i64 = 0;
        //$omp while schedule(dynamic, 1) nowait
        while (i < 32) : (i += 1) {
            hits[i] = 1;
        }
        var a: i64 = 0;
        //$omp while schedule(guided) collapse(2)
        while (a < 4) : (a += 1) {
            var b: i64 = 0;
            while (b < 8) : (b += 1) {
                hits[32 + a * 8 + b] = 1;
            }
        }
    }
    print(hits[0], hits[63]);
}
"#;

/// The head of each chunk-pull loop — its `ws_begin` call, the fused
/// `wsnext` claim and the instruction the claim falls through to — so an
/// unfused `ws_next`/`ws_lb`/`ws_ub` triple shows as a golden diff, at
/// both optimization levels.
#[test]
fn chunk_loop_heads_match_golden() {
    let mut got = String::new();
    for opt in [OptLevel::O0, OptLevel::O3] {
        let program = zomp_vm::compile_opt(CHUNK_PROGRAM, None, opt).expect("compile");
        let text = disasm(&program.code);
        assert!(
            !text.contains("ws_next") && !text.contains("ws_lb") && !text.contains("ws_ub"),
            "unfused chunk-pull call at --opt={opt}:\n{text}"
        );
        got.push_str(&format!("--opt={opt}\n"));
        let mut after_claim = false;
        for line in text.lines() {
            if after_claim || line.contains("ws_begin") || line.contains("wsnext") {
                got.push_str(line);
                got.push('\n');
            }
            after_claim = line.contains("wsnext");
        }
    }
    assert_golden(&got, "chunk_heads.disasm");
}

/// The benchmark's two helper shapes in a worksharing loop: `step` (three
/// `return`s, so the inlined body keeps its branches and the loop stays
/// interpreted) and `weigh` (one expression, so the loop is straight-line
/// once it is inlined).
const STEP_PROGRAM: &str = r#"fn step(k: i64, lim: i64) i64 {
    if (k % 3 == 0) {
        return k / 3 + lim;
    }
    if (k % 5 == 0) {
        return k * 2 - lim;
    }
    return k + 1;
}
fn main() void {
    var x: []i64 = @allocI(64);
    var total: i64 = 0;
    //$omp parallel num_threads(2) shared(x) reduction(+: total)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < 64) : (i += 1) {
            total = total + step(x[i], 7);
        }
    }
    print(total);
}
"#;

const WEIGH_PROGRAM: &str = r#"fn weigh(v: i64) i64 {
    return v % 13 + 1;
}
fn main() void {
    var x: []i64 = @allocI(64);
    var sum: i64 = 0;
    //$omp parallel num_threads(2) shared(x) reduction(+: sum)
    {
        var i: i64 = 0;
        //$omp while schedule(dynamic, 1)
        while (i < 64) : (i += 1) {
            sum = sum + weigh(x[i]);
        }
    }
    print(sum);
}
"#;

/// The outlined region of `src` at `--opt=3`: the golden text — its
/// `[pre-opt]` listing (the stream as lowered, call and all) and its
/// `[optimized]` one (the merged stream) — and the `[optimized]` listing
/// alone.
fn outlined_stages(src: &str) -> (String, String) {
    let program = zomp_vm::compile_opt(src, None, OptLevel::O3).expect("compile");
    let mut golden = "--opt=3\n".to_string();
    let mut optimized = String::new();
    for listing in stages(&program).split("\n\n") {
        if listing.starts_with("fn __omp_outlined_0") {
            golden.push_str(listing);
            golden.push_str("\n\n");
        }
        if listing.starts_with("fn __omp_outlined_0 [optimized]") {
            optimized = listing.to_string();
        }
    }
    (golden, optimized)
}

/// Whether a listing holds a direct `call` instruction.
fn has_call(listing: &str) -> bool {
    listing
        .lines()
        .any(|l| l.split_whitespace().nth(1) == Some("call"))
}

/// The opcodes of a listing's loop body, from the target of its first
/// `inccmpj` through that back-edge.
fn loop_body(listing: &str) -> Vec<String> {
    let rows: Vec<Vec<&str>> = (listing.lines())
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|w| w.len() > 1 && w[0].parse::<usize>().is_ok())
        .collect();
    let back = (rows.iter())
        .find(|w| w[1] == "inccmpj")
        .expect("an inccmpj");
    let (head, tail): (usize, usize) = (
        back.last().unwrap().parse().unwrap(),
        back[0].parse().unwrap(),
    );
    (rows.iter())
        .filter(|w| (head..=tail).contains(&w[0].parse().unwrap()))
        .map(|w| w[1].to_string())
        .collect()
}

/// `step` leaves no `call` in the loop, and the `[pre-opt]` listing still
/// shows the one that was there. The loop stays interpreted, and neither
/// reloads a literal nor copies a register: the helper's literals live in
/// constant registers and its argument and `return` copies are coalesced.
#[test]
fn inlined_step_loop_matches_golden() {
    let (golden, optimized) = outlined_stages(STEP_PROGRAM);
    assert!(golden.contains("[pre-opt]") && has_call(&golden));
    assert!(!has_call(&optimized), "{optimized}");
    assert!(
        !optimized.contains("templateloop"),
        "branches stay: {optimized}"
    );
    let body = loop_body(&optimized);
    assert!(
        !body.iter().any(|op| op == "const" || op == "move"),
        "{body:?} in {optimized}"
    );
    assert_golden(&golden, "inline_step.disasm");
}

/// `weigh` leaves a straight-line loop: a template.
#[test]
fn inlined_weigh_loop_matches_golden() {
    let (golden, optimized) = outlined_stages(WEIGH_PROGRAM);
    assert!(has_call(&golden) && !has_call(&optimized), "{golden}");
    assert!(optimized.contains("omp.internal.ws_begin,") && optimized.contains("templateloop"));
    assert_golden(&golden, "inline_weigh.disasm");
}

/// Arms ending in a terminator, each followed by an `else`: `find`'s
/// `return` arm ends where nothing lands, so no `jump` over its `else`
/// follows it; `nested`'s outer arm ends in `return` too, but its inner
/// `if` falls through to that end, so the jump stays; `skip`'s `break`
/// arm, like `return`, gets none.
const RETURN_ARMS: &str = r#"fn find(a: []i64, n: i64, v: i64) i64 {
    var i: i64 = 0;
    while (i < n) : (i += 1) {
        if (a[i] == v) {
            return i;
        } else {
            a[i] = a[i] + 1;
        }
    }
    return -1;
}
fn nested(c: i64, d: i64) i64 {
    var r: i64 = 0;
    if (c > 0) {
        if (d > 0) {
            return 1;
        }
    } else {
        r = 2;
    }
    return r + 10;
}
fn skip(n: i64) i64 {
    var s: i64 = 0;
    var i: i64 = 0;
    while (i < n) {
        if (i == 5) {
            break;
        } else {
            s = s + i;
        }
        i += 1;
    }
    return s;
}
fn main() void {
    var a: []i64 = @allocI(8);
    a[5] = 3;
    print(find(a, 8, 3), find(a, 8, 9), nested(1, 1), nested(1, 0), nested(0, 0), skip(9));
}
"#;

/// The `--opt=0` stream of [`RETURN_ARMS`] has exactly the jumps its arms
/// need, and it runs as the tree-walker and `--opt=3` do.
#[test]
fn no_jump_follows_an_arm_that_cannot_fall_through() {
    let program = zomp_vm::compile_opt(RETURN_ARMS, None, OptLevel::O0).expect("compile");
    let listing = disasm(&program.code);
    let ops_of = |func: &str| -> Vec<String> {
        let body = (listing.split("\n\n"))
            .find(|l| l.starts_with(&format!("fn {func} ")))
            .unwrap_or_else(|| panic!("no `{func}` in {listing}"));
        (body.lines())
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .filter(|w| w.len() > 1 && w[0].parse::<usize>().is_ok())
            .map(|w| w[1].to_string())
            .collect()
    };
    let after = |ops: &[String], first: &str| ops.windows(2).any(|w| w == [first, "jump"]);
    assert!(!after(&ops_of("find"), "ret"), "{listing}");
    assert!(after(&ops_of("nested"), "ret"), "{listing}");
    assert!(!after(&ops_of("skip"), "jump"), "{listing}");
    use zomp_vm::{Backend, Vm};
    for (backend, opt) in [
        (Backend::Ast, OptLevel::O0),
        (Backend::Bytecode, OptLevel::O0),
        (Backend::Bytecode, OptLevel::O3),
    ] {
        let vm = Vm::build(RETURN_ARMS, None, backend, opt).expect("build");
        vm.call_function("main", Vec::new()).expect("main runs");
        let out = vm.output.into_inner();
        assert_eq!(out, ["5 -1 1 10 12 10"], "{backend:?} at --opt={opt}");
    }
}
