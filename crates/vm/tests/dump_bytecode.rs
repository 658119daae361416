//! Golden-file test for the bytecode disassembly of a small loop program,
//! at both optimization levels.
//!
//! Codegen changes (new fusion rules, different register assignment,
//! constant-pool ordering) show up as a readable diff against
//! `tests/golden/loop.disasm` (the raw `--opt=0` stream),
//! `tests/golden/loop.opt3.disasm` (the `--dump-bytecode` pre/post
//! view, so fusion regressions are visible as instruction-level diffs),
//! `tests/golden/loop.ir` (the `--dump-ir` typed block view, so
//! inference regressions show up as type-annotation diffs),
//! `tests/golden/chunk_heads.disasm` (the fused chunk-claim head of both
//! worksharing loop shapes), and `tests/golden/inline_{step,weigh}.disasm`
//! (a worksharing loop before and after its helper is inlined).
//! To accept a new golden output:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p zomp-vm --test dump_bytecode
//! ```

use zomp_vm::bytecode::{disasm, disasm_stages};
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

fn check(opt: OptLevel, golden: &str) {
    let program = zomp_vm::compile_opt(PROGRAM, Some("golden.zag"), opt).expect("compile");
    // O0 keeps the historical single-stage golden; the optimized level
    // uses the pre/post `--dump-bytecode` rendering.
    let got = if opt == OptLevel::O0 {
        disasm(&program.code)
    } else {
        disasm_stages(&program.code)
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

/// The `--dump-ir` surface: blocks, predecessors/successors, and the
/// inferred per-block entry types for the same loop program at `--opt=3`.
#[test]
fn loop_program_ir_dump_matches_golden() {
    let program = zomp_vm::compile_opt(PROGRAM, Some("golden.zag"), OptLevel::O3).expect("compile");
    assert_golden(&zomp_vm::ir::dump(&program.code), "loop.ir");
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
    for listing in disasm_stages(&program.code).split("\n\n") {
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

/// `step` leaves no `call` in the loop, and the `[pre-opt]` listing still
/// shows the one that was there.
#[test]
fn inlined_step_loop_matches_golden() {
    let (golden, optimized) = outlined_stages(STEP_PROGRAM);
    assert!(golden.contains("[pre-opt]") && has_call(&golden));
    assert!(!has_call(&optimized), "{optimized}");
    assert!(
        !optimized.contains("templateloop"),
        "branches stay: {optimized}"
    );
    assert_golden(&golden, "inline_step.disasm");
}

/// `weigh` leaves a straight-line loop: a template whose `ws_begin`
/// claims owner batches.
#[test]
fn inlined_weigh_loop_matches_golden() {
    let (golden, optimized) = outlined_stages(WEIGH_PROGRAM);
    assert!(has_call(&golden) && !has_call(&optimized), "{golden}");
    assert!(
        optimized.contains("omp.internal.ws_begin_bulk,") && optimized.contains("templateloop")
    );
    assert_golden(&golden, "inline_weigh.disasm");
}
