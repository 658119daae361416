//! `zag --check` / `--check=deny` and the exit status of a failed run,
//! end-to-end through the real binary.

use std::path::Path;
use std::process::{Command, Output};

fn zag(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zag"))
        .args(args)
        .output()
        .expect("zag runs")
}

fn repo(rel: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
        .display()
        .to_string()
}

#[test]
fn check_on_clean_example_exits_zero_and_reports_clean() {
    let path = repo("examples/zag/pi.zag");
    let out = zag(&["--check", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("check clean"), "stderr: {stderr}");
}

#[test]
fn check_reports_findings_but_exits_zero() {
    let path = repo("crates/integration/fixtures/racy/race-shared-write.zag");
    let out = zag(&["--check", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("race-shared-write"), "stderr: {stderr}");
    assert!(stderr.contains("pragma at"), "stderr: {stderr}");
}

#[test]
fn check_deny_refuses_racy_input() {
    let path = repo("crates/integration/fixtures/racy/race-shared-write.zag");
    let out = zag(&["--check=deny", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("race-shared-write"), "stderr: {stderr}");
    assert!(stderr.contains("refusing to compile"), "stderr: {stderr}");
}

#[test]
fn check_deny_passes_clean_input() {
    let path = repo("crates/integration/fixtures/clean/reduction-pi.zag");
    let out = zag(&["--check=deny", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("check clean"), "stderr: {stderr}");
}

#[test]
fn default_run_prints_lint_warnings_but_still_executes() {
    let path = repo("crates/integration/fixtures/racy/clause-conflict.zag");
    let out = zag(&[&path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The clause conflict is a warning, not an error: the program runs.
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("clause-conflict"), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains('0'), "stdout: {stdout}");
}

#[test]
fn front_end_errors_render_through_the_same_formatter() {
    let dir = std::env::temp_dir().join("zag_check_cli_bad.zag");
    std::fs::write(&dir, "fn main() void {\n    var x i64 = 0;\n}\n").unwrap();
    let out = zag(&[dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    // `zag: <path>:<line>:<col>: <message>` — the unified Diag rendering.
    assert!(stderr.contains("zag: "), "stderr: {stderr}");
    assert!(stderr.contains(":2:"), "stderr: {stderr}");
}

/// Unbounded recursion ends `zag` with a `runtime error:` line and exit
/// code 1 on every backend — not with the process aborting on a native
/// stack overflow (the program runs on a thread sized for the call-depth
/// limit, whatever `ulimit -s` gives the main thread).
#[test]
fn runaway_recursion_is_a_runtime_error_and_exit_code_1() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("down.zag");
    std::fs::write(
        &path,
        "fn down(k: i64) i64 { if (k == 0) { return 0; } return 1 + down(k - 1); }
fn main() void { print(down(100000)); }
",
    )
    .expect("write the program");
    for backend in ["ast", "bytecode", "native"] {
        let out = zag(&["--backend", backend, path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{backend}: {stderr}");
        assert!(
            stderr.contains("zag: runtime error: stack overflow"),
            "{backend}: {stderr}"
        );
    }
}
