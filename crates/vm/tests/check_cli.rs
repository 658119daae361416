//! `zag --check` / `--check=deny`, the exit status of a failed run and
//! the JSON outputs, end-to-end through the real binary.

use std::path::Path;
use std::process::{Command, Output};

use zomp::json::Json;

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

/// The JSON outputs end to end through the binary: `--trace`, `--metrics`
/// and `--profile=json` on one run of the tour, `--remarks=json` and
/// `--time-passes=json` on two more. Every written file and the last
/// stdout line parse, and the trace holds the `schedule(dynamic, 8)`
/// loop's span, labelled `tour.zag:<line>`, and its chunks.
#[test]
fn json_outputs_parse_end_to_end() {
    let tour = repo("examples/zag/tour.zag");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let trace = dir.join("tour.trace.json").display().to_string();
    let metrics = dir.join("tour.metrics.json").display().to_string();
    let last_line = |out: Output| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "stderr: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        Json::parse(last).unwrap_or_else(|e| panic!("{e}: {stdout}"))
    };
    let written = |path: &str| {
        let text = std::fs::read_to_string(path).expect("zag wrote the file");
        Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    };

    let profile = last_line(zag(&[
        "--trace",
        &trace,
        "--metrics",
        &metrics,
        "--profile=json",
        &tour,
    ]));
    assert!(
        profile.get("tiers").and_then(Json::as_arr).is_some(),
        "{profile:?}"
    );
    assert!(written(&metrics).get("chunks_owned").is_some());
    let doc = written(&trace);
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let field = |e: &Json, key: &str| {
        e.get(key)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    assert!(
        events.iter().any(|e| field(e, "cat") == "loop"
            && field(e, "name")
                .rsplit_once(':')
                .is_some_and(
                    |(unit, line)| unit.ends_with("tour.zag") && line.parse::<u32>().is_ok()
                )),
        "no loop span labelled tour.zag:<line>"
    );
    assert!(
        events
            .iter()
            .any(|e| field(e, "cat").starts_with("chunk (")),
        "no chunk span"
    );

    let remarks = last_line(zag(&["--remarks=json", &tour]));
    assert!(remarks.as_arr().is_some(), "{remarks:?}");

    // One row per step: lowering, then the three passes, each with the
    // image's instruction count after it.
    let times = last_line(zag(&["--time-passes=json", &tour]));
    let passes = times.get("passes").and_then(Json::as_arr).expect("passes");
    let names: Vec<&str> = (passes.iter())
        .map(|p| p.get("name").and_then(Json::as_str).unwrap_or_default())
        .collect();
    assert_eq!(names, ["lowering", "inline", "optimize", "install"]);
    assert!(passes.iter().all(
        |p| p.get("insns").and_then(Json::as_i64).is_some_and(|n| n > 0)
            && p.get("wall_us").and_then(Json::as_f64).is_some()
    ));
    assert!(times.get("verify_us").and_then(Json::as_f64).is_some());
    assert!(times.get("total_us").and_then(Json::as_f64).is_some());
}
