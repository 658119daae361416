//! The benchmark driven the way the driver drives it, on `--quick` inputs:
//! every workload, untraced and traced, through the real binary.

use std::process::Command;

use zagd::Json;

const WORKLOADS: [&str; 4] = ["npb_native", "vm_generic", "runtime_fine", "serve_mix"];

/// Run the binary; return its stdout (it must exit 0).
fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_zomp-benchmark"))
        .args(args)
        .output()
        .expect("start zomp-benchmark");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The last line, parsed, after checking the keys the contract fixes.
fn result_line(stdout: &str) -> Json {
    let json = Json::parse(stdout.lines().last().expect("some output")).expect("result JSON");
    let Json::Obj(map) = &json else {
        panic!("result is not an object")
    };
    let mut keys: Vec<&str> = map.keys().map(String::as_str).collect();
    keys.sort_unstable();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        json.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(json.get("failed").and_then(Json::as_i64), Some(0));
    assert!(
        json.get("attempted")
            .and_then(Json::as_i64)
            .expect("attempted")
            >= 4
    );
    json
}

fn value(metrics: &Json, name: &str) -> f64 {
    let entry = metrics.get(name).unwrap_or_else(|| panic!("metric {name}"));
    assert!(entry.get("unit").and_then(Json::as_str).is_some());
    entry.get("value").and_then(Json::as_f64).expect("value")
}

#[test]
fn untraced_quick_run_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let stdout = bench(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--trace",
            "0",
            "--quick",
        ]);
        assert!(stdout.contains("mechanism"), "{stdout}");
        assert!(!stdout.contains("MOVED OFF"), "{stdout}");
        let json = result_line(&stdout);
        let metrics = json.get("metrics").expect("metrics");
        let Json::Obj(map) = metrics else {
            panic!("metrics is not an object")
        };
        assert_eq!(map.len(), 3, "{workload}");
        for name in ["setup_s", "op_ms_p50_t1", "peak_rss_mb"] {
            assert!(value(metrics, name) > 0.0, "{workload} {name}");
        }
    }
}

#[test]
fn traced_quick_run_reports_every_per_layer_metric_and_writes_its_files() {
    for workload in WORKLOADS {
        let stdout = bench(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.4",
            "--trace",
            "1",
            "--quick",
        ]);
        let json = result_line(&stdout);
        let metrics = json.get("metrics").expect("metrics");
        // What every workload has, whatever its kinds.
        for name in [
            "front.parse_ms",
            "vm.compile.total_ms",
            "vm.compile.insns_o0",
            "zomp.fork_join_us_t2",
            "zomp.regions",
            "op_ms_p50_t2",
            "trace.spans",
        ] {
            assert!(value(metrics, name) > 0.0, "{workload} {name}");
        }
        let closure = value(metrics, "vm.compile.closure_frac");
        assert!(
            (0.5..1.5).contains(&closure),
            "{workload} closure {closure}"
        );
        match workload {
            "npb_native" => {
                assert!(value(metrics, "vm.exec.cg.op_ms_p50_t1") > 0.0);
                assert!(value(metrics, "npb.is.ref_ms_p50_t1") > 0.0);
                assert!(value(metrics, "vm.install.kernels") >= 3.0);
                assert_eq!(value(metrics, "zagd.req_per_s"), 0.0);
            }
            "vm_generic" => {
                assert!(value(metrics, "vm.exec.dyn.op_ms_p50_t2") > 0.0);
                assert_eq!(value(metrics, "vm.install.kernels"), 0.0);
                assert!(value(metrics, "vm.install.templates") >= 1.0);
                assert!(value(metrics, "vm.deopts") > 0.0);
            }
            "runtime_fine" => {
                assert!(value(metrics, "vm.exec.chunk1.ns_per_elem_t1") > 0.0);
                assert!(value(metrics, "zomp.chunks_owned") > 100.0);
            }
            _ => {
                assert!(value(metrics, "zagd.req.miss_ms_p50") > 0.0);
                assert!(value(metrics, "zagd.execute.miss_ms") > 0.0);
                assert!(value(metrics, "zagd.cache.hit_frac") > 0.0);
                assert_eq!(value(metrics, "vm.exec.cg.op_ms_p50_t1"), 0.0);
            }
        }
        let wrote = stdout
            .lines()
            .find(|l| l.starts_with("wrote "))
            .expect("the run names the files it wrote");
        for path in wrote["wrote ".len()..].split(" and ") {
            let text = std::fs::read_to_string(path).expect(path);
            assert!(!text.is_empty(), "{path}");
        }
    }
}

#[test]
fn a_bad_argument_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_zomp-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .expect("start zomp-benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
