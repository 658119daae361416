//! `zomp-benchmark` — the one seeded benchmark of the whole Zag pipeline.
//!
//! ```text
//! zomp-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
//!     one run of one workload; the last line of stdout is the result JSON
//! zomp-benchmark --seed N [--trace]
//!     every workload in turn, each in a process of its own
//! zomp-benchmark --seed N --aa K
//!     2*K untraced runs of every workload, alternately set A and set B;
//!     fails if any end-to-end metric's medians differ by more than its bound
//! ```
//!
//! `--quick` swaps in tiny inputs (the crate's tests use it); `--describe`
//! prints the text of `BENCHMARK.json`. See README.md for the metrics.

mod calib;
mod layers;
mod metrics;
mod npb_native;
mod programs;
mod run;
mod runtime_fine;
mod serve_mix;
mod spans;
mod stats;
mod vm_generic;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use metrics::{END_TO_END, RUN_SECONDS, WORKLOADS};
use run::RunConfig;
use workload::Sizes;

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        aa: None,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS.iter().find(|(n, _)| *n == name);
                args.workload = Some(known.ok_or(format!("unknown workload `{name}`"))?.0);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--aa" => {
                args.aa = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--aa: {e}"))?,
                )
            }
            // `--trace 0|1` as the driver spells it, or bare `--trace`.
            "--trace" => {
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--quick" => args.quick = true,
            "--describe" => {
                print!("{}", metrics::benchmark_json());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if args.quick && !seconds_given {
        args.seconds = 1.0;
    }
    Ok(args)
}

/// `<target dir>/benchmark`, next to the build that is running.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let profile_dir = exe.parent().expect("executable has a directory");
    profile_dir
        .parent()
        .unwrap_or(profile_dir)
        .join("benchmark")
}

/// Run one workload in a child process (so `peak_rss_mb` is its own),
/// pass its report through, and return its result line if it exited 0
/// with `correct: true`.
fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Option<zagd::Json> {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().expect("start the workload process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        return None;
    }
    let json = zagd::Json::parse(stdout.lines().last()?).ok()?;
    json.get("correct")?.as_bool()?.then_some(json)
}

/// Every workload once; fails if any run failed.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        ok &= run_child(args, workload, args.seed, args.trace).is_some();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The A/A self-check: identical code measured as two alternating sets
/// must agree within the bounds the benchmark holds later changes to.
fn run_aa(args: &Args, k: usize) -> ExitCode {
    // values[workload][metric][set] = that set's runs
    let mut values = vec![vec![[Vec::new(), Vec::new()]; END_TO_END.len()]; WORKLOADS.len()];
    for i in 0..2 * k {
        for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
            let Some(run) = run_child(args, workload, args.seed + i as u64, false) else {
                eprintln!("--aa: a run of {workload} failed");
                return ExitCode::FAILURE;
            };
            for (m, metric) in END_TO_END.iter().enumerate() {
                let value = run
                    .get("metrics")
                    .and_then(|ms| ms.get(metric.name)?.get("value")?.as_f64())
                    .expect("an untraced run reports every end-to-end metric");
                values[w][m][i % 2].push(value);
            }
        }
    }
    println!(
        "\nA/A: {k} runs per set, sets alternating, seeds {}..",
        args.seed
    );
    println!(
        "  {:<13} {:<13} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "A median", "B median", "gap", "bound"
    );
    let mut ok = true;
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let [a, b] = &values[w][m];
            let (a, b) = (stats::median(a), stats::median(b));
            let gap = (a - b).abs() / a.min(b);
            let verdict = if gap <= metric.bound { "" } else { "  EXCEEDS" };
            ok &= gap <= metric.bound;
            println!(
                "  {workload:<13} {:<13} {a:>12.4} {b:>12.4} {:>7.2}% {:>6.0}%{verdict}",
                metric.name,
                gap * 100.0,
                metric.bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zomp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.aa {
        return run_aa(&args, k);
    }
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let out = run::run(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: if args.quick {
            &Sizes::QUICK
        } else {
            &Sizes::FULL
        },
        out_dir: out_dir(),
    });
    print!("{}", out.text);
    println!("{}", out.report.json_line());
    ExitCode::SUCCESS
}
