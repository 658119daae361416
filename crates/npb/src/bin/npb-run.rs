//! `npb-run` — NPB-style benchmark driver.
//!
//! ```text
//! npb-run cg S              # serial CG, class S, NPB-style report
//! npb-run ep A --threads 4  # parallel EP, class A, 4 threads
//! npb-run is W --threads 2 --serial-check
//! npb-run cg A --threads 4 --trace trace.json   # chrome://tracing events
//! npb-run ep A --threads 4 --metrics m.json     # aggregated counters
//! npb-run cg A --threads 4 --safety production  # unchecked shared slices
//! ```
//!
//! Prints a report shaped like the reference implementations': class,
//! size, iteration count, time, Mop/s, verification status.

use std::time::Instant;

use npb::class::{CgParams, Class, EpParams, IsParams};
use npb::verify::VerifyStatus;
use zomp::safety::{set_safety_mode, SafetyMode};
use zomp::ExecConfig;

struct Args {
    kernel: String,
    class: Class,
    threads: Option<usize>,
    serial_check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: npb-run <cg|ep|is> <S|W|A|B|C> [--threads N] [--serial-check]\n\
         \t\t[--safety debug|production|paranoid] [--trace FILE] [--metrics FILE]\n\
         \n\
         --threads N      run the zomp-parallel implementation on N threads\n\
         --serial-check   also run serially and cross-check the results\n\
         --safety MODE    bounds checks on shared slices (default debug)\n\
         --trace FILE     write a chrome://tracing JSON event file\n\
         --metrics FILE   write aggregated runtime counters as JSON"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    // The shared execution flags (`--threads`, `--trace`, `--metrics`,
    // `--schedule`) come from the `ExecConfig` builder; the kernel/class
    // positionals, `--serial-check` and `--safety` stay local.
    let mut cfg = ExecConfig::new();
    let mut kernel = None;
    let mut class = None;
    let mut serial_check = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match cfg.parse_flag(&a, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("npb-run: {e}");
                usage();
            }
        }
        match a.as_str() {
            "--serial-check" => serial_check = true,
            "--safety" => set_safety_mode(match it.next().as_deref() {
                Some("debug") => SafetyMode::Debug,
                Some("production") => SafetyMode::Production,
                Some("paranoid") => SafetyMode::Paranoid,
                _ => usage(),
            }),
            "--help" | "-h" => usage(),
            other if kernel.is_none() => kernel = Some(other.to_ascii_lowercase()),
            other if class.is_none() => {
                class = Class::parse(other).map(Some).unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    cfg.apply_global();
    Args {
        kernel: kernel.unwrap_or_else(|| usage()),
        class: class.unwrap_or_else(|| usage()),
        threads: cfg.threads,
        serial_check,
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the NPB c_print_results signature
fn report(
    name: &str,
    class: Class,
    size: String,
    niter: usize,
    secs: f64,
    mops: f64,
    threads: usize,
    status: VerifyStatus,
) {
    println!("\n NAS Parallel Benchmarks (zomp Rust reproduction) - {name} Benchmark\n");
    println!(" Class           = {class}");
    println!(" Size            = {size}");
    println!(" Iterations      = {niter}");
    println!(" Threads         = {threads}");
    println!(" Time in seconds = {secs:.2}");
    println!(" Mop/s total     = {mops:.2}");
    println!(" Verification    = {status}");
}

fn run_cg(class: Class, threads: Option<usize>, serial_check: bool) {
    use npb::cg::{makea::makea, run_with_matrix, Mode};
    let params = CgParams::for_class(class);
    eprintln!("generating matrix ({} rows)...", params.na);
    let mat = makea(&params);
    let mode = threads.map(Mode::Parallel).unwrap_or(Mode::Serial);
    let t0 = Instant::now();
    let result = run_with_matrix(&params, &mat, mode);
    let secs = t0.elapsed().as_secs_f64();
    // NPB CG Mop count: per the reference, ~ niter*(2*nnz*(25+1) + vector ops).
    let flops =
        params.niter as f64 * (2.0 * mat.nnz() as f64 * 26.0 + 12.0 * params.na as f64 * 25.0);
    let status = result.verify(&params);
    if serial_check && mode != Mode::Serial {
        let s = run_with_matrix(&params, &mat, Mode::Serial);
        assert!(
            (s.zeta - result.zeta).abs() < 1e-10,
            "serial cross-check failed: {} vs {}",
            s.zeta,
            result.zeta
        );
        eprintln!("serial cross-check passed");
    }
    report(
        "CG",
        class,
        format!("{}", params.na),
        params.niter,
        secs,
        flops / secs / 1e6,
        threads.unwrap_or(1),
        status,
    );
    println!(" zeta            = {:.13}", result.zeta);
}

fn run_ep(class: Class, threads: Option<usize>, serial_check: bool) {
    use npb::ep::{run_parallel, run_serial};
    let params = EpParams::for_class(class);
    let t0 = Instant::now();
    let result = match threads {
        Some(t) => run_parallel(&params, t),
        None => run_serial(&params),
    };
    let secs = t0.elapsed().as_secs_f64();
    let status = result.verify(&params);
    if serial_check && threads.is_some() {
        let s = run_serial(&params);
        assert_eq!(s.q, result.q, "serial cross-check failed");
        eprintln!("serial cross-check passed");
    }
    report(
        "EP",
        class,
        format!("2^{}", params.m),
        1,
        secs,
        params.pairs() as f64 / secs / 1e6, // Mop = random pairs/s, as ep.f reports
        threads.unwrap_or(1),
        status,
    );
    println!(" sx              = {:.10e}", result.sx);
    println!(" sy              = {:.10e}", result.sy);
}

fn run_is(class: Class, threads: Option<usize>, serial_check: bool) {
    use npb::is::{run, Mode};
    let params = IsParams::for_class(class);
    let mode = threads.map(Mode::Parallel).unwrap_or(Mode::Serial);
    let t0 = Instant::now();
    let result = run(&params, mode);
    let secs = t0.elapsed().as_secs_f64();
    let status = result.verify();
    if serial_check && mode != Mode::Serial {
        // `run` in parallel mode already cross-checks every iteration.
        assert!(result.iterations_consistent, "serial cross-check failed");
        eprintln!("serial cross-check passed");
    }
    report(
        "IS",
        class,
        format!(
            "2^{} keys, 2^{} max key",
            params.total_keys_log2, params.max_key_log2
        ),
        IsParams::MAX_ITERATIONS,
        secs,
        (params.num_keys() * IsParams::MAX_ITERATIONS) as f64 / secs / 1e6,
        threads.unwrap_or(1),
        status,
    );
}

fn main() {
    let args = parse_args();
    match args.kernel.as_str() {
        "cg" => run_cg(args.class, args.threads, args.serial_check),
        "ep" => run_ep(args.class, args.threads, args.serial_check),
        "is" => run_is(args.class, args.threads, args.serial_check),
        _ => usage(),
    }
    match zomp::trace::finish() {
        Ok(written) => {
            for p in written {
                eprintln!("wrote {p}");
            }
        }
        Err(e) => {
            eprintln!("npb-run: could not write trace output: {e}");
            std::process::exit(1);
        }
    }
}
