//! `zag` — run a pragma-annotated Zag program from the command line.
//!
//! ```text
//! zag program.zag                 # preprocess + execute main()
//! zag --check p.zag               # data-sharing lint report, no execution
//! zag --check=deny p.zag          # lint; non-zero exit on any finding
//! zag --emit-preprocessed p.zag   # print the pragma-free source and exit
//! zag --trace-passes p.zag        # print every preprocessor pass, then run
//! zag --threads 8 p.zag           # set the default team size (nthreads-var)
//! zag --safety production p.zag   # Zig-style build mode for shared arrays
//! zag --trace out.json p.zag      # write a chrome://tracing event file
//! zag --metrics m.json p.zag      # write aggregated runtime counters
//! zag --backend ast p.zag         # run on the tree-walking oracle
//! zag --backend native p.zag      # alias of `--backend bytecode --opt 3`
//! zag --opt 0 p.zag               # the unoptimized oracle stream (0|3; default 3)
//! zag --dump-bytecode p.zag       # print pre- and post-opt streams
//! zag --dump-ir p.zag             # print the typed block-structured IR
//! zag --remarks p.zag             # optimization remarks, no execution
//! zag --remarks=json p.zag        # same, as a JSON array
//! ```
//!
//! The execution knobs shared with the other drivers (`--backend`, `--opt`,
//! `--threads`, `--schedule`, `--safety`, `--trace`, `--metrics`,
//! `--check`) are parsed by [`zomp::ExecConfig`]; only the flags unique to
//! `zag` are matched here.

use zomp::config::CheckMode;
use zomp::ExecConfig;
use zomp_front::Diag;
use zomp_vm::{Backend, OptLevel, Vm};

fn usage() -> ! {
    eprintln!(
        "usage: zag [--check[=deny]] [--remarks[=json]] [--emit-preprocessed] [--trace-passes] \
         [--dump-ast] [--dump-bytecode] [--dump-ir] [--backend ast|bytecode|native] \
         [--opt 0|3] [--threads N] [--schedule kind[,chunk]] \
         [--safety debug|production|paranoid] [--profile[=json]] \
         [--trace FILE] [--metrics FILE] <program.zag>"
    );
    std::process::exit(2);
}

/// The single diagnostic formatter: every front-end error and every
/// analyze finding goes through here.
fn render_diag(path: &str, source: &str, diag: &Diag) -> String {
    format!("zag: {path}:{}", diag.render(source))
}

fn fail(path: &str, source: &str, diag: &Diag) -> ! {
    eprintln!("{}", render_diag(path, source, diag));
    std::process::exit(1);
}

fn main() {
    let mut emit = false;
    let mut trace = false;
    let mut dump_ast = false;
    let mut dump_bytecode = false;
    let mut dump_ir = false;
    let mut profile = false;
    let mut profile_json = false;
    // `--remarks`: None = off, Some(true) = JSON output.
    let mut remarks: Option<bool> = None;
    let mut cfg = ExecConfig::new();
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match cfg.parse_flag(&a, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("zag: {e}");
                usage();
            }
        }
        match a.as_str() {
            "--emit-preprocessed" => emit = true,
            "--trace-passes" => trace = true,
            "--dump-ast" => dump_ast = true,
            "--dump-bytecode" => dump_bytecode = true,
            "--dump-ir" => dump_ir = true,
            "--remarks" => remarks = Some(false),
            "--remarks=json" => remarks = Some(true),
            "--profile" => profile = true,
            "--profile=json" => {
                profile = true;
                profile_json = true;
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("zag: cannot read {path}: {e}");
        std::process::exit(1);
    });

    let backend = cfg.backend.map(Backend::from).unwrap_or_default();
    let opt = cfg.opt.map(OptLevel::from_index).unwrap_or_default();
    cfg.apply_global();

    if cfg.check != CheckMode::Warn {
        // Lint-only modes: parse the pragma'd source and run the
        // data-sharing analysis, nothing else.
        let ast = match zomp_front::parse(&source) {
            Ok(ast) => ast,
            Err(e) => fail(&path, &source, &e),
        };
        let findings = zomp_front::analyze(&ast, &path);
        for d in &findings {
            eprintln!("{}", render_diag(&path, &source, d));
        }
        if findings.is_empty() {
            eprintln!("zag: {path}: check clean");
        } else if cfg.check == CheckMode::Deny {
            eprintln!(
                "zag: {path}: {} finding(s); refusing to compile (--check=deny)",
                findings.len()
            );
            std::process::exit(1);
        }
        return;
    }

    if let Some(json) = remarks {
        // Remark collection recompiles with the pipeline instrumented.
        match zomp_vm::remarks::collect(&source, &path, opt) {
            Ok(diags) => {
                if json {
                    print!("{}", zomp_vm::remarks::render_json(&diags, &source));
                } else {
                    for d in &diags {
                        println!("{}", render_diag(&path, &source, d));
                    }
                    if diags.is_empty() {
                        println!("zag: {path}: no remarks at --opt={opt}");
                    }
                }
                return;
            }
            Err(e) => fail(&path, &source, &e),
        }
    }

    if dump_ast {
        match zomp_front::parse(&source) {
            Ok(ast) => {
                println!("{}", zomp_front::dump::dump_tree(&ast));
                return;
            }
            Err(e) => fail(&path, &source, &e),
        }
    }

    if trace {
        match zomp_front::preprocess::preprocess_trace(&source) {
            Ok((_, passes)) => {
                for (i, p) in passes.iter().enumerate() {
                    println!("=== pass {} ===\n{p}", i + 1);
                }
            }
            Err(e) => fail(&path, &source, &e),
        }
    }

    if emit {
        match zomp_front::preprocess(&source) {
            Ok(out) => {
                println!("{out}");
                return;
            }
            Err(e) => fail(&path, &source, &e),
        }
    }

    if profile {
        zomp::profile::enable();
    }

    let vm = match Vm::build(&source, Some(&path), backend, opt) {
        Ok(vm) => Vm { echo: true, ..vm },
        Err(e) => fail(&path, &source, &e),
    };

    // The lint runs as a default warning pass before execution.
    for d in &vm.program.diags {
        eprintln!("{}", render_diag(&path, &source, d));
    }

    if dump_bytecode {
        print!("{}", zomp_vm::bytecode::disasm_stages(&vm.program.code));
        return;
    }
    if dump_ir {
        print!("{}", zomp_vm::ir::dump(&vm.program.code));
        return;
    }
    // The main thread's stack is whatever the shell's `ulimit -s` says;
    // the program gets the stack every other thread running Zag code
    // has, so runaway recursion is a runtime error here too.
    let ran = std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(zomp::STACK_BYTES)
            .spawn_scoped(s, || vm.call_function("main", Vec::new()))
            .expect("spawn the program thread")
            .join()
    });
    match ran {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => {
            eprintln!("zag: {e}");
            std::process::exit(1);
        }
        Err(panic) => std::panic::resume_unwind(panic),
    }

    if profile {
        zomp::profile::disable();
        if profile_json {
            print!("{}", zomp::profile::render_json());
        } else {
            eprintln!("\n--- region profile (gprof-style) ---");
            eprint!("{}", zomp::profile::render_report());
            eprintln!("\n--- per-construct breakdown ---");
            eprint!("{}", zomp::profile::render_breakdown());
            eprintln!("\n--- per-loop tier residency ---");
            eprint!("{}", zomp::profile::render_tiers());
        }
    }
    match zomp::trace::finish() {
        Ok(written) => {
            for p in written {
                eprintln!("zag: wrote {p}");
            }
        }
        Err(e) => {
            eprintln!("zag: could not write trace output: {e}");
            std::process::exit(1);
        }
    }
}
