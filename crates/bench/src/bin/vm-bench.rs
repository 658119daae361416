//! Emit `BENCH_vm.json`: median nanoseconds per kernel iteration for the
//! three NPB-derived Zag kernels, run through both execution backends at
//! 1 and 4 threads — the `ast` tree-walker oracle plus the register VM at
//! both optimization levels (`bytecode_o0` raw, `native` the whole
//! `--opt=3` pipeline: fold/copy-prop/DSE, superinstruction fusion, static
//! type specialization, bulk kernels and templates) — and, as
//! the reference ceiling, the hand-written Rust kernels from
//! `crates/npb` (`npb_ns_per_op`, with each tier's fraction of that
//! throughput in `npb_throughput_frac_1t`).
//!
//! Kernels (the same ports the integration suite validates bit-for-bit):
//!   - `cg_matvec_dynamic` — CSR sparse matvec over an NPB `makea` matrix
//!     with `schedule(dynamic, 64)`; ops = nonzeros touched.
//!   - `ep_batch` — the 46-bit LCG Gaussian-pair batches with a `static`
//!     worksharing loop and region reductions; ops = pairs generated.
//!   - `is_histogram` — the bucketed counting rank (private histograms,
//!     `single` prefix sum, scatter, `static,1` bucket ranking); ops = keys.
//!
//! Usage: `cargo run --release -p zomp-bench --bin vm-bench [-- OUT]`
//! (default output path `BENCH_vm.json` in the current directory), or
//! `-- --smoke` for the CI guard: a fast single-thread CG matvec run that
//! exits nonzero unless `--opt=3` is at least 2x the tree-walker and at
//! least 2x the unoptimized (`--opt=0`) bytecode. These are mechanism
//! checks (the tiers engage), not performance claims: every ratio that was
//! once taken over the deleted `--opt=2` level is now taken over the slower
//! `--opt=0`, threshold unchanged, which only makes it easier to meet —
//! `benchmark/` owns the performance numbers.

use std::sync::Arc;
use std::time::Instant;

use npb::cg::makea::makea;
use npb::class::{CgParams, Class};
use zomp_vm::value::{ArrF, ArrI, Value};
use zomp_vm::{Backend, OptLevel, Vm};

/// Samples per configuration; the median damps scheduler noise.
const SAMPLES: usize = 7;
/// Execution configurations measured for every kernel: the tree-walking
/// oracle, then the bytecode VM at each optimization level.
const CONFIGS: [(&str, Backend, OptLevel); 3] = [
    ("ast", Backend::Ast, OptLevel::O0),
    ("bytecode_o0", Backend::Bytecode, OptLevel::O0),
    ("native", Backend::Native, OptLevel::O3),
];
/// Team sizes measured for every kernel/backend pair.
const THREADS: [i64; 2] = [1, 4];

/// Repeated matvec sweeps inside one parallel region, so the fork cost is
/// amortised and the dynamic worksharing loop dominates the measurement.
const MATVEC_REPS: i64 = 3;

use zomp_bench::ports::{ZAG_EP, ZAG_MATVEC, ZAG_RANK, ZAG_TEMPLATE};

fn to_arr_f(v: &[f64]) -> Arc<ArrF> {
    let a = Arc::new(ArrF::new(v.len()));
    for (i, &x) in v.iter().enumerate() {
        a.set(i as i64, x).unwrap();
    }
    a
}

fn to_arr_i(v: &[i64]) -> Arc<ArrI> {
    let a = Arc::new(ArrI::new(v.len()));
    for (i, &x) in v.iter().enumerate() {
        a.set(i as i64, x).unwrap();
    }
    a
}

/// ns/op over `samples` runs of `f`, where each run performs `ops`
/// operations. One untimed warmup populates the hot team and caches.
/// `use_min` picks the estimator: the median is the honest reporting
/// statistic for `BENCH_vm.json`; the CI ratio gates use the minimum,
/// because interference on a loaded 1-core host only ever *adds* time —
/// best-observed keeps a gate ratio stable where a ratio of medians
/// wobbles ±30% run to run.
fn ns_per_op(samples: usize, ops: u64, use_min: bool, mut f: impl FnMut()) -> f64 {
    f();
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    if use_min {
        return ns.iter().copied().fold(f64::INFINITY, f64::min);
    }
    ns.sort_by(|a, b| a.total_cmp(b));
    ns[ns.len() / 2]
}

fn median_ns_per_op(samples: usize, ops: u64, f: impl FnMut()) -> f64 {
    ns_per_op(samples, ops, false, f)
}

/// Per-kernel results: `ns[config][thread_config]`, `CONFIGS` x `THREADS`
/// order, plus the single-thread `crates/npb` hand-written Rust reference.
struct KernelResult {
    name: &'static str,
    ops_per_call: u64,
    ns: Vec<Vec<f64>>,
    /// Single-thread ns/op of the corresponding `crates/npb` Rust kernel
    /// — the throughput ceiling the VM tiers are measured against.
    npb_ns: f64,
}

impl KernelResult {
    fn config_ns(&self, label: &str) -> &[f64] {
        let i = CONFIGS.iter().position(|(l, _, _)| *l == label).unwrap();
        &self.ns[i]
    }
    /// Default-level (`--opt=3`) speedup over the tree-walker, single
    /// thread.
    fn speedup_1t(&self) -> f64 {
        self.config_ns("ast")[0] / self.config_ns("native")[0]
    }
    /// `--opt=3` speedup over the raw `--opt=0` bytecode, single thread.
    fn opt_speedup_1t(&self) -> f64 {
        self.config_ns("bytecode_o0")[0] / self.config_ns("native")[0]
    }
    /// Fraction of the `crates/npb` Rust kernel's throughput a tier
    /// reaches single-thread (1.0 = parity with hand-written Rust).
    fn npb_frac(&self, label: &str) -> f64 {
        self.npb_ns / self.config_ns(label)[0]
    }
    /// Thread-scaling ratio t(1)/t(4) per configuration (higher is better).
    fn scaling(&self, ns: &[f64]) -> f64 {
        ns[0] / ns[ns.len() - 1]
    }
}

/// The NPB matrix used for the matvec measurements (and the smoke guard).
fn bench_matrix(na: usize, nonzer: usize) -> npb::cg::makea::SparseMatrix {
    let params = CgParams {
        class: Class::S,
        na,
        nonzer,
        niter: 1,
        shift: 7.0,
        zeta_verify: f64::NAN,
    };
    makea(&params)
}

/// Single-thread ns/nonzero of the hand-written CSR matvec — the same
/// inner loop `crates/npb`'s `conj_grad_serial` runs (solve.rs), timed in
/// isolation so the VM tiers compare against exactly the work they do.
fn npb_matvec_ns(mat: &npb::cg::makea::SparseMatrix, samples: usize) -> f64 {
    let n = mat.n;
    let p = vec![1.0f64; n];
    let mut q = vec![0.0f64; n];
    let nnz = mat.rowstr[n] as u64;
    median_ns_per_op(samples, MATVEC_REPS as u64 * nnz, || {
        for _ in 0..MATVEC_REPS {
            for (j, qj) in q.iter_mut().enumerate().take(n) {
                let mut s = 0.0;
                for k in mat.rowstr[j]..mat.rowstr[j + 1] {
                    s += mat.a[k] * p[mat.colidx[k]];
                }
                *qj = s;
            }
        }
        std::hint::black_box(&mut q);
    })
}

fn run_matvec(
    mat: &npb::cg::makea::SparseMatrix,
    samples: usize,
    use_min: bool,
    threads: &[i64],
) -> KernelResult {
    let n = mat.n;
    let nnz = mat.rowstr[n] as u64;
    let rowstr = to_arr_i(&mat.rowstr.iter().map(|&v| v as i64).collect::<Vec<_>>());
    let colidx = to_arr_i(&mat.colidx.iter().map(|&v| v as i64).collect::<Vec<_>>());
    let a = to_arr_f(&mat.a);
    let p = to_arr_f(&vec![1.0f64; n]);
    let q = Arc::new(ArrF::new(n));

    let mut result = KernelResult {
        name: "cg_matvec_dynamic",
        ops_per_call: MATVEC_REPS as u64 * nnz,
        ns: Vec::new(),
        npb_ns: npb_matvec_ns(mat, samples),
    };
    for (label, backend, opt) in CONFIGS {
        let vm = Vm::build(ZAG_MATVEC, None, backend, opt).expect("compile matvec");
        let mut cfg = Vec::new();
        for &nth in threads {
            eprintln!("  matvec {label} x{nth}...");
            let ns = ns_per_op(samples, result.ops_per_call, use_min, || {
                vm.call_function(
                    "matvec",
                    vec![
                        Value::Int(n as i64),
                        Value::ArrI(Arc::clone(&rowstr)),
                        Value::ArrI(Arc::clone(&colidx)),
                        Value::ArrF(Arc::clone(&a)),
                        Value::ArrF(Arc::clone(&p)),
                        Value::ArrF(Arc::clone(&q)),
                        Value::Int(MATVEC_REPS),
                        Value::Int(nth),
                    ],
                )
                .expect("run matvec");
            });
            cfg.push(ns);
        }
        result.ns.push(cfg);
    }
    result
}

/// The batched-`vranlc` hand-written EP reference: `run_serial`'s batch
/// loop with the deviate scratch buffer and the `a^(2nk)` stream-jump
/// constant hoisted out of the timed region (`run_serial` reallocates
/// and recomputes them per call), so `npb_throughput_frac_1t` measures
/// the VM tiers against the honest ceiling — the batched LCG fill plus
/// the sqrt/log acceptance tail and nothing else.
fn npb_ep_ns(samples: usize, m: u32, mk: u32) -> f64 {
    use npb::randlc::{lcg_jump, lcg_pow, vranlc, DEFAULT_MULT, DEFAULT_SEED};
    let nk = 1u64 << mk;
    let batches = 1u64 << (m - mk);
    let pairs = 1u64 << m;
    // a^(2nk): one batch's worth of LCG steps, bit-identical to the NPB
    // `compute_an` squaring ladder (LCG states are exact integers).
    let an = lcg_pow(DEFAULT_MULT, 2 * nk);
    let mut x = vec![0.0f64; 2 * nk as usize];
    let mut q = [0.0f64; 10];
    let mut sx = 0.0f64;
    let mut sy = 0.0f64;
    median_ns_per_op(samples, pairs, || {
        for kk in 0..batches {
            let mut t = lcg_jump(DEFAULT_SEED, an, kk);
            vranlc(&mut t, DEFAULT_MULT, &mut x);
            for i in 0..nk as usize {
                let x1 = 2.0 * x[2 * i] - 1.0;
                let x2 = 2.0 * x[2 * i + 1] - 1.0;
                let t1 = x1 * x1 + x2 * x2;
                if t1 <= 1.0 {
                    let t2 = (-2.0 * t1.ln() / t1).sqrt();
                    let t3 = x1 * t2;
                    let t4 = x2 * t2;
                    let l = t3.abs().max(t4.abs()) as usize;
                    q[l] += 1.0;
                    sx += t3;
                    sy += t4;
                }
            }
        }
        std::hint::black_box((&q, sx, sy));
    })
}

fn run_ep(samples: usize, use_min: bool, threads: &[i64]) -> KernelResult {
    // 2^13 Gaussian-candidate pairs in 8 batches of 2^10.
    let m = 13i64;
    let mk = 10i64;
    let pairs = 1u64 << m;
    let mut result = KernelResult {
        name: "ep_batch",
        ops_per_call: pairs,
        ns: Vec::new(),
        npb_ns: npb_ep_ns(samples, m as u32, mk as u32),
    };
    for (label, backend, opt) in CONFIGS {
        let vm = Vm::build(ZAG_EP, None, backend, opt).expect("compile ep");
        let mut cfg = Vec::new();
        for &nth in threads {
            eprintln!("  ep {label} x{nth}...");
            let q = Arc::new(ArrF::new(10));
            let ns = ns_per_op(samples, pairs, use_min, || {
                vm.call_function(
                    "ep",
                    vec![
                        Value::Int(m),
                        Value::Int(mk),
                        Value::Int(nth),
                        Value::ArrF(Arc::clone(&q)),
                    ],
                )
                .expect("run ep");
            });
            cfg.push(ns);
        }
        result.ns.push(cfg);
    }
    result
}

fn run_is(samples: usize, use_min: bool, threads: &[i64]) -> KernelResult {
    // 2^14 keys in [0, 2^11), 2^5 buckets.
    let maxlog = 11u32;
    let nblog = 5u32;
    let params = npb::is::custom_params(14, maxlog, nblog);
    let keys: Vec<i64> = npb::is::create_seq(&params)
        .iter()
        .map(|&k| k as i64)
        .collect();
    let nkeys = keys.len();
    let nb = 1usize << nblog;
    let keys_arr = to_arr_i(&keys);

    let mut result = KernelResult {
        name: "is_histogram",
        ops_per_call: nkeys as u64,
        ns: Vec::new(),
        npb_ns: {
            // Like-for-like reference: the hand-written bucketed rank
            // (`rank_parallel` at one thread), which runs the same
            // 4-phase algorithm over the same runtime the Zag program
            // does. The 2-pass serial counting sort (`rank_serial`)
            // solves a strictly smaller problem — no bucket scatter,
            // no partially-sorted key array, ~3x fewer memory ops —
            // and a frac against it conflates VM overhead with the
            // NPB algorithm's own cost (the bucketed scatter alone
            // costs more than 60% of the counting sort's total on a
            // 1-core host).
            let ref_keys: Vec<npb::is::Key> = npb::is::create_seq(&params);
            median_ns_per_op(samples, nkeys as u64, || {
                std::hint::black_box(npb::is::rank_parallel(&ref_keys, &params, 1));
            })
        },
    };
    for (label, backend, opt) in CONFIGS {
        let vm = Vm::build(ZAG_RANK, None, backend, opt).expect("compile rank");
        let mut cfg = Vec::new();
        for &nth in threads {
            eprintln!("  is {label} x{nth}...");
            let counts = Arc::new(ArrI::new(nth as usize * nb));
            let starts = Arc::new(ArrI::new(nb + 1));
            let buff2 = Arc::new(ArrI::new(nkeys));
            let ranks = Arc::new(ArrI::new(1usize << maxlog));
            let ns = ns_per_op(samples, nkeys as u64, use_min, || {
                vm.call_function(
                    "rank",
                    vec![
                        Value::ArrI(Arc::clone(&keys_arr)),
                        Value::Int(nkeys as i64),
                        Value::Int(maxlog as i64),
                        Value::Int(nblog as i64),
                        Value::ArrI(Arc::clone(&counts)),
                        Value::ArrI(Arc::clone(&starts)),
                        Value::ArrI(Arc::clone(&buff2)),
                        Value::ArrI(Arc::clone(&ranks)),
                        Value::Int(nth),
                    ],
                )
                .expect("run rank");
            });
            cfg.push(ns);
        }
        result.ns.push(cfg);
    }
    result
}

/// CI guard: single-thread CG matvec on a small matrix; fail unless
/// `--opt=3` is at least `MIN_SPEEDUP`x the tree-walker *and* at least
/// `MIN_OPT_SPEEDUP`x the raw `--opt=0` bytecode (the former 1.5x
/// native-over-`--opt=2` floor on CG is the same ratio now, and implied).
/// EP- and IS-specific gates hold the kernels to `MIN_EP_OPT_SPEEDUP`x /
/// `MIN_IS_OPT_SPEEDUP`x over `--opt=0`: a regression to
/// chunk-interpreted `randlc` calls or an interpreted histogram must fail
/// CI.
fn smoke() -> ! {
    const MIN_SPEEDUP: f64 = 2.0;
    const MIN_OPT_SPEEDUP: f64 = 2.0;
    const MIN_EP_OPT_SPEEDUP: f64 = 3.0;
    const MIN_IS_OPT_SPEEDUP: f64 = 3.0;
    const MIN_SCALING_4C: f64 = 1.5;
    const MIN_SCALING_1C: f64 = 0.35;
    let mat = bench_matrix(400, 5);
    let r = run_matvec(&mat, 3, true, &[1]);
    let speedup = r.speedup_1t();
    let opt_speedup = r.opt_speedup_1t();
    eprintln!(
        "smoke: cg_matvec 1 thread: ast {:.1} ns/nz, bytecode o0 {:.1} ns/nz, \
         native {:.1} ns/nz, npb {:.1} ns/nz -> {speedup:.2}x over ast, {opt_speedup:.2}x over \
         o0 ({:.0}% of npb)",
        r.config_ns("ast")[0],
        r.config_ns("bytecode_o0")[0],
        r.config_ns("native")[0],
        r.npb_ns,
        100.0 * r.npb_frac("native"),
    );
    if speedup < MIN_SPEEDUP {
        eprintln!("FAIL: --opt=3 under {MIN_SPEEDUP}x the tree-walker on CG matvec");
        std::process::exit(1);
    }
    if opt_speedup < MIN_OPT_SPEEDUP {
        eprintln!("FAIL: --opt=3 under {MIN_OPT_SPEEDUP}x the --opt=0 baseline on CG matvec");
        std::process::exit(1);
    }
    let ep = run_ep(3, true, &[1]);
    let ep_opt_speedup = ep.opt_speedup_1t();
    eprintln!(
        "smoke: ep_batch 1 thread: o0 {:.1} ns/pair, native {:.1} ns/pair, npb {:.1} ns/pair \
         -> native {ep_opt_speedup:.2}x over o0 ({:.0}% of npb)",
        ep.config_ns("bytecode_o0")[0],
        ep.config_ns("native")[0],
        ep.npb_ns,
        100.0 * ep.npb_frac("native"),
    );
    if ep_opt_speedup < MIN_EP_OPT_SPEEDUP {
        eprintln!("FAIL: --opt=3 under {MIN_EP_OPT_SPEEDUP}x the --opt=0 bytecode on EP");
        std::process::exit(1);
    }
    let is = run_is(3, true, &[1, 4]);
    let is_opt_speedup = is.opt_speedup_1t();
    eprintln!(
        "smoke: is_histogram 1 thread: o0 {:.1} ns/key, native {:.1} ns/key, npb {:.1} ns/key \
         -> native {is_opt_speedup:.2}x over o0 ({:.0}% of npb)",
        is.config_ns("bytecode_o0")[0],
        is.config_ns("native")[0],
        is.npb_ns,
        100.0 * is.npb_frac("native"),
    );
    if is_opt_speedup < MIN_IS_OPT_SPEEDUP {
        eprintln!("FAIL: --opt=3 under {MIN_IS_OPT_SPEEDUP}x the --opt=0 bytecode on IS");
        std::process::exit(1);
    }
    // Thread-scaling guard. The ratio t(1)/t(4) only means speedup on a
    // host with cores to scale onto; CI containers here report one core,
    // where four workers can only add scheduling overhead. So the gate
    // adapts: on >= 4 cores the native tier must actually scale, on a
    // starved host it must merely keep the oversubscription tax bounded
    // (a collapse below the floor means a serialization bug — e.g. a
    // shared lock in the worksharing path — not just a slow box).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let is_scaling = is.scaling(is.config_ns("native"));
    let (scaling_floor, what) = if cores >= 4 {
        (MIN_SCALING_4C, "parallel speedup")
    } else {
        (MIN_SCALING_1C, "oversubscription floor")
    };
    eprintln!(
        "smoke: is_histogram native t(1)/t(4) = {is_scaling:.2} on {cores}-core host \
         (floor {scaling_floor} as {what})"
    );
    if is_scaling < scaling_floor {
        eprintln!(
            "FAIL: native IS 4-thread scaling {is_scaling:.2} under the {scaling_floor} \
             {what} on a {cores}-core host"
        );
        std::process::exit(1);
    }
    template_smoke();
    eprintln!(
        "PASS (thresholds {MIN_SPEEDUP}x over ast, {MIN_OPT_SPEEDUP}x over o0, \
         {MIN_EP_OPT_SPEEDUP}x over o0 on EP, {MIN_IS_OPT_SPEEDUP}x over o0 on IS, \
         {MIN_TEMPLATE_SPEEDUP}x template tier over o0)"
    );
    std::process::exit(0);
}

/// Template-tier floor, shared by `template_smoke` and the PASS banner.
/// Set when the baseline was the `--opt=2` interpreter (typically
/// 3.4-3.8x over it); the slower `--opt=0` baseline only widens the
/// margin, so the floor guards against the tier not engaging, not against
/// baseline noise.
const MIN_TEMPLATE_SPEEDUP: f64 = 2.5;

/// Template-tier gate: the typed-template fixture (`ZAG_TEMPLATE`) must
/// install at least one template at `--opt=3`, return bit-identical
/// results to the `--opt=0` bytecode, and run both shape-missed loops at
/// least `MIN_TEMPLATE_SPEEDUP`x faster than that bytecode. The fixture
/// stands in for the real shape-missed loops (EP's setup doublings, the
/// stencil example) whose trip counts are too small to time.
fn template_smoke() {
    for r in measure_templates(5) {
        eprintln!(
            "smoke: template `{}`: o0 {:.1} ns/op, template {:.1} ns/op \
             -> {:.2}x over o0 ({} templates installed)",
            r.func, r.o0_ns, r.tmpl_ns, r.speedup, r.installed
        );
        if r.speedup < MIN_TEMPLATE_SPEEDUP {
            eprintln!(
                "FAIL: template tier under {MIN_TEMPLATE_SPEEDUP}x the --opt=0 bytecode \
                 on `{}`",
                r.func
            );
            std::process::exit(1);
        }
    }
}

struct TemplateRow {
    func: &'static str,
    installed: usize,
    o0_ns: f64,
    tmpl_ns: f64,
    speedup: f64,
}

/// Measure the template fixture: assert at least one `template-installed`
/// remark and bit-identical `--opt=0` vs `--opt=3` results, then time
/// both shape-missed loops (best-observed, see `ns_per_op`). Shared by
/// the smoke gate and the `BENCH_vm.json` `templates` section.
fn measure_templates(samples: usize) -> Vec<TemplateRow> {
    let remarks = zomp_vm::remarks::collect(ZAG_TEMPLATE, "template.zag", OptLevel::O3)
        .expect("template remarks");
    let installed = remarks
        .iter()
        .filter(|d| d.code == "template-installed")
        .count();
    if installed == 0 {
        eprintln!("FAIL: no template-installed remark on the template fixture at --opt=3");
        std::process::exit(1);
    }
    let o0 = Vm::build(ZAG_TEMPLATE, None, Backend::Bytecode, OptLevel::O0).expect("compile o0");
    let o3 = Vm::build(ZAG_TEMPLATE, None, Backend::Native, OptLevel::O3).expect("compile o3");
    let n = 65536usize;
    let reps = 8i64;
    let mk_args = |kind: &str| -> Vec<Value> {
        match kind {
            "smooth" => {
                let u = Arc::new(ArrF::new(n));
                for i in 0..n {
                    u.set(i as i64, (i % 17) as f64 * 0.25).unwrap();
                }
                let v = Arc::new(ArrF::new(n));
                vec![
                    Value::ArrF(u),
                    Value::ArrF(v),
                    Value::Int(n as i64),
                    Value::Int(reps),
                ]
            }
            _ => {
                let x = Arc::new(ArrI::new(n));
                for i in 0..n {
                    x.set(i as i64, (i % 31) as i64 - 15).unwrap();
                }
                vec![Value::ArrI(x), Value::Int(n as i64), Value::Int(reps)]
            }
        }
    };
    let mut rows = Vec::new();
    for func in ["smooth", "sumsq"] {
        let r0 = o0.call_function(func, mk_args(func)).expect("run o0");
        let r3 = o3.call_function(func, mk_args(func)).expect("run o3");
        let same = match (&r0, &r3) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Int(a), Value::Int(b)) => a == b,
            _ => false,
        };
        if !same {
            eprintln!("FAIL: template fixture `{func}` differs between --opt=0 and --opt=3");
            std::process::exit(1);
        }
        let ops = n as u64 * reps as u64;
        let args0 = mk_args(func);
        let t0 = ns_per_op(samples, ops, true, || {
            o0.call_function(func, args0.clone()).expect("run o0");
        });
        let args3 = mk_args(func);
        let t3 = ns_per_op(samples, ops, true, || {
            o3.call_function(func, args3.clone()).expect("run o3");
        });
        rows.push(TemplateRow {
            func,
            installed,
            o0_ns: t0,
            tmpl_ns: t3,
            speedup: t0 / t3,
        });
    }
    rows
}

fn json_list(ns: &[f64]) -> String {
    let items: Vec<String> = ns.iter().map(|v| format!("{v:.1}")).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    // Shared execution flags (`--threads`, `--schedule`, `--trace`,
    // `--metrics`, `--safety`) go through the common builder; what is
    // left is `--smoke` or the output path.
    let mut cfg = zomp::ExecConfig::new();
    let mut arg: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match cfg.parse_flag(&a, &mut it) {
            Ok(true) => continue,
            Ok(false) => arg = Some(a),
            Err(e) => {
                eprintln!("vm-bench: {e}");
                std::process::exit(2);
            }
        }
    }
    cfg.apply_global();
    if arg.as_deref() == Some("--smoke") {
        smoke();
    }
    let out = arg.unwrap_or_else(|| "BENCH_vm.json".into());

    eprintln!("cg_matvec_dynamic (NPB makea CSR, schedule(dynamic, 64))...");
    let mat = bench_matrix(1400, 7);
    let cg = run_matvec(&mat, SAMPLES, false, &THREADS);
    eprintln!("ep_batch (LCG Gaussian pairs, schedule(static) + reductions)...");
    let ep = run_ep(SAMPLES, false, &THREADS);
    eprintln!("is_histogram (bucketed rank, static/static,1 phases)...");
    let is = run_is(SAMPLES, false, &THREADS);

    let mut kernels = String::new();
    for (i, k) in [&cg, &ep, &is].iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let ns_fields: Vec<String> = CONFIGS
            .iter()
            .zip(&k.ns)
            .map(|((label, _, _), ns)| format!("\"{label}\": {}", json_list(ns)))
            .collect();
        let scaling_fields: Vec<String> = CONFIGS
            .iter()
            .zip(&k.ns)
            .map(|((label, _, _), ns)| format!("\"{label}\": {:.2}", k.scaling(ns)))
            .collect();
        // Fraction of the crates/npb Rust kernel's single-thread
        // throughput each tier reaches — the npb-relative gap.
        let npb_fields: Vec<String> = CONFIGS
            .iter()
            .map(|(label, _, _)| format!("\"{label}\": {:.3}", k.npb_frac(label)))
            .collect();
        kernels.push_str(&format!(
            "{sep}    \"{}\": {{\n      \
             \"ops_per_call\": {},\n      \
             \"ns_per_op\": {{{}}},\n      \
             \"npb_ns_per_op\": {:.1},\n      \
             \"npb_throughput_frac_1t\": {{{}}},\n      \
             \"bytecode_speedup_1t\": {:.2},\n      \
             \"opt_speedup_1t\": {:.2},\n      \
             \"scaling_4t_over_1t\": {{{}}}\n    }}",
            k.name,
            k.ops_per_call,
            ns_fields.join(", "),
            k.npb_ns,
            npb_fields.join(", "),
            k.speedup_1t(),
            k.opt_speedup_1t(),
            scaling_fields.join(", "),
        ));
    }
    // The typed-template tier on the two shape-missed fixture loops
    // (single thread, best-observed ns/op — see `ns_per_op`).
    let tmpl_rows: Vec<String> = measure_templates(SAMPLES)
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{ \"o0_ns_per_op\": {:.1}, \"template_ns_per_op\": {:.1}, \
                 \"speedup\": {:.2}, \"templates_installed\": {} }}",
                r.func, r.o0_ns, r.tmpl_ns, r.speedup, r.installed
            )
        })
        .collect();
    let templates = tmpl_rows.join(",\n");
    // Thread-scaling ratios only mean something relative to the host's
    // core count (on a one-core box both backends pin near 1.0).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = zomp_bench::meta::json_object();
    let json = format!(
        "{{\n  \"meta\": {meta},\n  \"threads\": [1, 4],\n  \"samples\": {SAMPLES},\n  \
         \"host_cores\": {cores},\n  \"kernels\": {{\n{kernels}\n  }},\n  \
         \"templates\": {{\n{templates}\n  }}\n}}\n"
    );
    std::fs::write(&out, &json).expect("write BENCH_vm.json");
    print!("{json}");
    eprintln!(
        "single-thread speedups over ast: cg {:.2}x, ep {:.2}x, is {:.2}x; \
         --opt=3 over --opt=0: cg {:.2}x, ep {:.2}x, is {:.2}x; \
         fraction of npb: cg {:.0}%, ep {:.0}%, is {:.0}% -> {out}",
        cg.speedup_1t(),
        ep.speedup_1t(),
        is.speedup_1t(),
        cg.opt_speedup_1t(),
        ep.opt_speedup_1t(),
        is.opt_speedup_1t(),
        100.0 * cg.npb_frac("native"),
        100.0 * ep.npb_frac("native"),
        100.0 * is.npb_frac("native"),
    );
}
