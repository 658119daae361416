//! Emit `BENCH_tiers.json`: execution-tier residency for the three NPB
//! kernel ports at the native tier (`--opt=3`) — per pragma loop, how
//! many iterations ran inside native bulk kernels vs through the
//! interpreter, with kernel-bail / deopt counts, plus the
//! machine-readable `kernel-missed` reasons for every compute loop the
//! matcher left interpreted, so a 0%-native loop self-explains in the
//! artefact. EP's `randlc` fill is native through cross-call matching
//! (`lcg-fill`) and its pairs loop through a strip template; the
//! residual missed loops are serial setup code.
//!
//! Usage: `cargo run --release -p zomp-bench --bin tier-bench [-- OUT]`
//! (default output path `BENCH_tiers.json`), or `-- --smoke` for the CI
//! guard: run the CG and EP ports and exit nonzero unless each has a
//! majority-native pragma loop.

use std::sync::Arc;

use npb::cg::makea::makea;
use npb::class::{CgParams, Class};
use zomp::json::{obj, Json};
use zomp::profile::{self, LoopTier};
use zomp_bench::ports::{ZAG_EP, ZAG_MATVEC, ZAG_RANK};
use zomp_vm::value::{ArrF, ArrI, Value};
use zomp_vm::{Backend, OptLevel, Vm};

const THREADS: i64 = 4;

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

/// Run `f` once with profiling on and fold the event stream into
/// per-loop tier rows (iteration-count descending, like `--profile`).
fn profiled(f: impl FnOnce()) -> Vec<LoopTier> {
    profile::reset();
    profile::enable();
    f();
    profile::disable();
    profile::tier_report()
}

fn run_cg() -> Vec<LoopTier> {
    let params = CgParams {
        class: Class::S,
        na: 1400,
        nonzer: 7,
        niter: 1,
        shift: 7.0,
        zeta_verify: f64::NAN,
    };
    let mat = makea(&params);
    let n = mat.n;
    let rowstr = to_arr_i(&mat.rowstr.iter().map(|&v| v as i64).collect::<Vec<_>>());
    let colidx = to_arr_i(&mat.colidx.iter().map(|&v| v as i64).collect::<Vec<_>>());
    let a = to_arr_f(&mat.a);
    let p = to_arr_f(&vec![1.0f64; n]);
    let q = Arc::new(ArrF::new(n));
    let vm = Vm::build(ZAG_MATVEC, Some("cg.zag"), Backend::Native, OptLevel::O3)
        .expect("compile matvec");
    profiled(|| {
        vm.call_function(
            "matvec",
            vec![
                Value::Int(n as i64),
                Value::ArrI(rowstr),
                Value::ArrI(colidx),
                Value::ArrF(a),
                Value::ArrF(p),
                Value::ArrF(q),
                Value::Int(3),
                Value::Int(THREADS),
            ],
        )
        .expect("run matvec");
    })
}

fn run_ep() -> Vec<LoopTier> {
    let vm = Vm::build(ZAG_EP, Some("ep.zag"), Backend::Native, OptLevel::O3).expect("compile ep");
    let q = Arc::new(ArrF::new(10));
    profiled(|| {
        vm.call_function(
            "ep",
            vec![
                Value::Int(13),
                Value::Int(10),
                Value::Int(THREADS),
                Value::ArrF(q),
            ],
        )
        .expect("run ep");
    })
}

fn run_is() -> Vec<LoopTier> {
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
    let counts = Arc::new(ArrI::new(THREADS as usize * nb));
    let starts = Arc::new(ArrI::new(nb + 1));
    let buff2 = Arc::new(ArrI::new(nkeys));
    let ranks = Arc::new(ArrI::new(1usize << maxlog));
    let vm =
        Vm::build(ZAG_RANK, Some("is.zag"), Backend::Native, OptLevel::O3).expect("compile rank");
    profiled(|| {
        vm.call_function(
            "rank",
            vec![
                Value::ArrI(keys_arr),
                Value::Int(nkeys as i64),
                Value::Int(maxlog as i64),
                Value::Int(nblog as i64),
                Value::ArrI(counts),
                Value::ArrI(starts),
                Value::ArrI(buff2),
                Value::ArrI(ranks),
                Value::Int(THREADS),
            ],
        )
        .expect("run rank");
    })
}

/// The port's `kernel-missed` rows (machine-readable reason slugs from
/// `zomp_vm::remarks`).
fn missed_json(source: &str, unit: &str) -> Json {
    let rows = zomp_vm::remarks::kernel_misses(source, unit).expect("remarks recompile");
    let rows = rows.into_iter().map(|r| {
        obj([
            ("fn", Json::Str(r.func)),
            ("loop", Json::Str(r.label)),
            ("pc", Json::Int(r.head as i64)),
            ("reason", r.reason.into()),
            ("note", Json::Str(r.note)),
        ])
    });
    Json::Arr(rows.collect())
}

/// Share of the port's iterations that ran natively, in `[0, 1]`.
fn native_frac(tiers: &[LoopTier]) -> f64 {
    let total: u64 = tiers.iter().map(|t| t.total_iters).sum();
    let native: u64 = tiers.iter().map(|t| t.native_iters).sum();
    if total == 0 {
        0.0
    } else {
        native as f64 / total as f64
    }
}

fn port_json(tiers: &[LoopTier], missed: Json) -> Json {
    let sum = |count: fn(&LoopTier) -> u64| Json::Int(tiers.iter().map(count).sum::<u64>() as i64);
    obj([
        ("native_frac", Json::Float(native_frac(tiers))),
        ("bails", sum(|t| t.bails)),
        ("deopts", sum(|t| t.deopts)),
        (
            "loops",
            Json::Arr(tiers.iter().map(LoopTier::to_json).collect()),
        ),
        ("kernel_missed", missed),
    ])
}

/// CI guard: the CG port's dynamic matvec loop, the EP port's batch
/// loop, AND the IS port's rank phases must be majority-native at
/// `--opt=3` — the bulk-kernel tier actually carrying the iterations is
/// the whole point of the tier (EP's loops only became claimable with
/// cross-call `randlc` matching, IS's with the fused rank pipeline); a
/// silent fall-back to the interpreter would still pass every
/// correctness test.
fn smoke() -> ! {
    let mut failed = false;
    for (name, tiers) in [("CG", run_cg()), ("EP", run_ep()), ("IS", run_is())] {
        for t in &tiers {
            eprintln!(
                "  [{name}] {} iters={} native={} ({:.1}%) bails={} deopts={}",
                t.label,
                t.total_iters,
                t.native_iters,
                100.0 * t.native_frac(),
                t.bails,
                t.deopts
            );
        }
        let ok = tiers
            .iter()
            .any(|t| t.total_iters > 0 && t.native_frac() > 0.5);
        if !ok {
            eprintln!("tier-bench --smoke: no {name} pragma loop is majority-native at --opt=3");
            failed = true;
        }
        // IS additionally gates the aggregate: every rank phase has a
        // fixed kernel now (histogram, scatter, the fused rank
        // pipeline), so a single majority-native loop is not enough —
        // the port as a whole must run mostly native.
        if name == "IS" && native_frac(&tiers) <= 0.5 {
            eprintln!(
                "tier-bench --smoke: IS aggregate native residency {:.1}% is not a majority",
                100.0 * native_frac(&tiers)
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("tier-bench --smoke: ok");
    std::process::exit(0);
}

fn main() {
    // Shared execution flags (`--threads`, `--schedule`, `--trace`,
    // `--metrics`) go through the common builder; what is left is
    // `--smoke` or the output path.
    let mut cfg = zomp::ExecConfig::new();
    let mut arg: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match cfg.parse_flag(&a, &mut it) {
            Ok(true) => continue,
            Ok(false) if a.starts_with("--") && a != "--smoke" => {
                eprintln!("tier-bench: unknown flag `{a}`");
                std::process::exit(2);
            }
            Ok(false) => arg = Some(a),
            Err(e) => {
                eprintln!("tier-bench: {e}");
                std::process::exit(2);
            }
        }
    }
    cfg.apply_global();
    if arg.as_deref() == Some("--smoke") {
        smoke();
    }
    let out = arg.unwrap_or_else(|| "BENCH_tiers.json".into());

    eprintln!("cg matvec tier residency ({THREADS} threads, --opt=3)...");
    let cg = run_cg();
    eprintln!("ep batch tier residency...");
    let ep = run_ep();
    eprintln!("is rank tier residency...");
    let is = run_is();

    let meta = zomp_bench::meta::json_object();
    let json = obj([
        ("meta", Json::parse(&meta).expect("the meta stamp is JSON")),
        ("threads", Json::Int(THREADS)),
        (
            "ports",
            obj([
                ("cg", port_json(&cg, missed_json(ZAG_MATVEC, "cg.zag"))),
                ("ep", port_json(&ep, missed_json(ZAG_EP, "ep.zag"))),
                ("is", port_json(&is, missed_json(ZAG_RANK, "is.zag"))),
            ]),
        ),
    ])
    .render();
    std::fs::write(&out, &json).expect("write BENCH_tiers.json");
    println!("{json}");
    eprintln!(
        "native iteration share: cg {:.1}%, ep {:.1}%, is {:.1}% -> {out}",
        100.0 * native_frac(&cg),
        100.0 * native_frac(&ep),
        100.0 * native_frac(&is)
    );
}
