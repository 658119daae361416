//! End-to-end checks of the tier-observability pipeline over the public
//! VM API: the kernel telemetry probes fold into `MetricsSnapshot`,
//! specialised-opcode and bulk-loop fallbacks count and leave no state
//! behind, the profiler's event fold attributes a natively-carried
//! pragma loop to the native tier with its `unit:line` label intact,
//! every fixed kernel the NPB ports install is one they enter, and every
//! installed template's remark says whether it runs strip-mined.
//!
//! Tracing mode is process-global, so every test serialises on one
//! mutex and restores the disabled state before releasing it.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use zomp::{profile, trace};
use zomp_bench::ports::{ZAG_EP, ZAG_MATVEC, ZAG_RANK};
use zomp_vm::bytecode::Insn;
use zomp_vm::kernels::KernelKind;
use zomp_vm::value::{ArrF, ArrI, Value};
use zomp_vm::{Backend, OptLevel, Vm};

fn serial() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    let g = M
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    trace::disable_all();
    trace::reset();
    g
}

/// A constant-fill pragma loop: no fixed kernel shape, so at `--opt=3`
/// the template tier takes it and every iteration runs native.
const FILL: &str = r#"
fn fill(a: []f64, n: i64, nthreads: i64) void {
    //$omp parallel num_threads(nthreads) shared(a) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < n) : (i += 1) {
            a[i] = 3.0;
        }
    }
}
"#;

/// With counters on, a template-carried loop reports every trip through
/// the `KernelEnter` telemetry: total native iterations equal the trip
/// count, no bails, and the result array is still correct.
#[test]
fn kernel_counters_fold_into_metrics() {
    let _g = serial();
    const N: usize = 4096;
    const THREADS: u64 = 4;
    let a = Arc::new(ArrF::new(N));
    let vm =
        Vm::build(FILL, Some("fill.zag"), Backend::Native, OptLevel::O3).expect("compile fill");
    trace::enable_counters();
    vm.call_function(
        "fill",
        vec![
            Value::ArrF(a.clone()),
            Value::Int(N as i64),
            Value::Int(THREADS as i64),
        ],
    )
    .expect("run fill");
    trace::disable_all();
    let m = trace::metrics();
    assert!(
        m.kernel_enters >= 1 && m.kernel_enters <= THREADS,
        "static schedule on {THREADS} threads: expected 1..={THREADS} kernel \
         entries, got {}",
        m.kernel_enters
    );
    assert_eq!(
        m.kernel_iters, N as u64,
        "every iteration of the fill loop must run inside the template"
    );
    assert_eq!(m.kernel_bails, 0, "an in-bounds fill must not bail");
    for i in 0..N as i64 {
        assert_eq!(a.get(i).unwrap(), 3.0);
    }
    trace::reset();
}

/// Run `name(args)` with counters on and return the outcome (result
/// rendered, or error text) plus the counter snapshot of that one call.
fn counted_call(
    vm: &Vm,
    name: &str,
    args: Vec<Value>,
) -> (Result<String, String>, trace::MetricsSnapshot) {
    trace::reset();
    trace::enable_counters();
    let r = vm.call_function(name, args);
    trace::disable_all();
    let m = trace::metrics();
    trace::reset();
    (r.map(|v| v.render()).map_err(|e| e.to_string()), m)
}

/// Annotations are not enforced at the host boundary: typeck emits
/// `ArithII` for an `i64`-annotated parameter, the host passes a Float,
/// and the specialised opcode must fall back to the generic one in
/// place — same result (`twice`) or same error text (`mixed`) as the
/// walker, and the fallback is counted.
#[test]
fn host_float_into_i64_param_deopts_to_the_walker_outcome() {
    let _g = serial();
    let src = r#"
fn twice(x: i64) i64 {
    return x + x;
}
fn mixed(x: i64, y: i64) i64 {
    return x + y;
}
"#;
    let oracle = Vm::build(src, None, Backend::Ast, OptLevel::O0).expect("compile oracle");
    let vm = Vm::build(src, None, Backend::Bytecode, OptLevel::O3).expect("compile");
    for (name, args) in [
        ("twice", vec![Value::Float(1.5)]),
        ("mixed", vec![Value::Float(1.5), Value::Int(2)]),
    ] {
        let (want, _) = counted_call(&oracle, name, args.clone());
        let (got, m) = counted_call(&vm, name, args);
        assert_eq!(got, want, "`{name}`");
        assert!(
            m.deopts >= 1,
            "`{name}`: the Int-specialised add must deopt on a Float"
        );
    }
}

/// Nothing is sticky: a template that bailed on an undersized buffer
/// (raising the walker's exact error) is tried again on the next call
/// from the same thread, and with a well-sized buffer carries every
/// iteration natively.
#[test]
fn kernel_bail_is_not_remembered_across_calls() {
    let _g = serial();
    const N: usize = 512;
    let vm =
        Vm::build(FILL, Some("fill.zag"), Backend::Native, OptLevel::O3).expect("compile fill");
    let oracle = Vm::build(FILL, Some("fill.zag"), Backend::Ast, OptLevel::O0).expect("oracle");
    let args = |len: usize| {
        vec![
            Value::ArrF(Arc::new(ArrF::new(len))),
            Value::Int(N as i64),
            Value::Int(1),
        ]
    };

    let (want, _) = counted_call(&oracle, "fill", args(N - 1));
    assert!(want.is_err(), "the oracle must run out of bounds: {want:?}");
    let (got, m) = counted_call(&vm, "fill", args(N - 1));
    assert_eq!(got, want, "bail must replay to the walker's error");
    assert!(m.kernel_bails >= 1, "the undersized fill must bail");

    let (got, m) = counted_call(&vm, "fill", args(N));
    assert_eq!(got, Ok("void".to_string()));
    assert_eq!(
        m.kernel_iters, N as u64,
        "the template must carry the whole loop again after an earlier bail"
    );
    assert_eq!(m.kernel_bails, 0);
}

/// A bail that is not an error: the loop is typed `[]i64` by its
/// annotations, the host hands `[]f64`, so no template variant binds
/// and the head bails at every chunk of every call. The walker's
/// result must hold across schedules and team sizes.
#[test]
fn type_bail_at_every_chunk_matches_the_walker() {
    let _g = serial();
    const N: usize = 203;
    const SQ: &str = r#"
fn sq(a: []i64, out: []i64, n: i64, nthreads: i64) void {
    //$omp parallel num_threads(nthreads) shared(a, out) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp while SCHEDULE
        while (i < n) : (i += 1) {
            out[i] = a[i] * a[i] - a[i];
        }
    }
}
"#;
    let run = |vm: &Vm, threads: i64| {
        let a = Arc::new(ArrF::new(N));
        for i in 0..N as i64 {
            a.set(i, 0.25 * i as f64 - 7.0).unwrap();
        }
        let out = Arc::new(ArrF::new(N));
        let (r, m) = counted_call(
            vm,
            "sq",
            vec![
                Value::ArrF(a),
                Value::ArrF(out.clone()),
                Value::Int(N as i64),
                Value::Int(threads),
            ],
        );
        let bits: Vec<u64> = (0..N as i64)
            .map(|i| out.get(i).unwrap().to_bits())
            .collect();
        (r, bits, m)
    };
    for sched in [
        "schedule(static)",
        "schedule(static, 5)",
        "schedule(dynamic, 7)",
    ] {
        let src = SQ.replace("SCHEDULE", sched);
        let vm = Vm::build(&src, None, Backend::Native, OptLevel::O3).expect("compile sq");
        assert!(
            vm.program
                .code
                .funcs
                .iter()
                .any(|f| !f.templates.is_empty()),
            "the typed loop must install a template under {sched}"
        );
        let oracle = Vm::build(&src, None, Backend::Ast, OptLevel::O0).expect("compile oracle");
        for threads in [1i64, 2, 4] {
            let (want, want_bits, _) = run(&oracle, threads);
            let (got, got_bits, m) = run(&vm, threads);
            assert_eq!(got, want, "{sched}, {threads} threads");
            assert_eq!(got_bits, want_bits, "{sched}, {threads} threads");
            assert!(m.kernel_bails >= 1, "{sched}: the []f64 input must bail");
            assert_eq!(m.kernel_iters, 0, "{sched}: no iteration may run typed");
        }
    }
}

/// The profiler's event fold sees the same run: one pragma loop,
/// labelled with its compilation unit, with (near-)all iterations
/// attributed to the native tier.
#[test]
fn tier_report_attributes_fill_loop_to_native() {
    let _g = serial();
    const N: usize = 4096;
    let a = Arc::new(ArrF::new(N));
    let vm =
        Vm::build(FILL, Some("fill.zag"), Backend::Native, OptLevel::O3).expect("compile fill");
    profile::reset();
    profile::enable();
    vm.call_function(
        "fill",
        vec![Value::ArrF(a), Value::Int(N as i64), Value::Int(4)],
    )
    .expect("run fill");
    profile::disable();
    let tiers = profile::tier_report();
    trace::reset();
    let t = tiers
        .iter()
        .find(|t| t.total_iters > 0)
        .expect("the fill pragma loop must appear in the tier report");
    assert!(
        t.label.starts_with("fill.zag:"),
        "loop label must carry the compilation unit: {}",
        t.label
    );
    assert_eq!(t.total_iters, N as u64);
    assert!(
        t.native_frac() > 0.99,
        "fill loop must be fully native, got {:.3} ({}/{} iters)",
        t.native_frac(),
        t.native_iters,
        t.total_iters
    );
    assert_eq!(t.bails, 0);
    assert_eq!(t.deopts, 0);
}

/// A `schedule(dynamic, 1)` loop whose body crosses a call boundary, so
/// no tier takes it and every iteration is one interpreted chunk claim:
/// inside a region (`nthreads >= 1`: the team deck) or orphaned
/// (`nthreads == 0`: the VM's serial deck). The never-taken recursive
/// branch is what keeps `weigh` a call: without it the inliner flattens
/// the body, the loop becomes a template and claims whole owner batches.
const CLAIMS: &str = r#"
fn weigh(v: i64) i64 {
    if (v < 0) {
        return weigh(0 - v);
    }
    return v % 13 + 1;
}
fn claims(out: []i64, n: i64, nthreads: i64) void {
    if (nthreads == 0) {
        var k: i64 = 0;
        //$omp while schedule(dynamic, 1)
        while (k < n) : (k += 1) {
            out[k] = out[k] + weigh(k);
        }
    } else {
        //$omp parallel num_threads(nthreads) shared(out) firstprivate(n)
        {
            var i: i64 = 0;
            //$omp while schedule(dynamic, 1)
            while (i < n) : (i += 1) {
                out[i] = out[i] + weigh(i);
            }
        }
    }
}
"#;

/// The chunk claim is one instruction (`wsnext`), and the split-phase
/// trace bookkeeping rides behind it: a traced `schedule(dynamic, 1)` loop
/// at a team of 2 counts `N` one-iteration claims and closes one chunk
/// span per claim; a team of one (and an orphaned loop) claims the whole
/// loop once and closes one span of `N`. Either way the per-thread
/// `LoopDispatch` spans keep the pragma label and the dispatch count of
/// a dynamic schedule, and carry shares that sum to `N`.
#[test]
fn traced_dynamic1_loop_closes_one_chunk_span_per_claim() {
    let _g = serial();
    const N: u64 = 1000;
    // `"key":123` → 123, for the one-entry-per-line Chrome trace export.
    let arg = |line: &str, key: &str| -> u64 {
        let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
        let digits: String = line[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        digits.parse().expect("numeric trace arg")
    };
    for (backend, opt) in [
        (Backend::Bytecode, OptLevel::O0),
        (Backend::Native, OptLevel::O3),
    ] {
        let vm = Vm::build(CLAIMS, Some("claims.zag"), backend, opt).expect("compile claims");
        for threads in [0u64, 1, 2] {
            let out = Arc::new(ArrI::new(N as usize));
            trace::reset();
            trace::enable_events();
            trace::enable_counters();
            vm.call_function(
                "claims",
                vec![
                    Value::ArrI(out.clone()),
                    Value::Int(N as i64),
                    Value::Int(threads as i64),
                ],
            )
            .expect("run claims");
            trace::disable_all();
            let m = trace::metrics();
            let json = trace::chrome_trace_json();
            trace::reset();
            let what = format!("{backend:?} {opt:?}, {threads} threads");

            for i in 0..N as i64 {
                assert_eq!(out.get(i).unwrap(), i % 13 + 1, "{what}: out[{i}]");
            }
            // One claim per iteration at a team of 2; one of `N` at 1.
            let (claims, len) = if threads == 2 { (N, 1) } else { (1, N) };
            assert_eq!(m.chunks_owned + m.chunks_stolen, claims, "{what}: claims");
            assert_eq!(
                m.iters_owned + m.iters_stolen,
                N,
                "{what}: claimed iterations"
            );
            let chunks: Vec<&str> = json
                .lines()
                .filter(|l| l.contains("\"cat\":\"chunk ("))
                .collect();
            assert_eq!(chunks.len() as u64, claims, "{what}: closed chunk spans");
            assert!(
                chunks.iter().all(|l| arg(l, "\"len\":") == len),
                "{what}: every chunk is {len} iterations"
            );
            let mut starts: Vec<u64> = chunks.iter().map(|l| arg(l, "\"start\":")).collect();
            starts.sort_unstable();
            let want: Vec<u64> = (0..N).step_by(len as usize).collect();
            assert_eq!(starts, want, "{what}: chunk starts");
            let loops: Vec<&str> = json
                .lines()
                .filter(|l| l.contains("\"cat\":\"loop\""))
                .collect();
            assert_eq!(loops.len() as u64, threads.max(1), "{what}: loop spans");
            assert_eq!(
                m.dispatch_inits,
                threads.max(1),
                "{what}: dynamic dispatches"
            );
            assert_eq!(
                m.dispatch_finis,
                threads.max(1),
                "{what}: dynamic dispatches"
            );
            assert!(
                loops.iter().all(|l| l.contains("\"name\":\"claims.zag:")),
                "{what}: loop spans carry the pragma label: {loops:?}"
            );
            let trips: u64 = loops.iter().map(|l| arg(l, "\"trip\":")).sum();
            assert_eq!(trips, N, "{what}: per-thread loop spans sum to the trip");
        }
    }
}

/// The benchmark's `vm_generic` stencil kind (a 3-point float stencil
/// and an int sum of squares, both template loops) plus a serial
/// histogram no fixed kernel takes.
const STENCIL_AND_HIST: &str = r#"
fn stencil(u: []f64, v: []f64, x: []i64, n: i64, reps: i64, nthreads: i64) i64 {
    var acc: i64 = 0;
    //$omp parallel num_threads(nthreads) shared(u, v, x) firstprivate(n, reps) reduction(+: acc)
    {
        var r: i64 = 0;
        while (r < reps) : (r += 1) {
            var i: i64 = 1;
            //$omp while schedule(static) nowait
            while (i < n - 1) : (i += 1) {
                v[i] = 0.25 * u[i - 1] + 0.5 * u[i] + 0.25 * u[i + 1];
            }
            var j: i64 = 0;
            //$omp while schedule(static) nowait
            while (j < n) : (j += 1) {
                acc = acc + x[j] * x[j];
            }
        }
    }
    return acc;
}
fn hist(key: []i64, h: []i64, n: i64) void {
    var i: i64 = 0;
    while (i < n) : (i += 1) {
        h[key[i]] += 1;
    }
}
"#;

/// Every `template-installed` remark says how the loop runs: the two
/// benchmark loops are distributable and report `strip`, the histogram
/// stores through a gathered index and reports the rule that keeps it
/// scalar — in the text remark and in `--remarks=json` alike.
#[test]
fn template_remarks_carry_the_strip_verdict() {
    let diags = zomp_vm::remarks::collect(STENCIL_AND_HIST, "stencil.zag", OptLevel::O3)
        .expect("compile stencil");
    let installed: Vec<&str> = diags
        .iter()
        .filter(|d| d.code == "template-installed")
        .map(|d| d.message.as_str())
        .collect();
    let verdict_of = |func: &str, insns: &str| {
        let m = installed
            .iter()
            .find(|m| m.contains(func) && m.contains(insns))
            .unwrap_or_else(|| panic!("no {insns} template in {func}: {installed:?}"));
        m.rsplit_once("), ").expect("verdict suffix").1
    };
    assert_eq!(verdict_of("__omp_outlined_0", "13 insns"), "strip");
    assert_eq!(verdict_of("__omp_outlined_0", "5 insns"), "strip");
    assert_eq!(verdict_of("`hist`", "6 insns"), "scalar: non-affine-store");
    let json = zomp_vm::remarks::render_json(&diags, STENCIL_AND_HIST);
    assert!(json.contains("(pc 2), scalar: non-affine-store"), "{json}");
}

fn arr_i(v: impl IntoIterator<Item = i64>) -> Arc<ArrI> {
    let v: Vec<i64> = v.into_iter().collect();
    let a = Arc::new(ArrI::new(v.len()));
    for (i, x) in v.into_iter().enumerate() {
        a.set(i as i64, x).unwrap();
    }
    a
}

fn arr_f(v: &[f64]) -> Arc<ArrF> {
    let a = Arc::new(ArrF::new(v.len()));
    for (i, &x) in v.iter().enumerate() {
        a.set(i as i64, x).unwrap();
    }
    a
}

/// The three NPB ports with small inputs: `(source, unit, entry, args)`.
fn npb_ports() -> Vec<(&'static str, &'static str, &'static str, Vec<Value>)> {
    const THREADS: i64 = 2;
    let mat = npb::cg::makea::makea(&npb::class::CgParams {
        class: npb::class::Class::S,
        na: 160,
        nonzer: 4,
        niter: 1,
        shift: 7.0,
        zeta_verify: f64::NAN,
    });
    let cg = vec![
        Value::Int(mat.n as i64),
        Value::ArrI(arr_i(mat.rowstr.iter().map(|&v| v as i64))),
        Value::ArrI(arr_i(mat.colidx.iter().map(|&v| v as i64))),
        Value::ArrF(arr_f(&mat.a)),
        Value::ArrF(arr_f(&vec![1.0; mat.n])),
        Value::ArrF(Arc::new(ArrF::new(mat.n))),
        Value::Int(2),
        Value::Int(THREADS),
    ];
    let ep = vec![
        Value::Int(10),
        Value::Int(8),
        Value::Int(THREADS),
        Value::ArrF(Arc::new(ArrF::new(10))),
    ];
    let (maxlog, nblog) = (11u32, 5u32);
    let keys = npb::is::create_seq(&npb::is::custom_params(12, maxlog, nblog));
    let nb = 1usize << nblog;
    let is = vec![
        Value::ArrI(arr_i(keys.iter().map(|&k| k as i64))),
        Value::Int(keys.len() as i64),
        Value::Int(maxlog as i64),
        Value::Int(nblog as i64),
        Value::ArrI(Arc::new(ArrI::new(THREADS as usize * nb))),
        Value::ArrI(Arc::new(ArrI::new(nb + 1))),
        Value::ArrI(Arc::new(ArrI::new(keys.len()))),
        Value::ArrI(Arc::new(ArrI::new(1usize << maxlog))),
        Value::Int(THREADS),
    ];
    vec![
        (ZAG_MATVEC, "cg.zag", "matvec", cg),
        (ZAG_EP, "ep.zag", "ep", ep),
        (ZAG_RANK, "is.zag", "rank", is),
    ]
}

/// A fixed kernel earns its place by running: on the CG, EP and IS
/// ports at `--opt=3` the pcs the `Kernel` probe reports (template heads
/// aside) are exactly the image's `BulkLoop` pcs, nothing bails, and the
/// shapes seen across the three ports are exactly [`KernelKind::NAMES`].
/// A kernel that only shadows another — installed inside an enclosing
/// kernel's span, so reached only after that one bails — fails here.
#[test]
fn every_installed_kernel_is_entered() {
    let _g = serial();
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for (source, unit, entry, args) in npb_ports() {
        let vm = Vm::build(source, Some(unit), Backend::Native, OptLevel::O3).expect("compile");
        let mut bulk: Vec<(u32, &str)> = Vec::new();
        let mut templates: BTreeSet<u32> = BTreeSet::new();
        for f in &vm.program.code.funcs {
            for (pc, insn) in f.code.iter().enumerate() {
                match *insn {
                    Insn::BulkLoop { kidx } => {
                        bulk.push((pc as u32, f.kernels[kidx as usize].kind.name()))
                    }
                    Insn::TemplateLoop { .. } => {
                        templates.insert(pc as u32);
                    }
                    _ => {}
                }
            }
        }
        let installed: BTreeSet<u32> = bulk.iter().map(|&(pc, _)| pc).collect();
        assert!(
            installed.len() == bulk.len() && installed.is_disjoint(&templates),
            "{unit}: loop-head pcs must be unique across functions for the probe's \
             pc to identify a kernel: {bulk:?} vs templates {templates:?}"
        );

        let runs: Arc<Mutex<Vec<(u32, bool)>>> = Arc::default();
        let sink = Arc::clone(&runs);
        trace::register_callback(move |p| {
            if let trace::Probe::Kernel { pc, bail, .. } = p {
                sink.lock().unwrap().push((*pc, bail.is_some()));
            }
        });
        let r = vm.call_function(entry, args);
        trace::clear_callbacks();
        r.unwrap_or_else(|e| panic!("run {unit}: {e}"));

        let runs = runs.lock().unwrap();
        assert!(
            runs.iter().all(|&(_, bailed)| !bailed),
            "{unit}: no kernel or template may bail: {runs:?}"
        );
        let entered: BTreeSet<u32> = runs
            .iter()
            .map(|&(pc, _)| pc)
            .filter(|pc| !templates.contains(pc))
            .collect();
        assert_eq!(
            entered, installed,
            "{unit}: entered kernel pcs vs installed {bulk:?}"
        );
        names.extend(bulk.iter().map(|&(_, name)| name));
    }
    assert_eq!(
        names,
        BTreeSet::from(KernelKind::NAMES),
        "the ports must install (and so enter) every kernel shape"
    );
}

/// `lcg-fill` runs jump-ahead streams only on a seed and multiplier
/// that are integers in `[0, 2^46)`; a fill that has to run one stream
/// instead says so through the `Deopt` probe, once per kernel entry,
/// under the kernel's own pc. The EP port as shipped never does; with
/// half a unit added to its seed every batch does, and still computes
/// what the walker computes.
#[test]
fn sequential_lcg_fill_is_counted_as_a_deopt() {
    let _g = serial();
    const PORT_SEED: &str = "271828183.0";
    assert!(ZAG_EP.contains(PORT_SEED), "the EP port's seed spelling");
    let (m, mk) = (9i64, 5i64);
    let batches = 1u64 << (m - mk);
    let args = || {
        vec![
            Value::Int(m),
            Value::Int(mk),
            Value::Int(1),
            Value::ArrF(Arc::new(ArrF::new(10))),
        ]
    };
    for (seed, sequential_fills) in [(PORT_SEED, 0), ("271828183.5", batches)] {
        let source = ZAG_EP.replacen(PORT_SEED, seed, 1);
        let oracle = Vm::build(&source, None, Backend::Ast, OptLevel::O0).expect("compile oracle");
        let vm =
            Vm::build(&source, Some("ep.zag"), Backend::Native, OptLevel::O3).expect("compile");
        let fill_pc = vm
            .program
            .code
            .funcs
            .iter()
            .flat_map(|f| f.code.iter().enumerate().map(move |(pc, i)| (f, pc, i)))
            .find_map(|(f, pc, insn)| match *insn {
                Insn::BulkLoop { kidx } if f.kernels[kidx as usize].kind.name() == "lcg-fill" => {
                    Some(pc as u32)
                }
                _ => None,
            })
            .expect("the port installs lcg-fill");

        let deopts: Arc<Mutex<Vec<(String, u32)>>> = Arc::default();
        let sink = Arc::clone(&deopts);
        trace::register_callback(move |p| {
            if let trace::Probe::Deopt { rewrite, pc } = p {
                sink.lock().unwrap().push((rewrite.to_string(), *pc));
            }
        });
        let (got, metrics) = counted_call(&vm, "ep", args());
        trace::clear_callbacks();
        let (want, _) = counted_call(&oracle, "ep", args());
        assert_eq!(got, want, "seed {seed}");
        assert_eq!(metrics.kernel_bails, 0, "seed {seed}");
        assert_eq!(metrics.deopts, sequential_fills, "seed {seed}");
        assert_eq!(
            *deopts.lock().unwrap(),
            vec![("lcg-fill:sequential".to_string(), fill_pc); sequential_fills as usize],
            "seed {seed}"
        );
    }
}
