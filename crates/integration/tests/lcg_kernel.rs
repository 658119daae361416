//! Properties of the cross-call `lcg-fill` bulk kernel and of EP's
//! acceptance tail, which runs as a strip template after it.
//!
//! The differential EP test (`zag_ep.rs`) proves whole-program
//! agreement at one size; these tests pin the *kernel contract*
//! directly against the native `npb::randlc` primitives:
//!
//! 1. **Stream identity.** Batch `k`'s seed is `s·anᵏ` where
//!    `an = a^(2nk)` — exactly the sequential stream state after
//!    `k·2nk` steps. So the concatenation of every batch's fill
//!    output equals ONE sequential stream, bit for bit, no matter how
//!    the worksharing runtime chunks, schedules, or steals the
//!    batches. The property test runs the Zag fill through the
//!    `lcg-fill` kernel across seeds × sizes × schedules × team sizes
//!    and compares every double with `to_bits` equality against a
//!    per-element `npb::randlc::randlc` loop (not `vranlc`, which
//!    leapfrogs like the kernel does).
//! 2. **Bail identity.** When a kernel batch runs out of bounds
//!    mid-flight, the bail/replay path must surface the *exact*
//!    error the AST oracle produces — same message, same index —
//!    for both the fill kernel and the pairs template.
//! 3. **Leapfrog exactness.** On integer seeds and multipliers in
//!    `[0, 2^46)` the fill kernel runs jump-ahead streams instead of
//!    one (`LCG_WIDE_STREAMS` at AVX2 width, `LCG_STREAMS` otherwise);
//!    DESIGN argues that every intermediate is then an exact integer, and `one_fill` checks it: the same one-claim
//!    program through the kernel, through `--opt=0` and through the
//!    tree-walker (both of which call the interpreted `randlc` once per
//!    element) must agree on every deviate, the final seed cell and —
//!    out of bounds — the error, on both sides of the precondition.
//! 4. **Verified calls.** Outside a fill loop, a call of the verified
//!    `randlc` with a `Float` cell and a `Float` multiplier runs as one
//!    native LCG step at `--opt=3`; it must leave the same return value
//!    and the same cell as the interpreted body of `--opt=0` and the
//!    tree-walker, and any other argument type (or a call past the
//!    depth limit) must end as those oracles end.
//!
//! Every test that runs a VM holds [`serial`]: one of them reads the
//! process-wide trace counters, which a kernel bail in any other test
//! running at the same time would bump.

use std::sync::Arc;

use npb::randlc::randlc;
use zomp_vm::kernels::{LCG_STREAMS, LCG_WIDE_STREAMS};
use zomp_vm::value::{ArrF, Value};
use zomp_vm::{Backend, OptLevel, Vm};

fn serial() -> parking_lot::MutexGuard<'static, ()> {
    static M: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    M.lock()
}

/// The NPB 46-bit LCG step, ported exactly like `zag_ep.rs`: the callee
/// every program below calls, and the matcher verifies.
const RANDLC: &str = r#"
fn randlc(x: *f64, a: f64) f64 {
    var r23: f64 = 0.00000011920928955078125;
    var t23: f64 = 8388608.0;
    var r46: f64 = r23 * r23;
    var t46: f64 = t23 * t23;
    var t1: f64 = r23 * a;
    var a1: f64 = @intToFloat(@floatToInt(t1));
    var a2: f64 = a - t23 * a1;
    t1 = r23 * x.*;
    var x1: f64 = @intToFloat(@floatToInt(t1));
    var x2: f64 = x.* - t23 * x1;
    t1 = a1 * x2 + a2 * x1;
    var t2: f64 = @intToFloat(@floatToInt(r23 * t1));
    var zz: f64 = t1 - t23 * t2;
    var t3: f64 = t23 * zz + a2 * x2;
    var t4: f64 = @intToFloat(@floatToInt(r46 * t3));
    x.* = t3 - t46 * t4;
    return r46 * x.*;
}
"#;

/// [`RANDLC`]'s batch seeding, ported exactly like `zag_ep.rs`,
/// driving a work-shared fill whose inner loop is the `lcg-fill`
/// kernel shape. Each batch lands its deviates in `out` at the
/// batch's stream offset, so `out` reassembles the sequential stream.
/// The `SCHEDULE` placeholder is substituted per test variant.
const LCG_FILL: &str = r#"
fn compute_an(a: f64, mk: i64) f64 {
    var t1: f64 = a;
    var i: i64 = 0;
    while (i < mk + 1) : (i += 1) {
        var t: f64 = t1;
        _ = randlc(&t1, t);
    }
    return t1;
}

fn batch_seed(s: f64, an: f64, kk0: i64) f64 {
    var t1: f64 = s;
    var t2: f64 = an;
    var kk: i64 = kk0;
    var i: i64 = 0;
    while (i < 100) : (i += 1) {
        var ik: i64 = kk / 2;
        if (2 * ik != kk) {
            _ = randlc(&t1, t2);
        }
        if (ik == 0) {
            break;
        }
        var t: f64 = t2;
        _ = randlc(&t2, t);
        kk = ik;
    }
    return t1;
}

fn fill(s: f64, a: f64, mk: i64, batches: i64, nthreads: i64, out: []f64) f64 {
    var nk: i64 = 1;
    var i0: i64 = 0;
    while (i0 < mk) : (i0 += 1) {
        nk = nk * 2;
    }
    var an: f64 = compute_an(a, mk);
    //$omp parallel num_threads(nthreads) shared(out) firstprivate(s, a, an, nk, batches)
    {
        var x: []f64 = @allocF(2 * nk);
        var k: i64 = 0;
        //$omp while SCHEDULE
        while (k < batches) : (k += 1) {
            var t1: f64 = batch_seed(s, an, k);
            var j: i64 = 0;
            while (j < 2 * nk) : (j += 1) {
                x[j] = randlc(&t1, a);
            }
            var j2: i64 = 0;
            while (j2 < 2 * nk) : (j2 += 1) {
                out[2 * nk * k + j2] = x[j2];
            }
        }
    }
    return 0.0;
}
"#;

/// Concatenated kernel output across every schedule/team shape equals
/// the one sequential stream `vranlc` is specified to produce, bit for
/// bit — generated here by a per-element `randlc` loop.
#[test]
fn lcg_fill_kernel_reproduces_vranlc_stream_bitwise() {
    let _g = serial();
    for sched in [
        "schedule(static)",
        "schedule(static, 3)",
        "schedule(dynamic, 1)",
        "schedule(dynamic, 2)",
        "schedule(guided)",
    ] {
        let src = format!("{RANDLC}{}", LCG_FILL.replace("SCHEDULE", sched));
        // The kernel must actually be installed in this variant —
        // a silent fall-back to the interpreter would pass the
        // stream check without testing anything.
        let diags =
            zomp_vm::remarks::collect(&src, "lcgprop.zag", OptLevel::O3).expect("collect remarks");
        assert!(
            diags
                .iter()
                .any(|d| d.code == "kernel-installed" && d.message.contains("lcg-fill")),
            "lcg-fill not installed under {sched}: {diags:#?}"
        );
        let vm = Vm::build(&src, None, Backend::Native, OptLevel::O3)
            .unwrap_or_else(|e| panic!("{}", e.render(&src)));
        for (seed, mult) in [
            (314_159_265.0f64, 1_220_703_125.0f64),
            (271_828_183.0, 1_220_703_125.0),
            (77.0, 5.0f64.powi(13)),
        ] {
            for (mk, batches) in [(6i64, 8i64), (5, 16), (7, 1)] {
                let nk = 1i64 << mk;
                let total = (2 * nk * batches) as usize;
                let mut t = seed;
                let want: Vec<f64> = (0..total).map(|_| randlc(&mut t, mult)).collect();
                for threads in [1i64, 2, 4] {
                    let out = Arc::new(ArrF::new(total));
                    vm.call_function(
                        "fill",
                        vec![
                            Value::Float(seed),
                            Value::Float(mult),
                            Value::Int(mk),
                            Value::Int(batches),
                            Value::Int(threads),
                            Value::ArrF(Arc::clone(&out)),
                        ],
                    )
                    .expect("run fill");
                    for (i, &w) in want.iter().enumerate() {
                        let got = out.get(i as i64).unwrap();
                        assert_eq!(
                            got.to_bits(),
                            w.to_bits(),
                            "stream diverged at element {i} of {total} \
                             ({sched}, seed {seed}, mk {mk}, {threads} threads): \
                             kernel {got:e} vs randlc {w:e}"
                        );
                    }
                }
            }
        }
    }
}

/// EP's batch loop with the buffer sizes as parameters: `xlen` sizes
/// the deviate buffer (the fill kernel's store target), `qlen` the
/// private annulus counts (the pairs kernel's scatter target).
/// Undersizing either forces a mid-batch out-of-bounds in the
/// corresponding kernel.
const EP_BAIL: &str = r#"
fn ep(nk: i64, batches: i64, xlen: i64, qlen: i64, qq: []f64, q: []f64) f64 {
    var a: f64 = 1220703125.0;
    var s: f64 = 271828183.0;
    var sx: f64 = 0.0;
    var sy: f64 = 0.0;
    //$omp parallel num_threads(1) shared(q) firstprivate(a, s, nk, batches, xlen, qlen, qq) reduction(+: sx, sy)
    {
        var x: []f64 = @allocF(xlen);
        var k: i64 = 0;
        //$omp while schedule(static)
        while (k < batches) : (k += 1) {
            var t1: f64 = s;
            var j: i64 = 0;
            while (j < 2 * nk) : (j += 1) {
                x[j] = randlc(&t1, a);
            }
            var i: i64 = 0;
            while (i < nk) : (i += 1) {
                var x1: f64 = 2.0 * x[2 * i] - 1.0;
                var x2: f64 = 2.0 * x[2 * i + 1] - 1.0;
                var tt: f64 = x1 * x1 + x2 * x2;
                if (tt <= 1.0) {
                    var t2: f64 = @sqrt(-2.0 * @log(tt) / tt);
                    var t3: f64 = x1 * t2;
                    var t4: f64 = x2 * t2;
                    var l: i64 = @floatToInt(@max(@abs(t3), @abs(t4)));
                    qq[l] = qq[l] + 1.0;
                    sx = sx + t3;
                    sy = sy + t4;
                }
            }
        }
        var b: i64 = 0;
        while (b < qlen) : (b += 1) {
            //$omp atomic
            q[b] += qq[b];
        }
    }
    return sx + sy;
}
"#;

/// The result, and the annulus counts `qq` (of length `qlen`, from the
/// host) as the run left them — after an error, the counts of every
/// iteration before the failing one.
fn run_ep_bail(
    backend: Backend,
    opt: OptLevel,
    xlen: i64,
    qlen: i64,
) -> (Result<f64, String>, Vec<f64>) {
    let src = format!("{RANDLC}{EP_BAIL}");
    let vm = Vm::build(&src, None, backend, opt).unwrap_or_else(|e| panic!("{}", e.render(&src)));
    if backend == Backend::Native && opt == OptLevel::O3 {
        assert!(
            vm.program.code.funcs.iter().any(|f| !f.kernels.is_empty()),
            "expected bulk kernels to install for the bail program"
        );
    }
    let (q, qq) = (Arc::new(ArrF::new(10)), Arc::new(ArrF::new(qlen as usize)));
    let r = vm
        .call_function(
            "ep",
            vec![
                Value::Int(64),
                Value::Int(4),
                Value::Int(xlen),
                Value::Int(qlen),
                Value::ArrF(qq.clone()),
                Value::ArrF(q),
            ],
        )
        .map(|v| v.as_float().unwrap())
        .map_err(|e| e.to_string());
    (r, qq.to_vec())
}

/// In bounds, every tier agrees on the sums; the O3 build really holds
/// kernels (asserted inside the runner).
#[test]
fn ep_bail_program_agrees_in_bounds() {
    let _g = serial();
    let oracle = run_ep_bail(Backend::Ast, OptLevel::O0, 128, 10);
    assert!(oracle.0.is_ok(), "{oracle:?}");
    for (backend, opt) in [
        (Backend::Bytecode, OptLevel::O0),
        (Backend::Native, OptLevel::O3),
    ] {
        assert_eq!(
            run_ep_bail(backend, opt, 128, 10),
            oracle,
            "{backend:?} {opt:?}"
        );
    }
}

/// An undersized deviate buffer makes the `lcg-fill` batch run out of
/// bounds on its last store: the kernel must bail and replay to the
/// oracle's exact out-of-bounds error.
#[test]
fn lcg_fill_bail_reproduces_oracle_error() {
    let _g = serial();
    let oracle = run_ep_bail(Backend::Ast, OptLevel::O0, 127, 10);
    let err = oracle.0.clone().expect_err("fill must go out of bounds");
    assert!(err.contains("bounds") || err.contains("index"), "{err}");
    for (backend, opt) in [
        (Backend::Bytecode, OptLevel::O0),
        (Backend::Bytecode, OptLevel::O3),
        (Backend::Native, OptLevel::O3),
    ] {
        assert_eq!(
            run_ep_bail(backend, opt, 127, 10),
            oracle,
            "{backend:?} {opt:?}"
        );
    }
}

/// An undersized annulus array makes the pairs loop's update, in its
/// `if` arm, go out of bounds partway through a batch. The loop
/// is a strip template whose update skips the lanes whose test failed:
/// it faults at the walker's iteration — the counts stored before the
/// fault are the walker's — with the walker's error.
#[test]
fn ep_pairs_bail_reproduces_oracle_error() {
    let _g = serial();
    let src = format!("{RANDLC}{EP_BAIL}");
    let remarks = zomp_vm::remarks::collect(&src, "ep.zag", OptLevel::O3).unwrap();
    assert!(
        remarks.iter().any(|d| d.code == "template-installed"
            && d.message.contains("32 insns")
            && d.message.contains("), strip")),
        "the pairs loop should be a strip template: {remarks:#?}"
    );
    // One annulus faults at the first pair it takes; two take pairs
    // first, so their counts show where the fault happened.
    for qlen in [1, 2] {
        let oracle = run_ep_bail(Backend::Ast, OptLevel::O0, 128, qlen);
        let err = oracle
            .0
            .clone()
            .expect_err("pairs scatter must go out of bounds");
        assert!(err.contains("bounds") || err.contains("index"), "{err}");
        assert!(
            qlen == 1 || oracle.1.iter().sum::<f64>() > 0.0,
            "{oracle:?}"
        );
        for (backend, opt) in [
            (Backend::Bytecode, OptLevel::O0),
            (Backend::Bytecode, OptLevel::O3),
            (Backend::Native, OptLevel::O3),
        ] {
            assert_eq!(
                run_ep_bail(backend, opt, 128, qlen),
                oracle,
                "{backend:?} {opt:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Type surprises
// ---------------------------------------------------------------------------

/// EP's batch loop with the type of four inputs chosen by the host: the
/// deviate buffer `x` (`[]i64` when `xint == 1`), the annulus counts `qq`
/// (likewise `qint`), the seed `s` the fill's seed cell starts from, and
/// the `sx` accumulator's start `sx0`. The
/// annotations name the types the kernels expect; Zag does not enforce
/// them, so nothing but the kernels' entry checks stands between a
/// wrong-typed input and a wrong result.
const EP_TYPES: &str = r#"
fn buf(int: i64, n: i64) any {
    if (int == 1) {
        return @allocI(n);
    }
    return @allocF(n);
}

fn ep(nk: i64, batches: i64, s: f64, sx0: f64, xint: i64, qint: i64, nthreads: i64) f64 {
    var a: f64 = 1220703125.0;
    var sx: f64 = sx0;
    var sy: f64 = 0.0;
    //$omp parallel num_threads(nthreads) firstprivate(a, s, nk, batches, xint, qint) reduction(+: sx, sy)
    {
        var x: []f64 = buf(xint, 2 * nk);
        var qq: []f64 = buf(qint, 10);
        var k: i64 = 0;
        //$omp while schedule(static)
        while (k < batches) : (k += 1) {
            var t1: f64 = s;
            var j: i64 = 0;
            while (j < 2 * nk) : (j += 1) {
                x[j] = randlc(&t1, a);
            }
            var i: i64 = 0;
            while (i < nk) : (i += 1) {
                var x1: f64 = 2.0 * x[2 * i] - 1.0;
                var x2: f64 = 2.0 * x[2 * i + 1] - 1.0;
                var tt: f64 = x1 * x1 + x2 * x2;
                if (tt <= 1.0) {
                    var t2: f64 = @sqrt(-2.0 * @log(tt) / tt);
                    var t3: f64 = x1 * t2;
                    var t4: f64 = x2 * t2;
                    var l: i64 = @floatToInt(@max(@abs(t3), @abs(t4)));
                    qq[l] = qq[l] + 1.0;
                    sx = sx + t3;
                    sy = sy + t4;
                }
            }
        }
    }
    return sx + sy;
}
"#;

/// The fill kernel installs on the generic instruction forms and the
/// pairs loop is a strip template, and each wrong-typed input makes one
/// of them bail at entry: `x` as `[]i64` and an `Int` seed cell
/// (`lcg-fill`); an `Int` `sx` accumulator and a `[]i64` `qq` (the
/// template, whose variant bind falls through to the interpreter). The
/// interpreter then replays the loop to the walker's result or error
/// text, at teams of 1 and 2. With every input as annotated, nothing
/// bails.
#[test]
fn ep_kernels_bail_on_each_wrong_typed_input() {
    let _g = serial();
    let src = format!("{RANDLC}{EP_TYPES}");
    let build = |backend, opt| {
        Vm::build(&src, None, backend, opt).unwrap_or_else(|e| panic!("{}", e.render(&src)))
    };
    let vm = build(Backend::Bytecode, OptLevel::O3);
    let walker = build(Backend::Ast, OptLevel::O0);
    let installed: Vec<&str> = (vm.program.code.funcs.iter())
        .flat_map(|f| f.kernels.iter().map(|k| k.kind.name()))
        .collect();
    assert_eq!(installed, ["lcg-fill"]);
    let templates: Vec<String> = (vm.program.code.funcs.iter())
        .flat_map(|f| {
            f.templates
                .iter()
                .map(|t| (t.prog.ninsns, t.prog.verdict()))
        })
        .filter(|(n, _)| *n == 32)
        .map(|(_, v)| v)
        .collect();
    assert_eq!(templates, ["strip"]);
    let (seed, f0) = (Value::Float(271_828_183.0), Value::Float(0.0));
    let cases = [
        ("as annotated", seed.clone(), f0.clone(), 0, 0),
        ("x: []i64", seed.clone(), f0.clone(), 1, 0),
        ("Int seed cell", Value::Int(271_828_183), f0.clone(), 0, 0),
        ("Int sx", seed.clone(), Value::Int(0), 0, 0),
        ("qq: []i64", seed, f0, 0, 1),
    ];
    for (what, s, sx0, xint, qint) in cases {
        for threads in [1i64, 2] {
            let args = || {
                let (nk, batches) = (Value::Int(64), Value::Int(4));
                let (xint, qint) = (Value::Int(xint), Value::Int(qint));
                vec![
                    nk,
                    batches,
                    s.clone(),
                    sx0.clone(),
                    xint,
                    qint,
                    Value::Int(threads),
                ]
            };
            let run = |vm: &Vm| {
                (vm.call_function("ep", args()))
                    .map(|v| v.render())
                    .map_err(|e| e.to_string())
            };
            let want = run(&walker);
            zomp::trace::reset();
            zomp::trace::enable_counters();
            let got = run(&vm);
            zomp::trace::disable_all();
            let m = zomp::trace::metrics();
            zomp::trace::reset();
            assert_eq!(got, want, "{what}, {threads} threads");
            if xint == 0 && qint == 0 && matches!((&s, &sx0), (Value::Float(_), Value::Float(_))) {
                assert!(want.is_ok(), "{want:?}");
                assert_eq!(m.kernel_bails, 0, "{what}, {threads} threads");
                assert!(m.kernel_iters > 0, "{what}, {threads} threads");
            } else {
                assert!(want.is_err(), "{what}: {want:?}");
                assert!(m.kernel_bails >= 1, "{what}, {threads} threads");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One claim of the fill kernel, driven directly
// ---------------------------------------------------------------------------

/// One claim `[lo, 2·nk)` of the `lcg-fill` shape. The seed cell comes
/// from the host so its final state is readable after a run that ended
/// in an error as well.
const ONE_FILL: &str = r#"
fn fill(t: *f64, a: f64, lo: i64, nk: i64, x: []f64) i64 {
    var j: i64 = lo;
    while (j < 2 * nk) : (j += 1) {
        x[j] = randlc(t, a);
    }
    return j;
}
"#;

const N: i64 = LCG_STREAMS as i64;
const T23: f64 = 8_388_608.0;
const T46: f64 = T23 * T23;

/// What one `fill` call leaves behind: its result (final `j`, or the
/// error text), every element of `x`, and the seed cell.
#[derive(Debug)]
struct Filled {
    result: Result<i64, String>,
    x: Vec<u64>,
    seed: u64,
}

/// NaNs compare by class, everything else by bits: which of two NaN
/// operands an x86 `mulsd`/`addsd` propagates depends on operand order,
/// which the compiler may pick differently for the kernel and for the
/// interpreter's one-op-at-a-time arithmetic.
fn same_f64(a: u64, b: u64) -> bool {
    a == b || (f64::from_bits(a).is_nan() && f64::from_bits(b).is_nan())
}

impl Filled {
    fn assert_same(&self, want: &Filled, what: &str) {
        assert_eq!(self.result, want.result, "{what}: result");
        assert!(
            same_f64(self.seed, want.seed),
            "{what}: seed cell {:#x} vs oracle {:#x}",
            self.seed,
            want.seed
        );
        for (i, (&g, &w)) in self.x.iter().zip(&want.x).enumerate() {
            assert!(
                same_f64(g, w),
                "{what}: x[{i}] = {:e} ({g:#x}) vs oracle {:e} ({w:#x})",
                f64::from_bits(g),
                f64::from_bits(w)
            );
        }
    }
}

/// The three tiers `one_fill` compares: the kernel, and the two oracles
/// that call the interpreted `randlc` once per element.
struct Tiers {
    kernel: Vm,
    o0: Vm,
    walker: Vm,
}

impl Tiers {
    fn new() -> Tiers {
        let src = format!("{RANDLC}{ONE_FILL}");
        let build = |backend, opt| {
            Vm::build(&src, None, backend, opt).unwrap_or_else(|e| panic!("{}", e.render(&src)))
        };
        let kernel = build(Backend::Bytecode, OptLevel::O3);
        let installed: Vec<&str> = kernel
            .program
            .code
            .funcs
            .iter()
            .flat_map(|f| f.kernels.iter().map(|k| k.kind.name()))
            .collect();
        assert_eq!(installed, ["lcg-fill"], "the loop under test is the kernel");
        Tiers {
            kernel,
            o0: build(Backend::Bytecode, OptLevel::O0),
            walker: build(Backend::Ast, OptLevel::O0),
        }
    }

    /// Fill `len` elements from index `lo` of an `xlen`-element array on
    /// every tier and require the kernel and `--opt=0` to match the
    /// walker. Returns the walker's outcome.
    fn one_fill(&self, seed: f64, mult: f64, lo: i64, len: i64, xlen: usize) -> Filled {
        // `lim = 2·nk`, so an odd `lo + len` is reached by starting one
        // element earlier; the caller's `lo` only needs to be *a* start.
        let lim = lo + len + ((lo + len) & 1);
        let lo = lim - len;
        let run = |vm: &Vm| {
            let cell = Arc::new(parking_lot::Mutex::new(Value::Float(seed)));
            let x = Arc::new(ArrF::new(xlen));
            let result = vm
                .call_function(
                    "fill",
                    vec![
                        Value::Ptr(Arc::clone(&cell)),
                        Value::Float(mult),
                        Value::Int(lo),
                        Value::Int(lim / 2),
                        Value::ArrF(Arc::clone(&x)),
                    ],
                )
                .map(|v| v.as_int().expect("fill returns j"))
                .map_err(|e| e.to_string());
            let seed = cell.lock().as_float().expect("seed cell stays a float");
            Filled {
                result,
                x: x.to_vec().into_iter().map(f64::to_bits).collect(),
                seed: seed.to_bits(),
            }
        };
        let want = run(&self.walker);
        let what =
            format!("seed {seed:e}, multiplier {mult:e}, {len} elements from {lo} of {xlen}");
        run(&self.o0).assert_same(&want, &format!("--opt=0, {what}"));
        run(&self.kernel).assert_same(&want, &format!("kernel, {what}"));
        want
    }
}

/// xorshift64*: the cases are a pure function of the constant below.
struct Cases(u64);

impl Cases {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    /// A seed or multiplier the leapfrog accepts: the corners of the
    /// exactness argument, NPB's own constants, and random 46-bit values
    /// of either parity.
    fn exact(&mut self) -> f64 {
        let r46 = self.next() >> 18;
        match self.below(12) {
            0 => 0.0,
            1 => 1.0,
            2 => T23 - 1.0,
            3 => T23,
            4 => T46 - 1.0,
            5 => 271_828_183.0,
            6 => 1_220_703_125.0,
            7 => (r46 & !1) as f64,
            8 => (r46 | 1) as f64,
            // Passes the range test like `0.0`; a step never yields it.
            9 => -0.0,
            _ => r46 as f64,
        }
    }
    /// Lengths around the group size (`0..=3N+1`: no group, the
    /// two-group minimum, every tail) three times in five; around two,
    /// three and four groups of the AVX2 width (the 8-stream/32-stream
    /// boundary and the wide tail) one time in five; `2^k ± 1` up to
    /// 513 otherwise.
    fn len(&mut self) -> i64 {
        let w = LCG_WIDE_STREAMS as i64;
        match self.below(5) {
            0 => (1i64 << (1 + self.below(9))) + self.below(3) as i64 - 1,
            1 => (2 + self.below(3) as i64) * w + self.below(3) as i64 - 1,
            _ => self.below(3 * N as u64 + 2) as i64,
        }
    }
}

/// (a) 10 000 seeded cases on the exact side of the precondition: every
/// deviate, the final `j` and the final seed cell of the leapfrogged
/// kernel equal the per-element interpreted `randlc` of `--opt=0` and
/// of the tree-walker.
#[test]
fn leapfrog_matches_per_element_oracles_on_exact_inputs() {
    let _g = serial();
    let tiers = Tiers::new();
    let mut cases = Cases(0x5EED_2022_1CE5);
    let (mut leapfrogged, mut wide) = (0, 0);
    for _ in 0..10_000 {
        let (seed, mult) = (cases.exact(), cases.exact());
        let (lo, len) = (cases.below(4) as i64, cases.len());
        let slack = cases.below(3) as usize;
        let got = tiers.one_fill(seed, mult, lo, len, (lo + len + 1) as usize + slack);
        assert!(got.result.is_ok(), "in bounds: {:?}", got.result);
        leapfrogged += (len >= 2 * N) as usize;
        wide += (len >= 2 * LCG_WIDE_STREAMS as i64) as usize;
    }
    assert!(
        leapfrogged > 2_000,
        "only {leapfrogged} cases were long enough to leapfrog"
    );
    assert!(
        wide > 1_500,
        "only {wide} cases were long enough for the AVX2 width"
    );
}

/// Seeds and multipliers outside the leapfrog's precondition: fractional,
/// negative, `2^46` and above, and non-finite.
const INEXACT: [f64; 11] = [
    0.5,
    271_828_183.25,
    -1.0,
    -1_220_703_125.0,
    T46,
    T46 + 2.0,
    9_007_199_254_740_994.0, // 2^53 + 2
    1e300,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// What each [`INEXACT`] value is paired with, on either side.
const PARTNERS: [f64; 6] = [1_220_703_125.0, 0.0, -0.0, T46 - 1.0, 0.75, f64::NAN];

/// (b) The other side: a fractional, negative, too large, or non-finite
/// seed or multiplier must take the one-stream path and still match
/// both oracles, whatever the other operand is.
#[test]
fn inexact_seed_or_multiplier_matches_per_element_oracles() {
    let _g = serial();
    let tiers = Tiers::new();
    for &bad in &INEXACT {
        for &other in &PARTNERS {
            for len in [2 * N, 3 * N + 1, 65] {
                tiers.one_fill(bad, other, 0, len, len as usize + 1);
                tiers.one_fill(other, bad, 1, len, len as usize + 2);
            }
        }
    }
}

/// (c) A claim that leaves the array is never leapfrogged, wherever its
/// failing index lies relative to the block the leapfrog would have
/// filled: before it (negative start), inside it, and in the tail after
/// it. Same error text (it names the index), same elements stored before
/// the failure, same seed cell — one step past the last stored deviate,
/// because the failing iteration's `randlc` call runs before its store.
#[test]
fn out_of_bounds_claims_fail_like_the_oracles() {
    let _g = serial();
    let tiers = Tiers::new();
    let (seed, mult) = (271_828_183.0, 1_220_703_125.0);
    let len = 3 * N + 2;
    for (what, lo, xlen) in [
        ("before the block", -2, 64),
        ("first group", 0, 3),
        ("inside the block", 0, N as usize + 3),
        ("last whole group", 0, 3 * N as usize - 1),
        ("tail", 0, 3 * N as usize + 1),
        ("tail, offset start", 2, 3 * N as usize + 3),
    ] {
        let got = tiers.one_fill(seed, mult, lo, len, xlen);
        let err = got.result.expect_err(what);
        assert!(err.contains("out of bounds"), "{what}: {err}");
    }
}

// ---------------------------------------------------------------------------
// A verified call outside a fill loop
// ---------------------------------------------------------------------------

/// Bare `randlc` calls from interpreted code: no loop, so neither the fill
/// kernel nor a template takes them, and at `--opt=3` each call of the
/// verified callee with `Float` arguments is one native LCG step.
const CALLS: &str = r#"
fn step(t: *f64, a: f64) f64 {
    return randlc(t, a);
}

fn step_elem(x: []f64, i: i64, a: f64) f64 {
    return randlc(&x[i], a);
}

fn deep(t: *f64, a: f64, d: i64) f64 {
    if (d == 0) {
        return randlc(t, a);
    }
    return deep(t, a, d - 1);
}
"#;

/// A value as the tests compare it: a float by [`same_f64`], anything
/// else by its rendering.
#[derive(Debug)]
enum Seen {
    F(u64),
    Other(String),
}

impl Seen {
    fn of(v: &Value) -> Seen {
        match v {
            Value::Float(f) => Seen::F(f.to_bits()),
            other => Seen::Other(other.render()),
        }
    }
}

impl PartialEq for Seen {
    fn eq(&self, other: &Seen) -> bool {
        match (self, other) {
            (Seen::F(a), Seen::F(b)) => same_f64(*a, *b),
            (Seen::Other(a), Seen::Other(b)) => a == b,
            _ => false,
        }
    }
}

/// What one call leaves behind: its return value (or error text) and
/// the pointee it stepped.
#[derive(Debug, PartialEq)]
struct Called {
    result: Result<Seen, String>,
    cell: Seen,
}

/// [`CALLS`] at `--opt=3` and on its two oracles.
struct CallTiers {
    native: Vm,
    o0: Vm,
    walker: Vm,
}

impl CallTiers {
    fn new() -> CallTiers {
        let src = format!("{RANDLC}{CALLS}");
        let build = |backend, opt| {
            Vm::build(&src, None, backend, opt).unwrap_or_else(|e| panic!("{}", e.render(&src)))
        };
        let tiers = CallTiers {
            native: build(Backend::Bytecode, OptLevel::O3),
            o0: build(Backend::Bytecode, OptLevel::O0),
            walker: build(Backend::Ast, OptLevel::O0),
        };
        let verified = |vm: &Vm| vm.program.code.get("randlc").expect("randlc").lcg;
        assert!(verified(&tiers.native), "--opt=3 verifies `randlc`");
        assert!(!verified(&tiers.o0), "--opt=0 runs every body");
        tiers
    }

    /// Call `func` on every tier: `args(cell)` builds the argument list
    /// around a fresh pointee from `fresh`, and `pointee` reads it back
    /// after the call. The `--opt=3` and `--opt=0` outcomes must equal
    /// the walker's, which is returned.
    fn call(
        &self,
        func: &str,
        fresh: impl Fn() -> Value,
        args: impl Fn(&Value) -> Vec<Value>,
        pointee: impl Fn(&Value) -> Value,
        what: &str,
    ) -> Called {
        let run = |vm: &Vm| {
            let cell = fresh();
            let result = (vm.call_function(func, args(&cell)))
                .map(|v| Seen::of(&v))
                .map_err(|e| e.to_string());
            Called {
                result,
                cell: Seen::of(&pointee(&cell)),
            }
        };
        let want = run(&self.walker);
        assert_eq!(run(&self.o0), want, "--opt=0, {what}");
        assert_eq!(run(&self.native), want, "--opt=3, {what}");
        want
    }

    /// `step(&x, a)` from a cell holding `x`.
    fn step(&self, x: Value, a: Value) -> Called {
        let what = format!("step({x:?}, {a:?})");
        let args = |cell: &Value| vec![cell.clone(), a.clone()];
        self.call("step", || new_cell(x.clone()), args, cell_value, &what)
    }
}

fn new_cell(v: Value) -> Value {
    Value::Ptr(Arc::new(parking_lot::Mutex::new(v)))
}

fn cell_value(cell: &Value) -> Value {
    match cell {
        Value::Ptr(slot) => slot.lock().clone(),
        other => panic!("not a cell: {other:?}"),
    }
}

/// The native step against both oracles: on the 10 000 seeded pairs of
/// the leapfrog test, and on every inexact seed or multiplier, in both
/// positions. Each call returns a float and leaves one in the cell.
#[test]
fn verified_randlc_call_matches_the_oracles() {
    let _g = serial();
    let tiers = CallTiers::new();
    let mut cases = Cases(0x5EED_2022_1CE5);
    for _ in 0..10_000 {
        let (x, a) = (cases.exact(), cases.exact());
        let got = tiers.step(Value::Float(x), Value::Float(a));
        assert!(matches!(got.result, Ok(Seen::F(_))), "{got:?}");
    }
    for &bad in &INEXACT {
        for &other in &PARTNERS {
            tiers.step(Value::Float(bad), Value::Float(other));
            tiers.step(Value::Float(other), Value::Float(bad));
        }
    }
}

/// Any argument type but a `Float` cell and a `Float` multiplier runs
/// the interpreted body: an `Int` in the cell, an `Int` multiplier, and
/// an array element's address as the pointer (in and out of bounds) end
/// with the walker's value, cell and error text.
#[test]
fn randlc_call_falls_back_on_other_argument_types() {
    let _g = serial();
    let tiers = CallTiers::new();
    let (x, a) = (271_828_183.0, 1_220_703_125.0);
    tiers.step(Value::Int(x as i64), Value::Float(a));
    tiers.step(Value::Float(x), Value::Int(a as i64));
    tiers.step(Value::Int(x as i64), Value::Int(a as i64));
    for i in [1, 3] {
        let what = format!("step_elem(x, {i}, a)");
        let xs = || {
            let xs = ArrF::new(3);
            xs.set(1, x).expect("in bounds");
            Value::ArrF(Arc::new(xs))
        };
        let args = |arr: &Value| vec![arr.clone(), Value::Int(i), Value::Float(a)];
        let elem = |arr: &Value| match arr {
            Value::ArrF(xs) => Value::Float(xs.get(1).expect("element 1")),
            other => panic!("not an array: {other:?}"),
        };
        let got = tiers.call("step_elem", xs, args, elem, &what);
        assert_eq!(got.result.is_ok(), i == 1, "{what}: {got:?}");
    }
}

/// A call of the verified `randlc` as activation number
/// `MAX_CALL_DEPTH` steps; one level deeper it is the depth error on
/// every tier, before the cell is touched.
#[test]
fn randlc_call_past_the_depth_limit_fails_like_the_oracles() {
    let _g = serial();
    let tiers = CallTiers::new();
    let limit = zomp::MAX_CALL_DEPTH as i64;
    // `deep(t, a, d)` nests `d` calls of itself, then the `randlc` call.
    for d in [limit - 1, limit] {
        let got = std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(zomp::STACK_BYTES)
                .spawn_scoped(s, || {
                    let args = |cell: &Value| {
                        vec![cell.clone(), Value::Float(1_220_703_125.0), Value::Int(d)]
                    };
                    let what = format!("deep(.., {d})");
                    let seed = || new_cell(Value::Float(271_828_183.0));
                    tiers.call("deep", seed, args, cell_value, &what)
                })
                .expect("spawn")
                .join()
                .expect("the call thread must not overflow its stack")
        });
        if d < limit {
            assert!(matches!(got.result, Ok(Seen::F(_))), "{got:?}");
        } else {
            let e = got.result.expect_err("one call past the limit");
            assert!(e.contains("stack overflow"), "{e}");
            assert_eq!(got.cell, Seen::F(271_828_183f64.to_bits()));
        }
    }
}

/// Whether the verifier takes `randlc` as the LCG step: the fill of
/// [`LCG_FILL`] becomes the `lcg-fill` kernel exactly when it does.
fn verified(randlc: &str) -> bool {
    let src = format!(
        "{randlc}{}",
        LCG_FILL.replace("SCHEDULE", "schedule(static)")
    );
    let diags = zomp_vm::remarks::collect(&src, "verify.zag", OptLevel::O3).expect("remarks");
    (diags.iter()).any(|d| d.code == "kernel-installed" && d.message.contains("lcg-fill"))
}

/// The callee verifier compares dataflow, commutative in `+` and `*` and
/// exact in everything else: a `randlc` with the operands of every `+` and
/// `*` swapped is the step; a constant one ulp off, one more `+`, or a body
/// that returns the same value by another computation is not.
#[test]
fn callee_verifier_accepts_commuted_operands_and_nothing_else() {
    assert!(verified(RANDLC));
    let commuted = RANDLC
        .replace("r23 * a;", "a * r23;")
        .replace("a - t23 * a1", "a - a1 * t23")
        .replace("r23 * x.*", "x.* * r23")
        .replace("x.* - t23 * x1", "x.* - x1 * t23")
        .replace("a1 * x2 + a2 * x1", "x1 * a2 + x2 * a1")
        .replace("r23 * t1))", "t1 * r23))")
        .replace("t1 - t23 * t2", "t1 - t2 * t23")
        .replace("t23 * zz + a2 * x2", "x2 * a2 + zz * t23")
        .replace("r46 * t3", "t3 * r46")
        .replace("t3 - t46 * t4", "t3 - t4 * t46")
        .replace("return r46 * x.*", "return x.* * r46");
    assert_eq!(commuted.matches("a * r23").count(), 1, "the edit applied");
    assert!(verified(&commuted), "commuted operands");
    let rejected = [
        ("a constant one ulp off", "8388608.0;", "8388608.000000002;"),
        (
            "one more `+`",
            "t1 = a1 * x2 + a2 * x1;",
            "t1 = a1 * x2 + a2 * x1 + 0.0;",
        ),
        (
            "the same value, computed otherwise",
            "t23 * zz + a2 * x2;",
            "(t23 * zz + a2 * x2) * 1.0;",
        ),
    ];
    for (what, from, to) in rejected {
        assert_eq!(
            RANDLC.matches(from).count(),
            1,
            "{what}: the edit applies once"
        );
        assert!(
            !verified(&RANDLC.replace(from, to)),
            "{what} was taken as the step"
        );
    }
}
