//! Properties of the cross-call `lcg-fill` / `ep-pairs` bulk kernels.
//!
//! The differential EP test (`zag_ep.rs`) proves whole-program
//! agreement at one size; these tests pin the *kernel contract*
//! directly against the native `npb::randlc` primitives:
//!
//! 1. **Stream identity.** Batch `k`'s seed is `s·anᵏ` where
//!    `an = a^(2nk)` — exactly the sequential stream state after
//!    `k·2nk` steps. So the concatenation of every batch's fill
//!    output equals ONE sequential `vranlc` stream, bit for bit,
//!    no matter how the worksharing runtime chunks, schedules, or
//!    steals the batches. The property test runs the Zag fill
//!    through the `lcg-fill` kernel across seeds × sizes ×
//!    schedules × team sizes and compares every double with
//!    `to_bits` equality against one `npb::randlc::vranlc` call.
//! 2. **Bail identity.** When a kernel batch runs out of bounds
//!    mid-flight, the bail/replay path must surface the *exact*
//!    error the AST oracle produces — same message, same index —
//!    for both the fill and the pairs kernel.

use std::sync::Arc;

use npb::randlc::vranlc;
use zomp_vm::value::{ArrF, Value};
use zomp_vm::{Backend, OptLevel, Vm};

/// The NPB LCG and batch seeding, ported exactly like `zag_ep.rs`,
/// driving a work-shared fill whose inner loop is the `lcg-fill`
/// kernel shape. Each batch lands its deviates in `out` at the
/// batch's stream offset, so `out` reassembles the sequential stream.
/// The `SCHEDULE` placeholder is substituted per test variant.
const LCG_FILL: &str = r#"
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
/// one sequential `vranlc` stream, bit for bit.
#[test]
fn lcg_fill_kernel_reproduces_vranlc_stream_bitwise() {
    for sched in [
        "schedule(static)",
        "schedule(static, 3)",
        "schedule(dynamic, 1)",
        "schedule(dynamic, 2)",
        "schedule(guided)",
    ] {
        let src = LCG_FILL.replace("SCHEDULE", sched);
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
                let mut want = vec![0.0f64; total];
                let mut t = seed;
                vranlc(&mut t, mult, &mut want);
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
                             kernel {got:e} vs vranlc {w:e}"
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

fn ep(nk: i64, batches: i64, xlen: i64, qlen: i64, q: []f64) f64 {
    var a: f64 = 1220703125.0;
    var s: f64 = 271828183.0;
    var sx: f64 = 0.0;
    var sy: f64 = 0.0;
    //$omp parallel num_threads(1) shared(q) firstprivate(a, s, nk, batches, xlen, qlen) reduction(+: sx, sy)
    {
        var x: []f64 = @allocF(xlen);
        var qq: []f64 = @allocF(qlen);
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

fn run_ep_bail(backend: Backend, opt: OptLevel, xlen: i64, qlen: i64) -> Result<f64, String> {
    let vm =
        Vm::build(EP_BAIL, None, backend, opt).unwrap_or_else(|e| panic!("{}", e.render(EP_BAIL)));
    if backend == Backend::Native && opt == OptLevel::O3 {
        assert!(
            vm.program.code.funcs.iter().any(|f| !f.kernels.is_empty()),
            "expected bulk kernels to install for the bail program"
        );
    }
    let q = Arc::new(ArrF::new(10));
    vm.call_function(
        "ep",
        vec![
            Value::Int(64),
            Value::Int(4),
            Value::Int(xlen),
            Value::Int(qlen),
            Value::ArrF(q),
        ],
    )
    .map(|v| v.as_float().unwrap())
    .map_err(|e| e.to_string())
}

/// In bounds, every tier agrees on the sums; the O3 build really holds
/// kernels (asserted inside the runner).
#[test]
fn ep_bail_program_agrees_in_bounds() {
    let oracle = run_ep_bail(Backend::Ast, OptLevel::O0, 128, 10);
    assert!(oracle.is_ok(), "{oracle:?}");
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
    let oracle = run_ep_bail(Backend::Ast, OptLevel::O0, 127, 10);
    let err = oracle.clone().expect_err("fill must go out of bounds");
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

/// An undersized annulus array makes the `ep-pairs` scatter go out of
/// bounds partway through a batch (annulus 0 is by far the most
/// common, so earlier iterations succeed first): same error identity.
#[test]
fn ep_pairs_bail_reproduces_oracle_error() {
    let oracle = run_ep_bail(Backend::Ast, OptLevel::O0, 128, 1);
    let err = oracle
        .clone()
        .expect_err("pairs scatter must go out of bounds");
    assert!(err.contains("bounds") || err.contains("index"), "{err}");
    for (backend, opt) in [
        (Backend::Bytecode, OptLevel::O0),
        (Backend::Bytecode, OptLevel::O3),
        (Backend::Native, OptLevel::O3),
    ] {
        assert_eq!(
            run_ep_bail(backend, opt, 128, 1),
            oracle,
            "{backend:?} {opt:?}"
        );
    }
}
