//! The paper's port, re-enacted: `conj_grad` written in the pragma-annotated
//! mini-language (as §V-A ports it from Fortran to Zig), executed through
//! tokenizer → parser → preprocessor → VM → zomp threads, and validated
//! against the native Rust NPB solver on the same NPB-generated matrix.
//!
//! This exercises the full OpenMP surface the paper lists for CG: a parallel
//! region, worksharing loops with and without `nowait`, `private`/`shared`/
//! `firstprivate` sharing, and reductions on worksharing loops — plus
//! `single` for the per-iteration scalar resets.

use std::sync::Arc;

use npb::cg::makea::makea;
use npb::cg::solve::{conj_grad_serial, CgWorkspace};
use npb::class::{CgParams, Class};
use zomp_vm::value::{ArrF, ArrI, Value};
use zomp_vm::{Backend, Vm};

/// conj_grad in Zag. Structure follows cg.f: init, rho = r.r, then
/// CGITMAX iterations of { q = A p; d = p.q; z/r update with fused rho
/// reduction; p update }, then rnorm = ||x - A z||.
const ZAG_CONJ_GRAD: &str = r#"
fn conj_grad(n: i64, rowstr: []i64, colidx: []i64, a: []f64,
             x: []f64, z: []f64, p: []f64, q: []f64, r: []f64,
             cgitmax: i64, nthreads: i64) f64 {
    var rho: f64 = 0.0;
    var d: f64 = 0.0;
    var sum: f64 = 0.0;

    //$omp parallel num_threads(nthreads) shared(rowstr, colidx, a, x, z, p, q, r, rho, d, sum) firstprivate(n, cgitmax)
    {
        var j: i64 = 0;
        //$omp while nowait
        while (j < n) : (j += 1) {
            q[j] = 0.0;
            z[j] = 0.0;
            r[j] = x[j];
            p[j] = x[j];
        }

        var j0: i64 = 0;
        //$omp while reduction(+: rho)
        while (j0 < n) : (j0 += 1) {
            rho = rho + r[j0] * r[j0];
        }

        var cgit: i64 = 0;
        while (cgit < cgitmax) : (cgit += 1) {
            // q = A p.
            var j1: i64 = 0;
            //$omp while private(k, s)
            while (j1 < n) : (j1 += 1) {
                s = 0.0;
                k = rowstr[j1];
                while (k < rowstr[j1 + 1]) : (k += 1) {
                    s = s + a[k] * p[colidx[k]];
                }
                q[j1] = s;
            }

            // d = p.q (reset the shared cell first, as cg.f does).
            //$omp single
            {
                d = 0.0;
            }
            var j2: i64 = 0;
            //$omp while reduction(+: d)
            while (j2 < n) : (j2 += 1) {
                d = d + p[j2] * q[j2];
            }

            var alpha: f64 = rho / d;
            var rho0: f64 = rho;
            // Every thread must have taken its private alpha/rho0 snapshot
            // before one of them resets the shared rho (the hazard cg.f
            // avoids the same way).
            //$omp barrier
            //$omp single
            {
                rho = 0.0;
            }
            // z += alpha p; r -= alpha q; rho = r.r, fused.
            var j3: i64 = 0;
            //$omp while reduction(+: rho)
            while (j3 < n) : (j3 += 1) {
                z[j3] = z[j3] + alpha * p[j3];
                r[j3] = r[j3] - alpha * q[j3];
                rho = rho + r[j3] * r[j3];
            }

            var beta: f64 = rho / rho0;
            var j4: i64 = 0;
            //$omp while
            while (j4 < n) : (j4 += 1) {
                p[j4] = r[j4] + beta * p[j4];
            }
            _ = alpha;
            _ = rho0;
            _ = beta;
        }

        // rnorm = ||x - A z||: r = A z, then sum (x - r)^2.
        var j5: i64 = 0;
        //$omp while private(k2, s2)
        while (j5 < n) : (j5 += 1) {
            s2 = 0.0;
            k2 = rowstr[j5];
            while (k2 < rowstr[j5 + 1]) : (k2 += 1) {
                s2 = s2 + a[k2] * z[colidx[k2]];
            }
            r[j5] = s2;
        }
        var j6: i64 = 0;
        //$omp while reduction(+: sum) private(dd)
        while (j6 < n) : (j6 += 1) {
            dd = x[j6] - r[j6];
            sum = sum + dd * dd;
        }
    }
    return @sqrt(sum);
}
"#;

fn to_arr_f(v: &[f64]) -> Arc<ArrF> {
    let a = Arc::new(ArrF::new(v.len()));
    for (i, &x) in v.iter().enumerate() {
        a.set(i as i64, x).unwrap();
    }
    a
}

fn to_arr_i(v: &[usize]) -> Arc<ArrI> {
    let a = Arc::new(ArrI::new(v.len()));
    for (i, &x) in v.iter().enumerate() {
        a.set(i as i64, x as i64).unwrap();
    }
    a
}

#[test]
fn zag_conj_grad_matches_rust_solver() {
    // A miniature NPB-constructed matrix (same makea machinery that passes
    // official class S verification).
    let params = CgParams {
        class: Class::S,
        na: 160,
        nonzer: 4,
        niter: 1,
        shift: 7.0,
        zeta_verify: f64::NAN,
    };
    let mat = makea(&params);
    let n = mat.n;
    let x = vec![1.0f64; n];

    // Native Rust reference.
    let mut ws = CgWorkspace::new(n);
    let rnorm_rust = conj_grad_serial(&mat, &x, &mut ws);

    // Zag through the full pipeline, on both execution backends, at both
    // bytecode optimization levels, and at several team sizes — the VM
    // must reproduce the oracle (and the native solver) exactly as the
    // tree-walker does.
    for (backend, opt) in [
        (Backend::Bytecode, zomp_vm::OptLevel::O0),
        (Backend::Bytecode, zomp_vm::OptLevel::O3),
        (Backend::Ast, zomp_vm::OptLevel::O0),
    ] {
        let vm = Vm::build(ZAG_CONJ_GRAD, None, backend, opt).expect("compile Zag conj_grad");
        for threads in [1i64, 2, 4] {
            let z = Arc::new(ArrF::new(n));
            let p = Arc::new(ArrF::new(n));
            let q = Arc::new(ArrF::new(n));
            let r = Arc::new(ArrF::new(n));
            let result = vm
                .call_function(
                    "conj_grad",
                    vec![
                        Value::Int(n as i64),
                        Value::ArrI(to_arr_i(&mat.rowstr)),
                        Value::ArrI(to_arr_i(&mat.colidx)),
                        Value::ArrF(to_arr_f(&mat.a)),
                        Value::ArrF(to_arr_f(&x)),
                        Value::ArrF(Arc::clone(&z)),
                        Value::ArrF(Arc::clone(&p)),
                        Value::ArrF(Arc::clone(&q)),
                        Value::ArrF(Arc::clone(&r)),
                        Value::Int(CgParams::CGITMAX as i64),
                        Value::Int(threads),
                    ],
                )
                .expect("run Zag conj_grad")
                .as_float()
                .unwrap();

            assert!(
                (result - rnorm_rust).abs() < 1e-10,
                "rnorm: Zag {result:e} vs Rust {rnorm_rust:e} at {threads} threads ({backend:?})"
            );
            // The solution vector itself must match.
            for j in 0..n {
                let zj = z.get(j as i64).unwrap();
                assert!(
                    (zj - ws.z[j]).abs() < 1e-9,
                    "z[{j}]: Zag {zj} vs Rust {} at {threads} threads ({backend:?})",
                    ws.z[j]
                );
            }
            // And it must actually solve the system: A z ≈ x.
            let mut az = vec![0.0; n];
            mat.spmv(&z.to_vec(), &mut az);
            for j in 0..n {
                assert!((az[j] - x[j]).abs() < 1e-6, "residual at row {j}");
            }
        }
    }
}

/// The private-clause variables (`k`, `s`, ...) used in the Zag port are
/// never declared in the function — `private` must introduce them, exactly
/// like the paper's outlined-function privates.
#[test]
fn private_clause_introduces_variables() {
    let out = Vm::run(
        r#"
fn main() void {
    var total: i64 = 0;
    //$omp parallel num_threads(2) reduction(+: total)
    {
        var i: i64 = 0;
        //$omp while private(t)
        while (i < 10) : (i += 1) {
            t = i * 2;
            total += t;
        }
    }
    print(total);
}
"#,
    )
    .unwrap();
    assert_eq!(out, vec!["90"]);
}

#[test]
fn port_passes_data_sharing_check() {
    // The port is a known-clean program: the `zag --check` lint must not
    // flag it (acceptance criterion of the analysis pass).
    let ast = zomp_front::parse(ZAG_CONJ_GRAD).expect("port parses");
    let findings = zomp_front::analyze(&ast, "zag_cg");
    let rendered: Vec<String> = findings.iter().map(|d| d.render(ZAG_CONJ_GRAD)).collect();
    assert!(
        rendered.is_empty(),
        "lint findings on clean port: {rendered:#?}"
    );
}

mod common;

/// Golden `--remarks` output for the CG port: pins which conj_grad loops
/// lower to bulk kernels at `--opt=3` and why the rest stay interpreted.
#[test]
fn cg_port_remarks_match_golden() {
    common::check_remarks_golden(ZAG_CONJ_GRAD, "cg.zag", "remarks_cg.txt");
}
