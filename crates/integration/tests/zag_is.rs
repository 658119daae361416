//! IS's `rank` function ported to Zag — the third kernel of the paper's
//! evaluation re-enacted in the mini-language (§V-C ported the C `rank` to
//! Zig). The bucketed algorithm needs per-thread histograms, a `single` for
//! the bucket prefix sum, cross-thread offset computation, a scatter phase,
//! and the paper's `static,1` schedule for the per-bucket ranking.
//! Validated bitwise against `npb::is::rank_serial`.

use std::sync::Arc;

use npb::is::{custom_params, rank_serial};
use zomp_vm::value::{ArrI, Value};
use zomp_vm::Vm;

const ZAG_RANK: &str = r#"
// Bucketed counting rank: keys in [0, 2^maxlog), nb = 2^nblog buckets.
// counts is a (nthreads x nb) matrix flattened row-major; starts has nb+1
// entries; buff2 gets the keys bucket-contiguously; ranks[k] ends as the
// number of keys <= k.
fn rank(keys: []i64, nkeys: i64, maxlog: i64, nblog: i64,
        counts: []i64, starts: []i64, buff2: []i64, ranks: []i64,
        nthreads: i64) void {
    var nb: i64 = 1;
    var b0: i64 = 0;
    while (b0 < nblog) : (b0 += 1) {
        nb = nb * 2;
    }
    var shiftbits: i64 = maxlog - nblog;
    var shiftdiv: i64 = 1;
    var s0: i64 = 0;
    while (s0 < shiftbits) : (s0 += 1) {
        shiftdiv = shiftdiv * 2;
    }

    //$omp parallel num_threads(nthreads) shared(keys, counts, starts, buff2, ranks) firstprivate(nkeys, nb, shiftdiv)
    {
        var tid: i64 = omp.get_thread_num();
        var nth: i64 = omp.get_num_threads();

        // Phase 1: private bucket histogram of this thread's key slice.
        var local: []i64 = @allocI(nb);
        var i: i64 = 0;
        //$omp while schedule(static) nowait
        while (i < nkeys) : (i += 1) {
            var b: i64 = keys[i] / shiftdiv;
            local[b] = local[b] + 1;
        }
        var c: i64 = 0;
        while (c < nb) : (c += 1) {
            counts[tid * nb + c] = local[c];
        }
        //$omp barrier

        // Phase 2: bucket starts (one thread), then this thread's scatter
        // cursors (every thread, redundantly, as is.c does).
        //$omp single
        {
            var acc: i64 = 0;
            var b1: i64 = 0;
            while (b1 < nb) : (b1 += 1) {
                starts[b1] = acc;
                var t: i64 = 0;
                while (t < nth) : (t += 1) {
                    acc = acc + counts[t * nb + b1];
                }
            }
            starts[nb] = acc;
        }
        var cursor: []i64 = @allocI(nb);
        var b2: i64 = 0;
        while (b2 < nb) : (b2 += 1) {
            var at: i64 = starts[b2];
            var t2: i64 = 0;
            while (t2 < tid) : (t2 += 1) {
                at = at + counts[t2 * nb + b2];
            }
            cursor[b2] = at;
        }

        // Phase 3: scatter (same static partition as phase 1).
        var i2: i64 = 0;
        //$omp while schedule(static)
        while (i2 < nkeys) : (i2 += 1) {
            var key: i64 = keys[i2];
            var b3: i64 = key / shiftdiv;
            buff2[cursor[b3]] = key;
            cursor[b3] = cursor[b3] + 1;
        }

        // Phase 4: rank each bucket; schedule(static, 1) cycles buckets
        // over threads to balance skew (the clause §V-C names).
        var b4: i64 = 0;
        //$omp while schedule(static, 1) nowait
        while (b4 < nb) : (b4 += 1) {
            var keylo: i64 = b4 * shiftdiv;
            var keyhi: i64 = (b4 + 1) * shiftdiv;
            var st: i64 = starts[b4];
            var en: i64 = starts[b4 + 1];
            var k: i64 = keylo;
            while (k < keyhi) : (k += 1) {
                ranks[k] = 0;
            }
            var p: i64 = st;
            while (p < en) : (p += 1) {
                ranks[buff2[p]] = ranks[buff2[p]] + 1;
            }
            var acc2: i64 = st;
            var k2: i64 = keylo;
            while (k2 < keyhi) : (k2 += 1) {
                acc2 = acc2 + ranks[k2];
                ranks[k2] = acc2;
            }
        }
    }
}
"#;

fn to_arr(v: &[i64]) -> Arc<ArrI> {
    let a = Arc::new(ArrI::new(v.len()));
    for (i, &x) in v.iter().enumerate() {
        a.set(i as i64, x).unwrap();
    }
    a
}

#[test]
fn zag_rank_matches_rust_serial() {
    let maxlog = 9u32;
    let nblog = 4u32;
    let params = custom_params(11, maxlog, nblog);
    let keys: Vec<u32> = npb::is::create_seq(&params);
    let keys_i: Vec<i64> = keys.iter().map(|&k| k as i64).collect();
    let want = rank_serial(&keys, &params);

    for (backend, opt) in [
        (zomp_vm::Backend::Bytecode, zomp_vm::OptLevel::O0),
        (zomp_vm::Backend::Bytecode, zomp_vm::OptLevel::O3),
        (zomp_vm::Backend::Native, zomp_vm::OptLevel::O3),
        (zomp_vm::Backend::Ast, zomp_vm::OptLevel::O0),
    ] {
        let vm = Vm::build(ZAG_RANK, None, backend, opt).expect("compile Zag rank");
        for threads in [1i64, 2, 4] {
            let nb = 1usize << nblog;
            let counts = Arc::new(ArrI::new(threads as usize * nb));
            let starts = Arc::new(ArrI::new(nb + 1));
            let buff2 = Arc::new(ArrI::new(keys.len()));
            let ranks = Arc::new(ArrI::new(1 << maxlog));
            vm.call_function(
                "rank",
                vec![
                    Value::ArrI(to_arr(&keys_i)),
                    Value::Int(keys.len() as i64),
                    Value::Int(maxlog as i64),
                    Value::Int(nblog as i64),
                    Value::ArrI(Arc::clone(&counts)),
                    Value::ArrI(Arc::clone(&starts)),
                    Value::ArrI(Arc::clone(&buff2)),
                    Value::ArrI(Arc::clone(&ranks)),
                    Value::Int(threads),
                ],
            )
            .expect("run Zag rank");

            let got: Vec<u32> = ranks.to_vec().iter().map(|&v| v as u32).collect();
            assert_eq!(
                got, want,
                "rank mismatch at {threads} threads ({backend:?})"
            );
            // buff2 holds a bucket-sorted permutation of the keys.
            let mut sorted_input = keys_i.clone();
            sorted_input.sort_unstable();
            let mut buff = buff2.to_vec();
            // Within buckets order varies by thread interleaving; sorting
            // recovers the multiset.
            buff.sort_unstable();
            assert_eq!(
                buff, sorted_input,
                "scatter lost keys at {threads} threads ({backend:?})"
            );
        }
    }
}

/// The fused rank-pipeline kernel (`--opt=3` on the phase-4 bucket
/// loop) must produce bit-identical ranks to the `--opt=0` interpreter
/// no matter how the worksharing runtime carves the bucket iterations
/// up — every schedule kind crossed with 1/2/4-thread teams, all
/// against the serial Rust oracle. The kernel claims whole buckets
/// through `ws_begin`, so a chunking bug would shear exactly here.
#[test]
fn rank_pipeline_native_bit_identity_across_schedules_and_threads() {
    let maxlog = 9u32;
    let nblog = 4u32;
    let params = custom_params(11, maxlog, nblog);
    let keys: Vec<u32> = npb::is::create_seq(&params);
    let keys_i: Vec<i64> = keys.iter().map(|&k| k as i64).collect();
    let want = rank_serial(&keys, &params);
    let nb = 1usize << nblog;

    for sched in [
        "static",
        "static, 1",
        "static, 3",
        "dynamic",
        "dynamic, 2",
        "guided",
    ] {
        let src = ZAG_RANK.replace(
            "schedule(static, 1) nowait",
            &format!("schedule({sched}) nowait"),
        );
        assert!(src.contains(sched), "schedule substitution failed");
        for (backend, opt) in [
            (zomp_vm::Backend::Bytecode, zomp_vm::OptLevel::O0),
            (zomp_vm::Backend::Native, zomp_vm::OptLevel::O3),
        ] {
            let vm = Vm::build(&src, None, backend, opt).expect("compile Zag rank");
            for threads in [1i64, 2, 4] {
                let counts = Arc::new(ArrI::new(threads as usize * nb));
                let starts = Arc::new(ArrI::new(nb + 1));
                let buff2 = Arc::new(ArrI::new(keys.len()));
                let ranks = Arc::new(ArrI::new(1 << maxlog));
                vm.call_function(
                    "rank",
                    vec![
                        Value::ArrI(to_arr(&keys_i)),
                        Value::Int(keys.len() as i64),
                        Value::Int(maxlog as i64),
                        Value::Int(nblog as i64),
                        Value::ArrI(Arc::clone(&counts)),
                        Value::ArrI(Arc::clone(&starts)),
                        Value::ArrI(Arc::clone(&buff2)),
                        Value::ArrI(Arc::clone(&ranks)),
                        Value::Int(threads),
                    ],
                )
                .expect("run Zag rank");
                let got: Vec<u32> = ranks.to_vec().iter().map(|&v| v as u32).collect();
                assert_eq!(
                    got, want,
                    "rank mismatch: schedule({sched}), {threads} threads ({backend:?}, {opt:?})"
                );
            }
        }
    }
}

#[test]
fn port_passes_data_sharing_check() {
    // The port is a known-clean program: the `zag --check` lint must not
    // flag it (acceptance criterion of the analysis pass).
    let ast = zomp_front::parse(ZAG_RANK).expect("port parses");
    let findings = zomp_front::analyze(&ast, "zag_is");
    let rendered: Vec<String> = findings.iter().map(|d| d.render(ZAG_RANK)).collect();
    assert!(
        rendered.is_empty(),
        "lint findings on clean port: {rendered:#?}"
    );
}

mod common;

/// Golden `--remarks` output for the IS port: the histogram, scatter
/// and fused rank-pipeline phases should all appear as installed kernels.
#[test]
fn is_port_remarks_match_golden() {
    common::check_remarks_golden(ZAG_RANK, "is.zag", "remarks_is.txt");
}
