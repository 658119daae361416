//! The three NPB kernel ports in the Zag mini-language, shared by the
//! measurement binaries (`vm-bench` for throughput, `tier-bench` for
//! execution-tier residency). Each port exposes an entry function
//! (`matvec` / `ep` / `rank`) invoked host-side with prebuilt arrays,
//! exactly as the integration tests drive them.

pub const ZAG_MATVEC: &str = r#"
fn matvec(n: i64, rowstr: []i64, colidx: []i64, a: []f64, p: []f64, q: []f64,
          reps: i64, nthreads: i64) void {
    //$omp parallel num_threads(nthreads) shared(rowstr, colidx, a, p, q) firstprivate(n, reps)
    {
        var rep: i64 = 0;
        while (rep < reps) : (rep += 1) {
            var j: i64 = 0;
            //$omp while schedule(dynamic, 64) private(k, s)
            while (j < n) : (j += 1) {
                s = 0.0;
                k = rowstr[j];
                while (k < rowstr[j + 1]) : (k += 1) {
                    s = s + a[k] * p[colidx[k]];
                }
                q[j] = s;
            }
        }
    }
}
"#;

pub const ZAG_EP: &str = r#"
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

fn ep(m: i64, mk: i64, nthreads: i64, q: []f64) f64 {
    var a: f64 = 1220703125.0;
    var s: f64 = 271828183.0;
    var nk: i64 = 1;
    var i0: i64 = 0;
    while (i0 < mk) : (i0 += 1) {
        nk = nk * 2;
    }
    var batches: i64 = 1;
    var i1: i64 = 0;
    while (i1 < m - mk) : (i1 += 1) {
        batches = batches * 2;
    }
    var an: f64 = compute_an(a, mk);

    var sx: f64 = 0.0;
    var sy: f64 = 0.0;

    //$omp parallel num_threads(nthreads) shared(q) firstprivate(a, s, an, nk, batches) reduction(+: sx, sy)
    {
        var x: []f64 = @allocF(2 * nk);
        var qq: []f64 = @allocF(10);

        var k: i64 = 0;
        //$omp while schedule(static)
        while (k < batches) : (k += 1) {
            var t1: f64 = batch_seed(s, an, k);
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
        while (b < 10) : (b += 1) {
            //$omp atomic
            q[b] += qq[b];
        }
    }
    return sx * 1000000.0 + sy;
}
"#;

pub const ZAG_RANK: &str = r#"
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

        var i2: i64 = 0;
        //$omp while schedule(static)
        while (i2 < nkeys) : (i2 += 1) {
            var key: i64 = keys[i2];
            var b3: i64 = key / shiftdiv;
            buff2[cursor[b3]] = key;
            cursor[b3] = cursor[b3] + 1;
        }

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

/// Template-tier fixture: two typed loops whose shapes miss every fixed
/// bulk kernel (a 3-point float stencil and a squared-sum int reduction)
/// at a trip count large enough to measure the template speedup over the
/// `--opt=0` bytecode. The real shape-missed loops in the NPB ports (EP's
/// `nk`/`batches` setup doublings) run a handful of iterations, so the
/// smoke gate measures here instead.
pub const ZAG_TEMPLATE: &str = r#"
fn smooth(u: []f64, v: []f64, n: i64, reps: i64) f64 {
    var m: i64 = n - 1;
    var r: i64 = 0;
    while (r < reps) : (r += 1) {
        var i: i64 = 1;
        while (i < m) : (i += 1) {
            v[i] = 0.25 * u[i - 1] + 0.5 * u[i] + 0.25 * u[i + 1];
        }
    }
    return v[n / 2];
}

fn sumsq(x: []i64, n: i64, reps: i64) i64 {
    var acc: i64 = 0;
    var r: i64 = 0;
    while (r < reps) : (r += 1) {
        var i: i64 = 0;
        while (i < n) : (i += 1) {
            acc = acc + x[i] * x[i];
        }
    }
    return acc;
}
"#;
