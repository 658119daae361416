//! The Zag programs that belong to the benchmark itself (the NPB ports
//! and the `zagd` demo programs come from the repository's own crates).

/// `vm_generic` kind `stencil`: a typed 3-point float stencil and an int
/// sum-of-squares reduction, both `schedule(static)`. No fixed bulk
/// kernel matches either loop, so the typed-template tier runs them.
/// Every repetition recomputes the same `v` and adds the same sum, which
/// is what lets the tree-walker reference run a single repetition.
pub const STENCIL: &str = r#"
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
"#;

/// `vm_generic` kind `dyn`: a hot loop that has to stay in the bytecode
/// interpreter at `--opt=3` — a user-function call and data-dependent
/// branches per iteration, a slot (`w`) that flips between `i64` and
/// `f64` (so its adds stay generic and deoptimise on each flip), and an
/// `atomic` update. `w` is carried across iterations, so the result
/// depends on the static partition and is checked per team size. All
/// float terms are multiples of 0.25, so the sums are exact in any order.
pub const DYN: &str = r#"
fn step(k: i64, lim: i64) i64 {
    if (k % 3 == 0) {
        return k / 3 + lim;
    }
    if (k % 5 == 0) {
        return k * 2 - lim;
    }
    return k + 1;
}

fn dyn(x: []i64, n: i64, hits: []i64, nthreads: i64) f64 {
    var total: f64 = 0.0;
    //$omp parallel num_threads(nthreads) shared(x, hits) firstprivate(n) reduction(+: total)
    {
        var w: any = undefined;
        w = 1;
        var wf: i64 = 0;
        var isum: i64 = 0;
        var fsum: f64 = 0.0;
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < n) : (i += 1) {
            var k: i64 = step(x[i], 7);
            if (k % 2 == 0) {
                var d: any = w + w;
                w = d - w;
            }
            if (k % 97 == 0) {
                if (wf == 0) {
                    w = 0.25;
                    wf = 1;
                } else {
                    w = 3;
                    wf = 0;
                }
                //$omp atomic
                hits[0] += 1;
            }
            if (wf == 0) {
                isum = isum + w;
            } else {
                fsum = fsum + w;
            }
        }
        total = total + @intToFloat(isum) + fsum;
    }
    return total;
}
"#;

/// `runtime_fine` kind `fork_small`: back-to-back `parallel` regions,
/// each a 64-iteration static loop with `reduction(+)` — fork/join and
/// reduction merge dominate, the loop body is negligible.
pub const FORK_SMALL: &str = r#"
fn fork_small(x: []i64, regions: i64, nthreads: i64) i64 {
    var total: i64 = 0;
    var r: i64 = 0;
    while (r < regions) : (r += 1) {
        var s: i64 = 0;
        //$omp parallel num_threads(nthreads) shared(x) firstprivate(r) reduction(+: s)
        {
            var i: i64 = 0;
            //$omp while schedule(static)
            while (i < 64) : (i += 1) {
                s = s + x[i] * (r % 7 + 1);
            }
        }
        total = total + s;
    }
    return total;
}
"#;

/// `runtime_fine` kind `chunk1`: one region that claims `n` chunks of one
/// trivial iteration each (the call to `weigh` keeps the loop out of the
/// bulk tiers, which would claim whole batches), then `rounds` rounds of
/// explicit `barrier`, `single` and `critical`.
pub const CHUNK1: &str = r#"
fn weigh(v: i64) i64 {
    return v % 13 + 1;
}

fn chunk1(x: []i64, n: i64, rounds: i64, out: []i64, nthreads: i64) i64 {
    var sum: i64 = 0;
    var ticket: i64 = 0;
    //$omp parallel num_threads(nthreads) shared(x, out, ticket) firstprivate(n, rounds) reduction(+: sum)
    {
        var i: i64 = 0;
        //$omp while schedule(dynamic, 1)
        while (i < n) : (i += 1) {
            sum = sum + weigh(x[i]);
        }
        var r: i64 = 0;
        while (r < rounds) : (r += 1) {
            //$omp barrier
            //$omp single
            {
                out[0] = out[0] + 1;
            }
            //$omp critical
            {
                ticket = ticket + 1;
            }
        }
    }
    out[1] = ticket;
    return sum;
}
"#;
