//! Self-contained Zag programs served by the bench driver, the CI smoke
//! test, and the integration suite.
//!
//! Each is the corresponding NPB port from `zomp_bench::ports` plus a
//! Zag-side driver that builds the input arrays in-program, so a request
//! needs only scalar arguments. `cg_demo` and `is_demo` produce integer
//! or per-element results (no cross-thread float reduction), making
//! their output bit-identical regardless of interleaving — the property
//! the isolation stress tests assert.

use zomp_bench::ports::{ZAG_EP, ZAG_MATVEC, ZAG_RANK};

/// CG-flavoured: tridiagonal CSR matvec (dynamic schedule), returns the
/// checksum of the result vector. Entry: `cg_demo(n, reps, nthreads) f64`.
pub fn cg() -> String {
    format!(
        "{ZAG_MATVEC}\n{}",
        r#"
fn cg_demo(n: i64, reps: i64, nthreads: i64) f64 {
    var rowstr: []i64 = @allocI(n + 1);
    var colidx: []i64 = @allocI(3 * n);
    var a: []f64 = @allocF(3 * n);
    var p: []f64 = @allocF(n);
    var q: []f64 = @allocF(n);
    var pos: i64 = 0;
    var i: i64 = 0;
    while (i < n) : (i += 1) {
        rowstr[i] = pos;
        if (i > 0) {
            colidx[pos] = i - 1;
            a[pos] = 0.0 - 1.0;
            pos += 1;
        }
        colidx[pos] = i;
        a[pos] = 4.0;
        pos += 1;
        if (i < n - 1) {
            colidx[pos] = i + 1;
            a[pos] = 0.0 - 1.0;
            pos += 1;
        }
        p[i] = @intToFloat(i - n / 2);
        q[i] = 0.0;
    }
    rowstr[n] = pos;
    matvec(n, rowstr, colidx, a, p, q, reps, nthreads);
    var s: f64 = 0.0;
    var j: i64 = 0;
    while (j < n) : (j += 1) {
        s = s + q[j] * @intToFloat(j % 7 + 1);
    }
    return s;
}
"#
    )
}

/// EP-flavoured: the 46-bit LCG Gaussian pairs with region reductions.
/// Entry: `ep_demo(m, mk, nthreads) f64`.
pub fn ep() -> String {
    format!(
        "{ZAG_EP}\n{}",
        r#"
fn ep_demo(m: i64, mk: i64, nthreads: i64) f64 {
    var q: []f64 = @allocF(10);
    return ep(m, mk, nthreads, q);
}
"#
    )
}

/// IS-flavoured: bucketed counting rank over Lehmer-LCG keys; returns an
/// integer checksum of the rank array, bit-stable by construction.
/// Entry: `is_demo(nkeys, maxlog, nblog, nthreads) i64`.
pub fn is() -> String {
    format!(
        "{ZAG_RANK}\n{}",
        r#"
fn is_demo(nkeys: i64, maxlog: i64, nblog: i64, nthreads: i64) i64 {
    var maxkey: i64 = 1;
    var m0: i64 = 0;
    while (m0 < maxlog) : (m0 += 1) {
        maxkey = maxkey * 2;
    }
    var nb: i64 = 1;
    var b0: i64 = 0;
    while (b0 < nblog) : (b0 += 1) {
        nb = nb * 2;
    }
    var keys: []i64 = @allocI(nkeys);
    var seed: i64 = 12345;
    var i: i64 = 0;
    while (i < nkeys) : (i += 1) {
        seed = (seed * 16807) % 2147483647;
        keys[i] = seed % maxkey;
    }
    var counts: []i64 = @allocI(nthreads * nb);
    var starts: []i64 = @allocI(nb + 1);
    var buff2: []i64 = @allocI(nkeys);
    var ranks: []i64 = @allocI(maxkey);
    rank(keys, nkeys, maxlog, nblog, counts, starts, buff2, ranks, nthreads);
    var sum: i64 = 0;
    var k: i64 = 0;
    while (k < maxkey) : (k += 1) {
        sum = sum + ranks[k] * (k % 13 + 1);
    }
    return sum;
}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use zomp_vm::{Backend, OptLevel, Value, Vm};

    fn run(source: &str, entry: &str, args: Vec<Value>) -> Value {
        let vm = Vm::build(source, None, Backend::Bytecode, OptLevel::default())
            .unwrap_or_else(|e| panic!("{}", e.render(source)));
        vm.call_function(entry, args)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn cg_demo_is_deterministic_across_team_sizes() {
        let src = cg();
        let solo = run(
            &src,
            "cg_demo",
            vec![Value::Int(500), Value::Int(2), Value::Int(1)],
        )
        .as_float()
        .unwrap();
        let four = run(
            &src,
            "cg_demo",
            vec![Value::Int(500), Value::Int(2), Value::Int(4)],
        )
        .as_float()
        .unwrap();
        assert_eq!(
            solo.to_bits(),
            four.to_bits(),
            "per-element matvec must not depend on team size"
        );
    }

    #[test]
    fn is_demo_is_deterministic_across_team_sizes() {
        let src = is();
        let args = |nt: i64| {
            vec![
                Value::Int(2000),
                Value::Int(9),
                Value::Int(4),
                Value::Int(nt),
            ]
        };
        assert_eq!(
            run(&src, "is_demo", args(1)).as_int().unwrap(),
            run(&src, "is_demo", args(4)).as_int().unwrap()
        );
    }

    #[test]
    fn ep_demo_executes() {
        let src = ep();
        let v = run(
            &src,
            "ep_demo",
            vec![Value::Int(12), Value::Int(8), Value::Int(2)],
        );
        assert!(matches!(v, Value::Float(x) if x.is_finite()));
    }
}
