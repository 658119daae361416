//! The NPB pseudorandom number generator.
//!
//! All NPB kernels draw their inputs from the same 46-bit linear
//! congruential generator
//!
//! ```text
//! x_{k+1} = a * x_k  (mod 2^46)
//! ```
//!
//! implemented in double-precision arithmetic by splitting operands into two
//! 23-bit halves (the classic `randlc` routine). We reproduce the double
//! splitting *exactly* — not with `u64` modular arithmetic — because the NPB
//! verification values depend on using the same operation order (the results
//! are identical anyway, but keeping the reference shape makes the port
//! auditable line-by-line against `randlc.f`).

/// 2^-23
const R23: f64 = 1.192_092_895_507_812_5e-7;
/// 2^23
const T23: f64 = 8_388_608.0;
/// 2^-46
const R46: f64 = R23 * R23;
/// 2^46
const T46: f64 = T23 * T23;

/// Default NPB seed.
pub const DEFAULT_SEED: f64 = 314_159_265.0;
/// Default NPB multiplier.
pub const DEFAULT_MULT: f64 = 1_220_703_125.0;

/// One LCG step: updates `x` in place and returns the uniform deviate
/// `x / 2^46 ∈ (0, 1)`. Port of `randlc(x, a)`.
#[inline]
pub fn randlc(x: &mut f64, a: f64) -> f64 {
    let (a1, a2) = split(a);
    step(x, a1, a2)
}

/// Fortran's `int()` on a double: truncation toward zero through the
/// integer unit. Equal to `f64::trunc` for every `|v| < 2^63` — all a
/// 46-bit stream produces. Baseline x86-64 has no instruction for
/// `trunc`, and its lowering cost the benchmark's hand-written EP
/// reference 4.7 ms against 3.7 ms with the cast.
#[inline(always)]
fn int(v: f64) -> f64 {
    (v as i64) as f64
}

/// Break A into two parts such that A = 2^23 * A1 + A2.
#[inline]
fn split(a: f64) -> (f64, f64) {
    let t1 = R23 * a;
    let a1 = int(t1);
    (a1, a - T23 * a1)
}

/// The part of `randlc` that depends on the seed: a fill hoists
/// [`split`] of its loop-invariant multiplier out of the loop.
#[inline]
fn step(x: &mut f64, a1: f64, a2: f64) -> f64 {
    // Break X into two parts such that X = 2^23 * X1 + X2, compute
    // Z = A1 * X2 + A2 * X1 (mod 2^23), and then
    // X = 2^23 * Z + A2 * X2 (mod 2^46).
    let t1 = R23 * *x;
    let x1 = int(t1);
    let x2 = *x - T23 * x1;
    let t1 = a1 * x2 + a2 * x1;
    let t2 = int(R23 * t1);
    let z = t1 - T23 * t2;
    let t3 = T23 * z + a2 * x2;
    let t4 = int(R46 * t3);
    *x = t3 - T46 * t4;
    R46 * *x
}

/// Fill `y` with successive deviates; port of `vranlc(n, x, a, y)`.
///
/// One `randlc` step waits for the previous one through ~10 dependent
/// multiplies, so a long fill of an exact stream runs as
/// [`STREAMS`] independent jump-ahead streams ([`leapfrog`]); the bits
/// are those of the per-element loop, which every other fill still is.
pub fn vranlc(x: &mut f64, a: f64, y: &mut [f64]) {
    let tail = if y.len() >= 2 * STREAMS && is_exact(*x) && is_exact(a) {
        leapfrog(x, a, y)
    } else {
        y
    };
    for slot in tail {
        *slot = randlc(x, a);
    }
}

/// Streams [`leapfrog`] advances per trip (8 measured fastest; see
/// `zomp_vm::kernels::LCG_STREAMS`, which runs the same scheme).
const STREAMS: usize = 8;

/// An integer-valued double in `[0, 2^46)`. For such a seed and
/// multiplier every intermediate of [`randlc`] is an integer below
/// `2^47 < 2^53`, so no operation rounds and a step *is*
/// `a * x mod 2^46` (`matches_integer_lcg` below).
fn is_exact(v: f64) -> bool {
    (0.0..T46).contains(&v) && int(v) == v
}

/// Fill all whole groups of [`STREAMS`] elements of `y` (at least one)
/// and return the rest. Requires [`is_exact`] of `*x` and `a`: then
/// stream `k`, seeded
/// with the state `k + 1` steps past `*x` and stepping by
/// `a^STREAMS mod 2^46`, visits exactly the states `k + 1 + j * STREAMS`
/// of the sequential stream.
fn leapfrog<'y>(x: &mut f64, a: f64, y: &'y mut [f64]) -> &'y mut [f64] {
    let (a1, a2) = split(a);
    let mut an = a;
    for _ in 1..STREAMS {
        step(&mut an, a1, a2);
    }
    let (an1, an2) = split(an);
    let mut s = [0.0f64; STREAMS];
    let (first, rest) = y.split_at_mut(STREAMS);
    let mut groups = rest.chunks_exact_mut(STREAMS);
    for (slot, sk) in first.iter_mut().zip(&mut s) {
        *slot = step(x, a1, a2);
        *sk = *x;
    }
    for group in groups.by_ref() {
        for (slot, sk) in group.iter_mut().zip(&mut s) {
            *slot = step(sk, an1, an2);
        }
    }
    *x = s[STREAMS - 1];
    groups.into_remainder()
}

/// Compute `a^n (mod 2^46)` in LCG space by binary exponentiation — the
/// "find starting seed" idiom EP and IS use to jump the stream to an
/// arbitrary offset in O(log n) steps.
pub fn lcg_pow(a: f64, mut n: u64) -> f64 {
    // Square-and-multiply entirely with randlc steps so rounding behaviour
    // matches the Fortran exactly.
    let mut result = 1.0f64; // LCG identity: multiplying a seed by 1
    let mut base = a;
    while n > 0 {
        if n & 1 == 1 {
            randlc(&mut result, base);
        }
        let b = base;
        randlc(&mut base, b);
        n >>= 1;
    }
    result
}

/// Jump a seed forward by `n` steps: `seed * a^n (mod 2^46)`.
pub fn lcg_jump(seed: f64, a: f64, n: u64) -> f64 {
    let mut s = seed;
    randlc(&mut s, lcg_pow(a, n));
    if n == 0 {
        seed
    } else {
        s
    }
}

/// A stateful convenience wrapper over `randlc`.
#[derive(Debug, Clone, Copy)]
pub struct NpbRng {
    x: f64,
    a: f64,
}

impl NpbRng {
    pub fn new(seed: f64, mult: f64) -> Self {
        NpbRng { x: seed, a: mult }
    }

    /// Default NPB stream.
    pub fn npb_default() -> Self {
        Self::new(DEFAULT_SEED, DEFAULT_MULT)
    }

    /// Next uniform deviate in (0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        randlc(&mut self.x, self.a)
    }

    /// Current raw state (the 46-bit value as f64).
    pub fn state(&self) -> f64 {
        self.x
    }

    /// Replace the raw state.
    pub fn set_state(&mut self, x: f64) {
        self.x = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_exact_powers() {
        assert_eq!(R23, 2f64.powi(-23));
        assert_eq!(T23, 2f64.powi(23));
        assert_eq!(R46, 2f64.powi(-46));
        assert_eq!(T46, 2f64.powi(46));
    }

    #[test]
    fn deviates_are_in_unit_interval_and_state_is_integral() {
        let mut x = DEFAULT_SEED;
        for _ in 0..10_000 {
            let u = randlc(&mut x, DEFAULT_MULT);
            assert!(u > 0.0 && u < 1.0);
            assert_eq!(x, x.trunc(), "state must remain an integer < 2^46");
            assert!(x < T46);
        }
    }

    #[test]
    fn matches_integer_lcg() {
        // The double-split arithmetic must agree with exact u64 modular
        // arithmetic: x' = a*x mod 2^46.
        let mut x = DEFAULT_SEED;
        let mut xi: u64 = DEFAULT_SEED as u64;
        const M: u64 = 1 << 46;
        for _ in 0..1000 {
            randlc(&mut x, DEFAULT_MULT);
            xi = ((xi as u128 * DEFAULT_MULT as u128) % M as u128) as u64;
            assert_eq!(x as u64, xi);
        }
    }

    #[test]
    fn vranlc_equals_repeated_randlc() {
        // Both sides of the leapfrog's length and exactness conditions:
        // fractional, negative, 2^46 and NaN operands take the
        // per-element loop, and must match it like the exact ones.
        let seeds = [DEFAULT_SEED, 0.0, 1.0, T46 - 1.0, 0.5, -3.0, T46, f64::NAN];
        for len in (0..=3 * STREAMS + 1).chain([63, 64, 65, 1023]) {
            for seed in seeds {
                for mult in [DEFAULT_MULT, T23, T46 - 1.0, 1.5, f64::INFINITY] {
                    let (mut x1, mut x2) = (seed, seed);
                    let mut buf = vec![0.0; len];
                    vranlc(&mut x1, mult, &mut buf);
                    for (i, v) in buf.iter().enumerate() {
                        let want = randlc(&mut x2, mult);
                        assert_eq!(
                            v.to_bits(),
                            want.to_bits(),
                            "element {i} of {len}, seed {seed}, multiplier {mult}"
                        );
                    }
                    assert_eq!(x1.to_bits(), x2.to_bits(), "final state, length {len}");
                }
            }
        }
    }

    #[test]
    fn lcg_pow_matches_stepping() {
        for n in [0u64, 1, 2, 3, 7, 100, 65_536] {
            let jumped = lcg_jump(DEFAULT_SEED, DEFAULT_MULT, n);
            let mut stepped = DEFAULT_SEED;
            for _ in 0..n {
                randlc(&mut stepped, DEFAULT_MULT);
            }
            assert_eq!(jumped, stepped, "jump of {n} steps diverged");
        }
    }

    #[test]
    fn jump_is_additive() {
        let a = lcg_jump(DEFAULT_SEED, DEFAULT_MULT, 1000);
        let b = lcg_jump(lcg_jump(DEFAULT_SEED, DEFAULT_MULT, 400), DEFAULT_MULT, 600);
        assert_eq!(a, b);
    }

    #[test]
    fn rng_wrapper_matches_free_functions() {
        let mut rng = NpbRng::npb_default();
        let mut x = DEFAULT_SEED;
        for _ in 0..100 {
            assert_eq!(rng.next_f64(), randlc(&mut x, DEFAULT_MULT));
        }
    }
}
