//! Seeded randomness, input digests and the order statistics every
//! reported number goes through.

/// SplitMix64: everything random in a run derives from `--seed` through
/// one of these, so the same seed reproduces the same inputs bit for bit.
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`salt` names it), independent of the
    /// streams other purposes draw from the same seed.
    pub fn new(seed: u64, salt: &str) -> Rng {
        Rng(seed ^ Digest::of(salt.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (`n > 0`); the modulo bias is irrelevant at
    /// the sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An FNV-1a-style hash of the generated inputs (one multiply per byte of
/// text, per word of data): printed as `inputs_digest` so two runs can be
/// shown to have measured the same data.
#[derive(Clone, Copy)]
pub struct Digest(u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::default();
        d.bytes(bytes);
        d.0
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Whole words at a time: the inputs are megabytes and the digest is
    /// taken inside the timed set-up.
    pub fn u64s(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The `p`-quantile (`0 <= p <= 1`) by nearest rank on a sorted copy;
/// 0.0 for an empty series so a missing series shows as an impossible time.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Geometric mean of positive values (0.0 when empty): each kind moves
/// the workload's figure by its relative, not its absolute, change.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One round of the interleaved schedule: `kind0@t1, kind0@t2, kind1@t1,
/// ...`, so drift of the host over a run lands on every series equally.
pub fn interleave(kinds: usize) -> Vec<(usize, usize)> {
    (0..kinds).flat_map(|k| [(k, 1), (k, 2)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.95), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[7.0, 9.0]), 9.0);
    }

    #[test]
    fn geomean_weights_kinds_by_ratio() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[10.0, 10.0, 10.0]) - 10.0).abs() < 1e-12);
        // Halving one of two kinds moves the figure by 1/sqrt(2),
        // whichever kind it is.
        assert!((geomean(&[0.5, 100.0]) - geomean(&[1.0, 50.0])).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn interleave_alternates_team_sizes_within_each_kind() {
        assert_eq!(
            interleave(3),
            vec![(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]
        );
    }

    #[test]
    fn rng_repeats_per_seed_and_differs_across_seeds_and_salts() {
        let draw = |seed, salt| {
            let mut r = Rng::new(seed, salt);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "a"), draw(7, "a"));
        assert_ne!(draw(7, "a"), draw(8, "a"));
        assert_ne!(draw(7, "a"), draw(7, "b"));
        let mut r = Rng::new(1, "u");
        for _ in 0..1000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
            assert!(r.below(10) < 10);
        }
    }
}
