//! Zipfian and "latest" request distributions (the YCSB standard mix).

use rand::Rng;

/// A Zipfian sampler over `[0, n)` with parameter `theta` (YCSB default
/// 0.99), using the Gray et al. quick method with scrambling.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    /// `0.5^theta`, hoisted out of [`Self::sample`]'s rank-1 cutoff test.
    half_pow_theta: f64,
    scramble: bool,
}

impl Zipfian {
    /// A sampler over `n` items with YCSB's default skew (theta = 0.99),
    /// scrambled so hot keys spread over the keyspace.
    #[must_use]
    pub fn ycsb(n: u64) -> Self {
        Self::new(n, 0.99, true)
    }

    /// A sampler with explicit skew; `scramble = false` keeps item 0 the
    /// hottest (useful for tests).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    #[must_use]
    pub fn new(n: u64, theta: f64, scramble: bool) -> Self {
        assert!(n > 0, "empty keyspace");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zeta_n = Self::zeta_cached(n, theta);
        let zeta_2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
        Self {
            n,
            alpha,
            zeta_n,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
            scramble,
        }
    }

    /// Memoized [`Self::zeta`]: `zeta(n, theta)` is a pure function, and
    /// figure grids and fleet tenants construct the same sampler hundreds
    /// of times, so the O(n) `powf` sum is worth caching process-wide. A
    /// lookup costs one uncontended lock and a map probe; even a 512-term
    /// sum costs more than that.
    fn zeta_cached(n: u64, theta: f64) -> f64 {
        use std::collections::BTreeMap;
        use std::sync::{Mutex, OnceLock};
        static CACHE: OnceLock<Mutex<BTreeMap<(u64, u64), f64>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
        let key = (n, theta.to_bits());
        if let Some(&v) = cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            return v;
        }
        let v = Self::zeta(n, theta);
        cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, v);
        v
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n; Euler-Maclaurin tail approximation for large n
        // keeps construction O(1)-ish without changing the distribution
        // shape measurably.
        const EXACT: u64 = 100_000;
        let exact_n = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT {
            let a = EXACT as f64;
            let b = n as f64;
            sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        }
        sum
    }

    /// Number of items.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Samples an item index.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zeta_n;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + self.half_pow_theta {
            1
        } else {
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        let rank = rank.min(self.n - 1);
        if self.scramble {
            // FNV-style scramble keeps the distribution but spreads hot
            // ranks across the keyspace, as YCSB does. (The added constant
            // keeps rank 0 from fixing at key 0.)
            let mut h = (rank ^ 0xdead_beef_cafe).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 29;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 32;
            h % self.n
        } else {
            rank
        }
    }
}

/// The YCSB "latest" distribution: recent inserts are hottest (workload D).
#[derive(Debug, Clone)]
pub struct Latest {
    zipf: Zipfian,
}

impl Latest {
    /// A sampler over the most recent `window` items.
    #[must_use]
    pub fn new(window: u64) -> Self {
        Self {
            zipf: Zipfian::new(window.max(2), 0.99, false),
        }
    }

    /// Samples an item given the current maximum id: results cluster near
    /// `max_id`.
    pub fn sample<R: Rng>(&self, max_id: u64, rng: &mut R) -> u64 {
        let back = self.zipf.sample(rng).min(max_id);
        max_id - back
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn unscrambled_zipf_is_head_heavy() {
        let z = Zipfian::new(10_000, 0.99, false);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut head = 0u32;
        let samples = 50_000;
        for _ in 0..samples {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // With theta = 0.99, the top 1% of keys draw roughly half the
        // traffic.
        let frac = head as f64 / samples as f64;
        assert!(frac > 0.4, "head fraction {frac}");
    }

    #[test]
    fn samples_stay_in_range() {
        for n in [1u64, 2, 10, 1_000_000] {
            let z = Zipfian::ycsb(n);
            let mut rng = rand::rngs::StdRng::seed_from_u64(n);
            for _ in 0..2_000 {
                assert!(z.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    fn scrambling_spreads_the_head() {
        let z = Zipfian::new(10_000, 0.99, true);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut first_bucket = 0u32;
        for _ in 0..20_000 {
            if z.sample(&mut rng) < 100 {
                first_bucket += 1;
            }
        }
        // Scrambled: the lowest 1% of key ids are no longer special.
        assert!((first_bucket as f64 / 20_000.0) < 0.1);
    }

    #[test]
    fn latest_clusters_near_max() {
        let l = Latest::new(1000);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut near = 0u32;
        for _ in 0..10_000 {
            let s = l.sample(5_000, &mut rng);
            assert!(s <= 5_000);
            if s > 4_900 {
                near += 1;
            }
        }
        assert!(near > 5_000, "latest skews to recent ids: {near}");
    }

    #[test]
    fn memoised_zeta_is_bit_identical_to_the_sum() {
        for n in [2u64, 512, 1000, 1023, 1024, 100_001] {
            let sum = Zipfian::zeta(n, 0.99).to_bits();
            assert_eq!(Zipfian::zeta_cached(n, 0.99).to_bits(), sum, "n={n} miss");
            assert_eq!(Zipfian::zeta_cached(n, 0.99).to_bits(), sum, "n={n} hit");
        }
    }

    #[test]
    #[should_panic(expected = "empty keyspace")]
    fn zero_keyspace_panics() {
        let _ = Zipfian::ycsb(0);
    }
}
