//! The workspace's one random stream.
//!
//! [`RandomScheduler`](crate::sched::RandomScheduler) draws each swept
//! run's interleaving from it, and the checker's program generators draw
//! their programs, so a seed names one run or one program. The generator
//! is xoshiro256++ (Blackman & Vigna) with its state expanded from the
//! seed by SplitMix64. `tests/rng_stream.rs` pins its first outputs:
//! changing any of them re-records every workload.

/// A seeded xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose state is four SplitMix64 outputs from `seed`.
    /// SplitMix64 never yields the all-zero state, xoshiro's fixed point.
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut splitmix = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [splitmix(), splitmix(), splitmix(), splitmix()],
        }
    }

    /// A property test's generator, seeded from the FNV-1a hash of its
    /// name (`module::property`), so every run draws the same cases. Not
    /// part of the stable API.
    #[doc(hidden)]
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Rng::new(h)
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `0..n`. Outputs in the incomplete last block of
    /// `n` values are drawn again, so no value is favoured.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw from an empty range");
        let span = n as u64;
        let zone = u64::MAX - u64::MAX % span;
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % span) as usize;
            }
        }
    }

    /// `true` with probability `p`: a uniform float in `[0, 1)` from the
    /// output's top 53 bits, compared with `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(42).next_u64(), Rng::new(43).next_u64());
    }

    #[test]
    fn below_stays_in_bounds_and_covers() {
        let mut rng = Rng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..10 drawn");
    }

    #[test]
    fn chance_tracks_probability() {
        let mut rng = Rng::new(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_600..3_400).contains(&hits), "got {hits} hits for p=0.3");
        let mut rng = Rng::new(11);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
