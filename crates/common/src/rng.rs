//! The workspace's one seeded generator, and the distributions the
//! workload generators draw from it.
//!
//! Everything in the reproduction that involves randomness takes an
//! explicit seed so that experiments are replayable: workload logs and
//! query streams, forecaster weights and training order, and
//! property-test cases all draw from [`Rng`]. The fault plans are keyed
//! by coordinate instead and use the stateless [`crate::mix`] functions
//! directly. `tests/generator_pins.rs` pins every seeded stream bit for
//! bit.

use crate::mix::{splitmix64, unit_f64};

/// xoshiro256++ (Blackman & Vigna), seeded through [`splitmix64`].
///
/// The API is what the callers draw, nothing more: raw words, a bounded
/// integer, a unit float, a uniform float interval, a Bernoulli trial
/// and a shuffle. Each is one fixed formula over [`Rng::next_u64`], so a
/// seed fixes every stream on every machine.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose state is the first four outputs of the
    /// splitmix64 sequence started at `seed` (never all zero).
    pub fn new(seed: u64) -> Self {
        let word = |k: u64| splitmix64(seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        Self { s: [word(0), word(1), word(2), word(3)] }
    }

    /// The next 64 uniformly random bits.
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

    /// Uniform in `[0, n)` by modulo reduction (bias below `n / 2^64`).
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform in `[0, 1)` from the top 24 bits.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// `lo + u * (hi - lo)` for a unit draw `u`: uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// A Bernoulli trial that succeeds with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf-distributed sampler over `1..=n` with exponent `s`.
///
/// Uses the classic inverse-CDF-over-precomputed-weights approach; setup is
/// `O(n)` and sampling is `O(log n)`. Good enough for table- and key-skew
/// generation where `n` is at most a few million.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `1..=n` with skew `s >= 0` (`s = 0` is
    /// uniform). Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for w in &mut cdf {
            *w /= total;
        }
        // Guard against floating-point round-off leaving the last bucket
        // fractionally below 1.0.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Self { cdf }
    }

    /// Samples a rank in `1..=n` (1 is the most popular).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).expect("no NaN")) {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.cdf.len()),
        }
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }
}

/// Samples an exponential inter-arrival gap (seconds) for a Poisson
/// process with the given rate (events/second).
pub fn exp_interarrival(rng: &mut Rng, rate_per_sec: f64) -> f64 {
    assert!(rate_per_sec > 0.0, "arrival rate must be positive");
    -rng.uniform(f64::EPSILON, 1.0).ln() / rate_per_sec
}

/// TPC-C NURand(A, x, y): non-uniform random over `[x, y]`.
///
/// `c` is the per-run constant required by clause 2.1.6 of the spec.
pub fn nurand(rng: &mut Rng, a: u64, x: u64, y: u64, c: u64) -> u64 {
    let r1 = rng.below(a + 1);
    let r2 = x + rng.below(y - x + 1);
    (((r1 | r2) + c) % (y - x + 1)) + x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_reference_vectors() {
        // xoshiro256++ over a splitmix64-expanded seed; the values are the
        // ones the workspace's workloads and results were generated from.
        let mut rng = Rng::new(42);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c,
                0xb37d_9f60_0cd8_35b8
            ]
        );
        let mut rng = Rng::new(7);
        let below: Vec<u64> = (0..6).map(|_| rng.below(10)).collect();
        assert_eq!(below, [1, 6, 8, 6, 2, 5]);
        let signed: Vec<i64> = (0..6).map(|_| rng.below(11) as i64 - 5).collect();
        assert_eq!(signed, [-1, -3, -4, -3, 2, 4]);
        assert_eq!(rng.unit(), 0.7338237180793525);
        assert_eq!(rng.unit_f32(), 0.11308575);
        assert_eq!(rng.uniform(-1.0, 1.0), -0.010729677157026885);
        let trials: Vec<bool> = (0..6).map(|_| rng.chance(0.5)).collect();
        assert_eq!(trials, [true, true, true, true, false, false]);
        let mut v: Vec<u32> = (0..10).collect();
        Rng::new(1).shuffle(&mut v);
        assert_eq!(v, [1, 4, 5, 3, 6, 2, 9, 0, 8, 7]);
    }

    #[test]
    fn draws_stay_in_bounds_and_track_their_parameters() {
        let mut rng = Rng::new(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            assert!(rng.below(10) < 10);
            let f = rng.uniform(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
            let u = rng.unit_f32();
            assert!((0.0..1.0).contains(&u));
            sum += rng.unit();
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left slice unchanged");
    }

    #[test]
    fn zipf_is_deterministic_under_seed() {
        let z = Zipf::new(100, 1.0);
        let a: Vec<usize> = {
            let mut rng = Rng::new(7);
            (0..50).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = Rng::new(7);
            (0..50).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(1000, 1.2);
        let mut rng = Rng::new(11);
        let mut top10 = 0usize;
        const N: usize = 20_000;
        for _ in 0..N {
            if z.sample(&mut rng) <= 10 {
                top10 += 1;
            }
        }
        // With s = 1.2 the top-10 ranks carry far more than the uniform 1%.
        assert!(top10 as f64 / N as f64 > 0.30, "top10 share {}", top10 as f64 / N as f64);
    }

    #[test]
    fn zipf_zero_skew_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Rng::new(3);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn zipf_samples_stay_in_domain() {
        let z = Zipf::new(5, 2.0);
        let mut rng = Rng::new(5);
        for _ in 0..1000 {
            let v = z.sample(&mut rng);
            assert!((1..=5).contains(&v));
        }
    }

    #[test]
    fn poisson_gaps_average_to_inverse_rate() {
        let mut rng = Rng::new(13);
        let rate = 50.0;
        let n = 20_000;
        let total: f64 = (0..n).map(|_| exp_interarrival(&mut rng, rate)).sum();
        let mean = total / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.002, "mean gap {mean}");
    }

    #[test]
    fn nurand_stays_in_range() {
        let mut rng = Rng::new(17);
        for _ in 0..1000 {
            let v = nurand(&mut rng, 1023, 1, 3000, 123);
            assert!((1..=3000).contains(&v));
        }
    }
}
