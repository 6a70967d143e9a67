//! Exact floating-point summation. A left fold of `f64`s rounds at every
//! step, so its answer depends on the order of the values: key ranges
//! summed apart and merged would not answer what one scan does.
//! [`ExactSum`] keeps the sum as a fixed-point integer over the whole
//! finite range and rounds once, to nearest with ties to even, when read,
//! so its answer is the same for any order and any partition.

/// Bins over the finite range: a value `m · 2^(s − 1074)` (53-bit `m`,
/// `0 ≤ s ≤ 2045`) adds `m << (s % 32)` to bin `s / 32`, under 2^84.
const BINS: usize = 64;
/// Non-finite inputs seen: bit 0 `+inf`, bit 1 `-inf`, bit 2 NaN.
const POS_INF: u8 = 1;
const NEG_INF: u8 = 2;
const NAN: u8 = 4;

/// The exact sum of the `f64`s pushed into it, for fewer than 2^43 of
/// them (an `i128` bin holds 2^127).
#[derive(Debug, Clone)]
pub struct ExactSum {
    /// `bins[j]` counts units of `2^(32·j − 1074)`.
    bins: [i128; BINS],
    special: u8,
}

impl Default for ExactSum {
    fn default() -> Self {
        Self { bins: [0; BINS], special: 0 }
    }
}

impl ExactSum {
    /// Adds `v`, exactly: a finite value is one shift and one add.
    #[inline]
    pub fn push(&mut self, v: f64) {
        let bits = v.to_bits();
        let exp = (bits >> 52 & 0x7FF) as u32;
        if exp == 0x7FF {
            self.special |= if v.is_nan() { NAN } else { 1 << u8::from(v < 0.0) };
            return;
        }
        let s = exp.max(1) - 1;
        let x = i128::from(bits & ((1 << 52) - 1) | u64::from(exp != 0) << 52) << (s % 32);
        let neg = -((bits >> 63) as i128);
        self.bins[(s / 32) as usize] += (x ^ neg) - neg;
    }

    /// Adds everything `other` holds, exactly.
    pub fn merge(&mut self, other: &ExactSum) {
        self.bins.iter_mut().zip(&other.bins).for_each(|(a, b)| *a += b);
        self.special |= other.special;
    }

    /// The sum, correctly rounded (`±inf` past the finite range, an exact
    /// zero `+0.0`). Non-finite inputs answer as IEEE addition does.
    pub fn sum(&self) -> f64 {
        self.quotient(1)
    }

    /// The sum over `n > 0`, rounded once from the exact quotient.
    pub fn mean(&self, n: u64) -> f64 {
        self.quotient(n)
    }

    fn quotient(&self, n: u64) -> f64 {
        match self.special {
            0 => {}
            POS_INF => return f64::INFINITY,
            NEG_INF => return f64::NEG_INFINITY,
            _ => return f64::NAN,
        }
        let (mut mag, negative) = match self.digits(false) {
            (_, true) => (self.digits(true).0, true),
            positive => positive,
        };
        let mut rem = 0u128;
        for d in mag.iter_mut().rev() {
            let cur = rem << 32 | u128::from(*d);
            (*d, rem) = ((cur / u128::from(n)) as u32, cur % u128::from(n));
        }
        let x = round(&mag, rem != 0);
        if negative {
            -x
        } else {
            x
        }
    }

    /// The sum (negated if `neg`) as little-endian base-2^32 digits in
    /// units of `2^-1106` (the lowest digit is zero: room for a quotient's
    /// fraction), and whether it is negative (then the digits are not).
    fn digits(&self, neg: bool) -> ([u32; BINS + 5], bool) {
        let mut out = [0u32; BINS + 5];
        let mut carry = 0i128;
        for (j, d) in out.iter_mut().enumerate().skip(1) {
            let b = self.bins.get(j - 1).copied().unwrap_or(0);
            let v = carry + if neg { -b } else { b };
            (*d, carry) = (v as u32, v >> 32);
        }
        (out, carry < 0)
    }
}

/// The `f64` nearest `mag · 2^-1106`, ties to even; `inexact` says a
/// nonzero remainder lies below `mag`.
fn round(mag: &[u32], inexact: bool) -> f64 {
    let bit = |i: u32| mag[(i / 32) as usize] >> (i % 32) & 1 == 1;
    let Some(top) = mag.iter().rposition(|&d| d != 0) else { return 0.0 };
    let msb = top as u32 * 32 + 31 - mag[top].leading_zeros();
    // 53 bits, fewer where the result is subnormal.
    let shift = msb.saturating_sub(52).max(32);
    let mut mant = (shift..shift + 53).rev().fold(0, |m, i| m << 1 | u64::from(i <= msb && bit(i)));
    if bit(shift - 1) && (inexact || mant & 1 == 1 || (0..shift - 1).any(bit)) {
        mant += 1;
    }
    // The exponent field is `shift − 32`, plus one through `mant`'s bit
    // 52 — which also carries a rounding overflow into the exponent.
    let bits = (u64::from(shift - 32) << 52) + mant;
    f64::from_bits(bits.min(f64::INFINITY.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::rng::Rng;

    /// `k · unit` for a `k` below `2^62` in magnitude that an `f64`
    /// holds exactly, and that `k`.
    fn draw(rng: &mut Rng, unit: f64) -> (f64, i128) {
        let k = (rng.next_u64() >> (2 + rng.below(60))) as i64;
        let k = if rng.chance(0.5) { -k } else { k } as f64;
        (k * unit, k as i128)
    }

    fn sum_of(vs: &[f64]) -> ExactSum {
        let mut s = ExactSum::default();
        vs.iter().for_each(|&v| s.push(v));
        s
    }

    /// The independent reference: the same values summed in `i128` and
    /// rounded once by `as f64`, in units of `2^-30` (the middle bins) and
    /// of `2^-1074` (subnormals and the lowest bins).
    #[test]
    fn matches_an_exact_integer_reference_under_any_order_and_partition() {
        let mut rng = Rng::new(7);
        for case in 0..200 {
            let unit = if case % 2 == 0 { (-30f64).exp2() } else { f64::from_bits(1) };
            let n = 1 + rng.below(if case % 10 == 0 { 5_000 } else { 60 }) as usize;
            let (mut vs, ks): (Vec<f64>, Vec<i128>) = (0..n).map(|_| draw(&mut rng, unit)).unzip();
            let exact: i128 = ks.iter().sum();
            let want = exact as f64 * unit;
            assert_eq!(sum_of(&vs).sum().to_bits(), want.to_bits(), "case {case}");
            rng.shuffle(&mut vs);
            let mut merged = ExactSum::default();
            let mut rest = &vs[..];
            while !rest.is_empty() {
                let (part, tail) = rest.split_at(1 + rng.below(rest.len() as u64) as usize);
                merged.merge(&sum_of(part));
                rest = tail;
            }
            assert_eq!(merged.sum().to_bits(), want.to_bits(), "case {case}, split");
            // While the sum is below 2^53 units, `as f64` of the sum and of
            // `n` are exact and one IEEE division rounds the true mean.
            if case % 2 == 0 && exact.unsigned_abs() < 1 << 53 {
                let mean = (exact as f64 / n as f64) * unit;
                assert_eq!(merged.mean(n as u64).to_bits(), mean.to_bits(), "case {case}, mean");
            }
        }
    }

    #[test]
    fn rounds_once_where_a_left_fold_rounds_twice() {
        // 1 + 2^-53 + 2^-53: a fold loses both halves, the exact sum keeps
        // them and lands on 1 + 2^-52.
        let vs = [1.0, 2f64.powi(-53), 2f64.powi(-53)];
        assert_eq!(vs.iter().sum::<f64>(), 1.0);
        assert_eq!(sum_of(&vs).sum(), 1.0 + f64::EPSILON);
        // Ties go to even: 1 + 2^-53 is halfway and stays at 1.
        assert_eq!(sum_of(&vs[..2]).sum(), 1.0);
        assert_eq!(sum_of(&[1e308, 1e308, -1e308]).sum(), 1e308);
        assert_eq!(sum_of(&[f64::MAX, f64::MAX]).sum(), f64::INFINITY);
        assert_eq!(sum_of(&[-f64::MAX, -f64::MAX]).sum(), f64::NEG_INFINITY);
        let tiny = f64::from_bits(1);
        assert_eq!(sum_of(&[tiny, tiny, tiny]).sum(), f64::from_bits(3));
        assert_eq!(sum_of(&[tiny, tiny, tiny]).mean(2), f64::from_bits(2), "1.5 ulp ties to even");
        assert_eq!(sum_of(&[tiny]).mean(3), 0.0);
        // The three doubles sum to exactly 2^-55; the fold says 2^-54.
        assert_eq!(0.1 + 0.2 - 0.3, 2f64.powi(-54));
        assert_eq!(sum_of(&[0.1, 0.2, -0.3]).sum(), 2f64.powi(-55));
        assert_eq!(sum_of(&[5.0, -5.0]).sum().to_bits(), 0.0f64.to_bits());
        assert_eq!(ExactSum::default().sum().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn non_finite_inputs_answer_as_ieee_addition() {
        let inf = f64::INFINITY;
        assert_eq!(sum_of(&[1.0, inf, 2.0]).sum(), inf);
        assert_eq!(sum_of(&[1.0, -inf]).sum(), -inf);
        assert_eq!(sum_of(&[-inf, 1.0]).mean(2), -inf);
        assert!(sum_of(&[inf, -inf]).sum().is_nan());
        assert!(sum_of(&[1.0, f64::NAN]).sum().is_nan());
        let mut a = sum_of(&[inf]);
        a.merge(&sum_of(&[-inf]));
        assert!(a.sum().is_nan(), "merge keeps both infinities");
    }

    #[test]
    fn the_top_bin_rounds_past_the_finite_range() {
        let mut big = ExactSum::default();
        big.bins[BINS - 1] = 1 << 100;
        big.bins[0] = -1;
        assert_eq!(big.sum(), f64::INFINITY);
        big.bins[BINS - 1] = -(1 << 100);
        assert_eq!(big.sum(), f64::NEG_INFINITY);
        assert_eq!(sum_of(&[f64::MAX, -f64::MAX, f64::MIN_POSITIVE]).sum(), f64::MIN_POSITIVE);
    }
}
