//! Floating-point comparison helpers.
//!
//! All equilibrium predicates in the crate compare expected latencies, which
//! are ratios of sums of positive reals. We use `f64` throughout and thread an
//! explicit [`Tolerance`] through every predicate so that tests can tighten or
//! relax it and so that the choice is visible at call sites.

/// Default absolute/relative tolerance used by [`Tolerance::default`].
pub const DEFAULT_EPS: f64 = 1e-9;

/// The smallest `eps` [`Tolerance::new`] accepts, `2·k·2⁻⁵²` with `k = 16`.
/// The kernels compare moves at `eps − k·2⁻⁵²` to absorb their reciprocal
/// rounding (the `solvers::kernel` module doc bounds `k`), and this floor
/// keeps that margin at least half the caller's.
pub(crate) const MIN_EPS: f64 = 32.0 * f64::EPSILON;

/// A symmetric comparison tolerance for latencies and probabilities.
///
/// Comparisons are performed with a mixed absolute/relative margin:
/// `a ≤ b` holds when `a <= b + eps * max(1, |a|, |b|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    eps: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance { eps: DEFAULT_EPS }
    }
}

impl Tolerance {
    /// Creates a tolerance with the given epsilon, which must be finite and
    /// at least `2·k·2⁻⁵²` with `k = 16` (about `7.1e-15`).
    pub fn new(eps: f64) -> Self {
        assert!(
            eps.is_finite() && eps >= 0.0,
            "tolerance must be finite and non-negative"
        );
        assert!(eps >= MIN_EPS, "tolerance below the kernel floor 2·k·2⁻⁵²");
        Tolerance { eps }
    }

    /// The tolerance the kernels compare moves at, `eps − k·2⁻⁵²`.
    pub(crate) fn kernel(self) -> Self {
        Tolerance {
            eps: self.eps - MIN_EPS / 2.0,
        }
    }

    /// The raw epsilon.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    fn margin(&self, a: f64, b: f64) -> f64 {
        self.eps * 1.0_f64.max(a.abs()).max(b.abs())
    }

    /// `a ≤ b` up to the tolerance margin.
    pub fn leq(&self, a: f64, b: f64) -> bool {
        a <= b + self.margin(a, b)
    }

    /// `a ≥ b` up to the tolerance margin.
    pub fn geq(&self, a: f64, b: f64) -> bool {
        self.leq(b, a)
    }

    /// `a = b` up to the tolerance margin.
    pub fn eq(&self, a: f64, b: f64) -> bool {
        (a - b).abs() <= self.margin(a, b)
    }

    /// Strictly less: `a < b` by more than the margin.
    pub fn lt(&self, a: f64, b: f64) -> bool {
        !self.geq(a, b)
    }

    /// Strictly greater: `a > b` by more than the margin.
    pub fn gt(&self, a: f64, b: f64) -> bool {
        !self.leq(a, b)
    }

    /// `x ∈ (0, 1)` strictly, by more than the margin on both ends.
    pub fn in_open_unit_interval(&self, x: f64) -> bool {
        self.gt(x, 0.0) && self.lt(x, 1.0)
    }

    /// `x ∈ [0, 1]` up to the margin on both ends.
    pub fn in_closed_unit_interval(&self, x: f64) -> bool {
        self.geq(x, 0.0) && self.leq(x, 1.0)
    }

    /// `x` is (approximately) zero.
    pub fn is_zero(&self, x: f64) -> bool {
        self.eq(x, 0.0)
    }
}

/// The canonical bit pattern of `x` for content-addressed hashing: `-0.0`
/// maps to `+0.0` and every NaN payload maps to one canonical quiet NaN, so
/// semantically identical instances can never produce distinct cache keys.
/// All other values keep their exact bits.
pub fn canonical_bits(x: f64) -> u64 {
    if x == 0.0 {
        0 // +0.0: `-0.0 == 0.0`, so both branches land here.
    } else if x.is_nan() {
        0x7FF8_0000_0000_0000 // the canonical quiet NaN
    } else {
        x.to_bits()
    }
}

/// Returns the index of the minimum of `values` (ties broken by lowest index).
///
/// Panics if `values` is empty or contains NaN.
pub fn argmin(values: &[f64]) -> usize {
    assert!(!values.is_empty(), "argmin of an empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        assert!(!v.is_nan(), "argmin over NaN values");
        if v < values[best] {
            best = i;
        }
    }
    best
}

/// Returns the index of the maximum of `values` (ties broken by lowest index).
///
/// Panics if `values` is empty or contains NaN.
pub fn argmax(values: &[f64]) -> usize {
    assert!(!values.is_empty(), "argmax of an empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        assert!(!v.is_nan(), "argmax over NaN values");
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// Sum of a slice using Neumaier (improved Kahan) compensated summation.
///
/// Latency sums over many users/states accumulate rounding error; the
/// compensated sum keeps equilibrium predicates stable for large instances.
pub fn stable_sum(values: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut comp = 0.0;
    for &v in values {
        let t = sum + v;
        if sum.abs() >= v.abs() {
            comp += (sum - t) + v;
        } else {
            comp += (v - t) + sum;
        }
        sum = t;
    }
    sum + comp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tolerance_compares_close_values_equal() {
        let tol = Tolerance::default();
        assert!(tol.eq(1.0, 1.0 + 1e-12));
        assert!(tol.leq(1.0 + 1e-12, 1.0));
        assert!(!tol.eq(1.0, 1.0 + 1e-6));
    }

    #[test]
    fn relative_margin_scales_with_magnitude() {
        let tol = Tolerance::new(1e-9);
        // 1e6 * 1e-9 = 1e-3 margin at magnitude 1e6.
        assert!(tol.eq(1.0e6, 1.0e6 + 1.0e-4));
        assert!(!tol.eq(1.0e6, 1.0e6 + 1.0e-1));
    }

    #[test]
    fn strict_comparisons_are_complements() {
        let tol = Tolerance::default();
        assert!(tol.lt(1.0, 2.0));
        assert!(!tol.lt(2.0, 1.0));
        assert!(!tol.lt(1.0, 1.0 + 1e-12));
        assert!(tol.gt(2.0, 1.0));
    }

    #[test]
    fn unit_interval_checks() {
        let tol = Tolerance::default();
        assert!(tol.in_open_unit_interval(0.5));
        assert!(!tol.in_open_unit_interval(0.0));
        assert!(!tol.in_open_unit_interval(1.0));
        assert!(tol.in_closed_unit_interval(0.0));
        assert!(tol.in_closed_unit_interval(1.0));
        assert!(!tol.in_closed_unit_interval(1.1));
    }

    #[test]
    fn argmin_argmax_break_ties_by_lowest_index() {
        assert_eq!(argmin(&[2.0, 1.0, 1.0, 3.0]), 1);
        assert_eq!(argmax(&[2.0, 3.0, 3.0, 1.0]), 1);
        assert_eq!(argmin(&[5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn argmin_panics_on_empty() {
        argmin(&[]);
    }

    #[test]
    fn stable_sum_matches_naive_on_small_inputs() {
        let xs = [1.0, 2.0, 3.5, -1.25];
        assert_eq!(stable_sum(&xs), 5.25);
    }

    #[test]
    fn stable_sum_is_more_accurate_than_naive() {
        // Classic cancellation pattern: 1 followed by many tiny values.
        let mut xs = vec![1.0e16];
        xs.extend(std::iter::repeat_n(1.0, 10_000));
        xs.push(-1.0e16);
        let exact = 10_000.0;
        let stable = stable_sum(&xs);
        assert!((stable - exact).abs() < 1e-6, "stable sum was {stable}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_tolerance_rejected() {
        Tolerance::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "kernel floor")]
    fn below_floor_tolerance_rejected() {
        Tolerance::new(MIN_EPS / 2.0);
    }

    #[test]
    fn canonical_bits_identify_zero_signs_and_nan_payloads() {
        assert_eq!(canonical_bits(0.0), canonical_bits(-0.0));
        assert_eq!(canonical_bits(0.0), 0);
        assert_ne!((-0.0f64).to_bits(), 0, "the raw patterns really differ");
        let weird_nan = f64::from_bits(0x7FF8_0000_0000_0001);
        assert_eq!(canonical_bits(weird_nan), canonical_bits(f64::NAN));
        // Ordinary values keep their exact bit patterns.
        for v in [
            1.0,
            -1.0,
            1e-300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(canonical_bits(v), v.to_bits());
        }
        assert_ne!(canonical_bits(1.0), canonical_bits(1.0 + f64::EPSILON));
    }
}
