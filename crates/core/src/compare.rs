//! The one comparison rule: whether a computed value matches its
//! reference within a margin. Kernel verification (§III-A, under the
//! `verificationOptions` margins) and the interactive loop's output check
//! both decide through [`within`] (DESIGN.md §12).

/// Whether `g` matches the reference value `c` within `abs + rel·|c|`.
///
/// NaN and infinity are values, not passes: two NaNs match and exactly
/// one NaN does not; an infinity matches only an equal infinity. Any other
/// pair matches when `|c - g| <= abs + rel·|c|` holds, so an error or a
/// margin that is itself NaN is a mismatch.
pub fn within(c: f64, g: f64, abs: f64, rel: f64) -> bool {
    if c.is_nan() || g.is_nan() {
        return c.is_nan() && g.is_nan();
    }
    if c.is_infinite() || g.is_infinite() {
        return c == g;
    }
    (c - g).abs() <= abs + rel * c.abs()
}

#[cfg(test)]
mod tests {
    use super::within;

    #[test]
    fn nan_and_infinity_are_values() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        assert!(within(nan, nan, 0.0, 0.0));
        assert!(!within(nan, 0.0, 1e9, 1e9));
        assert!(!within(0.0, nan, 1e9, 1e9));
        assert!(within(inf, inf, 0.0, 0.0));
        assert!(within(-inf, -inf, 0.0, 0.0));
        assert!(!within(inf, -inf, 1e9, 1e9));
        assert!(!within(inf, 1e308, 1e9, 1e9));
        assert!(!within(1.0, inf, 1e9, 1e9));
        // Finite values: the margin, inclusive.
        assert!(within(1.0, 1.5, 0.5, 0.0));
        assert!(!within(1.0, 1.5, 0.25, 0.0));
        assert!(within(100.0, 101.0, 0.0, 0.01));
        // An error that overflows, or a margin that is NaN, is a mismatch.
        assert!(!within(f64::MAX, -f64::MAX, 1e300, 0.0));
        assert!(!within(1.0, 1.0, nan, 0.0));
    }
}
