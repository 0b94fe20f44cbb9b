//! Order statistics over latency samples.

/// The `q`-quantile (nearest rank) of `v`, which is sorted in place; 0 when
/// `v` is empty.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of a few floats (the per-slice figures); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The figure of the window's quiet quarter: of the per-slice values, the
/// one a quarter of the way in from the best (third best of ten), where best
/// is lowest for a latency and highest for a rate.
///
/// On a shared machine the noise is one-sided: a neighbour's burst slows
/// slices down, nothing speeds them up. Between runs of one binary the
/// median over slices moved by half as much again as this does (README,
/// Steadiness), and unlike the best slice it is not an extreme.
pub fn quiet_quartile(v: &[f64], higher_is_better: bool) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if higher_is_better {
        s.reverse();
    }
    s.get(s.len() / 4).copied().unwrap_or(0.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }

    #[test]
    fn quiet_quartile_leans_to_the_better_side() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quiet_quartile(&v, false), 3.0);
        assert_eq!(quiet_quartile(&v, true), 8.0);
        assert_eq!(quiet_quartile(&v[..4], false), 2.0);
        assert_eq!(quiet_quartile(&[], true), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
