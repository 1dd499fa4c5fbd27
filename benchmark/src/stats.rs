//! The benchmark's summary rules: medians, the quiet wall of a repeated
//! operation, and the percentile of an operation mix.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of `f` over `items`.
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The wall a repeated operation takes while the host is quiet: the fastest
/// of its executions. `NaN` for an empty slice.
///
/// The host shares its cores with neighbours that slow cache- and
/// allocation-heavy operations by a fifth to a half for seconds at a time
/// (a `svc_row` batch reads 80, 100 or 170 ms in stretches while the code is
/// the same). When such stretches cover more than half of a run, the median
/// of the run's samples reports the neighbours; the minimum reports the
/// program as long as one execution ran undisturbed, and a change to the
/// program moves it just the same. Every execution does identical work, so
/// nothing faster than the true cost can be sampled.
pub fn quiet_wall(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Nearest-rank percentile of an already sorted slice: the smallest element
/// with at least `q` of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile `q` of an operation mix. Every distinct operation of a cycle
/// contributes one summary of its own walls (its [`quiet_wall`]) once per
/// occurrence in the cycle (`weight`), and the percentile is the nearest rank
/// over that list.
///
/// Pooling raw samples instead would put p50 of a 26-operation cycle on the
/// boundary between the 13th and 14th cost cluster, where it flips between
/// two unrelated queries from run to run; summarising each operation first
/// keeps the rank structure fixed, so the figure moves only when an
/// operation's own wall moves.
pub fn mix_percentile(ops: &[(f64, usize)], q: f64) -> f64 {
    let mut expanded: Vec<f64> = ops
        .iter()
        .flat_map(|&(wall_s, weight)| std::iter::repeat_n(wall_s, weight))
        .collect();
    expanded.sort_by(f64::total_cmp);
    nearest_rank(&expanded, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quiet_wall_is_the_fastest_execution() {
        // A run whose second half fell into a busy stretch.
        assert_eq!(quiet_wall(&[0.081, 0.079, 0.172, 0.171, 0.174]), 0.079);
        assert!(quiet_wall(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_rule() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 0.91), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
    }

    #[test]
    fn mix_percentile_weights_operations_by_occurrence() {
        // The service mix: three cheap batches and one expensive per cycle.
        let ops = [(0.09, 3), (1.9, 1)];
        assert_eq!(mix_percentile(&ops, 0.5), 0.09);
        assert_eq!(mix_percentile(&ops, 0.9), 1.9);
        // 26 distinct operations: p50 is the 13th, p90 the 24th.
        let ops: Vec<(f64, usize)> = (1..=26).map(|i| (i as f64, 1)).collect();
        assert_eq!(mix_percentile(&ops, 0.5), 13.0);
        assert_eq!(mix_percentile(&ops, 0.9), 24.0);
    }
}
