//! Exact sample statistics. Latencies are kept as raw per-request samples
//! and summarized by nearest rank — never through log2-bucket histograms,
//! whose 2× resolution cannot show a 10–30% change.

/// Nearest-rank quantile of `samples` (0 < q ≤ 1): the smallest sample
/// with at least `q · n` samples at or below it. Reorders `samples`.
/// `None` when empty.
pub fn quantile<T: Copy + PartialOrd>(samples: &mut [T], q: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, v, _) = samples.select_nth_unstable_by(rank - 1, |a, b| {
        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
    });
    Some(*v)
}

/// Nearest-rank median of a copy of `values` (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5).unwrap_or(0.0)
}

/// Summary of one sample set: count, median, p90, max and sum.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub median: f64,
    pub p90: f64,
    pub max: f64,
    pub total: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        Summary {
            count: v.len(),
            median: quantile(&mut v, 0.5).unwrap_or(0.0),
            p90: quantile(&mut v, 0.9).unwrap_or(0.0),
            max: quantile(&mut v, 1.0).unwrap_or(0.0),
            total: values.iter().sum(),
        }
    }
}

/// How many samples lie strictly above the `q` quantile — the support a
/// tail percentile has (report a percentile only with its count).
pub fn beyond(samples: &[u64], q: f64) -> usize {
    let Some(cut) = quantile(&mut samples.to_vec(), q) else {
        return 0;
    };
    samples.iter().filter(|&&s| s > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference: sort everything, index the nearest rank.
    fn sorted_reference(samples: &[u64], q: f64) -> u64 {
        let mut s = samples.to_vec();
        s.sort_unstable();
        let rank = ((q * s.len() as f64).ceil() as usize).max(1);
        s[rank - 1]
    }

    #[test]
    fn quantiles_match_a_sorted_vector_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
            let samples: Vec<u64> = (0..n).map(|_| rng.gen_range(0..5_000u64)).collect();
            for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let got = quantile(&mut samples.clone(), q).unwrap();
                assert_eq!(got, sorted_reference(&samples, q), "n={n} q={q}");
            }
        }
        assert_eq!(quantile::<u64>(&mut [], 0.5), None);
    }

    #[test]
    fn nearest_rank_on_a_known_set() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(beyond(&v, 0.9), 10);
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (s.count, s.median, s.p90, s.max, s.total),
            (4, 2.0, 4.0, 4.0, 10.0)
        );
    }
}
