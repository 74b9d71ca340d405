//! Order statistics over measured samples.

/// The median and 99th percentile of a sample, with its size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quantile {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

/// Nearest-rank `q`-quantile of sorted values (0 when empty).
fn rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[k - 1]
}

/// Sorts `values` and returns their p50 and p99.
pub fn quantile(values: &mut [f64]) -> Quantile {
    values.sort_by(f64::total_cmp);
    Quantile {
        n: values.len(),
        p50: rank(values, 0.5),
        p99: rank(values, 0.99),
    }
}

/// Sorts `values` and returns their median (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_median() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let q = quantile(&mut v);
        assert_eq!((q.n, q.p50, q.p99), (100, 50.0, 99.0));
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
