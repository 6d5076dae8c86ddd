//! Accuracy metrics from the paper's evaluation.
//!
//! Figure 5(f) plots "the average L1 error … the accumulated error per
//! large coefficient defined as `(1/k)·Σ |x̂_i − ŷ_i|`". For sparse
//! outputs the sum runs over the union of the true and recovered supports
//! (everywhere else both sides are zero).

use std::collections::BTreeMap;

use fft::cplx::{Cplx, ZERO};

/// A sparse recovery result: `(frequency, coefficient)` pairs.
pub type Recovered = Vec<(usize, Cplx)>;

/// L1 error per large coefficient between the true sparse spectrum and a
/// recovery, both given sparsely. `k` is the true sparsity. The errors
/// are summed in ascending frequency order, so the result does not
/// depend on a hash seed.
pub fn l1_error_per_coeff(truth: &[(usize, Cplx)], recovered: &[(usize, Cplx)]) -> f64 {
    let k = truth.len().max(1);
    let mut map: BTreeMap<usize, (Cplx, Cplx)> = BTreeMap::new();
    for &(f, v) in truth {
        map.entry(f).or_insert((ZERO, ZERO)).0 = v;
    }
    for &(f, v) in recovered {
        map.entry(f).or_insert((ZERO, ZERO)).1 = v;
    }
    let total: f64 = map.values().map(|&(a, b)| (a - b).abs()).sum();
    total / k as f64
}

/// Fraction of the true support that was located (regardless of the
/// estimated magnitude).
pub fn support_recall(truth: &[(usize, Cplx)], recovered: &[(usize, Cplx)]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let found = truth
        .iter()
        .filter(|&&(f, _)| recovered.iter().any(|&(g, _)| g == f))
        .count();
    found as f64 / truth.len() as f64
}

/// Fraction of recovered coordinates that are in the true support.
pub fn support_precision(truth: &[(usize, Cplx)], recovered: &[(usize, Cplx)]) -> f64 {
    if recovered.is_empty() {
        return 1.0;
    }
    let correct = recovered
        .iter()
        .filter(|&&(f, _)| truth.iter().any(|&(g, _)| g == f))
        .count();
    correct as f64 / recovered.len() as f64
}

/// L1 error of a *dense* spectrum against the sparse truth — used to
/// cross-check a dense FFT pipeline (FFTW baseline) on the same metric.
pub fn l1_error_dense(truth: &[(usize, Cplx)], dense: &[Cplx]) -> f64 {
    let k = truth.len().max(1);
    let mut total = 0.0;
    let mut covered = vec![false; dense.len()];
    for &(f, v) in truth {
        total += (dense[f] - v).abs();
        covered[f] = true;
    }
    // Spurious energy outside the support also counts as error.
    for (f, &v) in dense.iter().enumerate() {
        if !covered[f] {
            total += v.abs();
        }
    }
    total / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64) -> Cplx {
        Cplx::real(re)
    }

    #[test]
    fn perfect_recovery_has_zero_error() {
        let truth = vec![(3, c(1.0)), (9, c(2.0))];
        assert_eq!(l1_error_per_coeff(&truth, &truth), 0.0);
        assert_eq!(support_recall(&truth, &truth), 1.0);
        assert_eq!(support_precision(&truth, &truth), 1.0);
    }

    #[test]
    fn missing_coefficient_counts_fully() {
        let truth = vec![(3, c(1.0)), (9, c(2.0))];
        let rec = vec![(3, c(1.0))];
        assert!((l1_error_per_coeff(&truth, &rec) - 1.0).abs() < 1e-12); // |2|/2
        assert!((support_recall(&truth, &rec) - 0.5).abs() < 1e-12);
        assert_eq!(support_precision(&truth, &rec), 1.0);
    }

    #[test]
    fn spurious_coefficient_counts_fully() {
        let truth = vec![(3, c(2.0))];
        let rec = vec![(3, c(2.0)), (5, c(0.5))];
        assert!((l1_error_per_coeff(&truth, &rec) - 0.5).abs() < 1e-12);
        assert_eq!(support_recall(&truth, &rec), 1.0);
        assert!((support_precision(&truth, &rec) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn magnitude_error_is_distance() {
        let truth = vec![(3, Cplx::new(1.0, 1.0))];
        let rec = vec![(3, Cplx::new(1.0, 0.0))];
        assert!((l1_error_per_coeff(&truth, &rec) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_error_matches_sparse_when_equivalent() {
        let truth = vec![(1, c(1.0)), (3, c(2.0))];
        let mut dense = vec![ZERO; 8];
        dense[1] = c(1.0);
        dense[3] = c(1.5);
        dense[6] = c(0.25); // spurious
        let sparse_rec = vec![(1, c(1.0)), (3, c(1.5)), (6, c(0.25))];
        let a = l1_error_dense(&truth, &dense);
        let b = l1_error_per_coeff(&truth, &sparse_rec);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn error_sums_in_ascending_frequency_order() {
        // Adding 1.0 to 1e16 rounds away, so the order of the terms
        // changes the sum: only frequency order gives a fixed answer.
        let truth: Vec<(usize, Cplx)> = std::iter::once((0, c(1e16)))
            .chain((1..=16).map(|f| (f, c(1.0))))
            .collect();
        let ascending = truth.iter().fold(0.0, |acc, &(_, v)| acc + v.abs()) / 17.0;
        for _ in 0..20 {
            assert_eq!(
                l1_error_per_coeff(&truth, &[]).to_bits(),
                ascending.to_bits()
            );
        }
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(l1_error_per_coeff(&[], &[]), 0.0);
        assert_eq!(support_recall(&[], &[]), 1.0);
        assert_eq!(support_precision(&[], &[]), 1.0);
    }
}
