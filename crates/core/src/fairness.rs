//! Performance-degradation and fairness metrics.
//!
//! The evaluation reports, per workload class, the *average* and *worst*
//! application performance normalized to the uncapped baseline (maximum
//! frequencies): values above 1 are the fractional performance loss
//! (Fig. 6, 9–11, 13). FastCap's fairness claim is that the worst
//! application's degradation stays close to the average — no "performance
//! outliers". This module computes those metrics plus Jain's fairness index
//! over the degradations.

use crate::error::{Error, Result};

/// Summary of normalized performance degradation across applications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairnessReport {
    /// Mean normalized performance (e.g. CPI ratio vs. baseline; `>= 1`
    /// means slower than uncapped).
    pub average: f64,
    /// Worst (largest) normalized performance across applications.
    pub worst: f64,
    /// `worst − average`: the paper's visual "outlier gap".
    pub spread: f64,
    /// Jain's fairness index over the degradations, in `(0, 1]`; 1 means
    /// perfectly equal degradation.
    pub jain_index: f64,
}

/// Normalized degradations: `observed[i] / baseline[i]` per application.
///
/// For a "higher is worse" metric such as CPI this yields values `>= 1`
/// under capping.
///
/// # Errors
///
/// Returns [`Error::InvalidModel`] on length mismatch, empty inputs, or
/// non-positive baselines.
pub fn degradation_ratios(baseline: &[f64], observed: &[f64]) -> Result<Vec<f64>> {
    if baseline.is_empty() || baseline.len() != observed.len() {
        return Err(Error::InvalidModel {
            why: format!(
                "baseline/observed must be non-empty and equal length, got {} and {}",
                baseline.len(),
                observed.len()
            ),
        });
    }
    baseline
        .iter()
        .zip(observed)
        .map(|(&b, &o)| {
            if !(b > 0.0 && b.is_finite() && o >= 0.0 && o.is_finite()) {
                Err(Error::InvalidModel {
                    why: format!("bad metric pair: baseline {b}, observed {o}"),
                })
            } else {
                Ok(o / b)
            }
        })
        .collect()
}

/// Builds a [`FairnessReport`] from per-application degradation ratios.
///
/// # Errors
///
/// Returns [`Error::InvalidModel`] for empty input or non-finite ratios.
pub fn report(degradations: &[f64]) -> Result<FairnessReport> {
    if degradations.is_empty() {
        return Err(Error::InvalidModel {
            why: "no degradations to summarize".into(),
        });
    }
    if degradations.iter().any(|d| !d.is_finite() || *d < 0.0) {
        return Err(Error::InvalidModel {
            why: "degradations must be finite and non-negative".into(),
        });
    }
    let n = degradations.len() as f64;
    let average = degradations.iter().sum::<f64>() / n;
    let worst = degradations.iter().cloned().fold(f64::MIN, f64::max);
    let sum: f64 = degradations.iter().sum();
    let sum_sq: f64 = degradations.iter().map(|d| d * d).sum();
    let jain_index = if sum_sq > 0.0 {
        (sum * sum) / (n * sum_sq)
    } else {
        1.0
    };
    Ok(FairnessReport {
        average,
        worst,
        spread: worst - average,
        jain_index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_elementwise() {
        let r = degradation_ratios(&[1.0, 2.0, 4.0], &[1.1, 2.4, 4.0]).unwrap();
        assert!((r[0] - 1.1).abs() < 1e-12);
        assert!((r[1] - 1.2).abs() < 1e-12);
        assert!((r[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratios_validate_inputs() {
        assert!(degradation_ratios(&[], &[]).is_err());
        assert!(degradation_ratios(&[1.0], &[1.0, 2.0]).is_err());
        assert!(degradation_ratios(&[0.0], &[1.0]).is_err());
        assert!(degradation_ratios(&[1.0], &[-1.0]).is_err());
        assert!(degradation_ratios(&[1.0], &[f64::NAN]).is_err());
    }

    #[test]
    fn perfectly_fair_report() {
        let r = report(&[1.2, 1.2, 1.2, 1.2]).unwrap();
        assert!((r.average - 1.2).abs() < 1e-12);
        assert!((r.worst - 1.2).abs() < 1e-12);
        assert!(r.spread.abs() < 1e-12);
        assert!((r.jain_index - 1.0).abs() < 1e-12);
    }

    #[test]
    fn outlier_shows_in_spread_and_jain() {
        let fair = report(&[1.2, 1.21, 1.19, 1.2]).unwrap();
        let unfair = report(&[1.05, 1.05, 1.05, 2.0]).unwrap();
        assert!(unfair.spread > fair.spread);
        assert!(unfair.jain_index < fair.jain_index);
        assert!((unfair.worst - 2.0).abs() < 1e-12);
    }

    #[test]
    fn report_validates_inputs() {
        assert!(report(&[]).is_err());
        assert!(report(&[f64::NAN]).is_err());
        assert!(report(&[-0.5]).is_err());
    }

    #[test]
    fn jain_is_scale_invariant() {
        let a = report(&[1.0, 2.0, 3.0]).unwrap();
        let b = report(&[10.0, 20.0, 30.0]).unwrap();
        assert!((a.jain_index - b.jain_index).abs() < 1e-12);
    }

    #[test]
    fn all_zero_degradations_are_fair() {
        let r = report(&[0.0, 0.0]).unwrap();
        assert_eq!(r.jain_index, 1.0);
    }
}
