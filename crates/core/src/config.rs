//! Shared SimRank configuration.

use crate::error::SimRankError;

/// Parameters shared by every SimRank algorithm in this crate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimRankConfig {
    /// The decay factor `c` of the SimRank definition (the paper uses 0.6 in
    /// all experiments; 0.6 and 0.8 are the values common in the literature).
    pub decay: f64,
    /// Seed for every randomized component. Identical seeds reproduce
    /// identical results.
    pub seed: u64,
    /// Always 1, as in the paper's comparisons: every kernel runs on its
    /// caller's thread. [`SimRankConfig::validate`] rejects any other value.
    /// The field stays only because perfbench's core replica reads it; the
    /// ROADMAP's latency-ledger benchmark follow-up deletes it with that
    /// replica.
    pub threads: usize,
}

impl Default for SimRankConfig {
    fn default() -> Self {
        SimRankConfig {
            decay: 0.6,
            seed: 0x5EED_5EED,
            threads: 1,
        }
    }
}

impl SimRankConfig {
    /// Creates a configuration with the given decay factor and defaults for
    /// the rest.
    pub fn with_decay(decay: f64) -> Self {
        SimRankConfig {
            decay,
            ..Default::default()
        }
    }

    /// `√c`, the per-step continuation probability of a √c-walk.
    #[inline]
    pub fn sqrt_decay(&self) -> f64 {
        self.decay.sqrt()
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), SimRankError> {
        if !(self.decay > 0.0 && self.decay < 1.0) {
            return Err(SimRankError::InvalidParameter {
                name: "decay",
                message: format!("decay factor must be in (0, 1), got {}", self.decay),
            });
        }
        if self.threads != 1 {
            return Err(SimRankError::InvalidParameter {
                name: "threads",
                message: format!(
                    "every kernel runs on its caller's thread, so threads must be 1, got {}",
                    self.threads
                ),
            });
        }
        Ok(())
    }

    /// The number of Linearization iterations needed for truncation error at
    /// most `eps`: `L = ⌈log_{1/c}(2/eps)⌉` (Algorithm 1, line 1).
    pub fn iterations_for_epsilon(&self, eps: f64) -> usize {
        assert!(eps > 0.0, "epsilon must be positive");
        let l = (2.0 / eps).ln() / (1.0 / self.decay).ln();
        l.ceil().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let cfg = SimRankConfig::default();
        assert_eq!(cfg.decay, 0.6);
        assert_eq!(cfg.threads, 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn sqrt_decay_is_consistent() {
        let cfg = SimRankConfig::with_decay(0.64);
        assert!((cfg.sqrt_decay() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_decay() {
        assert!(SimRankConfig::with_decay(0.0).validate().is_err());
        assert!(SimRankConfig::with_decay(1.0).validate().is_err());
        assert!(SimRankConfig::with_decay(-0.5).validate().is_err());
        assert!(SimRankConfig::with_decay(1.5).validate().is_err());
    }

    #[test]
    fn rejects_every_thread_count_but_one() {
        for threads in [0usize, 2, 3, 64] {
            let cfg = SimRankConfig {
                threads,
                ..Default::default()
            };
            assert!(cfg.validate().is_err(), "threads = {threads}");
        }
        let one = SimRankConfig {
            threads: 1,
            ..Default::default()
        };
        assert!(one.validate().is_ok());
    }

    #[test]
    fn iteration_count_guarantees_truncation_error() {
        let cfg = SimRankConfig::with_decay(0.6);
        for &eps in &[1e-1, 1e-3, 1e-5, 1e-7] {
            let l = cfg.iterations_for_epsilon(eps);
            // c^L <= eps / 2 must hold.
            assert!(
                cfg.decay.powi(l as i32) <= eps / 2.0 * (1.0 + 1e-12),
                "L = {l} too small for eps = {eps}"
            );
            // And L should not be absurdly larger than needed.
            assert!(cfg.decay.powi(l as i32 - 2) > eps / 2.0);
        }
    }

    #[test]
    fn seven_decimal_precision_needs_about_33_iterations() {
        // Sanity check against the paper's remark that log_{1/c}(1e7) <= 73
        // for c in [0.6, 0.8]; with c = 0.6 it is ~33.
        let cfg = SimRankConfig::with_decay(0.6);
        let l = cfg.iterations_for_epsilon(1e-7);
        assert!((30..=40).contains(&l), "unexpected L = {l}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn iterations_for_zero_epsilon_panics() {
        SimRankConfig::default().iterations_for_epsilon(0.0);
    }
}
