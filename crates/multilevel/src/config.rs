//! Configuration of the multilevel partitioner.

/// Tuning parameters of the multilevel recursive-bisection partitioner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MultilevelConfig {
    /// Allowed total imbalance, expressed like the paper's tolerance:
    /// `max_k W(k) / avg_k W(k) <= imbalance_tolerance` (e.g. 1.1 = 10%).
    pub imbalance_tolerance: f64,
    /// Stop coarsening when the hypergraph has at most this many vertices.
    pub coarsen_until: usize,
    /// Upper bound on the number of coarsening levels (safety valve for
    /// hypergraphs that stop contracting).
    pub max_levels: usize,
    /// Number of randomised initial-partitioning trials; the best feasible
    /// bisection is kept.
    pub initial_trials: usize,
    /// Number of FM refinement passes per level.
    pub fm_passes: usize,
    /// RNG seed (the partitioner is deterministic for a given seed).
    pub seed: u64,
    /// Worker threads for the coarsening matching loop. At `1` the matching
    /// is sequential and deterministic per seed; above `1` vertices race to
    /// claim partners through atomic compare-and-swap, which is faster but
    /// may pair vertices differently from run to run.
    pub threads: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        Self {
            imbalance_tolerance: 1.1,
            coarsen_until: 200,
            max_levels: 25,
            initial_trials: 8,
            fm_passes: 4,
            seed: 0,
            threads: 1,
        }
    }
}

impl MultilevelConfig {
    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the imbalance tolerance.
    pub fn with_imbalance_tolerance(mut self, tol: f64) -> Self {
        assert!(tol >= 1.0, "imbalance tolerance must be >= 1.0");
        self.imbalance_tolerance = tol;
        self
    }

    /// Overrides the coarsening worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one coarsening thread");
        self.threads = threads;
        self
    }

    /// The maximum part weight allowed for a bisection of total weight
    /// `total` into parts with target fractions `fraction` and
    /// `1 - fraction`.
    ///
    /// The paper's imbalance definition (`max/avg <= tol`) translates, for a
    /// two-way split with target fraction `f`, to
    /// `W(part) <= tol * f * total`.
    pub fn max_part_weight(&self, total: f64, fraction: f64) -> f64 {
        self.imbalance_tolerance * fraction * total
    }

    /// Validates parameter ranges, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.imbalance_tolerance.is_nan() || self.imbalance_tolerance < 1.0 {
            return Err(format!(
                "imbalance tolerance must be at least 1.0 (got {})",
                self.imbalance_tolerance
            ));
        }
        if self.coarsen_until == 0 {
            return Err("coarsening must stop at a non-empty hypergraph".into());
        }
        if self.initial_trials == 0 {
            return Err("need at least one initial-partitioning trial".into());
        }
        if self.threads == 0 {
            return Err("need at least one coarsening thread".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = MultilevelConfig::default();
        assert!(c.imbalance_tolerance > 1.0);
        assert!(c.coarsen_until > 0);
        assert!(c.initial_trials > 0);
        assert!(c.fm_passes > 0);
    }

    #[test]
    fn builder_methods_override_fields() {
        let c = MultilevelConfig::default()
            .with_seed(42)
            .with_imbalance_tolerance(1.05);
        assert_eq!(c.seed, 42);
        assert_eq!(c.imbalance_tolerance, 1.05);
    }

    #[test]
    fn max_part_weight_scales_with_fraction() {
        let c = MultilevelConfig::default().with_imbalance_tolerance(1.1);
        let even = c.max_part_weight(100.0, 0.5);
        assert!((even - 55.0).abs() < 1e-12);
        let third = c.max_part_weight(90.0, 1.0 / 3.0);
        assert!((third - 33.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = ">= 1.0")]
    fn tolerance_below_one_is_rejected() {
        MultilevelConfig::default().with_imbalance_tolerance(0.9);
    }

    #[test]
    fn zero_coarsening_threads_fail_validation() {
        assert!(MultilevelConfig::default().validate().is_ok());
        let c = MultilevelConfig {
            threads: 0,
            ..MultilevelConfig::default()
        };
        assert!(c.validate().is_err());
        assert_eq!(MultilevelConfig::default().with_threads(4).threads, 4);
    }
}
