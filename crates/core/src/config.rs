//! Configuration of the HyperPRAW restreaming partitioner.

/// What happens once the workload imbalance drops below the tolerance
/// (the paper's §6.1 comparison, Figure 3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RefinementPolicy {
    /// Stop restreaming as soon as the imbalance tolerance is reached (the
    /// behaviour of prior restreamers such as GraSP — "no refinement").
    None,
    /// Keep restreaming with the `α` update replaced by this factor until
    /// the partitioning communication cost stops improving.
    /// `Factor(1.0)` freezes `α` ("refinement 1.0"); `Factor(0.95)` relaxes
    /// the balance pressure each stream ("refinement 0.95", the paper's
    /// best-performing setting).
    Factor(f64),
}

impl RefinementPolicy {
    /// The paper's recommended refinement setting.
    pub fn paper_default() -> Self {
        RefinementPolicy::Factor(0.95)
    }
}

/// Order in which vertices are visited by each stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamOrder {
    /// Natural vertex-id order (the order the hypergraph file lists them) —
    /// what the reference implementation uses.
    Natural,
    /// A seeded random permutation, re-used by every stream.
    Random,
    /// Decreasing vertex degree (high-impact vertices placed first).
    DegreeDescending,
}

impl StreamOrder {
    /// Name as printed in reports.
    pub fn name(&self) -> &'static str {
        match self {
            StreamOrder::Natural => "natural",
            StreamOrder::Random => "random",
            StreamOrder::DegreeDescending => "degree-descending",
        }
    }
}

/// Tuning parameters of HyperPRAW (Algorithm 1 in the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HyperPrawConfig {
    /// Initial value of the workload-imbalance weight `α`. `None` uses the
    /// FENNEL-derived starting point `√p · |E| / √|V|` recommended by the
    /// paper.
    pub initial_alpha: Option<f64>,
    /// Multiplicative `α` update applied after each stream while the
    /// imbalance is above tolerance (`t_α`, paper value 1.7).
    pub tempering_factor: f64,
    /// Behaviour once the imbalance tolerance has been reached.
    pub refinement: RefinementPolicy,
    /// Maximum allowed total imbalance `max_k W(k) / avg_k W(k)`
    /// (paper experiments use 1.1).
    pub imbalance_tolerance: f64,
    /// Maximum number of streams (`N` in Algorithm 1).
    pub max_iterations: usize,
    /// Vertex visit order.
    pub stream_order: StreamOrder,
    /// RNG seed (used by [`StreamOrder::Random`] and tie-breaking).
    pub seed: u64,
}

impl Default for HyperPrawConfig {
    fn default() -> Self {
        Self {
            initial_alpha: None,
            tempering_factor: 1.7,
            refinement: RefinementPolicy::paper_default(),
            imbalance_tolerance: 1.1,
            max_iterations: 100,
            stream_order: StreamOrder::Natural,
            seed: 0,
        }
    }
}

impl HyperPrawConfig {
    /// The FENNEL-style starting `α` for a hypergraph with `num_vertices`
    /// vertices and `num_hyperedges` hyperedges split into `p` partitions:
    /// `√p · |E| / √|V|`.
    pub fn fennel_alpha(p: u32, num_vertices: usize, num_hyperedges: usize) -> f64 {
        if num_vertices == 0 {
            return 1.0;
        }
        (p as f64).sqrt() * num_hyperedges as f64 / (num_vertices as f64).sqrt()
    }

    /// The starting `α` this configuration will use for a given instance.
    pub fn starting_alpha(&self, p: u32, num_vertices: usize, num_hyperedges: usize) -> f64 {
        self.initial_alpha
            .unwrap_or_else(|| Self::fennel_alpha(p, num_vertices, num_hyperedges))
    }

    /// Overrides the refinement policy.
    pub fn with_refinement(mut self, refinement: RefinementPolicy) -> Self {
        self.refinement = refinement;
        self
    }

    /// Overrides the imbalance tolerance.
    pub fn with_imbalance_tolerance(mut self, tol: f64) -> Self {
        assert!(tol >= 1.0, "imbalance tolerance must be >= 1.0");
        self.imbalance_tolerance = tol;
        self
    }

    /// Overrides the maximum number of streams.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one stream is required");
        self.max_iterations = n;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the stream order.
    pub fn with_stream_order(mut self, order: StreamOrder) -> Self {
        self.stream_order = order;
        self
    }

    /// Validates parameter ranges, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        // Each range check is written so NaN fails it.
        if self.tempering_factor.is_nan() || self.tempering_factor <= 1.0 {
            return Err(format!(
                "tempering factor must exceed 1.0 (got {})",
                self.tempering_factor
            ));
        }
        if self.imbalance_tolerance.is_nan() || self.imbalance_tolerance < 1.0 {
            return Err(format!(
                "imbalance tolerance must be at least 1.0 (got {})",
                self.imbalance_tolerance
            ));
        }
        if self.max_iterations == 0 {
            return Err("max_iterations must be at least 1".into());
        }
        if let RefinementPolicy::Factor(f) = self.refinement {
            if f.is_nan() || f <= 0.0 || f > 1.5 {
                return Err(format!("refinement factor {f} out of (0, 1.5]"));
            }
        }
        if let Some(a) = self.initial_alpha {
            if !(a.is_finite() && a > 0.0) {
                return Err("initial alpha must be positive and finite".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = HyperPrawConfig::default();
        assert_eq!(c.tempering_factor, 1.7);
        assert_eq!(c.imbalance_tolerance, 1.1);
        assert_eq!(c.refinement, RefinementPolicy::Factor(0.95));
        assert!(c.initial_alpha.is_none());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fennel_alpha_matches_formula() {
        // √p * |E| / √|V| with p=4, E=100, V=400 -> 2*100/20 = 10.
        let a = HyperPrawConfig::fennel_alpha(4, 400, 100);
        assert!((a - 10.0).abs() < 1e-12);
        // Degenerate case.
        assert_eq!(HyperPrawConfig::fennel_alpha(4, 0, 100), 1.0);
    }

    #[test]
    fn starting_alpha_prefers_explicit_value() {
        let c = HyperPrawConfig {
            initial_alpha: Some(3.5),
            ..HyperPrawConfig::default()
        };
        assert_eq!(c.starting_alpha(8, 100, 100), 3.5);
        let d = HyperPrawConfig::default();
        assert_eq!(
            d.starting_alpha(8, 100, 100),
            HyperPrawConfig::fennel_alpha(8, 100, 100)
        );
    }

    #[test]
    fn builders_override_fields() {
        let c = HyperPrawConfig::default()
            .with_refinement(RefinementPolicy::None)
            .with_imbalance_tolerance(1.05)
            .with_max_iterations(20)
            .with_seed(9)
            .with_stream_order(StreamOrder::Random);
        assert_eq!(c.refinement, RefinementPolicy::None);
        assert_eq!(c.imbalance_tolerance, 1.05);
        assert_eq!(c.max_iterations, 20);
        assert_eq!(c.seed, 9);
        assert_eq!(c.stream_order, StreamOrder::Random);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut c = HyperPrawConfig {
            tempering_factor: 0.9,
            ..HyperPrawConfig::default()
        };
        assert!(c.validate().is_err());
        c.tempering_factor = 1.7;
        c.refinement = RefinementPolicy::Factor(-1.0);
        assert!(c.validate().is_err());
        c.refinement = RefinementPolicy::Factor(0.95);
        c.initial_alpha = Some(f64::NAN);
        assert!(c.validate().is_err());
        c.initial_alpha = None;
        assert!(c.validate().is_ok());
        // NaN fails every range check; an unbounded tolerance passes.
        c.imbalance_tolerance = f64::INFINITY;
        assert!(c.validate().is_ok());
        c.imbalance_tolerance = f64::NAN;
        assert!(c.validate().is_err());
        c.imbalance_tolerance = 1.1;
        c.tempering_factor = f64::NAN;
        assert!(c.validate().is_err());
        c.tempering_factor = 1.7;
        c.refinement = RefinementPolicy::Factor(f64::NAN);
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_iterations_panics_in_builder() {
        HyperPrawConfig::default().with_max_iterations(0);
    }
}
