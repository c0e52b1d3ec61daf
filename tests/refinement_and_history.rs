//! Integration tests of the restreaming behaviour the paper analyses in
//! §6.1 / Figure 3: the refinement phase and the partition history, driven
//! through the unified `PartitionJob` API.

use hyperpraw::hypergraph::generators::suite::{PaperInstance, SuiteConfig};
use hyperpraw::prelude::*;

fn cost_for(procs: usize, seed: u64) -> CostMatrix {
    let machine = MachineModel::archer_like(procs);
    let link = LinkModel::from_machine(&machine, 0.05, seed);
    CostMatrix::from_bandwidth(&RingProfiler::default().profile(&link))
}

fn run(hg: &Hypergraph, cost: &CostMatrix, policy: RefinementPolicy) -> PartitionReport {
    PartitionJob::new(Algorithm::HyperPrawAware)
        .cost(cost.clone())
        .refinement(policy)
        .run(hg)
        .expect("valid refinement configuration")
}

#[test]
fn refinement_runs_longer_and_never_ends_worse_than_no_refinement() {
    let cost = cost_for(24, 1);
    for inst in [PaperInstance::TwoCubesSphere, PaperInstance::AbacusShellHd] {
        let hg = inst.generate(&SuiteConfig::scaled(0.02));
        let none = run(&hg, &cost, RefinementPolicy::None);
        let keep = run(&hg, &cost, RefinementPolicy::Factor(1.0));
        let relax = run(&hg, &cost, RefinementPolicy::Factor(0.95));
        assert!(keep.iterations >= none.iterations, "{inst}");
        assert!(relax.iterations >= none.iterations, "{inst}");
        assert!(
            keep.comm_cost.unwrap() <= none.comm_cost.unwrap() + 1e-9,
            "{inst}: refinement 1.0 ended worse ({:?} vs {:?})",
            keep.comm_cost,
            none.comm_cost
        );
        assert!(
            relax.comm_cost.unwrap() <= none.comm_cost.unwrap() + 1e-9,
            "{inst}: refinement 0.95 ended worse ({:?} vs {:?})",
            relax.comm_cost,
            none.comm_cost
        );
        // All variants respect the tolerance.
        for r in [&none, &keep, &relax] {
            assert!(
                r.imbalance <= 1.1 + 1e-9,
                "{inst}: imbalance {}",
                r.imbalance
            );
        }
    }
}

#[test]
fn comm_cost_history_is_monotone_non_increasing_over_the_feasible_prefix() {
    // The returned cost must equal the minimum over the feasible records up
    // to the stopping point (the algorithm rolls back to the best feasible
    // snapshot).
    let cost = cost_for(24, 2);
    let hg = PaperInstance::Sparsine.generate(&SuiteConfig::scaled(0.02));
    let result = run(&hg, &cost, RefinementPolicy::Factor(0.95));
    let feasible_min = result
        .history
        .records()
        .iter()
        .filter(|r| r.imbalance <= 1.1 + 1e-9)
        .map(|r| r.comm_cost)
        .fold(f64::INFINITY, f64::min);
    assert!(result.comm_cost.unwrap() <= feasible_min + 1e-6);
}

#[test]
fn tempering_phase_precedes_refinement_phase() {
    let cost = cost_for(24, 3);
    let hg = PaperInstance::TwoCubesSphere.generate(&SuiteConfig::scaled(0.01));
    let result = run(&hg, &cost, RefinementPolicy::Factor(0.95));
    let records = result.history.records();
    assert!(!records.is_empty());
    // Once the refinement phase starts it never goes back to tempering
    // *unless* a stream pushed the imbalance back out of tolerance; in that
    // case alpha must have been increased again. Verify the alpha policy per
    // phase transition instead of forbidding the transition.
    for w in records.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        match a.phase {
            hyperpraw::core::StreamPhase::Tempering => {
                assert!(
                    b.alpha >= a.alpha * 1.69,
                    "tempering must scale alpha by ~1.7 (got {} -> {})",
                    a.alpha,
                    b.alpha
                );
            }
            hyperpraw::core::StreamPhase::Refinement => {
                assert!(
                    b.alpha <= a.alpha * 1.0 + 1e-9,
                    "refinement 0.95 must not increase alpha (got {} -> {})",
                    a.alpha,
                    b.alpha
                );
            }
        }
    }
}

#[test]
fn history_csv_and_json_round_trip_the_series_lengths() {
    let cost = cost_for(16, 4);
    let hg = PaperInstance::AbacusShellHd.generate(&SuiteConfig::scaled(0.02));
    let result = run(&hg, &cost, RefinementPolicy::Factor(0.95));
    let csv = result.history.to_csv();
    assert_eq!(csv.lines().count(), result.history.len());
    assert_eq!(
        result.history.comm_cost_series().len(),
        result.history.len()
    );
    // The JSON report carries one history object per recorded stream.
    let json = result.to_json();
    assert_eq!(json.matches("\"iteration\":").count(), result.history.len());
}

#[test]
fn parallel_restreaming_matches_the_sequential_contract() {
    // The future-work extension must uphold the same external guarantees:
    // valid partition, tolerance respected, and quality comparable to the
    // sequential driver (within 2x SOED on a mesh).
    let procs = 16usize;
    let cost = cost_for(procs, 5);
    let hg = PaperInstance::TwoCubesSphere.generate(&SuiteConfig::scaled(0.02));
    let sequential = PartitionJob::new(Algorithm::HyperPrawAware)
        .cost(cost.clone())
        .run(&hg)
        .unwrap();
    let parallel = PartitionJob::new(Algorithm::HyperPrawAware)
        .cost(cost)
        .threads(4)
        .run(&hg)
        .unwrap();
    assert_eq!(parallel.partition.num_parts() as usize, procs);
    assert!(parallel.imbalance <= 1.1 + 1e-9);
    let s = soed(&hg, &sequential.partition) as f64;
    let p = soed(&hg, &parallel.partition) as f64;
    assert!(p <= 2.0 * s.max(1.0), "parallel SOED {p} vs sequential {s}");
}
