//! Soundness of stay certificates ([`certified_margin`]).
//!
//! A scored visit reports the winner's communication gap
//! ([`ScoredPartition::gap`]), which depends on the counts alone. The
//! engine later keeps the vertex on its part without scoring whenever
//! [`certified_margin`] proves, from that gap and the loads and `α` of
//! the new visit, that the scorer would pick the same part. This test
//! checks that proof against the specification scorer
//! ([`best_partition_with_margin`]): for the same counts, every
//! certified `(loads, α)` must score the certified part.
//!
//! The instances cover part counts on both sides of the scorer's block
//! width, unit-uniform, Archer-like and random cost matrices, every
//! number of occupied parts with small counts (so load-free terms tie
//! exactly), non-integer loads, random `α`, and loads a hair apart —
//! the near ties the tie rule of the scorer settles by load and then by
//! part id.
//!
//! The engine also proves a stay from counts it has just copied: it takes
//! the current part's gap from the load-free terms ([`terms_gap`]) and
//! applies the same [`certified_margin`]. That part need not be the one
//! the terms favour, so the second test draws it at random and checks
//! every proof against the scorer ([`best_partition_in`]).

use proptest::prelude::*;

use hyperpraw_core::value::{
    best_partition_in, best_partition_with_margin, certified_margin, comm_gap_in, comm_terms,
    terms_gap, ValueScratch,
};
use hyperpraw_core::CostMatrix;
use hyperpraw_topology::{BandwidthMatrix, MachineModel};

/// Deterministic xorshift stream of uniform `f64`s in `[0, 1)`.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() * n as f64) as usize
    }
}

const PARTS: [usize; 7] = [1, 2, 7, 8, 9, 24, 33];

fn cost_matrix(p: usize, kind: usize, rng: &mut Stream) -> CostMatrix {
    match kind {
        0 => CostMatrix::uniform(p),
        1 => CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(
            &MachineModel::archer_like(p),
            0.05,
            rng.0,
        )),
        _ => {
            let raw = (0..p * p)
                .map(|k| {
                    if k / p == k % p {
                        0.0
                    } else {
                        0.5 + rng.next() * 1.5
                    }
                })
                .collect();
            CostMatrix::from_raw(p, raw)
        }
    }
}

/// Counts with `occupied` parts holding 1..=3 neighbours each, so that
/// several parts often hold exactly as many.
fn counts(p: usize, occupied: usize, rng: &mut Stream) -> Vec<u32> {
    let mut order: Vec<usize> = (0..p).collect();
    for i in (1..p).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut counts = vec![0u32; p];
    for &j in &order[..occupied] {
        counts[j] = 1 + rng.below(3) as u32;
    }
    counts
}

/// Loads for a later visit: fresh random ones, the scored loads nudged by
/// a few ulps of the tie threshold, or equal loads with `own` lighter by
/// less than the tie threshold's worth of value.
fn later_loads(scored: &[f64], own: usize, expected: f64, rng: &mut Stream) -> Vec<f64> {
    let p = scored.len();
    match rng.below(3) {
        0 => (0..p).map(|_| rng.next() * 2.0 * expected).collect(),
        1 => scored
            .iter()
            .map(|&w| w + (rng.below(5) as f64 - 2.0) * 3e-13)
            .collect(),
        _ => {
            let base = expected * (0.5 + rng.next());
            let mut loads = vec![base; p];
            loads[own] -= [1e-13, 5e-13, 1e-12, 2e-12][rng.below(4)];
            loads
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn certified_visits_score_the_certified_part(
        p_index in 0usize..PARTS.len(),
        kind in 0usize..3,
        seed in 1u64..u64::MAX,
    ) {
        let p = PARTS[p_index];
        let mut rng = Stream(seed);
        let cost = cost_matrix(p, kind, &mut rng);
        let mut scratch = ValueScratch::new();
        let mut certified = 0usize;
        for round in 0..64 {
            let counts = counts(p, round % (p + 1), &mut rng);
            let expected = 1.0 + rng.next() * 50.0;
            let expected_loads = vec![expected; p];
            let loads: Vec<f64> = (0..p).map(|_| rng.next() * 2.0 * expected).collect();
            let alpha = rng.next() * [0.1, 10.0, 1000.0][rng.below(3)];
            let scored =
                best_partition_in(&counts, &cost, alpha, &loads, &expected_loads, &mut scratch);
            let o = scored.part;
            prop_assert_eq!(
                comm_gap_in(&counts, &cost, o, &mut scratch).to_bits(),
                scored.gap.to_bits()
            );
            for _ in 0..8 {
                let later = later_loads(&loads, o as usize, expected, &mut rng);
                let alpha = if rng.below(2) == 0 { alpha } else { alpha * 1.7 * rng.next() };
                if certified_margin(scored.gap, o, alpha, &later, expected).is_some() {
                    certified += 1;
                    let rescored =
                        best_partition_with_margin(&counts, &cost, alpha, &later, &expected_loads);
                    prop_assert_eq!(rescored.part, o);
                }
            }
        }
        // Single-part instances certify every visit; the others must
        // exercise the proof too.
        prop_assert!(certified > 0);
    }
}

/// Part counts of the fresh-proof test.
const FRESH_PARTS: [usize; 5] = [2, 8, 9, 24, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fresh_proofs_score_the_current_part(
        p_index in 0usize..FRESH_PARTS.len(),
        kind in 0usize..3,
        seed in 1u64..u64::MAX,
    ) {
        let p = FRESH_PARTS[p_index];
        let mut rng = Stream(seed);
        let cost = cost_matrix(p, kind, &mut rng);
        let mut scratch = ValueScratch::new();
        let mut proven = 0usize;
        for round in 0..256 {
            let counts = counts(p, round % (p + 1), &mut rng);
            let expected = 1.0 + rng.next() * 50.0;
            let expected_loads = vec![expected; p];
            let scored: Vec<f64> = (0..p).map(|_| rng.next() * 2.0 * expected).collect();
            let alpha = rng.next() * [0.1, 10.0, 1000.0][rng.below(3)];
            // Any part, or the one an earlier visit under `scored` chose
            // (the usual case of a converging run).
            let current = if rng.below(2) == 0 {
                rng.below(p) as u32
            } else {
                best_partition_in(&counts, &cost, alpha, &scored, &expected_loads, &mut scratch).part
            };
            let loads = later_loads(&scored, current as usize, expected, &mut rng);
            comm_terms(&counts, &cost, &mut scratch);
            let gap = terms_gap(current, &mut scratch);
            if certified_margin(gap, current, alpha, &loads, expected).is_some() {
                proven += 1;
                let rescored =
                    best_partition_in(&counts, &cost, alpha, &loads, &expected_loads, &mut scratch);
                prop_assert_eq!(rescored.part, current);
                prop_assert_eq!(rescored.gap.to_bits(), gap.to_bits());
            }
        }
        prop_assert!(proven > 0);
    }
}
