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
//!
//! The engine checks both proofs in O(1) with [`certified_margin_with`]
//! over a [`LoadSummary`] it keeps of the loads, the visit's own detached
//! load passed in separately. The third test requires that check to
//! return exactly what the scan of all the loads returned before the
//! summary existed (`scanned_margin`, a frozen copy), as `Option<f64>`
//! bits.

use proptest::prelude::*;

use hyperpraw_core::value::{
    best_partition_in, best_partition_with_margin, certified_margin, certified_margin_with,
    comm_gap_in, comm_terms, terms_gap, LoadSummary, ValueScratch,
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

/// `certified_margin` as it was before the load summary: a scan of every
/// load in four lanes, then a second scan of the rivals when `part` is the
/// lightest. Frozen here as the reference of the O(1) check.
fn scanned_margin(gap: f64, part: u32, alpha: f64, loads: &[f64], expected: f64) -> Option<f64> {
    if loads.len() == 1 {
        return Some(gap);
    }
    let own = loads[part as usize];
    let (lightest, heaviest) = scanned_min_max(loads);
    let lightest_rival = if own > lightest {
        lightest
    } else {
        let rivals = loads
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != part as usize);
        rivals.fold(f64::INFINITY, |low, (_, &w)| low.min(w))
    };
    let magnitude = lightest.abs().max(heaviest.abs());
    let bound = gap - alpha * (own - lightest_rival) / expected;
    (bound > 1e-12 + 64.0 * f64::EPSILON * alpha * magnitude / expected).then_some(bound)
}

fn scanned_min_max(xs: &[f64]) -> (f64, f64) {
    let mut low = [f64::INFINITY; 4];
    let mut high = [f64::NEG_INFINITY; 4];
    let mut chunks = xs.chunks_exact(4);
    for chunk in &mut chunks {
        for k in 0..4 {
            let x = chunk[k];
            low[k] = if x < low[k] { x } else { low[k] };
            high[k] = if x > high[k] { x } else { high[k] };
        }
    }
    for &x in chunks.remainder() {
        low[0] = if x < low[0] { x } else { low[0] };
        high[0] = if x > high[0] { x } else { high[0] };
    }
    (
        low.into_iter().fold(f64::INFINITY, f64::min),
        high.into_iter().fold(f64::NEG_INFINITY, f64::max),
    )
}

/// Part counts of the summary test.
const SUMMARY_PARTS: [usize; 6] = [1, 2, 3, 8, 24, 64];

/// Loads as the summary reads them: random, few distinct values (so the
/// lightest and heaviest repeat), all equal, or random with zeros of
/// either sign.
fn summarised_loads(p: usize, rng: &mut Stream) -> Vec<f64> {
    let scale = [1.0, 37.5, 1e6][rng.below(3)];
    match rng.below(4) {
        0 => (0..p).map(|_| rng.next() * scale).collect(),
        1 => {
            let levels = [rng.next() * scale, rng.next() * scale, rng.next() * scale];
            (0..p).map(|_| levels[rng.below(3)]).collect()
        }
        2 => vec![rng.next() * scale; p],
        _ => (0..p)
            .map(|_| match rng.below(4) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.next() * scale,
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_summary_check_is_bit_identical_to_the_scan(
        p_index in 0usize..SUMMARY_PARTS.len(),
        seed in 1u64..u64::MAX,
    ) {
        let p = SUMMARY_PARTS[p_index];
        let mut rng = Stream(seed);
        let (mut settled, mut refused) = (0usize, 0usize);
        for _ in 0..256 {
            let loads = summarised_loads(p, &mut rng);
            let summary = LoadSummary::of(&loads);
            let part = rng.below(p);
            let (low, high) = scanned_min_max(&loads);
            // The visit's own detached load: what the summary read, a
            // weight off it, the lightest or heaviest load (a tie with a
            // rival), below every load, above every load, or zero.
            let own = match rng.below(7) {
                0 => loads[part],
                1 => loads[part] - [0.1, 1.0, 2.9][rng.below(3)],
                2 => low,
                3 => high,
                4 => low - 1.0 - rng.next(),
                5 => high + 1.0 + rng.next(),
                _ => 0.0,
            };
            let mut detached = loads.clone();
            detached[part] = own;
            let expected = 0.5 + rng.next() * 40.0;
            let alpha = [0.0, rng.next(), rng.next() * 1e3][rng.below(3)];
            // Gaps around the threshold the loads set, so that both
            // outcomes and the boundary between them occur.
            let (rival_low, _) = scanned_min_max(
                &detached
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != part)
                    .map(|(_, &w)| w)
                    .collect::<Vec<_>>(),
            );
            let needed = if rival_low.is_finite() {
                alpha * (own - rival_low) / expected
            } else {
                0.0
            };
            let gap = needed + [-1e-9, 0.0, 1e-12, 2e-12, 1e-9, rng.next()][rng.below(6)];
            let at = format!("p {p}, part {part}, own {own}, loads {loads:?}");
            let scan = scanned_margin(gap, part as u32, alpha, &detached, expected);
            let fast = certified_margin_with(gap, part as u32, own, &summary, alpha, expected);
            prop_assert_eq!(fast.map(f64::to_bits), scan.map(f64::to_bits), "{}", at);
            let composed = certified_margin(gap, part as u32, alpha, &detached, expected);
            prop_assert_eq!(composed.map(f64::to_bits), scan.map(f64::to_bits), "{}", at);
            if scan.is_some() {
                settled += 1;
            } else {
                refused += 1;
            }
        }
        prop_assert!(settled > 0);
        // A single part settles every visit.
        prop_assert!(p == 1 || refused > 0);
    }
}
