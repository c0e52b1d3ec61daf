//! The vertex assignment value function (equations 1–4 of the paper).
//!
//! This module is public because the value function is the part of
//! HyperPRAW that other partitioners reuse: the sequential and
//! work-stealing restreaming driver and the out-of-core `hyperpraw-lowmem` streaming partitioner all score candidate
//! placements with [`best_partition`] / [`best_partition_with_margin`] and
//! only differ in *how they obtain* the neighbour-partition counts
//! (in-memory CSR traversal vs. sketched net connectivity).
//!
//! The scorer also reports each winner's *communication gap*, which
//! [`certified_margin`] turns into a proof that the winner still wins
//! under other loads and another `α` — the restreaming engine's stay
//! certificate. [`best_partition_in`] runs in two stages, the load-free
//! terms ([`comm_terms`]) and the selection ([`select_partition`]), so
//! the engine can take a current part's gap from the terms
//! ([`terms_gap`]) and prove a stay before it selects.
//!
//! The load half of that proof needs only the lightest and heaviest
//! loads. The engine keeps them in a [`LoadSummary`] next to each load
//! view and checks a stay with [`certified_margin_with`] in O(1), the
//! visit's own detached load passed in separately; it recomputes the
//! summary only when a write changes a load's bits. Min and max select
//! an input without rounding, so the O(1) check is bit-identical to
//! [`certified_margin`]'s scan of all `p` loads.

use hyperpraw_topology::CostMatrix;

/// Values closer than this are a tie, broken towards the lighter
/// partition and then the lower id.
const TIE: f64 = 1e-12;

/// Relative rounding slack of a stay certificate: the computed values,
/// their differences and the tie test each round by at most one unit in
/// the last place of magnitudes below `max_i |c_i| + α·max_k W(k) / E`,
/// and this covers far more than their sum.
const CERT_ROUNDING: f64 = 64.0 * f64::EPSILON;

/// Evaluates the value `V_i(v)` of assigning a vertex to partition
/// `candidate` (equation 1):
///
/// ```text
/// V_i(v) = −N_i(v) · T_i(v) − α · W(i) / E(i)
/// ```
///
/// * `counts[j]` is `X_j(v)`, the number of (distinct) neighbours of the
///   vertex currently assigned to partition `j`,
/// * `N_i(v)` is the fraction of partitions other than `i` holding at least
///   one neighbour (equations 2–3; the paper writes `X_j(v) > 1`, which we
///   read as "has neighbours", i.e. `X_j(v) ≥ 1` — the strict reading would
///   ignore partitions holding exactly one neighbour, contradicting the
///   metric's intent),
/// * `T_i(v)` is the neighbour count in every partition weighted by the
///   communication cost `C(i, j)` (equation 4; `C(i,i) = 0` so local
///   neighbours are free),
/// * `W(i)` and `E(i)` are the current and expected workloads, and `α`
///   weighs the balance term.
#[inline]
pub fn value_of(
    counts: &[u32],
    candidate: u32,
    cost: &CostMatrix,
    alpha: f64,
    load: f64,
    expected: f64,
) -> f64 {
    let p = counts.len() as f64;
    let row = cost.row(candidate as usize);
    let mut t = 0.0f64;
    let mut neighbour_parts = 0u32;
    for (j, &c) in counts.iter().enumerate() {
        if c > 0 {
            neighbour_parts += 1;
            t += c as f64 * row[j];
        }
    }
    // Partitions other than the candidate holding neighbours.
    if counts[candidate as usize] > 0 {
        neighbour_parts -= 1;
    }
    let n = neighbour_parts as f64 / p;
    -n * t - alpha * load / expected
}

/// The outcome of scoring every candidate partition for one vertex.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredPartition {
    /// The winning partition.
    pub part: u32,
    /// The winner's value `V_part(v)`.
    pub value: f64,
    /// Gap between the winner and the runner-up value (`+∞` with a single
    /// partition). A small margin means the decision was a near-tie — the
    /// signal `hyperpraw-lowmem` uses to pick re-streaming candidates.
    pub margin: f64,
    /// The winner's communication gap: `min_{i≠part}(c_part − c_i)` less
    /// a rounding slack, where `c_i = −N_i(v)·T_i(v)` is the load-free
    /// part of `V_i(v)` (`+∞` with a single partition). It depends on the
    /// counts alone, so [`certified_margin`] can prove from it that `part`
    /// still wins for the same counts under other loads and `α`.
    pub gap: f64,
}

/// Finds the partition with the highest assignment value for a vertex.
///
/// Ties are broken towards the lighter partition, and then towards the lower
/// partition id, so the stream is fully deterministic.
pub fn best_partition(
    counts: &[u32],
    cost: &CostMatrix,
    alpha: f64,
    loads: &[f64],
    expected: &[f64],
) -> u32 {
    best_partition_with_margin(counts, cost, alpha, loads, expected).part
}

/// Like [`best_partition`], additionally reporting the winner's value and
/// its margin over the runner-up. The winning partition is identical to
/// [`best_partition`]'s — the extra bookkeeping never changes tie-breaking.
pub fn best_partition_with_margin(
    counts: &[u32],
    cost: &CostMatrix,
    alpha: f64,
    loads: &[f64],
    expected: &[f64],
) -> ScoredPartition {
    debug_assert_eq!(counts.len(), loads.len());
    debug_assert_eq!(counts.len(), cost.num_units());
    let mut best = 0u32;
    let mut best_value = f64::NEG_INFINITY;
    let mut runner_up = f64::NEG_INFINITY;
    for i in 0..counts.len() {
        let v = value_of(counts, i as u32, cost, alpha, loads[i], expected[i]);
        let better = v > best_value + TIE
            || ((v - best_value).abs() <= TIE && loads[i] < loads[best as usize] - TIE);
        if better {
            runner_up = best_value;
            best = i as u32;
            best_value = v;
        } else if v > runner_up {
            runner_up = v;
        }
    }
    let mut comm: Vec<f64> = (0..counts.len() as u32)
        .map(|i| value_of(counts, i, cost, 0.0, 0.0, 1.0))
        .collect();
    ScoredPartition {
        part: best,
        value: best_value,
        margin: if runner_up == f64::NEG_INFINITY {
            f64::INFINITY
        } else {
            best_value - runner_up
        },
        gap: comm_gap(&mut comm, best as usize),
    }
}

/// `min_{i≠part}(c_part − c_i)` over the load-free terms `c`, less the
/// rounding slack on their magnitude (`+∞` with a single partition).
/// `c[part]` is masked out for the reduction and restored.
fn comm_gap(c: &mut [f64], part: usize) -> f64 {
    if c.len() == 1 {
        return f64::INFINITY;
    }
    let own = std::mem::replace(&mut c[part], f64::NAN);
    let (low, rival) = min_max(c);
    c[part] = own;
    let magnitude = own.abs().max(low.abs()).max(rival.abs());
    (own - rival) - CERT_ROUNDING * magnitude
}

/// The smallest and largest value of `xs`, skipping NaNs (`+∞` and `−∞`
/// when there is none). The reductions run in four independent lanes
/// of plain comparisons, which the compiler keeps in vector registers.
fn min_max(xs: &[f64]) -> (f64, f64) {
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

/// The extremes of a load vector that a stay certificate reads: the
/// lightest load and its part, the lightest load of the other parts, and
/// likewise for the heaviest. NaN entries are skipped, as the scan of
/// [`certified_margin`] skips them.
///
/// A summary answers for a visit on part `o` as long as no entry other
/// than `o`'s has changed since [`LoadSummary::of`] read the loads:
/// [`certified_margin_with`] takes `o`'s own load separately and reads
/// only the other parts' extremes from here. So the visit's own detach
/// never stales it, and the engine recomputes it only after a write that
/// changes a load's bits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadSummary {
    parts: usize,
    lightest: f64,
    lightest_part: usize,
    /// The lightest load of the parts other than `lightest_part`.
    lightest_other: f64,
    heaviest: f64,
    heaviest_part: usize,
    /// The heaviest load of the parts other than `heaviest_part`.
    heaviest_other: f64,
}

impl LoadSummary {
    /// Summarises `loads` in one pass.
    pub fn of(loads: &[f64]) -> Self {
        let mut summary = LoadSummary {
            parts: loads.len(),
            lightest: f64::INFINITY,
            lightest_part: usize::MAX,
            lightest_other: f64::INFINITY,
            heaviest: f64::NEG_INFINITY,
            heaviest_part: usize::MAX,
            heaviest_other: f64::NEG_INFINITY,
        };
        for (i, &w) in loads.iter().enumerate() {
            if w < summary.lightest {
                summary.lightest_other = summary.lightest;
                summary.lightest = w;
                summary.lightest_part = i;
            } else if w < summary.lightest_other {
                summary.lightest_other = w;
            }
            if w > summary.heaviest {
                summary.heaviest_other = summary.heaviest;
                summary.heaviest = w;
                summary.heaviest_part = i;
            } else if w > summary.heaviest_other {
                summary.heaviest_other = w;
            }
        }
        summary
    }

    /// The lightest and the heaviest load of the parts other than `part`
    /// (`+∞` and `−∞` when there is none).
    fn rivals(&self, part: usize) -> (f64, f64) {
        let low = if part == self.lightest_part {
            self.lightest_other
        } else {
            self.lightest
        };
        let high = if part == self.heaviest_part {
            self.heaviest_other
        } else {
            self.heaviest
        };
        (low, high)
    }
}

impl Default for LoadSummary {
    /// The summary of no loads.
    fn default() -> Self {
        LoadSummary::of(&[])
    }
}

/// Proves that a vertex whose counts give communication gap `gap` for
/// `part` — the winner's [`ScoredPartition::gap`] of an earlier scoring,
/// or any part's [`terms_gap`] — goes to `part` when the same counts are
/// scored under `alpha ≥ 0` and `loads`, with every part's expected load
/// `expected`. `loads` are the loads the scorer sees
/// — the vertex's own weight detached. Returns a lower bound on the
/// winner's margin when the proof holds, `None` when it does not.
///
/// With `o = part` and `c` the load-free terms, for every `i ≠ o`
///
/// ```text
/// V_o − V_i = (c_o − c_i) − α·(W(o) − W(i)) / E
///           ≥ gap − α·(W(o) − min_{i≠o} W(i)) / E,
/// ```
///
/// so when that bound exceeds the tie threshold plus a rounding slack on
/// `α·max_k |W(k)| / E`, the scorer's computed values keep `o` strictly
/// ahead and its scan ([`best_partition_with_margin`],
/// [`best_partition_in`]) returns `o` whatever the tie-breaking.
///
/// This is [`certified_margin_with`] over `loads[part]` and the
/// [`LoadSummary`] of `loads`; the engine keeps the summary instead of
/// scanning the loads on every visit.
pub fn certified_margin(
    gap: f64,
    part: u32,
    alpha: f64,
    loads: &[f64],
    expected: f64,
) -> Option<f64> {
    certified_margin_with(
        gap,
        part,
        loads[part as usize],
        &LoadSummary::of(loads),
        alpha,
        expected,
    )
}

/// [`certified_margin`] in O(1): `own` is `part`'s load with the vertex
/// detached, and `summary` answers for the other parts' loads (see
/// [`LoadSummary`] for when it may be older than `own`).
///
/// The lightest rival is the summary's lightest load, or its runner-up
/// when the lightest is `part` itself, and the same for the heaviest. The
/// lightest and heaviest load overall are the smaller and the larger of
/// `own` and those. Min and max select one of their inputs and never
/// round, so every quantity equals what the scan of all the loads
/// computes, and the bound and the slack follow from them with the same
/// arithmetic: the result is bit-identical to [`certified_margin`] over
/// the loads the summary read with `part`'s entry set to `own`.
pub fn certified_margin_with(
    gap: f64,
    part: u32,
    own: f64,
    summary: &LoadSummary,
    alpha: f64,
    expected: f64,
) -> Option<f64> {
    if summary.parts == 1 {
        return Some(gap);
    }
    let (lightest_rival, heaviest_rival) = summary.rivals(part as usize);
    let lightest = if own < lightest_rival {
        own
    } else {
        lightest_rival
    };
    let heaviest = if own > heaviest_rival {
        own
    } else {
        heaviest_rival
    };
    let magnitude = lightest.abs().max(heaviest.abs());
    let bound = gap - alpha * (own - lightest_rival) / expected;
    (bound > TIE + CERT_ROUNDING * alpha * magnitude / expected).then_some(bound)
}

/// Reusable buffers for [`best_partition_in`], the allocation-free scorer
/// the restreaming engine keeps per worker. One instance per thread; the
/// contents are meaningless between calls.
#[derive(Clone, Debug, Default)]
pub struct ValueScratch {
    /// Per candidate: the communication term `T_i`, then the load-free
    /// term `c_i = −N_i·T_i`.
    t: Vec<f64>,
    /// Per candidate: the value `V_i`.
    values: Vec<f64>,
    /// The occupied source partitions `(j, X_j)` of the current vertex, in
    /// ascending `j`; only the first `K` entries are meaningful.
    occupied: Vec<(usize, f64)>,
}

impl ValueScratch {
    /// Creates empty scratch space (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Candidate partitions whose communication terms the blocked kernel of
/// [`best_partition_in`] accumulates together in registers.
const BLOCK: usize = 8;

/// Scores every candidate partition like [`best_partition_with_margin`]
/// but restructured for the hot loop, reusing `scratch` across calls.
///
/// The naive scorer evaluates [`value_of`] per candidate — `O(p²)` matrix
/// reads per vertex even when the vertex's neighbours touch only a handful
/// of partitions. This version first compacts the *occupied* source
/// partitions (`X_j > 0`) without branching, then computes the
/// communication terms `t_i = Σ_j X_j(v) · C(i,j)` for blocks of
/// eight candidates at a time: each block's sums live in local
/// accumulators while the occupied columns of the column cache
/// ([`CostMatrix::col`]) stream past, so the work is
/// `O(p · |{j : X_j > 0}|)` with no store per term. For unit-uniform
/// matrices ([`CostMatrix::is_unit_uniform`]) the terms collapse to the
/// exact integers `Σ_j X_j − X_i` and the matrix is never touched.
///
/// `N_i(v)` is one of two precomputed quotients, `K / p` or `(K − 1) / p`
/// with `K` the number of partitions holding neighbours. Every
/// candidate's value is computed in one pass free of loop-carried state,
/// which the compiler vectorises; only then does the selection scan walk
/// the values in candidate order.
///
/// For every candidate `i` the accumulator starts at `0.0` and the
/// contributions are multiplied and then added (never fused) in the same
/// ascending-`j` order [`value_of`] uses, so the result — winner, value,
/// margin, gap and tie-breaking — is **bit-identical** to
/// [`best_partition_with_margin`]; the engine equivalence tests rely on
/// this.
pub fn best_partition_in(
    counts: &[u32],
    cost: &CostMatrix,
    alpha: f64,
    loads: &[f64],
    expected: &[f64],
    scratch: &mut ValueScratch,
) -> ScoredPartition {
    debug_assert_eq!(counts.len(), loads.len());
    comm_terms(counts, cost, scratch);
    select_partition(alpha, loads, expected, scratch)
}

/// The select stage of [`best_partition_in`]: scores the load-free terms
/// [`comm_terms`] last wrote into `scratch` under `alpha`, `loads` and
/// `expected`, then walks the values in candidate order. The two stages
/// in sequence are [`best_partition_in`], bit for bit.
pub fn select_partition(
    alpha: f64,
    loads: &[f64],
    expected: &[f64],
    scratch: &mut ValueScratch,
) -> ScoredPartition {
    let c = &mut scratch.t;
    debug_assert_eq!(c.len(), loads.len());
    let values = &mut scratch.values;
    values.resize(c.len(), 0.0);
    for (((v, &c), &load), &e) in values.iter_mut().zip(c.iter()).zip(loads).zip(expected) {
        *v = c - alpha * load / e;
    }
    let mut best = 0u32;
    let mut best_value = f64::NEG_INFINITY;
    let mut runner_up = f64::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        let better = v > best_value + TIE
            || ((v - best_value).abs() <= TIE && loads[i] < loads[best as usize] - TIE);
        if better {
            runner_up = best_value;
            best = i as u32;
            best_value = v;
        } else if v > runner_up {
            runner_up = v;
        }
    }
    ScoredPartition {
        part: best,
        value: best_value,
        margin: if runner_up == f64::NEG_INFINITY {
            f64::INFINITY
        } else {
            best_value - runner_up
        },
        gap: comm_gap(c, best as usize),
    }
}

/// The communication gap of `part` for `counts`, bit-identical to the
/// [`ScoredPartition::gap`] that [`best_partition_in`] reports when the
/// same counts put the vertex on `part` — the recount that checks a kept
/// certificate.
pub fn comm_gap_in(
    counts: &[u32],
    cost: &CostMatrix,
    part: u32,
    scratch: &mut ValueScratch,
) -> f64 {
    comm_terms(counts, cost, scratch);
    terms_gap(part, scratch)
}

/// The communication gap of `part` over the load-free terms
/// [`comm_terms`] last wrote into `scratch` — what [`comm_gap_in`]
/// returns for the same counts. The terms are left as they were, so
/// [`select_partition`] may follow.
pub fn terms_gap(part: u32, scratch: &mut ValueScratch) -> f64 {
    comm_gap(&mut scratch.t, part as usize)
}

/// The terms stage of [`best_partition_in`]: writes the load-free terms
/// `c_i = −N_i(v)·T_i(v)` of every candidate into `scratch` with the
/// blocked kernel, for [`terms_gap`] and [`select_partition`] to read.
pub fn comm_terms(counts: &[u32], cost: &CostMatrix, scratch: &mut ValueScratch) {
    debug_assert_eq!(counts.len(), cost.num_units());
    let p = counts.len();
    let t = &mut scratch.t;
    t.clear();
    t.resize(p, 0.0);
    let mut neighbour_parts_total = 0u32;
    if cost.is_unit_uniform() {
        // Exact integer shortcut: every off-diagonal cost is 1.0, so
        // t_i = Σ_j X_j − X_i. Counts are u32 integers, so the sums are
        // exact and bitwise equal to the ordered accumulation.
        let mut total = 0u64;
        for &c in counts {
            if c > 0 {
                neighbour_parts_total += 1;
                total += u64::from(c);
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            t[i] = (total - u64::from(c)) as f64;
        }
    } else {
        let occupied = &mut scratch.occupied;
        occupied.resize(p, (0, 0.0));
        let mut k = 0usize;
        for (j, &c) in counts.iter().enumerate() {
            occupied[k] = (j, c as f64);
            k += usize::from(c > 0);
        }
        let occupied = &occupied[..k];
        neighbour_parts_total = k as u32;
        let mut blocks = t.chunks_exact_mut(BLOCK);
        for (b, out) in (&mut blocks).enumerate() {
            let lo = b * BLOCK;
            let mut acc = [0.0f64; BLOCK];
            for &(j, cj) in occupied {
                let col: &[f64; BLOCK] = cost.col(j)[lo..lo + BLOCK]
                    .try_into()
                    .expect("a block spans BLOCK candidates");
                for (a, &cij) in acc.iter_mut().zip(col) {
                    *a += cj * cij;
                }
            }
            out.copy_from_slice(&acc);
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            let lo = p - tail.len();
            let mut acc = [0.0f64; BLOCK];
            for &(j, cj) in occupied {
                for (a, &cij) in acc.iter_mut().zip(&cost.col(j)[lo..]) {
                    *a += cj * cij;
                }
            }
            tail.copy_from_slice(&acc[..tail.len()]);
        }
    }

    // N_i(v) excludes the candidate itself when it holds neighbours.
    let pf = p as f64;
    let n_all = neighbour_parts_total as f64 / pf;
    let n_others = neighbour_parts_total.saturating_sub(1) as f64 / pf;
    for (ti, &c) in t.iter_mut().zip(counts) {
        let n = if c > 0 { n_others } else { n_all };
        *ti *= -n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_prefers_the_partition_with_its_neighbours() {
        let cost = CostMatrix::uniform(3);
        // All 4 neighbours in partition 1; loads equal.
        let counts = vec![0u32, 4, 0];
        let loads = vec![10.0, 10.0, 10.0];
        let expected = vec![10.0, 10.0, 10.0];
        let best = best_partition(&counts, &cost, 0.1, &loads, &expected);
        assert_eq!(best, 1);
        // Its value must beat the alternatives.
        let v1 = value_of(&counts, 1, &cost, 0.1, 10.0, 10.0);
        let v0 = value_of(&counts, 0, &cost, 0.1, 10.0, 10.0);
        assert!(v1 > v0);
    }

    #[test]
    fn large_alpha_pushes_towards_the_lightest_partition() {
        let cost = CostMatrix::uniform(3);
        let counts = vec![0u32, 4, 0];
        let loads = vec![20.0, 30.0, 5.0];
        let expected = vec![10.0, 10.0, 10.0];
        // With a huge alpha the balance term dominates: partition 2 wins even
        // though the neighbours are in partition 1.
        let best = best_partition(&counts, &cost, 1e6, &loads, &expected);
        assert_eq!(best, 2);
        // With alpha = 0 the communication term alone decides.
        let best = best_partition(&counts, &cost, 0.0, &loads, &expected);
        assert_eq!(best, 1);
    }

    #[test]
    fn architecture_awareness_prefers_cheap_links() {
        // Three units: 0 and 1 are close (cost 1), unit 2 is far from both
        // (cost 2). Neighbours live in units 0 and 1.
        let cost = CostMatrix::from_raw(
            3,
            vec![
                0.0, 1.0, 2.0, //
                1.0, 0.0, 2.0, //
                2.0, 2.0, 0.0,
            ],
        );
        let counts = vec![3u32, 3, 0];
        let loads = vec![10.0, 10.0, 0.0];
        let expected = vec![10.0, 10.0, 10.0];
        // Candidate 0 or 1: remote neighbours reachable over cost-1 links.
        // Candidate 2: everything remote over cost-2 links. Even though unit
        // 2 is empty (better balance), a small alpha keeps the vertex near
        // its neighbours.
        let best = best_partition(&counts, &cost, 0.01, &loads, &expected);
        assert!(best == 0 || best == 1);
        let v0 = value_of(&counts, 0, &cost, 0.01, 10.0, 10.0);
        let v2 = value_of(&counts, 2, &cost, 0.01, 0.0, 10.0);
        assert!(v0 > v2);
    }

    #[test]
    fn own_partition_neighbours_are_excluded_from_n_and_cost() {
        let cost = CostMatrix::uniform(2);
        // 5 neighbours in partition 0, 1 in partition 1.
        let counts = vec![5u32, 1];
        // Hosted on 0: only the single remote neighbour contributes, and only
        // one remote partition counts.
        let v_home = value_of(&counts, 0, &cost, 0.0, 0.0, 1.0);
        assert!((v_home - (-(1.0 / 2.0) * 1.0)).abs() < 1e-12);
        // Hosted on 1: five remote neighbours over one remote partition.
        let v_away = value_of(&counts, 1, &cost, 0.0, 0.0, 1.0);
        assert!((v_away - (-(1.0 / 2.0) * 5.0)).abs() < 1e-12);
        assert!(v_home > v_away);
    }

    #[test]
    fn ties_break_towards_the_lighter_partition() {
        let cost = CostMatrix::uniform(3);
        let counts = vec![0u32, 0, 0]; // isolated vertex: communication is moot
        let loads = vec![5.0, 3.0, 5.0];
        let expected = vec![4.0, 4.0, 4.0];
        let best = best_partition(&counts, &cost, 1.0, &loads, &expected);
        assert_eq!(best, 1);
        // Full tie (identical loads) goes to the lowest id.
        let best = best_partition(&counts, &cost, 1.0, &[2.0, 2.0, 2.0], &expected);
        assert_eq!(best, 0);
    }

    #[test]
    fn value_is_monotone_in_load() {
        let cost = CostMatrix::uniform(2);
        let counts = vec![1u32, 1];
        let light = value_of(&counts, 0, &cost, 2.0, 1.0, 10.0);
        let heavy = value_of(&counts, 0, &cost, 2.0, 9.0, 10.0);
        assert!(light > heavy);
    }

    #[test]
    fn scratch_scorer_is_bit_identical_to_the_reference_scorer() {
        // Pseudo-random but deterministic instances: part counts on both
        // sides of the kernel's block width, unit-uniform, Archer-like and
        // random matrices, and every number of occupied parts from none
        // to all.
        use hyperpraw_topology::{BandwidthMatrix, MachineModel};
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut scratch = ValueScratch::new();
        for p in [1usize, 2, 7, 8, 9, 23, 24, 25, 64] {
            let raw: Vec<f64> = (0..p * p).map(|_| 0.5 + next() * 1.5).collect();
            let machine = MachineModel::archer_like(p);
            let matrices = [
                CostMatrix::uniform(p),
                CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.05, 1)),
                CostMatrix::from_raw(p, raw),
            ];
            for cost in &matrices {
                for occupied in 0..=p {
                    for case in 0..4 {
                        // `occupied` distinct parts get 1..=9 neighbours.
                        let mut order: Vec<usize> = (0..p).collect();
                        for i in (1..p).rev() {
                            order.swap(i, (next() * (i + 1) as f64) as usize);
                        }
                        let mut counts = vec![0u32; p];
                        for &j in &order[..occupied] {
                            counts[j] = 1 + (next() * 9.0) as u32;
                        }
                        let loads: Vec<f64> = (0..p).map(|_| next() * 20.0).collect();
                        let expected = vec![10.0f64; p];
                        let alpha = next() * 50.0;
                        let reference =
                            best_partition_with_margin(&counts, cost, alpha, &loads, &expected);
                        let fast = best_partition_in(
                            &counts,
                            cost,
                            alpha,
                            &loads,
                            &expected,
                            &mut scratch,
                        );
                        let at = format!("p {p}, {occupied} occupied, case {case}");
                        assert_eq!(fast.part, reference.part, "{at}");
                        assert_eq!(fast.value.to_bits(), reference.value.to_bits(), "{at}");
                        assert_eq!(fast.margin.to_bits(), reference.margin.to_bits(), "{at}");
                        assert_eq!(fast.gap, reference.gap, "{at}");

                        // The engine's split path: the terms stage, a
                        // current part's gap, then the select stage.
                        let current = (next() * p as f64) as u32;
                        let gap = comm_gap_in(&counts, cost, current, &mut scratch);
                        comm_terms(&counts, cost, &mut scratch);
                        let split_gap = terms_gap(current, &mut scratch);
                        let split = select_partition(alpha, &loads, &expected, &mut scratch);
                        assert_eq!(split_gap.to_bits(), gap.to_bits(), "{at}");
                        assert_eq!(split.part, fast.part, "{at}");
                        assert_eq!(split.value.to_bits(), fast.value.to_bits(), "{at}");
                        assert_eq!(split.margin.to_bits(), fast.margin.to_bits(), "{at}");
                        assert_eq!(split.gap.to_bits(), fast.gap.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn reused_scratch_stays_bit_identical_as_inputs_change() {
        // One scratch reused across calls the way the engine reuses it,
        // while the loads, α, the expected loads and the partition count
        // change between calls: nothing may carry over from an earlier call.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut scratch = ValueScratch::new();
        let mut check = |counts: &[u32], alpha: f64, loads: &[f64], expected: &[f64]| {
            let p = counts.len();
            let raw: Vec<f64> = (0..p * p)
                .map(|k| {
                    if k / p == k % p {
                        0.0
                    } else {
                        1.0 + (k % 5) as f64 * 0.25
                    }
                })
                .collect();
            let cost = CostMatrix::from_raw(p, raw);
            let reference = best_partition_with_margin(counts, &cost, alpha, loads, expected);
            let fast = best_partition_in(counts, &cost, alpha, loads, expected, &mut scratch);
            assert_eq!(fast.part, reference.part);
            assert_eq!(fast.value.to_bits(), reference.value.to_bits());
            assert_eq!(fast.margin.to_bits(), reference.margin.to_bits());
            assert_eq!(fast.gap, reference.gap);
        };
        for p in [6usize, 9, 2, 9] {
            let mut counts: Vec<u32> = (0..p).map(|i| (i % 3) as u32).collect();
            let mut loads: Vec<f64> = (0..p).map(|_| next() * 20.0).collect();
            let mut expected = vec![10.0f64; p];
            let mut alpha = 3.0;
            check(&counts, alpha, &loads, &expected);
            for step in 0..50 {
                match step % 4 {
                    // One load changes, as a detach or a non-move does.
                    0 => loads[step % p] = next() * 20.0,
                    // Two loads change, as a move does.
                    1 => {
                        loads[step % p] += 1.0;
                        loads[(step + 1) % p] -= 1.0;
                    }
                    // α tempers while the loads stay fixed.
                    2 => alpha *= 1.7,
                    // The expected loads change.
                    _ => expected[step % p] = 5.0 + next() * 10.0,
                }
                counts[step % p] = (next() * 4.0) as u32;
                check(&counts, alpha, &loads, &expected);
            }
        }
    }
}
