//! Output checks applied to every partition and every daemon reply.
//!
//! Each returns `Err` saying what disagreed; [`crate::metrics::Outcome`]
//! counts it against `error_rate`.

use hyperpraw::core::metrics::QualityReport;
use hyperpraw::core::{CostMatrix, StopReason};
use hyperpraw::hypergraph::{Hypergraph, Partition};
use hyperpraw::json::{self, JsonValue};

/// Relative tolerance between a reported and a recomputed figure.
const REL_TOL: f64 = 1e-9;

/// `reported` and `recomputed` agree within [`REL_TOL`].
pub fn close(what: &str, reported: f64, recomputed: f64) -> Result<(), String> {
    let scale = reported.abs().max(recomputed.abs()).max(1.0);
    if (reported - recomputed).abs() <= REL_TOL * scale {
        Ok(())
    } else {
        Err(format!(
            "{what}: reported {reported}, recomputed {recomputed}"
        ))
    }
}

/// Every vertex is assigned, to a part id below `parts`.
pub fn assignment(assignment: &[u32], num_vertices: usize, parts: u32) -> Result<(), String> {
    if assignment.len() != num_vertices {
        return Err(format!(
            "{} of {num_vertices} vertices assigned",
            assignment.len()
        ));
    }
    match assignment.iter().position(|&p| p >= parts) {
        Some(v) => Err(format!("vertex {v} in part {} of {parts}", assignment[v])),
        None => Ok(()),
    }
}

/// Recomputes the part loads and the quality of `partition`, and checks
/// the reported imbalance and comm cost against them. Returns the
/// recomputed quality.
pub fn quality(
    hg: &Hypergraph,
    partition: &Partition,
    cost: &CostMatrix,
    reported_imbalance: f64,
    reported_comm_cost: Option<f64>,
) -> Result<QualityReport, String> {
    let parts = cost.num_units() as u32;
    if partition.num_parts() != parts {
        return Err(format!(
            "{} parts for a {parts}-unit machine",
            partition.num_parts()
        ));
    }
    assignment(partition.assignment(), hg.num_vertices(), parts)?;
    let mut loads = vec![0.0f64; parts as usize];
    for v in hg.vertices() {
        loads[partition.part_of(v) as usize] += hg.vertex_weight(v);
    }
    let average = loads.iter().sum::<f64>() / f64::from(parts);
    let imbalance = loads.iter().copied().fold(0.0, f64::max) / average;
    let quality = QualityReport::compute(hg, partition, cost);
    close(
        "imbalance against recomputed loads",
        reported_imbalance,
        imbalance,
    )?;
    close("QualityReport imbalance", quality.imbalance, imbalance)?;
    if let Some(comm_cost) = reported_comm_cost {
        close("comm cost", comm_cost, quality.comm_cost)?;
    }
    Ok(quality)
}

/// The stop reason agrees with the final imbalance: a run that stopped on
/// the tolerance or on comm-cost convergence ends within tolerance, so a
/// run outside it must have hit the iteration limit.
pub fn stop_reason(
    reason: Option<StopReason>,
    imbalance: f64,
    tolerance: f64,
) -> Result<(), String> {
    match reason {
        Some(reason @ (StopReason::ToleranceReached | StopReason::CommCostConverged))
            if imbalance > tolerance + 1e-9 =>
        {
            Err(format!(
                "stopped on {} at imbalance {imbalance}, above the tolerance {tolerance}",
                reason.name()
            ))
        }
        _ => Ok(()),
    }
}

/// A daemon reply: one JSON object with `"ok": true`.
pub fn reply(line: &str) -> Result<JsonValue, String> {
    let line = line.trim_end();
    let excerpt = || line.chars().take(200).collect::<String>();
    let value = json::parse(line).map_err(|e| format!("unparsable reply ({e}): {}", excerpt()))?;
    match value.get("ok").and_then(JsonValue::as_bool) {
        Some(true) => Ok(value),
        _ => Err(format!("refused: {}", excerpt())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw::hypergraph::generators::{mesh_hypergraph, MeshConfig};

    fn fixture() -> (Hypergraph, Partition, CostMatrix, QualityReport) {
        let hg = mesh_hypergraph(&MeshConfig::new(64, 4));
        let partition = Partition::round_robin(64, 4);
        let cost = CostMatrix::uniform(4);
        let quality = QualityReport::compute(&hg, &partition, &cost);
        (hg, partition, cost, quality)
    }

    #[test]
    fn accepts_a_consistent_partition() {
        let (hg, partition, cost, q) = fixture();
        assert!(quality(&hg, &partition, &cost, q.imbalance, Some(q.comm_cost)).is_ok());
    }

    #[test]
    fn rejects_a_corrupted_partition() {
        let (hg, partition, cost, q) = fixture();
        let mut out_of_range = partition.assignment().to_vec();
        out_of_range[3] = 7;
        assert!(assignment(&out_of_range, 64, 4).is_err());
        assert!(assignment(&partition.assignment()[..63], 64, 4).is_err());

        // Moving vertices after the report was made: the recomputed loads
        // and comm cost no longer match it.
        let mut moved = partition.assignment().to_vec();
        moved[..16].fill(0);
        let moved = Partition::from_assignment(moved, 4).unwrap();
        assert!(quality(&hg, &moved, &cost, q.imbalance, Some(q.comm_cost)).is_err());
        let moved_q = QualityReport::compute(&hg, &moved, &cost);
        assert!(quality(&hg, &moved, &cost, moved_q.imbalance, Some(q.comm_cost)).is_err());
    }

    #[test]
    fn rejects_a_failed_reply() {
        assert!(reply("{\"ok\": true, \"vertex\": 1, \"part\": 0}\n").is_ok());
        assert!(reply("{\"ok\": false, \"error\": {\"message\": \"no session\"}}\n").is_err());
        assert!(reply("{\"vertex\": 1}").is_err());
        assert!(reply("not json").is_err());
    }

    #[test]
    fn stop_reason_must_agree_with_the_tolerance() {
        assert!(stop_reason(Some(StopReason::CommCostConverged), 1.05, 1.1).is_ok());
        assert!(stop_reason(Some(StopReason::ToleranceReached), 1.3, 1.1).is_err());
        assert!(stop_reason(Some(StopReason::CommCostConverged), 1.3, 1.1).is_err());
        assert!(stop_reason(Some(StopReason::MaxIterations), 1.3, 1.1).is_ok());
        assert!(stop_reason(None, 1.3, 1.1).is_ok());
    }
}
