//! The lowmem anchor: recorded partitions the streaming partitioner must
//! keep.
//!
//! `fixtures/lowmem_anchor.txt` was recorded by the build whose lowmem
//! loop still ran inside the shared restreaming engine. Every combination
//! of
//!
//! * index: exact, sketched, and exact with the round-robin prior;
//! * 1 and 3 passes;
//! * sketch rebuilds off and on;
//! * the revisit buffer at its budget-sized default and at 0;
//! * unit and `1..=5` vertex weights;
//! * uniform and architecture-aware cost
//!
//! is one line: `<key> <passes> <restreamed> <moved_in_restream>
//! <assignment>`, the assignment as one digit per vertex. The budget is
//! small enough that the revisit buffer's byte bound, not its entry
//! count, sets how many doubts it keeps.

use hyperpraw::hypergraph::generators::{mesh_hypergraph, MeshConfig};
use hyperpraw::prelude::*;

/// Comment lines, then one record per configuration.
const FIXTURE: &str = include_str!("fixtures/lowmem_anchor.txt");

const P: usize = 6;
const SEED: u64 = 5;

/// A jittered card-8 mesh: its long-range pins give the revisit buffer
/// near-ties to reconsider.
fn mesh(weighted: bool) -> Hypergraph {
    let base = mesh_hypergraph(&MeshConfig {
        jitter: 0.1,
        seed: SEED,
        ..MeshConfig::new(360, 8)
    });
    let mut b = HypergraphBuilder::new(base.num_vertices());
    for (_, pins) in base.iter_edges() {
        b.add_hyperedge(pins.iter().copied());
    }
    if weighted {
        for v in base.vertices() {
            b.set_vertex_weight(v, f64::from(1 + (v * 7 + v / 5) % 5));
        }
    }
    b.build()
}

fn aware_cost() -> CostMatrix {
    let machine = MachineModel::archer_like(P);
    let link = LinkModel::from_machine(&machine, 0.05, SEED);
    CostMatrix::from_bandwidth(&RingProfiler::default().profile(&link))
}

/// Every configuration the fixture pins, with its key.
fn configurations() -> Vec<(String, LowMemConfig, bool, bool)> {
    let mut out = Vec::new();
    for (index_name, index, prior) in [
        ("exact", IndexKind::Exact, false),
        ("sketched", IndexKind::Sketched, false),
        ("exact-prior", IndexKind::Exact, true),
    ] {
        for passes in [1usize, 3] {
            for rebuild in [false, true] {
                for capacity in [None, Some(0)] {
                    for weighted in [false, true] {
                        for aware in [false, true] {
                            let key = format!(
                                "{index_name}/{passes}p/{}/{}/{}/{}",
                                if rebuild { "rebuild" } else { "keep" },
                                capacity.map_or("cap-default".to_string(), |c| format!("cap-{c}")),
                                if weighted { "weighted" } else { "unit" },
                                if aware { "aware" } else { "uniform" },
                            );
                            let config = LowMemConfig {
                                budget: MemoryBudget::bytes(8 << 10),
                                index,
                                alpha: None,
                                restream_capacity: capacity,
                                round_robin_prior: prior,
                                passes,
                                rebuild_sketches: rebuild,
                                seed: SEED,
                            };
                            out.push((key, config, weighted, aware));
                        }
                    }
                }
            }
        }
    }
    out
}

/// One configuration's record line.
fn record(key: &str, config: LowMemConfig, hg: &Hypergraph, aware: bool) -> String {
    let cost = if aware {
        aware_cost()
    } else {
        CostMatrix::uniform(P)
    };
    let result = LowMemPartitioner::new(config, cost).partition_hypergraph(hg);
    let assignment: String = result
        .partition
        .assignment()
        .iter()
        .map(|&part| char::from_digit(part, 10).expect("fewer than ten parts"))
        .collect();
    format!(
        "{key} {} {} {} {assignment}",
        result.passes, result.restreamed, result.moved_in_restream
    )
}

#[test]
fn every_configuration_matches_the_recorded_fixture() {
    let graphs = [mesh(false), mesh(true)];
    let recorded: Vec<&str> = FIXTURE.lines().filter(|l| !l.starts_with('#')).collect();
    let configurations = configurations();
    assert_eq!(
        recorded.len(),
        configurations.len(),
        "one record per configuration"
    );
    for ((key, config, weighted, aware), line) in configurations.into_iter().zip(recorded) {
        let got = record(&key, config, &graphs[usize::from(weighted)], aware);
        assert_eq!(got, line, "{key}");
    }
}

#[test]
fn the_fixture_exercises_rebuilds_revisits_and_every_pass() {
    let records: Vec<Vec<&str>> = FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
        .collect();
    let column = |r: &Vec<&str>, i: usize| r[i].parse::<usize>().expect("count column");
    // Some revisit moves a vertex, some multi-pass run streams all three
    // passes, and a sketch rebuild changes a sketched multi-pass run.
    assert!(records.iter().any(|r| column(r, 3) > 0));
    assert!(records.iter().any(|r| column(r, 1) == 3));
    let assignment = |key: &str| {
        records
            .iter()
            .find(|r| r[0] == key)
            .map(|r| r[4])
            .expect("recorded key")
    };
    assert_ne!(
        assignment("sketched/3p/keep/cap-0/unit/aware"),
        assignment("sketched/3p/rebuild/cap-0/unit/aware")
    );
}
