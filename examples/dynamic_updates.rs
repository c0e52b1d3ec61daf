//! Dynamic updates: keep a partition alive while the hypergraph changes.
//!
//! ```text
//! cargo run --release --example dynamic_updates
//! ```
//!
//! Workloads rarely stand still: tasks spawn, links appear, tasks retire.
//! Repartitioning from scratch after every change throws away both the
//! partitioner's work and — worse — the data locality of every vertex that
//! did not move. This example walks the resident alternative:
//!
//! 1. partition once through the job API and keep the session resident
//!    (`PartitionJob::run_dynamic`),
//! 2. apply a batch of `GraphUpdate`s — the session restreams only the
//!    updated vertices and their distinct-neighbour ring,
//! 3. look up placements and read the `UpdateReport`, which extends the
//!    usual quality metrics with what the batch cost in migrated vertices
//!    and cost-matrix-weighted bytes. The session keeps those metrics
//!    resident and patches them per batch, so reading them costs no
//!    re-evaluation of the whole graph.
//!
//! The same session type backs the long-lived daemon: `hyperpraw serve`
//! answers these operations as newline-delimited JSON over TCP or stdio.

use hyperpraw::dynamic::GraphUpdate;
use hyperpraw::hypergraph::generators::{mesh_hypergraph, MeshConfig};
use hyperpraw::prelude::*;

fn main() {
    println!("== dynamic repartitioning ==\n");

    // 1. A 1 500-vertex FEM-style mesh, partitioned once, kept resident.
    let hg = mesh_hypergraph(&MeshConfig::new(1_500, 12));
    println!("initial hypergraph     : {hg}");
    let mut session = PartitionJob::new(Algorithm::HyperPrawBasic)
        .partitions(8)
        .seed(42)
        .run_dynamic(&hg)
        .expect("valid dynamic configuration");
    let initial = session.initial_report();
    println!(
        "initial partition      : cut {} | comm cost {:.1} | imbalance {:.3}\n",
        initial.hyperedge_cut.unwrap_or(0),
        initial.comm_cost.unwrap_or(f64::NAN),
        initial.imbalance,
    );

    // 2. The workload grows: four new tasks arrive and wire themselves
    //    into the mesh, one region gains a shared variable, one task
    //    retires. One batch, applied atomically.
    let n = hg.num_vertices() as u32;
    let mut batch = vec![];
    for i in 0..4u32 {
        batch.push(GraphUpdate::AddVertex { weight: 1.0 });
        batch.push(GraphUpdate::AddHyperedge {
            pins: vec![n + i, i * 300, i * 300 + 7],
            weight: 1.0,
        });
    }
    batch.push(GraphUpdate::AddPin {
        edge: 12,
        vertex: 900,
    });
    batch.push(GraphUpdate::RemoveVertex { vertex: 77 });
    let update = session.update(&batch).expect("valid update batch");

    println!("applied {} updates:", batch.len());
    println!(
        "  dirty set restreamed : {} vertices ({} new)",
        update.dirty_vertices,
        update.new_vertices.len(),
    );
    println!(
        "  migration            : {} vertices moved ({:.2}% of the graph), {:.1} cost-weighted bytes",
        update.migration.vertices_moved,
        100.0 * update.migration.moved_fraction,
        update.migration.bytes_moved,
    );
    println!(
        "  post-update quality  : cut {} | comm cost {:.1} | imbalance {:.3}\n",
        update.report.hyperedge_cut.unwrap_or(0),
        update.report.comm_cost.unwrap_or(f64::NAN),
        update.report.imbalance,
    );

    // 3. Lookups answer from the resident assignment; tombstoned vertices
    //    are gone, new vertices are placed.
    for v in [0u32, 77, n, n + 3] {
        match session.lookup(v) {
            Some(part) => println!("vertex {v:>4} -> partition {part}"),
            None => println!("vertex {v:>4} -> removed"),
        }
    }

    println!(
        "\nThe batch only restreamed the updated vertices and their neighbour ring — the rest\n\
         of the assignment is untouched, so migration stays proportional to the change, not\n\
         to the graph. `hyperpraw serve` exposes exactly this loop as a JSON protocol."
    );
}
