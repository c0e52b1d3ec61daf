//! Incremental repartitioning vs. starting over: the case for
//! `hyperpraw-dynamic`.
//!
//! Both ids process the *same* workload change — a 1%-of-vertices update
//! batch (30 updates: new vertices wired into the mesh plus extra pins on
//! existing hyperedges) landing on an already-partitioned card-16 mesh.
//! `incremental_1pct` absorbs it through a resident `DynamicSession`
//! (dirty-set restream over the touched neighbourhood, snapshot spliced
//! and quality state patched in place); `full_repartition` re-runs the
//! whole job on the post-update hypergraph, which is what a stateless
//! deployment would have to do, including its from-scratch quality
//! evaluation. The incremental id clones the session per iteration
//! (`iter` must not accumulate batches), so its time *includes* the full
//! state copy — the steady-state daemon is faster still. Medians land in
//! `target/BENCH_dynamic.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hyperpraw::api::{Algorithm, PartitionJob};
use hyperpraw::dynamic::GraphUpdate;
use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};

/// 30 updates ≈ 1% of the 3 000 mesh vertices: ten fresh vertices, each
/// wired in by a new hyperedge, plus ten pins added to existing edges.
fn one_percent_batch(n: u32) -> Vec<GraphUpdate> {
    let mut batch = Vec::with_capacity(30);
    for i in 0..10u32 {
        batch.push(GraphUpdate::AddVertex { weight: 1.0 });
        batch.push(GraphUpdate::AddHyperedge {
            pins: vec![n + i, (i * 97) % n, (i * 193 + 41) % n],
            weight: 1.0,
        });
    }
    for i in 0..10u32 {
        batch.push(GraphUpdate::AddPin {
            edge: (i * 31) % 100,
            vertex: (i * 911 + 13) % n,
        });
    }
    batch
}

fn bench_dynamic(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_updates");
    group.sample_size(10);
    let n = 3_000u32;
    let p = 24u32;
    let hg = mesh_hypergraph(&MeshConfig::new(n as usize, 16));
    let job = PartitionJob::new(Algorithm::HyperPrawBasic)
        .partitions(p)
        .seed(2019);
    let session = job.run_dynamic(&hg).unwrap();
    let batch = one_percent_batch(n);

    group.bench_function(BenchmarkId::new("incremental_1pct", p), |b| {
        b.iter(|| session.clone().update(&batch).unwrap())
    });

    // The stateless alternative: the same post-update hypergraph,
    // repartitioned from scratch through the same job.
    let updated = {
        let mut s = session.clone();
        s.update(&batch).unwrap();
        s.hypergraph().clone()
    };
    group.bench_function(BenchmarkId::new("full_repartition", p), |b| {
        b.iter(|| job.run(&updated).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_dynamic);
criterion_main!(benches);
