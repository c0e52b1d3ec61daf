//! End-to-end comparison of the partitioners on the same instance: the
//! Zoltan-like multilevel baseline, HyperPRAW (sequential) and the parallel
//! restreaming extension — the data behind the "partitioning cost" column of
//! the evaluation.
//!
//! The `hyperpraw_basic`/`hyperpraw_aware`/`hyperpraw_refine` entries time
//! the unified restreaming engine's sequential strategy; their `_adj`
//! suffix (answers from the precomputed dedup adjacency) is kept so the
//! ids stay comparable with earlier snapshots. The `hyperpraw_parallel`
//! and `hyperpraw_steal` entries run the same partitioner through
//! `HyperPraw::with_parallel`: the bulk-synchronous schedule, and the
//! work-stealing strategy swept over a thread ladder (1 is the
//! sequential-dispatch floor). The `lowmem_bsp_sketched` entries time the
//! engine combination none of the pre-engine drivers could express:
//! bulk-synchronous workers over the sketched out-of-core connectivity
//! provider. Medians land in `target/BENCH_partitioners.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hyperpraw_bench::Testbed;
use hyperpraw_core::{HyperPraw, HyperPrawConfig, ParallelConfig};
use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
use hyperpraw_lowmem::{LowMemConfig, LowMemPartitioner};
use hyperpraw_multilevel::{MultilevelConfig, MultilevelPartitioner};

fn bench_partitioners(c: &mut Criterion) {
    let mut group = c.benchmark_group("partitioners_end_to_end");
    group.sample_size(10);
    // Cardinality 16 approaches the paper's FEM row-net instances (Table 1
    // averages 24–60 pins per hyperedge); the pre-PR-4 group used
    // cardinality 10, so ids are not comparable across that boundary.
    let hg = mesh_hypergraph(&MeshConfig::new(3_000, 16));
    let p = 24usize;
    let testbed = Testbed::archer(p, 0, 1);

    group.bench_function(BenchmarkId::new("zoltan_like", p), |b| {
        b.iter(|| MultilevelPartitioner::new(MultilevelConfig::default()).partition(&hg, p as u32))
    });
    let config = HyperPrawConfig::default();
    group.bench_function(BenchmarkId::new("hyperpraw_basic_adj", p), |b| {
        b.iter(|| HyperPraw::basic(config, p as u32).partition(&hg))
    });
    group.bench_function(BenchmarkId::new("hyperpraw_aware_adj", p), |b| {
        b.iter(|| HyperPraw::aware(config, testbed.cost.clone()).partition(&hg))
    });
    // Multi-pass refinement is where the precomputed adjacency amortises
    // hardest: a run started at a small α keeps restreaming until the
    // comm cost converges, revisiting every neighbourhood once per pass.
    let refine = HyperPrawConfig {
        initial_alpha: Some(2.0),
        ..config
    };
    group.bench_function(BenchmarkId::new("hyperpraw_refine_adj", p), |b| {
        b.iter(|| HyperPraw::basic(refine, p as u32).partition(&hg))
    });
    for threads in [2usize, 4] {
        group.bench_function(BenchmarkId::new("hyperpraw_parallel", threads), |b| {
            b.iter(|| {
                HyperPraw::aware(config, testbed.cost.clone())
                    .with_parallel(ParallelConfig::with_threads(threads))
                    .partition(&hg)
            })
        });
    }
    // The work-stealing strategy swept over a thread ladder: the 1-thread
    // point is the sequential-dispatch floor, and the ratio steal/N over
    // steal/1 is the strategy's own scaling (no BSP barriers to hide in).
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("hyperpraw_steal", threads), |b| {
            b.iter(|| {
                HyperPraw::aware(config, testbed.cost.clone())
                    .with_parallel(ParallelConfig::stealing(threads))
                    .partition(&hg)
            })
        });
    }
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("lowmem_bsp_sketched", threads), |b| {
            b.iter(|| {
                LowMemPartitioner::new(
                    LowMemConfig {
                        threads,
                        sync_interval: 512,
                        ..LowMemConfig::default()
                    },
                    testbed.cost.clone(),
                )
                .partition_hypergraph(&hg)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partitioners);
criterion_main!(benches);
