//! Pins the facade's one-front-door guarantee: for every [`Algorithm`],
//! dispatching through [`PartitionJob`] produces a partition **bit
//! identical** to calling the underlying driver directly with the same
//! configuration — the job API is a facade over the thin drivers, not a
//! reimplementation. Includes the on-disk lowmem stream path.

use hyperpraw::hypergraph::generators::suite::{PaperInstance, SuiteConfig};
use hyperpraw::hypergraph::io::hmetis;
use hyperpraw::hypergraph::io::stream::{stream_hgr_file, StreamOptions};
use hyperpraw::prelude::*;

fn testbed_cost(procs: usize, seed: u64) -> CostMatrix {
    let machine = MachineModel::archer_like(procs);
    let link = LinkModel::from_machine(&machine, 0.05, seed);
    CostMatrix::from_bandwidth(&RingProfiler::default().profile(&link))
}

fn instance() -> Hypergraph {
    PaperInstance::TwoCubesSphere.generate(&SuiteConfig::scaled(0.01))
}

const P: u32 = 8;
const SEED: u64 = 11;

#[test]
fn hyperpraw_basic_matches_the_direct_driver_bit_for_bit() {
    let hg = instance();
    let direct = HyperPraw::basic(HyperPrawConfig::default().with_seed(SEED), P).partition(&hg);
    let api = PartitionJob::new(Algorithm::HyperPrawBasic)
        .partitions(P)
        .seed(SEED)
        .run(&hg)
        .unwrap();
    assert_eq!(api.partition, direct.partition);
    assert_eq!(api.history, direct.history);
    assert_eq!(api.iterations, direct.iterations);
    assert_eq!(api.stop_reason, Some(direct.stop_reason));
    assert_eq!(api.final_alpha, Some(direct.final_alpha));
}

#[test]
fn hyperpraw_aware_matches_the_direct_driver_bit_for_bit() {
    let hg = instance();
    let cost = testbed_cost(P as usize, 3);
    let direct =
        HyperPraw::aware(HyperPrawConfig::default().with_seed(SEED), cost.clone()).partition(&hg);
    let api = PartitionJob::new(Algorithm::HyperPrawAware)
        .cost(cost)
        .seed(SEED)
        .run(&hg)
        .unwrap();
    assert_eq!(api.partition, direct.partition);
    assert_eq!(api.history, direct.history);
    // The report's comm cost is evaluated with the same matrix the driver
    // partitioned with, so the values are bit-equal too.
    assert_eq!(api.comm_cost, Some(direct.comm_cost));
}

#[test]
fn parallel_variants_match_the_direct_driver_bit_for_bit() {
    let hg = instance();
    let cost = testbed_cost(P as usize, 5);
    for (algorithm, driver_cost) in [
        (Algorithm::ParallelBasic, CostMatrix::uniform(P as usize)),
        (Algorithm::ParallelAware, cost.clone()),
    ] {
        let direct = HyperPraw::new(HyperPrawConfig::default().with_seed(SEED), driver_cost)
            .with_parallel(ParallelConfig {
                num_threads: 3,
                sync_interval: 256,
                mode: ParallelMode::Bsp,
            })
            .partition(&hg);
        let api = PartitionJob::new(algorithm)
            .cost(cost.clone())
            .seed(SEED)
            .threads(3)
            .sync_interval(256)
            .run(&hg)
            .unwrap();
        assert_eq!(api.partition, direct.partition, "{algorithm:?}");
        assert_eq!(api.history, direct.history, "{algorithm:?}");
        assert_eq!(api.iterations, direct.iterations, "{algorithm:?}");
    }
}

#[test]
fn lowmem_variants_match_the_direct_driver_in_memory() {
    let hg = instance();
    let cost = testbed_cost(P as usize, 7);
    for (algorithm, index) in [
        (Algorithm::LowMemExact, IndexKind::Exact),
        (Algorithm::LowMemSketched, IndexKind::Sketched),
    ] {
        let direct = LowMemPartitioner::new(
            LowMemConfig {
                index,
                seed: SEED,
                ..LowMemConfig::default()
            },
            cost.clone(),
        )
        .partition_hypergraph(&hg);
        let api = PartitionJob::new(algorithm)
            .cost(cost.clone())
            .seed(SEED)
            .run(&hg)
            .unwrap();
        assert_eq!(api.partition, direct.partition, "{algorithm:?}");
        let stats = api.lowmem.expect("lowmem runs report their stats");
        assert_eq!(stats.alpha, direct.alpha, "{algorithm:?}");
        assert_eq!(stats.restreamed, direct.restreamed, "{algorithm:?}");
        assert_eq!(
            stats.index_memory_bytes, direct.index_memory_bytes,
            "{algorithm:?}"
        );
    }
}

#[test]
fn lowmem_on_disk_stream_matches_the_direct_driver_bit_for_bit() {
    // The same .hgr file is transposed twice; the job dispatch must place
    // every vertex exactly like the direct driver, multi-pass BSP included.
    let hg = instance();
    let path = std::env::temp_dir().join(format!(
        "hyperpraw_api_equivalence_{}.hgr",
        std::process::id()
    ));
    hmetis::write_hgr_file(&hg, &path).unwrap();
    let budget = MemoryBudget::bytes(256 << 10);
    let options = StreamOptions {
        buffer_bytes: budget
            .plan(P as usize, hg.num_hyperedges())
            .transpose_buffer_bytes,
        spill_dir: None,
    };
    let config = LowMemConfig {
        budget,
        index: IndexKind::Sketched,
        passes: 2,
        rebuild_sketches: true,
        threads: 3,
        sync_interval: 128,
        seed: SEED,
        ..LowMemConfig::default()
    };
    let cost = testbed_cost(P as usize, 9);

    let mut direct_stream = stream_hgr_file(&path, &options).unwrap();
    let direct = LowMemPartitioner::new(config.clone(), cost.clone())
        .partition(&mut direct_stream)
        .unwrap();

    let mut api_stream = stream_hgr_file(&path, &options).unwrap();
    let api = PartitionJob::new(Algorithm::LowMemSketched)
        .cost(cost)
        .lowmem_config(config)
        .run_stream(&mut api_stream)
        .unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(api.partition, direct.partition);
    let stats = api.lowmem.unwrap();
    assert_eq!(stats.passes, direct.passes);
    assert_eq!(stats.restreamed, direct.restreamed);
    assert_eq!(stats.moved_in_restream, direct.moved_in_restream);
    // A pure stream run reports no cut metrics until a streamed
    // evaluation back-fills them.
    assert_eq!(api.hyperedge_cut, None);
    assert_eq!(api.comm_cost, None);
}

#[test]
fn multilevel_and_round_robin_match_the_direct_calls() {
    let hg = instance();
    let direct_ml =
        MultilevelPartitioner::new(MultilevelConfig::default().with_seed(SEED)).partition(&hg, P);
    let api_ml = PartitionJob::new(Algorithm::MultilevelBaseline)
        .partitions(P)
        .seed(SEED)
        .run(&hg)
        .unwrap();
    assert_eq!(api_ml.partition, direct_ml);

    let direct_rr = baselines::round_robin(&hg, P);
    let api_rr = PartitionJob::new(Algorithm::RoundRobin)
        .partitions(P)
        .run(&hg)
        .unwrap();
    assert_eq!(api_rr.partition, direct_rr);
}

#[test]
fn every_algorithm_report_serialises_to_json() {
    let hg = instance();
    let cost = testbed_cost(P as usize, 13);
    for algorithm in Algorithm::all() {
        let report = PartitionJob::new(algorithm)
            .cost(cost.clone())
            .seed(SEED)
            .run(&hg)
            .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
        let json = report.to_json();
        assert!(
            json.contains(&format!("\"algorithm\": \"{}\"", algorithm.name())),
            "{algorithm}: {json}"
        );
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{algorithm}: unbalanced JSON"
        );
    }
}
