//! Partitioning over the compressed chunked stream is bit-identical to
//! the uncompressed transpose stream and to the in-memory driver, for
//! every lowmem variant: exact and sketched indexes, single pass,
//! and multi-pass with sketch rebuilds.

use std::io::Cursor;

use hyperpraw_hypergraph::generators::mesh::{mesh_hypergraph, MeshConfig};
use hyperpraw_hypergraph::io::hmetis;
use hyperpraw_hypergraph::io::stream::{stream_hgr_file, StreamOptions};
use hyperpraw_lowmem::{IndexKind, LowMemConfig, LowMemPartitioner, MemoryBudget};
use hyperpraw_storage::{
    write_hypergraph, CachingSource, CompressedReader, MemorySource, ReadMode,
};
use hyperpraw_topology::{BandwidthMatrix, CostMatrix, MachineModel};

const P: usize = 12;
const SEED: u64 = 23;

fn cost() -> CostMatrix {
    let machine = MachineModel::archer_like(P);
    CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.05, SEED))
}

fn variants() -> Vec<(&'static str, LowMemConfig)> {
    let base = LowMemConfig {
        budget: MemoryBudget::bytes(256 << 10),
        seed: SEED,
        ..LowMemConfig::default()
    };
    vec![
        (
            "exact_one_pass",
            LowMemConfig {
                index: IndexKind::Exact,
                ..base.clone()
            },
        ),
        (
            "sketched_one_pass",
            LowMemConfig {
                index: IndexKind::Sketched,
                ..base.clone()
            },
        ),
        (
            "sketched_multi_pass_rebuild",
            LowMemConfig {
                index: IndexKind::Sketched,
                passes: 3,
                rebuild_sketches: true,
                ..base
            },
        ),
    ]
}

#[test]
fn compressed_streams_are_bit_identical_to_transpose_and_in_memory() {
    let hg = mesh_hypergraph(&MeshConfig::new(600, 8));
    let cost = cost();

    // Encode once, small blocks so many block boundaries are crossed.
    let mut cursor = Cursor::new(Vec::new());
    write_hypergraph(&hg, &mut cursor, 2048).unwrap();
    let bytes = cursor.into_inner();

    // The transpose path streams the same hypergraph from an .hgr file.
    let hgr = std::env::temp_dir().join(format!("hpz-equivalence-{}.hgr", std::process::id()));
    hmetis::write_hgr_file(&hg, &hgr).unwrap();
    let options = StreamOptions {
        buffer_bytes: 64 << 10,
        spill_dir: None,
    };

    for (name, config) in variants() {
        let partitioner = LowMemPartitioner::new(config, cost.clone());
        let in_memory = partitioner.partition_hypergraph(&hg);

        let mut transpose = stream_hgr_file(&hgr, &options).unwrap();
        let from_transpose = partitioner.partition(&mut transpose).unwrap();

        let reader = CompressedReader::open(MemorySource::new(bytes.clone())).unwrap();
        let mut sync_stream = reader.stream(ReadMode::Sync);
        let from_sync = partitioner.partition(&mut sync_stream).unwrap();

        let mut prefetch_stream = reader.stream(ReadMode::Prefetch);
        let from_prefetch = partitioner.partition(&mut prefetch_stream).unwrap();

        let cached = CachingSource::new(MemorySource::new(bytes.clone()), 4096, 6);
        let cached_reader = CompressedReader::open(cached).unwrap();
        let mut cached_stream = cached_reader.stream(ReadMode::Prefetch);
        let from_cached = partitioner.partition(&mut cached_stream).unwrap();

        assert_eq!(
            from_transpose.partition, in_memory.partition,
            "{name}: transpose vs in-memory"
        );
        assert_eq!(
            from_sync.partition, in_memory.partition,
            "{name}: compressed sync vs in-memory"
        );
        assert_eq!(
            from_prefetch.partition, in_memory.partition,
            "{name}: compressed prefetch vs in-memory"
        );
        assert_eq!(
            from_cached.partition, in_memory.partition,
            "{name}: compressed cached prefetch vs in-memory"
        );
        assert_eq!(from_sync.passes, in_memory.passes, "{name}: pass count");
        assert_eq!(
            from_prefetch.restreamed, in_memory.restreamed,
            "{name}: restream count"
        );
    }
    std::fs::remove_file(&hgr).ok();
}
