//! Crash-safety properties of the snapshot + write-ahead journal.
//!
//! Two invariants pin the durability layer:
//!
//! 1. **Bit-identical recovery** — after any sequence of accepted update
//!    batches, reopening the state directory reconstructs a partitioner
//!    whose assignment, loads and hypergraph equal the live one, and
//!    which stays equal under further batches (the restream is
//!    deterministic, so matching state implies matching futures).
//! 2. **Clean-prefix recovery under damage** — truncating or bit-flipping
//!    the journal tail anywhere past the header never makes recovery
//!    fail and never replays damaged data: the recovered state always
//!    equals the snapshot plus an exact *prefix* of the accepted batches,
//!    and the fold-on-recovery makes a second reopen byte-stable.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;

use hyperpraw_core::{CostMatrix, HyperPraw, HyperPrawConfig};
use hyperpraw_dynamic::journal::{read_snapshot, JOURNAL_HEADER_BYTES};
use hyperpraw_dynamic::{DynamicConfig, DynamicPartitioner, GraphUpdate, StateDir};
use hyperpraw_hypergraph::generators::{random_hypergraph, CardinalityDist, RandomConfig};
use hyperpraw_storage::MemorySource;

fn tmpdir(tag: &str, a: u64, b: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hpraw-journal-prop-{}-{tag}-{a}-{b}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn seeded_instance(n: usize, e: usize, p: u32, seed: u64) -> DynamicPartitioner {
    let hg = random_hypergraph(&RandomConfig {
        num_vertices: n,
        num_hyperedges: e,
        cardinality: CardinalityDist::Uniform { min: 2, max: 5 },
        seed,
        name: "journal-prop".into(),
    });
    let cost = CostMatrix::uniform(p as usize);
    let config = HyperPrawConfig {
        max_iterations: 10,
        ..HyperPrawConfig::default().with_seed(seed)
    };
    let cold = HyperPraw::new(config, cost.clone()).partition(&hg);
    let cfg = DynamicConfig { config };
    DynamicPartitioner::new(&hg, cold.partition, cost, cfg).unwrap()
}

/// Minimal liveness tracker so randomly drawn updates stay valid against
/// the evolving graph (the dynamic layer rejects whole batches on any
/// invalid update, which would starve the property of coverage).
struct LiveSets {
    vertex_alive: Vec<bool>,
    pins: Vec<Vec<u32>>,
    edge_alive: Vec<bool>,
}

impl LiveSets {
    fn of(p: &DynamicPartitioner) -> Self {
        let hg = p.hypergraph();
        Self {
            vertex_alive: vec![true; hg.num_vertices()],
            pins: (0..hg.num_hyperedges())
                .map(|e| hg.pins(e as u32).to_vec())
                .collect(),
            edge_alive: vec![true; hg.num_hyperedges()],
        }
    }

    fn live_vertices(&self) -> Vec<u32> {
        (0..self.vertex_alive.len() as u32)
            .filter(|&v| self.vertex_alive[v as usize])
            .collect()
    }

    fn live_edges(&self) -> Vec<u32> {
        (0..self.edge_alive.len() as u32)
            .filter(|&e| self.edge_alive[e as usize])
            .collect()
    }

    fn draw(&mut self, rng: &mut StdRng) -> Option<GraphUpdate> {
        let live_v = self.live_vertices();
        let live_e = self.live_edges();
        let update = match rng.gen_range(0usize..6) {
            0 => {
                self.vertex_alive.push(true);
                GraphUpdate::AddVertex {
                    weight: rng.gen_range(1.0f64..3.0),
                }
            }
            1 if live_v.len() > 8 => {
                let vertex = live_v[rng.gen_range(0usize..live_v.len())];
                self.vertex_alive[vertex as usize] = false;
                for pins in &mut self.pins {
                    pins.retain(|&u| u != vertex);
                }
                GraphUpdate::RemoveVertex { vertex }
            }
            2 if live_v.len() >= 2 => {
                let count = rng.gen_range(2usize..5.min(live_v.len() + 1));
                let mut pins: Vec<u32> = (0..count)
                    .map(|_| live_v[rng.gen_range(0usize..live_v.len())])
                    .collect();
                let raw = pins.clone();
                pins.sort_unstable();
                pins.dedup();
                self.pins.push(pins);
                self.edge_alive.push(true);
                GraphUpdate::AddHyperedge {
                    pins: raw,
                    weight: 1.0,
                }
            }
            3 if live_e.len() > 2 => {
                let edge = live_e[rng.gen_range(0usize..live_e.len())];
                self.pins[edge as usize].clear();
                self.edge_alive[edge as usize] = false;
                GraphUpdate::RemoveHyperedge { edge }
            }
            4 if !live_e.is_empty() && !live_v.is_empty() => {
                let edge = live_e[rng.gen_range(0usize..live_e.len())];
                let vertex = live_v[rng.gen_range(0usize..live_v.len())];
                let pins = &mut self.pins[edge as usize];
                if !pins.contains(&vertex) {
                    pins.push(vertex);
                    pins.sort_unstable();
                }
                GraphUpdate::AddPin { edge, vertex }
            }
            5 if !live_e.is_empty() => {
                let edge = live_e[rng.gen_range(0usize..live_e.len())];
                let pins = &mut self.pins[edge as usize];
                if pins.is_empty() {
                    return None;
                }
                let vertex = pins[rng.gen_range(0usize..pins.len())];
                pins.retain(|&u| u != vertex);
                GraphUpdate::RemovePin { edge, vertex }
            }
            _ => return None,
        };
        Some(update)
    }

    fn draw_batch(&mut self, rng: &mut StdRng, size: usize) -> Vec<GraphUpdate> {
        let mut batch = Vec::new();
        for _ in 0..size {
            if let Some(u) = self.draw(rng) {
                batch.push(u);
            }
        }
        batch
    }
}

fn assert_same(a: &DynamicPartitioner, b: &DynamicPartitioner) -> Result<(), String> {
    prop_assert_eq!(
        a.partition().assignment(),
        b.partition().assignment(),
        "assignments diverged"
    );
    prop_assert_eq!(a.loads(), b.loads(), "loads diverged");
    prop_assert!(a.graph() == b.graph(), "hypergraphs diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recovery_is_bit_identical_after_arbitrary_batches(
        n in 40usize..100,
        e in 20usize..60,
        p in 2u32..5,
        seed in 0u64..40,
        batches in 1usize..5,
        batch_size in 1usize..8,
    ) {
        let dir = tmpdir("roundtrip", seed, (n * 1000 + e) as u64);
        let mut live = seeded_instance(n, e, p, seed);
        let mut sets = LiveSets::of(&live);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97).wrapping_add(13));

        let (mut store, recovered) = StateDir::open(&dir).unwrap();
        prop_assert!(recovered.is_none(), "fresh directory holds no session");
        store.write_snapshot(b"opaque-meta", &live).unwrap();

        let mut accepted = 0usize;
        for _ in 0..batches {
            let batch = sets.draw_batch(&mut rng, batch_size);
            live.apply(&batch).unwrap();
            store.append(&batch).unwrap();
            accepted += 1;
        }
        prop_assert_eq!(store.batches_since_snapshot(), accepted as u64);
        drop(store);

        // Recovery replays every journaled batch onto the snapshot.
        let (_store, recovered) = StateDir::open(&dir).unwrap();
        let rec = recovered.expect("persisted session recovered");
        prop_assert_eq!(&rec.meta[..], b"opaque-meta");
        prop_assert_eq!(rec.stats.batches_replayed, accepted);
        prop_assert!(!rec.stats.torn_tail);
        prop_assert_eq!(rec.stats.truncated_bytes, 0);
        assert_same(&live, &rec.partitioner)?;

        // Matching state implies matching futures: one more batch lands
        // identically on both (the restream is deterministic).
        let mut recovered_p = rec.partitioner;
        let batch = sets.draw_batch(&mut rng, batch_size.max(1));
        live.apply(&batch).unwrap();
        recovered_p.apply(&batch).unwrap();
        assert_same(&live, &recovered_p)?;

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_journal_tails_recover_a_clean_prefix(
        n in 40usize..100,
        e in 20usize..60,
        p in 2u32..5,
        seed in 0u64..40,
        batch_size in 1usize..8,
        damage_kind in 0usize..2,
        damage_frac in 0.0f64..1.0,
    ) {
        let dir = tmpdir("damage", seed, (n * 1000 + e + damage_kind * 7) as u64);
        let mut live = seeded_instance(n, e, p, seed);
        let mut sets = LiveSets::of(&live);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(5));

        let (mut store, _) = StateDir::open(&dir).unwrap();
        store.write_snapshot(b"m", &live).unwrap();
        let snapshot_bytes = fs::read(dir.join("snapshot.bin")).unwrap();

        let mut accepted: Vec<Vec<GraphUpdate>> = Vec::new();
        for _ in 0..4 {
            let batch = sets.draw_batch(&mut rng, batch_size);
            live.apply(&batch).unwrap();
            store.append(&batch).unwrap();
            accepted.push(batch);
        }
        drop(store);

        // Damage the journal tail anywhere strictly past the header:
        // either tear the file (partial final write) or flip one bit
        // (lying disk). Neither may ever surface damaged batches.
        let journal_path = dir.join("journal.log");
        let mut journal = fs::read(&journal_path).unwrap();
        let header = JOURNAL_HEADER_BYTES as usize;
        prop_assert!(journal.len() > header + 1);
        let offset = header
            + 1
            + ((journal.len() - header - 2) as f64 * damage_frac) as usize;
        if damage_kind == 0 {
            journal.truncate(offset);
        } else {
            journal[offset] ^= 0x10;
        }
        fs::write(&journal_path, &journal).unwrap();

        let (_store, recovered) = StateDir::open(&dir).unwrap();
        let rec = recovered.expect("damage never loses the snapshot");
        prop_assert!(rec.stats.batches_replayed <= accepted.len());
        prop_assert!(
            rec.stats.batches_replayed < accepted.len(),
            "damage strictly inside the record region must drop at least the last batch"
        );

        // The recovered state is exactly snapshot + a prefix of the
        // accepted batches — never a damaged or reordered replay.
        let decoded = read_snapshot(&MemorySource::new(snapshot_bytes)).unwrap();
        let mut expected = decoded.partitioner;
        for batch in &accepted[..rec.stats.batches_replayed] {
            expected.apply(batch).unwrap();
        }
        assert_same(&expected, &rec.partitioner)?;

        // Recovery folded the surviving prefix into a fresh snapshot and
        // rotated the journal: a second reopen is clean and replays
        // nothing, yet yields the same state.
        let (_store, second) = StateDir::open(&dir).unwrap();
        let second = second.expect("folded snapshot persists");
        prop_assert_eq!(second.stats.batches_replayed, 0);
        prop_assert!(!second.stats.torn_tail);
        assert_same(&expected, &second.partitioner)?;

        let _ = fs::remove_dir_all(&dir);
    }
}
