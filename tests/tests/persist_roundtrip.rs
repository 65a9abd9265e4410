//! Persistence round-trip suite: checkpoint + WAL replay restores the
//! full incremental stack **bit-identically**.
//!
//! Each trace drives a live `RothkoRun` + lockstep `ReducedDelta` through
//! mixed edge batches, node churn and maintenance while logging every
//! input into a [`qsc_persist::Store`]; at every round the store is
//! recovered in a fresh process-like context and the restored stack is
//! compared to the live one by re-encoding both into checkpoint bytes —
//! byte equality is the strongest available bit-identity check (it covers
//! the graph CSR, coloring, accumulators, summary matrices with witness
//! args, nonzero counts, sparse rows and the reduced instance, all
//! through `to_bits`). Restored stacks are then *advanced* through more
//! batches alongside the never-persisted one and must stay byte-equal.
//! Runs across Dense / Sparse / Auto storage × both graph directions, with weights kept at multiples of 0.5 so sums are
//! exact (the same regime as the rest of the dynamic suite). A proptest
//! harness fuzzes randomized trace schedules on top.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use qsc_core::partition::PartitionEvent;
use qsc_core::reduced::ReducedDelta;
use qsc_core::rothko::{Rothko, RothkoConfig, RothkoRun};
use qsc_core::StorageMode;
use qsc_graph::delta::EdgeEvent;
use qsc_graph::{Graph, GraphBuilder, GraphDelta};
use qsc_persist::{
    decode_checkpoint, encode_checkpoint, encode_checkpoint_with, CheckpointData, Layout, Store,
    StoreOptions,
};
use rand::prelude::*;

/// Fresh scratch directory under the system temp dir.
fn temp_store_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "qsc-persist-rt-{}-{}-{}",
        std::process::id(),
        tag,
        NEXT.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Random graph with exactly representable weights (multiples of 0.5).
fn random_graph(n: usize, edges: usize, directed: bool, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = if directed {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    for _ in 0..edges {
        let u = rng.random_range(0..n) as u32;
        let v = rng.random_range(0..n) as u32;
        if u != v {
            let w = (rng.random_range(1u32..9) as f64) * 0.5;
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// Canonical byte encoding of a stack's full observable state.
fn state_bytes(run: &RothkoRun<'_>, reduced: Option<&ReducedDelta>) -> Vec<u8> {
    let mut config = run.config().clone();
    config.initial = None; // not persisted; normalize for comparison
    let data = CheckpointData {
        graph: run.graph().clone(),
        config,
        run: run.snapshot(),
        reduced: reduced.map(ReducedDelta::snapshot),
        wal_seq: 0,
    };
    encode_checkpoint(&data).0
}

/// Random edge mutations over `delta`, returning the drained events.
fn edge_churn(delta: &mut GraphDelta, rng: &mut StdRng, ops: usize) -> Vec<EdgeEvent> {
    let n = delta.num_nodes();
    let mut edges: Vec<(u32, u32)> = delta
        .base()
        .edges()
        .iter()
        .map(|&(u, v, _)| (u, v))
        .collect();
    for _ in 0..ops {
        match rng.random_range(0..3u32) {
            0 => {
                for _ in 0..20 {
                    let u = rng.random_range(0..n) as u32;
                    let v = rng.random_range(0..n) as u32;
                    if delta.is_live(u) && delta.is_live(v) && !delta.has_edge(u, v) {
                        let w = (rng.random_range(1u32..9) as f64) * 0.5;
                        delta.insert_edge(u, v, w).unwrap();
                        edges.push((u, v));
                        break;
                    }
                }
            }
            1 => {
                if edges.is_empty() {
                    continue;
                }
                let i = rng.random_range(0..edges.len());
                let (u, v) = edges.swap_remove(i);
                if delta.has_edge(u, v) {
                    delta.delete_edge(u, v).unwrap();
                }
            }
            _ => {
                if edges.is_empty() {
                    continue;
                }
                let i = rng.random_range(0..edges.len());
                let (u, v) = edges[i];
                if delta.has_edge(u, v) {
                    let w = (rng.random_range(1u32..9) as f64) * 0.5;
                    delta.reweight_edge(u, v, w).unwrap();
                }
            }
        }
    }
    delta.drain_events()
}

/// One live trace step: edge batch, logged then applied in the canonical
/// run → reduced lockstep order.
fn live_edge_batch(
    store: &mut Store,
    run: &mut RothkoRun<'_>,
    reduced: &mut ReducedDelta,
    delta: &mut GraphDelta,
    rng: &mut StdRng,
    ops: usize,
) {
    let events = edge_churn(delta, rng, ops);
    store.log_edge_batch(&events).unwrap();
    let compacted = delta.compact();
    run.apply_edge_batch(compacted, &events);
    reduced.apply_edge_batch(run.partition(), &events);
}

/// One live trace step: node churn, logged then applied with the reduced
/// lockstep running on a grown partition clone before the run's remap.
fn live_node_batch(
    store: &mut Store,
    run: &mut RothkoRun<'_>,
    reduced: &mut ReducedDelta,
    delta: &mut GraphDelta,
    rng: &mut StdRng,
) -> Graph {
    let (batch, compacted) =
        qsc_bench::random_node_churn(delta, run.partition(), rng, 3, 2, 3, |r| {
            (r.random_range(1u32..9) as f64) * 0.5
        });
    store.log_node_batch(&batch).unwrap();
    let mut p = run.partition().clone();
    for &c in &batch.inserted_colors {
        p.insert_node(c);
        reduced.apply_node_insert(c);
    }
    reduced.apply_edge_batch(&p, &batch.edge_events);
    for &v in &batch.removed {
        reduced.apply_node_removal(p.color_of(v));
    }
    run.apply_node_batch(compacted.clone(), &batch);
    compacted
}

/// One live trace step: maintenance with reduced lockstep, logged.
fn live_maintain(
    store: &mut Store,
    run: &mut RothkoRun<'_>,
    reduced: &mut ReducedDelta,
    base: &Graph,
) {
    store.log_maintain().unwrap();
    run.maintain_with(|p, ev| match ev {
        PartitionEvent::Split(s) => reduced.apply_split(base, p, s),
        PartitionEvent::Merge(m) => reduced.apply_merge(m),
        PartitionEvent::NodeInsert { .. } | PartitionEvent::NodeRemove { .. } => {}
    });
}

/// Drive a full trace for one (storage, directed, seed) cell,
/// recovering and comparing after every round and once more after
/// advancing the recovered stack in lockstep with the live one.
fn roundtrip_trace(storage: StorageMode, directed: bool, seed: u64, rounds: usize, layout: Layout) {
    let dir = temp_store_dir("trace");
    let g = random_graph(70, 300, directed, seed);
    let config = RothkoConfig {
        max_colors: 36,
        target_error: 3.0,
        storage,
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    run.maintain();
    let mut reduced = ReducedDelta::new(&g, run.partition());
    // Tiny segments force rotation mid-trace so recovery crosses segment
    // boundaries; sync_every 0 fsyncs each record.
    let mut store = Store::create(
        &dir,
        StoreOptions {
            segment_bytes: 512,
            sync_every_bytes: 0,
            layout,
        },
    )
    .unwrap();
    store.checkpoint(&run, Some(&reduced)).unwrap();
    let mut delta = GraphDelta::new(g.clone());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b9);
    for round in 0..rounds {
        live_edge_batch(&mut store, &mut run, &mut reduced, &mut delta, &mut rng, 12);
        let mut base = delta.compact();
        if round % 2 == 1 {
            base = live_node_batch(&mut store, &mut run, &mut reduced, &mut delta, &mut rng);
        }
        live_maintain(&mut store, &mut run, &mut reduced, &base);
        // Mid-trace checkpoint on the middle round: recovery now starts
        // from a non-initial snapshot and replays only the newer tail.
        if round == rounds / 2 {
            store.checkpoint(&run, Some(&reduced)).unwrap();
        }
        let rec = Store::recover(&dir, None).unwrap();
        assert_eq!(
            state_bytes(&run, Some(&reduced)),
            state_bytes(&rec.run, rec.reduced.as_ref()),
            "restored state diverged (storage {storage:?}, directed {directed}, \
             round {round})"
        );
    }
    // Restored-then-advanced: one more batch + maintain applied to both
    // the live stack and a fresh recovery must stay byte-identical.
    let rec = Store::recover(&dir, None).unwrap();
    let mut rec_run = rec.run;
    let mut rec_reduced = rec.reduced.unwrap();
    let events = edge_churn(&mut delta, &mut rng, 10);
    let compacted = delta.compact();
    run.apply_edge_batch(compacted.clone(), &events);
    reduced.apply_edge_batch(run.partition(), &events);
    rec_run.apply_edge_batch(compacted.clone(), &events);
    rec_reduced.apply_edge_batch(rec_run.partition(), &events);
    run.maintain_with(|p, ev| match ev {
        PartitionEvent::Split(s) => reduced.apply_split(&compacted, p, s),
        PartitionEvent::Merge(m) => reduced.apply_merge(m),
        _ => {}
    });
    rec_run.maintain_with(|p, ev| match ev {
        PartitionEvent::Split(s) => rec_reduced.apply_split(&compacted, p, s),
        PartitionEvent::Merge(m) => rec_reduced.apply_merge(m),
        _ => {}
    });
    assert_eq!(
        state_bytes(&run, Some(&reduced)),
        state_bytes(&rec_run, Some(&rec_reduced)),
        "advanced-after-restore state diverged (storage {storage:?}, directed {directed})"
    );
    assert_eq!(
        reduced.verify_against(&run.graph().clone(), run.partition()),
        Ok(())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restored_stack_is_bit_identical_across_modes_and_threads() {
    for storage in [StorageMode::Dense, StorageMode::Sparse, StorageMode::Auto] {
        for (directed, seed) in [(false, 17u64), (true, 53)] {
            roundtrip_trace(storage, directed, seed, 3, Layout::Packed);
        }
    }
}

#[test]
fn restored_stack_is_bit_identical_from_mapped_checkpoints() {
    // Same grid as the packed sweep, but the store writes version-2
    // (mapped raw) checkpoints and recovery serves the large columns
    // zero-copy out of the map. Bit-identity must hold regardless.
    for storage in [StorageMode::Dense, StorageMode::Sparse, StorageMode::Auto] {
        for (directed, seed) in [(false, 17u64), (true, 53)] {
            roundtrip_trace(storage, directed, seed, 3, Layout::MappedRaw);
        }
    }
}

/// Mapped restore and owned restore of the same store, advanced through
/// identical churn rounds, must stay bit-identical at every step — the
/// engine must not be able to observe which memory its columns sit on.
fn mapped_vs_owned_equivalence() {
    let dir = temp_store_dir("mapped-eq");
    let g = random_graph(70, 300, false, 29);
    let config = RothkoConfig {
        max_colors: 36,
        target_error: 3.0,
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    run.maintain();
    let reduced = ReducedDelta::new(&g, run.partition());
    let mut store = Store::create(
        &dir,
        StoreOptions {
            layout: Layout::MappedRaw,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    store.checkpoint(&run, Some(&reduced)).unwrap();
    drop(store);

    // Owned restore: decode the same v2 file eagerly into owned columns.
    let path = dir.join(qsc_persist::CHECKPOINT_FILE);
    let bytes = std::fs::read(&path).unwrap();
    let owned = qsc_persist::decode_checkpoint(&bytes).unwrap();
    let mut owned_run = RothkoRun::from_snapshot(owned.graph.clone(), owned.config, &owned.run);
    let mut owned_reduced = ReducedDelta::from_snapshot(owned.reduced.as_ref().unwrap());

    // Mapped restore: recovery auto-detects v2 and borrows the columns.
    let rec = Store::recover(&dir, None).unwrap();
    let mut rec_run = rec.run;
    let mut rec_reduced = rec.reduced.unwrap();
    assert_eq!(
        state_bytes(&owned_run, Some(&owned_reduced)),
        state_bytes(&rec_run, Some(&rec_reduced)),
        "mapped and owned restores diverged before any churn"
    );

    // Three rounds of identical churn + maintenance applied to both.
    let mut delta = GraphDelta::new(rec_run.graph().clone());
    let mut rng = StdRng::seed_from_u64(0xfeed);
    for round in 0..3 {
        let events = edge_churn(&mut delta, &mut rng, 12);
        let compacted = delta.compact();
        rec_run.apply_edge_batch(compacted.clone(), &events);
        rec_reduced.apply_edge_batch(rec_run.partition(), &events);
        owned_run.apply_edge_batch(compacted.clone(), &events);
        owned_reduced.apply_edge_batch(owned_run.partition(), &events);
        rec_run.maintain_with(|p, ev| match ev {
            PartitionEvent::Split(s) => rec_reduced.apply_split(&compacted, p, s),
            PartitionEvent::Merge(m) => rec_reduced.apply_merge(m),
            _ => {}
        });
        owned_run.maintain_with(|p, ev| match ev {
            PartitionEvent::Split(s) => owned_reduced.apply_split(&compacted, p, s),
            PartitionEvent::Merge(m) => owned_reduced.apply_merge(m),
            _ => {}
        });
        assert_eq!(
            state_bytes(&owned_run, Some(&owned_reduced)),
            state_bytes(&rec_run, Some(&rec_reduced)),
            "mapped and owned stacks diverged after churn round {round}"
        );
    }
    assert_eq!(
        rec_reduced.verify_against(&rec_run.graph().clone(), rec_run.partition()),
        Ok(())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mapped_restore_matches_owned_restore_under_churn() {
    mapped_vs_owned_equivalence();
}

#[test]
fn mapped_store_queries_match_recovered_run() {
    // MappedStore's direct queries (coloring, quotient weights) must agree
    // with the fully recovered stack without assembling the engine.
    let dir = temp_store_dir("mapped-query");
    let g = random_graph(60, 260, false, 41);
    let config = RothkoConfig {
        max_colors: 24,
        target_error: 3.0,
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    run.maintain();
    let reduced = ReducedDelta::new(&g, run.partition());
    let mut store = Store::create(
        &dir,
        StoreOptions {
            layout: Layout::MappedRaw,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    store.checkpoint(&run, Some(&reduced)).unwrap();
    drop(store);

    let mapped = qsc_persist::MappedStore::open_dir(&dir).unwrap();
    assert!(mapped.is_mapped());
    assert_eq!(mapped.num_nodes(), g.num_nodes());
    let coloring = mapped.coloring().unwrap();
    let k = mapped.num_colors();
    for (v, &c) in coloring.iter().enumerate() {
        assert_eq!(c, run.partition().color_of(v as u32));
    }
    for a in 0..k {
        for b in 0..k {
            assert_eq!(
                mapped.quotient_weight(a, b).unwrap().to_bits(),
                reduced.pair_weight(a, b).to_bits(),
                "quotient weight ({a},{b}) disagrees with the live reduced instance"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_is_idempotent_and_reports_coverage() {
    // Recovering twice from the same store yields the same bytes, and a
    // store reopened at the recovered sequence keeps logging seamlessly.
    let dir = temp_store_dir("idem");
    let g = random_graph(50, 200, false, 99);
    let config = RothkoConfig {
        max_colors: 24,
        target_error: 3.0,
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    run.maintain();
    let mut reduced = ReducedDelta::new(&g, run.partition());
    let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
    store.checkpoint(&run, Some(&reduced)).unwrap();
    let mut delta = GraphDelta::new(g.clone());
    let mut rng = StdRng::seed_from_u64(7);
    live_edge_batch(&mut store, &mut run, &mut reduced, &mut delta, &mut rng, 8);
    store.sync().unwrap();
    let seq_logged = store.last_seq();
    drop(store);

    let a = Store::recover(&dir, None).unwrap();
    let b = Store::recover(&dir, None).unwrap();
    assert_eq!(a.replayed, 1);
    assert_eq!(a.last_seq, seq_logged);
    assert_eq!(
        state_bytes(&a.run, a.reduced.as_ref()),
        state_bytes(&b.run, b.reduced.as_ref())
    );
    assert_eq!(
        state_bytes(&run, Some(&reduced)),
        state_bytes(&a.run, a.reduced.as_ref())
    );

    // Resume logging from the recovered position and recover again.
    let mut store = Store::open_at(&dir, a.last_seq, StoreOptions::default()).unwrap();
    let mut run2 = a.run;
    let mut reduced2 = a.reduced.unwrap();
    live_edge_batch(
        &mut store,
        &mut run2,
        &mut reduced2,
        &mut delta,
        &mut rng,
        8,
    );
    store.sync().unwrap();
    let c = Store::recover(&dir, None).unwrap();
    assert_eq!(c.replayed, 2);
    assert_eq!(
        state_bytes(&run2, Some(&reduced2)),
        state_bytes(&c.run, c.reduced.as_ref())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coarsened_stack_checkpoints_and_restores() {
    // A merge marks the removed color's old id (now == k) dirty as a
    // column-removal marker. The checkpoint must carry that pending
    // marker through encode, decode and `ReducedDelta::from_snapshot`.
    let g = random_graph(60, 260, false, 21);
    let config = RothkoConfig {
        max_colors: 40,
        target_error: 3.0,
        coarsen: true,
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    run.maintain();
    let mut reduced = ReducedDelta::new(&g, run.partition());
    reduced.take_dirty_colors();
    // Deleting every edge makes every post-merge bound zero, so the
    // maintenance pass merges.
    let mut gd = GraphDelta::new(g.clone());
    for &(u, v, _) in &g.edges() {
        gd.delete_edge(u, v).unwrap();
    }
    let events = gd.drain_events();
    let compacted = gd.compact();
    run.apply_edge_batch(compacted.clone(), &events);
    reduced.apply_edge_batch(run.partition(), &events);
    run.maintain_with(|p, ev| match ev {
        PartitionEvent::Split(s) => reduced.apply_split(&compacted, p, s),
        PartitionEvent::Merge(m) => reduced.apply_merge(m),
        _ => {}
    });
    assert!(run.merges() > 0, "the pass must merge");
    let snap = reduced.snapshot();
    assert!(
        snap.dirty.iter().any(|&c| c as usize >= snap.k),
        "a removal marker is pending"
    );
    for layout in [Layout::Packed, Layout::MappedRaw] {
        let data = CheckpointData {
            graph: run.graph().clone(),
            config: run.config().clone(),
            run: run.snapshot(),
            reduced: Some(snap.clone()),
            wal_seq: 0,
        };
        let (bytes, _) = encode_checkpoint_with(&data, layout);
        let decoded = decode_checkpoint(&bytes)
            .unwrap_or_else(|e| panic!("{layout:?} checkpoint with a merge marker: {e}"));
        let decoded_snap = decoded.reduced.expect("reduced instance persisted");
        assert_eq!(decoded_snap, snap);
        let mut restored = ReducedDelta::from_snapshot(&decoded_snap);
        assert_eq!(restored.verify_against(&compacted, run.partition()), Ok(()));
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(
            restored.take_dirty_colors(),
            reduced.clone().take_dirty_colors()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuzzed trace schedules: random storage mode, direction, round
    /// count and churn sizes — every recovery must be
    /// byte-identical to the live stack.
    #[test]
    fn fuzzed_traces_roundtrip(
        seed in any::<u64>(),
        storage_idx in 0usize..3,
        directed in any::<bool>(),
        rounds in 1usize..4,
    ) {
        let storage = [StorageMode::Dense, StorageMode::Sparse, StorageMode::Auto][storage_idx];
        roundtrip_trace(storage, directed, seed, rounds, Layout::Packed);
    }

    /// The same fuzzed schedules against version-2 mapped checkpoints:
    /// recovery borrows the large columns from the map instead of
    /// decoding, and must remain byte-identical to the live stack.
    #[test]
    fn fuzzed_traces_roundtrip_mapped(
        seed in any::<u64>(),
        storage_idx in 0usize..3,
        directed in any::<bool>(),
        rounds in 1usize..4,
    ) {
        let storage = [StorageMode::Dense, StorageMode::Sparse, StorageMode::Auto][storage_idx];
        roundtrip_trace(storage, directed, seed, rounds, Layout::MappedRaw);
    }
}
