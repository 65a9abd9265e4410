//! Warm restart vs cold rebuild: the payoff of columnar checkpoints.
//!
//! The cold path is what every restart paid before persistence existed:
//! build the CSR from the raw edge list, run the full greedy refinement
//! to the color budget, and construct the reduced instance. The warm
//! path is [`qsc_persist::Store::recover`]: decode the checkpoint
//! columns straight into `Graph`/`Partition`/`IncrementalDegrees`/
//! `ReducedDelta` state and replay a small WAL tail through the public
//! API. Both end in the *same* state — asserted bit-for-bit by
//! re-encoding both stacks and comparing bytes, so the speedup never
//! comes at the cost of fidelity.
//!
//! `BENCH_persist.json` records cold/warm wall times with the headline
//! speedup (≥ 20× bar at the full 1M-node / 10⁷-edge rung, refined to a
//! 2048-color budget — the rebuild every restart used to pay), checkpoint
//! encode/decode/restore throughput, on-disk file sizes (checkpoint +
//! WAL segments) and the columnar compression ratio versus natural
//! column bytes (≥ 2× bar; delta+varint offsets and byte-shuffled
//! weights carry it), plus `rss_available` so a null RSS reads as "not
//! measurable on this host". An untimed warmup pass touches the page
//! pool before each timed section so hosts with lazily-populated VM
//! memory don't bill first-touch faults to either side of the
//! comparison.
//!
//! Run with: `cargo run --release -p qsc-bench --bin bench_persist
//! [-- --smoke] [--nodes N] [--seed S]`.

use std::time::Instant;

use qsc_bench::arg_value;
use qsc_core::partition::PartitionEvent;
use qsc_core::reduced::ReducedDelta;
use qsc_core::rothko::{Rothko, RothkoConfig, RothkoRun};
use qsc_core::StorageMode;
use qsc_graph::{generators, GraphBuilder, GraphDelta};
use qsc_persist::{
    encode_checkpoint, encode_checkpoint_with, CheckpointData, Layout, Store, StoreOptions,
};
use rand::prelude::*;

/// Canonical byte encoding of a stack's state, for bit-identity checks.
fn state_bytes(run: &RothkoRun<'_>, reduced: &ReducedDelta) -> Vec<u8> {
    let mut config = run.config().clone();
    config.initial = None;
    let data = CheckpointData {
        graph: run.graph().clone(),
        config,
        run: run.snapshot(),
        reduced: Some(reduced.snapshot()),
        wal_seq: 0,
    };
    encode_checkpoint(&data).0
}

/// Insert `ops` fresh half-integer edges, returning the drained events.
fn churn_batch(
    delta: &mut GraphDelta,
    rng: &mut StdRng,
    ops: usize,
) -> Vec<qsc_graph::delta::EdgeEvent> {
    let n = delta.num_nodes();
    for _ in 0..ops {
        for _ in 0..20 {
            let u = rng.random_range(0..n) as u32;
            let v = rng.random_range(0..n) as u32;
            if u != v && !delta.has_edge(u, v) {
                let w = (rng.random_range(1u32..9) as f64) * 0.5;
                delta.insert_edge(u, v, w).unwrap();
                break;
            }
        }
    }
    delta.drain_events()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help") {
        println!("bench_persist: warm restart (checkpoint + WAL replay) vs cold rebuild");
        println!("  --smoke      small instance, bit-identity asserts only (CI)");
        println!("  --nodes N    graph size (default 1_000_000; smoke 5_000)");
        println!("  --seed S     generator + churn seed (default 7)");
        println!(
            "  --layout L   checkpoint layout for the store: packed | mapped (default packed)"
        );
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let layout = match arg_value(&args, "--layout").as_deref() {
        None | Some("packed") => Layout::Packed,
        Some("mapped") => Layout::MappedRaw,
        Some(other) => panic!("unknown --layout {other:?} (expected packed | mapped)"),
    };
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let n: usize = arg_value(&args, "--nodes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 5_000 } else { 1_000_000 });
    let (ba_m, colors) = if smoke { (4usize, 32usize) } else { (10, 2048) };

    // Untimed page-pool warmup, run immediately before every timed
    // section. Virtualized hosts that populate guest memory lazily
    // (e.g. VM snapshots restored on demand) serve the *first* touch of
    // each fresh page at microseconds per page — ~6 s/GB observed —
    // which would otherwise be billed arbitrarily to whichever phase
    // allocates first. Touching (and freeing) a pool larger than the
    // next section's fresh-allocation footprint right before starting
    // its clock keeps every timed section measuring the algorithms,
    // not the hypervisor; applying it identically to the cold and warm
    // sides keeps the comparison fair.
    let warm_pages = |bytes: usize| {
        let mut pool: Vec<u8> = vec![0u8; bytes];
        for i in (0..pool.len()).step_by(4096) {
            pool[i] = 1;
        }
        std::hint::black_box(&mut pool);
    };
    let warm_bytes: usize = if smoke { 0 } else { 6 << 30 };

    // The raw material both paths start from: an edge list. Generation
    // itself is uncounted; CSR construction is part of the cold rebuild
    // (a real cold start pays it, the warm path reads CSR columns).
    let edge_list: Vec<(u32, u32, f64)> =
        generators::barabasi_albert(n, ba_m, seed).edges().to_vec();
    let m = edge_list.len();
    println!("instance: barabasi_albert n={n} m={m} seed={seed}, {colors} colors");

    let config = RothkoConfig {
        max_colors: colors,
        target_error: 0.0,
        storage: StorageMode::Auto,
        ..Default::default()
    };

    // ---------------- Cold: full rebuild from the edge list ----------------
    if warm_bytes > 0 {
        warm_pages(warm_bytes);
    }
    let t0 = Instant::now();
    let mut b = GraphBuilder::new_undirected(n);
    for &(u, v, w) in &edge_list {
        b.add_edge(u, v, w);
    }
    let g = b.build();
    let mut run = Rothko::new(config.clone()).start(&g);
    run.maintain();
    let mut reduced = ReducedDelta::new(&g, run.partition());
    let cold_s = t0.elapsed().as_secs_f64();
    println!("cold rebuild: {cold_s:.3}s (CSR + refinement to {colors} colors + reduced instance)");

    // ---------------- Checkpoint + a small WAL tail ----------------
    let dir = std::env::temp_dir().join(format!("qsc-bench-persist-{}", std::process::id()));
    let mut store = Store::create(
        &dir,
        StoreOptions {
            layout,
            ..StoreOptions::default()
        },
    )
    .expect("create store");
    if warm_bytes > 0 {
        warm_pages(warm_bytes);
    }
    let t1 = Instant::now();
    let stats = store.checkpoint(&run, Some(&reduced)).expect("checkpoint");
    let encode_s = t1.elapsed().as_secs_f64();
    println!(
        "checkpoint: {} bytes on disk ({layout:?} layout), {} natural column bytes \
         ({:.2}x compression), {encode_s:.3}s",
        stats.file_bytes,
        stats.natural_bytes,
        stats.compression_ratio()
    );

    // Honest per-layout numbers: encode the same state in both layouts
    // so the JSON reports each one's real footprint — the mapped layout
    // pins the big columns raw and *loses* compression on them; that
    // trade is the point, not something to hide.
    let snapshot_data = CheckpointData {
        graph: g.clone(),
        config: run.config().clone(),
        run: run.snapshot(),
        reduced: Some(reduced.snapshot()),
        wal_seq: store.last_seq(),
    };
    let layout_stats = [Layout::Packed, Layout::MappedRaw].map(|l| {
        let t = Instant::now();
        let (bytes, s) = encode_checkpoint_with(&snapshot_data, l);
        let secs = t.elapsed().as_secs_f64();
        println!(
            "layout {l:?}: {} bytes, {:.2}x compression, encode {secs:.3}s",
            bytes.len(),
            s.compression_ratio()
        );
        (bytes.len(), s.compression_ratio(), secs)
    });

    // A realistic restart tail: a couple of logged batches + maintenance.
    let mut delta = GraphDelta::new(g.clone());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let tail_ops = (m / 10_000).max(8);
    for _ in 0..2 {
        let events = churn_batch(&mut delta, &mut rng, tail_ops);
        store.log_edge_batch(&events).expect("log");
        let compacted = delta.compact();
        run.apply_edge_batch(compacted, &events);
        reduced.apply_edge_batch(run.partition(), &events);
    }
    store.log_maintain().expect("log");
    let base = delta.base().clone();
    run.maintain_with(|p, ev| match ev {
        PartitionEvent::Split(s) => reduced.apply_split(&base, p, s),
        PartitionEvent::Merge(mg) => reduced.apply_merge(mg),
        PartitionEvent::NodeInsert { .. } | PartitionEvent::NodeRemove { .. } => {}
    });
    store.sync().expect("sync");
    let wal_bytes: u64 = std::fs::read_dir(&dir)
        .expect("read store dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
        .filter_map(|e| e.metadata().ok().map(|md| md.len()))
        .sum();

    // ---------------- Warm: recover from the store ----------------
    if warm_bytes > 0 {
        warm_pages(warm_bytes);
    }
    let t2 = Instant::now();
    let rec = Store::recover(&dir, None).expect("recover");
    let warm_s = t2.elapsed().as_secs_f64();
    let speedup = cold_s / warm_s;
    println!(
        "warm restart: {warm_s:.3}s ({} WAL records replayed) — {speedup:.1}x vs cold",
        rec.replayed
    );

    // The headline claim: restored state is bit-identical to the live
    // never-persisted stack. Non-negotiable in every mode.
    let rec_reduced = rec.reduced.expect("reduced restored");
    assert_eq!(
        state_bytes(&run, &reduced),
        state_bytes(&rec.run, &rec_reduced),
        "restored state is not bit-identical to the live stack"
    );
    println!("restored state: bit-identical to the never-persisted run");

    let _ = std::fs::remove_dir_all(&dir);

    if smoke {
        assert!(
            layout_stats[0].1 > 1.0,
            "columnar encoding failed to beat natural bytes"
        );
        println!("smoke OK (bit-identity + compression asserts, no timing bars, no JSON)");
        return;
    }

    let decode_mb_s = stats.file_bytes as f64 / 1e6 / warm_s;
    let encode_mb_s = stats.natural_bytes as f64 / 1e6 / encode_s;
    let layouts_json = format!(
        "{{\"packed\":{{\"file_bytes\":{},\"compression_ratio\":{:.3},\"encode_s\":{:.4}}},\"mapped_raw\":{{\"file_bytes\":{},\"compression_ratio\":{:.3},\"encode_s\":{:.4}}}}}",
        layout_stats[0].0,
        layout_stats[0].1,
        layout_stats[0].2,
        layout_stats[1].0,
        layout_stats[1].1,
        layout_stats[1].2
    );
    let layout_name = match layout {
        Layout::Packed => "packed",
        Layout::MappedRaw => "mapped_raw",
    };
    let row = format!(
        "{{\"summary\":\"warm_restart_vs_cold_rebuild\",\"graph\":\"barabasi_albert\",\"nodes\":{n},\"edges\":{m},\"seed\":{seed},\"colors\":{colors},\"layout\":\"{layout_name}\",\"cold_rebuild_s\":{cold_s:.4},\"warm_restart_s\":{warm_s:.4},\"speedup\":{speedup:.2},\"checkpoint_file_bytes\":{},\"wal_file_bytes\":{wal_bytes},\"natural_column_bytes\":{},\"compression_ratio\":{:.3},\"layouts\":{layouts_json},\"encode_s\":{encode_s:.4},\"encode_mb_per_s\":{encode_mb_s:.1},\"restore_mb_per_s\":{decode_mb_s:.1},\"wal_records_replayed\":{},\"bit_identical\":true,\"host_cpus\":{},\"rss_available\":{},\"peak_rss_bytes\":{},\"bars\":{{\"speedup_min\":20.0,\"compression_min\":2.0}},\"bar_enforced\":true}}",
        stats.file_bytes,
        stats.natural_bytes,
        stats.compression_ratio(),
        rec.replayed,
        qsc_bench::host_cpus(),
        qsc_bench::rss_available(),
        qsc_bench::peak_rss_json()
    );
    std::fs::write("BENCH_persist.json", row + "\n").expect("failed to write BENCH_persist.json");
    println!(
        "wrote BENCH_persist.json (speedup {speedup:.1}x, compression {:.2}x)",
        stats.compression_ratio()
    );
    assert!(
        speedup >= 20.0,
        "warm restart speedup {speedup:.1}x below the 20x bar"
    );
    // The compression bar is a property of the packed layout; the mapped
    // layout intentionally pins the big columns raw.
    assert!(
        layout_stats[0].1 >= 2.0,
        "packed compression ratio {:.2}x below the 2x bar",
        layout_stats[0].1
    );
}
