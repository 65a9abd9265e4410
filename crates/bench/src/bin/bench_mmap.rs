//! Zero-copy mapped checkpoints vs eager decode: the payoff of
//! [`qsc_persist::MappedStore`].
//!
//! Two claims are measured against the same version-2 (mapped raw)
//! checkpoint of the full 1M-node / 10⁷-edge rung:
//!
//! * **Open-to-first-query.** A `MappedStore` answers its first real
//!   query (the complete coloring) after O(blocks) header validation
//!   and one pass over the partition columns only — the graph CSR and
//!   accumulator planes never leave the page cache. The eager path
//!   must decode the whole file first. Bar: ≥ 50× faster. (A
//!   quotient-weight cell is also served and verified, untimed: its
//!   first touch CRCs the whole reduced matrix, a separate cost.)
//! * **Maintain throughput.** A run restored onto borrowed (mapped)
//!   columns must churn and maintain at parity with one restored onto
//!   owned columns — first write compacts the touched column to owned
//!   memory, so steady-state cost is identical. Bar: ≤ 1.15× the owned
//!   wall time, with the advanced states asserted bit-identical.
//!
//! Peak-RSS is recorded per access path by re-executing this binary as
//! a `--rss-probe` subprocess (VmHWM is monotone within a process, so
//! each probe needs its own): the mapped probe's peak resident set
//! stays bounded by the columns it touches, not the file size —
//! that is what lets a graph bigger than RAM open at all.
//!
//! Run with: `cargo run --release -p qsc-bench --bin bench_mmap
//! [-- --smoke] [--nodes N] [--seed S]`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use qsc_bench::arg_value;
use qsc_core::reduced::ReducedDelta;
use qsc_core::rothko::{Rothko, RothkoConfig, RothkoRun};
use qsc_core::StorageMode;
use qsc_graph::{generators, GraphDelta};
use qsc_persist::{
    encode_checkpoint, read_checkpoint_file, CheckpointData, Layout, MappedStore, Store,
    StoreOptions, CHECKPOINT_FILE,
};
use rand::prelude::*;

/// Canonical byte encoding of a run's state (engine only; the reduced
/// lockstep is not advanced through the churn rounds).
fn run_state_bytes(run: &RothkoRun<'_>) -> Vec<u8> {
    let mut config = run.config().clone();
    config.initial = None;
    let data = CheckpointData {
        graph: run.graph().clone(),
        config,
        run: run.snapshot(),
        reduced: None,
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

/// Child mode: perform one access path against an existing store dir,
/// then report this process's peak RSS. Exits the process.
fn rss_probe_child(mode: &str, dir: &Path) -> ! {
    match mode {
        "mapped" => {
            // Open-to-first-query working set: headers + partition
            // columns + the reduced matrix cell. The CSR stays on disk.
            let store = MappedStore::open_dir(dir).expect("probe open");
            let coloring = store.coloring().expect("probe coloring");
            black_box(&coloring);
            if store.quotient_weight(0, 0).is_ok() {
                black_box(store.quotient_weight(0, 0).unwrap());
            }
        }
        "owned" => {
            // Eager path: the whole file is decoded into owned memory
            // before the first query can be answered.
            let data = read_checkpoint_file(&dir.join(CHECKPOINT_FILE)).expect("probe decode");
            black_box(&data);
        }
        other => panic!("unknown --rss-probe mode {other:?}"),
    }
    println!(
        "peak_rss_bytes={}",
        qsc_bench::peak_rss_bytes().unwrap_or(0)
    );
    std::process::exit(0);
}

/// Re-execute this binary as an `--rss-probe` child and parse its peak
/// RSS. `None` when the probe or the RSS counter is unavailable.
fn rss_probe(mode: &str, dir: &Path) -> Option<u64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .args(["--rss-probe", mode])
        .arg(dir)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rss: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("peak_rss_bytes="))
        .and_then(|v| v.trim().parse().ok())?;
    (rss > 0).then_some(rss)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help") {
        println!("bench_mmap: zero-copy mapped checkpoint open vs eager decode restore");
        println!("  --smoke      small instance, equivalence asserts only (CI)");
        println!("  --nodes N    graph size (default 1_000_000; smoke 5_000)");
        println!("  --seed S     generator + churn seed (default 7)");
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--rss-probe") {
        let mode = args.get(i + 1).expect("--rss-probe needs a mode").clone();
        let dir = args.get(i + 2).expect("--rss-probe needs a dir").clone();
        rss_probe_child(&mode, Path::new(&dir));
    }
    if !qsc_core::mmap::MappedFile::zero_copy_eligible() {
        println!("platform cannot serve zero-copy columns (big-endian or 32-bit); skipping");
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let n: usize = arg_value(&args, "--nodes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 5_000 } else { 1_000_000 });
    let (ba_m, colors) = if smoke { (4usize, 32usize) } else { (10, 2048) };

    // Untimed page-pool warmup before each timed section; see
    // bench_persist for why (lazily-populated guest memory would bill
    // first-touch faults to whichever phase allocates first).
    let warm_pages = |bytes: usize| {
        let mut pool: Vec<u8> = vec![0u8; bytes];
        for i in (0..pool.len()).step_by(4096) {
            pool[i] = 1;
        }
        std::hint::black_box(&mut pool);
    };
    let warm_bytes: usize = if smoke { 0 } else { 6 << 30 };

    let g = generators::barabasi_albert(n, ba_m, seed);
    let m = g.num_edges();
    println!("instance: barabasi_albert n={n} m={m} seed={seed}, {colors} colors");
    let config = RothkoConfig {
        max_colors: colors,
        target_error: 0.0,
        storage: StorageMode::Auto,
        ..Default::default()
    };
    let mut run = Rothko::new(config.clone()).start(&g);
    run.maintain();
    let reduced = ReducedDelta::new(&g, run.partition());

    // One mapped-layout checkpoint, no WAL tail: both restore paths read
    // exactly this file.
    let dir = std::env::temp_dir().join(format!("qsc-bench-mmap-{}", std::process::id()));
    let mut store = Store::create(
        &dir,
        StoreOptions {
            layout: Layout::MappedRaw,
            ..StoreOptions::default()
        },
    )
    .expect("create store");
    let stats = store.checkpoint(&run, Some(&reduced)).expect("checkpoint");
    drop(store);
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    println!(
        "checkpoint: {} bytes on disk (MappedRaw layout)",
        stats.file_bytes
    );

    // ---------------- Open-to-first-query vs eager decode ----------------
    let reps = if smoke { 1 } else { 3 };
    if warm_bytes > 0 {
        warm_pages(warm_bytes);
    }
    let mut decode_s = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let data = read_checkpoint_file(&ckpt_path).expect("eager decode");
        black_box(&data);
        decode_s = decode_s.min(t.elapsed().as_secs_f64());
    }
    let mut open_s = f64::INFINITY;
    let mut mapped_coloring = Vec::new();
    let mut mapped_w00 = 0.0f64;
    for _ in 0..reps {
        let t = Instant::now();
        let mstore = MappedStore::open_dir(&dir).expect("mapped open");
        mapped_coloring = mstore.coloring().expect("mapped coloring");
        open_s = open_s.min(t.elapsed().as_secs_f64());
        // Untimed: the quotient-weight cell CRCs the whole k×k reduced
        // matrix on first touch — a different query with its own cost,
        // verified for correctness below but not part of the
        // open-to-first-query claim (which is the coloring).
        mapped_w00 = mstore
            .quotient_weight(0, 0)
            .expect("mapped quotient weight");
    }
    let open_speedup = decode_s / open_s;
    println!(
        "open-to-first-query: mapped {open_s:.4}s vs eager decode {decode_s:.4}s \
         ({open_speedup:.1}x)"
    );

    // First-query answers must match the live stack exactly.
    for (v, &c) in mapped_coloring.iter().enumerate() {
        assert_eq!(
            c,
            run.partition().color_of(v as u32),
            "mapped coloring diverged at node {v}"
        );
    }
    assert_eq!(
        mapped_w00.to_bits(),
        reduced.pair_weight(0, 0).to_bits(),
        "mapped quotient weight diverged"
    );

    // ---------------- Maintain throughput: mapped vs owned ----------------
    // Both engines restore from the same file — one borrowing the mapped
    // columns (Store::recover auto-detects v2), one decoding eagerly —
    // then advance through identical churn in lockstep.
    if warm_bytes > 0 {
        warm_pages(warm_bytes);
    }
    let owned_data = read_checkpoint_file(&ckpt_path).expect("owned restore");
    let mut owned_run = RothkoRun::from_snapshot(
        owned_data.graph.clone(),
        owned_data.config.clone(),
        &owned_data.run,
    );
    let rec = Store::recover(&dir, None).expect("mapped restore");
    let mut mapped_run = rec.run;

    let rounds = 3usize;
    let tail_ops = (m / 10_000).max(8);
    let mut delta = GraphDelta::new(owned_run.graph().clone());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let (mut owned_maintain_s, mut mapped_maintain_s) = (0.0f64, 0.0f64);
    for round in 0..rounds {
        let events = churn_batch(&mut delta, &mut rng, tail_ops);
        // Each engine gets its own pre-cloned compacted graph so neither
        // timed section pays a CSR copy the other does not.
        let compacted = delta.compact();
        let compacted_for_mapped = compacted.clone();
        let t = Instant::now();
        owned_run.apply_edge_batch(compacted, &events);
        owned_run.maintain();
        owned_maintain_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        mapped_run.apply_edge_batch(compacted_for_mapped, &events);
        mapped_run.maintain();
        mapped_maintain_s += t.elapsed().as_secs_f64();
        assert_eq!(
            run_state_bytes(&owned_run),
            run_state_bytes(&mapped_run),
            "owned and mapped stacks diverged after churn round {round}"
        );
    }
    let maintain_ratio = mapped_maintain_s / owned_maintain_s;
    println!(
        "maintain ({rounds} rounds of {tail_ops} ops): mapped {mapped_maintain_s:.3}s vs \
         owned {owned_maintain_s:.3}s ({maintain_ratio:.3}x)"
    );
    println!("advanced state: bit-identical between mapped and owned restores");

    // ---------------- Peak RSS per access path ----------------
    let mapped_rss = rss_probe("mapped", &dir);
    let owned_rss = rss_probe("owned", &dir);
    match (mapped_rss, owned_rss) {
        (Some(mr), Some(or)) => println!(
            "peak RSS: mapped probe {:.1} MB vs eager-decode probe {:.1} MB \
             (file {:.1} MB)",
            mr as f64 / 1e6,
            or as f64 / 1e6,
            stats.file_bytes as f64 / 1e6
        ),
        _ => println!("peak RSS: not measurable on this host"),
    }

    let _ = std::fs::remove_dir_all(&dir);

    if smoke {
        println!("smoke OK (first-query + churn equivalence asserts, no timing bars, no JSON)");
        return;
    }

    let json_rss = |v: Option<u64>| v.map_or("null".to_string(), |b| b.to_string());
    let row = format!(
        "{{\"summary\":\"mapped_checkpoint_vs_eager_decode\",\"graph\":\"barabasi_albert\",\"nodes\":{n},\"edges\":{m},\"seed\":{seed},\"colors\":{colors},\"checkpoint_file_bytes\":{},\"open_to_first_query_s\":{open_s:.5},\"eager_decode_s\":{decode_s:.4},\"open_speedup\":{open_speedup:.1},\"maintain_rounds\":{rounds},\"maintain_ops_per_round\":{tail_ops},\"maintain_mapped_s\":{mapped_maintain_s:.4},\"maintain_owned_s\":{owned_maintain_s:.4},\"maintain_ratio\":{maintain_ratio:.4},\"mapped_probe_peak_rss_bytes\":{},\"owned_probe_peak_rss_bytes\":{},\"bit_identical\":true,\"host_cpus\":{},\"rss_available\":{},\"bars\":{{\"open_speedup_min\":50.0,\"maintain_ratio_max\":1.15}},\"bar_enforced\":true}}",
        stats.file_bytes,
        json_rss(mapped_rss),
        json_rss(owned_rss),
        qsc_bench::host_cpus(),
        qsc_bench::rss_available()
    );
    std::fs::write("BENCH_mmap.json", row + "\n").expect("failed to write BENCH_mmap.json");
    println!(
        "wrote BENCH_mmap.json (open {open_speedup:.1}x, maintain ratio {maintain_ratio:.3}x)"
    );
    assert!(
        open_speedup >= 50.0,
        "open-to-first-query speedup {open_speedup:.1}x below the 50x bar"
    );
    assert!(
        maintain_ratio <= 1.15,
        "mapped maintain throughput {maintain_ratio:.3}x above the 1.15x bar"
    );
    if let (Some(mr), Some(or)) = (mapped_rss, owned_rss) {
        assert!(
            mr < or,
            "mapped probe peak RSS ({mr} B) not below eager-decode probe ({or} B): \
             working set is not page-cache-bounded"
        );
    }
}
