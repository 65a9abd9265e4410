//! Incremental refinement engine vs. from-scratch recomputation, recorded.
//!
//! Times `Rothko::run` (incremental engine, `O(touched)` per split) against
//! `Rothko::run_reference` (degree matrices rebuilt from the graph every
//! step, the seed's original behaviour) on Barabási–Albert graphs, and
//! writes the measurements to `BENCH_rothko.json`. The headline row is the
//! 200-color run on the 10k-node graph. Rows follow the shared reporting
//! convention: best-of-3 with the per-round raw timings kept, plus a
//! summary line carrying `host_cpus`/`bar_enforced` (the ≥5× bar compares
//! two serial code paths, so it is enforced on every host).
//!
//! Run with: `cargo run --release -p qsc-bench --bin bench_rothko_incremental
//! [-- --smoke] [--batch B]` — `--smoke` runs a small instance and
//! asserts only that both paths agree (no file, no bar; CI); `--batch` sets
//! the witness splits per synchronization round for both paths (they share
//! selection, so the comparison stays apples-to-apples). The default 1
//! keeps the recorded headline semantics.

use qsc_bench::{arg_value, host_cpus, measure_rounds};
use qsc_core::rothko::{Rothko, RothkoConfig};
use qsc_graph::generators;

struct Row {
    nodes: usize,
    edges: usize,
    colors: usize,
    incremental: qsc_bench::Measurement<f64>,
    scratch: qsc_bench::Measurement<f64>,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scratch.best() / self.incremental.best()
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"graph\":\"barabasi_albert\",\"nodes\":{},\"edges\":{},\"colors\":{},\"incremental_seconds\":{:.6},\"incremental_rounds\":{},\"from_scratch_seconds\":{:.6},\"from_scratch_rounds\":{},\"speedup\":{:.2}}}",
            self.nodes,
            self.edges,
            self.colors,
            self.incremental.best(),
            self.incremental.rounds_json(),
            self.scratch.best(),
            self.scratch.rounds_json(),
            self.speedup()
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help") {
        println!("bench_rothko_incremental: incremental engine vs from-scratch reference");
        println!("  --smoke      small instance, agreement asserts only (CI; no file, no bar)");
        println!("  --batch B    witness splits per synchronization round (default 1)");
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let batch: usize = arg_value(&args, "--batch")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let rows_spec: &[(usize, usize, usize)] = if smoke {
        &[(2_000, 64, 1)]
    } else {
        &[(2_000, 64, 3), (10_000, 200, 3)]
    };
    let mut rows = Vec::new();
    for &(n, colors, reps) in rows_spec {
        let g = generators::barabasi_albert(n, 4, 7);
        let config = RothkoConfig::with_max_colors(colors).batch(batch);

        let incremental = measure_rounds(reps, || {
            let c = Rothko::new(config.clone()).run(&g);
            assert_eq!(c.partition.num_colors(), colors);
            c.max_q_error
        });
        let scratch = measure_rounds(reps, || {
            let c = Rothko::new(config.clone()).run_reference(&g);
            assert_eq!(c.partition.num_colors(), colors);
            c.max_q_error
        });
        assert_eq!(
            incremental.value.to_bits(),
            scratch.value.to_bits(),
            "incremental and from-scratch paths disagree on the final q-error"
        );

        let row = Row {
            nodes: n,
            edges: g.num_edges(),
            colors,
            incremental,
            scratch,
        };
        println!(
            "n={} m={} colors={}: incremental {:.4}s, from-scratch {:.4}s, speedup {:.1}x",
            row.nodes,
            row.edges,
            row.colors,
            row.incremental.best(),
            row.scratch.best(),
            row.speedup()
        );
        rows.push(row);
    }

    if smoke {
        println!("smoke OK: both paths agree (no JSON, no bar)");
        return;
    }
    if batch != 1 {
        // The recorded JSON and its acceptance bar are pinned to the
        // default configuration; exploratory runs only print.
        println!("non-default batch: BENCH_rothko.json left untouched, no bar");
        return;
    }
    let mut json: Vec<String> = rows.iter().map(Row::to_json).collect();
    let headline = rows.last().expect("at least one row");
    // Incremental vs from-scratch compares two serial code paths, so the
    // bar holds regardless of core count — always enforced.
    json.push(format!(
        "{{\"summary\":\"incremental_vs_from_scratch\",\"host_cpus\":{},\"peak_rss_bytes\":{},\"headline_speedup\":{:.2},\"bar_enforced\":true}}",
        host_cpus(),
        qsc_bench::peak_rss_json(),
        headline.speedup()
    ));
    std::fs::write("BENCH_rothko.json", json.join("\n") + "\n")
        .expect("failed to write BENCH_rothko.json");
    println!("wrote BENCH_rothko.json");

    assert!(
        headline.speedup() >= 5.0,
        "incremental engine speedup {:.1}x below the 5x acceptance bar",
        headline.speedup()
    );
}
