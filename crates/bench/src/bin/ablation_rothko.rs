//! Ablation study for the Rothko design choices called out in Sec. 5.2:
//!
//! * split threshold: arithmetic vs. geometric mean (the paper argues the
//!   geometric mean yields balanced splits on scale-free graphs);
//! * witness weights `(α, β)`: unweighted (max-flow setting), source-weighted
//!   (LP setting), fully weighted (centrality setting).
//!
//! For each configuration and dataset the binary reports the maximum and
//! mean q-error reached at a fixed color budget, and the size of the largest
//! color (a proxy for split balance).
//!
//! Run with: `cargo run --release -p qsc-bench --bin ablation_rothko
//! [-- --batch B]` — `--batch` applies batched witness rounds (B splits
//! per synchronization point; this *changes* the greedy order, so it is
//! itself an ablation axis).

use qsc_bench::{arg_value, render_table, timed};
use qsc_core::q_error::q_error_report;
use qsc_core::rothko::{Rothko, RothkoConfig, SplitMean};
use qsc_datasets::Scale;

const BUDGET: usize = 64;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help") {
        println!("ablation_rothko: Rothko split-rule and witness-weight ablation");
        println!("  --batch B    witness splits per synchronization round (default 1)");
        return;
    }
    let batch: usize = arg_value(&args, "--batch")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    println!("Ablation — Rothko split rule and witness weights (color budget {BUDGET})");
    if batch != 1 {
        println!("(batch = {batch})");
    }
    println!();
    let tuned = |config: RothkoConfig| config.batch(batch);
    let configs: Vec<(&str, RothkoConfig)> = vec![
        (
            "arithmetic, α=0 β=0",
            tuned(RothkoConfig::with_max_colors(BUDGET)),
        ),
        (
            "geometric,  α=0 β=0",
            tuned(RothkoConfig::with_max_colors(BUDGET).split_mean(SplitMean::Geometric)),
        ),
        (
            "arithmetic, α=1 β=0",
            tuned(RothkoConfig::with_max_colors(BUDGET).weights(1.0, 0.0)),
        ),
        (
            "geometric,  α=1 β=1",
            tuned(
                RothkoConfig::with_max_colors(BUDGET)
                    .split_mean(SplitMean::Geometric)
                    .weights(1.0, 1.0),
            ),
        ),
    ];

    let mut rows = Vec::new();
    for dataset in ["openflights", "facebook", "epinions"] {
        let g = qsc_datasets::load_graph(dataset, Scale::Small).unwrap();
        for (label, config) in &configs {
            let (coloring, secs) = timed(|| Rothko::new(config.clone()).run(&g));
            let report = q_error_report(&g, &coloring.partition);
            let largest = coloring.partition.sizes().into_iter().max().unwrap_or(0);
            rows.push(vec![
                dataset.to_string(),
                label.to_string(),
                format!("{:.1}", report.max_q),
                format!("{:.2}", report.mean_q),
                largest.to_string(),
                format!("{:.3}s", secs),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "dataset",
                "configuration",
                "max q",
                "mean q",
                "largest color",
                "time"
            ],
            &rows
        )
    );
    println!("expected: the geometric split keeps the largest color far smaller on the");
    println!("scale-free datasets, at equal or lower q-error for the same color budget.");
}
