//! Warm-started sweep pipeline vs. per-budget cold pipeline, recorded.
//!
//! Runs a Fig. 7-style color-budget sweep two ways and compares end-to-end
//! wall time and results:
//!
//! * **cold** — the pre-sweep pipeline: for every budget, a fresh Rothko
//!   coloring, a from-scratch reduced instance, and a cold solve
//!   (`approximate_max_flow` / `reduce_with_rothko` + `simplex::solve`);
//! * **warm** — the sweep pipeline (`sweep_max_flow` / `sweep_lp`): one
//!   refinement checkpointed per budget, reductions patched per split,
//!   solvers resumed from the previous budget's solution.
//!
//! The flow instance uses quarter-integer capacities, so all arithmetic is
//! exact and the warm/cold flow values must be **bit-identical**; LP
//! objectives must agree within `1e-9` relative (the reduced problems are
//! equal up to color numbering and float associativity). Violations abort.
//!
//! Full mode writes `BENCH_sweep.json` and asserts the ≥3× speedup bar on
//! the 10k-node flow headline; `--smoke` runs tiny instances (equality
//! checks only, no file, no bar) for CI.
//!
//! Run with: `cargo run --release -p qsc-bench --bin bench_sweep [-- --smoke]
//! [--batch B]` — `--batch` is accepted for symmetry with the other drivers
//! but only `1` is valid here: the warm/cold equivalence this benchmark
//! asserts is defined by the strict greedy split order, which batched
//! rounds intentionally relax.

use qsc_bench::{host_cpus, measure_rounds, Measurement};
use qsc_flow::reduce::{approximate_max_flow, FlowApproxConfig};
use qsc_flow::sweep::sweep_max_flow;
use qsc_flow::FlowNetwork;
use qsc_graph::GraphBuilder;
use qsc_lp::reduce::{reduce_with_rothko, LpColoringConfig, LpReductionVariant};
use qsc_lp::sweep::sweep_lp;
use qsc_lp::{simplex, LpProblem};

/// The benchmark's budget ladder: the Fig. 7 budgets (`DEFAULT_BUDGETS`)
/// refined to the Fig. 8-style curve resolution the sweep pipeline makes
/// affordable — every point costs the cold path a full recolor + rebuild +
/// resolve, while the warm path pays only the delta from the previous
/// budget.
const BUDGETS: &[usize] = &[5, 10, 15, 20, 30, 40, 50, 60, 80, 100, 120, 150];

struct Row {
    task: &'static str,
    instance: String,
    nodes: usize,
    budgets: usize,
    cold: Measurement<Vec<f64>>,
    warm_seconds: f64,
    warm_rounds: String,
    max_rel_diff: f64,
    bit_identical: bool,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.cold.best() / self.warm_seconds
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"task\":\"{}\",\"instance\":\"{}\",\"nodes\":{},\"budgets\":{},\"cold_seconds\":{:.6},\"cold_rounds\":{},\"warm_seconds\":{:.6},\"warm_rounds\":{},\"speedup\":{:.2},\"max_rel_diff\":{:.3e},\"bit_identical\":{}}}",
            self.task,
            self.instance,
            self.nodes,
            self.budgets,
            self.cold.best(),
            self.cold.rounds_json(),
            self.warm_seconds,
            self.warm_rounds,
            self.speedup(),
            self.max_rel_diff,
            self.bit_identical
        )
    }

    fn print(&self) {
        println!(
            "{:8} {:24} n={:6} cold {:.4}s warm {:.4}s speedup {:.1}x (max rel diff {:.1e}, bit-identical: {})",
            self.task,
            self.instance,
            self.nodes,
            self.cold.best(),
            self.warm_seconds,
            self.speedup(),
            self.max_rel_diff,
            self.bit_identical
        );
    }
}

/// A vision-style grid network with capacities snapped to quarter-integers
/// (exactly representable, so flow sums are order-independent and warm vs.
/// cold values can be compared bit-for-bit).
fn quarter_integer_grid(width: usize, height: usize, seed: u64) -> FlowNetwork {
    let (net, _) = qsc_flow::generators::grid_flow_network(width, height, 3.0, 0.25, seed);
    let mut b = GraphBuilder::new_directed(net.num_nodes());
    for (u, v, w) in net.graph.arcs() {
        b.add_edge(u, v, ((w * 4.0).round()).max(1.0) / 4.0);
    }
    FlowNetwork::new(b.build(), net.source, net.sink)
}

fn flow_row(width: usize, height: usize, budgets: &[usize], reps: usize) -> Row {
    let net = quarter_integer_grid(width, height, 42);
    let cold = measure_rounds(reps, || {
        budgets
            .iter()
            .map(|&b| approximate_max_flow(&net, &FlowApproxConfig::with_max_colors(b)).value)
            .collect::<Vec<f64>>()
    });
    let warm = measure_rounds(reps, || sweep_max_flow(&net, budgets, 0.0));
    let points = &warm.value;
    let mut max_rel_diff = 0.0f64;
    let mut bit_identical = true;
    for (point, &cold) in points.iter().zip(cold.value.iter()) {
        let diff = (point.value - cold).abs();
        max_rel_diff = max_rel_diff.max(diff / (1.0 + cold.abs()));
        if point.value.to_bits() != cold.to_bits() {
            bit_identical = false;
        }
    }
    assert!(
        bit_identical,
        "quarter-integer capacities must give bit-identical warm/cold flow values"
    );
    Row {
        task: "maxflow",
        instance: format!("grid-{width}x{height}-qint"),
        nodes: net.num_nodes(),
        budgets: budgets.len(),
        cold,
        warm_seconds: warm.best(),
        warm_rounds: warm.rounds_json(),
        max_rel_diff,
        bit_identical,
    }
}

fn lp_row(lp: &LpProblem, label: &str, budgets: &[usize], reps: usize) -> Row {
    let cold = measure_rounds(reps, || {
        budgets
            .iter()
            .map(|&b| {
                let reduced = reduce_with_rothko(
                    lp,
                    &LpColoringConfig::with_max_colors(b),
                    LpReductionVariant::SqrtNormalized,
                );
                simplex::solve(&reduced.problem).objective
            })
            .collect::<Vec<f64>>()
    });
    let warm = measure_rounds(reps, || {
        sweep_lp(
            lp,
            budgets,
            &LpColoringConfig::with_max_colors(usize::MAX),
            LpReductionVariant::SqrtNormalized,
        )
    });
    let points = &warm.value;
    let mut max_rel_diff = 0.0f64;
    let mut bit_identical = true;
    for (point, &cold) in points.iter().zip(cold.value.iter()) {
        let rel = (point.objective - cold).abs() / (1.0 + cold.abs());
        max_rel_diff = max_rel_diff.max(rel);
        if point.objective.to_bits() != cold.to_bits() {
            bit_identical = false;
        }
        assert!(
            rel <= 1e-9,
            "LP objectives diverged at budget {}: warm {} vs cold {}",
            point.budget,
            point.objective,
            cold
        );
    }
    Row {
        task: "lp",
        instance: label.to_string(),
        nodes: lp.num_rows() + lp.num_cols(),
        budgets: budgets.len(),
        cold,
        warm_seconds: warm.best(),
        warm_rounds: warm.rounds_json(),
        max_rel_diff,
        bit_identical,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help") {
        println!("bench_sweep: warm-started sweep pipeline vs per-budget cold pipeline");
        println!("  --smoke      tiny instances, equality checks only (CI)");
        println!("  --batch B    accepted for driver symmetry; must be 1 (see module docs)");
        return;
    }
    if let Some(b) = qsc_bench::arg_value(&args, "--batch") {
        assert_eq!(
            b, "1",
            "bench_sweep requires batch=1: its warm/cold equivalence is defined by the strict greedy order"
        );
    }
    let smoke = args.iter().any(|a| a == "--smoke");

    if smoke {
        println!("bench_sweep --smoke: tiny instances, equality checks only");
        let flow = flow_row(12, 12, &[4, 6, 9, 14], 1);
        flow.print();
        let lp = qsc_datasets::load_lp("qap15", qsc_datasets::Scale::Small).unwrap();
        let lp_result = lp_row(&lp, "qap15-small", &[6, 10, 16], 1);
        lp_result.print();
        println!("smoke OK: warm sweep matches the cold path on both tasks");
        return;
    }

    // Headline: Fig. 7-style budget sweep on a 10k-node grid instance.
    let flow = flow_row(100, 100, BUDGETS, 3);
    flow.print();

    let lp = qsc_lp::generators::block_lp(&qsc_lp::generators::BlockLpSpec {
        name: "sweep-bench-block".into(),
        block_rows: 8,
        block_cols: 6,
        rows_per_block: 40,
        cols_per_block: 30,
        density: 0.35,
        noise: 0.05,
        seed: 17,
    });
    let lp_result = lp_row(&lp, "block-320x180", BUDGETS, 3);
    lp_result.print();

    let rows = [flow, lp_result];
    let mut json: Vec<String> = rows.iter().map(Row::to_json).collect();
    let headline = &rows[0];
    // Warm vs cold compares two serial pipelines, so the bar holds on any
    // host — always enforced.
    json.push(format!(
        "{{\"summary\":\"warm_vs_cold\",\"host_cpus\":{},\"peak_rss_bytes\":{},\"headline_speedup\":{:.2},\"bar_enforced\":true}}",
        host_cpus(),
        qsc_bench::peak_rss_json(),
        headline.speedup()
    ));
    std::fs::write("BENCH_sweep.json", json.join("\n") + "\n")
        .expect("failed to write BENCH_sweep.json");
    println!("wrote BENCH_sweep.json");

    assert!(
        headline.speedup() >= 3.0,
        "warm sweep speedup {:.1}x below the 3x acceptance bar",
        headline.speedup()
    );
}
