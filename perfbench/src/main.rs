//! One benchmark for the quasi-stable coloring stack: the paper's
//! analytics pipeline, the dynamic write path and restart, broken down by
//! crate.
//!
//! ```text
//! qsc-perfbench --workload <paper_sweep|churn_wal|restart> --seed <n>
//!               --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones ([`END_TO_END`]), measured with
//! tracing off; with `--trace 1` they are the per-layer ones
//! ([`PER_LAYER`]). The line before it (`report …`) records the host, a
//! calibration time, the counts and the failures. The process exits
//! nonzero when any output check or the determinism guard failed.
//! `--tiny` runs small inputs, for the benchmark's own tests.

mod churn;
mod harness;
mod host;
mod restart;
mod seeds;
mod sweep;
mod trace;

use harness::{median, peak_rss_mb, percentile, Outcome, Settings};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const WORKLOADS: &[&str] = &["paper_sweep", "churn_wal", "restart"];

/// End-to-end metrics: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit. Names ending in `_s` are the self
/// time of the span of the same name (without the suffix).
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.mutate_s", "s"),
    ("graph.compact_s", "s"),
    ("graph.compact_arcs", "count"),
    ("graph.compact_useful_ratio", "ratio"),
    ("core.build_s", "s"),
    ("core.refine_s", "s"),
    ("core.splits", "count"),
    ("core.reduced_s", "s"),
    ("core.apply_s", "s"),
    ("core.maintain_s", "s"),
    ("core.maintain_events", "count"),
    ("core.resident_mb", "MiB"),
    ("flow.solve_s", "s"),
    ("flow.relabels", "count"),
    ("flow.err", "ratio"),
    ("lp.graph_s", "s"),
    ("lp.reduced_s", "s"),
    ("lp.solve_s", "s"),
    ("lp.pivots", "count"),
    ("lp.warm_hit_ratio", "ratio"),
    ("lp.err", "ratio"),
    ("centrality.estimate_s", "s"),
    ("centrality.sources", "count"),
    ("centrality.err", "ratio"),
    ("persist.append_s", "s"),
    ("persist.sync_s", "s"),
    ("persist.checkpoint_s", "s"),
    ("persist.wal_bytes", "bytes"),
    ("persist.checkpoint_bytes", "bytes"),
    ("persist.write_bytes_per_event", "bytes/event"),
    ("persist.recover_packed_s", "s"),
    ("persist.recover_mapped_s", "s"),
    ("persist.replayed", "count"),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ops_per_s", "1/s"),
];

fn usage() -> ! {
    eprintln!(
        "usage: qsc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Settings {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload").unwrap_or_else(|| usage()).to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        eprintln!("unknown workload {workload:?}");
        usage();
    }
    let seed = value("--seed").map_or(Some(seeds::DEFAULT), |s| s.parse().ok());
    let seconds = value("--seconds").map_or(Some(10.0), |s| s.parse::<f64>().ok());
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    let (Some(seed), Some(seconds)) = (seed, seconds) else {
        usage()
    };
    let work_dir =
        std::path::Path::new(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
    Settings {
        workload,
        seed,
        seconds,
        trace,
        tiny: args.iter().any(|a| a == "--tiny"),
        work_dir,
    }
}

fn ops_per_s(latencies: &[f64]) -> f64 {
    latencies.len() as f64 / latencies.iter().sum::<f64>()
}

/// Per-layer metrics of a traced run.
fn per_layer(outcome: &Outcome) -> BTreeMap<&'static str, f64> {
    let meter = &outcome.meter;
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let wall: f64 = meter.traced.iter().sum();
    let mut attributed = 0.0;
    for (span, seconds) in trace::self_seconds() {
        if span == "op" {
            continue; // the benchmark's own glue: unattributed
        }
        let name = PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .find(|n| n.strip_suffix("_s") == Some(span))
            .unwrap_or_else(|| panic!("span {span} has no per-layer metric"));
        m.insert(name, seconds);
        attributed += seconds;
    }
    for (&name, &v) in &outcome.counts {
        assert!(m.contains_key(name), "count {name} has no per-layer metric");
        m.insert(name, v);
    }
    m.insert(
        "core.resident_mb",
        outcome.resident_bytes / (1024.0 * 1024.0),
    );
    m.insert("unattributed_s", wall - attributed);
    m.insert("trace.wall_s", wall);
    m.insert(
        "trace.overhead_ops_per_s",
        ops_per_s(&meter.traced) - ops_per_s(&meter.untraced),
    );
    m
}

fn end_to_end(outcome: &Outcome) -> BTreeMap<&'static str, f64> {
    let meter = &outcome.meter;
    let lat = &meter.untraced;
    BTreeMap::from([
        ("setup_s", median(&meter.setup_seconds)),
        ("ops_per_s", ops_per_s(lat)),
        ("op_p50_ms", 1e3 * percentile(lat, 0.5)),
        ("op_p90_ms", 1e3 * percentile(lat, 0.9)),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

fn metrics_json(values: &BTreeMap<&'static str, f64>, spec: &[(&str, &str)]) -> String {
    let mut out = String::from("{");
    for (i, &(name, unit)) in spec.iter().enumerate() {
        let v = values[name];
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn main() {
    let settings = parse_args();
    // Engine defaults only: no thread override from the environment.
    std::env::remove_var("QSC_THREADS");
    let calibration_s = host::calibrate();
    std::fs::create_dir_all(&settings.work_dir).expect("create the work directory");
    let outcome = match settings.workload.as_str() {
        "paper_sweep" => sweep::run(&settings),
        "churn_wal" => churn::run(&settings),
        "restart" => restart::run(&settings),
        _ => unreachable!("workload validated by parse_args"),
    };
    let _ = std::fs::remove_dir_all(&settings.work_dir);
    let _ = std::fs::remove_dir(".perfbench_work");

    let meter = &outcome.meter;
    let (values, spec) = if settings.trace {
        (per_layer(&outcome), PER_LAYER)
    } else {
        (end_to_end(&outcome), END_TO_END)
    };
    let finite = values.values().all(|v| v.is_finite());
    if !finite {
        eprintln!("a metric is not a finite number: {values:?}");
    }
    let correct = finite && meter.failed == 0 && meter.failures.is_empty();
    for f in &meter.failures {
        eprintln!("check failed: {f}");
    }
    let lat = &meter.untraced;
    let p90 = percentile(lat, 0.9);
    let beyond_p90 = lat.iter().filter(|&&l| l > p90).count();
    let counts: Vec<String> = outcome
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v:?}"))
        .collect();
    println!(
        "report {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"tiny\":{},\"host\":{},\"setup_samples_s\":{:?},\"untraced_ops\":{},\"traced_ops\":{},\"samples_beyond_p90\":{beyond_p90},\"op_fail_ratio\":{:?},\"counts\":{{{}}}}}",
        settings.workload,
        settings.seed,
        settings.seconds,
        settings.trace,
        settings.tiny,
        host::record_json(calibration_s),
        meter.setup_seconds,
        lat.len(),
        meter.traced.len(),
        meter.failed as f64 / meter.attempted as f64,
        counts.join(","),
    );
    let metrics = metrics_json(&values, spec);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        meter.attempted, meter.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
