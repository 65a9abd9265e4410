//! The benchmark's own tests: every workload, with every check, on tiny
//! inputs (`--tiny`), in seconds.

use std::process::Command;

const WORKLOADS: &[&str] = &["paper_sweep", "churn_wal", "restart"];

/// One run's result line, as `(name, value, unit)` triples.
struct Result {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

/// Run the benchmark binary and parse the last line of its output.
fn run(workload: &str, seed: u64, trace: u8) -> Result {
    let out = Command::new(env!("CARGO_BIN_EXE_qsc-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", &trace.to_string(), "--tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line"))
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + key.len()
        + 4;
    let rest = &line[start..];
    &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
}

fn parse(line: &str) -> Result {
    let metrics_at = line.find("\"metrics\": {").expect("metrics present") + 12;
    let mut metrics = Vec::new();
    for entry in line[metrics_at..].split("}, ") {
        let name_start = entry.find('"').expect("metric name") + 1;
        let name_end = name_start + entry[name_start..].find('"').expect("name ends");
        let value = field(entry, "value").parse().expect("numeric value");
        let unit = field(entry, "unit").trim_matches(|c| c == '"' || c == '}');
        metrics.push((
            entry[name_start..name_end].to_string(),
            value,
            unit.to_string(),
        ));
    }
    Result {
        correct: field(line, "correct") == "true",
        attempted: field(line, "attempted").parse().expect("attempted"),
        failed: field(line, "failed").parse().expect("failed"),
        metrics,
    }
}

/// Metric names of one section of `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<String> {
    let spec = include_str!("../../BENCHMARK.json");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..start + spec[start..].find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name ends")].to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_checks() {
    for workload in WORKLOADS {
        for trace in [0, 1] {
            let r = run(workload, 0, trace);
            assert!(r.correct, "{workload} trace {trace}: not correct");
            assert!(r.attempted >= 1, "{workload}: no operation attempted");
            assert_eq!(r.failed, 0, "{workload} trace {trace}: failed operations");
            assert!(r.metrics.iter().all(|(_, v, _)| v.is_finite()));
        }
        let names = |trace| -> Vec<String> {
            run(workload, 0, trace)
                .metrics
                .into_iter()
                .map(|m| m.0)
                .collect()
        };
        assert_eq!(
            names(0),
            declared("end_to_end"),
            "{workload}: end-to-end metrics"
        );
        assert_eq!(
            names(1),
            declared("per_layer"),
            "{workload}: per-layer metrics"
        );
    }
}

/// Every per-layer count repeats exactly across runs with the same seed.
#[test]
fn counts_repeat_across_runs() {
    let counts = |r: Result| -> Vec<(String, f64)> {
        r.metrics
            .into_iter()
            .filter(|(name, _, unit)| {
                unit != "s" && unit != "1/s" && !name.ends_with("resident_mb")
            })
            .map(|(name, v, _)| (name, v))
            .collect()
    };
    for workload in WORKLOADS {
        let first = counts(run(workload, 5, 1));
        assert!(first.iter().any(|&(_, v)| v > 0.0), "{workload}: no counts");
        assert_eq!(
            first,
            counts(run(workload, 5, 1)),
            "{workload}: counts differ"
        );
    }
}

/// On every traced run the layers' self times plus `unattributed_s` add
/// up to the traced wall time.
#[test]
fn self_times_add_up_to_the_traced_wall_time() {
    for workload in WORKLOADS {
        let r = run(workload, 0, 1);
        let get = |n: &str| r.metrics.iter().find(|m| m.0 == n).expect("metric").1;
        let layers: f64 = r
            .metrics
            .iter()
            .filter(|(name, _, unit)| unit == "s" && name != "trace.wall_s")
            .map(|m| m.1)
            .sum();
        let wall = get("trace.wall_s");
        assert!(wall > 0.0);
        assert!(
            (layers - wall).abs() <= 1e-9 * wall.max(1.0),
            "{workload}: {layers} vs {wall}"
        );
        assert!(get("unattributed_s") >= 0.0);
    }
}
