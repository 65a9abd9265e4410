//! The host record every result carries, so numbers from different
//! machines can be told apart from regressions.

use std::hint::black_box;
use std::time::Instant;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Seconds taken by a fixed single-threaded integer loop (2^26 rounds of
/// xorshift), the host's speed reference.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    for _ in 0..(1u64 << 26) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The host record as a JSON object, with the calibration time.
pub fn record_json(calibration_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"cpu\":\"{}\",\"nproc\":{nproc},\"kernel\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"source_digest\":\"{}\",\"calibration_s\":{calibration_s}}}",
        escape(&cpu_model()),
        escape(&kernel()),
        escape(env!("PERFBENCH_RUSTC")),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_SOURCE_DIGEST"),
    )
}
