//! The measured loop shared by every workload, plus the numbers it
//! reports.
//!
//! A workload is set up several times (the median set-up time is
//! reported), then runs operations in a closed loop — the next operation
//! starts when the previous one returns — until `--seconds` have passed
//! *and* at least [`Meter::min_ops`] operations ran, so that the 90th
//! percentile always has at least ten samples beyond it.
//!
//! In a traced run (`--trace 1`) every other operation is traced: the
//! traced half yields the per-layer self times, and comparing its
//! operations per second with the untraced half's gives the tracing
//! overhead. End-to-end numbers come from untraced runs only.

use crate::trace;
use std::collections::BTreeMap;
use std::time::Instant;

/// Command-line settings of one benchmark process.
#[derive(Clone, Debug)]
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs for the benchmark's own tests: every workload and
    /// every check in seconds.
    pub tiny: bool,
    /// Scratch directory for stores, inside the working directory.
    pub work_dir: std::path::PathBuf,
}

impl Settings {
    /// How many times set-up runs (its median is `setup_s`).
    pub fn setup_repeats(&self) -> usize {
        if self.tiny {
            1
        } else {
            3
        }
    }
}

/// Deterministic work counters: name → count. Counters are only fed
/// during a workload's counting window (a fixed prefix of its
/// operations), so they repeat exactly across runs with the same seed
/// however many operations the time limit allows.
pub type Counts = BTreeMap<&'static str, f64>;

pub fn add(counts: &mut Counts, name: &'static str, v: f64) {
    *counts.entry(name).or_insert(0.0) += v;
}

/// Times set-up repetitions and operations, and tallies failures.
pub struct Meter {
    seconds: f64,
    trace: bool,
    min_ops: usize,
    started: Option<Instant>,
    /// The operation in flight: start, root span, whether traced.
    current: Option<(Instant, Option<usize>, bool)>,
    pub setup_seconds: Vec<f64>,
    /// Latency of every untraced operation.
    pub untraced: Vec<f64>,
    /// Latency of every traced operation.
    pub traced: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failure messages: the first few failed output checks, and any
    /// failed determinism guard or whole-run check. Any entry makes the
    /// run incorrect.
    pub failures: Vec<String>,
}

impl Meter {
    pub fn new(settings: &Settings, min_ops: usize) -> Self {
        Meter {
            seconds: settings.seconds,
            trace: settings.trace,
            min_ops,
            started: None,
            current: None,
            setup_seconds: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Run set-up `repeats` times (at least once), recording each time,
    /// and return the last repetition's state. Each repetition's state
    /// is released before the next one is built.
    pub fn setup<R>(&mut self, repeats: usize, mut f: impl FnMut() -> R) -> R {
        let mut last = None;
        for _ in 0..repeats.max(1) {
            drop(last.take());
            let start = Instant::now();
            let out = f();
            self.setup_seconds.push(start.elapsed().as_secs_f64());
            last = Some(out);
        }
        last.expect("set-up ran at least once")
    }

    /// Whether the measured loop should go on. Workloads ask only between
    /// whole periods of their operations (a sweep pass, a churn period, a
    /// packed/mapped pair), so every run has the same mix of operations.
    pub fn keep_going(&mut self) -> bool {
        let started = *self.started.get_or_insert_with(Instant::now);
        (self.attempted as usize) < self.min_ops || started.elapsed().as_secs_f64() < self.seconds
    }

    /// Start timing an operation (under the `op` root span). Every
    /// `begin` is closed by one [`Self::end`].
    pub fn begin(&mut self) {
        // Trace a pseudo-random half of the operations, so the traced half
        // does not alias with a workload's periodic structure.
        let traced = self.trace && crate::seeds::derive(self.attempted, "trace") & 1 == 1;
        trace::set_enabled(traced);
        self.current = Some((Instant::now(), trace::enter("op"), traced));
    }

    /// Stop timing the operation [`Self::begin`] started.
    pub fn end(&mut self) {
        let (start, root, traced) = self.current.take().expect("end() follows begin()");
        trace::exit(root);
        let elapsed = start.elapsed().as_secs_f64();
        trace::set_enabled(false);
        self.attempted += 1;
        if traced {
            self.traced.push(elapsed);
        } else {
            self.untraced.push(elapsed);
        }
    }

    /// Record the outcome of the last operation's output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Mark every attempted operation failed (a check that covers the
    /// whole run failed).
    pub fn fail_all(&mut self, what: String) {
        self.failed = self.attempted;
        self.failures.push(what);
    }
}

/// What a workload hands back to `main` for reporting.
pub struct Outcome {
    pub meter: Meter,
    /// Counts of the counting window, and the ratios derived from them
    /// (accuracy, bytes per event): deterministic for a seed.
    pub counts: Counts,
    /// Engine resident bytes at the end of the run.
    pub resident_bytes: f64,
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
