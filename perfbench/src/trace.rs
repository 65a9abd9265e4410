//! Span recorder for the traced run.
//!
//! Every call the benchmark makes into a workspace crate is wrapped in
//! [`span`], named `<crate>.<phase>` (for example `core.refine`). While
//! tracing is on, each span is recorded with its start, end and parent
//! span; when an operation's root span closes, the recorded spans are
//! folded into per-name *self time*: a span's duration minus the time its
//! direct children cover. While tracing is off, [`span`] calls the closure
//! and records nothing.
//!
//! The recorder is thread-local: every workload runs on one thread.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
    /// Self seconds per span name, folded from closed operations.
    self_seconds: BTreeMap<&'static str, f64>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Fold the spans of one finished operation into `self_seconds`.
    fn fold(&mut self) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let self_ns = (s.end - s.start).saturating_sub(covered);
            *self.self_seconds.entry(s.name).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
        self.spans.clear();
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        self_seconds: BTreeMap::new(),
    });
}

/// Turn recording on or off for the spans that follow.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

/// Open a span called `name`; returns its handle for [`exit`] (`None`
/// while tracing is off).
pub fn enter(name: &'static str) -> Option<usize> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let idx = r.spans.len();
        let parent = r.open.last().copied();
        let start = r.now();
        r.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        r.open.push(idx);
        Some(idx)
    })
}

/// Close the innermost open span, the one [`enter`] returned `handle`
/// for. Closing a root span folds the operation's spans.
pub fn exit(handle: Option<usize>) {
    let Some(idx) = handle else { return };
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end = r.now();
        r.spans[idx].end = end;
        debug_assert_eq!(r.open.last(), Some(&idx), "spans must nest");
        r.open.pop();
        if r.open.is_empty() {
            r.fold();
        }
    });
}

/// Run `f` inside a span called `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let handle = enter(name);
    let out = f();
    exit(handle);
    out
}

/// Self seconds per span name accumulated so far.
pub fn self_seconds() -> BTreeMap<&'static str, f64> {
    RECORDER.with(|r| r.borrow().self_seconds.clone())
}
