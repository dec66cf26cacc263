//! # dtdinfer-obs — observability substrate for the inference pipeline
//!
//! The paper's claims are quantitative (bounded rewrite derivations, repair
//! rules firing only on non-representative samples, CRX's O(n) sample
//! appetite), so the pipeline needs counters and timings to prove them —
//! and every future performance PR needs a baseline to be measured
//! against. This crate provides that substrate with zero dependencies:
//!
//! * a [`metrics`] registry of named **counters**, **gauges**, and
//!   **histograms** (p50/p95/max) with a stable JSON serialization;
//! * lightweight structured [`trace`] spans (scoped, monotonic timings)
//!   and key/value events, tagged with the recording thread's id and
//!   collected into a thread-safe in-memory recorder;
//! * a [`chrome`] exporter rendering a trace as Chrome trace-event JSON
//!   (loadable in Perfetto / `chrome://tracing`).
//!
//! ## No-op by default
//!
//! Nothing is recorded until [`enable`] is called. Every instrumentation
//! entry point begins with a single relaxed atomic load
//! ([`is_enabled`]); when recording is off that load is the *entire*
//! cost, so hot paths (2T-INF absorption, rewrite steps) can stay
//! instrumented permanently. The CLI turns recording on only when
//! `--metrics`, `--trace`, or `-v` is given; see `DESIGN.md`.
//!
//! ## Example
//!
//! ```
//! dtdinfer_obs::enable(true, true);
//! dtdinfer_obs::reset();
//! {
//!     let _span = dtdinfer_obs::span("learn");
//!     dtdinfer_obs::count("words", 3);
//!     dtdinfer_obs::observe("soa.edges", 17);
//! }
//! let snap = dtdinfer_obs::snapshot();
//! assert_eq!(snap.counters["words"], 3);
//! assert!(snap.json().contains("\"soa.edges\""));
//! assert_eq!(dtdinfer_obs::take_trace().len(), 1);
//! dtdinfer_obs::disable();
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod chrome;
pub mod flightrec;
pub mod json;
pub mod metrics;
pub mod openmetrics;
pub mod profile;
pub mod timeseries;
pub mod trace;

pub use chrome::chrome_trace;
pub use metrics::{HistogramSummary, MetricsSnapshot};
pub use trace::{current_tid, SpanGuard, TraceEntry};

/// Serializes tests that touch the process-global registry, recorder, or
/// recording state. Every such test (across this crate's modules) must
/// hold this lock, or the parallel test runner interleaves them.
#[cfg(test)]
pub(crate) fn global_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(std::sync::Mutex::default)
        .lock()
        .expect("obs global test lock poisoned")
}

use std::sync::atomic::{AtomicU8, Ordering};

/// Recording-state bit: the metrics registry is live.
const METRICS: u8 = 1;
/// Recording-state bit: the span/event recorder is live.
const TRACE: u8 = 2;

/// The global recording state. A single relaxed load of this atomic is the
/// full cost of every instrumentation call while recording is disabled.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Turns recording on. `metrics` enables the counter/histogram registry,
/// `trace` the span/event recorder; both may be set independently.
pub fn enable(metrics: bool, trace: bool) {
    let bits = if metrics { METRICS } else { 0 } | if trace { TRACE } else { 0 };
    STATE.store(bits, Ordering::Relaxed);
}

/// Turns all recording off (the default state).
pub fn disable() {
    STATE.store(0, Ordering::Relaxed);
}

/// Whether any recording is on — the one-atomic-load fast-path gate.
#[inline(always)]
pub fn is_enabled() -> bool {
    STATE.load(Ordering::Relaxed) != 0
}

/// Whether the metrics registry is recording.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    STATE.load(Ordering::Relaxed) & METRICS != 0
}

/// Whether the span/event recorder is recording.
#[inline(always)]
pub fn trace_enabled() -> bool {
    STATE.load(Ordering::Relaxed) & TRACE != 0
}

/// Adds `n` to the named counter. No-op unless metrics are enabled.
#[inline]
pub fn count(name: &str, n: u64) {
    if metrics_enabled() {
        metrics::registry().count(name, n);
    }
}

/// Adds `n` to the counter `prefix.label` — for per-rule / per-engine
/// breakdowns where the label is dynamic. No-op unless metrics are
/// enabled (so the formatting cost is only paid when recording).
#[inline]
pub fn count_labeled(prefix: &str, label: &str, n: u64) {
    if metrics_enabled() {
        metrics::registry().count(&format!("{prefix}.{label}"), n);
    }
}

/// Adds `n` to the counter series `name{labels}`. Labels are a small
/// static set of `(key, value)` pairs — `route`, `status_class`,
/// `session` — rendered into a canonical series key (sorted by key, see
/// [`metrics::series_key`]). Keep label cardinality bounded: every
/// distinct value set is its own series. No-op unless metrics are
/// enabled, so the rendering cost is only paid when recording.
#[inline]
pub fn count_with(name: &str, labels: &[(&str, &str)], n: u64) {
    if metrics_enabled() {
        metrics::registry().count_with(name, labels, n);
    }
}

/// Sets the gauge series `name{labels}` to `value` (last write wins).
/// See [`count_with`] for the label model.
#[inline]
pub fn gauge_with(name: &str, labels: &[(&str, &str)], value: u64) {
    if metrics_enabled() {
        metrics::registry().gauge_with(name, labels, value);
    }
}

/// Records one observation in the histogram series `name{labels}`.
/// See [`count_with`] for the label model.
#[inline]
pub fn observe_with(name: &str, labels: &[(&str, &str)], value: u64) {
    if metrics_enabled() {
        metrics::registry().observe_with(name, labels, value);
    }
}

/// Records one observation in the named histogram.
#[inline]
pub fn observe(name: &str, value: u64) {
    if metrics_enabled() {
        metrics::registry().observe(name, value);
    }
}

/// Sets the named gauge to `value` (last write wins). For point-in-time
/// facts — per-worker busy time, queue depths — where summing across
/// recordings would be meaningless. No-op unless metrics are enabled.
#[inline]
pub fn gauge(name: &str, value: u64) {
    if metrics_enabled() {
        metrics::registry().gauge(name, value);
    }
}

/// Opens a scoped span: the guard measures monotonic wall-clock time from
/// construction to drop. On drop the duration lands in the histogram
/// `<name>.ns` (when metrics are on) and as a span entry in the trace
/// recorder (when tracing is on). Cost when disabled: one atomic load.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::open(name)
}

/// Records a key/value event in the trace log (when tracing is enabled)
/// and in the flight-recorder ring (when [`flightrec`] is enabled); each
/// sink is gated independently. Build the field values lazily at the
/// call site when they are expensive
/// (`if dtdinfer_obs::trace_enabled() { ... }`).
#[inline]
pub fn event(name: &'static str, fields: &[(&str, String)]) {
    if trace_enabled() {
        trace::recorder().event(name, fields);
    }
    flightrec::record_event(name, fields);
}

/// Clears all recorded metrics and trace entries (recording state is
/// unchanged). Call before a measured section to get a clean report.
pub fn reset() {
    metrics::registry().reset();
    trace::recorder().reset();
}

/// A point-in-time copy of the metrics registry.
pub fn snapshot() -> MetricsSnapshot {
    metrics::registry().snapshot()
}

/// Drains and returns the recorded trace, oldest first.
pub fn take_trace() -> Vec<TraceEntry> {
    trace::recorder().take()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry and state are process-global, so exercise everything in
    // one test to avoid cross-test interference under the parallel runner.
    #[test]
    fn end_to_end_recording_and_gating() {
        let _g = global_test_lock();
        disable();
        count("gated", 1);
        gauge("gated.g", 1);
        observe("gated.h", 1);
        {
            let _s = span("gated.span");
        }
        enable(true, true);
        reset();
        let snap = snapshot();
        assert!(snap.counters.is_empty(), "disabled calls must not record");
        assert!(snap.gauges.is_empty(), "disabled gauges must not record");
        assert!(take_trace().is_empty());

        count("words", 2);
        count("words", 3);
        count_labeled("rule", "disjunction", 1);
        gauge("depth", 9);
        gauge("depth", 4);
        observe("sizes", 10);
        observe("sizes", 20);
        {
            let _s = span("stage");
            event("fired", &[("k", "2".to_owned())]);
        }
        let snap = snapshot();
        assert_eq!(snap.counters["words"], 5);
        assert_eq!(snap.counters["rule.disjunction"], 1);
        assert_eq!(snap.gauges["depth"], 4, "gauges are last-write-wins");
        let h = &snap.histograms["sizes"];
        assert_eq!((h.count, h.max), (2, 20));
        assert!(snap.histograms.contains_key("stage.ns"));

        let trace = take_trace();
        assert_eq!(trace.len(), 2, "{trace:?}");
        match &trace[1] {
            TraceEntry::Span { name, .. } => assert_eq!(*name, "stage"),
            other => panic!("span last (closed after event): {other:?}"),
        }
        match &trace[0] {
            TraceEntry::Event { name, fields, .. } => {
                assert_eq!(*name, "fired");
                assert_eq!(fields[0], ("k".to_owned(), "2".to_owned()));
            }
            other => panic!("event first: {other:?}"),
        }
        disable();
    }
}
