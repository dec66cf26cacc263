//! Time-series snapshots: a background sampler copies the metrics
//! registry on a fixed interval into a bounded ring buffer, so a long
//! ingest reports docs/s, in-flight bytes, and queue depth *over time*
//! instead of one end-of-run dump.
//!
//! The sampler also watches a set of **progress counters** (by default
//! the engine's document counter): if none of them moves for
//! [`SamplerConfig::stall_after`] consecutive intervals while sampling
//! is live, a stall is recorded (and warned once per episode on stderr)
//! — the "worker pool stopped making progress" detector the ROADMAP's
//! scaling work needs.
//!
//! Everything here is pull-based and bounded: the ring holds at most
//! `capacity` points (oldest dropped first, with an exact drop count),
//! and the sampler thread wakes only on its interval or on stop.
//!
//! ## Indefinite runs (`dtdinfer serve`)
//!
//! The sampler was built for finite CLI commands, but the bound makes it
//! safe under a daemon that runs for weeks: memory is O(`capacity`)
//! forever, the ring always holds the *newest* window of history, and
//! `dropped` counts every evicted point exactly (kept + dropped =
//! samples taken), so a consumer can tell how much history scrolled
//! away. On graceful shutdown the serve CLI path calls [`Sampler::stop`],
//! which joins the thread and takes one final sample; on `kill -9` the
//! thread dies with the process and nothing is leaked — the series is
//! observability, not state, and is rebuilt on restart. Covered by the
//! `ring_cap` integration tests.

use crate::json::write_key;
use crate::metrics::MetricsSnapshot;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default ring capacity: at the default 100 ms interval this is about
/// two minutes of history.
pub const DEFAULT_CAPACITY: usize = 1024;

/// One sampled point: when it was taken (relative to sampler start) and
/// the full registry snapshot at that moment.
#[derive(Debug, Clone)]
pub struct TsPoint {
    /// Offset from sampler start, in nanoseconds (monotonic clock).
    pub at_ns: u64,
    /// The registry at that moment.
    pub snapshot: MetricsSnapshot,
}

/// The bounded sample ring plus stall accounting.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Sampling interval in milliseconds (echoed for consumers).
    pub interval_ms: u64,
    /// Retained points, oldest first. At most the configured capacity.
    pub points: Vec<TsPoint>,
    /// Points dropped from the front once the ring filled.
    pub dropped: u64,
    /// Stall episodes detected (progress counters flat for the
    /// configured number of consecutive intervals).
    pub stalls: u64,
}

impl TimeSeries {
    /// Per-interval rate of a counter between consecutive points, as
    /// `(at_ns, delta_per_second)` pairs — e.g. docs/s over time from
    /// `engine.documents`. Counters are monotone, so a negative delta
    /// (after a registry reset) clamps to 0.
    pub fn rates(&self, counter: &str) -> Vec<(u64, f64)> {
        self.points
            .windows(2)
            .map(|w| {
                let (a, b) = (&w[0], &w[1]);
                let va = a.snapshot.counters.get(counter).copied().unwrap_or(0);
                let vb = b.snapshot.counters.get(counter).copied().unwrap_or(0);
                let dt_s = b.at_ns.saturating_sub(a.at_ns) as f64 / 1e9;
                let rate = if dt_s > 0.0 {
                    vb.saturating_sub(va) as f64 / dt_s
                } else {
                    0.0
                };
                (b.at_ns, rate)
            })
            .collect()
    }

    /// Stable JSON form: header fields, then one object per point with
    /// millisecond offsets and the point's counters and gauges.
    /// Histograms are omitted per point (their summaries are already
    /// cumulative; the final `--metrics` snapshot carries them).
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"interval_ms\":{},\"dropped\":{},\"stalls\":{},",
            self.interval_ms, self.dropped, self.stalls
        ));
        write_key(&mut out, "points");
        out.push('[');
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n{{\"at_ms\":{},", p.at_ns / 1_000_000));
            write_key(&mut out, "counters");
            out.push('{');
            for (j, (name, value)) in p.snapshot.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_key(&mut out, name);
                out.push_str(&value.to_string());
            }
            out.push_str("},");
            write_key(&mut out, "gauges");
            out.push('{');
            for (j, (name, value)) in p.snapshot.gauges.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_key(&mut out, name);
                out.push_str(&value.to_string());
            }
            out.push_str("}}");
        }
        out.push_str("\n]}");
        out
    }
}

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Time between snapshots.
    pub interval: Duration,
    /// Ring capacity (oldest points dropped beyond it; 0 becomes 1).
    pub capacity: usize,
    /// Counters watched for progress. A stall is declared only when
    /// *every* watched counter is flat — one busy counter means the
    /// pipeline is alive.
    pub watch: Vec<String>,
    /// Consecutive flat intervals before a stall is declared.
    pub stall_after: u32,
    /// Whether a declared stall also warns on stderr (once per episode).
    pub warn_on_stall: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            interval: Duration::from_millis(100),
            capacity: DEFAULT_CAPACITY,
            watch: vec!["engine.documents".to_owned(), "fuzz.cases".to_owned()],
            stall_after: 20,
            warn_on_stall: true,
        }
    }
}

/// Shared state between the sampler thread and its handle.
struct Shared {
    inner: Mutex<SharedInner>,
    wake: Condvar,
}

struct SharedInner {
    ring: VecDeque<TsPoint>,
    dropped: u64,
    stalls: u64,
    stop: bool,
}

/// Handle to a running sampler. Dropping it without [`Sampler::stop`]
/// detaches the thread (it exits on its next tick once the handle's
/// shared state says stop — drop sets it too).
pub struct Sampler {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
    interval: Duration,
    capacity: usize,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("interval", &self.interval)
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// Starts a background sampler over the global registry. The caller is
/// expected to have enabled metrics recording; the sampler itself only
/// reads.
pub fn start(config: SamplerConfig) -> Sampler {
    let capacity = config.capacity.max(1);
    let shared = Arc::new(Shared {
        inner: Mutex::new(SharedInner {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
            stalls: 0,
            stop: false,
        }),
        wake: Condvar::new(),
    });
    let thread_shared = Arc::clone(&shared);
    let interval = config.interval.max(Duration::from_millis(1));
    let thread = std::thread::Builder::new()
        .name("obs-timeseries".to_owned())
        .spawn(move || sampler_loop(&thread_shared, &config, capacity))
        .expect("spawn timeseries sampler");
    Sampler {
        shared,
        thread: Some(thread),
        interval,
        capacity,
    }
}

fn sampler_loop(shared: &Shared, config: &SamplerConfig, capacity: usize) {
    let epoch = Instant::now();
    let interval = config.interval.max(Duration::from_millis(1));
    let mut last_watch: Option<Vec<u64>> = None;
    let mut flat_intervals = 0u32;
    let mut warned_this_episode = false;
    loop {
        // Take one sample.
        let snapshot = crate::metrics::registry().snapshot();
        let at_ns = u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let watch_now: Vec<u64> = config
            .watch
            .iter()
            .map(|name| snapshot.counters.get(name).copied().unwrap_or(0))
            .collect();
        // An empty watch list means "no progress expectation": never
        // stall. (A serve daemon legitimately idles between requests.)
        let moved = config.watch.is_empty()
            || match &last_watch {
                Some(prev) => prev != &watch_now,
                // The first sample has nothing to compare against.
                None => true,
            };
        let mut stalled_now = false;
        if moved {
            flat_intervals = 0;
            warned_this_episode = false;
        } else {
            flat_intervals += 1;
            if flat_intervals == config.stall_after {
                stalled_now = true;
            }
        }
        last_watch = Some(watch_now);
        {
            let mut inner = shared.inner.lock().expect("timeseries ring poisoned");
            if inner.ring.len() == capacity {
                inner.ring.pop_front();
                inner.dropped += 1;
            }
            inner.ring.push_back(TsPoint { at_ns, snapshot });
            if stalled_now {
                inner.stalls += 1;
            }
        }
        if stalled_now && config.warn_on_stall && !warned_this_episode {
            warned_this_episode = true;
            eprintln!(
                "dtdinfer-obs: no progress on watched counters for {} interval(s) (~{} ms) — \
                 worker pool may be stalled",
                config.stall_after,
                u128::from(config.stall_after) * interval.as_millis()
            );
        }
        // Sleep until the next tick or a stop request.
        let inner = shared.inner.lock().expect("timeseries ring poisoned");
        if inner.stop {
            return;
        }
        let (inner, _) = shared
            .wake
            .wait_timeout(inner, interval)
            .expect("timeseries ring poisoned");
        if inner.stop {
            return;
        }
    }
}

impl Sampler {
    /// Stops the sampler, takes one final snapshot so the series always
    /// covers the end of the run, and returns the collected series.
    pub fn stop(mut self) -> TimeSeries {
        self.signal_stop();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("timeseries sampler panicked");
        }
        let mut inner = self.shared.inner.lock().expect("timeseries ring poisoned");
        // Final point: the state at stop time, so short runs (shorter
        // than one interval) still produce a non-empty series.
        let last_at = inner.ring.back().map_or(0, |p| p.at_ns);
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(TsPoint {
            at_ns: last_at.saturating_add(1),
            snapshot: crate::metrics::registry().snapshot(),
        });
        TimeSeries {
            interval_ms: u64::try_from(self.interval.as_millis()).unwrap_or(u64::MAX),
            points: inner.ring.drain(..).collect(),
            dropped: inner.dropped,
            stalls: inner.stalls,
        }
    }

    /// A point-in-time copy of the collected series *without* stopping
    /// the sampler — the serve daemon's `GET /debug/timeseries` payload.
    /// The ring keeps filling; `kept + dropped` still accounts for every
    /// sample taken up to the peek.
    pub fn peek(&self) -> TimeSeries {
        let inner = self.shared.inner.lock().expect("timeseries ring poisoned");
        TimeSeries {
            interval_ms: u64::try_from(self.interval.as_millis()).unwrap_or(u64::MAX),
            points: inner.ring.iter().cloned().collect(),
            dropped: inner.dropped,
            stalls: inner.stalls,
        }
    }

    fn signal_stop(&self) {
        let mut inner = self.shared.inner.lock().expect("timeseries ring poisoned");
        inner.stop = true;
        drop(inner);
        self.shared.wake.notify_all();
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.signal_stop();
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(at_ns: u64, docs: u64) -> TsPoint {
        let mut snapshot = MetricsSnapshot::default();
        snapshot
            .counters
            .insert("engine.documents".to_owned(), docs);
        snapshot
            .gauges
            .insert("engine.queue.remaining".to_owned(), 100 - docs.min(100));
        TsPoint { at_ns, snapshot }
    }

    #[test]
    fn rates_are_deltas_over_time() {
        let ts = TimeSeries {
            interval_ms: 100,
            points: vec![
                point(0, 0),
                point(1_000_000_000, 50),
                point(2_000_000_000, 150),
            ],
            dropped: 0,
            stalls: 0,
        };
        let rates = ts.rates("engine.documents");
        assert_eq!(rates.len(), 2);
        assert!((rates[0].1 - 50.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[1].1 - 100.0).abs() < 1e-6, "{rates:?}");
        // Unknown counters rate at zero rather than panic.
        assert!(ts.rates("absent").iter().all(|(_, r)| *r == 0.0));
    }

    #[test]
    fn json_is_parseable_and_carries_points() {
        let ts = TimeSeries {
            interval_ms: 100,
            points: vec![point(0, 0), point(100_000_000, 10)],
            dropped: 3,
            stalls: 1,
        };
        let text = ts.json();
        let v = crate::json::Value::parse(&text).expect(&text);
        assert_eq!(v.get("interval_ms").unwrap().as_u64(), Some(100));
        assert_eq!(v.get("dropped").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("stalls").unwrap().as_u64(), Some(1));
        let points = v.get("points").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[1]
                .get("counters")
                .unwrap()
                .get("engine.documents")
                .unwrap()
                .as_u64(),
            Some(10)
        );
        assert_eq!(points[1].get("at_ms").unwrap().as_u64(), Some(100));
    }

    // Live-sampler tests share the global registry, so both scenarios run
    // inside one test body to avoid cross-test interference.
    #[test]
    fn sampler_collects_bounded_points_and_detects_stalls() {
        let _g = crate::global_test_lock();
        crate::enable(true, false);
        crate::reset();
        // A deliberately tiny ring so the bound is exercised quickly.
        let sampler = start(SamplerConfig {
            interval: Duration::from_millis(2),
            capacity: 4,
            watch: vec!["progress".to_owned()],
            stall_after: 3,
            warn_on_stall: false,
        });
        for _ in 0..5 {
            crate::count("progress", 1);
            std::thread::sleep(Duration::from_millis(4));
        }
        // Now stop making progress long enough to trip the detector.
        std::thread::sleep(Duration::from_millis(40));
        // A live peek does not disturb the sampler.
        let live = sampler.peek();
        assert!(!live.points.is_empty(), "peek returns current history");
        crate::json::Value::parse(&live.json()).expect("peeked series serializes");
        let ts = sampler.stop();
        crate::disable();
        assert!(!ts.points.is_empty());
        assert!(
            ts.points.len() <= 4,
            "ring bound: {} points",
            ts.points.len()
        );
        assert!(ts.dropped > 0, "enough ticks to overflow the ring");
        assert!(ts.stalls >= 1, "flat progress must be detected: {ts:?}");
        // Offsets are strictly increasing and counters monotone.
        for w in ts.points.windows(2) {
            assert!(w[0].at_ns < w[1].at_ns);
            let a = w[0].snapshot.counters.get("progress").copied().unwrap_or(0);
            let b = w[1].snapshot.counters.get("progress").copied().unwrap_or(0);
            assert!(a <= b, "counter went backwards: {a} -> {b}");
        }
        let text = ts.json();
        crate::json::Value::parse(&text).expect(&text);
    }

    #[test]
    fn stopping_immediately_still_yields_a_final_point() {
        let sampler = start(SamplerConfig {
            interval: Duration::from_secs(3600),
            capacity: 8,
            watch: Vec::new(),
            stall_after: 2,
            warn_on_stall: false,
        });
        let ts = sampler.stop();
        assert!(
            !ts.points.is_empty(),
            "stop() appends a final snapshot even before the first tick"
        );
        assert_eq!(ts.stalls, 0, "an empty watch list never stalls");
    }
}
