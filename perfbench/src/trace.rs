//! An in-memory span recorder for the scenario replays, written out as
//! Chrome trace-event JSON (loadable in Perfetto).
//!
//! Every span has a name whose first dot-separated part is its layer
//! (`xml.extract` belongs to `xml`), a start and end on one monotonic
//! clock, a parent, and the id of the request it belongs to. A root span
//! named `scenario.<name>` opens each request.

use dtdinfer_xml::infer::ElementReport;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    /// Built from a duration the program reported, not timed here.
    reported: bool,
}

/// Records spans with explicit begin/end; spans nest like a stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens the root span of one request under a fresh request id.
    pub fn request(&mut self, scenario: &'static str) -> usize {
        assert!(self.open.is_empty(), "requests do not nest");
        self.request += 1;
        self.begin(scenario)
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
            reported: false,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close in stack order");
        self.spans[id].end_ns = now;
    }

    /// Times `f` as one leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Closes a span around a schema derivation and gives it one
    /// `core.learn` child carrying the learner time the program reported
    /// (the sum of `ElementReport::duration_ns`). The learners run inside
    /// the derivation call, and the program reports their durations but
    /// not their start times, so the child is laid at its parent's start.
    pub fn end_derive(&mut self, id: usize, reports: &[ElementReport]) {
        self.end(id);
        let parent = &self.spans[id];
        let learn_ns: u64 = reports.iter().map(|r| r.duration_ns).sum();
        let start_ns = parent.start_ns;
        let end_ns = start_ns.saturating_add(learn_ns).min(parent.end_ns);
        let request = parent.request;
        self.spans.push(Span {
            name: "core.learn",
            start_ns,
            end_ns,
            parent: Some(id),
            request,
            reported: true,
        });
    }

    /// The spans as a Chrome trace-event JSON object. Times are in
    /// microseconds with three decimals, so they keep every nanosecond.
    pub fn chrome_json(&self) -> String {
        assert!(self.open.is_empty(), "every span is closed");
        let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        let mut out = String::from(
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{\"name\":\"perfbench-trace\"}}",
        );
        for (id, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"span\":{id},\"parent\":{parent},\
                 \"request\":{},\"reported\":{}}}}}",
                s.name,
                us(s.start_ns),
                us(s.end_ns - s.start_ns),
                s.request,
                s.reported
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(duration_ns: u64) -> ElementReport {
        ElementReport {
            name: "a".to_owned(),
            engine: "idtd",
            occurrences: 1,
            words: 1,
            rewrite_steps: 0,
            repairs: 0,
            fallbacks: 0,
            expr_size: 1,
            duration_ns,
        }
    }

    #[test]
    fn writes_one_event_per_line_with_parent_and_request() {
        let mut tr = Tracer::new();
        let root = tr.request("scenario.batch");
        tr.span("xml.extract", || ());
        tr.end(root);
        let root = tr.request("scenario.refresh");
        tr.end(root);
        let json = tr.chrome_json();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 6, "header, thread name, three spans, footer");
        assert!(lines[2].starts_with("{\"name\":\"scenario.batch\",\"cat\":\"scenario\""));
        assert!(lines[2].contains("\"span\":0,\"parent\":null,\"request\":1"));
        assert!(lines[3].starts_with("{\"name\":\"xml.extract\",\"cat\":\"xml\""));
        assert!(lines[3].contains("\"span\":1,\"parent\":0,\"request\":1"));
        assert!(lines[4].contains("\"span\":2,\"parent\":null,\"request\":2"));
    }

    #[test]
    fn reported_learner_time_starts_with_and_stays_inside_its_parent() {
        let mut tr = Tracer::new();
        let root = tr.request("scenario.ingest");
        let id = tr.begin("engine.derive");
        tr.end_derive(id, &[report(1), report(u64::MAX / 4)]);
        tr.end(root);
        let (parent, learn) = (&tr.spans[id], tr.spans.last().expect("learn span"));
        assert_eq!(learn.name, "core.learn");
        assert!(learn.reported);
        assert_eq!(learn.parent, Some(id));
        assert_eq!(learn.start_ns, parent.start_ns);
        assert_eq!(learn.end_ns, parent.end_ns, "clipped to the parent");
    }
}
