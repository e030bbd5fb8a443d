//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions. They stay in memory until the run ends;
//! `--trace-out` writes them as Chrome trace-event JSON (`chrome://tracing`,
//! Perfetto). A layer's self time is its span minus the part of that
//! interval its child spans cover.

use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share this.
    pub request_id: Option<u64>,
    /// Display lane (one per client thread; 0 for single-threaded phases).
    pub track: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    track: u32,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), track: 0, spans: Vec::new() }
    }

    /// A recorder on the same clock for another thread; [`Recorder::absorb`]
    /// it when the thread is done.
    pub fn fork(&self, track: u32) -> Recorder {
        Recorder { epoch: self.epoch, track, spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request_id: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        debug_assert!(end_ns >= start_ns);
        self.spans.push(Span { name, start_ns, end_ns, parent, request_id, track: self.track });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Recorder::close`] ends it. Children recorded in
    /// between name it as their parent.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request_id: Option<u64>,
    ) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, request_id, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a child span of `parent`, inheriting its request id.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let request_id = self.spans[parent].request_id;
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, Some(parent), request_id, start, end);
        out
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in ns, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Median duration, in ns, of the spans called `name` (0 when none).
    pub fn median_ns(&self, name: &str) -> f64 {
        crate::stats::median(&self.durations_ns(name))
    }

    /// Per span: its duration minus the part of its interval that its
    /// direct children cover (overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (lo, hi) in kids {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Where the traced time went: per span name, how many spans, their
    /// total self time and its share of all self time.
    pub fn self_time_table(&self) -> String {
        let mut by_name: std::collections::BTreeMap<&str, (usize, u64)> = Default::default();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += own;
        }
        let all: u64 = by_name.values().map(|(_, ns)| ns).sum();
        let mut rows: Vec<_> = by_name.into_iter().collect();
        rows.sort_by_key(|(_, (_, ns))| std::cmp::Reverse(*ns));
        let mut out = format!("{:<36} {:>9} {:>12} {:>7}\n", "span", "count", "self ms", "share");
        for (name, (count, ns)) in rows {
            let share = 100.0 * ns as f64 / all.max(1) as f64;
            out.push_str(&format!(
                "{name:<36} {count:>9} {:>12.3} {share:>6.1}%\n",
                ns as f64 / 1e6
            ));
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// microsecond timestamps, parent and request id under `args`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{},\"request_id\":{}}}}}",
                s.name,
                s.track,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request_id),
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pregated_moe::serve::json::{self, Json};

    /// request → {parse, iteration → {forward, forward (overlapping), step}}
    fn three_levels() -> Recorder {
        let mut r = Recorder::new();
        let root = r.record("request", None, Some(42), 0, 1000);
        r.record("parse", Some(root), Some(42), 10, 110);
        let iter = r.record("iteration", Some(root), Some(42), 200, 900);
        r.record("forward", Some(iter), Some(42), 200, 500);
        r.record("forward", Some(iter), Some(42), 400, 600);
        r.record("step", Some(iter), Some(42), 650, 700);
        r
    }

    #[test]
    fn self_time_subtracts_what_direct_children_cover_once() {
        let r = three_levels();
        let own = r.self_times_ns();
        assert_eq!(own[0], 1000 - 100 - 700, "root minus parse and iteration");
        assert_eq!(own[1], 100, "leaf keeps its whole duration");
        assert_eq!(own[2], 700 - 400 - 50, "overlapping forwards cover [200, 600) once");
        assert_eq!(own[3], 300);
        assert_eq!(r.durations_ns("forward"), vec![300.0, 200.0]);
    }

    #[test]
    fn parents_link_upward_and_one_request_shares_its_id() {
        let mut r = Recorder::new();
        let root = r.open("request", None, Some(7));
        let got = r.time("parse", root, || 5);
        r.close(root);
        assert_eq!(got, 5);
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans.iter().all(|s| s.request_id == Some(7)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        // A second thread's spans keep their links after merging.
        let mut other = r.fork(3);
        let theirs = other.open("request", None, Some(8));
        other.time("parse", theirs, || ());
        other.close(theirs);
        r.absorb(other);
        let spans = r.spans();
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[2].track, spans[3].request_id), (3, Some(8)));
    }

    #[test]
    fn chrome_trace_parses_back_with_the_servers_own_json_parser() {
        let r = three_levels();
        let doc = json::parse(&r.chrome_trace_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        assert_eq!(events.len(), r.spans().len());
        let iteration = &events[2];
        assert_eq!(iteration.get("name").and_then(Json::as_str), Some("iteration"));
        assert_eq!(iteration.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(iteration.get("ts"), Some(&Json::Num(0.2)));
        assert_eq!(iteration.get("dur"), Some(&Json::Num(0.7)));
        let args = iteration.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(args.get("request_id").and_then(Json::as_u64), Some(42));
        assert_eq!(events[0].get("args").and_then(|a| a.get("parent")), Some(&Json::Null));
    }
}
