//! In-memory spans around every harness→layer call.
//!
//! This is outside-in tracing: the harness times its own calls into the
//! simulator's public functions and nothing deeper (spans inside the
//! program are a later change). A traced pass records
//! `run → step` for the end-to-end loop and `run → probe → layer call`
//! for the layer probes; spans stay in memory and are written out once,
//! after measurement ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// What ran (`step.attack`, `siloz.create_vm`, ...).
    pub name: String,
    /// The crate the call went into (or `process` for harness scaffolding).
    pub layer: &'static str,
    /// Which pass of the workload the span belongs to.
    pub run: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work completed inside the span, counted at the same boundary
    /// (simulated events for steps, operations for probe calls).
    pub work: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder. When disabled every call is a no-op that reads no
/// clock, so untraced passes pay nothing for it.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the pass index stamped on subsequently opened spans.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &str, layer: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.to_owned(),
            layer,
            run: self.run,
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id` (which must be the innermost open span), recording the
    /// work it completed and, for steps classified only after they ran,
    /// its final name.
    pub fn close(&mut self, id: SpanId, work: u64, rename: Option<&str>) {
        let Some(idx) = id.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost-first");
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.work = work;
        if let Some(name) = rename {
            span.name = name.to_owned();
        }
    }

    /// Runs `f` as one leaf call into `layer` under a span, returning its
    /// result and how many nanoseconds it took (measured whether or not
    /// spans are being recorded).
    pub fn timed<T>(&mut self, name: &str, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, layer);
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as f64;
        self.close(id, 1, None);
        (out, ns)
    }

    /// Every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as a JSON document: one compact row per span plus the
    /// per-layer self-time rollup.
    pub fn document(&self, workload: &str, seed: u64) -> Json {
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Arr(vec![
                    Json::Int(id as u64),
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                    Json::str(s.name.clone()),
                    Json::str(s.layer),
                    Json::Int(u64::from(s.run)),
                    Json::Int(s.start_ns),
                    Json::Int(s.end_ns),
                    Json::Int(s.work),
                ])
            })
            .collect();
        let layers = self_time_by_layer(&self.spans);
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Int(seed)),
            ("span_count", Json::Int(self.spans.len() as u64)),
            (
                "columns",
                Json::Arr(
                    [
                        "id", "parent", "name", "layer", "run", "start_ns", "end_ns", "work",
                    ]
                    .into_iter()
                    .map(Json::str)
                    .collect(),
                ),
            ),
            (
                "self_time_ns_by_layer",
                Json::obj(layers.into_iter().map(|(k, v)| (k, Json::Int(v)))),
            ),
            ("spans", Json::Arr(rows)),
        ])
    }
}

/// Each span's self time: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time summed per layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(s.layer).or_insert(0) += own;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name: "s".into(),
            layer,
            run: 0,
            start_ns,
            end_ns,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100) ─ step [10,60) ─ call [20,50)
        //             └ step [60,90)
        let spans = vec![
            span(None, "process", 0, 100),
            span(Some(0), "fleet", 10, 60),
            span(Some(1), "siloz", 20, 50),
            span(Some(0), "fleet", 60, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 30, 30]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["process"], 20);
        assert_eq!(by_layer["fleet"], 50);
        assert_eq!(by_layer["siloz"], 30);
        let total: u64 = by_layer.values().sum();
        assert_eq!(total, 100, "self times partition the root interval");
    }

    #[test]
    fn tracer_nests_and_renames() {
        let mut t = Tracer::new(true);
        t.set_run(3);
        let run = t.open("run", "process");
        let step = t.open("step", "fleet");
        let (got, ns) = t.timed("siloz.create_vm", "siloz", || 7);
        assert_eq!(got, 7);
        assert!(ns >= 0.0);
        t.close(step, 5, Some("step.attack"));
        t.close(run, 5, None);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(1))
        );
        assert_eq!(s[1].name, "step.attack");
        assert_eq!((s[1].work, s[1].run), (5, 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let doc = t.document("w", 11).compact();
        assert!(doc.contains("\"span_count\":3"));
        assert!(doc.contains("[1,0,\"step.attack\",\"fleet\",3,"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("run", "process");
        assert_eq!(t.timed("x", "siloz", || 1).0, 1);
        t.close(id, 9, Some("renamed"));
        assert!(t.spans().is_empty());
    }
}
