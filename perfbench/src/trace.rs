//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (the layer and call, e.g.
//! `scenario.engine.run_job`), a start and end relative to the
//! tracer's epoch, an optional parent span and an optional request
//! id shared by all spans of one request. Spans are kept in memory
//! and written out once, when the run ends; a disabled tracer records
//! nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use scenario::Value;

/// Index of a span in its tracer.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Records a finished span; returns its id (`None` when tracing
    /// is off). Record a parent before its children.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            request,
        };
        let mut spans = self.lock();
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Opens a span that [`Tracer::close`] ends, so children can name
    /// it as their parent while it runs.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.us(Instant::now());
            self.lock()[id].end_us = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time per span name, in milliseconds: each span's duration
/// minus the durations of its direct children (children of one span
/// run one after another, so their durations do not overlap).
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.end_us - s.start_us;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_us) {
        let own = (s.end_us - s.start_us - children).max(0.0);
        *out.entry(s.name).or_insert(0.0) += own / 1e3;
    }
    out
}

/// The spans and their self-time table as one JSON document.
pub fn to_json(spans: &[Span]) -> Value {
    let rows: Vec<Value> = spans
        .iter()
        .map(|s| {
            let mut v = Value::obj()
                .with("name", s.name)
                .with("start_us", s.start_us)
                .with("end_us", s.end_us);
            if let Some(p) = s.parent {
                v = v.with("parent", p);
            }
            if let Some(r) = s.request {
                v = v.with("request", r);
            }
            v
        })
        .collect();
    let self_ms = self_time_ms(spans)
        .into_iter()
        .fold(Value::obj(), |v, (name, ms)| v.with(name, ms));
    Value::obj()
        .with("self_ms", self_ms)
        .with("spans", Value::Arr(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0.0, 10_000.0, None),
            span("a", 1_000.0, 4_000.0, Some(0)),
            span("a.inner", 1_500.0, 2_500.0, Some(1)),
            span("b", 5_000.0, 9_000.0, Some(0)),
            span("a", 20_000.0, 21_000.0, None),
        ];
        let t = self_time_ms(&spans);
        assert_eq!(t["root"], 3.0);
        assert_eq!(t["a"], 2.0 + 1.0);
        assert_eq!(t["a.inner"], 1.0);
        assert_eq!(t["b"], 4.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, None, |id| id), None);
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        let outer = on.open("outer", None, Some(7));
        on.span("inner", outer, Some(7), |_| ());
        on.close(outer);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_us >= spans[1].end_us);
    }
}
