//! Spans recorded at layer boundaries from the benchmark's own code,
//! kept in memory and written out when the run ends.

use std::time::Instant;

use serde_json::{json, Value};

use crate::json::object;

/// One timed interval. Spans of one request share `request`; `parent`
/// indexes the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub request: usize,
    pub name: &'static str,
    /// Transformer layer, for the per-layer stepping spans.
    pub layer: Option<usize>,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; [`SpanLog::close`] ends it.
    pub fn open(
        &mut self,
        request: usize,
        name: &'static str,
        layer: Option<usize>,
        parent: Option<usize>,
    ) -> usize {
        let now = self.now_us();
        self.push(Span {
            request,
            name,
            layer,
            start_us: now,
            end_us: now,
            parent,
        })
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Times `f` as a span under `parent`.
    pub fn time<T>(
        &mut self,
        request: usize,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(request, name, None, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_us() as f64)
            .collect()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (overlapping children count
    /// once).
    pub fn self_times_us(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let (lo, hi) = (self.spans[parent].start_us, self.spans[parent].end_us);
                let clipped = (span.start_us.clamp(lo, hi), span.end_us.clamp(lo, hi));
                children[parent].push(clipped);
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut intervals)| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut frontier = span.start_us;
                for (start, end) in intervals {
                    let start = start.max(frontier);
                    if end > start {
                        covered += end - start;
                        frontier = end;
                    }
                }
                span.duration_us() - covered
            })
            .collect()
    }

    pub fn to_json(&self) -> Value {
        let self_times = self.self_times_us();
        Value::Array(
            self.spans
                .iter()
                .zip(self_times)
                .map(|(span, self_us)| {
                    let mut fields = vec![
                        ("request", json!(span.request)),
                        ("name", json!(span.name)),
                        ("start_us", json!(span.start_us)),
                        ("end_us", json!(span.end_us)),
                        ("parent", json!(span.parent)),
                        ("self_us", json!(self_us)),
                    ];
                    if let Some(layer) = span.layer {
                        fields.push(("layer", json!(layer)));
                    }
                    object(fields)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            request: 0,
            name,
            layer: None,
            start_us,
            end_us,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let mut log = SpanLog::new();
        let root = log.push(span("request", 0, 100, None));
        let run = log.push(span("run", 10, 90, Some(root)));
        // Two overlapping children cover [20, 60) of `run` together...
        log.push(span("forward", 20, 50, Some(run)));
        log.push(span("stream", 40, 60, Some(run)));
        // ...one child sticks out past its parent's end and is clipped.
        log.push(span("late", 80, 120, Some(run)));
        let leaf = log.push(span("finalize", 90, 95, Some(root)));

        let self_times = log.self_times_us();
        assert_eq!(self_times[root], 100 - 80 - 5);
        assert_eq!(self_times[run], 80 - 40 - 10);
        assert_eq!(self_times[leaf], 5);
        assert_eq!(log.durations("forward"), vec![30.0]);
    }
}
