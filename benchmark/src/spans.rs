//! The benchmark's own span list: one span around every call into a layer,
//! kept in memory and written out when the traced run ends.
//!
//! With recording off (`Spans::new(false)`) `enter`/`exit` only read the
//! clock, so code that runs both traced and untraced (the ingest epochs)
//! is one path and the difference between the two is the recording itself.

use std::time::Instant;

use rodb::trace::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one query or batch share this identifier.
    pub op: u64,
    /// Work counts taken at the same boundary as the timing.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of a span that has been entered and not yet left.
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

pub struct Spans {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Start a new operation: spans entered from now on carry a fresh id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: (start - self.t0).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                op: self.op,
                counts: Vec::new(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start }
    }

    /// Close `open` and return its wall seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            self.spans[idx].end_ns = (end - self.t0).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
        }
        (end - open.start).as_secs_f64()
    }

    /// Attach a work count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(&idx) = self.stack.last() {
            self.spans[idx].counts.push((key, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that interval
    /// its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        self_ns(&self.spans)
    }

    pub fn to_json(&self) -> Json {
        let self_ns = self.self_ns();
        let items = self
            .spans
            .iter()
            .zip(&self_ns)
            .map(|(s, &own)| {
                let mut counts = Json::obj();
                for (k, v) in &s.counts {
                    counts = counts.set(k, *v);
                }
                Json::obj()
                    .set("name", s.name.as_str())
                    .set("op", s.op as f64)
                    .set(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    )
                    .set("start_ns", s.start_ns as f64)
                    .set("end_ns", s.end_ns as f64)
                    .set("self_ns", own as f64)
                    .set("counts", counts)
            })
            .collect();
        Json::Arr(items)
    }
}

/// See [`Spans::self_ns`].
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("scan", 10, 60, Some(0)),
            span("parse", 20, 35, Some(1)),
            span("agg", 60, 90, Some(0)),
        ];
        assert_eq!(self_ns(&spans), vec![20, 35, 15, 30]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recording_nests_and_shares_operation_ids() {
        let mut t = Spans::new(true);
        t.next_op();
        let a = t.enter("op");
        let b = t.enter("child");
        t.count("rows", 7.0);
        t.exit(b);
        t.exit(a);
        t.next_op();
        let c = t.enter("op");
        t.exit(c);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].counts, vec![("rows", 7.0)]);
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let mut t = Spans::new(false);
        let a = t.enter("op");
        t.count("rows", 1.0);
        assert!(t.exit(a) >= 0.0);
        assert!(t.spans().is_empty());
    }
}
