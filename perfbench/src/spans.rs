//! In-memory span tracer.
//!
//! A span is `(name, start, end, parent)` with times in nanoseconds since the
//! process started. Spans are only stored when tracing is on; timing a call
//! through [`Tracer::span`] always returns its duration, so the untraced run
//! measures the same calls without keeping anything.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Totals for every span of one name.
#[derive(Debug, Clone, Default)]
pub struct NameSummary {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    last_closed: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            last_closed: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name` and return its result and wall time.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.offset(start),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.last_closed = Some(id);
        let end_ns = self.offset(end);
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
        (out, end - start)
    }

    /// Record a span that already happened, as a child of the innermost open
    /// span. Used for spans measured on pool threads.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let parent = self.stack.last().copied();
        self.record_under(parent, name, start, end);
    }

    /// Record spans that already happened as children of the most recently
    /// closed span. Used for the per-call spans a timing wrapper collected
    /// during that span, so that storing them is not charged to it.
    pub fn record_in_last(&mut self, calls: &[(&'static str, Instant, Instant)]) {
        let parent = self.last_closed;
        for &(name, start, end) in calls {
            self.record_under(parent, name, start, end);
        }
    }

    fn record_under(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its children cover (children measured on pool threads may
    /// overlap, so their intervals are merged first).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, NameSummary> {
        let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.end_ns - s.start_ns;
            e.self_ns += self_ns;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        t.spans = vec![
            Span {
                name: "p",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "b",
                start_ns: 30,
                end_ns: 50,
                parent: Some(0),
            },
            Span {
                name: "c",
                start_ns: 90,
                end_ns: 120,
                parent: Some(0),
            },
        ];
        assert_eq!(t.self_times(), vec![100 - 40 - 10, 30, 20, 30]);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let (v, _) = t.span("x", |t| t.span("y", |_| 3).0);
        assert_eq!(v, 3);
        assert!(t.spans().is_empty());
    }
}
