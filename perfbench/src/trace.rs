//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans stay in memory while the benchmark runs and are written out
//! as JSON lines when it ends. A disabled tracer records nothing and never
//! reads the clock.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one query or probe.
    pub request: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans of this thread: (id, request).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open the root span of a new request; the request takes its id.
    pub fn request(&self, name: &'static str) -> Guard<'_> {
        self.open(name, true)
    }

    /// Open a span inside the current thread's innermost open span (a root
    /// span of a new request when none is open).
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.open(name, false)
    }

    fn open(&self, name: &'static str, new_request: bool) -> Guard<'_> {
        if !self.enabled {
            return Guard { inner: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, request) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let (parent, inherited) = open.last().copied().unwrap_or((0, id));
            let request = if new_request { id } else { inherited };
            open.push((id, request));
            (parent, request)
        });
        Guard {
            inner: Some(Open {
                tracer: self,
                span: Span {
                    id,
                    parent,
                    request,
                    name,
                    start_ns: self.now_ns(),
                    end_ns: 0,
                },
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A copy of every finished span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panics").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A layer's self time: its duration minus the part of its interval that
/// its direct children cover.
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let mut children: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == span.id)
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    children.sort_unstable();
    let (mut covered, mut reach) = (0, span.start_ns);
    for (s, e) in children {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration_ns() - covered
}

struct Open<'a> {
    tracer: &'a Tracer,
    span: Span,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    inner: Option<Open<'a>>,
}

impl Guard<'_> {
    /// The request this span belongs to (0 when tracing is off).
    pub fn request_id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |o| o.span.request)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(Open { tracer, mut span }) = self.inner.take() else {
            return;
        };
        span.end_ns = tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|(id, _)| *id == span.id) {
                open.remove(pos);
            }
        });
        if let Ok(mut spans) = tracer.spans.lock() {
            spans.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_the_request_and_link_parents() {
        let t = Tracer::new(true);
        {
            let _q = t.request("query");
            let _a = t.span("prepare");
        }
        {
            let _q = t.request("query");
        }
        let spans = t.spans();
        let prepare = spans.iter().find(|s| s.name == "prepare").unwrap();
        let queries: Vec<&Span> = spans.iter().filter(|s| s.name == "query").collect();
        assert_eq!(queries.len(), 2);
        assert_eq!(prepare.parent, queries[0].id);
        assert_eq!(prepare.request, queries[0].request);
        assert_ne!(queries[0].request, queries[1].request);
        assert_eq!(queries[0].parent, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _q = t.request("query");
            let _a = t.span("prepare");
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let span = |id, parent, s, e| Span {
            id,
            parent,
            request: 1,
            name: "x",
            start_ns: s,
            end_ns: e,
        };
        let all = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50), // overlaps child 2
            span(4, 2, 12, 14), // grandchild: not subtracted again
        ];
        assert_eq!(self_time_ns(&all[0], &all), 100 - 40);
        assert_eq!(self_time_ns(&all[1], &all), 20 - 2);
    }
}
