//! In-memory span recorder for the traced run.
//!
//! Every span records the layer call it wraps (its name), start and end
//! in nanoseconds from the recorder's origin, the span that caused it,
//! and the job it belongs to. Spans stay in memory until the run ends,
//! when [`Tracer::write_jsonl`] writes them out. A span's self time is
//! its duration minus the part of its interval its direct children
//! cover.

use crate::stats::Samples;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e.saturating_sub(self.start_ns))
    }
}

/// Thread-safe span recorder (the serving run records from the
/// generator, the waiters and the service's workers).
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder lock poisoned by a panic")
    }

    /// Opens a span now and returns its id.
    pub fn begin(&self, name: &'static str, job: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: None,
        });
        spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = Some(end_ns);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.begin(name, job, parent);
        let out = f(id);
        self.end(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end_ns.map_or("null".to_string(), |e| e.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{end}}}",
                s.name, s.job, s.start_ns
            )?;
        }
        out.flush()
    }
}

/// Read-only analysis over a finished set of spans.
pub struct SpanTree {
    spans: Vec<Span>,
    children: Vec<Vec<SpanId>>,
}

impl SpanTree {
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for (id, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        SpanTree { spans, children }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn children(&self, id: SpanId) -> &[SpanId] {
        &self.children[id]
    }

    /// Duration minus the union of the direct children's intervals,
    /// clipped to the span's own interval.
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id];
        let Some(end) = span.end_ns else {
            return 0;
        };
        let mut covered: Vec<(u64, u64)> = self.children[id]
            .iter()
            .filter_map(|&c| {
                let child = &self.spans[c];
                let s = child.start_ns.max(span.start_ns);
                let e = child.end_ns?.min(end);
                (e > s).then_some((s, e))
            })
            .collect();
        covered.sort_unstable();
        let mut union = 0u64;
        let mut cursor = span.start_ns;
        for (s, e) in covered {
            let s = s.max(cursor);
            if e > s {
                union += e - s;
                cursor = e;
            }
        }
        span.duration_ns() - union
    }

    /// Durations of every closed span named `name`, in `unit_ns`
    /// nanoseconds per reported unit.
    pub fn durations(&self, name: &str, unit_ns: f64) -> Samples {
        let mut out = Samples::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.end_ns.is_some())
        {
            out.push(s.duration_ns() as f64 / unit_ns);
        }
        out
    }

    /// Total duration of the closed spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }
}

/// Gives every parentless span named `child` a parent: the span named
/// `parent` of the same job whose interval contains it (the latest one
/// to start). Spans recorded where their cause is unknown, such as
/// inside a backend, are linked this way after the run.
pub fn adopt_orphans(spans: &mut [Span], child: &str, parent: &str) {
    for (c, p) in match_orphans(spans, child, parent) {
        spans[c].parent = Some(p);
    }
}

fn match_orphans(spans: &[Span], child: &str, parent: &str) -> Vec<(SpanId, SpanId)> {
    let mut by_job: HashMap<u64, Vec<SpanId>> = HashMap::new();
    for (id, s) in spans.iter().enumerate() {
        if s.name == parent {
            by_job.entry(s.job).or_default().push(id);
        }
    }
    let mut out = Vec::new();
    for (id, s) in spans.iter().enumerate() {
        if s.name != child || s.parent.is_some() {
            continue;
        }
        let Some(end) = s.end_ns else { continue };
        let best = by_job.get(&s.job).and_then(|cands| {
            cands
                .iter()
                .copied()
                .filter(|&p| {
                    let ps = &spans[p];
                    ps.start_ns <= s.start_ns && ps.end_ns.is_some_and(|pe| pe >= end)
                })
                .max_by_key(|&p| spans[p].start_ns)
        });
        if let Some(p) = best {
            out.push((id, p));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, job: u64, parent: Option<SpanId>, s: u64, e: u64) -> Span {
        Span {
            name,
            job,
            parent,
            start_ns: s,
            end_ns: Some(e),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let tree = SpanTree::new(vec![
            span("root", 1, None, 0, 100),
            span("a", 1, Some(0), 10, 40),
            // Overlaps `a`: the union 10..60 is covered, not 30 + 30.
            span("b", 1, Some(0), 30, 60),
            // A grandchild is already inside `a`; it must not count again.
            span("c", 1, Some(1), 15, 20),
        ]);
        assert_eq!(tree.self_time_ns(0), 50);
        assert_eq!(tree.self_time_ns(1), 25);
        assert_eq!(tree.self_time_ns(3), 5);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let tree = SpanTree::new(vec![
            span("root", 1, None, 100, 200),
            span("early", 1, Some(0), 50, 120),
            span("late", 1, Some(0), 190, 260),
        ]);
        assert_eq!(tree.self_time_ns(0), 100 - 20 - 10);
    }

    #[test]
    fn open_spans_have_no_duration() {
        let mut open = span("root", 1, None, 0, 0);
        open.end_ns = None;
        let tree = SpanTree::new(vec![open]);
        assert_eq!(tree.self_time_ns(0), 0);
        assert!(tree.durations("root", 1.0).is_empty());
    }

    #[test]
    fn durations_and_totals_filter_by_name() {
        let tree = SpanTree::new(vec![
            span("x", 1, None, 0, 1000),
            span("y", 1, None, 0, 3000),
            span("x", 2, None, 0, 2000),
        ]);
        let mut d = tree.durations("x", 1000.0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.percentile(1.0), Some(2.0));
        assert_eq!(tree.total_ns("x"), 3000);
    }

    #[test]
    fn recorder_nests_spans_and_links_parents() {
        let tracer = Tracer::new();
        let inner = tracer.span("outer", 7, None, |outer| {
            tracer.span("inner", 7, Some(outer), |inner| inner)
        });
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[inner].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let tree = SpanTree::new(spans);
        assert_eq!(tree.children(0), &[1]);
    }

    #[test]
    fn orphans_adopt_the_containing_span_of_their_job() {
        let mut spans = vec![
            span("request", 1, None, 0, 100),
            span("request", 1, None, 50, 300),
            span("request", 2, None, 0, 400),
            span("backend", 1, None, 60, 90),
            span("backend", 1, None, 310, 320),
        ];
        // The backend span of job 1 at 60..90 sits in both job-1
        // requests; the later-starting one wins. The second backend
        // span lies outside every job-1 request and stays an orphan.
        adopt_orphans(&mut spans, "backend", "request");
        assert_eq!(spans[3].parent, Some(1));
        assert_eq!(spans[4].parent, None);
        let tree = SpanTree::new(spans);
        assert_eq!(tree.self_time_ns(1), 250 - 30);
    }
}
