//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, op)`; spans of one operation (a
//! sweep or a request) share `op`.  Spans are kept in memory and reduced
//! when the run ends: a layer's *self time* is its spans' durations minus
//! the part of each interval its child spans cover (children may overlap
//! each other, e.g. sweep points fanned out over two pool threads).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    /// Small per-process index of the recording thread.
    pub thread: u32,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id, to
    /// parent the spans it opens.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.epoch.elapsed().as_secs_f64();
        self.record(Span {
            name,
            id,
            parent,
            op,
            thread: thread_index(),
            start,
            end,
        });
        out
    }

    /// Record an already-timed interval (e.g. a wait observed on the wire).
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    pub fn next_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Seconds since the epoch, for [`Tracer::record`].
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span buffer poisoned")
    }
}

/// A small, stable index for the calling thread (trace-viewer track).
pub fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static INDEX: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// Write `spans` as Chrome trace-event JSON (open it in Perfetto or
/// `chrome://tracing`) to `.perfbench_out/trace-<workload>.json` under the
/// working directory, returning the path.
pub fn write_chrome_trace(workload: &str, spans: &[Span]) -> io::Result<PathBuf> {
    let dir = Path::new(".perfbench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{parent},\"op\":{}}}}}",
            s.name,
            s.thread,
            s.start * 1e6,
            (s.end - s.start) * 1e6,
            s.id,
            s.op
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Length of the union of `intervals`.
pub fn union_len(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(start, end) in intervals.iter() {
        match &mut current {
            Some((_, cur_end)) if start <= *cur_end => *cur_end = cur_end.max(end),
            _ => {
                if let Some((s, e)) = current {
                    total += e - s;
                }
                current = Some((start, end));
            }
        }
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Summed self time per span name: each span's duration minus the union
/// of its children's intervals, each clipped to the span.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| by_id.get(&p)) {
            let clipped = (span.start.max(parent.start), span.end.min(parent.end));
            if clipped.0 < clipped.1 {
                children.entry(parent.id).or_default().push(clipped);
            }
        }
    }
    let mut out = BTreeMap::new();
    for span in spans {
        let covered = children.get_mut(&span.id).map_or(0.0, |c| union_len(c));
        *out.entry(span.name).or_insert(0.0) += (span.end - span.start - covered).max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: Option<u32>, start: f64, end: f64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 0,
            thread: 0,
            start,
            end,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        let spans = [
            span("op", 0, None, 0.0, 10.0),
            span("build", 1, Some(0), 1.0, 4.0),
            span("csr", 2, Some(1), 2.0, 3.0),
            span("sim", 3, Some(0), 5.0, 9.0),
        ];
        let t = self_time_by_name(&spans);
        assert_eq!(t["op"], 10.0 - 3.0 - 4.0);
        assert_eq!(t["build"], 3.0 - 1.0);
        assert_eq!(t["csr"], 1.0);
        assert_eq!(t["sim"], 4.0);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two pool threads run points concurrently inside one fan-out.
        let spans = [
            span("fanout", 0, None, 0.0, 10.0),
            span("point", 1, Some(0), 1.0, 6.0),
            span("point", 2, Some(0), 2.0, 8.0),
            span("point", 3, Some(0), 7.5, 9.0),
        ];
        let t = self_time_by_name(&spans);
        assert_eq!(t["fanout"], 10.0 - 8.0);
        assert_eq!(t["point"], 5.0 + 6.0 + 1.5);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("wait", 0, None, 0.0, 4.0),
            span("late", 1, Some(0), 3.0, 6.0),
        ];
        let t = self_time_by_name(&spans);
        assert_eq!(t["wait"], 3.0);
        assert_eq!(t["late"], 3.0);
    }

    #[test]
    fn union_of_disjoint_and_nested_intervals() {
        let mut iv = [(0.0, 1.0), (2.0, 5.0), (3.0, 4.0), (4.5, 6.0)];
        assert_eq!(union_len(&mut iv), 1.0 + 4.0);
    }

    #[test]
    fn tracer_links_parent_and_child() {
        let tracer = Tracer::new();
        tracer.span("outer", None, 7, |outer| {
            tracer.span("inner", Some(outer), 7, |_| ());
        });
        let spans = tracer.into_spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert_eq!(inner.op, 7);
    }
}
