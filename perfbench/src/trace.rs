//! In-memory span recorder: spans are kept until the run ends, then reduced
//! to per-name self times and written out as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span, for use as a child's parent.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans from any thread. A span is opened with its name and its
/// parent and closed when the measured call returns.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so it
    /// can parent further spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("tracer poisoned");
            spans.push(Span {
                name,
                parent,
                thread: thread_number(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("tracer poisoned")[id].end_ns = end;
        out
    }

    /// Seconds spent in spans called `name`, minus the time their children
    /// cover (self time), summed over every such span.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("tracer poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (span, kids) in spans.iter().zip(&mut children) {
            let own = span.end_ns - span.start_ns - covered(kids);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Every duration recorded under `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer poisoned");
        spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer poisoned").len()
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto), with `metadata` (a JSON object) under `otherData`.
    pub fn chrome_json(&self, metadata: &str) -> String {
        let spans = self.spans.lock().expect("tracer poisoned");
        let mut out = String::with_capacity(spans.len() * 120 + metadata.len() + 64);
        out.push_str("{\"traceEvents\":[");
        for (id, span) in spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.thread,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
            );
        }
        let _ = write!(out, "],\"otherData\":{metadata}}}");
        out
    }
}

/// Total length of the union of the intervals.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match &mut current {
            Some((_, cur_end)) if start <= *cur_end => *cur_end = (*cur_end).max(end),
            _ => {
                if let Some((s, e)) = current {
                    total += e - s;
                }
                current = Some((start, end));
            }
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// A small per-thread number for the trace's `tid` field.
fn thread_number() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new();
        tracer.span("root", None, |root| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            tracer.span("child", Some(root), |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let own = tracer.self_seconds();
        assert!(own["child"] >= 0.019, "{own:?}");
        assert!(own["root"] >= 0.004 && own["root"] < 0.019, "{own:?}");
        assert_eq!(tracer.durations("child").len(), 1);
        let json = tracer.chrome_json("{}");
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"root\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered(&mut []), 0);
    }
}
