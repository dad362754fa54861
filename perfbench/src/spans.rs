//! The benchmark's own span recorder: one span per call into a layer's
//! public function, kept in memory and written out when the run ends.
//!
//! A span has a name, start and end (nanoseconds since the recorder was
//! made), the id of the span that caused it, and the id of the job or
//! request it belongs to. Untraced runs use a disabled recorder: calls
//! are still timed (the workloads need the durations) but nothing is
//! kept.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// Layer-qualified name, e.g. `store.save_artifact`.
    pub name: &'static str,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// The job or request this span serves.
    pub request: u64,
}

/// In-memory span store.
pub struct Spans {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    recs: Mutex<Vec<SpanRec>>,
}

impl Spans {
    /// A recorder; `enabled = false` keeps nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            recs: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` under `parent` for
    /// `request`, passing `f` the new span's id (for children). Returns
    /// `f`'s result and the span's duration in seconds.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, f64) {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let start = self.t0.elapsed();
        let out = f(id);
        let end = self.t0.elapsed();
        if self.enabled {
            self.recs
                .lock()
                .expect("span store poisoned by a panicking recorder")
                .push(SpanRec {
                    id,
                    name,
                    start_ns: start.as_nanos() as u64,
                    end_ns: end.as_nanos() as u64,
                    parent,
                    request,
                });
        }
        (out, (end - start).as_secs_f64())
    }

    /// Every span kept so far, in completion order.
    pub fn records(&self) -> Vec<SpanRec> {
        self.recs
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in self.records() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                r.id, r.name, r.start_ns, r.end_ns, r.parent, r.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_request() {
        let spans = Spans::new(true);
        let (inner_id, outer_s) = spans.time("job", 0, 7, |job| {
            let (id, _) = spans.time("layer.call", job, 7, |id| id);
            assert_ne!(id, job);
            id
        });
        let recs = spans.records();
        assert_eq!(recs.len(), 2);
        let inner = recs.iter().find(|r| r.id == inner_id).unwrap();
        let outer = recs.iter().find(|r| r.name == "job").unwrap();
        assert_eq!((inner.parent, inner.request), (outer.id, 7));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert!(outer_s >= 0.0);
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let spans = Spans::new(false);
        let (v, secs) = spans.time("x", 0, 0, |_| 5);
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        assert!(spans.records().is_empty());
    }
}
