//! The benchmark's own span recorder.
//!
//! Spans are taken around calls into each layer's public functions,
//! from the benchmark's side of the call: name, start, end, parent, and
//! the id of the op that caused them. Every closed span adds to a
//! per-name total (never capped), which is what the per-layer metrics
//! read. The raw spans stay in memory, up to a cap on root spans, and
//! are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Root spans kept per tracer; their children are always kept.
const ROOT_CAP: usize = 4096;

struct Span {
    name: &'static str,
    tag: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// One thread's spans and per-name totals.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    roots: usize,
    totals: BTreeMap<&'static str, (u64, Duration)>,
}

/// A handle to an open span (`None` when it was not kept).
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// Opens a span at `start`. A root span (`parent` is `None`) past
    /// the cap is counted in the totals but not kept.
    pub fn open(
        &mut self,
        name: &'static str,
        tag: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
    ) -> SpanId {
        let parent = match parent {
            None if self.roots >= ROOT_CAP => return SpanId(None),
            None => {
                self.roots += 1;
                None
            }
            Some(SpanId(None)) => return SpanId(None),
            Some(SpanId(Some(p))) => Some(p),
        };
        self.spans.push(Span {
            name,
            tag,
            op,
            parent,
            start,
            end: None,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::open`] and adds its duration
    /// to the per-name total.
    pub fn close(&mut self, name: &'static str, id: SpanId, start: Instant, end: Instant) {
        let t = self.totals.entry(name).or_default();
        t.0 += 1;
        t.1 += end - start;
        if let SpanId(Some(i)) = id {
            self.spans[i].end = Some(end);
        }
    }

    /// Records a span whose start and end are already known.
    pub fn span(
        &mut self,
        name: &'static str,
        tag: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.open(name, tag, op, parent, start);
        self.close(name, id, start, end);
        id
    }

    /// Total time and count of closed spans named `name`.
    pub fn total(&self, name: &str) -> (u64, Duration) {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Folds another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.roots += other.roots;
        for (name, (n, d)) in other.totals {
            let t = self.totals.entry(name).or_default();
            t.0 += n;
            t.1 += d;
        }
    }

    /// Writes every kept span as one JSON object per line, times in
    /// microseconds since `epoch`.
    pub fn write(&self, path: &Path, epoch: Instant) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let at = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        for (id, s) in self.spans.iter().enumerate() {
            let Some(end) = s.end else { continue };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.op,
                s.name,
                s.tag,
                at(s.start),
                at(end)
            )?;
        }
        out.flush()
    }
}
