//! In-memory spans for the traced run.
//!
//! A span records a name, its start and end, the span that caused it, and
//! the id of the document or request it belongs to. Spans stay in memory
//! until the run ends, then go to one JSON-lines file. A layer's self time
//! is its spans' total duration minus the part covered by child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span within its [`Tracer`]; `NONE` marks "no parent".
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    /// The document or request the span belongs to.
    pub trace: u64,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer. Disabled tracers record nothing, so the same
/// code path serves the untraced and traced runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, trace: u64, parent: SpanId, name: &'static str) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            trace,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// A span from already-taken instants (phases timed by a client).
    pub fn record(
        &mut self,
        trace: u64,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            trace,
            parent,
            name,
            start_ns: at(start),
            end_ns: at(end),
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Time `f` as a span.
    pub fn span<T>(
        &mut self,
        trace: u64,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(trace, parent, name);
        let out = f();
        self.end(id);
        out
    }

    /// Append another tracer's spans, re-pointing their parent links and
    /// shifting their trace ids by `trace_offset` so ids stay distinct.
    pub fn merge(&mut self, other: Tracer, trace_offset: u64) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s.trace += trace_offset;
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Self time per span name: duration minus the union of its direct
    /// children's intervals, summed per name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            *out.entry(s.name).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\": {i}, \"parent\": {parent}, \"trace\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
