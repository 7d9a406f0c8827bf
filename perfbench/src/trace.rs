//! Spans recorded by the benchmark around its calls into each layer's
//! public functions (traced runs only). Spans stay in memory and are
//! written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

const NO_PARENT: SpanId = SpanId::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
    /// Work done inside the span (patterns, nodes, bytes), 0 if none.
    items: u64,
}

/// An in-memory span log with one clock origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: parent.unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
            items: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId, items: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.items = items;
    }

    /// Records an interval measured elsewhere (a phase reported by the
    /// program's own `SpanRecorder`), shifted onto this tracer's clock.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        dur_ns: u64,
        items: u64,
    ) -> SpanId {
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns + dur_ns, items });
        (self.spans.len() - 1) as SpanId
    }

    /// Durations in nanoseconds of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Duration of span `id` in nanoseconds.
    pub fn duration(&self, id: SpanId) -> f64 {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns) as f64
    }

    /// Items of every span named `name`, in record order.
    pub fn items(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.items as f64).collect()
    }

    /// Sum of the durations of the direct children of `parent` named `name`.
    pub fn child_ns(&self, parent: SpanId, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == parent && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    /// Ids of every span named `name`.
    pub fn ids(&self, name: &str) -> Vec<SpanId> {
        (0..self.spans.len() as SpanId).filter(|&i| self.spans[i as usize].name == name).collect()
    }

    /// Writes `id,parent,name,start_ns,end_ns,items` lines to `path`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns,items")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { String::new() } else { s.parent.to_string() };
            writeln!(out, "{i},{parent},{},{},{},{}", s.name, s.start_ns, s.end_ns, s.items)?;
        }
        out.flush()
    }
}
