//! In-memory span recorder for the traced runs.
//!
//! A span is recorded around each call the benchmark makes into a
//! library layer: its name, start and end (ms since the recorder was
//! created), the span that contained it, and the op it belongs to.
//! Spans stay in memory until the run ends; [`Tracer::write_jsonl`] then
//! writes them out. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ms: f64,
    pub end_ms: f64,
    pub parent: Option<usize>,
    pub op: usize,
}

/// Span recorder plus per-layer work counters.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Tags the spans recorded from now on with op id `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ms = self.now_ms();
        self.spans.push(Span {
            name,
            start_ms,
            end_ms: start_ms,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ms = self.now_ms();
    }

    /// Records a finished span measured elsewhere (e.g. on another
    /// thread) and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let ms = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e3;
        self.spans.push(Span {
            name,
            start_ms: ms(start),
            end_ms: ms(end),
            parent,
            op: self.op,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Adds `by` to the work counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counters.entry(name).or_insert(0.0) += by;
    }

    /// The work counter `name` (0 when never counted).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time per span name, in ms: each span's duration minus the
    /// union of its children's intervals.
    #[must_use]
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start_ms, self.spans[c].end_ms))
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut union = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            *out.entry(s.name).or_insert(0.0) += (s.end_ms - s.start_ms - union).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ms\":{},\"end_ms\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ms, s.end_ms, s.op
            )?;
        }
        w.flush()
    }
}
