//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with the span that caused it and, inside a
//! sweep, the grid index of its cell. Spans are kept in memory and
//! written out once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer or phase this span times.
    pub name: &'static str,
    /// The sweep cell (or policy run) this span belongs to, if any.
    pub cell: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans around closures.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the span open
    /// at the call.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Spans that start before or end after their parent.
    pub fn nesting_violations(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| {
                s.parent.is_some_and(|p| {
                    let p = &self.spans[p];
                    s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.end_ns < s.start_ns
                })
            })
            .count()
    }

    /// Writes the spans as CSV: `id,parent,cell,name,start_ns,end_ns`.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,cell,name,start_ns,end_ns")?;
        let opt = |v: Option<usize>| v.map_or(String::new(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id},{},{},{},{},{}",
                opt(s.parent),
                opt(s.cell),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
