//! The benchmark's own in-memory span recorder.
//!
//! Spans are taken from outside the product: around calls into public
//! functions, and from the instants those calls expose (the transport's
//! `connect`, the report's serving window). They are kept in memory and
//! written once, when the traced run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span, used as the parent of its children.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<SpanId>,
    repeat: u32,
}

/// Records `repeat > {setup, serve, teardown, verify}` and the micro
/// spans of one traced run.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        repeat: u32,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            repeat,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        repeat: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.add(name, start, Instant::now(), parent, repeat);
        out
    }

    /// Writes every span as one JSON document: times are microseconds
    /// since the recorder was created, `parent` is an index into `spans`.
    pub fn write_json(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = format!("{{\"workload\": \"{workload}\", \"unit\": \"us\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {:.1}, \"end\": {:.1}, \
                 \"parent\": {parent}, \"repeat\": {}}}{sep}",
                s.name,
                us(s.start),
                us(s.end),
                s.repeat
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
