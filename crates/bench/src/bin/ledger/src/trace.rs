//! Spans the benchmark records around its own calls into the engine:
//! name, start, end and the span that caused it, kept in memory and
//! written out once when the run ends. Nothing here touches the
//! program under test — spans inside the engine are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    /// 1-based; 0 means "no parent" in `parent`.
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Duration of every single `Engine::ingest` call, ns.
    pub call_ns: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            call_ns: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was made.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span; returns its id.
    pub fn record(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span that children will name as their parent.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now();
    }

    /// Total duration and self time (duration minus the part its child
    /// spans cover) per span name, ns.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for span in &self.spans {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.0 += duration;
            entry.1 += duration.saturating_sub(child_ns[span.id as usize]);
        }
        totals
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Runs `f`, recording it as a span when tracing is on.
pub fn spanned<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: u32,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        None => f(),
        Some(t) => {
            let start = t.now();
            let out = f();
            let end = t.now();
            t.record(name, parent, start, end);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.record("root", 0, 0, 100);
        t.record("child", root, 10, 40);
        t.record("child", root, 50, 70);
        let totals = t.totals();
        assert_eq!(totals["root"], (100, 50));
        assert_eq!(totals["child"], (50, 50));
    }
}
