//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the program is instrumented: a span covers one
//! call (or one batch of calls) the benchmark makes into a layer's
//! public function.
//!
//! Spans are kept in a preallocated vector while the run lasts and
//! written out as JSON lines when it ends.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary crossed, e.g. `"tss.lookup"`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Operations the span covers (packets, lookups, updates).
    pub ops: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one traced run.
#[derive(Debug)]
pub struct Recorder {
    run_id: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder for run `run_id` with room for `capacity` spans.
    pub fn new(run_id: u64, capacity: usize) -> Self {
        Recorder {
            run_id,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            ops: 0,
        };
        self.open.push(self.spans.len() as u32);
        self.spans.push(span);
    }

    /// Closes the innermost open span, crediting it with `ops`
    /// operations; returns its duration in ns.
    pub fn exit(&mut self, ops: u64) -> u64 {
        let end = self.now_ns();
        let idx = self.open.pop().expect("exit matches an enter") as usize;
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.ops = ops;
        span.dur_ns()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and operations of the closed spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .fold((0, 0), |(d, o), s| (d + s.dur_ns(), o + s.ops))
    }

    /// Durations (ns) of the closed spans named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Writes every span as one JSON object per line, preceded by a
    /// header line carrying `meta` (already-rendered JSON members).
    pub fn write_jsonl(&self, path: &Path, meta: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(64 * (self.spans.len() + 1));
        let _ = writeln!(out, "{{\"run_id\":{},{meta}}}", self.run_id);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"run_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"ops\":{},\"self_ns\":{}}}",
                self.run_id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.ops,
                self_ns,
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut r = Recorder::new(7, 8);
        r.enter("outer");
        r.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit(3);
        r.exit(1);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(r.total("inner").1, 3);
        assert!(s[0].dur_ns() >= s[1].dur_ns());
        assert_eq!(r.self_times()[0], s[0].dur_ns() - s[1].dur_ns());
    }
}
