//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end
//! (µs since the recorder's epoch), the span that caused it, and the
//! unit of work (a design or a request) it belongs to. Spans are kept
//! in memory and written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or stage name (`place`, `formal_mapped`, `request.memory`...).
    pub name: String,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch.
    pub end_us: f64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The design or request this span works for.
    pub unit: String,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Thread-safe span store with a common epoch.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span and returns its index; close it with [`Trace::close`].
    pub fn open(&self, name: &str, parent: Option<usize>, unit: &str) -> usize {
        let start_us = self.now_us();
        let mut spans = self.spans.lock().expect("trace poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent,
            unit: unit.to_string(),
        });
        spans.len() - 1
    }

    /// Closes a span opened by [`Trace::open`].
    pub fn close(&self, id: usize) {
        let end_us = self.now_us();
        self.spans.lock().expect("trace poisoned")[id].end_us = end_us;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        unit: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, unit);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("trace poisoned").clone()
    }

    /// Total milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("trace poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Σ over spans named `root` of (root duration − Σ its direct
    /// children's durations), in ms: time no stage span accounts for.
    pub fn unaccounted_ms(&self, root: &str) -> f64 {
        let spans = self.spans.lock().expect("trace poisoned");
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(id, s)| {
                let covered: f64 = spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(Span::ms)
                    .sum();
                s.ms() - covered
            })
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {parent}, \"unit\": {}}}",
                rgf2m_serve::json_string(&s.name),
                s.start_us,
                s.end_us,
                rgf2m_serve::json_string(&s.unit)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unaccounted_is_root_minus_children() {
        let t = Trace::new();
        let root = t.open("design", None, "d0");
        t.span("a", Some(root), "d0", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let spans = t.spans();
        let expect = spans[0].ms() - spans[1].ms();
        assert!((t.unaccounted_ms("design") - expect).abs() < 1e-9);
        assert!(t.total_ms("a") >= 2.0);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
