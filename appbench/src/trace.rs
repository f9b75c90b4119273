//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (name, start, end, parent, run id), kept in
//! memory, and written out as JSON lines when the run ends. Counters record
//! work done at the same boundaries (shots, members, binds), so per-layer
//! ratios are measured where the work happens.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer boundary name, e.g. `qudit-circuit.compile`.
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Replay (run) identifier the span belongs to.
    run: u32,
    /// Start, relative to the tracer's origin.
    start: Duration,
    /// End, relative to the tracer's origin.
    end: Duration,
}

/// Span and counter recorder. Single-threaded: the benchmark only opens
/// spans on its driving thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    run: Cell<u32>,
    counters: RefCell<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            run: Cell::new(0),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.stack.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent,
                run: self.run.get(),
                start: self.origin.elapsed(),
                end: Duration::ZERO,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.origin.elapsed();
        out
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&self, name: &'static str, by: f64) {
        *self.counters.borrow_mut().entry(name).or_insert(0.0) += by;
    }

    /// Value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.borrow().get(name).copied().unwrap_or(0.0)
    }

    /// Starts a new run id for the spans that follow.
    pub fn next_run(&self) {
        self.run.set(self.run.get() + 1);
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans.borrow().iter().filter(|s| s.name == name).map(secs).sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.borrow().iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of the direct children of every span named `root`,
    /// in seconds: the part of the root's time the recorded layers explain.
    pub fn child_busy_s(&self, root: &str) -> f64 {
        let spans = self.spans.borrow();
        spans.iter().filter(|s| s.parent.is_some_and(|p| spans[p].name == root)).map(secs).sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Returns any I/O error from creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"run\": {}, \
                 \"start_s\": {}, \"end_s\": {}}}",
                s.name,
                s.run,
                s.start.as_secs_f64(),
                s.end.as_secs_f64()
            )?;
        }
        out.flush()
    }
}

fn secs(s: &Span) -> f64 {
    (s.end - s.start).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let tr = Tracer::new();
        let v = tr.span("solve", || tr.span("a", || 1) + tr.span("b", || tr.span("a", || 2)));
        assert_eq!(v, 3);
        assert_eq!(tr.calls("a"), 2);
        assert_eq!(tr.calls("solve"), 1);
        assert!(tr.child_busy_s("solve") <= tr.busy_s("solve"));
        tr.count("shots", 3.0);
        tr.count("shots", 2.0);
        assert_eq!(tr.counter("shots"), 5.0);
        assert_eq!(tr.counter("none"), 0.0);
    }
}
