//! In-memory spans around the benchmark's calls into each layer,
//! written out as JSON lines when the run ends. Off in untraced runs:
//! then every call is a branch on `on` and nothing is stored.

use std::io::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `gateway.launch`.
    pub name: &'static str,
    /// Identifies the span; sessions use their global index.
    pub id: u64,
    /// The span that caused this one (0 for the run itself).
    pub parent: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// A span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

/// Span ids below this are session indices; call spans count up from it.
const CALL_IDS: u64 = 1 << 32;

impl Tracer {
    /// A tracer; when `on`, room for `capacity` spans is reserved up
    /// front so recording does not allocate mid-phase.
    pub fn new(on: bool, epoch: Instant, capacity: usize) -> Self {
        let spans = if on { Vec::with_capacity(capacity) } else { Vec::new() };
        Tracer { on, epoch, next_id: CALL_IDS, spans }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span { name, id, parent, start_ns, end_ns });
        }
    }

    /// A fresh span id for a span recorded later with [`Tracer::record`].
    pub fn new_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Runs `f` inside a fresh span named `name` under `parent` and
    /// returns its result.
    pub fn call<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.new_id();
        let start = Instant::now();
        let out = f();
        self.record(name, id, parent, start, Instant::now());
        out
    }

    /// Moves another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"name":"{}","id":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
