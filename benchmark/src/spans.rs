//! In-memory spans, written out once when the run ends. An untraced
//! run carries a recorder that is switched off: every call on it is one
//! predictable branch, and the code under measurement reads the same
//! either way.
//!
//! A span is `{name, start, end, parent, batch_id}`; ids are 1-based
//! positions in the recorder, and a parent is always opened before its
//! children. Parent [`ROOT`] makes a top-level span. [`OFF`] is the id of
//! no span: it is what a recorder that is off hands out, closing it does
//! nothing, and nothing is recorded under it — which is how the load
//! generator stops tracing a phase's batches after the first
//! [`BATCHES_PER_PHASE`] without a branch at every call.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent of a top-level span.
pub const ROOT: u32 = 0;
/// The id of no span.
pub const OFF: u32 = u32::MAX;

/// Batches of one phase (of one round) whose `batch`/`submit`/`wait`
/// spans are recorded. `small_batch` sends a third of a million batches
/// a second; tracing them all made a 100 MB vector whose reallocations
/// stalled the generator for half a second at a time.
pub const BATCHES_PER_PHASE: u64 = 1_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub batch_id: u32,
}

#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    /// A recorder whose clock starts now; records only if `on`.
    pub fn new(on: bool) -> Self {
        Self { on, t0: Instant::now(), list: Vec::new() }
    }

    /// An empty recorder on this one's clock (for another thread; merge
    /// it back with [`Spans::absorb`]).
    pub fn sharing_clock(&self) -> Self {
        Self { on: self.on, t0: self.t0, list: Vec::new() }
    }

    /// Pauses or resumes recording.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span now; [`Spans::close`] ends it. Returns [`OFF`] when
    /// the recorder is off or `parent` is.
    pub fn open(&mut self, name: &'static str, parent: u32, batch_id: u32) -> u32 {
        if !self.on || parent == OFF {
            return OFF;
        }
        let start_ns = self.now_ns();
        self.list.push(Span { name, start_ns, end_ns: start_ns, parent, batch_id });
        self.list.len() as u32
    }

    pub fn close(&mut self, id: u32) {
        if id != OFF {
            self.list[id as usize - 1].end_ns = self.now_ns();
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent, 0);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another recorder's spans (say, the updater thread's),
    /// re-basing their parent ids; its top-level ones hang under `parent`.
    pub fn absorb(&mut self, other: Spans, parent: u32) {
        let base = self.list.len() as u32;
        self.list.extend(other.list.into_iter().map(|s| Span {
            parent: if s.parent == ROOT { parent } else { s.parent + base },
            ..s
        }));
    }

    /// Durations (ns) of the spans called `name` whose grandparent is
    /// called `phase` (a phase's batches' `submit` and `wait` children).
    pub fn durations_under(&self, name: &str, phase: &str) -> Vec<f64> {
        let parent_of = |s: &Span| (s.parent != ROOT).then(|| &self.list[s.parent as usize - 1]);
        self.list
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| parent_of(s).and_then(parent_of).is_some_and(|g| g.name == phase))
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// The `"spans": [...]` array of the trace file.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.list.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"batch_id\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.batch_id
            );
        }
        out.push_str("\n]");
        out
    }
}
