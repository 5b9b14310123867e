//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a crate (and around the store hooks the wire client calls back
//! into), never from inside the program. Each thread keeps its own
//! stack and buffer; [`finish_thread`] moves a thread's spans into the
//! process-wide sink, and [`drain`] hands them all over when the run
//! ends. With tracing off, [`span`] is one relaxed load and a call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// One timed call. Times are nanoseconds since the process epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `wire.run`.
    pub name: &'static str,
    /// Start, ns since [`epoch`].
    pub start: u64,
    /// End, ns since [`epoch`].
    pub end: u64,
    /// Index of the enclosing span in the same drained buffer.
    pub parent: Option<usize>,
    /// Session (or operation) the span belongs to.
    pub session: u64,
    /// Recording thread, so nesting is only ever within one thread.
    pub thread: u64,
}

impl Span {
    /// The crate the span's call went into: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Default)]
struct ThreadTrace {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static LOCAL: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::default());
}

/// The process epoch every span time is measured from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A small per-thread number, assigned in order of first use.
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True while spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`. `session` of `None` inherits the
/// enclosing span's session.
pub fn span<R>(name: &'static str, session: Option<u64>, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied();
        let session = session
            .or_else(|| parent.map(|p| l.spans[p].session))
            .unwrap_or(0);
        let idx = l.spans.len();
        l.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent,
            session,
            thread: thread_id(),
        });
        l.stack.push(idx);
        idx
    });
    let out = f();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.spans[idx].end = now_ns();
        l.stack.pop();
    });
    out
}

/// Moves this thread's finished spans into the process-wide sink.
pub fn finish_thread() {
    let spans = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        debug_assert!(l.stack.is_empty(), "finish_thread inside an open span");
        std::mem::take(&mut l.spans)
    });
    if spans.is_empty() {
        return;
    }
    let mut sink = SINK
        .lock()
        .expect("span sink poisoned by a panicking thread");
    let base = sink.len();
    sink.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Takes every span recorded so far (call after [`finish_thread`] on
/// every recording thread).
pub fn drain() -> Vec<Span> {
    finish_thread();
    std::mem::take(
        &mut *SINK
            .lock()
            .expect("span sink poisoned by a panicking thread"),
    )
}

/// Self time per span: its duration minus the time its direct children
/// cover. Children of one span never overlap (they run on its thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

/// Total and count of spans named `name`, in nanoseconds.
pub fn total(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(t, n), s| (t + s.dur(), n + 1))
}

/// Sessions per thread whose spans are written out in full; the rest
/// appear only in the per-name summary lines (a traced `durable_resume`
/// run records about 200,000 spans).
const WRITTEN_SESSIONS: u64 = 64;

/// Writes the spans as JSON lines: `header`, one summary line per span
/// name (count, total and self time over every span), then each span of
/// the first [`WRITTEN_SESSIONS`] sessions of each thread.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span], header: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        *e = (e.0 + 1, e.1 + s.dur(), e.2 + t);
    }
    for (name, (count, total, own)) in by_name {
        writeln!(
            out,
            "{{\"summary\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
        )?;
    }
    for (i, (s, t)) in spans.iter().zip(&selfs).enumerate() {
        if s.session & 0xffff_ffff >= WRITTEN_SESSIONS {
            continue;
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{t},\"parent\":{parent},\"session\":{},\"thread\":{}}}",
            s.name, s.start, s.end, s.session, s.thread
        )?;
    }
    out.flush()
}
