//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, thread)`. Spans are kept in
//! per-thread buffers while the workload runs and merged when it ends, so
//! recording costs two clock reads and a `Vec` push. The layer of a span
//! is its name up to the first `.` (`collector.pipeline` → `collector`),
//! which matches the crate that the timed call belongs to.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the process epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    pub thread: u64,
}

struct ThreadBuf {
    thread: u64,
    spans: Vec<Span>,
    /// Indices (into `spans`) of the spans still open on this thread.
    open: Vec<usize>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static FINISHED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Runs `f` inside a span named `name` when recording is on, and just
/// runs it otherwise.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let idx = BUF.with(|b| {
        let mut b = b.borrow_mut();
        let parent = b.open.last().copied();
        let thread = b.thread;
        b.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            thread,
        });
        let idx = b.spans.len() - 1;
        b.open.push(idx);
        idx
    });
    let out = f();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.spans[idx].end_ns = now_ns();
        b.open.pop();
    });
    out
}

/// Hands this thread's finished spans to the global collection. Every
/// thread that recorded spans calls this before it exits.
pub fn flush_thread() {
    let spans = BUF.with(|b| std::mem::take(&mut b.borrow_mut().spans));
    if !spans.is_empty() {
        FINISHED
            .lock()
            .expect("span collection lock poisoned by a panicking thread")
            .push(spans);
    }
}

/// Takes every span recorded so far (the caller's thread included),
/// with parent indices rebased onto the returned vector.
pub fn take_all() -> Vec<Span> {
    flush_thread();
    let groups = std::mem::take(
        &mut *FINISHED
            .lock()
            .expect("span collection lock poisoned by a panicking thread"),
    );
    let mut out = Vec::new();
    for group in groups {
        let base = out.len();
        out.extend(group.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self seconds per span name: a span's duration minus the time its
/// direct children cover.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(*child);
        *out.entry(s.name).or_default() += own as f64 / 1e9;
    }
    out
}

/// Writes the spans as JSON lines (`name`, `start_ns`, `end_ns`,
/// `parent`, `thread`), one span per line.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"thread\": {}}}",
            s.name, s.start_ns, s.end_ns, s.thread
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "a.outer",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                thread: 0,
            },
            Span {
                name: "b.inner",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                thread: 0,
            },
        ];
        let s = self_seconds(&spans);
        assert!((s["a.outer"] - 70e-9).abs() < 1e-15);
        assert!((s["b.inner"] - 30e-9).abs() < 1e-15);
    }
}
