//! Spans around the benchmark's own calls into each crate: name, start,
//! end and parent, kept in memory and written out when the run ends.
//! With tracing off a span costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread, innermost last (0 = no parent).
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// An open span; records itself when dropped.
pub struct Guard(Option<(u64, u64, &'static str, u64)>);

/// Opens a span named `name` under this thread's innermost open span.
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard(Some((id, parent, name, now_ns())))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start_ns)) = self.0 {
            let end_ns = now_ns();
            STACK.with(|s| s.borrow_mut().pop());
            let span = Span { id, parent, name, start_ns, end_ns };
            SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
        }
    }
}

/// Per-name aggregate: sample count, total and self time (a span's
/// duration minus the part its child spans cover).
pub struct LayerTime {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub fn layer_times() -> BTreeMap<&'static str, LayerTime> {
    let spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans.iter() {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_insert(LayerTime { count: 0, total_ms: 0.0, self_ms: 0.0 });
        e.count += 1;
        e.total_ms += dur as f64 / 1e6;
        e.self_ms += own as f64 / 1e6;
    }
    out
}

/// Writes every recorded span as one JSON object per line.
pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
