//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded only by the benchmark's own calls into the library
//! (see `adapter.rs`); nothing inside the library is instrumented. Each
//! span carries its name, start and end (ns since the recorder's epoch),
//! its parent on the same thread, the workload and, for service jobs, the
//! job id. Recording is off unless [`enable`] was called, and even then
//! only between [`set_recording`]`(true)` and `(false)`, so untimed checks
//! never add spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDING: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Ids of the open spans on this thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Turns the recorder on for this process (the `--trace 1` mode).
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Opens or closes the recording window; a no-op unless [`enable`]d.
pub fn set_recording(on: bool) {
    RECORDING.store(on && ENABLED.load(Ordering::SeqCst), Ordering::SeqCst);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name`. When not recording this is a
/// plain call.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !RECORDING.load(Ordering::Relaxed) {
        return f();
    }
    // Reserve the id up front so children can name their parent.
    let id = {
        let mut spans = SPANS.lock().expect("span store poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            name,
            start_ns: 0,
            end_ns: 0,
            parent: None,
            job: None,
        });
        id
    };
    let parent = STACK.with(|s| s.borrow().last().copied());
    STACK.with(|s| s.borrow_mut().push(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let mut spans = SPANS.lock().expect("span store poisoned");
    let s = &mut spans[id];
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.parent = parent;
    out
}

/// Records an already-measured interval (used for service job phases,
/// which the client observes from event arrival times).
pub fn record(
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    job: u64,
) -> Option<usize> {
    if !RECORDING.load(Ordering::Relaxed) {
        return None;
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let mut spans = SPANS.lock().expect("span store poisoned");
    let id = spans.len();
    spans.push(Span {
        id,
        name,
        start_ns: ns(start),
        end_ns: ns(end),
        parent,
        job: Some(job),
    });
    Some(id)
}

/// All spans recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span store poisoned").clone()
}

/// Per-layer aggregate over the recorded spans.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    pub durations: Vec<f64>,
    pub self_s: f64,
}

/// Per-layer aggregates keyed by span name.
pub type Layers = BTreeMap<&'static str, LayerStats>;

/// Groups spans by name. A span's self time is its duration minus the
/// part of its interval covered by its child spans (children of one
/// parent may overlap when they come from different threads, so the
/// covered part is the union of their intervals).
pub fn layers(spans: &[Span]) -> Layers {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = Layers::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| union_len(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.durations.push(s.secs());
        e.self_s += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.clamp(lo, hi), b.clamp(lo, hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Serializes the spans as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    );
    for (k, s) in spans.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{workload}\",\"job\":{}}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.job.map_or("null".to_string(), |j| j.to_string()),
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_len(&[(0, 10), (5, 15)], 2, 12), 10);
        assert_eq!(union_len(&[], 0, 10), 0);
    }
}
