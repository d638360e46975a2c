//! In-memory span recorder for traced runs.
//!
//! Spans are recorded only from this benchmark's own code, one around
//! each call it makes into a layer's public API. Each span has a name,
//! a start, an end, its parent (the enclosing span on the same thread)
//! and a request id shared by the spans of one generated request.
//! Recording is off unless [`enable`] was called, so untraced runs pay
//! one relaxed atomic load per call site.

use crate::util::{fnv, FNV_OFFSET};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans on this thread: `(span id, request id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Names of the spans that bracket a workload's measured phases; the
/// time inside them that no other span covers is reported as uncovered.
pub const PHASE_PREFIX: &str = "phase.";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for none.
    pub parent: u64,
    /// Layer call this span brackets, e.g. `sim.engine.run`.
    pub name: &'static str,
    /// Generator-assigned request id (0 outside requests).
    pub req: u64,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Recording thread (hashed id).
    pub thread: u64,
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn thread_tag() -> u64 {
    fnv(
        FNV_OFFSET,
        format!("{:?}", std::thread::current().id()).as_bytes(),
    )
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`. A `req` of 0 inherits the
/// enclosing span's request id.
pub fn span<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, req) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (parent, inherited) = s.last().copied().unwrap_or((0, 0));
        let req = if req == 0 { inherited } else { req };
        s.push((id, req));
        (parent, req)
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let span = Span {
        id,
        parent,
        name,
        req,
        start_ns,
        end_ns,
        thread: thread_tag(),
    };
    SPANS.lock().expect("span buffer poisoned").push(span);
    out
}

/// Measures what one recorded span costs on this host: the mean over a
/// burst of empty spans, which are then discarded.
#[must_use]
pub fn calibrate_span_cost_s() -> f64 {
    const N: usize = 20_000;
    let before = SPANS.lock().expect("span buffer poisoned").len();
    let t = Instant::now();
    for _ in 0..N {
        span("calibrate", 0, || ());
    }
    let cost = t.elapsed().as_secs_f64() / N as f64;
    SPANS.lock().expect("span buffer poisoned").truncate(before);
    cost
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain(|&(s, e)| e > lo && s < hi);
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// What the recorded spans say about the run.
pub struct Summary {
    /// Self time per span name, seconds: duration minus the part its
    /// direct children cover.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Number of spans per name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Seconds inside `phase.*` spans.
    pub phase_s: f64,
    /// Seconds inside `phase.*` spans that no other span covers.
    pub uncovered_s: f64,
    /// Spans recorded (calibration excluded).
    pub spans: u64,
}

/// Summarises the spans recorded so far.
#[must_use]
pub fn summarize() -> Summary {
    let spans = SPANS.lock().expect("span buffer poisoned").clone();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in &spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in &spans {
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        let own = (s.end_ns - s.start_ns).saturating_sub(covered(kids, s.start_ns, s.end_ns));
        *self_s.entry(s.name).or_default() += own as f64 * 1e-9;
        *counts.entry(s.name).or_default() += 1;
    }
    let others: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| !s.name.starts_with(PHASE_PREFIX))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let mut phase_s = 0.0;
    let mut uncovered_s = 0.0;
    for p in spans.iter().filter(|s| s.name.starts_with(PHASE_PREFIX)) {
        let len = p.end_ns - p.start_ns;
        phase_s += len as f64 * 1e-9;
        uncovered_s +=
            len.saturating_sub(covered(others.clone(), p.start_ns, p.end_ns)) as f64 * 1e-9;
    }
    Summary {
        self_s,
        counts,
        phase_s,
        uncovered_s,
        spans: spans.len() as u64,
    }
}

/// Writes every recorded span as one JSON object per line.
///
/// # Errors
///
/// Propagates file-system failures.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    let spans = SPANS.lock().expect("span buffer poisoned").clone();
    let mut out = String::with_capacity(spans.len() * 96);
    for s in &spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns, s.thread
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::covered;

    #[test]
    fn union_of_overlapping_intervals_is_clipped() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)], 2, 25), 13 + 5);
        assert_eq!(covered(vec![], 0, 10), 0);
    }
}
