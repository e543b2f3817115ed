//! Spans recorded from outside the program: one around each call the
//! benchmark makes into a layer's public functions.
//!
//! Spans live in memory (one mutex-guarded vector) and are written out
//! once, when the run ends. Recording is off unless the run is traced;
//! then [`span`] costs a clock read and a vector push per call, never
//! anything inside the program.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One closed span. Times are ns since the process's trace epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Turns span recording on or off for the rest of the process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread (0 when none), for handing a
/// parent to work that runs on another thread.
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// An open span; it closes when dropped.
pub struct Guard {
    span: Option<Span>,
}

/// Opens a span under this thread's innermost open span, or under
/// `fallback_parent` when this thread has none (a worker thread).
pub fn span_under(fallback_parent: u64, layer: &'static str, name: &'static str) -> Guard {
    if !enabled() {
        return Guard { span: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(fallback_parent);
        s.push(id);
        parent
    });
    Guard {
        span: Some(Span {
            id,
            parent,
            layer,
            name,
            start_ns: now_ns(),
            end_ns: 0,
        }),
    }
}

/// Opens a span under this thread's innermost open span.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    span_under(0, layer, name)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.span.take() {
            span.end_ns = now_ns();
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(span);
            }
        }
    }
}

/// Takes every recorded span out of the store.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span store poisoned by a panicking thread"),
    )
}

/// Self time per layer, in ns, over the interval of `root`.
///
/// Each instant of the root's interval is split evenly among the
/// innermost spans open at that instant: spans open on several threads
/// at once share it. A span's self time is therefore its duration less
/// the part its children cover, and the layers' self times sum to the
/// root's duration exactly. The root's own share lands in its layer
/// (`bench`: the benchmark's own code between calls), which is the time
/// left unattributed to the program.
pub fn self_time_by_layer(spans: &[Span], root: u64) -> BTreeMap<&'static str, f64> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let Some(root_span) = by_id.get(&root) else {
        return BTreeMap::new();
    };
    // Keep the root's descendants only, clipped to its interval.
    let in_tree = |s: &Span| {
        let mut p = s.id;
        while p != 0 {
            if p == root {
                return true;
            }
            p = by_id.get(&p).map_or(0, |s| s.parent);
        }
        false
    };
    let tree: Vec<&Span> = spans.iter().filter(|s| in_tree(s)).collect();
    let (t0, t1) = (root_span.start_ns, root_span.end_ns);
    let mut cuts: Vec<u64> = tree
        .iter()
        .flat_map(|s| [s.start_ns.clamp(t0, t1), s.end_ns.clamp(t0, t1)])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    // Sweep the elementary segments; `open` holds each open span's
    // count of open children.
    let mut events: Vec<(u64, bool, &Span)> = Vec::with_capacity(tree.len() * 2);
    for s in &tree {
        events.push((s.start_ns.clamp(t0, t1), true, s));
        events.push((s.end_ns.clamp(t0, t1), false, s));
    }
    // Closes before opens at equal instants, so zero-length gaps stay
    // unattributed to a closed span.
    events.sort_by_key(|(t, open, s)| (*t, *open, s.id));
    let mut open: BTreeMap<u64, usize> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut ev = events.iter().peekable();
    for w in cuts.windows(2) {
        while let Some((t, is_open, s)) = ev.peek() {
            if *t > w[0] {
                break;
            }
            if *is_open {
                open.insert(s.id, 0);
                if let Some(c) = open.get_mut(&s.parent) {
                    *c += 1;
                }
            } else {
                open.remove(&s.id);
                if let Some(c) = open.get_mut(&s.parent) {
                    *c -= 1;
                }
            }
            ev.next();
        }
        let leaves: Vec<u64> = open
            .iter()
            .filter(|(_, c)| **c == 0)
            .map(|(id, _)| *id)
            .collect();
        if leaves.is_empty() {
            continue;
        }
        let share = (w[1] - w[0]) as f64 / leaves.len() as f64;
        for id in leaves {
            *out.entry(by_id[&id].layer).or_insert(0.0) += share;
        }
    }
    out
}

/// Renders spans as JSON lines, one object per span.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "t",
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        // Root 0..100; a grid 10..90 with two concurrent points, one of
        // which calls the oracles.
        let spans = vec![
            sp(1, 0, "bench", 0, 100),
            sp(2, 1, "grid", 10, 90),
            sp(3, 2, "sim", 20, 80),
            sp(4, 2, "sim", 20, 60),
            sp(5, 4, "analysis", 50, 60),
        ];
        let t = self_time_by_layer(&spans, 1);
        let total: f64 = t.values().sum();
        assert!((total - 100.0).abs() < 1e-9, "{t:?}");
        assert!((t["bench"] - 20.0).abs() < 1e-9);
        assert!((t["grid"] - 20.0).abs() < 1e-9);
        // 20..50 split two ways, 50..60 split between sim 3 and the
        // oracle, 60..80 sim 3 alone.
        assert!((t["sim"] - (30.0 + 5.0 + 20.0)).abs() < 1e-9);
        assert!((t["analysis"] - 5.0).abs() < 1e-9);
    }
}
