//! In-memory span recorder for the traced run, and the self-time analysis
//! that turns spans into per-layer metrics.
//!
//! A span is `(id, parent, run, name, label, start, end)`: `parent` is the
//! span that caused it (0 = root), `run` groups the spans of one app run or
//! one tenant, and `label` names the app when a span belongs to one. Spans
//! are kept in memory while the workload runs and written out at exit.
//! Recording is off unless [`set_enabled`] turned it on, so the untraced
//! run pays one relaxed load per boundary.
//!
//! Harness code passes parents explicitly. The workload and policy
//! wrappers ([`crate::timed`]) run inside `Executor` calls, possibly on a
//! scheduler worker thread, so they take their parent from the calling
//! thread's [`parent`] slot, which the harness (or, for a tenant round,
//! the round span itself) sets before the call.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub run: u32,
    pub name: &'static str,
    pub label: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span; [`end`] records it.
#[derive(Debug)]
pub struct Token {
    id: u32,
    parent: u32,
    run: u32,
    name: &'static str,
    label: Option<&'static str>,
    start_ns: u64,
}

impl Token {
    pub fn id(&self) -> u32 {
        self.id
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static PARENT: Cell<u32> = const { Cell::new(0) };
}

/// Nanoseconds since the first call in this process (a monotonic clock
/// shared by every thread).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open a span under `parent`; `None` when tracing is off.
pub fn begin(
    name: &'static str,
    label: Option<&'static str>,
    run: u32,
    parent: u32,
) -> Option<Token> {
    enabled().then(|| Token {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        run,
        name,
        label,
        start_ns: now_ns(),
    })
}

/// Close and record a span opened by [`begin`].
pub fn end(token: Option<Token>) {
    if let Some(t) = token {
        let span = Span {
            id: t.id,
            parent: t.parent,
            run: t.run,
            name: t.name,
            label: t.label,
            start_ns: t.start_ns,
            end_ns: now_ns(),
        };
        SPANS
            .lock()
            .expect("span buffer lock is never held across a panic")
            .push(span);
    }
}

/// Id of an open span, 0 (the root) when tracing is off.
pub fn id_of(token: &Option<Token>) -> u32 {
    token.as_ref().map_or(0, Token::id)
}

/// Run `f` inside a span under `parent`, with the calling thread's parent
/// slot pointing at the new span so wrapper spans nest under it.
pub fn scoped<R>(
    name: &'static str,
    label: Option<&'static str>,
    run: u32,
    parent: u32,
    f: impl FnOnce(u32) -> R,
) -> R {
    if !enabled() {
        return f(0);
    }
    let token = begin(name, label, run, parent);
    let id = id_of(&token);
    let saved = set_parent(id);
    let out = f(id);
    set_parent(saved);
    end(token);
    out
}

/// Parent for spans the wrappers open on this thread.
pub fn parent() -> u32 {
    PARENT.with(Cell::get)
}

/// Point this thread's parent slot at `id`; returns the previous value.
pub fn set_parent(id: u32) -> u32 {
    PARENT.with(|p| p.replace(id))
}

/// Take every recorded span, leaving the buffer empty.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span buffer lock is never held across a panic"),
    )
}

/// Total length of the union of `[start, end)` intervals, clipped to
/// `[lo, hi)`.
pub fn union_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-span self time: duration minus the union of its children's
/// intervals. Children whose parent was never recorded (a round cut short
/// by a scripted crash) keep their full duration and subtract from nothing.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - union_ns(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Self and total time per span name (and per `(name, label)`), seconds.
#[derive(Debug, Default)]
pub struct Rollup {
    pub self_s: BTreeMap<&'static str, f64>,
    pub total_s: BTreeMap<&'static str, f64>,
    pub self_by_label: BTreeMap<(&'static str, &'static str), f64>,
}

impl Rollup {
    pub fn of(spans: &[Span]) -> Self {
        let mut r = Rollup::default();
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let self_s = self_ns as f64 / 1e9;
            *r.self_s.entry(s.name).or_default() += self_s;
            *r.total_s.entry(s.name).or_default() += (s.end_ns - s.start_ns) as f64 / 1e9;
            if let Some(label) = s.label {
                *r.self_by_label.entry((s.name, label)).or_default() += self_s;
            }
        }
        r
    }

    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn total_of(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn self_of_label(&self, name: &'static str, label: &'static str) -> f64 {
        self.self_by_label
            .get(&(name, label))
            .copied()
            .unwrap_or(0.0)
    }
}

/// Spans as tab-separated text, one per line, with their self time.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\trun\tname\tlabel\tstart_ns\tend_ns\tself_ns\n");
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{self_ns}",
            s.id,
            s.parent,
            s.run,
            s.name,
            s.label.unwrap_or("-"),
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name: "x",
            label: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)], 8, 25), 12);
        assert_eq!(union_ns(Vec::new(), 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 2, 10, 20),
            span(5, 99, 0, 7),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10, 7]);
    }
}
