//! In-memory host-clock spans recorded around calls into each layer.
//!
//! A [`Tracer`] hands out [`SpanGuard`]s; each guard records its name,
//! host start/end, the span open on the same thread when it started (its
//! parent), and the world and rank it ran on. Spans stay in memory until
//! the benchmark writes them out at the end. A disabled tracer records
//! nothing, so the same composed run also gives the untraced wall time
//! that tracing overhead is measured against.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. Times are host seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// `<layer>.<call>`, e.g. `sem.step`.
    pub name: &'static str,
    /// Which rank world the span ran in (`sim`, `endpoint`, ...).
    pub world: &'static str,
    pub rank: usize,
    pub start: f64,
    pub end: f64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Cheap to clone; clones share one span store.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A tracer whose spans cost one branch and record nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, world: &'static str, rank: usize) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { open: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        SpanGuard {
            open: Some(OpenSpan {
                inner: Arc::clone(inner),
                span: Span {
                    id,
                    parent,
                    name,
                    world,
                    rank,
                    start: inner.epoch.elapsed().as_secs_f64(),
                    end: 0.0,
                },
            }),
        }
    }

    /// Every closed span so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => inner.spans.lock().expect("span store poisoned").clone(),
            None => Vec::new(),
        }
    }
}

struct OpenSpan {
    inner: Arc<Inner>,
    span: Span,
}

/// Closes its span on drop.
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut open) = self.open.take() else {
            return;
        };
        open.span.end = open.inner.epoch.elapsed().as_secs_f64();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|&id| id == open.span.id) {
                o.remove(pos);
            }
        });
        let OpenSpan { inner, span } = open;
        // Never panic in drop: a poisoned store just loses this span.
        let Ok(mut store) = inner.spans.lock() else {
            return;
        };
        store.push(span);
    }
}

/// Total length of the union of `intervals`.
pub fn union_len(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// For each span id, the length of its interval covered by its children
/// (clipped to the parent's interval, overlaps counted once).
fn covered_by_children(spans: &[Span]) -> BTreeMap<u64, f64> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            let clipped = (s.start.max(p.start), s.end.min(p.end));
            if clipped.1 > clipped.0 {
                children.entry(p.id).or_default().push(clipped);
            }
        }
    }
    children
        .into_iter()
        .map(|(id, mut iv)| (id, union_len(&mut iv)))
        .collect()
}

/// A span's self time: its duration minus the time its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let covered = covered_by_children(spans);
    spans
        .iter()
        .map(|s| {
            let c = covered.get(&s.id).copied().unwrap_or(0.0);
            (s.id, (s.duration() - c).max(0.0))
        })
        .collect()
}

/// Self time summed per layer, over every world and rank.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0.0) += selfs[&s.id];
    }
    out
}

/// Share of the root span's wall time that its descendants cover: the
/// attributed fraction of one rank's traced run. 0.0 if `root` is absent
/// or empty.
pub fn attributed_fraction(spans: &[Span], root: u64) -> f64 {
    let Some(r) = spans.iter().find(|s| s.id == root) else {
        return 0.0;
    };
    if r.duration() <= 0.0 {
        return 0.0;
    }
    let covered = covered_by_children(spans)
        .get(&root)
        .copied()
        .unwrap_or(0.0);
    covered / r.duration()
}

/// Durations (seconds) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            world: "sim",
            rank: 0,
            start,
            end,
        }
    }

    #[test]
    fn union_counts_overlaps_once() {
        let mut iv = vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)];
        assert!((union_len(&mut iv) - 4.0).abs() < 1e-12);
        assert_eq!(union_len(&mut []), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,10] with children [1,4] and [5,7] and a grandchild [1,2]
        // under the first child.
        let spans = vec![
            span(1, None, "bench.rank", 0.0, 10.0),
            span(2, Some(1), "sem.step", 1.0, 4.0),
            span(3, Some(1), "render.frame", 5.0, 7.0),
            span(4, Some(2), "commsim.allreduce", 1.0, 2.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[&1] - 5.0).abs() < 1e-12);
        assert!((selfs[&2] - 2.0).abs() < 1e-12);
        assert!((selfs[&3] - 2.0).abs() < 1e-12);
        assert!((selfs[&4] - 1.0).abs() < 1e-12);
        let layers = layer_self_times(&spans);
        assert!((layers["bench"] - 5.0).abs() < 1e-12);
        assert!((layers["sem"] - 2.0).abs() < 1e-12);
        assert!((layers["commsim"] - 1.0).abs() < 1e-12);
        // Self times of nested spans partition the root's wall time.
        let total: f64 = layers.values().sum();
        assert!((total - 10.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span(1, None, "bench.rank", 0.0, 10.0),
            span(2, Some(1), "sem.step", 1.0, 4.0),
            span(3, Some(1), "render.frame", 3.0, 6.0),
        ];
        assert!((self_times(&spans)[&1] - 5.0).abs() < 1e-12, "10 - |[1,6]|");
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(1, None, "bench.rank", 0.0, 4.0),
            span(2, Some(1), "sem.step", 3.0, 9.0),
        ];
        assert!((self_times(&spans)[&1] - 3.0).abs() < 1e-12);
        assert!((attributed_fraction(&spans, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn attribution_is_the_covered_share_of_the_root() {
        let spans = vec![
            span(1, None, "bench.rank", 0.0, 8.0),
            span(2, Some(1), "sem.step", 0.0, 4.0),
            span(3, Some(1), "render.frame", 4.0, 6.0),
        ];
        assert!((attributed_fraction(&spans, 1) - 0.75).abs() < 1e-12);
        assert_eq!(attributed_fraction(&spans, 99), 0.0);
    }

    #[test]
    fn tracer_nests_spans_per_thread() {
        let t = Tracer::enabled();
        {
            let _root = t.span("bench.rank", "sim", 0);
            let _a = t.span("sem.step", "sim", 0);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "bench.rank").unwrap();
        let child = spans.iter().find(|s| s.name == "sem.step").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        assert!(child.start >= root.start && child.end <= root.end);
        assert!(Tracer::disabled().spans().is_empty());
    }
}
