//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer: name, start, end, parent span and request id. They stay in
//! memory and are written out once, when the run ends. A layer's self
//! time is its span's length minus the part of that interval its child
//! spans cover.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// Parent span id.
    pub parent: Option<u64>,
    /// Request the span belongs to.
    pub request: u64,
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

/// Collects spans while enabled.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A disabled tracer with its epoch at `now`.
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span given in epoch nanoseconds; returns its id.
    pub fn record_ns(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Records a span between two instants; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.record_ns(name, parent, request, self.ns(start), self.ns(end))
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its length minus the union of its
/// children's intervals inside it.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Total self milliseconds per layer name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        serde_json::to_writer(&mut w, s).map_err(std::io::Error::other)?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new();
        let root = t.record_ns("request", None, 1, 0, 100);
        let front = t.record_ns("frontend", Some(root), 1, 10, 90);
        // two parallel children overlapping each other: union 20..70
        t.record_ns("transport", Some(front), 1, 20, 60);
        t.record_ns("transport", Some(front), 1, 30, 70);
        // a child sticking out of its parent only counts inside it
        t.record_ns("engine", Some(root), 1, 95, 120);
        let spans = t.take();
        let by = self_ms_by_name(&spans);
        let ns = self_ns(&spans);
        assert_eq!(ns[0], 100 - 80 - 5);
        assert_eq!(ns[1], 80 - 50);
        assert_eq!(ns[2], 40);
        assert_eq!(ns[3], 40);
        assert!((by["transport"] - 80e-6).abs() < 1e-12);
        assert!(t.take().is_empty());
    }
}
