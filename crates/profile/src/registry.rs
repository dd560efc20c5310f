//! The event/counter core: a thread-safe [`Registry`] of monotonic
//! counters and wall-clock spans.
//!
//! Recording is designed to be free when profiling is off: every mutating
//! call first reads one relaxed atomic and returns immediately if the
//! registry is disabled, so instrumented hot paths pay a single predicted
//! branch and never touch the lock.

use crate::histogram::{Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed span: a named interval on the host wall clock, relative
/// to the registry's creation.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SpanRecord {
    pub name: String,
    /// Category tag (Chrome-trace `cat`), e.g. `"sim"` or `"cpd"`.
    pub cat: String,
    /// Start offset from registry creation, microseconds.
    pub start_us: f64,
    pub dur_us: f64,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    spans: Vec<SpanRecord>,
    histograms: BTreeMap<String, Histogram>,
}

/// Thread-safe sink for counters and spans.
///
/// Cloneless sharing is expected: embed it in an `Arc` and hand references
/// to whoever records. A `Registry` starts enabled via [`Registry::new`]
/// or inert via [`Registry::disabled`]; either way the recording API is
/// identical, so call sites need no `if profiling` branches of their own.
pub struct Registry {
    enabled: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Registry")
            .field("enabled", &self.enabled())
            .field("counters", &inner.counters.len())
            .field("spans", &inner.spans.len())
            .finish()
    }
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Self {
        Registry {
            enabled: true,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A registry that drops everything recorded into it. This is what
    /// un-instrumented runs pass through the profiling plumbing.
    pub fn disabled() -> Self {
        Registry {
            enabled: false,
            ..Registry::new()
        }
    }

    /// Whether recording calls do anything. Cheap (one field read) —
    /// callers may consult it to skip argument construction.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `delta` to the named monotonic counter.
    #[inline]
    pub fn add(&self, name: &str, delta: u64) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        match inner.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Records one observation into the named histogram. Bucket
    /// increments are order-independent, so concurrent observers always
    /// converge on the same snapshot regardless of interleaving.
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                inner.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Snapshot of a single histogram (`None` if never observed).
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.inner
            .lock()
            .histograms
            .get(name)
            .map(Histogram::snapshot)
    }

    /// Snapshots of all histograms, sorted by name.
    pub fn histograms(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.inner
            .lock()
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }

    /// Current value of a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.lock().counters.clone()
    }

    /// Opens a RAII span; the interval is recorded when the guard drops.
    /// On a disabled registry the guard is inert.
    pub fn span<'a>(&'a self, name: &str, cat: &str) -> ScopedSpan<'a> {
        if !self.enabled() {
            return ScopedSpan {
                registry: None,
                name: String::new(),
                cat: String::new(),
                started: Instant::now(),
            };
        }
        ScopedSpan {
            registry: Some(self),
            name: name.to_string(),
            cat: cat.to_string(),
            started: Instant::now(),
        }
    }

    /// Records an already-measured span (offsets in microseconds since
    /// registry creation).
    fn record_span(&self, name: &str, cat: &str, start_us: f64, dur_us: f64) {
        if !self.enabled() {
            return;
        }
        self.inner.lock().spans.push(SpanRecord {
            name: name.to_string(),
            cat: cat.to_string(),
            start_us,
            dur_us,
        });
    }

    /// Snapshot of all recorded spans in recording order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.lock().spans.clone()
    }

    /// Microseconds elapsed since this registry was created.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Everything recorded so far, as a JSON document:
    /// `{"counters": {...}, "spans": [...], "histograms": {...}}`.
    pub fn snapshot_json(&self) -> serde_json::Value {
        let inner = self.inner.lock();
        let histograms: BTreeMap<String, HistogramSnapshot> = inner
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        serde_json::json!({
            "counters": serde_json::to_value(&inner.counters),
            "spans": serde_json::to_value(&inner.spans),
            "histograms": serde_json::to_value(&histograms),
        })
    }
}

/// RAII guard returned by [`Registry::span`]; records its lifetime as a
/// [`SpanRecord`] on drop.
pub struct ScopedSpan<'a> {
    registry: Option<&'a Registry>,
    name: String,
    cat: String,
    started: Instant,
}

impl Drop for ScopedSpan<'_> {
    fn drop(&mut self) {
        if let Some(reg) = self.registry {
            let start_us = self.started.duration_since(reg.epoch).as_secs_f64() * 1e6;
            let dur_us = self.started.elapsed().as_secs_f64() * 1e6;
            reg.record_span(&self.name, &self.cat, start_us, dur_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.add("sim.blocks", 3);
        r.add("sim.blocks", 4);
        r.add("sim.warps", 1);
        assert_eq!(r.counter("sim.blocks"), 7);
        assert_eq!(r.counter("sim.warps"), 1);
        assert_eq!(r.counter("absent"), 0);
        let all = r.counters();
        assert_eq!(all.len(), 2);
        assert_eq!(all["sim.blocks"], 7);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::disabled();
        r.add("x", 10);
        r.observe("h", 42);
        {
            let _s = r.span("quiet", "test");
        }
        r.record_span("quiet2", "test", 0.0, 1.0);
        assert_eq!(r.counter("x"), 0);
        assert!(r.spans().is_empty());
        assert!(r.histogram("h").is_none());
        assert!(!r.enabled());
    }

    #[test]
    fn histograms_accumulate_and_snapshot() {
        let r = Registry::new();
        for v in [1u64, 2, 4, 8, 1000] {
            r.observe("sim.block_cycles", v);
        }
        r.observe("ooc.tile_us", 5);
        let h = r.histogram("sim.block_cycles").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        let all = r.histograms();
        assert_eq!(all.len(), 2);
        assert_eq!(all["ooc.tile_us"].count, 1);
        let v = r.snapshot_json();
        assert_eq!(
            v["histograms"]["sim.block_cycles"]["count"].as_u64(),
            Some(5)
        );
    }

    #[test]
    fn scoped_span_records_on_drop() {
        let r = Registry::new();
        {
            let _s = r.span("phase", "cpd");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "phase");
        assert_eq!(spans[0].cat, "cpd");
        assert!(spans[0].dur_us >= 1000.0, "dur {}", spans[0].dur_us);
        assert!(spans[0].start_us >= 0.0);
    }

    #[test]
    fn concurrent_adds_are_not_lost() {
        let r = Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.add("hits", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("hits"), 8000);
    }

    #[test]
    fn snapshot_json_shape() {
        let r = Registry::new();
        r.add("a", 1);
        r.record_span("s", "c", 5.0, 10.0);
        let v = r.snapshot_json();
        assert_eq!(v["counters"]["a"].as_u64(), Some(1));
        let spans = v["spans"].as_array().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0]["name"], "s");
        assert_eq!(spans[0]["dur_us"].as_f64(), Some(10.0));
    }
}
