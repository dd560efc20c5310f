//! In-memory spans recorded around calls into the library's public
//! functions, and the per-layer self-time table derived from them.
//!
//! A span has a name (`crate.function`), a start, an end and a parent.
//! Spans are measured with the host clock around a call; a few are
//! *derived* instead — placed from durations the library itself reports
//! (the run manifest's per-mode MTTKRP seconds) or from a timed re-run of
//! the same calls (dense algebra). Derived spans are flagged in the Chrome
//! trace so a reader can tell the two apart.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use serde_json::{json, Value};

/// One recorded interval, in seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub derived: bool,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread. Nesting follows the call stack:
/// a span opened while another is open becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Seconds since the tracer's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                name,
                start: self.now(),
                end: f64::NAN,
                parent: self.open.borrow().last().copied(),
                derived: false,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.now();
        out
    }

    /// Adds a derived span under `parent`.
    pub fn derived(&self, name: &'static str, start: f64, end: f64, parent: usize) {
        self.spans.borrow_mut().push(Span {
            name,
            start,
            end,
            parent: Some(parent),
            derived: true,
        });
    }

    /// Index the next recorded span will get.
    pub fn next_id(&self) -> usize {
        self.spans.borrow().len()
    }

    /// A copy of span `id`.
    pub fn get(&self, id: usize) -> Span {
        self.spans.borrow()[id].clone()
    }

    /// Indices of the spans named `name` recorded at or after `from`.
    pub fn named_since(&self, name: &str, from: usize) -> Vec<usize> {
        let spans = self.spans.borrow();
        (from..spans.len())
            .filter(|&i| spans[i].name == name)
            .collect()
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut trace = simprof::ChromeTrace::new();
        trace.name_process(0, "mttkrp-bench");
        trace.name_track(0, 0, "host");
        for s in self.spans.borrow().iter() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            trace.slice(
                s.name,
                cat,
                0,
                0,
                s.start * 1e6,
                s.dur() * 1e6,
                json!({ "derived": s.derived }),
            );
        }
        trace.write_to(path)
    }
}

/// Self time and call count of one layer (one span name).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub self_s: f64,
    pub calls: u64,
}

/// Self time per span name over the subtree rooted at `root`: each span's
/// duration minus its children's. The root's own self time is the part
/// of the run no named layer covers.
pub fn layer_times(spans: &[Span], root: usize) -> BTreeMap<&'static str, LayerTime> {
    let mut child_sum = vec![0.0f64; spans.len()];
    let mut in_tree = vec![false; spans.len()];
    in_tree[root] = true;
    // Parents are always recorded before their children.
    for (i, s) in spans.iter().enumerate().skip(root + 1) {
        if let Some(p) = s.parent.filter(|&p| in_tree[p]) {
            in_tree[i] = true;
            child_sum[p] += s.dur();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if in_tree[i] {
            let e = out.entry(s.name).or_default();
            e.self_s += s.dur() - child_sum[i];
            e.calls += 1;
        }
    }
    out
}

/// The `layers.json` document: per layer, the median self time over the
/// traced repetitions, calls per repetition, and share of the median
/// repetition's wall time.
pub fn layers_json(
    workload: &str,
    per_rep: &[BTreeMap<&'static str, LayerTime>],
    wall_s: f64,
) -> Value {
    let mut names: Vec<&'static str> = per_rep.iter().flat_map(|m| m.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let rows: Vec<Value> = names
        .iter()
        .map(|&name| {
            let self_s = super::median(
                per_rep
                    .iter()
                    .map(|m| m.get(name).map_or(0.0, |l| l.self_s))
                    .collect(),
            );
            let calls = per_rep[0].get(name).map_or(0, |l| l.calls);
            json!({
                "layer": name,
                "self_s": self_s,
                "calls": calls,
                "share": self_s / wall_s,
            })
        })
        .collect();
    json!({ "workload": workload, "wall_s": wall_s, "layers": rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 2.0, 3.0, Some(1)),
            span("b", 6.0, 8.0, Some(0)),
            span("other", 20.0, 30.0, None),
        ];
        let t = layer_times(&spans, 0);
        let self_and_calls = |name: &str| (t[name].self_s, t[name].calls);
        assert_eq!(self_and_calls("root"), (4.0, 1));
        assert_eq!(self_and_calls("a"), (3.0, 1));
        assert_eq!(self_and_calls("b"), (3.0, 2));
        assert!(!t.contains_key("other"));
    }

    #[test]
    fn nested_spans_get_parents() {
        let tr = Tracer::default();
        tr.span("outer", || tr.span("inner", || ()));
        let s = tr.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[1].start >= s[0].start && s[1].end <= s[0].end);
    }
}
