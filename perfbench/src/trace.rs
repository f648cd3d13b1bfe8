//! In-memory span recorder for the traced run.
//!
//! Spans are kept in a vector and written out once, at exit. Each span has
//! a name, a start, an end and a parent; a span's *self* time is its
//! duration minus its direct children's. The layer of a span is its name
//! up to the first `.` (`phase2.plan` belongs to `phase2`), and a layer's
//! busy time is the sum of the self times of its spans, so nesting inside
//! one layer never counts twice.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn seconds(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.seconds(c))
            .sum();
        self.seconds(id) - children
    }

    /// Self time summed per layer, over the spans nested under `root`
    /// (inclusive).
    pub fn layer_self_seconds(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for id in root..self.spans.len() {
            if id == root || self.descends_from(id, root) {
                let layer = self.spans[id].name.split('.').next().unwrap_or("");
                *out.entry(layer).or_insert(0.0) += self.self_seconds(id);
            }
        }
        out
    }

    /// Durations of the spans named exactly `name` under `root`, in order.
    pub fn named_each(&self, root: usize, name: &str) -> Vec<f64> {
        (root..self.spans.len())
            .filter(|&id| self.spans[id].name == name && self.descends_from(id, root))
            .map(|id| self.seconds(id))
            .collect()
    }

    /// Total duration of the spans named exactly `name` under `root`.
    pub fn named_seconds(&self, root: usize, name: &str) -> f64 {
        self.named_each(root, name).iter().sum()
    }

    fn descends_from(&self, mut id: usize, root: usize) -> bool {
        while let Some(parent) = self.spans[id].parent {
            if parent == root {
                return true;
            }
            id = parent;
        }
        false
    }

    /// Every span as a JSON array (times in nanoseconds since the tracer
    /// started).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.name, s.start_ns, s.end_ns, parent
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_layers_sum_to_root() {
        let mut tracer = Tracer::new();
        let root = tracer.enter("pipeline");
        let parent = tracer.enter("phase2");
        tracer.time("phase2.plan", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.exit(parent);
        tracer.time("world.spec", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.exit(root);

        let layers = tracer.layer_self_seconds(root);
        let summed: f64 = layers.values().sum();
        assert!((summed - tracer.seconds(root)).abs() < 1e-9);
        assert!(layers["phase2"] >= 0.002 && layers["world"] >= 0.002);
        assert!(tracer.named_seconds(root, "phase2.plan") >= 0.002);
    }
}
