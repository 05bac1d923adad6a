//! Spans recorded by the benchmark around its calls into the system:
//! name, start, end, the span that caused it, and the operation number.
//! Kept in memory and written out when the run ends. Operation spans are
//! sampled 1 in [`SAMPLE_EVERY`]; checkpoint, open and pass spans are all
//! kept.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One operation in this many gets a span.
pub const SAMPLE_EVERY: u64 = 64;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `core.put`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// The operation number the span belongs to (spans of one operation
    /// share it).
    pub op: u64,
    /// How much wall-clock time each recorded nanosecond stands for: 1,
    /// [`SAMPLE_EVERY`] for a sampled operation, less where sampled spans
    /// overlap (pipelined requests share the clock).
    pub weight: f64,
}

/// An in-memory span log for one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant this log's clock starts at.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `t` as nanoseconds since the origin.
    #[inline]
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, op: u64, weight: f64) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            weight,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Moves span `id`'s start back to `t`.
    pub fn stretch_back(&mut self, id: u32, t: Instant) {
        self.spans[id as usize].start_ns = self.at(t);
    }

    /// Records a finished span.
    #[inline]
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hangs every root span recorded so far, except `root`, under `root`.
    pub fn reparent_roots(&mut self, root: u32) {
        for (i, s) in self.spans.iter_mut().enumerate() {
            if s.parent == ROOT && i as u32 != root {
                s.parent = root;
            }
        }
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Self time per layer (the span name up to its first `.`) under span
/// `root`: each span's duration minus what its recorded children cover,
/// scaled by its weight. `bench.*` spans (the harness's own loops and
/// groupings, `root` included) are left out: the sampled spans' scaled
/// time stands in for what ran inside them.
pub fn layer_self_times(spans: &[Span], root: u32) -> BTreeMap<&'static str, f64> {
    let mut child_time = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_time[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if i as u32 == root || !descends_from(spans, i as u32, root) {
            continue;
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(child_time[i]);
        let layer = s.name.split('.').next().unwrap_or(s.name);
        // The harness's own grouping spans: their self time is what the
        // caller reports as unattributed.
        if layer == "bench" {
            continue;
        }
        *out.entry(layer).or_insert(0.0) += own as f64 * s.weight;
    }
    out
}

fn descends_from(spans: &[Span], mut i: u32, root: u32) -> bool {
    while i != ROOT {
        if i == root {
            return true;
        }
        i = spans[i as usize].parent;
    }
    false
}

/// Durations (ns) of the spans named `name`, ascending.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Count and mean duration (ns) of the spans named `name`.
pub fn mean_ns(spans: &[Span], name: &str) -> (u64, f64) {
    let (mut n, mut sum) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == name) {
        n += 1;
        sum += s.end_ns - s.start_ns;
    }
    (n, if n == 0 { 0.0 } else { sum as f64 / n as f64 })
}

/// Per-layer self times under `root` and `root`'s wall time, with
/// `lanes` threads or connections having run side by side under it (their
/// shares of the wall clock average, not add).
pub fn accounting(spans: &[Span], root: u32, lanes: usize) -> (BTreeMap<&'static str, f64>, f64) {
    let wall = spans
        .get(root as usize)
        .map_or(0, |r| r.end_ns - r.start_ns) as f64;
    let mut layers = layer_self_times(spans, root);
    layers.values_mut().for_each(|v| *v /= lanes as f64);
    (layers, wall)
}

/// The span file: every span as `[name, start_ns, end_ns, parent, op,
/// weight]` plus the per-layer [`accounting`] of the pass under `root`.
pub fn to_json(workload: &str, spans: &[Span], root: u32, lanes: usize) -> Json {
    let (layers, wall) = accounting(spans, root, lanes);
    let attributed: f64 = layers.values().sum();
    Json::obj([
        ("workload", Json::from(workload)),
        ("sample_every", Json::from(SAMPLE_EVERY)),
        ("parallel_lanes", Json::from(lanes as u64)),
        ("pass_wall_ns", Json::from(wall)),
        (
            "layer_self_ns",
            Json::obj(layers.iter().map(|(k, v)| (*k, Json::from(*v)))),
        ),
        ("unattributed_ns", Json::from(wall - attributed)),
        (
            "span_fields",
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "op", "weight"]
                    .map(Json::from)
                    .to_vec(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::from(s.name),
                            Json::from(s.start_ns),
                            Json::from(s.end_ns),
                            if s.parent == ROOT {
                                Json::Null
                            } else {
                                Json::from(s.parent as u64)
                            },
                            Json::from(s.op),
                            Json::from(s.weight),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, weight: f64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            weight,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_scaled_by_weight() {
        let spans = [
            span("bench.pass", 0, 10_000, ROOT, 1.0),
            span("core.put", 100, 200, 0, 64.0),
            span("epoch.checkpoint", 1000, 3000, 0, 1.0),
            span("pmem.flush", 1500, 2500, 2, 1.0),
            span("core.get_ref", 20_000, 20_100, ROOT, 64.0), // another pass
        ];
        let t = layer_self_times(&spans, 0);
        assert_eq!(t["core"], 6400.0);
        assert_eq!(t["epoch"], 1000.0);
        assert_eq!(t["pmem"], 1000.0);
        assert!(!t.contains_key("bench"));
        assert_eq!(mean_ns(&spans, "core.put"), (1, 100.0));

        let j = to_json("w", &spans, 0, 1);
        assert_eq!(j.get("unattributed_ns").unwrap().as_f64(), Some(1600.0));
        assert_eq!(j.get("spans").unwrap().as_arr().unwrap().len(), 5);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let ra = a.begin("bench.pass", ROOT, 0, 1.0);
        a.end(ra);
        let mut b = Tracer::new(origin);
        let rb = b.begin("bench.conn", ROOT, 0, 1.0);
        let c = b.begin("server.get", rb, 1, 1.0);
        b.end(c);
        b.end(rb);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, ROOT);
        a.reparent_roots(0);
        assert_eq!(a.spans()[1].parent, 0);
        assert_eq!(a.spans()[0].parent, ROOT);
    }
}
