//! The timed window, cut into equal slices.
//!
//! This sandbox's host slows a guest down for seconds at a time. A
//! statistic over the whole window moves with every such episode; so each
//! slice is measured on its own and a run reports the **median slice**:
//! throughput, CPU per operation, p50 and p99 alike. In a closed loop a
//! rare long stall delays one operation per thread — one sample in
//! millions, which no p99 sees, sliced or not; what p99 does show is what
//! recurs many times a slice (a checkpoint every 16 ms), and every slice
//! holds that. The whole window's p99 stays in the results file, ungated.

use std::time::{Duration, Instant};

use crate::hist::Hist;
use crate::json::Json;
use crate::report::Outcome;

/// Length of one slice.
pub const SLICE: Duration = Duration::from_millis(500);

/// A slice's `q`-quantile counts once ten samples lie beyond it, and
/// never on fewer than 100.
fn min_samples(q: f64) -> u64 {
    ((10.0 / (1.0 - q)).ceil() as u64).max(100)
}

/// Which latency histogram an operation lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reads (point reads, scans, GETs).
    Read,
    /// Writes (puts, inserts, removes, PUTs).
    Write,
}

/// One thread's (or connection's) recording of a window: a read and a
/// write histogram per slice.
pub struct Lane {
    start: Instant,
    slice: Duration,
    reads: Vec<Hist>,
    writes: Vec<Hist>,
    /// Slice being recorded; `None` before the window opens.
    at: Option<usize>,
    /// When the next slice (or the window) begins.
    boundary: Instant,
}

impl Lane {
    /// A window of `slices` slices of `slice` each, opening at `start`.
    pub fn new(start: Instant, slice: Duration, slices: usize) -> Self {
        Lane {
            start,
            slice,
            reads: (0..slices).map(|_| Hist::new()).collect(),
            writes: (0..slices).map(|_| Hist::new()).collect(),
            at: None,
            boundary: start,
        }
    }

    /// Records an operation that completed at `now` after `ns`
    /// nanoseconds. Returns `false` once the window has closed. Anything
    /// completing before the window opens is warm-up and dropped.
    #[inline]
    pub fn record(&mut self, now: Instant, kind: Kind, ns: u64) -> bool {
        if now >= self.boundary {
            self.advance(now);
        }
        match self.at {
            None => true,
            Some(k) if k >= self.reads.len() => false,
            Some(k) => {
                match kind {
                    Kind::Read => self.reads[k].record(ns),
                    Kind::Write => self.writes[k].record(ns),
                }
                true
            }
        }
    }

    #[cold]
    fn advance(&mut self, now: Instant) {
        let k = ((now - self.start).as_nanos() / self.slice.as_nanos()) as usize;
        self.at = Some(k);
        self.boundary = self.start + self.slice * (k as u32 + 1);
    }

    /// An empty recording of the same window.
    pub fn empty_like(&self) -> Lane {
        Lane::new(self.start, self.slice, self.reads.len())
    }

    /// `true` while the window is open at `now` (or not yet opened).
    pub fn open_at(&self, now: Instant) -> bool {
        now < self.start + self.slice * self.reads.len() as u32
    }
}

/// Process CPU seconds in each of `slices` slices from `start`, sampled
/// by the calling thread at the slice boundaries.
pub fn cpu_per_slice(start: Instant, slices: usize) -> Vec<f64> {
    let mut marks = Vec::with_capacity(slices + 1);
    for k in 0..=slices {
        let at = start + SLICE * k as u32;
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        marks.push(crate::sys::cpu_seconds());
    }
    marks.windows(2).map(|w| w[1] - w[0]).collect()
}

/// A window's slices, all threads merged.
pub struct Slices {
    slice: Duration,
    reads: Vec<Hist>,
    writes: Vec<Hist>,
    /// Process CPU seconds per slice, when measured.
    cpu_s: Vec<f64>,
}

impl Slices {
    /// Merges the lanes of one window (all built with the same shape).
    pub fn merge(lanes: Vec<Lane>) -> Slices {
        let mut it = lanes.into_iter();
        let first = it.next().expect("at least one lane");
        let mut s = Slices {
            slice: first.slice,
            reads: first.reads,
            writes: first.writes,
            cpu_s: Vec::new(),
        };
        for lane in it {
            for (a, b) in s.reads.iter_mut().zip(&lane.reads) {
                a.merge(b);
            }
            for (a, b) in s.writes.iter_mut().zip(&lane.writes) {
                a.merge(b);
            }
        }
        s
    }

    /// Attaches per-slice process CPU seconds (one entry per slice).
    pub fn with_cpu(mut self, cpu_s: Vec<f64>) -> Slices {
        assert_eq!(cpu_s.len(), self.reads.len());
        self.cpu_s = cpu_s;
        self
    }

    fn ops(&self, k: usize) -> u64 {
        self.reads[k].count() + self.writes[k].count()
    }

    fn kops(&self, k: usize) -> f64 {
        self.ops(k) as f64 / self.slice.as_secs_f64() / 1e3
    }

    fn side(&self, kind: Kind) -> &[Hist] {
        match kind {
            Kind::Read => &self.reads,
            Kind::Write => &self.writes,
        }
    }

    /// These slices with every slice `k` where `drop[k]` emptied, so no
    /// statistic counts it.
    pub fn without(mut self, drop: &[bool]) -> Slices {
        for k in (0..self.reads.len()).filter(|&k| drop[k]) {
            self.reads[k] = Hist::new();
            self.writes[k] = Hist::new();
        }
        self
    }

    /// The largest sample of `kind` in slice `k`, ns (0 when empty).
    pub fn slice_max_ns(&self, kind: Kind, k: usize) -> f64 {
        self.side(kind)[k].quantile(1.0)
    }

    /// Operations in the whole window.
    pub fn total_ops(&self) -> u64 {
        (0..self.reads.len()).map(|k| self.ops(k)).sum()
    }

    /// All slices of one kind merged: the whole window.
    pub fn total(&self, kind: Kind) -> Hist {
        let mut h = Hist::new();
        self.side(kind).iter().for_each(|s| h.merge(s));
        h
    }

    /// Median over slices of completed operations per second, in kops.
    pub fn throughput_kops(&self) -> f64 {
        let mut v: Vec<f64> = (0..self.reads.len()).map(|k| self.kops(k)).collect();
        crate::harness::median(&mut v)
    }

    /// Median over slices of process CPU microseconds per operation.
    pub fn cpu_us_per_op(&self) -> f64 {
        let mut v: Vec<f64> = self
            .cpu_s
            .iter()
            .enumerate()
            .filter(|(k, _)| self.ops(*k) > 0)
            .map(|(k, cpu)| cpu * 1e6 / self.ops(k) as f64)
            .collect();
        crate::harness::median(&mut v)
    }

    /// Median over slices of the `q`-quantile of `kind`'s latencies, in
    /// µs. Slices with too few samples of that kind are left out; when all
    /// are, the merged histogram answers.
    pub fn quantile_us(&self, kind: Kind, q: f64) -> f64 {
        let mut v: Vec<f64> = self
            .side(kind)
            .iter()
            .filter(|h| h.count() >= min_samples(q))
            .map(|h| h.quantile(q) / 1e3)
            .collect();
        if v.is_empty() {
            return self.total(kind).quantile(q) / 1e3;
        }
        crate::harness::median(&mut v)
    }

    /// Sets `throughput_kops` and `cpu_us_per_op`, with the per-slice
    /// throughputs as ungated detail.
    pub fn report_rates(&self, out: &mut Outcome) {
        let ops = self.total_ops();
        out.set_n("throughput_kops", self.throughput_kops(), ops);
        out.set_n("cpu_us_per_op", self.cpu_us_per_op(), ops);
        let n = self.reads.len();
        out.extra(
            "slice_kops",
            Json::Arr((0..n).map(|k| Json::from(self.kops(k))).collect()),
        );
        for (name, kind, q) in [
            ("slice_read_p50_us", Kind::Read, 0.5),
            ("slice_read_p99_us", Kind::Read, 0.99),
            ("slice_write_p50_us", Kind::Write, 0.5),
            ("slice_write_p99_us", Kind::Write, 0.99),
        ] {
            out.extra(
                name,
                Json::Arr(
                    self.side(kind)
                        .iter()
                        .map(|h| Json::from(h.quantile(q) / 1e3))
                        .collect(),
                ),
            );
        }
    }

    /// Sets `<side>_p50_us` and `<side>_p99_us` of `kind`, both the
    /// median slice's.
    pub fn report_latency(&self, out: &mut Outcome, kind: Kind) {
        let side = match kind {
            Kind::Read => "read",
            Kind::Write => "write",
        };
        report_side(
            out,
            side,
            &self.total(kind),
            self.quantile_us(kind, 0.5),
            self.quantile_us(kind, 0.99),
        );
    }
}

/// `<side>_p50_us` and `<side>_p99_us` as given; from `total` (every
/// sample of the window) the whole window's p99 and the highest
/// percentile it supports, as ungated detail.
pub fn report_side(out: &mut Outcome, side: &str, total: &Hist, p50_us: f64, p99_us: f64) {
    out.set_n(&format!("{side}_p50_us"), p50_us, total.count());
    out.set_n(&format!("{side}_p99_us"), p99_us, total.count());
    out.extra(
        &format!("{side}_p99_whole_window_us"),
        Json::from(total.quantile(0.99) / 1e3),
    );
    let (p, v) = total.highest_supported();
    out.extra(
        &format!("{side}_highest_supported"),
        Json::obj([
            ("percentile", Json::from(p)),
            ("us", Json::from(v / 1e3)),
            ("samples", Json::from(total.count())),
        ]),
    );
}

/// One whole unit of work measured as a slice of its own length (a cycle
/// of the restart workload).
pub struct Unit {
    /// Read latencies of the unit.
    pub reads: Hist,
    /// Write latencies of the unit.
    pub writes: Hist,
    /// Wall seconds the unit took.
    pub seconds: f64,
    /// Process CPU seconds the unit took.
    pub cpu_s: f64,
}

impl Unit {
    fn ops(&self) -> f64 {
        (self.reads.count() + self.writes.count()) as f64
    }
}

/// Sets the six window metrics: per-unit medians.
pub fn report_units(units: &[Unit], out: &mut Outcome) {
    let med = |f: &dyn Fn(&Unit) -> f64| {
        crate::harness::median(&mut units.iter().map(f).collect::<Vec<_>>())
    };
    let total_ops = units.iter().map(Unit::ops).sum::<f64>() as u64;
    out.set_n(
        "throughput_kops",
        med(&|u| u.ops() / u.seconds / 1e3),
        total_ops,
    );
    out.set_n(
        "cpu_us_per_op",
        med(&|u| u.cpu_s * 1e6 / u.ops()),
        total_ops,
    );
    let (mut reads, mut writes) = (Hist::new(), Hist::new());
    for u in units {
        reads.merge(&u.reads);
        writes.merge(&u.writes);
    }
    report_side(
        out,
        "read",
        &reads,
        med(&|u| u.reads.quantile(0.5) / 1e3),
        med(&|u| u.reads.quantile(0.99) / 1e3),
    );
    report_side(
        out,
        "write",
        &writes,
        med(&|u| u.writes.quantile(0.5) / 1e3),
        med(&|u| u.writes.quantile(0.99) / 1e3),
    );
    out.extra("slices", Json::from(units.len() as u64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_land_in_their_slice_and_the_median_slice_is_reported() {
        let start = Instant::now();
        let slice = Duration::from_millis(10);
        let mut lane = Lane::new(start + slice, slice, 3);
        // Warm-up: dropped.
        assert!(lane.record(start + Duration::from_millis(5), Kind::Read, 1));
        // Slice 0: 1000 reads of 1 µs; slice 1: 2000 of 2 µs, 60 of them
        // 50 µs outliers; slice 2: 1000 of 3 µs.
        for i in 0..1000 {
            assert!(lane.record(start + Duration::from_micros(10_000 + i), Kind::Read, 1_000));
        }
        for i in 0..2000u64 {
            let ns = if i % 33 == 7 { 50_000 } else { 2_000 };
            assert!(lane.record(start + Duration::from_micros(20_000 + i), Kind::Read, ns));
        }
        for i in 0..1000 {
            assert!(lane.record(start + Duration::from_micros(30_000 + i), Kind::Read, 3_000));
        }
        assert!(lane.open_at(start + Duration::from_millis(39)));
        assert!(!lane.open_at(start + Duration::from_millis(40)));
        assert!(!lane.record(start + Duration::from_millis(40), Kind::Read, 1));

        let s = Slices::merge(vec![lane]).with_cpu(vec![0.002, 0.004, 0.002]);
        assert_eq!(s.total_ops(), 4000);
        // 1000, 2000, 1000 ops per 10 ms slice: the median slice ran 100 kops.
        assert_eq!(s.throughput_kops(), 100.0);
        assert_eq!(s.cpu_us_per_op(), 2.0);
        let p50 = s.quantile_us(Kind::Read, 0.5);
        assert!((p50 - 2.0).abs() < 0.05, "{p50}");
        // No slice has 100 writes: the (empty) merged histogram answers.
        assert_eq!(s.quantile_us(Kind::Write, 0.5), 0.0);

        // The slices' p99s are 1, 50 and 3 µs: the median slice's is
        // reported, the whole window's (1.5 % outliers) kept as detail.
        let mut out = Outcome::new("ycsb_a", 1, 1, false);
        s.report_latency(&mut out, Kind::Read);
        let p99 = out.get("read_p99_us").unwrap();
        assert!((p99 - 3.0).abs() < 0.1, "{p99}");
        assert_eq!(out.get("read_p50_us"), Some(p50));
        let whole = out
            .extras
            .iter()
            .find(|(k, _)| k == "read_p99_whole_window_us")
            .and_then(|(_, v)| v.as_f64())
            .unwrap();
        assert!((whole - 50.0).abs() < 1.0, "{whole}");
    }

    #[test]
    fn an_emptied_slice_counts_for_nothing() {
        let start = Instant::now();
        let slice = Duration::from_millis(10);
        let mut lane = Lane::new(start, slice, 3);
        for k in 0..3u64 {
            // Slice 1 is slow throughout.
            let ns = if k == 1 { 50_000 } else { 1_000 };
            for i in 0..200 {
                lane.record(
                    start + Duration::from_micros(k * 10_000 + i),
                    Kind::Read,
                    ns,
                );
            }
        }
        let s = Slices::merge(vec![lane]);
        assert!((s.slice_max_ns(Kind::Read, 1) - 50_000.0).abs() < 1_000.0);
        assert_eq!(s.slice_max_ns(Kind::Write, 1), 0.0);
        assert!(s.total(Kind::Read).quantile(0.99) > 49_000.0);
        let s = s.without(&[false, true, false]);
        assert_eq!(s.total(Kind::Read).count(), 400);
        assert!(s.total(Kind::Read).quantile(0.99) < 1_100.0);
        assert!((s.quantile_us(Kind::Read, 0.5) - 1.0).abs() < 0.05);
    }

    #[test]
    fn a_long_stall_skips_slices_without_losing_alignment() {
        let start = Instant::now();
        let slice = Duration::from_millis(10);
        let mut lane = Lane::new(start, slice, 4);
        lane.record(start + Duration::from_millis(1), Kind::Write, 5);
        // Nothing completes for two and a half slices.
        lane.record(start + Duration::from_millis(36), Kind::Write, 35_000_000);
        let s = Slices::merge(vec![lane]);
        assert_eq!(s.writes[0].count(), 1);
        assert_eq!(s.writes[1].count() + s.writes[2].count(), 0);
        assert_eq!(s.writes[3].count(), 1);
    }
}
