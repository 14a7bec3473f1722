//! Process-global metrics registry: counters, gauges and log2-bucket
//! histograms.
//!
//! Handles are interned by name on first use and live for the process
//! (`Box::leak`); after interning, every update is a single relaxed atomic
//! operation with no allocation — safe to leave in hot paths. The
//! [`crate::counter!`]/[`crate::gauge!`]/[`crate::histogram!`] macros cache
//! the interned handle per call site behind a `OnceLock`, so steady-state
//! cost is one atomic load plus the update.
//!
//! A counter or histogram can also be *windowed*: `counter!(name,
//! windowed)` / `histogram!(name, windowed)` attach a rolling ring from
//! [`crate::window`] to the handle, which every later `add`/`record` also
//! feeds while that layer is armed. It is still one metric under one name
//! in this one registry; a plain lookup of the same name returns the same
//! handle.
//!
//! Histograms use fixed base-2 buckets: bucket 0 counts zeros, bucket `i`
//! (1 ≤ i ≤ 31) counts values in `[2^(i-1), 2^i)`, and the last bucket
//! absorbs everything at or above `2^30`. Values are unitless `u64`s; the
//! workspace convention is microseconds for timings.
//!
//! [`snapshot_prometheus`] renders the registry in Prometheus exposition
//! format, [`snapshot_json`] as a JSON object; [`write_snapshot`] picks the
//! format from the file extension (`.prom` → text, anything else → JSON).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::window::{self, WindowedCounter, WindowedHistogram};

/// Number of histogram buckets (bucket 0 plus 31 powers of two).
pub const N_BUCKETS: usize = 32;

/// A monotonically-increasing counter, optionally with a rolling window
/// (see [`Counter::windowed`]).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    window: OnceLock<Box<WindowedCounter>>,
}

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`, and the rolling window too when this counter is
    /// windowed and [`window::enabled`].
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        // Ring presence first: for a plain counter that is one load from
        // the cache line the add just touched.
        if let Some(w) = self.window.get().filter(|_| window::enabled()) {
            w.add(n);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Makes this counter windowed (idempotent) and returns it: from now
    /// on it renders `_window_total`/`_window_rate` series as well. Usually
    /// reached through `counter!(name, windowed)`.
    pub fn windowed(&self) -> &Counter {
        self.window.get_or_init(Box::default);
        self
    }

    /// The rolling window, if this counter is windowed.
    pub fn window(&self) -> Option<&WindowedCounter> {
        self.window.get().map(|w| &**w)
    }
}

/// A last-write-wins floating-point gauge (stored as `f64` bits).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A fixed-bucket log2 histogram of `u64` samples, optionally with a
/// rolling window (see [`Histogram::windowed`]).
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
    window: OnceLock<Box<WindowedHistogram>>,
}

/// Bucket index for a sample: 0 for 0, else `floor(log2(v)) + 1`, capped.
/// Shared with the windowed ring in [`crate::window`].
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(N_BUCKETS - 1)
    }
}

impl Histogram {
    /// Records one sample (two relaxed atomic adds, no allocation), and
    /// into the rolling window too when this histogram is windowed and
    /// [`window::enabled`].
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        // Ring presence first, as in `Counter::add`.
        if let Some(w) = self.window.get().filter(|_| window::enabled()) {
            w.record(v);
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (bucket 0 = zeros, bucket i = `[2^(i-1), 2^i)`).
    pub fn buckets(&self) -> [u64; N_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Approximate `q`-quantile (`0.0 ≤ q ≤ 1.0`) from the log2 buckets:
    /// the upper bound of the first bucket whose cumulative count reaches
    /// `q · count` (so the true quantile is ≤ the returned value, within a
    /// factor of 2). Returns 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.buckets(), q)
    }

    /// Registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Makes this histogram windowed (idempotent) and returns it: from now
    /// on it renders `_window` series as well. Usually reached through
    /// `histogram!(name, windowed)`.
    pub fn windowed(&self) -> &Histogram {
        self.window.get_or_init(Box::default);
        self
    }

    /// The rolling window, if this histogram is windowed.
    pub fn window(&self) -> Option<&WindowedHistogram> {
        self.window.get().map(|w| &**w)
    }
}

/// Approximate `q`-quantile of a log2 bucket array: the upper bound of
/// the first bucket whose cumulative count reaches `q · count` (so the
/// true quantile is ≤ the returned value, within a factor of 2). Returns
/// 0 when empty. Shared by [`Histogram::quantile`] and the windowed
/// snapshots in [`crate::window`].
pub(crate) fn quantile_from_buckets(buckets: &[u64; N_BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut cumulative = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        cumulative += b;
        if cumulative >= rank {
            // Bucket 0 holds exact zeros; bucket i covers [2^(i-1), 2^i).
            return if i == 0 { 0 } else { (1u64 << i) - 1 };
        }
    }
    u64::MAX
}

#[derive(Clone, Copy)]
enum Entry {
    C(&'static Counter),
    G(&'static Gauge),
    H(&'static Histogram),
}

/// The one registry, keyed by name; a `BTreeMap` so walks come out
/// sorted by name.
static REGISTRY: Mutex<BTreeMap<&'static str, Entry>> = Mutex::new(BTreeMap::new());

/// Returns the entry registered as `name`, registering `make(name)` on
/// first use. The registry lock is released on return, so a caller that
/// panics on a kind mismatch cannot poison it.
fn intern(name: &str, make: fn(&'static str) -> Entry) -> Entry {
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    if let Some(&e) = reg.get(name) {
        return e;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    let e = make(leaked);
    reg.insert(leaked, e);
    e
}

fn kind_mismatch(name: &str) -> ! {
    panic!("metric {name} already registered with a different kind");
}

/// Interns (or retrieves) the counter named `name`.
///
/// # Panics
/// If `name` is already registered as a gauge or histogram.
pub fn counter(name: &str) -> &'static Counter {
    let make = |name| {
        Entry::C(Box::leak(Box::new(Counter {
            name,
            value: AtomicU64::new(0),
            window: OnceLock::new(),
        })))
    };
    match intern(name, make) {
        Entry::C(c) => c,
        _ => kind_mismatch(name),
    }
}

/// Interns (or retrieves) the gauge named `name`.
///
/// # Panics
/// If `name` is already registered as a counter or histogram.
pub fn gauge(name: &str) -> &'static Gauge {
    let make = |name| {
        Entry::G(Box::leak(Box::new(Gauge {
            name,
            bits: AtomicU64::new(0f64.to_bits()),
        })))
    };
    match intern(name, make) {
        Entry::G(g) => g,
        _ => kind_mismatch(name),
    }
}

/// Interns (or retrieves) the histogram named `name`.
///
/// # Panics
/// If `name` is already registered as a counter or gauge.
pub fn histogram(name: &str) -> &'static Histogram {
    let make = |name| {
        Entry::H(Box::leak(Box::new(Histogram {
            name,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            window: OnceLock::new(),
        })))
    };
    match intern(name, make) {
        Entry::H(h) => h,
        _ => kind_mismatch(name),
    }
}

type Entries = (
    Vec<&'static Counter>,
    Vec<&'static Gauge>,
    Vec<&'static Histogram>,
);

/// Every registered metric split by kind, each sorted by name. The
/// building block for both the cumulative and the windowed renderers.
pub(crate) fn sorted_entries() -> Entries {
    let reg = REGISTRY.lock().expect("metrics registry poisoned");
    let mut entries: Entries = (Vec::new(), Vec::new(), Vec::new());
    for e in reg.values() {
        match *e {
            Entry::C(c) => entries.0.push(c),
            Entry::G(g) => entries.1.push(g),
            Entry::H(h) => entries.2.push(h),
        }
    }
    entries
}

/// Writes a finite f64 as a JSON number (`null` for NaN/inf).
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Writes the cumulative `<prefix>_bucket{le="..."}` lines of a log2
/// histogram, with power-of-two bounds.
pub(crate) fn push_prom_buckets(out: &mut String, prefix: &str, buckets: &[u64; N_BUCKETS]) {
    let mut cumulative = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        cumulative += b;
        // Bucket i counts values < 2^i (bucket 0: the zeros).
        if i == N_BUCKETS - 1 {
            let _ = writeln!(out, "{prefix}_bucket{{le=\"+Inf\"}} {cumulative}");
        } else {
            let _ = writeln!(out, "{prefix}_bucket{{le=\"{}\"}} {cumulative}", 1u64 << i);
        }
    }
}

/// Writes a bucket array as a JSON array of counts.
pub(crate) fn push_json_buckets(out: &mut String, buckets: &[u64; N_BUCKETS]) {
    out.push('[');
    for (j, b) in buckets.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push(']');
}

/// Renders the registry in Prometheus exposition format. Histograms use
/// the cumulative `_bucket{le="..."}` convention with power-of-two bounds.
pub fn snapshot_prometheus() -> String {
    let (counters, gauges, histograms) = sorted_entries();
    let mut out = String::new();
    for c in counters {
        let (name, v) = (c.name(), c.get());
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for g in gauges {
        let (name, v) = (g.name(), g.get());
        let _ = writeln!(out, "# TYPE {name} gauge");
        if v.is_finite() {
            let _ = writeln!(out, "{name} {v}");
        } else {
            let _ = writeln!(out, "{name} NaN");
        }
    }
    for h in histograms {
        let name = h.name();
        let _ = writeln!(out, "# TYPE {name} histogram");
        push_prom_buckets(&mut out, name, &h.buckets());
        let _ = writeln!(out, "{name}_sum {}", h.sum());
        let _ = writeln!(out, "{name}_count {}", h.count());
    }
    out
}

/// Renders the registry as a JSON object:
/// `{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,buckets}}}`.
pub fn snapshot_json() -> String {
    let (counters, gauges, histograms) = sorted_entries();
    let mut out = String::from("{\"counters\":{");
    for (i, c) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", c.name(), c.get());
    }
    out.push_str("},\"gauges\":{");
    for (i, g) in gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", g.name());
        push_json_f64(&mut out, g.get());
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":",
            h.name(),
            h.count(),
            h.sum()
        );
        push_json_buckets(&mut out, &h.buckets());
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Writes a snapshot to `path`: Prometheus text for `.prom`, JSON
/// otherwise. Parent directories are created as needed.
pub fn write_snapshot(path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let text = if path.extension().is_some_and(|e| e == "prom") {
        snapshot_prometheus()
    } else {
        snapshot_json() + "\n"
    };
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1 << 29), 30);
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = counter("halk_metrics_test_total");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        // Re-interning returns the same handle.
        assert!(std::ptr::eq(c, counter("halk_metrics_test_total")));

        let g = gauge("halk_metrics_test_gauge");
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
    }

    #[test]
    fn histogram_counts_and_sums() {
        let h = histogram("halk_metrics_test_hist_us");
        let (c0, s0) = (h.count(), h.sum());
        h.record(0);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count(), c0 + 3);
        assert_eq!(h.sum(), s0 + 1003);
        let b = h.buckets();
        assert!(b[0] >= 1, "zero lands in bucket 0");
        assert!(b[2] >= 1, "3 lands in bucket 2");
        assert!(b[10] >= 1, "1000 lands in bucket 10 ([512,1024))");
    }

    #[test]
    fn quantiles_track_bucket_upper_bounds() {
        let h = histogram("halk_metrics_test_quantile_us");
        assert_eq!(h.quantile(0.5), 0, "empty histogram quantile is 0");
        for _ in 0..99 {
            h.record(3); // bucket 2: [2, 4)
        }
        h.record(1000); // bucket 10: [512, 1024)
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.0), 3);
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(h.quantile(0.99), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        counter("halk_metrics_test_kind_clash");
        gauge("halk_metrics_test_kind_clash");
    }

    #[test]
    fn snapshots_are_well_formed() {
        counter("halk_metrics_test_snap_total").add(2);
        gauge("halk_metrics_test_snap_gauge").set(0.5);
        histogram("halk_metrics_test_snap_us").record(42);
        let prom = snapshot_prometheus();
        assert!(prom.contains("halk_metrics_test_snap_total 2"));
        assert!(prom.contains("# TYPE halk_metrics_test_snap_us histogram"));
        assert!(prom.contains("halk_metrics_test_snap_us_bucket{le=\"+Inf\"}"));
        let js = snapshot_json();
        assert!(js.contains("\"halk_metrics_test_snap_total\":2"));
        assert!(js.contains("\"halk_metrics_test_snap_gauge\":0.5"));
    }
}
