//! Windowed metrics: rolling histograms and rate counters over the last
//! ~60 seconds, for live daemon telemetry (DESIGN.md §16).
//!
//! The cumulative registry in [`crate::metrics`] answers "what happened
//! since boot"; a long-lived daemon also needs "what is p99 *right now*".
//! Windowedness is a registration-time property of one metric:
//! `histogram!(name, windowed)` (or [`Histogram::windowed`]) attaches a
//! [`WindowedHistogram`] ring to the cumulative handle, and from then on
//! its one `record` call feeds both. Counters work the same way with a
//! [`WindowedCounter`]. There is no second registry: [`tick`] and the
//! renderers below walk the windowed entries of the one in
//! [`crate::metrics`].
//!
//! A [`WindowedHistogram`] keeps a ring of [`N_SLOTS`] log2-bucket
//! histograms. Writers always record into the current slot — one relaxed
//! index load plus the same two relaxed adds as the cumulative histogram —
//! and never reset anything. Rotation is driven externally by
//! [`tick`]/[`WindowedHistogram::maybe_rotate`] on a coarse epoch tick
//! (every [`SLOT_SPAN_US`]): the winning rotator zeroes the *oldest* slot,
//! which writers have not touched for `N_SLOTS - 1` spans, then publishes
//! it as current. A merged snapshot sums all slots, so it always covers
//! the last `N_SLOTS × SLOT_SPAN_US` ≈ 60 s of samples. Both ring shapes
//! share that rotation protocol.
//!
//! Samples can only be lost if a writer stalls for a full ring revolution
//! (~50 s) between loading the slot index and storing the sample — not a
//! realistic schedule; the rotation test in `tests/` hammers this.
//!
//! The whole layer is **off by default**: a windowed metric feeds its ring
//! only after [`set_enabled`] arms the layer (the serve daemon does). On
//! top of the cumulative add, every update checks whether its handle has
//! a ring (one load from the handle's own cache line) and, if it has,
//! loads the arm flag, a relaxed [`AtomicBool`]. The `windowed_record`
//! entries of `bench_hotpath` pin the disarmed and the armed cost down.
//!
//! Rendering appends a `_window` suffix to the registered name:
//! `<name>_window{_bucket,_sum,_count}` plus `<name>_window_p50` /
//! `<name>_window_p99` gauges for histograms, and `<name>_window_total` /
//! `<name>_window_rate` (per second over the full window span) for
//! counters. [`snapshot_prometheus`] and [`snapshot_json`] mirror the
//! cumulative renderers so the scrape endpoint can concatenate both.
//!
//! [`Histogram::windowed`]: crate::metrics::Histogram::windowed

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::metrics::{
    bucket_of, push_json_buckets, push_prom_buckets, quantile_from_buckets, sorted_entries,
    N_BUCKETS,
};

/// Slots in the ring; the window covers `N_SLOTS × SLOT_SPAN_US`.
pub const N_SLOTS: usize = 6;

/// Wall-clock span of one slot, in microseconds (10 s × 6 slots ≈ 60 s).
pub const SLOT_SPAN_US: u64 = 10_000_000;

/// Full window span in microseconds.
pub const WINDOW_SPAN_US: u64 = N_SLOTS as u64 * SLOT_SPAN_US;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Arms (or disarms) windowed collection process-wide. The serve daemon
/// arms it at boot; everything else leaves it off and pays one relaxed
/// load of this flag per update of a windowed metric.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// True when windowed collection is armed.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The ring cursor both ring shapes share: which slot writers use, and
/// when the ring last rotated.
#[derive(Debug, Default)]
struct Cursor {
    cur: AtomicUsize,
    last_rotate_us: AtomicU64,
}

impl Cursor {
    /// The slot writers record into.
    ///
    /// The slot-index load is `Acquire` to pair with the rotator's
    /// `Release` publish: a writer that observes the new index is
    /// guaranteed to see the slot already zeroed, so its adds cannot be
    /// wiped by a racing reset. (Free on x86; one `ldar` on aarch64.)
    #[inline]
    fn current(&self) -> usize {
        self.cur.load(Ordering::Acquire) % N_SLOTS
    }

    /// Rotates the ring if at least one slot span has elapsed since the
    /// last rotation, zeroing one slot per elapsed span through `reset`
    /// (capped at the ring length, so a long idle gap clears the whole
    /// window). Exactly one caller wins a given tick; everyone else
    /// returns 0 immediately. Returns the number of slots advanced.
    fn maybe_rotate(&self, now_us: u64, reset: impl Fn(usize)) -> usize {
        let last = self.last_rotate_us.load(Ordering::Acquire);
        let elapsed = now_us.saturating_sub(last);
        if elapsed < SLOT_SPAN_US {
            return 0;
        }
        if self
            .last_rotate_us
            .compare_exchange(last, now_us, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return 0; // someone else is rotating this tick
        }
        let steps = ((elapsed / SLOT_SPAN_US) as usize).min(N_SLOTS);
        let mut cur = self.cur.load(Ordering::Relaxed);
        for _ in 0..steps {
            cur = (cur + 1) % N_SLOTS;
            reset(cur);
            // Publish after the reset so writers never land in a slot that
            // is about to be zeroed under them.
            self.cur.store(cur, Ordering::Release);
        }
        steps
    }
}

/// One ring slot: the same shape as a cumulative log2 histogram.
#[derive(Debug, Default)]
struct Slot {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
}

impl Slot {
    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// A rolling log2-bucket histogram over the last [`WINDOW_SPAN_US`].
/// Tests build one standalone with `default()`; production rings hang
/// off a windowed [`crate::metrics::Histogram`].
#[derive(Debug, Default)]
pub struct WindowedHistogram {
    slots: [Slot; N_SLOTS],
    cursor: Cursor,
}

/// Merged view of the ring at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Samples in the window.
    pub count: u64,
    /// Sum of samples in the window.
    pub sum: u64,
    /// Merged per-bucket counts (same layout as the cumulative histogram).
    pub buckets: [u64; N_BUCKETS],
}

impl WindowSnapshot {
    /// Approximate `q`-quantile over the window (bucket upper bound, same
    /// semantics as [`crate::metrics::Histogram::quantile`]; 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.buckets, q)
    }
}

impl WindowedHistogram {
    /// Records one sample into the current slot, regardless of the arm
    /// switch (the owning metric checks [`enabled`]).
    #[inline]
    pub fn record(&self, v: u64) {
        let slot = &self.slots[self.cursor.current()];
        slot.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Rotates the ring if a slot span has elapsed; see the module docs.
    /// Returns the number of slots advanced.
    pub fn maybe_rotate(&self, now_us: u64) -> usize {
        self.cursor.maybe_rotate(now_us, |i| self.slots[i].reset())
    }

    /// Merges every slot into one snapshot covering the whole window.
    pub fn snapshot(&self) -> WindowSnapshot {
        let mut buckets = [0u64; N_BUCKETS];
        let mut sum = 0u64;
        for slot in &self.slots {
            for (i, b) in slot.buckets.iter().enumerate() {
                buckets[i] += b.load(Ordering::Relaxed);
            }
            sum += slot.sum.load(Ordering::Relaxed);
        }
        WindowSnapshot {
            count: buckets.iter().sum(),
            sum,
            buckets,
        }
    }
}

/// A rolling event counter over the last [`WINDOW_SPAN_US`].
#[derive(Debug, Default)]
pub struct WindowedCounter {
    slots: [AtomicU64; N_SLOTS],
    cursor: Cursor,
}

impl WindowedCounter {
    /// Adds `n` events to the current slot, regardless of the arm switch
    /// (the owning metric checks [`enabled`]).
    #[inline]
    pub fn add(&self, n: u64) {
        self.slots[self.cursor.current()].fetch_add(n, Ordering::Relaxed);
    }

    /// Same rotation protocol as [`WindowedHistogram::maybe_rotate`].
    pub fn maybe_rotate(&self, now_us: u64) -> usize {
        self.cursor
            .maybe_rotate(now_us, |i| self.slots[i].store(0, Ordering::Relaxed))
    }

    /// Total events in the window.
    pub fn total(&self) -> u64 {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Events per second, averaged over the full window span.
    pub fn rate_per_sec(&self) -> f64 {
        self.total() as f64 / (WINDOW_SPAN_US as f64 / 1e6)
    }
}

type CounterRow = (&'static str, &'static WindowedCounter);
type HistogramRow = (&'static str, &'static WindowedHistogram);

/// The windowed metrics of the registry: counters, then histograms, each
/// sorted by name.
fn windowed_entries() -> (Vec<CounterRow>, Vec<HistogramRow>) {
    let (counters, _, histograms) = sorted_entries();
    (
        counters
            .into_iter()
            .filter_map(|c| Some((c.name(), c.window()?)))
            .collect(),
        histograms
            .into_iter()
            .filter_map(|h| Some((h.name(), h.window()?)))
            .collect(),
    )
}

/// Rotates every windowed metric that is due at `now_us` (typically
/// [`crate::trace::now_us`]). Called from the daemon's obs thread about
/// once a second and opportunistically before snapshots; the cost is one
/// registry walk plus a relaxed load per windowed metric when nothing is
/// due.
pub fn tick(now_us: u64) {
    let (counters, histograms) = windowed_entries();
    for (_, c) in counters {
        c.maybe_rotate(now_us);
    }
    for (_, h) in histograms {
        h.maybe_rotate(now_us);
    }
}

/// Renders the windowed metrics in Prometheus exposition format, with a
/// `_window` suffix on every series so it can be concatenated with the
/// cumulative [`crate::metrics::snapshot_prometheus`] output.
pub fn snapshot_prometheus() -> String {
    let (counters, histograms) = windowed_entries();
    let mut out = String::new();
    for (name, c) in counters {
        let _ = writeln!(out, "# TYPE {name}_window_total gauge");
        let _ = writeln!(out, "{name}_window_total {}", c.total());
        let _ = writeln!(out, "# TYPE {name}_window_rate gauge");
        let _ = writeln!(out, "{name}_window_rate {:.3}", c.rate_per_sec());
    }
    for (name, h) in histograms {
        let snap = h.snapshot();
        let _ = writeln!(out, "# TYPE {name}_window histogram");
        push_prom_buckets(&mut out, &format!("{name}_window"), &snap.buckets);
        let _ = writeln!(out, "{name}_window_sum {}", snap.sum);
        let _ = writeln!(out, "{name}_window_count {}", snap.count);
        let _ = writeln!(out, "# TYPE {name}_window_p50 gauge");
        let _ = writeln!(out, "{name}_window_p50 {}", snap.quantile(0.50));
        let _ = writeln!(out, "# TYPE {name}_window_p99 gauge");
        let _ = writeln!(out, "{name}_window_p99 {}", snap.quantile(0.99));
    }
    out
}

/// Renders the windowed metrics as a JSON object:
/// `{"window_us":N,"counters":{name:{total,rate}},"histograms":{name:{count,sum,p50,p99,buckets}}}`.
pub fn snapshot_json() -> String {
    let (counters, histograms) = windowed_entries();
    let mut out = String::new();
    let _ = write!(out, "{{\"window_us\":{WINDOW_SPAN_US},\"counters\":{{");
    for (i, (name, c)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"total\":{},\"rate\":{:.3}}}",
            c.total(),
            c.rate_per_sec()
        );
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let snap = h.snapshot();
        let _ = write!(
            out,
            "\"{name}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"buckets\":",
            snap.count,
            snap.sum,
            snap.quantile(0.50),
            snap.quantile(0.99)
        );
        push_json_buckets(&mut out, &snap.buckets);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    // No unit test calls `set_enabled` — the flag is process-global and
    // tests run concurrently; the armed path is covered by writing to the
    // rings directly and by the `tests/` binaries and serve integration
    // tests.

    #[test]
    fn disarmed_record_is_inert() {
        let h = metrics::histogram("unit_disarmed_us").windowed();
        let ring = h.window().expect("registered windowed");
        assert!(!enabled(), "windowed layer must start disarmed");
        h.record(7);
        assert_eq!(h.count(), 1, "the cumulative view always records");
        assert_eq!(ring.snapshot().count, 0);
        ring.record(7);
        assert_eq!(ring.snapshot().count, 1);
    }

    #[test]
    fn rotation_evicts_only_the_oldest_slots() {
        let h = WindowedHistogram::default();
        h.record(8);
        // One span later: one slot advances, the sample survives.
        assert_eq!(h.maybe_rotate(SLOT_SPAN_US), 1);
        assert_eq!(h.snapshot().count, 1);
        // After a full extra revolution the ring is cleared.
        assert_eq!(h.maybe_rotate(SLOT_SPAN_US * (N_SLOTS as u64 + 1)), N_SLOTS);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn sub_span_ticks_do_not_rotate() {
        let h = WindowedHistogram::default();
        h.record(1);
        assert_eq!(h.maybe_rotate(SLOT_SPAN_US - 1), 0);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn counter_rate_covers_the_window() {
        let c = WindowedCounter::default();
        c.add(120);
        assert_eq!(c.total(), 120);
        assert!((c.rate_per_sec() - 2.0).abs() < 1e-9, "120 events / 60 s");
        c.maybe_rotate(WINDOW_SPAN_US * 2);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn registry_renders_both_formats() {
        let h = metrics::histogram("halk_window_test_us").windowed();
        let c = metrics::counter("halk_window_test_total").windowed();
        h.window().unwrap().record(100);
        c.window().unwrap().add(1);
        assert!(std::ptr::eq(h, metrics::histogram("halk_window_test_us")));
        let prom = snapshot_prometheus();
        assert!(prom.contains("halk_window_test_us_window_p99 127"));
        assert!(prom.contains("halk_window_test_us_window_count 1"));
        assert!(prom.contains("halk_window_test_total_window_total 1"));
        let js = snapshot_json();
        assert!(js.contains("\"halk_window_test_us\":{\"count\":1"));
        assert!(js.contains(&format!("\"window_us\":{WINDOW_SPAN_US}")));
        let parsed: serde_json::Value = serde_json::from_str(&js)
            .unwrap_or_else(|e| panic!("snapshot_json must be valid JSON: {e}\n{js}"));
        assert!(parsed["histograms"]["halk_window_test_us"]["p99"]
            .as_f64()
            .is_some());
        assert!(parsed["counters"]["halk_window_test_total"]["total"]
            .as_f64()
            .is_some());
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        metrics::histogram("halk_window_test_kind_clash").windowed();
        metrics::counter("halk_window_test_kind_clash").windowed();
    }
}
