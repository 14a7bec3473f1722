//! Integration tests for the windowed metrics ring (DESIGN.md §16).
//!
//! These run in their own process, so unlike the in-crate unit tests they
//! may arm the global `window::set_enabled` switch and drive rotation
//! concurrently with writers.

use halk_obs::metrics::N_BUCKETS;
use halk_obs::window::{WindowedHistogram, N_SLOTS, SLOT_SPAN_US};

/// Concurrent writers never lose a sample across epoch ticks, as long as
/// the ring does not complete a full revolution (each tick only zeroes the
/// slot that left the window).
#[test]
fn concurrent_writers_survive_rotation() {
    let h = WindowedHistogram::default();
    let h = &h;

    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 50_000;

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    h.record((w as u64) * 7 + (i % 1000));
                }
            });
        }
        // Rotator thread: ticks fewer than N_SLOTS times while the writers
        // hammer, so every slot a writer has touched is still inside the
        // window at the end.
        s.spawn(|| {
            for tick in 1..N_SLOTS as u64 {
                h.maybe_rotate(tick * SLOT_SPAN_US);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
    });

    let snap = h.snapshot();
    assert_eq!(
        snap.count,
        (WRITERS as u64) * PER_WRITER,
        "no sample may be lost while rotation stays within one revolution"
    );
}

/// On a single window (no rotation), the window snapshot and the
/// cumulative view of one windowed histogram agree exactly: same count,
/// sum, buckets and quantiles.
#[test]
fn single_window_agrees_with_cumulative() {
    let h = halk_obs::histogram!("halk_window_agreement_us", windowed);
    halk_obs::window::set_enabled(true);

    let samples: Vec<u64> = (0..4096u64).map(|i| (i * i) % 90_000).collect();
    for &v in &samples {
        h.record(v);
    }

    let snap = h.window().expect("registered windowed").snapshot();
    assert_eq!(snap.count, h.count());
    assert_eq!(snap.sum, h.sum());
    assert_eq!(snap.buckets, h.buckets());
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(snap.quantile(q), h.quantile(q), "quantile {q} diverged");
    }
}

/// A name looked up plain first and registered windowed later is one
/// metric: both lookups return the same handle, and records through the
/// early plain handle reach the ring once it is attached.
#[test]
fn plain_lookup_then_windowed_registration_share_one_handle() {
    let plain = halk_obs::metrics::histogram("halk_window_late_us");
    let counter = halk_obs::metrics::counter("halk_window_late_total");
    assert!(plain.window().is_none() && counter.window().is_none());

    let windowed = halk_obs::histogram!("halk_window_late_us", windowed);
    assert!(std::ptr::eq(plain, windowed));
    assert!(std::ptr::eq(
        counter,
        halk_obs::counter!("halk_window_late_total", windowed)
    ));
    // A later plain lookup still finds the windowed handle.
    assert!(halk_obs::metrics::histogram("halk_window_late_us")
        .window()
        .is_some());

    halk_obs::window::set_enabled(true);
    plain.record(300);
    counter.add(2);
    let snap = plain.window().unwrap().snapshot();
    assert_eq!((snap.count, snap.sum), (1, 300));
    assert_eq!(counter.window().unwrap().total(), 2);
}

/// An empty window (fresh, or fully evicted) snapshots to all-zero counts
/// and zero quantiles, and renders without panicking.
#[test]
fn empty_window_snapshot_is_zero() {
    let e = WindowedHistogram::default();
    let snap = e.snapshot();
    assert_eq!(snap.count, 0);
    assert_eq!(snap.sum, 0);
    assert_eq!(snap.buckets, [0u64; N_BUCKETS]);
    assert_eq!(snap.quantile(0.5), 0);
    assert_eq!(snap.quantile(0.99), 0);

    // Fill, then evict everything with a full-revolution tick: back to zero.
    e.record(42);
    assert!(e.snapshot().count > 0);
    e.maybe_rotate(SLOT_SPAN_US * (N_SLOTS as u64 + 1));
    assert_eq!(e.snapshot().count, 0);
    assert_eq!(e.snapshot().quantile(0.99), 0);
}
