//! Glue between `halk-par`'s observability hooks and the `halk-obs`
//! metrics/trace backends.
//!
//! `halk-par` is dependency-free, so it exposes `fn`-pointer hooks instead
//! of linking `halk-obs` directly; this module is the one place that wires
//! them together. [`install`] is idempotent (a `Once`) and cheap, so every
//! binary that wants pool metrics calls it at startup — the CLI and the
//! experiment harness both do.
//!
//! Per labeled pool region (see [`halk_par::Pool::labeled`]) the stats
//! hook records:
//!
//! - `halk_pool_wall_us_<region>` — histogram of region wall time;
//! - `halk_pool_busy_us_<region>` — histogram of per-worker busy time
//!   (one sample per worker per region, so `sum/count` is the mean worker
//!   busy time and `sum` vs. `wall × workers` gives utilization);
//! - `halk_pool_regions_total_<region>` — counter of regions executed.
//!
//! The three handles are interned once per region label, so after a
//! label's first region the hook allocates nothing and takes no registry
//! lock: every served sweep runs it.
//!
//! Both histograms are windowed, so a serving daemon also exposes their
//! rolling `_window_sum`s; busy/wall over the window is the per-region
//! load `halk top` prints. While the window layer is disarmed (every batch
//! binary) the windowed part costs one branch per record.
//!
//! The worker-exit hook flushes each pool worker's trace buffer before its
//! closure returns: `std::thread::scope` waits for the closure, not for
//! thread-local destructors, so without this a trace file read shortly
//! after a region could miss the tail of a worker's events.

use halk_obs::metrics::{Counter, Histogram};
use std::sync::{Once, OnceLock};

/// Installs the `halk-par` → `halk-obs` observability hooks (idempotent).
pub fn install() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        halk_par::set_stats_hook(Some(on_pool_stats));
        halk_par::set_worker_exit_hook(Some(halk_obs::trace::flush));
    });
}

fn on_pool_stats(s: &halk_par::PoolStats<'_>) {
    match region_metrics(s.region) {
        Some(m) => m.record(s),
        None => RegionMetrics::new(s.region).record(s),
    }
}

/// The three interned handles of one region label.
struct RegionMetrics {
    region: &'static str,
    regions: &'static Counter,
    wall: &'static Histogram,
    busy: &'static Histogram,
}

impl RegionMetrics {
    /// Interns the three handles: formats their names and takes the
    /// registry lock, so it runs once per label.
    fn new(region: &'static str) -> RegionMetrics {
        use halk_obs::metrics::{counter, histogram};
        RegionMetrics {
            region,
            regions: counter(&format!("halk_pool_regions_total_{region}")),
            wall: histogram(&format!("halk_pool_wall_us_{region}")).windowed(),
            busy: histogram(&format!("halk_pool_busy_us_{region}")).windowed(),
        }
    }

    fn record(&self, s: &halk_par::PoolStats<'_>) {
        self.regions.inc();
        self.wall.record(s.wall_ns / 1_000);
        for &ns in s.busy_ns {
            self.busy.record(ns / 1_000);
        }
    }
}

/// Region labels with interned handles, filled in first-seen order and
/// never emptied. The workspace uses a handful of labels; a label past
/// this many interns its handles on every region.
static REGIONS: [OnceLock<RegionMetrics>; 32] = [const { OnceLock::new() }; 32];

/// The interned handles for `region`: a scan of filled slots, with no
/// allocation and no registry lock once the label has been seen. The first
/// region of a label claims the first empty slot; a racing claim for
/// another label blocks on that slot's init, sees the other label and
/// moves on, so a label never lands in two slots.
fn region_metrics(region: &'static str) -> Option<&'static RegionMetrics> {
    REGIONS.iter().find_map(|slot| {
        let m = slot.get_or_init(|| RegionMetrics::new(region));
        (m.region == region).then_some(m)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use halk_par::Pool;

    #[test]
    fn installed_hooks_feed_pool_metrics() {
        install();
        install(); // idempotent
        let items: Vec<u64> = (0..32).collect();
        let got = Pool::new(2)
            .labeled("core_obs_glue_test")
            .par_map_dyn(&items, |x| x + 1);
        assert_eq!(got.len(), 32);
        let regions =
            halk_obs::metrics::counter("halk_pool_regions_total_core_obs_glue_test").get();
        assert!(regions >= 1, "stats hook ran for the labeled region");
        let wall = halk_obs::metrics::histogram("halk_pool_wall_us_core_obs_glue_test");
        assert!(wall.count() >= 1);
        let busy = halk_obs::metrics::histogram("halk_pool_busy_us_core_obs_glue_test");
        assert!(busy.count() >= 2, "one busy sample per worker");
    }
}
