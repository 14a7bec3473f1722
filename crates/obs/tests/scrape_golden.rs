//! Pins the exact bytes the scrape endpoint serves: the cumulative
//! renderers ([`halk_obs::metrics::snapshot_prometheus`] /
//! [`halk_obs::metrics::snapshot_json`]) followed by the windowed ones
//! ([`halk_obs::window::snapshot_prometheus`] /
//! [`halk_obs::window::snapshot_json`]).
//!
//! The metrics registry and the window arm switch are process-global, so
//! this binary holds exactly one test and registers nothing else.

use halk_obs::{counter, gauge, histogram, window};

#[test]
fn scrape_bytes_are_pinned() {
    // Looked up plain before anything asks for its window.
    let early = histogram!("golden_early_us");
    assert_eq!(early.count(), 0);

    counter!("golden_plain_total").add(3);
    gauge!("golden_gauge").set(2.5);
    let plain = histogram!("golden_plain_us");
    for v in [0, 5, 1000] {
        plain.record(v);
    }

    window::set_enabled(true);
    for _ in 0..4 {
        counter!("golden_win_total", windowed).inc();
    }
    counter!("golden_a_win_total", windowed).add(90);
    for v in [1, 3, 70, 70, 4096] {
        histogram!("golden_win_us", windowed).record(v);
    }
    // Records through the early plain handle reach the window attached by
    // the windowed registration.
    assert!(std::ptr::eq(early, histogram!("golden_early_us", windowed)));
    for v in [2, 600] {
        early.record(v);
    }

    let prom = halk_obs::metrics::snapshot_prometheus() + &window::snapshot_prometheus();
    let json = format!(
        "{}\n{}",
        halk_obs::metrics::snapshot_json(),
        window::snapshot_json()
    );
    assert_eq!(prom, PROM);
    assert_eq!(json, JSON);
}

// Captured from the renderers before windowed became a property of the
// cumulative metric; the refactor must not move a byte.
const PROM: &str = concat!(
    "# TYPE golden_a_win_total counter\n",
    "golden_a_win_total 90\n",
    "# TYPE golden_plain_total counter\n",
    "golden_plain_total 3\n",
    "# TYPE golden_win_total counter\n",
    "golden_win_total 4\n",
    "# TYPE golden_gauge gauge\n",
    "golden_gauge 2.5\n",
    "# TYPE golden_early_us histogram\n",
    "golden_early_us_bucket{le=\"1\"} 0\n",
    "golden_early_us_bucket{le=\"2\"} 0\n",
    "golden_early_us_bucket{le=\"4\"} 1\n",
    "golden_early_us_bucket{le=\"8\"} 1\n",
    "golden_early_us_bucket{le=\"16\"} 1\n",
    "golden_early_us_bucket{le=\"32\"} 1\n",
    "golden_early_us_bucket{le=\"64\"} 1\n",
    "golden_early_us_bucket{le=\"128\"} 1\n",
    "golden_early_us_bucket{le=\"256\"} 1\n",
    "golden_early_us_bucket{le=\"512\"} 1\n",
    "golden_early_us_bucket{le=\"1024\"} 2\n",
    "golden_early_us_bucket{le=\"2048\"} 2\n",
    "golden_early_us_bucket{le=\"4096\"} 2\n",
    "golden_early_us_bucket{le=\"8192\"} 2\n",
    "golden_early_us_bucket{le=\"16384\"} 2\n",
    "golden_early_us_bucket{le=\"32768\"} 2\n",
    "golden_early_us_bucket{le=\"65536\"} 2\n",
    "golden_early_us_bucket{le=\"131072\"} 2\n",
    "golden_early_us_bucket{le=\"262144\"} 2\n",
    "golden_early_us_bucket{le=\"524288\"} 2\n",
    "golden_early_us_bucket{le=\"1048576\"} 2\n",
    "golden_early_us_bucket{le=\"2097152\"} 2\n",
    "golden_early_us_bucket{le=\"4194304\"} 2\n",
    "golden_early_us_bucket{le=\"8388608\"} 2\n",
    "golden_early_us_bucket{le=\"16777216\"} 2\n",
    "golden_early_us_bucket{le=\"33554432\"} 2\n",
    "golden_early_us_bucket{le=\"67108864\"} 2\n",
    "golden_early_us_bucket{le=\"134217728\"} 2\n",
    "golden_early_us_bucket{le=\"268435456\"} 2\n",
    "golden_early_us_bucket{le=\"536870912\"} 2\n",
    "golden_early_us_bucket{le=\"1073741824\"} 2\n",
    "golden_early_us_bucket{le=\"+Inf\"} 2\n",
    "golden_early_us_sum 602\n",
    "golden_early_us_count 2\n",
    "# TYPE golden_plain_us histogram\n",
    "golden_plain_us_bucket{le=\"1\"} 1\n",
    "golden_plain_us_bucket{le=\"2\"} 1\n",
    "golden_plain_us_bucket{le=\"4\"} 1\n",
    "golden_plain_us_bucket{le=\"8\"} 2\n",
    "golden_plain_us_bucket{le=\"16\"} 2\n",
    "golden_plain_us_bucket{le=\"32\"} 2\n",
    "golden_plain_us_bucket{le=\"64\"} 2\n",
    "golden_plain_us_bucket{le=\"128\"} 2\n",
    "golden_plain_us_bucket{le=\"256\"} 2\n",
    "golden_plain_us_bucket{le=\"512\"} 2\n",
    "golden_plain_us_bucket{le=\"1024\"} 3\n",
    "golden_plain_us_bucket{le=\"2048\"} 3\n",
    "golden_plain_us_bucket{le=\"4096\"} 3\n",
    "golden_plain_us_bucket{le=\"8192\"} 3\n",
    "golden_plain_us_bucket{le=\"16384\"} 3\n",
    "golden_plain_us_bucket{le=\"32768\"} 3\n",
    "golden_plain_us_bucket{le=\"65536\"} 3\n",
    "golden_plain_us_bucket{le=\"131072\"} 3\n",
    "golden_plain_us_bucket{le=\"262144\"} 3\n",
    "golden_plain_us_bucket{le=\"524288\"} 3\n",
    "golden_plain_us_bucket{le=\"1048576\"} 3\n",
    "golden_plain_us_bucket{le=\"2097152\"} 3\n",
    "golden_plain_us_bucket{le=\"4194304\"} 3\n",
    "golden_plain_us_bucket{le=\"8388608\"} 3\n",
    "golden_plain_us_bucket{le=\"16777216\"} 3\n",
    "golden_plain_us_bucket{le=\"33554432\"} 3\n",
    "golden_plain_us_bucket{le=\"67108864\"} 3\n",
    "golden_plain_us_bucket{le=\"134217728\"} 3\n",
    "golden_plain_us_bucket{le=\"268435456\"} 3\n",
    "golden_plain_us_bucket{le=\"536870912\"} 3\n",
    "golden_plain_us_bucket{le=\"1073741824\"} 3\n",
    "golden_plain_us_bucket{le=\"+Inf\"} 3\n",
    "golden_plain_us_sum 1005\n",
    "golden_plain_us_count 3\n",
    "# TYPE golden_win_us histogram\n",
    "golden_win_us_bucket{le=\"1\"} 0\n",
    "golden_win_us_bucket{le=\"2\"} 1\n",
    "golden_win_us_bucket{le=\"4\"} 2\n",
    "golden_win_us_bucket{le=\"8\"} 2\n",
    "golden_win_us_bucket{le=\"16\"} 2\n",
    "golden_win_us_bucket{le=\"32\"} 2\n",
    "golden_win_us_bucket{le=\"64\"} 2\n",
    "golden_win_us_bucket{le=\"128\"} 4\n",
    "golden_win_us_bucket{le=\"256\"} 4\n",
    "golden_win_us_bucket{le=\"512\"} 4\n",
    "golden_win_us_bucket{le=\"1024\"} 4\n",
    "golden_win_us_bucket{le=\"2048\"} 4\n",
    "golden_win_us_bucket{le=\"4096\"} 4\n",
    "golden_win_us_bucket{le=\"8192\"} 5\n",
    "golden_win_us_bucket{le=\"16384\"} 5\n",
    "golden_win_us_bucket{le=\"32768\"} 5\n",
    "golden_win_us_bucket{le=\"65536\"} 5\n",
    "golden_win_us_bucket{le=\"131072\"} 5\n",
    "golden_win_us_bucket{le=\"262144\"} 5\n",
    "golden_win_us_bucket{le=\"524288\"} 5\n",
    "golden_win_us_bucket{le=\"1048576\"} 5\n",
    "golden_win_us_bucket{le=\"2097152\"} 5\n",
    "golden_win_us_bucket{le=\"4194304\"} 5\n",
    "golden_win_us_bucket{le=\"8388608\"} 5\n",
    "golden_win_us_bucket{le=\"16777216\"} 5\n",
    "golden_win_us_bucket{le=\"33554432\"} 5\n",
    "golden_win_us_bucket{le=\"67108864\"} 5\n",
    "golden_win_us_bucket{le=\"134217728\"} 5\n",
    "golden_win_us_bucket{le=\"268435456\"} 5\n",
    "golden_win_us_bucket{le=\"536870912\"} 5\n",
    "golden_win_us_bucket{le=\"1073741824\"} 5\n",
    "golden_win_us_bucket{le=\"+Inf\"} 5\n",
    "golden_win_us_sum 4240\n",
    "golden_win_us_count 5\n",
    "# TYPE golden_a_win_total_window_total gauge\n",
    "golden_a_win_total_window_total 90\n",
    "# TYPE golden_a_win_total_window_rate gauge\n",
    "golden_a_win_total_window_rate 1.500\n",
    "# TYPE golden_win_total_window_total gauge\n",
    "golden_win_total_window_total 4\n",
    "# TYPE golden_win_total_window_rate gauge\n",
    "golden_win_total_window_rate 0.067\n",
    "# TYPE golden_early_us_window histogram\n",
    "golden_early_us_window_bucket{le=\"1\"} 0\n",
    "golden_early_us_window_bucket{le=\"2\"} 0\n",
    "golden_early_us_window_bucket{le=\"4\"} 1\n",
    "golden_early_us_window_bucket{le=\"8\"} 1\n",
    "golden_early_us_window_bucket{le=\"16\"} 1\n",
    "golden_early_us_window_bucket{le=\"32\"} 1\n",
    "golden_early_us_window_bucket{le=\"64\"} 1\n",
    "golden_early_us_window_bucket{le=\"128\"} 1\n",
    "golden_early_us_window_bucket{le=\"256\"} 1\n",
    "golden_early_us_window_bucket{le=\"512\"} 1\n",
    "golden_early_us_window_bucket{le=\"1024\"} 2\n",
    "golden_early_us_window_bucket{le=\"2048\"} 2\n",
    "golden_early_us_window_bucket{le=\"4096\"} 2\n",
    "golden_early_us_window_bucket{le=\"8192\"} 2\n",
    "golden_early_us_window_bucket{le=\"16384\"} 2\n",
    "golden_early_us_window_bucket{le=\"32768\"} 2\n",
    "golden_early_us_window_bucket{le=\"65536\"} 2\n",
    "golden_early_us_window_bucket{le=\"131072\"} 2\n",
    "golden_early_us_window_bucket{le=\"262144\"} 2\n",
    "golden_early_us_window_bucket{le=\"524288\"} 2\n",
    "golden_early_us_window_bucket{le=\"1048576\"} 2\n",
    "golden_early_us_window_bucket{le=\"2097152\"} 2\n",
    "golden_early_us_window_bucket{le=\"4194304\"} 2\n",
    "golden_early_us_window_bucket{le=\"8388608\"} 2\n",
    "golden_early_us_window_bucket{le=\"16777216\"} 2\n",
    "golden_early_us_window_bucket{le=\"33554432\"} 2\n",
    "golden_early_us_window_bucket{le=\"67108864\"} 2\n",
    "golden_early_us_window_bucket{le=\"134217728\"} 2\n",
    "golden_early_us_window_bucket{le=\"268435456\"} 2\n",
    "golden_early_us_window_bucket{le=\"536870912\"} 2\n",
    "golden_early_us_window_bucket{le=\"1073741824\"} 2\n",
    "golden_early_us_window_bucket{le=\"+Inf\"} 2\n",
    "golden_early_us_window_sum 602\n",
    "golden_early_us_window_count 2\n",
    "# TYPE golden_early_us_window_p50 gauge\n",
    "golden_early_us_window_p50 3\n",
    "# TYPE golden_early_us_window_p99 gauge\n",
    "golden_early_us_window_p99 1023\n",
    "# TYPE golden_win_us_window histogram\n",
    "golden_win_us_window_bucket{le=\"1\"} 0\n",
    "golden_win_us_window_bucket{le=\"2\"} 1\n",
    "golden_win_us_window_bucket{le=\"4\"} 2\n",
    "golden_win_us_window_bucket{le=\"8\"} 2\n",
    "golden_win_us_window_bucket{le=\"16\"} 2\n",
    "golden_win_us_window_bucket{le=\"32\"} 2\n",
    "golden_win_us_window_bucket{le=\"64\"} 2\n",
    "golden_win_us_window_bucket{le=\"128\"} 4\n",
    "golden_win_us_window_bucket{le=\"256\"} 4\n",
    "golden_win_us_window_bucket{le=\"512\"} 4\n",
    "golden_win_us_window_bucket{le=\"1024\"} 4\n",
    "golden_win_us_window_bucket{le=\"2048\"} 4\n",
    "golden_win_us_window_bucket{le=\"4096\"} 4\n",
    "golden_win_us_window_bucket{le=\"8192\"} 5\n",
    "golden_win_us_window_bucket{le=\"16384\"} 5\n",
    "golden_win_us_window_bucket{le=\"32768\"} 5\n",
    "golden_win_us_window_bucket{le=\"65536\"} 5\n",
    "golden_win_us_window_bucket{le=\"131072\"} 5\n",
    "golden_win_us_window_bucket{le=\"262144\"} 5\n",
    "golden_win_us_window_bucket{le=\"524288\"} 5\n",
    "golden_win_us_window_bucket{le=\"1048576\"} 5\n",
    "golden_win_us_window_bucket{le=\"2097152\"} 5\n",
    "golden_win_us_window_bucket{le=\"4194304\"} 5\n",
    "golden_win_us_window_bucket{le=\"8388608\"} 5\n",
    "golden_win_us_window_bucket{le=\"16777216\"} 5\n",
    "golden_win_us_window_bucket{le=\"33554432\"} 5\n",
    "golden_win_us_window_bucket{le=\"67108864\"} 5\n",
    "golden_win_us_window_bucket{le=\"134217728\"} 5\n",
    "golden_win_us_window_bucket{le=\"268435456\"} 5\n",
    "golden_win_us_window_bucket{le=\"536870912\"} 5\n",
    "golden_win_us_window_bucket{le=\"1073741824\"} 5\n",
    "golden_win_us_window_bucket{le=\"+Inf\"} 5\n",
    "golden_win_us_window_sum 4240\n",
    "golden_win_us_window_count 5\n",
    "# TYPE golden_win_us_window_p50 gauge\n",
    "golden_win_us_window_p50 127\n",
    "# TYPE golden_win_us_window_p99 gauge\n",
    "golden_win_us_window_p99 8191\n",
);

const JSON: &str = concat!(
    "{\"counters\":{\"golden_a_win_total\":90,\"golden_plain_total\":3,\"golden_win_total\":4},\"gauges\":{\"golden_gauge\":2.5},\"histograms\":{\"golden_early_us\":{\"count\":2,\"sum\":602,\"buckets\":[0,0,1,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},\"golden_plain_us\":{\"count\":3,\"sum\":1005,\"buckets\":[1,0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},\"golden_win_us\":{\"count\":5,\"sum\":4240,\"buckets\":[0,1,1,0,0,0,0,2,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}}\n",
    "{\"window_us\":60000000,\"counters\":{\"golden_a_win_total\":{\"total\":90,\"rate\":1.500},\"golden_win_total\":{\"total\":4,\"rate\":0.067}},\"histograms\":{\"golden_early_us\":{\"count\":2,\"sum\":602,\"p50\":3,\"p99\":1023,\"buckets\":[0,0,1,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},\"golden_win_us\":{\"count\":5,\"sum\":4240,\"p50\":127,\"p99\":8191,\"buckets\":[0,1,1,0,0,0,0,2,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}}",
);
