//! `SpanGuard::next`: consecutive phases share their boundary timestamp,
//! so they tile the parent span with no uncovered gap between them.
//!
//! Its own test binary: tracing is process-global, and the inert case
//! must run before any trace file is configured.

use serde_json::Value;

#[test]
fn next_closes_and_opens_at_one_timestamp() {
    // Tracing off: the chain stays inert and emits nothing.
    let inert = halk_obs::span!("off_a").next("off_b");
    assert!(!inert.is_armed());
    drop(inert);

    let path = std::env::temp_dir().join(format!("halk_trace_phases_{}.jsonl", std::process::id()));
    halk_obs::trace::init_trace(&path).unwrap();
    {
        let _parent = halk_obs::span!("parent");
        let mut phase = halk_obs::span!("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        phase = phase.next("b");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let _last = phase.next("c");
    }
    halk_obs::trace::flush();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let events: Vec<(String, String, i64)> = text
        .lines()
        .map(|l| {
            let v: Value = serde_json::from_str(l).unwrap();
            let field = |k: &str| v[k].as_str().unwrap().to_string();
            (field("ev"), field("name"), v["ts_us"].as_i64().unwrap())
        })
        .collect();
    let shape: Vec<(&str, &str)> = events
        .iter()
        .map(|(ev, name, _)| (ev.as_str(), name.as_str()))
        .collect();
    assert_eq!(
        shape,
        [
            ("o", "parent"),
            ("o", "a"),
            ("c", "a"),
            ("o", "b"),
            ("c", "b"),
            ("o", "c"),
            ("c", "c"),
            ("c", "parent"),
        ]
    );
    assert_eq!(events[2].2, events[3].2, "a closes when b opens");
    assert_eq!(events[4].2, events[5].2, "b closes when c opens");
    assert!(events[3].2 - events[1].2 >= 2_000, "a lasted the sleep");
}
