//! `--smoke`: a ~10 s pass of the whole serve measurement path against an
//! in-process `Server::start` at tiny scale — both engines, closed and
//! open loop, every answer checked. No daemon binary or files needed.

use crate::inputs::{model_config, request_pool, synth_graph};
use crate::report::Report;
use crate::serve::{bit_check, Latency, Traffic};
use crate::spec::{Pool, DAEMON_THREADS};
use halk_core::{HalkModel, Precision};
use halk_kg::SynthConfig;
use halk_serve::{AskEngine, Engine, ServeConfig, Server};
use std::io;
use std::time::Instant;

const RATE: f64 = 100.0;

pub fn run(seed: u64) -> io::Result<Report> {
    let cfg = SynthConfig::fb237_like();
    let g = synth_graph(cfg.n_entities, cfg.n_triples, seed);
    let reference = HalkModel::new(&g, model_config(seed));
    let t = Instant::now();
    let engine = Engine::with_options(
        synth_graph(cfg.n_entities, cfg.n_triples, seed),
        Some(HalkModel::new(&g, model_config(seed))),
        Some(DAEMON_THREADS),
        Precision::F32,
    );
    let server = Server::start(
        engine,
        ServeConfig {
            workers: DAEMON_THREADS,
            ..ServeConfig::default()
        },
    )?;
    let setup_s = t.elapsed().as_secs_f64();
    let addr = server.local_addr().to_string();

    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: vec![("setup_s", setup_s)],
    };
    for (engine, pool) in [
        (AskEngine::Halk, Pool::Distinct(1_024)),
        (AskEngine::Exact, Pool::Hot(2)),
    ] {
        let req = request_pool(&g, engine, pool, seed);
        let mut traffic = Traffic::new(&addr, &req);
        traffic.closed(0.5);
        let throughput = traffic.closed(1.5);
        let lat = Latency::of(&traffic.open(2.0, RATE));
        lat.print(&format!("smoke {engine:?}"));
        let (checked, mismatched) = match engine {
            AskEngine::Halk => bit_check(&reference, &req.sparql, &traffic.hits, seed),
            AskEngine::Exact => (0, 0),
        };
        let t = traffic.tally;
        report.correct &= t.failed() == 0 && mismatched == 0;
        report.correct &= engine == AskEngine::Exact || checked > 0;
        report.attempted += t.attempted;
        report.failed += t.failed() + mismatched as u64;
        if engine == AskEngine::Halk {
            report.metrics.push(("throughput_qps", throughput));
            report.metrics.push(("p50_ms", lat.p50));
        }
    }
    server.join();
    report.metrics.push((
        "rss_mb",
        crate::daemon::vm_hwm_kb("/proc/self/status")? as f64 / 1024.0,
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    /// The smoke mode end to end: an in-process daemon, both engines,
    /// every answer verified, every end-to-end metric positive.
    #[test]
    fn smoke_mode_serves_and_verifies_both_engines() {
        let r = super::run(5).expect("smoke run");
        assert!(r.correct, "{r:?}");
        assert!(r.attempted > 100, "{r:?}");
        for m in crate::spec::END_TO_END {
            let v = r
                .metrics
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |&(_, v)| v);
            assert!(v > 0.0, "{} = {v}", m.name);
        }
    }
}
