//! The benchmark's fixed definitions: end-to-end metrics with their
//! regression bounds, per-layer metric names, and the four workloads.
//!
//! Everything here is a constant on purpose. Rates, pool sizes and graph
//! scales are never derived from a run, so a parent commit and a change
//! are measured under identical offered load. `BENCHMARK.json` at the
//! repository root repeats the metric table; a unit test keeps the two in
//! step.

use halk_serve::AskEngine;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: printed by every untraced run, gated by `bound`
/// (the share of the parent's median by which it may worsen).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The gated metrics. Every workload reports all four; what each one
/// measures per workload is defined in README.md.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// Per-layer metrics of the traced run, `(name, unit)`. A layer a workload
/// does not pass through reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("sparql.parse_us", "us"),
    ("sparql.adapt_us", "us"),
    ("engine.prepare_us", "us"),
    ("exec.plan_lookup_us", "us"),
    ("plan.cache_hit_share", "ratio"),
    ("plan.exact_us", "us"),
    ("exec.embed_us", "us"),
    ("shard.sweep_us", "us"),
    ("shard.score_us", "us"),
    ("shard.merge_us", "us"),
    ("shard.bytes_per_query", "bytes"),
    ("engine.execute_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.latency_us", "us"),
    ("server.wire_us", "us"),
    ("server.batch_size_mean", "count"),
    ("server.shed_share", "ratio"),
    ("par.busy_share", "ratio"),
    ("exec.cache_hit_share", "ratio"),
    ("kg.tsv_load_ms", "ms"),
    ("model.load_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("snap.read_ms", "ms"),
    ("server.start_ms", "ms"),
    ("setup.spawn_ms", "ms"),
    ("kg.generate_ms", "ms"),
    ("kg.split_ms", "ms"),
    ("model.new_ms", "ms"),
    ("sampler.batch_ms", "ms"),
    ("train.step_ms", "ms"),
    ("eval.structure_ms", "ms"),
    ("eval.structure_max_ms", "ms"),
    ("exec.cache_builds", "count"),
    ("residual_us", "us"),
    ("trace.overhead", "ratio"),
    ("client.p50_ms", "ms"),
    ("client.p90_ms", "ms"),
    ("client.p99_ms", "ms"),
    ("client.lag_p99_ms", "ms"),
    ("client.repeat_share", "ratio"),
];

/// How the daemon of a serve workload boots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boot {
    /// `--graph graph.tsv [--model dir]`.
    Tsv { model: bool },
    /// `--snapshot graph.snap`.
    Snapshot,
}

/// How a serve workload draws its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// This many distinct queries, each sent once until the pool wraps
    /// (repeat share ≈ 0).
    Distinct(usize),
    /// A hot set of this many queries per structure, sent in cycles of
    /// fresh permutations (repeat share ≈ 1).
    Hot(usize),
}

/// One `halk serve` traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub name: &'static str,
    pub engine: AskEngine,
    pub n_entities: usize,
    pub n_triples: usize,
    pub boot: Boot,
    /// Open-loop offered rate over both connections: a constant, about 25%
    /// of the closed-loop capacity measured when the benchmark was defined
    /// (README.md).
    pub rate_qps: f64,
    pub pool: Pool,
    /// Requests the traced run replays through the in-process layer calls.
    pub replay: usize,
}

pub const HALK_8K: ServeSpec = ServeSpec {
    name: "halk_8k",
    engine: AskEngine::Halk,
    n_entities: 8_000,
    n_triples: 50_000,
    boot: Boot::Tsv { model: true },
    rate_qps: 400.0,
    pool: Pool::Distinct(24_576),
    replay: 1_536,
};

pub const HALK_64K: ServeSpec = ServeSpec {
    name: "halk_64k",
    engine: AskEngine::Halk,
    n_entities: 64_000,
    n_triples: 400_000,
    boot: Boot::Snapshot,
    rate_qps: 60.0,
    pool: Pool::Distinct(4_096),
    replay: 256,
};

pub const EXACT_64K: ServeSpec = ServeSpec {
    name: "exact_64k",
    engine: AskEngine::Exact,
    n_entities: 64_000,
    n_triples: 400_000,
    boot: Boot::Tsv { model: false },
    rate_qps: 8_000.0,
    pool: Pool::Hot(4),
    replay: 8_192,
};

/// The in-process train + eval workload.
pub const TRAIN_EVAL: &str = "train_eval";

/// Every workload, in the order `--sets` runs them.
pub const WORKLOADS: [&str; 4] = ["halk_8k", "halk_64k", "exact_64k", TRAIN_EVAL];

pub fn serve_spec(name: &str) -> Option<ServeSpec> {
    [HALK_8K, HALK_64K, EXACT_64K]
        .into_iter()
        .find(|s| s.name == name)
}

// Fixed serving and traffic parameters shared by every serve workload.

/// Answers per request.
pub const TOP: usize = 10;
/// Per-request deadline sent with every ASK.
pub const DEADLINE_MS: u64 = 2_000;
/// Client threads, each owning one connection (the host has 2 vCPUs).
pub const LANES: usize = 2;
/// Daemon flags: `--workers 2 --shards 2 --precision f32`, `HALK_THREADS=2`.
pub const DAEMON_THREADS: usize = 2;
/// Daemon boots per untraced run; `setup_s` is their median.
pub const BOOTS: usize = 15;
/// Halk answers checked bit-for-bit against a local reference per run.
pub const BIT_CHECKS: usize = 1_024;

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` names exactly these workloads and metrics, with
    /// the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            v[key]
                .as_array()
                .expect("array")
                .iter()
                .map(|m| m["name"].as_str().expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(String::from));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name.to_string()));
        for (json, m) in v["end_to_end"].as_array().unwrap().iter().zip(END_TO_END) {
            assert_eq!(json["unit"].as_str(), Some(m.unit));
            assert_eq!(json["better"].as_str(), Some(m.better.as_str()));
            assert_eq!(json["bound"].as_f64(), Some(m.bound), "{}", m.name);
        }
        assert_eq!(names("per_layer"), PER_LAYER.map(|(n, _)| n.to_string()));
        for (json, (name, unit)) in v["per_layer"].as_array().unwrap().iter().zip(PER_LAYER) {
            assert_eq!(json["unit"].as_str(), Some(unit), "{name}");
        }
    }
}
