//! The traced serve run (`--trace 1`): per-layer numbers for one serve
//! workload.
//!
//! Three sources, none of which feeds the end-to-end metrics:
//!
//! 1. **Boot layers** — the calls `halk serve` makes at boot, timed
//!    in-process as the median of [`BOOT_REPS`] calls each.
//! 2. **The daemon's own counters** — a daemon booted with `--obs-addr`
//!    is scraped before and after a steady open-loop phase; means come
//!    from histogram sums and counts, never from log2 quantiles.
//! 3. **Replay** — the first [`ServeSpec::replay`] requests of the
//!    workload's send order go single-threaded through the public call of
//!    each request layer. Every call sits in a `halk_obs` span emitted
//!    from this file; the JSONL trace is checked with `trace_check`.

use crate::daemon::Daemon;
use crate::inputs::{build_serve, send_order, BootFiles};
use crate::load::{check, Item, Verdict};
use crate::report::{Layers, Report};
use crate::serve::{load_reference, Latency, Traffic, WARM_SECS};
use crate::spec::{Boot, ServeSpec, DAEMON_THREADS, TOP};
use crate::stats::median;
use halk_core::shard::sharded_top_k_timed;
use halk_core::{ExecConfig, Executor, HalkModel, Precision, ShardedTrig, DEFAULT_BATCH_CAP};
use halk_kg::Graph;
use halk_logic::plan::{execute_set_batch, PlanBindings, PlanShape};
use halk_logic::Query;
use halk_obs::Deadline;
use halk_serve::protocol::{encode_frame, FrameDecoder, MAX_FRAME};
use halk_serve::{AskEngine, BatchItem, Engine, Request, Response, ServeConfig, Server};
use serde_json::Value;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// In-process repetitions of each boot layer.
pub const BOOT_REPS: usize = 5;
/// Daemon boots of the traced run (`setup.spawn_ms` uses their median).
const TRACED_BOOTS: usize = 5;
/// Share of `--seconds` for the steady open-loop phase.
const STEADY_SHARE: f64 = 0.35;
/// Requests replayed untimed before the measured passes.
const REPLAY_WARM: usize = 32;
/// Minimum share of each replay root span its layer spans must cover.
pub const COVERAGE: f64 = 0.95;
const US: f64 = 1e6;
const MS: f64 = 1e3;

/// Builds a serving engine the way `halk serve` does at boot, recording
/// each boot layer.
fn boot_engine(spec: &ServeSpec, files: &BootFiles, layers: &mut Layers) -> io::Result<Engine> {
    let shards = Some(DAEMON_THREADS);
    Ok(match spec.boot {
        Boot::Tsv { model } => {
            let g = layers.time("kg.tsv_load_ms", MS, || {
                halk_kg::tsv::load(&files.graph_tsv)
            })?;
            let m = if model {
                Some(layers.time("model.load_ms", MS, || {
                    HalkModel::load(&g, &files.model_dir)
                })?)
            } else {
                None
            };
            layers.time("engine.build_ms", MS, || {
                Engine::with_options(g, m, shards, Precision::F32)
            })
        }
        Boot::Snapshot => {
            let (g, m, trig) =
                layers.time("snap.read_ms", MS, || halk_snap::read_file(&files.snapshot))?;
            layers.time("engine.build_ms", MS, || {
                Engine::with_boot_table(g, m, &trig, shards, Precision::F32)
            })
        }
    })
}

/// A `/metrics.json` scrape of the daemon.
struct Scrape(Value);

impl Scrape {
    fn take(d: &Daemon) -> io::Result<Scrape> {
        let body = d.scrape("/metrics.json")?;
        serde_json::from_str(&body)
            .map(Scrape)
            .map_err(|e| io::Error::other(format!("bad /metrics.json: {e:?}")))
    }

    fn counter(&self, name: &str) -> f64 {
        self.0["cumulative"]["counters"][name]
            .as_f64()
            .unwrap_or(0.0)
    }

    /// `(count, sum)` of a cumulative histogram.
    fn hist(&self, name: &str) -> (f64, f64) {
        let h = &self.0["cumulative"]["histograms"][name];
        (
            h["count"].as_f64().unwrap_or(0.0),
            h["sum"].as_f64().unwrap_or(0.0),
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Daemon-side means over the steady phase, from counter and histogram
/// deltas between two scrapes.
fn server_layers(before: &Scrape, after: &Scrape, layers: &mut Layers) {
    let mean = |name: &str| {
        let ((c0, s0), (c1, s1)) = (before.hist(name), after.hist(name));
        ratio(s1 - s0, c1 - c0)
    };
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let sum_delta = |name: &str| after.hist(name).1 - before.hist(name).1;
    layers.set("server.queue_wait_us", mean("halk_serve_queue_wait_us"));
    layers.set("server.latency_us", mean("halk_serve_latency_us"));
    layers.set("server.batch_size_mean", mean("halk_serve_batch_size"));
    layers.set(
        "server.shed_share",
        ratio(
            delta("halk_serve_overloaded_total") + delta("halk_serve_deadline_shed_total"),
            delta("halk_serve_requests_total"),
        ),
    );
    layers.set(
        "par.busy_share",
        ratio(
            sum_delta("halk_pool_busy_us_model_batch"),
            sum_delta("halk_pool_wall_us_model_batch"),
        ),
    );
    let hits = delta("halk_exec_cache_hits_total");
    layers.set(
        "exec.cache_hit_share",
        ratio(hits, hits + delta("halk_exec_cache_builds_total")),
    );
}

/// One replayed request, resolved ahead of the timed passes.
struct Pending {
    item: usize,
    query: Query,
    shape: Arc<PlanShape>,
    bindings: PlanBindings,
}

/// The in-process request path of one workload.
struct Replay<'a> {
    spec: &'a ServeSpec,
    engine: &'a Engine,
    exec: &'a Executor,
    /// Halk workloads: the model and its resident shard tables.
    model: Option<(&'a HalkModel, Arc<ShardedTrig>)>,
    /// Exact workloads: the graph.
    graph: Option<&'a Graph>,
    items: &'a [Item],
    sparql: &'a [String],
    pending: Vec<Pending>,
}

impl Replay<'_> {
    fn decode(frame: &[u8]) -> String {
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut out = Vec::new();
        dec.push(frame, &mut out).expect("pool frames are valid");
        let text = std::str::from_utf8(&out[0]).expect("pool frames are UTF-8");
        match Request::parse(text).expect("pool frames parse") {
            Request::Ask { sparql, .. } => sparql,
            other => panic!("pool frame is not an ASK: {other:?}"),
        }
    }

    /// One pass over the first `n` replayed requests. Each request's
    /// critical path — decode, prepare, embed + sweep (halk) or plan
    /// execution (exact), encode — runs inside a [`ROOT_SPAN`] span whose
    /// children are exactly those layer calls; the sub-layer and
    /// cross-check calls follow in a `replay_crosscheck` span. Returns
    /// each request's critical-path wall time in µs and the number of
    /// requests whose answers disagreed.
    fn pass(&self, n: usize, layers: &mut Layers) -> (Vec<f64>, u64) {
        let never = Deadline::never();
        let mut walls = Vec::with_capacity(n);
        let mut failures = 0u64;
        for (i, p) in self.pending[..n].iter().enumerate() {
            let root = halk_obs::span!(ROOT_SPAN, || format!("i={i} item={}", p.item));
            let t = Instant::now();
            let sparql = layers.time("protocol.decode_us", US, || {
                Self::decode(&self.items[p.item].frame)
            });
            let prepared = layers
                .time("engine.prepare_us", US, || {
                    self.engine.prepare(self.spec.engine, &sparql)
                })
                .expect("pool queries prepare");
            // Building the response belongs to the layer that computed
            // it, so the layer spans tile the request.
            let resp = match (&self.model, self.graph) {
                (Some((model, sharded)), _) => {
                    let scorers = layers.time("exec.embed_us", US, || {
                        self.exec.scorers_for_group(model, &p.shape, &[&p.query])
                    });
                    let (resp, timing) = layers.time("shard.sweep_us", US, || {
                        let (mut res, timing) = sharded_top_k_timed(
                            &self.exec.pool(),
                            sharded,
                            &scorers,
                            &[TOP],
                            &[&never],
                            None,
                        );
                        let (hits, rows) = res.pop().expect("one query in, one result out");
                        let resp = Response::Scores {
                            truncated: rows < sharded.n_entities(),
                            scored_rows: rows,
                            hits,
                        };
                        (resp, timing)
                    });
                    layers.push("shard.score_us", timing.score_us as f64);
                    layers.push("shard.merge_us", timing.merge_us as f64);
                    resp
                }
                (None, Some(g)) => layers.time("plan.exact_us", US, || {
                    let mut res = execute_set_batch(&p.shape, &[&p.bindings], g, &[&never]);
                    let ans = res.pop().expect("one binding in").expect("no deadline");
                    Response::Answers {
                        total: ans.len(),
                        ids: ans.iter().take(TOP).map(|e| e.0).collect(),
                    }
                }),
                _ => unreachable!("a replay has a model or a graph"),
            };
            layers.time("protocol.encode_us", US, || {
                std::hint::black_box(encode_frame(resp.encode().as_bytes()));
                walls.push(t.elapsed().as_secs_f64() * US);
            });
            drop(root);

            let _cross = halk_obs::span!("replay_crosscheck", || format!("i={i}"));
            let text = &self.sparql[p.item];
            let parsed = layers
                .time("sparql.parse_us", US, || halk_sparql::parse(text))
                .expect("pool queries parse");
            let query = layers
                .time("sparql.adapt_us", US, || halk_sparql::adapt(&parsed))
                .expect("pool queries adapt");
            let shape = layers.time("exec.plan_lookup_us", US, || self.exec.shape_for(&query));
            let served = layers.time("engine.execute_us", US, || {
                self.engine.execute_batch(&[BatchItem {
                    prepared: &prepared,
                    top: TOP,
                    deadline: &never,
                    req: 0,
                    queue_wait_us: 0,
                }])
            });
            let agrees = Arc::ptr_eq(&shape, &p.shape) && served.first() == Some(&resp);
            if !agrees || check(&self.items[p.item].expect, &resp) != Verdict::Ok {
                failures += 1;
            }
        }
        (walls, failures)
    }
}

/// One traced run of a serve workload; writes `per_layer.json` and the
/// replay trace into `out`.
pub fn run_serve(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    work: &Path,
    out: &Path,
) -> io::Result<Report> {
    halk_core::obs::install();
    halk_par::set_threads(DAEMON_THREADS);
    let (files, req) = build_serve(spec, seed, work)?;
    eprintln!(
        "{} (traced): {} queries in the pool, request_hash {:016x}",
        spec.name,
        req.items.len(),
        req.hash
    );
    let mut layers = Layers::default();

    // 1. Boot layers, in-process.
    for _ in 0..BOOT_REPS {
        let engine = boot_engine(spec, &files, &mut layers)?;
        let cfg = ServeConfig {
            workers: DAEMON_THREADS,
            ..ServeConfig::default()
        };
        let server = layers.time("server.start_ms", MS, || Server::start(engine, cfg))?;
        server.join();
    }

    // 2. The daemon's own counters over a steady open-loop phase.
    let mut boots = Vec::with_capacity(TRACED_BOOTS);
    let mut daemon = None;
    for _ in 0..TRACED_BOOTS {
        drop(daemon.take()); // the previous boot must not run during this one
        let (d, took) = Daemon::boot(&files.args, work, true)?;
        boots.push(took.as_secs_f64() * MS);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one boot");
    let boot_layers: f64 = [
        "kg.tsv_load_ms",
        "model.load_ms",
        "snap.read_ms",
        "engine.build_ms",
        "server.start_ms",
    ]
    .iter()
    .map(|n| layers.value(n))
    .sum();
    layers.set("setup.spawn_ms", median(&boots) - boot_layers);

    let mut traffic = Traffic::new(&daemon.addr, &req);
    traffic.closed(WARM_SECS);
    let before = Scrape::take(&daemon)?;
    let steady = traffic.open(seconds * STEADY_SHARE, spec.rate_qps);
    let after = Scrape::take(&daemon)?;
    daemon.stop()?;
    server_layers(&before, &after, &mut layers);
    let lat = Latency::of(&steady);
    lat.print(&format!("{} (traced steady)", spec.name));
    layers.set("client.p50_ms", lat.p50);
    layers.set("client.p90_ms", lat.p90);
    layers.set("client.p99_ms", lat.p99);
    layers.set("client.lag_p99_ms", lat.lag_p99);
    layers.set(
        "client.repeat_share",
        traffic.tally.repeats as f64 / traffic.tally.attempted.max(1) as f64,
    );
    layers.set(
        "server.wire_us",
        lat.service_mean_us - layers.value("server.latency_us"),
    );

    // 3. Replay through the in-process layer calls: once untraced, once
    // traced, so the trace's own cost is measured too.
    let engine = boot_engine(spec, &files, &mut Layers::default())?;
    let exec = Executor::new(ExecConfig {
        label: "model_batch",
        batch_cap: DEFAULT_BATCH_CAP,
        shards: DAEMON_THREADS,
        precision: Precision::F32,
        ..ExecConfig::default()
    });
    let (model, graph) = match spec.engine {
        AskEngine::Halk => (Some(load_reference(spec, &files)?), None),
        AskEngine::Exact => (None, Some(halk_kg::tsv::load(&files.graph_tsv)?)),
    };
    let pending: Vec<Pending> = send_order(&req.seqs, spec.replay)
        .into_iter()
        .map(|item| {
            let query = halk_sparql::sparql_to_query(&req.sparql[item as usize])
                .expect("pool queries adapt");
            Pending {
                item: item as usize,
                shape: exec.shape_for(&query),
                bindings: PlanBindings::of(&query),
                query,
            }
        })
        .collect();
    let replay = Replay {
        spec,
        engine: &engine,
        exec: &exec,
        model: model.as_ref().map(|m| (m, exec.sharded_trig(m))),
        graph: graph.as_ref(),
        items: &req.items,
        sparql: &req.sparql,
        pending,
    };
    // A warm-up batch first, so neither measured pass pays first-touch
    // costs (plan-cache misses, allocator growth) the other does not.
    let n = replay.pending.len();
    replay.pass(REPLAY_WARM.min(n), &mut Layers::default());
    let (untraced, _) = replay.pass(n, &mut Layers::default());
    let trace_path = out.join("trace.jsonl");
    halk_obs::trace::init_trace(&trace_path)?;
    let hits0 = halk_obs::metrics::counter("halk_plan_cache_hits_total").get();
    let miss0 = halk_obs::metrics::counter("halk_plan_cache_misses_total").get();
    let (traced, failures) = replay.pass(n, &mut layers);
    halk_obs::trace::flush();
    let hits = (halk_obs::metrics::counter("halk_plan_cache_hits_total").get() - hits0) as f64;
    let misses = (halk_obs::metrics::counter("halk_plan_cache_misses_total").get() - miss0) as f64;
    layers.set("plan.cache_hit_share", ratio(hits, hits + misses));
    layers.set("trace.overhead", ratio(median(&traced), median(&untraced)));
    if let Some((_, sharded)) = &replay.model {
        let branches: usize = replay.pending.iter().map(|p| p.shape.n_branches()).sum();
        layers.set(
            "shard.bytes_per_query",
            sharded.resident_bytes() as f64 * branches as f64 / replay.pending.len() as f64,
        );
    }
    let path: f64 = [
        "protocol.decode_us",
        "engine.prepare_us",
        "exec.embed_us",
        "shard.sweep_us",
        "plan.exact_us",
        "protocol.encode_us",
    ]
    .iter()
    .map(|n| layers.value(n))
    .sum();
    layers.set(
        "residual_us",
        lat.p50 * MS - path - layers.value("server.queue_wait_us"),
    );

    let checked = check_trace(&trace_path);
    let trace_ok = checked.is_ok();
    let per_layer = serde_json::json!({
        "workload": spec.name,
        "seed": seed,
        "request_hash": format!("{:016x}", req.hash),
        "replayed": replay.pending.len(),
        "trace": trace_path.to_string_lossy().into_owned(),
        "coverage": coverage_json(spec.name, &checked),
        "layers": layers.json(),
    });
    write_per_layer(out, &per_layer)?;

    let t = traffic.tally;
    let attempted = t.attempted + replay.pending.len() as u64;
    Ok(Report {
        correct: t.failed() == 0 && failures == 0 && trace_ok,
        attempted,
        failed: t.failed() + failures + u64::from(!trace_ok),
        metrics: layers.metrics(),
    })
}

/// Root spans shorter than this are left out of the coverage share, as
/// `trace_check` leaves them out: at microsecond resolution the per-span
/// bookkeeping is as large as the layers (every exact request is that
/// short).
const COVERAGE_MIN_US: i64 = 1_000;

/// How well the layer spans tile the replay root spans.
#[derive(Debug)]
pub struct Coverage {
    /// Root spans long enough to be checked.
    pub checked: usize,
    /// Σ direct-child µs / Σ root µs over the checked root spans.
    pub share: f64,
    /// `trace_check --coverage` verdict: every checked root span on its
    /// own at [`COVERAGE`]. Reported, not gated — one root span the host
    /// descheduled between two layer calls fails it.
    pub per_span: Result<usize, String>,
}

/// Runs `trace_check`'s structural check (gated) and its per-span coverage
/// check (reported), and gates the coverage share of the replay root spans
/// at [`COVERAGE`].
pub fn check_trace(path: &Path) -> Result<Coverage, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    halk_bench::trace_check::check_trace(&text)?;
    let (checked, share) = coverage_share(&text, ROOT_SPAN)?;
    if share < COVERAGE {
        return Err(format!(
            "layer spans cover {:.1}% of {checked} {ROOT_SPAN:?} spans (< {:.1}%)",
            share * 100.0,
            COVERAGE * 100.0
        ));
    }
    Ok(Coverage {
        checked,
        share,
        per_span: halk_bench::trace_check::check_coverage(&text, ROOT_SPAN, COVERAGE),
    })
}

/// `(root spans checked, Σ direct-child µs / Σ root µs)` over the spans
/// named `root` of at least [`COVERAGE_MIN_US`]; a share of 1 when there
/// are none. Call only on a trace that passed `trace_check`.
fn coverage_share(text: &str, root: &str) -> Result<(usize, f64), String> {
    // Per-thread stack of (span name, direct-child µs so far).
    let mut stacks: HashMap<i64, Vec<(String, i64)>> = HashMap::new();
    let (mut checked, mut covered, mut total) = (0usize, 0i64, 0i64);
    for (i, line) in text.lines().enumerate() {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let tid = v["tid"].as_i64().unwrap_or(0);
        let stack = stacks.entry(tid).or_default();
        match v["ev"].as_str() {
            Some("o") => stack.push((v["name"].as_str().unwrap_or("").to_string(), 0)),
            Some("c") => {
                let dur = v["dur_us"].as_i64().unwrap_or(0);
                let (name, children) = stack.pop().ok_or("close without open")?;
                if name == root && dur >= COVERAGE_MIN_US {
                    checked += 1;
                    covered += children;
                    total += dur;
                }
                if let Some(parent) = stack.last_mut() {
                    parent.1 += dur;
                }
            }
            _ => {}
        }
    }
    let share = if total > 0 {
        covered as f64 / total as f64
    } else {
        1.0
    };
    Ok((checked, share))
}

/// The per-request (per-step, for `train_eval`) replay span whose child
/// layer spans `trace_check --coverage` checks.
pub const ROOT_SPAN: &str = "replay_request";

/// The trace verdict for `per_layer.json`; prints any failure.
pub fn coverage_json(workload: &str, checked: &Result<Coverage, String>) -> Value {
    match checked {
        Ok(c) => {
            let per_span = match &c.per_span {
                Ok(_) => "ok".to_string(),
                Err(e) => {
                    eprintln!("{workload}: per-span coverage (reported, not gated): {e}");
                    e.clone()
                }
            };
            serde_json::json!({
                "checked": c.checked,
                "share": c.share,
                "per_span": per_span,
            })
        }
        Err(e) => {
            eprintln!("{workload}: trace check failed: {e}");
            serde_json::json!({ "error": e.clone() })
        }
    }
}

pub fn write_per_layer(out: &Path, v: &Value) -> io::Result<()> {
    let text = serde_json::to_string_pretty(v).expect("JSON renders");
    std::fs::write(out.join("per_layer.json"), text + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace of root spans `(root µs, [child µs])`, one after another on
    /// one thread.
    fn trace(roots: &[(i64, &[i64])]) -> String {
        let mut lines = Vec::new();
        let mut ts = 0;
        let span = |name: &str, start: i64, dur: i64| {
            (
                format!(r#"{{"ev":"o","name":"{name}","ts_us":{start},"tid":0}}"#),
                format!(
                    r#"{{"ev":"c","name":"{name}","ts_us":{},"tid":0,"dur_us":{dur}}}"#,
                    start + dur
                ),
            )
        };
        for &(dur, children) in roots {
            let (open, close) = span(ROOT_SPAN, ts, dur);
            lines.push(open);
            let mut at = ts;
            for &c in children {
                let (o, cl) = span("layer", at, c);
                lines.extend([o, cl]);
                at += c;
            }
            lines.push(close);
            ts += dur;
        }
        lines.join("\n")
    }

    /// One root span descheduled between two layer calls fails the
    /// per-span check but barely moves the share; short roots are left
    /// out of both.
    #[test]
    fn coverage_share_tolerates_one_descheduled_span() {
        let text = trace(&[
            (2_000, &[1_000, 990]),
            (2_000, &[1_000, 990]),
            (2_000, &[900, 960]),
            (500, &[]),
        ]);
        halk_bench::trace_check::check_trace(&text).unwrap();
        let (checked, share) = coverage_share(&text, ROOT_SPAN).unwrap();
        assert_eq!(checked, 3);
        assert!((share - 5_840.0 / 6_000.0).abs() < 1e-12, "{share}");
        assert!(halk_bench::trace_check::check_coverage(&text, ROOT_SPAN, COVERAGE).is_err());

        let (_, share) = coverage_share(&trace(&[(2_000, &[1_000])]), ROOT_SPAN).unwrap();
        assert_eq!(share, 0.5);
        assert_eq!(
            coverage_share(&trace(&[(500, &[])]), ROOT_SPAN).unwrap(),
            (0, 1.0)
        );
    }
}
