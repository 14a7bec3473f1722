//! The request engine: everything loaded once and shared by every session.
//!
//! A daemon's whole point is amortization — the KG, the model, the plan
//! cache and the shard-local entity trig tables are built at startup and
//! then shared immutably (`&self`) across every request, so a request
//! costs only its own query compilation (cached per skeleton) and scoring
//! sweep.
//!
//! Requests are answered in two steps. [`Engine::prepare`] runs in the
//! *session* thread: parse, validate, and resolve the cached
//! `Arc<PlanShape>` — malformed queries bounce with a typed error before
//! ever touching the execution queue, and the shape pointer becomes the
//! skeleton-batching key. [`Engine::execute_prepared`] (or
//! [`Engine::execute_batch`] for a group) runs on the thread
//! holding an execution permit, under `catch_unwind`, so whatever a
//! hostile query manages to trip stays inside one request. With
//! [`Engine::test_faults`] enabled (the load generator's fault drill; never
//! in normal operation) two magic query strings exercise the isolation
//! machinery end-to-end: `__panic__` panics, `__sleep__:<ms>` stalls while
//! honoring the deadline — both are deferred to the executing thread so
//! the panic lands inside the isolation boundary, not in the session loop.
//!
//! The `halk` engine scores through the arc-sharded path: per-shard
//! streaming bounded top-k heaps merged by rank (`halk_core::shard`),
//! never materializing a full score vector, bit-identical to the one-shot
//! `score_all` + `top_k_indices` reference.

use crate::protocol::{AskEngine, ErrorKind, Response};
use halk_core::shard::sharded_top_k_timed;
use halk_core::{
    ArcShards, EntityTrig, ExecConfig, Executor, HalkModel, Pool, Precision, ShardedTrig,
    DEFAULT_BATCH_CAP,
};
use halk_kg::Graph;
use halk_logic::plan::PlanShape;
use halk_logic::plan::{execute_set_batch, PlanBindings};
use halk_logic::Query;
use halk_obs::Deadline;
use std::collections::VecDeque;
use std::sync::Arc;

/// Immutable serving state, shared across session threads.
///
/// The shared machinery — the plan cache, the resident shard-local trig
/// tables, the pool, the group-size cap — lives in the engine's
/// [`Executor`]; the engine itself keeps the graph, the model, and the
/// serve group kernels (exact set execution, sharded top-k sweeps, and
/// fault probes).
pub struct Engine {
    graph: Graph,
    model: Option<HalkModel>,
    /// The batch executor: owns the plan cache, the resident
    /// [`ShardedTrig`] tables (shard count + precision knobs), and the
    /// batch-drain cap.
    exec: Executor,
    test_faults: bool,
    /// Slow-query threshold in milliseconds: a group whose wall time
    /// reaches it emits one structured line per member request (`None`
    /// disables; `Some(0)` logs everything — CI's chain-validation mode).
    /// Defaults from `HALK_SLOW_MS`; `halk serve --slow-ms` overrides.
    slow_ms: Option<u64>,
}

/// A session-side compiled request: parsed, validated, and keyed by its
/// cached plan shape so permit holders can group same-skeleton jobs.
pub struct PreparedAsk {
    kind: PreparedKind,
}

enum PreparedKind {
    Query {
        engine: AskEngine,
        query: Query,
        shape: Arc<PlanShape>,
    },
    /// A `__panic__` / `__sleep__:<ms>` fault probe, deferred to the
    /// executing thread so it fires inside the catch_unwind boundary.
    Fault(String),
}

impl PreparedAsk {
    /// The parsed, validated query and its cached plan shape; `None` for a
    /// fault probe.
    pub fn plan(&self) -> Option<(&Query, &PlanShape)> {
        match &self.kind {
            PreparedKind::Query { query, shape, .. } => Some((query, shape)),
            PreparedKind::Fault(_) => None,
        }
    }

    /// The serve batching rule: two asks share one kernel pass iff both
    /// are queries with the same cached `Arc<PlanShape>` pointer (the
    /// homogeneity guard `train_batch` uses; equal but separately compiled
    /// shapes do not match) for the same engine. Fault probes match
    /// nothing, so they always run alone.
    pub(crate) fn same_batch(&self, other: &PreparedAsk) -> bool {
        match (&self.kind, &other.kind) {
            (
                PreparedKind::Query { engine, shape, .. },
                PreparedKind::Query {
                    engine: e2,
                    shape: s2,
                    ..
                },
            ) => engine == e2 && Arc::ptr_eq(shape, s2),
            _ => false,
        }
    }

    /// The engine lane, for trace details and the slow-query log.
    fn lane(&self) -> &'static str {
        match &self.kind {
            PreparedKind::Fault(_) => "fault",
            PreparedKind::Query {
                engine: AskEngine::Exact,
                ..
            } => "exact",
            PreparedKind::Query { .. } => "halk",
        }
    }
}

/// Pops the queue's oldest entry and pulls every queued companion that
/// [`PreparedAsk::same_batch`]es with it, in queue order, until the group
/// holds `cap` entries. Entries left behind keep their order. The one
/// grouping rule of serve: the daemon drains its request queue with it,
/// and [`Engine::execute_batch`] splits its input with it. `ask` reads an
/// entry's prepared request.
pub(crate) fn take_group<T>(
    queue: &mut VecDeque<T>,
    cap: usize,
    ask: impl Fn(&T) -> &PreparedAsk,
) -> Vec<T> {
    let Some(first) = queue.pop_front() else {
        return Vec::new();
    };
    let mut group = vec![first];
    let mut i = 0;
    while i < queue.len() && group.len() < cap {
        if ask(&group[0]).same_batch(ask(&queue[i])) {
            group.push(queue.remove(i).expect("index checked"));
        } else {
            i += 1;
        }
    }
    group
}

/// One member of a same-skeleton batch: a prepared request plus its
/// per-request answer budget and deadline, and the request-scoped trace
/// identity the daemon minted at accept time.
#[derive(Clone, Copy)]
pub struct BatchItem<'a> {
    pub prepared: &'a PreparedAsk,
    pub top: usize,
    pub deadline: &'a Deadline,
    /// The daemon-minted [`ReqId`](crate::server) carried through the
    /// trace hop chain; 0 for paths with no request identity (CLI `ask`,
    /// tests) — those are omitted from `req=` trace details.
    pub req: u64,
    /// Microseconds the request waited in the daemon queue before a
    /// permit holder ran it (0 off the daemon path).
    pub queue_wait_us: u64,
}

/// Wall-time breakdown of one group execution, reported by the slow-query
/// log. For halk groups `embed` is the batched plan embedding, `score`
/// the parallel shard sweep and `merge` the coordinator merge-k; exact
/// groups report plan execution under `score`; fault probes report zeros.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseBreakdown {
    embed_us: u64,
    score_us: u64,
    merge_us: u64,
}

/// The default slow-query threshold: `HALK_SLOW_MS=<ms>` (unset or
/// unparsable = disabled).
fn slow_ms_from_env() -> Option<u64> {
    std::env::var("HALK_SLOW_MS").ok()?.parse().ok()
}

/// `"1,5,9"` — the nonzero request ids of a group, `None` when the group
/// has no daemon-minted identity at all.
fn req_list(items: &[BatchItem]) -> Option<String> {
    let ids: Vec<String> = items
        .iter()
        .filter(|it| it.req != 0)
        .map(|it| it.req.to_string())
        .collect();
    if ids.is_empty() {
        None
    } else {
        Some(ids.join(","))
    }
}

impl Engine {
    /// Builds the serving state, warming the shard-local entity trig once.
    /// The shard count defaults to the pool's thread budget (HALK_THREADS
    /// or the machine); fix it with [`Engine::with_options`].
    pub fn new(graph: Graph, model: Option<HalkModel>) -> Engine {
        Engine::with_options(graph, model, None, Precision::F32)
    }

    /// [`Engine::new`] with the shard count and trig precision fixed up
    /// front, so the boot-time table build happens exactly once in the
    /// requested format (no throwaway full-precision warm-up).
    pub fn with_options(
        graph: Graph,
        model: Option<HalkModel>,
        shards: Option<usize>,
        precision: Precision,
    ) -> Engine {
        let shards = shards.unwrap_or_else(|| Pool::auto().threads()).max(1);
        let engine = Engine {
            graph,
            model,
            exec: Executor::new(Engine::exec_config(shards, precision)),
            test_faults: false,
            slow_ms: slow_ms_from_env(),
        };
        // Warm the shard-local trig once at construction, so request 1
        // scores through exactly the same tables as request 100.
        if let Some(m) = &engine.model {
            let _ = engine.exec.sharded_trig(m);
        }
        engine.publish_trig_gauges();
        engine
    }

    /// The serving executor profile: the same `model_batch` pool region
    /// the model's own executor uses, capped at [`DEFAULT_BATCH_CAP`]
    /// per group (`halk serve --batch-cap` overrides).
    fn exec_config(shards: usize, precision: Precision) -> ExecConfig {
        ExecConfig {
            batch_cap: DEFAULT_BATCH_CAP,
            shards,
            precision,
            ..ExecConfig::model()
        }
    }

    /// [`Engine::with_options`] booting from a precomputed full-precision
    /// trig table (a snapshot's `TRIG` section) instead of paying the
    /// sin/cos sweep. The table is re-sliced into shards — bit-identical
    /// to a fresh build at every precision (`ShardedTrig::from_table`) —
    /// and dropped afterwards, so the resident working set is the same as
    /// a cold boot's.
    pub fn with_boot_table(
        graph: Graph,
        model: HalkModel,
        trig: &EntityTrig,
        shards: Option<usize>,
        precision: Precision,
    ) -> Engine {
        assert_eq!(
            trig.n_entities(),
            model.n_entities(),
            "boot trig/model entity count mismatch"
        );
        let shards = shards.unwrap_or_else(|| Pool::auto().threads()).max(1);
        let version = model.param_store().steps_taken();
        let engine = Engine {
            graph,
            model: Some(model),
            exec: Executor::new(Engine::exec_config(shards, precision)),
            test_faults: false,
            slow_ms: slow_ms_from_env(),
        };
        let parts = ArcShards::new(trig.n_entities(), shards);
        engine
            .exec
            .install_sharded(version, ShardedTrig::from_table(trig, &parts, precision));
        engine.publish_trig_gauges();
        engine
    }

    /// Overrides the batch-drain cap: the most same-skeleton jobs one
    /// permit holder groups into a single kernel pass (`halk serve --batch-cap`;
    /// defaults to [`DEFAULT_BATCH_CAP`]).
    pub fn batch_cap(mut self, cap: usize) -> Engine {
        self.exec.set_batch_cap(cap.max(1));
        self
    }

    /// The batch-drain cap permit holders group up to.
    pub fn max_batch(&self) -> usize {
        self.exec.batch_cap()
    }

    /// Publishes the resident-bytes gauges for the current shard tables.
    fn publish_trig_gauges(&self) {
        if let Some(sharded) = self.exec.resident_sharded() {
            let total = sharded.resident_bytes();
            halk_obs::metrics::gauge("halk_serve_trig_resident_bytes").set(total as f64);
            halk_obs::metrics::gauge(&format!(
                "halk_serve_trig_resident_bytes_{}",
                self.exec.precision().name()
            ))
            .set(total as f64);
            for (s, bytes) in self.trig_shard_bytes().into_iter().enumerate() {
                halk_obs::metrics::gauge(&format!("halk_serve_trig_resident_bytes_shard_{s}"))
                    .set(bytes as f64);
            }
        }
    }

    /// The configured arc-shard count.
    pub fn n_shards(&self) -> usize {
        self.exec.shards()
    }

    /// The trig storage precision the engine scores at.
    pub fn scoring_precision(&self) -> Precision {
        self.exec.precision()
    }

    /// Total resident bytes of the shard-local trig tables (0 without a
    /// model).
    pub fn trig_resident_bytes(&self) -> usize {
        self.exec
            .resident_sharded()
            .map_or(0, |s| s.resident_bytes())
    }

    /// Resident trig bytes per shard (empty without a model).
    pub fn trig_shard_bytes(&self) -> Vec<usize> {
        let Some(sharded) = self.exec.resident_sharded() else {
            return Vec::new();
        };
        (0..sharded.n_shards())
            .map(|s| sharded.shard(s).0.resident_bytes())
            .collect()
    }

    /// Enables the `__panic__` / `__sleep__:<ms>` fault hooks. Only the
    /// fault drill turns this on; a production daemon treats those
    /// strings as the bad SPARQL they are.
    pub fn test_faults(mut self, enabled: bool) -> Engine {
        self.test_faults = enabled;
        self
    }

    /// Overrides the slow-query threshold: groups whose wall time reaches
    /// `ms` emit one structured log line and `slow_query` trace instant
    /// per member request. `None` disables (unless `HALK_SLOW_MS` set it);
    /// `Some(0)` logs every request.
    pub fn slow_ms(mut self, ms: Option<u64>) -> Engine {
        self.slow_ms = ms;
        self
    }

    /// The active slow-query threshold, if any.
    pub fn slow_threshold_ms(&self) -> Option<u64> {
        self.slow_ms
    }

    /// The graph being served.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// True when a model is loaded (the `halk` engine is available).
    pub fn has_model(&self) -> bool {
        self.model.is_some()
    }

    /// Session-side compilation: parse and validate the SPARQL and resolve
    /// the cached plan shape. A malformed query is rejected here — before
    /// admission, queueing, or execution — as `Err(typed response)`.
    pub fn prepare(&self, engine: AskEngine, sparql: &str) -> Result<PreparedAsk, Response> {
        if self.test_faults && (sparql == "__panic__" || sparql.starts_with("__sleep__:")) {
            return Ok(PreparedAsk {
                kind: PreparedKind::Fault(sparql.to_string()),
            });
        }
        let query = match halk_sparql::sparql_to_query(sparql) {
            Ok(q) => q,
            Err(e) => {
                return Err(Response::Error {
                    kind: ErrorKind::BadQuery,
                    detail: e.to_string(),
                })
            }
        };
        if let Err(detail) = self.validate(&query) {
            return Err(Response::Error {
                kind: ErrorKind::BadQuery,
                detail,
            });
        }
        let shape = self.exec.shape_for(&query);
        Ok(PreparedAsk {
            kind: PreparedKind::Query {
                engine,
                query,
                shape,
            },
        })
    }

    /// Answers one prepared request. Infallible by construction: every
    /// failure is a typed [`Response::Error`]. May panic only through a
    /// bug (or an injected test fault) — the server catches that one
    /// level up.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedAsk,
        top: usize,
        deadline: &Deadline,
    ) -> Response {
        self.execute_batch(&[BatchItem {
            prepared,
            top,
            deadline,
            req: 0,
            queue_wait_us: 0,
        }])
        .pop()
        .expect("one item in, one response out")
    }

    /// Answers any mix of prepared items, in submission order. The items
    /// are split into groups with the daemon's own [`take_group`] rule
    /// (capped at [`Engine::max_batch`]) and each group runs as one kernel
    /// pass; response `i` is bit-identical to `execute_prepared(items[i],
    /// ...)` run alone. The permit holder's drain hands over one
    /// already-homogeneous group, which is one pass.
    pub fn execute_batch(&self, items: &[BatchItem]) -> Vec<Response> {
        let mut queue: VecDeque<(usize, BatchItem)> = items.iter().copied().enumerate().collect();
        let mut out: Vec<Option<Response>> = vec![None; items.len()];
        while !queue.is_empty() {
            let (idxs, group): (Vec<usize>, Vec<BatchItem>) =
                take_group(&mut queue, self.max_batch(), |(_, it)| it.prepared)
                    .into_iter()
                    .unzip();
            for (i, resp) in idxs.into_iter().zip(self.execute_group(&group)) {
                out[i] = Some(resp);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every item lands in one group"))
            .collect()
    }

    /// Runs one [`take_group`] group (same shape and engine, or a lone
    /// fault probe) under the executor's group accounting, and feeds the
    /// slow-query log. The `exec_group` span carries `req=...` ids, the
    /// engine lane and the batch size, so the JSONL hop chain session →
    /// queue → executor is greppable by request id (DESIGN.md §16).
    fn execute_group(&self, items: &[BatchItem]) -> Vec<Response> {
        let lead = items[0].prepared;
        let lane = lead.lane();
        let batch = items.len();
        let _span = self.exec.group_span(batch, || {
            Some(match req_list(items) {
                Some(reqs) => format!("req={reqs} lane={lane} batch={batch}"),
                None => format!("lane={lane} batch={batch}"),
            })
        });
        let t0 = std::time::Instant::now();
        let mut phases = PhaseBreakdown::default();
        let (out, shape) = match &lead.kind {
            PreparedKind::Fault(probe) => (vec![self.run_fault(probe, items[0].deadline)], None),
            PreparedKind::Query { engine, shape, .. } => {
                let out = match engine {
                    AskEngine::Exact => self.execute_exact_group(shape, items, &mut phases),
                    AskEngine::Halk => self.execute_halk_group(shape, items, &mut phases),
                };
                (out, Some(shape))
            }
        };
        self.note_slow_group(lane, shape, items, t0.elapsed().as_micros() as u64, phases);
        out
    }

    /// One-shot convenience (tests): prepare + execute.
    pub fn execute(
        &self,
        engine: AskEngine,
        top: usize,
        sparql: &str,
        deadline: &Deadline,
    ) -> Response {
        match self.prepare(engine, sparql) {
            Ok(p) => self.execute_prepared(&p, top, deadline),
            Err(resp) => resp,
        }
    }

    /// Rejects queries referencing entities or relations outside the
    /// graph before they can index out of bounds deep in the engine.
    fn validate(&self, query: &Query) -> Result<(), String> {
        let n = self.graph.n_entities() as u32;
        let r = self.graph.n_relations() as u32;
        if let Some(e) = query.anchors().iter().find(|e| e.0 >= n) {
            return Err(format!("entity e:{} out of range (n={n})", e.0));
        }
        if let Some(rel) = query.relations().iter().find(|rel| rel.0 >= r) {
            return Err(format!("relation r:{} out of range (n={r})", rel.0));
        }
        Ok(())
    }

    /// Exact engine over a same-shape group: one slot-table allocation
    /// serves the whole batch (`execute_set_batch`). Plan execution time
    /// is reported under the breakdown's `score` phase.
    fn execute_exact_group(
        &self,
        shape: &PlanShape,
        items: &[BatchItem],
        phases: &mut PhaseBreakdown,
    ) -> Vec<Response> {
        let bindings: Vec<PlanBindings> = items
            .iter()
            .map(|it| match &it.prepared.kind {
                PreparedKind::Query { query, .. } => PlanBindings::of(query),
                PreparedKind::Fault(_) => unreachable!("fault probes are never batched"),
            })
            .collect();
        let refs: Vec<&PlanBindings> = bindings.iter().collect();
        let deadlines: Vec<&Deadline> = items.iter().map(|it| it.deadline).collect();
        let t0 = std::time::Instant::now();
        let results = execute_set_batch(shape, &refs, &self.graph, &deadlines);
        phases.score_us = t0.elapsed().as_micros() as u64;
        results
            .into_iter()
            .zip(items)
            .map(|(res, it)| match res {
                Ok(ans) => Response::Answers {
                    total: ans.len(),
                    ids: ans.iter().take(it.top).map(|e| e.0).collect(),
                },
                Err(halk_logic::plan::DeadlineExpired) => Response::Error {
                    kind: ErrorKind::Deadline,
                    detail: "deadline expired during plan execution".to_string(),
                },
            })
            .collect()
    }

    /// Halk engine over a same-shape group: one batched plan embedding
    /// compiles every query's scorer, then one streaming sweep per shard
    /// serves the whole group (slice-major, so each hot trig slice scores
    /// all queries before moving on). Per-request deadlines are honored at
    /// slice boundaries; `scored_rows` is the union of per-shard prefixes
    /// and the hits are an exact top-k of that scored subset.
    fn execute_halk_group(
        &self,
        shape: &PlanShape,
        items: &[BatchItem],
        phases: &mut PhaseBreakdown,
    ) -> Vec<Response> {
        let Some(model) = &self.model else {
            let err = || Response::Error {
                kind: ErrorKind::NoModel,
                detail: "daemon started without --model".to_string(),
            };
            return items.iter().map(|_| err()).collect();
        };
        let sharded = self.exec.sharded_trig(model);
        let queries: Vec<&Query> = items
            .iter()
            .map(|it| match &it.prepared.kind {
                PreparedKind::Query { query, .. } => query,
                PreparedKind::Fault(_) => unreachable!("fault probes are never batched"),
            })
            .collect();
        let t0 = std::time::Instant::now();
        let scorers = self.exec.scorers_for_group(model, shape, &queries);
        phases.embed_us = t0.elapsed().as_micros() as u64;
        let ks: Vec<usize> = items.iter().map(|it| it.top).collect();
        let deadlines: Vec<&Deadline> = items.iter().map(|it| it.deadline).collect();
        let n = sharded.n_entities();
        // The req tag extends the hop chain into the per-shard pool threads;
        // built only when tracing is on.
        let tag = if halk_obs::trace::enabled() {
            req_list(items).map(|reqs| format!("req={reqs}"))
        } else {
            None
        };
        let (results, timing) = sharded_top_k_timed(
            &self.exec.pool(),
            &sharded,
            &scorers,
            &ks,
            &deadlines,
            tag.as_deref(),
        );
        phases.score_us = timing.score_us;
        phases.merge_us = timing.merge_us;
        results
            .into_iter()
            .map(|(hits, rows)| Response::Scores {
                truncated: rows < n,
                scored_rows: rows,
                hits,
            })
            .collect()
    }

    /// Emits the slow-query log when a group's wall time reaches the
    /// threshold: one structured `log!(Warn)` line (visible under
    /// `HALK_LOG=warn`) *and* one `slow_query` trace instant per member
    /// request, each carrying the request id, engine lane, plan-skeleton
    /// id, batch size, queue wait and the embed/score/merge breakdown —
    /// the trace copy is what `trace_check --reqids` validates in CI.
    fn note_slow_group(
        &self,
        lane: &str,
        shape: Option<&Arc<PlanShape>>,
        items: &[BatchItem],
        wall_us: u64,
        phases: PhaseBreakdown,
    ) {
        let Some(slow_ms) = self.slow_ms else { return };
        if wall_us < slow_ms.saturating_mul(1_000) {
            return;
        }
        // Skeleton identity = structural summary + the grouping pointer
        // (same skeleton ⇒ same cached Arc, so the hex tag is stable for
        // the daemon's lifetime).
        let skeleton = shape.map_or_else(
            || "none".to_string(),
            |s| {
                format!(
                    "s{}b{}@{:x}",
                    s.n_slots(),
                    s.n_branches(),
                    Arc::as_ptr(s) as usize
                )
            },
        );
        let batch = items.len();
        for it in items {
            halk_obs::counter!("halk_serve_slow_queries_total", windowed).inc();
            let line = format!(
                "req={} lane={lane} skeleton={skeleton} batch={batch} wall_us={wall_us} \
                 queue_wait_us={} embed_us={} score_us={} merge_us={}",
                it.req, it.queue_wait_us, phases.embed_us, phases.score_us, phases.merge_us
            );
            halk_obs::log!(Warn, "slow_query {line}");
            halk_obs::trace::instant_detail("slow_query", || line.clone());
        }
    }

    /// Runs a deferred fault probe on the executing thread.
    fn run_fault(&self, sparql: &str, deadline: &Deadline) -> Response {
        if sparql == "__panic__" {
            panic!("injected test fault");
        }
        match sparql.strip_prefix("__sleep__:") {
            Some(ms) => self.fault_sleep(ms, deadline),
            None => unreachable!("prepare only defers known fault strings"),
        }
    }

    /// `__sleep__:<ms>`: hold an execution permit while staying
    /// deadline-honest, in 5 ms slices like a real long computation.
    fn fault_sleep(&self, ms: &str, deadline: &Deadline) -> Response {
        let Ok(ms) = ms.parse::<u64>() else {
            return Response::Error {
                kind: ErrorKind::BadQuery,
                detail: "bad __sleep__ duration".to_string(),
            };
        };
        let mut slept = 0u64;
        while slept < ms {
            if deadline.expired() {
                return Response::Error {
                    kind: ErrorKind::Deadline,
                    detail: format!("deadline expired {slept} ms into sleep"),
                };
            }
            let step = 5.min(ms - slept);
            std::thread::sleep(std::time::Duration::from_millis(step));
            slept += step;
        }
        Response::Pong
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halk_kg::Triple;

    fn toy_engine(test_faults: bool) -> Engine {
        let graph = Graph::from_triples(
            4,
            2,
            vec![
                Triple::new(0, 0, 1),
                Triple::new(0, 0, 2),
                Triple::new(1, 1, 3),
            ],
        );
        Engine::new(graph, None).test_faults(test_faults)
    }

    #[test]
    fn exact_ask_answers_and_bad_queries_are_typed() {
        let e = toy_engine(false);
        let r = e.execute(
            AskEngine::Exact,
            10,
            "SELECT ?x WHERE { e:0 r:0 ?x . }",
            &Deadline::never(),
        );
        assert_eq!(
            r,
            Response::Answers {
                total: 2,
                ids: vec![1, 2]
            }
        );
        let bad = e.execute(AskEngine::Exact, 10, "SELECT nonsense", &Deadline::never());
        assert!(matches!(
            bad,
            Response::Error {
                kind: ErrorKind::BadQuery,
                ..
            }
        ));
        // Out-of-range ids are rejected, not panicked on.
        let oob = e.execute(
            AskEngine::Exact,
            10,
            "SELECT ?x WHERE { e:99 r:0 ?x . }",
            &Deadline::never(),
        );
        assert!(matches!(
            oob,
            Response::Error {
                kind: ErrorKind::BadQuery,
                ..
            }
        ));
    }

    #[test]
    fn prepare_rejects_bad_queries_and_keys_batches_by_shape() {
        let e = toy_engine(false);
        assert!(e.prepare(AskEngine::Exact, "SELECT nonsense").is_err());
        let a = e
            .prepare(AskEngine::Exact, "SELECT ?x WHERE { e:0 r:0 ?x . }")
            .unwrap();
        let b = e
            .prepare(AskEngine::Exact, "SELECT ?x WHERE { e:1 r:1 ?x . }")
            .unwrap();
        // Same skeleton (one atom) ⇒ same cached shape pointer.
        assert!(a.same_batch(&b));
    }

    const P1A: &str = "SELECT ?x WHERE { e:0 r:0 ?x . }";
    const P1B: &str = "SELECT ?x WHERE { e:1 r:1 ?x . }";
    const P2: &str = "SELECT ?x WHERE { e:0 r:0 ?y . ?y r:1 ?x . }";

    /// A queue for [`take_group`]: one `(position, ask)` per
    /// `(engine, sparql)`, prepared on `e`.
    fn queue_of(e: &Engine, asks: &[(AskEngine, &str)]) -> VecDeque<(usize, PreparedAsk)> {
        asks.iter()
            .enumerate()
            .map(|(i, &(eng, sparql))| {
                let p = e.prepare(eng, sparql);
                (i, p.unwrap_or_else(|_| panic!("{sparql}")))
            })
            .collect()
    }

    /// Positions of the next group taken from `q`.
    fn take(q: &mut VecDeque<(usize, PreparedAsk)>, cap: usize) -> Vec<usize> {
        let group = take_group(q, cap, |(_, p)| p);
        group.into_iter().map(|(i, _)| i).collect()
    }

    fn left(q: &VecDeque<(usize, PreparedAsk)>) -> Vec<usize> {
        q.iter().map(|(i, _)| *i).collect()
    }

    #[test]
    fn take_group_pulls_same_shape_and_engine_in_queue_order() {
        // Same 1p skeleton twice more behind the leader, interleaved with
        // a 2p query, a fault probe and a 1p query for the other engine.
        let e = toy_engine(true);
        let mut q = queue_of(
            &e,
            &[
                (AskEngine::Exact, P1A),
                (AskEngine::Exact, P2),
                (AskEngine::Exact, P1B),
                (AskEngine::Exact, "__panic__"),
                (AskEngine::Halk, P1A),
                (AskEngine::Exact, P1A),
            ],
        );
        assert_eq!(take(&mut q, 16), [0, 2, 5]);
        assert_eq!(left(&q), [1, 3, 4], "left-behind asks keep their order");
        // The engine splits a shared skeleton: the halk 1p ask waits for
        // its own group.
        assert_eq!(take(&mut q, 16), [1]);
        assert_eq!(take(&mut q, 16), [3]);
        assert_eq!(take(&mut q, 16), [4]);
    }

    #[test]
    fn take_group_splits_at_the_cap() {
        let e = toy_engine(false);
        let mut q = queue_of(
            &e,
            &[
                (AskEngine::Exact, P1A),
                (AskEngine::Exact, P1B),
                (AskEngine::Exact, P2),
                (AskEngine::Exact, P1A),
                (AskEngine::Exact, P1B),
            ],
        );
        assert_eq!(take(&mut q, 3), [0, 1, 3]);
        assert_eq!(left(&q), [2, 4]);
        // A cap of one is the leader alone.
        assert_eq!(take(&mut q, 1), [2]);
        assert_eq!(left(&q), [4]);
        // Five same-skeleton asks at cap 2: 2 + 2 + 1, in order.
        let mut q = queue_of(&e, &[(AskEngine::Exact, P1A); 5]);
        assert_eq!(take(&mut q, 2), [0, 1]);
        assert_eq!(take(&mut q, 2), [2, 3]);
        assert_eq!(take(&mut q, 2), [4]);
        assert!(q.is_empty());
    }

    #[test]
    fn fault_probes_lead_alone_and_an_empty_queue_yields_nothing() {
        let e = toy_engine(true);
        let mut q = queue_of(
            &e,
            &[
                (AskEngine::Exact, "__sleep__:1"),
                (AskEngine::Exact, "__sleep__:1"),
                (AskEngine::Exact, P1A),
            ],
        );
        assert_eq!(take(&mut q, 16), [0]);
        assert_eq!(left(&q), [1, 2]);
        assert_eq!(take(&mut q, 16), [1]);
        let mut empty = VecDeque::new();
        assert!(take(&mut empty, 16).is_empty());
    }

    #[test]
    fn equal_but_separately_compiled_shapes_do_not_group() {
        // Two engines compile the same skeleton into two `Arc`s: grouping
        // is by pointer, never by structural equality.
        let (a, b) = (toy_engine(false), toy_engine(false));
        let mut q = VecDeque::from([
            (0, a.prepare(AskEngine::Exact, P1A).unwrap()),
            (1, b.prepare(AskEngine::Exact, P1A).unwrap()),
        ]);
        assert_eq!(take(&mut q, 16), [0]);
        assert_eq!(take(&mut q, 16), [1]);
    }

    #[test]
    fn execute_batch_of_a_mix_matches_each_item_alone() {
        // Two halk skeletons, the same skeleton on the exact engine and a
        // fault probe, interleaved: every response equals the item run
        // alone, in submission order, at the default cap and at cap 2.
        let graph = toy_engine(false).graph().clone();
        let model = HalkModel::new(&graph, halk_core::HalkConfig::tiny());
        let mut e = Engine::new(graph, Some(model)).test_faults(true);
        let asks = [
            (AskEngine::Halk, P1A),
            (AskEngine::Halk, P2),
            (AskEngine::Exact, P1A),
            (AskEngine::Exact, "__sleep__:0"),
            (AskEngine::Halk, P1B),
            (AskEngine::Exact, P1B),
            (AskEngine::Halk, P2),
            (AskEngine::Halk, P1A),
        ];
        let never = Deadline::never();
        for cap in [DEFAULT_BATCH_CAP, 2] {
            e = e.batch_cap(cap);
            let prepared = queue_of(&e, &asks);
            let items: Vec<BatchItem> = prepared
                .iter()
                .map(|(_, p)| BatchItem {
                    prepared: p,
                    top: 3,
                    deadline: &never,
                    req: 0,
                    queue_wait_us: 0,
                })
                .collect();
            let alone: Vec<Response> = asks
                .iter()
                .map(|&(eng, sparql)| e.execute(eng, 3, sparql, &never))
                .collect();
            assert!(matches!(alone[1], Response::Scores { .. }));
            assert_eq!(alone[3], Response::Pong);
            assert_eq!(e.execute_batch(&items), alone, "cap {cap}");
        }
    }

    #[test]
    fn exact_batch_matches_singles() {
        let e = toy_engine(false);
        let sparqls = [
            "SELECT ?x WHERE { e:0 r:0 ?x . }",
            "SELECT ?x WHERE { e:1 r:1 ?x . }",
        ];
        let prepared: Vec<PreparedAsk> = sparqls
            .iter()
            .map(|s| e.prepare(AskEngine::Exact, s).unwrap())
            .collect();
        let never = Deadline::never();
        let items: Vec<BatchItem> = prepared
            .iter()
            .map(|p| BatchItem {
                prepared: p,
                top: 10,
                deadline: &never,
                req: 0,
                queue_wait_us: 0,
            })
            .collect();
        let batch = e.execute_batch(&items);
        for (resp, s) in batch.iter().zip(&sparqls) {
            assert_eq!(
                resp,
                &e.execute(AskEngine::Exact, 10, s, &Deadline::never())
            );
        }
    }

    #[test]
    fn halk_engine_without_model_is_no_model() {
        let e = toy_engine(false);
        let r = e.execute(
            AskEngine::Halk,
            5,
            "SELECT ?x WHERE { e:0 r:0 ?x . }",
            &Deadline::never(),
        );
        assert!(matches!(
            r,
            Response::Error {
                kind: ErrorKind::NoModel,
                ..
            }
        ));
    }

    #[test]
    fn expired_deadline_on_exact_is_a_typed_error() {
        let e = toy_engine(false);
        let (clock, now) = halk_obs::Clock::mock();
        now.store(10, std::sync::atomic::Ordering::SeqCst);
        let d = Deadline::at_ns(&clock, 1);
        let r = e.execute(AskEngine::Exact, 10, "SELECT ?x WHERE { e:0 r:0 ?x . }", &d);
        assert!(matches!(
            r,
            Response::Error {
                kind: ErrorKind::Deadline,
                ..
            }
        ));
    }

    #[test]
    fn fault_hooks_are_inert_without_the_flag() {
        let e = toy_engine(false);
        let r = e.execute(AskEngine::Exact, 10, "__panic__", &Deadline::never());
        assert!(matches!(
            r,
            Response::Error {
                kind: ErrorKind::BadQuery,
                ..
            }
        ));
    }

    #[test]
    fn slow_threshold_zero_flags_every_request() {
        let e = toy_engine(false).slow_ms(Some(0));
        let c = halk_obs::metrics::counter("halk_serve_slow_queries_total");
        let before = c.get();
        let r = e.execute(
            AskEngine::Exact,
            10,
            "SELECT ?x WHERE { e:0 r:0 ?x . }",
            &Deadline::never(),
        );
        assert!(matches!(r, Response::Answers { .. }));
        assert!(c.get() > before, "threshold 0 flags every group");
    }

    #[test]
    fn sleeper_probe_crosses_the_slow_threshold() {
        // The `__sleep__:<ms>` fault probe is the induced slow query: it
        // holds a permit for 20 ms, well past a 5 ms threshold, and the
        // keyless (fault-lane) group still goes through the slow-query
        // accounting.
        let e = toy_engine(true).slow_ms(Some(5));
        let c = halk_obs::metrics::counter("halk_serve_slow_queries_total");
        let before = c.get();
        let r = e.execute(AskEngine::Exact, 10, "__sleep__:20", &Deadline::never());
        assert_eq!(r, Response::Pong);
        assert!(c.get() > before, "20 ms sleep crosses the 5 ms threshold");
    }

    #[test]
    fn fast_requests_stay_under_a_high_threshold() {
        let e = toy_engine(false).slow_ms(Some(60_000));
        let c = halk_obs::metrics::counter("halk_serve_slow_queries_total");
        let before = c.get();
        let _ = e.execute(
            AskEngine::Exact,
            10,
            "SELECT ?x WHERE { e:0 r:0 ?x . }",
            &Deadline::never(),
        );
        assert_eq!(c.get(), before, "a toy query never takes a minute");
    }

    #[test]
    fn sleep_fault_honors_deadline() {
        let e = toy_engine(true);
        let clock = halk_obs::Clock::monotonic();
        let d = Deadline::after(&clock, std::time::Duration::from_millis(10));
        let r = e.execute(AskEngine::Exact, 10, "__sleep__:10000", &d);
        assert!(matches!(
            r,
            Response::Error {
                kind: ErrorKind::Deadline,
                ..
            }
        ));
    }
}
