//! The skeleton-keyed batch executor: one group lifecycle under train,
//! eval, and serve (ROADMAP item 5).
//!
//! HaLk's pipeline is the same on every surface — compile a plan, embed
//! the skeleton batch, score entities, reduce — and before this module the
//! repo carried three hand-rolled fan-outs over those primitives:
//! `train_batch`'s fixed-8 shard loop, `evaluate_structure_pool`'s
//! speculative chunk pipeline, and `halk-serve`'s `worker_loop` group
//! drain. [`Executor`] owns what they shared:
//!
//! * **Skeleton grouping.** Jobs are keyed by [`ShapeKey`] — an
//!   `Arc<PlanShape>` compared by *pointer* identity (the same
//!   homogeneity guard `train_batch` has always used) plus a small
//!   backend-defined `lane` for sub-keys like serve's exact-vs-halk
//!   engine split. [`Executor::submit`] partitions a job list into
//!   same-key groups capped at [`Executor::batch_cap`], runs each group
//!   through the backend's reduce hook, and scatters the outputs back
//!   into submission order.
//! * **Per-structure caches.** The compiled-plan cache ([`PlanCache`],
//!   FIFO-bounded) lives here, as does the scoring-cache layer: the
//!   generic [`QueryModel::score_cache`] product (HaLk's full
//!   [`EntityTrig`](crate::scorer::EntityTrig) table) and the
//!   serving-side [`ShardedTrig`] shard-local tables at any
//!   [`Precision`]. Both are built at most once per parameter state
//!   (versioned by the optimizer step count) and shared via `Arc` — eval
//!   no longer rebuilds the trig table per structure, and serve's
//!   resident tables come from the same layer.
//! * **The pool.** [`Executor::pool`] is the labeled `halk-par` pool every
//!   group kernel fans out on (`par_map_mut` for training shards,
//!   `par_map_dyn` for eval scoring, `par_shards` inside
//!   [`sharded_top_k_timed`](crate::shard::sharded_top_k_timed) for
//!   serving sweeps).
//!   Thread count is a scheduling knob only; every backend's contract is
//!   bit-identical results at any setting.
//! * **Observability.** Every group opens an `exec_group` span and ticks
//!   `halk_exec_groups_total` / `halk_exec_jobs_total` /
//!   `halk_exec_group_size`; the cache layer ticks
//!   `halk_exec_cache_builds_total` vs `halk_exec_cache_hits_total`, which
//!   is what the eval-reuse regression test pins.
//!
//! What stays with each surface is exactly the reduce hook
//! ([`ExecBackend::exec_group`]) and the protocol around it: train stages
//! per-shard gradients and folds them in fixed shard order, eval computes
//! filtered ranks and accepts them in attempt order, serve turns merged
//! top-k heaps into protocol replies. Per-request deadlines ride inside
//! the jobs and are honored by the group kernels (slice-boundary checks in
//! the sharded sweep), so a deadline-blown request degrades alone without
//! stalling its group.

use crate::model::HalkModel;
use crate::qmodel::{QueryModel, ScoreCache};
use crate::scorer::{ArcScorer, Precision};
use crate::shard::ShardedTrig;
use halk_logic::plan::{PlanCache, PlanShape};
use halk_logic::Query;
use halk_par::Pool;
use std::sync::{Arc, Mutex};

/// Serve's default batch-drain cap: most jobs one worker groups into a
/// single same-skeleton kernel pass (`halk serve --batch-cap` overrides).
pub const DEFAULT_BATCH_CAP: usize = 16;

/// Construction parameters for an [`Executor`]. `Default` gives an
/// unbounded, auto-threaded executor labeled `"exec"` scoring at full
/// precision.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Worker threads for group kernels (0 = auto, like [`Pool::auto`]).
    pub threads: usize,
    /// Pool region label (shows up in `halk_pool_*_<label>` metrics).
    pub label: &'static str,
    /// Largest same-key group [`Executor::submit`] forms; 0 = unbounded.
    /// Serving uses [`DEFAULT_BATCH_CAP`]; train and eval run unbounded
    /// (a training batch is one group by construction).
    pub batch_cap: usize,
    /// Arc-shard count for [`Executor::sharded_trig`] (0 = the pool's
    /// thread budget at build time).
    pub shards: usize,
    /// Storage precision of the shard-local trig tables.
    pub precision: Precision,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            threads: 0,
            label: "exec",
            batch_cap: 0,
            shards: 0,
            precision: Precision::F32,
        }
    }
}

/// The skeleton-batching key: jobs group iff their shapes are the *same
/// `Arc` allocation* (compiled once, shared via the executor's
/// [`PlanCache`]) and their lanes match. The lane is a backend-defined
/// sub-key — serve uses it to keep exact and halk requests for the same
/// skeleton in separate groups.
#[derive(Debug, Clone)]
pub struct ShapeKey {
    shape: Arc<PlanShape>,
    lane: u32,
}

impl ShapeKey {
    /// A key on the default lane (0).
    pub fn new(shape: Arc<PlanShape>) -> ShapeKey {
        ShapeKey { shape, lane: 0 }
    }

    /// A key with an explicit backend-defined lane.
    pub fn with_lane(shape: Arc<PlanShape>, lane: u32) -> ShapeKey {
        ShapeKey { shape, lane }
    }

    /// The compiled shape this key points at.
    pub fn shape(&self) -> &Arc<PlanShape> {
        &self.shape
    }

    /// The backend-defined sub-key.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Same group ⇔ same shape pointer and same lane.
    pub fn same_group(&self, other: &ShapeKey) -> bool {
        self.lane == other.lane && Arc::ptr_eq(&self.shape, &other.shape)
    }
}

/// One surface of the executor: a key function and a reduce hook.
///
/// [`Executor::submit`] calls [`key_of`] once per job (in submission
/// order — key resolution may touch the plan cache, so it stays
/// sequential and deterministic), forms same-key groups, and hands each
/// group to [`exec_group`], which must return exactly one output per job
/// *in the order given*. Jobs with no key (serve's fault probes) always
/// run in a group of one.
///
/// [`key_of`]: ExecBackend::key_of
/// [`exec_group`]: ExecBackend::exec_group
pub trait ExecBackend: Sync {
    /// One unit of work (a training example index, an eval candidate
    /// query, a prepared serve request).
    type Job: Sync;
    /// Per-job result (unit for train, ranks for eval, a protocol
    /// response for serve).
    type Out: Send;

    /// The skeleton-batching key, or `None` to run the job alone.
    fn key_of(&self, exec: &Executor, job: &Self::Job) -> Option<ShapeKey>;

    /// The reduce hook: run one same-key group, returning one output per
    /// job in the given order. This is where the surfaces differ —
    /// gradient staging for train, rank folds for eval, top-k replies for
    /// serve — while the embed/score primitives come from `exec`
    /// ([`Executor::pool`], [`Executor::scorers_for_group`],
    /// [`Executor::score_cache`], [`Executor::sharded_trig`]).
    fn exec_group(
        &self,
        exec: &Executor,
        key: Option<&ShapeKey>,
        jobs: &[&Self::Job],
    ) -> Vec<Self::Out>;

    /// Optional tag for the group's `exec_group` trace span. Serve returns
    /// `req=<id>,...` plus the engine lane here so one grep of the JSONL
    /// reconstructs a request's hop chain (DESIGN.md §16); the default
    /// leaves the span detail-less, so train and eval traces are
    /// unchanged. Called only when tracing is enabled.
    fn group_detail(&self, key: Option<&ShapeKey>, jobs: &[&Self::Job]) -> Option<String> {
        let _ = (key, jobs);
        None
    }
}

/// Scoring caches for one parameter state (see [`Executor::score_cache`]).
struct CacheState {
    /// `ParamStore::steps_taken` when the caches were built; a moved
    /// version invalidates both (training between evals).
    version: u64,
    score: Option<Arc<ScoreCache>>,
    sharded: Option<Arc<ShardedTrig>>,
}

/// The skeleton-keyed batch executor (see the module docs).
///
/// `Sync` by construction: one executor is shared by reference across
/// worker threads (serve's workers, eval's table cells), with the cache
/// layer behind a mutex and the plan cache behind its own lock.
pub struct Executor {
    threads: usize,
    label: &'static str,
    batch_cap: usize,
    shards: usize,
    precision: Precision,
    plans: PlanCache,
    cache: Mutex<CacheState>,
}

impl Executor {
    /// Builds an executor from a config (see [`ExecConfig`] for knobs).
    pub fn new(cfg: ExecConfig) -> Executor {
        Executor {
            threads: cfg.threads,
            label: cfg.label,
            batch_cap: cfg.batch_cap,
            shards: cfg.shards,
            precision: cfg.precision,
            plans: PlanCache::new(),
            cache: Mutex::new(CacheState {
                version: 0,
                score: None,
                sharded: None,
            }),
        }
    }

    // ------------------------------------------------------------- pool

    /// The labeled fork-join pool group kernels fan out on.
    pub fn pool(&self) -> Pool {
        if self.threads == 0 {
            Pool::auto()
        } else {
            Pool::new(self.threads)
        }
        .labeled(self.label)
    }

    /// Sets the worker-thread count (0 = auto). A scheduling knob only:
    /// every backend contract is bit-identical results at any setting.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    // ------------------------------------------------------------ plans

    /// The executor-owned compiled-plan cache (FIFO-bounded; see
    /// `halk_logic::plan::PlanCache`).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// Compiles (or returns the cached) shape for a query. The returned
    /// `Arc` is the grouping identity: same skeleton ⇒ same pointer.
    pub fn shape_for(&self, query: &Query) -> Arc<PlanShape> {
        self.plans.shape_for(query)
    }

    // --------------------------------------------------------- batching

    /// The configured group-size cap (0 = unbounded).
    pub fn batch_cap(&self) -> usize {
        self.batch_cap
    }

    /// Overrides the group-size cap (0 = unbounded).
    pub fn set_batch_cap(&mut self, cap: usize) {
        self.batch_cap = cap;
    }

    // ----------------------------------------------------------- caches

    /// The arc-shard count [`Executor::sharded_trig`] builds at (0 = the
    /// pool's thread budget).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Overrides the shard count, dropping any resident sharded tables.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards;
        self.invalidate();
    }

    /// The trig storage precision of the executor's sharded tables.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Overrides the precision, dropping any resident sharded tables.
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
        self.invalidate();
    }

    /// Drops every resident cache (next access rebuilds).
    pub fn invalidate(&self) {
        let mut st = self.cache.lock().expect("exec cache");
        st.score = None;
        st.sharded = None;
    }

    /// The model's scoring cache for its *current* parameter state, built
    /// at most once per state and shared via `Arc`. Versioned by the
    /// optimizer step count, so a training step between evals rebuilds;
    /// across structures of one eval run the same table is reused (this
    /// is what deduplicates eval's per-structure `EntityTrig` with
    /// serve's resident tables — both come from this layer).
    pub fn score_cache<M: QueryModel + ?Sized>(&self, model: &M) -> Option<Arc<ScoreCache>> {
        let version = model.param_store().map_or(0, |s| s.steps_taken());
        let mut st = self.cache.lock().expect("exec cache");
        st.roll_to(version);
        if let Some(cache) = &st.score {
            halk_obs::counter!("halk_exec_cache_hits_total", windowed).inc();
            return Some(cache.clone());
        }
        let built = model.score_cache().map(Arc::new);
        if built.is_some() {
            halk_obs::counter!("halk_exec_cache_builds_total", windowed).inc();
        }
        st.score = built.clone();
        built
    }

    /// The resident shard-local trig tables for the model's current
    /// parameter state, building them on first use at the configured
    /// shard count and precision. The build is held under the cache lock
    /// so concurrent callers share one table instead of racing to build.
    pub fn sharded_trig(&self, model: &HalkModel) -> Arc<ShardedTrig> {
        let version = model.param_store().steps_taken();
        let mut st = self.cache.lock().expect("exec cache");
        st.roll_to(version);
        if let Some(sharded) = &st.sharded {
            halk_obs::counter!("halk_exec_cache_hits_total", windowed).inc();
            return sharded.clone();
        }
        let shards = if self.shards == 0 {
            self.pool().threads()
        } else {
            self.shards
        }
        .max(1);
        let built = Arc::new(model.entity_shards_with(shards, self.precision));
        halk_obs::counter!("halk_exec_cache_builds_total", windowed).inc();
        st.sharded = Some(built.clone());
        built
    }

    /// Installs precomputed shard tables (a snapshot's re-sliced `TRIG`
    /// section) as the resident cache for parameter state `version`,
    /// skipping the sin/cos build entirely.
    pub fn install_sharded(&self, version: u64, sharded: ShardedTrig) {
        let mut st = self.cache.lock().expect("exec cache");
        st.version = version;
        st.score = None;
        st.sharded = Some(Arc::new(sharded));
    }

    /// The resident sharded tables, if already built/installed (never
    /// builds; serving uses this after its boot-time warm).
    pub fn resident_sharded(&self) -> Option<Arc<ShardedTrig>> {
        self.cache.lock().expect("exec cache").sharded.clone()
    }

    // ------------------------------------------------------------ embed

    /// One batched tape embedding for a same-shape group: compiles every
    /// query's [`ArcScorer`] in a single plan execution (B×d slot
    /// tensors), the amortization serving has always exploited — exposed
    /// here so every backend (and the bench harness) shares it.
    pub fn scorers_for_group(
        &self,
        model: &HalkModel,
        shape: &PlanShape,
        queries: &[&Query],
    ) -> Vec<ArcScorer> {
        model.scorers_for_shape(shape, queries)
    }

    // ----------------------------------------------------------- submit

    /// Runs a job list through the backend: keys every job (in order),
    /// partitions into same-key groups capped at [`Executor::batch_cap`]
    /// (first-fit into the most recent open group, so grouping is
    /// deterministic in submission order), executes groups in first-seen
    /// order, and scatters outputs back to submission order.
    ///
    /// Group execution is sequential at this level — parallelism lives
    /// *inside* the group kernels, on [`Executor::pool`] — which is what
    /// keeps every surface's reduction order independent of thread count.
    pub fn submit<B: ExecBackend>(&self, backend: &B, jobs: &[B::Job]) -> Vec<B::Out> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let cap = if self.batch_cap == 0 {
            usize::MAX
        } else {
            self.batch_cap
        };
        let keys: Vec<Option<ShapeKey>> = jobs.iter().map(|j| backend.key_of(self, j)).collect();
        let mut groups: Vec<(Option<ShapeKey>, Vec<usize>)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let open = key.as_ref().and_then(|k| {
                groups
                    .iter()
                    .enumerate()
                    .rev()
                    .find(|(_, (gk, idxs))| {
                        idxs.len() < cap && gk.as_ref().is_some_and(|g| g.same_group(k))
                    })
                    .map(|(gi, _)| gi)
            });
            match open {
                Some(gi) => groups[gi].1.push(i),
                None => groups.push((key.clone(), vec![i])),
            }
        }
        halk_obs::counter!("halk_exec_jobs_total").add(jobs.len() as u64);
        let mut out: Vec<Option<B::Out>> = jobs.iter().map(|_| None).collect();
        for (key, idxs) in groups {
            let group: Vec<&B::Job> = idxs.iter().map(|&i| &jobs[i]).collect();
            // The backend's detail hook (request ids, lanes) is consulted
            // only when tracing is on; the disabled path stays one relaxed
            // load, exactly like a plain `span!`.
            let _span = if halk_obs::trace::enabled() {
                match backend.group_detail(key.as_ref(), &group) {
                    Some(d) => halk_obs::trace::span_detail("exec_group", move || d),
                    None => halk_obs::trace::span("exec_group"),
                }
            } else {
                halk_obs::trace::span("exec_group")
            };
            halk_obs::counter!("halk_exec_groups_total").inc();
            halk_obs::histogram!("halk_exec_group_size").record(idxs.len() as u64);
            let results = backend.exec_group(self, key.as_ref(), &group);
            assert_eq!(
                results.len(),
                idxs.len(),
                "exec_group must return one output per job"
            );
            for (&i, r) in idxs.iter().zip(results) {
                out[i] = Some(r);
            }
        }
        out.into_iter()
            .map(|o| o.expect("grouping covers every job"))
            .collect()
    }
}

impl CacheState {
    /// Drops stale caches when the parameter state moved.
    fn roll_to(&mut self, version: u64) {
        if self.version != version {
            self.version = version;
            self.score = None;
            self.sharded = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halk_kg::{EntityId, RelationId};

    /// A backend that records group composition: output = (group ordinal
    /// as observed via a counter, index within group).
    struct Recorder {
        shapes: Vec<Option<ShapeKey>>,
        groups: Mutex<Vec<Vec<usize>>>,
    }

    impl ExecBackend for Recorder {
        type Job = usize;
        type Out = usize;
        fn key_of(&self, _exec: &Executor, job: &usize) -> Option<ShapeKey> {
            self.shapes[*job].clone()
        }
        fn exec_group(
            &self,
            _exec: &Executor,
            _key: Option<&ShapeKey>,
            jobs: &[&usize],
        ) -> Vec<usize> {
            self.groups
                .lock()
                .unwrap()
                .push(jobs.iter().map(|&&j| j).collect());
            // Output = the job id, so submit's scatter is checkable.
            jobs.iter().map(|&&j| j).collect()
        }
    }

    fn shape(seed: u32) -> Arc<PlanShape> {
        // Distinct anchors share a skeleton; distinct *arities* don't, so
        // build distinct shapes from structurally different queries.
        let base = Query::atom(EntityId(0), RelationId(0));
        let q = (0..seed).fold(base, |q, _| q.project(RelationId(0)));
        Arc::new(PlanShape::compile(&q))
    }

    fn exec_with_cap(cap: usize) -> Executor {
        Executor::new(ExecConfig {
            threads: 1,
            batch_cap: cap,
            ..ExecConfig::default()
        })
    }

    #[test]
    fn groups_by_pointer_identity_and_restores_submission_order() {
        let a = shape(1);
        let b = shape(2);
        // Interleaved keys: a b a b a — two groups, outputs in input order.
        let shapes = vec![
            Some(ShapeKey::new(a.clone())),
            Some(ShapeKey::new(b.clone())),
            Some(ShapeKey::new(a.clone())),
            Some(ShapeKey::new(b)),
            Some(ShapeKey::new(a)),
        ];
        let backend = Recorder {
            shapes,
            groups: Mutex::new(Vec::new()),
        };
        let jobs: Vec<usize> = (0..5).collect();
        let out = exec_with_cap(0).submit(&backend, &jobs);
        assert_eq!(out, jobs, "outputs scatter back to submission order");
        let groups = backend.groups.into_inner().unwrap();
        assert_eq!(groups, vec![vec![0, 2, 4], vec![1, 3]]);
    }

    #[test]
    fn equal_but_distinct_arcs_do_not_group() {
        // Two separately compiled (equal) shapes: identity is the Arc
        // pointer, exactly like train_batch's homogeneity guard.
        let backend = Recorder {
            shapes: vec![Some(ShapeKey::new(shape(1))), Some(ShapeKey::new(shape(1)))],
            groups: Mutex::new(Vec::new()),
        };
        let out = exec_with_cap(0).submit(&backend, &[0usize, 1]);
        assert_eq!(out, vec![0, 1]);
        assert_eq!(backend.groups.into_inner().unwrap().len(), 2);
    }

    #[test]
    fn lanes_split_same_shape_groups() {
        let a = shape(1);
        let backend = Recorder {
            shapes: vec![
                Some(ShapeKey::with_lane(a.clone(), 0)),
                Some(ShapeKey::with_lane(a.clone(), 1)),
                Some(ShapeKey::with_lane(a, 0)),
            ],
            groups: Mutex::new(Vec::new()),
        };
        let out = exec_with_cap(0).submit(&backend, &[0usize, 1, 2]);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(
            backend.groups.into_inner().unwrap(),
            vec![vec![0, 2], vec![1]]
        );
    }

    #[test]
    fn batch_cap_splits_oversized_groups() {
        let a = shape(1);
        let backend = Recorder {
            shapes: (0..5).map(|_| Some(ShapeKey::new(a.clone()))).collect(),
            groups: Mutex::new(Vec::new()),
        };
        let jobs: Vec<usize> = (0..5).collect();
        let out = exec_with_cap(2).submit(&backend, &jobs);
        assert_eq!(out, jobs);
        assert_eq!(
            backend.groups.into_inner().unwrap(),
            vec![vec![0, 1], vec![2, 3], vec![4]],
            "cap 2 splits 5 same-key jobs into 2+2+1 in order"
        );
    }

    #[test]
    fn keyless_jobs_run_alone() {
        let a = shape(1);
        let backend = Recorder {
            shapes: vec![
                None,
                Some(ShapeKey::new(a.clone())),
                None,
                Some(ShapeKey::new(a)),
            ],
            groups: Mutex::new(Vec::new()),
        };
        let out = exec_with_cap(0).submit(&backend, &[0usize, 1, 2, 3]);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(
            backend.groups.into_inner().unwrap(),
            vec![vec![0], vec![1, 3], vec![2]]
        );
    }

    #[test]
    fn empty_submit_is_empty() {
        let backend = Recorder {
            shapes: Vec::new(),
            groups: Mutex::new(Vec::new()),
        };
        assert!(exec_with_cap(0).submit(&backend, &[]).is_empty());
    }
}
