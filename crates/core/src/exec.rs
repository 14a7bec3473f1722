//! The batch executor: what train, eval and serve share around their
//! group kernels (DESIGN.md §15).
//!
//! HaLk's pipeline is the same on every surface — compile a plan, embed
//! a same-skeleton group, score entities, reduce. Each surface already
//! knows its group when it gets here (a training batch is one structure,
//! an eval chunk is sampled from one structure, serve drains same-shape
//! requests), so each one runs its own group kernel. [`Executor`] owns
//! what those kernels share:
//!
//! * **Per-structure caches.** The compiled-plan cache ([`PlanCache`],
//!   FIFO-bounded) lives here, as does the scoring-cache layer: the
//!   generic [`QueryModel::score_cache`] product (HaLk's full
//!   [`EntityTrig`](crate::scorer::EntityTrig) table) and the
//!   serving-side [`ShardedTrig`] shard-local tables at any
//!   [`Precision`]. Both are built at most once per parameter state
//!   (versioned by the optimizer step count) and shared via `Arc` — eval
//!   does not rebuild the trig table per structure, and serve's resident
//!   tables come from the same layer. [`Executor::shape_for`] returns
//!   the cached `Arc<PlanShape>`, whose pointer is the grouping identity
//!   every surface uses.
//! * **The pool.** [`Executor::pool`] is the labeled `halk-par` pool every
//!   group kernel fans out on (`par_map_mut` for training shards,
//!   `par_shards` inside
//!   [`sharded_top_k_timed`](crate::shard::sharded_top_k_timed)
//!   for serving sweeps, which fork only when big enough to pay for the
//!   spawn and otherwise run on a one-thread pool under the same label).
//!   Eval forks once per table row, not inside a cell. The thread that
//!   calls the kernel — the training step, the serve session — runs the
//!   first share itself, so a `k`-thread pool spawns `k − 1` threads per
//!   fork.
//!   Thread count is a scheduling knob only; every surface's contract is
//!   bit-identical results at any setting.
//! * **Observability.** Every group goes through [`Executor::group_span`],
//!   which opens the `exec_group` span and ticks `halk_exec_groups_total`
//!   / `halk_exec_jobs_total` / `halk_exec_group_size`; the cache layer
//!   ticks `halk_exec_cache_builds_total` vs `halk_exec_cache_hits_total`,
//!   which is what the eval-reuse regression test pins.
//! * **The training step.** HaLk and the three baselines all train
//!   through [`Executor::stage_step`] and [`StagedStep::apply`]: fixed
//!   8-example shards, each on a kept `(Tape, GradBuffer)` pair, folded in
//!   shard order before one clip and one Adam step (DESIGN.md §9). A
//!   model supplies only the forward pass of one [`TrainShard`].
//!
//! What stays with each surface is its group kernel and the protocol
//! around it: train supplies its shard forward, eval computes filtered
//! ranks and accepts them in attempt order, serve turns merged top-k heaps
//! into protocol replies.
//! Per-request deadlines ride inside the serve items and are honored by
//! the group kernels (slice-boundary checks in the sharded sweep), so a
//! deadline-blown request degrades alone without stalling its group.

use crate::model::HalkModel;
use crate::qmodel::{QueryModel, ScoreCache, TrainExample};
use crate::scorer::{ArcScorer, Precision};
use crate::shard::ShardedTrig;
use halk_logic::plan::{PlanBindings, PlanCache, PlanShape};
use halk_logic::Query;
use halk_nn::{GradBuffer, ParamStore, Tape, Var};
use halk_obs::trace::SpanGuard;
use halk_par::Pool;
use std::sync::{Arc, Mutex};

/// Serve's default batch-drain cap: most same-skeleton requests one
/// permit holder runs as a single kernel pass (`halk serve --batch-cap`
/// overrides).
pub const DEFAULT_BATCH_CAP: usize = 16;

/// Examples per training shard. Fixed by data, not by hardware: the shard
/// plan for a batch is identical at every thread count, which is what makes
/// data-parallel training bit-reproducible (DESIGN.md §9).
const TRAIN_SHARD_SIZE: usize = 8;

/// Construction parameters for an [`Executor`]. `Default` gives an
/// unbounded, auto-threaded executor labeled `"exec"` scoring at full
/// precision.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Pool threads for group kernels (0 = auto, like [`Pool::auto`]).
    pub threads: usize,
    /// Pool region label (shows up in `halk_pool_*_<label>` metrics).
    pub label: &'static str,
    /// Largest group serve drains into one kernel pass; 0 = unbounded.
    /// Serving uses [`DEFAULT_BATCH_CAP`]; train and eval ignore it (a
    /// training batch and an eval chunk are one group by construction).
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

impl ExecConfig {
    /// The executor a model owns for its training step and scoring:
    /// auto-threaded, no group cap (a training batch is one group),
    /// full-precision tables, and the `model_batch` pool label every
    /// release has used.
    pub fn model() -> ExecConfig {
        ExecConfig {
            label: "model_batch",
            ..ExecConfig::default()
        }
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

/// The batch executor (see the module docs).
///
/// `Sync` by construction: one executor is shared by reference across
/// threads (serve's sessions, eval's table cells), with the cache layer
/// behind a mutex and the plan cache behind its own lock.
pub struct Executor {
    threads: usize,
    label: &'static str,
    batch_cap: usize,
    shards: usize,
    precision: Precision,
    plans: PlanCache,
    cache: Mutex<CacheState>,
    /// Kept per-shard training state: each batch shard owns a tape (reset,
    /// not dropped, between batches so its buffer pool amortizes every
    /// forward allocation) plus a staging [`GradBuffer`]. Derived state,
    /// not saved: fresh shards give the same bits (DESIGN.md §8).
    pub(crate) train: Mutex<Vec<(Tape, GradBuffer)>>,
}

/// One training shard, as a model's forward pass sees it: the shard's
/// examples and binding tables, the batch's compiled shape, and `m`, the
/// smallest negative count in the whole batch.
pub struct TrainShard<'a> {
    /// The shard's examples (at most 8).
    pub examples: &'a [TrainExample],
    /// The batch's compiled plan shape (one per batch: batches are
    /// same-structure).
    pub shape: &'a PlanShape,
    /// One binding table per example, in example order.
    pub bindings: &'a [PlanBindings],
    /// Negative columns per example: the batch-wide minimum, so no shard
    /// depends on the split.
    pub m: usize,
}

/// Shard gradients staged by [`Executor::stage_step`]; [`StagedStep::apply`]
/// folds them into the store and takes the optimizer step.
pub struct StagedStep<'e> {
    exec: &'e Executor,
    shards: Vec<(Tape, GradBuffer)>,
    n_shards: usize,
    loss: f32,
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
            train: Mutex::new(Vec::new()),
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

    /// Sets the pool thread count (0 = auto). A scheduling knob only:
    /// every surface's contract is bit-identical results at any setting.
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

    // --------------------------------------------------------- grouping

    /// The configured group-size cap (0 = unbounded).
    pub fn batch_cap(&self) -> usize {
        self.batch_cap
    }

    /// Overrides the group-size cap (0 = unbounded).
    pub fn set_batch_cap(&mut self, cap: usize) {
        self.batch_cap = cap;
    }

    /// Accounts one group of `jobs` jobs: ticks `halk_exec_jobs_total`,
    /// `halk_exec_groups_total` and `halk_exec_group_size`, and opens the
    /// group's `exec_group` span, which closes when the guard drops. Every
    /// surface calls this once per group kernel, so the names are shared.
    ///
    /// `detail` tags the span — serve returns `req=<id>,...` plus the
    /// engine lane and batch size, so one grep of the JSONL reconstructs a
    /// request's hop chain (DESIGN.md §16); train and eval return `None`.
    /// It is called only when tracing is on, so the disabled path stays
    /// one relaxed load, exactly like a plain `span!`.
    pub fn group_span(&self, jobs: usize, detail: impl FnOnce() -> Option<String>) -> SpanGuard {
        halk_obs::counter!("halk_exec_jobs_total").add(jobs as u64);
        let span = match halk_obs::trace::enabled().then(detail).flatten() {
            Some(d) => halk_obs::trace::span_detail("exec_group", move || d),
            None => halk_obs::trace::span("exec_group"),
        };
        halk_obs::counter!("halk_exec_groups_total").inc();
        halk_obs::histogram!("halk_exec_group_size").record(jobs as u64);
        span
    }

    // ----------------------------------------------------------- caches

    /// The arc-shard count [`Executor::sharded_trig`] builds at (0 = the
    /// pool's thread budget).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The trig storage precision of the executor's sharded tables.
    pub fn precision(&self) -> Precision {
        self.precision
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

    // ------------------------------------------------------------ train

    /// The forward and backward half of one training step over a batch of
    /// same-structure examples. It fixes the batch-wide constants (`m`,
    /// the compiled shape, every example's bindings), then runs each fixed
    /// 8-example shard on its kept tape on the pool, as one group: `forward`
    /// returns the shard-mean loss, which is scaled by the shard's share of
    /// the batch and backpropagated into the shard's own buffer. Shard
    /// boundaries depend only on the batch size, so any thread count gives
    /// the same bits (DESIGN.md §9).
    ///
    /// # Panics
    /// On an empty batch, an example without negatives, or a batch whose
    /// queries compile to different shapes.
    pub fn stage_step<F>(
        &self,
        store: &ParamStore,
        batch: &[TrainExample],
        forward: F,
    ) -> StagedStep<'_>
    where
        F: Fn(&mut Tape, &TrainShard<'_>) -> Var + Sync,
    {
        assert!(!batch.is_empty());
        let b = batch.len();
        let n_shards = b.div_ceil(TRAIN_SHARD_SIZE);
        let m = batch.iter().map(|ex| ex.negatives.len()).min().unwrap_or(0);
        assert!(m > 0, "training requires at least one negative per example");
        let shape = self.shape_for(&batch[0].query);
        let bindings: Vec<PlanBindings> = batch
            .iter()
            .map(|ex| {
                assert!(
                    Arc::ptr_eq(&shape, &self.shape_for(&ex.query)),
                    "heterogeneous batch: {} does not match the batch shape",
                    ex.query.render()
                );
                PlanBindings::of(&ex.query)
            })
            .collect();

        let mut shards = std::mem::take(&mut *self.train.lock().expect("train shards"));
        shards.resize_with(shards.len().max(n_shards), || {
            (Tape::new(), GradBuffer::new())
        });
        let group = self.group_span(b, || None);
        let losses = self
            .pool()
            .par_map_mut(&mut shards[..n_shards], |si, (tape, buf)| {
                let lo = si * TRAIN_SHARD_SIZE;
                let hi = (lo + TRAIN_SHARD_SIZE).min(b);
                tape.reset();
                buf.reset_for(store);
                let shard = TrainShard {
                    examples: &batch[lo..hi],
                    shape: &shape,
                    bindings: &bindings[lo..hi],
                    m,
                };
                let loss = forward(tape, &shard);
                // Weight the shard's mean by its share of the batch so the
                // shard-summed loss and gradients form one batch-wide mean.
                let scaled = tape.scale(loss, (hi - lo) as f32 / b as f32);
                tape.backward_into(scaled, buf);
                tape.value(scaled).item()
            });
        drop(group);
        StagedStep {
            exec: self,
            shards,
            n_shards,
            loss: losses.iter().sum(),
        }
    }

    // ------------------------------------------------------------ embed

    /// One batched tape embedding for a same-shape group: compiles every
    /// query's [`ArcScorer`] in a single plan execution (B×d slot
    /// tensors), the amortization serving has always exploited — exposed
    /// here so every surface (and the bench harness) shares it.
    pub fn scorers_for_group(
        &self,
        model: &HalkModel,
        shape: &PlanShape,
        queries: &[&Query],
    ) -> Vec<ArcScorer> {
        model.scorers_for_shape(shape, queries)
    }
}

impl StagedStep<'_> {
    /// The optimizer half of the step: adds the shard gradients into
    /// `store` in shard order (whichever worker produced them), clips the
    /// global norm to 5 and takes one Adam step. Returns the batch loss.
    pub fn apply(self, store: &mut ParamStore, lr: f32) -> f32 {
        store.zero_grads();
        for (_, buf) in &self.shards[..self.n_shards] {
            buf.add_into(store);
        }
        store.clip_grad_norm(5.0);
        store.adam_step(lr);
        *self.exec.train.lock().expect("train shards") = self.shards;
        self.loss
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
