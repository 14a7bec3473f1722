//! The generic training loop (Algorithm 1 of the paper).
//!
//! Works for any [`QueryModel`], so the baselines are trained by exactly the
//! same harness with exactly the same budget — the paper's own protocol
//! ("all ablated networks are trained on the same experimental
//! environment", §IV-C). A pool of grounded queries is pre-sampled per
//! structure; each step batches same-structure queries, draws a positive
//! answer and `m` negatives, and takes one optimizer step.
//!
//! The loop is crash-safe for models exposing a parameter store: it can
//! periodically checkpoint to disk (rotating the last K files), resume a
//! run from such a checkpoint at the recorded step, and — when a batch
//! produces a non-finite loss or parameters — roll the model back to the
//! last good snapshot and skip the batch instead of poisoning the run.

use crate::qmodel::{QueryModel, TrainExample};
use halk_kg::Graph;
use halk_logic::plan::{execute_set, PlanBindings, PlanCache};
use halk_logic::{EntitySet, GroundedQuery, Sampler, Structure};
use halk_nn::checkpoint;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs for one training run (model-independent).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Total optimizer steps.
    pub steps: usize,
    /// Queries per batch.
    pub batch_size: usize,
    /// Negative samples per query.
    pub negatives: usize,
    /// Pre-sampled query pool size per structure.
    pub queries_per_structure: usize,
    /// Scheduling weight of the 1p structure relative to the others:
    /// the projection operator underpins every other operator, so the
    /// benchmark protocol oversamples link-prediction batches. Applied to
    /// every model equally.
    pub p1_weight: usize,
    /// Seed for sampling.
    pub seed: u64,
    /// Print a progress line every N steps (0 = silent).
    pub log_every: usize,
    /// Write a checkpoint every N steps (0 = disabled). Requires
    /// `checkpoint_dir` and a model that exposes its parameter store.
    pub checkpoint_every: usize,
    /// Directory receiving `step-*.ckpt` files (created if missing).
    pub checkpoint_dir: Option<PathBuf>,
    /// How many rotated checkpoint files to keep (older ones are deleted;
    /// clamped to at least 1).
    pub keep_checkpoints: usize,
    /// Resume from this checkpoint file: restores parameters, Adam state
    /// and the step counter, then trains the remaining steps.
    pub resume_from: Option<PathBuf>,
    /// Worker threads for data-parallel training and pool setup
    /// (0 = auto via `HALK_THREADS` or the machine's parallelism; 1 =
    /// strictly sequential). Purely a scheduling knob — results are
    /// bit-identical at every setting.
    pub threads: usize,
    /// Cooperative stop flag (e.g. set from a SIGINT handler): checked
    /// between steps, so the in-flight step always completes, a final
    /// checkpoint is written, and the run returns normally with
    /// [`TrainStats::interrupted`] set instead of dying mid-update.
    pub stop: Option<Arc<AtomicBool>>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            steps: 600,
            batch_size: 64,
            negatives: 16,
            queries_per_structure: 150,
            p1_weight: 3,
            seed: 13,
            log_every: 0,
            checkpoint_every: 0,
            checkpoint_dir: None,
            keep_checkpoints: 3,
            resume_from: None,
            threads: 0,
            stop: None,
        }
    }
}

impl TrainConfig {
    /// A fast configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            steps: 30,
            batch_size: 8,
            negatives: 4,
            queries_per_structure: 20,
            ..Self::default()
        }
    }
}

/// Why a training run could not proceed.
#[derive(Debug)]
pub enum TrainError {
    /// None of the requested structures is both supported by the model and
    /// groundable on the graph.
    NoTrainableStructures { model: String },
    /// `resume_from` / `checkpoint_every` were set but the model does not
    /// expose a parameter store.
    NoParamStore { model: String },
    /// The resume checkpoint could not be read or decoded.
    Resume { path: PathBuf, error: io::Error },
    /// The resume checkpoint's parameter shapes do not match the model.
    ResumeShapeMismatch { path: PathBuf },
    /// A periodic checkpoint could not be written.
    SaveCheckpoint { path: PathBuf, error: io::Error },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::NoTrainableStructures { model } => {
                write!(f, "no trainable structures for {model}")
            }
            TrainError::NoParamStore { model } => write!(
                f,
                "{model} exposes no parameter store; checkpointing and resume are unavailable"
            ),
            TrainError::Resume { path, error } => {
                write!(f, "cannot resume from {}: {error}", path.display())
            }
            TrainError::ResumeShapeMismatch { path } => write!(
                f,
                "checkpoint {} does not match the model's parameter shapes",
                path.display()
            ),
            TrainError::SaveCheckpoint { path, error } => {
                write!(f, "cannot write checkpoint {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Resume { error, .. } | TrainError::SaveCheckpoint { error, .. } => {
                Some(error)
            }
            _ => None,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainStats {
    /// Loss after each step.
    pub losses: Vec<f32>,
    /// Wall-clock training time (the "offline time" of Fig. 6b).
    pub wall: Duration,
    /// Structures actually trained (those the model supports and that were
    /// groundable on the graph).
    pub trained_structures: Vec<Structure>,
    /// Steps whose batch produced a non-finite loss or parameters and were
    /// rolled back to the last good snapshot instead of applied.
    pub rollbacks: usize,
    /// Step the run started at (> 0 when resumed from a checkpoint).
    pub start_step: usize,
    /// True when the run stopped early via [`TrainConfig::stop`]; the
    /// in-flight step completed and a final checkpoint was written, so a
    /// resume from the checkpoint directory continues seamlessly.
    pub interrupted: bool,
}

impl TrainStats {
    /// Mean loss over the last quarter of training.
    pub fn tail_loss(&self) -> f32 {
        let n = self.losses.len();
        if n == 0 {
            return f32::NAN;
        }
        let tail = &self.losses[n - (n / 4).max(1)..];
        tail.iter().sum::<f32>() / tail.len() as f32
    }
}

/// A pre-sampled pool of grounded training queries with their exact answer
/// sets on the training graph.
struct Pool {
    structure: Structure,
    items: Vec<(GroundedQuery, EntitySet)>,
}

/// How often the divergence guard refreshes its in-memory snapshot when
/// disk checkpointing is disabled.
const SNAPSHOT_EVERY: usize = 50;

/// Rotating on-disk checkpoint writer.
struct Checkpointer {
    dir: PathBuf,
    every: usize,
    keep: usize,
    written: Vec<PathBuf>,
}

impl Checkpointer {
    fn path_for(dir: &Path, step: usize) -> PathBuf {
        dir.join(format!("step-{step:08}.ckpt"))
    }

    fn save(&mut self, store: &halk_nn::ParamStore, step: usize) -> Result<(), TrainError> {
        let path = Self::path_for(&self.dir, step);
        let annotate = |error: io::Error| TrainError::SaveCheckpoint {
            path: path.clone(),
            error,
        };
        std::fs::create_dir_all(&self.dir).map_err(annotate)?;
        checkpoint::save_file(store, &path).map_err(annotate)?;
        self.written.push(path);
        while self.written.len() > self.keep.max(1) {
            // Rotation is best-effort: a missing old file is not an error.
            let _ = std::fs::remove_file(self.written.remove(0));
        }
        Ok(())
    }
}

/// Trains `model` on `graph` over the given structures (those the model
/// supports), following Algorithm 1: batches of same-structure queries,
/// margin loss, Adam — until the step budget is exhausted.
///
/// With `cfg.checkpoint_every`/`checkpoint_dir` set, the parameter store is
/// written crash-safely every N steps (keeping the last
/// `cfg.keep_checkpoints` files plus a final one); with `cfg.resume_from`
/// set, parameters, Adam state and the step counter are restored first and
/// only the remaining steps run. Batches that produce a non-finite loss or
/// parameters are rolled back and counted in [`TrainStats::rollbacks`].
pub fn train_model<M: QueryModel + ?Sized>(
    model: &mut M,
    graph: &Graph,
    structures: &[Structure],
    cfg: &TrainConfig,
) -> Result<TrainStats, TrainError> {
    let _span = halk_obs::span!("train_model", || format!(
        "{} steps={} batch={}",
        model.name(),
        cfg.steps,
        cfg.batch_size
    ));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sampler = Sampler::new(graph);
    let par = if cfg.threads == 0 {
        halk_par::Pool::auto()
    } else {
        halk_par::Pool::new(cfg.threads)
    }
    .labeled("train_pool_setup");
    model.set_threads(par.threads());

    let setup_span = halk_obs::span!("train_pool_setup");
    let pools: Vec<Pool> = structures
        .iter()
        .filter(|&&s| model.supports(s))
        .filter_map(|&s| {
            // 1p trains on every (head, relation) pair — the paper's
            // protocol; other structures use a sampled pool.
            let qs = if s == Structure::P1 {
                sampler.all_p1()
            } else {
                sampler.sample_many(s, cfg.queries_per_structure, &mut rng)
            };
            if qs.is_empty() {
                return None;
            }
            // Answer sets vary in size, so fan the exact-answer
            // computation out through the dynamic splitter; zipping the
            // in-order results back preserves the sequential pool layout.
            // All queries in a pool share one structure, so the plan cache
            // compiles exactly one shape here.
            let plans = PlanCache::new();
            let anss = par.par_map_dyn(&qs, |gq| {
                let shape = plans.shape_for(&gq.query);
                execute_set(&shape, &PlanBindings::of(&gq.query), graph)
            });
            let items = qs.into_iter().zip(anss).collect();
            Some(Pool {
                structure: s,
                items,
            })
        })
        .collect();
    drop(setup_span);
    if pools.is_empty() {
        return Err(TrainError::NoTrainableStructures {
            model: model.name().to_string(),
        });
    }

    // Round-robin schedule with the 1p pool repeated `p1_weight` times.
    let mut schedule: Vec<usize> = Vec::new();
    for (i, pool) in pools.iter().enumerate() {
        let reps = if pool.structure == Structure::P1 {
            cfg.p1_weight.max(1)
        } else {
            1
        };
        schedule.extend(std::iter::repeat_n(i, reps));
    }

    // Resume: restore parameters + Adam state + step counter.
    let mut start_step = 0usize;
    if let Some(path) = &cfg.resume_from {
        let restored = checkpoint::load_file(path).map_err(|error| TrainError::Resume {
            path: path.clone(),
            error,
        })?;
        let model_name = model.name().to_string();
        let store = model
            .param_store_mut()
            .ok_or(TrainError::NoParamStore { model: model_name })?;
        if !store.same_shapes(&restored) {
            return Err(TrainError::ResumeShapeMismatch { path: path.clone() });
        }
        start_step = (restored.steps_taken() as usize).min(cfg.steps);
        *store = restored;
    }

    let mut checkpointer = match (&cfg.checkpoint_dir, cfg.checkpoint_every) {
        (Some(dir), every) if every > 0 => {
            if model.param_store().is_none() {
                return Err(TrainError::NoParamStore {
                    model: model.name().to_string(),
                });
            }
            // Adopt checkpoints already in the directory (from the run being
            // resumed) so rotation stays bounded across restarts too.
            let mut written: Vec<PathBuf> = std::fs::read_dir(dir)
                .map(|entries| {
                    entries
                        .filter_map(|e| e.ok())
                        .map(|e| e.path())
                        .filter(|p| {
                            p.extension().is_some_and(|x| x == "ckpt")
                                && p.file_name()
                                    .is_some_and(|n| n.to_string_lossy().starts_with("step-"))
                        })
                        .collect()
                })
                .unwrap_or_default();
            written.sort();
            Some(Checkpointer {
                dir: dir.clone(),
                every,
                keep: cfg.keep_checkpoints,
                written,
            })
        }
        _ => None,
    };

    // Divergence guard: an in-memory snapshot of the last known-good
    // parameters (initially the starting state), refreshed at checkpoint
    // cadence — or every SNAPSHOT_EVERY steps when not checkpointing.
    let mut last_good: Option<Vec<u8>> = model.param_store().map(checkpoint::to_bytes);
    let snapshot_every = if cfg.checkpoint_every > 0 {
        cfg.checkpoint_every
    } else {
        SNAPSHOT_EVERY
    };

    let start = Instant::now();
    let mut losses = Vec::with_capacity(cfg.steps.saturating_sub(start_step));
    let mut rollbacks = 0usize;
    let mut interrupted = false;
    let mut completed = start_step;
    for step in start_step..cfg.steps {
        // Cooperative interruption point: between steps, never inside one,
        // so the parameter store is always at a step boundary.
        if cfg.stop.as_ref().is_some_and(|s| s.load(Ordering::SeqCst)) {
            interrupted = true;
            halk_obs::log!(
                Warn,
                "[{}] stop requested; halting after step {step} of {}",
                model.name(),
                cfg.steps
            );
            break;
        }
        completed = step + 1;
        let step_start = Instant::now();
        let pool = &pools[schedule[step % schedule.len()]];
        let batch: Vec<TrainExample> = (0..cfg.batch_size)
            .filter_map(|_| {
                let (gq, ans) = pool.items.choose(&mut rng)?;
                let members = ans.to_vec();
                let positive = *members.choose(&mut rng)?;
                let negatives = sampler.negatives(ans, cfg.negatives, &mut rng);
                if negatives.len() < cfg.negatives {
                    return None;
                }
                Some(TrainExample {
                    query: gq.query.clone(),
                    positive,
                    negatives,
                })
            })
            .collect();
        if batch.is_empty() {
            continue;
        }
        let loss = model.train_batch(&batch);
        halk_obs::counter!("halk_train_steps_total").inc();
        halk_obs::histogram!("halk_train_step_us").record(step_start.elapsed().as_micros() as u64);

        let healthy = loss.is_finite()
            && model
                .param_store()
                .is_none_or(halk_nn::ParamStore::all_finite);
        if !healthy {
            rollbacks += 1;
            halk_obs::counter!("halk_train_rollbacks_total").inc();
            if let (Some(bytes), Some(store)) = (&last_good, model.param_store_mut()) {
                *store = checkpoint::from_bytes(bytes)
                    .expect("in-memory snapshot is always a valid checkpoint");
            }
            halk_obs::log!(
                Warn,
                "[{}] step {step:5} structure {:5} diverged (loss {loss}); rolled back",
                model.name(),
                pool.structure
            );
            continue;
        }
        halk_obs::gauge!("halk_train_last_loss").set(loss as f64);

        if cfg.log_every > 0 && step % cfg.log_every == 0 {
            eprintln!(
                "[{}] step {step:5} structure {:5} loss {loss:.4}",
                model.name(),
                pool.structure
            );
        }
        losses.push(loss);

        let boundary = (step + 1) % snapshot_every == 0;
        if let (Some(ck), Some(store)) = (checkpointer.as_mut(), model.param_store()) {
            if (step + 1) % ck.every == 0 {
                let _ck_span = halk_obs::span!("checkpoint_save");
                let ck_start = Instant::now();
                ck.save(store, step + 1)?;
                halk_obs::histogram!("halk_train_checkpoint_write_us")
                    .record(ck_start.elapsed().as_micros() as u64);
            }
        }
        if boundary {
            if let Some(store) = model.param_store() {
                last_good = Some(checkpoint::to_bytes(store));
            }
        }
    }

    // A final checkpoint so a resumed run can always pick up the end state
    // — when `steps` is not a multiple of `checkpoint_every`, and when an
    // interrupt stopped the run between periodic checkpoints.
    if let (Some(ck), Some(store)) = (checkpointer.as_mut(), model.param_store()) {
        if completed > start_step && !completed.is_multiple_of(ck.every) {
            let _ck_span = halk_obs::span!("checkpoint_save");
            let ck_start = Instant::now();
            ck.save(store, completed)?;
            halk_obs::histogram!("halk_train_checkpoint_write_us")
                .record(ck_start.elapsed().as_micros() as u64);
        }
    }

    Ok(TrainStats {
        losses,
        wall: start.elapsed(),
        trained_structures: pools.iter().map(|p| p.structure).collect(),
        rollbacks,
        start_step,
        interrupted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HalkConfig;
    use crate::model::HalkModel;
    use halk_kg::{generate, SynthConfig};

    #[test]
    fn training_runs_and_reduces_loss() {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(31));
        let mut model = HalkModel::new(&g, HalkConfig::tiny());
        let mut tc = TrainConfig::tiny();
        tc.steps = 120;
        let stats = train_model(&mut model, &g, &[Structure::P1, Structure::I2], &tc).unwrap();
        assert_eq!(stats.losses.len(), 120);
        assert_eq!(stats.rollbacks, 0);
        assert_eq!(stats.start_step, 0);
        let head: f32 = stats.losses[..20].iter().sum::<f32>() / 20.0;
        let tail = stats.tail_loss();
        assert!(tail < head, "loss head {head} tail {tail}");
        assert_eq!(stats.trained_structures, vec![Structure::P1, Structure::I2]);
        assert!(stats.wall.as_nanos() > 0);
    }

    #[test]
    fn unsupported_structures_are_skipped() {
        // A model that refuses difference structures should only train on
        // the rest; exercised here through HaLk by filtering the input list.
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(32));
        let mut model = HalkModel::new(&g, HalkConfig::tiny());
        let stats = train_model(&mut model, &g, &[Structure::P1], &TrainConfig::tiny()).unwrap();
        assert_eq!(stats.trained_structures, vec![Structure::P1]);
    }

    #[test]
    fn no_trainable_structures_is_an_error_not_a_panic() {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(33));
        let mut model = HalkModel::new(&g, HalkConfig::tiny());
        let err = train_model(&mut model, &g, &[], &TrainConfig::tiny()).unwrap_err();
        assert!(matches!(err, TrainError::NoTrainableStructures { .. }));
        assert!(err.to_string().contains("HaLk"));
    }

    #[test]
    fn tail_loss_of_empty_is_nan() {
        let s = TrainStats {
            losses: vec![],
            wall: Duration::ZERO,
            trained_structures: vec![],
            rollbacks: 0,
            start_step: 0,
            interrupted: false,
        };
        assert!(s.tail_loss().is_nan());
    }

    /// Wraps HaLk and raises the stop flag mid-run, as a signal handler
    /// would, to exercise cooperative interruption.
    struct StopsItself {
        inner: HalkModel,
        calls: usize,
        stop_at: usize,
        flag: Arc<AtomicBool>,
    }

    impl QueryModel for StopsItself {
        fn name(&self) -> &'static str {
            "StopsItself"
        }

        fn supports(&self, s: Structure) -> bool {
            self.inner.supports(s)
        }

        fn train_batch(&mut self, batch: &[TrainExample]) -> f32 {
            self.calls += 1;
            if self.calls == self.stop_at {
                self.flag.store(true, Ordering::SeqCst);
            }
            self.inner.train_batch(batch)
        }

        fn score_all(&self, query: &halk_logic::Query) -> Vec<f32> {
            QueryModel::score_all(&self.inner, query)
        }

        fn n_entities(&self) -> usize {
            QueryModel::n_entities(&self.inner)
        }

        fn param_store(&self) -> Option<&halk_nn::ParamStore> {
            Some(&self.inner.store)
        }

        fn param_store_mut(&mut self) -> Option<&mut halk_nn::ParamStore> {
            Some(&mut self.inner.store)
        }
    }

    #[test]
    fn stop_flag_finishes_step_and_writes_final_checkpoint() {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(38));
        let dir = std::env::temp_dir().join("halk_train_ckpt_interrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let flag = Arc::new(AtomicBool::new(false));
        let mut model = StopsItself {
            inner: HalkModel::new(&g, HalkConfig::tiny()),
            calls: 0,
            stop_at: 7,
            flag: flag.clone(),
        };
        let tc = TrainConfig {
            steps: 100,
            checkpoint_every: 50,
            checkpoint_dir: Some(dir.clone()),
            stop: Some(flag),
            ..TrainConfig::tiny()
        };
        let stats = train_model(&mut model, &g, &[Structure::P1], &tc).unwrap();
        // The flag went up during step 7 (0-based step 6); that step
        // completed, the next never started.
        assert!(stats.interrupted);
        assert_eq!(stats.losses.len(), 7);
        // The final checkpoint reflects the interrupted state, so resume
        // continues from step 7 rather than replaying it.
        assert_eq!(
            std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect::<Vec<_>>(),
            vec!["step-00000007.ckpt"]
        );
        let mut resumed = HalkModel::new(&g, HalkConfig::tiny());
        let tc2 = TrainConfig {
            steps: 10,
            resume_from: Some(dir.join("step-00000007.ckpt")),
            ..TrainConfig::tiny()
        };
        let stats2 = train_model(&mut resumed, &g, &[Structure::P1], &tc2).unwrap();
        assert_eq!(stats2.start_step, 7);
        assert!(!stats2.interrupted);
        assert_eq!(stats2.losses.len(), 3);
    }

    #[test]
    fn periodic_checkpoints_rotate_and_resume_restores_step() {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(34));
        let dir = std::env::temp_dir().join("halk_train_ckpt_rotate");
        let _ = std::fs::remove_dir_all(&dir);

        let mut model = HalkModel::new(&g, HalkConfig::tiny());
        let tc = TrainConfig {
            steps: 40,
            checkpoint_every: 10,
            checkpoint_dir: Some(dir.clone()),
            keep_checkpoints: 2,
            ..TrainConfig::tiny()
        };
        let stats = train_model(&mut model, &g, &[Structure::P1], &tc).unwrap();
        assert_eq!(stats.losses.len(), 40);

        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        // keep_checkpoints = 2 and 40 % 10 == 0: only the 2 newest remain.
        assert_eq!(files, vec!["step-00000030.ckpt", "step-00000040.ckpt"]);

        // Resume the last checkpoint into a fresh model: the loop must
        // fast-forward past the already-trained steps.
        let mut resumed = HalkModel::new(&g, HalkConfig::tiny());
        let tc2 = TrainConfig {
            steps: 40,
            resume_from: Some(dir.join("step-00000040.ckpt")),
            ..TrainConfig::tiny()
        };
        let stats2 = train_model(&mut resumed, &g, &[Structure::P1], &tc2).unwrap();
        assert_eq!(stats2.start_step, 40);
        assert!(stats2.losses.is_empty(), "no steps were left to train");
        assert_eq!(resumed.store.steps_taken(), 40);
    }

    #[test]
    fn resume_from_garbage_is_a_typed_error() {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(35));
        let dir = std::env::temp_dir().join("halk_train_ckpt_garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bogus.ckpt");
        std::fs::write(&path, b"not a checkpoint at all").unwrap();
        let mut model = HalkModel::new(&g, HalkConfig::tiny());
        let tc = TrainConfig {
            resume_from: Some(path),
            ..TrainConfig::tiny()
        };
        let err = train_model(&mut model, &g, &[Structure::P1], &tc).unwrap_err();
        assert!(matches!(err, TrainError::Resume { .. }));
    }

    #[test]
    fn resume_shape_mismatch_is_rejected() {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(36));
        let dir = std::env::temp_dir().join("halk_train_ckpt_mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("other.ckpt");

        // Checkpoint of a differently-shaped store.
        let mut store = halk_nn::ParamStore::new();
        store.add(halk_nn::Tensor::zeros(2, 2));
        checkpoint::save_file(&store, &path).unwrap();

        let mut model = HalkModel::new(&g, HalkConfig::tiny());
        let tc = TrainConfig {
            resume_from: Some(path),
            ..TrainConfig::tiny()
        };
        let err = train_model(&mut model, &g, &[Structure::P1], &tc).unwrap_err();
        assert!(matches!(err, TrainError::ResumeShapeMismatch { .. }));
    }

    /// Wraps HaLk and poisons the loss/parameters at a scripted step to
    /// exercise the divergence guard.
    struct Sabotaged {
        inner: HalkModel,
        calls: usize,
        poison_at: usize,
    }

    impl QueryModel for Sabotaged {
        fn name(&self) -> &'static str {
            "Sabotaged"
        }

        fn supports(&self, s: Structure) -> bool {
            self.inner.supports(s)
        }

        fn train_batch(&mut self, batch: &[TrainExample]) -> f32 {
            let loss = self.inner.train_batch(batch);
            self.calls += 1;
            if self.calls == self.poison_at {
                // Simulate a numerically-exploded update: a NaN parameter
                // lands in the store and the batch loss is NaN.
                self.inner.store.add(halk_nn::Tensor::scalar(f32::NAN));
                return f32::NAN;
            }
            loss
        }

        fn score_all(&self, query: &halk_logic::Query) -> Vec<f32> {
            QueryModel::score_all(&self.inner, query)
        }

        fn n_entities(&self) -> usize {
            QueryModel::n_entities(&self.inner)
        }

        fn param_store(&self) -> Option<&halk_nn::ParamStore> {
            Some(&self.inner.store)
        }

        fn param_store_mut(&mut self) -> Option<&mut halk_nn::ParamStore> {
            Some(&mut self.inner.store)
        }
    }

    #[test]
    fn divergence_rolls_back_and_training_completes() {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(37));
        let mut model = Sabotaged {
            inner: HalkModel::new(&g, HalkConfig::tiny()),
            calls: 0,
            poison_at: 12,
        };
        let mut tc = TrainConfig::tiny();
        tc.steps = 25;
        let stats = train_model(&mut model, &g, &[Structure::P1], &tc).unwrap();
        assert_eq!(stats.rollbacks, 1);
        // The poisoned step is skipped; every recorded loss is finite and
        // the parameters end finite.
        assert_eq!(stats.losses.len(), 24);
        assert!(stats.losses.iter().all(|l| l.is_finite()));
        assert!(model.inner.store.all_finite());
    }
}
