//! The [`QueryModel`] abstraction shared by HaLk and every baseline.
//!
//! Tables I–IV and Figures 6b/6c compare four learned methods under one
//! protocol; this trait is that protocol's surface: batched margin-loss
//! training on grounded queries, and distance scoring of every entity
//! against a query. The harness trains and evaluates any `QueryModel`
//! identically, so timing comparisons are apples-to-apples.

use crate::exec::TrainShard;
use crate::model::HalkModel;
use halk_kg::EntityId;
use halk_logic::plan::PlanMasks;
use halk_logic::{Query, Structure};
use halk_nn::{ParamStore, Tape, Var};

/// One training example: a grounded query, one positive answer and `m`
/// negative entities (the negative-sampling trick of §III-G).
#[derive(Debug, Clone)]
pub struct TrainExample {
    /// Grounded, union-free query (training structures never contain
    /// unions; §IV-A holds 2u/up out of training).
    pub query: Query,
    /// An entity from the exact answer set.
    pub positive: EntityId,
    /// Entities outside the answer set.
    pub negatives: Vec<EntityId>,
}

/// Forward pass of one training shard on its tape: executes the batch's
/// compiled plan over the shard's binding tables and returns the shard-mean
/// Eq. 17 loss, group penalties included ([`crate::loss::shard_loss`]).
fn shard_forward(model: &HalkModel, tape: &mut Tape, shard: &TrainShard<'_>) -> Var {
    let masks: Vec<PlanMasks> = shard
        .bindings
        .iter()
        .map(|b| PlanMasks::compute(shard.shape, b, model.grouping()))
        .collect();
    let roots = model.embed_plan(tape, shard.shape, shard.bindings, &masks);
    assert_eq!(roots.len(), 1, "training structures are union-free (§IV-A)");
    let arc = roots[0];

    // Group penalty constants ξ‖Relu(h_v − h_{U_q})‖₁ (Eq. 17). The query
    // mask h_{U_q} is the plan's precomputed root mask.
    let xi = model.cfg.xi;
    let pen = |ids: &[u32]| -> halk_nn::Tensor {
        let data = ids
            .iter()
            .zip(&masks)
            .map(|(&e, qm)| {
                xi * halk_kg::Grouping::relu_l1(model.grouping().mask_of(EntityId(e)), qm.root)
                    as f32
            })
            .collect();
        halk_nn::Tensor::from_vec(ids.len(), 1, data)
    };
    crate::loss::shard_loss(
        tape,
        shard,
        model.cfg.gamma,
        |tape, ids| {
            let points = model.entity_points(tape, ids);
            model.distance_batch(tape, arc, points)
        },
        Some(&pen),
    )
}

/// Opaque per-table-state scoring cache (see [`QueryModel::score_cache`]).
pub type ScoreCache = Box<dyn std::any::Any + Send + Sync>;

/// A trainable query-answering model.
pub trait QueryModel {
    /// Display name used in the experiment tables.
    fn name(&self) -> &'static str;

    /// Whether the model's operator set covers a structure (ConE/MLPMix
    /// lack difference; NewLook lacks negation — §IV-A).
    fn supports(&self, s: Structure) -> bool;

    /// One optimizer step over a batch of same-structure examples; returns
    /// the batch loss.
    fn train_batch(&mut self, batch: &[TrainExample]) -> f32;

    /// Distance of every entity to the query region (lower = better).
    fn score_all(&self, query: &Query) -> Vec<f32>;

    /// Universe size (length of `score_all` results).
    fn n_entities(&self) -> usize;

    /// Sets the worker-thread count for any internal parallelism
    /// (0 = auto). A scheduling knob only — results must be bit-identical
    /// at every setting. Models without parallel paths ignore it.
    fn set_threads(&mut self, _threads: usize) {}

    /// Builds a reusable scoring cache for the current parameter state
    /// (e.g. precomputed entity-table trig), or `None` if the model has
    /// nothing to amortize. Valid until the next training step.
    fn score_cache(&self) -> Option<ScoreCache> {
        None
    }

    /// [`QueryModel::score_all`] routed through a cache built by
    /// [`QueryModel::score_cache`] on the same parameter state. Must return
    /// bit-identical scores to the uncached path.
    fn score_all_cached(&self, query: &Query, _cache: &ScoreCache) -> Vec<f32> {
        self.score_all(query)
    }

    /// The parameter store backing this model, if it exposes one. Models
    /// that do get generic checkpoint/resume and divergence rollback from
    /// the training loop for free.
    fn param_store(&self) -> Option<&ParamStore> {
        None
    }

    /// Mutable access to the backing parameter store (see [`param_store`]).
    ///
    /// [`param_store`]: QueryModel::param_store
    fn param_store_mut(&mut self) -> Option<&mut ParamStore> {
        None
    }
}

impl QueryModel for HalkModel {
    fn name(&self) -> &'static str {
        "HaLk"
    }

    fn supports(&self, _s: Structure) -> bool {
        // The holistic claim (§I): all five operators in one framework.
        true
    }

    fn train_batch(&mut self, batch: &[TrainExample]) -> f32 {
        self.exec
            .stage_step(&self.store, batch, |tape, shard| {
                shard_forward(self, tape, shard)
            })
            .apply(&mut self.store, self.cfg.lr)
    }

    fn score_all(&self, query: &Query) -> Vec<f32> {
        HalkModel::score_all(self, query)
    }

    fn n_entities(&self) -> usize {
        HalkModel::n_entities(self)
    }

    fn set_threads(&mut self, threads: usize) {
        HalkModel::set_threads(self, threads);
    }

    fn score_cache(&self) -> Option<ScoreCache> {
        Some(Box::new(self.entity_trig()))
    }

    fn score_all_cached(&self, query: &Query, cache: &ScoreCache) -> Vec<f32> {
        let trig = cache
            .downcast_ref::<crate::scorer::EntityTrig>()
            .expect("cache built by a different model");
        let mut out = Vec::new();
        self.score_all_with(trig, query, &mut out);
        out
    }

    fn param_store(&self) -> Option<&ParamStore> {
        Some(&self.store)
    }

    fn param_store_mut(&mut self) -> Option<&mut ParamStore> {
        Some(&mut self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HalkConfig;
    use halk_kg::{generate, Graph, SynthConfig};
    use halk_logic::{answers, Sampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Graph, HalkModel) {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(9));
        let model = HalkModel::new(&g, HalkConfig::tiny());
        (g, model)
    }

    fn examples(g: &Graph, s: Structure, n: usize, seed: u64) -> Vec<TrainExample> {
        let sampler = Sampler::new(g);
        let mut rng = StdRng::seed_from_u64(seed);
        sampler
            .sample_many(s, n, &mut rng)
            .into_iter()
            .map(|gq| {
                let ans = answers(&gq.query, g);
                let positive = ans.iter().next().expect("non-empty");
                let negatives = sampler.negatives(&ans, 4, &mut rng);
                TrainExample {
                    query: gq.query,
                    positive,
                    negatives,
                }
            })
            .collect()
    }

    #[test]
    fn train_batch_returns_finite_loss_and_updates_params() {
        let (g, mut model) = setup();
        let batch = examples(&g, Structure::P1, 8, 1);
        let probe = batch[0].positive;
        let before = model.entity_table().row(probe.index()).to_vec();
        let loss = model.train_batch(&batch);
        assert!(loss.is_finite() && loss > 0.0);
        let after = model.entity_table().row(probe.index());
        assert_ne!(before, after, "positive entity embedding did not move");
        assert_eq!(model.store.steps_taken(), 1);
    }

    #[test]
    fn loss_decreases_over_steps_on_fixed_batch() {
        let (g, mut model) = setup();
        let batch = examples(&g, Structure::P1, 16, 2);
        let first = model.train_batch(&batch);
        let mut last = first;
        for _ in 0..30 {
            last = model.train_batch(&batch);
        }
        assert!(
            last < first,
            "loss did not decrease: first {first}, last {last}"
        );
    }

    #[test]
    fn training_improves_positive_over_negative_scores() {
        let (g, mut model) = setup();
        let batch = examples(&g, Structure::P1, 16, 3);
        for _ in 0..60 {
            model.train_batch(&batch);
        }
        // After training, the positive should usually score better (lower)
        // than a random negative for the trained queries.
        let mut wins = 0;
        let mut total = 0;
        for ex in &batch {
            let scores = QueryModel::score_all(&model, &ex.query);
            for n in &ex.negatives {
                total += 1;
                if scores[ex.positive.index()] < scores[n.index()] {
                    wins += 1;
                }
            }
        }
        assert!(
            wins * 3 > total * 2,
            "positives beat negatives only {wins}/{total}"
        );
    }

    #[test]
    fn train_batch_handles_every_training_structure() {
        let (g, mut model) = setup();
        for s in Structure::training() {
            let batch = examples(&g, s, 4, 4);
            assert!(!batch.is_empty(), "{s}: no examples");
            let loss = model.train_batch(&batch);
            assert!(loss.is_finite(), "{s}: loss {loss}");
        }
    }

    #[test]
    fn supports_everything() {
        let (_, model) = setup();
        for s in Structure::all() {
            assert!(model.supports(s));
        }
        assert_eq!(model.name(), "HaLk");
    }
}
