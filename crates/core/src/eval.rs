//! Filtered-ranking evaluation (§IV-A protocol).
//!
//! Test queries are sampled on the *test* graph; their hard answers are the
//! entities answerable only there (not on the validation graph), so a model
//! can only rank them well by generalizing over unseen edges. Easy answers
//! are filtered out of every ranking. Metrics are averaged per structure, as
//! in Tables I–IV.

use crate::exec::{ExecConfig, Executor};
use crate::qmodel::QueryModel;
use halk_kg::split::DatasetSplit;
use halk_logic::plan::{split_set, PlanBindings};
use halk_logic::{filtered_ranks, MetricsAccumulator, RankMetrics, Sampler, Structure};
use halk_par::Pool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Evaluation result for one (model, structure) cell.
#[derive(Debug, Clone, Copy)]
pub struct EvalCell {
    /// Averaged metrics over the evaluated queries.
    pub metrics: RankMetrics,
    /// Number of queries evaluated.
    pub n_queries: usize,
    /// Total online scoring time (for Fig. 6c / Table VI), summed per query
    /// (CPU time, not wall clock, under a parallel pool).
    pub online_time: Duration,
    /// True when the attempt budget (`n_queries * 20`) ran out before
    /// `n_queries` queries with non-empty hard-answer sets were found.
    pub truncated: bool,
}

/// Attempts sampled per chunk in [`evaluate_structure_exec`]: the phase
/// spans open once per chunk, not once per query.
const SPEC_CHUNK: usize = 32;

/// Evaluates a model on one structure with `n_queries` sampled test queries
/// on a fresh one-thread executor.
///
/// Queries whose hard-answer set is empty (fully derivable on the validation
/// graph) are rejected and resampled, as the protocol requires.
pub fn evaluate_structure<M: QueryModel + Sync + ?Sized>(
    model: &M,
    split: &DatasetSplit,
    structure: Structure,
    n_queries: usize,
    seed: u64,
) -> EvalCell {
    let exec = Executor::new(ExecConfig {
        threads: 1,
        label: "eval_score",
        ..ExecConfig::default()
    });
    evaluate_structure_exec(model, split, structure, n_queries, seed, &exec)
}

/// [`evaluate_structure`] on an explicit [`Executor`] — the shared
/// batch-executor entry every eval caller routes through (DESIGN.md §15).
/// The executor owns the plan cache and the scoring cache; passing one
/// executor across structures (as [`evaluate_table_pool`] does) builds the
/// model's scoring tables once per parameter state instead of once per
/// structure.
///
/// The cell is one sequential loop: candidates are sampled from one RNG
/// stream in fixed-size chunks, answer-split and scored in attempt order,
/// and accepted until `n_queries` are in. Nothing past the last
/// acceptance is answer-split or scored, and ranks fold into the
/// accumulator in acceptance order, so the metrics are the same bits as
/// the one-query-at-a-time loop's. Parallelism lives one level up, across
/// the cells of a table row.
pub fn evaluate_structure_exec<M: QueryModel + Sync + ?Sized>(
    model: &M,
    split: &DatasetSplit,
    structure: Structure,
    n_queries: usize,
    seed: u64,
    exec: &Executor,
) -> EvalCell {
    let _span = halk_obs::span!("eval_structure", || structure.to_string());
    // One phase span is open from here to the end: each `next` closes the
    // current phase and opens the following one at the same instant, so
    // the phases tile the structure's wall time (CI gates this with
    // `trace_check --coverage eval_structure:0.95`).
    let mut phase = halk_obs::span!("eval_setup");
    let setup_start = std::time::Instant::now();
    // Resolve the model's scoring cache (e.g. entity-table trig) through
    // the executor's cache layer: built at most once per parameter state,
    // shared across structures. The exact answer splits likewise share one
    // compiled plan per structure skeleton via the executor's plan cache.
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = Sampler::new(&split.test);
    let cache = exec.score_cache(model);
    let mut acc = MetricsAccumulator::new();
    let mut online = Duration::ZERO;
    let mut evaluated = 0usize;
    let mut attempts = 0usize;
    let max_attempts = n_queries * 20;
    halk_obs::histogram!("halk_eval_setup_us").record(setup_start.elapsed().as_micros() as u64);

    while evaluated < n_queries && attempts < max_attempts {
        let chunk = SPEC_CHUNK.min(max_attempts - attempts);
        phase = phase.next("eval_sample");
        let sample_start = std::time::Instant::now();
        let mut candidates = Vec::with_capacity(chunk);
        for _ in 0..chunk {
            attempts += 1;
            if let Some(gq) = sampler.sample(structure, &mut rng) {
                candidates.push(gq.query);
            }
        }
        halk_obs::histogram!("halk_eval_sample_us")
            .record(sample_start.elapsed().as_micros() as u64);

        // One group per chunk (same structure ⇒ one skeleton). Candidates
        // are answer-split in attempt order; those with non-empty hard
        // answers are scored until the cell has `n_queries`.
        phase = phase.next("eval_score");
        let score_start = std::time::Instant::now();
        let group = (!candidates.is_empty()).then(|| exec.group_span(candidates.len(), || None));
        let mut scored = Vec::new();
        for query in &candidates {
            if evaluated + scored.len() == n_queries {
                break;
            }
            let ans = split_set(
                &exec.shape_for(query),
                &PlanBindings::of(query),
                &split.valid,
                &split.test,
            );
            if ans.hard.is_empty() {
                continue;
            }
            let t0 = std::time::Instant::now();
            let scores = match &cache {
                Some(c) => model.score_all_cached(query, c),
                None => model.score_all(query),
            };
            let elapsed = t0.elapsed();
            scored.push((filtered_ranks(&scores, &ans.hard, &ans.easy), elapsed));
        }
        drop(group);
        halk_obs::histogram!("halk_eval_score_us").record(score_start.elapsed().as_micros() as u64);

        phase = phase.next("eval_rank");
        let rank_start = std::time::Instant::now();
        for (ranks, elapsed) in scored {
            acc.push_ranks(&ranks);
            online += elapsed;
            evaluated += 1;
        }
        halk_obs::histogram!("halk_eval_rank_us").record(rank_start.elapsed().as_micros() as u64);
    }

    // The tail — counters, the cell, and freeing the sampler's tables and
    // the scoring cache handle — is the last phase.
    let _finish = phase.next("eval_finish");
    halk_obs::counter!("halk_eval_attempts_total").add(attempts as u64);
    halk_obs::counter!("halk_eval_queries_total").add(evaluated as u64);
    let truncated = evaluated < n_queries;
    if truncated {
        halk_obs::counter!("halk_eval_truncated_total").inc();
        halk_obs::log!(
            Warn,
            "eval[{structure}]: attempt budget exhausted ({attempts} attempts); \
             evaluated {evaluated}/{n_queries} queries"
        );
    }
    let cell = EvalCell {
        metrics: acc.finish(),
        n_queries: evaluated,
        online_time: online,
        truncated,
    };
    drop(cache);
    drop(sampler);
    cell
}

/// Evaluates a model across a list of structures (a table row) on `pool`,
/// skipping structures the model does not support (rendered as `-` in the
/// paper's tables). Structures are uneven work items, so they go through
/// the dynamic splitter; each cell runs its sequential loop. Each cell is
/// bit-identical to its [`evaluate_structure`] evaluation, so the whole row
/// is too.
///
/// One [`Executor`] is shared by every cell, so the model's scoring cache
/// (HaLk's entity-trig table) is built once for the whole row instead of
/// once per structure — the cells only race for the first build, after
/// which they share the same `Arc`'d table.
pub fn evaluate_table_pool<M: QueryModel + Sync + ?Sized>(
    model: &M,
    split: &DatasetSplit,
    structures: &[Structure],
    n_queries: usize,
    seed: u64,
    pool: Pool,
) -> Vec<(Structure, Option<EvalCell>)> {
    let exec = Executor::new(ExecConfig {
        threads: 1,
        label: "eval_score",
        ..ExecConfig::default()
    });
    let pool = pool.labeled("eval_table");
    pool.par_map_dyn(structures, |&s| {
        if model.supports(s) {
            (
                s,
                Some(evaluate_structure_exec(
                    model, split, s, n_queries, seed, &exec,
                )),
            )
        } else {
            (s, None)
        }
    })
}

/// Average of a metric accessor over the supported cells of a table row.
pub fn row_average(
    row: &[(Structure, Option<EvalCell>)],
    metric: impl Fn(&RankMetrics) -> f64,
) -> f64 {
    let vals: Vec<f64> = row
        .iter()
        .filter_map(|(_, c)| c.as_ref().map(|c| metric(&c.metrics)))
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HalkConfig;
    use crate::model::HalkModel;
    use crate::train::{train_model, TrainConfig};
    use halk_kg::{generate, DatasetSplit, SynthConfig};

    fn setup() -> (DatasetSplit, HalkModel) {
        setup_with(HalkConfig::tiny())
    }

    fn setup_with(cfg: HalkConfig) -> (DatasetSplit, HalkModel) {
        let mut rng = StdRng::seed_from_u64(40);
        let full = generate(&SynthConfig::fb237_like(), &mut rng);
        let split = DatasetSplit::nested(&full, 0.8, 0.1, &mut rng);
        let model = HalkModel::new(&split.train, cfg);
        (split, model)
    }

    #[test]
    fn evaluation_produces_valid_metrics() {
        let (split, model) = setup();
        let cell = evaluate_structure(&model, &split, Structure::P1, 5, 1);
        assert!(cell.n_queries > 0);
        let m = cell.metrics;
        assert!((0.0..=1.0).contains(&m.mrr));
        assert!(m.hits1 <= m.hits3 && m.hits3 <= m.hits10);
        assert!(cell.online_time.as_nanos() > 0);
    }

    #[test]
    fn trained_model_beats_untrained_on_seen_queries() {
        // Rank the known train-graph answers of 1p queries (hard = all
        // answers, nothing filtered). Training must massively improve this;
        // full *generalization* quality needs a release-mode budget and is
        // exercised by the experiment harness (crates/bench), not here.
        // The literal Eq. 16 reading memorizes fastest at tiny dimensions
        // (two sharp attractors per dim); the production default
        // (CenterAnchored) needs d >= ~16 to be discriminative, which the
        // release-scale harness uses. This test checks the training loop,
        // not the distance-mode choice — see exp_ablation_distance for that.
        let cfg = HalkConfig::tiny().with_distance(crate::config::DistanceMode::LiteralEq16);
        let (split, mut trained) = setup_with(cfg.clone());
        let untrained = {
            let (_, m) = setup_with(cfg);
            m
        };
        let mut tc = TrainConfig::tiny();
        tc.steps = 1200;
        tc.batch_size = 16;
        train_model(&mut trained, &split.train, &[Structure::P1], &tc).unwrap();

        let rank_on_train = |model: &HalkModel| {
            let sampler = halk_logic::Sampler::new(&split.train);
            let mut rng = StdRng::seed_from_u64(123);
            let mut acc = halk_logic::MetricsAccumulator::new();
            for gq in sampler.sample_many(Structure::P1, 15, &mut rng) {
                let ans = halk_logic::answers(&gq.query, &split.train);
                let hard: Vec<_> = ans.iter().collect();
                let scores = model.score_all(&gq.query);
                acc.push_ranks(&halk_logic::filtered_ranks(&scores, &hard, &[]));
            }
            acc.finish().mrr
        };
        let m_trained = rank_on_train(&trained);
        let m_untrained = rank_on_train(&untrained);
        assert!(
            m_trained > 2.0 * m_untrained,
            "training did not help: {m_trained} vs {m_untrained}"
        );
    }

    #[test]
    fn eval_scores_only_accepted_queries() {
        use crate::qmodel::ScoreCache;
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting(HalkModel, AtomicUsize);
        impl QueryModel for Counting {
            fn name(&self) -> &'static str {
                "Counting"
            }
            fn supports(&self, s: Structure) -> bool {
                self.0.supports(s)
            }
            fn train_batch(&mut self, b: &[crate::qmodel::TrainExample]) -> f32 {
                self.0.train_batch(b)
            }
            fn score_all(&self, q: &halk_logic::Query) -> Vec<f32> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.score_all(q)
            }
            fn n_entities(&self) -> usize {
                self.0.n_entities()
            }
            fn score_cache(&self) -> Option<ScoreCache> {
                self.0.score_cache()
            }
            fn score_all_cached(&self, q: &halk_logic::Query, c: &ScoreCache) -> Vec<f32> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.score_all_cached(q, c)
            }
        }
        let (split, model) = setup();
        let counting = Counting(model, AtomicUsize::new(0));
        for (s, n) in [(Structure::P1, 5), (Structure::P2, 40)] {
            counting.1.store(0, Ordering::Relaxed);
            let cell = evaluate_structure(&counting, &split, s, n, 7);
            assert!(cell.n_queries > 0);
            assert_eq!(counting.1.load(Ordering::Relaxed), cell.n_queries, "{s}");
        }
    }

    #[test]
    fn evaluate_table_marks_unsupported_as_none() {
        struct NoDiff(HalkModel);
        impl QueryModel for NoDiff {
            fn name(&self) -> &'static str {
                "NoDiff"
            }
            fn supports(&self, s: Structure) -> bool {
                !s.has_difference()
            }
            fn train_batch(&mut self, b: &[crate::qmodel::TrainExample]) -> f32 {
                self.0.train_batch(b)
            }
            fn score_all(&self, q: &halk_logic::Query) -> Vec<f32> {
                self.0.score_all(q)
            }
            fn n_entities(&self) -> usize {
                self.0.n_entities()
            }
        }
        let (split, model) = setup();
        let wrapped = NoDiff(model);
        let structures = [Structure::P1, Structure::D2];
        let row = evaluate_table_pool(&wrapped, &split, &structures, 2, 3, Pool::new(2));
        assert!(row[0].1.is_some());
        assert!(row[1].1.is_none());
        assert!(row_average(&row, |m| m.mrr) >= 0.0);
    }
}
