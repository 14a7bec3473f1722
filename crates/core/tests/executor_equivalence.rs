//! Cross-surface bit-identity suite for the skeleton-keyed batch executor
//! (DESIGN.md §15): running train, eval, and the serve-style group kernel
//! on one shared [`Executor`] must change *nothing observable* —
//! train losses and parameters, eval metrics, and served top-k answers are
//! pinned against hand-rolled pre-refactor reference loops, across thread
//! counts and shard counts.
//!
//! The cache-layer regression tests pin the PR's dedupe satellite: one
//! executor shared across structures builds the model's scoring tables
//! once per parameter state, never once per structure.

use halk_core::{
    evaluate_structure_exec, evaluate_structure_pool, sharded_top_k_timed, top_k_indices, EvalCell,
    ExecConfig, Executor, HalkConfig, HalkModel, Pool, QueryModel, TrainExample,
};
use halk_kg::{generate, DatasetSplit, Graph, SynthConfig};
use halk_logic::plan::{split_set, PlanBindings, PlanShape};
use halk_logic::{filtered_ranks, MetricsAccumulator, Query, Sampler, Structure};
use halk_nn::checkpoint;
use halk_obs::Deadline;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The executor's cache counters are process-global; tests that assert on
/// their deltas (or tick them) serialize here so a concurrently running
/// test can't skew the arithmetic.
static OBS_SERIAL: Mutex<()> = Mutex::new(());

fn graph() -> Graph {
    generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(77))
}

// ---------------------------------------------------------------- train

/// Fixed mixed-structure batches with sizes straddling the shard size.
fn fixed_batches(g: &Graph) -> Vec<Vec<TrainExample>> {
    let sampler = Sampler::new(g);
    let mut rng = StdRng::seed_from_u64(78);
    [(Structure::P1, 6), (Structure::P2, 9), (Structure::In2, 17)]
        .into_iter()
        .map(|(s, n)| {
            sampler
                .sample_many(s, n, &mut rng)
                .into_iter()
                .map(|gq| {
                    let ans = halk_logic::answers(&gq.query, g);
                    let positive = ans.iter().next().expect("non-empty");
                    let negatives = sampler.negatives(&ans, 4, &mut rng);
                    TrainExample {
                        query: gq.query,
                        positive,
                        negatives,
                    }
                })
                .collect()
        })
        .collect()
}

fn train_run(g: &Graph, threads: usize) -> (Vec<u32>, Vec<u8>) {
    let mut model = HalkModel::new(g, HalkConfig::tiny());
    model.set_threads(threads);
    let batches = fixed_batches(g);
    let mut losses = Vec::new();
    for _ in 0..2 {
        for batch in &batches {
            losses.push(model.train_batch(batch).to_bits());
        }
    }
    (losses, checkpoint::to_bytes(&model.store))
}

/// Training stages gradients as one homogeneous group per batch on the
/// model's executor pool; losses and final parameters must stay
/// bit-identical at every thread count.
#[test]
fn train_through_executor_is_bit_identical_across_threads() {
    let g = graph();
    let (ref_losses, ref_params) = train_run(&g, 1);
    assert!(ref_losses.iter().all(|&b| f32::from_bits(b).is_finite()));
    for threads in &THREADS[1..] {
        let (losses, params) = train_run(&g, *threads);
        assert_eq!(losses, ref_losses, "losses diverged at {threads} threads");
        assert_eq!(params, ref_params, "params diverged at {threads} threads");
    }
}

// ----------------------------------------------------------------- eval

/// The pre-refactor evaluation loop, hand-rolled: sample sequentially,
/// answer-split, score, fold ranks — one query at a time, no executor, no
/// chunking, no cache layer. This is the semantic contract
/// `evaluate_structure_pool` has promised since PR 3.
fn sequential_reference(
    model: &HalkModel,
    split: &DatasetSplit,
    structure: Structure,
    n_queries: usize,
    seed: u64,
) -> (Vec<u64>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = Sampler::new(&split.test);
    let mut acc = MetricsAccumulator::new();
    let mut evaluated = 0usize;
    let mut attempts = 0usize;
    while evaluated < n_queries && attempts < n_queries * 20 {
        attempts += 1;
        let Some(gq) = sampler.sample(structure, &mut rng) else {
            continue;
        };
        let shape = PlanShape::compile(&gq.query);
        let ans = split_set(
            &shape,
            &PlanBindings::of(&gq.query),
            &split.valid,
            &split.test,
        );
        if ans.hard.is_empty() {
            continue;
        }
        let scores = model.score_all(&gq.query);
        acc.push_ranks(&filtered_ranks(&scores, &ans.hard, &ans.easy));
        evaluated += 1;
    }
    let m = acc.finish();
    (
        vec![
            m.mrr.to_bits(),
            m.hits1.to_bits(),
            m.hits3.to_bits(),
            m.hits10.to_bits(),
        ],
        evaluated,
    )
}

fn metric_bits(cell: &EvalCell) -> Vec<u64> {
    vec![
        cell.metrics.mrr.to_bits(),
        cell.metrics.hits1.to_bits(),
        cell.metrics.hits3.to_bits(),
        cell.metrics.hits10.to_bits(),
    ]
}

/// Eval through the executor (speculative chunks, skeleton groups, shared
/// scoring cache) must reproduce the hand-rolled sequential loop bit for
/// bit, at every thread count.
#[test]
fn eval_through_executor_matches_handrolled_sequential_reference() {
    let _serial = OBS_SERIAL.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(79);
    let full = graph();
    let split = DatasetSplit::nested(&full, 0.8, 0.1, &mut rng);
    let model = HalkModel::new(&split.train, HalkConfig::tiny());

    for s in [Structure::P1, Structure::P2, Structure::Up] {
        let (want_bits, want_n) = sequential_reference(&model, &split, s, 6, 11);
        assert!(want_n > 0, "{s}: reference evaluated nothing");
        for threads in THREADS {
            let cell = evaluate_structure_pool(&model, &split, s, 6, 11, Pool::new(threads));
            assert_eq!(cell.n_queries, want_n, "{s}@{threads}: query count");
            assert_eq!(
                metric_bits(&cell),
                want_bits,
                "{s}@{threads}: metrics drifted from the pre-refactor loop"
            );
        }
    }
}

// ---------------------------------------------------------- serve-style

/// The serve surface in miniature: group queries by their cached shape
/// pointer, then run each group's kernel directly — one batched tape embed
/// and one sharded streaming sweep for the whole group — and scatter the
/// answers back to submission order.
fn grouped_top_k(exec: &Executor, model: &HalkModel, jobs: &[Query], k: usize) -> Vec<Vec<u32>> {
    let mut groups: Vec<(Arc<PlanShape>, Vec<usize>)> = Vec::new();
    for (i, q) in jobs.iter().enumerate() {
        let shape = exec.shape_for(q);
        match groups.iter_mut().find(|(s, _)| Arc::ptr_eq(s, &shape)) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((shape, vec![i])),
        }
    }
    let sharded = exec.sharded_trig(model);
    let never = Deadline::never();
    let mut out = vec![Vec::new(); jobs.len()];
    for (shape, idxs) in groups {
        let queries: Vec<&Query> = idxs.iter().map(|&i| &jobs[i]).collect();
        let scorers = exec.scorers_for_group(model, &shape, &queries);
        let ks = vec![k; idxs.len()];
        let deadlines = vec![&never; idxs.len()];
        let (hits, _) =
            sharded_top_k_timed(&exec.pool(), &sharded, &scorers, &ks, &deadlines, None);
        for (i, (h, _)) in idxs.into_iter().zip(hits) {
            out[i] = h.into_iter().map(|(e, _)| e).collect();
        }
    }
    out
}

/// Mixed-structure submissions must come back in submission order, each
/// answer bit-identical to the one-shot `score_all` + `top_k_indices`
/// reference — at 1 and 4 shards, 1 and 4 threads.
#[test]
fn serve_style_group_submit_matches_per_query_reference() {
    let _serial = OBS_SERIAL.lock().unwrap();
    let g = graph();
    let model = HalkModel::new(&g, HalkConfig::tiny());
    let sampler = Sampler::new(&g);
    let mut rng = StdRng::seed_from_u64(80);
    // Interleave two skeletons so the groups must re-scatter.
    let p2: Vec<Query> = sampler
        .sample_many(Structure::P2, 3, &mut rng)
        .into_iter()
        .map(|gq| gq.query)
        .collect();
    let p1: Vec<Query> = sampler
        .sample_many(Structure::P1, 3, &mut rng)
        .into_iter()
        .map(|gq| gq.query)
        .collect();
    let jobs: Vec<Query> = p2
        .iter()
        .zip(&p1)
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    let k = 10;
    let reference: Vec<Vec<u32>> = jobs
        .iter()
        .map(|q| top_k_indices(&model.score_all(q), k))
        .collect();

    for shards in [1usize, 4] {
        for threads in [1usize, 4] {
            let exec = Executor::new(ExecConfig {
                threads,
                shards,
                ..ExecConfig::default()
            });
            let got = grouped_top_k(&exec, &model, &jobs, k);
            assert_eq!(
                got, reference,
                "grouped top-k diverged at {shards} shards, {threads} threads"
            );
        }
    }
}

// ---------------------------------------------------------- cache layer

/// The dedupe satellite's regression test: one executor shared across
/// structures (as `evaluate_table_pool` shares it across a row) builds the
/// model's scoring table exactly once; the second structure is a cache
/// hit, not a rebuild.
#[test]
fn shared_executor_builds_score_cache_once_across_structures() {
    let _serial = OBS_SERIAL.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(81);
    let full = graph();
    let split = DatasetSplit::nested(&full, 0.8, 0.1, &mut rng);
    let model = HalkModel::new(&split.train, HalkConfig::tiny());

    let exec = Executor::new(ExecConfig {
        threads: 1,
        label: "eval_score",
        ..ExecConfig::default()
    });
    let builds0 = halk_obs::counter!("halk_exec_cache_builds_total").get();
    let a = evaluate_structure_exec(&model, &split, Structure::P1, 4, 13, &exec);
    let b = evaluate_structure_exec(&model, &split, Structure::P2, 4, 13, &exec);
    assert!(a.n_queries > 0 && b.n_queries > 0);
    let builds = halk_obs::counter!("halk_exec_cache_builds_total").get() - builds0;
    assert_eq!(
        builds, 1,
        "two structures through one executor must build the scoring table once"
    );
    // And the shared product really is one allocation.
    let c1 = exec.score_cache(&model).expect("halk has a score cache");
    let c2 = exec.score_cache(&model).expect("halk has a score cache");
    assert!(std::sync::Arc::ptr_eq(&c1, &c2));
}

/// A parameter step between submissions invalidates the cache: stale
/// tables are never served, fresh ones are built exactly once.
#[test]
fn cache_rolls_over_when_parameters_step() {
    let _serial = OBS_SERIAL.lock().unwrap();
    let g = graph();
    let mut model = HalkModel::new(&g, HalkConfig::tiny());
    let exec = Executor::new(ExecConfig {
        threads: 1,
        ..ExecConfig::default()
    });
    let before = exec.score_cache(&model).expect("built");
    let again = exec.score_cache(&model).expect("cached");
    assert!(std::sync::Arc::ptr_eq(&before, &again));

    let batch = fixed_batches(&g).remove(0);
    model.train_batch(&batch);
    let after = exec.score_cache(&model).expect("rebuilt");
    assert!(
        !std::sync::Arc::ptr_eq(&before, &after),
        "a training step must invalidate the executor's scoring cache"
    );
}
