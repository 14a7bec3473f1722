//! The `train_eval` workload: in-process `train_model` followed by
//! `evaluate_table_pool` over every structure.
//!
//! Training writes the parameters every step, which invalidates the
//! executor's step-versioned trig cache; evaluation then reads full score
//! vectors for filtered ranks. A scoring or executor change tuned for
//! serve's top-k path can cost here.

use crate::daemon::vm_hwm_kb;
use crate::inputs::{rng_for, synth_graph};
use crate::report::{Layers, Report};
use crate::serve::{good_side, RATE_GOOD_SHARE};
use crate::spec::{Better, DAEMON_THREADS};
use crate::stats::median;
use crate::traced::{check_trace, coverage_json, write_per_layer};
use halk_core::train::{train_model, TrainConfig};
use halk_core::{
    evaluate_structure_exec, evaluate_table_pool, ExecConfig, Executor, HalkConfig, HalkModel,
    Pool, QueryModel, ScoreCache, TrainExample,
};
use halk_kg::{DatasetSplit, SynthConfig};
use halk_logic::{answers, Query, Sampler, Structure};
use halk_nn::ParamStore;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Optimizer steps per run. Fixed, so every run trains the same model;
/// small, because the training loop's resident memory grows with the step
/// count (README.md).
pub const STEPS: usize = 200;
/// Queries per batch and negatives per query.
const BATCH: usize = 64;
const NEGATIVES: usize = 16;
/// Evaluation queries per structure.
const EVAL_QUERIES: usize = 50;
/// A run is this many rounds; each sets up and trains a fresh model from
/// the same seed (identical work every round), then evaluates it in
/// repeated passes until the round's share of `--seconds` is used; several
/// short rounds spread training and evaluation over the whole run. `p50_ms`
/// is the median of every training step of the run; like the serve
/// workloads' closed-loop windows, `throughput_qps` takes the evaluation
/// passes' rate on the good side, so a few-second slowdown of the shared
/// host moves a minority of passes, not the number.
pub const ROUNDS: usize = 5;
/// Evaluation passes per round, at least.
const MIN_EVAL_PASSES: usize = 3;
/// Set-ups per round; `setup_s` is the median over all of them (one takes
/// ~3 ms, so many are needed for a steady median).
const SETUPS: usize = 12;
/// Steps the traced run replays per pass.
const TRACED_STEPS: usize = 60;
/// Training must bring the loss (mean of the last quarter of steps) below
/// this share of the mean loss of the first [`HEAD_STEPS`] steps. Seeds
/// 1–10 reach 0.66–0.69 (README.md); a step that stops learning stays
/// near 1.
pub const LOSS_RATIO_MAX: f64 = 0.75;
const HEAD_STEPS: usize = 10;
const MS: f64 = 1e3;

struct Setup {
    split: DatasetSplit,
    model: HalkModel,
}

/// Graph generation, the nested split and `HalkModel::new`, each timed.
fn setup(seed: u64, layers: &mut Layers) -> Setup {
    let cfg = SynthConfig::fb237_like();
    let g = layers.time("kg.generate_ms", MS, || {
        synth_graph(cfg.n_entities, cfg.n_triples, seed)
    });
    let split = layers.time("kg.split_ms", MS, || {
        DatasetSplit::nested(&g, 0.8, 0.1, &mut rng_for(seed, 2))
    });
    let model = layers.time("model.new_ms", MS, || {
        HalkModel::new(
            &split.train,
            HalkConfig {
                seed,
                ..HalkConfig::default()
            },
        )
    });
    Setup { split, model }
}

/// [`HalkModel`] behind a clock: records the wall time from the end of one
/// optimizer step to the end of the next — one full iteration of the
/// training loop (batch sampling, the step, the divergence check).
struct StepClock<'m> {
    model: &'m mut HalkModel,
    last: Option<Instant>,
    steps_ms: Vec<f64>,
}

impl QueryModel for StepClock<'_> {
    fn name(&self) -> &'static str {
        self.model.name()
    }
    fn supports(&self, s: Structure) -> bool {
        self.model.supports(s)
    }
    fn train_batch(&mut self, batch: &[TrainExample]) -> f32 {
        let loss = self.model.train_batch(batch);
        let now = Instant::now();
        if let Some(prev) = self.last {
            self.steps_ms.push((now - prev).as_secs_f64() * MS);
        }
        self.last = Some(now);
        loss
    }
    fn score_all(&self, query: &Query) -> Vec<f32> {
        self.model.score_all(query)
    }
    fn n_entities(&self) -> usize {
        self.model.n_entities()
    }
    fn set_threads(&mut self, threads: usize) {
        self.model.set_threads(threads)
    }
    fn score_cache(&self) -> Option<ScoreCache> {
        self.model.score_cache()
    }
    fn score_all_cached(&self, query: &Query, cache: &ScoreCache) -> Vec<f32> {
        self.model.score_all_cached(query, cache)
    }
    fn param_store(&self) -> Option<&ParamStore> {
        QueryModel::param_store(&*self.model)
    }
    fn param_store_mut(&mut self) -> Option<&mut ParamStore> {
        self.model.param_store_mut()
    }
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        steps: STEPS,
        batch_size: BATCH,
        negatives: NEGATIVES,
        seed,
        threads: DAEMON_THREADS,
        ..TrainConfig::default()
    }
}

/// One untraced run: `setup_s` is the median set-up, `p50_ms` the median
/// training-loop step, `throughput_qps` the good side over evaluation
/// passes in queries per second, and `rss_mb` this process's peak RSS.
pub fn run(seed: u64, seconds: f64) -> io::Result<Report> {
    let t0 = Instant::now();
    let mut setups: Vec<f64> = Vec::with_capacity(ROUNDS * SETUPS);
    let mut step_p50: Vec<f64> = Vec::with_capacity(ROUNDS);
    let mut steps_ms: Vec<f64> = Vec::with_capacity(ROUNDS * STEPS);
    let mut passes: Vec<f64> = Vec::new();
    let (mut steps, mut queries, mut failed) = (0usize, 0usize, 0u64);
    for round in 0..ROUNDS {
        let round_start = Instant::now();
        let mut s = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            s = Some(setup(seed, &mut Layers::default()));
            setups.push(t.elapsed().as_secs_f64());
        }
        let Setup { split, mut model } = s.expect("at least one set-up");

        let mut clock = StepClock {
            model: &mut model,
            last: None,
            steps_ms: Vec::with_capacity(STEPS),
        };
        let stats = train_model(
            &mut clock,
            &split.train,
            &Structure::training(),
            &train_config(seed),
        )
        .map_err(|e| io::Error::other(e.to_string()))?;
        step_p50.push(median(&clock.steps_ms));
        steps_ms.append(&mut clock.steps_ms);
        steps += stats.losses.len();
        let finite = stats.losses.iter().all(|l| l.is_finite());
        let head = stats.losses.iter().take(HEAD_STEPS).sum::<f32>() / HEAD_STEPS as f32;
        let loss_ratio = f64::from(stats.tail_loss() / head);
        let learned = finite && loss_ratio <= LOSS_RATIO_MAX;

        let (mut round_passes, mut mrr, mut complete) = (0usize, 0.0, true);
        let budget = seconds / ROUNDS as f64;
        while round_passes < MIN_EVAL_PASSES || round_start.elapsed().as_secs_f64() < budget {
            let t = Instant::now();
            let row = evaluate_table_pool(
                &model,
                &split,
                &Structure::all(),
                EVAL_QUERIES,
                seed + round_passes as u64,
                Pool::new(DAEMON_THREADS),
            );
            let secs = t.elapsed().as_secs_f64();
            let cells: Vec<_> = row.iter().filter_map(|(_, c)| c.as_ref()).collect();
            let n: usize = cells.iter().map(|c| c.n_queries).sum();
            if round_passes == 0 {
                mrr = cells.iter().map(|c| c.metrics.mrr).sum::<f64>() / cells.len().max(1) as f64;
            }
            complete &= cells.len() == row.len();
            queries += n;
            round_passes += 1;
            passes.push(n as f64 / secs);
        }
        let sane = complete && (0.0..=1.0).contains(&mrr);
        failed += stats.rollbacks as u64 + u64::from(!learned) + u64::from(!sane);
        eprintln!(
            "train_eval round {round}: {} steps ({} rollbacks, loss {head:.3} -> {:.3}, ratio \
             {loss_ratio:.3} of at most {LOSS_RATIO_MAX}), step p50 {:.3} ms; {round_passes} \
             eval passes, first-pass mean MRR {mrr:.4}",
            stats.losses.len(),
            stats.rollbacks,
            stats.tail_loss(),
            step_p50[round],
        );
    }
    eprintln!(
        "train_eval: {steps} steps, {queries} eval queries in {} passes; run took {:.2?}; \
         per-round step p50 {step_p50:.4?}; per-pass throughput {passes:.1?}",
        passes.len(),
        t0.elapsed()
    );
    Ok(Report {
        correct: failed == 0,
        attempted: (steps + queries) as u64,
        failed,
        metrics: vec![
            ("setup_s", median(&setups)),
            (
                "throughput_qps",
                good_side(&passes, Better::Higher, RATE_GOOD_SHARE),
            ),
            ("p50_ms", median(&steps_ms)),
            ("rss_mb", vm_hwm_kb("/proc/self/status")? as f64 / 1024.0),
        ],
    })
}

/// One training batch drawn the way the training loop draws it, from
/// freshly sampled queries.
fn sample_batch(
    sampler: &Sampler,
    split: &DatasetSplit,
    s: Structure,
    rng: &mut rand::rngs::StdRng,
) -> Vec<TrainExample> {
    sampler
        .sample_many(s, BATCH, rng)
        .into_iter()
        .filter_map(|gq| {
            let ans = answers(&gq.query, &split.train);
            let positive = ans.iter().next()?;
            let negatives = sampler.negatives(&ans, NEGATIVES, rng);
            Some(TrainExample {
                query: gq.query,
                positive,
                negatives,
            })
        })
        .collect()
}

/// Replays [`TRACED_STEPS`] sample + step pairs, each under its own root
/// span, recording both layers.
fn replay_steps(setup: &mut Setup, seed: u64, layers: &mut Layers) -> Vec<f64> {
    let sampler = Sampler::new(&setup.split.train);
    let mut rng = rng_for(seed, 20);
    let training = Structure::training();
    let mut walls = Vec::with_capacity(TRACED_STEPS);
    for i in 0..TRACED_STEPS {
        let _root = halk_obs::span!(crate::traced::ROOT_SPAN, || format!("step={i}"));
        let t = Instant::now();
        let s = training[i % training.len()];
        let batch = layers.time("sampler.batch_ms", MS, || {
            sample_batch(&sampler, &setup.split, s, &mut rng)
        });
        layers.time("train.step_ms", MS, || {
            std::hint::black_box(setup.model.train_batch(&batch));
            walls.push(t.elapsed().as_secs_f64() * MS);
        });
    }
    walls
}

/// One traced run: set-up layers, sampled-batch and optimizer-step
/// replays (untraced, then traced), and per-structure evaluation passes
/// until `seconds` have passed.
pub fn run_traced(seed: u64, seconds: f64, out: &Path) -> io::Result<Report> {
    let t0 = Instant::now();
    halk_core::obs::install();
    halk_par::set_threads(DAEMON_THREADS);
    let mut layers = Layers::default();
    let mut s = setup(seed, &mut layers);
    for _ in 1..SETUPS {
        s = setup(seed, &mut layers);
    }

    let untraced = replay_steps(&mut s, seed, &mut Layers::default());
    let trace_path = out.join("trace.jsonl");
    halk_obs::trace::init_trace(&trace_path)?;
    let traced = replay_steps(&mut s, seed, &mut layers);
    layers.set("trace.overhead", median(&traced) / median(&untraced));

    let exec = Executor::new(ExecConfig {
        threads: DAEMON_THREADS,
        label: "eval_score",
        ..ExecConfig::default()
    });
    let builds0 = halk_obs::metrics::counter("halk_exec_cache_builds_total").get();
    let mut evaluated = 0usize;
    for pass in 0u64.. {
        if pass > 0 && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        for st in Structure::all() {
            let cell = layers.time("eval.structure_ms", MS, || {
                evaluate_structure_exec(&s.model, &s.split, st, EVAL_QUERIES, seed + pass, &exec)
            });
            evaluated += cell.n_queries;
        }
    }
    halk_obs::trace::flush();
    layers.set(
        "exec.cache_builds",
        (halk_obs::metrics::counter("halk_exec_cache_builds_total").get() - builds0) as f64,
    );
    let max = layers.summary("eval.structure_ms").max;
    layers.set("eval.structure_max_ms", max);

    let checked = check_trace(&trace_path);
    let trace_ok = checked.is_ok();
    let per_layer = serde_json::json!({
        "workload": crate::spec::TRAIN_EVAL,
        "seed": seed,
        "trace": trace_path.to_string_lossy().into_owned(),
        "coverage": coverage_json(crate::spec::TRAIN_EVAL, &checked),
        "layers": layers.json(),
    });
    write_per_layer(out, &per_layer)?;
    Ok(Report {
        correct: trace_ok,
        attempted: (2 * TRACED_STEPS + evaluated) as u64,
        failed: u64::from(!trace_ok),
        metrics: layers.metrics(),
    })
}
