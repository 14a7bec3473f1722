//! The baselines train through the same sharded step as HaLk
//! (`Executor::stage_step`), so their thread count is a scheduling knob
//! only: losses and final parameters must be bit-identical at 1, 2 and 4
//! threads on batches that span several 8-example shards.

use halk_baselines::{ConeModel, MlpMixModel, NewLookModel};
use halk_core::{HalkConfig, QueryModel, TrainExample};
use halk_kg::{generate, Graph, SynthConfig};
use halk_logic::{answers, Sampler, Structure};
use halk_nn::checkpoint;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graph() -> Graph {
    generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(23))
}

/// Multi-shard batches with ragged tails (13, 19) and a full 64-example
/// batch, covering every operator family some baseline supports.
fn fixed_batches(g: &Graph) -> Vec<(Structure, Vec<TrainExample>)> {
    let sampler = Sampler::new(g);
    let mut rng = StdRng::seed_from_u64(37);
    [
        (Structure::Pi, 13),
        (Structure::In2, 19),
        (Structure::D2, 19),
        (Structure::P2, 64),
    ]
    .into_iter()
    .map(|(s, n)| {
        let batch: Vec<TrainExample> = sampler
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
            .collect();
        assert_eq!(batch.len(), n, "{s}: short batch");
        (s, batch)
    })
    .collect()
}

/// Two passes over the supported batches at one thread count: the loss
/// trajectory (as bits) and the final parameter bytes.
fn train_run(
    mut model: Box<dyn QueryModel>,
    batches: &[(Structure, Vec<TrainExample>)],
    threads: usize,
) -> (Vec<u32>, Vec<u8>) {
    model.set_threads(threads);
    let mut losses = Vec::new();
    for _ in 0..2 {
        for (s, batch) in batches {
            if model.supports(*s) {
                losses.push(model.train_batch(batch).to_bits());
            }
        }
    }
    let store = model.param_store().expect("baselines expose their store");
    (losses, checkpoint::to_bytes(store))
}

/// A fresh baseline by display name.
fn baseline(g: &Graph, name: &str) -> Box<dyn QueryModel> {
    let cfg = HalkConfig::tiny();
    match name {
        "ConE" => Box::new(ConeModel::new(g, cfg)),
        "NewLook" => Box::new(NewLookModel::new(g, cfg)),
        _ => Box::new(MlpMixModel::new(g, cfg)),
    }
}

#[test]
fn baseline_training_is_bit_identical_at_any_thread_count() {
    let g = graph();
    let batches = fixed_batches(&g);
    for name in ["ConE", "NewLook", "MLPMix"] {
        assert_eq!(baseline(&g, name).name(), name);
        let (ref_losses, ref_params) = train_run(baseline(&g, name), &batches, 1);
        assert!(ref_losses.len() >= 6, "{name}: too few supported batches");
        assert!(ref_losses.iter().all(|&b| f32::from_bits(b).is_finite()));
        for threads in [2, 4] {
            let (losses, params) = train_run(baseline(&g, name), &batches, threads);
            assert_eq!(
                losses, ref_losses,
                "{name}: losses diverged at {threads} threads"
            );
            assert_eq!(
                params, ref_params,
                "{name}: params diverged at {threads} threads"
            );
        }
    }
}
