//! Steady-state training must not grow the tape buffer pools: each step
//! recycles its node buffers, and the caller-allocated tensors the tapes
//! adopt as inputs must not accumulate in the free lists step after step.

use halk_core::{HalkConfig, HalkModel, QueryModel, TrainExample};
use halk_kg::{generate, Graph, SynthConfig};
use halk_logic::{answers, Sampler, Structure};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn batch(graph: &Graph, sampler: &Sampler, rng: &mut StdRng) -> Vec<TrainExample> {
    sampler
        .sample_many(Structure::Pi, 8, rng)
        .into_iter()
        .map(|gq| {
            let ans = answers(&gq.query, graph);
            let positive = ans.iter().next().expect("non-empty");
            let negatives = sampler.negatives(&ans, 4, rng);
            TrainExample {
                positive,
                negatives,
                query: gq.query,
            }
        })
        .collect()
}

#[test]
fn pooled_buffers_stay_constant_over_training_steps() {
    let graph = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(11));
    let mut model = HalkModel::new(&graph, HalkConfig::tiny());
    let sampler = Sampler::new(&graph);
    let mut rng = StdRng::seed_from_u64(5);
    // A tape is reset when a step reuses it, so the pool reaches its
    // steady size at the end of the second step.
    for _ in 0..2 {
        model.train_batch(&batch(&graph, &sampler, &mut rng));
    }
    let steady = model.pooled_tape_buffers();
    assert!(steady > 0, "training tapes pool their buffers");
    for step in 0..100 {
        model.train_batch(&batch(&graph, &sampler, &mut rng));
        assert_eq!(
            model.pooled_tape_buffers(),
            steady,
            "tape pool grew at step {step}"
        );
    }
}
