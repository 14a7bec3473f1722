//! Quickstart: build a knowledge graph, train HaLk briefly, and answer a
//! multi-hop logical query.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use halk::core::{top_k_indices, train_model, HalkConfig, HalkModel, TrainConfig};
use halk::kg::{generate, DatasetSplit, SynthConfig};
use halk::logic::{answer_split, Query, Sampler, Structure};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A synthetic FB15k-237-style knowledge graph with nested
    //    train ⊆ valid ⊆ test splits (the incomplete-KG setting).
    let mut rng = StdRng::seed_from_u64(7);
    let full = generate(&SynthConfig::fb237_like(), &mut rng);
    let split = DatasetSplit::nested(&full, 0.8, 0.1, &mut rng);
    println!(
        "graph: {} entities, {} relations, {} triples ({} in train)",
        full.n_entities(),
        full.n_relations(),
        full.n_triples(),
        split.train.n_triples()
    );

    // 2. Train HaLk on the training graph. HaLk supports all five logical
    //    operators, so it trains on every structure in the workload.
    let mut model = HalkModel::new(&split.train, HalkConfig::default());
    let tc = TrainConfig {
        steps: 2000,
        log_every: 500,
        ..TrainConfig::default()
    };
    let stats = train_model(&mut model, &split.train, &Structure::training(), &tc)
        .expect("training failed");
    println!(
        "trained {} structures in {:.1?} (final loss {:.3})",
        stats.trained_structures.len(),
        stats.wall,
        stats.tail_loss()
    );

    // 3. Answer a 2i query sampled from the *test* graph: some of its
    //    answers need edges the model never saw.
    let sampler = Sampler::new(&split.test);
    let mut qrng = StdRng::seed_from_u64(99);
    let gq = sampler
        .sample(Structure::I2, &mut qrng)
        .expect("sampleable 2i query");
    println!("\nquery: {}", gq.query.render());

    let ans = answer_split(&gq.query, &split.valid, &split.test);
    println!(
        "exact answers: {} easy (derivable from seen edges), {} hard (need generalization)",
        ans.easy.len(),
        ans.hard.len()
    );

    // 4. Rank all entities by distance to the query's arc embedding.
    let scores = model.score_all(&gq.query);
    println!("HaLk top-10 candidates:");
    for (i, e) in top_k_indices(&scores, 10).into_iter().enumerate() {
        let tag = if ans.easy.iter().chain(&ans.hard).any(|a| a.0 == e) {
            "✓ answer"
        } else {
            ""
        };
        println!(
            "  {:2}. e{:<4} (distance {:.3}) {}",
            i + 1,
            e,
            scores[e as usize],
            tag
        );
    }

    // 5. The same model answers queries with negation, difference and union
    //    — no retraining, one unified operator set.
    let neg = Query::Difference(vec![gq.query.clone(), gq.query.clone().negate()]);
    let s2 = model.score_all(&neg);
    println!(
        "\nthe same model scores a difference-of-negation query: {} finite scores",
        s2.iter().filter(|x| x.is_finite()).count()
    );
}
