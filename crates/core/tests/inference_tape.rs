//! Inference embeds run on pooled forward-only tapes (DESIGN.md §8). They
//! must produce the same bits as the recording tape training uses, for
//! every paper structure and at every group size, and the pool must not
//! grow past the number of embeds that ever ran at once.

use halk_core::{ArcScorer, EntityTrig, HalkConfig, HalkModel};
use halk_geometry::Arc;
use halk_kg::{generate, Graph, SynthConfig};
use halk_logic::{Query, Sampler, Structure};
use halk_nn::{Tape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A tiny model whose every parameter is moved off its init: HaLk zeroes
/// the last layer of its residual networks, which would leave those
/// layers' weights out of the comparison.
fn setup() -> (Graph, HalkModel) {
    let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(21));
    let mut model = HalkModel::new(&g, HalkConfig::tiny());
    let mut rng = StdRng::seed_from_u64(22);
    for i in 0..model.store.len() {
        let v = model.store.value_mut(model.store.param_id(i));
        for x in &mut v.data {
            *x += rng.gen_range(-0.3..0.3);
        }
    }
    (g, model)
}

/// The reference: the group embedded on a fresh recording tape, one
/// `(center, len)` arc per dim per DNF branch per query, read exactly as
/// the model reads its roots.
fn recorded_arcs(model: &HalkModel, queries: &[&Query]) -> Vec<Vec<Vec<Arc>>> {
    let shape = model.plan_cache().shape_for(queries[0]);
    let (bindings, masks): (Vec<_>, Vec<_>) = queries.iter().map(|q| model.bind(&shape, q)).unzip();
    let mut tape = Tape::new();
    let roots = model.embed_plan(&mut tape, &shape, &bindings, &masks);
    let cfg = model.config();
    (0..queries.len())
        .map(|b| {
            roots
                .iter()
                .map(|arc| {
                    let (c, l): (&Tensor, &Tensor) = (tape.value(arc.center), tape.value(arc.len));
                    (0..cfg.dim)
                        .map(|j| Arc::new(c.get(b, j), l.get(b, j).max(0.0), cfg.rho))
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn arc_bits(branches: &[Vec<Arc>]) -> Vec<(u32, u32)> {
    branches
        .iter()
        .flatten()
        .map(|a| (a.center.to_bits(), a.len.to_bits()))
        .collect()
}

fn score_bits(scorer: &ArcScorer, trig: &EntityTrig) -> Vec<u32> {
    scorer.score_all(trig).iter().map(|s| s.to_bits()).collect()
}

#[test]
fn scorers_for_shape_match_a_recording_tape_for_every_structure() {
    let (g, model) = setup();
    let cfg = model.config().clone();
    let trig = model.entity_trig();
    let sampler = Sampler::new(&g);
    let mut rng = StdRng::seed_from_u64(23);
    let mut checked = 0;
    for s in Structure::all() {
        let sampled = sampler.sample_many(s, 8, &mut rng);
        assert_eq!(sampled.len(), 8, "{s}: could not sample a group of 8");
        let queries: Vec<&Query> = sampled.iter().map(|gq| &gq.query).collect();
        for group in [&queries[..1], &queries[..]] {
            let shape = model.plan_cache().shape_for(group[0]);
            let scorers = model.scorers_for_shape(&shape, group);
            let reference = recorded_arcs(&model, group);
            assert_eq!(scorers.len(), group.len(), "{s}");
            for (b, (scorer, arcs)) in scorers.iter().zip(&reference).enumerate() {
                let want = ArcScorer::from_arcs(arcs, cfg.rho, cfg.eta, cfg.distance);
                assert_eq!(
                    score_bits(scorer, &trig),
                    score_bits(&want, &trig),
                    "{s}: group of {} row {b}",
                    group.len()
                );
                assert_eq!(
                    arc_bits(&model.embed_query(group[b])),
                    arc_bits(arcs),
                    "{s}: row {b} embedded alone"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 24 * 9);
}

#[test]
fn sequential_embeds_share_one_pooled_tape() {
    let (g, model) = setup();
    assert_eq!(model.inference_tapes(), 0);
    let sampler = Sampler::new(&g);
    let mut rng = StdRng::seed_from_u64(24);
    for s in Structure::all() {
        let gq = sampler.sample(s, &mut rng).expect("groundable");
        model.embed_query(&gq.query);
        assert_eq!(model.inference_tapes(), 1, "{s}");
    }
}

#[test]
fn concurrent_embeds_check_out_at_most_one_tape_each() {
    let (g, model) = setup();
    let sampler = Sampler::new(&g);
    let mut rng = StdRng::seed_from_u64(25);
    let queries: Vec<Query> = Structure::all()
        .into_iter()
        .filter_map(|s| sampler.sample(s, &mut rng))
        .map(|gq| gq.query)
        .collect();
    const THREADS: usize = 3;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..20 {
                    for q in &queries {
                        model.embed_query(q);
                    }
                }
            });
        }
    });
    let tapes = model.inference_tapes();
    assert!((1..=THREADS).contains(&tapes), "{tapes} pooled tapes");
}
