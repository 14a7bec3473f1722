//! Integration: the operator properties the baselines' geometries promise,
//! checked on the operators that run — each baseline's `GeomOps` on a tape,
//! untrained and after a few training steps. They sit beside HaLk's own
//! versions in `paper_invariants.rs`.

use halk::baselines::embedder::GeomOps;
use halk::baselines::{ConeModel, NewLookModel};
use halk::core::{train_model, HalkConfig, QueryModel, TrainConfig};
use halk::geometry::angle::abs_delta;
use halk::kg::{generate, Graph, SynthConfig};
use halk::logic::Structure;
use halk::nn::{Tape, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f32::consts::PI;

const BATCH: usize = 16;

fn graph() -> Graph {
    generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(41))
}

/// A freshly built model, and one trained for a few steps.
fn untrained_and_trained<M: QueryModel>(g: &Graph, new: impl Fn() -> M) -> [M; 2] {
    let mut trained = new();
    let tc = TrainConfig {
        steps: 20,
        batch_size: 8,
        negatives: 4,
        queries_per_structure: 20,
        ..TrainConfig::default()
    };
    let stats = train_model(&mut trained, g, &Structure::training(), &tc).expect("trains");
    assert_eq!(stats.losses.len(), tc.steps);
    [new(), trained]
}

/// A batch of projected anchors `r(e, ?)`: regions with nonzero extent.
fn projected<G: GeomOps>(geom: &G, tape: &mut Tape, g: &Graph, rng: &mut StdRng) -> G::Rep {
    let ids: Vec<u32> = (0..BATCH)
        .map(|_| rng.gen_range(0..g.n_entities() as u32))
        .collect();
    let rels: Vec<u32> = (0..BATCH)
        .map(|_| rng.gen_range(0..g.n_relations() as u32))
        .collect();
    let anchor = geom.anchor(tape, &ids);
    geom.projection(tape, anchor, &rels)
}

fn values(tape: &Tape, v: Var) -> Vec<f32> {
    tape.value(v).data.clone()
}

/// NewLook's difference scales the minuend's offset by a sigmoid factor,
/// and its intersection scales the smallest input offset the same way:
/// neither result box can be wider than the box it is cut from.
#[test]
fn newlook_difference_and_intersection_offsets_shrink() {
    let g = graph();
    for model in untrained_and_trained(&g, || NewLookModel::new(&g, HalkConfig::tiny())) {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..4 {
            let mut tape = Tape::new();
            let a = projected(&model, &mut tape, &g, &mut rng);
            let b = projected(&model, &mut tape, &g, &mut rng);
            let c = projected(&model, &mut tape, &g, &mut rng);
            let diff = model.difference(&mut tape, &[a, b]).expect("NewLook has 𝔻");
            let inter = model.intersection(&mut tape, &[a, b, c]);
            let (oa, ob, oc) = (
                values(&tape, a.offset),
                values(&tape, b.offset),
                values(&tape, c.offset),
            );
            for (i, &d) in values(&tape, diff.offset).iter().enumerate() {
                assert!(d <= oa[i], "difference offset {d} > minuend {}", oa[i]);
            }
            for (i, &o) in values(&tape, inter.offset).iter().enumerate() {
                let min = oa[i].min(ob[i]).min(oc[i]);
                assert!(o <= min, "intersection offset {o} > smallest input {min}");
            }
        }
    }
}

/// ConE's intersection aperture is CardMin scaled by a sigmoid factor, so
/// it never exceeds the smallest input aperture; its negation is the
/// linear complement, so the two apertures sum to π around antipodal axes.
#[test]
fn cone_intersection_narrows_and_negation_complements() {
    let g = graph();
    for model in untrained_and_trained(&g, || ConeModel::new(&g, HalkConfig::tiny())) {
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..4 {
            let mut tape = Tape::new();
            let a = projected(&model, &mut tape, &g, &mut rng);
            let b = projected(&model, &mut tape, &g, &mut rng);
            let inter = model.intersection(&mut tape, &[a, b]);
            let neg = model.negation(&mut tape, a).expect("ConE has ℕ");
            let (pa, pb) = (values(&tape, a.ap), values(&tape, b.ap));
            for (i, &p) in values(&tape, inter.ap).iter().enumerate() {
                let min = pa[i].min(pb[i]);
                assert!(p <= min, "intersection aperture {p} > smallest input {min}");
            }
            let axes = values(&tape, a.axis);
            let neg_axes = values(&tape, neg.axis);
            for (i, &p) in values(&tape, neg.ap).iter().enumerate() {
                assert!((0.0..=PI).contains(&pa[i]), "input aperture {}", pa[i]);
                assert!((p + pa[i] - PI).abs() < 1e-5, "apertures {p} + {}", pa[i]);
                let apart = abs_delta(axes[i], neg_axes[i]);
                assert!((apart - PI).abs() < 1e-4, "axes {apart} apart");
            }
        }
    }
}
