//! Rank-metric equivalence gate for quantized scoring (ISSUE 8).
//!
//! The exact F32 path is the reference: byte-identical trig, bit-identical
//! scores. The quantized precision (I16) stores fixed-point trig and is
//! held to a *rank* contract instead: over a sweep of link-prediction
//! queries, MRR and Hits@{1,3,10} computed from quantized scores must sit
//! within 1e-3 of the exact metrics (its per-value error is ~1.6e-5, far
//! below typical score gaps).

use halk_core::{HalkConfig, HalkModel, Precision, TrainConfig};
use halk_kg::{generate, Graph, SynthConfig};
use halk_logic::{Query, Structure};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trained_deployment() -> (Graph, HalkModel) {
    let cfg = SynthConfig {
        n_entities: 400,
        ..SynthConfig::fb237_like()
    };
    let graph = generate(&cfg, &mut StdRng::seed_from_u64(11));
    let mut model = HalkModel::new(&graph, HalkConfig::tiny());
    let tc = TrainConfig {
        steps: 40,
        threads: 1,
        ..TrainConfig::tiny()
    };
    halk_core::train_model(&mut model, &graph, &[Structure::P1], &tc).unwrap();
    (graph, model)
}

/// Rank metrics of the true tails of `n` held-out-style atom queries under
/// `precision`. Rank uses the same `(score, index)` strict total order as
/// the top-k kernels: a tie on score breaks toward the lower entity id.
fn rank_metrics(graph: &Graph, model: &HalkModel, precision: Precision, n: usize) -> [f64; 4] {
    let trig = model.entity_trig_with(precision);
    let mut scores = Vec::new();
    let (mut mrr, mut h1, mut h3, mut h10) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let triples = graph.triples();
    assert!(triples.len() >= n, "fixture must supply {n} probe triples");
    for t in &triples[..n] {
        let query = Query::atom(t.h, t.r);
        model.score_all_with(&trig, &query, &mut scores);
        let target = t.t.0 as usize;
        let ts = scores[target];
        // Rank = 1 + number of entities strictly ahead in the total order.
        let ahead = scores
            .iter()
            .enumerate()
            .filter(|&(i, &s)| (s, i) < (ts, target))
            .count();
        let rank = (ahead + 1) as f64;
        mrr += 1.0 / rank;
        h1 += f64::from(rank <= 1.0);
        h3 += f64::from(rank <= 3.0);
        h10 += f64::from(rank <= 10.0);
    }
    let n = n as f64;
    [mrr / n, h1 / n, h3 / n, h10 / n]
}

const PROBES: usize = 64;

#[test]
fn i16_rank_metrics_match_exact_within_1e_3() {
    let (graph, model) = trained_deployment();
    let exact = rank_metrics(&graph, &model, Precision::F32, PROBES);
    let quant = rank_metrics(&graph, &model, Precision::I16, PROBES);
    for (name, (e, q)) in ["mrr", "hits@1", "hits@3", "hits@10"]
        .iter()
        .zip(exact.iter().zip(quant.iter()))
    {
        assert!(
            (e - q).abs() <= 1e-3,
            "{name}: exact {e} vs i16 {q} differ by {}",
            (e - q).abs()
        );
    }
}

#[test]
fn f32_trig_path_is_bit_identical_to_score_all() {
    let (graph, model) = trained_deployment();
    let trig = model.entity_trig_with(Precision::F32);
    let mut via_trig = Vec::new();
    for t in &graph.triples()[..16] {
        let query = Query::atom(t.h, t.r);
        model.score_all_with(&trig, &query, &mut via_trig);
        assert_eq!(
            via_trig,
            model.score_all(&query),
            "exact path must not drift"
        );
    }
}

#[test]
fn sharded_quantized_top_k_matches_unsharded_quantized_ranking() {
    // Sharding and quantization must compose: the merged sharded selection
    // under I16 equals the full-vector I16 ranking (sharding is invariant
    // to the trig storage format).
    let (graph, model) = trained_deployment();
    let pool = halk_par::Pool::new(2);
    let sharded = model.entity_shards_with(4, Precision::I16);
    let trig = model.entity_trig_with(Precision::I16);
    let never = halk_obs::Deadline::never();
    let mut scores = Vec::new();
    for t in &graph.triples()[..8] {
        let query = Query::atom(t.h, t.r);
        let scorers = [model.scorer_for(&query)];
        let (mut out, _) =
            halk_core::sharded_top_k_timed(&pool, &sharded, &scorers, &[10], &[&never], None);
        let (hits, scored) = out.pop().expect("one query in, one result out");
        assert_eq!(scored, graph.n_entities());
        model.score_all_with(&trig, &query, &mut scores);
        let want = halk_core::top_k_indices(&scores, 10);
        let got: Vec<u32> = hits.iter().map(|&(e, _)| e).collect();
        assert_eq!(got, want);
        for &(e, s) in &hits {
            assert_eq!(s, scores[e as usize], "merged scores are the shard scores");
        }
    }
}
