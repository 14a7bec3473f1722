//! Embedding-based pruning for subgraph matching (§IV-D).
//!
//! "For each query, we use HaLk to obtain top-20 candidates for each
//! variable node and add these candidates into a node set S. After that, an
//! induced data graph based on S could be generated" — the matcher then runs
//! on the (much smaller) induced graph, trading a little accuracy for a
//! large online-time reduction (Fig. 6a).

use crate::model::HalkModel;
use crate::scorer::{ArcScorer, Precision};
use crate::shard::sharded_top_k_timed;
use halk_kg::{EntityId, Graph};
use halk_logic::Query;
use halk_obs::Deadline;
use halk_par::Pool;

/// Top-`k` entities under each scorer, all swept in one slice-major pass
/// over a one-shard table on the calling thread. The selection is
/// bit-identical to the full-vector `score_all` + `top_k_indices` path.
fn top_k_each(model: &HalkModel, scorers: &[ArcScorer], k: usize) -> Vec<Vec<u32>> {
    let table = model.entity_shards_with(1, Precision::F32);
    let ks = vec![k; scorers.len()];
    let never = Deadline::never();
    let deadlines = vec![&never; scorers.len()];
    let (results, _) = sharded_top_k_timed(&Pool::new(1), &table, scorers, &ks, &deadlines, None);
    results
        .into_iter()
        .map(|(hits, _)| hits.into_iter().map(|(e, _)| e).collect())
        .collect()
}

/// The candidate node set `S`: top-`k` candidates of every variable node of
/// the computation tree (every sub-query root), plus all anchors. Every
/// sub-query is scored in the same sweep over one entity-trig table.
pub fn candidate_set(model: &HalkModel, query: &Query, k: usize) -> Vec<EntityId> {
    let mut keep = vec![false; model.n_entities()];
    // Anchors are always part of the induced graph.
    for a in query.anchors() {
        keep[a.index()] = true;
    }
    // Every operator node of the tree is a variable node of the query graph.
    let mut scorers = Vec::new();
    query.visit(&mut |q| {
        if !matches!(q, Query::Anchor(_)) {
            scorers.push(model.scorer_for(q));
        }
    });
    for e in top_k_each(model, &scorers, k).into_iter().flatten() {
        keep[e as usize] = true;
    }
    keep.iter()
        .enumerate()
        .filter(|&(_, &k)| k)
        .map(|(i, _)| EntityId(i as u32))
        .collect()
}

/// Builds the induced data graph over the candidate set `S` (§IV-D).
pub fn induced_graph(graph: &Graph, candidates: &[EntityId]) -> Graph {
    let mut keep = vec![false; graph.n_entities()];
    for e in candidates {
        keep[e.index()] = true;
    }
    graph.induced_subgraph(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HalkConfig;
    use halk_kg::{generate, RelationId, SynthConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Graph, HalkModel) {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(50));
        let model = HalkModel::new(&g, HalkConfig::tiny());
        (g, model)
    }

    #[test]
    fn candidate_set_includes_anchors_and_scales_with_nodes() {
        let (g, model) = setup();
        let t = g.triples()[0];
        let q1 = Query::atom(t.h, t.r);
        let q2 = Query::atom(t.h, t.r).project(RelationId(0));
        let s1 = candidate_set(&model, &q1, 10);
        let s2 = candidate_set(&model, &q2, 10);
        assert!(s1.contains(&t.h));
        assert!(s2.contains(&t.h));
        // Deeper query has more variable nodes → at least as many candidates.
        assert!(s2.len() >= s1.len());
        assert!(s1.len() <= 11); // 10 candidates + anchor
    }

    #[test]
    fn candidate_set_is_anchors_plus_every_subquery_top_k() {
        let (g, model) = setup();
        let (t, u) = (g.triples()[0], g.triples()[1]);
        let k = 7;
        let queries = [
            Query::atom(t.h, t.r),
            Query::atom(t.h, t.r).project(RelationId(0)),
            Query::Union(vec![Query::atom(t.h, t.r), Query::atom(u.h, u.r)]),
        ];
        for q in &queries {
            let mut want: Vec<EntityId> = q.anchors();
            q.visit(&mut |sub| {
                if !matches!(sub, Query::Anchor(_)) {
                    let scores = model.score_all(sub);
                    want.extend(crate::top_k_indices(&scores, k).into_iter().map(EntityId));
                }
            });
            want.sort_unstable();
            want.dedup();
            assert_eq!(candidate_set(&model, q, k), want, "{}", q.render());
        }
    }

    #[test]
    fn induced_graph_is_subgraph_and_smaller() {
        let (g, model) = setup();
        let t = g.triples()[0];
        let q = Query::atom(t.h, t.r);
        let cands = candidate_set(&model, &q, 20);
        let sub = induced_graph(&g, &cands);
        assert!(sub.is_subgraph_of(&g));
        assert!(sub.n_triples() < g.n_triples());
        // Entity id space is preserved for comparability.
        assert_eq!(sub.n_entities(), g.n_entities());
    }
}
