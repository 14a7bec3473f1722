//! Generic query embedding over a pluggable geometry.
//!
//! Each baseline differs only in its per-operator geometry (cones, boxes,
//! plain vectors); plan execution, batching, loss and scoring are
//! identical. [`GeomOps`] captures the geometry; [`embed_plan`] and
//! [`forward_loss`] supply everything else, so a baseline is exactly its
//! operator definitions — the same factoring the comparison needs
//! (Fig. 6b times operators, not harness differences). The pre-plan
//! recursive walker lives in [`reference`] for the bit-identity tests.

use halk_core::loss::{margin_loss, shard_loss};
use halk_core::{TrainExample, TrainShard};
use halk_logic::plan::{PlanBindings, PlanOp, PlanShape};
use halk_logic::Query;
use halk_nn::{Tape, Var};

/// A query-region geometry: how to embed anchors, apply operators, and
/// measure distances, all on the tape.
pub trait GeomOps {
    /// The tape-level region representation (a small bundle of `Var`s).
    type Rep: Copy;

    /// Embeds a batch of anchor entities.
    fn anchor(&self, tape: &mut Tape, ids: &[u32]) -> Self::Rep;

    /// Projection by a batch of relations.
    fn projection(&self, tape: &mut Tape, input: Self::Rep, rels: &[u32]) -> Self::Rep;

    /// Intersection of `k ≥ 2` regions.
    fn intersection(&self, tape: &mut Tape, inputs: &[Self::Rep]) -> Self::Rep;

    /// Difference (first minus rest); `None` if the geometry cannot express
    /// it (ConE, MLPMix — §IV-A).
    fn difference(&self, tape: &mut Tape, inputs: &[Self::Rep]) -> Option<Self::Rep>;

    /// Complement; `None` if the geometry cannot express it (NewLook).
    fn negation(&self, tape: &mut Tape, input: Self::Rep) -> Option<Self::Rep>;

    /// Distance (`B×1`, lower = closer) from a batch of entity ids to the
    /// region batch.
    fn distance(&self, tape: &mut Tape, rep: Self::Rep, entity_ids: &[u32]) -> Var;
}

/// Executes a compiled plan over a batch of binding tables, returning one
/// region batch per DNF branch root. The union rewrite happened at compile
/// time; shared subtrees embed once for all branches.
///
/// Returns `None` when the geometry lacks an operator the plan uses.
///
/// # Panics
/// If the batch is empty or a binding table does not fit `shape`.
pub fn embed_plan<G: GeomOps>(
    geom: &G,
    tape: &mut Tape,
    shape: &PlanShape,
    bindings: &[PlanBindings],
) -> Option<Vec<G::Rep>> {
    assert!(!bindings.is_empty(), "empty batch");
    let mut slots: Vec<G::Rep> = Vec::with_capacity(shape.n_slots());
    for op in shape.ops() {
        let rep = match op {
            PlanOp::Anchor { arg } => {
                let ids: Vec<u32> = bindings
                    .iter()
                    .map(|b| b.anchors[*arg as usize].0)
                    .collect();
                geom.anchor(tape, &ids)
            }
            PlanOp::Projection { rel, input } => {
                let rels: Vec<u32> = bindings.iter().map(|b| b.rels[*rel as usize].0).collect();
                geom.projection(tape, slots[*input as usize], &rels)
            }
            PlanOp::Intersection { inputs } => {
                let reps: Vec<G::Rep> = inputs.iter().map(|&i| slots[i as usize]).collect();
                geom.intersection(tape, &reps)
            }
            PlanOp::Difference { inputs } => {
                let reps: Vec<G::Rep> = inputs.iter().map(|&i| slots[i as usize]).collect();
                geom.difference(tape, &reps)?
            }
            PlanOp::Negation { input } => geom.negation(tape, slots[*input as usize])?,
        };
        slots.push(rep);
    }
    Some(shape.roots().iter().map(|&r| slots[r as usize]).collect())
}

/// The shard forward shared by all baselines: execute the batch's compiled
/// plan over the shard's bindings and build the margin loss (Eq. 17
/// without HaLk's group term) on `tape`. The shared training step
/// ([`halk_core::Executor::stage_step`]) owns everything around it.
pub fn forward_loss<G: GeomOps>(
    geom: &G,
    tape: &mut Tape,
    shard: &TrainShard<'_>,
    gamma: f32,
) -> Var {
    let roots = embed_plan(geom, tape, shard.shape, shard.bindings)
        .expect("train_batch called with an unsupported structure");
    assert_eq!(roots.len(), 1, "training structures are union-free (§IV-A)");
    let rep = roots[0];
    shard_loss(
        tape,
        shard,
        gamma,
        |tape, ids| geom.distance(tape, rep, ids),
        None,
    )
}

/// The retained recursive AST interpreter over [`GeomOps`]. No production
/// path calls into here; the plan-equivalence tests run it side by side
/// with [`embed_plan`] to prove bitwise-identical scores and losses.
pub mod reference {
    use super::*;
    use halk_logic::to_dnf;

    /// Recursively embeds a batch of same-structure, union-free queries —
    /// the pre-plan form of [`super::embed_plan`].
    ///
    /// Returns `None` when the geometry lacks an operator the query uses.
    ///
    /// # Panics
    /// On heterogeneous batches or un-rewritten unions (run DNF first).
    pub fn embed_batch<G: GeomOps>(
        geom: &G,
        tape: &mut Tape,
        queries: &[&Query],
    ) -> Option<G::Rep> {
        assert!(!queries.is_empty(), "empty batch");
        match queries[0] {
            Query::Anchor(_) => {
                let ids: Vec<u32> = queries
                    .iter()
                    .map(|q| match q {
                        Query::Anchor(e) => e.0,
                        other => panic!("heterogeneous batch: {}", other.render()),
                    })
                    .collect();
                Some(geom.anchor(tape, &ids))
            }
            Query::Projection { .. } => {
                let mut rels = Vec::with_capacity(queries.len());
                let mut inputs = Vec::with_capacity(queries.len());
                for q in queries {
                    match q {
                        Query::Projection { rel, input } => {
                            rels.push(rel.0);
                            inputs.push(&**input);
                        }
                        other => panic!("heterogeneous batch: {}", other.render()),
                    }
                }
                let rep = embed_batch(geom, tape, &inputs)?;
                Some(geom.projection(tape, rep, &rels))
            }
            Query::Intersection(bs0) => {
                let reps = embed_branches(geom, tape, queries, bs0.len(), |q| match q {
                    Query::Intersection(bs) => bs,
                    other => panic!("heterogeneous batch: {}", other.render()),
                })?;
                Some(geom.intersection(tape, &reps))
            }
            Query::Difference(bs0) => {
                let reps = embed_branches(geom, tape, queries, bs0.len(), |q| match q {
                    Query::Difference(bs) => bs,
                    other => panic!("heterogeneous batch: {}", other.render()),
                })?;
                geom.difference(tape, &reps)
            }
            Query::Negation(_) => {
                let inners: Vec<&Query> = queries
                    .iter()
                    .map(|q| match q {
                        Query::Negation(inner) => &**inner,
                        other => panic!("heterogeneous batch: {}", other.render()),
                    })
                    .collect();
                let rep = embed_batch(geom, tape, &inners)?;
                geom.negation(tape, rep)
            }
            Query::Union(_) => panic!("unions must be removed by DNF before embedding"),
        }
    }

    fn embed_branches<'q, G: GeomOps>(
        geom: &G,
        tape: &mut Tape,
        queries: &[&'q Query],
        k: usize,
        get: impl Fn(&'q Query) -> &'q [Query],
    ) -> Option<Vec<G::Rep>> {
        (0..k)
            .map(|j| {
                let branch: Vec<&Query> = queries
                    .iter()
                    .map(|q| {
                        let bs = get(q);
                        assert_eq!(bs.len(), k, "heterogeneous branch arity");
                        &bs[j]
                    })
                    .collect();
                embed_batch(geom, tape, &branch)
            })
            .collect()
    }

    /// AST-walking single-query embedding: DNF per call, a fresh tape per
    /// branch, `read` extracting whatever values the caller scores with.
    /// The reference counterpart of the plan-based `embed_query_values`
    /// paths in each baseline.
    pub fn embed_query_with<G: GeomOps, T>(
        geom: &G,
        query: &Query,
        mut read: impl FnMut(&mut Tape, G::Rep) -> T,
    ) -> Option<Vec<T>> {
        to_dnf(query)
            .iter()
            .map(|branch| {
                let mut tape = Tape::forward_only();
                let rep = embed_batch(geom, &mut tape, &[branch])?;
                Some(read(&mut tape, rep))
            })
            .collect()
    }

    /// Recursive-embedding form of [`super::forward_loss`], for the
    /// train-loss bit-identity tests.
    pub fn forward_loss_ast<G: GeomOps>(
        geom: &G,
        batch: &[TrainExample],
        gamma: f32,
    ) -> (Tape, Var) {
        assert!(!batch.is_empty());
        let mut tape = Tape::new();
        let queries: Vec<&Query> = batch.iter().map(|ex| &ex.query).collect();
        let rep = embed_batch(geom, &mut tape, &queries)
            .expect("train_batch called with an unsupported structure");
        let pos_ids: Vec<u32> = batch.iter().map(|ex| ex.positive.0).collect();
        let d_pos = geom.distance(&mut tape, rep, &pos_ids);
        let m = batch
            .iter()
            .map(|ex| ex.negatives.len())
            .min()
            .expect("nonempty batch");
        assert!(m > 0, "training requires negatives");
        let d_negs: Vec<Var> = (0..m)
            .map(|j| {
                let ids: Vec<u32> = batch.iter().map(|ex| ex.negatives[j].0).collect();
                geom.distance(&mut tape, rep, &ids)
            })
            .collect();
        let loss = margin_loss(&mut tape, d_pos, None, &d_negs, None, gamma);
        (tape, loss)
    }
}
