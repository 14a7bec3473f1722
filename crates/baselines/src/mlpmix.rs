//! MLPMix (Amayuelas et al., ICLR 2022) — non-geometric pure-MLP operators.
//!
//! A query is a plain `d`-vector; every operator is an MLP with no geometric
//! structure at all (no region, no cardinality). The paper finds it the
//! weakest and slowest-to-train baseline — "geometry-based methods might be
//! beneficial for logical queries" (§IV-B observation 4) — and this
//! implementation inherits that by construction. Supports negation (an MLP
//! like any other operator) but not difference (§IV-A).

use crate::embedder::{embed_plan, forward_loss, GeomOps};
use halk_core::{ExecConfig, Executor, HalkConfig, QueryModel, TrainExample};
use halk_kg::Graph;
use halk_logic::plan::PlanBindings;
use halk_logic::{Query, Structure};
use halk_nn::{Act, Mlp, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A batch of query vectors on the tape (`B×d`).
#[derive(Debug, Clone, Copy)]
pub struct VecVar {
    /// The query representation.
    pub v: Var,
}

/// The MLPMix baseline model.
pub struct MlpMixModel {
    /// Hyper-parameters (shared shape with HaLk for fair timing).
    pub cfg: HalkConfig,
    /// All trainable parameters.
    pub store: ParamStore,
    n_entities: usize,
    ent: ParamId,
    rel: ParamId,
    proj: Mlp,
    inter_inner: Mlp,
    inter_outer: Mlp,
    neg: Mlp,
    exec: Executor,
}

impl MlpMixModel {
    /// Builds a freshly initialized MLPMix model.
    pub fn new(train_graph: &Graph, cfg: HalkConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x371C);
        let mut store = ParamStore::new();
        let (d, h, layers) = (cfg.dim, cfg.hidden, cfg.mlp_layers);
        let n_entities = train_graph.n_entities();
        let ent = store.add(halk_nn::init::uniform(n_entities, d, -1.0, 1.0, &mut rng));
        let rel = store.add(halk_nn::init::uniform(
            train_graph.n_relations(),
            d,
            -1.0,
            1.0,
            &mut rng,
        ));
        // MLPMix's operators are *not* seeded by any geometric prior — the
        // projection MLP must learn the whole map. That is the method.
        let proj = Mlp::new(&mut store, 2 * d, h, d, layers.max(1), Act::Relu, &mut rng);
        let inter_inner = Mlp::new(&mut store, d, h, d, layers.max(1), Act::Relu, &mut rng);
        let inter_outer = Mlp::new(&mut store, d, h, d, layers.max(1), Act::Relu, &mut rng);
        let neg = Mlp::new(&mut store, d, h, d, layers.max(1), Act::Relu, &mut rng);
        Self {
            cfg,
            store,
            n_entities,
            ent,
            rel,
            proj,
            inter_inner,
            inter_outer,
            neg,
            exec: Executor::new(ExecConfig::model()),
        }
    }

    /// Inference: the query vector of each DNF branch, read off the cached
    /// compiled plan.
    fn embed_query_values(&self, query: &Query) -> Option<Vec<Vec<f32>>> {
        let shape = self.exec.shape_for(query);
        let bindings = PlanBindings::of(query);
        let mut tape = Tape::forward_only();
        let roots = embed_plan(self, &mut tape, &shape, std::slice::from_ref(&bindings))?;
        Some(
            roots
                .iter()
                .map(|rep| tape.value(rep.v).data.clone())
                .collect(),
        )
    }
}

impl GeomOps for MlpMixModel {
    type Rep = VecVar;

    fn anchor(&self, tape: &mut Tape, ids: &[u32]) -> VecVar {
        VecVar {
            v: tape.gather(&self.store, self.ent, ids),
        }
    }

    fn projection(&self, tape: &mut Tape, input: VecVar, rels: &[u32]) -> VecVar {
        let r = tape.gather(&self.store, self.rel, rels);
        let cat = tape.concat_cols(&[input.v, r]);
        VecVar {
            v: self.proj.forward(tape, &self.store, cat),
        }
    }

    fn intersection(&self, tape: &mut Tape, inputs: &[VecVar]) -> VecVar {
        // Permutation-invariant DeepSets: mean of per-input encodings.
        let inner: Vec<Var> = inputs
            .iter()
            .map(|x| self.inter_inner.forward(tape, &self.store, x.v))
            .collect();
        let mut acc = inner[0];
        for &v in &inner[1..] {
            acc = tape.add(acc, v);
        }
        let mean = tape.scale(acc, 1.0 / inner.len() as f32);
        VecVar {
            v: self.inter_outer.forward(tape, &self.store, mean),
        }
    }

    fn difference(&self, _tape: &mut Tape, _inputs: &[VecVar]) -> Option<VecVar> {
        None // MLPMix does not support the difference operator (§IV-A).
    }

    fn negation(&self, tape: &mut Tape, input: VecVar) -> Option<VecVar> {
        Some(VecVar {
            v: self.neg.forward(tape, &self.store, input.v),
        })
    }

    fn distance(&self, tape: &mut Tape, rep: VecVar, entity_ids: &[u32]) -> Var {
        // Plain L1 distance between the query vector and entity embeddings.
        let v = tape.gather(&self.store, self.ent, entity_ids);
        let diff = tape.sub(v, rep.v);
        tape.l1_rows(diff)
    }
}

impl QueryModel for MlpMixModel {
    fn name(&self) -> &'static str {
        "MLPMix"
    }

    fn supports(&self, s: Structure) -> bool {
        !s.has_difference()
    }

    fn train_batch(&mut self, batch: &[TrainExample]) -> f32 {
        self.exec
            .stage_step(&self.store, batch, |tape, shard| {
                forward_loss(self, tape, shard, self.cfg.gamma)
            })
            .apply(&mut self.store, self.cfg.lr)
    }

    fn score_all(&self, query: &Query) -> Vec<f32> {
        let Some(branches) = self.embed_query_values(query) else {
            return vec![f32::INFINITY; self.n_entities];
        };
        let scorer = halk_core::L1Scorer::new(&branches);
        let mut out = Vec::new();
        scorer.score_into(self.store.value(self.ent), &mut out);
        out
    }

    fn n_entities(&self) -> usize {
        self.n_entities
    }

    fn set_threads(&mut self, threads: usize) {
        self.exec.set_threads(threads);
    }

    fn param_store(&self) -> Option<&halk_nn::ParamStore> {
        Some(&self.store)
    }

    fn param_store_mut(&mut self) -> Option<&mut halk_nn::ParamStore> {
        Some(&mut self.store)
    }
}
