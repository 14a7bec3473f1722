//! NewLook (Liu et al., KDD 2021) — box embeddings with the difference
//! operator.
//!
//! A query is an axis-aligned box `(center, offset)` in `R^d`. NewLook is
//! the strongest baseline on difference structures (Tables I–II), but its
//! box difference is inherently lossy — removing the middle of an interval
//! cannot be expressed by one interval (Fig. 5a) — and its attention
//! operates on raw coordinate values. No negation (§IV-A: the
//! universal set has no box).

use crate::embedder::{embed_plan, forward_loss, GeomOps};
use halk_core::{ExecConfig, Executor, HalkConfig, QueryModel, TrainExample};
use halk_kg::Graph;
use halk_logic::plan::PlanBindings;
use halk_logic::{Query, Structure};
use halk_nn::{Act, Mlp, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A batch of boxes on the tape (`B×d` centers, `B×d` non-negative offsets).
#[derive(Debug, Clone, Copy)]
pub struct BoxVar {
    /// Box centers.
    pub center: Var,
    /// Box half-widths (kept non-negative by softplus constructions).
    pub offset: Var,
}

/// The NewLook baseline model.
pub struct NewLookModel {
    /// Hyper-parameters (shared shape with HaLk for fair timing).
    pub cfg: HalkConfig,
    /// All trainable parameters.
    pub store: ParamStore,
    n_entities: usize,
    ent_center: ParamId,
    rel_center: ParamId,
    rel_offset: ParamId,
    proj_center: Mlp,
    proj_offset: Mlp,
    inter_att: Mlp,
    inter_ds_inner: Mlp,
    inter_ds_outer: Mlp,
    diff_att: Mlp,
    diff_ds_inner: Mlp,
    diff_ds_outer: Mlp,
    exec: Executor,
}

impl NewLookModel {
    /// Builds a freshly initialized NewLook model.
    pub fn new(train_graph: &Graph, cfg: HalkConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xB0F5);
        let mut store = ParamStore::new();
        let (d, h, layers) = (cfg.dim, cfg.hidden, cfg.mlp_layers);
        let n_entities = train_graph.n_entities();
        // Centers live in a bounded range comparable to the circle models so
        // γ/η transfer; the geometry is still unbounded R^d.
        let ent_center = store.add(halk_nn::init::uniform(n_entities, d, -2.0, 2.0, &mut rng));
        let rel_center = store.add(halk_nn::init::uniform(
            train_graph.n_relations(),
            d,
            -0.5,
            0.5,
            &mut rng,
        ));
        let rel_offset = store.add(halk_nn::init::uniform(
            train_graph.n_relations(),
            d,
            0.0,
            0.3,
            &mut rng,
        ));
        let proj_center = Mlp::new(&mut store, 2 * d, h, d, layers, Act::Relu, &mut rng);
        let proj_offset = Mlp::new(&mut store, 2 * d, h, d, layers, Act::Relu, &mut rng);
        let inter_att = Mlp::new(&mut store, 2 * d, h, d, layers, Act::Relu, &mut rng);
        let inter_ds_inner = Mlp::new(&mut store, 2 * d, h, d, layers, Act::Relu, &mut rng);
        let inter_ds_outer = Mlp::new(&mut store, d, h, d, layers, Act::Relu, &mut rng);
        let diff_att = Mlp::new(&mut store, 2 * d, h, d, layers, Act::Relu, &mut rng);
        let diff_ds_inner = Mlp::new(&mut store, 2 * d, h, d, layers, Act::Relu, &mut rng);
        let diff_ds_outer = Mlp::new(&mut store, d, h, d, layers, Act::Relu, &mut rng);
        proj_center.scale_last_layer(&mut store, 0.0);
        proj_offset.scale_last_layer(&mut store, 0.0);
        Self {
            cfg,
            store,
            n_entities,
            ent_center,
            rel_center,
            rel_offset,
            proj_center,
            proj_offset,
            inter_att,
            inter_ds_inner,
            inter_ds_outer,
            diff_att,
            diff_ds_inner,
            diff_ds_outer,
            exec: Executor::new(ExecConfig::model()),
        }
    }

    fn cat(&self, tape: &mut Tape, b: BoxVar) -> Var {
        tape.concat_cols(&[b.center, b.offset])
    }

    /// Raw-value softmax attention over centers — NewLook's scheme, which is
    /// fine in `R^d` (no periodicity) but is exactly what breaks on circles
    /// (the Supplementary's semantic-inconsistency argument).
    fn attention_center(&self, tape: &mut Tape, att: &Mlp, inputs: &[BoxVar]) -> Var {
        let logits: Vec<Var> = inputs
            .iter()
            .map(|b| {
                let cat = self.cat(tape, *b);
                att.forward(tape, &self.store, cat)
            })
            .collect();
        let mut max_logit = logits[0];
        for &l in &logits[1..] {
            max_logit = tape.max(max_logit, l);
        }
        let exps: Vec<Var> = logits
            .iter()
            .map(|&l| {
                let s = tape.sub(l, max_logit);
                tape.exp(s)
            })
            .collect();
        let mut denom = exps[0];
        for &e in &exps[1..] {
            denom = tape.add(denom, e);
        }
        let mut acc: Option<Var> = None;
        for (b, &e) in inputs.iter().zip(&exps) {
            let w = tape.div(e, denom);
            let wc = tape.mul(w, b.center);
            acc = Some(match acc {
                Some(a) => tape.add(a, wc),
                None => wc,
            });
        }
        acc.expect("nonempty")
    }

    fn deepsets_factor(
        &self,
        tape: &mut Tape,
        inner_net: &Mlp,
        outer_net: &Mlp,
        ins: &[Var],
    ) -> Var {
        let mut acc = ins[0];
        for &v in &ins[1..] {
            acc = tape.add(acc, v);
        }
        let mean = tape.scale(acc, 1.0 / ins.len() as f32);
        let outer = outer_net.forward(tape, &self.store, mean);
        let _ = inner_net; // inner applied by callers before this point
        tape.sigmoid(outer)
    }

    /// Inference: per-dimension `(center, offset)` of each DNF branch,
    /// read off the cached compiled plan.
    fn embed_query_values(&self, query: &Query) -> Option<Vec<Vec<(f32, f32)>>> {
        let shape = self.exec.shape_for(query);
        let bindings = PlanBindings::of(query);
        let mut tape = Tape::forward_only();
        let roots = embed_plan(self, &mut tape, &shape, std::slice::from_ref(&bindings))?;
        Some(
            roots
                .iter()
                .map(|rep| {
                    let c = tape.value(rep.center);
                    let o = tape.value(rep.offset);
                    (0..self.cfg.dim)
                        .map(|j| (c.data[j], o.data[j].max(0.0)))
                        .collect()
                })
                .collect(),
        )
    }
}

impl GeomOps for NewLookModel {
    type Rep = BoxVar;

    fn anchor(&self, tape: &mut Tape, ids: &[u32]) -> BoxVar {
        let center = tape.gather(&self.store, self.ent_center, ids);
        let offset = tape.constant(ids.len(), self.cfg.dim, 0.0);
        BoxVar { center, offset }
    }

    fn projection(&self, tape: &mut Tape, input: BoxVar, rels: &[u32]) -> BoxVar {
        // Query2Box-style translation seed plus NewLook's learned correction.
        let r_c = tape.gather(&self.store, self.rel_center, rels);
        let r_o = tape.gather(&self.store, self.rel_offset, rels);
        let tilde_c = tape.add(input.center, r_c);
        let tilde_o = tape.add(input.offset, r_o);
        let tilde = BoxVar {
            center: tilde_c,
            offset: tilde_o,
        };
        let cat = self.cat(tape, tilde);
        let raw_c = self.proj_center.forward(tape, &self.store, cat);
        let corr_c = tape.tanh(raw_c);
        let center = tape.add(tilde_c, corr_c);
        let raw_o = self.proj_offset.forward(tape, &self.store, cat);
        let corr_o = tape.tanh(raw_o);
        let off_raw = tape.add(tilde_o, corr_o);
        let offset = tape.relu(off_raw);
        BoxVar { center, offset }
    }

    fn intersection(&self, tape: &mut Tape, inputs: &[BoxVar]) -> BoxVar {
        let center = self.attention_center(tape, &self.inter_att, inputs);
        let mut min_off = inputs[0].offset;
        for b in &inputs[1..] {
            min_off = tape.min(min_off, b.offset);
        }
        let inner: Vec<Var> = inputs
            .iter()
            .map(|b| {
                let cat = self.cat(tape, *b);
                self.inter_ds_inner.forward(tape, &self.store, cat)
            })
            .collect();
        let factor = self.deepsets_factor(tape, &self.inter_ds_inner, &self.inter_ds_outer, &inner);
        let offset = tape.mul(min_off, factor);
        BoxVar { center, offset }
    }

    fn difference(&self, tape: &mut Tape, inputs: &[BoxVar]) -> Option<BoxVar> {
        // NewLook's difference: attention keeps the center near the minuend,
        // a DeepSets factor shrinks the minuend's offset based on raw-value
        // overlaps. The single surviving box is the lossy approximation of
        // Fig. 5a.
        let center = self.attention_center(tape, &self.diff_att, inputs);
        let first = inputs[0];
        let inner: Vec<Var> = inputs[1..]
            .iter()
            .map(|b| {
                let dc = tape.sub(first.center, b.center);
                let do_ = tape.sub(first.offset, b.offset);
                let cat = tape.concat_cols(&[dc, do_]);
                self.diff_ds_inner.forward(tape, &self.store, cat)
            })
            .collect();
        let factor = self.deepsets_factor(tape, &self.diff_ds_inner, &self.diff_ds_outer, &inner);
        let offset = tape.mul(first.offset, factor);
        Some(BoxVar { center, offset })
    }

    fn negation(&self, _tape: &mut Tape, _input: BoxVar) -> Option<BoxVar> {
        None // Boxes cannot express the universal set (§I / §IV-A).
    }

    fn distance(&self, tape: &mut Tape, rep: BoxVar, entity_ids: &[u32]) -> Var {
        // Query2Box: d_out = ‖relu(|v − c| − o)‖₁, d_in = ‖min(|v − c|, o)‖₁.
        let v = tape.gather(&self.store, self.ent_center, entity_ids);
        let diff = tape.sub(v, rep.center);
        let adist = tape.abs(diff);
        let out_raw = tape.sub(adist, rep.offset);
        let d_out = tape.relu(out_raw);
        let d_in = tape.min(adist, rep.offset);
        let so = tape.sum_cols(d_out);
        let si = tape.sum_cols(d_in);
        let wi = tape.scale(si, self.cfg.eta);
        tape.add(so, wi)
    }
}

impl QueryModel for NewLookModel {
    fn name(&self) -> &'static str {
        "NewLook"
    }

    fn supports(&self, s: Structure) -> bool {
        !s.has_negation()
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
        let scorer = halk_core::BoxScorer::new(&branches, self.cfg.eta);
        let mut out = Vec::new();
        scorer.score_into(self.store.value(self.ent_center), &mut out);
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
