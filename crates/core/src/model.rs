//! The HaLk model: arc embeddings plus one neural (or closed-form) module
//! per logical operator.
//!
//! Construction follows §III of the paper equation by equation, with the
//! measured CPU-scale adaptations of DESIGN.md §6 (bounded residual
//! corrections over the closed-form seeds, periodic MLP inputs):
//!
//! * **Projection** (Eq. 2–3): rotate by the relation arc, then adjust the
//!   coordinated `(start ‖ end)` pair with two bounded MLP corrections.
//! * **Intersection** (Eq. 10–12): semantic-average centers via attention in
//!   rectangular coordinates, weighted by group-information similarity `z`;
//!   arclengths capped by the minimum input (cardinality constraint) and
//!   shrunk by a DeepSets factor.
//! * **Difference** (Eq. 4–9): the same semantic-average centers but with
//!   learned asymmetry vectors `κ` (first input vs rest); arclengths from
//!   chord-length overlaps `δ_c = 2ρ·sin((A_{1,c}−A_{j,c})/2)` with the
//!   `A_{1,l}`-capped closed form.
//! * **Negation** (Eq. 13–14): closed-form complement seed (center + π,
//!   length `2πρ − A_l`) refined by a non-linear network.
//! * **Union** (§III-F): non-parametric — handled by DNF rewriting upstream;
//!   [`HalkModel::score_all`] takes the minimum distance over branches.
//!
//! Ablation variants HaLk-V1/V2/V3 (Table V) are selected by
//! [`Ablation`] and swap exactly the component the paper ablates.

use crate::arcvar::{chord, clamp, g_squash, ArcVar};
use crate::config::{Ablation, DistanceMode, HalkConfig};
use crate::exec::{ExecConfig, Executor};
use crate::scorer::{ArcScorer, EntityTrig, Precision};
use crate::shard::{ArcShards, ShardedTrig};
use halk_geometry::Arc;
use halk_kg::{Graph, Grouping};
use halk_logic::plan::{PlanBindings, PlanCache, PlanMasks, PlanOp, PlanShape};
use halk_logic::Query;
use halk_nn::{Act, Mlp, ParamId, ParamStore, Tape, Tensor, Var};
use halk_par::Pool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::thread::ThreadId;

/// The trained state of HaLk: embedding tables, operator networks and the
/// node grouping, all hanging off one [`ParamStore`].
pub struct HalkModel {
    /// Hyper-parameters this model was built with.
    pub cfg: HalkConfig,
    /// All trainable parameters.
    pub store: ParamStore,
    grouping: Grouping,
    n_entities: usize,
    n_relations: usize,

    ent_center: ParamId,
    rel_center: ParamId,
    rel_len: ParamId,

    proj_center: Mlp,
    proj_alpha: Mlp,

    inter_att: Mlp,
    inter_ds_inner: Mlp,
    inter_ds_outer: Mlp,

    diff_att: Mlp,
    diff_kappa_first: ParamId,
    diff_kappa_rest: ParamId,
    diff_ds_inner: Mlp,
    diff_ds_outer: Mlp,

    neg_t1: Mlp,
    neg_t2: Mlp,
    neg_center: Mlp,
    neg_alpha: Mlp,

    /// Reset forward-only tapes for inference embeds, each tagged with the
    /// thread that returned it last (DESIGN.md §8). An embed checks one
    /// out and puts it back reset, so the pool holds at most as many
    /// tapes as embeds ever ran at once, and their buffer pools carry
    /// over between queries. Derived state: not saved.
    infer_tapes: Mutex<Vec<(ThreadId, Tape)>>,
    /// The model's own batch executor (DESIGN.md §15): owns the worker
    /// pool (0 threads = auto via [`halk_par::auto_threads`]), the
    /// compiled-plan cache, the scoring-cache layer and the kept training
    /// shards. Derived state: not saved, rebuilt after load.
    pub(crate) exec: Executor,
}

/// How [`HalkModel::with_layout`] fills the parameters it registers.
enum Init<'g> {
    /// Seeded draws from `cfg.seed`, then a seeded random grouping of the
    /// graph: a fresh model.
    Seeded(&'g Graph),
    /// Zeroed tensors and no RNG draw, for a decoded store that replaces
    /// every value, with the decoded grouping.
    Zeroed(Grouping),
}

impl HalkModel {
    /// Builds a freshly initialized model for a training graph.
    pub fn new(train_graph: &Graph, cfg: HalkConfig) -> Self {
        let (n_entities, n_relations) = (train_graph.n_entities(), train_graph.n_relations());
        Self::with_layout(cfg, n_entities, n_relations, Init::Seeded(train_graph))
    }

    /// The one parameter layout: every tensor in registration order with
    /// its shape, so [`HalkModel::new`] and [`HalkModel::from_parts`]
    /// cannot drift apart.
    fn with_layout(cfg: HalkConfig, n_entities: usize, n_relations: usize, init: Init) -> Self {
        let mut rng = matches!(init, Init::Seeded(_)).then(|| StdRng::seed_from_u64(cfg.seed));
        let mut store = ParamStore::new();
        let (d, h, layers) = (cfg.dim, cfg.hidden, cfg.mlp_layers);
        let table = |store: &mut ParamStore, rng: &mut Option<StdRng>, rows, lo, hi| {
            store.add(match rng {
                Some(rng) => halk_nn::init::uniform(rows, d, lo, hi, rng),
                None => Tensor::zeros(rows, d),
            })
        };
        let mlp = |store: &mut ParamStore, rng: &mut Option<StdRng>, in_dim| match rng {
            Some(rng) => Mlp::new(store, in_dim, h, d, layers, Act::Relu, rng),
            None => Mlp::zeroed(store, in_dim, h, d, layers, Act::Relu),
        };
        let rng = &mut rng;

        let ent_center = table(&mut store, rng, n_entities, 0.0, std::f32::consts::TAU);
        let rel_center = table(&mut store, rng, n_relations, -0.5, 0.5);
        let rel_len = table(&mut store, rng, n_relations, 0.0, 0.5);

        // Operator-network inputs are periodic (cos, sin) features of the
        // start/end points — 4d wide — except HaLk-V3, which reproduces
        // NewLook's independent center (2d trig) / length (d raw) inputs.
        let (proj_c_in, proj_a_in) = if cfg.ablation == Ablation::V3 {
            (2 * d, d)
        } else {
            (4 * d, 4 * d)
        };
        let proj_center = mlp(&mut store, rng, proj_c_in);
        let proj_alpha = mlp(&mut store, rng, proj_a_in);

        let inter_att = mlp(&mut store, rng, 4 * d);
        let inter_ds_inner = mlp(&mut store, rng, 4 * d);
        let inter_ds_outer = mlp(&mut store, rng, d);

        let diff_att = mlp(&mut store, rng, 4 * d);
        let diff_kappa_first = table(&mut store, rng, 1, 0.5, 1.5);
        let diff_kappa_rest = table(&mut store, rng, 1, -0.5, 0.5);
        let diff_ds_inner = mlp(&mut store, rng, 2 * d);
        let diff_ds_outer = mlp(&mut store, rng, d);

        let neg_t1 = mlp(&mut store, rng, 2 * d);
        let neg_t2 = mlp(&mut store, rng, d);
        let neg_center = mlp(&mut store, rng, 2 * d);
        let neg_alpha = mlp(&mut store, rng, 2 * d);

        // Zero final layers: the residual corrections start as exactly the
        // zero function (gradients still flow through the earlier layers),
        // so step 0 is pure rotation / pure complement.
        for net in [&proj_center, &proj_alpha, &neg_center, &neg_alpha] {
            net.scale_last_layer(&mut store, 0.0);
        }

        let grouping = match init {
            Init::Seeded(graph) => {
                let rng = rng.as_mut().expect("a seeded layout has an RNG");
                Grouping::random(graph, cfg.n_groups, rng)
            }
            Init::Zeroed(grouping) => grouping,
        };

        Self {
            cfg,
            store,
            grouping,
            n_entities,
            n_relations,
            ent_center,
            rel_center,
            rel_len,
            proj_center,
            proj_alpha,
            inter_att,
            inter_ds_inner,
            inter_ds_outer,
            diff_att,
            diff_kappa_first,
            diff_kappa_rest,
            diff_ds_inner,
            diff_ds_outer,
            neg_t1,
            neg_t2,
            neg_center,
            neg_alpha,
            infer_tapes: Mutex::new(Vec::new()),
            exec: Executor::new(ExecConfig::model()),
        }
    }

    /// Sets the worker-thread count for training and sharded scoring
    /// (0 = auto). Purely a scheduling knob: results are bit-identical at
    /// any setting.
    pub fn set_threads(&mut self, threads: usize) {
        self.exec.set_threads(threads);
    }

    /// The model's batch executor: skeleton grouping, plan cache, scoring
    /// caches and the pool, shared by training and scoring (DESIGN.md §15).
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// The fork-join pool this model schedules on. The label makes the
    /// model's batch/scoring work distinguishable in pool-stats metrics
    /// (`halk_pool_*_model_batch`).
    pub fn pool(&self) -> Pool {
        self.exec.pool()
    }

    /// Number of entities this model embeds.
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// Number of relations this model embeds.
    pub fn n_relations(&self) -> usize {
        self.n_relations
    }

    /// The node grouping (needed by the loss's group penalty).
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// The hyper-parameter configuration the model was built with.
    pub fn config(&self) -> &HalkConfig {
        &self.cfg
    }

    /// The underlying parameter store (values + optimizer state) — read
    /// access for snapshot encoding.
    pub fn param_store(&self) -> &ParamStore {
        &self.store
    }

    // -------------------------------------------------------------- plans

    /// The model's compiled-plan cache: one [`PlanShape`] per structure
    /// skeleton, compiled on first sight and shared afterwards (owned by
    /// the model's [`Executor`]).
    pub fn plan_cache(&self) -> &PlanCache {
        self.exec.plan_cache()
    }

    /// Binds one grounded query against a compiled shape: extracts the
    /// anchor/relation table and precomputes the per-slot group masks
    /// (§II-A) that the old recursive `group_mask` recomputed per call.
    pub fn bind(&self, shape: &PlanShape, query: &Query) -> (PlanBindings, PlanMasks) {
        let bindings = PlanBindings::of(query);
        let masks = PlanMasks::compute(shape, &bindings, &self.grouping);
        (bindings, masks)
    }

    // ------------------------------------------------------------ embedding

    /// Embeds a batch of same-shape queries by executing the compiled plan
    /// slot by slot, returning one `B×d` arc embedding per DNF branch root.
    /// DNF and group masks were already resolved at compile/bind time;
    /// shared subtrees embed once per batch instead of once per branch.
    ///
    /// # Panics
    /// If the batch is empty or a binding table does not fit `shape`.
    pub fn embed_plan(
        &self,
        tape: &mut Tape,
        shape: &PlanShape,
        bindings: &[PlanBindings],
        masks: &[PlanMasks],
    ) -> Vec<ArcVar> {
        assert!(!bindings.is_empty(), "empty batch");
        assert_eq!(bindings.len(), masks.len());
        let b = bindings.len();
        let d = self.cfg.dim;
        let mut slots: Vec<ArcVar> = Vec::with_capacity(shape.n_slots());
        for (si, op) in shape.ops().iter().enumerate() {
            let arc = match op {
                PlanOp::Anchor { arg } => {
                    let ids: Vec<u32> = bindings
                        .iter()
                        .map(|bi| bi.anchors[*arg as usize].0)
                        .collect();
                    let center = tape.gather(&self.store, self.ent_center, &ids);
                    // An entity is an arc of length zero (§II-A).
                    let len = tape.constant(b, d, 0.0);
                    ArcVar { center, len }
                }
                PlanOp::Projection { rel, input } => {
                    let rels: Vec<u32> =
                        bindings.iter().map(|bi| bi.rels[*rel as usize].0).collect();
                    self.op_projection(tape, slots[*input as usize], &rels)
                }
                PlanOp::Intersection { inputs } => {
                    let arcs: Vec<ArcVar> = inputs.iter().map(|&i| slots[i as usize]).collect();
                    // Group-similarity weights z_i (Eq. 10), one scalar per
                    // (query, branch), broadcast across dimensions; masks
                    // come precomputed from bind time.
                    let z: Vec<Tensor> = inputs
                        .iter()
                        .map(|&i| {
                            let mut t = Tensor::zeros(b, d);
                            for (row, m) in masks.iter().enumerate() {
                                let z = Grouping::similarity(m.slot[i as usize], m.slot[si]);
                                t.row_mut(row).iter_mut().for_each(|x| *x = z);
                            }
                            t
                        })
                        .collect();
                    self.op_intersection(tape, &arcs, &z)
                }
                PlanOp::Difference { inputs } => {
                    let arcs: Vec<ArcVar> = inputs.iter().map(|&i| slots[i as usize]).collect();
                    self.op_difference(tape, &arcs)
                }
                PlanOp::Negation { input } => self.op_negation(tape, slots[*input as usize]),
            };
            slots.push(arc);
        }
        shape.roots().iter().map(|&r| slots[r as usize]).collect()
    }

    // ------------------------------------------------------------ operators

    /// Projection operator ℙ (Eq. 2–3).
    pub fn op_projection(&self, tape: &mut Tape, input: ArcVar, rels: &[u32]) -> ArcVar {
        let rho = self.cfg.rho;
        let r_c = tape.gather(&self.store, self.rel_center, rels);
        let r_l = tape.gather(&self.store, self.rel_len, rels);
        // Approximate arc by rotation: Ã_c = A_c + A_{r,c}; Ã_l = A_l + A_{r,l}.
        let tilde_c = tape.add(input.center, r_c);
        let tilde_l = tape.add(input.len, r_l);
        let tilde = ArcVar {
            center: tilde_c,
            len: tilde_l,
        };
        let (center_in, alpha_in) = if self.cfg.ablation == Ablation::V3 {
            // NewLook-style independence: center from the center alone
            // (periodic features), length from the length alone.
            let cc = tape.cos(tilde_c);
            let sc = tape.sin(tilde_c);
            let center_in = tape.concat_cols(&[cc, sc]);
            let alpha = tilde.span_angle(tape, rho);
            (center_in, alpha)
        } else {
            let cat = tilde.start_end_features(tape, rho);
            (cat, cat)
        };
        // The networks "adjust the start and end points" (§III-B): bounded
        // residuals on top of the rotation seed, so the geometric regularity
        // of the rotation paradigm is preserved and the MLPs learn the
        // correction. π·tanh is the same range control as g (Eq. 3). With
        // the V3 ablation (NewLook-style projection) center and length are
        // instead learned *absolutely and independently*, which is exactly
        // the independence Table V shows to be inferior.
        let raw_c = self.proj_center.forward(tape, &self.store, center_in);
        let raw_a = self.proj_alpha.forward(tape, &self.store, alpha_in);
        if self.cfg.ablation == Ablation::V3 {
            let center = g_squash(tape, raw_c, self.cfg.lambda);
            let alpha = g_squash(tape, raw_a, self.cfg.lambda);
            let len = tape.scale(alpha, rho);
            return ArcVar { center, len };
        }
        let corr_scaled = tape.scale(raw_c, self.cfg.lambda);
        let corr_t = tape.tanh(corr_scaled);
        let corr = tape.scale(corr_t, std::f32::consts::PI);
        let center = tape.add(tilde_c, corr);
        // Length: rotation seed Ã_α = (A_{h,l} + A_{r,l})/ρ plus a bounded
        // correction, clamped to the legal arc-angle range.
        let tilde_alpha = tilde.span_angle(tape, rho);
        let corr_a_scaled = tape.scale(raw_a, self.cfg.lambda);
        let corr_a_t = tape.tanh(corr_a_scaled);
        let corr_a = tape.scale(corr_a_t, std::f32::consts::PI);
        let alpha_raw = tape.add(tilde_alpha, corr_a);
        let alpha = clamp(tape, alpha_raw, 0.0, std::f32::consts::TAU);
        let len = tape.scale(alpha, rho);
        ArcVar { center, len }
    }

    /// Intersection operator 𝕀 (Eq. 10–12).
    pub fn op_intersection(&self, tape: &mut Tape, arcs: &[ArcVar], z: &[Tensor]) -> ArcVar {
        assert!(arcs.len() >= 2, "intersection needs >= 2 inputs");
        assert_eq!(arcs.len(), z.len());
        let rho = self.cfg.rho;

        // Attention logits z_i ⊙ MLP(A_S ‖ A_E), softmaxed across inputs.
        let logits: Vec<Var> = arcs
            .iter()
            .zip(z)
            .map(|(a, zi)| {
                let cat = a.start_end_features(tape, rho);
                let m = self.inter_att.forward(tape, &self.store, cat);
                let zv = tape.input(zi.clone());
                tape.mul(zv, m)
            })
            .collect();
        let center = self.semantic_average_center(tape, arcs, &logits);

        // Arclengths: min over inputs × sigmoid(DeepSets) (Eq. 11–12).
        let alphas: Vec<Var> = arcs.iter().map(|a| a.span_angle(tape, rho)).collect();
        let mut min_alpha = alphas[0];
        for &a in &alphas[1..] {
            min_alpha = tape.min(min_alpha, a);
        }
        let inner: Vec<Var> = arcs
            .iter()
            .map(|a| {
                let cat = a.start_end_features(tape, rho);
                self.inter_ds_inner.forward(tape, &self.store, cat)
            })
            .collect();
        let mean = self.mean_vars(tape, &inner);
        let outer = self.inter_ds_outer.forward(tape, &self.store, mean);
        let factor = tape.sigmoid(outer);
        let alpha = tape.mul(min_alpha, factor);
        let len = tape.scale(alpha, rho);
        ArcVar { center, len }
    }

    /// Difference operator 𝔻 (Eq. 4–9). `arcs[0]` is the minuend.
    pub fn op_difference(&self, tape: &mut Tape, arcs: &[ArcVar]) -> ArcVar {
        assert!(arcs.len() >= 2, "difference needs >= 2 inputs");
        let rho = self.cfg.rho;

        // Attention with hard-coded asymmetry: κ_first for the minuend,
        // κ_rest for every subtrahend (order-invariant among them, Eq. 7).
        let logits: Vec<Var> = arcs
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let cat = a.start_end_features(tape, rho);
                let m = self.diff_att.forward(tape, &self.store, cat);
                let kappa = if i == 0 {
                    self.diff_kappa_first
                } else {
                    self.diff_kappa_rest
                };
                let kv = tape.param(&self.store, kappa);
                tape.mul_row(m, kv)
            })
            .collect();
        let center = self.semantic_average_center(tape, arcs, &logits);

        // Arclength with cardinality constraint (Eq. 8–9): chord-measured
        // overlaps between the minuend and each subtrahend feed a DeepSets
        // network whose sigmoid scales A_{1,l} down.
        let first = arcs[0];
        let inner: Vec<Var> = arcs[1..]
            .iter()
            .map(|a| {
                let delta_c = if self.cfg.ablation == Ablation::V1 {
                    // NewLook-style raw-value overlap: periodicity-unsafe.
                    tape.sub(first.center, a.center)
                } else {
                    // δ_c = 2ρ·sin((A_{1,c} − A_{j,c})/2), signed chord.
                    let diff = tape.sub(first.center, a.center);
                    let half = tape.scale(diff, 0.5);
                    let s = tape.sin(half);
                    tape.scale(s, 2.0 * rho)
                };
                let delta_l = tape.sub(first.len, a.len);
                let cat = tape.concat_cols(&[delta_c, delta_l]);
                self.diff_ds_inner.forward(tape, &self.store, cat)
            })
            .collect();
        let mean = self.mean_vars(tape, &inner);
        let outer = self.diff_ds_outer.forward(tape, &self.store, mean);
        let factor = tape.sigmoid(outer);
        let len = if self.cfg.ablation == Ablation::V1 {
            // No cardinality constraint: free length in [0, 2πρ].
            tape.scale(factor, std::f32::consts::TAU * rho)
        } else {
            // A_l = A_{1,l} · σ(DeepSets(…)) ⊆ the minuend (Eq. 8).
            tape.mul(first.len, factor)
        };
        ArcVar { center, len }
    }

    /// Negation operator ℕ (Eq. 13–14).
    pub fn op_negation(&self, tape: &mut Tape, input: ArcVar) -> ArcVar {
        let rho = self.cfg.rho;
        // Closed-form complement seed: center + π (mod 2π is implicit in the
        // chord-based distances), length 2πρ − A_l.
        let tilde_c = tape.add_scalar(input.center, std::f32::consts::PI);
        let neg_l = tape.neg(input.len);
        let tilde_l = tape.add_scalar(neg_l, std::f32::consts::TAU * rho);
        if self.cfg.ablation == Ablation::V2 {
            // Linear-transformation negation (the assumption the paper's full
            // model removes).
            return ArcVar {
                center: tilde_c,
                len: tilde_l,
            };
        }
        let tilde_alpha = tape.scale(tilde_l, 1.0 / rho);
        let cc = tape.cos(tilde_c);
        let sc = tape.sin(tilde_c);
        let t1_in = tape.concat_cols(&[cc, sc]);
        let t1 = self.neg_t1.forward(tape, &self.store, t1_in);
        let t2 = self.neg_t2.forward(tape, &self.store, tilde_alpha);
        let cat = tape.concat_cols(&[t1, t2]);
        // Center: complement seed + bounded residual (same rationale as the
        // projection operator — the network corrects the linear complement
        // and the cascading error of earlier operators, §III-E).
        let raw_c = self.neg_center.forward(tape, &self.store, cat);
        let corr_scaled = tape.scale(raw_c, self.cfg.lambda);
        let corr_t = tape.tanh(corr_scaled);
        let corr = tape.scale(corr_t, std::f32::consts::PI);
        let center = tape.add(tilde_c, corr);
        let raw_a = self.neg_alpha.forward(tape, &self.store, cat);
        let corr_a_scaled = tape.scale(raw_a, self.cfg.lambda);
        let corr_a_t = tape.tanh(corr_a_scaled);
        let corr_a = tape.scale(corr_a_t, std::f32::consts::PI);
        let alpha_raw = tape.add(tilde_alpha, corr_a);
        let alpha = clamp(tape, alpha_raw, 0.0, std::f32::consts::TAU);
        let len = tape.scale(alpha, rho);
        ArcVar { center, len }
    }

    /// Semantic-average centers (Eq. 4–6): softmax the per-input logits,
    /// average the unit-circle coordinates, restore the angle with `atan2`
    /// (the `Reg`-regularized arctangent).
    fn semantic_average_center(&self, tape: &mut Tape, arcs: &[ArcVar], logits: &[Var]) -> Var {
        let rho = self.cfg.rho;
        // Numerically stable softmax: subtract the elementwise max of the
        // logits before exponentiating.
        let mut max_logit = logits[0];
        for &l in &logits[1..] {
            max_logit = tape.max(max_logit, l);
        }
        let exps: Vec<Var> = logits
            .iter()
            .map(|&l| {
                let shifted = tape.sub(l, max_logit);
                tape.exp(shifted)
            })
            .collect();
        let mut denom = exps[0];
        for &e in &exps[1..] {
            denom = tape.add(denom, e);
        }
        let mut x_sa: Option<Var> = None;
        let mut y_sa: Option<Var> = None;
        for (a, &e) in arcs.iter().zip(&exps) {
            let w = tape.div(e, denom);
            let cos = tape.cos(a.center);
            let sin = tape.sin(a.center);
            let x = tape.scale(cos, rho);
            let y = tape.scale(sin, rho);
            let wx = tape.mul(w, x);
            let wy = tape.mul(w, y);
            x_sa = Some(match x_sa {
                Some(acc) => tape.add(acc, wx),
                None => wx,
            });
            y_sa = Some(match y_sa {
                Some(acc) => tape.add(acc, wy),
                None => wy,
            });
        }
        tape.atan2(y_sa.expect("nonempty"), x_sa.expect("nonempty"))
    }

    fn mean_vars(&self, tape: &mut Tape, vars: &[Var]) -> Var {
        let mut acc = vars[0];
        for &v in &vars[1..] {
            acc = tape.add(acc, v);
        }
        tape.scale(acc, 1.0 / vars.len() as f32)
    }

    // ------------------------------------------------------------- distance

    /// Differentiable distance `d = ‖d_o‖₁ + η·‖d_i‖₁` (Eq. 15–16) between a
    /// batch of entity point angles (`B×d`) and a batch of arcs, as a `B×1`
    /// column.
    ///
    /// Eq. 16 is implemented literally: `d_o` is the smaller endpoint chord
    /// everywhere (no inside-zeroing), so a point arc reduces exactly to the
    /// RotatE chord distance and positives keep receiving gradient instead
    /// of hiding inside inflated arcs (see `halk_geometry::Arc::outside_dist`
    /// for the measured comparison of the two readings).
    pub fn distance_batch(&self, tape: &mut Tape, arc: ArcVar, points: Var) -> Var {
        let rho = self.cfg.rho;
        let eta = self.cfg.eta;
        let start = arc.start(tape, rho);
        let end = arc.end(tape, rho);

        let chord_s = chord(tape, points, start, rho);
        let chord_e = chord(tape, points, end, rho);
        let d_o_raw = tape.min(chord_s, chord_e);
        let d_o = match self.cfg.distance {
            DistanceMode::LiteralEq16 => d_o_raw,
            DistanceMode::CenterAnchored => {
                let chord_c = chord(tape, points, arc.center, rho);
                tape.min(d_o_raw, chord_c)
            }
            DistanceMode::ZeroedInside => {
                // ConE-style indicator on forward values (the torch.where
                // pattern): gradient flows through the active branch only.
                let pv = tape.value(points).clone();
                let cv = tape.value(arc.center).clone();
                let lv = tape.value(arc.len).clone();
                let mut m = Tensor::zeros(pv.rows, pv.cols);
                for i in 0..m.data.len() {
                    let a = Arc::new(cv.data[i], lv.data[i].max(0.0), rho);
                    m.data[i] = if a.contains_angle(pv.data[i]) {
                        0.0
                    } else {
                        1.0
                    };
                }
                let mask = tape.input(m);
                tape.mul(mask, d_o_raw)
            }
        };

        // Inside distance: chord to the center, capped by the half-arc chord
        // 2ρ·|sin((A_l/2ρ)/2)| (Eq. 16).
        let to_center = chord(tape, points, arc.center, rho);
        let half_angle = tape.scale(arc.len, 1.0 / (2.0 * rho));
        let quarter = tape.scale(half_angle, 0.5);
        let s = tape.sin(quarter);
        let abs = tape.abs(s);
        let cap = tape.scale(abs, 2.0 * rho);
        let d_i = tape.min(to_center, cap);

        let sum_o = tape.sum_cols(d_o);
        let sum_i = tape.sum_cols(d_i);
        let weighted_i = tape.scale(sum_i, eta);
        tape.add(sum_o, weighted_i)
    }

    /// Gathers entity point embeddings for a batch of entity ids.
    pub fn entity_points(&self, tape: &mut Tape, ids: &[u32]) -> Var {
        tape.gather(&self.store, self.ent_center, ids)
    }

    // ------------------------------------------------------------ inference

    /// Embeds a single query through its cached compiled plan and returns
    /// the resulting arc embeddings, one per conjunctive branch. The DNF
    /// rewrite happened once at compile time; shared subtrees embed once
    /// for all branches.
    pub fn embed_query(&self, query: &Query) -> Vec<Vec<Arc>> {
        let shape = self.exec.shape_for(query);
        self.embed_rows(&shape, &[query])
            .pop()
            .expect("one query in, one row out")
    }

    /// The inference embed behind [`HalkModel::embed_query`] and
    /// [`HalkModel::scorers_for_shape`]: binds every query against `shape`,
    /// runs one batched plan pass on a pooled forward-only tape and reads
    /// each row's DNF branch arcs off it.
    fn embed_rows(&self, shape: &PlanShape, queries: &[&Query]) -> Vec<Vec<Vec<Arc>>> {
        let (bindings, masks): (Vec<_>, Vec<_>) =
            queries.iter().map(|q| self.bind(shape, q)).unzip();
        let tapes = || self.infer_tapes.lock().expect("inference tape pool");
        // Prefer this thread's own tape: its buffers are still in this
        // core's cache and came from this thread's allocator arena. Any
        // pooled tape will do otherwise; a new one only if none is free.
        let me = std::thread::current().id();
        let mut tape = {
            let mut pool = tapes();
            match pool.iter().rposition(|(owner, _)| *owner == me) {
                Some(i) => pool.swap_remove(i).1,
                None => pool.pop().map_or_else(Tape::forward_only, |(_, t)| t),
            }
        };
        let roots = self.embed_plan(&mut tape, shape, &bindings, &masks);
        let rows = (0..queries.len())
            .map(|b| self.branch_arcs(&tape, &roots, b))
            .collect();
        tape.reset();
        tapes().push((me, tape));
        rows
    }

    /// Reads batch row `b` of the embedded plan roots off `tape` as one
    /// [`Arc`] per dim per DNF branch.
    fn branch_arcs(&self, tape: &Tape, roots: &[ArcVar], b: usize) -> Vec<Vec<Arc>> {
        roots
            .iter()
            .map(|arc| {
                let c = tape.value(arc.center);
                let l = tape.value(arc.len);
                (0..self.cfg.dim)
                    .map(|j| Arc::new(c.get(b, j), l.get(b, j).max(0.0), self.cfg.rho))
                    .collect()
            })
            .collect()
    }

    /// Compiles a query's DNF branches into the vectorized [`ArcScorer`].
    pub fn scorer_for(&self, query: &Query) -> ArcScorer {
        let branches = self.embed_query(query);
        ArcScorer::from_arcs(&branches, self.cfg.rho, self.cfg.eta, self.cfg.distance)
    }

    /// Precomputed half-angle trig of the current entity table. Valid until
    /// the next training step moves the table; reuse it across queries to
    /// amortize the per-entity trig (evaluation does this).
    pub fn entity_trig(&self) -> EntityTrig {
        EntityTrig::new(self.store.value(self.ent_center))
    }

    /// [`HalkModel::entity_trig`] at an explicit storage [`Precision`] —
    /// the serving-side memory-diet knob. `Precision::F32` is bit-identical
    /// to [`HalkModel::entity_trig`]; quantized modes preserve ranks, not
    /// bits (see [`Precision`] and DESIGN.md §14).
    pub fn entity_trig_with(&self, precision: Precision) -> EntityTrig {
        EntityTrig::with_precision(self.store.value(self.ent_center), precision)
    }

    /// Trig of a contiguous row range only — `O(len · dim)` instead of the
    /// full-table sweep. Snapshot decoding uses this to spot-check a stored
    /// trig table against the model it claims to belong to without paying
    /// the full rebuild the snapshot exists to avoid.
    pub fn entity_trig_rows_with(
        &self,
        rows: std::ops::Range<usize>,
        precision: Precision,
    ) -> EntityTrig {
        EntityTrig::from_rows_with(self.store.value(self.ent_center), rows, precision)
    }

    /// Distance from every entity to the query region — the online scoring
    /// path (lower = more likely an answer). Union queries take the minimum
    /// distance across DNF branches (§III-G). Runs on the vectorized
    /// [`ArcScorer`] kernel; [`HalkModel::score_all_scalar`] is the
    /// reference implementation it is tested against.
    pub fn score_all(&self, query: &Query) -> Vec<f32> {
        self.scorer_for(query).score_all(&self.entity_trig())
    }

    /// [`HalkModel::score_all`] against a caller-held [`EntityTrig`],
    /// writing into a reusable output buffer. Batch callers (pruning,
    /// evaluation sweeps) build the trig once per table state.
    pub fn score_all_with(&self, trig: &EntityTrig, query: &Query, out: &mut Vec<f32>) {
        self.scorer_for(query).score_into(trig, out);
    }

    /// Shard-local trig tables for the current entity table under a
    /// balanced `n_shards`-way arc partition, stored at `precision`. Like
    /// [`HalkModel::entity_trig`], valid until the next training step;
    /// build once per model snapshot and share across queries. Top-k
    /// callers sweep it with [`crate::shard::sharded_top_k_timed`].
    pub fn entity_shards_with(&self, n_shards: usize, precision: Precision) -> ShardedTrig {
        let table = self.store.value(self.ent_center);
        ShardedTrig::with_precision(table, &ArcShards::new(table.rows, n_shards), precision)
    }

    /// Compiles a *group* of same-skeleton queries into per-query
    /// [`ArcScorer`]s through one batched plan embedding — the serving-side
    /// twin of `train_batch`'s shard forward: every query must share
    /// `shape` (enforce via `Arc<PlanShape>` pointer identity upstream),
    /// so the whole group runs one tape pass with `B = queries.len()`
    /// rows. Row `b` of the batch is bit-identical to embedding query `b`
    /// alone ([`HalkModel::embed_query`]): every tape op is row-independent.
    pub fn scorers_for_shape(&self, shape: &PlanShape, queries: &[&Query]) -> Vec<ArcScorer> {
        if queries.is_empty() {
            return Vec::new();
        }
        self.embed_rows(shape, queries)
            .iter()
            .map(|branches| {
                ArcScorer::from_arcs(branches, self.cfg.rho, self.cfg.eta, self.cfg.distance)
            })
            .collect()
    }

    /// Scalar reference scoring: the straightforward entity-major loop over
    /// `halk_geometry::Arc` distances. Kept for equivalence tests and the
    /// perf-regression bench (`bench_hotpath`); use [`HalkModel::score_all`]
    /// everywhere else.
    pub fn score_all_scalar(&self, query: &Query) -> Vec<f32> {
        let branches = self.embed_query(query);
        let table = self.store.value(self.ent_center);
        let eta = self.cfg.eta;
        (0..self.n_entities)
            .map(|e| {
                let point = table.row(e);
                branches
                    .iter()
                    .map(|arcs| {
                        arcs.iter()
                            .zip(point)
                            .map(|(a, &theta)| match self.cfg.distance {
                                DistanceMode::LiteralEq16 => a.dist(theta, eta),
                                DistanceMode::ZeroedInside => {
                                    a.outside_dist_zeroed(theta) + eta * a.inside_dist(theta)
                                }
                                DistanceMode::CenterAnchored => {
                                    let d_o = a
                                        .outside_dist(theta)
                                        .min(halk_geometry::chord(theta, a.center, a.rho));
                                    d_o + eta * a.inside_dist(theta)
                                }
                            })
                            .sum::<f32>()
                    })
                    .fold(f32::INFINITY, f32::min)
            })
            .collect()
    }

    /// Drops the persistent per-shard training state (tapes with their
    /// buffer pools, staged gradient buffers). Only useful to tests
    /// comparing pooled vs unpooled execution; training behavior is
    /// identical either way.
    pub fn reset_train_tape(&mut self) {
        self.exec.train.lock().expect("train shards").clear();
    }

    /// Free buffers pooled across the persistent training tapes
    /// (diagnostics/tests: steady-state training must not grow it).
    pub fn pooled_tape_buffers(&self) -> usize {
        self.exec
            .train
            .lock()
            .expect("train shards")
            .iter()
            .map(|(t, _)| t.pooled_buffers())
            .sum()
    }

    /// Forward-only tapes pooled for inference embeds (diagnostics/tests:
    /// never more than the embeds that ever ran at once).
    pub fn inference_tapes(&self) -> usize {
        self.infer_tapes.lock().expect("inference tape pool").len()
    }

    /// The raw entity angle table (`n_entities × d`, row-major) — the input
    /// to [`EntityTrig::new`] and the subset scoring path.
    pub fn entity_table(&self) -> &Tensor {
        self.store.value(self.ent_center)
    }

    // ------------------------------------------------------------ save/load

    /// Saves the model to a directory: `config.json` (hyper-parameters) and
    /// `params.ckpt` (binary parameter + optimizer state), each written
    /// crash-safely with [`halk_nn::checkpoint::write_atomic`]. The architecture
    /// and grouping are reconstructed deterministically from the config's
    /// seed at load time, so only parameters need to be stored.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let cfg_json = serde_json::to_string_pretty(&self.cfg)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        halk_nn::checkpoint::write_atomic(&dir.join("config.json"), cfg_json.as_bytes())?;
        halk_nn::checkpoint::save_file(&self.store, &dir.join("params.ckpt"))
    }

    /// Loads a model previously written with [`HalkModel::save`]. The same
    /// training graph must be provided: entity/relation counts and the
    /// seeded grouping are derived from it.
    pub fn load(train_graph: &Graph, dir: &std::path::Path) -> std::io::Result<Self> {
        let cfg_json = std::fs::read_to_string(dir.join("config.json"))?;
        let cfg: HalkConfig = serde_json::from_str(&cfg_json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let mut model = HalkModel::new(train_graph, cfg);
        let store = halk_nn::checkpoint::load_file(&dir.join("params.ckpt"))?;
        if store.len() != model.store.len() || store.num_scalars() != model.store.num_scalars() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "checkpoint shape mismatch: {} tensors / {} scalars on disk, \
                     {} / {} expected for this graph+config",
                    store.len(),
                    store.num_scalars(),
                    model.store.len(),
                    model.store.num_scalars()
                ),
            ));
        }
        model.store = store;
        Ok(model)
    }

    /// Rebuilds a model around decoded snapshot state — the fast-boot
    /// constructor behind `halk serve --snapshot`. [`HalkModel::new`] pays
    /// `O(n_entities · d)` seeded RNG draws for the embedding tables plus a
    /// full triple sweep for the grouping; this constructor allocates the
    /// tables zeroed (the decoded `store` replaces every value anyway) and
    /// takes the decoded `grouping` as-is, so its cost is the small
    /// operator-MLP registrations. Both constructors register through one
    /// layout, so order and shapes match `HalkModel::new` on a graph of
    /// the same shape; [`ParamStore::same_shapes`] checks the decoded
    /// store against it.
    pub fn from_parts(
        cfg: HalkConfig,
        n_entities: usize,
        n_relations: usize,
        grouping: Grouping,
        store: ParamStore,
    ) -> std::io::Result<Self> {
        let mut model = Self::with_layout(cfg, n_entities, n_relations, Init::Zeroed(grouping));
        if !model.store.same_shapes(&store) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "snapshot parameter store does not fit this graph+config: \
                     {} tensors / {} scalars decoded, {} / {} expected",
                    store.len(),
                    store.num_scalars(),
                    model.store.len(),
                    model.store.num_scalars()
                ),
            ));
        }
        if model.grouping.n_entities() != n_entities {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "snapshot grouping covers {} entities, graph has {n_entities}",
                    model.grouping.n_entities()
                ),
            ));
        }
        model.store = store;
        Ok(model)
    }
}

/// The retained recursive AST interpreter for [`HalkModel`]. No production
/// path calls these; the plan-equivalence tests embed every structure both
/// ways and assert bitwise-identical arcs, scores and masks.
pub mod reference {
    use super::*;
    use halk_logic::to_dnf;

    impl HalkModel {
        /// Recursive group mask `h_U` of a query node (§II-A / Eq. 10) —
        /// the pre-plan form of [`PlanMasks`].
        pub fn group_mask_ast(&self, q: &Query) -> u64 {
            match q {
                Query::Anchor(e) => self.grouping.mask_of(*e),
                Query::Projection { rel, input } => {
                    self.grouping.propagate(self.group_mask_ast(input), *rel)
                }
                Query::Intersection(qs) => qs
                    .iter()
                    .map(|b| self.group_mask_ast(b))
                    .fold(self.grouping.full_mask(), |a, b| a & b),
                Query::Union(qs) => qs
                    .iter()
                    .map(|b| self.group_mask_ast(b))
                    .fold(0, |a, b| a | b),
                Query::Difference(qs) => self.group_mask_ast(&qs[0]),
                // A complement can land in any group.
                Query::Negation(_) => self.grouping.full_mask(),
            }
        }

        /// Recursive batched embedding of same-structure, union-free
        /// queries — the pre-plan form of [`HalkModel::embed_plan`].
        ///
        /// # Panics
        /// If the batch is empty, structurally heterogeneous, or contains
        /// a union (run [`to_dnf`] first — §III-F).
        pub fn embed_batch_ast(&self, tape: &mut Tape, queries: &[&Query]) -> ArcVar {
            assert!(!queries.is_empty(), "empty batch");
            match queries[0] {
                Query::Anchor(_) => {
                    let ids: Vec<u32> = queries
                        .iter()
                        .map(|q| match q {
                            Query::Anchor(e) => e.0,
                            other => panic!(
                                "heterogeneous batch: expected anchor, got {}",
                                other.render()
                            ),
                        })
                        .collect();
                    let center = tape.gather(&self.store, self.ent_center, &ids);
                    // An entity is an arc of length zero (§II-A).
                    let len = tape.constant(ids.len(), self.cfg.dim, 0.0);
                    ArcVar { center, len }
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
                            other => {
                                panic!("heterogeneous batch at projection: {}", other.render())
                            }
                        }
                    }
                    let arc = self.embed_batch_ast(tape, &inputs);
                    self.op_projection(tape, arc, &rels)
                }
                Query::Intersection(branches0) => {
                    let k = branches0.len();
                    let arcs = self.embed_branches_ast(tape, queries, k, |q| match q {
                        Query::Intersection(bs) => bs,
                        other => {
                            panic!("heterogeneous batch at intersection: {}", other.render())
                        }
                    });
                    // Group-similarity weights z_i (Eq. 10), one scalar per
                    // (query, branch), broadcast across dimensions.
                    let z = self.group_weights_ast(queries);
                    self.op_intersection(tape, &arcs, &z)
                }
                Query::Difference(branches0) => {
                    let k = branches0.len();
                    let arcs = self.embed_branches_ast(tape, queries, k, |q| match q {
                        Query::Difference(bs) => bs,
                        other => panic!("heterogeneous batch at difference: {}", other.render()),
                    });
                    self.op_difference(tape, &arcs)
                }
                Query::Negation(_) => {
                    let inners: Vec<&Query> = queries
                        .iter()
                        .map(|q| match q {
                            Query::Negation(inner) => &**inner,
                            other => panic!("heterogeneous batch at negation: {}", other.render()),
                        })
                        .collect();
                    let arc = self.embed_batch_ast(tape, &inners);
                    self.op_negation(tape, arc)
                }
                Query::Union(_) => {
                    panic!("unions must be removed by DNF before embedding (§III-F)")
                }
            }
        }

        fn embed_branches_ast<'q>(
            &self,
            tape: &mut Tape,
            queries: &[&'q Query],
            k: usize,
            get: impl Fn(&'q Query) -> &'q [Query],
        ) -> Vec<ArcVar> {
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
                    self.embed_batch_ast(tape, &branch)
                })
                .collect()
        }

        /// `z_i` similarity tensors: for each branch of an intersection
        /// batch, a `B×d` constant with the per-query group similarity.
        fn group_weights_ast(&self, queries: &[&Query]) -> Vec<Tensor> {
            let k = match queries[0] {
                Query::Intersection(bs) => bs.len(),
                _ => unreachable!("group_weights only called for intersections"),
            };
            let b = queries.len();
            let d = self.cfg.dim;
            (0..k)
                .map(|j| {
                    let mut t = Tensor::zeros(b, d);
                    for (i, q) in queries.iter().enumerate() {
                        let (branch_mask, target_mask) = match q {
                            Query::Intersection(bs) => {
                                (self.group_mask_ast(&bs[j]), self.group_mask_ast(q))
                            }
                            _ => unreachable!(),
                        };
                        let z = Grouping::similarity(branch_mask, target_mask);
                        t.row_mut(i).iter_mut().for_each(|x| *x = z);
                    }
                    t
                })
                .collect()
        }

        /// AST-walking [`HalkModel::embed_query`]: DNF per call, one tape
        /// reset per branch, recursive embedding of each branch.
        pub fn embed_query_ast(&self, query: &Query) -> Vec<Vec<Arc>> {
            let mut tape = Tape::forward_only();
            to_dnf(query)
                .iter()
                .map(|branch| {
                    tape.reset();
                    let arc = self.embed_batch_ast(&mut tape, &[branch]);
                    let c = tape.value(arc.center);
                    let l = tape.value(arc.len);
                    (0..self.cfg.dim)
                        .map(|j| Arc::new(c.data[j], l.data[j].max(0.0), self.cfg.rho))
                        .collect()
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halk_kg::{generate, EntityId, RelationId, SynthConfig};
    use halk_logic::{Sampler, Structure};

    fn setup() -> (Graph, HalkModel) {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(3));
        let model = HalkModel::new(&g, HalkConfig::tiny());
        (g, model)
    }

    #[test]
    fn embed_anchor_is_zero_length_arc() {
        let (_, model) = setup();
        let q = Query::Anchor(EntityId(5));
        let mut tape = Tape::new();
        let arc = model.embed_batch_ast(&mut tape, &[&q]);
        assert_eq!(tape.value(arc.len).data, vec![0.0; model.cfg.dim]);
        // Center equals the entity embedding.
        let c = tape.value(arc.center).clone();
        assert_eq!(c.data, model.entity_table().row(5));
    }

    #[test]
    fn all_training_structures_embed() {
        let (g, model) = setup();
        let sampler = Sampler::new(&g);
        let mut rng = StdRng::seed_from_u64(4);
        for s in Structure::training() {
            let q = sampler.sample(s, &mut rng).expect("groundable");
            let shape = model.plan_cache().shape_for(&q.query);
            let (bindings, masks) = model.bind(&shape, &q.query);
            let mut tape = Tape::new();
            let roots = model.embed_plan(
                &mut tape,
                &shape,
                std::slice::from_ref(&bindings),
                std::slice::from_ref(&masks),
            );
            assert_eq!(roots.len(), 1, "{s}: training structures are union-free");
            let arc = roots[0];
            let c = tape.value(arc.center);
            let l = tape.value(arc.len);
            assert_eq!((c.rows, c.cols), (1, model.cfg.dim), "{s}");
            assert!(
                c.data.iter().all(|v| v.is_finite()),
                "{s}: non-finite center"
            );
            assert!(
                l.data.iter().all(|v| v.is_finite() && *v >= -1e-4),
                "{s}: bad length"
            );
        }
    }

    #[test]
    fn batched_embedding_matches_individual() {
        let (g, model) = setup();
        let sampler = Sampler::new(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let qs = sampler.sample_many(Structure::P2, 3, &mut rng);
        let shape = model.plan_cache().shape_for(&qs[0].query);
        let bound: Vec<_> = qs.iter().map(|q| model.bind(&shape, &q.query)).collect();
        let bindings: Vec<_> = bound.iter().map(|(b, _)| b.clone()).collect();
        let masks: Vec<_> = bound.iter().map(|(_, m)| m.clone()).collect();
        let mut tape = Tape::new();
        let batch = model.embed_plan(&mut tape, &shape, &bindings, &masks)[0];
        let bc = tape.value(batch.center).clone();
        for (i, q) in qs.iter().enumerate() {
            let mut t2 = Tape::new();
            let single = model.embed_plan(
                &mut t2,
                &shape,
                std::slice::from_ref(&bindings[i]),
                std::slice::from_ref(&masks[i]),
            )[0];
            let sc = t2.value(single.center);
            for j in 0..model.cfg.dim {
                assert!(
                    (bc.get(i, j) - sc.get(0, j)).abs() < 1e-5,
                    "row {i} dim {j} differs ({})",
                    q.query.render()
                );
            }
        }
    }

    #[test]
    fn union_queries_require_dnf() {
        let (g, model) = setup();
        let q = Query::Union(vec![
            Query::atom(EntityId(0), RelationId(0)),
            Query::atom(EntityId(1), RelationId(0)),
        ]);
        // score_all handles unions internally via DNF.
        let scores = model.score_all(&q);
        assert_eq!(scores.len(), g.n_entities());
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    #[should_panic(expected = "DNF")]
    fn embed_batch_rejects_raw_unions() {
        let (_, model) = setup();
        let q = Query::Union(vec![
            Query::atom(EntityId(0), RelationId(0)),
            Query::atom(EntityId(1), RelationId(0)),
        ]);
        let mut tape = Tape::new();
        let _ = model.embed_batch_ast(&mut tape, &[&q]);
    }

    #[test]
    fn negation_v2_is_exact_complement() {
        let (g, mut_cfg) = (setup().0, HalkConfig::tiny().with_ablation(Ablation::V2));
        let model = HalkModel::new(&g, mut_cfg);
        let q = Query::atom(EntityId(2), RelationId(1));
        let qn = q.clone().negate();
        let arcs = model.embed_query(&q);
        let arcs_n = model.embed_query(&qn);
        for (a, an) in arcs[0].iter().zip(&arcs_n[0]) {
            // Lengths tile the circle; centers are antipodal.
            assert!((a.len + an.len - std::f32::consts::TAU).abs() < 1e-4);
            let delta = halk_geometry::angle::abs_delta(a.center, an.center);
            assert!((delta - std::f32::consts::PI).abs() < 1e-4);
        }
    }

    #[test]
    fn score_all_prefers_contained_entities() {
        // Build an artificial arc around entity 0's point: its own distance
        // must be <= that of a far-away synthetic point.
        let (g, model) = setup();
        let q = Query::atom(EntityId(0), RelationId(0));
        let scores = model.score_all(&q);
        assert_eq!(scores.len(), g.n_entities());
        assert!(scores.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn group_mask_projection_reaches_edge_groups() {
        let (g, model) = setup();
        let t = g.triples()[0];
        let q = Query::atom(t.h, t.r);
        let mask = model.group_mask_ast(&q);
        assert!(mask & model.grouping().mask_of(t.t) != 0);
        // The plan-time root mask agrees with the recursive walk.
        let shape = model.plan_cache().shape_for(&q);
        let (_, masks) = model.bind(&shape, &q);
        assert_eq!(masks.root, mask);
    }

    #[test]
    fn group_mask_negation_is_full() {
        let (g, model) = setup();
        let t = g.triples()[0];
        let q = Query::atom(t.h, t.r).negate();
        assert_eq!(model.group_mask_ast(&q), model.grouping().full_mask());
        let shape = model.plan_cache().shape_for(&q);
        let (_, masks) = model.bind(&shape, &q);
        assert_eq!(masks.root, model.grouping().full_mask());
    }

    #[test]
    fn distance_batch_matches_geometry_reference() {
        let (_, model) = setup();
        let mut tape = Tape::new();
        let d = model.cfg.dim;
        let c = tape.constant(1, d, 1.0);
        let l = tape.constant(1, d, 1.0);
        let arc = ArcVar { center: c, len: l };
        let p = tape.constant(1, d, 1.7);
        let dist = model.distance_batch(&mut tape, arc, p);
        let reference: f32 = (0..d)
            .map(|_| Arc::new(1.0, 1.0, model.cfg.rho).dist(1.7, model.cfg.eta))
            .sum();
        assert!((tape.value(dist).item() - reference).abs() < 1e-4);
    }

    #[test]
    fn distance_batch_zero_at_point_arc_match() {
        let (_, model) = setup();
        let mut tape = Tape::new();
        let d = model.cfg.dim;
        // A point arc at the entity's own angle: distance exactly 0.
        let c = tape.constant(1, d, 2.0);
        let l = tape.constant(1, d, 0.0);
        let arc = ArcVar { center: c, len: l };
        let p = tape.constant(1, d, 2.0);
        let dist = model.distance_batch(&mut tape, arc, p);
        assert!(tape.value(dist).item() < 1e-6);
    }

    #[test]
    fn save_load_roundtrip_preserves_scores() {
        let (g, model) = setup();
        // Nudge parameters off their init so the test is not vacuous.
        let sampler = Sampler::new(&g);
        let mut rng = StdRng::seed_from_u64(77);
        let gq = sampler.sample(Structure::P2, &mut rng).expect("2p");
        let dir = std::env::temp_dir().join("halk_model_ckpt_test");
        let before = model.score_all(&gq.query);
        model.save(&dir).expect("save");
        let restored = HalkModel::load(&g, &dir).expect("load");
        let after = restored.score_all(&gq.query);
        assert_eq!(before, after);
    }

    #[test]
    fn load_rejects_mismatched_graph() {
        let (_g, model) = setup();
        let dir = std::env::temp_dir().join("halk_model_ckpt_test2");
        model.save(&dir).expect("save");
        let other = generate(&SynthConfig::nell_like(), &mut StdRng::seed_from_u64(1));
        assert!(HalkModel::load(&other, &dir).is_err());
    }

    #[test]
    fn distance_batch_grows_with_separation() {
        let (_, model) = setup();
        let d = model.cfg.dim;
        let eval = |offset: f32| {
            let mut tape = Tape::new();
            let c = tape.constant(1, d, 1.0);
            let l = tape.constant(1, d, 0.5);
            let arc = ArcVar { center: c, len: l };
            let p = tape.constant(1, d, 1.0 + offset);
            let dist = model.distance_batch(&mut tape, arc, p);
            tape.value(dist).item()
        };
        assert!(eval(0.5) < eval(1.0));
        assert!(eval(1.0) < eval(2.0));
    }
}
