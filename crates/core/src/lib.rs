//! HaLk — a holistic approach for answering logical queries on knowledge
//! graphs (Wu, Xu, Lin, Zhang — ICDE 2023), reproduced in Rust.
//!
//! This crate is the paper's primary contribution: entities embedded as
//! points on a circle, queries as arc segments, and **all five**
//! first-order-logic operators — projection, intersection, difference,
//! negation and union — supported in one end-to-end trainable framework
//! ([`model::HalkModel`]).
//!
//! The surrounding machinery is model-agnostic so the baselines plug into
//! the same harness: the [`qmodel::QueryModel`] trait, the Algorithm-1
//! [`train`] loop, the filtered-ranking [`eval`] protocol, and the
//! [`prune`] module that feeds top-k candidate sets to subgraph matchers
//! (§IV-D).
//!
//! ```
//! use halk_core::{HalkConfig, HalkModel};
//! use halk_core::train::{train_model, TrainConfig};
//! use halk_core::qmodel::QueryModel;
//! use halk_kg::{generate, SynthConfig};
//! use halk_logic::Structure;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let graph = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(1));
//! let mut model = HalkModel::new(&graph, HalkConfig::tiny());
//! train_model(&mut model, &graph, &[Structure::P1], &TrainConfig::tiny()).unwrap();
//! let scores = model.score_all(&halk_logic::Query::atom(
//!     graph.triples()[0].h,
//!     graph.triples()[0].r,
//! ));
//! assert_eq!(scores.len(), graph.n_entities());
//! ```

pub mod arcvar;
pub mod config;
pub mod eval;
pub mod exec;
pub mod loss;
pub mod model;
pub mod obs;
pub mod prune;
pub mod qmodel;
pub mod scorer;
pub mod shard;
pub mod train;

pub use config::{Ablation, DistanceMode, HalkConfig};
pub use eval::{evaluate_structure, evaluate_structure_exec, evaluate_table_pool, EvalCell};
pub use exec::{ExecConfig, Executor, TrainShard, DEFAULT_BATCH_CAP};
pub use halk_par::Pool;
pub use model::HalkModel;
pub use qmodel::{QueryModel, ScoreCache, TrainExample};
pub use scorer::{
    top_k_indices, ArcScorer, BoxScorer, EntityTrig, L1Scorer, Precision, TopK, LANES, SCORE_SLICE,
};
pub use shard::{sharded_top_k_timed, ArcShards, ShardedTopK, ShardedTrig, SweepTiming};
pub use train::{train_model, TrainConfig, TrainError, TrainStats};
