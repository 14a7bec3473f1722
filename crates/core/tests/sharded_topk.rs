//! Sharded streaming top-k bit-identity suite (PR 7). The arc-sharded
//! heap path (`entity_shards_with` + `sharded_top_k_timed`) is an
//! *optimization* of `score_all` + `top_k_indices`, not a semantic change;
//! this file pins that down the same way `hotpath_equivalence.rs` pins the
//! vectorized kernel:
//!
//! 1. real model, real queries: every shard count (1/2/4/8, including
//!    shards > slices so some shards are empty) and adversarial k
//!    (0, 1, mid, n, > n) reproduce the argsort reference bit-for-bit;
//! 2. batched plan embedding: `scorers_for_shape` over a same-skeleton
//!    group scores bit-identically to each query embedded alone;
//! 3. deadlines: an already-expired deadline scores zero rows; `never`
//!    scores all of them, also when both sit in one group;
//! 4. proptest: `ArcShards` is always a contiguous slice-aligned cover,
//!    and merge-k over *arbitrary* (not just contiguous) partitions of a
//!    tie-heavy score vector matches `top_k_indices` — the heap merge is
//!    partition- and order-independent because (score, index) keys are
//!    distinct;
//! 5. a group big enough to fork its shards across the pool matches the
//!    same reference (every other sweep here runs inline).
//!
//! Scores from `ArcScorer` are finite and non-negative (2ρ · a min-fold of
//! sums of absolute values), never `-0.0` or NaN, so `total_cmp` ordering
//! inside `TopK` coincides with the reference's `partial_cmp`-then-index
//! ordering. Synthetic vectors below stay in that domain on purpose.

use halk_core::{
    sharded_top_k_timed, top_k_indices, HalkConfig, HalkModel, Pool, Precision, ShardedTopK,
    ShardedTrig, TopK, SCORE_SLICE,
};
use halk_kg::{generate, SynthConfig};
use halk_logic::plan::PlanShape;
use halk_logic::{Sampler, Structure};
use halk_obs::{Clock, Deadline};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Operator coverage: projection chains, intersection, union, negation.
const STRUCTURES: [Structure; 4] = [Structure::P2, Structure::Pi, Structure::Up, Structure::In2];

struct Setup {
    model: HalkModel,
    queries: Vec<halk_logic::Query>,
    n: usize,
}

/// A 5000-entity graph: five 1024-row slices, so shard counts 2 and 4 give
/// real partitions and shard count 8 leaves empty shards (more shards than
/// slices). Untrained embeddings are the adversarial case — arcs land
/// anywhere, scores collide freely.
fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let cfg = SynthConfig {
            n_entities: 5000,
            ..SynthConfig::fb237_like()
        };
        let graph = generate(&cfg, &mut StdRng::seed_from_u64(21));
        let model = HalkModel::new(&graph, HalkConfig::tiny());
        let sampler = Sampler::new(&graph);
        let mut rng = StdRng::seed_from_u64(22);
        let queries = STRUCTURES
            .iter()
            .filter_map(|&s| sampler.sample(s, &mut rng))
            .map(|gq| gq.query)
            .collect::<Vec<_>>();
        assert!(!queries.is_empty(), "at least one structure must ground");
        let n = graph.n_entities();
        Setup { model, queries, n }
    })
}

/// One query's top-`k` through the sharded sweep.
fn one_query_top_k(
    pool: &Pool,
    sharded: &ShardedTrig,
    model: &HalkModel,
    query: &halk_logic::Query,
    k: usize,
    deadline: &Deadline,
) -> ShardedTopK {
    let scorers = [model.scorer_for(query)];
    sharded_top_k_timed(pool, sharded, &scorers, &[k], &[deadline], None)
        .0
        .pop()
        .expect("one query in, one result out")
}

/// The reference: full score vector, then the argsort-style selection.
fn reference(model: &HalkModel, query: &halk_logic::Query, k: usize) -> Vec<(u32, f32)> {
    let scores = model.score_all(query);
    top_k_indices(&scores, k)
        .into_iter()
        .map(|i| (i, scores[i as usize]))
        .collect()
}

#[test]
fn sharded_top_k_is_bit_identical_across_shard_counts_and_k() {
    let setup = setup();
    let never = Deadline::never();
    let pool = Pool::new(2);
    for query in &setup.queries {
        for k in [0, 1, 10, setup.n, setup.n + 37] {
            let want = reference(&setup.model, query, k);
            for shards in [1, 2, 4, 8] {
                let sharded = setup.model.entity_shards_with(shards, Precision::F32);
                assert_eq!(sharded.n_entities(), setup.n);
                let (got, rows) = one_query_top_k(&pool, &sharded, &setup.model, query, k, &never);
                assert_eq!(rows, setup.n, "never-deadline must score every row");
                assert_eq!(
                    got.len(),
                    want.len(),
                    "shards={shards} k={k}: result length"
                );
                for (i, (&(gi, gs), &(wi, ws))) in got.iter().zip(&want).enumerate() {
                    assert_eq!(gi, wi, "shards={shards} k={k} rank {i}: entity");
                    assert_eq!(
                        gs.to_bits(),
                        ws.to_bits(),
                        "shards={shards} k={k} rank {i}: score bits"
                    );
                }
            }
        }
    }
}

#[test]
fn batched_scorers_match_single_query_embedding() {
    let setup = setup();
    // A same-skeleton group: resample one structure several times.
    let graph = generate(
        &SynthConfig {
            n_entities: 5000,
            ..SynthConfig::fb237_like()
        },
        &mut StdRng::seed_from_u64(21),
    );
    let sampler = Sampler::new(&graph);
    let mut rng = StdRng::seed_from_u64(23);
    let group: Vec<_> = (0..6)
        .filter_map(|_| sampler.sample(Structure::P2, &mut rng))
        .map(|gq| gq.query)
        .collect();
    assert!(group.len() >= 2, "need a real batch");
    let shape = PlanShape::compile(&group[0]);
    let refs: Vec<&halk_logic::Query> = group.iter().collect();
    let scorers = setup.model.scorers_for_shape(&shape, &refs);
    assert_eq!(scorers.len(), group.len());
    let trig = setup.model.entity_trig();
    let mut batched = Vec::new();
    for (scorer, query) in scorers.iter().zip(&group) {
        scorer.score_into(&trig, &mut batched);
        assert_eq!(batched.len(), trig.n_entities());
        let single = setup.model.score_all(query);
        for (i, (&b, &s)) in batched.iter().zip(&single).enumerate() {
            assert_eq!(
                b.to_bits(),
                s.to_bits(),
                "entity {i}: batched embed must be bit-identical to single"
            );
        }
    }
}

#[test]
fn expired_deadline_scores_nothing_and_never_scores_everything() {
    let setup = setup();
    let query = &setup.queries[0];
    let pool = Pool::new(1);
    let sharded = setup.model.entity_shards_with(4, Precision::F32);
    let (clock, now) = Clock::mock();
    now.store(1_000, std::sync::atomic::Ordering::SeqCst);
    let expired = Deadline::at_ns(&clock, 500);
    let (hits, rows) = one_query_top_k(&pool, &sharded, &setup.model, query, 10, &expired);
    assert_eq!(rows, 0, "expired before the first slice: nothing scored");
    assert!(hits.is_empty());
    let never = Deadline::never();
    let (hits, rows) = one_query_top_k(&pool, &sharded, &setup.model, query, 10, &never);
    assert_eq!(rows, setup.n);
    assert_eq!(hits.len(), 10);
}

/// One group mixing an expired deadline with two live ones: the expired
/// query stops before its first slice, and the live ones are untouched by
/// it — bit-identical to their full-vector reference, each at its own k.
#[test]
fn mixed_deadline_group_drops_only_the_expired_query() {
    let setup = setup();
    let query = &setup.queries[0];
    let other = setup.queries.last().expect("non-empty");
    let scorers = [
        setup.model.scorer_for(query),
        setup.model.scorer_for(query),
        setup.model.scorer_for(other),
    ];
    let ks = [10, 10, 3];
    let (clock, now) = Clock::mock();
    now.store(1_000, std::sync::atomic::Ordering::SeqCst);
    let expired = Deadline::at_ns(&clock, 500);
    let never = Deadline::never();
    let deadlines = [&expired, &never, &never];
    let pool = Pool::new(2);
    for shards in [1, 4] {
        let sharded = setup.model.entity_shards_with(shards, Precision::F32);
        let (got, _) = sharded_top_k_timed(&pool, &sharded, &scorers, &ks, &deadlines, None);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (vec![], 0), "shards={shards}: expired query");
        for (q, live) in [(1, query), (2, other)] {
            let (hits, rows) = &got[q];
            assert_eq!(*rows, setup.n, "shards={shards} query {q}: rows scored");
            let want = reference(&setup.model, live, ks[q]);
            assert_eq!(hits.len(), want.len(), "shards={shards} query {q}");
            for (&(gi, gs), &(wi, ws)) in hits.iter().zip(&want) {
                assert_eq!(gi, wi, "shards={shards} query {q}: entity");
                assert_eq!(
                    gs.to_bits(),
                    ws.to_bits(),
                    "shards={shards} query {q}: bits"
                );
            }
        }
    }
}

/// A group of eight queries over 5 000 rows is past the fork threshold
/// (one-query sweeps over this table run inline), so on a two-thread pool
/// its shards really fan out — and the forked sweep is still bit-identical
/// to each query's full-vector reference.
#[test]
fn forked_group_sweep_is_bit_identical() {
    let setup = setup();
    let group: Vec<&halk_logic::Query> = setup.queries.iter().cycle().take(8).collect();
    let scorers: Vec<_> = group.iter().map(|q| setup.model.scorer_for(q)).collect();
    let ks: Vec<usize> = (0..group.len()).map(|q| 1 + 3 * q).collect();
    let never = Deadline::never();
    let deadlines = vec![&never; group.len()];
    let pool = Pool::new(2);
    let forked = halk_obs::metrics::counter("halk_shard_sweeps_forked_total");
    for shards in [1, 2, 4] {
        let sharded = setup.model.entity_shards_with(shards, Precision::F32);
        let before = forked.get();
        let (got, _) = sharded_top_k_timed(&pool, &sharded, &scorers, &ks, &deadlines, None);
        if shards > 1 {
            assert!(
                forked.get() > before,
                "shards={shards}: the sweep must fork"
            );
        }
        for (q, query) in group.iter().enumerate() {
            let (hits, rows) = &got[q];
            assert_eq!(*rows, setup.n, "shards={shards} query {q}: rows scored");
            let want = reference(&setup.model, query, ks[q]);
            assert_eq!(hits.len(), want.len(), "shards={shards} query {q}");
            for (&(gi, gs), &(wi, ws)) in hits.iter().zip(&want) {
                assert_eq!(gi, wi, "shards={shards} query {q}: entity");
                assert_eq!(
                    gs.to_bits(),
                    ws.to_bits(),
                    "shards={shards} query {q}: bits"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ArcShards` is a contiguous, slice-aligned, exact cover of the
    /// entity rows for any (n_entities, n_shards) — interior boundaries
    /// sit on `SCORE_SLICE` multiples, which is what keeps a sharded sweep
    /// bit-identical (including deadline truncation points) to the
    /// unsharded one.
    #[test]
    fn arc_shards_cover_is_contiguous_and_slice_aligned(
        n_entities in 0usize..20_000,
        n_shards in 1usize..16,
    ) {
        let parts = halk_core::ArcShards::new(n_entities, n_shards);
        prop_assert_eq!(parts.n_shards(), n_shards);
        prop_assert_eq!(parts.n_entities(), n_entities);
        let mut row = 0usize;
        for s in 0..n_shards {
            let r = parts.range(s);
            prop_assert_eq!(r.start, row, "shard {} must start where {} ended", s, s.wrapping_sub(1));
            prop_assert!(r.end >= r.start);
            if s + 1 < n_shards && r.end < n_entities {
                prop_assert_eq!(r.end % SCORE_SLICE, 0, "interior boundary off slice grid");
            }
            row = r.end;
        }
        prop_assert_eq!(row, n_entities, "shards must cover every row");
    }

    /// Merge-k over an *arbitrary* partition of a tie-heavy non-negative
    /// score vector reproduces `top_k_indices` exactly: each element is
    /// offered to the heap of `partition[i] % n_chunks`, the chunk heaps
    /// are absorbed in order, and the drained ranking must match. Scores
    /// are quantized to 1/8 steps so duplicates are common — the tie cases
    /// the index tiebreak exists for.
    #[test]
    fn merged_partition_heaps_match_argsort_reference(
        raw in proptest::collection::vec(0u32..48, 0..80),
        n_chunks in 1usize..6,
        k in 0usize..90,
    ) {
        let scores: Vec<f32> = raw.iter().map(|&v| v as f32 / 8.0).collect();
        let mut chunks: Vec<TopK> = (0..n_chunks).map(|_| TopK::new(k)).collect();
        for (i, &s) in scores.iter().enumerate() {
            chunks[i % n_chunks].offer(i as u32, s);
        }
        let mut merged = TopK::new(k);
        for c in &chunks {
            merged.absorb(c);
        }
        let got = merged.into_sorted();
        let want: Vec<(u32, f32)> = top_k_indices(&scores, k)
            .into_iter()
            .map(|i| (i, scores[i as usize]))
            .collect();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.0, w.0);
            prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
    }
}
