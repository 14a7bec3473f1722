//! Arc-sharded entity space: contiguous row-range shards of the entity
//! circle, each owning its own lane-blocked [`EntityTrig`] slice, scored
//! by a streaming bounded top-k per shard and merged by the coordinator.
//!
//! HaLk answers a query by sweeping *every* entity (Paper §IV), so the
//! naive hot path materializes an `n_entities`-long score vector per
//! query plus an `n_entities`-long index vector for the argsort. The
//! sharded path never materializes either: each shard streams
//! [`crate::scorer::SCORE_SLICE`]-row slices through a 4 KiB stack
//! scratch into a bounded [`TopK`] heap, and the coordinator merges the
//! per-shard heaps (merge-k). Per-worker memory is bounded by the shard's
//! trig table plus `k` heap entries — the prerequisite for the NUMA /
//! multi-process layouts on the roadmap.
//!
//! Bit-identity: shard boundaries are aligned to `SCORE_SLICE` rows, rows
//! are scored independently, and the `(score, index)` ranking is a strict
//! total order (see [`TopK`]), so the merged selection equals the
//! full-vector [`crate::top_k_indices`] reference bit-for-bit for every
//! shard count.

use crate::scorer::{ArcScorer, EntityTrig, Precision, TopK, SCORE_SLICE};
use halk_nn::Tensor;
use halk_obs::metrics;
use halk_obs::Deadline;
use halk_par::Pool;
use std::ops::Range;

/// A partition of `n_entities` contiguous rows into `n_shards` contiguous
/// arcs, balanced in whole [`SCORE_SLICE`] units (each shard gets
/// `total_slices / n` slices, the first `total_slices % n` shards one
/// more). Alignment keeps every shard's internal slice grid identical to
/// the unsharded sweep's, so deadline-truncation points coincide too.
#[derive(Debug, Clone)]
pub struct ArcShards {
    /// `bounds[s]..bounds[s + 1]` is shard `s`'s row range.
    bounds: Vec<usize>,
}

impl ArcShards {
    /// Partitions `n_entities` rows into `n_shards` slice-aligned arcs.
    /// With fewer slices than shards, trailing shards are empty.
    pub fn new(n_entities: usize, n_shards: usize) -> Self {
        let n_shards = n_shards.max(1);
        let total_slices = n_entities.div_ceil(SCORE_SLICE);
        let (base, rem) = (total_slices / n_shards, total_slices % n_shards);
        let mut bounds = Vec::with_capacity(n_shards + 1);
        bounds.push(0);
        let mut row = 0;
        for s in 0..n_shards {
            let slices = base + usize::from(s < rem);
            row = (row + slices * SCORE_SLICE).min(n_entities);
            bounds.push(row);
        }
        debug_assert_eq!(*bounds.last().unwrap(), n_entities);
        Self { bounds }
    }

    /// Number of shards (≥ 1; some may be empty).
    pub fn n_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total rows covered.
    pub fn n_entities(&self) -> usize {
        *self.bounds.last().unwrap()
    }

    /// Shard `s`'s row range.
    pub fn range(&self, s: usize) -> Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }
}

/// Shard-local trig tables: one lane-blocked [`EntityTrig`] per arc shard,
/// built once per model snapshot and shared read-only by every query. Entry `i`
/// of shard `s` is table row `start(s) + i`, bit-identical to the same
/// row of a whole-table [`EntityTrig::new`].
pub struct ShardedTrig {
    shards: Vec<(usize, EntityTrig)>,
    n_entities: usize,
    dim: usize,
}

impl ShardedTrig {
    /// Precomputes per-shard trig for an angle table under `parts` at full
    /// precision.
    pub fn new(table: &Tensor, parts: &ArcShards) -> Self {
        Self::with_precision(table, parts, Precision::F32)
    }

    /// [`ShardedTrig::new`] at an explicit storage [`Precision`]: every
    /// shard stores its trig slice in the same quantized format, so the
    /// per-shard resident bytes shrink by the precision's width ratio.
    pub fn with_precision(table: &Tensor, parts: &ArcShards, precision: Precision) -> Self {
        assert_eq!(parts.n_entities(), table.rows, "shard/table row mismatch");
        // Table builds are the expensive cold-start event; the warm-start
        // test pins that a serving engine performs them at boot, never on
        // the request path.
        metrics::counter("halk_trig_builds_total").inc();
        let shards = (0..parts.n_shards())
            .map(|s| {
                let r = parts.range(s);
                (r.start, EntityTrig::from_rows_with(table, r, precision))
            })
            .collect();
        Self {
            shards,
            n_entities: table.rows,
            dim: table.cols,
        }
    }

    /// Builds the sharded tables by re-slicing an already-computed
    /// full-precision [`EntityTrig`] instead of paying the sin/cos sweep —
    /// the snapshot fast-boot path. [`EntityTrig::slice_rows`] guarantees
    /// each shard is bit-identical to [`ShardedTrig::with_precision`] on
    /// the angle table the full trig was built from, at every precision.
    pub fn from_table(full: &EntityTrig, parts: &ArcShards, precision: Precision) -> Self {
        assert_eq!(
            parts.n_entities(),
            full.n_entities(),
            "shard/table row mismatch"
        );
        metrics::counter("halk_trig_builds_total").inc();
        let shards = (0..parts.n_shards())
            .map(|s| {
                let r = parts.range(s);
                (r.start, full.slice_rows(r, precision))
            })
            .collect();
        Self {
            shards,
            n_entities: full.n_entities(),
            dim: full.dim(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The storage precision the shards were built at.
    pub fn precision(&self) -> Precision {
        self.shards
            .first()
            .map_or(Precision::F32, |(_, t)| t.precision())
    }

    /// Total bytes resident across all shard trig tables.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|(_, t)| t.resident_bytes()).sum()
    }

    /// Total rows covered.
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Shard `s` as `(trig, global_row0)`.
    pub fn shard(&self, s: usize) -> (&EntityTrig, usize) {
        let (start, ref trig) = self.shards[s];
        (trig, start)
    }
}

/// One query's merged result: the top-k `(entity, score)` pairs in
/// ascending rank order plus the number of rows actually scored (the
/// union of per-shard prefixes when a deadline fired; `n_entities` when
/// it did not).
pub type ShardedTopK = (Vec<(u32, f32)>, usize);

/// Scores a *group* of queries against every shard and merges per-shard
/// bounded heaps: query `q` gets the top `ks[q]` entities under scorer
/// `scorers[q]` and deadline `deadlines[q]`. Shards fan out across the
/// pool ([`Pool::par_shards`]); within a shard the sweep is slice-major
/// over the group so one hot trig slice serves every query before moving
/// on — the "one kernel pass per shard" of skeleton batching. Deadlines
/// are checked per query at every slice boundary (exact
/// [`ArcScorer::score_until`] semantics); an expired query stops scoring
/// on all shards while the rest of the group continues.
///
/// The merged selection is bit-identical to running each query alone on
/// one shard with the full-vector [`crate::top_k_indices`] reference.
pub fn sharded_top_k(
    pool: &Pool,
    sharded: &ShardedTrig,
    scorers: &[ArcScorer],
    ks: &[usize],
    deadlines: &[&Deadline],
) -> Vec<ShardedTopK> {
    sharded_top_k_tagged(pool, sharded, scorers, ks, deadlines, None)
}

/// Where a sharded sweep spent its wall time: the parallel per-shard
/// scoring region vs. the coordinator's heap merge. Feeds the per-phase
/// breakdown of serve's slow-query log (DESIGN.md §16).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepTiming {
    /// Wall microseconds of the `par_shards` scoring region.
    pub score_us: u64,
    /// Wall microseconds of the coordinator merge-k.
    pub merge_us: u64,
}

/// [`sharded_top_k`] with an optional trace tag: when tracing is enabled,
/// every shard's sweep opens a `shard_sweep` span whose detail carries the
/// shard index plus `tag` (serve passes the group's `req=...` ids), so a
/// request's hop chain extends into the per-shard workers (DESIGN.md §16).
/// Scoring is unaffected; with tracing off the extra cost is one relaxed
/// load per shard.
pub fn sharded_top_k_tagged(
    pool: &Pool,
    sharded: &ShardedTrig,
    scorers: &[ArcScorer],
    ks: &[usize],
    deadlines: &[&Deadline],
    tag: Option<&str>,
) -> Vec<ShardedTopK> {
    sharded_top_k_timed(pool, sharded, scorers, ks, deadlines, tag).0
}

/// [`sharded_top_k_tagged`] that also reports where the wall time went
/// (score sweep vs. coordinator merge). The timing is observational only —
/// results are bit-identical to the untimed path.
pub fn sharded_top_k_timed(
    pool: &Pool,
    sharded: &ShardedTrig,
    scorers: &[ArcScorer],
    ks: &[usize],
    deadlines: &[&Deadline],
    tag: Option<&str>,
) -> (Vec<ShardedTopK>, SweepTiming) {
    assert_eq!(scorers.len(), ks.len(), "one k per scorer");
    assert_eq!(scorers.len(), deadlines.len(), "one deadline per scorer");
    let nq = scorers.len();
    if nq == 0 {
        return (Vec::new(), SweepTiming::default());
    }

    // Each shard returns its local heaps plus per-query rows scored.
    let t0 = std::time::Instant::now();
    let per_shard = pool.par_shards(sharded.n_shards(), |s| {
        let _sweep = match tag {
            Some(t) if halk_obs::trace::enabled() => {
                halk_obs::trace::span_detail("shard_sweep", || format!("shard={s} {t}"))
            }
            _ => halk_obs::trace::span("shard_sweep"),
        };
        let (trig, row0) = sharded.shard(s);
        let n = trig.n_entities();
        let mut heaps: Vec<TopK> = ks.iter().map(|&k| TopK::new(k)).collect();
        let mut rows = vec![0usize; nq];
        let mut active: Vec<bool> = deadlines.iter().map(|d| !d.expired()).collect();
        let mut scratch = [0.0f32; SCORE_SLICE];
        let mut done = 0;
        while done < n && active.iter().any(|&a| a) {
            let take = SCORE_SLICE.min(n - done);
            for q in 0..nq {
                if !active[q] {
                    continue;
                }
                if deadlines[q].expired() {
                    active[q] = false;
                    continue;
                }
                let out = &mut scratch[..take];
                out.fill(f32::INFINITY); // score_slice min-folds into `out`
                scorers[q].score_slice(trig, done, out);
                for (j, &sc) in out.iter().enumerate() {
                    heaps[q].offer((row0 + done + j) as u32, sc);
                }
                rows[q] += take;
            }
            done += take;
        }
        metrics::histogram("halk_shard_rows_scored").record(rows.iter().sum::<usize>() as u64);
        (heaps, rows)
    });
    metrics::counter("halk_shard_sweeps_total").add(sharded.n_shards() as u64);
    let score_us = t0.elapsed().as_micros() as u64;

    // Coordinator merge-k: absorb every shard's heap for each query.
    // Order-independent — distinct indices make the ranking a strict
    // total order, so the k-smallest set of the union is unique.
    let t1 = std::time::Instant::now();
    let merged: Vec<ShardedTopK> = (0..nq)
        .map(|q| {
            let mut merged = TopK::new(ks[q]);
            let mut scored = 0;
            for (heaps, rows) in &per_shard {
                merged.absorb(&heaps[q]);
                scored += rows[q];
            }
            (merged.into_sorted(), scored)
        })
        .collect();
    let merge_us = t1.elapsed().as_micros() as u64;
    (merged, SweepTiming { score_us, merge_us })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_are_slice_aligned_and_cover_everything() {
        for (n, s) in [(0, 1), (1, 1), (5000, 4), (8192, 8), (1024, 8), (100, 3)] {
            let parts = ArcShards::new(n, s);
            assert_eq!(parts.n_shards(), s);
            assert_eq!(parts.n_entities(), n);
            let mut row = 0;
            for i in 0..s {
                let r = parts.range(i);
                assert_eq!(r.start, row, "contiguous");
                // Boundaries sit on the slice grid except where the final
                // partial slice clamps them to n_entities.
                assert!(
                    r.start.is_multiple_of(SCORE_SLICE) || r.start == n,
                    "start {} neither slice-aligned nor the clamped end {n}",
                    r.start
                );
                row = r.end;
            }
            assert_eq!(row, n);
        }
    }

    #[test]
    fn shards_balance_in_slice_units() {
        // 8 slices over 3 shards: 3/3/2 slices.
        let n = 8 * SCORE_SLICE;
        let parts = ArcShards::new(n, 3);
        assert_eq!(parts.range(0).len(), 3 * SCORE_SLICE);
        assert_eq!(parts.range(1).len(), 3 * SCORE_SLICE);
        assert_eq!(parts.range(2).len(), 2 * SCORE_SLICE);
    }

    #[test]
    fn more_shards_than_slices_leaves_trailing_empty() {
        let parts = ArcShards::new(SCORE_SLICE + 1, 4);
        assert_eq!(parts.range(0).len(), SCORE_SLICE);
        assert_eq!(parts.range(1).len(), 1);
        assert_eq!(parts.range(2).len(), 0);
        assert_eq!(parts.range(3).len(), 0);
    }
}
