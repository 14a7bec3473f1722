//! Bitwise pin of the entity-lane scoring kernel.
//!
//! `EntityTrig` stores its trig in `[block][dim][lane]` blocks and the
//! sweep scores [`LANES`] entities at once. Each lane must still perform
//! the one-entity operation sequence in dim order, so every score is
//! compared *bitwise* against a test-local restatement of the row-major
//! kernel, across all distance modes and precisions, ragged table sizes,
//! and unaligned starts and lengths through every sweep entry point.

use halk_core::{
    top_k_indices, ArcScorer, DistanceMode, EntityTrig, Precision, TopK, LANES, SCORE_SLICE,
};
use halk_nn::Tensor;
use halk_obs::Deadline;
use proptest::prelude::*;

/// The row-major kernel restated: compile each branch's per-dim arc trig
/// as `ArcScorer::from_params` does, then run the per-entity dim loop over
/// the table's decoded trig.
fn reference(
    trig: &EntityTrig,
    branches: &[Vec<(f32, f32)>],
    rho: f32,
    eta: f32,
    mode: DistanceMode,
    e: usize,
) -> f32 {
    let d = trig.dim();
    if d == 0 {
        return f32::INFINITY; // the sweep leaves rows of a 0-dim table untouched
    }
    let half_trig = |a: f32| ((a * 0.5).sin(), (a * 0.5).cos());
    let mut best = f32::INFINITY;
    for br in branches {
        let (mut acc_o, mut acc_i) = (0.0f32, 0.0f32);
        for (j, &(center, half)) in br.iter().enumerate() {
            let (sh, ch) = trig.decoded(e * d + j);
            let ((sin_s, cos_s), (sin_e, cos_e)) =
                (half_trig(center - half), half_trig(center + half));
            let (sin_c, cos_c) = half_trig(center);
            let s_s = sh * cos_s - ch * sin_s;
            let s_e = sh * cos_e - ch * sin_e;
            let s_c = sh * cos_c - ch * sin_c;
            let endpoints = s_s.abs().min(s_e.abs());
            let thr = ((half + 1e-6).min(std::f32::consts::PI) * 0.5).sin();
            acc_o += match mode {
                DistanceMode::CenterAnchored => endpoints.min(s_c.abs()),
                DistanceMode::ZeroedInside => endpoints * f32::from(s_c.abs() > thr),
                DistanceMode::LiteralEq16 => endpoints,
            };
            acc_i += s_c.abs().min((half * 0.5).sin().abs());
        }
        best = best.min(acc_o + eta * acc_i);
    }
    2.0 * rho * best
}

const MODES: [DistanceMode; 3] = [
    DistanceMode::LiteralEq16,
    DistanceMode::CenterAnchored,
    DistanceMode::ZeroedInside,
];
const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::I16, Precision::I8];

/// A deterministic angle stream in `[-7, 7)` (unnormalized on purpose).
fn angles(seed: u64, count: usize) -> Vec<f32> {
    let mut x = seed | 1;
    (0..count)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 40) as f32 / (1u64 << 24) as f32 * 14.0 - 7.0
        })
        .collect()
}

/// `n × d` entity table plus `n_branches` branches of `(center, half)`.
fn fixture(seed: u64, n: usize, d: usize, n_branches: usize) -> (Tensor, Vec<Vec<(f32, f32)>>) {
    let table = Tensor::from_vec(n, d, angles(seed, n * d));
    let raw = angles(seed.wrapping_add(1), n_branches * d * 2);
    let branches = raw
        .chunks(2 * d.max(1))
        .take(n_branches)
        .map(|c| c.chunks(2).map(|p| (p[0], p[1].abs() * 0.25)).collect())
        .collect();
    (table, branches)
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_table_matches_reference(
    table: &Tensor,
    branches: &[Vec<(f32, f32)>],
    mode: DistanceMode,
    precision: Precision,
) -> Vec<f32> {
    let (rho, eta) = (1.3, 0.07);
    let trig = EntityTrig::with_precision(table, precision);
    let scorer = ArcScorer::from_params(branches, rho, eta, mode);
    let full = scorer.score_all(&trig);
    for (e, &got) in full.iter().enumerate() {
        let want = reference(&trig, branches, rho, eta, mode, e);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{mode:?} {precision} entity {e}: {got} vs {want}"
        );
    }
    // The portable compile of the lane body agrees bitwise with whatever
    // `score_slice` dispatched to (the AVX2 compile on AVX2 hosts).
    let mut portable = vec![f32::INFINITY; table.rows];
    scorer.score_slice_portable(&trig, 0, &mut portable);
    assert!(
        same_bits(&portable, &full),
        "{mode:?} {precision}: portable vs dispatched body"
    );
    full
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn lane_sweeps_match_row_reference_bitwise(
        seed in any::<u64>(),
        n in 1usize..45,
        d in prop_oneof![Just(0usize), Just(1), Just(7), Just(32), Just(33)],
        n_branches in 0usize..5,
        mode in 0usize..3,
        precision in 0usize..3,
        start in any::<u64>(),
        len in any::<u64>(),
        slice_rows in 1usize..18,
    ) {
        // A query with no branches compiles to dim 0, so it scores a 0-dim table.
        let d = if n_branches == 0 { 0 } else { d };
        let (mode, precision) = (MODES[mode], PRECISIONS[precision]);
        let (table, branches) = fixture(seed, n, d, n_branches);
        let full = assert_table_matches_reference(&table, &branches, mode, precision);
        let trig = EntityTrig::with_precision(&table, precision);
        let scorer = ArcScorer::from_params(&branches, 1.3, 0.07, mode);

        // Unaligned [row0, row0 + len) through score_slice (min-folding into
        // a prefilled buffer) and score_until at small slice sizes.
        let row0 = (start % n as u64) as usize;
        let len = (len % (n - row0 + 1) as u64) as usize;
        let want = &full[row0..row0 + len];
        let pre: Vec<f32> = angles(seed ^ 0x5eed, len).iter().map(|a| a.abs() * 4.0).collect();
        let mut folded = pre.clone();
        scorer.score_slice(&trig, row0, &mut folded);
        let min_fold: Vec<f32> = pre.iter().zip(want).map(|(p, w)| p.min(*w)).collect();
        prop_assert!(same_bits(&folded, &min_fold));
        let mut until = vec![f32::INFINITY; len];
        let done = scorer.score_until(&trig, row0, &mut until, slice_rows, &Deadline::never());
        prop_assert_eq!(done, len);
        prop_assert!(same_bits(&until, want));

        // A shard starting at the unaligned row0, built both from the angle
        // table and by re-slicing the full-precision table: streaming top-k
        // with a global offset equals the full-vector reference's.
        let shard = EntityTrig::from_rows_with(&table, row0..row0 + len, precision);
        let resliced = EntityTrig::with_precision(&table, Precision::F32).slice_rows(row0..row0 + len, precision);
        for part in [&shard, &resliced] {
            prop_assert!(same_bits(&scorer.score_all(part), want));
            let mut heap = TopK::new(slice_rows);
            prop_assert_eq!(scorer.top_k_until(part, row0, &mut heap, &Deadline::never()), len);
            let got = heap.into_sorted();
            let local = top_k_indices(want, slice_rows);
            prop_assert_eq!(got.len(), local.len());
            for (&(i, s), &l) in got.iter().zip(&local) {
                prop_assert_eq!(i as usize, row0 + l as usize);
                prop_assert_eq!(s.to_bits(), want[l as usize].to_bits());
            }
        }

        // The LSH row path keeps the one-row kernel and computes trig on the
        // fly, so it matches the lane sweep of the full-precision table (a
        // 0-dim table is the exception: the sweep leaves its rows at +inf).
        if precision == Precision::F32 && d > 0 {
            let ids: Vec<u32> = (0..n as u32).rev().collect();
            let mut rows = Vec::new();
            scorer.score_rows_into(&table, &ids, &mut rows);
            let want_rows: Vec<f32> = ids.iter().map(|&e| full[e as usize]).collect();
            prop_assert!(same_bits(&rows, &want_rows));
        }
    }
}

#[test]
fn multi_slice_tables_match_reference_at_every_precision() {
    // Several scoring slices plus a ragged last block (n % LANES != 0).
    let n = 2 * SCORE_SLICE + 5;
    assert_ne!(n % LANES, 0);
    let (table, branches) = fixture(42, n, 32, 3);
    for mode in MODES {
        for precision in PRECISIONS {
            assert_table_matches_reference(&table, &branches, mode, precision);
        }
    }
}
